//! The geometric-MEG evolving graph.

use crate::radius_graph::{radius_graph_into, RadiusGraphWorkspace};
use meg_core::evolving::EvolvingGraph;
use meg_graph::{NodeSet, SnapshotBuf};
use meg_mobility::grid_walk::{GridWalk, GridWalkParams};
use meg_mobility::{Mobility, Region};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of the paper's canonical geometric-MEG
/// `G(n, r, R, ε)` (Section 3): density-1 square of side `√n`, grid-walk
/// mobility with move radius `r`, transmission radius `R`, grid resolution
/// `ε`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeometricMegParams {
    /// Number of nodes.
    pub n: usize,
    /// Move radius `r` (maximum node speed per step).
    pub move_radius: f64,
    /// Transmission radius `R`.
    pub transmission_radius: f64,
    /// Grid resolution `ε` (`0 < ε ≤ 1` and `ε < R` in the paper).
    pub resolution: f64,
}

impl GeometricMegParams {
    /// Canonical parameters with `ε = 1` and the paper's density-1 region.
    pub fn new(n: usize, move_radius: f64, transmission_radius: f64) -> Self {
        GeometricMegParams {
            n,
            move_radius,
            transmission_radius,
            resolution: 1.0,
        }
    }

    /// Side of the support square (`√n` at density 1).
    pub fn side(&self) -> f64 {
        (self.n as f64).sqrt()
    }
}

/// A geometric Markovian evolving graph: any mobility model plus a
/// transmission radius.
///
/// The snapshot returned by the `t`-th call to
/// [`advance`](EvolvingGraph::advance) (counting from 0) is the radius graph
/// of the node positions `P_t`: every call but the first moves the nodes from
/// `P_{t−1}` to `P_t` before it builds. With a stationary mobility
/// initialisation this is exactly the *stationary geometric-MEG* of the
/// paper.
///
/// [`advance_rows`](EvolvingGraph::advance_rows) builds only the rows its
/// reader reads, from `G_1` on: `G_0` is always built whole, so the
/// snapshot's arc buffer reaches its full size in one build, as it does
/// without partial builds.
#[derive(Clone, Debug)]
pub struct GeometricMeg<M: Mobility> {
    mobility: M,
    radius: f64,
    rng: StdRng,
    /// Model-owned snapshot buffer, rebuilt in place every step.
    snapshot: SnapshotBuf,
    /// Reusable bucket-grid scratch for the radius-graph construction.
    workspace: RadiusGraphWorkspace,
    time: u64,
}

impl<M: Mobility> GeometricMeg<M> {
    /// Wraps a mobility model (whose positions should already be stationary —
    /// every model in `meg-mobility` initialises itself that way).
    pub fn new(mobility: M, transmission_radius: f64, seed: u64) -> Self {
        assert!(
            transmission_radius > 0.0,
            "transmission radius must be positive"
        );
        let n = mobility.num_nodes();
        GeometricMeg {
            mobility,
            radius: transmission_radius,
            rng: StdRng::seed_from_u64(seed),
            snapshot: SnapshotBuf::with_nodes(n),
            workspace: RadiusGraphWorkspace::default(),
            time: 0,
        }
    }

    /// The transmission radius `R`.
    pub fn transmission_radius(&self) -> f64 {
        self.radius
    }

    /// The region nodes move in.
    pub fn region(&self) -> Region {
        self.mobility.region()
    }

    /// Borrows the underlying mobility model.
    pub fn mobility(&self) -> &M {
        &self.mobility
    }

    /// Re-draws the node positions from the mobility model's stationary
    /// distribution and resets the clock (a fresh stationary run).
    pub fn reset_stationary(&mut self) {
        self.mobility.sample_stationary(&mut self.rng);
        self.time = 0;
    }

    /// Builds (and returns a reference to) the snapshot of the *current*
    /// positions without moving the nodes: `G_0` before the first
    /// [`advance`](EvolvingGraph::advance), and afterwards the snapshot the
    /// last `advance` returned (the nodes move at the start of the next
    /// call).
    pub fn current_snapshot(&mut self) -> &SnapshotBuf {
        radius_graph_into(
            self.mobility.positions(),
            self.radius,
            self.mobility.region(),
            None,
            &mut self.workspace,
            &mut self.snapshot,
        );
        &self.snapshot
    }
}

impl GeometricMeg<GridWalk> {
    /// The paper's canonical model `G(n, r, R, ε)` with stationary start.
    pub fn from_params(params: GeometricMegParams, seed: u64) -> Self {
        assert!(
            params.resolution < params.transmission_radius,
            "the paper requires ε < R"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let walk = GridWalk::new(
            GridWalkParams {
                n: params.n,
                side: params.side(),
                move_radius: params.move_radius,
                resolution: params.resolution,
            },
            &mut rng,
        );
        GeometricMeg::new(walk, params.transmission_radius, seed)
    }
}

impl<M: Mobility> EvolvingGraph for GeometricMeg<M> {
    fn num_nodes(&self) -> usize {
        self.mobility.num_nodes()
    }

    fn advance(&mut self) -> &SnapshotBuf {
        self.advance_rows(None)
    }

    fn advance_rows(&mut self, rows: Option<&NodeSet>) -> &SnapshotBuf {
        let _span = meg_obs::span("advance");
        let rows = if self.time > 0 {
            let _step = meg_obs::span("step");
            self.mobility.advance(&mut self.rng);
            rows
        } else {
            None
        };
        let _build = meg_obs::span("build");
        radius_graph_into(
            self.mobility.positions(),
            self.radius,
            self.mobility.region(),
            rows,
            &mut self.workspace,
            &mut self.snapshot,
        );
        self.time += 1;
        &self.snapshot
    }

    fn time(&self) -> u64 {
        self.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meg_core::flooding::flood;
    use meg_graph::{connectivity, Graph};
    use meg_mobility::TorusWalkers;
    use rand::rngs::StdRng;

    #[test]
    fn params_and_accessors() {
        let p = GeometricMegParams::new(400, 1.0, 5.0);
        assert_eq!(p.side(), 20.0);
        let meg = GeometricMeg::from_params(p, 7);
        assert_eq!(meg.num_nodes(), 400);
        assert_eq!(meg.transmission_radius(), 5.0);
        assert_eq!(meg.time(), 0);
        assert!(!meg.region().is_torus());
    }

    #[test]
    fn snapshots_change_over_time_but_node_count_does_not() {
        let mut meg = GeometricMeg::from_params(GeometricMegParams::new(300, 2.0, 4.0), 3);
        let e0 = meg.advance().num_edges();
        let mut changed = false;
        for _ in 0..5 {
            let e = meg.advance().num_edges();
            if e != e0 {
                changed = true;
            }
            assert_eq!(meg.num_nodes(), 300);
        }
        assert!(changed, "edge set should fluctuate as nodes move");
        assert_eq!(meg.time(), 6);
    }

    #[test]
    fn above_threshold_snapshots_are_connected_and_flooding_completes() {
        // n = 400, side 20, R = 6 ≥ 2√(ln 400) ≈ 4.9.
        let params = GeometricMegParams::new(400, 1.0, 6.0);
        let mut meg = GeometricMeg::from_params(params, 11);
        let snap = meg.current_snapshot().clone();
        assert!(
            connectivity::is_connected(&snap),
            "stationary snapshot should be connected"
        );
        let result = flood(&mut meg, 0, 10_000);
        assert!(result.completed);
        // Flooding should take at least ~√n/(R+r) rounds and at most a few dozen.
        let t = result.completion_time().unwrap();
        assert!(t >= 2, "flooding time {t} suspiciously small");
        assert!(t <= 60, "flooding time {t} suspiciously large");
    }

    #[test]
    fn zero_speed_mobility_reduces_to_static_graph() {
        // Move radius much smaller than the grid resolution freezes the walk
        // (the only point within distance r is the point itself).
        let params = GeometricMegParams {
            n: 200,
            move_radius: 0.4,
            transmission_radius: 5.0,
            resolution: 1.0,
        };
        let mut meg = GeometricMeg::from_params(params, 5);
        let a = meg.advance().clone();
        let b = meg.advance().clone();
        assert_eq!(a.num_edges(), b.num_edges());
        for u in 0..200u32 {
            let mut na = a.neighbors(u).to_vec();
            let mut nb = b.neighbors(u).to_vec();
            na.sort_unstable();
            nb.sort_unstable();
            assert_eq!(na, nb);
        }
    }

    #[test]
    fn works_with_torus_mobility_models() {
        let mut rng = StdRng::seed_from_u64(1);
        let walkers = TorusWalkers::new(300, (300f64).sqrt(), 1.5, 1.0, &mut rng);
        let mut meg = GeometricMeg::new(walkers, 5.0, 2);
        assert!(meg.region().is_torus());
        let result = flood(&mut meg, 5, 5_000);
        assert!(result.completed);
    }

    #[test]
    fn partial_advances_build_g0_whole_and_later_only_the_asked_rows() {
        let params = GeometricMegParams::new(300, 2.0, 4.0);
        let mut partial = GeometricMeg::from_params(params, 13);
        let mut whole = partial.clone();
        let rows = NodeSet::from_iter(300, [7, 150, 299]);
        for t in 0..4 {
            let full = whole.advance().clone();
            let got = partial.advance_rows(Some(&rows));
            if t == 0 {
                // G_0 is built whole whatever the set: every row is readable.
                assert_eq!(got.num_edges(), full.num_edges());
                assert_eq!(got.edges(), full.edges());
            } else {
                let arcs: usize = rows.iter().map(|u| full.degree(u)).sum();
                assert_eq!(got.num_arcs(), arcs, "t = {t}: a row outside the set");
                for u in rows.iter() {
                    assert_eq!(got.neighbors(u), full.neighbors(u), "t = {t} row {u}");
                }
            }
        }
        // Partial builds move nothing: the next whole snapshot is the same.
        assert_eq!(partial.advance().edges(), whole.advance().edges());
    }

    #[test]
    fn reset_stationary_restarts_the_clock() {
        let mut meg = GeometricMeg::from_params(GeometricMegParams::new(100, 1.0, 5.0), 9);
        meg.advance();
        meg.advance();
        assert_eq!(meg.time(), 2);
        meg.reset_stationary();
        assert_eq!(meg.time(), 0);
    }

    #[test]
    #[should_panic]
    fn resolution_must_be_below_radius() {
        GeometricMeg::from_params(
            GeometricMegParams {
                n: 10,
                move_radius: 1.0,
                transmission_radius: 0.5,
                resolution: 1.0,
            },
            0,
        );
    }
}
