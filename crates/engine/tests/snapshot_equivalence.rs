//! Property test: the flat-CSR [`SnapshotBuf`] snapshot every substrate now
//! produces is edge-set-identical (and neighbor-order-identical) to the
//! `AdjacencyList` construction it replaced.
//!
//! 200 random `(seed, params)` draws spread over all substrate families —
//! dense edge-MEG, sparse edge-MEG, geometric-MEG on the square and on the
//! torus, the adversarial constructions, and the frozen/scheduled adapters.
//! For every drawn snapshot we check, as applicable:
//!
//! * **round trip** — replaying the snapshot's edge stream into an
//!   `AdjacencyList` (the old representation) reproduces exactly the same
//!   per-node neighbor slices, so the CSR stable counting sort is
//!   behaviourally identical to per-node pushes;
//! * **simplicity** — rebuilding through the deduplicating
//!   `AdjacencyList::from_edges` keeps the edge count, i.e. the snapshot has
//!   no self-loops and no duplicate edges;
//! * **independent reference** — geometric snapshots equal the O(n²)
//!   brute-force radius graph of the very positions they were built from, and
//!   frozen/scheduled snapshots equal their source graphs including order.

use meg_core::evolving::{EvolvingGraph, FrozenGraph, ScheduledGraph};
use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg};
use meg_geometric::radius_graph::radius_graph_brute_force;
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_graph::{generators, AdjacencyList, Graph, Node, SnapshotBuf};
use meg_mobility::{Mobility, TorusWalkers};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The old-representation invariants every snapshot must satisfy.
fn assert_snapshot_matches_adjacency_semantics(buf: &SnapshotBuf, context: &str) {
    let n = buf.num_nodes();
    // Replay the staged edge stream into the legacy structure: neighbor
    // slices must agree node-for-node, in order.
    let replayed = buf.to_adjacency();
    assert_eq!(replayed.num_edges(), buf.num_edges(), "{context}");
    for u in 0..n as Node {
        assert_eq!(
            buf.neighbors(u),
            replayed.neighbors(u),
            "{context}: neighbor slice of {u}"
        );
        assert_eq!(
            Graph::degree(buf, u),
            replayed.degree(u),
            "{context}: degree of {u}"
        );
    }
    // Rebuilding through the deduplicating constructor keeps the count:
    // no duplicate edges, no self-loops.
    let dedup = AdjacencyList::from_edges(n, buf.edges());
    assert_eq!(
        dedup.num_edges(),
        buf.num_edges(),
        "{context}: snapshot is not simple"
    );
}

fn assert_same_edge_set(buf: &SnapshotBuf, reference: &AdjacencyList, context: &str) {
    assert_eq!(buf.num_nodes(), reference.num_nodes(), "{context}");
    assert_eq!(buf.num_edges(), reference.num_edges(), "{context}");
    for u in 0..buf.num_nodes() as Node {
        let mut a = buf.neighbors(u).to_vec();
        let mut b = reference.neighbors(u).to_vec();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "{context}: neighbors of {u}");
    }
}

#[test]
fn snapshots_are_edge_set_identical_to_the_adjacency_construction() {
    let mut draws = 0usize;
    for seed in 0..25u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(0xC0FF_EE00 + seed);

        // --- dense edge-MEG ---------------------------------------------
        {
            let n = rng.gen_range(8..80usize);
            let p_hat = rng.gen_range(0.01..0.5);
            let q = rng.gen_range(0.01..0.9);
            let params = EdgeMegParams::with_stationary(n, p_hat, q);
            let mut meg = DenseEdgeMeg::stationary(params, seed);
            for step in 0..3 {
                // The chain steps at the start of `advance`, so afterwards
                // the state is the one the snapshot was built from.
                let snap = meg.advance().clone();
                assert_eq!(
                    snap.num_edges(),
                    meg.alive_edges(),
                    "dense seed {seed} step {step}: snapshot != alive set"
                );
                assert_snapshot_matches_adjacency_semantics(&snap, "dense");
            }
            draws += 1;
        }

        // --- sparse edge-MEG --------------------------------------------
        {
            let n = rng.gen_range(20..200usize);
            let p_hat = rng.gen_range(0.005..0.2);
            let q = rng.gen_range(0.05..0.9);
            let params = EdgeMegParams::with_stationary(n, p_hat, q);
            let mut meg = SparseEdgeMeg::stationary(params, seed);
            for step in 0..3 {
                let snap = meg.advance().clone();
                assert_eq!(
                    snap.num_edges(),
                    meg.alive_edges(),
                    "sparse seed {seed} step {step}: snapshot != alive set"
                );
                assert_snapshot_matches_adjacency_semantics(&snap, "sparse");
            }
            draws += 1;
        }

        // --- geometric-MEG, square metric (grid walk) -------------------
        {
            let n = rng.gen_range(10..150usize);
            let radius = rng.gen_range(0.5..(n as f64).sqrt());
            let params = GeometricMegParams {
                n,
                move_radius: rng.gen_range(0.5..3.0),
                transmission_radius: radius.max(1.1),
                resolution: 1.0,
            };
            let mut meg = GeometricMeg::from_params(params, seed);
            for _ in 0..2 {
                // Positions *after* advance are what the snapshot is built
                // from (advance moves the nodes, then builds).
                let snap = meg.advance().clone();
                let positions = meg.mobility().positions();
                let brute =
                    radius_graph_brute_force(positions, params.transmission_radius, meg.region());
                assert_same_edge_set(&snap, &brute, "geometric/square");
                assert_snapshot_matches_adjacency_semantics(&snap, "geometric/square");
            }
            draws += 1;
        }

        // --- geometric-MEG, torus metric (walkers) ----------------------
        {
            let n = rng.gen_range(10..120usize);
            let side = (n as f64).sqrt().max(3.0);
            let radius = rng.gen_range(0.4..side);
            let walkers = TorusWalkers::new(n, side, rng.gen_range(0.2..2.0), 1.0, &mut rng);
            let mut meg = GeometricMeg::new(walkers, radius, seed);
            for _ in 0..2 {
                let snap = meg.advance().clone();
                let brute =
                    radius_graph_brute_force(meg.mobility().positions(), radius, meg.region());
                assert_same_edge_set(&snap, &brute, "geometric/torus");
                assert_snapshot_matches_adjacency_semantics(&snap, "geometric/torus");
            }
            draws += 1;
        }

        // --- adversarial constructions ----------------------------------
        {
            let n = rng.gen_range(4..40usize);
            let mut star = meg_core::adversarial::RotatingStar::new(n.max(2), seed);
            let snap = star.advance();
            assert_eq!(snap.num_edges(), n.max(2) - 1);
            assert_snapshot_matches_adjacency_semantics(snap, "rotating star");

            let even = {
                let n = n.max(4);
                n + n % 2
            };
            let mut bridge = meg_core::adversarial::RotatingBridge::new(even);
            let snap = bridge.advance();
            let half = even / 2;
            assert_eq!(snap.num_edges(), half * (half - 1) + 1);
            assert_snapshot_matches_adjacency_semantics(snap, "rotating bridge");
            draws += 2;
        }

        // --- frozen / scheduled adapters --------------------------------
        {
            let n = rng.gen_range(4..60usize);
            let graph = generators::erdos_renyi(n, rng.gen_range(0.05..0.6), &mut rng);
            let mut frozen = FrozenGraph::new(graph.clone());
            let snap = frozen.advance();
            assert_eq!(snap.num_edges(), graph.num_edges());
            for u in 0..n as Node {
                assert_eq!(
                    snap.neighbors(u),
                    graph.neighbors(u),
                    "frozen adapter must preserve neighbor order"
                );
            }

            let other = generators::cycle(n);
            let mut scheduled = ScheduledGraph::new(vec![graph.clone(), other.clone()]);
            let first = scheduled.advance();
            assert_eq!(first.num_edges(), graph.num_edges());
            let second = scheduled.advance();
            assert_eq!(second.num_edges(), other.num_edges());
            for u in 0..n as Node {
                assert_eq!(second.neighbors(u), other.neighbors(u));
            }
            draws += 2;
        }
    }
    assert_eq!(draws, 25 * 8, "expected 200 random draws");
}
