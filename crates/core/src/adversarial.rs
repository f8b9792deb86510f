//! Evolving graphs that separate diameter from flooding time.
//!
//! The Introduction of the paper points out that a diameter bound for a
//! dynamic network implies nothing about its flooding time: one can build an
//! `n`-node dynamic network whose every snapshot has constant diameter yet
//! whose flooding time is `Θ(n)`. The [`RotatingStar`] below is a concrete,
//! deterministic witness (and, being deterministic, it is trivially a
//! Markovian evolving graph with a one-point stationary distribution — one
//! that is *not* an expander, which is exactly why the general theorem's bound
//! degenerates for it).

use crate::evolving::EvolvingGraph;
use meg_graph::{Node, SnapshotBuf};

/// The rotating-star evolving graph.
///
/// At time step `t` the snapshot is a star centred at node `c_t = (offset + t)
/// mod n`. Every snapshot has diameter 2 (any two leaves are joined through
/// the centre), yet flooding started at the node "just behind" the rotation
/// needs `n` rounds: at each step the only uninformed neighbor of the informed
/// set is the current centre, so exactly one new node learns the message per
/// round until the rotation wraps around to an informed centre.
#[derive(Clone, Debug)]
pub struct RotatingStar {
    n: usize,
    offset: u64,
    time: u64,
    snapshot: SnapshotBuf,
}

impl RotatingStar {
    /// Creates a rotating star over `n ≥ 2` nodes with the centre at time `t`
    /// being `(offset + t) mod n`.
    pub fn new(n: usize, offset: u64) -> Self {
        assert!(n >= 2, "rotating star needs at least two nodes");
        RotatingStar {
            n,
            offset,
            time: 0,
            snapshot: SnapshotBuf::with_nodes(n),
        }
    }

    /// The worst-case source for this construction: the node that the
    /// rotation will visit *last* (the centre of the final step before
    /// wrap-around), giving flooding time exactly `n − 1`.
    pub fn worst_source(&self) -> Node {
        ((self.offset as usize + self.n - 1) % self.n) as Node
    }

    /// Flooding time from the worst-case source, by the closed-form analysis:
    /// at round `t` the only uninformed neighbor of the informed set is the
    /// current centre `c_t`, so exactly one node is informed per round until
    /// the last leaf joins at round `n − 1`.
    pub fn predicted_worst_flooding_time(&self) -> u64 {
        (self.n - 1) as u64
    }

    /// Diameter of every snapshot (2 whenever `n ≥ 3`, 1 for `n = 2`).
    pub fn snapshot_diameter(&self) -> u32 {
        if self.n >= 3 {
            2
        } else {
            1
        }
    }

    fn center_at(&self, t: u64) -> Node {
        (((self.offset + t) % self.n as u64) as usize) as Node
    }
}

impl EvolvingGraph for RotatingStar {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let (n, center) = (self.n, self.center_at(self.time));
        // A leaf lists the centre; the centre lists every other node in
        // ascending order.
        self.snapshot.build_rows(n, |u, row| {
            if u == center {
                let others = (0..n as Node).filter(|&v| v != center);
                for (slot, v) in row.spare(n - 1).iter_mut().zip(others) {
                    *slot = v;
                }
                row.commit(n - 1);
            } else {
                row.spare(1)[0] = center;
                row.commit(1);
            }
        });
        self.time += 1;
        &self.snapshot
    }

    fn time(&self) -> u64 {
        self.time
    }
}

/// A "bottleneck" evolving graph: two cliques `A` and `B` of size `n/2`
/// connected at time `t` by the single bridge `{a_t, b_t}` that rotates
/// through `B`.
///
/// Every snapshot is connected with diameter 3, and flooding from inside `A`
/// completes in 3 rounds — this is the *contrast* construction showing that
/// constant diameter plus good expansion (inside the cliques) does give fast
/// flooding; only the rotating star's bad expansion makes flooding slow.
#[derive(Clone, Debug)]
pub struct RotatingBridge {
    n: usize,
    time: u64,
    snapshot: SnapshotBuf,
}

impl RotatingBridge {
    /// Creates the rotating-bridge graph on `n ≥ 4` nodes (`n` even: nodes
    /// `0..n/2` form clique `A`, nodes `n/2..n` clique `B`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4 && n.is_multiple_of(2), "need an even n ≥ 4");
        RotatingBridge {
            n,
            time: 0,
            snapshot: SnapshotBuf::with_nodes(n),
        }
    }

    /// Diameter of every snapshot (3: leaf of A → bridge endpoints → leaf of B).
    pub fn snapshot_diameter(&self) -> u32 {
        3
    }
}

impl EvolvingGraph for RotatingBridge {
    fn num_nodes(&self) -> usize {
        self.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let half = self.n / 2;
        let a = (self.time % half as u64) as Node;
        let b = a + half as Node;
        // A row lists the rest of its clique in ascending order; the two
        // bridge endpoints each append the other end last.
        self.snapshot.build_rows(self.n, |u, row| {
            let lo = if (u as usize) < half { 0 } else { half as Node };
            let clique = (lo..lo + half as Node).filter(|&v| v != u);
            let bridge = if u == a {
                Some(b)
            } else if u == b {
                Some(a)
            } else {
                None
            };
            let len = half - 1 + bridge.is_some() as usize;
            for (slot, v) in row.spare(len).iter_mut().zip(clique.chain(bridge)) {
                *slot = v;
            }
            row.commit(len);
        });
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
    use crate::flooding::flood;
    use meg_graph::{diameter, AdjacencyList, Graph};

    #[test]
    fn rotating_star_snapshots_have_constant_diameter() {
        let mut rs = RotatingStar::new(12, 0);
        for _ in 0..5 {
            let g = rs.advance().clone();
            assert_eq!(diameter::exact(&g).finite(), Some(2));
            assert_eq!(g.num_edges(), 11);
        }
        assert_eq!(rs.snapshot_diameter(), 2);
    }

    #[test]
    fn rotating_star_flooding_from_worst_source_takes_n_rounds() {
        for n in [8usize, 16, 33] {
            let mut rs = RotatingStar::new(n, 0);
            let source = rs.worst_source();
            let predicted = rs.predicted_worst_flooding_time();
            let r = flood(&mut rs, source, 4 * n as u64);
            assert!(r.completed, "n={n}");
            assert_eq!(r.completion_time(), Some(predicted), "n={n}");
        }
    }

    #[test]
    fn rotating_star_flooding_from_lucky_source_is_instant() {
        // Sourcing at the very first centre informs everyone in one round.
        let mut rs = RotatingStar::new(20, 0);
        let r = flood(&mut rs, 0, 100);
        assert_eq!(r.completion_time(), Some(1));
    }

    #[test]
    fn rotating_star_informs_one_node_per_round_before_wraparound() {
        let n = 10usize;
        let mut rs = RotatingStar::new(n, 0);
        let source = rs.worst_source();
        let r = flood(&mut rs, source, 3 * n as u64);
        // counts: 1, 2, 3, ..., n-? — strictly one new node per round until the
        // final round informs the rest at once.
        for w in r.informed_per_round.windows(2).take(n - 2) {
            assert_eq!(w[1] - w[0], 1);
        }
        assert_eq!(*r.informed_per_round.last().unwrap(), n);
    }

    #[test]
    fn rotating_bridge_floods_fast_despite_same_diameter() {
        let mut rb = RotatingBridge::new(40);
        assert_eq!(rb.snapshot_diameter(), 3);
        let g = rb.advance().clone();
        assert_eq!(diameter::exact(&g).finite(), Some(3));
        let mut rb2 = RotatingBridge::new(40);
        let r = flood(&mut rb2, 1, 100);
        assert!(r.completion_time().unwrap() <= 4);
    }

    /// The rows the old staged build gave: each edge added once, in push
    /// order, to an adjacency list, so a row lists its node's edges in that
    /// order.
    fn staged_rows(n: usize, edges: impl IntoIterator<Item = (Node, Node)>) -> Vec<Vec<Node>> {
        let mut g = AdjacencyList::new(n);
        for (u, v) in edges {
            g.add_edge_unchecked(u, v);
        }
        (0..n as Node).map(|u| g.neighbors(u).to_vec()).collect()
    }

    fn rows(buf: &SnapshotBuf) -> Vec<Vec<Node>> {
        (0..buf.num_nodes() as Node)
            .map(|u| buf.neighbors(u).to_vec())
            .collect()
    }

    #[test]
    fn row_built_constructions_equal_the_staged_build_row_for_row() {
        for n in [2usize, 3, 4, 7, 12, 33] {
            let mut rs = RotatingStar::new(n, 5);
            for t in 0..2 * n as u64 {
                let c = rs.center_at(t);
                let want = staged_rows(
                    n,
                    (0..n as Node)
                        .filter(|&v| v != c)
                        .map(|v| (c.min(v), c.max(v))),
                );
                assert_eq!(rows(rs.advance()), want, "star n {n} t {t}");
            }
        }
        for n in [4usize, 6, 10, 40] {
            let half = n / 2;
            let mut rb = RotatingBridge::new(n);
            for t in 0..n as u64 + 3 {
                let clique = |lo: usize, hi: usize| {
                    (lo..hi).flat_map(move |u| (u + 1..hi).map(move |v| (u as Node, v as Node)))
                };
                let a = (t % half as u64) as Node;
                let edges = clique(0, half)
                    .chain(clique(half, n))
                    .chain([(a, a + half as Node)]);
                let want = staged_rows(n, edges);
                let got = rb.advance();
                assert_eq!(got.num_edges(), half * (half - 1) + 1, "bridge n {n} t {t}");
                assert_eq!(rows(got), want, "bridge n {n} t {t}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rotating_star_needs_two_nodes() {
        RotatingStar::new(1, 0);
    }

    #[test]
    #[should_panic]
    fn rotating_bridge_needs_even_n() {
        RotatingBridge::new(7);
    }
}
