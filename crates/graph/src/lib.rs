//! # meg-graph
//!
//! Static-graph substrate for the `meg` workspace.
//!
//! Every snapshot `G_t` of a Markovian evolving graph is an ordinary
//! undirected graph over the node set `[n] = {0, …, n-1}`. This crate provides
//! the data structures and algorithms those snapshots need:
//!
//! * [`NodeSet`] — a word-packed bitset over `[n]`, used for informed sets and
//!   neighborhoods;
//! * [`PairBits`] — a word-packed bitset over the `n(n−1)/2` unordered node
//!   pairs, the alive-flag representation of the dense edge-MEG;
//! * [`AdjacencyList`] and [`SnapshotBuf`] — a mutable adjacency list and
//!   the reusable flat CSR buffer every evolving-graph snapshot is built
//!   into, both implementing the [`Graph`] trait;
//! * traversals and global metrics: [`bfs`], [`connectivity`], [`diameter`],
//!   [`degree`], [`metrics`];
//! * [`expansion`] — measurement of the parameterized `(h, k)`-node-expansion
//!   that drives the paper's flooding-time bounds;
//! * [`generators`] — classic random and deterministic graph families used as
//!   baselines and test fixtures (Erdős–Rényi, random geometric, grid, ring,
//!   star, complete, …).
//!
//! The crate is deliberately free of any "evolving" notion: dynamics live in
//! `meg-core` and the model crates.
//!
//! ## Example
//!
//! ```
//! use meg_graph::{bfs, connectivity, AdjacencyList, Graph, NodeSet};
//!
//! // A 5-node path 0–1–2–3–4.
//! let g = AdjacencyList::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
//! assert_eq!(g.num_edges(), 4);
//! assert!(connectivity::is_connected(&g));
//! assert_eq!(bfs::distances(&g, 0)[4], 4);
//!
//! // Node sets with constant-time membership over a fixed universe.
//! let mut informed = NodeSet::new(5);
//! informed.insert(0);
//! let frontier = meg_graph::out_neighborhood(&g, &informed);
//! assert_eq!(frontier.iter().collect::<Vec<_>>(), vec![1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bfs;
pub mod connectivity;
pub mod degree;
pub mod diameter;
pub mod expansion;
pub mod generators;
pub mod metrics;
pub mod nodeset;
pub mod pair_bits;
pub mod snapshot_buf;

pub use adjacency::AdjacencyList;
pub use nodeset::NodeSet;
pub use pair_bits::PairBits;
pub use snapshot_buf::{RowWriter, SnapshotBuf};

/// A node identifier. Nodes are always the integers `0 .. n`.
pub type Node = u32;

/// Minimal read-only interface shared by all static graph representations.
///
/// The trait is object-safe so higher layers (the flooding engine, the
/// expansion analyzer) can operate on any snapshot representation.
pub trait Graph {
    /// Number of nodes `n`. Nodes are `0 .. n`.
    fn num_nodes(&self) -> usize;

    /// Number of undirected edges.
    fn num_edges(&self) -> usize;

    /// Invokes `f` on every neighbor of `u`.
    ///
    /// The same neighbor is never reported twice and `u` itself is never
    /// reported (simple graphs only).
    fn for_each_neighbor(&self, u: Node, f: &mut dyn FnMut(Node));

    /// Degree of node `u`.
    fn degree(&self, u: Node) -> usize {
        let mut d = 0usize;
        self.for_each_neighbor(u, &mut |_| d += 1);
        d
    }

    /// Returns `true` if `{u, v}` is an edge.
    fn has_edge(&self, u: Node, v: Node) -> bool {
        let mut found = false;
        self.for_each_neighbor(u, &mut |w| {
            if w == v {
                found = true;
            }
        });
        found
    }

    /// Collects the neighbors of `u` into a vector (convenience, allocates).
    fn neighbors_vec(&self, u: Node) -> Vec<Node> {
        let mut out = Vec::with_capacity(self.degree(u));
        self.for_each_neighbor(u, &mut |v| out.push(v));
        out
    }

    /// Borrows the neighbors of `u` as a contiguous slice when the
    /// representation stores them contiguously ([`AdjacencyList`],
    /// [`SnapshotBuf`]); `None` otherwise.
    ///
    /// Hot loops should go through [`visit_neighbors`], which takes this fast
    /// path when available and falls back to
    /// [`for_each_neighbor`](Graph::for_each_neighbor) (a dynamic call per
    /// neighbor) when it is not. The slice order **must** equal the
    /// `for_each_neighbor` order — RNG-consuming consumers rely on it.
    fn neighbor_slice(&self, _u: Node) -> Option<&[Node]> {
        None
    }
}

/// Invokes `f` on every neighbor of `u`, using the contiguous
/// [`Graph::neighbor_slice`] fast path when the representation provides one.
#[inline]
pub fn visit_neighbors<G: Graph + ?Sized>(g: &G, u: Node, mut f: impl FnMut(Node)) {
    match g.neighbor_slice(u) {
        Some(slice) => {
            for &v in slice {
                f(v);
            }
        }
        None => g.for_each_neighbor(u, &mut f),
    }
}

/// Out-neighborhood `N(I)` of a node set `I`: all nodes *outside* `I` adjacent
/// to some node of `I` (Section 2 of the paper).
///
/// One membership test and one insert per neighbor visit. Panics if `set`
/// is not over the graph's universe `[n]` or a row lists an id ≥ `n`.
pub fn out_neighborhood<G: Graph + ?Sized>(g: &G, set: &NodeSet) -> NodeSet {
    assert_eq!(set.universe(), g.num_nodes(), "universe mismatch");
    let mut out = NodeSet::new(g.num_nodes());
    for u in set.iter() {
        visit_neighbors(g, u, |v| {
            if !set.contains(v) {
                out.insert(v);
            }
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::BTreeSet;

    /// `N(I)` by its definition: every node outside `I` that some member
    /// of `I` lists as a neighbor.
    fn out_neighborhood_definition<G: Graph + ?Sized>(g: &G, set: &NodeSet) -> BTreeSet<Node> {
        set.iter()
            .flat_map(|u| g.neighbors_vec(u))
            .filter(|&v| !set.contains(v))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `out_neighborhood` equals the definition as a set and in `len()`,
        /// on random graphs over `n` in 1..200 (both `n % 64 == 0` and
        /// ragged tails) whose nodes ≡ 3 mod 7 stay isolated, for the empty
        /// set, a single node, a random set, a BFS ball and the full set, on
        /// the adjacency list and on its CSR copy.
        #[test]
        fn out_neighborhood_equals_the_set_definition(
            n in 1usize..200,
            degree in 0usize..12,
            seed in 0u64..1_000_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let linked: Vec<Node> = (0..n as Node).filter(|u| u % 7 != 3).collect();
            let mut g = AdjacencyList::new(n);
            for _ in 0..n * degree / 2 {
                let u = linked[rng.gen_range(0..linked.len())];
                let v = linked[rng.gen_range(0..linked.len())];
                if u != v {
                    g.add_edge(u, v);
                }
            }
            let mut csr = SnapshotBuf::new();
            csr.copy_from_adjacency(&g);
            let pick = |rng: &mut ChaCha8Rng| rng.gen_range(0..n) as Node;
            let sets = [
                NodeSet::new(n),
                NodeSet::singleton(n, pick(&mut rng)),
                NodeSet::from_iter(n, (0..n as Node).filter(|_| rng.gen_bool(0.3))),
                expansion::bfs_ball(&g, pick(&mut rng), rng.gen_range(1..=n)),
                NodeSet::full(n),
            ];
            for set in &sets {
                let want = out_neighborhood_definition(&g, set);
                for got in [out_neighborhood(&g, set), out_neighborhood(&csr, set)] {
                    prop_assert_eq!(got.iter().collect::<BTreeSet<Node>>(), want.clone());
                    prop_assert_eq!(got.len(), want.len());
                }
            }
        }
    }

    /// A graph whose node 0 lists one neighbor id, valid or not.
    struct OneArc {
        n: usize,
        neighbor: Node,
    }

    impl Graph for OneArc {
        fn num_nodes(&self) -> usize {
            self.n
        }
        fn num_edges(&self) -> usize {
            1
        }
        fn for_each_neighbor(&self, u: Node, f: &mut dyn FnMut(Node)) {
            if u == 0 {
                f(self.neighbor);
            }
        }
    }

    #[test]
    #[should_panic(expected = "node 100 outside universe 70")]
    fn neighbor_id_in_the_last_words_tail_panics() {
        let g = OneArc {
            n: 70,
            neighbor: 100,
        };
        out_neighborhood(&g, &NodeSet::singleton(70, 0));
    }

    #[test]
    fn out_neighborhood_of_path() {
        // 0 - 1 - 2 - 3
        let g = generators::path(4);
        let mut s = NodeSet::new(4);
        s.insert(1);
        let nb = out_neighborhood(&g, &s);
        assert!(nb.contains(0));
        assert!(nb.contains(2));
        assert!(!nb.contains(1));
        assert!(!nb.contains(3));
        assert_eq!(nb.len(), 2);
    }

    #[test]
    fn out_neighborhood_excludes_members() {
        let g = generators::complete(5);
        let mut s = NodeSet::new(5);
        s.insert(0);
        s.insert(1);
        let nb = out_neighborhood(&g, &s);
        assert_eq!(nb.len(), 3);
        for u in 2..5 {
            assert!(nb.contains(u));
        }
    }

    #[test]
    fn default_degree_and_has_edge() {
        let g = generators::cycle(6);
        assert_eq!(Graph::degree(&g, 0), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(0, 5));
        assert!(!g.has_edge(0, 3));
    }
}
