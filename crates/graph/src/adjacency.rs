//! Mutable adjacency-list representation of an undirected simple graph.
//!
//! Static graphs (generators, fixtures, frozen and scheduled evolving
//! graphs) are built as an `AdjacencyList`; evolving-graph snapshots are
//! copied into a flat [`SnapshotBuf`](crate::SnapshotBuf) for querying.

use crate::{Graph, Node};

/// Undirected simple graph stored as one neighbor vector per node.
///
/// Self-loops are rejected; parallel edges are ignored when added through
/// [`AdjacencyList::add_edge`], which scans `u`'s row for a duplicate before
/// it appends (O(degree) per insertion). Each row lists its neighbors in
/// insertion order ([`AdjacencyList::remove_edge`] moves the row's last entry
/// into the gap). That order is deterministic and nothing sorts it:
/// RNG-consuming consumers (random contacts, BFS balls) read rows in it, and
/// the golden rows rely on it.
#[derive(Clone, Debug, Default)]
pub struct AdjacencyList {
    adj: Vec<Vec<Node>>,
    num_edges: usize,
}

impl AdjacencyList {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        AdjacencyList {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Creates a graph with `n` nodes from an edge list.
    ///
    /// Duplicate edges and self-loops are ignored.
    pub fn from_edges<I: IntoIterator<Item = (Node, Node)>>(n: usize, edges: I) -> Self {
        let mut g = Self::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Creates a graph from per-node neighbor rows, kept in the given order.
    /// The rows must describe a simple undirected graph (symmetric, no
    /// self-loops, no duplicates).
    pub(crate) fn from_rows(adj: Vec<Vec<Node>>) -> Self {
        let arcs: usize = adj.iter().map(Vec::len).sum();
        debug_assert_eq!(arcs % 2, 0, "rows are not symmetric");
        AdjacencyList {
            adj,
            num_edges: arcs / 2,
        }
    }

    /// Adds the undirected edge `{u, v}`.
    ///
    /// Returns `true` if the edge was added, `false` if it already existed or
    /// `u == v`. Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, u: Node, v: Node) -> bool {
        let n = self.adj.len();
        assert!(
            (u as usize) < n && (v as usize) < n,
            "edge ({u},{v}) out of range for n={n}"
        );
        if u == v {
            return false;
        }
        if self.adj[u as usize].contains(&v) {
            return false;
        }
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.num_edges += 1;
        true
    }

    /// Adds the undirected edge `{u, v}` without checking whether it already
    /// exists.
    ///
    /// This is the fast path used by generators that guarantee uniqueness
    /// (e.g. Erdős–Rényi skip sampling, geometric cell sweeps). Adding a
    /// duplicate edge through this method produces a multigraph and violates
    /// the crate's simple-graph invariant, so callers must uphold uniqueness.
    pub fn add_edge_unchecked(&mut self, u: Node, v: Node) {
        debug_assert_ne!(u, v, "self-loop");
        debug_assert!(
            !self.adj[u as usize].contains(&v),
            "duplicate edge ({u},{v})"
        );
        self.adj[u as usize].push(v);
        self.adj[v as usize].push(u);
        self.num_edges += 1;
    }

    /// Removes the undirected edge `{u, v}` if present; returns whether it was.
    pub fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        if u == v {
            return false;
        }
        let pos = self.adj[u as usize].iter().position(|&w| w == v);
        match pos {
            Some(i) => {
                self.adj[u as usize].swap_remove(i);
                let j = self.adj[v as usize]
                    .iter()
                    .position(|&w| w == u)
                    .expect("asymmetric adjacency");
                self.adj[v as usize].swap_remove(j);
                self.num_edges -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes all edges, keeping the node set.
    pub fn clear_edges(&mut self) {
        for list in self.adj.iter_mut() {
            list.clear();
        }
        self.num_edges = 0;
    }

    /// Returns every edge `{u, v}` with `u < v`, in node order.
    pub fn edges(&self) -> Vec<(Node, Node)> {
        let mut out = Vec::with_capacity(self.num_edges);
        for (u, list) in self.adj.iter().enumerate() {
            for &v in list {
                if (u as Node) < v {
                    out.push((u as Node, v));
                }
            }
        }
        out
    }
}

impl Graph for AdjacencyList {
    fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    fn num_edges(&self) -> usize {
        self.num_edges
    }

    fn neighbors(&self, u: Node) -> &[Node] {
        &self.adj[u as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query() {
        let mut g = AdjacencyList::new(4);
        assert!(g.add_edge(0, 1));
        assert!(g.add_edge(1, 2));
        assert!(!g.add_edge(0, 1), "duplicate rejected");
        assert!(!g.add_edge(1, 0), "reverse duplicate rejected");
        assert!(!g.add_edge(2, 2), "self-loop rejected");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_nodes(), 4);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(3), 0);
    }

    #[test]
    fn remove_edge() {
        let mut g = AdjacencyList::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert_eq!(g.num_edges(), 3);
        assert!(g.remove_edge(1, 0));
        assert!(!g.remove_edge(1, 0));
        assert_eq!(g.num_edges(), 2);
        assert!(!g.has_edge(0, 1));
        assert!(g.has_edge(0, 2));
    }

    #[test]
    fn edges_listing_is_canonical() {
        let g = AdjacencyList::from_edges(4, [(2, 1), (0, 3), (3, 1)]);
        let mut e = g.edges();
        e.sort_unstable();
        assert_eq!(e, vec![(0, 3), (1, 2), (1, 3)]);
    }

    #[test]
    fn clear_edges_keeps_nodes() {
        let mut g = AdjacencyList::from_edges(5, [(0, 1), (2, 3)]);
        g.clear_edges();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn from_edges_ignores_junk() {
        let g = AdjacencyList::from_edges(3, [(0, 0), (0, 1), (1, 0), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
    }
}
