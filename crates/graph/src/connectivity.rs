//! Connectivity: connected components and connectivity predicates.
//!
//! The paper's bounds assume the stationary snapshots are connected
//! (`R ≥ c√(log n)` for geometric-MEG, `p̂ ≥ c log n / n` for edge-MEG).
//! Experiments verify connectivity before trusting a measured flooding time,
//! and the disconnected regime is itself an interesting ablation.

use crate::{Graph, Node};

/// Summary of the component structure of a graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Component id of each node (ids are `0 .. num_components`, assigned in
    /// order of first appearance by node index).
    pub labels: Vec<u32>,
    /// Size of each component, indexed by component id.
    pub sizes: Vec<usize>,
}

impl Components {
    /// Number of connected components.
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// Size of the largest component (0 for the empty graph on zero nodes).
    pub fn largest(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0)
    }
}

/// Computes connected components by repeated BFS.
pub fn connected_components<G: Graph + ?Sized>(g: &G) -> Components {
    let n = g.num_nodes();
    let mut labels = vec![u32::MAX; n];
    let mut sizes = Vec::new();
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        let id = sizes.len() as u32;
        let mut size = 0usize;
        labels[start] = id;
        queue.push_back(start as Node);
        while let Some(u) = queue.pop_front() {
            size += 1;
            for &v in g.neighbors(u) {
                if labels[v as usize] == u32::MAX {
                    labels[v as usize] = id;
                    queue.push_back(v);
                }
            }
        }
        sizes.push(size);
    }
    Components { labels, sizes }
}

/// Returns `true` if the graph is connected (graphs on 0 or 1 nodes count as
/// connected).
pub fn is_connected<G: Graph + ?Sized>(g: &G) -> bool {
    let n = g.num_nodes();
    if n <= 1 {
        return true;
    }
    crate::bfs::reachable_count(g, 0) == n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, AdjacencyList};

    #[test]
    fn components_of_two_triangles() {
        let g = AdjacencyList::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 2);
        assert_eq!(c.sizes, vec![3, 3]);
        assert_eq!(c.largest(), 3);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn connected_predicates() {
        assert!(is_connected(&generators::complete(10)));
        assert!(is_connected(&generators::path(10)));
        assert!(is_connected(&AdjacencyList::new(1)));
        assert!(is_connected(&AdjacencyList::new(0)));
        assert!(!is_connected(&AdjacencyList::new(2)));
    }

    #[test]
    fn isolated_nodes_are_singleton_components() {
        let g = AdjacencyList::from_edges(4, [(1, 2)]);
        let c = connected_components(&g);
        assert_eq!(c.count(), 3);
        assert_eq!(c.largest(), 2);
    }
}
