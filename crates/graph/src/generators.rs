//! Deterministic and random graph generators.
//!
//! These serve three purposes: hand-checkable fixtures for tests (path, cycle,
//! star, complete, grid), the Erdős–Rényi family `G(n, p)` that is the
//! stationary law of edge-MEG, and random geometric graphs which are the
//! stationary law of geometric-MEG once node positions are fixed.

use crate::{AdjacencyList, Node};
use rand::Rng;

/// Path graph `0 - 1 - … - (n-1)`.
pub fn path(n: usize) -> AdjacencyList {
    let mut g = AdjacencyList::new(n);
    for u in 1..n {
        g.add_edge_unchecked((u - 1) as Node, u as Node);
    }
    g
}

/// Cycle graph on `n ≥ 3` nodes (for `n < 3` it degenerates to a path).
pub fn cycle(n: usize) -> AdjacencyList {
    let mut g = path(n);
    if n >= 3 {
        g.add_edge_unchecked((n - 1) as Node, 0);
    }
    g
}

/// Star graph: node 0 is the center, nodes `1..=leaves` are leaves.
pub fn star(leaves: usize) -> AdjacencyList {
    let mut g = AdjacencyList::new(leaves + 1);
    for u in 1..=leaves {
        g.add_edge_unchecked(0, u as Node);
    }
    g
}

/// Complete graph on `n` nodes.
pub fn complete(n: usize) -> AdjacencyList {
    let mut g = AdjacencyList::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge_unchecked(u as Node, v as Node);
        }
    }
    g
}

/// Two-dimensional grid graph with `rows × cols` nodes, 4-neighborhood.
/// Node `(r, c)` has index `r * cols + c`.
pub fn grid2d(rows: usize, cols: usize) -> AdjacencyList {
    let mut g = AdjacencyList::new(rows * cols);
    let idx = |r: usize, c: usize| (r * cols + c) as Node;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge_unchecked(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge_unchecked(idx(r, c), idx(r + 1, c));
            }
        }
    }
    g
}

/// Complete bipartite graph `K_{a,b}`; the first `a` nodes form one side.
pub fn complete_bipartite(a: usize, b: usize) -> AdjacencyList {
    let mut g = AdjacencyList::new(a + b);
    for u in 0..a {
        for v in 0..b {
            g.add_edge_unchecked(u as Node, (a + v) as Node);
        }
    }
    g
}

/// Erdős–Rényi random graph `G(n, p)`: every unordered pair is an edge
/// independently with probability `p`.
///
/// Uses geometric "skip" sampling over the lexicographically ordered pairs, so
/// the cost is `O(n + m)` rather than `O(n²)` — essential for the sparse
/// regimes (`p = Θ(log n / n)`) the paper cares about.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, rng: &mut R) -> AdjacencyList {
    assert!((0.0..=1.0).contains(&p), "p={p} must lie in [0, 1]");
    let mut g = AdjacencyList::new(n);
    if n < 2 || p == 0.0 {
        return g;
    }
    if p >= 1.0 {
        return complete(n);
    }
    // Iterate over pairs (u, v), u < v, in lexicographic order, skipping ahead
    // by geometrically distributed gaps.
    let log_q = (1.0 - p).ln();
    let total_pairs = n as u64 * (n as u64 - 1) / 2;
    let mut idx: u64 = 0;
    loop {
        // Draw the gap to the next selected pair: floor(ln(U)/ln(1-p)).
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / log_q).floor() as u64;
        idx = match idx.checked_add(skip) {
            Some(v) => v,
            None => break,
        };
        if idx >= total_pairs {
            break;
        }
        let (a, b) = pair_from_index(n as u64, idx);
        g.add_edge_unchecked(a as Node, b as Node);
        idx += 1;
        if idx >= total_pairs {
            break;
        }
    }
    g
}

/// Maps a linear index in `0 .. n(n-1)/2` to the unordered pair `(a, b)` with
/// `a < b`, in lexicographic order `(0,1), (0,2), …, (0,n-1), (1,2), …`.
///
/// This is the canonical pair numbering shared by the Erdős–Rényi generator
/// here and by the sparse edge-MEG engine (which skip-samples edge births over
/// the same index space).
pub fn pair_from_index(n: u64, idx: u64) -> (u64, u64) {
    debug_assert!(idx < n * (n - 1) / 2);
    // Row a starts at offset a*n - a*(a+1)/2 - a... derive by solving the
    // quadratic; use floating point for the initial guess then correct.
    let mut a = {
        let nf = n as f64;
        let k = idx as f64;
        let guess = nf - 0.5 - ((nf - 0.5) * (nf - 0.5) - 2.0 * k).max(0.0).sqrt();
        guess.floor().max(0.0) as u64
    };
    // Correct the guess (floating point can be off by one in either direction).
    let row_start = |a: u64| a * n - a * (a + 1) / 2;
    while a > 0 && row_start(a) > idx {
        a -= 1;
    }
    while a + 1 < n && row_start(a + 1) <= idx {
        a += 1;
    }
    let b = a + 1 + (idx - row_start(a));
    (a, b)
}

/// Inverse of [`pair_from_index`]: the linear index of the unordered pair
/// `{a, b}` (order of the arguments does not matter; they must differ).
pub fn index_of_pair(n: u64, a: u64, b: u64) -> u64 {
    assert!(a != b && a < n && b < n, "invalid pair ({a},{b}) for n={n}");
    let (a, b) = if a < b { (a, b) } else { (b, a) };
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

/// Random geometric graph: nodes at the given 2-D positions, an edge whenever
/// two nodes are at Euclidean distance ≤ `radius`.
///
/// Uses a uniform cell grid with cell side `radius`, so the cost is
/// `O(n + #candidate pairs)` instead of `O(n²)`.
pub fn geometric_from_positions(positions: &[(f64, f64)], radius: f64) -> AdjacencyList {
    let n = positions.len();
    let mut g = AdjacencyList::new(n);
    if n == 0 || radius <= 0.0 {
        return g;
    }
    let r2 = radius * radius;
    let min_x = positions.iter().map(|p| p.0).fold(f64::INFINITY, f64::min);
    let min_y = positions.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
    let max_x = positions
        .iter()
        .map(|p| p.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let max_y = positions
        .iter()
        .map(|p| p.1)
        .fold(f64::NEG_INFINITY, f64::max);
    let cols = (((max_x - min_x) / radius).floor() as usize + 1).max(1);
    let rows = (((max_y - min_y) / radius).floor() as usize + 1).max(1);
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let cx = (((p.0 - min_x) / radius).floor() as usize).min(cols - 1);
        let cy = (((p.1 - min_y) / radius).floor() as usize).min(rows - 1);
        (cx, cy)
    };
    let mut buckets: Vec<Vec<Node>> = vec![Vec::new(); cols * rows];
    for (i, &p) in positions.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        buckets[cy * cols + cx].push(i as Node);
    }
    for cy in 0..rows {
        for cx in 0..cols {
            let here = &buckets[cy * cols + cx];
            // Pairs within the cell.
            for (i, &u) in here.iter().enumerate() {
                for &v in &here[i + 1..] {
                    if dist2(positions[u as usize], positions[v as usize]) <= r2 {
                        g.add_edge_unchecked(u.min(v), u.max(v));
                    }
                }
            }
            // Pairs with the 4 "forward" neighboring cells (E, SW, S, SE) so
            // each unordered cell pair is visited exactly once.
            let neighbor_cells = [(1isize, 0isize), (-1, 1), (0, 1), (1, 1)];
            for (dx, dy) in neighbor_cells {
                let nx = cx as isize + dx;
                let ny = cy as isize + dy;
                if nx < 0 || ny < 0 || nx as usize >= cols || ny as usize >= rows {
                    continue;
                }
                let there = &buckets[ny as usize * cols + nx as usize];
                for &u in here {
                    for &v in there {
                        if dist2(positions[u as usize], positions[v as usize]) <= r2 {
                            g.add_edge_unchecked(u.min(v), u.max(v));
                        }
                    }
                }
            }
        }
    }
    g
}

#[inline]
fn dist2(a: (f64, f64), b: (f64, f64)) -> f64 {
    let dx = a.0 - b.0;
    let dy = a.1 - b.1;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn deterministic_families_have_expected_sizes() {
        assert_eq!(path(5).num_edges(), 4);
        assert_eq!(cycle(5).num_edges(), 5);
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(star(7).num_edges(), 7);
        assert_eq!(complete(6).num_edges(), 15);
        assert_eq!(grid2d(3, 4).num_edges(), 3 * 3 + 2 * 4);
        assert_eq!(complete_bipartite(3, 4).num_edges(), 12);
    }

    #[test]
    fn pair_from_index_enumerates_all_pairs() {
        let n = 7u64;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..(n * (n - 1) / 2) {
            let (a, b) = pair_from_index(n, idx);
            assert!(a < b && b < n, "bad pair ({a},{b}) at {idx}");
            assert!(seen.insert((a, b)), "duplicate pair ({a},{b})");
        }
        assert_eq!(seen.len() as u64, n * (n - 1) / 2);
    }

    #[test]
    fn index_of_pair_is_the_inverse_of_pair_from_index() {
        let n = 9u64;
        for idx in 0..(n * (n - 1) / 2) {
            let (a, b) = pair_from_index(n, idx);
            assert_eq!(index_of_pair(n, a, b), idx);
            assert_eq!(index_of_pair(n, b, a), idx);
        }
    }

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        assert_eq!(erdos_renyi(10, 0.0, &mut rng).num_edges(), 0);
        assert_eq!(erdos_renyi(10, 1.0, &mut rng).num_edges(), 45);
        assert_eq!(erdos_renyi(1, 0.5, &mut rng).num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_edge_count_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 400;
        let p = 0.02;
        let trials = 20;
        let mut total = 0usize;
        for _ in 0..trials {
            total += erdos_renyi(n, p, &mut rng).num_edges();
        }
        let mean = total as f64 / trials as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!(
            (mean - expected).abs() < 0.15 * expected,
            "mean edges {mean} vs expected {expected}"
        );
    }

    #[test]
    fn geometric_graph_matches_brute_force() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 120;
        let positions: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)))
            .collect();
        let radius = 1.3;
        let fast = geometric_from_positions(&positions, radius);
        // Brute force reference.
        let mut slow = AdjacencyList::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                if dist2(positions[u], positions[v]) <= radius * radius {
                    slow.add_edge(u as Node, v as Node);
                }
            }
        }
        assert_eq!(fast.num_edges(), slow.num_edges());
        for u in 0..n as Node {
            let mut a = fast.neighbors(u).to_vec();
            let mut b = slow.neighbors(u).to_vec();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "neighbors of {u}");
        }
    }

    #[test]
    fn geometric_graph_degenerate_inputs() {
        assert_eq!(geometric_from_positions(&[], 1.0).num_nodes(), 0);
        let one = geometric_from_positions(&[(0.0, 0.0)], 1.0);
        assert_eq!(one.num_nodes(), 1);
        assert_eq!(one.num_edges(), 0);
        let zero_radius = geometric_from_positions(&[(0.0, 0.0), (0.0, 0.0)], 0.0);
        assert_eq!(zero_radius.num_edges(), 0);
    }

    #[test]
    fn geometric_graph_same_position_nodes_connect() {
        let g = geometric_from_positions(&[(1.0, 1.0), (1.0, 1.0), (5.0, 5.0)], 0.5);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(0, 1));
    }
}
