//! Property-based tests for the static-graph substrate.

use meg_graph::generators::pair_from_index;
use meg_graph::{
    bfs, connectivity, diameter, expansion, generators, AdjacencyList, Graph, Node, SnapshotBuf,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

/// A strictly ascending pair list over the `n`-node triangle in one of six
/// shapes: empty, complete, a star at node 0 (its row has only a forward
/// part, every other row only a low part), a star at node `n − 1` (the
/// reverse), a Bernoulli subset at a density spread over (0, 1), or a few
/// whole rows' worth of random pairs.
fn pair_list(n: usize, shape: u32, density: f64, seed: u64) -> Vec<u64> {
    let total = (n * n.saturating_sub(1) / 2) as u64;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let pair = |a: usize, b: usize| generators::index_of_pair(n as u64, a as u64, b as u64);
    match shape {
        0 => Vec::new(),
        1 => (0..total).collect(),
        2 => (1..n).map(|b| pair(0, b)).collect(),
        3 => (0..n.saturating_sub(1)).map(|a| pair(a, n - 1)).collect(),
        4 => (0..total).filter(|_| rng.gen_bool(density)).collect(),
        _ if total == 0 => Vec::new(),
        _ => {
            let mut pairs: Vec<u64> = (0..3 * n).map(|_| rng.gen_range(0..total)).collect();
            pairs.sort_unstable();
            pairs.dedup();
            pairs
        }
    }
}

/// Every row in stored order.
fn rows(g: &impl Graph) -> Vec<Vec<Node>> {
    (0..g.num_nodes() as Node)
        .map(|u| g.neighbors_vec(u))
        .collect()
}

fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..(4 * n)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The reference is the staged build's row order: each pair added once,
    /// in list order, to an adjacency list, so a row lists its node's edges
    /// in push order.
    #[test]
    fn pair_list_build_equals_the_staged_build_row_for_row(
        n in 0usize..200,
        shape in 0u32..6,
        density in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        earlier in 0u32..6,
    ) {
        // The buffer first holds another snapshot of the same kind, so the
        // build must also clear whatever it reuses.
        let mut built = SnapshotBuf::new();
        built.build_from_pairs(n / 2, pair_list(n / 2, earlier, 0.3, seed ^ 1));
        let pairs = pair_list(n, shape, density, seed);
        built.build_from_pairs(n, pairs.iter().copied());
        let mut staged = AdjacencyList::new(n);
        for &k in &pairs {
            let (a, b) = pair_from_index(n as u64, k);
            staged.add_edge_unchecked(a as Node, b as Node);
        }
        prop_assert_eq!(built.num_nodes(), n);
        prop_assert_eq!(built.num_edges(), pairs.len());
        prop_assert_eq!(rows(&built), rows(&staged));
        for u in 0..n as Node {
            prop_assert_eq!(Graph::degree(&built, u), staged.degree(u));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn handshake_lemma_holds((n, edges) in edges_strategy(80)) {
        let g = AdjacencyList::from_edges(n, edges);
        let degree_sum: usize = (0..n as u32).map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    #[test]
    fn bfs_distances_satisfy_triangle_like_step((n, edges) in edges_strategy(50), s in 0u32..50) {
        let g = AdjacencyList::from_edges(n, edges);
        let s = s % n as u32;
        let dist = bfs::distances(&g, s);
        prop_assert_eq!(dist[s as usize], 0);
        // every edge connects nodes whose distances differ by at most 1
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u as usize], dist[v as usize]);
            match (du == bfs::UNREACHABLE, dv == bfs::UNREACHABLE) {
                (true, true) => {}
                (false, false) => prop_assert!(du.abs_diff(dv) <= 1),
                _ => prop_assert!(false, "edge between reachable and unreachable node"),
            }
        }
    }

    #[test]
    fn components_partition_the_nodes((n, edges) in edges_strategy(60)) {
        let g = AdjacencyList::from_edges(n, edges);
        let comps = connectivity::connected_components(&g);
        prop_assert_eq!(comps.labels.len(), n);
        prop_assert_eq!(comps.sizes.iter().sum::<usize>(), n);
        prop_assert_eq!(comps.count() == 1, connectivity::is_connected(&g));
        // nodes joined by an edge share a label
        for (u, v) in g.edges() {
            prop_assert_eq!(comps.labels[u as usize], comps.labels[v as usize]);
        }
    }

    #[test]
    fn double_sweep_bounds_exact_diameter((n, edges) in edges_strategy(40), s in 0u32..40) {
        let g = AdjacencyList::from_edges(n, edges);
        let s = s % n as u32;
        match (diameter::exact(&g), diameter::double_sweep_lower_bound(&g, s)) {
            (diameter::Diameter::Finite(exact), diameter::Diameter::Finite(lower)) => {
                prop_assert!(lower <= exact);
                prop_assert!(2 * lower >= exact, "double sweep is a 2-approximation");
            }
            (diameter::Diameter::Infinite, _) => {}
            (finite, infinite) => {
                prop_assert!(false, "exact {:?} but double sweep {:?}", finite, infinite);
            }
        }
    }

    #[test]
    fn erdos_renyi_monotone_in_p(n in 5usize..80, seed in 0u64..100) {
        use rand::SeedableRng;
        let mut rng1 = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_add(1));
        let sparse = generators::erdos_renyi(n, 0.05, &mut rng1);
        let dense = generators::erdos_renyi(n, 0.6, &mut rng2);
        // not a coupling, but with these p values and n ≥ 5 the ordering of the
        // expected edge counts is overwhelmingly respected; allow slack.
        prop_assert!(dense.num_edges() + 3 >= sparse.num_edges());
    }

    #[test]
    fn expansion_ratio_of_half_the_nodes_is_bounded_by_one((n, edges) in edges_strategy(30)) {
        // |N(I)| ≤ n − |I|, so for |I| = ⌈n/2⌉ the ratio is at most ~1.
        let g = AdjacencyList::from_edges(n, edges);
        let h = n.div_ceil(2);
        let set = meg_graph::NodeSet::from_iter(n, 0..h as u32);
        let ratio = expansion::expansion_ratio(&g, &set);
        prop_assert!(ratio <= (n - h) as f64 / h as f64 + 1e-12);
    }

    #[test]
    fn bfs_ball_is_connected_and_has_requested_size((n, edges) in edges_strategy(40), seed in 0u32..40, target in 1usize..20) {
        let g = AdjacencyList::from_edges(n, edges);
        let seed_node = seed % n as u32;
        let ball = expansion::bfs_ball(&g, seed_node, target);
        prop_assert!(ball.contains(seed_node));
        let component = bfs::reachable_count(&g, seed_node);
        prop_assert_eq!(ball.len(), target.min(component));
    }
}
