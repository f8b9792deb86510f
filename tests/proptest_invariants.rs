//! Property-based tests (proptest) on the core invariants of the workspace:
//! node-set algebra, flooding monotonicity and its equivalence with BFS on
//! static graphs, expander-sequence bound validity, the two-state chain's
//! stationary law, and the pair-index bijection used by the sparse engines.

use meg::core::expansion::ExpanderSequence;
use meg::graph::{bfs, generators, AdjacencyList, Graph, NodeSet};
use meg::prelude::*;
use proptest::prelude::*;
use std::collections::HashSet;

/// Strategy: a random edge list over `n` nodes.
fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..(3 * n)))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn nodeset_matches_hashset_semantics(
        universe in 1usize..300,
        ops in proptest::collection::vec((0u32..300, proptest::bool::ANY), 0..200),
    ) {
        let mut set = NodeSet::new(universe);
        let mut reference: HashSet<u32> = HashSet::new();
        for (node, insert) in ops {
            let node = node % universe as u32;
            if insert {
                prop_assert_eq!(set.insert(node), reference.insert(node));
            } else {
                prop_assert_eq!(set.remove(node), reference.remove(&node));
            }
        }
        prop_assert_eq!(set.len(), reference.len());
        let collected: HashSet<u32> = set.iter().collect();
        prop_assert_eq!(collected, reference.clone());
        // complement partitions the universe
        let complement = set.complement();
        prop_assert_eq!(set.len() + complement.len(), universe);
        prop_assert_eq!(set.intersection_len(&complement), 0);
    }

    #[test]
    fn nodeset_union_and_intersection_are_consistent(
        universe in 1usize..200,
        a in proptest::collection::vec(0u32..200, 0..100),
        b in proptest::collection::vec(0u32..200, 0..100),
    ) {
        let a: Vec<u32> = a.into_iter().map(|x| x % universe as u32).collect();
        let b: Vec<u32> = b.into_iter().map(|x| x % universe as u32).collect();
        let sa = NodeSet::from_iter(universe, a.iter().copied());
        let sb = NodeSet::from_iter(universe, b.iter().copied());
        let mut union = sa.clone();
        union.union_with(&sb);
        let mut inter = sa.clone();
        inter.intersect_with(&sb);
        // inclusion–exclusion
        prop_assert_eq!(union.len() + inter.len(), sa.len() + sb.len());
        prop_assert!(sa.is_subset_of(&union));
        prop_assert!(inter.is_subset_of(&sa));
        prop_assert!(inter.is_subset_of(&sb));
    }

    #[test]
    fn static_flooding_equals_bfs_eccentricity((n, edges) in edges_strategy(40), source_raw in 0u32..40) {
        let g = AdjacencyList::from_edges(n, edges);
        let source = source_raw % n as u32;
        let result = flood_static(&g, source);
        let distances = bfs::distances(&g, source);
        let reachable = distances.iter().filter(|&&d| d != bfs::UNREACHABLE).count();
        let ecc = distances.iter().filter(|&&d| d != bfs::UNREACHABLE).max().copied().unwrap_or(0);
        // informed set == reachable set
        prop_assert_eq!(result.informed_count(), reachable);
        if reachable == n {
            prop_assert_eq!(result.completion_time(), Some(ecc as u64));
        } else {
            prop_assert_eq!(result.completion_time(), None);
        }
        // monotone growth of the informed count
        for w in result.informed_per_round.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn flooding_on_dynamic_graphs_is_monotone_and_bounded(
        n in 2usize..30,
        p in 0.01f64..0.5,
        q in 0.01f64..0.5,
        seed in 0u64..1000,
    ) {
        let params = EdgeMegParams::new(n, p, q);
        let mut meg = DenseEdgeMeg::stationary(params, seed);
        let budget = 200u64;
        let result = flood(&mut meg, 0, budget);
        prop_assert!(result.rounds <= budget);
        prop_assert_eq!(result.informed_per_round[0], 1);
        for w in result.informed_per_round.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        if result.completed {
            prop_assert_eq!(result.informed_count(), n);
            prop_assert_eq!(result.rounds as usize + 1, result.informed_per_round.len());
        }
    }

    #[test]
    fn expander_sequence_bound_dominates_flooding_on_erdos_renyi(
        n in 20usize..80,
        seed in 0u64..500,
    ) {
        // Dense G(n, p): expansion measured exactly at every size is a valid
        // input to Lemma 2.4, whose bound must dominate the true flooding time.
        let mut rng = meg::stats::seeds::trial_rng(seed, 0);
        let g = generators::erdos_renyi(n, 0.4, &mut rng);
        if meg::graph::connectivity::is_connected(&g) {
            // exact worst expansion at geometric sizes
            let mut hs = Vec::new();
            let mut ks = Vec::new();
            let mut h = 1usize;
            let mut running = f64::INFINITY;
            while h <= n / 2 {
                let k = meg::graph::expansion::min_expansion_sampled(
                    &g, h, 40, meg::graph::expansion::SamplingStrategy::Mixed, &mut rng);
                running = running.min(k);
                hs.push(h);
                ks.push(running);
                if h == n / 2 { break; }
                h = (h * 2).min(n / 2);
            }
            let seq = ExpanderSequence::new(n, hs, ks).unwrap();
            let bound = seq.flooding_bound();
            let measured = flood_static(&g, 0).completion_time().unwrap() as f64;
            prop_assert!(bound >= measured, "bound {} vs measured {}", bound, measured);
        }
    }

    #[test]
    fn two_state_chain_multi_step_probabilities_are_probabilities(
        p in 0.0f64..=1.0,
        q in 0.0f64..=1.0,
        t in 0u32..50,
    ) {
        let chain = TwoStateChain::new(p, q);
        for state in [false, true] {
            let prob = chain.prob_present_after(state, t);
            prop_assert!((-1e-12..=1.0 + 1e-12).contains(&prob), "prob {}", prob);
        }
        let (pi0, pi1) = chain.stationary();
        prop_assert!((pi0 + pi1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pair_index_bijection_roundtrips(n in 2u64..200, a in 0u64..200, b in 0u64..200) {
        let a = a % n;
        let b = b % n;
        if a != b {
            let idx = generators::index_of_pair(n, a, b);
            prop_assert!(idx < n * (n - 1) / 2);
            let (x, y) = generators::pair_from_index(n, idx);
            prop_assert_eq!((x, y), (a.min(b), a.max(b)));
        }
    }

    #[test]
    fn erdos_renyi_generator_produces_simple_graphs(n in 1usize..120, p in 0.0f64..1.0, seed in 0u64..200) {
        let mut rng = meg::stats::seeds::trial_rng(seed, 1);
        let g = generators::erdos_renyi(n, p, &mut rng);
        prop_assert_eq!(g.num_nodes(), n);
        // simple graph: no self loops, no duplicate edges
        let mut seen = HashSet::new();
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!((v as usize) < n);
            prop_assert!(seen.insert((u, v)));
        }
        prop_assert_eq!(seen.len(), g.num_edges());
    }

    #[test]
    fn out_neighborhood_never_intersects_the_set(
        (n, edges) in edges_strategy(50),
        members in proptest::collection::vec(0u32..50, 1..20),
    ) {
        let g = AdjacencyList::from_edges(n, edges);
        let set = NodeSet::from_iter(n, members.into_iter().map(|m| m % n as u32));
        let nb = meg::graph::out_neighborhood(&g, &set);
        prop_assert_eq!(nb.intersection_len(&set), 0);
        // every reported neighbor really has an edge into the set
        for v in nb.iter() {
            let touches = g.neighbors(v).iter().any(|&u| set.contains(u));
            prop_assert!(touches);
        }
    }
}
