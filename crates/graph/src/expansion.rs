//! Parameterized node expansion measurement.
//!
//! A graph is an `(h, k)`-expander (Definition 2.2) when every node set `I`
//! with `|I| ≤ h` has `|N(I)| ≥ k·|I|`. The paper's entire machinery reduces a
//! flooding-time bound to a family of such properties, so this module provides
//! both exact verification (exponential, tiny inputs and tests only) and
//! estimation of the worst-case expansion ratio at a given set size
//! (random-subset and BFS-ball sampling, the latter catching the clustered
//! sets that are worst for geometric graphs).

use crate::{Graph, Node, NodeSet};
use rand::Rng;

/// `|N(I)|` for the given set.
pub fn neighborhood_size<G: Graph + ?Sized>(g: &G, set: &NodeSet) -> usize {
    assert_eq!(set.universe(), g.num_nodes(), "universe mismatch");
    let mut scratch = ProbeScratch::new(g.num_nodes());
    for u in set.iter() {
        scratch.insert(u);
    }
    scratch.count_outside(g, Frontier::NONE, f64::INFINITY)
}

/// Expansion ratio `|N(I)| / |I|`. Returns `f64::INFINITY` for the empty set.
pub fn expansion_ratio<G: Graph + ?Sized>(g: &G, set: &NodeSet) -> f64 {
    if set.is_empty() {
        return f64::INFINITY;
    }
    neighborhood_size(g, set) as f64 / set.len() as f64
}

/// Exact check of the `(h, k)`-expander property by enumerating **all**
/// non-empty subsets of size ≤ `h`.
///
/// Cost is `Σ_{i≤h} C(n, i)`; intended for `n ≤ ~20` in tests and for
/// cross-validating the sampling estimators.
pub fn is_hk_expander_exact<G: Graph + ?Sized>(g: &G, h: usize, k: f64) -> bool {
    worst_expansion_exact(g, h).is_none_or(|(_, ratio)| ratio >= k)
}

/// Exhaustively finds the set of size ≤ `h` with the worst expansion ratio.
///
/// Returns `(set, ratio)`, or `None` when the graph has no nodes or `h == 0`.
pub fn worst_expansion_exact<G: Graph + ?Sized>(g: &G, h: usize) -> Option<(NodeSet, f64)> {
    let n = g.num_nodes();
    if n == 0 || h == 0 {
        return None;
    }
    let h = h.min(n);
    let mut worst: Option<(NodeSet, f64)> = None;
    let mut members: Vec<Node> = Vec::with_capacity(h);
    // Depth-first enumeration of all subsets of size 1..=h.
    fn recurse<G: Graph + ?Sized>(
        g: &G,
        n: usize,
        h: usize,
        start: usize,
        members: &mut Vec<Node>,
        worst: &mut Option<(NodeSet, f64)>,
    ) {
        if !members.is_empty() {
            let set = NodeSet::from_iter(n, members.iter().copied());
            let ratio = expansion_ratio(g, &set);
            if worst.as_ref().is_none_or(|(_, w)| ratio < *w) {
                *worst = Some((set, ratio));
            }
        }
        if members.len() == h {
            return;
        }
        for u in start..n {
            members.push(u as Node);
            recurse(g, n, h, u + 1, members, worst);
            members.pop();
        }
    }
    recurse(g, n, h, 0, &mut members, &mut worst);
    worst
}

/// How candidate sets are drawn when estimating worst-case expansion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SamplingStrategy {
    /// Uniformly random subsets of the requested size.
    UniformSubsets,
    /// BFS balls grown from a random seed node until the requested size is
    /// reached; these clustered sets are the near-worst case for geometric
    /// graphs.
    BfsBalls,
    /// Half the samples from each of the two strategies above.
    Mixed,
}

/// Estimates the minimum expansion ratio over sets of size exactly `h` using
/// `samples` sampled candidate sets.
///
/// The estimate is an *upper bound* on the true worst-case ratio (sampling can
/// only miss worse sets), which is the conservative direction when using it to
/// drive the flooding upper-bound evaluator.
///
/// Only the minimum is returned, so a candidate's `|N(I)|` is counted only
/// until its ratio reaches the running minimum: the count only grows, so such
/// a set can no longer lower it, and the result is exactly the minimum over
/// fully counted sets. All per-sample state lives in one scratch allocated
/// per call; the sets and RNG draws are those of a fresh [`bfs_ball`] or a
/// `SliceRandom::choose_multiple` over `0..n` per sample.
pub fn min_expansion_sampled<G: Graph + ?Sized, R: Rng>(
    g: &G,
    h: usize,
    samples: usize,
    strategy: SamplingStrategy,
    rng: &mut R,
) -> f64 {
    let n = g.num_nodes();
    assert!(h >= 1 && h <= n, "set size {h} out of range for n={n}");
    ProbeScratch::new(n).min_ratio(g, h, samples, strategy, rng)
}

/// Grows a BFS ball of exactly `target` nodes around `seed` (fewer if the
/// component of `seed` is smaller than `target`).
pub fn bfs_ball<G: Graph + ?Sized>(g: &G, seed: Node, target: usize) -> NodeSet {
    let n = g.num_nodes();
    let mut scratch = ProbeScratch::new(n);
    scratch.grow_ball(g, seed, target);
    NodeSet::from_iter(n, scratch.nodes.iter().copied())
}

/// The rows a candidate set still needs read to count `|N(I)|`: a BFS ball
/// has read the whole row of every member it popped except the last, whose
/// row it left once the ball was full, so all those rows lie inside the ball.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Frontier {
    /// Members `nodes[..popped]` had their rows read by the BFS.
    popped: usize,
    /// Entries of the last popped member's row the BFS read.
    read: usize,
}

impl Frontier {
    /// No row read yet (a uniform subset).
    const NONE: Frontier = Frontier { popped: 0, read: 0 };
}

/// The per-call state of the expansion sampler, reused by every sample.
struct ProbeScratch {
    /// `marks[v] == stamp`: `v` is a member of the current set or a
    /// neighbor already counted. A new set takes the next stamp, so nothing
    /// is unmarked between samples.
    marks: Vec<u8>,
    stamp: u8,
    /// The current set's members; a ball's in BFS order, so also its queue.
    nodes: Vec<Node>,
    /// The partial Fisher–Yates index table over `0..n`, the identity
    /// between draws; filled by the first uniform draw.
    table: Vec<Node>,
    /// Rows `count_outside` read, in whole or in part.
    #[cfg(test)]
    rows: usize,
}

impl ProbeScratch {
    fn new(n: usize) -> Self {
        ProbeScratch {
            marks: vec![0; n],
            stamp: 1,
            nodes: Vec::with_capacity(n),
            table: Vec::new(),
            #[cfg(test)]
            rows: 0,
        }
    }

    /// The body of [`min_expansion_sampled`].
    fn min_ratio<G: Graph + ?Sized, R: Rng>(
        &mut self,
        g: &G,
        h: usize,
        samples: usize,
        strategy: SamplingStrategy,
        rng: &mut R,
    ) -> f64 {
        let n = self.marks.len();
        let mut best = f64::INFINITY;
        for i in 0..samples.max(1) {
            let use_ball = match strategy {
                SamplingStrategy::UniformSubsets => false,
                SamplingStrategy::BfsBalls => true,
                SamplingStrategy::Mixed => i % 2 == 0,
            };
            let frontier = if use_ball {
                self.grow_ball(g, rng.gen_range(0..n) as Node, h)
            } else {
                self.draw_subset(h, rng);
                Frontier::NONE
            };
            let size = self.nodes.len();
            let ratio = self.count_outside(g, frontier, best) as f64 / size as f64;
            if ratio < best {
                best = ratio;
            }
            self.clear();
        }
        best
    }

    fn insert(&mut self, u: Node) {
        self.marks[u as usize] = self.stamp;
        self.nodes.push(u);
    }

    /// Forgets the current set and its counted neighbors by moving to the
    /// next stamp; every 255th set clears the marks.
    fn clear(&mut self) {
        self.nodes.clear();
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    /// Draws `h` distinct nodes as members, exactly as
    /// `SliceRandom::choose_multiple` over `0..n` does: a partial
    /// Fisher–Yates with one `gen_range(i..n)` per pick, here in place on
    /// the scratch table, which is then put back to the identity in O(h).
    fn draw_subset<R: Rng>(&mut self, h: usize, rng: &mut R) {
        let n = self.marks.len();
        if self.table.is_empty() {
            self.table.extend(0..n as Node);
        }
        for i in 0..h {
            self.table.swap(i, rng.gen_range(i..n));
            self.insert(self.table[i]);
        }
        // Every position a swap touched is below `h` or is a pick's own:
        // a position `j ≥ h` first gives its own value to the pick of that
        // step. Each write below is an identity write, so order is free.
        for (i, &v) in self.nodes.iter().enumerate() {
            self.table[i] = i as Node;
            self.table[v as usize] = v;
        }
    }

    /// Grows a BFS ball of `target` members around `seed` (fewer if its
    /// component is smaller), reading each popped row until the ball is
    /// full, and returns what it read.
    fn grow_ball<G: Graph + ?Sized>(&mut self, g: &G, seed: Node, target: usize) -> Frontier {
        self.insert(seed);
        let mut frontier = Frontier::NONE;
        while self.nodes.len() < target && frontier.popped < self.nodes.len() {
            let u = self.nodes[frontier.popped];
            frontier.popped += 1;
            frontier.read = 0;
            let (marks, stamp, nodes) = (&mut self.marks, self.stamp, &mut self.nodes);
            for &v in g.neighbors(u) {
                if nodes.len() < target {
                    frontier.read += 1;
                    if marks[v as usize] != stamp {
                        marks[v as usize] = stamp;
                        nodes.push(v);
                    }
                }
            }
        }
        frontier
    }

    /// Counts `|N(I)|` for the members in `nodes`, reading only the rows
    /// `frontier` leaves unread: every neighbor is marked, and counted if it
    /// was unmarked. After any row it stops once `count / |I| ≥ bound`,
    /// since the count only grows and the set can no longer rate below
    /// `bound`; it returns the count reached.
    fn count_outside<G: Graph + ?Sized>(&mut self, g: &G, frontier: Frontier, bound: f64) -> usize {
        let size = self.nodes.len();
        let (marks, stamp) = (&mut self.marks, self.stamp);
        let mut count = 0usize;
        for i in frontier.popped.saturating_sub(1)..size {
            let from = if i < frontier.popped {
                frontier.read
            } else {
                0
            };
            g.neighbors(self.nodes[i])[from..].iter().for_each(|&v| {
                let mark = &mut marks[v as usize];
                count += (*mark != stamp) as usize;
                *mark = stamp;
            });
            #[cfg(test)]
            {
                self.rows += 1;
            }
            if count as f64 / size as f64 >= bound {
                break;
            }
        }
        count
    }
}

/// One row of an [`ExpansionProfile`]: the estimated worst expansion ratio at
/// a given set size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExpansionPoint {
    /// Set size `h`.
    pub h: usize,
    /// Estimated minimum of `|N(I)|/|I|` over sets with `|I| = h`.
    pub min_ratio: f64,
}

/// Estimated worst-case expansion ratio as a function of the set size.
///
/// This is the empirical analogue of the `(h_i, k_i)` sequences of
/// Theorem 2.5: feeding it to `meg-core`'s bound evaluator produces a fully
/// data-driven flooding-time prediction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ExpansionProfile {
    /// Profile points ordered by increasing `h`.
    pub points: Vec<ExpansionPoint>,
}

impl ExpansionProfile {
    /// Measures the profile at geometrically spaced set sizes
    /// `1, 2, 4, …` up to `n/2`, with `samples` candidate sets per size.
    pub fn measure<G: Graph + ?Sized, R: Rng>(
        g: &G,
        samples: usize,
        strategy: SamplingStrategy,
        rng: &mut R,
    ) -> Self {
        let n = g.num_nodes();
        let mut points = Vec::new();
        if n < 2 {
            return ExpansionProfile { points };
        }
        let mut h = 1usize;
        loop {
            let capped = h.min(n / 2).max(1);
            points.push(ExpansionPoint {
                h: capped,
                min_ratio: min_expansion_sampled(g, capped, samples, strategy, rng),
            });
            if capped >= n / 2 {
                break;
            }
            h *= 2;
        }
        points.dedup_by_key(|p| p.h);
        ExpansionProfile { points }
    }

    /// Returns the `(h, k)` pairs as vectors suitable for the bound evaluator:
    /// `h` strictly increasing, `k` made non-increasing by a running minimum
    /// (as required by Lemma 2.4).
    pub fn monotone_hk(&self) -> (Vec<usize>, Vec<f64>) {
        let mut hs = Vec::with_capacity(self.points.len());
        let mut ks = Vec::with_capacity(self.points.len());
        let mut running = f64::INFINITY;
        for p in &self.points {
            running = running.min(p.min_ratio);
            hs.push(p.h);
            ks.push(running);
        }
        (hs, ks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, out_neighborhood, AdjacencyList};
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::{RngCore, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The per-sample loop the scratch sampler replaced: a fresh BFS ball
    /// (a `VecDeque` queue into a `NodeSet`) or a `choose_multiple` draw
    /// per sample, and every candidate's `|N(I)|` from `out_neighborhood`,
    /// counted to the end.
    fn reference_min_expansion<G: Graph + ?Sized, R: Rng>(
        g: &G,
        h: usize,
        samples: usize,
        strategy: SamplingStrategy,
        rng: &mut R,
    ) -> f64 {
        let n = g.num_nodes();
        let mut best = f64::INFINITY;
        let nodes: Vec<Node> = (0..n as Node).collect();
        for i in 0..samples.max(1) {
            let use_ball = match strategy {
                SamplingStrategy::UniformSubsets => false,
                SamplingStrategy::BfsBalls => true,
                SamplingStrategy::Mixed => i % 2 == 0,
            };
            let set = if use_ball {
                reference_bfs_ball(g, rng.gen_range(0..n) as Node, h)
            } else {
                let chosen: Vec<Node> = nodes.choose_multiple(rng, h).copied().collect();
                NodeSet::from_iter(n, chosen)
            };
            let ratio = out_neighborhood(g, &set).len() as f64 / set.len() as f64;
            if ratio < best {
                best = ratio;
            }
        }
        best
    }

    fn reference_bfs_ball<G: Graph + ?Sized>(g: &G, seed: Node, target: usize) -> NodeSet {
        let n = g.num_nodes();
        let mut set = NodeSet::new(n);
        let mut queue = std::collections::VecDeque::new();
        set.insert(seed);
        queue.push_back(seed);
        while set.len() < target {
            let Some(u) = queue.pop_front() else { break };
            for &v in g.neighbors(u) {
                if set.contains(v) {
                    continue;
                }
                set.insert(v);
                queue.push_back(v);
                if set.len() >= target {
                    break;
                }
            }
        }
        set
    }

    /// [`ExpansionProfile::measure`]'s sizes over the reference sampler.
    fn reference_profile<G: Graph + ?Sized, R: Rng>(
        g: &G,
        samples: usize,
        strategy: SamplingStrategy,
        rng: &mut R,
    ) -> Vec<ExpansionPoint> {
        let n = g.num_nodes();
        let mut points = Vec::new();
        if n < 2 {
            return points;
        }
        let mut h = 1usize;
        loop {
            let capped = h.min(n / 2).max(1);
            let min_ratio = reference_min_expansion(g, capped, samples, strategy, rng);
            points.push(ExpansionPoint {
                h: capped,
                min_ratio,
            });
            if capped >= n / 2 {
                break;
            }
            h *= 2;
        }
        points.dedup_by_key(|p| p.h);
        points
    }

    const STRATEGIES: [SamplingStrategy; 3] = [
        SamplingStrategy::UniformSubsets,
        SamplingStrategy::BfsBalls,
        SamplingStrategy::Mixed,
    ];

    /// One test graph on about `n` nodes: Erdős–Rényi with every node
    /// ≡ 3 mod 7 isolated (kind 0), a radius graph (1), a grid of at most
    /// `n` nodes (2), or paths of `param % 5 + 1` nodes, shorter than most
    /// `h`, so BFS balls run out (3).
    fn test_graph(kind: u32, n: usize, param: usize, rng: &mut ChaCha8Rng) -> AdjacencyList {
        match kind {
            0 => {
                let mut g = AdjacencyList::new(n);
                let linked: Vec<Node> = (0..n as Node).filter(|u| u % 7 != 3).collect();
                for _ in 0..n * (param % 12) / 2 {
                    let u = *linked.choose(rng).unwrap_or(&0);
                    let v = *linked.choose(rng).unwrap_or(&0);
                    if u != v {
                        g.add_edge(u, v);
                    }
                }
                g
            }
            1 => {
                let side = (n as f64).sqrt();
                let positions: Vec<(f64, f64)> = (0..n)
                    .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
                    .collect();
                generators::geometric_from_positions(&positions, 0.5 + (param % 8) as f64 * 0.25)
            }
            2 => {
                let rows = 1 + param % (n as f64).sqrt().ceil() as usize;
                generators::grid2d(rows, (n / rows).max(1))
            }
            _ => {
                let run = param % 5 + 1;
                let edges = (1..n as Node).filter(|v| !(*v as usize).is_multiple_of(run));
                AdjacencyList::from_edges(n, edges.map(|v| (v - 1, v)))
            }
        }
    }

    /// The sampler against the reference on `g`, for every strategy: the
    /// same minimum bit for bit, and the same RNG cursor after the call.
    fn assert_sampler_matches(g: &AdjacencyList, h: usize, samples: usize, seed: u64) {
        for strategy in STRATEGIES {
            let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
            let want = reference_min_expansion(g, h, samples, strategy, &mut want_rng);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let got = min_expansion_sampled(g, h, samples, strategy, &mut rng);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{strategy:?} h={h}: {got} vs {want}"
            );
            assert_eq!(
                rng.clone().next_u64(),
                want_rng.clone().next_u64(),
                "{strategy:?}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Bit-identical minima, profiles and RNG cursors against the
        /// per-sample reference on random graphs with `n` in 1..300.
        #[test]
        fn sampler_is_bit_identical_to_the_reference(
            kind in 0u32..4,
            n in 1usize..300,
            param in 0usize..1000,
            h_pick in 0usize..1_000_000,
            samples in 1usize..30,
            seed in 0u64..1_000_000_000,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = test_graph(kind, n, param, &mut rng);
            let n = g.num_nodes();
            let h = 1 + h_pick % n;
            assert_sampler_matches(&g, h, samples, seed);
            let ball_seed = (seed % n as u64) as Node;
            prop_assert_eq!(bfs_ball(&g, ball_seed, h), reference_bfs_ball(&g, ball_seed, h));
            let strategy = STRATEGIES[(seed % 3) as usize];
            let mut want_rng = ChaCha8Rng::seed_from_u64(seed);
            let want = reference_profile(&g, samples, strategy, &mut want_rng);
            let mut got_rng = ChaCha8Rng::seed_from_u64(seed);
            let got = ExpansionProfile::measure(&g, samples, strategy, &mut got_rng);
            prop_assert_eq!(got.points.len(), want.len());
            for (a, b) in got.points.iter().zip(&want) {
                prop_assert_eq!((a.h, a.min_ratio.to_bits()), (b.h, b.min_ratio.to_bits()));
            }
            prop_assert_eq!(got_rng.next_u64(), want_rng.next_u64());
        }

        /// The in-place partial Fisher–Yates picks what `choose_multiple`
        /// over `0..n` picks, in the same order, leaves the RNG where it
        /// leaves it, and puts the table back to the identity every time.
        #[test]
        fn in_place_draw_reproduces_choose_multiple(
            n in 1usize..400,
            h_picks in proptest::collection::vec(0usize..1_000_000, 1..5),
            seed in 0u64..1_000_000_000,
        ) {
            let nodes: Vec<Node> = (0..n as Node).collect();
            let mut scratch = ProbeScratch::new(n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut want_rng = rng.clone();
            for h_pick in h_picks {
                let h = 1 + h_pick % n;
                scratch.draw_subset(h, &mut rng);
                let want: Vec<Node> = nodes.choose_multiple(&mut want_rng, h).copied().collect();
                prop_assert_eq!(&scratch.nodes, &want);
                prop_assert_eq!(rng.clone().next_u64(), want_rng.clone().next_u64());
                prop_assert_eq!(&scratch.table, &nodes);
                scratch.clear();
            }
        }
    }

    /// Grows a ball with the scratch and counts it to the end.
    fn scratch_ball(g: &AdjacencyList, seed: Node, target: usize) -> (Frontier, usize) {
        let mut scratch = ProbeScratch::new(g.num_nodes());
        let frontier = scratch.grow_ball(g, seed, target);
        let count = scratch.count_outside(g, frontier, f64::INFINITY);
        let members = NodeSet::from_iter(g.num_nodes(), scratch.nodes.iter().copied());
        assert_eq!(members, reference_bfs_ball(g, seed, target));
        assert_eq!(count, out_neighborhood(g, &members).len());
        (frontier, count)
    }

    #[test]
    fn balls_filled_at_a_row_end_or_mid_row_count_the_unread_tail() {
        // Path 0–1–2–3–4: seed 0's one-entry row fills a ball of 2 at its
        // end, so no tail is left; the count comes from member 1's row.
        let path = generators::path(5);
        assert_eq!(
            scratch_ball(&path, 0, 2),
            (Frontier { popped: 1, read: 1 }, 1)
        );
        // Star centre 0 with leaves 1..=5: the ball of 3 is full after
        // leaf 2, and the unread tail 3, 4, 5 is the whole neighborhood.
        let star = generators::star(5);
        assert_eq!(
            scratch_ball(&star, 0, 3),
            (Frontier { popped: 1, read: 2 }, 3)
        );
        // Filled mid-row in a later row: on a 4×4 grid from corner 0.
        let grid = generators::grid2d(4, 4);
        for target in 1..=16 {
            scratch_ball(&grid, 0, target);
            scratch_ball(&grid, 5, target);
        }
        // A component of 3 runs out before a ball of 5: every row read.
        let short = AdjacencyList::from_edges(6, [(0, 1), (1, 2), (3, 4)]);
        assert_eq!(
            scratch_ball(&short, 1, 5),
            (Frontier { popped: 3, read: 1 }, 0)
        );
    }

    #[test]
    fn sizes_one_and_n_match_the_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let graphs = [
            generators::path(9),
            generators::star(7),
            generators::complete(6),
            generators::grid2d(5, 6),
            AdjacencyList::from_edges(5, [(0, 1), (1, 2)]),
            generators::erdos_renyi(40, 0.1, &mut rng),
        ];
        for g in &graphs {
            let n = g.num_nodes();
            for (h, samples) in [(1, 1), (1, 17), (n, 1), (n, 9)] {
                assert_sampler_matches(g, h, samples, 5 + h as u64);
            }
        }
    }

    /// Count-phase rows on a fixed graph and seed: with the early exit, and
    /// with every set counted to the end (the bound never reached).
    fn rows_read(g: &AdjacencyList, exit: bool) -> usize {
        let mut scratch = ProbeScratch::new(g.num_nodes());
        let mut rng = ChaCha8Rng::seed_from_u64(2009);
        let mut h = 1;
        while h <= g.num_nodes() / 2 {
            if exit {
                scratch.min_ratio(g, h, 25, SamplingStrategy::Mixed, &mut rng);
            } else {
                for i in 0..25 {
                    let frontier = if i % 2 == 0 {
                        scratch.grow_ball(g, rng.gen_range(0..g.num_nodes()) as Node, h)
                    } else {
                        scratch.draw_subset(h, &mut rng);
                        Frontier::NONE
                    };
                    scratch.count_outside(g, frontier, f64::INFINITY);
                    scratch.clear();
                }
            }
            h *= 2;
        }
        scratch.rows
    }

    #[test]
    fn early_exit_reads_fewer_rows_than_full_counts() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let side = 20.0;
        let positions: Vec<(f64, f64)> = (0..400)
            .map(|_| (rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        let g = generators::geometric_from_positions(&positions, 2.5);
        // Sizes 1, 2, 4, …, 128 at 25 samples each; pinned, so an exit
        // that stops firing (or fires on a different rule) fails here.
        assert_eq!(rows_read(&g, false), 4881);
        assert_eq!(rows_read(&g, true), 1482);
    }

    #[test]
    fn complete_graph_expansion_is_maximal() {
        let g = generators::complete(8);
        let set = NodeSet::from_iter(8, [0u32, 1]);
        assert_eq!(neighborhood_size(&g, &set), 6);
        assert_eq!(expansion_ratio(&g, &set), 3.0);
        // every set of size ≤ 4 expands by at least (n - h)/h = 1.0
        assert!(is_hk_expander_exact(&g, 4, 1.0));
        assert!(!is_hk_expander_exact(&g, 4, 1.1));
    }

    #[test]
    fn path_graph_is_a_poor_expander() {
        let g = generators::path(10);
        // A prefix segment of length h has exactly one outside neighbor.
        let (worst, ratio) = worst_expansion_exact(&g, 3).unwrap();
        assert!(ratio <= 1.0 / 3.0 + 1e-12);
        assert!(worst.len() <= 3);
        assert!(!is_hk_expander_exact(&g, 3, 0.5));
        assert!(is_hk_expander_exact(&g, 3, 1.0 / 3.0));
    }

    #[test]
    fn empty_set_has_infinite_ratio() {
        let g = generators::complete(4);
        let set = NodeSet::new(4);
        assert_eq!(expansion_ratio(&g, &set), f64::INFINITY);
    }

    #[test]
    fn sampled_min_upper_bounds_exact_worst() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generators::cycle(12);
        let (_, exact_ratio) = worst_expansion_exact(&g, 3).unwrap();
        for strategy in [
            SamplingStrategy::UniformSubsets,
            SamplingStrategy::BfsBalls,
            SamplingStrategy::Mixed,
        ] {
            let est = min_expansion_sampled(&g, 3, 50, strategy, &mut rng);
            assert!(est >= exact_ratio - 1e-12, "{strategy:?}");
        }
        // BFS balls of size 3 on a cycle always have exactly 2 outside neighbors,
        // which is the true worst case here.
        let ball_est = min_expansion_sampled(&g, 3, 20, SamplingStrategy::BfsBalls, &mut rng);
        assert!((ball_est - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn bfs_ball_size_and_connectivity() {
        let g = generators::grid2d(5, 5);
        let ball = bfs_ball(&g, 12, 7);
        assert_eq!(ball.len(), 7);
        assert!(ball.contains(12));
        // ball limited by component size
        let h = crate::AdjacencyList::from_edges(6, [(0, 1), (1, 2)]);
        let ball2 = bfs_ball(&h, 0, 5);
        assert_eq!(ball2.len(), 3);
    }

    #[test]
    fn profile_is_monotone_after_normalisation() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generators::grid2d(8, 8);
        let profile = ExpansionProfile::measure(&g, 10, SamplingStrategy::Mixed, &mut rng);
        assert!(!profile.points.is_empty());
        let (hs, ks) = profile.monotone_hk();
        assert_eq!(hs.len(), ks.len());
        assert!(hs.windows(2).all(|w| w[0] < w[1]));
        assert!(ks.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*hs.last().unwrap(), 32);
    }

    #[test]
    fn star_center_set_expands_to_everything() {
        let g = generators::star(9);
        let center = NodeSet::singleton(10, 0);
        assert_eq!(neighborhood_size(&g, &center), 9);
    }
}
