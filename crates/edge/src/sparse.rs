//! Sparse edge-MEG engine.
//!
//! In the regimes the paper cares about (`p̂` around `log n / n`) the snapshot
//! has only `Θ(n log n)` edges out of `Θ(n²)` potential pairs, so touching
//! every pair per step (the dense engine) wastes almost all of its work. This
//! engine stores only the alive edges and advances the chain in
//! `O(m_alive + births)` expected time per step:
//!
//! * **deaths** — each alive edge is kept with probability `1 − q`;
//! * **births** — candidate pair indices are drawn by geometric skip-sampling
//!   over the full index space with per-pair probability `p`; candidates that
//!   are already alive are ignored (their transition is governed by the death
//!   rule), so each *absent* pair independently turns on with probability `p`,
//!   exactly as the model prescribes.

use crate::dense::DELTA_SLACK;
use crate::model::{EdgeMegParams, MAX_TRANSITION_PAIRS};
use meg_core::evolving::{EvolvingGraph, InitialDistribution, Stepping};
use meg_graph::generators::pair_from_index;
use meg_graph::{Graph, Node, SnapshotBuf};
use meg_markov::gen_bool_threshold;
use meg_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Top bit of an entry of the per-pair alive list: set on the edges that die
/// in the current step, so the list keeps the pre-step set until the merge.
/// Pair indices never use it: `n(n−1)` fits in a `u64`, so `C(n, 2) < 2⁶³`.
const DEAD: u64 = 1 << 63;

/// Edge-MEG storing only the alive edges.
///
/// Under the default [`Stepping::PerPair`] the alive set is an ascending flat
/// `Vec<u64>` of pair indices: deaths draw one Bernoulli per entry in that
/// order, births are skip-sampled pair indices checked against the list with
/// a forward cursor, and the births are merged in place — no tree, no
/// per-edge square root, no per-round allocation after warm-up. Under
/// [`Stepping::Transitions`] it is a flat `Vec<u32>` of pair indices instead:
/// deaths are skip-sampled as positions in that array and swap-removed,
/// births are skip-sampled pair indices checked against the pre-step snapshot,
/// and the snapshot is maintained by deltas rather than rebuilt.
#[derive(Clone, Debug)]
pub struct SparseEdgeMeg {
    params: EdgeMegParams,
    /// Linear pair indices of the alive edges (per-pair stepping), strictly
    /// ascending outside a step. The death phase consumes its RNG draws in
    /// this order, so trajectories are a function of the seed alone, and the
    /// order is also row-major, so the snapshot rebuild decodes it with one
    /// [`RowWalker`].
    alive: Vec<u64>,
    /// Scratch: this step's births in ascending index order (per-pair
    /// stepping), merged into `alive` at the end of the step.
    born: Vec<u64>,
    rng: StdRng,
    snapshot: SnapshotBuf,
    time: u64,
    stepping: Stepping,
    /// Flat alive pair-index array (transition stepping only; order is
    /// arbitrary after the first swap-remove, which is fine because death
    /// marks are i.i.d. across positions).
    alive_vec: Vec<u32>,
    /// Whether the snapshot currently mirrors the alive set (transition
    /// stepping builds it once, then maintains it by deltas).
    snapshot_synced: bool,
    /// Scratch buffers for the per-round flips (transition stepping).
    birth_idx: Vec<u32>,
    death_pos: Vec<u32>,
    births: Vec<(Node, Node)>,
    deaths: Vec<(Node, Node)>,
}

impl SparseEdgeMeg {
    /// Creates the evolving graph with the given initial distribution and
    /// the default per-pair stepping.
    pub fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        Self::with_stepping(params, init, Stepping::PerPair, seed)
    }

    /// Creates the evolving graph with an explicit stepping mode.
    ///
    /// The initial alive set is drawn identically in both modes (same RNG
    /// draws), so `G_0` matches across modes at equal seeds; trajectories
    /// then diverge because the modes consume randomness differently.
    pub fn with_stepping(
        params: EdgeMegParams,
        init: InitialDistribution,
        stepping: Stepping,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pairs = params.num_pairs();
        let mut alive: Vec<u64> = Vec::new();
        let mut alive_vec: Vec<u32> = Vec::new();
        match stepping {
            Stepping::PerPair => match init {
                InitialDistribution::Empty => {}
                InitialDistribution::Full => alive = (0..total_pairs).collect(),
                InitialDistribution::Stationary => {
                    // Sized once, for the mean count plus six standard
                    // deviations: growing by doubling instead leaves a trail
                    // of freed blocks that raised the peak memory of
                    // two-thread sweeps by a few MB.
                    let mean = params.expected_stationary_edges();
                    alive.reserve((mean + 6.0 * mean.sqrt()) as usize + 64);
                    let phat = params.stationary_edge_probability();
                    sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| alive.push(idx));
                }
            },
            Stepping::Transitions => {
                assert!(
                    total_pairs <= MAX_TRANSITION_PAIRS,
                    "transition stepping indexes pairs with u32; n={} has too many pairs",
                    params.n
                );
                match init {
                    InitialDistribution::Empty => {}
                    InitialDistribution::Full => alive_vec = (0..total_pairs as u32).collect(),
                    InitialDistribution::Stationary => {
                        let phat = params.stationary_edge_probability();
                        sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| {
                            alive_vec.push(idx as u32);
                        });
                    }
                }
            }
        }
        SparseEdgeMeg {
            params,
            alive,
            born: Vec::new(),
            rng,
            snapshot: SnapshotBuf::with_nodes(params.n),
            time: 0,
            stepping,
            alive_vec,
            snapshot_synced: false,
            birth_idx: Vec::new(),
            death_pos: Vec::new(),
            births: Vec::new(),
            deaths: Vec::new(),
        }
    }

    /// Stationary-start constructor (the paper's setting).
    pub fn stationary(params: EdgeMegParams, seed: u64) -> Self {
        Self::new(params, InitialDistribution::Stationary, seed)
    }

    /// The model parameters.
    pub fn params(&self) -> EdgeMegParams {
        self.params
    }

    /// The stepping mode this engine was built with.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// Number of currently alive edges.
    pub fn alive_edges(&self) -> usize {
        match self.stepping {
            Stepping::PerPair => self.alive.len(),
            Stepping::Transitions => self.alive_vec.len(),
        }
    }

    /// The next draw of a *clone* of the engine RNG — a cursor probe for
    /// differential tests (the engine's own stream is not advanced). Two
    /// engines that have consumed the same number of draws from the same
    /// seed probe equal.
    pub fn rng_cursor_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    fn rebuild_snapshot(&mut self) {
        self.snapshot.begin(self.params.n);
        let mut rows = RowWalker::new(self.params.n);
        for &idx in &self.alive {
            let (a, b) = rows.pair(idx);
            self.snapshot.push_edge(a, b);
        }
        self.snapshot.build();
    }

    /// Per-pair stepping on the ascending alive list. The RNG schedule is
    /// one death draw per alive edge in ascending index order (only when
    /// `q > 0`), then the birth skip-sampling over all pairs (only when
    /// `p > 0`).
    fn step_chain(&mut self) {
        let total_pairs = self.params.num_pairs();
        let p = self.params.p;
        let q = self.params.q;
        // Deaths: mark each alive edge dead with probability q, in place, so
        // the list still holds the pre-step set for the birth phase. The
        // integer compare is `gen_bool(q)` draw for draw.
        let mut died = 0u64;
        if q > 0.0 {
            let threshold = gen_bool_threshold(q);
            for idx in self.alive.iter_mut() {
                let dies = (self.rng.next_u64() >> 11) < threshold;
                *idx |= DEAD * dies as u64;
                died += dies as u64;
            }
        }
        // Births: each pair that was absent *before* this step turns on with
        // probability p. Pairs that were alive before the step are skipped:
        // if they survived the death phase they stay alive anyway, and if they
        // just died the model says they need a full step absent before they
        // can be reborn. Candidates arrive in ascending order, so one forward
        // cursor over the pre-step list (dead marks masked off) answers
        // membership.
        self.born.clear();
        let mut draws = 0u64;
        if p > 0.0 {
            let alive = &self.alive;
            let born = &mut self.born;
            let mut cursor = 0usize;
            draws = sample_bernoulli_indices(total_pairs, p, &mut self.rng, |idx| {
                while cursor < alive.len() && alive[cursor] & !DEAD < idx {
                    cursor += 1;
                }
                if cursor == alive.len() || alive[cursor] & !DEAD != idx {
                    born.push(idx);
                }
            });
        }
        // Merge: drop the dead, then merge the births in from the back so
        // every entry moves at most once and the list stays ascending (births
        // are disjoint from the pre-step set, hence from the survivors).
        if died > 0 {
            self.alive.retain(|&idx| idx & DEAD == 0);
        }
        let (mut i, mut j) = (self.alive.len(), self.born.len());
        self.alive.resize(i + j, 0);
        while j > 0 {
            let slot = i + j - 1;
            if i > 0 && self.alive[i - 1] > self.born[j - 1] {
                i -= 1;
                self.alive[slot] = self.alive[i];
            } else {
                j -= 1;
                self.alive[slot] = self.born[j];
            }
        }
        if obs::installed() {
            obs::add(obs::Counter::EdgeDeaths, died);
            obs::add(obs::Counter::EdgeBirths, self.born.len() as u64);
            obs::add(obs::Counter::RngDraws, draws);
        }
    }

    /// Transition stepping: sample only the flips of this round against the
    /// flat alive array and the pre-step snapshot, recording them as a delta.
    ///
    /// Births are sampled first (rejected against the snapshot, which still
    /// mirrors the pre-step edge set) because a same-round death must not
    /// re-enable a birth; deaths are then sampled as positions in `alive_vec`
    /// and applied by swap-remove in decreasing position order.
    ///
    /// Returns the number of RNG draws the two skip-sampling passes consumed
    /// (aggregated here, flushed to the metrics counters once per round).
    fn step_transitions(&mut self) -> u64 {
        let total = self.params.num_pairs();
        let n = self.params.n as u64;
        let p = self.params.p;
        let q = self.params.q;
        self.birth_idx.clear();
        self.death_pos.clear();
        self.births.clear();
        self.deaths.clear();
        let snapshot = &self.snapshot;
        let birth_idx = &mut self.birth_idx;
        let births = &mut self.births;
        let mut draws = sample_bernoulli_indices(total, p, &mut self.rng, |idx| {
            let (a, b) = pair_from_index(n, idx);
            if !snapshot.has_edge(a as Node, b as Node) {
                birth_idx.push(idx as u32);
                births.push((a as Node, b as Node));
            }
        });
        let death_pos = &mut self.death_pos;
        draws += sample_bernoulli_indices(self.alive_vec.len() as u64, q, &mut self.rng, |pos| {
            death_pos.push(pos as u32);
        });
        for i in (0..self.death_pos.len()).rev() {
            let pos = self.death_pos[i] as usize;
            let k = self.alive_vec.swap_remove(pos);
            let (a, b) = pair_from_index(n, k as u64);
            self.deaths.push((a as Node, b as Node));
        }
        for i in 0..self.birth_idx.len() {
            self.alive_vec.push(self.birth_idx[i]);
        }
        draws
    }
}

/// Calls `visit` on each index in `0..total` selected independently with
/// probability `prob`, using geometric skip-sampling (expected cost
/// `O(total · prob)`).
///
/// This is the shared primitive behind both the sparse engine's birth phase
/// and the `Stepping::Transitions` fast path of *both* engines: the skip
/// `⌊ln U / ln(1−prob)⌋` is exactly a geometric holding time, so visiting the
/// selected indices is equivalent to walking a pre-drawn next-flip-time
/// calendar without materialising it.
///
/// Returns the number of uniform RNG draws consumed, so callers can feed the
/// `rng_draws` metrics counter without the sampler depending on `meg-obs`.
pub(crate) fn sample_bernoulli_indices<R: Rng>(
    total: u64,
    prob: f64,
    rng: &mut R,
    mut visit: impl FnMut(u64),
) -> u64 {
    if prob <= 0.0 || total == 0 {
        return 0;
    }
    if prob >= 1.0 {
        for idx in 0..total {
            visit(idx);
        }
        return 0;
    }
    let log_q = (1.0 - prob).ln();
    let mut idx: u64 = 0;
    let mut draws: u64 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        draws += 1;
        let skip = (u.ln() / log_q).floor();
        if !skip.is_finite() || skip >= (total as f64) {
            break;
        }
        idx = match idx.checked_add(skip as u64) {
            Some(v) => v,
            None => break,
        };
        if idx >= total {
            break;
        }
        visit(idx);
        idx += 1;
        if idx >= total {
            break;
        }
    }
    draws
}

/// Incremental [`pair_from_index`] for ascending pair indices: the endpoints
/// of the `k`-th pair of the row-major upper triangle, with the row tracked
/// monotonically (row `a` holds the `n−1−a` pairs `(a, a+1) .. (a, n−1)`), so
/// a walk over `m` indices costs `O(n + m)` and no square root.
///
/// Shared by both engines' snapshot rebuilds. Indices passed to
/// [`pair`](RowWalker::pair) must be non-decreasing and below `C(n, 2)`.
pub(crate) struct RowWalker {
    a: u64,
    row_start: u64,
    row_len: u64,
}

impl RowWalker {
    pub(crate) fn new(n: usize) -> Self {
        RowWalker {
            a: 0,
            row_start: 0,
            row_len: (n as u64).saturating_sub(1),
        }
    }

    /// The endpoints `(a, b)`, `a < b`, of the pair with linear index `k`.
    #[inline]
    pub(crate) fn pair(&mut self, k: u64) -> (Node, Node) {
        debug_assert!(k >= self.row_start, "pair indices must not decrease");
        while k >= self.row_start + self.row_len {
            self.row_start += self.row_len;
            self.row_len -= 1;
            self.a += 1;
        }
        (self.a as Node, (self.a + 1 + (k - self.row_start)) as Node)
    }
}

impl EvolvingGraph for SparseEdgeMeg {
    fn num_nodes(&self) -> usize {
        self.params.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let _span = obs::span("advance");
        match self.stepping {
            Stepping::PerPair => {
                self.rebuild_snapshot();
                self.step_chain();
            }
            Stepping::Transitions => {
                // The snapshot persistently mirrors the alive set: full build
                // with row slack on the first call, per-round deltas after
                // that (the chain steps at the start of each later call, so
                // the k-th advance still returns `G_{k−1}`).
                if !self.snapshot_synced {
                    self.snapshot.begin(self.params.n);
                    let n = self.params.n as u64;
                    for i in 0..self.alive_vec.len() {
                        let (a, b) = pair_from_index(n, self.alive_vec[i] as u64);
                        self.snapshot.push_edge(a as Node, b as Node);
                    }
                    self.snapshot.build_with_slack(DELTA_SLACK);
                    self.snapshot_synced = true;
                } else {
                    let draws = self.step_transitions();
                    let outcome = self.snapshot.apply_delta(&self.births, &self.deaths);
                    if obs::installed() {
                        obs::add(obs::Counter::EdgeBirths, self.births.len() as u64);
                        obs::add(obs::Counter::EdgeDeaths, self.deaths.len() as u64);
                        obs::add(obs::Counter::RngDraws, draws);
                        obs::record_delta(outcome.is_rebuilt(), outcome.rebuild_bytes() as u64);
                    }
                }
            }
        }
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
    use crate::dense::DenseEdgeMeg;
    use meg_core::flooding::flood;
    use meg_graph::{degree, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn skip_sampling_matches_bernoulli_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let total = 200_000u64;
        let prob = 0.01;
        let mut count = 0u64;
        let mut last = None;
        sample_bernoulli_indices(total, prob, &mut rng, |idx| {
            if let Some(prev) = last {
                assert!(idx > prev, "indices must be strictly increasing");
            }
            assert!(idx < total);
            last = Some(idx);
            count += 1;
        });
        let expected = total as f64 * prob;
        assert!(
            (count as f64 - expected).abs() < 0.1 * expected,
            "count {count} vs expected {expected}"
        );
    }

    #[test]
    fn skip_sampling_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut count = 0;
        sample_bernoulli_indices(100, 0.0, &mut rng, |_| count += 1);
        assert_eq!(count, 0);
        sample_bernoulli_indices(100, 1.0, &mut rng, |_| count += 1);
        assert_eq!(count, 100);
        sample_bernoulli_indices(0, 0.5, &mut rng, |_| count += 1);
        assert_eq!(count, 100);
    }

    #[test]
    fn row_walker_decodes_like_pair_from_index() {
        // Every index of every triangle, including the single pair at n = 2
        // and the last row's single pair (n−2, n−1).
        for n in 2..=64u64 {
            let mut rows = RowWalker::new(n as usize);
            for k in 0..n * (n - 1) / 2 {
                let (a, b) = pair_from_index(n, k);
                assert_eq!(rows.pair(k), (a as Node, b as Node), "n {n}, k {k}");
            }
        }
        // Sparse walks skip whole rows; equal consecutive indices are allowed.
        let n = 50u64;
        let mut rows = RowWalker::new(n as usize);
        for k in [0, 0, 3, 48, 49, 500, 1000, 1000, 1224] {
            let (a, b) = pair_from_index(n, k);
            assert_eq!(rows.pair(k), (a as Node, b as Node), "k {k}");
        }
    }

    #[test]
    fn snapshot_edge_set_equals_alive_state_exactly() {
        // The ascending alive list (private state) is the independent reference:
        // the CSR snapshot must list exactly those pairs, in index order.
        let n = 120usize;
        let params = EdgeMegParams::with_stationary(n, 0.05, 0.4);
        let mut meg = SparseEdgeMeg::stationary(params, 23);
        for step in 0..10 {
            let expected: Vec<(Node, Node)> = meg
                .alive
                .iter()
                .map(|&idx| {
                    let (a, b) = pair_from_index(n as u64, idx);
                    (a as Node, b as Node)
                })
                .collect();
            let snap = meg.advance();
            assert_eq!(snap.edges(), expected, "step {step}");
        }
    }

    #[test]
    fn transition_stepping_matches_g0_and_tracks_state_exactly() {
        let n = 150usize;
        let params = EdgeMegParams::with_stationary(n, 0.04, 0.3);
        let mut per_pair = SparseEdgeMeg::stationary(params, 71);
        let mut fast = SparseEdgeMeg::with_stepping(
            params,
            InitialDistribution::Stationary,
            Stepping::Transitions,
            71,
        );
        // Identical initial skip-sampling draws → identical G_0.
        assert_eq!(per_pair.advance().edges(), fast.advance().edges());
        // Later snapshots must mirror the flat alive array exactly (the
        // chain steps at the start of `advance`, so state and snapshot
        // coincide afterwards).
        for step in 0..60 {
            fast.advance();
            let mut expected: Vec<(Node, Node)> = fast
                .alive_vec
                .iter()
                .map(|&k| {
                    let (a, b) = pair_from_index(n as u64, k as u64);
                    (a as Node, b as Node)
                })
                .collect();
            expected.sort_unstable();
            let mut got = fast.snapshot.edges();
            got.sort_unstable();
            assert_eq!(got, expected, "step {step}");
            assert_eq!(
                fast.snapshot.num_edges(),
                fast.alive_vec.len(),
                "step {step}"
            );
        }
    }

    #[test]
    fn stationary_start_matches_expected_edge_count() {
        let params = EdgeMegParams::with_stationary(500, 0.02, 0.5);
        let meg = SparseEdgeMeg::stationary(params, 2);
        let expected = params.expected_stationary_edges();
        let got = meg.alive_edges() as f64;
        assert!(
            (got - expected).abs() < 0.2 * expected,
            "alive {got} vs expected {expected}"
        );
    }

    #[test]
    fn initial_distributions() {
        let params = EdgeMegParams::new(30, 0.1, 0.1);
        assert_eq!(
            SparseEdgeMeg::new(params, InitialDistribution::Empty, 0).alive_edges(),
            0
        );
        assert_eq!(
            SparseEdgeMeg::new(params, InitialDistribution::Full, 0).alive_edges(),
            30 * 29 / 2
        );
    }

    #[test]
    fn edge_count_stays_near_stationary_level() {
        let params = EdgeMegParams::with_stationary(400, 0.03, 0.25);
        let mut meg = SparseEdgeMeg::stationary(params, 5);
        let expected = params.expected_stationary_edges();
        for _ in 0..30 {
            let edges = meg.advance().num_edges() as f64;
            assert!(
                (edges - expected).abs() < 0.3 * expected,
                "edges {edges} drifted from stationary level {expected}"
            );
        }
    }

    #[test]
    fn sparse_and_dense_agree_statistically() {
        // Same parameters, different engines: average snapshot degree over a
        // window must agree within a few percent.
        let params = EdgeMegParams::with_stationary(250, 0.04, 0.3);
        let mut sparse = SparseEdgeMeg::stationary(params, 21);
        let mut dense = DenseEdgeMeg::stationary(params, 22);
        let window = 20;
        let mut sparse_mean = 0.0;
        let mut dense_mean = 0.0;
        for _ in 0..window {
            sparse_mean += degree::degree_stats(sparse.advance()).unwrap().mean;
            dense_mean += degree::degree_stats(dense.advance()).unwrap().mean;
        }
        sparse_mean /= window as f64;
        dense_mean /= window as f64;
        let expected = 249.0 * 0.04;
        assert!(
            (sparse_mean - expected).abs() < 1.5,
            "sparse mean {sparse_mean}"
        );
        assert!(
            (dense_mean - expected).abs() < 1.5,
            "dense mean {dense_mean}"
        );
        assert!((sparse_mean - dense_mean).abs() < 2.0);
    }

    #[test]
    fn flooding_completes_in_connected_regime() {
        // n = 2000, p̂ = 3 log n / n ≈ 0.0114 — sparse but connected.
        let n = 2_000usize;
        let phat = 3.0 * (n as f64).ln() / n as f64;
        let params = EdgeMegParams::with_stationary(n, phat, 0.5);
        let mut meg = SparseEdgeMeg::stationary(params, 33);
        let result = flood(&mut meg, 0, 10_000);
        assert!(result.completed);
        let t = result.completion_time().unwrap();
        assert!((2..=30).contains(&t), "flooding time {t}");
    }

    #[test]
    fn empty_start_takes_much_longer_than_stationary_in_sparse_regime() {
        // The "exponential gap" of Section 1 in miniature: with a tiny birth
        // rate, a stationary start floods quickly while an empty start must
        // first wait for edges to be born at all.
        let n = 300usize;
        let phat = 6.0 * (n as f64).ln() / n as f64; // ≈ 0.114
        let q = 0.002; // slow chain: edges are born very rarely (p ≈ 2.6e-4)
        let params = EdgeMegParams::with_stationary(n, phat, q);
        let mut stationary = SparseEdgeMeg::stationary(params, 44);
        let stat_time = flood(&mut stationary, 0, 100_000)
            .completion_time()
            .expect("stationary flooding completes");
        let mut empty = SparseEdgeMeg::new(params, InitialDistribution::Empty, 45);
        let empty_time = flood(&mut empty, 0, 100_000)
            .completion_time()
            .expect("worst-case flooding completes eventually");
        assert!(
            empty_time > 4 * stat_time,
            "empty start {empty_time} should be much slower than stationary {stat_time}"
        );
    }
}
