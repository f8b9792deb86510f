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
/// order, births are skip-sampled pair indices recorded bare, one forward
/// pass compacts the survivors and drops the candidates that were alive
/// before the step, and the births are merged in place; the snapshot's rows
/// are filled straight from the list — no tree, no per-edge square root, no
/// per-round allocation after warm-up. Under
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
    /// order is also row-major, so the snapshot is built straight from it
    /// ([`SnapshotBuf::build_from_pairs`]).
    alive: Vec<u64>,
    /// Scratch: this step's birth candidates in ascending index order
    /// (per-pair stepping); after the survivor pass, the births, merged into
    /// `alive` at the end of the step.
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

    /// Number of currently alive edges: after an
    /// [`advance`](EvolvingGraph::advance), the edge count of the snapshot
    /// it returned (the chain steps at the start of the next call).
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

    /// Per-pair stepping on the ascending alive list. The RNG schedule is
    /// one death draw per alive edge in ascending index order (only when
    /// `q > 0`), then the birth skip-sampling over all pairs (only when
    /// `p > 0`).
    ///
    /// Four passes: the death marks; the bare birth sampler, whose `visit`
    /// only records candidates, so its `ln`-bound loop has no data-dependent
    /// exit; [`drop_known_pairs`], which compacts the survivors and resolves
    /// birth membership in one forward pass; and [`merge_from_back`]. The
    /// last two advance by comparison results, not branches, except where a
    /// run of [`RUN`] entries moves as one block.
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
        // Birth candidates: every pair, with probability p, in ascending
        // order. Membership is resolved after sampling, so the sampler's loop
        // carries no data-dependent exit.
        self.born.clear();
        let mut draws = 0u64;
        if p > 0.0 {
            let born = &mut self.born;
            draws = sample_bernoulli_indices(total_pairs, p, &mut self.rng, |idx| born.push(idx));
        }
        drop_known_pairs(&mut self.alive, &mut self.born);
        merge_from_back(&mut self.alive, &self.born);
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

/// Entries both list passes move as one block when the next element of the
/// other list lies beyond them. At slow churn most of the list moves this way;
/// at fast churn the per-element steps take over.
const RUN: usize = 8;

/// The survivor compaction pass of the per-pair step. `alive` is the
/// ascending pre-step list with this step's deaths marked [`DEAD`]; `born`
/// holds the ascending birth candidates. One forward pass over both lists
/// removes the dead entries from `alive` and drops every candidate equal to
/// a pre-step pair (alive or just died, marks masked off): a survivor stays
/// alive anyway, and a pair that just died needs a full step absent before
/// it can be reborn, so each pre-step absent pair turns on with probability
/// `p`. Both lists keep their order.
///
/// Each step either keeps the next candidate (it lies before the next entry)
/// or moves the next entry (`alive[w] = x; w += !dead`), consuming an equal
/// candidate with it; the counters advance by comparison results, not
/// branches. A run of [`RUN`] entries that all lie before the next
/// candidate moves after one comparison.
fn drop_known_pairs(alive: &mut Vec<u64>, born: &mut Vec<u64>) {
    let len = alive.len();
    // A sentinel above every masked entry: the pass never consumes it, so
    // `c` needs no bound of its own.
    born.push(u64::MAX);
    let (mut r, mut w, mut c, mut kept) = (0, 0, 0, 0);
    while r < len {
        let b = born[c];
        if r + RUN <= len && alive[r + RUN - 1] & !DEAD < b {
            for k in r..r + RUN {
                let x = alive[k];
                alive[w] = x;
                w += (x & DEAD == 0) as usize;
            }
            r += RUN;
            continue;
        }
        let x = alive[r];
        let key = x & !DEAD;
        let take = b < key;
        born[kept] = b;
        kept += take as usize;
        c += (b <= key) as usize;
        alive[w] = x;
        w += (!take & (x & DEAD == 0)) as usize;
        r += !take as usize;
    }
    born.pop();
    born.copy_within(c.., kept);
    born.truncate(kept + born.len() - c);
    alive.truncate(w);
}

/// Merges the ascending, disjoint `born` into the ascending `alive` in place,
/// from the back, so every entry moves at most once. A run of [`RUN`]
/// entries above the largest unplaced birth moves as one block; otherwise
/// one entry or birth is placed by comparison result.
fn merge_from_back(alive: &mut Vec<u64>, born: &[u64]) {
    let (mut i, mut j) = (alive.len(), born.len());
    alive.resize(i + j, 0);
    while j > 0 {
        let b = born[j - 1];
        if i >= RUN && alive[i - RUN] > b {
            alive.copy_within(i - RUN..i, i - RUN + j);
            i -= RUN;
            continue;
        }
        let a = alive[i.saturating_sub(1)];
        let take = (i > 0) & (a > b);
        alive[i + j - 1] = if take { a } else { b };
        i -= take as usize;
        j -= !take as usize;
    }
}

/// Calls `visit` on each index in `0..total` selected independently with
/// probability `prob`, using geometric skip-sampling (expected cost
/// `O(total · prob)`).
///
/// This is the shared primitive behind the sparse engine's stationary draw
/// and birth phase and the `Stepping::Transitions` fast path of *both*
/// engines: the skip `⌊ln U / ln(1−prob)⌋` is exactly a geometric holding
/// time, so visiting the selected indices is equivalent to walking a
/// pre-drawn next-flip-time calendar without materialising it.
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
        // `ln u < 0`, so the ratio is NaN, ±∞ or strictly positive: the
        // range test breaks exactly where `!floor(x).is_finite() ||
        // floor(x) >= total` did (`total as f64` is a whole number), and on
        // the range kept truncation is `floor`, without a libm call.
        let skip = u.ln() / log_q;
        if !(skip >= 0.0 && skip < total as f64) {
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

impl EvolvingGraph for SparseEdgeMeg {
    fn num_nodes(&self) -> usize {
        self.params.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let _span = obs::span("advance");
        match self.stepping {
            Stepping::PerPair => {
                // The chain steps at the start of every call but the first,
                // so the k-th call returns `G_{k−1}` and no step is drawn
                // past the last snapshot anyone reads.
                if self.time > 0 {
                    let _step = obs::span("step");
                    self.step_chain();
                }
                let _build = obs::span("build");
                self.snapshot
                    .build_from_pairs(self.params.n, self.alive.iter().copied());
            }
            Stepping::Transitions => {
                // The snapshot persistently mirrors the alive set: full build
                // with row slack on the first call, per-round deltas after
                // that (stepping lazily, like the per-pair path).
                if !self.snapshot_synced {
                    let _build = obs::span("build");
                    self.snapshot.begin(self.params.n);
                    let n = self.params.n as u64;
                    for i in 0..self.alive_vec.len() {
                        let (a, b) = pair_from_index(n, self.alive_vec[i] as u64);
                        self.snapshot.push_edge(a as Node, b as Node);
                    }
                    self.snapshot.build_with_slack(DELTA_SLACK);
                    self.snapshot_synced = true;
                } else {
                    let draws = {
                        let _step = obs::span("step");
                        self.step_transitions()
                    };
                    let outcome = {
                        let _build = obs::span("build");
                        self.snapshot.apply_delta(&self.births, &self.deaths)
                    };
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

    /// The skip test before it lost its libm `floor`: break unless
    /// `⌊x⌋` is finite and below `total`, then add `⌊x⌋ as u64`.
    fn sample_with_floor<R: Rng>(total: u64, prob: f64, rng: &mut R) -> (Vec<u64>, u64) {
        let log_q = (1.0 - prob).ln();
        let (mut idx, mut draws, mut out) = (0u64, 0u64, Vec::new());
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
            out.push(idx);
            idx += 1;
            if idx >= total {
                break;
            }
        }
        (out, draws)
    }

    #[test]
    fn skip_without_floor_agrees_with_the_floor_skip_at_the_edges() {
        let cases: [(u64, f64); 9] = [
            // 1 − p rounds to 1: ln(1 − p) = 0, every ratio is −∞.
            (1000, 1e-17),
            (u64::MAX, 1e-17),
            // 1 − p = 2⁻⁵³ exactly: ratios in (0, 19.4], mostly below 1.
            (1000, 1.0 - f64::EPSILON / 2.0),
            // A single pair.
            (1, 0.5),
            (1, 1e-9),
            // Totals past 2⁵³ (not whole in f64, or rounding up to 2⁶⁴) with
            // skips past 2⁵³, where `as u64` must still equal `floor`.
            ((1 << 53) + 1, 1e-13),
            ((1 << 62) + 12_345, 1e-16),
            (u64::MAX, 1e-16),
            (u64::MAX - 1, 3e-16),
        ];
        for (case, &(total, prob)) in cases.iter().enumerate() {
            for seed in 0..20u64 {
                let mut ours = ChaCha8Rng::seed_from_u64(seed);
                let mut theirs = ours.clone();
                let mut got = Vec::new();
                let draws = sample_bernoulli_indices(total, prob, &mut ours, |k| got.push(k));
                let (want, want_draws) = sample_with_floor(total, prob, &mut theirs);
                assert_eq!(got, want, "case {case} seed {seed}");
                assert_eq!(draws, want_draws, "case {case} seed {seed}");
                assert_eq!(
                    ours.next_u64(),
                    theirs.next_u64(),
                    "case {case} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn survivor_pass_drops_known_pairs_and_merge_keeps_order() {
        // Entries 10, 12, …, 58 with 14 and 40 marked dead.
        let mut alive: Vec<u64> = (10..60).step_by(2).collect();
        alive[2] |= DEAD;
        alive[15] |= DEAD;
        // Before the first entry; equal to the last entry of the first
        // block of `RUN` (24), so that block must not move past it; between
        // entries; equal to a dead entry; equal to the last entry; past it.
        let mut born = vec![0, 9, 24, 25, 40, 41, 58, 59, 70];
        drop_known_pairs(&mut alive, &mut born);
        let survivors: Vec<u64> = (10..60)
            .step_by(2)
            .filter(|&k| k != 14 && k != 40)
            .collect();
        assert_eq!(alive, survivors);
        assert_eq!(born, [0, 9, 25, 41, 59, 70]);
        merge_from_back(&mut alive, &born);
        let mut want = survivors;
        want.extend_from_slice(&born);
        want.sort_unstable();
        assert_eq!(alive, want);

        // Empty sides: nothing alive keeps every candidate; no candidates
        // only compacts.
        let (mut alive, mut born) = (Vec::new(), vec![3, 5]);
        drop_known_pairs(&mut alive, &mut born);
        merge_from_back(&mut alive, &born);
        assert_eq!(alive, [3, 5]);
        let (mut alive, mut born) = (vec![1 | DEAD, 2, 3 | DEAD], Vec::new());
        drop_known_pairs(&mut alive, &mut born);
        merge_from_back(&mut alive, &born);
        assert_eq!((alive, born), (vec![2], vec![]));
    }

    #[test]
    fn snapshot_edge_set_equals_alive_state_exactly() {
        // The ascending alive list (private state) is the independent reference:
        // the CSR snapshot must list exactly those pairs, in index order. The
        // chain steps at the start of `advance`, so after each call the list
        // holds the state the returned snapshot was built from.
        let n = 120usize;
        let params = EdgeMegParams::with_stationary(n, 0.05, 0.4);
        let mut meg = SparseEdgeMeg::stationary(params, 23);
        for step in 0..10 {
            let got = meg.advance().edges();
            let expected: Vec<(Node, Node)> = meg
                .alive
                .iter()
                .map(|&idx| {
                    let (a, b) = pair_from_index(n as u64, idx);
                    (a as Node, b as Node)
                })
                .collect();
            assert_eq!(got, expected, "step {step}");
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
