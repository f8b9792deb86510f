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

use crate::model::EdgeMegParams;
use meg_core::evolving::{EvolvingGraph, InitialDistribution, Stepping};
use meg_graph::SnapshotBuf;
use meg_markov::gen_bool_threshold;
use meg_obs as obs;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Top bit of an entry of the alive list: set on the edges that die in the
/// current step, so the list keeps the pre-step set until the merge. Pair
/// indices never use it: `n(n−1)` fits in a `u64`, so `C(n, 2) < 2⁶³`.
const DEAD: u64 = 1 << 63;

/// Edge-MEG storing only the alive edges.
///
/// The alive set is an ascending flat `Vec<u64>` of pair indices kept above
/// a gap of free slots: deaths draw one Bernoulli per entry in that order,
/// and one forward pass writes the survivors and the births from the front
/// of the buffer as the skip sampler hands out its candidates, one chunk at
/// a time, then puts the list back above the gap; the snapshot's rows are
/// filled straight from the list — no tree, no candidate buffer, no per-edge
/// square root, no per-round allocation after warm-up.
#[derive(Clone, Debug)]
pub struct SparseEdgeMeg {
    params: EdgeMegParams,
    /// `alive[gap..]` holds the linear pair indices of the alive edges,
    /// strictly ascending outside a step, and `alive[..gap]` is the room the
    /// step's merge writes into. The death phase consumes its RNG draws in
    /// this order, so trajectories are a function of the seed alone, and the
    /// order is also row-major, so the snapshot is built straight from it
    /// ([`SnapshotBuf::build_from_pairs`]).
    alive: Vec<u64>,
    /// Free slots below the alive list. It starts at the square root of a
    /// stationary round's expected flips, the scale on which births run
    /// ahead of deaths, is kept across steps, and doubles whenever a step's
    /// births run ahead of it.
    gap: usize,
    rng: StdRng,
    snapshot: SnapshotBuf,
    time: u64,
}

impl SparseEdgeMeg {
    /// Creates the evolving graph with the given initial distribution.
    pub fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pairs = params.num_pairs();
        // √(a stationary round's expected flips): the scale on which a
        // round's births run ahead of its deaths, which is the lead the
        // merge's writes take on its reads. A round that runs further ahead
        // doubles it.
        let gap = params.expected_stationary_flips().sqrt().ceil() as usize;
        // Sized once, for the gap and the mean count plus six standard
        // deviations: growing by doubling instead leaves a trail of freed
        // blocks that raised the peak memory of two-thread sweeps by a few
        // MB.
        let mean = params.expected_stationary_edges();
        let mut alive: Vec<u64> = Vec::new();
        alive.reserve_exact(gap + (mean + 6.0 * mean.sqrt()) as usize + 64);
        alive.resize(gap, 0);
        match init {
            InitialDistribution::Empty => {}
            InitialDistribution::Full => alive.extend(0..total_pairs),
            InitialDistribution::Stationary => {
                let phat = params.stationary_edge_probability();
                sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| alive.push(idx));
            }
        }
        SparseEdgeMeg {
            params,
            alive,
            gap,
            rng,
            snapshot: SnapshotBuf::with_nodes(params.n),
            time: 0,
        }
    }

    /// [`new`](SparseEdgeMeg::new): per-pair stepping is the only mode.
    ///
    /// Kept only because `perfbench/src/trace.rs` still calls it; the next
    /// benchmark change deletes it.
    pub fn with_stepping(
        params: EdgeMegParams,
        init: InitialDistribution,
        _stepping: Stepping,
        seed: u64,
    ) -> Self {
        Self::new(params, init, seed)
    }

    /// Stationary-start constructor (the paper's setting).
    pub fn stationary(params: EdgeMegParams, seed: u64) -> Self {
        Self::new(params, InitialDistribution::Stationary, seed)
    }

    /// The model parameters.
    pub fn params(&self) -> EdgeMegParams {
        self.params
    }

    /// Number of currently alive edges: after an
    /// [`advance`](EvolvingGraph::advance), the edge count of the snapshot
    /// it returned (the chain steps at the start of the next call).
    pub fn alive_edges(&self) -> usize {
        self.pairs().len()
    }

    /// The ascending alive list.
    fn pairs(&self) -> &[u64] {
        &self.alive[self.gap..]
    }

    /// The next draw of a *clone* of the engine RNG — a cursor probe for
    /// differential tests (the engine's own stream is not advanced). Two
    /// engines that have consumed the same number of draws from the same
    /// seed probe equal.
    pub fn rng_cursor_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// One step of every pair's chain on the ascending alive list. The RNG
    /// schedule is
    /// one death draw per alive edge in ascending index order (only when
    /// `q > 0`), then the birth skip-sampling over all pairs (only when
    /// `p > 0`).
    ///
    /// Two passes over the list: the death marks, then [`merge_births`],
    /// which pulls the birth candidates from the resumable [`SkipSampler`]
    /// one chunk at a time and writes the survivors and the births from the
    /// front of the buffer as it reads the marked list above the gap. The
    /// sampler only fills its chunk, so its `ln`-bound loop has no
    /// data-dependent exit, and no candidate is stored beyond one chunk.
    fn step_chain(&mut self) {
        let total_pairs = self.params.num_pairs();
        let p = self.params.p;
        let q = self.params.q;
        let before = self.pairs().len() as u64;
        // Deaths: mark each alive edge dead with probability q, in place, so
        // the list still holds the pre-step set for the birth phase. The
        // integer compare is `gen_bool(q)` draw for draw.
        let mut died = 0u64;
        if q > 0.0 {
            let threshold = gen_bool_threshold(q);
            for idx in self.alive[self.gap..].iter_mut() {
                let dies = (self.rng.next_u64() >> 11) < threshold;
                *idx |= DEAD * dies as u64;
                died += dies as u64;
            }
        }
        // Births: every pair, with probability p, in ascending order; the
        // sampler draws nothing when p = 0.
        let mut births = SkipSampler::new(total_pairs, p);
        let rng = &mut self.rng;
        merge_births(&mut self.alive, &mut self.gap, |chunk| {
            births.fill(rng, chunk)
        });
        if obs::installed() {
            let born = self.pairs().len() as u64 + died - before;
            obs::add(obs::Counter::EdgeDeaths, died);
            obs::add(obs::Counter::EdgeBirths, born);
            obs::add(obs::Counter::RngDraws, births.draws());
        }
    }
}

/// Entries the merge moves as one block when the next candidate lies beyond
/// them. At slow churn most of the list moves this way; at fast churn the
/// per-element steps take over.
const RUN: usize = 8;

/// Candidates the birth sampler hands the merge per call: the size of the
/// merge's one stack array.
const CHUNK: usize = 64;

/// Stands after the last entry during the merge. Its key lies above every
/// pair index (`C(n, 2) < 2⁶³`), so every candidate is placed before it and
/// the merge never moves it.
const END: u64 = !DEAD;

/// The per-pair step's merge: one forward pass, in place. On entry
/// `alive[*gap..]` is the ascending pre-step list with this step's deaths
/// marked [`DEAD`] and `alive[..*gap]` is free; `fill` writes the next
/// ascending birth candidates into the chunk it is given and returns how
/// many, 0 once there are none. On return `alive[*gap..]` is the post-step
/// list: every survivor, and every candidate equal to no pre-step pair (alive
/// or just died, marks masked off) — a survivor stays alive anyway, and a
/// pair that just died needs a full step absent before it can be reborn, so
/// each pre-step absent pair turns on with probability `p`.
///
/// The pass reads the marked list from above the gap and writes from the
/// front. Each step either writes the next candidate (it lies before the
/// next entry) or moves the next entry (`alive[w] = x; w += !dead`),
/// consuming an equal candidate with it; the indices advance by comparison
/// results, not branches. The entry and the candidate after the current ones
/// are loaded before the comparison decides which of them the next step
/// reads, so a step waits on a select rather than on a load. A run of
/// [`RUN`] entries that all lie before the next candidate moves after one
/// comparison. Every candidate of a chunk may be a birth, so before each
/// chunk the pass makes sure that many slots lie free between the write and
/// the read position, doubling `*gap` (and moving the unread entries up by
/// its old size) until they do. At the end the list moves back above the
/// gap, which the next step keeps.
fn merge_births(alive: &mut Vec<u64>, gap: &mut usize, mut fill: impl FnMut(&mut [u64]) -> usize) {
    // One slot past the chunk keeps the load of the candidate after the
    // last in bounds; its value is never used.
    let mut chunk = [0u64; CHUNK + 1];
    let (mut r, mut end, mut w) = (*gap, alive.len(), 0);
    alive.push(END);
    loop {
        let k = fill(&mut chunk[..CHUNK]);
        if k == 0 {
            break;
        }
        while r - w < k {
            let extra = (*gap).max(1);
            alive.resize(end + 1 + extra, 0);
            alive.copy_within(r..=end, r + extra);
            r += extra;
            end += extra;
            *gap += extra;
        }
        let (mut c, mut x, mut b) = (0, alive[r], chunk[0]);
        while c < k {
            if r + RUN <= end && alive[r + RUN - 1] & !DEAD < b {
                for j in r..r + RUN {
                    let x = alive[j];
                    alive[w] = x;
                    w += (x & DEAD == 0) as usize;
                }
                r += RUN;
                x = alive[r];
                continue;
            }
            let (next_x, next_b) = (alive[(r + 1).min(end)], chunk[c + 1]);
            let key = x & !DEAD;
            let take = b < key;
            let used = b <= key;
            alive[w] = if take { b } else { x };
            w += (take | (x & DEAD == 0)) as usize;
            c += used as usize;
            r += !take as usize;
            x = if take { x } else { next_x };
            b = if used { next_b } else { b };
        }
    }
    for j in r..end {
        let x = alive[j];
        alive[w] = x;
        w += (x & DEAD == 0) as usize;
    }
    alive.resize(*gap + w, 0);
    alive.copy_within(0..w, *gap);
}

/// Geometric skip-sampling of the indices in `0..total` selected
/// independently with probability `prob` (expected cost `O(total · prob)`),
/// resumable: each [`fill`](SkipSampler::fill) hands out the next selected
/// indices in ascending order.
///
/// This is the one sampler behind the sparse engine's stationary draw and
/// birth phase: the skip `⌊ln U / ln(1−prob)⌋` is a geometric gap, so
/// visiting the selected indices costs one draw per selected index instead
/// of one per index. However the calls cut
/// the walk into chunks, the indices, the draws and their order are those of
/// one uninterrupted walk.
pub(crate) struct SkipSampler {
    total: u64,
    /// `ln(1 − prob)`.
    log_q: f64,
    /// `prob ≥ 1`: every index is selected, without a draw.
    every: bool,
    /// The first index the walk has not passed yet.
    next: u64,
    /// The walk has left `0..total` (at once when `prob ≤ 0` or
    /// `total = 0`).
    ended: bool,
    draws: u64,
}

impl SkipSampler {
    pub(crate) fn new(total: u64, prob: f64) -> Self {
        SkipSampler {
            total,
            log_q: (1.0 - prob).ln(),
            every: prob >= 1.0,
            next: 0,
            ended: prob <= 0.0 || total == 0,
            draws: 0,
        }
    }

    /// The uniform RNG draws consumed so far, so callers can feed the
    /// `rng_draws` metrics counter without the sampler depending on
    /// `meg-obs`.
    pub(crate) fn draws(&self) -> u64 {
        self.draws
    }

    /// Writes the next selected indices into `out`, ascending, until it is
    /// full or the walk ends, and returns how many it wrote: fewer than
    /// `out.len()` only at the end of the walk, 0 after it.
    pub(crate) fn fill<R: Rng>(&mut self, rng: &mut R, out: &mut [u64]) -> usize {
        if self.ended {
            return 0;
        }
        let total = self.total;
        let (mut idx, mut k) = (self.next, 0);
        if self.every {
            while k < out.len() && idx < total {
                out[k] = idx;
                idx += 1;
                k += 1;
            }
            self.next = idx;
            self.ended = idx == total;
            return k;
        }
        let mut draws = 0;
        while k < out.len() {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            draws += 1;
            // `ln u < 0`, so the ratio is NaN, ±∞ or strictly positive: the
            // range test ends the walk exactly where `!floor(x).is_finite()
            // || floor(x) >= total` did (`total as f64` is a whole number),
            // and on the range kept truncation is `floor`, without a libm
            // call.
            let skip = u.ln() / self.log_q;
            if !(skip >= 0.0 && skip < total as f64) {
                self.ended = true;
                break;
            }
            idx = match idx.checked_add(skip as u64) {
                Some(v) if v < total => v,
                _ => {
                    self.ended = true;
                    break;
                }
            };
            out[k] = idx;
            k += 1;
            idx += 1;
            if idx >= total {
                self.ended = true;
                break;
            }
        }
        self.next = idx;
        self.draws += draws;
        k
    }
}

/// Calls `visit` on each index in `0..total` selected independently with
/// probability `prob`: a loop over one [`SkipSampler`]'s chunks.
///
/// Returns the number of uniform RNG draws consumed.
pub(crate) fn sample_bernoulli_indices<R: Rng>(
    total: u64,
    prob: f64,
    rng: &mut R,
    mut visit: impl FnMut(u64),
) -> u64 {
    let mut sampler = SkipSampler::new(total, prob);
    let mut chunk = [0u64; CHUNK];
    loop {
        let k = sampler.fill(rng, &mut chunk);
        if k == 0 {
            return sampler.draws();
        }
        chunk[..k].iter().for_each(|&idx| visit(idx));
    }
}

impl EvolvingGraph for SparseEdgeMeg {
    fn num_nodes(&self) -> usize {
        self.params.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let _span = obs::span("advance");
        // The chain steps at the start of every call but the first, so the
        // k-th call returns `G_{k−1}` and no step is drawn past the last
        // snapshot anyone reads.
        if self.time > 0 {
            let _step = obs::span("step");
            self.step_chain();
        }
        let _build = obs::span("build");
        self.snapshot
            .build_from_pairs(self.params.n, self.alive[self.gap..].iter().copied());
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
    use meg_graph::generators::pair_from_index;
    use meg_graph::{degree, Graph, Node};
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

    /// The skip sampler's edge cases: `(total, prob)`.
    const EDGE_CASES: [(u64, f64); 9] = [
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

    #[test]
    fn skip_without_floor_agrees_with_the_floor_skip_at_the_edges() {
        for (case, &(total, prob)) in EDGE_CASES.iter().enumerate() {
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

    /// Runs one [`SkipSampler`] to its end in chunks of `size`, checking
    /// that only the last chunk is short.
    fn sample_in_chunks<R: Rng>(
        total: u64,
        prob: f64,
        rng: &mut R,
        size: usize,
    ) -> (Vec<u64>, u64) {
        let mut sampler = SkipSampler::new(total, prob);
        let (mut chunk, mut got) = (vec![0; size], Vec::new());
        loop {
            let k = sampler.fill(rng, &mut chunk);
            assert!(
                k == 0 || got.last().is_none_or(|&last| chunk[0] > last),
                "a resumed chunk must continue above the last index handed out"
            );
            got.extend_from_slice(&chunk[..k]);
            if k < size {
                assert_eq!(
                    sampler.fill(rng, &mut chunk),
                    0,
                    "a short chunk ends the walk"
                );
                return (got, sampler.draws());
            }
        }
    }

    #[test]
    fn resumable_sampler_in_any_chunking_equals_the_one_shot_walk() {
        let sizes = [1, 2, CHUNK - 1, CHUNK, CHUNK + 1];
        for (case, &(total, prob)) in EDGE_CASES.iter().enumerate() {
            for seed in 0..20u64 {
                for size in sizes {
                    let mut ours = ChaCha8Rng::seed_from_u64(seed);
                    let mut theirs = ours.clone();
                    let (got, draws) = sample_in_chunks(total, prob, &mut ours, size);
                    let (want, want_draws) = sample_with_floor(total, prob, &mut theirs);
                    let at = format!("case {case} seed {seed} chunk {size}");
                    assert_eq!(got, want, "{at}");
                    assert_eq!(draws, want_draws, "{at}");
                    assert_eq!(ours.next_u64(), theirs.next_u64(), "{at}");
                }
            }
        }
        // A rate that selects a few thousand indices, so every chunking
        // resumes many times.
        for size in sizes {
            let mut ours = ChaCha8Rng::seed_from_u64(7);
            let mut theirs = ours.clone();
            let (got, draws) = sample_in_chunks(200_000, 0.02, &mut ours, size);
            assert_eq!((got, draws), sample_with_floor(200_000, 0.02, &mut theirs));
            assert_eq!(ours.next_u64(), theirs.next_u64(), "chunk {size}");
        }
        // `prob ≥ 1` selects every index without a draw; `prob ≤ 0` and
        // `total = 0` select none.
        let every: Vec<u64> = (0..3 * CHUNK as u64 + 5).collect();
        for size in sizes {
            let mut rng = ChaCha8Rng::seed_from_u64(3);
            let fresh = rng.clone().next_u64();
            for prob in [1.0, 1.5] {
                let (got, draws) = sample_in_chunks(every.len() as u64, prob, &mut rng, size);
                assert_eq!((got, draws), (every.clone(), 0), "chunk {size}");
            }
            for (total, prob) in [(0, 0.5), (0, 1.0), (100, 0.0)] {
                let (got, draws) = sample_in_chunks(total, prob, &mut rng, size);
                assert_eq!((got, draws), (vec![], 0), "chunk {size}");
            }
            assert_eq!(rng.next_u64(), fresh, "chunk {size}");
        }
    }

    /// Runs [`merge_births`] on the marked list `list` above a gap of `gap`
    /// free slots, handing it `candidates` in chunks of at most `size`, and
    /// returns the post-step list and the gap left for the next step.
    fn merge(list: &[u64], gap: usize, candidates: &[u64], size: usize) -> (Vec<u64>, usize) {
        let mut alive = vec![0; gap];
        alive.extend_from_slice(list);
        let (mut gap, mut rest) = (gap, candidates);
        merge_births(&mut alive, &mut gap, |chunk| {
            let k = rest.len().min(chunk.len()).min(size);
            chunk[..k].copy_from_slice(&rest[..k]);
            rest = &rest[k..];
            k
        });
        assert!(
            rest.is_empty(),
            "the merge stopped before the last candidate"
        );
        (alive[gap..].to_vec(), gap)
    }

    /// What the merge must return: the survivors of `list` and every
    /// candidate equal to no entry of it, dead or alive, ascending.
    fn merged(list: &[u64], candidates: &[u64]) -> Vec<u64> {
        let keys: std::collections::BTreeSet<u64> = list.iter().map(|&x| x & !DEAD).collect();
        let mut want: Vec<u64> = list.iter().copied().filter(|&x| x & DEAD == 0).collect();
        want.extend(candidates.iter().copied().filter(|b| !keys.contains(b)));
        want.sort_unstable();
        want
    }

    #[test]
    fn merge_drops_known_pairs_and_keeps_order() {
        // Entries 10, 12, …, 58 with 14 and 40 marked dead.
        let mut list: Vec<u64> = (10..60).step_by(2).collect();
        list[2] |= DEAD;
        list[15] |= DEAD;
        // Before the first entry; equal to the last entry of the first
        // block of `RUN` (24), so that block must not move past it; between
        // entries; equal to a dead entry; equal to the last entry; past it.
        let born = [0, 9, 24, 25, 40, 41, 58, 59, 70];
        let mut want: Vec<u64> = (10..60)
            .step_by(2)
            .filter(|&k| k != 14 && k != 40)
            .chain([0, 9, 25, 41, 59, 70])
            .collect();
        want.sort_unstable();
        for gap in [0, 1, 6, 9, 40] {
            for size in [1, 2, 3, CHUNK] {
                let (got, left) = merge(&list, gap, &born, size);
                assert_eq!(got, want, "gap {gap} chunk {size}");
                assert!(left >= gap, "gap {gap} chunk {size}: the gap never shrinks");
            }
        }

        // Empty sides: nothing alive keeps every candidate; no candidates
        // only compacts.
        assert_eq!(merge(&[], 0, &[3, 5], CHUNK).0, [3, 5]);
        assert_eq!(merge(&[1 | DEAD, 2, 3 | DEAD], 2, &[], CHUNK), (vec![2], 2));
    }

    #[test]
    fn merge_doubles_the_gap_when_births_run_ahead_of_it() {
        // Every birth precedes every entry, and one follows the last entry,
        // so the entries and the end mark move up while the gap grows. A
        // chunk of 21 candidates needs 21 free slots: 3 → 6 → 12 → 24.
        let list: Vec<u64> = (100..140)
            .map(|k| if k % 7 == 0 { k | DEAD } else { k })
            .collect();
        let born: Vec<u64> = (0..20).chain([500]).collect();
        let want = merged(&list, &born);
        assert_eq!(merge(&list, 3, &born, CHUNK), (want.clone(), 24));
        // An empty gap doubles from one slot.
        assert_eq!(merge(&list, 0, &born, CHUNK), (want.clone(), 32));
        // Chunk by chunk the gap grows only as far as each chunk needs.
        for size in [1, 2, 5] {
            let (got, gap) = merge(&list, 0, &born, size);
            assert_eq!(got, want, "chunk {size}");
            assert!(
                gap.is_power_of_two() && gap >= size,
                "chunk {size}: gap {gap}"
            );
        }
        // A gap as large as the births never grows.
        assert_eq!(merge(&list, 21, &born, CHUNK), (want, 21));
    }

    #[test]
    fn merge_moves_blocks_through_a_long_slow_churn_list() {
        // 20 000 entries, every 97th dead, and a candidate every ~300 pair
        // indices: most of the list lies in runs of more than `RUN` entries
        // below the next candidate, which move as blocks. Candidates hit
        // live entries, dead entries, block ends and the gaps between.
        let list: Vec<u64> = (0..20_000u64)
            .map(|i| 3 * i + 5)
            .map(|k| if k % 97 == 0 { k | DEAD } else { k })
            .collect();
        let born: Vec<u64> = (0..200u64).map(|i| 301 * i + i % 4).collect();
        let want = merged(&list, &born);
        for size in [1, 7, CHUNK] {
            assert_eq!(merge(&list, 2, &born, size).0, want, "chunk {size}");
        }
    }

    #[test]
    fn merge_agrees_with_the_set_reference_on_random_lists() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for case in 0..300 {
            let space = rng.gen_range(1..400u64);
            let (alive_rate, dead_rate) = (rng.gen::<f64>(), rng.gen::<f64>());
            let birth_rate = rng.gen::<f64>();
            let mut list = Vec::new();
            let mut born = Vec::new();
            for k in 0..space {
                if rng.gen_bool(alive_rate) {
                    list.push(if rng.gen_bool(dead_rate) { k | DEAD } else { k });
                }
                if rng.gen_bool(birth_rate) {
                    born.push(k);
                }
            }
            let (gap, size) = (rng.gen_range(0..50), rng.gen_range(1..2 * CHUNK));
            let want = merged(&list, &born);
            assert_eq!(merge(&list, gap, &born, size).0, want, "case {case}");
        }
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
                .pairs()
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
