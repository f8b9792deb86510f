//! Dense edge-MEG engine: one explicit Markov-chain state per potential edge.
//!
//! Under the default [`Stepping::PerPair`] every step touches all `C(n, 2)`
//! pairs, so stepping is `O(n²)` per snapshot. It is the exact,
//! obviously-correct reference used to validate the sparse engine, and it is
//! perfectly adequate for the dense regimes (`p̂ = Ω(1)`) and for `n` up to a
//! few thousand.
//!
//! The per-pair states live in a word-packed [`PairBits`] (64 pairs per
//! `u64`), not a `Vec<bool>`: stepping runs word-at-a-time through
//! [`meg_markov::WordStepper`] (one integer-threshold draw per pair, the
//! exact `gen_bool` schedule, so trajectories are bit-identical to the old
//! byte-per-pair loop), flip counts are `XOR` + `count_ones` per word — cheap
//! enough to compute whether or not a recorder is installed, which removed
//! the old observed/unobserved loop split — and snapshot rebuilds walk set
//! bits with `trailing_zeros` instead of scanning all `C(n, 2)` flags.
//!
//! [`Stepping::Transitions`] keeps the same per-pair state for `O(1)`
//! membership tests (now single-bit probes) but steps by *flips only*:
//! holding times of the two-state chain are geometric, so deaths are
//! skip-sampled as positions in a flat alive-index array (rate `q`) and
//! births as pair indices over the whole triangle (rate `p`, pre-step-alive
//! candidates rejected). The flips are applied to the snapshot as a CSR delta
//! ([`SnapshotBuf::apply_delta`]) instead of rebuilding it, making a round
//! `O(1 + p·C(n,2) + q·|E|)` — sub-linear in the pair count for the sparse
//! and moderate regimes the paper's theorems live in.

use crate::model::{EdgeMegParams, MAX_TRANSITION_PAIRS};
use crate::sparse::{sample_bernoulli_indices, RowWalker};
use meg_core::evolving::{EvolvingGraph, InitialDistribution, Stepping};
use meg_graph::generators::pair_from_index;
use meg_graph::{Node, PairBits, SnapshotBuf};
use meg_markov::{bernoulli_word, gen_bool_threshold, WordStepper};
use meg_obs as obs;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Spare target slots reserved per CSR row by the transition-stepping path,
/// so a typical round's births fit without a rebuild.
pub(crate) const DELTA_SLACK: u32 = 4;

/// Edge-MEG with a dense per-pair state vector.
#[derive(Clone, Debug)]
pub struct DenseEdgeMeg {
    params: EdgeMegParams,
    /// Bit `k` is the state of the pair with linear index `k`, packed 64 per
    /// word (tail bits of the last word are zero — the `PairBits` invariant).
    alive: PairBits,
    /// Precomputed integer-threshold word stepper for `chain`.
    stepper: WordStepper,
    rng: StdRng,
    snapshot: SnapshotBuf,
    time: u64,
    stepping: Stepping,
    /// Flat array of alive pair indices (transition stepping only): deaths
    /// are skip-sampled as positions in this array and swap-removed.
    alive_idx: Vec<u32>,
    /// Whether the snapshot currently mirrors `alive` (transition stepping
    /// builds it once, then maintains it by deltas).
    snapshot_synced: bool,
    /// Scratch: sampled birth pair indices of the current round.
    birth_idx: Vec<u32>,
    /// Scratch: sampled death positions into `alive_idx` (increasing).
    death_pos: Vec<u32>,
    /// Scratch: this round's flips as endpoint pairs, fed to `apply_delta`.
    births: Vec<(Node, Node)>,
    deaths: Vec<(Node, Node)>,
}

/// Pushes every set pair of `alive` into `snapshot` in ascending pair-index
/// order — which *is* row-major order over the upper triangle, so the edge
/// sequence is identical to the old full scan. A [`RowWalker`] decodes the
/// set bits, so the walk is `O(words + n + m)` instead of `O(n²)`.
fn push_alive_edges(alive: &PairBits, n: usize, snapshot: &mut SnapshotBuf) {
    let mut rows = RowWalker::new(n);
    alive.for_each_set_bit(|k| {
        let (a, b) = rows.pair(k as u64);
        snapshot.push_edge(a, b);
    });
}

impl DenseEdgeMeg {
    /// Creates the evolving graph with the given initial distribution and
    /// the default per-pair stepping.
    pub fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        Self::with_stepping(params, init, Stepping::PerPair, seed)
    }

    /// Creates the evolving graph with an explicit stepping mode.
    ///
    /// Both modes sample the same process; they consume randomness in a
    /// different order, so trajectories at equal seeds differ (the
    /// `stepping_equivalence` suite checks the laws agree). The initial state
    /// is drawn identically, so `G_0` matches across modes at equal seeds.
    pub fn with_stepping(
        params: EdgeMegParams,
        init: InitialDistribution,
        stepping: Stepping,
        seed: u64,
    ) -> Self {
        assert!(
            stepping != Stepping::Transitions || params.num_pairs() <= MAX_TRANSITION_PAIRS,
            "transition stepping indexes pairs with u32; n={} has too many pairs",
            params.n
        );
        let chain = params.chain();
        let mut rng = StdRng::seed_from_u64(seed);
        let num_pairs = params.num_pairs() as usize;
        let alive: PairBits = match init {
            InitialDistribution::Empty => PairBits::new(num_pairs),
            InitialDistribution::Full => PairBits::full(num_pairs),
            InitialDistribution::Stationary => {
                // One Bernoulli(p̂) per pair in ascending index order — the
                // integer-threshold word fill consumes the RNG identically
                // to a scalar `gen_bool(phat)` loop.
                let phat = chain.stationary_edge_probability();
                let threshold = gen_bool_threshold(phat);
                let mut bits = PairBits::new(num_pairs);
                let n_words = bits.words().len();
                let last_bits = bits.last_word_bits();
                for (wi, w) in bits.words_mut().iter_mut().enumerate() {
                    let nbits = if wi + 1 == n_words { last_bits } else { 64 };
                    *w = bernoulli_word(threshold, nbits, &mut rng);
                }
                bits
            }
        };
        let mut alive_idx = Vec::new();
        if stepping == Stepping::Transitions {
            alive.for_each_set_bit(|k| alive_idx.push(k as u32));
        }
        DenseEdgeMeg {
            params,
            alive,
            stepper: chain.word_stepper(),
            rng,
            snapshot: SnapshotBuf::with_nodes(params.n),
            time: 0,
            stepping,
            alive_idx,
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

    /// The stepping mode this engine was built with.
    pub fn stepping(&self) -> Stepping {
        self.stepping
    }

    /// The model parameters.
    pub fn params(&self) -> EdgeMegParams {
        self.params
    }

    /// Number of currently alive edges (one popcount per word).
    pub fn alive_edges(&self) -> usize {
        self.alive.count_ones()
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
        push_alive_edges(&self.alive, self.params.n, &mut self.snapshot);
        self.snapshot.build();
    }

    /// Transition stepping: sample only the pairs that flip this round and
    /// record them as a delta in `births`/`deaths`.
    ///
    /// Births are drawn first (against the pre-step state), because the model
    /// forbids a same-round death→rebirth: an edge alive at `t` that dies is
    /// absent at `t+1` regardless of the birth coin it would have drawn.
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
        // Births: every pair absent before this step turns on w.p. p. The
        // pre-step membership test is a single-bit probe.
        let alive = &self.alive;
        let birth_idx = &mut self.birth_idx;
        let mut draws = sample_bernoulli_indices(total, p, &mut self.rng, |k| {
            if !alive.get(k as usize) {
                birth_idx.push(k as u32);
            }
        });
        // Deaths: every alive edge dies w.p. q — sampled as *positions* in
        // the flat alive-index array (the array order is arbitrary but the
        // marks are i.i.d., so any order samples the same law).
        let death_pos = &mut self.death_pos;
        draws += sample_bernoulli_indices(self.alive_idx.len() as u64, q, &mut self.rng, |pos| {
            death_pos.push(pos as u32);
        });
        // Apply deaths in decreasing position order: swap_remove only ever
        // moves elements from beyond the positions still to be processed.
        for i in (0..self.death_pos.len()).rev() {
            let pos = self.death_pos[i] as usize;
            let k = self.alive_idx.swap_remove(pos);
            self.alive.clear(k as usize);
            let (a, b) = pair_from_index(n, k as u64);
            self.deaths.push((a as Node, b as Node));
        }
        // Apply births.
        for i in 0..self.birth_idx.len() {
            let k = self.birth_idx[i];
            self.alive.set(k as usize);
            self.alive_idx.push(k);
            let (a, b) = pair_from_index(n, k as u64);
            self.births.push((a as Node, b as Node));
        }
        draws
    }
}

impl EvolvingGraph for DenseEdgeMeg {
    fn num_nodes(&self) -> usize {
        self.params.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let _span = obs::span("advance");
        match self.stepping {
            Stepping::PerPair => {
                // Snapshot G_t reflects the current edge states; the chain
                // then moves to the states of time t+1. One stepping loop
                // serves both the observed and unobserved cases: flip counts
                // are an XOR and two popcounts per 64 pairs, cheap enough to
                // compute unconditionally (`obs::add` no-ops when no recorder
                // is installed), so observation changes neither the code path
                // nor the RNG consumption. The tail word steps only its
                // `last_word_bits()` — exactly one draw per real pair, the
                // same schedule as a scalar per-pair loop.
                self.rebuild_snapshot();
                let stepper = self.stepper;
                let rng = &mut self.rng;
                let n_words = self.alive.words().len();
                let last_bits = self.alive.last_word_bits();
                let mut born = 0u64;
                let mut died = 0u64;
                for (wi, w) in self.alive.words_mut().iter_mut().enumerate() {
                    let nbits = if wi + 1 == n_words { last_bits } else { 64 };
                    let old = *w;
                    let new = stepper.step_word(old, nbits, rng);
                    born += (new & !old).count_ones() as u64;
                    died += (old & !new).count_ones() as u64;
                    *w = new;
                }
                debug_assert!(self.alive.tail_is_clean());
                obs::add(obs::Counter::EdgeBirths, born);
                obs::add(obs::Counter::EdgeDeaths, died);
            }
            Stepping::Transitions => {
                // The snapshot persistently mirrors the edge states: built in
                // full (with row slack) on the first call, then maintained by
                // per-round deltas. The chain therefore steps at the *start*
                // of each later call — the k-th advance still returns
                // `G_{k−1}`, exactly like the per-pair path.
                if !self.snapshot_synced {
                    self.snapshot.begin(self.params.n);
                    push_alive_edges(&self.alive, self.params.n, &mut self.snapshot);
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
    use meg_core::flooding::flood;
    use meg_graph::{degree, Graph};

    /// The alive pairs as endpoint tuples in index order (the private-state
    /// reference the snapshots are checked against).
    fn alive_pairs(alive: &PairBits, n: usize) -> Vec<(Node, Node)> {
        let mut out = Vec::new();
        alive.for_each_set_bit(|k| {
            let (a, b) = pair_from_index(n as u64, k as u64);
            out.push((a as Node, b as Node));
        });
        out
    }

    #[test]
    fn initial_distributions() {
        let params = EdgeMegParams::new(60, 0.05, 0.05);
        let empty = DenseEdgeMeg::new(params, InitialDistribution::Empty, 1);
        assert_eq!(empty.alive_edges(), 0);
        let full = DenseEdgeMeg::new(params, InitialDistribution::Full, 1);
        assert_eq!(full.alive_edges(), 60 * 59 / 2);
        let stat = DenseEdgeMeg::stationary(params, 1);
        let expected = params.expected_stationary_edges();
        let got = stat.alive_edges() as f64;
        assert!(
            (got - expected).abs() < 0.25 * expected,
            "stationary edges {got} vs expected {expected}"
        );
    }

    #[test]
    fn stationary_init_matches_scalar_gen_bool_draws() {
        // The word-filled stationary start must equal a scalar
        // `gen_bool(phat)` per pair on the same stream — same bits, same
        // number of draws.
        use rand::Rng;
        let params = EdgeMegParams::new(37, 0.12, 0.3);
        let meg = DenseEdgeMeg::stationary(params, 41);
        let phat = params.chain().stationary_edge_probability();
        let mut reference = StdRng::seed_from_u64(41);
        for k in 0..params.num_pairs() as usize {
            assert_eq!(meg.alive.get(k), reference.gen_bool(phat), "pair {k}");
        }
        assert_eq!(
            meg.rng_cursor_probe(),
            reference.next_u64(),
            "RNG cursor drifted"
        );
    }

    #[test]
    fn snapshot_edge_set_equals_alive_state_exactly() {
        // The CSR snapshot must reproduce the alive pair set bit-for-bit —
        // the dense engine's private state is the independent reference the
        // snapshot-buffer construction is checked against.
        let params = EdgeMegParams::with_stationary(60, 0.15, 0.4);
        let mut meg = DenseEdgeMeg::stationary(params, 19);
        for step in 0..10 {
            let expected = alive_pairs(&meg.alive, 60);
            let snap = meg.advance();
            assert_eq!(snap.edges(), expected, "step {step}");
        }
    }

    #[test]
    fn transition_stepping_matches_g0_and_tracks_state_exactly() {
        let params = EdgeMegParams::with_stationary(80, 0.12, 0.35);
        let mut per_pair = DenseEdgeMeg::stationary(params, 99);
        let mut fast = DenseEdgeMeg::with_stepping(
            params,
            InitialDistribution::Stationary,
            Stepping::Transitions,
            99,
        );
        // The initial state is drawn identically, so G_0 agrees byte-for-byte.
        assert_eq!(per_pair.advance().edges(), fast.advance().edges());
        // Every later delta-maintained snapshot must mirror the private state
        // vector exactly (the same invariant the per-pair path is tested on).
        // Under transition stepping the chain steps at the start of `advance`,
        // so the state and the returned snapshot coincide afterwards.
        for step in 0..60 {
            fast.advance();
            let expected = alive_pairs(&fast.alive, 80);
            let mut got = fast.snapshot.edges();
            got.sort_unstable();
            assert_eq!(got, expected, "step {step}");
            assert_eq!(
                fast.snapshot.num_edges(),
                fast.alive_idx.len(),
                "step {step}"
            );
        }
    }

    #[test]
    fn snapshot_matches_alive_count() {
        let params = EdgeMegParams::new(40, 0.2, 0.3);
        let mut meg = DenseEdgeMeg::stationary(params, 7);
        for _ in 0..5 {
            let before = meg.alive_edges();
            let snap_edges = meg.advance().num_edges();
            assert_eq!(
                snap_edges, before,
                "snapshot must reflect the pre-step states"
            );
        }
        assert_eq!(meg.time(), 5);
    }

    #[test]
    fn stationary_degree_distribution_matches_erdos_renyi() {
        let params = EdgeMegParams::with_stationary(300, 0.05, 0.5);
        let mut meg = DenseEdgeMeg::stationary(params, 3);
        let snap = meg.advance();
        let stats = degree::degree_stats(snap).unwrap();
        let expected_mean = 299.0 * 0.05;
        assert!(
            (stats.mean - expected_mean).abs() < 3.0,
            "mean degree {} vs expected {expected_mean}",
            stats.mean
        );
    }

    #[test]
    fn edge_count_stays_near_stationary_level_over_time() {
        let params = EdgeMegParams::with_stationary(120, 0.1, 0.3);
        let mut meg = DenseEdgeMeg::stationary(params, 9);
        let expected = params.expected_stationary_edges();
        for _ in 0..20 {
            let edges = meg.advance().num_edges() as f64;
            assert!(
                (edges - expected).abs() < 0.35 * expected,
                "edges {edges} drifted from stationary level {expected}"
            );
        }
    }

    #[test]
    fn empty_start_grows_toward_stationarity() {
        let params = EdgeMegParams::new(80, 0.01, 0.0);
        let mut meg = DenseEdgeMeg::new(params, InitialDistribution::Empty, 5);
        let first = meg.advance().num_edges();
        assert_eq!(
            first, 0,
            "the first snapshot of an empty start has no edges"
        );
        for _ in 0..60 {
            meg.advance();
        }
        let later = meg.advance().num_edges();
        assert!(later > 0, "edges must eventually appear");
    }

    #[test]
    fn flooding_completes_in_connected_regime() {
        // p̂ = 0.08 ≫ log(200)/200 ≈ 0.026.
        let params = EdgeMegParams::with_stationary(200, 0.08, 0.5);
        let mut meg = DenseEdgeMeg::stationary(params, 11);
        let result = flood(&mut meg, 0, 1_000);
        assert!(result.completed);
        assert!(result.completion_time().unwrap() <= 10);
    }

    #[test]
    fn frozen_chain_keeps_the_graph_fixed() {
        let params = EdgeMegParams::new(50, 0.0, 0.0);
        let mut meg = DenseEdgeMeg::stationary(params, 13);
        let a = meg.advance().num_edges();
        let b = meg.advance().num_edges();
        assert_eq!(a, b);
    }
}
