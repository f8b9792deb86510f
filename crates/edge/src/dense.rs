//! Dense edge-MEG engine: one explicit Markov-chain state per potential edge.
//!
//! Every step touches all `C(n, 2)` pairs, so stepping is `O(n²)` per
//! snapshot. It is the exact, obviously-correct reference used to validate
//! the sparse engine, and it is perfectly adequate for the dense regimes
//! (`p̂ = Ω(1)`) and for `n` up to a few thousand.
//!
//! The per-pair states live in a word-packed [`PairBits`] (64 pairs per
//! `u64`), not a `Vec<bool>`: stepping runs word-at-a-time through
//! [`meg_markov::WordStepper`] (one integer-threshold draw per pair, the
//! exact `gen_bool` schedule, so trajectories are bit-identical to the old
//! byte-per-pair loop), flip counts are `XOR` + `count_ones` per word — cheap
//! enough to compute whether or not a recorder is installed, which removed
//! the old observed/unobserved loop split — and snapshot rebuilds fill the
//! CSR straight from the set bits, walked with `trailing_zeros` instead of
//! scanning all `C(n, 2)` flags.

use crate::model::EdgeMegParams;
use meg_core::evolving::{EvolvingGraph, InitialDistribution};
use meg_graph::{PairBits, SnapshotBuf};
use meg_markov::{bernoulli_word, gen_bool_threshold, WordStepper};
use meg_obs as obs;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

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
}

impl DenseEdgeMeg {
    /// Creates the evolving graph with the given initial distribution.
    pub fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
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
        DenseEdgeMeg {
            params,
            alive,
            stepper: chain.word_stepper(),
            rng,
            snapshot: SnapshotBuf::with_nodes(params.n),
            time: 0,
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

    /// Number of currently alive edges (one popcount per word): after an
    /// [`advance`](EvolvingGraph::advance), the edge count of the snapshot
    /// it returned (the chain steps at the start of the next call).
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

    /// Per-pair stepping: one integer-threshold draw per pair, 64 pairs per
    /// word. One loop serves both the observed and unobserved cases: flip
    /// counts are an XOR and two popcounts per 64 pairs, cheap enough to
    /// compute unconditionally (`obs::add` no-ops when no recorder is
    /// installed), so observation changes neither the code path nor the RNG
    /// consumption. The tail word steps only its `last_word_bits()` —
    /// exactly one draw per real pair, the same schedule as a scalar
    /// per-pair loop.
    fn step_per_pair(&mut self) {
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
}

impl EvolvingGraph for DenseEdgeMeg {
    fn num_nodes(&self) -> usize {
        self.params.n
    }

    fn advance(&mut self) -> &SnapshotBuf {
        let _span = obs::span("advance");
        // From the second call on, the chain first moves the edge states from
        // t−1 to t; snapshot G_t then reflects them, and no step is drawn
        // past the last snapshot anyone reads.
        if self.time > 0 {
            let _step = obs::span("step");
            self.step_per_pair();
        }
        // The set bits walk in ascending pair-index order, which is
        // row-major order over the triangle: `O(words + n + m)`.
        let _build = obs::span("build");
        let pairs = self.alive.ones().map(|k| k as u64);
        self.snapshot.build_from_pairs(self.params.n, pairs);
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
    use meg_graph::generators::pair_from_index;
    use meg_graph::{degree, Graph, Node};

    /// The alive pairs as endpoint tuples in index order (the private-state
    /// reference the snapshots are checked against).
    fn alive_pairs(alive: &PairBits, n: usize) -> Vec<(Node, Node)> {
        alive
            .ones()
            .map(|k| {
                let (a, b) = pair_from_index(n as u64, k as u64);
                (a as Node, b as Node)
            })
            .collect()
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
        // The chain steps at the start of `advance`, so after each call the
        // state is the one the returned snapshot was built from.
        let params = EdgeMegParams::with_stationary(60, 0.15, 0.4);
        let mut meg = DenseEdgeMeg::stationary(params, 19);
        for step in 0..10 {
            let got = meg.advance().edges();
            assert_eq!(got, alive_pairs(&meg.alive, 60), "step {step}");
        }
    }

    #[test]
    fn snapshot_matches_alive_count() {
        let params = EdgeMegParams::new(40, 0.2, 0.3);
        let mut meg = DenseEdgeMeg::stationary(params, 7);
        for _ in 0..5 {
            let snap_edges = meg.advance().num_edges();
            assert_eq!(
                snap_edges,
                meg.alive_edges(),
                "snapshot must reflect the states it was built from"
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
