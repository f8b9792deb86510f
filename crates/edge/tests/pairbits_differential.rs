//! Differential test of the word-packed dense engine against a byte-per-pair
//! reference.
//!
//! The dense engine packs its per-pair chain states into `PairBits` and steps
//! them 64 at a time through `meg_markov::WordStepper`, with the contract
//! that the RNG schedule and all observable behaviour are **bit-identical**
//! to the historical `Vec<bool>` implementation (one `gen_bool` per pair in
//! ascending index order). This suite rebuilds that historical engine from
//! first principles — a `Vec<bool>` state vector driven by scalar `gen_bool`
//! calls — and property-checks, over arbitrary `(n, p, q, seed, rounds)`:
//!
//! * every returned snapshot's edge set, in row order,
//! * the `meg-obs` flip/draw counters of every step,
//! * and the engine RNG cursor and alive count after every step (via
//!   [`DenseEdgeMeg::rng_cursor_probe`])
//!
//! agree exactly between the packed engine and the reference.
//!
//! The engine steps lazily, at the start of every `advance` but the first.
//! The reference builds and then steps: the step it drew at the end of round
//! `r − 1` is the one the engine draws in round `r`, so the counters, the RNG
//! cursor and the alive count are compared one round later.
//!
//! The counter comparison installs the process-global `meg-obs` recorder, so
//! the whole grid runs inside the single property below.

use meg_core::evolving::{EvolvingGraph, InitialDistribution};
use meg_edge::{DenseEdgeMeg, EdgeMegParams};
use meg_graph::generators::pair_from_index;
use meg_graph::Node;
use meg_obs as obs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// What one reference round observed: the snapshot the real engine must
/// return this round, plus the counter deltas it must record.
struct RefRound {
    edges: Vec<(Node, Node)>,
    births: u64,
    deaths: u64,
    rng_draws: u64,
}

/// The historical dense engine: one `bool` per pair, scalar RNG schedule.
struct ReferenceDense {
    n: usize,
    p: f64,
    q: f64,
    alive: Vec<bool>,
    rng: StdRng,
}

impl ReferenceDense {
    fn stationary(n: usize, p: f64, q: f64, seed: u64) -> Self {
        let params = EdgeMegParams::new(n, p, q);
        let phat = params.chain().stationary_edge_probability();
        let mut rng = StdRng::seed_from_u64(seed);
        let num_pairs = params.num_pairs() as usize;
        let alive: Vec<bool> = (0..num_pairs).map(|_| rng.gen_bool(phat)).collect();
        ReferenceDense {
            n,
            p,
            q,
            alive,
            rng,
        }
    }

    fn edges(&self) -> Vec<(Node, Node)> {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(k, _)| {
                let (a, b) = pair_from_index(self.n as u64, k as u64);
                (a as Node, b as Node)
            })
            .collect()
    }

    /// One Bernoulli per pair in ascending order — the schedule the packed
    /// word stepper must reproduce exactly.
    fn step_per_pair(&mut self) -> (u64, u64) {
        let (mut born, mut died) = (0u64, 0u64);
        for k in 0..self.alive.len() {
            let old = self.alive[k];
            let new = if old {
                !self.rng.gen_bool(self.q)
            } else {
                self.rng.gen_bool(self.p)
            };
            born += (!old & new) as u64;
            died += (old & !new) as u64;
            self.alive[k] = new;
        }
        (born, died)
    }

    fn advance(&mut self) -> RefRound {
        // Snapshot first (G_t), then the chain moves to t+1.
        let edges = self.edges();
        let (births, deaths) = self.step_per_pair();
        RefRound {
            edges,
            births,
            deaths,
            rng_draws: 0,
        }
    }

    fn rng_cursor_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }

    /// Alive pairs of the *current* chain state (post-step after `advance`,
    /// one step ahead of the snapshot `advance` returned).
    fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

fn counter(deltas: &[(&'static str, u64)], name: &str) -> u64 {
    deltas
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Maps a selector + raw uniform to a rate that visits the extremes often:
/// `0` (frozen), `1` (certain flip) and `0.5` exercise different branches of
/// the word stepper than generic rates do.
fn rate(selector: u32, raw: f64) -> f64 {
    match selector {
        0 | 1 => 0.0,
        2 | 3 => 1.0,
        4 => 0.5,
        _ => raw,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn packed_engine_equals_byte_per_pair_reference(
        n in 2usize..48,
        p_sel in 0u32..10,
        p_raw in 0.0f64..1.0,
        q_sel in 0u32..10,
        q_raw in 0.0f64..1.0,
        seed in 0u64..1_000_000_000,
        rounds in 0usize..8,
    ) {
        let p = rate(p_sel, p_raw);
        let q = rate(q_sel, q_raw);
        let params = EdgeMegParams::new(n, p, q);
        let mut real = DenseEdgeMeg::new(params, InitialDistribution::Stationary, seed);
        let mut reference = ReferenceDense::stationary(n, p, q, seed);

        // The stationary draw itself must leave both RNGs at the same cursor.
        prop_assert_eq!(
            real.rng_cursor_probe(),
            reference.rng_cursor_probe(),
            "RNG cursor diverged during stationary init"
        );

        // What the engine must show after its next round: the reference's
        // state one round back (no step yet before round 0).
        let mut lagged = ((0, 0, 0), reference.alive_count(), reference.rng_cursor_probe());
        obs::install();
        for round in 0..rounds {
            let before = obs::snapshot();
            let got: Vec<(Node, Node)> = real.advance().edges();
            let after = obs::snapshot();
            let want = reference.advance();

            // Rows ascend, so the CSR row order is the pair-index order.
            prop_assert_eq!(&got, &want.edges, "round {}: edge sets differ", round);
            let now = (
                (want.births, want.deaths, want.rng_draws),
                reference.alive_count(),
                reference.rng_cursor_probe(),
            );
            let ((births, deaths, rng_draws), alive, cursor) = std::mem::replace(&mut lagged, now);
            prop_assert_eq!(
                real.alive_edges(),
                alive,
                "round {}: alive count differs",
                round
            );

            let deltas = after.counter_deltas(&before);
            prop_assert_eq!(
                counter(&deltas, "edge_births"),
                births,
                "round {}: birth counters differ",
                round
            );
            prop_assert_eq!(
                counter(&deltas, "edge_deaths"),
                deaths,
                "round {}: death counters differ",
                round
            );
            prop_assert_eq!(
                counter(&deltas, "rng_draws"),
                rng_draws,
                "round {}: rng_draws counters differ",
                round
            );

            prop_assert_eq!(
                real.rng_cursor_probe(),
                cursor,
                "round {}: RNG cursor diverged",
                round
            );
        }
        obs::uninstall();
    }
}
