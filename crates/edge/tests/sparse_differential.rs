//! Differential test of the sparse engine's per-pair stepping against the
//! historical `BTreeSet` implementation.
//!
//! `SparseEdgeMeg` keeps its per-pair alive set as an ascending flat
//! `Vec<u64>` above a gap of free slots: deaths are marked in place, then one
//! forward pass takes the birth candidates from the resumable skip sampler,
//! 64 at a time, and writes from the front of the gap every survivor and
//! every candidate that was not alive before the step, and the snapshot's
//! rows are filled straight from the list. The contract is that
//! the RNG schedule and all observable behaviour are **bit-identical** to the
//! old engine, whose alive set was a `BTreeSet<u64>` stepped by `retain`
//! (one `gen_bool(q)` per edge in ascending order) and skip-sampled births
//! rejected through the snapshot's `has_edge`. This suite keeps a copy of
//! that engine, its snapshot an adjacency list with each alive pair added in
//! ascending order (the push order of the old staged CSR build), and
//! property-checks, over arbitrary
//! `(n, p, q, seed, init, rounds)` with `n` up to the low hundreds:
//!
//! * every returned snapshot, row by row, so within-row neighbor order — the
//!   push order — must agree too,
//! * the `meg-obs` flip/draw counters of every step,
//! * and the engine RNG cursor and alive count after every step (via
//!   [`SparseEdgeMeg::rng_cursor_probe`]).
//!
//! The engine steps lazily, at the start of every `advance` but the first,
//! while the reference builds and then steps. The snapshots of round `r`
//! are compared as they come; the step the reference drew at the end of
//! round `r − 1` is the one the engine draws in round `r`, so its counters,
//! the RNG cursor and the alive count are compared one round later.
//!
//! The counter comparison installs the process-global `meg-obs` recorder, so
//! the whole grid runs inside the single property below.

use meg_core::evolving::{EvolvingGraph, InitialDistribution};
use meg_edge::{EdgeMegParams, SparseEdgeMeg};
use meg_graph::generators::pair_from_index;
use meg_graph::{AdjacencyList, Graph, Node};
use meg_obs as obs;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// The one-shot skip walk over `0..total` that the engine's resumable
/// `SkipSampler` (`pub(crate)` in `meg_edge::sparse`) hands out in chunks.
/// The reference must consume the RNG through the same draw sequence as the
/// engine, so if the crate's sampler ever changes schedule this walk stays
/// put and the property fails loudly.
fn sample_bernoulli_indices<R: Rng>(
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

/// The historical per-pair sparse engine: a `BTreeSet` alive set, rebuilt
/// into the snapshot with one `pair_from_index` per edge, stepped by
/// `retain` and `insert`.
struct ReferenceSparse {
    params: EdgeMegParams,
    alive: BTreeSet<u64>,
    rng: StdRng,
    snapshot: AdjacencyList,
}

/// Counter deltas one reference round must reproduce.
struct RefCounts {
    births: u64,
    deaths: u64,
    rng_draws: u64,
}

impl ReferenceSparse {
    fn new(params: EdgeMegParams, init: InitialDistribution, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let total_pairs = params.num_pairs();
        let mut alive: BTreeSet<u64> = BTreeSet::new();
        match init {
            InitialDistribution::Empty => {}
            InitialDistribution::Full => alive = (0..total_pairs).collect(),
            InitialDistribution::Stationary => {
                let phat = params.stationary_edge_probability();
                sample_bernoulli_indices(total_pairs, phat, &mut rng, |idx| {
                    alive.insert(idx);
                });
            }
        }
        ReferenceSparse {
            params,
            alive,
            rng,
            snapshot: AdjacencyList::new(params.n),
        }
    }

    fn rebuild_snapshot(&mut self) {
        self.snapshot = AdjacencyList::new(self.params.n);
        let n = self.params.n as u64;
        for &idx in &self.alive {
            let (a, b) = pair_from_index(n, idx);
            self.snapshot.add_edge_unchecked(a as Node, b as Node);
        }
    }

    fn step_chain(&mut self) -> RefCounts {
        let total_pairs = self.params.num_pairs();
        let p = self.params.p;
        let q = self.params.q;
        let alive_before = self.alive.len();
        if q > 0.0 {
            let rng = &mut self.rng;
            self.alive.retain(|_| !rng.gen_bool(q));
        }
        let died = alive_before - self.alive.len();
        let mut born = 0u64;
        let mut draws = 0u64;
        if p > 0.0 {
            let mut births: Vec<u64> = Vec::new();
            draws = sample_bernoulli_indices(total_pairs, p, &mut self.rng, |idx| {
                let (a, b) = pair_from_index(self.params.n as u64, idx);
                if !self.snapshot.has_edge(a as Node, b as Node) {
                    births.push(idx);
                }
            });
            born = births.len() as u64;
            for idx in births {
                self.alive.insert(idx);
            }
        }
        RefCounts {
            births: born,
            deaths: died as u64,
            rng_draws: draws,
        }
    }

    /// Snapshot `G_t` first, then the chain moves to `t + 1`.
    fn advance(&mut self) -> (Vec<Vec<Node>>, RefCounts) {
        self.rebuild_snapshot();
        let rows = rows(&self.snapshot);
        (rows, self.step_chain())
    }

    fn rng_cursor_probe(&self) -> u64 {
        self.rng.clone().next_u64()
    }
}

/// Every row in stored order: the edge set plus each row's push order.
fn rows(snap: &impl Graph) -> Vec<Vec<Node>> {
    (0..snap.num_nodes() as Node)
        .map(|u| snap.neighbors(u).to_vec())
        .collect()
}

fn counter(deltas: &[(&'static str, u64)], name: &str) -> u64 {
    deltas
        .iter()
        .find(|(k, _)| *k == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Maps a selector + raw uniform to a rate that visits the extremes often:
/// `0` skips a phase's draws entirely, `1` kills every edge or makes every
/// absent pair a birth (skip-sampling without draws), `0.5` is generic.
fn rate(selector: u32, raw: f64) -> f64 {
    match selector {
        0 | 1 => 0.0,
        2 | 3 => 1.0,
        4 => 0.5,
        _ => raw,
    }
}

fn init(selector: u32) -> InitialDistribution {
    match selector {
        0 => InitialDistribution::Empty,
        1 => InitialDistribution::Full,
        _ => InitialDistribution::Stationary,
    }
}

/// One case in four runs a graph in the low hundreds of nodes: an alive list
/// that spans hundreds of rows, survivor runs longer than the engine's block
/// moves, and candidates before the first or after the last alive pair. The
/// extremes are cheap only on small graphs, so a large case scales the birth
/// rate into `[0, 0.02]`, starts empty unless the stationary density stays
/// below ~10% (`q ≥ 0.2`, never `Full`), and runs at most 6 rounds; the
/// `BTreeSet` reference then stays within a few seconds in debug builds.
fn shape(
    selector: u32,
    (small, large): (usize, usize),
    (p, q): (f64, f64),
    init: InitialDistribution,
    rounds: usize,
) -> (usize, f64, InitialDistribution, usize) {
    if selector != 0 {
        return (small, p, init, rounds);
    }
    let init = if init == InitialDistribution::Stationary && q >= 0.2 {
        init
    } else {
        InitialDistribution::Empty
    };
    (large, p * 0.02, init, rounds.min(6))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sorted_list_engine_equals_btreeset_reference(
        n_sel in 0u32..4,
        n_small in 2usize..48,
        n_large in 100usize..400,
        p_sel in 0u32..10,
        p_raw in 0.0f64..1.0,
        q_sel in 0u32..10,
        q_raw in 0.0f64..1.0,
        seed in 0u64..1_000_000_000,
        init_sel in 0u32..4,
        rounds in 0usize..10,
    ) {
        let q = rate(q_sel, q_raw);
        let (n, p, init, rounds) = shape(
            n_sel,
            (n_small, n_large),
            (rate(p_sel, p_raw), q),
            init(init_sel),
            rounds,
        );
        let params = EdgeMegParams::new(n, p, q);
        let mut real = SparseEdgeMeg::new(params, init, seed);
        let mut reference = ReferenceSparse::new(params, init, seed);

        prop_assert_eq!(
            real.rng_cursor_probe(),
            reference.rng_cursor_probe(),
            "RNG cursor diverged during init"
        );
        prop_assert_eq!(real.alive_edges(), reference.alive.len());

        // What the engine must show after its next round: the reference's
        // state one round back (no step yet before round 0).
        let mut lagged = (
            RefCounts { births: 0, deaths: 0, rng_draws: 0 },
            reference.alive.len(),
            reference.rng_cursor_probe(),
        );
        obs::install();
        for round in 0..rounds {
            let before = obs::snapshot();
            let got = rows(real.advance());
            let after = obs::snapshot();
            let (want, counts) = reference.advance();

            prop_assert_eq!(&got, &want, "round {}: snapshots differ", round);
            let (counts, alive, cursor) = std::mem::replace(
                &mut lagged,
                (counts, reference.alive.len(), reference.rng_cursor_probe()),
            );
            prop_assert_eq!(
                real.alive_edges(),
                alive,
                "round {}: alive count differs",
                round
            );

            let deltas = after.counter_deltas(&before);
            prop_assert_eq!(
                counter(&deltas, "edge_births"),
                counts.births,
                "round {}: birth counters differ",
                round
            );
            prop_assert_eq!(
                counter(&deltas, "edge_deaths"),
                counts.deaths,
                "round {}: death counters differ",
                round
            );
            prop_assert_eq!(
                counter(&deltas, "rng_draws"),
                counts.rng_draws,
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
