//! Statistical gates for the new protocol families, built on
//! [`meg_stats::gof`] — multi-trial distributional assertions, not
//! single-seed spot checks.
//!
//! * **SIS epidemic threshold**: below the threshold the infection goes
//!   extinct almost immediately; above it the process is endemic and runs
//!   (censored) to the round budget. The two completion-time distributions
//!   must be statistically distinguishable, and the below-threshold cells
//!   must show near-certain extinction.
//! * **SIR final-size stability**: the final-size distribution is a
//!   property of the parameters, not of the seed — two independent seed
//!   batches must be KS-indistinguishable.
//! * **Rumor dynamism-helps** (arXiv:1302.3828 regime): on a sparse
//!   sub-connectivity substrate, push-only rumor spreading completes under
//!   edge-Markovian dynamics but censors on a static graph of matched
//!   density — dynamic completion times must be stochastically smaller and
//!   KS-distinguishable from the static ones.
//! * **Independent epidemic reference**: a plain set-based two-phase
//!   SIR/SIRS loop (every infectious–susceptible pair draws on its own,
//!   then all states update) and `EpidemicMachine` must agree in
//!   distribution on final size and extinction round.

use meg_core::evolving::{FrozenGraph, ScheduledGraph};
use meg_core::protocols::{run_machine, EpidemicMachine, RunOutcome};
use meg_engine::builtin;
use meg_engine::run::{cell_seed, resolve_cells, run_cell_range, Cell};
use meg_engine::scenario::Scenario;
use meg_graph::{generators, AdjacencyList, Graph, Node};
use meg_stats::{ks_two_sample, run_trials, Alpha};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

const MASTER_SEED: u64 = 20260807;

/// Resolves a builtin at fixture scale with a tighter round budget (these
/// gates measure distribution shape, not the production budget).
fn scaled_cells(scenario: &mut Scenario, budget: u64) -> Vec<Cell> {
    scenario.round_budget = budget;
    resolve_cells(scenario).expect("builtin must resolve")
}

/// Runs `trials` trials of `cell` and returns each trial's observable
/// (completion round count; the budget for censored trials) plus the
/// completed count.
fn sample_cell(scenario: &Scenario, cell: &Cell, trials: usize) -> (Vec<f64>, usize) {
    let seed = cell_seed(&scenario.name, MASTER_SEED, cell.index);
    let outcomes = run_cell_range(cell, seed, 0, trials);
    let values: Vec<f64> = outcomes.iter().map(|o| o.value).collect();
    let completed = outcomes.iter().filter(|o| o.completed).count();
    (values, completed)
}

fn find_cell<'a>(cells: &'a [Cell], label_prefix: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.protocol.label().starts_with(label_prefix))
        .unwrap_or_else(|| panic!("no cell with protocol `{label_prefix}*`"))
}

#[test]
fn sis_goes_extinct_below_the_threshold_and_endemic_above_it() {
    let mut scenario = builtin::epidemic_threshold().scaled(0.1);
    let cells = scaled_cells(&mut scenario, 200);
    let below = find_cell(&cells, "sis(c=0.02");
    let above = find_cell(&cells, "sis(c=0.5");

    let trials = 40;
    let (below_values, below_extinct) = sample_cell(&scenario, below, trials);
    let (above_values, above_extinct) = sample_cell(&scenario, above, trials);

    // Below threshold: extinction is near-certain (a binomial with
    // p ≳ 0.97 makes ≥ 36/40 overwhelmingly likely; the seed is pinned so
    // the gate is deterministic).
    assert!(
        below_extinct >= trials - 4,
        "below-threshold SIS must go extinct: {below_extinct}/{trials} extinctions"
    );
    // Above threshold: the endemic regime persists to the budget in the
    // clear majority of trials.
    assert!(
        above_extinct <= trials / 4,
        "above-threshold SIS must be endemic: {above_extinct}/{trials} extinctions"
    );
    // And the two completion-time distributions are statistically
    // different — the threshold is a real phase transition, not noise.
    let ks = ks_two_sample(&below_values, &above_values, Alpha::P01)
        .expect("both samples are non-empty");
    assert!(
        !ks.pass,
        "SIS below/above threshold distributions must differ: D={} critical={}",
        ks.statistic, ks.critical
    );
}

#[test]
fn sir_final_size_distribution_is_stable_across_seed_batches() {
    // Two independent batches of SIR runs on freshly sampled Erdős–Rényi
    // graphs: the final-size distribution depends on (n, p, contagion,
    // duration) only, so the batches must be KS-indistinguishable.
    let batch = |master: u64| -> Vec<f64> {
        run_trials(master, 60, |_i, rng: &mut ChaCha8Rng| {
            let n = 60;
            let graph = generators::erdos_renyi(n, 0.1, rng);
            let mut meg = FrozenGraph::new(graph);
            let mut machine = EpidemicMachine::new(n, 0, 0.3, 2, None);
            run_machine(&mut meg, &mut machine, 1_000, rng);
            machine.final_size() as f64
        })
    };
    let a = batch(1001);
    let b = batch(2002);
    let ks = ks_two_sample(&a, &b, Alpha::P01).expect("non-empty batches");
    assert!(
        ks.pass,
        "SIR final size must not depend on the seed batch: D={} critical={}",
        ks.statistic, ks.critical
    );
    // Sanity: the epidemic actually spreads (mean final size well past the
    // seed node) — a degenerate all-ones distribution would pass KS
    // vacuously.
    let mean = a.iter().sum::<f64>() / a.len() as f64;
    assert!(mean > 5.0, "epidemic never spread: mean final size {mean}");
}

#[test]
fn endemic_sis_rows_report_censoring_instead_of_spinning() {
    // A never-completing process must terminate at the round budget and
    // surface the truncation in its row: zero completion rate, no rounds
    // summary (there is no completion time to summarize), but real message
    // traffic — the trials did run, they just never went extinct.
    use meg_engine::run::run_cell;
    let mut scenario = builtin::epidemic_threshold().scaled(0.1);
    let cells = scaled_cells(&mut scenario, 150);
    let endemic = find_cell(&cells, "sis(c=0.5");
    let seed = cell_seed(&scenario.name, MASTER_SEED, endemic.index);
    let row = run_cell(&scenario, endemic, seed);
    assert_eq!(
        row.completion_rate, 0.0,
        "endemic SIS must censor every trial"
    );
    assert!(
        row.rounds.is_none(),
        "a fully censored cell has no completion-time summary"
    );
    assert_eq!(row.trials, endemic.trials);
    assert!(
        row.mean_messages > 0.0,
        "censored trials still ran and sent messages"
    );
}

#[test]
fn rumor_completes_faster_under_dynamics_than_on_matched_static_graphs() {
    // The dynamism-helps regime: same n, same stationary edge density —
    // the dynamic substrate completes, the static one censors at the
    // budget. Asserted over a trial population via KS, not a single seed.
    let mut scenario = builtin::rumor_dynamism().scaled(0.1);
    let cells = scaled_cells(&mut scenario, 500);
    assert_eq!(cells.len(), 2, "rumor_dynamism is a two-cell comparison");
    let dynamic = &cells[0];
    let statique = &cells[1];
    assert_eq!(dynamic.substrate_label, "edge-sparse");
    assert_eq!(statique.substrate_label, "static-erdos_renyi");

    let trials = 40;
    let (dyn_values, dyn_completed) = sample_cell(&scenario, dynamic, trials);
    let (sta_values, sta_completed) = sample_cell(&scenario, statique, trials);

    // Direction: dynamic completes more often and in fewer rounds.
    assert!(
        dyn_completed > sta_completed,
        "dynamics must help completion: dynamic {dyn_completed}/{trials} vs static {sta_completed}/{trials}"
    );
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&dyn_values) < mean(&sta_values),
        "dynamic mean rounds {} must beat static {}",
        mean(&dyn_values),
        mean(&sta_values)
    );
    // Distributional: the gap is statistically significant at α = 0.01.
    let ks = ks_two_sample(&dyn_values, &sta_values, Alpha::P01).expect("non-empty samples");
    assert!(
        !ks.pass,
        "dynamic and static completion-time distributions must differ: D={} critical={}",
        ks.statistic, ks.critical
    );
}

/// The plain two-phase epidemic of SNIPPETS.md Snippet 1, written with
/// sets and no code shared with `EpidemicMachine`: each round every
/// infectious–susceptible pair draws on its own (a node exposed k times is
/// infected with probability 1 − (1 − c)^k, as in the machine, whose first
/// hit ends a node's draws), then every node's state updates. A state ends
/// at a recorded round: an infection begun at round r (the source at
/// round 0) ends after round r + d; a recovery at round r into immunity
/// (`Some(w)`, w ≥ 1) ends after round r + w. `None` is SIR.
///
/// Returns (final size, rounds until no node is infectious, capped at
/// `budget`).
fn reference_epidemic(
    schedule: &[AdjacencyList],
    source: Node,
    contagion: f64,
    d: u64,
    immunity: Option<u64>,
    budget: u64,
    rng: &mut ChaCha8Rng,
) -> (usize, u64) {
    let n = schedule[0].num_nodes() as Node;
    let mut susceptible: BTreeSet<Node> = (0..n).filter(|&v| v != source).collect();
    let mut infectious: BTreeSet<Node> = BTreeSet::from([source]);
    let mut recovered: BTreeSet<Node> = BTreeSet::new();
    let mut state_end: BTreeMap<Node, u64> = BTreeMap::from([(source, d)]);
    let mut ever_infected = BTreeSet::from([source]);
    let mut round = 0;
    while !infectious.is_empty() && round < budget {
        let snapshot = &schedule[round as usize % schedule.len()];
        round += 1;
        // 1. Infectious nodes try to infect their susceptible neighbours.
        let mut infected = BTreeSet::new();
        for &i in &infectious {
            for &v in snapshot.neighbors(i) {
                if susceptible.contains(&v) && rng.gen::<f64>() < contagion {
                    infected.insert(v);
                }
            }
        }
        // 2. Every node's state is updated for the next round.
        for v in 0..n {
            if susceptible.contains(&v) && infected.contains(&v) {
                susceptible.remove(&v);
                infectious.insert(v);
                state_end.insert(v, round + d);
                ever_infected.insert(v);
            } else if infectious.contains(&v) && state_end[&v] == round {
                infectious.remove(&v);
                recovered.insert(v);
                if let Some(w) = immunity {
                    state_end.insert(v, round + w);
                }
            } else if recovered.contains(&v) && immunity.is_some() && state_end[&v] == round {
                recovered.remove(&v);
                susceptible.insert(v);
            }
        }
    }
    (ever_infected.len(), round)
}

#[test]
fn epidemic_machine_matches_an_independent_set_based_reference_in_distribution() {
    // One fixed scheduled graph: 5 Erdős–Rényi snapshots on 80 nodes with
    // mean degree 4, replayed periodically.
    let n = 80;
    let mut gen = ChaCha8Rng::seed_from_u64(7);
    let schedule: Vec<AdjacencyList> = (0..5)
        .map(|_| generators::erdos_renyi(n, 4.0 / n as f64, &mut gen))
        .collect();
    let budget = 400;
    let trials = 200;
    // SIR just above the threshold (bimodal final size) and SIRS, whose
    // re-infections lengthen the extinction round.
    for (contagion, d, immunity) in [(0.3, 2, None), (0.25, 2, Some(2)), (0.5, 1, Some(3))] {
        let mut machine_sizes = Vec::new();
        let mut machine_rounds = Vec::new();
        let mut reference_sizes = Vec::new();
        let mut reference_rounds = Vec::new();
        for t in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(1_000_000 + t);
            let mut meg = ScheduledGraph::new(schedule.clone());
            let mut machine = EpidemicMachine::new(n, 0, contagion, d, immunity);
            let run = run_machine(&mut meg, &mut machine, budget, &mut rng);
            assert_ne!(run.outcome, RunOutcome::Stalled);
            machine_sizes.push(machine.final_size() as f64);
            machine_rounds.push(run.rounds as f64);
            let mut rng = ChaCha8Rng::seed_from_u64(2_000_000 + t);
            let (size, rounds) =
                reference_epidemic(&schedule, 0, contagion, d, immunity, budget, &mut rng);
            reference_sizes.push(size as f64);
            reference_rounds.push(rounds as f64);
        }
        let what = format!("contagion={contagion} d={d} immunity={immunity:?}");
        for (observable, a, b) in [
            ("final size", &machine_sizes, &reference_sizes),
            ("extinction round", &machine_rounds, &reference_rounds),
        ] {
            let ks = ks_two_sample(a, b, Alpha::P01).expect("non-empty samples");
            assert!(
                ks.pass,
                "{what}: {observable} differs from the reference: D={} critical={}",
                ks.statistic, ks.critical
            );
        }
        // Not vacuous: the epidemic spreads in a good share of the runs.
        let spread = machine_sizes.iter().filter(|&&s| s >= 10.0).count();
        assert!(
            spread >= trials as usize / 4,
            "{what}: only {spread} runs spread"
        );
    }
}
