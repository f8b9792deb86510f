//! Differential test: state-machine protocol engine vs the pre-refactor
//! flooding loops.
//!
//! The spreading protocols were ported from hand-rolled `while` loops to the
//! [`meg_core::protocols::ProtocolMachine`] state-machine trait. The port
//! promises **byte identity**: same RNG draw order, same round accounting,
//! same rows. This test keeps a verbatim copy of the pre-refactor loops
//! (compiled only under `cfg(test)` by virtue of living in a test target)
//! and replays a randomized scenario grid through both paths — both edge
//! engines, the geometric grid-walk substrate, and a static baseline, under
//! fixed *and* adaptive precision — asserting the aggregated rows come out
//! identical down to their JSON rendering.

use meg_core::evolving::{EvolvingGraph, FrozenGraph};
use meg_core::protocols::ProtocolResult;
use meg_edge::{DenseEdgeMeg, SparseEdgeMeg};
use meg_engine::run::{
    adaptive_stop, aggregate_row, cell_seed, resolve_cells, run_cell, Cell, ResolvedSubstrate,
    TrialOutcome,
};
use meg_engine::scenario::{
    EdgeEngine, InitKind, MobilityKind, MoveRadiusSpec, PHatSpec, Precision, Protocol, RadiusSpec,
    Scenario, StaticKind, Substrate, Sweep,
};
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_graph::{generators, Graph, Node, NodeSet};
use meg_stats::{precision_checkpoints, run_trials, run_trials_scheduled};
use proptest::prelude::*;
use proptest::Strategy;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

// --- the pre-refactor loops, verbatim --------------------------------------

/// Pre-refactor probabilistic flooding (`beta = 1` is plain flooding).
fn legacy_probabilistic_flood<M, R>(
    meg: &mut M,
    source: Node,
    beta: f64,
    max_rounds: u64,
    rng: &mut R,
) -> ProtocolResult
where
    M: EvolvingGraph,
    R: Rng,
{
    let n = meg.num_nodes();
    let mut informed = NodeSet::singleton(n, source);
    let mut informed_per_round = vec![informed.len()];
    let mut messages = 0u64;
    let mut rounds = 0u64;
    let mut completed = informed.is_full();
    let mut newly: Vec<Node> = Vec::new();
    while rounds < max_rounds && !completed {
        let snapshot = meg.advance();
        newly.clear();
        for u in informed.iter() {
            if beta < 1.0 && !rng.gen_bool(beta) {
                continue;
            }
            for &v in snapshot.neighbors(u) {
                messages += 1;
                if !informed.contains(v) {
                    newly.push(v);
                }
            }
        }
        for &v in &newly {
            informed.insert(v);
        }
        rounds += 1;
        informed_per_round.push(informed.len());
        completed = informed.is_full();
    }
    ProtocolResult {
        completed,
        rounds,
        informed_per_round,
        messages_sent: messages,
    }
}

/// Pre-refactor parsimonious flooding.
fn legacy_parsimonious_flood<M>(
    meg: &mut M,
    source: Node,
    active_rounds: u64,
    max_rounds: u64,
) -> ProtocolResult
where
    M: EvolvingGraph,
{
    let n = meg.num_nodes();
    let mut informed = NodeSet::singleton(n, source);
    let mut remaining_active: Vec<u64> = vec![0; n];
    remaining_active[source as usize] = active_rounds;
    let mut informed_per_round = vec![informed.len()];
    let mut messages = 0u64;
    let mut rounds = 0u64;
    let mut completed = informed.is_full();
    let mut newly: Vec<Node> = Vec::new();
    while rounds < max_rounds && !completed {
        let snapshot = meg.advance();
        newly.clear();
        let mut any_active = false;
        for u in informed.iter() {
            if remaining_active[u as usize] == 0 {
                continue;
            }
            any_active = true;
            remaining_active[u as usize] -= 1;
            for &v in snapshot.neighbors(u) {
                messages += 1;
                if !informed.contains(v) {
                    newly.push(v);
                }
            }
        }
        for &v in &newly {
            if informed.insert(v) {
                remaining_active[v as usize] = active_rounds;
            }
        }
        rounds += 1;
        informed_per_round.push(informed.len());
        completed = informed.is_full();
        if !completed && !any_active {
            break;
        }
    }
    ProtocolResult {
        completed,
        rounds,
        informed_per_round,
        messages_sent: messages,
    }
}

/// Pre-refactor push–pull gossip.
fn legacy_push_pull_gossip<M, R>(
    meg: &mut M,
    source: Node,
    max_rounds: u64,
    rng: &mut R,
) -> ProtocolResult
where
    M: EvolvingGraph,
    R: Rng,
{
    let n = meg.num_nodes();
    let mut informed = NodeSet::singleton(n, source);
    let mut informed_per_round = vec![informed.len()];
    let mut messages = 0u64;
    let mut rounds = 0u64;
    let mut completed = informed.is_full();
    let mut newly: Vec<Node> = Vec::new();
    while rounds < max_rounds && !completed {
        let snapshot = meg.advance();
        newly.clear();
        for u in 0..n as Node {
            let slice = snapshot.neighbors(u);
            if slice.is_empty() {
                continue;
            }
            let v = slice[rng.gen_range(0..slice.len())];
            messages += 1;
            let u_informed = informed.contains(u);
            let v_informed = informed.contains(v);
            if u_informed && !v_informed {
                newly.push(v); // push
            } else if v_informed && !u_informed {
                newly.push(u); // pull
            }
        }
        for &v in &newly {
            informed.insert(v);
        }
        rounds += 1;
        informed_per_round.push(informed.len());
        completed = informed.is_full();
    }
    ProtocolResult {
        completed,
        rounds,
        informed_per_round,
        messages_sent: messages,
    }
}

// --- legacy trial execution, mirroring the engine's `execute_trial` --------

fn legacy_drive<M: EvolvingGraph>(
    meg: &mut M,
    protocol: &Protocol,
    source: Node,
    budget: u64,
    rng: &mut ChaCha8Rng,
) -> TrialOutcome {
    let r = match protocol {
        Protocol::Flooding => legacy_probabilistic_flood(meg, source, 1.0, budget, rng),
        Protocol::Probabilistic { beta } => {
            legacy_probabilistic_flood(meg, source, *beta, budget, rng)
        }
        Protocol::Parsimonious { active_rounds } => {
            legacy_parsimonious_flood(meg, source, *active_rounds, budget)
        }
        Protocol::PushPull => legacy_push_pull_gossip(meg, source, budget, rng),
        other => unreachable!("no legacy path for `{}`", other.label()),
    };
    TrialOutcome {
        completed: r.completed,
        value: r.rounds as f64,
        messages: r.messages_sent as f64,
    }
}

/// Legacy replica of the engine's trial construction: same sub-seed draw,
/// same substrate constructors, same source choice.
fn legacy_execute_trial(cell: &Cell, rng: &mut ChaCha8Rng) -> TrialOutcome {
    match &cell.substrate {
        ResolvedSubstrate::Edge {
            engine,
            params,
            init,
            ..
        } => {
            let sub_seed: u64 = rng.gen();
            match engine {
                EdgeEngine::Sparse => {
                    let mut meg = SparseEdgeMeg::new(*params, *init, sub_seed);
                    legacy_drive(&mut meg, &cell.protocol, 0, cell.round_budget, rng)
                }
                EdgeEngine::Dense => {
                    let mut meg = DenseEdgeMeg::new(*params, *init, sub_seed);
                    legacy_drive(&mut meg, &cell.protocol, 0, cell.round_budget, rng)
                }
            }
        }
        ResolvedSubstrate::Geometric {
            n,
            mobility: MobilityKind::GridWalk,
            radius,
            move_radius,
        } => {
            let sub_seed: u64 = rng.gen();
            let mut meg = GeometricMeg::from_params(
                GeometricMegParams::new(*n, *move_radius, *radius),
                sub_seed,
            );
            legacy_drive(&mut meg, &cell.protocol, 0, cell.round_budget, rng)
        }
        ResolvedSubstrate::Static { n, p_hat, .. } => {
            let graph = generators::erdos_renyi(*n, *p_hat, rng);
            let mut meg = FrozenGraph::new(graph);
            legacy_drive(&mut meg, &cell.protocol, 0, cell.round_budget, rng)
        }
        other => unreachable!("substrate {other:?} not generated by this test"),
    }
}

/// Runs the cell's trials through the legacy path under the scenario's
/// precision policy — the schedule the engine's trial queue reaches, on
/// the stand-alone `meg_stats` runner.
fn legacy_cell_outcomes(scenario: &Scenario, cell: &Cell, seed: u64) -> Vec<TrialOutcome> {
    match scenario.precision {
        Precision::FixedTrials => {
            run_trials(seed, cell.trials, |_i, rng| legacy_execute_trial(cell, rng))
        }
        Precision::TargetStderr {
            eps,
            min_trials,
            max_trials,
        } => run_trials_scheduled(
            seed,
            &precision_checkpoints(min_trials, max_trials),
            |_i, rng| legacy_execute_trial(cell, rng),
            |outcomes| adaptive_stop(eps, outcomes),
        ),
    }
}

// --- randomized scenario grid ----------------------------------------------

fn arb_spreading_protocol() -> impl Strategy<Value = Protocol> {
    (0u64..4, 0.05f64..=1.0, 1u64..4).prop_map(|(kind, beta, k)| match kind {
        0 => Protocol::Flooding,
        1 => Protocol::Probabilistic { beta },
        2 => Protocol::Parsimonious { active_rounds: k },
        _ => Protocol::PushPull,
    })
}

fn arb_substrate() -> impl Strategy<Value = Substrate> {
    (0u64..6, 8usize..40, 0.5f64..3.0, 0.2f64..0.8).prop_map(|(kind, n, factor, q)| match kind {
        // Both edge engines, each as likely as another family.
        0..=3 => Substrate::Edge {
            n,
            engine: if kind < 2 {
                EdgeEngine::Sparse
            } else {
                EdgeEngine::Dense
            },
            p_hat: PHatSpec::LogFactor(factor),
            q,
            init: InitKind::Stationary,
        },
        4 => Substrate::Geometric {
            n,
            mobility: MobilityKind::GridWalk,
            radius: RadiusSpec::ThresholdFactor(factor),
            move_radius: MoveRadiusSpec::RadiusFraction(0.5),
        },
        _ => Substrate::Static {
            n,
            graph: StaticKind::ErdosRenyi {
                p_hat: PHatSpec::LogFactor(factor),
            },
        },
    })
}

fn arb_precision() -> impl Strategy<Value = Precision> {
    (proptest::bool::ANY, 0.1f64..2.0).prop_map(|(fixed, eps)| {
        if fixed {
            Precision::FixedTrials
        } else {
            Precision::TargetStderr {
                eps,
                min_trials: 2,
                max_trials: 5,
            }
        }
    })
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        arb_substrate(),
        arb_spreading_protocol(),
        2usize..4,
        30u64..120,
        arb_precision(),
        0u64..1000,
    )
        .prop_map(
            |(substrate, protocol, trials, round_budget, precision, tag)| Scenario {
                name: format!("differential_{tag}"),
                description: "state machine vs legacy loop".into(),
                substrates: vec![substrate],
                protocols: vec![protocol],
                sweep: Sweep::none(),
                trials,
                round_budget,
                precision,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The state-machine engine and the pre-refactor loops produce
    /// byte-identical rows for every spreading protocol on every substrate
    /// family, under both precision policies.
    #[test]
    fn machine_rows_equal_legacy_rows(scenario in arb_scenario(), master in 0u64..u64::MAX) {
        let cells = resolve_cells(&scenario)
            .map_err(|e| TestCaseError::fail(format!("resolve failed: {e}")))?;
        for cell in &cells {
            let seed = cell_seed(&scenario.name, master, cell.index);
            let machine_row = run_cell(&scenario, cell, seed);
            let legacy = legacy_cell_outcomes(&scenario, cell, seed);
            let legacy_row = aggregate_row(&scenario, cell, seed, &legacy);
            prop_assert_eq!(&machine_row, &legacy_row);
            // Byte identity, not just structural equality.
            prop_assert_eq!(
                machine_row.to_json().render(),
                legacy_row.to_json().render()
            );
        }
    }
}
