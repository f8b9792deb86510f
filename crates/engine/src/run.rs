//! The engine: resolves a [`Scenario`] into cells and executes them.
//!
//! Execution contract:
//!
//! * cells are enumerated deterministically (substrates × protocols × sweep
//!   grid, in declaration order);
//! * every cell's seed is `derive_seed(labeled_seed(master, scenario.name),
//!   cell_index)`, so **any single cell is reproducible in isolation** — rerun
//!   the scenario with the same master seed and cell `k` sees exactly the
//!   same randomness, regardless of which other cells exist or how threads
//!   schedule them;
//! * trial `i` of a cell draws its own RNG stream, `trial_rng(cell_seed, i)`,
//!   so which thread runs it cannot matter. A sweep's trials run through one
//!   sweep-wide queue (`crate::sched`): `meg_stats::trial_threads()` trial
//!   threads pull `(cell, trial)` units across cell boundaries, the calling
//!   thread makes the adaptive checkpoint decisions, and rows are released
//!   in cell order;
//! * every row records the `meg_core::spec` regime classification of its
//!   resolved parameters, so results stay honest about which theorem
//!   hypotheses they satisfy.

use crate::scenario::{
    AdversarialKind, EdgeEngine, MobilityKind, Param, Protocol, Scenario, ScenarioError,
    StaticKind, SteppingKind, Substrate,
};
use crate::sched::{self, Job, Plan};
use meg_core::adversarial::{RotatingBridge, RotatingStar};
use meg_core::analysis::{measure_expansion_sequence, ExpansionMeasurement};
use meg_core::evolving::{EvolvingGraph, FrozenGraph};
use meg_core::protocols::{
    parsimonious_flood, probabilistic_flood, push_pull_gossip, rumor_spread, run_machine,
    ByzantineMachine, EpidemicMachine, ProtocolResult,
};
use meg_core::spec;
use meg_edge::{DenseEdgeMeg, EdgeMegParams, SparseEdgeMeg, MAX_TRANSITION_PAIRS};
use meg_geometric::{GeometricMeg, GeometricMegParams};
use meg_graph::expansion::{min_expansion_sampled, SamplingStrategy};
use meg_graph::generators;
use meg_mobility::{Billiard, RandomWaypoint, TorusWalkers};
use meg_obs as obs;
use meg_stats::seeds::{derive_seed, labeled_seed};
use meg_stats::Summary;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use std::convert::Infallible;

/// Fully resolved numeric parameters of one cell's substrate.
#[derive(Clone, Debug, PartialEq)]
pub enum ResolvedSubstrate {
    /// Concrete edge-MEG configuration.
    Edge {
        /// Evolution engine.
        engine: EdgeEngine,
        /// Concrete parameters `M(n, p, q)`.
        params: EdgeMegParams,
        /// Stationary edge probability `p̂`.
        p_hat: f64,
        /// Initial distribution.
        init: meg_core::evolving::InitialDistribution,
        /// Chain stepping mode.
        stepping: meg_core::evolving::Stepping,
    },
    /// Concrete geometric-MEG configuration.
    Geometric {
        /// Number of nodes.
        n: usize,
        /// Mobility model.
        mobility: MobilityKind,
        /// Transmission radius `R`.
        radius: f64,
        /// Move radius `r`.
        move_radius: f64,
    },
    /// Concrete adversarial construction (`n` already rounded to the
    /// construction's constraints).
    Adversarial {
        /// Number of nodes.
        n: usize,
        /// Which construction.
        construction: AdversarialKind,
    },
    /// Concrete static baseline graph.
    Static {
        /// Number of nodes (for [`StaticKind::Grid2d`], `side²`).
        n: usize,
        /// Which family.
        graph: StaticKind,
        /// Resolved edge probability (Erdős–Rényi; 0 otherwise).
        p_hat: f64,
    },
}

impl ResolvedSubstrate {
    /// `"edge"`, `"geometric"`, `"adversarial"`, or `"static"`.
    pub fn family(&self) -> &'static str {
        match self {
            ResolvedSubstrate::Edge { .. } => "edge",
            ResolvedSubstrate::Geometric { .. } => "geometric",
            ResolvedSubstrate::Adversarial { .. } => "adversarial",
            ResolvedSubstrate::Static { .. } => "static",
        }
    }

    /// The `meg_core::spec` regime classification of this configuration.
    ///
    /// Adversarial constructions are deterministic (a one-point stationary
    /// law) and static graphs do not evolve, so neither family has a spec
    /// regime — they are tagged by what they are instead.
    pub fn regime(&self) -> String {
        let c = spec::DEFAULT_THRESHOLD_CONSTANT;
        match self {
            ResolvedSubstrate::Edge { params, p_hat, .. } => {
                format!("{:?}", spec::edge_regime(params.n, *p_hat, c))
            }
            ResolvedSubstrate::Geometric {
                n,
                radius,
                move_radius,
                ..
            } => format!("{:?}", spec::geometric_regime(*n, *radius, *move_radius, c)),
            ResolvedSubstrate::Adversarial { .. } => "Deterministic".into(),
            ResolvedSubstrate::Static { .. } => "Static".into(),
        }
    }

    /// The resolved numeric parameters, as `(name, value)` pairs.
    pub fn params(&self) -> Vec<(String, f64)> {
        match self {
            ResolvedSubstrate::Edge { params, p_hat, .. } => vec![
                ("n".into(), params.n as f64),
                ("p_hat".into(), *p_hat),
                ("p".into(), params.p),
                ("q".into(), params.q),
            ],
            ResolvedSubstrate::Geometric {
                n,
                radius,
                move_radius,
                ..
            } => vec![
                ("n".into(), *n as f64),
                ("radius".into(), *radius),
                ("move_radius".into(), *move_radius),
            ],
            ResolvedSubstrate::Adversarial { n, .. } => vec![("n".into(), *n as f64)],
            ResolvedSubstrate::Static { n, graph, p_hat } => match graph {
                StaticKind::ErdosRenyi { .. } => {
                    vec![("n".into(), *n as f64), ("p_hat".into(), *p_hat)]
                }
                StaticKind::Grid2d => vec![("n".into(), *n as f64)],
            },
        }
    }
}

/// One fully resolved unit of work: a substrate, a protocol, and budgets.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Global cell index (also the seed-derivation index).
    pub index: usize,
    /// Substrate label from the scenario (e.g. `edge-sparse`).
    pub substrate_label: String,
    /// Resolved substrate parameters.
    pub substrate: ResolvedSubstrate,
    /// Protocol with sweep overrides applied.
    pub protocol: Protocol,
    /// Trials to run.
    pub trials: usize,
    /// Round budget per trial.
    pub round_budget: u64,
}

/// Aggregated result of one cell.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Scenario name.
    pub scenario: String,
    /// Cell index within the scenario.
    pub cell: usize,
    /// `"edge"` or `"geometric"`.
    pub family: String,
    /// Substrate label (`edge-sparse`, `geo-waypoint`, …).
    pub substrate: String,
    /// Protocol label (`flooding`, `probabilistic(beta=0.3)`, …).
    pub protocol: String,
    /// Resolved numeric parameters of the cell.
    pub params: Vec<(String, f64)>,
    /// `meg_core::spec` regime classification.
    pub regime: String,
    /// The derived cell seed (reproduces this row in isolation).
    pub seed: u64,
    /// Trials executed.
    pub trials: usize,
    /// Trial budget this cell was configured with: the fixed trial count
    /// under `Precision::FixedTrials`, `max_trials` under adaptive
    /// precision. `trials < requested_trials` means the adaptive stop rule
    /// fired early.
    pub requested_trials: usize,
    /// Standard error of the mean of the cell observable over completed
    /// trials (`None` below 2 completed trials). This is the quantity the
    /// adaptive stop rule compares against `eps`.
    pub achieved_stderr: Option<f64>,
    /// Fraction of trials that completed within the round budget.
    pub completion_rate: f64,
    /// Summary of the cell observable over completed trials (`None` if
    /// none): completion rounds for spreading protocols, the measured
    /// quantity for probe protocols.
    pub rounds: Option<Summary>,
    /// Mean messages sent per trial (over all trials; 0 for probes).
    pub mean_messages: f64,
}

impl Row {
    /// Renders the row as one JSON-lines object.
    ///
    /// The rendering is **lossless**: [`Row::from_json`] reconstructs an
    /// equal `Row` (the distributed worker protocol and `meg-lab merge`
    /// re-rendering depend on this), which is why the summary is emitted in
    /// full (`median_rounds`, `var_rounds`, `completed_trials`) rather than
    /// only the headline moments.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        let rounds = |f: fn(&Summary) -> f64| match &self.rounds {
            Some(s) => Json::Num(f(s)),
            None => Json::Null,
        };
        Json::obj([
            ("scenario", Json::Str(self.scenario.clone())),
            ("cell", Json::Num(self.cell as f64)),
            ("family", Json::Str(self.family.clone())),
            ("substrate", Json::Str(self.substrate.clone())),
            ("protocol", Json::Str(self.protocol.clone())),
            (
                "params",
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
            ("regime", Json::Str(self.regime.clone())),
            // u64 seeds can exceed 2^53; transported as a string.
            ("seed", Json::Str(self.seed.to_string())),
            ("trials", Json::Num(self.trials as f64)),
            ("requested_trials", Json::Num(self.requested_trials as f64)),
            (
                "achieved_stderr",
                match self.achieved_stderr {
                    Some(se) => Json::Num(se),
                    None => Json::Null,
                },
            ),
            ("completion_rate", Json::Num(self.completion_rate)),
            ("mean_rounds", rounds(|s| s.mean)),
            ("min_rounds", rounds(|s| s.min)),
            ("max_rounds", rounds(|s| s.max)),
            ("std_rounds", rounds(|s| s.std_dev)),
            ("median_rounds", rounds(|s| s.median)),
            ("var_rounds", rounds(|s| s.variance)),
            (
                "completed_trials",
                Json::Num(self.rounds.as_ref().map_or(0, |s| s.count) as f64),
            ),
            ("mean_messages", Json::Num(self.mean_messages)),
        ])
    }

    /// Decodes a row from its [`to_json`](Row::to_json) representation.
    ///
    /// Exact inverse: every `f64` survives because the JSON writer uses
    /// shortest-round-trip formatting, and the summary fields are all
    /// transported explicitly.
    pub fn from_json(v: &crate::json::Json) -> Result<Row, ScenarioError> {
        use crate::json::Json;
        let err = |m: String| ScenarioError(format!("row: {m}"));
        let get = |key: &str| v.get(key).ok_or_else(|| err(format!("missing `{key}`")));
        let get_str = |key: &str| {
            get(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| err(format!("`{key}` must be a string")))
        };
        let get_num = |key: &str| {
            get(key)?
                .as_f64()
                .ok_or_else(|| err(format!("`{key}` must be a number")))
        };
        let params = match get("params")? {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, val)| {
                    val.as_f64()
                        .map(|x| (k.clone(), x))
                        .ok_or_else(|| err(format!("param `{k}` must be a number")))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(err("`params` must be an object".into())),
        };
        let rounds = match get("mean_rounds")? {
            Json::Null => None,
            _ => Some(Summary {
                count: get("completed_trials")?
                    .as_usize()
                    .ok_or_else(|| err("`completed_trials` must be an integer".into()))?,
                mean: get_num("mean_rounds")?,
                variance: get_num("var_rounds")?,
                std_dev: get_num("std_rounds")?,
                min: get_num("min_rounds")?,
                max: get_num("max_rounds")?,
                median: get_num("median_rounds")?,
            }),
        };
        Ok(Row {
            scenario: get_str("scenario")?,
            cell: get("cell")?
                .as_usize()
                .ok_or_else(|| err("`cell` must be an integer".into()))?,
            family: get_str("family")?,
            substrate: get_str("substrate")?,
            protocol: get_str("protocol")?,
            params,
            regime: get_str("regime")?,
            seed: get_str("seed")?
                .parse()
                .map_err(|_| err("`seed` must be a u64 string".into()))?,
            trials: get("trials")?
                .as_usize()
                .ok_or_else(|| err("`trials` must be an integer".into()))?,
            requested_trials: get("requested_trials")?
                .as_usize()
                .ok_or_else(|| err("`requested_trials` must be an integer".into()))?,
            achieved_stderr: match get("achieved_stderr")? {
                Json::Null => None,
                v => Some(
                    v.as_f64()
                        .ok_or_else(|| err("`achieved_stderr` must be a number".into()))?,
                ),
            },
            completion_rate: get_num("completion_rate")?,
            rounds,
            mean_messages: get_num("mean_messages")?,
        })
    }

    /// The resolved parameters as a compact `k=v` string.
    pub fn params_compact(&self) -> String {
        self.params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Expands a scenario into its resolved cells (deterministic order).
///
/// Fails if the scenario does not [`validate`](Scenario::validate) (which
/// rejects a swept n below 2), or if a sweep override leaves an edge cell
/// with q, p̂ or an implied birth rate out of range. Every check runs here,
/// before any trial thread starts.
pub fn resolve_cells(scenario: &Scenario) -> Result<Vec<Cell>, ScenarioError> {
    scenario.validate()?;
    let mut cells = Vec::with_capacity(scenario.num_cells());
    let mut index = 0;
    for substrate in &scenario.substrates {
        for protocol in &scenario.protocols {
            for grid_index in 0..scenario.sweep.num_cells() {
                let overrides = scenario.sweep.cell(grid_index);
                cells.push(resolve_cell(
                    scenario, substrate, protocol, &overrides, index,
                )?);
                index += 1;
            }
        }
    }
    Ok(cells)
}

fn resolve_cell(
    scenario: &Scenario,
    substrate: &Substrate,
    protocol: &Protocol,
    overrides: &[(Param, f64)],
    index: usize,
) -> Result<Cell, ScenarioError> {
    use crate::scenario::{MoveRadiusSpec, PHatSpec, RadiusSpec};

    let mut substrate = *substrate;
    let mut protocol = *protocol;
    let mut trials = scenario.trials;

    for &(param, value) in overrides {
        match (param, &mut substrate) {
            (Param::N, Substrate::Edge { n, .. })
            | (Param::N, Substrate::Geometric { n, .. })
            | (Param::N, Substrate::Adversarial { n, .. })
            | (Param::N, Substrate::Static { n, .. }) => {
                // `Scenario::validate` rejects swept values below 2.
                *n = value.round() as usize;
            }
            (Param::Q, Substrate::Edge { q, .. }) => *q = value,
            (Param::PHat, Substrate::Edge { p_hat, .. }) => *p_hat = PHatSpec::Fixed(value),
            (Param::PHatFactor, Substrate::Edge { p_hat, .. }) => {
                *p_hat = PHatSpec::LogFactor(value)
            }
            (Param::Radius, Substrate::Geometric { radius, .. }) => {
                *radius = RadiusSpec::Fixed(value)
            }
            (Param::RadiusFactor, Substrate::Geometric { radius, .. }) => {
                *radius = RadiusSpec::ThresholdFactor(value)
            }
            (Param::MoveRadius, Substrate::Geometric { move_radius, .. }) => {
                *move_radius = MoveRadiusSpec::Fixed(value)
            }
            (Param::MoveRadiusFraction, Substrate::Geometric { move_radius, .. }) => {
                *move_radius = MoveRadiusSpec::RadiusFraction(value)
            }
            (Param::Beta, _) => {
                if let Protocol::Probabilistic { beta } = &mut protocol {
                    *beta = value.clamp(0.0, 1.0);
                }
            }
            (Param::ActiveRounds, _) => {
                if let Protocol::Parsimonious { active_rounds } = &mut protocol {
                    *active_rounds = (value.round().max(1.0)) as u64;
                }
            }
            (Param::Trials, _) => trials = (value.round().max(1.0)) as usize,
            (Param::SetSize, _) => {
                if let Protocol::ExpansionProbe { set_size, .. } = &mut protocol {
                    *set_size = value.round().max(1.0) as u64;
                }
            }
            (Param::Contagion, _) => match &mut protocol {
                Protocol::Sis { contagion, .. } | Protocol::Sir { contagion, .. } => {
                    *contagion = value.clamp(0.0, 1.0)
                }
                _ => {}
            },
            (Param::InfectionRounds, _) => match &mut protocol {
                Protocol::Sis {
                    infection_rounds, ..
                }
                | Protocol::Sir {
                    infection_rounds, ..
                } => *infection_rounds = value.round().max(1.0) as u64,
                _ => {}
            },
            (Param::ImmunityRounds, _) => {
                if let Protocol::Sis {
                    immunity_rounds, ..
                } = &mut protocol
                {
                    *immunity_rounds = value.round().max(0.0) as u64;
                }
            }
            (Param::ByzantineCount, _) => {
                if let Protocol::Byzantine { count } = &mut protocol {
                    *count = value.round().max(0.0) as u64;
                }
            }
            // Overrides for the other family are inert by design: a shared
            // sweep can drive heterogeneous substrates.
            _ => {}
        }
    }

    let resolved = match substrate {
        Substrate::Edge {
            n,
            engine,
            p_hat,
            q,
            init,
            stepping,
        } => {
            let p_hat = p_hat.resolve(n, q);
            let params = EdgeMegParams::try_with_stationary(n, p_hat, q)
                .map_err(|e| ScenarioError(format!("cell {index}: {e}")))?;
            if stepping == SteppingKind::Transitions && params.num_pairs() > MAX_TRANSITION_PAIRS {
                return Err(too_many_pairs_for_transitions(index, n));
            }
            ResolvedSubstrate::Edge {
                engine,
                params,
                p_hat,
                init: init.to_initial_distribution(),
                stepping: stepping.to_stepping(),
            }
        }
        Substrate::Geometric {
            n,
            mobility,
            radius,
            move_radius,
        } => {
            let r = radius.resolve(n);
            ResolvedSubstrate::Geometric {
                n,
                mobility,
                radius: r,
                move_radius: move_radius.resolve(r),
            }
        }
        Substrate::Adversarial { n, construction } => ResolvedSubstrate::Adversarial {
            // Round up to each construction's minimum; the bridge also needs
            // an even node count, so sweeps and --scale can never panic it.
            n: match construction {
                AdversarialKind::RotatingStar => n.max(2),
                AdversarialKind::RotatingBridge => {
                    let n = n.max(4);
                    n + n % 2
                }
            },
            construction,
        },
        Substrate::Static { n, graph } => match graph {
            StaticKind::ErdosRenyi { p_hat } => ResolvedSubstrate::Static {
                n,
                graph,
                // No death rate exists for a static snapshot; resolve with
                // q = 0 (the clamp then only keeps p̂ < 1).
                p_hat: p_hat.resolve(n, 0.0),
            },
            StaticKind::Grid2d => {
                let side = ((n as f64).sqrt().round() as usize).max(2);
                ResolvedSubstrate::Static {
                    n: side * side,
                    graph,
                    p_hat: 0.0,
                }
            }
        },
    };

    // An expansion probe at a set size beyond n/2 is meaningless (the legacy
    // profile experiments stopped there); clamp against the resolved n so
    // labels and params reflect what actually runs.
    if let Protocol::ExpansionProbe { set_size, .. } = &mut protocol {
        let n = match &resolved {
            ResolvedSubstrate::Edge { params, .. } => params.n,
            ResolvedSubstrate::Geometric { n, .. }
            | ResolvedSubstrate::Adversarial { n, .. }
            | ResolvedSubstrate::Static { n, .. } => *n,
        };
        *set_size = (*set_size).clamp(1, ((n / 2) as u64).max(1));
    }

    Ok(Cell {
        index,
        substrate_label: substrate.label(),
        substrate: resolved,
        protocol,
        trials,
        round_budget: scenario.round_budget,
    })
}

/// Transition stepping indexes node pairs with `u32` in both edge engines,
/// so a cell with more than [`MAX_TRANSITION_PAIRS`] pairs (`n ≥ 92_683`)
/// cannot run it. Out of line and cold, like the edge-parameter errors, so
/// the check adds no message-building code to `resolve_cell`.
#[cold]
#[inline(never)]
fn too_many_pairs_for_transitions(index: usize, n: usize) -> ScenarioError {
    ScenarioError(format!(
        "cell {index}: n={n} has more than {MAX_TRANSITION_PAIRS} node pairs, too many \
         for transition stepping; use per_pair stepping"
    ))
}

/// Outcome of a single trial: the cell observable (`value` is the completion
/// round count for spreading protocols, the measured quantity for probes)
/// plus completion and message-cost bookkeeping.
///
/// Public because the distributed worker protocol ships outcome batches over
/// JSON ([`TrialOutcome::to_json`] / [`TrialOutcome::from_json`], an exact
/// round trip) so the coordinator can aggregate a cell it grew adaptively.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TrialOutcome {
    /// Whether the trial produced its observable within the round budget.
    pub completed: bool,
    /// The cell observable (meaningful only when `completed`).
    pub value: f64,
    /// Messages sent (0 for probe protocols).
    pub messages: f64,
}

impl TrialOutcome {
    /// Serializes as a compact JSON object.
    pub fn to_json(&self) -> crate::json::Json {
        use crate::json::Json;
        Json::obj([
            ("completed", Json::Bool(self.completed)),
            ("value", Json::Num(self.value)),
            ("messages", Json::Num(self.messages)),
        ])
    }

    /// Decodes from the [`to_json`](TrialOutcome::to_json) representation
    /// (exact inverse — the JSON writer round-trips every `f64`).
    pub fn from_json(v: &crate::json::Json) -> Result<TrialOutcome, ScenarioError> {
        let err = |m: &str| ScenarioError(format!("trial outcome: {m}"));
        Ok(TrialOutcome {
            completed: v
                .get("completed")
                .and_then(crate::json::Json::as_bool)
                .ok_or_else(|| err("missing `completed`"))?,
            value: v
                .get("value")
                .and_then(crate::json::Json::as_f64)
                .ok_or_else(|| err("missing `value`"))?,
            messages: v
                .get("messages")
                .and_then(crate::json::Json::as_f64)
                .ok_or_else(|| err("missing `messages`"))?,
        })
    }

    pub(crate) fn failed() -> TrialOutcome {
        TrialOutcome {
            completed: false,
            value: 0.0,
            messages: 0.0,
        }
    }

    fn measured(value: f64) -> TrialOutcome {
        if value.is_finite() {
            TrialOutcome {
                completed: true,
                value,
                messages: 0.0,
            }
        } else {
            TrialOutcome::failed()
        }
    }
}

fn protocol_trial<M: EvolvingGraph>(
    meg: &mut M,
    protocol: &Protocol,
    source: meg_graph::Node,
    budget: u64,
    rng: &mut ChaCha8Rng,
) -> TrialOutcome {
    let n = meg.num_nodes();
    // Spreading protocols measure their completion round count; the
    // epidemic and Byzantine arms run their machines directly so the
    // per-protocol observables (infection/recovery totals, tampered
    // adoptions, correct coverage) stay readable after the run.
    let (r, value): (ProtocolResult, Option<f64>) = match protocol {
        Protocol::Flooding => (probabilistic_flood(meg, source, 1.0, budget, rng), None),
        Protocol::Probabilistic { beta } => {
            (probabilistic_flood(meg, source, *beta, budget, rng), None)
        }
        Protocol::Parsimonious { active_rounds } => (
            parsimonious_flood(meg, source, *active_rounds, budget),
            None,
        ),
        Protocol::PushPull => (push_pull_gossip(meg, source, budget, rng), None),
        Protocol::Sis {
            contagion,
            infection_rounds,
            immunity_rounds,
        } => {
            let mut machine = EpidemicMachine::new(
                n,
                source,
                *contagion,
                *infection_rounds,
                Some(*immunity_rounds),
            );
            let res = run_machine(meg, &mut machine, budget, rng);
            if obs::installed() {
                obs::add(obs::Counter::Infections, machine.infections());
                obs::add(obs::Counter::Recoveries, machine.recoveries());
            }
            (res.into_protocol_result(), None)
        }
        Protocol::Sir {
            contagion,
            infection_rounds,
        } => {
            let mut machine = EpidemicMachine::new(n, source, *contagion, *infection_rounds, None);
            let res = run_machine(meg, &mut machine, budget, rng);
            if obs::installed() {
                obs::add(obs::Counter::Infections, machine.infections());
                obs::add(obs::Counter::Recoveries, machine.recoveries());
            }
            (res.into_protocol_result(), None)
        }
        Protocol::Rumor => {
            let r = rumor_spread(meg, source, budget, rng);
            if obs::installed() {
                obs::add(obs::Counter::RumorPushes, r.messages_sent);
            }
            (r, None)
        }
        Protocol::Byzantine { count } => {
            let mut machine = ByzantineMachine::new(n, source, *count as usize);
            let res = run_machine(meg, &mut machine, budget, rng);
            if obs::installed() {
                obs::add(
                    obs::Counter::TamperedAdoptions,
                    machine.tampered_adoptions(),
                );
            }
            // The observable is the correct-information coverage fraction,
            // not the completion round count.
            let fraction = machine.correct_fraction();
            (res.into_protocol_result(), Some(fraction))
        }
        probe => unreachable!("probe `{}` must not reach protocol_trial", probe.label()),
    };
    if obs::installed() {
        obs::add(obs::Counter::Rounds, r.rounds);
        for &informed in &r.informed_per_round {
            obs::sample(obs::Gauge::InformedPerRound, informed as u64);
        }
    }
    TrialOutcome {
        completed: r.completed,
        value: value.unwrap_or(r.rounds as f64),
        messages: r.messages_sent as f64,
    }
}

/// Runs a measurement probe against an evolving graph (any substrate).
fn probe_trial<M: EvolvingGraph>(
    meg: &mut M,
    protocol: &Protocol,
    rng: &mut ChaCha8Rng,
) -> TrialOutcome {
    match protocol {
        Protocol::ExpansionProbe { set_size, samples } => {
            let snapshot = meg.advance();
            TrialOutcome::measured(min_expansion_sampled(
                snapshot,
                *set_size as usize,
                *samples as usize,
                SamplingStrategy::Mixed,
                rng,
            ))
        }
        Protocol::DiameterProbe => {
            // The n-source BFS sweep runs on the snapshot buffer as it is:
            // distances depend neither on neighbor order nor on a repeated
            // entry, because BFS only enqueues a node it has not reached.
            match meg_graph::diameter::exact(meg.advance()).finite() {
                Some(d) => TrialOutcome::measured(d as f64),
                None => TrialOutcome::failed(),
            }
        }
        Protocol::BoundProbe { snapshots, samples } => {
            let options = ExpansionMeasurement {
                snapshots: *snapshots as usize,
                samples_per_size: *samples as usize,
                strategy: SamplingStrategy::Mixed,
            };
            match measure_expansion_sequence(meg, options, rng) {
                Ok(seq) => TrialOutcome::measured(seq.flooding_bound()),
                Err(_) => TrialOutcome::failed(),
            }
        }
        // Occupancy needs node positions, which only the geometric substrate
        // exposes; on every other substrate the probe is inert.
        Protocol::OccupancyProbe => TrialOutcome::failed(),
        spreading => unreachable!("`{}` must not reach probe_trial", spreading.label()),
    }
}

/// Dispatches one trial to the spreading engine or the probe machinery.
fn drive<M: EvolvingGraph>(
    meg: &mut M,
    cell: &Cell,
    source: meg_graph::Node,
    rng: &mut ChaCha8Rng,
) -> TrialOutcome {
    if cell.protocol.is_probe() {
        probe_trial(meg, &cell.protocol, rng)
    } else {
        protocol_trial(meg, &cell.protocol, source, cell.round_budget, rng)
    }
}

fn geometric_occupancy_trial(
    n: usize,
    mobility: MobilityKind,
    radius: f64,
    move_radius: f64,
    rng: &mut ChaCha8Rng,
) -> TrialOutcome {
    use meg_geometric::cells::CellPartition;
    use meg_geometric::snapshot::{sample_paper_snapshot, snapshot_of};
    let side = (n as f64).sqrt();
    let snap = match mobility {
        MobilityKind::GridWalk => {
            sample_paper_snapshot(GeometricMegParams::new(n, move_radius, radius), rng)
        }
        MobilityKind::Waypoint => snapshot_of(
            &RandomWaypoint::new(n, side, move_radius * 0.5, move_radius, rng),
            radius,
        ),
        MobilityKind::Billiard => snapshot_of(
            &Billiard::new(n, side, move_radius * 0.5, move_radius, 0.1, rng),
            radius,
        ),
        MobilityKind::Walkers => {
            snapshot_of(&TorusWalkers::new(n, side, move_radius, 1.0, rng), radius)
        }
    };
    let partition = CellPartition::for_paper_instance(n, radius);
    match partition.occupancy_concentration(&snap.positions, radius) {
        Some(lambda) => TrialOutcome::measured(lambda),
        None => TrialOutcome::failed(), // an empty cell: λ is unbounded
    }
}

/// Executes one trial of one resolved cell under its RNG stream (the trial
/// index is already folded into `rng`).
pub(crate) fn execute_trial(cell: &Cell, _trial: usize, rng: &mut ChaCha8Rng) -> TrialOutcome {
    let _span = obs::span("trial");
    obs::add(obs::Counter::Trials, 1);
    match &cell.substrate {
        ResolvedSubstrate::Edge {
            engine,
            params,
            init,
            stepping,
            ..
        } => {
            let sub_seed: u64 = rng.gen();
            match engine {
                EdgeEngine::Sparse => {
                    let mut meg = SparseEdgeMeg::with_stepping(*params, *init, *stepping, sub_seed);
                    drive(&mut meg, cell, 0, rng)
                }
                EdgeEngine::Dense => {
                    let mut meg = DenseEdgeMeg::with_stepping(*params, *init, *stepping, sub_seed);
                    drive(&mut meg, cell, 0, rng)
                }
            }
        }
        ResolvedSubstrate::Geometric {
            n,
            mobility,
            radius,
            move_radius,
        } => {
            let (n, radius, move_radius) = (*n, *radius, *move_radius);
            if cell.protocol == Protocol::OccupancyProbe {
                return geometric_occupancy_trial(n, *mobility, radius, move_radius, rng);
            }
            let side = (n as f64).sqrt();
            let sub_seed: u64 = rng.gen();
            match mobility {
                MobilityKind::GridWalk => {
                    let mut meg = GeometricMeg::from_params(
                        GeometricMegParams::new(n, move_radius, radius),
                        sub_seed,
                    );
                    drive(&mut meg, cell, 0, rng)
                }
                MobilityKind::Waypoint => {
                    let model = RandomWaypoint::new(n, side, move_radius * 0.5, move_radius, rng);
                    let mut meg = GeometricMeg::new(model, radius, sub_seed);
                    drive(&mut meg, cell, 0, rng)
                }
                MobilityKind::Billiard => {
                    let model = Billiard::new(n, side, move_radius * 0.5, move_radius, 0.1, rng);
                    let mut meg = GeometricMeg::new(model, radius, sub_seed);
                    drive(&mut meg, cell, 0, rng)
                }
                MobilityKind::Walkers => {
                    let model = TorusWalkers::new(n, side, move_radius, 1.0, rng);
                    let mut meg = GeometricMeg::new(model, radius, sub_seed);
                    drive(&mut meg, cell, 0, rng)
                }
            }
        }
        ResolvedSubstrate::Adversarial { n, construction } => match construction {
            AdversarialKind::RotatingStar => {
                let mut meg = RotatingStar::new(*n, 0);
                // The separation claim concerns the worst-case source.
                let source = meg.worst_source();
                drive(&mut meg, cell, source, rng)
            }
            AdversarialKind::RotatingBridge => {
                let mut meg = RotatingBridge::new(*n);
                drive(&mut meg, cell, 1, rng)
            }
        },
        ResolvedSubstrate::Static { n, graph, p_hat } => {
            let graph = match graph {
                StaticKind::ErdosRenyi { .. } => generators::erdos_renyi(*n, *p_hat, rng),
                StaticKind::Grid2d => {
                    let side = (*n as f64).sqrt().round() as usize;
                    generators::grid2d(side, side)
                }
            };
            let mut meg = FrozenGraph::new(graph);
            drive(&mut meg, cell, 0, rng)
        }
    }
}

/// The adaptive stop decision on an outcome prefix: `true` once at least two
/// trials completed and the standard error of their observable is ≤ `eps`.
/// `eps ≤ 0` never stops (the "spend the whole budget" mode). The one
/// control loop every execution path shares consults it, so in-process and
/// pooled runs make identical decisions.
pub fn adaptive_stop(eps: f64, outcomes: &[TrialOutcome]) -> bool {
    if eps <= 0.0 {
        return false;
    }
    let completed: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.completed)
        .map(|o| o.value)
        .collect();
    match Summary::of(&completed) {
        Some(s) if s.count >= 2 => s.standard_error() <= eps,
        _ => false,
    }
}

/// Runs trials `start .. start + count` of one resolved cell — the batch
/// unit of the distributed adaptive control loop. Trial `i`'s randomness
/// depends only on `(cell_seed, i)`, so concatenated batches are
/// byte-identical to one fixed run of the same length.
pub fn run_cell_range(
    cell: &Cell,
    cell_seed: u64,
    start: usize,
    count: usize,
) -> Vec<TrialOutcome> {
    let mut out = Vec::new();
    if count == 0 {
        return out;
    }
    let job = Job {
        cell,
        seed: cell_seed,
        plan: Plan::range(start, count),
    };
    let Ok(()) = sched::run_jobs::<Infallible, _, _>(
        &[job],
        meg_stats::trial_threads(),
        None,
        execute_trial,
        |_, outcomes, _| {
            out = outcomes;
            Ok(())
        },
    );
    out
}

/// Aggregates a cell's trial outcomes into its result [`Row`].
///
/// Pure aggregation: given the same outcome slice it produces the same row
/// whether the trials ran in this process, in worker subprocesses, or were
/// re-read from a checkpoint — the second half of the byte-identity
/// guarantee.
pub fn aggregate_row(
    scenario: &Scenario,
    cell: &Cell,
    cell_seed: u64,
    outcomes: &[TrialOutcome],
) -> Row {
    let completed: Vec<f64> = outcomes
        .iter()
        .filter(|o| o.completed)
        .map(|o| o.value)
        .collect();
    let completion_rate = completed.len() as f64 / outcomes.len() as f64;
    let mean_messages = outcomes.iter().map(|o| o.messages).sum::<f64>() / outcomes.len() as f64;

    let mut params = cell.substrate.params();
    match cell.protocol {
        Protocol::Probabilistic { beta } => params.push(("beta".into(), beta)),
        Protocol::Parsimonious { active_rounds } => {
            params.push(("active_rounds".into(), active_rounds as f64))
        }
        Protocol::ExpansionProbe { set_size, .. } => params.push(("h".into(), set_size as f64)),
        Protocol::Sis {
            contagion,
            infection_rounds,
            immunity_rounds,
        } => {
            params.push(("contagion".into(), contagion));
            params.push(("infection_rounds".into(), infection_rounds as f64));
            params.push(("immunity_rounds".into(), immunity_rounds as f64));
        }
        Protocol::Sir {
            contagion,
            infection_rounds,
        } => {
            params.push(("contagion".into(), contagion));
            params.push(("infection_rounds".into(), infection_rounds as f64));
        }
        Protocol::Byzantine { count } => params.push(("byzantine_count".into(), count as f64)),
        _ => {}
    }

    let rounds = Summary::of(&completed);
    let achieved_stderr = rounds
        .as_ref()
        .filter(|s| s.count >= 2)
        .map(Summary::standard_error);
    Row {
        scenario: scenario.name.clone(),
        cell: cell.index,
        family: cell.substrate.family().into(),
        substrate: cell.substrate_label.clone(),
        protocol: cell.protocol.label(),
        params,
        regime: cell.substrate.regime(),
        seed: cell_seed,
        trials: outcomes.len(),
        requested_trials: scenario.precision.trial_budget(cell.trials),
        achieved_stderr,
        completion_rate,
        rounds,
        mean_messages,
    }
}

/// Runs one resolved cell under `cell_seed` and the scenario's
/// [`Precision`](crate::scenario::Precision) policy, and aggregates its row.
pub fn run_cell(scenario: &Scenario, cell: &Cell, cell_seed: u64) -> Row {
    let job = Job {
        cell,
        seed: cell_seed,
        plan: Plan::for_cell(&scenario.precision, cell),
    };
    let mut out = None;
    let Ok(()) = sched::run_rows::<Infallible, _, _>(
        scenario,
        &[job],
        meg_stats::trial_threads(),
        None,
        execute_trial,
        |row| {
            out = Some(row);
            Ok(())
        },
    );
    out.expect("a one-cell sweep releases one row")
}

/// The seed of cell `index` of `scenario` under `master_seed`.
pub fn cell_seed(scenario_name: &str, master_seed: u64, index: usize) -> u64 {
    derive_seed(labeled_seed(master_seed, scenario_name), index as u64)
}

/// Runs every cell of the scenario, invoking `on_row` as each row is
/// produced (streaming sinks, ascending cell order), and returns all rows.
/// All cells share one trial queue drained by
/// `meg_stats::trial_threads()` trial threads.
pub fn run_scenario_streaming<F: FnMut(&Row)>(
    scenario: &Scenario,
    master_seed: u64,
    on_row: F,
) -> Result<Vec<Row>, ScenarioError> {
    run_scenario_on(scenario, master_seed, meg_stats::trial_threads(), on_row)
}

/// [`run_scenario_streaming`] on exactly `threads` trial threads.
fn run_scenario_on<F: FnMut(&Row)>(
    scenario: &Scenario,
    master_seed: u64,
    threads: usize,
    mut on_row: F,
) -> Result<Vec<Row>, ScenarioError> {
    let cells = resolve_cells(scenario)?;
    let jobs = scenario_jobs(scenario, &cells, master_seed, 0..cells.len());
    let mut rows = Vec::with_capacity(cells.len());
    let Ok(()) = sched::run_sweep::<Infallible, _, _>(
        scenario,
        &jobs,
        threads,
        None,
        execute_trial,
        |row| {
            on_row(&row);
            rows.push(row);
            Ok(())
        },
    );
    Ok(rows)
}

/// The in-process jobs for cells `todo` of a resolved scenario.
pub(crate) fn scenario_jobs<'a>(
    scenario: &Scenario,
    cells: &'a [Cell],
    master_seed: u64,
    todo: impl IntoIterator<Item = usize>,
) -> Vec<Job<'a>> {
    todo.into_iter()
        .map(|index| Job {
            cell: &cells[index],
            seed: cell_seed(&scenario.name, master_seed, index),
            plan: Plan::for_cell(&scenario.precision, &cells[index]),
        })
        .collect()
}

/// Runs every cell of the scenario and returns the rows.
pub fn run_scenario(scenario: &Scenario, master_seed: u64) -> Result<Vec<Row>, ScenarioError> {
    run_scenario_streaming(scenario, master_seed, |_| {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{
        InitKind, MoveRadiusSpec, PHatSpec, Precision, RadiusSpec, SteppingKind, Sweep,
    };

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "tiny".into(),
            description: "test scenario".into(),
            substrates: vec![
                Substrate::Edge {
                    n: 60,
                    engine: EdgeEngine::Sparse,
                    p_hat: PHatSpec::LogFactor(3.0),
                    q: 0.5,
                    init: InitKind::Stationary,
                    stepping: SteppingKind::PerPair,
                },
                Substrate::Geometric {
                    n: 80,
                    mobility: MobilityKind::GridWalk,
                    radius: RadiusSpec::ThresholdFactor(1.2),
                    move_radius: MoveRadiusSpec::RadiusFraction(0.5),
                },
            ],
            protocols: vec![Protocol::Flooding, Protocol::PushPull],
            sweep: Sweep::over(Param::N, [40.0, 60.0]),
            trials: 2,
            round_budget: 5_000,
            precision: Precision::FixedTrials,
        }
    }

    #[test]
    fn resolve_produces_the_full_grid_in_order() {
        let cells = resolve_cells(&tiny_scenario()).unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2);
        assert_eq!(
            cells.iter().map(|c| c.index).collect::<Vec<_>>(),
            (0..8).collect::<Vec<_>>()
        );
        // n override applies to both families
        for c in &cells {
            let n = c
                .substrate
                .params()
                .iter()
                .find(|(k, _)| k == "n")
                .unwrap()
                .1;
            assert!(n == 40.0 || n == 60.0);
        }
        // substrate-major, then protocol, then grid
        assert_eq!(cells[0].substrate_label, "edge-sparse");
        assert_eq!(cells[0].protocol.label(), "flooding");
        assert_eq!(cells[3].substrate_label, "edge-sparse");
        assert_eq!(cells[3].protocol.label(), "push_pull");
        assert_eq!(cells[4].substrate_label, "geo-grid_walk");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let s = tiny_scenario();
        let a = run_scenario(&s, 99).unwrap();
        let b = run_scenario(&s, 99).unwrap();
        assert_eq!(a, b);
        let c = run_scenario(&s, 100).unwrap();
        assert_ne!(
            a.iter().map(|r| r.seed).collect::<Vec<_>>(),
            c.iter().map(|r| r.seed).collect::<Vec<_>>()
        );
    }

    #[test]
    fn cells_are_reproducible_in_isolation() {
        let s = tiny_scenario();
        let all = run_scenario(&s, 7).unwrap();
        let cells = resolve_cells(&s).unwrap();
        // Re-run only cell 5, alone: identical row.
        let lone = run_cell(&s, &cells[5], cell_seed(&s.name, 7, 5));
        assert_eq!(lone, all[5]);
    }

    #[test]
    fn rows_record_regimes_and_complete_above_threshold() {
        let s = tiny_scenario();
        let rows = run_scenario(&s, 1).unwrap();
        for row in &rows {
            assert!(!row.regime.is_empty());
            assert!(row.trials == 2);
            if row.protocol == "flooding" {
                assert!(
                    row.completion_rate > 0.0,
                    "flooding should complete above threshold: {row:?}"
                );
                assert!(row.rounds.as_ref().unwrap().mean >= 1.0);
                assert!(row.mean_messages > 0.0);
            }
        }
        // Both families and both protocols appear.
        assert!(rows.iter().any(|r| r.family == "edge"));
        assert!(rows.iter().any(|r| r.family == "geometric"));
        assert!(rows.iter().any(|r| r.protocol == "push_pull"));
    }

    #[test]
    fn rows_round_trip_through_json_exactly() {
        let s = tiny_scenario();
        for row in run_scenario(&s, 5).unwrap() {
            let back = Row::from_json(&row.to_json()).unwrap();
            assert_eq!(back, row, "lossy JSON round-trip");
            // And the re-rendered line is byte-identical (merge relies on it).
            assert_eq!(back.to_json().render(), row.to_json().render());
        }
        // Rows with no completed trial round-trip too.
        let mut row = run_scenario(&s, 5).unwrap().remove(0);
        row.rounds = None;
        row.completion_rate = 0.0;
        assert_eq!(Row::from_json(&row.to_json()).unwrap(), row);
        // Malformed rows are rejected, not garbled.
        for bad in ["{}", r#"{"scenario":"x","cell":-1}"#] {
            let v = crate::json::Json::parse(bad).unwrap();
            assert!(Row::from_json(&v).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn streaming_sees_every_row_in_order() {
        let s = tiny_scenario();
        let mut seen = Vec::new();
        let rows = run_scenario_streaming(&s, 3, |r| seen.push(r.cell)).unwrap();
        assert_eq!(seen, (0..rows.len()).collect::<Vec<_>>());
    }

    #[test]
    fn all_mobility_kinds_execute() {
        let s = Scenario {
            name: "mobility".into(),
            description: String::new(),
            substrates: MobilityKind::ALL
                .into_iter()
                .map(|mobility| Substrate::Geometric {
                    n: 60,
                    mobility,
                    radius: RadiusSpec::ThresholdFactor(1.2),
                    move_radius: MoveRadiusSpec::RadiusFraction(0.5),
                })
                .collect(),
            protocols: vec![Protocol::Flooding],
            sweep: Sweep::none(),
            trials: 1,
            round_budget: 5_000,
            precision: Precision::FixedTrials,
        };
        let rows = run_scenario(&s, 11).unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.completion_rate > 0.0, "no completion: {row:?}");
        }
    }

    #[test]
    fn adaptive_eps_zero_is_byte_identical_to_fixed_trials() {
        // eps = 0 can never be satisfied, so the adaptive run must execute
        // exactly max_trials — and, because trial seeds depend only on the
        // trial index, the rows must match a fixed run of the same count
        // byte for byte.
        let mut fixed = tiny_scenario();
        fixed.trials = 3;
        let mut adaptive = fixed.clone();
        adaptive.precision = Precision::TargetStderr {
            eps: 0.0,
            min_trials: 2,
            max_trials: 3,
        };
        let fixed_rows = run_scenario(&fixed, 7).unwrap();
        let adaptive_rows = run_scenario(&adaptive, 7).unwrap();
        assert_eq!(fixed_rows.len(), adaptive_rows.len());
        for (f, a) in fixed_rows.iter().zip(&adaptive_rows) {
            assert_eq!(a.trials, 3);
            assert_eq!(a.requested_trials, 3);
            assert_eq!(f.to_json().render(), a.to_json().render());
        }
    }

    #[test]
    fn adaptive_mode_converges_or_exhausts_the_budget() {
        let mut s = tiny_scenario();
        let (eps, max_trials) = (1.5, 16);
        s.precision = Precision::TargetStderr {
            eps,
            min_trials: 2,
            max_trials,
        };
        let rows = run_scenario(&s, 3).unwrap();
        for row in &rows {
            assert!(row.trials >= 2 && row.trials <= max_trials);
            assert_eq!(row.requested_trials, max_trials);
            let converged = row.achieved_stderr.is_some_and(|se| se <= eps);
            assert!(
                converged || row.trials == max_trials,
                "row neither met the target nor exhausted the budget: {row:?}"
            );
        }
        // Determinism holds in adaptive mode too.
        assert_eq!(rows, run_scenario(&s, 3).unwrap());
    }

    #[test]
    fn adaptive_stop_rule_semantics() {
        let done = |value| TrialOutcome {
            completed: true,
            value,
            messages: 0.0,
        };
        // eps = 0 never stops, even with zero variance.
        assert!(!adaptive_stop(0.0, &[done(4.0), done(4.0)]));
        // Zero variance stops as soon as two trials completed.
        assert!(adaptive_stop(0.5, &[done(4.0), done(4.0)]));
        // One completed trial is never enough to assess precision.
        assert!(!adaptive_stop(0.5, &[done(4.0)]));
        let failed = TrialOutcome::failed();
        assert!(!adaptive_stop(0.5, &[done(4.0), failed]));
        // High variance at a tight target keeps going.
        assert!(!adaptive_stop(0.01, &[done(1.0), done(100.0)]));
    }

    #[test]
    fn adversarial_substrates_separate_diameter_from_flooding() {
        let s = Scenario {
            name: "adv".into(),
            description: String::new(),
            substrates: vec![
                Substrate::Adversarial {
                    n: 64,
                    construction: AdversarialKind::RotatingStar,
                },
                Substrate::Adversarial {
                    n: 64,
                    construction: AdversarialKind::RotatingBridge,
                },
            ],
            protocols: vec![Protocol::Flooding, Protocol::DiameterProbe],
            sweep: Sweep::none(),
            trials: 1,
            round_budget: 1_000,
            precision: Precision::FixedTrials,
        };
        let rows = run_scenario(&s, 1).unwrap();
        assert_eq!(rows.len(), 4);
        let get = |substrate: &str, protocol: &str| {
            rows.iter()
                .find(|r| r.substrate == substrate && r.protocol == protocol)
                .unwrap_or_else(|| panic!("missing row {substrate}/{protocol}"))
                .rounds
                .as_ref()
                .unwrap()
                .mean
        };
        // The separation: both diameters are tiny, but the star floods in
        // n − 1 rounds from the worst source while the bridge is constant.
        assert_eq!(get("adv-rotating_star", "diameter"), 2.0);
        assert_eq!(get("adv-rotating_bridge", "diameter"), 3.0);
        assert_eq!(get("adv-rotating_star", "flooding"), 63.0);
        assert!(get("adv-rotating_bridge", "flooding") <= 4.0);
        assert!(rows.iter().all(|r| r.regime == "Deterministic"));
    }

    #[test]
    fn static_substrates_and_probes_execute() {
        let s = Scenario {
            name: "static".into(),
            description: String::new(),
            substrates: vec![
                Substrate::Static {
                    n: 120,
                    graph: StaticKind::ErdosRenyi {
                        p_hat: PHatSpec::LogFactor(4.0),
                    },
                },
                Substrate::Static {
                    n: 100,
                    graph: StaticKind::Grid2d,
                },
            ],
            protocols: vec![
                Protocol::Flooding,
                Protocol::ExpansionProbe {
                    set_size: 500, // clamped to n/2 at resolution
                    samples: 10,
                },
                Protocol::BoundProbe {
                    snapshots: 2,
                    samples: 10,
                },
            ],
            sweep: Sweep::none(),
            trials: 2,
            round_budget: 10_000,
            precision: Precision::FixedTrials,
        };
        let cells = resolve_cells(&s).unwrap();
        assert!(cells
            .iter()
            .filter(|c| matches!(c.protocol, Protocol::ExpansionProbe { .. }))
            .all(|c| c.protocol.label() == "expansion(h=60)"
                || c.protocol.label() == "expansion(h=50)"));
        let rows = run_scenario(&s, 5).unwrap();
        for row in &rows {
            assert_eq!(row.regime, "Static");
            if row.completion_rate > 0.0 {
                let mean = row.rounds.as_ref().unwrap().mean;
                assert!(mean > 0.0, "degenerate observable: {row:?}");
            }
            if row.protocol.starts_with("expansion") {
                let h = row.params.iter().find(|(k, _)| k == "h").unwrap().1;
                assert!(h == 60.0 || h == 50.0);
                assert_eq!(row.mean_messages, 0.0);
            }
        }
        // The flooding and bound-probe rows on G(n, p̂) must both complete,
        // and the measured bound must dominate the measured flooding time.
        let flood = rows
            .iter()
            .find(|r| r.substrate == "static-erdos_renyi" && r.protocol == "flooding")
            .unwrap();
        let bound = rows
            .iter()
            .find(|r| r.substrate == "static-erdos_renyi" && r.protocol == "bound")
            .unwrap();
        assert!(flood.completion_rate > 0.0);
        assert!(bound.completion_rate > 0.0);
        assert!(
            bound.rounds.as_ref().unwrap().mean >= flood.rounds.as_ref().unwrap().mean,
            "Lemma 2.4 bound must dominate measured flooding"
        );
    }

    #[test]
    fn occupancy_probe_measures_geometric_and_is_inert_elsewhere() {
        let s = Scenario {
            name: "occ".into(),
            description: String::new(),
            substrates: vec![
                Substrate::Geometric {
                    n: 300,
                    mobility: MobilityKind::GridWalk,
                    radius: RadiusSpec::ThresholdFactor(1.75),
                    move_radius: MoveRadiusSpec::RadiusFraction(0.5),
                },
                Substrate::Edge {
                    n: 100,
                    engine: EdgeEngine::Sparse,
                    p_hat: PHatSpec::LogFactor(3.0),
                    q: 0.5,
                    init: InitKind::Stationary,
                    stepping: SteppingKind::PerPair,
                },
            ],
            protocols: vec![Protocol::OccupancyProbe],
            sweep: Sweep::none(),
            trials: 2,
            round_budget: 1_000,
            precision: Precision::FixedTrials,
        };
        let rows = run_scenario(&s, 9).unwrap();
        let geo = &rows[0];
        assert!(geo.completion_rate > 0.0, "λ should be measurable: {geo:?}");
        assert!(
            geo.rounds.as_ref().unwrap().min >= 1.0,
            "λ ≥ 1 by definition"
        );
        // On a non-geometric substrate the probe is inert, not an error.
        let edge = &rows[1];
        assert_eq!(edge.completion_rate, 0.0);
        assert!(edge.rounds.is_none());
    }

    #[test]
    fn transitions_stepping_cells_resolve_and_flood() {
        let mut s = tiny_scenario();
        for sub in &mut s.substrates {
            if let Substrate::Edge { stepping, .. } = sub {
                *stepping = SteppingKind::Transitions;
            }
        }
        let cells = resolve_cells(&s).unwrap();
        assert_eq!(cells[0].substrate_label, "edge-sparse-transitions");
        assert!(cells.iter().any(|c| matches!(
            c.substrate,
            ResolvedSubstrate::Edge {
                stepping: meg_core::evolving::Stepping::Transitions,
                ..
            }
        )));
        let rows = run_scenario(&s, 99).unwrap();
        let flood = rows
            .iter()
            .find(|r| r.substrate == "edge-sparse-transitions" && r.protocol == "flooding")
            .unwrap();
        assert!(
            flood.completion_rate > 0.0,
            "transitions stepping should flood above threshold: {flood:?}"
        );
        // Determinism holds under the fast path too.
        assert_eq!(rows, run_scenario(&s, 99).unwrap());
    }

    /// The builtins as their golden fixtures pin them: name of the fixture
    /// and the scenario that produced it (all 33).
    fn golden_cases() -> Vec<(String, Scenario)> {
        use crate::builtin::{builtin, builtin_names};
        let mut cases = Vec::new();
        for name in builtin_names() {
            let base = builtin(name).unwrap().scaled(0.1);
            let mut fixed = base.clone();
            fixed.trials = 2;
            cases.push((format!("{name}.jsonl"), fixed));
            let mut adaptive = base;
            adaptive.precision = Precision::TargetStderr {
                eps: 0.5,
                min_trials: 2,
                max_trials: 4,
            };
            cases.push((format!("{name}.adaptive.jsonl"), adaptive));
        }
        let mut transitions = builtin("edge_vs_n").unwrap().scaled(0.1);
        transitions.trials = 2;
        for sub in &mut transitions.substrates {
            if let Substrate::Edge { stepping, .. } = sub {
                *stepping = SteppingKind::Transitions;
            }
        }
        cases.push(("edge_vs_n.transitions.jsonl".into(), transitions));
        cases
    }

    #[test]
    fn golden_rows_are_byte_identical_at_any_trial_thread_count() {
        let cases = golden_cases();
        assert_eq!(cases.len(), 33);
        for threads in [1, 3, 7] {
            for (fixture, scenario) in &cases {
                let path = format!("{}/tests/golden/{fixture}", env!("CARGO_MANIFEST_DIR"));
                let want = std::fs::read_to_string(&path).unwrap();
                let mut got = String::new();
                run_scenario_on(scenario, 20260730, threads, |row| {
                    got.push_str(&row.to_json().render());
                    got.push('\n');
                })
                .unwrap();
                assert_eq!(got, want, "{fixture} drifted at {threads} trial threads");
            }
        }
    }

    #[test]
    fn rows_release_in_cell_order_when_a_later_cell_finishes_first() {
        use std::sync::{Condvar, Mutex};
        let s = tiny_scenario();
        let cells = resolve_cells(&s).unwrap();
        let jobs = scenario_jobs(&s, &cells, 3, 0..cells.len());
        // Cell 0's trials wait until both of cell 1's trials are done, so
        // cell 1 finishes first on the third thread.
        let cell1_done = (Mutex::new(0usize), Condvar::new());
        let finished = Mutex::new(Vec::new());
        let trial = |cell: &Cell, i: usize, rng: &mut ChaCha8Rng| {
            if cell.index == 0 {
                let (count, cv) = &cell1_done;
                let _ready = cv
                    .wait_while(count.lock().unwrap(), |done| *done < 2)
                    .unwrap();
            }
            let outcome = execute_trial(cell, i, rng);
            finished.lock().unwrap().push(cell.index);
            if cell.index == 1 {
                let (count, cv) = &cell1_done;
                *count.lock().unwrap() += 1;
                cv.notify_all();
            }
            outcome
        };
        let mut seen = Vec::new();
        let Ok(()) = sched::run_rows::<Infallible, _, _>(&s, &jobs, 3, None, trial, |row| {
            seen.push(row);
            Ok(())
        });
        let finished = finished.into_inner().unwrap();
        let last = |c: usize| finished.iter().rposition(|&x| x == c).unwrap();
        assert!(last(1) < last(0), "cell 1 must finish first: {finished:?}");
        assert_eq!(
            seen.iter().map(|r| r.cell).collect::<Vec<_>>(),
            (0..cells.len()).collect::<Vec<_>>()
        );
        assert_eq!(seen, run_scenario(&s, 3).unwrap());
    }

    #[test]
    fn a_panicking_trial_ends_the_run_with_its_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::mpsc;
        use std::time::Duration;
        let fixed = tiny_scenario();
        let mut adaptive = tiny_scenario();
        // eps = 0 never stops, so idle threads wait for follow-up batches
        // when trial 5 (in the third batch) panics.
        adaptive.precision = Precision::TargetStderr {
            eps: 0.0,
            min_trials: 2,
            max_trials: 8,
        };
        for (s, bad_trial) in [(fixed, 1), (adaptive, 5)] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let cells = resolve_cells(&s).unwrap();
                let jobs = scenario_jobs(&s, &cells, 1, 0..cells.len());
                let trial = |cell: &Cell, i: usize, rng: &mut ChaCha8Rng| {
                    if (cell.index, i) == (3, bad_trial) {
                        panic!("trial {i} of cell 3 failed");
                    }
                    execute_trial(cell, i, rng)
                };
                let run = catch_unwind(AssertUnwindSafe(|| {
                    sched::run_rows::<Infallible, _, _>(&s, &jobs, 3, None, trial, |_| Ok(()))
                }));
                let message = run.err().and_then(|p| p.downcast::<String>().ok());
                let _ = tx.send(message.map(|m| *m));
            });
            let message = rx
                .recv_timeout(Duration::from_secs(120))
                .expect("the run hung after a trial panicked");
            assert_eq!(
                message.as_deref(),
                Some(format!("trial {bad_trial} of cell 3 failed").as_str())
            );
        }
    }

    #[test]
    fn a_swept_death_rate_outside_the_unit_interval_is_an_error() {
        let mut s = tiny_scenario();
        s.sweep = Sweep::over(Param::Q, [0.5, 1.5]);
        let err = resolve_cells(&s).unwrap_err();
        assert!(err.0.contains("q=1.5"), "{err}");
        s.sweep = Sweep::over(Param::Q, [0.0]);
        assert!(resolve_cells(&s).unwrap_err().0.contains("q=0"));
    }

    #[test]
    fn transitions_beyond_u32_pairs_is_an_error_naming_the_cell() {
        for kind in [EdgeEngine::Sparse, EdgeEngine::Dense] {
            let mut s = tiny_scenario();
            s.substrates.truncate(1);
            if let Substrate::Edge {
                engine, stepping, ..
            } = &mut s.substrates[0]
            {
                *engine = kind;
                *stepping = SteppingKind::Transitions;
            }
            s.protocols.truncate(1);
            // C(92_682, 2) = 4_294_930_221 fits in u32; C(92_683, 2) does not.
            s.sweep = Sweep::over(Param::N, [92_682.0, 92_683.0]);
            let err = resolve_cells(&s).unwrap_err();
            assert!(
                err.0.contains("cell 1:") && err.0.contains("n=92683"),
                "{kind:?}: {err}"
            );
            s.sweep = Sweep::over(Param::N, [92_682.0]);
            assert_eq!(resolve_cells(&s).unwrap().len(), 1, "{kind:?}");
            // Per-pair stepping has no such limit.
            if let Substrate::Edge { stepping, .. } = &mut s.substrates[0] {
                *stepping = SteppingKind::PerPair;
            }
            s.sweep = Sweep::over(Param::N, [100_000.0]);
            assert_eq!(resolve_cells(&s).unwrap().len(), 1, "{kind:?}");
        }
    }

    #[test]
    fn a_swept_node_count_below_two_is_an_error_not_a_clamp() {
        let mut s = tiny_scenario();
        s.sweep = Sweep::over(Param::N, [1.0]);
        let err = resolve_cells(&s).unwrap_err();
        assert!(err.0.contains("n=1"), "{err}");
        // The adversarial round-up to each construction's minimum stays.
        s.substrates = vec![Substrate::Adversarial {
            n: 64,
            construction: AdversarialKind::RotatingBridge,
        }];
        s.sweep = Sweep::over(Param::N, [3.0]);
        assert_eq!(resolve_cells(&s).unwrap()[0].substrate.params()[0].1, 4.0);
    }

    // `PHatSpec::resolve` clamps p̂ into range for the cell's q, so no
    // scenario reaches the next two errors; they pin the constructor whose
    // error `resolve_cell` reports.
    #[test]
    fn a_stationary_probability_outside_the_open_unit_interval_is_an_error() {
        for p_hat in [0.0, 1.0, 1.5, f64::NAN] {
            let err = EdgeMegParams::try_with_stationary(10, p_hat, 0.5).unwrap_err();
            assert!(err.contains("p_hat"), "{err}");
        }
        assert!(EdgeMegParams::try_with_stationary(10, 0.2, 0.5).is_ok());
    }

    #[test]
    fn an_implied_birth_rate_above_one_is_an_error() {
        // p = q·p̂/(1−p̂) = 0.5·0.9/0.1 = 4.5.
        let err = EdgeMegParams::try_with_stationary(10, 0.9, 0.5).unwrap_err();
        assert!(err.contains("birth rate"), "{err}");
    }

    #[test]
    fn protocol_knob_overrides_apply() {
        let s = Scenario {
            name: "knobs".into(),
            description: String::new(),
            substrates: vec![Substrate::Edge {
                n: 50,
                engine: EdgeEngine::Dense,
                p_hat: PHatSpec::Fixed(0.2),
                q: 0.3,
                init: InitKind::Stationary,
                stepping: SteppingKind::PerPair,
            }],
            protocols: vec![Protocol::Probabilistic { beta: 0.9 }],
            sweep: Sweep::over(Param::Beta, [0.25, 0.75]),
            trials: 1,
            round_budget: 2_000,
            precision: Precision::FixedTrials,
        };
        let cells = resolve_cells(&s).unwrap();
        assert_eq!(
            cells.iter().map(|c| c.protocol.label()).collect::<Vec<_>>(),
            vec!["probabilistic(beta=0.25)", "probabilistic(beta=0.75)"]
        );
    }
}
