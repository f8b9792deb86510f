//! The declarative scenario model: an experiment as **data**.
//!
//! A [`Scenario`] composes
//!
//! * one or more [`Substrate`]s — which MEG family generates the dynamic
//!   graph (edge-MEG dense/sparse with `(p̂, q)` dynamics, or geometric-MEG
//!   with any of the four mobility models);
//! * one or more [`Protocol`]s — which spreading process runs on it;
//! * a [`Sweep`] — a cartesian grid of parameter overrides;
//! * trial and round budgets.
//!
//! The engine (see [`crate::run`]) crosses substrates × protocols × sweep
//! cells into a flat list of *cells*, resolves each cell to concrete
//! parameters, and runs the trials of every cell through one sweep-wide
//! trial queue under a deterministically derived per-cell seed.
//!
//! Derived parameter specs ([`PHatSpec`], [`RadiusSpec`], [`MoveRadiusSpec`])
//! keep scenarios honest at every scale: `{"log_factor": 3.0}` means
//! "p̂ = 3·ln n / n *whatever `n` ends up being*", which is how the paper's
//! sweeps couple parameters to `n`.
//!
//! All types serialize to JSON via [`to_json`](Scenario::to_json) /
//! [`from_json`](Scenario::from_json) (see [`crate::json`] for why the
//! engine carries its own JSON layer) and round-trip exactly — the property
//! tests in `tests/properties.rs` enforce this for random scenarios.

use crate::json::Json;
use meg_core::evolving::InitialDistribution;
use meg_core::spec;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error produced when decoding a scenario from JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScenarioError(pub String);

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScenarioError {}

fn field<'a>(v: &'a Json, key: &str, ctx: &str) -> Result<&'a Json, ScenarioError> {
    v.get(key)
        .ok_or_else(|| ScenarioError(format!("{ctx}: missing field `{key}`")))
}

fn num(v: &Json, key: &str, ctx: &str) -> Result<f64, ScenarioError> {
    field(v, key, ctx)?
        .as_f64()
        .ok_or_else(|| ScenarioError(format!("{ctx}: field `{key}` must be a number")))
}

fn uint(v: &Json, key: &str, ctx: &str) -> Result<usize, ScenarioError> {
    field(v, key, ctx)?.as_usize().ok_or_else(|| {
        ScenarioError(format!(
            "{ctx}: field `{key}` must be a non-negative integer"
        ))
    })
}

fn string(v: &Json, key: &str, ctx: &str) -> Result<String, ScenarioError> {
    Ok(field(v, key, ctx)?
        .as_str()
        .ok_or_else(|| ScenarioError(format!("{ctx}: field `{key}` must be a string")))?
        .to_string())
}

// ---------------------------------------------------------------------------
// Substrates

/// The four mobility models a geometric substrate can use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MobilityKind {
    /// The paper's grid random walk on a reflecting square.
    GridWalk,
    /// Random waypoint on a torus.
    Waypoint,
    /// Random direction with reflection (billiard).
    Billiard,
    /// The walkers model on a toroidal grid.
    Walkers,
}

impl MobilityKind {
    /// All variants, in canonical order.
    pub const ALL: [MobilityKind; 4] = [
        MobilityKind::GridWalk,
        MobilityKind::Waypoint,
        MobilityKind::Billiard,
        MobilityKind::Walkers,
    ];

    /// Stable identifier used in JSON and row labels.
    pub fn id(self) -> &'static str {
        match self {
            MobilityKind::GridWalk => "grid_walk",
            MobilityKind::Waypoint => "waypoint",
            MobilityKind::Billiard => "billiard",
            MobilityKind::Walkers => "walkers",
        }
    }

    fn from_id(s: &str) -> Result<Self, ScenarioError> {
        Self::ALL
            .into_iter()
            .find(|k| k.id() == s)
            .ok_or_else(|| ScenarioError(format!("unknown mobility kind `{s}`")))
    }
}

/// Which edge-MEG evolution engine to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgeEngine {
    /// `O(n²)`-per-step reference engine.
    Dense,
    /// Alive-edge set + geometric skip-sampling; the scalable engine.
    Sparse,
}

impl EdgeEngine {
    fn id(self) -> &'static str {
        match self {
            EdgeEngine::Dense => "dense",
            EdgeEngine::Sparse => "sparse",
        }
    }

    fn from_id(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "dense" => Ok(EdgeEngine::Dense),
            "sparse" => Ok(EdgeEngine::Sparse),
            _ => Err(ScenarioError(format!("unknown edge engine `{s}`"))),
        }
    }
}

/// How the edge chains are initialised at time 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum InitKind {
    /// Stationary start (the paper's setting).
    Stationary,
    /// Empty graph (worst-case cold start).
    Empty,
    /// Complete graph.
    Full,
}

impl InitKind {
    fn id(self) -> &'static str {
        match self {
            InitKind::Stationary => "stationary",
            InitKind::Empty => "empty",
            InitKind::Full => "full",
        }
    }

    fn from_id(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "stationary" => Ok(InitKind::Stationary),
            "empty" => Ok(InitKind::Empty),
            "full" => Ok(InitKind::Full),
            _ => Err(ScenarioError(format!("unknown init kind `{s}`"))),
        }
    }

    /// The `meg-core` initial distribution this selects.
    pub fn to_initial_distribution(self) -> InitialDistribution {
        match self {
            InitKind::Stationary => InitialDistribution::Stationary,
            InitKind::Empty => InitialDistribution::Empty,
            InitKind::Full => InitialDistribution::Full,
        }
    }
}

/// How the per-edge chains are stepped each round (see
/// `meg_core::evolving::Stepping`). Serialized as `"per_pair"` /
/// `"transitions"`; scenarios written before the field existed decode as
/// [`SteppingKind::PerPair`], the reference path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SteppingKind {
    /// One Bernoulli draw per potential pair per round (reference path).
    #[default]
    PerPair,
    /// Geometric skip-sampled flips applied as snapshot deltas (fast path).
    Transitions,
}

impl SteppingKind {
    /// Stable identifier used in JSON and CLI flags.
    pub fn id(self) -> &'static str {
        match self {
            SteppingKind::PerPair => "per_pair",
            SteppingKind::Transitions => "transitions",
        }
    }

    /// Inverse of [`id`](SteppingKind::id).
    pub fn from_id(s: &str) -> Result<Self, ScenarioError> {
        match s {
            "per_pair" => Ok(SteppingKind::PerPair),
            "transitions" => Ok(SteppingKind::Transitions),
            _ => Err(ScenarioError(format!("unknown stepping mode `{s}`"))),
        }
    }

    /// The `meg-core` stepping mode this selects.
    pub fn to_stepping(self) -> meg_core::evolving::Stepping {
        match self {
            SteppingKind::PerPair => meg_core::evolving::Stepping::PerPair,
            SteppingKind::Transitions => meg_core::evolving::Stepping::Transitions,
        }
    }
}

/// The deterministic adversarial constructions of the Introduction
/// (implemented in `meg_core::adversarial`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdversarialKind {
    /// The rotating star: constant snapshot diameter, `Θ(n)` flooding.
    RotatingStar,
    /// Two cliques joined by a rotating bridge: constant diameter *and*
    /// constant flooding (the expansion contrast).
    RotatingBridge,
}

impl AdversarialKind {
    /// All variants, in canonical order.
    pub const ALL: [AdversarialKind; 2] = [
        AdversarialKind::RotatingStar,
        AdversarialKind::RotatingBridge,
    ];

    /// Stable identifier used in JSON and row labels.
    pub fn id(self) -> &'static str {
        match self {
            AdversarialKind::RotatingStar => "rotating_star",
            AdversarialKind::RotatingBridge => "rotating_bridge",
        }
    }

    fn from_id(s: &str) -> Result<Self, ScenarioError> {
        Self::ALL
            .into_iter()
            .find(|k| k.id() == s)
            .ok_or_else(|| ScenarioError(format!("unknown adversarial construction `{s}`")))
    }
}

/// Static baseline graphs (flooding on them is plain BFS); the contrast rows
/// of the general-bound experiment.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum StaticKind {
    /// A static Erdős–Rényi graph `G(n, p̂)` — one frozen stationary
    /// snapshot of the edge-MEG.
    ErdosRenyi {
        /// Edge probability spec (resolved against `n`).
        p_hat: PHatSpec,
    },
    /// A 2-D grid — the canonical weak expander (`n` is rounded to a
    /// square).
    Grid2d,
}

impl StaticKind {
    /// Stable identifier used in JSON and row labels.
    pub fn id(self) -> &'static str {
        match self {
            StaticKind::ErdosRenyi { .. } => "erdos_renyi",
            StaticKind::Grid2d => "grid2d",
        }
    }
}

/// Stationary edge probability: fixed, or coupled to `n`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum PHatSpec {
    /// A literal `p̂` value.
    Fixed(f64),
    /// `p̂ = f · ln n / n` — the paper's sparse-regime coupling.
    LogFactor(f64),
}

impl PHatSpec {
    /// Resolves to a concrete `p̂ ∈ (0, 1)` for `n` nodes, clamped so the
    /// implied birth rate `p = q·p̂/(1−p̂)` stays ≤ 1 for death rate `q`.
    pub fn resolve(self, n: usize, q: f64) -> f64 {
        let raw = match self {
            PHatSpec::Fixed(v) => v,
            PHatSpec::LogFactor(f) => f * (n as f64).ln().max(1.0) / n as f64,
        };
        // p ≤ 1 ⇔ p̂ ≤ 1/(1+q); keep a small margin and a positive floor.
        raw.min(0.999 / (1.0 + q)).max(1e-9)
    }

    fn to_json(self) -> Json {
        match self {
            PHatSpec::Fixed(v) => Json::obj([("fixed", Json::Num(v))]),
            PHatSpec::LogFactor(v) => Json::obj([("log_factor", Json::Num(v))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        if let Some(x) = v.get("fixed").and_then(Json::as_f64) {
            Ok(PHatSpec::Fixed(x))
        } else if let Some(x) = v.get("log_factor").and_then(Json::as_f64) {
            Ok(PHatSpec::LogFactor(x))
        } else {
            Err(ScenarioError(
                "p_hat spec must be {\"fixed\": x} or {\"log_factor\": x}".into(),
            ))
        }
    }
}

/// Transmission radius: fixed, or coupled to the connectivity threshold.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum RadiusSpec {
    /// A literal `R` value.
    Fixed(f64),
    /// `R = f · c√(ln n)` (the Theorem 3.4 threshold at
    /// [`spec::DEFAULT_THRESHOLD_CONSTANT`]), capped at `0.95·√n`.
    ThresholdFactor(f64),
}

impl RadiusSpec {
    /// Resolves to a concrete transmission radius for `n` nodes.
    pub fn resolve(self, n: usize) -> f64 {
        let side = (n as f64).sqrt();
        match self {
            RadiusSpec::Fixed(v) => v,
            RadiusSpec::ThresholdFactor(f) => {
                let threshold =
                    spec::geometric_connectivity_threshold(n, spec::DEFAULT_THRESHOLD_CONSTANT);
                (f * threshold).min(side * 0.95)
            }
        }
        .max(1.01) // the paper requires ε < R; the engine runs at ε = 1
    }

    fn to_json(self) -> Json {
        match self {
            RadiusSpec::Fixed(v) => Json::obj([("fixed", Json::Num(v))]),
            RadiusSpec::ThresholdFactor(v) => Json::obj([("threshold_factor", Json::Num(v))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        if let Some(x) = v.get("fixed").and_then(Json::as_f64) {
            Ok(RadiusSpec::Fixed(x))
        } else if let Some(x) = v.get("threshold_factor").and_then(Json::as_f64) {
            Ok(RadiusSpec::ThresholdFactor(x))
        } else {
            Err(ScenarioError(
                "radius spec must be {\"fixed\": x} or {\"threshold_factor\": x}".into(),
            ))
        }
    }
}

/// Move radius (node speed): fixed, or a fraction of the transmission radius.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MoveRadiusSpec {
    /// A literal `r` value.
    Fixed(f64),
    /// `r = f · R`.
    RadiusFraction(f64),
}

impl MoveRadiusSpec {
    /// Resolves to a concrete move radius given the resolved transmission
    /// radius.
    pub fn resolve(self, radius: f64) -> f64 {
        match self {
            MoveRadiusSpec::Fixed(v) => v,
            MoveRadiusSpec::RadiusFraction(f) => f * radius,
        }
        .max(1e-6)
    }

    fn to_json(self) -> Json {
        match self {
            MoveRadiusSpec::Fixed(v) => Json::obj([("fixed", Json::Num(v))]),
            MoveRadiusSpec::RadiusFraction(v) => Json::obj([("radius_fraction", Json::Num(v))]),
        }
    }

    fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        if let Some(x) = v.get("fixed").and_then(Json::as_f64) {
            Ok(MoveRadiusSpec::Fixed(x))
        } else if let Some(x) = v.get("radius_fraction").and_then(Json::as_f64) {
            Ok(MoveRadiusSpec::RadiusFraction(x))
        } else {
            Err(ScenarioError(
                "move_radius spec must be {\"fixed\": x} or {\"radius_fraction\": x}".into(),
            ))
        }
    }
}

/// A dynamic-graph family plus its parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Substrate {
    /// Edge-MEG `M(n, p, q)` parameterised by the stationary probability `p̂`.
    Edge {
        /// Number of nodes.
        n: usize,
        /// Evolution engine.
        engine: EdgeEngine,
        /// Stationary edge probability spec.
        p_hat: PHatSpec,
        /// Death rate `q`.
        q: f64,
        /// Initial distribution of the chains.
        init: InitKind,
        /// Chain stepping mode (defaults to the per-pair reference path).
        stepping: SteppingKind,
    },
    /// Geometric-MEG: a mobility model plus a transmission radius.
    Geometric {
        /// Number of nodes.
        n: usize,
        /// Mobility model.
        mobility: MobilityKind,
        /// Transmission radius spec.
        radius: RadiusSpec,
        /// Move radius spec.
        move_radius: MoveRadiusSpec,
    },
    /// A deterministic adversarial construction (diameter ≠ flooding
    /// separation witnesses).
    Adversarial {
        /// Number of nodes (rounded up to the construction's minimum; the
        /// rotating bridge also needs an even count).
        n: usize,
        /// Which construction.
        construction: AdversarialKind,
    },
    /// A static baseline graph, frozen over time (flooding = BFS).
    Static {
        /// Number of nodes (rounded to a square for [`StaticKind::Grid2d`]).
        n: usize,
        /// Which graph family.
        graph: StaticKind,
    },
}

impl Substrate {
    /// Short label for tables and rows, e.g. `edge-sparse` or
    /// `geo-grid_walk`.
    pub fn label(&self) -> String {
        match self {
            // The stepping mode is surfaced only when it deviates from the
            // default, so pre-existing row labels stay byte-identical.
            Substrate::Edge {
                engine,
                stepping: SteppingKind::Transitions,
                ..
            } => format!("edge-{}-transitions", engine.id()),
            Substrate::Edge { engine, .. } => format!("edge-{}", engine.id()),
            Substrate::Geometric { mobility, .. } => format!("geo-{}", mobility.id()),
            Substrate::Adversarial { construction, .. } => format!("adv-{}", construction.id()),
            Substrate::Static { graph, .. } => format!("static-{}", graph.id()),
        }
    }

    /// Number of nodes before sweep overrides.
    pub fn n(&self) -> usize {
        match self {
            Substrate::Edge { n, .. }
            | Substrate::Geometric { n, .. }
            | Substrate::Adversarial { n, .. }
            | Substrate::Static { n, .. } => *n,
        }
    }

    fn scale_n(&mut self, factor: f64) {
        let scale = |n: usize| ((n as f64) * factor).round().max(4.0) as usize;
        match self {
            Substrate::Edge { n, .. }
            | Substrate::Geometric { n, .. }
            | Substrate::Adversarial { n, .. }
            | Substrate::Static { n, .. } => *n = scale(*n),
        }
    }

    /// Serializes to a JSON object tagged with `"family"`.
    pub fn to_json(&self) -> Json {
        match self {
            Substrate::Edge {
                n,
                engine,
                p_hat,
                q,
                init,
                stepping,
            } => {
                let mut pairs = vec![
                    ("family", Json::Str("edge".into())),
                    ("n", Json::Num(*n as f64)),
                    ("engine", Json::Str(engine.id().into())),
                    ("p_hat", p_hat.to_json()),
                    ("q", Json::Num(*q)),
                    ("init", Json::Str(init.id().into())),
                ];
                // Emitted only when non-default, so scenario files written
                // before the field existed re-render byte-identically.
                if *stepping != SteppingKind::PerPair {
                    pairs.push(("stepping", Json::Str(stepping.id().into())));
                }
                Json::obj(pairs)
            }
            Substrate::Geometric {
                n,
                mobility,
                radius,
                move_radius,
            } => Json::obj([
                ("family", Json::Str("geometric".into())),
                ("n", Json::Num(*n as f64)),
                ("mobility", Json::Str(mobility.id().into())),
                ("radius", radius.to_json()),
                ("move_radius", move_radius.to_json()),
            ]),
            Substrate::Adversarial { n, construction } => Json::obj([
                ("family", Json::Str("adversarial".into())),
                ("n", Json::Num(*n as f64)),
                ("construction", Json::Str(construction.id().into())),
            ]),
            Substrate::Static { n, graph } => {
                let mut pairs = vec![
                    ("family", Json::Str("static".into())),
                    ("n", Json::Num(*n as f64)),
                    ("graph", Json::Str(graph.id().into())),
                ];
                if let StaticKind::ErdosRenyi { p_hat } = graph {
                    pairs.push(("p_hat", p_hat.to_json()));
                }
                Json::obj(pairs)
            }
        }
    }

    /// Decodes from the [`to_json`](Substrate::to_json) representation.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "substrate";
        match string(v, "family", ctx)?.as_str() {
            "edge" => Ok(Substrate::Edge {
                n: uint(v, "n", ctx)?,
                engine: EdgeEngine::from_id(&string(v, "engine", ctx)?)?,
                p_hat: PHatSpec::from_json(field(v, "p_hat", ctx)?)?,
                q: num(v, "q", ctx)?,
                init: InitKind::from_id(&string(v, "init", ctx)?)?,
                // Absent in scenarios written before PR 6: per-pair default.
                stepping: match v.get("stepping") {
                    Some(_) => SteppingKind::from_id(&string(v, "stepping", ctx)?)?,
                    None => SteppingKind::PerPair,
                },
            }),
            "geometric" => Ok(Substrate::Geometric {
                n: uint(v, "n", ctx)?,
                mobility: MobilityKind::from_id(&string(v, "mobility", ctx)?)?,
                radius: RadiusSpec::from_json(field(v, "radius", ctx)?)?,
                move_radius: MoveRadiusSpec::from_json(field(v, "move_radius", ctx)?)?,
            }),
            "adversarial" => Ok(Substrate::Adversarial {
                n: uint(v, "n", ctx)?,
                construction: AdversarialKind::from_id(&string(v, "construction", ctx)?)?,
            }),
            "static" => Ok(Substrate::Static {
                n: uint(v, "n", ctx)?,
                graph: match string(v, "graph", ctx)?.as_str() {
                    "erdos_renyi" => StaticKind::ErdosRenyi {
                        p_hat: PHatSpec::from_json(field(v, "p_hat", ctx)?)?,
                    },
                    "grid2d" => StaticKind::Grid2d,
                    other => return Err(ScenarioError(format!("unknown static graph `{other}`"))),
                },
            }),
            other => Err(ScenarioError(format!("unknown substrate family `{other}`"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Protocols

/// A spreading protocol (all implemented in `meg-core::protocols`).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Protocol {
    /// Plain flooding — the paper's baseline.
    Flooding,
    /// Probabilistic flooding: forward with probability `beta` per round.
    Probabilistic {
        /// Forwarding probability `β ∈ [0, 1]`.
        beta: f64,
    },
    /// Parsimonious flooding: forward for `active_rounds` rounds only.
    Parsimonious {
        /// Number of active rounds `k ≥ 1`.
        active_rounds: u64,
    },
    /// Classic randomized push–pull gossip.
    PushPull,
    /// SIS/SIRS epidemic: contagion per exposure, a fixed infection
    /// duration, and a re-susceptibility window (`immunity_rounds = 0` is
    /// classic SIS). Completion is *extinction* — no infectious nodes left —
    /// and endemic cells are censored at the round budget
    /// (`completion_rate` < 1 marks censored trials).
    Sis {
        /// Infection probability per exposure, `∈ [0, 1]`
        /// (sweepable via [`Param::Contagion`]).
        contagion: f64,
        /// Rounds a node stays infectious, `≥ 1`
        /// (sweepable via [`Param::InfectionRounds`]).
        infection_rounds: u64,
        /// Rounds of immunity after recovery before becoming susceptible
        /// again; `0` = immediately susceptible (classic SIS). Sweepable
        /// via [`Param::ImmunityRounds`].
        immunity_rounds: u64,
    },
    /// SIR epidemic: like [`Protocol::Sis`] but recovery is permanent, so
    /// the epidemic always goes extinct; the interesting observable is the
    /// final size (`mean_messages` carries exposures, extinction time is
    /// the round count).
    Sir {
        /// Infection probability per exposure, `∈ [0, 1]`.
        contagion: f64,
        /// Rounds a node stays infectious, `≥ 1`.
        infection_rounds: u64,
    },
    /// Push-only rumor spreading (arXiv:1302.3828): each informed node
    /// pushes to one uniformly random current neighbor per round. The
    /// protocol whose sparse regime shows dynamism *helps* spreading.
    Rumor,
    /// Push–pull gossip with `count` Byzantine nodes spreading a tampered
    /// message; the trial observable is the *correct*-information coverage
    /// fraction, not a round count.
    Byzantine {
        /// Number of Byzantine (tampering) nodes, clamped to `n - 1` at
        /// run time (sweepable via [`Param::ByzantineCount`]).
        count: u64,
    },
    /// Measurement probe: minimum sampled node-expansion ratio at one set
    /// size `h` (sweepable via [`Param::SetSize`]; clamped to `n/2` at
    /// resolution). The trial observable is the ratio, not a round count.
    ExpansionProbe {
        /// Set size `h` to probe.
        set_size: u64,
        /// Candidate sets sampled per snapshot.
        samples: u64,
    },
    /// Measurement probe: exact diameter of one snapshot.
    DiameterProbe,
    /// Measurement probe: the data-driven Lemma 2.4 / Theorem 2.5 flooding
    /// bound evaluated on a measured expansion sequence.
    BoundProbe {
        /// Snapshots inspected per trial.
        snapshots: u64,
        /// Candidate sets sampled per set size per snapshot.
        samples: u64,
    },
    /// Measurement probe (geometric substrates only): the Claim 1 cell
    /// occupancy concentration `λ` of one stationary snapshot. Inert (never
    /// completes) on other substrate families.
    OccupancyProbe,
}

impl Protocol {
    /// Human-readable label, e.g. `probabilistic(beta=0.3)`.
    pub fn label(&self) -> String {
        match self {
            Protocol::Flooding => "flooding".into(),
            Protocol::Probabilistic { beta } => format!("probabilistic(beta={beta})"),
            Protocol::Parsimonious { active_rounds } => format!("parsimonious(k={active_rounds})"),
            Protocol::PushPull => "push_pull".into(),
            Protocol::Sis {
                contagion,
                infection_rounds,
                immunity_rounds,
            } => format!("sis(c={contagion},d={infection_rounds},w={immunity_rounds})"),
            Protocol::Sir {
                contagion,
                infection_rounds,
            } => format!("sir(c={contagion},d={infection_rounds})"),
            Protocol::Rumor => "rumor".into(),
            Protocol::Byzantine { count } => format!("byzantine(b={count})"),
            Protocol::ExpansionProbe { set_size, .. } => format!("expansion(h={set_size})"),
            Protocol::DiameterProbe => "diameter".into(),
            Protocol::BoundProbe { .. } => "bound".into(),
            Protocol::OccupancyProbe => "occupancy".into(),
        }
    }

    /// `true` for the measurement probes, whose trial observable is a
    /// measured quantity instead of a completion round count.
    pub fn is_probe(&self) -> bool {
        matches!(
            self,
            Protocol::ExpansionProbe { .. }
                | Protocol::DiameterProbe
                | Protocol::BoundProbe { .. }
                | Protocol::OccupancyProbe
        )
    }

    /// Serializes: unit variants as strings, parameterised ones as objects.
    pub fn to_json(&self) -> Json {
        match self {
            Protocol::Flooding => Json::Str("flooding".into()),
            Protocol::PushPull => Json::Str("push_pull".into()),
            Protocol::Rumor => Json::Str("rumor".into()),
            Protocol::DiameterProbe => Json::Str("diameter_probe".into()),
            Protocol::OccupancyProbe => Json::Str("occupancy_probe".into()),
            Protocol::Sis {
                contagion,
                infection_rounds,
                immunity_rounds,
            } => Json::obj([(
                "sis",
                Json::obj([
                    ("contagion", Json::Num(*contagion)),
                    ("infection_rounds", Json::Num(*infection_rounds as f64)),
                    ("immunity_rounds", Json::Num(*immunity_rounds as f64)),
                ]),
            )]),
            Protocol::Sir {
                contagion,
                infection_rounds,
            } => Json::obj([(
                "sir",
                Json::obj([
                    ("contagion", Json::Num(*contagion)),
                    ("infection_rounds", Json::Num(*infection_rounds as f64)),
                ]),
            )]),
            Protocol::Byzantine { count } => Json::obj([(
                "byzantine",
                Json::obj([("count", Json::Num(*count as f64))]),
            )]),
            Protocol::Probabilistic { beta } => {
                Json::obj([("probabilistic", Json::obj([("beta", Json::Num(*beta))]))])
            }
            Protocol::Parsimonious { active_rounds } => Json::obj([(
                "parsimonious",
                Json::obj([("active_rounds", Json::Num(*active_rounds as f64))]),
            )]),
            Protocol::ExpansionProbe { set_size, samples } => Json::obj([(
                "expansion_probe",
                Json::obj([
                    ("set_size", Json::Num(*set_size as f64)),
                    ("samples", Json::Num(*samples as f64)),
                ]),
            )]),
            Protocol::BoundProbe { snapshots, samples } => Json::obj([(
                "bound_probe",
                Json::obj([
                    ("snapshots", Json::Num(*snapshots as f64)),
                    ("samples", Json::Num(*samples as f64)),
                ]),
            )]),
        }
    }

    /// Decodes from the [`to_json`](Protocol::to_json) representation.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        if let Some(s) = v.as_str() {
            return match s {
                "flooding" => Ok(Protocol::Flooding),
                "push_pull" => Ok(Protocol::PushPull),
                "rumor" => Ok(Protocol::Rumor),
                "diameter_probe" => Ok(Protocol::DiameterProbe),
                "occupancy_probe" => Ok(Protocol::OccupancyProbe),
                other => Err(ScenarioError(format!("unknown protocol `{other}`"))),
            };
        }
        if let Some(p) = v.get("probabilistic") {
            return Ok(Protocol::Probabilistic {
                beta: num(p, "beta", "probabilistic protocol")?,
            });
        }
        if let Some(p) = v.get("parsimonious") {
            return Ok(Protocol::Parsimonious {
                active_rounds: uint(p, "active_rounds", "parsimonious protocol")? as u64,
            });
        }
        if let Some(p) = v.get("sis") {
            return Ok(Protocol::Sis {
                contagion: num(p, "contagion", "sis protocol")?,
                infection_rounds: uint(p, "infection_rounds", "sis protocol")? as u64,
                immunity_rounds: uint(p, "immunity_rounds", "sis protocol")? as u64,
            });
        }
        if let Some(p) = v.get("sir") {
            return Ok(Protocol::Sir {
                contagion: num(p, "contagion", "sir protocol")?,
                infection_rounds: uint(p, "infection_rounds", "sir protocol")? as u64,
            });
        }
        if let Some(p) = v.get("byzantine") {
            return Ok(Protocol::Byzantine {
                count: uint(p, "count", "byzantine protocol")? as u64,
            });
        }
        if let Some(p) = v.get("expansion_probe") {
            return Ok(Protocol::ExpansionProbe {
                set_size: uint(p, "set_size", "expansion probe")? as u64,
                samples: uint(p, "samples", "expansion probe")? as u64,
            });
        }
        if let Some(p) = v.get("bound_probe") {
            return Ok(Protocol::BoundProbe {
                snapshots: uint(p, "snapshots", "bound probe")? as u64,
                samples: uint(p, "samples", "bound probe")? as u64,
            });
        }
        Err(ScenarioError(format!("unrecognised protocol: {v}")))
    }
}

// ---------------------------------------------------------------------------
// Sweep

/// A parameter a sweep axis can override.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Param {
    /// Node count `n` (values are rounded).
    N,
    /// Edge-MEG death rate `q`.
    Q,
    /// Fixed stationary edge probability `p̂`.
    PHat,
    /// `p̂ = f·ln n/n` log factor.
    PHatFactor,
    /// Fixed transmission radius `R`.
    Radius,
    /// `R` as a multiple of the connectivity threshold.
    RadiusFactor,
    /// Fixed move radius `r`.
    MoveRadius,
    /// `r` as a fraction of `R`.
    MoveRadiusFraction,
    /// Probabilistic-flooding forwarding probability (fanout control).
    Beta,
    /// Parsimonious-flooding active-round budget (values are rounded).
    ActiveRounds,
    /// Trials per cell (values are rounded).
    Trials,
    /// Expansion-probe set size `h` (values are rounded).
    SetSize,
    /// Epidemic contagion probability (SIS/SIR; clamped to `[0, 1]`).
    Contagion,
    /// Epidemic infection duration in rounds (SIS/SIR; rounded, min 1).
    InfectionRounds,
    /// SIS re-susceptibility window in rounds (rounded; 0 = classic SIS).
    ImmunityRounds,
    /// Number of Byzantine nodes (rounded).
    ByzantineCount,
}

impl Param {
    /// All variants, in canonical order.
    pub const ALL: [Param; 16] = [
        Param::N,
        Param::Q,
        Param::PHat,
        Param::PHatFactor,
        Param::Radius,
        Param::RadiusFactor,
        Param::MoveRadius,
        Param::MoveRadiusFraction,
        Param::Beta,
        Param::ActiveRounds,
        Param::Trials,
        Param::SetSize,
        Param::Contagion,
        Param::InfectionRounds,
        Param::ImmunityRounds,
        Param::ByzantineCount,
    ];

    /// Stable identifier used in JSON and row labels.
    pub fn id(self) -> &'static str {
        match self {
            Param::N => "n",
            Param::Q => "q",
            Param::PHat => "p_hat",
            Param::PHatFactor => "p_hat_factor",
            Param::Radius => "radius",
            Param::RadiusFactor => "radius_factor",
            Param::MoveRadius => "move_radius",
            Param::MoveRadiusFraction => "move_radius_fraction",
            Param::Beta => "beta",
            Param::ActiveRounds => "active_rounds",
            Param::Trials => "trials",
            Param::SetSize => "set_size",
            Param::Contagion => "contagion",
            Param::InfectionRounds => "infection_rounds",
            Param::ImmunityRounds => "immunity_rounds",
            Param::ByzantineCount => "byzantine_count",
        }
    }

    fn from_id(s: &str) -> Result<Self, ScenarioError> {
        Self::ALL
            .into_iter()
            .find(|p| p.id() == s)
            .ok_or_else(|| ScenarioError(format!("unknown sweep param `{s}`")))
    }
}

/// One sweep axis: a parameter and the values it takes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Axis {
    /// The overridden parameter.
    pub param: Param,
    /// The values the parameter takes (cartesian with the other axes).
    pub values: Vec<f64>,
}

impl Axis {
    /// Serializes to `{"param": ..., "values": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("param", Json::Str(self.param.id().into())),
            (
                "values",
                Json::Arr(self.values.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ])
    }

    /// Decodes from the [`to_json`](Axis::to_json) representation.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let param = Param::from_id(&string(v, "param", "axis")?)?;
        let values = field(v, "values", "axis")?
            .as_arr()
            .ok_or_else(|| ScenarioError("axis `values` must be an array".into()))?
            .iter()
            .map(|x| {
                x.as_f64()
                    .ok_or_else(|| ScenarioError("axis values must be numbers".into()))
            })
            .collect::<Result<Vec<f64>, _>>()?;
        Ok(Axis { param, values })
    }
}

/// A cartesian grid of parameter overrides.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Sweep {
    /// The grid axes; an empty list means a single cell with no overrides.
    pub axes: Vec<Axis>,
}

impl Sweep {
    /// The empty sweep (one cell, no overrides).
    pub fn none() -> Sweep {
        Sweep { axes: Vec::new() }
    }

    /// A single-axis sweep.
    pub fn over(param: Param, values: impl Into<Vec<f64>>) -> Sweep {
        Sweep {
            axes: vec![Axis {
                param,
                values: values.into(),
            }],
        }
    }

    /// Adds another axis (builder style).
    pub fn and(mut self, param: Param, values: impl Into<Vec<f64>>) -> Sweep {
        self.axes.push(Axis {
            param,
            values: values.into(),
        });
        self
    }

    /// Number of grid cells (product of axis lengths; 1 for no axes).
    pub fn num_cells(&self) -> usize {
        self.axes.iter().map(|a| a.values.len().max(1)).product()
    }

    /// The override assignment of grid cell `index` (row-major over the axes,
    /// first axis slowest).
    pub fn cell(&self, index: usize) -> Vec<(Param, f64)> {
        let mut out = Vec::with_capacity(self.axes.len());
        let mut rem = index;
        let mut stride = self.num_cells();
        for axis in &self.axes {
            let len = axis.values.len().max(1);
            stride /= len;
            let i = rem / stride;
            rem %= stride;
            if !axis.values.is_empty() {
                out.push((axis.param, axis.values[i]));
            }
        }
        out
    }

    /// Serializes to `{"axes": [...]}`.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "axes",
            Json::Arr(self.axes.iter().map(Axis::to_json).collect()),
        )])
    }

    /// Decodes from the [`to_json`](Sweep::to_json) representation.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let axes = field(v, "axes", "sweep")?
            .as_arr()
            .ok_or_else(|| ScenarioError("sweep `axes` must be an array".into()))?
            .iter()
            .map(Axis::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Sweep { axes })
    }
}

// ---------------------------------------------------------------------------
// Precision

/// Per-cell sample-size policy: how many Monte-Carlo trials a cell runs.
///
/// Under [`Precision::TargetStderr`], execution grows a cell's trial set
/// through the deterministic checkpoint schedule
/// [`meg_stats::precision_checkpoints`] (`min_trials`, doubling, capped at
/// `max_trials`) and stops at the first checkpoint whose completed-trial
/// observable has standard error ≤ `eps`. `eps = 0` can never be satisfied
/// and therefore means "spend the whole `max_trials` budget" — which is why
/// an `eps = 0` adaptive run is byte-identical to a fixed run of
/// `max_trials` trials. Trial `i`'s randomness depends only on the cell seed
/// and `i`, never on the batching, so fixed and adaptive runs agree on every
/// shared trial.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Precision {
    /// Run exactly the scenario's (possibly swept) `trials` per cell.
    FixedTrials,
    /// Run `min_trials`, then keep doubling toward `max_trials` until the
    /// standard error of the cell's observable drops to `eps`.
    TargetStderr {
        /// Target standard error of the mean (0 = always exhaust the budget).
        eps: f64,
        /// Trials dispatched before the first precision check.
        min_trials: usize,
        /// Hard per-cell trial budget.
        max_trials: usize,
    },
}

impl Precision {
    /// The most trials a cell whose fixed trial count is `trials` may run:
    /// `trials` itself, or the adaptive `max_trials`.
    pub fn trial_budget(&self, trials: usize) -> usize {
        match *self {
            Precision::FixedTrials => trials,
            Precision::TargetStderr { max_trials, .. } => max_trials,
        }
    }

    /// Serializes: `"fixed_trials"` or `{"target_stderr": {…}}`.
    pub fn to_json(&self) -> Json {
        match self {
            Precision::FixedTrials => Json::Str("fixed_trials".into()),
            Precision::TargetStderr {
                eps,
                min_trials,
                max_trials,
            } => Json::obj([(
                "target_stderr",
                Json::obj([
                    ("eps", Json::Num(*eps)),
                    ("min_trials", Json::Num(*min_trials as f64)),
                    ("max_trials", Json::Num(*max_trials as f64)),
                ]),
            )]),
        }
    }

    /// Decodes from the [`to_json`](Precision::to_json) representation.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        if let Some(s) = v.as_str() {
            return match s {
                "fixed_trials" => Ok(Precision::FixedTrials),
                other => Err(ScenarioError(format!("unknown precision policy `{other}`"))),
            };
        }
        if let Some(p) = v.get("target_stderr") {
            return Ok(Precision::TargetStderr {
                eps: num(p, "eps", "target_stderr precision")?,
                min_trials: uint(p, "min_trials", "target_stderr precision")?,
                max_trials: uint(p, "max_trials", "target_stderr precision")?,
            });
        }
        Err(ScenarioError(format!("unrecognised precision policy: {v}")))
    }
}

// ---------------------------------------------------------------------------
// Scenario

/// A complete experiment definition: substrates × protocols × sweep grid,
/// plus trial and round budgets.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Scenario name; also salts the per-cell seed derivation.
    pub name: String,
    /// One-line description (shown by `meg-lab list`).
    pub description: String,
    /// The dynamic-graph families to run on.
    pub substrates: Vec<Substrate>,
    /// The spreading protocols to run.
    pub protocols: Vec<Protocol>,
    /// The parameter grid.
    pub sweep: Sweep,
    /// Monte-Carlo trials per cell (sweepable via [`Param::Trials`];
    /// ignored under [`Precision::TargetStderr`]).
    pub trials: usize,
    /// Maximum rounds per trial.
    pub round_budget: u64,
    /// Per-cell sample-size policy.
    pub precision: Precision,
}

impl Scenario {
    /// Total number of cells: substrates × protocols × sweep cells.
    pub fn num_cells(&self) -> usize {
        self.substrates.len() * self.protocols.len() * self.sweep.num_cells()
    }

    /// Returns a copy with every substrate's `n` (and any [`Param::N`] axis
    /// values) multiplied by `factor` (minimum 4 nodes), so one scenario
    /// serves both quick smoke runs and long server runs.
    pub fn scaled(&self, factor: f64) -> Scenario {
        let mut out = self.clone();
        if (factor - 1.0).abs() < 1e-12 {
            return out;
        }
        for s in &mut out.substrates {
            s.scale_n(factor);
        }
        for axis in &mut out.sweep.axes {
            if axis.param == Param::N {
                for v in &mut axis.values {
                    *v = (*v * factor).round().max(4.0);
                }
            }
        }
        out
    }

    /// Checks the scenario is runnable; returns the first problem found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let err = |m: String| Err(ScenarioError(m));
        if self.name.is_empty() {
            return err("scenario name must be non-empty".into());
        }
        if self.substrates.is_empty() {
            return err("scenario needs at least one substrate".into());
        }
        if self.protocols.is_empty() {
            return err("scenario needs at least one protocol".into());
        }
        if self.trials == 0 {
            return err("trials must be ≥ 1".into());
        }
        if self.round_budget == 0 {
            return err("round_budget must be ≥ 1".into());
        }
        if let Precision::TargetStderr {
            eps,
            min_trials,
            max_trials,
        } = self.precision
        {
            if !(eps >= 0.0 && eps.is_finite()) {
                return err(format!(
                    "target_stderr eps={eps} must be a finite number ≥ 0"
                ));
            }
            if min_trials == 0 {
                return err("target_stderr min_trials must be ≥ 1".into());
            }
            if max_trials < min_trials {
                return err(format!(
                    "target_stderr max_trials={max_trials} below min_trials={min_trials}"
                ));
            }
        }
        for s in &self.substrates {
            match s {
                Substrate::Edge { n, q, .. } => {
                    if *n < 2 {
                        return err("edge substrate needs n ≥ 2".into());
                    }
                    if !(*q > 0.0 && *q <= 1.0) {
                        return err(format!("edge substrate death rate q={q} outside (0, 1]"));
                    }
                }
                Substrate::Geometric { n, .. }
                | Substrate::Adversarial { n, .. }
                | Substrate::Static { n, .. } => {
                    if *n < 2 {
                        return err(format!("substrate `{}` needs n ≥ 2", s.label()));
                    }
                }
            }
        }
        for p in &self.protocols {
            match p {
                Protocol::Probabilistic { beta } if !(0.0..=1.0).contains(beta) => {
                    return err(format!("beta={beta} outside [0, 1]"));
                }
                Protocol::Parsimonious { active_rounds } if *active_rounds == 0 => {
                    return err("parsimonious active_rounds must be ≥ 1".into());
                }
                Protocol::Sis { contagion, .. } | Protocol::Sir { contagion, .. }
                    if !(0.0..=1.0).contains(contagion) =>
                {
                    return err(format!("contagion={contagion} outside [0, 1]"));
                }
                Protocol::Sis {
                    infection_rounds, ..
                }
                | Protocol::Sir {
                    infection_rounds, ..
                } if *infection_rounds == 0 => {
                    return err("epidemic infection_rounds must be ≥ 1".into());
                }
                Protocol::ExpansionProbe { set_size, samples }
                    if *set_size == 0 || *samples == 0 =>
                {
                    return err("expansion probe needs set_size ≥ 1 and samples ≥ 1".into());
                }
                Protocol::BoundProbe { snapshots, samples } if *snapshots == 0 || *samples == 0 => {
                    return err("bound probe needs snapshots ≥ 1 and samples ≥ 1".into());
                }
                _ => {}
            }
        }
        for axis in &self.sweep.axes {
            if axis.values.is_empty() {
                return err(format!("sweep axis `{}` has no values", axis.param.id()));
            }
            if axis.param == Param::N {
                // Below 1.5 (or NaN) rounds to a node count below 2.
                if let Some(v) = axis.values.iter().find(|&&v| v.is_nan() || v < 1.5) {
                    return err(format!("swept n={v} is below 2"));
                }
            }
        }
        Ok(())
    }

    /// Serializes the scenario to a JSON value.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.clone())),
            ("description", Json::Str(self.description.clone())),
            (
                "substrates",
                Json::Arr(self.substrates.iter().map(Substrate::to_json).collect()),
            ),
            (
                "protocols",
                Json::Arr(self.protocols.iter().map(Protocol::to_json).collect()),
            ),
            ("sweep", self.sweep.to_json()),
            ("trials", Json::Num(self.trials as f64)),
            ("round_budget", Json::Num(self.round_budget as f64)),
            ("precision", self.precision.to_json()),
        ])
    }

    /// Decodes a scenario from its [`to_json`](Scenario::to_json)
    /// representation.
    pub fn from_json(v: &Json) -> Result<Self, ScenarioError> {
        let ctx = "scenario";
        let substrates = field(v, "substrates", ctx)?
            .as_arr()
            .ok_or_else(|| ScenarioError("`substrates` must be an array".into()))?
            .iter()
            .map(Substrate::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let protocols = field(v, "protocols", ctx)?
            .as_arr()
            .ok_or_else(|| ScenarioError("`protocols` must be an array".into()))?
            .iter()
            .map(Protocol::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Scenario {
            name: string(v, "name", ctx)?,
            description: string(v, "description", ctx)?,
            substrates,
            protocols,
            sweep: Sweep::from_json(field(v, "sweep", ctx)?)?,
            trials: uint(v, "trials", ctx)?,
            round_budget: uint(v, "round_budget", ctx)? as u64,
            // Absent in pre-adaptive scenario files: default to fixed trials.
            precision: match v.get("precision") {
                Some(p) => Precision::from_json(p)?,
                None => Precision::FixedTrials,
            },
        })
    }

    /// Parses a scenario from JSON text.
    pub fn parse(text: &str) -> Result<Self, ScenarioError> {
        let json = Json::parse(text).map_err(|e| ScenarioError(format!("invalid JSON: {e}")))?;
        Scenario::from_json(&json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Scenario {
        Scenario {
            name: "demo".into(),
            description: "round-trip demo".into(),
            substrates: vec![
                Substrate::Edge {
                    n: 500,
                    engine: EdgeEngine::Sparse,
                    p_hat: PHatSpec::LogFactor(3.0),
                    q: 0.5,
                    init: InitKind::Stationary,
                    stepping: SteppingKind::PerPair,
                },
                Substrate::Geometric {
                    n: 400,
                    mobility: MobilityKind::Waypoint,
                    radius: RadiusSpec::ThresholdFactor(1.5),
                    move_radius: MoveRadiusSpec::RadiusFraction(0.5),
                },
            ],
            protocols: vec![
                Protocol::Flooding,
                Protocol::Probabilistic { beta: 0.3 },
                Protocol::Parsimonious { active_rounds: 4 },
                Protocol::PushPull,
            ],
            sweep: Sweep::over(Param::N, [100.0, 200.0]).and(Param::Q, [0.5, 0.02, 0.9]),
            trials: 3,
            round_budget: 10_000,
            precision: Precision::FixedTrials,
        }
    }

    #[test]
    fn json_round_trip_preserves_equality() {
        let s = demo();
        let text = s.to_json().render();
        let back = Scenario::parse(&text).unwrap();
        assert_eq!(back, s);
        // pretty form too
        let back2 = Scenario::parse(&s.to_json().render_pretty()).unwrap();
        assert_eq!(back2, s);
    }

    #[test]
    fn precision_round_trips_and_defaults_to_fixed() {
        let mut s = demo();
        s.precision = Precision::TargetStderr {
            eps: 0.25,
            min_trials: 4,
            max_trials: 64,
        };
        let back = Scenario::parse(&s.to_json().render()).unwrap();
        assert_eq!(back, s);
        // Pre-adaptive scenario files carry no `precision` field: decoding
        // must default to fixed trials rather than reject them.
        let mut json = demo().to_json();
        if let Json::Obj(pairs) = &mut json {
            pairs.retain(|(k, _)| k != "precision");
        }
        let legacy = Scenario::from_json(&json).unwrap();
        assert_eq!(legacy.precision, Precision::FixedTrials);
        // Validation catches nonsense policies.
        let mut s = demo();
        s.precision = Precision::TargetStderr {
            eps: -1.0,
            min_trials: 4,
            max_trials: 8,
        };
        assert!(s.validate().is_err());
        let mut s = demo();
        s.precision = Precision::TargetStderr {
            eps: 0.1,
            min_trials: 9,
            max_trials: 8,
        };
        assert!(s.validate().is_err());
        let mut s = demo();
        s.precision = Precision::TargetStderr {
            eps: 0.1,
            min_trials: 0,
            max_trials: 8,
        };
        assert!(s.validate().is_err());
    }

    #[test]
    fn new_substrates_and_probes_round_trip() {
        let mut s = demo();
        s.substrates = vec![
            Substrate::Adversarial {
                n: 64,
                construction: AdversarialKind::RotatingStar,
            },
            Substrate::Adversarial {
                n: 64,
                construction: AdversarialKind::RotatingBridge,
            },
            Substrate::Static {
                n: 100,
                graph: StaticKind::ErdosRenyi {
                    p_hat: PHatSpec::LogFactor(4.0),
                },
            },
            Substrate::Static {
                n: 100,
                graph: StaticKind::Grid2d,
            },
        ];
        s.protocols = vec![
            Protocol::ExpansionProbe {
                set_size: 16,
                samples: 10,
            },
            Protocol::DiameterProbe,
            Protocol::BoundProbe {
                snapshots: 3,
                samples: 12,
            },
            Protocol::OccupancyProbe,
        ];
        s.sweep = Sweep::over(Param::SetSize, [1.0, 4.0, 16.0]);
        let back = Scenario::parse(&s.to_json().render()).unwrap();
        assert_eq!(back, s);
        assert_eq!(s.substrates[0].label(), "adv-rotating_star");
        assert_eq!(s.substrates[2].label(), "static-erdos_renyi");
        assert_eq!(s.protocols[0].label(), "expansion(h=16)");
        assert!(s.protocols.iter().all(Protocol::is_probe));
        assert!(!Protocol::Flooding.is_probe());
        // Probe parameter validation.
        let mut bad = s.clone();
        bad.protocols = vec![Protocol::ExpansionProbe {
            set_size: 0,
            samples: 10,
        }];
        assert!(bad.validate().is_err());
    }

    #[test]
    fn cell_enumeration_is_a_cartesian_grid() {
        let s = demo();
        assert_eq!(s.sweep.num_cells(), 6);
        assert_eq!(s.num_cells(), 2 * 4 * 6);
        // first axis slowest
        assert_eq!(s.sweep.cell(0), vec![(Param::N, 100.0), (Param::Q, 0.5)]);
        assert_eq!(s.sweep.cell(1), vec![(Param::N, 100.0), (Param::Q, 0.02)]);
        assert_eq!(s.sweep.cell(3), vec![(Param::N, 200.0), (Param::Q, 0.5)]);
        assert_eq!(s.sweep.cell(5), vec![(Param::N, 200.0), (Param::Q, 0.9)]);
        // empty sweep: one cell, no overrides
        assert_eq!(Sweep::none().num_cells(), 1);
        assert!(Sweep::none().cell(0).is_empty());
    }

    #[test]
    fn scaling_multiplies_node_counts_only() {
        let s = demo().scaled(0.1);
        assert_eq!(s.substrates[0].n(), 50);
        assert_eq!(s.substrates[1].n(), 40);
        assert_eq!(s.sweep.axes[0].values, vec![10.0, 20.0]);
        assert_eq!(s.sweep.axes[1].values, vec![0.5, 0.02, 0.9]); // q untouched
        assert_eq!(s.trials, 3);
        // tiny factors clamp at 4 nodes
        assert_eq!(demo().scaled(1e-9).substrates[0].n(), 4);
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(demo().validate().is_ok());
        let mut s = demo();
        s.protocols.clear();
        assert!(s.validate().is_err());
        let mut s = demo();
        s.trials = 0;
        assert!(s.validate().is_err());
        let mut s = demo();
        s.protocols = vec![Protocol::Probabilistic { beta: 1.5 }];
        assert!(s.validate().is_err());
        let mut s = demo();
        s.sweep = Sweep::over(Param::Beta, Vec::<f64>::new());
        assert!(s.validate().is_err());
        let mut s = demo();
        s.substrates = vec![Substrate::Edge {
            n: 10,
            engine: EdgeEngine::Dense,
            p_hat: PHatSpec::Fixed(0.1),
            q: 0.0,
            init: InitKind::Stationary,
            stepping: SteppingKind::PerPair,
        }];
        assert!(s.validate().is_err());
    }

    #[test]
    fn derived_specs_resolve_sensibly() {
        // p̂ clamped so the implied birth rate stays feasible
        let p = PHatSpec::Fixed(0.99).resolve(100, 1.0);
        assert!(p <= 0.5);
        let p = PHatSpec::LogFactor(3.0).resolve(1000, 0.5);
        assert!((p - 3.0 * (1000f64).ln() / 1000.0).abs() < 1e-12);
        // radius capped below the side, floored above the grid resolution
        let r = RadiusSpec::ThresholdFactor(100.0).resolve(400);
        assert!(r <= 20.0 * 0.95 + 1e-9);
        let r = RadiusSpec::Fixed(0.1).resolve(400);
        assert!(r > 1.0);
        assert_eq!(MoveRadiusSpec::RadiusFraction(0.5).resolve(8.0), 4.0);
    }

    #[test]
    fn stepping_round_trips_and_defaults_to_per_pair() {
        let mut s = demo();
        if let Substrate::Edge { stepping, .. } = &mut s.substrates[0] {
            *stepping = SteppingKind::Transitions;
        }
        let back = Scenario::parse(&s.to_json().render()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.substrates[0].label(), "edge-sparse-transitions");
        // Scenario files written before the field existed carry no
        // `stepping` key: decoding must default to the per-pair reference
        // path rather than reject them — and the default must re-render
        // byte-identically (no `stepping` key emitted).
        let default_text = demo().to_json().render();
        assert!(!default_text.contains("stepping"));
        let legacy = Scenario::parse(&default_text).unwrap();
        assert!(matches!(
            legacy.substrates[0],
            Substrate::Edge {
                stepping: SteppingKind::PerPair,
                ..
            }
        ));
        // Unknown ids are rejected, not silently defaulted.
        assert!(SteppingKind::from_id("warp").is_err());
        assert_eq!(
            SteppingKind::from_id("transitions").unwrap().id(),
            "transitions"
        );
    }

    #[test]
    fn labels_are_stable() {
        let s = demo();
        assert_eq!(s.substrates[0].label(), "edge-sparse");
        assert_eq!(s.substrates[1].label(), "geo-waypoint");
        assert_eq!(s.protocols[0].label(), "flooding");
        assert_eq!(s.protocols[1].label(), "probabilistic(beta=0.3)");
        assert_eq!(s.protocols[2].label(), "parsimonious(k=4)");
        assert_eq!(s.protocols[3].label(), "push_pull");
    }

    #[test]
    fn decode_rejects_malformed_scenarios() {
        for bad in [
            "{}",
            r#"{"name":"x","description":"","substrates":[],"protocols":[],"sweep":{"axes":[]},"trials":1,"round_budget":1}"#
                .replace("substrates\":[]", "substrates\":3")
                .as_str(),
            r#"{"name":"x","description":"","substrates":[{"family":"nope"}],"protocols":["flooding"],"sweep":{"axes":[]},"trials":1,"round_budget":1}"#,
            r#"{"name":"x","description":"","substrates":[],"protocols":["warp"],"sweep":{"axes":[]},"trials":1,"round_budget":1}"#,
        ] {
            assert!(Scenario::parse(bad).is_err(), "accepted: {bad}");
        }
    }
}
