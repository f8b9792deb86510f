//! # meg-engine
//!
//! The declarative scenario engine: an experiment is **data**, not a
//! hand-written binary.
//!
//! A [`Scenario`] composes any substrate (edge-MEG dense/sparse with
//! `(p̂, q)` dynamics; geometric-MEG with grid-walk, waypoint, billiard, or
//! walkers mobility; the adversarial rotating star/bridge constructions;
//! static baseline graphs), any protocol (flooding, push–pull,
//! probabilistic, parsimonious) or measurement probe (expansion profile,
//! snapshot diameter, Theorem 2.5 bound, cell occupancy), a [`Sweep`] grid
//! over parameters, trial/round budgets, and a [`Precision`] policy — fixed
//! trials per cell, or adaptive `target_stderr` mode that grows each cell's
//! trial set until its observable reaches a target standard error. The
//! engine ([`run_scenario`]) crosses them into cells, derives a
//! deterministic seed per cell (so any cell reproduces in isolation), runs
//! the trials of every cell through one sweep-wide queue that
//! `rayon::current_num_threads()` trial threads drain across cell
//! boundaries, records the `meg_core::spec` regime classification on every
//! [`Row`] (released in cell order), and emits results through an
//! [`OutputFormat`] sink (ASCII table, JSON-lines, or CSV). All twelve of
//! the paper's experiments ship as [`builtin`](fn@builtin) scenarios (see
//! `docs/EXPERIMENTS.md`); `docs/ARCHITECTURE.md` documents the pipeline end
//! to end.
//!
//! The `meg-lab` binary is the CLI front-end: `meg-lab list`, `meg-lab run
//! <name|--file scenario.json>`, `meg-lab show <name>`.
//!
//! Large grids distribute across processes through the [`dist`] subsystem:
//! `meg-lab run --shard i/m --out dir/` executes one deterministic slice of
//! the cell list with durable checkpointing (`--resume` skips completed
//! cells, `--workers k` fans cells out to subprocesses), and `meg-lab merge
//! dir/` reassembles the canonical row stream byte-identically to an
//! unsharded run.
//!
//! ## Example
//!
//! ```
//! use meg_engine::prelude::*;
//!
//! // Flooding on a sparse stationary edge-MEG, sweeping the node count.
//! let scenario = Scenario {
//!     name: "doc_example".into(),
//!     description: "flooding time vs n".into(),
//!     substrates: vec![Substrate::Edge {
//!         n: 100,
//!         engine: EdgeEngine::Sparse,
//!         p_hat: PHatSpec::LogFactor(3.0),
//!         q: 0.5,
//!         init: InitKind::Stationary,
//!     }],
//!     protocols: vec![Protocol::Flooding],
//!     sweep: Sweep::over(Param::N, [60.0, 120.0]),
//!     trials: 2,
//!     round_budget: 10_000,
//!     precision: Precision::FixedTrials,
//! };
//!
//! // Scenarios are data: they round-trip through JSON …
//! let text = scenario.to_json().render();
//! assert_eq!(Scenario::parse(&text).unwrap(), scenario);
//!
//! // … and running them is deterministic in the master seed.
//! let rows = run_scenario(&scenario, 2009).unwrap();
//! assert_eq!(rows.len(), 2);
//! assert!(rows.iter().all(|r| r.completion_rate > 0.0));
//! assert_eq!(rows, run_scenario(&scenario, 2009).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod bench_baseline;
pub mod builtin;
pub mod dist;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod run;
pub mod scenario;
mod sched;
pub mod sink;

pub use builtin::{builtin, builtin_names};
pub use dist::{merge_dir, run_sharded, DistError, DistOptions, ShardSpec, ShardStrategy};
pub use json::Json;
pub use meg_obs as obs;
pub use run::{run_scenario, run_scenario_streaming, Row, TrialOutcome};
pub use scenario::{
    AdversarialKind, Axis, EdgeEngine, InitKind, MobilityKind, MoveRadiusSpec, PHatSpec, Param,
    Precision, Protocol, RadiusSpec, Scenario, ScenarioError, StaticKind, Substrate, Sweep,
};
pub use sink::OutputFormat;

/// The most commonly used engine items.
pub mod prelude {
    pub use crate::builtin::{builtin, builtin_names};
    pub use crate::dist::{merge_dir, run_sharded, DistOptions, ShardSpec, ShardStrategy};
    pub use crate::run::{run_scenario, run_scenario_streaming, Row, TrialOutcome};
    pub use crate::scenario::{
        AdversarialKind, Axis, EdgeEngine, InitKind, MobilityKind, MoveRadiusSpec, PHatSpec, Param,
        Precision, Protocol, RadiusSpec, Scenario, StaticKind, Substrate, Sweep,
    };
    pub use crate::sink::OutputFormat;
}
