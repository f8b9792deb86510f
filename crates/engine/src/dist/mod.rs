//! Distributed sweep execution: shard a scenario's cell list across
//! processes, checkpoint durably, merge deterministically.
//!
//! A resolved scenario is a flat list of cells (see [`crate::run`]); every
//! cell's seed depends only on `(scenario name, master seed, global cell
//! index)`. That makes the cell list a **shardable work queue**: any
//! partition of the indices executes exactly the rows an unsharded run
//! would, so distribution is pure mechanics — no statistics change. The
//! subsystem has four layers:
//!
//! * [`shard`] — [`ShardSpec`] (`--shard i/m`) with contiguous and
//!   round-robin partitioning strategies, a pure function of the global
//!   cell index;
//! * [`checkpoint`] — durable `*.part.jsonl` shard files: a header line
//!   recording the scenario fingerprint, master seed, and shard spec,
//!   followed by one completed [`Row`](crate::run::Row) JSON line per cell.
//!   Appended as cells finish, so a killed run loses at most the torn final
//!   line; `--resume` skips every checkpointed cell;
//! * [`worker`] — the subprocess protocol: `meg-lab worker` reads JSON-line
//!   requests on stdin (a scenario handshake, then trial batches) and
//!   answers each batch with its raw trial outcomes on stdout;
//! * [`coordinator`] — [`run_sharded`], behind every `meg-lab run`, executes
//!   one shard, either in-process or by dispatching trial batches to
//!   `--workers k` subprocesses (dead workers are respawned and their
//!   in-flight request retried), aggregating each row and streaming rows
//!   back in canonical cell order. A fixed-trials cell is one batch; under
//!   an adaptive-precision scenario (`Precision::TargetStderr`,
//!   `meg-lab run --target-stderr`) the per-cell control loop dispatches
//!   `min_trials`, inspects the returned standard error, and re-dispatches
//!   incremental trial batches until the target is met or `max_trials` is
//!   spent;
//! * [`trace`] / [`progress`] — sweep observability: a Chrome trace-event
//!   journal of per-cell lifecycle events (`--trace out.json`, viewable in
//!   Perfetto) and a throttled single-line stderr status (`--progress`).
//!   Workers additionally ship `meg-obs` counter-delta snapshots with every
//!   response (see [`worker`]), which the coordinator pools into the merged
//!   `--metrics` view;
//! * [`merge`] — [`merge_dir`] validates that every part file in a directory
//!   belongs to the same run, rejects conflicting duplicates, checks
//!   completeness, and re-sorts rows into canonical cell-index order — so a
//!   sharded run's merged output is **byte-identical** to an unsharded run.
//!
//! ## Example
//!
//! ```
//! use meg_engine::dist::{merge_dir, run_sharded, DistOptions, ShardSpec};
//! use meg_engine::prelude::*;
//!
//! let scenario = builtin("quick_smoke").unwrap().scaled(0.25);
//! let dir = std::env::temp_dir().join(format!("meg-dist-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir); // stale checkpoints would refuse create
//! std::fs::create_dir_all(&dir).unwrap();
//!
//! // Run both halves of a 2-way shard, checkpointing into `dir` …
//! for i in 0..2 {
//!     let opts = DistOptions {
//!         shard: ShardSpec::parse(&format!("{i}/2")).unwrap(),
//!         out_dir: Some(dir.clone()),
//!         ..DistOptions::default()
//!     };
//!     run_sharded(&scenario, 2009, &opts, |_cell, _line| {}).unwrap();
//! }
//!
//! // … and merge: identical to the unsharded row stream.
//! let merged = merge_dir(&dir).unwrap();
//! let unsharded: Vec<String> = run_scenario(&scenario, 2009)
//!     .unwrap()
//!     .iter()
//!     .map(|r| r.to_json().render())
//!     .collect();
//! assert_eq!(merged.lines, unsharded);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod checkpoint;
pub mod coordinator;
pub mod merge;
pub mod progress;
pub mod shard;
pub mod trace;
pub mod worker;

pub use checkpoint::{scenario_fingerprint, PartHeader};
pub use coordinator::{run_sharded, DistOptions, RunReport};
pub use merge::{merge_dir, Merged};
pub use progress::Progress;
pub use shard::{ShardSpec, ShardStrategy};
pub use trace::TraceJournal;

use crate::scenario::ScenarioError;
use std::fmt;

/// Errors produced by the distributed-execution subsystem.
#[derive(Clone, Debug, PartialEq)]
pub enum DistError {
    /// Filesystem failure (path plus the underlying error text).
    Io(String),
    /// A part file or protocol message violated the expected format.
    Format(String),
    /// Part files (or a resume directory) disagree on scenario, seed, or
    /// cell count — they belong to different runs.
    Mismatch(String),
    /// The scenario itself is invalid.
    Scenario(ScenarioError),
    /// A worker subprocess failed beyond the retry budget.
    Worker(String),
    /// Merge found no row for these global cell indices.
    Incomplete(Vec<usize>),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Io(m) => write!(f, "I/O error: {m}"),
            DistError::Format(m) => write!(f, "format error: {m}"),
            DistError::Mismatch(m) => write!(f, "run mismatch: {m}"),
            DistError::Scenario(e) => write!(f, "invalid scenario: {e}"),
            DistError::Worker(m) => write!(f, "worker failure: {m}"),
            DistError::Incomplete(missing) => {
                let shown: Vec<String> = missing.iter().take(8).map(|c| c.to_string()).collect();
                write!(
                    f,
                    "incomplete run: {} cell(s) missing (first: {}{})",
                    missing.len(),
                    shown.join(", "),
                    if missing.len() > 8 { ", …" } else { "" }
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<ScenarioError> for DistError {
    fn from(e: ScenarioError) -> Self {
        DistError::Scenario(e)
    }
}

pub(crate) fn io_err(path: &std::path::Path, e: std::io::Error) -> DistError {
    DistError::Io(format!("{}: {e}", path.display()))
}
