//! The coordinator: executes one shard of a scenario, in-process or across
//! worker subprocesses, with durable checkpointing and resume.
//!
//! [`run_sharded`] is the single entry point. It
//!
//! 1. resolves the scenario and takes this shard's slice of the global cell
//!    list ([`ShardSpec::assign`]);
//! 2. under `--resume`, loads every compatible part file in the output
//!    directory and **skips each already-checkpointed cell** — resumed rows
//!    are re-emitted from the checkpoint, not re-executed;
//! 3. executes the remaining cells — in-process (`workers == 0`) on the
//!    sweep-wide trial queue, where `meg_stats::trial_threads()` trial
//!    threads pull `(cell, trial)` units across cell boundaries, or by
//!    dispatching trial batches to `workers` subprocesses speaking the
//!    [`worker`](super::worker) protocol. A worker that dies mid-run is
//!    respawned and its in-flight batch retried, up to
//!    [`DistOptions::max_retries`] retries (i.e. `max_retries + 1` total
//!    attempts) per batch. Both paths share one work queue, one control
//!    loop and one ordered emitter;
//! 4. appends each completed row to the shard's part file the moment it
//!    finishes, then streams rows to the caller in ascending global
//!    cell-index order — so the emitted byte stream of shard `i/m` is
//!    exactly the corresponding subsequence of an unsharded run's output.
//!
//! In the worker pool the coordinator aggregates every row from the
//! outcomes its workers return. It cuts every checkpoint step of `t` trials
//! into `min(t, L)` contiguous batches for its `L` lanes, the longer ones
//! first, so the workers share every cell: a fixed-trials cell of 5 trials
//! on 2 workers is the batches `0..3` and `3..5`. Under a
//! [`Precision::TargetStderr`](crate::scenario::Precision::TargetStderr)
//! scenario the **adaptive control loop** decides each cell's trial count:
//! each cell's first `min_trials` are dispatched as batches, the returned
//! outcomes' standard error is checked against `eps` at every checkpoint of
//! the shared doubling schedule (`meg_stats::precision_checkpoints`), and
//! incremental batches are re-dispatched until the target is met or
//! `max_trials` is spent. Trial seeds depend only on `(cell seed, trial
//! index)`, so the finished rows are byte-identical to an unsharded run —
//! and, at `eps = 0`, to a fixed run of `max_trials` trials.
//!
//! ## Example
//!
//! An in-process (`workers == 0`) shard of an adaptive scenario:
//!
//! ```
//! use meg_engine::dist::{run_sharded, DistOptions};
//! use meg_engine::prelude::*;
//!
//! let mut scenario = builtin("quick_smoke").unwrap().scaled(0.25);
//! scenario.precision = Precision::TargetStderr {
//!     eps: 1.0,
//!     min_trials: 2,
//!     max_trials: 8,
//! };
//! let report = run_sharded(&scenario, 2009, &DistOptions::default(), |_, _| {}).unwrap();
//! assert!(report.complete);
//!
//! // Every row either met the target or spent the whole budget …
//! let rows: Vec<Row> = report
//!     .rows
//!     .iter()
//!     .map(|(_, line)| Row::from_json(&meg_engine::Json::parse(line).unwrap()).unwrap())
//!     .collect();
//! assert!(rows
//!     .iter()
//!     .all(|r| r.achieved_stderr.is_some_and(|se| se <= 1.0) || r.trials == 8));
//!
//! // … and the row stream matches the unsharded adaptive run byte for byte.
//! let reference: Vec<String> = run_scenario(&scenario, 2009)
//!     .unwrap()
//!     .iter()
//!     .map(|r| r.to_json().render())
//!     .collect();
//! assert_eq!(
//!     report.rows.into_iter().map(|(_, l)| l).collect::<Vec<_>>(),
//!     reference
//! );
//! ```

use super::checkpoint::{self, PartHeader, PartWriter};
use super::progress::{self, Progress};
use super::shard::ShardSpec;
use super::trace::{lane_names, TraceJournal};
use super::worker::{batch_line, hello_line_with, shutdown_line};
use super::DistError;
use crate::json::Json;
use crate::metrics::snapshot_from_json;
use crate::run::{aggregate_row, cell_seed, resolve_cells, scenario_jobs, Cell, TrialOutcome};
use crate::scenario::Scenario;
use crate::sched::{self, Control, OrderedEmitter, Plan, Replies, Reply, WorkItem, WorkQueue};
use meg_obs as obs;
use meg_obs::MetricsSnapshot;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::Instant;

/// Options controlling one sharded run.
#[derive(Clone, Debug)]
pub struct DistOptions {
    /// Which slice of the cell list to execute.
    pub shard: ShardSpec,
    /// Worker subprocesses to dispatch cells to; `0` executes in-process.
    pub workers: usize,
    /// Directory for the shard's `*.part.jsonl` checkpoint (no checkpointing
    /// when `None`; required for `resume`).
    pub out_dir: Option<PathBuf>,
    /// Skip cells already checkpointed in `out_dir` and append to the
    /// existing part file instead of refusing to overwrite it.
    pub resume: bool,
    /// Execute at most this many *new* cells, then stop (the checkpoint
    /// stays valid — a later `resume` finishes the rest). Models an
    /// interrupted run deterministically.
    pub limit: Option<usize>,
    /// Binary to spawn as `<cmd> worker` (default: the current executable,
    /// which is correct for `meg-lab` itself).
    pub worker_cmd: Option<PathBuf>,
    /// Fault injection: spawned workers abort after serving this many
    /// requests (forwarded as `worker --fail-after N`). Exercises the
    /// restart path.
    pub worker_fail_after: Option<usize>,
    /// Per-batch retry budget when a worker dies (respawn + resend).
    pub max_retries: usize,
    /// Narrate worker fault events (deaths, respawns, retries) on stderr,
    /// each prefixed with the monotonic milliseconds since the pool started.
    pub verbose: bool,
    /// Have each worker ship `meg-obs` counter-delta snapshots with every
    /// response plus a final full snapshot at shutdown; the per-lane merges
    /// land in [`RunReport::worker_metrics`].
    pub ship_metrics: bool,
    /// Record per-cell lifecycle events and write them to this file as
    /// Chrome trace-event JSON when the run finishes (`--trace`).
    pub trace: Option<PathBuf>,
    /// Render a throttled single-line progress status on stderr
    /// (`--progress`; auto-disabled when stderr is not a TTY).
    pub progress: bool,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            shard: ShardSpec::full(),
            workers: 0,
            out_dir: None,
            resume: false,
            limit: None,
            worker_cmd: None,
            worker_fail_after: None,
            max_retries: 3,
            verbose: false,
            ship_metrics: false,
            trace: None,
            progress: false,
        }
    }
}

/// What a sharded run did.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Every row this run emitted — resumed and freshly executed — as
    /// `(global cell index, canonical JSON line)` in ascending index order.
    pub rows: Vec<(usize, String)>,
    /// Cells assigned to this shard.
    pub assigned: usize,
    /// Cells actually executed by this run.
    pub executed: usize,
    /// Cells skipped because a checkpoint already had their rows.
    pub resumed: usize,
    /// Whether every assigned cell now has a row (false only under `limit`).
    pub complete: bool,
    /// With [`DistOptions::ship_metrics`], one merged [`MetricsSnapshot`]
    /// per worker lane: every counter delta the lane's subprocesses shipped,
    /// plus the gauges and span histograms of the final snapshot. Empty
    /// otherwise (including in-process runs).
    pub worker_metrics: Vec<MetricsSnapshot>,
}

/// Executes this shard's cells and returns the report. `on_row` is invoked
/// once per emitted row, in ascending global cell-index order.
pub fn run_sharded<F: FnMut(usize, &str)>(
    scenario: &Scenario,
    master_seed: u64,
    opts: &DistOptions,
    mut on_row: F,
) -> Result<RunReport, DistError> {
    let cells = resolve_cells(scenario)?;
    let assigned = opts.shard.assign(cells.len());
    let header = PartHeader::new(scenario, master_seed, &opts.shard);

    if opts.resume && opts.out_dir.is_none() {
        return Err(DistError::Format(
            "--resume needs an output directory".into(),
        ));
    }
    // One directory scan serves both the skip-set and this shard's own
    // part file (so resume never parses a large checkpoint twice).
    let (completed, own_part) = match &opts.out_dir {
        Some(dir) if opts.resume && dir.exists() => {
            let parts = checkpoint::scan_dir(dir)?;
            let completed = checkpoint::completed_from_parts(&parts, &header)?;
            let own = checkpoint::part_path(dir, &opts.shard);
            let own_part = parts.into_iter().find(|(p, _)| *p == own).map(|(_, f)| f);
            (completed, own_part)
        }
        _ => (BTreeMap::new(), None),
    };
    let mut writer = match &opts.out_dir {
        Some(dir) if opts.resume => Some(PartWriter::resume(
            dir,
            &header,
            &opts.shard,
            own_part.as_ref(),
        )?),
        Some(dir) => Some(PartWriter::create(dir, &header, &opts.shard)?),
        None => None,
    };

    let resumed: Vec<(usize, String)> = assigned
        .iter()
        .filter_map(|c| completed.get(c).map(|l| (*c, l.clone())))
        .collect();
    let mut todo: Vec<usize> = assigned
        .iter()
        .copied()
        .filter(|c| !completed.contains_key(c))
        .collect();
    let outstanding = todo.len();
    if let Some(limit) = opts.limit {
        todo.truncate(limit);
    }

    let mut rows = Vec::with_capacity(assigned.len());
    let mut emitter = OrderedEmitter::new(&assigned, |cell, line: String| {
        on_row(cell, &line);
        rows.push((cell, line));
        Ok::<(), DistError>(())
    });
    let resumed_count = resumed.len();

    // Sweep observability: both read the monotonic clock strictly outside
    // RNG-consuming code, so neither can perturb a single row byte.
    let journal = opts.trace.as_ref().map(|_| TraceJournal::new());
    let coord_lane = opts.workers; // == 0 → the in-process lanes start at 0
    let meter = (opts.progress && progress::stderr_wants_progress())
        .then(|| Progress::new(assigned.len(), resumed_count, opts.workers.max(1)));

    for (cell, line) in resumed {
        if let Some(j) = &journal {
            j.instant(coord_lane, format!("cell {cell} resumed"), Some(cell));
        }
        emitter.offer(cell, line)?;
    }

    let executed = todo.len();
    let mut worker_metrics = Vec::new();
    if opts.workers == 0 {
        let jobs = scenario_jobs(scenario, &cells, master_seed, todo.iter().copied());
        sched::run_sweep(
            scenario,
            &jobs,
            meg_stats::trial_threads(),
            journal.as_ref(),
            crate::run::execute_trial,
            |row| {
                let line = row.to_json().render();
                if let Some(w) = &mut writer {
                    w.append(&line)?;
                }
                if let Some(m) = &meter {
                    m.item_done(0);
                    m.cell_done();
                }
                emitter.offer(row.cell, line)
            },
        )?;
    } else {
        worker_metrics = dispatch_to_workers(
            scenario,
            &cells,
            master_seed,
            opts,
            &todo,
            journal.as_ref(),
            meter.as_ref(),
            |index, line| {
                if let Some(w) = &mut writer {
                    w.append(&line)?;
                }
                emitter.offer(index, line)
            },
        )?;
    }
    emitter.finish()?;

    if let Some(m) = &meter {
        m.finish();
    }
    if let (Some(j), Some(path)) = (&journal, &opts.trace) {
        let mut names = lane_names(opts.workers);
        // In-process cells overlap in time, so their spans fill extra lanes.
        names.extend((names.len()..j.lanes()).map(|lane| format!("in-process {lane}")));
        j.write(path, &names)?;
    }

    Ok(RunReport {
        assigned: assigned.len(),
        executed,
        resumed: resumed_count,
        complete: executed == outstanding,
        rows,
        worker_metrics,
    })
}

// ---------------------------------------------------------------------------
// Worker-pool dispatch

/// A live worker subprocess with buffered pipes.
struct WorkerProc {
    child: Child,
    stdin: std::process::ChildStdin,
    stdout: BufReader<std::process::ChildStdout>,
    /// Whether the hello asked this worker to ship metrics snapshots (an
    /// extra `{"metrics":…}` line after every response).
    ship_metrics: bool,
}

/// The hello line plus what a healthy worker must echo back: agreeing on
/// the cell count and scenario fingerprint is what lets a foreign binary
/// serve cells without breaking byte-identity.
struct Handshake {
    hello: String,
    num_cells: usize,
    fingerprint: String,
}

impl WorkerProc {
    fn spawn(
        cmd: &std::path::Path,
        handshake: &Handshake,
        fail_after: Option<usize>,
        ship_metrics: bool,
    ) -> Result<WorkerProc, String> {
        let mut command = Command::new(cmd);
        command
            .arg("worker")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if let Some(n) = fail_after {
            command.arg("--fail-after").arg(n.to_string());
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot spawn worker `{}`: {e}", cmd.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut worker = WorkerProc {
            child,
            stdin,
            stdout,
            ship_metrics,
        };
        // A worker that fails the handshake must be reaped here — returning
        // Err after a plain drop would leak a zombie per retry attempt.
        match worker.validate_ready(handshake) {
            Ok(()) => Ok(worker),
            Err(e) => {
                worker.kill();
                Err(e)
            }
        }
    }

    fn validate_ready(&mut self, handshake: &Handshake) -> Result<(), String> {
        let ready = self
            .round_trip(&handshake.hello)
            .map_err(|e| format!("worker handshake failed: {e}"))?;
        let parsed = Json::parse(&ready).ok();
        let ready_obj = parsed.as_ref().and_then(|v| v.get("ready"));
        let num_cells = ready_obj.and_then(|r| r.get("num_cells")?.as_usize());
        if num_cells != Some(handshake.num_cells) {
            return Err(format!(
                "worker resolved {num_cells:?} cells, coordinator expects {} \
                 (mismatched binary?)",
                handshake.num_cells
            ));
        }
        // The fingerprint guards byte-identity itself: a worker binary that
        // resolves the scenario differently must not be allowed to serve.
        let fingerprint = ready_obj.and_then(|r| r.get("fingerprint")?.as_str());
        if fingerprint != Some(handshake.fingerprint.as_str()) {
            return Err(format!(
                "worker scenario fingerprint {fingerprint:?} does not match the \
                 coordinator's {} (mismatched binary?)",
                handshake.fingerprint
            ));
        }
        Ok(())
    }

    /// Writes one request line and reads one response line.
    fn round_trip(&mut self, request: &str) -> Result<String, String> {
        let _span = obs::span("worker_round_trip");
        writeln!(self.stdin, "{request}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("worker closed its stdout (died?)".into()),
            Ok(_) => Ok(line.trim_end_matches('\n').to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// Sends one trial batch, validates the reply's addressing, and parses
    /// it exactly once: the reply must echo the cell and start offset and
    /// carry exactly `count` well-formed outcomes (a malformed reply counts
    /// as a worker failure, so it goes through the normal respawn-and-retry
    /// path). A shipping worker follows every response with a counter-delta
    /// line, returned alongside the outcomes.
    fn request(
        &mut self,
        item: WorkItem,
    ) -> Result<(Vec<TrialOutcome>, Option<MetricsSnapshot>), String> {
        let WorkItem { cell, start, count } = item;
        let line = self.round_trip(&batch_line(cell, start, count))?;
        let parsed = Json::parse(&line).ok();
        let got_cell = parsed.as_ref().and_then(|v| v.get("cell")?.as_usize());
        let got_start = parsed.as_ref().and_then(|v| v.get("start")?.as_usize());
        let outcomes = parsed
            .as_ref()
            .and_then(|v| v.get("outcomes")?.as_arr())
            .map(|arr| {
                arr.iter()
                    .map(TrialOutcome::from_json)
                    .collect::<Result<Vec<_>, _>>()
            })
            .and_then(Result::ok);
        let got_count = outcomes.as_ref().map(Vec::len);
        if got_cell != Some(cell) || got_start != Some(start) || got_count != Some(count) {
            return Err(format!(
                "worker answered batch (cell {got_cell:?}, start {got_start:?}, \
                 {got_count:?} outcomes), wanted (cell {cell}, start {start}, \
                 {count} outcomes)"
            ));
        }
        let metrics = if self.ship_metrics {
            Some(self.read_metrics()?)
        } else {
            None
        };
        Ok((outcomes.expect("validated above"), metrics))
    }

    /// Reads the `{"metrics":…}` counter-delta line a shipping worker sends
    /// after every response. A missing or malformed line is a worker failure
    /// (the stream would be desynchronized), handled by respawn-and-retry.
    fn read_metrics(&mut self) -> Result<MetricsSnapshot, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => return Err("worker closed its stdout before its metrics line".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("read metrics: {e}")),
        }
        Json::parse(line.trim_end_matches('\n'))
            .ok()
            .as_ref()
            .and_then(|v| v.get("metrics"))
            .ok_or_else(|| "expected a metrics delta line".to_string())
            .and_then(|m| snapshot_from_json(m).map_err(|e| format!("metrics line: {e}")))
    }

    /// Sends shutdown; a shipping worker answers with its final full
    /// snapshot (gauges and span histograms included), returned to be folded
    /// into the lane's merge. Best-effort: a worker that dies instead just
    /// yields `None`.
    fn shutdown(mut self) -> Option<MetricsSnapshot> {
        let _ = writeln!(self.stdin, "{}", shutdown_line());
        let _ = self.stdin.flush();
        let finale = if self.ship_metrics {
            let mut line = String::new();
            match self.stdout.read_line(&mut line) {
                Ok(n) if n > 0 => Json::parse(line.trim_end_matches('\n'))
                    .ok()
                    .as_ref()
                    .and_then(|v| v.get("final_metrics"))
                    .and_then(|m| snapshot_from_json(m).ok()),
                _ => None,
            }
        } else {
            None
        };
        drop(self.stdin);
        let _ = self.child.wait();
        finale
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Shared, read-only context every pool thread borrows.
struct PoolCtx<'a> {
    cmd: &'a std::path::Path,
    handshake: &'a Handshake,
    opts: &'a DistOptions,
    queue: &'a WorkQueue,
    journal: Option<&'a TraceJournal>,
    meter: Option<&'a Progress>,
    /// When the pool started — anchors the `[+{ms}ms]` prefix on verbose
    /// fault narration, correlatable with the trace journal's timestamps.
    started: Instant,
}

impl PoolCtx<'_> {
    fn elapsed_ms(&self) -> u128 {
        self.started.elapsed().as_millis()
    }
}

/// One worker thread: owns (and respawns) a subprocess, pulls work items off
/// the shared queue, and ships each validated reply over the channel.
/// Counter deltas the subprocess ships accumulate into `metrics_out`, plus
/// the gauges/spans of its final shutdown snapshot (counters cleared there —
/// the deltas already cover every increment, so nothing double-counts).
fn worker_thread(
    lane: usize,
    ctx: &PoolCtx<'_>,
    results: &Replies<DistError>,
    metrics_out: &Mutex<MetricsSnapshot>,
) {
    let opts = ctx.opts;
    let mut proc: Option<WorkerProc> = None;
    let mut acc = MetricsSnapshot::empty();
    'items: while let Some(item) = ctx.queue.pop() {
        let started = Instant::now();
        let cell = item.cell;
        let mut attempts = 0usize;
        let outcomes = loop {
            if ctx.queue.is_shut_down() {
                break 'items;
            }
            let t0 = ctx.journal.map(|j| j.now_us());
            let attempt = match proc.as_mut() {
                Some(p) => p.request(item),
                None => {
                    match WorkerProc::spawn(
                        ctx.cmd,
                        ctx.handshake,
                        opts.worker_fail_after,
                        opts.ship_metrics,
                    ) {
                        Ok(p) => {
                            proc = Some(p);
                            if attempts > 0 {
                                obs::add(obs::Counter::WorkerRespawns, 1);
                                if let Some(m) = ctx.meter {
                                    m.respawn();
                                }
                                if let Some(j) = ctx.journal {
                                    j.instant(lane, "worker respawned".into(), Some(cell));
                                }
                                if opts.verbose {
                                    eprintln!(
                                        "meg-lab: [+{}ms] worker respawned \
                                         (lane {lane}, attempt {} for cell {cell})",
                                        ctx.elapsed_ms(),
                                        attempts + 1
                                    );
                                }
                            }
                            continue;
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            match attempt {
                Ok((outcomes, delta)) => {
                    if let Some(d) = delta {
                        acc.merge(&d);
                    }
                    if let Some(j) = ctx.journal {
                        j.complete(lane, item.trace_name(), t0.unwrap_or(0), Some(cell));
                    }
                    if let Some(m) = ctx.meter {
                        m.item_done(lane);
                    }
                    break outcomes;
                }
                Err(reason) => {
                    if let Some(p) = proc.take() {
                        p.kill();
                        obs::add(obs::Counter::WorkerDeaths, 1);
                        if let Some(j) = ctx.journal {
                            j.instant(lane, "worker died".into(), Some(cell));
                        }
                        if opts.verbose {
                            eprintln!(
                                "meg-lab: [+{}ms] worker died (lane {lane}, cell {cell}): {reason}",
                                ctx.elapsed_ms()
                            );
                        }
                    }
                    attempts += 1;
                    if attempts > opts.max_retries {
                        if opts.verbose {
                            eprintln!(
                                "meg-lab: [+{}ms] giving up on cell {cell} \
                                 (lane {lane}) after {attempts} attempt(s)",
                                ctx.elapsed_ms()
                            );
                        }
                        ctx.queue.shut_down();
                        let _ = results.send(Err(DistError::Worker(format!(
                            "{} failed after {attempts} attempt(s): {reason}",
                            item.trace_name()
                        ))));
                        break 'items;
                    }
                    obs::add(obs::Counter::WorkerRetries, 1);
                    if opts.verbose {
                        eprintln!(
                            "meg-lab: [+{}ms] retrying cell {cell} on lane {lane} \
                             (attempt {} of {})",
                            ctx.elapsed_ms(),
                            attempts + 1,
                            opts.max_retries + 1
                        );
                    }
                }
            }
        };
        let reply = Reply {
            item,
            outcomes,
            started,
        };
        if results.send(Ok(reply)).is_err() {
            break;
        }
    }
    if let Some(p) = proc.take() {
        if let Some(mut finale) = p.shutdown() {
            finale.clear_counters();
            acc.merge(&finale);
        }
    }
    if let Ok(mut slot) = metrics_out.lock() {
        *slot = acc;
    }
}

/// Runs `todo` through a pool of `opts.workers` subprocesses, invoking
/// `on_result` (on the calling thread) as each finished row line arrives.
///
/// The pool has one lane per worker, capped at the trials the cells can run.
/// The shared control loop ([`Control`]) opens every cell under
/// [`Plan::for_cell`] and cuts each checkpoint step into one trial batch per
/// lane at most, each batch one round trip. A fixed-trials cell is one step
/// of all its trials. An adaptive cell starts with its `min_trials` step; the
/// loop inspects the returned outcomes' standard error at every checkpoint of
/// the shared doubling schedule and sends incremental steps while the target
/// is unmet. Either way this thread aggregates each row itself from exactly
/// the outcomes an unsharded run would draw, so the row bytes match.
#[allow(clippy::too_many_arguments)] // internal seam; run_sharded is the API
fn dispatch_to_workers<F: FnMut(usize, String) -> Result<(), DistError>>(
    scenario: &Scenario,
    cells: &[Cell],
    master_seed: u64,
    opts: &DistOptions,
    todo: &[usize],
    journal: Option<&TraceJournal>,
    meter: Option<&Progress>,
    mut on_result: F,
) -> Result<Vec<MetricsSnapshot>, DistError> {
    if todo.is_empty() {
        return Ok(Vec::new());
    }
    let cmd = match &opts.worker_cmd {
        Some(p) => p.clone(),
        None => std::env::current_exe()
            .map_err(|e| DistError::Worker(format!("cannot locate own executable: {e}")))?,
    };
    let handshake = Handshake {
        hello: hello_line_with(scenario, master_seed, opts.ship_metrics),
        num_cells: scenario.num_cells(),
        fingerprint: super::checkpoint::scenario_fingerprint(scenario),
    };
    // Trace lane layout follows `lane_names(opts.workers)`: lanes past the
    // pool (when fewer trials than workers) simply stay empty.
    let coord_lane = opts.workers;
    let plans: Vec<Plan> = todo
        .iter()
        .map(|&c| Plan::for_cell(&scenario.precision, &cells[c]))
        .collect();
    let pool_size = sched::lanes_for(&plans, opts.workers);
    let queue = WorkQueue::new();
    let mut control = Control::new(&queue, pool_size, journal.map(|j| (j, coord_lane)));
    for (&c, plan) in todo.iter().zip(plans) {
        control.open(c, plan)?;
    }
    let ctx = PoolCtx {
        cmd: &cmd,
        handshake: &handshake,
        opts,
        queue: &queue,
        journal,
        meter,
        started: Instant::now(),
    };
    let lane_metrics: Vec<Mutex<MetricsSnapshot>> = (0..pool_size)
        .map(|_| Mutex::new(MetricsSnapshot::empty()))
        .collect();

    sched::drive(
        &queue,
        &mut control,
        todo.len(),
        pool_size,
        |lane, results| worker_thread(lane, &ctx, results, &lane_metrics[lane]),
        |index, outcomes, started| {
            let line = aggregate_row(
                scenario,
                &cells[index],
                cell_seed(&scenario.name, master_seed, index),
                &outcomes,
            )
            .to_json()
            .render();
            obs::record_span("cell", started.elapsed());
            if let Some(j) = journal {
                j.instant(coord_lane, format!("cell {index} complete"), Some(index));
            }
            if let Some(m) = meter {
                m.cell_done();
            }
            on_result(index, line)
        },
    )?;

    Ok(if opts.ship_metrics {
        lane_metrics
            .into_iter()
            .map(|m| m.into_inner().unwrap_or_else(|p| p.into_inner()))
            .collect()
    } else {
        Vec::new()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::quick_smoke;
    use crate::run::run_scenario;
    use std::path::Path;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("meg-coord-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reference_lines(scenario: &Scenario, seed: u64) -> Vec<String> {
        run_scenario(scenario, seed)
            .unwrap()
            .iter()
            .map(|r| r.to_json().render())
            .collect()
    }

    fn shard_opts(label: &str, dir: &Path) -> DistOptions {
        DistOptions {
            shard: ShardSpec::parse(label).unwrap(),
            out_dir: Some(dir.to_path_buf()),
            ..DistOptions::default()
        }
    }

    #[test]
    fn single_shard_in_process_matches_unsharded_run() {
        let scenario = quick_smoke().scaled(0.25);
        let reference = reference_lines(&scenario, 2009);
        let mut streamed = Vec::new();
        let report = run_sharded(&scenario, 2009, &DistOptions::default(), |cell, line| {
            streamed.push((cell, line.to_string()))
        })
        .unwrap();
        assert!(report.complete);
        assert_eq!(report.executed, reference.len());
        assert_eq!(report.resumed, 0);
        assert_eq!(report.rows, streamed);
        assert_eq!(
            report
                .rows
                .iter()
                .map(|(_, l)| l.clone())
                .collect::<Vec<_>>(),
            reference
        );
    }

    #[test]
    fn shards_partition_the_reference_rows() {
        let scenario = quick_smoke().scaled(0.25);
        let reference = reference_lines(&scenario, 7);
        for strategy in ["contiguous", "round_robin"] {
            let mut seen: Vec<Option<String>> = vec![None; reference.len()];
            for i in 0..3 {
                let mut shard = ShardSpec::parse(&format!("{i}/3")).unwrap();
                shard.strategy = strategy.parse().unwrap();
                let opts = DistOptions {
                    shard,
                    ..DistOptions::default()
                };
                let report = run_sharded(&scenario, 7, &opts, |_, _| {}).unwrap();
                for (cell, line) in report.rows {
                    assert!(seen[cell].is_none(), "cell {cell} ran twice");
                    seen[cell] = Some(line);
                }
            }
            let merged: Vec<String> = seen.into_iter().map(Option::unwrap).collect();
            assert_eq!(merged, reference, "strategy {strategy}");
        }
    }

    #[test]
    fn limit_interrupts_and_resume_skips_completed_cells() {
        let scenario = quick_smoke().scaled(0.25);
        let reference = reference_lines(&scenario, 11);
        let dir = tmp("resume");

        // "Kill" the run after 2 cells.
        let mut opts = shard_opts("0/1", &dir);
        opts.limit = Some(2);
        let partial = run_sharded(&scenario, 11, &opts, |_, _| {}).unwrap();
        assert!(!partial.complete);
        assert_eq!(partial.executed, 2);

        // Resume: exactly the remaining cells execute, none twice.
        let mut opts = shard_opts("0/1", &dir);
        opts.resume = true;
        let finished = run_sharded(&scenario, 11, &opts, |_, _| {}).unwrap();
        assert!(finished.complete);
        assert_eq!(finished.resumed, 2, "checkpointed cells must be skipped");
        assert_eq!(finished.executed, reference.len() - 2);
        assert_eq!(
            finished
                .rows
                .iter()
                .map(|(_, l)| l.clone())
                .collect::<Vec<_>>(),
            reference,
            "final output must match a clean run"
        );

        // A second resume has nothing left to do.
        let mut opts = shard_opts("0/1", &dir);
        opts.resume = true;
        let idle = run_sharded(&scenario, 11, &opts, |_, _| {}).unwrap();
        assert_eq!(idle.executed, 0);
        assert_eq!(idle.resumed, reference.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rerunning_without_resume_refuses_to_clobber_the_checkpoint() {
        let scenario = quick_smoke().scaled(0.25);
        let dir = tmp("clobber");
        run_sharded(&scenario, 3, &shard_opts("0/1", &dir), |_, _| {}).unwrap();
        assert!(matches!(
            run_sharded(&scenario, 3, &shard_opts("0/1", &dir), |_, _| {}),
            Err(DistError::Mismatch(_))
        ));
        // And resuming under a different seed is caught by the header check.
        let mut opts = shard_opts("0/1", &dir);
        opts.resume = true;
        assert!(matches!(
            run_sharded(&scenario, 4, &opts, |_, _| {}),
            Err(DistError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_without_out_dir_is_rejected() {
        let scenario = quick_smoke().scaled(0.25);
        let opts = DistOptions {
            resume: true,
            ..DistOptions::default()
        };
        assert!(matches!(
            run_sharded(&scenario, 1, &opts, |_, _| {}),
            Err(DistError::Format(_))
        ));
    }

    #[test]
    fn sharded_adaptive_run_matches_unsharded_adaptive_run() {
        use crate::scenario::Precision;
        let mut scenario = quick_smoke().scaled(0.25);
        scenario.precision = Precision::TargetStderr {
            eps: 1.0,
            min_trials: 2,
            max_trials: 8,
        };
        let reference = reference_lines(&scenario, 13);
        let dir = tmp("adaptive");
        let mut seen: Vec<Option<String>> = vec![None; reference.len()];
        for i in 0..2 {
            let opts = shard_opts(&format!("{i}/2"), &dir);
            let report = run_sharded(&scenario, 13, &opts, |_, _| {}).unwrap();
            assert!(report.complete);
            for (cell, line) in report.rows {
                seen[cell] = Some(line);
            }
        }
        let merged: Vec<String> = seen.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            merged, reference,
            "sharded adaptive rows must be byte-identical to the unsharded adaptive run"
        );
        // The checkpoint merges byte-identically too, and resuming an
        // adaptive run re-executes nothing.
        assert_eq!(
            super::super::merge::merge_dir(&dir).unwrap().lines,
            reference
        );
        let mut opts = shard_opts("0/2", &dir);
        opts.resume = true;
        let idle = run_sharded(&scenario, 13, &opts, |_, _| {}).unwrap();
        assert_eq!(idle.executed, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tracing_an_in_process_run_keeps_rows_identical_and_writes_a_journal() {
        let scenario = quick_smoke().scaled(0.25);
        let reference = reference_lines(&scenario, 2009);
        let trace_path =
            std::env::temp_dir().join(format!("meg-coord-trace-{}.json", std::process::id()));
        let opts = DistOptions {
            trace: Some(trace_path.clone()),
            progress: true, // accepted; draws only if stderr is a TTY
            ..DistOptions::default()
        };
        let report = run_sharded(&scenario, 2009, &opts, |_, _| {}).unwrap();
        assert_eq!(
            report
                .rows
                .iter()
                .map(|(_, l)| l.clone())
                .collect::<Vec<_>>(),
            reference,
            "tracing must not change a row byte"
        );
        assert!(report.worker_metrics.is_empty(), "in-process ships nothing");

        let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let cell_spans = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .count();
        assert_eq!(cell_spans, reference.len(), "one complete span per cell");
        std::fs::remove_file(&trace_path).unwrap();
    }

    #[test]
    fn ordered_emitter_releases_in_assigned_order() {
        let assigned = [1usize, 4, 7];
        let order = std::cell::RefCell::new(Vec::new());
        let mut e = OrderedEmitter::new(&assigned, |c, _: String| {
            order.borrow_mut().push(c);
            Ok::<(), DistError>(())
        });
        e.offer(7, "c".into()).unwrap();
        assert!(order.borrow().is_empty(), "7 must wait for 1 and 4");
        e.offer(1, "a".into()).unwrap();
        assert_eq!(*order.borrow(), vec![1]);
        e.offer(4, "b".into()).unwrap();
        assert_eq!(*order.borrow(), vec![1, 4, 7]);
        e.finish().unwrap();
        assert_eq!(*order.borrow(), vec![1, 4, 7]);
    }
}
