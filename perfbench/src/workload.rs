//! The workloads and the untraced paths through the engine: sweeps, set-up,
//! the output check, and the untimed `meg_obs` count pass.

use meg_engine::dist::worker::{hello_line, shutdown_line};
use meg_engine::obs::{self, Counter, MetricsSnapshot};
use meg_engine::run::{cell_seed, resolve_cells, Cell};
use meg_engine::{builtin, run_scenario_streaming, run_sharded, DistOptions, Json, Row, Scenario};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How a workload's sweeps reach the engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `run_scenario_streaming` in this process, with the engine's default
    /// trial fan-out.
    InProcess,
    /// `dist::run_sharded` over this many worker subprocesses, each with one
    /// trial thread.
    Pool(usize),
}

/// One benchmark workload: a paper builtin at full scale and how it runs.
#[derive(Debug)]
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// The `meg_engine::builtin` scenario it runs.
    pub builtin: &'static str,
    /// In-process or through a worker pool.
    pub mode: Mode,
}

/// Every workload. Why each one was chosen is recorded in `BENCHMARK.json`
/// and README.md: each loads different layers.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "edge_vs_n",
        builtin: "edge_vs_n",
        mode: Mode::InProcess,
    },
    Workload {
        name: "geo_vs_n",
        builtin: "geo_vs_n",
        mode: Mode::InProcess,
    },
    Workload {
        name: "epidemic_threshold",
        builtin: "epidemic_threshold",
        mode: Mode::InProcess,
    },
    Workload {
        name: "general_bound.pool2",
        builtin: "general_bound",
        mode: Mode::Pool(2),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's scenario, with every node count scaled by `scale`
    /// (1 is the builtin's full scale).
    pub fn scenario(&self, scale: f64) -> Scenario {
        builtin(self.builtin)
            .expect("every workload names a registered builtin")
            .scaled(scale)
    }
}

/// A scenario, master seed and mode: everything one sweep needs.
#[derive(Clone, Debug)]
pub struct Target {
    /// The scenario every sweep runs.
    pub scenario: Scenario,
    /// The master seed every sweep runs under.
    pub seed: u64,
    /// In-process or pool.
    pub mode: Mode,
    /// This benchmark's binary, spawned as `<exe> worker` for pool workers
    /// and `<exe> setup` for set-ups; `None` uses the current executable.
    pub exe: Option<PathBuf>,
}

/// What the untimed count pass observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Counts {
    /// Rows the pass rendered, in cell order.
    pub lines: Vec<String>,
    /// Edge births plus deaths (edge-MEG chain flips).
    pub edge_flips: u64,
    /// RNG draws of the edge-MEG skip-sampler.
    pub rng_draws: u64,
    /// Candidate pairs the geometric bucket scan visited.
    pub scan_visits: u64,
    /// Coordinator-to-worker request/response round trips.
    pub round_trips: u64,
}

impl Target {
    /// The scenario's resolved cells.
    pub fn cells(&self) -> Result<Vec<Cell>, String> {
        resolve_cells(&self.scenario).map_err(|e| format!("resolve: {e}"))
    }

    fn dist_options(&self, workers: usize, ship_metrics: bool) -> DistOptions {
        DistOptions {
            workers,
            worker_cmd: self.exe.clone(),
            ship_metrics,
            ..DistOptions::default()
        }
    }

    /// One untraced sweep through the workload's engine entry point. Returns
    /// the rendered rows in the order they reached the sink.
    pub fn sweep(&self) -> Result<Vec<String>, String> {
        match self.mode {
            Mode::InProcess => self.sweep_in_process(),
            Mode::Pool(workers) => {
                let mut lines = Vec::new();
                run_sharded(
                    &self.scenario,
                    self.seed,
                    &self.dist_options(workers, false),
                    |_, line| lines.push(line.to_string()),
                )
                .map_err(|e| format!("pool sweep: {e}"))?;
                Ok(lines)
            }
        }
    }

    /// One untraced in-process sweep, whatever the mode: the reference a
    /// pool's rows must equal.
    pub fn sweep_in_process(&self) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        run_scenario_streaming(&self.scenario, self.seed, |row| {
            lines.push(row.to_json().render())
        })
        .map_err(|e| format!("sweep: {e}"))?;
        Ok(lines)
    }

    fn exe(&self) -> Result<PathBuf, String> {
        match &self.exe {
            Some(exe) => Ok(exe.clone()),
            None => std::env::current_exe().map_err(|e| format!("own executable: {e}")),
        }
    }

    /// Times one set-up: the work before the first trial can run, done in a
    /// fresh process. It launches `<exe> setup <workers>` and sends it the
    /// scenario and seed as a hello line; the probe times its own
    /// `resolve_cells` and, for a pool, the spawn and hello handshake of its
    /// workers, and reports the figures (see [`serve_setup`]). Launching the
    /// probe is not timed. A fresh process per set-up makes a median over
    /// set-ups cover process-to-process variation, such as memory layout,
    /// that a loop inside one process would not. Returns the set-up time and
    /// the spawn-and-handshake part of it.
    pub fn setup(&self) -> Result<(Duration, Duration), String> {
        let workers = match self.mode {
            Mode::InProcess => 0,
            Mode::Pool(workers) => workers,
        };
        let mut probe = Procs::spawn(&self.exe()?, &["setup", &workers.to_string()], 1)?;
        let ready = probe.round_trip(&hello_line(&self.scenario, self.seed))?;
        probe.wait();
        let figures: Option<Vec<u64>> = ready[0]
            .strip_prefix("ready ")
            .and_then(|rest| rest.split(' ').map(|n| n.parse().ok()).collect());
        let Some(&[cells, setup_ns, spawn_ns]) = figures.as_deref() else {
            return Err(format!("set-up probe answered {:?}", ready[0]));
        };
        if cells as usize != self.cells()?.len() {
            return Err(format!("set-up probe resolved {cells} cells"));
        }
        Ok((
            Duration::from_nanos(setup_ns),
            Duration::from_nanos(spawn_ns),
        ))
    }

    /// One untimed sweep with the `meg_obs` recorder installed (in the
    /// workers too, for a pool), returning its rows and counters.
    pub fn counts(&self) -> Result<Counts, String> {
        obs::install();
        let pass = match self.mode {
            Mode::InProcess => self
                .sweep_in_process()
                .map(|lines| (lines, obs::snapshot(), 0)),
            Mode::Pool(workers) => {
                let mut lines = Vec::new();
                run_sharded(
                    &self.scenario,
                    self.seed,
                    &self.dist_options(workers, true),
                    |_, line| lines.push(line.to_string()),
                )
                .map_err(|e| format!("pool count pass: {e}"))
                .map(|report| {
                    let mut merged = MetricsSnapshot::empty();
                    for lane in &report.worker_metrics {
                        merged.merge(lane);
                    }
                    let trips = obs::snapshot()
                        .span("worker_round_trip")
                        .map_or(0, |s| s.count);
                    (lines, merged, trips)
                })
            }
        };
        obs::uninstall();
        let (lines, snap, round_trips) = pass?;
        Ok(Counts {
            lines,
            edge_flips: snap.counter(Counter::EdgeBirths.name())
                + snap.counter(Counter::EdgeDeaths.name()),
            rng_draws: snap.counter(Counter::RngDraws.name()),
            scan_visits: snap.counter(Counter::BucketScanVisits.name()),
            round_trips,
        })
    }

    /// The reference rows for the output check: `lines[i]` where it is a
    /// well-formed row of cell `i` (its own index, scenario, derived seed and
    /// trial count, and a lossless re-rendering), `None` where it is not.
    pub fn reference(&self, cells: &[Cell], lines: &[String]) -> Vec<Option<String>> {
        cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let line = lines.get(i)?;
                let row = Row::from_json(&Json::parse(line).ok()?).ok()?;
                let ok = row.cell == i
                    && row.scenario == self.scenario.name
                    && row.seed == cell_seed(&self.scenario.name, self.seed, i)
                    && row.trials == cell.trials
                    && row.to_json().render() == *line;
                ok.then(|| line.clone())
            })
            .collect()
    }
}

/// Cells whose row in `lines` is missing, extra, or differs from a valid
/// reference row.
pub fn misses(reference: &[Option<String>], lines: &[String]) -> usize {
    let bad = reference
        .iter()
        .enumerate()
        .filter(|(i, r)| r.is_none() || lines.get(*i) != r.as_ref())
        .count();
    bad + lines.len().saturating_sub(reference.len())
}

/// The `setup` subcommand, the child side of [`Target::setup`]: reads the
/// hello line from stdin, then times resolving its scenario's cells and
/// spawning `workers` pool workers and completing their handshake, prints
/// `ready <cells> <set-up ns> <spawn-and-handshake ns>`, then shuts the
/// workers down.
pub fn serve_setup(workers: usize) -> Result<(), String> {
    let mut line = String::new();
    std::io::stdin()
        .lock()
        .read_line(&mut line)
        .map_err(|e| format!("read hello: {e}"))?;
    let hello = Json::parse(line.trim_end()).map_err(|e| format!("hello: {e}"))?;
    let hello = hello.get("hello").ok_or("hello: missing `hello`")?;
    let scenario = Scenario::from_json(hello.get("scenario").ok_or("hello: missing `scenario`")?)
        .map_err(|e| format!("hello: {e}"))?;
    let seed = hello
        .get("master_seed")
        .and_then(Json::as_str)
        .and_then(|s| s.parse().ok())
        .ok_or("hello: `master_seed` must be a u64 string")?;
    let setup_start = Instant::now();
    let cells = resolve_cells(&scenario).map_err(|e| format!("resolve: {e}"))?;
    let start = Instant::now();
    let mut pool = None;
    if workers > 0 {
        let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
        let mut p = Procs::spawn(&exe, &["worker"], workers)?;
        for ready in p.round_trip(&hello_line(&scenario, seed))? {
            let num_cells = Json::parse(&ready)
                .ok()
                .and_then(|v| v.get("ready")?.get("num_cells")?.as_usize());
            if num_cells != Some(cells.len()) {
                return Err(format!("worker answered the hello with {ready:?}"));
            }
        }
        pool = Some(p);
    }
    let setup_ns = setup_start.elapsed().as_nanos();
    let spawn_ns = if workers > 0 {
        start.elapsed().as_nanos()
    } else {
        0
    };
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready {} {setup_ns} {spawn_ns}", cells.len())
        .and_then(|()| out.flush())
        .map_err(|e| format!("write ready: {e}"))?;
    if let Some(mut p) = pool {
        p.send(&shutdown_line());
        p.wait();
    }
    Ok(())
}

/// Child processes of this binary with piped stdin and stdout; any still
/// held when dropped are killed and reaped.
struct Procs(Vec<(Child, Option<ChildStdin>, BufReader<ChildStdout>)>);

impl Procs {
    /// Spawns `count` copies of `<exe> <args>`, each with one trial thread.
    fn spawn(exe: &Path, args: &[&str], count: usize) -> Result<Procs, String> {
        let mut procs = Procs(Vec::with_capacity(count));
        for _ in 0..count {
            let mut child = Command::new(exe)
                .args(args)
                .env("RAYON_NUM_THREADS", "1")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn `{}`: {e}", exe.display()))?;
            let stdin = child.stdin.take();
            let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
            procs.0.push((child, stdin, stdout));
        }
        Ok(procs)
    }

    /// Writes `line` to every child, then reads one line from each.
    fn round_trip(&mut self, line: &str) -> Result<Vec<String>, String> {
        for (_, stdin, _) in &mut self.0 {
            let stdin = stdin.as_mut().expect("stdin is open until wait");
            writeln!(stdin, "{line}")
                .and_then(|()| stdin.flush())
                .map_err(|e| format!("write to child: {e}"))?;
        }
        let mut replies = Vec::with_capacity(self.0.len());
        for (_, _, stdout) in &mut self.0 {
            let mut reply = String::new();
            match stdout.read_line(&mut reply) {
                Ok(0) => return Err("child closed its stdout".into()),
                Ok(_) => replies.push(reply.trim_end().to_string()),
                Err(e) => return Err(format!("read from child: {e}")),
            }
        }
        Ok(replies)
    }

    /// Writes `line` to every child, ignoring children that already left.
    fn send(&mut self, line: &str) {
        for (_, stdin, _) in &mut self.0 {
            if let Some(stdin) = stdin {
                let _ = writeln!(stdin, "{line}").and_then(|()| stdin.flush());
            }
        }
    }

    /// Closes every child's stdin and waits for it to exit.
    fn wait(&mut self) {
        for (mut child, stdin, _) in self.0.drain(..) {
            drop(stdin);
            let _ = child.wait();
        }
    }
}

impl Drop for Procs {
    fn drop(&mut self) {
        for (child, _, _) in &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
