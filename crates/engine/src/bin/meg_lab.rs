//! `meg-lab` — the single entry point for every experiment.
//!
//! ```text
//! meg-lab list                      # built-in scenarios
//! meg-lab show <name>               # print a scenario as JSON
//! meg-lab run <name> [flags]        # run a built-in scenario
//! meg-lab run --file scenario.json  # run a scenario from disk
//! meg-lab worker [--fail-after N]   # trial-batch server (stdin/stdout)
//! meg-lab merge <dir> [--format F]  # merge *.part.jsonl checkpoints
//! meg-lab bench [names…] [flags]    # wall-time measurement harness
//!
//! bench flags:
//!   --list                list the registered workloads
//!   --repetitions R       measured repetitions        (default 5)
//!   --warmup W            untimed warm-up repetitions (default 2)
//!   --scale F             node-count multiplier       (default 1)
//!   --label STR           label recorded in the JSON document
//!   --out FILE            also write the full JSON document to FILE
//!   --counters            run one extra untimed repetition per workload with
//!                         the meg-obs recorder installed and record its
//!                         counter deltas in the JSON (timed reps stay
//!                         metrics-off)
//!   --overhead            A/B-time each workload metrics-off vs metrics-on
//!                         and print the ratio (the ≤ 5% guard in ci.sh)
//!   --baseline FILE       after the run, compare each workload's median
//!                         against FILE (a committed BENCH_PR*.json or a
//!                         previous --out document), print the per-workload
//!                         ratio table on stderr, and exit 4 if any workload
//!                         ran slower than threshold × baseline or its
//!                         checksum diverged; if both the run and FILE
//!                         include the `calibration` workload, medians are
//!                         compared in units of each side's calibration
//!                         median (host speed divided out; the calibration
//!                         row itself fails only on a checksum mismatch)
//!   --baseline-threshold F
//!                         regression gate for --baseline (default 1.25)
//!
//! run flags:
//!   --seed N              master seed        (default: MEG_SEED or 2009)
//!   --trials N            trials per cell    (default: MEG_TRIALS or scenario)
//!   --scale F             node-count scale   (default: MEG_SCALE or 1)
//!   --format table|json|csv                  (default: MEG_OUTPUT or table)
//!   --metrics report|jsonl
//!                         install the meg-obs recorder and emit counters,
//!                         gauges, and span timings to stderr after the run
//!                         (default: MEG_METRICS or off); row output on
//!                         stdout is byte-identical either way. Under
//!                         --workers K the workers ship their own counters
//!                         back and the summary reports the merged view with
//!                         per-worker subtotals
//!   --trace FILE          record per-cell lifecycle events (dispatch,
//!                         respawns, retries, adaptive doubling) and write
//!                         them to FILE as Chrome trace-event JSON, viewable
//!                         in Perfetto (one timeline lane per worker)
//!   --progress            throttled single-line status on stderr (cells
//!                         done/total, rows/s, per-worker throughput,
//!                         respawns, ETA); auto-disabled when stderr is not
//!                         a TTY (MEG_PROGRESS_FORCE=1 overrides)
//!   --verbose             narrate worker fault events (deaths, respawns,
//!                         retries) on stderr, prefixed with monotonic
//!                         elapsed milliseconds and the cell index
//!
//! adaptive-precision run flags:
//!   --target-stderr EPS   grow each cell's trials until the standard error
//!                         of its observable is ≤ EPS (0 = spend the budget)
//!   --min-trials N        trials before the first check  (default: --trials)
//!   --max-trials N        per-cell budget                (default: 32 × min)
//!
//! distributed run flags (see the `meg_engine::dist` docs):
//!   --shard i/m           run only shard i of an m-way split
//!   --strategy contiguous|round_robin        (default: contiguous)
//!   --workers K           dispatch cells to K worker subprocesses
//!   --out DIR             checkpoint completed rows to DIR/*.part.jsonl
//!   --resume DIR          skip cells already checkpointed in DIR
//!   --limit N             stop after N new cells (checkpoint stays valid)
//!   --worker-fail-after N fault injection: workers abort after N requests
//! ```

use meg_engine::dist::{merge_dir, run_sharded, worker, DistOptions, ShardSpec, ShardStrategy};
use meg_engine::harness::{self, MetricsMode};
use meg_engine::run::Row;
use meg_engine::scenario::Scenario;
use meg_engine::sink::{row_to_csv, rows_to_table, OutputFormat, CSV_HEADER};
use meg_engine::{builtin, builtin_names, Json};
use std::fmt;
use std::io::{self, Write};
use std::path::PathBuf;

const USAGE: &str = "usage:
  meg-lab list
  meg-lab show <name>
  meg-lab run <name | --file scenario.json> \\
          [--seed N] [--trials N] [--scale F] [--format table|json|csv] \\
          [--metrics report|jsonl] \\
          [--target-stderr EPS] [--min-trials N] [--max-trials N] \\
          [--shard i/m] [--strategy contiguous|round_robin] [--workers K] \\
          [--out DIR] [--resume DIR] [--limit N] [--worker-fail-after N] \\
          [--trace FILE] [--progress] [--verbose]
  meg-lab worker [--fail-after N]
  meg-lab merge <dir> [--format table|json|csv]
  meg-lab bench [names…] [--list] [--repetitions R] [--warmup W] \\
          [--scale F] [--label STR] [--out FILE] [--counters] [--overhead] \\
          [--baseline FILE] [--baseline-threshold F]

Environment defaults for `run`: MEG_SEED, MEG_TRIALS, MEG_SCALE, MEG_OUTPUT,
MEG_METRICS, MEG_TARGET_STDERR, MEG_MIN_TRIALS, MEG_MAX_TRIALS. Flags win over
the environment; a value its flag would reject exits 2.";

fn fail(msg: &str) -> ! {
    eprintln!("meg-lab: {msg}");
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// The locked stdout everything `meg-lab` prints goes through. Once its
/// reader has gone away (`meg-lab run … | head -1`, or a worker's
/// coordinator that exited) the process ends at once, with status 0 and
/// nothing on stderr; a pool's workers stop at their next stdin read (EOF)
/// or reply write.
struct Out(io::StdoutLock<'static>);

impl Write for Out {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf).map_err(exit_if_closed)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush().map_err(exit_if_closed)
    }
}

fn exit_if_closed(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    e
}

impl Out {
    /// Prints `text`; a write error other than a closed reader goes
    /// through [`fail`].
    fn print(&mut self, text: impl fmt::Display) {
        write!(self, "{text}").unwrap_or_else(|e| fail(&format!("cannot write to stdout: {e}")));
    }

    /// Prints `text` and a newline.
    fn println(&mut self, text: impl fmt::Display) {
        self.print(format_args!("{text}\n"));
    }
}

/// One validation rule per `run` knob: the `--flag` and its `MEG_*`
/// environment default go through the same parser, so a value the flag
/// rejects exits 2 from the environment too, with a message naming the
/// variable.
struct Knob<T> {
    flag: &'static str,
    var: &'static str,
    must_be: &'static str,
    parse: fn(&str) -> Option<T>,
}

impl<T> Knob<T> {
    fn parse_or_fail(&self, name: &str, value: &str) -> T {
        (self.parse)(value)
            .unwrap_or_else(|| fail(&format!("{name} must be {}, not `{value}`", self.must_be)))
    }

    /// The flag's value.
    fn flag(&self, value: &str) -> T {
        self.parse_or_fail(self.flag, value)
    }

    /// The flag's value if given, else the environment default if set.
    fn or_env(&self, flag: Option<T>) -> Option<T> {
        flag.or_else(|| {
            let value = std::env::var(self.var).ok()?;
            Some(self.parse_or_fail(self.var, &value))
        })
    }
}

fn positive_integer(s: &str) -> Option<usize> {
    s.parse().ok().filter(|&t| t >= 1)
}

const SEED: Knob<u64> = Knob {
    flag: "--seed",
    var: "MEG_SEED",
    must_be: "a u64",
    parse: |s| s.parse().ok(),
};
const TRIALS: Knob<usize> = Knob {
    flag: "--trials",
    var: "MEG_TRIALS",
    must_be: "a positive integer",
    parse: positive_integer,
};
const SCALE: Knob<f64> = Knob {
    flag: "--scale",
    var: "MEG_SCALE",
    must_be: "a positive number",
    parse: |s| s.parse().ok().filter(|&f: &f64| f > 0.0),
};
const FORMAT: Knob<OutputFormat> = Knob {
    flag: "--format",
    var: "MEG_OUTPUT",
    must_be: "table, json or csv",
    parse: |s| s.parse().ok(),
};
const METRICS: Knob<MetricsMode> = Knob {
    flag: "--metrics",
    var: "MEG_METRICS",
    must_be: "report or jsonl",
    parse: |s| s.parse().ok(),
};
const TARGET_STDERR: Knob<f64> = Knob {
    flag: "--target-stderr",
    var: "MEG_TARGET_STDERR",
    must_be: "a finite number ≥ 0",
    parse: |s| s.parse().ok().filter(|e: &f64| *e >= 0.0 && e.is_finite()),
};
const MIN_TRIALS: Knob<usize> = Knob {
    flag: "--min-trials",
    var: "MEG_MIN_TRIALS",
    must_be: "a positive integer",
    parse: positive_integer,
};
const MAX_TRIALS: Knob<usize> = Knob {
    flag: "--max-trials",
    var: "MEG_MAX_TRIALS",
    must_be: "a positive integer",
    parse: positive_integer,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = &mut Out(io::stdout().lock());
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(out),
        Some("show") => cmd_show(out, &args[1..]),
        Some("run") => cmd_run(out, &args[1..]),
        Some("worker") => cmd_worker(out, &args[1..]),
        Some("merge") => cmd_merge(out, &args[1..]),
        Some("bench") => cmd_bench(out, &args[1..]),
        Some("--help") | Some("-h") | Some("help") | None => out.println(USAGE),
        Some(other) => fail(&format!("unknown command `{other}`")),
    }
}

fn cmd_list(out: &mut Out) {
    out.println("built-in scenarios:");
    for name in builtin_names() {
        let s = builtin(name).expect("registry is consistent");
        out.println(format_args!(
            "  {name:<20} {} [{} cells × {} trials]",
            s.description,
            s.num_cells(),
            s.trials
        ));
    }
}

fn cmd_show(out: &mut Out, args: &[String]) {
    let Some(name) = args.first() else {
        fail("`show` needs a scenario name");
    };
    match builtin(name) {
        Some(s) => out.println(s.to_json().render_pretty()),
        None => fail(&format!(
            "unknown scenario `{name}` (try: {})",
            builtin_names().join(", ")
        )),
    }
}

fn parse_row(line: &str) -> Row {
    let json = Json::parse(line).unwrap_or_else(|e| fail(&format!("bad row line: {e}")));
    Row::from_json(&json).unwrap_or_else(|e| fail(&format!("bad row line: {e}")))
}

/// Absolute form of `path` with `.` and `..` components resolved lexically
/// (no filesystem access, so it works for directories that don't exist yet).
fn normalized(path: &PathBuf) -> PathBuf {
    use std::path::Component;
    let absolute = if path.is_absolute() {
        path.clone()
    } else {
        std::env::current_dir().unwrap_or_default().join(path)
    };
    let mut out = PathBuf::new();
    for component in absolute.components() {
        match component {
            Component::CurDir => {}
            Component::ParentDir => {
                out.pop();
            }
            other => out.push(other),
        }
    }
    out
}

fn cmd_run(out: &mut Out, args: &[String]) {
    let mut name: Option<String> = None;
    let mut file: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut trials: Option<usize> = None;
    let mut scale: Option<f64> = None;
    let mut format: Option<OutputFormat> = None;
    let mut target_stderr: Option<f64> = None;
    let mut min_trials: Option<usize> = None;
    let mut max_trials: Option<usize> = None;
    let mut shard: Option<ShardSpec> = None;
    let mut strategy: Option<ShardStrategy> = None;
    let mut workers: Option<usize> = None;
    let mut out_dir: Option<PathBuf> = None;
    let mut resume_dir: Option<PathBuf> = None;
    let mut limit: Option<usize> = None;
    let mut worker_fail_after: Option<usize> = None;
    let mut metrics: Option<MetricsMode> = None;
    let mut trace: Option<PathBuf> = None;
    let mut progress = false;
    let mut verbose = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |what: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => fail(&format!("`{what}` needs a value")),
            }
        };
        match arg.as_str() {
            "--file" => file = Some(flag_value("--file")),
            "--seed" => seed = Some(SEED.flag(&flag_value("--seed"))),
            "--trials" => trials = Some(TRIALS.flag(&flag_value("--trials"))),
            "--scale" => scale = Some(SCALE.flag(&flag_value("--scale"))),
            "--format" => format = Some(FORMAT.flag(&flag_value("--format"))),
            "--target-stderr" => {
                target_stderr = Some(TARGET_STDERR.flag(&flag_value("--target-stderr")))
            }
            "--min-trials" => min_trials = Some(MIN_TRIALS.flag(&flag_value("--min-trials"))),
            "--max-trials" => max_trials = Some(MAX_TRIALS.flag(&flag_value("--max-trials"))),
            "--shard" => {
                shard = Some(ShardSpec::parse(&flag_value("--shard")).unwrap_or_else(|e| fail(&e)))
            }
            "--strategy" => {
                strategy = Some(
                    flag_value("--strategy")
                        .parse()
                        .unwrap_or_else(|e: String| fail(&e)),
                )
            }
            "--workers" => {
                workers = Some(
                    flag_value("--workers")
                        .parse::<usize>()
                        .unwrap_or_else(|_| fail("--workers must be a non-negative integer")),
                )
            }
            "--out" => out_dir = Some(PathBuf::from(flag_value("--out"))),
            "--resume" => resume_dir = Some(PathBuf::from(flag_value("--resume"))),
            "--limit" => {
                limit = Some(
                    flag_value("--limit")
                        .parse::<usize>()
                        .unwrap_or_else(|_| fail("--limit must be a non-negative integer")),
                )
            }
            "--worker-fail-after" => {
                worker_fail_after = Some(
                    flag_value("--worker-fail-after")
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| fail("--worker-fail-after must be ≥ 1")),
                )
            }
            "--metrics" => metrics = Some(METRICS.flag(&flag_value("--metrics"))),
            "--trace" => trace = Some(PathBuf::from(flag_value("--trace"))),
            "--progress" => progress = true,
            "--verbose" => verbose = true,
            other if other.starts_with('-') => fail(&format!("unknown flag `{other}`")),
            other if name.is_none() => name = Some(other.to_string()),
            other => fail(&format!("unexpected argument `{other}`")),
        }
    }

    let pristine = match (&name, &file) {
        (Some(_), Some(_)) => fail("pass either a scenario name or --file, not both"),
        (None, None) => fail("`run` needs a scenario name or --file"),
        (Some(n), None) => builtin(n).unwrap_or_else(|| {
            fail(&format!(
                "unknown scenario `{n}` (try: {})",
                builtin_names().join(", ")
            ))
        }),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(&format!("cannot read `{path}`: {e}")));
            Scenario::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse `{path}`: {e}")))
        }
    };

    // Explicit flags win over the environment: --scale replaces MEG_SCALE
    // (scaling is not composable — it always starts from the pristine
    // definition), --trials wins over MEG_TRIALS.
    let mut scenario = pristine.scaled(SCALE.or_env(scale).unwrap_or(1.0));
    if let Some(t) = TRIALS.or_env(trials) {
        scenario.trials = t;
    }
    // The adaptive budget's environment defaults are validated even when
    // no target is set, like every other knob.
    let adaptive_min = MIN_TRIALS.or_env(min_trials);
    let adaptive_max = MAX_TRIALS.or_env(max_trials);
    match TARGET_STDERR.or_env(target_stderr) {
        Some(eps) => {
            scenario.precision =
                harness::resolve_target_stderr(eps, adaptive_min, adaptive_max, scenario.trials)
                    .unwrap_or_else(|e| fail(&e));
        }
        None if min_trials.is_some() || max_trials.is_some() => {
            fail("--min-trials/--max-trials shape the adaptive budget; pass --target-stderr EPS")
        }
        None => {}
    }
    let seed = SEED.or_env(seed).unwrap_or(2009);
    let format = FORMAT.or_env(format).unwrap_or_default();
    let metrics = METRICS.or_env(metrics);

    if let (Some(out), Some(res)) = (&out_dir, &resume_dir) {
        // Compare lexically-normalized absolute paths so equivalent
        // spellings (`--out ./x --resume x`) are accepted even before the
        // directory exists; symlink aliasing is out of scope.
        if normalized(out) != normalized(res) {
            fail("--out and --resume point at different directories");
        }
    }
    if worker_fail_after.is_some() && workers.unwrap_or(0) == 0 {
        fail("--worker-fail-after only injects faults into a worker pool; pass --workers K ≥ 1");
    }
    if limit.is_some() && out_dir.is_none() && resume_dir.is_none() {
        // Without a checkpoint the partial work would simply be lost.
        fail("--limit stops a run early; pass --out DIR so the completed cells are checkpointed");
    }
    let resume = resume_dir.is_some();
    let mut shard = shard.unwrap_or_else(ShardSpec::full);
    if let Some(s) = strategy {
        shard.strategy = s;
    }
    let opts = DistOptions {
        shard,
        workers: workers.unwrap_or(0),
        out_dir: resume_dir.or(out_dir),
        resume,
        limit,
        worker_cmd: None,
        worker_fail_after,
        max_retries: 3,
        verbose,
        // Workers ship their counters back whenever a metrics sink wants
        // them; without one the extra protocol lines would be dead weight.
        ship_metrics: metrics.is_some() && workers.unwrap_or(0) > 0,
        trace,
        progress,
    };

    if metrics.is_some() {
        meg_engine::obs::install();
    }
    let mut prev = meg_engine::obs::snapshot();
    let mut table_rows: Vec<Row> = Vec::new();
    // The CSV header goes out with the first row, or after a run that
    // emitted none: `run_sharded` validates the scenario (and any
    // checkpoint) before its first row, so a rejected run prints nothing.
    let mut csv_header_due = format == OutputFormat::Csv;
    let report = run_sharded(&scenario, seed, &opts, |cell, line| {
        if std::mem::take(&mut csv_header_due) {
            out.println(CSV_HEADER);
        }
        match format {
            OutputFormat::Json => out.println(line),
            OutputFormat::Csv => out.println(row_to_csv(&parse_row(line))),
            OutputFormat::Table => table_rows.push(parse_row(line)),
        }
        if let Some(mode) = metrics {
            harness::emit_cell_metrics(mode, cell, &mut prev);
        }
    })
    .unwrap_or_else(|e| fail(&format!("run failed: {e}")));
    if csv_header_due {
        out.println(CSV_HEADER);
    }
    if let Some(mode) = metrics {
        harness::emit_metrics_summary_merged(mode, &report.worker_metrics);
    }

    if format == OutputFormat::Table {
        // A run of every cell without a checkpoint reads like one sweep; a
        // shard or a checkpointed run also says what it executed and resumed.
        let whole = opts.shard.count == 1 && opts.out_dir.is_none();
        let shard_note = if whole {
            String::new()
        } else {
            format!(", shard {}", opts.shard)
        };
        let caption = format!(
            "{}: {} (seed {seed}{shard_note})",
            scenario.name, scenario.description
        );
        out.print(rows_to_table(&caption, &table_rows).render_ascii());
        if whole {
            out.println(format_args!(
                "\n{} cells, seed {seed}; rerun any cell in isolation with the `seed` \
                 column of its row.",
                report.rows.len()
            ));
        } else {
            out.println(format_args!(
                "\nshard {}: {} of {} cell(s) emitted ({} executed, {} resumed).",
                opts.shard,
                report.rows.len(),
                report.assigned,
                report.executed,
                report.resumed
            ));
        }
    }
    if !report.complete {
        let remaining = report.assigned - report.rows.len();
        eprintln!(
            "meg-lab: --limit reached with {remaining} cell(s) outstanding; \
             finish with `meg-lab run … --resume <dir>`"
        );
        std::process::exit(3);
    }
}

fn cmd_bench(out: &mut Out, args: &[String]) {
    use meg_engine::bench::{
        bench_names, results_to_json, run_bench, run_bench_with_counters, run_overhead,
        BenchOptions,
    };

    let mut opts = BenchOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut label = String::from("meg-lab bench");
    let mut out_file: Option<PathBuf> = None;
    let mut list = false;
    let mut counters = false;
    let mut overhead = false;
    let mut baseline: Option<PathBuf> = None;
    let mut baseline_threshold = 1.25f64;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |what: &str| -> String {
            match it.next() {
                Some(v) => v.clone(),
                None => fail(&format!("`{what}` needs a value")),
            }
        };
        match arg.as_str() {
            "--list" => list = true,
            "--repetitions" => {
                opts.repetitions = flag_value("--repetitions")
                    .parse::<usize>()
                    .ok()
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| fail("--repetitions must be a positive integer"));
            }
            "--warmup" => {
                opts.warmup = flag_value("--warmup")
                    .parse::<usize>()
                    .unwrap_or_else(|_| fail("--warmup must be a non-negative integer"));
            }
            "--scale" => {
                opts.scale = flag_value("--scale")
                    .parse::<f64>()
                    .ok()
                    .filter(|&f| f > 0.0)
                    .unwrap_or_else(|| fail("--scale must be a positive number"));
            }
            "--label" => label = flag_value("--label"),
            "--out" => out_file = Some(PathBuf::from(flag_value("--out"))),
            "--counters" => counters = true,
            "--overhead" => overhead = true,
            "--baseline" => baseline = Some(PathBuf::from(flag_value("--baseline"))),
            "--baseline-threshold" => {
                baseline_threshold = flag_value("--baseline-threshold")
                    .parse::<f64>()
                    .ok()
                    .filter(|&f| f > 0.0)
                    .unwrap_or_else(|| fail("--baseline-threshold must be a positive number"));
            }
            other if other.starts_with('-') => fail(&format!("unknown bench flag `{other}`")),
            other => names.push(other.to_string()),
        }
    }

    if list {
        out.println("registered bench workloads:");
        for name in bench_names() {
            out.println(format_args!("  {name}"));
        }
        return;
    }
    let names: Vec<String> = if names.is_empty() {
        bench_names().into_iter().map(String::from).collect()
    } else {
        names
    };

    if overhead && baseline.is_some() {
        fail("--baseline compares timed results; it cannot be combined with --overhead");
    }
    if overhead {
        // A/B mode: each workload timed metrics-off then metrics-on under
        // identical options; the ratio is the instrumentation overhead.
        let measurements: Vec<_> = names
            .iter()
            .map(|name| {
                let m = run_overhead(name, &opts).unwrap_or_else(|| {
                    fail(&format!(
                        "unknown bench `{name}` (try: {})",
                        bench_names().join(", ")
                    ))
                });
                out.println(m.to_json().render());
                m
            })
            .collect();
        if let Some(path) = out_file {
            let doc = meg_engine::Json::obj([
                ("label", meg_engine::Json::Str(label)),
                (
                    "harness",
                    meg_engine::Json::Str("meg-lab bench --overhead".to_string()),
                ),
                (
                    "overhead",
                    meg_engine::Json::Arr(measurements.iter().map(|m| m.to_json()).collect()),
                ),
            ]);
            std::fs::write(&path, doc.render_pretty() + "\n")
                .unwrap_or_else(|e| fail(&format!("cannot write `{}`: {e}", path.display())));
            eprintln!(
                "meg-lab bench: wrote {} overhead measurement(s) to {}",
                measurements.len(),
                path.display()
            );
        }
        return;
    }

    let mut results = Vec::with_capacity(names.len());
    for name in &names {
        let runner = if counters {
            run_bench_with_counters
        } else {
            run_bench
        };
        let r = runner(name, &opts).unwrap_or_else(|| {
            fail(&format!(
                "unknown bench `{name}` (try: {})",
                bench_names().join(", ")
            ))
        });
        out.println(r.to_json().render());
        results.push(r);
    }
    let doc = results_to_json(&label, &opts, &results);
    if let Some(path) = out_file {
        std::fs::write(&path, doc.render_pretty() + "\n")
            .unwrap_or_else(|e| fail(&format!("cannot write `{}`: {e}", path.display())));
        eprintln!(
            "meg-lab bench: wrote {} result(s) to {}",
            results.len(),
            path.display()
        );
    }

    if let Some(path) = baseline {
        use meg_engine::bench_baseline::{compare, parse_baseline, regressions, render_table};
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline `{}`: {e}", path.display())));
        let base = parse_baseline(&text)
            .unwrap_or_else(|e| fail(&format!("baseline `{}`: {e}", path.display())));
        let rows = compare(&results, &base);
        eprint!(
            "\nbaseline comparison against {} (threshold {baseline_threshold}x):\n{}",
            path.display(),
            render_table(&rows, baseline_threshold)
        );
        if !regressions(&rows, baseline_threshold).is_empty() {
            std::process::exit(4);
        }
    }
}

fn cmd_worker(out: &mut Out, args: &[String]) {
    let mut fail_after: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fail-after" => {
                fail_after = Some(
                    it.next()
                        .and_then(|v| v.parse::<usize>().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| fail("--fail-after must be a positive integer")),
                )
            }
            other => fail(&format!("unknown worker flag `{other}`")),
        }
    }
    if let Err(e) = worker::serve(io::stdin().lock(), out, fail_after) {
        eprintln!("meg-lab worker: {e}");
        std::process::exit(2);
    }
}

fn cmd_merge(out: &mut Out, args: &[String]) {
    let mut dir: Option<PathBuf> = None;
    let mut format = OutputFormat::Json;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => {
                format = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fail("--format must be table|json|csv"))
            }
            other if other.starts_with('-') => fail(&format!("unknown merge flag `{other}`")),
            other if dir.is_none() => dir = Some(PathBuf::from(other)),
            other => fail(&format!("unexpected argument `{other}`")),
        }
    }
    let Some(dir) = dir else {
        fail("`merge` needs a directory of *.part.jsonl files");
    };
    let merged = merge_dir(&dir).unwrap_or_else(|e| fail(&format!("merge failed: {e}")));
    match format {
        OutputFormat::Json => {
            for line in &merged.lines {
                out.println(line);
            }
        }
        OutputFormat::Csv => {
            out.println(CSV_HEADER);
            for line in &merged.lines {
                out.println(row_to_csv(&parse_row(line)));
            }
        }
        OutputFormat::Table => {
            let rows: Vec<Row> = merged.lines.iter().map(|l| parse_row(l)).collect();
            let caption = format!(
                "{} (merged, seed {})",
                merged.header.scenario, merged.header.master_seed
            );
            out.print(rows_to_table(&caption, &rows).render_ascii());
        }
    }
    eprintln!(
        "meg-lab: merged {} row(s) from {} part file(s){}",
        merged.lines.len(),
        merged.parts,
        if merged.duplicates > 0 {
            format!(" ({} duplicate(s) dropped)", merged.duplicates)
        } else {
            String::new()
        }
    );
}
