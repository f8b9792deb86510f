//! `perfbench`: the end-to-end sweep benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench worker          # pool worker: the engine's dist worker protocol
//! perfbench setup <workers> # one timed set-up in a fresh process
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! runs the traced replica and prints the per-layer metrics. Human-readable
//! report lines come first; the last line of stdout is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. See README.md.

use meg_engine::dist::worker;
use meg_engine::Json;
use meg_perfbench::quantile;
use meg_perfbench::rusage::{self, Who};
use meg_perfbench::trace::{traced_sweep, Traced};
use meg_perfbench::workload::{self, misses, Mode, Target, Workload};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups timed before each sweep, each in a fresh process, so that the
/// set-up median samples the whole run as the sweeps do. On the pool
/// workload, 100 set-ups taken at once before the first sweep spread 0.24
/// (quartile distance over median) from run to run, against 0.03 for 20
/// before each sweep.
const SETUPS_PER_SWEEP: usize = 20;

/// Where the traced run writes its spans, relative to the checkout root.
const SPAN_DIR: &str = "perfbench/out";

struct Cli {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = 2009;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "--seed must be a u64")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds must be a non-negative number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

/// What a run measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let child = match args.first().map(String::as_str) {
        Some("worker") => {
            let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
            Some(
                worker::serve(stdin.lock(), stdout.lock(), None)
                    .map(|_| ())
                    .map_err(|e| e.to_string()),
            )
        }
        Some("setup") => Some(match args.get(1).and_then(|w| w.parse().ok()) {
            Some(workers) => workload::serve_setup(workers),
            None => Err("usage: perfbench setup <workers>".into()),
        }),
        _ => None,
    };
    if let Some(served) = child {
        return match served {
            Ok(_) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench {}: {e}", args[0]);
                ExitCode::FAILURE
            }
        };
    }
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Mode::Pool(_) = cli.workload.mode {
        // Set before any thread starts. Pool workers inherit it (one trial
        // thread each), and this process's in-process reference and traced
        // replica then run single-threaded, as the workers do.
        std::env::set_var("RAYON_NUM_THREADS", "1");
    }
    let target = Target {
        scenario: cli.workload.scenario(1.0),
        seed: cli.seed,
        mode: cli.workload.mode,
        exe: None,
    };
    let outcome = if cli.trace {
        per_layer(&cli, &target)
    } else {
        end_to_end(&cli, &target)
    };
    match outcome {
        Ok(outcome) => {
            print_result(&cli, &outcome);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload.name);
            ExitCode::FAILURE
        }
    }
}

/// Times [`SETUPS_PER_SWEEP`] set-ups, returning their whole set-up and
/// spawn-and-handshake seconds.
fn setups(target: &Target) -> Result<(Vec<f64>, Vec<f64>), String> {
    let (mut total, mut spawn) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS_PER_SWEEP {
        let (t, s) = target.setup()?;
        total.push(t.as_secs_f64());
        spawn.push(s.as_secs_f64());
    }
    Ok((total, spawn))
}

/// Times `f`, returning its value and the wall seconds it took.
fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let start = Instant::now();
    let value = f()?;
    Ok((value, start.elapsed().as_secs_f64()))
}

/// The median of `values` (0 for none).
fn median(values: &[f64]) -> f64 {
    meg_stats::quantile::quantile(values, 0.5).unwrap_or(0.0)
}

/// The end-to-end run: a batch of set-ups, then a sweep, again and again
/// until `--seconds` have passed, with tracing off. Every sweep runs under
/// `--seed` and must render the rows of the first; for a pool, those of an
/// in-process run of the same scenario and seed.
fn end_to_end(cli: &Cli, target: &Target) -> Result<Outcome, String> {
    let cells = target.cells()?;
    let (mut setup_times, mut walls, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut sweeps = Vec::new();
    let started = Instant::now();
    while sweeps.is_empty() || started.elapsed().as_secs_f64() < cli.seconds {
        setup_times.extend(setups(target)?.0);
        let cpu = rusage::total_cpu_s();
        let (lines, wall) = timed(|| target.sweep())?;
        cpus.push(rusage::total_cpu_s() - cpu);
        walls.push(wall);
        sweeps.push(lines);
    }
    let peak_kib = match target.mode {
        Mode::InProcess => rusage::own_peak_rss_kib()?,
        Mode::Pool(_) => rusage::usage(Who::Children).maxrss_kib,
    };
    // The pool's in-process reference runs only now, after the last child
    // was spawned: exec keeps the peak of the memory it replaces, so a child
    // spawned after it would report this process's trial peak as its own.
    let reference = match target.mode {
        Mode::InProcess => target.reference(&cells, &sweeps[0]),
        Mode::Pool(_) => target.reference(&cells, &target.sweep_in_process()?),
    };
    let failed = sweeps.iter().map(|lines| misses(&reference, lines)).sum();
    let attempted = sweeps.len() * cells.len();
    let sweeps = walls.len();
    let range = |v: &[f64]| {
        let (lo, hi) = v
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        format!("{lo:.4}..{hi:.4}")
    };
    Ok(Outcome {
        metrics: vec![
            Metric {
                note: format!(
                    "median of {} set-ups, each in a fresh process",
                    setup_times.len()
                ),
                ..metric("setup_s", median(&setup_times), "s")
            },
            Metric {
                note: format!(
                    "median of {sweeps} sweeps of {} cells, range {} s",
                    cells.len(),
                    range(&walls)
                ),
                ..metric("sweep_s", median(&walls), "s")
            },
            Metric {
                note: format!("median of {sweeps} sweeps, user+system, workers included"),
                ..metric("cpu_s", median(&cpus), "s")
            },
            Metric {
                note: match target.mode {
                    Mode::InProcess => "peak RSS of this process".into(),
                    Mode::Pool(_) => "peak RSS of the largest worker".into(),
                },
                ..metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MB")
            },
        ],
        attempted,
        failed,
        notes: Vec::new(),
    })
}

/// The per-layer run: untraced and traced sweeps in turn until `--seconds`
/// have passed (for a pool, each turn also runs one pool sweep), then one
/// untimed count pass. Layer numbers come from the traced sweep with the
/// median wall time.
fn per_layer(cli: &Cli, target: &Target) -> Result<Outcome, String> {
    let cells = target.cells()?;
    let pool_workers = match target.mode {
        Mode::Pool(workers) => workers,
        Mode::InProcess => 0,
    };
    let mut spawns = Vec::new();
    let mut reference: Option<Vec<Option<String>>> = None;
    let (mut untraced, mut pooled, mut traced) = (Vec::new(), Vec::new(), Vec::<Traced>::new());
    let (mut attempted, mut failed, mut traced_misses) = (0, 0, 0);
    let started = Instant::now();
    loop {
        // In-process and untraced (single-threaded for a pool workload):
        // the reference rows, the base of the overhead ratio, and the
        // single-thread replica `dist.lane_util` divides.
        let (lines, wall) = timed(|| target.sweep_in_process())?;
        untraced.push(wall);
        let reference = reference.get_or_insert_with(|| target.reference(&cells, &lines));
        failed += misses(reference, &lines);
        if pool_workers > 0 {
            spawns.extend(setups(target)?.1);
            let (lines, wall) = timed(|| target.sweep())?;
            pooled.push(wall);
            failed += misses(reference, &lines);
            attempted += cells.len();
        }
        let sweep = traced_sweep(&target.scenario, target.seed)?;
        traced_misses += misses(reference, &sweep.lines);
        traced.push(sweep);
        attempted += 2 * cells.len();
        if started.elapsed().as_secs_f64() >= cli.seconds {
            break;
        }
    }
    let counts = target.counts()?;
    let reference = reference.expect("the loop ran at least once");
    failed += misses(&reference, &counts.lines) + traced_misses;
    attempted += cells.len();

    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced[a].wall_s().total_cmp(&traced[b].wall_s()));
    let chosen = &traced[order[(order.len() - 1) / 2]];
    let path =
        Path::new(SPAN_DIR).join(format!("spans-{}-seed{}.tsv", cli.workload.name, cli.seed));
    chosen
        .write_spans(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let l = &chosen.layers;
    let secs = |ns: u64| ns as f64 * 1e-9;
    let us = |sorted: &[u64], q| quantile(sorted, q) as f64 * 1e-3;
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut cell_ns = l.cell_ns.clone();
    cell_ns.sort_unstable();
    let traced_walls: Vec<f64> = traced.iter().map(Traced::wall_s).collect();
    let row_bytes: usize = reference.iter().flatten().map(|line| line.len() + 1).sum();
    let geo_edges = l.geo.snapshot_edges as f64;
    let metrics = vec![
        metric("engine.resolve_s", secs(l.resolve_ns), "s"),
        metric("engine.aggregate_s", secs(l.aggregate_ns), "s"),
        metric("engine.cell_p50_s", secs(quantile(&cell_ns, 0.5)), "s"),
        metric("engine.cell_max_s", secs(quantile(&cell_ns, 1.0)), "s"),
        metric(
            "engine.unattributed_frac",
            1.0 - frac(l.attributed_ns as f64, l.wall_ns as f64),
            "frac",
        ),
        metric(
            "runner.util",
            frac(l.trial_busy_ns as f64, l.lane_ns as f64),
            "frac",
        ),
        metric("edge.init_s", secs(l.edge.init_ns), "s"),
        metric("edge.advance_s", secs(l.edge.advance_ns.iter().sum()), "s"),
        metric(
            "edge.advance_calls",
            l.edge.advance_ns.len() as f64,
            "count",
        ),
        metric("edge.advance_p50_us", us(&l.edge.advance_ns, 0.5), "us"),
        metric("edge.advance_p90_us", us(&l.edge.advance_ns, 0.9), "us"),
        metric("edge.teardown_s", secs(l.edge.teardown_ns), "s"),
        metric("edge.snapshot_edges", l.edge.snapshot_edges as f64, "count"),
        metric("edge.flips", counts.edge_flips as f64, "count"),
        metric("edge.rng_draws", counts.rng_draws as f64, "count"),
        metric("geo.init_s", secs(l.geo.init_ns), "s"),
        metric("geo.advance_s", secs(l.geo.advance_ns.iter().sum()), "s"),
        metric("geo.advance_calls", l.geo.advance_ns.len() as f64, "count"),
        metric("geo.advance_p50_us", us(&l.geo.advance_ns, 0.5), "us"),
        metric("geo.advance_p90_us", us(&l.geo.advance_ns, 0.9), "us"),
        metric("geo.teardown_s", secs(l.geo.teardown_ns), "s"),
        metric("geo.snapshot_edges", geo_edges, "count"),
        metric("geo.scan_visits", counts.scan_visits as f64, "count"),
        metric(
            "geo.scan_hit_frac",
            frac(2.0 * geo_edges, counts.scan_visits as f64),
            "frac",
        ),
        metric("protocol.s", secs(l.protocol_self_ns), "s"),
        metric("protocol.rounds", l.rounds as f64, "count"),
        metric("protocol.messages", l.messages as f64, "count"),
        metric("probe.s", secs(l.probe_self_ns), "s"),
        metric("probe.calls", l.probe_calls as f64, "count"),
        metric("static.init_s", secs(l.fixed.init_ns), "s"),
        metric("dist.spawn_s", median(&spawns), "s"),
        metric(
            "dist.lane_util",
            frac(median(&untraced), pool_workers as f64 * median(&pooled)),
            "frac",
        ),
        metric("dist.round_trips", counts.round_trips as f64, "count"),
        metric(
            "dist.row_bytes",
            if pool_workers > 0 {
                row_bytes as f64
            } else {
                0.0
            },
            "B",
        ),
        metric(
            "trace.overhead_ratio",
            frac(median(&traced_walls), median(&untraced)),
            "ratio",
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        notes: vec![
            format!(
                "sweeps: {} untraced in-process (median {:.4} s), {} traced (median {:.4} s), {} pool (median {:.4} s)",
                untraced.len(),
                median(&untraced),
                traced.len(),
                median(&traced_walls),
                pooled.len(),
                median(&pooled)
            ),
            format!("spans: {} written to {}", chosen.spans.len(), path.display()),
            if traced_misses == 0 {
                "traced rows equal the untraced rows".to_string()
            } else {
                format!("REJECTED: {traced_misses} traced rows differ from the untraced rows")
            },
        ],
    })
}

fn print_result(cli: &Cli, outcome: &Outcome) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mode = match cli.workload.mode {
        Mode::InProcess => "in-process".to_string(),
        Mode::Pool(workers) => format!("pool of {workers} workers"),
    };
    // For a pool this reads the RAYON_NUM_THREADS its workers inherit.
    println!(
        "perfbench workload={} builtin={} mode={mode} seed={} trace={} nproc={nproc} trial_threads={} profile={profile}",
        cli.workload.name,
        cli.workload.builtin,
        cli.seed,
        u8::from(cli.trace),
        rayon::current_num_threads()
    );
    for m in &outcome.metrics {
        let value = if m.value == 0.0 || m.value.abs() >= 0.01 {
            format!("{:.6}", m.value)
        } else {
            format!("{:.4e}", m.value)
        };
        println!("  {:<26} {value:>16} {:<6} {}", m.name, m.unit, m.note);
    }
    for note in &outcome.notes {
        println!("  {note}");
    }
    println!(
        "  failed_frac {} frac ({} of {} cells without a correct row)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    let metrics = Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|m| {
                let value = Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]);
                (m.name.to_string(), value)
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
}
