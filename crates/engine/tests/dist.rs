//! Integration tests for the distributed-execution subsystem.
//!
//! * **Golden shard equivalence** — for *every* built-in scenario (scaled
//!   down for CI), a 3-way sharded run followed by a merge is byte-identical
//!   to the unsharded row stream, under both partitioning strategies.
//! * **Interrupted resume** — a run cut off after N cells and resumed
//!   re-executes zero completed cells and ends byte-identical to a clean run.
//! * **CLI end-to-end** — the actual `meg-lab` binary: shard + merge
//!   equivalence, plain runs against worker subprocess pools, worker
//!   crash/restart, and limit/resume exit codes.

use meg_engine::dist::{merge_dir, run_sharded, DistOptions, ShardSpec, ShardStrategy};
use meg_engine::prelude::*;
use meg_engine::scenario::Scenario;
use meg_engine::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("meg-dist-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Built-ins shrunk to CI size: tiny node counts, 2 trials.
fn ci_sized(name: &str) -> Scenario {
    let mut s = builtin(name).expect("builtin exists").scaled(0.05);
    s.trials = 2;
    s
}

fn reference_lines(s: &Scenario, seed: u64) -> Vec<String> {
    run_scenario(s, seed)
        .unwrap()
        .iter()
        .map(|r| r.to_json().render())
        .collect()
}

#[test]
fn golden_every_builtin_shards_and_merges_byte_identically() {
    for name in builtin_names() {
        let scenario = ci_sized(name);
        let reference = reference_lines(&scenario, 2009);
        assert_eq!(reference.len(), scenario.num_cells());
        for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
            let dir = tmp(&format!("golden-{name}-{}", strategy.id()));
            for i in 0..3 {
                let opts = DistOptions {
                    shard: ShardSpec {
                        index: i,
                        count: 3,
                        strategy,
                    },
                    out_dir: Some(dir.clone()),
                    ..DistOptions::default()
                };
                run_sharded(&scenario, 2009, &opts, |_, _| {}).unwrap();
            }
            let merged = merge_dir(&dir).unwrap();
            assert_eq!(
                merged.lines,
                reference,
                "sharded+merged `{name}` ({}) must be byte-identical to unsharded",
                strategy.id()
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

#[test]
fn interrupted_run_resumes_without_reexecuting_cells() {
    let scenario = ci_sized("quick_smoke");
    let reference = reference_lines(&scenario, 41);
    let total = reference.len();
    let dir = tmp("interrupt");

    // Interrupt after 1 cell (limit models a kill: the checkpoint survives).
    let interrupted = run_sharded(
        &scenario,
        41,
        &DistOptions {
            out_dir: Some(dir.clone()),
            limit: Some(1),
            ..DistOptions::default()
        },
        |_, _| {},
    )
    .unwrap();
    assert!(!interrupted.complete);
    assert_eq!(interrupted.executed, 1);

    // Resume: the checkpointed cell is honored, the rest execute once.
    let resumed = run_sharded(
        &scenario,
        41,
        &DistOptions {
            out_dir: Some(dir.clone()),
            resume: true,
            ..DistOptions::default()
        },
        |_, _| {},
    )
    .unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.resumed, 1, "completed cell must not re-execute");
    assert_eq!(resumed.executed, total - 1);
    let lines: Vec<String> = resumed.rows.into_iter().map(|(_, l)| l).collect();
    assert_eq!(lines, reference, "resumed output must match a clean run");

    // The merged checkpoint agrees too, with no duplicate rows.
    let merged = merge_dir(&dir).unwrap();
    assert_eq!(merged.lines, reference);
    assert_eq!(merged.duplicates, 0, "no cell may have run twice");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn golden_adaptive_eps_zero_equals_fixed_trials_sharded_and_unsharded() {
    // eps = 0 never converges, so adaptive mode must spend exactly
    // max_trials — and the rows must be byte-identical to fixed-trials mode
    // at that count, in every execution topology.
    let mut fixed = ci_sized("quick_smoke");
    fixed.trials = 3;
    let mut adaptive = fixed.clone();
    adaptive.precision = meg_engine::Precision::TargetStderr {
        eps: 0.0,
        min_trials: 2,
        max_trials: 3,
    };
    let reference = reference_lines(&fixed, 2009);

    // Unsharded adaptive == unsharded fixed.
    assert_eq!(reference_lines(&adaptive, 2009), reference);

    // Sharded adaptive (both strategies) merges byte-identically to the
    // fixed unsharded stream.
    for strategy in [ShardStrategy::Contiguous, ShardStrategy::RoundRobin] {
        let dir = tmp(&format!("golden-adaptive-{}", strategy.id()));
        for i in 0..2 {
            let opts = DistOptions {
                shard: ShardSpec {
                    index: i,
                    count: 2,
                    strategy,
                },
                out_dir: Some(dir.clone()),
                ..DistOptions::default()
            };
            run_sharded(&adaptive, 2009, &opts, |_, _| {}).unwrap();
        }
        assert_eq!(
            merge_dir(&dir).unwrap().lines,
            reference,
            "adaptive eps=0 sharded+merged ({}) must equal the fixed run",
            strategy.id()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// CLI end-to-end (drives the real meg-lab binary)

fn meg_lab() -> Command {
    Command::new(env!("CARGO_BIN_EXE_meg-lab"))
}

fn run_ok(args: &[&str]) -> String {
    let out = meg_lab().args(args).output().expect("meg-lab runs");
    assert!(
        out.status.success(),
        "meg-lab {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

const CLI_SCALE: &[&str] = &["--scale", "0.25", "--trials", "2", "--seed", "2009"];

fn cli_unsharded_json() -> String {
    run_ok(&[&["run", "quick_smoke"], CLI_SCALE, &["--format", "json"]].concat())
}

fn dir_arg(dir: &Path) -> &str {
    dir.to_str().expect("utf8 temp path")
}

/// The work items a `--trace` journal records a complete span for, as
/// `(cell, first trial, end trial)` parsed from the span names.
fn traced_items(trace: &Path) -> Vec<(usize, usize, usize)> {
    let doc = Json::parse(&std::fs::read_to_string(trace).expect("trace file written"))
        .expect("trace parses as JSON");
    doc.get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).expect("span name");
            let parsed = name.strip_prefix("cell ").and_then(|rest| {
                let (cell, range) = rest.split_once(" trials ")?;
                let (from, to) = range.split_once("..")?;
                Some((cell.parse().ok()?, from.parse().ok()?, to.parse().ok()?))
            });
            parsed.unwrap_or_else(|| panic!("span `{name}` names no trial range"))
        })
        .collect()
}

/// The trial ranges `items` cut each cell into, sorted, keyed by cell.
fn cuts_by_cell(items: &[(usize, usize, usize)]) -> Vec<(usize, Vec<(usize, usize)>)> {
    let mut by_cell = std::collections::BTreeMap::<usize, Vec<(usize, usize)>>::new();
    for &(cell, from, to) in items {
        by_cell.entry(cell).or_default().push((from, to));
    }
    by_cell
        .into_iter()
        .map(|(cell, mut ranges)| {
            ranges.sort_unstable();
            (cell, ranges)
        })
        .collect()
}

#[test]
fn cli_shard_merge_round_trip_is_byte_identical() {
    let reference = cli_unsharded_json();
    let dir = tmp("cli-shards");
    for shard in ["0/2", "1/2"] {
        run_ok(
            &[
                &["run", "quick_smoke"],
                CLI_SCALE,
                &["--format", "json", "--shard", shard, "--out", dir_arg(&dir)],
            ]
            .concat(),
        );
    }
    let merged = run_ok(&["merge", dir_arg(&dir)]);
    assert_eq!(merged, reference);
    // The merged stream re-renders as CSV with the canonical header.
    let csv = run_ok(&["merge", dir_arg(&dir), "--format", "csv"]);
    assert!(csv.starts_with(meg_engine::sink::CSV_HEADER));
    assert_eq!(csv.lines().count(), 1 + reference.lines().count());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_worker_pool_matches_single_process_output() {
    let reference = cli_unsharded_json();
    let pooled = run_ok(
        &[
            &["run", "quick_smoke"],
            CLI_SCALE,
            &["--format", "json", "--workers", "2"],
        ]
        .concat(),
    );
    assert_eq!(pooled, reference);
}

#[test]
fn cli_plain_run_matches_the_pool_and_the_library_rendering() {
    // A plain run streams through the same coordinator as a worker pool:
    // its CSV equals a 2-worker run's and the library's rendering of the
    // unsharded rows.
    let run = |extra: &[&str]| run_ok(&[&["run", "quick_smoke"], CLI_SCALE, extra].concat());
    let plain = run(&["--format", "csv"]);
    assert_eq!(plain, run(&["--format", "csv", "--workers", "2"]));
    let mut scenario = builtin("quick_smoke").unwrap().scaled(0.25);
    scenario.trials = 2;
    let rows = run_scenario(&scenario, 2009).unwrap();
    assert_eq!(
        plain,
        meg_engine::sink::render_rows("", &rows, meg_engine::sink::OutputFormat::Csv)
    );

    // A plain table keeps its sweep caption and isolation footer.
    let table = run(&["--format", "table"]);
    assert!(table.contains("(seed 2009)"), "{table}");
    assert_eq!(
        table.lines().last(),
        Some(
            format!(
                "{} cells, seed 2009; rerun any cell in isolation with the `seed` column of \
                 its row.",
                rows.len()
            )
            .as_str()
        ),
        "{table}"
    );
}

#[test]
fn cli_coordinator_restarts_crashing_workers() {
    let reference = cli_unsharded_json();
    let cells = reference.lines().count();
    assert!(cells >= 2, "fixture too small to exercise restarts");
    // Every worker aborts after serving one cell, so each cell costs one
    // subprocess — the run only completes if the restart path works.
    // `--verbose --metrics report` turns the fault events into narrated
    // stderr lines and counters; stdout must stay byte-identical anyway.
    let out = meg_lab()
        .args(
            [
                &["run", "quick_smoke"][..],
                CLI_SCALE,
                &[
                    "--format",
                    "json",
                    "--workers",
                    "2",
                    "--worker-fail-after",
                    "1",
                    "--verbose",
                    "--metrics",
                    "report",
                ],
            ]
            .concat(),
        )
        .output()
        .expect("meg-lab runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "faulted run failed: {stderr}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        reference,
        "rows must be byte-identical under --verbose --metrics"
    );

    // With fail-after=1 every worker thread respawns once per item after its
    // first. Each cell's 2 trials are cut into min(2, workers) = 2 items, so
    // total respawns land in [items − workers, items − 1].
    let items = 2 * cells;
    let narrated = stderr
        .lines()
        .filter(|l| l.contains("worker respawned"))
        .count();
    assert!(
        (items - 2..=items - 1).contains(&narrated),
        "expected {} or {} respawn lines, saw {narrated}:\n{stderr}",
        items - 2,
        items - 1
    );
    assert!(
        stderr.lines().any(|l| l.contains("worker died")),
        "deaths must be narrated: {stderr}"
    );

    // The metrics report's counter must agree with the narrated lines.
    assert!(stderr.contains("── metrics report"), "{stderr}");
    let counted: usize = stderr
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("worker_respawns"))
        .expect("worker_respawns counter in report")
        .trim()
        .parse()
        .expect("counter value");
    assert_eq!(
        counted, narrated,
        "counter and narration disagree:\n{stderr}"
    );
}

#[test]
fn cli_full_observability_stack_keeps_stdout_identical() {
    let reference = cli_unsharded_json();
    let cells = reference.lines().count();
    let trace_path =
        std::env::temp_dir().join(format!("meg-dist-it-{}-cli-trace.json", std::process::id()));
    // Everything at once: worker pool, metrics shipping + merged report,
    // trace journal, and progress forced on (test stderr is not a TTY).
    let out = meg_lab()
        .env("MEG_PROGRESS_FORCE", "1")
        .args(
            [
                &["run", "quick_smoke"][..],
                CLI_SCALE,
                &[
                    "--format",
                    "json",
                    "--workers",
                    "2",
                    "--metrics",
                    "report",
                    "--trace",
                    trace_path.to_str().expect("utf8 temp path"),
                    "--progress",
                ],
            ]
            .concat(),
        )
        .output()
        .expect("meg-lab runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "observed run failed: {stderr}");
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        reference,
        "rows must be byte-identical under the full observability stack"
    );

    // Worker-side counters must reach the merged report: per-lane subtotal
    // lines, and a nonzero `trials` total (the coordinator itself runs no
    // trials, so a nonzero value proves shipping + merge worked).
    assert!(stderr.contains("── metrics report"), "{stderr}");
    assert!(
        stderr.contains("worker 0:") && stderr.contains("worker 1:"),
        "per-worker subtotals missing from report:\n{stderr}"
    );
    let trials: u64 = stderr
        .lines()
        .find_map(|l| l.trim_start().strip_prefix("trials"))
        .expect("trials counter in report")
        .trim()
        .parse()
        .expect("counter value");
    assert!(
        trials > 0,
        "merged report shows zero worker-side trials:\n{stderr}"
    );

    // The progress meter drew at least one status line (forced via env).
    assert!(
        stderr.contains("cells") && stderr.contains("rows/s"),
        "progress line missing from stderr:\n{stderr}"
    );

    // The trace journal is valid trace-event JSON with one complete-phase
    // span per work item on the worker lanes: each cell's 2 trials are cut
    // into min(2, workers) = 2 items, which cover them exactly once.
    let items = traced_items(&trace_path);
    assert_eq!(
        items.len(),
        2 * cells,
        "one complete span per item: {items:?}"
    );
    assert_eq!(
        cuts_by_cell(&items),
        (0..cells)
            .map(|cell| (cell, vec![(0, 1), (1, 2)]))
            .collect::<Vec<_>>(),
        "every cell's spans must cover its trials exactly once"
    );
    std::fs::remove_file(&trace_path).unwrap();
}

#[test]
fn cli_metrics_report_counts_the_in_process_sweep_but_no_pool_request() {
    // The `sweep` span count in a `--metrics report`, and whether the
    // report derives a trial-thread utilization from it.
    let sweeps = |extra: &[&str]| {
        let out = meg_lab()
            .args(
                [
                    &["run", "quick_smoke"][..],
                    CLI_SCALE,
                    &["--metrics", "report"],
                    extra,
                ]
                .concat(),
            )
            .output()
            .expect("meg-lab runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "observed run failed: {stderr}");
        let count: u64 = stderr
            .lines()
            .find_map(|l| l.trim_start().strip_prefix("sweep "))
            .and_then(|rest| rest.split_whitespace().next())
            .expect("sweep span in report")
            .parse()
            .expect("span count");
        (count, stderr.contains("trial-thread utilization"))
    };
    assert_eq!(sweeps(&[]), (1, true));
    // Workers serve batch requests, not sweeps; the merged report says so.
    assert_eq!(sweeps(&["--workers", "2"]), (0, false));
}

#[test]
fn cli_environment_defaults_follow_their_flags_rules() {
    // Each environment default goes through its flag's parser: a value the
    // flag rejects exits 2 with a message naming the variable, instead of
    // silently falling back to the built-in default.
    for (var, flag, value) in [
        ("MEG_SEED", "--seed", "abc"),
        ("MEG_TRIALS", "--trials", "0"),
        ("MEG_SCALE", "--scale", "0"),
        ("MEG_OUTPUT", "--format", "jsn"),
        ("MEG_METRICS", "--metrics", "verbose"),
        ("MEG_TARGET_STDERR", "--target-stderr", "-1"),
        ("MEG_MIN_TRIALS", "--min-trials", "0"),
        ("MEG_MAX_TRIALS", "--max-trials", "many"),
    ] {
        let from_env = meg_lab()
            .args(["run", "quick_smoke"])
            .env(var, value)
            .output()
            .expect("meg-lab runs");
        let stderr = String::from_utf8_lossy(&from_env.stderr);
        assert_eq!(
            from_env.status.code(),
            Some(2),
            "{var}={value} must exit 2: {stderr}"
        );
        assert!(stderr.contains(var), "the error must name {var}: {stderr}");
        let from_flag = meg_lab()
            .args(["run", "quick_smoke", flag, value])
            .output()
            .expect("meg-lab runs");
        assert_eq!(
            from_flag.status.code(),
            Some(2),
            "{flag} {value} must exit 2"
        );
    }

    // A valid environment default applies exactly like its flag.
    let out = meg_lab()
        .args(["run", "quick_smoke"])
        .envs([
            ("MEG_SCALE", "0.25"),
            ("MEG_TRIALS", "2"),
            ("MEG_SEED", "2009"),
            ("MEG_OUTPUT", "json"),
        ])
        .output()
        .expect("meg-lab runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8(out.stdout).unwrap(), cli_unsharded_json());
}

#[test]
fn cli_limit_exits_3_and_resume_completes() {
    let reference = cli_unsharded_json();
    let dir = tmp("cli-resume");
    let partial = meg_lab()
        .args(
            [
                &["run", "quick_smoke"][..],
                CLI_SCALE,
                &["--format", "json", "--out", dir_arg(&dir), "--limit", "1"],
            ]
            .concat(),
        )
        .output()
        .expect("meg-lab runs");
    assert_eq!(
        partial.status.code(),
        Some(3),
        "incomplete runs must exit 3: {}",
        String::from_utf8_lossy(&partial.stderr)
    );

    let resumed = run_ok(
        &[
            &["run", "quick_smoke"],
            CLI_SCALE,
            &["--format", "json", "--resume", dir_arg(&dir)],
        ]
        .concat(),
    );
    assert_eq!(
        resumed, reference,
        "resumed CLI output must match clean run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

const CLI_ADAPTIVE: &[&str] = &[
    "--target-stderr",
    "0.75",
    "--min-trials",
    "2",
    "--max-trials",
    "8",
];

#[test]
fn cli_adaptive_worker_pool_matches_single_process_and_converges() {
    // Single-process adaptive run is the reference …
    let reference = run_ok(
        &[
            &["run", "quick_smoke"],
            CLI_SCALE,
            CLI_ADAPTIVE,
            &["--format", "json"],
        ]
        .concat(),
    );
    // … and every row either met the target or spent the whole budget.
    for line in reference.lines() {
        let row = meg_engine::Row::from_json(&meg_engine::Json::parse(line).unwrap()).unwrap();
        assert_eq!(row.requested_trials, 8);
        assert!(
            row.achieved_stderr.is_some_and(|se| se <= 0.75) || row.trials == 8,
            "row neither converged nor exhausted its budget: {line}"
        );
    }

    // The worker pool runs the batch-dispatch control loop; crashing workers
    // exercise batch retry. Both must reproduce the reference byte for byte.
    for extra in [
        &["--format", "json", "--workers", "2"][..],
        &[
            "--format",
            "json",
            "--workers",
            "2",
            "--worker-fail-after",
            "2",
        ][..],
    ] {
        let pooled = run_ok(&[&["run", "quick_smoke"], CLI_SCALE, CLI_ADAPTIVE, extra].concat());
        assert_eq!(
            pooled, reference,
            "adaptive worker pool must match the single-process run ({extra:?})"
        );
    }

    // Sharded + checkpointed + merged: still byte-identical.
    let dir = tmp("cli-adaptive-shards");
    for shard in ["0/2", "1/2"] {
        run_ok(
            &[
                &["run", "quick_smoke"],
                CLI_SCALE,
                CLI_ADAPTIVE,
                &["--format", "json", "--shard", shard, "--out", dir_arg(&dir)],
            ]
            .concat(),
        );
    }
    assert_eq!(run_ok(&["merge", dir_arg(&dir)]), reference);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_uneven_cuts_across_three_workers_match_the_in_process_run() {
    // Five trials on three workers cut every cell 2 + 2 + 1; the adaptive
    // leg grows cells through the 3, 6 and 12 trial checkpoints, each step
    // cut across the pool. Under `--worker-fail-after 1` every item after a
    // worker's first runs on a respawned worker. Every leg must print the
    // in-process rows byte for byte.
    let base = ["run", "quick_smoke", "--scale", "0.25", "--seed", "2009"];
    let adaptive = [
        "--target-stderr",
        "0.3",
        "--min-trials",
        "3",
        "--max-trials",
        "12",
    ];
    let pool = ["--format", "json", "--workers", "3"];
    let faulty = ["--worker-fail-after", "1"];
    for precision in [&["--trials", "5"][..], &adaptive[..]] {
        let reference = run_ok(&[&base[..], precision, &["--format", "json"]].concat());
        for extra in [&[][..], &faulty[..]] {
            let pooled = run_ok(&[&base[..], precision, &pool[..], extra].concat());
            assert_eq!(pooled, reference, "{precision:?} {extra:?}");
        }
    }

    // The trace shows the cut itself, which the rows cannot.
    let trace = tmp("uneven-cut.json");
    let rows = run_ok(
        &[
            &base[..],
            &["--trials", "5"],
            &pool[..],
            &["--trace", dir_arg(&trace)],
        ]
        .concat(),
    );
    let cells = rows.lines().count();
    assert_eq!(
        cuts_by_cell(&traced_items(&trace)),
        (0..cells)
            .map(|cell| (cell, vec![(0, 2), (2, 4), (4, 5)]))
            .collect::<Vec<_>>()
    );
    std::fs::remove_file(&trace).unwrap();
}

#[test]
fn cli_retired_stepping_inputs_exit_2() {
    // Per-pair is the one stepping mode. A scenario file may still name it,
    // and then runs exactly as without the key; any other mode is an input
    // error (exit 2) naming the key, never a per-pair run with other rows.
    let dir = tmp("stepping");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("scenario.json");
    let path = file.to_str().expect("utf8 temp path");
    let run_with = |engine: &str, stepping: &str| {
        std::fs::write(
            &file,
            format!(
                r#"{{"name":"stepping","description":"stepping key",
                "substrates":[{{"family":"edge","n":60,"engine":"{engine}",
                "p_hat":{{"log_factor":3}},"q":0.5,"init":"stationary"{stepping}}}],
                "protocols":["flooding"],"sweep":{{"axes":[]}},"trials":2,"round_budget":100}}"#
            ),
        )
        .unwrap();
        meg_lab()
            .args(["run", "--file", path, "--format", "json", "--seed", "9"])
            .output()
            .expect("meg-lab runs")
    };
    for engine in ["sparse", "dense"] {
        let plain = run_with(engine, "");
        assert!(plain.status.success(), "{engine}");
        let per_pair = run_with(engine, r#","stepping":"per_pair""#);
        assert!(per_pair.status.success(), "{engine}");
        assert_eq!(per_pair.stdout, plain.stdout, "{engine}");
        assert!(!plain.stdout.is_empty(), "{engine}");
        for mode in ["transitions", "warp"] {
            let out = run_with(engine, &format!(r#","stepping":"{mode}""#));
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{engine} {mode}: {stderr}");
            assert!(
                stderr.contains("stepping") && stderr.contains("per_pair"),
                "{engine} {mode}: {stderr}"
            );
            assert!(
                out.stdout.is_empty(),
                "{engine} {mode}: no row may be emitted"
            );
        }
    }
    // The `--stepping` flag is gone: it takes the unknown-flag path.
    let out = meg_lab()
        .args(["run", "quick_smoke", "--stepping", "per_pair"])
        .output()
        .expect("meg-lab runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag `--stepping`") && stderr.contains("usage:"),
        "{stderr}"
    );
    assert!(out.stdout.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_swept_protocol_value_outside_its_domain_exits_2_naming_the_axis() {
    // The same bounds as the protocol spec's: a swept contagion of 2 or an
    // infection duration of 0 is an input error, not a clamped row; so is a
    // count too large to run as itself.
    let shown = run_ok(&["show", "epidemic_threshold"]);
    let dir = tmp("swept-domain");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("scenario.json");
    for (axis, values, wording) in [
        ("contagion", "[2.0]", "contagion=2 outside [0, 1]"),
        ("infection_rounds", "[0]", "infection_rounds must be ≥ 1"),
        // Counts that `round() as u64` would saturate; 1e400 parses as ∞.
        ("infection_rounds", "[1e30]", "1e30 is not a finite count"),
        ("immunity_rounds", "[1e400]", "inf is not a finite count"),
        ("infection_rounds", "[1e400]", "inf is not a finite count"),
        ("immunity_rounds", "[1e30]", "1e30 is not a finite count"),
    ] {
        let edited = shown
            .replace(r#""param": "contagion""#, &format!(r#""param": "{axis}""#))
            .replace(
                "[\n          0.02,\n          0.1,\n          0.5\n        ]",
                values,
            );
        assert_ne!(edited, shown, "the sweep axis must have been rewritten");
        std::fs::write(&file, edited).unwrap();
        let out = meg_lab()
            .args(["run", "--file", file.to_str().expect("utf8 temp path")])
            .args(["--scale", "0.1", "--format", "csv"])
            .output()
            .expect("meg-lab runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{axis}: {stderr}");
        assert!(
            stderr.contains(&format!("sweep axis `{axis}`")) && stderr.contains(wording),
            "{axis}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{axis}: no row, and no CSV header, may be emitted"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_output_closed_early_exits_0_quietly() {
    use std::io::BufRead;
    use std::process::Stdio;
    // 300 one-trial cells print about 130 kB of rows, more than a pipe
    // holds, so `meg-lab` is still writing when the reader below goes.
    let dir = tmp("closed-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let n_values: Vec<String> = (10..310).map(|n| n.to_string()).collect();
    let file = dir.join("scenario.json");
    std::fs::write(
        &file,
        format!(
            r#"{{"name":"pipe","description":"many small cells",
            "substrates":[{{"family":"edge","n":20,"engine":"sparse",
            "p_hat":{{"log_factor":3}},"q":0.5,"init":"stationary"}}],
            "protocols":["flooding"],
            "sweep":{{"axes":[{{"param":"n","values":[{}]}}]}},
            "trials":1,"round_budget":1000}}"#,
            n_values.join(",")
        ),
    )
    .unwrap();
    let scenario = file.to_str().expect("utf8 temp path");
    let parts = dir.join("parts");
    run_ok(&[
        "run",
        "--file",
        scenario,
        "--format",
        "json",
        "--out",
        dir_arg(&parts),
    ]);

    let run = ["run", "--file", scenario, "--format", "json"];
    let pooled = [&run[..], &["--workers", "2"]].concat();
    let merge = ["merge", dir_arg(&parts)];
    for args in [&run[..], &pooled, &merge] {
        let mut child = meg_lab()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("meg-lab runs");
        let mut first = String::new();
        std::io::BufReader::new(child.stdout.take().expect("piped stdout"))
            .read_line(&mut first)
            .expect("one row line");
        // The reader is dropped: every later write finds the pipe closed.
        // Workers inherit stderr, so reading it to EOF also waits for them.
        let out = child.wait_with_output().expect("meg-lab exits");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            first.starts_with(r#"{"scenario":"pipe","cell":0,"#),
            "{args:?}: {first}"
        );
        assert!(out.status.success(), "{args:?}: {:?} {stderr}", out.status);
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_trial_count_too_large_to_hold_exits_2_naming_the_cell() {
    // 10¹² trials of one cell need 24 TB of outcome slots. Under a 4 GB
    // address-space limit their reservation fails, and the run ends with an
    // input error, in-process and from a pool, never an allocation abort.
    let shown = run_ok(&["show", "quick_smoke"]);
    let edited = shown.replace(r#""trials": 2,"#, r#""trials": 1000000000000,"#);
    assert_ne!(edited, shown, "the trial count must have been rewritten");
    let dir = tmp("huge-trials");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("scenario.json");
    std::fs::write(&file, edited).unwrap();
    for pool in ["", " --workers 2"] {
        let out = Command::new("sh")
            .arg("-c")
            .arg(format!(
                r#"ulimit -v 4000000; exec "$0" run --file "$1" --format json{pool}"#
            ))
            .arg(env!("CARGO_BIN_EXE_meg-lab"))
            .arg(&file)
            .output()
            .expect("sh runs meg-lab");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{pool}: {stderr}");
        assert!(
            stderr.contains("cell 0: 1000000000000 trials do not fit in memory"),
            "{pool}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{pool}: no row may be emitted");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
