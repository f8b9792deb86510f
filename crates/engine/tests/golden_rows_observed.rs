//! Determinism under observation: the golden fixtures of `golden_rows.rs`
//! re-run with the `meg-obs` recorder **installed**.
//!
//! The observability layer's hard invariant is that metrics change nothing
//! observable: clock reads sit strictly outside RNG-consuming code and all
//! metrics output goes to stderr, so the row stream must be byte-identical
//! whether or not a recorder is listening. This binary proves it against
//! every committed fixture (fixed-trials and adaptive) — and then checks the
//! counters actually moved, so a silent regression that disables
//! instrumentation cannot masquerade as passing.
//!
//! One `#[test]` on purpose: the recorder is process-global, and this file
//! is a separate test binary so its `install()` cannot leak into the
//! metrics-off runs of `golden_rows.rs`.

use meg_engine::dist::{run_sharded, DistOptions};
use meg_engine::obs;
use meg_engine::prelude::*;
use meg_engine::scenario::Precision;
use meg_engine::Json;
use std::path::PathBuf;

const SEED: u64 = 20260730;
const SCALE: f64 = 0.1;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn rendered_rows(scenario: &Scenario) -> String {
    let rows = run_scenario(scenario, SEED).expect("scenario runs");
    let mut out = String::new();
    for row in rows {
        out.push_str(&row.to_json().render());
        out.push('\n');
    }
    out
}

/// The full observability stack turned on at once: a 2-worker pool with
/// metrics shipping, a trace journal, and `--progress` (force-drawn — test
/// stderr is not a TTY). Returns the row stream plus the run report for the
/// worker-metrics assertions.
fn sharded_observed_rows(
    scenario: &Scenario,
    trace_path: &std::path::Path,
) -> (String, meg_engine::dist::RunReport) {
    let opts = DistOptions {
        workers: 2,
        worker_cmd: Some(PathBuf::from(env!("CARGO_BIN_EXE_meg-lab"))),
        ship_metrics: true,
        trace: Some(trace_path.to_path_buf()),
        progress: true,
        ..DistOptions::default()
    };
    let mut out = String::new();
    let report = run_sharded(scenario, SEED, &opts, |_, line| {
        out.push_str(line);
        out.push('\n');
    })
    .expect("sharded observed run succeeds");
    (out, report)
}

#[test]
fn every_golden_fixture_is_byte_identical_with_the_recorder_installed() {
    obs::install();

    // Fixed-trials fixtures (one per builtin).
    for name in builtin_names() {
        let mut scenario = builtin(name).expect("registry consistent").scaled(SCALE);
        scenario.trials = 2;
        assert_eq!(
            rendered_rows(&scenario),
            fixture(&format!("{name}.jsonl")),
            "`{name}` rows drifted under observation"
        );
    }

    // Adaptive-precision fixtures.
    for name in builtin_names() {
        let mut scenario = builtin(name).expect("registry consistent").scaled(SCALE);
        scenario.precision = Precision::TargetStderr {
            eps: 0.5,
            min_trials: 2,
            max_trials: 4,
        };
        assert_eq!(
            rendered_rows(&scenario),
            fixture(&format!("{name}.adaptive.jsonl")),
            "`{name}` adaptive rows drifted under observation"
        );
    }

    // The runs above must actually have been observed — a recorder that
    // silently stopped recording would make the byte-identity checks
    // vacuous.
    let snap = obs::snapshot();
    assert!(
        snap.counter("trials") > 0,
        "no trials recorded: instrumentation is dark"
    );
    assert!(snap.counter("rounds") > 0, "no rounds recorded");
    assert!(snap.counter("rng_draws") > 0, "no RNG draws recorded");
    assert!(
        snap.counter("edge_births") > 0 && snap.counter("edge_deaths") > 0,
        "no edge flips recorded"
    );
    assert!(
        snap.counter("bucket_scan_visits") > 0,
        "no geometric bucket scans recorded"
    );
    let report = snap.render_report();
    assert!(report.contains("trials"), "report misses trials: {report}");

    // ——— The same fixtures once more, through the *whole* observability
    // stack at once: a 2-worker process pool with metrics shipping, a trace
    // journal, and progress forced on. Workers run with their own recorders;
    // the coordinator merges shipped deltas — and none of it may move a row
    // byte. ———
    std::env::set_var("MEG_PROGRESS_FORCE", "1");
    let trace_path = std::env::temp_dir().join(format!(
        "meg-golden-observed-trace-{}.json",
        std::process::id()
    ));

    for name in builtin_names() {
        let mut scenario = builtin(name).expect("registry consistent").scaled(SCALE);
        scenario.trials = 2;
        let (rows, report) = sharded_observed_rows(&scenario, &trace_path);
        let expected = fixture(&format!("{name}.jsonl"));
        assert_eq!(
            rows, expected,
            "`{name}` rows drifted under workers + shipping + trace + progress"
        );

        // Worker-side counters must arrive and be nonzero once merged.
        assert_eq!(report.worker_metrics.len(), 2, "one snapshot per lane");
        let mut merged = meg_obs::MetricsSnapshot::empty();
        for lane in &report.worker_metrics {
            merged.merge(lane);
        }
        // `trials` is the one counter every builtin records (some sweeps
        // never flood, some never touch an edge chain).
        assert!(
            merged.counter("trials") > 0,
            "`{name}`: merged worker counters are zero — shipping is dark"
        );

        // The trace journal must be valid trace-event JSON with at least one
        // complete-phase span per cell (worker lanes emit one "X" per item).
        let doc = Json::parse(&std::fs::read_to_string(&trace_path).unwrap())
            .unwrap_or_else(|e| panic!("`{name}` trace is not valid JSON: {e:?}"));
        let spans = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .map(|events| {
                events
                    .iter()
                    .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
                    .count()
            })
            .unwrap_or(0);
        assert!(
            spans >= expected.lines().count(),
            "`{name}` trace has {spans} complete spans for {} cells",
            expected.lines().count()
        );
    }

    // Adaptive fixtures exercise the Batch protocol path (and the
    // coordinator's doubling instants) under the same full stack.
    for name in builtin_names() {
        let mut scenario = builtin(name).expect("registry consistent").scaled(SCALE);
        scenario.precision = Precision::TargetStderr {
            eps: 0.5,
            min_trials: 2,
            max_trials: 4,
        };
        let (rows, _) = sharded_observed_rows(&scenario, &trace_path);
        assert_eq!(
            rows,
            fixture(&format!("{name}.adaptive.jsonl")),
            "`{name}` adaptive rows drifted under workers + shipping + trace + progress"
        );
    }

    std::fs::remove_file(&trace_path).ok();
    std::env::remove_var("MEG_PROGRESS_FORCE");
    obs::uninstall();
}
