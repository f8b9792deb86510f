//! The worker side of the subprocess protocol.
//!
//! A worker (`meg-lab worker`) is a trial-batch server speaking JSON lines
//! on stdin/stdout:
//!
//! ```text
//! coordinator → worker   {"hello":{"scenario":{…},"master_seed":"2009"}}
//! worker → coordinator   {"ready":{"num_cells":8,"fingerprint":"…"}}
//! coordinator → worker   {"cell":3,"batch":{"start":0,"count":4}}
//! worker → coordinator   {"cell":3,"start":0,"outcomes":[{…},…]}
//! coordinator → worker   {"shutdown":true}              (or just EOF)
//! ```
//!
//! ## Metrics shipping
//!
//! When the hello carries `"metrics":true` ([`hello_line_with`]), the worker
//! installs its process-local `meg-obs` recorder and **ships telemetry back
//! inline**: every batch response is followed by one extra line holding the
//! counter deltas recorded while serving that request, and the shutdown
//! request (which is otherwise unanswered) is acknowledged with the
//! worker's final full snapshot:
//!
//! ```text
//! worker → coordinator   {"metrics":{"counters":{"trials":2,…}}}      ← after each response
//! worker → coordinator   {"final_metrics":{"counters":{…},"gauges":{…},"spans":{…}}}
//! ```
//!
//! Counter deltas partition the counter stream exactly, so the coordinator
//! reconstructs each worker's totals by summing them — and stays correct
//! across respawns, where a fresh process restarts its recorder from zero
//! and the dead process's unshipped gauges/spans are the only loss. The
//! outcome lines are byte-identical with shipping on or off.
//!
//! A **batch** request executes trials `start .. start + count` of one cell
//! and returns the raw [`TrialOutcome`](crate::run::TrialOutcome)s; the
//! coordinator aggregates them into the cell's row. The worker derives the
//! cell's seed from the global index it was handed, and trial `i`'s
//! randomness depends only on that seed and `i`, so which process executes
//! a batch never changes a byte, and batches concatenate byte-identically
//! to one fixed run. The coordinator cuts each cell's trials into one
//! contiguous batch per pool lane at most (a fixed-trials cell of 5 trials
//! on 2 workers is `0..3` and `3..5`); the adaptive control loop grows a
//! cell with further batches, cut the same way. A batch must run at least
//! one trial and stay within the cell's trial budget (its `trials`, or the
//! adaptive `max_trials`).
//!
//! Requests run on the engine's trial queue, with the worker's own trial
//! threads (`RAYON_NUM_THREADS`, else all cores).
//!
//! Workers are stateless between requests, so the coordinator may kill and
//! respawn one at any time and simply resend the in-flight request. The
//! `fail_after` knob makes a worker abort after serving that many requests —
//! deliberate fault injection used by the restart tests and available from
//! the CLI as `meg-lab worker --fail-after N`.
//!
//! ## Example
//!
//! [`serve`] is transport-agnostic (the binary passes stdin/stdout); driving
//! it over in-memory buffers shows the whole protocol:
//!
//! ```
//! use meg_engine::dist::worker::{batch_line, hello_line, serve, shutdown_line};
//! use meg_engine::prelude::*;
//! use meg_engine::run::{aggregate_row, cell_seed, resolve_cells, TrialOutcome};
//! use meg_engine::Json;
//!
//! let scenario = builtin("quick_smoke").unwrap().scaled(0.25);
//! let cells = resolve_cells(&scenario).unwrap();
//! let requests = format!(
//!     "{}\n{}\n{}\n",
//!     hello_line(&scenario, 2009),
//!     batch_line(0, 0, cells[0].trials),
//!     shutdown_line(),
//! );
//! let mut replies = Vec::new();
//! let served = serve(requests.as_bytes(), &mut replies, None).unwrap();
//! assert_eq!(served, 1);
//!
//! // The outcomes aggregate into the unsharded run's row, byte for byte.
//! let reply = String::from_utf8(replies).unwrap();
//! let batch = Json::parse(reply.lines().nth(1).unwrap()).unwrap(); // after ready
//! let outcomes: Vec<TrialOutcome> = batch.get("outcomes").unwrap().as_arr().unwrap()
//!     .iter()
//!     .map(|o| TrialOutcome::from_json(o).unwrap())
//!     .collect();
//! let seed = cell_seed(&scenario.name, 2009, 0);
//! let row = aggregate_row(&scenario, &cells[0], seed, &outcomes);
//! let reference = run_scenario(&scenario, 2009).unwrap()[0].to_json().render();
//! assert_eq!(row.to_json().render(), reference);
//! ```

use super::checkpoint::scenario_fingerprint;
use super::DistError;
use crate::json::Json;
use crate::metrics::snapshot_to_json;
use crate::run::{cell_seed, resolve_cells, run_cell_range, Cell};
use crate::scenario::Scenario;
use meg_obs as obs;
use std::io::{BufRead, Write};

/// Exit code of a fault-injected worker abort (distinct from real errors).
pub const FAIL_AFTER_EXIT_CODE: i32 = 17;

/// Builds the handshake request line the coordinator opens with.
pub fn hello_line(scenario: &Scenario, master_seed: u64) -> String {
    hello_line_with(scenario, master_seed, false)
}

/// [`hello_line`] with the metrics-shipping flag: `ship_metrics` makes the
/// worker install its `meg-obs` recorder and follow every response with a
/// counter-delta snapshot line (see the module docs).
pub fn hello_line_with(scenario: &Scenario, master_seed: u64, ship_metrics: bool) -> String {
    let mut fields = vec![
        ("scenario".to_string(), scenario.to_json()),
        (
            "master_seed".to_string(),
            Json::Str(master_seed.to_string()),
        ),
    ];
    if ship_metrics {
        fields.push(("metrics".to_string(), Json::Bool(true)));
    }
    Json::obj([("hello", Json::Obj(fields))]).render()
}

/// Builds a trial-batch request line: run trials `start .. start + count` of
/// `cell` and return the raw outcomes.
pub fn batch_line(cell: usize, start: usize, count: usize) -> String {
    Json::obj([
        ("cell", Json::Num(cell as f64)),
        (
            "batch",
            Json::obj([
                ("start", Json::Num(start as f64)),
                ("count", Json::Num(count as f64)),
            ]),
        ),
    ])
    .render()
}

/// Builds the shutdown request line.
pub fn shutdown_line() -> String {
    Json::obj([("shutdown", Json::Bool(true))]).render()
}

/// Serves the worker protocol over arbitrary reader/writer pairs (the
/// binary passes stdin/stdout; tests pass in-memory buffers).
///
/// Returns `Ok(served)` — the number of batches answered — on a clean
/// shutdown or EOF. Protocol violations (a batch outside its cell's trial
/// budget included) and invalid scenarios are errors; the binary reports
/// them on stderr and exits non-zero.
///
/// `fail_after: Some(n)` makes the worker abort the whole process (exit code
/// [`FAIL_AFTER_EXIT_CODE`]) after answering `n` batches — fault injection
/// for coordinator-restart tests.
pub fn serve<R: BufRead, W: Write>(
    input: R,
    mut output: W,
    fail_after: Option<usize>,
) -> Result<usize, DistError> {
    let mut state: Option<(Scenario, u64, Vec<Cell>)> = None;
    let mut served = 0usize;
    // `Some(prev)` once a metrics-shipping hello installed the recorder:
    // the snapshot the next counter delta is taken against.
    let mut shipping: Option<obs::MetricsSnapshot> = None;

    for line in input.lines() {
        let line = line.map_err(|e| DistError::Io(format!("worker stdin: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let msg = Json::parse(&line)
            .map_err(|e| DistError::Format(format!("worker: bad request line: {e}")))?;

        if msg.get("shutdown").is_some() {
            if shipping.is_some() {
                let finale = Json::obj([("final_metrics", snapshot_to_json(&obs::snapshot()))]);
                writeln!(output, "{}", finale.render())
                    .and_then(|_| output.flush())
                    .map_err(|e| DistError::Io(format!("worker stdout: {e}")))?;
            }
            break;
        }
        if let Some(hello) = msg.get("hello") {
            let scenario = Scenario::from_json(
                hello
                    .get("scenario")
                    .ok_or_else(|| DistError::Format("hello: missing `scenario`".into()))?,
            )?;
            let master_seed: u64 = hello
                .get("master_seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| {
                    DistError::Format("hello: `master_seed` must be a u64 string".into())
                })?;
            let cells = resolve_cells(&scenario)?;
            let ready = Json::obj([(
                "ready",
                Json::obj([
                    ("num_cells", Json::Num(cells.len() as f64)),
                    ("fingerprint", Json::Str(scenario_fingerprint(&scenario))),
                ]),
            )]);
            writeln!(output, "{}", ready.render())
                .and_then(|_| output.flush())
                .map_err(|e| DistError::Io(format!("worker stdout: {e}")))?;
            if hello.get("metrics").and_then(Json::as_bool) == Some(true) {
                obs::install();
                shipping = Some(obs::snapshot());
            }
            state = Some((scenario, master_seed, cells));
            continue;
        }
        if let Some(index) = msg.get("cell").and_then(Json::as_usize) {
            let (scenario, master_seed, cells) = state
                .as_ref()
                .ok_or_else(|| DistError::Format("batch request before hello".into()))?;
            let cell = cells.get(index).ok_or_else(|| {
                DistError::Format(format!(
                    "cell {index} out of range (scenario has {} cells)",
                    cells.len()
                ))
            })?;
            let batch = msg.get("batch").ok_or_else(|| {
                DistError::Format(format!("cell {index} request: missing `batch`"))
            })?;
            let start = batch
                .get("start")
                .and_then(Json::as_usize)
                .ok_or_else(|| DistError::Format("batch request: missing `start`".into()))?;
            let count = batch
                .get("count")
                .and_then(Json::as_usize)
                .ok_or_else(|| DistError::Format("batch request: missing `count`".into()))?;
            // Checked before anything is sized by `count`: an unchecked
            // request could abort the process on allocation.
            let budget = scenario.precision.trial_budget(cell.trials);
            if count == 0 || start.checked_add(count).is_none_or(|end| end > budget) {
                return Err(DistError::Format(format!(
                    "batch request: {count} trial(s) from {start} do not fit cell {index}'s \
                     budget of {budget} trial(s)"
                )));
            }
            let seed = cell_seed(&scenario.name, *master_seed, index);
            let outcomes = run_cell_range(cell, seed, start, count)?;
            let reply = Json::obj([
                ("cell", Json::Num(index as f64)),
                ("start", Json::Num(start as f64)),
                (
                    "outcomes",
                    Json::Arr(outcomes.iter().map(|o| o.to_json()).collect()),
                ),
            ])
            .render();
            writeln!(output, "{reply}")
                .and_then(|_| output.flush())
                .map_err(|e| DistError::Io(format!("worker stdout: {e}")))?;
            if let Some(prev) = &mut shipping {
                // Ship the counters this request recorded as a second line;
                // the response line above stays byte-identical either way.
                let now = obs::snapshot();
                let delta = Json::obj([(
                    "metrics",
                    snapshot_to_json(&now.delta_counters_snapshot(prev)),
                )]);
                *prev = now;
                writeln!(output, "{}", delta.render())
                    .and_then(|_| output.flush())
                    .map_err(|e| DistError::Io(format!("worker stdout: {e}")))?;
            }
            served += 1;
            if fail_after.is_some_and(|n| served >= n) {
                // Simulated crash: die without a goodbye, like a real one.
                std::process::exit(FAIL_AFTER_EXIT_CODE);
            }
            continue;
        }
        return Err(DistError::Format(format!(
            "worker: unrecognised request: {line}"
        )));
    }
    Ok(served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::quick_smoke;
    use crate::run::{aggregate_row, run_scenario, TrialOutcome};
    use crate::scenario::Precision;

    fn drive(requests: &str) -> Result<(usize, Vec<String>), DistError> {
        let mut out = Vec::new();
        let served = serve(requests.as_bytes(), &mut out, None)?;
        let text = String::from_utf8(out).expect("utf8 output");
        Ok((served, text.lines().map(str::to_string).collect()))
    }

    /// The outcomes of one batch reply line, checking its addressing.
    fn outcomes(line: &str, cell: usize, start: usize) -> Vec<TrialOutcome> {
        let v = Json::parse(line).unwrap();
        assert_eq!(v.get("cell").unwrap().as_usize(), Some(cell));
        assert_eq!(v.get("start").unwrap().as_usize(), Some(start));
        v.get("outcomes")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|o| TrialOutcome::from_json(o).unwrap())
            .collect()
    }

    #[test]
    fn serves_cells_byte_identically_to_an_unsharded_run() {
        let scenario = quick_smoke().scaled(0.25);
        let cells = resolve_cells(&scenario).unwrap();
        let reference: Vec<String> = run_scenario(&scenario, 2009)
            .unwrap()
            .iter()
            .map(|r| r.to_json().render())
            .collect();
        let trials = cells[2].trials;
        assert!(trials >= 2, "cell 2 must split into two batches");

        // Cells out of order, cell 2 in two batches: aggregated on this
        // side, the outcomes give the canonical row lines.
        let requests = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            hello_line(&scenario, 2009),
            batch_line(2, 0, 1),
            batch_line(0, 0, cells[0].trials),
            batch_line(2, 1, trials - 1),
            shutdown_line()
        );
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 3);
        assert_eq!(lines.len(), 4, "ready + three batches");
        let ready = Json::parse(&lines[0]).unwrap();
        assert_eq!(
            ready.get("ready").unwrap().get("num_cells").unwrap(),
            &Json::Num(reference.len() as f64)
        );
        let row = |index: usize, outcomes: &[TrialOutcome]| {
            let seed = cell_seed(&scenario.name, 2009, index);
            aggregate_row(&scenario, &cells[index], seed, outcomes)
                .to_json()
                .render()
        };
        let mut cell2 = outcomes(&lines[1], 2, 0);
        cell2.extend(outcomes(&lines[3], 2, 1));
        assert_eq!(row(2, &cell2), reference[2]);
        assert_eq!(row(0, &outcomes(&lines[2], 0, 0)), reference[0]);
    }

    #[test]
    fn batch_requests_return_raw_outcomes_that_concatenate() {
        let scenario = quick_smoke().scaled(0.25);
        let cells = resolve_cells(&scenario).unwrap();
        let seed = cell_seed(&scenario.name, 2009, 1);
        let reference = run_cell_range(&cells[1], seed, 0, 2).unwrap();

        let requests = format!(
            "{}\n{}\n{}\n{}\n",
            hello_line(&scenario, 2009),
            batch_line(1, 0, 1),
            batch_line(1, 1, 1),
            shutdown_line()
        );
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 2);
        let mut got = outcomes(&lines[1], 1, 0);
        got.extend(outcomes(&lines[2], 1, 1));
        // Two one-trial batches concatenate to the two-trial reference.
        assert_eq!(got, reference);
        // Malformed batch objects are protocol errors.
        let requests = format!(
            "{}\n{{\"cell\":1,\"batch\":{{\"start\":0}}}}\n",
            hello_line(&scenario, 2009)
        );
        assert!(matches!(drive(&requests), Err(DistError::Format(_))));
    }

    #[test]
    fn metrics_shipping_adds_delta_lines_without_touching_row_bytes() {
        let scenario = quick_smoke().scaled(0.25);
        let batch = batch_line(1, 0, 2);
        let plain = format!("{}\n{batch}\n", hello_line(&scenario, 2009));
        let (_, reference) = drive(&plain).unwrap();
        let requests = format!(
            "{}\n{batch}\n{}\n",
            hello_line_with(&scenario, 2009, true),
            shutdown_line()
        );
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 1);
        // ready, outcomes, metrics delta, final snapshot.
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert_eq!(lines[1], reference[1], "outcome bytes must not change");
        let delta = Json::parse(&lines[2]).unwrap();
        assert!(delta.get("metrics").is_some());
        crate::metrics::snapshot_from_json(delta.get("metrics").unwrap()).unwrap();
        let finale = Json::parse(&lines[3]).unwrap();
        let final_snap =
            crate::metrics::snapshot_from_json(finale.get("final_metrics").unwrap()).unwrap();
        // Structural only: the recorder is process-global and other tests in
        // this binary may be toggling it concurrently, so counter values are
        // asserted in the subprocess-based CLI tests instead.
        assert_eq!(final_snap.counters.len(), obs::Counter::ALL.len());
    }

    #[test]
    fn eof_is_a_clean_shutdown() {
        let scenario = quick_smoke().scaled(0.25);
        let requests = format!("{}\n{}\n", hello_line(&scenario, 1), batch_line(0, 0, 1));
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 1);
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn protocol_violations_are_errors() {
        let rejected = |requests: String| {
            assert!(
                matches!(drive(&requests), Err(DistError::Format(_))),
                "{requests}"
            )
        };
        // Batch before hello.
        rejected(format!("{}\n", batch_line(0, 0, 1)));
        // Garbage line.
        rejected("not json\n".into());
        // Unknown request object.
        rejected("{\"warp\":1}\n".into());

        let scenario = quick_smoke().scaled(0.25);
        let trials = resolve_cells(&scenario).unwrap()[0].trials;
        let mut adaptive = scenario.clone();
        adaptive.precision = Precision::TargetStderr {
            eps: 0.1,
            min_trials: 2,
            max_trials: 6,
        };
        let after_hello = |scenario: &Scenario, request: &str| {
            format!("{}\n{request}\n", hello_line(scenario, 1))
        };
        for request in [
            // Out-of-range cell.
            batch_line(999, 0, 1),
            // A cell request without a batch.
            "{\"cell\":0}".to_string(),
            // An empty batch.
            batch_line(0, 0, 0),
            // Past the fixed trial budget, at the start or the end.
            batch_line(0, trials, 1),
            batch_line(0, 0, trials + 1),
            // Far past it: the worker must refuse before allocating.
            batch_line(0, 0, 1_000_000_000_000),
            // The largest start and count a JSON number carries exactly.
            batch_line(0, 1 << 53, 1 << 53),
        ] {
            rejected(after_hello(&scenario, &request));
        }
        // Under adaptive precision the budget is `max_trials`.
        assert!(drive(&after_hello(&adaptive, &batch_line(0, 2, 4))).is_ok());
        rejected(after_hello(&adaptive, &batch_line(0, 2, 5)));
    }
}
