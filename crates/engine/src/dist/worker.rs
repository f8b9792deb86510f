//! The worker side of the subprocess protocol.
//!
//! A worker (`meg-lab worker`) is a cell-execution server speaking JSON
//! lines on stdin/stdout:
//!
//! ```text
//! coordinator → worker   {"hello":{"scenario":{…},"master_seed":"2009"}}
//! worker → coordinator   {"ready":{"num_cells":8,"fingerprint":"…"}}
//! coordinator → worker   {"cell":3}
//! worker → coordinator   {"scenario":…,"cell":3,…}      ← canonical Row line
//! coordinator → worker   {"cell":3,"batch":{"start":4,"count":4}}
//! worker → coordinator   {"cell":3,"start":4,"outcomes":[{…},…]}
//! coordinator → worker   {"shutdown":true}              (or just EOF)
//! ```
//!
//! ## Metrics shipping
//!
//! When the hello carries `"metrics":true` ([`hello_line_with`]), the worker
//! installs its process-local `meg-obs` recorder and **ships telemetry back
//! inline**: every cell/batch response is followed by one extra line
//! holding the counter deltas recorded while serving that request, and the
//! shutdown request (which is otherwise unanswered) is acknowledged with
//! the worker's final full snapshot:
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
//! response row/outcome lines are byte-identical with shipping on or off.
//!
//! The response to a plain cell request is **exactly** the row line an
//! unsharded fixed-trials run would print: the worker derives the cell's
//! seed from the global index it was handed, so which process executes a
//! cell never changes its bytes.
//!
//! A **batch** request executes only trials `start .. start + count` of the
//! cell and returns the raw [`TrialOutcome`](crate::run::TrialOutcome)s
//! instead of a finished row — the unit the adaptive-precision control loop
//! grows cells with. Trial `i`'s randomness depends only on the cell seed
//! and `i`, so batches concatenate byte-identically to one fixed run.
//!
//! Both kinds of request run on the engine's sweep-wide trial queue, with
//! the worker's own trial threads (`RAYON_NUM_THREADS`, else all cores).
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
//! use meg_engine::dist::worker::{cell_line, hello_line, serve, shutdown_line};
//! use meg_engine::prelude::*;
//!
//! let scenario = builtin("quick_smoke").unwrap().scaled(0.25);
//! let requests = format!(
//!     "{}\n{}\n{}\n",
//!     hello_line(&scenario, 2009),
//!     cell_line(0),
//!     shutdown_line(),
//! );
//! let mut replies = Vec::new();
//! let served = serve(requests.as_bytes(), &mut replies, None).unwrap();
//! assert_eq!(served, 1);
//!
//! // The cell reply is byte-identical to the unsharded run's row line.
//! let reply = String::from_utf8(replies).unwrap();
//! let row_line = reply.lines().nth(1).unwrap(); // after the ready line
//! let reference = run_scenario(&scenario, 2009).unwrap()[0].to_json().render();
//! assert_eq!(row_line, reference);
//! ```

use super::checkpoint::scenario_fingerprint;
use super::DistError;
use crate::json::Json;
use crate::metrics::snapshot_to_json;
use crate::run::{cell_seed, resolve_cells, run_cell, run_cell_range, Cell};
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

/// Builds a cell-assignment request line.
pub fn cell_line(cell: usize) -> String {
    Json::obj([("cell", Json::Num(cell as f64))]).render()
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
/// Returns `Ok(served)` — the number of cells answered — on a clean
/// shutdown or EOF. Protocol violations and invalid scenarios are errors;
/// the binary reports them on stderr and exits non-zero.
///
/// `fail_after: Some(n)` makes the worker abort the whole process (exit code
/// [`FAIL_AFTER_EXIT_CODE`]) after answering `n` cells — fault injection for
/// coordinator-restart tests.
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
                .ok_or_else(|| DistError::Format("cell request before hello".into()))?;
            let cell = cells.get(index).ok_or_else(|| {
                DistError::Format(format!(
                    "cell {index} out of range (scenario has {} cells)",
                    cells.len()
                ))
            })?;
            let seed = cell_seed(&scenario.name, *master_seed, index);
            let reply = match msg.get("batch") {
                None => run_cell(scenario, cell, seed).to_json().render(),
                Some(batch) => {
                    let start = batch.get("start").and_then(Json::as_usize).ok_or_else(|| {
                        DistError::Format("batch request: missing `start`".into())
                    })?;
                    let count = batch.get("count").and_then(Json::as_usize).ok_or_else(|| {
                        DistError::Format("batch request: missing `count`".into())
                    })?;
                    let outcomes = run_cell_range(cell, seed, start, count);
                    Json::obj([
                        ("cell", Json::Num(index as f64)),
                        ("start", Json::Num(start as f64)),
                        (
                            "outcomes",
                            Json::Arr(outcomes.iter().map(|o| o.to_json()).collect()),
                        ),
                    ])
                    .render()
                }
            };
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
    use crate::run::{run_scenario, Row};

    fn drive(requests: &str) -> Result<(usize, Vec<String>), DistError> {
        let mut out = Vec::new();
        let served = serve(requests.as_bytes(), &mut out, None)?;
        let text = String::from_utf8(out).expect("utf8 output");
        Ok((served, text.lines().map(str::to_string).collect()))
    }

    #[test]
    fn serves_cells_byte_identically_to_an_unsharded_run() {
        let scenario = quick_smoke().scaled(0.25);
        let reference: Vec<String> = run_scenario(&scenario, 2009)
            .unwrap()
            .iter()
            .map(|r| r.to_json().render())
            .collect();

        // Ask for cells out of order; responses are still the canonical lines.
        let requests = format!(
            "{}\n{}\n{}\n{}\n",
            hello_line(&scenario, 2009),
            cell_line(2),
            cell_line(0),
            shutdown_line()
        );
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 2);
        assert_eq!(lines.len(), 3, "ready + two rows");
        let ready = Json::parse(&lines[0]).unwrap();
        assert_eq!(
            ready.get("ready").unwrap().get("num_cells").unwrap(),
            &Json::Num(reference.len() as f64)
        );
        assert_eq!(lines[1], reference[2]);
        assert_eq!(lines[2], reference[0]);
        // Row lines parse back losslessly.
        let row = Row::from_json(&Json::parse(&lines[1]).unwrap()).unwrap();
        assert_eq!(row.cell, 2);
    }

    #[test]
    fn batch_requests_return_raw_outcomes_that_concatenate() {
        use crate::run::{resolve_cells, TrialOutcome};
        let scenario = quick_smoke().scaled(0.25);
        let cells = resolve_cells(&scenario).unwrap();
        let seed = crate::run::cell_seed(&scenario.name, 2009, 1);
        let reference = crate::run::run_cell_range(&cells[1], seed, 0, 2);

        let requests = format!(
            "{}\n{}\n{}\n{}\n",
            hello_line(&scenario, 2009),
            batch_line(1, 0, 1),
            batch_line(1, 1, 1),
            shutdown_line()
        );
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 2);
        let mut outcomes = Vec::new();
        for (i, line) in lines[1..].iter().enumerate() {
            let v = Json::parse(line).unwrap();
            assert_eq!(v.get("cell").unwrap().as_usize(), Some(1));
            assert_eq!(v.get("start").unwrap().as_usize(), Some(i));
            for o in v.get("outcomes").unwrap().as_arr().unwrap() {
                outcomes.push(TrialOutcome::from_json(o).unwrap());
            }
        }
        // Two one-trial batches concatenate to the two-trial reference.
        assert_eq!(outcomes, reference);
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
        let reference: Vec<String> = run_scenario(&scenario, 2009)
            .unwrap()
            .iter()
            .map(|r| r.to_json().render())
            .collect();
        let requests = format!(
            "{}\n{}\n{}\n",
            hello_line_with(&scenario, 2009, true),
            cell_line(1),
            shutdown_line()
        );
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 1);
        // ready, row, metrics delta, final snapshot.
        assert_eq!(lines.len(), 4, "{lines:?}");
        assert_eq!(lines[1], reference[1], "row bytes must not change");
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
        let requests = format!("{}\n{}\n", hello_line(&scenario, 1), cell_line(0));
        let (served, lines) = drive(&requests).unwrap();
        assert_eq!(served, 1);
        assert_eq!(lines.len(), 2);
    }

    #[test]
    fn protocol_violations_are_errors() {
        // Cell before hello.
        assert!(matches!(
            drive(&format!("{}\n", cell_line(0))),
            Err(DistError::Format(_))
        ));
        // Out-of-range cell.
        let scenario = quick_smoke().scaled(0.25);
        let requests = format!("{}\n{}\n", hello_line(&scenario, 1), cell_line(999));
        assert!(matches!(drive(&requests), Err(DistError::Format(_))));
        // Garbage line.
        assert!(matches!(drive("not json\n"), Err(DistError::Format(_))));
        // Unknown request object.
        assert!(matches!(drive("{\"warp\":1}\n"), Err(DistError::Format(_))));
    }
}
