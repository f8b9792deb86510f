//! Helpers behind the `meg-lab` CLI: metrics sinks, the adaptive-precision
//! defaulting rule, and a renderer for tests and examples.
//!
//! Metrics always land on **stderr**: stdout is the byte-identical row
//! stream.

use crate::scenario::{Precision, Scenario, ScenarioError};
use crate::sink::{render_rows, OutputFormat};
use meg_obs as obs;

/// Which metrics sink a run should drive (`--metrics` / `MEG_METRICS`).
///
/// Metrics always land on stderr: stdout carries the row stream, whose bytes
/// are diffed against golden fixtures and across shards, and must be
/// identical whether or not a recorder is installed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricsMode {
    /// Human-readable sweep-level summary after the run.
    Report,
    /// One JSON line of counter deltas per cell, plus a final sweep line.
    Jsonl,
}

impl std::str::FromStr for MetricsMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "report" => Ok(MetricsMode::Report),
            "jsonl" => Ok(MetricsMode::Jsonl),
            other => Err(format!(
                "metrics mode must be report or jsonl, not `{other}`"
            )),
        }
    }
}

/// Emits one per-cell counter-delta JSON line to stderr (jsonl mode only)
/// and advances `prev` to the current snapshot.
pub fn emit_cell_metrics(mode: MetricsMode, cell: usize, prev: &mut obs::MetricsSnapshot) {
    if mode != MetricsMode::Jsonl {
        return;
    }
    let now = obs::snapshot();
    let deltas: Vec<String> = now
        .counter_deltas(prev)
        .iter()
        .map(|(n, v)| format!("\"{n}\":{v}"))
        .collect();
    eprintln!("{{\"cell\":{cell},\"counters\":{{{}}}}}", deltas.join(","));
    *prev = now;
}

/// Emits the sweep-level metrics summary to stderr. A worker pool's
/// per-lane snapshots (`worker_metrics`, empty for an in-process run) are
/// folded into the coordinator's own snapshot, so the summary covers
/// engine/protocol counters recorded *inside* the worker subprocesses.
/// Report mode prefixes one `worker i:` subtotal line per lane (nonzero
/// counters only); jsonl mode emits one `{"worker":i,"metrics":{…}}` line
/// per lane before the merged final line.
pub fn emit_metrics_summary_merged(mode: MetricsMode, worker_metrics: &[obs::MetricsSnapshot]) {
    let mut merged = obs::snapshot();
    for lane in worker_metrics {
        merged.merge(lane);
    }
    match mode {
        MetricsMode::Report => {
            for (i, lane) in worker_metrics.iter().enumerate() {
                let nonzero: Vec<String> = lane
                    .counters
                    .iter()
                    .filter(|(_, v)| *v > 0)
                    .map(|(n, v)| format!("{n} {v}"))
                    .collect();
                eprintln!(
                    "worker {i}: {}",
                    if nonzero.is_empty() {
                        "(no counters recorded)".to_string()
                    } else {
                        nonzero.join(" · ")
                    }
                );
            }
            eprint!("{}", merged.render_report());
        }
        MetricsMode::Jsonl => {
            for (i, lane) in worker_metrics.iter().enumerate() {
                let line = crate::json::Json::obj([
                    ("worker", crate::json::Json::Num(i as f64)),
                    ("metrics", crate::metrics::snapshot_to_json(lane)),
                ]);
                eprintln!("{}", line.render());
            }
            eprintln!("{}", merged.render_jsonl());
        }
    }
}

/// Resolves the adaptive-precision knobs into a [`Precision::TargetStderr`]
/// policy — the single defaulting rule behind both the `meg-lab` flags and
/// the `MEG_*` environment spellings. `explicit_min` / `explicit_max` carry
/// the user's values when given; defaults are `min = fallback_trials.max(2)`
/// (the scenario's trial count) and `max = 32 × min`. A *defaulted* minimum
/// yields to an explicit tiny budget; an explicit inconsistent pair is an
/// error.
pub fn resolve_target_stderr(
    eps: f64,
    explicit_min: Option<usize>,
    explicit_max: Option<usize>,
    fallback_trials: usize,
) -> Result<Precision, String> {
    let mut min = explicit_min.unwrap_or_else(|| fallback_trials.max(2));
    let max = explicit_max.unwrap_or_else(|| min.saturating_mul(32));
    if max < min {
        if explicit_min.is_some() {
            return Err(format!(
                "adaptive max_trials={max} must be ≥ min_trials={min}"
            ));
        }
        min = max;
    }
    Ok(Precision::TargetStderr {
        eps,
        min_trials: min,
        max_trials: max,
    })
}

/// Runs the scenario and returns its rendered rows, for tests and examples
/// (`meg-lab run` streams through `dist::run_sharded` instead).
pub fn render_scenario(
    scenario: &Scenario,
    master_seed: u64,
    format: OutputFormat,
) -> Result<String, ScenarioError> {
    let caption = format!("{}: {}", scenario.name, scenario.description);
    let rows = crate::run::run_scenario(scenario, master_seed)?;
    Ok(render_rows(&caption, &rows, format))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::quick_smoke;

    #[test]
    fn render_scenario_is_deterministic() {
        let s = quick_smoke().scaled(0.5);
        let a = render_scenario(&s, 42, OutputFormat::Json).unwrap();
        let b = render_scenario(&s, 42, OutputFormat::Json).unwrap();
        assert_eq!(a, b);
        assert!(a.lines().count() >= 1);
    }
}
