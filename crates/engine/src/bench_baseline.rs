//! Baseline comparison for `meg-lab bench --baseline <FILE>` — the
//! regression gate behind every perf PR's "no workload got slower" claim.
//!
//! A baseline is any previously recorded bench document: either the
//! committed `BENCH_PR*.json` trajectory files at the repository root
//! (schema `meg-bench/v1`: an `entries` array keyed by `workload`) or a
//! `meg-lab bench --out` document (a `results` array keyed by `bench`).
//! [`parse_baseline`] accepts both, so CI can gate directly against the
//! last PR's committed numbers without a conversion step.
//!
//! [`compare`] joins a fresh run against the baseline per workload and
//! reports, for each matched name, the median-to-median wall-time ratio
//! (`current / baseline`; above 1 is slower) and whether the checksums
//! agree — a checksum mismatch means the two runs did *different work*, so
//! the ratio next to it is meaningless and the comparison fails regardless
//! of speed. When the run and the baseline both carry the
//! [`calibration`](crate::bench::CALIBRATION) workload, each median is first
//! divided by its own document's calibration median, so the ratio compares
//! code rather than hosts. [`render_table`] draws the per-workload table
//! `meg-lab` prints, and [`regressions`] applies the pass/fail threshold.

use crate::bench::{BenchResult, CALIBRATION};
use crate::json::Json;

/// One workload's numbers as recorded in a baseline document.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineEntry {
    /// Workload name (`workload` key in `meg-bench/v1`, `bench` in
    /// `--out` documents).
    pub name: String,
    /// Recorded median wall time, in milliseconds.
    pub median_ms: f64,
    /// Recorded checksum; `None` when the entry carries none (derived or
    /// aggregate entries).
    pub checksum: Option<f64>,
}

/// One row of the baseline comparison: a workload present in both the
/// fresh run and the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct CompareRow {
    /// Workload name.
    pub name: String,
    /// Baseline median, in milliseconds.
    pub baseline_ms: f64,
    /// Fresh-run median, in milliseconds.
    pub current_ms: f64,
    /// `current_ms / baseline_ms` — below 1.0 is a speedup, above is a
    /// slowdown. When `calibrated`, each median is first divided by its
    /// document's calibration median.
    pub ratio: f64,
    /// Whether the run and the baseline both timed the calibration
    /// workload, making `ratio` a ratio of calibrated medians.
    pub calibrated: bool,
    /// `Some(true)` when both checksums exist and agree, `Some(false)` on a
    /// mismatch, `None` when the baseline entry recorded no checksum.
    pub checksum_match: Option<bool>,
}

/// Extracts the per-workload entries from a baseline document, accepting
/// both on-disk schemas (see the module docs). Names joinable against
/// [`BenchResult::name`] are whatever the document recorded. Entries without
/// a name are skipped (aggregate/derived sections); a named entry whose
/// `median_ms` is missing or not a finite positive number is an error
/// naming it, since the comparison could not use it.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let (list, key) = match (doc.get("entries"), doc.get("results")) {
        (Some(entries), _) => (entries, "workload"),
        (None, Some(results)) => (results, "bench"),
        (None, None) => {
            return Err("baseline document has neither `entries` nor `results`".to_string())
        }
    };
    let arr = list
        .as_arr()
        .ok_or_else(|| format!("baseline `{key}` section is not an array"))?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let name = match item.get(key).and_then(Json::as_str) {
            Some(name) => name.to_string(),
            None => continue,
        };
        let median_ms = match item.get("median_ms").and_then(Json::as_f64) {
            Some(m) if m.is_finite() && m > 0.0 => m,
            _ => return Err(format!("entry `{name}` has no finite positive `median_ms`")),
        };
        out.push(BaselineEntry {
            name,
            median_ms,
            checksum: item.get("checksum").and_then(Json::as_f64),
        });
    }
    if out.is_empty() {
        return Err("baseline document contains no usable workload entries".to_string());
    }
    Ok(out)
}

/// Joins fresh results against baseline entries by workload name, in the
/// order of `results`. Workloads absent from the baseline produce no row
/// (new workloads are not regressions); baseline entries not re-run are
/// likewise ignored. If both sides carry the calibration workload, every
/// ratio is taken between calibrated medians (the calibration row itself
/// then reads 1, and [`is_regression`] checks only its checksum).
pub fn compare(results: &[BenchResult], baseline: &[BaselineEntry]) -> Vec<CompareRow> {
    let current_unit = results.iter().find(|r| r.name == CALIBRATION);
    let baseline_unit = baseline.iter().find(|b| b.name == CALIBRATION);
    let (current_unit, baseline_unit, calibrated) = match (current_unit, baseline_unit) {
        (Some(c), Some(b)) if c.median_ms > 0.0 => (c.median_ms, b.median_ms, true),
        _ => (1.0, 1.0, false),
    };
    results
        .iter()
        .filter_map(|r| {
            let base = baseline.iter().find(|b| b.name == r.name)?;
            Some(CompareRow {
                name: r.name.clone(),
                baseline_ms: base.median_ms,
                current_ms: r.median_ms,
                ratio: (r.median_ms / current_unit) / (base.median_ms / baseline_unit),
                calibrated,
                checksum_match: base.checksum.map(|c| c == r.checksum),
            })
        })
        .collect()
}

/// A row fails the gate when it ran slower than `threshold × baseline`
/// **or** its checksum disagrees with the baseline's (different work —
/// the timing comparison itself is invalid). In a calibrated comparison the
/// calibration row is the unit, its ratio 1 by definition, so only its
/// checksum can fail it.
pub fn is_regression(row: &CompareRow, threshold: f64) -> bool {
    let unit = row.calibrated && row.name == CALIBRATION;
    (!unit && row.ratio > threshold) || row.checksum_match == Some(false)
}

/// The rows of `rows` that fail the gate at `threshold`.
pub fn regressions(rows: &[CompareRow], threshold: f64) -> Vec<CompareRow> {
    rows.iter()
        .filter(|r| is_regression(r, threshold))
        .cloned()
        .collect()
}

/// Renders the comparison as a fixed-width ASCII table (one line per
/// workload, regressions marked), ending with a one-line verdict.
pub fn render_table(rows: &[CompareRow], threshold: f64) -> String {
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .max()
        .unwrap_or(8)
        .max("workload".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:<name_w$}  {:>12}  {:>12}  {:>7}  {:>8}\n",
        "workload", "baseline_ms", "current_ms", "ratio", "checksum"
    ));
    for row in rows {
        let checksum = match row.checksum_match {
            Some(true) => "ok",
            Some(false) => "MISMATCH",
            None => "-",
        };
        let mark = if is_regression(row, threshold) {
            "  << REGRESSION"
        } else {
            ""
        };
        out.push_str(&format!(
            "{:<name_w$}  {:>12.3}  {:>12.3}  {:>6.3}x  {:>8}{}\n",
            row.name, row.baseline_ms, row.current_ms, row.ratio, checksum, mark
        ));
    }
    if rows.iter().any(|r| r.calibrated) {
        out.push_str("ratios compare medians in units of each document's calibration median\n");
    }
    let failed = regressions(rows, threshold).len();
    if rows.is_empty() {
        out.push_str("no workloads matched the baseline document\n");
    } else if failed == 0 {
        out.push_str(&format!(
            "all {} workload(s) within {threshold}x of baseline\n",
            rows.len()
        ));
    } else {
        out.push_str(&format!(
            "{failed} of {} workload(s) regressed past {threshold}x\n",
            rows.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(name: &str, median_ms: f64, checksum: f64) -> BenchResult {
        BenchResult {
            name: name.to_string(),
            params: vec![("n".into(), 64.0)],
            repetitions: 2,
            warmup: 1,
            median_ms,
            iqr_ms: 0.0,
            min_ms: median_ms,
            max_ms: median_ms,
            samples_ms: vec![median_ms, median_ms],
            checksum,
            counters: None,
            spans: None,
        }
    }

    #[test]
    fn parses_the_committed_pr_schema() {
        let text = r#"{
            "schema": "meg-bench/v1",
            "entries": [
                {"workload": "a", "median_ms": 10.0, "checksum": 42},
                {"workload": "b", "median_ms": 5.0},
                {"note": "derived entry without workload key"}
            ]
        }"#;
        let base = parse_baseline(text).unwrap();
        assert_eq!(base.len(), 2);
        assert_eq!(base[0].name, "a");
        assert_eq!(base[0].checksum, Some(42.0));
        assert_eq!(base[1].checksum, None);
    }

    #[test]
    fn parses_the_bench_out_schema() {
        let text = r#"{
            "label": "x", "results": [
                {"bench": "a", "median_ms": 2.5, "checksum": 7}
            ]
        }"#;
        let base = parse_baseline(text).unwrap();
        assert_eq!(base.len(), 1);
        assert_eq!(base[0].name, "a");
        assert_eq!(base[0].median_ms, 2.5);
    }

    #[test]
    fn rejects_unusable_documents() {
        assert!(parse_baseline("not json").is_err());
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"entries": []}"#).is_err());
        assert!(parse_baseline(r#"{"entries": [{"workload": "a"}]}"#).is_err());
    }

    #[test]
    fn named_entry_without_a_finite_positive_median_is_an_error_naming_it() {
        // A valid calibration entry, then a named entry with `median`
        // spliced in: -7, 0, missing, and 1e400 (which parses to +inf).
        let doc = |median: &str| {
            format!(
                r#"{{"results":[{{"bench":"calibration","median_ms":5,"checksum":9}},
                    {{"bench":"geo_flood_n4096","checksum":252{median}}}]}}"#
            )
        };
        for median in [
            r#","median_ms":-7"#,
            r#","median_ms":0"#,
            "",
            r#","median_ms":1e400"#,
        ] {
            let err = parse_baseline(&doc(median)).unwrap_err();
            assert!(err.contains("`geo_flood_n4096`"), "{median}: {err}");
        }
        assert_eq!(
            parse_baseline(&doc(r#","median_ms":1e300"#)).unwrap().len(),
            2
        );
    }

    #[test]
    fn every_committed_bench_document_parses() {
        // The repository root's `BENCH_*.json` files: each bench document
        // (`entries` or `results`) must parse; an A/B record of another
        // schema is not a baseline and is rejected as such.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let mut parsed = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            match parse_baseline(&std::fs::read_to_string(&path).unwrap()) {
                Ok(_) => parsed += 1,
                Err(e) => assert!(e.contains("neither `entries` nor `results`"), "{name}: {e}"),
            }
        }
        assert!(parsed > 0, "no bench document found at the repository root");
    }

    #[test]
    fn compare_joins_by_name_and_flags_checksums() {
        let base = vec![
            BaselineEntry {
                name: "a".into(),
                median_ms: 10.0,
                checksum: Some(42.0),
            },
            BaselineEntry {
                name: "b".into(),
                median_ms: 4.0,
                checksum: Some(1.0),
            },
            BaselineEntry {
                name: "unrun".into(),
                median_ms: 1.0,
                checksum: None,
            },
        ];
        let results = vec![
            result("a", 8.0, 42.0),
            result("b", 4.0, 2.0), // checksum mismatch
            result("new_workload", 1.0, 9.0),
        ];
        let rows = compare(&results, &base);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].ratio, 0.8);
        assert_eq!(rows[0].checksum_match, Some(true));
        assert!(!is_regression(&rows[0], 1.25));
        assert_eq!(rows[1].checksum_match, Some(false));
        assert!(
            is_regression(&rows[1], 1.25),
            "checksum mismatch fails the gate even at ratio 1.0"
        );
    }

    #[test]
    fn calibration_in_both_documents_divides_every_median_by_it() {
        let base = vec![
            BaselineEntry {
                name: CALIBRATION.into(),
                median_ms: 50.0,
                checksum: Some(3.0),
            },
            BaselineEntry {
                name: "geo".into(),
                median_ms: 80.0,
                checksum: Some(7.0),
            },
        ];
        // This host runs the calibration loop 2x slower: a geo median of
        // 160 ms is the same code speed, 260 ms is 1.625x slower.
        let same = compare(
            &[result(CALIBRATION, 100.0, 3.0), result("geo", 160.0, 7.0)],
            &base,
        );
        assert!(same.iter().all(|r| r.calibrated));
        assert_eq!(same[0].ratio, 1.0);
        assert_eq!(same[1].ratio, 1.0);
        assert!(regressions(&same, 1.5).is_empty());
        let slower = compare(
            &[result(CALIBRATION, 100.0, 3.0), result("geo", 260.0, 7.0)],
            &base,
        );
        assert_eq!(slower[1].ratio, 1.625);
        assert_eq!(regressions(&slower, 1.5).len(), 1);
        assert!(render_table(&slower, 1.5).contains("calibration median"));
        // The calibration row is the unit: any threshold flags only the
        // workloads, never it, unless its checksum drifts.
        let flagged = regressions(&same, 0.001);
        assert_eq!(flagged.len(), 1);
        assert_eq!(flagged[0].name, "geo");
        let table = render_table(&same, 0.001);
        assert!(table.contains("1 of 2 workload(s) regressed"), "{table}");
        let drifted = compare(
            &[result(CALIBRATION, 100.0, 4.0), result("geo", 160.0, 7.0)],
            &base,
        );
        assert!(
            is_regression(&drifted[0], 1.5),
            "calibration checksum drift"
        );
        // Without calibration on both sides the ratio is raw.
        let raw = compare(&[result("geo", 160.0, 7.0)], &base);
        assert!(!raw[0].calibrated);
        assert_eq!(raw[0].ratio, 2.0);
        assert!(!render_table(&raw, 1.5).contains("calibration median"));
    }

    #[test]
    fn threshold_separates_noise_from_regression() {
        let base = vec![BaselineEntry {
            name: "a".into(),
            median_ms: 10.0,
            checksum: Some(5.0),
        }];
        let slow = compare(&[result("a", 12.0, 5.0)], &base);
        assert!(!is_regression(&slow[0], 1.25), "1.2x is within a 1.25 gate");
        assert!(is_regression(&slow[0], 1.1), "1.2x fails a 1.1 gate");
        assert_eq!(regressions(&slow, 1.1).len(), 1);
        assert_eq!(regressions(&slow, 1.25).len(), 0);
    }

    #[test]
    fn table_renders_every_row_and_a_verdict() {
        let base = vec![
            BaselineEntry {
                name: "fast_one".into(),
                median_ms: 10.0,
                checksum: Some(5.0),
            },
            BaselineEntry {
                name: "slow_one".into(),
                median_ms: 10.0,
                checksum: Some(6.0),
            },
        ];
        let rows = compare(
            &[result("fast_one", 8.0, 5.0), result("slow_one", 20.0, 6.0)],
            &base,
        );
        let table = render_table(&rows, 1.25);
        assert!(table.contains("fast_one"), "{table}");
        assert!(table.contains("0.800x"), "{table}");
        assert!(table.contains("REGRESSION"), "{table}");
        assert!(table.contains("1 of 2 workload(s) regressed"), "{table}");
        let clean = render_table(&rows[..1], 1.25);
        assert!(clean.contains("all 1 workload(s) within"), "{clean}");
        let empty = render_table(&[], 1.25);
        assert!(empty.contains("no workloads matched"), "{empty}");
    }

    #[test]
    fn round_trips_against_a_real_out_document() {
        // A `--out` document produced by `results_to_json` must parse as a
        // baseline and compare clean against its own source results.
        let results = vec![result("a", 3.0, 11.0)];
        let doc =
            crate::bench::results_to_json("t", &crate::bench::BenchOptions::default(), &results);
        let base = parse_baseline(&doc.render()).unwrap();
        let rows = compare(&results, &base);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].ratio, 1.0);
        assert_eq!(rows[0].checksum_match, Some(true));
        assert!(regressions(&rows, 1.25).is_empty());
    }
}
