//! Output sinks: one result stream, three renderings.
//!
//! Every engine run can be emitted as
//!
//! * [`OutputFormat::Table`] — aligned ASCII for terminals;
//! * [`OutputFormat::Json`] — JSON-lines, one object per row, for machine
//!   consumption (the perf-trajectory format the ROADMAP asks for);
//! * [`OutputFormat::Csv`] — flat CSV for spreadsheets and plotting.

use crate::run::Row;
use meg_stats::table::fmt_f64;
use meg_stats::Table;
use std::str::FromStr;

/// The supported output formats.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned ASCII table (default).
    #[default]
    Table,
    /// JSON-lines: one JSON object per row.
    Json,
    /// CSV with a header row.
    Csv,
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "table" | "ascii" => Ok(OutputFormat::Table),
            "json" | "jsonl" | "json-lines" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!(
                "unknown output format `{other}` (expected table|json|csv)"
            )),
        }
    }
}

/// Fixed CSV header for engine result rows.
pub const CSV_HEADER: &str = "scenario,cell,family,substrate,protocol,params,regime,seed,trials,\
requested_trials,achieved_stderr,completion_rate,mean_rounds,min_rounds,max_rounds,std_rounds,\
mean_messages";

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders one engine row as a CSV record (no trailing newline). Every
/// string field is escaped (RFC-4180 style: quoted when it contains a comma,
/// quote, or newline, with quotes doubled), so scenario names, protocol
/// labels, param keys, and regime strings can carry arbitrary text.
pub fn row_to_csv(row: &Row) -> String {
    let opt = |f: fn(&meg_stats::Summary) -> f64| match &row.rounds {
        Some(s) => format!("{}", f(s)),
        None => String::new(),
    };
    [
        csv_escape(&row.scenario),
        row.cell.to_string(),
        csv_escape(&row.family),
        csv_escape(&row.substrate),
        csv_escape(&row.protocol),
        csv_escape(&row.params_compact()),
        csv_escape(&row.regime),
        row.seed.to_string(),
        row.trials.to_string(),
        row.requested_trials.to_string(),
        match row.achieved_stderr {
            Some(se) => format!("{se}"),
            None => String::new(),
        },
        format!("{}", row.completion_rate),
        opt(|s| s.mean),
        opt(|s| s.min),
        opt(|s| s.max),
        opt(|s| s.std_dev),
        format!("{}", row.mean_messages),
    ]
    .join(",")
}

/// Builds the ASCII table for a batch of engine rows.
pub fn rows_to_table(caption: &str, rows: &[Row]) -> Table {
    let mut table = Table::new(
        caption,
        &[
            "cell",
            "substrate",
            "protocol",
            "params",
            "regime",
            "trials",
            "completion",
            "mean T",
            "±se",
            "range",
            "messages",
        ],
    );
    for row in rows {
        let (mean, range) = match &row.rounds {
            Some(s) => (
                format!("{:.2}", s.mean),
                format!("{:.0}–{:.0}", s.min, s.max),
            ),
            None => ("-".into(), "-".into()),
        };
        table.push_row(&[
            row.cell.to_string(),
            row.substrate.clone(),
            row.protocol.clone(),
            row.params_compact(),
            row.regime.clone(),
            // `executed/requested` makes adaptive early stops visible.
            if row.trials == row.requested_trials {
                row.trials.to_string()
            } else {
                format!("{}/{}", row.trials, row.requested_trials)
            },
            format!("{:.0}%", row.completion_rate * 100.0),
            mean,
            match row.achieved_stderr {
                Some(se) => format!("{se:.2}"),
                None => "-".into(),
            },
            range,
            fmt_f64(row.mean_messages),
        ]);
    }
    table
}

/// Renders a batch of engine rows in the given format (ends with a newline
/// when non-empty).
pub fn render_rows(caption: &str, rows: &[Row], format: OutputFormat) -> String {
    match format {
        OutputFormat::Table => rows_to_table(caption, rows).render_ascii(),
        OutputFormat::Json => {
            let mut out = String::new();
            for row in rows {
                out.push_str(&row.to_json().render());
                out.push('\n');
            }
            out
        }
        OutputFormat::Csv => {
            let mut out = String::from(CSV_HEADER);
            out.push('\n');
            for row in rows {
                out.push_str(&row_to_csv(row));
                out.push('\n');
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use meg_stats::Summary;

    fn sample_row() -> Row {
        Row {
            scenario: "demo".into(),
            cell: 3,
            family: "edge".into(),
            substrate: "edge-sparse".into(),
            protocol: "flooding".into(),
            params: vec![("n".into(), 100.0), ("q".into(), 0.5)],
            regime: "Tight".into(),
            seed: u64::MAX,
            trials: 5,
            requested_trials: 5,
            achieved_stderr: Some(0.41),
            completion_rate: 0.8,
            rounds: Summary::of_counts(&[3, 4, 5, 4]),
            mean_messages: 1234.5,
        }
    }

    #[test]
    fn format_parsing() {
        assert_eq!(
            "table".parse::<OutputFormat>().unwrap(),
            OutputFormat::Table
        );
        assert_eq!("JSON".parse::<OutputFormat>().unwrap(), OutputFormat::Json);
        assert_eq!("csv".parse::<OutputFormat>().unwrap(), OutputFormat::Csv);
        assert!("yaml".parse::<OutputFormat>().is_err());
    }

    #[test]
    fn json_lines_round_trip_and_preserve_u64_seeds() {
        let line = render_rows("cap", &[sample_row()], OutputFormat::Json);
        let parsed = Json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("scenario").unwrap().as_str(), Some("demo"));
        assert_eq!(parsed.get("cell").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            parsed.get("seed").unwrap().as_str(),
            Some(u64::MAX.to_string().as_str())
        );
        assert_eq!(parsed.get("mean_rounds").unwrap().as_f64(), Some(4.0));
        assert_eq!(
            parsed.get("params").unwrap().get("n").unwrap().as_f64(),
            Some(100.0)
        );
    }

    #[test]
    fn incomplete_cells_render_nulls_and_blanks() {
        let mut row = sample_row();
        row.rounds = None;
        let line = render_rows("", &[row.clone()], OutputFormat::Json);
        let parsed = Json::parse(line.trim()).unwrap();
        assert_eq!(parsed.get("mean_rounds"), Some(&Json::Null));
        let csv = row_to_csv(&row);
        assert!(csv.contains(",,,,"), "blank summary columns in {csv}");
    }

    #[test]
    fn csv_has_aligned_header_and_fields() {
        let record = row_to_csv(&sample_row());
        assert_eq!(
            record.split(',').count(),
            CSV_HEADER.split(',').count(),
            "record fields must match the header"
        );
        let rendered = render_rows("x", &[sample_row()], OutputFormat::Csv);
        assert!(rendered.starts_with(CSV_HEADER));
    }

    #[test]
    fn table_rendering_contains_key_cells() {
        let ascii = render_rows("caption here", &[sample_row()], OutputFormat::Table);
        assert!(ascii.contains("caption here"));
        assert!(ascii.contains("edge-sparse"));
        assert!(ascii.contains("80%"));
        assert!(ascii.contains("3–5"));
    }
}
