//! Experiment table rendering.
//!
//! `meg-lab` and the examples print their results as tables: a header row
//! plus one row per parameter setting, rendered as aligned ASCII (for the
//! terminal, and pasted into EXPERIMENTS.md). Machine-readable output goes
//! through the engine's JSON-lines and CSV row sinks instead.

use serde::{Deserialize, Serialize};

/// A simple rectangular table of strings with a caption.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Table {
    caption: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given caption and column headers.
    pub fn new<S: Into<String>>(caption: S, header: &[&str]) -> Self {
        Table {
            caption: caption.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of columns.
    pub fn num_cols(&self) -> usize {
        self.header.len()
    }

    /// The caption.
    pub fn caption(&self) -> &str {
        &self.caption
    }

    /// Appends a row of already-formatted cells.
    ///
    /// Panics if the number of cells does not match the header.
    pub fn push_row<S: ToString>(&mut self, cells: &[S]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row has {} cells, header has {}",
            cells.len(),
            self.header.len()
        );
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Returns the cell at `(row, col)` if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows
            .get(row)
            .and_then(|r| r.get(col))
            .map(|s| s.as_str())
    }

    /// Renders the table as aligned ASCII text.
    pub fn render_ascii(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if !self.caption.is_empty() {
            out.push_str(&format!("## {}\n", self.caption));
        }
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths.iter()) {
                line.push_str(&format!(" {cell:>w$} |", w = w));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Formats a float with a sensible number of digits for table cells.
pub fn fmt_f64(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else if x.abs() >= 0.01 {
        format!("{x:.3}")
    } else {
        format!("{x:.2e}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut t = Table::new("demo", &["n", "time"]);
        t.push_row(&["100", "3"]);
        t.push_row(&["200", "5"]);
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(t.cell(1, 1), Some("5"));
        assert_eq!(t.cell(2, 0), None);
        assert_eq!(t.caption(), "demo");
    }

    #[test]
    #[should_panic]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.push_row(&["only one"]);
    }

    #[test]
    fn ascii_rendering_aligns_columns() {
        let mut t = Table::new("cap", &["param", "value"]);
        t.push_row(&["n", "1000"]);
        t.push_row(&["radius", "3"]);
        let s = t.render_ascii();
        assert!(s.starts_with("## cap\n"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // all body lines have equal length
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[1].len(), lines[4].len());
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(12.34), "12.3");
        assert_eq!(fmt_f64(1.23456), "1.235");
        assert_eq!(fmt_f64(0.0001234), "1.23e-4");
    }

    #[test]
    fn serde_derives_compile() {
        // serde_json is not a dependency; exercise the derived trait bounds
        // through generic functions so regressions in the derives are caught.
        fn assert_serializable<T: serde::Serialize>(_t: &T) {}
        fn assert_deserializable<'de, T: serde::Deserialize<'de>>() {}
        let mut t = Table::new("roundtrip", &["x"]);
        t.push_row(&["1"]);
        assert_serializable(&t);
        assert_deserializable::<Table>();
    }
}
