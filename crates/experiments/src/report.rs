//! Experiment reports: aligned text tables plus CSV export.

use pp_core::json::{Json, ObjBuilder};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The result of one experiment: a table of rows plus free-form notes, ready
/// to be rendered next to the paper's corresponding claim.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Short identifier ("E2").
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The paper's claim this experiment checks, quoted or paraphrased.
    pub paper_claim: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows (each the same length as `headers`).
    pub rows: Vec<Vec<String>>,
    /// Additional findings (fits, win rates, bound checks).
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(id: &str, title: &str, paper_claim: &str, headers: Vec<String>) -> Self {
        ExperimentReport {
            id: id.to_string(),
            title: title.to_string(),
            paper_claim: paper_claim.to_string(),
            headers,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.headers.len(), "row/header length mismatch");
        self.rows.push(row);
    }

    /// Appends a note.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the report as an aligned text table with title and notes.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {}: {} ==", self.id, self.title);
        let _ = writeln!(out, "paper claim: {}", self.paper_claim);
        let mut header_line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(header_line, "{:<width$}  ", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", header_line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(header_line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Renders the report as a self-contained JSON object through the
    /// workspace codec (`pp_core::json`).  Rows become arrays of strings
    /// under `"rows"`.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }

    /// The report as a JSON value (see [`ExperimentReport::to_json`]), for
    /// embedding in a larger document.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        fn strings(items: &[String]) -> Json {
            Json::Arr(items.iter().cloned().map(Json::Str).collect())
        }
        ObjBuilder::new()
            .field("id", Json::Str(self.id.clone()))
            .field("title", Json::Str(self.title.clone()))
            .field("paper_claim", Json::Str(self.paper_claim.clone()))
            .field("headers", strings(&self.headers))
            .field(
                "rows",
                Json::Arr(self.rows.iter().map(|row| strings(row)).collect()),
            )
            .field("notes", strings(&self.notes))
            .build()
    }

    /// Renders the table as CSV (headers first, RFC-4180-style quoting for
    /// cells containing commas or quotes).
    #[must_use]
    pub fn to_csv(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }
}

/// A collection of reports (one run of the harness).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportCollection {
    /// The reports in execution order.
    pub reports: Vec<ExperimentReport>,
}

impl ReportCollection {
    /// Creates an empty collection.
    #[must_use]
    pub fn new() -> Self {
        ReportCollection {
            reports: Vec::new(),
        }
    }

    /// Adds a report.
    pub fn push(&mut self, report: ExperimentReport) {
        self.reports.push(report);
    }

    /// Renders every report separated by blank lines.
    #[must_use]
    pub fn render(&self) -> String {
        self.reports
            .iter()
            .map(ExperimentReport::render)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Formats a float with a sensible number of significant digits for tables.
#[must_use]
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return x.to_string();
    }
    let a = x.abs();
    if a == 0.0 {
        "0".to_string()
    } else if a >= 1e6 {
        format!("{x:.3e}")
    } else if a >= 100.0 {
        format!("{x:.0}")
    } else if a >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ExperimentReport {
        let mut r = ExperimentReport::new(
            "E0",
            "sample",
            "a claim",
            vec!["n".to_string(), "time".to_string()],
        );
        r.push_row(vec!["1000".to_string(), "12345".to_string()]);
        r.push_row(vec!["2000".to_string(), "27000".to_string()]);
        r.push_note("fit slope 1.1");
        r
    }

    #[test]
    fn render_contains_all_cells_and_notes() {
        let s = sample_report().render();
        for needle in ["E0", "sample", "a claim", "1000", "27000", "fit slope 1.1"] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn json_escapes_and_round_trips_structure() {
        let mut r = ExperimentReport::new("E0", "t\"x", "c\\d", vec!["a".into()]);
        r.push_row(vec!["line\nbreak".into()]);
        r.push_note("n1");
        let json = r.to_json();
        assert!(json.contains("\"id\":\"E0\""));
        assert!(json.contains("t\\\"x"));
        assert!(json.contains("c\\\\d"));
        assert!(json.contains("line\\nbreak"));
        assert!(json.contains("\"notes\":[\"n1\"]"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        let mut r = ExperimentReport::new("E0", "t", "c", vec!["a".into(), "b".into()]);
        r.push_row(vec!["plain".into(), "has,comma".into()]);
        r.push_row(vec!["has\"quote".into(), "x".into()]);
        let csv = r.to_csv();
        assert!(csv.contains("plain,\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\",x"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn row_length_is_validated() {
        let mut r = ExperimentReport::new("E0", "t", "c", vec!["a".into()]);
        r.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn collection_renders_every_report() {
        let mut c = ReportCollection::new();
        c.push(sample_report());
        c.push(sample_report());
        assert_eq!(c.render().matches("== E0").count(), 2);
    }

    #[test]
    fn float_formatting_ranges() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(3.21159), "3.21");
        assert_eq!(fmt_f64(0.01234), "0.0123");
        assert_eq!(fmt_f64(250.4), "250");
        assert!(fmt_f64(1.5e7).contains('e'));
    }
}
