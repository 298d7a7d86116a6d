//! Tabular experiment reports and campaign summaries.
//!
//! Every scenario run returns an [`ExperimentReport`]: a named table of rows plus free-form
//! notes, which the CLI prints and writes to per-experiment CSV files. Keeping the output
//! structural (rather than plotting) mirrors the paper artifact's `results.csv` files. A
//! batch of reports folds into a [`CampaignSummary`], the JSON index `--out` writes next to
//! the CSVs.

use serde::{Deserialize, Serialize};
use std::fmt;

/// How much simulation work a builtin experiment spec asks for; [`crate::builtin_spec`]
/// bakes it into the spec's sweeps and cycle budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Small sweeps and short runs: suitable for unit tests and smoke runs (seconds).
    Quick,
    /// The full sweeps used to regenerate the paper's figures (minutes in release builds).
    Full,
}

/// The result of one scenario run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Experiment identifier (`fig2`, `table1`, ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Table rows.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes: headline metrics, paper-vs-measured comparisons.
    pub notes: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: &[&str]) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row; the cell count should match the headers.
    pub fn push_row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Appends every row of a batch in order — the collection side of the engine's leg
    /// runner, which returns one result per leg in leg order.
    pub fn push_rows(&mut self, rows: impl IntoIterator<Item = Vec<String>>) {
        for row in rows {
            self.push_row(row);
        }
    }

    /// Appends a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Renders the report as CSV (headers + rows; notes become `#` comments).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            out.push_str(&format!("# {n}\n"));
        }
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ExperimentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        for n in &self.notes {
            writeln!(f, "   {n}")?;
        }
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map(|c| c.len()).unwrap_or(0))
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "   {}", fmt_row(&self.headers))?;
        for row in &self.rows {
            writeln!(f, "   {}", fmt_row(row))?;
        }
        Ok(())
    }
}

/// One line of a [`CampaignSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSummary {
    /// Experiment identifier.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Number of table rows the experiment produced.
    pub rows: usize,
    /// The experiment's notes (headline metrics, paper comparisons).
    pub notes: Vec<String>,
}

/// A machine-readable index of a batch of experiment reports, written as
/// `campaign-summary.json` next to the per-experiment CSVs by the harness's `--out`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignSummary {
    /// Campaign (or single experiment) name.
    pub name: String,
    /// One entry per report, in run order.
    pub experiments: Vec<ExperimentSummary>,
}

impl CampaignSummary {
    /// Summarizes `reports` under `name`.
    pub fn new(name: impl Into<String>, reports: &[ExperimentReport]) -> Self {
        CampaignSummary {
            name: name.into(),
            experiments: reports
                .iter()
                .map(|r| ExperimentSummary {
                    id: r.id.clone(),
                    title: r.title.clone(),
                    rows: r.rows.len(),
                    notes: r.notes.clone(),
                })
                .collect(),
        }
    }

    /// Pretty-printed JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("summaries contain no non-finite floats")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_and_display_contain_headers_rows_and_notes() {
        let mut r = ExperimentReport::new("fig0", "demo", &["a", "b"]);
        r.note("a note");
        r.push_row(vec!["1".into(), "2".into()]);
        r.push_row(vec!["3".into(), "4".into()]);
        let csv = r.to_csv();
        assert!(csv.starts_with("# a note\na,b\n1,2\n3,4\n"));
        let text = r.to_string();
        assert!(text.contains("fig0"));
        assert!(text.contains("a note"));
        assert!(text.contains('4'));
    }

    #[test]
    fn campaign_summary_indexes_reports_in_order() {
        let mut a = ExperimentReport::new("fig0", "first", &["x"]);
        a.push_row(vec!["1".into()]);
        a.note("headline");
        let b = ExperimentReport::new("fig1", "second", &["y"]);
        let summary = CampaignSummary::new("demo", &[a, b]);
        assert_eq!(summary.experiments.len(), 2);
        assert_eq!(summary.experiments[0].id, "fig0");
        assert_eq!(summary.experiments[0].rows, 1);
        assert_eq!(summary.experiments[0].notes, vec!["headline".to_string()]);
        assert_eq!(summary.experiments[1].rows, 0);
        let json = summary.to_json();
        let back: CampaignSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }
}
