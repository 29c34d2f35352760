//! Result tables and markdown rendering.

use std::fmt::Write as _;

use cbp_telemetry::json::push_str_escaped;

/// One table or figure-series of results.
#[derive(Debug, Clone)]
pub struct Table {
    /// Paper artifact id (`fig3a`, `table1`, ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row cells (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-form notes, including the paper's anchor observations.
    pub notes: Vec<String>,
}

impl Table {
    /// Creates a table with headers.
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            id: id.into(),
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width mismatch in table {}",
            self.id
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders as a GitHub-flavored markdown table with notes.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} — {}\n", self.id, self.title);
        let _ = writeln!(out, "| {} |", self.columns.join(" | "));
        let _ = writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for n in &self.notes {
                let _ = writeln!(out, "- {n}");
            }
        }
        out
    }

    /// Renders as an aligned plain-text table for the terminal.
    pub fn text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {}", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        let _ = writeln!(out, "  {}", header.join("  "));
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            let _ = writeln!(out, "  {}", cells.join("  "));
        }
        for n in &self.notes {
            let _ = writeln!(out, "  note: {n}");
        }
        out
    }
}

/// A complete experiment: one or more tables plus the paper's headline
/// expectation.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Experiment id (`fig3`, `table3`, ...).
    pub id: String,
    /// What the paper claims this artifact shows.
    pub paper_claim: String,
    /// The reproduced tables.
    pub tables: Vec<Table>,
}

impl Experiment {
    /// Creates an experiment shell. [`crate::ExperimentDef::run`] sets
    /// its id.
    pub fn new(paper_claim: impl Into<String>) -> Self {
        Experiment {
            id: String::new(),
            paper_claim: paper_claim.into(),
            tables: Vec::new(),
        }
    }

    /// Adds a table.
    pub fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Markdown section for EXPERIMENTS.md.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {}\n", self.id);
        let _ = writeln!(out, "**Paper:** {}\n", self.paper_claim);
        for t in &self.tables {
            out.push_str(&t.markdown());
            out.push('\n');
        }
        out
    }
}

/// Renders `experiments.json`: a JSON array indented by two spaces per
/// level, one value per line, each object's fields in declaration order
/// and empty arrays as `[]`.
pub fn experiments_json(experiments: &[Experiment]) -> String {
    let mut out = String::new();
    push_array(&mut out, 0, experiments, |out, depth, e| {
        out.push('{');
        push_member(out, depth, "id");
        push_str_escaped(out, &e.id);
        push_member(out, depth, "paper_claim");
        push_str_escaped(out, &e.paper_claim);
        push_member(out, depth, "tables");
        push_array(out, depth + 1, &e.tables, |out, depth, t| {
            out.push('{');
            push_member(out, depth, "id");
            push_str_escaped(out, &t.id);
            push_member(out, depth, "title");
            push_str_escaped(out, &t.title);
            push_member(out, depth, "columns");
            push_strings(out, depth + 1, &t.columns);
            push_member(out, depth, "rows");
            push_array(out, depth + 1, &t.rows, |out, depth, row| {
                push_strings(out, depth, row)
            });
            push_member(out, depth, "notes");
            push_strings(out, depth + 1, &t.notes);
            push_newline(out, depth);
            out.push('}');
        });
        push_newline(out, depth);
        out.push('}');
    });
    out
}

/// Appends `items` as an array nested `depth` levels deep; `item` writes
/// one element at `depth + 1`.
fn push_array<T>(
    out: &mut String,
    depth: usize,
    items: &[T],
    mut item: impl FnMut(&mut String, usize, &T),
) {
    if items.is_empty() {
        out.push_str("[]");
        return;
    }
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_newline(out, depth + 1);
        item(out, depth + 1, x);
    }
    push_newline(out, depth);
    out.push(']');
}

fn push_strings(out: &mut String, depth: usize, strings: &[String]) {
    push_array(out, depth, strings, |out, _, s| push_str_escaped(out, s));
}

/// Starts the field `key` of the object at `depth` whose `{` is already
/// written.
fn push_member(out: &mut String, depth: usize, key: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    push_newline(out, depth + 1);
    push_str_escaped(out, key);
    out.push_str(": ");
}

fn push_newline(out: &mut String, depth: usize) {
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Formats a float with `digits` decimals.
pub fn fmt(value: f64, digits: usize) -> String {
    format!("{value:.digits$}")
}

/// Formats a fraction as a percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t1", "Sample", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.note("a note");
        t
    }

    fn labeled(id: &str, paper_claim: &str) -> Experiment {
        Experiment {
            id: id.into(),
            ..Experiment::new(paper_claim)
        }
    }

    #[test]
    fn markdown_shape() {
        let md = sample().markdown();
        assert!(md.contains("### t1 — Sample"));
        assert!(md.contains("| a | bb |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
        assert!(md.contains("- a note"));
    }

    #[test]
    fn text_alignment() {
        let txt = sample().text();
        assert!(txt.contains("== t1 — Sample"));
        assert!(txt.contains("a  bb"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new("t", "t", &["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn experiment_markdown() {
        let mut e = labeled("fig0", "claim");
        e.push(sample());
        let md = e.markdown();
        assert!(md.starts_with("## fig0"));
        assert!(md.contains("**Paper:** claim"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt(1.2345, 2), "1.23");
        assert_eq!(pct(0.123), "12.3%");
    }

    /// Edge cases of `experiments.json` with their exact text: an empty
    /// list, an experiment with no tables, a table with no rows or notes,
    /// and cells that need escaping (quote, backslash, newline, U+0001)
    /// next to one that does not (`≈`).
    fn pinned_json() -> Vec<(Vec<Experiment>, &'static str)> {
        let bare = labeled("e0", "no tables");
        let mut empty = labeled("e1", "claim");
        empty.push(Table::new("t1", "Empty", &["a"]));
        let mut escaped = labeled("e2", "≈ \"quoted\"");
        let mut t = Table::new("t2", "Esc\\aped", &["x", "y"]);
        t.row(vec!["q\"b\\s".into(), "n\nu\u{1}≈".into()]);
        t.note("tab\there");
        escaped.push(t);
        vec![
            (Vec::new(), "[]"),
            (
                vec![bare],
                r#"[
  {
    "id": "e0",
    "paper_claim": "no tables",
    "tables": []
  }
]"#,
            ),
            (
                vec![empty],
                r#"[
  {
    "id": "e1",
    "paper_claim": "claim",
    "tables": [
      {
        "id": "t1",
        "title": "Empty",
        "columns": [
          "a"
        ],
        "rows": [],
        "notes": []
      }
    ]
  }
]"#,
            ),
            (
                vec![escaped],
                r#"[
  {
    "id": "e2",
    "paper_claim": "≈ \"quoted\"",
    "tables": [
      {
        "id": "t2",
        "title": "Esc\\aped",
        "columns": [
          "x",
          "y"
        ],
        "rows": [
          [
            "q\"b\\s",
            "n\nu\u0001≈"
          ]
        ],
        "notes": [
          "tab\there"
        ]
      }
    ]
  }
]"#,
            ),
        ]
    }

    #[test]
    fn experiments_json_is_pinned() {
        for (experiments, text) in pinned_json() {
            assert_eq!(experiments_json(&experiments), text);
        }
    }
}
