//! Experiment tables, their Markdown rendering, and the one writer of every
//! `BENCH_<id>.json`.
//!
//! A [`Table`] cell is a typed [`Value`]: a count is an integer, a rate or a
//! latency a float rounded to the precision it is printed with ([`num`]), a
//! verdict or a name a string, and "not applicable" is `null`.  The same
//! cells render as Markdown for the terminal and serialise unchanged into
//! the experiment's [`Record`], so the two views cannot drift apart.

use std::path::{Path, PathBuf};

use bakery_json::{ToJson, Value};

/// Schema string of every `BENCH_<id>.json` the runner writes.
pub const SCHEMA: &str = "bakery-experiments/v1";

/// One result table: a title, a header row and data rows of typed cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (e.g. "E1 — ticket growth and overflow").
    pub title: String,
    /// Column headers (units go in the header, never in a cell).
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Value>>,
    /// Free-form notes displayed under the table.
    pub notes: Vec<String>,
}

bakery_json::json_object!(Table {
    title,
    headers,
    rows,
    notes
});

/// A float cell rounded to `decimals` places, so the JSON carries exactly the
/// figure the Markdown shows.
#[must_use]
pub fn num(value: f64, decimals: i32) -> Value {
    let scale = 10f64.powi(decimals);
    Value::Float((value * scale).round() / scale)
}

/// Renders one cell for Markdown: strings verbatim, numbers as JSON prints
/// them, booleans as yes/no and `null` as a dash.
fn render(cell: &Value) -> String {
    match cell {
        Value::Str(text) => text.clone(),
        Value::Null => "-".to_string(),
        Value::Bool(flag) => if *flag { "yes" } else { "no" }.to_string(),
        other => other.to_compact_string(),
    }
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|h| (*h).to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    /// Panics if the row length does not match the header length.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(row);
    }

    /// Appends a note rendered under the table.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table as GitHub-flavoured Markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(render).collect())
            .collect();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = format!("### {}\n\n", self.title);
        let render_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:<width$}", width = widths[i]))
                .collect();
            format!("| {} |\n", padded.join(" | "))
        };
        out.push_str(&render_row(&self.headers));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |\n", dashes.join(" | ")));
        for row in &rows {
            out.push_str(&render_row(row));
        }
        for note in &self.notes {
            out.push_str(&format!("\n> {note}\n"));
        }
        out
    }
}

/// One experiment's run: its tables plus the context needed to read them.
/// This is the envelope of its `BENCH_<id>.json`.
#[derive(Debug, Clone)]
pub struct Record {
    /// Experiment id as the runner prints it (`"E2"`).
    pub experiment: String,
    /// One-line description of the paper claim the experiment regenerates.
    pub description: String,
    /// Whether the run used the CI-sized (`--quick`) configuration.
    pub quick: bool,
    /// Logical CPUs available during the run.  With fewer CPUs than worker
    /// threads, contended figures measure the scheduler as much as the lock.
    pub cpus: usize,
    /// Tables in presentation order.
    pub tables: Vec<Table>,
}

impl ToJson for Record {
    fn to_json(&self) -> Value {
        Value::Object(vec![
            ("schema".to_string(), SCHEMA.into()),
            ("experiment".to_string(), self.experiment.to_json()),
            ("description".to_string(), self.description.to_json()),
            ("quick".to_string(), self.quick.into()),
            ("cpus".to_string(), self.cpus.into()),
            ("tables".to_string(), self.tables.to_json()),
        ])
    }
}

/// The records of one runner invocation, in run order.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// One record per experiment run.
    pub records: Vec<Record>,
}

impl Report {
    /// Renders every table as Markdown separated by blank lines.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        self.records
            .iter()
            .flat_map(|record| &record.tables)
            .map(Table::to_markdown)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Writes each record as pretty-printed `BENCH_<id>.json` (id in lower
    /// case) under `dir`, created if missing, and returns the paths written,
    /// in run order.
    ///
    /// # Errors
    /// Returns the first I/O error from creating `dir` or writing a file.
    pub fn write_dir(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        self.records
            .iter()
            .map(|record| {
                let name = format!("BENCH_{}.json", record.experiment.to_ascii_lowercase());
                let path = dir.join(name);
                std::fs::write(&path, record.to_json().to_pretty_string() + "\n")?;
                Ok(path)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown_with_alignment() {
        let mut t = Table::new("Demo", &["algorithm", "value"]);
        t.push_row(vec!["bakery".into(), 1u64.into()]);
        t.push_row(vec!["bakery++".into(), 22u64.into()]);
        t.push_note("a note");
        let md = t.to_markdown();
        assert!(md.contains("### Demo"));
        assert!(md.contains("| algorithm | value |"));
        assert!(md.contains("| bakery++  | 22    |"));
        assert!(md.contains("> a note"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn cells_render_by_type() {
        let mut t = Table::new("Types", &["f", "b", "n"]);
        t.push_row(vec![num(2.0 / 3.0, 2), true.into(), Value::Null]);
        let md = t.to_markdown();
        assert!(md.contains("| 0.67 | yes | - |"), "{md}");
        assert_eq!(num(1234.5678, 0), Value::Float(1235.0));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_is_rejected() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.push_row(vec!["only-one".into()]);
    }

    #[test]
    fn report_combines_tables_and_names_files_by_lower_case_id() {
        let record = |experiment: &str, title: &str| Record {
            experiment: experiment.into(),
            description: "demo".into(),
            quick: true,
            cpus: 1,
            tables: vec![Table::new(title, &["x"])],
        };
        let report = Report {
            records: vec![record("E1", "T1"), record("E10", "T2")],
        };
        let md = report.to_markdown();
        assert!(md.contains("### T1") && md.contains("### T2"));
        let dir = std::env::temp_dir().join(format!("bakery-report-{}", std::process::id()));
        let written = report.write_dir(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            written,
            [dir.join("BENCH_e1.json"), dir.join("BENCH_e10.json")]
        );
    }
}
