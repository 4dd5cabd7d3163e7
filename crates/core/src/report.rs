//! # Machine-readable experiment reports
//!
//! Every experiment driver returns a typed value implementing [`Report`]:
//! a named collection of [`Table`]s (plus free-form notes and optional
//! binary artifacts such as the Fig. 5 PGM images). One report renders to
//! three formats through [`render`]:
//!
//! * **text** — aligned human-readable tables, as printed by
//!   `cdma-bench experiments <name>` without `--format`;
//! * **csv** — one header + data block per table, RFC-4180-style quoting;
//! * **json** — a hand-rolled, escape-correct writer (this workspace
//!   builds offline, so there is no serde). Key order is fixed by the
//!   writer, non-finite numbers render as `null`, and numbers use Rust's
//!   shortest-round-trip formatting — so the same report always renders to
//!   byte-identical output.

use std::fmt::Write as _;

/// One value of a report table: a string, a float, or an integer.
///
/// Keeping the numeric cells numeric (instead of pre-formatting strings,
/// as the deleted per-figure drivers did) is what makes the CSV/JSON
/// renderings machine-readable and the golden tests bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A text cell.
    Str(String),
    /// A float cell. Non-finite values render as `null` in JSON and as an
    /// empty field in CSV (the explicit NaN/inf policy of the writers).
    Num(f64),
    /// An integer cell.
    Int(i64),
}

impl Cell {
    /// Human-readable rendering (text tables): floats print with at most
    /// four decimals, trailing zeros trimmed.
    pub fn text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Cell::Num(v) if !v.is_finite() => format!("{v}"),
            Cell::Num(v) => {
                let s = format!("{v:.4}");
                let s = s.trim_end_matches('0').trim_end_matches('.');
                if s.is_empty() || s == "-" {
                    "0".to_owned()
                } else {
                    s.to_owned()
                }
            }
            Cell::Int(v) => v.to_string(),
        }
    }

    /// Exact machine rendering shared by CSV and JSON: shortest
    /// round-trip float formatting; non-finite floats map to `None`.
    fn machine(&self) -> Option<String> {
        match self {
            Cell::Str(s) => Some(s.clone()),
            Cell::Num(v) if !v.is_finite() => None,
            Cell::Num(v) => Some(format!("{v}")),
            Cell::Int(v) => Some(v.to_string()),
        }
    }

    /// JSON rendering of this cell (strings escaped, `NaN`/`±inf` →
    /// `null`).
    pub fn json(&self) -> String {
        match self {
            Cell::Str(s) => json_string(s),
            other => other.machine().unwrap_or_else(|| "null".to_owned()),
        }
    }

    /// CSV rendering of this cell (quoted when needed, `NaN`/`±inf` →
    /// empty field).
    pub fn csv(&self) -> String {
        self.machine().as_deref().map(csv_field).unwrap_or_default()
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Str(s.to_owned())
    }
}
impl From<String> for Cell {
    fn from(s: String) -> Self {
        Cell::Str(s)
    }
}
impl From<f64> for Cell {
    fn from(v: f64) -> Self {
        Cell::Num(v)
    }
}
impl From<i64> for Cell {
    fn from(v: i64) -> Self {
        Cell::Int(v)
    }
}
impl From<u64> for Cell {
    fn from(v: u64) -> Self {
        Cell::Int(i64::try_from(v).expect("report integer fits i64"))
    }
}
impl From<usize> for Cell {
    fn from(v: usize) -> Self {
        Cell::Int(i64::try_from(v).expect("report integer fits i64"))
    }
}

/// Escapes `s` as a JSON string literal (including the surrounding
/// quotes): `"` and `\` are backslash-escaped, control characters use the
/// short forms where JSON has them and `\u00XX` otherwise.
// pub: report_format.rs pins the escaping
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Quotes `s` as one CSV field: fields containing commas, quotes or line
/// breaks are wrapped in double quotes with embedded quotes doubled.
// pub: report_format.rs pins the quoting
pub fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        s.to_owned()
    }
}

/// One titled table of a report: named columns plus uniform-width rows.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with static column names.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table::with_columns(title, columns.iter().map(|c| (*c).to_owned()).collect())
    }

    /// Creates an empty table with computed column names (e.g. one column
    /// per training checkpoint).
    pub fn with_columns(title: &str, columns: Vec<String>) -> Self {
        Table {
            title: title.to_owned(),
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn row<I: IntoIterator<Item = Cell>>(&mut self, cells: I) {
        let row: Vec<Cell> = cells.into_iter().collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "table {:?}: row width {} != {} columns",
            self.title,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// The data rows.
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Renders the table as aligned text.
    fn render_text(&self) -> String {
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::text).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let mut line = String::new();
        for (h, w) in self.columns.iter().zip(&widths) {
            let _ = write!(line, "{h:<w$}  ");
        }
        out.push_str(line.trim_end());
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        out.push_str(&"-".repeat(total.saturating_sub(2)));
        out.push('\n');
        for row in &cells {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:<w$}  ");
            }
            out.push_str(line.trim_end());
            out.push('\n');
        }
        out
    }

    /// Renders the table as a CSV block (header row + data rows).
    fn render_csv(&self) -> String {
        let mut out = String::new();
        let header: Vec<String> = self.columns.iter().map(|c| csv_field(c)).collect();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in &self.rows {
            let fields: Vec<String> = row.iter().map(Cell::csv).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as one JSON object (fixed key order: `title`,
    /// `columns`, `rows`).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"title\":");
        out.push_str(&json_string(&self.title));
        out.push_str(",\"columns\":[");
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(c));
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, cell) in row.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&cell.json());
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

/// A binary side-product of an experiment (e.g. one Fig. 5 PGM image),
/// written to disk by the CLI's `--out` mode.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// File name relative to the experiment's output directory.
    pub name: String,
    /// Raw file contents.
    pub bytes: Vec<u8>,
}

/// The common interface of every experiment result: a machine id, a human
/// title, tables, and optional notes/artifacts. Render one with
/// [`render`] (or [`render_json`]).
pub trait Report {
    /// Stable machine name (the CLI experiment name, e.g. `"fig11"`).
    fn name(&self) -> &'static str;

    /// Human-readable title.
    fn title(&self) -> String;

    /// The report's tables.
    fn tables(&self) -> Vec<Table>;

    /// Free-form commentary lines (paper comparisons, ASCII charts).
    fn notes(&self) -> Vec<String> {
        Vec::new()
    }

    /// Binary artifacts to write alongside the report.
    fn artifacts(&self) -> Vec<Artifact> {
        Vec::new()
    }
}

/// Output format of a rendered report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Aligned human-readable tables.
    Text,
    /// One CSV block per table.
    Csv,
    /// One JSON object per report.
    Json,
}

impl Format {
    /// Conventional file extension for the format.
    pub fn extension(&self) -> &'static str {
        match self {
            Format::Text => "txt",
            Format::Csv => "csv",
            Format::Json => "json",
        }
    }
}

impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" | "txt" => Ok(Format::Text),
            "csv" => Ok(Format::Csv),
            "json" => Ok(Format::Json),
            other => Err(format!("unknown format {other:?} (expected text|csv|json)")),
        }
    }
}

/// Renders a report in the requested format.
pub fn render(report: &dyn Report, format: Format) -> String {
    match format {
        Format::Text => render_text(report),
        Format::Csv => render_csv(report),
        Format::Json => render_json(report),
    }
}

/// Renders a report as human-readable text: a banner, each table aligned,
/// then the notes.
fn render_text(report: &dyn Report) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "=== {} [{}] ===", report.title(), report.name());
    for table in report.tables() {
        let _ = writeln!(out, "\n-- {} --", table.title());
        out.push_str(&table.render_text());
    }
    let notes = report.notes();
    if !notes.is_empty() {
        out.push('\n');
        for note in notes {
            let _ = writeln!(out, "{note}");
        }
    }
    out
}

/// Renders a report as CSV: each table as a `# <report>: <table>` comment
/// line followed by its header + data block, blocks separated by blank
/// lines. Notes and artifacts are omitted.
fn render_csv(report: &dyn Report) -> String {
    let mut out = String::new();
    for (i, table) in report.tables().iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let _ = writeln!(out, "# {}: {}", report.name(), table.title());
        out.push_str(&table.render_csv());
    }
    out
}

/// Renders a report as one JSON object with fixed key order:
/// `experiment`, `title`, `tables`, `notes`, `artifacts` (artifact names
/// only; bytes are written separately by the CLI).
pub fn render_json(report: &dyn Report) -> String {
    let mut out = String::new();
    out.push_str("{\"experiment\":");
    out.push_str(&json_string(report.name()));
    out.push_str(",\"title\":");
    out.push_str(&json_string(&report.title()));
    out.push_str(",\"tables\":[");
    for (i, table) in report.tables().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&table.render_json());
    }
    out.push_str("],\"notes\":[");
    for (i, note) in report.notes().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(note));
    }
    out.push_str("],\"artifacts\":[");
    for (i, artifact) in report.artifacts().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(&artifact.name));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sample;

    impl Report for Sample {
        fn name(&self) -> &'static str {
            "sample"
        }

        fn title(&self) -> String {
            "A \"sample\" report".to_owned()
        }

        fn tables(&self) -> Vec<Table> {
            let mut t = Table::new("cells", &["name", "ratio", "count"]);
            t.row(["plain, quoted".into(), Cell::Num(2.6), 32u64.into()]);
            t.row(["n\nl".into(), Cell::Num(f64::NAN), Cell::Int(-1)]);
            vec![t]
        }

        fn notes(&self) -> Vec<String> {
            vec!["line\twith\ttabs".to_owned()]
        }
    }

    #[test]
    fn json_escapes_and_nan_policy() {
        let json = render_json(&Sample);
        assert!(json.contains("\"A \\\"sample\\\" report\""));
        assert!(json.contains("\"plain, quoted\""));
        assert!(json.contains("\"n\\nl\""));
        assert!(json.contains("[\"n\\nl\",null,-1]"));
        assert!(json.contains("\"line\\twith\\ttabs\""));
        // No raw control characters survive.
        assert!(json.chars().all(|c| (c as u32) >= 0x20));
    }

    #[test]
    fn json_string_escapes_control_chars() {
        assert_eq!(json_string("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(json_string("\u{8}\u{c}"), "\"\\b\\f\"");
        assert_eq!(json_string("\\\""), "\"\\\\\\\"\"");
    }

    #[test]
    fn csv_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        let csv = render_csv(&Sample);
        assert!(csv.starts_with("# sample: cells\nname,ratio,count\n"));
        assert!(csv.contains("\"plain, quoted\",2.6,32\n"));
        // NaN renders as an empty field.
        assert!(csv.contains("\"n\nl\",,-1\n"));
    }

    #[test]
    fn text_renders_aligned_and_trims_float_noise() {
        assert_eq!(Cell::Num(2.6000).text(), "2.6");
        assert_eq!(Cell::Num(13.8).text(), "13.8");
        assert_eq!(Cell::Num(0.0).text(), "0");
        assert_eq!(Cell::Num(1.0 / 3.0).text(), "0.3333");
        let text = render_text(&Sample);
        assert!(text.starts_with("=== A \"sample\" report [sample] ===\n"));
        assert!(text.contains("-- cells --"));
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Cell::Num(v).json(), "null");
            assert_eq!(Cell::Num(v).csv(), "");
        }
        assert_eq!(Cell::Num(1.5).json(), "1.5");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_rejected() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["only-one".into()]);
    }
}
