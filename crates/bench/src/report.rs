//! The one result type every experiment returns. A [`Table`] of typed
//! [`Cell`]s has exactly three views — [`Table::render`] (aligned text),
//! [`Table::to_csv`] and [`Table::to_json`] — and a `Report` groups an
//! experiment's tables with its parameters, headline and invariants; it is
//! what `target/experiments/BENCH_<name>.json` holds and what the gate
//! ([`crate::gate`]) reads back with `json_scalars`.

use crate::Scale;
use std::fmt::Write as _;
use std::path::Path;
use tldag_obs::journal::json_escape;

/// One typed table cell.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A measurement. `NaN` means "no sample": blank in text and CSV,
    /// `null` in JSON.
    Float(f64),
    /// A flag.
    Bool(bool),
    /// A label.
    Str(String),
}

macro_rules! cell_from {
    ($($t:ty => $variant:ident as $via:ty),+) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::$variant(v as $via)
            }
        }
    )+};
}
cell_from!(
    u64 => Int as u64,
    u32 => Int as u64,
    usize => Int as u64,
    f64 => Float as f64,
    bool => Bool as bool
);

impl From<&str> for Cell {
    fn from(v: &str) -> Cell {
        Cell::Str(v.to_string())
    }
}

impl From<String> for Cell {
    fn from(v: String) -> Cell {
        Cell::Str(v)
    }
}

/// Builds one table row of `column => value` pairs for [`Table::push`]:
/// `row!["window" => p.window, "parity" => p.parity]`.
#[macro_export]
macro_rules! row {
    ($($column:expr => $v:expr),* $(,)?) => {
        vec![$(($column, $crate::report::Cell::from($v))),*]
    };
}

impl Cell {
    /// The cell as a number (flags as 1/0, labels as `NaN`).
    pub(crate) fn as_f64(&self) -> f64 {
        match self {
            Cell::Int(v) => *v as f64,
            Cell::Float(v) => *v,
            Cell::Bool(v) => f64::from(u8::from(*v)),
            Cell::Str(_) => f64::NAN,
        }
    }

    fn text(&self) -> String {
        match self {
            Cell::Float(v) if v.is_nan() => String::new(),
            Cell::Float(v) => fmt_f64(*v),
            Cell::Int(v) => v.to_string(),
            Cell::Bool(v) => v.to_string(),
            Cell::Str(v) => v.clone(),
        }
    }

    fn csv(&self) -> String {
        match self {
            Cell::Float(v) if v.is_nan() => String::new(),
            Cell::Float(v) => format!("{v:.6}"),
            Cell::Str(v) => csv_escape(v),
            other => other.text(),
        }
    }

    fn json(&self) -> String {
        match self {
            Cell::Float(v) if !v.is_finite() => "null".to_string(),
            // Trimmed to a stable, diff-friendly precision.
            Cell::Float(v) => {
                let s = format!("{v:.6}");
                s.trim_end_matches('0').trim_end_matches('.').to_string()
            }
            Cell::Str(v) => json_escape(v),
            other => other.text(),
        }
    }
}

/// A named table: one panel of one experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// File stem of the table's CSV under `target/experiments/`.
    pub(crate) name: String,
    /// Heading printed above the rendered table.
    pub(crate) title: String,
    /// Column names — the text header, the CSV header and the JSON keys —
    /// as the first row pushed named them.
    pub(crate) columns: Vec<String>,
    /// Rows, each as long as `columns`.
    pub(crate) rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table.
    ///
    /// ```
    /// use tldag_bench::{report::Table, row};
    ///
    /// let mut t = Table::new("demo", "Demo");
    /// t.push(row!["system" => "2LDAG", "storage_mb" => 99.2]);
    /// assert!(t.render().contains("2LDAG   99.20"));
    /// assert_eq!(t.to_csv(), "system,storage_mb\n2LDAG,99.200000\n");
    /// assert!(t.to_json().contains("{\"system\":\"2LDAG\",\"storage_mb\":99.2}"));
    /// ```
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            title: title.into(),
            columns: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// A slot-indexed table: a `slot` column followed by one float column
    /// per named series (each as long as `slots`; `NaN` = not sampled).
    pub(crate) fn series(
        name: impl Into<String>,
        title: impl Into<String>,
        slots: &[u64],
        series: &[(String, Vec<f64>)],
    ) -> Self {
        let mut table = Table::new(name, title);
        for (i, &slot) in slots.iter().enumerate() {
            let mut row = row!["slot" => slot];
            let samples = series.iter();
            row.extend(samples.map(|(label, values)| (label.as_str(), Cell::Float(values[i]))));
            table.push(row);
        }
        table
    }

    /// Appends a row of `(column, cell)` pairs (see [`row!`](crate::row)).
    /// The first row names the columns.
    ///
    /// # Panics
    ///
    /// If a later row names different columns.
    pub fn push(&mut self, row: Vec<(&str, Cell)>) {
        let (names, cells): (Vec<&str>, Vec<Cell>) = row.into_iter().unzip();
        if self.rows.is_empty() {
            self.columns = names.iter().map(|c| c.to_string()).collect();
        }
        let columns = self.columns.iter().map(String::as_str);
        assert!(columns.eq(names), "columns of {}", self.name);
        self.rows.push(cells);
    }

    /// One column as numbers, top to bottom (see [`Cell::as_f64`]).
    ///
    /// # Panics
    ///
    /// If the table has no such column.
    pub(crate) fn column(&self, name: &str) -> Vec<f64> {
        let at = self
            .columns
            .iter()
            .position(|c| c == name)
            .unwrap_or_else(|| panic!("table {} has no column {name}", self.name));
        self.rows.iter().map(|row| row[at].as_f64()).collect()
    }

    /// The table as aligned text under its title and a header rule.
    pub fn render(&self) -> String {
        let mut out = format!("\n== {} ==\n", self.title);
        if self.rows.is_empty() {
            return out + "(no rows)\n";
        }
        let text: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::text).collect())
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                let cells = text.iter().map(|row| row[i].chars().count());
                cells.fold(self.columns[i].chars().count(), usize::max)
            })
            .collect();
        let line = |cells: &[String]| -> String {
            let padded = cells.iter().zip(&widths);
            let padded = padded.map(|(cell, &width)| format!("{cell:<width$}"));
            padded.collect::<Vec<_>>().join("  ") + "\n"
        };
        out.push_str(&line(&self.columns));
        let rule = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        text.iter().for_each(|row| out.push_str(&line(row)));
        out
    }

    /// The table as CSV: a header line, one line per row, floats at six
    /// decimals, fields quoted only where a comma, quote or newline needs it.
    pub fn to_csv(&self) -> String {
        let header = self.columns.iter().map(|c| csv_escape(c));
        let rows = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::csv).collect::<Vec<_>>().join(","));
        let mut out = header.collect::<Vec<_>>().join(",");
        out.push('\n');
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
        out
    }

    /// The table as a JSON object whose `rows` are objects keyed by column.
    pub fn to_json(&self) -> String {
        let rows = self.rows.iter().map(|row| {
            let fields = self.columns.iter().zip(row);
            json_object(fields.map(|(key, cell)| (key.as_str(), cell.json())))
        });
        json_object([
            ("name", json_escape(&self.name)),
            ("title", json_escape(&self.title)),
            ("rows", json_array(rows)),
        ])
    }
}

/// What one experiment run produced.
#[derive(Clone, Debug)]
pub(crate) struct Report {
    /// The experiment's registry name (`BENCH_<name>.json`).
    pub(crate) name: &'static str,
    /// The sweep's parameters, `scale` first.
    pub(crate) params: Vec<(&'static str, Cell)>,
    /// The panels, in print order.
    pub(crate) tables: Vec<Table>,
    /// The one-sentence result (empty = none).
    pub(crate) headline: String,
    /// Named conditions that must all hold for the run to count as a pass.
    pub(crate) invariants: Vec<(String, bool)>,
}

impl Report {
    /// An empty report for `name` at `scale`.
    pub(crate) fn new(name: &'static str, scale: Scale) -> Self {
        Report {
            name,
            params: vec![("scale", format!("{scale:?}").into())],
            tables: Vec::new(),
            headline: String::new(),
            invariants: Vec::new(),
        }
    }

    /// Adds a sweep parameter.
    pub(crate) fn param(mut self, key: &'static str, value: impl Into<Cell>) -> Self {
        self.params.push((key, value.into()));
        self
    }

    /// Records a named condition the run must satisfy.
    pub(crate) fn invariant(&mut self, name: impl Into<String>, holds: bool) {
        self.invariants.push((name.into(), holds));
    }

    /// Whether every invariant holds.
    pub(crate) fn passed(&self) -> bool {
        self.invariants.iter().all(|(_, holds)| *holds)
    }

    /// Parameters, every table, the headline and the invariant tally.
    pub(crate) fn render(&self) -> String {
        let params = self.params.iter().map(|(k, v)| format!("{k}={}", v.text()));
        let mut out = format!("{}: {}\n", self.name, params.collect::<Vec<_>>().join(" "));
        self.tables.iter().for_each(|t| out.push_str(&t.render()));
        if !self.headline.is_empty() {
            let _ = writeln!(out, "\nheadline: {}", self.headline);
        }
        for (name, _) in self.invariants.iter().filter(|(_, holds)| !holds) {
            let _ = writeln!(out, "INVARIANT BROKEN: {name}");
        }
        if !self.invariants.is_empty() {
            let held = self.invariants.iter().filter(|(_, holds)| *holds).count();
            let _ = writeln!(out, "invariants: {held}/{} hold", self.invariants.len());
        }
        out
    }

    /// The whole report as one JSON document.
    pub(crate) fn to_json(&self) -> String {
        let params = self.params.iter().map(|(k, v)| (*k, v.json()));
        let invariants = self.invariants.iter().map(|(name, holds)| {
            json_object([("name", json_escape(name)), ("holds", holds.to_string())])
        });
        json_object(
            std::iter::once(("experiment", json_escape(self.name)))
                .chain(params)
                .chain([
                    ("tables", json_array(self.tables.iter().map(Table::to_json))),
                    ("headline", json_escape(&self.headline)),
                    ("invariants", json_array(invariants)),
                ]),
        )
    }

    /// Writes `<table.name>.csv` for every table and `BENCH_<name>.json`
    /// into `dir`, creating it if needed.
    ///
    /// # Errors
    ///
    /// The first I/O error.
    pub(crate) fn write(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        for table in &self.tables {
            std::fs::write(dir.join(format!("{}.csv", table.name)), table.to_csv())?;
        }
        let json = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(json, self.to_json())
    }
}

fn json_object<'a>(fields: impl IntoIterator<Item = (&'a str, String)>) -> String {
    let fields = fields
        .into_iter()
        .map(|(key, value)| format!("{}:{value}", json_escape(key)));
    format!("{{{}}}", fields.collect::<Vec<_>>().join(","))
}

fn json_array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Every `"key":<number>` of a JSON document written by [`Report::to_json`]
/// (or by an earlier harness: the committed baselines), in document order —
/// how the gate compares `BENCH_*.json` files without a JSON parser
/// dependency. Booleans read as 1/0 so flags gate like rates; strings,
/// `null`s, objects and arrays are skipped, so text inside a string value
/// never counts as a key.
pub(crate) fn json_scalars(json: &str) -> Vec<(String, f64)> {
    let bytes = json.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let start = i + 1;
        let mut end = start;
        while end < bytes.len() && bytes[end] != b'"' {
            end += if bytes[end] == b'\\' { 2 } else { 1 };
        }
        let end = end.min(bytes.len());
        i = end + 1;
        if bytes.get(i) != Some(&b':') {
            continue; // a string value, not a key
        }
        let tail = &json[i + 1..];
        let number = tail
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .unwrap_or(tail.len());
        let value = match tail[..number].parse::<f64>() {
            Ok(v) => Some(v),
            Err(_) if tail.starts_with("true") => Some(1.0),
            Err(_) if tail.starts_with("false") => Some(0.0),
            Err(_) => None,
        };
        if let Some(v) = value {
            out.push((json[start..end].to_string(), v));
        }
    }
    out
}

/// Formats a float compactly for tables.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

/// The values of one key, in document order (see [`json_scalars`]).
#[cfg(test)]
fn json_numbers(json: &str, key: &str) -> Vec<f64> {
    let all = json_scalars(json).into_iter();
    all.filter(|(k, _)| k == key).map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", "T");
        t.push(row!["label" => "plain", "count" => 7u64, "rate" => 0.5, "ok" => true]);
        let label = "a \"quoted\", \"count\":9\nvalue";
        t.push(row!["label" => label, "count" => 12u64, "rate" => 1234.5678915, "ok" => false]);
        t.push(row!["label" => "gap", "count" => 0u64, "rate" => f64::NAN, "ok" => true]);
        t
    }

    /// A minimal RFC 4180 reader: the inverse of `to_csv`.
    fn read_csv(csv: &str) -> Vec<Vec<String>> {
        let (mut rows, mut row, mut field) = (Vec::new(), Vec::new(), String::new());
        let mut quoted = false;
        let mut chars = csv.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted && chars.peek() == Some(&'"') => {
                    field.push('"');
                    chars.next();
                }
                '"' => quoted = !quoted,
                ',' if !quoted => row.push(std::mem::take(&mut field)),
                '\n' if !quoted => {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                c => field.push(c),
            }
        }
        rows
    }

    #[test]
    fn csv_and_json_are_two_views_of_the_same_cells() {
        let table = sample();
        let csv = read_csv(&table.to_csv());
        assert_eq!(csv[0], table.columns);
        assert_eq!(csv.len(), 1 + table.rows.len());
        let json = table.to_json();
        let csv_column =
            |i: usize| -> Vec<&str> { csv[1..].iter().map(|r| r[i].as_str()).collect() };

        // The escaped label survives both encodings and shifts no column.
        assert_eq!(csv_column(0)[1], "a \"quoted\", \"count\":9\nvalue");
        assert!(json.contains(r#""label":"a \"quoted\", \"count\":9\nvalue""#));
        // Int, float and bool columns read back equal from either view.
        let ints: Vec<f64> = csv_column(1).iter().map(|s| s.parse().unwrap()).collect();
        assert_eq!(json_numbers(&json, "count"), ints);
        assert_eq!(ints, table.column("count"));
        let floats: Vec<f64> = csv_column(2).iter().flat_map(|s| s.parse().ok()).collect();
        assert_eq!(json_numbers(&json, "rate"), floats);
        assert_eq!(floats, vec![0.5, 1234.567892]);
        assert_eq!(csv_column(2)[2], "", "NaN is a blank CSV field");
        assert!(json.contains("\"rate\":null"));
        let bools: Vec<f64> = csv_column(3)
            .iter()
            .map(|s| f64::from(u8::from(s.parse::<bool>().unwrap())))
            .collect();
        assert_eq!(json_numbers(&json, "ok"), bools);
        assert_eq!(bools, vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn render_aligns_columns_under_a_rule() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[1], "== T ==");
        assert!(lines[2].starts_with("label"));
        assert!(lines[3].chars().all(|c| c == '-'));
        assert!(lines[4].starts_with("plain"));
        let at = lines[2].find("count").unwrap();
        assert_eq!(&lines[4][at..at + 1], "7");
        assert!(lines.last().unwrap().starts_with("gap"));
    }

    #[test]
    fn series_tables_match_the_csv_the_figures_always_wrote() {
        let t = Table::series(
            "s",
            "S",
            &[1, 2],
            &[
                ("a".into(), vec![1.0, f64::NAN]),
                ("b".into(), vec![f64::NAN, 2.0]),
            ],
        );
        assert_eq!(t.to_csv(), "slot,a,b\n1,1.000000,\n2,,2.000000\n");
        assert_eq!(t.column("slot"), vec![1.0, 2.0]);
    }

    #[test]
    fn fmt_f64_scales() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(12345.6), "12346");
        assert_eq!(fmt_f64(2.34567), "2.35");
        assert_eq!(fmt_f64(0.001234), "0.0012");
    }

    #[test]
    fn report_json_carries_params_tables_and_invariants_in_order() {
        let mut report = Report::new("demo", Scale::Quick).param("nodes", 4usize);
        report.tables.push(sample());
        report.headline = "a \"fine\" run".into();
        report.invariant("parity at window 1", true);
        assert!(report.passed());
        let json = report.to_json();
        assert!(json.starts_with(
            r#"{"experiment":"demo","scale":"Quick","nodes":4,"tables":[{"name":"t""#
        ));
        assert!(json.ends_with(
            r#""headline":"a \"fine\" run","invariants":[{"name":"parity at window 1","holds":true}]}"#
        ));
        report.invariant("no loss", false);
        assert!(!report.passed());
        assert!(report.render().contains("INVARIANT BROKEN: no loss"));
        assert!(report.render().contains("invariants: 1/2 hold"));
    }

    #[test]
    fn json_scalars_reads_keys_in_document_order_and_skips_strings() {
        let doc = "{\"points\":[{\"rate\":0.5,\"n\":1},{\"rate\":1.0,\"n\":2}],\
\"rate\":-2.5e1,\"parity\":true,\"gap\":null,\"other\":\"\\\"rate\\\":9\",\"note\":\"rate\"}";
        assert_eq!(json_numbers(doc, "rate"), vec![0.5, 1.0, -25.0]);
        assert_eq!(json_numbers(doc, "parity"), vec![1.0]);
        assert_eq!(json_numbers(doc, "n"), vec![1.0, 2.0]);
        assert_eq!(json_numbers(doc, "missing"), Vec::<f64>::new());
        let keys: Vec<String> = json_scalars(doc).into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["rate", "n", "rate", "n", "rate", "parity"]);
    }
}
