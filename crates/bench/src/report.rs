//! Table reporting for the experiment drivers: the one writer of
//! `results/<driver>.json`.
//!
//! Every `e*` binary prints its results through [`Table`] and saves them
//! through [`Report`], so the rows in EXPERIMENTS.md can be regenerated
//! verbatim with `cargo run --release -p farmem-bench --bin <driver>`, and
//! every committed results file is one schema: `{"schema_version": 1,
//! "experiment", "tables": [{"schema_version": 1, "title", "headers",
//! "rows"}]}`, every cell a string quoted by [`json_quote`].

use farmem_fabric::json_quote;

/// A simple aligned text table.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table. Numeric columns (every body cell a number,
    /// `×`-ratio or `∞`) are right-aligned; label columns left-aligned.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| Self::display_width(h)).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(Self::display_width(c));
            }
        }
        let numeric: Vec<bool> = (0..self.headers.len())
            .map(|i| {
                !self.rows.is_empty()
                    && self.rows.iter().all(|r| Self::cell_is_numeric(&r[i]))
            })
            .collect();
        let mut out = String::new();
        out.push_str(&format!("\n## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("| ");
            for (i, c) in cells.iter().enumerate() {
                let fill = " ".repeat(widths[i].saturating_sub(Self::display_width(c)));
                if numeric[i] {
                    line.push_str(&format!("{fill}{c} | "));
                } else {
                    line.push_str(&format!("{c}{fill} | "));
                }
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{:-<width$}|", "", width = w + 2));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out
    }

    fn display_width(s: &str) -> usize {
        s.chars().count()
    }

    fn cell_is_numeric(c: &str) -> bool {
        let c = c.trim();
        if c.is_empty() || c == "∞" || c == "-" {
            return true;
        }
        let c = c.strip_prefix('×').unwrap_or(c);
        let c = c.strip_suffix('%').unwrap_or(c);
        c.replace(',', "").parse::<f64>().is_ok()
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Serialises the table as a schema-versioned JSON object:
    /// `{"schema_version": 1, "title", "headers", "rows"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema_version\": 1,\n");
        out.push_str(&format!("  \"title\": {},\n", json_quote(&self.title)));
        out.push_str("  \"headers\": [");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_quote(h));
        }
        out.push_str("],\n  \"rows\": [\n");
        for (r, row) in self.rows.iter().enumerate() {
            out.push_str("    [");
            for (i, c) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_quote(c));
            }
            out.push(']');
            if r + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

}

/// Collects a driver's tables: prints each as it is added, then
/// [`save`](Report::save) writes them all as one schema-versioned JSON
/// document to `results/<experiment>.json`.
pub struct Report {
    experiment: String,
    tables: Vec<Table>,
    print_tables: bool,
}

impl Report {
    /// Creates a report for the named experiment (e.g. `"e4_httree"`).
    pub fn new(experiment: &str) -> Report {
        Report { experiment: experiment.to_string(), tables: Vec::new(), print_tables: true }
    }

    /// Controls stdout: `true` (default) prints each table as it is
    /// added; `false` (the drivers' `--json` mode) keeps stdout clean
    /// and [`save`](Report::save) prints the JSON document instead.
    pub fn with_stdout(mut self, print_tables: bool) -> Report {
        self.print_tables = print_tables;
        self
    }

    /// Prints the table to stdout and keeps it for [`save`](Report::save).
    pub fn add(&mut self, table: Table) {
        if self.print_tables {
            table.print();
        }
        self.tables.push(table);
    }

    /// The JSON document: `{"schema_version", "experiment", "tables"}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n\"schema_version\": 1,\n");
        out.push_str(&format!("\"experiment\": {},\n\"tables\": [\n", json_quote(&self.experiment)));
        for (i, t) in self.tables.iter().enumerate() {
            out.push_str(&t.to_json());
            if i + 1 < self.tables.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes the JSON document to `results/<experiment>.json`. In
    /// `--json` mode (tables suppressed) the document is also printed
    /// to stdout and the status line moves to stderr.
    pub fn save(&self) {
        std::fs::create_dir_all("results").expect("create results/");
        let path = format!("results/{}.json", self.experiment);
        std::fs::write(&path, self.to_json()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        if self.print_tables {
            println!("\nwrote {path}");
        } else {
            print!("{}", self.to_json());
            eprintln!("wrote {path}");
        }
    }
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["n", "cost"]);
        t.row(vec!["1".into(), "2.00".into()]);
        t.row(vec!["1000".into(), "11.50".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("|    n | cost  |") || s.contains("|    n |  cost |"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_is_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn string_columns_left_align_and_numeric_right_align() {
        let mut t = Table::new("Align", &["span", "RT/op"]);
        t.row(vec!["httree.get".into(), "2.00".into()]);
        t.row(vec!["q".into(), "11.50".into()]);
        let s = t.render();
        assert!(s.contains("| httree.get |  2.00 |"), "got:\n{s}");
        assert!(s.contains("| q          | 11.50 |"), "got:\n{s}");
    }

    #[test]
    fn ratio_and_infinity_cells_count_as_numeric() {
        let mut t = Table::new("R", &["who", "speedup"]);
        t.row(vec!["a".into(), "×5.0".into()]);
        t.row(vec!["bb".into(), "∞".into()]);
        let s = t.render();
        assert!(s.contains("| a   |    ×5.0 |"), "got:\n{s}");
        assert!(s.contains("| bb  |       ∞ |"), "got:\n{s}");
    }

    #[test]
    fn to_json_is_schema_versioned_and_escaped() {
        let mut t = Table::new("T \"q\"", &["a"]);
        t.row(vec!["x\ny".into()]);
        let j = t.to_json();
        assert!(j.contains("\"schema_version\": 1"));
        assert!(j.contains("\\\"q\\\""));
        assert!(j.contains("x\\ny"));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f2(1.005), "1.00");
    }
}
