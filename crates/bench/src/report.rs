//! Plain-text table and CSV reporting for the experiment harnesses.
//!
//! Every harness prints a human-readable aligned table followed by
//! machine-readable lines of the form `csv,<table>,<col>=<val>,…` so that
//! runs can be scraped into EXPERIMENTS.md or plotted externally without a
//! plotting dependency.

/// An in-memory table being assembled by a harness.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells; must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned human-readable form.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the machine-readable CSV lines.
    pub fn render_csv(&self) -> String {
        let slug = self.title.to_lowercase().replace(' ', "_");
        let mut out = String::new();
        for row in &self.rows {
            let fields: Vec<String> = self
                .headers
                .iter()
                .zip(row)
                .map(|(h, c)| format!("{}={}", h.to_lowercase().replace(' ', "_"), c))
                .collect();
            out.push_str(&format!("csv,{slug},{}\n", fields.join(",")));
        }
        out
    }

    /// Prints both renderings to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
        print!("{}", self.render_csv());
        println!();
    }
}

/// Formats a float with 3 decimal places (table cells).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["a".into(), "1".into()]);
        t.row(&["longer".into(), "12345".into()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        let lines: Vec<&str> = s.lines().collect();
        // Header, separator, two rows.
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[3].len(), lines[4].len(), "rows must align");
    }

    #[test]
    fn csv_lines_carry_headers() {
        let mut t = Table::new("My Table", &["Window Size", "Time"]);
        t.row(&["64".into(), "1.25".into()]);
        let csv = t.render_csv();
        assert_eq!(csv.trim(), "csv,my_table,window_size=64,time=1.25");
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f3(1.23456), "1.235");
    }
}
