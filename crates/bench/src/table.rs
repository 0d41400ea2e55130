//! Fixed-width tables for experiment reports.

/// A simple fixed-width text table: headers plus rows of strings, printed
/// with column auto-sizing — visually close to the paper's tables.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            (0..cols)
                .map(|i| format!(" {:<width$} ", cells[i], width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render under a `=== title ===` line, blank lines around.
    pub fn titled(&self, title: &str) -> String {
        format!("\n=== {title} ===\n{}\n", self.render())
    }
}

/// Format seconds with 1 ms resolution, e.g. `2.847`.
pub fn secs(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a percentage with one decimal, e.g. `9.3`.
pub fn pct(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a ± half-width, e.g. `±0.012`.
pub fn pm(x: f64) -> String {
    format!("±{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["case", "time (s)"]);
        t.row(vec!["LU (1)".into(), "207.8".into()]);
        t.row(vec!["x".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("case"));
        assert!(lines[2].contains("LU (1)"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(secs(2.8474), "2.847");
        assert_eq!(pct(9.29), "9.3");
        assert_eq!(pm(0.0123), "±0.012");
    }
}
