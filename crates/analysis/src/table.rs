//! Fixed-width table rendering for experiment output.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// # Examples
///
/// ```
/// use pcm_analysis::Table;
/// let mut t = Table::new(vec!["policy", "UEs", "writes"]);
/// t.row(vec!["basic".into(), "5806".into(), "9.4e6".into()]);
/// t.row(vec!["combined".into(), "203".into(), "3.9e5".into()]);
/// let s = t.render();
/// assert!(s.contains("combined"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    ///
    /// # Panics
    ///
    /// Panics if `headers` is empty.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        assert!(!headers.is_empty(), "table needs at least one column");
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity {} != {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
        self
    }

    /// Renders with padded columns: first column left-aligned, the rest
    /// right-aligned (numbers).
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            write_row(&mut out, row);
        }
        out
    }
}

/// Compact scientific/engineering formatting for counts and rates.
pub fn fmt_count(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 1e6 || x.abs() < 1e-3 {
        format!("{x:.2e}")
    } else if x.fract() == 0.0 && x.abs() < 1e6 {
        format!("{x:.0}")
    } else {
        format!("{x:.3}")
    }
}

/// Formats an improvement ratio like `24.4x` (or `inf`).
pub fn fmt_ratio(r: f64) -> String {
    if r.is_infinite() {
        "inf".to_string()
    } else {
        format!("{r:.1}x")
    }
}

/// Formats a percentage like `96.5%`.
pub fn fmt_percent(p: f64) -> String {
    format!("{p:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_alignment() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "12345".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines same width.
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_count(0.0), "0");
        assert_eq!(fmt_count(42.0), "42");
        assert_eq!(fmt_count(2.71548), "2.715");
        assert_eq!(fmt_count(1.5e7), "1.50e7");
        assert_eq!(fmt_ratio(24.42), "24.4x");
        assert_eq!(fmt_ratio(f64::INFINITY), "inf");
        assert_eq!(fmt_percent(96.53), "96.5%");
    }
}
