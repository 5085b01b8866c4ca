//! Minimal aligned-text tables for experiment reports.

use std::fmt::Write as _;

/// A simple right-aligned text table.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Table {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut width = vec![0usize; ncol];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            for w in &width {
                let _ = write!(out, "+{}", "-".repeat(w + 2));
            }
            out.push_str("+\n");
        };
        sep(&mut out);
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(out, "| {:>w$} ", h, w = width[i]);
        }
        out.push_str("|\n");
        sep(&mut out);
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let _ = write!(out, "| {:>w$} ", c, w = width[i]);
            }
            out.push_str("|\n");
        }
        sep(&mut out);
        out
    }
}

/// A table cell for a value that may be missing: `x` at `prec` decimals,
/// or `-` when it is NaN or infinite (nothing completed, say).
pub fn fmt_or_dash(x: f64, prec: usize) -> String {
    if x.is_finite() {
        format!("{x:.prec$}")
    } else {
        "-".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new(["flow", "gbps"]);
        t.row(["A->B", "2.51"]).row(["F->E", "7.55"]);
        let s = t.render();
        assert!(s.contains("| flow | gbps |"));
        assert!(s.contains("| A->B | 2.51 |"));
        let widths: Vec<usize> = s.lines().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "all lines same width"
        );
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }
}
