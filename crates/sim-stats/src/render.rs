//! Plain-text rendering of tables, bar charts and grouped series.
//!
//! The experiment binaries print paper-style figures to stdout; these helpers
//! keep all the column-width and bar-scaling fiddliness in one place.

/// A simple column-aligned text table.
///
/// ```
/// use sim_stats::Table;
/// let mut t = Table::new(&["App", "WPKI", "MPKI"]);
/// t.row(&["mcf".into(), "68.67".into(), "55.29".into()]);
/// let s = t.render();
/// assert!(s.contains("mcf"));
/// ```
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks;
    /// longer rows are a harness bug and panic.
    pub fn row(&mut self, cells: &[String]) {
        assert!(
            cells.len() <= self.headers.len(),
            "Table::row: {} cells for {} columns",
            cells.len(),
            self.headers.len()
        );
        let mut r = cells.to_vec();
        r.resize(self.headers.len(), String::new());
        self.rows.push(r);
    }

    /// Convenience: append a row of (label, f64 values) with fixed precision.
    pub fn row_f64(&mut self, label: &str, values: &[f64], precision: usize) {
        let mut cells = Vec::with_capacity(values.len() + 1);
        cells.push(label.to_owned());
        for v in values {
            cells.push(format!("{v:.precision$}"));
        }
        self.row(&cells);
    }

    /// Render with aligned columns and a separator under the header.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let emit_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                out.push_str(cell);
                for _ in cell.len()..widths[i] {
                    out.push(' ');
                }
            }
            // Trim trailing padding for cleanliness.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        emit_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit_row(&mut out, row);
        }
        out
    }
}

/// Render a horizontal ASCII bar chart: one `(label, value)` bar per line,
/// scaled so the longest bar is `width` characters.
pub fn bar_chart(title: &str, data: &[(String, f64)], width: usize) -> String {
    let max = data
        .iter()
        .map(|(_, v)| *v)
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let label_w = data.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (label, value) in data {
        let bar_len = ((value / max) * width as f64).round().max(0.0) as usize;
        out.push_str(&format!(
            "{label:<label_w$} |{} {value:.3}\n",
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Render a grouped series (e.g. per-bank lifetime for several schemes):
/// one row per group, one column per series, like the paper's clustered bar
/// figures but in table form.
pub fn grouped_series(
    title: &str,
    group_labels: &[String],
    series_names: &[&str],
    // values[s][g] = value of series s at group g
    values: &[Vec<f64>],
    precision: usize,
) -> String {
    assert_eq!(
        series_names.len(),
        values.len(),
        "grouped_series: series name/value count mismatch"
    );
    for (s, vs) in values.iter().enumerate() {
        assert_eq!(
            vs.len(),
            group_labels.len(),
            "grouped_series: series {s} has wrong group count"
        );
    }
    let mut headers = vec![""];
    headers.extend_from_slice(series_names);
    let mut t = Table::new(&headers);
    for (g, label) in group_labels.iter().enumerate() {
        let row: Vec<f64> = values.iter().map(|vs| vs[g]).collect();
        t.row_f64(label, &row, precision);
    }
    format!("{title}\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment_and_content() {
        let mut t = Table::new(&["App", "WPKI"]);
        t.row(&["mcf".into(), "68.67".into()]);
        t.row(&["libquantum".into(), "11.67".into()]);
        let s = t.render();
        assert!(s.contains("App"));
        assert!(s.contains("libquantum"));
        // Header separator exists.
        assert!(s.lines().nth(1).unwrap().starts_with('-'));
        assert_eq!(s.lines().count(), 4, "header, separator, two rows");
    }

    #[test]
    fn table_pads_short_rows() {
        let mut t = Table::new(&["a", "b", "c"]);
        t.row(&["x".into()]);
        assert!(t.render().contains('x'));
    }

    #[test]
    #[should_panic(expected = "cells for")]
    fn table_rejects_long_rows() {
        let mut t = Table::new(&["a"]);
        t.row(&["x".into(), "y".into()]);
    }

    #[test]
    fn row_f64_formats_precision() {
        let mut t = Table::new(&["lbl", "v"]);
        t.row_f64("x", &[1.23456], 2);
        assert!(t.render().contains("1.23"));
    }

    #[test]
    fn bar_chart_scales_to_width() {
        let data = vec![("a".to_owned(), 1.0), ("b".to_owned(), 2.0)];
        let s = bar_chart("demo", &data, 10);
        // b is the max -> 10 hashes; a -> 5 hashes.
        assert!(s.contains(&"#".repeat(10)));
        let a_line = s.lines().find(|l| l.starts_with('a')).unwrap();
        assert_eq!(a_line.matches('#').count(), 5);
    }

    #[test]
    fn bar_chart_handles_all_zero() {
        let data = vec![("a".to_owned(), 0.0)];
        let s = bar_chart("demo", &data, 10);
        assert!(s.contains("0.000"));
    }

    #[test]
    fn grouped_series_renders_matrix() {
        let s = grouped_series(
            "Fig 12",
            &["CB-0".to_owned(), "CB-1".to_owned()],
            &["S-NUCA", "R-NUCA"],
            &[vec![4.0, 4.1], vec![2.0, 6.0]],
            2,
        );
        assert!(s.contains("Fig 12"));
        assert!(s.contains("CB-1"));
        assert!(s.contains("6.00"));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn grouped_series_validates_shape() {
        grouped_series("t", &["g".to_owned()], &["a", "b"], &[vec![1.0]], 2);
    }
}
