//! Tiny aligned-text table builder for the experiment binaries.

use plru_repro::scenario::render_aligned;

/// A column-aligned text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Render with every column padded to its widest cell (see
    /// [`render_aligned`]).
    pub fn render(&self) -> String {
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        render_aligned(&header, &self.rows)
    }
}

/// Format a ratio like the paper's figures (3 decimals).
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["config", "thr"]);
        t.row(vec!["C-L".into(), "1.000".into()]);
        t.row(vec!["M-0.75N".into(), "0.964".into()]);
        let out = t.render();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("config"));
        assert!(lines[2].starts_with("C-L"));
        assert_eq!(lines[2].len(), lines[3].len(), "aligned rows");
    }

    #[test]
    #[should_panic]
    fn row_width_checked() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn ratio_and_delta_formats() {
        assert_eq!(ratio(0.9637), "0.964");
    }
}
