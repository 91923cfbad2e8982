//! Sweep outcomes: per-case results in spec order, renderable as JSON
//! (the golden-snapshot format) or as an aligned text table.

use crate::scenario::expand::ScenarioCase;
use crate::scenario::spec::ScenarioSpec;
use cmpsim::{SimResult, WorkloadMetrics};
use serde::{Deserialize, Serialize};

/// Outcome of one expanded case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseReport {
    /// The case that ran (index, workload, scheme, shape, salt, ...).
    pub case: ScenarioCase,
    /// The scheme's paper-style acronym, for table/JSON readability.
    pub scheme: String,
    /// The paper's three metrics against the matching isolation runs.
    pub metrics: WorkloadMetrics,
    /// Isolation IPCs the metrics divide by, in thread order.
    pub isolation_ipcs: Vec<f64>,
    /// Full simulation result (per-core IPCs, cycle counts, L2 stats).
    pub result: SimResult,
    /// Ways-per-thread allocation at every repartition boundary, when the
    /// spec set `capture_history` and the scheme runs a CPA.
    pub allocation_history: Option<Vec<Vec<usize>>>,
}

/// All case outcomes of one sweep, in spec expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// The spec that produced the report (echoed verbatim).
    pub spec: ScenarioSpec,
    /// One report per expanded case, ordered by `case.index`.
    pub cases: Vec<CaseReport>,
}

impl SweepReport {
    /// Compact JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("reports always serialize")
    }

    /// Pretty JSON — the exact bytes the golden-snapshot tests compare.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// First case matching a workload display name and scheme acronym.
    pub fn find(&self, workload: &str, scheme: &str) -> Option<&CaseReport> {
        self.cases
            .iter()
            .find(|c| c.case.workload == workload && c.scheme == scheme)
    }

    /// The case at an exact (workload, scheme, L2 size, seed salt) point.
    pub fn find_at(
        &self,
        workload: &str,
        scheme: &str,
        l2_bytes: u64,
        seed_salt: u64,
    ) -> Option<&CaseReport> {
        self.cases.iter().find(|c| {
            c.case.workload == workload
                && c.scheme == scheme
                && c.case.l2_bytes == l2_bytes
                && c.case.seed_salt == seed_salt
        })
    }

    /// Render the aligned text table the `sweep` bin prints.
    pub fn render_table(&self) -> String {
        let header = [
            "#",
            "workload",
            "scheme",
            "l2",
            "ways",
            "salt",
            "prof",
            "thr",
            "w.speedup",
            "h.mean",
            "cycles",
            "ivals",
        ];
        let rows: Vec<Vec<String>> = self
            .cases
            .iter()
            .map(|c| {
                vec![
                    c.case.index.to_string(),
                    c.case.workload.clone(),
                    c.scheme.clone(),
                    format_size(c.case.l2_bytes),
                    c.case.l2_assoc.to_string(),
                    c.case.seed_salt.to_string(),
                    c.case.profiler.clone().unwrap_or_else(|| "exact".into()),
                    format!("{:.4}", c.metrics.throughput),
                    format!("{:.4}", c.metrics.weighted_speedup),
                    format!("{:.4}", c.metrics.harmonic_mean),
                    c.result.total_cycles.to_string(),
                    c.result.intervals.to_string(),
                ]
            })
            .collect();
        render_aligned(&header, &rows)
    }
}

/// One profiler's predicted miss curve (misses at 0..=A ways).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissCurve {
    /// Column label (`"SDH (LRU)"`, `"eSDH 0.75N"`, `"eSDH BT"`).
    pub label: String,
    /// Predicted misses when given `w` ways; index 0 = no cache.
    pub misses: Vec<u64>,
}

/// Side-by-side miss curves of one benchmark's L2 access stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissCurveReport {
    /// Profiled benchmark.
    pub benchmark: String,
    /// Trace records generated.
    pub records: u64,
    /// L2 accesses that survived the L1D filter.
    pub l2_accesses: u64,
    /// One curve per requested profiler, in spec order.
    pub curves: Vec<MissCurve>,
}

impl MissCurveReport {
    /// Pretty JSON.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports always serialize")
    }

    /// Render the curves as an aligned table, one row per way count.
    pub fn render_table(&self) -> String {
        let mut header = vec!["ways".to_string()];
        header.extend(self.curves.iter().map(|c| c.label.clone()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let ways = self.curves.first().map_or(0, |c| c.misses.len());
        let rows: Vec<Vec<String>> = (0..ways)
            .map(|w| {
                let mut row = vec![w.to_string()];
                row.extend(self.curves.iter().map(|c| c.misses[w].to_string()));
                row
            })
            .collect();
        render_aligned(&header_refs, &rows)
    }
}

/// `2097152` -> `"2M"`, `524288` -> `"512K"`, other values verbatim.
fn format_size(bytes: u64) -> String {
    const MB: u64 = 1024 * 1024;
    const KB: u64 = 1024;
    if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{}M", bytes / MB)
    } else if bytes >= KB && bytes.is_multiple_of(KB) {
        format!("{}K", bytes / KB)
    } else {
        bytes.to_string()
    }
}

/// Render a text table: the header, a rule of dashes, then one line per
/// row, every column padded to its widest cell and separated by two
/// spaces; the first column is left-aligned, the rest right-aligned.
pub fn render_aligned(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        debug_assert_eq!(row.len(), ncols);
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            } else {
                line.push_str(&format!("{cell:>width$}", width = widths[i]));
            }
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|h| h.to_string()).collect();
    let mut out = fmt_row(&header_cells);
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_format_compactly() {
        assert_eq!(format_size(2 * 1024 * 1024), "2M");
        assert_eq!(format_size(512 * 1024), "512K");
        assert_eq!(format_size(1000), "1000");
    }

    #[test]
    fn aligned_rows_share_a_width() {
        let rows = vec![
            vec!["a".to_string(), "1.0".to_string()],
            vec!["longer-name".to_string(), "12.5".to_string()],
        ];
        let out = render_aligned(&["name", "x"], &rows);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].len(), lines[3].len());
        assert!(lines[0].starts_with("name"));
    }

    #[test]
    fn miss_curve_table_has_one_row_per_way() {
        let r = MissCurveReport {
            benchmark: "twolf".into(),
            records: 10,
            l2_accesses: 5,
            curves: vec![MissCurve {
                label: "SDH (LRU)".into(),
                misses: vec![5, 3, 1],
            }],
        };
        let out = r.render_table();
        assert_eq!(out.lines().count(), 2 + 3, "header + rule + 3 way rows");
        assert!(out.contains("SDH (LRU)"));
    }
}
