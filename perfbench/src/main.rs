//! perfbench — host-time benchmark of the plru-repro simulator.
//!
//! ```sh
//! bash perfbench/run.sh --workload sweepd_fig8 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` times the workload untraced and reports the end-to-end
//! metrics; `--trace 1` runs the traced pass and reports the per-layer
//! metrics. Every simulated result is checked; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md`.

mod affinity;
mod check;
mod daemon;
mod host;
mod layers;
mod spans;
mod staged;
mod stats;
mod sweepd_fig8;
mod trace_rr;

use check::Ops;
use layers::Layers;
use spans::Spans;
use stats::Summary;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

/// Workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["sweepd_fig8", "trace_rr"];

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 3] = [
    ("minst_per_s", "Minst/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload reports 0 for
/// a layer it does not exercise.
const PER_LAYER: [(&str, &str); 38] = [
    ("tracegen.generator.records", "count"),
    ("tracegen.generator.busy_s", "s"),
    ("cmpsim.core_model.fetch_lines", "count"),
    ("cmpsim.core_model.busy_s", "s"),
    ("cachesim.l1_accesses", "count"),
    ("cachesim.l2_accesses", "count"),
    ("cachesim.l2_hit_ratio", "ratio"),
    ("cachesim.busy_s", "s"),
    ("cachesim.installs", "count"),
    ("plru_core.controller.observes", "count"),
    ("plru_core.controller.atd_probes", "count"),
    ("plru_core.controller.observe_busy_s", "s"),
    ("plru_core.controller.intervals", "count"),
    ("plru_core.controller.interval_busy_s", "s"),
    ("cmpsim.system.build_s", "s"),
    ("cmpsim.system.self_s", "s"),
    ("cmpsim.runner.memo_hits", "count"),
    ("cmpsim.runner.memo_misses", "count"),
    ("cmpsim.runner.memo_hit_ratio", "ratio"),
    ("cmpsim.runner.isolation_busy_s", "s"),
    ("tracegen.trace.encode_busy_s", "s"),
    ("tracegen.trace.validate_s", "s"),
    ("tracegen.trace.decode_busy_s", "s"),
    ("tracegen.trace.decode_inline_s", "s"),
    ("tracegen.trace.chunks", "count"),
    ("tracegen.trace.bytes_per_record", "B"),
    ("tracegen.dict.compress_busy_s", "s"),
    ("tracegen.dict.decompress_busy_s", "s"),
    ("tracegen.dict.ratio", "ratio"),
    ("scenario.cases", "count"),
    ("scenario.expand_s", "s"),
    ("scenario.report_s", "s"),
    ("service.frames", "count"),
    ("service.frame_bytes", "B"),
    ("service.journal_bytes", "B"),
    ("service.overhead_s", "s"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.stage_coverage", "ratio"),
];

/// What every workload needs to know about the run.
pub struct Ctx {
    /// Workload seed from the command line.
    pub seed: u64,
    /// How long a timed run should measure.
    pub seconds: Duration,
    /// Scratch directory of this run (removed at the end).
    pub work: PathBuf,
    /// Directory holding the repository's built binaries.
    bins: PathBuf,
    /// Where the traced run writes its spans.
    spans_dir: PathBuf,
}

impl Ctx {
    /// Absolute path of a repository binary (children run in other
    /// directories).
    pub fn bin(&self, name: &str) -> PathBuf {
        let p = self.bins.join(name);
        std::fs::canonicalize(&p).unwrap_or(p)
    }

    /// Repetitions of a timed loop whose repetition took `nominal_s` host
    /// seconds when the benchmark was defined: as many as fill
    /// `--seconds` at that pace, at least one. The count depends on
    /// `--seconds` alone, never on the speed of the program measured, so
    /// an order statistic over the repetitions means the same on every
    /// commit.
    pub fn reps(&self, nominal_s: f64) -> usize {
        (self.seconds.as_secs_f64() / nominal_s).round().max(1.0) as usize
    }
}

/// Simulator seed of a workload seed: splitmix64, so neighbouring
/// workload seeds give unrelated traces.
pub fn machine_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set (`VmHWM`) of a live process, or of this one, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// A run's operations and metrics.
pub struct Report {
    ops: Ops,
    metrics: Vec<(String, f64, &'static str)>,
    lines: String,
}

impl Report {
    /// An empty report over `ops`.
    pub fn new(ops: Ops) -> Report {
        Report {
            ops,
            metrics: Vec::new(),
            lines: String::new(),
        }
    }

    /// Report the median of a metric's samples.
    pub fn metric(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let s = Summary::of(samples);
        let _ = writeln!(
            self.lines,
            "{name} = {} {unit}  (median of n={}, min {}, q1 {}, q3 {}, max {}, iqr/median {:.4}, cv {:.4})",
            s.median,
            s.n,
            s.min,
            s.q1,
            s.q3,
            s.max,
            s.spread(),
            s.cv
        );
        self.metrics.push((name.to_string(), s.median, unit));
    }

    /// Print a metric that only this workload has, outside the JSON.
    pub fn note(&mut self, name: &str, v: f64, unit: &str) {
        let _ = writeln!(self.lines, "{name} = {v} {unit}  (not in the result)");
    }

    /// Report one measured value.
    pub fn value(&mut self, name: &str, v: f64, unit: &'static str) {
        let _ = writeln!(self.lines, "{name} = {v} {unit}");
        self.metrics.push((name.to_string(), v, unit));
    }

    /// Report the per-layer totals every workload's traced run has.
    pub fn layers(&mut self, l: &Layers) {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        self.value("tracegen.generator.records", l.gen_records as f64, "count");
        self.value("tracegen.generator.busy_s", l.gen_s, "s");
        self.value(
            "cmpsim.core_model.fetch_lines",
            l.fetch_lines as f64,
            "count",
        );
        self.value("cmpsim.core_model.busy_s", l.core_s, "s");
        self.value("cachesim.l1_accesses", l.l1_accesses as f64, "count");
        self.value("cachesim.l2_accesses", l.l2_accesses as f64, "count");
        self.value(
            "cachesim.l2_hit_ratio",
            ratio(l.l2_hits, l.l2_accesses),
            "ratio",
        );
        self.value("cachesim.busy_s", l.cache_s, "s");
        self.value("cachesim.installs", l.installs as f64, "count");
        self.value("plru_core.controller.observes", l.observes as f64, "count");
        self.value(
            "plru_core.controller.atd_probes",
            l.atd_probes as f64,
            "count",
        );
        self.value("plru_core.controller.observe_busy_s", l.observe_s, "s");
        self.value(
            "plru_core.controller.intervals",
            l.intervals as f64,
            "count",
        );
        self.value("plru_core.controller.interval_busy_s", l.interval_s, "s");
        self.value("cmpsim.system.build_s", l.build_s, "s");
        self.value("cmpsim.system.self_s", l.run_s - l.stage_s(), "s");
    }

    /// Close a traced run: report what the trace itself cost and covered,
    /// and write its spans.
    pub fn finish_traced(
        &mut self,
        l: &Layers,
        spans: &Spans,
        ctx: &Ctx,
        workload: &str,
    ) -> Result<(), String> {
        self.value("bench.tracing_overhead", l.staged_s / l.run_s, "ratio");
        self.value("bench.stage_coverage", l.stage_s() / l.run_s, "ratio");
        let path = ctx
            .spans_dir
            .join(format!("{workload}-seed{}.jsonl", ctx.seed));
        spans.write_jsonl(&path).map_err(|e| e.to_string())?;
        let _ = writeln!(self.lines, "spans written to {}", path.display());
        Ok(())
    }

    /// Print the readable lines, then the result object as the last line.
    fn print(&self, names: &[(&str, &str)]) -> Result<(), String> {
        if let Some((n, _, _)) = self
            .metrics
            .iter()
            .find(|(n, _, _)| !names.iter().any(|(m, _)| m == n))
        {
            return Err(format!("metric `{n}` is not in the catalogue"));
        }
        print!("{}", self.lines);
        let mut json = String::new();
        for (name, unit) in names {
            let v = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(0.0, |(_, v, _)| *v);
            // JSON has no NaN or infinity.
            let v = if v.is_finite() { v } else { 0.0 };
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.ops.failed == 0 && self.ops.attempted > 0,
            self.ops.attempted,
            self.ops.failed
        );
        Ok(())
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value),
            _ => usage(&format!("unknown option {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let workload = WORKLOADS
        .into_iter()
        .find(|w| *w == workload)
        .unwrap_or_else(|| usage(&format!("unknown workload `{workload}`")));
    let seed = seed.unwrap_or_else(|| usage("--seed needs an unsigned integer"));
    let seconds = seconds.unwrap_or_else(|| usage("--seconds needs a positive number"));
    let traced = match trace.as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => usage("--trace needs 0 or 1"),
    };

    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    let target = Path::new(&target);
    let work = Path::new(".bench_build")
        .join("perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {e}", work.display());
        exit(1);
    }
    let ctx = Ctx {
        seed,
        seconds: Duration::from_secs_f64(seconds),
        work: work.clone(),
        bins: target.join("release"),
        spans_dir: Path::new(".bench_build").join("perfbench-spans"),
    };
    let outcome = match (workload, traced) {
        ("sweepd_fig8", false) => sweepd_fig8::timed(&ctx),
        ("sweepd_fig8", true) => sweepd_fig8::traced(&ctx),
        ("trace_rr", false) => trace_rr::timed(&ctx),
        _ => trace_rr::traced(&ctx),
    };
    let _ = std::fs::remove_dir_all(&work);
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = outcome.and_then(|report| report.print(names)) {
        eprintln!("perfbench: {workload}: {e}");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units this program prints are the ones
    /// `BENCHMARK.json` declares, in the same order.
    #[test]
    fn metric_catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let mut at = 0;
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            let found = text[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("{needle} missing or out of order"));
            at += found + needle.len();
        }
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn machine_seeds_are_spread_and_repeatable() {
        assert_eq!(machine_seed(1), machine_seed(1));
        assert_ne!(machine_seed(1), machine_seed(2));
        assert!(machine_seed(0) != 0);
    }
}
