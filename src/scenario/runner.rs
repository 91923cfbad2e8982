//! One-shot sweep orchestration over the persistent worker pool.
//!
//! Sweeps replace the flat `parallel_map` fan-out: cases go onto the
//! shared FIFO queue of a [`WorkerPool`](super::pool), which idle
//! workers drain in order, so wildly uneven case costs (an 8-thread CPA
//! run next to a 1-core baseline) still balance. Results land in slots
//! indexed by `ScenarioCase::index`, which makes the report order — and
//! its bytes — independent of the worker count; the
//! thread-count-invariance test pins exactly that.
//!
//! `SweepRunner` is the *local* orchestration: spin up a pool, run one
//! spec, tear the pool down. The resident `sweepd` daemon keeps one pool
//! alive across many jobs instead (see [`crate::service`]); both sit on
//! the same [`WorkerPool`] execution layer.

use crate::engine::IsolationCache;
use crate::scenario::expand::ScenarioError;
use crate::scenario::pool::{WorkerPool, MAX_POOL_WORKERS};
use crate::scenario::report::{CaseReport, MissCurve, MissCurveReport, SweepReport};
use crate::scenario::spec::{MissCurveSpec, ScenarioSpec};
use crate::scenario::ScenarioCase;
use std::sync::Arc;

/// Executes the cases of a [`ScenarioSpec`] and collects a
/// [`SweepReport`] in spec order.
///
/// ```
/// use plru_repro::prelude::*;
///
/// let spec = ScenarioSpec::from_json(
///     r#"{
///         "name": "doc-run",
///         "insts": 20000,
///         "workloads": [["gzip", "eon"]],
///         "schemes": ["M-0.75N"]
///     }"#,
/// )
/// .unwrap();
/// let report = SweepRunner::new().run(&spec).expect("valid spec");
/// assert_eq!(report.cases.len(), 1);
/// assert!(report.cases[0].metrics.throughput > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
    isolation: Arc<IsolationCache>,
}

impl Default for SweepRunner {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepRunner {
    /// A runner sized to the hardware (one worker per available thread,
    /// at most [`MAX_POOL_WORKERS`]).
    pub fn new() -> Self {
        Self::with_threads(std::thread::available_parallelism().map_or(4, |n| n.get()))
    }

    /// A runner with an explicit worker count, clamped to
    /// `1 ..= MAX_POOL_WORKERS` (each worker is an OS thread).
    pub fn with_threads(threads: usize) -> Self {
        SweepRunner {
            threads: threads.clamp(1, MAX_POOL_WORKERS),
            isolation: Arc::default(),
        }
    }

    /// Share an isolation-IPC memo with other runners/engines.
    pub fn isolation(mut self, cache: Arc<IsolationCache>) -> Self {
        self.isolation = cache;
        self
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The shared isolation memo.
    pub fn isolation_cache(&self) -> &Arc<IsolationCache> {
        &self.isolation
    }

    /// Expand a spec and run every case; an invalid spec or a failed
    /// case is the error.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<SweepReport, ScenarioError> {
        let cases = spec.expand()?;
        Ok(SweepReport {
            spec: spec.clone(),
            cases: self.run_cases(&cases)?,
        })
    }

    /// Run pre-expanded cases, returning reports ordered by case index,
    /// or the first case that failed (see [`WorkerPool::run_ordered`]).
    ///
    /// Each call spins up an ephemeral [`WorkerPool`] sized to
    /// `min(threads, cases)` and tears it down afterwards; a caller that
    /// wants the fleet (and its warm memo) to survive across sweeps
    /// holds a [`WorkerPool`] directly, as the sweep service does.
    pub fn run_cases(&self, cases: &[ScenarioCase]) -> Result<Vec<CaseReport>, ScenarioError> {
        if cases.is_empty() {
            return Ok(Vec::new());
        }
        let pool = WorkerPool::new(self.threads.min(cases.len()), self.isolation.clone());
        let reports = pool.run_ordered(cases);
        pool.shutdown();
        reports
    }
}

/// Run a [`MissCurveSpec`]: generate the benchmark's trace, filter it
/// through a private L1D exactly as the CMP does, and feed the surviving
/// L2 stream to every requested profiler.
pub fn run_miss_curves(spec: &MissCurveSpec) -> Result<MissCurveReport, ScenarioError> {
    use cachesim::hierarchy::PrivateLru;
    use cachesim::PolicyKind;
    use plru_core::{NruUpdateMode, Profiler, ProfilerFidelity};
    use tracegen::TraceGenerator;

    let profile = tracegen::benchmark(&spec.benchmark)
        .ok_or_else(|| ScenarioError::new(format!("unknown benchmark `{}`", spec.benchmark)))?;
    if spec.profilers.is_empty() {
        return Err(ScenarioError::new(
            "axis `profilers` must list at least one value",
        ));
    }
    let ratio = spec.sample_ratio.unwrap_or(1);
    let fidelity: ProfilerFidelity = spec
        .fidelity
        .as_deref()
        .unwrap_or("exact")
        .parse()
        .map_err(ScenarioError::new)?;

    let baseline = cmpsim::MachineConfig::paper_baseline(1);
    let geom = baseline.l2;
    // Full (unsampled) exact ATDs by default, so the curves are smooth in
    // a short run; `sample_ratio` / `fidelity` switch every profiler of
    // the comparison at once (the differential fidelity suite sweeps
    // them).
    //
    // Note: the `profilers` axis names *profiling logics* ("L", "0.75N",
    // "BT"), not schemes — there is no enforcement part and bare scale
    // prefixes are legal — so it deliberately does not go through the
    // `Scheme` grammar.
    let mut profilers: Vec<(String, Profiler)> = Vec::new();
    for p in &spec.profilers {
        let (label, kind, scale) = match p.as_str() {
            "L" => ("SDH (LRU)".to_string(), PolicyKind::Lru, 1.0),
            "BT" => ("eSDH BT".to_string(), PolicyKind::Bt, 1.0),
            nru if nru.ends_with('N') => {
                let scale: f64 = nru[..nru.len() - 1].parse().map_err(|_| {
                    ScenarioError::new(format!("bad NRU profiler scale in `{nru}`"))
                })?;
                (format!("eSDH {nru}"), PolicyKind::Nru, scale)
            }
            other => {
                return Err(ScenarioError::new(format!(
                    "unknown profiler `{other}` (expected L, BT or a scale like 0.75N)"
                )))
            }
        };
        let prof = Profiler::new(kind, geom, ratio, scale, NruUpdateMode::Scaled, fidelity)
            .map_err(|e| ScenarioError::new(e.to_string()))?;
        profilers.push((label, prof));
    }

    let mut l1 = PrivateLru::new(baseline.l1d);
    let records = spec.records.unwrap_or(400_000);
    let benchmark = profile.name.clone();
    let mut gen = TraceGenerator::new(profile, spec.trace_seed.unwrap_or(42));
    let mut l2_accesses = 0u64;
    for _ in 0..records {
        let rec = gen.next_record();
        if !l1.access(rec.addr, rec.is_write) {
            l2_accesses += 1;
            for (_, prof) in &mut profilers {
                prof.observe(rec.addr);
            }
        }
    }

    let curves = profilers
        .into_iter()
        .map(|(label, prof)| MissCurve {
            label,
            misses: prof.sdh().miss_curve(),
        })
        .collect();
    Ok(MissCurveReport {
        benchmark,
        records,
        l2_accesses,
        curves,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::WorkloadSel;

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "runner-t".into(),
            insts: Some(15_000),
            workloads: vec![
                WorkloadSel::Named("2T_06".into()),
                WorkloadSel::Profiles(vec!["gzip".into(), "eon".into()]),
            ],
            schemes: vec!["L".into(), "M-0.75N".into()].into(),
            ..Default::default()
        }
    }

    #[test]
    fn report_order_matches_expansion_order() {
        let spec = tiny_spec();
        let cases = spec.expand().unwrap();
        let report = SweepRunner::with_threads(3).run(&spec).unwrap();
        assert_eq!(report.cases.len(), cases.len());
        for (i, c) in report.cases.iter().enumerate() {
            assert_eq!(c.case.index, i);
            assert_eq!(c.case, cases[i]);
            assert!(c.metrics.throughput > 0.0);
        }
    }

    #[test]
    fn history_is_captured_only_when_asked() {
        let mut spec = tiny_spec();
        spec.workloads.truncate(1);
        spec.capture_history = Some(true);
        let report = SweepRunner::with_threads(1).run(&spec).unwrap();
        assert!(
            report.cases[0].allocation_history.is_none(),
            "no CPA, no history"
        );
        let with_cpa = &report.cases[1];
        let history = with_cpa.allocation_history.as_ref().expect("CPA history");
        assert_eq!(history.len() as u64, with_cpa.result.intervals);
    }

    #[test]
    fn with_threads_clamps_to_the_pool_cap() {
        // Checked on the runner alone: no pool, so no thread starts.
        let cap = MAX_POOL_WORKERS;
        assert_eq!(SweepRunner::with_threads(cap + 1).threads(), cap);
        assert_eq!(SweepRunner::with_threads(cap).threads(), cap);
        assert_eq!(SweepRunner::with_threads(0).threads(), 1);
    }

    #[test]
    fn invalid_spec_surfaces_the_expansion_error() {
        let mut spec = tiny_spec();
        spec.schemes = vec!["Q".into()].into();
        assert!(SweepRunner::new().run(&spec).is_err());
    }

    #[test]
    fn miss_curves_run_and_are_monotone_at_zero() {
        let spec = MissCurveSpec {
            name: "mc-t".into(),
            benchmark: "twolf".into(),
            records: Some(30_000),
            trace_seed: None,
            profilers: vec!["L".into(), "0.75N".into(), "BT".into()],
            sample_ratio: None,
            fidelity: None,
        };
        let report = run_miss_curves(&spec).unwrap();
        assert_eq!(report.curves.len(), 3);
        assert_eq!(report.curves[0].label, "SDH (LRU)");
        for curve in &report.curves {
            assert_eq!(curve.misses.len(), 17, "0..=16 ways");
            assert_eq!(
                curve.misses[0], report.l2_accesses,
                "0 ways miss everything"
            );
        }
        assert!(run_miss_curves(&MissCurveSpec {
            benchmark: "nonesuch".into(),
            profilers: vec!["L".into()],
            ..spec.clone()
        })
        .is_err());
        assert!(run_miss_curves(&MissCurveSpec {
            fidelity: Some("sketch9".into()),
            ..spec.clone()
        })
        .is_err());
    }

    #[test]
    fn miss_curves_accept_sampled_sketch_profilers() {
        let spec = MissCurveSpec {
            name: "mc-sk".into(),
            benchmark: "twolf".into(),
            records: Some(30_000),
            trace_seed: None,
            profilers: vec!["L".into(), "BT".into()],
            sample_ratio: Some(32),
            fidelity: Some("sketch16".into()),
        };
        let report = run_miss_curves(&spec).unwrap();
        assert_eq!(report.curves.len(), 2);
        for curve in &report.curves {
            // Sampled ATDs only record 1-in-32 sets, so the zero-way
            // point counts sampled observations, not all L2 accesses.
            assert!(curve.misses[0] > 0);
            assert!(curve.misses[0] <= report.l2_accesses);
        }
    }
}
