//! Differential test in the spirit of `tests/engine_equivalence.rs`: the
//! pool-backed `SweepRunner` must be a pure scheduler. Every case result
//! it reports — full `SimResult`, metrics, isolation IPCs — must be
//! bit-identical to running the same expanded case sequentially through
//! `SimEngine::run` with a private isolation cache.
//!
//! The pool reads each record stream from the stream memo (one tape per
//! benchmark and trace seed, shared by every case and isolation run that
//! reads it); the sequential reference runs plain generators. So this is
//! also memo-on ≡ memo-off, at 1, 2 and 4 workers, on a spec whose
//! `["gzip", "gzip"]` mix reads two streams of one benchmark.

use plru_repro::prelude::*;
use std::sync::Arc;

#[test]
fn sweep_runner_matches_sequential_engine_runs() {
    let spec = ScenarioSpec {
        name: "differential".into(),
        insts: Some(15_000),
        workloads: vec![
            WorkloadSel::Named("2T_05".into()),
            WorkloadSel::Profiles(vec!["gzip".into(), "eon".into()]),
            WorkloadSel::Profiles(vec!["gzip".into(), "gzip".into()]),
        ],
        schemes: vec!["L".into(), "M-0.75N".into()].into(),
        l2_sizes: Some(vec![512 * 1024, 2 * 1024 * 1024]),
        seed_salts: Some(vec![0, 1]),
        ..Default::default()
    };
    let cases = spec.expand().unwrap();
    assert_eq!(
        cases.len(),
        24,
        "3 workloads x 2 schemes x 2 sizes x 2 salts"
    );

    let reports: Vec<(usize, SweepReport)> = [1, 2, 4]
        .into_iter()
        .map(|threads| {
            (
                threads,
                SweepRunner::with_threads(threads).run(&spec).unwrap(),
            )
        })
        .collect();

    for case in &cases {
        // A fresh engine and a fresh isolation cache per case: no state
        // shared with the pool, so agreement means the pool added nothing.
        let engine = case.engine(Arc::new(IsolationCache::new()));
        let workload = case.to_workload();
        let reference = engine.run(&workload);
        let reference_iso = engine.isolation_ipcs(&workload.benchmarks);
        let reference_metrics = WorkloadMetrics::compute(&reference.ipcs(), &reference_iso);

        for (threads, report) in &reports {
            assert_eq!(report.cases.len(), cases.len());
            let swept = &report.cases[case.index];
            let at = format!(
                "case {} ({} / {} / {} B / salt {}) at {threads} worker(s)",
                case.index,
                case.workload,
                case.scheme.acronym(),
                case.l2_bytes,
                case.seed_salt,
            );
            assert_eq!(&swept.case, case, "{at}: case echoed verbatim");
            // Full bit-identity of the simulation outcome, via the
            // serialized form so every field (per-core counters, L2
            // stats, allocation) is covered without a PartialEq impl.
            assert_eq!(
                serde_json::to_string(&swept.result).unwrap(),
                serde_json::to_string(&reference).unwrap(),
                "{at}"
            );
            assert_eq!(swept.isolation_ipcs, reference_iso, "{at}");
            assert_eq!(
                swept.metrics.throughput, reference_metrics.throughput,
                "{at}"
            );
            assert_eq!(
                swept.metrics.weighted_speedup, reference_metrics.weighted_speedup,
                "{at}"
            );
            assert_eq!(
                swept.metrics.harmonic_mean, reference_metrics.harmonic_mean,
                "{at}"
            );
        }
    }
}
