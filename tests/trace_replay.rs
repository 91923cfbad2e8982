//! The recorded-trace backend's headline contract: replaying a recorded
//! workload through `SimEngine::run` is **bit-identical** to the live
//! tracegen synthesis it captured — same seed, same salt, same machine,
//! same scheme, same bytes of `SimResult` — and the capture tee itself
//! does not perturb the run it records.
//!
//! Also pins the shipped `scenarios/traces/smoke_2T_06.pltc` container
//! (regenerate with `UPDATE_TRACES=1 cargo test --test trace_replay`
//! after an intentional format/generator change) and the recorded
//! workload axis of the sweep pipeline.

use plru_repro::prelude::*;
use plru_repro::tracegen::trace;
use std::path::PathBuf;

fn result_json(r: &SimResult) -> String {
    serde_json::to_string(r).expect("results always serialize")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

/// The engine configuration the shipped smoke trace was recorded with.
fn smoke_engine() -> SimEngine {
    SimEngine::builder().cores(2).insts(20_000).build()
}

#[test]
fn replay_is_bit_identical_to_live_synthesis_under_cpa() {
    let engine = SimEngine::builder()
        .cores(2)
        .insts(30_000)
        .seed(99)
        .seed_salt(5)
        .scheme(Scheme::partitioned(CpaConfig::m_nru(0.75)).unwrap())
        .build();
    let wl = workload("2T_02").unwrap(); // mcf + parser, cache-hostile
    let path = tmp("plru_replay_cpa.pltc");

    let live = engine.run(&wl);
    let captured = engine.record_trace(&wl, &path).unwrap();
    let replayed = engine.run_trace(&path).unwrap();
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        result_json(&captured),
        result_json(&live),
        "the capture tee must not perturb the simulation"
    );
    assert_eq!(
        result_json(&replayed),
        result_json(&live),
        "replay must be bit-identical to live synthesis"
    );
    assert!(live.intervals > 0, "the CPA must actually repartition");
}

#[test]
fn replay_under_a_different_scheme_matches_that_schemes_live_run() {
    // Record under unpartitioned LRU, replay under M-L: the trace is the
    // workload, the scheme is the machine's business.
    let record_engine = SimEngine::builder().cores(2).insts(25_000).build();
    let wl = workload("2T_04").unwrap(); // vpr + art
    let path = tmp("plru_replay_cross_scheme.pltc");
    record_engine.record_trace(&wl, &path).unwrap();

    let ml = SimEngine::builder()
        .cores(2)
        .insts(25_000)
        .scheme(Scheme::partitioned(CpaConfig::m_l()).unwrap())
        .build();
    let live = ml.run(&wl);
    let replayed = ml.run_trace(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(result_json(&replayed), result_json(&live));
}

#[test]
fn replay_at_a_smaller_target_matches_live() {
    let record_engine = SimEngine::builder().cores(2).insts(30_000).build();
    let wl = workload("2T_06").unwrap();
    let path = tmp("plru_replay_smaller.pltc");
    record_engine.record_trace(&wl, &path).unwrap();

    let short = SimEngine::builder().cores(2).insts(10_000).build();
    let live = short.run(&wl);
    let replayed = short.run_trace(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(result_json(&replayed), result_json(&live));
}

#[test]
fn replay_beyond_the_recorded_target_is_a_readable_error() {
    let record_engine = SimEngine::builder().cores(2).insts(10_000).build();
    let wl = workload("2T_06").unwrap();
    let path = tmp("plru_replay_guard.pltc");
    record_engine.record_trace(&wl, &path).unwrap();

    let greedy = SimEngine::builder().cores(2).insts(1_000_000).build();
    let err = greedy.run_trace(&path).unwrap_err();
    let _ = std::fs::remove_file(&path);
    let msg = err.to_string();
    assert!(msg.contains("10000") && msg.contains("1000000"), "{msg}");
}

#[test]
fn recording_at_a_zero_target_is_an_error() {
    // Its header would read `insts: 0`, which admits no replay, so the
    // capture is refused before the file is created.
    let path = tmp("plru_replay_zero_target.pltc");
    let _ = std::fs::remove_file(&path);
    let engine = SimEngine::builder().cores(2).insts(0).build();
    let err = engine
        .record_trace(&workload("2T_06").unwrap(), &path)
        .unwrap_err();
    assert!(err.to_string().contains("must be positive"), "{err}");
    assert!(!path.exists(), "a refused capture must write no file");
}

#[test]
fn v2_replay_is_bit_identical_to_v1_and_live_at_any_worker_count() {
    // The tentpole acceptance check: a dict-compressed v2 container must
    // replay to the exact SimResult of both the v1 container and live
    // synthesis, whether decoded inline (0 workers) or on a pool of
    // decode workers (1 and 4).
    use plru_repro::tracegen::trace::Compression;

    let wl = workload("2T_02").unwrap();
    let engine = SimEngine::builder()
        .cores(2)
        .insts(30_000)
        .scheme(Scheme::partitioned(CpaConfig::m_nru(0.75)).unwrap())
        .build();
    let v1 = tmp("plru_replay_v1_twin.pltc");
    let v2 = tmp("plru_replay_v2_twin.pltc");

    let live = engine.run(&wl);
    engine
        .record_trace_with(&wl, &v1, Compression::None)
        .unwrap();
    engine
        .record_trace_with(&wl, &v2, Compression::Dict)
        .unwrap();
    assert!(
        std::fs::metadata(&v2).unwrap().len() < std::fs::metadata(&v1).unwrap().len(),
        "dict compression must shrink the captured container"
    );

    let v1_result = engine.run_trace(&v1).unwrap();
    assert_eq!(result_json(&v1_result), result_json(&live));
    for workers in [0usize, 1, 4] {
        let e = SimEngine::builder()
            .cores(2)
            .insts(30_000)
            .scheme(Scheme::partitioned(CpaConfig::m_nru(0.75)).unwrap())
            .decode_workers(workers)
            .build();
        let replayed = e.run_trace(&v2).unwrap();
        assert_eq!(
            result_json(&replayed),
            result_json(&live),
            "v2 replay at {workers} decode workers drifted from live"
        );
    }
    let _ = std::fs::remove_file(&v1);
    let _ = std::fs::remove_file(&v2);
}

#[test]
fn replay_refuses_a_gap_above_the_generator_cap() {
    // `validate_path` rejects such a container up front, but the library
    // replay path reads only the header; the source itself must refuse
    // the record, at either decode placement, naming where it sits.
    use plru_repro::tracegen::trace::{TraceMeta, TraceWriter};
    use plru_repro::tracegen::{MemRecord, MAX_GAP};

    let path = tmp("plru_replay_gap_cap.pltc");
    let meta = TraceMeta {
        workload: "gzip".into(),
        benchmarks: vec!["gzip".into()],
        seed: 1,
        seed_salt: 0,
        insts: 2_000,
        scheme: None,
    };
    let mut w = TraceWriter::create(std::fs::File::create(&path).unwrap(), &meta).unwrap();
    for i in 0..8u64 {
        let gap = if i == 0 { MAX_GAP + 1 } else { 3 };
        let rec = MemRecord {
            gap,
            addr: i * 128,
            is_write: false,
        };
        w.push(0, rec).unwrap();
    }
    w.finish().unwrap();

    for workers in [0usize, 1] {
        let engine = SimEngine::builder()
            .cores(1)
            .insts(2_000)
            .decode_workers(workers)
            .build();
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run_trace(&path)));
        let Err(panic) = outcome else {
            panic!("a gap above the cap replayed at {workers} decode workers");
        };
        let msg = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        let expected = [
            path.display().to_string(),
            "thread 0 record 0".to_string(),
            format!("cap of {MAX_GAP}"),
        ];
        for part in expected {
            assert!(msg.contains(&part), "{workers} workers: {msg}");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shipped_smoke_trace_is_current() {
    // The shipped container must be exactly what recording produces
    // today; a drift in the generator, the capture path or the format
    // shows up here before it confuses a sweep.
    use plru_repro::tracegen::trace::Compression;
    let wl = workload("2T_06").unwrap();
    for (shipped, compression) in [
        ("scenarios/traces/smoke_2T_06.pltc", Compression::None),
        ("scenarios/traces/smoke_2T_06_v2.pltc", Compression::Dict),
    ] {
        let fresh = tmp("plru_replay_shipped_regen.pltc");
        smoke_engine()
            .record_trace_with(&wl, &fresh, compression)
            .unwrap();
        let fresh_bytes = std::fs::read(&fresh).unwrap();
        let _ = std::fs::remove_file(&fresh);

        if std::env::var("UPDATE_TRACES").is_ok() {
            std::fs::write(shipped, &fresh_bytes).unwrap();
            continue;
        }
        let shipped_bytes = std::fs::read(shipped).unwrap_or_else(|e| {
            panic!("{shipped}: {e}; regenerate with UPDATE_TRACES=1 cargo test --test trace_replay")
        });
        assert!(
            shipped_bytes == fresh_bytes,
            "{shipped} drifted from a fresh recording; if intentional, regenerate with \
             UPDATE_TRACES=1 cargo test --test trace_replay"
        );
    }
}

#[test]
fn sweeps_accept_v2_recorded_workloads() {
    // The scenario expansion's recorded axis validates and runs a
    // dict-compressed container exactly like a v1 one.
    let spec = ScenarioSpec {
        name: "v2".into(),
        insts: Some(20_000),
        workloads: vec![WorkloadSel::Recorded(
            "scenarios/traces/smoke_2T_06_v2.pltc".into(),
        )],
        schemes: vec!["L".into()].into(),
        ..Default::default()
    };
    let cases = spec.expand().unwrap();
    assert_eq!(cases.len(), 1);
    assert_eq!(cases[0].workload, "2T_06");

    let report = SweepRunner::with_threads(1).run(&spec).unwrap();
    let live = smoke_engine().run(&workload("2T_06").unwrap());
    assert_eq!(
        result_json(&report.cases[0].result),
        result_json(&live),
        "v2 recorded sweep row diverged from live"
    );
}

#[test]
fn sweep_recorded_rows_equal_their_live_twins() {
    // The shipped smoke_recorded spec pairs the recorded 2T_06 with its
    // live twin under each scheme; corresponding rows must agree byte
    // for byte through the whole sweep pipeline.
    let text = std::fs::read_to_string("scenarios/smoke_recorded.json").unwrap();
    let spec = ScenarioSpec::from_json(&text).unwrap();
    let cases = spec.expand().unwrap();
    assert_eq!(cases.len(), 4, "2 workloads x 2 schemes");
    assert!(cases[0].recorded.is_some() && cases[1].recorded.is_some());
    assert!(cases[2].recorded.is_none() && cases[3].recorded.is_none());

    let report = SweepRunner::with_threads(2).run(&spec).unwrap();
    for (rec, live) in [(0usize, 2usize), (1, 3)] {
        let rec = &report.cases[rec];
        let live = &report.cases[live];
        assert_eq!(rec.scheme, live.scheme);
        assert_eq!(
            result_json(&rec.result),
            result_json(&live.result),
            "recorded {} row diverged from its live twin",
            rec.scheme
        );
        assert_eq!(rec.metrics.throughput, live.metrics.throughput);
        assert_eq!(rec.isolation_ipcs, live.isolation_ipcs);
    }
}

#[test]
fn expansion_rejects_missing_and_undersized_traces() {
    let mut spec = ScenarioSpec {
        name: "bad".into(),
        insts: Some(10_000),
        workloads: vec![WorkloadSel::Recorded("no/such/file.pltc".into())],
        schemes: vec!["L".into()].into(),
        ..Default::default()
    };
    let err = spec.expand().unwrap_err().to_string();
    assert!(err.contains("no/such/file.pltc"), "{err}");

    // A real trace, but the spec asks for more instructions than it holds.
    let path = tmp("plru_replay_undersized.pltc");
    let engine = SimEngine::builder().cores(2).insts(5_000).build();
    engine
        .record_trace(&workload("2T_06").unwrap(), &path)
        .unwrap();
    spec.workloads = vec![WorkloadSel::Recorded(path.display().to_string())];
    let err = spec.expand().unwrap_err().to_string();
    let _ = std::fs::remove_file(&path);
    assert!(err.contains("5000") && err.contains("10000"), "{err}");
}

#[test]
fn trace_length_cap_mirrors_the_service_frame_cap() {
    // Both untrusted-length ceilings are deliberately the same number;
    // whoever raises one must decide about the other.
    assert_eq!(
        trace::MAX_META_BYTES as u64,
        plru_repro::service::protocol::MAX_FRAME_BYTES as u64
    );
}

#[test]
fn recorded_case_carries_the_traces_metadata() {
    let path = tmp("plru_replay_case_meta.pltc");
    let engine = SimEngine::builder().cores(2).insts(8_000).build();
    engine
        .record_trace(&workload("2T_06").unwrap(), &path)
        .unwrap();
    let info = trace::load_info(&path).unwrap();
    assert_eq!(info.meta.scheme.as_deref(), Some("L"));
    assert_eq!(info.meta.insts, 8_000);

    let spec = ScenarioSpec {
        name: "meta".into(),
        insts: Some(8_000),
        workloads: vec![WorkloadSel::Recorded(path.display().to_string())],
        schemes: vec!["L".into()].into(),
        ..Default::default()
    };
    let cases = spec.expand().unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(cases.len(), 1);
    assert_eq!(cases[0].workload, "2T_06");
    assert_eq!(cases[0].benchmarks, vec!["bzip2", "eon"]);
    assert_eq!(cases[0].recorded.as_deref(), Some(path.to_str().unwrap()));
}
