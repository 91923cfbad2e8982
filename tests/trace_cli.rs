//! Integration tests of the `trace` bin (and the `sweep` bin's trace
//! handling): a record → replay round trip must reproduce the live
//! golden through the real CLI, `info` output is snapshot-pinned, and
//! malformed inputs are readable non-zero exits — never panics.

use plru_repro::prelude::*;
use std::path::PathBuf;
use std::process::{Command, Output};

fn trace_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_trace"))
}

fn sweep_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("binary spawns")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(name)
}

#[test]
fn record_then_replay_reproduces_the_live_golden() {
    let path = tmp("plru_cli_roundtrip.pltc");
    let json_path = tmp("plru_cli_roundtrip.json");
    let rec = run(trace_bin().args([
        "record",
        "--workload",
        "2T_06",
        "--insts",
        "20000",
        "--out",
        path.to_str().unwrap(),
    ]));
    assert!(rec.status.success(), "record failed: {}", stderr(&rec));

    let rep = run(trace_bin().args([
        "replay",
        path.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]));
    assert!(rep.status.success(), "replay failed: {}", stderr(&rep));
    let out = stdout(&rep);
    assert!(out.contains("replayed `2T_06` under L"), "{out}");

    // The CLI's SimResult must equal the live golden computed in-process.
    let live = SimEngine::builder()
        .cores(2)
        .insts(20_000)
        .build()
        .run(&workload("2T_06").unwrap());
    let live_json = serde_json::to_string_pretty(&live).unwrap();
    let cli_json = std::fs::read_to_string(&json_path).unwrap();
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(&json_path);
    assert!(
        cli_json == live_json,
        "CLI replay result drifted from the live golden"
    );
}

#[test]
fn compressed_record_then_replay_reproduces_the_live_golden() {
    // `record --compress` writes a v2 container; replay — at several
    // decode-worker counts — must still equal the live golden bit for bit.
    let path = tmp("plru_cli_v2_roundtrip.pltc");
    let rec = run(trace_bin().args([
        "record",
        "--workload",
        "2T_06",
        "--insts",
        "20000",
        "--compress",
        "--out",
        path.to_str().unwrap(),
    ]));
    assert!(rec.status.success(), "record failed: {}", stderr(&rec));

    let info = run(trace_bin().args(["info", path.to_str().unwrap()]));
    let text = stdout(&info);
    assert!(text.contains("format version: 2"), "{text}");
    assert!(text.contains("codec: dict ("), "{text}");
    assert!(text.contains("ratio "), "{text}");

    let live = SimEngine::builder()
        .cores(2)
        .insts(20_000)
        .build()
        .run(&workload("2T_06").unwrap());
    let live_json = serde_json::to_string_pretty(&live).unwrap();

    for workers in ["1", "4"] {
        let json_path = tmp(&format!("plru_cli_v2_roundtrip_{workers}.json"));
        let rep = run(trace_bin().args([
            "replay",
            path.to_str().unwrap(),
            "--decode-workers",
            workers,
            "--json",
            json_path.to_str().unwrap(),
        ]));
        assert!(rep.status.success(), "replay failed: {}", stderr(&rep));
        let cli_json = std::fs::read_to_string(&json_path).unwrap();
        let _ = std::fs::remove_file(&json_path);
        assert!(
            cli_json == live_json,
            "v2 replay at {workers} workers drifted from the live golden"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn info_output_matches_the_snapshot() {
    // Pinned against the shipped smoke container: format version,
    // metadata echo and per-thread record counts, byte for byte.
    let out = run(trace_bin().args(["info", "scenarios/traces/smoke_2T_06.pltc"]));
    assert!(out.status.success(), "info failed: {}", stderr(&out));
    let expected = "\
format version: 1
codec: none (11 chunks, 199628 payload bytes)
workload: 2T_06 (2 threads)
benchmarks: bzip2, eon
captured: scheme L, insts 20000, seed 12648430, salt 0
records: [9854, 31105] (total 40959)
";
    assert_eq!(stdout(&out), expected);
}

#[test]
fn info_json_parses_back_into_trace_info() {
    let out = run(trace_bin().args(["info", "scenarios/traces/smoke_2T_06.pltc", "--json"]));
    assert!(out.status.success());
    let info: plru_repro::tracegen::TraceInfo =
        serde_json::from_str(&stdout(&out)).expect("info --json is valid TraceInfo JSON");
    assert_eq!(info.meta.workload, "2T_06");
    assert_eq!(info.total_records(), 40959);
}

#[test]
fn malformed_trace_is_a_readable_nonzero_exit() {
    let path = tmp("plru_cli_garbage.pltc");
    std::fs::write(&path, b"this is not a trace").unwrap();
    for sub in ["replay", "info"] {
        let out = run(trace_bin().args([sub, path.to_str().unwrap()]));
        assert_eq!(out.status.code(), Some(1), "{sub} must exit 1");
        let err = stderr(&out);
        assert!(
            err.starts_with("trace: ") && err.contains("not a trace file"),
            "{sub}: {err}"
        );
        assert!(!err.contains("panicked"), "{sub} must not panic: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn truncated_trace_is_a_readable_nonzero_exit() {
    let whole = std::fs::read("scenarios/traces/smoke_2T_06.pltc").unwrap();
    let path = tmp("plru_cli_truncated.pltc");
    std::fs::write(&path, &whole[..whole.len() / 2]).unwrap();
    for sub in ["replay", "info"] {
        let out = run(trace_bin().args([sub, path.to_str().unwrap()]));
        assert_eq!(out.status.code(), Some(1), "{sub} must exit 1");
        let err = stderr(&out);
        assert!(err.starts_with("trace: "), "{sub}: {err}");
        assert!(!err.contains("panicked"), "{sub} must not panic: {err}");
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_corrupt_payload_fails_replay_and_info_alike() {
    // One flipped byte inside the first dict-coded payload of the shipped
    // v2 container: the framing still parses, only decoding can tell.
    let mut bytes = std::fs::read("scenarios/traces/smoke_2T_06_v2.pltc").unwrap();
    let mut cur = std::io::Cursor::new(&bytes);
    plru_repro::tracegen::trace::read_info(&mut cur).unwrap();
    let mut at = cur.position() as usize;
    // v2 chunk header: thread u32 | records u32 | codec u8 | raw_len u32
    // | payload_len u32.
    while bytes[at + 8] != plru_repro::tracegen::trace::CODEC_DICT {
        at += 17 + u32::from_le_bytes(bytes[at + 13..at + 17].try_into().unwrap()) as usize;
    }
    bytes[at + 17] ^= 0xff;
    let path = tmp("plru_cli_corrupt_payload.pltc");
    std::fs::write(&path, &bytes).unwrap();
    let errs = ["replay", "info"].map(|sub| {
        let out = run(trace_bin().args([sub, path.to_str().unwrap()]));
        assert_eq!(out.status.code(), Some(1), "{sub} must exit 1");
        stderr(&out)
    });
    let _ = std::fs::remove_file(&path);
    assert!(
        errs[0].starts_with("trace: ") && errs[0].lines().count() == 1,
        "{}",
        errs[0]
    );
    assert_eq!(errs[0], errs[1], "replay and info must agree");
}

#[test]
fn zero_instruction_targets_are_rejected() {
    let path = tmp("plru_cli_zero_insts.pltc");
    let _ = std::fs::remove_file(&path);
    let rec = run(trace_bin().args([
        "record",
        "--workload",
        "2T_06",
        "--insts",
        "0",
        "--out",
        path.to_str().unwrap(),
    ]));
    let rep = run(trace_bin().args([
        "replay",
        "scenarios/traces/smoke_2T_06.pltc",
        "--insts",
        "0",
    ]));
    for (sub, out) in [("record", &rec), ("replay", &rep)] {
        assert_eq!(out.status.code(), Some(1), "{sub}: {}", stderr(out));
        assert_eq!(stderr(out), "trace: --insts must be positive\n", "{sub}");
    }
    assert!(!path.exists(), "a rejected record must write no file");
}

#[test]
fn replay_bounds_the_decode_worker_count() {
    let workers = plru_repro::tracegen::trace::MAX_DECODE_WORKERS + 1;
    let out = run(trace_bin().args([
        "replay",
        "scenarios/traces/smoke_2T_06.pltc",
        "--decode-workers",
        &workers.to_string(),
    ]));
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with("trace: ") && err.lines().count() == 1,
        "{err}"
    );
    assert!(err.contains(&format!("{workers} decode workers")), "{err}");
}

/// A one-thread `gzip` container, captured to 2000 instructions, whose
/// third record carries `gap` instructions.
fn trace_with_gap(name: &str, gap: u32) -> PathBuf {
    use plru_repro::tracegen::{trace::TraceWriter, MemRecord};
    let path = tmp(name);
    let meta = TraceMeta {
        workload: "gzip".into(),
        benchmarks: vec!["gzip".into()],
        seed: 1,
        seed_salt: 0,
        insts: 2000,
        scheme: None,
    };
    let file = std::fs::File::create(&path).unwrap();
    let mut w = TraceWriter::create(file, &meta).unwrap();
    for i in 0..8u64 {
        let rec = MemRecord {
            gap: if i == 2 { gap } else { 3 },
            addr: i * 128,
            is_write: false,
        };
        w.push(0, rec).unwrap();
    }
    w.finish().unwrap();
    path
}

#[test]
fn replay_rejects_gaps_above_the_generator_cap() {
    // The codec carries any u32 gap, but the core model turns a record's
    // instructions into a fetch group, so a replayed gap must stay within
    // what the generator can emit.
    let cap = plru_repro::tracegen::MAX_GAP;
    for gap in [cap + 1, u32::MAX] {
        let path = trace_with_gap(&format!("plru_cli_gap_{gap}.pltc"), gap);
        let out = run(trace_bin().args(["replay", path.to_str().unwrap(), "--insts", "2000"]));
        let _ = std::fs::remove_file(&path);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "gap {gap}: {err}");
        assert!(
            err.starts_with("trace: ") && err.lines().count() == 1,
            "{err}"
        );
        assert!(err.contains(&format!("cap of {cap}")), "{err}");
    }
}

/// A hand-built `gzip` + `eon` container whose header claims a capture
/// target of `insts` but which holds only `records` generator records
/// per thread.
fn short_container(name: &str, insts: u64, records: usize) -> PathBuf {
    use plru_repro::tracegen::{trace::TraceWriter, TraceGenerator};
    let path = tmp(name);
    let meta = TraceMeta {
        workload: "gzip+eon".into(),
        benchmarks: vec!["gzip".into(), "eon".into()],
        seed: 1,
        seed_salt: 0,
        insts,
        scheme: Some("L".into()),
    };
    let mut w = TraceWriter::create(std::fs::File::create(&path).unwrap(), &meta).unwrap();
    for (t, name) in ["gzip", "eon"].iter().enumerate() {
        let mut g = TraceGenerator::new(benchmark(name).unwrap(), 7 + t as u64);
        for _ in 0..records {
            w.push(t, g.next_record()).unwrap();
        }
    }
    w.finish().unwrap();
    path
}

/// Write a spec file `name` that sweeps the recorded container `trace`
/// under `L` at `insts` instructions per thread.
fn recorded_spec(name: &str, trace: &std::path::Path, insts: u64) -> PathBuf {
    let path = tmp(name);
    let spec = format!(
        r#"{{"name": "recorded", "insts": {insts},
             "workloads": [{{"recorded": "{}"}}], "schemes": ["L"]}}"#,
        trace.display()
    );
    std::fs::write(&path, spec).unwrap();
    path
}

/// Exit 1, an empty stdout and one stderr line that starts with `prefix`
/// and contains `needle`.
fn assert_one_line_failure(out: &Output, prefix: &str, needle: &str) {
    let err = stderr(out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert_eq!(stdout(out), "", "{err}");
    assert!(
        err.starts_with(prefix) && err.lines().count() == 1 && err.contains(needle),
        "{err}"
    );
}

#[test]
fn a_replay_that_runs_a_stream_dry_fails_with_one_line() {
    // The header admits a 20k-instruction replay, but 300 records per
    // thread run out long before it.
    let trace = short_container("plru_cli_dry.pltc", 20_000, 300);
    let spec = recorded_spec("plru_cli_dry_spec.json", &trace, 20_000);
    let replay = run(trace_bin().args(["replay", trace.to_str().unwrap()]));
    let sweep = run(sweep_bin().arg(spec.to_str().unwrap()));
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&spec);
    let dry = "after 300 records";
    assert_one_line_failure(&replay, "trace: recorded trace ", dry);
    assert_one_line_failure(&sweep, "sweep: case 0 failed: recorded trace ", dry);
}

#[test]
fn a_container_without_a_capture_target_admits_no_replay() {
    // A header with `insts` 0 is refused before any simulation, through
    // the library and through both binaries.
    let trace = short_container("plru_cli_no_target.pltc", 0, 300);
    let spec = recorded_spec("plru_cli_no_target_spec.json", &trace, 2000);
    let engine = SimEngine::builder().cores(2).insts(2000).build();
    let library = match engine.system_from_trace(&trace) {
        Ok(_) => panic!("an insts-0 container built a system"),
        Err(e) => e.to_string(),
    };
    let expand = ScenarioSpec::from_json(&std::fs::read_to_string(&spec).unwrap())
        .unwrap()
        .expand()
        .unwrap_err()
        .to_string();
    let bare = run(trace_bin().args(["replay", trace.to_str().unwrap()]));
    let replay = run(trace_bin().args(["replay", trace.to_str().unwrap(), "--insts", "2000"]));
    let sweep = run(sweep_bin().arg(spec.to_str().unwrap()));
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&spec);
    let refusal = "captured to 0 instructions per thread";
    for err in [&library, &expand] {
        assert!(err.contains(refusal) && err.lines().count() == 1, "{err}");
    }
    assert_one_line_failure(&bare, "trace: ", "the replay targets 0");
    assert_one_line_failure(&replay, "trace: ", refusal);
    assert_one_line_failure(&sweep, "sweep: recorded trace ", refusal);
}

#[test]
fn missing_file_and_bad_usage_exit_nonzero() {
    let out = run(trace_bin().args(["info", "/no/such/file.pltc"]));
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).starts_with("trace: "));

    let out = run(trace_bin().args(["frobnicate"]));
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown command is a usage error"
    );

    let out = run(&mut trace_bin());
    assert_eq!(out.status.code(), Some(2), "no command prints usage");
}

#[test]
fn sweep_rejects_malformed_spec_files_readably() {
    let path = tmp("plru_cli_bad_spec.json");
    std::fs::write(&path, "{ not json").unwrap();
    let out = run(sweep_bin().arg(path.to_str().unwrap()));
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(err.starts_with("sweep: "), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_rejects_specs_pointing_at_malformed_traces_readably() {
    let trace_path = tmp("plru_cli_bad_trace_for_sweep.pltc");
    std::fs::write(&trace_path, b"garbage").unwrap();
    let spec_path = tmp("plru_cli_bad_trace_spec.json");
    std::fs::write(
        &spec_path,
        format!(
            r#"{{"name": "bad", "insts": 1000,
                 "workloads": [{{"recorded": "{}"}}],
                 "schemes": ["L"]}}"#,
            trace_path.display()
        ),
    )
    .unwrap();
    let out = run(sweep_bin().arg(spec_path.to_str().unwrap()));
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_file(&spec_path);
    assert_eq!(out.status.code(), Some(1));
    let err = stderr(&out);
    assert!(
        err.starts_with("sweep: ") && err.contains("recorded trace"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn sweep_runs_the_shipped_recorded_spec() {
    let out = run(sweep_bin().arg("scenarios/smoke_recorded.json"));
    assert!(out.status.success(), "sweep failed: {}", stderr(&out));
    let table = stdout(&out);
    assert!(table.contains("2T_06"), "{table}");
    assert!(table.contains("M-0.75N"), "{table}");
}
