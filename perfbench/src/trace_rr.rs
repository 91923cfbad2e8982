//! `trace_rr`: `trace record --compress` of `4T_01` under `M-L` at 300k
//! instructions per thread, then replays of that file under `M-L`, `L`,
//! `N`, `M-0.75N`, `BT` and `M-BT` with one decode worker, as
//! `trace replay --decode-workers 1` runs them. This is the only workload
//! on `tracegen.trace` and `tracegen.dict`. Replay bypasses the
//! generator, so a generator gain must leave its `minst_per_s` alone.
//!
//! The capture scheme replays at the recorded target, so its result must
//! equal the capture run's. The other schemes replay at 200k: a capture
//! pads each stream by only half the records it consumed, and at the
//! full 300k another scheme's cores run past that padding on most seeds
//! (up to 16% short), which `trace replay` answers by telling the user
//! to record a larger target than the replay needs. At 200k every
//! stream keeps at least 30% of its records spare on seeds 0-23.

use crate::affinity;
use crate::check::Ops;
use crate::host::Gauge;
use crate::layers::{self, Input, Layers, Sim};
use crate::spans::Spans;
use crate::stats::{fastest, median, minst_per_s, Steps};
use crate::{machine_seed, peak_rss_mb, Ctx, Report};
use plru_repro::cmpsim::SimResult;
use plru_repro::engine::SimEngine;
use plru_repro::tracegen::trace::{self, Compression, TraceWriter};
use plru_repro::tracegen::{dict, workload, MemRecord, Workload};
use std::io::{Cursor, Read};
use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const CORES: usize = 4;
/// Instructions per thread of the capture run and its replay.
const INSTS: u64 = 300_000;
/// Instructions per thread of the other schemes' replays.
const OTHER_INSTS: u64 = 200_000;
/// The capture scheme comes first.
const SCHEMES: [&str; 6] = ["M-L", "L", "N", "M-0.75N", "BT", "M-BT"];

/// Replay target of scheme `k` of [`SCHEMES`].
fn insts(k: usize) -> u64 {
    if k == 0 {
        INSTS
    } else {
        OTHER_INSTS
    }
}
/// Repetitions behind each traced codec timing.
const REPS: usize = 3;
/// Rounds of the six replays per recording in the timed run: a trace is
/// recorded once and replayed many times. A replay's fastest repetition
/// needs many rounds: its fast host state comes in bursts of a few
/// replays, seconds apart.
const REPLAY_ROUNDS: usize = 10;
/// Host seconds of one timed iteration (a recording and its rounds) when
/// the benchmark was defined.
const ITER_S: f64 = 12.0;
/// Host-speed kernel calls per replay round, on the round's CPU, and
/// the accesses of each (≈60 ms, as long as a replay).
const GAUGE_CALLS: usize = 1;
const GAUGE_ACCESSES: u32 = 480_000;

fn wl() -> Workload {
    workload("4T_01").expect("Table II workload")
}

/// The engine replaying (or, without decode workers, running live)
/// scheme `k` of [`SCHEMES`].
fn engine(ctx: &Ctx, k: usize, decode_workers: usize) -> SimEngine {
    SimEngine::builder()
        .cores(CORES)
        .insts(insts(k))
        .seed(machine_seed(ctx.seed))
        .scheme(SCHEMES[k].parse().expect("registered scheme"))
        .decode_workers(decode_workers)
        .build()
}

/// What one `trace record` process did.
struct Recording {
    secs: f64,
    peak_rss_mb: f64,
    capture_ipcs: Vec<f64>,
}

/// Run `trace record --compress` to `path`, sampling its peak resident
/// set while it runs.
fn record(ctx: &Ctx, path: &Path) -> Result<Recording, String> {
    let t = Instant::now();
    let mut child = Command::new(ctx.bin("trace"))
        .args([
            "record",
            "--workload",
            "4T_01",
            "--scheme",
            "M-L",
            "--compress",
        ])
        .args(["--insts", &INSTS.to_string()])
        .args(["--seed", &machine_seed(ctx.seed).to_string()])
        .arg("--out")
        .arg(path)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting trace record: {e}"))?;
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    });
    let mut peak = 0.0f64;
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if let Some(mb) = peak_rss_mb(Some(child.id())) {
            peak = peak.max(mb);
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    let secs = t.elapsed().as_secs_f64();
    let text = reader.join().map_err(|_| "stderr reader panicked")?;
    if !status.success() {
        return Err(format!("trace record failed: {}", text.trim()));
    }
    let ipcs = text
        .split_once("capture IPCs [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .ok_or_else(|| format!("no capture IPCs in `{}`", text.trim()))?
        .0
        .split(", ")
        .map(|x| x.parse::<f64>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(Recording {
        secs,
        peak_rss_mb: peak,
        capture_ipcs: ipcs,
    })
}

/// Container bytes per record.
fn bytes_per_record(path: &Path) -> Result<f64, String> {
    let info = trace::load_info(path).map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok(bytes as f64 / info.total_records() as f64)
}

/// Live runs under every scheme: the results replays must reproduce.
fn live(ctx: &Ctx) -> Vec<SimResult> {
    (0..SCHEMES.len())
        .map(|k| engine(ctx, k, 0).run(&wl()))
        .collect()
}

/// Count the record operation: the capture run's IPCs, as the binary
/// printed them, must be the live capture-scheme run's.
fn check_record(ops: &mut Ops, rec: &Recording, capture: &SimResult) {
    if rec.capture_ipcs == capture.ipcs() {
        ops.check("record", capture, None);
    } else {
        ops.count("record", false, "capture IPCs differ from the live run's");
    }
}

/// The replay of scheme `k` of [`SCHEMES`] with one decode worker.
fn replay(ctx: &Ctx, path: &Path, k: usize) -> Sim {
    Sim {
        op: format!("replay/{}", SCHEMES[k]),
        engine: engine(ctx, k, 1),
        salt: 0,
        input: Input::Trace(path.to_path_buf(), 1),
    }
}

/// The timed run.
pub fn timed(ctx: &Ctx) -> Result<Report, String> {
    let path = ctx.work.join("4T_01.pltc");
    let replay_work: u64 = (0..SCHEMES.len()).map(|k| CORES as u64 * insts(k)).sum();
    let mut record_s = Vec::new();
    let mut record_rss = Vec::new();
    let mut bpr = Vec::new();
    let mut preflight = Steps::default();
    let mut steps = Steps::default();
    let mut recordings = Vec::new();
    let mut replays = Vec::new();
    let mut gauge = Gauge::new(GAUGE_ACCESSES);
    let mut rounds = 0;
    for _ in 0..ctx.reps(ITER_S) {
        let rec = record(ctx, &path)?;
        record_s.push(rec.secs);
        record_rss.push(rec.peak_rss_mb);
        recordings.push(rec);
        bpr.push(bytes_per_record(&path)?);
        for _ in 0..REPLAY_ROUNDS {
            affinity::on_cpu(rounds, || gauge.sample(GAUGE_CALLS));
            let mut pre = Vec::with_capacity(SCHEMES.len());
            let mut round = Vec::with_capacity(SCHEMES.len());
            for k in 0..SCHEMES.len() {
                // What `trace replay` does before its first instruction,
                // on the CPU after the round's: the decode worker starts
                // with the system and keeps that CPU, so it never shares
                // one with the simulating thread (it did, at the
                // scheduler's whim, when it could use every CPU).
                let (pre_s, sys) = affinity::on_cpu(rounds + 1, || {
                    let t = Instant::now();
                    trace::validate_path(&path).map_err(|e| e.to_string())?;
                    let sys = engine(ctx, k, 1)
                        .system_from_trace(&path)
                        .map_err(|e| e.to_string())?;
                    Ok::<_, String>((t.elapsed().as_secs_f64(), sys))
                })?;
                pre.push(pre_s);
                let mut sys = sys;
                let (secs, r) = affinity::on_cpu(rounds, || {
                    let t = Instant::now();
                    // A stream that runs dry panics; that replay fails.
                    let r = std::panic::catch_unwind(AssertUnwindSafe(|| sys.run())).ok();
                    (t.elapsed().as_secs_f64(), r)
                });
                round.push(secs);
                replays.push((k, r));
            }
            rounds += 1;
            preflight.push(pre);
            steps.push(round);
        }
    }
    let rss = peak_rss_mb(None).ok_or("no peak RSS")?;

    let mut ops = Ops::new("trace_rr", ctx.seed);
    let live = live(ctx);
    for rec in &recordings {
        check_record(&mut ops, rec, &live[0]);
    }
    for (k, r) in &replays {
        let op = format!("replay/{}", SCHEMES[*k]);
        match r {
            Some(r) => ops.check(&op, r, Some(&live[*k])),
            None => ops.count(&op, false, "the replay panicked"),
        };
    }
    let mut report = Report::new(ops);
    let (secs, pre_secs) = (steps.secs()?, preflight.secs()?);
    report.value(
        "minst_per_s",
        minst_per_s(replay_work, gauge.scale(secs)?),
        "Minst/s",
    );
    report.value("setup_s", gauge.scale(pre_secs)?, "s");
    report.value("peak_rss_mb", rss.max(median(&record_rss)), "MB");
    let record_secs = gauge.scale(fastest(&record_s))?;
    report.note(
        "record_minst_per_s",
        minst_per_s(CORES as u64 * INSTS, record_secs),
        "Minst/s",
    );
    report.note("host_slowness", gauge.slowness()?, "ratio");
    report.note(
        "minst_per_s_unscaled",
        minst_per_s(replay_work, secs),
        "Minst/s",
    );
    report.note("setup_s_unscaled", pre_secs, "s");
    report.note("trace_bytes_per_record", median(&bpr), "B");
    Ok(report)
}

/// Every record of the container, per thread.
fn all_records(path: &Path) -> Result<Vec<Vec<MemRecord>>, String> {
    let (info, mut sources) = trace::open_sources(path).map_err(|e| e.to_string())?;
    Ok(info
        .records
        .iter()
        .zip(&mut sources)
        .map(|(&n, s)| (0..n).map(|_| s.next_record()).collect())
        .collect())
}

/// Median seconds of `REPS` calls of `f`.
fn time_reps(mut f: impl FnMut()) -> f64 {
    let mut t = Vec::new();
    for _ in 0..REPS {
        let s = Instant::now();
        f();
        t.push(s.elapsed().as_secs_f64());
    }
    median(&t)
}

/// Codec timings over the recorded streams: container framing alone
/// (an uncompressed writer), then the dictionary codec over the same
/// chunk payloads.
fn codec(path: &Path) -> Result<(f64, f64, f64), String> {
    let info = trace::load_info(path).map_err(|e| e.to_string())?;
    let streams = all_records(path)?;
    let encode = || -> Result<Vec<u8>, String> {
        let mut w =
            TraceWriter::create_with(Cursor::new(Vec::new()), &info.meta, Compression::None)
                .map_err(|e| e.to_string())?;
        for (t, recs) in streams.iter().enumerate() {
            for r in recs {
                w.push(t, *r).map_err(|e| e.to_string())?;
            }
        }
        Ok(w.finish().map_err(|e| e.to_string())?.into_inner())
    };
    let bytes = encode()?;
    let encode_s = time_reps(|| {
        std::hint::black_box(encode().ok());
    });

    // v1 chunks after the header: thread u32 | records u32 | len u32 | payload.
    let mut r = Cursor::new(bytes.as_slice());
    trace::read_info(&mut r).map_err(|e| e.to_string())?;
    let mut payloads = Vec::new();
    let mut word = [0u8; 4];
    while r.read_exact(&mut word).is_ok() {
        r.read_exact(&mut word).map_err(|e| e.to_string())?;
        r.read_exact(&mut word).map_err(|e| e.to_string())?;
        let mut p = vec![0u8; u32::from_le_bytes(word) as usize];
        r.read_exact(&mut p).map_err(|e| e.to_string())?;
        payloads.push(p);
    }
    let mut out = Vec::new();
    let compress_s = time_reps(|| {
        for p in &payloads {
            dict::compress(p, &mut out);
        }
    });
    let compressed: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| {
            let mut c = Vec::new();
            dict::compress(p, &mut c);
            c
        })
        .collect();
    let mut ok = true;
    let decompress_s = time_reps(|| {
        for (c, p) in compressed.iter().zip(&payloads) {
            ok &= dict::decompress(c, p.len(), &mut out).is_ok();
        }
    });
    if !ok {
        return Err("dictionary codec did not round-trip".into());
    }
    Ok((encode_s, compress_s, decompress_s))
}

/// The traced run.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let path: PathBuf = ctx.work.join("4T_01.pltc");
    let mut ops = Ops::new("trace_rr", ctx.seed);
    let mut spans = Spans::new();
    let mut layers = Layers::default();

    let id = spans.open("record", None, None);
    let rec = record(ctx, &path)?;
    spans.close(id);
    let (_, stats) = trace::scan_stats(&path).map_err(|e| e.to_string())?;
    let id = spans.open("validate", None, None);
    let validate_s = time_reps(|| {
        std::hint::black_box(trace::validate_path(&path).is_ok());
    });
    spans.close(id);
    let (encode_s, compress_s, decompress_s) = codec(&path)?;

    // The capture run, live, through the generator.
    let capture = Sim {
        op: "record".into(),
        engine: engine(ctx, 0, 0),
        salt: 0,
        input: Input::Live(wl()),
    };
    let capture_result =
        layers::trace_sim(&capture, None, &mut ops, &mut spans, None, &mut layers)?;
    if rec.capture_ipcs != capture_result.ipcs() {
        ops.count("record", false, "capture IPCs differ from the live run's");
    }
    for (k, scheme) in SCHEMES.iter().enumerate() {
        let sim = replay(ctx, &path, k);
        let parent = spans.open("replay", None, Some(scheme.to_string()));
        let expect = (k == 0).then_some(&capture_result);
        layers::trace_sim(
            &sim,
            expect,
            &mut ops,
            &mut spans,
            Some(parent),
            &mut layers,
        )?;
        spans.close(parent);
    }

    let mut report = Report::new(ops);
    report.layers(&layers);
    report.value("tracegen.trace.encode_busy_s", encode_s, "s");
    report.value("tracegen.trace.validate_s", validate_s, "s");
    report.value("tracegen.trace.decode_busy_s", layers.decode_s, "s");
    report.value(
        "tracegen.trace.decode_inline_s",
        layers.decode_inline_s,
        "s",
    );
    report.value("tracegen.trace.chunks", stats.chunks as f64, "count");
    report.value(
        "tracegen.trace.bytes_per_record",
        bytes_per_record(&path)?,
        "B",
    );
    report.value("tracegen.dict.compress_busy_s", compress_s, "s");
    report.value("tracegen.dict.decompress_busy_s", decompress_s, "s");
    report.value("tracegen.dict.ratio", stats.ratio(), "ratio");
    report.finish_traced(&layers, &spans, ctx, "trace_rr")?;
    Ok(report)
}
