//! Trace decode throughput: records per second drained out of a PLTC
//! container through the `RecordedThread` sources — the path a recorded
//! sweep actually pays for. Every id runs the one chunk reader
//! (`TraceReader`); they compare the v1 raw container against the v2
//! dict-compressed one, and v2 decoded inline against v2 on decode
//! pools, so both a codec regression and a decode-placement regression
//! show up as their own gated criterion id.
//!
//! Ids (`trace_decode/v1`, `trace_decode/v2-w0`, `trace_decode/v2-w2`,
//! `trace_decode/v2-w4`) record mean ns per full drain of a fixed
//! ~62k-record two-thread trace, including opening the sources (and
//! spawning the pool); each run prints the record total so logs can
//! convert the mean into records/sec directly. `trace_decode/validate`
//! is one `validate_path` over the v2 container: the pre-flight every
//! replay of a recorded trace runs first, which decodes every chunk on
//! one thread.
//!
//! Note the drain does no work between records, so the worker>0 ids
//! measure the pool's hand-off cost at maximum pull rate — its worst
//! case. In a real replay the simulator burns cycles per record and the
//! workers decode ahead; what matters here is that the overhead stays
//! bounded, which the gate enforces.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::path::PathBuf;
use tracegen::trace::{self, Compression, DecodeOptions};
use tracegen::{workload, TraceGenerator};

const RECORDS_PER_THREAD: u64 = 31_000;

fn write_container(path: &PathBuf, compression: Compression) -> u64 {
    let wl = workload("2T_02").unwrap(); // mcf + parser: delta-rich streams
    let meta = trace::TraceMeta {
        workload: wl.name.clone(),
        benchmarks: wl.profiles().iter().map(|p| p.name.clone()).collect(),
        seed: 42,
        seed_salt: 0,
        insts: 0,
        scheme: None,
    };
    let file = std::fs::File::create(path).unwrap();
    let mut w = trace::TraceWriter::create_with(file, &meta, compression).unwrap();
    for (t, profile) in wl.profiles().iter().enumerate() {
        let mut g = TraceGenerator::new(profile.clone(), 42 + t as u64);
        for _ in 0..RECORDS_PER_THREAD {
            w.push(t, g.next_record()).unwrap();
        }
    }
    w.finish().unwrap();
    RECORDS_PER_THREAD * wl.profiles().len() as u64
}

fn drain(path: &PathBuf, decode: &DecodeOptions, total: u64) {
    let (_info, mut sources) = trace::open_sources_with(path, decode).unwrap();
    let mut drained = 0u64;
    for src in &mut sources {
        let per_thread = RECORDS_PER_THREAD;
        for _ in 0..per_thread {
            black_box(src.next_record());
            drained += 1;
        }
    }
    assert_eq!(drained, total);
}

fn bench_trace_decode(c: &mut Criterion) {
    let dir = std::env::temp_dir();
    let v1 = dir.join("plru_bench_decode_v1.pltc");
    let v2 = dir.join("plru_bench_decode_v2.pltc");
    let total = write_container(&v1, Compression::None);
    write_container(&v2, Compression::Dict);

    let mut group = c.benchmark_group("trace_decode");
    group.sample_size(10);
    eprintln!("trace_decode: {total} records per drain");

    group.bench_function("v1", |b| {
        b.iter(|| drain(&v1, &DecodeOptions::workers(0), total))
    });
    for workers in [0usize, 2, 4] {
        group.bench_function(format!("v2-w{workers}"), |b| {
            b.iter(|| drain(&v2, &DecodeOptions::workers(workers), total))
        });
    }
    group.bench_function("validate", |b| {
        b.iter(|| black_box(trace::validate_path(&v2).unwrap()))
    });
    group.finish();

    let _ = std::fs::remove_file(&v1);
    let _ = std::fs::remove_file(&v2);
}

criterion_group!(benches, bench_trace_decode);
criterion_main!(benches);
