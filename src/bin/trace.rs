//! Record, replay and inspect binary trace containers (see
//! [`tracegen::trace`] for the format).
//!
//! ```sh
//! # Capture a Table II (or ad-hoc) workload's per-thread streams:
//! cargo run --release --bin trace -- record --workload 2T_06 \
//!     --insts 200000 --out traces/2T_06.pltc
//!
//! # Replay it through the engine (bit-identical to the capture run):
//! cargo run --release --bin trace -- replay traces/2T_06.pltc
//!
//! # Dump the header:
//! cargo run --release --bin trace -- info traces/2T_06.pltc
//! ```
//!
//! Malformed or missing files are readable one-line errors with exit
//! code 1, never panics; so is a replay that runs a recorded stream dry.

use plru_repro::prelude::*;
use plru_repro::scenario::pool::panic_message;
use plru_repro::tracegen::trace::{self, Compression};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: trace <record|replay|info> ...\n\
         \n\
         trace record (--workload NAME | --benchmarks A,B,..) --out FILE\n\
         \u{20}            [--insts N] [--seed N] [--salt N] [--scheme S]\n\
         \u{20}            [--compress]\n\
         \u{20}   capture a workload to FILE: run a full simulation (scheme\n\
         \u{20}   S, default L) and record exactly the streams it consumes,\n\
         \u{20}   plus padding. Replays under S are exact at any --insts up\n\
         \u{20}   to the capture's; other schemes may run a stream dry at\n\
         \u{20}   that target, which stops the replay with one error line,\n\
         \u{20}   and need a lower --insts (or a larger capture). With\n\
         \u{20}   --compress, write a block-compressed v2 container\n\
         \u{20}   (replays identically; v1 stays the default format).\n\
         \n\
         trace replay FILE [--insts N] [--seed N] [--salt N] [--scheme S]\n\
         \u{20}            [--json PATH] [--decode-workers N]\n\
         \u{20}   validate FILE and run it through the engine. Defaults to\n\
         \u{20}   the recorded insts/seed/salt/scheme, so a bare replay\n\
         \u{20}   reproduces the capture run bit for bit; an --insts above\n\
         \u{20}   the capture's is refused. --decode-workers\n\
         \u{20}   (default 2, 0 = inline, at most 64) decodes chunks ahead\n\
         \u{20}   of the simulation; the result is identical at any count.\n\
         \n\
         trace info FILE [--json]\n\
         \u{20}   validate FILE as replay does and print the container\n\
         \u{20}   header (format version, workload metadata, per-thread\n\
         \u{20}   record counts, chunk codec and compression ratio)."
    );
    exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("trace: {msg}");
    exit(1);
}

/// Pull `--flag value` style options out of `args`; positional arguments
/// are returned in order.
struct Parsed {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

/// `bare` names the value-less switches of the subcommand (`info` uses
/// `--json` as one, `record` uses `--compress`; `replay`'s `--json PATH`
/// takes a value).
fn parse(args: &[String], bare: &[&str]) -> Parsed {
    let mut positional = Vec::new();
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--help" || a == "-h" {
            usage();
        } else if let Some(name) = a.strip_prefix("--") {
            if bare.contains(&name) {
                flags.push((name.to_string(), None));
            } else {
                let v = it
                    .next()
                    .unwrap_or_else(|| fail(format!("--{name} needs a value")));
                flags.push((name.to_string(), Some(v.clone())));
            }
        } else {
            positional.push(a.clone());
        }
    }
    Parsed { positional, flags }
}

impl Parsed {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn get_u64(&self, name: &str) -> Option<u64> {
        self.get(name).map(|v| {
            v.parse()
                .unwrap_or_else(|_| fail(format!("--{name} expects an integer, got `{v}`")))
        })
    }

    fn reject_unknown(&self, known: &[&str]) {
        for (n, _) in &self.flags {
            if !known.contains(&n.as_str()) {
                fail(format!("unknown option --{n} (see trace --help)"));
            }
        }
    }
}

/// Build the engine a subcommand's scheme/machine flags describe. The
/// scheme string goes through the registry's one canonical grammar
/// (`plru_core::Scheme`); parse failures are readable one-line errors.
fn engine_for(
    scheme_str: &str,
    cores: usize,
    insts: u64,
    seed: u64,
    salt: u64,
    decode_workers: usize,
) -> SimEngine {
    let scheme: Scheme = scheme_str.parse().unwrap_or_else(|e| fail(e));
    let mut cfg = MachineConfig::paper_baseline(cores);
    cfg.insts_target = insts;
    cfg.seed = seed;
    SimEngine::builder()
        .machine(cfg)
        .seed_salt(salt)
        .scheme(scheme)
        .decode_workers(decode_workers)
        .build()
}

fn cmd_record(args: &[String]) {
    let p = parse(args, &["compress"]);
    p.reject_unknown(&[
        "workload",
        "benchmarks",
        "out",
        "insts",
        "seed",
        "salt",
        "scheme",
        "compress",
    ]);
    if !p.positional.is_empty() {
        fail(format!("unexpected argument `{}`", p.positional[0]));
    }
    let out = p
        .get("out")
        .unwrap_or_else(|| fail("record needs --out FILE"));
    let wl = match (p.get("workload"), p.get("benchmarks")) {
        (Some(name), None) => {
            workload(name).unwrap_or_else(|| fail(format!("unknown Table II workload `{name}`")))
        }
        (None, Some(list)) => {
            let benchmarks: Vec<String> = list.split(',').map(|s| s.trim().to_string()).collect();
            Workload::adhoc(&benchmarks).unwrap_or_else(|| {
                fail(format!(
                    "benchmark mix `{list}` is empty or names an unknown benchmark"
                ))
            })
        }
        _ => fail("record needs exactly one of --workload NAME or --benchmarks A,B,.."),
    };
    let baseline = MachineConfig::paper_baseline(wl.threads());
    let insts = p.get_u64("insts").unwrap_or(baseline.insts_target);
    if insts == 0 {
        fail("--insts must be positive");
    }
    let seed = p.get_u64("seed").unwrap_or(baseline.seed);
    let salt = p.get_u64("salt").unwrap_or(0);
    let compression = if p.has("compress") {
        Compression::Dict
    } else {
        Compression::None
    };
    let engine = engine_for(
        p.get("scheme").unwrap_or("L"),
        wl.threads(),
        insts,
        seed,
        salt,
        0,
    );
    let result = engine
        .record_trace_with(&wl, out, compression)
        .unwrap_or_else(|e| fail(format!("{out}: {e}")));
    let info = trace::load_info(out).unwrap_or_else(|e| fail(format!("{out}: {e}")));
    eprintln!(
        "recorded `{}` under {} to {out}: {} records over {} threads (capture IPCs {:?})",
        wl.name,
        engine.scheme(),
        info.total_records(),
        wl.threads(),
        result.ipcs()
    );
}

fn cmd_replay(args: &[String]) {
    let p = parse(args, &[]);
    p.reject_unknown(&["insts", "seed", "salt", "scheme", "json", "decode-workers"]);
    let path = match p.positional.as_slice() {
        [one] => one,
        _ => fail("replay needs exactly one trace file"),
    };
    let info = trace::validate_path(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let meta = &info.meta;
    let insts = match p.get_u64("insts") {
        Some(0) => fail("--insts must be positive"),
        Some(n) => n,
        None => meta.insts,
    };
    let scheme = p
        .get("scheme")
        .map(str::to_string)
        .or_else(|| meta.scheme.clone())
        .unwrap_or_else(|| "L".to_string());
    let seed = p.get_u64("seed").unwrap_or(meta.seed);
    let salt = p.get_u64("salt").unwrap_or(meta.seed_salt);
    // Decode ahead of the simulation by default; 0 decodes each chunk
    // inline. Either way the result is bit-identical.
    let decode_workers = p.get_u64("decode-workers").unwrap_or(2) as usize;
    let engine = engine_for(&scheme, meta.threads(), insts, seed, salt, decode_workers);
    // A recorded stream that runs dry panics inside the library (a
    // `TraceSource` has no error channel); it is reported as one line.
    // The silent hook keeps the default one from printing it first.
    std::panic::set_hook(Box::new(|_| {}));
    let run = catch_unwind(AssertUnwindSafe(|| engine.run_trace(path)));
    drop(std::panic::take_hook());
    let result = run
        .unwrap_or_else(|panic| fail(panic_message(&*panic)))
        .unwrap_or_else(|e| fail(format!("{path}: {e}")));
    let metrics =
        WorkloadMetrics::compute(&result.ipcs(), &engine.isolation_ipcs(&meta.benchmarks));

    println!(
        "replayed `{}` under {scheme}: {insts} insts/thread, seed {seed}, salt {salt}",
        meta.workload
    );
    for (i, (b, core)) in meta.benchmarks.iter().zip(&result.cores).enumerate() {
        println!(
            "  core {i} {b:<10} ipc {:.4}  l2 {:>8} accesses, {:>8} misses",
            core.ipc, core.l2_accesses, core.l2_misses
        );
    }
    println!(
        "throughput {:.4}  w.speedup {:.4}  h.mean {:.4}  cycles {}  intervals {}",
        metrics.throughput,
        metrics.weighted_speedup,
        metrics.harmonic_mean,
        result.total_cycles,
        result.intervals
    );
    if !result.final_allocation.is_empty() {
        println!("final allocation: {:?}", result.final_allocation);
    }
    if let Some(json_path) = p.get("json") {
        let text = serde_json::to_string_pretty(&result).expect("results always serialize");
        std::fs::write(json_path, text)
            .unwrap_or_else(|e| fail(format!("writing {json_path}: {e}")));
        eprintln!("wrote {json_path}");
    }
}

fn cmd_info(args: &[String]) {
    let p = parse(args, &["json"]);
    p.reject_unknown(&["json"]);
    let path = match p.positional.as_slice() {
        [one] => one,
        _ => fail("info needs exactly one trace file"),
    };
    let (info, stats) = trace::scan_stats(path).unwrap_or_else(|e| fail(format!("{path}: {e}")));
    if p.has("json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&info).expect("info always serializes")
        );
        return;
    }
    let meta = &info.meta;
    println!("format version: {}", info.version);
    if info.version >= trace::TRACE_VERSION_V2 {
        println!(
            "codec: dict ({} of {} chunks compressed, {} -> {} payload bytes, ratio {:.2}x)",
            stats.dict_chunks,
            stats.chunks,
            stats.raw_bytes,
            stats.payload_bytes,
            stats.ratio()
        );
    } else {
        println!(
            "codec: none ({} chunks, {} payload bytes)",
            stats.chunks, stats.payload_bytes
        );
    }
    println!("workload: {} ({} threads)", meta.workload, meta.threads());
    println!("benchmarks: {}", meta.benchmarks.join(", "));
    println!(
        "captured: scheme {}, insts {}, seed {}, salt {}",
        meta.scheme.as_deref().unwrap_or("?"),
        meta.insts,
        meta.seed,
        meta.seed_salt
    );
    let counts: Vec<String> = info.records.iter().map(u64::to_string).collect();
    println!(
        "records: [{}] (total {})",
        counts.join(", "),
        info.total_records()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("record") => cmd_record(&args[1..]),
        Some("replay") => cmd_replay(&args[1..]),
        Some("info") => cmd_info(&args[1..]),
        Some("--help") | Some("-h") | None => usage(),
        Some(other) => {
            eprintln!("unknown command `{other}`");
            usage();
        }
    }
}
