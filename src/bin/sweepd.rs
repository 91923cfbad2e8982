//! `sweepd` — the resident sweep daemon.
//!
//! Accepts scenario jobs over a Unix-domain socket, runs them on one
//! persistent worker pool (so the isolation-IPC memo stays warm across
//! jobs), checkpoints every job to a resumable journal, and streams
//! per-case progress to watching clients. Protocol, lifecycle and the
//! operations runbook: `docs/SWEEP_SERVICE.md`.
//!
//! ```sh
//! cargo run --release --bin sweepd -- --socket /tmp/sweepd.sock
//! cargo run --release --bin sweep  -- --remote /tmp/sweepd.sock scenarios/smoke_2t.json
//! cargo run --release --bin sweepd -- --socket /tmp/sweepd.sock \
//!     --resume sweepd-journals/smoke-2t-job1.journal
//! ```

use plru_repro::scenario::pool::MAX_POOL_WORKERS;
use plru_repro::service::{ServerConfig, SweepServer};
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: sweepd --socket PATH [options]\n\
         \n\
         --socket PATH       Unix-domain socket to listen on (required)\n\
         --threads N         resident worker threads, at most {MAX_POOL_WORKERS}\n\
         \u{20}                   (default: all hardware threads, up to the cap)\n\
         --journal-dir DIR   job journal directory (default: sweepd-journals)\n\
         --no-journal        disable job checkpointing entirely\n\
         --resume JOURNAL    resume an interrupted job from its journal;\n\
         \u{20}                   repeatable, runs only the missing cases\n\
         \n\
         submit jobs and read results with `sweep --remote PATH ...`;\n\
         wire protocol and runbook: docs/SWEEP_SERVICE.md"
    );
    exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("sweepd: {msg}");
    exit(1);
}

fn main() {
    let mut socket: Option<PathBuf> = None;
    let mut threads: Option<usize> = None;
    let mut journal_dir: Option<PathBuf> = None;
    let mut no_journal = false;
    let mut resume: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--journal-dir" => journal_dir = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--no-journal" => no_journal = true,
            "--resume" => resume.push(it.next().unwrap_or_else(|| usage()).into()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other}");
                usage();
            }
        }
    }
    if no_journal && journal_dir.is_some() {
        eprintln!("--no-journal and --journal-dir are mutually exclusive");
        usage();
    }
    let mut config = ServerConfig::new(socket.unwrap_or_else(|| usage()));
    if let Some(n) = threads {
        config.threads = n.max(1);
    }
    if no_journal {
        config.journal_dir = None;
    } else if let Some(dir) = journal_dir {
        config.journal_dir = Some(dir);
    }
    config.resume = resume;

    let resumed = config.resume.len();
    let server = SweepServer::start(config).unwrap_or_else(|e| fail(e));
    eprintln!(
        "sweepd: listening on {}{}",
        server.socket().display(),
        if resumed > 0 {
            format!(" ({resumed} journal(s) resuming)")
        } else {
            String::new()
        }
    );
    server.join();
    eprintln!("sweepd: shut down");
}
