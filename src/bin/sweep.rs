//! Run a declarative scenario spec: expand its axes, execute every case
//! on the shared-queue worker pool, and print the aligned result table.
//!
//! ```sh
//! cargo run --release --bin sweep -- scenarios/smoke_2t.json
//! cargo run --release --bin sweep -- scenarios/fig8_quick.json --threads 8 --json out.json
//! cargo run --release --bin sweep -- scenarios/miss_curves.json
//! cargo run --release --bin sweep -- --list-schemes
//! ```
//!
//! With `--remote SOCKET` the same spec runs as a job on a resident
//! `sweepd` daemon instead of in-process — output is byte-identical to
//! the local run, but the daemon's warm isolation memo skips solo runs
//! it has already paid for. The remote mode also manages the daemon:
//!
//! ```sh
//! cargo run --release --bin sweep -- --remote /tmp/sweepd.sock scenarios/smoke_2t.json
//! cargo run --release --bin sweep -- --remote /tmp/sweepd.sock --status
//! cargo run --release --bin sweep -- --remote /tmp/sweepd.sock --results 1 --wait
//! cargo run --release --bin sweep -- --remote /tmp/sweepd.sock --cancel 2
//! cargo run --release --bin sweep -- --remote /tmp/sweepd.sock --shutdown
//! ```
//!
//! Specs with `"kind": "miss_curves"` run the profiler comparison instead
//! of a simulation sweep (local only); everything else is a
//! [`ScenarioSpec`]. `--list-schemes` dumps the scheme registry: every
//! replacement policy with its capability flags, and the baseline scheme
//! set the `"schemes": "all"` shorthand expands to.

use plru_core::scheme;
use plru_repro::prelude::*;
use plru_repro::service;
use serde::Deserialize;
use std::path::{Path, PathBuf};
use std::process::exit;

/// Peeks at the optional `kind` discriminator without committing to a
/// spec shape (unknown JSON fields are ignored by both spec parsers).
#[derive(Debug, Deserialize)]
struct KindProbe {
    kind: Option<String>,
}

/// What to do against a `--remote` daemon instead of running locally.
enum RemoteAction {
    /// Submit the spec path as a watched job.
    Submit,
    /// Print daemon + job status.
    Status,
    /// Fetch a job's finished report (optionally blocking).
    Results(u64),
    /// Cancel a running job.
    Cancel(u64),
    /// Stop the daemon.
    Shutdown,
}

struct Args {
    spec_path: Option<String>,
    threads: Option<usize>,
    json: Option<String>,
    remote: Option<PathBuf>,
    action: RemoteAction,
    wait: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sweep <spec.json> [--threads N] [--json PATH]\n\
         \u{20}      sweep --remote SOCKET <spec.json> [--json PATH]\n\
         \u{20}      sweep --remote SOCKET --status | --results JOB [--wait] |\n\
         \u{20}                            --cancel JOB | --shutdown\n\
         \u{20}      sweep --list-schemes\n\
         \n\
         <spec.json>     scenario spec (see scenarios/ and docs/SCENARIOS.md\n\
         \u{20}               for the schema, including recorded workloads)\n\
         --threads N     worker count (default: all hardware threads)\n\
         --json PATH     also write the full report as pretty JSON\n\
         --remote SOCKET run the spec as a job on the sweepd daemon at\n\
         \u{20}               SOCKET (byte-identical output, warm memo) —\n\
         \u{20}               see docs/SWEEP_SERVICE.md\n\
         --status        [remote] print daemon and job status\n\
         --results JOB   [remote] print a finished job's report\n\
         --wait          [remote] block until the job finishes first\n\
         --cancel JOB    [remote] cancel a running job\n\
         --shutdown      [remote] stop the daemon\n\
         --list-schemes  print the scheme registry (policies, capability\n\
         \u{20}               flags, and the `\"schemes\": \"all\"` baseline set)"
    );
    exit(2);
}

/// Dump the scheme registry: the policy table with capability flags, then
/// the baseline scheme enumeration `"schemes": "all"` expands to.
fn list_schemes() {
    println!("registered replacement policies:");
    let (acr, policy, part) = ("acr", "policy", "partitioning");
    println!("  {acr:<3} {policy:<22} {part:<13} summary");
    for e in scheme::registry() {
        let styles = match (e.partitionable, e.scaled) {
            (false, _) => "bare only",
            (true, false) => "C, M",
            (true, true) => "C, M (scaled)",
        };
        println!(
            "  {:<3} {:<22} {:<13} {}",
            e.acronym, e.name, styles, e.summary
        );
    }
    println!();
    println!("baseline schemes (`\"schemes\": \"all\"` expands to these, in order):");
    let all = Scheme::all_baseline();
    let acronyms: Vec<String> = all.iter().map(ToString::to_string).collect();
    println!("  {}", acronyms.join(", "));
    println!();
    println!(
        "profiler fidelities (spec axis `\"profilers\"`; CPA schemes only):\n\
         \u{20} exact, sketch8, sketch12, sketch16 \u{2014} the paper's full-tag \
         ATD or the\n\u{20} cuckoo-filter sketch at that fingerprint width \
         (docs/SAMPLED_ATD.md)"
    );
}

fn parse_args() -> Args {
    let mut spec_path = None;
    let mut threads = None;
    let mut json = None;
    let mut list = false;
    let mut remote: Option<PathBuf> = None;
    let mut action: Option<RemoteAction> = None;
    let mut wait = false;
    let mut set_action = |a: RemoteAction| {
        if action.replace(a).is_some() {
            eprintln!("--status/--results/--cancel/--shutdown are mutually exclusive");
            usage();
        }
    };
    let job_arg = |it: &mut dyn Iterator<Item = String>| -> u64 {
        it.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--list-schemes" => list = true,
            "--threads" => {
                threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--json" => json = Some(it.next().unwrap_or_else(|| usage())),
            "--remote" => remote = Some(it.next().unwrap_or_else(|| usage()).into()),
            "--status" => set_action(RemoteAction::Status),
            "--results" => {
                let job = job_arg(&mut it);
                set_action(RemoteAction::Results(job));
            }
            "--cancel" => {
                let job = job_arg(&mut it);
                set_action(RemoteAction::Cancel(job));
            }
            "--shutdown" => set_action(RemoteAction::Shutdown),
            "--wait" => wait = true,
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown option {other}");
                usage();
            }
            path => {
                if spec_path.replace(path.to_string()).is_some() {
                    eprintln!("more than one spec path given");
                    usage();
                }
            }
        }
    }
    if list {
        // Refuse to silently discard other work: a caller passing a spec
        // alongside --list-schemes almost certainly expected a sweep.
        if spec_path.is_some() || threads.is_some() || json.is_some() || remote.is_some() {
            eprintln!("--list-schemes takes no spec or other options");
            usage();
        }
        list_schemes();
        exit(0);
    }
    let action = action.unwrap_or(RemoteAction::Submit);
    if !matches!(action, RemoteAction::Submit) {
        if remote.is_none() {
            eprintln!("--status/--results/--cancel/--shutdown need --remote SOCKET");
            usage();
        }
        if spec_path.is_some() || threads.is_some() {
            eprintln!("daemon management commands take no spec or --threads");
            usage();
        }
    }
    if wait && !matches!(action, RemoteAction::Results(_)) {
        eprintln!("--wait only applies to --results");
        usage();
    }
    if remote.is_some() && threads.is_some() {
        eprintln!("--threads is local-only; the daemon owns its pool size");
        usage();
    }
    if matches!(action, RemoteAction::Submit) && spec_path.is_none() {
        usage();
    }
    Args {
        spec_path,
        threads,
        json,
        remote,
        action,
        wait,
    }
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("sweep: {msg}");
    exit(1);
}

fn write_json(path: &str, contents: &str) {
    std::fs::write(path, contents).unwrap_or_else(|e| fail(format!("writing {path}: {e}")));
    eprintln!("wrote {path}");
}

/// Render one job's daemon-side status line.
fn print_status(status: &service::DaemonStatus) {
    println!(
        "workers: {}  memo: {} entries, {} hits, {} misses",
        status.workers, status.memo.entries, status.memo.hits, status.memo.misses
    );
    let streams = &status.streams;
    println!(
        "streams: {} live, {} pinned, {} B resident (peak {} B), {} steps generated, {} served",
        streams.live,
        streams.pinned,
        streams.resident_bytes,
        streams.peak_bytes,
        streams.generated,
        streams.served
    );
    if status.jobs.is_empty() {
        println!("no jobs");
        return;
    }
    println!(
        "{:<5} {:<20} {:<10} {:>9} {:>10} {:>12}",
        "job", "name", "state", "cases", "memo hits", "memo misses"
    );
    for j in &status.jobs {
        println!(
            "{:<5} {:<20} {:<10} {:>9} {:>10} {:>12}",
            j.job,
            j.name,
            j.state,
            format!("{}/{}", j.completed, j.total),
            j.memo_hits,
            j.memo_misses
        );
    }
}

/// Print a finished report exactly as a local sweep would (same stdout
/// bytes) and honour `--json`.
fn print_report(report: &SweepReport, json: Option<&str>) {
    print!("{}", report.render_table());
    if let Some(path) = json {
        write_json(path, &report.to_json_pretty());
    }
}

fn run_remote(socket: &Path, args: &Args) {
    match &args.action {
        RemoteAction::Status => {
            match service::request(socket, &service::Request::Status { job: None }) {
                Ok(service::Response::Status(status)) => print_status(&status),
                Ok(other) => fail(format!("unexpected response {other:?}")),
                Err(e) => fail(e),
            }
        }
        RemoteAction::Results(job) => {
            let req = service::Request::Results {
                job: *job,
                wait: args.wait,
            };
            match service::request(socket, &req) {
                Ok(service::Response::Done { report, .. }) => {
                    print_report(&report, args.json.as_deref())
                }
                Ok(other) => fail(format!("unexpected response {other:?}")),
                Err(e) => fail(e),
            }
        }
        RemoteAction::Cancel(job) => {
            match service::request(socket, &service::Request::Cancel { job: *job }) {
                Ok(service::Response::Ok) => eprintln!("job {job} cancelled"),
                Ok(other) => fail(format!("unexpected response {other:?}")),
                Err(e) => fail(e),
            }
        }
        RemoteAction::Shutdown => match service::request(socket, &service::Request::Shutdown) {
            Ok(service::Response::Ok) => eprintln!("sweepd shutting down"),
            Ok(other) => fail(format!("unexpected response {other:?}")),
            Err(e) => fail(e),
        },
        RemoteAction::Submit => {
            let spec_path = args.spec_path.as_deref().expect("submit requires a spec");
            let text = std::fs::read_to_string(spec_path)
                .unwrap_or_else(|e| fail(format!("reading {spec_path}: {e}")));
            let probe: KindProbe = serde_json::from_str(&text)
                .unwrap_or_else(|e| fail(format!("parsing {spec_path}: {e}")));
            if probe.kind.is_some() {
                fail("only simulation sweeps run remotely (miss_curves is local-only)");
            }
            let spec = ScenarioSpec::from_json(&text)
                .unwrap_or_else(|e| fail(format!("parsing {spec_path}: {e}")));
            eprintln!("sweep `{}`: submitting to {}", spec.name, socket.display());
            let run = service::submit_and_watch(socket, &spec, |completed, total| {
                eprintln!("  case {completed}/{total} done");
            })
            .unwrap_or_else(|e| fail(e));
            eprintln!("job {} finished", run.job);
            print_report(&run.report, args.json.as_deref());
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(socket) = args.remote.clone() {
        run_remote(&socket, &args);
        return;
    }
    let spec_path = args
        .spec_path
        .as_deref()
        .expect("local mode requires a spec");
    let text = std::fs::read_to_string(spec_path)
        .unwrap_or_else(|e| fail(format!("reading {spec_path}: {e}")));
    let probe: KindProbe =
        serde_json::from_str(&text).unwrap_or_else(|e| fail(format!("parsing {spec_path}: {e}")));

    match probe.kind.as_deref() {
        Some("miss_curves") => {
            let spec = MissCurveSpec::from_json(&text)
                .unwrap_or_else(|e| fail(format!("parsing {spec_path}: {e}")));
            let report = run_miss_curves(&spec).unwrap_or_else(|e| fail(e));
            println!("benchmark: {}", report.benchmark);
            println!("L2 accesses observed: {}\n", report.l2_accesses);
            print!("{}", report.render_table());
            println!("\n(predicted misses when the thread is given w ways; row 0 = no cache)");
            if let Some(path) = &args.json {
                write_json(path, &report.to_json_pretty());
            }
        }
        Some(other) => fail(format!("unknown spec kind `{other}`")),
        None => {
            let spec = ScenarioSpec::from_json(&text)
                .unwrap_or_else(|e| fail(format!("parsing {spec_path}: {e}")));
            let runner = match args.threads {
                Some(n) => SweepRunner::with_threads(n),
                None => SweepRunner::new(),
            };
            let cases = spec.expand().unwrap_or_else(|e| fail(e));
            eprintln!(
                "sweep `{}`: {} cases on {} worker(s)",
                spec.name,
                cases.len(),
                runner.threads().min(cases.len().max(1)),
            );
            let report = SweepReport {
                spec,
                cases: runner.run_cases(&cases),
            };
            print!("{}", report.render_table());
            if let Some(path) = &args.json {
                write_json(path, &report.to_json_pretty());
            }
        }
    }
}
