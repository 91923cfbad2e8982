//! End-to-end tests of the resident sweep service: remote/local output
//! equality, warm-memo accounting, journal resume, cancellation, a
//! many-job stress run, and protocol robustness (malformed frames must
//! come back as one-line errors, never a panic).

use plru_repro::prelude::*;
use plru_repro::service::{
    self, read_msg, write_msg, ErrorCode, Journal, JournalState, ProtocolError, Request, Response,
    ServerConfig, SweepServer,
};
use proptest::prelude::*;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fresh scratch dir per call — sockets and journals never collide
/// across tests or parallel runs.
fn scratch(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "plru-svc-{}-{}-{tag}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny_spec(name: &str, insts: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        insts: Some(insts),
        workloads: vec![
            WorkloadSel::Named("2T_06".into()),
            WorkloadSel::Profiles(vec!["gzip".into(), "eon".into()]),
        ],
        schemes: vec!["L".into(), "M-0.75N".into()].into(),
        ..Default::default()
    }
}

fn start_server(dir: &Path, threads: usize) -> SweepServer {
    let mut config = ServerConfig::new(dir.join("sweepd.sock"));
    config.threads = threads;
    config.journal_dir = Some(dir.join("journals"));
    SweepServer::start(config).expect("server starts")
}

fn submit(server: &SweepServer, spec: &ScenarioSpec) -> service::WatchedRun {
    service::submit_and_watch(server.socket(), spec, |_, _| {}).expect("watched job finishes")
}

#[test]
fn remote_run_is_byte_identical_to_local() {
    let dir = scratch("remote-eq");
    let spec = tiny_spec("remote-eq", 15_000);
    let local = SweepRunner::with_threads(2).run(&spec).unwrap();

    let server = start_server(&dir, 2);
    let mut progress = Vec::new();
    let run = service::submit_and_watch(server.socket(), &spec, |done, total| {
        progress.push((done, total))
    })
    .unwrap();
    server.stop();

    assert_eq!(run.report.to_json_pretty(), local.to_json_pretty());
    assert_eq!(run.report.render_table(), local.render_table());
    let total = local.cases.len();
    assert_eq!(progress.len(), total, "one progress frame per case");
    assert_eq!(progress.last(), Some(&(total, total)));
}

#[test]
fn warm_daemon_skips_all_memoized_solo_runs() {
    let dir = scratch("warm");
    let spec = tiny_spec("warm", 15_000);
    let server = start_server(&dir, 2);
    let first = submit(&server, &spec);
    let second = submit(&server, &spec);
    assert_eq!(
        second.report.to_json_pretty(),
        first.report.to_json_pretty(),
        "memoized solo IPCs must be bit-identical to fresh ones"
    );

    let status = match service::request(server.socket(), &Request::Status { job: None }).unwrap() {
        Response::Status(s) => s,
        other => panic!("expected status, got {other:?}"),
    };
    server.stop();
    assert_eq!(status.jobs.len(), 2);
    let (j1, j2) = (&status.jobs[0], &status.jobs[1]);
    assert_eq!((j1.state.as_str(), j2.state.as_str()), ("done", "done"));
    assert!(j1.memo_misses > 0, "cold job pays the solo runs");
    assert_eq!(
        j2.memo_misses, 0,
        "identical job on a warm daemon must skip every solo run"
    );
    assert!(j2.memo_hits > 0);
    assert_eq!(status.memo.misses, j1.memo_misses);
}

#[test]
fn resumed_journal_yields_a_byte_identical_report() {
    let dir = scratch("resume");
    let spec = tiny_spec("resume", 15_000);
    let reference = SweepRunner::with_threads(2).run(&spec).unwrap();

    // First daemon runs the job to completion, journaling every case.
    let server = start_server(&dir, 2);
    let run = submit(&server, &spec);
    server.stop();
    assert_eq!(run.job, 1);
    let journal_path = dir.join("journals").join("resume-job1.journal");
    assert!(journal_path.exists(), "jobs journal by default");

    // Simulate dying mid-flight: keep the header and the first two case
    // checkpoints, chopping the second one mid-line for good measure.
    let text = std::fs::read_to_string(&journal_path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let damaged = format!("{}\n{}\n{}", lines[0], lines[1], &lines[2][..30]);
    std::fs::write(&journal_path, damaged).unwrap();
    let state = JournalState::load(&journal_path).unwrap();
    assert_eq!(state.completed.len(), 1, "one full checkpoint survives");

    // A fresh daemon resumes it: only the missing cases rerun, and the
    // reassembled report matches the uninterrupted run byte for byte.
    let mut config = ServerConfig::new(dir.join("sweepd2.sock"));
    config.threads = 2;
    config.journal_dir = Some(dir.join("journals"));
    config.resume = vec![journal_path.clone()];
    let server = SweepServer::start(config).unwrap();
    let resumed = match service::request(server.socket(), &Request::Results { job: 1, wait: true })
        .unwrap()
    {
        Response::Done { report, .. } => *report,
        other => panic!("expected done, got {other:?}"),
    };
    server.stop();
    assert_eq!(resumed.to_json_pretty(), reference.to_json_pretty());

    // The journal healed: it now parses complete again.
    let state = JournalState::load(&journal_path).unwrap();
    assert!(state.missing().is_empty());
    assert_eq!(
        state.into_report().unwrap().to_json_pretty(),
        reference.to_json_pretty()
    );
}

#[test]
fn unresumable_journals_fail_startup_loudly() {
    let dir = scratch("badresume");
    let mut config = ServerConfig::new(dir.join("s.sock"));
    config.resume = vec![dir.join("nonexistent.journal")];
    assert!(SweepServer::start(config).is_err());

    // A journal whose spec no longer expands to the recorded case count.
    let spec = tiny_spec("drift", 15_000);
    let path = dir.join("drift.journal");
    Journal::create(&path, &spec, 99).unwrap();
    let mut config = ServerConfig::new(dir.join("s.sock"));
    config.resume = vec![path];
    let err = SweepServer::start(config).err().expect("mismatch detected");
    assert!(err.to_string().contains("99"), "{err}");
}

#[test]
fn cancel_stops_a_running_job() {
    let dir = scratch("cancel");
    // One worker and deliberately heavy cases: cancellation always lands
    // while most of the queue is still waiting.
    let mut spec = tiny_spec("cancel", 400_000);
    spec.seed_salts = Some(vec![0, 1, 2, 3]);
    let server = start_server(&dir, 1);
    let submitted = service::request(
        server.socket(),
        &Request::Submit {
            spec: Box::new(spec.clone()),
            watch: false,
        },
    )
    .unwrap();
    let job = match submitted {
        Response::Submitted { job, cases } => {
            assert_eq!(cases, 16);
            job
        }
        other => panic!("expected submitted, got {other:?}"),
    };
    match service::request(server.socket(), &Request::Cancel { job }).unwrap() {
        Response::Ok => {}
        other => panic!("expected ok, got {other:?}"),
    }
    let err = service::request(server.socket(), &Request::Results { job, wait: true })
        .expect_err("cancelled jobs have no results");
    match err {
        service::ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::JobCancelled);
            assert!(message.contains("cancelled"), "{message}");
        }
        other => panic!("expected server error, got {other:?}"),
    }
    let status =
        match service::request(server.socket(), &Request::Status { job: Some(job) }).unwrap() {
            Response::Status(s) => s,
            other => panic!("expected status, got {other:?}"),
        };
    server.stop();
    assert_eq!(status.jobs.len(), 1);
    assert_eq!(status.jobs[0].state, "cancelled");
    assert!(status.jobs[0].completed < 16);
}

#[test]
fn unknown_jobs_and_running_jobs_answer_with_their_codes() {
    let dir = scratch("codes");
    let server = start_server(&dir, 1);
    let err = service::request(
        server.socket(),
        &Request::Results {
            job: 42,
            wait: false,
        },
    )
    .expect_err("no job 42");
    assert!(matches!(
        err,
        service::ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        }
    ));
    let err =
        service::request(server.socket(), &Request::Status { job: Some(7) }).expect_err("no job 7");
    assert!(matches!(
        err,
        service::ClientError::Server {
            code: ErrorCode::UnknownJob,
            ..
        }
    ));

    // A slow job answers `results` without `wait` with job-running.
    let mut spec = tiny_spec("slow", 400_000);
    spec.seed_salts = Some(vec![0, 1]);
    let submit = Request::Submit {
        spec: Box::new(spec),
        watch: false,
    };
    let job = match service::request(server.socket(), &submit).unwrap() {
        Response::Submitted { job, .. } => job,
        other => panic!("expected submitted, got {other:?}"),
    };
    let err = service::request(server.socket(), &Request::Results { job, wait: false })
        .expect_err("still running");
    match err {
        service::ClientError::Server { code, message } => {
            assert_eq!(code, ErrorCode::JobRunning);
            assert!(message.contains("running"), "{message}");
        }
        other => panic!("expected server error, got {other:?}"),
    }
    service::request(server.socket(), &Request::Cancel { job }).unwrap();
    server.stop();
}

#[test]
fn bad_specs_are_rejected_at_submit() {
    let dir = scratch("badspec");
    let server = start_server(&dir, 1);
    let mut bad_scheme = tiny_spec("bad", 15_000);
    bad_scheme.schemes = vec!["Q-nonsense".into()].into();
    // No IPC can be measured over zero instructions.
    let zero_insts = tiny_spec("bad", 0);
    let errors: Vec<_> = [bad_scheme, zero_insts]
        .into_iter()
        .map(|spec| {
            let submit = Request::Submit {
                spec: Box::new(spec),
                watch: false,
            };
            service::request(server.socket(), &submit).expect_err("bad spec")
        })
        .collect();
    server.stop();
    for err in errors {
        assert!(
            matches!(
                err,
                service::ClientError::Server {
                    code: ErrorCode::BadSpec,
                    ..
                }
            ),
            "{err:?}"
        );
    }
}

#[test]
fn many_concurrent_jobs_do_not_contaminate_each_other() {
    let dir = scratch("stress");
    // Three distinct specs with distinct workloads, schemes and insts —
    // any cross-job leakage of cases, slots or memo entries shows up as
    // a wrong report for some job.
    let specs: Vec<ScenarioSpec> = vec![
        tiny_spec("stress-a", 12_000),
        ScenarioSpec {
            name: "stress-b".into(),
            insts: Some(14_000),
            workloads: vec![WorkloadSel::Named("2T_02".into())],
            schemes: vec!["F".into(), "N".into()].into(),
            ..Default::default()
        },
        ScenarioSpec {
            name: "stress-c".into(),
            insts: Some(10_000),
            workloads: vec![WorkloadSel::Profiles(vec!["twolf".into(), "gzip".into()])],
            schemes: vec!["M-BT".into()].into(),
            seed_salts: Some(vec![0, 5]),
            ..Default::default()
        },
    ];
    let references: Vec<String> = specs
        .iter()
        .map(|s| {
            SweepRunner::with_threads(2)
                .run(s)
                .unwrap()
                .to_json_pretty()
        })
        .collect();

    let server = start_server(&dir, 4);
    let socket = server.socket().to_path_buf();
    const JOBS: usize = 24;
    let outcomes: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..JOBS)
            .map(|i| {
                let spec = specs[i % specs.len()].clone();
                let socket = socket.clone();
                scope.spawn(move || {
                    let run =
                        service::submit_and_watch(&socket, &spec, |_, _| {}).expect("job finishes");
                    (i, run.report.to_json_pretty())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    server.stop();
    assert_eq!(outcomes.len(), JOBS);
    for (i, json) in outcomes {
        assert_eq!(
            json,
            references[i % references.len()],
            "job {i} was contaminated by a concurrent job"
        );
    }
}

// ---------------------------------------------------------------------
// Protocol robustness: raw sockets speaking garbage.
// ---------------------------------------------------------------------

/// Write raw bytes and read back one `Response`, if any.
fn raw_exchange(socket: &Path, bytes: &[u8]) -> Option<Response> {
    let mut stream = UnixStream::connect(socket).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    read_msg::<Response>(&mut stream).ok().flatten()
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_be_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

#[test]
fn malformed_frames_get_one_line_errors_never_a_hangup_without_reason() {
    let dir = scratch("garbage");
    let server = start_server(&dir, 1);
    let socket = server.socket().to_path_buf();

    // Unparseable JSON: bad-frame.
    match raw_exchange(&socket, &frame(b"this is not json")) {
        Some(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(!message.contains('\n'), "one-line error: {message}");
        }
        other => panic!("expected bad-frame error, got {other:?}"),
    }

    // Well-formed JSON that is not a request: bad-request, naming the kind.
    match raw_exchange(&socket, &frame(br#"{"kind":"frobnicate"}"#)) {
        Some(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadRequest);
            assert!(message.contains("frobnicate"), "{message}");
            assert!(!message.contains('\n'), "one-line error: {message}");
        }
        other => panic!("expected bad-request error, got {other:?}"),
    }

    // Missing required field: bad-request.
    match raw_exchange(&socket, &frame(br#"{"kind":"cancel"}"#)) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadRequest),
        other => panic!("expected bad-request error, got {other:?}"),
    }

    // Oversized length word: bad-frame, rejected before any allocation.
    let huge = (u32::MAX).to_be_bytes().to_vec();
    match raw_exchange(&socket, &huge) {
        Some(Response::Error { code, message }) => {
            assert_eq!(code, ErrorCode::BadFrame);
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected bad-frame error, got {other:?}"),
    }

    // Non-UTF-8 payload: bad-frame.
    match raw_exchange(&socket, &frame(&[0xFF, 0xFE, 0x80])) {
        Some(Response::Error { code, .. }) => assert_eq!(code, ErrorCode::BadFrame),
        other => panic!("expected bad-frame error, got {other:?}"),
    }

    // Truncated frames (peer hangs up mid-frame): still a one-line
    // bad-frame answer — and, crucially, the server does not die.
    for wire in [&[0u8, 0][..], &frame(br#"{"kind":"status"}"#)[..8]] {
        match raw_exchange(&socket, wire) {
            Some(Response::Error { code, message }) => {
                assert_eq!(code, ErrorCode::BadFrame);
                assert!(message.contains("mid-frame"), "{message}");
            }
            other => panic!("expected bad-frame error, got {other:?}"),
        }
    }

    // The daemon survived all of it and still answers status.
    match service::request(&socket, &Request::Status { job: None }).unwrap() {
        Response::Status(s) => assert_eq!(s.jobs.len(), 0),
        other => panic!("expected status, got {other:?}"),
    }
    server.stop();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes through the frame reader: errors, never panics.
    #[test]
    fn read_msg_never_panics_on_arbitrary_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        let _ = read_msg::<Request>(&mut bytes.as_slice());
    }

    /// Any declared length with a short body is truncation or oversize,
    /// never a panic or a bogus success.
    #[test]
    fn short_bodies_are_truncation_errors(len in 1u32..200_000_000, body_len in 0usize..16) {
        let mut wire = len.to_be_bytes().to_vec();
        wire.extend(std::iter::repeat_n(b'x', body_len.min(len as usize)));
        if (len as usize) > body_len {
            let err = read_msg::<Request>(&mut wire.as_slice());
            prop_assert!(matches!(
                err,
                Err(ProtocolError::Truncated) | Err(ProtocolError::Oversized(_))
            ));
        }
    }

    /// Every request round-trips through a frame byte-exactly.
    #[test]
    fn request_frames_round_trip(job in 0u64..1000, watch in any::<bool>()) {
        let reqs = vec![
            Request::Status { job: Some(job) },
            Request::Results { job, wait: watch },
            Request::Cancel { job },
        ];
        for req in reqs {
            let mut wire = Vec::new();
            write_msg(&mut wire, &req).unwrap();
            let back: Request = read_msg(&mut wire.as_slice()).unwrap().unwrap();
            prop_assert_eq!(back, req);
        }
    }
}
