//! The `sweepd` server loop: jobs over a Unix-domain socket, executed on
//! one resident [`WorkerPool`].
//!
//! Layering: the server *orchestrates* — it expands specs into cases,
//! shards them onto the pool's shared queue, reassembles outcomes in
//! spec order, checkpoints them to a [`Journal`] and answers protocol
//! requests. Everything simulation-shaped stays below it in
//! `scenario::pool`; nothing in `src/scenario/` knows the service
//! exists.
//!
//! One connection handles one request (see [`super::protocol`]). Job
//! execution is asynchronous: `submit` returns the job id immediately
//! (or streams progress when watched), and each job has a collector
//! thread that owns the journal and the spec-order result slots. The
//! pool — and with it the [`IsolationCache`] memo — outlives every
//! job, which is the daemon's whole reason to
//! exist: a resubmitted spec reuses every solo-run IPC the first run
//! paid for (`memo_misses == 0` in its [`JobSummary`]).

use crate::scenario::pool::{CaseTask, WorkerPool};
use crate::scenario::{CaseOutcome, CaseReport, ScenarioSpec, SweepReport};
use crate::service::journal::{Journal, JournalError, JournalState};
use crate::service::protocol::{
    read_msg, write_msg, DaemonStatus, ErrorCode, JobSummary, ProtocolError, Request, Response,
};
use cmpsim::{IsolationCache, MemoStats};
use serde::{Deserialize, Value};
use std::collections::BTreeMap;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// How a `sweepd` instance is wired up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Unix-domain socket path to listen on. A stale socket file left by
    /// a dead daemon is removed; a *live* daemon on the path is an error.
    pub socket: PathBuf,
    /// Resident worker threads.
    pub threads: usize,
    /// Pin worker `i` to core `i mod cores` (best-effort, Linux only).
    pub pin_cores: bool,
    /// Where job journals are written (`<dir>/<name>-job<id>.journal`);
    /// `None` disables checkpointing.
    pub journal_dir: Option<PathBuf>,
    /// Journals to resume at startup: each becomes a job that re-runs
    /// only its missing cases and appends to the same file.
    pub resume: Vec<PathBuf>,
}

impl ServerConfig {
    /// A config with the given socket, hardware-sized pool, journaling
    /// into `sweepd-journals/`, no pinning, nothing to resume.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        ServerConfig {
            socket: socket.into(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            pin_cores: false,
            journal_dir: Some(PathBuf::from("sweepd-journals")),
            resume: Vec::new(),
        }
    }
}

/// Terminal and non-terminal job states.
#[derive(Debug, Clone, PartialEq, Eq)]
enum JobPhase {
    Running,
    Done,
    Cancelled,
    Failed(String),
}

impl JobPhase {
    fn as_str(&self) -> &'static str {
        match self {
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed(_) => "failed",
        }
    }
}

struct JobInner {
    phase: JobPhase,
    /// Spec-order result slots; `completed` of them are filled.
    slots: Vec<Option<CaseReport>>,
    completed: usize,
    /// Streams subscribed by watching submitters.
    watchers: Vec<Sender<Response>>,
    /// Built once at completion, shared with every requester.
    report: Option<Arc<SweepReport>>,
    /// Memo deltas attributed to this job (see [`JobSummary`] caveats).
    memo_hits: u64,
    memo_misses: u64,
}

struct JobShared {
    id: u64,
    name: String,
    total: usize,
    cancelled: Arc<AtomicBool>,
    memo_start: MemoStats,
    inner: Mutex<JobInner>,
    /// Signalled on every state change; `results --wait` blocks here.
    changed: Condvar,
}

struct ServerShared {
    pool: WorkerPool,
    jobs: Mutex<BTreeMap<u64, Arc<JobShared>>>,
    next_job: AtomicU64,
    collectors: Mutex<Vec<JoinHandle<()>>>,
    journal_dir: Option<PathBuf>,
    running: AtomicBool,
    socket: PathBuf,
}

/// A running daemon. [`SweepServer::start`] binds the socket, resumes
/// any journals, and spawns the accept loop; [`join`](SweepServer::join)
/// blocks until a `shutdown` request lands.
pub struct SweepServer {
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl SweepServer {
    /// Bind and serve. Fails fast on a bad socket path, a live daemon
    /// already on it, or an unresumable journal.
    pub fn start(config: ServerConfig) -> Result<Self, ServerError> {
        let listener = bind_socket(&config.socket)?;
        let pool = WorkerPool::new(
            config.threads,
            Arc::<IsolationCache>::default(),
            config.pin_cores,
        );
        let shared = Arc::new(ServerShared {
            pool,
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(1),
            collectors: Mutex::new(Vec::new()),
            journal_dir: config.journal_dir.clone(),
            running: AtomicBool::new(true),
            socket: config.socket.clone(),
        });
        for journal_path in &config.resume {
            resume_job(&shared, journal_path)?;
        }
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("sweepd-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("accept thread spawns");
        Ok(SweepServer {
            shared,
            accept: Some(accept),
        })
    }

    /// The socket the daemon is serving on.
    pub fn socket(&self) -> &Path {
        &self.shared.socket
    }

    /// Block until the daemon shuts down (a `shutdown` request, or
    /// [`stop`](SweepServer::stop) from another thread).
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Ask the daemon to stop, as a `shutdown` request would.
    pub fn stop(&self) {
        request_stop(&self.shared);
    }
}

impl Drop for SweepServer {
    fn drop(&mut self) {
        request_stop(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Startup failure.
#[derive(Debug)]
pub enum ServerError {
    /// The socket could not be bound.
    Bind(PathBuf, io::Error),
    /// Another daemon is alive on the socket.
    AlreadyRunning(PathBuf),
    /// A `--resume` journal could not be loaded or no longer matches its
    /// spec.
    Resume(JournalError),
    /// A resumed spec failed to re-expand, or expands to a different
    /// case count than the journal header recorded.
    ResumeMismatch(PathBuf, String),
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Bind(p, e) => write!(f, "binding {}: {e}", p.display()),
            ServerError::AlreadyRunning(p) => {
                write!(f, "a sweepd is already listening on {}", p.display())
            }
            ServerError::Resume(e) => write!(f, "resume: {e}"),
            ServerError::ResumeMismatch(p, msg) => {
                write!(f, "resume {}: {msg}", p.display())
            }
        }
    }
}

impl std::error::Error for ServerError {}

/// Bind the listener, clearing a stale socket file but refusing to
/// displace a live daemon.
fn bind_socket(path: &Path) -> Result<UnixListener, ServerError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| ServerError::Bind(path.to_path_buf(), e))?;
    }
    match UnixListener::bind(path) {
        Ok(l) => Ok(l),
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => {
            if UnixStream::connect(path).is_ok() {
                return Err(ServerError::AlreadyRunning(path.to_path_buf()));
            }
            // Dead daemon's leftover: clear and retry once.
            std::fs::remove_file(path).map_err(|e| ServerError::Bind(path.to_path_buf(), e))?;
            UnixListener::bind(path).map_err(|e| ServerError::Bind(path.to_path_buf(), e))
        }
        Err(e) => Err(ServerError::Bind(path.to_path_buf(), e)),
    }
}

fn request_stop(shared: &Arc<ServerShared>) {
    if shared.running.swap(false, Ordering::SeqCst) {
        // Unblock the accept loop; it notices `running` and winds down.
        let _ = UnixStream::connect(&shared.socket);
    }
}

fn accept_loop(listener: UnixListener, shared: Arc<ServerShared>) {
    while shared.running.load(Ordering::SeqCst) {
        let Ok((stream, _)) = listener.accept() else {
            break;
        };
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let conn_shared = shared.clone();
        let _ = std::thread::Builder::new()
            .name("sweepd-conn".into())
            .spawn(move || handle_connection(stream, conn_shared));
    }
    // Wind-down: stop the pool (in-flight cases finish and checkpoint,
    // queued ones are acknowledged as skipped), let every collector
    // finalize its job, then clear the socket file.
    shared.pool.stop();
    for h in shared.collectors.lock().unwrap().drain(..) {
        let _ = h.join();
    }
    let _ = std::fs::remove_file(&shared.socket);
}

fn handle_connection(mut stream: UnixStream, shared: Arc<ServerShared>) {
    // Decode in two stages so the error code can distinguish an
    // unreadable frame from well-formed JSON that is not a request.
    let value: Value = match read_msg(&mut stream) {
        Ok(Some(v)) => v,
        Ok(None) => return, // connected and left without a request
        Err(e) => {
            let keep_quiet = matches!(e, ProtocolError::Io(_));
            if !keep_quiet {
                respond(
                    &mut stream,
                    &Response::Error {
                        code: ErrorCode::BadFrame,
                        message: e.to_string(),
                    },
                );
            }
            return;
        }
    };
    let request = match Request::from_value(&value) {
        Ok(r) => r,
        Err(e) => {
            respond(
                &mut stream,
                &Response::Error {
                    code: ErrorCode::BadRequest,
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    match request {
        Request::Submit { spec, watch } => handle_submit(stream, &shared, *spec, watch),
        Request::Status { job } => {
            let resp = match status_response(&shared, job) {
                Ok(s) => Response::Status(s),
                Err(resp) => resp,
            };
            respond(&mut stream, &resp);
        }
        Request::Results { job, wait } => {
            let resp = results_response(&shared, job, wait);
            respond(&mut stream, &resp);
        }
        Request::Cancel { job } => {
            let resp = match find_job(&shared, job) {
                Some(j) => {
                    j.cancelled.store(true, Ordering::Release);
                    Response::Ok
                }
                None => unknown_job(job),
            };
            respond(&mut stream, &resp);
        }
        Request::Shutdown => {
            respond(&mut stream, &Response::Ok);
            request_stop(&shared);
        }
    }
}

fn respond(stream: &mut UnixStream, resp: &Response) {
    // The peer may already be gone; nothing useful to do about it.
    let _ = write_msg(stream, resp);
}

fn find_job(shared: &ServerShared, id: u64) -> Option<Arc<JobShared>> {
    shared.jobs.lock().unwrap().get(&id).cloned()
}

fn unknown_job(id: u64) -> Response {
    Response::Error {
        code: ErrorCode::UnknownJob,
        message: format!("no job {id} on this daemon"),
    }
}

// ---------------------------------------------------------------------
// Submit / resume: job creation and the per-job collector.
// ---------------------------------------------------------------------

fn handle_submit(
    mut stream: UnixStream,
    shared: &Arc<ServerShared>,
    spec: ScenarioSpec,
    watch: bool,
) {
    let cases = match spec.expand() {
        Ok(cases) => cases,
        Err(e) => {
            respond(
                &mut stream,
                &Response::Error {
                    code: ErrorCode::BadSpec,
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    let total = cases.len();
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let journal = match open_journal(shared, &spec, id, total) {
        Ok(j) => j,
        Err(e) => {
            respond(
                &mut stream,
                &Response::Error {
                    code: ErrorCode::Internal,
                    message: e.to_string(),
                },
            );
            return;
        }
    };
    let job = new_job(shared, id, &spec, total, vec![None; total], 0);
    let watcher = watch.then(|| {
        let (tx, rx) = std::sync::mpsc::channel();
        job.inner.lock().unwrap().watchers.push(tx);
        rx
    });
    respond(
        &mut stream,
        &Response::Submitted {
            job: id,
            cases: total,
        },
    );
    spawn_collector(shared, job.clone(), spec, journal, cases);
    if let Some(rx) = watcher {
        stream_watch(stream, rx);
    }
}

fn resume_job(shared: &Arc<ServerShared>, journal_path: &Path) -> Result<(), ServerError> {
    let state = JournalState::load(journal_path).map_err(ServerError::Resume)?;
    let mismatch = |msg: String| ServerError::ResumeMismatch(journal_path.to_path_buf(), msg);
    let cases = state
        .spec
        .expand()
        .map_err(|e| mismatch(format!("spec no longer expands: {e}")))?;
    if cases.len() != state.total {
        return Err(mismatch(format!(
            "spec now expands to {} cases, journal recorded {}",
            cases.len(),
            state.total
        )));
    }
    let total = state.total;
    let mut slots: Vec<Option<CaseReport>> = vec![None; total];
    let mut done = 0;
    for (index, report) in state.completed {
        slots[index] = Some(report);
        done += 1;
    }
    let missing: Vec<_> = cases
        .into_iter()
        .filter(|c| slots[c.index].is_none())
        .collect();
    let id = shared.next_job.fetch_add(1, Ordering::SeqCst);
    let spec = state.spec;
    let job = new_job(shared, id, &spec, total, slots, done);
    if missing.is_empty() {
        // Nothing left to run: the journal was complete, finalize now.
        finalize(&job, &shared.pool, spec);
        return Ok(());
    }
    let journal = Journal::append_to(journal_path).map_err(ServerError::Resume)?;
    spawn_collector(shared, job, spec, Some(journal), missing);
    Ok(())
}

fn new_job(
    shared: &Arc<ServerShared>,
    id: u64,
    spec: &ScenarioSpec,
    total: usize,
    slots: Vec<Option<CaseReport>>,
    completed: usize,
) -> Arc<JobShared> {
    let job = Arc::new(JobShared {
        id,
        name: spec.name.clone(),
        total,
        cancelled: Arc::new(AtomicBool::new(false)),
        memo_start: shared.pool.isolation_cache().stats(),
        inner: Mutex::new(JobInner {
            phase: JobPhase::Running,
            slots,
            completed,
            watchers: Vec::new(),
            report: None,
            memo_hits: 0,
            memo_misses: 0,
        }),
        changed: Condvar::new(),
    });
    shared.jobs.lock().unwrap().insert(id, job.clone());
    job
}

fn open_journal(
    shared: &ServerShared,
    spec: &ScenarioSpec,
    id: u64,
    total: usize,
) -> Result<Option<Journal>, JournalError> {
    let Some(dir) = &shared.journal_dir else {
        return Ok(None);
    };
    let safe_name: String = spec
        .name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("{safe_name}-job{id}.journal"));
    Journal::create(&path, spec, total).map(Some)
}

/// Submit `cases` to the pool and spawn the thread that owns the job's
/// journal and result slots until every outcome is in.
fn spawn_collector(
    shared: &Arc<ServerShared>,
    job: Arc<JobShared>,
    spec: ScenarioSpec,
    journal: Option<Journal>,
    cases: Vec<crate::scenario::ScenarioCase>,
) {
    let (tx, rx) = std::sync::mpsc::channel();
    let expected = cases.len();
    for case in cases {
        shared.pool.submit(CaseTask {
            case,
            cancelled: job.cancelled.clone(),
            sink: tx.clone(),
        });
    }
    drop(tx);
    let pool_shared = shared.clone();
    let handle = std::thread::Builder::new()
        .name(format!("sweepd-job-{}", job.id))
        .spawn(move || collect(job, spec, journal, rx, expected, pool_shared))
        .expect("collector thread spawns");
    shared.collectors.lock().unwrap().push(handle);
}

fn collect(
    job: Arc<JobShared>,
    spec: ScenarioSpec,
    mut journal: Option<Journal>,
    rx: Receiver<CaseOutcome>,
    expected: usize,
    shared: Arc<ServerShared>,
) {
    let mut failure: Option<String> = None;
    for _ in 0..expected {
        let Ok(outcome) = rx.recv() else {
            // Pool died without acking — treat as failure, never hang.
            failure.get_or_insert_with(|| "worker pool went away".to_string());
            break;
        };
        match outcome {
            CaseOutcome::Completed { index, report } => {
                if let Some(j) = journal.as_mut() {
                    if let Err(e) = j.append_case(&report) {
                        failure.get_or_insert_with(|| e.to_string());
                    }
                }
                let mut inner = job.inner.lock().unwrap();
                inner.slots[index] = Some(*report);
                inner.completed += 1;
                let event = Response::CaseDone {
                    job: job.id,
                    index,
                    completed: inner.completed,
                    total: job.total,
                };
                inner.watchers.retain(|w| w.send(event.clone()).is_ok());
                drop(inner);
                job.changed.notify_all();
            }
            CaseOutcome::Skipped { .. } => {}
            CaseOutcome::Failed { index, message } => {
                failure.get_or_insert_with(|| format!("case {index} panicked: {message}"));
            }
        }
    }
    if let Some(msg) = failure {
        let mut inner = job.inner.lock().unwrap();
        inner.phase = JobPhase::Failed(msg.clone());
        let event = Response::Error {
            code: ErrorCode::Internal,
            message: format!("job {} failed: {msg}", job.id),
        };
        for w in inner.watchers.drain(..) {
            let _ = w.send(event.clone());
        }
        drop(inner);
        job.changed.notify_all();
        return;
    }
    finalize(&job, &shared.pool, spec);
}

/// Move a job to its terminal state: `Done` with a spec-order report if
/// every slot filled, `Cancelled` otherwise.
fn finalize(job: &Arc<JobShared>, pool: &WorkerPool, spec: ScenarioSpec) {
    let memo_end = pool.isolation_cache().stats();
    let mut inner = job.inner.lock().unwrap();
    inner.memo_hits = memo_end.hits.saturating_sub(job.memo_start.hits);
    inner.memo_misses = memo_end.misses.saturating_sub(job.memo_start.misses);
    let complete = inner.slots.iter().all(Option::is_some);
    if complete {
        let cases: Vec<CaseReport> = inner.slots.iter_mut().map(|s| s.take().unwrap()).collect();
        let report = Arc::new(SweepReport { spec, cases });
        inner.report = Some(report.clone());
        inner.phase = JobPhase::Done;
        let event = Response::Done {
            job: job.id,
            report: Box::new((*report).clone()),
        };
        // At most one watcher today; taking just the first avoids cloning
        // the report per receiver.
        if let Some(w) = inner.watchers.drain(..).next() {
            let _ = w.send(event);
        }
    } else {
        inner.phase = JobPhase::Cancelled;
        let event = Response::Error {
            code: ErrorCode::JobCancelled,
            message: format!(
                "job {} cancelled after {} of {} cases",
                job.id, inner.completed, job.total
            ),
        };
        for w in inner.watchers.drain(..) {
            let _ = w.send(event.clone());
        }
    }
    drop(inner);
    job.changed.notify_all();
}

/// Forward watch events to the submitting connection until the job
/// reaches a terminal frame (or the client hangs up).
fn stream_watch(mut stream: UnixStream, rx: Receiver<Response>) {
    while let Ok(event) = rx.recv() {
        let terminal = !matches!(event, Response::CaseDone { .. });
        if write_msg(&mut stream, &event).is_err() || terminal {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Status / results.
// ---------------------------------------------------------------------

fn status_response(shared: &ServerShared, filter: Option<u64>) -> Result<DaemonStatus, Response> {
    let jobs_map = shared.jobs.lock().unwrap();
    if let Some(id) = filter {
        if !jobs_map.contains_key(&id) {
            return Err(unknown_job(id));
        }
    }
    let now = shared.pool.isolation_cache().stats();
    let jobs = jobs_map
        .values()
        .filter(|j| filter.is_none_or(|id| j.id == id))
        .map(|j| {
            let inner = j.inner.lock().unwrap();
            let (memo_hits, memo_misses) = if inner.phase == JobPhase::Running {
                // Live delta; exact once the job finalizes.
                (
                    now.hits.saturating_sub(j.memo_start.hits),
                    now.misses.saturating_sub(j.memo_start.misses),
                )
            } else {
                (inner.memo_hits, inner.memo_misses)
            };
            JobSummary {
                job: j.id,
                name: j.name.clone(),
                state: inner.phase.as_str().to_string(),
                completed: inner.completed,
                total: j.total,
                memo_hits,
                memo_misses,
            }
        })
        .collect();
    Ok(DaemonStatus {
        workers: shared.pool.workers(),
        memo: now,
        streams: shared.pool.isolation_cache().streams().stats(),
        jobs,
    })
}

fn results_response(shared: &ServerShared, id: u64, wait: bool) -> Response {
    let Some(job) = find_job(shared, id) else {
        return unknown_job(id);
    };
    let mut inner = job.inner.lock().unwrap();
    while inner.phase == JobPhase::Running {
        if !wait {
            return Response::Error {
                code: ErrorCode::JobRunning,
                message: format!(
                    "job {id} still running ({} of {} cases); pass wait to block",
                    inner.completed, job.total
                ),
            };
        }
        inner = job.changed.wait(inner).unwrap();
    }
    match &inner.phase {
        JobPhase::Done => Response::Done {
            job: id,
            report: Box::new((**inner.report.as_ref().expect("done jobs keep a report")).clone()),
        },
        JobPhase::Cancelled => Response::Error {
            code: ErrorCode::JobCancelled,
            message: format!(
                "job {id} cancelled after {} of {} cases",
                inner.completed, job.total
            ),
        },
        JobPhase::Failed(msg) => Response::Error {
            code: ErrorCode::Internal,
            message: format!("job {id} failed: {msg}"),
        },
        JobPhase::Running => unreachable!("loop above exits only on terminal phases"),
    }
}
