//! The persistent case-execution pool.
//!
//! PR 3's `SweepRunner` fused two things: a scoped-thread worker fleet
//! and the orchestration of exactly one sweep. The sweep service needs
//! the fleet to *outlive* any one sweep — workers stay resident across
//! jobs so the shared [`IsolationCache`] memo stays warm — so the two
//! concerns are split:
//!
//! * [`WorkerPool`] (this module) owns long-lived worker threads pulling
//!   [`CaseTask`]s from one shared FIFO queue. It knows nothing
//!   about jobs, journals or report order; it runs cases and posts
//!   [`CaseOutcome`]s to whatever channel the task names.
//! * Orchestration — which cases form a job, spec-order reassembly,
//!   checkpointing, cancellation policy — lives with the caller: the
//!   local [`SweepRunner`](crate::scenario::SweepRunner) for one-shot
//!   sweeps, the [`service`](crate::service) job manager for the daemon.
//!
//! Load balancing comes from the shared queue: every idle worker takes
//! the oldest queued case, so wildly uneven case costs (an 8-thread CPA
//! run next to a 1-core baseline) balance, and tasks from concurrent jobs
//! interleave fairly in submission order. The queue and the stop flag
//! share one mutex and one condvar, so no submit or stop wakeup can be
//! lost between a worker's check and its wait.
//!
//! The pool also scopes the stream memo ([`cmpsim::StreamCache`], carried
//! by the shared [`IsolationCache`]): [`WorkerPool::submit`] pins every
//! step stream a case will read (its cores' and its isolation runs'),
//! and the case's outcome — completed, skipped or failed — releases
//! them before it is posted. A stream is therefore synthesized and run
//! through the private L1s once while any queued or running case needs
//! it, and freed as soon as none does: once every submitted case's
//! outcome is in, the memo holds nothing.

use crate::engine::IsolationCache;
use crate::scenario::expand::ScenarioCase;
use crate::scenario::report::CaseReport;
use cmpsim::{StreamKey, WorkloadMetrics};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Upper bound on a resident pool's workers. Each is an OS thread and
/// runs one case at a time, so a pool wider than the host only queues;
/// a request above this is refused before any thread starts.
pub const MAX_POOL_WORKERS: usize = 256;

/// One unit of pool work: a case plus the channel its outcome goes to
/// and the cancellation flag of the job it belongs to.
pub struct CaseTask {
    /// The fully resolved case to simulate.
    pub case: ScenarioCase,
    /// Checked immediately before the case runs; a cancelled task is
    /// acknowledged with [`CaseOutcome::Skipped`] instead of simulated.
    pub cancelled: Arc<AtomicBool>,
    /// Where the outcome is posted. Exactly one outcome is sent per
    /// submitted task, so a collector can count to its submission total.
    pub sink: Sender<CaseOutcome>,
}

/// What happened to one submitted [`CaseTask`].
#[derive(Debug)]
pub enum CaseOutcome {
    /// The case ran to completion.
    Completed {
        /// `ScenarioCase::index` of the finished case.
        index: usize,
        /// Its full report.
        report: Box<CaseReport>,
    },
    /// The case never started: its task's cancellation flag was set, or
    /// the pool stopped first.
    Skipped {
        /// `ScenarioCase::index` of the skipped case.
        index: usize,
    },
    /// The case panicked; the worker survived and the panic message is
    /// forwarded so the owning job can fail without killing the pool.
    Failed {
        /// `ScenarioCase::index` of the failed case.
        index: usize,
        /// Rendered panic payload.
        message: String,
    },
}

impl CaseOutcome {
    /// The case index the outcome refers to.
    pub fn index(&self) -> usize {
        match self {
            CaseOutcome::Completed { index, .. }
            | CaseOutcome::Skipped { index }
            | CaseOutcome::Failed { index, .. } => *index,
        }
    }
}

/// A case's stream keys, pinned in the memo from submit until its
/// outcome is decided; dropping the guard releases them.
struct Pins {
    memo: Arc<IsolationCache>,
    keys: Vec<StreamKey>,
}

impl Pins {
    fn new(memo: &Arc<IsolationCache>, case: &ScenarioCase) -> Self {
        let keys = case.stream_keys();
        memo.streams().pin(&keys);
        Pins {
            memo: memo.clone(),
            keys,
        }
    }
}

impl Drop for Pins {
    fn drop(&mut self) {
        self.memo.streams().release(&self.keys);
    }
}

/// A submitted task and the pins it holds while queued or running.
struct Queued {
    task: CaseTask,
    pins: Pins,
}

struct PoolState {
    queue: VecDeque<Queued>,
    /// `true` once shutdown begins: workers take no further task and
    /// `submit` acknowledges instead of queueing.
    stop: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    idle: Condvar,
    isolation: Arc<IsolationCache>,
}

impl PoolShared {
    /// Every critical section is one push, pop, take or store, so a
    /// poisoned lock still guards a valid state; it is recovered rather
    /// than propagated because `stop` runs from `Drop`.
    fn state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A persistent fleet of case-running worker threads sharing one
/// [`IsolationCache`] memo. Dropping the pool (or calling
/// [`WorkerPool::shutdown`]) stops the workers after their in-flight
/// cases; queued tasks, and any submitted after the stop, are
/// acknowledged as skipped.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    // Behind a lock so `stop` can join through a shared reference (the
    // sweep service holds the pool in an `Arc`).
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers)
            .finish()
    }
}

impl WorkerPool {
    /// Start `workers` (≥ 1) resident threads over a shared isolation
    /// memo.
    pub fn new(workers: usize, isolation: Arc<IsolationCache>) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                stop: false,
            }),
            idle: Condvar::new(),
            isolation,
        });
        let handles = (0..workers)
            .map(|wi| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{wi}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// The resident worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The memo shared by every worker (and kept warm across jobs).
    pub fn isolation_cache(&self) -> &Arc<IsolationCache> {
        &self.shared.isolation
    }

    /// Enqueue one case, pinning the record streams it will read (see
    /// the module docs). Exactly one [`CaseOutcome`] will be posted to
    /// `task.sink` for it, even through cancellation or a case panic,
    /// and its streams are released before it is; a stopped pool
    /// acknowledges it as skipped before returning.
    pub fn submit(&self, task: CaseTask) {
        let pins = Pins::new(&self.shared.isolation, &task.case);
        let queued = Queued { task, pins };
        let mut state = self.shared.state();
        if state.stop {
            drop(state);
            skip(queued);
            return;
        }
        state.queue.push_back(queued);
        drop(state);
        self.shared.idle.notify_one();
    }

    /// Run one pre-expanded case list to completion and return reports
    /// ordered by case index — the one-shot orchestration used by
    /// [`SweepRunner`](crate::scenario::SweepRunner). Panics if a case
    /// panicked (matching the old scoped-runner behaviour).
    pub fn run_ordered(&self, cases: &[ScenarioCase]) -> Vec<CaseReport> {
        let (tx, rx) = std::sync::mpsc::channel();
        let never_cancelled = Arc::new(AtomicBool::new(false));
        for case in cases {
            self.submit(CaseTask {
                case: case.clone(),
                cancelled: never_cancelled.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        let mut slots: Vec<Option<CaseReport>> = (0..cases.len()).map(|_| None).collect();
        for _ in 0..cases.len() {
            match rx.recv().expect("pool outlives the sweep") {
                CaseOutcome::Completed { index, report } => slots[index] = Some(*report),
                CaseOutcome::Skipped { index } => {
                    panic!("sweep case {index} skipped: the pool was stopped")
                }
                CaseOutcome::Failed { index, message } => {
                    panic!("sweep case {index} panicked: {message}")
                }
            }
        }
        slots
            .into_iter()
            .map(|s| s.expect("every case reported"))
            .collect()
    }

    /// Stop the workers: in-flight cases finish, queued tasks are
    /// acknowledged as skipped, threads are joined.
    pub fn shutdown(self) {
        self.stop();
    }

    /// [`shutdown`](WorkerPool::shutdown) through a shared reference —
    /// the sweep service owns its pool in an `Arc`. Idempotent.
    pub fn stop(&self) {
        let queued = {
            let mut state = self.shared.state();
            state.stop = true;
            std::mem::take(&mut state.queue)
        };
        self.shared.idle.notify_all();
        // Acknowledge everything still queued so collectors counting to
        // their submission total terminate instead of hanging.
        queued.into_iter().for_each(skip);
        for h in self.handles.lock().unwrap().drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let task = {
            let mut state = shared.state();
            loop {
                // Checked before the pop: once stopped, `stop` owns what
                // is still queued.
                if state.stop {
                    return;
                }
                if let Some(task) = state.queue.pop_front() {
                    break task;
                }
                state = shared
                    .idle
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_task(task, shared);
    }
}

/// Acknowledge a task without running it.
fn skip(Queued { task, pins }: Queued) {
    drop(pins);
    let index = task.case.index;
    let _ = task.sink.send(CaseOutcome::Skipped { index });
}

fn run_task(Queued { task, pins }: Queued, shared: &PoolShared) {
    let index = task.case.index;
    let outcome = if task.cancelled.load(Ordering::Acquire) {
        CaseOutcome::Skipped { index }
    } else {
        let isolation = shared.isolation.clone();
        match catch_unwind(AssertUnwindSafe(|| run_case(&task.case, isolation))) {
            Ok(report) => CaseOutcome::Completed {
                index,
                report: Box::new(report),
            },
            Err(panic) => CaseOutcome::Failed {
                index,
                message: panic_message(&*panic),
            },
        }
    };
    // Released before the outcome is posted, so a collector that has
    // every outcome sees a memo without this case's streams.
    drop(pins);
    // A closed sink means the job's collector is gone (client vanished
    // and the job was torn down); nothing is owed to anyone.
    let _ = task.sink.send(outcome);
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run one case to completion: simulate, compute the paper's metrics
/// against the matching (salted) isolation runs, optionally capture the
/// controller's allocation history.
pub(crate) fn run_case(case: &ScenarioCase, isolation: Arc<IsolationCache>) -> CaseReport {
    let engine = case.engine(isolation);
    let workload = case.to_workload();
    // One execution path whether or not history is wanted: `engine.run`
    // is exactly `system(..).run()`, and keeping the system around is
    // what lets the controller be read back afterwards. Recorded cases
    // replay their container; expansion already stream-validated it, so
    // a failure here is a real I/O race (file touched mid-sweep).
    let mut sys = match &case.recorded {
        Some(path) => engine
            .system_from_trace(path)
            .unwrap_or_else(|e| panic!("recorded trace `{path}` failed after validation: {e}")),
        None => engine.system(&workload),
    };
    let result = sys.run();
    let allocation_history = if case.capture_history {
        sys.controller().map(|c| c.history().to_vec())
    } else {
        None
    };
    let isolation_ipcs = engine.isolation_ipcs(&workload.benchmarks);
    let metrics = WorkloadMetrics::compute(&result.ipcs(), &isolation_ipcs);
    CaseReport {
        scheme: case.scheme.acronym(),
        case: case.clone(),
        metrics,
        isolation_ipcs,
        result,
        allocation_history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::{ScenarioSpec, WorkloadSel};
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    fn tiny_cases() -> Vec<ScenarioCase> {
        ScenarioSpec {
            name: "pool-t".into(),
            insts: Some(12_000),
            workloads: vec![WorkloadSel::Profiles(vec!["gzip".into()])],
            schemes: vec!["L".into(), "N".into()].into(),
            ..Default::default()
        }
        .expand()
        .unwrap()
    }

    #[test]
    fn run_ordered_returns_reports_in_case_order() {
        let pool = WorkerPool::new(2, Arc::default());
        let cases = tiny_cases();
        let reports = pool.run_ordered(&cases);
        assert_eq!(reports.len(), cases.len());
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.case.index, i);
        }
        pool.shutdown();
    }

    #[test]
    fn pool_survives_jobs_and_keeps_the_memo_warm() {
        let pool = WorkerPool::new(2, Arc::default());
        let cases = tiny_cases();
        let first = pool.run_ordered(&cases);
        let stats_after_first = pool.isolation_cache().stats();
        assert!(stats_after_first.misses > 0, "cold memo simulated solos");
        let second = pool.run_ordered(&cases);
        let stats_after_second = pool.isolation_cache().stats();
        assert_eq!(
            stats_after_second.misses, stats_after_first.misses,
            "warm rerun must not simulate any solo run"
        );
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.result.ipcs(), b.result.ipcs());
        }
        pool.shutdown();
    }

    #[test]
    fn cancelled_tasks_are_acknowledged_not_run() {
        let pool = WorkerPool::new(1, Arc::default());
        let cases = tiny_cases();
        let cancelled = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        for case in &cases {
            pool.submit(CaseTask {
                case: case.clone(),
                cancelled: cancelled.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        let mut skipped = 0;
        for _ in 0..cases.len() {
            match rx.recv().unwrap() {
                CaseOutcome::Skipped { .. } => skipped += 1,
                other => panic!("expected skip, got {other:?}"),
            }
        }
        assert_eq!(skipped, cases.len());
        pool.shutdown();
    }

    #[test]
    fn shutdown_acknowledges_queued_tasks() {
        // A single worker and a pile of tasks: shutdown must drain the
        // queue with Skipped acks so a counting collector terminates.
        let pool = WorkerPool::new(1, Arc::default());
        let cases = tiny_cases();
        let flag = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        for case in &cases {
            pool.submit(CaseTask {
                case: case.clone(),
                cancelled: flag.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        pool.shutdown();
        let outcomes: Vec<CaseOutcome> = rx.into_iter().collect();
        assert_eq!(outcomes.len(), cases.len(), "one ack per submitted task");
    }

    #[test]
    fn stop_skips_queued_cases() {
        // One worker, twenty queued cases, an immediate stop: at most the
        // case already running completes; the rest are skipped, not run.
        let pool = WorkerPool::new(1, Arc::default());
        let case = tiny_cases().remove(0);
        let flag = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        for index in 0..20 {
            let mut case = case.clone();
            case.index = index;
            pool.submit(CaseTask {
                case,
                cancelled: flag.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        pool.stop();
        let outcomes: Vec<CaseOutcome> = rx.into_iter().collect();
        assert_eq!(outcomes.len(), 20, "one ack per submitted task");
        let skipped = outcomes
            .iter()
            .filter(|o| matches!(o, CaseOutcome::Skipped { .. }))
            .count();
        assert!(skipped >= 10, "only {skipped} of 20 queued cases skipped");
        let streams = pool.isolation_cache().streams().stats();
        assert_eq!(streams.pinned, 0, "skipped cases release their streams");
    }

    #[test]
    fn submit_after_stop_is_acknowledged() {
        let pool = WorkerPool::new(1, Arc::default());
        pool.stop();
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(CaseTask {
            case: tiny_cases().remove(0),
            cancelled: Arc::new(AtomicBool::new(false)),
            sink: tx,
        });
        match rx.recv_timeout(Duration::from_secs(1)) {
            Ok(CaseOutcome::Skipped { index: 0 }) => {}
            Ok(other) => panic!("expected a skip, got {other:?}"),
            Err(RecvTimeoutError::Timeout) => panic!("late submit never acknowledged"),
            Err(e) => panic!("sink closed without an ack: {e}"),
        }
    }

    #[test]
    fn failed_cases_carry_the_panic_message() {
        // Expansion rejects a budget of 0; a hand-built case with one
        // runs and panics on its zero isolation IPC.
        let pool = WorkerPool::new(1, Arc::default());
        let mut case = tiny_cases().remove(0);
        case.insts = 0;
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit(CaseTask {
            case,
            cancelled: Arc::new(AtomicBool::new(false)),
            sink: tx,
        });
        match rx.recv().unwrap() {
            CaseOutcome::Failed { index: 0, message } => {
                assert_eq!(message, "isolation IPC must be positive")
            }
            other => panic!("expected a failure, got {other:?}"),
        }
        let streams = pool.isolation_cache().streams().stats();
        assert_eq!(streams.pinned, 0, "a failed case releases its streams");
        pool.shutdown();
    }

    /// Two workloads sharing a benchmark, two schemes, two salts.
    fn memo_cases() -> Vec<ScenarioCase> {
        ScenarioSpec {
            name: "pool-memo".into(),
            insts: Some(12_000),
            workloads: vec![
                WorkloadSel::Profiles(vec!["gzip".into(), "eon".into()]),
                WorkloadSel::Profiles(vec!["gzip".into(), "gzip".into()]),
            ],
            schemes: vec!["L".into(), "M-L".into()].into(),
            seed_salts: Some(vec![0, 1]),
            ..Default::default()
        }
        .expand()
        .unwrap()
    }

    #[test]
    fn the_memo_holds_no_stream_after_run_ordered() {
        let pool = WorkerPool::new(2, Arc::default());
        let cases = memo_cases();
        pool.run_ordered(&cases);
        let s = pool.isolation_cache().streams().stats();
        assert_eq!((s.pinned, s.live, s.resident_bytes), (0, 0, 0), "{s:?}");
        assert!(s.peak_bytes > 0, "the sweep read its streams from tapes");
        assert!(
            s.generated < s.served,
            "cases shared streams: {} generated, {} served",
            s.generated,
            s.served
        );
        pool.shutdown();
    }

    #[test]
    fn a_cancelled_job_releases_its_queued_streams() {
        let pool = WorkerPool::new(1, Arc::default());
        let cases = memo_cases();
        let cancelled = Arc::new(AtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        for case in &cases {
            pool.submit(CaseTask {
                case: case.clone(),
                cancelled: cancelled.clone(),
                sink: tx.clone(),
            });
        }
        drop(tx);
        // Cancel at once, while the single worker is on its first case
        // and the rest wait in the queue with their streams pinned.
        cancelled.store(true, Ordering::Release);
        let skipped = rx
            .iter()
            .filter(|o| matches!(o, CaseOutcome::Skipped { .. }))
            .count();
        assert!(skipped > 0, "every case ran before the cancel");
        let s = pool.isolation_cache().streams().stats();
        assert_eq!((s.pinned, s.live, s.resident_bytes), (0, 0, 0), "{s:?}");
        pool.shutdown();
    }
}
