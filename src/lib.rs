//! # plru-repro — reproduction of *Adapting Cache Partitioning Algorithms
//! to Pseudo-LRU Replacement Policies* (Kędzierski et al., IPDPS 2010)
//!
//! This is the workspace-root crate: it re-exports the member crates so
//! examples and integration tests can use one import, and hosts the
//! runnable examples (`examples/`) and cross-crate integration tests
//! (`tests/`).
//!
//! * [`cachesim`] — set-associative cache substrate (LRU / NRU / BT /
//!   random replacement, partition enforcement).
//! * [`tracegen`] — synthetic SPEC CPU 2000 stand-in traces and the
//!   paper's Table II workloads.
//! * [`cmpsim`] — trace-driven CMP timing simulator and metrics.
//! * [`plru_core`] — the paper's contribution: SDH/eSDH profiling,
//!   MinMisses selection, enforcement translation, dynamic controller.
//! * [`hwmodel`] — Table I complexity, ATD area and Figure 9 power models.
//!
//! It also hosts the [`engine`] layer — every figure/table binary, example
//! and integration test constructs its simulations through
//! [`engine::SimEngine`] rather than wiring the member crates by hand —
//! and the [`scenario`] subsystem on top of it: declarative JSON sweep
//! specs (`scenarios/*.json`), a multi-threaded [`scenario::SweepRunner`],
//! and golden-snapshot-tested [`scenario::SweepReport`]s, driven by the
//! `sweep` bin.
//!
//! Simulations run from either backend of the
//! [`TraceSource`](tracegen::TraceSource) abstraction: live tracegen
//! synthesis, or a recorded trace container
//! ([`SimEngine::record_trace`](engine::SimEngine::record_trace) /
//! [`run_trace`](engine::SimEngine::run_trace), the `trace` bin, and the
//! `{"recorded": "<path>"}` workload axis of scenario specs) — replay is
//! bit-identical to the live run it captured. See `docs/ARCHITECTURE.md`
//! and `docs/SCENARIOS.md`.
//!
//! Sweeps also run as jobs on a resident daemon: the [`service`] layer
//! (`sweepd` + `sweep --remote`) keeps the worker fleet and the
//! isolation memo warm across jobs, streams per-case progress over a
//! Unix socket, and checkpoints every job to a resumable journal. See
//! `docs/SWEEP_SERVICE.md`.
//!
//! ## Quickstart
//!
//! ```
//! use plru_repro::prelude::*;
//!
//! // A 2-core CMP with the paper's machine under the M-0.75N scheme
//! // (NRU L2 + mask-enforced dynamic partitioning).
//! let engine = SimEngine::builder()
//!     .cores(2)
//!     .insts(50_000) // keep the doctest quick
//!     .scheme("M-0.75N".parse().unwrap())
//!     .build();
//! let result = engine.run_named("2T_05").expect("a Table II workload");
//! assert!(result.ipc(0) > 0.0 && result.ipc(1) > 0.0);
//! ```

pub mod engine;
pub mod scenario;
pub mod service;

pub use cachesim;
pub use cmpsim;
pub use hwmodel;
pub use plru_core;
pub use tracegen;

pub use engine::{SimEngine, SimEngineBuilder};
pub use scenario::{ScenarioSpec, SweepRunner};

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use crate::engine::{parallel_map, IsolationCache, SimEngine, SimEngineBuilder};
    pub use crate::scenario::{
        run_miss_curves, CaseReport, MissCurve, MissCurveReport, MissCurveSpec, ScenarioCase,
        ScenarioError, ScenarioSpec, SchemeAxis, SweepReport, SweepRunner, WorkerPool, WorkloadSel,
    };
    pub use crate::service::{
        DaemonStatus, ErrorCode, JobSummary, Request, Response, ServerConfig, SweepServer,
    };
    pub use cachesim::{
        Access, BatchStats, Cache, CacheConfig, CacheGeometry, Enforcement, PolicyKind, WayMask,
    };
    pub use cmpsim::MemoStats;
    pub use cmpsim::{
        harmonic_mean_of_relative_ipc, throughput, weighted_speedup, MachineConfig, SimResult,
        System, WorkloadMetrics,
    };
    pub use hwmodel::{CacheParams, ComplexityTable, PowerModel, RunActivity};
    pub use plru_core::{CpaConfig, CpaController, Profiler, Scheme, SchemeError, Sdh};
    pub use tracegen::{
        all_workloads, benchmark, workload, TraceError, TraceGenerator, TraceInfo, TraceMeta,
        TraceSource, Workload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_key_types() {
        use crate::prelude::*;
        let _ = MachineConfig::paper_baseline(2);
        let _ = CpaConfig::figure7_set();
        let _ = all_workloads();
    }
}
