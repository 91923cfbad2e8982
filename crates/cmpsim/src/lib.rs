//! # cmpsim — trace-driven CMP timing simulator
//!
//! A stand-in for the paper's Turandot/PTCMP simulator. Each core consumes
//! its benchmark's synthetic trace; timing charges a per-benchmark base CPI
//! for non-memory work plus blocking miss penalties from Table II
//! (11 cycles to L2, +250 cycles to memory). Cores advance in
//! smallest-local-clock-first order, so their L2 accesses interleave in
//! simulated-time order and contend realistically for the shared,
//! optionally partitioned L2.
//!
//! The dynamic CPA controller from `plru-core` hooks in at two points:
//! every L2 access is reported to the owning thread's profiler, and at
//! every interval boundary the controller repartitions the L2.
//!
//! Each core's front end (record source, fetch synthesis, private L1s;
//! see [`front`]) is independent of the scheme and of the other cores,
//! so the cases of a sweep can share it: the stream memo
//! ([`StreamCache`]) runs it once per stream into a step [`tape`], and
//! each case replays only the back end — the shared L2, the controller
//! and the clocks. For the same reason a trace replay with decode
//! workers ([`System::from_trace_scheme`]) runs each core's front end on
//! a worker thread, which hands the simulating thread finished steps in
//! the tape's code, so that thread too runs only the back end.
//!
//! ## Example
//!
//! ```
//! use cmpsim::{MachineConfig, System};
//! use plru_core::Scheme;
//! use tracegen::workload;
//!
//! let mut cfg = MachineConfig::paper_baseline(2);
//! cfg.insts_target = 50_000; // keep the doctest fast
//! let wl = workload("2T_21").unwrap();
//! let scheme: Scheme = "L".parse().unwrap();
//! let mut sys = System::from_workload_scheme(&cfg, &wl, &scheme, 1);
//! let result = sys.run();
//! assert!(result.ipc(0) > 0.0);
//! ```

pub mod config;
pub mod core_model;
pub mod front;
pub mod metrics;
mod pipe;
pub mod runner;
pub mod system;
pub mod tape;

pub use config::{Latencies, MachineConfig};
pub use core_model::CoreModel;
pub use metrics::{harmonic_mean_of_relative_ipc, throughput, weighted_speedup, WorkloadMetrics};
pub use runner::{parallel_map, IsolationCache, MemoStats, StreamCache, StreamKey, StreamStats};
pub use system::{SimResult, System};
