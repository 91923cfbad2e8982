//! Declarative scenario sweeps: spec in, report out.
//!
//! The paper's results are all cartesian sweeps — policy × associativity ×
//! cache size × workload mix × partitioning on/off — and before this
//! module every figure binary hand-rolled its own loop over [`SimEngine`].
//! The scenario subsystem separates the experiment *spec* from the
//! execution fleet:
//!
//! * [`spec`] — [`ScenarioSpec`], a serde-backed declaration of sweep axes
//!   (schemes — explicit acronyms or the `"all"` registry shorthand, L2
//!   sizes/associativities, workload mixes by Table II name, explicit
//!   benchmark list or recorded trace container, seed salts), plus the
//!   profiler-level [`MissCurveSpec`];
//! * [`expand`] — deterministic expansion of a spec into an ordered list
//!   of [`ScenarioCase`]s (dedup per axis, case count = product of axis
//!   lengths, stable index order);
//! * [`pool`] — [`WorkerPool`], the persistent shared-queue fleet that
//!   actually runs cases behind a shared
//!   [`IsolationCache`](crate::engine::IsolationCache) (kept resident —
//!   and its memo warm — across jobs by the sweep service);
//! * [`runner`] — [`SweepRunner`], the one-shot orchestration: expand a
//!   spec, run its cases on an ephemeral pool, collect results in spec
//!   order;
//! * [`report`] — [`SweepReport`], the full per-case outcome with JSON and
//!   aligned-text-table rendering, snapshot-tested against goldens under
//!   `tests/goldens/`.
//!
//! Specs ship as JSON under `scenarios/` and run through the `sweep` bin:
//!
//! ```sh
//! cargo run --release --bin sweep -- scenarios/smoke_2t.json
//! ```
//!
//! [`SimEngine`]: crate::engine::SimEngine

pub mod expand;
pub mod pool;
pub mod report;
pub mod runner;
pub mod spec;

pub use expand::{ScenarioCase, ScenarioError};
pub use pool::{CaseOutcome, CaseTask, WorkerPool};
pub use report::{render_aligned, CaseReport, MissCurve, MissCurveReport, SweepReport};
pub use runner::{run_miss_curves, SweepRunner};
pub use spec::{MissCurveSpec, ScenarioSpec, SchemeAxis, WorkloadSel};
