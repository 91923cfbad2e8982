//! # tracegen — synthetic SPEC CPU 2000 stand-ins
//!
//! The paper drives its simulator with SimPoint traces of 25 SPEC CPU 2000
//! benchmarks (Table II). Those traces are not redistributable, so this
//! crate synthesises *stand-in* traces with the one property the paper's
//! mechanisms actually consume: the **reuse-distance structure** of each
//! benchmark's L2 access stream, i.e. the shape of its miss-vs-ways curve.
//!
//! Each stand-in is a seeded, deterministic generator over a mixture of
//! working-set components:
//!
//! * [`Component::Sequential`] — a cyclic sweep over `lines` cache lines.
//!   Through an LRU set this produces a sharp miss-curve knee at
//!   `lines / num_sets` ways.
//! * [`Component::RandomIn`] — uniform random touches within a region,
//!   producing a smooth geometric-ish reuse-distance tail.
//! * [`Component::Fresh`] — streaming: every access touches a brand-new
//!   line (compulsory misses at any allocation).
//!
//! Mixture weights and region sizes per benchmark are chosen from published
//! qualitative characterisations (mcf/art memory-bound, crafty/eon cache-
//! friendly, swim/lucas streaming, …) so that a 16-way 2 MB L2 sees knees
//! spread across the way spectrum — the regime where the MinMisses CPA and
//! the eSDH estimation error both matter. Benchmarks also switch between
//! *phases* (distinct mixtures) every few hundred thousand instructions,
//! standing in for SimPoint phase behaviour, so the **dynamic** CPA has
//! real drift to adapt to.
//!
//! Simulations consume traces through the [`TraceSource`] abstraction:
//! the live [`TraceGenerator`] is one implementation, and the [`trace`]
//! module provides the other — a versioned, chunked binary container
//! ([`trace::TraceWriter`] / [`trace::TraceReader`]) that records a
//! workload's per-thread streams once and replays them bit-identically.
//!
//! ## Example
//!
//! ```
//! use tracegen::{benchmark, TraceGenerator};
//!
//! let prof = benchmark("mcf").unwrap();
//! let mut gen = TraceGenerator::new(prof, 42);
//! let rec = gen.next_record();
//! assert!(rec.gap <= 1000);
//! ```

pub mod benchmark;
pub mod component;
pub mod dict;
pub mod generator;
pub mod record;
pub mod trace;
pub mod workloads;

pub use benchmark::{benchmark, benchmark_names, BenchmarkProfile, PhaseSpec};
pub use component::{Component, Mixture};
pub use generator::{addr_word, word_addr, TraceGenerator};
pub use record::{MemRecord, MAX_GAP};
pub use trace::{TraceError, TraceInfo, TraceMeta, TraceSource};
pub use workloads::{all_workloads, workload, workloads_with_threads, Workload};
