//! # plru-core — cache partitioning for pseudo-LRU replacement policies
//!
//! This crate implements the primary contribution of *"Adapting Cache
//! Partitioning Algorithms to Pseudo-LRU Replacement Policies"*
//! (Kędzierski, Moretó, Cazorla, Valero — IPDPS 2010): a complete dynamic
//! cache-partitioning system that works on top of the NRU and Binary-Tree
//! pseudo-LRU replacement schemes used by real processors, alongside the
//! classical true-LRU system it is measured against.
//!
//! The moving parts mirror the paper's Section II/III decomposition:
//!
//! * **Profiling logic** ([`profiler::Profiler`]) — a per-thread sampled
//!   Auxiliary Tag Directory ([`atd::AtdTags`], exact tag rows or the
//!   cuckoo-filter sketch of [`sketch`]) feeding a Stack Distance
//!   Histogram ([`sdh::Sdh`]). The three policies differ only in the
//!   stack distance an ATD hit records:
//!   * under true LRU the ATD reports exact stack positions;
//!   * under NRU the stack position is *estimated* from the number of set
//!     used bits, with a scaling factor `S` (Section III-A);
//!   * under BT it is estimated by XOR-ing the accessed way's identifier
//!     bits with the tree bits on its path (Section III-B).
//! * **Partition selection** — the MinMisses algorithm ([`minmisses`]),
//!   both as an exact dynamic program and as the classical greedy
//!   marginal-gain heuristic.
//! * **Partition enforcement** — one builder ([`enforce`]) translates a way
//!   allocation into per-set owner quotas (`C`) or global replacement
//!   masks (`M`). For BT, strict mode rounds the allocation to the aligned
//!   subtrees the paper's up/down vectors can express and installs them
//!   as masks: on those, BT's masked walk picks the vectors' own victim.
//!   `hwmodel` still prices the vectors as the paper's hardware
//!   (Table I).
//! * **The dynamic controller** ([`controller::CpaController`]) that ties
//!   it together at every interval boundary (1 M cycles in the paper).
//!
//! Configurations are named with the paper's acronyms ([`config::CpaConfig`]):
//! `C-L`, `M-L`, `M-1.0N`, `M-0.75N`, `M-0.5N`, `M-BT`.
//!
//! The policy × partitioning cross-product itself is a first-class value:
//! [`scheme::Scheme`] pairs a replacement policy with an optional CPA
//! configuration behind one canonical acronym grammar and a capability
//! registry ([`scheme::registry`]) — the configuration currency every
//! layer above this crate (engine, scenario specs, trace metadata, CLIs)
//! trades in.

pub mod atd;
pub mod config;
pub mod controller;
pub mod enforce;
pub mod minmisses;
pub mod profiler;
pub mod scheme;
pub mod sdh;
pub mod sketch;

pub use config::{CpaConfig, EnforcementStyle, NruUpdateMode, Objective, Selector};
pub use controller::CpaController;
pub use minmisses::{fairness_minimax, min_misses_dp, min_misses_greedy};
pub use profiler::Profiler;
pub use scheme::{PolicyEntry, Scheme, SchemeError};
pub use sdh::Sdh;
pub use sketch::{CuckooFilter, ProfilerFidelity};
