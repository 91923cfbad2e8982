//! # cachesim — set-associative cache substrate
//!
//! This crate models the shared last-level cache (and private L1s) that the
//! cache-partitioning algorithms of Kędzierski et al. (IPDPS 2010) operate
//! on. It provides:
//!
//! * [`CacheGeometry`] — size / associativity / line-size arithmetic,
//! * the three replacement policies studied in the paper:
//!   * true [`policy::Lru`] (the baseline every prior CPA assumes),
//!   * [`policy::Nru`] — the *Not Recently Used* used-bit scheme of the Sun
//!     UltraSPARC T2, with the single cache-global replacement pointer,
//!   * [`policy::Bt`] — IBM's *Binary Tree* pseudo-LRU,
//!   * plus two reference policies: a seeded [`policy::RandomRepl`] and a
//!     recency-blind [`policy::Fifo`],
//! * way-level partition **enforcement** ([`Enforcement`]): per-set owner
//!   counters (`C`) or global replacement way-masks (`M`). The paper's BT
//!   up/down override vectors ([`BtVectors`]) can only express aligned
//!   subtrees, where BT's masked walk picks their victim; strict BT
//!   partitions are therefore installed as aligned-subtree masks, and the
//!   vectors stay as the reference walk (and as the hardware `hwmodel`
//!   prices),
//! * the composed [`Cache`] structure with per-core statistics (the shared
//!   L2), and a small private-L1 + shared-L2 [`hierarchy`] whose L1s are
//!   true-LRU recency rows ([`hierarchy::PrivateLru`]).
//!
//! All state transitions are implemented at *bit-accurate* granularity with
//! respect to the paper's description so that the complexity formulas in the
//! companion `hwmodel` crate describe exactly the state this crate mutates.
//!
//! ## Example
//!
//! ```
//! use cachesim::{Cache, CacheConfig, CacheGeometry, Enforcement, PolicyKind, WayMask};
//!
//! // A 2 MB, 16-way, 128 B-line shared L2, as in the paper's Table II.
//! let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap();
//! let mut l2 = Cache::new(CacheConfig {
//!     geometry: geom,
//!     policy: PolicyKind::Nru,
//!     num_cores: 2,
//!     seed: 42,
//! });
//! // Give core 0 ways 0..10 and core 1 ways 10..16.
//! l2.set_enforcement(Enforcement::masks(vec![
//!     WayMask::contiguous(0, 10),
//!     WayMask::contiguous(10, 6),
//! ]));
//! let outcome = l2.access(0, 0x4000, false);
//! assert!(!outcome.hit);
//! ```

pub mod addr;
pub mod cache;
pub mod enforcement;
pub mod error;
pub mod geometry;
pub mod hierarchy;
pub mod mask;
pub mod policy;
pub mod stats;

pub use addr::{Addr, LineAddr};
pub use cache::{Access, AccessOutcome, BatchStats, Cache, CacheConfig};
pub use enforcement::Enforcement;
pub use error::CacheError;
pub use geometry::CacheGeometry;
pub use mask::WayMask;
pub use policy::{BtVectors, PolicyKind};
pub use stats::CacheStats;
