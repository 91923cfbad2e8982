//! Replacement policies: true LRU, NRU (UltraSPARC T2), Binary-Tree
//! pseudo-LRU (IBM), and two reference policies — seeded random and FIFO.
//!
//! Each policy owns exactly the per-set replacement state the paper's
//! Table I accounts for:
//!
//! | policy | state per set                  | extra global state            |
//! |--------|--------------------------------|-------------------------------|
//! | LRU    | `A * log2(A)` bits (ranks)     | —                             |
//! | NRU    | `A` used bits                  | one `log2(A)`-bit repl pointer|
//! | BT     | `A - 1` tree bits              | per-core up/down vectors      |
//! | FIFO   | one `log2(A)`-bit fill pointer | —                             |
//!
//! BT's up/down vectors are the paper's enforcement hardware, which
//! `hwmodel` prices. The cache enforces the same aligned-subtree
//! partitions with way masks: on such a mask [`Bt::victim_masked`] picks
//! the victim [`Bt::victim_vectors`] would.
//!
//! The policies expose their raw state (`stack_position`, `used_bits`,
//! `path_bits`, …) because the paper's *profiling logics* read exactly that
//! state out of the Auxiliary Tag Directory.

mod bt;
mod fifo;
mod lru;
mod nru;
mod random;

pub use bt::{Bt, BtVectors};
pub use fifo::Fifo;
pub use lru::Lru;
pub use nru::Nru;
pub use random::RandomRepl;

use crate::error::CacheError;
use crate::mask::WayMask;
use serde::{Deserialize, Serialize};

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// True Least-Recently-Used. `A*log2(A)` bits/set.
    Lru,
    /// Not-Recently-Used used-bit scheme with a single cache-global
    /// replacement pointer (Sun UltraSPARC T2).
    Nru,
    /// Binary-tree pseudo-LRU (IBM). Requires power-of-two associativity.
    Bt,
    /// Uniform-random victim selection (reference; the paper notes NRU
    /// behaves "random-like" because of the shared pointer).
    Random,
    /// First-In First-Out via a per-set fill pointer (reference;
    /// recency-blind counterpart to the pseudo-LRU schemes).
    Fifo,
}

impl PolicyKind {
    /// Every registered replacement policy, in registry order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Lru,
        PolicyKind::Nru,
        PolicyKind::Bt,
        PolicyKind::Random,
        PolicyKind::Fifo,
    ];

    /// Short name used in config acronyms (`L`, `N`, `BT`, `R`, `F`).
    pub fn acronym(self) -> &'static str {
        match self {
            PolicyKind::Lru => "L",
            PolicyKind::Nru => "N",
            PolicyKind::Bt => "BT",
            PolicyKind::Random => "R",
            PolicyKind::Fifo => "F",
        }
    }

    /// Validate that the policy supports an associativity.
    pub fn validate_assoc(self, assoc: usize) -> Result<(), CacheError> {
        if assoc == 0 || assoc > 32 {
            return Err(CacheError::UnsupportedAssociativity {
                policy: self.acronym(),
                assoc,
            });
        }
        // The tree needs at least one internal node (`Bt::new` asserts
        // `2..=32`), so a 1-way BT cache must be rejected here, not panic.
        if self == PolicyKind::Bt && (assoc < 2 || !assoc.is_power_of_two()) {
            return Err(CacheError::UnsupportedAssociativity {
                policy: "BT",
                assoc,
            });
        }
        Ok(())
    }
}

/// Runtime-dispatched replacement state for one cache.
///
/// A plain enum (rather than `Box<dyn>`): the cache matches on it once
/// per call and then runs its monomorphized kernel against the variant's
/// [`ReplKernel`] implementation.
#[derive(Debug, Clone)]
pub(crate) enum PolicyState {
    /// True LRU state.
    Lru(Lru),
    /// NRU state.
    Nru(Nru),
    /// Binary-tree state.
    Bt(Bt),
    /// Random-replacement state.
    Random(RandomRepl),
    /// FIFO state.
    Fifo(Fifo),
}

impl PolicyState {
    /// Construct fresh state for `num_sets` sets of `assoc` ways.
    pub(crate) fn new(kind: PolicyKind, num_sets: usize, assoc: usize, seed: u64) -> Self {
        kind.validate_assoc(assoc)
            .expect("policy/associativity combination already validated");
        match kind {
            PolicyKind::Lru => PolicyState::Lru(Lru::new(num_sets, assoc)),
            PolicyKind::Nru => PolicyState::Nru(Nru::new(num_sets, assoc)),
            PolicyKind::Bt => PolicyState::Bt(Bt::new(num_sets, assoc)),
            PolicyKind::Random => PolicyState::Random(RandomRepl::new(num_sets, assoc, seed)),
            PolicyKind::Fifo => PolicyState::Fifo(Fifo::new(num_sets, assoc)),
        }
    }

    /// Reset all replacement state (used between experiment runs).
    pub(crate) fn reset(&mut self) {
        match self {
            PolicyState::Lru(p) => p.reset(),
            PolicyState::Nru(p) => p.reset(),
            PolicyState::Bt(p) => p.reset(),
            PolicyState::Random(p) => p.reset(),
            PolicyState::Fifo(p) => p.reset(),
        }
    }
}

/// The monomorphic face of a replacement policy, as seen by the cache's
/// access kernel.
///
/// [`Cache::access`](crate::Cache::access) and
/// [`Cache::access_batch`](crate::Cache::access_batch) dispatch on
/// [`PolicyState`] **once per call** and then run the monomorphized
/// per-access kernel against one of these implementations, so inside the
/// kernel a policy update is a direct inlined call instead of an enum
/// match. Both entry points run the same kernel, which is what makes the
/// batched path bit-identical to single accesses by construction.
pub(crate) trait ReplKernel {
    /// Record an access (hit or fill) to `way` of `set` under `scope`
    /// (only NRU's saturation rule consults the scope).
    fn touch(&mut self, set: usize, way: usize, scope: WayMask);

    /// Choose a victim among `allowed` valid ways of `set`.
    fn pick(&mut self, set: usize, allowed: WayMask) -> usize;
}

impl ReplKernel for Lru {
    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize, _scope: WayMask) {
        self.on_access(set, way);
    }

    #[inline(always)]
    fn pick(&mut self, set: usize, allowed: WayMask) -> usize {
        self.victim(set, allowed)
    }
}

impl ReplKernel for Nru {
    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize, scope: WayMask) {
        self.on_access(set, way, scope);
    }

    #[inline(always)]
    fn pick(&mut self, set: usize, allowed: WayMask) -> usize {
        self.victim(set, allowed)
    }
}

impl ReplKernel for Bt {
    #[inline(always)]
    fn touch(&mut self, set: usize, way: usize, _scope: WayMask) {
        self.on_access(set, way);
    }

    #[inline(always)]
    fn pick(&mut self, set: usize, allowed: WayMask) -> usize {
        self.victim_masked(set, allowed)
    }
}

impl ReplKernel for RandomRepl {
    #[inline(always)]
    fn touch(&mut self, _set: usize, _way: usize, _scope: WayMask) {}

    #[inline(always)]
    fn pick(&mut self, set: usize, allowed: WayMask) -> usize {
        self.victim(set, allowed)
    }
}

impl ReplKernel for Fifo {
    #[inline(always)]
    fn touch(&mut self, _set: usize, _way: usize, _scope: WayMask) {}

    #[inline(always)]
    fn pick(&mut self, set: usize, allowed: WayMask) -> usize {
        self.victim(set, allowed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bt_rejects_non_power_of_two_assoc() {
        assert!(PolicyKind::Bt.validate_assoc(12).is_err());
        assert!(PolicyKind::Bt.validate_assoc(16).is_ok());
    }

    #[test]
    fn lru_accepts_odd_assoc() {
        assert!(PolicyKind::Lru.validate_assoc(5).is_ok());
        assert!(PolicyKind::Nru.validate_assoc(5).is_ok());
    }

    #[test]
    fn zero_and_oversized_assoc_rejected_for_all() {
        for k in PolicyKind::ALL {
            assert!(k.validate_assoc(0).is_err());
            assert!(k.validate_assoc(33).is_err());
        }
    }

    #[test]
    fn every_policy_yields_victims_within_mask() {
        fn check<P: ReplKernel>(kind: PolicyKind, p: &mut P) {
            let assoc = 16;
            let mask = WayMask::contiguous(4, 4);
            // Touch every way once so state is non-trivial.
            for w in 0..assoc {
                p.touch(3, w, WayMask::full(assoc));
            }
            for _ in 0..64 {
                let v = p.pick(3, mask);
                assert!(mask.contains(v), "{kind:?} escaped its mask: way {v}");
                p.touch(3, v, WayMask::full(assoc));
            }
        }
        for kind in PolicyKind::ALL {
            match PolicyState::new(kind, 8, 16, 7) {
                PolicyState::Lru(mut p) => check(kind, &mut p),
                PolicyState::Nru(mut p) => check(kind, &mut p),
                PolicyState::Bt(mut p) => check(kind, &mut p),
                PolicyState::Random(mut p) => check(kind, &mut p),
                PolicyState::Fifo(mut p) => check(kind, &mut p),
            }
        }
    }
}
