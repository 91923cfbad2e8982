//! Not-Recently-Used (NRU) replacement — the UltraSPARC T2 scheme.
//!
//! Every line carries one *used bit*, set on any access (hit or fill). When
//! an access would leave every used bit in scope set, all scoped bits are
//! cleared except the accessed line's (Section III-A). Victim selection uses
//! a single **cache-global replacement pointer** (one for all sets!): scan
//! forward from the pointer for a way whose used bit is clear; the pointer
//! then rotates one way forward. Because one pointer serves every set, the
//! victim is effectively random-like — the paper leans on this to explain
//! why NRU performs close to random replacement (Section V-A).
//!
//! With partitioning, the scan additionally skips ways outside the core's
//! replacement mask, and the saturation rule is applied over the owned ways
//! only.

use crate::mask::WayMask;

/// NRU state: one used bit per line plus the global replacement pointer.
#[derive(Debug, Clone)]
pub struct Nru {
    /// One u32 bitset of used bits per set.
    used: Vec<u32>,
    /// The cache-global replacement pointer (a way index, below `assoc`).
    pointer: usize,
    assoc: usize,
    /// Number of times victim search found every allowed used bit set and
    /// had to force-clear them (only possible right after a repartition).
    forced_clears: u64,
}

impl Nru {
    /// Fresh state: all used bits clear, pointer at way 0.
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        assert!((1..=32).contains(&assoc));
        Nru {
            used: vec![0; num_sets],
            pointer: 0,
            assoc,
            forced_clears: 0,
        }
    }

    /// The used-bit vector of a set (bit `w` = way `w`).
    #[inline]
    pub fn used_bits(&self, set: usize) -> u32 {
        self.used[set]
    }

    /// Is the used bit of `way` set?
    #[inline]
    pub fn is_used(&self, set: usize, way: usize) -> bool {
        (self.used[set] >> way) & 1 == 1
    }

    /// Number of used bits set in `set` (the paper's `U`, counted over the
    /// whole set — the profiling ATD is never partitioned).
    #[inline]
    pub fn used_count(&self, set: usize) -> usize {
        self.used[set].count_ones() as usize
    }

    /// Current global replacement pointer.
    #[inline]
    pub fn pointer(&self) -> usize {
        self.pointer
    }

    /// How many times the victim search had to force-clear a saturated mask.
    pub fn forced_clears(&self) -> u64 {
        self.forced_clears
    }

    /// Record an access (hit or fill) to `way`.
    ///
    /// Sets the way's used bit; if that saturates the used bits within
    /// `scope` (all 1), clears the scoped bits and re-sets the accessed
    /// line's bit. `scope` is the whole set when unpartitioned, or the
    /// accessing core's mask under partitioning.
    pub fn on_access(&mut self, set: usize, way: usize, scope: WayMask) {
        let bits = &mut self.used[set];
        *bits |= 1 << way;
        let scope_bits = scope.0 & WayMask::full(self.assoc).0;
        if scope_bits != 0 && *bits & scope_bits == scope_bits {
            *bits &= !scope_bits;
            *bits |= 1 << way;
        }
    }

    /// Find a victim among `allowed` ways: scan from the global pointer for
    /// an allowed way with a clear used bit, then rotate the pointer one way
    /// past the victim.
    ///
    /// If every allowed way has its used bit set (possible transiently after
    /// a repartition changes masks), all allowed bits are cleared first —
    /// the same recovery the access-time saturation rule performs.
    pub fn victim(&mut self, set: usize, allowed: WayMask) -> usize {
        debug_assert!(!allowed.is_empty());
        let allowed_bits = allowed.0 & WayMask::full(self.assoc).0;
        debug_assert!(allowed_bits != 0);
        if self.used[set] & allowed_bits == allowed_bits {
            self.used[set] &= !allowed_bits;
            self.forced_clears += 1;
        }
        // Branchless wrapped scan: rotate the candidate bitplane so the
        // pointer sits at bit 0, then take the first set bit. Candidate
        // bits only exist below `assoc`, so bits that wrap past position 31
        // land back on their own way index mod 32.
        let cand = allowed_bits & !self.used[set];
        debug_assert!(cand != 0, "forced clear guarantees a candidate");
        let ptr = self.pointer as u32;
        let way = ((ptr + cand.rotate_right(ptr).trailing_zeros()) & 31) as usize;
        self.pointer = if way + 1 == self.assoc { 0 } else { way + 1 };
        way
    }

    /// Reset all used bits and the pointer.
    pub fn reset(&mut self) {
        self.used.iter_mut().for_each(|b| *b = 0);
        self.pointer = 0;
        self.forced_clears = 0;
    }

    /// Associativity this state was built for.
    pub fn assoc(&self) -> usize {
        self.assoc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_sets_used_bit() {
        let mut n = Nru::new(2, 4);
        n.on_access(0, 2, WayMask::full(4));
        assert!(n.is_used(0, 2));
        assert!(!n.is_used(0, 0));
        assert!(!n.is_used(1, 2), "sets independent");
    }

    #[test]
    fn paper_figure_3a_cdd_pattern() {
        // 4-way set {A,B,C,D}; accesses C, D set both used bits; third
        // access (D again) finds U = 2 used bits.
        let mut n = Nru::new(1, 4);
        n.on_access(0, 2, WayMask::full(4)); // C
        n.on_access(0, 3, WayMask::full(4)); // D
        assert_eq!(n.used_count(0), 2);
        assert!(n.is_used(0, 3), "D's used bit already 1 on re-access");
    }

    #[test]
    fn saturation_clears_all_but_accessed() {
        let mut n = Nru::new(1, 4);
        for w in 0..3 {
            n.on_access(0, w, WayMask::full(4));
        }
        assert_eq!(n.used_count(0), 3);
        // Fourth access saturates: everything clears except way 3.
        n.on_access(0, 3, WayMask::full(4));
        assert_eq!(n.used_count(0), 1);
        assert!(n.is_used(0, 3));
    }

    #[test]
    fn saturation_scope_is_mask_under_partitioning() {
        let mut n = Nru::new(1, 8);
        // Core 0 owns ways 0..4.
        let scope = WayMask::contiguous(0, 4);
        // Two ways of the other core marked used (not enough to saturate
        // its own scope); they must survive core 0's clear.
        n.on_access(0, 4, WayMask::contiguous(4, 4));
        n.on_access(0, 5, WayMask::contiguous(4, 4));
        for w in 0..4 {
            n.on_access(0, w, scope);
        }
        // Saturating scope {0..4} cleared ways 0..3 except way 3.
        assert!(n.is_used(0, 3));
        assert!(!n.is_used(0, 0));
        assert!(n.is_used(0, 4), "other core's bits untouched");
        assert!(n.is_used(0, 5), "other core's bits untouched");
        assert!(!n.is_used(0, 6));
    }

    #[test]
    fn victim_scans_from_pointer_and_rotates() {
        let mut n = Nru::new(1, 4);
        assert_eq!(n.pointer(), 0);
        let v = n.victim(0, WayMask::full(4));
        assert_eq!(v, 0, "all clear: pointer position wins");
        assert_eq!(n.pointer(), 1, "pointer rotated past victim");
        let v2 = n.victim(0, WayMask::full(4));
        assert_eq!(v2, 1);
    }

    #[test]
    fn victim_skips_used_ways() {
        let mut n = Nru::new(1, 4);
        n.on_access(0, 0, WayMask::full(4));
        n.on_access(0, 1, WayMask::full(4));
        let v = n.victim(0, WayMask::full(4));
        assert_eq!(v, 2, "ways 0,1 used; first clear way from pointer is 2");
    }

    #[test]
    fn victim_skips_ways_outside_mask() {
        let mut n = Nru::new(1, 8);
        // Pointer at 0 but the core only owns ways 5..8.
        let v = n.victim(0, WayMask::contiguous(5, 3));
        assert_eq!(v, 5);
        assert_eq!(n.pointer(), 6);
    }

    #[test]
    fn pointer_is_global_across_sets() {
        let mut n = Nru::new(4, 4);
        let _ = n.victim(0, WayMask::full(4));
        // Next victim in a *different* set starts from the rotated pointer.
        let v = n.victim(3, WayMask::full(4));
        assert_eq!(v, 1);
    }

    #[test]
    fn pointer_wraps_around() {
        let mut n = Nru::new(1, 4);
        for _ in 0..4 {
            n.victim(0, WayMask::full(4));
        }
        assert_eq!(n.pointer(), 0);
    }

    #[test]
    fn saturated_mask_forces_clear_instead_of_hanging() {
        let mut n = Nru::new(1, 4);
        let mask = WayMask::contiguous(0, 2);
        // Saturate the mask via accesses scoped to the *other* half, so the
        // saturation rule never fires for ways 0..2.
        n.on_access(0, 0, WayMask::contiguous(2, 2));
        n.on_access(0, 1, WayMask::contiguous(2, 2));
        assert!(n.is_used(0, 0) && n.is_used(0, 1));
        let v = n.victim(0, mask);
        assert!(mask.contains(v));
        assert_eq!(n.forced_clears(), 1);
    }

    #[test]
    fn at_least_one_clear_bit_after_any_access_within_scope() {
        // Invariant the enforcement relies on: after any access the scope
        // never has all used bits set.
        let mut n = Nru::new(1, 16);
        let scope = WayMask::contiguous(4, 8);
        for i in 0..1000usize {
            let way = 4 + (i * 7 + i / 3) % 8;
            n.on_access(0, way, scope);
            let scoped = n.used_bits(0) & scope.0;
            assert_ne!(scoped, scope.0, "scope saturated after access {i}");
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut n = Nru::new(2, 4);
        n.on_access(1, 2, WayMask::full(4));
        n.victim(0, WayMask::full(4));
        n.reset();
        assert_eq!(n.used_count(1), 0);
        assert_eq!(n.pointer(), 0);
    }
}
