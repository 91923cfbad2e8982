//! First-In First-Out replacement.
//!
//! Each set carries one `log2(A)`-bit *fill pointer* naming the next
//! victim way. A fresh set fills its invalid ways in way order (the cache
//! prefers invalid ways before asking the policy), so once the set is
//! warm the pointer — starting at way 0 — always names the oldest-filled
//! line: evict it, advance the pointer one way, and the ways cycle in
//! exactly fill order. Hits touch nothing; FIFO is completely insensitive
//! to recency, which is what makes it a useful reference point next to
//! the recency-driven LRU/NRU/BT policies.
//!
//! Under a replacement mask the walk takes the first *allowed* way at or
//! cyclically after the pointer, which degrades gracefully to round-robin
//! over the allowed ways. That case is reachable only through partition
//! enforcement, and FIFO has no profiling logic, so the scheme registry
//! (`plru-core`) registers it as a bare, non-partitionable policy.

use crate::mask::WayMask;

/// FIFO state: one per-set fill pointer (a way index).
#[derive(Debug, Clone)]
pub struct Fifo {
    /// `ptr[set]` = next victim way of the set's fill cycle.
    ptr: Vec<u8>,
    assoc: usize,
}

impl Fifo {
    /// Fresh state: every pointer at way 0, matching the invalid-fill
    /// order of a cold set.
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        assert!((1..=32).contains(&assoc));
        Fifo {
            ptr: vec![0; num_sets],
            assoc,
        }
    }

    /// The set's fill pointer (the way its next victim search starts at).
    #[inline]
    pub fn pointer(&self, set: usize) -> usize {
        usize::from(self.ptr[set])
    }

    /// The first allowed way at or cyclically after the fill pointer; the
    /// pointer then advances one way past the victim.
    #[inline]
    pub fn victim(&mut self, set: usize, allowed: WayMask) -> usize {
        debug_assert!(!allowed.is_empty());
        let p = usize::from(self.ptr[set]);
        // Ways at or after the pointer first, wrapping to the mask's
        // lowest way when none remain this lap.
        let ahead = allowed.0 & (u32::MAX << p);
        let way = if ahead != 0 {
            ahead.trailing_zeros() as usize
        } else {
            allowed.0.trailing_zeros() as usize
        };
        debug_assert!(way < self.assoc, "allowed ways lie below the associativity");
        self.ptr[set] = if way + 1 == self.assoc {
            0
        } else {
            way as u8 + 1
        };
        way
    }

    /// Reset every pointer to the cold position.
    pub fn reset(&mut self) {
        self.ptr.iter_mut().for_each(|p| *p = 0);
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
    fn full_mask_victims_cycle_in_way_order() {
        let mut f = Fifo::new(2, 4);
        let full = WayMask::full(4);
        for lap in 0..3 {
            for w in 0..4 {
                assert_eq!(f.victim(0, full), w, "lap {lap}");
            }
        }
        assert_eq!(f.pointer(1), 0, "sets are independent");
    }

    #[test]
    fn masked_victims_round_robin_within_the_mask() {
        let mut f = Fifo::new(1, 8);
        let m = WayMask::contiguous(2, 3); // ways 2, 3, 4
        let seq: Vec<usize> = (0..6).map(|_| f.victim(0, m)).collect();
        assert_eq!(seq, vec![2, 3, 4, 2, 3, 4]);
    }

    #[test]
    fn pointer_wraps_past_the_mask() {
        let mut f = Fifo::new(1, 4);
        // Drive the pointer to way 3, then restrict to ways 0..2.
        assert_eq!(f.victim(0, WayMask::single(3)), 3);
        assert_eq!(f.pointer(0), 0);
        assert_eq!(f.victim(0, WayMask::single(2)), 2);
        // Pointer now at 3; mask {0,1} has nothing ahead -> wrap to 0.
        assert_eq!(f.victim(0, WayMask::contiguous(0, 2)), 0);
    }

    #[test]
    fn reset_restores_cold_pointers() {
        let mut f = Fifo::new(2, 4);
        f.victim(1, WayMask::full(4));
        f.reset();
        assert_eq!(f.pointer(1), 0);
    }
}
