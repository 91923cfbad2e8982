//! Binary-Tree (BT) pseudo-LRU replacement — the IBM scheme.
//!
//! A set of `A` ways carries `A-1` tree bits arranged as a complete binary
//! tree. We use the paper's bit semantics (Section III-B):
//!
//! * bit value **1** = the more-recently-used line is in the **upper**
//!   subtree (lower way indices), so the pseudo-LRU line is in the *lower*
//!   subtree;
//! * bit value **0** = the MRU line is in the lower subtree, pseudo-LRU in
//!   the upper.
//!
//! Victim search therefore descends **upper on 0, lower on 1**. An access
//! (hit or fill) walks the accessed way's root-to-leaf path and points every
//! bit *towards* the accessed side (`log2(A)` bit updates — Table I(b)).
//!
//! Partitions are enforced by one walk, with the paper's as its reference:
//!
//! * [`Bt::victim_masked`] — the mask-guided walk the cache runs: at each
//!   node, if one half holds no allowed way the direction is forced,
//!   otherwise the tree bit decides. It enforces any mask.
//! * [`BtVectors`] — the paper's per-core `up`/`down` global vectors
//!   (Figure 5): one pair of `log2(A)`-bit vectors per core; an `up` bit at
//!   a level overrides the tree bit with "go upper", a `down` bit with "go
//!   lower". They express exactly the *aligned subtree* partitions, and on
//!   those the masked walk picks the same victim from every tree state
//!   (checked on every state up to 16 ways below, and by a property test at
//!   32). So strict BT partitions are installed as aligned-subtree masks;
//!   [`Bt::victim_vectors`] stays as the reference walk, and the
//!   unconstrained [`Bt::victim`] the profilers use runs on it.

use crate::mask::WayMask;
use serde::{Deserialize, Serialize};

/// The paper's per-core up/down override vectors (Figure 5).
///
/// Bit `l` (LSB = root level 0) of `up` forces the victim walk at tree
/// level `l` into the upper subtree; bit `l` of `down` forces it lower.
/// `up & down` must be 0 ("the partitioning logic ensures that both
/// signals cannot be equal to 1 at the same time").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct BtVectors {
    /// Force-upper bits, one per tree level from the root.
    pub up: u32,
    /// Force-lower bits, one per tree level from the root.
    pub down: u32,
}

impl BtVectors {
    /// No overrides: the plain BT walk.
    pub const FREE: BtVectors = BtVectors { up: 0, down: 0 };

    /// Derive the vectors steering the walk into the aligned subtree
    /// covered by `mask`. Returns `None` if `mask` is not an aligned
    /// subtree of an `assoc`-way tree.
    pub fn for_aligned_subtree(mask: WayMask, assoc: usize) -> Option<BtVectors> {
        if !mask.is_aligned_subtree(assoc) {
            return None;
        }
        let size = mask.count();
        let start = mask.first().unwrap();
        let levels = assoc.trailing_zeros();
        let forced_levels = levels - size.trailing_zeros();
        let mut up = 0u32;
        let mut down = 0u32;
        // The subtree's position encodes the forced directions: at level l
        // the subtree lies in the lower half iff bit (levels-1-l) of `start`
        // is set.
        for l in 0..forced_levels {
            let bit = (start >> (levels - 1 - l)) & 1;
            if bit == 1 {
                down |= 1 << l;
            } else {
                up |= 1 << l;
            }
        }
        Some(BtVectors { up, down })
    }

    /// Check the mutual-exclusion invariant.
    pub fn is_valid(&self) -> bool {
        self.up & self.down == 0
    }
}

/// Binary-tree pseudo-LRU state for a whole cache.
#[derive(Debug, Clone)]
pub struct Bt {
    /// One `A-1`-bit tree per set, packed in a u32 — a contiguous bitplane
    /// over all sets. Bit `i` is heap node `i` (0 = root; children of `i`
    /// are `2i+1`, `2i+2`).
    trees: Vec<u32>,
    /// `path_mask[way]`: the tree bits on `way`'s root-to-leaf path.
    path_mask: Vec<u32>,
    /// `mru_bits[way]`: path-bit values that point every node on `way`'s
    /// path *at* the way (its MRU promotion image).
    mru_bits: Vec<u32>,
    assoc: usize,
    levels: u32,
}

impl Bt {
    /// Fresh state: all tree bits 0.
    pub fn new(num_sets: usize, assoc: usize) -> Self {
        assert!(assoc.is_power_of_two() && (2..=32).contains(&assoc));
        let levels = assoc.trailing_zeros();
        let mut path_mask = vec![0u32; assoc];
        let mut mru_bits = vec![0u32; assoc];
        for way in 0..assoc {
            for l in 0..levels {
                let node = (1usize << l) - 1 + (way >> (levels - l));
                let dir = ((way >> (levels - 1 - l)) & 1) as u32;
                path_mask[way] |= 1 << node;
                // Going upper (dir 0) means MRU is upper -> bit 1.
                if dir == 0 {
                    mru_bits[way] |= 1 << node;
                }
            }
        }
        Bt {
            trees: vec![0; num_sets],
            path_mask,
            mru_bits,
            assoc,
            levels,
        }
    }

    /// Number of tree levels (`log2(A)`).
    #[inline]
    pub fn levels(&self) -> u32 {
        self.levels
    }

    /// Associativity this state was built for.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Raw tree bits of a set (heap order, bit 0 = root).
    #[inline]
    pub fn tree_bits(&self, set: usize) -> u32 {
        self.trees[set]
    }

    #[inline]
    fn node_bit(&self, set: usize, node: usize) -> u32 {
        (self.trees[set] >> node) & 1
    }

    /// Heap index of the node on `way`'s path at `level`.
    #[inline]
    fn node_of(&self, way: usize, level: u32) -> usize {
        (1usize << level) - 1 + (way >> (self.levels - level))
    }

    /// Record an access (hit or fill): every bit on the way's path is set
    /// to point *at* the accessed side (1 = MRU upper), promoting the line
    /// to the pseudo-MRU position. Exactly `log2(A)` bits change — applied
    /// as one masked word update from the precomputed per-way tables.
    #[inline]
    pub fn on_access(&mut self, set: usize, way: usize) {
        let tree = &mut self.trees[set];
        *tree = (*tree & !self.path_mask[way]) | self.mru_bits[way];
    }

    /// Unconstrained victim walk: upper on bit 0, lower on bit 1.
    pub fn victim(&self, set: usize) -> usize {
        self.victim_vectors(set, BtVectors::FREE)
    }

    /// Victim walk with the paper's up/down override vectors (Figure 5
    /// truth table: up=1 forces the walk upper, down=1 forces it lower,
    /// otherwise the tree bit decides).
    pub fn victim_vectors(&self, set: usize, vec: BtVectors) -> usize {
        debug_assert!(vec.is_valid());
        let mut node = 0usize;
        let mut way = 0usize;
        for l in 0..self.levels {
            let dir = if (vec.up >> l) & 1 == 1 {
                0
            } else if (vec.down >> l) & 1 == 1 {
                1
            } else {
                self.node_bit(set, node)
            };
            way = (way << 1) | dir as usize;
            node = 2 * node + 1 + dir as usize;
        }
        way
    }

    /// Generalized mask-guided victim walk: at each node, if one half of
    /// the remaining range holds no allowed way, the direction is forced
    /// into the other half; otherwise the tree bit decides.
    pub fn victim_masked(&self, set: usize, allowed: WayMask) -> usize {
        debug_assert!(!allowed.is_empty());
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        for _ in 0..self.levels {
            let mid = (lo + hi) / 2;
            let upper = allowed.and(WayMask::contiguous(lo, mid - lo));
            let lower = allowed.and(WayMask::contiguous(mid, hi - mid));
            let dir = if upper.is_empty() {
                1
            } else if lower.is_empty() {
                0
            } else {
                self.node_bit(set, node)
            };
            if dir == 0 {
                hi = mid;
            } else {
                lo = mid;
            }
            node = 2 * node + 1 + dir as usize;
        }
        debug_assert!(allowed.contains(lo));
        lo
    }

    /// The `log2(A)` tree bits along `way`'s root-to-leaf path, composed
    /// MSB-first (root = MSB). This is what the paper's BT profiling logic
    /// XORs with the identifier bits (Figure 4(b)).
    pub fn path_bits(&self, set: usize, way: usize) -> u32 {
        let mut bits = 0u32;
        for l in 0..self.levels {
            bits = (bits << 1) | self.node_bit(set, self.node_of(way, l));
        }
        bits
    }

    /// Reset all trees to 0.
    pub fn reset(&mut self) {
        self.trees.iter_mut().for_each(|t| *t = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_then_victim_never_picks_mru() {
        let mut bt = Bt::new(1, 8);
        for w in 0..8 {
            bt.on_access(0, w);
            assert_ne!(bt.victim(0), w, "victim must not be the MRU line");
        }
    }

    #[test]
    fn victim_walk_opposes_access_path() {
        let mut bt = Bt::new(1, 4);
        bt.on_access(0, 0); // MRU in the upper half
        let v = bt.victim(0);
        assert!(v >= 2, "pseudo-LRU must be in the lower half, got {v}");
        bt.on_access(0, 3);
        let v = bt.victim(0);
        assert!(v < 2, "pseudo-LRU must be in the upper half, got {v}");
    }

    #[test]
    fn paper_figure_4a_eviction_promotes_to_mru() {
        // Access pattern leaves A (way 0) as pseudo-LRU; replacing it with
        // E and promoting sets both path bits toward the upper subtree.
        let mut bt = Bt::new(1, 4);
        bt.on_access(0, 1); // B
        bt.on_access(0, 2); // C
        bt.on_access(0, 3); // D
        let v = bt.victim(0);
        assert_eq!(v, 0, "A is the pseudo-LRU line");
        bt.on_access(0, v); // fill E into way 0, promote
        assert_ne!(bt.victim(0), 0);
        // Path bits of way 0 after promotion: both point upper (value 1).
        assert_eq!(bt.path_bits(0, 0), 0b11);
    }

    #[test]
    fn exactly_log2a_bits_flip_on_access() {
        let mut bt = Bt::new(1, 16);
        // Pick a state with all bits set, then access way 0 (whose path
        // wants all-ones too: 0 flips). Use way 5 for a real flip count.
        for w in (0..16).rev() {
            bt.on_access(0, w);
        }
        let before = bt.tree_bits(0);
        bt.on_access(0, 5);
        let after = bt.tree_bits(0);
        assert!(
            (before ^ after).count_ones() <= 4,
            "at most log2(A)=4 bits may change"
        );
    }

    #[test]
    fn path_bits_mru_line_xors_to_all_ones() {
        // After accessing way w, path_bits(w) XOR w == all-ones, which the
        // profiling logic maps to stack position 1 (MRU).
        let mut bt = Bt::new(1, 16);
        for w in 0..16usize {
            bt.on_access(0, w);
            let x = bt.path_bits(0, w) ^ (w as u32);
            assert_eq!(x, 0b1111, "way {w}");
        }
    }

    #[test]
    fn path_bits_victim_line_xors_to_zero() {
        // The current pseudo-LRU way's path bits equal its ID bits.
        let mut bt = Bt::new(1, 16);
        for w in [3usize, 11, 7, 0, 15, 8] {
            bt.on_access(0, w);
        }
        let v = bt.victim(0);
        assert_eq!(bt.path_bits(0, v) ^ (v as u32), 0);
    }

    #[test]
    fn vectors_force_aligned_subtree() {
        let mut bt = Bt::new(1, 16);
        // Make the free walk want way 15.
        bt.on_access(0, 0);
        let mask = WayMask::contiguous(0, 8); // upper half
        let vec = BtVectors::for_aligned_subtree(mask, 16).unwrap();
        assert!(vec.is_valid());
        let v = bt.victim_vectors(0, vec);
        assert!(mask.contains(v), "vector walk stayed in the subtree");
    }

    #[test]
    fn vectors_match_masked_walk_on_aligned_subtrees() {
        // On every aligned subtree the paper's vector scheme and the
        // generalized masked walk pick the same victim, from every tree
        // state. 32 ways (2^31 states) is left to the property suite.
        for assoc in [2usize, 4, 8, 16] {
            let mut bt = Bt::new(1, assoc);
            let subtrees: Vec<WayMask> = (0..=assoc.trailing_zeros())
                .map(|l| 1usize << l)
                .flat_map(|size| {
                    (0..assoc)
                        .step_by(size)
                        .map(move |start| WayMask::contiguous(start, size))
                })
                .collect();
            assert_eq!(subtrees.len(), 2 * assoc - 1);
            for state in 0..1u32 << (assoc - 1) {
                bt.trees[0] = state;
                for &mask in &subtrees {
                    let vec = BtVectors::for_aligned_subtree(mask, assoc).unwrap();
                    assert_eq!(
                        bt.victim_vectors(0, vec),
                        bt.victim_masked(0, mask),
                        "{assoc} ways, tree {state:#x}, mask {mask}"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_walk_handles_non_aligned_masks() {
        let mut bt = Bt::new(1, 16);
        let mask = WayMask::contiguous(3, 7); // not a subtree
        let mut acc = 5usize;
        for step in 0..200 {
            acc = (acc * 13 + step) % 16;
            bt.on_access(0, acc);
            let v = bt.victim_masked(0, mask);
            assert!(mask.contains(v), "step {step}");
        }
    }

    #[test]
    fn for_aligned_subtree_rejects_bad_masks() {
        assert!(BtVectors::for_aligned_subtree(WayMask::contiguous(0, 10), 16).is_none());
        assert!(BtVectors::for_aligned_subtree(WayMask::contiguous(2, 4), 16).is_none());
        assert!(BtVectors::for_aligned_subtree(WayMask::EMPTY, 16).is_none());
    }

    #[test]
    fn full_mask_vectors_are_free() {
        let vec = BtVectors::for_aligned_subtree(WayMask::full(16), 16).unwrap();
        assert_eq!(vec, BtVectors::FREE);
    }

    #[test]
    fn single_way_subtree_forces_whole_path() {
        let bt = Bt::new(1, 8);
        for w in 0..8 {
            let vec = BtVectors::for_aligned_subtree(WayMask::single(w), 8).unwrap();
            assert_eq!(bt.victim_vectors(0, vec), w);
        }
    }

    #[test]
    fn two_way_assoc_works() {
        let mut bt = Bt::new(1, 2);
        bt.on_access(0, 0);
        assert_eq!(bt.victim(0), 1);
        bt.on_access(0, 1);
        assert_eq!(bt.victim(0), 0);
    }

    #[test]
    fn reset_clears_trees() {
        let mut bt = Bt::new(2, 4);
        bt.on_access(1, 3);
        bt.reset();
        assert_eq!(bt.tree_bits(1), 0);
    }
}
