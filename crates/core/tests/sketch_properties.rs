//! Property-based error-bound suite for the autoscaling cuckoo filter
//! and the sketch-fidelity ATD built on it.
//!
//! The filter's contract has two halves, and the suite pins both:
//!
//! * **Hard guarantees** (must hold on every input): a resident key is
//!   never reported absent (no false negatives), deletes remove exactly
//!   one copy, growth is a pure function of the insert sequence, and a
//!   doubling rebuild preserves the full member multiset.
//! * **A quantified approximation**: lookups of *non*-members may
//!   collide with a resident fingerprint. For an `f`-bit fingerprint in
//!   4-slot buckets the classical analysis bounds the rate by
//!   `2 x 4 / 2^f` ([`analytic_fp_bound`]); the measured rate must stay
//!   within 2x of that bound at every supported width.

use plru_core::atd::AtdTags;
use plru_core::sketch::{analytic_fp_bound, CuckooFilter, ProfilerFidelity};
use proptest::prelude::*;

fn filter(fp_bits: u32) -> CuckooFilter {
    CuckooFilter::new(fp_bits, 0xD1CE_5EED).expect("supported width")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// No false negatives under arbitrary insert/delete interleavings:
    /// every key the multiset still holds is reported present, whatever
    /// order the operations arrived in and however often the filter
    /// rebuilt along the way.
    #[test]
    fn interleaved_inserts_and_deletes_never_lose_members(
        ops in proptest::collection::vec((any::<bool>(), 0u64..400), 1..600),
    ) {
        let mut f = filter(12);
        let mut live: Vec<u64> = Vec::new();
        for &(is_insert, key) in &ops {
            if is_insert {
                f.insert(key);
                live.push(key);
            } else if let Some(pos) = live.iter().position(|&k| k == key) {
                prop_assert!(f.delete(key), "resident key must delete");
                live.swap_remove(pos);
            } else {
                // Deleting a non-member may false-positive on a colliding
                // fingerprint; it must never corrupt the live members
                // (checked below), and on a true miss it returns false.
                let _ = f.delete(key);
            }
        }
        for &k in &live {
            prop_assert!(f.contains(k), "member {k} lost");
        }
    }

    /// Deterministic autoscaling: the capacity trajectory (capacity and
    /// rebuild count after every insert) is a pure function of the
    /// insert sequence — replaying the same keys gives the same
    /// trajectory, bit for bit.
    #[test]
    fn growth_trajectory_is_a_pure_function_of_the_inputs(
        keys in proptest::collection::vec(0u64..100_000, 1..500),
    ) {
        let mut a = filter(8);
        let mut b = filter(8);
        for &k in &keys {
            a.insert(k);
            b.insert(k);
            prop_assert_eq!(a.capacity(), b.capacity());
            prop_assert_eq!(a.rebuilds(), b.rebuilds());
            prop_assert_eq!(a.len(), b.len());
        }
    }

    /// Delete-then-lookup round trip: inserting twice and deleting once
    /// keeps the key present (multiset semantics); deleting the second
    /// copy of every key empties the filter.
    #[test]
    fn delete_round_trips(
        keys in proptest::collection::vec(0u64..10_000, 1..200),
    ) {
        let mut f = filter(16);
        let mut uniq = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for &k in &uniq {
            f.insert(k);
            f.insert(k);
        }
        for &k in &uniq {
            prop_assert!(f.delete(k));
            prop_assert!(f.contains(k), "second copy of {k} must survive");
        }
        for &k in &uniq {
            prop_assert!(f.delete(k));
        }
        prop_assert!(f.is_empty());
    }

    /// A doubling rebuild preserves the member set: push enough keys to
    /// force at least one autoscale past the deliberately tiny initial
    /// table, then verify every key.
    #[test]
    fn rebuild_preserves_the_member_set(
        base in 0u64..1_000_000,
        n in 100usize..400,
    ) {
        let mut f = filter(12);
        let before = f.capacity();
        for i in 0..n as u64 {
            f.insert(base + i * 7919);
        }
        prop_assert!(f.capacity() > before, "must have autoscaled");
        prop_assert!(f.rebuilds() >= 1);
        for i in 0..n as u64 {
            prop_assert!(f.contains(base + i * 7919));
        }
    }

    /// The sketch ATD inherits the no-false-negative guarantee: a filled
    /// (set, tag) is always found again until another fill displaces it.
    #[test]
    fn sketch_atd_finds_every_filled_line(
        tags in proptest::collection::vec(1u64..1_000_000, 1..64),
    ) {
        let geom = cachesim::CacheGeometry::new(4096, 8, 64).unwrap();
        let mut atd = AtdTags::new(geom, 1, ProfilerFidelity::Sketch { fp_bits: 16 }).unwrap();
        let mut uniq = tags.clone();
        uniq.sort_unstable();
        uniq.dedup();
        // Fill ways round-robin within one set, newest-first wins.
        let per_set = uniq.chunks(8).next().unwrap();
        for (w, &t) in per_set.iter().enumerate() {
            atd.fill(0, w, t);
        }
        for (w, &t) in per_set.iter().enumerate() {
            prop_assert_eq!(atd.lookup(0, t), Some(w));
        }
    }
}

/// Measured false-positive rate stays within 2x the analytic bound at
/// every supported fingerprint width. Deterministic (fixed key sets), so
/// it lives outside the proptest block.
#[test]
fn false_positive_rate_is_within_twice_the_analytic_bound() {
    for fp_bits in [8u32, 12, 16] {
        let mut f = filter(fp_bits);
        let members = 4096u64;
        for k in 0..members {
            f.insert(k);
        }
        let probes = 200_000u64;
        let mut false_hits = 0u64;
        for k in 0..probes {
            if f.contains(members + k) {
                false_hits += 1;
            }
        }
        let measured = false_hits as f64 / probes as f64;
        let bound = analytic_fp_bound(fp_bits);
        assert!(
            measured <= 2.0 * bound,
            "{fp_bits}-bit fingerprints: measured FP rate {measured:.6} \
             exceeds 2x analytic bound {bound:.6}"
        );
    }
}

/// The analytic bound itself halves with every extra fingerprint bit.
#[test]
fn analytic_bound_is_monotone_in_width() {
    assert!(analytic_fp_bound(8) > analytic_fp_bound(12));
    assert!(analytic_fp_bound(12) > analytic_fp_bound(16));
    assert!((analytic_fp_bound(8) - 8.0 / 256.0).abs() < 1e-12);
}
