//! Sketch-sampled ATD membership.
//!
//! The paper's profiler keeps one full auxiliary tag directory per core:
//! `sampled_sets x assoc` tag words per thread, which is what stops the
//! simulated machine from growing past a handful of cores. This module
//! replaces the *membership* half of the ATD with an autoscaling cuckoo
//! filter — a hardware structure storing `fp_bits`-wide fingerprints
//! instead of 47-bit tags — while the per-way replacement metadata (LRU
//! ranks / NRU used bits / BT tree bits) stays exact in the profilers.
//!
//! * [`CuckooFilter`] — a dependency-free, deterministic, bucketed
//!   2-choice cuckoo filter with 8/12/16-bit fingerprints, a bounded
//!   kick loop that triggers a doubling rebuild, and explicit delete.
//! * [`ProfilerFidelity`] — which tag store a scheme's profilers use.
//!   [`crate::atd::AtdTags`] is the one store for both: exact tag rows,
//!   or this filter plus a per-way fingerprint sidecar that answers
//!   "which way".
//!
//! The software filter stores the full 64-bit key hash per slot so that
//! delete can match exactly (no false negatives under arbitrary
//! insert/delete interleavings) and rebuilds can reinsert without
//! re-reading keys; *lookups* compare only the `fp_bits`-wide
//! fingerprint, so the measured false-positive rate is the one the
//! modelled hardware would see. The area model
//! (`hwmodel::area::sketch_atd_bytes`) counts fingerprint bits only.

use cachesim::CacheError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Slots per bucket (the classic (2,4) cuckoo-filter configuration).
const SLOTS_PER_BUCKET: usize = 4;
/// Evictions tolerated before an insert triggers a doubling rebuild.
const MAX_KICKS: usize = 256;
/// Buckets in a fresh filter — deliberately tiny (64 slots) so the
/// autoscaling path is exercised by ordinary workloads, not just tests.
const INITIAL_BUCKETS: usize = 16;
/// Salt separating the fingerprint hash from the bucket hash.
const FP_SALT: u64 = 0xC0DE_F11E_5EED_0001;
/// Salt for the deterministic kick-slot selector.
const KICK_SALT: u64 = 0xC0DE_F11E_5EED_0002;

/// SWAR 16-bit-lane constants (4 lanes per u64, one per bucket slot):
/// the low bit and the sign bit of every lane.
const LANE_LO: u64 = 0x0001_0001_0001_0001;
const LANE_HI: u64 = 0x8000_8000_8000_8000;

/// The fingerprint widths the hardware model supports.
pub const SUPPORTED_FP_BITS: [u32; 3] = [8, 12, 16];

#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Profiler fidelity
// ---------------------------------------------------------------------

/// Which tag store a profiler's ATD uses: the paper's exact tag rows or
/// the cuckoo-filter sketch with `fp_bits`-wide fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfilerFidelity {
    /// Full tag comparison (the paper's design).
    #[default]
    Exact,
    /// Cuckoo-filter membership plus a per-way fingerprint sidecar.
    Sketch {
        /// Fingerprint width: 8, 12 or 16 bits.
        fp_bits: u32,
    },
}

impl ProfilerFidelity {
    /// Validate the fingerprint width of a sketch fidelity.
    pub fn validate(self) -> Result<Self, CacheError> {
        match self {
            ProfilerFidelity::Exact => Ok(self),
            ProfilerFidelity::Sketch { fp_bits } => {
                if SUPPORTED_FP_BITS.contains(&fp_bits) {
                    Ok(self)
                } else {
                    Err(CacheError::BadGeometry {
                        reason: format!(
                            "sketch fingerprint width must be 8, 12 or 16 bits, got {fp_bits}"
                        ),
                    })
                }
            }
        }
    }
}

impl fmt::Display for ProfilerFidelity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfilerFidelity::Exact => write!(f, "exact"),
            ProfilerFidelity::Sketch { fp_bits } => write!(f, "sketch{fp_bits}"),
        }
    }
}

impl FromStr for ProfilerFidelity {
    type Err = String;

    /// Parse the scenario-axis spelling: `exact`, `sketch8`, `sketch12`
    /// or `sketch16`.
    fn from_str(s: &str) -> Result<Self, String> {
        if s == "exact" {
            return Ok(ProfilerFidelity::Exact);
        }
        if let Some(bits) = s.strip_prefix("sketch") {
            let fp_bits: u32 = bits
                .parse()
                .map_err(|_| format!("unknown profiler fidelity '{s}'"))?;
            return ProfilerFidelity::Sketch { fp_bits }
                .validate()
                .map_err(|e| e.to_string());
        }
        Err(format!(
            "unknown profiler fidelity '{s}' (expected exact, sketch8, sketch12 or sketch16)"
        ))
    }
}

// ---------------------------------------------------------------------
// Autoscaling cuckoo filter
// ---------------------------------------------------------------------

/// A deterministic, bucketed, autoscaling cuckoo filter.
///
/// Layout: `buckets x 4` slots, two candidate buckets per key
/// (`i2 = i1 XOR hash(fingerprint)`), `fp_bits`-wide fingerprints.
/// Inserts that exceed the bounded kick loop trigger a doubling rebuild
/// that reinserts every resident entry; all hashing and kick selection
/// is seed-derived, so the same insert/delete sequence always produces
/// the same capacity trajectory.
#[derive(Debug, Clone)]
pub struct CuckooFilter {
    fp_bits: u32,
    fp_mask: u64,
    seed: u64,
    /// `buckets - 1`; buckets is always a power of two.
    bucket_mask: usize,
    /// Full 64-bit key hashes, `bucket * SLOTS_PER_BUCKET + slot`.
    slots: Vec<u64>,
    occupied: Vec<bool>,
    /// One u64 per bucket: the 4 slots' fingerprints in 16-bit lanes,
    /// mirroring `slots` so a membership probe is a single load plus a
    /// SWAR compare instead of four hash reads. Free lanes hold 0 and
    /// are masked off by `occ_lanes`.
    fp_lanes: Vec<u64>,
    /// One u64 per bucket: 0xFFFF in every occupied slot's lane.
    occ_lanes: Vec<u64>,
    len: usize,
    kick_state: u64,
    rebuilds: u32,
}

impl CuckooFilter {
    /// Build an empty filter with the default (deliberately small)
    /// initial capacity. `fp_bits` must be 8, 12 or 16.
    pub fn new(fp_bits: u32, seed: u64) -> Result<Self, CacheError> {
        ProfilerFidelity::Sketch { fp_bits }.validate()?;
        Ok(CuckooFilter {
            fp_bits,
            fp_mask: (1u64 << fp_bits) - 1,
            seed,
            bucket_mask: INITIAL_BUCKETS - 1,
            slots: vec![0; INITIAL_BUCKETS * SLOTS_PER_BUCKET],
            occupied: vec![false; INITIAL_BUCKETS * SLOTS_PER_BUCKET],
            fp_lanes: vec![0; INITIAL_BUCKETS],
            occ_lanes: vec![0; INITIAL_BUCKETS],
            len: 0,
            kick_state: splitmix64(seed ^ KICK_SALT),
            rebuilds: 0,
        })
    }

    /// Fingerprint width in bits.
    pub fn fp_bits(&self) -> u32 {
        self.fp_bits
    }

    /// Resident entries (multiset count).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the filter holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot capacity at the current size.
    pub fn capacity(&self) -> usize {
        (self.bucket_mask + 1) * SLOTS_PER_BUCKET
    }

    /// Doubling rebuilds performed since construction (or [`Self::clear`]).
    pub fn rebuilds(&self) -> u32 {
        self.rebuilds
    }

    /// The full 64-bit hash a key maps to.
    #[inline]
    fn key_hash(&self, key: u64) -> u64 {
        splitmix64(key ^ self.seed)
    }

    /// Fingerprint bits of a hash (taken from the high half so they are
    /// independent of the bucket index bits).
    #[inline]
    fn fingerprint(&self, h: u64) -> u64 {
        (h >> 32) & self.fp_mask
    }

    /// The fingerprint a key would be stored under (for sidecars).
    #[inline]
    pub fn key_fingerprint(&self, key: u64) -> u16 {
        self.fingerprint(self.key_hash(key)) as u16
    }

    #[inline]
    fn home_bucket(&self, h: u64) -> usize {
        (h as usize) & self.bucket_mask
    }

    /// The partner bucket: `bucket XOR hash(fingerprint)`, an involution
    /// so either bucket recovers the other.
    #[inline]
    fn alt_bucket(&self, bucket: usize, fp: u64) -> usize {
        bucket ^ (splitmix64(fp ^ FP_SALT) as usize & self.bucket_mask)
    }

    /// Mirror a placement into the SWAR lane planes.
    #[inline]
    fn set_slot(&mut self, bucket: usize, slot: usize, h: u64) {
        let idx = bucket * SLOTS_PER_BUCKET + slot;
        self.slots[idx] = h;
        self.occupied[idx] = true;
        let sh = (slot as u32) * 16;
        self.fp_lanes[bucket] =
            (self.fp_lanes[bucket] & !(0xFFFFu64 << sh)) | (self.fingerprint(h) << sh);
        self.occ_lanes[bucket] |= 0xFFFFu64 << sh;
    }

    /// Vacate a slot in both the hash plane and the SWAR lanes.
    #[inline]
    fn clear_slot(&mut self, bucket: usize, slot: usize) {
        self.occupied[bucket * SLOTS_PER_BUCKET + slot] = false;
        let sh = (slot as u32) * 16;
        self.fp_lanes[bucket] &= !(0xFFFFu64 << sh);
        self.occ_lanes[bucket] &= !(0xFFFFu64 << sh);
    }

    #[inline]
    fn next_kick(&mut self) -> u64 {
        // xorshift64: deterministic, seed-derived, part of filter state.
        let mut x = self.kick_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.kick_state = x;
        x
    }

    /// Try to place `h` in a free slot of `bucket`.
    #[inline]
    fn try_place(&mut self, bucket: usize, h: u64) -> bool {
        let base = bucket * SLOTS_PER_BUCKET;
        for s in 0..SLOTS_PER_BUCKET {
            if !self.occupied[base + s] {
                self.set_slot(bucket, s, h);
                return true;
            }
        }
        false
    }

    /// Place `h`, kicking up to [`MAX_KICKS`] entries between their two
    /// legal buckets. On success increments `len` and returns `None`; on
    /// bound exhaustion returns the hash left in hand (the table stays
    /// consistent: every resident hash is still in one of its two
    /// buckets).
    fn place_bounded(&mut self, h: u64) -> Option<u64> {
        let i1 = self.home_bucket(h);
        let i2 = self.alt_bucket(i1, self.fingerprint(h));
        if self.try_place(i1, h) || self.try_place(i2, h) {
            self.len += 1;
            return None;
        }
        let mut cur = h;
        let r = self.next_kick();
        let mut bucket = if r & 4 == 0 { i1 } else { i2 };
        for _ in 0..MAX_KICKS {
            let slot = (self.next_kick() as usize) % SLOTS_PER_BUCKET;
            let evicted = self.slots[bucket * SLOTS_PER_BUCKET + slot];
            self.set_slot(bucket, slot, cur);
            cur = evicted;
            // The evicted entry's other legal bucket.
            bucket = self.alt_bucket(bucket, self.fingerprint(cur));
            if self.try_place(bucket, cur) {
                self.len += 1;
                return None;
            }
        }
        Some(cur)
    }

    /// Insert a key (multiset semantics: n inserts need n deletes).
    /// Autoscales by doubling when the kick loop is exhausted.
    pub fn insert(&mut self, key: u64) {
        let h = self.key_hash(key);
        let Some(pending) = self.place_bounded(h) else {
            return;
        };
        // Kick bound hit: snapshot every resident hash plus the one in
        // hand, then double until the whole set reinserts cleanly.
        let mut hashes: Vec<u64> = Vec::with_capacity(self.len + 1);
        for i in 0..self.slots.len() {
            if self.occupied[i] {
                hashes.push(self.slots[i]);
            }
        }
        hashes.push(pending);
        loop {
            let buckets = (self.bucket_mask + 1) * 2;
            self.bucket_mask = buckets - 1;
            self.slots = vec![0; buckets * SLOTS_PER_BUCKET];
            self.occupied = vec![false; buckets * SLOTS_PER_BUCKET];
            self.fp_lanes = vec![0; buckets];
            self.occ_lanes = vec![0; buckets];
            self.len = 0;
            self.rebuilds += 1;
            if hashes.iter().all(|&hh| self.place_bounded(hh).is_none()) {
                return;
            }
        }
    }

    /// Fingerprint-only membership probe — exactly what the modelled
    /// hardware does, so false positives are possible (bounded by
    /// [`analytic_fp_bound`]) but false negatives are not. A bucket is
    /// one SWAR lane compare (a single u64 against the broadcast
    /// fingerprint), so the common all-miss probe touches two words, not
    /// eight slot hashes; the home bucket is checked before the partner
    /// bucket's hash is even computed, which keeps hit probes at one
    /// `splitmix64`.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let h = self.key_hash(key);
        let fp = self.fingerprint(h);
        let bcast = fp.wrapping_mul(LANE_LO);
        let i1 = self.home_bucket(h);
        if self.bucket_has_fp(i1, bcast) {
            return true;
        }
        let i2 = self.alt_bucket(i1, fp);
        i2 != i1 && self.bucket_has_fp(i2, bcast)
    }

    /// SWAR zero-lane detect: a 16-bit lane of `fp_lanes ^ bcast` is zero
    /// exactly where the stored fingerprint matches, and `occ_lanes`
    /// masks the free slots (whose lanes hold 0 and would false-match a
    /// zero fingerprint).
    #[inline]
    fn bucket_has_fp(&self, bucket: usize, fp_bcast: u64) -> bool {
        let diff = self.fp_lanes[bucket] ^ fp_bcast;
        let zero = diff.wrapping_sub(LANE_LO) & !diff & LANE_HI;
        zero & self.occ_lanes[bucket] != 0
    }

    /// Remove one copy of a key. Matches the full stored hash (the
    /// hardware analogue deletes the entry it just evicted, whose
    /// identity it knows), so a resident key is always found and
    /// removal never corrupts another entry. Returns whether a copy was
    /// removed.
    pub fn delete(&mut self, key: u64) -> bool {
        let h = self.key_hash(key);
        let i1 = self.home_bucket(h);
        let i2 = self.alt_bucket(i1, self.fingerprint(h));
        for bucket in [i1, i2] {
            let base = bucket * SLOTS_PER_BUCKET;
            for s in 0..SLOTS_PER_BUCKET {
                if self.occupied[base + s] && self.slots[base + s] == h {
                    self.clear_slot(bucket, s);
                    self.len -= 1;
                    return true;
                }
            }
            if i2 == i1 {
                break;
            }
        }
        false
    }

    /// Empty the filter, keeping its grown capacity; the kick selector
    /// is re-seeded so cleared filters behave identically to fresh ones
    /// of the same size.
    pub fn clear(&mut self) {
        self.occupied.iter_mut().for_each(|o| *o = false);
        self.fp_lanes.iter_mut().for_each(|l| *l = 0);
        self.occ_lanes.iter_mut().for_each(|l| *l = 0);
        self.len = 0;
        self.kick_state = splitmix64(self.seed ^ KICK_SALT);
    }
}

/// The textbook false-positive bound of a (2, 4) cuckoo filter: up to
/// `2 x 4` candidate slots may match an `fp_bits`-wide fingerprint.
pub fn analytic_fp_bound(fp_bits: u32) -> f64 {
    (2 * SLOTS_PER_BUCKET) as f64 / (1u64 << fp_bits) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter(fp_bits: u32) -> CuckooFilter {
        CuckooFilter::new(fp_bits, 42).unwrap()
    }

    #[test]
    fn insert_then_contains() {
        let mut f = filter(16);
        for k in 0..40u64 {
            f.insert(k);
        }
        assert_eq!(f.len(), 40);
        for k in 0..40u64 {
            assert!(f.contains(k), "key {k} lost");
        }
    }

    #[test]
    fn autoscaling_grows_past_initial_capacity() {
        let mut f = filter(12);
        let initial = f.capacity();
        for k in 0..1000u64 {
            f.insert(k);
        }
        assert!(f.capacity() > initial, "filter never grew");
        assert!(f.rebuilds() >= 1);
        for k in 0..1000u64 {
            assert!(f.contains(k), "key {k} lost across rebuilds");
        }
    }

    #[test]
    fn delete_removes_one_copy() {
        let mut f = filter(8);
        f.insert(7);
        f.insert(7);
        assert!(f.delete(7));
        assert!(f.contains(7), "one copy must remain");
        assert!(f.delete(7));
        assert_eq!(f.len(), 0);
        assert!(!f.delete(7), "nothing left to delete");
    }

    #[test]
    fn growth_trajectory_is_deterministic() {
        let mut a = filter(8);
        let mut b = filter(8);
        let mut caps_a = Vec::new();
        let mut caps_b = Vec::new();
        for k in 0..3000u64 {
            a.insert(k.wrapping_mul(0x9E37_79B9));
            caps_a.push(a.capacity());
            b.insert(k.wrapping_mul(0x9E37_79B9));
            caps_b.push(b.capacity());
        }
        assert_eq!(caps_a, caps_b);
    }

    #[test]
    fn bad_fp_bits_is_a_one_line_error() {
        let err = CuckooFilter::new(9, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("8, 12 or 16"), "unexpected error: {msg}");
        assert!(!msg.contains('\n'), "error must be one line");
    }

    #[test]
    fn fidelity_round_trips_through_strings() {
        for s in ["exact", "sketch8", "sketch12", "sketch16"] {
            let f: ProfilerFidelity = s.parse().unwrap();
            assert_eq!(f.to_string(), s);
        }
        assert!("sketch9".parse::<ProfilerFidelity>().is_err());
        assert!("bogus".parse::<ProfilerFidelity>().is_err());
    }
}
