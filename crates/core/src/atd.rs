//! Auxiliary Tag Directory (ATD) tag storage with set sampling.
//!
//! Each thread owns an ATD: a copy of the L2 tag directory that only that
//! thread accesses, so it behaves as if the thread ran alone with the full
//! cache (Section II-A). To keep the area cost down the paper samples **1
//! of every 32 sets** (Section III): an L2 access only probes the ATD when
//! its set is sampled.
//!
//! One store serves both [`ProfilerFidelity`]s: the paper's exact tag
//! rows, or the [`CuckooFilter`] membership sketch with a per-way
//! fingerprint sidecar. Sampling, valid bits and the invalid-way search
//! are shared; only `lookup`, `fill` and `reset` depend on the fidelity.
//! The per-policy replacement metadata (LRU ranks / NRU used bits / BT
//! tree bits) lives in [`crate::profiler::Profiler`].

use crate::sketch::{CuckooFilter, ProfilerFidelity};
use cachesim::{Addr, CacheError, CacheGeometry};

/// Seed of every sketch store's filter (per-thread decorrelation comes
/// from the address streams, not the filter hash).
const SKETCH_SEED: u64 = 0x5EED_CAFE_F00D_0003;

/// Tag storage of one sampled ATD.
#[derive(Debug, Clone)]
pub struct AtdTags {
    geom: CacheGeometry,
    sample_ratio: usize,
    sampled_sets: usize,
    /// Per `atd_set * assoc + way` line.
    valid: Vec<bool>,
    rows: Rows,
}

/// What identifies each line's occupant, per fidelity.
#[derive(Debug, Clone)]
enum Rows {
    /// The paper's full tag per line.
    Exact(Vec<u64>),
    /// Membership ("is this (set, tag) resident?") in one filter per
    /// thread; way resolution ("which way?") by an exact `fp_bits`-wide
    /// fingerprint per line, the hardware replacement for the tag word.
    /// Fingerprint collisions within a set surface as wrong-way hits,
    /// the approximation the error-bound suites quantify, but a resident
    /// line always hits: fills record the fingerprint the filter stores.
    Sketch {
        filter: CuckooFilter,
        way_fp: Vec<u16>,
        /// Software-only: the filter key resident in each line, so a fill
        /// can delete the displaced occupant. Hardware has the evicted
        /// line's identity on the fill path; the area model excludes it.
        resident_key: Vec<u64>,
    },
}

/// Filter key of an `(atd_set, tag)` line.
#[inline]
fn sketch_key(atd_set: usize, tag: u64) -> u64 {
    tag ^ (atd_set as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl AtdTags {
    /// Build an ATD for a cache of shape `geom`, sampling one in
    /// `sample_ratio` sets (`sample_ratio = 1` = full ATD), at the given
    /// tag-store fidelity. Returns a one-line error for an unsupported
    /// fingerprint width or a ratio that leaves no sampled set, so
    /// config parsing can surface it instead of panicking.
    pub fn new(
        geom: CacheGeometry,
        sample_ratio: usize,
        fidelity: ProfilerFidelity,
    ) -> Result<Self, CacheError> {
        let fidelity = fidelity.validate()?;
        if sample_ratio < 1 {
            return Err(CacheError::BadGeometry {
                reason: "ATD sample ratio must be at least 1".into(),
            });
        }
        if geom.num_sets() < sample_ratio {
            return Err(CacheError::BadGeometry {
                reason: format!(
                    "ATD sample ratio {sample_ratio} leaves no sampled set \
                     ({} sets)",
                    geom.num_sets()
                ),
            });
        }
        let sampled_sets = geom.num_sets() / sample_ratio;
        let lines = sampled_sets * geom.assoc();
        let rows = match fidelity {
            ProfilerFidelity::Exact => Rows::Exact(vec![0; lines]),
            ProfilerFidelity::Sketch { fp_bits } => Rows::Sketch {
                filter: CuckooFilter::new(fp_bits, SKETCH_SEED)?,
                way_fp: vec![0; lines],
                resident_key: vec![0; lines],
            },
        };
        Ok(AtdTags {
            geom,
            sample_ratio,
            sampled_sets,
            valid: vec![false; lines],
            rows,
        })
    }

    /// The fidelity this store was built with.
    pub fn fidelity(&self) -> ProfilerFidelity {
        match &self.rows {
            Rows::Exact(_) => ProfilerFidelity::Exact,
            Rows::Sketch { filter, .. } => ProfilerFidelity::Sketch {
                fp_bits: filter.fp_bits(),
            },
        }
    }

    /// Number of sets actually present in the ATD.
    pub fn sampled_sets(&self) -> usize {
        self.sampled_sets
    }

    /// If `addr`'s set is sampled, its ATD-local set index.
    #[inline]
    pub fn sampled_set(&self, addr: Addr) -> Option<usize> {
        let set = self.geom.set_index(addr);
        if set.is_multiple_of(self.sample_ratio) {
            Some(set / self.sample_ratio)
        } else {
            None
        }
    }

    /// Tag of an address (same tag function as the L2).
    #[inline]
    pub fn tag(&self, addr: Addr) -> u64 {
        self.geom.tag(addr)
    }

    /// Find the way holding `tag` in ATD set `atd_set`.
    #[inline]
    pub fn lookup(&self, atd_set: usize, tag: u64) -> Option<usize> {
        let base = atd_set * self.geom.assoc();
        match &self.rows {
            Rows::Exact(tags) => {
                (0..self.geom.assoc()).find(|&w| self.valid[base + w] && tags[base + w] == tag)
            }
            Rows::Sketch { filter, way_fp, .. } => {
                let key = sketch_key(atd_set, tag);
                // A filter miss is authoritative (no false negatives), so
                // most ATD misses never touch the per-way sidecar.
                if !filter.contains(key) {
                    return None;
                }
                let fp = filter.key_fingerprint(key);
                (0..self.geom.assoc()).find(|&w| self.valid[base + w] && way_fp[base + w] == fp)
            }
        }
    }

    /// First invalid way of a set, if any.
    #[inline]
    pub fn invalid_way(&self, atd_set: usize) -> Option<usize> {
        let base = atd_set * self.geom.assoc();
        (0..self.geom.assoc()).find(|&w| !self.valid[base + w])
    }

    /// Install `tag` into `(atd_set, way)`, displacing any occupant.
    #[inline]
    pub fn fill(&mut self, atd_set: usize, way: usize, tag: u64) {
        let idx = atd_set * self.geom.assoc() + way;
        match &mut self.rows {
            Rows::Exact(tags) => tags[idx] = tag,
            Rows::Sketch {
                filter,
                way_fp,
                resident_key,
            } => {
                if self.valid[idx] {
                    filter.delete(resident_key[idx]);
                }
                let key = sketch_key(atd_set, tag);
                filter.insert(key);
                way_fp[idx] = filter.key_fingerprint(key);
                resident_key[idx] = key;
            }
        }
        self.valid[idx] = true;
    }

    /// Invalidate everything.
    pub fn reset(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        if let Rows::Sketch { filter, .. } = &mut self.rows {
            filter.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXACT: ProfilerFidelity = ProfilerFidelity::Exact;
    const FIDELITIES: [ProfilerFidelity; 2] = [EXACT, ProfilerFidelity::Sketch { fp_bits: 16 }];

    fn l2_geom() -> CacheGeometry {
        CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap()
    }

    fn filter_len(atd: &AtdTags) -> usize {
        match &atd.rows {
            Rows::Sketch { filter, .. } => filter.len(),
            Rows::Exact(_) => panic!("exact store has no filter"),
        }
    }

    #[test]
    fn sampling_keeps_one_in_thirty_two_sets() {
        let atd = AtdTags::new(l2_geom(), 32, EXACT).unwrap();
        assert_eq!(atd.sampled_sets(), 32);
    }

    #[test]
    fn only_multiple_of_ratio_sets_are_sampled() {
        let atd = AtdTags::new(l2_geom(), 32, EXACT).unwrap();
        let g = l2_geom();
        // Set index of addr = lines bits: set k = addr (k << 7).
        let addr_of_set = |s: u64| s << 7;
        assert_eq!(atd.sampled_set(addr_of_set(0)), Some(0));
        assert_eq!(atd.sampled_set(addr_of_set(32)), Some(1));
        assert_eq!(atd.sampled_set(addr_of_set(31)), None);
        assert_eq!(atd.sampled_set(addr_of_set(33)), None);
        assert_eq!(g.set_index(addr_of_set(32)), 32);
    }

    #[test]
    fn lookup_fill_round_trip() {
        for fidelity in FIDELITIES {
            let mut atd = AtdTags::new(l2_geom(), 32, fidelity).unwrap();
            let addr = 0x40_0000u64; // maps to set 0 (multiple of 32 sets x 128)
            let set = atd.sampled_set(addr).unwrap();
            let tag = atd.tag(addr);
            assert_eq!(atd.lookup(set, tag), None);
            let way = atd.invalid_way(set).unwrap();
            atd.fill(set, way, tag);
            assert_eq!(atd.lookup(set, tag), Some(way), "{fidelity}");
        }
    }

    #[test]
    fn full_atd_with_ratio_one() {
        let atd = AtdTags::new(l2_geom(), 1, EXACT).unwrap();
        assert_eq!(atd.sampled_sets(), 1024);
        assert!(atd.sampled_set(0x1234_5678).is_some());
    }

    #[test]
    fn reset_invalidates() {
        for fidelity in FIDELITIES {
            let mut atd = AtdTags::new(l2_geom(), 32, fidelity).unwrap();
            atd.fill(0, 0, 42);
            atd.reset();
            assert_eq!(atd.lookup(0, 42), None, "{fidelity}");
            assert_eq!(atd.fidelity(), fidelity);
        }
        let mut sketch = AtdTags::new(l2_geom(), 32, FIDELITIES[1]).unwrap();
        sketch.fill(0, 0, 42);
        sketch.reset();
        assert_eq!(filter_len(&sketch), 0, "reset empties the filter");
    }

    #[test]
    fn sketch_fill_displaces_the_old_occupant() {
        let mut atd = AtdTags::new(l2_geom(), 32, FIDELITIES[1]).unwrap();
        atd.fill(0, 0, 111);
        let old_len = filter_len(&atd);
        atd.fill(0, 0, 222);
        assert_eq!(filter_len(&atd), old_len, "displaced key must leave");
        assert_eq!(atd.lookup(0, 222), Some(0));
        assert_eq!(atd.lookup(0, 111), None, "111 was displaced");
    }

    #[test]
    fn bad_ratio_or_width_is_a_one_line_error() {
        let g = CacheGeometry::new(4096, 4, 64).unwrap(); // 16 sets
        for fidelity in FIDELITIES {
            let msg = AtdTags::new(g, 32, fidelity).unwrap_err().to_string();
            assert!(msg.contains("no sampled set"), "unexpected error: {msg}");
            assert!(!msg.contains('\n'), "error must be one line");
            let msg = AtdTags::new(g, 0, fidelity).unwrap_err().to_string();
            assert!(msg.contains("at least 1"), "unexpected error: {msg}");
        }
        let bad = ProfilerFidelity::Sketch { fp_bits: 9 };
        let msg = AtdTags::new(g, 1, bad).unwrap_err().to_string();
        assert!(msg.contains("8, 12 or 16"), "unexpected error: {msg}");
    }
}
