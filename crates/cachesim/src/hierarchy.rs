//! Two-level cache hierarchy: private L1 instruction/data caches in front
//! of one shared L2, as in the paper's baseline CMP (Figure 1).
//!
//! The hierarchy is non-inclusive and write-allocate; writebacks are not
//! modelled (the paper's timing only charges miss penalties, Table II).
//!
//! Partitioning, pseudo-LRU and profiling act only on the shared L2, a
//! [`Cache`]. The private L1s are true-LRU filters with one user, so
//! they are [`PrivateLru`]s: per-set recency rows with none of the
//! shared kernel's owner, signature or enforcement planes.

use crate::addr::Addr;
use crate::cache::{Access, BatchStats, Cache, CacheConfig};
use crate::geometry::CacheGeometry;
use crate::policy::PolicyKind;
use crate::stats::CacheStats;

/// A private true-LRU cache: per set, its resident tags in recency order
/// (MRU first) and how many there are.
///
/// True LRU's hits depend only on which lines are the set's `A` most
/// recently used, not on the ways they sit in, so the row needs no way
/// placement, sentinel tag or policy state. An access answers and counts
/// exactly like [`Cache::access`] on a one-core [`PolicyKind::Lru`]
/// `Cache` of the same geometry (property-tested against one), and
/// [`PrivateLru::stats`] reports that cache's statistics, all on core 0.
#[derive(Debug, Clone)]
pub struct PrivateLru {
    geom: CacheGeometry,
    /// `rows[set * assoc + r]`: the tag at recency rank `r` (0 = MRU);
    /// only the first `fill[set]` entries of a row are resident.
    rows: Vec<u64>,
    /// Resident lines per set, `0..=assoc`.
    fill: Vec<u8>,
    stats: CacheStats,
}

impl PrivateLru {
    /// A cold cache of `geometry`.
    pub fn new(geometry: CacheGeometry) -> Self {
        PrivateLru {
            geom: geometry,
            rows: vec![0; geometry.num_sets() * geometry.assoc()],
            fill: vec![0; geometry.num_sets()],
            stats: CacheStats::new(1),
        }
    }

    /// Access `addr`; `true` on a hit. A miss fills the line as the
    /// set's MRU, evicting its LRU line when the set is full.
    #[inline]
    pub fn access(&mut self, addr: Addr, write: bool) -> bool {
        let assoc = self.geom.assoc();
        let set = self.geom.set_index(addr);
        let tag = self.geom.tag(addr);
        let row = &mut self.rows[set * assoc..(set + 1) * assoc];
        let fill = &mut self.fill[set];
        let resident = usize::from(*fill);
        let mut hit = resident != 0 && row[0] == tag;
        if !hit {
            // Carry the new MRU tag down the row: each resident tag moves
            // one rank older, up to the accessed tag's old rank on a hit
            // or off the end of a full row (the LRU victim) on a miss.
            let mut carry = tag;
            for slot in &mut row[..resident] {
                carry = std::mem::replace(slot, carry);
                if carry == tag {
                    hit = true;
                    break;
                }
            }
            if !hit && resident < assoc {
                row[resident] = carry;
                *fill += 1;
            }
        }
        self.stats.record(0, hit, write);
        hit
    }

    /// Accumulated statistics, one core's worth.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Reset all content and statistics.
    pub fn reset(&mut self) {
        self.fill.iter_mut().for_each(|f| *f = 0);
        self.stats.reset();
    }
}

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Hit in the private L1.
    L1,
    /// L1 miss, hit in the shared L2.
    L2,
    /// Missed everywhere: went to main memory.
    Memory,
}

/// Result of a hierarchy access, including whether the shared L2 was
/// consulted (the profiling ATDs observe exactly those accesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Deepest level that serviced the access.
    pub level: MemLevel,
}

/// Per-core pair of private L1 caches.
#[derive(Debug, Clone)]
pub struct L1Pair {
    /// Instruction cache.
    pub icache: PrivateLru,
    /// Data cache.
    pub dcache: PrivateLru,
}

impl L1Pair {
    /// A cold pair. L1s always use true LRU (Table II) and are private.
    pub fn new(l1i: CacheGeometry, l1d: CacheGeometry) -> Self {
        L1Pair {
            icache: PrivateLru::new(l1i),
            dcache: PrivateLru::new(l1d),
        }
    }

    /// Fetch `addrs` through the L1I, appending the lines that missed —
    /// as reads by `core`, in stream order — to `misses`.
    #[inline]
    pub fn fetch(&mut self, core: usize, addrs: &[Addr], misses: &mut Vec<Access>) {
        for &a in addrs {
            if !self.icache.access(a, false) {
                misses.push(Access::read(core, a));
            }
        }
    }

    /// A data access through the L1D; `true` on a hit.
    #[inline]
    pub fn data(&mut self, addr: Addr, write: bool) -> bool {
        self.dcache.access(addr, write)
    }
}

/// Per-level access counts of one batched hierarchy call; enough to charge
/// miss penalties without materializing per-access outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchLevels {
    /// Accesses serviced by the private L1.
    pub l1_hits: u64,
    /// L1 misses that hit the shared L2.
    pub l2_hits: u64,
    /// Accesses that missed everywhere and went to memory.
    pub memory: u64,
}

impl BatchLevels {
    /// Accesses that reached the shared L2 (= L1 misses).
    #[inline]
    pub fn l2_accesses(&self) -> u64 {
        self.l2_hits + self.memory
    }
}

/// Reusable scratch buffer for [`Hierarchy::access_inst_batch`]: the
/// caller keeps one of these alive so batching never allocates per record.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    l1_misses: Vec<Access>,
}

impl BatchScratch {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The L2 accesses (= L1 misses, with the issuing core rewritten) of
    /// the most recent batched call, in stream order. The CPA controller's
    /// ATDs observe exactly this stream.
    #[inline]
    pub fn l2_accesses(&self) -> &[Access] {
        &self.l1_misses
    }
}

/// The full memory hierarchy of an N-core CMP.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Vec<L1Pair>,
    /// The shared L2 (public so the CPA controller can install
    /// enforcement and read statistics directly).
    pub l2: Cache,
}

impl Hierarchy {
    /// Build a hierarchy with identical private L1s per core and a shared
    /// L2. L1s always use true LRU (Table II).
    pub fn new(
        num_cores: usize,
        l1i_geom: CacheGeometry,
        l1d_geom: CacheGeometry,
        l2_geom: CacheGeometry,
        l2_policy: PolicyKind,
        seed: u64,
    ) -> Self {
        let l1 = (0..num_cores)
            .map(|_| L1Pair::new(l1i_geom, l1d_geom))
            .collect();
        let l2 = Cache::new(CacheConfig {
            geometry: l2_geom,
            policy: l2_policy,
            num_cores,
            seed,
        });
        Hierarchy { l1, l2 }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.l1.len()
    }

    /// The private L1 pair of a core.
    pub fn l1(&self, core: usize) -> &L1Pair {
        &self.l1[core]
    }

    /// Data access from `core`.
    pub fn access_data(&mut self, core: usize, addr: Addr, write: bool) -> HierarchyOutcome {
        if self.l1[core].data(addr, write) {
            return HierarchyOutcome {
                level: MemLevel::L1,
            };
        }
        let l2_out = self.l2.access(core, addr, write);
        HierarchyOutcome {
            level: if l2_out.hit {
                MemLevel::L2
            } else {
                MemLevel::Memory
            },
        }
    }

    /// Batched instruction fetch from `core`: all `addrs` run through the
    /// private L1I, and the L1 misses are forwarded — still in stream
    /// order — to the shared L2 as one batch.
    ///
    /// Behaviour (cache contents, policy state, statistics) is identical
    /// to calling [`Hierarchy::access_inst`] per address: within one batch
    /// the L1I fills happen in stream order, and the L1 and L2 are
    /// disjoint structures, so regrouping the L2 accesses after the L1
    /// pass cannot change any outcome. After the call,
    /// [`BatchScratch::l2_accesses`] holds the L2-visible stream.
    pub fn access_inst_batch(
        &mut self,
        core: usize,
        addrs: &[Addr],
        scratch: &mut BatchScratch,
    ) -> BatchLevels {
        scratch.l1_misses.clear();
        self.l1[core].fetch(core, addrs, &mut scratch.l1_misses);
        let mut l2 = BatchStats::default();
        self.l2.access_batch(&scratch.l1_misses, &mut l2);
        BatchLevels {
            l1_hits: (addrs.len() - scratch.l1_misses.len()) as u64,
            l2_hits: l2.hits,
            memory: l2.misses,
        }
    }

    /// Instruction fetch from `core`.
    pub fn access_inst(&mut self, core: usize, addr: Addr) -> HierarchyOutcome {
        if self.l1[core].icache.access(addr, false) {
            return HierarchyOutcome {
                level: MemLevel::L1,
            };
        }
        let l2_out = self.l2.access(core, addr, false);
        HierarchyOutcome {
            level: if l2_out.hit {
                MemLevel::L2
            } else {
                MemLevel::Memory
            },
        }
    }

    /// Reset all caches (content + stats).
    pub fn reset(&mut self) {
        for pair in &mut self.l1 {
            pair.icache.reset();
            pair.dcache.reset();
        }
        self.l2.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        let l1 = CacheGeometry::new(512, 2, 64).unwrap(); // 4 sets
        let l2 = CacheGeometry::new(4096, 4, 64).unwrap(); // 16 sets
        Hierarchy::new(2, l1, l1, l2, PolicyKind::Lru, 0)
    }

    #[test]
    fn first_touch_goes_to_memory() {
        let mut h = tiny();
        assert_eq!(h.access_data(0, 0x1000, false).level, MemLevel::Memory);
    }

    #[test]
    fn second_touch_hits_l1() {
        let mut h = tiny();
        h.access_data(0, 0x1000, false);
        assert_eq!(h.access_data(0, 0x1000, false).level, MemLevel::L1);
    }

    #[test]
    fn l1_victim_still_hits_l2() {
        let mut h = tiny();
        // L1 is 2-way, 4 sets: three lines in the same L1 set evict one.
        let set_stride = 64 * 4;
        let a0 = 0u64;
        h.access_data(0, a0, false);
        h.access_data(0, a0 + set_stride, false);
        h.access_data(0, a0 + 2 * set_stride, false);
        // a0 fell out of L1 but is still in the bigger L2.
        assert_eq!(h.access_data(0, a0, false).level, MemLevel::L2);
    }

    #[test]
    fn l1s_are_private_per_core() {
        let mut h = tiny();
        h.access_data(0, 0x2000, false);
        // Core 1's L1 is cold; the line is in shared L2 though.
        assert_eq!(h.access_data(1, 0x2000, false).level, MemLevel::L2);
        assert_eq!(h.access_data(1, 0x2000, false).level, MemLevel::L1);
    }

    #[test]
    fn instruction_and_data_paths_are_separate() {
        let mut h = tiny();
        h.access_inst(0, 0x3000);
        // Same address through the data path misses L1D (but hits L2).
        assert_eq!(h.access_data(0, 0x3000, false).level, MemLevel::L2);
        assert_eq!(h.l1(0).icache.stats().core(0).accesses, 1);
        assert_eq!(h.l1(0).dcache.stats().core(0).accesses, 1);
    }

    #[test]
    fn l2_sees_only_l1_misses() {
        let mut h = tiny();
        for _ in 0..10 {
            h.access_data(0, 0x4000, false);
        }
        assert_eq!(
            h.l2.stats().core(0).accesses,
            1,
            "one L1 miss, one L2 access"
        );
    }

    #[test]
    fn reset_restores_cold_hierarchy() {
        let mut h = tiny();
        h.access_data(0, 0x1000, false);
        h.reset();
        assert_eq!(h.access_data(0, 0x1000, false).level, MemLevel::Memory);
    }

    #[test]
    fn batched_inst_fetch_matches_scalar() {
        let addrs: Vec<u64> = (0..200u64)
            .map(|i| (i * 7919) % 64 * 64) // collide heavily in the tiny L1
            .collect();

        let mut scalar = tiny();
        let mut counts = BatchLevels::default();
        for &a in &addrs {
            match scalar.access_inst(0, a).level {
                MemLevel::L1 => counts.l1_hits += 1,
                MemLevel::L2 => counts.l2_hits += 1,
                MemLevel::Memory => counts.memory += 1,
            }
        }

        let mut batched = tiny();
        let mut scratch = BatchScratch::new();
        let levels = batched.access_inst_batch(0, &addrs, &mut scratch);

        assert_eq!(levels, counts);
        assert_eq!(
            scratch.l2_accesses().len() as u64,
            levels.l2_accesses(),
            "collected miss stream covers every L2 access"
        );
        assert_eq!(
            scalar.l1(0).icache.stats(),
            batched.l1(0).icache.stats(),
            "L1I statistics bit-identical"
        );
        assert_eq!(scalar.l2.stats(), batched.l2.stats());
    }
}
