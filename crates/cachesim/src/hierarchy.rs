//! Two-level cache hierarchy: private L1 instruction/data caches in front
//! of one shared L2, as in the paper's baseline CMP (Figure 1).
//!
//! The hierarchy is non-inclusive and write-allocate; writebacks are not
//! modelled (the paper's timing only charges miss penalties, Table II).

use crate::addr::Addr;
use crate::cache::{Access, BatchStats, Cache, CacheConfig};
use crate::geometry::CacheGeometry;
use crate::policy::PolicyKind;

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
    pub icache: Cache,
    /// Data cache.
    pub dcache: Cache,
}

impl L1Pair {
    /// A cold pair. L1s always use true LRU (Table II) and are private:
    /// each is a one-core cache.
    pub fn new(l1i: CacheGeometry, l1d: CacheGeometry) -> Self {
        let private = |geometry| {
            Cache::new(CacheConfig {
                geometry,
                policy: PolicyKind::Lru,
                num_cores: 1,
                seed: 0,
            })
        };
        L1Pair {
            icache: private(l1i),
            dcache: private(l1d),
        }
    }

    /// Fetch `addrs` through the L1I, appending the lines that missed —
    /// as reads by `core`, in stream order — to `misses`.
    pub fn fetch(&mut self, core: usize, addrs: &[Addr], misses: &mut Vec<Access>) {
        for &a in addrs {
            // The L1I is a one-core cache (core id 0); the shared L2
            // needs the real issuing core.
            if !self.icache.access(0, a, false).hit {
                misses.push(Access::read(core, a));
            }
        }
    }

    /// A data access through the L1D; `true` on a hit.
    #[inline]
    pub fn data(&mut self, addr: Addr, write: bool) -> bool {
        self.dcache.access(0, addr, write).hit
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
        let l1_out = self.l1[core].icache.access(0, addr, false);
        if l1_out.hit {
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
