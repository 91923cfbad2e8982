//! Per-core cache access statistics.

use serde::{Deserialize, Serialize};

/// Counters for one core at one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Total accesses (hits + misses).
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Write accesses (subset of `accesses`).
    pub writes: u64,
    /// Valid lines this core evicted that belonged to *another* core
    /// (inter-thread interference events).
    pub cross_evictions: u64,
}

impl CoreStats {
    /// Miss rate in [0, 1]; 0 for zero accesses.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Component-wise difference (for interval statistics).
    pub fn diff(&self, earlier: &CoreStats) -> CoreStats {
        CoreStats {
            accesses: self.accesses - earlier.accesses,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            writes: self.writes - earlier.writes,
            cross_evictions: self.cross_evictions - earlier.cross_evictions,
        }
    }
}

/// Statistics for a whole cache: one [`CoreStats`] per core.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    per_core: Vec<CoreStats>,
}

impl CacheStats {
    /// Zeroed statistics for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        CacheStats {
            per_core: vec![CoreStats::default(); num_cores],
        }
    }

    /// Record one access outcome.
    #[inline]
    pub fn record(&mut self, core: usize, hit: bool, write: bool) {
        let s = &mut self.per_core[core];
        s.accesses += 1;
        s.hits += u64::from(hit);
        s.misses += u64::from(!hit);
        s.writes += u64::from(write);
    }

    /// Record that `core` evicted a line owned by another core.
    #[inline]
    pub fn record_cross_eviction(&mut self, core: usize) {
        self.per_core[core].cross_evictions += 1;
    }

    /// Stats of one core.
    pub fn core(&self, core: usize) -> &CoreStats {
        &self.per_core[core]
    }

    /// All cores.
    pub fn cores(&self) -> &[CoreStats] {
        &self.per_core
    }

    /// Summed stats over all cores.
    pub fn total(&self) -> CoreStats {
        let mut t = CoreStats::default();
        for s in &self.per_core {
            t.accesses += s.accesses;
            t.hits += s.hits;
            t.misses += s.misses;
            t.writes += s.writes;
            t.cross_evictions += s.cross_evictions;
        }
        t
    }

    /// Snapshot for interval accounting.
    pub fn snapshot(&self) -> CacheStats {
        self.clone()
    }

    /// Per-core difference against an earlier snapshot.
    pub fn diff(&self, earlier: &CacheStats) -> CacheStats {
        assert_eq!(self.per_core.len(), earlier.per_core.len());
        CacheStats {
            per_core: self
                .per_core
                .iter()
                .zip(&earlier.per_core)
                .map(|(now, then)| now.diff(then))
                .collect(),
        }
    }

    /// Reset all counters.
    pub fn reset(&mut self) {
        for s in &mut self.per_core {
            *s = CoreStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_splits_hits_and_misses() {
        let mut st = CacheStats::new(2);
        st.record(0, true, false);
        st.record(0, false, true);
        st.record(1, false, false);
        assert_eq!(st.core(0).accesses, 2);
        assert_eq!(st.core(0).hits, 1);
        assert_eq!(st.core(0).misses, 1);
        assert_eq!(st.core(0).writes, 1);
        assert_eq!(st.core(1).misses, 1);
    }

    #[test]
    fn miss_rate_handles_zero_accesses() {
        assert_eq!(CoreStats::default().miss_rate(), 0.0);
        let mut st = CacheStats::new(1);
        st.record(0, false, false);
        assert_eq!(st.core(0).miss_rate(), 1.0);
    }

    #[test]
    fn totals_sum_cores() {
        let mut st = CacheStats::new(3);
        for c in 0..3 {
            st.record(c, c % 2 == 0, false);
        }
        let t = st.total();
        assert_eq!(t.accesses, 3);
        assert_eq!(t.hits, 2);
        assert_eq!(t.misses, 1);
    }

    #[test]
    fn diff_gives_interval_counts() {
        let mut st = CacheStats::new(1);
        st.record(0, true, false);
        let snap = st.snapshot();
        st.record(0, false, false);
        st.record(0, false, false);
        let d = st.diff(&snap);
        assert_eq!(d.core(0).accesses, 2);
        assert_eq!(d.core(0).misses, 2);
        assert_eq!(d.core(0).hits, 0);
    }

    #[test]
    fn cross_evictions_tracked() {
        let mut st = CacheStats::new(2);
        st.record_cross_eviction(1);
        assert_eq!(st.core(1).cross_evictions, 1);
        assert_eq!(st.total().cross_evictions, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut st = CacheStats::new(1);
        st.record(0, false, true);
        st.reset();
        assert_eq!(st.core(0), &CoreStats::default());
    }
}
