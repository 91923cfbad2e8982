//! Property-based tests of the profiling logics and the SDH arithmetic.

use cachesim::{CacheGeometry, PolicyKind};
use plru_core::profiler::scaled_distance;
use plru_core::{NruUpdateMode, Profiler, ProfilerFidelity, Sdh};
use proptest::prelude::*;

fn tiny_geom() -> CacheGeometry {
    // 8 sets x 8 ways x 64 B, fully sampled.
    CacheGeometry::new(4096, 8, 64).unwrap()
}

/// A fully-sampled exact profiler of `kind` (`scale` only matters for NRU).
fn profiler(kind: PolicyKind, scale: f64) -> Profiler {
    let exact = ProfilerFidelity::Exact;
    Profiler::new(kind, tiny_geom(), 1, scale, NruUpdateMode::Scaled, exact).unwrap()
}

fn addr(set: usize, n: u64) -> u64 {
    ((n << 3) | set as u64) << 6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// SDH bookkeeping: total recorded accesses equal the register sum,
    /// and the miss curve starts at the total and ends at the miss count.
    #[test]
    fn sdh_register_accounting(
        hits in proptest::collection::vec(1usize..=8, 0..500),
        misses in 0u64..200,
    ) {
        let mut s = Sdh::new(8);
        for &d in &hits {
            s.record(d);
        }
        for _ in 0..misses {
            s.record_miss();
        }
        prop_assert_eq!(s.total(), hits.len() as u64 + misses);
        let curve = s.miss_curve();
        prop_assert_eq!(curve[0], s.total());
        prop_assert_eq!(curve[8], misses);
    }

    /// Decay halves the predicted misses at every way count (within
    /// truncation error bounded by the register count).
    #[test]
    fn decay_halves_the_curve(
        hits in proptest::collection::vec(1usize..=8, 0..500),
    ) {
        let mut s = Sdh::new(8);
        for &d in &hits {
            s.record(d);
        }
        let before = s.miss_curve();
        s.decay();
        let after = s.miss_curve();
        for w in 0..=8 {
            let half = before[w] / 2;
            prop_assert!(after[w] <= half + 9, "way {w}: {} vs {}", after[w], half);
            prop_assert!(after[w] + 9 >= half.saturating_sub(9));
        }
    }

    /// Every profiler observes every access of a fully-sampled ATD, and
    /// the SDH total plus un-recorded NRU hits equals the observation
    /// count.
    #[test]
    fn observation_counts_are_complete(
        trace in proptest::collection::vec((0usize..8, 0u64..20), 1..600),
    ) {
        let mut lru = profiler(PolicyKind::Lru, 1.0);
        let mut bt = profiler(PolicyKind::Bt, 1.0);
        for &(set, n) in &trace {
            lru.observe(addr(set, n));
            bt.observe(addr(set, n));
        }
        prop_assert_eq!(lru.observed(), trace.len() as u64);
        prop_assert_eq!(bt.observed(), trace.len() as u64);
        // LRU and BT record every observation (hit or miss).
        prop_assert_eq!(lru.sdh().total(), trace.len() as u64);
        prop_assert_eq!(bt.sdh().total(), trace.len() as u64);
    }

    /// The NRU profiler's recorded total never exceeds its observations
    /// (used-bit-0 hits are deliberately unrecorded) and its miss register
    /// matches the LRU profiler's exactly on eviction-free traces.
    #[test]
    fn nru_profiler_total_is_bounded(
        trace in proptest::collection::vec((0usize..8, 0u64..8), 1..600),
        scale in prop::sample::select(vec![1.0f64, 0.75, 0.5]),
    ) {
        let mut nru = profiler(PolicyKind::Nru, scale);
        let mut lru = profiler(PolicyKind::Lru, 1.0);
        for &(set, n) in &trace {
            nru.observe(addr(set, n));
            lru.observe(addr(set, n));
        }
        prop_assert!(nru.sdh().total() <= nru.observed());
        // 8 lines per set at 8 ways: no evictions, so ATD misses are
        // compulsory and identical across policies.
        prop_assert_eq!(nru.sdh().register(9), lru.sdh().register(9));
    }

    /// Scaled distances honour the paper's ceiling rule for every U.
    #[test]
    fn scaled_distance_ceiling_rule(u in 1usize..=16) {
        type ExpectedDistance = fn(usize) -> usize;
        let cases: Vec<(f64, ExpectedDistance)> = vec![(1.0, |u| u), (0.5, |u| u.div_ceil(2))];
        for (s, expected) in cases {
            prop_assert_eq!(scaled_distance(s, u), expected(u));
        }
    }

    /// Profiler reset is total: a reset profiler replays identically.
    #[test]
    fn reset_makes_profilers_replayable(
        trace in proptest::collection::vec((0usize..8, 0u64..24), 1..300),
    ) {
        let mut p = profiler(PolicyKind::Lru, 1.0);
        for &(set, n) in &trace {
            p.observe(addr(set, n));
        }
        let first = p.sdh().miss_curve();
        p.reset();
        for &(set, n) in &trace {
            p.observe(addr(set, n));
        }
        prop_assert_eq!(p.sdh().miss_curve(), first);
    }
}
