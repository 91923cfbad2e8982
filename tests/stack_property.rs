//! Cross-crate property tests of the profiling logic, centred on the LRU
//! stack property (Mattson et al.) that the whole SDH approach rests on,
//! and on the paper's bounds for the eSDH estimates.

use plru_core::{NruUpdateMode, ProfilerFidelity};
use plru_repro::prelude::*;
use proptest::prelude::*;

/// A small fully-sampled geometry: 8 sets x 8 ways x 64 B lines.
fn tiny_geom() -> CacheGeometry {
    CacheGeometry::new(4096, 8, 64).unwrap()
}

/// A fully-sampled exact profiler of `kind` (`scale` only matters for NRU).
fn profiler(kind: PolicyKind, geom: CacheGeometry, scale: f64) -> Profiler {
    let exact = ProfilerFidelity::Exact;
    Profiler::new(kind, geom, 1, scale, NruUpdateMode::Scaled, exact).unwrap()
}

/// Byte address of the n-th distinct line mapping to `set` (8 sets).
fn addr_in(set: usize, n: u64) -> u64 {
    ((n << 3) | set as u64) << 6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stack property: for any trace and any way count `w`, the SDH's
    /// predicted miss count equals the measured miss count of a real
    /// w-way LRU cache over the same trace.
    #[test]
    fn lru_sdh_predicts_every_way_count(
        trace in proptest::collection::vec((0usize..8, 0u64..24), 200..2000),
        ways in 1usize..=8,
    ) {
        let mut profiler = profiler(PolicyKind::Lru, tiny_geom(), 1.0);
        let geom = CacheGeometry::new(64 * 8 * ways as u64, ways, 64).unwrap();
        prop_assert_eq!(geom.num_sets(), 8);
        let mut cache = Cache::new(CacheConfig {
            geometry: geom,
            policy: PolicyKind::Lru,
            num_cores: 1,
            seed: 0,
        });
        let mut misses = 0u64;
        for &(set, n) in &trace {
            let a = addr_in(set, n);
            profiler.observe(a);
            if !cache.access(0, a, false).hit {
                misses += 1;
            }
        }
        prop_assert_eq!(profiler.sdh().misses_with_ways(ways), misses);
    }

    /// eSDH curves are monotone non-increasing in the way count — the
    /// property MinMisses needs to be meaningful.
    #[test]
    fn esdh_curves_are_monotone(
        trace in proptest::collection::vec((0usize..8, 0u64..32), 200..1500),
        scale in prop::sample::select(vec![1.0f64, 0.75, 0.5]),
    ) {
        let mut nru = profiler(PolicyKind::Nru, tiny_geom(), scale);
        let mut bt = profiler(PolicyKind::Bt, tiny_geom(), 1.0);
        for &(set, n) in &trace {
            let a = addr_in(set, n);
            nru.observe(a);
            bt.observe(a);
        }
        for curve in [nru.sdh().miss_curve(), bt.sdh().miss_curve()] {
            for w in 1..curve.len() {
                prop_assert!(curve[w] <= curve[w - 1]);
            }
        }
    }

    /// All three profilers agree exactly on the number of ATD misses
    /// (cold/capacity misses are policy-estimation-free: a tag either is
    /// or is not present)... for single-set traces where the replacement
    /// decisions cannot diverge before the set fills.
    #[test]
    fn cold_miss_counts_agree_until_first_eviction(
        lines in proptest::collection::vec(0u64..8, 1..64),
    ) {
        // All lines fit in one 8-way set: no evictions ever, so the miss
        // register must equal the number of distinct lines for every
        // profiler.
        let mut lru = profiler(PolicyKind::Lru, tiny_geom(), 1.0);
        let mut nru = profiler(PolicyKind::Nru, tiny_geom(), 0.75);
        let mut bt = profiler(PolicyKind::Bt, tiny_geom(), 1.0);
        let mut distinct = std::collections::HashSet::new();
        for &n in &lines {
            let a = addr_in(0, n);
            lru.observe(a);
            nru.observe(a);
            bt.observe(a);
            distinct.insert(n);
        }
        let expected = distinct.len() as u64;
        prop_assert_eq!(lru.sdh().register(9), expected);
        prop_assert_eq!(nru.sdh().register(9), expected);
        prop_assert_eq!(bt.sdh().register(9), expected);
    }
}

/// Deterministic check that the estimated curves track the exact curve's
/// shape on a realistic stream (the paper's enabling observation).
#[test]
fn esdh_tracks_sdh_shape_on_a_real_benchmark() {
    let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap();
    let mut lru = profiler(PolicyKind::Lru, geom, 1.0);
    let mut nru = profiler(PolicyKind::Nru, geom, 0.75);
    let mut bt = profiler(PolicyKind::Bt, geom, 1.0);

    let mut gen = TraceGenerator::new(benchmark("twolf").unwrap(), 11);
    for _ in 0..300_000 {
        let rec = gen.next_record();
        lru.observe(rec.addr);
        nru.observe(rec.addr);
        bt.observe(rec.addr);
    }
    let exact = lru.sdh().miss_curve();
    for (label, est) in [
        ("NRU", nru.sdh().miss_curve()),
        ("BT", bt.sdh().miss_curve()),
    ] {
        // Identical totals are not expected; correlated *shape* is: the
        // estimated curve must be strictly informative (not flat) and its
        // knee must sit within the right half of the way axis relative to
        // the exact knee. The NRU eSDH systematically shifts the knee
        // right (it overestimates distances — exactly the error the
        // paper's scaling factor exists to correct), so the tolerance is
        // generous.
        let knee = |c: &[u64]| {
            let thresh = c[0] * 6 / 10;
            (0..c.len()).find(|&w| c[w] <= thresh).unwrap_or(c.len())
        };
        let k_exact = knee(&exact) as i64;
        let k_est = knee(&est) as i64;
        assert!(
            (k_exact - k_est).abs() <= 8,
            "{label} knee {k_est} too far from exact {k_exact}\nexact {exact:?}\nest   {est:?}"
        );
        assert!(est[16] < est[0], "{label} curve is flat: {est:?}");
    }
}
