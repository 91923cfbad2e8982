//! Property-based tests of the trace generator: determinism and
//! statistical targets.

use proptest::prelude::*;
use tracegen::{benchmark, benchmark_names, MemRecord, TraceGenerator};

fn bench_name() -> impl Strategy<Value = &'static str> {
    prop::sample::select(benchmark_names())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The generator is a pure function of (profile, seed).
    #[test]
    fn generation_is_deterministic(name in bench_name(), seed in 0u64..10_000) {
        let p = benchmark(name).unwrap();
        let a: Vec<MemRecord> = TraceGenerator::new(p.clone(), seed).take(400).collect();
        let b: Vec<MemRecord> = TraceGenerator::new(p, seed).take(400).collect();
        prop_assert_eq!(a, b);
    }

    /// The measured memory-instruction ratio converges to the profile's.
    #[test]
    fn mem_ratio_converges(name in bench_name(), seed in 0u64..100) {
        let p = benchmark(name).unwrap();
        let target = p.mem_ratio;
        let mut g = TraceGenerator::new(p, seed);
        let n = 30_000u64;
        let mut insts = 0u64;
        for _ in 0..n {
            insts += g.next_record().instructions();
        }
        let measured = n as f64 / insts as f64;
        prop_assert!(
            (measured - target).abs() < 0.03,
            "{name}: measured {measured}, target {target}"
        );
    }

    /// Write fraction converges to the profile's.
    #[test]
    fn write_frac_converges(name in bench_name(), seed in 0u64..100) {
        let p = benchmark(name).unwrap();
        let target = p.write_frac;
        let mut g = TraceGenerator::new(p, seed);
        let n = 30_000usize;
        let writes = (0..n).filter(|_| g.next_record().is_write).count();
        let measured = writes as f64 / n as f64;
        prop_assert!((measured - target).abs() < 0.03, "{name}");
    }

    /// Addresses stay line-aligned (the generator emits line-granular
    /// traffic; the core model relies on it for fetch accounting).
    #[test]
    fn addresses_are_line_aligned(name in bench_name(), seed in 0u64..100) {
        let p = benchmark(name).unwrap();
        let mut g = TraceGenerator::new(p, seed);
        for _ in 0..2000 {
            prop_assert_eq!(g.next_record().addr % 128, 0);
        }
    }
}

/// Long-horizon check: every benchmark keeps producing records at a
/// bounded memory footprint (no unbounded state growth besides the
/// streaming frontier).
#[test]
fn generators_run_long_without_blowup() {
    for name in benchmark_names() {
        let p = benchmark(name).unwrap();
        let mut g = TraceGenerator::new(p, 1);
        let mut insts = 0u64;
        for _ in 0..200_000 {
            insts += g.next_record().instructions();
        }
        assert!(insts > 200_000, "{name} made no progress");
    }
}
