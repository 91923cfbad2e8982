//! Criterion micro-benchmarks of the three profiling logics (exact LRU
//! SDH, NRU eSDH, BT eSDH) at the paper's 1-in-32 set sampling and with a
//! full ATD.

use cachesim::{CacheGeometry, PolicyKind};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use plru_core::{NruUpdateMode, Profiler, ProfilerFidelity};

fn geom() -> CacheGeometry {
    CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap()
}

fn addresses(n: usize) -> Vec<u64> {
    let mut acc = 0xdead_beef_cafe_f00du64;
    (0..n)
        .map(|_| {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (acc >> 7) & 0x3fff_ff80u64
        })
        .collect()
}

fn bench_profilers(c: &mut Criterion) {
    let addrs = addresses(8192);
    for (label, ratio) in [("sampled_1in32", 32usize), ("full_atd", 1)] {
        let mut group = c.benchmark_group(format!("profiler_{label}"));
        for kind in [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Bt] {
            group.bench_function(format!("{kind:?}"), |b| {
                let mut p = Profiler::new(
                    kind,
                    geom(),
                    ratio,
                    0.75,
                    NruUpdateMode::Scaled,
                    ProfilerFidelity::Exact,
                )
                .unwrap();
                b.iter(|| {
                    for &a in &addrs {
                        p.observe(black_box(a));
                    }
                    black_box(p.sdh().total())
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_profilers);
criterion_main!(benches);
