//! Criterion micro-benchmarks of the replacement policies: access-update
//! and victim-selection throughput on the paper's 16-way L2 shape. This is
//! the software analogue of Table I(b)'s activity comparison — BT touches
//! the fewest bits and should be the fastest to update.
//!
//! The `cache_access` and `cache_access_partitioned` groups drive
//! [`Cache::access_batch`] over an 8192-access chunk (one policy dispatch
//! per chunk) and are what `BENCH_*.json` baselines and the CI bench gate
//! track. The `cache_access_scalar` group runs the same stream one
//! [`Cache::access`] call at a time: the production single-access path
//! the simulator takes for most of its accesses (the id keeps its
//! historical name). Both groups run the same signature-plane kernel, so
//! the gap between them is the per-call dispatch and plumbing.

use cachesim::{Access, BatchStats, Cache, CacheConfig, CacheGeometry, PolicyKind, WayMask};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn geom() -> CacheGeometry {
    CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap()
}

/// A deterministic pseudo-random address stream.
fn addresses(n: usize) -> Vec<u64> {
    let mut acc = 0x1234_5678_9abc_def0u64;
    (0..n)
        .map(|_| {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (acc >> 8) & 0x00ff_ffff_ff80_u64
        })
        .collect()
}

/// The same stream as a batched single-core access slice.
fn access_stream(n: usize, cores: usize) -> Vec<Access> {
    addresses(n)
        .into_iter()
        .enumerate()
        .map(|(i, a)| Access::read(i % cores, a))
        .collect()
}

fn cache_for(policy: PolicyKind, num_cores: usize) -> Cache {
    Cache::new(CacheConfig {
        geometry: geom(),
        policy,
        num_cores,
        seed: 1,
    })
}

const ALL_POLICIES: [PolicyKind; 5] = PolicyKind::ALL;

fn bench_policy_access(c: &mut Criterion) {
    let accesses = access_stream(8192, 1);
    let mut group = c.benchmark_group("cache_access");
    for policy in ALL_POLICIES {
        group.bench_function(format!("{policy:?}"), |b| {
            let mut cache = cache_for(policy, 1);
            b.iter(|| {
                let mut stats = BatchStats::default();
                cache.access_batch(black_box(&accesses), &mut stats);
                black_box(stats.hits)
            })
        });
    }
    group.finish();
}

fn bench_masked_access(c: &mut Criterion) {
    let accesses = access_stream(8192, 2);
    let mut group = c.benchmark_group("cache_access_partitioned");
    for policy in [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Bt] {
        group.bench_function(format!("{policy:?}_masked"), |b| {
            let mut cache = cache_for(policy, 2);
            cache.set_enforcement(cachesim::Enforcement::masks(vec![
                WayMask::contiguous(0, 10),
                WayMask::contiguous(10, 6),
            ]));
            b.iter(|| {
                let mut stats = BatchStats::default();
                cache.access_batch(black_box(&accesses), &mut stats);
                black_box(stats.hits)
            })
        });
    }
    group.finish();
}

fn bench_scalar_access(c: &mut Criterion) {
    let addrs = addresses(8192);
    let mut group = c.benchmark_group("cache_access_scalar");
    for policy in ALL_POLICIES {
        group.bench_function(format!("{policy:?}"), |b| {
            let mut cache = cache_for(policy, 1);
            b.iter(|| {
                for &a in &addrs {
                    black_box(cache.access(0, a, false));
                }
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_policy_access,
    bench_masked_access,
    bench_scalar_access
);
criterion_main!(benches);
