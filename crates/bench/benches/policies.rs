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
//! the simulator takes for every L2 access (the id keeps its
//! historical name). Both groups run the same signature-plane kernel, so
//! the gap between them is the per-call dispatch and plumbing.
//!
//! The `l1_access` group times the private-L1 layer: one L1D stream of
//! 100k generator records through the Table II L1D shape, once on the
//! `PrivateLru` the simulator's L1s run (`private-lru`) and once on a
//! one-core LRU `Cache` (`cache-lru`), which answers every access the
//! same way.

use cachesim::hierarchy::PrivateLru;
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

fn bench_l1_access(c: &mut Criterion) {
    let l1d = cmpsim::MachineConfig::paper_baseline(1).l1d;
    let mut gen = tracegen::TraceGenerator::new(tracegen::benchmark("mcf").unwrap(), 5);
    let stream: Vec<(u64, bool)> = (0..100_000)
        .map(|_| {
            let r = gen.next_record();
            (r.addr, r.is_write)
        })
        .collect();
    let mut group = c.benchmark_group("l1_access");
    group.bench_function("private-lru", |b| {
        let mut l1 = PrivateLru::new(l1d);
        b.iter(|| {
            l1.reset();
            let mut hits = 0u64;
            for &(addr, write) in black_box(&stream) {
                hits += u64::from(l1.access(addr, write));
            }
            black_box(hits)
        })
    });
    group.bench_function("cache-lru", |b| {
        let mut l1 = Cache::new(CacheConfig {
            geometry: l1d,
            policy: PolicyKind::Lru,
            num_cores: 1,
            seed: 0,
        });
        b.iter(|| {
            l1.reset();
            let mut hits = 0u64;
            for &(addr, write) in black_box(&stream) {
                hits += u64::from(l1.access(0, addr, write).hit);
            }
            black_box(hits)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_policy_access,
    bench_masked_access,
    bench_scalar_access,
    bench_l1_access
);
criterion_main!(benches);
