//! Tag-store drain rates: the exact full-tag ATD against the sketch8
//! cuckoo-filter ATD, at 16 and 32 ways.
//!
//! Two drains per (fidelity, assoc) point, matching how CPA actually
//! exercises the store:
//!
//! * **probe**: a full store faces a miss-heavy lookup stream — the
//!   common case at 1-in-32 sampling, where most sampled probes miss.
//!   The exact ATD scans every way's 64-bit tag; the sketch answers most
//!   misses from the cuckoo filter alone (a no-false-negative miss never
//!   touches the per-way sidecar), which is what lets the sketch probe
//!   hold the line at 16 ways and pull ahead at 32.
//! * **fill**: the same stream installed round-robin, the victim path.
//!   Here the sketch pays for its filter maintenance (delete the
//!   displaced key, insert the new one), so fill is expected to trail
//!   exact — recorded honestly so the gate catches the probe path
//!   regressing to fill-path cost.

use cachesim::CacheGeometry;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use plru_core::atd::AtdTags;
use plru_core::ProfilerFidelity;

/// L2 geometries at the two associativities; same 1024-set, 128-byte-line
/// plane so only the way count differs.
fn geom(assoc: usize) -> CacheGeometry {
    CacheGeometry::new(assoc as u64 * 1024 * 128, assoc, 128).unwrap()
}

/// Miss-heavy address stream: the profilers bench's LCG, whose tags are
/// effectively random, so virtually every probe of a full store misses.
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

/// A store with every (set, way) resident, so probes measure the miss
/// scan, not the invalid-way early-out.
fn full_store(assoc: usize, fidelity: ProfilerFidelity) -> AtdTags {
    let g = geom(assoc);
    let mut store = AtdTags::new(g, 1, fidelity).unwrap();
    for set in 0..store.sampled_sets() {
        for way in 0..assoc {
            // Tags disjoint from the LCG stream's range: the drain misses.
            store.fill(set, way, 0x8000_0000_0000 + (set * assoc + way) as u64);
        }
    }
    store
}

fn bench_atd_probe(c: &mut Criterion) {
    let addrs = addresses(8192);
    let mut group = c.benchmark_group("atd_probe");
    let fidelities = [
        ("exact", ProfilerFidelity::Exact),
        ("sketch8", ProfilerFidelity::Sketch { fp_bits: 8 }),
    ];
    for assoc in [16usize, 32] {
        for (label, fidelity) in fidelities {
            group.bench_function(format!("probe-{label}-a{assoc}"), |b| {
                let store = full_store(assoc, fidelity);
                b.iter(|| {
                    let mut hits = 0usize;
                    for &a in &addrs {
                        let set = store.sampled_set(a).expect("full ATD samples every set");
                        if store.lookup(set, store.tag(black_box(a))).is_some() {
                            hits += 1;
                        }
                    }
                    black_box(hits)
                })
            });
            group.bench_function(format!("fill-{label}-a{assoc}"), |b| {
                let mut store = full_store(assoc, fidelity);
                b.iter(|| {
                    for (i, &a) in addrs.iter().enumerate() {
                        let set = store.sampled_set(a).expect("full ATD samples every set");
                        store.fill(set, i % assoc, store.tag(black_box(a)));
                    }
                    black_box(store.sampled_sets())
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_atd_probe);
criterion_main!(benches);
