//! The private L1 against the shared kernel: a [`PrivateLru`] must answer
//! every access and count every statistic exactly like a one-core LRU
//! [`Cache`] of the same geometry, across resets too. `Hierarchy` and the
//! simulator's front ends run their L1s on `PrivateLru`, so this is what
//! ties them to the kernel the differential suites pin.

use cachesim::hierarchy::PrivateLru;
use cachesim::{Cache, CacheConfig, CacheGeometry, PolicyKind};
use proptest::prelude::*;

/// A geometry of 1..=32 ways (powers of two or not), 1..=64 sets and
/// 1..=256-byte lines.
fn geometry() -> impl Strategy<Value = CacheGeometry> {
    (1usize..=32, 0u32..=6, 0u32..=8).prop_map(|(assoc, set_bits, line_bits)| {
        let sets = 1u64 << set_bits;
        let line = 1u32 << line_bits;
        CacheGeometry::new(sets * assoc as u64 * u64::from(line), assoc, line).unwrap()
    })
}

/// One step of a stream: an address drawn from one of four pools, a
/// write bit, and whether both caches reset before it.
fn op() -> impl Strategy<Value = (u8, u64, bool, bool)> {
    (0u8..8, any::<u64>(), any::<bool>(), 0u32..200)
        .prop_map(|(pool, raw, write, r)| (pool, raw, write, r == 0))
}

/// The byte address of `op` under `geom`:
/// * pools 0-3: one of a few lines per set — heavy reuse, mostly hits;
/// * pools 4-5: many tags in sets 0 and 1 — conflicts beyond the ways;
/// * pool 6: a full-range address;
/// * pool 7: an address of the top line, including `u64::MAX` itself.
fn address(geom: &CacheGeometry, pool: u8, raw: u64) -> u64 {
    let line = u64::from(geom.line_bytes());
    let sets = geom.num_sets() as u64;
    match pool {
        0..=3 => {
            let ways = geom.assoc() as u64;
            let tag = raw % (ways + 1);
            let set = (raw >> 32) % sets;
            ((tag * sets + set) * line) | ((raw >> 48) % line)
        }
        4 | 5 => {
            let tag = raw % (4 * geom.assoc() as u64 + 4);
            (tag * sets + raw % 2 % sets) * line
        }
        6 => raw,
        _ => u64::MAX - raw % line,
    }
}

fn lru(geom: CacheGeometry) -> Cache {
    Cache::new(CacheConfig {
        geometry: geom,
        policy: PolicyKind::Lru,
        num_cores: 1,
        seed: 0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Hit or miss on every access, and the statistics after every
    /// access, equal the one-core LRU `Cache`'s, with resets mixed in.
    #[test]
    fn private_lru_matches_a_one_core_lru_cache(
        geom in geometry(),
        ops in proptest::collection::vec(op(), 1..1500),
    ) {
        let mut private = PrivateLru::new(geom);
        let mut cache = lru(geom);
        for (i, &(pool, raw, write, reset)) in ops.iter().enumerate() {
            if reset {
                private.reset();
                cache.reset();
            }
            let addr = address(&geom, pool, raw);
            let hit = private.access(addr, write);
            prop_assert_eq!(hit, cache.access(0, addr, write).hit, "access {} to {:#x}", i, addr);
            prop_assert_eq!(private.stats(), cache.stats(), "after access {}", i);
        }
    }
}

/// A cold set never answers a hit, whatever the tag. With one set of
/// one-byte lines a tag is the whole address, so the all-zero and the
/// all-ones address carry the two tags a cold-way sentinel would use.
#[test]
fn cold_ways_never_match() {
    let geom = CacheGeometry::new(2, 2, 1).unwrap();
    for addr in [0, u64::MAX] {
        let mut l1 = PrivateLru::new(geom);
        assert!(!l1.access(addr, false), "{addr:#x} is cold");
        assert!(l1.access(addr, true), "{addr:#x} is resident");
        l1.reset();
        assert!(!l1.access(addr, false), "{addr:#x} is cold after reset");
        let core = l1.stats().core(0);
        assert_eq!(
            (core.accesses, core.hits, core.misses, core.writes),
            (1, 0, 1, 0)
        );
    }
}
