//! Property-based tests of the replacement-policy state machines, and of
//! the signature-plane access kernel — one access at a time and in
//! batches — against the reference per-way tag-row scan.

use cachesim::policy::{Bt, BtVectors, Fifo, Lru, Nru};
use cachesim::{
    Access, BatchStats, Cache, CacheConfig, CacheGeometry, Enforcement, PolicyKind, WayMask,
};
use proptest::prelude::*;

const ASSOC: usize = 16;

fn way() -> impl Strategy<Value = usize> {
    0usize..ASSOC
}

fn mask() -> impl Strategy<Value = WayMask> {
    (0usize..ASSOC, 1usize..=ASSOC).prop_map(|(start, len)| {
        let len = len.min(ASSOC - start);
        WayMask::contiguous(start, len.max(1))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// LRU ranks always form a permutation of 0..A, whatever the access
    /// sequence.
    #[test]
    fn lru_ranks_stay_a_permutation(accesses in proptest::collection::vec(way(), 1..300)) {
        let mut l = Lru::new(2, ASSOC);
        for &w in &accesses {
            l.on_access(0, w);
            let mut seen = [false; ASSOC];
            for v in 0..ASSOC {
                let r = l.rank(0, v);
                prop_assert!(r < ASSOC && !seen[r]);
                seen[r] = true;
            }
        }
    }

    /// The most recently accessed way is never the LRU victim (for any
    /// mask containing at least one other way).
    #[test]
    fn lru_victim_is_never_the_mru_line(
        accesses in proptest::collection::vec(way(), 1..200),
        m in mask(),
    ) {
        let mut l = Lru::new(1, ASSOC);
        let mut last = None;
        for &w in &accesses {
            l.on_access(0, w);
            last = Some(w);
        }
        let v = l.victim(0, m);
        prop_assert!(m.contains(v));
        if m.count() > 1 {
            prop_assert_ne!(Some(v), last.filter(|w| m.contains(*w)));
        }
    }

    /// LRU victim under the full mask is the unique way of maximal rank,
    /// i.e. the least recently touched of the touched ways.
    #[test]
    fn lru_full_mask_victim_is_oldest(accesses in proptest::collection::vec(way(), ASSOC..400)) {
        let mut l = Lru::new(1, ASSOC);
        for &w in &accesses {
            l.on_access(0, w);
        }
        let v = l.victim(0, WayMask::full(ASSOC));
        // v's last-touch index must be the minimum among all ways that
        // were ever touched... untouched ways keep their cold rank and
        // can legitimately be older; restrict to the all-touched case.
        let mut last_touch = [None; ASSOC];
        for (i, &w) in accesses.iter().enumerate() {
            last_touch[w] = Some(i);
        }
        if last_touch.iter().all(|t| t.is_some()) {
            let oldest = (0..ASSOC).min_by_key(|&w| last_touch[w]).unwrap();
            prop_assert_eq!(v, oldest);
        }
    }

    /// NRU: after any access, at least one used bit inside the access
    /// scope is clear — except the degenerate single-way scope whose only
    /// way is the accessed line (a 1-way partition always evicts its one
    /// way; the victim path's forced clear covers it).
    #[test]
    fn nru_scope_never_saturates(
        ops in proptest::collection::vec((way(), mask()), 1..300),
    ) {
        let mut n = Nru::new(1, ASSOC);
        for &(w, scope) in &ops {
            n.on_access(0, w, scope);
            if scope == WayMask::single(w) {
                continue;
            }
            let scoped = n.used_bits(0) & scope.0;
            prop_assert_ne!(scoped, scope.0, "scope {} saturated", scope);
        }
    }

    /// NRU victims are always within the mask and always have a clear
    /// used bit at selection time.
    #[test]
    fn nru_victims_respect_mask(
        ops in proptest::collection::vec((way(), any::<bool>()), 1..300),
        m in mask(),
    ) {
        let mut n = Nru::new(1, ASSOC);
        for &(w, evict) in &ops {
            if evict {
                let v = n.victim(0, m);
                prop_assert!(m.contains(v));
            } else {
                n.on_access(0, w, WayMask::full(ASSOC));
            }
        }
    }

    /// NRU pointer stays within bounds and advances past each victim.
    #[test]
    fn nru_pointer_rotates(ops in proptest::collection::vec(mask(), 1..200)) {
        let mut n = Nru::new(4, ASSOC);
        for (i, &m) in ops.iter().enumerate() {
            let v = n.victim(i % 4, m);
            prop_assert_eq!(n.pointer(), (v + 1) % ASSOC);
        }
    }

    /// BT: the victim walk never selects the just-accessed way.
    #[test]
    fn bt_victim_avoids_mru(accesses in proptest::collection::vec(way(), 1..300)) {
        let mut bt = Bt::new(1, ASSOC);
        for &w in &accesses {
            bt.on_access(0, w);
            prop_assert_ne!(bt.victim(0), w);
        }
    }

    /// BT masked walk stays in the mask from any reachable tree state.
    #[test]
    fn bt_masked_walk_respects_mask(
        accesses in proptest::collection::vec(way(), 0..200),
        m in mask(),
    ) {
        let mut bt = Bt::new(1, ASSOC);
        for &w in &accesses {
            bt.on_access(0, w);
        }
        prop_assert!(m.contains(bt.victim_masked(0, m)));
    }

    /// For aligned-subtree masks, the paper's up/down vector walk and the
    /// generalized masked walk agree exactly — from any tree state.
    #[test]
    fn bt_vectors_equal_masked_walk_on_subtrees(
        accesses in proptest::collection::vec(way(), 0..200),
        start_pow in 0usize..5,
        size_pow in 0usize..5,
    ) {
        let size = 1usize << size_pow;
        let start = (start_pow * size) % ASSOC;
        prop_assume!(start + size <= ASSOC && start.is_multiple_of(size));
        let m = WayMask::contiguous(start, size);
        prop_assume!(m.is_aligned_subtree(ASSOC));
        let vec = BtVectors::for_aligned_subtree(m, ASSOC).unwrap();
        let mut bt = Bt::new(1, ASSOC);
        for &w in &accesses {
            bt.on_access(0, w);
        }
        prop_assert_eq!(bt.victim_vectors(0, vec), bt.victim_masked(0, m));
    }

    /// FIFO victims stay within any mask, the pointer always lands one
    /// way past the victim, and a run of full-mask selections walks the
    /// ways in cyclic (fill) order — genuine FIFO.
    #[test]
    fn fifo_victims_cycle_and_respect_masks(
        masks in proptest::collection::vec(mask(), 1..300),
    ) {
        let mut f = Fifo::new(1, ASSOC);
        for &m in &masks {
            let before = f.pointer(0);
            let v = f.victim(0, m);
            prop_assert!(m.contains(v));
            prop_assert_eq!(f.pointer(0), (v + 1) % ASSOC);
            if m == WayMask::full(ASSOC) {
                prop_assert_eq!(v, before, "full mask evicts exactly at the pointer");
            }
        }
    }

    /// BT path-bit estimation bounds: `A - (path XOR id)` is always in
    /// `[1, A]`, and equals 1 right after the way is accessed.
    #[test]
    fn bt_estimation_bounds(
        accesses in proptest::collection::vec(way(), 1..300),
        probe in way(),
    ) {
        let mut bt = Bt::new(1, ASSOC);
        for &w in &accesses {
            bt.on_access(0, w);
        }
        let x = bt.path_bits(0, probe) ^ (probe as u32);
        let est = ASSOC as i64 - i64::from(x);
        prop_assert!((1..=ASSOC as i64).contains(&est));
        let last = *accesses.last().unwrap();
        let x_last = bt.path_bits(0, last) ^ (last as u32);
        prop_assert_eq!(ASSOC as u32 - x_last, 1, "MRU estimates to position 1");
    }
}

/// All registered policies, indexed so the stub's range strategies can
/// pick one.
const POLICIES: [PolicyKind; 5] = PolicyKind::ALL;

/// A small 4-set x 16-way cache shared by the equivalence properties.
fn small_cache(policy: PolicyKind, num_cores: usize) -> Cache {
    Cache::new(CacheConfig {
        geometry: CacheGeometry::new(4096, ASSOC, 64).unwrap(),
        policy,
        num_cores,
        seed: 7,
    })
}

/// The partition enforcements the equivalence property cycles through:
/// unpartitioned, replacement masks (for BT, the aligned-subtree halves a
/// strict BT partition installs), and per-set owner counters.
fn enforcement_for(choice: usize, policy: PolicyKind) -> Enforcement {
    match choice {
        0 => Enforcement::None,
        1 if policy == PolicyKind::Bt => {
            Enforcement::masks(vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)])
        }
        1 => Enforcement::masks(vec![WayMask::contiguous(0, 10), WayMask::contiguous(10, 6)]),
        _ => Enforcement::owner_counters(vec![10, 6]),
    }
}

/// Drive `stream` through three caches built by `fresh`: the reference
/// row scan ([`Cache::access_reference`]) one access at a time, the
/// kernel one [`Cache::access`] at a time, and the kernel in
/// `chunk`-sized [`Cache::access_batch`] pieces. Each cache first runs
/// `warm` through its own path and is then reset, which leaves stale tag
/// and signature planes behind (a no-op for an empty `warm`).
///
/// Every single-access outcome (hit, set, way, evicted line and owner)
/// must equal the reference's; all three caches must end with identical
/// statistics and contents, and the batch summary must agree with the
/// reference's event counts.
fn assert_kernel_matches_reference(
    fresh: impl Fn() -> Cache,
    warm: &[Access],
    stream: &[Access],
    chunk: usize,
) -> Result<(), TestCaseError> {
    let (mut reference, mut single, mut batched) = (fresh(), fresh(), fresh());
    let mut scratch = BatchStats::default();
    for a in warm {
        reference.access_reference(usize::from(a.core), a.addr, a.write);
        single.access(usize::from(a.core), a.addr, a.write);
    }
    batched.access_batch(warm, &mut scratch);
    for c in [&mut reference, &mut single, &mut batched] {
        c.reset();
    }

    let mut ref_hits = 0u64;
    let mut ref_evictions = 0u64;
    for (i, a) in stream.iter().enumerate() {
        let core = usize::from(a.core);
        let want = reference.access_reference(core, a.addr, a.write);
        let got = single.access(core, a.addr, a.write);
        prop_assert_eq!(got, want, "access {} to {:#x} diverged", i, a.addr);
        ref_hits += u64::from(want.hit);
        ref_evictions += u64::from(want.evicted.is_some());
    }
    let mut batch = BatchStats::default();
    for piece in stream.chunks(chunk.max(1)) {
        batched.access_batch(piece, &mut batch);
    }

    // Statistics are bit-identical.
    prop_assert_eq!(reference.stats(), single.stats());
    prop_assert_eq!(reference.stats(), batched.stats());
    // The batch summary agrees with the reference's event counts.
    prop_assert_eq!(batch.accesses, stream.len() as u64);
    prop_assert_eq!(batch.hits, ref_hits);
    prop_assert_eq!(batch.misses, stream.len() as u64 - ref_hits);
    prop_assert_eq!(batch.evictions, ref_evictions);
    prop_assert_eq!(
        batch.cross_evictions,
        reference.stats().total().cross_evictions
    );
    // And the contents converged to the same lines.
    for a in stream {
        let want = reference.probe(a.addr);
        prop_assert_eq!(single.probe(a.addr), want, "addr {:#x}", a.addr);
        prop_assert_eq!(batched.probe(a.addr), want, "addr {:#x}", a.addr);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The kernel — through `Cache::access` and `Cache::access_batch` at
    /// any batch boundary — is bit-identical to the reference row scan:
    /// per-access outcomes, per-core hit/miss/write/cross-eviction
    /// statistics, the batch summary and the resulting cache contents,
    /// for every policy, with and without partition enforcement.
    #[test]
    fn batched_kernel_equals_scalar_oracle(
        policy_idx in 0usize..POLICIES.len(),
        enf_choice in 0usize..3,
        ops in proptest::collection::vec(
            (0usize..2, 0u64..512, 0usize..8),
            1..400,
        ),
        chunk in 1usize..64,
    ) {
        let policy = POLICIES[policy_idx];
        let stream: Vec<Access> = ops
            .iter()
            .map(|&(core, line, w)| Access::new(core, line << 6, w == 0))
            .collect();
        let enforcement = enforcement_for(enf_choice, policy);
        let fresh = || {
            let mut c = small_cache(policy, 2);
            c.set_enforcement(enforcement.clone());
            c
        };
        assert_kernel_matches_reference(fresh, &[], &stream, chunk)?;
    }

    /// Splitting one stream at any boundary and batching the halves leaves
    /// the cache in the same state as one whole-stream batch (the kernel
    /// carries no per-batch state).
    #[test]
    fn batch_boundaries_are_invisible(
        policy_idx in 0usize..POLICIES.len(),
        ops in proptest::collection::vec((0u64..256, 0usize..8), 1..200),
        split in 0usize..200,
    ) {
        let policy = POLICIES[policy_idx];
        let stream: Vec<Access> = ops
            .iter()
            .map(|&(line, w)| Access::new(0, line << 6, w == 0))
            .collect();
        let split = split.min(stream.len());

        let mut whole = small_cache(policy, 1);
        let mut whole_stats = BatchStats::default();
        whole.access_batch(&stream, &mut whole_stats);

        let mut halves = small_cache(policy, 1);
        let mut halves_stats = BatchStats::default();
        halves.access_batch(&stream[..split], &mut halves_stats);
        halves.access_batch(&stream[split..], &mut halves_stats);

        prop_assert_eq!(whole.stats(), halves.stats());
        prop_assert_eq!(whole_stats, halves_stats);
    }
}

// ---------------------------------------------------------------------------
// SWAR kernel edge cases: the access kernel packs 8-bit tag signatures
// eight-per-u64, so the shapes most likely to break it are the ones that
// stress lane boundaries — a single lane (assoc 1 and 2), a partially
// filled second/third lane word (assoc > 16), signature collisions that
// force the full-tag verification path, and all-invalid (cold or reset)
// sets whose stale signature bytes must stay gated by the valid bits.
// ---------------------------------------------------------------------------

/// The associativities the edge-case suite sweeps: single-way, two-way,
/// and the byte-row boundary cases where a set's signatures span more
/// than two u64 lane words (17, 20) up to the supported maximum (32).
const EDGE_ASSOCS: [usize; 5] = [1, 2, 17, 20, 32];

/// A 4-set cache of the given associativity (64 B lines).
fn edge_cache(policy: PolicyKind, assoc: usize, num_cores: usize) -> Cache {
    Cache::new(CacheConfig {
        geometry: CacheGeometry::new(4 * assoc as u64 * 64, assoc, 64).unwrap(),
        policy,
        num_cores,
        seed: 7,
    })
}

/// Enforcement styles scaled to an arbitrary associativity: unpartitioned,
/// a two-core way split (at BT's power-of-two shapes, the aligned-subtree
/// halves a strict BT partition installs), and owner counters. Degenerate shapes fall back to
/// the closest style that stays feasible: at assoc 1 both cores share the
/// single way (masks may overlap; a counter quota per core cannot fit).
fn enforcement_for_assoc(choice: usize, assoc: usize) -> Enforcement {
    let lo = assoc.div_ceil(2);
    match choice {
        0 => Enforcement::None,
        1 if assoc == 1 => Enforcement::masks(vec![WayMask::single(0), WayMask::single(0)]),
        1 => Enforcement::masks(vec![
            WayMask::contiguous(0, lo),
            WayMask::contiguous(lo, assoc - lo),
        ]),
        _ if assoc == 1 => Enforcement::masks(vec![WayMask::single(0), WayMask::single(0)]),
        _ => Enforcement::owner_counters(vec![lo, assoc - lo]),
    }
}

/// [`assert_kernel_matches_reference`] on a fresh edge cache under
/// `enforcement`.
fn assert_batch_matches_oracle(
    policy: PolicyKind,
    assoc: usize,
    enforcement: Enforcement,
    stream: &[Access],
    chunk: usize,
) -> Result<(), TestCaseError> {
    let fresh = || {
        let mut c = edge_cache(policy, assoc, 2);
        c.set_enforcement(enforcement.clone());
        c
    };
    assert_kernel_matches_reference(fresh, &[], stream, chunk)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Kernel ≡ reference at the SWAR lane-boundary associativities, for
    /// every registered policy × enforcement style. (BT only supports
    /// power-of-two shapes, so 17 and 20 skip it.)
    #[test]
    fn swar_kernel_matches_oracle_at_edge_associativities(
        policy_idx in 0usize..POLICIES.len(),
        assoc_idx in 0usize..EDGE_ASSOCS.len(),
        enf_choice in 0usize..3,
        ops in proptest::collection::vec(
            (0usize..2, 0u64..256, 0usize..8),
            1..250,
        ),
        chunk in 1usize..64,
    ) {
        let policy = POLICIES[policy_idx];
        let assoc = EDGE_ASSOCS[assoc_idx];
        prop_assume!(policy.validate_assoc(assoc).is_ok());
        let stream: Vec<Access> = ops
            .iter()
            .map(|&(core, line, w)| Access::new(core, line << 6, w == 0))
            .collect();
        let enforcement = enforcement_for_assoc(enf_choice, assoc);
        assert_batch_matches_oracle(policy, assoc, enforcement, &stream, chunk)?;
    }

    /// A reset cache keeps its stale tag and signature planes but clears
    /// the valid bits; re-filling it with a different working set must
    /// behave exactly like the reference (stale signature bytes may
    /// collide with the new probes — `valid` has to gate every
    /// candidate). This is also the duplicate-signatures-across-ways
    /// case: after the refill, live ways sit next to stale bytes equal to
    /// other live signatures.
    #[test]
    fn reset_leaves_stale_signatures_harmless(
        policy_idx in 0usize..POLICIES.len(),
        assoc_idx in 0usize..EDGE_ASSOCS.len(),
        first in proptest::collection::vec((0usize..2, 0u64..128), 1..150),
        second in proptest::collection::vec((0usize..2, 0u64..128), 1..150),
        chunk in 1usize..32,
    ) {
        let policy = POLICIES[policy_idx];
        let assoc = EDGE_ASSOCS[assoc_idx];
        prop_assume!(policy.validate_assoc(assoc).is_ok());
        let to_stream = |ops: &[(usize, u64)]| -> Vec<Access> {
            ops.iter().map(|&(core, line)| Access::read(core, line << 6)).collect()
        };
        let fresh = || edge_cache(policy, assoc, 2);
        assert_kernel_matches_reference(fresh, &to_stream(&first), &to_stream(&second), chunk)?;
    }
}

/// Tags engineered to share one 8-bit signature (the Fibonacci-hash top
/// byte) force the kernel down its false-positive path on every probe:
/// the SWAR scan flags several candidate ways and only the full-tag
/// verification may decide. The kernel must still match the reference's
/// tie-breaks exactly.
#[test]
fn signature_collisions_are_verified_against_full_tags() {
    // Mirror of the kernel's signature function; if the kernel's constant
    // ever changes this stops colliding but the equivalence stays valid.
    let sig = |tag: u64| (tag.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8;
    for &assoc in &EDGE_ASSOCS {
        // Lines mapping to set 0 of the 4-set edge cache whose tags all
        // share the signature of tag 0 (tag = line >> 2 at 4 sets).
        let colliding: Vec<u64> = (0u64..)
            .map(|t| t * 4) // tag t, set 0
            .filter(|&line| sig(line >> 2) == sig(0))
            .take(2 * assoc)
            .collect();
        assert!(
            colliding.len() >= assoc,
            "collision search must find enough tags"
        );

        for policy in PolicyKind::ALL {
            if policy.validate_assoc(assoc).is_err() {
                continue;
            }
            // Two passes over the colliding set: the second pass probes
            // sets whose live ways all carry the same signature byte.
            let stream: Vec<Access> = colliding
                .iter()
                .chain(colliding.iter())
                .map(|&line| Access::read(0, line << 6))
                .collect();
            assert_batch_matches_oracle(policy, assoc, Enforcement::None, &stream, 7)
                .expect("colliding-signature stream must match the reference");
        }
    }
}

/// All-invalid sets: a cold cache filled with distinct lines must fill
/// exactly the ways the reference fills (lowest invalid way first) and
/// record identical statistics, for every policy and edge associativity.
#[test]
fn all_invalid_sets_fill_like_the_oracle() {
    for &assoc in &EDGE_ASSOCS {
        for policy in PolicyKind::ALL {
            if policy.validate_assoc(assoc).is_err() {
                continue;
            }
            // One access per (set, way) slot: everything misses into an
            // all-invalid set at some point during the stream.
            let stream: Vec<Access> = (0..4 * assoc as u64)
                .map(|line| Access::read(0, line << 6))
                .collect();
            assert_batch_matches_oracle(policy, assoc, Enforcement::None, &stream, 5)
                .expect("cold-fill stream must match the reference");
        }
    }
}
