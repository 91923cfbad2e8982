//! Cross-crate property tests of partition enforcement: whatever the
//! policy, masks/counters/vectors must confine evictions, keep every
//! thread at least one way, and never corrupt cache bookkeeping.

use plru_core::enforce::{build_enforcement, round_to_subtree_sizes, subtree_masks};
use plru_core::minmisses::{min_misses_dp, predicted_misses};
use plru_repro::prelude::*;
use proptest::prelude::*;

fn small_cache(policy: PolicyKind, cores: usize) -> Cache {
    // 8 sets x 8 ways x 64 B.
    let geom = CacheGeometry::new(4096, 8, 64).unwrap();
    Cache::new(CacheConfig {
        geometry: geom,
        policy,
        num_cores: cores,
        seed: 3,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under mask enforcement, every fill lands inside the filling core's
    /// mask, for every replacement policy.
    #[test]
    fn fills_stay_inside_masks(
        trace in proptest::collection::vec((0usize..2, 0usize..8, 0u64..40), 100..800),
        split in 1usize..8,
        policy in prop::sample::select(vec![
            PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Bt, PolicyKind::Random,
        ]),
    ) {
        let mut cache = small_cache(policy, 2);
        let masks = vec![
            WayMask::contiguous(0, split),
            WayMask::contiguous(split, 8 - split),
        ];
        cache.set_enforcement(Enforcement::masks(masks.clone()));
        for &(core, set, n) in &trace {
            let addr = ((n << 3) | set as u64) << 6;
            let out = cache.access(core, addr, false);
            if !out.hit {
                prop_assert!(
                    masks[core].contains(out.way),
                    "{policy:?}: core {core} filled way {} outside {:?}",
                    out.way, masks[core]
                );
            }
        }
    }

    /// Owner-counter enforcement never lets a core's occupancy exceed its
    /// quota by more than the transient one line... in fact steady-state
    /// occupancy is bounded by quota wherever the other core keeps
    /// pressure; here we just verify totals stay consistent.
    #[test]
    fn owner_counts_remain_consistent(
        trace in proptest::collection::vec((0usize..2, 0usize..8, 0u64..40), 100..800),
        q0 in 1usize..8,
    ) {
        let mut cache = small_cache(PolicyKind::Lru, 2);
        cache.set_enforcement(Enforcement::owner_counters(vec![q0, 8 - q0]));
        for &(core, set, n) in &trace {
            let addr = ((n << 3) | set as u64) << 6;
            cache.access(core, addr, false);
        }
        for set in 0..8 {
            let total: usize = (0..2).map(|c| cache.owned_in_set(set, c)).sum();
            prop_assert!(total <= 8, "set {set} over-full: {total}");
        }
    }

    /// MinMisses DP allocations are feasible and optimal against an
    /// exhaustive search for random monotone curves.
    #[test]
    fn dp_is_optimal_for_random_monotone_curves(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u64..1000, 9), 2..=4
        ),
    ) {
        let assoc = 8usize;
        // Make each curve monotone non-increasing by suffix-min.
        let curves: Vec<Vec<u64>> = raw.iter().map(|r| {
            let mut c = r.clone();
            for w in (0..c.len() - 1).rev() {
                c[w] = c[w].max(c[w + 1]);
            }
            c
        }).collect();
        let alloc = min_misses_dp(&curves, assoc);
        prop_assert_eq!(alloc.len(), curves.len());
        prop_assert_eq!(alloc.iter().sum::<usize>(), assoc);
        prop_assert!(alloc.iter().all(|&w| w >= 1));

        // Exhaustive optimum.
        fn best(curves: &[Vec<u64>], t: usize, left: usize, acc: u64, b: &mut u64) {
            if t == curves.len() {
                if left == 0 { *b = (*b).min(acc); }
                return;
            }
            let rem = curves.len() - 1 - t;
            for take in 1..=(left.saturating_sub(rem)) {
                best(curves, t + 1, left - take, acc + curves[t][take], b);
            }
        }
        let mut opt = u64::MAX;
        best(&curves, 0, assoc, 0, &mut opt);
        prop_assert_eq!(predicted_misses(&curves, &alloc), opt);
    }

    /// BT subtree rounding always produces a feasible aligned cover.
    #[test]
    fn subtree_rounding_always_covers(
        alloc in proptest::collection::vec(1usize..16, 2..=8),
    ) {
        let assoc = 16usize;
        let total: usize = alloc.iter().sum();
        prop_assume!(total <= assoc);
        let sizes = round_to_subtree_sizes(&alloc, assoc);
        prop_assert_eq!(sizes.iter().sum::<usize>(), assoc);
        prop_assert!(sizes.iter().all(|s| s.is_power_of_two()));
        let masks = subtree_masks(&sizes, assoc);
        let mut union = WayMask::EMPTY;
        for m in &masks {
            prop_assert!(m.is_aligned_subtree(assoc));
            prop_assert!(m.and(union).is_empty());
            union = union.or(*m);
        }
        prop_assert_eq!(union, WayMask::full(assoc));
    }
}

/// Enforcement built from every paper configuration validates against the
/// L2 it will be installed on.
#[test]
fn all_paper_configs_build_valid_enforcement() {
    for cfg in CpaConfig::figure7_set() {
        for n in [2usize, 4, 8] {
            for trial in 0..50u64 {
                // A pseudo-random feasible allocation.
                let mut alloc = vec![1usize; n];
                let mut left = 16 - n;
                let mut x = trial
                    .wrapping_mul(0x9E3779B97F4A7C15)
                    .wrapping_add(n as u64);
                while left > 0 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    alloc[(x >> 33) as usize % n] += 1;
                    left -= 1;
                }
                let e = build_enforcement(&cfg, &alloc, 16, n)
                    .unwrap_or_else(|err| panic!("{}: {err}", cfg.acronym()));
                e.validate(16, n)
                    .unwrap_or_else(|err| panic!("{}: {err}", cfg.acronym()));
            }
        }
    }
}
