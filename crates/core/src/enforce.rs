//! Translation of a ways-per-thread allocation into the enforcement
//! the L2 supports: one builder, two outcomes — way masks or owner
//! quotas.
//!
//! The paper's BT up/down vectors (Section III-B, Figure 5) are not a
//! third outcome. They can only express aligned subtrees, so strict BT
//! rounds the allocation to subtree sizes and installs the subtrees as
//! masks, on which BT's masked walk picks the vectors' own victim.

use crate::config::{CpaConfig, EnforcementStyle};
use cachesim::mask::contiguous_masks;
use cachesim::{CacheError, Enforcement, PolicyKind, WayMask};

/// Equal-split starting allocation: `assoc / n` ways each, the remainder
/// spread over the first threads.
pub fn equal_allocation(num_threads: usize, assoc: usize) -> Vec<usize> {
    assert!(num_threads >= 1 && num_threads <= assoc);
    let base = assoc / num_threads;
    let extra = assoc % num_threads;
    (0..num_threads)
        .map(|t| base + usize::from(t < extra))
        .collect()
}

/// Round an allocation to power-of-two sizes summing to `assoc` (which must
/// itself be a power of two) — the partitions the paper's BT up/down
/// vectors can enforce.
///
/// Strategy: floor each share to a power of two, then repeatedly double the
/// share of the thread with the highest demand-to-size ratio until the
/// whole cache is covered. The result preserves the allocation's ordering
/// intent while staying vector-enforceable.
pub fn round_to_subtree_sizes(alloc: &[usize], assoc: usize) -> Vec<usize> {
    assert!(assoc.is_power_of_two());
    assert!(alloc.iter().all(|&w| w >= 1));
    assert!(alloc.iter().sum::<usize>() <= assoc);
    let mut sizes: Vec<usize> = alloc
        .iter()
        .map(|&w| {
            let mut s = 1usize;
            while s * 2 <= w {
                s *= 2;
            }
            s
        })
        .collect();
    let mut sum: usize = sizes.iter().sum();
    while sum < assoc {
        // Candidates whose doubling fits; the smallest size always does,
        // so the loop always progresses.
        let mut best: Option<usize> = None;
        let mut best_ratio = f64::MIN;
        for (t, &s) in sizes.iter().enumerate() {
            if sum + s > assoc {
                continue;
            }
            let ratio = alloc[t] as f64 / s as f64;
            if ratio > best_ratio {
                best_ratio = ratio;
                best = Some(t);
            }
        }
        let t = best.expect("smallest size always fits");
        sum += sizes[t];
        sizes[t] *= 2;
    }
    sizes
}

/// Assign aligned-subtree masks for power-of-two `sizes` summing to
/// `assoc`: place in descending size order, so every offset is naturally
/// aligned to its block size.
pub fn subtree_masks(sizes: &[usize], assoc: usize) -> Vec<WayMask> {
    assert_eq!(sizes.iter().sum::<usize>(), assoc);
    let mut order: Vec<usize> = (0..sizes.len()).collect();
    order.sort_by_key(|&t| std::cmp::Reverse(sizes[t]));
    let mut masks = vec![WayMask::EMPTY; sizes.len()];
    let mut offset = 0usize;
    for &t in &order {
        masks[t] = WayMask::contiguous(offset, sizes[t]);
        debug_assert!(masks[t].is_aligned_subtree(assoc));
        offset += sizes[t];
    }
    masks
}

/// Build the L2 [`Enforcement`] realising `alloc` for `num_cores` cores
/// under a configuration: way masks or owner quotas.
///
/// `alloc[k]` is the ways of entry `k`, and core `c` takes entry
/// `c % alloc.len()`. At paper scale there is one entry per core. Past
/// `assoc` tenants the controller passes one entry per cluster, and the
/// cluster's cores share its mask. Strict BT rounds the allocation to
/// aligned subtrees ([`round_to_subtree_sizes`], [`subtree_masks`]) and
/// installs them as plain masks: on an aligned subtree BT's masked walk
/// picks the victim the paper's up/down vectors would. Owner counters
/// cannot share, since quotas need one way per core, so `C-*` schemes
/// reject more cores than entries with a one-line error.
pub fn build_enforcement(
    cfg: &CpaConfig,
    alloc: &[usize],
    assoc: usize,
    num_cores: usize,
) -> Result<Enforcement, CacheError> {
    let per_core = |masks: Vec<WayMask>| {
        Enforcement::masks((0..num_cores).map(|c| masks[c % masks.len()]).collect())
    };
    match cfg.enforcement {
        EnforcementStyle::OwnerCounters if num_cores > alloc.len() => {
            Err(CacheError::BadPartition {
                reason: format!(
                    "owner-counter enforcement needs one quota way per core: \
                     {num_cores} cores exceed {assoc} ways (use an M-* scheme)"
                ),
            })
        }
        EnforcementStyle::OwnerCounters => Ok(Enforcement::owner_counters(alloc.to_vec())),
        EnforcementStyle::Masks if cfg.policy == PolicyKind::Bt && cfg.bt_strict_vectors => Ok(
            per_core(subtree_masks(&round_to_subtree_sizes(alloc, assoc), assoc)),
        ),
        EnforcementStyle::Masks => {
            contiguous_masks(alloc, assoc)
                .map(per_core)
                .ok_or_else(|| CacheError::BadPartition {
                    reason: format!("allocation {alloc:?} infeasible for {assoc} ways"),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_allocation_covers_cache() {
        assert_eq!(equal_allocation(2, 16), vec![8, 8]);
        assert_eq!(equal_allocation(3, 16), vec![6, 5, 5]);
        assert_eq!(equal_allocation(8, 16), vec![2; 8]);
        assert_eq!(equal_allocation(1, 16), vec![16]);
    }

    #[test]
    fn rounding_preserves_total_and_powers() {
        for alloc in [
            vec![10usize, 6],
            vec![1, 15],
            vec![5, 5, 3, 3],
            vec![2; 8],
            vec![9, 3, 2, 2],
        ] {
            let sizes = round_to_subtree_sizes(&alloc, 16);
            assert_eq!(sizes.iter().sum::<usize>(), 16, "{alloc:?} -> {sizes:?}");
            assert!(sizes.iter().all(|s| s.is_power_of_two()));
        }
    }

    #[test]
    fn rounding_favours_the_bigger_demand() {
        let sizes = round_to_subtree_sizes(&[12, 4], 16);
        assert_eq!(sizes, vec![8, 8], "12 floors to 8; 4 doubles to 8");
        let sizes = round_to_subtree_sizes(&[15, 1], 16);
        assert_eq!(sizes, vec![8, 8], "cannot give 15: subtree cap is 8");
        let sizes = round_to_subtree_sizes(&[1, 15], 16);
        assert_eq!(sizes, vec![8, 8]);
    }

    #[test]
    fn exact_powers_pass_through() {
        assert_eq!(round_to_subtree_sizes(&[8, 8], 16), vec![8, 8]);
        assert_eq!(round_to_subtree_sizes(&[8, 4, 2, 2], 16), vec![8, 4, 2, 2]);
    }

    #[test]
    fn subtree_masks_are_aligned_and_disjoint() {
        let sizes = vec![2, 8, 4, 2];
        let masks = subtree_masks(&sizes, 16);
        let mut union = WayMask::EMPTY;
        for (t, m) in masks.iter().enumerate() {
            assert_eq!(m.count(), sizes[t]);
            assert!(m.is_aligned_subtree(16), "mask {m} of thread {t}");
            assert!(m.and(union).is_empty(), "masks overlap");
            union = union.or(*m);
        }
        assert_eq!(union, WayMask::full(16));
    }

    #[test]
    fn build_counters_enforcement() {
        let cfg = CpaConfig::c_l();
        let e = build_enforcement(&cfg, &[10, 6], 16, 2).unwrap();
        assert_eq!(e, Enforcement::owner_counters(vec![10, 6]));
    }

    #[test]
    fn build_mask_enforcement() {
        let cfg = CpaConfig::m_l();
        let e = build_enforcement(&cfg, &[10, 6], 16, 2).unwrap();
        match e {
            Enforcement::Masks(masks) => {
                assert_eq!(masks[0].count(), 10);
                assert_eq!(masks[1].count(), 6);
            }
            other => panic!("expected masks, got {other:?}"),
        }
    }

    #[test]
    fn build_bt_strict_enforcement_rounds() {
        let mut cfg = CpaConfig::m_bt();
        cfg.bt_strict_vectors = true;
        let e = build_enforcement(&cfg, &[10, 6], 16, 2).unwrap();
        match e {
            Enforcement::Masks(masks) => {
                assert_eq!(
                    masks,
                    vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)]
                );
                assert!(masks.iter().all(|m| m.is_aligned_subtree(16)));
            }
            other => panic!("expected aligned-subtree masks, got {other:?}"),
        }
    }

    #[test]
    fn build_bt_generalized_uses_plain_masks_by_default() {
        let cfg = CpaConfig::m_bt();
        assert!(!cfg.bt_strict_vectors, "generalized walk is the default");
        let e = build_enforcement(&cfg, &[10, 6], 16, 2).unwrap();
        assert_eq!(
            e,
            build_enforcement(&CpaConfig::m_l(), &[10, 6], 16, 2).unwrap()
        );
    }

    #[test]
    fn clustered_masks_are_shared_round_robin() {
        let cfg = CpaConfig::m_l();
        // 4 clusters of 4 ways each, 10 cores.
        let e = build_enforcement(&cfg, &[4, 4, 4, 4], 16, 10).unwrap();
        match e {
            Enforcement::Masks(masks) => {
                assert_eq!(masks.len(), 10);
                assert_eq!(masks[0], masks[4], "cores 0 and 4 share cluster 0");
                assert_eq!(masks[1], masks[5]);
                assert_eq!(masks[0].count(), 4);
            }
            other => panic!("expected masks, got {other:?}"),
        }
    }

    #[test]
    fn clustered_owner_counters_rejected_with_one_line_error() {
        let cfg = CpaConfig::c_l();
        let err = build_enforcement(&cfg, &[8, 8], 16, 64).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("M-*"), "unexpected error: {msg}");
        assert!(!msg.contains('\n'), "error must be one line");
    }

    #[test]
    fn clustered_bt_strict_shares_subtrees() {
        let mut cfg = CpaConfig::m_bt();
        cfg.bt_strict_vectors = true;
        let e = build_enforcement(&cfg, &[8, 8], 16, 6).unwrap();
        match e {
            Enforcement::Masks(masks) => {
                assert_eq!(masks.len(), 6);
                assert_eq!(masks[0], masks[2]);
                assert!(masks.iter().all(|m| m.is_aligned_subtree(16)));
            }
            other => panic!("expected aligned-subtree masks, got {other:?}"),
        }
    }

    #[test]
    fn eight_thread_bt_rounding() {
        // 8 threads x >=1 way on 16 ways: sizes must be powers of two
        // summing to 16 with each >= 1 — i.e. mostly 2s.
        let alloc = vec![3, 2, 2, 2, 2, 2, 2, 1];
        let sizes = round_to_subtree_sizes(&alloc, 16);
        assert_eq!(sizes.iter().sum::<usize>(), 16);
        let masks = subtree_masks(&sizes, 16);
        assert!(masks.iter().all(|m| m.is_aligned_subtree(16)));
    }
}
