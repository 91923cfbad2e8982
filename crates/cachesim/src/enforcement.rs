//! Partition enforcement: how a victim search is constrained to a core's
//! assigned ways.
//!
//! The paper evaluates two enforcement mechanisms:
//!
//! * **per-set owner counters** (`C`, Section II-B.1, from Qureshi & Patt):
//!   each line remembers the core that filled it and each set counts lines
//!   per core; a core under its quota evicts the LRU line *of other cores*,
//!   a core at/over quota evicts the LRU line among *its own* lines;
//! * **global replacement masks** (`M`, Section II-B.2): one A-bit mask per
//!   core restricts where that core may search for a victim.
//!
//! BT's per-core up/down vectors (Section III-B, Figure 5) are not a third
//! mode here. They can only steer the tree walk into an aligned subtree,
//! and on an aligned subtree BT's masked walk picks the vectors' own victim
//! from any tree state, so the strict BT partition is installed as
//! aligned-subtree masks. [`BtVectors`](crate::policy::BtVectors) stays as
//! the reference walk the masked walk is tested against.

use crate::error::CacheError;
use crate::mask::WayMask;
use serde::{Deserialize, Serialize};

/// The enforcement mechanism active on a cache.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Enforcement {
    /// No partitioning: every core may evict any line.
    None,
    /// Global replacement masks, one per core (`M-*` configurations).
    Masks(Vec<WayMask>),
    /// Per-set owner counters with per-core way quotas (`C-*`).
    OwnerCounters {
        /// `quotas[c]` = number of ways core `c` may occupy per set.
        quotas: Vec<usize>,
    },
}

impl Enforcement {
    /// Build a mask enforcement, validating that every core gets at least
    /// one way.
    pub fn masks(masks: Vec<WayMask>) -> Self {
        assert!(
            masks.iter().all(|m| !m.is_empty()),
            "every core needs at least one way"
        );
        Enforcement::Masks(masks)
    }

    /// Build an owner-counter enforcement from per-core quotas.
    pub fn owner_counters(quotas: Vec<usize>) -> Self {
        assert!(
            quotas.iter().all(|&q| q >= 1),
            "every core needs a quota of at least one way"
        );
        Enforcement::OwnerCounters { quotas }
    }

    /// The eviction-candidate mask of a core, where statically known
    /// (masks mode). `None` for unpartitioned and counter-based modes,
    /// whose candidates depend on per-set state.
    pub fn static_mask(&self, core: usize) -> Option<WayMask> {
        match self {
            Enforcement::Masks(m) => Some(m[core]),
            _ => None,
        }
    }

    /// Validate against a cache shape.
    pub fn validate(&self, assoc: usize, num_cores: usize) -> Result<(), CacheError> {
        match self {
            Enforcement::None => Ok(()),
            Enforcement::Masks(masks) => {
                if masks.len() != num_cores {
                    return Err(CacheError::BadPartition {
                        reason: format!("{} masks for {} cores", masks.len(), num_cores),
                    });
                }
                for (c, m) in masks.iter().enumerate() {
                    if m.is_empty() {
                        return Err(CacheError::BadPartition {
                            reason: format!("core {c} has an empty mask"),
                        });
                    }
                    if !m.is_subset_of(WayMask::full(assoc)) {
                        return Err(CacheError::BadPartition {
                            reason: format!("core {c} mask {m} exceeds associativity {assoc}"),
                        });
                    }
                }
                Ok(())
            }
            Enforcement::OwnerCounters { quotas } => {
                if quotas.len() != num_cores {
                    return Err(CacheError::BadPartition {
                        reason: format!("{} quotas for {} cores", quotas.len(), num_cores),
                    });
                }
                let total: usize = quotas.iter().sum();
                if quotas.contains(&0) || total > assoc {
                    return Err(CacheError::BadPartition {
                        reason: format!("quotas {quotas:?} infeasible for {assoc} ways"),
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_validate_core_count() {
        let e = Enforcement::masks(vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)]);
        assert!(e.validate(16, 2).is_ok());
        assert!(e.validate(16, 4).is_err());
    }

    #[test]
    fn mask_exceeding_assoc_rejected() {
        let e = Enforcement::Masks(vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)]);
        assert!(e.validate(8, 2).is_err());
    }

    #[test]
    #[should_panic]
    fn empty_mask_panics_in_constructor() {
        let _ = Enforcement::masks(vec![WayMask::EMPTY]);
    }

    #[test]
    fn owner_counter_quota_sums_checked() {
        assert!(Enforcement::owner_counters(vec![8, 8])
            .validate(16, 2)
            .is_ok());
        assert!(Enforcement::owner_counters(vec![12, 8])
            .validate(16, 2)
            .is_err());
    }

    #[test]
    fn static_mask_reports_masks_only() {
        let e = Enforcement::masks(vec![WayMask::contiguous(0, 4), WayMask::contiguous(4, 12)]);
        assert_eq!(e.static_mask(1), Some(WayMask::contiguous(4, 12)));
        assert_eq!(Enforcement::None.static_mask(0), None);
        assert_eq!(Enforcement::owner_counters(vec![8, 8]).static_mask(0), None);
    }

    #[test]
    fn serde_round_trip() {
        for e in [
            Enforcement::masks(vec![WayMask::contiguous(0, 8), WayMask::contiguous(8, 8)]),
            Enforcement::owner_counters(vec![10, 6]),
        ] {
            let s = serde_json::to_string(&e).unwrap();
            let back: Enforcement = serde_json::from_str(&s).unwrap();
            assert_eq!(e, back);
        }
    }
}
