//! Configuration of a complete cache-partitioning system, named with the
//! paper's acronyms.
//!
//! A configuration acronym has three parts (Section V-B):
//!
//! * enforcement: `C` = per-set owner counters, `M` = global replacement
//!   masks (for BT, walked by the masked tree walk);
//! * replacement/profiling policy: `L` = true LRU, `N` = NRU, `BT` =
//!   binary tree;
//! * for NRU, the eSDH scaling factor: `1.0`, `0.75` or `0.5`.
//!
//! The paper's evaluated configurations: `C-L` (baseline), `M-L`,
//! `M-1.0N`, `M-0.75N`, `M-0.5N`, `M-BT`.

use crate::sketch::ProfilerFidelity;
use cachesim::PolicyKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How the selected partition is enforced at the L2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnforcementStyle {
    /// Per-set owner counters (`C`): quota comparison against occupancy.
    OwnerCounters,
    /// Global replacement masks (`M`). Under BT the masked tree walk
    /// enforces them; in strict mode every mask is an aligned subtree, on
    /// which that walk picks the paper's up/down-vector victim.
    Masks,
}

/// How the NRU profiler updates the eSDH on a hit with the used bit set.
///
/// Section III-A is ambiguous: it both says "we increase both SDH registers
/// r1 and r2" and later "we assume the stack distance to be S×U". The
/// scaled point update is the only reading consistent with the scaled-eSDH
/// definition, so it is the default; the smear update is kept as an
/// ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum NruUpdateMode {
    /// Increment the single register `r_{ceil(S*U)}` (default).
    #[default]
    Scaled,
    /// Increment every register `r_1 ..= r_U` (the literal "increase both
    /// r1 and r2" reading).
    Smear,
}

/// Which partition-selection algorithm the controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Selector {
    /// Exact dynamic program minimising total predicted misses (default —
    /// eSDH curves need not be convex, where greedy can be suboptimal).
    #[default]
    ExactDp,
    /// Greedy marginal-gain allocation (UCP-lookahead style).
    Greedy,
}

/// The optimisation target of the partitioning policy. The paper uses
/// MinMisses throughout and notes that "further goals can be reached,
/// when the policy is modified to favor fairness or QoS" — the fairness
/// objective implements that extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise the total predicted miss count (the paper's policy).
    #[default]
    MinMisses,
    /// Minimise the maximum per-thread relative miss increase
    /// (fairness-oriented minimax).
    Fairness,
}

/// Full configuration of a dynamic CPA.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpaConfig {
    /// Replacement policy of the L2 *and* of the profiling ATDs (the paper
    /// always pairs them).
    pub policy: PolicyKind,
    /// Enforcement mechanism.
    pub enforcement: EnforcementStyle,
    /// NRU eSDH scaling factor `S` (ignored for LRU/BT).
    pub nru_scale: f64,
    /// NRU eSDH update mode (ignored for LRU/BT).
    pub nru_update: NruUpdateMode,
    /// For BT + Masks: restrict partitions to the aligned subtrees the
    /// paper's up/down vectors can express (`true`), or allow arbitrary
    /// contiguous masks (`false`, default). Both install way masks that
    /// the generalized mask-guided tree walk enforces; on an aligned
    /// subtree that walk selects the identical victim as the vectors.
    ///
    /// The paper's `log2(A)`-bit up/down vectors can only express
    /// power-of-two aligned subtrees, yet its MinMisses policy emits
    /// arbitrary way counts, so strict mode rounds every allocation to
    /// subtree sizes. Row (2) of the `ablation` binary compares the two
    /// modes.
    pub bt_strict_vectors: bool,
    /// Partition-selection algorithm.
    pub selector: Selector,
    /// Optimisation target.
    pub objective: Objective,
    /// Adapt the NRU eSDH scaling factor online from miss feedback (the
    /// paper's future-work direction: "We leave further estimation
    /// accuracy research for our future work"). Ignored for LRU/BT.
    pub adaptive_nru_scale: bool,
    /// Repartition interval in cycles (paper: 1 M).
    pub interval_cycles: u64,
    /// ATD set-sampling ratio (paper: 32).
    pub sample_ratio: usize,
    /// Minimum average SDH samples per thread before a repartition is
    /// acted on; below this the controller keeps the current partition
    /// (guards the scaled-down runs against deciding off a cold, noisy
    /// histogram).
    pub min_samples_per_thread: u64,
    /// Tag-store fidelity of the profiling ATDs: `None`/`Exact` keeps the
    /// paper's full tag rows, `Sketch { fp_bits }` swaps in the
    /// cuckoo-filter membership sketch ([`crate::atd::AtdTags`]).
    /// Optional so serialized configs from before the sketch existed
    /// still parse.
    pub fidelity: Option<ProfilerFidelity>,
}

impl CpaConfig {
    fn base(policy: PolicyKind, enforcement: EnforcementStyle) -> Self {
        CpaConfig {
            policy,
            enforcement,
            nru_scale: 0.75,
            nru_update: NruUpdateMode::Scaled,
            bt_strict_vectors: false,
            selector: Selector::ExactDp,
            objective: Objective::MinMisses,
            adaptive_nru_scale: false,
            interval_cycles: 1_000_000,
            sample_ratio: 32,
            min_samples_per_thread: 32,
            fidelity: None,
        }
    }

    /// The effective tag-store fidelity (`None` means [`ProfilerFidelity::Exact`]).
    pub fn fidelity(&self) -> ProfilerFidelity {
        self.fidelity.unwrap_or(ProfilerFidelity::Exact)
    }

    /// The paper's baseline `C-L`: owner counters + true LRU.
    pub fn c_l() -> Self {
        Self::base(PolicyKind::Lru, EnforcementStyle::OwnerCounters)
    }

    /// `M-L`: global masks + true LRU.
    pub fn m_l() -> Self {
        Self::base(PolicyKind::Lru, EnforcementStyle::Masks)
    }

    /// `M-<scale>N`: masks + NRU with a given eSDH scaling factor.
    pub fn m_nru(scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        CpaConfig {
            nru_scale: scale,
            ..Self::base(PolicyKind::Nru, EnforcementStyle::Masks)
        }
    }

    /// `M-BT`: global masks + binary tree, enforced by the masked tree
    /// walk (aligned subtrees only under `bt_strict_vectors`).
    pub fn m_bt() -> Self {
        Self::base(PolicyKind::Bt, EnforcementStyle::Masks)
    }

    /// All six configurations of Figure 7, in the figure's order.
    pub fn figure7_set() -> Vec<CpaConfig> {
        vec![
            Self::c_l(),
            Self::m_l(),
            Self::m_nru(1.0),
            Self::m_nru(0.75),
            Self::m_nru(0.5),
            Self::m_bt(),
        ]
    }

    /// The paper-style acronym (`C-L`, `M-0.75N`, `M-BT`, …).
    pub fn acronym(&self) -> String {
        let enf = match self.enforcement {
            EnforcementStyle::OwnerCounters => "C",
            EnforcementStyle::Masks => "M",
        };
        match self.policy {
            PolicyKind::Lru => format!("{enf}-L"),
            PolicyKind::Bt => format!("{enf}-BT"),
            PolicyKind::Nru => format!("{enf}-{}N", format_scale(self.nru_scale)),
            PolicyKind::Random => format!("{enf}-R"),
            PolicyKind::Fifo => format!("{enf}-F"),
        }
    }

    /// Parse a paper-style acronym. Thin wrapper over the single scheme
    /// grammar ([`crate::scheme::Scheme`]); `None` for bare policies and
    /// invalid combinations alike — parse a `Scheme` instead when the
    /// error message matters.
    pub fn from_acronym(s: &str) -> Option<CpaConfig> {
        s.parse::<crate::scheme::Scheme>().ok()?.cpa().cloned()
    }
}

fn format_scale(s: f64) -> String {
    if (s - 1.0).abs() < 1e-9 {
        "1.0".into()
    } else if (s - 0.75).abs() < 1e-9 {
        "0.75".into()
    } else if (s - 0.5).abs() < 1e-9 {
        "0.5".into()
    } else {
        format!("{s}")
    }
}

impl fmt::Display for CpaConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.acronym())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acronyms_match_the_paper() {
        assert_eq!(CpaConfig::c_l().acronym(), "C-L");
        assert_eq!(CpaConfig::m_l().acronym(), "M-L");
        assert_eq!(CpaConfig::m_nru(1.0).acronym(), "M-1.0N");
        assert_eq!(CpaConfig::m_nru(0.75).acronym(), "M-0.75N");
        assert_eq!(CpaConfig::m_nru(0.5).acronym(), "M-0.5N");
        assert_eq!(CpaConfig::m_bt().acronym(), "M-BT");
    }

    #[test]
    fn figure7_set_order() {
        let names: Vec<_> = CpaConfig::figure7_set()
            .iter()
            .map(|c| c.acronym())
            .collect();
        assert_eq!(
            names,
            vec!["C-L", "M-L", "M-1.0N", "M-0.75N", "M-0.5N", "M-BT"]
        );
    }

    #[test]
    fn parse_round_trips() {
        for c in CpaConfig::figure7_set() {
            let parsed = CpaConfig::from_acronym(&c.acronym()).unwrap();
            assert_eq!(parsed.acronym(), c.acronym());
            assert_eq!(parsed.policy, c.policy);
            assert_eq!(parsed.enforcement, c.enforcement);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CpaConfig::from_acronym("X-L").is_none());
        assert!(CpaConfig::from_acronym("M-2.0N").is_none());
        assert!(CpaConfig::from_acronym("ML").is_none());
        assert!(CpaConfig::from_acronym("M-Q").is_none());
    }

    #[test]
    fn defaults_match_the_paper() {
        let c = CpaConfig::c_l();
        assert_eq!(c.interval_cycles, 1_000_000);
        assert_eq!(c.sample_ratio, 32);
        assert_eq!(c.selector, Selector::ExactDp);
    }

    #[test]
    fn display_uses_acronym() {
        assert_eq!(format!("{}", CpaConfig::m_nru(0.75)), "M-0.75N");
    }
}
