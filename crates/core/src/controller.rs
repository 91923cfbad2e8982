//! The dynamic CPA controller: ties profiling, selection and enforcement
//! together at every interval boundary.

use crate::config::{CpaConfig, Objective, Selector};
use crate::enforce::{build_enforcement, equal_allocation};
use crate::minmisses::{fairness_minimax, min_misses_dp, min_misses_greedy};
use crate::profiler::Profiler;
use cachesim::{Addr, CacheError, CacheGeometry, Enforcement};

/// Dynamic cache-partitioning controller for one shared L2.
///
/// Usage protocol (driven by the CMP simulator):
///
/// 1. install [`CpaController::initial_enforcement`] on the L2;
/// 2. call [`CpaController::observe`] for **every** L2 access (the
///    controller's per-thread ATDs sample internally);
/// 3. at every `interval_cycles` boundary call
///    [`CpaController::on_interval`] and install the returned enforcement.
///
/// ## Many-core clustering
///
/// When more cores share the L2 than it has ways (64-256 tenants on a
/// 16/32-way cache), no partition can give every core a private way.
/// The controller then groups cores round-robin into
/// `clusters = min(num_cores, assoc)` clusters: each core keeps its own
/// profiling ATD, per-cluster miss curves are the elementwise sum of
/// the members' curves, MinMisses partitions between *clusters*, and
/// mask enforcement hands every member the cluster's mask. Owner
/// counters cannot express shared quotas, so `C-*` schemes reject the
/// many-core case at construction with a one-line error
/// ([`CpaController::try_new`]).
///
/// ```
/// use cachesim::CacheGeometry;
/// use plru_core::{CpaConfig, CpaController};
///
/// // M-0.75N on the paper's 2 MB / 16-way L2, two threads.
/// let geom = CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap();
/// let mut ctl = CpaController::new(CpaConfig::m_nru(0.75), geom, 2);
/// let _initial = ctl.initial_enforcement(); // equal split to start
///
/// // Thread 0 streams, thread 1 re-touches a small working set.
/// for i in 0..20_000u64 {
///     ctl.observe(0, i * 128);
///     ctl.observe(1, (i % 64) * 128);
/// }
/// let _enforcement = ctl.on_interval(); // install on the L2
/// assert_eq!(ctl.allocation().len(), 2);
/// assert_eq!(ctl.allocation().iter().sum::<usize>(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct CpaController {
    config: CpaConfig,
    assoc: usize,
    /// Partitioned entities: the core count at paper scale, `assoc / 2`
    /// when more cores than ways share the cache.
    clusters: usize,
    profilers: Vec<Profiler>,
    /// Ways per cluster.
    allocation: Vec<usize>,
    /// Allocation decided at each interval boundary (for analysis).
    history: Vec<Vec<usize>>,
    intervals: u64,
}

impl CpaController {
    /// Build a controller for `num_cores` threads sharing an L2 of shape
    /// `geom`. Panics on invalid combinations; the validated path is
    /// [`Self::try_new`].
    pub fn new(config: CpaConfig, geom: CacheGeometry, num_cores: usize) -> Self {
        Self::try_new(config, geom, num_cores).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Build a controller, surfacing invalid combinations (zero cores,
    /// owner counters with more cores than ways, a sample ratio leaving
    /// no sampled set, an unsupported sketch fingerprint width, an NRU
    /// scale outside `(0, 1]`) as one-line errors config parsing can
    /// report.
    pub fn try_new(
        config: CpaConfig,
        geom: CacheGeometry,
        num_cores: usize,
    ) -> Result<Self, CacheError> {
        if num_cores < 1 {
            return Err(CacheError::BadPartition {
                reason: "a partitioned cache needs at least one core".into(),
            });
        }
        let clusters = if num_cores <= geom.assoc() {
            num_cores
        } else {
            // Half the ways, so the per-cluster MinMisses DP (>= 1 way
            // each, summing to assoc) is not forced into all-ones.
            (geom.assoc() / 2).max(1)
        };
        let profiler = Profiler::new(
            config.policy,
            geom,
            config.sample_ratio,
            config.nru_scale,
            config.nru_update,
            config.fidelity(),
        )?;
        // Owner counters reject a clustered split here, on its first build.
        let allocation = equal_allocation(clusters, geom.assoc());
        build_enforcement(&config, &allocation, geom.assoc(), num_cores)?;
        Ok(CpaController {
            assoc: geom.assoc(),
            clusters,
            profilers: vec![profiler; num_cores],
            allocation,
            history: Vec::new(),
            intervals: 0,
            config,
        })
    }

    /// Number of partitioned clusters (`num_cores` at paper scale,
    /// `assoc / 2` at many-core scale).
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// The configuration acronym (e.g. `M-0.75N`).
    pub fn acronym(&self) -> String {
        self.config.acronym()
    }

    /// The configuration.
    pub fn config(&self) -> &CpaConfig {
        &self.config
    }

    /// Repartition interval in cycles.
    pub fn interval_cycles(&self) -> u64 {
        self.config.interval_cycles
    }

    /// The enforcement for the starting equal split.
    pub fn initial_enforcement(&self) -> Enforcement {
        build_enforcement(&self.config, &self.allocation, self.assoc, self.num_cores())
            .expect("equal split is always enforceable")
    }

    /// Number of cores (= profilers) this controller serves.
    pub fn num_cores(&self) -> usize {
        self.profilers.len()
    }

    /// Feed one L2 access of `core` into its profiler.
    #[inline]
    pub fn observe(&mut self, core: usize, addr: Addr) {
        self.profilers[core].observe(addr);
    }

    /// Interval boundary: read the (e)SDHs, select a new partition with
    /// MinMisses, decay the SDHs, and return the enforcement to install.
    ///
    /// If the histograms hold fewer than `min_samples_per_thread` samples
    /// per thread on average, the current partition is kept (and the SDHs
    /// are left to accumulate) — repartitioning off a cold histogram is
    /// pure noise.
    pub fn on_interval(&mut self) -> Enforcement {
        self.on_interval_with_feedback(None)
    }

    /// Interval boundary with optional miss feedback: `observed_misses[c]`
    /// is the number of L2 misses core `c` actually suffered since the
    /// last boundary. With `adaptive_nru_scale` enabled, the NRU profilers
    /// compare their prediction at the installed allocation against the
    /// observation and nudge their scaling factor accordingly — the
    /// estimation-accuracy extension the paper leaves as future work.
    pub fn on_interval_with_feedback(&mut self, observed_misses: Option<&[u64]>) -> Enforcement {
        let total: u64 = self.profilers.iter().map(|p| p.sdh().total()).sum();
        let warm = total >= self.config.min_samples_per_thread * self.profilers.len() as u64;
        if warm {
            if self.config.adaptive_nru_scale {
                if let Some(observed) = observed_misses {
                    self.adapt_nru_scales(observed);
                }
            }
            // Per-cluster curves: the elementwise sum of the members'
            // curves (the cluster's demand as one aggregate tenant); at
            // paper scale every cluster is one core.
            let mut curves = vec![vec![0u64; self.assoc + 1]; self.clusters];
            for (c, p) in self.profilers.iter().enumerate() {
                let curve = p.sdh().miss_curve();
                for (acc, v) in curves[c % self.clusters].iter_mut().zip(curve) {
                    *acc += v;
                }
            }
            self.allocation = match self.config.objective {
                Objective::Fairness => fairness_minimax(&curves, self.assoc),
                Objective::MinMisses => match self.config.selector {
                    Selector::ExactDp => min_misses_dp(&curves, self.assoc),
                    Selector::Greedy => min_misses_greedy(&curves, self.assoc),
                },
            };
            for p in &mut self.profilers {
                p.decay();
            }
        }
        self.intervals += 1;
        self.history.push(self.allocation.clone());
        build_enforcement(&self.config, &self.allocation, self.assoc, self.num_cores())
            .expect("MinMisses allocations are always enforceable")
    }

    /// One feedback step of the adaptive scaling factor: predicted misses
    /// at the installed allocation (ATD counts x sampling ratio) vs
    /// observed misses. Predicting too few misses means the distance
    /// estimates are too small -> raise `S`; too many -> lower it.
    fn adapt_nru_scales(&mut self, observed_misses: &[u64]) {
        const STEP: f64 = 0.05;
        const DEADBAND: f64 = 0.15;
        let ratio = self.config.sample_ratio as f64;
        let clusters = self.clusters;
        for (c, p) in self.profilers.iter_mut().enumerate() {
            let alloc = self.allocation[c % clusters];
            let predicted = p.sdh().misses_with_ways(alloc) as f64 * ratio;
            let observed = observed_misses.get(c).copied().unwrap_or(0) as f64;
            if observed < 1.0 || predicted < 1.0 {
                continue;
            }
            let Some(scale) = p.nru_scale() else { return };
            let err = predicted / observed;
            if err < 1.0 - DEADBAND {
                p.set_nru_scale(scale + STEP);
            } else if err > 1.0 + DEADBAND {
                p.set_nru_scale(scale - STEP);
            }
        }
    }

    /// The most recent allocation: ways per cluster (= per thread
    /// whenever `num_cores <= assoc`).
    pub fn allocation(&self) -> &[usize] {
        &self.allocation
    }

    /// All allocations decided so far.
    pub fn history(&self) -> &[Vec<usize>] {
        &self.history
    }

    /// Number of interval boundaries processed.
    pub fn intervals(&self) -> u64 {
        self.intervals
    }

    /// The per-thread profilers (for inspection).
    pub fn profilers(&self) -> &[Profiler] {
        &self.profilers
    }

    /// Current NRU scaling factors per thread (None entries for non-NRU
    /// configurations).
    pub fn nru_scales(&self) -> Vec<Option<f64>> {
        self.profilers.iter().map(|p| p.nru_scale()).collect()
    }

    /// Total ATD probes across threads (for the power model).
    pub fn total_observed(&self) -> u64 {
        self.profilers.iter().map(|p| p.observed()).sum()
    }

    /// Reset profilers and return to the equal split.
    pub fn reset(&mut self) {
        for p in &mut self.profilers {
            p.reset();
        }
        self.allocation = equal_allocation(self.clusters, self.assoc);
        self.history.clear();
        self.intervals = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::PolicyKind;

    fn geom() -> CacheGeometry {
        CacheGeometry::new(2 * 1024 * 1024, 16, 128).unwrap()
    }

    /// Byte address of the n-th line in sampled set 0.
    fn sampled_addr(n: u64) -> Addr {
        (n << 10) << 7
    }

    #[test]
    fn initial_enforcement_is_equal_split() {
        let c = CpaController::new(CpaConfig::m_l(), geom(), 2);
        assert_eq!(c.allocation(), &[8, 8]);
        match c.initial_enforcement() {
            Enforcement::Masks(masks) => {
                assert_eq!(masks[0].count(), 8);
                assert_eq!(masks[1].count(), 8);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn interval_reallocates_toward_the_needier_thread() {
        let mut c = CpaController::new(CpaConfig::m_l(), geom(), 2);
        // Thread 0 cycles through 12 lines of a sampled set (needs 12
        // ways); thread 1 hammers 1 line (needs 1 way).
        for _ in 0..200 {
            for n in 0..12 {
                c.observe(0, sampled_addr(n));
            }
            c.observe(1, sampled_addr(100));
        }
        c.on_interval();
        let alloc = c.allocation();
        assert!(
            alloc[0] >= 12,
            "thread 0 should receive its working set: {alloc:?}"
        );
        assert_eq!(alloc.iter().sum::<usize>(), 16);
    }

    #[test]
    fn works_for_all_paper_configs() {
        for cfg in CpaConfig::figure7_set() {
            let mut c = CpaController::new(cfg.clone(), geom(), 4);
            for i in 0..400u64 {
                c.observe((i % 4) as usize, sampled_addr(i % 10));
            }
            let e = c.on_interval();
            assert_ne!(e, Enforcement::None, "{}", cfg.acronym());
            assert_eq!(c.allocation().iter().sum::<usize>(), 16);
            assert!(c.allocation().iter().all(|&w| w >= 1));
        }
    }

    #[test]
    fn bt_strict_mode_emits_aligned_subtree_masks() {
        let mut cfg = CpaConfig::m_bt();
        cfg.bt_strict_vectors = true;
        let mut c = CpaController::new(cfg, geom(), 2);
        for n in 0..6 {
            c.observe(0, sampled_addr(n));
        }
        match c.on_interval() {
            Enforcement::Masks(masks) => {
                assert!(masks.iter().all(|m| m.is_aligned_subtree(16)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.config().policy, PolicyKind::Bt);
    }

    #[test]
    fn history_and_interval_counting() {
        let mut c = CpaController::new(CpaConfig::c_l(), geom(), 2);
        c.on_interval();
        c.on_interval();
        assert_eq!(c.intervals(), 2);
        assert_eq!(c.history().len(), 2);
    }

    #[test]
    fn decay_happens_each_interval() {
        let mut c = CpaController::new(CpaConfig::m_l(), geom(), 2);
        for _ in 0..64 {
            c.observe(0, sampled_addr(0));
        }
        let before = c.profilers()[0].sdh().total();
        c.on_interval();
        let after = c.profilers()[0].sdh().total();
        assert!(
            after <= before / 2 + 1,
            "decay must halve ({before} -> {after})"
        );
    }

    #[test]
    fn reset_restores_equal_split() {
        let mut c = CpaController::new(CpaConfig::m_l(), geom(), 2);
        for _ in 0..100 {
            for n in 0..12 {
                c.observe(0, sampled_addr(n));
            }
        }
        c.on_interval();
        c.reset();
        assert_eq!(c.allocation(), &[8, 8]);
        assert_eq!(c.intervals(), 0);
        assert_eq!(c.total_observed(), 0);
    }

    #[test]
    fn fairness_objective_balances_identical_threads() {
        use crate::config::Objective;
        let mut cfg = CpaConfig::m_l();
        cfg.objective = Objective::Fairness;
        let mut c = CpaController::new(cfg, geom(), 2);
        // Identical pressure from both threads, working sets of 6 ways
        // each (both fit in 16 ways together).
        for _ in 0..100 {
            for n in 0..6 {
                c.observe(0, sampled_addr(n));
                c.observe(1, sampled_addr(100 + n));
            }
        }
        c.on_interval();
        let alloc = c.allocation();
        assert!(
            alloc[0] >= 6 && alloc[1] >= 6,
            "fairness must cover both working sets: {alloc:?}"
        );
    }

    #[test]
    fn adaptive_scale_moves_toward_observed_misses() {
        let mut cfg = CpaConfig::m_nru(0.75);
        cfg.adaptive_nru_scale = true;
        cfg.min_samples_per_thread = 1;
        let mut c = CpaController::new(cfg, geom(), 2);
        for _ in 0..100 {
            for n in 0..6 {
                c.observe(0, sampled_addr(n));
                c.observe(1, sampled_addr(100 + n));
            }
        }
        let before = c.nru_scales()[0].unwrap();
        // Report far more observed misses than predicted: scales rise.
        c.on_interval_with_feedback(Some(&[1_000_000, 1_000_000]));
        let after = c.nru_scales()[0].unwrap();
        assert!(after > before, "scale should rise: {before} -> {after}");
        // Now report (effectively) fewer misses than predicted: it falls.
        for _ in 0..100 {
            for n in 0..6 {
                c.observe(0, sampled_addr(n));
                c.observe(1, sampled_addr(100 + n));
            }
        }
        c.on_interval_with_feedback(Some(&[1, 1]));
        let third = c.nru_scales()[0].unwrap();
        assert!(third < after, "scale should fall: {after} -> {third}");
    }

    #[test]
    fn non_adaptive_config_keeps_its_scale() {
        let cfg = CpaConfig::m_nru(0.75);
        let mut c = CpaController::new(cfg, geom(), 2);
        for _ in 0..100 {
            for n in 0..6 {
                c.observe(0, sampled_addr(n));
            }
        }
        c.on_interval_with_feedback(Some(&[999_999, 999_999]));
        assert_eq!(c.nru_scales()[0], Some(0.75));
    }

    #[test]
    fn owner_counters_reject_more_cores_than_ways_with_one_line_error() {
        let err = CpaController::try_new(CpaConfig::c_l(), geom(), 64).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("use an M-* scheme"), "unexpected error: {msg}");
        assert!(!msg.contains('\n'), "error must be one line");
    }

    #[test]
    fn bad_nru_scales_are_one_line_errors() {
        for scale in [1.5, 0.0, f64::NAN] {
            let mut cfg = CpaConfig::m_nru(0.75);
            cfg.nru_scale = scale;
            let msg = CpaController::try_new(cfg, geom(), 2)
                .unwrap_err()
                .to_string();
            assert!(msg.contains("outside (0, 1]"), "unexpected error: {msg}");
            assert!(!msg.contains('\n'), "error must be one line");
        }
    }

    #[test]
    fn masks_cluster_more_cores_than_ways() {
        // 64 cores on 16 ways: 8 clusters of 8 cores each.
        let mut c = CpaController::try_new(CpaConfig::m_l(), geom(), 64).unwrap();
        assert_eq!(c.clusters(), 8);
        assert_eq!(c.num_cores(), 64);
        assert_eq!(c.allocation().len(), 8);
        assert_eq!(c.allocation().iter().sum::<usize>(), 16);
        match c.initial_enforcement() {
            Enforcement::Masks(masks) => {
                assert_eq!(masks.len(), 64);
                assert_eq!(masks[0], masks[8], "cores 0/8 share cluster 0");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Cluster 0's members (cores 0, 8, 16, 24) each loop a 5-line
        // working set; everyone else touches one line. Cluster 0 should
        // win ways (5 <= the 9 ways reachable once the 7 one-line
        // clusters keep their single way).
        for _ in 0..100 {
            for m in 0..4 {
                for n in 0..5 {
                    c.observe(m * 8, sampled_addr(n));
                }
            }
            for core in 1..8 {
                c.observe(core, sampled_addr(100));
            }
        }
        let e = c.on_interval();
        assert_ne!(e, Enforcement::None);
        let alloc = c.allocation();
        assert_eq!(alloc.iter().sum::<usize>(), 16);
        assert!(
            alloc[0] > 2,
            "the demanding cluster should grow past its equal share: {alloc:?}"
        );
    }

    #[test]
    fn sketch_fidelity_flows_through_the_controller() {
        use crate::sketch::ProfilerFidelity;
        let mut cfg = CpaConfig::m_l();
        cfg.fidelity = Some(ProfilerFidelity::Sketch { fp_bits: 12 });
        let c = CpaController::try_new(cfg, geom(), 2).unwrap();
        assert_eq!(
            c.profilers()[0].fidelity(),
            ProfilerFidelity::Sketch { fp_bits: 12 }
        );
        let mut bad = CpaConfig::m_l();
        bad.fidelity = Some(ProfilerFidelity::Sketch { fp_bits: 9 });
        let err = CpaController::try_new(bad, geom(), 2).unwrap_err();
        assert!(err.to_string().contains("8, 12 or 16"));
    }
}
