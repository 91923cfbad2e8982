//! Experiment drivers shared by the per-figure binaries.
//!
//! Every figure is a cartesian sweep, so every driver here is now a
//! declarative [`ScenarioSpec`] — `fig6_spec` / `fig7_spec` / `fig8_spec`
//! build the spec, the root crate's multi-threaded [`SweepRunner`]
//! executes it, and the driver only aggregates the [`SweepReport`] into
//! the figure's rows. The quick variants of the fig6/fig8 specs ship as
//! `scenarios/fig6_quick.json` / `scenarios/fig8_quick.json`, pinned to
//! these builders by `tests/spec_pins.rs`, so
//! `cargo run --bin sweep -- scenarios/fig8_quick.json` reproduces the
//! figure binary's underlying numbers.

use crate::options::Options;
use cachesim::PolicyKind;
use cmpsim::metrics::mean;
use cmpsim::{MachineConfig, SimResult, WorkloadMetrics};
use plru_core::CpaConfig;
use plru_repro::engine::{SimEngine, SimEngineBuilder};
use plru_repro::scenario::{ScenarioSpec, SweepReport, SweepRunner, WorkloadSel};
use serde::{Deserialize, Serialize};
use tracegen::{workloads_with_threads, Workload};

/// The machine for an experiment: the paper baseline with the option's
/// instruction budget and seed.
pub fn machine(num_cores: usize, opts: &Options) -> MachineConfig {
    let mut cfg = MachineConfig::paper_baseline(num_cores);
    cfg.insts_target = opts.insts;
    cfg.seed = opts.seed;
    cfg
}

/// Engine builder on the experiment machine.
pub fn engine(num_cores: usize, opts: &Options) -> SimEngineBuilder {
    SimEngine::builder().machine(machine(num_cores, opts))
}

/// Workload subset for `--quick` smoke runs.
fn select_workloads(threads: usize, quick: bool) -> Vec<Workload> {
    let mut w = workloads_with_threads(threads);
    if quick {
        w.truncate(4);
    }
    w
}

/// Spec name with the `--quick` variant marked.
fn spec_name(base: &str, quick: bool) -> String {
    if quick {
        format!("{base}-quick")
    } else {
        base.to_string()
    }
}

/// Activity counters of a run, for the power model.
pub fn activity_of(r: &SimResult, num_cores: usize, insts_per_core: u64) -> hwmodel::RunActivity {
    hwmodel::RunActivity {
        cycles: r.total_cycles,
        insts: insts_per_core * num_cores as u64,
        num_cores,
        l2_accesses: r.cores.iter().map(|c| c.l2_accesses).sum(),
        l2_misses: r.cores.iter().map(|c| c.l2_misses).sum(),
        atd_accesses: r.atd_observed,
    }
}

/// Relative metric of `scheme` vs `base` for one workload of a report.
/// Panics if the report does not contain the pair — the specs built here
/// always do.
fn rel(report: &SweepReport, workload: &str, scheme: &str, base: &str) -> WorkloadMetrics {
    let m = &lookup(report, workload, scheme).metrics;
    let b = &lookup(report, workload, base).metrics;
    m.relative_to(b)
}

fn lookup<'r>(
    report: &'r SweepReport,
    workload: &str,
    scheme: &str,
) -> &'r plru_repro::scenario::CaseReport {
    report
        .find(workload, scheme)
        .unwrap_or_else(|| panic!("case ({workload}, {scheme}) missing from sweep report"))
}

/// Arithmetic mean of one metric over a slice of relative metrics — the
/// figures' per-bar aggregation rule, in one place.
fn mean_of(rels: &[WorkloadMetrics], f: impl Fn(&WorkloadMetrics) -> f64) -> f64 {
    mean(&rels.iter().map(f).collect::<Vec<_>>())
}

// ---------------------------------------------------------------------
// Figure 6: non-partitioned LRU vs NRU vs BT.
// ---------------------------------------------------------------------

/// One bar of Figure 6: a policy at a core count, relative to LRU.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Row {
    /// Core count (1, 2, 4 or 8).
    pub cores: usize,
    /// Policy acronym (`L`, `N`, `BT`).
    pub policy: String,
    /// Mean relative throughput vs LRU.
    pub rel_throughput: f64,
    /// Mean relative harmonic mean vs LRU (None for 1 core).
    pub rel_harmonic_mean: Option<f64>,
    /// Mean relative weighted speedup vs LRU (None for 1 core).
    pub rel_weighted_speedup: Option<f64>,
}

const FIG6_POLICIES: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Nru, PolicyKind::Bt];

/// Per-core-count workload display names of the Figure 6 sweep: the 25
/// single benchmarks at 1 core, the Table II sets above.
fn fig6_groups(quick: bool) -> Vec<(usize, Vec<String>)> {
    let mut singles: Vec<&str> = tracegen::benchmark_names();
    if quick {
        singles.truncate(4);
    }
    let mut groups = vec![(1usize, singles.iter().map(|s| s.to_string()).collect())];
    for threads in [2usize, 4, 8] {
        groups.push((
            threads,
            select_workloads(threads, quick)
                .into_iter()
                .map(|w| w.name)
                .collect(),
        ));
    }
    groups
}

/// The Figure 6 sweep as a spec: every workload of every core count under
/// the three replacement policies, unpartitioned.
pub fn fig6_spec(opts: &Options) -> ScenarioSpec {
    let mut workloads: Vec<WorkloadSel> = Vec::new();
    for (threads, names) in fig6_groups(opts.quick) {
        for name in names {
            workloads.push(if threads == 1 {
                WorkloadSel::Profiles(vec![name])
            } else {
                WorkloadSel::Named(name)
            });
        }
    }
    ScenarioSpec {
        name: spec_name("fig6", opts.quick),
        description: Some("Figure 6: non-partitioned LRU vs NRU vs BT at 1/2/4/8 cores".into()),
        insts: Some(opts.insts),
        seed: Some(opts.seed),
        workloads,
        schemes: FIG6_POLICIES.iter().map(|p| p.acronym().into()).collect(),
        ..Default::default()
    }
}

/// Run the Figure 6 experiment: all 49 workloads plus the 25 single-thread
/// runs, three replacement policies, non-partitioned L2.
pub fn fig6_experiment(opts: &Options) -> Vec<Fig6Row> {
    let report = SweepRunner::new()
        .run(&fig6_spec(opts))
        .expect("fig6 spec is valid");
    let mut rows = Vec::new();
    for (cores, names) in fig6_groups(opts.quick) {
        for &policy in &FIG6_POLICIES {
            let rels: Vec<WorkloadMetrics> = names
                .iter()
                .map(|wl| rel(&report, wl, policy.acronym(), PolicyKind::Lru.acronym()))
                .collect();
            rows.push(Fig6Row {
                cores,
                policy: policy.acronym().to_string(),
                rel_throughput: mean_of(&rels, |m| m.throughput),
                rel_harmonic_mean: (cores > 1).then(|| mean_of(&rels, |m| m.harmonic_mean)),
                rel_weighted_speedup: (cores > 1).then(|| mean_of(&rels, |m| m.weighted_speedup)),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------------
// Figure 7: dynamic CPA configurations relative to C-L.
// ---------------------------------------------------------------------

/// Raw result of one (workload, configuration) CPA run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConfigRun {
    /// Configuration acronym.
    pub acronym: String,
    /// Workload name.
    pub workload: String,
    /// Core count.
    pub cores: usize,
    /// Absolute metrics.
    pub metrics: WorkloadMetrics,
    /// Full simulation result.
    pub result: SimResult,
}

/// One bar group of Figure 7: a configuration at a core count, averaged
/// over workloads, relative to C-L.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Core count.
    pub cores: usize,
    /// Configuration acronym.
    pub acronym: String,
    /// Mean relative throughput vs C-L.
    pub rel_throughput: f64,
    /// Mean relative harmonic mean vs C-L.
    pub rel_harmonic_mean: f64,
    /// Mean relative weighted speedup vs C-L.
    pub rel_weighted_speedup: f64,
}

/// The Figure 7 sweep as a spec: every multiprogrammed workload under the
/// six CPA configurations.
pub fn fig7_spec(opts: &Options) -> ScenarioSpec {
    let workloads: Vec<WorkloadSel> = [2usize, 4, 8]
        .iter()
        .flat_map(|&t| select_workloads(t, opts.quick))
        .map(|w| WorkloadSel::Named(w.name))
        .collect();
    ScenarioSpec {
        name: spec_name("fig7", opts.quick),
        description: Some(
            "Figure 7: the six dynamic CPA configurations at 2/4/8 cores, vs C-L".into(),
        ),
        insts: Some(opts.insts),
        seed: Some(opts.seed),
        workloads,
        schemes: CpaConfig::figure7_set()
            .iter()
            .map(|c| c.acronym())
            .collect(),
        ..Default::default()
    }
}

/// Run the Figure 7 experiment. Returns the averaged rows plus every raw
/// run (Figure 9 reuses the raw runs for its power model).
pub fn fig7_experiment(opts: &Options) -> (Vec<Fig7Row>, Vec<ConfigRun>) {
    let report = SweepRunner::new()
        .run(&fig7_spec(opts))
        .expect("fig7 spec is valid");
    let configs = CpaConfig::figure7_set();
    let baseline = configs[0].acronym(); // C-L

    let raw: Vec<ConfigRun> = report
        .cases
        .iter()
        .map(|c| ConfigRun {
            acronym: c.scheme.clone(),
            workload: c.case.workload.clone(),
            cores: c.case.threads(),
            metrics: c.metrics,
            result: c.result.clone(),
        })
        .collect();

    let mut rows = Vec::new();
    for threads in [2usize, 4, 8] {
        let names: Vec<String> = select_workloads(threads, opts.quick)
            .into_iter()
            .map(|w| w.name)
            .collect();
        for cpa in &configs {
            let rels: Vec<WorkloadMetrics> = names
                .iter()
                .map(|wl| rel(&report, wl, &cpa.acronym(), &baseline))
                .collect();
            rows.push(Fig7Row {
                cores: threads,
                acronym: cpa.acronym(),
                rel_throughput: mean_of(&rels, |m| m.throughput),
                rel_harmonic_mean: mean_of(&rels, |m| m.harmonic_mean),
                rel_weighted_speedup: mean_of(&rels, |m| m.weighted_speedup),
            });
        }
    }
    (rows, raw)
}

// ---------------------------------------------------------------------
// Figure 8: CPA vs non-partitioned cache across L2 sizes (2 cores).
// ---------------------------------------------------------------------

/// One bar of Figure 8: a 2-thread workload at an L2 size under one
/// scheme, relative to the non-partitioned cache of the same policy.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Scheme acronym (`M-L`, `M-0.75N`, `M-BT`).
    pub scheme: String,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Workload name, or `"AVG"` for the per-size average bar.
    pub workload: String,
    /// Throughput relative to the non-partitioned same-policy cache.
    pub rel_throughput: f64,
}

/// The three (policy, configuration) pairs of Figure 8(a,b,c).
pub fn fig8_schemes() -> Vec<CpaConfig> {
    vec![CpaConfig::m_l(), CpaConfig::m_nru(0.75), CpaConfig::m_bt()]
}

/// L2 sizes swept by Figure 8.
pub const FIG8_SIZES: [u64; 3] = [512 * 1024, 1024 * 1024, 2 * 1024 * 1024];

/// The Figure 8 sweep as a spec: every 2-thread workload, each CPA scheme
/// next to its non-partitioned baseline policy, across the three L2 sizes.
pub fn fig8_spec(opts: &Options) -> ScenarioSpec {
    let mut schemes = Vec::new();
    for cpa in fig8_schemes() {
        schemes.push(cpa.policy.acronym().to_string());
        schemes.push(cpa.acronym());
    }
    ScenarioSpec {
        name: spec_name("fig8", opts.quick),
        description: Some(
            "Figure 8: dynamic CPA vs the non-partitioned same-policy cache at 512K/1M/2M".into(),
        ),
        insts: Some(opts.insts),
        seed: Some(opts.seed),
        workloads: select_workloads(2, opts.quick)
            .into_iter()
            .map(|w| WorkloadSel::Named(w.name))
            .collect(),
        schemes: schemes.into(),
        l2_sizes: Some(FIG8_SIZES.to_vec()),
        ..Default::default()
    }
}

/// Run the Figure 8 experiment.
pub fn fig8_experiment(opts: &Options) -> Vec<Fig8Row> {
    let report = SweepRunner::new()
        .run(&fig8_spec(opts))
        .expect("fig8 spec is valid");
    let names: Vec<String> = select_workloads(2, opts.quick)
        .into_iter()
        .map(|w| w.name)
        .collect();
    let mut rows = Vec::new();
    for cpa in fig8_schemes() {
        let (part, base) = (cpa.acronym(), cpa.policy.acronym());
        for &size in &FIG8_SIZES {
            let rels: Vec<f64> = names
                .iter()
                .map(|wl| {
                    let p = report
                        .find_at(wl, &part, size, 0)
                        .unwrap_or_else(|| panic!("({wl}, {part}, {size}) missing"));
                    let b = report
                        .find_at(wl, base, size, 0)
                        .unwrap_or_else(|| panic!("({wl}, {base}, {size}) missing"));
                    p.metrics.throughput / b.metrics.throughput
                })
                .collect();
            for (wl, &rel) in names.iter().zip(&rels) {
                rows.push(Fig8Row {
                    scheme: part.clone(),
                    l2_bytes: size,
                    workload: wl.clone(),
                    rel_throughput: rel,
                });
            }
            rows.push(Fig8Row {
                scheme: part.clone(),
                l2_bytes: size,
                workload: "AVG".to_string(),
                rel_throughput: mean(&rels),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts() -> Options {
        Options {
            insts: 40_000,
            quick: true,
            json: None,
            seed: 7,
        }
    }

    #[test]
    fn machine_uses_options() {
        let o = quick_opts();
        let m = machine(4, &o);
        assert_eq!(m.num_cores, 4);
        assert_eq!(m.insts_target, 40_000);
        assert_eq!(m.seed, 7);
    }

    #[test]
    fn engine_builder_carries_the_machine() {
        let o = quick_opts();
        let e = engine(4, &o).build();
        assert_eq!(e.config().num_cores, 4);
        assert_eq!(e.config().insts_target, 40_000);
    }

    #[test]
    fn activity_sums_cores() {
        let o = quick_opts();
        let wl = tracegen::workload("2T_21").unwrap();
        let r = engine(2, &o)
            .scheme(plru_core::Scheme::bare(PolicyKind::Lru))
            .build()
            .run(&wl);
        let a = activity_of(&r, 2, o.insts);
        assert_eq!(a.insts, 80_000);
        assert_eq!(
            a.l2_accesses,
            r.cores.iter().map(|c| c.l2_accesses).sum::<u64>()
        );
        assert!(a.l2_misses <= a.l2_accesses);
    }

    #[test]
    fn quick_subset_is_small() {
        assert_eq!(select_workloads(2, true).len(), 4);
        assert_eq!(select_workloads(2, false).len(), 24);
    }

    #[test]
    fn fig8_schemes_match_the_paper() {
        let names: Vec<String> = fig8_schemes().iter().map(|c| c.acronym()).collect();
        assert_eq!(names, vec!["M-L", "M-0.75N", "M-BT"]);
    }

    #[test]
    fn fig6_quick_spec_expands_to_the_cross_product() {
        let spec = fig6_spec(&quick_opts());
        let cases = spec.expand().unwrap();
        // (4 singles + 4+4+4 Table II workloads) x 3 policies.
        assert_eq!(cases.len(), 16 * 3);
        assert_eq!(cases[0].workload, tracegen::benchmark_names()[0]);
        assert_eq!(cases[0].threads(), 1);
    }

    #[test]
    fn fig7_full_spec_covers_all_49_workloads() {
        let mut o = quick_opts();
        o.quick = false;
        let spec = fig7_spec(&o);
        assert_eq!(spec.workloads.len(), 49);
        let schemes = spec.schemes.as_list().unwrap();
        assert_eq!(schemes.len(), 6);
        assert_eq!(schemes[0], "C-L");
    }

    #[test]
    fn fig8_quick_spec_pairs_each_cpa_with_its_baseline() {
        let spec = fig8_spec(&quick_opts());
        assert_eq!(
            spec.schemes.as_list().unwrap(),
            ["L", "M-L", "N", "M-0.75N", "BT", "M-BT"]
        );
        assert_eq!(spec.l2_sizes.as_deref(), Some(&FIG8_SIZES[..]));
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 4 * 6 * 3);
    }
}
