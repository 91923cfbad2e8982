//! Deterministic expansion of a [`ScenarioSpec`] into concrete cases.
//!
//! Expansion is pure and fully ordered: `workloads` (outermost) ×
//! `schemes` × `l2_sizes` × `l2_assocs` × `seed_salts` × `profilers`
//! (innermost), with each axis deduplicated first (first occurrence
//! wins; schemes dedupe by their canonical acronym). The case count is
//! therefore exactly the product of the deduplicated axis lengths, and
//! `ScenarioCase::index` is the position in that order — the contract
//! the golden-snapshot and property tests pin.
//!
//! The scheme axis holds [`plru_core::Scheme`]s: entries are parsed by
//! the registry's single grammar (there is no scenario-local scheme
//! parser), the spec-level `interval_cycles` override is folded into CPA
//! schemes, and the `"all"` shorthand expands to
//! [`Scheme::all_baseline`].

use crate::engine::{IsolationCache, SimEngine};
use crate::scenario::spec::{ScenarioSpec, WorkloadSel};
use cachesim::CacheGeometry;
use cmpsim::{MachineConfig, StreamKey};
use plru_core::{CpaController, ProfilerFidelity, Scheme};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;
use tracegen::Workload;

/// Why a spec could not be expanded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    msg: String,
}

impl ScenarioError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        ScenarioError { msg: msg.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for ScenarioError {}

/// One fully resolved point of a sweep: everything needed to build and run
/// a [`SimEngine`] simulation, in expansion order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioCase {
    /// Position in the spec's expansion order.
    pub index: usize,
    /// Workload display name (`"2T_05"` or `"galgel+eon"`).
    pub workload: String,
    /// Benchmark names, one per core.
    pub benchmarks: Vec<String>,
    /// Replacement/partitioning scheme (serialized in the full-fidelity
    /// `{"Policy"/"Cpa"}` form the golden reports pin).
    pub scheme: Scheme,
    /// Shared-L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Shared-L2 associativity.
    pub l2_assoc: usize,
    /// Per-core trace seed salt.
    pub seed_salt: u64,
    /// Profiler tag-store fidelity (`"exact"`, `"sketch8"`, ...);
    /// `None` (old serialized cases) means exact.
    pub profiler: Option<String>,
    /// Committed-instruction target per thread.
    pub insts: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Record the controller's allocation history during the run.
    pub capture_history: bool,
    /// Path of the recorded trace container this case replays instead of
    /// synthesising its workload live (`None` for live tracegen cases).
    pub recorded: Option<String>,
}

impl ScenarioCase {
    /// Thread (= core) count of the case.
    pub fn threads(&self) -> usize {
        self.benchmarks.len()
    }

    /// The workload the case runs.
    pub fn to_workload(&self) -> Workload {
        Workload {
            name: self.workload.clone(),
            benchmarks: self.benchmarks.clone(),
        }
    }

    /// The machine the case simulates: the paper baseline at the case's
    /// core count with the case's L2 shape, instruction target and seed.
    pub fn machine(&self) -> MachineConfig {
        let mut cfg = MachineConfig::paper_baseline(self.threads());
        cfg.insts_target = self.insts;
        cfg.seed = self.seed;
        cfg.l2 = CacheGeometry::new(self.l2_bytes, self.l2_assoc, cfg.l2.line_bytes())
            .expect("geometry validated at expansion");
        cfg
    }

    /// The case's profiler fidelity (expansion already validated the
    /// string; `None` means exact).
    pub fn fidelity(&self) -> ProfilerFidelity {
        self.profiler
            .as_deref()
            .map(|p| p.parse().expect("fidelity validated at expansion"))
            .unwrap_or(ProfilerFidelity::Exact)
    }

    /// The step streams the case reads: one per core (none for a
    /// recorded case, which replays its container) and one per
    /// isolation run, each keyed by the case machine's L1 shapes and
    /// fetch width as well as its benchmark and trace seed. The worker
    /// pool pins them in the stream memo while the case is queued or
    /// running.
    pub fn stream_keys(&self) -> Vec<StreamKey> {
        let cfg = self.machine();
        let live_cores = if self.recorded.is_some() {
            0
        } else {
            self.threads()
        };
        let cores = self.benchmarks[..live_cores]
            .iter()
            .enumerate()
            .map(|(i, b)| StreamKey::new(&cfg, i, b, self.seed_salt));
        let solo = self
            .benchmarks
            .iter()
            .map(|b| StreamKey::isolation(&cfg, b, self.seed_salt));
        let mut keys: Vec<StreamKey> = Vec::new();
        for key in cores.chain(solo) {
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys
    }

    /// Build the case's engine on a shared isolation memo.
    pub fn engine(&self, isolation: Arc<IsolationCache>) -> SimEngine {
        SimEngine::builder()
            .machine(self.machine())
            .seed_salt(self.seed_salt)
            .isolation(isolation)
            .scheme(self.scheme.clone())
            .fidelity(self.fidelity())
            .build()
    }
}

/// Stable dedup: keep the first occurrence of each value.
fn dedupe<T: PartialEq + Clone>(xs: &[T]) -> Vec<T> {
    let mut out: Vec<T> = Vec::with_capacity(xs.len());
    for x in xs {
        if !out.contains(x) {
            out.push(x.clone());
        }
    }
    out
}

fn non_empty<T>(axis: &[T], name: &str) -> Result<(), ScenarioError> {
    if axis.is_empty() {
        Err(ScenarioError::new(format!(
            "axis `{name}` must list at least one value"
        )))
    } else {
        Ok(())
    }
}

impl ScenarioSpec {
    /// Expand the spec into its ordered case list.
    ///
    /// Errors on an instruction budget of 0 (no IPC to measure), unknown
    /// workload/benchmark/scheme names, empty axes, and (size,
    /// associativity, policy) combinations no case could simulate
    /// (invalid geometry, or BT at a non-power-of-two associativity).
    pub fn expand(&self) -> Result<Vec<ScenarioCase>, ScenarioError> {
        let baseline = MachineConfig::paper_baseline(2);
        let insts = self.insts.unwrap_or(baseline.insts_target);
        if insts == 0 {
            return Err(ScenarioError::new(
                "`insts` must be positive: a case measures IPC over its instructions",
            ));
        }
        let seed = self.seed.unwrap_or(baseline.seed);
        let capture_history = self.capture_history.unwrap_or(false);

        non_empty(&self.workloads, "workloads")?;
        let resolved_schemes = self
            .schemes
            .resolve()
            .map_err(|e| ScenarioError::new(e.to_string()))?;
        non_empty(&resolved_schemes, "schemes")?;

        // Resolve the workload axis (validates every name; recorded
        // traces are fully stream-validated here so a corrupt file fails
        // the whole sweep readably instead of panicking mid-case).
        let mut workloads: Vec<(Workload, Option<String>)> = Vec::new();
        for sel in &dedupe(&self.workloads) {
            let wl = match sel {
                WorkloadSel::Named(name) => (
                    tracegen::workload(name).ok_or_else(|| {
                        ScenarioError::new(format!("unknown Table II workload `{name}`"))
                    })?,
                    None,
                ),
                WorkloadSel::Profiles(benchmarks) => (
                    Workload::adhoc(benchmarks).ok_or_else(|| {
                        ScenarioError::new(format!(
                            "workload mix {benchmarks:?} is empty or names an unknown benchmark"
                        ))
                    })?,
                    None,
                ),
                WorkloadSel::Recorded(path) => {
                    let info = tracegen::trace::validate_path(path)
                        .map_err(|e| ScenarioError::new(format!("recorded trace `{path}`: {e}")))?;
                    for b in &info.meta.benchmarks {
                        if tracegen::benchmark(b).is_none() {
                            return Err(ScenarioError::new(format!(
                                "recorded trace `{path}` names unknown benchmark `{b}`"
                            )));
                        }
                    }
                    // Capture-mode traces guarantee sufficiency only up
                    // to their recorded target; generator-streamed ones
                    // (insts == 0) replay cyclically, so any target is
                    // fine.
                    if info.meta.insts != 0 && insts > info.meta.insts {
                        return Err(ScenarioError::new(format!(
                            "recorded trace `{path}` was captured to {} instructions \
                             per thread, but the spec asks for {insts}",
                            info.meta.insts
                        )));
                    }
                    (
                        Workload {
                            name: info.meta.workload.clone(),
                            benchmarks: info.meta.benchmarks.clone(),
                        },
                        Some(path.clone()),
                    )
                }
            };
            workloads.push(wl);
        }

        // Fold the spec-level interval override into CPA schemes, then
        // dedupe by canonical acronym so spellings like `M-.75N` and
        // `M-0.75N` collapse. (`resolve` already parsed explicit entries
        // through the registry grammar; `"all"` arrived as `Scheme`s
        // directly, with no string round trip.)
        let mut schemes: Vec<Scheme> = Vec::new();
        for s in resolved_schemes {
            let s = s.with_interval_cycles(self.interval_cycles);
            if !schemes.iter().any(|t| t.acronym() == s.acronym()) {
                schemes.push(s);
            }
        }

        // Profiler-fidelity axis: validate every entry up front.
        let profilers = dedupe(self.profilers.as_deref().unwrap_or(&["exact".to_string()]));
        non_empty(&profilers, "profilers")?;
        for p in &profilers {
            p.parse::<ProfilerFidelity>().map_err(ScenarioError::new)?;
        }

        let l2_sizes = dedupe(
            self.l2_sizes
                .as_deref()
                .unwrap_or(&[baseline.l2.size_bytes()]),
        );
        let l2_assocs = dedupe(self.l2_assocs.as_deref().unwrap_or(&[baseline.l2.assoc()]));
        let seed_salts = dedupe(self.seed_salts.as_deref().unwrap_or(&[0]));
        non_empty(&l2_sizes, "l2_sizes")?;
        non_empty(&l2_assocs, "l2_assocs")?;
        non_empty(&seed_salts, "seed_salts")?;

        // Validate every (size, assoc, scheme) combination up front so a
        // bad spec fails as a whole instead of mid-sweep; each CPA scheme
        // asks the controller itself about every workload's core count.
        for &size in &l2_sizes {
            for &assoc in &l2_assocs {
                let geom =
                    CacheGeometry::new(size, assoc, baseline.l2.line_bytes()).map_err(|e| {
                        ScenarioError::new(format!("invalid L2 shape {size} B x {assoc}-way: {e}"))
                    })?;
                for scheme in &schemes {
                    scheme.policy().validate_assoc(assoc).map_err(|e| {
                        ScenarioError::new(format!(
                            "scheme {} cannot run {assoc}-way: {e}",
                            scheme.acronym()
                        ))
                    })?;
                    let Some(cpa) = scheme.cpa() else { continue };
                    for (wl, _) in &workloads {
                        CpaController::try_new(cpa.clone(), geom, wl.benchmarks.len()).map_err(
                            |e| {
                                ScenarioError::new(format!(
                                    "scheme {} on `{}` at {size} B x {assoc}-way: {e}",
                                    scheme.acronym(),
                                    wl.name
                                ))
                            },
                        )?;
                    }
                }
            }
        }

        let mut cases = Vec::new();
        for (wl, recorded) in &workloads {
            for scheme in &schemes {
                for &l2_bytes in &l2_sizes {
                    for &l2_assoc in &l2_assocs {
                        for &seed_salt in &seed_salts {
                            for profiler in &profilers {
                                cases.push(ScenarioCase {
                                    index: cases.len(),
                                    workload: wl.name.clone(),
                                    benchmarks: wl.benchmarks.clone(),
                                    scheme: scheme.clone(),
                                    l2_bytes,
                                    l2_assoc,
                                    seed_salt,
                                    profiler: if profiler == "exact" {
                                        None
                                    } else {
                                        Some(profiler.clone())
                                    },
                                    insts,
                                    seed,
                                    capture_history,
                                    recorded: recorded.clone(),
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(cases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::spec::WorkloadSel;
    use cachesim::PolicyKind;

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            name: "t".into(),
            insts: Some(10_000),
            workloads: vec![WorkloadSel::Named("2T_06".into())],
            schemes: vec!["L".into()].into(),
            ..Default::default()
        }
    }

    #[test]
    fn defaults_fill_in_the_paper_baseline() {
        let cases = base_spec().expand().unwrap();
        assert_eq!(cases.len(), 1);
        let c = &cases[0];
        assert_eq!(c.l2_bytes, 2 * 1024 * 1024);
        assert_eq!(c.l2_assoc, 16);
        assert_eq!(c.seed_salt, 0);
        assert_eq!(c.seed, MachineConfig::paper_baseline(2).seed);
        assert_eq!(c.machine().num_cores, 2);
        assert!(!c.capture_history);
    }

    #[test]
    fn zero_insts_is_rejected() {
        let mut spec = base_spec();
        spec.insts = Some(0);
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.starts_with("`insts` must be positive"), "{err}");
        assert_eq!(err.lines().count(), 1, "{err}");
    }

    #[test]
    fn expansion_order_is_workloads_schemes_sizes_assocs_salts() {
        let mut spec = base_spec();
        spec.workloads = vec![
            WorkloadSel::Named("2T_06".into()),
            WorkloadSel::Profiles(vec!["gzip".into()]),
        ];
        spec.schemes = vec!["L".into(), "N".into()].into();
        spec.l2_sizes = Some(vec![512 * 1024, 2 * 1024 * 1024]);
        spec.seed_salts = Some(vec![0, 1]);
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 2 * 2 * 2 * 2);
        // Innermost axis moves fastest.
        assert_eq!(
            (
                &cases[0].workload[..],
                &cases[0].scheme.acronym()[..],
                cases[0].l2_bytes,
                cases[0].seed_salt
            ),
            ("2T_06", "L", 512 * 1024, 0)
        );
        assert_eq!(cases[1].seed_salt, 1);
        assert_eq!(cases[2].l2_bytes, 2 * 1024 * 1024);
        assert_eq!(cases[4].scheme.acronym(), "N");
        assert_eq!(cases[8].workload, "gzip");
        for (i, c) in cases.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn duplicate_axis_entries_dedupe() {
        let mut spec = base_spec();
        spec.schemes = vec!["L".into(), "M-0.75N".into(), "L".into(), "M-.75N".into()].into();
        spec.seed_salts = Some(vec![4, 4, 4]);
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 2, "L and M-0.75N, each at salt 4");
        assert_eq!(cases[0].scheme.acronym(), "L");
        assert_eq!(cases[1].scheme.acronym(), "M-0.75N");
    }

    #[test]
    fn unknown_names_error_cleanly() {
        let mut spec = base_spec();
        spec.workloads = vec![WorkloadSel::Named("9T_99".into())];
        assert!(spec.expand().unwrap_err().to_string().contains("9T_99"));

        let mut spec = base_spec();
        spec.workloads = vec![WorkloadSel::Profiles(vec!["nonesuch".into()])];
        assert!(spec.expand().unwrap_err().to_string().contains("nonesuch"));

        let mut spec = base_spec();
        spec.schemes = vec!["Q".into()].into();
        assert!(spec.expand().unwrap_err().to_string().contains("`Q`"));
    }

    #[test]
    fn empty_axes_error() {
        let mut spec = base_spec();
        spec.schemes = Vec::new().into();
        assert!(spec.expand().is_err());
        let mut spec = base_spec();
        spec.seed_salts = Some(vec![]);
        assert!(spec.expand().is_err());
    }

    #[test]
    fn bt_rejects_non_power_of_two_assoc() {
        let mut spec = base_spec();
        spec.schemes = vec!["BT".into()].into();
        // 128 B x 12 ways x 1024 sets: a valid geometry, but BT's tree
        // needs a power-of-two way count.
        spec.l2_sizes = Some(vec![128 * 12 * 1024]);
        spec.l2_assocs = Some(vec![12]);
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("BT"), "{err}");
        assert!(!err.contains('{'), "a message, not a Debug struct: {err}");
    }

    #[test]
    fn invalid_geometry_is_rejected_whole() {
        let mut spec = base_spec();
        spec.l2_assocs = Some(vec![12]); // 2 MB is not divisible by 128 x 12
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("invalid L2 shape"), "{err}");
        assert!(!err.contains('{'), "a message, not a Debug struct: {err}");
    }

    #[test]
    fn interval_override_reaches_cpa_schemes_only() {
        let mut spec = base_spec();
        spec.schemes = vec!["M-L".into(), "L".into()].into();
        spec.interval_cycles = Some(250_000);
        let cases = spec.expand().unwrap();
        let cpa = cases[0].scheme.cpa().expect("M-L is a CPA scheme");
        assert_eq!(cpa.interval_cycles, 250_000);
        assert_eq!(cases[1].scheme, Scheme::bare(PolicyKind::Lru));
    }

    #[test]
    fn schemes_all_expands_to_the_registry_baseline() {
        let mut spec = base_spec();
        spec.schemes = crate::scenario::spec::SchemeAxis::All;
        let cases = spec.expand().unwrap();
        let acronyms: Vec<String> = cases.iter().map(|c| c.scheme.acronym()).collect();
        let expected: Vec<String> = Scheme::all_baseline()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(acronyms, expected, "all = registry baseline, in order");
        // The interval override still reaches every CPA scheme of "all".
        spec.interval_cycles = Some(123_456);
        for case in spec.expand().unwrap() {
            if let Some(cpa) = case.scheme.cpa() {
                assert_eq!(cpa.interval_cycles, 123_456, "{}", case.scheme);
            }
        }
    }

    #[test]
    fn profiler_axis_is_innermost_and_validated() {
        let mut spec = base_spec();
        spec.schemes = vec!["M-L".into()].into();
        spec.seed_salts = Some(vec![0, 1]);
        spec.profilers = Some(vec!["exact".into(), "sketch8".into()]);
        let cases = spec.expand().unwrap();
        assert_eq!(cases.len(), 4);
        assert_eq!(cases[0].profiler, None, "exact is stored as None");
        assert_eq!(cases[1].profiler.as_deref(), Some("sketch8"));
        assert_eq!(cases[1].seed_salt, 0, "profilers move faster than salts");
        assert_eq!(cases[2].seed_salt, 1);
        assert_eq!(cases[1].fidelity(), ProfilerFidelity::Sketch { fp_bits: 8 });
        let engine = cases[1].engine(Arc::new(IsolationCache::new()));
        assert_eq!(
            engine.cpa().unwrap().fidelity(),
            ProfilerFidelity::Sketch { fp_bits: 8 }
        );

        spec.profilers = Some(vec!["sketch9".into()]);
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("8, 12 or 16"), "{err}");
    }

    #[test]
    fn owner_counters_reject_many_core_workloads_at_expansion() {
        let mut spec = base_spec();
        spec.workloads = vec![WorkloadSel::Profiles(vec!["gzip".into(); 24])];
        spec.schemes = vec!["C-L".into(), "M-L".into()].into();
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("use an M-* scheme"), "{err}");
        // Masks alone cluster instead of erroring.
        spec.schemes = vec!["M-L".into()].into();
        assert_eq!(spec.expand().unwrap().len(), 1);
    }

    #[test]
    fn sample_ratio_without_sampled_sets_is_rejected() {
        let mut spec = base_spec();
        spec.schemes = vec!["M-L".into()].into();
        // 64 KB / 16-way / 128 B = 32 sets: exactly one sampled set at
        // the default ratio 32 — fine. 32 KB leaves none.
        spec.l2_sizes = Some(vec![32 * 1024]);
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("leaves no sampled set"), "{err}");
    }

    #[test]
    fn case_engine_carries_the_case_shape() {
        let mut spec = base_spec();
        spec.l2_sizes = Some(vec![512 * 1024]);
        spec.seed_salts = Some(vec![3]);
        spec.schemes = vec!["M-BT".into()].into();
        let cases = spec.expand().unwrap();
        let engine = cases[0].engine(Arc::new(IsolationCache::new()));
        assert_eq!(engine.config().l2.size_bytes(), 512 * 1024);
        assert_eq!(engine.policy(), PolicyKind::Bt);
        assert_eq!(engine.cpa().unwrap().acronym(), "M-BT");
    }
}
