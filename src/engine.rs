//! The engine layer: one front door for every simulation in the workspace.
//!
//! Before this module existed, every figure binary, example and
//! integration test hand-rolled the same wiring — build a
//! [`MachineConfig`], look up a [`Workload`], thread the replacement
//! policy and the optional [`CpaConfig`] into the `System` constructors,
//! and keep a separate [`IsolationCache`] around for the relative
//! metrics. [`SimEngine`] owns that tracegen → `cmpsim::System` →
//! `CpaController` pipeline behind a builder, so call sites state *what*
//! they simulate and nothing else.
//!
//! What an engine simulates *under* is a first-class [`Scheme`] — the
//! policy × partitioning point from the `plru_core` scheme registry. The
//! builder takes one via [`SimEngineBuilder::scheme`] (parse it from its
//! canonical acronym or construct it from a [`CpaConfig`]); `Scheme` is
//! the one config currency.
//!
//! Dispatch stays enum-based end to end ([`PolicyKind`] / [`CpaConfig`]):
//! there are no trait objects anywhere on the per-access hot path. Every
//! shared-L2 access a simulation makes runs one signature-plane kernel,
//! after one policy dispatch per call: the L1D misses reach it one access
//! at a time through `cachesim::Cache::access`, and
//! `cmpsim::System::run` hands it each record's L1I misses through
//! `Cache::access_batch` (almost always a single line). The private L1s
//! are true-LRU recency rows (`cachesim::hierarchy::PrivateLru`), with
//! no policy dispatch at all.
//!
//! The experiment-fleet helpers live here too: [`parallel_map`] fans
//! independent simulations out over hardware threads, and the engine
//! carries a shared [`IsolationCache`] so every relative metric divides
//! by a memoised isolation run instead of recomputing it.
//!
//! Every engine can also run from the **recorded-trace backend**:
//! [`SimEngine::record_trace`] captures exactly the per-thread streams a
//! live run consumes into a versioned container (see
//! [`tracegen::trace`]), and [`SimEngine::run_trace`] replays one —
//! bit-identical to the live run under the same machine, scheme, seed
//! and salt.
//!
//! ```
//! use plru_repro::prelude::*;
//!
//! let engine = SimEngine::builder()
//!     .cores(2)
//!     .insts(50_000) // keep the doctest quick
//!     .scheme("M-0.75N".parse().unwrap())
//!     .build();
//! assert_eq!(engine.scheme().to_string(), "M-0.75N");
//! let result = engine.run_named("2T_05").expect("Table II workload");
//! assert!(result.ipc(0) > 0.0 && result.ipc(1) > 0.0);
//! ```

use cachesim::PolicyKind;
use cmpsim::{MachineConfig, SimResult, System, WorkloadMetrics};
use plru_core::{CpaConfig, ProfilerFidelity, Scheme};
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::Path;
use std::sync::{Arc, Mutex};
use tracegen::trace::{
    self, CapturingSource, Compression, DecodeOptions, TraceError, TraceSource, TraceWriter,
};
use tracegen::{BenchmarkProfile, TraceGenerator, TraceMeta, Workload};

pub use cmpsim::runner::{parallel_map, IsolationCache};

/// Builder for [`SimEngine`]. Defaults to the paper's 2-core baseline
/// machine with an unpartitioned LRU L2 (scheme `L`) and seed salt 0.
#[derive(Debug, Clone)]
pub struct SimEngineBuilder {
    cfg: MachineConfig,
    scheme: Option<Scheme>,
    fidelity: Option<ProfilerFidelity>,
    seed_salt: u64,
    isolation: Option<Arc<IsolationCache>>,
    decode_workers: usize,
}

impl Default for SimEngineBuilder {
    fn default() -> Self {
        SimEngineBuilder {
            cfg: MachineConfig::paper_baseline(2),
            scheme: None,
            fidelity: None,
            seed_salt: 0,
            isolation: None,
            decode_workers: 0,
        }
    }
}

impl SimEngineBuilder {
    /// Replace the whole machine description.
    pub fn machine(mut self, cfg: MachineConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Set the core count (one thread per core, as in the paper).
    pub fn cores(mut self, num_cores: usize) -> Self {
        self.cfg.num_cores = num_cores;
        self
    }

    /// Set the committed-instruction target per thread.
    pub fn insts(mut self, insts_target: u64) -> Self {
        self.cfg.insts_target = insts_target;
        self
    }

    /// Set the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Resize the shared L2 (Figure 8 sweeps 512 KB / 1 MB / 2 MB).
    ///
    /// # Panics
    /// If the size is not a valid geometry at the baseline's 16 ways and
    /// 128 B lines.
    pub fn l2_size(mut self, bytes: u64) -> Self {
        self.cfg = self
            .cfg
            .with_l2_size(bytes)
            .expect("valid L2 size for the baseline shape");
        self
    }

    /// Set the full replacement/partitioning [`Scheme`] — a bare policy
    /// (`Scheme::bare`, or `"L".parse()`) runs the L2 unpartitioned; a
    /// partitioned scheme (`Scheme::partitioned(CpaConfig::m_bt())`, or
    /// `"M-BT".parse()`) runs the dynamic controller.
    ///
    /// This is the single configuration knob — build a [`Scheme`] from a
    /// bare [`PolicyKind`] or a [`CpaConfig`] and hand it over whole.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// Set the profiling ATDs' tag-store fidelity
    /// ([`ProfilerFidelity::Exact`] full tag rows — the default — or
    /// `Sketch { fp_bits }` cuckoo-filter membership). Applied to the
    /// scheme's CPA configuration at [`SimEngineBuilder::build`]; a
    /// no-op for unpartitioned schemes.
    pub fn fidelity(mut self, fidelity: ProfilerFidelity) -> Self {
        self.fidelity = Some(fidelity);
        self
    }

    /// Perturb the per-core trace seeds (repeat runs of one benchmark
    /// diverge with different salts).
    pub fn seed_salt(mut self, salt: u64) -> Self {
        self.seed_salt = salt;
        self
    }

    /// Share an isolation-IPC memo across engines (one experiment fleet,
    /// one cache).
    pub fn isolation(mut self, cache: Arc<IsolationCache>) -> Self {
        self.isolation = Some(cache);
        self
    }

    /// Decode trace-replay chunks ahead of consumption on `n` shared
    /// worker threads (0, the default, decodes inline). Replay output is
    /// identical at any worker count; this only moves the decode work
    /// off the simulation thread.
    pub fn decode_workers(mut self, n: usize) -> Self {
        self.decode_workers = n;
        self
    }

    /// Finish the builder. An unset scheme defaults to the paper's
    /// unpartitioned LRU baseline (`L`).
    pub fn build(self) -> SimEngine {
        SimEngine {
            cfg: self.cfg,
            scheme: self
                .scheme
                .unwrap_or(Scheme::bare(PolicyKind::Lru))
                .with_fidelity(self.fidelity),
            seed_salt: self.seed_salt,
            isolation: self.isolation.unwrap_or_default(),
            decode_workers: self.decode_workers,
        }
    }
}

/// A configured simulation pipeline: machine + [`Scheme`] (replacement
/// policy, optionally with a dynamic CPA) + shared isolation memo. Cheap
/// to clone (the isolation cache is shared).
#[derive(Debug, Clone)]
pub struct SimEngine {
    cfg: MachineConfig,
    scheme: Scheme,
    seed_salt: u64,
    isolation: Arc<IsolationCache>,
    decode_workers: usize,
}

impl Default for SimEngine {
    fn default() -> Self {
        Self::builder().build()
    }
}

impl SimEngine {
    /// Start a builder with the paper-baseline defaults.
    pub fn builder() -> SimEngineBuilder {
        SimEngineBuilder::default()
    }

    /// The machine this engine simulates on.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The replacement/partitioning scheme this engine runs.
    pub fn scheme(&self) -> &Scheme {
        &self.scheme
    }

    /// The L2 replacement policy (shorthand for `scheme().policy()`).
    pub fn policy(&self) -> PolicyKind {
        self.scheme.policy()
    }

    /// The dynamic CPA configuration, if any (shorthand for
    /// `scheme().cpa()`).
    pub fn cpa(&self) -> Option<&CpaConfig> {
        self.scheme.cpa()
    }

    /// The shared isolation-IPC memo.
    pub fn isolation_cache(&self) -> &Arc<IsolationCache> {
        &self.isolation
    }

    /// Build (but do not run) the system for a workload — for callers
    /// that need mid-run access, e.g. the controller's partition history.
    pub fn system(&self, workload: &Workload) -> System {
        self.system_from_profiles(&workload.profiles())
    }

    /// Build (but do not run) the system for an explicit benchmark list.
    /// Front ends come from the stream memo of the engine's isolation
    /// cache: step tapes for streams a worker pool pinned, live front
    /// ends over fresh generators otherwise (see
    /// [`cmpsim::StreamCache`]).
    pub fn system_from_profiles(&self, profiles: &[BenchmarkProfile]) -> System {
        let fronts = self
            .isolation
            .streams()
            .fronts(&self.cfg, profiles, self.seed_salt);
        System::from_fronts_scheme(&self.cfg, profiles, fronts, &self.scheme, self.seed_salt)
    }

    /// Run one workload to completion.
    pub fn run(&self, workload: &Workload) -> SimResult {
        self.system(workload).run()
    }

    /// Run a Table II workload by name (`"2T_05"`, `"8T_01"`, ...);
    /// `None` for unknown names.
    pub fn run_named(&self, name: &str) -> Option<SimResult> {
        tracegen::workload(name).map(|wl| self.run(&wl))
    }

    /// Run an explicit benchmark list (one per core).
    pub fn run_profiles(&self, profiles: &[BenchmarkProfile]) -> SimResult {
        self.system_from_profiles(profiles).run()
    }

    /// Run many workloads across hardware threads, preserving order.
    pub fn run_many(&self, workloads: &[Workload]) -> Vec<SimResult> {
        parallel_map(workloads, |wl| self.run(wl))
    }

    /// Run `workload` once while recording the per-thread trace streams it
    /// consumes into the container at `path`, returning the run's result
    /// (the capture tee does not perturb the simulation — this *is* a
    /// live run).
    ///
    /// The recorded streams are exactly what this engine's configuration
    /// consumed, then padded by half as much again plus 1024 records per
    /// thread. The guarantee is for this engine's scheme: the file replays
    /// bit-identically under it at any instruction target up to this
    /// engine's ([`TraceMeta::insts`] records it). Other schemes consume
    /// differently per thread and can run past the padding at that
    /// target (4T_01 at 300k did on most seeds, up to 16% short); replay
    /// them at a lower target, or record at a larger one.
    pub fn record_trace(
        &self,
        workload: &Workload,
        path: impl AsRef<Path>,
    ) -> Result<SimResult, TraceError> {
        self.record_trace_with(workload, path, Compression::None)
    }

    /// [`SimEngine::record_trace`] with an explicit [`Compression`]
    /// choice: [`Compression::Dict`] writes a block-compressed v2
    /// container (`Compression::None` keeps the byte-stable v1 format).
    /// The recorded record streams are identical either way.
    ///
    /// A zero instruction target is an error, and no file is written: a
    /// header with `insts` 0 marks a generator-streamed trace.
    pub fn record_trace_with(
        &self,
        workload: &Workload,
        path: impl AsRef<Path>,
        compression: Compression,
    ) -> Result<SimResult, TraceError> {
        if self.cfg.insts_target == 0 {
            return Err(TraceError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a capture's instruction target must be positive",
            )));
        }
        let profiles = workload.profiles();
        let meta = TraceMeta {
            workload: workload.name.clone(),
            benchmarks: workload.benchmarks.clone(),
            seed: self.cfg.seed,
            seed_salt: self.seed_salt,
            insts: self.cfg.insts_target,
            scheme: Some(self.scheme.to_string()),
        };
        let writer = Arc::new(Mutex::new(TraceWriter::create_with(
            BufWriter::new(File::create(path)?),
            &meta,
            compression,
        )?));
        let sources: Vec<Box<dyn TraceSource>> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(CapturingSource::new(
                    TraceGenerator::new(
                        p.clone(),
                        System::thread_seed(&self.cfg, i, self.seed_salt),
                    ),
                    i,
                    writer.clone(),
                )) as Box<dyn TraceSource>
            })
            .collect();
        let mut sys = System::from_sources_scheme(
            &self.cfg,
            &profiles,
            sources,
            &self.scheme,
            self.seed_salt,
        );
        let result = sys.run();
        drop(sys);
        let mut writer = Arc::try_unwrap(writer)
            .expect("all capture sources dropped with the system")
            .into_inner()
            .expect("capture writer poisoned");

        // Padding: regenerate each thread's stream past the consumed
        // point. It is slack for replays under other schemes, whose
        // per-thread consumption differs, not a guarantee that they fit.
        let consumed = writer.counts().to_vec();
        for (i, p) in profiles.iter().enumerate() {
            let mut g =
                TraceGenerator::new(p.clone(), System::thread_seed(&self.cfg, i, self.seed_salt));
            for _ in 0..consumed[i] {
                g.next_record();
            }
            for _ in 0..(consumed[i] / 2 + 1024) {
                writer.push(i, g.next_record())?;
            }
        }
        writer.finish()?;
        Ok(result)
    }

    /// Build (but do not run) a system replaying the recorded trace at
    /// `path` on this engine's machine, policy and CPA.
    ///
    /// Errors if the file is missing/malformed, its thread count differs
    /// from the engine's core count, or — for capture-mode traces — the
    /// engine's instruction target exceeds the recorded one (the
    /// recorded streams would run dry mid-simulation).
    /// Generator-streamed traces (`TraceMeta::insts == 0`) replay
    /// cyclically and accept any target.
    pub fn system_from_trace(&self, path: impl AsRef<Path>) -> Result<System, TraceError> {
        let path = path.as_ref();
        let info = trace::load_info(path)?;
        if info.meta.insts != 0 && self.cfg.insts_target > info.meta.insts {
            return Err(TraceError::Format(format!(
                "captured to {} instructions per thread, but this engine targets {} \
                 — re-record with a larger --insts",
                info.meta.insts, self.cfg.insts_target
            )));
        }
        System::from_trace_scheme(
            &self.cfg,
            path,
            &self.scheme,
            self.seed_salt,
            &DecodeOptions::workers(self.decode_workers),
        )
    }

    /// Replay the recorded trace at `path` to completion.
    ///
    /// With the same machine, scheme, seed and salt as the capture run,
    /// the result is bit-identical to the live run the trace recorded.
    pub fn run_trace(&self, path: impl AsRef<Path>) -> Result<SimResult, TraceError> {
        Ok(self.system_from_trace(path)?.run())
    }

    /// Memoised isolation IPC of one benchmark (alone, full L2, this
    /// engine's policy and seed salt) — the `IPC_isolation` every relative
    /// metric divides by.
    pub fn isolation_ipc(&self, benchmark: &str) -> f64 {
        self.isolation
            .isolation_ipc(&self.cfg, benchmark, self.policy(), self.seed_salt)
    }

    /// Isolation IPCs for a workload's benchmarks, in thread order.
    pub fn isolation_ipcs(&self, benchmarks: &[String]) -> Vec<f64> {
        self.isolation
            .isolation_ipcs(&self.cfg, benchmarks, self.policy(), self.seed_salt)
    }

    /// The paper's three metrics for a finished run of `workload`.
    pub fn metrics(&self, workload: &Workload, result: &SimResult) -> WorkloadMetrics {
        WorkloadMetrics::compute(&result.ipcs(), &self.isolation_ipcs(&workload.benchmarks))
    }

    /// Run one workload and compute its metrics in one step.
    pub fn run_with_metrics(&self, workload: &Workload) -> (SimResult, WorkloadMetrics) {
        let result = self.run(workload);
        let metrics = self.metrics(workload, &result);
        (result, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SimEngineBuilder {
        SimEngine::builder().insts(40_000)
    }

    #[test]
    fn builder_defaults_are_the_paper_baseline() {
        let e = SimEngine::default();
        assert_eq!(e.config().num_cores, 2);
        assert_eq!(e.policy(), PolicyKind::Lru);
        assert!(e.cpa().is_none());
        assert_eq!(e.scheme().to_string(), "L");
    }

    #[test]
    fn scheme_configures_policy_and_cpa_at_once() {
        let e = quick().scheme("M-BT".parse().unwrap()).build();
        assert_eq!(e.policy(), PolicyKind::Bt);
        assert_eq!(e.cpa().unwrap().acronym(), "M-BT");
        assert_eq!(e.scheme().to_string(), "M-BT");
    }

    #[test]
    fn scheme_from_cpa_config_sets_the_matching_policy() {
        let scheme = Scheme::partitioned(CpaConfig::m_bt()).unwrap();
        let e = quick().scheme(scheme).build();
        assert_eq!(e.policy(), PolicyKind::Bt);
        assert_eq!(e.scheme().to_string(), "M-BT");
    }

    #[test]
    fn last_scheme_call_wins() {
        let e = quick()
            .scheme(Scheme::bare(PolicyKind::Nru))
            .scheme(Scheme::bare(PolicyKind::Bt))
            .build();
        assert_eq!(e.policy(), PolicyKind::Bt);
        assert!(e.cpa().is_none());
    }

    #[test]
    fn fidelity_lands_on_the_scheme_cpa() {
        let e = quick()
            .scheme("M-0.75N".parse().unwrap())
            .fidelity(ProfilerFidelity::Sketch { fp_bits: 8 })
            .build();
        assert_eq!(
            e.cpa().unwrap().fidelity(),
            ProfilerFidelity::Sketch { fp_bits: 8 }
        );
        // The acronym is fidelity-agnostic; bare schemes ignore it.
        assert_eq!(e.scheme().to_string(), "M-0.75N");
        let bare = quick()
            .fidelity(ProfilerFidelity::Sketch { fp_bits: 8 })
            .build();
        assert!(bare.cpa().is_none());
    }

    #[test]
    fn run_named_rejects_unknown_workloads() {
        assert!(quick().build().run_named("9T_99").is_none());
    }

    #[test]
    fn engines_share_an_isolation_cache() {
        let shared = Arc::new(IsolationCache::new());
        let a = quick().isolation(shared.clone()).build();
        let b = quick()
            .isolation(shared.clone())
            .scheme(Scheme::bare(PolicyKind::Lru))
            .build();
        let x = a.isolation_ipc("gzip");
        let y = b.isolation_ipc("gzip");
        assert_eq!(x, y);
        assert_eq!(shared.len(), 1, "second engine hit the shared memo");
    }

    #[test]
    fn a_pinned_memo_keeps_streams_of_other_front_ends_apart() {
        // A step stream depends on the L1 shapes and the fetch width as
        // well as on the benchmark and trace seed: engines whose machines
        // differ only there must each read their own steps from one memo.
        let mut base = MachineConfig::paper_baseline(2);
        base.insts_target = 20_000;
        let mut small_l1d = base.clone();
        small_l1d.l1d = cachesim::CacheGeometry::new(4 * 1024, 2, 128).unwrap();
        let mut wide_fetch = base.clone();
        wide_fetch.insts_per_fetch_line = 8;
        let machines = [base, small_l1d, wide_fetch];
        let wl = tracegen::workload("2T_02").unwrap();
        let memo = Arc::new(IsolationCache::new());
        for cfg in &machines {
            let keys: Vec<cmpsim::StreamKey> = (wl.benchmarks.iter().enumerate())
                .map(|(i, b)| cmpsim::StreamKey::new(cfg, i, b, 0))
                .collect();
            memo.streams().pin(&keys);
        }
        for cfg in &machines {
            let plain = SimEngine::builder().machine(cfg.clone()).build().run(&wl);
            let memo_run = SimEngine::builder()
                .machine(cfg.clone())
                .isolation(memo.clone())
                .build()
                .run(&wl);
            assert_eq!(memo_run, plain, "{cfg:?}");
        }
        assert_eq!(
            memo.streams().stats().live,
            6,
            "one tape per machine and core"
        );
    }

    #[test]
    fn run_many_preserves_workload_order() {
        let wls: Vec<Workload> = ["2T_01", "2T_02", "2T_03"]
            .iter()
            .map(|n| tracegen::workload(n).unwrap())
            .collect();
        let engine = quick().insts(20_000).build();
        let fleet = engine.run_many(&wls);
        for (wl, r) in wls.iter().zip(&fleet) {
            let solo = engine.run(wl);
            assert_eq!(solo.ipcs(), r.ipcs(), "{} out of order", wl.name);
        }
    }
}
