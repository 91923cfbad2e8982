//! The full CMP system: cores + hierarchy + optional dynamic CPA.

use crate::config::MachineConfig;
use crate::core_model::CoreModel;
use cachesim::hierarchy::{BatchScratch, Hierarchy, MemLevel};
use cachesim::CacheStats;
use plru_core::{CpaController, Scheme};
use serde::{Deserialize, Serialize};
use std::path::Path;
use tracegen::trace::{self, TraceError};
use tracegen::{BenchmarkProfile, TraceGenerator, TraceSource, Workload};

/// Per-core outcome of a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreResult {
    /// Committed-instruction target the IPC is measured over.
    pub insts: u64,
    /// Local cycle count when the target was reached.
    pub cycles: u64,
    /// Instructions per cycle at the freeze point.
    pub ipc: f64,
    /// This core's L2 accesses at its freeze point.
    pub l2_accesses: u64,
    /// This core's L2 misses at its freeze point.
    pub l2_misses: u64,
    /// L1D misses at the freeze point.
    pub l1d_misses: u64,
    /// L1I misses at the freeze point.
    pub l1i_misses: u64,
}

/// Outcome of one full simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Per-core results in core order.
    pub cores: Vec<CoreResult>,
    /// Wall-clock of the run: the last core's freeze cycle.
    pub total_cycles: u64,
    /// Repartition intervals executed (0 without a CPA).
    pub intervals: u64,
    /// Total ATD probes across threads (0 without a CPA).
    pub atd_observed: u64,
    /// Final ways-per-thread allocation (empty without a CPA).
    pub final_allocation: Vec<usize>,
    /// Full-run shared-L2 statistics (keeps accumulating after freezes;
    /// per-core freeze-point numbers are in `cores`).
    pub l2_stats: CacheStats,
}

impl SimResult {
    /// IPC of one core.
    pub fn ipc(&self, core: usize) -> f64 {
        self.cores[core].ipc
    }

    /// All IPCs in core order.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores.iter().map(|c| c.ipc).collect()
    }
}

/// A runnable CMP system.
pub struct System {
    cfg: MachineConfig,
    hierarchy: Hierarchy,
    cores: Vec<CoreModel>,
    controller: Option<CpaController>,
    next_interval: u64,
    intervals: u64,
    /// Per-core L2 miss counts at the previous interval boundary (the
    /// controller's adaptive-scale feedback).
    last_misses: Vec<u64>,
    /// Reusable instruction-fetch address buffer (one record's fetch group).
    fetch_buf: Vec<u64>,
    /// Reusable buffers for the batched L1I → L2 fetch path.
    scratch: BatchScratch,
}

impl System {
    /// Trace seed of one core's live generator: the configuration's
    /// per-core seed perturbed by the salt. One definition shared by the
    /// live path and trace capture, so a recorded run replays the very
    /// stream a live run would synthesize.
    pub fn thread_seed(cfg: &MachineConfig, core: usize, seed_salt: u64) -> u64 {
        cfg.trace_seed(core) ^ seed_salt.rotate_left(core as u32)
    }

    /// Build a system running one benchmark per core from live trace
    /// generators, under a [`Scheme`] (bare policy or policy + CPA).
    ///
    /// `seed_salt` perturbs the per-core trace seeds so repeated instances
    /// of the same benchmark (e.g. facerec twice in `8T_04`) diverge.
    pub fn from_profiles_scheme(
        cfg: &MachineConfig,
        profiles: &[BenchmarkProfile],
        scheme: &Scheme,
        seed_salt: u64,
    ) -> Self {
        let sources: Vec<Box<dyn TraceSource>> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(TraceGenerator::new(
                    p.clone(),
                    Self::thread_seed(cfg, i, seed_salt),
                )) as Box<dyn TraceSource>
            })
            .collect();
        Self::from_sources_scheme(cfg, profiles, sources, scheme, seed_salt)
    }

    /// Build a system over explicit per-core [`TraceSource`]s — the
    /// extension point behind live synthesis, trace capture and trace
    /// replay. `profiles` supply only the per-core timing model; the
    /// memory-access streams come from `sources`.
    ///
    /// The [`Scheme`] carries the whole replacement/partitioning
    /// configuration; its construction already guaranteed that the CPA's
    /// profiling policy matches the L2 policy and that the policy supports
    /// the enforcement style.
    pub fn from_sources_scheme(
        cfg: &MachineConfig,
        profiles: &[BenchmarkProfile],
        sources: Vec<Box<dyn TraceSource>>,
        scheme: &Scheme,
        seed_salt: u64,
    ) -> Self {
        assert_eq!(profiles.len(), cfg.num_cores, "one benchmark per core");
        assert_eq!(sources.len(), cfg.num_cores, "one trace source per core");
        let mut hierarchy = Hierarchy::new(
            cfg.num_cores,
            cfg.l1i,
            cfg.l1d,
            cfg.l2,
            scheme.policy(),
            cfg.seed ^ seed_salt,
        );
        let controller = scheme.cpa().map(|c| {
            let ctl = CpaController::new(c.clone(), cfg.l2, cfg.num_cores);
            hierarchy.l2.set_enforcement(ctl.initial_enforcement());
            ctl
        });
        let cores = profiles
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(i, (p, source))| CoreModel::from_source(i, p, source, cfg.insts_per_fetch_line))
            .collect();
        let next_interval = controller
            .as_ref()
            .map(|c| c.interval_cycles())
            .unwrap_or(u64::MAX);
        System {
            last_misses: vec![0; cfg.num_cores],
            cfg: cfg.clone(),
            hierarchy,
            cores,
            controller,
            next_interval,
            intervals: 0,
            fetch_buf: Vec::new(),
            scratch: BatchScratch::new(),
        }
    }

    /// Build from a Table II workload under a [`Scheme`].
    pub fn from_workload_scheme(
        cfg: &MachineConfig,
        workload: &Workload,
        scheme: &Scheme,
        seed_salt: u64,
    ) -> Self {
        Self::from_profiles_scheme(cfg, &workload.profiles(), scheme, seed_salt)
    }

    /// Build a system replaying a recorded trace container (see
    /// [`tracegen::trace`]) under a [`Scheme`]: per-core streams come from
    /// the file, the timing model from the profiles named in its metadata.
    ///
    /// `decode` picks where chunks are decoded: a non-zero
    /// [`DecodeOptions`](tracegen::trace::DecodeOptions) worker count
    /// decodes them ahead of consumption on a shared pool. The replayed
    /// streams are identical at any worker count.
    ///
    /// Errors if the file is unreadable or malformed, if its thread count
    /// differs from `cfg.num_cores`, or if a recorded benchmark name no
    /// longer resolves. The caller is responsible for checking that the
    /// replay's instruction target does not exceed the recorded one
    /// ([`tracegen::trace::TraceMeta::insts`]) — an exhausted stream
    /// panics mid-run.
    pub fn from_trace_scheme(
        cfg: &MachineConfig,
        path: impl AsRef<Path>,
        scheme: &Scheme,
        seed_salt: u64,
        decode: &trace::DecodeOptions,
    ) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let (info, sources) = trace::open_sources_with(path, decode)?;
        if info.meta.threads() != cfg.num_cores {
            return Err(TraceError::Format(format!(
                "trace {} records {} threads, but the machine has {} cores",
                path.display(),
                info.meta.threads(),
                cfg.num_cores
            )));
        }
        let profiles: Vec<BenchmarkProfile> = info
            .meta
            .benchmarks
            .iter()
            .map(|b| {
                tracegen::benchmark(b).ok_or_else(|| {
                    TraceError::Format(format!(
                        "trace {} names unknown benchmark `{b}`",
                        path.display()
                    ))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self::from_sources_scheme(
            cfg, &profiles, sources, scheme, seed_salt,
        ))
    }

    fn penalty(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::L1 => 0,
            MemLevel::L2 => self.cfg.latencies.l1_miss,
            MemLevel::Memory => self.cfg.latencies.l1_miss + self.cfg.latencies.l2_miss,
        }
    }

    /// Run to completion: every core commits `insts_target` instructions;
    /// finished cores keep executing (keeping contention realistic) until
    /// the last core freezes.
    pub fn run(&mut self) -> SimResult {
        let target = self.cfg.insts_target;
        let n = self.cores.len();
        let mut frozen: Vec<Option<CoreResult>> = vec![None; n];
        let mut done = 0usize;

        while done < n {
            // Advance the core with the smallest local clock: simulated
            // time order, so L2 interleaving is realistic.
            let c = (0..n)
                .min_by_key(|&i| self.cores[i].cycle)
                .expect("at least one core");
            let now = self.cores[c].cycle;

            // Interval boundary?
            if now >= self.next_interval {
                if let Some(ctl) = &mut self.controller {
                    let misses: Vec<u64> = (0..n)
                        .map(|i| {
                            let total = self.hierarchy.l2.stats().core(i).misses;
                            let delta = total - self.last_misses[i];
                            self.last_misses[i] = total;
                            delta
                        })
                        .collect();
                    let enforcement = ctl.on_interval_with_feedback(Some(&misses));
                    self.hierarchy.l2.set_enforcement(enforcement);
                    self.intervals += 1;
                    self.next_interval += ctl.interval_cycles();
                }
            }

            let rec = self.cores[c].next_record();
            let insts = rec.instructions();
            let mut latency = self.cores[c].charge_base(insts);

            // Instruction fetches: the record's whole fetch group runs
            // through the batched L1I → L2 kernel; per-level counts charge
            // the same summed penalties as the scalar per-access walk.
            self.cores[c].fetch_addrs_into(insts, &mut self.fetch_buf);
            if !self.fetch_buf.is_empty() {
                let levels =
                    self.hierarchy
                        .access_inst_batch(c, &self.fetch_buf, &mut self.scratch);
                latency += levels.l2_accesses() * self.cfg.latencies.l1_miss
                    + levels.memory * self.cfg.latencies.l2_miss;
                if let Some(ctl) = &mut self.controller {
                    // The ATDs observe every fetch that left the L1, in
                    // stream order — exactly as the scalar path did.
                    for a in self.scratch.l2_accesses() {
                        ctl.observe(c, a.addr);
                    }
                }
            }

            // The data access.
            let out = self.hierarchy.access_data(c, rec.addr, rec.is_write);
            latency += self.penalty(out.level);
            if out.level != MemLevel::L1 {
                if let Some(ctl) = &mut self.controller {
                    ctl.observe(c, rec.addr);
                }
            }

            let core = &mut self.cores[c];
            core.cycle += latency;
            core.insts += insts;
            if !core.finished() {
                core.maybe_finish(target);
                if core.finished() {
                    let l2 = self.hierarchy.l2.stats().core(c);
                    frozen[c] = Some(CoreResult {
                        insts: target,
                        cycles: core.finish_cycle.expect("just finished"),
                        ipc: core.ipc(target),
                        l2_accesses: l2.accesses,
                        l2_misses: l2.misses,
                        l1d_misses: self.hierarchy.l1(c).dcache.stats().core(0).misses,
                        l1i_misses: self.hierarchy.l1(c).icache.stats().core(0).misses,
                    });
                    done += 1;
                }
            }
        }

        let cores: Vec<CoreResult> = frozen.into_iter().map(|c| c.expect("all frozen")).collect();
        SimResult {
            total_cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
            intervals: self.intervals,
            atd_observed: self
                .controller
                .as_ref()
                .map(|c| c.total_observed())
                .unwrap_or(0),
            final_allocation: self
                .controller
                .as_ref()
                .map(|c| c.allocation().to_vec())
                .unwrap_or_default(),
            l2_stats: self.hierarchy.l2.stats().clone(),
            cores,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The CPA controller, if any.
    pub fn controller(&self) -> Option<&CpaController> {
        self.controller.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachesim::PolicyKind;
    use plru_core::CpaConfig;
    use tracegen::trace::DecodeOptions;
    use tracegen::workload;

    fn quick_cfg(cores: usize) -> MachineConfig {
        let mut cfg = MachineConfig::paper_baseline(cores);
        cfg.insts_target = 60_000;
        cfg
    }

    #[test]
    fn single_core_run_produces_sane_ipc() {
        let cfg = quick_cfg(1);
        let profiles = vec![tracegen::benchmark("gzip").unwrap()];
        let mut sys =
            System::from_profiles_scheme(&cfg, &profiles, &Scheme::bare(PolicyKind::Lru), 1);
        let r = sys.run();
        assert_eq!(r.cores.len(), 1);
        let ipc = r.ipc(0);
        assert!(ipc > 0.05 && ipc < 8.0, "implausible IPC {ipc}");
        assert!(r.cores[0].l2_accesses > 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = quick_cfg(2);
        let wl = workload("2T_01").unwrap();
        let run = || {
            let mut s = System::from_workload_scheme(&cfg, &wl, &Scheme::bare(PolicyKind::Nru), 7);
            s.run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.ipcs(), b.ipcs());
        assert_eq!(a.total_cycles, b.total_cycles);
    }

    #[test]
    fn memory_bound_thread_is_slower_than_cache_friendly() {
        let cfg = quick_cfg(2);
        let profiles = vec![
            tracegen::benchmark("mcf").unwrap(),
            tracegen::benchmark("crafty").unwrap(),
        ];
        let mut sys =
            System::from_profiles_scheme(&cfg, &profiles, &Scheme::bare(PolicyKind::Lru), 3);
        let r = sys.run();
        assert!(
            r.ipc(0) < r.ipc(1),
            "mcf ({}) must be slower than crafty ({})",
            r.ipc(0),
            r.ipc(1)
        );
    }

    #[test]
    fn cpa_controller_repartitions() {
        let mut cfg = quick_cfg(2);
        cfg.insts_target = 150_000;
        let mut cpa = CpaConfig::m_l();
        cpa.interval_cycles = 50_000; // several intervals in a short run
        let wl = workload("2T_02").unwrap(); // mcf + parser
        let scheme = Scheme::partitioned(cpa).unwrap();
        let mut sys = System::from_workload_scheme(&cfg, &wl, &scheme, 5);
        let r = sys.run();
        assert!(
            r.intervals >= 2,
            "expected repartitions, got {}",
            r.intervals
        );
        assert_eq!(r.final_allocation.iter().sum::<usize>(), 16);
        assert!(r.atd_observed > 0, "ATDs must observe sampled accesses");
    }

    #[test]
    fn eight_core_workload_runs() {
        let mut cfg = quick_cfg(8);
        cfg.insts_target = 20_000;
        let wl = workload("8T_01").unwrap();
        let mut sys = System::from_workload_scheme(&cfg, &wl, &Scheme::bare(PolicyKind::Bt), 2);
        let r = sys.run();
        assert_eq!(r.cores.len(), 8);
        assert!(r.ipcs().iter().all(|&i| i > 0.0));
    }

    #[test]
    fn recorded_trace_replays_bit_identical_to_live() {
        use std::sync::{Arc, Mutex};
        use tracegen::trace::{CapturingSource, TraceMeta, TraceWriter};

        let cfg = quick_cfg(2);
        let wl = workload("2T_02").unwrap(); // mcf + parser
        let salt = 3u64;
        let live =
            System::from_workload_scheme(&cfg, &wl, &Scheme::bare(PolicyKind::Lru), salt).run();

        // Capture: same run, records tee'd into a container.
        let path = std::env::temp_dir().join("plru_system_capture_test.pltc");
        let meta = TraceMeta {
            workload: wl.name.clone(),
            benchmarks: wl.benchmarks.clone(),
            seed: cfg.seed,
            seed_salt: salt,
            insts: cfg.insts_target,
            scheme: Some("L".into()),
        };
        let writer = Arc::new(Mutex::new(
            TraceWriter::create(std::fs::File::create(&path).unwrap(), &meta).unwrap(),
        ));
        let profiles = wl.profiles();
        let sources: Vec<Box<dyn TraceSource>> = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(CapturingSource::new(
                    TraceGenerator::new(p.clone(), System::thread_seed(&cfg, i, salt)),
                    i,
                    writer.clone(),
                )) as Box<dyn TraceSource>
            })
            .collect();
        let lru = Scheme::bare(PolicyKind::Lru);
        let mut cap = System::from_sources_scheme(&cfg, &profiles, sources, &lru, salt);
        let captured = cap.run();
        drop(cap);
        Arc::try_unwrap(writer)
            .expect("capture sources dropped")
            .into_inner()
            .unwrap()
            .finish()
            .unwrap();

        // Replay from the file.
        let replayed =
            System::from_trace_scheme(&cfg, &path, &lru, salt, &DecodeOptions::default())
                .unwrap()
                .run();
        let _ = std::fs::remove_file(&path);

        let json = |r: &SimResult| serde_json::to_string(r).unwrap();
        assert_eq!(json(&captured), json(&live), "capture must not perturb");
        assert_eq!(json(&replayed), json(&live), "replay must be bit-identical");
    }

    #[test]
    fn trace_with_wrong_core_count_is_rejected() {
        let cfg = quick_cfg(2);
        let wl = workload("2T_01").unwrap();
        // Record a 2-thread trace, then try to replay it on 4 cores.
        let path = std::env::temp_dir().join("plru_system_core_count_test.pltc");
        {
            use std::sync::{Arc, Mutex};
            use tracegen::trace::{CapturingSource, TraceMeta, TraceWriter};
            let meta = TraceMeta {
                workload: wl.name.clone(),
                benchmarks: wl.benchmarks.clone(),
                seed: cfg.seed,
                seed_salt: 0,
                insts: cfg.insts_target,
                scheme: None,
            };
            let writer = Arc::new(Mutex::new(
                TraceWriter::create(std::fs::File::create(&path).unwrap(), &meta).unwrap(),
            ));
            let profiles = wl.profiles();
            let sources: Vec<Box<dyn TraceSource>> = profiles
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    Box::new(CapturingSource::new(
                        TraceGenerator::new(p.clone(), System::thread_seed(&cfg, i, 0)),
                        i,
                        writer.clone(),
                    )) as Box<dyn TraceSource>
                })
                .collect();
            let lru = Scheme::bare(PolicyKind::Lru);
            System::from_sources_scheme(&cfg, &profiles, sources, &lru, 0).run();
            Arc::try_unwrap(writer)
                .expect("sole owner")
                .into_inner()
                .unwrap()
                .finish()
                .unwrap();
        }
        let wide = quick_cfg(4);
        let lru = Scheme::bare(PolicyKind::Lru);
        let err = match System::from_trace_scheme(&wide, &path, &lru, 0, &DecodeOptions::default())
        {
            Ok(_) => panic!("2-thread trace must not build a 4-core system"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("cores"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn partitioning_protects_the_friendly_thread() {
        // crafty next to streaming swim: with a partitioned L2 crafty's
        // miss count must not exceed its unpartitioned miss count (the
        // stream cannot wash its ways).
        let mut cfg = quick_cfg(2);
        cfg.insts_target = 200_000;
        let profiles = vec![
            tracegen::benchmark("crafty").unwrap(),
            tracegen::benchmark("swim").unwrap(),
        ];
        let lru = Scheme::bare(PolicyKind::Lru);
        let mut free = System::from_profiles_scheme(&cfg, &profiles, &lru, 9);
        let rf = free.run();
        let mut cpa = CpaConfig::m_l();
        cpa.interval_cycles = 100_000;
        let scheme = Scheme::partitioned(cpa).unwrap();
        let mut part = System::from_profiles_scheme(&cfg, &profiles, &scheme, 9);
        let rp = part.run();
        let miss_rate = |r: &SimResult| r.cores[0].l2_misses as f64 / r.cores[0].l2_accesses as f64;
        assert!(
            miss_rate(&rp) <= miss_rate(&rf) * 1.1,
            "partitioning must roughly protect crafty: {} vs {}",
            miss_rate(&rp),
            miss_rate(&rf)
        );
    }
}
