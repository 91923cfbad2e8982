//! The full CMP system: cores + hierarchy + optional dynamic CPA.
//!
//! [`System::run`] is one loop over steps (see [`crate::front`]): the
//! core with the smallest clock takes its next step from its front end,
//! and the back end — the shared L2, the controller and the clocks —
//! charges it. The core then takes, in the same turn, its following
//! steps that reach no L2: they touch nothing shared, so only their own
//! core's clock orders them. A replay with decode workers runs the front
//! ends on those workers, ahead of the loop, which then runs only the
//! back end.

use crate::config::MachineConfig;
use crate::core_model::CoreModel;
use crate::front::{Front, LiveFront, Step};
use crate::pipe;
use cachesim::{Cache, CacheConfig, CacheStats};
use plru_core::{CpaController, Scheme};
use serde::{Deserialize, Serialize};
use std::path::Path;
use tracegen::trace::{self, TraceError};
use tracegen::{BenchmarkProfile, TraceSource, Workload};

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
    /// The shared L2.
    l2: Cache,
    cores: Vec<CoreModel<Front>>,
    /// Per-core L1 misses so far, `(fetch lines, data accesses)`: the
    /// L2-bound parts of the core's steps.
    l1_misses: Vec<(u64, u64)>,
    controller: Option<CpaController>,
    next_interval: u64,
    intervals: u64,
    /// Per-core L2 miss counts at the previous interval boundary (the
    /// controller's adaptive-scale feedback).
    last_misses: Vec<u64>,
    /// Each core's next step, reused across steps.
    next: Vec<Next>,
}

/// One core's next step, when its front end made it before the core's
/// turn: the step that ended the core's run ahead.
#[derive(Debug, Default)]
struct Next {
    step: Step,
    /// `Some` once the step is made: `Ok` with it in `step`, or why the
    /// core's stream stopped. Raised at the core's turn, so the first
    /// stop in simulated-time order is the one reported.
    made: Option<Result<(), String>>,
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
        let fronts = profiles
            .iter()
            .enumerate()
            .map(|(i, p)| Front::generated(i, p, Self::thread_seed(cfg, i, seed_salt), cfg))
            .collect();
        Self::from_fronts_scheme(cfg, profiles, fronts, scheme, seed_salt)
    }

    /// Build a system over explicit per-core [`TraceSource`]s — the
    /// extension point behind live synthesis, trace capture and trace
    /// replay. `profiles` supply only the per-core timing model and code
    /// footprint; the memory-access streams come from `sources`, each
    /// pulled one record per step through the core's own L1s.
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
        assert_eq!(sources.len(), cfg.num_cores, "one trace source per core");
        let fronts = profiles
            .iter()
            .zip(sources)
            .enumerate()
            .map(|(i, (p, source))| Front::live(i, p, source, cfg))
            .collect();
        Self::from_fronts_scheme(cfg, profiles, fronts, scheme, seed_salt)
    }

    /// Build a system over explicit per-core [`Front`]s: live front ends,
    /// or readers of the stream memo's step tapes (see
    /// [`StreamCache::fronts`](crate::StreamCache::fronts)).
    pub fn from_fronts_scheme(
        cfg: &MachineConfig,
        profiles: &[BenchmarkProfile],
        fronts: Vec<Front>,
        scheme: &Scheme,
        seed_salt: u64,
    ) -> Self {
        assert_eq!(profiles.len(), cfg.num_cores, "one benchmark per core");
        assert_eq!(fronts.len(), cfg.num_cores, "one front end per core");
        let mut l2 = Cache::new(CacheConfig {
            geometry: cfg.l2,
            policy: scheme.policy(),
            num_cores: cfg.num_cores,
            seed: cfg.seed ^ seed_salt,
        });
        let controller = scheme.cpa().map(|c| {
            let ctl = CpaController::new(c.clone(), cfg.l2, cfg.num_cores);
            l2.set_enforcement(ctl.initial_enforcement());
            ctl
        });
        let cores = profiles
            .iter()
            .zip(fronts)
            .map(|(p, front)| CoreModel::with_front(p, front))
            .collect();
        let next_interval = controller
            .as_ref()
            .map(|c| c.interval_cycles())
            .unwrap_or(u64::MAX);
        System {
            last_misses: vec![0; cfg.num_cores],
            l1_misses: vec![(0, 0); cfg.num_cores],
            cfg: cfg.clone(),
            l2,
            cores,
            controller,
            next_interval,
            intervals: 0,
            next: (0..cfg.num_cores).map(|_| Next::default()).collect(),
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
    /// `decode` picks where the front ends run. With 0
    /// [`DecodeOptions`](tracegen::trace::DecodeOptions) workers each
    /// core decodes its records and runs them through its L1s on the
    /// simulating thread. With `n` workers, `min(n, cores)` threads run
    /// the cores' whole front ends (chunk decode, fetch synthesis and the
    /// private L1s) ahead of [`System::run`], which then runs only the
    /// back end. The threads start here but make nothing before the first
    /// step, and dropping the system joins them. A stream that stops (it
    /// runs dry, or holds a gap above the cap or a corrupt chunk) panics
    /// `run` with the same message at any worker count, and only when a
    /// core needs the step it could not make. The results are identical
    /// at any worker count.
    ///
    /// Errors if the file is unreadable or malformed, if the worker count
    /// is above [`MAX_DECODE_WORKERS`](tracegen::trace::MAX_DECODE_WORKERS)
    /// (before any thread starts), or if
    /// [`TraceInfo::admit`](tracegen::trace::TraceInfo::admit) refuses
    /// the replay on `cfg`: a thread count other than `cfg.num_cores`, an
    /// instruction target of 0 or above the capture's, or a benchmark
    /// name that no longer resolves.
    pub fn from_trace_scheme(
        cfg: &MachineConfig,
        path: impl AsRef<Path>,
        scheme: &Scheme,
        seed_salt: u64,
        decode: &trace::DecodeOptions,
    ) -> Result<Self, TraceError> {
        let workers = decode.checked_workers()?;
        let (info, sources) = trace::open_sources(path)?;
        let profiles = info.admit(cfg.num_cores, cfg.insts_target)?;
        if workers == 0 {
            return Ok(Self::from_sources_scheme(
                cfg, &profiles, sources, scheme, seed_salt,
            ));
        }
        let fronts = profiles
            .iter()
            .zip(sources)
            .map(|(p, source)| LiveFront::new(0, p, source, cfg))
            .collect();
        let (readers, jobs) = pipe::connect(fronts, workers);
        for (i, job) in jobs.into_iter().enumerate() {
            // On an error the readers drop, which joins the started ones.
            job.spawn(i)?;
        }
        let fronts = readers.into_iter().map(Front::Taped).collect();
        Ok(Self::from_fronts_scheme(
            cfg, &profiles, fronts, scheme, seed_salt,
        ))
    }

    /// Run to completion: every core commits `insts_target` instructions;
    /// finished cores keep executing (keeping contention realistic) until
    /// the last core freezes.
    ///
    /// Each turn goes to the core with the smallest `(cycle, core)` key,
    /// so L2 accesses interleave in simulated-time order. After charging
    /// its step the core runs ahead: it takes its following steps that
    /// reach no L2 (no L1I-miss line, no L1D miss) in the same turn, and
    /// the first step that does reach the L2 waits for the core's next
    /// turn. The result is bit-identical to taking one step per turn, and
    /// every core pulls exactly the records it would, because a core runs
    /// ahead only
    ///
    /// 1. while its clock is below the next interval boundary, so every
    ///    boundary still falls on a step taken in a turn;
    /// 2. once frozen, while its key is below the largest key any core
    ///    has held unfrozen: the run ends at a freeze no earlier than
    ///    that, so every such step runs.
    ///
    /// The run ends when every core froze and every key has reached that
    /// largest key, which is then the last freezing step's: a core that
    /// froze ahead of its turn leaves the others' steps below its freeze
    /// to run. A stream that stops while its core runs ahead panics at
    /// that core's turn, so the first stop in key order is the one
    /// reported.
    pub fn run(&mut self) -> SimResult {
        let target = self.cfg.insts_target;
        let lat = self.cfg.latencies;
        let n = self.cores.len();
        let mut frozen: Vec<Option<CoreResult>> = vec![None; n];
        let mut done = 0usize;
        // The largest `(cycle, core)` key any core has held while
        // unfrozen, its freezing step's included.
        let mut reach = (0u64, 0usize);

        loop {
            // Advance the core with the smallest local clock: simulated
            // time order, so L2 interleaving is realistic.
            let c = (0..n)
                .min_by_key(|&i| self.cores[i].cycle)
                .expect("at least one core");
            let now = self.cores[c].cycle;
            if done == n && (now, c) >= reach {
                break;
            }

            // Interval boundary?
            if now >= self.next_interval {
                if let Some(ctl) = &mut self.controller {
                    let misses: Vec<u64> = (0..n)
                        .map(|i| {
                            let total = self.l2.stats().core(i).misses;
                            let delta = total - self.last_misses[i];
                            self.last_misses[i] = total;
                            delta
                        })
                        .collect();
                    let enforcement = ctl.on_interval_with_feedback(Some(&misses));
                    self.l2.set_enforcement(enforcement);
                    self.intervals += 1;
                    self.next_interval += ctl.interval_cycles();
                }
            }

            let core = &mut self.cores[c];
            let Next { step, made } = &mut self.next[c];
            if let Err(stop) = made
                .take()
                .unwrap_or_else(|| core.front.try_next_step(step))
            {
                panic!("{stop}");
            }
            let mut latency = core.charge_base(step.insts);

            // The step's L1 misses reach the L2 in stream order: the fetch
            // lines that missed the L1I, then the data access if it missed
            // the L1D. The ATDs observe each one.
            let fetch = step.fetch.iter().map(|a| (a.addr, a.write));
            for (addr, write) in fetch.chain(step.data) {
                latency += lat.l1_miss;
                if !self.l2.access(c, addr, write).hit {
                    latency += lat.l2_miss;
                }
                if let Some(ctl) = &mut self.controller {
                    ctl.observe(c, addr);
                }
            }

            let misses = &mut self.l1_misses[c];
            misses.0 += step.fetch.len() as u64;
            misses.1 += u64::from(step.data.is_some());

            // Charge the step, then each one the core runs ahead to.
            loop {
                let key = (core.cycle, c);
                core.cycle += latency;
                core.insts += step.insts;
                if !core.finished() {
                    core.maybe_finish(target);
                    if core.finished() {
                        let l2 = self.l2.stats().core(c);
                        frozen[c] = Some(CoreResult {
                            insts: target,
                            cycles: core.finish_cycle.expect("just finished"),
                            ipc: core.ipc(target),
                            l2_accesses: l2.accesses,
                            l2_misses: l2.misses,
                            l1d_misses: misses.1,
                            l1i_misses: misses.0,
                        });
                        done += 1;
                        reach = reach.max(key);
                    } else {
                        reach = reach.max((core.cycle, c));
                    }
                }
                // Run ahead under the two rules above. A step that reaches
                // the L2, or the stop of the core's stream, waits for the
                // core's next turn.
                let key = (core.cycle, c);
                if key.0 >= self.next_interval || core.finished() && key >= reach {
                    break;
                }
                match core.front.try_next_step(step) {
                    Ok(()) if step.fetch.is_empty() && step.data.is_none() => {
                        latency = core.charge_base(step.insts);
                    }
                    next => {
                        *made = Some(next);
                        break;
                    }
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
            l2_stats: self.l2.stats().clone(),
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
    use tracegen::{workload, TraceGenerator};

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
