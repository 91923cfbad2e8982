//! The staged pass: `System::run`'s loop re-driven from the benchmark
//! through each layer's public functions, in the same order:
//! `CoreModel::next_record`/`charge_base`/`fetch_addrs_into`,
//! `Hierarchy::access_inst_batch`/`access_data`,
//! `CpaController::observe`/`on_interval_with_feedback`, then
//! `Cache::set_enforcement`.
//!
//! A timer around every layer call would cost as much as the calls
//! themselves, so the pass records each layer's inputs instead. The
//! caller checks the pass's result against `System::run`'s, then times
//! each layer alone over its recorded inputs ([`time_sources`],
//! [`time_core_model`], [`time_cachesim`], [`time_controller`]).

use plru_repro::cachesim::hierarchy::{BatchScratch, Hierarchy, MemLevel};
use plru_repro::cachesim::{CacheStats, Enforcement};
use plru_repro::cmpsim::system::CoreResult;
use plru_repro::cmpsim::{CoreModel, MachineConfig, SimResult};
use plru_repro::plru_core::{CpaConfig, CpaController, Scheme};
use plru_repro::tracegen::{BenchmarkProfile, MemRecord, TraceSource};
use std::hint::black_box;
use std::time::Instant;

/// One record's trip through the hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Data address, with the core's address offset applied.
    pub addr: u64,
    /// Instruction-fetch lines the record issued (they follow the
    /// previous steps' lines in [`Recorded::fetch`]).
    pub fetch: u32,
    /// Core that ran the record.
    pub core: u16,
    /// Is the data access a store?
    pub write: bool,
}

/// The staged pass's result and, when asked for, every layer's inputs.
#[derive(Debug)]
pub struct Recorded {
    /// What the run computed; must equal `System::run`'s result.
    pub result: SimResult,
    /// Records pulled from each core's source.
    pub counts: Vec<u64>,
    /// Every record in simulated-time order.
    pub steps: Vec<Step>,
    /// Instruction-fetch line addresses of all steps, concatenated.
    pub fetch: Vec<u64>,
    /// Enforcement installed when the system was built.
    pub initial: Option<Enforcement>,
    /// Enforcements installed at interval boundaries, each with the index
    /// of the step it preceded.
    pub installs: Vec<(usize, Enforcement)>,
    /// Core of every profiler observation.
    pub obs_core: Vec<u16>,
    /// Address of every profiler observation.
    pub obs_addr: Vec<u64>,
    /// Interval boundaries: the number of observations before each, and
    /// the per-core miss feedback it was given.
    pub marks: Vec<(usize, Vec<u64>)>,
}

/// Run one simulation through the layers' public functions, exactly as
/// `System::from_sources_scheme` followed by `System::run` would, keeping
/// every layer's inputs in the returned [`Recorded`].
pub fn run(
    cfg: &MachineConfig,
    profiles: &[BenchmarkProfile],
    sources: Vec<Box<dyn TraceSource>>,
    scheme: &Scheme,
    seed_salt: u64,
) -> Recorded {
    let n = cfg.num_cores;
    let mut rec = Recorded {
        result: SimResult {
            cores: Vec::new(),
            total_cycles: 0,
            intervals: 0,
            atd_observed: 0,
            final_allocation: Vec::new(),
            l2_stats: CacheStats::default(),
        },
        counts: vec![0; n],
        steps: Vec::new(),
        fetch: Vec::new(),
        initial: None,
        installs: Vec::new(),
        obs_core: Vec::new(),
        obs_addr: Vec::new(),
        marks: Vec::new(),
    };
    let mut hierarchy = Hierarchy::new(
        n,
        cfg.l1i,
        cfg.l1d,
        cfg.l2,
        scheme.policy(),
        cfg.seed ^ seed_salt,
    );
    let mut controller = scheme.cpa().map(|c| {
        let ctl = CpaController::new(c.clone(), cfg.l2, n);
        let e = ctl.initial_enforcement();
        rec.initial = Some(e.clone());
        hierarchy.l2.set_enforcement(e);
        ctl
    });
    let mut cores: Vec<CoreModel> = profiles
        .iter()
        .zip(sources)
        .enumerate()
        .map(|(i, (p, s))| CoreModel::from_source(i, p, s, cfg.insts_per_fetch_line))
        .collect();
    let mut next_interval = controller
        .as_ref()
        .map(|c| c.interval_cycles())
        .unwrap_or(u64::MAX);
    let mut intervals = 0u64;
    let mut last_misses = vec![0u64; n];
    let mut fetch_buf = Vec::new();
    let mut scratch = BatchScratch::new();
    let lat = cfg.latencies;
    let target = cfg.insts_target;
    let mut frozen: Vec<Option<CoreResult>> = vec![None; n];
    let mut done = 0usize;

    while done < n {
        let c = (0..n)
            .min_by_key(|&i| cores[i].cycle)
            .expect("at least one core");
        if cores[c].cycle >= next_interval {
            if let Some(ctl) = &mut controller {
                let misses: Vec<u64> = (0..n)
                    .map(|i| {
                        let total = hierarchy.l2.stats().core(i).misses;
                        let delta = total - last_misses[i];
                        last_misses[i] = total;
                        delta
                    })
                    .collect();
                let e = ctl.on_interval_with_feedback(Some(&misses));
                rec.marks.push((rec.obs_addr.len(), misses));
                rec.installs.push((rec.steps.len(), e.clone()));
                hierarchy.l2.set_enforcement(e);
                intervals += 1;
                next_interval += ctl.interval_cycles();
            }
        }

        let r = cores[c].next_record();
        rec.counts[c] += 1;
        let insts = r.instructions();
        let mut latency = cores[c].charge_base(insts);
        cores[c].fetch_addrs_into(insts, &mut fetch_buf);
        if !fetch_buf.is_empty() {
            let levels = hierarchy.access_inst_batch(c, &fetch_buf, &mut scratch);
            latency += levels.l2_accesses() * lat.l1_miss + levels.memory * lat.l2_miss;
            if let Some(ctl) = &mut controller {
                for a in scratch.l2_accesses() {
                    ctl.observe(c, a.addr);
                    rec.obs_core.push(c as u16);
                    rec.obs_addr.push(a.addr);
                }
            }
        }
        rec.steps.push(Step {
            addr: r.addr,
            fetch: fetch_buf.len() as u32,
            core: c as u16,
            write: r.is_write,
        });
        rec.fetch.extend_from_slice(&fetch_buf);

        let out = hierarchy.access_data(c, r.addr, r.is_write);
        latency += match out.level {
            MemLevel::L1 => 0,
            MemLevel::L2 => lat.l1_miss,
            MemLevel::Memory => lat.l1_miss + lat.l2_miss,
        };
        if out.level != MemLevel::L1 {
            if let Some(ctl) = &mut controller {
                ctl.observe(c, r.addr);
                rec.obs_core.push(c as u16);
                rec.obs_addr.push(r.addr);
            }
        }

        let core = &mut cores[c];
        core.cycle += latency;
        core.insts += insts;
        if !core.finished() {
            core.maybe_finish(target);
            if core.finished() {
                let l2 = hierarchy.l2.stats().core(c);
                frozen[c] = Some(CoreResult {
                    insts: target,
                    cycles: core.finish_cycle.expect("just finished"),
                    ipc: core.ipc(target),
                    l2_accesses: l2.accesses,
                    l2_misses: l2.misses,
                    l1d_misses: hierarchy.l1(c).dcache.stats().core(0).misses,
                    l1i_misses: hierarchy.l1(c).icache.stats().core(0).misses,
                });
                done += 1;
            }
        }
    }

    let cores: Vec<CoreResult> = frozen.into_iter().map(|c| c.expect("all frozen")).collect();
    rec.result = SimResult {
        total_cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
        intervals,
        atd_observed: controller.as_ref().map_or(0, |c| c.total_observed()),
        final_allocation: controller
            .as_ref()
            .map(|c| c.allocation().to_vec())
            .unwrap_or_default(),
        l2_stats: hierarchy.l2.stats().clone(),
        cores,
    };
    rec
}

/// A source that hands out pre-recorded records, so the core model can
/// be timed without its generator or decoder.
#[derive(Debug)]
struct Replay {
    recs: Vec<MemRecord>,
    next: usize,
}

impl TraceSource for Replay {
    fn next_record(&mut self) -> MemRecord {
        let r = self.recs[self.next];
        self.next += 1;
        r
    }
}

/// Pull `counts[c]` records from each fresh source in one long batch per
/// source, keeping them; returns the seconds taken and the records.
pub fn time_sources(
    mut sources: Vec<Box<dyn TraceSource>>,
    counts: &[u64],
) -> (f64, Vec<Vec<MemRecord>>) {
    let mut raw: Vec<Vec<MemRecord>> = counts
        .iter()
        .map(|&n| Vec::with_capacity(n as usize))
        .collect();
    let t = Instant::now();
    for ((s, &n), out) in sources.iter_mut().zip(counts).zip(&mut raw) {
        for _ in 0..n {
            out.push(s.next_record());
        }
    }
    (t.elapsed().as_secs_f64(), raw)
}

/// Time the core model's per-record calls over the recorded records, in
/// the recorded core order. Returns seconds and fetch lines produced.
pub fn time_core_model(
    cfg: &MachineConfig,
    profiles: &[BenchmarkProfile],
    raw: &[Vec<MemRecord>],
    steps: &[Step],
) -> (f64, u64) {
    let mut cores: Vec<CoreModel> = profiles
        .iter()
        .zip(raw)
        .enumerate()
        .map(|(i, (p, recs))| {
            let src = Box::new(Replay {
                recs: recs.clone(),
                next: 0,
            });
            CoreModel::from_source(i, p, src, cfg.insts_per_fetch_line)
        })
        .collect();
    let mut buf = Vec::new();
    let mut lines = 0u64;
    let t = Instant::now();
    for s in steps {
        let core = &mut cores[usize::from(s.core)];
        let r = core.next_record();
        let insts = r.instructions();
        black_box(core.charge_base(insts));
        core.fetch_addrs_into(insts, &mut buf);
        lines += buf.len() as u64;
    }
    (t.elapsed().as_secs_f64(), lines)
}

/// Time the hierarchy over the recorded accesses and enforcement
/// installs. Returns seconds and the shared L2's final statistics, which
/// must equal the staged pass's.
pub fn time_cachesim(
    cfg: &MachineConfig,
    scheme: &Scheme,
    seed_salt: u64,
    rec: &Recorded,
) -> (f64, CacheStats) {
    let mut h = Hierarchy::new(
        cfg.num_cores,
        cfg.l1i,
        cfg.l1d,
        cfg.l2,
        scheme.policy(),
        cfg.seed ^ seed_salt,
    );
    if let Some(e) = &rec.initial {
        h.l2.set_enforcement(e.clone());
    }
    let mut scratch = BatchScratch::new();
    let mut installs = rec.installs.iter().peekable();
    let mut f = 0usize;
    let t = Instant::now();
    for (i, s) in rec.steps.iter().enumerate() {
        while let Some((_, e)) = installs.next_if(|(at, _)| *at == i) {
            h.l2.set_enforcement(e.clone());
        }
        let c = usize::from(s.core);
        let k = s.fetch as usize;
        if k > 0 {
            black_box(h.access_inst_batch(c, &rec.fetch[f..f + k], &mut scratch));
            f += k;
        }
        black_box(h.access_data(c, s.addr, s.write));
    }
    (t.elapsed().as_secs_f64(), h.l2.stats().clone())
}

/// What [`time_controller`] measured.
#[derive(Debug, Clone)]
pub struct ControllerTimes {
    /// Seconds in `observe`.
    pub observe_s: f64,
    /// Seconds in `on_interval_with_feedback`.
    pub interval_s: f64,
    /// ATD probes the profilers made (`total_observed`).
    pub atd_probes: u64,
    /// Final allocation; must equal the staged pass's.
    pub allocation: Vec<usize>,
}

/// Time a fresh controller over the recorded observations and interval
/// boundaries.
pub fn time_controller(cfg: &MachineConfig, cpa: &CpaConfig, rec: &Recorded) -> ControllerTimes {
    let mut ctl = CpaController::new(cpa.clone(), cfg.l2, cfg.num_cores);
    let mut interval_s = 0.0;
    let mut marks = rec.marks.iter().peekable();
    let mut boundary = |ctl: &mut CpaController, misses: &[u64]| {
        let t = Instant::now();
        black_box(ctl.on_interval_with_feedback(Some(misses)));
        interval_s += t.elapsed().as_secs_f64();
    };
    let t = Instant::now();
    for (i, (&c, &a)) in rec.obs_core.iter().zip(&rec.obs_addr).enumerate() {
        while let Some((_, misses)) = marks.next_if(|(at, _)| *at == i) {
            boundary(&mut ctl, misses);
        }
        ctl.observe(usize::from(c), a);
    }
    for (_, misses) in marks {
        boundary(&mut ctl, misses);
    }
    let total = t.elapsed().as_secs_f64();
    ControllerTimes {
        observe_s: total - interval_s,
        interval_s,
        atd_probes: ctl.total_observed(),
        allocation: ctl.allocation().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plru_repro::prelude::*;
    use plru_repro::tracegen::TraceGenerator;

    fn generators(cfg: &MachineConfig, wl: &Workload, salt: u64) -> Vec<Box<dyn TraceSource>> {
        wl.profiles()
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                Box::new(TraceGenerator::new(p, System::thread_seed(cfg, i, salt)))
                    as Box<dyn TraceSource>
            })
            .collect()
    }

    /// The staged pass must be bit-identical to `System::run`, and the
    /// per-layer replays must reproduce its end state, on small machines
    /// with and without a controller.
    #[test]
    fn staged_pass_matches_system_run_on_a_tiny_machine() {
        for (wl_name, scheme, salt) in [
            ("2T_02", "L", 0),
            ("2T_02", "M-L", 3),
            ("4T_01", "M-0.75N", 1),
            ("4T_01", "M-BT", 2),
        ] {
            let mut cfg = MachineConfig::paper_baseline(wl_name[..1].parse().unwrap());
            cfg.insts_target = 40_000;
            let mut scheme: Scheme = scheme.parse().unwrap();
            if let Some(c) = scheme.cpa() {
                let mut c = c.clone();
                c.interval_cycles = 20_000; // several intervals in a short run
                scheme = Scheme::partitioned(c).unwrap();
            }
            let wl = workload(wl_name).unwrap();
            let expected = System::from_workload_scheme(&cfg, &wl, &scheme, salt).run();
            let profiles = wl.profiles();
            let rec = run(&cfg, &profiles, generators(&cfg, &wl, salt), &scheme, salt);
            assert_eq!(rec.result, expected, "{wl_name} {scheme}");

            let (_, raw) = time_sources(generators(&cfg, &wl, salt), &rec.counts);
            let (_, lines) = time_core_model(&cfg, &profiles, &raw, &rec.steps);
            assert_eq!(lines, rec.fetch.len() as u64);
            let (_, l2) = time_cachesim(&cfg, &scheme, salt, &rec);
            assert_eq!(l2, expected.l2_stats);
            if let Some(cpa) = scheme.cpa() {
                assert!(expected.intervals >= 2, "{wl_name} {scheme}");
                let ctl = time_controller(&cfg, cpa, &rec);
                assert_eq!(ctl.allocation, expected.final_allocation);
                assert_eq!(ctl.atd_probes, expected.atd_observed);
            }
        }
    }
}
