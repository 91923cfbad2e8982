//! The traced run's per-simulation procedure and the per-layer totals it
//! accumulates.

use crate::check::Ops;
use crate::spans::Spans;
use crate::staged;
use crate::stats::median;
use plru_repro::cmpsim::{SimResult, System};
use plru_repro::engine::SimEngine;
use plru_repro::tracegen::trace::{self, DecodeOptions};
use plru_repro::tracegen::{BenchmarkProfile, TraceGenerator, TraceSource, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Untraced builds timed per simulation; the median is `build_s`.
const BUILDS: usize = 9;
/// Repetitions of each untraced run and each stage; medians are kept.
const REPS: usize = 3;

/// Where a simulation's records come from.
#[derive(Debug, Clone)]
pub enum Input {
    /// Live generators for a workload.
    Live(Workload),
    /// A recorded trace, decoded with the engine's decode-worker count.
    Trace(PathBuf, usize),
}

/// One simulation of the traced run.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Operation name, shared with the timed run's operation.
    pub op: String,
    /// Machine and scheme.
    pub engine: SimEngine,
    /// Seed salt the engine was built with.
    pub salt: u64,
    /// Record source.
    pub input: Input,
}

impl Sim {
    fn profiles(&self) -> Result<Vec<BenchmarkProfile>, String> {
        match &self.input {
            Input::Live(wl) => Ok(wl.profiles()),
            Input::Trace(path, _) => {
                let info = trace::load_info(path).map_err(|e| e.to_string())?;
                info.meta
                    .benchmarks
                    .iter()
                    .map(|b| {
                        plru_repro::tracegen::benchmark(b).ok_or(format!("unknown benchmark {b}"))
                    })
                    .collect()
            }
        }
    }

    fn sources(&self, decode_workers: usize) -> Result<Vec<Box<dyn TraceSource>>, String> {
        match &self.input {
            Input::Live(wl) => Ok(wl
                .profiles()
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    let seed = System::thread_seed(self.engine.config(), i, self.salt);
                    Box::new(TraceGenerator::new(p, seed)) as Box<dyn TraceSource>
                })
                .collect()),
            Input::Trace(path, _) => {
                let opts = DecodeOptions::workers(decode_workers);
                let (_, sources) =
                    trace::open_sources_with(path, &opts).map_err(|e| e.to_string())?;
                Ok(sources)
            }
        }
    }

    /// Build the system through the library's own entry point.
    fn build(&self) -> Result<System, String> {
        match &self.input {
            Input::Live(wl) => Ok(self.engine.system(wl)),
            Input::Trace(path, _) => self
                .engine
                .system_from_trace(path)
                .map_err(|e| e.to_string()),
        }
    }

    fn decode_workers(&self) -> usize {
        match self.input {
            Input::Live(_) => 0,
            Input::Trace(_, w) => w,
        }
    }
}

/// Per-layer totals over the simulations of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Layers {
    pub gen_records: u64,
    pub gen_s: f64,
    pub decode_s: f64,
    pub decode_inline_s: f64,
    pub core_s: f64,
    pub fetch_lines: u64,
    pub cache_s: f64,
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub installs: u64,
    pub observes: u64,
    pub atd_probes: u64,
    pub observe_s: f64,
    pub intervals: u64,
    pub interval_s: f64,
    pub build_s: f64,
    /// Untraced `System::run` seconds.
    pub run_s: f64,
    /// Staged-pass seconds.
    pub staged_s: f64,
}

impl Layers {
    /// Seconds the timed stages account for on the simulating thread.
    /// Replays decode on the pool's worker thread, so their decode time
    /// is reported but not counted here.
    pub fn stage_s(&self) -> f64 {
        self.gen_s + self.core_s + self.cache_s + self.observe_s + self.interval_s
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let v = f();
    (t.elapsed().as_secs_f64(), v)
}

/// Trace one simulation: time untraced builds and runs, run the staged
/// pass and check it against `System::run` (one operation), then time
/// each layer alone over the recorded inputs. With `expect`, the
/// untraced result must also equal that reference. Returns the untraced
/// result.
pub fn trace_sim(
    sim: &Sim,
    expect: Option<&SimResult>,
    ops: &mut Ops,
    spans: &mut Spans,
    parent: Option<usize>,
    layers: &mut Layers,
) -> Result<SimResult, String> {
    let cfg = sim.engine.config();
    let scheme = sim.engine.scheme();
    let profiles = sim.profiles()?;
    let top = spans.open("sim", parent, Some(sim.op.clone()));

    let id = spans.open("build", Some(top), None);
    let mut builds = Vec::with_capacity(BUILDS);
    for _ in 0..BUILDS {
        let (s, sys) = timed(|| sim.build());
        sys?;
        builds.push(s);
    }
    spans.close(id);
    layers.build_s += median(&builds);

    let id = spans.open("run", Some(top), None);
    let mut runs = Vec::with_capacity(REPS);
    let mut untraced: Option<SimResult> = None;
    for _ in 0..REPS {
        let mut sys = sim.build()?;
        let (s, r) = timed(|| sys.run());
        runs.push(s);
        match &untraced {
            Some(first) if *first != r => {
                return Err(format!("{}: System::run is not repeatable", sim.op))
            }
            Some(_) => {}
            None => untraced = Some(r),
        }
    }
    spans.close(id);
    let untraced = untraced.expect("REPS > 0");
    layers.run_s += median(&runs);

    let id = spans.open("staged", Some(top), None);
    let sources = sim.sources(sim.decode_workers())?;
    let (s, rec) = timed(|| staged::run(cfg, &profiles, sources, scheme, sim.salt));
    spans.close(id);
    layers.staged_s += s;

    // Each layer alone over its recorded inputs.
    let mut gen = Vec::new();
    let mut inline = Vec::new();
    let mut raw = Vec::new();
    let id = spans.open("stage.source", Some(top), None);
    for _ in 0..REPS {
        let (s, r) = staged::time_sources(sim.sources(sim.decode_workers())?, &rec.counts);
        gen.push(s);
        raw = r;
        if let Input::Trace(..) = sim.input {
            inline.push(staged::time_sources(sim.sources(0)?, &rec.counts).0);
        }
    }
    spans.close(id);
    match sim.input {
        Input::Live(_) => {
            layers.gen_records += rec.counts.iter().sum::<u64>();
            layers.gen_s += median(&gen);
        }
        Input::Trace(..) => {
            layers.decode_s += median(&gen);
            layers.decode_inline_s += median(&inline);
        }
    }

    let id = spans.open("stage.core_model", Some(top), None);
    let mut core = Vec::new();
    let mut lines = 0;
    for _ in 0..REPS {
        let (s, l) = staged::time_core_model(cfg, &profiles, &raw, &rec.steps);
        core.push(s);
        lines = l;
    }
    spans.close(id);
    drop(raw);
    layers.core_s += median(&core);
    layers.fetch_lines += lines;

    let id = spans.open("stage.cachesim", Some(top), None);
    let mut cache = Vec::new();
    let mut replay_ok = true;
    for _ in 0..REPS {
        let (s, l2) = staged::time_cachesim(cfg, scheme, sim.salt, &rec);
        cache.push(s);
        replay_ok &= l2 == untraced.l2_stats;
    }
    spans.close(id);
    layers.cache_s += median(&cache);
    layers.l1_accesses += (rec.steps.len() + rec.fetch.len()) as u64;
    let l2 = untraced.l2_stats.total();
    layers.l2_accesses += l2.accesses;
    layers.l2_hits += l2.hits;
    layers.installs += u64::from(rec.initial.is_some()) + rec.installs.len() as u64;

    if let Some(cpa) = scheme.cpa() {
        let id = spans.open("stage.controller", Some(top), None);
        let mut obs = Vec::new();
        let mut ivl = Vec::new();
        for _ in 0..REPS {
            let t = staged::time_controller(cfg, cpa, &rec);
            obs.push(t.observe_s);
            ivl.push(t.interval_s);
            replay_ok &=
                t.allocation == untraced.final_allocation && t.atd_probes == untraced.atd_observed;
        }
        spans.close(id);
        layers.observe_s += median(&obs);
        layers.interval_s += median(&ivl);
        layers.observes += rec.obs_addr.len() as u64;
        layers.atd_probes += untraced.atd_observed;
        layers.intervals += untraced.intervals;
    }
    spans.close(top);

    if !replay_ok {
        ops.count(
            &sim.op,
            false,
            "a layer replay did not reproduce the run's end state",
        );
    } else if expect.is_some_and(|e| *e != untraced) {
        ops.count(&sim.op, false, "System::run differs from its reference");
    } else {
        ops.check(&sim.op, &rec.result, Some(&untraced));
    }
    Ok(untraced)
}
