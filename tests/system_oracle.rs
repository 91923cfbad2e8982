//! Whole-pipeline oracle: a naive reference loop, written from the
//! timing model's definition, diffed against `System::run`'s whole
//! `SimResult` on random small machines.
//!
//! The reference picks the core with the smallest clock by a linear
//! scan (lowest index on ties), walks every instruction-fetch line
//! through `Hierarchy::access_inst` one at a time and then the record's
//! data access through `Hierarchy::access_data`, charges the per-level
//! penalties, and feeds the real `CpaController` exactly the addresses
//! that reached the L2. The machines are tiny (L1s of 1-8 sets x 1-4
//! ways, an L2 of 8-64 sets), so every level thrashes and the
//! controller repartitions many times per run.
//!
//! Every machine runs three times: through `System::run` on sources that
//! count the records pulled from them, and through a `SimEngine`, once on
//! plain sources and once with its stream keys pinned in a shared
//! `IsolationCache`, so the engine reads the stream memo. Each core must
//! pull exactly the records the reference pulls, and the memo must serve
//! exactly that many steps: `System::run` takes a core's steps that reach
//! no L2 ahead of its turn, and a capture records every record pulled.
//!
//! A second set of machines gives those run-ahead streaks room: the
//! paper's L1s, cache-friendly mixes on up to 8 cores, and repartition
//! intervals of 2k-20k cycles, so cores freeze, and run ahead frozen,
//! close to interval boundaries and to each other's freezes. Streams
//! that stay in the L1s for ≈ 2k cycles at a time, against 500-cycle
//! intervals, make streaks that cross several boundaries.

use plru_repro::cachesim::hierarchy::{Hierarchy, MemLevel};
use plru_repro::cmpsim::system::CoreResult;
use plru_repro::cmpsim::{CoreModel, StreamKey};
use plru_repro::prelude::*;
use plru_repro::tracegen::{BenchmarkProfile, MemRecord};
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Random machines checked.
const MACHINES: usize = 64;
/// Random cache-friendly machines checked.
const FRIENDLY_MACHINES: usize = 24;

/// A core's stream, counting the records pulled from it, that stops
/// after `stop` records as a recorded stream that ran dry does.
#[derive(Debug)]
struct Counted {
    gen: Box<dyn TraceSource>,
    core: usize,
    stop: u64,
    pulled: Arc<AtomicU64>,
}

impl TraceSource for Counted {
    fn next_record(&mut self) -> MemRecord {
        self.try_next_record()
            .unwrap_or_else(|stop| panic!("{stop}"))
    }

    fn try_next_record(&mut self) -> Result<MemRecord, String> {
        if self.pulled.load(Ordering::Relaxed) == self.stop {
            return Err(format!(
                "core {} stopped after {} records",
                self.core, self.stop
            ));
        }
        self.pulled.fetch_add(1, Ordering::Relaxed);
        Ok(self.gen.next_record())
    }
}

/// The name of a stream that stays in the paper's L1s once they are
/// warm, timed as gzip (whose 250 code lines fit the L1I): it walks 4
/// data lines, 4 instructions per record, and every 1000th record reads
/// a fresh line, so its streaks of L2-free steps last ≈ 2k cycles.
const HOT: &str = "hot";

/// [`HOT`]'s records.
#[derive(Debug)]
struct Hot(u64);

impl TraceSource for Hot {
    fn next_record(&mut self) -> MemRecord {
        self.0 += 1;
        let i = self.0;
        MemRecord {
            gap: 3,
            addr: if i.is_multiple_of(1000) {
                (1 << 30) + i * 128
            } else {
                i % 4 * 128
            },
            is_write: false,
        }
    }
}

/// The timing profile of benchmark or stream `name`.
fn profile(name: &str) -> BenchmarkProfile {
    benchmark(if name == HOT { "gzip" } else { name }).unwrap()
}

/// Each core's live stream of `benchmarks` on `cfg` under `salt`,
/// counting into the returned counters. Core `i`'s stream stops after
/// `stops[i]` records, or never past the end of `stops`.
fn counted_sources(
    cfg: &MachineConfig,
    benchmarks: &[&str],
    salt: u64,
    stops: &[u64],
) -> (Vec<Box<dyn TraceSource>>, Vec<Arc<AtomicU64>>) {
    let counters: Vec<Arc<AtomicU64>> = benchmarks.iter().map(|_| Arc::default()).collect();
    let sources = benchmarks
        .iter()
        .zip(&counters)
        .enumerate()
        .map(|(i, (b, pulled))| {
            let seed = System::thread_seed(cfg, i, salt);
            let gen: Box<dyn TraceSource> = match *b {
                HOT => Box::new(Hot(0)),
                b => Box::new(TraceGenerator::new(benchmark(b).unwrap(), seed)),
            };
            Box::new(Counted {
                gen,
                core: i,
                stop: stops.get(i).copied().unwrap_or(u64::MAX),
                pulled: pulled.clone(),
            }) as Box<dyn TraceSource>
        })
        .collect();
    (sources, counters)
}

fn counts(counters: &[Arc<AtomicU64>]) -> Vec<u64> {
    counters.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// The reference loop: `System::from_workload_scheme` + `System::run`
/// as the timing model defines them, with no batching and no memo, one
/// record per iteration, over streams stopping after `stops` records.
/// Returns the result and, per core, its clock at each record it pulled.
fn reference(
    cfg: &MachineConfig,
    benchmarks: &[&str],
    scheme: &Scheme,
    salt: u64,
    stops: &[u64],
) -> (SimResult, Vec<Vec<u64>>) {
    let n = cfg.num_cores;
    let mut h = Hierarchy::new(
        n,
        cfg.l1i,
        cfg.l1d,
        cfg.l2,
        scheme.policy(),
        cfg.seed ^ salt,
    );
    let mut ctl = scheme.cpa().map(|c| {
        let ctl = CpaController::new(c.clone(), cfg.l2, n);
        h.l2.set_enforcement(ctl.initial_enforcement());
        ctl
    });
    let (sources, _) = counted_sources(cfg, benchmarks, salt, stops);
    let mut pulls = vec![Vec::new(); n];
    let mut cores: Vec<CoreModel> = benchmarks
        .iter()
        .zip(sources)
        .enumerate()
        .map(|(i, (b, source))| {
            let p = profile(b);
            CoreModel::from_source(i, &p, source, cfg.insts_per_fetch_line)
        })
        .collect();
    let penalty = |level: MemLevel| match level {
        MemLevel::L1 => 0,
        MemLevel::L2 => cfg.latencies.l1_miss,
        MemLevel::Memory => cfg.latencies.l1_miss + cfg.latencies.l2_miss,
    };
    let mut next_interval = ctl.as_ref().map_or(u64::MAX, |c| c.interval_cycles());
    let mut intervals = 0;
    let mut last_misses = vec![0u64; n];
    let mut frozen: Vec<Option<CoreResult>> = vec![None; n];
    let mut fetch = Vec::new();

    while frozen.iter().any(Option::is_none) {
        let mut c = 0;
        for i in 1..n {
            if cores[i].cycle < cores[c].cycle {
                c = i;
            }
        }
        if cores[c].cycle >= next_interval {
            if let Some(ctl) = &mut ctl {
                let mut misses = Vec::new();
                for (i, last) in last_misses.iter_mut().enumerate() {
                    let total = h.l2.stats().core(i).misses;
                    misses.push(total - *last);
                    *last = total;
                }
                h.l2.set_enforcement(ctl.on_interval_with_feedback(Some(&misses)));
                intervals += 1;
                next_interval += ctl.interval_cycles();
            }
        }

        let rec = cores[c].next_record();
        pulls[c].push(cores[c].cycle);
        let insts = rec.instructions();
        let mut latency = cores[c].charge_base(insts);
        cores[c].fetch_addrs_into(insts, &mut fetch);
        for &a in &fetch {
            let level = h.access_inst(c, a).level;
            latency += penalty(level);
            if level != MemLevel::L1 {
                if let Some(ctl) = &mut ctl {
                    ctl.observe(c, a);
                }
            }
        }
        let level = h.access_data(c, rec.addr, rec.is_write).level;
        latency += penalty(level);
        if level != MemLevel::L1 {
            if let Some(ctl) = &mut ctl {
                ctl.observe(c, rec.addr);
            }
        }

        let core = &mut cores[c];
        core.cycle += latency;
        core.insts += insts;
        if frozen[c].is_none() && core.insts >= cfg.insts_target {
            let l2 = h.l2.stats().core(c);
            frozen[c] = Some(CoreResult {
                insts: cfg.insts_target,
                cycles: core.cycle,
                ipc: cfg.insts_target as f64 / core.cycle as f64,
                l2_accesses: l2.accesses,
                l2_misses: l2.misses,
                l1d_misses: h.l1(c).dcache.stats().core(0).misses,
                l1i_misses: h.l1(c).icache.stats().core(0).misses,
            });
        }
    }

    let cores: Vec<CoreResult> = frozen.into_iter().map(Option::unwrap).collect();
    let result = SimResult {
        total_cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
        intervals,
        atd_observed: ctl.as_ref().map_or(0, |c| c.total_observed()),
        final_allocation: ctl
            .as_ref()
            .map(|c| c.allocation().to_vec())
            .unwrap_or_default(),
        l2_stats: h.l2.stats().clone(),
        cores,
    };
    (result, pulls)
}

/// SplitMix64: enough randomness for picking machines.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `range` (modulo bias is irrelevant here).
    fn pick(&mut self, range: RangeInclusive<u64>) -> u64 {
        range.start() + self.next() % (range.end() - range.start() + 1)
    }
}

/// A cache of `sets` x `ways` lines of 128 B.
fn geometry(sets: u64, ways: usize) -> CacheGeometry {
    CacheGeometry::new(sets * ways as u64 * 128, ways, 128).unwrap()
}

/// One random machine, workload and scheme.
fn machine(rng: &mut Rng) -> (MachineConfig, Vec<&'static str>, Scheme, u64) {
    let names = plru_repro::tracegen::benchmark_names();
    let n = rng.pick(1..=4) as usize;
    let mut cfg = MachineConfig::paper_baseline(n);
    cfg.l1i = geometry(1 << rng.pick(0..=3), rng.pick(1..=4) as usize);
    cfg.l1d = geometry(1 << rng.pick(0..=3), rng.pick(1..=4) as usize);
    let l2_sets = 8 << rng.pick(0..=3);
    cfg.l2 = geometry(l2_sets, 4 << rng.pick(0..=2));
    cfg.insts_target = rng.pick(2_000..=8_000);
    cfg.insts_per_fetch_line = rng.pick(1..=40);
    cfg.seed = rng.next();
    let benchmarks = (0..n)
        .map(|_| names[rng.pick(0..=names.len() as u64 - 1) as usize])
        .collect();
    let scheme = scheme(rng, l2_sets);
    (cfg, benchmarks, scheme, rng.next())
}

/// A random CPA scheme repartitioning every 2k-20k cycles, sampling
/// one in up to `l2_sets` sets, or (one time in four) a bare policy.
fn scheme(rng: &mut Rng, l2_sets: u64) -> Scheme {
    let bare = PolicyKind::ALL.len() as u64;
    match rng.pick(0..=bare + 2) {
        k if k < bare => Scheme::bare(PolicyKind::ALL[k as usize]),
        k => {
            let mut cpa = match k - bare {
                0 => CpaConfig::m_l(),
                1 => CpaConfig::m_nru(0.75),
                _ => CpaConfig::m_bt(),
            };
            cpa.sample_ratio = 1 << rng.pick(0..=u64::from(l2_sets.trailing_zeros()));
            cpa.interval_cycles = rng.pick(2_000..=20_000);
            cpa.min_samples_per_thread = rng.pick(0..=8);
            Scheme::partitioned(cpa).unwrap()
        }
    }
}

/// One random machine whose cores run ahead often: the paper's L1s and
/// fetch width, a 64-512-set L2, and 1-8 cores of the benchmarks whose
/// records most often hit both L1s (at 10k instructions, 38-65% of
/// their steps reach no L2, against 26-36% for mcf, art or swim).
fn friendly_machine(rng: &mut Rng) -> (MachineConfig, Vec<&'static str>, Scheme, u64) {
    const FRIENDLY: [&str; 8] = [
        "eon", "sixtrack", "mesa", "crafty", "perlbmk", "gzip", "gap", "wupwise",
    ];
    let n = rng.pick(1..=8) as usize;
    let mut cfg = MachineConfig::paper_baseline(n);
    let l2_sets = 64 << rng.pick(0..=3);
    cfg.l2 = geometry(l2_sets, 16);
    cfg.insts_target = rng.pick(4_000..=12_000);
    cfg.seed = rng.next();
    let benchmarks = (0..n)
        .map(|_| FRIENDLY[rng.pick(0..=FRIENDLY.len() as u64 - 1) as usize])
        .collect();
    let scheme = scheme(rng, l2_sets);
    (cfg, benchmarks, scheme, rng.next())
}

/// Check `System::run` against the reference on one machine: the
/// counted run, the engine's plain run and its memo run.
fn check(what: &str, cfg: &MachineConfig, benchmarks: &[&str], scheme: &Scheme, salt: u64) {
    let (want, pulls) = reference(cfg, benchmarks, scheme, salt, &[]);
    let pulled: Vec<u64> = pulls.iter().map(|p| p.len() as u64).collect();
    let profiles: Vec<_> = benchmarks.iter().map(|b| benchmark(b).unwrap()).collect();

    let (sources, counters) = counted_sources(cfg, benchmarks, salt, &[]);
    let counted = System::from_sources_scheme(cfg, &profiles, sources, scheme, salt).run();
    assert_eq!(counted, want, "counted sources, {what}");
    assert_eq!(counts(&counters), pulled, "records pulled per core, {what}");

    let engine = |memo: Arc<IsolationCache>| {
        SimEngine::builder()
            .machine(cfg.clone())
            .scheme(scheme.clone())
            .seed_salt(salt)
            .isolation(memo)
            .build()
    };
    let plain = engine(Arc::new(IsolationCache::new())).run_profiles(&profiles);
    assert_eq!(plain, want, "plain sources, {what}");

    let memo = Arc::new(IsolationCache::new());
    let keys: Vec<StreamKey> = benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| StreamKey::new(cfg, i, b, salt))
        .collect();
    memo.streams().pin(&keys);
    let taped = engine(memo.clone()).run_profiles(&profiles);
    let stats = memo.streams().stats();
    assert_eq!(stats.live, keys.len() as u64, "{what}");
    assert_eq!(
        stats.served,
        pulled.iter().sum::<u64>(),
        "steps served, {what}"
    );
    memo.streams().release(&keys);
    assert_eq!(taped, want, "memo streams, {what}");
}

#[test]
fn system_run_matches_the_naive_reference_loop_on_plain_and_memo_streams() {
    let mut rng = Rng(0x5AC1E);
    for m in 0..MACHINES {
        let (cfg, benchmarks, scheme, salt) = machine(&mut rng);
        let what = format!("machine {m}: {benchmarks:?} under {scheme} on {cfg:?}");
        check(&what, &cfg, &benchmarks, &scheme, salt);
    }
}

#[test]
fn cores_running_ahead_pull_exactly_the_reference_records() {
    let mut rng = Rng(0xF1E2D);
    for m in 0..FRIENDLY_MACHINES {
        let (cfg, benchmarks, scheme, salt) = friendly_machine(&mut rng);
        let what = format!("friendly machine {m}: {benchmarks:?} under {scheme} on {cfg:?}");
        check(&what, &cfg, &benchmarks, &scheme, salt);
    }
}

#[test]
fn the_first_stream_to_stop_in_simulated_time_is_the_one_reported() {
    // Every stream stops at its first record pulled at or after one cycle:
    // a core running ahead past that cycle pulls its stop before the
    // cores behind it reach theirs, and must raise it only at its turn.
    let message = |run: &mut dyn FnMut()| {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err("a stream stops before the run ends");
        err.downcast_ref::<String>()
            .cloned()
            .expect("a formatted message")
    };
    let mut rng = Rng(0x5707);
    for m in 0..FRIENDLY_MACHINES {
        let (cfg, benchmarks, scheme, salt) = friendly_machine(&mut rng);
        let (result, pulls) = reference(&cfg, &benchmarks, &scheme, salt, &[]);
        let cores = &result.cores;
        let at = rng.pick(1..=cores.iter().map(|c| c.cycles).min().unwrap());
        let stops: Vec<u64> = pulls
            .iter()
            .map(|p| p.partition_point(|&cycle| cycle < at) as u64)
            .collect();
        let profiles: Vec<_> = benchmarks.iter().map(|b| benchmark(b).unwrap()).collect();
        let want = message(&mut || {
            reference(&cfg, &benchmarks, &scheme, salt, &stops);
        });
        let got = message(&mut || {
            let (sources, _) = counted_sources(&cfg, &benchmarks, salt, &stops);
            System::from_sources_scheme(&cfg, &profiles, sources, &scheme, salt).run();
        });
        assert_eq!(
            got, want,
            "friendly machine {m}: {benchmarks:?} stopping at {stops:?}"
        );
    }
}

#[test]
fn streaks_across_interval_boundaries_leave_each_boundary_in_its_turn() {
    // Hot cores run ahead for ≈ 2k cycles at a time, across several
    // boundaries of a 500-cycle interval: the loop repartitions once per
    // turn, so a boundary must never fall inside a streak.
    let mut cfg = MachineConfig::paper_baseline(2);
    cfg.l2 = geometry(64, 16);
    cfg.insts_target = 60_000;
    for benchmarks in [[HOT, HOT], [HOT, "mcf"]] {
        for interval in [500, 2_000] {
            let what = format!("{benchmarks:?} at {interval}-cycle intervals");
            let mut cpa = CpaConfig::m_l();
            cpa.interval_cycles = interval;
            cpa.sample_ratio = 1;
            let scheme = Scheme::partitioned(cpa).unwrap();
            let (want, pulls) = reference(&cfg, &benchmarks, &scheme, 1, &[]);
            let profiles: Vec<_> = benchmarks.iter().map(|b| profile(b)).collect();
            let (sources, counters) = counted_sources(&cfg, &benchmarks, 1, &[]);
            let got = System::from_sources_scheme(&cfg, &profiles, sources, &scheme, 1).run();
            assert_eq!(got, want, "{what}");
            let pulled: Vec<u64> = pulls.iter().map(|p| p.len() as u64).collect();
            assert_eq!(counts(&counters), pulled, "{what}");
        }
    }
}
