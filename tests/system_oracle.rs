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
//! Every machine runs twice through a `SimEngine`: once on plain
//! sources, and once with its stream keys pinned in a shared
//! `IsolationCache`, so the engine reads the stream memo.

use plru_repro::cachesim::hierarchy::{Hierarchy, MemLevel};
use plru_repro::cmpsim::system::CoreResult;
use plru_repro::cmpsim::{CoreModel, StreamKey};
use plru_repro::prelude::*;
use std::ops::RangeInclusive;
use std::sync::Arc;

/// Random machines checked.
const MACHINES: usize = 64;

/// The reference loop: `System::from_workload_scheme` + `System::run`
/// as the timing model defines them, with no batching and no memo.
fn reference(cfg: &MachineConfig, benchmarks: &[&str], scheme: &Scheme, salt: u64) -> SimResult {
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
    let mut cores: Vec<CoreModel> = benchmarks
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let p = benchmark(b).unwrap();
            let gen = TraceGenerator::new(p.clone(), System::thread_seed(cfg, i, salt));
            CoreModel::from_source(i, &p, Box::new(gen), cfg.insts_per_fetch_line)
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
    SimResult {
        total_cycles: cores.iter().map(|c| c.cycles).max().unwrap_or(0),
        intervals,
        atd_observed: ctl.as_ref().map_or(0, |c| c.total_observed()),
        final_allocation: ctl
            .as_ref()
            .map(|c| c.allocation().to_vec())
            .unwrap_or_default(),
        l2_stats: h.l2.stats().clone(),
        cores,
    }
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
    let bare = PolicyKind::ALL.len() as u64;
    let scheme = match rng.pick(0..=bare + 2) {
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
    };
    (cfg, benchmarks, scheme, rng.next())
}

#[test]
fn system_run_matches_the_naive_reference_loop_on_plain_and_memo_streams() {
    let mut rng = Rng(0x5AC1E);
    for m in 0..MACHINES {
        let (cfg, benchmarks, scheme, salt) = machine(&mut rng);
        let want = reference(&cfg, &benchmarks, &scheme, salt);
        let profiles: Vec<_> = benchmarks.iter().map(|b| benchmark(b).unwrap()).collect();
        let engine = |memo: Arc<IsolationCache>| {
            SimEngine::builder()
                .machine(cfg.clone())
                .scheme(scheme.clone())
                .seed_salt(salt)
                .isolation(memo)
                .build()
        };
        let what = format!("machine {m}: {benchmarks:?} under {scheme} on {cfg:?}");

        let plain = engine(Arc::new(IsolationCache::new())).run_profiles(&profiles);
        assert_eq!(plain, want, "plain sources, {what}");

        let memo = Arc::new(IsolationCache::new());
        let keys: Vec<StreamKey> = benchmarks
            .iter()
            .enumerate()
            .map(|(i, b)| StreamKey::new(&cfg, i, b, salt))
            .collect();
        memo.streams().pin(&keys);
        let taped = engine(memo.clone()).run_profiles(&profiles);
        assert_eq!(memo.streams().stats().live, keys.len() as u64, "{what}");
        memo.streams().release(&keys);
        assert_eq!(taped, want, "memo streams, {what}");
    }
}
