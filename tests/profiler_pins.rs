//! Bit-for-bit pins of the three profiling logics as the CPA controller
//! drives them.
//!
//! Every profiling logic (L, 1.0N, 0.75N, 0.5N, 0.75N with the smear
//! update, BT) runs at every tag-store fidelity (exact, sketch8,
//! sketch12, sketch16), at sample ratios 1 and 32, with the adaptive NRU
//! scale off and on, and at 2 cores and at 10 cores on an 8-way L2 (so
//! the controller clusters). Each run mirrors `System::run`'s back end:
//! fixed `TraceGenerator` streams go round-robin through a real shared
//! L2 under the controller's enforcement and into `observe`, and every
//! interval boundary feeds the L2's per-core misses back. Every other
//! boundary reports eight times the true misses, so the adaptive scale
//! both falls and rises (the true feedback alone only lowers it here).
//! An FNV-1a digest folds in every profiler's SDH registers and
//! observation count at every boundary, the allocation history and the
//! NRU scales.
//!
//! The goldens were computed before the profilers were folded into one
//! type; they pin that fold (and any later change to the profiling
//! layer) as bit-identical. A mismatch prints the logic's actual row.

use plru_core::{NruUpdateMode, ProfilerFidelity};
use plru_repro::prelude::*;
use std::sync::OnceLock;

/// 128 KB, 8 ways, 64 B lines: 256 sets, so ratio 32 keeps 8 sampled
/// sets and 10 cores exceed the ways.
fn l2() -> CacheGeometry {
    CacheGeometry::new(128 * 1024, 8, 64).unwrap()
}

const CORES: [usize; 2] = [2, 10];
const RECORDS_PER_CORE: usize = 1_600;
const INTERVAL_ROUNDS: usize = 200;
const FIDELITIES: [&str; 4] = ["exact", "sketch8", "sketch12", "sketch16"];

/// One address stream per core, shared by every run.
fn streams() -> &'static [Vec<u64>] {
    static STREAMS: OnceLock<Vec<Vec<u64>>> = OnceLock::new();
    STREAMS.get_or_init(|| {
        let names = ["mcf", "twolf", "gzip", "art", "bzip2"];
        (0..CORES[1])
            .map(|c| {
                let profile = benchmark(names[c % names.len()]).unwrap();
                let mut gen = TraceGenerator::new(profile, 0x5EED + c as u64);
                (0..RECORDS_PER_CORE)
                    .map(|_| gen.next_record().addr)
                    .collect()
            })
            .collect()
    })
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Run one configuration and fold its observable profiler state into `h`.
fn run(cfg: CpaConfig, cores: usize, h: &mut Fnv) {
    let geom = l2();
    let mut ctl = CpaController::try_new(cfg.clone(), geom, cores).unwrap();
    let mut cache = Cache::new(CacheConfig {
        geometry: geom,
        policy: cfg.policy,
        num_cores: cores,
        seed: 0,
    });
    cache.set_enforcement(ctl.initial_enforcement());
    let mut last_misses = vec![0u64; cores];
    let fold_profilers = |ctl: &CpaController, h: &mut Fnv| {
        for p in ctl.profilers() {
            h.word(p.observed());
            for d in 1..=geom.assoc() + 1 {
                h.word(p.sdh().register(d));
            }
        }
    };
    for round in 0..RECORDS_PER_CORE {
        for (c, stream) in streams()[..cores].iter().enumerate() {
            cache.access(c, stream[round], false);
            ctl.observe(c, stream[round]);
        }
        if (round + 1) % INTERVAL_ROUNDS == 0 {
            fold_profilers(&ctl, h);
            let boost = 1 + 7 * (round / INTERVAL_ROUNDS % 2) as u64;
            let misses: Vec<u64> = (0..cores)
                .map(|c| {
                    let total = cache.stats().core(c).misses;
                    let delta = total - last_misses[c];
                    last_misses[c] = total;
                    delta * boost
                })
                .collect();
            cache.set_enforcement(ctl.on_interval_with_feedback(Some(&misses)));
            for s in ctl.nru_scales() {
                h.word(s.map_or(u64::MAX, f64::to_bits));
            }
        }
    }
    fold_profilers(&ctl, h);
    for alloc in ctl.history() {
        for &w in alloc {
            h.word(w as u64);
        }
    }
    h.word(ctl.total_observed());
}

/// The digest of one profiling logic at one fidelity, over both sample
/// ratios, both adaptive settings and both core counts.
fn digest(base: &CpaConfig, fidelity: &str) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for ratio in [1usize, 32] {
        for adaptive in [false, true] {
            for cores in CORES {
                let mut cfg = base.clone();
                cfg.sample_ratio = ratio;
                cfg.adaptive_nru_scale = adaptive;
                cfg.min_samples_per_thread = 4;
                cfg.fidelity = Some(fidelity.parse::<ProfilerFidelity>().unwrap());
                run(cfg, cores, &mut h);
            }
        }
    }
    h.0
}

/// Check one logic's row of goldens (one digest per fidelity).
fn check(label: &str, base: CpaConfig, expected: [u64; 4]) {
    let actual: Vec<u64> = FIDELITIES.iter().map(|f| digest(&base, f)).collect();
    assert_eq!(
        actual,
        expected,
        "{label}: profiler digests changed; got [{}]",
        actual
            .iter()
            .map(|d| format!("{d:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn lru_profiler_is_pinned() {
    check(
        "L",
        CpaConfig::m_l(),
        [
            0x27c7e405c8d802d5,
            0x6b2a4d5610df3369,
            0x27c7e405c8d802d5,
            0x27c7e405c8d802d5,
        ],
    );
}

#[test]
fn nru_1_0_profiler_is_pinned() {
    check(
        "1.0N",
        CpaConfig::m_nru(1.0),
        [
            0x4465eb3418f5bd37,
            0xb6742bac3a412f81,
            0x4465eb3418f5bd37,
            0x4465eb3418f5bd37,
        ],
    );
}

#[test]
fn nru_0_75_profiler_is_pinned() {
    check(
        "0.75N",
        CpaConfig::m_nru(0.75),
        [
            0x148c4f12108daaea,
            0xaad333ed3d8a52d4,
            0x148c4f12108daaea,
            0x148c4f12108daaea,
        ],
    );
}

#[test]
fn nru_0_5_profiler_is_pinned() {
    check(
        "0.5N",
        CpaConfig::m_nru(0.5),
        [
            0x0a5298b1fb8de431,
            0xa64c9a2ff2e8dbae,
            0x0a5298b1fb8de431,
            0x0a5298b1fb8de431,
        ],
    );
}

#[test]
fn nru_smear_profiler_is_pinned() {
    let mut cfg = CpaConfig::m_nru(0.75);
    cfg.nru_update = NruUpdateMode::Smear;
    check(
        "0.75N smear",
        cfg,
        [
            0x7d2de5de3bae276c,
            0xae87836c6eda12c7,
            0x7d2de5de3bae276c,
            0x7d2de5de3bae276c,
        ],
    );
}

#[test]
fn bt_profiler_is_pinned() {
    check(
        "BT",
        CpaConfig::m_bt(),
        [
            0xe09423dcfdbf83b1,
            0x6bec4277380026f5,
            0xe09423dcfdbf83b1,
            0xe09423dcfdbf83b1,
        ],
    );
}
