//! A fixed reference computation that gauges the host's speed.
//!
//! On shared machines the speed of the whole host drifts by tens of
//! percent over minutes, on every CPU at once: on the machine the
//! benchmark was built on, ten `sweepd_fig8` runs in a row rose from 8.6
//! to 11.9 Minst/s and their set-up fell from 2.7 to 1.6 ms, with no
//! change to the program. No statistic inside one run removes that, so
//! the timed runs also time this kernel, on the same CPUs and between
//! the same repetitions, and scale their host times to the kernel's
//! speed on the defining machine ([`Gauge::scale`]).
//!
//! A call should last about as long as one of the workload's steps:
//! a long step meets the host's fast moments less often than a short
//! one, so it slows more in a slow stretch. `trace_rr`'s replays
//! (55-80 ms) tracked a 60-ms call far better than a 10-ms one.
//!
//! The kernel belongs to the benchmark and never calls the simulator, so
//! a change to the simulator moves the scaled metrics exactly as it
//! moves the raw ones. It does the simulator's kind of work: a two-level
//! set-associative LRU cache model fed by a mixed sequential and random
//! address stream, over tag arrays about the size of the simulated L2's.

use crate::stats::fastest;
use std::process::Stdio;
use std::time::Instant;

const L1_SETS: usize = 64;
const L1_WAYS: usize = 8;
const L2_SETS: usize = 2048;
const L2_WAYS: usize = 16;
/// Kernel accesses per host second on the machine the benchmark was
/// defined on, in a fast state: the speed every scaled metric is
/// expressed at.
const NOMINAL_ACCESSES_PER_S: f64 = 8.0e6;

/// One set-associative LRU level: tags and ages, way-major per set.
struct Level {
    ways: usize,
    tags: Vec<u64>,
    ages: Vec<u8>,
}

impl Level {
    fn new(sets: usize, ways: usize) -> Level {
        Level {
            ways,
            tags: vec![u64::MAX; sets * ways],
            ages: (0..sets * ways).map(|i| (i % ways) as u8).collect(),
        }
    }

    /// Look `line` up, filling it over the oldest way on a miss; true on
    /// a hit.
    fn access(&mut self, line: u64) -> bool {
        let sets = self.tags.len() / self.ways;
        let base = (line as usize % sets) * self.ways;
        let tags = &mut self.tags[base..base + self.ways];
        let ages = &mut self.ages[base..base + self.ways];
        let (way, hit) = match tags.iter().position(|&t| t == line) {
            Some(w) => (w, true),
            None => {
                let w = (0..ages.len()).max_by_key(|&w| ages[w]).unwrap_or(0);
                tags[w] = line;
                (w, false)
            }
        };
        let age = ages[way];
        for a in ages.iter_mut() {
            if *a < age {
                *a += 1;
            }
        }
        ages[way] = 0;
        hit
    }
}

/// The reference computation: L2 misses of the first `accesses` of a
/// fixed address stream.
pub fn kernel(accesses: u32) -> u64 {
    let mut l1 = Level::new(L1_SETS, L1_WAYS);
    let mut l2 = Level::new(L2_SETS, L2_WAYS);
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = 0u64;
    let mut misses = 0;
    for _ in 0..accesses {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Three in four accesses walk on; one jumps within 4 MB.
        next = if x & 3 == 0 {
            (x >> 8) % (1 << 16)
        } else {
            next + 1
        };
        if !l1.access(next) && !l2.access(next) {
            misses += 1;
        }
    }
    misses
}

/// Host seconds to start this program and wait for it to exit (without
/// arguments it exits at once): the host's speed at starting processes.
/// A set-up that starts a daemon follows that speed more closely than
/// the kernel's: over six `sweepd_fig8` runs its set-up moved 2.9 times
/// as much as the kernel's time (in log terms) and 1.6 times as much as
/// this one's.
pub fn spawn_s() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let t = Instant::now();
    std::process::Command::new(exe)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .map_err(|e| format!("starting this program again: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}

/// Median [`spawn_s`] on the machine the benchmark was defined on.
pub const NOMINAL_SPAWN_S: f64 = 0.0015;

/// Kernel timings of one run.
#[derive(Debug)]
pub struct Gauge {
    accesses: u32,
    secs: Vec<f64>,
}

impl Gauge {
    /// A gauge whose calls make `accesses` accesses (8,000 per ms on the
    /// defining machine).
    pub fn new(accesses: u32) -> Gauge {
        Gauge {
            accesses,
            secs: Vec::new(),
        }
    }

    /// Time `n` kernel calls on the calling thread.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t = Instant::now();
            std::hint::black_box(kernel(self.accesses));
            self.secs.push(t.elapsed().as_secs_f64());
        }
    }

    /// The host's slowness against the defining machine: the run's
    /// fastest call over that call's nominal time (1 there, above 1 on
    /// a slower host). Errs without samples.
    pub fn slowness(&self) -> Result<f64, String> {
        if self.secs.is_empty() {
            return Err("no host-speed samples".into());
        }
        Ok(fastest(&self.secs) * NOMINAL_ACCESSES_PER_S / f64::from(self.accesses))
    }

    /// Scale host seconds measured in this run to the defining machine's
    /// speed.
    pub fn scale(&self, host_secs: f64) -> Result<f64, String> {
        Ok(host_secs / self.slowness()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_misses_some() {
        let m = kernel(80_000);
        assert_eq!(m, kernel(80_000));
        assert!(m > 0 && m < 80_000);
        assert!(kernel(160_000) > m);
    }

    #[test]
    fn lru_level_evicts_the_oldest_way() {
        let mut l = Level::new(1, 2);
        assert!(!l.access(1));
        assert!(!l.access(2));
        assert!(l.access(1));
        // 2 is now the older way.
        assert!(!l.access(3));
        assert!(l.access(1));
        assert!(!l.access(2));
    }

    #[test]
    fn scaling_divides_by_slowness() {
        let mut g = Gauge::new(8_000);
        assert!(g.slowness().is_err());
        // 8,000 accesses take 1 ms at the nominal pace.
        g.secs = vec![0.003, 0.002, 0.004];
        assert!((g.slowness().unwrap() - 2.0).abs() < 1e-12);
        assert!((g.scale(10.0).unwrap() - 5.0).abs() < 1e-12);
    }
}
