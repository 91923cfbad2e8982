//! Experiment-fleet helpers: a scoped-thread parallel map and a shared
//! cache of isolation IPCs.
//!
//! Every figure needs dozens-to-hundreds of independent simulations; the
//! runner fans them out across hardware threads with `std::thread::scope`
//! (no `'static` bound on the work items) and memoises the expensive
//! isolation runs every relative metric divides by.

use crate::config::MachineConfig;
use crate::system::System;
use cachesim::PolicyKind;
use plru_core::Scheme;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Parallel map over `items`, preserving order. Work is distributed by an
/// atomic cursor so uneven item costs (8-thread runs take 4x the work of
/// 2-thread runs) still balance. A panic in `f` panics the caller once
/// every worker has been joined.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(items.len().max(1));
    let cursor = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<R>>> = (0..items.len()).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                *results[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every item processed")
        })
        .collect()
}

/// Key of one isolation run: the benchmark, the L2 policy, the seed salt
/// and the whole solo machine (geometries, latencies, instruction target,
/// seed) — every input that changes the resulting IPC. The full config
/// matters because one `IsolationCache` may now be shared across engines
/// built from different machines, and the salt matters because seed sweeps
/// perturb the generated trace: without it a salted engine would divide by
/// another salt's memoised isolation IPC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IsoKey {
    benchmark: String,
    policy: PolicyKind,
    seed_salt: u64,
    solo_cfg: MachineConfig,
}

/// Hit/miss counters of an [`IsolationCache`]: how often a requested
/// isolation IPC was already memoised (`hits`) versus simulated from
/// scratch (`misses`). `entries` is the current memo size. The sweep
/// service surfaces these in its status response so a warm daemon can
/// *prove* it skipped the solo runs of a repeated job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoStats {
    /// Memoised (benchmark, policy, salt, solo machine) points.
    pub entries: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that had to simulate a solo run.
    pub misses: u64,
}

/// Thread-safe memo of isolation IPCs (`IPC_isolation_i` in the metric
/// definitions): each benchmark running alone with the full L2 under a
/// given replacement policy.
///
/// The memo key is every input that changes the solo run's IPC — the
/// benchmark, the L2 replacement policy, the trace seed salt, and the
/// whole single-core machine derived from the caller's config
/// (geometries, latencies, instruction target, base seed). The caller's
/// *core count* is deliberately not part of the key: the solo machine is
/// always single-core, so engines of different widths share entries.
///
/// Because the key is complete, a memoised value may be reused across
/// *any* consumer that agrees on it — other engines, other sweeps, and
/// (in the sweep service) other jobs for the whole daemon lifetime. The
/// reuse guarantee is exact, not approximate: simulation is
/// deterministic, so the memoised IPC is bit-identical to what a fresh
/// solo run would produce. [`MemoStats`] counts how often each path was
/// taken:
///
/// ```
/// use cmpsim::{IsolationCache, MachineConfig};
/// use cachesim::PolicyKind;
///
/// let mut cfg = MachineConfig::paper_baseline(2);
/// cfg.insts_target = 20_000; // keep the doctest quick
/// let memo = IsolationCache::new();
/// let first = memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
/// let again = memo.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
/// assert_eq!(first, again, "memoised value is the exact solo IPC");
/// let stats = memo.stats();
/// assert_eq!((stats.misses, stats.hits, stats.entries), (1, 1, 1));
/// ```
#[derive(Debug, Default)]
pub struct IsolationCache {
    map: Mutex<HashMap<IsoKey, f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl IsolationCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memo map. A panicking holder cannot leave it half-updated (each
    /// critical section is one `get`, `insert` or `len`), so a poisoned
    /// lock is recovered rather than propagated.
    fn memo(&self) -> MutexGuard<'_, HashMap<IsoKey, f64>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// IPC of `benchmark` running alone on a single-core machine derived
    /// from `cfg` (same caches, same latencies, full L2, no partitioning).
    ///
    /// `seed_salt` must match the salt of the shared run the caller
    /// divides by: it perturbs the generated trace, so the solo run is
    /// simulated — and memoised — under the same salt.
    pub fn isolation_ipc(
        &self,
        cfg: &MachineConfig,
        benchmark: &str,
        policy: PolicyKind,
        seed_salt: u64,
    ) -> f64 {
        let mut solo = cfg.clone();
        solo.num_cores = 1;
        let key = IsoKey {
            benchmark: benchmark.to_string(),
            policy,
            seed_salt,
            solo_cfg: solo,
        };
        if let Some(&ipc) = self.memo().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return ipc;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let profile = tracegen::benchmark(benchmark)
            .unwrap_or_else(|| panic!("unknown benchmark {benchmark}"));
        let scheme = Scheme::bare(policy);
        let mut sys = System::from_profiles_scheme(&key.solo_cfg, &[profile], &scheme, seed_salt);
        let ipc = sys.run().ipc(0);
        self.memo().insert(key, ipc);
        ipc
    }

    /// Isolation IPCs for every benchmark of a workload, in thread order.
    pub fn isolation_ipcs(
        &self,
        cfg: &MachineConfig,
        benchmarks: &[String],
        policy: PolicyKind,
        seed_salt: u64,
    ) -> Vec<f64> {
        benchmarks
            .iter()
            .map(|b| self.isolation_ipc(cfg, b, policy, seed_salt))
            .collect()
    }

    /// Number of memoised entries.
    pub fn len(&self) -> usize {
        self.memo().len()
    }

    /// Snapshot of the memo's hit/miss counters (see [`MemoStats`]).
    ///
    /// Counters are monotonic over the cache's lifetime; consumers that
    /// want a per-interval view (the sweep service's per-job deltas)
    /// subtract two snapshots. Two racing lookups of one uncached key may
    /// both count as misses — the counters describe work performed, not
    /// distinct keys.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            entries: self.len() as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, |&x| x * x);
        for (i, &r) in out.iter().enumerate() {
            assert_eq!(r, (i * i) as u64);
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let items: Vec<u64> = vec![];
        let out: Vec<u64> = parallel_map(&items, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic]
    fn parallel_map_propagates_a_worker_panic() {
        let items: Vec<u64> = (0..16).collect();
        parallel_map(&items, |&x| {
            assert_ne!(x, 7, "item {x} failed");
            x
        });
    }

    #[test]
    fn parallel_map_with_uneven_costs() {
        let items: Vec<u64> = (0..32).collect();
        let out = parallel_map(&items, |&x| {
            // Simulate uneven work.
            let mut acc = 0u64;
            for i in 0..(x * 1000) {
                acc = acc.wrapping_add(i);
            }
            acc.wrapping_add(x)
        });
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn isolation_cache_memoises() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        let a = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 1);
        let b = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        assert_eq!(a, b);
        assert_eq!(cache.len(), 1, "second call was memoised");
    }

    #[test]
    fn memo_stats_count_hits_and_misses() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 20_000;
        let cache = IsolationCache::new();
        assert_eq!(cache.stats(), MemoStats::default());
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        cache.isolation_ipc(&cfg, "eon", PolicyKind::Lru, 0);
        let s = cache.stats();
        assert_eq!((s.entries, s.hits, s.misses), (2, 1, 2));
    }

    #[test]
    fn isolation_distinguishes_policies_and_sizes() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Nru, 0);
        let small = cfg.with_l2_size(512 * 1024).unwrap();
        cache.isolation_ipc(&small, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn isolation_distinguishes_full_machines() {
        // A shared cache may see engines built from different machines:
        // anything that changes the solo run must miss the memo.
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);

        let mut reseeded = cfg.clone();
        reseeded.seed ^= 0xDEAD_BEEF;
        cache.isolation_ipc(&reseeded, "gzip", PolicyKind::Lru, 0);

        let mut slower = cfg.clone();
        slower.latencies.l2_miss += 100;
        cache.isolation_ipc(&slower, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 3, "seed and latency changes must not collide");

        // The caller's core count is irrelevant: the solo machine is
        // always single-core, so this must hit.
        let mut multi = cfg.clone();
        multi.num_cores = 4;
        cache.isolation_ipc(&multi, "gzip", PolicyKind::Lru, 0);
        assert_eq!(cache.len(), 3, "core count must not fragment the memo");
    }

    #[test]
    fn isolation_distinguishes_seed_salts() {
        // Regression for the seed-sweep aliasing bug: the memo used to be
        // keyed without the salt, so a sweep over seed salts read one
        // salt's isolation IPC for every other salt.
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 30_000;
        let cache = IsolationCache::new();
        let base = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0);
        let salted = cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 1);
        assert_eq!(cache.len(), 2, "different salts must not alias");
        assert_ne!(
            base, salted,
            "salting perturbs the trace, so the solo IPC moves too"
        );
        // Same salt still hits the memo.
        cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn isolation_ipcs_vector_matches_singles() {
        let mut cfg = MachineConfig::paper_baseline(1);
        cfg.insts_target = 20_000;
        let cache = IsolationCache::new();
        let names = vec!["gzip".to_string(), "eon".to_string()];
        let v = cache.isolation_ipcs(&cfg, &names, PolicyKind::Lru, 0);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], cache.isolation_ipc(&cfg, "gzip", PolicyKind::Lru, 0));
    }
}
