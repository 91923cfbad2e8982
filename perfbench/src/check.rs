//! Operation accounting and result checks.
//!
//! Every case, run, record and replay is one operation. It fails if it
//! errors, if its simulated result differs from the reference the
//! workload compares it with, or, at [`DEFAULT_SEED`], if its digest
//! differs from the one pinned in `pinned.txt`.

use plru_repro::cmpsim::SimResult;

/// The seed whose result digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// `<workload> <operation> <digest>` lines for [`DEFAULT_SEED`].
const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a digest of the checked part of a result: every core's IPC bits,
/// freeze cycle and L2 misses, the total cycles and the final allocation.
pub fn digest(r: &SimResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(r.cores.len() as u64);
    for c in &r.cores {
        eat(c.ipc.to_bits());
        eat(c.cycles);
        eat(c.l2_misses);
    }
    eat(r.total_cycles);
    eat(r.final_allocation.len() as u64);
    for &w in &r.final_allocation {
        eat(w as u64);
    }
    h
}

/// The pinned digest of one operation, if `pinned` lists it.
fn pinned_in(pinned: &str, workload: &str, op: &str) -> Option<u64> {
    pinned
        .lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            [w, o, d] if w == workload && o == op => u64::from_str_radix(d, 16).ok(),
            _ => None,
        })
}

/// Attempted and failed operations of one benchmark run.
#[derive(Debug)]
pub struct Ops {
    workload: &'static str,
    seed: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or whose result was wrong.
    pub failed: u64,
}

impl Ops {
    /// Fresh accounting for one run of `workload` at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Ops {
        Ops {
            workload,
            seed,
            attempted: 0,
            failed: 0,
        }
    }

    /// Count an operation whose outcome is already decided.
    pub fn count(&mut self, op: &str, ok: bool, why: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: {} {op} FAILED: {why}", self.workload);
        }
        ok
    }

    /// Count an operation that produced `got`: it must equal `reference`
    /// (when given) and, at the default seed, match its pinned digest.
    pub fn check(&mut self, op: &str, got: &SimResult, reference: Option<&SimResult>) -> bool {
        let d = digest(got);
        eprintln!("perfbench: digest {} {op} {d:016x}", self.workload);
        if let Some(r) = reference {
            if got != r {
                return self.count(op, false, "result differs from its reference");
            }
        }
        if self.seed == DEFAULT_SEED {
            match pinned_in(PINNED, self.workload, op) {
                Some(p) if p == d => {}
                Some(p) => {
                    let why = format!("digest {d:016x}, pinned {p:016x}");
                    return self.count(op, false, &why);
                }
                None => return self.count(op, false, "no pinned digest"),
            }
        }
        self.count(op, true, "")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plru_repro::prelude::*;

    fn tiny_result(salt: u64) -> SimResult {
        SimEngine::builder()
            .insts(5_000)
            .seed_salt(salt)
            .build()
            .run_named("2T_01")
            .unwrap()
    }

    #[test]
    fn digest_separates_results_and_repeats_exactly() {
        let a = tiny_result(0);
        assert_eq!(digest(&a), digest(&tiny_result(0)));
        assert_ne!(digest(&a), digest(&tiny_result(1)));
    }

    #[test]
    fn pins_are_looked_up_by_workload_and_operation() {
        let pins = "# comment\nw1 op/a 00000000000000ff\nw2 op/a 0000000000000001\n";
        assert_eq!(pinned_in(pins, "w1", "op/a"), Some(255));
        assert_eq!(pinned_in(pins, "w2", "op/a"), Some(1));
        assert_eq!(pinned_in(pins, "w1", "op/b"), None);
    }

    #[test]
    fn mismatch_and_missing_pin_fail_the_operation() {
        let a = tiny_result(0);
        let b = tiny_result(1);
        let mut ops = Ops::new("unit", 7);
        assert!(ops.check("same", &a, Some(&a)));
        assert!(!ops.check("differs", &a, Some(&b)));
        let mut pinned = Ops::new("unit", DEFAULT_SEED);
        assert!(!pinned.check("unpinned", &a, None));
        assert_eq!((ops.attempted, ops.failed), (2, 1));
        assert_eq!((pinned.attempted, pinned.failed), (1, 1));
    }
}
