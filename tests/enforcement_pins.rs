//! Bit-for-bit pins of partition enforcement as whole simulations see it.
//!
//! Each CPA enforcement path runs through `SimEngine` on four machines:
//! C-L (owner counters), M-L and M-0.75N (way masks), M-BT (the
//! generalized masked tree walk) and M-BT with `bt_strict_vectors`
//! (aligned-subtree partitions, the paper's Figure 5). The machines are
//! 2 cores / 512 KB / 16 ways, 4 cores / 1 MB / 16 ways, 2 cores /
//! 256 KB / 8 ways, and 20 cores / 512 KB / 16 ways, where more cores
//! than ways share the L2 and the controller clusters them. Each run
//! crosses about 30 repartition boundaries. An FNV-1a digest folds the
//! run's `SimResult` JSON and the controller's allocation history. On the
//! 20-core machine C-L cannot enforce, and its one-line error is pinned.
//!
//! No other suite runs strict BT through `System::run`: the goldens and
//! scenarios use the default generalized walk, and `profiler_pins`
//! digests no L2 outcome. The goldens were computed before the
//! enforcement paths were folded into one builder; a mismatch prints the
//! scheme's actual row.

use plru_repro::prelude::*;

/// Instructions per thread.
const INSTS: u64 = 20_000;

/// One pinned machine: core count, L2 size and ways, the workload, and a
/// repartition interval giving about 30 boundaries per run.
struct Machine {
    cores: usize,
    l2_bytes: u64,
    assoc: usize,
    workload: &'static str,
    interval: u64,
}

const MACHINES: [Machine; 4] = [
    Machine {
        cores: 2,
        l2_bytes: 512 * 1024,
        assoc: 16,
        workload: "2T_02",
        interval: 40_000,
    },
    Machine {
        cores: 4,
        l2_bytes: 1024 * 1024,
        assoc: 16,
        workload: "4T_01",
        interval: 40_000,
    },
    Machine {
        cores: 2,
        l2_bytes: 256 * 1024,
        assoc: 8,
        workload: "2T_04",
        interval: 40_000,
    },
    Machine {
        cores: 20,
        l2_bytes: 512 * 1024,
        assoc: 16,
        workload: "4T_01x20",
        interval: 50_000,
    },
];

impl Machine {
    fn config(&self) -> MachineConfig {
        let mut cfg = MachineConfig::paper_baseline(self.cores);
        cfg.l2 = CacheGeometry::new(self.l2_bytes, self.assoc, 128).unwrap();
        cfg.insts_target = INSTS;
        cfg
    }
}

struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Run one scheme on one machine; the digest of its result and history.
fn digest(cpa: &CpaConfig, m: &Machine) -> u64 {
    let scheme = Scheme::partitioned(cpa.clone())
        .unwrap()
        .with_interval_cycles(Some(m.interval));
    let engine = SimEngine::builder()
        .machine(m.config())
        .scheme(scheme)
        .build();
    let mut system = engine.system(&workload(m.workload).unwrap());
    let result = system.run();
    let history = system.controller().unwrap().history();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(serde_json::to_string(&result).unwrap().as_bytes());
    for alloc in history {
        for &w in alloc {
            h.bytes(&(w as u64).to_le_bytes());
        }
        h.bytes(&[0xff]);
    }
    h.0
}

/// Check one scheme's row: one digest per machine, or for a machine the
/// scheme cannot enforce, the controller's one-line error.
fn check(cpa: CpaConfig, expected: [Result<u64, &str>; 4]) {
    let actual: Vec<Result<u64, String>> = MACHINES
        .iter()
        .map(|m| {
            let cfg = m.config();
            match CpaController::try_new(cpa.clone(), cfg.l2, cfg.num_cores) {
                Ok(_) => Ok(digest(&cpa, m)),
                Err(e) => Err(e.to_string()),
            }
        })
        .collect();
    let expected: Vec<Result<u64, String>> =
        expected.iter().map(|r| r.map_err(str::to_string)).collect();
    assert_eq!(
        actual,
        expected,
        "{}{}: enforcement digests changed; got [{}]",
        cpa.acronym(),
        if cpa.bt_strict_vectors { " strict" } else { "" },
        actual
            .iter()
            .map(|r| match r {
                Ok(d) => format!("Ok({d:#018x})"),
                Err(e) => format!("Err({e:?})"),
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
}

#[test]
fn owner_counters_are_pinned() {
    check(
        CpaConfig::c_l(),
        [
            Ok(0xdf3fcd37ed82c85a),
            Ok(0x4d6f073850f00ca6),
            Ok(0x4ff27e2b8505f2af),
            Err(
                "bad partition: owner-counter enforcement needs one quota way per core: \
                 20 cores exceed 16 ways (use an M-* scheme)",
            ),
        ],
    );
}

#[test]
fn lru_masks_are_pinned() {
    check(
        CpaConfig::m_l(),
        [
            Ok(0xb6508daabc815966),
            Ok(0xa57dd60e06f19f77),
            Ok(0x0c42b49f6ff9bfe0),
            Ok(0xa1b8c663216223f4),
        ],
    );
}

#[test]
fn nru_masks_are_pinned() {
    check(
        CpaConfig::m_nru(0.75),
        [
            Ok(0x0fd9ba91399b5144),
            Ok(0xbe9f4b475f5dfbb7),
            Ok(0x7ce1d6e50339f496),
            Ok(0xb2b1f016f8ad8b33),
        ],
    );
}

#[test]
fn bt_masked_walk_is_pinned() {
    check(
        CpaConfig::m_bt(),
        [
            Ok(0x3d0c337a76760e3a),
            Ok(0xcd89ec7dcc839f9d),
            Ok(0xc1159a19bde31d6d),
            Ok(0x9a03e8ccc8f81386),
        ],
    );
}

#[test]
fn bt_strict_subtrees_are_pinned() {
    let mut cpa = CpaConfig::m_bt();
    cpa.bt_strict_vectors = true;
    check(
        cpa,
        [
            Ok(0x02158ea6728b5d69),
            Ok(0x739ebabd4037247c),
            Ok(0x2e7697328b73a1d8),
            Ok(0x63f69d05deceb8e4),
        ],
    );
}
