//! The engine layer must be a pure refactor: a `SimEngine` run is
//! bit-identical to the hand-wired `System::from_workload_scheme`
//! pipeline it replaced, and the fleet runner keeps results in input
//! order. This file holds the sanctioned direct `System` call sites
//! outside `cmpsim` itself.

use plru_repro::prelude::*;

#[test]
fn engine_matches_hand_wired_system_for_2t05_under_m075n() {
    let mut cfg = MachineConfig::paper_baseline(2);
    cfg.insts_target = 80_000;
    let wl = workload("2T_05").unwrap();
    let cpa = CpaConfig::m_nru(0.75);

    // The hand-wired reference pipeline, exactly as every call site was
    // written before the engine existed (modulo the Scheme currency).
    let scheme = Scheme::partitioned(cpa).unwrap();
    let mut sys = System::from_workload_scheme(&cfg, &wl, &scheme, 0);
    let reference = sys.run();

    let engine = SimEngine::builder().machine(cfg).scheme(scheme).build();
    let result = engine.run(&wl);

    assert_eq!(result.ipcs(), reference.ipcs(), "IPC per core must match");
    for (core, (a, b)) in result.cores.iter().zip(&reference.cores).enumerate() {
        assert_eq!(a.l2_accesses, b.l2_accesses, "core {core} L2 accesses");
        assert_eq!(a.l2_misses, b.l2_misses, "core {core} L2 misses");
        assert_eq!(a.cycles, b.cycles, "core {core} freeze cycle");
    }
    assert_eq!(result.total_cycles, reference.total_cycles);
    assert_eq!(result.intervals, reference.intervals);
    assert_eq!(result.atd_observed, reference.atd_observed);
    assert_eq!(result.final_allocation, reference.final_allocation);
}

#[test]
fn engine_matches_hand_wired_unpartitioned_run() {
    let mut cfg = MachineConfig::paper_baseline(2);
    cfg.insts_target = 60_000;
    let wl = workload("2T_05").unwrap();

    let reference =
        System::from_workload_scheme(&cfg, &wl, &Scheme::bare(PolicyKind::Nru), 3).run();
    let result = SimEngine::builder()
        .machine(cfg)
        .scheme(Scheme::bare(PolicyKind::Nru))
        .seed_salt(3)
        .build()
        .run(&wl);

    assert_eq!(result.ipcs(), reference.ipcs());
    assert_eq!(result.total_cycles, reference.total_cycles);
}

#[test]
fn parallel_map_preserves_input_order() {
    // Items with wildly uneven costs still land at their input index.
    let items: Vec<u64> = (0..200).collect();
    let out = parallel_map(&items, |&x| {
        let mut acc = x;
        for i in 0..(x % 7) * 10_000 {
            acc = acc.wrapping_add(i);
        }
        std::hint::black_box(acc);
        x * 3
    });
    assert_eq!(out.len(), items.len());
    for (i, &r) in out.iter().enumerate() {
        assert_eq!(r, i as u64 * 3, "slot {i} out of order");
    }
}

#[test]
fn engine_fleet_matches_sequential_runs() {
    let engine = SimEngine::builder().cores(2).insts(20_000).build();
    let wls: Vec<Workload> = ["2T_01", "2T_02", "2T_03", "2T_04"]
        .iter()
        .map(|n| workload(n).unwrap())
        .collect();
    let fleet = engine.run_many(&wls);
    let sequential: Vec<SimResult> = wls.iter().map(|wl| engine.run(wl)).collect();
    for ((wl, f), s) in wls.iter().zip(&fleet).zip(&sequential) {
        assert_eq!(f.ipcs(), s.ipcs(), "{}", wl.name);
        assert_eq!(f.total_cycles, s.total_cycles, "{}", wl.name);
    }
}
