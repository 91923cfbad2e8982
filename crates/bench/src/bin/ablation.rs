//! Ablations beyond the paper's figures, exercising the reproduction's
//! design choices:
//!
//! 1. NRU eSDH scaling-factor sweep (finer than the paper's three values)
//!    and the point-update vs smear-update ambiguity of Section III-A;
//! 2. BT enforcement: the paper's aligned-subtree partitions (what its
//!    up/down vectors can express; `bt_strict_vectors`) vs arbitrary
//!    contiguous masks under the generalized mask-guided tree walk;
//! 3. MinMisses solver: exact DP vs greedy marginal-gain;
//! 4. ATD set-sampling ratio sweep;
//! 5. latency-aware pseudo-LRU (Section V-B: simpler replacement logic
//!    could shorten L2 access latency — the paper keeps latency constant
//!    as the worst case; here we quantify the headroom);
//! 6. the extensions: fairness objective and adaptive NRU scaling.

use cachesim::PolicyKind;
use cmpsim::metrics::mean;
use plru_bench::experiments::{engine, machine};
use plru_bench::table::ratio;
use plru_bench::{Options, TextTable};
use plru_core::{CpaConfig, NruUpdateMode, Objective, Scheme, Selector};
use plru_repro::engine::parallel_map;
use tracegen::workloads_with_threads;

fn mean_rel_throughput(opts: &Options, cpa: &CpaConfig, quick: bool) -> f64 {
    let base = engine(2, opts).scheme(Scheme::bare(cpa.policy)).build();
    let part = engine(2, opts)
        .scheme(Scheme::partitioned(cpa.clone()).unwrap())
        .build();
    let mut wls = workloads_with_threads(2);
    if quick {
        wls.truncate(6);
    }
    let rels: Vec<f64> = parallel_map(&wls, |wl| {
        cmpsim::throughput(&part.run(wl).ipcs()) / cmpsim::throughput(&base.run(wl).ipcs())
    });
    mean(&rels)
}

fn main() {
    let opts = Options::from_args();
    eprintln!(
        "ablations: {} instructions/thread, 2-core workloads",
        opts.insts
    );

    // 1. NRU scaling factor sweep + update-mode ambiguity.
    println!(
        "\n(1) NRU eSDH scaling factor and update mode (rel. throughput vs non-partitioned NRU)"
    );
    let mut t = TextTable::new(&["scale", "point update", "smear update"]);
    for scale in [1.0, 0.875, 0.75, 0.625, 0.5] {
        let mut point = CpaConfig::m_nru(scale);
        point.nru_update = NruUpdateMode::Scaled;
        let mut smear = CpaConfig::m_nru(scale);
        smear.nru_update = NruUpdateMode::Smear;
        t.row(vec![
            format!("{scale}"),
            ratio(mean_rel_throughput(&opts, &point, opts.quick)),
            ratio(mean_rel_throughput(&opts, &smear, opts.quick)),
        ]);
    }
    println!("{}", t.render());

    // 2. BT enforcement mode.
    println!("(2) BT enforcement: strict up/down vectors vs generalized masked walk");
    let mut strict = CpaConfig::m_bt();
    strict.bt_strict_vectors = true;
    let generalized = CpaConfig::m_bt();
    let mut t = TextTable::new(&["mode", "rel throughput"]);
    t.row(vec![
        "strict vectors (paper)".into(),
        ratio(mean_rel_throughput(&opts, &strict, opts.quick)),
    ]);
    t.row(vec![
        "generalized masks".into(),
        ratio(mean_rel_throughput(&opts, &generalized, opts.quick)),
    ]);
    println!("{}", t.render());

    // 3. MinMisses solver.
    println!("(3) MinMisses solver: exact DP vs greedy (M-L configuration)");
    let mut dp = CpaConfig::m_l();
    dp.selector = Selector::ExactDp;
    let mut greedy = CpaConfig::m_l();
    greedy.selector = Selector::Greedy;
    let mut t = TextTable::new(&["solver", "rel throughput"]);
    t.row(vec![
        "exact DP".into(),
        ratio(mean_rel_throughput(&opts, &dp, opts.quick)),
    ]);
    t.row(vec![
        "greedy".into(),
        ratio(mean_rel_throughput(&opts, &greedy, opts.quick)),
    ]);
    println!("{}", t.render());

    // 4. ATD sampling ratio.
    println!("(4) ATD set-sampling ratio (M-L configuration)");
    let mut t = TextTable::new(&["sample 1-in", "rel throughput"]);
    for ratio_n in [1usize, 8, 32, 128] {
        let mut c = CpaConfig::m_l();
        c.sample_ratio = ratio_n;
        t.row(vec![
            ratio_n.to_string(),
            ratio(mean_rel_throughput(&opts, &c, opts.quick)),
        ]);
    }
    println!("{}", t.render());

    // 5. Latency-aware pseudo-LRU (Section V-B headroom study): the
    // paper charges every policy the same 11-cycle L2 access; simpler
    // pseudo-LRU logic could plausibly shave cycles. Sweep the L2-hit
    // latency for non-partitioned NRU/BT against 11-cycle LRU.
    println!("(5) latency-aware pseudo-LRU: throughput vs 11-cycle LRU, non-partitioned 2-core");
    let mut wls = workloads_with_threads(2);
    if opts.quick {
        wls.truncate(6);
    }
    let throughput_at = |policy: PolicyKind, l1_miss: u64| -> f64 {
        let mut cfg = machine(2, &opts);
        cfg.latencies.l1_miss = l1_miss;
        let eng = plru_repro::SimEngine::builder()
            .machine(cfg)
            .scheme(Scheme::bare(policy))
            .build();
        let thrs: Vec<f64> = parallel_map(&wls, |wl| cmpsim::throughput(&eng.run(wl).ipcs()));
        mean(&thrs)
    };
    let lru_base = throughput_at(PolicyKind::Lru, 11);
    let mut t = TextTable::new(&["policy", "L2 hit 11cy", "10cy", "9cy", "8cy"]);
    for policy in [PolicyKind::Nru, PolicyKind::Bt] {
        let cells: Vec<String> = [11u64, 10, 9, 8]
            .iter()
            .map(|&lat| ratio(throughput_at(policy, lat) / lru_base))
            .collect();
        t.row(vec![
            format!("{policy:?}"),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
            cells[3].clone(),
        ]);
    }
    println!("{}", t.render());

    // 6. Extensions: fairness objective and adaptive NRU scaling.
    println!("(6) extensions (rel. throughput vs non-partitioned same policy)");
    let mut fair = CpaConfig::m_l();
    fair.objective = Objective::Fairness;
    let mut adaptive = CpaConfig::m_nru(0.75);
    adaptive.adaptive_nru_scale = true;
    let mut t = TextTable::new(&["extension", "rel throughput"]);
    t.row(vec![
        "M-L + fairness objective".into(),
        ratio(mean_rel_throughput(&opts, &fair, opts.quick)),
    ]);
    t.row(vec![
        "M-0.75N + adaptive scale".into(),
        ratio(mean_rel_throughput(&opts, &adaptive, opts.quick)),
    ]);
    t.row(vec![
        "M-0.75N (static, reference)".into(),
        ratio(mean_rel_throughput(
            &opts,
            &CpaConfig::m_nru(0.75),
            opts.quick,
        )),
    ]);
    println!("{}", t.render());
}
