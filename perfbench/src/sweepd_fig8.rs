//! `sweepd_fig8`: a fresh `sweepd --threads 1` serves one closed-loop
//! client two Figure 8-shaped jobs over `2T_01`-`2T_04` x L2 512K/1M/2M
//! at 100k instructions per thread. Job 1 runs the bare schemes on a
//! cold isolation memo; job 2 runs the CPA schemes on the memo job 1
//! warmed. This is the only workload that crosses `scenario` and
//! `service`.

use crate::affinity;
use crate::check::Ops;
use crate::daemon::{self, Daemon, JobRun};
use crate::host::{self, Gauge};
use crate::layers::{self, Input, Layers, Sim};
use crate::spans::Spans;
use crate::stats::{cases_work, median, minst_per_s, Steps};
use crate::{machine_seed, peak_rss_mb, Ctx, Report};
use plru_repro::engine::IsolationCache;
use plru_repro::scenario::{ScenarioSpec, SweepReport, SweepRunner};
use std::sync::Arc;
use std::time::Instant;

/// Instructions per thread of every case. A case at this target takes
/// ≈20 ms, so a run holds many iterations: each case's fastest
/// repetition is only steady over many of them (see `stats::Steps`).
const INSTS: u64 = 100_000;
/// Host seconds of one timed iteration when the benchmark was defined.
const ITER_S: f64 = 2.0;
/// Daemons per iteration that only start and accept the first job (and
/// are then killed), for more set-up samples.
const SETUP_PROBES: usize = 3;
/// Host-speed kernel calls before and after each iteration, and the
/// accesses of each (≈10 ms; a case takes 20-35 ms).
const GAUGE_CALLS: usize = 3;
const GAUGE_ACCESSES: u32 = 80_000;
/// Repetitions behind the traced run's `expand_s` and `report_s`.
const SCENARIO_REPS: usize = 25;

const JOBS: [(&str, &str); 2] = [
    ("fig8-bare", r#"["L", "N", "BT"]"#),
    ("fig8-cpa", r#"["M-L", "M-0.75N", "M-BT"]"#),
];

/// Write the two job specs for `seed` into the work directory and read
/// them back: the daemon receives only these generated files.
fn specs(ctx: &Ctx) -> Result<Vec<ScenarioSpec>, String> {
    JOBS.iter()
        .map(|(name, schemes)| {
            let text = format!(
                r#"{{
  "name": "{name}",
  "insts": {INSTS},
  "seed": {},
  "workloads": ["2T_01", "2T_02", "2T_03", "2T_04"],
  "schemes": {schemes},
  "l2_sizes": [524288, 1048576, 2097152]
}}
"#,
                machine_seed(ctx.seed)
            );
            let path = ctx.work.join(format!("{name}.json"));
            std::fs::write(&path, text).map_err(|e| e.to_string())?;
            let back = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            ScenarioSpec::from_json(&back).map_err(|e| e.to_string())
        })
        .collect()
}

/// Local `SweepRunner` reports of both jobs on one worker, sharing one
/// memo as the daemon does, with each job's wall time.
fn local(specs: &[ScenarioSpec]) -> Result<Vec<(f64, SweepReport)>, String> {
    let runner = SweepRunner::with_threads(1).isolation(Arc::new(IsolationCache::new()));
    specs
        .iter()
        .map(|s| {
            let t = Instant::now();
            let r = runner.run(s).map_err(|e| e.to_string())?;
            Ok((t.elapsed().as_secs_f64(), r))
        })
        .collect()
}

/// Count every case of a remote report as one operation against the
/// local report of the same spec.
fn check_job(ops: &mut Ops, job: usize, remote: &SweepReport, local: &SweepReport) {
    if remote.spec != local.spec || remote.cases.len() != local.cases.len() {
        ops.count(&format!("job{job}"), false, "remote report shape differs");
        return;
    }
    for (r, l) in remote.cases.iter().zip(&local.cases) {
        let op = format!("job{job}/{}", r.case.index);
        if r == l {
            ops.check(&op, &r.result, None);
        } else {
            ops.count(
                &op,
                false,
                "remote case report differs from the local SweepRunner's",
            );
        }
    }
}

/// Run both jobs on a fresh daemon, one after the other; returns the
/// still-running daemon and the two job runs.
fn serve(d: Daemon, specs: &[ScenarioSpec]) -> Result<(Daemon, Vec<JobRun>), String> {
    let mut jobs = Vec::new();
    for s in specs {
        jobs.push(daemon::submit(&d.socket, s, true)?);
    }
    Ok((d, jobs))
}

/// The timed run.
pub fn timed(ctx: &Ctx) -> Result<Report, String> {
    let specs = specs(ctx)?;
    let mut work = 0;
    for s in &specs {
        work += cases_work(&s.expand().map_err(|e| e.to_string())?);
    }
    let mut setup = Vec::new();
    let mut rss = Vec::new();
    let mut reports = Vec::new();
    // One worker runs the cases one after another, so a job's time is the
    // sum of its cases' times (each from the previous `case` frame) and
    // of its tail after the last case.
    let mut steps = Steps::default();
    let mut gauge = Gauge::new(GAUGE_ACCESSES);
    let mut spawn = Vec::new();
    for i in 0..ctx.reps(ITER_S) {
        // The daemon, not this client, runs on the iteration's CPU; the
        // client gauges that CPU while the daemon is not running.
        affinity::on_cpu(i, || gauge.sample(GAUGE_CALLS));
        // One process start next to each set-up sample, on its CPU.
        spawn.push(affinity::on_cpu(i, host::spawn_s)?);
        let d = affinity::on_cpu(i, || Daemon::start(&ctx.bin("sweepd"), &ctx.work))?;
        let (d, jobs) = serve(d, &specs)?;
        rss.push(peak_rss_mb(Some(d.pid())).ok_or("no peak RSS for sweepd")?);
        setup.push(d.ready_s + jobs[0].submit_s);
        d.shutdown()?;
        affinity::on_cpu(i, || gauge.sample(GAUGE_CALLS));
        let mut secs = Vec::new();
        for job in &jobs {
            let mut case_s = vec![0.0; job.cases.len() + 1];
            let mut prev = job.submitted_at;
            for &(index, at) in &job.cases {
                case_s[index] = (at - prev).as_secs_f64();
                prev = at;
            }
            case_s[job.cases.len()] = (job.done_at - prev).as_secs_f64();
            secs.extend(case_s);
        }
        steps.push(secs);
        reports.push(jobs);
        for _ in 0..SETUP_PROBES {
            // Dropping the daemon kills it: its job is not needed.
            spawn.push(host::spawn_s()?);
            let d = Daemon::start(&ctx.bin("sweepd"), &ctx.work)?;
            let job = daemon::submit(&d.socket, &specs[0], false)?;
            setup.push(d.ready_s + job.submit_s);
        }
    }

    let mut ops = Ops::new("sweepd_fig8", ctx.seed);
    let reference = local(&specs)?;
    for jobs in &reports {
        for (i, (job, (_, want))) in jobs.iter().zip(&reference).enumerate() {
            let got = job.report.as_ref().expect("watched jobs carry a report");
            check_job(&mut ops, i + 1, got, want);
        }
    }
    let mut report = Report::new(ops);
    let secs = steps.secs()?;
    report.value(
        "minst_per_s",
        minst_per_s(work, gauge.scale(secs)?),
        "Minst/s",
    );
    // Set-up is mostly starting a process: scaled by the host's speed at
    // that, each sample and the gauge by their medians.
    let spawn_slowness = median(&spawn) / host::NOMINAL_SPAWN_S;
    let scaled: Vec<f64> = setup.iter().map(|s| s / spawn_slowness).collect();
    report.metric("setup_s", &scaled, "s");
    report.metric("peak_rss_mb", &rss, "MB");
    report.note("host_slowness", gauge.slowness()?, "ratio");
    report.note("spawn_slowness", spawn_slowness, "ratio");
    report.note("minst_per_s_unscaled", minst_per_s(work, secs), "Minst/s");
    report.note("setup_s_unscaled", median(&setup), "s");
    Ok(report)
}

/// The traced run.
pub fn traced(ctx: &Ctx) -> Result<Report, String> {
    let specs = specs(ctx)?;
    let mut ops = Ops::new("sweepd_fig8", ctx.seed);
    let mut spans = Spans::new();
    let mut layers = Layers::default();

    // The jobs as users run them, spanned from the client.
    let (d, jobs) = serve(Daemon::start(&ctx.bin("sweepd"), &ctx.work)?, &specs)?;
    let status = d.status()?;
    d.shutdown()?;
    let mut frames = 0;
    let mut frame_bytes = 0;
    for j in &jobs {
        frames += j.frames;
        frame_bytes += j.bytes;
        let job = spans.add("job", None, Some(j.job), None, j.submitted_at, j.done_at);
        let mut start = j.submitted_at;
        for (index, at) in &j.cases {
            // One worker runs the cases one after another.
            spans.add(
                "case",
                Some(job),
                Some(j.job),
                Some(index.to_string()),
                start,
                *at,
            );
            start = *at;
        }
    }
    let journal_bytes: u64 = std::fs::read_dir(ctx.work.join("journals"))
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();

    // The same jobs through a local SweepRunner at the same memo state.
    let reference = local(&specs)?;
    let mut overhead_s = 0.0;
    for (i, (j, (wall, want))) in jobs.iter().zip(&reference).enumerate() {
        overhead_s += j.submit_s + j.run_s() - wall;
        check_job(&mut ops, i + 1, j.report.as_ref().expect("watched"), want);
    }

    // Scenario layer: spec expansion and report rendering.
    let mut expand_s = 0.0;
    let mut report_s = 0.0;
    let mut cases = Vec::new();
    for (spec, (_, report)) in specs.iter().zip(&reference) {
        let id = spans.open("expand", None, Some(spec.name.clone()));
        let mut t = Vec::new();
        for _ in 0..SCENARIO_REPS {
            let s = Instant::now();
            let c = spec.expand().map_err(|e| e.to_string())?;
            t.push(s.elapsed().as_secs_f64());
            std::hint::black_box(&c);
        }
        spans.close(id);
        expand_s += median(&t);
        cases.extend(spec.expand().map_err(|e| e.to_string())?);
        let mut t = Vec::new();
        for _ in 0..SCENARIO_REPS {
            let s = Instant::now();
            std::hint::black_box((report.render_table(), report.to_json()));
            t.push(s.elapsed().as_secs_f64());
        }
        report_s += median(&t);
    }

    // Runner layer: every isolation run both jobs need, on a cold memo.
    let memo = IsolationCache::new();
    let mut isolation_busy_s = 0.0;
    for c in &cases {
        for b in &c.benchmarks {
            let t = Instant::now();
            let misses = memo.stats().misses;
            memo.isolation_ipc(&c.machine(), b, c.scheme.policy(), c.seed_salt);
            if memo.stats().misses > misses {
                let id = spans.add("isolation", None, None, Some(b.clone()), t, Instant::now());
                isolation_busy_s += spans.spans[id].end - spans.spans[id].start;
            }
        }
    }

    // Every case's simulation, stage by stage.
    for (job, (spec, (_, report))) in specs.iter().zip(&reference).enumerate() {
        for (c, want) in spec
            .expand()
            .map_err(|e| e.to_string())?
            .iter()
            .zip(&report.cases)
        {
            let sim = Sim {
                op: format!("job{}/{}", job + 1, c.index),
                engine: c.engine(Arc::new(IsolationCache::new())),
                salt: c.seed_salt,
                input: Input::Live(c.to_workload()),
            };
            let expect = Some(&want.result);
            layers::trace_sim(&sim, expect, &mut ops, &mut spans, None, &mut layers)?;
        }
    }

    let mut report = Report::new(ops);
    report.layers(&layers);
    let (hits, misses) = (status.memo.hits, status.memo.misses);
    report.value("cmpsim.runner.memo_hits", hits as f64, "count");
    report.value("cmpsim.runner.memo_misses", misses as f64, "count");
    report.value(
        "cmpsim.runner.memo_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    report.value("cmpsim.runner.isolation_busy_s", isolation_busy_s, "s");
    report.value("scenario.cases", cases.len() as f64, "count");
    report.value("scenario.expand_s", expand_s, "s");
    report.value("scenario.report_s", report_s, "s");
    report.value("service.frames", frames as f64, "count");
    report.value("service.frame_bytes", frame_bytes as f64, "B");
    report.value("service.journal_bytes", journal_bytes as f64, "B");
    report.value("service.overhead_s", overhead_s, "s");
    report.finish_traced(&layers, &spans, ctx, "sweepd_fig8")?;
    Ok(report)
}
