//! The two figure sweeps, run the way `repro fig8 --jobs 1` and
//! `repro fig10 --jobs 1` run them: the bench-scale suite, one plan per
//! app on a serial `Runner`, one CSV per app.

use std::path::Path;
use std::time::Instant;

use commsense_apps::{AppSpec, RunResult};
use commsense_core::engine::{ExperimentPlan, RunOutcome, RunRequest, Runner, WorkloadCache};
use commsense_core::experiment::{bisection_plan, ctx_switch_plan};
use commsense_core::report;
use commsense_machine::{MachineConfig, Mechanism};
use commsense_service::plan::{FIG10_LATENCIES, FIG8_CONSUMED, FIG8_MSG_BYTES};

use crate::common::{
    reseeded_suite, set_layers, set_store, Budget, Digest, Metrics, StoreProbe, WorkCounts,
};
use crate::stats::{best_per_slot, median, quartiles, tail, Layers, Tally};
use crate::trace::{Recorder, SpanId};
use crate::Outcome;

/// Which figure a sweep reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Figure 8: 64-byte cross-traffic consuming bisection bandwidth.
    Bisection,
    /// Figure 10: emulated remote-miss latency on an ideal network.
    Latency,
}

impl Figure {
    fn plan(self, spec: &AppSpec, cfg: &MachineConfig) -> ExperimentPlan {
        match self {
            Figure::Bisection => {
                bisection_plan(spec, &Mechanism::ALL, cfg, &FIG8_CONSUMED, FIG8_MSG_BYTES)
            }
            Figure::Latency => ctx_switch_plan(spec, &Mechanism::ALL, cfg, &FIG10_LATENCIES),
        }
    }

    fn x_label(self) -> &'static str {
        match self {
            Figure::Bisection => "bytes_per_cycle",
            Figure::Latency => "miss_cycles",
        }
    }

    fn csv_prefix(self) -> &'static str {
        match self {
            Figure::Bisection => "fig8",
            Figure::Latency => "fig10",
        }
    }
}

/// One app's plan within a pass.
#[derive(Debug, Default)]
struct PlanPass {
    /// Per request: workload lookup plus `Runner::run_one`.
    calls: Vec<f64>,
    /// Per request: `RunResult::wall`.
    walls: Vec<f64>,
    /// Per curve (one mechanism's points): its start to its first point
    /// done.
    curve_firsts: Vec<f64>,
    /// Plan start to its CSV rendered.
    latency: f64,
    /// `(app, mechanism, x, runtime_cycles, events)` per curve point.
    points: Vec<(&'static str, &'static str, f64, u64, u64)>,
    csv: (String, String),
}

/// One timed pass over the whole sweep.
#[derive(Debug, Default)]
struct Repeat {
    wall: f64,
    setup: f64,
    prepare: f64,
    /// Sum of `RunResult::wall` over requests.
    sim: f64,
    /// Per plan, in suite order whatever order the pass ran them in.
    plans: Vec<PlanPass>,
    counts: WorkCounts,
    layers: Layers,
    digest: Digest,
    tally: Tally,
    store_points: Vec<(RunRequest, RunResult)>,
}

/// Workload set-up: the seeded suite, every app prepared once, and one
/// plan per app. Returns the set-up seconds and the summed prepare time.
fn set_up(
    fig: Figure,
    seed: u64,
    traced: bool,
    rec: &mut Recorder,
    parent: Option<SpanId>,
) -> (f64, f64, WorkloadCache, Vec<ExperimentPlan>) {
    let t0 = Instant::now();
    let span = rec.open("setup", "", parent, 0);
    let s = rec.open("suite", "", span, 0);
    let specs = reseeded_suite(seed);
    rec.close(s);
    let mut cfg = MachineConfig::alewife();
    cfg.profile_dispatch = traced;
    let mut cache = WorkloadCache::new();
    let mut prepare = 0.0;
    for spec in &specs {
        let s = rec.open("prepare", spec.name(), span, 0);
        let t = Instant::now();
        cache.get(spec, cfg.nodes);
        prepare += t.elapsed().as_secs_f64();
        rec.close(s);
    }
    let s = rec.open("plan-build", "", span, 0);
    let plans = specs.iter().map(|spec| fig.plan(spec, &cfg)).collect();
    rec.close(s);
    rec.close(span);
    (t0.elapsed().as_secs_f64(), prepare, cache, plans)
}

/// Runs one pass. `reverse` runs the apps' plans in reverse order, so two
/// lanes sample each point at different moments.
fn run_repeat(
    fig: Figure,
    seed: u64,
    traced: bool,
    reverse: bool,
    rec: &mut Recorder,
    index: u64,
) -> Repeat {
    let t0 = Instant::now();
    let root = rec.open(
        "repeat",
        if traced { "traced" } else { "untraced" },
        None,
        index,
    );
    let (setup, prepare, mut cache, plans) = set_up(fig, seed, traced, rec, root);
    let runner = Runner::serial();
    let mut r = Repeat {
        setup,
        prepare,
        plans: plans.iter().map(|_| PlanPass::default()).collect(),
        ..Repeat::default()
    };
    let mut order: Vec<usize> = (0..plans.len()).collect();
    if reverse {
        order.reverse();
    }
    for p in order {
        let plan = &plans[p];
        let pass = &mut r.plans[p];
        let app = plan.requests()[0].spec.name();
        let plan_span = rec.open("plan", app, root, index);
        let tp = Instant::now();
        let mut outcomes = Vec::with_capacity(plan.len());
        for (i, req) in plan.requests().iter().enumerate() {
            let group = index << 32 | (p as u64) << 16 | i as u64;
            let point = rec.open("point", req.mechanism.label(), plan_span, group);
            let tc = Instant::now();
            let s = rec.open("prepare", app, point, group);
            let w = cache.get(&req.spec, req.cfg.nodes);
            rec.close(s);
            let s = rec.open("simulate", req.mechanism.label(), point, group);
            let outcome = runner.run_one(req, &w);
            rec.close(s);
            let call = tc.elapsed().as_secs_f64();
            pass.calls.push(call);
            if i == 0 || plan.requests()[i - 1].mechanism != req.mechanism {
                pass.curve_firsts.push(call);
            }
            let wall = outcome.result().map_or(0.0, |res| res.wall.as_secs_f64());
            pass.walls.push(wall);
            if let Some(result) = outcome.result() {
                r.sim += wall;
                r.counts.add(result);
                if let Some(profile) = &result.profile {
                    r.layers.add_profile(profile, wall);
                }
                if traced {
                    r.store_points.push((req.clone(), result.clone()));
                }
            }
            rec.close(point);
            outcomes.push(outcome);
        }
        let s = rec.open("render", app, plan_span, index);
        let run = plan.assemble_outcomes(&outcomes);
        let csv = report::sweep_csv(fig.x_label(), &run.sweeps);
        rec.close(s);
        pass.latency = tp.elapsed().as_secs_f64();
        rec.close(plan_span);
        for o in &outcomes {
            r.tally
                .record(matches!(o, RunOutcome::Done { result, .. } if result.verified));
        }
        for sweep in &run.sweeps {
            for pt in &sweep.points {
                pass.points.push((
                    sweep.app,
                    sweep.mechanism.label(),
                    pt.x,
                    pt.result.runtime_cycles,
                    pt.result.stats.events,
                ));
            }
        }
        let name = format!("{}_{}.csv", fig.csv_prefix(), app.to_lowercase());
        pass.csv = (name, csv);
    }
    r.wall = t0.elapsed().as_secs_f64();
    rec.close(root);
    for pass in &r.plans {
        for &(app, mech, x, cycles, events) in &pass.points {
            r.digest.point(app, mech, x, cycles, events);
        }
    }
    r
}

/// Runs the sweep for `seconds` on up to two lanes of repeats. With
/// `trace`, the second lane's repeats are traced (with one lane, traced
/// and untraced repeats alternate), at least one of each.
pub fn run(fig: Figure, seed: u64, seconds: u64, trace: bool, out: &Path) -> Outcome {
    let mut rec = Recorder::new(trace);
    let budget = Budget::new(seconds);
    let lanes = crate::lanes();
    // The second lane starts once the first repeat has ended alone, so the
    // peak resident set is that of one pass of the workload.
    let first_done = std::sync::Barrier::new(lanes);
    let peak_rss = std::sync::Mutex::new(0.0);
    let finished: Vec<(Vec<Repeat>, Vec<Repeat>, Recorder)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let mut budget = budget.clone();
                let mut lane_rec = rec.fork();
                let (first_done, peak_rss) = (&first_done, &peak_rss);
                s.spawn(move || {
                    let (mut plain, mut traced) = (Vec::new(), Vec::new());
                    let mut index = lane as u64;
                    if lane > 0 {
                        first_done.wait();
                    }
                    loop {
                        // With two lanes the second one traces; with one,
                        // traced and untraced repeats alternate.
                        let want_traced = trace
                            && if lanes == 1 {
                                traced.len() < plain.len()
                            } else {
                                lane == 1
                            };
                        let t = Instant::now();
                        if want_traced {
                            traced.push(run_repeat(
                                fig,
                                seed,
                                true,
                                lane == 1,
                                &mut lane_rec,
                                index,
                            ));
                        } else {
                            let mut quiet = Recorder::new(false);
                            plain.push(run_repeat(fig, seed, false, lane == 1, &mut quiet, index));
                        }
                        budget.note(t.elapsed());
                        if lane == 0 && index == 0 {
                            *peak_rss.lock().expect("peak cell") = crate::host::peak_rss_mb();
                            first_done.wait();
                        }
                        index += lanes as u64;
                        let done = !trace || lanes > 1 || !traced.is_empty();
                        if done && !budget.has_room() {
                            break;
                        }
                    }
                    (plain, traced, lane_rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("repeat lane panicked"))
            .collect()
    });
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (p, t, lane_rec) in finished {
        plain.extend(p);
        traced.extend(t);
        rec.absorb(lane_rec.spans().to_vec(), None);
    }
    // Set-up is short and noisy: measure at least five of them.
    let mut setups: Vec<f64> = plain.iter().map(|r| r.setup).collect();
    while setups.len() < 5 {
        setups.push(set_up(fig, seed, false, &mut Recorder::new(false), None).0);
    }
    let peak_rss = peak_rss.into_inner().expect("peak cell");

    let mut tally = Tally::default();
    for r in plain.iter().chain(&traced) {
        tally.attempted += r.tally.attempted;
        tally.failed += r.tally.failed;
    }
    let digest = plain[0].digest;
    let mut notes = vec![format!(
        "repeats {} untraced, {} traced, on {lanes} lane(s)",
        plain.len(),
        traced.len()
    )];
    let mut correct = tally.failed == 0;
    for r in plain.iter().chain(&traced) {
        if r.digest != digest || r.counts.cycles != plain[0].counts.cycles {
            notes.push(format!(
                "digest mismatch: {} vs {}",
                r.digest.hex(),
                digest.hex()
            ));
            correct = false;
        }
    }

    // Repeats do identical work on identical inputs, and the host's
    // speed swings by tens of percent over seconds, so every timing is
    // taken at its best repeat: each request's fastest call, each plan's
    // fastest bookkeeping, and the times composed from those.
    let best = |f: &dyn Fn(&Repeat) -> f64| plain.iter().map(f).fold(f64::INFINITY, f64::min);
    let mut sims = Vec::new();
    let mut overhead = 0.0;
    let mut plan_latency = Vec::new();
    let mut first_points = Vec::new();
    for p in 0..plain[0].plans.len() {
        let best_calls =
            best_per_slot(&plain.iter().map(|r| &r.plans[p].calls).collect::<Vec<_>>());
        let rest = best(&|r| r.plans[p].latency - r.plans[p].calls.iter().sum::<f64>());
        plan_latency.push(best_calls.iter().sum::<f64>() + rest);
        first_points.extend(best_per_slot(
            &plain
                .iter()
                .map(|r| &r.plans[p].curve_firsts)
                .collect::<Vec<_>>(),
        ));
        sims.extend(best_per_slot(
            &plain.iter().map(|r| &r.plans[p].walls).collect::<Vec<_>>(),
        ));
        for i in 0..best_calls.len() {
            overhead += best(&|r| r.plans[p].calls[i] - r.plans[p].walls[i]);
        }
    }
    let best_setup = best(&|r| r.setup);
    let wall = best_setup
        + plan_latency.iter().sum::<f64>()
        + best(&|r| r.wall - r.setup - r.plans.iter().map(|p| p.latency).sum::<f64>());
    let walls: Vec<f64> = plain.iter().map(|r| r.wall).collect();
    let (q1, q3) = quartiles(&walls);
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    notes.push(format!(
        "whole-repeat wall over {} repeats: median {:.4}, quartiles {q1:.4} .. {q3:.4} (each: {})",
        walls.len(),
        median(&walls),
        each.join(" ")
    ));
    let job_tail = tail(&plan_latency);
    notes.push(format!(
        "job_latency_s_tail is p{:.1} of {} samples",
        job_tail.percentile, job_tail.samples
    ));
    let mut e2e = Metrics::default();
    e2e.set("wall_s", wall);
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_rss_mb", peak_rss);
    e2e.set("job_latency_s_p50", median(&plan_latency));
    e2e.set("job_latency_s_tail", job_tail.value);
    e2e.set("first_point_s_p50", median(&first_points));

    let mut layers = Metrics::default();
    let sim: f64 = sims.iter().sum();
    let c = plain[0].counts;
    let run_tail = tail(&sims);
    notes.push(format!(
        "machine.run_s_tail is p{:.1} of {} samples",
        run_tail.percentile, run_tail.samples
    ));
    layers.set("failed_frac", tally.failed_frac());
    layers.set("job_latency.samples", job_tail.samples as f64);
    layers.set("job_latency.tail_pct", job_tail.percentile);
    layers.set("apps.prepare_s", best(&|r| r.prepare));
    layers.set("engine.overhead_s", overhead);
    layers.set("machine.sim_s", sim);
    layers.set("machine.events", c.events as f64);
    layers.set("machine.ns_per_event", sim / c.events as f64 * 1e9);
    layers.set("machine.run_s_p50", median(&sims));
    layers.set("machine.run_s_tail", run_tail.value);
    layers.set(
        "accounting.residual_frac",
        1.0 - (best_setup + sim + overhead) / wall,
    );
    c.set(&mut layers);

    if trace {
        // The layer split of the fastest traced repeat, so the layers add
        // up to that repeat's simulate time exactly.
        traced.sort_by(|a, b| a.sim.total_cmp(&b.sim));
        let fastest = &traced[0];
        set_layers(&mut layers, &fastest.layers, sim);
        notes.extend(crate::trace_notes(&fastest.layers, &rec));
        let dir = out.join(format!("store-{}", std::process::id()));
        match StoreProbe::run(&dir, &traced[0].store_points) {
            Ok((probe, ok)) => {
                set_store(&mut layers, &probe);
                if !ok {
                    notes.push("store replay differs from the simulated result".into());
                    correct = false;
                }
            }
            Err(e) => {
                notes.push(format!("store probe failed: {e}"));
                correct = false;
            }
        }
        for r in &traced {
            if r.plans
                .iter()
                .zip(&plain[0].plans)
                .any(|(a, b)| a.csv != b.csv)
            {
                notes.push("traced CSVs differ from untraced CSVs".into());
                correct = false;
            }
        }
    } else {
        set_layers(&mut layers, &Layers::default(), sim);
        set_store(&mut layers, &StoreProbe::default());
    }
    for name in [
        "service.simulated",
        "service.store_hits",
        "service.inflight_hits",
        "service.reuse_ratio",
    ] {
        layers.set(name, 0.0);
    }
    Outcome {
        tally,
        correct,
        digest,
        e2e,
        layers,
        notes,
        csvs: plain
            .swap_remove(0)
            .plans
            .into_iter()
            .map(|p| p.csv)
            .collect(),
        trace: rec,
    }
}
