//! The served mix: an in-process sweep daemon over a fresh result store,
//! driven by two closed-loop clients through a seeded script of
//! overlapping fig4, fig8 and fig10 jobs across two daemon lifetimes.
//!
//! The first lifetime starts cold, so its points are simulated and
//! written through to the store, and overlapping jobs deduplicate against
//! runs the daemon already owns. The second lifetime reopens the same
//! store, so resubmitted points replay from it while new points are
//! simulated and written.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use commsense_apps::{suite, RunResult, Scale};
use commsense_core::engine::{RunOutcome, RunRequest, Runner, WorkloadCache};
use commsense_core::store::ResultStore;
use commsense_service::client;
use commsense_service::plan::{assemble_csvs, resolve};
use commsense_service::protocol::{Figure, JobStats, PlanSpec, ServerMsg};
use commsense_service::shell::{ServeConfig, Server};

use crate::common::{
    set_layers, set_store, splitmix64, Budget, Digest, Metrics, StoreProbe, WorkCounts,
};
use crate::stats::{best_per_slot, median, quartiles, tail, Layers, Tally};
use crate::trace::{Recorder, Span};
use crate::Outcome;

/// Client connections.
pub const CLIENTS: usize = 2;

/// One scripted submission.
#[derive(Debug, Clone)]
struct Job {
    life: usize,
    client: usize,
    /// Its place in its step: slot 0 is submitted first, slot 1 once slot
    /// 0 is accepted, so the daemon's work queue always holds slot 0's
    /// points ahead of slot 1's.
    slot: usize,
    spec: PlanSpec,
}

fn key(spec: &PlanSpec) -> String {
    format!(
        "{}|{}|{}",
        spec.figure.label(),
        spec.apps.join(","),
        spec.mechanisms.join(",")
    )
}

fn spec(figure: Figure, apps: &[&str], mechs: &[&str]) -> PlanSpec {
    PlanSpec {
        figure,
        scale: Scale::Bench,
        apps: apps.iter().map(|s| s.to_string()).collect(),
        mechanisms: mechs.iter().map(|s| s.to_string()).collect(),
    }
}

/// The job script for `seed`: a fixed sequence of steps, each a pair of
/// jobs, one per client, the first submitted before the second. The seed
/// flips which client takes which job of a pair, orders the per-app steps
/// and picks which steps are resubmitted; it never changes which jobs
/// there are, which mechanism a job uses or which job of a pair goes
/// first, so every seed asks for the same work in the same queue order and
/// latencies stay comparable across seeds.
///
/// Lifetime 0 (cold store), 20 jobs: per app, Figure 8 on one
/// shared-memory mechanism beside Figure 8 on one message-passing one,
/// then Figure 10 on one shared-memory mechanism beside Figure 4; then a
/// two-mechanism Figure 4 of every app (all duplicates) beside a
/// message-passing Figure 10 of every app, and a Figure 8 and a Figure 10
/// that half-overlap earlier jobs.
/// Lifetime 1 (same store), 10 jobs: three lifetime-0 steps resubmitted
/// (replayed), Figure 4 of every app (replayed) beside a new Figure 8,
/// and two new Figure 10s.
fn script(seed: u64) -> Vec<Job> {
    let mut state = seed ^ 0x5e41_7e5c_a1e5_c0de;
    let mut rng = move |n: usize| (splitmix64(&mut state) % n as u64) as usize;
    let mut shuffle = |xs: &mut [usize]| {
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng(i + 1));
        }
    };
    let apps: Vec<&str> = suite(Scale::Bench).iter().map(|s| s.name()).collect();
    // Each app's mechanisms are fixed, because their costs differ.
    let sm = |i: usize| ["sm", "sm+pf"][i % 2];
    let mp = |i: usize| ["mp-int", "mp-poll"][i % 2];
    let fig8_sm = |i: usize| sm(i);
    let fig10_sm = |i: usize| sm(i + 1);

    let mut order: Vec<usize> = (0..apps.len()).collect();
    shuffle(&mut order);
    let mut life0: Vec<[PlanSpec; 2]> = Vec::new();
    for &i in &order {
        let app = apps[i];
        life0.push([
            spec(Figure::Fig8, &[app], &[fig8_sm(i)]),
            spec(Figure::Fig8, &[app], &[mp(i)]),
        ]);
        life0.push([
            spec(Figure::Fig10, &[app], &[fig10_sm(i)]),
            spec(Figure::Fig4, &[app], &[]),
        ]);
    }
    // Apps of the overlapping and new jobs: fixed, because the apps'
    // costs differ severalfold.
    let (x, y, b, c, d) = (1, 2, 3, 0, 1);
    life0.push([
        spec(Figure::Fig4, &[], &["sm", "mp-int"]),
        spec(Figure::Fig10, &[], &["mp-poll"]),
    ]);
    life0.push([
        spec(Figure::Fig8, &[apps[x]], &[fig8_sm(x), "bulk"]),
        spec(Figure::Fig10, &[apps[y]], &[fig10_sm(y), "bulk"]),
    ]);

    let mut life1: Vec<[PlanSpec; 2]> = Vec::new();
    let mut steps: Vec<usize> = (0..life0.len()).collect();
    shuffle(&mut steps);
    for &k in &steps[..3] {
        life1.push(life0[k].clone());
    }
    let other_sm = |m: &str| if m == "sm" { "sm+pf" } else { "sm" };
    life1.push([
        spec(Figure::Fig4, &[], &[]),
        spec(Figure::Fig8, &[apps[b]], &["bulk"]),
    ]);
    life1.push([
        spec(Figure::Fig10, &[apps[c]], &[other_sm(fig10_sm(c))]),
        spec(Figure::Fig10, &[apps[d]], &[other_sm(fig10_sm(d))]),
    ]);

    let mut jobs = Vec::new();
    for (life, steps) in [life0, life1].into_iter().enumerate() {
        for pair in steps {
            let flip = rng(2);
            for (i, spec) in pair.into_iter().enumerate() {
                jobs.push(Job {
                    life,
                    client: (i + flip) % CLIENTS,
                    slot: i,
                    spec,
                });
            }
        }
    }
    jobs
}

/// What one client saw of one job.
#[derive(Debug)]
struct JobRecord {
    life: usize,
    client: usize,
    index: usize,
    latency: f64,
    first_point: Option<f64>,
    stats: JobStats,
    result: Result<Vec<(String, String)>, String>,
}

/// One timed pass over the script: two daemon lifetimes over one store.
#[derive(Debug, Default)]
struct Repeat {
    wall: f64,
    setup: f64,
    lifetimes: [f64; 2],
    jobs: Vec<JobRecord>,
    store_hits: u64,
    store_bytes: u64,
}

fn open_daemon(store: &Arc<ResultStore>) -> std::io::Result<Server> {
    Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: crate::lanes(),
        store: Some(store.clone()),
        retries: 1,
        quiet: true,
    })
}

/// Runs one client's share of one lifetime as a closed loop: each job is
/// submitted only after the previous one is done, and after both clients'
/// jobs of the current step are done, so each step's pair runs side by
/// side. Within a step, the slot-1 job is submitted once the slot-0 job is
/// accepted, when the daemon has queued all of slot 0's points.
fn client_loop(
    addr: &str,
    jobs: &[(usize, &Job)],
    tag: &str,
    step: &Barrier,
    queued: &Barrier,
    rec: &mut Recorder,
) -> Vec<JobRecord> {
    let mut out = Vec::new();
    for &(index, job) in jobs {
        step.wait();
        if job.slot == 1 {
            queued.wait();
        }
        let id = format!("{tag}-j{index}");
        let submitted = Instant::now();
        let mut accepted = None;
        let mut first = None;
        let result = client::submit(addr, &id, &job.spec, |msg| match msg {
            ServerMsg::Accepted { .. } => {
                accepted = Some(Instant::now());
                if job.slot == 0 {
                    queued.wait();
                }
            }
            ServerMsg::Progress { .. } | ServerMsg::PointFailed { .. } if first.is_none() => {
                first = Some(Instant::now())
            }
            _ => {}
        });
        if job.slot == 0 && accepted.is_none() {
            queued.wait();
        }
        let done = Instant::now();
        if rec.enabled() {
            let acc = accepted.unwrap_or(done);
            let fst = first.unwrap_or(acc);
            let [t0, t1, t2, t3] = [submitted, acc, fst, done].map(|t| rec.ns_at(t));
            let span = |name, start_ns, end_ns, parent| Span {
                name,
                label: id.clone(),
                parent,
                group: index as u64,
                start_ns,
                end_ns,
                lane: 10 + job.client as u32,
            };
            let root = rec.record(span("submit", t0, t3, None));
            rec.record(span("accepted", t0, t1, root));
            rec.record(span("first-progress", t1, t2, root));
            rec.record(span("done", t2, t3, root));
        }
        let (stats, result) = match result {
            Ok(o) if o.failures.is_empty() => (o.stats, Ok(o.csvs)),
            Ok(o) => (o.stats, Err(o.failures.join("; "))),
            Err(e) => (JobStats::default(), Err(e)),
        };
        out.push(JobRecord {
            life: job.life,
            client: job.client,
            index,
            latency: done.duration_since(submitted).as_secs_f64(),
            first_point: first.map(|f| f.duration_since(submitted).as_secs_f64()),
            stats,
            result,
        });
    }
    out
}

/// Everything before the first simulation: the script's plans resolved
/// (which generates the suite), the apps they use prepared, a fresh store
/// opened, and the daemon bound. Returns the seconds it took.
fn set_up(script: &[Job], store_dir: &Path) -> std::io::Result<(f64, Arc<ResultStore>, Server)> {
    let _ = std::fs::remove_dir_all(store_dir);
    let t0 = Instant::now();
    let mut cache = WorkloadCache::new();
    let mut seen = Vec::new();
    for job in script {
        let k = key(&job.spec);
        if seen.contains(&k) {
            continue;
        }
        let plan = resolve(&job.spec).map_err(std::io::Error::other)?;
        for req in &plan.requests {
            cache.get(&req.spec, req.cfg.nodes);
        }
        seen.push(k);
    }
    let store = Arc::new(ResultStore::open(store_dir)?);
    let server = open_daemon(&store)?;
    Ok((t0.elapsed().as_secs_f64(), store, server))
}

fn run_repeat(
    script: &[Job],
    store_dir: &Path,
    rec: &mut Recorder,
    rep: usize,
) -> std::io::Result<Repeat> {
    let t0 = Instant::now();
    let root = rec.open("repeat", format!("{rep}"), None, rep as u64);
    let setup_span = rec.open("setup", "", root, rep as u64);
    let (setup, store, server) = set_up(script, store_dir)?;
    let mut daemon = Some(server);
    rec.close(setup_span);
    let mut r = Repeat {
        setup,
        ..Repeat::default()
    };
    for life in 0..2 {
        let tl = Instant::now();
        let server = match daemon.take() {
            Some(s) => s,
            None => open_daemon(&store)?,
        };
        let addr = server.local_addr()?.to_string();
        let life_span = rec.open("lifetime", format!("{life}"), root, rep as u64);
        let mut forks: Vec<Recorder> = (0..CLIENTS).map(|_| rec.fork()).collect();
        let step = Barrier::new(CLIENTS);
        let queued = Barrier::new(CLIENTS);
        let records = std::thread::scope(|s| -> std::io::Result<Vec<JobRecord>> {
            let daemon = s.spawn(move || server.run());
            let clients: Vec<_> = forks
                .iter_mut()
                .enumerate()
                .map(|(c, fork)| {
                    let mine: Vec<(usize, &Job)> = script
                        .iter()
                        .enumerate()
                        .filter(|(_, j)| j.life == life && j.client == c)
                        .collect();
                    let addr = addr.clone();
                    let tag = format!("r{rep}l{life}c{c}");
                    let (step, queued) = (&step, &queued);
                    s.spawn(move || client_loop(&addr, &mine, &tag, step, queued, fork))
                })
                .collect();
            let mut records = Vec::new();
            for c in clients {
                records.extend(c.join().expect("client thread panicked"));
            }
            let stopped = client::request_shutdown(&addr);
            daemon.join().expect("daemon thread panicked")?;
            stopped.map_err(std::io::Error::other)?;
            Ok(records)
        })?;
        for fork in forks {
            rec.absorb(fork.spans().to_vec(), life_span);
        }
        rec.close(life_span);
        r.jobs.extend(records);
        r.lifetimes[life] = tl.elapsed().as_secs_f64();
    }
    r.jobs.sort_by_key(|j| j.index);
    let st = store.stats();
    r.store_hits = st.hits;
    r.store_bytes = st.bytes_written + st.bytes_read;
    r.wall = t0.elapsed().as_secs_f64();
    rec.close(root);
    drop(store);
    std::fs::remove_dir_all(store_dir)?;
    Ok(r)
}

/// The direct render of every distinct plan in the script: each request
/// executed once on a serial `Runner`, then folded by `assemble_csvs`.
#[derive(Debug, Default)]
struct Reference {
    csvs: HashMap<String, Vec<(String, String)>>,
    digest: Digest,
    points: Vec<(RunRequest, RunResult)>,
    prepare: f64,
    runner: f64,
    sim: f64,
    point_walls: Vec<f64>,
    layers: Layers,
    failed: u64,
}

fn reference(script: &[Job], profile: bool) -> Result<Reference, String> {
    // Every distinct plan of the script, and every distinct request of
    // those plans in first-seen order.
    let mut plans = Vec::new();
    let mut requests: Vec<RunRequest> = Vec::new();
    let mut metas = Vec::new();
    let mut slot: HashMap<u128, usize> = HashMap::new();
    for job in script {
        let k = key(&job.spec);
        if plans.iter().any(|(pk, _)| *pk == k) {
            continue;
        }
        let plan = resolve(&job.spec)?;
        for (req, meta) in plan.requests.iter().zip(&plan.meta) {
            slot.entry(ResultStore::request_key(req))
                .or_insert_with(|| {
                    let mut req = req.clone();
                    req.cfg.profile_dispatch = profile;
                    requests.push(req);
                    metas.push(meta.clone());
                    requests.len() - 1
                });
        }
        plans.push((k, plan));
    }

    let mut r = Reference::default();
    let mut cache = WorkloadCache::new();
    for req in &requests {
        let t = Instant::now();
        cache.get(&req.spec, req.cfg.nodes);
        r.prepare += t.elapsed().as_secs_f64();
    }
    let runner = Runner::serial();
    let outcomes: Vec<RunOutcome> = requests
        .iter()
        .map(|req| {
            let w = cache.get(&req.spec, req.cfg.nodes);
            let t = Instant::now();
            let outcome = runner.run_one(req, &w);
            r.runner += t.elapsed().as_secs_f64();
            outcome
        })
        .collect();
    for ((req, meta), outcome) in requests.iter().zip(&metas).zip(&outcomes) {
        match outcome.result() {
            Some(res) if res.verified => {
                let wall = res.wall.as_secs_f64();
                r.sim += wall;
                r.point_walls.push(wall);
                if let Some(p) = &res.profile {
                    r.layers.add_profile(p, wall);
                }
                r.digest.point(
                    meta.app,
                    meta.mechanism.label(),
                    meta.x,
                    res.runtime_cycles,
                    res.stats.events,
                );
                r.points.push((req.clone(), res.clone()));
            }
            _ => r.failed += 1,
        }
    }
    for (k, plan) in plans {
        let folded: Vec<Option<RunOutcome>> = plan
            .requests
            .iter()
            .map(|req| Some(outcomes[slot[&ResultStore::request_key(req)]].clone()))
            .collect();
        r.csvs.insert(k, assemble_csvs(&plan, &folded));
    }
    Ok(r)
}

/// Renders the script directly, runs the served mix for the rest of
/// `seconds`, and checks every `done` CSV against the direct render.
pub fn run(seed: u64, seconds: u64, trace: bool, out: &Path) -> Result<Outcome, String> {
    let script = script(seed);
    let mut rec = Recorder::new(trace);
    let mut budget = Budget::new(seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let store_dir = out.join(format!("serve-{}", std::process::id()));
    let io = |e: std::io::Error| format!("served mix: {e}");
    // The direct render comes first, on this thread alone: the peak
    // resident set is read after it, because once two daemon workers run,
    // the peak depends on which allocator arena each worker thread draws.
    let reference_span = rec.open("reference", "", None, 0);
    let direct = reference(&script, false)?;
    rec.close(reference_span);
    let peak_rss = crate::host::peak_rss_mb();
    loop {
        let want_traced = trace && traced.len() < plain.len();
        let t = Instant::now();
        let rep = plain.len() + traced.len();
        let r = if want_traced {
            run_repeat(&script, &store_dir, &mut rec, rep).map_err(io)?
        } else {
            run_repeat(&script, &store_dir, &mut Recorder::new(false), rep).map_err(io)?
        };
        budget.note(t.elapsed());
        if want_traced {
            traced.push(r);
        } else {
            plain.push(r);
        }
        if (!trace || !traced.is_empty()) && !budget.has_room() {
            break;
        }
    }
    let mut setups: Vec<f64> = plain.iter().map(|r| r.setup).collect();
    while setups.len() < 5 {
        let (secs, store, server) = set_up(&script, &store_dir).map_err(io)?;
        setups.push(secs);
        drop(server);
        drop(store);
        std::fs::remove_dir_all(&store_dir).map_err(io)?;
    }

    let mut tally = Tally::default();
    let mut notes = vec![format!(
        "repeats {} untraced, {} traced; {} jobs per repeat, {CLIENTS} clients, {} workers",
        plain.len(),
        traced.len(),
        script.len(),
        crate::lanes()
    )];
    let mut served = Vec::new();
    for r in plain.iter().chain(&traced) {
        let mut d = Digest::default();
        for j in &r.jobs {
            let ok = match &j.result {
                Ok(csvs) => {
                    for (name, body) in csvs {
                        d.bytes(name.as_bytes());
                        d.bytes(body.as_bytes());
                    }
                    direct.csvs.get(&key(&script[j.index].spec)) == Some(csvs)
                }
                Err(e) => {
                    notes.push(format!(
                        "job {} (life {}, client {}) failed: {e}",
                        j.index, j.life, j.client
                    ));
                    false
                }
            };
            if !ok && j.result.is_ok() {
                notes.push(format!(
                    "job {} CSVs differ from the direct render",
                    j.index
                ));
            }
            tally.record(ok);
        }
        served.push(d);
    }
    let mut correct = tally.failed == 0 && direct.failed == 0;
    if served.iter().any(|d| *d != served[0]) {
        notes.push("served CSVs differ between repeats".into());
        correct = false;
    }

    // Every repeat runs the same script on the same inputs, and the host's
    // speed swings by tens of percent over seconds, so each job is timed
    // at its best repeat, and the wall time is composed from each daemon
    // lifetime's best repeat.
    let best = |f: &dyn Fn(&Repeat) -> f64| plain.iter().map(f).fold(f64::INFINITY, f64::min);
    let latencies = best_per_slot(
        &plain
            .iter()
            .map(|r| r.jobs.iter().map(|j| j.latency).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
    );
    let first_points: Vec<f64> = (0..script.len())
        .filter_map(|k| {
            plain
                .iter()
                .filter_map(|r| r.jobs[k].first_point)
                .reduce(f64::min)
        })
        .collect();
    let job_tail = tail(&latencies);
    let each: Vec<String> = latencies
        .iter()
        .zip(&script)
        .map(|(l, j)| format!("{}:{:.3}", key(&j.spec), l))
        .collect();
    notes.push(format!("best job latencies (s): {}", each.join(" ")));
    notes.push(format!(
        "job_latency_s_tail is p{:.1} of {} samples",
        job_tail.percentile, job_tail.samples
    ));
    let col = |f: &dyn Fn(&Repeat) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = plain.iter().map(|r| r.wall).collect();
    let (q1, q3) = quartiles(&walls);
    let each: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    notes.push(format!(
        "whole-repeat wall over {} repeats: median {:.4}, quartiles {q1:.4} .. {q3:.4} (each: {})",
        walls.len(),
        median(&walls),
        each.join(" ")
    ));
    let best_setup = best(&|r| r.setup);
    let lifetimes = best(&|r| r.lifetimes[0]) + best(&|r| r.lifetimes[1]);
    let wall =
        best_setup + lifetimes + best(&|r| r.wall - r.setup - r.lifetimes.iter().sum::<f64>());
    let mut e2e = Metrics::default();
    e2e.set("wall_s", wall);
    e2e.set("setup_s", median(&setups));
    e2e.set("peak_rss_mb", peak_rss);
    e2e.set("job_latency_s_p50", median(&latencies));
    e2e.set("job_latency_s_tail", job_tail.value);
    e2e.set("first_point_s_p50", median(&first_points));

    let mut layers = Metrics::default();
    let run_tail = tail(&direct.point_walls);
    notes.push(format!(
        "machine.* from the direct render of {} distinct points; machine.run_s_tail is p{:.1}",
        direct.points.len(),
        run_tail.percentile
    ));
    let mut counts = WorkCounts::default();
    for (_, res) in &direct.points {
        counts.add(res);
    }
    layers.set("failed_frac", tally.failed_frac());
    layers.set("job_latency.samples", job_tail.samples as f64);
    layers.set("job_latency.tail_pct", job_tail.percentile);
    layers.set("apps.prepare_s", direct.prepare);
    layers.set("engine.overhead_s", direct.runner - direct.sim);
    layers.set("machine.sim_s", direct.sim);
    layers.set("machine.events", counts.events as f64);
    layers.set(
        "machine.ns_per_event",
        direct.sim / counts.events as f64 * 1e9,
    );
    layers.set("machine.run_s_p50", median(&direct.point_walls));
    layers.set("machine.run_s_tail", run_tail.value);
    layers.set(
        "accounting.residual_frac",
        1.0 - (best_setup + lifetimes) / wall,
    );
    counts.set(&mut layers);

    let job_sum = |f: fn(&JobStats) -> usize| {
        col(&|r| r.jobs.iter().map(|j| f(&j.stats)).sum::<usize>() as f64)
    };
    let simulated = job_sum(|s| s.simulated);
    let store_hits = job_sum(|s| s.store_hits);
    let inflight = job_sum(|s| s.inflight_hits);
    let total = job_sum(|s| s.total);
    layers.set("service.simulated", simulated);
    layers.set("service.store_hits", store_hits);
    layers.set("service.inflight_hits", inflight);
    layers.set(
        "service.reuse_ratio",
        if total > 0.0 {
            (store_hits + inflight) / total
        } else {
            0.0
        },
    );

    if trace {
        let s = rec.open("reference", "profiled", None, 0);
        let profiled = reference(&script, true)?;
        rec.close(s);
        if profiled.digest != direct.digest {
            notes.push("profiled reference digest differs".into());
            correct = false;
        }
        set_layers(&mut layers, &profiled.layers, direct.sim);
        notes.extend(crate::trace_notes(&profiled.layers, &rec));
        let s = rec.open("store-probe", "", None, 0);
        let probe = StoreProbe::run(&store_dir, &direct.points).map_err(io)?;
        rec.close(s);
        correct &= probe.1;
        let mut probe = probe.0;
        // Hits, writes and bytes of the daemon's own store.
        probe.hits = col(&|r| r.store_hits as f64) as u64;
        probe.writes = simulated as u64;
        probe.bytes = col(&|r| r.store_bytes as f64) as u64;
        set_store(&mut layers, &probe);
    } else {
        set_layers(&mut layers, &Layers::default(), direct.sim);
        set_store(&mut layers, &StoreProbe::default());
    }
    Ok(Outcome {
        tally,
        correct,
        digest: direct.digest,
        e2e,
        layers,
        notes,
        csvs: Vec::new(),
        trace: rec,
    })
}
