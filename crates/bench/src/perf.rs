//! The tracked performance harness behind `repro perf`.
//!
//! Every future hot-path PR is accountable to the numbers this module
//! produces: a fixed fig4-scale EM3D workload is run under every
//! mechanism, serially, and the resulting wall time and simulation-event
//! throughput land both on stdout and in a machine-readable
//! `BENCH_*.json`. A previous report can be supplied as a baseline, in
//! which case the JSON records both numbers and their ratio.

use std::time::Instant;

use commsense_apps::{run_prepared, AppSpec, RunResult};
use commsense_core::json::Json;
use commsense_machine::{MachineConfig, Mechanism};

use crate::{em3d_spec, Scale};

/// One measured run of the perf workload.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// Application name.
    pub app: &'static str,
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Simulated runtime in processor cycles.
    pub runtime_cycles: u64,
    /// Simulation events processed.
    pub events: u64,
    /// Host wall-clock seconds simulating this run.
    pub wall_secs: f64,
    /// Whether the run verified against the sequential reference.
    pub verified: bool,
}

impl PerfRun {
    /// Events per host wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    fn from_result(r: &RunResult) -> Self {
        PerfRun {
            app: r.app,
            mechanism: r.mechanism.label(),
            runtime_cycles: r.runtime_cycles,
            events: r.stats.events,
            wall_secs: r.wall.as_secs_f64(),
            verified: r.verified,
        }
    }
}

/// Aggregate numbers from a previously recorded report, used as the
/// comparison point of a new one.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaseline {
    /// Total simulation events across all runs.
    pub total_events: u64,
    /// Total wall-clock seconds across all runs.
    pub total_wall_secs: f64,
    /// Aggregate events per second.
    pub events_per_sec: f64,
    /// Per-mechanism measurements of the baseline report, when its JSON
    /// carried them (reports have since PR 2; an empty vec means an
    /// aggregate-only baseline). Lets a failing gate name the mechanism
    /// that regressed instead of just the aggregate.
    pub runs: Vec<BaselineRun>,
}

/// One per-mechanism measurement inside a [`PerfBaseline`].
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Mechanism label.
    pub mechanism: String,
    /// Simulation events processed.
    pub events: u64,
    /// Host wall-clock seconds simulating this run.
    pub wall_secs: f64,
}

/// A full perf-harness report: the fixed workload under every mechanism.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Human description of the workload.
    pub workload: String,
    /// Per-mechanism measurements.
    pub runs: Vec<PerfRun>,
    /// Wall-clock seconds spent preparing the workload (not counted in
    /// the per-run numbers).
    pub prepare_secs: f64,
}

impl PerfReport {
    /// Total simulation events across all runs.
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.events).sum()
    }

    /// Total simulation wall time across all runs.
    pub fn total_wall_secs(&self) -> f64 {
        self.runs.iter().map(|r| r.wall_secs).sum()
    }

    /// Aggregate events per second across all runs.
    pub fn events_per_sec(&self) -> f64 {
        let w = self.total_wall_secs();
        if w > 0.0 {
            self.total_events() as f64 / w
        } else {
            0.0
        }
    }

    /// The aggregates of this report, as a baseline for a later one.
    pub fn as_baseline(&self) -> PerfBaseline {
        PerfBaseline {
            total_events: self.total_events(),
            total_wall_secs: self.total_wall_secs(),
            events_per_sec: self.events_per_sec(),
            runs: self
                .runs
                .iter()
                .map(|r| BaselineRun {
                    mechanism: r.mechanism.to_string(),
                    events: r.events,
                    wall_secs: r.wall_secs,
                })
                .collect(),
        }
    }
}

/// The fixed perf workload: the fig4-scale EM3D spec of the given scale
/// (`Scale::Bench` is the tracked configuration; `Scale::Small` exists for
/// CI smoke runs).
pub fn perf_workload(scale: Scale) -> AppSpec {
    em3d_spec(scale)
}

/// Runs the perf workload under every mechanism, serially (parallel
/// workers would make per-run wall times measure scheduler contention,
/// not simulator speed). Each mechanism is run `reps` times and the
/// fastest wall time kept: the simulation itself is deterministic, so
/// repetitions only differ in host noise (cold caches, frequency
/// scaling), and the minimum is the most reproducible estimate.
pub fn run_perf(scale: Scale, cfg: &MachineConfig, reps: usize) -> PerfReport {
    let reps = reps.max(1);
    let spec = perf_workload(scale);
    let prep_start = Instant::now();
    let prepared = spec.prepare(cfg.nodes);
    let prepare_secs = prep_start.elapsed().as_secs_f64();
    let runs = Mechanism::ALL
        .iter()
        .map(|&mech| {
            (0..reps)
                .map(|_| PerfRun::from_result(&run_prepared(&prepared, mech, cfg)))
                .min_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs))
                .expect("reps >= 1")
        })
        .collect();
    PerfReport {
        workload: format!(
            "{} ({scale:?} scale, {} nodes, best of {reps})",
            spec.name(),
            cfg.nodes
        ),
        runs,
        prepare_secs,
    }
}

/// One mechanism's per-event-kind dispatch profile from the profiled pass.
#[derive(Debug, Clone)]
pub struct ProfiledRun {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Per-kind dispatch self-times.
    pub profile: commsense_machine::DispatchProfile,
}

/// Runs the perf workload once per mechanism with dispatch profiling
/// enabled and returns the per-event-kind self-time breakdowns. Kept
/// separate from the timed reps: the per-event clock reads the profiler
/// inserts would distort the tracked wall times.
pub fn run_perf_profile(scale: Scale, cfg: &MachineConfig) -> Vec<ProfiledRun> {
    let spec = perf_workload(scale);
    let mut cfg = cfg.clone();
    cfg.profile_dispatch = true;
    let prepared = spec.prepare(cfg.nodes);
    Mechanism::ALL
        .iter()
        .map(|&mech| {
            let r = run_prepared(&prepared, mech, &cfg);
            ProfiledRun {
                mechanism: mech.label(),
                profile: r.profile.expect("profile_dispatch implies a profile"),
            }
        })
        .collect()
}

/// Renders profiled runs as CSV: one row per (mechanism, event kind) with
/// the dispatch count, total self-time, and mean cost per event.
pub fn profile_csv(runs: &[ProfiledRun]) -> String {
    let mut out = String::from("mechanism,kind,events,self_secs,ns_per_event,batches\n");
    for run in runs {
        for k in &run.profile.kinds {
            let ns = if k.events > 0 {
                k.self_secs * 1e9 / k.events as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "{},{},{},{:.6},{ns:.1},{}\n",
                run.mechanism, k.kind, k.events, k.self_secs, run.profile.batches
            ));
        }
    }
    out
}

/// The auxiliary scaled-configuration measurement of `repro perf --nodes /
/// --topo`: the same workload shape on a bigger machine. Reported as an
/// extra JSON section; never gated (the tracked baseline chain is the
/// fixed 32-node config only).
#[derive(Debug, Clone)]
pub struct ScaledReport {
    /// Topology kind the scaled config was built from.
    pub topo: String,
    /// Node count of the scaled config.
    pub nodes: usize,
    /// The measurements.
    pub report: PerfReport,
}

/// Runs the perf workload on a scaled machine configuration
/// ([`MachineConfig::scaled`]): same workload generator, `nodes`
/// processors on a `topo` network.
pub fn run_perf_scaled(scale: Scale, topo: &str, nodes: usize, reps: usize) -> ScaledReport {
    let cfg = MachineConfig::scaled(topo, nodes);
    ScaledReport {
        topo: topo.to_string(),
        nodes: cfg.nodes,
        report: run_perf(scale, &cfg, reps),
    }
}

fn push_json_f64(out: &mut String, v: f64) {
    // `format!("{v}")` prints f64 round-trippably; avoid `inf`/`NaN`,
    // which are not JSON.
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

/// Renders one report's aggregates + runs as the fields of a JSON object
/// body (shared by the `current` and `scaled` sections).
fn push_report_json(out: &mut String, report: &PerfReport, indent: &str) {
    out.push_str(&format!(
        "{indent}\"total_events\": {},\n",
        report.total_events()
    ));
    out.push_str(&format!("{indent}\"total_wall_secs\": "));
    push_json_f64(out, report.total_wall_secs());
    out.push_str(&format!(",\n{indent}\"events_per_sec\": "));
    push_json_f64(out, report.events_per_sec());
    out.push_str(&format!(",\n{indent}\"prepare_secs\": "));
    push_json_f64(out, report.prepare_secs);
    out.push_str(&format!(",\n{indent}\"runs\": [\n"));
    for (i, r) in report.runs.iter().enumerate() {
        out.push_str(&format!(
            "{indent}  {{\"app\": \"{}\", \"mechanism\": \"{}\", \"runtime_cycles\": {}, \
             \"events\": {}, \"wall_secs\": ",
            r.app, r.mechanism, r.runtime_cycles, r.events
        ));
        push_json_f64(out, r.wall_secs);
        out.push_str(", \"events_per_sec\": ");
        push_json_f64(out, r.events_per_sec());
        out.push_str(&format!(", \"verified\": {}}}", r.verified));
        out.push_str(if i + 1 < report.runs.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str(&format!("{indent}]\n"));
}

/// Renders a report (and an optional baseline and scaled-config section)
/// as the `BENCH_*.json` format: a single JSON object with `current`,
/// `baseline` (or `null`), the aggregate `speedup_events_per_sec`, and
/// `scaled` (or `null`) for the auxiliary `--nodes/--topo` measurement.
pub fn perf_json(
    report: &PerfReport,
    baseline: Option<&PerfBaseline>,
    scaled: Option<&ScaledReport>,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"commsense-perf\",\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", report.workload));
    out.push_str("  \"current\": {\n");
    push_report_json(&mut out, report, "    ");
    out.push_str("  },\n");
    match scaled {
        Some(s) => {
            out.push_str("  \"scaled\": {\n");
            out.push_str(&format!("    \"topo\": \"{}\",\n", s.topo));
            out.push_str(&format!("    \"nodes\": {},\n", s.nodes));
            push_report_json(&mut out, &s.report, "    ");
            out.push_str("  },\n");
        }
        None => out.push_str("  \"scaled\": null,\n"),
    }
    match baseline {
        Some(b) => {
            out.push_str("  \"baseline\": {\n");
            out.push_str(&format!("    \"total_events\": {},\n", b.total_events));
            out.push_str("    \"total_wall_secs\": ");
            push_json_f64(&mut out, b.total_wall_secs);
            out.push_str(",\n    \"events_per_sec\": ");
            push_json_f64(&mut out, b.events_per_sec);
            out.push_str("\n  },\n");
            out.push_str("  \"speedup_events_per_sec\": ");
            let speedup = if b.events_per_sec > 0.0 {
                report.events_per_sec() / b.events_per_sec
            } else {
                f64::NAN
            };
            push_json_f64(&mut out, speedup);
            out.push('\n');
        }
        None => {
            out.push_str("  \"baseline\": null,\n");
            out.push_str("  \"speedup_events_per_sec\": null\n");
        }
    }
    out.push_str("}\n");
    out
}

/// Extracts the `current` aggregates of a previously written perf JSON,
/// for use as the baseline of a new report.
///
/// The whole document is parsed and validated, not pattern-scanned: a
/// truncated file, invalid JSON, or a document of the wrong schema (no
/// `"bench": "commsense-perf"` marker, missing aggregates, non-numeric
/// fields) all return `None` with a warning on stderr rather than
/// yielding garbage aggregates.
pub fn parse_baseline(json: &str) -> Option<PerfBaseline> {
    let warn = |why: &str| {
        eprintln!("warning: ignoring perf baseline: {why}");
        None
    };
    let doc = match Json::parse(json) {
        Ok(doc) => doc,
        Err(e) => return warn(&format!("not valid JSON ({e})")),
    };
    match doc.get("bench").and_then(Json::as_str) {
        Some("commsense-perf") => {}
        Some(other) => return warn(&format!("unexpected bench kind {other:?}")),
        None => return warn("missing \"bench\" schema marker"),
    }
    let Some(cur) = doc.get("current") else {
        return warn("missing \"current\" aggregates");
    };
    let num = |key: &str| cur.get(key).and_then(Json::as_f64);
    let (Some(total_events), Some(total_wall_secs), Some(events_per_sec)) = (
        num("total_events"),
        num("total_wall_secs"),
        num("events_per_sec"),
    ) else {
        return warn("\"current\" aggregates missing or non-numeric");
    };
    if !(total_events.fract() == 0.0 && total_events >= 0.0) {
        return warn("\"total_events\" is not a non-negative integer");
    }
    // The per-run breakdown is optional (aggregate-only baselines predate
    // it), but when a `runs` array is present each entry must be well
    // formed — a half-parsed breakdown would misattribute a regression.
    let mut runs = Vec::new();
    if let Some(arr) = cur.get("runs").and_then(Json::as_arr) {
        for entry in arr {
            let (Some(mechanism), Some(events), Some(wall_secs)) = (
                entry.get("mechanism").and_then(Json::as_str),
                entry.get("events").and_then(Json::as_u64),
                entry.get("wall_secs").and_then(Json::as_f64),
            ) else {
                return warn("\"runs\" entry missing mechanism/events/wall_secs");
            };
            runs.push(BaselineRun {
                mechanism: mechanism.to_string(),
                events,
                wall_secs,
            });
        }
    }
    Some(PerfBaseline {
        total_events: total_events as u64,
        total_wall_secs,
        events_per_sec,
        runs,
    })
}

/// The CI perf-regression gate: passes when the report's total wall
/// seconds are no more than `max_rise_pct` percent above the baseline's.
///
/// Wall time, not events/sec, is the quantity a user waits on: a change
/// that removes redundant events lowers events/sec while making every run
/// faster, and an events/sec gate would reject it. Returns a one-line
/// verdict on pass; on failure the `Err` verdict also carries a
/// per-mechanism breakdown (current vs baseline wall seconds, when the
/// baseline recorded its runs), so the failing CI log names the mechanism
/// that regressed instead of just the total.
pub fn check_gate(
    report: &PerfReport,
    baseline: &PerfBaseline,
    max_rise_pct: f64,
) -> Result<String, String> {
    if baseline.total_wall_secs <= 0.0 {
        return Err("baseline total wall time is zero — cannot gate".to_string());
    }
    let current = report.total_wall_secs();
    let ceiling = baseline.total_wall_secs * (1.0 + max_rise_pct / 100.0);
    let delta_pct = (current / baseline.total_wall_secs - 1.0) * 100.0;
    let line = format!(
        "perf gate: {current:.4}s total wall vs baseline {:.4}s ({delta_pct:+.1}%, \
         ceiling {ceiling:.4}s at +{max_rise_pct}%)",
        baseline.total_wall_secs
    );
    if current <= ceiling {
        return Ok(line);
    }
    let mut out = line;
    if baseline.runs.is_empty() {
        out.push_str("\n  (aggregate-only baseline: no per-mechanism breakdown)");
    } else {
        out.push_str("\n  per-mechanism breakdown (current vs baseline wall seconds):");
        for r in &report.runs {
            match baseline.runs.iter().find(|b| b.mechanism == r.mechanism) {
                Some(b) if b.wall_secs > 0.0 => {
                    let d = (r.wall_secs / b.wall_secs - 1.0) * 100.0;
                    out.push_str(&format!(
                        "\n    {:<8} {:>10.4} vs {:>10.4} ({d:+.1}%)",
                        r.mechanism, r.wall_secs, b.wall_secs,
                    ));
                }
                _ => out.push_str(&format!(
                    "\n    {:<8} {:>10.4} vs {:>10} (not in baseline)",
                    r.mechanism, r.wall_secs, "-",
                )),
            }
        }
    }
    Err(out)
}

/// Renders the report as the `repro perf` human output.
pub fn perf_text(report: &PerfReport, baseline: Option<&PerfBaseline>) -> String {
    let mut out = format!(
        "perf workload: {} (prepared in {:.2}s)\n{:<8} {:>14} {:>12} {:>9} {:>12} {:>9}\n",
        report.workload,
        report.prepare_secs,
        "mech",
        "cycles",
        "events",
        "wall(s)",
        "events/s",
        "verified"
    );
    for r in &report.runs {
        out.push_str(&format!(
            "{:<8} {:>14} {:>12} {:>9.3} {:>12.0} {:>9}\n",
            r.mechanism,
            r.runtime_cycles,
            r.events,
            r.wall_secs,
            r.events_per_sec(),
            r.verified
        ));
    }
    out.push_str(&format!(
        "total: {} events in {:.3}s = {:.0} events/sec\n",
        report.total_events(),
        report.total_wall_secs(),
        report.events_per_sec()
    ));
    if let Some(b) = baseline {
        out.push_str(&format!(
            "baseline: {:.3}s, {:.0} events/sec -> wall speedup {:.2}x\n",
            b.total_wall_secs,
            b.events_per_sec,
            b.total_wall_secs / report.total_wall_secs()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_report() -> PerfReport {
        PerfReport {
            workload: "EM3D (test)".to_string(),
            runs: vec![
                PerfRun {
                    app: "EM3D",
                    mechanism: "sm",
                    runtime_cycles: 1000,
                    events: 500,
                    wall_secs: 0.25,
                    verified: true,
                },
                PerfRun {
                    app: "EM3D",
                    mechanism: "mp-poll",
                    runtime_cycles: 900,
                    events: 300,
                    wall_secs: 0.15,
                    verified: true,
                },
            ],
            prepare_secs: 0.01,
        }
    }

    #[test]
    fn aggregates_sum_runs() {
        let r = fake_report();
        assert_eq!(r.total_events(), 800);
        assert!((r.total_wall_secs() - 0.4).abs() < 1e-12);
        assert!((r.events_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrips_aggregates_via_parse_baseline() {
        let r = fake_report();
        let json = perf_json(&r, None, None);
        let b = parse_baseline(&json).expect("baseline parses");
        assert_eq!(b.total_events, 800);
        assert!((b.events_per_sec - 2000.0).abs() < 1e-6);
        // And a report written *with* that baseline records the speedup.
        let json2 = perf_json(&r, Some(&b), None);
        assert!(json2.contains("\"speedup_events_per_sec\": 1"));
        assert!(json2.contains("\"baseline\": {"));
    }

    #[test]
    fn parse_baseline_rejects_malformed_input() {
        // Truncated mid-document: a prefix of real output.
        let full = perf_json(&fake_report(), None, None);
        assert!(parse_baseline(&full[..full.len() / 2]).is_none());
        // Not JSON at all.
        assert!(parse_baseline("").is_none());
        assert!(parse_baseline("not json {").is_none());
        // Valid JSON, wrong schema.
        assert!(parse_baseline("{\"bench\": \"other-tool\"}").is_none());
        assert!(parse_baseline("{\"current\": {\"total_events\": 1}}").is_none());
        // Right marker but missing aggregates.
        assert!(parse_baseline("{\"bench\": \"commsense-perf\"}").is_none());
        // Right shape, non-numeric aggregate.
        assert!(parse_baseline(
            "{\"bench\": \"commsense-perf\", \"current\": {\"total_events\": \"x\", \
             \"total_wall_secs\": 1.0, \"events_per_sec\": 2.0}}"
        )
        .is_none());
        // Negative or fractional event counts cannot be a u64 total.
        assert!(parse_baseline(
            "{\"bench\": \"commsense-perf\", \"current\": {\"total_events\": -3, \
             \"total_wall_secs\": 1.0, \"events_per_sec\": 2.0}}"
        )
        .is_none());
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let r = fake_report(); // 0.4 s total wall
        let fast = PerfBaseline {
            total_events: 800,
            total_wall_secs: 0.365,
            events_per_sec: 2200.0,
            runs: Vec::new(),
        };
        // 0.4 s vs 0.365 s is a 9.6% rise: inside a 10% gate, outside a 5% one.
        assert!(check_gate(&r, &fast, 10.0).is_ok());
        assert!(check_gate(&r, &fast, 5.0).is_err());
        let zero = PerfBaseline {
            total_events: 0,
            total_wall_secs: 0.0,
            events_per_sec: 0.0,
            runs: Vec::new(),
        };
        assert!(check_gate(&r, &zero, 10.0).is_err());
    }

    #[test]
    fn gate_accepts_fewer_events_in_less_wall_time() {
        // A change that drops a third of the events and a sixth of the wall
        // time lowers events/sec by ~20%: the wall-time gate must pass it.
        let base = fake_report().as_baseline();
        let mut faster = fake_report();
        for run in &mut faster.runs {
            run.events = run.events * 2 / 3;
            run.wall_secs *= 5.0 / 6.0;
        }
        assert!(faster.events_per_sec() < 0.85 * base.events_per_sec);
        assert!(check_gate(&faster, &base, 10.0).is_ok());
        // The same events in 20% more wall time (a planted slowdown) fails.
        let mut slower = fake_report();
        for run in &mut slower.runs {
            run.wall_secs *= 1.2;
        }
        assert!(check_gate(&slower, &base, 10.0).is_err());
    }

    #[test]
    fn text_report_lists_every_mechanism() {
        let r = fake_report();
        let txt = perf_text(&r, Some(&r.as_baseline()));
        assert!(txt.contains("sm"));
        assert!(txt.contains("mp-poll"));
        assert!(txt.contains("speedup 1.00x"));
    }

    #[test]
    fn baseline_runs_roundtrip_and_gate_breakdown() {
        let r = fake_report();
        // as_baseline and the JSON round-trip both carry per-run rows.
        let b = parse_baseline(&perf_json(&r, None, None)).expect("parses");
        assert_eq!(b.runs.len(), 2);
        assert_eq!(b.runs[0].mechanism, "sm");
        assert_eq!(b.runs[0].events, 500);
        assert_eq!(b, r.as_baseline());
        // A failing gate names each mechanism with current vs baseline times.
        let fast = PerfBaseline {
            total_wall_secs: 0.2,
            ..r.as_baseline()
        };
        let err = check_gate(&r, &fast, 10.0).expect_err("doubled wall time fails");
        assert!(err.contains("per-mechanism breakdown"), "{err}");
        assert!(err.contains("sm"), "{err}");
        assert!(err.contains("mp-poll"), "{err}");
        // Aggregate-only baselines (pre-PR7 files) degrade gracefully.
        let old = PerfBaseline {
            runs: Vec::new(),
            ..fast
        };
        let err = check_gate(&r, &old, 10.0).expect_err("still fails");
        assert!(err.contains("aggregate-only baseline"), "{err}");
    }

    #[test]
    fn scaled_section_is_emitted_and_ignored_by_baseline_parsing() {
        let r = fake_report();
        let scaled = ScaledReport {
            topo: "torus".to_string(),
            nodes: 256,
            report: fake_report(),
        };
        let json = perf_json(&r, None, Some(&scaled));
        assert!(json.contains("\"scaled\": {"));
        assert!(json.contains("\"topo\": \"torus\""));
        assert!(json.contains("\"nodes\": 256"));
        // The gate baseline comes from the default config only.
        let b = parse_baseline(&json).expect("parses");
        assert_eq!(b.total_events, 800);
        // Without the flags the section is an explicit null.
        assert!(perf_json(&r, None, None).contains("\"scaled\": null"));
    }

    #[test]
    fn profile_csv_shape() {
        let runs = vec![ProfiledRun {
            mechanism: "sm",
            profile: commsense_machine::DispatchProfile {
                kinds: vec![commsense_machine::DispatchKindProfile {
                    kind: "wake",
                    events: 200,
                    self_secs: 0.0001,
                }],
                batches: 40,
            },
        }];
        let csv = profile_csv(&runs);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "mechanism,kind,events,self_secs,ns_per_event,batches"
        );
        assert_eq!(lines.next().unwrap(), "sm,wake,200,0.000100,500.0,40");
        assert_eq!(lines.next(), None);
    }
}
