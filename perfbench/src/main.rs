//! Wall time to a figure, attributed layer by layer.
//!
//! ```text
//! perfbench --workload fig8-bisection|fig10-latency|serve-mixed
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! perfbench compare RESULT_A.json RESULT_B.json
//! ```
//!
//! A run repeats its workload for `--seconds`, checks every output, prints
//! each metric by name, writes a result file (with the seed and the host
//! fingerprint) under `--out`, and ends with one JSON line holding
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer ones, from untraced and traced repeats of the same run, and
//! the traced repeats' spans are written out as a Chrome trace. The exit
//! code is non-zero when any output check fails.
//!
//! `compare` prints metric ratios between two result files, and refuses
//! when they were measured on different hosts or compilers.

mod common;
mod host;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use commsense_core::json::{push_escaped, Json};

use common::{Digest, Metrics};
use host::Fingerprint;
use stats::Tally;
use trace::Recorder;

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["fig8-bisection", "fig10-latency", "serve-mixed"];

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_latency_s_p50", "s"),
    ("job_latency_s_tail", "s"),
    ("first_point_s_p50", "s"),
];

/// Per-layer metrics: `(name, unit)`.
const PER_LAYER: [(&str, &str); 48] = [
    ("failed_frac", "ratio"),
    ("apps.prepare_s", "s"),
    ("engine.overhead_s", "s"),
    ("machine.sim_s", "s"),
    ("machine.events", "count"),
    ("machine.ns_per_event", "ns"),
    ("machine.run_s_p50", "s"),
    ("machine.run_s_tail", "s"),
    ("accounting.residual_frac", "ratio"),
    ("machine.wake_s", "s"),
    ("machine.wake_events", "count"),
    ("mesh.try_hop_s", "s"),
    ("mesh.try_hop_events", "count"),
    ("mesh.link_free_s", "s"),
    ("mesh.link_free_events", "count"),
    ("mesh.deliver_s", "s"),
    ("mesh.deliver_events", "count"),
    ("mesh.cross_tick_s", "s"),
    ("mesh.cross_tick_events", "count"),
    ("cache.proto_s", "s"),
    ("cache.proto_events", "count"),
    ("cache.fill_prefetch_s", "s"),
    ("cache.fill_prefetch_events", "count"),
    ("des.loop_s", "s"),
    ("trace.sim_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("mesh.share", "ratio"),
    ("cache.share", "ratio"),
    ("machine.wake_share", "ratio"),
    ("des.loop_share", "ratio"),
    ("sim.cycles", "cycles"),
    ("cache.misses", "count"),
    ("cache.invalidations", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.prefetch_useful_ratio", "ratio"),
    ("mesh.packets", "count"),
    ("mesh.bisection_bytes", "bytes"),
    ("store.hits", "count"),
    ("store.writes", "count"),
    ("store.bytes", "bytes"),
    ("store.load_s_p50", "s"),
    ("store.save_s_p50", "s"),
    ("service.simulated", "count"),
    ("service.store_hits", "count"),
    ("service.inflight_hits", "count"),
    ("service.reuse_ratio", "ratio"),
    ("job_latency.samples", "count"),
    ("job_latency.tail_pct", "%"),
];

/// Repeat lanes: threads that each run whole repeats side by side, so a
/// run collects more samples of the host at its fastest. At most two, and
/// at most the host's CPUs.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Whether every output check passed.
    pub correct: bool,
    /// Digest of the simulated outputs.
    pub digest: Digest,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Rendered CSV artifacts (sweeps only), written under `--out`.
    pub csvs: Vec<(String, String)>,
    /// Spans of the traced repeats.
    pub trace: Recorder,
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10,
        trace: false,
        out: PathBuf::from(".perfbench"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(3)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let outcome = match args.workload.as_str() {
        "fig8-bisection" => Ok(sweep::run(
            sweep::Figure::Bisection,
            args.seed,
            args.seconds,
            args.trace,
            &args.out,
        )),
        "fig10-latency" => Ok(sweep::run(
            sweep::Figure::Latency,
            args.seed,
            args.seconds,
            args.trace,
            &args.out,
        )),
        _ => serve::run(args.seed, args.seconds, args.trace, &args.out),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    match report(&args, outcome) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Notes on a traced run: the layer-sum identity, and where the traced
/// repeats' host time went by span.
pub fn trace_notes(layers: &stats::Layers, rec: &Recorder) -> Vec<String> {
    let mut notes = vec![format!(
        "layers + des.loop_s = {:.6} s of trace.sim_s {:.6} s",
        layers.total_secs(),
        layers.sim_secs
    )];
    let spans = trace::self_by_name(rec.spans());
    let parts: Vec<String> = spans.iter().map(|(n, s)| format!("{n} {s:.4}")).collect();
    notes.push(format!("span self time (s): {}", parts.join(", ")));
    notes
}

/// Prints the run, writes its result, CSV and trace files, and returns
/// whether every check passed.
fn report(args: &Args, mut o: Outcome) -> std::io::Result<bool> {
    let fp = Fingerprint::current();
    let catalog: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = if args.trace { &o.layers } else { &o.e2e };
    let mut values = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        match metrics.get(name) {
            Some(v) if v.is_finite() => values.push((name, v, unit)),
            other => {
                o.notes.push(format!("metric {name} is {other:?}"));
                o.correct = false;
                values.push((name, 0.0, unit));
            }
        }
    }
    let correct = o.correct && o.tally.failed == 0 && o.tally.attempted > 0;

    println!(
        "# host: nproc={} cpu={:?} rustc={:?} commit={}",
        fp.nproc, fp.cpu, fp.rustc, fp.commit
    );
    println!(
        "# workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!("# digest {}", o.digest.hex());
    for n in &o.notes {
        println!("# {n}");
    }
    for (name, v, unit) in &values {
        println!("{name:<32} {v:>18.9} {unit}");
    }

    let mut line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.tally.attempted, o.tally.failed
    );
    for (i, (name, v, unit)) in values.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        line.push_str(&format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    line.push_str("}}");

    let stem = format!(
        "{}-seed{}-trace{}-{}",
        args.workload,
        args.seed,
        args.trace as u8,
        std::process::id()
    );
    let results = args.out.join("results");
    std::fs::create_dir_all(&results)?;
    let mut file = String::from("{\"workload\": ");
    push_escaped(&mut file, &args.workload);
    file.push_str(&format!(
        ", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"digest\": \"{}\", \"fingerprint\": {{\"nproc\": {}, \"cpu\": ",
        args.seed,
        args.seconds,
        args.trace as u8,
        o.digest.hex(),
        fp.nproc
    ));
    push_escaped(&mut file, &fp.cpu);
    file.push_str(", \"rustc\": ");
    push_escaped(&mut file, &fp.rustc);
    file.push_str(", \"commit\": ");
    push_escaped(&mut file, &fp.commit);
    file.push_str("}, \"notes\": [");
    for (i, n) in o.notes.iter().enumerate() {
        if i > 0 {
            file.push_str(", ");
        }
        push_escaped(&mut file, n);
    }
    file.push_str(&format!("], \"result\": {line}}}\n"));
    std::fs::write(results.join(format!("{stem}.json")), file)?;
    if !o.csvs.is_empty() {
        let dir = args.out.join("csv").join(&stem);
        std::fs::create_dir_all(&dir)?;
        for (name, body) in &o.csvs {
            std::fs::write(dir.join(name), body)?;
        }
    }
    if o.trace.enabled() {
        let traces = args.out.join("traces");
        std::fs::create_dir_all(&traces)?;
        std::fs::write(
            traces.join(format!("{stem}.trace.json")),
            o.trace.chrome_json(),
        )?;
    }
    println!("{line}");
    Ok(correct)
}

/// What `compare` reads back from a result file.
struct SavedResult {
    workload: String,
    fingerprint: Fingerprint,
    metrics: Vec<(String, f64)>,
}

fn load_result(path: &Path) -> Result<SavedResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: missing {what}", path.display()))
    };
    let fp = doc
        .get("fingerprint")
        .ok_or_else(|| format!("{}: no fingerprint", path.display()))?;
    let fingerprint = Fingerprint {
        nproc: fp.get("nproc").and_then(Json::as_u64).unwrap_or(0) as usize,
        cpu: field(fp.get("cpu"), "cpu")?,
        rustc: field(fp.get("rustc"), "rustc")?,
        commit: field(fp.get("commit"), "commit")?,
    };
    let metrics = doc
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{}: no metrics", path.display()))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(SavedResult {
        workload: field(doc.get("workload"), "workload")?,
        fingerprint,
        metrics,
    })
}

fn compare(paths: &[String]) -> Result<(), String> {
    let [a, b] = paths else {
        return Err("usage: perfbench compare A.json B.json".to_string());
    };
    let (a, b) = (load_result(Path::new(a))?, load_result(Path::new(b))?);
    if !a.fingerprint.comparable(&b.fingerprint) {
        return Err(format!(
            "refusing to compare results from different hosts: {:?} vs {:?}",
            a.fingerprint, b.fingerprint
        ));
    }
    if a.workload != b.workload {
        return Err(format!(
            "refusing to compare workload {} with {}",
            a.workload, b.workload
        ));
    }
    println!("{:<32} {:>16} {:>16} {:>9}", "metric", "A", "B", "B/A");
    for (name, va) in &a.metrics {
        if let Some((_, vb)) = b.metrics.iter().find(|(n, _)| n == name) {
            println!("{name:<32} {va:>16.6} {vb:>16.6} {:>9.4}", vb / va);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program reports.
    #[test]
    fn catalog_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve-mixed --seed 3 --seconds 5 --trace 1",
        ))
        .unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 5, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload serve-mixed --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-mixed --seed")).is_err());
    }

    #[test]
    fn compare_refuses_other_hosts() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench")
            .join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, cpu: &str| {
            let p = dir.join(name);
            std::fs::write(
                &p,
                format!(
                    "{{\"workload\": \"fig10-latency\", \"fingerprint\": {{\"nproc\": 2, \"cpu\": \"{cpu}\", \
                     \"rustc\": \"rustc 1\", \"commit\": \"x\"}}, \"result\": {{\"metrics\": \
                     {{\"wall_s\": {{\"value\": 1.5, \"unit\": \"s\"}}}}}}}}"
                ),
            )
            .unwrap();
            p.to_string_lossy().into_owned()
        };
        let a = write("a.json", "cpu A");
        let a2 = write("a2.json", "cpu A");
        let b = write("b.json", "cpu B");
        assert!(compare(&[a.clone(), a2]).is_ok());
        let err = compare(&[a, b]).unwrap_err();
        assert!(err.contains("different hosts"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
