//! `wsn_perf`: one end-to-end benchmark of the WSN-DSE stack, with
//! per-layer timings, over four named workloads (see `README.md` here).
//!
//! One workload, in this process (the form a benchmark harness runs):
//!
//! ```text
//! wsn_perf --workload paper_cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! prints every metric as `workload metric value unit`, then one JSON
//! result line, and exits non-zero when an output check failed. With
//! `--trace 1` it records spans and prints the per-layer metrics instead
//! of the end-to-end ones; `--trace-out FILE` also writes the spans as
//! JSONL.
//!
//! Without `--workload`, or with `--runs N`, it runs every workload (or
//! the one named) N times, each run in a fresh child process with the
//! next seed, alternating the workload order, and prints each metric's
//! median and quartiles against its regression bound, then a JSON summary
//! with the machine context.
//!
//! Run from the repository root with:
//! `cargo run --release --manifest-path crates/bench/src/bin/wsn_perf/Cargo.toml -- --runs 3`

mod fleet_city;
mod harness;
mod paper_cold;
mod pareto_adaptive;
mod procfs;
mod serve_mix;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use wsn_dse::protocol::{json_string, parse_json, Json};

use crate::harness::{Measured, Options};

/// Workload names, in the order a set of runs visits them.
const WORKLOADS: [&str; 4] = ["paper_cold", "fleet_city", "serve_mix", "pareto_adaptive"];

/// The end-to-end metrics an untraced run reports: name, unit and the
/// regression bound `--runs` compares spreads with. `BENCHMARK.json`
/// lists the same metrics; a test keeps the two equal.
const END_TO_END: &[(&str, &str, f64)] = &[
    ("jobs_per_s", "1/s", 0.25),
    ("job_p50_ms", "ms", 0.25),
    ("job_p90_ms", "ms", 0.25),
    ("cpu_ms_per_job", "ms", 0.25),
    ("peak_rss_mb", "MB", 0.1),
    ("setup_s", "s", 0.25),
];

/// The per-layer metrics a traced run reports: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("engine.calls", "count"),
    ("engine.share", "ratio"),
    ("engine.sim_s_per_busy_s", "s/s"),
    ("pool.parallel_efficiency", "ratio"),
    ("pool.overhead_share", "ratio"),
    ("cache.hits", "count"),
    ("cache.inserts", "count"),
    ("cache.hit_ratio", "ratio"),
    ("doe.share", "ratio"),
    ("rsm.share", "ratio"),
    ("optim.share", "ratio"),
    ("channel.share", "ratio"),
    ("channel.packets", "count"),
    ("channel.collided_ratio", "ratio"),
    ("pareto.non_engine_share", "ratio"),
    ("report.share", "ratio"),
    ("report.to_json_us", "us"),
    ("serve.transport_share", "ratio"),
    ("serve.queue_wait_share", "ratio"),
    ("serve.run_share", "ratio"),
    ("protocol.share", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Jobs every run completes, however long they take; see
/// [`Options::min_jobs`].
const MIN_JOBS: usize = 100;

const USAGE: &str = "usage: wsn_perf [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-out FILE] [--runs N]";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    runs: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        trace_out: None,
        runs: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                parsed.workload = Some(value.clone());
            }
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                };
            }
            "--trace-out" => parsed.trace_out = Some(value.clone()),
            "--runs" => {
                parsed.runs = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&n| n > 0)
                        .ok_or_else(|| bad("a positive integer"))?,
                );
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(parsed)
}

/// One reported metric.
#[derive(Debug)]
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    /// The regression bound, for end-to-end metrics.
    bound: Option<f64>,
}

/// The metrics a traced (`true`) or an untraced run reports.
fn metric_defs(traced: bool) -> Vec<MetricDef> {
    if traced {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| MetricDef {
                name,
                unit,
                bound: None,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, bound)| MetricDef {
                name,
                unit,
                bound: Some(bound),
            })
            .collect()
    }
}

fn run_workload(name: &str, opts: &Options) -> Result<Measured, String> {
    match name {
        "paper_cold" => paper_cold::run(opts),
        "fleet_city" => fleet_city::run(opts),
        "serve_mix" => serve_mix::run(opts),
        "pareto_adaptive" => pareto_adaptive::run(opts),
        _ => Err(format!("unknown workload {name:?}")),
    }
}

/// The end-to-end metrics of a run.
fn end_to_end(m: &Measured) -> Vec<(&'static str, f64)> {
    let mut latencies: Vec<f64> = m.jobs.iter().map(|j| j.0).collect();
    latencies.sort_by(f64::total_cmp);
    let done = latencies.len() as f64;
    let per_s = m
        .sustained_per_s
        .unwrap_or_else(|| harness::ratio(done, m.window.as_secs_f64()));
    vec![
        ("jobs_per_s", per_s),
        ("job_p50_ms", stats::percentile(&latencies, 50.0)),
        ("job_p90_ms", stats::percentile(&latencies, 90.0)),
        (
            "cpu_ms_per_job",
            harness::ratio(m.cpu.as_secs_f64() * 1e3, done),
        ),
        ("peak_rss_mb", procfs::peak_rss_mb()),
        ("setup_s", m.setup_s),
    ]
}

/// The per-layer metrics of a traced run: the workload's own, plus how
/// late the load generator started jobs.
fn per_layer(m: &Measured) -> Vec<(&'static str, f64)> {
    let mut late = m.late_ms.clone();
    late.sort_by(f64::total_cmp);
    let mut layers = m.layers.clone();
    layers.push(("loadgen.late_p99_ms", stats::percentile(&late, 99.0)));
    layers
}

/// The result line: every metric of `defs` with its unit. Metrics a
/// workload does not measure (a layer it bypasses) read 0, and so does a
/// non-finite value, which JSON cannot spell (the caller reports such a
/// run as not correct).
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(d.name),
                values
                    .get(d.name)
                    .copied()
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0),
                json_string(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    )
}

fn warn_if_loaded(load: f64, nproc: usize) {
    if load > nproc as f64 {
        eprintln!("wsn_perf: warning: load average {load} exceeds the {nproc} processors");
    }
}

/// Runs one workload in this process and prints its metrics. Returns
/// whether every output check passed.
fn single(args: &Args, workload: &str) -> bool {
    let defs = metric_defs(args.trace);
    let opts = Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        min_jobs: MIN_JOBS,
    };
    let nproc = procfs::nproc();
    let load_start = procfs::loadavg();
    warn_if_loaded(load_start, nproc);
    let m = match run_workload(workload, &opts) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("wsn_perf: {workload}: set-up failed: {e}");
            println!("{}", result_line(false, 1, 1, &defs, &BTreeMap::new()));
            return false;
        }
    };
    let load_end = procfs::loadavg();
    warn_if_loaded(load_end, nproc);
    for e in &m.errors {
        eprintln!("wsn_perf: {workload}: {e}");
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = trace::write_jsonl(path, &m.spans) {
            eprintln!("wsn_perf: cannot write {path}: {e}");
        }
    }
    let values: BTreeMap<&str, f64> = if args.trace {
        per_layer(&m)
    } else {
        end_to_end(&m)
    }
    .into_iter()
    .collect();
    let finite = values.values().all(|v| v.is_finite());
    for d in &defs {
        let value = values.get(d.name).copied().unwrap_or(0.0);
        println!("{workload} {} {value} {}", d.name, d.unit);
    }
    for (name, value, unit) in &m.extra {
        println!("{workload} {name} {value} {unit}");
    }
    println!("{workload} jobs_attempted {} count", m.attempted);
    println!("{workload} jobs_failed {} count", m.failed);
    println!("{workload} output_digest {} fnv64", m.digest.hex());
    println!("{workload} nproc {nproc} count");
    println!("{workload} loadavg_start {load_start} load");
    println!("{workload} loadavg_end {load_end} load");
    let correct = m.failed == 0 && finite;
    println!(
        "{}",
        result_line(correct, m.attempted, m.failed, &defs, &values)
    );
    correct
}

/// One child run, as read back from its output.
#[derive(Debug, Default)]
struct ChildRun {
    correct: bool,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn parse_child(workload: &str, stdout: &str) -> Result<ChildRun, String> {
    let mut run = ChildRun::default();
    let prefix = format!("{workload} output_digest ");
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix(&prefix) {
            run.digest = rest
                .split_whitespace()
                .next()
                .unwrap_or_default()
                .to_owned();
        }
    }
    let last = stdout.lines().last().ok_or("no output")?;
    let doc = parse_json(last).map_err(|e| e.message)?;
    run.correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
    run.failed = doc.get("failed").and_then(Json::as_u64).unwrap_or(0);
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("result line without metrics".to_owned());
    };
    for (name, metric) in metrics {
        let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        run.metrics.insert(name.clone(), value);
    }
    Ok(run)
}

/// Runs `rounds` sets of runs, each workload in a fresh child process,
/// and prints the spread of every metric. Returns whether every run
/// passed its checks.
fn repeated(args: &Args) -> bool {
    let rounds = args.runs.unwrap_or(1);
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let defs = metric_defs(args.trace);
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wsn_perf: cannot find this executable: {e}");
            return false;
        }
    };
    let nproc = procfs::nproc();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load_start = procfs::loadavg();
    warn_if_loaded(load_start, nproc);

    let mut ok = true;
    let mut results: BTreeMap<&str, Vec<(u64, ChildRun)>> = BTreeMap::new();
    for round in 0..rounds {
        let seed = args.seed + round as u64;
        let mut order = workloads.clone();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let mut command = Command::new(&exe);
            command
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit());
            if let Some(prefix) = &args.trace_out {
                command.args(["--trace-out", &format!("{prefix}{workload}-{seed}.jsonl")]);
            }
            let run = command.output().map_err(|e| e.to_string()).and_then(|out| {
                let stdout = String::from_utf8_lossy(&out.stdout);
                print!("{stdout}");
                let run = parse_child(workload, &stdout)?;
                Ok((out.status.success(), run))
            });
            match run {
                Ok((success, run)) => {
                    ok &= success && run.correct;
                    results.entry(workload).or_default().push((seed, run));
                }
                Err(e) => {
                    eprintln!("wsn_perf: {workload} seed {seed}: {e}");
                    ok = false;
                }
            }
        }
    }
    let load_end = procfs::loadavg();
    warn_if_loaded(load_end, nproc);

    println!(
        "{:<16} {:<26} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut summary = Vec::new();
    for (workload, runs) in &results {
        let mut rows = Vec::new();
        for d in &defs {
            let values: Vec<f64> = runs
                .iter()
                .map(|(_, r)| r.metrics.get(d.name).copied().unwrap_or(0.0))
                .collect();
            let (q1, median, q3) = stats::quartiles(&values);
            let spread = harness::ratio(q3 - q1, median);
            let bound = d.bound.map_or("-".to_owned(), |b| format!("{b}"));
            println!(
                "{workload:<16} {:<26} {median:>12.4} {q1:>12.4} {q3:>12.4} {spread:>8.4} {bound:>6}",
                d.name
            );
            rows.push(format!(
                "{}:{{\"median\":{median},\"q1\":{q1},\"q3\":{q3},\"spread\":{spread},\"bound\":{}}}",
                json_string(d.name),
                d.bound.map_or("null".to_owned(), |b| b.to_string())
            ));
        }
        let digests: Vec<String> = runs
            .iter()
            .map(|(seed, r)| format!("\"{seed}\":{}", json_string(&r.digest)))
            .collect();
        let failed: u64 = runs.iter().map(|(_, r)| r.failed).sum();
        summary.push(format!(
            "{}:{{\"failed\":{failed},\"digests\":{{{}}},\"metrics\":{{{}}}}}",
            json_string(workload),
            digests.join(","),
            rows.join(",")
        ));
    }
    println!(
        "{{\"runs\":{rounds},\"seconds\":{},\"trace\":{},\"machine\":{{\"nproc\":{nproc},\
         \"available_parallelism\":{parallelism},\"loadavg_start\":{load_start},\
         \"loadavg_end\":{load_end}}},\"workloads\":{{{}}}}}",
        args.seconds,
        args.trace,
        summary.join(",")
    );
    ok
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("wsn_perf: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let ok = match (&args.workload, args.runs) {
        (Some(workload), None) => single(&args, workload),
        _ => repeated(&args),
    };
    std::process::exit(if ok { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = parse_args(&strings(&[
            "--workload",
            "serve_mix",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid arguments");
        assert_eq!(args.workload.as_deref(), Some("serve_mix"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "-1"],
            &["--runs", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    type Listed = Vec<(String, String, Option<f64>)>;

    /// `(name, unit, bound)` of every metric in `BENCHMARK.json`'s `key`
    /// list.
    fn listed(doc: &Json, key: &str) -> Listed {
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list")
        };
        let text = |item: &Json, field| {
            let value = item.get(field).and_then(Json::as_str);
            value.expect("a string field").to_owned()
        };
        items
            .iter()
            .map(|item| {
                let bound = item.get("bound").and_then(Json::as_f64);
                (text(item, "name"), text(item, "unit"), bound)
            })
            .collect()
    }

    fn defined(traced: bool) -> Listed {
        metric_defs(traced)
            .into_iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned(), d.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_metrics_this_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = parse_json(&text).expect("BENCHMARK.json is valid JSON");
        assert_eq!(listed(&doc, "end_to_end"), defined(false));
        assert_eq!(listed(&doc, "per_layer"), defined(true));

        let e2e = metric_defs(false);
        let reported: Vec<&str> = end_to_end(&Measured::default())
            .iter()
            .map(|m| m.0)
            .collect();
        assert_eq!(e2e.iter().map(|d| d.name).collect::<Vec<_>>(), reported);
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = e2e.iter().find(|d| d.name == "setup_s").expect("setup_s");
        assert!(e2e.iter().all(|d| d.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let defs = vec![
            MetricDef {
                name: "a",
                unit: "ms",
                bound: Some(0.1),
            },
            MetricDef {
                name: "b",
                unit: "count",
                bound: None,
            },
        ];
        let values = BTreeMap::from([("a", 1.25)]);
        let line = result_line(true, 0, 0, &defs, &values);
        let run = parse_child("w", &format!("w output_digest 00ff fnv64\n{line}\n"))
            .expect("parsable result line");
        assert!(run.correct);
        assert_eq!(run.digest, "00ff");
        assert_eq!(run.metrics["a"], 1.25);
        assert_eq!(run.metrics["b"], 0.0);
        assert!(line.contains("\"attempted\":1"));
    }

    /// A run of 3 jobs (per rate, on an open loop) of `workload`,
    /// untraced then traced: no failures, the
    /// same digest both ways, and only per-layer metrics that are listed.
    fn smoke(workload: &str) {
        let layer_defs = metric_defs(true);
        let mut digests = Vec::new();
        for trace in [false, true] {
            let opts = Options {
                seed: 5,
                seconds: 0.0,
                trace,
                min_jobs: 3,
            };
            let m = run_workload(workload, &opts).expect("set-up succeeds");
            // An open loop runs `min_jobs` at each of its rates.
            assert!(m.attempted >= 3);
            assert_eq!(m.failed, 0, "{:?}", m.errors);
            assert_eq!(m.jobs.len() as u64, m.attempted);
            assert!(m.setup_s > 0.0);
            digests.push(m.digest);
            if trace {
                assert!(!m.spans.is_empty());
                for (name, value) in per_layer(&m) {
                    assert!(
                        layer_defs.iter().any(|d| d.name == name),
                        "{name} is not a listed per-layer metric"
                    );
                    assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
                }
            }
        }
        assert_eq!(digests[0], digests[1], "tracing changed the output");
    }

    #[test]
    fn paper_cold_smoke() {
        smoke("paper_cold");
    }

    #[test]
    fn fleet_city_smoke() {
        smoke("fleet_city");
    }

    #[test]
    fn serve_mix_smoke() {
        smoke("serve_mix");
    }

    #[test]
    fn pareto_adaptive_smoke() {
        smoke("pareto_adaptive");
    }
}
