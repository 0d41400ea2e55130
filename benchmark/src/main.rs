//! The CBES serving benchmark. See `benchmark/README.md`.
//!
//! ```text
//! cbes-benchmark [run] [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! cbes-benchmark repeat [--seed S] [--seconds N]
//! ```
//!
//! `run` without `--workload` runs all five workloads. With one
//! workload the last line of standard output is the result object of
//! the benchmark contract. `repeat` runs every workload six times,
//! alternately for set A and set B, and compares the sets' medians
//! against the bounds in `BENCHMARK.json`. The exit code is non-zero
//! when any output failed verification or any operation failed.

#![forbid(unsafe_code)]

mod gen;
mod layers;
mod loadgen;
mod report;
mod run;
mod spans;
mod stats;
mod tier;

use std::path::Path;
use std::process::ExitCode;

use serde_json::{json, Value};

use gen::Workload;
use report::{find, metrics_json, result_line, Metric};
use run::{run_workload, Config, Report, FASTEST_ONE_IN, SETUPS, SLICE, WARMUP};
use stats::median;

const USAGE: &str = "usage: cbes-benchmark [run] [--workload NAME] [--seed S] [--seconds N] \
                     [--trace 0|1] [--out FILE]\n       cbes-benchmark repeat [--seed S] [--seconds N]";

struct Args {
    repeat: bool,
    workloads: Vec<Workload>,
    cfg: Config,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        repeat: false,
        workloads: Workload::ALL.to_vec(),
        cfg: Config {
            seed: 1,
            seconds: 15.0,
            traced: false,
        },
        out: None,
    };
    let mut argv = std::env::args().skip(1).peekable();
    match argv.peek().map(String::as_str) {
        Some("run") => drop(argv.next()),
        Some("repeat") => {
            args.repeat = true;
            argv.next();
        }
        _ => {}
    }
    while let Some(flag) = argv.next() {
        if args.repeat && !matches!(flag.as_str(), "--seed" | "--seconds") {
            return Err(format!("repeat does not take {flag:?}"));
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => args.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.cfg.seconds = value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?;
            }
            "--trace" => {
                args.cfg.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = Some(value),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

fn print_report(r: &Report, cfg: Config) {
    let w = r.workload;
    println!(
        "\n== {}: closed loop, 1 client thread, 1 connection, pipeline depth {}, \
         loopback TCP{} ==",
        w.name(),
        w.depth(),
        if w.routed() {
            ", through the router to 2 daemons"
        } else {
            ""
        }
    );
    println!(
        "  seed {}, {SETUPS} set-ups, {} s warm-up, {} slices of {} ms{}; setup_s, req_per_s and \
         latency come from the fastest 1 in {FASTEST_ONE_IN} set-ups and slices",
        cfg.seed,
        WARMUP.as_secs(),
        cfg.slices(),
        SLICE.as_millis(),
        if cfg.traced {
            " (odd slices trace-stamped, not in the end-to-end values)"
        } else {
            ""
        }
    );
    if w.depth() == 1 {
        println!(
            "  {}",
            if find(&r.context, "lockstep_core_hog") == Some(1.0) {
                "2 cores: a spinning thread held one, client and daemon shared the other"
            } else {
                "not 2 cores: no spinning thread, so round trips include idle wake-ups"
            }
        );
    }
    print_metrics(&r.end_to_end);
    print_metrics(&r.context);
    println!("  {:<34} {:>16}", "ops_attempted", r.attempted);
    println!("  {:<34} {:>16}", "ops_failed", r.failed);
    if let Some(why) = &r.first_failure {
        println!("  FIRST FAILURE: {why}");
    }
    if !r.layers.is_empty() {
        println!("  -- per layer --");
        print_metrics(&r.layers);
        let get = |name| find(&r.layers, name).unwrap_or(f64::NAN);
        let rate = find(&r.end_to_end, "req_per_s").unwrap_or(f64::NAN);
        println!(
            "  where the time goes: decode {:.2} + evaluate {:.2} + encode {:.2} + io_residual {:.2} \
             = {:.2} us = 1e6 / {rate:.0} req/s",
            get("protocol.decode_us"),
            get("core.evaluate_us"),
            get("protocol.encode_us"),
            get("server.io_residual_us"),
            1e6 / rate,
        );
    }
}

fn report_json(r: &Report) -> Value {
    json!({
        "workload": r.workload.name(),
        "correct": r.correct(),
        "ops_attempted": r.attempted,
        "ops_failed": r.failed,
        "end_to_end": metrics_json(&r.end_to_end),
        "context": metrics_json(&r.context),
        "per_layer": metrics_json(&r.layers),
    })
}

/// Run the chosen workloads in order, printing each as it finishes.
fn run_suite(args: &Args) -> Result<Vec<Report>, String> {
    let mut reports = Vec::new();
    for &workload in &args.workloads {
        let report = run_workload(workload, args.cfg)?;
        print_report(&report, args.cfg);
        reports.push(report);
    }
    Ok(reports)
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end")?;
    metrics
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("better")?.as_str()? == "higher",
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "BENCHMARK.json end_to_end entries need name, better, bound".to_string())
}

const INCORRECT: &str = "an output failed verification or an operation failed";

/// Runs of each workload in one set of `repeat`.
const REPEAT_RUNS: usize = 3;

/// Two sets of runs on one build. The runs of a workload alternate
/// between the sets (A B A B A B), so both meet the same phases of the
/// host; a set's value is the median over its runs. No end-to-end
/// metric may disagree between the sets by more than its bound, in
/// either direction.
fn repeat(args: &Args) -> Result<(), String> {
    let bounds = bounds()?;
    let mut pairs = Vec::new();
    for &workload in &args.workloads {
        let mut sets = [Vec::new(), Vec::new()];
        for run in 1..=REPEAT_RUNS {
            for (set, reports) in ["A", "B"].iter().zip(&mut sets) {
                println!("\n#### set {set}, run {run} of {REPEAT_RUNS}");
                let report = run_workload(workload, args.cfg)?;
                print_report(&report, args.cfg);
                reports.push(report);
            }
        }
        pairs.push((workload, sets));
    }
    if !pairs
        .iter()
        .flat_map(|(_, sets)| sets.iter().flatten())
        .all(Report::correct)
    {
        return Err(INCORRECT.to_string());
    }
    println!(
        "\nmedians of {REPEAT_RUNS} alternating runs\n{:<18} {:<16} {:>12} {:>12} {:>9} {:>7}",
        "workload", "metric", "set A", "set B", "B worse", "bound"
    );
    let mut outside = 0;
    for (workload, sets) in &pairs {
        for (name, higher_is_better, bound) in &bounds {
            let of_set = |reports: &[Report]| {
                let values: Option<Vec<f64>> =
                    reports.iter().map(|r| find(&r.end_to_end, name)).collect();
                values.map(|v| median(&v))
            };
            let (va, vb) = match (of_set(&sets[0]), of_set(&sets[1])) {
                (Some(va), Some(vb)) => (va, vb),
                _ => return Err(format!("a run did not report {name}")),
            };
            let worse = if *higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let within = worse.abs() <= *bound;
            outside += usize::from(!within);
            println!(
                "{:<18} {:<16} {:>12.4} {:>12.4} {:>8.2}% {:>6.0}%{}",
                workload.name(),
                name,
                va,
                vb,
                100.0 * worse,
                100.0 * bound,
                if within { "" } else { "  OUTSIDE" }
            );
        }
    }
    if outside > 0 {
        return Err(format!(
            "{outside} metrics differ between the sets by more than their bound"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    // Anomaly dumps of the daemons' flight recorder must stay inside the checkout.
    std::env::set_var(
        cbes_obs::flight::FLIGHT_DIR_ENV,
        run::out_dir().join("flight"),
    );
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = report::host();
    println!("cbes-benchmark: host {host}");
    let outcome = if args.repeat {
        repeat(&args)
    } else {
        run_suite(&args).and_then(|reports| {
            if let Some(path) = &args.out {
                let doc = json!({
                    "host": host,
                    "seed": args.cfg.seed,
                    "seconds": args.cfg.seconds,
                    "slice_ms": SLICE.as_millis() as u64,
                    "slices": args.cfg.slices(),
                    "fastest_one_in": FASTEST_ONE_IN,
                    "setups": SETUPS,
                    "traced": args.cfg.traced,
                    "workloads": reports.iter().map(report_json).collect::<Vec<_>>(),
                });
                std::fs::write(path, doc.to_pretty_string()).map_err(|e| format!("{path}: {e}"))?;
            }
            if let [only] = reports.as_slice() {
                let metrics = if args.cfg.traced {
                    &only.layers
                } else {
                    &only.end_to_end
                };
                println!(
                    "{}",
                    result_line(only.correct(), only.attempted, only.failed, metrics)
                );
            }
            if reports.iter().all(Report::correct) {
                Ok(())
            } else {
                Err(INCORRECT.to_string())
            }
        })
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
