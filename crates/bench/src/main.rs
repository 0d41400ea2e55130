//! The one experiment entry point.
//!
//! ```text
//! cargo run --release -p cbes-bench -- <experiment|all|list> [--full] [--runs N] [--seed S]
//! ```
//!
//! A named experiment prints its report. `all` runs the whole
//! [`EXPERIMENTS`] table in process and writes `results/<artifact>.json`
//! for every artifact plus the collected `results/REPORT.md`, or the same
//! under `results/full/` with `--full`; at the default seed the JSON it
//! writes is byte-identical run to run, which is what CI's
//! `reproduction` and `paper-scale` steps check with `git diff --exit-code`.

#![forbid(unsafe_code)]
#![allow(clippy::disallowed_methods, reason = "timing is this crate's job")]

use std::fmt::Write as _;
use std::io::Write as _;

use cbes_bench::args::ExpArgs;
use cbes_bench::{find, listing, save_json, usage, EXPERIMENTS, FULL_RESULTS_DIR, RESULTS_DIR};

fn all(args: &ExpArgs, dir: &str) -> std::io::Result<()> {
    let flag = if args.full { " --full" } else { "" };
    let mut report = format!(
        "# CBES experiment report\n\n\
         Generated by `cargo run --release -p cbes-bench -- all{flag}`, one section\n\
         per row of the experiment table (DESIGN.md §4). Scheduler-time\n\
         columns are wall-clock and differ run to run; everything in\n\
         `{dir}/*.json` is determined by the seed. Paper-vs-measured\n\
         commentary lives in EXPERIMENTS.md.\n",
    );
    for e in EXPERIMENTS {
        print!("running {} ... ", e.name);
        std::io::stdout().flush()?;
        let started = std::time::Instant::now();
        let r = (e.run)(args);
        for (name, json) in &r.artifacts {
            save_json(dir, name, json)?;
        }
        let _ = write!(
            report,
            "\n## {}\n\n```text\n{}\n```\n",
            e.title,
            r.text.trim()
        );
        println!("ok ({:.1}s)", started.elapsed().as_secs_f64());
    }
    let path = format!("{dir}/REPORT.md");
    std::fs::write(&path, report)?;
    println!("all {} experiments complete; see {path}", EXPERIMENTS.len());
    Ok(())
}

fn main() {
    let usage_error = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2)
    };
    let (target, args) = match ExpArgs::parse_from(std::env::args().skip(1)) {
        Ok((Some(target), args)) => (target, args),
        Ok((None, _)) => usage_error(usage()),
        Err(msg) => usage_error(format!("{msg}\n{}", usage())),
    };
    match target.as_str() {
        "list" => print!("{}", listing()),
        "all" => {
            let dir = if args.full {
                FULL_RESULTS_DIR
            } else {
                RESULTS_DIR
            };
            if let Err(e) = all(&args, dir) {
                eprintln!("cannot write {dir}/: {e}");
                std::process::exit(1);
            }
        }
        name => match find(name) {
            Ok(e) => print!("{}", (e.run)(&args).text),
            Err(msg) => usage_error(msg),
        },
    }
}
