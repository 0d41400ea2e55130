//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each module under [`experiments`] reproduces one artifact as a pure
//! `run(&ExpArgs) -> Report`; [`EXPERIMENTS`] lists them once, in the
//! order of DESIGN.md §4, and the `cbes-bench` binary drives the table
//! (`<experiment|all|list>`). The rest is shared machinery:
//!
//! * [`harness`] — profiling, measuring (simulated "actual" runs), and
//!   predicting; thread-parallel fan-out of independent runs.
//! * [`zones`] — the Orange Grove node groups (high/medium/low speed) the
//!   LU experiments sample, and the homogeneous pool for table 3/4.
//! * [`stats`] — means, confidence intervals, percent errors.
//! * [`table`] — fixed-width tables in the paper's format.
//! * [`args`] — the tiny shared CLI (`--full`, `--runs`, `--seed`).

#![forbid(unsafe_code)]

pub mod args;
pub mod experiments;
pub mod harness;
pub mod lu_exp;
pub mod stats;
pub mod table;
pub mod zones;

use args::ExpArgs;
use experiments as exp;

/// What one experiment produces: the printed tables and commentary, and
/// the JSON artifacts (`results/<name>.json`) holding only values the
/// seed determines.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The human-readable report (may carry wall-clock columns).
    pub text: String,
    /// `(artifact name, value)` pairs.
    pub artifacts: Vec<(String, serde_json::Value)>,
}

impl Report {
    /// A report with one artifact.
    pub fn one(text: String, artifact: &str, json: serde_json::Value) -> Self {
        Report {
            text,
            artifacts: vec![(artifact.to_string(), json)],
        }
    }
}

/// One row of the experiment table.
pub struct Experiment {
    /// Command-line name, and the artifact name of single-artifact rows.
    pub name: &'static str,
    /// Section title in `results/REPORT.md`.
    pub title: &'static str,
    /// The experiment itself.
    pub run: fn(&ExpArgs) -> Report,
}

/// Every experiment, in presentation order. `list`, `all`, the order of
/// `results/REPORT.md` and the usage error all read this table.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "e10_latency_spread", title: "E10 — Cluster latency spreads (§6)", run: exp::e10_latency_spread::run },
    Experiment { name: "phase1_sweep", title: "E1 — Phase-1 synthetic sweep (§5)", run: exp::phase1_sweep::run },
    Experiment { name: "fig5_prediction_error", title: "E2 — Figure 5: prediction errors", run: exp::fig5_prediction_error::run },
    Experiment { name: "phase3_load_sensitivity", title: "E3 — Phase-3 load sensitivity (§5)", run: exp::phase3_load_sensitivity::run },
    Experiment { name: "fig6_lu_zones", title: "E4 — Figure 6: LU execution-time zones", run: exp::fig6_lu_zones::run },
    Experiment { name: "table1_lu_worst_best", title: "E5 — Table 1: LU worst vs best", run: exp::worst_best::table1 },
    Experiment { name: "table2_lu_average", title: "E6 — Table 2: LU average case", run: exp::average_case::table2 },
    Experiment { name: "fig7_distributions", title: "E7 — Figure 7: predicted-time distributions", run: exp::fig7_distributions::run },
    Experiment { name: "table3_other_worst_best", title: "E8 — Table 3: other programs, worst vs best", run: exp::worst_best::table3 },
    Experiment { name: "table4_other_average", title: "E9 — Table 4: other programs, average case", run: exp::average_case::table4 },
    Experiment { name: "ablation_lambda", title: "Ablation — λ correction factor", run: exp::ablation_lambda::run },
    Experiment { name: "ablation_forecast", title: "Ablation — monitoring forecasters", run: exp::ablation_forecast::run },
    Experiment { name: "ablation_moves", title: "Ablation — SA neighbourhood", run: exp::ablation_moves::run },
    Experiment { name: "ablation_sched", title: "Ablation — scheduling algorithms", run: exp::ablation_sched::run },
    Experiment { name: "ablation_calibration", title: "Ablation — calibrated model vs ground truth", run: exp::ablation_calibration::run },
    Experiment { name: "ext_irregular", title: "Extension — irregular applications", run: exp::ext_irregular::run },
];

/// The table's names and titles, one row a line.
pub fn listing() -> String {
    let row = |e: &Experiment| format!("{:<24} {}\n", e.name, e.title);
    EXPERIMENTS.iter().map(row).collect()
}

/// The command line, followed by the [`listing`].
pub fn usage() -> String {
    format!(
        "usage: cbes-bench <experiment|all|list> [--full] [--runs N] [--seed S]\n\n{}",
        listing()
    )
}

/// Look an experiment up by name; an unknown name is a usage error.
pub fn find(name: &str) -> Result<&'static Experiment, String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`\n{}", usage()))
}

/// Where artifacts and the collected report are written, relative to the
/// working directory.
pub const RESULTS_DIR: &str = "results";

/// Where `--full` writes them instead, so neither scale overwrites the other.
pub const FULL_RESULTS_DIR: &str = "results/full";

/// Write an artifact as pretty JSON to `<dir>/<name>.json`.
pub fn save_json(dir: &str, name: &str, value: &serde_json::Value) -> std::io::Result<()> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir)?;
    let text = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(dir.join(format!("{name}.json")), text)
}
