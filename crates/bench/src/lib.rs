//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one artifact (see DESIGN.md §4 for
//! the experiment index); this library holds the shared machinery:
//!
//! * [`harness`] — profiling, measuring (simulated "actual" runs), and
//!   predicting; thread-parallel fan-out of independent runs.
//! * [`zones`] — the Orange Grove node groups (high/medium/low speed) the
//!   LU experiments sample, and the homogeneous pool for table 3/4.
//! * [`stats`] — means, confidence intervals, percent errors.
//! * [`table`] — fixed-width table printing in the paper's format.
//! * [`args`] — the tiny shared CLI (`--full`, `--runs`, `--seed`).

#![forbid(unsafe_code)]

pub mod args;
pub mod harness;
pub mod lu_exp;
pub mod stats;
pub mod table;
pub mod zones;

/// Write an experiment artifact as pretty JSON under `results/`.
///
/// Errors are reported but non-fatal: the printed table is the primary
/// output, the JSON a convenience.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results/: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("\n[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialise artifact: {e}"),
    }
}
