//! CLI entry point for `cbes-analyze`.
//!
//! ```text
//! cbes-analyze [--workspace] [--root DIR] [--rules a,b,c] [--json PATH]
//! ```
//!
//! Exits 0 when the tree is clean, 1 when any unwaived finding remains,
//! and 2 on usage or I/O errors.

#![forbid(unsafe_code)]

use cbes_analyze::rules::RULES;
use cbes_analyze::{analyze, Options};
use std::fmt::Write as _;
use std::process::ExitCode;

/// The usage text; its rule list is the table's.
fn usage() -> String {
    let mut out = String::from(
        "\
usage: cbes-analyze [options]

  --workspace     analyze the workspace rooted at the current directory
                  (the default when no --root is given)
  --root DIR      analyze the workspace rooted at DIR
  --rules a,b,c   run only the named rules
  --json PATH     also write the machine-readable findings report to PATH

rules:
",
    );
    for rule in RULES {
        let _ = writeln!(out, "  {:<18}{}", rule.id, rule.summary);
    }
    out.push_str(
        "\nexits 0 when clean, 1 when any unwaived finding remains, 2 on usage or I/O errors",
    );
    out
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("cbes-analyze: {msg}\n\n{}", usage());
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut opts = Options::all_rules(".");
    let mut json_path = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => opts.root = ".".into(),
            "--root" => {
                opts.root = args.next().ok_or("--root needs a directory")?.into();
            }
            "--rules" => {
                let list = args.next().ok_or("--rules needs a comma-separated list")?;
                opts.rules.clear();
                for name in list.split(',').map(str::trim) {
                    let rule = RULES.iter().find(|rule| rule.id == name);
                    opts.rules
                        .push(rule.ok_or_else(|| format!("unknown rule `{name}`"))?);
                }
            }
            "--json" => {
                json_path = Some(args.next().ok_or("--json needs a file path")?);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let report = analyze(&opts)?;
    print!("{}", report.render_text());
    if let Some(path) = json_path {
        std::fs::write(&path, report.render_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(report.unwaived().count() == 0)
}
