//! Metric rows, the host description, and the one-line JSON result the
//! benchmark contract asks for.

use std::path::Path;
use std::process::Command;

use serde_json::{json, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

pub fn find(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

pub fn metrics_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    json!({ "value": m.value, "unit": m.unit }),
                )
            })
            .collect(),
    )
}

/// The last line of a single-workload run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    json!({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json(metrics),
    })
    .to_compact_string()
}

fn first_line_of(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(
        line.split_once(':')
            .map_or(line, |(_, v)| v)
            .trim()
            .to_string(),
    )
}

/// The commit of the checkout, read from `.git` directly; a checkout
/// that is not a git repository reports `unknown`.
fn commit(repo: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(&repo.join(".git/HEAD"));
    match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(reference) => read(&repo.join(".git").join(reference)),
        None => head,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

/// Host, toolchain and commit: every number is only comparable to
/// numbers taken on the same ones.
pub fn host() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let unknown = || "unknown".to_string();
    json!({
        "nproc": nproc,
        "cpu": first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
        "kernel": first_line_of("/proc/sys/kernel/osrelease", "").unwrap_or_else(unknown),
        "rustc": rustc,
        "commit": commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("..")),
    })
}
