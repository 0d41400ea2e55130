//! Fixture-based end-to-end tests: each fixture under `tests/fixtures/`
//! is a miniature workspace with a known set of violations, and these
//! tests pin the exact finding counts, rule ids, and CLI exit codes.

use cbes_analyze::{analyze, rules, Options, Report};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(root: PathBuf, selected: &[&'static str]) -> Report {
    analyze(&Options {
        root,
        rules: selected.to_vec(),
    })
    .expect("fixture tree analyzes")
}

#[test]
fn clean_fixture_has_no_findings_under_every_rule() {
    let report = run(fixture("clean"), &rules::ALL_RULES);
    assert_eq!(
        report.findings.len(),
        0,
        "clean fixture must be clean: {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 13);
}

#[test]
fn violations_fixture_counts_are_exact() {
    let report = run(
        fixture("violations"),
        &[
            rules::PANIC_PATH,
            rules::DETERMINISM,
            rules::METRIC_NAMES,
            rules::FORBID_UNSAFE,
        ],
    );
    let by_rule = report.counts_by_rule();
    let count = |rule: &str| by_rule.get(rule).copied().unwrap_or((0, 0));

    // (unwaived, waived) per rule.
    assert_eq!(count(rules::PANIC_PATH), (2, 1), "{:#?}", report.findings);
    assert_eq!(count(rules::DETERMINISM), (1, 1), "{:#?}", report.findings);
    assert_eq!(count(rules::METRIC_NAMES), (1, 0), "{:#?}", report.findings);
    assert_eq!(
        count(rules::FORBID_UNSAFE),
        (1, 0),
        "{:#?}",
        report.findings
    );
    assert_eq!(count(rules::WAIVER), (1, 0), "{:#?}", report.findings);
    assert_eq!(report.findings.len(), 8);
    assert_eq!(report.unwaived().count(), 6);
    assert_eq!(report.waived().count(), 2);
}

#[test]
fn violations_fixture_findings_land_on_the_right_sites() {
    let report = run(
        fixture("violations"),
        &[rules::PANIC_PATH, rules::DETERMINISM],
    );
    let unwaived: Vec<(&str, &str)> = report
        .unwaived()
        .map(|f| (f.rule, f.file.as_str()))
        .collect();
    assert!(unwaived.contains(&(rules::PANIC_PATH, "crates/server/src/protocol.rs")));
    assert!(unwaived.contains(&(rules::PANIC_PATH, "crates/core/src/service.rs")));
    assert!(unwaived.contains(&(rules::DETERMINISM, "crates/sched/src/lib.rs")));
    assert!(unwaived.contains(&(rules::WAIVER, "crates/core/src/registry.rs")));

    let waived: Vec<&str> = report.waived().map(|f| f.file.as_str()).collect();
    assert!(waived.contains(&"crates/server/src/server.rs"));
    for f in report.waived() {
        assert!(f.reason.as_deref().is_some_and(|r| r.contains("fixture")));
    }
}

#[test]
fn drift_fixture_reports_every_planted_mismatch() {
    let report = run(fixture("drift"), &[rules::DRIFT]);
    assert_eq!(
        report.findings.len(),
        3,
        "one finding per planted mismatch: {:#?}",
        report.findings
    );
    // Drift findings are unwaivable by design.
    assert_eq!(report.unwaived().count(), 3);
    for f in &report.findings {
        assert_eq!(f.rule, rules::DRIFT);
    }
    let messages: Vec<&str> = report.findings.iter().map(|f| f.message.as_str()).collect();
    let planted = [
        "metric name \"dup.metric\" already defined at line 2",
        "`CliError::exit_code` has no arm for the `shed` failure class",
        "reconfig crate present but the CLI has no `fn artifact` command",
    ];
    for expected in planted {
        assert!(
            messages.contains(&expected),
            "missing {expected:?} in {messages:#?}"
        );
    }
}

#[test]
fn lock_inversion_fixture_counts_are_exact() {
    let report = run(fixture("lock_inversion"), &[rules::LOCK_ORDER]);
    let by_rule = report.counts_by_rule();
    // Direct inversion + transitive inversion unwaived; the sanctioned
    // site carries its waiver.
    assert_eq!(
        by_rule.get(rules::LOCK_ORDER).copied(),
        Some((2, 1)),
        "{:#?}",
        report.findings
    );
    // The transitive finding must name the callee that takes the inner
    // lock, so reviewers can follow the chain without re-deriving it.
    assert!(
        report
            .unwaived()
            .any(|f| f.message.contains("locks_transition")),
        "{:#?}",
        report.findings
    );
}

#[test]
fn blocking_fixture_counts_are_exact() {
    let report = run(fixture("blocking"), &[rules::BLOCKING_HOT_PATH]);
    let by_rule = report.counts_by_rule();
    // The reactor sleep, the fsync two calls deep, the router handler's
    // deadline-less dial and its relay hook's three waits on a backend
    // (a connect with a deadline, a round trip, a recv) are findings;
    // the worker's idle park is waived in place, and the worker's own
    // deadline-bounded connect stays clean.
    assert_eq!(
        by_rule.get(rules::BLOCKING_HOT_PATH).copied(),
        Some((6, 1)),
        "{:#?}",
        report.findings
    );
    // The fsync finding must carry the full witness path from the
    // entry point down to the blocking call.
    assert!(
        report
            .unwaived()
            .any(|f| f.message.contains("run -> step -> persist")),
        "{:#?}",
        report.findings
    );
    // The router handler is an entry point in its own right.
    assert!(
        report
            .unwaived()
            .any(|f| f.message.contains("execute -> forward")),
        "{:#?}",
        report.findings
    );
    // So are its reactor-thread hooks, under the stricter reading.
    let from_relay =
        |f: &&cbes_analyze::findings::Finding| f.message.contains("relay -> ask_backend");
    assert_eq!(
        report.unwaived().filter(from_relay).count(),
        3,
        "{:#?}",
        report.findings
    );
}

#[test]
fn unsafe_audit_fixture_counts_are_exact() {
    let report = run(fixture("unsafe_audit"), &[rules::UNSAFE_AUDIT]);
    let by_rule = report.counts_by_rule();
    // Undocumented block + non-block `unsafe fn` in the allowlisted
    // module, plus any unsafe at all outside it. The documented block
    // in epoll.rs stays clean.
    assert_eq!(
        by_rule.get(rules::UNSAFE_AUDIT).copied(),
        Some((3, 0)),
        "{:#?}",
        report.findings
    );
    let files: Vec<&str> = report.unwaived().map(|f| f.file.as_str()).collect();
    assert!(files.contains(&"crates/core/src/fast.rs"), "{files:#?}");
}

#[test]
fn error_swallow_fixture_counts_are_exact() {
    let report = run(fixture("error_swallow"), &[rules::ERROR_SWALLOW]);
    let by_rule = report.counts_by_rule();
    // Two critical-path discards plus one workspace-wide fsync discard;
    // propagation and value-position `.ok()` stay clean.
    assert_eq!(
        by_rule.get(rules::ERROR_SWALLOW).copied(),
        Some((3, 0)),
        "{:#?}",
        report.findings
    );
    let files: Vec<&str> = report.unwaived().map(|f| f.file.as_str()).collect();
    assert_eq!(
        files
            .iter()
            .filter(|f| **f == "crates/reconfig/src/store.rs")
            .count(),
        2,
        "{files:#?}"
    );
    assert!(files.contains(&"crates/server/src/flush.rs"), "{files:#?}");
}

#[test]
fn the_real_workspace_stays_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(root, &rules::ALL_RULES);
    let unwaived: Vec<_> = report.unwaived().collect();
    assert!(
        unwaived.is_empty(),
        "the workspace must analyze clean: {unwaived:#?}"
    );
    // The sanctioned waivers are rare and deliberate; this is an exact
    // pin, not a budget — adding OR removing one is a review decision
    // that must update this count and the DESIGN.md §15 accounting.
    assert_eq!(
        report.waived().count(),
        6,
        "waiver accounting drifted: {:#?}",
        report.waived().collect::<Vec<_>>()
    );
}

#[test]
fn cli_exits_zero_on_a_clean_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--root")
        .arg(fixture("clean"))
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn cli_exits_one_on_unwaived_findings() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--root")
        .arg(fixture("violations"))
        .arg("--rules")
        .arg("panic_path,determinism,metric_names,forbid_unsafe")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error: [panic_path]"), "{text}");
    assert!(text.contains("waived: [determinism]"), "{text}");
}

#[test]
fn cli_fails_the_gate_on_the_lock_inversion_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--root")
        .arg(fixture("lock_inversion"))
        .arg("--rules")
        .arg("lock_order")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error: [lock_order]"), "{text}");
}

#[test]
fn cli_fails_the_gate_on_the_blocking_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--root")
        .arg(fixture("blocking"))
        .arg("--rules")
        .arg("blocking_hot_path")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error: [blocking_hot_path]"), "{text}");
}

#[test]
fn cli_exits_two_on_usage_errors() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--rules")
        .arg("not_a_rule")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--no-such-flag")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn cli_writes_the_json_report() {
    let path = std::env::temp_dir().join(format!("cbes-analyze-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--root")
        .arg(fixture("drift"))
        .arg("--rules")
        .arg("drift")
        .arg("--json")
        .arg(&path)
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = std::fs::read_to_string(&path).expect("json report written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"unwaived_count\": 3"), "{json}");
    assert!(json.contains("\"rule\": \"drift\""), "{json}");
}
