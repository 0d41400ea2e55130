//! Fixture-based end-to-end tests: each fixture under `tests/fixtures/`
//! is a miniature workspace with a known set of violations, and these
//! tests pin the exact finding counts, rule ids, and CLI exit codes.
//! The rule table itself is held against DESIGN.md §10 and `--help`.

use cbes_analyze::rules::{RULES, WAIVER};
use cbes_analyze::{analyze, Options, Report};
use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(root: PathBuf, selected: &[&str]) -> Report {
    let row = |id: &&str| RULES.iter().find(|rule| rule.id == *id);
    let rules = selected.iter().map(|id| row(id).expect("a rule id"));
    analyze(&Options {
        root,
        rules: rules.collect(),
    })
    .expect("fixture tree analyzes")
}

fn table_ids() -> Vec<&'static str> {
    RULES.iter().map(|rule| rule.id).collect()
}

/// DESIGN.md §10's catalog is a rendering of the table: every row has a
/// "- **`id`**" bullet and every such bullet names a row.
#[test]
fn the_design_catalog_lists_exactly_the_rule_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
    let design = std::fs::read_to_string(path).expect("DESIGN.md is readable");
    let heading = "### Rule catalog";
    let start = design.find(heading).expect("DESIGN.md has a rule catalog");
    let section = &design[start + heading.len()..];
    let section = &section[..section.find("\n#").unwrap_or(section.len())];
    let bullet = |line: &str| Some(line.strip_prefix("- **`")?.split_once("`**")?.0.to_string());
    let mut documented: Vec<String> = section.lines().filter_map(bullet).collect();
    let mut declared = table_ids();
    documented.sort();
    declared.sort();
    assert_eq!(documented, declared, "§10 bullets vs `RULES` rows");
    declared.dedup();
    assert_eq!(declared.len(), RULES.len(), "duplicate rule id");
}

#[test]
fn help_lists_exactly_the_rule_table() {
    let out = Command::new(env!("CARGO_BIN_EXE_cbes-analyze"))
        .arg("--help")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    let listed = text.lines().skip_while(|line| *line != "rules:").skip(1);
    let listed: Vec<&str> = listed
        .map_while(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(listed, table_ids(), "{text}");
}

#[test]
fn clean_fixture_has_no_findings_under_every_rule() {
    let report = run(fixture("clean"), &table_ids());
    assert_eq!(
        report.findings.len(),
        0,
        "clean fixture must be clean: {:#?}",
        report.findings
    );
    assert_eq!(report.files_scanned, 10);
}

#[test]
fn violations_fixture_counts_are_exact() {
    let report = run(fixture("violations"), &["metric_names"]);
    let by_rule = report.counts_by_rule();
    let count = |rule: &str| by_rule.get(rule).copied().unwrap_or((0, 0));

    // (unwaived, waived) per rule.
    assert_eq!(count("metric_names"), (1, 1), "{:#?}", report.findings);
    assert_eq!(count(WAIVER), (1, 0), "{:#?}", report.findings);
    assert_eq!(report.findings.len(), 3);
    assert_eq!(report.unwaived().count(), 2);
    assert_eq!(report.waived().count(), 1);
}

#[test]
fn violations_fixture_findings_land_on_the_right_sites() {
    let report = run(fixture("violations"), &["metric_names"]);
    let unwaived: Vec<(&str, &str)> = report
        .unwaived()
        .map(|f| (f.rule, f.file.as_str()))
        .collect();
    assert!(unwaived.contains(&("metric_names", "crates/server/src/server.rs")));
    assert!(unwaived.contains(&(WAIVER, "crates/core/src/registry.rs")));

    let waived: Vec<&str> = report.waived().map(|f| f.file.as_str()).collect();
    assert!(waived.contains(&"crates/server/src/server.rs"));
    for f in report.waived() {
        assert!(f.reason.as_deref().is_some_and(|r| r.contains("fixture")));
    }
}

#[test]
fn blocking_fixture_counts_are_exact() {
    let report = run(fixture("blocking"), &["blocking_hot_path"]);
    let by_rule = report.counts_by_rule();
    // The reactor sleep, the fsync two calls deep, the router handler's
    // deadline-less dial and its relay hook's three waits on a backend
    // (a connect with a deadline, a round trip, a recv) are findings;
    // the worker's idle park is waived in place, and the worker's own
    // deadline-bounded connect stays clean.
    assert_eq!(
        by_rule.get("blocking_hot_path").copied(),
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
fn the_real_workspace_stays_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run(root, &table_ids());
    assert_eq!(report.rules_run.len(), 2);
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
        4,
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
        .arg("metric_names")
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error: [metric_names]"), "{text}");
    assert!(text.contains("waived: [metric_names]"), "{text}");
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
    // The refusal names what it would have accepted.
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown rule `not_a_rule`"), "{text}");
    for id in table_ids() {
        assert!(text.contains(id), "{id} missing from {text}");
    }

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
        .arg(fixture("violations"))
        .arg("--rules")
        .arg("metric_names")
        .arg("--json")
        .arg(&path)
        .output()
        .expect("analyzer binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let json = std::fs::read_to_string(&path).expect("json report written");
    std::fs::remove_file(&path).ok();
    assert!(json.contains("\"unwaived_count\": 2"), "{json}");
    assert!(json.contains("\"waived_count\": 1"), "{json}");
    assert!(json.contains("\"rule\": \"metric_names\""), "{json}");
}
