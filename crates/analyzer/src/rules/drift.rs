//! `drift`: what the compiler cannot see must still describe one
//! system — the CLI's documented exit codes, its operator entry points,
//! the analyzer's own registration, the metric-name constants.
//!
//! Per-action facts (names, counters, forwarding modes, client and CLI
//! coverage) are not checked here: they are one table in
//! `crates/server/src/protocol.rs` that the compiler binds to the
//! `Request` enum, and its agreement with DESIGN.md is an ordinary test
//! beside it (`crates/server/tests/design_doc.rs`).
//!
//! Sub-checks (all unwaivable — the fix is to update the lagging side):
//! 1. Metric-name constants in `names.rs` are pairwise distinct.
//! 2. Exit codes documented in the CLI usage text and DESIGN.md match
//!    `CliError::exit_code`.
//! 3. When the reconfig crate exists: the CLI exposes the `artifact`
//!    command with its full lifecycle arm set (`stage`, `apply`,
//!    `accept`, `rollback`, `status`, `list`), so the admin action
//!    family cannot grow without an operator entry point.
//! 4. When the analyzer crate exists: its `ALL_RULES` registry (an
//!    array of ident constants, resolved through their string values),
//!    the CLI's `analyze` command, the `analyze.rule.<rule>` counter
//!    table in `names.rs`, and the DESIGN.md rule documentation all
//!    agree — a new rule cannot ship without its CLI exposure, its
//!    metric name, and its docs.

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::rules::DRIFT;
use crate::source::SourceFile;
use std::collections::HashMap;
use std::path::Path;

const COMMANDS: &str = "crates/cli/src/commands.rs";
const CLI_ERROR: &str = "crates/cli/src/error.rs";
const CLI_LIB: &str = "crates/cli/src/lib.rs";
const OBS_NAMES: &str = "crates/obs/src/names.rs";
const DESIGN: &str = "DESIGN.md";
const ANALYZER_RULES: &str = "crates/analyzer/src/rules/mod.rs";

/// Run every drift sub-check against the tree rooted at `root`.
pub fn check(root: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    check_metric_names(root, &mut out);
    check_exit_codes(root, &mut out);
    check_artifact_family(root, &mut out);
    check_analyzer_registration(root, &mut out);
    out
}

/// Sub-check 1: any duplicated name constant silently merges two
/// metrics. Test code is exempt: assertion format strings are not names.
fn check_metric_names(root: &Path, out: &mut Vec<Finding>) {
    let Some(names) = parse(root, OBS_NAMES, out) else {
        return;
    };
    let mut seen: HashMap<&str, u32> = HashMap::new();
    for (i, t) in names
        .tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind == TokKind::Str)
    {
        if names.in_test_code(i) {
            continue;
        }
        if let Some(first) = seen.get(t.text.as_str()) {
            out.push(Finding::new(
                DRIFT,
                OBS_NAMES,
                t.line,
                format!("metric name \"{}\" already defined at line {first}", t.text),
            ));
        } else {
            seen.insert(&t.text, t.line);
        }
    }
}

/// Sub-check 4: the analyzer's rule registry vs the CLI, the metric
/// names, and the docs. Skipped entirely when the workspace has no
/// analyzer crate (fixture trees and older trees stay clean).
fn check_analyzer_registration(root: &Path, out: &mut Vec<Finding>) {
    if !root.join("crates/analyzer").is_dir() {
        return;
    }
    let Some(registry) = parse(root, ANALYZER_RULES, out) else {
        return;
    };
    // `ALL_RULES` is an array of ident constants; resolve each ident
    // through its `pub const NAME: &str = "..."` declaration.
    let idents = const_array(&registry, "ALL_RULES", TokKind::Ident);
    if idents.is_empty() {
        out.push(Finding::new(
            DRIFT,
            ANALYZER_RULES,
            0,
            "no `ALL_RULES` rule registry found",
        ));
        return;
    }
    let mut rule_ids = Vec::new();
    for ident in &idents {
        match const_str_value(&registry, ident) {
            Some(v) => rule_ids.push(v),
            None => out.push(Finding::new(
                DRIFT,
                ANALYZER_RULES,
                0,
                format!("`ALL_RULES` entry `{ident}` has no string constant declaration"),
            )),
        }
    }

    if let Some(commands) = parse(root, COMMANDS, out) {
        if !has_fn(&commands, "analyze_static") {
            out.push(Finding::new(
                DRIFT,
                COMMANDS,
                0,
                "analyzer crate present but the CLI has no `fn analyze_static` command",
            ));
        }
    }

    if let Some(names) = parse(root, OBS_NAMES, out) {
        let counters = const_array(&names, "ANALYZE_RULE_COUNTERS", TokKind::Str);
        if counters.len() != rule_ids.len() {
            out.push(Finding::new(
                DRIFT,
                OBS_NAMES,
                0,
                format!(
                    "`ANALYZE_RULE_COUNTERS` has {} entries for {} analyzer rules",
                    counters.len(),
                    rule_ids.len()
                ),
            ));
        }
        for (c, r) in counters.iter().zip(&rule_ids) {
            let expected = format!("analyze.rule.{r}");
            if c != &expected {
                out.push(Finding::new(
                    DRIFT,
                    OBS_NAMES,
                    0,
                    format!(
                        "rule counter \"{c}\" does not match its rule (expected \"{expected}\")"
                    ),
                ));
            }
        }
        for required in ["ANALYZE_FINDINGS", "ANALYZE_WAIVED"] {
            if const_str_value(&names, required).is_none() {
                out.push(Finding::new(
                    DRIFT,
                    OBS_NAMES,
                    0,
                    format!("analyzer summary metric constant `{required}` is not defined"),
                ));
            }
        }
    }

    if let Some(design) = read(root, DESIGN, out) {
        for r in &rule_ids {
            let marker = format!("`{r}`");
            if !design.contains(&marker) {
                out.push(Finding::new(
                    DRIFT,
                    DESIGN,
                    0,
                    format!("analyzer rule `{r}` is not documented in DESIGN.md"),
                ));
            }
        }
    }
}

/// Sub-check 3: the artifact lifecycle CLI vs the reconfig crate.
/// Skipped entirely when the workspace has no reconfig crate (older
/// trees stay clean).
fn check_artifact_family(root: &Path, out: &mut Vec<Finding>) {
    if !root.join("crates/reconfig").is_dir() {
        return;
    }
    let Some(commands) = parse(root, COMMANDS, out) else {
        return;
    };
    if has_fn(&commands, "artifact") {
        for sub in ["stage", "apply", "accept", "rollback", "status", "list"] {
            if !has_str(&commands, sub) {
                out.push(Finding::new(
                    DRIFT,
                    COMMANDS,
                    0,
                    format!("the CLI `artifact` command has no \"{sub}\" arm"),
                ));
            }
        }
    } else {
        out.push(Finding::new(
            DRIFT,
            COMMANDS,
            0,
            "reconfig crate present but the CLI has no `fn artifact` command",
        ));
    }
}

/// Sub-check 2: documented exit codes vs `CliError::exit_code`.
fn check_exit_codes(root: &Path, out: &mut Vec<Finding>) {
    let Some(error) = parse(root, CLI_ERROR, out) else {
        return;
    };
    let classes = ["usage", "transport", "server", "shed"];
    let code_map = exit_code_map(&error);
    for class in classes {
        if !code_map.contains_key(class) {
            out.push(Finding::new(
                DRIFT,
                CLI_ERROR,
                0,
                format!("`CliError::exit_code` has no arm for the `{class}` failure class"),
            ));
        }
    }
    let mut documented: Vec<&'static str> = Vec::new();
    for doc in [CLI_LIB, DESIGN] {
        let Some(text) = read(root, doc, out) else {
            continue;
        };
        for (class, num, line) in doc_exit_pairs(&text) {
            documented.push(class);
            if let Some(actual) = code_map.get(class) {
                if *actual != num {
                    out.push(Finding::new(
                        DRIFT,
                        doc,
                        line,
                        format!("documents exit code {num} for `{class}`, but `CliError::exit_code` returns {actual}"),
                    ));
                }
            }
        }
    }
    for class in classes {
        if !documented.contains(&class) {
            out.push(Finding::new(
                DRIFT,
                DESIGN,
                0,
                format!("exit code for the `{class}` failure class is not documented"),
            ));
        }
    }
}

fn read(root: &Path, rel: &str, out: &mut Vec<Finding>) -> Option<String> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(text) => Some(text),
        Err(err) => {
            out.push(Finding::new(
                DRIFT,
                rel,
                0,
                format!("drift input unreadable: {err}"),
            ));
            None
        }
    }
}

fn parse(root: &Path, rel: &str, out: &mut Vec<Finding>) -> Option<SourceFile> {
    read(root, rel, out).map(|text| SourceFile::parse(rel, &text))
}

/// Entries of token kind `kind` in `<NAME>: [&str; N] = [.., ..]` — the
/// string literals of a name table, or the ident constants of a
/// registry. The type bracket is skipped by walking to `=` first.
fn const_array(f: &SourceFile, name: &str, kind: TokKind) -> Vec<String> {
    let t = &f.tokens;
    let Some(at) = t.iter().position(|tok| tok.is_ident(name)) else {
        return Vec::new();
    };
    let mut j = at + 1;
    while j < t.len() && !t[j].is_punct('=') {
        j += 1;
    }
    while j < t.len() && !t[j].is_punct('[') {
        j += 1;
    }
    let mut out = Vec::new();
    while j < t.len() && !t[j].is_punct(']') {
        if t[j].kind == kind {
            out.push(t[j].text.clone());
        }
        j += 1;
    }
    out
}

/// The string value of `pub const <NAME>: &str = "...";`, or `None`
/// when no such declaration exists.
fn const_str_value(f: &SourceFile, name: &str) -> Option<String> {
    let t = &f.tokens;
    for i in 0..t.len().saturating_sub(1) {
        if !(t[i].is_ident("const") && t[i + 1].is_ident(name)) {
            continue;
        }
        let mut j = i + 2;
        while j < t.len() && !t[j].is_punct('=') && !t[j].is_punct(';') {
            j += 1;
        }
        if j + 1 < t.len() && t[j].is_punct('=') && t[j + 1].kind == TokKind::Str {
            return Some(t[j + 1].text.clone());
        }
        return None;
    }
    None
}

fn has_fn(f: &SourceFile, name: &str) -> bool {
    let t = &f.tokens;
    (0..t.len().saturating_sub(1)).any(|i| t[i].is_ident("fn") && t[i + 1].is_ident(name))
}

fn has_str(f: &SourceFile, lit: &str) -> bool {
    f.tokens
        .iter()
        .any(|t| t.kind == TokKind::Str && t.text == lit)
}

/// `{class → code}` from the first match arm per class after
/// `fn exit_code`.
fn exit_code_map(f: &SourceFile) -> HashMap<&'static str, i64> {
    let t = &f.tokens;
    let mut map = HashMap::new();
    let Some(start) = t.iter().position(|tok| tok.is_ident("exit_code")) else {
        return map;
    };
    for (class, variant) in [
        ("usage", "Usage"),
        ("transport", "Transport"),
        ("server", "Server"),
        ("shed", "Shed"),
    ] {
        let mut j = start;
        while j < t.len() && !t[j].is_ident(variant) {
            j += 1;
        }
        // Walk from the variant to its `=>` and take the arm's number.
        while j + 2 < t.len() {
            if t[j].is_punct('=') && t[j + 1].is_punct('>') {
                if t[j + 2].kind == TokKind::Num {
                    if let Ok(n) = t[j + 2].text.parse::<i64>() {
                        map.insert(class, n);
                    }
                }
                break;
            }
            j += 1;
        }
    }
    map
}

/// `(class, code, line)` triples harvested from prose near every
/// "exit code" mention — e.g. "exit codes: 2 usage, 3 transport, ...".
fn doc_exit_pairs(text: &str) -> Vec<(&'static str, i64, u32)> {
    let lower = text.to_lowercase();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = lower[from..].find("exit code") {
        let at = from + pos;
        let mut end = (at + 240).min(lower.len());
        while !lower.is_char_boundary(end) {
            end -= 1;
        }
        let line = 1 + lower[..at].matches('\n').count() as u32;
        let words: Vec<&str> = lower[at..end].split_whitespace().collect();
        for w in words.windows(2) {
            let num = w[0].trim_matches(|c: char| !c.is_ascii_alphanumeric());
            let Ok(num) = num.parse::<i64>() else {
                continue;
            };
            if !(0..=9).contains(&num) {
                continue;
            }
            for class in ["usage", "transport", "server", "shed"] {
                if w[1].contains(class) {
                    out.push((class, num, line));
                    break;
                }
            }
        }
        from = at + "exit code".len();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_array_skips_the_type_brackets_and_reads_one_kind() {
        let f = SourceFile::parse("x.rs", "pub const NAMES: [&str; 2] = [\"a\", \"b\"];");
        assert_eq!(const_array(&f, "NAMES", TokKind::Str), vec!["a", "b"]);
        let f = SourceFile::parse(
            "mod.rs",
            "pub const ALL_RULES: [&str; 2] = [PANIC_PATH, DRIFT];",
        );
        assert_eq!(
            const_array(&f, "ALL_RULES", TokKind::Ident),
            vec!["PANIC_PATH", "DRIFT"]
        );
    }

    #[test]
    fn const_str_value_resolves_ident_constants() {
        let f = SourceFile::parse(
            "mod.rs",
            "pub const PANIC_PATH: &str = \"panic_path\";\npub const N: usize = 3;",
        );
        assert_eq!(
            const_str_value(&f, "PANIC_PATH").as_deref(),
            Some("panic_path")
        );
        assert_eq!(const_str_value(&f, "N"), None);
        assert_eq!(const_str_value(&f, "MISSING"), None);
    }

    #[test]
    fn exit_codes_parse_from_match_arms() {
        let src = "
            impl CliError {
                pub fn exit_code(&self) -> i32 {
                    match self {
                        CliError::Usage(_) => 2,
                        CliError::Transport(_) => 3,
                        CliError::Server { .. } => 4,
                        CliError::Shed { .. } => 5,
                        _ => 1,
                    }
                }
            }
        ";
        let f = SourceFile::parse("error.rs", src);
        let map = exit_code_map(&f);
        assert_eq!(map["usage"], 2);
        assert_eq!(map["transport"], 3);
        assert_eq!(map["server"], 4);
        assert_eq!(map["shed"], 5);
    }

    #[test]
    fn doc_pairs_read_prose_tables() {
        let text = "The CLI maps failures to exit codes (2 usage,\n3 transport, 4 server-reported error, 5 overload-shed).";
        let pairs = doc_exit_pairs(text);
        assert_eq!(pairs.len(), 4);
        assert!(pairs.contains(&("usage", 2, 1)));
        assert!(pairs.contains(&("shed", 5, 1)));
    }
}
