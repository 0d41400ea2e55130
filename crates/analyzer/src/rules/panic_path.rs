//! `panic_path`: the server connection path and the core evaluation
//! path must not panic on bad input.
//!
//! Checked everywhere in a scoped file:
//! - `.unwrap()` — banned, tests included; `.expect("<invariant>")`
//!   documents *why* the value must exist and is allowed.
//! - `.expect(..)` with a non-literal argument — banned; the message
//!   must be a string literal stating the invariant.
//!
//! Checked outside `#[cfg(test)]` only (idiomatic in tests):
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//! - slice/array index expressions (`xs[i]`); `assert!`-family macros
//!   stay allowed — they *are* the documented invariant.

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::rules::Workspace;
use crate::source::SourceFile;

/// Files the rule applies to, relative to the workspace root: the I/O
/// layer, the daemon's request path, the router's handler (its relay
/// hooks run on the reactor), the service/evaluation core, and the
/// monitor and forecasters an inline `ObserveLoad` runs on the reactor.
const SCOPE: [&str; 11] = [
    "crates/server/src/lib.rs",
    "crates/server/src/net.rs",
    "crates/server/src/protocol.rs",
    "crates/server/src/server.rs",
    "crates/server/src/client.rs",
    "crates/router/src/tier.rs",
    "crates/core/src/service.rs",
    "crates/core/src/eval.rs",
    "crates/core/src/registry.rs",
    "crates/core/src/monitor.rs",
    "crates/netmodel/src/forecast.rs",
];

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that legitimately precede `[` (slice patterns, array types,
/// array literals) and so do not indicate an index expression.
const NON_INDEX_BEFORE: [&str; 18] = [
    "let", "in", "return", "match", "if", "while", "else", "as", "move", "mut", "ref", "break",
    "continue", "dyn", "where", "impl", "const", "static",
];

/// Run the rule over every file of [`SCOPE`]. A scoped file missing
/// from a crate that is still there is itself a finding, so the scope
/// cannot silently rot.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for scoped in SCOPE {
        // `crates/<name>/`: a tree without the crate at all (the router
        // came late) has nothing to be missing.
        let krate = scoped.split_inclusive('/').take(2).collect::<String>();
        match ws.sources.iter().find(|s| s.path == scoped) {
            Some(src) => out.extend(check(src)),
            None if !ws.sources.iter().any(|s| s.path.starts_with(&krate)) => {}
            None => out.push(Finding::new(
                scoped,
                0,
                "panic-path scoped file is missing from the workspace",
            )),
        }
    }
    out
}

fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        let dotted_call = |name: &str| {
            t.is_ident(name)
                && i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        };
        if dotted_call("unwrap") {
            out.push(Finding::new(
                &file.path,
                t.line,
                "`unwrap()` in the panic-free path; use `expect(\"<invariant>\")` or handle the error",
            ));
            continue;
        }
        if dotted_call("expect") && !toks.get(i + 2).is_some_and(|a| a.kind == TokKind::Str) {
            out.push(Finding::new(
                &file.path,
                t.line,
                "`expect(..)` without a string-literal invariant message",
            ));
            continue;
        }
        if file.in_test_code(i) {
            continue;
        }
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding::new(
                &file.path,
                t.line,
                format!(
                    "`{}!` in the panic-free path; return a typed error instead",
                    t.text
                ),
            ));
            continue;
        }
        if t.is_punct('[') && i > 0 && is_index_base(&toks[i - 1]) {
            out.push(Finding::new(
                &file.path,
                t.line,
                "index expression can panic out of bounds; use `.get(..)` or waive with the documented bound",
            ));
        }
    }
    out
}

/// True when the token before `[` makes it an index expression rather
/// than an array literal, slice pattern, attribute, or type.
fn is_index_base(prev: &crate::lexer::Token) -> bool {
    match prev.kind {
        TokKind::Ident => !NON_INDEX_BEFORE.contains(&prev.text.as_str()),
        TokKind::Punct => prev.is_punct(')') || prev.is_punct(']') || prev.is_punct('?'),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("crates/server/src/net.rs", src))
    }

    #[test]
    fn unwrap_is_flagged_expect_literal_is_not() {
        let f = run("fn a(x: Option<u32>) { x.unwrap(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("unwrap"));
        assert!(run("fn a(x: Option<u32>) { x.expect(\"set at startup\"); }").is_empty());
    }

    #[test]
    fn expect_with_computed_message_is_flagged() {
        let f = run("fn a(x: Option<u32>, m: &str) { x.expect(m); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("expect"));
    }

    #[test]
    fn panic_macros_flagged_outside_tests_only() {
        assert_eq!(run("fn a() { panic!(\"boom\"); }").len(), 1);
        assert_eq!(run("fn a() { unreachable!(); }").len(), 1);
        let in_test = "#[cfg(test)] mod t { fn a() { panic!(\"boom\"); } }";
        assert!(run(in_test).is_empty());
    }

    #[test]
    fn index_expressions_flagged_but_not_literals_or_patterns() {
        assert_eq!(run("fn a(xs: &[u32], i: usize) { xs[i]; }").len(), 1);
        assert!(run("fn a() { let xs = [1, 2, 3]; }").is_empty());
        assert!(run("fn a() -> [u8; 2] { let [a, b] = [0u8, 1]; [a, b] }").is_empty());
        assert!(run("fn a(xs: &[u32]) { xs.get(1); }").is_empty());
        assert!(
            run("fn a() { vec![1, 2]; }").is_empty(),
            "macro bracket args"
        );
    }

    #[test]
    fn unwrap_in_tests_is_still_flagged() {
        let src = "#[cfg(test)] mod t { fn a(x: Option<u32>) { x.unwrap(); } }";
        assert_eq!(run(src).len(), 1);
    }
}
