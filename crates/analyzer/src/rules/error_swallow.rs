//! `error_swallow`: crash-safety-critical paths must not discard
//! `Result`s, and `fsync`-family returns may never be ignored anywhere.
//!
//! The reconfig store's write points and journal replay are the code
//! the crash-safety tests lean on; a `let _ =` or a trailing `.ok();`
//! there silently converts a durability failure into corruption
//! tolerated at the next boot. In those files every discard is flagged.
//! Workspace-wide (vendored crates included), discarding the return of
//! `sync_all` / `sync_data` / `fsync` / `fdatasync` is flagged: an
//! ignored fsync error means the journal may not be on disk while the
//! code behaves as if it were.

use crate::findings::Finding;
use crate::rules::Workspace;
use crate::source::SourceFile;

/// Files where *any* `Result` discard is flagged, not just fsyncs.
pub const CRITICAL_PATHS: &[&str] = &[
    "crates/reconfig/src/store.rs",
    "crates/reconfig/src/lifecycle.rs",
    "crates/server/src/reconfig.rs",
];

/// Durability calls whose returns may never be ignored, anywhere.
const FSYNC_FAMILY: &[&str] = &["sync_all", "sync_data", "fsync", "fdatasync"];

/// Scan forward from `i` to the end of the statement (`;` at the same
/// delimiter depth), returning the index just past it.
fn statement_end(src: &SourceFile, i: usize) -> usize {
    let tokens = &src.tokens;
    let mut depth = 0i32;
    let mut j = i;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct('}') || t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break; // statement ends with its enclosing block
            }
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    j
}

/// Whether any token in `[start, end)` is an fsync-family identifier;
/// returns its name.
fn fsync_in(src: &SourceFile, start: usize, end: usize) -> Option<&'static str> {
    src.tokens[start..end.min(src.tokens.len())]
        .iter()
        .find_map(|t| FSYNC_FAMILY.iter().find(|f| t.is_ident(f)).copied())
}

/// Run the rule over every file of the workspace; [`CRITICAL_PATHS`]
/// are held to more.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    ws.sources.iter().flat_map(check).collect()
}

fn check(src: &SourceFile) -> Vec<Finding> {
    let critical = CRITICAL_PATHS.contains(&src.path.as_str());
    let tokens = &src.tokens;
    let mut findings = Vec::new();
    let mut flagged_lines: Vec<u32> = Vec::new();
    let flag = |findings: &mut Vec<Finding>, flagged: &mut Vec<u32>, line: u32, message: String| {
        if !flagged.contains(&line) {
            flagged.push(line);
            findings.push(Finding::new(&src.path, line, message));
        }
    };

    for i in 0..tokens.len() {
        if src.in_test_code(i) {
            continue;
        }
        // `let _ = ...;` — a wildcard discard.
        if tokens[i].is_ident("let")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("_"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('='))
        {
            let end = statement_end(src, i + 3);
            if let Some(call) = fsync_in(src, i + 3, end) {
                flag(
                    &mut findings,
                    &mut flagged_lines,
                    tokens[i].line,
                    format!(
                        "`let _ =` discards the result of `{call}` — an ignored fsync error \
                             means the journal may not be durable"
                    ),
                );
            } else if critical {
                flag(
                    &mut findings,
                    &mut flagged_lines,
                    tokens[i].line,
                    "`let _ =` discards a value in a crash-safety-critical path".to_string(),
                );
            }
            continue;
        }
        // `....ok();` — a Result downgraded and dropped.
        if tokens[i].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("ok"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 3).is_some_and(|t| t.is_punct(')'))
            && tokens.get(i + 4).is_some_and(|t| t.is_punct(';'))
        {
            // Receiver chain: walk back to the start of the statement.
            let mut start = i;
            while start > 0 {
                let t = &tokens[start - 1];
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                start -= 1;
            }
            if let Some(call) = fsync_in(src, start, i) {
                flag(
                    &mut findings,
                    &mut flagged_lines,
                    tokens[i + 1].line,
                    format!(
                        "`.ok()` discards the result of `{call}` — an ignored fsync error \
                             means the journal may not be durable"
                    ),
                );
            } else if critical {
                flag(
                    &mut findings,
                    &mut flagged_lines,
                    tokens[i + 1].line,
                    "`.ok();` discards a `Result` in a crash-safety-critical path".to_string(),
                );
            }
            continue;
        }
        // A bare `file.sync_all()...;` statement whose value is dropped
        // (the compiler's unused-Result lint catches the plain form;
        // this also catches `.map_err(...)`-style launder-and-drop).
        if tokens[i].is_punct('.')
            && tokens
                .get(i + 1)
                .is_some_and(|t| FSYNC_FAMILY.iter().any(|f| t.is_ident(f)))
        {
            let mut start = i;
            while start > 0 {
                let t = &tokens[start - 1];
                if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                start -= 1;
            }
            // Statement-position call (not a `let`/assignment/return and
            // not inside a wider expression): starts at the receiver.
            let starts_statement = !tokens[start..i].iter().any(|t| {
                t.is_ident("let")
                    || t.is_ident("return")
                    || t.is_ident("match")
                    || t.is_ident("if")
                    || t.is_punct('=')
                    || t.is_punct('?')
            });
            let end = statement_end(src, i);
            let ends_plain = tokens
                .get(end.saturating_sub(1))
                .is_some_and(|t| t.is_punct(';'));
            let has_propagation = tokens[i..end]
                .iter()
                .any(|t| t.is_punct('?') || t.is_ident("expect") || t.is_ident("unwrap"));
            if starts_statement && ends_plain && !has_propagation {
                let call = tokens[i + 1].text.clone();
                flag(
                    &mut findings,
                    &mut flagged_lines,
                    tokens[i + 1].line,
                    format!(
                        "the result of `{call}` is dropped — fsync-family errors must be \
                         handled or propagated"
                    ),
                );
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        check(&SourceFile::parse(path, src))
    }

    #[test]
    fn let_discard_in_a_critical_path_is_flagged() {
        let findings = run(
            "crates/reconfig/src/store.rs",
            "fn replay() { let _ = parse(line); }",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
    }

    #[test]
    fn let_discard_elsewhere_is_tolerated_unless_fsync() {
        assert!(run(
            "crates/server/src/net.rs",
            "fn f(w: &TcpStream) { let _ = w.write(&[1]); }",
        )
        .is_empty());
        let findings = run(
            "crates/server/src/net.rs",
            "fn f(file: &File) { let _ = file.sync_all(); }",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("sync_all"));
    }

    #[test]
    fn trailing_ok_discard_is_flagged_in_critical_paths() {
        let findings = run(
            "crates/reconfig/src/store.rs",
            "fn cleanup(tmp: &Path) { std::fs::remove_file(tmp).ok(); }",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        // `.ok()` feeding a consumer is not a discard.
        assert!(run(
            "crates/reconfig/src/store.rs",
            "fn read(p: &Path) -> Option<String> { std::fs::read_to_string(p).ok() }",
        )
        .is_empty());
    }

    #[test]
    fn fsync_ok_discard_is_flagged_everywhere() {
        let findings = run(
            "vendor/thing/src/lib.rs",
            "fn f(file: &File) { file.sync_data().ok(); }",
        );
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("sync_data"));
    }

    #[test]
    fn propagated_fsyncs_are_clean() {
        assert!(run(
            "crates/reconfig/src/store.rs",
            "fn persist(f: &File) -> io::Result<()> { f.sync_all()?; Ok(()) }",
        )
        .is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        assert!(run(
            "crates/reconfig/src/store.rs",
            "#[cfg(test)] mod tests { fn t() { let _ = parse(line); } }",
        )
        .is_empty());
    }
}
