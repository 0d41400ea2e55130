//! `unsafe_audit`: `unsafe` only in the audited-module allowlist, and
//! only as `unsafe { }` blocks carrying a `// SAFETY:` justification.
//!
//! Every crate root carries `#![forbid(unsafe_code)]`; the server crate
//! alone downgrades it so the epoll shim can make syscalls. This rule
//! does not lean on the attributes being there: every `unsafe` token in
//! any source tree must sit in an allowlisted module, be a block (never
//! `unsafe fn` / `unsafe impl`), and be introduced by a comment run
//! ending just above it that contains `SAFETY:`. Growing
//! [`ALLOWED_MODULES`] is a reviewed diff to this file.

use crate::findings::Finding;
use crate::rules::Workspace;
use crate::source::SourceFile;

/// Modules permitted to contain `unsafe` blocks.
pub const ALLOWED_MODULES: &[&str] = &["crates/server/src/epoll.rs"];

/// How many lines of statement head may separate the `SAFETY:` comment
/// run from the `unsafe` token (`let n =\n  unsafe { ... }` wraps).
const SAFETY_COMMENT_GAP: u32 = 3;

/// True when a comment run ending within [`SAFETY_COMMENT_GAP`] lines
/// above `line` contains `SAFETY:`.
fn has_safety_comment(src: &SourceFile, line: u32) -> bool {
    // Last comment strictly above the unsafe token, within the gap.
    let Some(last) = src
        .comments
        .iter()
        .rfind(|c| c.line < line && c.line + SAFETY_COMMENT_GAP >= line)
    else {
        return false;
    };
    // Extend the run upward over contiguous comment lines.
    let mut run_start = last.line;
    while let Some(prev) = src.comments.iter().find(|c| c.line + 1 == run_start) {
        run_start = prev.line;
    }
    src.comments
        .iter()
        .filter(|c| c.line >= run_start && c.line <= last.line)
        .any(|c| c.text.contains("SAFETY:"))
}

/// Run the rule over every file of the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    ws.sources.iter().flat_map(check).collect()
}

fn check(src: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    let allowed = ALLOWED_MODULES.contains(&src.path.as_str());
    for (i, t) in src.tokens.iter().enumerate() {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !allowed {
            findings.push(Finding::new(
                &src.path,
                t.line,
                format!(
                    "`unsafe` outside the audited-module allowlist ({})",
                    ALLOWED_MODULES.join(", ")
                ),
            ));
            continue;
        }
        let is_block = src.tokens.get(i + 1).is_some_and(|n| n.is_punct('{'));
        if !is_block {
            findings.push(Finding::new(
                &src.path,
                t.line,
                "only `unsafe { }` blocks are allowed in audited modules \
                 (no `unsafe fn` / `unsafe impl`)",
            ));
            continue;
        }
        if !has_safety_comment(src, t.line) {
            findings.push(Finding::new(
                &src.path,
                t.line,
                "`unsafe` block without a `// SAFETY:` comment immediately above it",
            ));
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsafe_outside_the_allowlist_is_flagged() {
        let src = SourceFile::parse(
            "crates/core/src/eval.rs",
            "fn f() { unsafe { fast_path() } }",
        );
        let findings = check(&src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("allowlist"));
    }

    #[test]
    fn audited_block_with_safety_comment_is_clean() {
        let src = SourceFile::parse(
            "crates/server/src/epoll.rs",
            "fn f() {\n\
             // SAFETY: no pointers cross the boundary.\n\
             let fd = unsafe { open() };\n\
             }",
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn audited_block_without_safety_comment_is_flagged() {
        let src = SourceFile::parse(
            "crates/server/src/epoll.rs",
            "fn f() {\n// a comment that is not a justification\nlet fd = unsafe { open() };\n}",
        );
        let findings = check(&src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("SAFETY:"));
    }

    #[test]
    fn wrapped_statement_heads_still_see_the_comment() {
        let src = SourceFile::parse(
            "crates/server/src/epoll.rs",
            "fn f() {\n// SAFETY: kernel copies synchronously.\nlet n =\n    unsafe { poll() };\n}",
        );
        assert!(check(&src).is_empty());
    }

    #[test]
    fn unsafe_fn_is_flagged_even_in_audited_modules() {
        let src = SourceFile::parse(
            "crates/server/src/epoll.rs",
            "// SAFETY: not enough.\nunsafe fn f() {}",
        );
        let findings = check(&src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("unsafe fn"));
    }
}
