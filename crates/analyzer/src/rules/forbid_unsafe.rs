//! `forbid_unsafe`: every crate root must carry `#![forbid(unsafe_code)]`.
//!
//! The workspace is pure safe Rust; `forbid` (unlike `deny`) cannot be
//! overridden further down the tree, so the attribute at each crate
//! root makes "no unsafe" a structural property rather than a review
//! convention. Crate roots are `src/lib.rs`, `src/main.rs`, and every
//! `src/bin/*.rs` — each is the root of its own compilation unit.

use crate::findings::Finding;
use crate::rules::FORBID_UNSAFE;
use crate::source::SourceFile;

/// True when `rel` (workspace-relative, `/`-separated) is a crate root.
pub fn is_crate_root(rel: &str) -> bool {
    let root_file =
        |name: &str| rel == format!("src/{name}") || rel.ends_with(&format!("/src/{name}"));
    root_file("lib.rs") || root_file("main.rs") || rel.contains("src/bin/")
}

/// Check one crate root for the attribute.
pub fn check(file: &SourceFile) -> Option<Finding> {
    let toks = &file.tokens;
    let found = (0..toks.len().saturating_sub(7)).any(|i| {
        toks[i].is_punct('#')
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('[')
            && toks[i + 3].is_ident("forbid")
            && toks[i + 4].is_punct('(')
            && toks[i + 5].is_ident("unsafe_code")
            && toks[i + 6].is_punct(')')
            && toks[i + 7].is_punct(']')
    });
    if found {
        None
    } else {
        Some(Finding::new(
            FORBID_UNSAFE,
            &file.path,
            1,
            "crate root is missing `#![forbid(unsafe_code)]`",
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_presence_is_detected() {
        let ok = SourceFile::parse("crates/x/src/lib.rs", "#![forbid(unsafe_code)]\nfn a() {}");
        assert!(check(&ok).is_none());
        let missing = SourceFile::parse("crates/x/src/lib.rs", "#![warn(missing_docs)]\nfn a() {}");
        let f = check(&missing).expect("missing attribute is a finding");
        assert_eq!(f.rule, FORBID_UNSAFE);
        assert_eq!(f.line, 1);
    }

    #[test]
    fn crate_roots_are_lib_main_and_bins() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/core/src/lib.rs"));
        assert!(is_crate_root("crates/analyzer/src/main.rs"));
        assert!(is_crate_root("crates/bench/src/bin/chaos_soak.rs"));
        assert!(is_crate_root("vendor/serde/src/lib.rs"));
        assert!(!is_crate_root("crates/core/src/eval.rs"));
    }
}
