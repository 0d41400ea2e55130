//! `metric_names`: instrumentation call sites must name metrics via
//! the `cbes_obs::names` constants module, never via string literals.
//!
//! A typo in a literal metric name silently forks a counter — the
//! dashboards keep working, each half under-counting. Routing every
//! name through one constants module turns that typo into a compile
//! error (`names::SERVER_SREVED` does not exist).
//!
//! Flagged: `.counter("...")`, `.gauge("...")`, `.histogram("...")`,
//! `.span("...")`, `.span_rooted("...")` with a string-literal
//! argument, outside `#[cfg(test)]` (tests may mint scratch names).

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::rules::Workspace;
use crate::source::SourceFile;

/// Instrumentation entry points whose first argument is a metric name.
const INSTRUMENT_FNS: [&str; 5] = ["counter", "gauge", "histogram", "span", "span_rooted"];

/// True when `rel` (workspace-relative path) is in scope: production
/// crates, excluding `cbes-obs` itself (it defines the constants) and
/// this analyzer.
fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/")
        && !rel.starts_with("crates/obs/")
        && !rel.starts_with("crates/analyzer/")
}

/// Run the rule over every file [`in_scope`].
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let scoped = ws.sources.iter().filter(|s| in_scope(&s.path));
    scoped.flat_map(check).collect()
}

fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 1..toks.len() {
        if file.in_test_code(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident
            && INSTRUMENT_FNS.contains(&t.text.as_str())
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && toks.get(i + 2).is_some_and(|a| a.kind == TokKind::Str)
        {
            let name = &toks[i + 2].text;
            out.push(Finding::new(
                &file.path,
                t.line,
                format!(
                    "metric name \"{name}\" is a string literal; use a `cbes_obs::names` constant"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("crates/server/src/server.rs", src))
    }

    #[test]
    fn literal_names_are_flagged() {
        let f = run("fn a(r: &Registry) { r.counter(\"server.served\").incr(); }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("server.served"));
        assert_eq!(
            run("fn a(r: &Registry) { r.histogram(\"lat\").record(1); }").len(),
            1
        );
    }

    #[test]
    fn constants_and_computed_names_are_fine() {
        assert!(run("fn a(r: &Registry) { r.counter(names::SERVER_SERVED).incr(); }").is_empty());
        assert!(run("fn a(r: &Registry, n: &'static str) { r.span(n); }").is_empty());
        assert_eq!(
            run("fn a(s: &SpanRing) { s.span_rooted(\"lit\", 1, 0); }").len(),
            1
        );
        assert!(
            run("fn a(s: &SpanRing) { s.span_rooted(names::SPAN_CLI_REQUEST, 1, 0); }").is_empty()
        );
    }

    #[test]
    fn tests_may_mint_scratch_names() {
        let src = "#[cfg(test)] mod t { fn a(r: &Registry) { r.counter(\"scratch\"); } }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn scope_excludes_obs_and_analyzer() {
        assert!(in_scope("crates/server/src/server.rs"));
        assert!(!in_scope("crates/obs/src/registry.rs"));
        assert!(!in_scope("crates/analyzer/src/main.rs"));
        assert!(!in_scope("vendor/serde/src/lib.rs"));
    }
}
