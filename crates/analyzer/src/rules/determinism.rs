//! `determinism`: seeded decision code must not read wall clocks or
//! ambient entropy.
//!
//! The schedulers, the orchestrator with its fault schedules, and the
//! MPI simulator back the paper's reproducibility claims: the same seed
//! must produce the same placement, the same fault timeline, the same
//! remapping decisions, the same trace; the daemon's and router's
//! deadlines, rate cap and debounces must be drivable by a test. A stray
//! `Instant::now()` or `thread_rng()` silently breaks that. Timing that
//! genuinely needs a clock flows through `TelemetrySink::clock` (one
//! waived read) or a registry's `cbes_obs::Clock` (read in `cbes-obs`).
//!
//! `#[cfg(test)]` code is exempt — tests may time themselves.

use crate::findings::Finding;
use crate::rules::Workspace;
use crate::source::SourceFile;

/// Directory prefixes (workspace-relative) the rule applies to.
const SCOPE_PREFIXES: [&str; 6] = [
    "crates/sched/src/",
    "crates/runtime/src/",
    "crates/mpisim/src/",
    "crates/core/src/",
    "crates/server/src/",
    "crates/router/src/",
];

/// Run the rule over every file under [`SCOPE_PREFIXES`].
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let in_scope = |s: &&SourceFile| SCOPE_PREFIXES.iter().any(|p| s.path.starts_with(p));
    ws.sources.iter().filter(in_scope).flat_map(check).collect()
}

fn check(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if file.in_test_code(i) {
            continue;
        }
        let t = &toks[i];
        // `Instant::now` / `SystemTime::now`
        if (t.is_ident("Instant") || t.is_ident("SystemTime"))
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && toks.get(i + 3).is_some_and(|c| c.is_ident("now"))
        {
            out.push(Finding::new(
                &file.path,
                t.line,
                format!(
                    "wall-clock read `{}::now` in deterministic decision code; route timing through `TelemetrySink::clock` or the registry's `Clock`",
                    t.text
                ),
            ));
        }
        // Unseeded RNG construction.
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("from_os_rng") {
            out.push(Finding::new(
                &file.path,
                t.line,
                format!(
                    "unseeded RNG (`{}`) in deterministic decision code; seed from the request",
                    t.text
                ),
            ));
        }
        // `rand::random` (but not e.g. `rng.random_range`).
        if t.is_ident("rand")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|b| b.is_punct(':'))
            && toks.get(i + 3).is_some_and(|c| c.is_ident("random"))
        {
            out.push(Finding::new(
                &file.path,
                t.line,
                "`rand::random` draws from ambient entropy; seed from the request",
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        check(&SourceFile::parse("crates/sched/src/sa.rs", src))
    }

    #[test]
    fn clock_reads_are_flagged() {
        assert_eq!(run("fn a() { let t = Instant::now(); }").len(), 1);
        assert_eq!(
            run("fn a() { let t = std::time::SystemTime::now(); }").len(),
            1
        );
        assert!(run("fn a(s: &mut impl TelemetrySink) { let t = s.clock(); }").is_empty());
    }

    #[test]
    fn unseeded_rng_is_flagged_but_seeded_is_not() {
        assert_eq!(run("fn a() { let mut rng = rand::thread_rng(); }").len(), 1);
        assert_eq!(run("fn a() { let x: u8 = rand::random(); }").len(), 1);
        assert!(run("fn a() { let mut rng = StdRng::seed_from_u64(7); }").is_empty());
        assert!(run("fn a(rng: &mut StdRng) { rng.random_range(0..4); }").is_empty());
    }

    #[test]
    fn test_code_may_read_clocks() {
        let src = "#[cfg(test)] mod t { fn a() { let t = Instant::now(); } }";
        assert!(run(src).is_empty());
    }
}
