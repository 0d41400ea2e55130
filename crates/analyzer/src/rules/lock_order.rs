//! `lock_order`: nested lock acquisitions must follow the canonical
//! workspace order.
//!
//! The workspace's named locks are ranked (lower rank = outer lock =
//! acquired first). Holding a lock while acquiring — directly or
//! through a callee, per the call graph — a *lower*-ranked lock is an
//! inversion: two threads doing it in opposite orders deadlock. The
//! canonical order, documented in DESIGN.md §15:
//!
//! 1. reconfig `transition` (serialises artifact lifecycle verbs)
//! 2. artifact store `inner` (journal + lifecycle state)
//! 3. reconfig `soak` (soak monitor state)
//! 4. server rate-limiter bucket `state`
//! 5. router membership `state`
//! 6. core service `monitor` → `health` → `cached`, profile `map`
//! 7. obs leaf locks (registry maps, span buffer, flight ring) —
//!    always innermost, so instrumentation can run under any of the
//!    above.
//!
//! Guards bound with `let` are held to the end of their block;
//! temporary guards to the end of their statement. Both are tracked by
//! a forward scan over the function's token tree extent.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::rules::Workspace;
use crate::source::SourceFile;
use std::collections::BTreeSet;

/// One ranked lock: `field` acquired via `.lock()`/`.read()`/`.write()`
/// inside `file` (lock fields are module-private, so acquisitions only
/// occur in the defining file).
#[derive(Debug)]
pub struct NamedLock {
    /// Defining file, workspace-relative.
    pub file: &'static str,
    /// Field name the guard method is called on.
    pub field: &'static str,
    /// Position in the canonical order; lower = acquired first.
    pub rank: u32,
    /// Human-readable name used in findings.
    pub label: &'static str,
}

/// The canonical lock table. Adding a lock is a reviewed diff here.
pub const LOCK_TABLE: &[NamedLock] = &[
    NamedLock {
        file: "crates/server/src/reconfig.rs",
        field: "transition",
        rank: 10,
        label: "reconfig.transition",
    },
    NamedLock {
        file: "crates/reconfig/src/store.rs",
        field: "inner",
        rank: 20,
        label: "store.inner",
    },
    NamedLock {
        file: "crates/server/src/reconfig.rs",
        field: "soak",
        rank: 30,
        label: "reconfig.soak",
    },
    NamedLock {
        file: "crates/server/src/server.rs",
        field: "state",
        rank: 40,
        label: "rate_limiter.state",
    },
    NamedLock {
        file: "crates/router/src/membership.rs",
        field: "state",
        rank: 45,
        label: "membership.state",
    },
    NamedLock {
        file: "crates/core/src/service.rs",
        field: "monitor",
        rank: 50,
        label: "service.monitor",
    },
    NamedLock {
        file: "crates/core/src/service.rs",
        field: "health",
        rank: 51,
        label: "service.health",
    },
    NamedLock {
        file: "crates/core/src/service.rs",
        field: "cached",
        rank: 52,
        label: "service.cached",
    },
    NamedLock {
        file: "crates/core/src/registry.rs",
        field: "map",
        rank: 55,
        label: "registry.map",
    },
    NamedLock {
        file: "crates/obs/src/registry.rs",
        field: "counters",
        rank: 60,
        label: "obs.counters",
    },
    NamedLock {
        file: "crates/obs/src/registry.rs",
        field: "gauges",
        rank: 61,
        label: "obs.gauges",
    },
    NamedLock {
        file: "crates/obs/src/registry.rs",
        field: "histograms",
        rank: 62,
        label: "obs.histograms",
    },
    NamedLock {
        file: "crates/obs/src/span.rs",
        field: "inner",
        rank: 63,
        label: "spans.inner",
    },
    NamedLock {
        file: "crates/obs/src/flight.rs",
        field: "events",
        rank: 64,
        label: "flight.events",
    },
];

/// A lock acquisition site inside one function body.
#[derive(Debug, Clone, Copy)]
struct Acquisition {
    /// Index into [`LOCK_TABLE`].
    lock: usize,
    /// Token index of the field identifier.
    token: usize,
    line: u32,
}

/// Guard-method names; an empty argument list distinguishes guard
/// acquisition from `io::Read`/`io::Write` calls, which take buffers.
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Find every ranked acquisition in `tokens[start..=end]` of `file`.
fn acquisitions(src: &SourceFile, start: usize, end: usize) -> Vec<Acquisition> {
    let tokens = &src.tokens;
    let mut out = Vec::new();
    let mut i = start;
    while i + 4 <= end {
        let hit = tokens[i].kind == crate::lexer::TokKind::Ident
            && tokens[i + 1].is_punct('.')
            && GUARD_METHODS.iter().any(|m| tokens[i + 2].is_ident(m))
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_punct(')');
        if hit {
            if let Some(lock) = LOCK_TABLE
                .iter()
                .position(|l| l.file == src.path && l.field == tokens[i].text)
            {
                out.push(Acquisition {
                    lock,
                    token: i,
                    line: tokens[i].line,
                });
            }
        }
        i += 1;
    }
    out
}

/// True when the guard at token `at` is bound to a variable (held to
/// the end of its block): the statement starts with `let` AND the
/// guard is the bound value itself — nothing chained after the
/// acquisition except `unwrap`/`expect`/`?` before the `;`. In
/// `let x = m.lock().is_some();` the guard is a temporary dropped at
/// the semicolon even though the statement is a `let`.
fn is_let_bound(src: &SourceFile, at: usize) -> bool {
    let tokens = &src.tokens;
    let mut i = at;
    while i > 0 {
        let t = &tokens[i - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        i -= 1;
    }
    if !tokens.get(i).is_some_and(|t| t.is_ident("let")) {
        return false;
    }
    // `at` is the field ident; `.lock ( )` occupies at+1..=at+4.
    let mut j = at + 5;
    loop {
        match tokens.get(j) {
            Some(t) if t.is_punct(';') => return true,
            Some(t) if t.is_punct('?') => j += 1,
            Some(t)
                if t.is_punct('.')
                    && tokens
                        .get(j + 1)
                        .is_some_and(|n| n.is_ident("unwrap") || n.is_ident("expect")) =>
            {
                let mut k = j + 2;
                if tokens.get(k).is_some_and(|t| t.is_punct('(')) {
                    let mut depth = 0i32;
                    while let Some(t) = tokens.get(k) {
                        if t.is_punct('(') {
                            depth += 1;
                        } else if t.is_punct(')') {
                            depth -= 1;
                            if depth == 0 {
                                k += 1;
                                break;
                            }
                        }
                        k += 1;
                    }
                }
                j = k;
            }
            _ => return false,
        }
    }
}

/// Run the rule: direct nesting inside each function plus one level of
/// call-site checking against callee transitive lock sets.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let (sources, graph) = (&ws.sources, ws.graph());
    // Per-fn acquisitions and direct lock sets.
    let per_fn: Vec<Vec<Acquisition>> = graph
        .fns
        .iter()
        .map(|f| acquisitions(&sources[f.src], f.body.0, f.body.1))
        .collect();

    // Transitive lock closure per fn, to a fixpoint (the graph may have
    // cycles; each pass only ever grows sets, so this terminates).
    let mut closure: Vec<BTreeSet<usize>> = per_fn
        .iter()
        .map(|acqs| acqs.iter().map(|a| a.lock).collect())
        .collect();
    loop {
        let mut changed = false;
        for (i, f) in graph.fns.iter().enumerate() {
            let mut add: BTreeSet<usize> = BTreeSet::new();
            for call in &f.calls {
                for callee in graph.resolve_for(i, &call.name) {
                    add.extend(closure[callee].iter().copied());
                }
            }
            let before = closure[i].len();
            closure[i].extend(add);
            changed |= closure[i].len() != before;
        }
        if !changed {
            break;
        }
    }

    let mut findings = Vec::new();
    for (fi, f) in graph.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let src = &sources[f.src];
        if per_fn[fi].is_empty() && f.calls.is_empty() {
            continue;
        }
        scan_fn(src, fi, f, &per_fn[fi], graph, &closure, &mut findings);
    }
    findings
}

/// A guard currently held during the forward scan.
struct Held {
    lock: usize,
    /// Brace depth (relative to the body) at acquisition.
    depth: u32,
    /// `let`-bound guards live to the end of their block; temporaries
    /// to the end of their statement.
    let_bound: bool,
}

fn scan_fn(
    src: &SourceFile,
    fi: usize,
    f: &crate::callgraph::FnDef,
    acqs: &[Acquisition],
    graph: &CallGraph,
    closure: &[BTreeSet<usize>],
    findings: &mut Vec<Finding>,
) {
    let tokens = &src.tokens;
    let mut acq_at = acqs.iter().map(|a| (a.token, *a)).collect::<Vec<_>>();
    acq_at.sort_by_key(|(t, _)| *t);
    let mut call_at: Vec<(usize, &crate::callgraph::CallSite)> =
        f.calls.iter().map(|c| (c.token, c)).collect();
    call_at.sort_by_key(|(t, _)| *t);

    let mut held: Vec<Held> = Vec::new();
    let mut depth: u32 = 0;
    let mut ai = 0;
    let mut ci = 0;
    let end = f.body.1.min(tokens.len().saturating_sub(1));
    for (i, t) in tokens.iter().enumerate().take(end + 1).skip(f.body.0) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth = depth.saturating_sub(1);
            // A block end releases `let` guards of that block, and
            // temporaries whose statement the block terminated (a
            // `for`/`match`/`if` header guard ends with its block).
            held.retain(|h| h.depth <= depth && (h.let_bound || h.depth < depth));
        } else if t.is_punct(';') {
            held.retain(|h| h.let_bound || h.depth != depth);
        }

        while ci < call_at.len() && call_at[ci].0 < i {
            ci += 1;
        }
        if ci < call_at.len() && call_at[ci].0 == i && !held.is_empty() {
            let call = call_at[ci].1;
            // The worst lock a callee (transitively) acquires versus
            // every lock currently held.
            for callee in graph.resolve_for(fi, &call.name) {
                let mut worst: Option<usize> = None;
                for &acquired in &closure[callee] {
                    for h in &held {
                        if LOCK_TABLE[acquired].rank < LOCK_TABLE[h.lock].rank
                            && worst.is_none_or(|w| LOCK_TABLE[acquired].rank < LOCK_TABLE[w].rank)
                        {
                            worst = Some(acquired);
                        }
                    }
                }
                if let Some(acquired) = worst {
                    let outer = held
                        .iter()
                        .max_by_key(|h| LOCK_TABLE[h.lock].rank)
                        .expect("held is non-empty");
                    findings.push(Finding::new(
                        &src.path,
                        call.line,
                        format!(
                            "call to `{}` acquires `{}` (rank {}) while `{}` (rank {}) is held \
                             — inverts the canonical lock order",
                            call.name,
                            LOCK_TABLE[acquired].label,
                            LOCK_TABLE[acquired].rank,
                            LOCK_TABLE[outer.lock].label,
                            LOCK_TABLE[outer.lock].rank,
                        ),
                    ));
                    break; // one finding per call site
                }
            }
        }

        while ai < acq_at.len() && acq_at[ai].0 < i {
            ai += 1;
        }
        if ai < acq_at.len() && acq_at[ai].0 == i {
            let acq = acq_at[ai].1;
            for h in &held {
                if LOCK_TABLE[acq.lock].rank < LOCK_TABLE[h.lock].rank {
                    findings.push(Finding::new(
                        &src.path,
                        acq.line,
                        format!(
                            "`{}` (rank {}) acquired while holding `{}` (rank {}) \
                             — inverts the canonical lock order",
                            LOCK_TABLE[acq.lock].label,
                            LOCK_TABLE[acq.lock].rank,
                            LOCK_TABLE[h.lock].label,
                            LOCK_TABLE[h.lock].rank,
                        ),
                    ));
                    break;
                }
            }
            held.push(Held {
                lock: acq.lock,
                depth,
                let_bound: is_let_bound(src, i),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed = files.iter().map(|(p, s)| SourceFile::parse(*p, s));
        super::run(&Workspace::new(parsed.collect()))
    }

    #[test]
    fn direct_inversion_is_flagged() {
        let findings = run(&[(
            "crates/server/src/reconfig.rs",
            "fn bad(&self) { let _s = self.soak.lock(); let _t = self.transition.lock(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("reconfig.transition"));
    }

    #[test]
    fn canonical_order_is_clean() {
        let findings = run(&[(
            "crates/server/src/reconfig.rs",
            "fn good(&self) { let _t = self.transition.lock(); *self.soak.lock() = None; }",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn temporaries_release_at_statement_end() {
        let findings = run(&[(
            "crates/server/src/reconfig.rs",
            "fn fine(&self) { let x = self.soak.lock().is_some(); drop(x); \
             let _t = self.transition.lock(); }",
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn transitive_inversion_through_a_callee_is_flagged() {
        let findings = run(&[(
            "crates/server/src/reconfig.rs",
            "fn locks_transition(&self) { let _t = self.transition.lock(); }\n\
             fn bad(&self) { let _s = self.soak.lock(); self.locks_transition(); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("locks_transition"));
    }
}
