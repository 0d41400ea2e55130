//! `blocking_hot_path`: no blocking primitive may be reachable from an
//! event-loop entry point.
//!
//! The static twin of the serve-path p99 budget: the reactor and the
//! worker run loops must never stall on work whose latency is decided
//! by a disk or a peer. Reachability is computed over the workspace
//! call graph from the entry points below; any reachable call to a
//! blocking primitive — `fsync`-family durability calls,
//! `std::thread::sleep`, a deadline-less `connect`, an unbounded
//! channel `recv()` — is flagged with a witness call path. Code that
//! runs on the reactor thread is held to more: there a deadline does
//! not excuse a wait on a peer, so `connect_timeout` and a client
//! round trip (`.call(..)`, `.request(..)`, `.round_trip(..)`, and the
//! fan-out `Client::call_each(..)`) are findings too. The one place a
//! relay may dial is a job on the worker pool.
//!
//! Deliberate blocking (a worker's idle wait on the job queue, the
//! journal's durability contract) is waived at the site with a reason,
//! so every blocking call on the hot path is a reviewed decision.

use crate::findings::Finding;
use crate::rules::Workspace;
use crate::source::SourceFile;

/// The thread an entry point runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Thread {
    /// The event loop: every connection waits while it does.
    Reactor,
    /// A pool worker: may wait on a peer, under a deadline.
    Worker,
}

/// Hot-path entry points, as `(file, fn name, thread)`: the I/O layer's
/// event loop and poll dispatch, its upstream-socket path, and the
/// worker pool's run loop. The layer reaches a handler only through
/// generic `Handler` calls, which name resolution binds to the
/// same-crate daemon; the router's handler is therefore listed itself —
/// `execute` is a worker-side wait the reactor never reaches (its
/// `inline` hook is the default `None`), the relay hooks run on the
/// reactor.
pub const ENTRY_POINTS: &[(&str, &str, Thread)] = &[
    ("crates/server/src/net.rs", "run", Thread::Reactor),
    ("crates/server/src/net.rs", "upstream_line", Thread::Reactor),
    ("crates/server/src/net.rs", "attempt", Thread::Reactor),
    ("crates/server/src/net.rs", "dialled", Thread::Reactor),
    ("crates/server/src/net.rs", "worker_loop", Thread::Worker),
    ("crates/server/src/epoll.rs", "wait", Thread::Reactor),
    ("crates/router/src/tier.rs", "execute", Thread::Worker),
    ("crates/router/src/tier.rs", "relay", Thread::Reactor),
    ("crates/router/src/tier.rs", "relayed", Thread::Reactor),
    ("crates/router/src/tier.rs", "unroutable", Thread::Reactor),
];

/// Module prefixes the serving tier never calls back into: client
/// stubs, the CLI driver, and the bench harness all live on the *other*
/// side of the socket. Name-based resolution would otherwise route
/// generic verbs (`schedule`, `call`, `request`) into these modules
/// and manufacture impossible reachability chains.
pub const NON_CALLEE_MODULES: &[&str] = &[
    "crates/server/src/client.rs",
    "crates/cli/src/",
    "crates/bench/src/",
];

/// One matched blocking primitive.
struct Site {
    /// Token index of the primitive's identifier.
    token: usize,
    line: u32,
    what: &'static str,
}

/// Find blocking-primitive call sites in `tokens[start..=end]`; with
/// `reactor`, deadline-bounded waits on a peer count as well.
fn blocking_sites(src: &SourceFile, start: usize, end: usize, reactor: bool) -> Vec<Site> {
    let tokens = &src.tokens;
    let mut out = Vec::new();
    let at = |i: usize| tokens.get(i);
    for i in start..=end.min(tokens.len().saturating_sub(1)) {
        if tokens[i].kind != crate::lexer::TokKind::Ident {
            continue;
        }
        let name = tokens[i].text.as_str();
        let line = tokens[i].line;
        let called = at(i + 1).is_some_and(|t| t.is_punct('('));
        let method = i > 0 && tokens[i - 1].is_punct('.');
        let path = i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':');
        let what: Option<&'static str> = match name {
            "sync_all" | "sync_data" if called && method => Some("fsync-family durability call"),
            "fsync" | "fdatasync" if called => Some("fsync-family durability call"),
            "sleep" if called && path => Some("thread sleep"),
            "recv" if method && called && at(i + 2).is_some_and(|t| t.is_punct(')')) => {
                Some("unbounded channel recv")
            }
            "connect" if called && path => Some("deadline-less blocking connect"),
            "connect_timeout" if reactor && called && path => {
                Some("blocking connect on the reactor thread")
            }
            "call" | "request" | "round_trip" | "call_each"
                if reactor && called && (method || path) =>
            {
                Some("client round trip on the reactor thread")
            }
            _ => None,
        };
        if let Some(what) = what {
            if !src.in_test_code(i) {
                out.push(Site {
                    token: i,
                    line,
                    what,
                });
            }
        }
    }
    out
}

/// Run the rule over the whole workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let (sources, graph) = (&ws.sources, ws.graph());
    let entries = |reactor_only: bool| -> Vec<usize> {
        let listed = |f: &crate::callgraph::FnDef| {
            ENTRY_POINTS.iter().any(|(file, name, thread)| {
                sources[f.src].path == *file
                    && f.name == *name
                    && !(reactor_only && *thread == Thread::Worker)
            })
        };
        let fns = graph.fns.iter().enumerate();
        fns.filter(|(_, f)| !f.in_test && listed(f))
            .map(|(i, _)| i)
            .collect()
    };
    let admit = |f: &crate::callgraph::FnDef, _name: &str| {
        let path = &sources[f.src].path;
        !NON_CALLEE_MODULES.iter().any(|m| path.starts_with(m))
    };

    let mut findings = Vec::new();
    // Deduped by (src, token). The reactor's reach goes first, so a site
    // both threads reach is reported once, under the stricter reading.
    let mut seen: Vec<(usize, usize)> = Vec::new();
    for reactor in [true, false] {
        let pred = graph.reachable_from(&entries(reactor), &admit);
        for &fi in pred.keys() {
            let f = &graph.fns[fi];
            let src = &sources[f.src];
            for site in blocking_sites(src, f.body.0, f.body.1, reactor) {
                if seen.contains(&(f.src, site.token)) {
                    continue;
                }
                seen.push((f.src, site.token));
                findings.push(Finding::new(
                    &src.path,
                    site.line,
                    format!(
                        "{} reachable from event-loop entry via {}",
                        site.what,
                        graph.path_to(&pred, fi),
                    ),
                ));
            }
        }
    }
    // Stable output order: by file then line.
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed = files.iter().map(|(p, s)| SourceFile::parse(*p, s));
        super::run(&Workspace::new(parsed.collect()))
    }

    #[test]
    fn fsync_reachable_from_the_event_loop_is_flagged() {
        let findings = run(&[
            (
                "crates/server/src/net.rs",
                "fn run(&mut self) { self.handle(); }\nfn handle(&mut self) { persist(); }",
            ),
            (
                "crates/reconfig/src/store.rs",
                "fn persist() { file.sync_all().unwrap(); }",
            ),
        ]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("run -> handle -> persist"));
        assert_eq!(findings[0].file, "crates/reconfig/src/store.rs");
    }

    #[test]
    fn unreachable_blocking_calls_are_not_flagged() {
        let findings = run(&[
            ("crates/server/src/net.rs", "fn run(&mut self) {}"),
            (
                "crates/reconfig/src/store.rs",
                "fn persist() { file.sync_all().unwrap(); }",
            ),
        ]);
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn sleep_and_unbounded_recv_in_run_loops_are_flagged() {
        let findings = run(&[(
            "crates/server/src/net.rs",
            "fn worker_loop(rx: &Receiver<u8>) { \
               while let Ok(_x) = rx.recv() { std::thread::sleep(d); } \
               let _soon = rx.recv_timeout(d); }",
        )]);
        assert_eq!(findings.len(), 2, "{findings:#?}");
    }

    #[test]
    fn a_deadline_excuses_a_peer_wait_on_a_worker_but_not_on_the_reactor() {
        let dial = "let mut c = Client::connect_timeout(&addr, d); c.request(line);";
        let findings = run(&[(
            "crates/server/src/net.rs",
            &format!("fn worker_loop(&self) {{ {dial} }}"),
        )]);
        assert!(findings.is_empty(), "{findings:#?}");
        let findings = run(&[
            (
                "crates/router/src/tier.rs",
                "fn relay(&self, line: &str) { self.probe(line); }",
            ),
            (
                "crates/router/src/membership.rs",
                &format!("fn probe(&self, line: &str) {{ {dial} }}"),
            ),
        ]);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings[0].message.contains("relay -> probe"));
        // `call` is the client's one verb: a pooled, already-dialled
        // client asked from a relay hook still waits on a peer.
        let findings = run(&[(
            "crates/router/src/tier.rs",
            "fn relay(&self, c: &mut Client, req: &Request) { c.call(&req); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("client round trip"));
        // So is its fan-out form, which waits on every peer it asks.
        let findings = run(&[(
            "crates/router/src/tier.rs",
            "fn relay(&self, cs: &mut [Client], req: &Request) { Client::call_each(cs, req); }",
        )]);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("client round trip"));
    }
}
