//! The rule table. A rule is one row of [`RULES`]: its id (used in
//! findings, in waiver annotations and by `--rules`), the one-line
//! summary `--help` prints, and the function that runs it. Each rule
//! module owns its scoping behind that one `run`; the engine only loops
//! the selected rows.
//!
//! What a token can show, the compiler holds instead: panic-free request
//! handling is clippy's `unwrap_used`, `indexing_slicing` and panic-family
//! lints in the roots of `cbes-core`, `cbes-server`, `cbes-router` and
//! `cbes-netmodel`, and seeded determinism is the root `clippy.toml`'s
//! `disallowed-methods`. The `unsafe` allowlist and the crash-safety
//! discards are compiler lints too, and the lock order is part of each
//! lock's type, checked on every debug-build acquisition (DESIGN.md §15).
//! The rules here need what clippy lacks: the call graph, or (until the
//! metric names are a type) the `cbes_obs::names` constants.

use crate::callgraph::CallGraph;
use crate::findings::Finding;
use crate::source::SourceFile;
use std::cell::OnceCell;

pub mod blocking_hot_path;
pub mod metric_names;

/// What a rule reads: every source file of the tree, parsed once, and
/// the call graph over them, built when the first rule asks for it.
pub struct Workspace {
    /// The parsed files, sorted by workspace-relative path.
    pub sources: Vec<SourceFile>,
    graph: OnceCell<CallGraph>,
}

impl Workspace {
    /// A workspace over already-parsed files.
    pub fn new(sources: Vec<SourceFile>) -> Workspace {
        Workspace {
            sources,
            graph: OnceCell::new(),
        }
    }

    /// The workspace call graph.
    pub fn graph(&self) -> &CallGraph {
        self.graph.get_or_init(|| CallGraph::build(&self.sources))
    }
}

/// One row of the rule table.
pub struct Rule {
    /// Stable id.
    pub id: &'static str,
    /// What the rule holds, in one line.
    pub summary: &'static str,
    /// Run the rule over the workspace. Findings come back without a
    /// rule id or waivers; the engine attaches both.
    pub run: fn(&Workspace) -> Vec<Finding>,
}

/// Every rule, in run order. A new rule is one row here plus one bullet
/// in DESIGN.md §10 (`tests/analyzer_fixtures.rs` holds the two
/// together).
pub const RULES: &[Rule] = &[
    Rule {
        id: "metric_names",
        summary: "metric names come from cbes_obs::names, never from a literal",
        run: metric_names::run,
    },
    Rule {
        id: "blocking_hot_path",
        summary: "no blocking primitive reachable from an event-loop entry point",
        run: blocking_hot_path::run,
    },
];

/// The `rule` of a malformed-waiver finding: raised whatever rows are
/// selected, and not waivable.
pub const WAIVER: &str = "waiver";
