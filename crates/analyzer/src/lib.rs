//! `cbes-analyze`: workspace-aware static analysis for the CBES
//! codebase.
//!
//! A dependency-free Rust lexer plus a rule engine enforcing the
//! invariants the serving stack depends on but the compiler cannot
//! see: centralised metric naming ([`rules::metric_names`]). Panic-free
//! request handling, seeded determinism, the `unsafe` allowlist and the
//! crash-safety discards are compiler lints instead (see [`rules`]).
//!
//! On top of the flat stream sit a brace-aware token-tree parser
//! ([`token_tree`]) and a workspace call graph ([`callgraph`]), which
//! power the structural rule: no blocking primitives reachable from the
//! event loop ([`rules::blocking_hot_path`]). Every rule is one row of
//! [`rules::RULES`].
//!
//! Run it from the workspace root:
//!
//! ```text
//! cargo run -p cbes-analyze -- --workspace
//! ```
//!
//! Sites that are provably fine carry a
//! `// cbes-analyze: allow(<rule>, <reason>)` waiver; waivers are
//! counted and reported.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod callgraph;
pub mod engine;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod source;
pub mod token_tree;

pub use engine::{analyze, Options};
pub use findings::{Finding, Report};
