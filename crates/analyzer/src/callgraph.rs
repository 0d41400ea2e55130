//! A workspace call graph over token trees.
//!
//! Functions are discovered structurally (`fn <name> ... { body }`) in
//! every scanned file; call sites are `ident ( ... )` sequences inside
//! a body. Resolution is by bare name across the whole workspace — an
//! over-approximation that errs toward *more* edges, which is the safe
//! direction for a reachability rule (`blocking_hot_path`). A stoplist
//! keeps ubiquitous std-style method names (`new`, `get`, `push`, ...)
//! from welding every file to every other.

use crate::source::SourceFile;
use crate::token_tree::{self, Delim, TokenTree};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method/function names too generic to resolve into edges: nearly all
/// bind to std types, and a workspace fn sharing one of these names
/// would otherwise attract every call site in the tree.
const EDGE_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "drop",
    "fmt",
    "from",
    "into",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "clear",
    "contains",
    "contains_key",
    "extend",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "filter",
    "collect",
    "fold",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "expect",
    "ok",
    "err",
    "take",
    "replace",
    "to_string",
    "as_str",
    "as_ref",
    "as_bytes",
    "as_deref",
    "parse",
    "trim",
    "split",
    "split_once",
    "join",
    "find",
    "position",
    "starts_with",
    "ends_with",
    "min",
    "max",
    "abs",
    "clamp",
    "entry",
    "or_default",
    "or_insert",
    "or_insert_with",
    "write",
    "writeln",
    "read",
    "lock",
    "send",
    "flush",
    "retain",
    "sort",
    "sort_by",
    "rev",
    "any",
    "all",
    "count",
    "sum",
    "zip",
    "chain",
    "enumerate",
    "cloned",
    "copied",
    "to_vec",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "accept",
    "open",
    "shutdown",
    "wait",
    "start",
    "run",
];

/// Keywords that can directly precede a parenthesis without being a
/// call, plus tuple-enum constructors.
const NON_CALL_IDENTS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "in", "as", "move", "ref", "mut",
    "let", "fn", "impl", "where", "pub", "crate", "super", "Some", "None", "Ok", "Err", "Box",
    "Vec", "String",
];

/// One discovered function (or method) definition.
#[derive(Debug)]
pub struct FnDef {
    /// Index of the defining file in the source slice the graph was
    /// built from.
    pub src: usize,
    /// Bare function name (no path, no generics).
    pub name: String,
    /// Token-index extent `[start, end]` of the body brace group in the
    /// defining file's token stream, delimiters included.
    pub body: (usize, usize),
    /// Whether the definition sits inside `#[cfg(test)]` code.
    pub in_test: bool,
    /// Bare callee names of the `callee(...)` sites inside the body, in
    /// source order.
    pub calls: Vec<String>,
}

/// The workspace call graph.
#[derive(Debug)]
pub struct CallGraph {
    /// Every discovered function, in file-then-source order.
    pub fns: Vec<FnDef>,
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per-fn crate prefix (`crates/server`, `vendor/rand`, `src`),
    /// used for scope-preferring resolution.
    crate_of: Vec<String>,
}

/// The crate prefix of a workspace-relative path: its first two
/// components under `crates/` / `vendor/`, or the first alone.
fn crate_prefix(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some(group @ ("crates" | "vendor")), Some(name)) => format!("{group}/{name}"),
        (Some(first), _) => first.to_string(),
        (None, _) => String::new(),
    }
}

impl CallGraph {
    /// Build the graph over every file in `sources`.
    pub fn build(sources: &[SourceFile]) -> CallGraph {
        let mut fns = Vec::new();
        for (src_idx, src) in sources.iter().enumerate() {
            let forest = token_tree::parse(&src.tokens);
            collect_fns(src, src_idx, &forest, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let crate_of = fns
            .iter()
            .map(|f| crate_prefix(&sources[f.src].path))
            .collect();
        CallGraph {
            fns,
            by_name,
            crate_of,
        }
    }

    /// Indices of functions named `name`, across all files.
    pub fn fns_named(&self, name: &str) -> &[usize] {
        self.by_name.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Resolve a call to `name` made from `caller`: nothing for
    /// stoplisted names; otherwise the nearest-scoped same-named fns
    /// that `admit` accepts — same file if any, else same crate, else
    /// the whole workspace. The caller itself is never a candidate
    /// (self-recursion adds no information to a reachability rule).
    ///
    /// Admission applies *before* scope preference. Filtering first
    /// matters: when a name is defined both in an excluded module (say,
    /// a same-crate client stub) and in a legitimate callee elsewhere,
    /// rejecting after tiering would pick the excluded nearest match and
    /// drop the edge entirely, hiding the real one.
    pub fn resolve_for(
        &self,
        caller: usize,
        name: &str,
        admit: &dyn Fn(&FnDef, &str) -> bool,
    ) -> Vec<usize> {
        if EDGE_STOPLIST.contains(&name) {
            return Vec::new();
        }
        let all: Vec<usize> = self
            .fns_named(name)
            .iter()
            .copied()
            .filter(|&i| i != caller && admit(&self.fns[i], &self.crate_of[i]))
            .collect();
        let same_file: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.fns[i].src == self.fns[caller].src)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let same_crate: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.crate_of[i] == self.crate_of[caller])
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        all
    }

    /// Breadth-first reachability from `entries` (fn indices), test
    /// code and callees rejected by `admit` excluded. Returns
    /// `reached fn -> predecessor fn` (entries map to themselves), so
    /// rules can reconstruct a witness path.
    pub fn reachable_from(
        &self,
        entries: &[usize],
        admit: &dyn Fn(&FnDef, &str) -> bool,
    ) -> BTreeMap<usize, usize> {
        let mut pred: BTreeMap<usize, usize> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &e in entries {
            if pred.insert(e, e).is_none() {
                queue.push_back(e);
            }
        }
        while let Some(at) = queue.pop_front() {
            let mut callees: BTreeSet<usize> = BTreeSet::new();
            for call in &self.fns[at].calls {
                // Admission runs inside resolution so an excluded
                // nearest-scope candidate cannot shadow an admitted
                // farther one.
                callees.extend(self.resolve_for(at, call, admit));
            }
            for next in callees {
                if self.fns[next].in_test {
                    continue;
                }
                if let std::collections::btree_map::Entry::Vacant(slot) = pred.entry(next) {
                    slot.insert(at);
                    queue.push_back(next);
                }
            }
        }
        pred
    }

    /// The witness call path from an entry to `target`, as fn names
    /// joined with arrows, given a predecessor map from
    /// [`CallGraph::reachable_from`].
    pub fn path_to(&self, pred: &BTreeMap<usize, usize>, target: usize) -> String {
        let mut names = vec![self.fns[target].name.clone()];
        let mut at = target;
        // Bounded walk: predecessor chains terminate at an entry
        // (pred[e] == e) and the map is acyclic by construction.
        for _ in 0..self.fns.len() {
            let Some(&prev) = pred.get(&at) else { break };
            if prev == at {
                break;
            }
            names.push(self.fns[prev].name.clone());
            at = prev;
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// Recursively discover `fn` items in a sibling list. Bodies are then
/// scanned for call sites; bodies may themselves contain nested `fn`s,
/// which are discovered as their own definitions.
fn collect_fns(src: &SourceFile, src_idx: usize, siblings: &[TokenTree], out: &mut Vec<FnDef>) {
    let tokens = &src.tokens;
    let mut i = 0;
    while i < siblings.len() {
        let is_fn_kw = siblings[i]
            .as_leaf()
            .is_some_and(|t| tokens[t].is_ident("fn"));
        if !is_fn_kw {
            // Descend into groups (mod/impl/trait bodies, and fn bodies
            // already claimed — nested fns get found there too).
            if let Some(g) = siblings[i].as_group() {
                collect_fns(src, src_idx, &g.children, out);
            }
            i += 1;
            continue;
        }
        let fn_tok = siblings[i].as_leaf().expect("fn keyword is a leaf");
        // The name is the first ident leaf after `fn`.
        let Some(name_node) = siblings[i + 1..].iter().find(|n| {
            n.as_leaf()
                .is_some_and(|t| tokens[t].kind == crate::lexer::TokKind::Ident)
        }) else {
            i += 1;
            continue;
        };
        let name = name_node
            .as_leaf()
            .map(|t| tokens[t].text.clone())
            .expect("name is a leaf");
        // The body is the first brace group before a `;` (trait method
        // signatures have no body and end at `;`).
        let mut body: Option<&token_tree::Group> = None;
        for node in &siblings[i + 1..] {
            if node.as_leaf().is_some_and(|t| tokens[t].is_punct(';')) {
                break;
            }
            if let Some(g) = node.as_group() {
                if g.delim == Delim::Brace {
                    body = Some(g);
                    break;
                }
            }
        }
        let Some(body) = body else {
            i += 1;
            continue;
        };
        let extent = token_tree::group_extent(body, tokens.len());
        let mut calls = Vec::new();
        collect_calls(tokens, &body.children, &mut calls);
        out.push(FnDef {
            src: src_idx,
            name,
            body: extent,
            in_test: src.in_test_code(fn_tok),
            calls,
        });
        // Nested fns and closures inside the body are discovered by the
        // plain descent above on a later pass? No — claim them here.
        collect_fns(src, src_idx, &body.children, out);
        // Skip past the body group among our siblings.
        let body_open = body.open;
        while i < siblings.len() {
            let passed = match &siblings[i] {
                TokenTree::Group(g) => g.open == body_open,
                TokenTree::Leaf(_) => false,
            };
            i += 1;
            if passed {
                break;
            }
        }
    }
}

/// Find `ident ( ... )` call sites in a sibling list, recursing into
/// groups. Macro invocations (`name!(...)`) are naturally excluded by
/// the interposed `!` leaf; `fn name(...)` declarations by the leading
/// `fn`.
fn collect_calls(tokens: &[crate::lexer::Token], siblings: &[TokenTree], out: &mut Vec<String>) {
    for (i, node) in siblings.iter().enumerate() {
        if let Some(g) = node.as_group() {
            collect_calls(tokens, &g.children, out);
            continue;
        }
        let t = node.as_leaf().expect("leaf");
        if tokens[t].kind != crate::lexer::TokKind::Ident {
            continue;
        }
        let name = tokens[t].text.as_str();
        if NON_CALL_IDENTS.contains(&name) {
            continue;
        }
        // Previous leaf must not be `fn` (that is the declaration).
        if i > 0
            && siblings[i - 1]
                .as_leaf()
                .is_some_and(|p| tokens[p].is_ident("fn"))
        {
            continue;
        }
        let followed_by_paren = siblings
            .get(i + 1)
            .and_then(|n| n.as_group())
            .is_some_and(|g| g.delim == Delim::Paren);
        if followed_by_paren {
            out.push(name.to_string());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(files: &[(&str, &str)]) -> (Vec<SourceFile>, CallGraph) {
        let sources: Vec<SourceFile> = files
            .iter()
            .map(|(path, src)| SourceFile::parse(*path, src))
            .collect();
        let g = CallGraph::build(&sources);
        (sources, g)
    }

    #[test]
    fn fns_and_calls_are_discovered() {
        let (_, g) = graph(&[(
            "a.rs",
            "fn outer() { helper(1); x.method(); skip!(macro_arg); }\n\
             fn helper(n: u32) {}\n",
        )]);
        assert_eq!(g.fns.len(), 2);
        let outer = &g.fns[g.fns_named("outer")[0]];
        let names: Vec<&str> = outer.calls.iter().map(String::as_str).collect();
        assert!(names.contains(&"helper"), "{names:?}");
        assert!(names.contains(&"method"), "{names:?}");
        assert!(!names.contains(&"skip"), "macro is not a call: {names:?}");
    }

    #[test]
    fn reachability_crosses_files_and_skips_tests() {
        let (_, g) = graph(&[
            ("a.rs", "fn entry() { middle(); }"),
            (
                "b.rs",
                "fn middle() { leaf_fn(); }\n\
                 fn leaf_fn() {}\n\
                 fn unreached() { leaf_fn(); }\n\
                 #[cfg(test)]\n\
                 mod tests { fn t() { entry(); } }",
            ),
        ]);
        let entry = g.fns_named("entry")[0];
        let pred = g.reachable_from(&[entry], &|_, _| true);
        let leaf = g.fns_named("leaf_fn")[0];
        assert!(pred.contains_key(&leaf));
        assert!(!pred.contains_key(&g.fns_named("unreached")[0]));
        assert_eq!(g.path_to(&pred, leaf), "entry -> middle -> leaf_fn");
    }

    #[test]
    fn trait_signatures_without_bodies_are_skipped() {
        let (_, g) = graph(&[("a.rs", "trait T { fn sig(&self); fn has_body(&self) {} }")]);
        let names: Vec<&str> = g.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["has_body"]);
    }

    #[test]
    fn stoplisted_names_resolve_to_no_edges() {
        let (_, g) = graph(&[("a.rs", "fn get() {} fn caller() { get(); }")]);
        let caller = g.fns_named("caller")[0];
        assert!(g.resolve_for(caller, "get", &|_, _| true).is_empty());
        assert_eq!(
            g.resolve_for(caller, "caller", &|_, _| true).len(),
            0,
            "never self"
        );
    }

    #[test]
    fn resolution_prefers_the_nearest_scope() {
        let (_, g) = graph(&[
            ("crates/core/src/service.rs", "fn caller() { observe(); } "),
            ("crates/core/src/monitor.rs", "fn observe() {}"),
            ("crates/router/src/membership.rs", "fn observe() {}"),
        ]);
        let caller = g.fns_named("caller")[0];
        let resolved = g.resolve_for(caller, "observe", &|_, _| true);
        assert_eq!(resolved.len(), 1, "same-crate candidate wins");
        assert_eq!(g.crate_of[resolved[0]], "crates/core");
    }
}
