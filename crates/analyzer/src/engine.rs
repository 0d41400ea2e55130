//! Workspace walking and rule orchestration.

use crate::callgraph::CallGraph;
use crate::findings::{Finding, Report};
use crate::rules::{
    self, blocking_hot_path, determinism, drift, error_swallow, forbid_unsafe, lock_order,
    metric_names, panic_path, unsafe_audit,
};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// One analysis run's configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root (the directory holding `Cargo.toml`, `crates/`).
    pub root: PathBuf,
    /// Rule ids to run, drawn from [`rules::ALL_RULES`].
    pub rules: Vec<&'static str>,
}

impl Options {
    /// Run every rule against the tree rooted at `root`.
    pub fn all_rules(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            rules: rules::ALL_RULES.to_vec(),
        }
    }
}

/// Walk the workspace under `opts.root` and run the selected rules.
pub fn analyze(opts: &Options) -> Result<Report, String> {
    let mut report = Report {
        rules_run: opts.rules.clone(),
        ..Report::default()
    };
    let files = workspace_files(&opts.root)?;
    let mut sources = Vec::with_capacity(files.len());
    for (rel, abs) in &files {
        let text = std::fs::read_to_string(abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        sources.push(SourceFile::parse(rel.clone(), &text));
    }
    report.files_scanned = sources.len();

    // Malformed waivers are findings regardless of rule selection: a
    // waiver that fails to parse is silently NOT protecting its site.
    for src in &sources {
        for bad in &src.bad_waivers {
            report.findings.push(Finding::new(
                rules::WAIVER,
                &src.path,
                bad.line,
                format!("malformed waiver: {}", bad.problem),
            ));
        }
    }

    // The call-graph rules share one workspace graph; build it only
    // when one of them is selected.
    let graph = opts
        .rules
        .iter()
        .any(|r| matches!(*r, rules::LOCK_ORDER | rules::BLOCKING_HOT_PATH))
        .then(|| CallGraph::build(&sources));

    for rule in &opts.rules {
        match *rule {
            rules::PANIC_PATH => {
                for scoped in panic_path::SCOPE {
                    // `crates/<name>/`: a tree without the crate at all
                    // (the router came late) has nothing to be missing.
                    let krate = scoped.split_inclusive('/').take(2).collect::<String>();
                    match sources.iter().find(|s| s.path == scoped) {
                        Some(src) => apply(&mut report, src, panic_path::check(src)),
                        None if !sources.iter().any(|s| s.path.starts_with(&krate)) => {}
                        None => report.findings.push(Finding::new(
                            rules::PANIC_PATH,
                            scoped,
                            0,
                            "panic-path scoped file is missing from the workspace",
                        )),
                    }
                }
            }
            rules::DETERMINISM => {
                for src in sources.iter().filter(|s| {
                    determinism::SCOPE_PREFIXES
                        .iter()
                        .any(|p| s.path.starts_with(p))
                }) {
                    apply(&mut report, src, determinism::check(src));
                }
            }
            rules::METRIC_NAMES => {
                for src in sources.iter().filter(|s| metric_names::in_scope(&s.path)) {
                    apply(&mut report, src, metric_names::check(src));
                }
            }
            rules::FORBID_UNSAFE => {
                for src in sources
                    .iter()
                    .filter(|s| forbid_unsafe::is_crate_root(&s.path))
                {
                    apply(
                        &mut report,
                        src,
                        forbid_unsafe::check(src).into_iter().collect(),
                    );
                }
            }
            rules::LOCK_ORDER => {
                let graph = graph.as_ref().expect("graph built for lock_order");
                apply_all(&mut report, &sources, lock_order::check(&sources, graph));
            }
            rules::BLOCKING_HOT_PATH => {
                let graph = graph.as_ref().expect("graph built for blocking_hot_path");
                apply_all(
                    &mut report,
                    &sources,
                    blocking_hot_path::check(&sources, graph),
                );
            }
            rules::UNSAFE_AUDIT => {
                for src in &sources {
                    apply(&mut report, src, unsafe_audit::check(src));
                }
            }
            rules::ERROR_SWALLOW => {
                for src in &sources {
                    apply(&mut report, src, error_swallow::check(src));
                }
            }
            rules::DRIFT => report.findings.extend(drift::check(&opts.root)),
            other => return Err(format!("unknown rule `{other}`")),
        }
    }
    Ok(report)
}

/// Attach waivers to a batch of raw findings from one file, then record
/// them.
fn apply(report: &mut Report, src: &SourceFile, raw: Vec<Finding>) {
    for mut f in raw {
        if rules::waivable(f.rule) {
            if let Some(w) = src.waiver_for(f.rule, f.line) {
                f.waived = true;
                f.reason = Some(w.reason.clone());
            }
        }
        report.findings.push(f);
    }
}

/// Like [`apply`], for rules whose findings span files: each finding's
/// waiver is looked up in its own file.
fn apply_all(report: &mut Report, sources: &[SourceFile], raw: Vec<Finding>) {
    for mut f in raw {
        if rules::waivable(f.rule) {
            if let Some(src) = sources.iter().find(|s| s.path == f.file) {
                if let Some(w) = src.waiver_for(f.rule, f.line) {
                    f.waived = true;
                    f.reason = Some(w.reason.clone());
                }
            }
        }
        report.findings.push(f);
    }
}

/// Every `.rs` file under the workspace's source trees (`src/`,
/// `crates/*/src/`, `vendor/*/src/`), as `(relative, absolute)` pairs
/// sorted by relative path.
fn workspace_files(root: &Path) -> Result<Vec<(String, PathBuf)>, String> {
    let mut src_dirs = Vec::new();
    if root.join("src").is_dir() {
        src_dirs.push(root.join("src"));
    }
    for group in ["crates", "vendor"] {
        let dir = root.join(group);
        if !dir.is_dir() {
            continue;
        }
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                src_dirs.push(src);
            }
        }
    }
    if src_dirs.is_empty() {
        return Err(format!(
            "{} has no src/, crates/, or vendor/ source trees",
            root.display()
        ));
    }
    let mut files = Vec::new();
    for dir in src_dirs {
        collect_rs(&dir, &mut files)?;
    }
    let mut out = Vec::with_capacity(files.len());
    for abs in files {
        let rel = abs
            .strip_prefix(root)
            .map_err(|_| format!("{} escaped the workspace root", abs.display()))?;
        // `/`-separated relative paths keep scoping platform-independent.
        let rel = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push((rel, abs));
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
