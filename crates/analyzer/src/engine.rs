//! Workspace walking and rule orchestration.

use crate::findings::{Finding, Report};
use crate::rules::{self, Rule, Workspace};
use crate::source::SourceFile;
use std::path::{Path, PathBuf};

/// One analysis run's configuration.
pub struct Options {
    /// Workspace root (the directory holding `Cargo.toml`, `crates/`).
    pub root: PathBuf,
    /// Rows of [`rules::RULES`] to run, in order.
    pub rules: Vec<&'static Rule>,
}

impl Options {
    /// Run every rule against the tree rooted at `root`.
    pub fn all_rules(root: impl Into<PathBuf>) -> Options {
        Options {
            root: root.into(),
            rules: rules::RULES.iter().collect(),
        }
    }
}

/// Walk the workspace under `opts.root` and run the selected rules.
pub fn analyze(opts: &Options) -> Result<Report, String> {
    let mut sources = Vec::new();
    for (rel, abs) in workspace_files(&opts.root)? {
        let text = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        sources.push(SourceFile::parse(rel, &text));
    }
    let ws = Workspace::new(sources);
    let mut report = Report {
        rules_run: opts.rules.iter().map(|rule| rule.id).collect(),
        files_scanned: ws.sources.len(),
        ..Report::default()
    };

    // Malformed waivers are findings regardless of rule selection: a
    // waiver that fails to parse is silently NOT protecting its site.
    for src in &ws.sources {
        for bad in &src.bad_waivers {
            report.findings.push(Finding {
                rule: rules::WAIVER,
                ..Finding::new(
                    &src.path,
                    bad.line,
                    format!("malformed waiver: {}", bad.problem),
                )
            });
        }
    }

    for rule in &opts.rules {
        for mut f in (rule.run)(&ws) {
            f.rule = rule.id;
            // A waiver sits in the file its finding names, which for a
            // call-graph rule need not be the file the walk started in.
            let src = ws.sources.iter().find(|s| s.path == f.file);
            if let Some(w) = src.and_then(|s| s.waiver_for(rule.id, f.line)) {
                f.waived = true;
                f.reason = Some(w.reason.clone());
            }
            report.findings.push(f);
        }
    }
    Ok(report)
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
