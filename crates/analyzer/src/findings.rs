//! Findings and the machine-readable report.
//!
//! The crate is dependency-free, so the JSON report is emitted by hand;
//! the format is flat and stable so CI tooling can consume it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One analysis finding — waived or not.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Id of the [`crate::rules::RULES`] row that produced it. A rule
    /// leaves it empty; the engine stamps it from the row it ran, so no
    /// rule module spells its own id.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line, or 0 for file-level findings.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
    /// True when an `allow(rule, reason)` waiver annotation covers the
    /// site.
    pub waived: bool,
    /// The waiver's documented reason, when waived.
    pub reason: Option<String>,
}

impl Finding {
    /// An unwaived finding, its `rule` still to be stamped.
    pub fn new(file: &str, line: u32, message: impl Into<String>) -> Finding {
        Finding {
            rule: "",
            file: file.to_string(),
            line,
            message: message.into(),
            waived: false,
            reason: None,
        }
    }
}

/// The full result of an analysis run.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, waived ones included.
    pub findings: Vec<Finding>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Rule ids that ran.
    pub rules_run: Vec<&'static str>,
}

impl Report {
    /// Findings not covered by a waiver — these fail the run.
    pub fn unwaived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Findings covered by a waiver — reported but not fatal.
    pub fn waived(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| f.waived)
    }

    /// Per-rule `(unwaived, waived)` counts, sorted by rule id.
    pub fn counts_by_rule(&self) -> BTreeMap<&'static str, (usize, usize)> {
        let mut counts: BTreeMap<&'static str, (usize, usize)> = BTreeMap::new();
        for rule in &self.rules_run {
            counts.entry(rule).or_default();
        }
        for f in &self.findings {
            let entry = counts.entry(f.rule).or_default();
            if f.waived {
                entry.1 += 1;
            } else {
                entry.0 += 1;
            }
        }
        counts
    }

    /// Human-readable diagnostics: one `file:line rule message` per
    /// finding, then a per-rule summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = if f.waived { "waived" } else { "error" };
            let _ = writeln!(
                out,
                "{}: [{}] {}:{} {}",
                tag, f.rule, f.file, f.line, f.message
            );
            if let Some(reason) = &f.reason {
                let _ = writeln!(out, "        waiver reason: {reason}");
            }
        }
        let _ = writeln!(out, "cbes-analyze: {} files scanned", self.files_scanned);
        for (rule, (unwaived, waived)) in self.counts_by_rule() {
            let _ = writeln!(out, "  {rule}: {unwaived} finding(s), {waived} waived");
        }
        out
    }

    /// Machine-readable JSON report.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let rules: Vec<String> = self.rules_run.iter().map(|r| json_str(r)).collect();
        let _ = writeln!(out, "  \"rules_run\": [{}],", rules.join(", "));
        let _ = writeln!(out, "  \"unwaived_count\": {},", self.unwaived().count());
        let _ = writeln!(out, "  \"waived_count\": {},", self.waived().count());
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"rule\": {}, \"file\": {}, \"line\": {}, \"waived\": {}, \"message\": {}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                f.waived,
                json_str(&f.message),
            );
            if let Some(reason) = &f.reason {
                let _ = write!(out, ", \"reason\": {}", json_str(reason));
            }
            out.push('}');
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escape a string as a JSON string literal (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_split_waived_from_unwaived() {
        let mut report = Report {
            rules_run: vec!["metric_names"],
            ..Report::default()
        };
        let finding = |line, message| Finding {
            rule: "metric_names",
            ..Finding::new("a.rs", line, message)
        };
        report.findings.push(finding(3, "literal name"));
        let mut waived = finding(9, "literal name");
        waived.waived = true;
        waived.reason = Some("bounded".to_string());
        report.findings.push(waived);
        let counts = report.counts_by_rule();
        assert_eq!(counts["metric_names"], (1, 1));
        assert_eq!(report.unwaived().count(), 1);
    }

    #[test]
    fn json_escapes_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn json_report_contains_findings() {
        let mut report = Report {
            rules_run: vec!["blocking_hot_path"],
            files_scanned: 2,
            ..Report::default()
        };
        report.findings.push(Finding {
            rule: "blocking_hot_path",
            ..Finding::new("server/net.rs", 7, "blocking call on the reactor")
        });
        let json = report.render_json();
        assert!(json.contains("\"unwaived_count\": 1"));
        assert!(json.contains("\"file\": \"server/net.rs\""));
        assert!(json.contains("\"line\": 7"));
    }
}
