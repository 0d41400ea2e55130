//! A lexed source file with waiver annotations and `#[cfg(test)]`
//! region tracking — the unit the rule engine works on.

use crate::lexer::{lex, Comment, Token};

/// A per-site waiver: `// cbes-analyze: allow(<rule>, <reason>)`.
///
/// A waiver covers findings of `rule` on its own line and on the line
/// immediately after it (so it can trail the offending expression or sit
/// on its own line above it). The reason is mandatory; it is carried
/// into the report so waivers stay auditable.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Rule id the waiver applies to.
    pub rule: String,
    /// Why the site is exempt (free text, no parentheses).
    pub reason: String,
    /// 1-based line of the waiver comment.
    pub line: u32,
}

/// A waiver annotation the parser could not accept (missing reason,
/// unparseable form). These become unwaivable findings: a waiver that
/// does not say *why* is worse than none.
#[derive(Debug, Clone)]
pub struct BadWaiver {
    /// 1-based line of the malformed annotation.
    pub line: u32,
    /// What is wrong with it.
    pub problem: String,
}

/// The marker every waiver annotation starts with.
pub const WAIVER_MARKER: &str = "cbes-analyze:";

fn parse_waivers(comments: &[Comment]) -> (Vec<Waiver>, Vec<BadWaiver>) {
    let mut waivers = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        let Some(at) = c.text.find(WAIVER_MARKER) else {
            continue;
        };
        let rest = c.text[at + WAIVER_MARKER.len()..].trim();
        let Some(body) = rest
            .strip_prefix("allow(")
            .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        else {
            bad.push(BadWaiver {
                line: c.line,
                problem: format!("expected `{WAIVER_MARKER} allow(<rule>, <reason>)`"),
            });
            continue;
        };
        let (rule, reason) = match body.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (body.trim(), ""),
        };
        if rule.is_empty() || reason.is_empty() {
            bad.push(BadWaiver {
                line: c.line,
                problem: "waiver must name a rule and give a non-empty reason".to_string(),
            });
            continue;
        }
        waivers.push(Waiver {
            rule: rule.to_string(),
            reason: reason.to_string(),
            line: c.line,
        });
    }
    (waivers, bad)
}

/// A lexed file ready for rule matching.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, used in findings.
    pub path: String,
    /// The token stream (comments excluded).
    pub tokens: Vec<Token>,
    /// Parsed waiver annotations.
    pub waivers: Vec<Waiver>,
    /// Malformed waiver annotations.
    pub bad_waivers: Vec<BadWaiver>,
    /// Token-index ranges `[start, end)` covered by `#[cfg(test)]`.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex `src` (logically located at `path`) and precompute waivers
    /// and test regions.
    pub fn parse(path: impl Into<String>, src: &str) -> SourceFile {
        let (tokens, comments) = lex(src);
        let (waivers, bad_waivers) = parse_waivers(&comments);
        let test_ranges = find_test_ranges(&tokens);
        SourceFile {
            path: path.into(),
            tokens,
            waivers,
            bad_waivers,
            test_ranges,
        }
    }

    /// True when token index `i` falls inside a `#[cfg(test)]` item.
    pub fn in_test_code(&self, i: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(start, end)| i >= start && i < end)
    }

    /// The waiver covering a finding of `rule` at `line`, if any: a
    /// waiver applies to its own line and the line after it.
    pub fn waiver_for(&self, rule: &str, line: u32) -> Option<&Waiver> {
        self.waivers
            .iter()
            .find(|w| w.rule == rule && (w.line == line || w.line + 1 == line))
    }
}

/// Find token-index ranges guarded by `#[cfg(test)]`.
///
/// After the attribute, the guarded item extends to the end of its brace
/// block (`mod tests { ... }`, `fn f() { ... }`) or, for brace-less
/// items (`use`, `type`), to the next `;`.
fn find_test_ranges(tokens: &[Token]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].is_ident("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].is_ident("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = i;
        let mut j = i + 7;
        // Walk to the item's opening brace or terminating semicolon.
        while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
            j += 1;
        }
        if j >= tokens.len() {
            ranges.push((start, tokens.len()));
            break;
        }
        if tokens[j].is_punct(';') {
            ranges.push((start, j + 1));
            i = j + 1;
            continue;
        }
        let mut depth = 0usize;
        while j < tokens.len() {
            if tokens[j].is_punct('{') {
                depth += 1;
            } else if tokens[j].is_punct('}') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let end = (j + 1).min(tokens.len());
        ranges.push((start, end));
        i = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_modules_are_detected() {
        let src = "
            fn live() { work(); }
            #[cfg(test)]
            mod tests {
                fn t() { victim(); }
            }
            fn after() {}
        ";
        let f = SourceFile::parse("x.rs", src);
        let victim = f
            .tokens
            .iter()
            .position(|t| t.is_ident("victim"))
            .expect("victim token present");
        let work = f
            .tokens
            .iter()
            .position(|t| t.is_ident("work"))
            .expect("work token present");
        let after = f
            .tokens
            .iter()
            .position(|t| t.is_ident("after"))
            .expect("after token present");
        assert!(f.in_test_code(victim));
        assert!(!f.in_test_code(work));
        assert!(!f.in_test_code(after));
    }

    #[test]
    fn waivers_parse_rule_and_reason() {
        let src = "
            // cbes-analyze: allow(metric_names, a name bounded to this test)
            a[i];
        ";
        let f = SourceFile::parse("x.rs", src);
        assert_eq!(f.waivers.len(), 1);
        assert_eq!(f.waivers[0].rule, "metric_names");
        assert!(f.waivers[0].reason.contains("bounded"));
        assert!(
            f.waiver_for("metric_names", 3).is_some(),
            "covers next line"
        );
        assert!(f.waiver_for("metric_names", 4).is_none());
        assert!(
            f.waiver_for("blocking_hot_path", 3).is_none(),
            "rule must match"
        );
    }

    #[test]
    fn malformed_waivers_are_reported() {
        let f = SourceFile::parse("x.rs", "// cbes-analyze: allow(metric_names)\nx();");
        assert!(f.waivers.is_empty());
        assert_eq!(f.bad_waivers.len(), 1);
        let f = SourceFile::parse("x.rs", "// cbes-analyze: please ignore\nx();");
        assert_eq!(f.bad_waivers.len(), 1);
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let src = "
            #[cfg(test)]
            use helpers::t;
            fn live() {}
        ";
        let f = SourceFile::parse("x.rs", src);
        let live = f
            .tokens
            .iter()
            .position(|t| t.is_ident("live"))
            .expect("live token present");
        assert!(!f.in_test_code(live));
    }
}
