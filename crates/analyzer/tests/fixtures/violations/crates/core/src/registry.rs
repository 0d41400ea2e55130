//! Fixture: a malformed waiver (missing reason) is itself a finding.
// cbes-analyze: allow(metric_names)
pub fn lookup(name: &str) -> Option<&str> {
    Some(name)
}
