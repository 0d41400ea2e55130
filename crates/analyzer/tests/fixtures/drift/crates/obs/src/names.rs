//! Fixture: a duplicated metric name.
pub const FIRST: &str = "dup.metric";
pub const SECOND: &str = "dup.metric";
