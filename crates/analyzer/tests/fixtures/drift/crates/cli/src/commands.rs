//! Fixture: the reconfig crate exists next door, but there is no
//! `fn artifact` command here.
pub fn dispatch(sub: &str) -> bool {
    matches!(sub, "compare" | "stats")
}
