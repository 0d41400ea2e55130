//! Fixture metric names.
pub const SERVER_SERVED: &str = "server.served";
pub const SERVER_ERRORS: &str = "server.errors";
