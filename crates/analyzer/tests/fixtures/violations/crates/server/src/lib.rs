//! Fixture: a clean scoped crate root.
#![forbid(unsafe_code)]
pub mod client;
pub mod protocol;
pub mod server;
