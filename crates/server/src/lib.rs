// cbes-analyze: allow(forbid_unsafe, the epoll shim is the crate's single audited unsafe module; the root downgrades to deny(unsafe_code) so the module-level allow below is the only opt-in)
//! CBES serving layer: an event-driven TCP daemon answering
//! mapping-evaluation requests over newline-delimited JSON.

#![deny(unsafe_code)]

pub mod client;
#[allow(unsafe_code)]
pub mod epoll;
pub mod net;
pub mod protocol;
pub(crate) mod reconfig;
pub mod server;

pub use client::{Client, ClientError, RetryPolicy, Retrying, Transport};
pub use protocol::{
    route_key_hash, InstanceInfo, MembershipReport, Request, RequestEnvelope, Response,
    ResponseEnvelope,
};
pub use server::{Server, ServerConfig, ServerHandle};
