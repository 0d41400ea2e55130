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
