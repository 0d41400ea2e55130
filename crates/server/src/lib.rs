//! CBES serving layer: an event-driven TCP daemon answering
//! mapping-evaluation requests over newline-delimited JSON.

#![deny(unsafe_code)]
#![warn(
    clippy::undocumented_unsafe_blocks,
    clippy::multiple_unsafe_ops_per_block,
    clippy::unwrap_used,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod client;
#[expect(
    unsafe_code,
    reason = "the epoll FFI: one syscall per block, each under a SAFETY: comment (clippy holds both)"
)]
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
