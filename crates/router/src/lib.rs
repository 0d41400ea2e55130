//! CBES scale-out tier: spread evaluation requests over N `cbes-server`
//! instances.
//!
//! A single daemon caps out around what one core can evaluate and is a
//! single point of failure. This crate adds the three pieces a serving
//! tier needs on top of the existing daemon, reusing machinery the
//! workspace already has rather than inventing new consensus:
//!
//! - **Placement** ([`ring`]): a consistent-hash ring over the seeded
//!   instances. The routing key is `(cluster, application)` — hashed by
//!   [`cbes_server::route_key_hash`] so every client, router, and daemon
//!   agree — and each key has an ordered replica set for failover.
//! - **Membership** ([`membership`]): a static seed list plus heartbeat
//!   probes, driving per-instance `Healthy → Suspect → Down` transitions
//!   through the same `HealthTracker` state machine the core uses for
//!   cluster nodes. Requests fail over to replicas as soon as an
//!   instance leaves `Healthy`.
//! - **Replication** ([`tier`]): the lowest usable instance is the
//!   leader; monitoring sweeps go to it first and are then pushed to
//!   followers as `Replicate { epoch, .. }`, reusing the epoch-stamped
//!   snapshot machinery — followers adopt an epoch at most once, so
//!   replays are harmless, and staleness is measurable in epochs.
//!
//! [`RouterServer`] is a proxy daemon speaking the ordinary CBES wire
//! protocol, so any `cbes_server::Client` (or `cbes request`) pointed at
//! it is a client of the whole tier: placement, failover and fan-out
//! happen server-side. How each action traverses the tier is the
//! `forward` column of the protocol's action table
//! (`cbes_server::protocol::ACTIONS`); this crate keeps no table of its
//! own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod membership;
pub mod ring;
pub mod tier;

pub use membership::{Membership, MembershipConfig};
pub use ring::HashRing;
pub use tier::{RouterServer, RouterTierHandle, TierConfig};
