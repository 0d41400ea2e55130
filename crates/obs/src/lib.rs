//! CBES observability: lock-free metric primitives, latency histograms,
//! lightweight tracing spans, and a per-daemon registry rendering one
//! JSON snapshot.
//!
//! CBES is a run-time service; its value proposition is that mapping
//! evaluation is cheap enough to call on-line. This crate makes that
//! claim *measurable* from a live process instead of only from offline
//! bench harnesses:
//!
//! * [`Counter`] / [`Gauge`] — single atomic cells, wait-free to update.
//! * [`Histogram`] — a log-linear bucket histogram (16 sub-buckets per
//!   power of two, ≤ 6.25 % relative bucket width) whose `record` is a
//!   handful of atomic adds. [`HistogramSnapshot`]s are mergeable and
//!   answer p50/p90/p99 queries.
//! * [`SpanRing`] / [`SpanGuard`] — tracing spans recording name,
//!   monotonic start, duration, parent, and owning trace id, drained
//!   into a bounded in-memory ring with optional JSONL export.
//!   [`mint_trace_id`] mints process-unique trace ids and
//!   [`SpanRing::span_rooted`] joins a remote trace carried in from
//!   the wire, so one routed request yields one connected trace.
//! * [`FlightRecorder`] — a bounded ring of recent anomaly events
//!   that dumps a JSONL snapshot (events + spans) when a trigger
//!   fires, debounced, off the hot path when idle.
//! * [`Registry`] — a named collection of all of the above; one
//!   [`Registry::snapshot`] renders every instrument as a serialisable
//!   [`MetricsSnapshot`]. There is no process-wide instance: each
//!   daemon and each router owns one and answers only for itself, and
//!   takes every reading of time from its [`Clock`] (a test's is manual).
//!
//! Everything is hand-rolled on `std::sync::atomic` — no registry
//! dependencies beyond the workspace's vendored stand-ins.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod flight;
pub mod metrics;
pub mod names;
pub mod registry;
pub mod span;

pub use clock::Clock;
pub use flight::{FlightEvent, FlightRecorder};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricsSnapshot, Registry};
pub use span::{current_trace, mint_trace_id, SpanGuard, SpanRecord, SpanRing};
