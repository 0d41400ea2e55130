//! Canonical metric and span names — the single source of truth.
//!
//! A metric or span name is a [`Name`], and only this module mints one:
//! its field is private to this crate, so every instrument call in the workspace
//! names its metric through a constant below. A typo in a literal name
//! would silently fork a counter (both halves keep counting, each one
//! low); a literal does not compile, and a typo in a constant path is a
//! compile error too. The `all_names_are_distinct` test below checks
//! that no two constants collide. The per-action served counters
//! (`server.action.<action>`) and span names are the one family not
//! listed here: each is minted by its row of the wire protocol's action
//! table (`cbes_server::protocol::ACTIONS`), through [`Name::new`], which
//! the root `clippy.toml` bans everywhere else.

use std::ops::Deref;

/// A metric or span name. Derefs to its text, so it reads like a `&str`
/// wherever one is taken.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(pub(crate) &'static str);

impl Name {
    /// The action table's constructor: a name not listed in this module.
    /// `clippy.toml`'s `disallowed-methods` rejects any other caller.
    pub const fn new(name: &'static str) -> Name {
        Name(name)
    }

    /// The name's text.
    pub const fn as_str(&self) -> &'static str {
        self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.0
    }
}

/// Emits each row as a [`Name`] constant plus [`ALL`], so a constant
/// cannot be declared without being listed.
macro_rules! names {
    ($($(#[$doc:meta])* pub const $name:ident: &Name = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: &Name = &Name($value);)*

        /// Every constant of the table, in declaration order.
        pub const ALL: &[&Name] = &[$($name),*];
    };
}

names! {
    // ---- server (cbes-server daemon) -----------------------------------

    /// Requests served to completion.
    pub const SERVER_SERVED: &Name = "server.served";
    /// Requests that produced an error reply.
    pub const SERVER_ERRORS: &Name = "server.errors";
    /// Requests shed by admission control (queue full).
    pub const SERVER_OVERLOADED: &Name = "server.overloaded";
    /// Admitted requests answered with a `timeout` error because no
    /// reply was ready by the request deadline (the late reply is
    /// dropped; the connection stays open).
    pub const SERVER_TIMEOUTS: &Name = "server.timeouts";
    /// Connections accepted.
    pub const SERVER_CONNECTIONS: &Name = "server.connections";
    /// Connections the server closed for spending their strike budget:
    /// `--max-bad-frames` malformed frames in a row.
    pub const SERVER_DROPPED_CONNECTIONS: &Name = "server.dropped_connections";
    /// Request frames rejected for exceeding the size limit.
    pub const SERVER_OVERSIZED_FRAMES: &Name = "server.oversized_frames";
    /// Stage: a frame's first byte received to the frame admitted, us.
    pub const SERVER_REASSEMBLY_US: &Name = "server.reassembly_us";
    /// Stage: admitted to picked up by a worker (zero inline), us.
    pub const SERVER_QUEUE_WAIT_US: &Name = "server.queue_wait_us";
    /// Stage: picked up to decoded and past the rate gate, us.
    pub const SERVER_DECODE_US: &Name = "server.decode_us";
    /// Stage: the request handled (`handle_request`), us.
    pub const SERVER_SERVICE_TIME_US: &Name = "server.service_time_us";
    /// Stage: the reply encoded, us.
    pub const SERVER_ENCODE_US: &Name = "server.encode_us";
    /// Stage: a worker's reply on its way back to the reactor, us.
    pub const SERVER_HAND_BACK_US: &Name = "server.hand_back_us";
    /// Stage: completed to the reply's last byte written, us.
    pub const SERVER_FLUSH_US: &Name = "server.flush_us";
    /// Current admission-queue depth.
    pub const SERVER_QUEUE_DEPTH: &Name = "server.queue_depth";

    /// Admitted requests shed by the per-instance evaluation rate cap.
    pub const SERVER_RATE_LIMITED: &Name = "server.rate_limited";
    /// Candidate mappings evaluated through `Batch` requests (one count
    /// per candidate, so `batch_candidates / action.batch` is the mean
    /// batch size).
    pub const SERVER_BATCH_CANDIDATES: &Name = "server.batch_candidates";
    /// Event-loop readiness wakeups: `epoll_wait` returns that carried
    /// at least one event (a bare tick timeout is not counted).
    pub const SERVER_LOOP_WAKEUPS: &Name = "server.loop_wakeups";

    // ---- tracing / flight recorder -------------------------------------

    /// Span records evicted from a ring before export (silent trace loss).
    pub const SPANS_DROPPED: &Name = "spans.dropped";
    /// Flight-recorder events recorded since process start.
    pub const FLIGHT_EVENTS: &Name = "flight.events";
    /// Flight-recorder JSONL dumps written (triggered or on demand).
    pub const FLIGHT_DUMPS: &Name = "flight.dumps";
    /// Span: one traced client-side request issued by the CLI.
    pub const SPAN_CLI_REQUEST: &Name = "cli.request";
    /// Span: the router forwarding one request to the serving tier.
    pub const SPAN_ROUTER_FORWARD: &Name = "router.forward";

    // ---- router (cbes-router scale-out tier) ---------------------------

    /// Requests dispatched to their consistent-hash primary instance.
    pub const ROUTER_ROUTED: &Name = "router.routed";
    /// Fan-out sends to non-primary instances (broadcast, merge, leader).
    pub const ROUTER_FORWARDED: &Name = "router.forwarded";
    /// Requests served by a replica after the primary was unavailable.
    pub const ROUTER_FAILED_OVER: &Name = "router.failed_over";
    /// Hash-routed requests the router gave up on: every candidate of the
    /// key was down, draining or unreachable.
    pub const ROUTER_GIVEUPS: &Name = "router.giveups";
    /// Heartbeat probe sweeps completed across the membership table.
    pub const ROUTER_HEARTBEATS: &Name = "router.heartbeats";
    /// Snapshot replications pushed from the leader to followers.
    pub const ROUTER_REPLICATIONS: &Name = "router.replications";
    /// Instance health-state transitions in the membership table.
    pub const ROUTER_TRANSITIONS: &Name = "router.instance_transitions";
    /// Leader epoch minus the slowest live follower epoch.
    pub const ROUTER_REPLICATION_LAG: &Name = "router.replication_lag_epochs";
    /// Instances currently `Healthy` in the membership table.
    pub const ROUTER_INSTANCES_HEALTHY: &Name = "router.instances.healthy";
    /// Instances currently `Suspect`.
    pub const ROUTER_INSTANCES_SUSPECT: &Name = "router.instances.suspect";
    /// Instances currently `Down`.
    pub const ROUTER_INSTANCES_DOWN: &Name = "router.instances.down";
    /// Stage: a forwarded frame's first byte received to forwarded, us.
    pub const ROUTER_REASSEMBLY_US: &Name = "router.reassembly_us";
    /// Stage: forwarded to answered (relayed reply, fold or give-up), us.
    pub const ROUTER_UPSTREAM_US: &Name = "router.upstream_us";
    /// Stage: answered to the reply's last byte written, us.
    pub const ROUTER_FLUSH_US: &Name = "router.flush_us";

    // ---- core (CbesService) --------------------------------------------

    /// `compare`/`best_of` calls evaluated.
    pub const CORE_COMPARES: &Name = "core.compares";
    /// Candidate mappings predicted (one per mapping per compare).
    pub const CORE_PREDICTIONS: &Name = "core.predictions";
    /// End-to-end compare latency, microseconds.
    pub const CORE_COMPARE_US: &Name = "core.compare_us";
    /// Snapshot-epoch publish latency, microseconds.
    pub const CORE_EPOCH_PUBLISH_US: &Name = "core.epoch_publish_us";
    /// Current snapshot epoch.
    pub const CORE_EPOCH: &Name = "core.epoch";
    /// Node health-state transitions observed.
    pub const CORE_HEALTH_TRANSITIONS: &Name = "core.health.transitions";
    /// Nodes currently `Healthy`.
    pub const CORE_HEALTH_HEALTHY: &Name = "core.health.healthy";
    /// Nodes currently `Suspect`.
    pub const CORE_HEALTH_SUSPECT: &Name = "core.health.suspect";
    /// Nodes currently `Down`.
    pub const CORE_HEALTH_DOWN: &Name = "core.health.down";
    /// Span: publishing one monitoring sweep as a new epoch.
    pub const SPAN_CORE_PUBLISH_EPOCH: &Name = "core.publish_epoch";
    /// Span: evaluating one request's candidate mappings (eq. 4–8).
    pub const SPAN_CORE_EVALUATE_MAPPING: &Name = "core.evaluate_mapping";

    // ---- netmodel ------------------------------------------------------

    /// Forecast refresh latency, microseconds.
    pub const NETMODEL_FORECAST_REFRESH_US: &Name = "netmodel.forecast_refresh_us";

    // ---- reconfig (artifact lifecycle) ---------------------------------

    /// Artifacts staged into the store (validated + journalled).
    pub const RECONFIG_STAGED: &Name = "reconfig.staged";
    /// Artifact applies: activations under a soak (one epoch bump each).
    pub const RECONFIG_APPLIES: &Name = "reconfig.applies";
    /// Soaking artifacts promoted to active.
    pub const RECONFIG_ACCEPTS: &Name = "reconfig.accepts";
    /// Rollbacks, operator-initiated and automatic together.
    pub const RECONFIG_ROLLBACKS: &Name = "reconfig.rollbacks";
    /// Rollbacks fired by the soak monitor on a telemetry regression.
    pub const RECONFIG_AUTO_ROLLBACKS: &Name = "reconfig.auto_rollbacks";
    /// The active artifact version (0 = boot configuration).
    pub const RECONFIG_ACTIVE_VERSION: &Name = "reconfig.active_version";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate metric name {name:?}");
        }
    }
}
