//! Canonical metric and span names — the single source of truth.
//!
//! Every instrumentation call site in the workspace names its metric
//! through a constant from this module. A typo in a literal name
//! silently forks a counter (both halves keep counting, each one low);
//! a typo in a constant path is a compile error. `cbes-analyze`'s
//! `metric_names` rule enforces the convention, and the
//! `all_names_are_distinct` test below checks that no two constants
//! collide. The per-action served counters (`server.action.<action>`)
//! are the one family not listed here: each is the `counter` column of
//! its row in the wire protocol's action table
//! (`cbes_server::protocol::ACTIONS`).

/// Emits each row as written plus [`ALL`], so a constant cannot be
/// declared without being listed.
macro_rules! names {
    ($($(#[$doc:meta])* pub const $name:ident: &str = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: &str = $value;)*

        /// Every constant of the table, in declaration order.
        pub const ALL: &[&str] = &[$($name),*];
    };
}

names! {
    // ---- server (cbes-server daemon) -----------------------------------

    /// Requests served to completion.
    pub const SERVER_SERVED: &str = "server.served";
    /// Requests that produced an error reply.
    pub const SERVER_ERRORS: &str = "server.errors";
    /// Requests shed by admission control (queue full).
    pub const SERVER_OVERLOADED: &str = "server.overloaded";
    /// Admitted requests answered with a `timeout` error because no
    /// reply was ready by the request deadline (the late reply is
    /// dropped; the connection stays open).
    pub const SERVER_TIMEOUTS: &str = "server.timeouts";
    /// Connections accepted.
    pub const SERVER_CONNECTIONS: &str = "server.connections";
    /// Connections the server closed for spending their strike budget:
    /// `--max-bad-frames` malformed frames in a row.
    pub const SERVER_DROPPED_CONNECTIONS: &str = "server.dropped_connections";
    /// Request frames rejected for exceeding the size limit.
    pub const SERVER_OVERSIZED_FRAMES: &str = "server.oversized_frames";
    /// Admission-queue wait time, microseconds.
    pub const SERVER_QUEUE_WAIT_US: &str = "server.queue_wait_us";
    /// Request service time (dequeue to reply), microseconds.
    pub const SERVER_SERVICE_TIME_US: &str = "server.service_time_us";
    /// Current admission-queue depth.
    pub const SERVER_QUEUE_DEPTH: &str = "server.queue_depth";

    /// Admitted requests shed by the per-instance evaluation rate cap.
    pub const SERVER_RATE_LIMITED: &str = "server.rate_limited";
    /// Candidate mappings evaluated through `Batch` requests (one count
    /// per candidate, so `batch_candidates / action.batch` is the mean
    /// batch size).
    pub const SERVER_BATCH_CANDIDATES: &str = "server.batch_candidates";
    /// Event-loop readiness wakeups: `epoll_wait` returns that carried
    /// at least one event (a bare tick timeout is not counted).
    pub const SERVER_LOOP_WAKEUPS: &str = "server.loop_wakeups";

    // ---- tracing / flight recorder -------------------------------------

    /// Span records evicted from a ring before export (silent trace loss).
    pub const SPANS_DROPPED: &str = "spans.dropped";
    /// Flight-recorder events recorded since process start.
    pub const FLIGHT_EVENTS: &str = "flight.events";
    /// Flight-recorder JSONL dumps written (triggered or on demand).
    pub const FLIGHT_DUMPS: &str = "flight.dumps";
    /// Span: one traced client-side request issued by the CLI.
    pub const SPAN_CLI_REQUEST: &str = "cli.request";
    /// Span: the router forwarding one request to the serving tier.
    pub const SPAN_ROUTER_FORWARD: &str = "router.forward";

    // ---- router (cbes-router scale-out tier) ---------------------------

    /// Requests dispatched to their consistent-hash primary instance.
    pub const ROUTER_ROUTED: &str = "router.routed";
    /// Fan-out sends to non-primary instances (broadcast, merge, leader).
    pub const ROUTER_FORWARDED: &str = "router.forwarded";
    /// Requests served by a replica after the primary was unavailable.
    pub const ROUTER_FAILED_OVER: &str = "router.failed_over";
    /// Hash-routed requests the router gave up on: every candidate of the
    /// key was down, draining or unreachable.
    pub const ROUTER_GIVEUPS: &str = "router.giveups";
    /// Heartbeat probe sweeps completed across the membership table.
    pub const ROUTER_HEARTBEATS: &str = "router.heartbeats";
    /// Snapshot replications pushed from the leader to followers.
    pub const ROUTER_REPLICATIONS: &str = "router.replications";
    /// Instance health-state transitions in the membership table.
    pub const ROUTER_TRANSITIONS: &str = "router.instance_transitions";
    /// Leader epoch minus the slowest live follower epoch.
    pub const ROUTER_REPLICATION_LAG: &str = "router.replication_lag_epochs";
    /// Instances currently `Healthy` in the membership table.
    pub const ROUTER_INSTANCES_HEALTHY: &str = "router.instances.healthy";
    /// Instances currently `Suspect`.
    pub const ROUTER_INSTANCES_SUSPECT: &str = "router.instances.suspect";
    /// Instances currently `Down`.
    pub const ROUTER_INSTANCES_DOWN: &str = "router.instances.down";

    // ---- core (CbesService) --------------------------------------------

    /// `compare`/`best_of` calls evaluated.
    pub const CORE_COMPARES: &str = "core.compares";
    /// Candidate mappings predicted (one per mapping per compare).
    pub const CORE_PREDICTIONS: &str = "core.predictions";
    /// End-to-end compare latency, microseconds.
    pub const CORE_COMPARE_US: &str = "core.compare_us";
    /// Snapshot-epoch publish latency, microseconds.
    pub const CORE_EPOCH_PUBLISH_US: &str = "core.epoch_publish_us";
    /// Current snapshot epoch.
    pub const CORE_EPOCH: &str = "core.epoch";
    /// Node health-state transitions observed.
    pub const CORE_HEALTH_TRANSITIONS: &str = "core.health.transitions";
    /// Nodes currently `Healthy`.
    pub const CORE_HEALTH_HEALTHY: &str = "core.health.healthy";
    /// Nodes currently `Suspect`.
    pub const CORE_HEALTH_SUSPECT: &str = "core.health.suspect";
    /// Nodes currently `Down`.
    pub const CORE_HEALTH_DOWN: &str = "core.health.down";
    /// Span: publishing one monitoring sweep as a new epoch.
    pub const SPAN_CORE_PUBLISH_EPOCH: &str = "core.publish_epoch";
    /// Span: evaluating one request's candidate mappings (eq. 4–8).
    pub const SPAN_CORE_EVALUATE_MAPPING: &str = "core.evaluate_mapping";

    // ---- netmodel ------------------------------------------------------

    /// Forecast refresh latency, microseconds.
    pub const NETMODEL_FORECAST_REFRESH_US: &str = "netmodel.forecast_refresh_us";

    // ---- reconfig (artifact lifecycle) ---------------------------------

    /// Artifacts staged into the store (validated + journalled).
    pub const RECONFIG_STAGED: &str = "reconfig.staged";
    /// Artifact applies: activations under a soak (one epoch bump each).
    pub const RECONFIG_APPLIES: &str = "reconfig.applies";
    /// Soaking artifacts promoted to active.
    pub const RECONFIG_ACCEPTS: &str = "reconfig.accepts";
    /// Rollbacks, operator-initiated and automatic together.
    pub const RECONFIG_ROLLBACKS: &str = "reconfig.rollbacks";
    /// Rollbacks fired by the soak monitor on a telemetry regression.
    pub const RECONFIG_AUTO_ROLLBACKS: &str = "reconfig.auto_rollbacks";
    /// The active artifact version (0 = boot configuration).
    pub const RECONFIG_ACTIVE_VERSION: &str = "reconfig.active_version";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
    }
}
