//! The CBES wire protocol: one JSON object per line in each direction.
//!
//! A client sends a [`RequestEnvelope`] (`{"id": n, "request": ...}`) and
//! receives exactly one [`ResponseEnvelope`] whose `id` echoes the
//! request's, so clients may correlate replies however they like. Errors
//! — including overload rejections and timeouts — are ordinary
//! [`Response::Error`] replies with a machine-readable `kind` from
//! [`error_kind`].

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_core::eval::Prediction;
use cbes_core::mapping::Mapping;
use cbes_core::ServiceError;
use cbes_obs::MetricsSnapshot;
use cbes_trace::AppProfile;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Machine-readable `kind` values carried by [`Response::Error`].
pub mod error_kind {
    /// The request line was not a valid request object.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The admission queue was full; retry later.
    pub const OVERLOADED: &str = "overloaded";
    /// The request was admitted but no worker finished it in time.
    pub const TIMEOUT: &str = "timeout";
    /// The service rejected the request (unknown app, bad mapping, ...).
    pub const SERVICE: &str = "service";
    /// The scheduler rejected the request (pool too small, ...).
    pub const SCHED: &str = "sched";
    /// The server is draining and no longer admits requests.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// The request line exceeded the server's length cap.
    pub const FRAME_TOO_LARGE: &str = "frame_too_large";
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Insert (or replace) an application profile in the registry.
    RegisterProfile {
        /// The profile to register, keyed by its `name`.
        profile: AppProfile,
    },
    /// Predict execution times for candidate mappings of `app`.
    Compare {
        /// Registered application name.
        app: String,
        /// Candidate mappings, arity matching the profile.
        mappings: Vec<Mapping>,
    },
    /// Like `Compare`, but reply only with the fastest candidate.
    BestOf {
        /// Registered application name.
        app: String,
        /// Candidate mappings.
        mappings: Vec<Mapping>,
    },
    /// Run the CS simulated-annealing scheduler for `app` over a pool.
    Schedule {
        /// Registered application name.
        app: String,
        /// Candidate node ids.
        pool: Vec<u32>,
        /// Annealing iterations (0 picks the fast default).
        iters: u32,
        /// Scheduler seed, for reproducible placements.
        seed: u64,
    },
    /// Feed one monitoring sweep; bumps the snapshot epoch.
    ObserveLoad {
        /// Measured per-node load; must cover every node.
        load: LoadState,
    },
    /// Feed one *partial* monitoring sweep: nodes listed in `silent`
    /// delivered no measurement this period and age toward `Suspect` /
    /// `Down` under the server's health policy.
    ObservePartial {
        /// Measured per-node load; must cover every node (silent nodes'
        /// entries are ignored).
        load: LoadState,
        /// Node ids that did **not** report this sweep.
        silent: Vec<u32>,
    },
    /// Read the server's counters.
    Stats,
    /// Read the full metrics snapshot: counters, gauges, and latency
    /// histograms from the server merged with the process-wide registry.
    Metrics,
    /// Stop admitting requests, drain in-flight work, exit.
    Shutdown,
    /// Ask the routing tier which instance owns a `(cluster, app)` key.
    /// A standalone daemon answers with itself as the only instance.
    Route {
        /// Cluster name half of the routing key.
        cluster: String,
        /// Application name half of the routing key.
        app: String,
    },
    /// Apply a leader-published monitoring sweep at a fixed epoch.
    /// Followers adopt `epoch` only if it is newer than their own
    /// snapshot, so replays and reordering are harmless.
    Replicate {
        /// The epoch the leader published this sweep under.
        epoch: u64,
        /// Measured per-node load; must cover every node.
        load: LoadState,
        /// Node ids that did **not** report this sweep (as in
        /// `ObservePartial`; empty for a full sweep).
        silent: Vec<u32>,
    },
    /// Read the serving tier's membership table. A standalone daemon
    /// reports a single-instance view of itself.
    Membership,
    /// Evaluate many candidate mappings for `app` in one call, all
    /// against a *single* epoch-stamped snapshot: `Compare` under a verb
    /// of its own (same evaluator, same reply), kept apart so a
    /// scheduler's candidate sets are routed and counted as batches. The
    /// reply is an ordinary [`Response::Predictions`] whose `epoch`
    /// stamps every prediction in it.
    Batch {
        /// Registered application name.
        app: String,
        /// Candidate mappings, arity matching the profile.
        mappings: Vec<Mapping>,
    },
    /// Read every buffered span belonging to one trace. A routed
    /// request is answered tier-wide: the router concatenates each
    /// instance's matching spans with its own forwarding spans, so one
    /// traced `Batch` yields a single connected trace in the reply.
    Trace {
        /// The trace id minted at the requesting client.
        trace_id: u64,
    },
    /// Dump the anomaly flight recorder (recent events + span ring)
    /// to a JSONL file on the serving instance, as if a trigger had
    /// fired. The router broadcasts the dump to every usable instance.
    DumpFlight,
    /// Stage a configuration artifact in the instance's artifact store
    /// (validated, versioned, durable) without activating it. The
    /// router broadcasts lifecycle verbs to every usable instance so
    /// one call reconfigures the whole tier.
    Stage {
        /// Artifact kind: `"latency_model"`, `"cluster_preset"`, or
        /// `"serving_limits"` (see `cbes_reconfig::ArtifactKind`).
        kind: String,
        /// The artifact payload (JSON text of the kind's schema).
        payload: String,
    },
    /// Activate the staged artifact under a soak: one atomic epoch
    /// bump publishes it to new requests while in-flight requests
    /// finish on the old epoch. The soak monitor watches windowed
    /// telemetry and rolls back automatically on regression.
    Apply,
    /// Promote the soaking artifact to active, ending the soak.
    Accept,
    /// Abandon the soaking artifact and reinstate the previous active
    /// configuration (or the boot configuration), with one more epoch
    /// bump.
    Rollback {
        /// Operator-supplied reason, recorded in the journal.
        reason: String,
    },
    /// Read the artifact lifecycle state. Through the router this is
    /// the tier-wide merge: every instance's staged/soaking/active
    /// view, so divergence after a partial apply is visible.
    ArtifactStatus,
}

/// How the routing tier forwards an action. Like [`route_key_hash`],
/// every tier member must agree on it, so it lives next to the wire
/// protocol rather than in `cbes-router`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardMode {
    /// Relayed to the consistent-hash owner of the `(cluster, app)`
    /// key, failing over along the replica set.
    Hash,
    /// Sent to the replication leader, which then pushes the resulting
    /// epoch to followers.
    Leader,
    /// Fanned out to every usable instance; the replies are merged
    /// into one tier-wide report.
    Merge,
    /// Sent to every usable instance.
    Broadcast,
    /// Answered by the router itself from its own state.
    Local,
}

/// One row of the action table: every per-action fact the tier needs,
/// stated once. [`Request::spec`] maps a request to its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActionSpec {
    /// The action, whose discriminant is the row's position in
    /// [`ACTIONS`].
    pub action: Action,
    /// Canonical name: span name, [`StatsReport::per_action`] key, and
    /// (with `_` as `-`) the `cbes request` verb.
    pub name: &'static str,
    /// The `Request` variant name, as a frame spells it on the wire.
    pub tag: &'static str,
    /// Runs the evaluation engine (eq. 4–8 or the scheduler). Only
    /// these actions are subject to the per-instance evaluation rate
    /// cap; control-plane traffic (heartbeats, membership, replication,
    /// shutdown) is always admitted.
    pub eval: bool,
    /// Replaying it after a transport failure, a shed or a missed
    /// deadline cannot change server state: a retrying client re-sends
    /// these and sends everything else once.
    pub idempotent: bool,
    /// May run on the daemon's reactor thread. The others block on CPU
    /// or disk for unbounded time — `Schedule` has a caller-controlled
    /// annealing budget, the artifact verbs fsync the reconfig journal,
    /// `DumpFlight` writes the flight file — and always queue.
    pub inline: bool,
    /// How the routing tier forwards it.
    pub forward: ForwardMode,
    /// Name of its served-requests counter.
    pub counter: &'static str,
    /// A second `cbes request` verb, shown in usage instead of the
    /// derived one.
    pub alias: Option<&'static str>,
}

impl ActionSpec {
    /// The row of the action a frame spells as `tag`.
    pub fn by_tag(tag: &str) -> Option<&'static ActionSpec> {
        ACTIONS.iter().find(|spec| spec.tag == tag)
    }
}

/// Expands the row list into [`Action`], [`ACTIONS`] and the
/// `Request` → row binding. The binding is one exhaustive `match`, so
/// a `Request` variant without a row, or a row without a variant, does
/// not compile.
macro_rules! action_table {
    (@eval eval) => { true };
    (@eval control) => { false };
    (@idempotent replay) => { true };
    (@idempotent once) => { false };
    (@inline inline) => { true };
    (@inline queued) => { false };
    (@alias) => { None };
    (@alias $alias:literal) => { Some($alias) };
    ($($Variant:ident = $name:literal: $class:ident, $replay:ident, $thread:ident, $forward:ident
        $(, alias $alias:literal)?;)*) => {
        /// The protocol's actions: [`Request`]'s variants without their
        /// payloads, in declaration order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Action {
            $(#[doc = concat!("The `", $name, "` action.")] $Variant,)*
        }

        impl Action {
            /// This action's row of the table.
            pub const fn spec(self) -> &'static ActionSpec {
                match self {
                    $(Action::$Variant => &ActionSpec {
                        action: Action::$Variant,
                        name: $name,
                        tag: stringify!($Variant),
                        eval: action_table!(@eval $class),
                        idempotent: action_table!(@idempotent $replay),
                        inline: action_table!(@inline $thread),
                        forward: ForwardMode::$forward,
                        counter: concat!("server.action.", $name),
                        alias: action_table!(@alias $($alias)?),
                    },)*
                }
            }
        }

        /// The action table, one row per [`Request`] variant in
        /// declaration order.
        pub const ACTIONS: &[ActionSpec] = &[$(*Action::$Variant.spec(),)*];

        impl Request {
            /// The action this request is an instance of.
            pub fn kind(&self) -> Action {
                match self {
                    $(Request::$Variant { .. } => Action::$Variant,)*
                }
            }
        }
    };
}

action_table! {
    // variant        name                class    retry   thread  forward    CLI alias
    RegisterProfile = "register_profile": control, replay, inline, Broadcast, alias "register";
    Compare         = "compare":          eval,    replay, inline, Hash;
    BestOf          = "best_of":          eval,    replay, inline, Hash;
    Schedule        = "schedule":         eval,    replay, queued, Hash;
    ObserveLoad     = "observe_load":     control, once,   inline, Leader,    alias "observe";
    ObservePartial  = "observe_partial":  control, once,   inline, Leader;
    Stats           = "stats":            control, replay, inline, Merge;
    Metrics         = "metrics":          control, replay, inline, Merge;
    Shutdown        = "shutdown":         control, once,   inline, Broadcast;
    Route           = "route":            control, replay, inline, Local;
    Replicate       = "replicate":        control, replay, inline, Broadcast;
    Membership      = "membership":       control, replay, inline, Local;
    Batch           = "batch":            eval,    replay, inline, Hash;
    Trace           = "trace":            control, once,   inline, Merge;
    DumpFlight      = "dump_flight":      control, once,   queued, Broadcast;
    Stage           = "stage":            control, once,   queued, Broadcast;
    Apply           = "apply":            control, once,   queued, Broadcast;
    Accept          = "accept":           control, once,   queued, Broadcast;
    Rollback        = "rollback":         control, once,   queued, Broadcast;
    ArtifactStatus  = "artifact_status":  control, once,   inline, Merge;
}

impl Request {
    /// This request's row of the action table.
    pub fn spec(&self) -> &'static ActionSpec {
        self.kind().spec()
    }
}

/// The 64-bit FNV-1a hash of a `(cluster, app)` routing key. This is
/// the tier's placement function: the routing ring maps it to a
/// primary instance, and every router and client must agree on it,
/// so it lives next to the wire protocol rather than in `cbes-router`.
pub fn route_key_hash(cluster: &str, app: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for byte in cluster.as_bytes().iter().chain(b"/").chain(app.as_bytes()) {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// One server reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Profile accepted.
    Registered {
        /// Application name it was stored under.
        app: String,
        /// Number of processes in the profile.
        procs: usize,
    },
    /// Predictions for a `Compare`, in request order.
    Predictions {
        /// Snapshot epoch the predictions were computed against.
        epoch: u64,
        /// One prediction per requested mapping.
        predictions: Vec<Prediction>,
    },
    /// The fastest candidate for a `BestOf`.
    Best {
        /// Snapshot epoch.
        epoch: u64,
        /// Index of the winning mapping in the request.
        index: usize,
        /// Its prediction.
        prediction: Prediction,
    },
    /// Scheduler outcome for a `Schedule`.
    Scheduled {
        /// Snapshot epoch the search ran against.
        epoch: u64,
        /// The selected mapping.
        mapping: Mapping,
        /// Predicted execution time of that mapping (seconds).
        predicted_time: f64,
        /// Mapping evaluations the search performed.
        evaluations: u64,
    },
    /// Load sweep accepted.
    LoadObserved {
        /// The new snapshot epoch.
        epoch: u64,
    },
    /// Server counters.
    Stats {
        /// The counters at reply time.
        stats: StatsReport,
    },
    /// Full metrics snapshot for a `Metrics` request.
    Metrics {
        /// Server-instance instruments merged with the process-wide
        /// registry (core and netmodel record there).
        metrics: MetricsSnapshot,
    },
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
    /// Placement answer for a `Route` request.
    Routed {
        /// `route_key_hash(cluster, app)` of the requested key.
        hash: u64,
        /// The instance that owns the key.
        primary: InstanceInfo,
        /// Failover candidates, in preference order.
        replicas: Vec<InstanceInfo>,
    },
    /// Outcome of a `Replicate` request.
    Replicated {
        /// The receiver's snapshot epoch after the request.
        epoch: u64,
        /// Whether the sweep was applied (`false`: the receiver was
        /// already at or past the leader's epoch, a harmless replay).
        applied: bool,
    },
    /// Membership table for a `Membership` request.
    Membership {
        /// The tier (or single-instance) membership view.
        membership: MembershipReport,
    },
    /// Spans belonging to one trace, for a `Trace` request. Through
    /// the router this is the tier-wide union: every instance's
    /// matching spans plus the router's own forwarding spans.
    Traces {
        /// The queried trace id, echoed.
        trace_id: u64,
        /// Every buffered span stamped with that trace, unordered
        /// (consumers sort by `start_us`).
        spans: Vec<SpanSnapshot>,
    },
    /// Receipt for a `DumpFlight` request: where the dump landed.
    FlightDumped {
        /// Path of the JSONL dump file on the answering instance.
        path: String,
        /// Flight-recorder events written into the dump.
        events: u64,
    },
    /// Receipt for an artifact lifecycle verb (`Stage`, `Apply`,
    /// `Accept`, `Rollback`).
    ArtifactAck {
        /// The artifact version the verb acted on.
        version: u64,
        /// Its lifecycle state after the verb: `"staged"`,
        /// `"soaking"`, `"active"`, or `"rolled_back"`.
        state: String,
        /// The snapshot epoch after the verb (bumped exactly once by
        /// `Apply` and `Rollback`; unchanged by `Stage` and `Accept`).
        epoch: u64,
    },
    /// Lifecycle state for an `ArtifactStatus` request. Through the
    /// router this carries one entry per usable instance.
    ArtifactStatus {
        /// Per-instance lifecycle views, sorted by address.
        status: cbes_reconfig::StatusReport,
    },
    /// The request failed; `kind` is one of [`error_kind`].
    Error {
        /// Machine-readable error class.
        kind: String,
        /// Human-readable detail.
        message: String,
        /// Back-off hint for load shedding: clients honouring retries
        /// should wait at least this long before the next attempt. `0`
        /// means no hint (the error is not load-related).
        retry_after_ms: u64,
    },
}

impl Response {
    /// The standard reply for a [`ServiceError`].
    pub fn service_error(err: &ServiceError) -> Response {
        Response::Error {
            kind: error_kind::SERVICE.to_string(),
            message: err.to_string(),
            retry_after_ms: 0,
        }
    }

    /// An error reply with the given kind.
    pub fn error(kind: &str, message: impl Into<String>) -> Response {
        Response::Error {
            kind: kind.to_string(),
            message: message.into(),
            retry_after_ms: 0,
        }
    }

    /// A load-shedding error reply carrying a back-off hint.
    pub fn shed(kind: &str, message: impl Into<String>, retry_after_ms: u64) -> Response {
        Response::Error {
            kind: kind.to_string(),
            message: message.into(),
            retry_after_ms,
        }
    }
}

/// One exported tracing span, the unit of [`Response::Traces`]. The
/// owned-`String` twin of `cbes_obs::SpanRecord` (whose name is a
/// `&'static str` and cannot cross the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Span name (an action name or a `cbes_obs::names` constant).
    pub name: String,
    /// Owning trace id; 0 marks an untraced span.
    pub trace: u64,
    /// Span id, unique within the recording process.
    pub id: u64,
    /// Parent span id; 0 marks a root span.
    pub parent: u64,
    /// Microseconds from the recording process's epoch to span start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub dur_us: u64,
}

impl From<cbes_obs::SpanRecord> for SpanSnapshot {
    fn from(r: cbes_obs::SpanRecord) -> Self {
        SpanSnapshot {
            name: r.name.to_string(),
            trace: r.trace,
            id: r.id,
            parent: r.parent,
            start_us: r.start_us,
            dur_us: r.dur_us,
        }
    }
}

/// One serving instance as seen by the routing tier's membership
/// table (or a daemon's single-instance self view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceInfo {
    /// Position in the tier's static seed list (and on the hash ring).
    pub index: usize,
    /// The instance's listening address.
    pub addr: String,
    /// Health label: `"healthy"`, `"suspect"`, or `"down"`.
    pub health: String,
    /// The instance's snapshot epoch at the last successful probe.
    pub epoch: u64,
    /// Whether this instance is the current replication leader.
    pub leader: bool,
    /// Requests dispatched to this instance as hash primary.
    pub routed: u64,
    /// Fan-out sends relayed to this instance (broadcast/merge/leader).
    pub forwarded: u64,
    /// Requests this instance served as a failover target.
    pub failed_over: u64,
}

/// The routing tier's view of its instances, for
/// [`Response::Membership`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MembershipReport {
    /// Cluster name the tier serves.
    pub cluster: String,
    /// Every seeded instance, in seed order.
    pub instances: Vec<InstanceInfo>,
    /// Index of the current replication leader, if any instance is
    /// usable.
    pub leader: Option<usize>,
    /// The highest snapshot epoch observed across instances.
    pub max_epoch: u64,
    /// Leader epoch minus the slowest live follower's epoch.
    pub replication_lag: u64,
    /// Heartbeat probe sweeps completed.
    pub heartbeats: u64,
    /// Cumulative instance health-state transitions.
    pub transitions: u64,
}

/// Server counters, as reported by [`Response::Stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Requests answered (all kinds, including error replies from
    /// workers).
    pub served: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Requests rejected at admission because the queue was full.
    pub overloaded: u64,
    /// Admitted requests whose reply timed out.
    pub timeouts: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Jobs waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Worker threads serving the queue.
    pub workers: usize,
    /// Current snapshot epoch.
    pub epoch: u64,
    /// Profiles currently registered.
    pub profiles: usize,
    /// Monitoring sweeps observed.
    pub observations: u64,
    /// Nodes currently classified `Healthy`.
    pub healthy: usize,
    /// Nodes currently classified `Suspect` (stale reports).
    pub suspect: usize,
    /// Nodes currently classified `Down` (unmappable).
    pub down: usize,
    /// Cumulative node health-state transitions since start.
    pub health_transitions: u64,
    /// Connections dropped for exhausting their malformed-frame budget.
    pub dropped_connections: u64,
    /// Requests served per action name (the [`ActionSpec::name`]s).
    pub per_action: BTreeMap<String, u64>,
    /// Seconds since the server started.
    pub uptime_s: f64,
}

/// A request with its correlation id and optional trace context.
///
/// The trace fields are carried as a pair: an untraced request (the
/// overwhelmingly common case) encodes exactly as before — `{"id": n,
/// "request": ...}` with no trace keys on the wire — while a traced
/// one appends `"trace_id"` and `"parent_span"` after the request.
/// Absent fields deserialise to 0, so old and new peers interoperate
/// in both directions. `Serialize`/`Deserialize` are hand-written
/// because the vendored derive has no optional-field support.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// Client-chosen id, echoed verbatim in the reply.
    pub id: u64,
    /// The request.
    pub request: Request,
    /// Trace id minted at the originating client; 0 = untraced.
    pub trace_id: u64,
    /// The sender's span id, adopted as the parent of the receiver's
    /// request span; 0 = the trace root.
    pub parent_span: u64,
}

impl RequestEnvelope {
    /// An untraced envelope (the common case).
    pub fn new(id: u64, request: Request) -> Self {
        RequestEnvelope {
            id,
            request,
            trace_id: 0,
            parent_span: 0,
        }
    }

    /// An envelope joined to an existing trace.
    pub fn traced(id: u64, request: Request, trace_id: u64, parent_span: u64) -> Self {
        RequestEnvelope {
            id,
            request,
            trace_id,
            parent_span,
        }
    }
}

impl Serialize for RequestEnvelope {
    fn to_value(&self) -> serde::Value {
        let trace = (self.trace_id != 0).then_some((self.trace_id, self.parent_span));
        envelope(self.id, &self.request, trace)
    }
}

/// What a [`RequestEnvelope`] serialises as, over a request its sender
/// keeps: `trace` is the `(trace_id, parent_span)` pair of a traced one.
pub(crate) fn envelope(id: u64, request: &Request, trace: Option<(u64, u64)>) -> serde::Value {
    let mut fields = vec![
        ("id".to_string(), id.to_value()),
        ("request".to_string(), request.to_value()),
    ];
    if let Some((trace_id, parent_span)) = trace {
        fields.push(("trace_id".to_string(), trace_id.to_value()));
        fields.push(("parent_span".to_string(), parent_span.to_value()));
    }
    serde::Value::Object(fields)
}

impl Deserialize for RequestEnvelope {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::custom(format!("expected object, got {}", v.kind())))?;
        let optional_u64 = |key: &str| -> Result<u64, serde::Error> {
            match obj.iter().find(|(k, _)| k == key) {
                Some((_, v)) => u64::from_value(v),
                None => Ok(0),
            }
        };
        Ok(RequestEnvelope {
            id: serde::from_field(obj, "id")?,
            request: serde::from_field(obj, "request")?,
            trace_id: optional_u64("trace_id")?,
            parent_span: optional_u64("parent_span")?,
        })
    }
}

/// A reply with the id of the request it answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// The originating request's id (0 when the line was unparseable).
    pub id: u64,
    /// The reply.
    pub response: Response,
}

/// Encode an envelope as one protocol line (no trailing newline).
pub fn encode<T: Serialize>(envelope: &T) -> String {
    serde_json::to_string(envelope).expect("protocol types always serialise")
}

/// Encode a reply envelope as one protocol line (no trailing newline).
/// Byte-for-byte identical to [`encode`].
pub fn encode_response(envelope: &ResponseEnvelope) -> String {
    String::from_utf8(response_bytes(envelope)).expect("the encoder writes UTF-8")
}

/// [`encode_response`] before it is checked to be text, with room for
/// the newline [`crate::net::encode_line`] adds.
///
/// Hot-path specialisation: `Predictions` replies — the bulk of serve
/// traffic, and ~50 numbers each — are written straight into one
/// buffer sized from the reply's shape, instead of building and walking
/// the generic value tree (numbers go through the same
/// [`serde_json::write_f64`] and [`serde_json::write_u64`]); every
/// other variant falls through to the generic path.
pub(crate) fn response_bytes(envelope: &ResponseEnvelope) -> Vec<u8> {
    use serde_json::{write_f64, write_u64};
    let Response::Predictions { epoch, predictions } = &envelope.response else {
        return encode(envelope).into_bytes();
    };
    // A rank is `{"r":…,"c":…},` around two floats of up to 17 digits,
    // a candidate some 60 bytes around its ranks. A guess: a longer
    // reply grows the buffer.
    let ranks: usize = predictions.iter().map(|p| p.per_proc.len()).sum();
    let mut out = Vec::with_capacity(96 + predictions.len() * 64 + ranks * 52);
    out.extend_from_slice(b"{\"id\":");
    write_u64(envelope.id, &mut out);
    out.extend_from_slice(b",\"response\":{\"Predictions\":{\"epoch\":");
    write_u64(*epoch, &mut out);
    out.extend_from_slice(b",\"predictions\":[");
    for (i, p) in predictions.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"time\":");
        write_f64(p.time, &mut out);
        out.extend_from_slice(b",\"bottleneck\":");
        write_u64(p.bottleneck as u64, &mut out);
        out.extend_from_slice(b",\"per_proc\":[");
        for (j, pc) in p.per_proc.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"r\":");
            write_f64(pc.r, &mut out);
            out.extend_from_slice(b",\"c\":");
            write_f64(pc.c, &mut out);
            out.push(b'}');
        }
        out.extend_from_slice(b"]}");
    }
    out.extend_from_slice(b"]}}}");
    out
}

/// Parse one protocol line into a request envelope.
///
/// Hot-path specialisation mirroring [`encode_response`]: the rigid
/// compact encoding of the comparison shapes (`Compare` / `BestOf` /
/// `Batch`) is recognised by a strict cursor parser; anything it does
/// not match byte-for-byte — other variants, whitespace, escapes,
/// malformed frames — falls back to the generic serde parse, so the
/// accepted language (and every error message) is unchanged.
pub fn decode_request(line: &str) -> Result<RequestEnvelope, serde_json::Error> {
    if let Some(env) = decode_request_fast(line) {
        return Ok(env);
    }
    serde_json::from_str(line)
}

/// Split a line at the canonical `{"id":N` prefix — the spelling every
/// encoder in the repo emits — into the id and everything after its
/// digits. Any other spelling (whitespace, a leading zero, an id that
/// is not first, a value past `u64`) is `None`; callers fall back to a
/// full parse. The relay swaps ids on both directions of a forwarded
/// frame through this, so nothing inside the frame can be mistaken for
/// the id.
pub fn split_id(line: &str) -> Option<(u64, &str)> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.lit(b"{\"id\":")?;
    let id = c.u64()?;
    matches!(c.bytes.get(c.pos), Some(b',' | b'}')).then_some(())?;
    Some((id, line.get(c.pos..)?))
}

fn decode_request_fast(line: &str) -> Option<RequestEnvelope> {
    let mut c = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.lit(b"{\"id\":")?;
    let id = c.u64()?;
    c.lit(b",\"request\":{\"")?;
    let tag = c.until_quote(line)?;
    c.lit(b":{\"app\":\"")?;
    let app = c.until_quote(line)?.to_string();
    c.lit(b",\"mappings\":[")?;
    let mut mappings = Vec::new();
    if !c.eat(b']') {
        loop {
            c.lit(b"{\"assign\":[")?;
            let mut assign = Vec::new();
            if !c.eat(b']') {
                loop {
                    assign.push(NodeId(u32::try_from(c.u64()?).ok()?));
                    if c.eat(b']') {
                        break;
                    }
                    c.lit(b",")?;
                }
            }
            c.lit(b"}")?;
            mappings.push(Mapping::new(assign));
            if c.eat(b']') {
                break;
            }
            c.lit(b",")?;
        }
    }
    c.lit(b"}}")?;
    // The envelope tail is either `}` (untraced) or the exact trace
    // suffix the encoder emits — both fields, in order.
    let (trace_id, parent_span) = if c.eat(b'}') {
        (0, 0)
    } else {
        c.lit(b",\"trace_id\":")?;
        let trace_id = c.u64()?;
        c.lit(b",\"parent_span\":")?;
        let parent_span = c.u64()?;
        c.lit(b"}")?;
        // The generic encoder never emits trace_id 0; stay as narrow.
        if trace_id == 0 {
            return None;
        }
        (trace_id, parent_span)
    };
    if c.pos != c.bytes.len() {
        return None;
    }
    let request = match tag {
        "Compare" => Request::Compare { app, mappings },
        "BestOf" => Request::BestOf { app, mappings },
        "Batch" => Request::Batch { app, mappings },
        _ => return None,
    };
    Some(RequestEnvelope::traced(id, request, trace_id, parent_span))
}

/// Byte cursor for [`decode_request_fast`]: every helper returns `None`
/// on the first unexpected byte, sending the line to the generic parse.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        let end = self.pos.checked_add(lit.len())?;
        if self.bytes.get(self.pos..end)? == lit {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn u64(&mut self) -> Option<u64> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(&b) = self.bytes.get(self.pos) {
            if !b.is_ascii_digit() {
                break;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
            self.pos += 1;
        }
        let digits = self.pos - start;
        // JSON forbids leading zeros; stay no wider than the generic parse.
        if digits == 0 || (digits > 1 && self.bytes.get(start) == Some(&b'0')) {
            return None;
        }
        Some(value)
    }

    /// Consume up to and including the next `"`, returning the span
    /// before it. Bails on escapes: the generic parser handles those.
    fn until_quote(&mut self, line: &'a str) -> Option<&'a str> {
        let start = self.pos;
        loop {
            match self.bytes.get(self.pos)? {
                b'\\' => return None,
                b'"' => {
                    let span = line.get(start..self.pos);
                    self.pos += 1;
                    return span;
                }
                _ => self.pos += 1,
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cbes_cluster::NodeId;

    #[test]
    fn fast_response_encoder_matches_the_generic_encoding() {
        use cbes_core::eval::ProcCost;
        let mut shapes = vec![
            ResponseEnvelope {
                id: 0,
                response: Response::Predictions {
                    epoch: 0,
                    predictions: vec![],
                },
            },
            ResponseEnvelope {
                id: u64::MAX,
                response: Response::Predictions {
                    epoch: 17,
                    predictions: vec![Prediction {
                        time: 0.1 + 0.2, // classic non-exact sum, full digits
                        bottleneck: 3,
                        per_proc: vec![],
                    }],
                },
            },
            ResponseEnvelope {
                id: 7,
                response: Response::Predictions {
                    epoch: 3,
                    predictions: vec![
                        Prediction {
                            time: 12.0, // integral float must keep its ".0"
                            bottleneck: 0,
                            per_proc: vec![
                                ProcCost { r: 1.5e-9, c: 0.0 },
                                ProcCost {
                                    r: f64::MAX,
                                    c: 2.2250738585072014e-308,
                                },
                            ],
                        },
                        Prediction {
                            time: f64::NAN, // encoder policy: null
                            bottleneck: 1,
                            per_proc: vec![ProcCost {
                                r: f64::INFINITY,
                                c: -0.0,
                            }],
                        },
                    ],
                },
            },
        ];
        let cost = |x: f64| ProcCost { r: x, c: x / 3.0 };
        let one = |time: f64, bottleneck: usize, per_proc: Vec<ProcCost>| ResponseEnvelope {
            id: u64::MAX,
            response: Response::Predictions {
                epoch: u64::MAX,
                predictions: vec![Prediction {
                    time,
                    bottleneck,
                    per_proc,
                }],
            },
        };
        // Values long enough (300 digits each) that 32 candidates
        // outgrow the capacity estimate.
        let long = Prediction {
            time: 1e-300,
            bottleneck: 31,
            per_proc: vec![cost(-1e-300); 4],
        };
        shapes.extend([
            one(f64::INFINITY, 0, vec![]), // -> null, as the generic path has it
            one(0.25, usize::MAX, vec![ProcCost { r: 1.0, c: -0.0 }]),
            one(
                1e-7,
                15,
                (1..=16).map(|i| cost(f64::from(i) * 0.1)).collect(),
            ),
            ResponseEnvelope {
                id: 1,
                response: Response::Predictions {
                    epoch: 1,
                    predictions: vec![long; 32],
                },
            },
        ]);
        for env in &shapes {
            let line = encode_response(env);
            assert_eq!(line, encode(env), "shape: {env:?}");
            let mut framed = line.into_bytes();
            framed.push(b'\n');
            assert_eq!(crate::net::encode_line(env), framed);
        }
        let infinite = one(f64::INFINITY, 0, vec![]);
        assert!(encode_response(&infinite).contains("{\"time\":null,"));
        // Non-Predictions variants take the generic path.
        let other = ResponseEnvelope {
            id: 9,
            response: Response::ShuttingDown,
        };
        assert_eq!(encode_response(&other), encode(&other));
    }

    #[test]
    fn fast_request_decoder_accepts_exactly_the_compact_encoding() {
        let shapes = vec![
            Request::Compare {
                app: "ring".into(),
                mappings: vec![
                    Mapping::new(vec![NodeId(0), NodeId(4), NodeId(1000)]),
                    Mapping::new(vec![]),
                ],
            },
            Request::BestOf {
                app: String::new(),
                mappings: vec![],
            },
            Request::Batch {
                app: "app with spaces + unicode é".into(),
                mappings: vec![Mapping::new(vec![NodeId(u32::MAX)])],
            },
        ];
        for request in shapes {
            let env = RequestEnvelope::new(3, request);
            let line = encode(&env);
            let fast = decode_request_fast(&line)
                .unwrap_or_else(|| panic!("fast path must accept {line}"));
            assert_eq!(fast, env);
            assert_eq!(decode_request(&line).expect("decode"), env);
        }
    }

    #[test]
    fn fast_request_decoder_falls_back_without_widening_the_language() {
        // Accepted by the generic parser, rejected by the fast path —
        // decode_request must still succeed via fallback.
        let spaced = "{\"id\": 5, \"request\":{\"Compare\":{\"app\":\"a\",\"mappings\":[]}}}";
        assert!(decode_request_fast(spaced).is_none());
        assert!(decode_request(spaced).is_ok());
        let escaped = "{\"id\":5,\"request\":{\"Compare\":{\"app\":\"a\\\"b\",\"mappings\":[]}}}";
        assert!(decode_request_fast(escaped).is_none());
        assert!(decode_request(escaped).is_ok());
        // Other variants: fast path bails, generic handles them.
        let env = RequestEnvelope::new(
            1,
            Request::Schedule {
                app: "x".into(),
                pool: vec![1, 2],
                iters: 5,
                seed: 0,
            },
        );
        let line = encode(&env);
        assert!(decode_request_fast(&line).is_none());
        assert_eq!(decode_request(&line).expect("decode"), env);
        // The vendored generic parser tolerates leading zeros; the fast
        // path must not short-circuit that leniency away.
        let zeros = "{\"id\":07,\"request\":{\"Compare\":{\"app\":\"a\",\"mappings\":[]}}}";
        assert!(decode_request_fast(zeros).is_none());
        assert!(decode_request(zeros).is_ok());
        // Rejected by both: truncated frames, junk tails.
        for bad in [
            "{\"id\":5,\"request\":{\"Compare\":{\"app\":\"a\",\"mappings\":[]}}}junk",
            "{\"id\":5,\"request\":{\"Compare\":{\"app\":\"a\",\"mappings\":[",
        ] {
            assert!(decode_request_fast(bad).is_none(), "fast accepted: {bad}");
            assert!(decode_request(bad).is_err(), "generic accepted: {bad}");
        }
    }

    #[test]
    fn split_id_reads_only_the_canonical_prefix() {
        let compare = |id: u64, app: &str| {
            encode(&RequestEnvelope::new(
                id,
                Request::Compare {
                    app: app.into(),
                    mappings: vec![],
                },
            ))
        };
        // Both directions lead with the id.
        assert_eq!(
            split_id(&compare(42, "lu")),
            Some((
                42,
                ",\"request\":{\"Compare\":{\"app\":\"lu\",\"mappings\":[]}}}"
            ))
        );
        let reply = encode_response(&ResponseEnvelope {
            id: u64::MAX,
            response: Response::ShuttingDown,
        });
        assert_eq!(
            split_id(&reply),
            Some((u64::MAX, ",\"response\":\"ShuttingDown\"}"))
        );
        // An app name that spells an id member is just part of the tail.
        let line = compare(4, "\"id\":9");
        assert_eq!(split_id(&line).map(|(id, _)| id), Some(4));
        assert_eq!(split_id("{\"id\":7}"), Some((7, "}")));
        // Non-canonical spellings are left to a full parse.
        for other in [
            "{\"id\":07,\"request\":\"Stats\"}",
            "{\"id\": 7,\"request\":\"Stats\"}",
            "{\"request\":\"Stats\",\"id\":7}",
            "{\"id\":18446744073709551616,\"request\":\"Stats\"}",
            "{\"id\":1.5,\"request\":\"Stats\"}",
            "{\"id\":,\"request\":\"Stats\"}",
            "{\"id\":7",
            "",
        ] {
            assert_eq!(split_id(other), None, "{other}");
        }
    }

    /// One request per action; the match is exhaustive, so a new
    /// action cannot skip the table test below.
    pub(crate) fn sample(action: Action) -> Request {
        let app = || "lu".to_string();
        let mappings = || vec![Mapping::new(vec![NodeId(0), NodeId(3)])];
        match action {
            Action::RegisterProfile => Request::RegisterProfile {
                profile: AppProfile {
                    name: app(),
                    procs: vec![],
                    arch_ratios: BTreeMap::new(),
                },
            },
            Action::Compare => Request::Compare {
                app: app(),
                mappings: mappings(),
            },
            Action::BestOf => Request::BestOf {
                app: app(),
                mappings: mappings(),
            },
            Action::Schedule => Request::Schedule {
                app: app(),
                pool: vec![1, 2],
                iters: 5,
                seed: 0,
            },
            Action::ObserveLoad => Request::ObserveLoad {
                load: LoadState::idle(4),
            },
            Action::ObservePartial => Request::ObservePartial {
                load: LoadState::idle(4),
                silent: vec![2],
            },
            Action::Stats => Request::Stats,
            Action::Metrics => Request::Metrics,
            Action::Shutdown => Request::Shutdown,
            Action::Route => Request::Route {
                cluster: "centurion".into(),
                app: app(),
            },
            Action::Replicate => Request::Replicate {
                epoch: 7,
                load: LoadState::idle(4),
                silent: vec![2],
            },
            Action::Membership => Request::Membership,
            Action::Batch => Request::Batch {
                app: app(),
                mappings: mappings(),
            },
            Action::Trace => Request::Trace { trace_id: 99 },
            Action::DumpFlight => Request::DumpFlight,
            Action::Stage => Request::Stage {
                kind: "serving_limits".into(),
                payload: "{\"max_rps\": 50.0, \"shed_retry_after_ms\": 10}".into(),
            },
            Action::Apply => Request::Apply,
            Action::Accept => Request::Accept,
            Action::Rollback => Request::Rollback {
                reason: "p99 regression".into(),
            },
            Action::ArtifactStatus => Request::ArtifactStatus,
        }
    }

    #[test]
    fn every_row_round_trips_and_the_table_is_consistent() {
        for (i, spec) in ACTIONS.iter().enumerate() {
            assert_eq!(spec.action as usize, i, "{} is out of place", spec.name);
            let request = sample(spec.action);
            assert_eq!(request.spec(), spec);
            assert_eq!(ActionSpec::by_tag(spec.tag), Some(spec));
            assert_eq!(spec.counter, format!("server.action.{}", spec.name));
            // The tag is the variant name: the name without its underscores.
            assert_eq!(spec.tag.to_lowercase(), spec.name.replace('_', ""));
            for env in [
                RequestEnvelope::new(42, request.clone()),
                RequestEnvelope::traced(42, request, 77, 5),
            ] {
                let line = encode(&env);
                assert!(!line.contains('\n'), "one line per message");
                assert!(line.contains(&format!("\"{}\"", spec.tag)), "{line}");
                assert_eq!(decode_request(&line).expect("a row decodes"), env);
            }
            // Evaluations are what the tier places by key, and nothing else is.
            assert_eq!(
                spec.eval,
                spec.forward == ForwardMode::Hash,
                "{}",
                spec.name
            );
            assert!(spec.idempotent || !spec.eval, "{} must replay", spec.name);
            for other in ACTIONS.iter().skip(i + 1) {
                assert_ne!(spec.name, other.name);
                assert_ne!(spec.tag, other.tag);
                assert_ne!(
                    spec.alias.unwrap_or(spec.name),
                    other.alias.unwrap_or(other.name)
                );
            }
        }
        assert_eq!(ActionSpec::by_tag("Comparex"), None);
        assert_eq!(ActionSpec::by_tag("compare"), None, "tags are exact");
    }

    #[test]
    fn router_family_replies_round_trip() {
        let info = InstanceInfo {
            index: 0,
            addr: "127.0.0.1:9000".into(),
            health: "healthy".into(),
            epoch: 7,
            leader: true,
            routed: 3,
            forwarded: 1,
            failed_over: 0,
        };
        let resp = Response::Membership {
            membership: MembershipReport {
                cluster: "centurion".into(),
                instances: vec![info.clone()],
                leader: Some(0),
                max_epoch: 7,
                replication_lag: 0,
                heartbeats: 12,
                transitions: 0,
            },
        };
        let env = ResponseEnvelope {
            id: 7,
            response: resp.clone(),
        };
        let back: ResponseEnvelope =
            serde_json::from_str(&encode(&env)).expect("encode emits valid JSON");
        assert_eq!(back.response, resp);
        let routed = Response::Routed {
            hash: route_key_hash("centurion", "lu"),
            primary: info,
            replicas: vec![],
        };
        let back: ResponseEnvelope = serde_json::from_str(&encode(&ResponseEnvelope {
            id: 8,
            response: routed.clone(),
        }))
        .expect("encode emits valid JSON");
        assert_eq!(back.response, routed);
    }

    #[test]
    fn route_key_hash_is_stable_and_separates_key_halves() {
        let h = route_key_hash("centurion", "lu");
        assert_eq!(h, route_key_hash("centurion", "lu"), "deterministic");
        assert_ne!(h, route_key_hash("centurion", "mg"));
        assert_ne!(h, route_key_hash("orion", "lu"));
        // The separator keeps ("ab", "c") and ("a", "bc") distinct.
        assert_ne!(route_key_hash("ab", "c"), route_key_hash("a", "bc"));
    }

    #[test]
    fn trace_family_replies_round_trip() {
        let resp = Response::Traces {
            trace_id: 99,
            spans: vec![SpanSnapshot {
                name: "batch".into(),
                trace: 99,
                id: 3,
                parent: 1,
                start_us: 40,
                dur_us: 17,
            }],
        };
        let env = ResponseEnvelope {
            id: 5,
            response: resp.clone(),
        };
        let back: ResponseEnvelope =
            serde_json::from_str(&encode(&env)).expect("encode emits valid JSON");
        assert_eq!(back.response, resp);
        let receipt = Response::FlightDumped {
            path: "/tmp/cbes-flight-1-2.jsonl".into(),
            events: 4,
        };
        let back: ResponseEnvelope = serde_json::from_str(&encode(&ResponseEnvelope {
            id: 6,
            response: receipt.clone(),
        }))
        .expect("encode emits valid JSON");
        assert_eq!(back.response, receipt);
    }

    #[test]
    fn artifact_family_replies_round_trip() {
        let ack = Response::ArtifactAck {
            version: 3,
            state: "soaking".into(),
            epoch: 12,
        };
        let back: ResponseEnvelope = serde_json::from_str(&encode(&ResponseEnvelope {
            id: 7,
            response: ack.clone(),
        }))
        .expect("encode emits valid JSON");
        assert_eq!(back.response, ack);

        let status = Response::ArtifactStatus {
            status: cbes_reconfig::StatusReport {
                instances: vec![cbes_reconfig::InstanceStatus {
                    addr: "127.0.0.1:4100".into(),
                    reconfigurable: true,
                    status: cbes_reconfig::LifecycleStatus::empty(),
                }],
            },
        };
        let back: ResponseEnvelope = serde_json::from_str(&encode(&ResponseEnvelope {
            id: 8,
            response: status.clone(),
        }))
        .expect("encode emits valid JSON");
        assert_eq!(back.response, status);
    }

    #[test]
    fn traced_envelopes_round_trip_and_untraced_wire_shape_is_unchanged() {
        let untraced = RequestEnvelope::new(3, Request::Stats);
        let line = encode(&untraced);
        assert!(
            !line.contains("trace_id"),
            "untraced envelopes must not widen the wire: {line}"
        );
        let back: RequestEnvelope = serde_json::from_str(&line).expect("decode");
        assert_eq!(back, untraced);

        let traced = RequestEnvelope::traced(4, Request::Stats, 77, 5);
        let line = encode(&traced);
        assert!(line.contains("\"trace_id\":77"), "{line}");
        assert!(line.contains("\"parent_span\":5"), "{line}");
        let back: RequestEnvelope = serde_json::from_str(&line).expect("decode");
        assert_eq!(back, traced);
        // A traced root (parent 0) still carries both fields.
        let root = RequestEnvelope::traced(4, Request::Stats, 77, 0);
        let back: RequestEnvelope = serde_json::from_str(&encode(&root)).expect("decode");
        assert_eq!(back, root);
    }

    #[test]
    fn fast_request_decoder_accepts_the_traced_suffix() {
        let req = Request::Batch {
            app: "lu".into(),
            mappings: vec![Mapping::new(vec![NodeId(0), NodeId(3)])],
        };
        let env = RequestEnvelope::traced(9, req, 0xABCD, 7);
        let line = encode(&env);
        let fast = decode_request_fast(&line)
            .unwrap_or_else(|| panic!("fast path must accept traced frames: {line}"));
        assert_eq!(fast, env);
        // Truncated or reordered trace suffixes fall back cleanly.
        for bad in [
            "{\"id\":9,\"request\":{\"Batch\":{\"app\":\"lu\",\"mappings\":[]}},\"trace_id\":5}",
            "{\"id\":9,\"request\":{\"Batch\":{\"app\":\"lu\",\"mappings\":[]}},\"parent_span\":5,\"trace_id\":5}",
            "{\"id\":9,\"request\":{\"Batch\":{\"app\":\"lu\",\"mappings\":[]}},\"trace_id\":0,\"parent_span\":0}",
        ] {
            assert!(decode_request_fast(bad).is_none(), "fast accepted: {bad}");
        }
    }

    #[test]
    fn error_reply_round_trips() {
        let env = ResponseEnvelope {
            id: 9,
            response: Response::error(error_kind::OVERLOADED, "queue full"),
        };
        let back: ResponseEnvelope =
            serde_json::from_str(&encode(&env)).expect("encode emits valid JSON");
        assert_eq!(back, env);
        match back.response {
            Response::Error { kind, .. } => assert_eq!(kind, error_kind::OVERLOADED),
            other => panic!("expected error, got {other:?}"),
        }
    }

    #[test]
    fn id_zero_marks_unparseable_lines() {
        let bad: Result<RequestEnvelope, _> = serde_json::from_str("{\"nope\":1}");
        assert!(bad.is_err());
    }
}
