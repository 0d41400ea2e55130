//! The tier runtime: heartbeat probing, leader-driven snapshot
//! replication, and a proxy daemon speaking the ordinary CBES wire
//! protocol.
//!
//! Replication is leader-push: monitoring sweeps go to the leader
//! (lowest usable instance), which assigns the epoch; the router then
//! relays the same sweep to every other usable instance as
//! `Replicate { epoch, .. }`. Followers adopt an epoch at most once,
//! so the push is idempotent, and because the push happens inline the
//! steady-state staleness between leader and followers is bounded by
//! one in-flight sweep — the heartbeat publishes the measured bound as
//! the `router.replication_lag_epochs` gauge.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::membership::{Membership, MembershipConfig};
use crate::ring::HashRing;
use cbes_cluster::load::LoadState;
use cbes_core::health::NodeHealth;
use cbes_obs::{names, Counter};
use cbes_server::net::{self, encode_line, Control, Forward, Handler, NetHandle, NetMetrics};
use cbes_server::protocol::{
    decode_request, encode, error_kind, route_key_hash, split_id, ActionSpec, ForwardMode, Request,
    Response, ResponseEnvelope, SpanSnapshot, StatsReport,
};
use cbes_server::{Client, ClientError, ServerConfig};

/// How often the sleeping heartbeat re-checks the shutdown flag.
const HEARTBEAT_SLICE: Duration = Duration::from_millis(50);

/// Configuration for [`RouterServer::start`].
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Router bind address; port 0 picks a free port.
    pub addr: String,
    /// Seed addresses of the `cbes-server` instances, in ring order.
    pub seeds: Vec<String>,
    /// Membership tuning (heartbeat cadence, health policy, replicas).
    pub membership: MembershipConfig,
}

/// What a fan-out came back with: each target's seed index and its
/// reply, an error reply being a [`ClientError::Server`].
pub type Replies = Vec<(usize, Result<Response, ClientError>)>;

/// Ask each of `targets` (seed indices) `request`, over an idle pooled
/// connection to it or else one dialled within the probe timeout, with
/// the request written to every target before any reply is read. The
/// only place the router dials an instance: the heartbeat, the
/// replication push and every worker-run forwarding mode go through it.
/// Nothing is re-sent. A connection goes back to the pool only after a
/// complete exchange: a reply, or an error reply other than
/// `shutting_down`.
pub fn fan_out(membership: &Membership, targets: &[usize], request: &Request) -> Replies {
    let timeout = membership.config().probe_timeout;
    let dial = |i: usize| {
        let addr = membership.addrs().get(i);
        let addr = addr.ok_or_else(|| ClientError::Protocol(format!("no instance #{i}")))?;
        Client::connect_timeout(addr.as_str(), timeout)
    };
    let (mut replies, mut open): (Replies, Vec<_>) = (Vec::new(), Vec::new());
    for &i in targets {
        match membership.take_idle(i).map_or_else(|| dial(i), Ok) {
            Ok(client) => open.push((i, client)),
            Err(e) => replies.push((i, Err(e))),
        }
    }
    let (asked, mut clients): (Vec<usize>, Vec<Client>) = open.into_iter().unzip();
    let answers = Client::call_each(&mut clients, request);
    for ((i, client), reply) in asked.into_iter().zip(clients).zip(answers) {
        let complete = match &reply {
            Err(ClientError::Server { kind, .. }) => kind != error_kind::SHUTTING_DOWN,
            other => other.is_ok(),
        };
        if complete {
            membership.keep_idle(i, client);
        }
        replies.push((i, reply));
    }
    // Target order, which the folds' "first" and failure lists follow.
    replies.sort_by_key(|&(i, _)| targets.iter().position(|&t| t == i));
    replies
}

/// [`fan_out`] for a request the tier was sent (the heartbeat's probes
/// are the router's own questions), under the one forwarding rule: an
/// instance that answered with a non-error reply is counted as served.
fn fan_out_counted(membership: &Membership, targets: &[usize], request: &Request) -> Replies {
    let replies = fan_out(membership, targets, request);
    let served = replies.iter().filter(|(_, reply)| reply.is_ok());
    served.for_each(|(i, _)| membership.count_forwarded(*i));
    replies
}

/// Probe every instance once: a `Stats` round-trip within the probe
/// timeout, yielding the instance's epoch. Returns one entry per seed.
pub fn probe_instances(membership: &Membership) -> Vec<Option<u64>> {
    let everyone: Vec<usize> = (0..membership.len()).collect();
    let probes = fan_out(membership, &everyone, &Request::Stats).into_iter();
    let epoch = |reply| match reply {
        Ok(Response::Stats { stats }) => Some(stats.epoch),
        _ => None,
    };
    probes.map(|(_, reply)| epoch(reply)).collect()
}

/// Run the heartbeat loop until `shutdown` flips: probe all instances,
/// feed the sweep to the membership table, sleep one interval.
pub fn heartbeat_loop(membership: &Arc<Membership>, shutdown: &AtomicBool) {
    let interval = membership.config().heartbeat;
    while !shutdown.load(Ordering::Acquire) {
        let probes = probe_instances(membership);
        membership.record_probes(&probes);
        // Sleep in small slices so shutdown is prompt.
        let mut left = interval;
        while !left.is_zero() && !shutdown.load(Ordering::Acquire) {
            let slice = left.min(HEARTBEAT_SLICE);
            std::thread::sleep(slice);
            left = left.saturating_sub(slice);
        }
    }
}

/// Spawn [`heartbeat_loop`] on its own thread.
pub fn spawn_heartbeat(membership: Arc<Membership>, shutdown: Arc<AtomicBool>) -> JoinHandle<()> {
    std::thread::spawn(move || heartbeat_loop(&membership, &shutdown))
}

/// Publish one monitoring sweep through the tier: the leader observes
/// it (assigning the epoch), then every other usable instance receives
/// it as `Replicate { epoch, .. }`. A dead leader is skipped in favour
/// of the next usable instance, whose replicated epoch keeps the line
/// monotone. Returns the published epoch.
pub fn observe_tier(
    membership: &Membership,
    load: &LoadState,
    silent: &[u32],
) -> Result<u64, ClientError> {
    let (mut order, leader) = (membership.usable(), membership.leader());
    order.sort_by_key(|&i| Some(i) != leader);
    let observe = match silent {
        [] => Request::ObserveLoad { load: load.clone() },
        _ => Request::ObservePartial {
            load: load.clone(),
            silent: silent.to_vec(),
        },
    };
    let mut last = ClientError::Io(std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        "no usable instance to observe through",
    ));
    for (slot, &i) in order.iter().enumerate() {
        // One candidate at a time: the first to take the sweep assigns
        // its epoch.
        let epoch = match fan_out_counted(membership, &[i], &observe).pop() {
            Some((_, Ok(Response::LoadObserved { epoch }))) => epoch,
            Some((_, Err(e))) => {
                last = e;
                continue;
            }
            other => {
                last = ClientError::Protocol(format!("expected LoadObserved reply, got {other:?}"));
                continue;
            }
        };
        membership.note_epoch(i, epoch);
        if slot > 0 {
            membership.count_failed_over(i);
        }
        let followers: Vec<usize> = order.iter().copied().filter(|&f| f != i).collect();
        let push = Request::Replicate {
            epoch,
            load: load.clone(),
            silent: silent.to_vec(),
        };
        let pushed = fan_out_counted(membership, &followers, &push);
        let replications = membership.obs().counter(names::ROUTER_REPLICATIONS);
        for (follower, reply) in pushed {
            // A failed push is left to the heartbeat: the instance will
            // age toward Down, and its lag shows in the gauge meanwhile.
            if let Ok(Response::Replicated { epoch: theirs, .. }) = reply {
                membership.note_epoch(follower, theirs.max(epoch));
                replications.incr();
            }
        }
        return Ok(epoch);
    }
    Err(last)
}

/// The routing proxy daemon: the [`cbes_server::net`] I/O layer's second
/// handler. It heartbeats its seeds and answers the CBES wire protocol
/// by forwarding each action per its [`ActionSpec::forward`], with the daemon's
/// own front-door bounds (frame cap, strike budget, bounded admission,
/// per-request deadline, graceful drain) at their
/// [`ServerConfig::default`] values.
pub struct RouterServer;

impl RouterServer {
    /// Bind `config.addr`, start the heartbeat, and serve until shut
    /// down.
    pub fn start(config: TierConfig) -> std::io::Result<RouterTierHandle> {
        let limits = ServerConfig {
            addr: config.addr,
            ..ServerConfig::default()
        };
        // One registry per router, held by its membership table: the
        // layer's `server.*` counters live there beside `router.*`.
        let membership = Membership::new(config.seeds, config.membership);
        let metrics = NetMetrics::new(membership.obs());
        let net = net::start(&limits, metrics, |control| {
            Ok(Router {
                ring: HashRing::new(membership.len()),
                giveups: membership.obs().counter(names::ROUTER_GIVEUPS),
                membership: membership.clone(),
                net: control.clone(),
            })
        })?;
        let heartbeat = spawn_heartbeat(membership.clone(), net.control().shutdown_flag());
        Ok(RouterTierHandle {
            net,
            membership,
            heartbeat,
        })
    }
}

/// Running-router handle: address, membership, shutdown trigger.
/// Dropping it un-joined stops the threads without waiting.
pub struct RouterTierHandle {
    net: NetHandle,
    membership: Arc<Membership>,
    heartbeat: JoinHandle<()>,
}

impl RouterTierHandle {
    /// The address the router actually bound.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.net.control().addr()
    }

    /// The router's membership table.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// Trigger shutdown without waiting.
    pub fn shutdown(&self) {
        self.net.control().shutdown();
    }

    /// Wait until the router drains — a wire-level `Shutdown` or a
    /// local [`Self::shutdown`] — and its threads exit.
    pub fn join(mut self) {
        self.net.join();
        let _ = self.heartbeat.join();
    }

    /// Trigger shutdown and wait for the router's threads to exit.
    pub fn shutdown_and_join(self) {
        self.shutdown();
        self.join();
    }
}

/// The router as a [`Handler`].
struct Router {
    membership: Arc<Membership>,
    /// Placement over the seed list, which is fixed at start.
    ring: HashRing,
    /// Hash-routed requests answered `no usable instance owns this key`.
    giveups: Arc<Counter>,
    net: Arc<Control>,
}

impl Handler for Router {
    /// The worker-run verbs: each asks through `fan_out` and waits on a peer,
    /// so none runs on the reactor (`inline` stays `None`). A frame
    /// that does not decode is refused here too, unattributable (id 0)
    /// and as a strike against its connection.
    fn execute(&self, line: &str) -> (Vec<u8>, bool) {
        let envelope = match decode_request(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                let response = Response::error(error_kind::BAD_REQUEST, e.to_string());
                return (encode_line(&ResponseEnvelope { id: 0, response }), true);
            }
        };
        // A traced envelope joins the caller's trace here, and —
        // because `Client::request` stamps outgoing envelopes from the
        // live trace context — every hop this dispatch forwards carries
        // the same trace id with the router's span as the remote parent.
        let _span = (envelope.trace_id != 0).then(|| {
            self.membership.obs().spans().span_rooted(
                names::SPAN_ROUTER_FORWARD,
                envelope.trace_id,
                envelope.parent_span,
            )
        });
        let response = self.dispatch(&envelope.request);
        let id = envelope.id;
        (encode_line(&ResponseEnvelope { id, response }), false)
    }

    fn upstreams(&self) -> (Vec<String>, Duration) {
        let membership = &self.membership;
        (
            membership.addrs().to_vec(),
            membership.config().probe_timeout,
        )
    }

    /// Hash-routed evaluations never reach a worker: the reactor relays
    /// them to the key's owner. The frame is validated and keyed here —
    /// one that does not decode is left to `execute` to refuse, never
    /// forwarded, so no peer can spend the shared backend socket's
    /// strike budget — and goes out as the bytes it came in, minus its
    /// id and, when traced, with this hop's span as its parent. Only a
    /// frame not in the canonical spelling is re-encoded.
    fn relay(&self, line: &str) -> Option<Forward> {
        let canonical = split_id(line).map(|(_, tail)| tail);
        // What is visibly not hash-routed is not parsed twice.
        let tag = canonical.and_then(|tail| tail.strip_prefix(",\"request\":"));
        let tag = tag.and_then(|rest| rest.strip_prefix('"').or(rest.strip_prefix("{\"")));
        let tag = tag.and_then(|rest| rest.split('"').next());
        let mode = tag.map(|tag| ActionSpec::by_tag(tag).map(|spec| spec.forward));
        if mode.is_some_and(|mode| mode != Some(ForwardMode::Hash)) {
            return None;
        }
        let mut envelope = decode_request(line).ok()?;
        let (Request::Compare { app, .. }
        | Request::BestOf { app, .. }
        | Request::Schedule { app, .. }
        | Request::Batch { app, .. }) = &envelope.request
        else {
            return None;
        };
        let membership = &self.membership;
        let hash = route_key_hash(&membership.config().cluster, app);
        let mut candidates = self.ring.candidates(hash, membership.config().replicas + 1);
        let primary = candidates.first().copied().unwrap_or(usize::MAX);
        candidates.retain(|&i| membership.health(i) != NodeHealth::Down);
        let caller = envelope.parent_span;
        let span = (envelope.trace_id != 0).then(|| {
            let hop = membership.obs().spans().span_detached(
                names::SPAN_ROUTER_FORWARD,
                envelope.trace_id,
                caller,
            );
            envelope.parent_span = hop.id();
            hop
        });
        // How the encoder ends a traced frame, under a given parent.
        let traced = |parent| {
            format!(
                ",\"trace_id\":{},\"parent_span\":{parent}}}",
                envelope.trace_id
            )
        };
        let tail = match (canonical, &span) {
            (Some(tail), None) => Some(tail.to_string()),
            // Spelled the encoder's way: only the parent is rewritten.
            (Some(tail), Some(hop)) => tail
                .strip_suffix(traced(caller).as_str())
                .map(|body| body.to_string() + &traced(hop.id())),
            (None, _) => None,
        };
        let tail = match tail {
            Some(tail) => tail,
            None => split_id(&encode(&envelope))?.1.to_string(),
        };
        Some(Forward {
            id: envelope.id,
            tail,
            candidates,
            primary,
            span,
        })
    }

    fn relayed(&self, upstream: usize, primary: bool) {
        if primary {
            self.membership.count_routed(upstream);
        } else {
            self.membership.count_failed_over(upstream);
        }
    }

    fn unroutable(&self, id: u64) -> Vec<u8> {
        let response = if self.net.is_shutting_down() {
            // The tier is going away under this request.
            Response::shed(error_kind::SHUTTING_DOWN, "router is draining", 0)
        } else {
            self.giveups.incr();
            Response::error(error_kind::SERVICE, "no usable instance owns this key")
        };
        encode_line(&ResponseEnvelope { id, response })
    }
}

impl Router {
    /// Answer one worker-run request. The match is over the request
    /// itself and has no wildcard, so an action without an arm does not
    /// compile. Each arm names the forwarding mode it implements where it
    /// picks its targets; the action table's `forward` column *declares*
    /// that mode (the relay and DESIGN §11 read the column), and a debug
    /// build holds the two together.
    fn dispatch(&self, request: &Request) -> Response {
        use ForwardMode::{Broadcast, Hash, Leader, Local, Merge};
        let membership = &self.membership;
        let implements = |mode: ForwardMode| {
            debug_assert_eq!(request.spec().forward, mode, "{}", request.spec().name);
        };
        // `Merge` and `Broadcast` both go to every usable instance; they
        // differ in what is made of the replies.
        let ask = |mode: ForwardMode| {
            implements(mode);
            fan_out_counted(membership, &membership.usable(), request)
        };
        let observe = |load: &LoadState, silent: &[u32]| {
            implements(Leader);
            match observe_tier(membership, load, silent) {
                Ok(epoch) => Response::LoadObserved { epoch },
                Err(e) => Response::error(error_kind::SERVICE, e.to_string()),
            }
        };
        let first_ack = |replies: Replies| replies.into_iter().find_map(|(_, reply)| reply.ok());
        let unanswered = || Response::error(error_kind::SERVICE, "no usable instance answered");
        match request {
            Request::ObserveLoad { load } => observe(load, &[]),
            Request::ObservePartial { load, silent } => observe(load, silent),
            Request::Stats => {
                let stats = parts(ask(Merge), |reply| match reply {
                    Response::Stats { stats } => Some(stats),
                    _ => None,
                });
                let merged = stats.reduce(merge_stats);
                merged.map_or_else(unanswered, |stats| Response::Stats { stats })
            }
            Request::Metrics => {
                let metrics = parts(ask(Merge), |reply| match reply {
                    Response::Metrics { metrics } => Some(metrics),
                    _ => None,
                });
                // The router's own instruments join the instances' —
                // `router.*` counts live nowhere else.
                let merged = metrics.reduce(|mut merged, m| {
                    merged.merge(&m);
                    merged
                });
                let merged = merged.map(|mut tier| {
                    tier.merge(&membership.obs().snapshot());
                    tier
                });
                merged.map_or_else(unanswered, |metrics| Response::Metrics { metrics })
            }
            Request::Trace { trace_id } => {
                let trace_id = *trace_id;
                let mut fragments = parts(ask(Merge), |reply| match reply {
                    Response::Traces { spans, .. } => Some(spans),
                    _ => None,
                })
                .peekable();
                if fragments.peek().is_none() {
                    return unanswered();
                }
                // The router's own forwarding spans are part of the trace
                // too — without them the tier-wide view has no root
                // connecting the per-instance fragments.
                let own = membership.obs().spans().of_trace(trace_id);
                let own = own.into_iter().map(SpanSnapshot::from);
                let mut spans: Vec<SpanSnapshot> = fragments.flatten().chain(own).collect();
                spans.sort_by_key(|a| (a.start_us, a.id));
                Response::Traces { trace_id, spans }
            }
            Request::ArtifactStatus => {
                let mut rows = parts(ask(Merge), |reply| match reply {
                    Response::ArtifactStatus { status } => Some(status.instances),
                    _ => None,
                })
                .peekable();
                if rows.peek().is_none() {
                    return unanswered();
                }
                let mut instances: Vec<_> = rows.flatten().collect();
                instances.sort_by(|a, b| a.addr.cmp(&b.addr));
                let status = cbes_reconfig::StatusReport { instances };
                Response::ArtifactStatus { status }
            }
            // What every instance must hold alike is all-or-error: a
            // profile one instance missed makes every key it owns answer
            // `unknown app`, which no failover repairs.
            Request::RegisterProfile { .. }
            | Request::Stage { .. }
            | Request::Apply
            | Request::Accept
            | Request::Rollback { .. } => all_or_error(membership.addrs(), ask(Broadcast)),
            Request::Replicate { .. } => first_ack(ask(Broadcast)).unwrap_or_else(unanswered),
            Request::Shutdown => {
                // Draining the tier drains the router too. Its own drain
                // starts first, so a request that finds every instance
                // already gone is told `shutting_down`.
                self.net.shutdown();
                ask(Broadcast);
                Response::ShuttingDown
            }
            Request::DumpFlight => {
                // The router is part of the tier: it dumps its own
                // recorder alongside the instances'. The first instance
                // reply is relayed; the router's own dump answers only
                // when no instance could.
                let registry = membership.obs();
                let own = registry.flight().dump("on_demand", registry.spans());
                let own = own.ok().map(|(path, events)| Response::FlightDumped {
                    path: path.display().to_string(),
                    events: events as u64,
                });
                first_ack(ask(Broadcast)).or(own).unwrap_or_else(unanswered)
            }
            Request::Route { cluster, app } => {
                implements(Local);
                let hash = route_key_hash(cluster, app);
                let candidates = self.ring.candidates(hash, membership.config().replicas + 1);
                let report = membership.report();
                let mut infos = candidates
                    .iter()
                    .filter_map(|&i| report.instances.get(i).cloned());
                let Some(primary) = infos.next() else {
                    let why = "the tier has no seeded instances";
                    return Response::error(error_kind::SERVICE, why);
                };
                let replicas = infos.collect();
                Response::Routed {
                    hash,
                    primary,
                    replicas,
                }
            }
            Request::Membership => {
                implements(Local);
                let membership = membership.report();
                Response::Membership { membership }
            }
            // Hash-routed requests are relayed on the reactor; one that
            // reached a worker is a stray, refused like any other.
            Request::Compare { .. }
            | Request::BestOf { .. }
            | Request::Schedule { .. }
            | Request::Batch { .. } => {
                implements(Hash);
                let why = "hash-routed requests are relayed, not executed";
                Response::error(error_kind::BAD_REQUEST, why)
            }
        }
    }
}

/// What each instance that answered a fan-out contributes to a merged
/// reply: `part` of its reply, in target order. An instance that was
/// unreachable, refused, or answered something else contributes nothing.
fn parts<T>(replies: Replies, part: fn(Response) -> Option<T>) -> impl Iterator<Item = T> {
    let replies = replies.into_iter();
    replies.filter_map(move |(_, reply)| part(reply.ok()?))
}

/// The all-or-error fold over a broadcast that never stopped early, so
/// a failure early in seed order did not strand the instances behind it
/// on the old configuration. When every instance acknowledged, the
/// first ack is relayed; otherwise the reply is one error aggregating
/// every instance's outcome — how many acknowledged out of how many
/// attempted, plus each failure tagged with its address — so the
/// operator knows the tier is divergent without a separate status call.
/// Instances that acknowledged stay changed: each holds its state
/// durably, so a retry (or the lifecycle's own `rollback` verb)
/// converges the stragglers.
fn all_or_error(addrs: &[String], replies: Replies) -> Response {
    let attempted = replies.len();
    let mut acks = Vec::new();
    let mut failures = Vec::new();
    for (i, reply) in replies {
        let addr = addrs.get(i).map_or("?", String::as_str);
        match reply {
            Ok(ack) => acks.push(ack),
            Err(ClientError::Server { message, .. }) => failures.push(format!("{addr}: {message}")),
            Err(e) => failures.push(format!("{addr}: unreachable: {e}")),
        }
    }
    let acked = acks.len();
    let failed = failures.join("; ");
    let error = |message| Response::error(error_kind::SERVICE, message);
    match acks.into_iter().next() {
        Some(ack) if failures.is_empty() => ack,
        None if attempted == 0 => error("no usable instance accepted".to_string()),
        // Nothing changed anywhere: a uniform refusal, not divergence.
        None => error(format!("broadcast refused by every instance [{failed}]")),
        Some(_) => error(format!(
            "partial broadcast: {acked}/{attempted} instances acknowledged, \
             the tier is divergent — retry to converge or roll back [{failed}]"
        )),
    }
}

/// Merge one more instance's stats into a tier-wide report:
/// per-instance counters add; cluster-level fields (epoch, node health,
/// profiles) take the most-advanced instance's view, since every
/// instance describes the same cluster.
fn merge_stats(mut merged: StatsReport, r: StatsReport) -> StatsReport {
    merged.served += r.served;
    merged.errors += r.errors;
    merged.overloaded += r.overloaded;
    merged.timeouts += r.timeouts;
    merged.connections += r.connections;
    merged.queue_depth += r.queue_depth;
    merged.workers += r.workers;
    merged.observations += r.observations;
    merged.dropped_connections += r.dropped_connections;
    merged.uptime_s = merged.uptime_s.max(r.uptime_s);
    for (action, count) in r.per_action {
        *merged.per_action.entry(action).or_insert(0) += count;
    }
    if r.epoch > merged.epoch {
        merged.epoch = r.epoch;
        merged.profiles = r.profiles;
        merged.healthy = r.healthy;
        merged.suspect = r.suspect;
        merged.down = r.down;
        merged.health_transitions = r.health_transitions;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_broadcast_every_instance_must_hold_is_all_or_error() {
        let addrs = ["a:1", "b:2", "c:3"].map(String::from);
        let ack = |procs| {
            Ok(Response::Registered {
                app: "lu".to_string(),
                procs,
            })
        };
        let refusal = || {
            Err(ClientError::Server {
                kind: error_kind::SERVICE.to_string(),
                message: "no artifact is soaking".to_string(),
                retry_after_ms: 0,
            })
        };
        let unreachable = || Err(ClientError::Protocol("hung up".to_string()));
        let error = |replies| match all_or_error(&addrs, replies) {
            Response::Error { kind, message, .. } if kind == error_kind::SERVICE => message,
            other => panic!("expected a service error, got {other:?}"),
        };
        // Every instance acknowledged: the first ack is the reply.
        let relayed = all_or_error(&addrs, vec![(0, ack(1)), (2, ack(2))]);
        assert_eq!(relayed, ack(1).expect("an ack"));
        // Some did not: one error counting the acks and naming each
        // failure by its address.
        let partial = error(vec![(0, refusal()), (1, ack(1)), (2, unreachable())]);
        assert!(partial.starts_with("partial broadcast: 1/3 "), "{partial}");
        assert!(partial.contains("[a:1: no artifact is soaking; c:3: unreachable: "));
        assert!(!partial.contains("b:2"), "{partial}");
        // None did: a uniform refusal, not divergence.
        let refused = error(vec![(0, refusal()), (1, refusal())]);
        assert!(refused.starts_with("broadcast refused by every instance [a:1: "));
        assert_eq!(error(Vec::new()), "no usable instance accepted");
    }

    fn report(epoch: u64, served: u64) -> StatsReport {
        StatsReport {
            served,
            errors: 1,
            overloaded: 2,
            timeouts: 0,
            connections: 3,
            queue_depth: 1,
            workers: 2,
            epoch,
            profiles: 1,
            observations: epoch,
            healthy: 6,
            suspect: 0,
            down: 0,
            health_transitions: 0,
            dropped_connections: 0,
            per_action: [("compare".to_string(), served)].into_iter().collect(),
            uptime_s: 1.0,
        }
    }

    #[test]
    fn merged_stats_add_counters_and_keep_the_newest_cluster_view() {
        let reports = [report(5, 10), report(7, 20), report(6, 30)];
        let merged = reports.into_iter().reduce(merge_stats).expect("some");
        assert_eq!(merged.served, 60);
        assert_eq!(merged.errors, 3);
        assert_eq!(merged.epoch, 7, "cluster view follows the max epoch");
        assert_eq!(merged.per_action["compare"], 60);
        assert_eq!(merged.workers, 6);
    }
}
