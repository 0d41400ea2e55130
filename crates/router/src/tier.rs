//! The tier runtime: a proxy daemon speaking the ordinary CBES wire
//! protocol, as a handler on the daemon's I/O layer. It reaches its
//! instances only through that layer's core: hash-routed evaluations are
//! relayed, every other forwarded action is a scatter the core writes
//! once to each target and gathers for a fold here, and the heartbeat
//! is a scatter of `Stats` probes the core sends on its own clock. The
//! router opens no socket and runs no thread of its own.
//!
//! Replication is leader-push: monitoring sweeps go to the leader
//! (lowest usable instance), which assigns the epoch; the router then
//! pushes the same sweep to every other usable instance as
//! `Replicate { epoch, .. }` before it answers. Followers adopt an
//! epoch at most once, so the push is idempotent, and the staleness
//! between leader and followers is bounded by the sweeps in flight —
//! the heartbeat publishes the measured bound as the
//! `router.replication_lag_epochs` gauge.

use std::net::SocketAddr;
use std::sync::Arc;

use crate::membership::{Membership, MembershipConfig};
use crate::ring::HashRing;
use cbes_cluster::load::LoadState;
use cbes_core::health::NodeHealth;
use cbes_obs::{names, next_span_id, Counter};
use cbes_server::client::decode_reply;
use cbes_server::net::{
    self, encode_line, Control, Core, Forward, Gathered, Handler, NetHandle, NetMetrics, Next,
    Route, Scatter, Stages, Upstreams, Wake,
};
use cbes_server::protocol::{
    decode_request, encode, error_kind, route_key_hash, split_id, ActionSpec, ForwardMode, Request,
    RequestEnvelope, Response, ResponseEnvelope, SpanSnapshot, StatsReport,
};
use cbes_server::{ClientError, ServerConfig};

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

/// What a scatter came back with: each target's seed index and its
/// reply, an error reply being a [`ClientError::Server`] and a target
/// that gave none a [`ClientError::Io`] naming the miss.
type Replies = Vec<(usize, Result<Response, ClientError>)>;

/// The routing proxy daemon: the [`cbes_server::net`] I/O layer's second
/// handler. It heartbeats its seeds and answers the CBES wire protocol
/// by forwarding each action per its [`ActionSpec::forward`], with the daemon's
/// own front-door bounds (frame cap, strike budget, bounded admission,
/// per-request deadline, graceful drain) at their
/// [`ServerConfig::default`] values.
pub struct RouterServer;

impl RouterServer {
    /// Bind `config.addr` and serve until shut down; the first
    /// heartbeat goes out at once.
    pub fn start(config: TierConfig) -> std::io::Result<RouterTierHandle> {
        let limits = ServerConfig {
            addr: config.addr,
            ..ServerConfig::default()
        };
        // One registry per router, held by its membership table: the
        // layer's `server.*` counters live there beside `router.*`.
        let membership = Membership::new(config.seeds, config.membership, Arc::default());
        let net = net::start(&limits, |addr, wake| {
            RouterServer::assemble(&membership, addr, wake)
        })?;
        Ok(RouterTierHandle { net, membership })
    }

    /// The router over `membership` and the core that serves it, built
    /// for a driver to run (no socket is bound): `addr` is what it
    /// reports as its own, `wake` what a shutdown calls. The core's
    /// upstreams are the seeds, and its clock is the registry's.
    pub fn assemble(
        membership: &Arc<Membership>,
        addr: SocketAddr,
        wake: Wake,
    ) -> std::io::Result<(Arc<Control>, Core<impl Handler>)> {
        let metrics = NetMetrics::new(membership.obs());
        let obs = membership.obs();
        net::assemble(&ServerConfig::default(), addr, metrics, wake, |control| {
            Ok(Router {
                ring: HashRing::new(membership.len()),
                giveups: obs.counter(names::ROUTER_GIVEUPS),
                replications: obs.counter(names::ROUTER_REPLICATIONS),
                membership: membership.clone(),
                net: control.clone(),
            })
        })
    }
}

/// Running-router handle: address, membership, shutdown trigger.
/// Dropping it un-joined stops the threads without waiting.
pub struct RouterTierHandle {
    net: NetHandle,
    membership: Arc<Membership>,
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
    /// Followers that acknowledged a `Replicate` push.
    replications: Arc<Counter>,
    net: Arc<Control>,
}

/// What a scatter's fold makes of its replies: one variant per way a
/// forwarding mode answers.
enum Fold {
    /// The heartbeat's `Stats` probes, one per seed.
    Probes,
    /// `merge` rows.
    Stats,
    Metrics,
    Trace(u64),
    ArtifactStatus,
    /// `broadcast` rows every instance must hold alike.
    AllOrError,
    /// `replicate`: the first ack.
    FirstAck,
    Shutdown,
    DumpFlight,
    /// `leader`, first phase: the sweep, offered to one instance.
    Observe(Box<Sweep>),
    /// `leader`, second phase: the epoch the leader assigned, pushed to
    /// the followers.
    Push(u64),
}

/// A monitoring sweep on its way through the tier.
struct Sweep {
    /// The sweep as its client framed it, after the id.
    tail: String,
    load: LoadState,
    silent: Vec<u32>,
    /// The trace id and this hop's span, for the push.
    trace: (u64, u64),
    /// The usable instances, the leader first.
    order: Vec<usize>,
    /// Which of them has it: the first to take it assigns its epoch.
    slot: usize,
}

impl Handler for Router {
    type Gather = Fold;

    /// Only `local` rows reach a worker: each is answered from the
    /// router's own state. A frame that does not decode is refused here
    /// too, unattributable (id 0) and as a strike against its
    /// connection.
    fn execute(&self, line: &str, stages: &mut Stages) -> (Vec<u8>, bool) {
        let envelope = match decode_request(line) {
            Ok(envelope) => envelope,
            Err(e) => {
                let response = Response::error(error_kind::BAD_REQUEST, e.to_string());
                return (encode_line(&ResponseEnvelope { id: 0, response }), true);
            }
        };
        let (trace, caller) = (envelope.trace_id, envelope.parent_span);
        let _span = (trace != 0).then(|| {
            let span = (self.membership.obs().spans()).span_rooted(
                names::SPAN_ROUTER_FORWARD,
                trace,
                caller,
            );
            stages.join(trace, span.id(), caller);
            span
        });
        let membership = &self.membership;
        let response = match &envelope.request {
            Request::Route { cluster, app } => {
                let hash = route_key_hash(cluster, app);
                let candidates = self.ring.candidates(hash, membership.config().replicas + 1);
                let report = membership.report();
                let mut infos = candidates
                    .iter()
                    .filter_map(|&i| report.instances.get(i).cloned());
                match infos.next() {
                    Some(primary) => Response::Routed {
                        hash,
                        primary,
                        replicas: infos.collect(),
                    },
                    None => {
                        let why = "the tier has no seeded instances";
                        Response::error(error_kind::SERVICE, why)
                    }
                }
            }
            Request::Membership => Response::Membership {
                membership: membership.report(),
            },
            // `forward` sends every other row on the reactor; one that
            // reached a worker is a stray, refused like any other.
            _ => {
                let why = "forwarded requests are not executed";
                Response::error(error_kind::BAD_REQUEST, why)
            }
        };
        let id = envelope.id;
        (encode_line(&ResponseEnvelope { id, response }), false)
    }

    fn upstreams(&self) -> Upstreams {
        let config = self.membership.config();
        Upstreams {
            addrs: self.membership.addrs().to_vec(),
            attempt_timeout: config.probe_timeout,
            heartbeat: Some(config.heartbeat),
        }
    }

    /// Every row but the `local` ones leaves on the reactor, planned by
    /// one `match` over the decoded request with no wildcard: a new
    /// action without an arm does not compile. Each arm names the mode
    /// it implements, and a debug build holds that to the action
    /// table's `forward` column. The frame is validated here — one that
    /// does not decode is left to `execute` to refuse, never forwarded,
    /// so no peer can spend a backend link's strike budget — and goes
    /// out as the bytes it came in, minus its id and, when traced, with
    /// this hop's span as its parent: an id minted here, which the core
    /// writes the span under from the frame's stamps once it is
    /// answered. Only a frame not in the canonical spelling is
    /// re-encoded.
    fn forward(&self, line: &str, stages: &mut Stages) -> Option<Forward<Fold>> {
        let canonical = split_id(line).map(|(_, tail)| tail);
        // What is visibly answered locally is not parsed twice.
        let tag = canonical.and_then(|tail| tail.strip_prefix(",\"request\":"));
        let tag = tag.and_then(|rest| rest.strip_prefix('"').or(rest.strip_prefix("{\"")));
        let tag = tag.and_then(|rest| rest.split('"').next());
        let mode = tag.and_then(|tag| Some(ActionSpec::by_tag(tag)?.forward));
        if mode == Some(ForwardMode::Local) {
            return None;
        }
        let mut envelope = decode_request(line).ok()?;
        let membership = &self.membership;
        let (trace, caller) = (envelope.trace_id, envelope.parent_span);
        let hop = (trace != 0).then(next_span_id);
        envelope.parent_span = hop.unwrap_or(caller);
        // How the encoder ends a traced frame, under a given parent.
        let traced = |parent| format!(",\"trace_id\":{trace},\"parent_span\":{parent}}}");
        let tail = match (canonical, hop) {
            (Some(tail), None) => Some(tail.to_string()),
            // Spelled the encoder's way: only the parent is rewritten.
            (Some(tail), Some(hop)) => tail
                .strip_suffix(traced(caller).as_str())
                .map(|body| body.to_string() + &traced(hop)),
            (None, _) => None,
        };
        let tail = match tail {
            Some(tail) => tail,
            None => split_id(&encode(&envelope))?.1.to_string(),
        };
        let spec = envelope.request.spec();
        let implements = |mode: ForwardMode| debug_assert_eq!(spec.forward, mode, "{}", spec.name);
        // `Merge` and `Broadcast` both go to every usable instance; they
        // differ in what the fold makes of the replies.
        let everyone = |mode: ForwardMode, fold| {
            implements(mode);
            (membership.usable(), fold)
        };
        let trace = (envelope.trace_id, envelope.parent_span);
        let observe = |load, silent| {
            implements(ForwardMode::Leader);
            let (mut order, leader) = (membership.usable(), membership.leader());
            order.sort_by_key(|&i| Some(i) != leader);
            let first = order.iter().copied().take(1).collect();
            let sweep = Sweep {
                tail: tail.clone(),
                load,
                silent,
                trace,
                order,
                slot: 0,
            };
            (first, Fold::Observe(Box::new(sweep)))
        };
        use ForwardMode::{Broadcast, Hash, Local, Merge};
        // A local row that reaches here is joined again by `execute`.
        stages.join(envelope.trace_id, envelope.parent_span, caller);
        let id = envelope.id;
        let (targets, state) = match envelope.request {
            Request::Compare { app, .. }
            | Request::BestOf { app, .. }
            | Request::Schedule { app, .. }
            | Request::Batch { app, .. } => {
                implements(Hash);
                let hash = route_key_hash(&membership.config().cluster, &app);
                let mut candidates = self.ring.candidates(hash, membership.config().replicas + 1);
                let primary = candidates.first().copied().unwrap_or(usize::MAX);
                candidates.retain(|&i| membership.health(i) != NodeHealth::Down);
                let route = Route::Relay {
                    tail,
                    candidates,
                    primary,
                };
                return Some(Forward { id, route });
            }
            Request::ObserveLoad { load } => observe(load, Vec::new()),
            Request::ObservePartial { load, silent } => observe(load, silent),
            Request::Stats => everyone(Merge, Fold::Stats),
            Request::Metrics => everyone(Merge, Fold::Metrics),
            Request::Trace { trace_id } => everyone(Merge, Fold::Trace(trace_id)),
            Request::ArtifactStatus => everyone(Merge, Fold::ArtifactStatus),
            // What every instance must hold alike is all-or-error: a
            // profile one instance missed makes every key it owns answer
            // `unknown app`, which no failover repairs.
            Request::RegisterProfile { .. }
            | Request::Stage { .. }
            | Request::Apply
            | Request::Accept
            | Request::Rollback { .. } => everyone(Broadcast, Fold::AllOrError),
            Request::Replicate { .. } => everyone(Broadcast, Fold::FirstAck),
            Request::Shutdown => {
                // Draining the tier drains the router too. Its own drain
                // starts first, so a request that finds every instance
                // already gone is told `shutting_down`; the drain lets
                // this scatter out, as it does every forward before it.
                self.net.shutdown();
                everyone(Broadcast, Fold::Shutdown)
            }
            Request::DumpFlight => everyone(Broadcast, Fold::DumpFlight),
            Request::Route { .. } | Request::Membership => {
                implements(Local);
                return None;
            }
        };
        let route = Route::Scatter(Scatter {
            tail,
            targets,
            state,
        });
        Some(Forward { id, route })
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

    /// A `Stats` probe to every seed, answered or not.
    fn probe(&self) -> Option<Scatter<Fold>> {
        let line = encode(&RequestEnvelope::new(0, Request::Stats));
        Some(Scatter {
            tail: split_id(&line)?.1.to_string(),
            targets: (0..self.membership.len()).collect(),
            state: Fold::Probes,
        })
    }

    /// Each fold, on a worker. One rule counts `forwarded`: an instance
    /// that answered a request of the tier's (not a heartbeat probe)
    /// with a non-error reply.
    fn gathered(&self, fold: Fold, gathered: Vec<Gathered>) -> Next<Fold> {
        let membership = &self.membership;
        let replies: Replies = gathered
            .into_iter()
            .map(|(i, reply)| match reply {
                Ok(line) => (i, decode_reply(&line)),
                Err(miss) => (i, Err(std::io::Error::other(miss.to_string()).into())),
            })
            .collect();
        if !matches!(fold, Fold::Probes) {
            let served = replies.iter().filter(|(_, reply)| reply.is_ok());
            served.for_each(|(i, _)| membership.count_forwarded(*i));
        }
        let unanswered = || Response::error(error_kind::SERVICE, "no usable instance answered");
        Next::Reply(match fold {
            Fold::Probes => {
                let epoch = |reply| match reply {
                    Ok(Response::Stats { stats }) => Some(stats.epoch),
                    _ => None,
                };
                let probes: Vec<_> = replies.into_iter().map(|(_, r)| epoch(r)).collect();
                membership.record_probes(&probes);
                // Any flight trigger's dump, the reactor's shed spike
                // included, is written here, off the reactor.
                membership.obs().dump_deferred();
                // No client asks for the heartbeat's answer.
                Response::ShuttingDown
            }
            Fold::Observe(sweep) => return self.observed(*sweep, replies),
            Fold::Push(epoch) => {
                for (follower, reply) in replies {
                    // A failed push is left to the heartbeat: the instance
                    // will age toward Down, and its lag shows in the gauge
                    // meanwhile.
                    if let Ok(Response::Replicated { epoch: theirs, .. }) = reply {
                        membership.note_epoch(follower, theirs.max(epoch));
                        self.replications.incr();
                    }
                }
                Response::LoadObserved { epoch }
            }
            Fold::Stats => {
                let stats = parts(replies, |reply| match reply {
                    Response::Stats { stats } => Some(stats),
                    _ => None,
                });
                let merged = stats.reduce(merge_stats);
                merged.map_or_else(unanswered, |stats| Response::Stats { stats })
            }
            Fold::Metrics => {
                let metrics = parts(replies, |reply| match reply {
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
            Fold::Trace(trace_id) => {
                let mut fragments = parts(replies, |reply| match reply {
                    Response::Traces { spans, .. } => Some(spans),
                    _ => None,
                })
                .peekable();
                if fragments.peek().is_none() {
                    return Next::Reply(unanswered());
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
            Fold::ArtifactStatus => {
                let mut rows = parts(replies, |reply| match reply {
                    Response::ArtifactStatus { status } => Some(status.instances),
                    _ => None,
                })
                .peekable();
                if rows.peek().is_none() {
                    return Next::Reply(unanswered());
                }
                let mut instances: Vec<_> = rows.flatten().collect();
                instances.sort_by(|a, b| a.addr.cmp(&b.addr));
                let status = cbes_reconfig::StatusReport { instances };
                Response::ArtifactStatus { status }
            }
            Fold::AllOrError => all_or_error(membership.addrs(), replies),
            Fold::FirstAck => {
                let first = replies.into_iter().find_map(|(_, reply)| reply.ok());
                first.unwrap_or_else(unanswered)
            }
            Fold::Shutdown => Response::ShuttingDown,
            Fold::DumpFlight => {
                // The router is part of the tier: it dumps its own
                // recorder alongside the instances'. The reply names every
                // file, the router's first, and counts every event.
                let registry = membership.obs();
                let own = registry.flight().dump("on_demand", registry.spans());
                let own = own
                    .ok()
                    .map(|(path, events)| (path.display().to_string(), events as u64));
                let theirs = parts(replies, |reply| match reply {
                    Response::FlightDumped { path, events } => Some((path, events)),
                    _ => None,
                });
                let (paths, counts): (Vec<String>, Vec<u64>) =
                    own.into_iter().chain(theirs).unzip();
                if paths.is_empty() {
                    return Next::Reply(unanswered());
                }
                Response::FlightDumped {
                    path: paths.join(", "),
                    events: counts.iter().sum(),
                }
            }
        })
    }
}

impl Router {
    /// `leader`, first phase folded: the instance that took the sweep
    /// assigned its epoch, which every other usable instance is then
    /// pushed as a `Replicate`. One that did not take it passes the
    /// sweep to the next usable instance, whose replicated epoch keeps
    /// the line monotone.
    fn observed(&self, mut sweep: Sweep, replies: Replies) -> Next<Fold> {
        let membership = &self.membership;
        let failure = match replies.into_iter().next() {
            Some((i, Ok(Response::LoadObserved { epoch }))) => {
                membership.note_epoch(i, epoch);
                if sweep.slot > 0 {
                    membership.count_failed_over(i);
                }
                let followers: Vec<usize> = sweep.order.into_iter().filter(|&f| f != i).collect();
                if followers.is_empty() {
                    return Next::Reply(Response::LoadObserved { epoch });
                }
                let (load, silent) = (sweep.load, sweep.silent);
                let push = Request::Replicate {
                    epoch,
                    load,
                    silent,
                };
                let (trace_id, parent) = sweep.trace;
                let line = encode(&RequestEnvelope::traced(0, push, trace_id, parent));
                let tail = split_id(&line).map_or_else(String::new, |(_, tail)| tail.to_string());
                return Next::Scatter(Scatter {
                    tail,
                    targets: followers,
                    state: Fold::Push(epoch),
                });
            }
            Some((_, Err(e))) => e,
            Some((_, Ok(other))) => {
                ClientError::Protocol(format!("expected LoadObserved reply, got {other:?}"))
            }
            None => ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no usable instance to observe through",
            )),
        };
        sweep.slot += 1;
        match sweep.order.get(sweep.slot).copied() {
            Some(next) => Next::Scatter(Scatter {
                tail: sweep.tail.clone(),
                targets: vec![next],
                state: Fold::Observe(Box::new(sweep)),
            }),
            None => Next::Reply(Response::error(error_kind::SERVICE, failure.to_string())),
        }
    }
}

/// What each instance that answered a scatter contributes to a merged
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
        let unreachable = || Err(std::io::Error::other("the link closed").into());
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
