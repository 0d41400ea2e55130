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
use cbes_obs::{names, Counter, MetricsSnapshot, Registry};
use cbes_server::net::{self, encode_line, Control, Forward, Handler, NetHandle};
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

/// Probe every instance once: a `Stats` round-trip within the probe
/// timeout, yielding the instance's epoch. Returns one entry per seed.
pub fn probe_instances(membership: &Membership) -> Vec<Option<u64>> {
    let timeout = membership.config().probe_timeout;
    membership
        .addrs()
        .iter()
        .map(|addr| {
            Client::connect_timeout(addr.as_str(), timeout)
                .and_then(|mut c| c.stats())
                .ok()
                .map(|stats| stats.epoch)
        })
        .collect()
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
    let timeout = membership.config().probe_timeout;
    let mut order = membership.usable();
    if let Some(leader) = membership.leader() {
        order.retain(|&i| i != leader);
        order.insert(0, leader);
    }
    if order.is_empty() {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::NotConnected,
            "no usable instance to observe through",
        )));
    }
    let mut last: Option<ClientError> = None;
    for (slot, &i) in order.iter().enumerate() {
        let addr = match membership.addrs().get(i) {
            Some(a) => a.as_str(),
            None => continue,
        };
        let observed = Client::connect_timeout(addr, timeout).and_then(|mut c| {
            if silent.is_empty() {
                c.observe_load(load)
            } else {
                c.observe_partial(load, silent)
            }
        });
        let epoch = match observed {
            Ok(epoch) => epoch,
            Err(e) => {
                last = Some(e);
                continue;
            }
        };
        membership.note_epoch(i, epoch);
        if slot > 0 {
            membership.count_failed_over(i);
        }
        let replications = Registry::global().counter(names::ROUTER_REPLICATIONS);
        for &follower in &order {
            if follower == i {
                continue;
            }
            let addr = match membership.addrs().get(follower) {
                Some(a) => a.as_str(),
                None => continue,
            };
            let pushed = Client::connect_timeout(addr, timeout)
                .and_then(|mut c| c.replicate(epoch, load, silent));
            if let Ok((follower_epoch, _applied)) = pushed {
                membership.note_epoch(follower, follower_epoch.max(epoch));
                membership.count_forwarded(follower);
                replications.incr();
            }
            // A failed push is left to the heartbeat: the instance will
            // age toward Down, and its lag shows in the gauge meanwhile.
        }
        return Ok(epoch);
    }
    Err(last.unwrap_or_else(|| {
        ClientError::Protocol("no instance attempted the observation".to_string())
    }))
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
        // The layer's `server.*` counters stay in a registry of the
        // router's own: in the global one an in-process tier's `Metrics`
        // replies would count the router's connections as a daemon's.
        let membership = Membership::new(config.seeds, config.membership);
        let net = net::start(&limits, &Arc::new(Registry::new()), |control| {
            Ok(Router {
                ring: HashRing::new(membership.len()),
                membership: membership.clone(),
                giveups: Registry::global().counter(names::ROUTER_GIVEUPS),
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
    /// The worker-run verbs: each dials per forward and waits on a peer,
    /// so none runs on the reactor (`may_inline` stays `false`). A frame
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
            Registry::global().spans().span_rooted(
                names::SPAN_ROUTER_FORWARD,
                envelope.trace_id,
                envelope.parent_span,
            )
        });
        let id = envelope.id;
        let response = self.dispatch(envelope.request);
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
            let hop = Registry::global().spans().span_detached(
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

/// Forward `request` to `addr` over a connection dialled for it and
/// relay the raw response (error replies included — the proxy does not
/// rewrite them).
fn forward(addr: &str, timeout: Duration, request: &Request) -> Result<Response, ClientError> {
    let envelope = Client::connect_timeout(addr, timeout)?.request(request.clone())?;
    Ok(envelope.response)
}

impl Router {
    /// Answer one worker-run request per its forwarding mode.
    fn dispatch(&self, request: Request) -> Response {
        let membership = &self.membership;
        let timeout = membership.config().probe_timeout;
        match request.spec().forward {
            ForwardMode::Leader => {
                let observed = match &request {
                    Request::ObserveLoad { load } => observe_tier(membership, load, &[]),
                    Request::ObservePartial { load, silent } => {
                        observe_tier(membership, load, silent)
                    }
                    _ => {
                        let why = "leader mode covers observations";
                        return Response::error(error_kind::BAD_REQUEST, why);
                    }
                };
                match observed {
                    Ok(epoch) => Response::LoadObserved { epoch },
                    Err(e) => Response::error(error_kind::SERVICE, e.to_string()),
                }
            }
            ForwardMode::Merge => {
                let mut stats: Vec<StatsReport> = Vec::new();
                let mut metrics: Option<MetricsSnapshot> = None;
                let mut traces: Vec<SpanSnapshot> = Vec::new();
                let mut lifecycle: Vec<cbes_reconfig::InstanceStatus> = Vec::new();
                let mut answered = false;
                for i in membership.usable() {
                    let addr = match membership.addrs().get(i) {
                        Some(a) => a.as_str(),
                        None => continue,
                    };
                    match forward(addr, timeout, &request) {
                        Ok(Response::Stats { stats: s }) => {
                            membership.count_forwarded(i);
                            stats.push(s);
                        }
                        Ok(Response::Metrics { metrics: m }) => {
                            membership.count_forwarded(i);
                            match metrics.as_mut() {
                                Some(merged) => merged.merge(&m),
                                None => metrics = Some(m),
                            }
                        }
                        Ok(Response::Traces { spans, .. }) => {
                            membership.count_forwarded(i);
                            answered = true;
                            traces.extend(spans);
                        }
                        Ok(Response::ArtifactStatus { status }) => {
                            membership.count_forwarded(i);
                            answered = true;
                            lifecycle.extend(status.instances);
                        }
                        _ => {}
                    }
                }
                if matches!(request, Request::ArtifactStatus) {
                    if !answered {
                        return Response::error(error_kind::SERVICE, "no usable instance answered");
                    }
                    lifecycle.sort_by(|a, b| a.addr.cmp(&b.addr));
                    return Response::ArtifactStatus {
                        status: cbes_reconfig::StatusReport {
                            instances: lifecycle,
                        },
                    };
                }
                if let Request::Trace { trace_id } = request {
                    if !answered {
                        return Response::error(error_kind::SERVICE, "no usable instance answered");
                    }
                    // The router's own forwarding spans are part of the
                    // trace too — without them the tier-wide view has no
                    // root connecting the per-instance fragments.
                    traces.extend(
                        Registry::global()
                            .spans()
                            .of_trace(trace_id)
                            .into_iter()
                            .map(SpanSnapshot::from),
                    );
                    traces.sort_by_key(|a| (a.start_us, a.id));
                    // Instances sharing one process (in-proc tests) also
                    // share the global span ring; drop exact duplicates.
                    traces.dedup();
                    return Response::Traces {
                        trace_id,
                        spans: traces,
                    };
                }
                if let Some(metrics) = metrics {
                    return Response::Metrics { metrics };
                }
                match merge_stats(stats) {
                    Some(stats) => Response::Stats { stats },
                    None => Response::error(error_kind::SERVICE, "no usable instance answered"),
                }
            }
            ForwardMode::Broadcast => {
                if matches!(
                    request,
                    Request::Stage { .. }
                        | Request::Apply
                        | Request::Accept
                        | Request::Rollback { .. }
                ) {
                    return broadcast_artifact(membership, timeout, &request);
                }
                if matches!(request, Request::Shutdown) {
                    // Draining the tier drains the router too. Its own
                    // drain starts first, so a request that finds every
                    // instance already gone is told `shutting_down`.
                    self.net.shutdown();
                }
                let mut ok: Option<Response> = None;
                for i in membership.usable() {
                    let addr = match membership.addrs().get(i) {
                        Some(a) => a.as_str(),
                        None => continue,
                    };
                    if let Ok(response) = forward(addr, timeout, &request) {
                        membership.count_forwarded(i);
                        if !matches!(response, Response::Error { .. }) && ok.is_none() {
                            ok = Some(response);
                        }
                    }
                }
                if matches!(request, Request::Shutdown) {
                    return Response::ShuttingDown;
                }
                if matches!(request, Request::DumpFlight) {
                    // The router is part of the tier: dump its own recorder
                    // alongside the instances'. The first instance reply is
                    // relayed; the router's own dump answers only when no
                    // instance could.
                    let registry = Registry::global();
                    let dumped = registry.flight().dump("on_demand", registry.spans());
                    if let Ok((path, events)) = dumped {
                        registry.counter(names::FLIGHT_DUMPS).incr();
                        if ok.is_none() {
                            ok = Some(Response::FlightDumped {
                                path: path.display().to_string(),
                                events: events as u64,
                            });
                        }
                    }
                }
                ok.unwrap_or_else(|| {
                    Response::error(error_kind::SERVICE, "no usable instance accepted")
                })
            }
            // Hash-routed requests are relayed on the reactor; one that
            // reached a worker is refused like any other stray.
            ForwardMode::Local | ForwardMode::Hash => match request {
                Request::Route { cluster, app } => {
                    let hash = route_key_hash(&cluster, &app);
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
                            Response::error(error_kind::SERVICE, "the tier has no seeded instances")
                        }
                    }
                }
                Request::Membership => Response::Membership {
                    membership: membership.report(),
                },
                _ => Response::error(
                    error_kind::BAD_REQUEST,
                    "local mode covers route/membership",
                ),
            },
        }
    }
}

/// Tier-wide artifact lifecycle verbs are all-or-error broadcasts that
/// never stop early: a refusing or unreachable instance is recorded
/// and the sweep continues, so a failure early in seed order does not
/// strand the instances behind it on the old configuration. When every
/// instance acknowledges, the first ack is relayed; otherwise the
/// reply is one error aggregating every instance's outcome — how many
/// flipped out of how many attempted, plus each failure tagged with
/// its address — so the operator knows the tier is divergent without a
/// separate `ArtifactStatus` call. Instances that acknowledged stay
/// flipped: each journals its state durably, so a retry (or the
/// lifecycle's own `rollback` verb) converges the stragglers.
fn broadcast_artifact(
    membership: &Arc<Membership>,
    timeout: Duration,
    request: &Request,
) -> Response {
    let mut ack: Option<Response> = None;
    let mut flipped = 0usize;
    let mut attempted = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for i in membership.usable() {
        let addr = match membership.addrs().get(i) {
            Some(a) => a.as_str(),
            None => continue,
        };
        attempted += 1;
        match forward(addr, timeout, request) {
            Ok(Response::Error { message, .. }) => {
                failures.push(format!("{addr}: {message}"));
            }
            Ok(response) => {
                membership.count_forwarded(i);
                flipped += 1;
                if ack.is_none() {
                    ack = Some(response);
                }
            }
            Err(e) => {
                failures.push(format!("{addr}: unreachable: {e}"));
            }
        }
    }
    match ack {
        Some(response) if failures.is_empty() => response,
        None if attempted == 0 => {
            Response::error(error_kind::SERVICE, "no usable instance accepted")
        }
        // Nothing flipped: a uniform refusal, not divergence.
        None => Response::error(
            error_kind::SERVICE,
            format!(
                "broadcast refused by every instance [{}]",
                failures.join("; ")
            ),
        ),
        Some(_) => Response::error(
            error_kind::SERVICE,
            format!(
                "partial broadcast: {flipped}/{attempted} instances acknowledged, \
                 the tier is divergent — retry to converge or roll back [{}]",
                failures.join("; ")
            ),
        ),
    }
}

/// Merge per-instance stats into one tier-wide report: per-instance
/// counters add; cluster-level fields (epoch, node health, profiles)
/// take the most-advanced instance's view, since every instance
/// describes the same cluster.
fn merge_stats(reports: Vec<StatsReport>) -> Option<StatsReport> {
    let mut iter = reports.into_iter();
    let mut merged = iter.next()?;
    for r in iter {
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
    }
    Some(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let merged = merge_stats(vec![report(5, 10), report(7, 20), report(6, 30)])
            .expect("three reports merge");
        assert_eq!(merged.served, 60);
        assert_eq!(merged.errors, 3);
        assert_eq!(merged.epoch, 7, "cluster view follows the max epoch");
        assert_eq!(merged.per_action["compare"], 60);
        assert_eq!(merged.workers, 6);
    }

    #[test]
    fn merging_nothing_is_none() {
        assert!(merge_stats(Vec::new()).is_none());
    }
}
