//! The daemon: the [`crate::net`] I/O layer's first handler. The layer
//! owns sockets, framing, admission, deadlines and the drain; this
//! module is what a frame *means* — parse, rate-gate, execute against
//! the [`CbesService`], encode — plus the daemon's once-per-second
//! anomaly sweep (flight triggers, artifact soak monitor).
//!
//! Shutdown: a `Shutdown` request (or [`ServerHandle::shutdown`]) asks
//! the layer to drain; every admitted request is answered first.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cbes_cluster::NodeId;
use cbes_core::CbesService;
use cbes_obs::{names, Counter, Histogram, MetricsSnapshot, Registry};
use cbes_sched::{SaConfig, SaScheduler, ScheduleRequest, Scheduler};
use parking_lot::Mutex;

use crate::net::{self, encode_line, env_u64, Control, Handler, NetHandle, NetMetrics};
use crate::protocol::{
    decode_request, error_kind, route_key_hash, InstanceInfo, MembershipReport, Request,
    RequestEnvelope, Response, ResponseEnvelope, SpanSnapshot, StatsReport, ACTIONS,
};
use crate::reconfig::{not_reconfigurable, unreconfigurable_status, ReconfigRuntime};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads (= queue shards) executing admitted requests.
    pub workers: usize,
    /// Total admission queue capacity, split evenly across the worker
    /// shards; beyond it requests get `overloaded`.
    pub queue_capacity: usize,
    /// Per-request deadline from admission to reply.
    pub request_timeout: Duration,
    /// Longest request line accepted, in bytes. Longer frames are
    /// answered with a `frame_too_large` error and discarded up to the
    /// next newline, bounding per-connection memory.
    pub max_line_bytes: usize,
    /// Consecutive malformed frames (unparseable or oversized) tolerated
    /// on one connection before the server drops it.
    pub max_consecutive_errors: u32,
    /// Back-off hint attached to load-shedding (`overloaded` /
    /// `shutting_down`) replies as `retry_after_ms`.
    pub shed_retry_after: Duration,
    /// Evaluation admission cap in requests per second (token bucket;
    /// `0.0` disables the cap). Only evaluation actions
    /// ([`eval`](crate::protocol::ActionSpec::eval)) consume tokens —
    /// control-plane traffic (stats heartbeats, membership, replication,
    /// shutdown) is always admitted, so a saturated instance still
    /// answers its tier. Capped requests beyond the budget are shed with
    /// `overloaded` and a `retry_after_ms` hint equal to the time until
    /// the next token.
    pub max_rps: f64,
    /// Durable state directory for the artifact store (`None` disables
    /// the artifact lifecycle). On start the journal under it is
    /// replayed and the recovered serving artifact re-activated before
    /// the first request is answered.
    pub state_dir: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 1024,
            request_timeout: Duration::from_secs(10),
            max_line_bytes: 64 * 1024,
            max_consecutive_errors: 8,
            shed_retry_after: Duration::from_millis(25),
            max_rps: 0.0,
            state_dir: None,
        }
    }
}

/// A token bucket bounding admitted evaluation requests per second —
/// the per-instance share of a node's CPU budget when several CBES
/// instances (or co-tenant workloads) share a machine. Refills
/// continuously at `rate` tokens/s up to a burst of a quarter-second's
/// worth (at least one token).
///
/// The rate is runtime-adjustable (stored as `f64` bits in an atomic,
/// `0` = unlimited) so a `serving_limits` artifact can retune
/// admission on a live daemon without restarting the worker pool; the
/// limiter is always present and a zero rate short-circuits to an
/// uncontended load.
#[derive(Debug)]
pub(crate) struct RateLimiter {
    /// `f64::to_bits` of the rate in tokens/s; `0.0` disables the cap.
    rate_bits: AtomicU64,
    /// Minimum `retry_after_ms` hint attached to rate-cap sheds.
    hint_ms: AtomicU64,
    state: Mutex<BucketState>,
}

#[derive(Debug)]
struct BucketState {
    tokens: f64,
    refilled: Instant,
}

impl RateLimiter {
    pub(crate) fn new(rate_per_s: f64) -> Self {
        let rate = rate_per_s.max(0.0);
        RateLimiter {
            rate_bits: AtomicU64::new(rate.to_bits()),
            hint_ms: AtomicU64::new(0),
            state: Mutex::new(BucketState {
                tokens: Self::burst_of(rate),
                refilled: Instant::now(),
            }),
        }
    }

    fn burst_of(rate: f64) -> f64 {
        (rate * 0.25).max(1.0)
    }

    /// Retune the cap at runtime (a `serving_limits` activation or
    /// rollback). Resets the bucket to a full burst at the new rate so
    /// the flip itself never sheds.
    pub(crate) fn set_limits(&self, rate_per_s: f64, hint_ms: u64) {
        let rate = rate_per_s.max(0.0);
        self.rate_bits.store(rate.to_bits(), Ordering::Release);
        self.hint_ms.store(hint_ms, Ordering::Release);
        let mut s = self.state.lock();
        s.tokens = Self::burst_of(rate);
        s.refilled = Instant::now();
    }

    /// The configured shed back-off hint floor, in milliseconds.
    fn hint_ms(&self) -> u64 {
        self.hint_ms.load(Ordering::Acquire)
    }

    /// The currently configured admission cap, requests/second
    /// (`0` = uncapped). Test-only: asserts overlay symmetry.
    #[cfg(test)]
    pub(crate) fn rate_per_s(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Acquire))
    }

    /// Take one token, or report how long until one is available.
    /// Unlimited (zero-rate) limiters admit without touching the lock.
    pub(crate) fn try_acquire(&self) -> Result<(), Duration> {
        let rate = f64::from_bits(self.rate_bits.load(Ordering::Acquire));
        if rate <= 0.0 {
            return Ok(());
        }
        let rate = rate.max(0.001);
        let burst = Self::burst_of(rate);
        let mut s = self.state.lock();
        let now = Instant::now();
        let dt = now.duration_since(s.refilled).as_secs_f64();
        s.tokens = (s.tokens + dt * rate).min(burst);
        s.refilled = now;
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - s.tokens) / rate))
        }
    }
}

/// The daemon's instruments: a private [`Registry`] per server instance
/// (so several servers in one process never mix counts) with the
/// hot-path handles cached as `Arc`s — workers update them wait-free,
/// without touching the registry lock. The I/O layer's counters live in
/// the same registry; `net` is this module's handle to them.
struct ServerMetrics {
    registry: Arc<Registry>,
    net: Arc<NetMetrics>,
    served: Arc<Counter>,
    /// Admitted-rate cap sheds (a subset of `overloaded`).
    rate_limited: Arc<Counter>,
    /// Candidate mappings evaluated through `Batch` requests.
    batch_candidates: Arc<Counter>,
    /// Microseconds a worker spent computing the reply.
    service_time: Arc<Histogram>,
    /// Served-request counters, one per row of [`ACTIONS`], in order.
    by_action: Vec<Arc<Counter>>,
    /// Second stamp of the last once-per-second anomaly sweep
    /// ([`Daemon::flight_checks`]); 0 = never swept.
    last_flight_check: AtomicU64,
    /// Node health-transition count at the last anomaly sweep.
    last_health_transitions: AtomicU64,
    start: Instant,
}

impl ServerMetrics {
    fn new() -> Self {
        let registry = Arc::new(Registry::new());
        ServerMetrics {
            net: NetMetrics::new(&registry),
            served: registry.counter(names::SERVER_SERVED),
            rate_limited: registry.counter(names::SERVER_RATE_LIMITED),
            batch_candidates: registry.counter(names::SERVER_BATCH_CANDIDATES),
            service_time: registry.histogram(names::SERVER_SERVICE_TIME_US),
            by_action: ACTIONS
                .iter()
                .map(|spec| registry.counter(spec.counter))
                .collect(),
            last_flight_check: AtomicU64::new(0),
            last_health_transitions: AtomicU64::new(0),
            start: Instant::now(),
            registry,
        }
    }

    fn per_action(&self) -> BTreeMap<String, u64> {
        ACTIONS
            .iter()
            .zip(&self.by_action)
            .map(|(spec, c)| (spec.name.to_string(), c.get()))
            .collect()
    }

    /// This server's instruments merged with the process-wide registry
    /// (the library crates — core, netmodel — record there).
    fn snapshot(&self, queue_depth: usize) -> MetricsSnapshot {
        self.registry
            .gauge(names::SERVER_QUEUE_DEPTH)
            .set(queue_depth as f64);
        let mut snap = self.registry.snapshot();
        snap.merge(&Registry::global().snapshot());
        snap
    }
}

/// The CBES daemon. Construct with [`Server::start`]; the returned
/// [`ServerHandle`] owns the threads.
pub struct Server;

impl Server {
    /// Bind `config.addr` and serve `service` until shut down.
    pub fn start(service: Arc<CbesService>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let metrics = ServerMetrics::new();
        let registry = metrics.registry.clone();
        let (served, errors) = (metrics.served.clone(), metrics.net.errors.clone());
        let net = net::start(&config, metrics.net.clone(), |control| {
            let rate = Arc::new(RateLimiter::new(config.max_rps));
            let reconfig = match config.state_dir.clone() {
                Some(dir) => Some(
                    ReconfigRuntime::open(
                        dir,
                        service.clone(),
                        rate.clone(),
                        config.max_rps,
                        &registry,
                    )
                    .map_err(|e| std::io::Error::other(format!("artifact store: {e}")))?,
                ),
                None => None,
            };
            Ok(Daemon {
                service,
                metrics,
                rate,
                reconfig,
                net: control.clone(),
            })
        })?;
        Ok(ServerHandle {
            net,
            served,
            errors,
        })
    }
}

/// Running-server handle: address, shutdown trigger, thread ownership.
/// Dropping it un-joined stops the threads without waiting.
pub struct ServerHandle {
    net: NetHandle,
    served: Arc<Counter>,
    errors: Arc<Counter>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.net.control().addr()
    }

    /// True once shutdown has been triggered (by request or locally).
    pub fn is_shutting_down(&self) -> bool {
        self.net.control().is_shutting_down()
    }

    /// Trigger shutdown without waiting for the drain.
    pub fn shutdown(&self) {
        self.net.control().shutdown();
    }

    /// Wait until the server has fully drained and every thread exited.
    /// Returns the final counter values.
    pub fn join(mut self) -> (u64, u64) {
        self.net.join();
        (self.served.get(), self.errors.get())
    }

    /// Trigger shutdown and wait for the drain.
    pub fn shutdown_and_join(self) -> (u64, u64) {
        self.shutdown();
        self.join()
    }
}

/// Sheds tolerated since an artifact apply before the soak monitor
/// rolls it back. `CBES_SOAK_SHED_BUDGET` overrides; 0 disables the
/// monitor.
fn soak_shed_budget() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    env_u64(&CACHE, "CBES_SOAK_SHED_BUDGET", 25)
}

/// The soak monitor: while an artifact is soaking, compare the sheds
/// since its apply against the soak budget and auto-roll-back on
/// regression, dumping the flight recorder tagged with the artifact
/// version. Runs inside the once-per-second [`Daemon::flight_checks`] sweep.
fn soak_check(runtime: &ReconfigRuntime, metrics: &ServerMetrics) {
    let Some(soak) = runtime.soak_state() else {
        return;
    };
    let shed_budget = soak_shed_budget();
    let sheds = metrics.net.overloaded.get();
    let shed = sheds.saturating_sub(soak.sheds_at_apply);
    if shed_budget == 0 || shed < shed_budget {
        return;
    }
    let reason = format!("{shed} requests shed since apply (budget {shed_budget})");
    // The rollback journals, reinstates the previous configuration, and
    // clears the soak; a concurrent operator verb simply wins the race
    // (the store serialises, the loser's reply is a lifecycle error).
    let _ = runtime.handle_rollback(&reason, true);
    let detail = format!("artifact v{} rolled back: {reason}", soak.version);
    metrics.registry.anomaly("soak_regression", Some(detail));
}

/// Rate-gate one decoded request line. `Err` carries the finished
/// reply plus whether it counts as a malformed-frame strike (boxed:
/// the happy path should not pay for the error reply's size).
fn precheck(
    decoded: Result<RequestEnvelope, serde_json::Error>,
    rate: &RateLimiter,
    metrics: &ServerMetrics,
) -> Result<RequestEnvelope, Box<(ResponseEnvelope, bool)>> {
    let envelope = match decoded {
        Ok(env) => env,
        Err(e) => {
            metrics.net.errors.incr();
            return Err(Box::new((
                ResponseEnvelope {
                    id: 0,
                    response: Response::error(error_kind::BAD_REQUEST, e.to_string()),
                },
                true,
            )));
        }
    };
    if envelope.request.spec().eval {
        if let Err(wait) = rate.try_acquire() {
            metrics.rate_limited.incr();
            metrics.net.shed_overloaded();
            return Err(Box::new((
                ResponseEnvelope {
                    id: envelope.id,
                    response: Response::shed(
                        error_kind::OVERLOADED,
                        "evaluation rate cap exceeded",
                        (wait.as_millis() as u64).max(1).max(rate.hint_ms()),
                    ),
                },
                false,
            )));
        }
    }
    Ok(envelope)
}

/// The per-node `reported` flags of a sweep that heard nothing from the
/// `silent` nodes of an `n`-node cluster.
fn reported_mask(n: usize, silent: &[u32]) -> Result<Vec<bool>, cbes_core::ServiceError> {
    let mut reported = vec![true; n];
    for &node in silent {
        match reported.get_mut(node as usize) {
            Some(flag) => *flag = false,
            None => return Err(cbes_core::ServiceError::BadNode(node)),
        }
    }
    Ok(reported)
}

/// The daemon as a [`Handler`]: everything one request needs, shared by
/// the workers and (for inline-eligible frames) the reactor.
struct Daemon {
    service: Arc<CbesService>,
    metrics: ServerMetrics,
    rate: Arc<RateLimiter>,
    reconfig: Option<ReconfigRuntime>,
    net: Arc<Control>,
}

impl Handler for Daemon {
    /// Only a frame whose row of the action table is marked
    /// [`inline`](crate::protocol::ActionSpec::inline) runs on the
    /// reactor, and the row is read off the envelope that then runs: no
    /// frame the decoder accepts can be taken for another action's. One
    /// that does not decode is refused on the spot.
    fn inline(&self, line: &str) -> Option<(Vec<u8>, bool)> {
        match decode_request(line) {
            Ok(envelope) if !envelope.request.spec().inline => None,
            decoded => Some(self.serve(decoded)),
        }
    }

    fn execute(&self, line: &str) -> (Vec<u8>, bool) {
        self.serve(decode_request(line))
    }
}

impl Daemon {
    /// Rate-gate, execute, and instrument one decoded frame.
    fn serve(&self, decoded: Result<RequestEnvelope, serde_json::Error>) -> (Vec<u8>, bool) {
        let metrics = &self.metrics;
        let envelope = match precheck(decoded, &self.rate, metrics) {
            Ok(env) => env,
            Err(reply) => return (encode_line(&reply.0), reply.1),
        };
        let id = envelope.id;
        let spec = envelope.request.spec();
        let picked_up = Instant::now();
        let response = {
            // A traced envelope joins the caller's trace: this request span
            // (and every child span it opens — core evaluation, scheduler)
            // carries the remote trace id and links to the remote parent.
            let _span = if envelope.trace_id != 0 {
                metrics.registry.spans().span_rooted(
                    spec.name,
                    envelope.trace_id,
                    envelope.parent_span,
                )
            } else {
                metrics.registry.span(spec.name)
            };
            self.handle_request(envelope.request)
        };
        metrics.service_time.record_duration(picked_up.elapsed());
        if let Some(counter) = metrics.by_action.get(spec.action as usize) {
            counter.incr();
        }
        if matches!(response, Response::Error { .. }) {
            metrics.net.errors.incr();
        }
        metrics.served.incr();
        self.flight_checks();
        (encode_line(&ResponseEnvelope { id, response }), false)
    }

    /// Once-per-second anomaly sweep run by whichever request first
    /// crosses a second boundary: a node health-state transition trips a
    /// (debounced) flight dump, and a soaking artifact is checked against
    /// its shed budget. Every other request of the second pays one atomic
    /// swap and returns.
    fn flight_checks(&self) {
        let metrics = &self.metrics;
        // +1 keeps the stamp nonzero so "never swept" stays distinguishable.
        let now = metrics.start.elapsed().as_secs() + 1;
        let prev_check = metrics.last_flight_check.swap(now, Ordering::Relaxed);
        if prev_check == now {
            return;
        }
        let transitions = self.service.health_transitions();
        let prev_transitions = metrics
            .last_health_transitions
            .swap(transitions, Ordering::Relaxed);
        if prev_check == 0 {
            // First sweep only seeds the baselines.
            return;
        }
        if let Some(runtime) = &self.reconfig {
            soak_check(runtime, metrics);
        }
        if transitions > prev_transitions {
            let changed = transitions - prev_transitions;
            let detail = format!("{changed} node health transition(s) since the last sweep");
            metrics.registry.anomaly("health_transition", Some(detail));
        }
    }

    fn handle_request(&self, request: Request) -> Response {
        let (service, metrics) = (&self.service, &self.metrics);
        let addr = self.net.addr();
        let reconfig = self.reconfig.as_ref();
        match request {
            Request::RegisterProfile { profile } => {
                let app = profile.name.clone();
                let procs = profile.num_procs();
                service.registry().insert(profile);
                Response::Registered { app, procs }
            }
            Request::Compare { app, mappings } => match service.compare_stamped(&app, &mappings) {
                Ok((epoch, predictions)) => Response::Predictions { epoch, predictions },
                Err(e) => Response::service_error(&e),
            },
            Request::BestOf { app, mappings } => match service.best_of_stamped(&app, &mappings) {
                Ok((epoch, index, prediction)) => Response::Best {
                    epoch,
                    index,
                    prediction,
                },
                Err(e) => Response::service_error(&e),
            },
            Request::Schedule {
                app,
                pool,
                iters,
                seed,
            } => {
                let profile = match service.registry().get(&app) {
                    Some(p) => p,
                    None => {
                        return Response::service_error(&cbes_core::ServiceError::UnknownApp(app))
                    }
                };
                let pool: Vec<NodeId> = pool.into_iter().map(NodeId).collect();
                if let Some(bad) = pool.iter().find(|n| n.index() >= service.cluster().len()) {
                    return Response::service_error(&cbes_core::ServiceError::BadNode(bad.0));
                }
                let cached = service.current_load();
                let epoch = cached.epoch;
                let snapshot = service.snapshot_of(&cached);
                let request = ScheduleRequest::new(&profile, &snapshot, &pool);
                let mut config = SaConfig::fast(seed);
                if iters > 0 {
                    config.iters = iters;
                }
                match SaScheduler::new(config).schedule(&request) {
                    Ok(result) => Response::Scheduled {
                        epoch,
                        mapping: result.mapping,
                        predicted_time: result.predicted_time,
                        evaluations: result.evaluations,
                    },
                    Err(e) => Response::error(error_kind::SCHED, e.to_string()),
                }
            }
            Request::ObserveLoad { load } => match service.observe_load(&load) {
                Ok(epoch) => Response::LoadObserved { epoch },
                Err(e) => Response::service_error(&e),
            },
            Request::ObservePartial { load, silent } => {
                let observed = reported_mask(service.cluster().len(), &silent)
                    .and_then(|reported| service.observe_load_partial(&load, &reported));
                match observed {
                    Ok(epoch) => Response::LoadObserved { epoch },
                    Err(e) => Response::service_error(&e),
                }
            }
            Request::Stats => {
                let (healthy, suspect, down) = service.health_counts();
                Response::Stats {
                    stats: StatsReport {
                        served: metrics.served.get(),
                        errors: metrics.net.errors.get(),
                        overloaded: metrics.net.overloaded.get(),
                        timeouts: metrics.net.timeouts.get(),
                        connections: metrics.net.connections.get(),
                        queue_depth: self.net.queue_depth(),
                        workers: self.net.workers(),
                        epoch: service.epoch(),
                        profiles: service.registry().len(),
                        observations: service.observations(),
                        healthy,
                        suspect,
                        down,
                        health_transitions: service.health_transitions(),
                        dropped_connections: metrics.net.dropped_connections.get(),
                        per_action: metrics.per_action(),
                        uptime_s: metrics.start.elapsed().as_secs_f64(),
                    },
                }
            }
            Request::Metrics => Response::Metrics {
                metrics: metrics.snapshot(self.net.queue_depth()),
            },
            Request::Shutdown => {
                self.net.shutdown();
                Response::ShuttingDown
            }
            // A standalone daemon is a degenerate one-instance tier: it owns
            // every routing key and leads itself. `cbes-router` answers these
            // three actions with the real multi-instance view.
            Request::Route { cluster, app } => Response::Routed {
                hash: route_key_hash(&cluster, &app),
                primary: self.self_instance(),
                replicas: Vec::new(),
            },
            Request::Replicate {
                epoch,
                load,
                silent,
            } => {
                let replicated =
                    reported_mask(service.cluster().len(), &silent).and_then(|reported| {
                        // No silent node is a full sweep, not a partial one
                        // that happens to report everything.
                        let reported = (!silent.is_empty()).then_some(reported.as_slice());
                        service.observe_replicated(epoch, &load, reported)
                    });
                match replicated {
                    Ok((epoch, applied)) => Response::Replicated { epoch, applied },
                    Err(e) => Response::service_error(&e),
                }
            }
            Request::Membership => Response::Membership {
                membership: MembershipReport {
                    cluster: service.cluster().name().to_string(),
                    instances: vec![self.self_instance()],
                    leader: Some(0),
                    max_epoch: service.epoch(),
                    replication_lag: 0,
                    heartbeats: 0,
                    transitions: 0,
                },
            },
            // `Compare` plus a counter: what a batch buys is one round trip
            // and one epoch stamp, not another evaluator.
            Request::Batch { app, mappings } => match service.compare_stamped(&app, &mappings) {
                Ok((epoch, predictions)) => {
                    metrics.batch_candidates.add(predictions.len() as u64);
                    Response::Predictions { epoch, predictions }
                }
                Err(e) => Response::service_error(&e),
            },
            Request::Trace { trace_id } => {
                // Both rings can hold pieces of one trace: the request span
                // lands in the server registry, the evaluation spans beneath
                // it land in the global registry the library crates use.
                let mut spans: Vec<SpanSnapshot> = metrics
                    .registry
                    .spans()
                    .of_trace(trace_id)
                    .into_iter()
                    .map(SpanSnapshot::from)
                    .collect();
                spans.extend(
                    Registry::global()
                        .spans()
                        .of_trace(trace_id)
                        .into_iter()
                        .map(SpanSnapshot::from),
                );
                spans.sort_by_key(|s| s.start_us);
                Response::Traces { trace_id, spans }
            }
            Request::DumpFlight => {
                match metrics
                    .registry
                    .flight()
                    .dump("on_demand", metrics.registry.spans())
                {
                    Ok((path, events)) => Response::FlightDumped {
                        path: path.display().to_string(),
                        events: events as u64,
                    },
                    Err(e) => {
                        Response::error(error_kind::SERVICE, format!("flight dump failed: {e}"))
                    }
                }
            }
            Request::Stage { kind, payload } => match reconfig {
                Some(rt) => rt.handle_stage(&kind, &payload),
                None => not_reconfigurable(),
            },
            Request::Apply => match reconfig {
                Some(rt) => rt.handle_apply(metrics.net.overloaded.get()),
                None => not_reconfigurable(),
            },
            Request::Accept => match reconfig {
                Some(rt) => rt.handle_accept(),
                None => not_reconfigurable(),
            },
            Request::Rollback { reason } => match reconfig {
                Some(rt) => rt.handle_rollback(&reason, false),
                None => not_reconfigurable(),
            },
            Request::ArtifactStatus => match reconfig {
                Some(rt) => rt.handle_status(addr),
                None => unreconfigurable_status(addr),
            },
        }
    }

    /// The daemon's single-instance self view for `Route` / `Membership`
    /// replies: always healthy (it answered), always the leader.
    fn self_instance(&self) -> InstanceInfo {
        InstanceInfo {
            index: 0,
            addr: self.net.addr().to_string(),
            health: "healthy".to_string(),
            epoch: self.service.epoch(),
            leader: true,
            routed: 0,
            forwarded: 0,
            failed_over: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::tests::{error_kind_of, idle_control, stats_line};
    use crate::protocol::tests::sample;
    use crate::protocol::{encode, Action};

    /// A daemon over the demo cluster on a layer nothing serves.
    fn daemon() -> Daemon {
        let cluster = Arc::new(cbes_cluster::presets::two_switch_demo());
        let forecast = cbes_core::monitor::ForecastKind::LastValue;
        Daemon {
            service: Arc::new(CbesService::self_calibrated(cluster, forecast)),
            metrics: ServerMetrics::new(),
            rate: Arc::new(RateLimiter::new(0.0)),
            reconfig: None,
            net: idle_control(),
        }
    }

    #[test]
    fn the_reactor_runs_a_frame_only_if_the_row_it_decodes_to_says_so() {
        let daemon = daemon();
        // A member the decoder ignores, spelled the way a cheap action's
        // frame begins, ahead of the request itself.
        let decoy = "{\"id\":1,\"x\":{\"request\":\"Stats\"},";
        for spec in ACTIONS {
            let plain = encode(&RequestEnvelope::new(1, sample(spec.action)));
            let disguised = plain.replacen("{\"id\":1,", decoy, 1);
            let decoded = decode_request(&disguised).expect("unknown members are ignored");
            assert_eq!(decoded.request.spec(), spec);
            for frame in [&plain, &disguised] {
                let ran = daemon.inline(frame).is_some();
                assert_eq!(ran, spec.inline, "{}: {frame}", spec.name);
            }
        }
        let queued: Vec<Action> = ACTIONS
            .iter()
            .filter(|s| !s.inline)
            .map(|s| s.action)
            .collect();
        use Action::{Accept, Apply, DumpFlight, Rollback, Schedule, Stage};
        assert_eq!(
            queued,
            [Schedule, DumpFlight, Stage, Apply, Accept, Rollback]
        );
        // What does not decode is refused on the spot, as a strike.
        let (_, malformed) = daemon.inline("{not json").expect("no worker needed");
        assert!(malformed);
    }

    #[test]
    fn unparseable_line_is_rejected_with_id_zero() {
        let m = ServerMetrics::new();
        let unlimited = RateLimiter::new(0.0);
        let (reply, malformed) =
            *precheck(decode_request("{not json"), &unlimited, &m).expect_err("parse must fail");
        assert_eq!(reply.id, 0);
        assert_eq!(error_kind_of(&reply), error_kind::BAD_REQUEST);
        assert!(malformed, "a parse failure is a framing strike");
        assert_eq!(m.net.errors.get(), 1);
    }

    #[test]
    fn snapshot_merges_global_registry_and_names_instruments() {
        let m = ServerMetrics::new();
        m.served.add(3);
        m.net.queue_wait.record(120);
        m.service_time.record(450);
        Registry::global()
            .counter("obs.server_test.global_marker")
            .incr();
        let snap = m.snapshot(2);
        assert_eq!(snap.counters["server.served"], 3);
        assert_eq!(snap.gauges["server.queue_depth"], 2.0);
        assert_eq!(snap.histograms["server.queue_wait_us"].count, 1);
        assert_eq!(snap.histograms["server.service_time_us"].count, 1);
        assert!(
            snap.counters["obs.server_test.global_marker"] >= 1,
            "global registry instruments appear in the merged snapshot"
        );
    }

    #[test]
    fn rate_limiter_drains_its_burst_and_refills() {
        let limiter = RateLimiter::new(10.0); // burst = 2.5 tokens
        assert!(limiter.try_acquire().is_ok());
        assert!(limiter.try_acquire().is_ok());
        let wait = limiter
            .try_acquire()
            .expect_err("the burst is spent after two tokens");
        assert!(wait > Duration::ZERO && wait <= Duration::from_millis(100));
        std::thread::sleep(Duration::from_millis(150));
        assert!(limiter.try_acquire().is_ok(), "tokens refill over time");
    }

    #[test]
    fn rate_cap_sheds_eval_requests_but_exempts_control_plane() {
        let m = ServerMetrics::new();
        let rate = RateLimiter::new(0.001); // burst = 1 token
        let compare_line = encode(&RequestEnvelope::new(
            11,
            Request::Compare {
                app: "lu".into(),
                mappings: vec![],
            },
        ));
        let precheck = |line: &str| precheck(decode_request(line), &rate, &m);
        assert!(
            precheck(&compare_line).is_ok(),
            "the first eval spends the only token"
        );
        let (reply, malformed) = *precheck(&compare_line).expect_err("the second eval is capped");
        assert_eq!(reply.id, 11);
        assert_eq!(error_kind_of(&reply), error_kind::OVERLOADED);
        assert!(!malformed, "a shed is not a framing strike");
        match &reply.response {
            Response::Error { retry_after_ms, .. } => {
                assert!(
                    *retry_after_ms >= 1,
                    "a time-to-next-token hint is attached"
                )
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
        assert_eq!(m.rate_limited.get(), 1);
        assert_eq!(m.net.overloaded.get(), 1);
        // Control plane bypasses the cap entirely.
        assert!(precheck(&stats_line(12)).is_ok());
        assert_eq!(m.rate_limited.get(), 1, "the cap did not fire again");
        // A runtime retune to unlimited lifts the cap mid-flight.
        rate.set_limits(0.0, 0);
        assert!(precheck(&compare_line).is_ok());
        assert!(precheck(&compare_line).is_ok());
        assert_eq!(m.rate_limited.get(), 1, "unlimited admits every eval");
    }

    #[test]
    fn per_action_report_covers_every_action() {
        let m = ServerMetrics::new();
        m.by_action[Request::Stats.kind() as usize].incr();
        let report = m.per_action();
        assert_eq!(report.len(), ACTIONS.len());
        assert_eq!(report["stats"], 1);
        assert!(ACTIONS.iter().all(|a| report.contains_key(a.name)));
    }
}
