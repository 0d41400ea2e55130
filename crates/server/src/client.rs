//! Blocking client for the CBES daemon: one request, one reply, over
//! newline-delimited JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cbes_cluster::load::LoadState;
use cbes_core::eval::Prediction;
use cbes_core::mapping::Mapping;
use cbes_obs::MetricsSnapshot;
use cbes_trace::AppProfile;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::protocol::{
    encode, envelope, error_kind, InstanceInfo, MembershipReport, Request, Response,
    ResponseEnvelope, SpanSnapshot, StatsReport,
};

/// A client-side failure: transport, protocol, or a server error reply.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or dropped.
    Io(std::io::Error),
    /// The server sent something that is not a valid reply, or a reply
    /// of an unexpected shape for the request.
    Protocol(String),
    /// The server answered with [`Response::Error`].
    Server {
        /// Machine-readable error class (see [`crate::protocol::error_kind`]).
        kind: String,
        /// Human-readable detail.
        message: String,
        /// Back-off hint from load-shedding replies (`0` = no hint).
        retry_after_ms: u64,
    },
}

impl ClientError {
    /// True for server replies that shed load (`overloaded`): the request
    /// never ran and an idempotent retry after the hinted back-off is safe.
    pub fn is_shed(&self) -> bool {
        matches!(self, ClientError::Server { kind, .. } if kind == error_kind::OVERLOADED)
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server { kind, message, .. } => {
                write!(f, "server error ({kind}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// How a [`Client`] gets one request answered. [`Direct`] is a live
/// connection; [`Retrying`] layers re-dial and replay over it; a test
/// or a simulation can stand in its own.
pub trait Transport {
    /// Send `request` and wait for the reply envelope. Error replies
    /// are envelopes, not `Err`.
    fn round_trip(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError>;
}

/// One connection to a daemon: requests go out one at a time, ids are
/// assigned here and checked against replies, nothing is ever re-sent.
#[derive(Debug)]
pub struct Direct {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// A blocking client of a CBES daemon or router: one typed method per
/// action (and [`Client::call`] for a [`Request`] built elsewhere) over
/// a [`Transport`] — a plain connection unless built with
/// [`Client::retrying`].
#[derive(Debug)]
pub struct Client<T: Transport = Direct> {
    transport: T,
}

/// Connect to the first address `addr` resolves to that accepts within
/// `timeout`.
pub(crate) fn dial<A: ToSocketAddrs>(addr: A, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "address resolved to no socket addresses",
    );
    for addr in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl Client {
    /// Connect to a running daemon. No I/O deadline is set: a reply
    /// blocks indefinitely. Prefer [`Client::connect_timeout`] for
    /// anything interactive.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let transport = Direct::over(TcpStream::connect(addr)?)?;
        Ok(Client { transport })
    }

    /// Connect with a dial deadline and apply the same bound to every
    /// subsequent read and write, so a dead or wedged server surfaces as
    /// an I/O error instead of hanging the caller forever.
    pub fn connect_timeout<A: ToSocketAddrs>(
        addr: A,
        timeout: Duration,
    ) -> Result<Client, ClientError> {
        let transport = Direct::dial(addr, timeout)?;
        Ok(Client { transport })
    }
}

impl Direct {
    fn over(stream: TcpStream) -> Result<Direct, ClientError> {
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Direct {
            reader,
            writer: stream,
            next_id: 1,
        })
    }

    /// Dial within `timeout` and bound every later read and write by
    /// it too. A request that trips the deadline fails with
    /// [`ClientError::Io`] and the connection should be discarded (a
    /// late reply would desynchronise the stream).
    fn dial<A: ToSocketAddrs>(addr: A, timeout: Duration) -> Result<Direct, ClientError> {
        let conn = Direct::over(dial(addr, timeout)?)?;
        conn.writer.set_read_timeout(Some(timeout))?;
        conn.writer.set_write_timeout(Some(timeout))?;
        Ok(conn)
    }
}

impl Transport for Direct {
    /// When the calling thread is inside an open span (see
    /// [`cbes_obs::current_trace`]), the envelope carries that trace id
    /// and span id so the server joins the caller's trace; otherwise
    /// the envelope is untraced and the wire shape is unchanged.
    fn round_trip(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = encode(&envelope(id, request, cbes_obs::current_trace()));
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;

        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            // A transport condition, not a protocol violation: the peer
            // hung up mid-conversation. Classified as I/O so retrying
            // callers know to reconnect.
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let envelope: ResponseEnvelope = serde_json::from_str(reply.trim())
            .map_err(|e| ClientError::Protocol(format!("bad reply: {e}")))?;
        if envelope.id != id && envelope.id != 0 {
            return Err(ClientError::Protocol(format!(
                "reply id {} does not match request id {id}",
                envelope.id
            )));
        }
        Ok(envelope)
    }
}

impl<T: Transport> Client<T> {
    /// A client over a transport of the caller's own.
    pub fn over(transport: T) -> Self {
        Client { transport }
    }

    /// Send one request and wait for its reply envelope. Error replies
    /// are returned as envelopes, not `Err` — use [`Client::call`] or
    /// the typed helpers for automatic error conversion.
    pub fn request(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError> {
        self.transport.round_trip(request)
    }

    /// Send a request and surface error replies as [`ClientError::Server`].
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.request(request)?.response {
            Response::Error {
                kind,
                message,
                retry_after_ms,
            } => Err(ClientError::Server {
                kind,
                message,
                retry_after_ms,
            }),
            other => Ok(other),
        }
    }

    /// Register (or replace) an application profile.
    pub fn register_profile(&mut self, profile: AppProfile) -> Result<(), ClientError> {
        match self.call(&Request::RegisterProfile { profile })? {
            Response::Registered { .. } => Ok(()),
            other => Err(unexpected("Registered", &other)),
        }
    }

    /// Predict execution times for candidate mappings; returns the
    /// snapshot epoch and one prediction per mapping, in request order.
    pub fn compare(
        &mut self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(u64, Vec<Prediction>), ClientError> {
        self.predictions(Request::Compare {
            app: app.to_string(),
            mappings: mappings.to_vec(),
        })
    }

    /// Evaluate many candidate mappings in one round-trip; every
    /// prediction in the reply was computed against the single returned
    /// snapshot epoch. Equivalent to one `compare` per candidate at
    /// that epoch, amortised server-side.
    pub fn batch(
        &mut self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(u64, Vec<Prediction>), ClientError> {
        self.predictions(Request::Batch {
            app: app.to_string(),
            mappings: mappings.to_vec(),
        })
    }

    fn predictions(&mut self, request: Request) -> Result<(u64, Vec<Prediction>), ClientError> {
        match self.call(&request)? {
            Response::Predictions { epoch, predictions } => Ok((epoch, predictions)),
            other => Err(unexpected("Predictions", &other)),
        }
    }

    /// The index and prediction of the fastest candidate mapping.
    pub fn best_of(
        &mut self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(u64, usize, Prediction), ClientError> {
        let request = Request::BestOf {
            app: app.to_string(),
            mappings: mappings.to_vec(),
        };
        match self.call(&request)? {
            Response::Best {
                epoch,
                index,
                prediction,
            } => Ok((epoch, index, prediction)),
            other => Err(unexpected("Best", &other)),
        }
    }

    /// Run the server-side scheduler over a node pool; returns the epoch,
    /// the chosen mapping, and its predicted time.
    pub fn schedule(
        &mut self,
        app: &str,
        pool: &[u32],
        iters: u32,
        seed: u64,
    ) -> Result<(u64, Mapping, f64), ClientError> {
        let request = Request::Schedule {
            app: app.to_string(),
            pool: pool.to_vec(),
            iters,
            seed,
        };
        match self.call(&request)? {
            Response::Scheduled {
                epoch,
                mapping,
                predicted_time,
                ..
            } => Ok((epoch, mapping, predicted_time)),
            other => Err(unexpected("Scheduled", &other)),
        }
    }

    /// Feed one monitoring sweep; returns the new snapshot epoch.
    pub fn observe_load(&mut self, load: &LoadState) -> Result<u64, ClientError> {
        self.observed(Request::ObserveLoad { load: load.clone() })
    }

    /// Feed one *partial* monitoring sweep: the nodes in `silent`
    /// delivered no measurement and age toward `Suspect`/`Down` under the
    /// server's health policy. Returns the new snapshot epoch.
    pub fn observe_partial(
        &mut self,
        load: &LoadState,
        silent: &[u32],
    ) -> Result<u64, ClientError> {
        self.observed(Request::ObservePartial {
            load: load.clone(),
            silent: silent.to_vec(),
        })
    }

    fn observed(&mut self, request: Request) -> Result<u64, ClientError> {
        match self.call(&request)? {
            Response::LoadObserved { epoch } => Ok(epoch),
            other => Err(unexpected("LoadObserved", &other)),
        }
    }

    /// Read the server's counters.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Read the full metrics snapshot (counters, gauges, histograms).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(unexpected("Metrics", &other)),
        }
    }

    /// Ask which instance owns the `(cluster, app)` routing key; returns
    /// the key hash, the owning primary, and its failover replicas (empty
    /// when talking to a standalone daemon).
    pub fn route(
        &mut self,
        cluster: &str,
        app: &str,
    ) -> Result<(u64, InstanceInfo, Vec<InstanceInfo>), ClientError> {
        let request = Request::Route {
            cluster: cluster.to_string(),
            app: app.to_string(),
        };
        match self.call(&request)? {
            Response::Routed {
                hash,
                primary,
                replicas,
            } => Ok((hash, primary, replicas)),
            other => Err(unexpected("Routed", &other)),
        }
    }

    /// Push a leader-published sweep at a fixed epoch (snapshot
    /// replication). Returns the receiver's epoch and whether the sweep
    /// was applied (`false` means the receiver was already newer).
    pub fn replicate(
        &mut self,
        epoch: u64,
        load: &LoadState,
        silent: &[u32],
    ) -> Result<(u64, bool), ClientError> {
        let request = Request::Replicate {
            epoch,
            load: load.clone(),
            silent: silent.to_vec(),
        };
        match self.call(&request)? {
            Response::Replicated { epoch, applied } => Ok((epoch, applied)),
            other => Err(unexpected("Replicated", &other)),
        }
    }

    /// Read the serving tier's membership table (a standalone daemon
    /// reports a single-instance view of itself).
    pub fn membership(&mut self) -> Result<MembershipReport, ClientError> {
        match self.call(&Request::Membership)? {
            Response::Membership { membership } => Ok(membership),
            other => Err(unexpected("Membership", &other)),
        }
    }

    /// Fetch every buffered span belonging to `trace_id` from the
    /// server's rings (a routed tier merges spans from every instance
    /// plus the router's own forwarding spans).
    pub fn trace(&mut self, trace_id: u64) -> Result<(u64, Vec<SpanSnapshot>), ClientError> {
        match self.call(&Request::Trace { trace_id })? {
            Response::Traces { trace_id, spans } => Ok((trace_id, spans)),
            other => Err(unexpected("Traces", &other)),
        }
    }

    /// Force an unconditional flight-recorder dump; returns the dump
    /// file path and the number of events written (a routed tier dumps
    /// on every instance and reports the first reply).
    pub fn dump_flight(&mut self) -> Result<(String, u64), ClientError> {
        match self.call(&Request::DumpFlight)? {
            Response::FlightDumped { path, events } => Ok((path, events)),
            other => Err(unexpected("FlightDumped", &other)),
        }
    }

    /// Stage a configuration artifact (validated and journalled, not
    /// yet activated). Returns `(version, state, epoch)` from the ack;
    /// `state` is `"staged"` on success.
    pub fn stage(&mut self, kind: &str, payload: &str) -> Result<(u64, String, u64), ClientError> {
        self.acked(Request::Stage {
            kind: kind.to_string(),
            payload: payload.to_string(),
        })
    }

    /// Activate the staged artifact under a soak (one epoch bump).
    pub fn apply(&mut self) -> Result<(u64, String, u64), ClientError> {
        self.acked(Request::Apply)
    }

    /// Promote the soaking artifact to active.
    pub fn accept(&mut self) -> Result<(u64, String, u64), ClientError> {
        self.acked(Request::Accept)
    }

    /// Abandon the soaking artifact and reinstate the previous
    /// configuration (one more epoch bump).
    pub fn rollback(&mut self, reason: &str) -> Result<(u64, String, u64), ClientError> {
        self.acked(Request::Rollback {
            reason: reason.to_string(),
        })
    }

    /// A lifecycle verb's receipt: `(version, state, epoch)`.
    fn acked(&mut self, request: Request) -> Result<(u64, String, u64), ClientError> {
        match self.call(&request)? {
            Response::ArtifactAck {
                version,
                state,
                epoch,
            } => Ok((version, state, epoch)),
            other => Err(unexpected("ArtifactAck", &other)),
        }
    }

    /// Read the artifact lifecycle state (tier-wide through a router:
    /// one entry per usable instance).
    pub fn artifact_status(&mut self) -> Result<cbes_reconfig::StatusReport, ClientError> {
        match self.call(&Request::ArtifactStatus)? {
            Response::ArtifactStatus { status } => Ok(status),
            other => Err(unexpected("ArtifactStatus", &other)),
        }
    }

    /// Ask the server to drain and exit. The acknowledgement arrives
    /// before the drain completes.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} reply, got {got:?}"))
}

/// Retry tuning for [`Client::retrying`]: exponential backoff with
/// deterministic jitter, bounded attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts, including the first (`1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_delay: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_delay: Duration,
    /// Jitter seed, so backoff sequences are reproducible in tests.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), before the
    /// `retry_after_ms` hint is applied: `base · 2^(retry-1)`, capped at
    /// `max_delay`, jittered uniformly over ±50%. Public so operators
    /// (and tests) can inspect the delay envelope a policy produces.
    pub fn backoff(&self, retry: u32, rng: &mut StdRng) -> Duration {
        let base = self
            .base_delay
            .saturating_mul(1u32 << (retry - 1).min(16))
            .min(self.max_delay);
        let us = base.as_micros() as u64;
        if us == 0 {
            return Duration::ZERO;
        }
        // Uniform in [0.5, 1.5) × base.
        let jittered = us / 2 + rng.random_range(0..us.max(1));
        Duration::from_micros(jittered)
    }
}

/// The retry layer: a [`Transport`] that dials lazily, re-dials after
/// any I/O failure, and replays a request over transient failures —
/// connect/IO errors, load-shedding (`overloaded`) and `timeout`
/// replies, honouring the server's `retry_after_ms` hint — if and only
/// if its row of the action table says [`idempotent`]. Anything else is
/// sent once: replaying an epoch-advancing sweep or a lifecycle verb
/// changes server state.
///
/// Retries are opt-in by construction — a plain [`Client`] never
/// retries; [`Client::retrying`] builds one that does.
///
/// [`idempotent`]: crate::protocol::ActionSpec::idempotent
pub struct Retrying {
    addr: String,
    io_timeout: Duration,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<Direct>,
    retries: std::sync::Arc<cbes_obs::Counter>,
    giveups: std::sync::Arc<cbes_obs::Counter>,
}

impl Client<Retrying> {
    /// A client of `addr` that retries per `policy`. The connection is
    /// dialled lazily on first use, with `io_timeout` bounding the dial
    /// and every read and write after it.
    pub fn retrying(addr: impl Into<String>, io_timeout: Duration, policy: RetryPolicy) -> Self {
        let registry = cbes_obs::Registry::global();
        Client::over(Retrying {
            addr: addr.into(),
            io_timeout,
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            conn: None,
            retries: registry.counter(cbes_obs::names::CLIENT_RETRIES),
            giveups: registry.counter(cbes_obs::names::CLIENT_RETRY_GIVEUPS),
        })
    }
}

impl Retrying {
    /// One attempt over the pooled connection, dialling it if need be.
    /// A transport error discards the connection: a late reply would
    /// desynchronise the stream.
    fn attempt(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError> {
        let conn = match self.conn.take() {
            Some(conn) => conn,
            None => Direct::dial(self.addr.as_str(), self.io_timeout)?,
        };
        let reply = self.conn.insert(conn).round_trip(request);
        if matches!(reply, Err(ClientError::Io(_))) {
            self.conn = None;
        }
        reply
    }
}

impl Transport for Retrying {
    fn round_trip(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError> {
        if !request.spec().idempotent {
            return self.attempt(request);
        }
        let mut retry = 0u32;
        loop {
            let outcome = self.attempt(request);
            let hint_ms = match &outcome {
                Err(ClientError::Io(_)) => 0,
                // Shed or deadline-missed: the action is idempotent, so
                // replaying after the hinted back-off is safe.
                Ok(ResponseEnvelope {
                    response:
                        Response::Error {
                            kind,
                            retry_after_ms,
                            ..
                        },
                    ..
                }) if kind == error_kind::OVERLOADED || kind == error_kind::TIMEOUT => {
                    *retry_after_ms
                }
                // Replies, protocol errors and non-shed server errors are
                // not transient; retrying replays a rejected request.
                _ => return outcome,
            };
            retry += 1;
            if retry >= self.policy.max_attempts {
                self.giveups.incr();
                return outcome;
            }
            self.retries.incr();
            let backoff = self
                .policy
                .backoff(retry, &mut self.rng)
                .max(Duration::from_millis(hint_ms));
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_respects_the_cap() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(100),
            seed: 1,
        };
        let mut rng = StdRng::seed_from_u64(policy.seed);
        for retry in 1..8 {
            let d = policy.backoff(retry, &mut rng);
            // Jitter spans [0.5, 1.5) × capped base.
            let base = (10u64 << (retry - 1)).min(100);
            assert!(
                d >= Duration::from_micros(base * 500),
                "retry {retry}: {d:?}"
            );
            assert!(
                d < Duration::from_micros(base * 1500),
                "retry {retry}: {d:?}"
            );
        }
    }

    #[test]
    fn backoff_is_deterministic_for_a_seed() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for retry in 1..5 {
            assert_eq!(policy.backoff(retry, &mut a), policy.backoff(retry, &mut b));
        }
    }

    #[test]
    fn shed_classification() {
        let shed = ClientError::Server {
            kind: error_kind::OVERLOADED.into(),
            message: "queue full".into(),
            retry_after_ms: 25,
        };
        assert!(shed.is_shed());
        let service = ClientError::Server {
            kind: error_kind::SERVICE.into(),
            message: "unknown app".into(),
            retry_after_ms: 0,
        };
        assert!(!service.is_shed());
    }
}
