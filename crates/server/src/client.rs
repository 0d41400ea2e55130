//! Blocking client for the CBES daemon: one request, one reply, over
//! newline-delimited JSON.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use cbes_obs::MetricsSnapshot;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::protocol::{
    encode, envelope, error_kind, Request, Response, ResponseEnvelope, StatsReport,
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
/// connection; [`Retrying`] layers re-dial and replay over it.
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

/// A blocking client of a CBES daemon or router: [`Client::call`] sends
/// any [`Request`] over a [`Transport`] — a plain connection unless
/// built with [`Client::retrying`]. [`Client::stats`] and
/// [`Client::metrics`] unwrap the two reads monitoring tools poll.
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

    /// [`Client::call`] over several connections: `request` is written
    /// once to every client before any reply is read, so the caller
    /// waits about one round trip, not one per client. A client whose
    /// write failed is not read from. Replies are in client order.
    pub fn call_each(
        clients: &mut [Client],
        request: &Request,
    ) -> Vec<Result<Response, ClientError>> {
        let sent: Vec<_> = clients
            .iter_mut()
            .map(|c| c.transport.send(request))
            .collect();
        let replies = clients.iter_mut().zip(sent);
        replies
            .map(|(c, sent)| answer(c.transport.receive(sent?)?))
            .collect()
    }

    /// True when this connection can carry another request: nothing
    /// unread is buffered or waiting, and the daemon has not closed it.
    /// A non-blocking peek, so it never waits on the peer.
    pub fn is_idle(&self) -> bool {
        let Direct { reader, writer, .. } = &self.transport;
        if !reader.buffer().is_empty() || writer.set_nonblocking(true).is_err() {
            return false;
        }
        let peeked = writer.peek(&mut [0u8; 1]);
        let blocking = writer.set_nonblocking(false).is_ok();
        blocking && matches!(peeked, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock)
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

    /// Write `request` under the next id and return the id. Inside an
    /// open span (see [`cbes_obs::current_trace`]) the envelope carries
    /// its trace and span ids, so the server joins the caller's trace.
    fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = encode(&envelope(id, request, cbes_obs::current_trace()));
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(id)
    }

    /// Wait for the reply to request `id`.
    fn receive(&mut self, id: u64) -> Result<ResponseEnvelope, ClientError> {
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

impl Transport for Direct {
    fn round_trip(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError> {
        let id = self.send(request)?;
        self.receive(id)
    }
}

/// A reply envelope as [`Client::call`] returns it: an error reply
/// becomes [`ClientError::Server`].
fn answer(envelope: ResponseEnvelope) -> Result<Response, ClientError> {
    match envelope.response {
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

impl<T: Transport> Client<T> {
    /// Send one request and wait for its reply envelope. Error replies
    /// are returned as envelopes, not `Err` — use [`Client::call`] for
    /// automatic error conversion.
    pub fn request(&mut self, request: &Request) -> Result<ResponseEnvelope, ClientError> {
        self.transport.round_trip(request)
    }

    /// Send a request and surface error replies as [`ClientError::Server`].
    /// This is the one way to ask for an action; the caller matches the
    /// [`Response`] variant its action answers with.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        answer(self.request(request)?)
    }

    /// Read the server's counters.
    pub fn stats(&mut self) -> Result<StatsReport, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            other => Err(ClientError::Protocol(format!(
                "expected Stats, got {other:?}"
            ))),
        }
    }

    /// Read the full metrics snapshot (counters, gauges, histograms).
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(ClientError::Protocol(format!(
                "expected Metrics, got {other:?}"
            ))),
        }
    }
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
    /// Replays made after shed/transport failures.
    retries: u64,
    /// Requests abandoned after exhausting the retry budget.
    giveups: u64,
}

impl Client<Retrying> {
    /// A client of `addr` that retries per `policy`. The connection is
    /// dialled lazily on first use, with `io_timeout` bounding the dial
    /// and every read and write after it.
    pub fn retrying(addr: impl Into<String>, io_timeout: Duration, policy: RetryPolicy) -> Self {
        let transport = Retrying {
            addr: addr.into(),
            io_timeout,
            rng: StdRng::seed_from_u64(policy.seed),
            policy,
            conn: None,
            retries: 0,
            giveups: 0,
        };
        Client { transport }
    }

    /// This client's `(retries, giveups)` so far: replays made after
    /// shed/transport failures, and requests abandoned after exhausting
    /// the retry budget.
    pub fn retry_tallies(&self) -> (u64, u64) {
        (self.transport.retries, self.transport.giveups)
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
                self.giveups += 1;
                return outcome;
            }
            self.retries += 1;
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
