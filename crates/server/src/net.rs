//! The I/O layer: a readiness-based event loop (one reactor thread over
//! the [`crate::epoll`] shim) feeding a worker pool, so idle
//! connections cost a few buffered bytes instead of a thread. It knows
//! nothing about what a frame means: a [`Handler`] turns one request
//! line into one reply line, and both the daemon ([`crate::server`])
//! and the routing proxy (`cbes-router`) are handlers on this layer.
//!
//! The reactor owns the non-blocking listener and every connection:
//! it accepts, reassembles newline-delimited frames from per-connection
//! read buffers, and runs admission control per complete line. Admitted
//! lines go to the one job queue every worker takes from; past
//! `queue_capacity` frames waiting for a worker, a line is answered
//! immediately with a structured `overloaded` error and the advertised
//! back-off hint. Workers run the handler off the reactor thread, then
//! push the finished bytes back over a completion channel and nudge the
//! reactor with a wake byte. A [`PendingTable`] enforces the
//! per-request deadline: an admitted request that misses it is answered
//! with a `timeout` error by the reactor and the worker's late reply is
//! dropped.
//!
//! Ordering: while frames of a connection are queued or executing, its
//! next ones are held, and go to one worker together once those finish,
//! so a connection's frames run in arrival order. Every admitted
//! frame takes a slot in its connection's reply ledger, and replies
//! leave it in arrival order. Worker-run and relayed frames keep
//! separate lanes, each ordered within itself, not against the other.
//! Shed and oversized-frame replies take no slot and may overtake,
//! which is why every reply carries the request id.
//!
//! Relaying: a frame [`Handler::relay`] answers with a [`Forward`]
//! never leaves the reactor thread. It is written — the reactor's
//! sequence number as its id — to one shared non-blocking socket per
//! upstream, and the reply line is matched by that number in the
//! [`PendingTable`], given its client's id back and filed in its
//! client connection's relayed lane byte for byte. An attempt that is
//! refused, missed or cut off moves the entry to its next candidate.
//! The one blocking step, the dial, is a worker job.
//!
//! Shutdown: [`Control::shutdown`] flips the flag and wakes the
//! reactor. The reactor stops accepting, answers any newly-read line
//! with a `shutting_down` shed, drains outstanding completions, flushes
//! write buffers, and exits once every admitted request is answered;
//! dropping the job queue's sender then disconnects the workers. Every
//! admitted request is answered.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::io::{BufRead, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cbes_obs::{names, Clock, Counter, Histogram, Registry, SpanGuard};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};

use crate::epoll::{PollEvent, Poller};
use crate::protocol::{error_kind, response_bytes, split_id, Response, ResponseEnvelope};
use crate::server::ServerConfig;

/// Upper bound on one reactor poll wait: the loop re-checks the
/// shutdown flag at least this often even with no I/O and no deadlines.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Reactor poll token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Reactor poll token of the worker wake channel.
const WAKE_TOKEN: u64 = 1;
/// First token handed to an accepted (or dialled) connection.
const FIRST_CONN_TOKEN: u64 = 2;

/// Unflushed output at which a connection's replies are flushed eagerly
/// and the reactor stops reading it until the peer drains them.
const FLUSH_HIGH_WATER: usize = 64 * 1024;

/// How a `shutting_down` reply continues after its id, in the encoding
/// every daemon emits: the relay fails such a reply over unparsed.
const SHUTTING_DOWN_TAIL: &str = ",\"response\":{\"Error\":{\"kind\":\"shutting_down\"";

/// What the I/O layer serves: one request line in, one reply line out.
/// Calls are monomorphised per handler; there is no `dyn` dispatch on
/// the frame path.
pub trait Handler: Send + Sync + 'static {
    /// Run `line` on the reactor thread — asked only when nothing is
    /// pending or queued and a worker is free — and answer as
    /// [`Self::execute`] does, or `None` (the default) to queue it for a
    /// worker. Must be `None` for
    /// anything that can block on a disk or a peer, or whose cost the
    /// caller controls: decide from the decoded frame, not its bytes.
    fn inline(&self, _line: &str) -> Option<(Vec<u8>, bool)> {
        None
    }

    /// Execute one frame: the encoded reply line (newline included)
    /// and whether it counts as a malformed-frame strike.
    fn execute(&self, line: &str) -> (Vec<u8>, bool);

    /// The backends the reactor may relay frames to — a [`Forward`]
    /// names them by position — and the deadline for one dial and for
    /// one attempt's reply. Read once at start.
    fn upstreams(&self) -> (Vec<String>, Duration) {
        (Vec::new(), Duration::ZERO)
    }

    /// `Some` to relay `line` instead of executing it. Runs on the
    /// reactor thread for every frame, so it must not block; the
    /// default relays nothing and compiles away.
    fn relay(&self, _line: &str) -> Option<Forward> {
        None
    }

    /// A relayed frame's reply went out to its client: `upstream`
    /// answered it, as the frame's `primary` or as a failover target.
    fn relayed(&self, _upstream: usize, _primary: bool) {}

    /// The reply line (newline included) for a relayed frame that no
    /// candidate answered.
    fn unroutable(&self, id: u64) -> Vec<u8> {
        let response = Response::error(error_kind::SERVICE, "no upstream answered");
        encode_line(&ResponseEnvelope { id, response })
    }
}

/// One frame to relay.
pub struct Forward {
    /// The client's id, put back on the reply.
    pub id: u64,
    /// The frame after its id digits (`,"request":…}`), as
    /// [`split_id`] cuts it; sent behind the reactor's own id.
    pub tail: String,
    /// Upstreams to try, in order; an attempt that fails moves on.
    pub candidates: Vec<usize>,
    /// The upstream [`Handler::relayed`] is told was the first choice.
    pub primary: usize,
    /// Finished (dropped) when the frame is answered, however that is.
    pub span: Option<SpanGuard<'static>>,
}

/// Append `{"id":<id>` + `tail` + newline: a relayed frame or reply
/// under the id its next hop knows it by.
fn push_frame(buf: &mut Vec<u8>, id: u64, tail: &str) {
    buf.extend_from_slice(b"{\"id\":");
    serde_json::write_u64(id, buf);
    buf.extend_from_slice(tail.as_bytes());
    buf.push(b'\n');
}

/// One reply envelope as a wire line, newline included.
pub fn encode_line(envelope: &ResponseEnvelope) -> Vec<u8> {
    let mut bytes = response_bytes(envelope);
    bytes.push(b'\n');
    bytes
}

/// The I/O layer's instruments, registered under the `server.*` names
/// in whichever registry the owner passes — private per instance, so
/// several servers (or a router beside its daemons) in one process
/// never mix counts. Handles are cached `Arc`s: the reactor and
/// workers update them wait-free. The registry's clock is the layer's
/// one source of time: deadlines, queue wait and the shed-spike second.
pub struct NetMetrics {
    registry: Arc<Registry>,
    /// Error replies of any kind (the handler adds its own).
    pub(crate) errors: Arc<Counter>,
    /// Requests shed with `overloaded` (the handler adds rate-cap sheds).
    pub(crate) overloaded: Arc<Counter>,
    /// Admitted requests answered with `timeout`.
    pub(crate) timeouts: Arc<Counter>,
    /// Connections accepted.
    pub(crate) connections: Arc<Counter>,
    /// Connections dropped for exhausting their malformed-frame budget.
    pub(crate) dropped_connections: Arc<Counter>,
    /// Request lines rejected for exceeding the length cap.
    oversized_frames: Arc<Counter>,
    /// Reactor poll returns that carried at least one I/O event.
    loop_wakeups: Arc<Counter>,
    /// Microseconds from admission to worker pickup.
    pub(crate) queue_wait: Arc<Histogram>,
    /// The shed-spike trigger's one-second window, `second << 32 |
    /// sheds in that second`; only a shed touches it.
    shed_tally: AtomicU64,
}

impl NetMetrics {
    /// The layer's instruments in `registry`, as the one handle the
    /// layer and its handler share.
    pub fn new(registry: &Arc<Registry>) -> Arc<Self> {
        Arc::new(NetMetrics {
            errors: registry.counter(names::SERVER_ERRORS),
            overloaded: registry.counter(names::SERVER_OVERLOADED),
            timeouts: registry.counter(names::SERVER_TIMEOUTS),
            connections: registry.counter(names::SERVER_CONNECTIONS),
            dropped_connections: registry.counter(names::SERVER_DROPPED_CONNECTIONS),
            oversized_frames: registry.counter(names::SERVER_OVERSIZED_FRAMES),
            loop_wakeups: registry.counter(names::SERVER_LOOP_WAKEUPS),
            queue_wait: registry.histogram(names::SERVER_QUEUE_WAIT_US),
            shed_tally: AtomicU64::new(0),
            registry: registry.clone(),
        })
    }

    /// Count one `overloaded` shed and run the shed-spike flight
    /// trigger: one event at the threshold crossing and a (debounced)
    /// dump whenever this clock second's shed count sits at or above the
    /// threshold. Returns the dump file, if the trigger wrote one.
    pub(crate) fn shed_overloaded(&self) -> Option<PathBuf> {
        self.overloaded.incr();
        self.errors.incr();
        let spike = shed_spike_threshold();
        if spike == 0 {
            return None;
        }
        let sec = self.registry.clock().now().as_secs();
        let bump = |tally: u64| {
            if tally >> 32 == sec {
                tally + 1
            } else {
                sec << 32 | 1
            }
        };
        let (Ok(prev) | Err(prev)) =
            self.shed_tally
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |t| Some(bump(t)));
        let recent = bump(prev) & u64::from(u32::MAX);
        if recent < spike {
            return None;
        }
        let crossing = recent == spike;
        let detail = crossing.then(|| format!("{recent} requests shed in the last second"));
        self.registry.anomaly("shed_spike", detail)
    }
}

/// A `u64` tunable read from the environment once per process; unset
/// or unparsable means `default`.
pub(crate) fn env_u64(cache: &OnceLock<u64>, name: &str, default: u64) -> u64 {
    let read = || std::env::var(name).ok().and_then(|v| v.parse().ok());
    *cache.get_or_init(|| read().unwrap_or(default))
}

/// Sheds within one clock second that count as a spike and trip the
/// flight recorder, unless `CBES_FLIGHT_SHED_SPIKE` overrides it (0
/// disables the trigger entirely).
const SHED_SPIKE_DEFAULT: u64 = 8;

fn shed_spike_threshold() -> u64 {
    static CACHE: OnceLock<u64> = OnceLock::new();
    env_u64(&CACHE, "CBES_FLIGHT_SHED_SPIKE", SHED_SPIKE_DEFAULT)
}

/// Work travelling to the worker pool; one message on the job queue is
/// a run of one connection's frames, executed in order, or one dial.
enum Job {
    /// One admitted request line.
    Frame {
        /// The connection that sent it.
        token: u64,
        /// Reactor-assigned sequence; keys the [`PendingTable`] entry.
        seq: u64,
        /// The raw frame; the worker parses it off the reactor thread.
        line: String,
        /// When the reactor admitted it; queue wait is measured from
        /// here to worker pickup.
        admitted: Duration,
    },
    /// Connect to upstream `.0` at `.1` within `.2` — the one blocking
    /// step of a relay.
    Dial(usize, String, Duration),
}

/// A worker's result travelling back to the reactor.
enum Completion {
    Reply {
        token: u64,
        seq: u64,
        /// The encoded reply line, newline included.
        bytes: Vec<u8>,
        /// True when the reply is a framing strike (`bad_request`).
        malformed: bool,
    },
    /// The socket (or not) for upstream `.0`.
    Dialled(usize, std::io::Result<TcpStream>),
}

/// The envelope id without a full parse, so shed and timeout replies
/// can echo it. The wire encoding always leads with `{"id":N`, which
/// [`split_id`] reads; any other top-level placement parses too, so the
/// fallback walks the line for an `"id"` key of the outermost object —
/// skipping strings, so an `"id"` spelled inside a value is not one. An
/// absent or unreadable id is 0 (the "unattributable" id).
fn peek_id(line: &str) -> u64 {
    if let Some((id, _)) = split_id(line) {
        return id;
    }
    let bytes = line.as_bytes();
    let (mut depth, mut pos) = (0usize, 0usize);
    while let Some(&b) = bytes.get(pos) {
        pos += 1;
        match b {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                let start = pos;
                while bytes.get(pos).is_some_and(|&c| c != b'"') {
                    pos += 1 + usize::from(bytes.get(pos) == Some(&b'\\'));
                }
                let key = depth == 1 && bytes.get(start..pos) == Some(b"id");
                pos += 1;
                let rest = line.get(pos..).unwrap_or("").trim_start();
                if let Some(digits) = rest.strip_prefix(':').filter(|_| key) {
                    let digits = digits.trim_start();
                    let end = digits.bytes().take_while(u8::is_ascii_digit).count();
                    return digits.get(..end).and_then(|d| d.parse().ok()).unwrap_or(0);
                }
            }
            _ => {}
        }
    }
    0
}

/// A load-shedding reply (boxed: the happy path should not pay for its
/// size).
fn shed(id: u64, kind: &str, message: &str, retry_after_ms: u64) -> Box<ResponseEnvelope> {
    let response = Response::shed(kind, message, retry_after_ms);
    Box::new(ResponseEnvelope { id, response })
}

/// Push one line from connection `token` through admission control:
/// while draining, or when `send` finds the queue full or disconnected,
/// the line is shed; otherwise `send` has queued the job or held it for
/// its connection. `Ok` is the peeked envelope id, used for
/// a timeout reply should the deadline pass first; `Err` is the shed
/// reply.
fn try_admit<T>(
    line: &str,
    send: impl FnOnce(Job) -> Result<(), TrySendError<T>>,
    (token, seq): (u64, u64),
    draining: bool,
    metrics: &NetMetrics,
    shed_retry_after_ms: u64,
) -> Result<u64, Box<ResponseEnvelope>> {
    let id = peek_id(line);
    if !draining {
        let job = Job::Frame {
            token,
            seq,
            line: line.to_string(),
            admitted: metrics.registry.clock().now(),
        };
        match send(job) {
            Ok(()) => return Ok(id),
            Err(TrySendError::Full(_)) => {
                metrics.shed_overloaded();
                return Err(shed(
                    id,
                    error_kind::OVERLOADED,
                    "admission queue is full",
                    shed_retry_after_ms,
                ));
            }
            // Workers gone: the layer is past draining.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }
    metrics.errors.incr();
    Err(shed(
        id,
        error_kind::SHUTTING_DOWN,
        "server is draining",
        shed_retry_after_ms,
    ))
}

/// One in-flight admitted request. The deadline lives in the table's
/// heap; the entry itself only needs routing identity — plus, for a
/// relayed frame, what it takes to send it again.
struct Pending {
    token: u64,
    id: u64,
    relay: Option<Box<Relayed>>,
}

/// The relay half of a [`Pending`] entry.
struct Relayed {
    /// What to send, and again on the next attempt.
    forward: Forward,
    /// How many of the candidates have been tried; the current attempt
    /// is number `tried`, counting from 1.
    tried: usize,
    /// The upstream the current attempt went to; replies from any
    /// other are stale.
    upstream: usize,
    /// An upstream's `shutting_down` reply (after its id): the answer
    /// if no later candidate does better.
    refusal: Option<String>,
}

/// The reactor's deadline ledger for admitted requests: completions
/// consume entries, expiry turns them into `timeout` replies, and a
/// closing connection cancels its entries so late replies are dropped.
struct PendingTable {
    by_seq: HashMap<u64, Pending>,
    /// Min-heap of `(deadline, seq, attempt)` with lazy deletion:
    /// attempt 0 is the request's own deadline, `n` a relayed entry's
    /// `n`th attempt's. Completed or cancelled seqs and attempts since
    /// given up linger here until their time pops them.
    deadlines: BinaryHeap<Reverse<(Duration, u64, usize)>>,
}

impl PendingTable {
    fn new() -> Self {
        PendingTable {
            by_seq: HashMap::new(),
            deadlines: BinaryHeap::new(),
        }
    }

    fn insert(&mut self, seq: u64, pending: Pending, deadline: Duration) {
        self.by_seq.insert(seq, pending);
        self.deadlines.push(Reverse((deadline, seq, 0)));
    }

    /// The relay half of a live entry.
    fn relayed_mut(&mut self, seq: u64) -> Option<&mut Relayed> {
        self.by_seq.get_mut(&seq)?.relay.as_deref_mut()
    }

    /// Live entries whose current attempt went to `upstream`, oldest
    /// first.
    fn on_upstream(&self, upstream: usize) -> Vec<u64> {
        let on = |p: &Pending| p.relay.as_ref().is_some_and(|r| r.upstream == upstream);
        let mut seqs: Vec<u64> = self
            .by_seq
            .iter()
            .filter(|(_, p)| on(p))
            .map(|(&s, _)| s)
            .collect();
        seqs.sort_unstable();
        seqs
    }

    /// Claim the entry for a finished request; `None` means it already
    /// timed out (or its connection went away) and the reply must be
    /// dropped — it was answered once.
    fn complete(&mut self, seq: u64) -> Option<Pending> {
        let p = self.by_seq.remove(&seq);
        if self.by_seq.is_empty() {
            // No live entries: drop the lazily-deleted heap backlog.
            self.deadlines.clear();
        }
        p
    }

    /// The earliest deadline, for sizing the poll wait. May be stale
    /// (a completed entry) — that only causes one early wakeup.
    fn next_deadline(&self) -> Option<Duration> {
        self.deadlines.peek().map(|Reverse((d, ..))| *d)
    }

    /// Pop every deadline that has passed: entries past their own come
    /// out of the table (first list); relayed ones whose current
    /// attempt went unanswered stay in it (second list).
    fn expire(&mut self, now: Duration) -> (Vec<(u64, Pending)>, Vec<u64>) {
        let (mut timed_out, mut missed) = (Vec::new(), Vec::new());
        while let Some(Reverse((at, seq, attempt))) = self.deadlines.peek().copied() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            if attempt == 0 {
                timed_out.extend(self.by_seq.remove(&seq).map(|p| (seq, p)));
            } else if self.relayed_mut(seq).is_some_and(|r| r.tried == attempt) {
                missed.push(seq);
            }
        }
        (timed_out, missed)
    }

    /// Cancel every entry belonging to a closed connection.
    fn drop_conn(&mut self, token: u64) {
        self.by_seq.retain(|_, p| p.token != token);
        if self.by_seq.is_empty() {
            self.deadlines.clear();
        }
    }

    fn is_empty(&self) -> bool {
        self.by_seq.is_empty()
    }

    fn len(&self) -> usize {
        self.by_seq.len()
    }
}

/// One frame-reassembly outcome from a chunk of connection bytes.
enum FrameEvent {
    /// A complete line (newline stripped).
    Line(Vec<u8>),
    /// A frame exceeded the length cap; its bytes are being discarded
    /// up to the next newline.
    Oversized,
}

/// Per-connection frame reassembly: accumulates bytes until a newline,
/// enforcing the length cap so a frame that never ends cannot grow
/// without bound.
struct FrameBuf {
    rbuf: Vec<u8>,
    /// Discarding an oversized frame's bytes until its newline.
    discarding: bool,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf {
            rbuf: Vec::new(),
            discarding: false,
        }
    }

    /// Fold `chunk` into the buffer, emitting an event per completed
    /// (or over-cap) frame, in wire order.
    fn ingest(&mut self, mut chunk: &[u8], max_line_bytes: usize, out: &mut Vec<FrameEvent>) {
        while let Some(i) = find_newline(chunk) {
            let head = chunk.get(..i).unwrap_or(&[]);
            chunk = chunk.get(i + 1..).unwrap_or(&[]);
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            if self.rbuf.len() + head.len() > max_line_bytes {
                // The frame completed (newline seen), so no discard
                // state is needed beyond dropping it.
                self.rbuf.clear();
                out.push(FrameEvent::Oversized);
            } else {
                let mut line = std::mem::take(&mut self.rbuf);
                line.extend_from_slice(head);
                out.push(FrameEvent::Line(line));
            }
        }
        if self.discarding {
            return;
        }
        if self.rbuf.len() + chunk.len() > max_line_bytes {
            self.rbuf.clear();
            self.discarding = true;
            out.push(FrameEvent::Oversized);
        } else {
            self.rbuf.extend_from_slice(chunk);
        }
    }

    /// The unterminated tail at EOF, treated as a final frame.
    fn take_residual(&mut self) -> Option<Vec<u8>> {
        if self.discarding || self.rbuf.is_empty() {
            return None;
        }
        Some(std::mem::take(&mut self.rbuf))
    }
}

/// The index of the first `\n` in `bytes`, found by the slice reader's
/// `skip_until`: the standard library's word-at-a-time `memchr`.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    let through = rest.skip_until(b'\n').unwrap_or(0);
    through
        .checked_sub(1)
        .filter(|&i| bytes.get(i) == Some(&b'\n'))
}

/// A frame's text: its bytes when `from_utf8` (a word at a time) finds
/// them UTF-8, else the lossy decode, which walks a byte at a time.
fn frame_text(line: &[u8]) -> Cow<'_, str> {
    std::str::from_utf8(line).map_or_else(|_| String::from_utf8_lossy(line), Cow::Borrowed)
}

/// A frame's place in a reply ledger: its sequence number, then its
/// reply line and strike bit once they are in.
type Slot = (u64, Option<(Vec<u8>, bool)>);

/// The reply-ledger lanes of a connection's worker-run and relayed
/// frames.
const WORKER_LANE: usize = 0;
const RELAY_LANE: usize = 1;

/// One live connection owned by the reactor.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    /// Consecutive malformed frames; reset by any well-formed reply,
    /// fatal past the policy budget.
    strikes: u32,
    /// Peer half-closed; finish in-flight replies, then close.
    eof: bool,
    /// Close as soon as the write buffer drains (strike budget spent).
    closing: bool,
    /// Current poller interest, to skip redundant `modify` calls.
    interest: (bool, bool),
    /// The reply ledger: admitted frames not yet answered, in arrival
    /// order. Replies leave a lane from the front only; worker-run and
    /// relayed frames keep separate lanes, so neither waits for the
    /// other.
    lanes: [VecDeque<Slot>; 2],
    /// Worker-run frames on the job queue or a worker.
    running: usize,
    /// Worker-run frames admitted while others run, oldest first. When
    /// the last of those finishes, timed out or not, they go to one
    /// worker together.
    held: Vec<Job>,
    /// `Some(i)`: not a client but the socket dialled to upstream `i`.
    upstream: Option<usize>,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            frames: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            strikes: 0,
            eof: false,
            closing: false,
            interest: (true, false),
            lanes: [VecDeque::new(), VecDeque::new()],
            running: 0,
            held: Vec::new(),
            upstream: None,
        }
    }

    /// Output bytes the socket has not taken yet.
    fn unflushed(&self) -> usize {
        self.wbuf.len().saturating_sub(self.wpos)
    }
}

/// One backend relayed frames go to, over at most one socket.
struct Upstream {
    addr: String,
    /// Token of its [`Conn`] while connected.
    conn: Option<u64>,
    /// A worker is connecting; with neither, the next frame starts a
    /// dial. Entries attempted meanwhile are written when it connects.
    dialling: bool,
}

/// What the reactor, the workers, the handler and the owning handle
/// share about one running layer: the bound address, the load figures a
/// `Stats` reply reports, and the shutdown trigger.
pub struct Control {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Write end of the wake channel.
    wake_tx: TcpStream,
    /// Worker threads.
    workers: usize,
    /// Receive end of the job queue every worker takes from.
    queue: Receiver<Vec<Job>>,
    /// Admitted frames no worker has picked up, queued or held: the
    /// reactor counts them in, the worker that picks one up out.
    waiting: AtomicUsize,
    /// Workers executing a job; the reactor only runs a frame inline
    /// when the queue is drained *and* this is below `workers`.
    busy: AtomicUsize,
}

impl Control {
    /// The address the layer actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Admitted requests no worker has picked up: on the job queue or
    /// held behind their connection's running frames.
    pub fn queue_depth(&self) -> usize {
        self.waiting.load(Ordering::Acquire)
    }

    /// True once shutdown has been triggered.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// The shutdown flag itself, for threads outside the layer that
    /// stop with it (the router's heartbeat).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Trigger the drain without waiting for it.
    pub fn shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            self.wake();
        }
    }

    /// Nudge the reactor out of its poll wait. A full wake buffer is
    /// fine — unread bytes already guarantee a wakeup.
    fn wake(&self) {
        let mut w = &self.wake_tx;
        let _ = w.write(&[1u8]);
    }
}

/// An in-process wake channel: workers nudge the reactor out of its
/// poll wait by writing a byte. Built from a loopback TCP pair so the
/// FFI surface stays the four polling syscalls (no `pipe(2)` shim).
fn wake_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let probe = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(probe.local_addr()?)?;
    let (rx, _) = probe.accept()?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((tx, rx))
}

/// Bind `config.addr`, size the queues from `config`, build the handler
/// around the layer's [`Control`] (the address is known, no thread runs
/// yet) and start serving. The layer counts into `metrics`, the same
/// handle the handler sheds through, so the shed-spike trigger sees
/// both kinds of shed.
pub fn start<H: Handler>(
    config: &ServerConfig,
    metrics: Arc<NetMetrics>,
    handler: impl FnOnce(&Arc<Control>) -> std::io::Result<H>,
) -> std::io::Result<NetHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let worker_count = config.workers.max(1);
    // Bounded by admission: `queue_capacity` waiting frames.
    let (job_tx, queue) = channel::unbounded::<Vec<Job>>();
    let (wake_tx, wake_rx) = wake_pair()?;
    let control = Arc::new(Control {
        addr: listener.local_addr()?,
        shutdown: Arc::new(AtomicBool::new(false)),
        wake_tx,
        workers: worker_count,
        queue,
        waiting: AtomicUsize::new(0),
        busy: AtomicUsize::new(0),
    });
    let handler = Arc::new(handler(&control)?);
    let (upstreams, attempt_timeout) = handler.upstreams();
    let upstreams = upstreams.into_iter().map(|addr| Upstream {
        addr,
        conn: None,
        dialling: false,
    });
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
    poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, true, false)?;
    let (completion_tx, completion_rx) = channel::unbounded::<Completion>();
    let workers: Vec<_> = (0..worker_count)
        .map(|_| {
            let handler = handler.clone();
            let control = control.clone();
            let metrics = metrics.clone();
            let completion_tx = completion_tx.clone();
            std::thread::spawn(move || worker_loop(&*handler, &control, &metrics, &completion_tx))
        })
        .collect();
    let reactor = Reactor {
        poller,
        listener,
        wake_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        // From 1: id 0 on a relayed reply is an upstream's
        // "unattributable", never one of ours.
        next_seq: 1,
        pending: PendingTable::new(),
        upstreams: upstreams.collect(),
        attempt_timeout,
        capacity: config.queue_capacity.max(1),
        touched: Vec::new(),
        scratch: vec![0; 16 * 1024].into_boxed_slice(),
        frames: Vec::new(),
        job_tx,
        control: control.clone(),
        handler,
        completion_rx,
        clock: metrics.registry.clock().clone(),
        metrics,
        request_timeout: config.request_timeout,
        max_line_bytes: config.max_line_bytes.max(1),
        max_consecutive_errors: config.max_consecutive_errors.max(1),
        shed_retry_after_ms: config.shed_retry_after.as_millis() as u64,
        draining: false,
    };
    let mut threads = vec![std::thread::spawn(move || reactor.run())];
    threads.extend(workers);
    Ok(NetHandle { control, threads })
}

/// Running-layer handle: thread ownership plus the [`Control`].
/// Dropping it un-joined triggers the drain without waiting.
pub struct NetHandle {
    control: Arc<Control>,
    /// The reactor first, then the workers.
    threads: Vec<JoinHandle<()>>,
}

impl NetHandle {
    /// The layer's control handle.
    pub fn control(&self) -> &Arc<Control> {
        &self.control
    }

    /// Wait until the layer has fully drained and every thread exited.
    pub fn join(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for NetHandle {
    fn drop(&mut self) {
        self.control.shutdown();
    }
}

fn worker_loop<H: Handler>(
    handler: &H,
    control: &Control,
    metrics: &NetMetrics,
    completion_tx: &Sender<Completion>,
) {
    // cbes-analyze: allow(blocking_hot_path, the worker's idle park on the shared job queue is the designed wait point; the reactor never calls recv)
    while let Ok(jobs) = control.queue.recv() {
        control.busy.fetch_add(1, Ordering::AcqRel);
        for job in jobs {
            let completion = match job {
                Job::Frame {
                    token,
                    seq,
                    line,
                    admitted,
                } => {
                    control.waiting.fetch_sub(1, Ordering::AcqRel);
                    let waited = metrics.registry.clock().now().saturating_sub(admitted);
                    metrics.queue_wait.record_duration(waited);
                    let (bytes, malformed) = handler.execute(&line);
                    Completion::Reply {
                        token,
                        seq,
                        bytes,
                        malformed,
                    }
                }
                Job::Dial(i, addr, timeout) => {
                    Completion::Dialled(i, crate::client::dial(addr.as_str(), timeout))
                }
            };
            let _ = completion_tx.send(completion);
            control.wake();
        }
        control.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The event loop: owns the listener, the wake receiver, and every
/// connection; everything here runs on the one reactor thread.
struct Reactor<H: Handler> {
    poller: Poller,
    listener: TcpListener,
    wake_rx: TcpStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    next_seq: u64,
    pending: PendingTable,
    upstreams: Vec<Upstream>,
    /// Deadline for one upstream dial and for one attempt's reply.
    attempt_timeout: Duration,
    /// `queue_capacity`: most frames admitted but not picked up (see
    /// [`Control::queue_depth`]), and most requests in flight before a
    /// relayed frame is shed.
    capacity: usize,
    /// Connections with output queued since the last flush pass.
    touched: Vec<u64>,
    /// Every connection's socket reads land here, 16 KiB at a time.
    scratch: Box<[u8]>,
    /// The frames one read completed, handled before the next read.
    frames: Vec<FrameEvent>,
    job_tx: Sender<Vec<Job>>,
    control: Arc<Control>,
    handler: Arc<H>,
    completion_rx: Receiver<Completion>,
    /// The metrics registry's clock, which every deadline reads.
    clock: Clock,
    metrics: Arc<NetMetrics>,
    request_timeout: Duration,
    max_line_bytes: usize,
    max_consecutive_errors: u32,
    shed_retry_after_ms: u64,
    draining: bool,
}

impl<H: Handler> Reactor<H> {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            if self.control.is_shutting_down() {
                self.begin_drain();
                // Output still queued for an upstream answers nobody.
                let flushed = |c: &Conn| c.upstream.is_some() || c.wbuf.is_empty();
                if self.pending.is_empty() && self.conns.values().all(flushed) {
                    break;
                }
            }
            let mut timeout = POLL_INTERVAL;
            if let Some(deadline) = self.pending.next_deadline() {
                timeout = timeout.min(deadline.saturating_sub(self.clock.now()));
            }
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                // cbes-analyze: allow(blocking_hot_path, 1ms backoff after a poll error prevents a hot error spin; bounded and only on the failure path)
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if !events.is_empty() {
                self.metrics.loop_wakeups.incr();
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    token => {
                        if ev.readable {
                            self.conn_readable(token);
                        }
                        if ev.writable {
                            self.flush_conn(token);
                        }
                    }
                }
            }
            self.drain_completions();
            self.expire_pending();
            // One write per connection for everything the batch queued:
            // worker replies, relayed replies, frames for upstreams.
            let mut touched = std::mem::take(&mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            for token in touched {
                self.flush_conn(token);
            }
        }
        // Dropping self drops the job queue's sender; workers exit on
        // the disconnect. The listener and every connection close with it.
    }

    /// Stop accepting: deregister (and thereby stop watching) the
    /// listener once the drain begins.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        let _ = self.poller.deregister(self.listener.as_raw_fd());
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.control.is_shutting_down() {
                        // Draining: close post-shutdown connections
                        // immediately (the drop is the reply).
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        continue;
                    }
                    self.metrics.connections.incr();
                    self.conns.insert(token, Conn::new(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Drain the wake bytes workers wrote; the signal's work — the
    /// completion queue — is drained by the caller afterwards.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        let mut rx = &self.wake_rx;
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Read what the socket has, a chunk at a time: each chunk's frames
    /// are handled and their replies flushed before more input is taken,
    /// so a pipelined peer has its first window's answers while the
    /// second is worked on. A client whose replies are piling up unread
    /// is not read further: what it has already sent waits in the
    /// kernel until [`Self::update_interest`] sees the output drain.
    fn conn_readable(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let upstream = conn.upstream;
            if upstream.is_none() && conn.unflushed() >= FLUSH_HIGH_WATER {
                break;
            }
            // An upstream's replies are its own to size; a client's
            // frames are capped.
            let cap = upstream.map_or(self.max_line_bytes, |_| usize::MAX);
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.eof = true;
                    let residual = conn.frames.take_residual();
                    self.frames.extend(residual.map(FrameEvent::Line));
                }
                Ok(n) => {
                    let chunk = self.scratch.get(..n).unwrap_or(&[]);
                    conn.frames.ingest(chunk, cap, &mut self.frames);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
            let eof = conn.eof;
            let mut frames = std::mem::take(&mut self.frames);
            for frame in frames.drain(..) {
                match (frame, upstream) {
                    (FrameEvent::Line(line), None) => self.handle_line(token, &line),
                    (FrameEvent::Line(line), Some(i)) => self.upstream_line(i, &line),
                    (FrameEvent::Oversized, None) => self.reply_frame_too_large(token),
                    (FrameEvent::Oversized, Some(_)) => {}
                }
            }
            self.frames = frames;
            // Also updates interest (EOF drops read interest so a
            // half-closed socket stops waking the loop) and closes the
            // connection if it is already fully answered.
            self.flush_conn(token);
            if eof {
                break;
            }
        }
    }

    /// Route one complete frame: relayed, run inline, or through
    /// admission control to a worker.
    fn handle_line(&mut self, token: u64, line: &[u8]) {
        let text = frame_text(line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let draining = self.control.is_shutting_down();
        // While draining nothing new is relayed: admission sheds it.
        let forward = if draining {
            None
        } else {
            self.handler.relay(trimmed)
        };
        if let Some(forward) = forward {
            return self.relay(token, seq, forward);
        }
        // Inline fast path: when nothing is pending or queued and a
        // worker is free, a bounded-cost request is cheaper to run
        // right here than to bounce through two thread handoffs (which
        // dominate the round trip — the eval itself is microseconds).
        if !draining && self.pool_idle(token) {
            if let Some((bytes, malformed)) = self.handler.inline(trimmed) {
                // The worker path records queue wait at pickup; inline
                // pickup is immediate, so the sample is zero by definition.
                self.metrics.queue_wait.record_duration(Duration::ZERO);
                self.queue_reply(token, &bytes, malformed);
                return;
            }
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let (running, room) = (conn.running > 0, self.control.queue_depth() < self.capacity);
        let (held, waiting) = (&mut conn.held, &self.control.waiting);
        // Behind a frame of its own connection, a frame is held, not
        // queued: one connection's frames run one at a time, in order.
        let send = |job| {
            if !room {
                return Err(TrySendError::Full(Vec::new()));
            }
            waiting.fetch_add(1, Ordering::AcqRel);
            if running {
                held.push(job);
                return Ok(());
            }
            self.job_tx.try_send(vec![job])
        };
        let admitted = try_admit(
            trimmed,
            send,
            (token, seq),
            draining,
            &self.metrics,
            self.shed_retry_after_ms,
        );
        match admitted {
            Ok(id) => {
                conn.running = conn.running.max(1);
                conn.lanes[WORKER_LANE].push_back((seq, None));
                let pending = Pending {
                    token,
                    id,
                    relay: None,
                };
                let deadline = self.clock.now() + self.request_timeout;
                self.pending.insert(seq, pending, deadline);
            }
            Err(shed) => self.queue_reply(token, &encode_line(&shed), false),
        }
    }

    /// One of connection `token`'s worker-run frames finished. Once
    /// none runs, the frames held meanwhile go to one worker as a run.
    fn finished(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.running = conn.running.saturating_sub(1);
        if conn.running == 0 && !conn.held.is_empty() {
            let run = std::mem::take(&mut conn.held);
            conn.running = run.len();
            // Only a dead pool refuses it; the frames then time out.
            let _ = self.job_tx.try_send(run);
        }
    }

    /// No reply is pending, no job is queued, a worker is free, and
    /// none still runs connection `token`'s last frame: the only state
    /// in which the reactor offers a frame to [`Handler::inline`].
    fn pool_idle(&self, token: u64) -> bool {
        let busy = self.control.busy.load(Ordering::Acquire);
        let running = self.conns.get(&token).is_some_and(|c| c.running > 0);
        let quiet = self.pending.is_empty() && self.job_tx.is_empty();
        quiet && busy < self.control.workers && !running
    }

    /// Admit one frame to the relay: a pending entry under the request
    /// deadline and a slot in its connection's relayed lane, then the
    /// first attempt. Past the in-flight bound it is shed instead.
    fn relay(&mut self, token: u64, seq: u64, forward: Forward) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if self.pending.len() >= self.capacity {
            self.metrics.shed_overloaded();
            let reply = shed(
                forward.id,
                error_kind::OVERLOADED,
                "admission queue is full",
                self.shed_retry_after_ms,
            );
            return self.queue_reply(token, &encode_line(&reply), false);
        }
        conn.lanes[RELAY_LANE].push_back((seq, None));
        let pending = Pending {
            token,
            id: forward.id,
            relay: Some(Box::new(Relayed {
                forward,
                tried: 0,
                upstream: usize::MAX,
                refusal: None,
            })),
        };
        let deadline = self.clock.now() + self.request_timeout;
        self.pending.insert(seq, pending, deadline);
        self.attempt(seq);
    }

    /// Send a relayed entry to its next candidate: behind whatever that
    /// upstream's socket has queued, or once a worker has dialled a
    /// socket. With no candidate left the entry is answered for good:
    /// with the last refusal an upstream gave, else the handler's own
    /// word.
    fn attempt(&mut self, seq: u64) {
        let Some(relayed) = self.pending.relayed_mut(seq) else {
            return;
        };
        let next = relayed.forward.candidates.get(relayed.tried).copied();
        let Some((i, upstream)) = next.and_then(|i| Some((i, self.upstreams.get_mut(i)?))) else {
            let Some(p) = self.pending.complete(seq) else {
                return;
            };
            self.metrics.errors.incr();
            let mut bytes = Vec::new();
            match p.relay.and_then(|r| r.refusal) {
                Some(tail) => push_frame(&mut bytes, p.id, &tail),
                None => bytes = self.handler.unroutable(p.id),
            }
            return self.answer_in_order(p.token, seq, bytes, false);
        };
        relayed.tried += 1;
        relayed.upstream = i;
        let attempt = relayed.tried;
        let connected = upstream.conn.and_then(|token| self.conns.get_mut(&token));
        if let Some((token, conn)) = upstream.conn.zip(connected) {
            push_frame(&mut conn.wbuf, seq, &relayed.forward.tail);
            self.touched.push(token);
        }
        let due = self.clock.now() + self.attempt_timeout;
        self.pending.deadlines.push(Reverse((due, seq, attempt)));
        if upstream.conn.is_none() && !std::mem::replace(&mut upstream.dialling, true) {
            let job = Job::Dial(i, upstream.addr.clone(), self.attempt_timeout);
            if self.job_tx.try_send(vec![job]).is_err() {
                self.dialled(i, Err(std::io::ErrorKind::WouldBlock.into()));
            }
        }
    }

    /// A dial came back. A socket's first write is every entry still
    /// waiting for it, oldest first; a failure sends them all on to
    /// their next candidates.
    fn dialled(&mut self, i: usize, stream: std::io::Result<TcpStream>) {
        let Some(upstream) = self.upstreams.get_mut(i) else {
            return;
        };
        upstream.dialling = false;
        let token = self.next_token;
        let registered = stream.and_then(|stream| {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            self.poller
                .register(stream.as_raw_fd(), token, true, false)?;
            Ok(stream)
        });
        match registered {
            Ok(stream) => {
                self.next_token += 1;
                let mut conn = Conn::new(stream);
                conn.upstream = Some(i);
                for seq in self.pending.on_upstream(i) {
                    let tail = self.pending.relayed_mut(seq).map(|r| &r.forward.tail);
                    push_frame(&mut conn.wbuf, seq, tail.map_or("", String::as_str));
                }
                upstream.conn = Some(token);
                self.conns.insert(token, conn);
                self.touched.push(token);
            }
            Err(_) => self.fail_over(i),
        }
    }

    /// Upstream `i` is gone (its dial failed or its socket closed):
    /// every entry waiting on it moves to its next candidate.
    fn fail_over(&mut self, i: usize) {
        for seq in self.pending.on_upstream(i) {
            self.attempt(seq);
        }
    }

    /// One reply line from upstream `i`: matched by the sequence number
    /// it was sent under, given its client's id back, and queued as it
    /// is. A `shutting_down` refusal is not relayed but failed over.
    fn upstream_line(&mut self, i: usize, line: &[u8]) {
        let text = frame_text(line);
        let Some((seq, tail)) = split_id(text.trim()) else {
            return;
        };
        // No live entry: it timed out or its client went away. Another
        // upstream's entry: this attempt was already given up.
        let Some(relayed) = self.pending.relayed_mut(seq).filter(|r| r.upstream == i) else {
            return;
        };
        if tail.starts_with(SHUTTING_DOWN_TAIL) {
            relayed.refusal = Some(tail.to_string());
            return self.attempt(seq);
        }
        let primary = relayed.forward.primary == i;
        let Some(p) = self.pending.complete(seq) else {
            return;
        };
        self.handler.relayed(i, primary);
        let mut bytes = Vec::with_capacity(tail.len() + 32);
        push_frame(&mut bytes, p.id, tail);
        self.answer_in_order(p.token, seq, bytes, false);
    }

    /// File the final reply to admitted frame `seq` in its slot of its
    /// connection's ledger, the only way an admitted frame is answered,
    /// and queue whatever is now at the front of that lane with its
    /// reply in.
    fn answer_in_order(&mut self, token: u64, seq: u64, bytes: Vec<u8>, malformed: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let found = conn.lanes.iter_mut().enumerate().find_map(|(lane, slots)| {
            let at = slots.binary_search_by_key(&seq, |slot| slot.0).ok()?;
            Some((lane, slots.get_mut(at)?))
        });
        let Some((lane, slot)) = found else {
            return;
        };
        slot.1 = Some((bytes, malformed));
        while let Some((_, Some((bytes, malformed)))) = (self.conns.get_mut(&token))
            .and_then(|c| c.lanes.get_mut(lane)?.pop_front_if(|slot| slot.1.is_some()))
        {
            self.queue_reply(token, &bytes, malformed);
        }
        self.touched.push(token);
    }

    fn reply_frame_too_large(&mut self, token: u64) {
        self.metrics.oversized_frames.incr();
        self.metrics.errors.incr();
        let envelope = ResponseEnvelope {
            id: 0,
            response: Response::error(
                error_kind::FRAME_TOO_LARGE,
                format!("request line exceeds {} bytes", self.max_line_bytes),
            ),
        };
        self.queue_reply(token, &encode_line(&envelope), true);
    }

    /// Append a finished reply to the connection's write buffer and
    /// apply the strike rule. Deliberately does NOT flush: every caller
    /// runs inside a batch (a read's frame loop, a completion drain, an
    /// expiry sweep) and flushes once at the end, so a pipelined client
    /// costs one write syscall per batch instead of one per reply. A
    /// buffer past the high-water mark flushes eagerly anyway; if the
    /// peer is not reading, [`Self::update_interest`] then stops
    /// reading the peer, which bounds the buffer.
    fn queue_reply(&mut self, token: u64, bytes: &[u8], malformed: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if malformed {
            conn.strikes += 1;
        } else {
            conn.strikes = 0;
        }
        conn.wbuf.extend_from_slice(bytes);
        if conn.strikes >= self.max_consecutive_errors {
            self.metrics.dropped_connections.incr();
            conn.closing = true;
        }
        if conn.unflushed() >= FLUSH_HIGH_WATER {
            self.flush_conn(token);
        }
    }

    /// Write as much buffered output as the socket accepts, then settle
    /// the connection's fate: close when the strike budget is spent or
    /// the peer is gone and everything is answered, otherwise re-arm
    /// the poller with the right interest.
    fn flush_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut failed = false;
        loop {
            let chunk = match conn.wbuf.get(conn.wpos..) {
                Some(c) if !c.is_empty() => c,
                _ => break,
            };
            match conn.stream.write(chunk) {
                Ok(0) => {
                    failed = true;
                    break;
                }
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        let flushed = conn.wbuf.is_empty();
        let done = conn.closing || (conn.eof && conn.lanes.iter().all(VecDeque::is_empty));
        if failed || (flushed && done) {
            self.close_conn(token);
        } else {
            self.update_interest(token);
        }
    }

    /// Re-arm the poller for this connection: write while output is
    /// buffered; read until EOF — but not from a client that has
    /// [`FLUSH_HIGH_WATER`] of replies waiting unread, or its pipelined
    /// requests would grow the buffer without limit. An upstream is
    /// always read: its replies are what empties the reactor, and two
    /// peers that each stop reading over unsent output can wedge.
    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let backed_up = conn.upstream.is_none() && conn.unflushed() >= FLUSH_HIGH_WATER;
        let readable = !conn.eof && !backed_up;
        let writable = !conn.wbuf.is_empty();
        if conn.interest != (readable, writable) {
            conn.interest = (readable, writable);
            let _ = self
                .poller
                .modify(conn.stream.as_raw_fd(), token, readable, writable);
        }
    }

    fn close_conn(&mut self, token: u64) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        self.control
            .waiting
            .fetch_sub(conn.held.len(), Ordering::AcqRel);
        match conn.upstream {
            // Cancel in-flight requests: their late completions are
            // dropped (nobody is left to read the replies).
            None => self.pending.drop_conn(token),
            Some(i) => {
                if let Some(upstream) = self.upstreams.get_mut(i) {
                    upstream.conn = None;
                }
                self.fail_over(i);
            }
        }
    }

    /// Deliver finished worker replies to their connections, and
    /// finished dials to their upstreams.
    fn drain_completions(&mut self) {
        while let Ok(completion) = self.completion_rx.try_recv() {
            match completion {
                Completion::Reply {
                    token,
                    seq,
                    bytes,
                    malformed,
                } => {
                    // No pending entry: the request timed out (already
                    // answered) or its connection closed. Either way
                    // the reply is dropped.
                    if let Some(p) = self.pending.complete(seq) {
                        self.answer_in_order(p.token, seq, bytes, malformed);
                    }
                    self.finished(token);
                }
                Completion::Dialled(upstream, stream) => self.dialled(upstream, stream),
            }
        }
    }

    /// Answer every admitted request whose deadline passed with a
    /// `timeout` error (a late reply is dropped), and move every
    /// relayed entry whose attempt went unanswered to its next
    /// candidate.
    fn expire_pending(&mut self) {
        let (timed_out, missed) = self.pending.expire(self.clock.now());
        for (seq, p) in timed_out {
            self.metrics.timeouts.incr();
            self.metrics.errors.incr();
            let envelope = ResponseEnvelope {
                id: p.id,
                response: Response::error(
                    error_kind::TIMEOUT,
                    format!("no reply within {:?}", self.request_timeout),
                ),
            };
            self.answer_in_order(p.token, seq, encode_line(&envelope), false);
        }
        for seq in missed {
            self.attempt(seq);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{encode, encode_response, Request, RequestEnvelope};

    pub(crate) fn stats_line(id: u64) -> String {
        encode(&RequestEnvelope::new(id, Request::Stats))
    }

    /// A [`Control`] no reactor serves, for a handler under unit test.
    pub(crate) fn idle_control() -> Arc<Control> {
        let (wake_tx, _) = wake_pair().expect("loopback pair");
        Arc::new(Control {
            addr: wake_tx.local_addr().expect("connected"),
            shutdown: Arc::default(),
            wake_tx,
            workers: 0,
            queue: channel::bounded(1).1,
            waiting: AtomicUsize::new(0),
            busy: AtomicUsize::new(0),
        })
    }

    pub(crate) fn error_kind_of(envelope: &ResponseEnvelope) -> &str {
        match &envelope.response {
            Response::Error { kind, .. } => kind,
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn peek_id_reads_the_envelope_id() {
        assert_eq!(peek_id(&stats_line(7)), 7);
        assert_eq!(peek_id(&stats_line(u64::MAX)), u64::MAX);
        assert_eq!(peek_id("{\"id\" : 42, \"request\":\"Stats\"}"), 42);
        assert_eq!(
            peek_id("{\"id\":07,\"request\":\"Stats\"}"),
            7,
            "lenient, as the parser is"
        );
        assert_eq!(peek_id("{not json"), 0, "no id to find");
        assert_eq!(peek_id("{\"request\":\"Stats\"}"), 0, "missing id");
        assert_eq!(peek_id("{\"id\":\"x\"}"), 0, "non-numeric id");
    }

    #[test]
    fn peek_id_is_not_fooled_by_an_id_spelled_inside_a_value() {
        let app = "{\"Compare\":{\"app\":\"\\\"id\\\":9\",\"mappings\":[]}}";
        let trailing = format!("{{\"request\":{app},\"id\":4}}");
        assert_eq!(peek_id(&trailing), 4, "{trailing}");
        let leading = format!("{{\"id\":4,\"request\":{app}}}");
        assert_eq!(peek_id(&leading), 4, "{leading}");
        // A nested object's own "id" key is not the envelope's either.
        assert_eq!(peek_id("{\"request\":{\"id\":9},\"id\":4}"), 4);
        assert_eq!(peek_id("{\"request\":{\"id\":9}}"), 0);
    }

    #[test]
    fn relayed_frames_and_refusals_keep_their_bytes_around_the_id() {
        let line = stats_line(12);
        let (id, tail) = split_id(&line).expect("canonical");
        let mut out = Vec::new();
        push_frame(&mut out, id, tail);
        assert_eq!(out, format!("{line}\n").into_bytes(), "same id, same line");
        // What a draining daemon answers is recognised unparsed.
        let tail_of = |kind| {
            let line = encode_response(&shed(3, kind, "shutting_down", 25));
            split_id(&line).expect("canonical").1.to_string()
        };
        assert!(tail_of(error_kind::SHUTTING_DOWN).starts_with(SHUTTING_DOWN_TAIL));
        assert!(!tail_of(error_kind::OVERLOADED).starts_with(SHUTTING_DOWN_TAIL));
    }

    #[test]
    fn try_admit_queues_with_the_peeked_id() {
        let (tx, rx) = channel::bounded::<Job>(1);
        let send = |job| tx.try_send(job);
        let m = NetMetrics::new(&Arc::new(Registry::new()));
        let admitted = try_admit(&stats_line(3), send, (0, 11), false, &m, 25);
        assert_eq!(admitted.expect("an empty queue admits"), 3);
        match rx.recv().expect("the job was queued") {
            Job::Frame { seq, line, .. } => assert_eq!((seq, line), (11, stats_line(3))),
            Job::Dial(..) => panic!("admission queues frames"),
        }
        assert_eq!(m.errors.get(), 0);
    }

    #[test]
    fn full_queue_is_answered_with_overloaded() {
        let (tx, _rx) = channel::bounded::<Job>(1);
        let send = |job| tx.try_send(job);
        let m = NetMetrics::new(&Arc::new(Registry::new()));
        try_admit(&stats_line(1), send, (0, 1), false, &m, 25).expect("first admit must queue");
        let reply = try_admit(&stats_line(7), send, (0, 2), false, &m, 25)
            .expect_err("the one-slot queue was full");
        assert_eq!(reply.id, 7, "overload reply still echoes the id");
        assert_eq!(error_kind_of(&reply), error_kind::OVERLOADED);
        assert_eq!(m.overloaded.get(), 1);
        match &reply.response {
            Response::Error { retry_after_ms, .. } => {
                assert_eq!(*retry_after_ms, 25, "shed replies carry the back-off hint");
            }
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn shed_spike_fires_once_at_the_crossing_of_one_seconds_tally() {
        let clock = Clock::manual();
        let registry = Arc::new(Registry::with_clock(clock.clone()));
        let m = NetMetrics::new(&registry);
        let flight = registry.flight();
        clock.advance(Duration::from_millis(3_100));
        for _ in 1..SHED_SPIKE_DEFAULT {
            assert!(m.shed_overloaded().is_none());
        }
        assert_eq!(flight.recorded(), 0, "below the threshold: no event");
        clock.advance(Duration::from_millis(800));
        let dump = m.shed_overloaded();
        let events = flight.snapshot();
        assert_eq!(events.len(), 1, "the crossing is one event");
        assert_eq!(events[0].kind, "shed_spike");
        assert_eq!(events[0].detail, "8 requests shed in the last second");
        assert_eq!(events[0].at_us, 3_900_000);
        // Above the threshold the trigger only asks for the (debounced)
        // dump again.
        assert!(m.shed_overloaded().is_none());
        assert_eq!(flight.recorded(), 1);
        // A later second starts from one, wherever the last one ended.
        clock.advance(Duration::from_millis(100));
        for _ in 1..SHED_SPIKE_DEFAULT {
            assert!(m.shed_overloaded().is_none());
        }
        assert_eq!(flight.recorded(), 1, "7 sheds in second 4 are no spike");
        assert_eq!(m.overloaded.get(), 2 * SHED_SPIKE_DEFAULT);
        std::fs::remove_file(dump.expect("the crossing dumps")).ok();
    }

    #[test]
    fn draining_or_disconnected_queue_means_shutting_down() {
        let (tx, rx) = channel::bounded::<Job>(1);
        let send = |job| tx.try_send(job);
        let m = NetMetrics::new(&Arc::new(Registry::new()));
        // Draining sheds without consuming a queue slot.
        let reply = try_admit(&stats_line(5), send, (0, 1), true, &m, 25)
            .expect_err("a draining server must not admit");
        assert_eq!(reply.id, 5);
        assert_eq!(error_kind_of(&reply), error_kind::SHUTTING_DOWN);
        assert_eq!(rx.len(), 0);
        // A disconnected queue (workers gone) sheds the same way.
        drop(rx);
        let reply = try_admit(&stats_line(6), send, (0, 2), false, &m, 25)
            .expect_err("a dead queue must not admit");
        assert_eq!(error_kind_of(&reply), error_kind::SHUTTING_DOWN);
    }

    #[test]
    fn pending_table_completes_expires_and_cancels() {
        let mut t = PendingTable::new();
        let now = Duration::from_secs(1);
        let entry = |token, id| Pending {
            token,
            id,
            relay: None,
        };
        t.insert(1, entry(100, 11), now + Duration::from_millis(10));
        t.insert(2, entry(100, 12), now + Duration::from_secs(60));
        t.insert(3, entry(200, 13), now + Duration::from_secs(60));
        assert_eq!(t.next_deadline(), Some(now + Duration::from_millis(10)));
        let p = t.complete(1).expect("live entry");
        assert_eq!((p.token, p.id), (100, 11));
        assert!(t.complete(1).is_none(), "a reply is delivered exactly once");
        t.drop_conn(200);
        assert!(t.complete(3).is_none(), "cancelled with its connection");
        assert!(t.expire(now).0.is_empty(), "nothing is due yet");
        let (due, _) = t.expire(now + Duration::from_secs(120));
        assert_eq!(due.len(), 1, "only the live entry expires");
        assert_eq!(due.first().map(|(seq, p)| (*seq, p.id)), Some((2, 12)));
        assert!(t.is_empty());
        assert_eq!(t.next_deadline(), None, "the heap backlog is cleared");
    }

    #[test]
    fn pending_table_tells_a_missed_attempt_from_a_missed_deadline() {
        let mut t = PendingTable::new();
        let ms = Duration::from_millis;
        let now = ms(1_000);
        let forward = Forward {
            id: 11,
            tail: String::new(),
            candidates: vec![0, 1],
            primary: 0,
            span: None,
        };
        let relayed = Relayed {
            forward,
            tried: 1,
            upstream: 0,
            refusal: None,
        };
        let pending = Pending {
            token: 100,
            id: 11,
            relay: Some(Box::new(relayed)),
        };
        t.insert(1, pending, now + ms(100));
        t.deadlines.push(Reverse((now + ms(5), 1, 1)));
        assert_eq!(t.on_upstream(0), [1]);
        assert!(t.on_upstream(1).is_empty());
        assert_eq!(t.expire(now + ms(5)).1, [1], "the first attempt's time");
        // The entry moved on: the first attempt's time no longer counts.
        let r = t.relayed_mut(1).expect("still live");
        (r.upstream, r.tried) = (1, 2);
        t.deadlines.push(Reverse((now + ms(5), 1, 1)));
        t.deadlines.push(Reverse((now + ms(50), 1, 2)));
        assert!(t.expire(now + ms(10)).1.is_empty(), "given up already");
        assert_eq!(t.expire(now + ms(50)).1, [1]);
        let (timed_out, missed) = t.expire(now + ms(100));
        assert!(missed.is_empty() && timed_out.len() == 1 && t.is_empty());
    }

    /// The newline search against the byte walk it replaced: strings of
    /// every length up to 40 with a newline at every offset up to 17,
    /// some with more in the same word, from every start alignment.
    #[test]
    fn newline_search_agrees_with_a_byte_walk() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(40);
        for (len, at) in (0..=40usize).flat_map(|len| (0..=17usize).map(move |at| (len, at))) {
            let mut bytes: Vec<u8> = (0..len)
                .map(|_| rng.random_range(0u32..256) as u8)
                .collect();
            for extra in [0, 1, 3, 7].into_iter().take(rng.random_range(1usize..5)) {
                if let Some(b) = bytes.get_mut(at + extra) {
                    *b = b'\n';
                }
            }
            for tail in (0..=len.min(8)).filter_map(|start| bytes.get(start..)) {
                let walk = tail.iter().position(|&b| b == b'\n');
                assert_eq!(find_newline(tail), walk, "{tail:?}");
            }
        }
    }

    #[test]
    fn frame_buf_reassembles_split_and_pipelined_frames() {
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        fb.ingest(b"{\"id\":1}\n{\"id\"", 1024, &mut out);
        fb.ingest(b":2}\n{\"id\":3}", 1024, &mut out);
        fb.ingest(b"\n", 1024, &mut out);
        let lines: Vec<String> = out
            .iter()
            .map(|f| match f {
                FrameEvent::Line(l) => String::from_utf8_lossy(l).to_string(),
                FrameEvent::Oversized => panic!("no oversized frames here"),
            })
            .collect();
        assert_eq!(lines, ["{\"id\":1}", "{\"id\":2}", "{\"id\":3}"]);
        assert!(fb.take_residual().is_none());
    }

    #[test]
    fn frame_buf_discards_oversized_frames_to_the_next_newline() {
        let mut fb = FrameBuf::new();
        let mut out = Vec::new();
        // A frame that never ends trips the cap mid-stream...
        fb.ingest(&[b'x'; 2000], 1024, &mut out);
        assert!(matches!(out.as_slice(), [FrameEvent::Oversized]));
        // ...its tail is discarded up to the newline, then service resumes.
        out.clear();
        fb.ingest(b"tail of the huge frame\nok\n", 1024, &mut out);
        match out.as_slice() {
            [FrameEvent::Line(l)] => assert_eq!(l.as_slice(), b"ok"),
            other => panic!("expected one line, got {} events", other.len()),
        }
        // A complete (newline-terminated) over-cap frame needs no
        // discard state at all.
        out.clear();
        let mut big = vec![b'y'; 2000];
        big.push(b'\n');
        big.extend_from_slice(b"{\"id\":9}\n");
        fb.ingest(&big, 1024, &mut out);
        assert!(matches!(
            out.as_slice(),
            [FrameEvent::Oversized, FrameEvent::Line(_)]
        ));
    }
}
