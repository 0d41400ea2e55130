//! The connection state machine with no I/O of its own: what the reactor
//! decides, apart from the sockets, threads and clock it decides about.
//!
//! A driver feeds the [`Core`] events — a peer accepted, bytes read, a
//! socket written or failed, a worker's job done, an upstream dialled,
//! the drain begun, the clock moved — each with `now` from the registry
//! clock, and carries out the [`Action`]s it returns: write a
//! connection's output, change its interest, close it, hand jobs to a
//! worker, dial an upstream. The core owns every connection's protocol
//! state (reassembly, write buffer, the two-lane reply ledger, held runs,
//! strikes), the [`PendingTable`] of deadlines, every upstream link with
//! the relays and scatters on it, the heartbeat, admission and the
//! drain; its next deadline is the driver's only timer. Every admitted
//! frame carries one [`Stages`] record from its first byte to its
//! reply's last, stamped with those events' `now`. `net.rs` holds the
//! epoll driver; `crates/server/tests/common/sim.rs` a seeded
//! single-threaded one.

use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::BufRead;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbes_obs::names::{self, Name};

use super::{encode_line, Forward, Handler, NetMetrics, Route, Scatter};
use crate::protocol::{error_kind, split_id, Response, ResponseEnvelope};
use crate::server::ServerConfig;

/// Unflushed output at which the core stops reading a client until the
/// peer drains its replies.
const FLUSH_HIGH_WATER: usize = 64 * 1024;

/// How a `shutting_down` reply continues after its id, in the encoding
/// every daemon emits: the relay fails such a reply over unparsed.
const SHUTTING_DOWN_TAIL: &str = ",\"response\":{\"Error\":{\"kind\":\"shutting_down\"";

/// The sequence number of the heartbeat's scatters, which answer no
/// admitted request (those count from 1).
const HEARTBEAT: u64 = 0;

/// What the core asks its driver to do, in order.
pub enum Action<G> {
    /// Write what [`Core::output`] holds for the connection, then report
    /// with [`Core::wrote`] (or [`Core::hung_up`]). Sent even with
    /// nothing to write: the report settles the connection's fate.
    Flush(u64),
    /// Watch the connection for reading and for writing, as given.
    Interest(u64, bool, bool),
    /// Close the connection; the core has forgotten it.
    Close(u64),
    /// Give these jobs to one worker, to run in order: one connection's
    /// frames, or one scatter's fold.
    Run(Vec<Job<G>>),
    /// Connect to upstream `.0` at `.1` within `.2`, then report with
    /// [`Core::dialled`].
    Dial(usize, String, Duration),
}

/// A stage of an admitted frame's way through the layer, in order. Each
/// is recorded in the histogram its [`STAGE_NAMES`] entry names (the
/// constant's doc says what it times) and, for a traced frame, as a leaf
/// span of that name. A forwarded frame has the last three, whose
/// `router.` names keep them apart from the daemons' in a tier-wide merge.
#[derive(Clone, Copy, Debug)]
pub enum Stage {
    Reassembly,
    QueueWait,
    Decode,
    Service,
    Encode,
    HandBack,
    Flush,
    Forwarded,
    Upstream,
    Relayed,
}

/// Each [`Stage`]'s histogram, in declaration order.
pub const STAGE_NAMES: [&Name; 10] = [
    names::SERVER_REASSEMBLY_US,
    names::SERVER_QUEUE_WAIT_US,
    names::SERVER_DECODE_US,
    names::SERVER_SERVICE_TIME_US,
    names::SERVER_ENCODE_US,
    names::SERVER_HAND_BACK_US,
    names::SERVER_FLUSH_US,
    names::ROUTER_REASSEMBLY_US,
    names::ROUTER_UPSTREAM_US,
    names::ROUTER_FLUSH_US,
];

/// One admitted frame's stamp record: when its first byte was received
/// and when each of its stages ended, on the registry clock. The core
/// stamps its events' `now`, the thread that runs the handler the
/// pickup, and the handler its decode, service and encode ends, so the
/// stages tile the frame's time from received to flushed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stages {
    /// Every stamp is whole microseconds of the registry clock.
    pub(super) received: u64,
    /// Each stage and its end, in order; at most seven happen.
    pub(super) ends: [Option<(Stage, u64)>; 7],
    /// `(trace, span, parent)`, as [`Self::join`] set them.
    pub(super) trace: (u64, u64, u64),
    /// Forwarded rather than run: its stages are the `router.` ones.
    pub(super) forwarded: bool,
}

impl Stages {
    /// Stage `stage` ended at `at`; it began where the last one ended.
    pub fn mark(&mut self, stage: Stage, at: Duration) {
        if let Some(end) = self.ends.iter_mut().find(|end| end.is_none()) {
            *end = Some((stage, at.as_micros() as u64));
        }
    }

    /// Hang the stage records under span `span` of `trace` (0: none); a
    /// forwarded frame's record writes that span too, from received to
    /// flushed, under `parent`.
    pub fn join(&mut self, trace: u64, span: u64, parent: u64) {
        self.trace = (trace, span, parent);
    }
}

/// Work for a worker, travelling from the core.
pub struct Job<G> {
    /// The connection that sent the frame (0 for a fold).
    pub(super) token: u64,
    /// The core's sequence number of the request; keys its deadline
    /// entry.
    pub(super) seq: u64,
    pub(super) work: Work<G>,
}

/// What a [`Job`] asks of the handler.
pub(super) enum Work<G> {
    /// Execute one admitted request line, with its stamp record; the
    /// worker parses it off the reactor thread.
    Frame(String, Stages),
    /// Fold what one scatter gathered, for the client's id `.0`.
    Fold(u64, G, Vec<Gathered>),
}

/// A worker's answer to one [`Job`], travelling back to the core.
pub struct Done<G> {
    pub(super) token: u64,
    pub(super) seq: u64,
    pub(super) answer: Answer<G>,
}

/// What a worker made of a [`Job`].
pub(super) enum Answer<G> {
    /// A frame's encoded reply line, newline included, whether it is a
    /// framing strike (`bad_request`), and its stamp record.
    Frame(Vec<u8>, bool, Stages),
    /// A fold's reply line, or the next phase to scatter.
    Folded(Result<Vec<u8>, Scatter<G>>),
}

/// One target of a scatter and what it came back with: its reply line,
/// or why there is none.
pub type Gathered = (usize, Result<String, Miss>);

/// Why a scatter's target gave no reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// The dial to it failed (or it is no upstream the core knows).
    Dial,
    /// Nothing came back within the attempt deadline.
    Deadline,
    /// Its link closed with the frame on it.
    HungUp,
}

impl std::fmt::Display for Miss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Miss::Dial => "dial failed",
            Miss::Deadline => "no reply within the attempt deadline",
            Miss::HungUp => "the link closed",
        })
    }
}

/// Append `{"id":<id>` + `tail` + newline: a forwarded frame or reply
/// under the id its next hop knows it by.
fn push_frame(buf: &mut Vec<u8>, id: u64, tail: &str) {
    buf.extend_from_slice(b"{\"id\":");
    serde_json::write_u64(id, buf);
    buf.extend_from_slice(tail.as_bytes());
    buf.push(b'\n');
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

/// One in-flight admitted request. The deadline lives in the table's
/// heap; the entry itself only needs routing identity and, for a
/// forwarded frame, its stamp record (a run frame's travels with its
/// job, and is put back here when the job is done).
struct Pending {
    token: u64,
    id: u64,
    stages: Option<Stages>,
}

/// One phase of a forward: the frame written once on each target's link
/// under the phase's own id, and what has come back. Kept apart from the
/// [`PendingTable`], so a phase outlives a client that hangs up or times
/// out: a verb it sent still runs once, and a scatter's fold still runs.
struct Phase<G> {
    /// The request it answers, or [`HEARTBEAT`].
    seq: u64,
    tail: String,
    /// Each target in order, with its outcome once in.
    targets: Vec<(usize, Option<Result<String, Miss>>)>,
    then: Then<G>,
}

/// What a [`Phase`] comes to.
enum Then<G> {
    /// A relay attempt, to one target: its reply goes to the client byte
    /// for byte; a refusal or a miss moves the frame on.
    Relay(Relay),
    /// A scatter: the replies go to [`Handler::gathered`] on a worker.
    Fold(G),
}

/// A relayed frame's candidates and how far down them it is.
struct Relay {
    candidates: Vec<usize>,
    /// The candidate [`Handler::relayed`] is told was the first choice.
    primary: usize,
    /// Candidates tried, the current attempt's included.
    tried: usize,
    /// An upstream's `shutting_down` reply (after its id): the answer
    /// if no later candidate does better.
    refusal: Option<String>,
}

impl<G> Phase<G> {
    /// Whether upstream `i` still owes this phase a reply.
    fn awaits(&self, i: usize) -> bool {
        self.targets.iter().any(|(t, got)| *t == i && got.is_none())
    }
}

/// The deadline ledger for admitted requests: completions consume
/// entries, expiry turns them into `timeout` replies, and a closing
/// connection cancels its entries so late replies are dropped.
struct PendingTable {
    by_seq: HashMap<u64, Pending>,
    /// Min-heap of `(deadline, seq)` with lazy deletion: completed or
    /// cancelled seqs linger here until their time pops them.
    deadlines: BinaryHeap<Reverse<(Duration, u64)>>,
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
        self.deadlines.push(Reverse((deadline, seq)));
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

    /// The earliest deadline. May be stale (a completed entry) — that
    /// only causes one early wakeup.
    fn next_deadline(&self) -> Option<Duration> {
        self.deadlines.peek().map(|Reverse((d, _))| *d)
    }

    /// Take out every entry whose deadline has passed.
    fn expire(&mut self, now: Duration) -> Vec<(u64, Pending)> {
        let mut timed_out = Vec::new();
        while let Some(Reverse((at, seq))) = self.deadlines.peek().copied() {
            if at > now {
                break;
            }
            self.deadlines.pop();
            timed_out.extend(self.by_seq.remove(&seq).map(|p| (seq, p)));
        }
        timed_out
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
    /// A complete line (newline stripped), and when its first byte was
    /// received.
    Line(Vec<u8>, Duration),
    /// A frame exceeded the length cap; its bytes are being discarded
    /// up to the next newline.
    Oversized,
}

/// Per-connection frame reassembly: accumulates bytes until a newline,
/// enforcing the length cap so a frame that never ends cannot grow
/// without bound.
struct FrameBuf {
    rbuf: Vec<u8>,
    /// When the frame being reassembled got its first byte.
    first: Duration,
    /// Discarding an oversized frame's bytes until its newline.
    discarding: bool,
}

impl FrameBuf {
    fn new() -> Self {
        FrameBuf {
            rbuf: Vec::new(),
            first: Duration::ZERO,
            discarding: false,
        }
    }

    /// Fold `chunk`, received at `now`, into the buffer, emitting an
    /// event per completed (or over-cap) frame, in wire order.
    fn ingest(&mut self, mut chunk: &[u8], now: Duration, cap: usize, out: &mut Vec<FrameEvent>) {
        if self.rbuf.is_empty() {
            self.first = now;
        }
        while let Some(i) = find_newline(chunk) {
            let head = chunk.get(..i).unwrap_or(&[]);
            chunk = chunk.get(i + 1..).unwrap_or(&[]);
            // The next frame begins in this chunk.
            let first = std::mem::replace(&mut self.first, now);
            if std::mem::take(&mut self.discarding) {
                continue;
            }
            if self.rbuf.len() + head.len() > cap {
                // The frame completed (newline seen), so no discard
                // state is needed beyond dropping it.
                self.rbuf.clear();
                out.push(FrameEvent::Oversized);
            } else {
                let mut line = std::mem::take(&mut self.rbuf);
                line.extend_from_slice(head);
                out.push(FrameEvent::Line(line, first));
            }
        }
        if self.discarding {
            return;
        }
        if self.rbuf.len() + chunk.len() > cap {
            self.rbuf.clear();
            self.discarding = true;
            out.push(FrameEvent::Oversized);
        } else {
            self.rbuf.extend_from_slice(chunk);
        }
    }

    /// The unterminated tail at EOF, treated as a final frame.
    fn take_residual(&mut self) -> Option<FrameEvent> {
        if self.discarding || self.rbuf.is_empty() {
            return None;
        }
        Some(FrameEvent::Line(std::mem::take(&mut self.rbuf), self.first))
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
/// reply line, strike bit and stamp record once they are in.
type Slot = (u64, Option<(Vec<u8>, bool, Option<Stages>)>);

/// The reply-ledger lanes of a connection's worker-run and forwarded
/// frames.
const WORKER_LANE: usize = 0;
const FORWARD_LANE: usize = 1;

/// One live connection: a client, or the link to one upstream.
struct Conn<G> {
    frames: FrameBuf,
    wbuf: Vec<u8>,
    /// Bytes of `wbuf` already written.
    wpos: usize,
    /// The stamp records of replies in `wbuf`, each with the offset just
    /// past its last byte: flushed once `wpos` reaches it.
    flushing: VecDeque<(usize, Stages)>,
    /// Consecutive malformed frames; reset by any well-formed reply,
    /// fatal past the policy budget.
    strikes: u32,
    /// Peer half-closed; finish in-flight replies, then close.
    eof: bool,
    /// Close as soon as the write buffer drains (strike budget spent).
    closing: bool,
    /// The interest last asked of the driver, to skip repeats.
    interest: (bool, bool),
    /// The reply ledger: admitted frames not yet answered, in arrival
    /// order. Replies leave a lane from the front only; worker-run and
    /// forwarded frames keep separate lanes, so neither waits for the
    /// other.
    lanes: [VecDeque<Slot>; 2],
    /// Worker-run frames handed to the pool and not back yet.
    running: usize,
    /// Worker-run frames admitted while others run, oldest first. When
    /// the last of those finishes, timed out or not, they go to one
    /// worker together.
    held: Vec<Job<G>>,
    /// `Some(i)`: not a client but the link dialled to upstream `i`.
    upstream: Option<usize>,
}

impl<G> Conn<G> {
    fn new(upstream: Option<usize>) -> Self {
        Conn {
            frames: FrameBuf::new(),
            wbuf: Vec::new(),
            wpos: 0,
            flushing: VecDeque::new(),
            strikes: 0,
            eof: false,
            closing: false,
            interest: (true, false),
            lanes: [VecDeque::new(), VecDeque::new()],
            running: 0,
            held: Vec::new(),
            upstream,
        }
    }

    /// Output bytes the peer has not taken yet.
    fn unflushed(&self) -> usize {
        self.wbuf.len().saturating_sub(self.wpos)
    }
}

/// One backend frames are forwarded to, over at most one link.
struct Upstream {
    addr: String,
    /// Token of its [`Conn`] while connected.
    conn: Option<u64>,
    /// A dial is out; with neither, the next frame starts one. Frames
    /// for it meanwhile are written when it connects.
    dialling: bool,
}

/// The reactor's state machine: every decision the event loop makes,
/// driven by events and answered with [`Action`]s.
pub struct Core<H: Handler> {
    handler: Arc<H>,
    metrics: Arc<NetMetrics>,
    conns: HashMap<u64, Conn<H::Gather>>,
    next_token: u64,
    next_seq: u64,
    pending: PendingTable,
    upstreams: Vec<Upstream>,
    /// Forwarding phases in flight, by the id their frames went out
    /// under.
    phases: BTreeMap<u64, Phase<H::Gather>>,
    /// Min-heap of `(deadline, id)` of the phases, lazily deleted.
    phase_deadlines: BinaryHeap<Reverse<(Duration, u64)>>,
    /// Deadline for one upstream dial, one relay attempt's reply and
    /// one scatter phase.
    attempt_timeout: Duration,
    /// How long after one heartbeat's fold the next is sent.
    heartbeat: Option<Duration>,
    /// When the next heartbeat is due; `None` while one is out.
    heartbeat_due: Option<Duration>,
    /// `queue_capacity`: most frames admitted but not picked up, and
    /// most requests in flight before a forwarded frame is shed.
    capacity: usize,
    workers: usize,
    /// Admitted frames no worker has picked up, queued or held: counted
    /// in here, out by the worker that picks one up (and here for the
    /// held frames of a closed connection). `Control::queue_depth`
    /// reads the same counter.
    waiting: Arc<AtomicUsize>,
    /// Jobs and dials handed to the pool that have not come back.
    in_pool: usize,
    /// Connections with output queued since the last tick.
    touched: Vec<u64>,
    /// The frames one chunk completed, handled before the next chunk.
    frames: Vec<FrameEvent>,
    actions: VecDeque<Action<H::Gather>>,
    request_timeout: Duration,
    max_line_bytes: usize,
    max_consecutive_errors: u32,
    shed_retry_after_ms: u64,
    draining: bool,
}

impl<H: Handler> Core<H> {
    pub(super) fn new(
        config: &ServerConfig,
        handler: Arc<H>,
        metrics: Arc<NetMetrics>,
        waiting: Arc<AtomicUsize>,
        workers: usize,
    ) -> Self {
        let upstreams = handler.upstreams();
        let links = upstreams.addrs.into_iter().map(|addr| Upstream {
            addr,
            conn: None,
            dialling: false,
        });
        Core {
            handler,
            metrics,
            conns: HashMap::new(),
            // Tokens 0 and 1 are the driver's own (listener, wake).
            next_token: 2,
            // From 1: id 0 on a forwarded reply is an upstream's
            // "unattributable", never one of ours.
            next_seq: 1,
            pending: PendingTable::new(),
            upstreams: links.collect(),
            phases: BTreeMap::new(),
            phase_deadlines: BinaryHeap::new(),
            attempt_timeout: upstreams.attempt_timeout,
            heartbeat: upstreams.heartbeat,
            // The first heartbeat goes out at the first tick.
            heartbeat_due: upstreams.heartbeat.map(|_| Duration::ZERO),
            capacity: config.queue_capacity.max(1),
            workers,
            waiting,
            in_pool: 0,
            touched: Vec::new(),
            frames: Vec::new(),
            actions: VecDeque::new(),
            request_timeout: config.request_timeout,
            max_line_bytes: config.max_line_bytes.max(1),
            max_consecutive_errors: config.max_consecutive_errors.max(1),
            shed_retry_after_ms: config.shed_retry_after.as_millis() as u64,
            draining: false,
        }
    }

    /// The handler this core serves; the driver's workers run it.
    pub fn handler(&self) -> &Arc<H> {
        &self.handler
    }

    /// The next thing for the driver to do, in the order decided.
    pub fn next_action(&mut self) -> Option<Action<H::Gather>> {
        self.actions.pop_front()
    }

    /// When the driver must call [`Self::tick`] next, if ever.
    pub fn next_deadline(&self) -> Option<Duration> {
        let phase = self.phase_deadlines.peek().map(|Reverse((d, _))| *d);
        let heartbeat = self.heartbeat_due.filter(|_| !self.draining);
        let due = [self.pending.next_deadline(), phase, heartbeat];
        due.into_iter().flatten().min()
    }

    /// Draining, every admitted request answered and every client's
    /// output written: the driver may stop. Output still queued for an
    /// upstream answers nobody.
    pub fn drained(&self) -> bool {
        let flushed = |c: &Conn<_>| c.upstream.is_some() || c.wbuf.is_empty();
        self.draining && self.pending.is_empty() && self.conns.values().all(flushed)
    }

    /// A peer connected: its token, or `None` while draining, when the
    /// driver closes it at once (the close is the reply).
    pub fn accepted(&mut self) -> Option<u64> {
        if self.draining {
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        self.metrics.connections.incr();
        self.conns.insert(token, Conn::new(None));
        Some(token)
    }

    /// Begin the drain: nothing new is admitted, forwarded or accepted,
    /// and no heartbeat is sent; what is already forwarded goes on. True
    /// the first time, when the driver stops listening.
    pub fn drain(&mut self) -> bool {
        !std::mem::replace(&mut self.draining, true)
    }

    /// Whether the driver should read `token` now: not once the peer
    /// half-closed, and not from a client whose replies are piling up
    /// unread — what it has sent waits with the driver until
    /// [`Self::wrote`] sees the output drain.
    pub fn wants_read(&self, token: u64) -> bool {
        self.conns.get(&token).is_some_and(|c| {
            let backed_up = c.upstream.is_none() && c.unflushed() >= FLUSH_HIGH_WATER;
            !c.eof && !backed_up
        })
    }

    /// `chunk` arrived on `token`; empty means the peer half-closed. The
    /// chunk's frames are handled and the connection flushed before the
    /// driver reads more, so a pipelined peer has its first window's
    /// answers while the second is worked on.
    pub fn received(&mut self, token: u64, chunk: &[u8], now: Duration) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let upstream = conn.upstream;
        if chunk.is_empty() {
            conn.eof = true;
            self.frames.extend(conn.frames.take_residual());
        } else {
            // An upstream's replies are its own to size; a client's
            // frames are capped.
            let cap = upstream.map_or(self.max_line_bytes, |_| usize::MAX);
            conn.frames.ingest(chunk, now, cap, &mut self.frames);
        }
        let mut frames = std::mem::take(&mut self.frames);
        for frame in frames.drain(..) {
            match (frame, upstream) {
                (FrameEvent::Line(line, first), None) => self.handle_line(token, &line, first, now),
                (FrameEvent::Line(line, _), Some(i)) => self.upstream_line(i, &line, now),
                (FrameEvent::Oversized, None) => self.reply_frame_too_large(token),
                (FrameEvent::Oversized, Some(_)) => {}
            }
        }
        self.frames = frames;
        // The flush also settles interest (EOF drops read interest so a
        // half-closed socket stops waking the loop) and closes the
        // connection if it is already fully answered.
        self.actions.push_back(Action::Flush(token));
    }

    /// What `token`'s peer has not been sent yet.
    pub fn output(&self, token: u64) -> &[u8] {
        let unsent = self.conns.get(&token).and_then(|c| c.wbuf.get(c.wpos..));
        unsent.unwrap_or(&[])
    }

    /// `token`'s peer took `n` bytes of [`Self::output`] and would take
    /// no more: every reply whose last byte that was is flushed, and its
    /// stamp record recorded. Settles the connection: closed once the
    /// strike budget is spent, or the peer is gone and everything is
    /// answered; otherwise watched for what it needs next.
    pub fn wrote(&mut self, token: u64, n: usize, now: Duration) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.wpos += n;
        while let Some((_, stages)) = conn.flushing.pop_front_if(|(end, _)| *end <= conn.wpos) {
            self.metrics.stages(stages, now);
        }
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        }
        let done = conn.closing || (conn.eof && conn.lanes.iter().all(VecDeque::is_empty));
        if conn.wbuf.is_empty() && done {
            return self.close(token, now);
        }
        // Write while output is buffered; read until EOF — but not a
        // client with `FLUSH_HIGH_WATER` of replies waiting unread. An
        // upstream is always read: its replies are what empties the
        // core, and two peers that each stop reading over unsent output
        // can wedge.
        let backed_up = conn.upstream.is_none() && conn.unflushed() >= FLUSH_HIGH_WATER;
        let interest = (!conn.eof && !backed_up, !conn.wbuf.is_empty());
        if conn.interest != interest {
            conn.interest = interest;
            let (read, write) = interest;
            self.actions.push_back(Action::Interest(token, read, write));
        }
    }

    /// `token`'s socket failed, reading or writing: it is closed.
    pub fn hung_up(&mut self, token: u64, now: Duration) {
        self.close(token, now);
    }

    /// A worker finished one job. A frame's reply is filed unless the
    /// frame timed out or its connection went away; once none of the
    /// connection's frames runs, the ones held meanwhile go to one
    /// worker as a run. A fold's reply is filed the same way, or its
    /// next phase scattered.
    pub fn completed(&mut self, done: Done<H::Gather>, now: Duration) {
        self.in_pool = self.in_pool.saturating_sub(1);
        let (reply, malformed, stages) = match done.answer {
            Answer::Frame(reply, malformed, stages) => (reply, malformed, stages),
            Answer::Folded(Err(next)) => return self.scatter(done.seq, next, now),
            Answer::Folded(Ok(_)) if done.seq == HEARTBEAT => {
                self.heartbeat_due = self.heartbeat.map(|every| now + every);
                return;
            }
            Answer::Folded(Ok(reply)) => {
                if let Some(p) = self.pending.complete(done.seq) {
                    self.answer_in_order(p, done.seq, reply, false, now);
                }
                return;
            }
        };
        if let Some(mut p) = self.pending.complete(done.seq) {
            p.stages = Some(stages);
            self.answer_in_order(p, done.seq, reply, malformed, now);
        }
        let Some(conn) = self.conns.get_mut(&done.token) else {
            return;
        };
        conn.running = conn.running.saturating_sub(1);
        if conn.running == 0 && !conn.held.is_empty() {
            let run = std::mem::take(&mut conn.held);
            conn.running = run.len();
            self.in_pool += run.len();
            self.actions.push_back(Action::Run(run));
        }
    }

    /// The dial to upstream `i` finished. Connected, its link is served
    /// under the returned token and its first write is every phase still
    /// waiting for it, oldest first; failed, they count it missed.
    pub fn dialled(&mut self, i: usize, connected: bool, now: Duration) -> Option<u64> {
        self.in_pool = self.in_pool.saturating_sub(1);
        let upstream = self.upstreams.get_mut(i)?;
        upstream.dialling = false;
        if !connected {
            self.missed(i, Miss::Dial, now);
            return None;
        }
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn::new(Some(i));
        for (&id, phase) in self.phases.iter().filter(|(_, p)| p.awaits(i)) {
            push_frame(&mut conn.wbuf, id, &phase.tail);
        }
        upstream.conn = Some(token);
        self.conns.insert(token, conn);
        self.touched.push(token);
        Some(token)
    }

    /// The clock reads `now`: every admitted request whose deadline
    /// passed is answered with a `timeout` error (a late reply is
    /// dropped), every phase past its attempt deadline concludes with
    /// what it has, a heartbeat due is sent, and every connection with
    /// new output is flushed — one write for everything queued since the
    /// last tick.
    pub fn tick(&mut self, now: Duration) {
        for (seq, p) in self.pending.expire(now) {
            self.metrics.timeouts.incr();
            self.metrics.errors.incr();
            let envelope = ResponseEnvelope {
                id: p.id,
                response: Response::error(
                    error_kind::TIMEOUT,
                    format!("no reply within {:?}", self.request_timeout),
                ),
            };
            // A run frame's handler never answered, so it has no record;
            // a forwarded frame's upstream stage ends at the deadline.
            let stages = p.stages.filter(|s| s.forwarded);
            let p = Pending { stages, ..p };
            self.answer_in_order(p, seq, encode_line(&envelope), false, now);
        }
        while let Some(&Reverse((at, id))) = self.phase_deadlines.peek() {
            if at > now {
                break;
            }
            self.phase_deadlines.pop();
            self.conclude(id, now);
        }
        if !self.draining && self.heartbeat_due.is_some_and(|due| due <= now) {
            self.heartbeat_due = None;
            if let Some(probe) = self.handler.probe() {
                self.scatter(HEARTBEAT, probe, now);
            }
        }
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        self.actions.extend(touched.drain(..).map(Action::Flush));
        self.touched = touched;
    }

    /// Route one complete frame: forwarded, run inline, or through
    /// admission to a worker.
    fn handle_line(&mut self, token: u64, line: &[u8], received: Duration, now: Duration) {
        let text = frame_text(line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            return;
        }
        let mut stages = Stages {
            received: received.as_micros() as u64,
            ..Stages::default()
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        if !self.draining {
            if let Some(forward) = self.handler.forward(trimmed, &mut stages) {
                stages.forwarded = true;
                stages.mark(Stage::Forwarded, now);
                return self.forward(token, seq, forward, stages, now);
            }
            stages.mark(Stage::Reassembly, now);
            // Inline fast path: when the pool is idle, a bounded-cost
            // request is cheaper to run right here than to bounce
            // through two thread handoffs (which dominate the round trip
            // — the eval itself is microseconds). It is picked up as it
            // is admitted.
            if self.pool_idle(token) {
                let mut ran = stages;
                ran.mark(Stage::QueueWait, now);
                if let Some((bytes, malformed)) = self.handler.inline(trimmed, &mut ran) {
                    return self.queue_reply(token, &bytes, malformed, Some(ran));
                }
            }
        }
        self.admit(token, seq, trimmed, stages, now);
    }

    /// Admission, one decision: shed `shutting_down` while draining and
    /// `overloaded` once `queue_capacity` frames wait for a worker,
    /// whichever connections sent them; otherwise the frame takes a slot
    /// in its connection's ledger and a deadline, and goes to the pool —
    /// or, behind a frame of its own connection, is held: one
    /// connection's frames run one at a time, in order. Either reply
    /// echoes the peeked envelope id.
    fn admit(&mut self, token: u64, seq: u64, line: &str, stages: Stages, now: Duration) {
        let id = peek_id(line);
        let refusal = if self.draining {
            self.metrics.errors.incr();
            Some((error_kind::SHUTTING_DOWN, "server is draining"))
        } else if self.waiting.load(Ordering::Acquire) >= self.capacity {
            self.metrics.shed_overloaded(now);
            Some((error_kind::OVERLOADED, "admission queue is full"))
        } else {
            None
        };
        if let Some((kind, message)) = refusal {
            let reply = shed(id, kind, message, self.shed_retry_after_ms);
            return self.queue_reply(token, &encode_line(&reply), false, None);
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        self.waiting.fetch_add(1, Ordering::AcqRel);
        let job = Job {
            token,
            seq,
            work: Work::Frame(line.to_string(), stages),
        };
        if conn.running > 0 {
            conn.held.push(job);
        } else {
            conn.running = 1;
            self.in_pool += 1;
            self.actions.push_back(Action::Run(vec![job]));
        }
        conn.lanes[WORKER_LANE].push_back((seq, None));
        let pending = Pending {
            token,
            id,
            stages: None,
        };
        self.pending
            .insert(seq, pending, now + self.request_timeout);
    }

    /// No reply is pending, fewer jobs are out than there are workers,
    /// and none is connection `token`'s: the only state in which the
    /// core offers a frame to [`Handler::inline`]. A frame that timed
    /// out but still runs on a worker keeps that worker, not the pool.
    fn pool_idle(&self, token: u64) -> bool {
        let running = self.conns.get(&token).is_some_and(|c| c.running > 0);
        self.pending.is_empty() && self.in_pool < self.workers && !running
    }

    /// Admit one frame to forwarding: a pending entry under the request
    /// deadline and a slot in its connection's forwarded lane, then the
    /// relay's first attempt or the scatter's first phase. Past the
    /// in-flight bound it is shed instead.
    fn forward(
        &mut self,
        token: u64,
        seq: u64,
        forward: Forward<H::Gather>,
        stages: Stages,
        now: Duration,
    ) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if self.pending.len() >= self.capacity {
            self.metrics.shed_overloaded(now);
            let reply = shed(
                forward.id,
                error_kind::OVERLOADED,
                "admission queue is full",
                self.shed_retry_after_ms,
            );
            return self.queue_reply(token, &encode_line(&reply), false, None);
        }
        conn.lanes[FORWARD_LANE].push_back((seq, None));
        let pending = Pending {
            token,
            id: forward.id,
            stages: Some(stages),
        };
        self.pending
            .insert(seq, pending, now + self.request_timeout);
        match forward.route {
            Route::Relay {
                tail,
                candidates,
                primary,
            } => {
                let relay = Relay {
                    candidates,
                    primary,
                    tried: 0,
                    refusal: None,
                };
                self.attempt(seq, tail, relay, now);
            }
            Route::Scatter(scatter) => self.scatter(seq, scatter, now),
        }
    }

    /// Send a relayed frame to its next candidate, as a phase of one
    /// target. With no candidate left it is answered for good: with the
    /// last refusal an upstream gave, else the handler's own word. A
    /// frame whose request timed out or whose client left goes no
    /// further.
    fn attempt(&mut self, seq: u64, tail: String, mut relay: Relay, now: Duration) {
        if !self.pending.by_seq.contains_key(&seq) {
            return;
        }
        if let Some(&i) = relay.candidates.get(relay.tried) {
            relay.tried += 1;
            return self.phase(seq, tail, vec![i], Then::Relay(relay), now);
        }
        let Some(p) = self.pending.complete(seq) else {
            return;
        };
        self.metrics.errors.incr();
        let mut bytes = Vec::new();
        match relay.refusal {
            Some(refusal) => push_frame(&mut bytes, p.id, &refusal),
            None => bytes = self.handler.unroutable(p.id),
        }
        self.answer_in_order(p, seq, bytes, false, now);
    }

    fn scatter(&mut self, seq: u64, scatter: Scatter<H::Gather>, now: Duration) {
        let then = Then::Fold(scatter.state);
        self.phase(seq, scatter.tail, scatter.targets, then, now);
    }

    /// Write one phase once on each target's link (or once a dial
    /// connects it), under an id of its own, with no re-send: a verb
    /// that must run once runs at most once per target. It concludes
    /// when every target has answered or missed, or at the attempt
    /// deadline, whichever is first.
    fn phase(
        &mut self,
        seq: u64,
        tail: String,
        to: Vec<usize>,
        then: Then<H::Gather>,
        now: Duration,
    ) {
        let id = self.next_seq;
        self.next_seq += 1;
        let mut targets = Vec::with_capacity(to.len());
        for i in to {
            let sent = self.send(i, id, &tail);
            targets.push((i, (!sent).then_some(Err(Miss::Dial))));
        }
        let waiting = targets.iter().any(|(_, got)| got.is_none());
        let phase = Phase {
            seq,
            tail,
            targets,
            then,
        };
        self.phases.insert(id, phase);
        match waiting {
            true => (self.phase_deadlines).push(Reverse((now + self.attempt_timeout, id))),
            false => self.conclude(id, now),
        }
    }

    /// Write frame `id` on upstream `i`'s link, or start the dial whose
    /// link [`Self::dialled`] writes it on. False if there is no
    /// upstream `i`.
    fn send(&mut self, i: usize, id: u64, tail: &str) -> bool {
        let Some(upstream) = self.upstreams.get_mut(i) else {
            return false;
        };
        match upstream
            .conn
            .and_then(|token| Some((token, self.conns.get_mut(&token)?)))
        {
            Some((token, conn)) => {
                push_frame(&mut conn.wbuf, id, tail);
                self.touched.push(token);
            }
            None if !std::mem::replace(&mut upstream.dialling, true) => {
                self.in_pool += 1;
                let dial = Action::Dial(i, upstream.addr.clone(), self.attempt_timeout);
                self.actions.push_back(dial);
            }
            None => {}
        }
        true
    }

    /// Upstream `i` will not answer what it owes (its dial failed or its
    /// link closed): each phase waiting on it counts `miss` for it, and
    /// one with nothing left to wait for concludes.
    fn missed(&mut self, i: usize, miss: Miss, now: Duration) {
        let mut complete = Vec::new();
        for (&id, phase) in self.phases.iter_mut().filter(|(_, p)| p.awaits(i)) {
            let owed = phase
                .targets
                .iter_mut()
                .filter(|(t, got)| *t == i && got.is_none());
            owed.for_each(|(_, got)| *got = Some(Err(miss)));
            if phase.targets.iter().all(|(_, got)| got.is_some()) {
                complete.push(id);
            }
        }
        for id in complete {
            self.conclude(id, now);
        }
    }

    /// Phase `id` has every outcome it will get; a target that still
    /// owes a reply missed it, and a later reply is dropped. A relay
    /// attempt moves on; a scatter goes to a worker to fold.
    fn conclude(&mut self, id: u64, now: Duration) {
        let Some(phase) = self.phases.remove(&id) else {
            return;
        };
        if self.phases.is_empty() {
            self.phase_deadlines.clear();
        }
        let state = match phase.then {
            Then::Relay(relay) => return self.attempt(phase.seq, phase.tail, relay, now),
            Then::Fold(state) => state,
        };
        let client = self.pending.by_seq.get(&phase.seq).map_or(0, |p| p.id);
        let missed = |got: Option<_>| got.unwrap_or(Err(Miss::Deadline));
        let replies = phase.targets.into_iter();
        let replies = replies.map(|(i, got)| (i, missed(got))).collect();
        self.in_pool += 1;
        self.actions.push_back(Action::Run(vec![Job {
            token: 0,
            seq: phase.seq,
            work: Work::Fold(client, state, replies),
        }]));
    }

    /// One reply line from upstream `i`, matched by the id it was sent
    /// under to a phase that still waits for `i`. A scatter keeps it for
    /// the fold. A relay gives it its client's id back and queues it as
    /// it is, but a `shutting_down` refusal is not relayed: the frame
    /// moves on.
    fn upstream_line(&mut self, i: usize, line: &[u8], now: Duration) {
        let text = frame_text(line);
        let Some((id, tail)) = split_id(text.trim()) else {
            return;
        };
        // No phase waits for it: the attempt or the phase was given up.
        let Some(phase) = self.phases.get_mut(&id).filter(|p| p.awaits(i)) else {
            return;
        };
        let relay = match &mut phase.then {
            Then::Relay(relay) => relay,
            Then::Fold(_) => {
                let owed = phase
                    .targets
                    .iter_mut()
                    .find(|(t, got)| *t == i && got.is_none());
                if let Some((_, got)) = owed {
                    *got = Some(Ok(text.trim().to_string()));
                }
                if phase.targets.iter().all(|(_, got)| got.is_some()) {
                    self.conclude(id, now);
                }
                return;
            }
        };
        if tail.starts_with(SHUTTING_DOWN_TAIL) {
            relay.refusal = Some(tail.to_string());
            return self.conclude(id, now);
        }
        let (seq, primary) = (phase.seq, relay.primary == i);
        self.phases.remove(&id);
        let Some(p) = self.pending.complete(seq) else {
            return;
        };
        self.handler.relayed(i, primary);
        let mut bytes = Vec::with_capacity(tail.len() + 32);
        push_frame(&mut bytes, p.id, tail);
        self.answer_in_order(p, seq, bytes, false, now);
    }

    /// File the final reply to admitted frame `seq`, answered at `now`,
    /// in its slot of its connection's ledger, the only way an admitted
    /// frame is answered, and queue whatever is now at the front of that
    /// lane with its reply in. Its record's hand-back (a forwarded
    /// frame's upstream) stage ends here.
    fn answer_in_order(&mut self, p: Pending, seq: u64, line: Vec<u8>, bad: bool, now: Duration) {
        let (token, mut stages) = (p.token, p.stages);
        if let Some(s) = &mut stages {
            let answered = match s.forwarded {
                true => Stage::Upstream,
                false => Stage::HandBack,
            };
            s.mark(answered, now);
        }
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
        slot.1 = Some((line, bad, stages));
        while let Some((_, Some((bytes, malformed, stages)))) = (self.conns.get_mut(&token))
            .and_then(|c| c.lanes.get_mut(lane)?.pop_front_if(|slot| slot.1.is_some()))
        {
            self.queue_reply(token, &bytes, malformed, stages);
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
        self.queue_reply(token, &encode_line(&envelope), true, None);
    }

    /// Append a finished reply, and its stamp record if it answers an
    /// admitted frame, to the connection's write buffer and apply the
    /// strike rule. Deliberately does not flush: every caller runs inside
    /// a batch (a chunk's frames, a completion, a tick) that flushes once
    /// at its end, so a pipelined client costs one write per batch
    /// instead of one per reply.
    fn queue_reply(&mut self, token: u64, bytes: &[u8], malformed: bool, stages: Option<Stages>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if malformed {
            conn.strikes += 1;
        } else {
            conn.strikes = 0;
        }
        conn.wbuf.extend_from_slice(bytes);
        let end = conn.wbuf.len();
        conn.flushing.extend(stages.map(|stages| (end, stages)));
        if conn.strikes >= self.max_consecutive_errors {
            self.metrics.dropped_connections.incr();
            conn.closing = true;
        }
    }

    /// Forget a connection and tell the driver to close it. A client's
    /// in-flight requests are cancelled (late completions are dropped:
    /// nobody is left to read them) and its held frames give their
    /// queue slots back; the phases on an upstream's link count it
    /// missed.
    fn close(&mut self, token: u64, now: Duration) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        self.actions.push_back(Action::Close(token));
        self.waiting.fetch_sub(conn.held.len(), Ordering::AcqRel);
        match conn.upstream {
            None => self.pending.drop_conn(token),
            Some(i) => {
                if let Some(upstream) = self.upstreams.get_mut(i) {
                    upstream.conn = None;
                }
                self.missed(i, Miss::HungUp, now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::tests::stats_line;
    use crate::protocol::encode_response;

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
    fn pending_table_completes_expires_and_cancels() {
        let mut t = PendingTable::new();
        let now = Duration::from_secs(1);
        let entry = |token, id| Pending {
            token,
            id,
            stages: None,
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
        assert!(t.expire(now).is_empty(), "nothing is due yet");
        let due = t.expire(now + Duration::from_secs(120));
        assert_eq!(due.len(), 1, "only the live entry expires");
        assert_eq!(due.first().map(|(seq, p)| (*seq, p.id)), Some((2, 12)));
        assert!(t.is_empty());
        assert_eq!(t.next_deadline(), None, "the heap backlog is cleared");
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
        fb.ingest(b"{\"id\":1}\n{\"id\"", Duration::ZERO, 1024, &mut out);
        fb.ingest(b":2}\n{\"id\":3}", Duration::ZERO, 1024, &mut out);
        fb.ingest(b"\n", Duration::ZERO, 1024, &mut out);
        let lines: Vec<String> = out
            .iter()
            .map(|f| match f {
                FrameEvent::Line(l, _) => String::from_utf8_lossy(l).to_string(),
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
        fb.ingest(&[b'x'; 2000], Duration::ZERO, 1024, &mut out);
        assert!(matches!(out.as_slice(), [FrameEvent::Oversized]));
        // ...its tail is discarded up to the newline, then service resumes.
        out.clear();
        fb.ingest(
            b"tail of the huge frame\nok\n",
            Duration::ZERO,
            1024,
            &mut out,
        );
        match out.as_slice() {
            [FrameEvent::Line(l, _)] => assert_eq!(l.as_slice(), b"ok"),
            other => panic!("expected one line, got {} events", other.len()),
        }
        // A complete (newline-terminated) over-cap frame needs no
        // discard state at all.
        out.clear();
        let mut big = vec![b'y'; 2000];
        big.push(b'\n');
        big.extend_from_slice(b"{\"id\":9}\n");
        fb.ingest(&big, Duration::ZERO, 1024, &mut out);
        assert!(matches!(
            out.as_slice(),
            [FrameEvent::Oversized, FrameEvent::Line(..)]
        ));
    }
}
