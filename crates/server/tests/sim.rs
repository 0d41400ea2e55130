//! The I/O layer's core on the seeded in-memory driver
//! (`common/sim.rs`), against an echo handler: a dial connects an
//! in-memory link to a scripted upstream peer.
//!
//! The first six tests are the deterministic twins of the socket tests
//! in `tests/net.rs`. The property test drives 1,000 seeded schedules
//! through the same driver and checks every connection's replies
//! against a model of what it sent, and every answered frame's stage
//! records against the driver's own clock; a failure prints its seed
//! and op list, and `run_seed(seed)` replays it exactly.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cbes_obs::lock::{reactor, Mutex};
use cbes_obs::{Clock, Registry, SpanRecord, SpanRing};
use cbes_server::net::{self, Control, Forward, Handler, NetMetrics, Route, Stages, Upstreams};
use cbes_server::protocol::split_id;
use cbes_server::{ResponseEnvelope, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Length of the reply to a `pad` frame.
const PADDED: usize = 8 * 1024;
/// The echo log's rank: a leaf, held under no other lock and over none.
const LOG_RANK: u32 = u32::MAX;
/// Deadline for one upstream dial and one relayed attempt.
const ATTEMPT: Duration = Duration::from_millis(30);

/// The digits after `key` in `line`, which is how test frames carry
/// their id (`"id":`) and their client (`"c":`).
fn number_after(line: &str, key: &str) -> u64 {
    let Some((_, rest)) = line.split_once(key) else {
        return 0;
    };
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap_or(0)
}

/// The trace a test frame joins, from its client and id: its stage
/// records are found by it.
fn trace_of(line: &str) -> u64 {
    number_after(line, "\"c\":") << 32 | number_after(line, "\"id\":")
}

/// A handler that answers a frame with its id and logs every execution.
/// A line containing `inline` may run on the reactor, one containing
/// `relay` (and leading with its id) is relayed to the upstreams, and
/// one containing `pad` is answered at [`PADDED`] bytes. Every frame
/// joins its own trace, so its stage records are spans.
struct Echo {
    /// `(client, frame id, ran inline)`, in execution order.
    log: Mutex<Vec<(u64, u64, bool)>, LOG_RANK>,
    upstreams: usize,
}

impl Echo {
    fn answer(&self, line: &str, inline: bool, stages: &mut Stages) -> (Vec<u8>, bool) {
        stages.join(trace_of(line), 1, 0);
        let id = number_after(line, "\"id\":");
        let client = number_after(line, "\"c\":");
        self.log.lock().push((client, id, inline));
        let mut reply = format!("{{\"id\":{id},\"ran\":{}}}", u8::from(inline));
        if line.contains("pad") {
            reply.push_str(&" ".repeat(PADDED - 1 - reply.len()));
        }
        reply.push('\n');
        (reply.into_bytes(), false)
    }

    fn ran(&self) -> Vec<(u64, u64, bool)> {
        self.log.lock().clone()
    }
}

impl Handler for Echo {
    type Gather = ();

    fn inline(&self, line: &str, stages: &mut Stages) -> Option<(Vec<u8>, bool)> {
        line.contains("inline")
            .then(|| self.answer(line, true, stages))
    }

    fn execute(&self, line: &str, stages: &mut Stages) -> (Vec<u8>, bool) {
        self.answer(line, false, stages)
    }

    fn upstreams(&self) -> Upstreams {
        Upstreams {
            addrs: (0..self.upstreams).map(|i| format!("up{i}")).collect(),
            attempt_timeout: ATTEMPT,
            heartbeat: None,
        }
    }

    fn forward(&self, line: &str, stages: &mut Stages) -> Option<Forward<()>> {
        if self.upstreams == 0 || !line.contains("relay") {
            return None;
        }
        let (id, tail) = split_id(line)?;
        let primary = id as usize % self.upstreams;
        let candidates = (0..self.upstreams)
            .map(|k| (primary + k) % self.upstreams)
            .collect();
        let tail = tail.to_string();
        stages.join(trace_of(line), trace_of(line), 7);
        Some(Forward {
            id,
            route: Route::Relay {
                tail,
                candidates,
                primary,
            },
        })
    }
}

#[path = "common/sim.rs"]
mod driver;
use driver::{Peer, PoolOp, Sim};

impl Sim<Echo> {
    /// A sim of one echo core whose registry reads the sim's clock.
    fn echoing(config: &ServerConfig, upstreams: usize) -> Sim<Echo> {
        let registry = Arc::new(Registry::with_clock(Clock::manual()));
        let metrics = NetMetrics::new(&registry);
        let addr = "127.0.0.1:0".parse().expect("literal address");
        let echo = |_: &Arc<Control>| {
            Ok(Echo {
                log: Mutex::default(),
                upstreams,
            })
        };
        let assembled = net::assemble(config, addr, metrics, Box::new(|| {}), echo);
        Sim::new(registry, assembled.expect("builds"))
    }

    fn with(config: ServerConfig) -> Sim<Echo> {
        Sim::echoing(&config, 0)
    }

    fn echo(&self) -> &Echo {
        self.core.handler()
    }
}

/// A reply's id: every reply leads with it.
fn id_of(line: &str) -> u64 {
    number_after(line, "{\"id\":")
}

fn envelope(line: &str) -> ResponseEnvelope {
    serde_json::from_str(line).unwrap_or_else(|e| panic!("{e}: {line}"))
}

/// The error kind and message of a reply, if it is an error.
fn error_of(line: &str) -> Option<(String, String, u64)> {
    match envelope(line).response {
        cbes_server::Response::Error {
            kind,
            message,
            retry_after_ms,
        } => Some((kind, message, retry_after_ms)),
        _ => None,
    }
}

#[test]
fn split_and_pipelined_frames_reassemble_and_run_in_order() {
    let mut sim = Sim::with(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let a = sim.connect(usize::MAX).expect("accepted");
    // One frame split across two chunks reassembles into one call.
    sim.send(a, b"{\"id\":1,");
    assert!(sim.queue.is_empty(), "half a frame is no frame");
    sim.send(a, b"\"x\":0}\n");
    sim.settle();
    assert_eq!(sim.read_all(a), ["{\"id\":1,\"ran\":0}"]);
    // A pipelined window in one chunk: the first frame goes to the
    // pool, the rest are held behind it and follow as one run.
    let window: String = (2..=21).map(|id| format!("{{\"id\":{id}}}\n")).collect();
    sim.send(a, window.as_bytes());
    assert_eq!(sim.queue.len(), 1);
    assert_eq!(sim.control.queue_depth(), 20);
    sim.settle();
    let want: Vec<String> = (2..=21)
        .map(|id| format!("{{\"id\":{id},\"ran\":0}}"))
        .collect();
    assert_eq!(sim.read_all(a), want);
    // An inline-eligible frame on an idle pool runs on the reactor.
    sim.send(a, b"{\"id\":22,\"inline\":1}\n");
    assert!(sim.queue.is_empty());
    assert_eq!(sim.read_all(a), ["{\"id\":22,\"ran\":1}"]);
    let ids: Vec<u64> = sim.echo().ran().iter().map(|r| r.1).collect();
    assert_eq!(ids, (1..=22).collect::<Vec<_>>());
}

#[test]
fn a_full_queue_sheds_and_a_missed_deadline_times_out() {
    let mut sim = Sim::with(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let a = sim.connect(usize::MAX).expect("accepted");
    // Frame 1 occupies the worker; only then do 2 and 3 arrive, so 2
    // takes the single queue slot and 3 finds the queue full.
    sim.send(a, b"{\"id\":1,\"hold\":1}\n");
    assert!(sim.pick(0));
    sim.start(0);
    sim.send(a, b"{\"id\":2,\"hold\":1}\n{\"c\":0,\"id\":3}\n");
    let replies = sim.read_all(a);
    let [shed] = replies.as_slice() else {
        panic!("one shed reply: {replies:?}");
    };
    assert_eq!(id_of(shed), 3, "the shed echoes the peeked id");
    let (kind, _, retry) = error_of(shed).expect("an error");
    assert_eq!((kind.as_str(), retry), ("overloaded", 25), "{shed}");
    // Nobody finishes frame 1: both admitted frames miss the deadline
    // and the core answers for them, in deadline order.
    sim.advance(Duration::from_millis(200));
    let replies = sim.read_all(a);
    let timed_out: Vec<(u64, String)> = replies
        .iter()
        .map(|l| (id_of(l), error_of(l).expect("an error").0))
        .collect();
    assert_eq!(timed_out, [(1, "timeout".into()), (2, "timeout".into())]);
    // The worker's late replies are dropped, not delivered twice: the
    // next thing written is frame 4's reply.
    sim.finish(0);
    sim.settle();
    sim.send(a, b"{\"id\":4}\n");
    sim.settle();
    assert_eq!(sim.read_all(a), ["{\"id\":4,\"ran\":0}"]);
    // Draining sheds what arrives without taking a queue slot.
    assert!(sim.core.drain());
    sim.send(a, b"{\"id\":5}\n");
    let replies = sim.read_all(a);
    assert_eq!(replies.len(), 1);
    assert_eq!(id_of(&replies[0]), 5);
    let (kind, _, retry) = error_of(&replies[0]).expect("an error");
    assert_eq!((kind.as_str(), retry), ("shutting_down", 25));
    assert_eq!(sim.control.queue_depth(), 0);
    assert!(sim.core.drained());
    assert_eq!(sim.counter("server.overloaded"), 1);
    assert_eq!(sim.counter("server.timeouts"), 2);
}

#[test]
fn a_connections_frames_run_in_arrival_order_on_any_free_worker() {
    let mut sim = Sim::with(ServerConfig {
        workers: 2,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let a = sim.connect(usize::MAX).expect("accepted");
    // Frame 1 of A holds one worker; the other serves every other
    // connection, one after another.
    sim.send(a, b"{\"id\":1,\"hold\":1}\n");
    assert!(sim.pick(0));
    sim.start(0);
    for _ in 0..2 {
        let other = sim.connect(usize::MAX).expect("accepted");
        sim.send(other, b"{\"id\":9}\n");
        assert!(sim.pick(1));
        sim.settle_worker(1);
        assert_eq!(sim.read_all(other), ["{\"id\":9,\"ran\":0}"]);
    }
    // A pipelines 2, 3 and 4 behind its running frame. They are held
    // until it finishes, though a worker is free, and count against the
    // queue's two slots as queued frames do: 4 is shed.
    sim.send(a, b"{\"id\":2}\n{\"id\":3}\n{\"id\":4}\n");
    let replies = sim.read_all(a);
    assert_eq!(replies.len(), 1, "{replies:?}");
    assert_eq!(id_of(&replies[0]), 4);
    assert_eq!(error_of(&replies[0]).expect("a shed").0, "overloaded");
    assert_eq!(sim.control.queue_depth(), 2);
    assert!(sim.queue.is_empty(), "frame 2 waits for frame 1 to finish");
    // Frame 1 finishes; 2 and 3 go to a worker as one run, in order.
    sim.finish(0);
    assert_eq!(sim.queue.len(), 1);
    sim.settle();
    let ids: Vec<u64> = sim.read_all(a).iter().map(|l| id_of(l)).collect();
    assert_eq!(ids, [1, 2, 3]);
    assert_eq!(sim.control.queue_depth(), 0, "nothing is held");
    let ran_for_a: Vec<u64> = (sim.echo().ran().iter())
        .filter(|r| r.1 != 9)
        .map(|r| r.1)
        .collect();
    assert_eq!(ran_for_a, [1, 2, 3]);
}

#[test]
fn a_client_that_hangs_up_on_held_frames_gives_their_queue_slots_back() {
    let mut sim = Sim::with(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let a = sim.connect(usize::MAX).expect("accepted");
    // A's frame 1 holds the worker, 2 and 3 are held behind it and fill
    // both queue slots, and 4 is shed.
    sim.send(a, b"{\"id\":1,\"hold\":1}\n");
    assert!(sim.pick(0));
    sim.start(0);
    sim.send(a, b"{\"id\":2}\n{\"id\":3}\n{\"id\":4}\n");
    assert_eq!(sim.read_all(a).len(), 1, "frame 4's shed reply");
    assert_eq!(sim.control.queue_depth(), 2);
    // A hangs up: the core drops it, held frames and all.
    sim.hang_up(a);
    assert!(sim.peers[&a].closed);
    assert_eq!(sim.control.queue_depth(), 0);
    // Both slots are free again: B's two frames are admitted, not shed.
    let b = sim.connect(usize::MAX).expect("accepted");
    sim.send(b, b"{\"id\":5}\n{\"id\":6}\n");
    assert_eq!(sim.control.queue_depth(), 2);
    sim.finish(0);
    sim.settle();
    let replies = sim.read_all(b);
    assert_eq!(replies, ["{\"id\":5,\"ran\":0}", "{\"id\":6,\"ran\":0}"]);
    assert!(sim.peers[&a].inbox.len() < 200, "nothing more reached A");
}

#[test]
fn a_peer_that_never_reads_its_replies_is_not_read_from() {
    let mut sim = Sim::with(ServerConfig::default());
    // A socket that takes 256 KiB of replies and is then full.
    let a = sim.connect(256 * 1024).expect("accepted");
    const FRAMES: u64 = 10_000;
    let frames: String = (1..=FRAMES)
        .map(|id| format!("{{\"id\":{id},\"inline\":1,\"pad\":1}}\n"))
        .collect();
    // The core stops taking frames once the peer stops taking replies:
    // execution stalls far short of the burst.
    sim.send(a, frames.as_bytes());
    let stalled_at = sim.echo().ran().len() as u64;
    assert!(
        stalled_at < FRAMES / 2,
        "{stalled_at} of {FRAMES} replies buffered for a peer that reads nothing"
    );
    assert!(!sim.core.wants_read(a) && !sim.peers[&a].interest.0);
    assert!(!sim.peers[&a].outbox.is_empty());
    // Reading resumes it; nothing was lost or reordered meanwhile.
    let mut ids = Vec::new();
    while ids.len() < FRAMES as usize {
        ids.extend(sim.read_all(a).iter().map(|l| id_of(l)));
        while sim.readable(a) {
            sim.deliver(a, 16 * 1024);
        }
        sim.end_turn();
    }
    assert_eq!(ids, (1..=FRAMES).collect::<Vec<_>>());
    assert_eq!(sim.echo().ran().len() as u64, FRAMES);
}

/// With four workers, a frame that timed out but still runs holds one
/// worker, not the pool: another connection's inline-eligible frame
/// still runs on the reactor.
#[test]
fn a_timed_out_frame_still_running_leaves_the_inline_path_open() {
    let mut sim = Sim::with(ServerConfig {
        workers: 4,
        request_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let a = sim.connect(usize::MAX).expect("accepted");
    sim.send(a, b"{\"id\":1,\"c\":1,\"hold\":1}\n");
    assert!(sim.pick(0));
    sim.start(0);
    sim.advance(Duration::from_millis(100));
    let replies = sim.read_all(a);
    assert_eq!(error_of(&replies[0]).expect("a timeout").0, "timeout");
    let b = sim.connect(usize::MAX).expect("accepted");
    sim.send(b, b"{\"id\":2,\"c\":2,\"inline\":1}\n");
    assert!(sim.queue.is_empty(), "nothing went to the pool");
    assert_eq!(sim.read_all(b), ["{\"id\":2,\"ran\":1}"]);
    // The late reply is dropped; A's next frame is answered normally.
    sim.finish(0);
    sim.send(a, b"{\"id\":3,\"c\":1}\n");
    sim.settle();
    assert_eq!(sim.read_all(a), ["{\"id\":3,\"ran\":0}"]);
}

/// What one frame of a client's script is.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Worker,
    Inline,
    Relay,
    Oversized,
    Blank,
}

/// One frame a client sends, and where its bytes end in the script.
struct Frame {
    id: u64,
    kind: Kind,
    /// Offset just past its newline (or its last byte, unterminated).
    end: usize,
}

/// One client of a seeded schedule: its script and what came back.
struct Client {
    /// The number its frames carry as `"c"`.
    c: u64,
    token: u64,
    frames: Vec<Frame>,
    /// The last frame has no newline: EOF ends it.
    residual: bool,
    hung_up: bool,
    replies: Vec<String>,
}

/// One step of a seeded schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// The core reads up to `.1` bytes of peer `.0` (its EOF once all
    /// are read).
    Deliver(u64, usize),
    /// Client `.0` reads what it was sent.
    Read(u64),
    HangUp(u64),
    Pool(PoolOp),
    /// The `.0`th dial out completes, connected or not.
    Dial(usize, bool),
    /// The upstream on link `.0` takes the frames written to it.
    Serve(u64),
    Advance(Duration),
    Shutdown,
}

/// A seeded schedule's ops, and the bytes each client received.
struct Transcript {
    ops: Vec<Op>,
    received: Vec<Vec<u8>>,
}

/// The schedule's whole configuration, drawn from its seed.
fn config_for(rng: &mut StdRng) -> ServerConfig {
    ServerConfig {
        workers: rng.random_range(1..4usize),
        queue_capacity: rng.random_range(1..5usize),
        request_timeout: Duration::from_millis(100),
        max_line_bytes: 96,
        max_consecutive_errors: rng.random_range(2..5u32),
        ..ServerConfig::default()
    }
}

/// Client `c`'s script: up to 12 frames of every kind, leading with
/// their id or not (the shed path must peek either), the last one
/// sometimes left for EOF to end.
fn script_for(rng: &mut StdRng, c: u64, relay: bool) -> (Vec<u8>, Vec<Frame>, bool) {
    let (mut bytes, mut frames) = (Vec::new(), Vec::new());
    let count = rng.random_range(1..13u64);
    for id in 1..=count {
        let kind = match rng.random_range(0..20) {
            0..=6 => Kind::Worker,
            7..=11 => Kind::Inline,
            12..=15 if relay => Kind::Relay,
            12..=15 => Kind::Worker,
            16..=18 => Kind::Oversized,
            _ => Kind::Blank,
        };
        let lead = kind == Kind::Relay || rng.random_range(0..3) > 0;
        let head = match lead {
            true => format!("{{\"id\":{id},\"c\":{c}"),
            false => format!("{{\"c\":{c},\"id\":{id}"),
        };
        let line = match kind {
            Kind::Worker => format!("{head},\"w\":0}}"),
            Kind::Inline => format!("{head},\"inline\":1}}"),
            Kind::Relay => format!("{head},\"relay\":1}}"),
            Kind::Oversized => format!(
                "{head},\"pad\":\"{}\"}}",
                "x".repeat(rng.random_range(80..300usize))
            ),
            Kind::Blank => " ".repeat(rng.random_range(0..4usize)),
        };
        bytes.extend_from_slice(line.as_bytes());
        let residual = id == count && matches!(kind, Kind::Worker | Kind::Inline);
        if !(residual && rng.random_range(0..4) == 0) {
            bytes.push(b'\n');
        }
        frames.push(Frame {
            id,
            kind,
            end: bytes.len(),
        });
    }
    let residual = bytes.last() != Some(&b'\n');
    (bytes, frames, residual)
}

impl Sim<Echo> {
    /// The upstream on link `token` takes every frame written to it and
    /// treats each as the seed says.
    fn serve(&mut self, token: u64, rng: &mut StdRng) {
        let peer = self.peers.get_mut(&token).expect("a link");
        let upstream = peer.upstream.expect("an upstream link");
        for line in peer.lines() {
            if peer.eof {
                break;
            }
            let seq = id_of(&line);
            // It answers, refuses, stays mute or hangs up.
            let reply = match rng.random_range(0..20) {
                0..=9 => format!("{{\"id\":{seq},\"up\":{upstream}}}\n"),
                10..=13 => {
                    let response =
                        cbes_server::Response::shed("shutting_down", "upstream refuses", 5);
                    let envelope = ResponseEnvelope { id: seq, response };
                    format!("{}\n", cbes_server::protocol::encode_response(&envelope))
                }
                14..=16 => String::new(),
                _ => {
                    peer.eof = true;
                    String::new()
                }
            };
            peer.outbox.extend(reply.as_bytes());
        }
    }

    fn perform(&mut self, op: Op, clients: &mut [Client], rng: &mut StdRng) {
        match op {
            Op::Deliver(token, n) => self.deliver(token, n),
            Op::Read(token) => {
                let lines = self.read_all(token);
                let client = clients.iter_mut().find(|c| c.token == token);
                client.expect("a client").replies.extend(lines);
            }
            Op::HangUp(token) => {
                let now = self.now();
                let _reactor = reactor();
                self.core.hung_up(token, now);
                let client = clients.iter_mut().find(|c| c.token == token);
                client.expect("a client").hung_up = true;
            }
            Op::Pool(op) => self.pool(op),
            Op::Dial(k, connected) => drop(self.dialled(k, connected)),
            Op::Serve(token) => self.serve(token, rng),
            Op::Advance(by) => self.clock.advance(by),
            Op::Shutdown => drop(self.core.drain()),
        }
        self.end_turn();
    }

    /// Every op the schedule could take next.
    fn enabled(&self, clients: &[Client], rng: &mut StdRng) -> Vec<Op> {
        let mut ops = Vec::new();
        for (&token, peer) in self.peers.iter().filter(|(_, p)| !p.closed) {
            if self.readable(token) {
                ops.push(Op::Deliver(token, rng.random_range(1..48usize)));
            }
            let unread = peer.read < peer.inbox.len();
            match peer.upstream {
                Some(_) if unread && !peer.eof => ops.push(Op::Serve(token)),
                None if unread || peer.interest.1 => ops.push(Op::Read(token)),
                _ => {}
            }
            let client = clients.iter().any(|c| c.token == token && !c.hung_up);
            if client && rng.random_range(0..600) == 0 {
                ops.push(Op::HangUp(token));
            }
        }
        ops.extend(self.pool_ops().into_iter().map(Op::Pool));
        for k in 0..self.dials.len() {
            ops.push(Op::Dial(k, rng.random_range(0..8) > 0));
        }
        let ms = match rng.random_range(0..10) {
            0 => 150,
            _ => rng.random_range(1..20u64),
        };
        ops.push(Op::Advance(Duration::from_millis(ms)));
        if rng.random_range(0..80) == 0 {
            ops.push(Op::Shutdown);
        }
        ops
    }

    /// Run everything that can still happen: every byte read, every job
    /// and dial done, every upstream served, every reader reading, and
    /// the clock moved to each deadline until none is left.
    fn quiesce(&mut self, clients: &mut [Client], rng: &mut StdRng, ops: &mut Vec<Op>) {
        for _ in 0..10_000 {
            let mut next: Vec<Op> = Vec::new();
            for (&token, peer) in self.peers.iter().filter(|(_, p)| !p.closed) {
                if self.readable(token) {
                    next.push(Op::Deliver(token, 16 * 1024));
                }
                let unread = peer.read < peer.inbox.len();
                match peer.upstream {
                    Some(_) if unread && !peer.eof => next.push(Op::Serve(token)),
                    None if unread || peer.interest.1 => next.push(Op::Read(token)),
                    _ => {}
                }
            }
            next.extend(self.pool_ops().into_iter().map(Op::Pool));
            if !self.dials.is_empty() {
                next.push(Op::Dial(0, true));
            }
            if next.is_empty() {
                let Some(deadline) = self.core.next_deadline() else {
                    return;
                };
                next.push(Op::Advance(deadline.saturating_sub(self.now())));
            }
            for op in next {
                ops.push(op);
                self.perform(op, clients, rng);
            }
        }
        panic!("the schedule never went quiet");
    }
}

/// Run seed `seed`: draw a configuration, clients with scripts and
/// schedule of up to 400 ops, then let everything finish, drain, and
/// check every client against its script. Every op goes to `ops` as it
/// is taken; `Err` says which rule broke.
fn run_seed(seed: u64, ops: &mut Vec<Op>) -> Result<Transcript, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = config_for(&mut rng);
    let upstreams = 2 * rng.random_range(0..2usize);
    let mut sim = Sim::echoing(&config, upstreams);
    let mut clients = Vec::new();
    for c in 1..=rng.random_range(1..4u64) {
        let window = match rng.random_range(0..3) {
            0 => rng.random_range(16..2048usize),
            _ => usize::MAX,
        };
        let token = sim.connect(window).expect("not draining yet");
        let (bytes, frames, residual) = script_for(&mut rng, c, upstreams > 0);
        let peer = sim.peers.get_mut(&token).expect("connected");
        peer.outbox.extend(&bytes);
        peer.eof = residual || rng.random_range(0..2) == 0;
        clients.push(Client {
            c,
            token,
            frames,
            residual,
            hung_up: false,
            replies: Vec::new(),
        });
    }
    for _ in 0..400 {
        let enabled = sim.enabled(&clients, &mut rng);
        let op = enabled[rng.random_range(0..enabled.len())];
        ops.push(op);
        sim.perform(op, &mut clients, &mut rng);
    }
    sim.quiesce(&mut clients, &mut rng, ops);
    ops.push(Op::Shutdown);
    sim.perform(Op::Shutdown, &mut clients, &mut rng);
    sim.quiesce(&mut clients, &mut rng, ops);
    if let Some(violation) = sim.violations.first() {
        return Err(format!("driver contract: {violation}"));
    }
    if !sim.core.drained() {
        return Err("every reply is out but the core is not drained".into());
    }
    if sim.control.queue_depth() != 0 {
        return Err(format!(
            "{} frames still counted as waiting",
            sim.control.queue_depth()
        ));
    }
    // What reached a client before the core closed it is read too.
    for client in &mut clients {
        let peer = sim.peers.get_mut(&client.token).expect("a client");
        client.replies.extend(peer.lines());
    }
    let ran = sim.echo().ran();
    for client in &clients {
        let c = client.c;
        let order: Vec<u64> = ran.iter().filter(|r| r.0 == c).map(|r| r.1).collect();
        if order.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!(
                "client {c} frames ran out of arrival order: {order:?}"
            ));
        }
        let peer = &sim.peers[&client.token];
        check_stages(client, peer, sim.registry.spans()).map_err(|e| format!("client {c}: {e}"))?;
        check_client(client, peer, config.max_consecutive_errors)
            .map_err(|e| {
                let peer = &sim.peers[&client.token];
                let frames: Vec<_> = client.frames.iter().map(|f| (f.id, f.kind, f.end)).collect();
                format!(
                    "client {c}: {e}; replies {:?}; frames {frames:?}; delivered {} closed {} eof {}/{} outbox {} hung {}",
                    client.replies, peer.delivered, peer.closed, peer.eof, peer.eof_delivered, peer.outbox.len(), client.hung_up
                )
            })?;
    }
    let received = clients
        .iter()
        .map(|c| sim.peers[&c.token].inbox.clone())
        .collect();
    Ok(Transcript {
        ops: ops.clone(),
        received,
    })
}

/// Hold every frame answered through its stages — any reply but a shed,
/// a `frame_too_large` or a run frame's timeout — to the driver's clock: its stage
/// records sum exactly to when the client took the reply's last byte
/// less when the core read the frame's first, its last stage is its one
/// flush, and a relayed frame's hop span is that interval too.
fn check_stages(client: &Client, peer: &Peer, spans: &SpanRing) -> Result<(), String> {
    for (line, end) in peer.inbox_lines() {
        let id = id_of(&line);
        let relayed = |id| {
            client
                .frames
                .iter()
                .any(|f| f.id == id && f.kind == Kind::Relay)
        };
        let unstaged = [
            "overloaded",
            "frame_too_large",
            if relayed(id) { "" } else { "timeout" },
        ];
        let error =
            (!line.contains("\"ran\":") && !line.contains("\"up\":")).then(|| error_of(&line));
        let class = error.flatten().map(|(kind, message, _)| (kind, message));
        if class.as_ref().is_some_and(|(kind, message)| {
            unstaged.contains(&kind.as_str()) || message == "server is draining"
        }) {
            continue;
        }
        let Some(k) = client.frames.iter().position(|f| f.id == id) else {
            return Err(format!("a reply to no frame: {line}"));
        };
        let start = k.checked_sub(1).map_or(0, |j| client.frames[j].end);
        let Some((read, took)) = peer.between(start, end) else {
            return Err(format!("frame {id}: the driver saw no read or write of it"));
        };
        let want = (took.as_micros() - read.as_micros()) as u64;
        let records = spans.of_trace(client.c << 32 | id);
        let (hop, leaves): (Vec<&SpanRecord>, Vec<_>) =
            records.iter().partition(|r| r.name == "router.forward");
        let sum: u64 = leaves.iter().map(|r| r.dur_us).sum();
        let names: Vec<&str> = leaves.iter().map(|r| r.name).collect();
        let flushes = names.iter().filter(|n| n.ends_with("flush_us")).count();
        if sum != want || flushes != 1 || !names.last().is_some_and(|n| n.ends_with("flush_us")) {
            return Err(format!(
                "frame {id}: stages {names:?} sum to {sum} us, read to taken is {want} us"
            ));
        }
        let relayed = client.frames[k].kind == Kind::Relay;
        if relayed && hop.iter().map(|r| r.dur_us).collect::<Vec<_>>() != [want] {
            return Err(format!(
                "frame {id}: hop spans {hop:?}, read to taken is {want} us"
            ));
        }
    }
    Ok(())
}

/// Hold one client's replies to its script.
fn check_client(client: &Client, peer: &Peer, strike_budget: u32) -> Result<(), String> {
    let complete = |f: &Frame| {
        let last = client.residual && Some(f.id) == client.frames.last().map(|l| l.id);
        match last {
            true => peer.eof_delivered,
            false => f.end <= peer.delivered,
        }
    };
    let frame = |id: u64| client.frames.iter().find(|f| f.id == id);
    let (mut answered, mut too_large) = (BTreeMap::<u64, u32>::new(), 0usize);
    let (mut strikes, mut struck) = (0u32, false);
    let mut last_in_lane = [0u64; 2];
    for line in &client.replies {
        let id = id_of(line);
        let error =
            (!line.contains("\"ran\":") && !line.contains("\"up\":")).then(|| error_of(line));
        let error = error.flatten();
        let class = error
            .as_ref()
            .map(|(kind, message, _)| (kind.as_str(), message.as_str()));
        if class.is_some_and(|(kind, _)| kind == "frame_too_large") {
            if id != 0 {
                return Err(format!("frame_too_large under id {id}"));
            }
            too_large += 1;
            strikes += 1;
            struck |= strikes >= strike_budget;
            continue;
        }
        strikes = 0;
        let Some(f) = frame(id) else {
            return Err(format!("a reply to no frame: {line}"));
        };
        *answered.entry(id).or_default() += 1;
        let shed = matches!(
            class,
            Some(
                ("overloaded", "admission queue is full") | ("shutting_down", "server is draining")
            )
        );
        let fits = match (f.kind, class) {
            (Kind::Oversized | Kind::Blank, _) => false,
            (_, _) if shed => true,
            (_, Some(("timeout", _))) => true,
            (Kind::Worker | Kind::Inline, None) => line.contains("\"ran\":"),
            (Kind::Relay, None) => line.contains("\"up\":"),
            (Kind::Relay, Some(("shutting_down", "upstream refuses"))) => true,
            (Kind::Relay, Some(("service", "no upstream answered"))) => true,
            _ => false,
        };
        if !fits {
            return Err(format!("{:?} frame {id} answered with {line}", f.kind));
        }
        if shed {
            continue;
        }
        let lane = &mut last_in_lane[usize::from(f.kind == Kind::Relay)];
        if id <= *lane {
            return Err(format!(
                "frame {id} answered after frame {lane} of its lane"
            ));
        }
        *lane = id;
    }
    if let Some((id, n)) = answered.iter().find(|(_, &n)| n > 1) {
        return Err(format!("frame {id} answered {n} times"));
    }
    let oversized = client.frames.iter().filter(|f| f.kind == Kind::Oversized);
    let sent_too_large = oversized
        .clone()
        .filter(|f| f.end <= peer.delivered)
        .count();
    if too_large > oversized.count() {
        return Err(format!("{too_large} frame_too_large replies"));
    }
    if struck && !peer.closed {
        return Err("the strike budget is spent but the connection is open".into());
    }
    if client.hung_up || struck {
        return Ok(());
    }
    if too_large != sent_too_large {
        return Err(format!(
            "{too_large} frame_too_large replies to {sent_too_large} oversized frames"
        ));
    }
    let lost = client.frames.iter().find(|f| {
        let expected = complete(f) && !matches!(f.kind, Kind::Oversized | Kind::Blank);
        expected && !answered.contains_key(&f.id)
    });
    if let Some(f) = lost {
        return Err(format!("{:?} frame {} was never answered", f.kind, f.id));
    }
    Ok(())
}

#[test]
fn every_admitted_frame_is_answered_once_in_arrival_order_over_1000_schedules() {
    for seed in 0..1_000 {
        let mut ops = Vec::new();
        let run =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_seed(seed, &mut ops)));
        let failure = match run {
            Ok(Ok(_)) => continue,
            Ok(Err(failure)) => failure,
            Err(_) => "the driver panicked".to_string(),
        };
        panic!("seed {seed}: {failure}\nops: {ops:?}\nreplay: run_seed({seed}, ..)");
    }
}

#[test]
fn a_seed_replays_exactly() {
    let run = |seed| run_seed(seed, &mut Vec::new()).expect("a passing seed");
    for seed in [3, 17, 400] {
        let (first, again) = (run(seed), run(seed));
        assert_eq!(format!("{:?}", first.ops), format!("{:?}", again.ops));
        assert_eq!(first.received, again.received);
    }
}

mod common;

/// A fresh daemon's first pipelined window — 24 registrations and then
/// the first asks, in one chunk — is answered on the reactor: no frame
/// goes to the pool. `compare_*`'s set-up times exactly this path, and a
/// first window sent to a worker read +20 % there.
#[test]
fn a_fresh_daemons_first_window_is_answered_inline() {
    use cbes_core::monitor::ForecastKind;
    use cbes_core::CbesService;
    use cbes_server::protocol::{encode, Request, RequestEnvelope};
    use cbes_server::{Response, Server};

    let registry = Arc::new(Registry::with_clock(Clock::manual()));
    let cluster = Arc::new(cbes_cluster::presets::two_switch_demo());
    let service = CbesService::self_calibrated(cluster, ForecastKind::LastValue);
    let service = Arc::new(service.with_obs(registry.clone()));
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let addr = "127.0.0.1:0".parse().expect("literal address");
    let daemon = Server::assemble(service, &config, addr, Box::new(|| {}));
    let mut sim = Sim::new(registry, daemon.expect("builds"));
    let c = sim.connect(usize::MAX).expect("accepted");
    let mut requests = common::one_of_each().into_iter();
    let (Some(Request::RegisterProfile { profile }), Some(compare)) =
        (requests.next(), requests.next())
    else {
        panic!("the table's first two rows are a registration and a compare");
    };
    let mut window: Vec<Request> = (0..24)
        .map(|k| {
            let mut profile = profile.clone();
            profile.name = if k == 0 {
                profile.name
            } else {
                format!("app{k}")
            };
            Request::RegisterProfile { profile }
        })
        .collect();
    window.extend(std::iter::repeat_n(compare, 8));
    let bytes: String = (1..)
        .zip(&window)
        .map(|(id, request)| encode(&RequestEnvelope::new(id, request.clone())) + "\n")
        .collect();
    sim.send(c, bytes.as_bytes());
    assert!(
        sim.queue.is_empty(),
        "a frame of the window went to the pool"
    );
    let replies = sim.read_all(c);
    assert_eq!(replies.len(), window.len());
    for ((id, request), line) in (1..).zip(&window).zip(&replies) {
        let reply = envelope(line);
        assert_eq!(reply.id, id);
        match (request, reply.response) {
            (Request::RegisterProfile { .. }, Response::Registered { .. }) => {}
            (Request::Compare { .. }, Response::Predictions { epoch: 0, .. }) => {}
            (_, other) => panic!("frame {id} answered {other:?}"),
        }
    }
}
