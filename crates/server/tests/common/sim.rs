//! A seeded in-memory driver for the I/O layer's core: one thread, no
//! socket, no sleep. Bytes reach the core in chunks the test or its seed
//! chooses, the pool's jobs are picked up, started and finished in the
//! order it chooses, time is a manual clock, and a dial waits for the
//! test to connect it. The thread holds the reactor role whenever it
//! calls into a core, and drops it to run a job, as the epoll driver's
//! reactor and workers do, so a blocking call the core or a hook reaches
//! panics. `tests/sim.rs` runs one core against scripted peers;
//! `crates/router/tests/tier_sim.rs` wires a router's core to three
//! daemons' cores.
#![allow(dead_code, reason = "each includer drives a different part")]

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use cbes_obs::lock::reactor;
use cbes_obs::{Clock, Registry};
use cbes_server::net::{Action, Control, Core, Done, Handler, Job};

/// The far side of one connection: a client, or an upstream peer.
#[derive(Default)]
pub struct Peer {
    /// Bytes it sent that the core has not read yet.
    pub outbox: VecDeque<u8>,
    /// Bytes the core wrote to it.
    pub inbox: Vec<u8>,
    /// How many bytes of `inbox` it has read as lines.
    pub read: usize,
    /// What one write can still hand it before it reads.
    pub room: usize,
    /// What it takes when it reads: `room` is refilled to this.
    pub window: usize,
    /// The interest the core asked for: read, write.
    pub interest: (bool, bool),
    /// The core closed it.
    pub closed: bool,
    /// It half-closed after its last byte.
    pub eof: bool,
    pub eof_delivered: bool,
    /// Bytes of its script the core has read.
    pub delivered: usize,
    /// `(delivered, clock)` after each chunk the core read: when each
    /// byte it sent arrived, by the driver's own account.
    pub read_at: Vec<(usize, Duration)>,
    /// `(inbox length, clock)` after each write to it: when it took
    /// each byte.
    pub took_at: Vec<(usize, Duration)>,
    /// `Some(i)`: the link to upstream `i`.
    pub upstream: Option<usize>,
}

impl Peer {
    pub fn client(window: usize) -> Self {
        Peer {
            room: window,
            window,
            interest: (true, false),
            ..Peer::default()
        }
    }

    /// When the byte at `offset` of what it sent was read, and when it
    /// took the byte just before `end` of what it was sent.
    pub fn between(&self, offset: usize, end: usize) -> Option<(Duration, Duration)> {
        let read = self.read_at.iter().find(|(upto, _)| *upto > offset)?;
        let took = self.took_at.iter().find(|(upto, _)| *upto >= end)?;
        Some((read.1, took.1))
    }

    /// Each complete line of its inbox with the offset just past it.
    pub fn inbox_lines(&self) -> Vec<(String, usize)> {
        let mut end = 0;
        let lines = self.inbox.split_inclusive(|&b| b == b'\n');
        lines
            .filter(|line| line.ends_with(b"\n"))
            .map(|line| {
                end += line.len();
                (String::from_utf8_lossy(line).trim_end().to_string(), end)
            })
            .collect()
    }

    /// The complete lines written to it since it last looked.
    pub fn lines(&mut self) -> Vec<String> {
        let unread = &self.inbox[self.read..];
        let end = unread
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        self.read += end;
        let text = String::from_utf8_lossy(&unread[..end]).to_string();
        text.lines().map(str::to_string).collect()
    }
}

/// One pool worker: the rest of its run, and the job it has run but not
/// yet reported.
pub struct Worker<G> {
    pub run: VecDeque<Job<G>>,
    pub done: Option<Done<G>>,
}

impl<G> Worker<G> {
    pub fn idle(&self) -> bool {
        self.run.is_empty() && self.done.is_none()
    }
}

/// The in-memory driver of one core.
pub struct Sim<H: Handler> {
    pub core: Core<H>,
    pub control: Arc<Control>,
    pub registry: Arc<Registry>,
    pub clock: Clock,
    pub peers: BTreeMap<u64, Peer>,
    /// Runs handed to the pool that no worker has taken.
    pub queue: VecDeque<Vec<Job<H::Gather>>>,
    pub workers: Vec<Worker<H::Gather>>,
    /// Upstreams with a dial out, in the order the core asked.
    pub dials: Vec<usize>,
    /// An action that broke a rule of the driver contract.
    pub violations: Vec<String>,
}

impl<H: Handler> Sim<H> {
    /// Drive `core`, assembled over `registry`, whose clock it reads.
    pub fn new(registry: Arc<Registry>, (control, core): (Arc<Control>, Core<H>)) -> Sim<H> {
        let workers = (0..control.workers()).map(|_| Worker {
            run: VecDeque::new(),
            done: None,
        });
        Sim {
            core,
            workers: workers.collect(),
            control,
            clock: registry.clock().clone(),
            registry,
            peers: BTreeMap::new(),
            queue: VecDeque::new(),
            dials: Vec::new(),
            violations: Vec::new(),
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let snapshot = self.registry.snapshot();
        snapshot.counters.get(name).copied().unwrap_or(0)
    }

    pub fn now(&self) -> Duration {
        self.clock.now()
    }

    /// End of one loop iteration, as the epoll driver ends it: the tick,
    /// then every action.
    pub fn end_turn(&mut self) {
        let _reactor = reactor();
        self.core.tick(self.now());
        self.apply();
    }

    pub fn apply(&mut self) {
        let _reactor = reactor();
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Flush(token) => self.flush(token),
                Action::Interest(token, read, write) => match self.peers.get_mut(&token) {
                    Some(peer) if !peer.closed => peer.interest = (read, write),
                    _ => self.violations.push(format!("interest for closed {token}")),
                },
                Action::Close(token) => match self.peers.get_mut(&token) {
                    Some(peer) if !peer.closed => peer.closed = true,
                    _ => self.violations.push(format!("second close of {token}")),
                },
                Action::Run(run) => self.queue.push_back(run),
                Action::Dial(i, ..) => self.dials.push(i),
            }
        }
    }

    /// Hand the peer what fits in its room, and report it.
    pub fn flush(&mut self, token: u64) {
        let _reactor = reactor();
        let out = self.core.output(token);
        let Some(peer) = self.peers.get_mut(&token) else {
            return;
        };
        if peer.closed {
            if !out.is_empty() {
                self.violations.push(format!("output for closed {token}"));
            }
            return;
        }
        let n = out.len().min(peer.room);
        peer.inbox.extend_from_slice(&out[..n]);
        peer.room -= n;
        let now = self.clock.now();
        if n > 0 {
            peer.took_at.push((peer.inbox.len(), now));
        }
        self.core.wrote(token, n, now);
    }

    pub fn connect(&mut self, window: usize) -> Option<u64> {
        let token = {
            let _reactor = reactor();
            self.core.accepted()
        };
        if let Some(token) = token {
            self.peers.insert(token, Peer::client(window));
        }
        self.end_turn();
        token
    }

    /// Whether the driver would read `token` now.
    pub fn readable(&self, token: u64) -> bool {
        let peer = &self.peers[&token];
        let more = !peer.outbox.is_empty() || (peer.eof && !peer.eof_delivered);
        more && !peer.closed && peer.interest.0 && self.core.wants_read(token)
    }

    /// The core reads up to `n` of the peer's bytes (its EOF, once they
    /// are all read), as one chunk.
    pub fn deliver(&mut self, token: u64, n: usize) {
        let now = self.now();
        let peer = self.peers.get_mut(&token).expect("known peer");
        let take = n.min(peer.outbox.len());
        let chunk: Vec<u8> = peer.outbox.drain(..take).collect();
        peer.delivered += take;
        if take > 0 {
            peer.read_at.push((peer.delivered, now));
        }
        if chunk.is_empty() {
            peer.eof_delivered = true;
        }
        let _reactor = reactor();
        self.core.received(token, &chunk, now);
        self.apply();
    }

    /// Queue `bytes` from `token` and read them the way the epoll driver
    /// does: 16 KiB chunks while the core wants them.
    pub fn send(&mut self, token: u64, bytes: &[u8]) {
        self.peers
            .get_mut(&token)
            .expect("known peer")
            .outbox
            .extend(bytes);
        while self.readable(token) {
            self.deliver(token, 16 * 1024);
        }
        self.end_turn();
    }

    /// The peer reads everything it was sent: its room is back and, if
    /// the core is waiting to write, the socket turns writable.
    pub fn read_all(&mut self, token: u64) -> Vec<String> {
        let peer = self.peers.get_mut(&token).expect("known peer");
        peer.room = peer.window;
        if peer.interest.1 && !peer.closed {
            self.flush(token);
        }
        self.apply();
        self.peers.get_mut(&token).expect("known peer").lines()
    }

    /// The socket of `token` fails.
    pub fn hang_up(&mut self, token: u64) {
        let now = self.now();
        {
            let _reactor = reactor();
            self.core.hung_up(token, now);
        }
        self.end_turn();
    }

    /// The `k`th dial out completes, connected or not: the upstream it
    /// was for and, connected, the token of its link.
    pub fn dialled(&mut self, k: usize, connected: bool) -> (usize, Option<u64>) {
        let upstream = self.dials.remove(k);
        let now = self.now();
        let token = {
            let _reactor = reactor();
            self.core.dialled(upstream, connected, now)
        };
        if let Some(token) = token {
            let mut link = Peer::client(usize::MAX);
            link.upstream = Some(upstream);
            self.peers.insert(token, link);
        }
        self.end_turn();
        (upstream, token)
    }

    /// Worker `w` takes the next run off the queue, if it is free.
    pub fn pick(&mut self, w: usize) -> bool {
        if !self.workers[w].idle() || self.queue.is_empty() {
            return false;
        }
        self.workers[w].run = self.queue.pop_front().expect("non-empty").into();
        true
    }

    /// Worker `w` runs the next job of its run, off the reactor role;
    /// what it made waits until [`Self::finish`] hands it back.
    pub fn start(&mut self, w: usize) {
        let job = self.workers[w].run.pop_front().expect("a job to start");
        let done = job.run(self.core.handler().as_ref(), &self.control);
        self.workers[w].done = Some(done);
    }

    pub fn finish(&mut self, w: usize) {
        let done = self.workers[w].done.take().expect("a job to finish");
        let now = self.now();
        {
            let _reactor = reactor();
            self.core.completed(done, now);
        }
        self.end_turn();
    }

    /// Worker `w` runs its whole run.
    pub fn settle_worker(&mut self, w: usize) {
        while !self.workers[w].run.is_empty() {
            self.start(w);
            self.finish(w);
        }
    }

    /// Every worker runs what it has and the queue empties.
    pub fn settle(&mut self) {
        loop {
            let mut moved = false;
            for w in 0..self.workers.len() {
                if self.workers[w].done.is_some() {
                    self.finish(w);
                    moved = true;
                } else if !self.workers[w].run.is_empty() {
                    self.start(w);
                    moved = true;
                } else {
                    moved |= self.pick(w);
                }
            }
            if !moved {
                return;
            }
        }
    }

    /// The pool's next steps, one per worker that can take one.
    pub fn pool_ops(&self) -> Vec<PoolOp> {
        let mut ops = Vec::new();
        for (w, worker) in self.workers.iter().enumerate() {
            if worker.done.is_some() {
                ops.push(PoolOp::Finish(w));
            } else if !worker.run.is_empty() {
                ops.push(PoolOp::Start(w));
            } else if !self.queue.is_empty() {
                ops.push(PoolOp::Pick(w));
            }
        }
        ops
    }

    pub fn pool(&mut self, op: PoolOp) {
        match op {
            PoolOp::Pick(w) => drop(self.pick(w)),
            PoolOp::Start(w) => self.start(w),
            PoolOp::Finish(w) => self.finish(w),
        }
    }

    pub fn advance(&mut self, by: Duration) {
        self.clock.advance(by);
        self.end_turn();
    }
}

/// One step of a worker.
#[derive(Clone, Copy, Debug)]
pub enum PoolOp {
    Pick(usize),
    Start(usize),
    Finish(usize),
}
