//! The tier under one seed: a router's core and three daemons' cores,
//! with the real handlers, on one thread and one manual clock, wired by
//! in-memory links through the driver of
//! `crates/server/tests/common/sim.rs`. A dial the router asks for is an
//! accept on the daemon's core, and bytes cross a link only when the
//! schedule carries them. No socket, no thread, no sleep.
//!
//! The first three tests are twins of socket tests in `tests/tier.rs`.
//! The property drives 1,000 seeded schedules of clients talking to the
//! router while one daemon may misbehave (a [`Nemesis`]), and checks the
//! tier's claims: every request is answered once, each lane of a
//! connection in arrival order, no frame reaches an instance twice, a
//! missed deadline is reported no sooner than it passes, replies are as
//! fresh as DESIGN §11's staleness bound says, and every frame's stages
//! at the router tile the time between the driver's read of its first
//! byte and the client's take of its reply's last. A failure prints its
//! seed and op list, and `run_seed(seed, ..)` replays it exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use cbes_cluster::load::LoadState;
use cbes_cluster::presets::two_switch_demo;
use cbes_cluster::NodeId;
use cbes_core::health::{HealthPolicy, NodeHealth};
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_obs::{Clock, Registry, SpanRecord};
use cbes_router::{HashRing, Membership, MembershipConfig, RouterServer};
use cbes_server::net::Handler;
use cbes_server::protocol::{encode, route_key_hash, split_id, Request, RequestEnvelope};
use cbes_server::{Response, ResponseEnvelope, Server, ServerConfig};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[path = "../../server/tests/common/sim.rs"]
mod driver;
use driver::{PoolOp, Sim};

const DAEMONS: usize = 3;
/// The router's deadline for one dial, relay attempt or scatter phase.
const ATTEMPT: Duration = Duration::from_millis(50);
const HEARTBEAT: Duration = Duration::from_millis(100);
/// The profiles every daemon holds from the start.
const APPS: [&str; 4] = ["app0", "app1", "app2", "app3"];

fn profile(name: &str) -> AppProfile {
    let mk = |rank: usize| ProcessProfile {
        rank,
        x: 5.0,
        o: 0.2,
        b: 0.5,
        sends: vec![MessageGroup {
            peer: 1 - rank,
            bytes: 8192,
            count: 50,
        }],
        recvs: vec![MessageGroup {
            peer: 1 - rank,
            bytes: 8192,
            count: 50,
        }],
        profile_speed: 1.0,
        lambda: 1.0,
    };
    AppProfile {
        name: name.to_string(),
        procs: vec![mk(0), mk(1)],
        arch_ratios: BTreeMap::new(),
    }
}

/// How one daemon misbehaves: the scripted upstreams of
/// `crates/server/tests/sim.rs`, as named peers.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Nemesis {
    /// Reads what the router sends it and answers none of it.
    Mute,
    /// Answers everything `shutting_down`: a daemon draining for good.
    Refusing,
    /// Hangs up on the router mid-exchange, and stays down.
    HangUp,
}

/// A router over three daemons on one clock.
struct Tier<R: Handler, D: Handler> {
    router: Sim<R>,
    daemons: Vec<Sim<D>>,
    membership: Arc<Membership>,
    /// Each router link's token, with its daemon and that daemon's token.
    links: BTreeMap<u64, (usize, u64)>,
    /// The daemon each misbehaviour struck.
    struck: BTreeMap<usize, Nemesis>,
    /// Every frame id each daemon has been sent, to catch a second send.
    sent: Vec<BTreeSet<u64>>,
    /// What each daemon answered: id → the epoch of its `Predictions`.
    predicted: Vec<BTreeMap<u64, u64>>,
    /// Frame tails the router wrote on a link, without their trace
    /// context, with the id they went under.
    wired: BTreeMap<String, u64>,
    /// The router's clients: what each sent and read.
    clients: BTreeMap<u64, Client>,
    /// The highest `LoadObserved` epoch any client has read.
    freshest: u64,
    violations: Vec<String>,
}

fn tier(workers: usize) -> Tier<impl Handler, impl Handler> {
    let clock = Clock::manual();
    let addrs = (0..DAEMONS).map(|i| format!("d{i}")).collect();
    let config = MembershipConfig {
        cluster: "demo".to_string(),
        heartbeat: HEARTBEAT,
        probe_timeout: ATTEMPT,
        policy: HealthPolicy {
            suspect_after: 1,
            down_after: 3,
            suspect_cost_factor: 1.0,
        },
        replicas: 1,
    };
    let registry = Arc::new(Registry::with_clock(clock.clone()));
    let membership = Membership::new(addrs, config, registry.clone());
    let addr = "127.0.0.1:0".parse().expect("literal address");
    let router = RouterServer::assemble(&membership, addr, Box::new(|| {}));
    let router = Sim::new(registry, router.expect("builds"));
    let cluster = Arc::new(two_switch_demo());
    let daemons = (0..DAEMONS).map(|i| {
        let registry = Arc::new(Registry::with_clock(clock.clone()));
        let service = CbesService::self_calibrated(cluster.clone(), ForecastKind::LastValue);
        let service = service.with_obs(registry.clone());
        for app in APPS {
            service
                .registry()
                .insert(profile(app))
                .expect("a valid profile");
        }
        let config = ServerConfig {
            workers,
            ..ServerConfig::default()
        };
        let addr = format!("127.0.0.{}:1", i + 1)
            .parse()
            .expect("literal address");
        let daemon = Server::assemble(Arc::new(service), &config, addr, Box::new(|| {}));
        Sim::new(registry, daemon.expect("builds"))
    });
    Tier {
        router,
        daemons: daemons.collect(),
        membership,
        links: BTreeMap::new(),
        struck: BTreeMap::new(),
        sent: vec![BTreeSet::new(); DAEMONS],
        predicted: vec![BTreeMap::new(); DAEMONS],
        wired: BTreeMap::new(),
        clients: BTreeMap::new(),
        freshest: 0,
        violations: Vec::new(),
    }
}

impl<R: Handler, D: Handler> Drop for Tier<R, D> {
    /// The flight dumps a fault triggered go with the tier.
    fn drop(&mut self) {
        let daemons = self.daemons.iter().map(|d| &d.registry);
        let registries = std::iter::once(&self.router.registry).chain(daemons);
        for path in registries.flat_map(|r| r.flight().dumped()) {
            std::fs::remove_file(path).ok();
        }
    }
}

/// One step of a schedule.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// The router reads up to `.1` bytes of client `.0`.
    Deliver(u64, usize),
    /// Client `.0` reads what it was sent.
    Read(u64),
    Router(PoolOp),
    Daemon(usize, PoolOp),
    /// The router's `.0`th dial out completes.
    Dial(usize),
    /// What is on link `.0` (the router's token) crosses it both ways.
    Carry(u64),
    Advance(Duration),
    /// Daemon `.0` starts to misbehave.
    Strike(usize, Nemesis),
}

impl<R: Handler, D: Handler> Tier<R, D> {
    fn now(&self) -> Duration {
        self.router.now()
    }

    /// The end of a step: every core ticks and a daemon told to shut
    /// down starts its drain.
    fn tick(&mut self) {
        self.router.end_turn();
        for daemon in &mut self.daemons {
            if daemon.control.is_shutting_down() {
                daemon.core.drain();
            }
            daemon.end_turn();
        }
    }

    fn perform(&mut self, op: Op) {
        match op {
            Op::Deliver(token, n) => {
                self.router.deliver(token, n);
                // The router read these frames now, and planned each one
                // against this membership view.
                let delivered = self.router.peers[&token].delivered;
                let arrived = (self.now(), self.freshest, self.membership.usable());
                let client = self.clients.get_mut(&token).expect("a client");
                let read = client.frames.iter_mut().filter(|f| f.end <= delivered);
                for frame in read.filter(|f| f.arrived.is_none()) {
                    frame.arrived = Some(arrived.clone());
                }
            }
            Op::Read(token) => {
                let now = self.now();
                for line in self.router.read_all(token) {
                    let reply: ResponseEnvelope =
                        serde_json::from_str(&line).expect("a reply envelope");
                    if let Response::LoadObserved { epoch } = reply.response {
                        self.freshest = self.freshest.max(epoch);
                    }
                    let client = self.clients.get_mut(&token).expect("a client");
                    client.replies.push((now, reply));
                }
            }
            Op::Router(op) => self.router.pool(op),
            Op::Daemon(d, op) => self.daemons[d].pool(op),
            Op::Dial(k) => self.dial(k),
            Op::Carry(link) => self.carry(link),
            Op::Advance(by) => self.router.clock.advance(by),
            Op::Strike(d, nemesis) => self.strike(d, nemesis),
        }
        self.tick();
    }

    /// A dial reaches a daemon that accepts, unless it hung up for good
    /// or is draining.
    fn dial(&mut self, k: usize) {
        let i = self.router.dials[k];
        let refused = self.struck.get(&i) == Some(&Nemesis::HangUp);
        let accepted = (!refused).then(|| self.daemons[i].connect(usize::MAX));
        match accepted.flatten() {
            Some(theirs) => {
                let (_, ours) = self.router.dialled(k, true);
                let ours = ours.expect("a link for a connected dial");
                self.links.insert(ours, (i, theirs));
            }
            None => drop(self.router.dialled(k, false)),
        }
    }

    /// Move what the router wrote on `link` to the daemon and what the
    /// daemon wrote back to the router, each read by the other's core,
    /// noting every frame that crosses.
    fn carry(&mut self, link: u64) {
        let Some(&(i, theirs)) = self.links.get(&link) else {
            return;
        };
        let peer = self.router.peers.get_mut(&link).expect("a link peer");
        for line in peer.lines() {
            let Some((id, tail)) = split_id(&line) else {
                continue;
            };
            if !self.sent[i].insert(id) {
                self.violations
                    .push(format!("frame {id} reached d{i} twice"));
            }
            self.wired.insert(untraced(tail).to_string(), id);
            if self.struck.get(&i) != Some(&Nemesis::Mute) {
                let bytes = format!("{line}\n");
                self.daemons[i]
                    .peers
                    .get_mut(&theirs)
                    .expect("a peer")
                    .outbox
                    .extend(bytes.as_bytes());
            }
        }
        let daemon = &mut self.daemons[i];
        while daemon.readable(theirs) {
            daemon.deliver(theirs, 16 * 1024);
        }
        daemon.end_turn();
        let replies = daemon.peers.get_mut(&theirs).expect("a peer").lines();
        for line in replies {
            if let Some((id, tail)) = split_id(&line) {
                let epoch = tail.strip_prefix(",\"response\":{\"Predictions\":{\"epoch\":");
                let epoch = epoch.and_then(|rest| rest.split(',').next()?.parse().ok());
                if let Some(epoch) = epoch {
                    self.predicted[i].insert(id, epoch);
                }
            }
            let peer = self.router.peers.get_mut(&link).expect("a link peer");
            peer.outbox.extend(format!("{line}\n").as_bytes());
        }
        while self.router.readable(link) {
            self.router.deliver(link, 16 * 1024);
        }
    }

    fn strike(&mut self, d: usize, nemesis: Nemesis) {
        self.struck.insert(d, nemesis);
        match nemesis {
            Nemesis::Mute => {}
            Nemesis::Refusing => drop(self.daemons[d].core.drain()),
            Nemesis::HangUp => {
                let cut: Vec<(u64, u64)> = (self.links.iter())
                    .filter(|(_, (i, _))| *i == d)
                    .map(|(&ours, &(_, theirs))| (ours, theirs))
                    .collect();
                for (ours, theirs) in cut {
                    self.links.remove(&ours);
                    if !self.router.peers[&ours].closed {
                        self.router.hang_up(ours);
                    }
                    if !self.daemons[d].peers[&theirs].closed {
                        self.daemons[d].hang_up(theirs);
                    }
                }
            }
        }
    }

    /// Every step that can happen now, except the clock moving.
    fn ready(&self, ops: &mut Vec<Op>) {
        let router = &self.router;
        for (&token, peer) in router.peers.iter().filter(|(_, p)| !p.closed) {
            if peer.upstream.is_none() {
                if router.readable(token) {
                    ops.push(Op::Deliver(token, 16 * 1024));
                }
                if peer.read < peer.inbox.len() || peer.interest.1 {
                    ops.push(Op::Read(token));
                }
            } else if self.links.contains_key(&token) && self.link_busy(token) {
                ops.push(Op::Carry(token));
            }
        }
        ops.extend(router.pool_ops().into_iter().map(Op::Router));
        for (d, daemon) in self.daemons.iter().enumerate() {
            ops.extend(daemon.pool_ops().into_iter().map(|op| Op::Daemon(d, op)));
        }
        if !router.dials.is_empty() {
            ops.push(Op::Dial(0));
        }
    }

    /// Whether link `token` has bytes to carry either way.
    fn link_busy(&self, token: u64) -> bool {
        let ours = &self.router.peers[&token];
        let (i, theirs) = self.links[&token];
        let theirs = &self.daemons[i].peers[&theirs];
        ours.read < ours.inbox.len() || theirs.read < theirs.inbox.len()
    }

    /// Run every step there is, moving the clock only when nothing else
    /// can happen, until `done`.
    fn settle_until(&mut self, ops: &mut Vec<Op>, mut done: impl FnMut(&Self) -> bool) {
        for _ in 0..20_000 {
            if done(self) {
                return;
            }
            let mut next = Vec::new();
            self.ready(&mut next);
            if next.is_empty() {
                let cores = self.daemons.iter().map(|d| d.core.next_deadline());
                let due = cores
                    .chain([self.router.core.next_deadline()])
                    .flatten()
                    .min();
                let Some(due) = due else {
                    return;
                };
                next.push(Op::Advance(due.saturating_sub(self.now())));
            }
            for op in next {
                ops.push(op);
                self.perform(op);
            }
        }
        panic!("the tier never settled");
    }

    /// A client of the router.
    fn client(&mut self) -> u64 {
        let token = self.router.connect(usize::MAX).expect("the router accepts");
        let client = Client {
            frames: Vec::new(),
            sent: 0,
            replies: Vec::new(),
        };
        self.clients.insert(token, client);
        token
    }

    /// Queue `requests` from client `c`, numbered from `first`, each
    /// in a trace of its own.
    fn send(&mut self, c: u64, first: u64, requests: &[Request]) {
        let client = self.clients.get_mut(&c).expect("a client");
        let mut bytes = Vec::new();
        for (id, request) in (first..).zip(requests) {
            let envelope = RequestEnvelope::traced(id, request.clone(), c << 32 | id, 0);
            let line = encode(&envelope);
            let tail = split_id(&line).expect("canonical").1.to_string();
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            client.sent += line.len() + 1;
            client.frames.push(Frame {
                id,
                kind: Kind::of(request),
                tail,
                end: client.sent,
                arrived: None,
            });
        }
        let peer = self.router.peers.get_mut(&c).expect("a client");
        peer.outbox.extend(&bytes);
    }

    /// How many replies client `c` has read.
    fn answered(&self, c: u64) -> usize {
        self.clients[&c].replies.len()
    }

    /// Client `c`'s replies since it last looked.
    fn replies(&mut self, c: u64) -> Vec<ResponseEnvelope> {
        let client = self.clients.get_mut(&c).expect("a client");
        client.replies.drain(..).map(|(_, reply)| reply).collect()
    }
}

/// A frame tail without the trace context the router rewrites.
fn untraced(tail: &str) -> &str {
    tail.split(",\"trace_id\"").next().unwrap_or(tail)
}

fn mapping(ids: &[u32]) -> Mapping {
    Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
}

/// The hash owner of `app` among the three daemons.
fn owner(app: &str) -> usize {
    let ring = HashRing::new(DAEMONS);
    ring.primary(route_key_hash("demo", app))
        .expect("a non-empty ring")
}

fn observe(node: u32) -> Request {
    let mut load = LoadState::idle(two_switch_demo().len());
    load.set_cpu_avail(NodeId(node % 8), 0.5);
    Request::ObserveLoad { load }
}

/// Twin of `heartbeat_thread_marks_dead_instances_down`.
#[test]
fn heartbeats_mark_a_dead_instance_down_with_no_sleep() {
    let mut tier = tier(2);
    let mut ops = Vec::new();
    tier.settle_until(&mut ops, |t| t.membership.report().heartbeats > 0);
    assert_eq!(tier.membership.counts(), (3, 0, 0));
    tier.perform(Op::Strike(1, Nemesis::HangUp));
    tier.settle_until(&mut ops, |t| t.membership.counts().2 == 1);
    assert_eq!(tier.membership.health(1), NodeHealth::Down);
    assert_eq!(tier.membership.leader(), Some(0));
    // Three missed probes after the hang-up, one heartbeat apart.
    assert!(tier.now() >= 3 * HEARTBEAT, "{:?}", tier.now());
}

/// Twin of `observations_replicate_from_leader_to_followers`.
#[test]
fn sweeps_replicate_and_survive_a_leader_failover_with_no_sleep() {
    let mut tier = tier(2);
    let mut ops = Vec::new();
    tier.settle_until(&mut ops, |t| t.membership.counts() == (3, 0, 0));
    let c = tier.client();
    let epochs = |tier: &mut Tier<_, _>, c| -> Vec<u64> {
        let replies = tier.replies(c);
        let epoch = |r: ResponseEnvelope| match r.response {
            Response::LoadObserved { epoch } => epoch,
            other => panic!("expected LoadObserved, got {other:?}"),
        };
        replies.into_iter().map(epoch).collect()
    };
    for sweep in 1..=6 {
        tier.send(c, sweep, &[observe(sweep as u32)]);
        tier.settle_until(&mut ops, |t| t.answered(c) == 1);
        assert_eq!(epochs(&mut tier, c), [sweep]);
        assert_eq!(tier.membership.replication_lag(), 0, "every follower acked");
    }
    let leader = tier.membership.leader().expect("a leader");
    tier.perform(Op::Strike(leader, Nemesis::HangUp));
    tier.settle_until(&mut ops, |t| t.membership.counts().2 == 1);
    tier.send(c, 7, &[observe(7)]);
    tier.settle_until(&mut ops, |t| t.answered(c) == 1);
    assert_eq!(
        epochs(&mut tier, c),
        [7],
        "epoch continuity across leader failover"
    );
    assert_eq!(tier.membership.replication_lag(), 0);
}

/// Twin of `a_window_in_flight_on_a_dying_primary_is_answered_once_by_the_replica`.
#[test]
fn a_window_on_a_primary_that_hangs_up_is_answered_once_by_the_replica() {
    const WINDOW: u64 = 32;
    let mut tier = tier(2);
    let mut ops = Vec::new();
    tier.settle_until(&mut ops, |t| t.membership.counts() == (3, 0, 0));
    let primary = owner("app0");
    let c = tier.client();
    let compare = Request::Compare {
        app: "app0".to_string(),
        mappings: vec![mapping(&[0, 1])],
    };
    tier.send(c, 1, &vec![compare; WINDOW as usize]);
    // The primary is sent the whole window and answers none of it...
    tier.perform(Op::Strike(primary, Nemesis::Mute));
    tier.settle_until(&mut ops, |t| t.sent[primary].len() as u64 >= WINDOW);
    // ...and hangs up: all of it goes to the replica, none of it twice.
    tier.perform(Op::Strike(primary, Nemesis::HangUp));
    tier.settle_until(&mut ops, |t| t.answered(c) as u64 == WINDOW);
    let replies = tier.replies(c);
    let ids: Vec<u64> = replies.iter().map(|r| r.id).collect();
    assert_eq!(ids, (1..=WINDOW).collect::<Vec<_>>());
    assert!(replies
        .iter()
        .all(|r| matches!(r.response, Response::Predictions { .. })));
    let report = tier.membership.report();
    let replica = (0..DAEMONS).find(|&i| report.instances[i].failed_over > 0);
    let replica = replica.expect("a replica answered");
    assert_eq!(report.instances[replica].failed_over, WINDOW);
    assert_eq!(report.instances[primary].routed, 0);
    assert!(tier.violations.is_empty(), "{:?}", tier.violations);
}

/// What one frame asks.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Compare,
    Observe,
    Stats,
    Register,
    Membership,
    Other,
}

impl Kind {
    fn of(request: &Request) -> Kind {
        match request {
            Request::Compare { .. } => Kind::Compare,
            Request::ObserveLoad { .. } => Kind::Observe,
            Request::Stats => Kind::Stats,
            Request::RegisterProfile { .. } => Kind::Register,
            Request::Membership => Kind::Membership,
            _ => Kind::Other,
        }
    }
}

/// One frame a client sent.
struct Frame {
    id: u64,
    kind: Kind,
    /// The frame after its id, as the router forwards it.
    tail: String,
    /// Offset just past its newline in what the client sent.
    end: usize,
    /// When the router read it: the clock, the highest `LoadObserved`
    /// epoch any client had read by then, and the instances usable then.
    arrived: Option<(Duration, u64, Vec<usize>)>,
}

/// One client of the router.
struct Client {
    frames: Vec<Frame>,
    /// Bytes queued so far.
    sent: usize,
    /// Its replies, each with the clock when it read it.
    replies: Vec<(Duration, ResponseEnvelope)>,
}

/// What a passing seed did, to compare two runs of it.
struct Transcript {
    ops: Vec<Op>,
    received: Vec<Vec<u8>>,
}

/// A client's script: up to 10 requests, each with a tail no other
/// frame of the seed shares (its mapping pair is its own).
fn script_for(rng: &mut StdRng, c: u64) -> Vec<Request> {
    let count = rng.random_range(1..11u64);
    (1..=count)
        .map(|id| {
            let pair = (c * 16 + id) as u32;
            let (a, b) = (pair % 8, (pair % 8 + 1 + pair / 8 % 7) % 8);
            let app = APPS[rng.random_range(0..APPS.len())];
            match rng.random_range(0..20) {
                0..=7 => Request::Compare {
                    app: app.to_string(),
                    mappings: vec![mapping(&[a, b])],
                },
                8..=11 => observe(pair),
                12..=14 => Request::Stats,
                15..=16 => Request::RegisterProfile {
                    profile: profile(app),
                },
                _ => Request::Membership,
            }
        })
        .collect()
}

impl<R: Handler, D: Handler> Tier<R, D> {
    /// Every step the schedule could take next.
    fn enabled(&self, rng: &mut StdRng, strike: Option<(usize, Nemesis)>) -> Vec<Op> {
        let mut ops = Vec::new();
        self.ready(&mut ops);
        ops.extend((1..self.router.dials.len()).map(Op::Dial));
        for op in &mut ops {
            if let Op::Deliver(_, n) = op {
                *n = rng.random_range(16..400usize);
            }
        }
        let ms = match rng.random_range(0..12) {
            0 => 40,
            _ => rng.random_range(1..8u64),
        };
        ops.push(Op::Advance(Duration::from_millis(ms)));
        if let Some((d, nemesis)) = strike.filter(|(d, _)| !self.struck.contains_key(d)) {
            if rng.random_range(0..60) == 0 {
                ops.push(Op::Strike(d, nemesis));
            }
        }
        ops
    }

    /// Every instance that answered the compare with tail `tail` with
    /// epoch `epoch`.
    fn answered_with(&self, tail: &str, epoch: u64) -> Vec<usize> {
        let Some(id) = self.wired.get(untraced(tail)) else {
            return Vec::new();
        };
        (0..DAEMONS)
            .filter(|&i| self.predicted[i].get(id) == Some(&epoch))
            .collect()
    }

    /// Hold every client's replies to what it sent.
    fn check(&self) -> Result<(), String> {
        if let Some(v) = self.violations.first() {
            return Err(v.clone());
        }
        let sims = std::iter::once(&self.router.violations);
        let driver = sims
            .chain(self.daemons.iter().map(|d| &d.violations))
            .flatten();
        if let Some(v) = driver.into_iter().next() {
            return Err(format!("driver contract: {v}"));
        }
        // Each epoch a `LoadObserved` returned, with who was usable when
        // each sweep that returned it arrived.
        let mut observed: BTreeMap<u64, Vec<&[usize]>> = BTreeMap::new();
        for client in self.clients.values() {
            for (_, reply) in &client.replies {
                let Response::LoadObserved { epoch } = reply.response else {
                    continue;
                };
                let frame = client.frames.iter().find(|f| f.id == reply.id);
                let usable = frame
                    .and_then(|f| f.arrived.as_ref())
                    .map(|a| a.2.as_slice());
                observed.entry(epoch).or_default().extend(usable);
            }
        }
        for (&token, client) in &self.clients {
            let mut answered = BTreeSet::new();
            let mut last = [0u64; 2];
            for (read_at, reply) in &client.replies {
                let id = reply.id;
                let Some(frame) = client.frames.iter().find(|f| f.id == id) else {
                    return Err(format!("client {token}: a reply to no frame: {reply:?}"));
                };
                if !answered.insert(id) {
                    return Err(format!("client {token}: frame {id} answered twice"));
                }
                let lane = &mut last[usize::from(frame.kind != Kind::Membership)];
                if id < *lane {
                    return Err(format!("client {token}: frame {id} answered after {lane}"));
                }
                *lane = id;
                let Some((arrived_at, freshest, _)) = &frame.arrived else {
                    return Err(format!(
                        "client {token}: frame {id} answered before it was read"
                    ));
                };
                let (kind, message) = match &reply.response {
                    Response::Error { kind, message, .. } => (kind.as_str(), message.as_str()),
                    _ => ("", ""),
                };
                // A missed deadline is reported once it has passed.
                if message.contains("no reply within the attempt deadline")
                    && read_at.saturating_sub(*arrived_at) < ATTEMPT
                {
                    return Err(format!(
                        "client {token}: frame {id} reported a missed deadline {:?} after it arrived",
                        read_at.saturating_sub(*arrived_at)
                    ));
                }
                let fits = match (frame.kind, &reply.response) {
                    (Kind::Compare, Response::Predictions { .. }) => true,
                    (Kind::Observe, Response::LoadObserved { .. }) => true,
                    (Kind::Stats, Response::Stats { .. }) => true,
                    (Kind::Register, Response::Registered { .. }) => true,
                    (Kind::Membership, Response::Membership { .. }) => true,
                    (Kind::Compare, _) => {
                        message == "no usable instance owns this key" || kind == "shutting_down"
                    }
                    (Kind::Observe | Kind::Register, _) => kind == "service",
                    (Kind::Stats, _) => message == "no usable instance answered",
                    _ => false,
                };
                if !fits {
                    return Err(format!(
                        "client {token}: {:?} frame {id} answered {reply:?}",
                        frame.kind
                    ));
                }
                // DESIGN §11's staleness bound.
                let Response::Predictions { epoch, .. } = reply.response else {
                    continue;
                };
                if epoch >= *freshest {
                    continue;
                }
                let pushed_to = observed.get(freshest).map(Vec::as_slice).unwrap_or(&[]);
                for i in self.answered_with(&frame.tail, epoch) {
                    if pushed_to.iter().any(|usable| usable.contains(&i)) {
                        return Err(format!(
                            "client {token}: frame {id} answered by d{i} at epoch {epoch}, \
                             {freshest} having returned while d{i} was usable"
                        ));
                    }
                }
            }
            if let Some(f) = client.frames.iter().find(|f| !answered.contains(&f.id)) {
                return Err(format!("client {token}: frame {} was never answered", f.id));
            }
            self.check_stages(token, client)?;
        }
        Ok(())
    }

    /// Every frame's stage records in the router's ring sum exactly to
    /// when client `token` took its reply's last byte less when the
    /// router read its first, both by the driver's clock, ending in one
    /// flush; a forwarded frame's hop span is that interval too.
    fn check_stages(&self, token: u64, client: &Client) -> Result<(), String> {
        let peer = &self.router.peers[&token];
        let spans = self.router.registry.spans();
        for (line, end) in peer.inbox_lines() {
            let id = split_id(&line).map_or(0, |(id, _)| id);
            let k = client.frames.iter().position(|f| f.id == id);
            let k = k.ok_or_else(|| format!("client {token}: a reply to no frame: {line}"))?;
            let start = k.checked_sub(1).map_or(0, |j| client.frames[j].end);
            let Some((read, took)) = peer.between(start, end) else {
                return Err(format!(
                    "client {token}: frame {id} was never read or taken"
                ));
            };
            let want = (took.as_micros() - read.as_micros()) as u64;
            let records = spans.of_trace(token << 32 | id);
            // The span they hang under is the trace's root: the hop, or
            // a local row's own span.
            let (roots, leaves): (Vec<&SpanRecord>, Vec<_>) =
                records.iter().partition(|r| r.parent == 0);
            let names: Vec<&str> = leaves.iter().map(|r| r.name).collect();
            let sum: u64 = leaves.iter().map(|r| r.dur_us).sum();
            let flushes = names.iter().filter(|n| n.ends_with("flush_us")).count();
            if sum != want || flushes != 1 || !names.last().is_some_and(|n| n.ends_with("flush_us"))
            {
                return Err(format!(
                    "client {token}: frame {id}: stages {names:?} sum to {sum} us, read to taken is {want} us"
                ));
            }
            let hops: Vec<u64> = roots.iter().map(|r| r.dur_us).collect();
            if client.frames[k].kind != Kind::Membership && hops != [want] {
                return Err(format!(
                    "client {token}: frame {id}: hop spans {hops:?}, want {want} us"
                ));
            }
        }
        Ok(())
    }
}

/// Run seed `seed`: three daemons, one of which may misbehave, up to
/// three clients with scripts, 400 seeded steps, then everything
/// settles and every client is checked. Every op goes to `ops` as it is
/// taken; `Err` says which claim broke.
fn run_seed(seed: u64, ops: &mut Vec<Op>) -> Result<Transcript, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tier = tier(rng.random_range(1..3usize));
    let nemeses = [Nemesis::Mute, Nemesis::Refusing, Nemesis::HangUp];
    let strike = match rng.random_range(0..4usize) {
        0 => None,
        k => Some((rng.random_range(0..DAEMONS), nemeses[k - 1])),
    };
    let mut tokens = Vec::new();
    for c in 1..=rng.random_range(1..4u64) {
        let token = tier.client();
        let script = script_for(&mut rng, c);
        tier.send(token, 1, &script);
        tokens.push(token);
    }
    for _ in 0..400 {
        let enabled = tier.enabled(&mut rng, strike);
        let op = enabled[rng.random_range(0..enabled.len())];
        ops.push(op);
        tier.perform(op);
    }
    let all_answered = |t: &Tier<_, _>| {
        t.clients
            .values()
            .all(|c| c.replies.len() == c.frames.len())
    };
    tier.settle_until(ops, all_answered);
    tier.check()?;
    let received = tokens
        .iter()
        .map(|t| tier.router.peers[t].inbox.clone())
        .collect();
    Ok(Transcript {
        ops: ops.clone(),
        received,
    })
}

#[test]
fn the_tier_answers_every_request_once_and_fresh_over_1000_schedules() {
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
fn a_tier_seed_replays_exactly() {
    let run = |seed| run_seed(seed, &mut Vec::new()).expect("a passing seed");
    for seed in [5, 21, 300] {
        let (first, again) = (run(seed), run(seed));
        assert_eq!(format!("{:?}", first.ops), format!("{:?}", again.ops));
        assert_eq!(first.received, again.received);
    }
}
