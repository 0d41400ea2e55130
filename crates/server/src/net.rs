//! The I/O layer: one event loop feeding a worker pool, so idle
//! connections cost a few buffered bytes instead of a thread. It knows
//! nothing about what a frame means: a [`Handler`] turns one request
//! line into one reply line, and both the daemon ([`crate::server`])
//! and the routing proxy (`cbes-router`) are handlers on this layer.
//!
//! The layer is a core and a driver. The [`Core`] (`net/sansio.rs`) is
//! the connection state machine: it reassembles newline-delimited
//! frames, runs admission per complete line, keeps every upstream link
//! with the [`Forward`]s on it, the heartbeat, each connection's reply
//! ledger and the deadline table, and drains — taking events with `now`
//! from the registry clock and returning [`Action`]s, its [`Stages`]
//! records stamped from those events. It holds no socket, thread or
//! clock. This file is the production driver: one
//! reactor thread over the [`crate::epoll`] shim that owns the listener,
//! every socket, the wake pair and the worker pool, and carries the
//! core's actions out. A seeded in-memory driver
//! (`tests/common/sim.rs`) runs the same core on one thread.
//!
//! Admission: an admitted line goes to the one job queue every worker
//! takes from; past `queue_capacity` frames waiting for a worker, a line
//! is answered at once with a structured `overloaded` error and the
//! advertised back-off hint. Workers run the handler off the reactor
//! thread, push the finished bytes back over a completion channel and
//! nudge the reactor with a wake byte. An admitted request that misses
//! its deadline is answered with a `timeout` error and the worker's late
//! reply is dropped.
//!
//! Ordering: while frames of a connection are queued or executing, its
//! next ones are held, and go to one worker together once those finish,
//! so a connection's frames run in arrival order. Every admitted
//! frame takes a slot in its connection's reply ledger, and replies
//! leave it in arrival order. Worker-run and forwarded frames keep
//! separate lanes, each ordered within itself, not against the other.
//! Shed and oversized-frame replies take no slot and may overtake,
//! which is why every reply carries the request id.
//!
//! Forwarding: every byte between a handler and its upstreams goes
//! through the core, over at most one non-blocking link per upstream,
//! each frame under the core's own id. A frame [`Handler::forward`]
//! answers with a [`Route::Relay`] never leaves the reactor thread: its
//! reply line is matched by that id, given its client's id back and
//! filed in its client connection's forwarded lane byte for byte, and an
//! attempt that is refused, missed or cut off moves the entry to its
//! next candidate. A [`Route::Scatter`] is written once on each
//! target's link; one reply per target, or a [`Miss`] at the attempt
//! deadline, is gathered and folded on a worker ([`Handler::gathered`])
//! into the client's reply or the next phase. The heartbeat is such a
//! scatter, sent by the core's clock ([`Handler::probe`]). The one
//! blocking step, the dial, is a worker job.
//!
//! Shutdown: [`Control::shutdown`] flips the flag and wakes the
//! reactor, which tells the core to drain: it stops accepting, answers
//! any newly-read line with a `shutting_down` shed, and the loop exits
//! once every admitted request is answered and every reply written;
//! dropping the job queue's sender then disconnects the workers.

mod sansio;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use cbes_obs::{names, next_span_id, Clock, Counter, Histogram, Registry};
use crossbeam::channel::{self, Receiver, Sender};

use crate::epoll::{PollEvent, Poller};
use crate::protocol::{error_kind, response_bytes, Response, ResponseEnvelope};
use crate::server::ServerConfig;

pub use sansio::{Action, Core, Done, Gathered, Job, Miss, Stage, Stages, STAGE_NAMES};
use sansio::{Answer, Work};

/// Reactor poll token of the listening socket.
const LISTENER_TOKEN: u64 = 0;
/// Reactor poll token of the worker wake channel.
const WAKE_TOKEN: u64 = 1;

/// What the I/O layer serves: one request line in, one reply line out.
/// Calls are monomorphised per handler; there is no `dyn` dispatch on
/// the frame path. Each call gets the frame's [`Stages`] record: a
/// handler marks the stages it runs and joins the frame's trace there.
pub trait Handler: Send + Sync + 'static {
    /// What a scatter carries to [`Self::gathered`] besides the replies:
    /// the handler's own state for the fold (`()` for one that never
    /// scatters).
    type Gather: Send + 'static;

    /// Run `line` on the reactor thread — asked only when nothing is
    /// pending or queued and a worker is free — and answer as
    /// [`Self::execute`] does, or `None` (the default) to queue it for a
    /// worker. Must be `None` for
    /// anything that can block on a disk or a peer, or whose cost the
    /// caller controls: decide from the decoded frame, not its bytes.
    fn inline(&self, _line: &str, _stages: &mut Stages) -> Option<(Vec<u8>, bool)> {
        None
    }

    /// Execute one frame: the encoded reply line (newline included)
    /// and whether it counts as a malformed-frame strike.
    fn execute(&self, line: &str, stages: &mut Stages) -> (Vec<u8>, bool);

    /// The backends the core may forward frames to — a [`Forward`] names
    /// them by position — and its timing. Read once at start.
    fn upstreams(&self) -> Upstreams {
        Upstreams::default()
    }

    /// `Some` to forward `line` instead of executing it. Runs on the
    /// reactor thread for every frame, so it must not block; the
    /// default forwards nothing and compiles away.
    fn forward(&self, _line: &str, _stages: &mut Stages) -> Option<Forward<Self::Gather>> {
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

    /// The scatter the core sends every [`Upstreams::heartbeat`], the
    /// first at start. Runs on the reactor thread.
    fn probe(&self) -> Option<Scatter<Self::Gather>> {
        None
    }

    /// Fold what one phase of a scatter gathered — each target's reply
    /// line or [`Miss`], in target order — into the client's reply, or
    /// into the next phase. Runs on a worker.
    fn gathered(&self, _state: Self::Gather, _replies: Vec<Gathered>) -> Next<Self::Gather> {
        Next::Reply(Response::error(
            error_kind::SERVICE,
            "nothing was scattered",
        ))
    }
}

/// The backends a handler reaches through the core.
#[derive(Debug, Default)]
pub struct Upstreams {
    /// Their addresses; a [`Forward`] names them by position.
    pub addrs: Vec<String>,
    /// Deadline for one dial, one relayed attempt's reply and one
    /// scatter phase.
    pub attempt_timeout: Duration,
    /// How long after one [`Handler::probe`] scatter is folded the next
    /// is sent; `None` sends none.
    pub heartbeat: Option<Duration>,
}

/// One frame to forward.
pub struct Forward<G> {
    /// The client's id, put back on its reply.
    pub id: u64,
    /// Where it goes.
    pub route: Route<G>,
}

/// How a [`Forward`] reaches its upstreams.
pub enum Route<G> {
    /// To the first candidate that answers; its reply goes to the client
    /// byte for byte.
    Relay {
        /// The frame after its id digits (`,"request":…}`), as
        /// [`crate::protocol::split_id`] cuts it; sent behind the core's
        /// own id.
        tail: String,
        /// Upstreams to try, in order; an attempt that fails moves on.
        candidates: Vec<usize>,
        /// The upstream [`Handler::relayed`] is told was the first choice.
        primary: usize,
    },
    /// To each target once, for [`Handler::gathered`] to fold.
    Scatter(Scatter<G>),
}

/// One phase of a scatter.
pub struct Scatter<G> {
    /// The frame after its id digits, written once on each target's
    /// link: no failover, no re-send.
    pub tail: String,
    /// The upstreams to ask, in the order the fold sees their replies.
    pub targets: Vec<usize>,
    /// The handler's state for the fold.
    pub state: G,
}

/// What [`Handler::gathered`] makes of a phase.
pub enum Next<G> {
    /// The client's reply.
    Reply(Response),
    /// Another phase, gathered and folded in turn.
    Scatter(Scatter<G>),
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
/// one source of time: deadlines, every stage stamp and the shed-spike
/// second.
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
    /// Each [`Stage`]'s name and histogram, in [`STAGE_NAMES`] order.
    stages: [(&'static names::Name, Arc<Histogram>); 10],
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
            stages: STAGE_NAMES.map(|name| (name, registry.histogram(name))),
            shed_tally: AtomicU64::new(0),
            registry: registry.clone(),
        })
    }

    /// Count one `overloaded` shed at `now` and run the shed-spike
    /// flight trigger: one event at the threshold crossing, and a
    /// (debounced) dump asked for whenever this clock second's shed
    /// count sits at or above the threshold. A shed may happen on the
    /// reactor, which writes no file: the owner's sweep writes the dump
    /// ([`Registry::dump_deferred`]).
    pub(crate) fn shed_overloaded(&self, now: Duration) {
        self.overloaded.incr();
        self.errors.incr();
        let spike = shed_spike_threshold();
        if spike == 0 {
            return;
        }
        let sec = now.as_secs();
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
            return;
        }
        let crossing = recent == spike;
        let detail = crossing.then(|| format!("{recent} requests shed in the last second"));
        self.registry.anomaly("shed_spike", detail);
    }

    /// Record an answered frame whose reply's last byte went out at
    /// `flushed`: each stage of `record` into its histogram and, when
    /// the frame joined a trace, into the span ring as a leaf, beside
    /// the hop span a forwarded frame's leaves hang under.
    pub(crate) fn stages(&self, mut record: Stages, flushed: Duration) {
        let last = match record.forwarded {
            true => Stage::Relayed,
            false => Stage::Flush,
        };
        record.mark(last, flushed);
        let (trace, span, parent) = record.trace;
        let spans = self.registry.spans();
        // Each stage began where the last one ended.
        let mut start = record.received;
        for &(stage, end) in record.ends.iter().flatten() {
            let start = std::mem::replace(&mut start, end);
            if let Some((name, hist)) = self.stages.get(stage as usize) {
                hist.record(end.saturating_sub(start));
                if trace != 0 {
                    spans.record(name, trace, next_span_id(), span, [start, end]);
                }
            }
        }
        if trace != 0 && record.forwarded {
            let hop = [record.received, flushed.as_micros() as u64];
            spans.record(names::SPAN_ROUTER_FORWARD, trace, span, parent, hop);
        }
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

/// What [`Control::shutdown`] calls to get a driver's attention.
pub type Wake = Box<dyn Fn() + Send + Sync>;

/// What the reactor, the workers, the handler and the owning handle
/// share about one running layer: the bound address, the load figures a
/// `Stats` reply reports, the layer's instruments, and the shutdown
/// trigger.
pub struct Control {
    addr: SocketAddr,
    shutdown: AtomicBool,
    /// Gets the driver's attention; its loop then reads the flag.
    wake: Wake,
    /// Worker threads.
    workers: usize,
    /// Admitted frames no worker has picked up, queued or held: the
    /// core counts them in, the worker that picks one up out.
    waiting: Arc<AtomicUsize>,
    metrics: Arc<NetMetrics>,
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

    /// Trigger the drain without waiting for it.
    pub fn shutdown(&self) {
        if !self.shutdown.swap(true, Ordering::AcqRel) {
            (self.wake)();
        }
    }
}

impl<G> Job<G> {
    /// Run this job as a worker does. A frame leaves the backlog
    /// ([`Control::queue_depth`]), its record stamps the pickup on the
    /// registry clock, and the handler executes it; a scatter's replies
    /// go to [`Handler::gathered`].
    pub fn run<H: Handler<Gather = G>>(self, handler: &H, control: &Control) -> Done<G> {
        let answer = match self.work {
            Work::Frame(line, mut stages) => {
                control.waiting.fetch_sub(1, Ordering::AcqRel);
                stages.mark(Stage::QueueWait, control.metrics.registry.clock().now());
                let (reply, malformed) = handler.execute(&line, &mut stages);
                Answer::Frame(reply, malformed, stages)
            }
            Work::Fold(id, state, replies) => match handler.gathered(state, replies) {
                Next::Reply(response) => {
                    Answer::Folded(Ok(encode_line(&ResponseEnvelope { id, response })))
                }
                Next::Scatter(next) => Answer::Folded(Err(next)),
            },
        };
        Done {
            token: self.token,
            seq: self.seq,
            answer,
        }
    }
}

/// Build the layer's [`Control`], the handler around it, and the
/// [`Core`] that serves the handler, for a driver to run: `addr` is what
/// the layer reports as bound, `wake` what [`Control::shutdown`] calls to
/// get the driver's attention. The layer counts into `metrics`, the same
/// handle the handler sheds through, so the shed-spike trigger sees both
/// kinds of shed.
pub fn assemble<H: Handler>(
    config: &ServerConfig,
    addr: SocketAddr,
    metrics: Arc<NetMetrics>,
    wake: Wake,
    handler: impl FnOnce(&Arc<Control>) -> std::io::Result<H>,
) -> std::io::Result<(Arc<Control>, Core<H>)> {
    let control = Arc::new(Control {
        addr,
        shutdown: AtomicBool::new(false),
        wake,
        workers: config.workers.max(1),
        waiting: Arc::default(),
        metrics: metrics.clone(),
    });
    let handler = Arc::new(handler(&control)?);
    let waiting = control.waiting.clone();
    let core = Core::new(config, handler, metrics, waiting, control.workers);
    Ok((control, core))
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

/// Bind `config.addr`, have `assemble` build the layer for the bound
/// address and the wake pair (no thread runs yet), and start serving:
/// the reactor thread and `config.workers` workers.
pub fn start<H: Handler>(
    config: &ServerConfig,
    assemble: impl FnOnce(SocketAddr, Wake) -> std::io::Result<(Arc<Control>, Core<H>)>,
) -> std::io::Result<NetHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = wake_pair()?;
    // A full wake buffer is fine: unread bytes already guarantee a wakeup.
    let wake = Box::new(move || drop((&wake_tx).write(&[1u8])));
    let (control, core) = assemble(listener.local_addr()?, wake)?;
    let mut poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;
    poller.register(wake_rx.as_raw_fd(), WAKE_TOKEN, true, false)?;
    // Bounded by admission: `queue_capacity` waiting frames.
    let (jobs, queue) = channel::unbounded::<Task<H::Gather>>();
    let (completion_tx, completions) = channel::unbounded::<Completion<H::Gather>>();
    let workers: Vec<_> = (0..control.workers)
        .map(|_| {
            let (handler, control) = (core.handler().clone(), control.clone());
            let (queue, completion_tx) = (queue.clone(), completion_tx.clone());
            std::thread::spawn(move || worker_loop(&*handler, &control, &queue, &completion_tx))
        })
        .collect();
    let metrics = &control.metrics;
    let driver = Driver {
        core,
        poller,
        listener,
        wake_rx,
        streams: HashMap::new(),
        jobs,
        completions,
        clock: metrics.registry.clock().clone(),
        loop_wakeups: metrics.loop_wakeups.clone(),
        control: control.clone(),
        scratch: vec![0; 16 * 1024].into_boxed_slice(),
    };
    let mut threads = vec![std::thread::spawn(move || driver.run())];
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

/// What travels to the worker pool: jobs to run in order, or one dial.
enum Task<G> {
    Run(Vec<Job<G>>),
    /// Connect to upstream `.0` at `.1` within `.2` — the one blocking
    /// step of forwarding.
    Dial(usize, String, Duration),
}

/// A worker's result travelling back to the reactor.
enum Completion<G> {
    Done(Done<G>),
    /// The socket (or not) for upstream `.0`.
    Dialled(usize, std::io::Result<TcpStream>),
}

fn worker_loop<H: Handler>(
    handler: &H,
    control: &Control,
    queue: &Receiver<Task<H::Gather>>,
    completion_tx: &Sender<Completion<H::Gather>>,
) {
    // The idle park on the shared job queue is a worker's designed wait.
    while let Ok(task) = cbes_obs::lock::recv(queue) {
        match task {
            Task::Run(jobs) => {
                for job in jobs {
                    let _ = completion_tx.send(Completion::Done(job.run(handler, control)));
                    (control.wake)();
                }
            }
            Task::Dial(i, addr, timeout) => {
                let stream = crate::client::dial(addr.as_str(), timeout);
                let _ = completion_tx.send(Completion::Dialled(i, stream));
                (control.wake)();
            }
        }
    }
}

/// The epoll driver: owns the listener, the wake receiver, every socket
/// and the pool's two channels, and carries out what the [`Core`]
/// decides; everything here runs on the one reactor thread.
struct Driver<H: Handler> {
    core: Core<H>,
    poller: Poller,
    listener: TcpListener,
    wake_rx: TcpStream,
    streams: HashMap<u64, TcpStream>,
    jobs: Sender<Task<H::Gather>>,
    completions: Receiver<Completion<H::Gather>>,
    control: Arc<Control>,
    /// The metrics registry's clock, the `now` of every event.
    clock: Clock,
    loop_wakeups: Arc<Counter>,
    /// Every socket read lands here, 16 KiB at a time.
    scratch: Box<[u8]>,
}

impl<H: Handler> Driver<H> {
    /// The event loop. The core's next deadline is its only timer; the
    /// shutdown flag is read when the wake pair fires. The thread holds
    /// the reactor role throughout, so a debug build panics on any
    /// blocking primitive the core or a handler hook reaches.
    fn run(mut self) {
        let _reactor = cbes_obs::lock::reactor();
        let mut events: Vec<PollEvent> = Vec::new();
        while !self.core.drained() {
            let deadline = self.core.next_deadline();
            let timeout = deadline.map(|d| d.saturating_sub(self.clock.now()));
            if self.poller.wait(&mut events, timeout).is_err() {
                // The reactor's one sleep: a 1 ms backoff after a poll
                // error keeps it from spinning hot, only on that path.
                cbes_obs::lock::unchecked_sleep(Duration::from_millis(1));
                continue;
            }
            if !events.is_empty() {
                self.loop_wakeups.incr();
            }
            for &ev in &events {
                match ev.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    token => {
                        if ev.readable {
                            self.readable(token);
                        }
                        if ev.writable {
                            self.flush(token);
                        }
                    }
                }
            }
            while let Ok(completion) = self.completions.try_recv() {
                match completion {
                    Completion::Done(done) => self.core.completed(done, self.clock.now()),
                    Completion::Dialled(i, stream) => self.dialled(i, stream),
                }
            }
            // Timeouts and due phases, then one write per connection for
            // everything the batch queued: worker replies, relayed
            // replies, frames for upstreams.
            self.core.tick(self.clock.now());
            self.apply();
        }
        // Dropping self drops the job queue's sender; workers exit on
        // the disconnect. The listener and every socket close with it.
    }

    /// Carry out the core's actions, including the ones carrying them
    /// out leads to.
    fn apply(&mut self) {
        while let Some(action) = self.core.next_action() {
            match action {
                Action::Flush(token) => self.flush(token),
                Action::Interest(token, read, write) => {
                    if let Some(stream) = self.streams.get(&token) {
                        let _ = self.poller.modify(stream.as_raw_fd(), token, read, write);
                    }
                }
                Action::Close(token) => {
                    if let Some(stream) = self.streams.remove(&token) {
                        let _ = self.poller.deregister(stream.as_raw_fd());
                    }
                }
                // Only a dead pool refuses work; its frames then time out.
                Action::Run(run) => drop(self.jobs.send(Task::Run(run))),
                Action::Dial(i, addr, timeout) => {
                    if self.jobs.send(Task::Dial(i, addr, timeout)).is_err() {
                        self.core.dialled(i, false, self.clock.now());
                    }
                }
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    // Draining: the drop is the reply.
                    let Some(token) = self.core.accepted() else {
                        continue;
                    };
                    self.register(token, stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Serve `stream` under the token the core gave it.
    fn register(&mut self, token: u64, stream: TcpStream) {
        if (self.poller)
            .register(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            return self.core.hung_up(token, self.clock.now());
        }
        self.streams.insert(token, stream);
    }

    /// Drain the wake bytes; the signal's work — the completion queue —
    /// is drained after the poll batch. A wake is also how shutdown
    /// arrives: the first one after the flag flips starts the drain.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        let mut rx = &self.wake_rx;
        loop {
            match rx.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if self.control.is_shutting_down() && self.core.drain() {
            let _ = self.poller.deregister(self.listener.as_raw_fd());
        }
    }

    /// Read what the socket has, a chunk at a time, while the core wants
    /// more: each chunk's frames are handled and their replies flushed
    /// before the next is taken.
    fn readable(&mut self, token: u64) {
        while self.core.wants_read(token) {
            let Some(mut stream) = self.streams.get(&token) else {
                return;
            };
            match stream.read(&mut self.scratch) {
                Ok(n) => {
                    let chunk = self.scratch.get(..n).unwrap_or(&[]);
                    self.core.received(token, chunk, self.clock.now());
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => self.core.hung_up(token, self.clock.now()),
            }
            self.apply();
        }
    }

    /// Write as much of the connection's output as the socket accepts,
    /// and report it.
    fn flush(&mut self, token: u64) {
        let Some(mut stream) = self.streams.get(&token) else {
            return;
        };
        let out = self.core.output(token);
        let mut sent = 0;
        let mut failed = false;
        while let Some(chunk) = out.get(sent..).filter(|c| !c.is_empty()) {
            match stream.write(chunk) {
                Ok(0) => failed = true,
                Ok(n) => sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => failed = true,
            }
            if failed {
                break;
            }
        }
        let now = self.clock.now();
        if failed {
            self.core.hung_up(token, now);
        } else {
            self.core.wrote(token, sent, now);
        }
    }

    /// A dial came back: its socket is served under the token the core
    /// gives it, or the core sends its entries on.
    fn dialled(&mut self, i: usize, stream: std::io::Result<TcpStream>) {
        let ready = stream.and_then(|stream| {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
            Ok(stream)
        });
        let token = self.core.dialled(i, ready.is_ok(), self.clock.now());
        if let (Some(token), Ok(stream)) = (token, ready) {
            self.register(token, stream);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::protocol::{encode, Request, RequestEnvelope};

    pub(crate) fn stats_line(id: u64) -> String {
        encode(&RequestEnvelope::new(id, Request::Stats))
    }

    /// A [`Control`] no driver serves, for a handler under unit test.
    pub(crate) fn idle_control() -> Arc<Control> {
        Arc::new(Control {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            shutdown: AtomicBool::new(false),
            wake: Box::new(|| {}),
            workers: 0,
            waiting: Arc::default(),
            metrics: NetMetrics::new(&Arc::default()),
        })
    }

    pub(crate) fn error_kind_of(envelope: &ResponseEnvelope) -> &str {
        match &envelope.response {
            Response::Error { kind, .. } => kind,
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
        let reactor = cbes_obs::lock::reactor();
        for _ in 1..SHED_SPIKE_DEFAULT {
            m.shed_overloaded(clock.now());
        }
        assert_eq!(flight.recorded(), 0, "below the threshold: no event");
        clock.advance(Duration::from_millis(800));
        m.shed_overloaded(clock.now());
        let events = flight.snapshot();
        assert_eq!(events.len(), 1, "the crossing is one event");
        assert_eq!(events[0].kind, "shed_spike");
        assert_eq!(events[0].detail, "8 requests shed in the last second");
        assert_eq!(events[0].at_us, 3_900_000);
        // Above the threshold the trigger only asks for the dump again.
        m.shed_overloaded(clock.now());
        assert_eq!(flight.recorded(), 1);
        // The reactor wrote nothing; the sweep writes one debounced dump.
        assert!(flight.dumped().is_empty());
        drop(reactor);
        let dump = registry.dump_deferred().expect("the sweep dumps");
        assert!(registry.dump_deferred().is_none());
        // A later second starts from one, wherever the last one ended.
        clock.advance(Duration::from_millis(100));
        for _ in 1..SHED_SPIKE_DEFAULT {
            m.shed_overloaded(clock.now());
        }
        assert_eq!(flight.recorded(), 1, "7 sheds in second 4 are no spike");
        assert!(registry.dump_deferred().is_none(), "and ask for no dump");
        assert_eq!(m.overloaded.get(), 2 * SHED_SPIKE_DEFAULT);
        std::fs::remove_file(dump).ok();
    }
}
