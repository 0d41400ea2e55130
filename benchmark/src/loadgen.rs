//! The closed-loop load generator: one thread, one connection,
//! window-synchronous pipelining, plus the verification pass that
//! precedes every timed run.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cbes_core::eval::Prediction;
use cbes_core::CbesService;
use cbes_server::protocol::{Request, Response, ResponseEnvelope};

use crate::gen::{Stream, Window};
use crate::stats::{Schedule, Slot};

/// A reply that never arrives must fail the run, not hang it: the
/// daemon's own request deadline is 10 s.
const READ_TIMEOUT: Duration = Duration::from_secs(15);
/// One reply in this many is fully parsed during timed slices; the
/// rest are byte-scanned. A full parse of a `batch_heavy` reply costs
/// the client over a millisecond, three times the daemon's work for
/// it: parsing more would time the generator, not CBES.
pub const PARSE_ONE_IN: usize = 64;
/// `PAUSE`s between two polls of the socket (about 2 us). Every poll is
/// a `read` that takes the socket's lock, which the daemon's replies
/// need too: polling back to back cost `compare_pipelined` 2-3 %.
const SPINS_PER_POLL: usize = 32;

/// A spinning thread that keeps one core busy while the client runs in
/// lock step (depth 1: the verification pass and `compare_lockstep`).
///
/// On a 2-vCPU virtual machine a lock-step round trip is bimodal: about
/// 21 us when the kernel keeps the client and the daemon's reactor on
/// one core, about 70 us when it spreads them and every hand-off wakes
/// an idle vCPU through the hypervisor. The placement is chosen when
/// the threads start and sticks, so the same code reads 3x apart from
/// run to run. With one of two cores occupied the two share the other,
/// and the hand-off measured is two context switches rather than the
/// host's idle-wake latency. The thread is not pinned, so it only does
/// this on exactly two cores: [`CoreHog::on_two_cores`] starts none on
/// any other machine, and the run says which it was.
pub struct CoreHog {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl CoreHog {
    /// A hog when the machine has exactly two cores, else `None`.
    pub fn on_two_cores() -> Option<CoreHog> {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        (cores == 2).then(CoreHog::start)
    }

    fn start() -> CoreHog {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        CoreHog {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for CoreHog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            // The loop cannot panic; nothing to report.
            let _ = thread.join();
        }
    }
}

pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// True once [`Conn::poll`] made the socket non-blocking.
    polling: bool,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let open = || -> std::io::Result<Conn> {
            let writer = TcpStream::connect(addr)?;
            writer.set_nodelay(true)?;
            writer.set_read_timeout(Some(READ_TIMEOUT))?;
            Ok(Conn {
                reader: BufReader::with_capacity(64 * 1024, writer.try_clone()?),
                writer,
                polling: false,
            })
        };
        open().map_err(|e| format!("cannot connect to {addr}: {e}"))
    }

    /// From now on wait for replies by polling the socket, not by
    /// blocking on it. The pipelined workloads use this so the client's
    /// core never halts: on a virtual machine a halted vCPU comes back
    /// through the hypervisor, and that latency — tens to hundreds of
    /// microseconds, drifting with the host's load — would otherwise
    /// sit on every window's critical path.
    fn poll(&mut self) -> Result<(), String> {
        self.polling = true;
        self.writer
            .set_nonblocking(true)
            .map_err(|e| format!("cannot make the socket non-blocking: {e}"))
    }

    /// `Ok(None)` when `result` says "would block" and the deadline is
    /// still ahead: the caller tries again.
    fn retry<T>(&self, result: std::io::Result<T>, since: Instant) -> Result<Option<T>, String> {
        match result {
            Ok(v) => Ok(Some(v)),
            Err(e)
                if self.polling
                    && e.kind() == ErrorKind::WouldBlock
                    && since.elapsed() < READ_TIMEOUT =>
            {
                for _ in 0..SPINS_PER_POLL {
                    std::hint::spin_loop();
                }
                Ok(None)
            }
            Err(e) => Err(format!("socket I/O failed with replies outstanding: {e}")),
        }
    }

    fn send(&mut self, mut bytes: &[u8]) -> Result<(), String> {
        let since = Instant::now();
        while !bytes.is_empty() {
            let written = self.writer.write(bytes);
            match self.retry(written, since)? {
                Some(0) => return Err("the peer stopped accepting requests".to_string()),
                Some(n) => bytes = &bytes[n..],
                None => {}
            }
        }
        Ok(())
    }

    /// Read the next reply line into `line`, without its newline.
    fn read_reply(&mut self, line: &mut Vec<u8>) -> Result<(), String> {
        line.clear();
        let since = Instant::now();
        loop {
            // `read_until` keeps what it already appended when it
            // returns "would block", so the retry resumes mid-line.
            let read = self.reader.read_until(b'\n', line);
            match self.retry(read, since)? {
                Some(0) => {
                    return Err(
                        "the peer closed the connection with replies outstanding".to_string()
                    )
                }
                Some(_) => {
                    line.pop();
                    return Ok(());
                }
                None => {}
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Predictions,
    LoadObserved,
    Registered,
}

/// What the reply to one stream request must look like.
pub struct Expect {
    kind: Kind,
    predictions: usize,
    /// `Prediction::time` bits from the verification pass; empty when
    /// the workload also writes load, since the epoch then moves.
    times: Vec<u64>,
}

pub struct Parsed {
    id: u64,
    kind: Kind,
    epoch: u64,
    predictions: Vec<Prediction>,
}

fn show(reply: &[u8]) -> String {
    let text = String::from_utf8_lossy(reply);
    match text.char_indices().nth(400) {
        Some((cut, _)) => format!("{}… ({} bytes)", &text[..cut], reply.len()),
        None => text.into_owned(),
    }
}

/// Full serde parse of one reply; error and shed replies are failures.
pub fn parse(reply: &[u8]) -> Result<Parsed, String> {
    let text = std::str::from_utf8(reply).map_err(|e| format!("reply is not UTF-8: {e}"))?;
    let env: ResponseEnvelope =
        serde_json::from_str(text).map_err(|e| format!("reply does not parse: {e}"))?;
    match env.response {
        Response::Predictions { epoch, predictions } => Ok(Parsed {
            id: env.id,
            kind: Kind::Predictions,
            epoch,
            predictions,
        }),
        Response::LoadObserved { epoch } => Ok(Parsed {
            id: env.id,
            kind: Kind::LoadObserved,
            epoch,
            predictions: Vec::new(),
        }),
        Response::Error { kind, message, .. } => Err(format!("error reply ({kind}): {message}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// Byte scan of the compact encoding: the id and the response tag,
/// without touching the payload. `None` sends the reply to [`parse`].
pub fn scan(reply: &[u8]) -> Option<(u64, Kind)> {
    let rest = reply.strip_prefix(b"{\"id\":")?;
    let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    let id = std::str::from_utf8(&rest[..digits]).ok()?.parse().ok()?;
    let tag = rest[digits..].strip_prefix(b",\"response\":{\"")?;
    if tag.starts_with(b"Predictions\"") {
        Some((id, Kind::Predictions))
    } else if tag.starts_with(b"LoadObserved\"") {
        Some((id, Kind::LoadObserved))
    } else if tag.starts_with(b"Registered\"") {
        Some((id, Kind::Registered))
    } else {
        None
    }
}

fn bits_equal(wire: &[Prediction], local: &[Prediction]) -> bool {
    wire.len() == local.len()
        && wire.iter().zip(local).all(|(w, l)| {
            w.time.to_bits() == l.time.to_bits()
                && w.bottleneck == l.bottleneck
                && w.per_proc.len() == l.per_proc.len()
                && w.per_proc
                    .iter()
                    .zip(&l.per_proc)
                    .all(|(a, b)| a.r.to_bits() == b.r.to_bits() && a.c.to_bits() == b.c.to_bits())
        })
}

pub struct Verified {
    pub expects: Vec<Expect>,
    /// The longest reply seen, for the generator's own parse/scan cost.
    pub sample_reply: Vec<u8>,
    pub acks: u64,
}

/// What `service` says the reply to `request` must be, checked against
/// the parsed wire reply. `epoch_before` is the service's epoch when the
/// request was sent; `moving` marks a stream that also writes load.
fn expectation(
    request: &Request,
    wire: &Parsed,
    service: &CbesService,
    epoch_before: u64,
    moving: bool,
) -> Result<Expect, String> {
    let local = match request {
        Request::Compare { app, mappings } => service.compare_stamped(app, mappings),
        Request::Batch { app, mappings } => service.batch_stamped(app, mappings),
        Request::ObserveLoad { .. } => {
            let now = service.epoch();
            if wire.kind != Kind::LoadObserved
                || wire.epoch != epoch_before + 1
                || now != wire.epoch
            {
                return Err(format!(
                    "observe must move epoch {epoch_before} to {} (service is at {now})",
                    epoch_before + 1
                ));
            }
            return Ok(Expect {
                kind: Kind::LoadObserved,
                predictions: 0,
                times: Vec::new(),
            });
        }
        other => return Err(format!("stream holds an unverifiable request {other:?}")),
    };
    let (epoch, local) = local.map_err(|e| format!("in-process evaluation failed: {e}"))?;
    if wire.kind != Kind::Predictions || wire.epoch != epoch {
        return Err(format!("expected predictions at epoch {epoch}"));
    }
    if !bits_equal(&wire.predictions, &local) {
        return Err(format!(
            "predictions differ from the in-process answer {local:?}"
        ));
    }
    Ok(Expect {
        kind: Kind::Predictions,
        predictions: local.len(),
        times: if moving {
            Vec::new()
        } else {
            local.iter().map(|p| p.time.to_bits()).collect()
        },
    })
}

/// Send one cycle of the stream at depth 1, fully parse every reply and
/// require it bit-identical to what `service` — the `CbesService` the
/// answering daemon serves from — computes in-process for the same
/// request at the same epoch. Any mismatch fails the run with the
/// offending reply.
pub fn verify(
    conn: &mut Conn,
    stream: &Stream,
    lines: &[Vec<u8>],
    service: &CbesService,
) -> Result<Verified, String> {
    let moving = stream.observes() > 0;
    let mut expects = Vec::with_capacity(lines.len());
    let mut sample_reply = Vec::new();
    let mut acks = 0;
    let mut reply = Vec::new();
    for (i, (request, line)) in stream.requests.iter().zip(lines).enumerate() {
        let epoch_before = service.epoch();
        conn.send(line)?;
        conn.read_reply(&mut reply)?;
        let reply = reply.as_slice();
        let fail = |why: String| {
            format!(
                "verification of request {}: {why}\n  reply: {}",
                i + 1,
                show(reply)
            )
        };
        let parsed = parse(reply).map_err(&fail)?;
        if parsed.id != i as u64 + 1 {
            return Err(fail(format!(
                "reply id {} for request id {}",
                parsed.id,
                i + 1
            )));
        }
        if scan(reply) != Some((parsed.id, parsed.kind)) {
            return Err(fail("byte scan and full parse disagree".to_string()));
        }
        let expect = expectation(request, &parsed, service, epoch_before, moving).map_err(&fail)?;
        acks += u64::from(expect.kind == Kind::LoadObserved);
        if reply.len() > sample_reply.len() {
            sample_reply = reply.to_vec();
        }
        expects.push(expect);
    }
    Ok(Verified {
        expects,
        sample_reply,
        acks,
    })
}

/// A set-up step: write `window` (whole request lines) at once and read
/// one reply of `kind` for each of `ids`, in any order. Registering the
/// profiles and asking one evaluation per application each take one
/// such step, so a set-up waits on the socket a handful of times, not
/// once per profile: on this machine the waits, not the work, were
/// most of a lock-step set-up and moved it 2x from run to run.
pub fn exchange(conn: &mut Conn, window: &[u8], ids: &[u64], kind: Kind) -> Result<(), String> {
    conn.send(window)?;
    let mut outstanding = ids.to_vec();
    let mut reply = Vec::new();
    while !outstanding.is_empty() {
        conn.read_reply(&mut reply)?;
        let answered = match scan(&reply) {
            Some((id, k)) if k == kind => outstanding.iter().position(|&o| o == id),
            _ => None,
        };
        match answered {
            Some(at) => drop(outstanding.swap_remove(at)),
            None => return Err(format!("set-up expected {kind:?}, got: {}", show(&reply))),
        }
    }
    Ok(())
}

/// One measured slice: successful replies and their latencies.
#[derive(Default)]
pub struct Slice {
    pub ok: u64,
    pub latencies_ns: Vec<u64>,
}

pub struct Load {
    pub slices: Vec<Slice>,
    /// Requests sent, warm-up included.
    pub attempted: u64,
    /// Error/shed, mismatched or wrongly answered requests.
    pub failed: u64,
    pub first_failure: Option<String>,
    /// `LoadObserved` replies, warm-up included.
    pub acks: u64,
    /// Replies fully parsed, of `attempted`.
    pub parsed: u64,
}

/// Check one reply against the window it belongs to. Returns its kind.
fn check(
    reply: &[u8],
    full: bool,
    window: &Window,
    depth: usize,
    expects: &[Expect],
    seen: &mut u64,
) -> Result<Kind, String> {
    // A reply the byte scan cannot read is parsed in full instead.
    let (id, kind, parsed) = match scan(reply) {
        Some((id, kind)) if !full => (id, kind, None),
        _ => {
            let p = parse(reply)?;
            (p.id, p.kind, Some(p))
        }
    };
    let slot = (id as usize)
        .checked_sub(window.first + 1)
        .filter(|&s| s < depth)
        .ok_or_else(|| format!("reply id {id} is not in the window in flight"))?;
    if *seen & (1 << slot) != 0 {
        return Err(format!("reply id {id} arrived twice"));
    }
    *seen |= 1 << slot;
    let expect = &expects[window.first + slot];
    if kind != expect.kind {
        return Err(format!(
            "reply id {id} is {kind:?}, expected {:?}",
            expect.kind
        ));
    }
    if let Some(p) = parsed {
        if p.predictions.len() != expect.predictions {
            return Err(format!(
                "reply id {id} carries {} predictions, expected {}",
                p.predictions.len(),
                expect.predictions
            ));
        }
        if !expect.times.is_empty()
            && !p
                .predictions
                .iter()
                .zip(&expect.times)
                .all(|(p, t)| p.time.to_bits() == *t)
        {
            return Err(format!("reply id {id} differs from its verified answer"));
        }
    }
    Ok(kind)
}

/// Drive windows through `conn` for the whole schedule. The warm-up and
/// slice `i` send from `sets[i % sets.len()]` (the warm-up from
/// `sets[0]`), continuing the stream cycle at `*cursor`. One reply in
/// [`PARSE_ONE_IN`] — the first of a window — is fully parsed, the rest
/// byte-scanned, all after the window's last reply is in, so checking
/// never delays a read. A request's latency runs from the hand-off of
/// its window to the socket until its reply line is fully read.
pub fn drive(
    conn: &mut Conn,
    sets: &[&[Window]],
    depth: usize,
    expects: &[Expect],
    schedule: Schedule,
    cursor: &mut usize,
) -> Result<Load, String> {
    assert!(depth <= 64, "the seen-mask holds 64 replies");
    let mut load = Load {
        slices: (0..schedule.slices).map(|_| Slice::default()).collect(),
        attempted: 0,
        failed: 0,
        first_failure: None,
        acks: 0,
        parsed: 0,
    };
    for slice in &mut load.slices {
        slice.latencies_ns.reserve(1 << 14);
    }
    let parse_every = (PARSE_ONE_IN / depth).max(1);
    let mut replies = vec![Vec::with_capacity(32 * 1024); depth];
    let mut latencies_ns = vec![0u64; depth];
    // A pipelined workload keeps two windows in flight and polls for
    // replies, so neither the daemon nor the client ever goes idle and
    // no wake-up sits on the critical path. Lock step keeps one window
    // and blocks; its caller parks a `CoreHog` instead.
    let in_flight_max = if depth > 1 { 2 } else { 1 };
    if depth > 1 {
        conn.poll()?;
    }
    let mut in_flight: VecDeque<(&Window, Instant, Slot, bool)> = VecDeque::new();
    let mut done = false;
    let begin = Instant::now();
    loop {
        while !done && in_flight.len() < in_flight_max {
            let t0 = Instant::now();
            let slot = schedule.slot(t0 - begin);
            let set = match slot {
                Slot::Warmup => sets[0],
                Slot::Slice(i) => sets[i % sets.len()],
                Slot::Done => {
                    done = true;
                    break;
                }
            };
            let window = &set[*cursor % set.len()];
            let parse_first = (*cursor).is_multiple_of(parse_every);
            *cursor += 1;
            conn.send(&window.blob)?;
            load.attempted += depth as u64;
            load.parsed += u64::from(parse_first);
            in_flight.push_back((window, t0, slot, parse_first));
        }
        let Some((window, t0, slot, parse_first)) = in_flight.pop_front() else {
            return Ok(load);
        };
        for (reply, latency_ns) in replies.iter_mut().zip(&mut latencies_ns) {
            conn.read_reply(reply)?;
            *latency_ns = t0.elapsed().as_nanos() as u64;
        }
        let mut seen = 0u64;
        for (k, (reply, &latency_ns)) in replies.iter().zip(&latencies_ns).enumerate() {
            match check(
                reply,
                parse_first && k == 0,
                window,
                depth,
                expects,
                &mut seen,
            ) {
                Ok(kind) => {
                    load.acks += u64::from(kind == Kind::LoadObserved);
                    if let Slot::Slice(i) = slot {
                        load.slices[i].ok += 1;
                        load.slices[i].latencies_ns.push(latency_ns);
                    }
                }
                Err(why) => {
                    load.failed += 1;
                    load.first_failure
                        .get_or_insert_with(|| format!("{why}\n  reply: {}", show(reply)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_server::protocol::encode_response;

    #[test]
    fn scan_reads_id_and_tag_of_the_compact_encoding_only() {
        let predictions = encode_response(&ResponseEnvelope {
            id: 4096,
            response: Response::Predictions {
                epoch: 3,
                predictions: Vec::new(),
            },
        });
        assert_eq!(
            scan(predictions.as_bytes()),
            Some((4096, Kind::Predictions))
        );
        let observed = encode_response(&ResponseEnvelope {
            id: 7,
            response: Response::LoadObserved { epoch: 9 },
        });
        assert_eq!(scan(observed.as_bytes()), Some((7, Kind::LoadObserved)));
        let shed = encode_response(&ResponseEnvelope {
            id: 7,
            response: Response::shed("overloaded", "queue full", 25),
        });
        assert_eq!(scan(shed.as_bytes()), None);
        assert!(parse(shed.as_bytes()).is_err());
        assert_eq!(scan(b"{ \"id\":7}"), None);
    }
}
