//! The I/O layer on its own: a trivial echo [`Handler`] on
//! `cbes_server::net`, driven over a real socket exactly as a second
//! handler crate (the router) uses the layer — no daemon involved.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbes_obs::Registry;
use cbes_server::net::{self, Handler, NetHandle, NetMetrics, Stages};
use cbes_server::protocol::{error_kind, Response};
use cbes_server::{ResponseEnvelope, ServerConfig};
use crossbeam::channel::{self, Receiver, Sender};

fn error_kind_of(envelope: &ResponseEnvelope) -> &str {
    match &envelope.response {
        Response::Error { kind, .. } => kind,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

/// The digits after `{"id":`, which is how every test frame starts.
fn id_of(line: &str) -> &str {
    let digits = line
        .strip_prefix("{\"id\":")
        .expect("test frames lead with the id");
    digits
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap_or("")
}

/// A handler that echoes the frame's id. A line containing `hold`
/// announces itself on `entered` and then blocks until `release`
/// yields, so a test decides exactly when a worker is busy; one
/// containing `gate` does the same on `gate`, so a test can free two
/// held frames in the order it chooses. A line containing `pad` is
/// answered at [`PADDED`] bytes.
struct Echo {
    entered: Sender<()>,
    release: Receiver<()>,
    gate: Receiver<()>,
    /// Frames executed so far, on any thread.
    executed: Arc<AtomicU64>,
}

/// Length of the reply to a `pad` frame.
const PADDED: usize = 8 * 1024;

thread_local! {
    /// Frames this thread has executed: a reply's `nth` says which
    /// thread — a worker or the reactor — ran it.
    static SERVED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Handler for Echo {
    type Gather = ();

    fn inline(&self, line: &str, stages: &mut Stages) -> Option<(Vec<u8>, bool)> {
        line.contains("inline").then(|| self.execute(line, stages))
    }

    fn execute(&self, line: &str, _: &mut Stages) -> (Vec<u8>, bool) {
        for (word, gate) in [("hold", &self.release), ("gate", &self.gate)] {
            if line.contains(word) {
                let _ = self.entered.send(());
                let _ = cbes_obs::lock::recv(gate);
            }
        }
        let served = SERVED.with(|s| s.replace(s.get() + 1) + 1);
        self.executed.fetch_add(1, Ordering::Release);
        let mut reply = format!("{{\"id\":{},\"nth\":{served}}}", id_of(line));
        if line.contains("pad") {
            reply.push_str(&" ".repeat(PADDED - 1 - reply.len()));
        }
        reply.push('\n');
        (reply.into_bytes(), false)
    }
}

struct EchoServer {
    handle: NetHandle,
    entered: Receiver<()>,
    release: Sender<()>,
    gate: Sender<()>,
    executed: Arc<AtomicU64>,
}

fn echo_server(config: ServerConfig) -> EchoServer {
    let (entered_tx, entered) = channel::unbounded();
    let (release, release_rx) = channel::unbounded();
    let (gate, gate_rx) = channel::unbounded();
    let executed = Arc::new(AtomicU64::new(0));
    let metrics = NetMetrics::new(&Arc::new(Registry::new()));
    let echo = Echo {
        entered: entered_tx,
        release: release_rx,
        gate: gate_rx,
        executed: executed.clone(),
    };
    let handle = net::start(&config, |addr, wake| {
        net::assemble(&config, addr, metrics, wake, |_| Ok(echo))
    })
    .expect("loopback bind succeeds");
    EchoServer {
        handle,
        entered,
        release,
        gate,
        executed,
    }
}

fn connect(server: &EchoServer) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.handle.control().addr()).expect("layer listens");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("socket option");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply arrives");
    line.trim().to_string()
}

#[test]
fn echo_handler_sees_reassembled_frames_in_pipelined_order() {
    let mut server = echo_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = connect(&server);
    // One frame split across two writes reassembles into one call.
    stream.write_all(b"{\"id\":1,").expect("write");
    cbes_obs::lock::sleep(Duration::from_millis(20));
    stream.write_all(b"\"x\":0}\n").expect("write");
    assert_eq!(read_line(&mut reader), "{\"id\":1,\"nth\":1}");
    // A pipelined window is answered completely and in order by the
    // pool's one worker (its thread counts calls).
    let window: String = (2..=21).map(|id| format!("{{\"id\":{id}}}\n")).collect();
    stream.write_all(window.as_bytes()).expect("write");
    for id in 2..=21u64 {
        assert_eq!(
            read_line(&mut reader),
            format!("{{\"id\":{id},\"nth\":{id}}}")
        );
    }
    // An inline-eligible frame on an idle pool runs on the reactor,
    // whose count starts at one.
    stream
        .write_all(b"{\"id\":22,\"inline\":1}\n")
        .expect("write");
    assert_eq!(read_line(&mut reader), "{\"id\":22,\"nth\":1}");
    server.handle.control().shutdown();
    server.handle.join();
}

#[test]
fn full_queue_sheds_and_missed_deadlines_time_out() {
    let mut server = echo_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = connect(&server);
    // Frame 1 occupies the worker; only then do 2 and 3 arrive, so
    // 2 takes the single queue slot and 3 finds the queue full.
    stream.write_all(b"{\"id\":1,\"hold\":1}\n").expect("write");
    cbes_obs::lock::recv(&server.entered).expect("the worker picked frame 1 up");
    stream
        .write_all(b"{\"id\":2,\"hold\":1}\n{\"id\":3}\n")
        .expect("write");
    let shed: ResponseEnvelope =
        serde_json::from_str(&read_line(&mut reader)).expect("a typed shed reply");
    assert_eq!(shed.id, 3, "the shed overtakes the replies still queued");
    assert_eq!(error_kind_of(&shed), error_kind::OVERLOADED);
    // Nobody releases the worker: both admitted frames miss the
    // deadline and the reactor answers for them, in deadline order.
    for id in [1, 2] {
        let late: ResponseEnvelope =
            serde_json::from_str(&read_line(&mut reader)).expect("a typed timeout reply");
        assert_eq!(late.id, id);
        assert_eq!(error_kind_of(&late), error_kind::TIMEOUT);
    }
    // The worker's late replies are dropped, not delivered twice: once
    // it has moved on to frame 2 (freeing the queue slot for frame 4),
    // the next thing on the wire is frame 4's reply.
    server
        .release
        .send(())
        .expect("worker is parked on the gate");
    cbes_obs::lock::recv(&server.entered).expect("the worker picked frame 2 up");
    stream.write_all(b"{\"id\":4}\n").expect("write");
    server
        .release
        .send(())
        .expect("worker is parked on the gate");
    assert_eq!(read_line(&mut reader), "{\"id\":4,\"nth\":3}");
    server.handle.control().shutdown();
    server.handle.join();
}

#[test]
fn a_connections_frames_run_in_arrival_order_on_any_free_worker() {
    let mut server = echo_server(ServerConfig {
        workers: 2,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let (mut a, mut a_reader) = connect(&server);
    // Frame 1 of A holds one worker; the other serves every other
    // connection, one after another.
    a.write_all(b"{\"id\":1,\"hold\":1}\n").expect("write");
    cbes_obs::lock::recv_timeout(&server.entered, Duration::from_secs(5))
        .expect("a worker takes frame 1");
    for _ in 0..2 {
        let (mut other, mut other_reader) = connect(&server);
        other.write_all(b"{\"id\":9}\n").expect("write");
        let reply = read_line(&mut other_reader);
        assert!(
            reply.starts_with("{\"id\":9,\"nth\":"),
            "served, not timed out: {reply}"
        );
    }
    // A pipelines 2, 3 and 4 behind its running frame. They are held
    // until it finishes, though a worker is free, and count against the
    // queue's two slots as queued frames do: 4 is shed.
    a.write_all(b"{\"id\":2,\"gate\":1}\n{\"id\":3}\n{\"id\":4}\n")
        .expect("write");
    let shed: ResponseEnvelope =
        serde_json::from_str(&read_line(&mut a_reader)).expect("a typed shed reply");
    assert_eq!(shed.id, 4, "one connection's frames may fill the queue");
    assert_eq!(error_kind_of(&shed), error_kind::OVERLOADED);
    assert_eq!(server.handle.control().queue_depth(), 2);
    assert!(
        cbes_obs::lock::recv_timeout(&server.entered, Duration::from_millis(200)).is_err(),
        "frame 2 waits for frame 1 to finish"
    );
    // Frame 1 finishes, then 2 runs, then 3; replies leave in that order.
    server
        .release
        .send(())
        .expect("frame 1 is parked on release");
    cbes_obs::lock::recv_timeout(&server.entered, Duration::from_secs(5))
        .expect("frame 2 runs once frame 1 is done");
    server.gate.send(()).expect("frame 2 is parked on the gate");
    for id in 1..=3 {
        assert_eq!(id_of(&read_line(&mut a_reader)), id.to_string());
    }
    assert_eq!(server.handle.control().queue_depth(), 0, "nothing is held");
    server.handle.control().shutdown();
    server.handle.join();
}

#[test]
fn a_client_that_hangs_up_on_held_frames_gives_their_queue_slots_back() {
    let mut server = echo_server(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let (mut a, a_reader) = connect(&server);
    // A's frame 1 holds the worker, 2 and 3 are held behind it and fill
    // both queue slots, and 4 is shed.
    a.write_all(b"{\"id\":1,\"hold\":1}\n").expect("write");
    cbes_obs::lock::recv_timeout(&server.entered, Duration::from_secs(5))
        .expect("the worker takes frame 1");
    a.write_all(b"{\"id\":2}\n{\"id\":3}\n{\"id\":4}\n")
        .expect("write");
    a.peek(&mut [0u8; 1]).expect("frame 4's shed reply arrives");
    assert_eq!(server.handle.control().queue_depth(), 2);
    // A closes with that reply unread, so the kernel resets the
    // connection and the reactor drops it, held frames and all.
    drop((a, a_reader));
    let mut depth = usize::MAX;
    for _ in 0..500 {
        depth = server.handle.control().queue_depth();
        if depth == 0 {
            break;
        }
        cbes_obs::lock::sleep(Duration::from_millis(10));
    }
    assert_eq!(depth, 0, "the dropped frames still count as queued");
    // Both slots are free again: B's two frames are admitted, not shed.
    let (mut b, mut b_reader) = connect(&server);
    b.write_all(b"{\"id\":5}\n{\"id\":6}\n").expect("write");
    server
        .release
        .send(())
        .expect("frame 1 is parked on release");
    for id in [5, 6] {
        let reply = read_line(&mut b_reader);
        assert!(
            reply.starts_with(&format!("{{\"id\":{id},\"nth\":")),
            "served, not shed: {reply}"
        );
    }
    server.handle.control().shutdown();
    server.handle.join();
}

#[test]
fn a_peer_that_never_reads_its_replies_is_not_read_from() {
    let mut server = echo_server(ServerConfig::default());
    let (stream, mut reader) = connect(&server);
    // 80 MB of replies for 0.4 MB of requests, on a connection nobody
    // reads. The frames run inline: what the reactor reads becomes
    // buffered output on the spot.
    const FRAMES: u64 = 10_000;
    let writer = std::thread::spawn(move || {
        let frames: String = (1..=FRAMES)
            .map(|id| format!("{{\"id\":{id},\"inline\":1,\"pad\":1}}\n"))
            .collect();
        (&stream).write_all(frames.as_bytes()).expect("write");
        stream
    });
    // The reactor stops taking frames once the kernel stops taking
    // replies: execution stalls far short of the burst.
    let mut before = u64::MAX;
    let stalled_at = loop {
        cbes_obs::lock::sleep(Duration::from_millis(200));
        let now = server.executed.load(Ordering::Acquire);
        if now == before {
            break now;
        }
        before = now;
    };
    assert!(
        stalled_at < FRAMES / 2,
        "{stalled_at} of {FRAMES} replies buffered for a peer that reads nothing"
    );
    // Reading resumes it; nothing was lost or reordered meanwhile.
    for id in 1..=FRAMES {
        let reply = read_line(&mut reader);
        assert_eq!(id_of(&reply), id.to_string());
    }
    assert_eq!(server.executed.load(Ordering::Acquire), FRAMES);
    let _stream = writer.join().expect("writer thread");
    server.handle.control().shutdown();
    server.handle.join();
}
