//! The I/O layer on its own: a trivial echo [`Handler`] on
//! `cbes_server::net`, driven over a real socket exactly as a second
//! handler crate (the router) uses the layer — no daemon involved.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbes_obs::Registry;
use cbes_server::net::{self, Handler, NetHandle, NetMetrics};
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
/// yields, so a test decides exactly when a worker is busy. A line
/// containing `pad` is answered at [`PADDED`] bytes.
struct Echo {
    entered: Sender<()>,
    release: Receiver<()>,
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
    fn inline(&self, line: &str) -> Option<(Vec<u8>, bool)> {
        line.contains("inline").then(|| self.execute(line))
    }

    fn execute(&self, line: &str) -> (Vec<u8>, bool) {
        if line.contains("hold") {
            let _ = self.entered.send(());
            let _ = self.release.recv();
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
    executed: Arc<AtomicU64>,
}

fn echo_server(config: ServerConfig) -> EchoServer {
    let (entered_tx, entered) = channel::unbounded();
    let (release, release_rx) = channel::unbounded();
    let executed = Arc::new(AtomicU64::new(0));
    let metrics = NetMetrics::new(&Arc::new(Registry::new()));
    let handle = net::start(&config, metrics, |_| {
        Ok(Echo {
            entered: entered_tx,
            release: release_rx,
            executed: executed.clone(),
        })
    })
    .expect("loopback bind succeeds");
    EchoServer {
        handle,
        entered,
        release,
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
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(b"\"x\":0}\n").expect("write");
    assert_eq!(read_line(&mut reader), "{\"id\":1,\"nth\":1}");
    // A pipelined window is answered completely and in order by the
    // one worker the connection pins to (its thread counts calls).
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
fn full_shard_sheds_and_missed_deadlines_time_out() {
    let mut server = echo_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        request_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let (mut stream, mut reader) = connect(&server);
    // Frame 1 occupies the worker; only then do 2 and 3 arrive, so
    // 2 takes the single queue slot and 3 finds the shard full.
    stream.write_all(b"{\"id\":1,\"hold\":1}\n").expect("write");
    server.entered.recv().expect("the worker picked frame 1 up");
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
    server.entered.recv().expect("the worker picked frame 2 up");
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
        std::thread::sleep(Duration::from_millis(200));
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
