//! Event-loop integration tests: frame reassembly under adversarial
//! write patterns, pipelined id matching, and the `Batch` contract —
//! one round trip, one snapshot epoch, the reply `Compare` would give.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use cbes_cluster::presets::two_switch_demo;
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_server::{Client, Server, ServerConfig};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};

fn ring_profile(name: &str, procs: usize) -> AppProfile {
    let mk = |rank: usize| ProcessProfile {
        rank,
        x: 5.0,
        o: 0.2,
        b: 0.5,
        sends: vec![MessageGroup {
            peer: (rank + 1) % procs,
            bytes: 8192,
            count: 50,
        }],
        recvs: vec![MessageGroup {
            peer: (rank + procs - 1) % procs,
            bytes: 8192,
            count: 50,
        }],
        profile_speed: 1.0,
        lambda: 1.0,
    };
    AppProfile {
        name: name.to_string(),
        procs: (0..procs).map(mk).collect(),
        arch_ratios: BTreeMap::new(),
    }
}

fn demo_server(config: ServerConfig) -> cbes_server::ServerHandle {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    Server::start(service, config).expect("bind loopback")
}

fn m(ids: &[u32]) -> Mapping {
    Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
}

/// Candidate pool for batch tests: rotations and reversals over the
/// 8-node demo cluster, all distinct.
fn candidates(n: usize) -> Vec<Mapping> {
    (0..n)
        .map(|i| {
            let mut ids: Vec<u32> = (0..4).map(|r| ((r + i) % 8) as u32).collect();
            if i % 2 == 1 {
                ids.reverse();
            }
            m(&ids)
        })
        .collect()
}

/// Raw NDJSON lines for one stats request with the given id.
fn stats_line(id: u64) -> String {
    format!("{{\"id\":{id},\"request\":\"Stats\"}}\n")
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read reply");
    assert!(line.ends_with('\n'), "truncated reply: {line:?}");
    line
}

#[test]
fn split_writes_reassemble_into_whole_frames() {
    let handle = demo_server(ServerConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // Dribble one frame a byte at a time: the decoder must buffer the
    // partial line and only dispatch on the newline.
    for byte in stats_line(1).as_bytes() {
        writer.write_all(&[*byte]).expect("write byte");
        writer.flush().expect("flush");
    }
    let reply = read_reply(&mut reader);
    assert!(reply.contains("\"id\":1"), "{reply}");
    assert!(reply.contains("Stats"), "{reply}");

    // A write that ends mid-frame: frame 2 complete plus the head of
    // frame 3, then the tail arrives separately.
    let two = format!("{}{}", stats_line(2), stats_line(3));
    let split_at = two.len() - 7;
    writer.write_all(&two.as_bytes()[..split_at]).expect("head");
    writer.flush().expect("flush");
    let reply = read_reply(&mut reader);
    assert!(reply.contains("\"id\":2"), "{reply}");
    writer.write_all(&two.as_bytes()[split_at..]).expect("tail");
    writer.flush().expect("flush");
    let reply = read_reply(&mut reader);
    assert!(reply.contains("\"id\":3"), "{reply}");

    drop(writer);
    drop(reader);
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn interleaved_pipelining_answers_every_id_in_order() {
    let handle = demo_server(ServerConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    // 32 requests in one write; replies on a single connection come
    // back in request order, ids intact.
    let mut blob = String::new();
    for id in 100..132u64 {
        blob.push_str(&stats_line(id));
    }
    writer.write_all(blob.as_bytes()).expect("write blob");
    writer.flush().expect("flush");
    for id in 100..132u64 {
        let reply = read_reply(&mut reader);
        assert!(
            reply.contains(&format!("\"id\":{id}")),
            "want {id}: {reply}"
        );
    }

    drop(writer);
    drop(reader);
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Deterministic xorshift64* generator — the fuzz corpus must be
/// reproducible run to run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[test]
fn malformed_frame_fuzz_never_wedges_the_decoder() {
    // Small frame cap so "giant frame" rounds are cheap to construct;
    // generous strike budget so garbage lines don't drop the
    // connection before the valid probe goes through.
    let handle = demo_server(ServerConfig {
        max_line_bytes: 4 * 1024,
        max_consecutive_errors: 64,
        ..ServerConfig::default()
    });
    let mut rng = Rng(0x5EED_CAFE);
    // Byte classes the generator draws from: JSON-ish punctuation and
    // text, plus raw control bytes.
    const ALPHABET: &[u8] = br#"{}[]":,abc0123456789 \"#;

    for round in 0..24 {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;

        // A burst of garbage frames: random bytes, truncated JSON
        // prefixes, or an oversized line, each newline-terminated.
        let garbage_frames = 1 + rng.below(4);
        let mut expect_errors = 0usize;
        for _ in 0..garbage_frames {
            let mut frame: Vec<u8> = match rng.below(3) {
                0 => {
                    let len = 1 + rng.below(40);
                    (0..len)
                        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                        .collect()
                }
                1 => {
                    let valid = stats_line(9);
                    let cut = 1 + rng.below(valid.len() - 2);
                    valid.as_bytes()[..cut].to_vec()
                }
                _ => vec![b'x'; 5000], // over the 4 KiB line cap
            };
            frame.retain(|&b| b != b'\n');
            frame.push(b'\n');
            writer.write_all(&frame).expect("garbage");
            expect_errors += 1;
        }
        // Split the burst's flush point randomly relative to the valid
        // probe to exercise reassembly across chunk boundaries.
        if rng.below(2) == 0 {
            writer.flush().expect("flush");
        }
        let probe_id = 1000 + round as u64;
        writer
            .write_all(stats_line(probe_id).as_bytes())
            .expect("probe");
        writer.flush().expect("flush");

        // Every garbage frame earns an error reply; then the probe is
        // answered normally — the decoder resynchronised.
        for _ in 0..expect_errors {
            let reply = read_reply(&mut reader);
            assert!(reply.contains("\"Error\""), "{reply}");
        }
        let reply = read_reply(&mut reader);
        assert!(
            reply.contains(&format!("\"id\":{probe_id}")) && reply.contains("Stats"),
            "round {round}: {reply}"
        );
    }

    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn batch_is_a_single_round_trip_with_one_epoch_stamp() {
    // The wire-level shape: one request line in, one reply line out,
    // carrying every prediction and exactly one epoch field.
    let handle = demo_server(ServerConfig::default());
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client
        .register_profile(ring_profile("ring", 4))
        .expect("register");
    // `Batch` is `Compare` under another verb: the same candidates get
    // the same epoch and the same predictions in the same order.
    let pool = candidates(16);
    assert_eq!(
        client.batch("ring", &pool).expect("batch"),
        client.compare("ring", &pool).expect("compare")
    );
    drop(client);

    let mappings_json: Vec<String> = pool
        .iter()
        .map(|mp| {
            let ids: Vec<String> = mp.as_slice().iter().map(|n| n.0.to_string()).collect();
            format!("{{\"assign\":[{}]}}", ids.join(","))
        })
        .collect();
    let line = format!(
        "{{\"id\":7,\"request\":{{\"Batch\":{{\"app\":\"ring\",\"mappings\":[{}]}}}}}}\n",
        mappings_json.join(",")
    );

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writer.write_all(line.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let reply = read_reply(&mut reader);
    assert!(reply.contains("\"id\":7"), "{reply}");
    assert_eq!(
        reply.matches("\"epoch\"").count(),
        1,
        "exactly one epoch stamp: {reply}"
    );
    assert_eq!(
        reply.matches("\"time\"").count(),
        pool.len(),
        "one prediction per candidate: {reply}"
    );

    drop(writer);
    drop(reader);
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

#[test]
fn pipelined_evaluations_stay_ordered_under_load() {
    // Mixed pipelining: batches and stats interleaved on one
    // connection; replies must come back in submission order even when
    // inline execution and worker handoff alternate.
    let handle = demo_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client
        .register_profile(ring_profile("ring", 4))
        .expect("register");
    drop(client);

    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;

    let mut blob = String::new();
    let mut want: Vec<(u64, &str)> = Vec::new();
    for i in 0..20u64 {
        let id = 500 + i;
        if i % 3 == 0 {
            blob.push_str(&stats_line(id));
            want.push((id, "Stats"));
        } else {
            blob.push_str(&format!(
                "{{\"id\":{id},\"request\":{{\"Compare\":{{\"app\":\"ring\",\
                 \"mappings\":[{{\"assign\":[0,1,2,3]}}]}}}}}}\n"
            ));
            want.push((id, "Predictions"));
        }
    }
    writer.write_all(blob.as_bytes()).expect("write");
    writer.flush().expect("flush");
    for (id, tag) in want {
        let reply = read_reply(&mut reader);
        assert!(
            reply.contains(&format!("\"id\":{id}")) && reply.contains(tag),
            "want id {id} tag {tag}: {reply}"
        );
    }

    drop(writer);
    drop(reader);
    let mut client = Client::connect(handle.addr().to_string()).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A frame is what it decodes to, not what its leading bytes spell. A
/// `Schedule` behind an ignored member that reads like a cheap action's
/// tag queues for a worker like any other `Schedule`, so the reactor
/// goes on serving while it anneals: ordering, not timing.
#[test]
fn a_disguised_schedule_does_not_run_on_the_reactor() {
    let handle = demo_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .register_profile(ring_profile("ring", 4))
        .expect("register");
    // Consecutive connections pin to different workers.
    let mut a = TcpStream::connect(handle.addr()).expect("connect");
    let mut b = TcpStream::connect(handle.addr()).expect("connect");
    let mut b_reader = BufReader::new(b.try_clone().expect("clone"));
    let schedule = "{\"id\":1,\"x\":{\"request\":\"Stats\"},\"request\":{\"Schedule\":\
        {\"app\":\"ring\",\"pool\":[0,1,2,3,4,5,6,7],\"iters\":300000,\"seed\":1}}}\n";
    a.write_all(schedule.as_bytes()).expect("write");
    b.write_all(stats_line(2).as_bytes()).expect("write");
    let reply = read_reply(&mut b_reader);
    assert!(
        reply.contains("\"id\":2") && reply.contains("Stats"),
        "{reply}"
    );
    // B is answered while A's annealing is still under way.
    a.set_nonblocking(true).expect("socket option");
    let early = a.peek(&mut [0u8; 1]);
    assert!(
        matches!(&early, Err(e) if e.kind() == std::io::ErrorKind::WouldBlock),
        "the schedule was answered ahead of a stats request behind it: {early:?}"
    );
    a.set_nonblocking(false).expect("socket option");
    let reply = read_reply(&mut BufReader::new(a));
    assert!(
        reply.contains("\"id\":1") && reply.contains("Scheduled"),
        "{reply}"
    );
    client.shutdown().expect("shutdown");
    handle.join();
}
