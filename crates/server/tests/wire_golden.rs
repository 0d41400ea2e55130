//! Golden wire corpus: the encoded request line of every action,
//! untraced and traced, and a fixed `two_switch_demo` daemon's reply to
//! every deterministic exchange, compared byte-for-byte with the
//! committed transcript `tests/golden/wire.txt`.
//!
//! The transcript predates the protocol's action table — it was taken
//! when names, indices and counters were separate hand-written tables —
//! so it pins that deriving them leaves the wire alone. A run always
//! writes what it saw to `$CARGO_TARGET_TMPDIR/wire_golden.actual`;
//! after a deliberate wire change, review that file and copy it over
//! the golden.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;

use cbes_cluster::presets::two_switch_demo;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_server::protocol::{encode, Request, RequestEnvelope, Response, ResponseEnvelope};
use cbes_server::{Server, ServerConfig};

mod common;
use common::{m, one_of_each};

/// Send one raw line, read one reply line (newline stripped).
fn exchange(writer: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writer.write_all(line.as_bytes()).expect("send");
    writer.write_all(b"\n").expect("send newline");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    reply.trim_end_matches('\n').to_string()
}

fn transcript() -> String {
    let mut out = String::from("# request lines: untraced, then traced\n");
    for (i, request) in one_of_each().into_iter().enumerate() {
        let id = i as u64 + 1;
        let untraced = encode(&RequestEnvelope::new(id, request.clone()));
        let traced = encode(&RequestEnvelope::traced(id, request, 0xABCD, 7));
        let _ = writeln!(out, "> {untraced}\n> {traced}");
    }

    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service,
        ServerConfig {
            workers: 1,
            max_line_bytes: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr().to_string();
    let mut writer = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));

    out.push_str("# exchanges with a two_switch_demo daemon\n");
    let all = one_of_each();
    // Deterministic exchanges only, in an order that makes every reply
    // depend on fixed state: evaluations at epoch 0, an evaluation after
    // each of the three sweeps, then the standalone placement answers.
    let script = [0usize, 1, 2, 12, 3, 4, 1, 5, 12, 10, 1, 9, 11];
    let mut lines: Vec<String> = script
        .iter()
        .enumerate()
        .map(|(n, &i)| encode(&RequestEnvelope::new(n as u64 + 1, all[i].clone())))
        .collect();
    lines.push(encode(&RequestEnvelope::traced(
        40,
        all[2].clone(),
        0xABCD,
        7,
    )));
    lines.push(encode(&RequestEnvelope::new(
        41,
        Request::Compare {
            app: "nope".into(),
            mappings: vec![m(&[0, 1])],
        },
    )));
    lines.push("garbage".to_string());
    lines.push("{\"id\":42,\"request\":\"NoSuchAction\"}".to_string());
    for line in &lines {
        let reply = exchange(&mut writer, &mut reader, line);
        let _ = writeln!(out, "> {line}\n< {reply}");
    }
    let oversize = "x".repeat(5000);
    let reply = exchange(&mut writer, &mut reader, &oversize);
    let _ = writeln!(out, "> <5000 bytes of x>\n< {reply}");

    let stats = exchange(
        &mut writer,
        &mut reader,
        &encode(&RequestEnvelope::new(50, Request::Stats)),
    );
    let stats: ResponseEnvelope = serde_json::from_str(&stats).expect("stats reply parses");
    let Response::Stats { stats } = stats.response else {
        panic!("expected a Stats reply, got {:?}", stats.response);
    };
    let keys: Vec<&str> = stats.per_action.keys().map(String::as_str).collect();
    let _ = writeln!(
        out,
        "# per_action keys of a Stats reply\n{}",
        keys.join(",")
    );

    handle.shutdown_and_join();
    // The only run-dependent bytes: the port the daemon bound.
    out.replace(&addr, "<ADDR>")
}

#[test]
fn the_wire_matches_the_committed_transcript_byte_for_byte() {
    let actual = transcript();
    let seen = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_golden.actual");
    std::fs::write(&seen, &actual).expect("write the observed transcript");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/wire.txt");
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "wire transcript differs from {} at line {} (observed transcript: {})\n  got:  {:?}\n  want: {:?}",
            golden.display(),
            first + 1,
            seen.display(),
            actual.lines().nth(first),
            expected.lines().nth(first),
        );
    }
}
