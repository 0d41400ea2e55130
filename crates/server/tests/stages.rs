//! The daemon's stage histograms against what its client measures, on
//! a live daemon over loopback. A test binary of its own, so no other
//! test's load shares the two vCPUs while it times round trips.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use cbes_cluster::presets::two_switch_demo;
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_server::net::STAGE_NAMES;
use cbes_server::protocol::encode;
use cbes_server::{Client, Request, RequestEnvelope, Server, ServerConfig};

#[allow(dead_code, reason = "this binary takes only the profile helpers")]
mod common;
use common::{m, ring_profile};

/// A request's stages say where its time went: under pipelined
/// `Compare` load (windows of 16, as the benchmark's `compare_pipelined`
/// sends them), the medians of the daemon's stages sum to within 10 % of
/// the median round trip its client measures, from handing a window to
/// the socket to reading the request's reply line. What the stages
/// cannot see is the loopback on either side of the daemon and the
/// client's own scheduling: 15–30 µs per round trip on an idle 2-vCPU
/// host, several times that on a loaded one. Against a window of
/// 32-candidate `Compare`s that is a few per cent in a debug build
/// (~6 ms a window); in a release one (~0.6 ms) it can pass 10 % on a
/// loaded host.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the client times its own round trips"
)]
fn stage_medians_sum_to_the_client_median_under_pipelined_load() {
    const DEPTH: usize = 16;
    let service =
        CbesService::self_calibrated(Arc::new(two_switch_demo()), ForecastKind::LastValue);
    service
        .registry()
        .insert(ring_profile("ring", 8))
        .expect("a valid profile");
    let config = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let handle = Server::start(Arc::new(service), config).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let candidates: Vec<Mapping> = (0..32u32)
        .map(|k| m(&(0..8).map(|rank| (rank * 3 + k) % 8).collect::<Vec<_>>()))
        .collect();
    let line = encode(&RequestEnvelope::new(
        1,
        Request::Compare {
            app: "ring".to_string(),
            mappings: candidates,
        },
    )) + "\n";
    let window = line.repeat(DEPTH);
    let mut writer = TcpStream::connect(handle.addr()).expect("connect");
    writer.set_nodelay(true).expect("no delay");
    let mut reader = BufReader::new(writer.try_clone().expect("a second handle"));
    let (mut reply, mut round_trips) = (String::new(), Vec::new());
    let before = client.metrics().expect("metrics");
    for _ in 0..500 {
        let sent = Instant::now();
        writer.write_all(window.as_bytes()).expect("write");
        for _ in 0..DEPTH {
            reply.clear();
            reader.read_line(&mut reply).expect("a reply");
            round_trips.push(sent.elapsed().as_micros() as f64);
        }
    }
    let after = client.metrics().expect("metrics");
    round_trips.sort_by(f64::total_cmp);
    let client_p50 = round_trips[round_trips.len() / 2];
    let stages = STAGE_NAMES
        .iter()
        .filter(|name| name.starts_with("server."));
    let medians: Vec<(&str, u64)> = stages
        .map(|name| {
            let window = after.histograms[name.as_str()].sub(&before.histograms[name.as_str()]);
            (name.as_str(), window.p50())
        })
        .collect();
    let sum = medians.iter().map(|(_, p50)| *p50 as f64).sum::<f64>();
    assert!(
        (sum - client_p50).abs() <= 0.1 * client_p50,
        "stage medians {medians:?} sum to {sum} us; the client's median is {client_p50} us"
    );
    handle.shutdown_and_join();
}
