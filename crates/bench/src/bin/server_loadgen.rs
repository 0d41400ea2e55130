//! Load generator for the CBES daemon: concurrent pipelined clients
//! hammering a Centurion-preset server with `Compare` requests over
//! real loopback sockets, reporting sustained throughput and latency
//! percentiles.
//!
//! Each client keeps a window of requests in flight on one connection
//! (NDJSON pipelining — the shape of a scheduler consulting the
//! estimating service on every placement decision), which exercises the
//! event loop's frame reassembly and batched reply flushing rather than
//! blocking lock-step round trips. Per-request work is unchanged from
//! the pre-event-loop baseline: one `Compare` of three 8-rank
//! candidates.
//!
//! Acceptance: ≥10k Compare req/s with 8 workers, zero dropped replies,
//! non-empty daemon-side latency histograms, and a clean drain on
//! `Shutdown`. Artifacts: `results/server_loadgen.json` and the headline
//! `BENCH_server_loadgen.json` at the repo root.
//!
//! ```text
//! cargo run --release --bin server_loadgen \
//!     [--full] [--runs REQS_PER_CLIENT] [--seed S]
//! ```
//!
//! Env: `CBES_LOADGEN_CLIENTS` (default 1), `CBES_LOADGEN_DEPTH`
//! (pipeline window per client, default 16), `CBES_LOADGEN_P99_BUDGET_MS`
//! (default 15.0), `CBES_LOADGEN_TRACE` (`1` stamps a trace context on
//! every request so the run measures the traced wire path).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbes_bench::args::ExpArgs;
use cbes_bench::save_json;
use cbes_cluster::{presets, NodeId};
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_server::{
    Client, Request, RequestEnvelope, Response, ResponseEnvelope, Server, ServerConfig,
};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};

const WORKERS: usize = 8;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// An 8-rank ring exchange, the shape of the paper's communication-bound
/// kernels.
fn ring_profile(procs: usize) -> AppProfile {
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
        name: "ring".to_string(),
        procs: (0..procs).map(mk).collect(),
        arch_ratios: BTreeMap::new(),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args = ExpArgs::parse();
    // One pipelined client is the sweet spot on small (1–2 core) CI
    // boxes: more client threads just preempt the reactor and blow up
    // tail latency without adding throughput.
    let clients = env_usize("CBES_LOADGEN_CLIENTS", 1);
    let depth = env_usize("CBES_LOADGEN_DEPTH", 16);
    let requested = args.runs.unwrap_or(if args.full { 10_000 } else { 2_500 });
    // Window-synchronous pipelining: round the per-client count to whole
    // windows so every request id in flight is unique.
    let windows = (requested / depth).max(1);
    let per_client = windows * depth;
    let total = per_client * clients;

    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(presets::centurion()),
        ForecastKind::Adaptive(8),
    ));
    service.registry().insert(ring_profile(8));
    let handle = Server::start(
        service,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: 4096,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    println!(
        "server_loadgen: centurion daemon on {addr}, {WORKERS} workers, \
         {clients} clients x {per_client} Compare requests (pipeline depth {depth})"
    );

    // Each client compares three 8-rank candidates: same-switch, split,
    // and scattered — the paper's typical mapping-comparison request.
    let candidates = vec![
        Mapping::new((0..8).map(NodeId).collect()),
        Mapping::new((60..68).map(NodeId).collect()),
        Mapping::new((0..8).map(|i| NodeId(i * 16)).collect()),
    ];

    // One pipeline window is a constant byte blob: `depth` envelopes
    // with ids 1..=depth, reused every window (window-synchronous, so
    // no id is ever in flight twice). One write syscall issues the
    // whole window; replies stream back through a buffered reader.
    //
    // `CBES_LOADGEN_TRACE=1` stamps every envelope with a trace
    // context, so the run measures the traced
    // wire path: decode of the trace suffix plus a rooted server span
    // per request.
    let traced = std::env::var("CBES_LOADGEN_TRACE").ok().as_deref() == Some("1");
    if traced {
        println!("server_loadgen: trace context stamped on every request");
    }
    let window_blob: Vec<u8> = {
        let mut blob = Vec::new();
        for id in 1..=depth as u64 {
            let request = Request::Compare {
                app: "ring".to_string(),
                mappings: candidates.clone(),
            };
            let envelope = if traced {
                RequestEnvelope::traced(id, request, cbes_obs::mint_trace_id(), 0)
            } else {
                RequestEnvelope::new(id, request)
            };
            blob.extend_from_slice(
                serde_json::to_string(&envelope)
                    .expect("serialise request")
                    .as_bytes(),
            );
            blob.push(b'\n');
        }
        blob
    };

    let start = Instant::now();
    let per_client_results: Vec<(Vec<Duration>, usize)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..clients)
            .map(|_| {
                let window_blob = &window_blob;
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                    let mut writer = stream;
                    let mut latencies = Vec::with_capacity(per_client);
                    let mut errors = 0usize;
                    let mut line = String::new();
                    for window in 0..windows {
                        let t0 = Instant::now();
                        writer.write_all(window_blob).expect("write window");
                        for reply in 0..depth {
                            line.clear();
                            if reader.read_line(&mut line).expect("read reply") == 0 {
                                return (latencies, errors + (depth - reply));
                            }
                            // Spot-check one reply per window with a full
                            // typed parse; scan-verify the rest so client
                            // CPU does not drown out the server under test.
                            if reply == 0 {
                                match serde_json::from_str::<ResponseEnvelope>(&line) {
                                    Ok(ResponseEnvelope {
                                        response: Response::Predictions { predictions, .. },
                                        ..
                                    }) if predictions.len() == 3 => {}
                                    _ => {
                                        errors += 1;
                                        if window == 0 {
                                            eprintln!("bad reply: {}", line.trim());
                                        }
                                    }
                                }
                            } else if !line.contains("\"Predictions\"") {
                                errors += 1;
                            }
                            latencies.push(t0.elapsed());
                        }
                    }
                    (latencies, errors)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();

    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let mut errors = 0usize;
    for (lat, err) in per_client_results {
        latencies.extend(lat);
        errors += err;
    }
    let dropped = total - latencies.len();
    latencies.sort_unstable();
    let req_per_s = total as f64 / elapsed.as_secs_f64();
    let p50 = percentile(&latencies, 0.50);
    let p90 = percentile(&latencies, 0.90);
    let p95 = percentile(&latencies, 0.95);
    let p99 = percentile(&latencies, 0.99);
    let max = *latencies.last().expect("at least one request");

    // Clean drain: every admitted request must be answered before join
    // returns. On the way out, pull the server's own observability
    // snapshot and check it saw the load we generated.
    let mut control = Client::connect(addr).expect("connect control");
    let stats = control.stats().expect("stats");
    let snap = control.metrics().expect("metrics");
    let queue_wait = snap
        .histograms
        .get("server.queue_wait_us")
        .expect("queue-wait histogram");
    let service_time = snap
        .histograms
        .get("server.service_time_us")
        .expect("service-time histogram");
    assert!(
        !queue_wait.is_empty() && !service_time.is_empty(),
        "daemon histograms must not be empty after {total} requests"
    );
    assert!(
        service_time.count >= total as u64,
        "service-time samples ({}) must cover the generated load ({total})",
        service_time.count
    );
    assert!(
        queue_wait.p50() <= queue_wait.p99() && service_time.p50() <= service_time.p99(),
        "histogram percentiles must be monotone"
    );
    control.shutdown().expect("shutdown ack");
    let (served, served_errors) = handle.join();

    println!("\n  elapsed          {:>10.3} s", elapsed.as_secs_f64());
    println!("  throughput       {req_per_s:>10.0} req/s");
    println!("  latency p50      {:>10.1} us", p50.as_secs_f64() * 1e6);
    println!("  latency p90      {:>10.1} us", p90.as_secs_f64() * 1e6);
    println!("  latency p95      {:>10.1} us", p95.as_secs_f64() * 1e6);
    println!("  latency p99      {:>10.1} us", p99.as_secs_f64() * 1e6);
    println!("  latency max      {:>10.1} us", max.as_secs_f64() * 1e6);
    println!(
        "  server svc p50   {:>10} us ({} samples)",
        service_time.p50(),
        service_time.count
    );
    println!(
        "  server queue p50 {:>10} us ({} samples)",
        queue_wait.p50(),
        queue_wait.count
    );
    println!("  dropped replies  {dropped:>10}");
    println!("  client errors    {errors:>10}");
    println!(
        "  server           {} served, {} errors, drained cleanly",
        served, served_errors
    );

    // Tail-latency budget: a loopback Compare must come back within the
    // p99 budget even at full load. CI hosts vary, so the budget is
    // env-overridable without a rebuild.
    let p99_budget_ms: f64 = std::env::var("CBES_LOADGEN_P99_BUDGET_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15.0);
    let p99_ms = p99.as_secs_f64() * 1e3;
    let p99_ok = p99_ms <= p99_budget_ms;
    if !p99_ok {
        eprintln!("FAIL: p99 {p99_ms:.2} ms exceeds the {p99_budget_ms:.1} ms budget");
    }

    let ok = dropped == 0 && errors == 0 && req_per_s >= 10_000.0 && p99_ok;
    save_json(
        "server_loadgen",
        &serde_json::json!({
            "cluster": "centurion",
            "workers": WORKERS,
            "clients": clients,
            "pipeline_depth": depth,
            "requests": total,
            "mappings_per_request": candidates.len(),
            "elapsed_s": elapsed.as_secs_f64(),
            "req_per_s": req_per_s,
            "latency_us": {
                "p50": p50.as_secs_f64() * 1e6,
                "p90": p90.as_secs_f64() * 1e6,
                "p95": p95.as_secs_f64() * 1e6,
                "p99": p99.as_secs_f64() * 1e6,
                "max": max.as_secs_f64() * 1e6,
            },
            "server_histograms_us": {
                "queue_wait": {
                    "count": queue_wait.count,
                    "p50": queue_wait.p50(),
                    "p99": queue_wait.p99(),
                },
                "service_time": {
                    "count": service_time.count,
                    "p50": service_time.p50(),
                    "p99": service_time.p99(),
                },
            },
            "dropped_replies": dropped,
            "client_errors": errors,
            "served": served,
            "server_errors": served_errors,
            "queue_depth_at_stats": stats.queue_depth,
            "clean_drain": true,
            "target_req_per_s": 10_000.0,
            "p99_budget_ms": p99_budget_ms,
            "pass": ok,
        }),
    );
    // Headline numbers at the repo root, where CI publishes them.
    let bench = serde_json::json!({
        "bench": "server_loadgen",
        "req_per_s": req_per_s,
        "latency_us": {
            "p50": p50.as_secs_f64() * 1e6,
            "p95": p95.as_secs_f64() * 1e6,
            "p99": p99.as_secs_f64() * 1e6,
        },
    });
    match serde_json::to_string_pretty(&bench) {
        Ok(s) => {
            if let Err(e) = std::fs::write("BENCH_server_loadgen.json", s) {
                eprintln!("warning: cannot write BENCH_server_loadgen.json: {e}");
            } else {
                println!("[artifact] BENCH_server_loadgen.json");
            }
        }
        Err(e) => eprintln!("warning: cannot serialise bench summary: {e}"),
    }

    if !ok {
        eprintln!(
            "FAIL: target is >=10k req/s with zero dropped replies and \
             p99 <= {p99_budget_ms:.1} ms"
        );
        std::process::exit(1);
    }
    println!(
        "\nPASS: sustained {req_per_s:.0} req/s with zero dropped replies, \
         p99 {p99_ms:.2} ms within the {p99_budget_ms:.1} ms budget"
    );
}
