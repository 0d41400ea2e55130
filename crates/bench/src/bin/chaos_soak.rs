//! Chaos soak: retrying clients hammering a rate-capped CBES daemon while
//! the standard fault schedule plays out against its monitoring feed.
//!
//! The daemon runs the Centurion preset under an evaluation rate cap below
//! what eight clients offer, so `Compare` bursts get load-shed with a
//! `retry_after_ms` hint; every soak client is a retrying [`Client`] and
//! must ride the sheds out. Meanwhile an injector thread replays
//! [`FaultSchedule::standard`] in real time as partial monitoring sweeps:
//! crashed and dropped-out nodes go silent, age to `Suspect`/`Down` on the
//! server, and recover when the schedule says so.
//!
//! Acceptance: every request eventually succeeds (zero give-ups, zero
//! terminal errors), the daemon observes health transitions, and the run
//! drains cleanly. Artifact: `results/chaos_soak.json` with requests
//! served, shed rate, and p99 latency.
//!
//! ```text
//! cargo run --release -p cbes-bench --bin chaos_soak [-- --full] [--runs REQS_PER_CLIENT] [--seed S]
//! ```

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbes_bench::args::ExpArgs;
use cbes_bench::save_json;
use cbes_cluster::load::LoadState;
use cbes_cluster::{presets, NodeId};
use cbes_core::health::HealthPolicy;
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_runtime::FaultSchedule;
use cbes_server::{Client, Request, Response, RetryPolicy, Server, ServerConfig};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};

const WORKERS: usize = 4;
const CLIENTS: usize = 8;
/// Tiny, though a `Compare` mostly runs inline on the reactor, unqueued.
const QUEUE: usize = 2;
/// Evaluation cap, requests/s: below what 8 clients offer, so it sheds.
const MAX_RPS: f64 = 10_000.0;
/// Real-time seconds per schedule second: the standard schedule's crash at
/// t=0.5 lands 0.125 s into the soak.
const TIME_SCALE: f64 = 0.25;
const SWEEP_PERIOD: Duration = Duration::from_millis(5);

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
    let per_client = args.runs.unwrap_or(if args.full { 4_000 } else { 1_000 });
    let total = per_client * CLIENTS;

    let cluster = Arc::new(presets::centurion());
    let n_nodes = cluster.len();
    let service = Arc::new(
        CbesService::self_calibrated(cluster, ForecastKind::Adaptive(8)).with_health_policy(
            HealthPolicy {
                suspect_after: 3,
                down_after: 8,
                ..HealthPolicy::default()
            },
        ),
    );
    service
        .registry()
        .insert(ring_profile(8))
        .expect("the ring profile compiles");
    let handle = Server::start(
        service,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE,
            shed_retry_after: Duration::from_millis(1),
            max_rps: MAX_RPS,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();

    // The standard chaos scenario: node 0 crashes at schedule t=0.5 and
    // stays down, node 1's monitor drops out over [1, 3), and a latency
    // spike passes through early. Replayed at TIME_SCALE real seconds per
    // schedule second.
    let faults = FaultSchedule::standard(n_nodes, 0);
    println!(
        "chaos_soak: centurion daemon on {addr}, {WORKERS} workers, queue {QUEUE}, \
         cap {MAX_RPS} evals/s, {CLIENTS} retrying clients x {per_client} Compare requests, \
         {} faults scheduled",
        faults.events().len()
    );

    let stop = Arc::new(AtomicBool::new(false));
    let injector = {
        let stop = Arc::clone(&stop);
        let faults = faults.clone();
        std::thread::spawn(move || {
            let mut feed = Client::connect(addr).expect("injector connect");
            let t0 = Instant::now();
            let mut sweeps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let t = t0.elapsed().as_secs_f64() / TIME_SCALE;
                let d = faults.sample(t, n_nodes);
                let mut load = LoadState::idle(n_nodes);
                d.apply_to(&mut load);
                let silent: Vec<u32> = d
                    .reported_mask()
                    .iter()
                    .enumerate()
                    .filter(|(_, &reported)| !reported)
                    .map(|(i, _)| i as u32)
                    .collect();
                // The injector is a plain (non-retrying) client: observe
                // sweeps are not idempotent. A shed sweep is just skipped
                // — the next one lands 5 ms later.
                match feed.call(&Request::ObservePartial { load, silent }) {
                    Ok(Response::LoadObserved { .. }) => sweeps += 1,
                    Err(e) if e.is_shed() => {}
                    other => panic!("injector sweep failed terminally: {other:?}"),
                }
                std::thread::sleep(SWEEP_PERIOD);
            }
            sweeps
        })
    };

    // Soak candidates steer clear of the scheduled victims (nodes 0 and
    // 1): a client that keeps proposing a crashed node gets the typed
    // degraded-mode rejection, which the probe below asserts explicitly.
    let candidates = vec![
        Mapping::new((2..10).map(NodeId).collect()),
        Mapping::new((60..68).map(NodeId).collect()),
        Mapping::new((0..8).map(|i| NodeId(i * 16 + 2)).collect()),
    ];
    let compare = |mappings: Vec<Mapping>| Request::Compare {
        app: "ring".to_string(),
        mappings,
    };
    let soak_compare = compare(candidates);
    let victim_compare = compare(vec![Mapping::new((0..8).map(NodeId).collect())]);
    let seed = args.seed;

    let start = Instant::now();
    let per_client_results: Vec<(Vec<Duration>, usize, (u64, u64))> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let soak_compare = &soak_compare;
                s.spawn(move || {
                    let mut client = Client::retrying(
                        addr.to_string(),
                        Duration::from_secs(10),
                        RetryPolicy {
                            max_attempts: 50,
                            base_delay: Duration::from_millis(1),
                            max_delay: Duration::from_millis(20),
                            seed: seed.wrapping_add(c as u64),
                        },
                    );
                    let mut latencies = Vec::with_capacity(per_client);
                    let mut errors = 0usize;
                    for _ in 0..per_client {
                        let t0 = Instant::now();
                        match client.call(soak_compare) {
                            Ok(Response::Predictions { predictions, .. }) => {
                                assert_eq!(predictions.len(), 3)
                            }
                            outcome => {
                                errors += 1;
                                eprintln!("request failed after retries: {outcome:?}");
                            }
                        }
                        latencies.push(t0.elapsed());
                    }
                    (latencies, errors, client.retry_tallies())
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Relaxed);
    let sweeps = injector.join().expect("injector thread");

    let mut latencies: Vec<Duration> = Vec::with_capacity(total);
    let (mut errors, mut retries, mut giveups) = (0usize, 0u64, 0u64);
    for (lat, err, (retried, gave_up)) in per_client_results {
        latencies.extend(lat);
        errors += err;
        retries += retried;
        giveups += gave_up;
    }
    latencies.sort_unstable();
    let req_per_s = total as f64 / elapsed.as_secs_f64();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let max = *latencies.last().expect("at least one request");

    // Pull the daemon's own view before draining, and probe degraded
    // mode: by now the scheduled crash has aged node 0 to `Down`, so a
    // mapping proposing it must draw the typed rejection, not a number.
    let mut control = Client::connect(addr).expect("connect control");
    let down_rejected = match control.call(&victim_compare) {
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("down node"),
                "victim compare failed for the wrong reason: {msg}"
            );
            true
        }
        Ok(_) => false,
    };
    let stats = control.stats().expect("stats");
    let ack = control.call(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack, Response::ShuttingDown);
    let (served, served_errors) = handle.join();

    // Shed rate over everything that reached admission.
    let admitted_or_shed = stats.served + stats.overloaded;
    let shed_rate = stats.overloaded as f64 / admitted_or_shed.max(1) as f64;

    println!("\n  elapsed            {:>10.3} s", elapsed.as_secs_f64());
    println!("  throughput         {req_per_s:>10.0} req/s (successful Compare)");
    println!("  latency p50        {:>10.1} us", p50.as_secs_f64() * 1e6);
    println!("  latency p99        {:>10.1} us", p99.as_secs_f64() * 1e6);
    println!("  latency max        {:>10.1} us", max.as_secs_f64() * 1e6);
    println!(
        "  sheds              {:>10} ({:.1}% of admissions)",
        stats.overloaded,
        shed_rate * 100.0
    );
    println!("  client retries     {retries:>10}");
    println!("  retry give-ups     {giveups:>10}");
    println!("  injector sweeps    {sweeps:>10}");
    println!(
        "  node health        {:>10} ({} healthy / {} suspect / {} down)",
        "", stats.healthy, stats.suspect, stats.down
    );
    println!("  health transitions {:>10}", stats.health_transitions);
    println!(
        "  down-node probe    {:>10}",
        if down_rejected {
            "rejected"
        } else {
            "ACCEPTED"
        }
    );
    println!("  terminal errors    {errors:>10}");
    println!(
        "  server             {} served, {} errors, drained cleanly",
        served, served_errors
    );

    // With the schedule's permanent crash active and >8 sweeps injected,
    // the daemon must have classified node 0 Down (and seen the dropout
    // come and go), so transitions must be non-zero and something must be
    // non-healthy at drain time.
    let ok = errors == 0
        && giveups == 0
        && stats.overloaded > 0
        && retries > 0
        && stats.health_transitions >= 2
        && stats.down >= 1
        && down_rejected
        && sweeps > 20;

    let saved = save_json(
        "chaos_soak",
        &serde_json::json!({
            "cluster": "centurion",
            "workers": WORKERS,
            "queue_capacity": QUEUE,
            "max_rps": MAX_RPS,
            "clients": CLIENTS,
            "requests": total,
            "elapsed_s": elapsed.as_secs_f64(),
            "req_per_s": req_per_s,
            "latency_us": {
                "p50": p50.as_secs_f64() * 1e6,
                "p99": p99.as_secs_f64() * 1e6,
                "max": max.as_secs_f64() * 1e6,
            },
            "sheds": stats.overloaded,
            "shed_rate": shed_rate,
            "client_retries": retries,
            "retry_giveups": giveups,
            "terminal_errors": errors,
            "injector_sweeps": sweeps,
            "health": {
                "healthy": stats.healthy,
                "suspect": stats.suspect,
                "down": stats.down,
                "transitions": stats.health_transitions,
            },
            "down_node_probe_rejected": down_rejected,
            "served": served,
            "server_errors": served_errors,
            "pass": ok,
        }),
    );
    if let Err(e) = saved {
        eprintln!("warning: cannot write results/chaos_soak.json: {e}");
    }

    if !ok {
        eprintln!(
            "FAIL: soak must shed under load, retry through it with zero give-ups, \
             and observe the scheduled faults"
        );
        std::process::exit(1);
    }
    println!(
        "\nPASS: {total} requests all served through {} sheds and {} retries, \
         faults observed ({} transitions)",
        stats.overloaded, retries, stats.health_transitions
    );
}
