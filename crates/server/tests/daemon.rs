//! Integration tests: a real daemon on a loopback socket, exercised by
//! blocking clients over the wire.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbes_cluster::load::LoadState;
use cbes_cluster::presets::two_switch_demo;
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_sched::{SaConfig, SaScheduler, ScheduleRequest, Scheduler};
use cbes_server::client::ClientError;
use cbes_server::protocol::error_kind;
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

fn demo_server(workers: usize) -> (cbes_server::ServerHandle, Arc<CbesService>) {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service.clone(),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    (handle, service)
}

fn m(ids: &[u32]) -> Mapping {
    Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
}

#[test]
fn full_request_cycle_over_the_wire() {
    let (handle, _service) = demo_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    client
        .register_profile(ring_profile("ring", 2))
        .expect("register");

    let (epoch, preds) = client
        .compare("ring", &[m(&[0, 1]), m(&[0, 4])])
        .expect("compare");
    assert_eq!(epoch, 0, "no load observed yet");
    assert_eq!(preds.len(), 2);
    assert!(
        preds[0].time < preds[1].time,
        "same-switch mapping must be predicted faster"
    );

    let (_, index, best) = client
        .best_of("ring", &[m(&[0, 4]), m(&[0, 1])])
        .expect("best_of");
    assert_eq!(index, 1);
    assert!(best.time > 0.0);

    // A monitoring sweep bumps the epoch and shifts predictions.
    let mut load = LoadState::idle(8);
    load.set_cpu_avail(NodeId(0), 0.25);
    let epoch = client.observe_load(&load).expect("observe");
    assert_eq!(epoch, 1);
    let (epoch2, loaded) = client.compare("ring", &[m(&[0, 1])]).expect("compare");
    assert_eq!(epoch2, 1);
    assert!(
        loaded[0].time > preds[0].time,
        "a loaded node must slow the prediction"
    );

    // Server-side scheduling over the whole pool avoids the loaded node.
    let pool: Vec<u32> = (0..8).collect();
    let (_, mapping, predicted) = client.schedule("ring", &pool, 0, 7).expect("schedule");
    assert_eq!(mapping.len(), 2);
    assert!(predicted > 0.0);
    assert!(
        !mapping.as_slice().contains(&NodeId(0)),
        "scheduler should avoid the loaded node, got {mapping}"
    );

    let stats = client.stats().expect("stats");
    assert!(stats.served >= 6);
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.profiles, 1);
    assert_eq!(stats.workers, 2);

    client.shutdown().expect("shutdown ack");
    let (served, errors) = handle.join();
    assert!(served >= 7);
    assert_eq!(errors, 0, "no request in this test should error");
}

#[test]
fn service_errors_come_back_typed() {
    let (handle, _service) = demo_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .register_profile(ring_profile("ring", 2))
        .expect("register");

    // Unknown application.
    match client.compare("nope", &[m(&[0, 1])]) {
        Err(cbes_server::client::ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected a service error, got {other:?}"),
    }

    // Oversubscription is rejected at the service boundary: node 0 is a
    // single-CPU Alpha, so two ranks on it are refused.
    match client.compare("ring", &[m(&[0, 0])]) {
        Err(cbes_server::client::ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("n0"), "{message}");
        }
        other => panic!("expected an oversubscription error, got {other:?}"),
    }

    // A short load sweep is refused without bumping the epoch.
    let short = LoadState::idle(3);
    assert!(client.observe_load(&short).is_err());
    let (epoch, _) = client.compare("ring", &[m(&[0, 1])]).expect("compare");
    assert_eq!(epoch, 0, "rejected sweep must not bump the epoch");

    handle.shutdown_and_join();
}

#[test]
fn malformed_lines_get_bad_request_with_id_zero() {
    let (handle, _service) = demo_server(1);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    writer.write_all(b"this is not json\n").expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"id\":0"), "{line}");
    assert!(line.contains(error_kind::BAD_REQUEST), "{line}");

    handle.shutdown_and_join();
}

/// Satellite requirement: N threads issuing `Compare` against the same
/// snapshot epoch receive bit-identical predictions, and an `ObserveLoad`
/// between epochs changes them deterministically.
#[test]
fn concurrent_compares_are_bit_identical_within_an_epoch() {
    let (handle, service) = demo_server(4);
    let addr = handle.addr();
    {
        let mut client = Client::connect(addr).expect("connect");
        client
            .register_profile(ring_profile("ring", 4))
            .expect("register");
    }
    let mappings = [m(&[0, 1, 2, 3]), m(&[0, 4, 1, 5]), m(&[4, 5, 6, 7])];

    let collect = |expect_epoch: u64| -> Vec<Vec<u64>> {
        let results: Vec<(u64, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let mappings = &mappings;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let (epoch, preds) = client.compare("ring", mappings).expect("compare");
                        let bits: Vec<u64> = preds.iter().map(|p| p.time.to_bits()).collect();
                        (epoch, bits)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        results
            .into_iter()
            .map(|(epoch, bits)| {
                assert_eq!(epoch, expect_epoch, "all threads see the same epoch");
                bits
            })
            .collect()
    };

    let epoch0: Vec<Vec<u64>> = collect(0);
    for bits in &epoch0[1..] {
        assert_eq!(
            bits, &epoch0[0],
            "predictions within one epoch must be bit-identical"
        );
    }

    // Observe load: the epoch advances and predictions change — the same
    // way for every thread.
    let mut load = LoadState::idle(8);
    load.set_cpu_avail(NodeId(0), 0.4);
    load.set_cpu_avail(NodeId(1), 0.6);
    assert_eq!(service.observe_load(&load).expect("sweep"), 1);

    let epoch1: Vec<Vec<u64>> = collect(1);
    for bits in &epoch1[1..] {
        assert_eq!(bits, &epoch1[0], "epoch 1 must also be deterministic");
    }
    assert_ne!(
        epoch0[0], epoch1[0],
        "the load observation must change predictions"
    );
    // The idle-node mapping is untouched by load on nodes 0/1.
    assert_eq!(
        epoch0[0][2], epoch1[0][2],
        "mapping on idle nodes must be unaffected"
    );

    handle.shutdown_and_join();
}

/// Acceptance criterion: the latency histograms returned by `Metrics`
/// have sane percentiles and their counts equal the served counter.
#[test]
fn metrics_histograms_are_sane_and_counts_match_served() {
    let (handle, _service) = demo_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .register_profile(ring_profile("ring", 2))
        .expect("register");
    for _ in 0..32 {
        client
            .compare("ring", &[m(&[0, 1]), m(&[0, 4])])
            .expect("compare");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.per_action["compare"], 32);
    assert_eq!(stats.per_action["register_profile"], 1);
    assert!(stats.uptime_s > 0.0);

    let snap = client.metrics().expect("metrics");
    // The snapshot is taken before the metrics request itself is counted,
    // and this client is serial, so the totals are exact: every served
    // request recorded both histograms.
    let served = snap.counters["server.served"];
    assert_eq!(served, 34, "register + 32 compares + stats");
    let svc = &snap.histograms["server.service_time_us"];
    let qw = &snap.histograms["server.queue_wait_us"];
    assert_eq!(svc.count, served, "one service-time sample per request");
    // A serial client finds the pool idle, so every frame ran on the
    // reactor, which files a frame's zero-wait sample once the inline hook
    // has run it: the in-flight metrics request's own is not in yet.
    assert_eq!(qw.count, served, "one queue-wait sample per pickup");
    assert!(svc.p50() <= svc.p99(), "percentiles must be monotone");
    assert!(svc.min <= svc.p50() && svc.p99() <= svc.max);
    assert!(qw.p50() <= qw.p99());
    assert!(
        snap.spans_buffered >= served,
        "every request leaves a span in the ring"
    );

    client.shutdown().expect("shutdown ack");
    handle.join();
}

/// Satellite requirement: the overload (queue-full) and deadline-timeout
/// reply paths are counted accurately in both `Stats` and `Metrics`.
#[test]
fn overload_and_timeout_paths_are_counted_in_stats_and_metrics() {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service.clone(),
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            request_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .register_profile(ring_profile("ring", 2))
        .expect("register");

    // Calibrate SA speed offline, then size a schedule request to ~1.5 s
    // — five request timeouts — so it reliably hogs the single worker.
    let profile = service.registry().get("ring").expect("registered");
    let cached = service.current_load();
    let snapshot = service.snapshot_of(&cached);
    let pool: Vec<NodeId> = (0..8).map(NodeId).collect();
    let request = ScheduleRequest::new(&profile, &snapshot, &pool);
    let mut cfg = SaConfig::fast(1);
    cfg.iters = 50_000;
    let t0 = Instant::now();
    SaScheduler::new(cfg).schedule(&request).expect("calibrate");
    let per_iter = t0.elapsed().as_secs_f64() / 50_000.0;
    let iters = ((1.5 / per_iter) as u64).clamp(200_000, 200_000_000) as u32;

    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.schedule("ring", &(0..8).collect::<Vec<u32>>(), iters, 1)
    });

    // While the worker is pinned: the first compare fills the one-slot
    // queue and times out at 300 ms; the next bounces off the full queue
    // with an immediate overload reply.
    let (mut saw_timeout, mut saw_overload) = (false, false);
    for _ in 0..40 {
        let mut c = Client::connect(addr).expect("connect");
        match c.compare("ring", &[m(&[0, 1])]) {
            Ok(_) => {}
            Err(ClientError::Server { kind, .. }) if kind == error_kind::TIMEOUT => {
                saw_timeout = true;
            }
            Err(ClientError::Server { kind, .. }) if kind == error_kind::OVERLOADED => {
                saw_overload = true;
            }
            Err(e) => panic!("unexpected client error: {e}"),
        }
        if saw_timeout && saw_overload {
            break;
        }
    }
    assert!(saw_timeout, "a queued compare must hit the deadline");
    assert!(saw_overload, "a compare must bounce off the full queue");
    match blocker.join().expect("blocker thread") {
        Err(ClientError::Server { kind, .. }) => assert_eq!(kind, error_kind::TIMEOUT),
        other => panic!("the blocking schedule should time out, got {other:?}"),
    }

    // Wait for the worker to drain, then read the counters over the wire.
    let stats = {
        let mut tries = 0;
        loop {
            let mut c = Client::connect(addr).expect("connect");
            match c.stats() {
                Ok(s) => break s,
                Err(_) if tries < 200 => {
                    tries += 1;
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(e) => panic!("stats never came back: {e}"),
            }
        }
    };
    assert!(stats.timeouts >= 2, "schedule + queued compare timed out");
    assert!(stats.overloaded >= 1);
    assert_eq!(
        stats.errors,
        stats.timeouts + stats.overloaded,
        "every error in this test is a timeout or an overload"
    );
    assert!(stats.per_action["schedule"] >= 1);

    let mut c = Client::connect(addr).expect("connect");
    let snap = c.metrics().expect("metrics");
    assert_eq!(snap.counters["server.overloaded"], stats.overloaded);
    assert_eq!(snap.counters["server.timeouts"], stats.timeouts);
    assert!(snap.counters["server.served"] >= stats.served);
    assert!(snap.histograms["server.queue_wait_us"].count >= 1);

    handle.shutdown_and_join();
}

/// Satellite requirement: a request line over the configured cap is
/// answered with a typed `frame_too_large` error instead of buffering
/// without bound, and the connection stays usable afterwards.
#[test]
fn oversized_frames_get_a_typed_error_and_the_connection_survives() {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service,
        ServerConfig {
            workers: 1,
            max_line_bytes: 1024,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // One frame, 8 KiB of x's: complete (newline-terminated) but over cap.
    let mut big = "x".repeat(8 * 1024);
    big.push('\n');
    writer.write_all(big.as_bytes()).expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains(error_kind::FRAME_TOO_LARGE), "{line}");
    assert!(line.contains("\"id\":0"), "{line}");

    // The same connection still serves well-framed requests.
    writer
        .write_all(b"{\"id\":7,\"request\":\"Stats\"}\n")
        .expect("write");
    writer.flush().expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"id\":7"), "{line}");
    assert!(!line.contains(error_kind::FRAME_TOO_LARGE), "{line}");

    handle.shutdown_and_join();
}

/// Satellite requirement: a connection that keeps sending malformed
/// frames is dropped once its consecutive-error budget is spent, and the
/// drop is visible in `Stats`.
#[test]
fn repeated_malformed_frames_exhaust_the_error_budget() {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service,
        ServerConfig {
            workers: 1,
            max_consecutive_errors: 3,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    let stream = TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    for i in 0..3 {
        writer.write_all(b"garbage\n").expect("write");
        writer.flush().expect("flush");
        line.clear();
        let n = reader.read_line(&mut line).expect("read");
        assert!(n > 0, "strike {i} must still be answered");
        assert!(line.contains(error_kind::BAD_REQUEST), "{line}");
    }
    // The third strike was the last: the server hangs up after replying.
    line.clear();
    let n = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(
        n, 0,
        "connection must be closed after the budget, got {line}"
    );

    let mut client = Client::connect(addr).expect("fresh connections still work");
    let stats = client.stats().expect("stats");
    assert_eq!(stats.dropped_connections, 1);

    handle.shutdown_and_join();
}

/// Tentpole requirement: silent nodes age to `Suspect`/`Down` over the
/// wire, stats expose the health counts, and schedule requests route
/// around the down node.
#[test]
fn partial_sweeps_drive_health_over_the_wire() {
    let (handle, _service) = demo_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");
    client
        .register_profile(ring_profile("ring", 2))
        .expect("register");

    let stats = client.stats().expect("stats");
    assert_eq!((stats.healthy, stats.suspect, stats.down), (8, 0, 0));

    // Node 3 goes silent; with the default policy (suspect after 3
    // stale sweeps, down after 8) nine partial sweeps kill it.
    let load = LoadState::idle(8);
    for _ in 0..9 {
        client.observe_partial(&load, &[3]).expect("sweep");
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.healthy, stats.suspect, stats.down), (7, 0, 1));
    assert!(stats.health_transitions >= 2, "healthy->suspect->down");
    assert_eq!(stats.per_action["observe_partial"], 9);

    // The scheduler must route around the down node even when asked for it.
    let (_, mapping, _) = client
        .schedule("ring", &(0..8).collect::<Vec<u32>>(), 0, 11)
        .expect("schedule");
    assert!(
        !mapping.as_slice().contains(&NodeId(3)),
        "down node must not be assigned, got {mapping}"
    );

    // A mapping naming the down node is refused with a typed error.
    match client.compare("ring", &[m(&[3, 4])]) {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("n3"), "{message}");
        }
        other => panic!("expected a node-down service error, got {other:?}"),
    }

    // A full sweep revives the node.
    client.observe_load(&load).expect("full sweep");
    let stats = client.stats().expect("stats");
    assert_eq!((stats.healthy, stats.suspect, stats.down), (8, 0, 0));

    handle.shutdown_and_join();
}

/// Satellite requirement: the retrying client rides out transient
/// connect failures with backoff instead of surfacing the first refusal.
#[test]
fn retrying_client_rides_out_a_late_starting_server() {
    use cbes_server::RetryPolicy;

    // Reserve a port, then free it so the daemon can bind it *later*.
    // (The listener never accepted anything, so no TIME_WAIT lingers.)
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    };

    let starter = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(200));
        let service = Arc::new(CbesService::self_calibrated(
            Arc::new(two_switch_demo()),
            ForecastKind::LastValue,
        ));
        service.registry().insert(ring_profile("ring", 2));
        Server::start(
            service,
            ServerConfig {
                addr: addr.to_string(),
                workers: 1,
                ..ServerConfig::default()
            },
        )
        .expect("bind reserved port")
    });

    // First attempts are refused (nothing listens yet); the retry loop
    // reconnects with backoff until the daemon appears.
    let mut client = Client::retrying(
        addr.to_string(),
        Duration::from_secs(2),
        RetryPolicy {
            max_attempts: 60,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
            seed: 3,
        },
    );
    let (_, preds) = client.compare("ring", &[m(&[0, 1])]).expect("retry");
    assert_eq!(preds.len(), 1);
    let stats = client.stats().expect("stats over the pooled connection");
    assert!(stats.served >= 1);

    starter.join().expect("starter").shutdown_and_join();
}

#[test]
fn shutdown_drains_and_answers_every_request() {
    let (handle, _service) = demo_server(2);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .register_profile(ring_profile("ring", 2))
        .expect("register");

    // Issue a burst from several threads, then shut down; every request
    // issued before the drain must still get exactly one reply.
    let answered: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut ok = 0usize;
                    for _ in 0..25 {
                        match client.compare("ring", &[m(&[0, 1])]) {
                            Ok(_) => ok += 1,
                            Err(e) => panic!("pre-shutdown request failed: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(answered, 100);

    client.shutdown().expect("shutdown ack");
    let (served, _errors) = handle.join();
    assert!(
        served >= 102,
        "all {answered} compares + register + shutdown"
    );

    // Connections after the drain are refused or closed immediately.
    std::thread::sleep(Duration::from_millis(50));
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(stream) => {
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            let n = reader.read_line(&mut line).unwrap_or(0);
            assert_eq!(n, 0, "post-shutdown connection must be closed, got {line}");
        }
    }
}

#[test]
fn artifact_lifecycle_over_the_wire_survives_a_restart() {
    let state_dir =
        std::env::temp_dir().join(format!("cbes-daemon-artifacts-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let start = |dir: std::path::PathBuf| {
        let service = Arc::new(CbesService::self_calibrated(
            Arc::new(two_switch_demo()),
            ForecastKind::LastValue,
        ));
        Server::start(
            service,
            ServerConfig {
                workers: 1,
                state_dir: Some(dir),
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback")
    };

    let handle = start(state_dir.clone());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Nothing soaking yet: apply/accept/rollback are lifecycle errors.
    for err in [client.apply(), client.accept(), client.rollback("nothing")] {
        match err {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, error_kind::BAD_REQUEST),
            other => panic!("expected lifecycle error, got {other:?}"),
        }
    }

    // Stage → apply (one epoch bump) → rollback (one more).
    let limits = r#"{"max_rps": 50.0, "shed_retry_after_ms": 5}"#;
    let (v1, state, epoch0) = client.stage("serving_limits", limits).expect("stage");
    assert_eq!((v1, state.as_str()), (1, "staged"));
    let (_, state, epoch1) = client.apply().expect("apply");
    assert_eq!(state, "soaking");
    assert_eq!(epoch1, epoch0 + 1, "apply is exactly one epoch bump");
    let status = client.artifact_status().expect("status");
    assert_eq!(status.instances.len(), 1);
    assert!(status.instances[0].reconfigurable);
    assert_eq!(
        status.instances[0]
            .status
            .soaking
            .as_ref()
            .map(|s| s.version),
        Some(1)
    );
    let (_, state, epoch2) = client.rollback("operator says no").expect("rollback");
    assert_eq!(state, "rolled_back");
    assert_eq!(epoch2, epoch1 + 1, "rollback is exactly one epoch bump");

    // Stage → apply → accept, then restart on the same state dir: the
    // journal replay must recover v2 as the active, serving artifact.
    let (v2, _, _) = client.stage("serving_limits", limits).expect("stage v2");
    assert_eq!(v2, 2);
    client.apply().expect("apply v2");
    let (_, state, _) = client.accept().expect("accept v2");
    assert_eq!(state, "active");
    client.shutdown().expect("shutdown");
    handle.join();

    let handle = start(state_dir.clone());
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let status = client.artifact_status().expect("status after restart");
    assert_eq!(
        status.instances[0]
            .status
            .active
            .as_ref()
            .map(|a| a.version),
        Some(2)
    );
    assert!(status.instances[0].status.soaking.is_none());
    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn artifact_verbs_without_a_state_dir_reply_bad_request() {
    let (handle, _service) = demo_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    match client.stage("serving_limits", "{}") {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::BAD_REQUEST);
            assert!(message.contains("--state-dir"), "{message}");
        }
        other => panic!("expected bad request, got {other:?}"),
    }
    // Status still answers, flagged as not reconfigurable, so a mixed
    // tier merge reports every instance.
    let status = client.artifact_status().expect("status");
    assert_eq!(status.instances.len(), 1);
    assert!(!status.instances[0].reconfigurable);
}
