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
use cbes_server::protocol::{encode, error_kind};
use cbes_server::{
    Client, Request, RequestEnvelope, Response, ResponseEnvelope, Server, ServerConfig,
};
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

fn compare(app: &str, mappings: &[Mapping]) -> Request {
    Request::Compare {
        app: app.to_string(),
        mappings: mappings.to_vec(),
    }
}

/// Register `profile` over the wire, as a profiling agent would.
fn register(client: &mut Client, profile: AppProfile) {
    let reply = client.call(&Request::RegisterProfile { profile });
    assert!(
        matches!(reply, Ok(Response::Registered { .. })),
        "{reply:?}"
    );
}

#[test]
fn full_request_cycle_over_the_wire() {
    let (handle, _service) = demo_server(2);
    let mut client = Client::connect(handle.addr()).expect("connect");

    register(&mut client, ring_profile("ring", 2));

    let reply = client.call(&compare("ring", &[m(&[0, 1]), m(&[0, 4])]));
    let Ok(Response::Predictions { epoch, predictions }) = reply else {
        panic!("expected predictions, got {reply:?}")
    };
    assert_eq!(epoch, 0, "no load observed yet");
    assert_eq!(predictions.len(), 2);
    assert!(
        predictions[0].time < predictions[1].time,
        "same-switch mapping must be predicted faster"
    );

    let best_of = Request::BestOf {
        app: "ring".to_string(),
        mappings: vec![m(&[0, 4]), m(&[0, 1])],
    };
    let reply = client.call(&best_of).expect("best_of");
    assert!(
        matches!(&reply, Response::Best { index: 1, prediction, .. } if prediction.time > 0.0),
        "{reply:?}"
    );

    // A monitoring sweep bumps the epoch and shifts predictions.
    let mut load = LoadState::idle(8);
    load.set_cpu_avail(NodeId(0), 0.25);
    let observed = client.call(&Request::ObserveLoad { load });
    assert!(matches!(observed, Ok(Response::LoadObserved { epoch: 1 })));
    let reply = client
        .call(&compare("ring", &[m(&[0, 1])]))
        .expect("compare");
    assert!(
        matches!(&reply, Response::Predictions { epoch: 1, predictions: loaded }
            if loaded[0].time > predictions[0].time),
        "a loaded node must slow the prediction: {reply:?}"
    );

    // Server-side scheduling over the whole pool avoids the loaded node.
    let schedule = Request::Schedule {
        app: "ring".to_string(),
        pool: (0..8).collect(),
        iters: 0,
        seed: 7,
    };
    let reply = client.call(&schedule).expect("schedule");
    let Response::Scheduled {
        mapping,
        predicted_time,
        ..
    } = reply
    else {
        panic!("expected a schedule, got {reply:?}")
    };
    assert_eq!(mapping.len(), 2);
    assert!(predicted_time > 0.0);
    assert!(
        !mapping.as_slice().contains(&NodeId(0)),
        "scheduler should avoid the loaded node, got {mapping}"
    );

    let stats = client.stats().expect("stats");
    assert!(stats.served >= 6);
    assert_eq!(stats.epoch, 1);
    assert_eq!(stats.profiles, 1);
    assert_eq!(stats.workers, 2);

    let ack = client.call(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack, Response::ShuttingDown);
    let (served, errors) = handle.join();
    assert!(served >= 7);
    assert_eq!(errors, 0, "no request in this test should error");
}

/// A profile eqs. 5–8 cannot evaluate — here rank 0 sends to a rank the
/// profile does not have — is refused at registration with kind
/// `service`; it registers nothing, and the daemon keeps serving.
#[test]
fn a_malformed_profile_is_refused_and_the_daemon_keeps_serving() {
    let (handle, service) = demo_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let mut bad = ring_profile("bad", 2);
    bad.procs[0].sends[0].peer = 7;
    match client.call(&Request::RegisterProfile { profile: bad }) {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("peer 7"), "{message}");
        }
        other => panic!("expected a service error, got {other:?}"),
    }
    assert!(client.call(&compare("bad", &[m(&[0, 1])])).is_err());
    // A value no client would encode, but one that parses to infinity.
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let frame = cbes_server::protocol::encode(&cbes_server::protocol::RequestEnvelope::new(
        9,
        cbes_server::protocol::Request::RegisterProfile {
            profile: ring_profile("inf", 2),
        },
    ));
    let frame = frame.replacen("\"x\":5.0", "\"x\":1e999", 1) + "\n";
    (&stream).write_all(frame.as_bytes()).expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains(error_kind::SERVICE), "{line}");
    assert!(line.contains("x = inf"), "{line}");
    assert_eq!(client.stats().expect("stats").profiles, 0);
    register(&mut client, ring_profile("ring", 2));
    let reply = client.call(&compare("ring", &[m(&[0, 1])]));
    assert!(
        matches!(reply, Ok(Response::Predictions { .. })),
        "{reply:?}"
    );
    assert_eq!(service.registry().names(), ["ring"]);
    handle.shutdown_and_join();
}

#[test]
fn service_errors_come_back_typed() {
    let (handle, _service) = demo_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    register(&mut client, ring_profile("ring", 2));

    // Unknown application.
    match client.call(&compare("nope", &[m(&[0, 1])])) {
        Err(cbes_server::client::ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("nope"), "{message}");
        }
        other => panic!("expected a service error, got {other:?}"),
    }

    // Oversubscription is rejected at the service boundary: node 0 is a
    // single-CPU Alpha, so two ranks on it are refused.
    match client.call(&compare("ring", &[m(&[0, 0])])) {
        Err(cbes_server::client::ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("n0"), "{message}");
        }
        other => panic!("expected an oversubscription error, got {other:?}"),
    }

    // A short load sweep is refused without bumping the epoch.
    let short = LoadState::idle(3);
    assert!(client.call(&Request::ObserveLoad { load: short }).is_err());
    let reply = client.call(&compare("ring", &[m(&[0, 1])]));
    assert!(
        matches!(reply, Ok(Response::Predictions { epoch: 0, .. })),
        "rejected sweep must not bump the epoch: {reply:?}"
    );

    handle.shutdown_and_join();
}

#[test]
fn malformed_lines_get_bad_request_with_id_zero() {
    let (handle, _service) = demo_server(1);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    let mut line = String::new();
    // The second nests past the reader's depth limit. Read without one,
    // its recursion overflows the reactor's stack and aborts the daemon.
    for frame in ["this is not json".to_string(), "[".repeat(60_000)] {
        writer.write_all(frame.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("\"id\":0"), "{line}");
        assert!(line.contains(error_kind::BAD_REQUEST), "{line}");
    }

    handle.shutdown_and_join();
}

/// A sweep off the wire is unclamped and unchecked until the service
/// looks at it, and `ObserveLoad` runs inline on the reactor: one bad
/// frame must cost an error reply, not the daemon. A value that parses
/// to infinity once turned the adaptive forecaster's running mean into
/// NaN and panicked its argmin nine sweeps later; a `nic_load` column
/// shorter than `cpu_avail` once indexed past its end.
#[test]
fn malformed_sweeps_get_typed_errors_and_leave_the_daemon_up() {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::Adaptive(8),
    ));
    let handle = Server::start(service.clone(), ServerConfig::default()).expect("bind loopback");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut call = |id: u64, cpu: &str, nic: &str| {
        let frame = format!(
            "{{\"id\":{id},\"request\":{{\"ObserveLoad\":{{\"load\":{{\"cpu_avail\":[{cpu}],\"nic_load\":[{nic}]}}}}}}}}\n"
        );
        writer.write_all(frame.as_bytes()).expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains(&format!("\"id\":{id},")), "{line}");
        assert!(line.contains(error_kind::SERVICE), "{line}");
        line
    };
    let idle = ["0.0"; 8].join(",");
    for id in 1..=10 {
        let line = call(id, "1.0,1.0,1e999,1.0,1.0,1.0,1.0,1.0", &idle);
        assert!(line.contains("node n2 is not a finite number"), "{line}");
    }
    let line = call(11, &["0.5"; 8].join(","), "0.0");
    assert!(
        line.contains("covers 1 nodes but the cluster has 8"),
        "{line}"
    );

    let mut client = Client::connect(handle.addr()).expect("the daemon is still up");
    assert_eq!(client.stats().expect("stats").epoch, 0);
    assert_eq!(service.epoch(), 0, "a rejected sweep publishes nothing");
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
        register(&mut client, ring_profile("ring", 4));
    }
    let request = compare(
        "ring",
        &[m(&[0, 1, 2, 3]), m(&[0, 4, 1, 5]), m(&[4, 5, 6, 7])],
    );

    let collect = |expect_epoch: u64| -> Vec<Vec<u64>> {
        let results: Vec<(u64, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let request = &request;
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let reply = client.call(request);
                        let Ok(Response::Predictions { epoch, predictions }) = reply else {
                            panic!("expected predictions, got {reply:?}")
                        };
                        let bits = predictions.iter().map(|p| p.time.to_bits()).collect();
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
    register(&mut client, ring_profile("ring", 2));
    let request = compare("ring", &[m(&[0, 1]), m(&[0, 4])]);
    for _ in 0..32 {
        client.call(&request).expect("compare");
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

    let ack = client.call(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack, Response::ShuttingDown);
    handle.join();
}

/// Satellite requirement: the overload (queue-full) and deadline-timeout
/// reply paths are counted accurately in both `Stats` and `Metrics`.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test sizes a schedule to outlast the request timeout by timing it"
)]
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
    register(&mut client, ring_profile("ring", 2));

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
        c.call(&Request::Schedule {
            app: "ring".to_string(),
            pool: (0..8).collect(),
            iters,
            seed: 1,
        })
    });

    // While the worker is pinned: the first compare fills the one-slot
    // queue and times out at 300 ms; the next bounces off the full queue
    // with an immediate overload reply. Until the schedule reaches the
    // worker, compares run inline and succeed, so the loop is bounded by
    // a deadline well past the schedule's ~1.5 s, not by a count.
    let (mut saw_timeout, mut saw_overload) = (false, false);
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let mut c = Client::connect(addr).expect("connect");
        match c.call(&compare("ring", &[m(&[0, 1])])) {
            Ok(_) => cbes_obs::lock::sleep(Duration::from_millis(5)),
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
                    cbes_obs::lock::sleep(Duration::from_millis(50));
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
    // The shed spike dumped the flight recorder.
    for path in service.obs().flight().dumped() {
        std::fs::remove_file(path).expect("the dump is there to remove");
    }
}

/// One connection's pipelined frames run in arrival order even when the
/// pool is busy and they go to workers: while another client's
/// `Schedule` holds one of three workers, each `Compare` right behind
/// the `RegisterProfile` it needs finds its profile, and of two sweeps
/// the later one is published last.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test sizes a schedule to outlast a pipelined window by timing it"
)]
fn pipelined_frames_run_in_arrival_order_while_the_pool_is_busy() {
    let (handle, service) = demo_server(3);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    register(&mut client, ring_profile("ring", 2));

    // Size a schedule to about a second, as the overload test does.
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
    let iters = ((1.0 / per_iter) as u64).clamp(100_000, 100_000_000) as u32;
    let blocker = std::thread::spawn(move || {
        let mut c = Client::connect(addr).expect("connect");
        c.call(&Request::Schedule {
            app: "ring".to_string(),
            pool: (0..8).collect(),
            iters,
            seed: 1,
        })
    });
    cbes_obs::lock::sleep(Duration::from_millis(100));

    let sweep = |cpu| {
        let mut load = LoadState::idle(8);
        load.set_cpu_avail(NodeId(0), cpu);
        Request::ObserveLoad { load }
    };
    let mut requests = Vec::new();
    for i in 0..16 {
        let name = format!("p{i}");
        // 300 groups a rank: decoding the profile takes a worker far
        // longer than the reactor takes to admit the compare behind it.
        let mut profile = ring_profile(&name, 2);
        for rank in &mut profile.procs {
            let (send, recv) = (rank.sends[0], rank.recvs[0]);
            rank.sends.resize(300, send);
            rank.recvs.resize(300, recv);
        }
        requests.push(Request::RegisterProfile { profile });
        requests.push(compare(&name, &[m(&[0, 1])]));
    }
    requests.extend([sweep(0.25), sweep(0.75)]);
    let mut window = String::new();
    for (id, request) in (1..).zip(&requests) {
        window.push_str(&encode(&RequestEnvelope::new(id, request.clone())));
        window.push('\n');
    }
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    stream.write_all(window.as_bytes()).expect("write");
    let replies: Vec<ResponseEnvelope> = (0..requests.len())
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read");
            serde_json::from_str(&line).expect("a reply envelope")
        })
        .collect();
    assert!(!blocker.is_finished(), "the schedule outlasted the window");

    for (id, reply) in (1..).zip(&replies) {
        assert_eq!(reply.id, id, "replies leave in arrival order");
    }
    for pair in replies[..32].chunks(2) {
        assert!(
            matches!(pair[0].response, Response::Registered { .. }),
            "{pair:?}"
        );
        assert!(
            matches!(pair[1].response, Response::Predictions { .. }),
            "a compare ran before the profile it follows was registered: {pair:?}"
        );
    }
    let epochs: Vec<_> = replies[32..]
        .iter()
        .map(|reply| match reply.response {
            Response::LoadObserved { epoch } => epoch,
            ref other => panic!("expected a sweep ack, got {other:?}"),
        })
        .collect();
    assert!(
        epochs[0] < epochs[1],
        "sweeps published out of order: {epochs:?}"
    );
    let scheduled = blocker.join().expect("blocker thread");
    assert!(
        matches!(scheduled, Ok(Response::Scheduled { .. })),
        "{scheduled:?}"
    );
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

/// A frame the cursor decoder declines (here for the space after its
/// id) is decoded by the generic reader on the reactor, in time linear
/// in its bytes. One connection sends 32 `Compare` frames, each one
/// `app` name just under a 256 KiB `max_line_bytes`; all 32 are
/// answered within `BOUND`, and a second connection is served
/// meanwhile. A debug build takes ~0.2 s; a reader that re-validates
/// the rest of the frame per character spends ~2 s on each frame, so
/// the cap is 4× the default to keep the two far apart.
#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test bounds how long 32 near-cap frames take"
)]
fn frames_near_the_line_cap_decode_in_linear_time() {
    const CAP: usize = 256 * 1024;
    const BOUND: Duration = Duration::from_secs(3);
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let config = ServerConfig {
        workers: 2,
        max_line_bytes: CAP,
        ..ServerConfig::default()
    };
    let handle = Server::start(service, config).expect("bind loopback");
    let app = "x".repeat(CAP - 1024);
    let mut other = Client::connect_timeout(handle.addr(), BOUND).expect("connect");
    register(&mut other, ring_profile(&app, 2));
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream.set_read_timeout(Some(BOUND)).expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let frames: String = (1..=32)
        .map(|id| {
            format!(
                "{{\"id\":{id}, \"request\":{{\"Compare\":{{\"app\":\"{app}\",\
                 \"mappings\":[{{\"assign\":[0,1]}}]}}}}}}\n"
            )
        })
        .collect();

    let start = Instant::now();
    let sender = std::thread::spawn(move || writer.write_all(frames.as_bytes()));
    let reply = other.call(&compare(&app, &[m(&[0, 1])]));
    assert!(
        matches!(&reply, Ok(Response::Predictions { predictions, .. }) if predictions.len() == 1),
        "compare answered meanwhile: {reply:?}"
    );
    let mut line = String::new();
    for id in 1..=32 {
        line.clear();
        reader.read_line(&mut line).expect("reply within the bound");
        let typed = format!("{{\"id\":{id},\"response\":{{\"Predictions\"");
        assert!(line.starts_with(&typed), "{line}");
    }
    let elapsed = start.elapsed();
    assert!(elapsed < BOUND, "32 frames took {elapsed:?}");
    sender.join().expect("sender").expect("write");

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
    register(&mut client, ring_profile("ring", 2));

    let stats = client.stats().expect("stats");
    assert_eq!((stats.healthy, stats.suspect, stats.down), (8, 0, 0));

    // Node 3 goes silent; with the default policy (suspect after 3
    // stale sweeps, down after 8) nine partial sweeps kill it.
    let load = LoadState::idle(8);
    let sweep = Request::ObservePartial {
        load: load.clone(),
        silent: vec![3],
    };
    for epoch in 1..=9 {
        let reply = client.call(&sweep).expect("sweep");
        assert_eq!(reply, Response::LoadObserved { epoch });
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.healthy, stats.suspect, stats.down), (7, 0, 1));
    assert!(stats.health_transitions >= 2, "healthy->suspect->down");
    assert_eq!(stats.per_action["observe_partial"], 9);

    // The scheduler must route around the down node even when asked for it.
    let schedule = Request::Schedule {
        app: "ring".to_string(),
        pool: (0..8).collect(),
        iters: 0,
        seed: 11,
    };
    let reply = client.call(&schedule).expect("schedule");
    let Response::Scheduled { mapping, .. } = reply else {
        panic!("expected a schedule, got {reply:?}")
    };
    assert!(
        !mapping.as_slice().contains(&NodeId(3)),
        "down node must not be assigned, got {mapping}"
    );

    // A mapping naming the down node is refused with a typed error.
    match client.call(&compare("ring", &[m(&[3, 4])])) {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::SERVICE);
            assert!(message.contains("n3"), "{message}");
        }
        other => panic!("expected a node-down service error, got {other:?}"),
    }

    // A full sweep revives the node.
    let reply = client
        .call(&Request::ObserveLoad { load })
        .expect("full sweep");
    assert_eq!(reply, Response::LoadObserved { epoch: 10 });
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
        cbes_obs::lock::sleep(Duration::from_millis(200));
        let service = Arc::new(CbesService::self_calibrated(
            Arc::new(two_switch_demo()),
            ForecastKind::LastValue,
        ));
        service
            .registry()
            .insert(ring_profile("ring", 2))
            .expect("the ring profile compiles");
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
    let reply = client.call(&compare("ring", &[m(&[0, 1])])).expect("retry");
    assert!(
        matches!(&reply, Response::Predictions { predictions, .. } if predictions.len() == 1),
        "{reply:?}"
    );
    let stats = client.stats().expect("stats over the pooled connection");
    assert!(stats.served >= 1);

    starter.join().expect("starter").shutdown_and_join();
}

#[test]
fn shutdown_drains_and_answers_every_request() {
    let (handle, _service) = demo_server(2);
    let addr = handle.addr();
    let mut client = Client::connect(addr).expect("connect");
    register(&mut client, ring_profile("ring", 2));

    // Issue a burst from several threads, then shut down; every request
    // issued before the drain must still get exactly one reply.
    let answered: usize = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut ok = 0usize;
                    for _ in 0..25 {
                        match client.call(&compare("ring", &[m(&[0, 1])])) {
                            Ok(Response::Predictions { .. }) => ok += 1,
                            other => panic!("pre-shutdown request failed: {other:?}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(answered, 100);

    let ack = client.call(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack, Response::ShuttingDown);
    let (served, _errors) = handle.join();
    assert!(
        served >= 102,
        "all {answered} compares + register + shutdown"
    );

    // Connections after the drain are refused or closed immediately.
    cbes_obs::lock::sleep(Duration::from_millis(50));
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
    let rollback = |reason: &str| Request::Rollback {
        reason: reason.to_string(),
    };
    for verb in [Request::Apply, Request::Accept, rollback("nothing")] {
        match client.call(&verb) {
            Err(ClientError::Server { kind, .. }) => assert_eq!(kind, error_kind::BAD_REQUEST),
            other => panic!("expected lifecycle error, got {other:?}"),
        }
    }

    // Stage → apply (one epoch bump) → rollback (one more).
    let stage = Request::Stage {
        kind: "serving_limits".to_string(),
        payload: r#"{"max_rps": 50.0, "shed_retry_after_ms": 5}"#.to_string(),
    };
    let ack = |version, state: &str, epoch| Response::ArtifactAck {
        version,
        state: state.to_string(),
        epoch,
    };
    assert_eq!(client.call(&stage).expect("stage"), ack(1, "staged", 0));
    let applied = client.call(&Request::Apply).expect("apply");
    assert_eq!(
        applied,
        ack(1, "soaking", 1),
        "apply is exactly one epoch bump"
    );
    let reply = client.call(&Request::ArtifactStatus).expect("status");
    let Response::ArtifactStatus { status } = reply else {
        panic!("expected a status, got {reply:?}")
    };
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
    let rolled = client
        .call(&rollback("operator says no"))
        .expect("rollback");
    assert_eq!(
        rolled,
        ack(1, "rolled_back", 2),
        "rollback is exactly one epoch bump"
    );

    // Stage → apply → accept, then restart on the same state dir: the
    // journal replay must recover v2 as the active, serving artifact.
    assert_eq!(client.call(&stage).expect("stage v2"), ack(2, "staged", 2));
    assert_eq!(
        client.call(&Request::Apply).expect("apply v2"),
        ack(2, "soaking", 3)
    );
    assert_eq!(
        client.call(&Request::Accept).expect("accept v2"),
        ack(2, "active", 3)
    );
    let ack = client.call(&Request::Shutdown).expect("shutdown");
    assert_eq!(ack, Response::ShuttingDown);
    handle.join();

    let handle = start(state_dir.clone());
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let reply = client
        .call(&Request::ArtifactStatus)
        .expect("status after restart");
    let Response::ArtifactStatus { status } = reply else {
        panic!("expected a status, got {reply:?}")
    };
    assert_eq!(
        status.instances[0]
            .status
            .active
            .as_ref()
            .map(|a| a.version),
        Some(2)
    );
    assert!(status.instances[0].status.soaking.is_none());
    let ack = client.call(&Request::Shutdown).expect("shutdown");
    assert_eq!(ack, Response::ShuttingDown);
    handle.join();
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn artifact_verbs_without_a_state_dir_reply_bad_request() {
    let (handle, _service) = demo_server(1);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let stage = Request::Stage {
        kind: "serving_limits".to_string(),
        payload: "{}".to_string(),
    };
    match client.call(&stage) {
        Err(ClientError::Server { kind, message, .. }) => {
            assert_eq!(kind, error_kind::BAD_REQUEST);
            assert!(message.contains("--state-dir"), "{message}");
        }
        other => panic!("expected bad request, got {other:?}"),
    }
    // Status still answers, flagged as not reconfigurable, so a mixed
    // tier merge reports every instance.
    let reply = client.call(&Request::ArtifactStatus).expect("status");
    assert!(
        matches!(&reply, Response::ArtifactStatus { status }
            if status.instances.len() == 1 && !status.instances[0].reconfigurable),
        "{reply:?}"
    );
}

/// A frame's bytes become text through a lossy UTF-8 decode: a byte
/// that is not UTF-8 reads as U+FFFD and the frame is answered as that
/// text. The replies are pinned byte for byte, for a stray `0xFF`
/// inside an app name and as a line's first byte; the connection then
/// keeps serving.
#[test]
fn frames_that_are_not_utf8_are_answered_as_their_lossy_text() {
    let (handle, _service) = demo_server(1);
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let cases: [(&[u8], &[u8]); 3] = [
        (
            b"{\"id\":7,\"request\":{\"Compare\":{\"app\":\"lu\xffS\",\"mappings\":[{\"assign\":[0,1]}]}}}\n",
            b"{\"id\":7,\"response\":{\"Error\":{\"kind\":\"service\",\
              \"message\":\"no profile registered for `lu\xef\xbf\xbdS`\",\"retry_after_ms\":0}}}\n",
        ),
        (
            b"\xff{\"id\":8,\"request\":\"Stats\"}\n",
            b"{\"id\":0,\"response\":{\"Error\":{\"kind\":\"bad_request\",\
              \"message\":\"expected a JSON value at byte 0\",\"retry_after_ms\":0}}}\n",
        ),
        (
            b"{\"id\":9,\"request\":\"Stats\"}\n",
            b"{\"id\":9,\"response\":{\"Stats\"",
        ),
    ];
    let mut line = Vec::new();
    for (frame, want) in cases {
        writer.write_all(frame).expect("write");
        line.clear();
        reader.read_until(b'\n', &mut line).expect("read");
        assert!(
            line.starts_with(want),
            "{:?}",
            String::from_utf8_lossy(&line)
        );
    }
    handle.shutdown_and_join();
}
