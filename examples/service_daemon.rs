//! The serving layer end to end, in one process: start the daemon, feed
//! it a real LU profile, fire 100 concurrent `BestOf` requests over
//! loopback sockets, and read the counters back.
//!
//! ```text
//! cargo run --release --example service_daemon
//! ```

use std::sync::Arc;

use cbes::prelude::*;
use cbes::server::{Client, Request, Response, Server, ServerConfig};

fn main() {
    // ── 1. Stand up the service: demo cluster, calibrated latency model,
    //       adaptive load forecasting — shared behind an Arc.
    let cluster = Arc::new(presets::two_switch_demo());
    let calib = Calibrator::default().calibrate(&cluster);
    let service = Arc::new(CbesService::new(
        cluster.clone(),
        Arc::new(calib.model.clone()),
        cbes::core::monitor::ForecastKind::Adaptive(4),
    ));
    let handle = Server::start(
        service,
        ServerConfig {
            workers: 4,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    println!("daemon on {addr} over `{}`", cluster.name());

    // ── 2. Profile LU once and register it over the wire, exactly as an
    //       external profiling agent would.
    let app = npb::lu(4, NpbClass::S);
    let prof: Vec<NodeId> = (0..4).map(NodeId).collect();
    let run = simulate(
        &cluster,
        &app.program,
        &prof,
        &LoadState::idle(cluster.len()),
        &SimConfig::default().with_seed(11),
    )
    .expect("profiling run");
    let profile = extract_profile(&app.name, &run.trace, &cluster, &prof, &calib.model);
    let mut client = Client::connect(addr).expect("connect");
    let registered = client.call(&Request::RegisterProfile { profile });
    assert!(
        matches!(registered, Ok(Response::Registered { .. })),
        "{registered:?}"
    );
    println!("registered `{}`", app.name);

    // ── 3. 100 concurrent BestOf requests from 10 client threads, all
    //       against the same snapshot epoch.
    let candidates = vec![
        Mapping::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]),
        Mapping::new(vec![NodeId(0), NodeId(4), NodeId(1), NodeId(5)]),
        Mapping::new(vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]),
    ];
    let best_of = Request::BestOf {
        app: app.name.clone(),
        mappings: candidates.clone(),
    };
    let best_counts: Vec<usize> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..10)
            .map(|_| {
                let best_of = &best_of;
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut best = 0usize;
                    for _ in 0..10 {
                        match client.call(best_of).expect("best_of") {
                            Response::Best { index, .. } => best = index,
                            other => panic!("expected Best, got {other:?}"),
                        }
                    }
                    best
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    });
    assert!(
        best_counts.iter().all(|&b| b == best_counts[0]),
        "one epoch, one winner"
    );
    println!(
        "100 concurrent comparisons agree: candidate #{} ({}) is fastest",
        best_counts[0], candidates[best_counts[0]]
    );

    // ── 4. Counters, then a clean drain.
    let stats = client.stats().expect("stats");
    println!(
        "server counters: {} served, {} errors, {} connections, epoch {}",
        stats.served, stats.errors, stats.connections, stats.epoch
    );
    let ack = client.call(&Request::Shutdown).expect("shutdown ack");
    assert_eq!(ack, Response::ShuttingDown);
    let (served, errors) = handle.join();
    println!("drained: {served} requests served, {errors} errors");
}
