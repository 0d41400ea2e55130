//! A batch is its candidates, over the wire: a `Compare` (and a `Batch`)
//! over a permuted candidate list is answered, at one epoch, with the
//! permuted predictions, bit for bit. `crates/core/tests/relations.rs`
//! holds the service to the same relation; this holds the daemon's
//! decode, evaluation and reply encoding to it on a live socket.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use cbes_cluster::load::LoadState;
use cbes_cluster::presets::two_switch_demo;
use cbes_cluster::NodeId;
use cbes_core::eval::Prediction;
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_server::{Client, Request, Response, Server, ServerConfig};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Nodes of the demo cluster.
const NODES: u32 = 8;

/// `n` ranks with random work and up to three message groups each.
fn profile(name: String, n: usize, rng: &mut StdRng) -> AppProfile {
    let groups = |rng: &mut StdRng| -> Vec<MessageGroup> {
        let k = rng.random_range(0usize..4);
        (0..k)
            .map(|_| MessageGroup {
                peer: rng.random_range(0..n),
                bytes: rng.random_range(1u64..100_000),
                count: rng.random_range(1u64..200),
            })
            .collect()
    };
    let procs = (0..n)
        .map(|rank| ProcessProfile {
            rank,
            x: rng.random_range(0.5..20.0),
            o: rng.random_range(0.0..1.0),
            b: rng.random_range(0.0..1.0),
            sends: groups(rng),
            recvs: groups(rng),
            profile_speed: 1.0,
            lambda: rng.random_range(0.5..2.0),
        })
        .collect();
    AppProfile {
        name,
        procs,
        arch_ratios: BTreeMap::new(),
    }
}

/// `n` distinct nodes, so no mapping oversubscribes a node.
fn mapping(n: usize, rng: &mut StdRng) -> Mapping {
    let mut nodes: Vec<u32> = (0..NODES).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.random_range(0..i + 1));
    }
    Mapping::new(nodes.into_iter().take(n).map(NodeId).collect())
}

fn predictions(reply: Result<Response, cbes_server::ClientError>) -> (u64, Vec<Prediction>) {
    match reply {
        Ok(Response::Predictions { epoch, predictions }) => (epoch, predictions),
        other => panic!("expected predictions, got {other:?}"),
    }
}

#[test]
fn a_permuted_candidate_list_is_answered_with_the_permuted_predictions() {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client =
        Client::connect_timeout(handle.addr(), Duration::from_secs(10)).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x5eed_ba7c);
    for case in 0..48 {
        let n = rng.random_range(2..7usize);
        let app = format!("app{case}");
        let registered = client.call(&Request::RegisterProfile {
            profile: profile(app.clone(), n, &mut rng),
        });
        assert!(matches!(registered, Ok(Response::Registered { .. })));
        // Every few cases a sweep moves the epoch: between cases, never
        // within one.
        if case % 6 == 0 {
            let mut load = LoadState::idle(NODES as usize);
            for node in 0..NODES {
                load.set_cpu_avail(NodeId(node), rng.random_range(0.1..1.0));
            }
            let observed = client.call(&Request::ObserveLoad { load });
            assert!(matches!(observed, Ok(Response::LoadObserved { .. })));
        }
        let candidates: Vec<Mapping> = (0..rng.random_range(1..9usize))
            .map(|_| mapping(n, &mut rng))
            .collect();
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let permuted: Vec<Mapping> = order.iter().map(|&i| candidates[i].clone()).collect();
        for batch in [false, true] {
            let mut ask = |mappings: &[Mapping]| {
                let (app, mappings) = (app.clone(), mappings.to_vec());
                let request = if batch {
                    Request::Batch { app, mappings }
                } else {
                    Request::Compare { app, mappings }
                };
                predictions(client.call(&request))
            };
            let (epoch, straight) = ask(&candidates);
            let (again, shuffled) = ask(&permuted);
            assert_eq!(epoch, again, "case {case}: one epoch");
            assert_eq!(shuffled.len(), order.len());
            for (got, &i) in shuffled.iter().zip(&order) {
                // Debug prints each float's shortest round-trip digits, so
                // equal text is equal bits.
                let (got, want) = (format!("{got:?}"), format!("{:?}", straight[i]));
                assert_eq!(got, want, "case {case} (batch: {batch}): candidate {i}");
            }
        }
    }
    assert_eq!(
        client.call(&Request::Shutdown).expect("drains"),
        Response::ShuttingDown
    );
    handle.join();
}
