//! What the wire-level tests share: one fixed request per action.

use std::collections::BTreeMap;

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use cbes_server::protocol::Request;
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};

pub fn ring_profile(name: &str, procs: usize) -> AppProfile {
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

pub fn m(ids: &[u32]) -> Mapping {
    Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
}

fn loaded(node: u32, avail: f64) -> LoadState {
    let mut load = LoadState::idle(8);
    load.set_cpu_avail(NodeId(node), avail);
    load
}

/// One request per action, in protocol declaration order.
pub fn one_of_each() -> Vec<Request> {
    let mappings = vec![m(&[0, 1]), m(&[0, 4])];
    vec![
        Request::RegisterProfile {
            profile: ring_profile("ring", 2),
        },
        Request::Compare {
            app: "ring".into(),
            mappings: mappings.clone(),
        },
        Request::BestOf {
            app: "ring".into(),
            mappings: mappings.clone(),
        },
        Request::Schedule {
            app: "ring".into(),
            pool: (0..8).collect(),
            iters: 200,
            seed: 7,
        },
        Request::ObserveLoad {
            load: loaded(0, 0.25),
        },
        Request::ObservePartial {
            load: loaded(1, 0.5),
            silent: vec![7],
        },
        Request::Stats,
        Request::Metrics,
        Request::Shutdown,
        Request::Route {
            cluster: "demo".into(),
            app: "ring".into(),
        },
        Request::Replicate {
            epoch: 9,
            load: loaded(4, 0.75),
            silent: vec![],
        },
        Request::Membership,
        Request::Batch {
            app: "ring".into(),
            mappings,
        },
        Request::Trace { trace_id: 99 },
        Request::DumpFlight,
        Request::Stage {
            kind: "serving_limits".into(),
            payload: "{\"max_rps\": 50.0, \"shed_retry_after_ms\": 10}".into(),
        },
        Request::Apply,
        Request::Accept,
        Request::Rollback {
            reason: "p99 regression".into(),
        },
        Request::ArtifactStatus,
    ]
}
