//! Relations between the service's answers, over generated profiles,
//! loads and mappings, on both no-load providers (the port table and a
//! calibrated `LatencyModel`):
//!
//! - NCS bounds CS: the compute-only score never exceeds the predicted
//!   time, and equals it bit for bit when every rank's `C_i` is zero;
//! - a batch is its candidates: `compare` over a permuted candidate list
//!   returns the permuted predictions, bit for bit;
//! - more load never helps: less CPU on one node lowers no `R_i`, no
//!   `C_i` and not `S_M`, and raises the `R_i` of every working rank
//!   placed there; a busier NIC on one node lowers no `C_i`;
//! - health only hurts: `Suspect` nodes lower no `R_i` and not `S_M` and
//!   leave every `C_i` as it was, a mapping onto a `Down` node costs
//!   `+∞`, and one that avoids it is the all-healthy prediction.

use cbes_cluster::load::LoadState;
use cbes_cluster::presets::two_switch_demo;
use cbes_cluster::{Cluster, NodeId};
use cbes_core::health::{HealthView, NodeHealth};
use cbes_core::snapshot::Provider;
use cbes_core::{CbesService, Evaluator, ForecastKind, Mapping, Prediction, SystemSnapshot};
use cbes_netmodel::LatencyModel;
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A calibrated model over `cluster`: per pair, a latency that grows with
/// message size by a pair-specific amount.
fn calibrated(cluster: &Cluster, rng: &mut StdRng) -> LatencyModel {
    let probes = vec![512u64, 4096, 32768];
    let table = (0..LatencyModel::pairs(cluster.len()))
        .flat_map(|_| {
            let mut v = rng.random_range(1e-5..1e-4);
            let steps: Vec<f64> = probes
                .iter()
                .map(|_| rng.random_range(1e-6..1e-4))
                .collect();
            steps.into_iter().map(move |d| {
                v += d;
                v
            })
        })
        .collect();
    LatencyModel::from_table(cluster.len(), probes, table)
}

/// `n` ranks with random work and message groups (none when `silent`).
fn profile(n: usize, silent: bool, rng: &mut StdRng) -> AppProfile {
    let groups = |rng: &mut StdRng| -> Vec<MessageGroup> {
        let k = if silent {
            0
        } else {
            rng.random_range(0usize..4)
        };
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
            x: rng.random_range(0.0..20.0),
            o: rng.random_range(0.0..1.0),
            b: 0.1,
            sends: groups(rng),
            recvs: groups(rng),
            profile_speed: rng.random_range(0.5..1.5),
            lambda: rng.random_range(0.1..1.5),
        })
        .collect();
    AppProfile {
        name: "app".into(),
        procs,
        arch_ratios: BTreeMap::new(),
    }
}

/// A random load over every node of `cluster`.
fn load(cluster: &Cluster, rng: &mut StdRng) -> LoadState {
    let mut load = LoadState::idle(cluster.len());
    for node in cluster.node_ids() {
        load.set_cpu_avail(node, rng.random_range(0.05..1.0));
        load.set_nic_load(node, rng.random_range(0.0..0.9));
    }
    load
}

/// A mapping of `n` ranks that co-locates ranks only up to each node's
/// CPUs, so the service accepts it.
fn mapping(cluster: &Cluster, n: usize, rng: &mut StdRng) -> Mapping {
    let mut free: Vec<u32> = cluster.nodes().iter().map(|node| node.cpus).collect();
    let nodes = (0..n)
        .map(|_| loop {
            let at = rng.random_range(0..free.len());
            if free[at] > 0 {
                free[at] -= 1;
                break NodeId(at as u32);
            }
        })
        .collect();
    Mapping::new(nodes)
}

/// A prediction as raw bits, so equality means every bit and not `==` on
/// floats.
fn bits(p: &Prediction) -> (u64, usize, Vec<(u64, u64)>) {
    let per_proc = p.per_proc.iter().map(|c| (c.r.to_bits(), c.c.to_bits()));
    (p.time.to_bits(), p.bottleneck, per_proc.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `C_i ≥ 0`, so dropping it (NCS) never raises a rank's cost nor the
    /// maximum over ranks; with every `C_i` zero (no message groups) the
    /// two folds are the same sum, bit for bit.
    #[test]
    fn ncs_bounds_cs_and_meets_it_without_communication(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = two_switch_demo();
        let model = calibrated(&cluster, &mut rng);
        let n = rng.random_range(1usize..10);
        let (talks, silent) = (profile(n, false, &mut rng), profile(n, true, &mut rng));
        let load = load(&cluster, &mut rng);
        let mut ports = SystemSnapshot::no_load(&cluster, &cluster);
        let mut calibrated = SystemSnapshot::no_load(&cluster, &model);
        for snap in [&mut ports, &mut calibrated] {
            snap.set_load(load.clone());
        }
        // With replacement: ranks may oversubscribe a node.
        let mappings: Vec<Mapping> = (0..8)
            .map(|_| Mapping::new((0..n).map(|_| NodeId(rng.random_range(0u32..8))).collect()))
            .collect();
        for snap in [&ports, &calibrated] {
            let (cs, ncs) = (Evaluator::new(&talks, snap), Evaluator::new(&silent, snap));
            for m in &mappings {
                let (time, score) = (cs.predict_time(m), cs.compute_only_score(m));
                prop_assert!(score <= time, "NCS {score} > CS {time} for {m:?}");
                prop_assert_eq!(ncs.compute_only_score(m).to_bits(), ncs.predict_time(m).to_bits());
            }
        }
    }

    /// The service evaluates every candidate of a request against one
    /// snapshot and one rank census, so a candidate's prediction cannot
    /// depend on its neighbours or its place in the list.
    #[test]
    fn a_permuted_batch_returns_the_permuted_predictions(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = Arc::new(two_switch_demo());
        let model = Arc::new(calibrated(&cluster, &mut rng));
        let n = rng.random_range(1usize..10);
        let app = profile(n, false, &mut rng);
        let load = load(&cluster, &mut rng);
        let mut candidates: Vec<Mapping> =
            (0..rng.random_range(1usize..12)).map(|_| mapping(&cluster, n, &mut rng)).collect();
        candidates.extend_from_within(..1);
        let mut order: Vec<usize> = (0..candidates.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..i + 1));
        }
        let permuted: Vec<Mapping> = order.iter().map(|&i| candidates[i].clone()).collect();
        for provider in [Provider::from(cluster.clone()), Provider::from(model.clone())] {
            let service = CbesService::new(cluster.clone(), provider, ForecastKind::LastValue);
            service.registry().insert(app.clone()).expect("a generated profile compiles");
            service.observe_load(&load).expect("a sweep covers every node");
            let want = service.compare("app", &candidates).expect("every candidate fits");
            let got = service.compare("app", &permuted).expect("the same candidates fit");
            for (k, &i) in order.iter().enumerate() {
                prop_assert_eq!(bits(&got[k]), bits(&want[i]), "candidate {} at {}", i, k);
            }
        }
    }

    /// Eq. 5 divides a rank's work by its node's `ACPU`, and eq. 6's load
    /// factor grows with `1 − ACPU`: lowering one node's `cpu_avail`
    /// raises the `R_i` of every working rank placed there, lowers no
    /// `R_i` or `C_i` anywhere, and so never lowers `S_M`.
    #[test]
    fn less_cpu_on_a_node_never_lowers_a_cost(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = two_switch_demo();
        let model = calibrated(&cluster, &mut rng);
        let n = rng.random_range(1usize..10);
        let app = profile(n, false, &mut rng);
        let m = mapping(&cluster, n, &mut rng);
        let before = load(&cluster, &mut rng);
        let node = NodeId(rng.random_range(0u32..8));
        let mut after = before.clone();
        after.set_cpu_avail(node, before.cpu_avail(node) * rng.random_range(0.1..0.99));
        for calibrated_arm in [false, true] {
            let [was, is] = [&before, &after].map(|load| {
                let mut snap = match calibrated_arm {
                    false => SystemSnapshot::no_load(&cluster, &cluster),
                    true => SystemSnapshot::no_load(&cluster, &model),
                };
                snap.set_load(load.clone());
                Evaluator::new(&app, &snap).predict(&m)
            });
            prop_assert!(is.time >= was.time, "S_M {} -> {}", was.time, is.time);
            for (rank, (a, b)) in was.per_proc.iter().zip(&is.per_proc).enumerate() {
                prop_assert!(b.r >= a.r && b.c >= a.c, "rank {}: {:?} -> {:?}", rank, a, b);
                let works = app.procs[rank].x > 0.0;
                if works && m.node(rank) == node {
                    prop_assert!(b.r > a.r, "rank {} on {:?}: R_i {} -> {}", rank, node, a.r, b.r);
                }
            }
        }
    }

    /// Eq. 6's load factor grows with each endpoint's NIC load: raising
    /// one node's `nic_load` lowers no `C_i` and leaves every `R_i` as
    /// it was, bit for bit.
    #[test]
    fn a_busier_nic_never_lowers_a_communication_cost(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = two_switch_demo();
        let model = calibrated(&cluster, &mut rng);
        let n = rng.random_range(1usize..10);
        let app = profile(n, false, &mut rng);
        let m = mapping(&cluster, n, &mut rng);
        let before = load(&cluster, &mut rng);
        let node = NodeId(rng.random_range(0u32..8));
        let mut after = before.clone();
        let nic = before.nic_load(node);
        after.set_nic_load(node, nic + (1.0 - nic) * rng.random_range(0.01..1.0));
        for calibrated_arm in [false, true] {
            let [was, is] = [&before, &after].map(|load| {
                let mut snap = match calibrated_arm {
                    false => SystemSnapshot::no_load(&cluster, &cluster),
                    true => SystemSnapshot::no_load(&cluster, &model),
                };
                snap.set_load(load.clone());
                Evaluator::new(&app, &snap).predict(&m)
            });
            for (rank, (a, b)) in was.per_proc.iter().zip(&is.per_proc).enumerate() {
                prop_assert!(b.c >= a.c, "rank {}: C_i {} -> {}", rank, a.c, b.c);
                prop_assert_eq!(b.r.to_bits(), a.r.to_bits(), "rank {}", rank);
            }
        }
    }

    /// Eq. 5 divides by a `Suspect` node's `ACPU` over a penalty of at
    /// least one, and a `Down` node has none: marking nodes `Suspect`
    /// lowers no `R_i` and not `S_M` and leaves every `C_i` bit for bit;
    /// a mapping onto a `Down` node costs `+∞`, and one that avoids it is
    /// the all-healthy prediction, bit for bit.
    #[test]
    fn health_only_hurts(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cluster = two_switch_demo();
        let model = calibrated(&cluster, &mut rng);
        let n = rng.random_range(1usize..10);
        let app = profile(n, false, &mut rng);
        let load = load(&cluster, &mut rng);
        let (onto, clear) = (mapping(&cluster, n, &mut rng), mapping(&cluster, n, &mut rng));
        let suspect: Vec<NodeHealth> = (0..cluster.len())
            .map(|_| match rng.random_range(0..3) {
                0 => NodeHealth::Suspect,
                _ => NodeHealth::Healthy,
            })
            .collect();
        let penalty = rng.random_range(1.0..4.0);
        // `Down` where `onto` puts a rank; `clear` avoids it, if it can.
        let down = onto.node(rng.random_range(0..n));
        let mut downed = vec![NodeHealth::Healthy; cluster.len()];
        downed[down.index()] = NodeHealth::Down;
        let avoids = !clear.as_slice().contains(&down);
        for calibrated_arm in [false, true] {
            let views = [
                HealthView::all_healthy(cluster.len()),
                HealthView::new(suspect.clone(), penalty),
                HealthView::new(downed.clone(), penalty),
            ];
            let [healthy, marked, with_down] = views.map(|health| {
                let mut snap = match calibrated_arm {
                    false => SystemSnapshot::no_load(&cluster, &cluster),
                    true => SystemSnapshot::no_load(&cluster, &model),
                };
                snap.set_load(load.clone());
                snap.set_health(health);
                let evaluator = Evaluator::new(&app, &snap);
                [&onto, &clear].map(|m| evaluator.predict(m))
            });
            let (was, is) = (&healthy[0], &marked[0]);
            prop_assert!(is.time >= was.time, "S_M {} -> {}", was.time, is.time);
            for (rank, (a, b)) in was.per_proc.iter().zip(&is.per_proc).enumerate() {
                prop_assert!(b.r >= a.r, "rank {}: R_i {} -> {}", rank, a.r, b.r);
                prop_assert_eq!(b.c.to_bits(), a.c.to_bits(), "rank {}", rank);
            }
            prop_assert_eq!(with_down[0].time, f64::INFINITY, "onto {:?}", down);
            if avoids {
                prop_assert_eq!(bits(&with_down[1]), bits(&healthy[1]), "clear of {:?}", down);
            }
        }
    }
}
