//! Property-based tests of the core invariants, spanning crates.

use cbes::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn demo_profile(n: usize, compute: f64, msgs: u64, bytes: u64) -> AppProfile {
    let procs = (0..n)
        .map(|rank| ProcessProfile {
            rank,
            x: compute,
            o: 0.01,
            b: 0.1,
            sends: vec![cbes::trace::MessageGroup {
                peer: (rank + 1) % n,
                bytes,
                count: msgs,
            }],
            recvs: vec![cbes::trace::MessageGroup {
                peer: (rank + n - 1) % n,
                bytes,
                count: msgs,
            }],
            profile_speed: 1.0,
            lambda: 1.0,
        })
        .collect();
    AppProfile {
        name: "prop".into(),
        procs,
        arch_ratios: BTreeMap::new(),
    }
}

/// Eq. 6's `L_c` as the paper writes it: the provider's no-load latency
/// times the load adjuster's factor, read straight off a `LoadState`.
struct Paper<'a> {
    no_load: cbes::core::snapshot::NoLoad<'a>,
    load: &'a LoadState,
}

impl LatencyProvider for Paper<'_> {
    fn latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        let no_load = match self.no_load {
            // The model's values at its own probes are its table entries.
            cbes::core::snapshot::NoLoad::Model(m) if a != b => {
                let sizes = m.probe_sizes();
                let values: Vec<f64> = sizes.iter().map(|&s| m.no_load(a, b, s)).collect();
                interpolate(sizes, &values, bytes)
            }
            other => other.latency(a, b, bytes),
        };
        no_load * LoadAdjuster::default().factor(self.load, a, b)
    }
}

/// `LatencyModel`'s piecewise-linear interpolation as it was written
/// before a plan located each message size once: the reference the
/// located form is held to.
fn interpolate(sizes: &[u64], values: &[f64], x: u64) -> f64 {
    if sizes.len() == 1 || x <= sizes[0] {
        return values[0];
    }
    let xf = x as f64;
    let last = sizes.len() - 1;
    if x >= sizes[last] {
        let s0 = sizes[last - 1] as f64;
        let s1 = sizes[last] as f64;
        let slope = (values[last] - values[last - 1]) / (s1 - s0);
        return values[last] + slope * (xf - s1);
    }
    let k = sizes.partition_point(|&s| s <= x) - 1;
    let s0 = sizes[k] as f64;
    let s1 = sizes[k + 1] as f64;
    let t = (xf - s0) / (s1 - s0);
    values[k] + t * (values[k + 1] - values[k])
}

/// Eq. 4–8 as the paper writes them, one rank at a time, sharing nothing
/// with `Evaluator`'s compiled plan and node table: eq. 6 is `theta` over
/// `latency`. The reference its predictions are held to. `comm: false`
/// is the NCS score, eq. 4 without `C_i`.
fn oracle(
    profile: &AppProfile,
    snap: &SystemSnapshot,
    latency: &impl LatencyProvider,
    m: &Mapping,
    comm: bool,
) -> Prediction {
    use cbes::core::eval::ProcCost;
    let per_proc: Vec<ProcCost> = profile
        .procs
        .iter()
        .map(|p| {
            let node = m.node(p.rank);
            let ranks_here = m.iter().filter(|&(_, n)| n == node).count() as f64;
            let share = (snap.cluster.node(node).cpus as f64 / ranks_here).min(1.0);
            let acpu = snap.effective_acpu(node);
            let r = if acpu <= 0.0 {
                f64::INFINITY
            } else {
                (p.x + p.o) * (p.profile_speed / (snap.speed(node) * share)) / acpu
            };
            let theta =
                cbes::trace::analyze::theta(p.rank, &p.sends, &p.recvs, m.as_slice(), latency);
            let c = if comm { p.lambda * theta } else { 0.0 };
            ProcCost { r, c }
        })
        .collect();
    let mut bottleneck = 0;
    for (rank, cost) in per_proc.iter().enumerate() {
        if cost.total() > per_proc[bottleneck].total() {
            bottleneck = rank;
        }
    }
    Prediction {
        time: per_proc[bottleneck].total().max(0.0),
        bottleneck,
        per_proc,
    }
}

/// `CbesService`'s request validation as it was before it stopped walking
/// the cluster: a fresh count over every node per candidate. The reference
/// the census-by-un-counting version is held to.
fn validate_by_full_scan(
    cluster: &Cluster,
    profile_procs: usize,
    mappings: &[Mapping],
    health: &cbes::core::health::HealthView,
) -> Result<(), cbes::core::ServiceError> {
    use cbes::core::ServiceError;
    if mappings.is_empty() {
        return Err(ServiceError::EmptyRequest);
    }
    for m in mappings {
        if m.len() != profile_procs {
            return Err(ServiceError::ArityMismatch {
                expected: profile_procs,
                got: m.len(),
            });
        }
        for (_, node) in m.iter() {
            if node.index() >= cluster.len() {
                return Err(ServiceError::BadNode(node.0));
            }
            if !health.is_usable(node) {
                return Err(ServiceError::NodeDown(node.0));
            }
        }
        for node in cluster.node_ids() {
            let ranks = m.iter().filter(|&(_, on)| on == node).count();
            let cpus = cluster.node(node).cpus;
            if ranks > cpus as usize {
                return Err(ServiceError::Oversubscribed {
                    node: node.0,
                    ranks,
                    cpus,
                });
            }
        }
    }
    Ok(())
}

/// A prediction as raw bits, so equality means every bit and not `==` on
/// floats.
fn bits(p: &Prediction) -> (u64, usize, Vec<(u64, u64)>) {
    let per_proc = p.per_proc.iter().map(|c| (c.r.to_bits(), c.c.to_bits()));
    (p.time.to_bits(), p.bottleneck, per_proc.collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every way of asking `Evaluator` — one mapping, a batch, time only,
    /// compute only — answers with exactly the oracle's bits, over random
    /// profiles (ranks with `λ_i = 0`, ranks with no message groups),
    /// random loads, `Suspect` and `Down` nodes, and mappings drawn with
    /// replacement so nodes get shared — on both providers (the port
    /// table, and a calibrated model with message sizes below its first
    /// probe, on probes, between them and beyond the last), against a
    /// snapshot that owns its state and against the one a service
    /// publishes (`current_load` + `snapshot_of`, which borrows the
    /// epoch) after sweeps that leave the same nodes loaded, `Suspect`
    /// and `Down`. A batch with repeated candidates equals a fresh
    /// `Evaluator` per candidate: the rank census it reuses is back at
    /// zero between them. The served path itself — the registry's cached
    /// plan — gives the same bits for every candidate it accepts (nodes
    /// co-located up to their CPUs), before and after a model swap and
    /// back, and after a re-registration under the same name.
    #[test]
    fn evaluator_matches_the_equations_bit_for_bit(seed in 0u64..1_000_000) {
        use cbes::core::health::{HealthPolicy, HealthView, NodeHealth};
        use cbes::core::monitor::ForecastKind;
        use cbes::core::snapshot::NoLoad;
        use cbes::trace::MessageGroup;
        use rand::{RngExt, SeedableRng};
        use std::sync::Arc;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cluster = Arc::new(cbes::cluster::presets::two_switch_demo());
        let n = rng.random_range(2usize..10);

        // Two calibrated models: per pair, a latency that grows with size
        // by a pair-specific amount, over different probe sizes.
        let pairs = LatencyModel::pairs(cluster.len());
        let mut calibrated = |probes: &[u64]| {
            let table = (0..pairs)
                .flat_map(|_| {
                    let mut v = rng.random_range(1e-5..1e-4);
                    let steps: Vec<f64> = probes.iter().map(|_| rng.random_range(1e-6..1e-4)).collect();
                    steps.into_iter().map(move |d| { v += d; v })
                })
                .collect();
            Arc::new(LatencyModel::from_table(cluster.len(), probes.to_vec(), table))
        };
        let probes = [512u64, 4096, 32768];
        let (model, other) = (calibrated(&probes), calibrated(&[1024, 65536]));

        let groups = |rng: &mut rand::rngs::StdRng| -> Vec<MessageGroup> {
            (0..rng.random_range(0usize..4))
                .map(|_| MessageGroup {
                    peer: rng.random_range(0..n),
                    bytes: if rng.random_range(0..4) == 0 {
                        probes[rng.random_range(0..probes.len())]
                    } else {
                        rng.random_range(1u64..100_000)
                    },
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
                sends: groups(&mut rng),
                recvs: groups(&mut rng),
                profile_speed: rng.random_range(0.5..1.5),
                lambda: if rng.random_range(0..4) == 0 { 0.0 } else { rng.random_range(0.1..1.5) },
            })
            .collect();
        let profile = AppProfile { name: "oracle".into(), procs, arch_ratios: BTreeMap::new() };

        let mut load = LoadState::idle(cluster.len());
        let mut states = vec![NodeHealth::Healthy; cluster.len()];
        for (i, state) in states.iter_mut().enumerate() {
            load.set_cpu_avail(NodeId(i as u32), rng.random_range(0.05..1.0));
            load.set_nic_load(NodeId(i as u32), rng.random_range(0.0..0.9));
            *state = match rng.random_range(0..10) {
                0 => NodeHealth::Down,
                1 | 2 => NodeHealth::Suspect,
                _ => NodeHealth::Healthy,
            };
        }
        let suspect_cost_factor = rng.random_range(1.5..4.0);
        let mut owned_ports = SystemSnapshot::no_load(&cluster, &*cluster);
        let mut owned_model = SystemSnapshot::no_load(&cluster, &*model);
        for snap in [&mut owned_ports, &mut owned_model] {
            snap.set_load(load.clone());
            snap.set_health(HealthView::new(states.clone(), suspect_cost_factor));
        }

        // The same picture as a service comes to hold it: a node silent
        // for one sweep is `Suspect`, for two `Down`.
        let service = CbesService::self_calibrated(cluster.clone(), ForecastKind::LastValue)
            .with_health_policy(HealthPolicy { suspect_after: 0, down_after: 1, suspect_cost_factor });
        for silent in [&[NodeHealth::Down][..], &[NodeHealth::Down, NodeHealth::Suspect]] {
            let reported: Vec<bool> = states.iter().map(|s| !silent.contains(s)).collect();
            service.observe_load_partial(&load, &reported).expect("sweep covers every node");
        }
        let epoch = service.current_load();
        let served = service.snapshot_of(&epoch);
        prop_assert_eq!(served.health_view(), owned_ports.health_view());

        let mut mappings: Vec<Mapping> = (0..6)
            .map(|_| Mapping::new((0..n).map(|_| NodeId(rng.random_range(0u32..8))).collect()))
            .collect();
        mappings.extend_from_within(..2);
        for (snap, latency) in [
            (&owned_ports, Paper { no_load: NoLoad::Ports(&cluster), load: &load }),
            (&owned_model, Paper { no_load: NoLoad::Model(&model), load: &load }),
            (&served, Paper { no_load: NoLoad::Ports(&cluster), load: &epoch.load }),
        ] {
            let ev = Evaluator::new(&profile, snap);
            let batch = ev.predict_batch(&mappings);
            for (m, batched) in mappings.iter().zip(&batch) {
                let want = oracle(&profile, snap, &latency, m, true);
                prop_assert_eq!(bits(&ev.predict(m)), bits(&want));
                prop_assert_eq!(bits(batched), bits(&want));
                prop_assert_eq!(bits(batched), bits(&Evaluator::new(&profile, snap).predict(m)));
                prop_assert_eq!(ev.predict_time(m).to_bits(), want.time.to_bits());
                let ncs = oracle(&profile, snap, &latency, m, false);
                prop_assert_eq!(ev.compute_only_score(m).to_bits(), ncs.time.to_bits());
            }
        }

        // The served path, through the registry's cached plan: on the
        // boot port table, on a swapped-in model, on one with other probe
        // sizes (whose segments the cache must not serve from the first),
        // back on the first, back on the boot table, and after the same
        // name is registered again with other work. Only candidates the
        // service accepts are compared.
        service.registry().insert(profile.clone()).expect("a generated profile compiles");
        let mut heavier = profile.clone();
        for p in &mut heavier.procs {
            p.x *= 1.5;
        }
        for step in 0..6 {
            match step {
                1 | 3 => { service.activate_provider(model.clone()); }
                2 => { service.activate_provider(other.clone()); }
                4 => { service.activate_boot_provider(); }
                5 => service.registry().insert(heavier.clone()).expect("a scaled profile compiles"),
                _ => {}
            }
            let registered = if step == 5 { &heavier } else { &profile };
            let no_load = match step {
                1 | 3 => NoLoad::Model(&model),
                2 => NoLoad::Model(&other),
                _ => NoLoad::Ports(&cluster),
            };
            let epoch = service.current_load();
            let snap = service.snapshot_of(&epoch);
            let latency = Paper { no_load, load: &epoch.load };
            for m in &mappings {
                if let Ok(got) = service.compare("oracle", std::slice::from_ref(m)) {
                    prop_assert_eq!(bits(&got[0]), bits(&oracle(registered, &snap, &latency, m, true)));
                }
            }
        }
    }

    /// A request is accepted or refused exactly as the full scan decided —
    /// same typed error, same lowest-index oversubscribed node, `ranks` and
    /// `cpus` — for wrong arity, off-cluster nodes, `Down` nodes and
    /// several nodes oversubscribed at once, wherever in the request the
    /// bad candidate sits (the census one request shares must be clean
    /// between candidates); and an accepted request is answered with the
    /// bits a fresh `Evaluator` gives each candidate.
    #[test]
    fn validate_answers_as_the_full_scan_did(seed in 0u64..1_000_000) {
        use cbes::core::health::HealthPolicy;
        use cbes::core::monitor::ForecastKind;
        use rand::{RngExt, SeedableRng};
        use std::sync::Arc;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let cluster = Arc::new(cbes::cluster::presets::two_switch_demo());
        let n = cluster.len();
        let service = CbesService::self_calibrated(cluster.clone(), ForecastKind::LastValue)
            .with_health_policy(HealthPolicy { suspect_after: 0, down_after: 0, suspect_cost_factor: 2.0 });
        // One sweep with about one node in eight silent: those are `Down`.
        let reported: Vec<bool> = (0..n).map(|_| rng.random_range(0..8) != 0).collect();
        service.observe_load_partial(&LoadState::idle(n), &reported).expect("sweep covers every node");
        let epoch = service.current_load();
        let usable: Vec<NodeId> = cluster.node_ids().filter(|&node| epoch.health.is_usable(node)).collect();
        prop_assume!(!usable.is_empty());

        let procs = rng.random_range(1..usable.len().min(6) + 1);
        let profile = demo_profile(procs, 1.0, 5, 2048);
        service.registry().insert(profile.clone()).expect("the ring profile compiles");
        // Good candidates (distinct usable nodes), then one drawn with
        // replacement from a range two past the cluster's end at an arity
        // that is sometimes off by one, then perhaps another good one.
        let good = |rng: &mut rand::rngs::StdRng| {
            let start = rng.random_range(0..usable.len());
            Mapping::new((0..procs).map(|i| usable[(start + i) % usable.len()]).collect())
        };
        let mut mappings: Vec<Mapping> = (0..rng.random_range(0..4)).map(|_| good(&mut rng)).collect();
        let arity = if rng.random_range(0..8) == 0 { procs + 1 } else { procs };
        mappings.push(Mapping::new((0..arity).map(|_| NodeId(rng.random_range(0..n as u32 + 2))).collect()));
        mappings.extend((0..rng.random_range(0..2)).map(|_| good(&mut rng)));

        let want = validate_by_full_scan(&cluster, procs, &mappings, &epoch.health);
        match service.compare("prop", &mappings) {
            Err(refusal) => prop_assert_eq!(Err(refusal), want),
            Ok(predictions) => {
                prop_assert_eq!(Ok(()), want);
                let snap = service.snapshot_of(&epoch);
                for (m, got) in mappings.iter().zip(&predictions) {
                    prop_assert_eq!(bits(got), bits(&Evaluator::new(&profile, &snap).predict(m)));
                }
            }
        }
    }

    /// Lowering any node's CPU availability never lowers a predicted time.
    #[test]
    fn prediction_is_monotone_in_load(
        victim in 0u32..8,
        avail in 0.05f64..1.0,
        compute in 0.1f64..20.0,
        msgs in 1u64..200,
    ) {
        let cluster = cbes::cluster::presets::two_switch_demo();
        let profile = demo_profile(4, compute, msgs, 2048);
        let mapping = Mapping::new(vec![NodeId(0), NodeId(1), NodeId(4), NodeId(5)]);

        let idle_snap = SystemSnapshot::no_load(&cluster, &cluster);
        let idle_time = Evaluator::new(&profile, &idle_snap).predict_time(&mapping);

        let mut load = LoadState::idle(cluster.len());
        load.set_cpu_avail(NodeId(victim), avail);
        let mut loaded_snap = SystemSnapshot::no_load(&cluster, &cluster);
        loaded_snap.set_load(load);
        let loaded_time = Evaluator::new(&profile, &loaded_snap).predict_time(&mapping);

        prop_assert!(loaded_time >= idle_time - 1e-12,
            "load must not speed things up: {idle_time} -> {loaded_time}");
    }

    /// Swapping a mapped node for a strictly slower one never lowers the
    /// predicted time.
    #[test]
    fn prediction_is_monotone_in_speed(
        rank in 0usize..4,
        compute in 0.1f64..20.0,
    ) {
        let cluster = cbes::cluster::presets::two_switch_demo();
        let profile = demo_profile(4, compute, 10, 2048);
        // All-Alpha mapping (speed 1.0) vs one Intel substitution (0.85)
        // on the same switch structure is impossible in the demo preset,
        // so compare all-on-switch-0 vs one rank moved to switch 1: use
        // zero communication to isolate the speed effect.
        let mut no_comm = profile.clone();
        for p in &mut no_comm.procs {
            p.sends.clear();
            p.recvs.clear();
            p.lambda = 0.0;
        }
        let fast = Mapping::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
        let mut slowed = fast.clone();
        slowed.set(rank, NodeId(4)); // Intel, speed 0.85
        let snap = SystemSnapshot::no_load(&cluster, &cluster);
        let ev = Evaluator::new(&no_comm, &snap);
        prop_assert!(ev.predict_time(&slowed) >= ev.predict_time(&fast));
    }

    /// The evaluator is a pure function: identical inputs, identical output.
    #[test]
    fn prediction_is_deterministic(seed in 0u64..1000) {
        let cluster = cbes::cluster::presets::two_switch_demo();
        let profile = demo_profile(4, 1.0, 20, 1024 + seed % 4096);
        let mapping = Mapping::new(vec![NodeId(0), NodeId(4), NodeId(2), NodeId(6)]);
        let snap = SystemSnapshot::no_load(&cluster, &cluster);
        let ev = Evaluator::new(&profile, &snap);
        prop_assert_eq!(ev.predict_time(&mapping), ev.predict_time(&mapping));
    }

    /// The calibrated model stays within a tight band of topological truth
    /// for arbitrary pairs and sizes.
    #[test]
    fn calibrated_model_tracks_truth(
        a in 0u32..28,
        b in 0u32..28,
        bytes in 1u64..500_000,
    ) {
        prop_assume!(a != b);
        let cluster = cbes::cluster::presets::orange_grove();
        let model = Calibrator::default().calibrate(&cluster).model;
        let truth = cluster.no_load_latency(NodeId(a), NodeId(b), bytes);
        let est = model.no_load(NodeId(a), NodeId(b), bytes);
        let rel = (est - truth).abs() / truth;
        prop_assert!(rel < 0.06, "pair {a}->{b} @{bytes}B: rel err {rel}");
    }

    /// Latency is symmetric and monotone in message size, in both the
    /// topology and the calibrated model.
    #[test]
    fn latency_symmetry_and_monotonicity(
        a in 0u32..28,
        b in 0u32..28,
        s1 in 1u64..100_000,
        extra in 1u64..100_000,
    ) {
        prop_assume!(a != b);
        let cluster = cbes::cluster::presets::orange_grove();
        let l_ab = cluster.no_load_latency(NodeId(a), NodeId(b), s1);
        let l_ba = cluster.no_load_latency(NodeId(b), NodeId(a), s1);
        prop_assert!((l_ab - l_ba).abs() < 1e-12);
        let l_big = cluster.no_load_latency(NodeId(a), NodeId(b), s1 + extra);
        prop_assert!(l_big > l_ab);
    }
}

proptest! {
    // Simulation-backed properties are more expensive: fewer cases.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Simulator accounting conservation: X + O + B equals each rank's
    /// completion time (up to fp error), for random ring programs.
    #[test]
    fn sim_accounting_is_conservative(
        iters in 1u32..8,
        bytes in 64u64..32_768,
        comp in 0.0005f64..0.01,
        seed in 0u64..500,
    ) {
        let cluster = cbes::cluster::presets::two_switch_demo();
        let spec = cbes::workloads::SyntheticSpec {
            procs: 4,
            iters,
            comp_per_iter: comp,
            msgs_per_iter: 2,
            msg_bytes: bytes,
            overlap: 0.0,
            pattern: cbes::workloads::SynthPattern::Ring,
        };
        let w = spec.build();
        let mapping: Vec<NodeId> = (0..4).map(NodeId).collect();
        let r = simulate(
            &cluster,
            &w.program,
            &mapping,
            &LoadState::idle(cluster.len()),
            &SimConfig::default().with_seed(seed),
        ).unwrap();
        for s in &r.stats {
            let total = s.x + s.o + s.b;
            prop_assert!((total - s.end).abs() < 1e-9 * (1.0 + s.end),
                "X+O+B = {total} but end = {}", s.end);
        }
        prop_assert!((r.wall_time - r.stats.iter().map(|s| s.end).fold(0.0, f64::max)).abs() < 1e-12);
    }

    /// The same seed gives bitwise identical results; different seeds give
    /// different (noisy) results.
    #[test]
    fn sim_is_reproducible(seed in 0u64..1000) {
        let cluster = cbes::cluster::presets::two_switch_demo();
        let w = npb::cg(4, NpbClass::S);
        let mapping: Vec<NodeId> = (0..4).map(NodeId).collect();
        let cfg = SimConfig::default().with_seed(seed);
        let load = LoadState::idle(cluster.len());
        let r1 = simulate(&cluster, &w.program, &mapping, &load, &cfg).unwrap();
        let r2 = simulate(&cluster, &w.program, &mapping, &load, &cfg).unwrap();
        prop_assert_eq!(r1.wall_time, r2.wall_time);
        let r3 = simulate(&cluster, &w.program, &mapping, &load,
                          &SimConfig::default().with_seed(seed + 1)).unwrap();
        prop_assert!(r1.wall_time != r3.wall_time);
    }

    /// Schedulers always return injective mappings inside the pool, for
    /// arbitrary pool subsets.
    #[test]
    fn schedulers_respect_the_pool(
        pool_seed in 0u64..100,
        pool_size in 8usize..20,
        sched_seed in 0u64..100,
    ) {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let cluster = cbes::cluster::presets::orange_grove();
        let mut rng = rand::rngs::StdRng::seed_from_u64(pool_seed);
        let mut all: Vec<NodeId> = cluster.node_ids().collect();
        all.shuffle(&mut rng);
        let pool = &all[..pool_size];

        let profile = demo_profile(8, 1.0, 20, 2048);
        let snap = SystemSnapshot::no_load(&cluster, &cluster);
        let req = ScheduleRequest::new(&profile, &snap, pool);
        let fast = SaConfig { iters: 200, ..SaConfig::fast(sched_seed) };
        for result in [
            SaScheduler::new(fast).schedule(&req).unwrap(),
            NcsScheduler::new(fast).schedule(&req).unwrap(),
            RandomScheduler::new(sched_seed).schedule(&req).unwrap(),
            GreedyScheduler::new().schedule(&req).unwrap(),
        ] {
            prop_assert!(result.mapping.is_injective());
            for (_, node) in result.mapping.iter() {
                prop_assert!(pool.contains(&node), "node {node} outside pool");
            }
        }
    }
}
