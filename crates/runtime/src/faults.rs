//! Deterministic fault injection for the orchestrator.
//!
//! The paper's premise is that "system conditions ... change" under the
//! service's feet (§2); this module makes those changes *adversarial* and
//! *reproducible*. A [`FaultSchedule`] is a plain list of timed events —
//! node crashes, monitor dropouts, load bursts, latency spikes — built
//! either explicitly or from a seed, and
//! [`crate::Orchestrator::run_with_faults`] samples the [`Disturbance`]
//! it produces at each simulated instant.
//!
//! Everything is seeded and time-indexed: the same schedule produces the
//! same run, which is what makes chaos results debuggable and CI-stable.

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The state of all injected faults at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct Disturbance {
    /// Whether each node's monitoring daemon delivers a measurement this
    /// sweep (`false` = monitor dropout).
    pub reporting: Vec<bool>,
    /// Whether each node has actually crashed. Crashed nodes never report
    /// and their ground-truth CPU availability collapses.
    pub crashed: Vec<bool>,
    /// Multiplier on each node's ground-truth CPU availability (load
    /// burst: < 1).
    pub cpu_scale: Vec<f64>,
    /// Additional NIC load applied to every node (latency spike: the load
    /// adjuster and the simulator both inflate message latency with NIC
    /// load).
    pub extra_nic_load: f64,
}

impl Disturbance {
    /// No faults active on an `n`-node cluster.
    pub fn none(n: usize) -> Self {
        Disturbance {
            reporting: vec![true; n],
            crashed: vec![false; n],
            cpu_scale: vec![1.0; n],
            extra_nic_load: 0.0,
        }
    }

    /// True when no fault is active.
    pub fn is_none(&self) -> bool {
        self.reporting.iter().all(|&r| r)
            && self.crashed.iter().all(|&c| !c)
            && self.cpu_scale.iter().all(|&s| s == 1.0)
            && self.extra_nic_load == 0.0
    }

    /// The per-node "delivered a measurement" mask: a node reports only if
    /// its monitor stream is up *and* the node itself is alive.
    pub fn reported_mask(&self) -> Vec<bool> {
        self.reporting
            .iter()
            .zip(&self.crashed)
            .map(|(&r, &c)| r && !c)
            .collect()
    }

    /// Apply the disturbance to a ground-truth load sample: crashed nodes
    /// collapse to minimum availability, load bursts scale availability,
    /// and latency spikes add NIC load everywhere.
    pub fn apply_to(&self, load: &mut LoadState) {
        let n = load.len().min(self.crashed.len());
        for i in 0..n {
            let id = NodeId(i as u32);
            if self.crashed[i] {
                load.set_cpu_avail(id, 0.0); // clamped to the floor
            } else if self.cpu_scale[i] != 1.0 {
                load.set_cpu_avail(id, load.cpu_avail(id) * self.cpu_scale[i]);
            }
            if self.extra_nic_load > 0.0 {
                load.set_nic_load(id, load.nic_load(id) + self.extra_nic_load);
            }
        }
    }
}

/// What kind of fault an event injects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The node dies: it stops reporting *and* its ground-truth CPU
    /// availability collapses to the floor.
    Crash,
    /// The node's monitoring daemon goes silent but the node itself keeps
    /// running — the classic partial-failure the health tracker must not
    /// confuse with a crash forever (it ages to `Suspect`, then `Down`).
    MonitorDropout,
    /// External load lands on the node: ground-truth CPU availability is
    /// multiplied by the factor (< 1).
    LoadBurst(f64),
    /// Cluster-wide latency spike, modelled as extra NIC load everywhere
    /// (both the load adjuster and the simulator inflate message latency
    /// with NIC load). The `node` field of the event is ignored.
    LatencySpike(f64),
}

/// One timed fault: `kind` on `node`, active on the half-open window
/// `[start, end)` in simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// The fault injected.
    pub kind: FaultKind,
    /// Target node index (ignored by [`FaultKind::LatencySpike`]).
    pub node: usize,
    /// Activation time, seconds.
    pub start: f64,
    /// Recovery time, seconds (`f64::INFINITY` = never recovers).
    pub end: f64,
}

impl FaultEvent {
    /// True when the event is active at time `t`.
    pub fn active_at(&self, t: f64) -> bool {
        t >= self.start && t < self.end
    }
}

/// A deterministic fault schedule over an `n`-node cluster.
///
/// Build one with the fluent constructors ([`FaultSchedule::crash`],
/// [`FaultSchedule::dropout`], ...), from a seed with
/// [`FaultSchedule::random`], or take the fixed
/// [`FaultSchedule::standard`] crash/recover scenario used by the chaos
/// smoke tests.
#[derive(Debug, Clone)]
pub struct FaultSchedule {
    n_nodes: usize,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule over `n_nodes`: nothing ever goes wrong.
    pub fn new(n_nodes: usize) -> Self {
        FaultSchedule {
            n_nodes,
            events: Vec::new(),
        }
    }

    fn push(mut self, kind: FaultKind, node: usize, start: f64, end: f64) -> Self {
        assert!(
            node < self.n_nodes,
            "fault targets node {node} outside the cluster"
        );
        assert!(start < end, "fault window [{start}, {end}) is empty");
        self.events.push(FaultEvent {
            kind,
            node,
            start,
            end,
        });
        self
    }

    /// Crash `node` on `[start, end)`.
    pub fn crash(self, node: usize, start: f64, end: f64) -> Self {
        self.push(FaultKind::Crash, node, start, end)
    }

    /// Silence `node`'s monitor on `[start, end)` (the node keeps running).
    pub fn dropout(self, node: usize, start: f64, end: f64) -> Self {
        self.push(FaultKind::MonitorDropout, node, start, end)
    }

    /// Scale `node`'s ground-truth CPU availability by `factor` on
    /// `[start, end)`.
    pub fn load_burst(self, node: usize, factor: f64, start: f64, end: f64) -> Self {
        assert!(factor > 0.0, "load-burst factor must be positive");
        self.push(FaultKind::LoadBurst(factor), node, start, end)
    }

    /// Add `extra` NIC load cluster-wide on `[start, end)`.
    pub fn latency_spike(self, extra: f64, start: f64, end: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&extra),
            "extra NIC load must be in [0, 1)"
        );
        self.push(FaultKind::LatencySpike(extra), 0, start, end)
    }

    /// The standard crash/recover scenario the chaos smoke tests run:
    /// `victim` crashes at t=0.5 and stays dead for the bulk of the run,
    /// its neighbour's monitor drops out for a window (and comes back),
    /// and a brief latency spike passes through early on.
    pub fn standard(n_nodes: usize, victim: usize) -> Self {
        let neighbour = (victim + 1) % n_nodes;
        FaultSchedule::new(n_nodes)
            .crash(victim, 0.5, 1e6)
            .dropout(neighbour, 1.0, 3.0)
            .latency_spike(0.15, 0.2, 0.6)
    }

    /// A seeded random schedule: `events` faults with kinds, targets, and
    /// windows drawn deterministically from `seed`, all inside
    /// `[0, horizon)`. Same inputs, same schedule — always.
    pub fn random(n_nodes: usize, seed: u64, horizon: f64, events: usize) -> Self {
        assert!(n_nodes > 0 && horizon > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule = FaultSchedule::new(n_nodes);
        for _ in 0..events {
            let node = rng.random_range(0..n_nodes);
            let start = rng.random_range(0.0..horizon * 0.8);
            let end = start + rng.random_range(horizon * 0.05..horizon * 0.5);
            schedule = match rng.random_range(0u32..4) {
                0 => schedule.crash(node, start, end),
                1 => schedule.dropout(node, start, end),
                2 => schedule.load_burst(node, rng.random_range(0.2..0.9), start, end),
                _ => schedule.latency_spike(rng.random_range(0.05..0.4), start, end),
            };
        }
        schedule
    }

    /// The injected events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Cluster size the schedule was built for.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Number of events active at time `t`.
    pub fn active_at(&self, t: f64) -> usize {
        self.events.iter().filter(|e| e.active_at(t)).count()
    }

    /// The disturbance active at time `t` on an `n`-node cluster: every
    /// active event folded into one [`Disturbance`].
    pub fn sample(&self, t: f64, n: usize) -> Disturbance {
        let mut d = Disturbance::none(n);
        for e in &self.events {
            if !e.active_at(t) {
                continue;
            }
            match e.kind {
                FaultKind::Crash => {
                    if e.node < n {
                        d.crashed[e.node] = true;
                    }
                }
                FaultKind::MonitorDropout => {
                    if e.node < n {
                        d.reporting[e.node] = false;
                    }
                }
                FaultKind::LoadBurst(factor) => {
                    if e.node < n {
                        d.cpu_scale[e.node] *= factor;
                    }
                }
                FaultKind::LatencySpike(extra) => {
                    d.extra_nic_load += extra;
                }
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inert() {
        let d = Disturbance::none(3);
        assert!(d.is_none());
        assert_eq!(d.reported_mask(), vec![true; 3]);
        let mut load = LoadState::idle(3);
        d.apply_to(&mut load);
        assert_eq!(load.cpu_avail(NodeId(0)), 1.0);
        assert_eq!(load.nic_load(NodeId(0)), 0.0);
    }

    #[test]
    fn crash_collapses_availability_and_silences_reports() {
        let mut d = Disturbance::none(2);
        d.crashed[1] = true;
        assert!(!d.is_none());
        assert_eq!(d.reported_mask(), vec![true, false]);
        let mut load = LoadState::idle(2);
        d.apply_to(&mut load);
        assert_eq!(load.cpu_avail(NodeId(0)), 1.0);
        // LoadState clamps availability to its positive floor.
        assert!(load.cpu_avail(NodeId(1)) <= 0.01);
    }

    #[test]
    fn bursts_and_spikes_adjust_load() {
        let mut d = Disturbance::none(2);
        d.cpu_scale[0] = 0.5;
        d.extra_nic_load = 0.3;
        let mut load = LoadState::idle(2);
        d.apply_to(&mut load);
        assert_eq!(load.cpu_avail(NodeId(0)), 0.5);
        assert_eq!(load.cpu_avail(NodeId(1)), 1.0);
        assert!((load.nic_load(NodeId(0)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn windows_are_half_open_and_sampled_exactly() {
        let s = FaultSchedule::new(4).crash(2, 1.0, 3.0);
        assert!(s.sample(0.99, 4).is_none());
        let d = s.sample(1.0, 4);
        assert!(d.crashed[2]);
        assert_eq!(d.reported_mask(), vec![true, true, false, true]);
        assert!(s.sample(3.0, 4).is_none(), "recovered at end");
    }

    #[test]
    fn kinds_compose_into_one_disturbance() {
        let s = FaultSchedule::new(3)
            .dropout(0, 0.0, 10.0)
            .load_burst(1, 0.5, 0.0, 10.0)
            .load_burst(1, 0.5, 0.0, 10.0)
            .latency_spike(0.1, 0.0, 10.0)
            .latency_spike(0.2, 5.0, 10.0);
        let d = s.sample(6.0, 3);
        assert_eq!(d.reported_mask(), vec![false, true, true]);
        assert!((d.cpu_scale[1] - 0.25).abs() < 1e-12, "bursts stack");
        assert!((d.extra_nic_load - 0.3).abs() < 1e-12, "spikes stack");
        let mut load = LoadState::idle(3);
        d.apply_to(&mut load);
        assert!((load.cpu_avail(NodeId(1)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn random_schedules_are_reproducible_and_distinct() {
        let a = FaultSchedule::random(8, 7, 10.0, 5);
        let b = FaultSchedule::random(8, 7, 10.0, 5);
        let c = FaultSchedule::random(8, 8, 10.0, 5);
        assert_eq!(a.events(), b.events());
        assert_ne!(a.events(), c.events());
        assert_eq!(a.events().len(), 5);
        for e in a.events() {
            assert!(e.node < 8 && e.start < e.end);
        }
    }

    #[test]
    fn standard_schedule_has_the_advertised_shape() {
        let s = FaultSchedule::standard(8, 3);
        assert_eq!(s.events().len(), 3);
        assert!(matches!(s.events()[0].kind, FaultKind::Crash));
        assert_eq!(s.events()[0].node, 3);
        assert!(matches!(s.events()[1].kind, FaultKind::MonitorDropout));
        assert_eq!(s.events()[1].node, 4);
        // Early on: crash not yet active, spike is.
        let d = s.sample(0.3, 8);
        assert!(!d.crashed[3] && d.extra_nic_load > 0.0);
        // Mid-run: crash and dropout active.
        let d = s.sample(2.0, 8);
        assert!(d.crashed[3]);
        assert_eq!(
            d.reported_mask().iter().filter(|&&r| !r).count(),
            2,
            "victim (crashed) and neighbour (dropout) both silent"
        );
    }

    mod properties {
        use super::*;
        use cbes_core::health::{HealthPolicy, HealthTracker, NodeHealth};
        use cbes_core::snapshot::SystemSnapshot;
        use cbes_sched::{
            GreedyScheduler, RandomScheduler, SaConfig, SaScheduler, ScheduleRequest, Scheduler,
        };
        use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
        use proptest::prelude::*;

        fn ring(n: usize) -> AppProfile {
            let procs = (0..n)
                .map(|rank| ProcessProfile {
                    rank,
                    x: 1.0,
                    o: 0.05,
                    b: 0.5,
                    sends: vec![MessageGroup {
                        peer: (rank + 1) % n,
                        bytes: 1024,
                        count: 10,
                    }],
                    recvs: vec![MessageGroup {
                        peer: (rank + n - 1) % n,
                        bytes: 1024,
                        count: 10,
                    }],
                    profile_speed: 1.0,
                    lambda: 1.0,
                })
                .collect();
            AppProfile {
                name: format!("ring.{n}"),
                procs,
                arch_ratios: Default::default(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Satellite requirement: under ANY seeded fault schedule, no
            /// scheduler ever assigns a process to a node the health
            /// tracker classifies `Down` at scheduling time.
            #[test]
            fn no_schedule_assigns_a_down_node(
                seed in 0u64..500,
                events in 1usize..7,
                sweeps in 3u64..12,
                at in 0.5f64..9.5,
            ) {
                let cluster = cbes_cluster::presets::two_switch_demo();
                let n = cluster.len();
                let faults = FaultSchedule::random(n, seed, 10.0, events);
                // Age the tracker with the report masks the schedule
                // produces around time `at` (one sweep per second).
                let policy = HealthPolicy { suspect_after: 1, down_after: 2, ..HealthPolicy::default() };
                let mut tracker = HealthTracker::new(n, policy);
                for s in 0..sweeps {
                    let t = (at - (sweeps - 1 - s) as f64).max(0.0);
                    tracker.record_sweep(&faults.sample(t, n).reported_mask());
                }
                let health = tracker.view();
                let down: Vec<_> = (0..n)
                    .filter(|&i| health.health(cbes_cluster::NodeId(i as u32)) == NodeHealth::Down)
                    .collect();
                let mut snap = SystemSnapshot::no_load(&cluster, &cluster);
                snap.set_health(health);

                let profile = ring(2);
                let pool: Vec<_> = cluster.node_ids().collect();
                let req = ScheduleRequest::new(&profile, &snap, &pool);
                prop_assume!(req.validate().is_ok());
                let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
                    Box::new(SaScheduler::new(SaConfig::fast(seed))),
                    Box::new(GreedyScheduler::new()),
                    Box::new(RandomScheduler::new(seed)),
                ];
                for sched in &mut schedulers {
                    let r = sched.schedule(&req).expect("schedulable");
                    for (_, node) in r.mapping.iter() {
                        prop_assert!(
                            !down.contains(&node.index()),
                            "{} assigned down node {node} (down set {down:?})",
                            sched.name()
                        );
                    }
                }
            }
        }
    }
}
