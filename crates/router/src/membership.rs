//! The tier membership table: static seeds, heartbeat-driven health,
//! per-instance epochs and routing counters.
//!
//! Instance health reuses the core's `HealthTracker` state machine —
//! the same `Healthy → Suspect → Down` transitions cluster nodes go
//! through, but driven by heartbeat probes instead of monitoring
//! sweeps: a probe sweep reports which instances answered, silent
//! instances age toward `Suspect` and `Down` under the policy, and one
//! successful probe heals an instance completely.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cbes_core::health::{HealthPolicy, HealthTracker, NodeHealth};
use cbes_obs::lock::{rank, RwLock};
use cbes_obs::{names, Counter, Registry};
use cbes_server::protocol::{InstanceInfo, MembershipReport};

/// Tuning for the membership table and its heartbeat.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// Cluster name the tier serves (the first half of routing keys).
    pub cluster: String,
    /// Interval between heartbeat probe sweeps.
    pub heartbeat: Duration,
    /// Dial/read deadline for one probe.
    pub probe_timeout: Duration,
    /// Missed-probe thresholds for `Suspect` / `Down`.
    pub policy: HealthPolicy,
    /// Failover candidates per key beyond the primary.
    pub replicas: usize,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            cluster: "default".to_string(),
            heartbeat: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(500),
            policy: HealthPolicy {
                suspect_after: 1,
                down_after: 3,
                suspect_cost_factor: 1.0,
            },
            replicas: 1,
        }
    }
}

/// Mutable membership state behind the table's lock.
struct State {
    tracker: HealthTracker,
    /// Last epoch observed per instance (from probes or replication).
    epochs: Vec<u64>,
    /// Heartbeat probe sweeps completed.
    heartbeats: u64,
}

/// Per-instance routing counters, updated lock-free.
struct InstanceCounters {
    routed: Counter,
    forwarded: Counter,
    failed_over: Counter,
}

/// The shared membership table: seed addresses, health, epochs and
/// per-instance routing counters. Cheap to share
/// (`Arc<Membership>`); the health/epoch state sits behind one
/// short-held lock while the counters are atomics.
pub struct Membership {
    addrs: Vec<String>,
    config: MembershipConfig,
    state: RwLock<State, { rank::MEMBERSHIP_STATE }>,
    counters: Vec<InstanceCounters>,
    /// The router's one registry: the `router.*` instruments, the I/O
    /// layer's counters, the forward spans and the flight recorder.
    obs: Arc<Registry>,
    /// Tier-wide aggregates in that registry.
    routed_total: Arc<Counter>,
    forwarded_total: Arc<Counter>,
    failed_over_total: Arc<Counter>,
    /// Replication lag at the last heartbeat sweep, for the
    /// lag-jump flight trigger.
    last_lag: AtomicU64,
}

impl Membership {
    /// A table over the static seed list `addrs`, recording into `obs`,
    /// the router's one registry, whose clock the router reads.
    pub fn new(
        addrs: Vec<String>,
        config: MembershipConfig,
        obs: Arc<Registry>,
    ) -> Arc<Membership> {
        let n = addrs.len();
        Arc::new(Membership {
            counters: (0..n)
                .map(|_| InstanceCounters {
                    routed: Counter::new(),
                    forwarded: Counter::new(),
                    failed_over: Counter::new(),
                })
                .collect(),
            state: RwLock::new(State {
                tracker: HealthTracker::new(n, config.policy),
                epochs: vec![0; n],
                heartbeats: 0,
            }),
            routed_total: obs.counter(names::ROUTER_ROUTED),
            forwarded_total: obs.counter(names::ROUTER_FORWARDED),
            failed_over_total: obs.counter(names::ROUTER_FAILED_OVER),
            last_lag: AtomicU64::new(0),
            obs,
            addrs,
            config,
        })
    }

    /// The router's registry, which a `Metrics`, `Trace` or `DumpFlight`
    /// to the router adds to what its instances answer.
    pub fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The static seed addresses, in ring order.
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// Number of seeded instances.
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// True when no instances are seeded.
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// The table's configuration.
    pub fn config(&self) -> &MembershipConfig {
        &self.config
    }

    /// Record one heartbeat sweep: `probes[i]` is `Some(epoch)` when
    /// instance `i` answered. Returns the health transitions this sweep
    /// caused.
    pub fn record_probes(&self, probes: &[Option<u64>]) -> u64 {
        let mut state = self.state.write();
        if probes.len() != state.epochs.len() {
            // A malformed sweep (arity drift) is dropped rather than
            // fed to the tracker, which asserts its arity.
            return 0;
        }
        let reported: Vec<bool> = probes.iter().map(|p| p.is_some()).collect();
        for (slot, probe) in state.epochs.iter_mut().zip(probes) {
            if let Some(epoch) = probe {
                *slot = (*slot).max(*epoch);
            }
        }
        state.heartbeats += 1;
        let changed = state.tracker.record_sweep(&reported);
        let (h, s, d) = state.tracker.counts();
        drop(state);
        let registry = &self.obs;
        registry.counter(names::ROUTER_HEARTBEATS).incr();
        registry.counter(names::ROUTER_TRANSITIONS).add(changed);
        registry
            .gauge(names::ROUTER_INSTANCES_HEALTHY)
            .set(h as f64);
        registry
            .gauge(names::ROUTER_INSTANCES_SUSPECT)
            .set(s as f64);
        registry.gauge(names::ROUTER_INSTANCES_DOWN).set(d as f64);
        let lag = self.replication_lag();
        registry
            .gauge(names::ROUTER_REPLICATION_LAG)
            .set(lag as f64);
        // Flight triggers: an instance health transition, or the
        // replication lag jumping while already past one in-flight sweep.
        let prev_lag = self.last_lag.swap(lag, Ordering::Relaxed);
        if changed > 0 {
            let detail = format!("{changed} instance health transition(s) in one heartbeat sweep");
            registry.anomaly("instance_transition", Some(detail));
        }
        if lag >= 2 && lag > prev_lag {
            let detail = format!("replication lag jumped {prev_lag} -> {lag} epochs");
            registry.anomaly("replication_lag", Some(detail));
        }
        changed
    }

    /// Note the epoch instance `i` acknowledged (probe or replication).
    pub fn note_epoch(&self, instance: usize, epoch: u64) {
        let mut state = self.state.write();
        if let Some(slot) = state.epochs.get_mut(instance) {
            *slot = (*slot).max(epoch);
        }
    }

    /// Health of instance `i` (`Down` for out-of-range indices).
    pub fn health(&self, instance: usize) -> NodeHealth {
        if instance >= self.addrs.len() {
            return NodeHealth::Down;
        }
        self.state
            .read()
            .tracker
            .view()
            .health(cbes_cluster::NodeId(instance as u32))
    }

    /// Per-state instance counts `(healthy, suspect, down)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        self.state.read().tracker.counts()
    }

    /// Cumulative instance health transitions.
    pub fn transitions(&self) -> u64 {
        self.state.read().tracker.transitions()
    }

    /// Indices of instances *not* classified `Down`, in seed order —
    /// the set requests may be sent to.
    pub fn usable(&self) -> Vec<usize> {
        let state = self.state.read();
        let view = state.tracker.view();
        (0..self.addrs.len())
            .filter(|&i| view.health(cbes_cluster::NodeId(i as u32)) != NodeHealth::Down)
            .collect()
    }

    /// The replication leader: the first `Healthy` instance in seed
    /// order, else the first `Suspect` one, else `None` (whole tier
    /// down). Deterministic, so every router picks the same leader for
    /// a given health view.
    pub fn leader(&self) -> Option<usize> {
        let state = self.state.read();
        let view = state.tracker.view();
        let health = |i: usize| view.health(cbes_cluster::NodeId(i as u32));
        (0..self.addrs.len())
            .find(|&i| health(i) == NodeHealth::Healthy)
            .or_else(|| (0..self.addrs.len()).find(|&i| health(i) == NodeHealth::Suspect))
    }

    /// Leader epoch minus the slowest usable follower's epoch — the
    /// tier's snapshot staleness bound, in epochs. `0` for a tier with
    /// no leader or no followers.
    pub fn replication_lag(&self) -> u64 {
        let leader = match self.leader() {
            Some(l) => l,
            None => return 0,
        };
        let state = self.state.read();
        let view = state.tracker.view();
        let leader_epoch = state.epochs.get(leader).copied().unwrap_or(0);
        state
            .epochs
            .iter()
            .enumerate()
            .filter(|&(i, _)| {
                i != leader && view.health(cbes_cluster::NodeId(i as u32)) != NodeHealth::Down
            })
            .map(|(_, &e)| leader_epoch.saturating_sub(e))
            .max()
            .unwrap_or(0)
    }

    /// Count a hash-routed dispatch to `instance` (as key primary).
    pub fn count_routed(&self, instance: usize) {
        if let Some(c) = self.counters.get(instance) {
            c.routed.incr();
        }
        self.routed_total.incr();
    }

    /// Count a fan-out/relay send to `instance`.
    pub fn count_forwarded(&self, instance: usize) {
        if let Some(c) = self.counters.get(instance) {
            c.forwarded.incr();
        }
        self.forwarded_total.incr();
    }

    /// Count a request served by `instance` as a failover target.
    pub fn count_failed_over(&self, instance: usize) {
        if let Some(c) = self.counters.get(instance) {
            c.failed_over.incr();
        }
        self.failed_over_total.incr();
    }

    /// The wire-protocol membership report for this table.
    pub fn report(&self) -> MembershipReport {
        let state = self.state.read();
        let view = state.tracker.view();
        let leader = {
            let health = |i: usize| view.health(cbes_cluster::NodeId(i as u32));
            (0..self.addrs.len())
                .find(|&i| health(i) == NodeHealth::Healthy)
                .or_else(|| (0..self.addrs.len()).find(|&i| health(i) == NodeHealth::Suspect))
        };
        let instances: Vec<InstanceInfo> = self
            .addrs
            .iter()
            .enumerate()
            .map(|(i, addr)| InstanceInfo {
                index: i,
                addr: addr.clone(),
                health: view
                    .health(cbes_cluster::NodeId(i as u32))
                    .label()
                    .to_string(),
                epoch: state.epochs.get(i).copied().unwrap_or(0),
                leader: leader == Some(i),
                routed: self.counters.get(i).map(|c| c.routed.get()).unwrap_or(0),
                forwarded: self.counters.get(i).map(|c| c.forwarded.get()).unwrap_or(0),
                failed_over: self
                    .counters
                    .get(i)
                    .map(|c| c.failed_over.get())
                    .unwrap_or(0),
            })
            .collect();
        let max_epoch = state.epochs.iter().copied().max().unwrap_or(0);
        let heartbeats = state.heartbeats;
        let transitions = state.tracker.transitions();
        drop(state);
        MembershipReport {
            cluster: self.config.cluster.clone(),
            instances,
            leader,
            max_epoch,
            replication_lag: self.replication_lag(),
            heartbeats,
            transitions,
        }
    }
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (h, s, d) = self.counts();
        f.debug_struct("Membership")
            .field("addrs", &self.addrs)
            .field("healthy", &h)
            .field("suspect", &s)
            .field("down", &d)
            .field("leader", &self.leader())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Remove the flight dumps `m`'s sweeps triggered.
    fn remove_dumps(m: &Membership) {
        for path in m.obs().flight().dumped() {
            std::fs::remove_file(path).ok();
        }
    }

    fn table(n: usize) -> Arc<Membership> {
        Membership::new(
            (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect(),
            MembershipConfig {
                policy: HealthPolicy {
                    suspect_after: 1,
                    down_after: 3,
                    suspect_cost_factor: 1.0,
                },
                ..MembershipConfig::default()
            },
            Arc::default(),
        )
    }

    #[test]
    fn silent_instances_degrade_and_failover_excludes_them() {
        let m = table(3);
        assert_eq!(m.counts(), (3, 0, 0));
        assert_eq!(m.leader(), Some(0));
        // Instance 0 stops answering: ages through Suspect to Down.
        for sweep in 1..=4u64 {
            m.record_probes(&[None, Some(sweep), Some(sweep)]);
        }
        assert_eq!(m.counts(), (2, 0, 1));
        assert_eq!(m.usable(), vec![1, 2]);
        assert_eq!(
            m.leader(),
            Some(1),
            "leadership moves off the dead instance"
        );
        assert!(m.transitions() >= 2, "Healthy→Suspect→Down");
        let report = m.report();
        assert_eq!(report.instances[0].health, "down");
        assert_eq!(report.leader, Some(1));
        assert!(report.instances[1].leader);
        remove_dumps(&m);
    }

    #[test]
    fn one_good_probe_heals_an_instance() {
        let m = table(2);
        m.record_probes(&[None, Some(1)]);
        m.record_probes(&[None, Some(2)]);
        assert_eq!(m.counts(), (1, 1, 0), "instance 0 is suspect");
        m.record_probes(&[Some(3), Some(3)]);
        assert_eq!(m.counts(), (2, 0, 0));
        assert_eq!(m.leader(), Some(0));
        remove_dumps(&m);
    }

    #[test]
    fn replication_lag_tracks_the_slowest_usable_follower() {
        let m = table(3);
        m.record_probes(&[Some(10), Some(9), Some(8)]);
        assert_eq!(m.replication_lag(), 2);
        // The slow follower going Down removes it from the bound.
        for _ in 0..4 {
            m.record_probes(&[Some(10), Some(10), None]);
        }
        assert_eq!(m.counts(), (2, 0, 1));
        assert_eq!(m.replication_lag(), 0);
        remove_dumps(&m);
    }

    #[test]
    fn epochs_never_move_backwards() {
        let m = table(1);
        m.note_epoch(0, 5);
        m.record_probes(&[Some(3)]);
        assert_eq!(
            m.report().max_epoch,
            5,
            "stale probe cannot lower the epoch"
        );
        m.note_epoch(9, 100); // out-of-range: ignored
        assert_eq!(m.report().max_epoch, 5);
    }

    #[test]
    fn per_instance_counters_land_in_the_report() {
        let m = table(2);
        m.count_routed(0);
        m.count_routed(0);
        m.count_failed_over(1);
        m.count_forwarded(1);
        let report = m.report();
        assert_eq!(report.instances[0].routed, 2);
        assert_eq!(report.instances[1].failed_over, 1);
        assert_eq!(report.instances[1].forwarded, 1);
    }

    #[test]
    fn malformed_probe_sweeps_are_dropped() {
        let m = table(2);
        assert_eq!(m.record_probes(&[Some(1)]), 0);
        assert_eq!(m.counts(), (2, 0, 0), "state is untouched");
    }
}
