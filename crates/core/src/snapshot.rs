//! On-demand snapshots of system state, combining the calibrated latency
//! model with the monitor's current load estimates.

use crate::health::{HealthView, NodeHealth};
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, LatencyProvider, NodeId};
use cbes_netmodel::LoadAdjuster;
use std::borrow::Cow;

/// Everything the mapping evaluation needs to know about the computing
/// system *right now*: topology-derived node data, the no-load latency
/// model, and current per-node load (paper §2: "a snapshot of resource
/// availability, system profile data").
///
/// The pairwise latency picture is derived in `O(1)` per queried pair from
/// the no-load model plus the two endpoints' load — this is the paper's
/// `O(N)`-monitoring approximation of the `O(N²)` resource picture.
pub struct SystemSnapshot<'a> {
    /// The cluster (node speeds, architectures).
    pub cluster: &'a Cluster,
    /// No-load end-to-end latency source (usually the calibrated
    /// [`cbes_netmodel::LatencyModel`]).
    no_load: &'a dyn LatencyProvider,
    /// How endpoint load inflates latency.
    pub adjuster: LoadAdjuster,
    /// Current (or forecast) per-node load: borrowed from the published
    /// epoch on the serving path, owned when a caller supplies its own.
    pub load: Cow<'a, LoadState>,
    /// Current per-node health classification (all healthy by default).
    health: Cow<'a, HealthView>,
}

impl<'a> SystemSnapshot<'a> {
    /// A snapshot with explicit load state, every node healthy.
    pub fn new(
        cluster: &'a Cluster,
        no_load: &'a dyn LatencyProvider,
        adjuster: LoadAdjuster,
        load: LoadState,
    ) -> Self {
        let health = HealthView::all_healthy(cluster.len());
        SystemSnapshot::with_health(cluster, no_load, adjuster, load, health)
    }

    /// A snapshot with explicit load and health state.
    pub fn with_health(
        cluster: &'a Cluster,
        no_load: &'a dyn LatencyProvider,
        adjuster: LoadAdjuster,
        load: LoadState,
        health: HealthView,
    ) -> Self {
        SystemSnapshot::build(
            cluster,
            no_load,
            adjuster,
            Cow::Owned(load),
            Cow::Owned(health),
        )
    }

    /// The one constructor: load and health either owned, or borrowed
    /// from whoever keeps them alive — the service's published epoch, of
    /// which a request then copies nothing per node.
    pub(crate) fn build(
        cluster: &'a Cluster,
        no_load: &'a dyn LatencyProvider,
        adjuster: LoadAdjuster,
        load: Cow<'a, LoadState>,
        health: Cow<'a, HealthView>,
    ) -> Self {
        assert!(
            load.len() >= cluster.len(),
            "load state must cover every node"
        );
        SystemSnapshot {
            cluster,
            no_load,
            adjuster,
            load,
            health,
        }
    }

    /// A snapshot of an idle cluster (default adjuster, full availability).
    pub fn no_load(cluster: &'a Cluster, no_load: &'a dyn LatencyProvider) -> Self {
        SystemSnapshot::new(
            cluster,
            no_load,
            LoadAdjuster::default(),
            LoadState::idle(cluster.len()),
        )
    }

    /// Current CPU availability of `node` (`ACPU_j`, paper eq. 5).
    #[inline]
    pub fn acpu(&self, node: NodeId) -> f64 {
        self.load.cpu_avail(node)
    }

    /// `ACPU_j` degraded by health: `Suspect` nodes have their availability
    /// divided by the policy's suspect cost factor (inflating `R_i`), and
    /// `Down` nodes report zero availability (infinite compute cost —
    /// unmappable).
    #[inline]
    pub fn effective_acpu(&self, node: NodeId) -> f64 {
        match self.health.health(node) {
            NodeHealth::Healthy => self.acpu(node),
            NodeHealth::Suspect => self.acpu(node) / self.health.suspect_cost_factor(),
            NodeHealth::Down => 0.0,
        }
    }

    /// Health classification of `node`.
    #[inline]
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.health.health(node)
    }

    /// True unless `node` is classified `Down`.
    #[inline]
    pub fn is_usable(&self, node: NodeId) -> bool {
        self.health.is_usable(node)
    }

    /// The full health view carried by this snapshot.
    pub fn health_view(&self) -> &HealthView {
        &self.health
    }

    /// Replace the health view (e.g. with a fresh tracker classification).
    pub fn set_health(&mut self, health: HealthView) {
        self.health = Cow::Owned(health);
    }

    /// Relative speed of `node` (`Speed_j`).
    #[inline]
    pub fn speed(&self, node: NodeId) -> f64 {
        self.cluster.node(node).speed
    }

    /// Current load-adjusted latency `L_c` (paper eq. 6's latency term).
    #[inline]
    pub fn current_latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        self.adjuster
            .adjust(self.no_load.latency(a, b, bytes), &self.load, a, b)
    }

    /// Replace the load estimate (e.g. with a fresh monitor forecast).
    pub fn set_load(&mut self, load: LoadState) {
        assert!(load.len() >= self.cluster.len());
        self.load = Cow::Owned(load);
    }
}

impl LatencyProvider for SystemSnapshot<'_> {
    fn latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        self.current_latency(a, b, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::presets::two_switch_demo;

    #[test]
    fn no_load_snapshot_matches_model() {
        let c = two_switch_demo();
        let s = SystemSnapshot::no_load(&c, &c);
        assert_eq!(
            s.current_latency(NodeId(0), NodeId(4), 1024),
            c.no_load_latency(NodeId(0), NodeId(4), 1024)
        );
        assert_eq!(s.acpu(NodeId(0)), 1.0);
        assert_eq!(s.speed(NodeId(4)), 0.85);
    }

    #[test]
    fn loaded_snapshot_inflates_latency() {
        let c = two_switch_demo();
        let mut load = LoadState::idle(c.len());
        load.set_cpu_avail(NodeId(0), 0.5);
        let s = SystemSnapshot::new(&c, &c, LoadAdjuster::default(), load);
        assert!(
            s.current_latency(NodeId(0), NodeId(4), 1024)
                > c.no_load_latency(NodeId(0), NodeId(4), 1024)
        );
        assert_eq!(s.acpu(NodeId(0)), 0.5);
    }

    #[test]
    #[should_panic(expected = "cover every node")]
    fn short_load_state_is_rejected() {
        let c = two_switch_demo();
        let _ = SystemSnapshot::new(&c, &c, LoadAdjuster::default(), LoadState::idle(2));
    }

    #[test]
    fn default_health_is_all_healthy_and_settable() {
        use crate::health::{HealthView, NodeHealth};
        let c = two_switch_demo();
        let mut s = SystemSnapshot::no_load(&c, &c);
        assert!(s.is_usable(NodeId(0)));
        assert_eq!(s.health(NodeId(0)), NodeHealth::Healthy);
        assert_eq!(s.effective_acpu(NodeId(0)), 1.0);
        let mut states = vec![NodeHealth::Healthy; c.len()];
        states[0] = NodeHealth::Down;
        states[1] = NodeHealth::Suspect;
        s.set_health(HealthView::new(states, 4.0));
        assert!(!s.is_usable(NodeId(0)));
        assert_eq!(s.effective_acpu(NodeId(0)), 0.0);
        assert!((s.effective_acpu(NodeId(1)) - 0.25).abs() < 1e-12);
        assert_eq!(s.effective_acpu(NodeId(2)), 1.0);
    }

    #[test]
    fn set_load_updates_view() {
        let c = two_switch_demo();
        let mut s = SystemSnapshot::no_load(&c, &c);
        let before = s.current_latency(NodeId(0), NodeId(1), 64);
        let mut load = LoadState::idle(c.len());
        load.set_cpu_avail(NodeId(1), 0.4);
        s.set_load(load);
        assert!(s.current_latency(NodeId(0), NodeId(1), 64) > before);
    }
}
