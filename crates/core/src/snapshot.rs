//! On-demand snapshots of system state, combining the calibrated latency
//! model with the monitor's current load estimates.

use crate::health::{HealthView, NodeHealth};
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, LatencyProvider, NodeId};
use cbes_netmodel::{LatencyModel, LoadAdjuster, Segment};
use std::borrow::Cow;
use std::sync::Arc;

/// The no-load latency source `L_0`, borrowed: a closed set, so the
/// evaluation picks its arm once per candidate, not per message group.
#[derive(Debug, Clone, Copy)]
pub enum NoLoad<'a> {
    /// The cluster's own topology model, its port table.
    Ports(&'a Cluster),
    /// A calibrated model.
    Model(&'a LatencyModel),
}

impl<'a> From<&'a Cluster> for NoLoad<'a> {
    fn from(c: &'a Cluster) -> Self {
        NoLoad::Ports(c)
    }
}

impl<'a> From<&'a LatencyModel> for NoLoad<'a> {
    fn from(m: &'a LatencyModel) -> Self {
        NoLoad::Model(m)
    }
}

impl NoLoad<'_> {
    /// Eq. 6's current latency `L_c` from `src` to `dst`: `L_0` adjusted
    /// for both endpoints' load, for a message of `bytes` bytes, which the
    /// model arm reads as `seg` (located by that model). The one
    /// definition: the evaluation's fold and
    /// [`SystemSnapshot::current_latency`] (so the greedy scheduler) call
    /// it.
    #[inline]
    pub(crate) fn current(
        self,
        adjuster: &LoadAdjuster,
        src: &NodeRow,
        dst: &NodeRow,
        bytes: f64,
        seg: Segment,
    ) -> f64 {
        let l0 = match self {
            NoLoad::Ports(_) if src.node == dst.node => Cluster::loopback_latency(bytes),
            NoLoad::Ports(c) => c.port_latency(src.key, dst.key, bytes),
            NoLoad::Model(_) if src.node == dst.node => LatencyModel::LOOPBACK,
            NoLoad::Model(m) => m.at(src.key, dst.key, seg),
        };
        l0 * adjuster.factor_of((src.idle, src.nic), (dst.idle, dst.nic))
    }
}

impl LatencyProvider for NoLoad<'_> {
    fn latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        match *self {
            NoLoad::Ports(c) => c.no_load_latency(a, b, bytes),
            NoLoad::Model(m) => m.no_load(a, b, bytes),
        }
    }
}

/// The no-load latency source a service owns and publishes with each
/// epoch.
#[derive(Debug, Clone)]
pub enum Provider {
    /// The cluster's own topology model.
    Ports(Arc<Cluster>),
    /// A calibrated model.
    Model(Arc<LatencyModel>),
}

impl Provider {
    /// The borrowed form a snapshot reads.
    pub fn no_load(&self) -> NoLoad<'_> {
        match self {
            Provider::Ports(c) => NoLoad::Ports(c),
            Provider::Model(m) => NoLoad::Model(m),
        }
    }
}

impl From<Arc<Cluster>> for Provider {
    fn from(c: Arc<Cluster>) -> Self {
        Provider::Ports(c)
    }
}

impl From<Arc<LatencyModel>> for Provider {
    fn from(m: Arc<LatencyModel>) -> Self {
        Provider::Model(m)
    }
}

/// One node's row of a node table: what eqs. 5–8 read of a node, built
/// once per published epoch (or owned snapshot), not per message group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeRow {
    pub(crate) node: u32,
    /// The provider's key: the node's port, or its index in the model
    /// (`u32::MAX` when the provider does not cover the node).
    pub(crate) key: u32,
    pub(crate) cpus: f64,
    pub(crate) speed: f64,
    /// `ACPU` degraded by health (eq. 5's divisor; zero when `Down`).
    pub(crate) acpu: f64,
    /// `1 − ACPU`, undegraded (eq. 6's CPU term).
    pub(crate) idle: f64,
    pub(crate) nic: f64,
}

/// The node table of `cluster` under `load` and `health`, keyed for
/// `no_load`.
pub(crate) fn node_table(
    cluster: &Cluster,
    no_load: NoLoad<'_>,
    load: &LoadState,
    health: &HealthView,
) -> Vec<NodeRow> {
    let nodes = cluster.nodes().iter();
    nodes
        .map(|n| {
            let acpu = load.cpu_avail(n.id);
            let key = match no_load {
                NoLoad::Ports(c) => c.port(n.id),
                NoLoad::Model(m) => Some(n.id.0).filter(|&i| (i as usize) < m.num_nodes()),
            };
            NodeRow {
                node: n.id.0,
                key: key.unwrap_or(u32::MAX),
                cpus: n.cpus as f64,
                speed: n.speed,
                acpu: match health.health(n.id) {
                    NodeHealth::Healthy => acpu,
                    NodeHealth::Suspect => acpu / health.suspect_cost_factor(),
                    NodeHealth::Down => 0.0,
                },
                idle: 1.0 - acpu,
                nic: load.nic_load(n.id),
            }
        })
        .collect()
}

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
    pub(crate) no_load: NoLoad<'a>,
    /// How endpoint load inflates latency.
    pub adjuster: LoadAdjuster,
    /// Current (or forecast) per-node load: borrowed from the published
    /// epoch on the serving path, owned when a caller supplies its own.
    load: Cow<'a, LoadState>,
    /// Current per-node health classification (all healthy by default).
    health: Cow<'a, HealthView>,
    /// The node table of `load` and `health`, borrowed or owned with them.
    pub(crate) rows: Cow<'a, [NodeRow]>,
}

impl<'a> SystemSnapshot<'a> {
    /// A snapshot with explicit load state, every node healthy.
    pub fn new(
        cluster: &'a Cluster,
        no_load: impl Into<NoLoad<'a>>,
        adjuster: LoadAdjuster,
        load: LoadState,
    ) -> Self {
        let health = HealthView::all_healthy(cluster.len());
        SystemSnapshot::with_health(cluster, no_load, adjuster, load, health)
    }

    /// A snapshot with explicit load and health state.
    pub fn with_health(
        cluster: &'a Cluster,
        no_load: impl Into<NoLoad<'a>>,
        adjuster: LoadAdjuster,
        load: LoadState,
        health: HealthView,
    ) -> Self {
        let no_load = no_load.into();
        assert!(
            load.len() >= cluster.len(),
            "load state must cover every node"
        );
        let rows = node_table(cluster, no_load, &load, &health);
        SystemSnapshot::build(
            cluster,
            no_load,
            adjuster,
            Cow::Owned(load),
            Cow::Owned(health),
            Cow::Owned(rows),
        )
    }

    /// The one constructor: load, health and their node table either
    /// owned, or borrowed from whoever keeps them alive — the service's
    /// published epoch, of which a request then copies nothing per node.
    pub(crate) fn build(
        cluster: &'a Cluster,
        no_load: NoLoad<'a>,
        adjuster: LoadAdjuster,
        load: Cow<'a, LoadState>,
        health: Cow<'a, HealthView>,
        rows: Cow<'a, [NodeRow]>,
    ) -> Self {
        assert!(
            load.len() >= cluster.len() && rows.len() == cluster.len(),
            "load state must cover every node"
        );
        SystemSnapshot {
            cluster,
            no_load,
            adjuster,
            load,
            health,
            rows,
        }
    }

    /// A snapshot of an idle cluster (default adjuster, full availability).
    pub fn no_load(cluster: &'a Cluster, no_load: impl Into<NoLoad<'a>>) -> Self {
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
    #[expect(
        clippy::indexing_slicing,
        reason = "one row per cluster node, so any node of the cluster is in range, as in `Cluster::node`"
    )]
    pub fn effective_acpu(&self, node: NodeId) -> f64 {
        self.rows[node.index()].acpu
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

    /// Replace the health view (e.g. with a fresh tracker classification).
    pub fn set_health(&mut self, health: HealthView) {
        self.rows = Cow::Owned(node_table(self.cluster, self.no_load, &self.load, &health));
        self.health = Cow::Owned(health);
    }

    /// Relative speed of `node` (`Speed_j`).
    #[inline]
    pub fn speed(&self, node: NodeId) -> f64 {
        self.cluster.node(node).speed
    }

    /// Current load-adjusted latency `L_c` (paper eq. 6's latency term);
    /// `+∞` off the cluster.
    #[inline]
    pub fn current_latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        let seg = match self.no_load {
            NoLoad::Ports(_) => Segment::Clamp,
            NoLoad::Model(m) => m.segment(bytes),
        };
        match (self.rows.get(a.index()), self.rows.get(b.index())) {
            (Some(src), Some(dst)) => {
                (self.no_load).current(&self.adjuster, src, dst, bytes as f64, seg)
            }
            _ => f64::INFINITY,
        }
    }

    /// Replace the load estimate (e.g. with a fresh monitor forecast).
    pub fn set_load(&mut self, load: LoadState) {
        assert!(load.len() >= self.cluster.len());
        self.rows = Cow::Owned(node_table(self.cluster, self.no_load, &load, &self.health));
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
