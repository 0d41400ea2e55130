//! Per-node health tracking driven by observation staleness.
//!
//! The paper's monitoring subsystem assumes every node keeps reporting
//! CPU/NIC availability. On a real cluster nodes crash and monitor streams
//! go stale, so the service tracks a small state machine per node:
//!
//! ```text
//!            age > suspect_after          age > down_after
//!  Healthy ───────────────────▶ Suspect ───────────────────▶ Down
//!     ▲                            │                           │
//!     └────────────────────────────┴───────────────────────────┘
//!                       fresh observation arrives
//! ```
//!
//! "Age" is measured in monitor sweeps (epochs), not wall-clock time, so
//! the classification is deterministic and testable: a node's age is the
//! number of sweeps since it last reported. Evaluation treats `Down` nodes
//! as unmappable (infinite cost) and inflates the `ACPU`-derived cost of
//! `Suspect` nodes by a configurable penalty, so schedulers drift work away
//! from silent nodes *before* they are declared dead.

use cbes_cluster::NodeId;

/// Health classification of a single node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeHealth {
    /// Reporting within the suspect deadline; fully usable.
    Healthy,
    /// Stale beyond the suspect deadline; usable but cost-inflated.
    Suspect,
    /// Stale beyond the down deadline; unmappable.
    Down,
}

impl NodeHealth {
    /// Short lower-case label (used in stats tables and metrics).
    pub fn label(self) -> &'static str {
        match self {
            NodeHealth::Healthy => "healthy",
            NodeHealth::Suspect => "suspect",
            NodeHealth::Down => "down",
        }
    }
}

/// Staleness deadlines and degradation penalties, in units of monitor
/// sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// A node older than this many sweeps becomes `Suspect`.
    pub suspect_after: u64,
    /// A node older than this many sweeps becomes `Down`.
    pub down_after: u64,
    /// Multiplier (> 1) applied to `Suspect` nodes' compute cost: the
    /// effective `ACPU` is divided by this factor.
    pub suspect_cost_factor: f64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            suspect_after: 3,
            down_after: 8,
            suspect_cost_factor: 2.0,
        }
    }
}

impl HealthPolicy {
    /// Classify a node whose last report is `age` sweeps old.
    pub fn classify(&self, age: u64) -> NodeHealth {
        if age > self.down_after {
            NodeHealth::Down
        } else if age > self.suspect_after {
            NodeHealth::Suspect
        } else {
            NodeHealth::Healthy
        }
    }
}

/// A point-in-time health classification of every node, carried by
/// [`crate::SystemSnapshot`] into evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthView {
    states: Vec<NodeHealth>,
    suspect_cost_factor: f64,
}

impl HealthView {
    /// A view where every one of `n` nodes is healthy (the pre-fault-model
    /// behaviour; also what `SystemSnapshot::no_load` uses).
    pub fn all_healthy(n: usize) -> Self {
        HealthView {
            states: vec![NodeHealth::Healthy; n],
            suspect_cost_factor: HealthPolicy::default().suspect_cost_factor,
        }
    }

    /// Build from explicit states and a suspect penalty.
    pub fn new(states: Vec<NodeHealth>, suspect_cost_factor: f64) -> Self {
        HealthView {
            states,
            suspect_cost_factor: suspect_cost_factor.max(1.0),
        }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when covering zero nodes.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Health of `node`. Nodes beyond the tracked range are assumed
    /// healthy (mirrors `LoadState`'s permissive indexing).
    #[inline]
    pub fn health(&self, node: NodeId) -> NodeHealth {
        self.states
            .get(node.index())
            .copied()
            .unwrap_or(NodeHealth::Healthy)
    }

    /// True unless `node` is `Down`.
    #[inline]
    pub fn is_usable(&self, node: NodeId) -> bool {
        self.health(node) != NodeHealth::Down
    }

    /// The factor `Suspect` nodes' effective `ACPU` is divided by.
    #[inline]
    pub fn suspect_cost_factor(&self) -> f64 {
        self.suspect_cost_factor
    }

    /// Count of nodes in each state: `(healthy, suspect, down)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0usize, 0usize, 0usize);
        for s in &self.states {
            match s {
                NodeHealth::Healthy => c.0 += 1,
                NodeHealth::Suspect => c.1 += 1,
                NodeHealth::Down => c.2 += 1,
            }
        }
        c
    }
}

/// Tracks per-node observation recency and reports health transitions.
///
/// Feed it one call per monitor sweep with the set of nodes that actually
/// reported; ask it for the current [`HealthView`] at snapshot time.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    policy: HealthPolicy,
    /// Sweep index at which each node last reported.
    last_seen: Vec<u64>,
    /// Total sweeps recorded.
    sweeps: u64,
    /// Last classification per node, for transition detection.
    states: Vec<NodeHealth>,
    /// Cumulative count of state changes (any direction).
    transitions: u64,
}

impl HealthTracker {
    /// A tracker over `n` nodes. Before any sweep every node is healthy.
    pub fn new(n: usize, policy: HealthPolicy) -> Self {
        HealthTracker {
            policy,
            last_seen: vec![0; n],
            sweeps: 0,
            states: vec![NodeHealth::Healthy; n],
            transitions: 0,
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Sweeps recorded so far.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Cumulative health-state transitions observed.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Record a sweep in which every node reported.
    pub fn record_full_sweep(&mut self) -> u64 {
        self.record_sweep_internal(std::iter::repeat(true))
    }

    /// Record a sweep in which only nodes with `reported[i] == true`
    /// delivered a measurement. Returns the number of transitions this
    /// sweep caused.
    pub fn record_sweep(&mut self, reported: &[bool]) -> u64 {
        assert_eq!(reported.len(), self.last_seen.len(), "node count mismatch");
        self.record_sweep_internal(reported.iter().copied())
    }

    fn record_sweep_internal(&mut self, reported: impl Iterator<Item = bool>) -> u64 {
        self.sweeps += 1;
        let mut changed = 0u64;
        let nodes = self.last_seen.iter_mut().zip(&mut self.states);
        for ((last_seen, state), reported) in nodes.zip(reported) {
            if reported {
                *last_seen = self.sweeps;
            }
            let next = self.policy.classify(self.sweeps - *last_seen);
            if next != *state {
                *state = next;
                changed += 1;
            }
        }
        self.transitions += changed;
        changed
    }

    /// Current classification of every node.
    pub fn view(&self) -> HealthView {
        HealthView {
            states: self.states.clone(),
            suspect_cost_factor: self.policy.suspect_cost_factor.max(1.0),
        }
    }

    /// Counts of nodes in each state: `(healthy, suspect, down)`.
    pub fn counts(&self) -> (usize, usize, usize) {
        self.view().counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_classifies_by_age() {
        let p = HealthPolicy::default();
        assert_eq!(p.classify(0), NodeHealth::Healthy);
        assert_eq!(p.classify(3), NodeHealth::Healthy);
        assert_eq!(p.classify(4), NodeHealth::Suspect);
        assert_eq!(p.classify(8), NodeHealth::Suspect);
        assert_eq!(p.classify(9), NodeHealth::Down);
    }

    #[test]
    fn tracker_walks_healthy_suspect_down_and_recovers() {
        let policy = HealthPolicy {
            suspect_after: 1,
            down_after: 3,
            suspect_cost_factor: 2.0,
        };
        let mut t = HealthTracker::new(2, policy);
        let both = [true, true];
        let only0 = [true, false];
        t.record_sweep(&both);
        assert_eq!(t.view().health(NodeId(1)), NodeHealth::Healthy);
        // Node 1 goes silent: age 1 (healthy), 2 (suspect), 3 (suspect), 4 (down).
        t.record_sweep(&only0);
        assert_eq!(t.view().health(NodeId(1)), NodeHealth::Healthy);
        t.record_sweep(&only0);
        assert_eq!(t.view().health(NodeId(1)), NodeHealth::Suspect);
        t.record_sweep(&only0);
        assert_eq!(t.view().health(NodeId(1)), NodeHealth::Suspect);
        t.record_sweep(&only0);
        assert_eq!(t.view().health(NodeId(1)), NodeHealth::Down);
        assert_eq!(t.counts(), (1, 0, 1));
        // One fresh report heals it completely.
        t.record_sweep(&both);
        assert_eq!(t.view().health(NodeId(1)), NodeHealth::Healthy);
        // Transitions: healthy→suspect, suspect→down, down→healthy.
        assert_eq!(t.transitions(), 3);
    }

    #[test]
    fn full_sweeps_keep_everyone_healthy() {
        let mut t = HealthTracker::new(4, HealthPolicy::default());
        for _ in 0..50 {
            t.record_full_sweep();
        }
        assert_eq!(t.counts(), (4, 0, 0));
        assert_eq!(t.transitions(), 0);
    }

    #[test]
    fn view_counts_and_down_nodes() {
        let v = HealthView::new(
            vec![NodeHealth::Healthy, NodeHealth::Down, NodeHealth::Suspect],
            2.0,
        );
        assert_eq!(v.counts(), (1, 1, 1));
        assert_eq!(v.health(NodeId(1)), NodeHealth::Down);
        assert!(v.is_usable(NodeId(0)));
        assert!(!v.is_usable(NodeId(1)));
        // Out-of-range nodes read as healthy.
        assert_eq!(v.health(NodeId(9)), NodeHealth::Healthy);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn record_sweep_rejects_wrong_arity() {
        let mut t = HealthTracker::new(2, HealthPolicy::default());
        t.record_sweep(&[true]);
    }
}
