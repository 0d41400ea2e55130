//! Background resource load on cluster nodes.
//!
//! The paper's monitoring subsystem periodically measures, per node, the CPU
//! availability (`ACPU_j`, 0–100 %) and the NIC load. [`LoadState`] is the
//! instantaneous ground truth the simulator executes against and the monitor
//! samples; [`LoadTimeline`] describes how that ground truth evolves over
//! time (used by the load-sensitivity experiment E3 and the forecaster
//! ablation).

use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// Instantaneous background load of every node in a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadState {
    /// Per-node CPU availability in `(0, 1]` (paper's `ACPU_j / 100`).
    cpu_avail: Vec<f64>,
    /// Per-node NIC utilisation by background traffic in `[0, 1)`.
    nic_load: Vec<f64>,
}

impl LoadState {
    /// A fully idle cluster of `n` nodes (availability 1.0 everywhere).
    pub fn idle(n: usize) -> Self {
        LoadState {
            cpu_avail: vec![1.0; n],
            nic_load: vec![0.0; n],
        }
    }

    /// A load state exactly as measured: no clamping and no checks, the
    /// same value deserialising `{"cpu_avail":…,"nic_load":…}` yields.
    /// Whoever consumes it validates it (`CbesService` rejects a sweep
    /// with mismatched columns or a non-finite value).
    pub fn from_measured(cpu_avail: Vec<f64>, nic_load: Vec<f64>) -> Self {
        LoadState {
            cpu_avail,
            nic_load,
        }
    }

    /// Both per-node columns as stored, `(cpu_avail, nic_load)`.
    pub fn columns(&self) -> (&[f64], &[f64]) {
        (&self.cpu_avail, &self.nic_load)
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.cpu_avail.len()
    }

    /// True when covering zero nodes.
    pub fn is_empty(&self) -> bool {
        self.cpu_avail.is_empty()
    }

    /// CPU availability of `node`, clamped into `(0, 1]`.
    #[inline]
    pub fn cpu_avail(&self, node: NodeId) -> f64 {
        self.cpu_avail[node.index()]
    }

    /// NIC background utilisation of `node` in `[0, 1)`.
    #[inline]
    pub fn nic_load(&self, node: NodeId) -> f64 {
        self.nic_load[node.index()]
    }

    /// Set CPU availability of `node` (clamped to `[0.01, 1.0]` — a node is
    /// never completely unavailable, matching the paper's 0–100 % scale).
    pub fn set_cpu_avail(&mut self, node: NodeId, avail: f64) {
        self.cpu_avail[node.index()] = avail.clamp(0.01, 1.0);
    }

    /// Set NIC background utilisation of `node` (clamped to `[0.0, 0.99]`).
    pub fn set_nic_load(&mut self, node: NodeId, load: f64) {
        self.nic_load[node.index()] = load.clamp(0.0, 0.99);
    }

    /// Apply a uniform CPU availability to every node.
    pub fn with_uniform_cpu(mut self, avail: f64) -> Self {
        for v in &mut self.cpu_avail {
            *v = avail.clamp(0.01, 1.0);
        }
        self
    }
}

/// A deterministic, piecewise description of how one node's load evolves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LoadPattern {
    /// Constant CPU availability.
    Constant(f64),
    /// Availability `before` until `at` seconds, then `after` (the E3
    /// "background load change" pattern).
    Step {
        /// Time of the change, seconds.
        at: f64,
        /// Availability before the change.
        before: f64,
        /// Availability after the change.
        after: f64,
    },
    /// Linear drift from `from` to `to` over `[0, duration]`, constant after.
    Drift {
        /// Availability at t = 0.
        from: f64,
        /// Availability at t = `duration` and beyond.
        to: f64,
        /// Drift duration, seconds.
        duration: f64,
    },
    /// Availability `base`, dropping to `depth` during periodic spikes of
    /// length `width` every `period` seconds (short transient loads the
    /// paper found tolerable).
    Spikes {
        /// Availability between spikes.
        base: f64,
        /// Availability during a spike.
        depth: f64,
        /// Spike period, seconds.
        period: f64,
        /// Spike width, seconds.
        width: f64,
    },
}

impl LoadPattern {
    /// CPU availability at absolute time `t`.
    pub fn at(&self, t: f64) -> f64 {
        let v = match *self {
            LoadPattern::Constant(a) => a,
            LoadPattern::Step { at, before, after } => {
                if t < at {
                    before
                } else {
                    after
                }
            }
            LoadPattern::Drift { from, to, duration } => {
                if duration <= 0.0 || t >= duration {
                    to
                } else {
                    from + (to - from) * (t / duration)
                }
            }
            LoadPattern::Spikes {
                base,
                depth,
                period,
                width,
            } => {
                if period <= 0.0 {
                    base
                } else if t.rem_euclid(period) < width {
                    depth
                } else {
                    base
                }
            }
        };
        v.clamp(0.01, 1.0)
    }
}

/// Time-varying cluster load: one [`LoadPattern`] per node (default:
/// constant full availability).
#[derive(Debug, Clone, Default)]
pub struct LoadTimeline {
    patterns: Vec<(NodeId, LoadPattern)>,
    n: usize,
}

impl LoadTimeline {
    /// An idle timeline over `n` nodes.
    pub fn idle(n: usize) -> Self {
        LoadTimeline {
            patterns: Vec::new(),
            n,
        }
    }

    /// Override the pattern of one node.
    pub fn with(mut self, node: NodeId, pattern: LoadPattern) -> Self {
        self.patterns.retain(|(id, _)| *id != node);
        self.patterns.push((node, pattern));
        self
    }

    /// Materialise the instantaneous [`LoadState`] at time `t`.
    pub fn sample(&self, t: f64) -> LoadState {
        let mut s = LoadState::idle(self.n);
        for (id, p) in &self.patterns {
            s.set_cpu_avail(*id, p.at(t));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_state_is_fully_available() {
        let s = LoadState::idle(4);
        assert_eq!(s.len(), 4);
        for i in 0..4 {
            assert_eq!(s.cpu_avail(NodeId(i)), 1.0);
            assert_eq!(s.nic_load(NodeId(i)), 0.0);
        }
    }

    #[test]
    fn setters_clamp() {
        let mut s = LoadState::idle(1);
        s.set_cpu_avail(NodeId(0), -3.0);
        assert_eq!(s.cpu_avail(NodeId(0)), 0.01);
        s.set_cpu_avail(NodeId(0), 2.0);
        assert_eq!(s.cpu_avail(NodeId(0)), 1.0);
        s.set_nic_load(NodeId(0), 5.0);
        assert_eq!(s.nic_load(NodeId(0)), 0.99);
    }

    #[test]
    fn step_pattern_switches_at_time() {
        let p = LoadPattern::Step {
            at: 10.0,
            before: 1.0,
            after: 0.5,
        };
        assert_eq!(p.at(0.0), 1.0);
        assert_eq!(p.at(9.999), 1.0);
        assert_eq!(p.at(10.0), 0.5);
    }

    #[test]
    fn drift_pattern_interpolates() {
        let p = LoadPattern::Drift {
            from: 1.0,
            to: 0.5,
            duration: 10.0,
        };
        assert!((p.at(5.0) - 0.75).abs() < 1e-12);
        assert_eq!(p.at(20.0), 0.5);
    }

    #[test]
    fn spikes_pattern_is_periodic() {
        let p = LoadPattern::Spikes {
            base: 1.0,
            depth: 0.4,
            period: 10.0,
            width: 1.0,
        };
        assert_eq!(p.at(0.5), 0.4);
        assert_eq!(p.at(5.0), 1.0);
        assert_eq!(p.at(10.5), 0.4);
    }

    #[test]
    fn timeline_samples_patterns() {
        let tl = LoadTimeline::idle(3).with(
            NodeId(1),
            LoadPattern::Step {
                at: 1.0,
                before: 1.0,
                after: 0.9,
            },
        );
        let s0 = tl.sample(0.0);
        let s1 = tl.sample(2.0);
        assert_eq!(s0.cpu_avail(NodeId(1)), 1.0);
        assert_eq!(s1.cpu_avail(NodeId(1)), 0.9);
        assert_eq!(s1.cpu_avail(NodeId(0)), 1.0);
    }

    #[test]
    fn timeline_with_replaces_existing_pattern() {
        let tl = LoadTimeline::idle(1)
            .with(NodeId(0), LoadPattern::Constant(0.5))
            .with(NodeId(0), LoadPattern::Constant(0.8));
        assert_eq!(tl.sample(0.0).cpu_avail(NodeId(0)), 0.8);
    }
}
