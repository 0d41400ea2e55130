//! Remapping cost/benefit analysis.
//!
//! The paper's design calls for generating "a new mapping for that
//! application, that may yield an even shorter execution time (lower cost)
//! for the remainder of the execution, taking into account the task
//! remapping costs" (§2). This module implements that trade-off: given how
//! far execution has progressed, compare staying on the current mapping with
//! migrating to a candidate one.

use crate::eval::Evaluator;
use crate::mapping::Mapping;
use serde::{Deserialize, Serialize};

/// Model of what migrating one process costs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCost {
    /// Checkpoint image size per process, bytes.
    pub image_bytes: u64,
    /// Effective transfer bandwidth for checkpoint images, bytes/second.
    pub transfer_bw: f64,
    /// Fixed per-process teardown + restart cost, seconds.
    pub restart_cost: f64,
    /// Fixed per-event coordination cost (quiesce, reconnect), seconds.
    pub coordination_cost: f64,
}

impl Default for MigrationCost {
    fn default() -> Self {
        MigrationCost {
            image_bytes: 64 << 20, // 64 MiB image
            transfer_bw: 12.5e6,   // fast ethernet
            restart_cost: 2.0,
            coordination_cost: 1.0,
        }
    }
}

impl MigrationCost {
    /// Total cost of migrating `moved` processes. Transfers are assumed
    /// parallel across distinct node pairs, so the transfer term is paid
    /// once, while restarts are serialised on the coordinator.
    pub fn total(&self, moved: usize) -> f64 {
        if moved == 0 {
            return 0.0;
        }
        self.coordination_cost
            + self.image_bytes as f64 / self.transfer_bw
            + self.restart_cost * moved as f64
    }
}

/// The verdict of a remapping analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum RemapDecision {
    /// Migrate: the candidate saves `saving` seconds net of migration cost.
    Remap {
        /// Net seconds saved over staying put.
        saving: f64,
    },
    /// Stay on the current mapping (candidate not worth it).
    Stay {
        /// Seconds the candidate would *lose* (≥ 0).
        deficit: f64,
    },
}

/// Cost/benefit analysis of remapping a running application.
#[derive(Debug, Clone)]
pub struct RemapAnalysis {
    /// Migration cost model.
    pub cost: MigrationCost,
    /// Minimum net saving (seconds) required to trigger a remap — guards
    /// against churning on noise.
    pub threshold: f64,
}

impl Default for RemapAnalysis {
    fn default() -> Self {
        RemapAnalysis {
            cost: MigrationCost::default(),
            threshold: 1.0,
        }
    }
}

impl RemapAnalysis {
    /// Decide whether to migrate from `current` to `candidate` when a
    /// fraction `progress` (`0..1`) of the application has completed.
    ///
    /// Remaining time on either mapping is `(1 - progress) · S_M` under the
    /// *current* snapshot conditions (captured inside `evaluator`); the
    /// candidate additionally pays the migration cost for every moved rank.
    pub fn decide(
        &self,
        evaluator: &Evaluator<'_>,
        current: &Mapping,
        candidate: &Mapping,
        progress: f64,
    ) -> RemapDecision {
        let progress = progress.clamp(0.0, 1.0);
        let remain = 1.0 - progress;
        let stay = remain * evaluator.predict_time(current);
        let moved = current.moved_ranks(candidate).len();
        let go = remain * evaluator.predict_time(candidate) + self.cost.total(moved);
        let saving = stay - go;
        if saving > self.threshold {
            RemapDecision::Remap { saving }
        } else {
            RemapDecision::Stay {
                deficit: (-saving).max(0.0),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SystemSnapshot;
    use cbes_cluster::load::LoadState;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_cluster::NodeId;
    use cbes_netmodel::LoadAdjuster;
    use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
    use std::collections::BTreeMap;

    fn profile(compute: f64) -> AppProfile {
        let mk = |rank: usize| ProcessProfile {
            rank,
            x: compute,
            o: 0.0,
            b: 1.0,
            sends: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 4096,
                count: 200,
            }],
            recvs: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 4096,
                count: 200,
            }],
            profile_speed: 1.0,
            lambda: 1.0,
        };
        AppProfile {
            name: "app".into(),
            procs: vec![mk(0), mk(1)],
            arch_ratios: BTreeMap::new(),
        }
    }

    fn m(ids: &[u32]) -> Mapping {
        Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    #[test]
    fn migration_cost_is_zero_for_no_moves() {
        assert_eq!(MigrationCost::default().total(0), 0.0);
        assert!(MigrationCost::default().total(1) > 0.0);
        assert!(MigrationCost::default().total(4) > MigrationCost::default().total(1));
    }

    #[test]
    fn heavily_loaded_current_node_triggers_remap() {
        let c = two_switch_demo();
        let mut load = LoadState::idle(c.len());
        load.set_cpu_avail(NodeId(0), 0.1); // node 0 nearly saturated
        let snap = SystemSnapshot::new(&c, &c, LoadAdjuster::default(), load);
        let p = profile(500.0);
        let ev = Evaluator::new(&p, &snap);
        let analysis = RemapAnalysis {
            cost: MigrationCost {
                restart_cost: 1.0,
                coordination_cost: 0.5,
                ..MigrationCost::default()
            },
            threshold: 1.0,
        };
        // Move rank 0 off the loaded node early in the run.
        let d = analysis.decide(&ev, &m(&[0, 1]), &m(&[2, 1]), 0.1);
        assert!(matches!(d, RemapDecision::Remap { .. }), "{d:?}");
    }

    #[test]
    fn late_progress_makes_migration_pointless() {
        let c = two_switch_demo();
        let mut load = LoadState::idle(c.len());
        load.set_cpu_avail(NodeId(0), 0.1);
        let snap = SystemSnapshot::new(&c, &c, LoadAdjuster::default(), load);
        let p = profile(500.0);
        let ev = Evaluator::new(&p, &snap);
        let analysis = RemapAnalysis::default();
        // 99.9% done: the leftover saving cannot amortise migration.
        let d = analysis.decide(&ev, &m(&[0, 1]), &m(&[2, 1]), 0.999);
        assert!(!matches!(d, RemapDecision::Remap { .. }), "{d:?}");
    }

    #[test]
    fn identical_candidate_never_remaps() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile(100.0);
        let ev = Evaluator::new(&p, &snap);
        let d = RemapAnalysis::default().decide(&ev, &m(&[0, 1]), &m(&[0, 1]), 0.5);
        assert_eq!(d, RemapDecision::Stay { deficit: 0.0 });
    }

    #[test]
    fn threshold_suppresses_marginal_wins() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile(100.0);
        let ev = Evaluator::new(&p, &snap);
        // Cross-switch -> same-switch saves a little communication time, but
        // with a huge threshold we stay.
        let analysis = RemapAnalysis {
            cost: MigrationCost {
                image_bytes: 0,
                restart_cost: 0.0,
                coordination_cost: 0.0,
                transfer_bw: 1.0,
            },
            threshold: 1e9,
        };
        let d = analysis.decide(&ev, &m(&[0, 4]), &m(&[0, 1]), 0.0);
        assert!(!matches!(d, RemapDecision::Remap { .. }));
    }
}
