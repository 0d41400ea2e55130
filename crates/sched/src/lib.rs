//! CBES schedulers.
//!
//! The paper's default scheduler (**CS**) is a simulated-annealing search
//! whose energy function is the CBES mapping evaluation (eq. 4). Two
//! baselines frame the experiments: **NCS**, the same annealer with the
//! communication term dropped, and **RS**, a uniformly random mapping.
//! Additionally this crate provides a greedy list scheduler (a HEFT-flavoured
//! baseline) and a genetic-algorithm scheduler (the paper's named
//! future-work direction, §8).
//!
//! All schedulers work over a *pool* of candidate nodes (the resources made
//! available to the application by policy, §2) and return injective mappings
//! (one process per node), matching the paper's experimental setup.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod genetic;
pub mod greedy;
pub mod moves;
pub mod ncs;
pub mod random;
pub mod sa;
pub mod telemetry;

pub use genetic::{GaConfig, GeneticScheduler};
pub use greedy::GreedyScheduler;
pub use ncs::NcsScheduler;
pub use random::RandomScheduler;
pub use sa::{SaConfig, SaScheduler};
pub use telemetry::{NullSink, TelemetrySink};

use cbes_cluster::NodeId;
use cbes_core::eval::Evaluator;
use cbes_core::mapping::Mapping;
use cbes_core::snapshot::SystemSnapshot;
use cbes_trace::AppProfile;
use std::fmt;
use std::time::Duration;

/// A scheduling request: find a good mapping of `profile`'s processes onto
/// nodes drawn from `pool`, under the system conditions in `snapshot`.
///
/// The pool is filtered against the snapshot's health view at construction:
/// nodes classified `Down` are removed before any scheduler sees them, so
/// *no* scheduler — deterministic or randomised — can assign a process to a
/// down node.
pub struct ScheduleRequest<'a> {
    /// The application to schedule.
    pub profile: &'a AppProfile,
    /// Current system conditions.
    pub snapshot: &'a SystemSnapshot<'a>,
    /// Usable candidate nodes (the given pool minus `Down` nodes).
    usable: Vec<NodeId>,
    /// Nodes in the pool as requested, before health filtering.
    requested: usize,
}

impl<'a> ScheduleRequest<'a> {
    /// Build a request. `Down` nodes are dropped from `pool` here.
    pub fn new(
        profile: &'a AppProfile,
        snapshot: &'a SystemSnapshot<'a>,
        pool: &'a [NodeId],
    ) -> Self {
        let usable: Vec<NodeId> = pool
            .iter()
            .copied()
            .filter(|&n| snapshot.is_usable(n))
            .collect();
        ScheduleRequest {
            profile,
            snapshot,
            usable,
            requested: pool.len(),
        }
    }

    /// The candidate nodes schedulers may draw from (post health filter).
    pub fn pool(&self) -> &[NodeId] {
        &self.usable
    }

    /// Nodes excluded from the requested pool because they are `Down`.
    pub fn excluded_down(&self) -> usize {
        self.requested - self.usable.len()
    }

    /// Number of processes to place.
    pub fn num_procs(&self) -> usize {
        self.profile.num_procs()
    }

    /// An evaluator bound to this request's profile and snapshot.
    pub fn evaluator(&self) -> Evaluator<'a> {
        Evaluator::new(self.profile, self.snapshot)
    }

    /// Validate pool size and profile non-emptiness. The pool check runs
    /// against the *usable* pool, so a cluster with too many down nodes
    /// fails loudly instead of over-packing the survivors.
    pub fn validate(&self) -> Result<(), SchedError> {
        if self.num_procs() == 0 {
            return Err(SchedError::EmptyProfile);
        }
        if self.usable.len() < self.num_procs() {
            return Err(SchedError::PoolTooSmall {
                need: self.num_procs(),
                have: self.usable.len(),
                down: self.excluded_down(),
            });
        }
        Ok(())
    }
}

/// The outcome of one scheduling run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleResult {
    /// The selected mapping.
    pub mapping: Mapping,
    /// Full CBES execution-time prediction for the selected mapping
    /// (seconds). For NCS this is the *normalised prediction* the paper's
    /// tables report: the chosen mapping re-evaluated with the full
    /// operation.
    pub predicted_time: f64,
    /// The scheduler's own objective value for the selected mapping (equals
    /// `predicted_time` for CS; the compute-only score for NCS).
    pub score: f64,
    /// Number of mapping evaluations performed.
    pub evaluations: u64,
    /// Wall-clock scheduler time (the paper's "approximate scheduler time").
    pub elapsed: Duration,
}

/// Scheduler errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The candidate pool has fewer usable nodes than the application has
    /// processes.
    PoolTooSmall {
        /// Processes to place.
        need: usize,
        /// Usable pool size (after dropping `Down` nodes).
        have: usize,
        /// Nodes excluded from the requested pool because they are `Down`.
        down: usize,
    },
    /// The profile has no processes.
    EmptyProfile,
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::PoolTooSmall { need, have, down } => {
                write!(
                    f,
                    "pool has {have} usable nodes ({down} down) but {need} processes must be placed"
                )
            }
            SchedError::EmptyProfile => write!(f, "profile has no processes"),
        }
    }
}

impl std::error::Error for SchedError {}

/// A mapping scheduler.
pub trait Scheduler {
    /// Human-readable scheduler name ("CS", "NCS", "RS", ...).
    fn name(&self) -> &'static str;

    /// Find a mapping for the request.
    fn schedule(&mut self, req: &ScheduleRequest<'_>) -> Result<ScheduleResult, SchedError>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_cluster::Cluster;
    use cbes_trace::{MessageGroup, ProcessProfile};
    use std::collections::BTreeMap;

    /// A 4-process ring-communication profile: each rank exchanges many
    /// messages with its ring neighbours, so same-switch placements win.
    pub fn ring_profile(n: usize, compute: f64, msgs: u64, bytes: u64) -> AppProfile {
        let procs = (0..n)
            .map(|rank| {
                let next = (rank + 1) % n;
                let prev = (rank + n - 1) % n;
                ProcessProfile {
                    rank,
                    x: compute,
                    o: 0.05,
                    b: 0.5,
                    sends: vec![MessageGroup {
                        peer: next,
                        bytes,
                        count: msgs,
                    }],
                    recvs: vec![MessageGroup {
                        peer: prev,
                        bytes,
                        count: msgs,
                    }],
                    profile_speed: 1.0,
                    lambda: 1.0,
                }
            })
            .collect();
        AppProfile {
            name: format!("ring.{n}"),
            procs,
            arch_ratios: BTreeMap::new(),
        }
    }

    pub fn demo() -> Cluster {
        two_switch_demo()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::*;

    #[test]
    fn request_validation() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 1.0, 10, 1024);
        let pool: Vec<NodeId> = c.node_ids().collect();
        assert!(ScheduleRequest::new(&p, &snap, &pool).validate().is_ok());
        assert_eq!(
            ScheduleRequest::new(&p, &snap, &pool[..2])
                .validate()
                .unwrap_err(),
            SchedError::PoolTooSmall {
                need: 4,
                have: 2,
                down: 0
            }
        );
        let empty = AppProfile {
            name: "empty".into(),
            procs: vec![],
            arch_ratios: Default::default(),
        };
        assert_eq!(
            ScheduleRequest::new(&empty, &snap, &pool)
                .validate()
                .unwrap_err(),
            SchedError::EmptyProfile
        );
    }

    #[test]
    fn down_nodes_are_filtered_from_every_request_pool() {
        use cbes_core::health::{HealthView, NodeHealth};
        let c = demo();
        let mut snap = SystemSnapshot::no_load(&c, &c);
        let mut states = vec![NodeHealth::Healthy; c.len()];
        states[1] = NodeHealth::Down;
        states[5] = NodeHealth::Down;
        snap.set_health(HealthView::new(states, 2.0));
        let p = ring_profile(4, 1.0, 10, 1024);
        let pool: Vec<NodeId> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        assert_eq!(req.pool().len(), pool.len() - 2);
        assert_eq!(req.excluded_down(), 2);
        assert!(!req.pool().contains(&NodeId(1)));
        assert!(!req.pool().contains(&NodeId(5)));
        // Every scheduler draws from the filtered pool only.
        let mut schedulers: Vec<Box<dyn Scheduler>> = vec![
            Box::new(SaScheduler::new(SaConfig::fast(3))),
            Box::new(NcsScheduler::new(SaConfig::fast(4))),
            Box::new(GreedyScheduler::new()),
            Box::new(GeneticScheduler::new(GaConfig::fast(5))),
            Box::new(RandomScheduler::new(6)),
        ];
        for s in &mut schedulers {
            let r = s.schedule(&req).unwrap();
            for (_, node) in r.mapping.iter() {
                assert!(
                    node != NodeId(1) && node != NodeId(5),
                    "{} assigned a down node",
                    s.name()
                );
            }
        }
    }

    #[test]
    fn too_many_down_nodes_fail_loudly() {
        use cbes_core::health::{HealthView, NodeHealth};
        let c = demo();
        let mut snap = SystemSnapshot::no_load(&c, &c);
        // All but 2 nodes down; a 4-process app cannot be placed.
        let mut states = vec![NodeHealth::Down; c.len()];
        states[0] = NodeHealth::Healthy;
        states[1] = NodeHealth::Healthy;
        snap.set_health(HealthView::new(states, 2.0));
        let p = ring_profile(4, 1.0, 10, 1024);
        let pool: Vec<NodeId> = c.node_ids().collect();
        let err = ScheduleRequest::new(&p, &snap, &pool)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            SchedError::PoolTooSmall {
                need: 4,
                have: 2,
                down: c.len() - 2
            }
        );
    }

    #[test]
    fn error_display() {
        assert!(SchedError::PoolTooSmall {
            need: 8,
            have: 3,
            down: 1
        }
        .to_string()
        .contains("8 processes"));
    }
}
