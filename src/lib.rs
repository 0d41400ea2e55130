//! # CBES — Cost/Benefit Estimating Service
//!
//! A Rust reproduction of *"A Cost/Benefit Estimating Service for Mapping
//! Parallel Applications on Heterogeneous Clusters"* (Katramatos & Chapin,
//! IEEE CLUSTER 2005).
//!
//! This facade crate re-exports the whole workspace so that examples and
//! integration tests can use a single dependency:
//!
//! * [`cluster`] — heterogeneous cluster modelling (nodes, switches, links,
//!   topology, background load) plus the Centurion and Orange Grove presets.
//! * [`netmodel`] — the end-to-end network latency model, its off-line
//!   calibration procedure (with clique-parallel benchmark scheduling), the
//!   load-adjustment rule, and NWS-style forecasters.
//! * [`trace`] — execution traces and application-profile extraction
//!   (`X_i`, `O_i`, `B_i`, message groups, `λ_i`, per-architecture ratios).
//! * [`mpisim`] — a discrete-event simulator of message-passing programs on a
//!   modelled cluster; the stand-in for the paper's real MPI testbeds.
//! * [`core`] — the CBES service proper: mappings, the execution-time
//!   prediction operation (paper eq. 4–8), system snapshots, monitoring, and
//!   remapping cost/benefit analysis.
//! * [`runtime`] — run-time orchestration: phase-wise execution with
//!   monitored load, remapping decisions and migration charging (the
//!   paper's future-work loop), and the seeded fault schedules and chaos
//!   harness that exercise it.
//! * [`sched`] — schedulers: the default simulated-annealing scheduler (CS),
//!   the no-communication baseline (NCS), the random scheduler (RS), a greedy
//!   list scheduler, and a genetic-algorithm scheduler (paper future work).
//! * [`workloads`] — synthetic program generators standing in for NPB 2.4,
//!   HPL and the ASCI purple codes used in the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use cbes::prelude::*;
//!
//! // 1. Model a cluster and calibrate its latency model (off-line phase).
//! let cluster = cbes::cluster::presets::orange_grove();
//! let calib = Calibrator::default().calibrate(&cluster);
//!
//! // 2. Profile an application by running it once on a profiling mapping.
//! let app = cbes::workloads::npb::lu(8, NpbClass::S);
//! let pool: Vec<NodeId> = cluster.node_ids().take(8).collect();
//! let profiling = Mapping::new(pool.clone());
//! let sim = SimConfig::default().with_seed(7);
//! let run = simulate(&cluster, &app.program, profiling.as_slice(), &LoadState::idle(cluster.len()), &sim).unwrap();
//! let profile = extract_profile(&app.name, &run.trace, &cluster, profiling.as_slice(), &calib.model);
//!
//! // 3. Ask the CBES scheduler for a good mapping.
//! let snapshot = SystemSnapshot::no_load(&cluster, &calib.model);
//! let mut cs = SaScheduler::new(SaConfig::fast(1));
//! let result = cs.schedule(&ScheduleRequest::new(&profile, &snapshot, &pool)).unwrap();
//! assert!(result.predicted_time > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cbes_cluster as cluster;
pub use cbes_core as core;
pub use cbes_mpisim as mpisim;
pub use cbes_netmodel as netmodel;
pub use cbes_runtime as runtime;
pub use cbes_sched as sched;
pub use cbes_server as server;
pub use cbes_trace as trace;
pub use cbes_workloads as workloads;

/// Convenience re-exports of the most commonly used items.
pub mod prelude {
    pub use cbes_cluster::{
        load::LoadState, presets, Architecture, Cluster, ClusterBuilder, LatencyProvider, NodeId,
        SwitchId,
    };
    pub use cbes_core::{
        eval::{Evaluator, Prediction},
        mapping::Mapping,
        monitor::Monitor,
        remap::{RemapAnalysis, RemapDecision},
        service::CbesService,
        snapshot::SystemSnapshot,
    };
    pub use cbes_mpisim::{simulate, Op, Program, SimConfig, SimResult};
    pub use cbes_netmodel::{
        calibrate::{CalibrationOutcome, Calibrator},
        forecast::{Forecaster, LastValue, RunningMean, SlidingMedian},
        model::LatencyModel,
        LoadAdjuster,
    };
    pub use cbes_runtime::{Orchestrator, PhasedApp, RunReport, RuntimeConfig};
    pub use cbes_sched::{
        genetic::GeneticScheduler,
        greedy::GreedyScheduler,
        ncs::NcsScheduler,
        random::RandomScheduler,
        sa::{SaConfig, SaScheduler},
        ScheduleRequest, ScheduleResult, Scheduler,
    };
    pub use cbes_trace::{extract_profile, AppProfile, ProcessProfile, Trace};
    pub use cbes_workloads::{npb, npb::NpbClass, Workload};
}
