//! Shared machinery for the LU scheduling experiments (figure 6, tables
//! 1–2, figure 7) and the table 3/4 program suite.

use crate::harness::{parallel_map, Testbed};
use crate::zones::Zone;
use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use cbes_sched::{
    NcsScheduler, RandomScheduler, SaConfig, SaScheduler, ScheduleRequest, Scheduler,
};
use cbes_trace::AppProfile;
use cbes_workloads::Workload;
use std::time::Duration;

/// Outcome of one scheduling run followed by one measured execution of the
/// selected mapping.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The selected mapping.
    pub mapping: Mapping,
    /// Full CBES prediction for the selection (for NCS: the normalised
    /// prediction — paper table 2 note).
    pub predicted: f64,
    /// Measured ("actual") execution time of the selection.
    pub measured: f64,
    /// Scheduler wall-clock time.
    pub elapsed: Duration,
}

/// Which scheduler to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// The CBES scheduler (full evaluation energy).
    Cs,
    /// The no-communication baseline.
    Ncs,
    /// Uniform random selection.
    Rs,
}

impl Driver {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Driver::Cs => "CS",
            Driver::Ncs => "NCS",
            Driver::Rs => "RS",
        }
    }
}

/// A workload and the profile taken of it — what a scheduling run needs.
pub struct ProfiledApp {
    /// The workload.
    pub workload: Workload,
    /// Its profile.
    pub profile: AppProfile,
}

impl ProfiledApp {
    /// Profile `workload` on `mapping` (idle system).
    pub fn new(tb: &Testbed, workload: Workload, mapping: &[NodeId], seed: u64) -> Self {
        let profile = tb.profile(&workload, mapping, seed);
        ProfiledApp { workload, profile }
    }
}

/// Run `runs` independent scheduling requests with `driver` over `pool`,
/// measuring each selected mapping once. Runs fan out across threads.
pub fn run_scheduler(
    tb: &Testbed,
    app: &ProfiledApp,
    pool: &[NodeId],
    driver: Driver,
    runs: usize,
    base_seed: u64,
) -> Vec<RunOutcome> {
    let idle = LoadState::idle(tb.cluster.len());
    let w = &app.workload;
    parallel_map((0..runs as u64).collect(), |i| {
        let seed = base_seed.wrapping_add(i).wrapping_mul(2654435761);
        let snap = tb.snapshot();
        let req = ScheduleRequest::new(&app.profile, &snap, pool);
        let result = match driver {
            Driver::Cs => SaScheduler::new(SaConfig::thorough(seed)).schedule(&req),
            Driver::Ncs => NcsScheduler::new(SaConfig::thorough(seed)).schedule(&req),
            Driver::Rs => RandomScheduler::new(seed).schedule(&req),
        }
        .expect("scheduling over validated pool cannot fail");
        let measured = tb.measure(w, &result.mapping, &idle, base_seed ^ (i << 16) ^ 0xF00D);
        RunOutcome {
            mapping: result.mapping,
            predicted: result.predicted_time,
            measured,
            elapsed: result.elapsed,
        }
    })
}

/// Measure every mapping in `mappings` once (parallel). Returns measured
/// times in order.
pub fn measure_all(tb: &Testbed, w: &Workload, mappings: &[Mapping], base_seed: u64) -> Vec<f64> {
    let idle = LoadState::idle(tb.cluster.len());
    parallel_map(mappings.to_vec(), |m| {
        // Hash the mapping into the seed so distinct mappings get distinct
        // (but reproducible) noise streams.
        let mut h = base_seed;
        for (_, n) in m.iter() {
            h = h.wrapping_mul(31).wrapping_add(n.0 as u64 + 1);
        }
        tb.measure(w, &m, &idle, h)
    })
}

/// Fraction of outcomes whose *predicted* time is within `tol` (relative)
/// of the best prediction seen — the paper's "hit" percentage (selections
/// of mappings with minimum execution time). Judged on predictions rather
/// than single measurements so run-to-run measurement noise does not
/// misclassify a correct selection.
pub fn hit_rate(outcomes: &[RunOutcome], best_predicted: f64, tol: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let hits = outcomes
        .iter()
        .filter(|o| o.predicted <= best_predicted * (1.0 + tol))
        .count();
    hits as f64 / outcomes.len() as f64 * 100.0
}

/// The measured times of `outcomes`, in order.
pub fn measured(outcomes: &[RunOutcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.measured).collect()
}

/// The predicted times of `outcomes`, in order.
pub fn predicted(outcomes: &[RunOutcome]) -> Vec<f64> {
    outcomes.iter().map(|o| o.predicted).collect()
}

/// Mean scheduler wall time in seconds.
pub fn mean_sched_secs(outcomes: &[RunOutcome]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes
        .iter()
        .map(|o| o.elapsed.as_secs_f64())
        .sum::<f64>()
        / outcomes.len() as f64
}

/// The LU workload (8 processes, class A) used by figures 6–7 and tables
/// 1–2, profiled once on the high-speed (Alpha) group, as the paper
/// profiles on a reference set.
pub fn prepare_lu(tb: &Testbed, zones: &[Zone]) -> ProfiledApp {
    let workload = cbes_workloads::npb::lu(8, cbes_workloads::npb::NpbClass::A);
    ProfiledApp::new(tb, workload, &zones[0].pool, 0x1111)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zones::{lu_zones, sample_mappings};

    #[test]
    fn scheduler_runs_produce_measured_outcomes() {
        let tb = Testbed::orange_grove(5);
        let zones = lu_zones(&tb.cluster);
        // Tiny LU for test speed.
        let w = cbes_workloads::npb::lu(8, cbes_workloads::npb::NpbClass::S);
        let app = ProfiledApp::new(&tb, w, &zones[0].pool, 3);
        let out = run_scheduler(&tb, &app, &zones[0].pool, Driver::Rs, 4, 1);
        assert_eq!(out.len(), 4);
        for o in &out {
            assert!(o.predicted > 0.0 && o.measured > 0.0);
            assert!(o.mapping.is_injective());
        }
    }

    #[test]
    fn hit_rate_counts_near_best() {
        let mk = |m: f64| RunOutcome {
            mapping: Mapping::new(vec![]),
            predicted: m,
            measured: m,
            elapsed: Duration::ZERO,
        };
        let outs = vec![mk(1.0), mk(1.005), mk(1.2)];
        assert!((hit_rate(&outs, 1.0, 0.01) - 66.6667).abs() < 0.01);
        assert_eq!(hit_rate(&[], 1.0, 0.01), 0.0);
    }

    #[test]
    fn measure_all_is_deterministic_per_mapping() {
        let tb = Testbed::orange_grove(5);
        let zones = lu_zones(&tb.cluster);
        let w = cbes_workloads::npb::lu(8, cbes_workloads::npb::NpbClass::S);
        let ms = sample_mappings(&zones[0].pool, 8, 3, 77);
        let a = measure_all(&tb, &w, &ms, 9);
        let b = measure_all(&tb, &w, &ms, 9);
        assert_eq!(a, b);
    }
}
