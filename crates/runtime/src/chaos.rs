//! Chaos harness: run a phased application under a fault schedule and
//! check the resilience invariants.
//!
//! A chaos run executes the orchestrator twice over the same application,
//! pool, and load timeline — once fault-free as the baseline, once under
//! the given [`FaultSchedule`] — and reduces both to a [`ChaosReport`].
//! The report carries the two invariants the fault model promises:
//!
//! 1. **No dead placements** — [`ChaosReport::down_assignments`] counts
//!    phase placements on nodes classified `Down` at scheduling time, and
//!    must be zero.
//! 2. **Bounded degradation** — [`ChaosReport::slowdown`] is the faulted
//!    completion time over the fault-free one; callers assert their own
//!    bound (the smoke tests use 2×).

use crate::{FaultSchedule, Orchestrator, PhasedApp, RunReport, RuntimeError};
use cbes_cluster::load::LoadTimeline;
use cbes_cluster::NodeId;

/// The outcome of one chaos run: the faulted execution next to its
/// fault-free baseline, plus the derived invariant figures.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The run under the fault schedule.
    pub faulted: RunReport,
    /// The same run with no faults injected.
    pub baseline: RunReport,
    /// `faulted.total / baseline.total`.
    pub slowdown: f64,
    /// Phase placements that landed on a node classified `Down` when that
    /// phase was scheduled. The orchestrator's health filter makes this 0;
    /// anything else is a resilience bug.
    pub down_assignments: usize,
}

impl ChaosReport {
    /// True when the run held both invariants: nothing was placed on a
    /// `Down` node and the slowdown stayed within `max_slowdown`.
    pub fn holds(&self, max_slowdown: f64) -> bool {
        self.down_assignments == 0 && self.slowdown <= max_slowdown
    }
}

fn down_assignments(report: &RunReport) -> usize {
    report
        .phases
        .iter()
        .map(|p| {
            p.mapping
                .iter()
                .filter(|(_, node)| p.down.contains(node))
                .count()
        })
        .sum()
}

impl Orchestrator<'_> {
    /// Run `app` on `pool` twice — fault-free, then under `faults` — and
    /// report both together.
    ///
    /// The faulted run uses the orchestrator exactly as production would:
    /// faults only reach it through masked monitoring reports and perturbed
    /// load samples, never through a side channel.
    pub fn run_chaos(
        &self,
        app: &PhasedApp,
        pool: &[NodeId],
        timeline: &LoadTimeline,
        faults: &FaultSchedule,
    ) -> Result<ChaosReport, RuntimeError> {
        let baseline = self.run(app, pool, timeline)?;
        let faulted = self.run_with_faults(app, pool, timeline, faults)?;
        let slowdown = if baseline.total > 0.0 {
            faulted.total / baseline.total
        } else {
            1.0
        };
        let down = down_assignments(&faulted);
        Ok(ChaosReport {
            faulted,
            baseline,
            slowdown,
            down_assignments: down,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RuntimeConfig;
    use cbes_cluster::presets::orange_grove;
    use cbes_cluster::{Architecture, Cluster};
    use cbes_core::health::HealthPolicy;
    use cbes_core::remap::{MigrationCost, RemapAnalysis};
    use cbes_sched::SaConfig;
    use cbes_workloads::npb::{lu, NpbClass};

    fn two_phase_app(n: usize) -> PhasedApp {
        let w = lu(n, NpbClass::S);
        PhasedApp::new("lu2", vec![w.program.clone(), w.program])
    }

    fn chaos_config() -> RuntimeConfig {
        RuntimeConfig {
            sa: SaConfig::fast(3),
            remap: RemapAnalysis {
                cost: MigrationCost {
                    image_bytes: 1 << 20,
                    transfer_bw: 12.5e6,
                    restart_cost: 0.02,
                    coordination_cost: 0.02,
                },
                threshold: 0.1,
            },
            // Tight staleness deadlines: the boundary's oldest sweep
            // clamps to t=0, where every node still reports, so only the
            // newer sweeps see the crash.
            health: HealthPolicy {
                suspect_after: 0,
                down_after: 1,
                suspect_cost_factor: 2.0,
            },
            ..RuntimeConfig::default()
        }
    }

    /// Pool: the 8 Alphas (fastest, the initial mapping) plus 8 Intels to
    /// fail over onto.
    fn pool_and_victim(cluster: &Cluster) -> (Vec<NodeId>, usize) {
        let alphas = cluster.nodes_by_arch(Architecture::Alpha);
        let victim = alphas[0].index();
        let mut pool = alphas;
        pool.extend(cluster.nodes_by_arch(Architecture::IntelPII));
        (pool, victim)
    }

    #[test]
    fn standard_schedule_completes_within_bounds() {
        let cluster = orange_grove();
        let (pool, victim) = pool_and_victim(&cluster);
        let faults = FaultSchedule::standard(cluster.len(), victim);
        let report = Orchestrator::new(&cluster, &cluster, chaos_config())
            .run_chaos(
                &two_phase_app(8),
                &pool,
                &LoadTimeline::idle(cluster.len()),
                &faults,
            )
            .expect("chaos run completes");
        assert_eq!(report.faulted.phases.len(), 2, "both phases executed");
        assert_eq!(
            report.down_assignments, 0,
            "no phase may run on a Down node: {report:?}"
        );
        assert!(
            report.slowdown <= 2.0,
            "slowdown {} exceeds the 2x bound (faulted {}s vs baseline {}s)",
            report.slowdown,
            report.faulted.total,
            report.baseline.total
        );
        assert!(report.holds(2.0));
        // The victim crashed after phase 0 started; phase 1 must have been
        // rescheduled off it.
        let victim_id = NodeId(victim as u32);
        assert!(
            !report.faulted.phases[1]
                .mapping
                .as_slice()
                .contains(&victim_id),
            "phase 1 still mapped on crashed node {victim_id}"
        );
        assert!(report.faulted.phases[1].down.contains(&victim_id));
        assert!(report.faulted.remaps >= 1, "crash must force a remap");
        assert!(report.faulted.health_transitions >= 1);
        // Fault-free baseline saw none of this.
        assert_eq!(report.baseline.remaps, 0);
        assert!(report.baseline.phases.iter().all(|p| p.down.is_empty()));
    }

    #[test]
    fn a_dropout_that_recovers_needs_no_remap_after_revival() {
        // Monitor dropout over phase boundary 1 only: node 4 goes silent
        // at t=0.5 and recovers well before the run would ever reach it
        // again. The run must still complete with bounded slowdown.
        let cluster = orange_grove();
        let (pool, _) = pool_and_victim(&cluster);
        let faults = FaultSchedule::new(cluster.len()).dropout(4, 0.5, 2.0);
        let report = Orchestrator::new(&cluster, &cluster, chaos_config())
            .run_chaos(
                &two_phase_app(8),
                &pool,
                &LoadTimeline::idle(cluster.len()),
                &faults,
            )
            .expect("chaos run completes");
        assert_eq!(report.down_assignments, 0);
        assert!(report.slowdown <= 2.0, "{report:?}");
    }

    #[test]
    fn seeded_random_schedules_hold_the_no_down_placement_invariant() {
        // A handful of seeded schedules; completion is not guaranteed for
        // arbitrary chaos (a schedule may kill too many pool nodes, which
        // surfaces as a typed SchedulingFailed — never a panic), but any
        // run that completes must never have placed work on a Down node.
        let cluster = orange_grove();
        let (pool, _) = pool_and_victim(&cluster);
        let mut completed = 0;
        for seed in 0..6u64 {
            let faults = FaultSchedule::random(cluster.len(), seed, 8.0, 4);
            match Orchestrator::new(&cluster, &cluster, chaos_config()).run_chaos(
                &two_phase_app(8),
                &pool,
                &LoadTimeline::idle(cluster.len()),
                &faults,
            ) {
                Ok(report) => {
                    completed += 1;
                    assert_eq!(report.down_assignments, 0, "seed {seed}: {report:?}");
                }
                Err(e) => {
                    // Typed degradation, not a crash.
                    let _ = e.to_string();
                }
            }
        }
        assert!(completed >= 1, "no seeded schedule completed at all");
    }
}
