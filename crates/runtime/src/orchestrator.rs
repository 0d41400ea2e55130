//! The monitoring / scheduling / remapping loop.

use crate::error::RuntimeError;
use crate::faults::FaultSchedule;
use crate::phased::PhasedApp;
use cbes_cluster::load::LoadTimeline;
use cbes_cluster::{Cluster, NodeId};
use cbes_core::eval::Evaluator;
use cbes_core::health::{HealthPolicy, HealthTracker, NodeHealth};
use cbes_core::mapping::Mapping;
use cbes_core::monitor::{ForecastKind, Monitor};
use cbes_core::remap::{RemapAnalysis, RemapDecision};
use cbes_core::snapshot::{NoLoad, SystemSnapshot};
use cbes_mpisim::{simulate, SimConfig};
use cbes_sched::{SaConfig, SaScheduler, ScheduleRequest, Scheduler};
use cbes_trace::profile::merge_profiles;
use cbes_trace::{extract_profile, AppProfile};

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Forecasting strategy of the monitor.
    pub forecast: ForecastKind,
    /// Remapping cost/benefit policy.
    pub remap: RemapAnalysis,
    /// Annealer configuration for (re)scheduling.
    pub sa: SaConfig,
    /// Simulator configuration for phase execution.
    pub sim: SimConfig,
    /// Monitoring sweeps taken at each phase boundary.
    pub sweeps_per_boundary: u32,
    /// Staleness deadlines for node health classification.
    pub health: HealthPolicy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            forecast: ForecastKind::Adaptive(8),
            remap: RemapAnalysis::default(),
            sa: SaConfig::thorough(1),
            sim: SimConfig::default(),
            sweeps_per_boundary: 3,
            health: HealthPolicy::default(),
        }
    }
}

/// What happened in one executed phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase index.
    pub phase: usize,
    /// Mapping the phase ran on.
    pub mapping: Mapping,
    /// CBES prediction for this phase under the conditions at its start.
    pub predicted: f64,
    /// Simulated wall time of the phase.
    pub wall: f64,
    /// True when a remap happened *before* this phase.
    pub remapped: bool,
    /// True when the remap was *forced* by a mapped node leaving
    /// `Healthy` (bypassing the cost/benefit analysis).
    pub forced: bool,
    /// Migration delay charged before the phase (0 when not remapped).
    pub migration: f64,
    /// Pool nodes classified `Down` when this phase was scheduled.
    pub down: Vec<NodeId>,
}

/// The outcome of a full orchestrated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-phase outcomes, in order.
    pub phases: Vec<PhaseReport>,
    /// Total completion time including migration delays.
    pub total: f64,
    /// Number of remapping events taken.
    pub remaps: usize,
    /// Health-state transitions observed over the run.
    pub health_transitions: u64,
}

impl RunReport {
    /// Sum of migration delays paid.
    pub fn migration_total(&self) -> f64 {
        self.phases.iter().map(|p| p.migration).sum()
    }
}

/// Drives a [`PhasedApp`] through execution on a cluster whose background
/// load evolves over a [`LoadTimeline`], re-evaluating the mapping at every
/// phase boundary.
pub struct Orchestrator<'a> {
    cluster: &'a Cluster,
    latency: NoLoad<'a>,
    config: RuntimeConfig,
}

impl<'a> Orchestrator<'a> {
    /// An orchestrator over `cluster` with the given calibrated latency
    /// source.
    pub fn new(
        cluster: &'a Cluster,
        latency: impl Into<NoLoad<'a>>,
        config: RuntimeConfig,
    ) -> Self {
        Orchestrator {
            cluster,
            latency: latency.into(),
            config,
        }
    }

    /// Profile each phase once on `profiling_nodes` (idle system).
    fn profile_phases(
        &self,
        app: &PhasedApp,
        profiling_nodes: &[NodeId],
    ) -> Result<Vec<AppProfile>, RuntimeError> {
        let idle = cbes_cluster::load::LoadState::idle(self.cluster.len());
        app.phases
            .iter()
            .enumerate()
            .map(|(i, program)| {
                let run = simulate(
                    self.cluster,
                    program,
                    profiling_nodes,
                    &idle,
                    &self.config.sim,
                )?;
                Ok(extract_profile(
                    &format!("{}#{}", app.name, i),
                    &run.trace,
                    self.cluster,
                    profiling_nodes,
                    &self.latency,
                ))
            })
            .collect()
    }

    /// Execute the application, re-considering the mapping at every phase
    /// boundary against the load in `timeline`.
    ///
    /// `pool` is the candidate node set; phases are profiled on its first
    /// `n` nodes. Returns the full per-phase report.
    pub fn run(
        &self,
        app: &PhasedApp,
        pool: &[NodeId],
        timeline: &LoadTimeline,
    ) -> Result<RunReport, RuntimeError> {
        self.run_with_faults(app, pool, timeline, &FaultSchedule::new(self.cluster.len()))
    }

    /// Like [`Orchestrator::run`], but under a fault schedule:
    /// each monitoring sweep and each phase execution samples the
    /// disturbance active at that simulated instant. Crashed and
    /// dropped-out nodes stop reporting, so they age toward `Suspect` and
    /// `Down` under the configured health policy; `Down` nodes are
    /// excluded from scheduling, and a mapped node leaving `Healthy`
    /// forces a remap regardless of the cost/benefit analysis.
    pub fn run_with_faults(
        &self,
        app: &PhasedApp,
        pool: &[NodeId],
        timeline: &LoadTimeline,
        faults: &FaultSchedule,
    ) -> Result<RunReport, RuntimeError> {
        let n = app.num_ranks();
        let n_nodes = self.cluster.len();
        let profiles = self.profile_phases(app, &pool[..n])?;
        let mut monitor = Monitor::new(n_nodes, self.config.forecast);
        let mut tracker = HealthTracker::new(n_nodes, self.config.health);

        // Remaining-work profile from phase k onward.
        let remaining = |k: usize| {
            let parts: Vec<&AppProfile> = profiles[k..].iter().collect();
            merge_profiles(&format!("{}@{}", app.name, k), &parts)
        };

        let mut now = 0.0f64;
        let mut mapping: Option<Mapping> = None;
        let mut phases = Vec::with_capacity(app.num_phases());
        let mut remaps = 0usize;

        #[allow(clippy::needless_range_loop)] // k indexes phases AND profiles
        for k in 0..app.num_phases() {
            // Monitoring sweeps observe the recent ground truth, oldest
            // first, ending at the current instant. Injected faults mask
            // reports from crashed / dropped-out nodes and perturb the
            // measured load.
            for s in (0..self.config.sweeps_per_boundary).rev() {
                let ts = (now - s as f64).max(0.0);
                let mut ground = timeline.sample(ts);
                let d = faults.sample(ts, n_nodes);
                d.apply_to(&mut ground);
                let mask = d.reported_mask();
                monitor.observe_partial(&ground, &mask);
                tracker.record_sweep(&mask);
            }
            let forecast = monitor.forecast();
            let health = tracker.view();
            let down: Vec<NodeId> = pool
                .iter()
                .copied()
                .filter(|&nd| !health.is_usable(nd))
                .collect();
            let mut snap = SystemSnapshot::no_load(self.cluster, self.latency);
            snap.set_load(forecast);
            snap.set_health(health.clone());

            let work_left = remaining(k);
            let req = ScheduleRequest::new(&work_left, &snap, pool);
            let fresh = SaScheduler::new(self.config.sa).schedule(&req)?;

            let (chosen, remapped, forced, migration) = match &mapping {
                None => (fresh.mapping.clone(), false, false, 0.0),
                Some(current) => {
                    let unhealthy_mapped = current
                        .as_slice()
                        .iter()
                        .any(|&nd| health.health(nd) != NodeHealth::Healthy);
                    if unhealthy_mapped && fresh.mapping != *current {
                        // A mapped node left Healthy: migrate away without
                        // consulting the cost/benefit analysis.
                        let moved = current.moved_ranks(&fresh.mapping).len();
                        remaps += 1;
                        (
                            fresh.mapping.clone(),
                            true,
                            true,
                            self.config.remap.cost.total(moved),
                        )
                    } else {
                        let ev = Evaluator::new(&work_left, &snap);
                        match self.config.remap.decide(&ev, current, &fresh.mapping, 0.0) {
                            RemapDecision::Remap { .. } => {
                                let moved = current.moved_ranks(&fresh.mapping).len();
                                remaps += 1;
                                (
                                    fresh.mapping.clone(),
                                    true,
                                    false,
                                    self.config.remap.cost.total(moved),
                                )
                            }
                            RemapDecision::Stay { .. } => (current.clone(), false, false, 0.0),
                        }
                    }
                }
            };
            now += migration;

            // Execute the phase against the *actual* (fault-perturbed)
            // load at this time.
            let mut actual = timeline.sample(now);
            faults.sample(now, n_nodes).apply_to(&mut actual);
            let phase_profile = &profiles[k];
            let snap_now = {
                let mut s = SystemSnapshot::no_load(self.cluster, self.latency);
                s.set_load(actual.clone());
                s
            };
            let predicted = Evaluator::new(phase_profile, &snap_now).predict_time(&chosen);
            let mut sim = self.config.sim.clone();
            sim.seed = sim.seed.wrapping_add(k as u64 + 1);
            sim.collect_trace = false;
            let wall = simulate(
                self.cluster,
                &app.phases[k],
                chosen.as_slice(),
                &actual,
                &sim,
            )?
            .wall_time;
            now += wall;
            phases.push(PhaseReport {
                phase: k,
                mapping: chosen.clone(),
                predicted,
                wall,
                remapped,
                forced,
                migration,
                down,
            });
            mapping = Some(chosen);
        }

        Ok(RunReport {
            phases,
            total: now,
            remaps,
            health_transitions: tracker.transitions(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::load::LoadPattern;
    use cbes_cluster::presets::orange_grove;
    use cbes_cluster::Architecture;
    use cbes_core::remap::MigrationCost;
    use cbes_mpisim::{Op, Program};
    use cbes_workloads::npb::{lu, NpbClass};

    fn two_phase_app(n: usize) -> PhasedApp {
        // Two identical comm+compute phases so remapping mid-run is
        // meaningful.
        let w = lu(n, NpbClass::S);
        PhasedApp::new("lu2", vec![w.program.clone(), w.program])
    }

    fn cheap_config() -> RuntimeConfig {
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
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn stable_load_runs_without_remapping() {
        let cluster = orange_grove();
        let orch = Orchestrator::new(&cluster, &cluster, cheap_config());
        let app = two_phase_app(8);
        let pool: Vec<_> = cluster.nodes_by_arch(Architecture::Alpha);
        let report = orch
            .run(&app, &pool, &LoadTimeline::idle(cluster.len()))
            .expect("run");
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.remaps, 0);
        assert!(report.total > 0.0);
        assert_eq!(report.migration_total(), 0.0);
        // Both phases stayed on the same mapping.
        assert_eq!(report.phases[0].mapping, report.phases[1].mapping);
    }

    #[test]
    fn heavy_load_on_mapped_nodes_triggers_remap() {
        let cluster = orange_grove();
        let orch = Orchestrator::new(&cluster, &cluster, cheap_config());
        let app = two_phase_app(8);
        // Pool: the 8 Alphas plus 8 Intels; the initial schedule uses some
        // Alphas (they are the fastest nodes).
        let alphas = cluster.nodes_by_arch(Architecture::Alpha);
        let mut pool = alphas.clone();
        pool.extend(cluster.nodes_by_arch(Architecture::IntelPII));
        // After phase 0 is underway, every Alpha gets hammered.
        let mut timeline = LoadTimeline::idle(cluster.len());
        for &node in &alphas {
            timeline = timeline.with(
                node,
                LoadPattern::Step {
                    at: 1.0,
                    before: 1.0,
                    after: 0.25,
                },
            );
        }
        let report = orch.run(&app, &pool, &timeline).expect("run");
        assert_eq!(report.remaps, 1, "{report:?}");
        assert!(report.phases[1].remapped);
        assert!(report.phases[1].migration > 0.0);
        // The remap must leave the hammered Alphas entirely.
        for &bad in &alphas {
            assert!(
                !report.phases[1].mapping.as_slice().contains(&bad),
                "remap should avoid loaded node {bad}"
            );
        }
    }

    #[test]
    fn mapped_node_going_silent_forces_a_remap() {
        let cluster = orange_grove();
        let mut config = cheap_config();
        // Tight deadlines: two silent sweeps are enough to reach Down
        // (the boundary's oldest sweep clamps to t=0, where the victim
        // still reports).
        config.health = cbes_core::health::HealthPolicy {
            suspect_after: 0,
            down_after: 1,
            suspect_cost_factor: 2.0,
        };
        let orch = Orchestrator::new(&cluster, &cluster, config);
        let app = two_phase_app(8);
        // Pool: 8 Alphas (fastest — the initial mapping) + 8 Intels to
        // migrate onto.
        let alphas = cluster.nodes_by_arch(Architecture::Alpha);
        let mut pool = alphas.clone();
        pool.extend(cluster.nodes_by_arch(Architecture::IntelPII));
        let victim = alphas[0];
        let faults = FaultSchedule::new(cluster.len()).dropout(victim.index(), 0.5, f64::INFINITY);
        let report = orch
            .run_with_faults(&app, &pool, &LoadTimeline::idle(cluster.len()), &faults)
            .expect("run");
        // Phase 0 was scheduled before the dropout and uses the victim.
        assert!(report.phases[0].mapping.as_slice().contains(&victim));
        assert!(report.phases[0].down.is_empty());
        // By the phase-1 boundary the victim aged to Down: the remap is
        // forced and the new mapping avoids it.
        assert!(report.phases[1].down.contains(&victim), "{report:?}");
        assert!(report.phases[1].remapped && report.phases[1].forced);
        assert!(!report.phases[1].mapping.as_slice().contains(&victim));
        assert!(report.health_transitions >= 1);
    }

    #[test]
    fn phase_predictions_track_phase_walls() {
        let cluster = orange_grove();
        let orch = Orchestrator::new(&cluster, &cluster, cheap_config());
        let app = two_phase_app(8);
        let pool: Vec<_> = cluster.nodes_by_arch(Architecture::Alpha);
        let report = orch
            .run(&app, &pool, &LoadTimeline::idle(cluster.len()))
            .expect("run");
        for p in &report.phases {
            let err = (p.predicted - p.wall).abs() / p.wall;
            assert!(err < 0.10, "phase {} error {err}", p.phase);
        }
    }

    #[test]
    fn single_phase_app_degenerates_to_one_schedule() {
        let cluster = orange_grove();
        let orch = Orchestrator::new(&cluster, &cluster, cheap_config());
        let mut p = Program::new(4);
        p.push_all(Op::Compute { seconds: 0.1 });
        let app = PhasedApp::new("one", vec![p]);
        let pool: Vec<_> = cluster.nodes_by_arch(Architecture::Alpha);
        let report = orch
            .run(&app, &pool, &LoadTimeline::idle(cluster.len()))
            .expect("run");
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.remaps, 0);
    }
}
