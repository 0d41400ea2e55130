//! The default CBES scheduler (CS): simulated annealing with the mapping
//! evaluation operation as the energy function (paper §6, refs \[19\]\[20\]).

use crate::moves::SearchState;
use crate::telemetry::{NullSink, TelemetrySink};
use crate::{SchedError, ScheduleRequest, ScheduleResult, Scheduler};
use cbes_core::eval::Evaluator;
use cbes_core::mapping::Mapping;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Which objective the annealer minimises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Full CBES prediction `max_i (R_i + C_i)` — the CS scheduler.
    FullPrediction,
    /// Computation-only score `max_i R_i` — the NCS baseline (paper §6).
    ComputeOnly,
}

/// Simulated-annealing configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaConfig {
    /// Iterations per restart.
    pub iters: u32,
    /// Independent restarts (best result wins).
    pub restarts: u32,
    /// Initial temperature as a fraction of the initial energy.
    pub t0_frac: f64,
    /// Final temperature as a fraction of the initial temperature; the
    /// geometric cooling rate is derived from this and `iters`.
    pub t_end_frac: f64,
    /// Probability that a proposed move is a rank swap (vs. a node
    /// replacement from the spare pool).
    pub swap_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SaConfig {
    /// A fast configuration for interactive scheduling (~2k evaluations).
    pub fn fast(seed: u64) -> Self {
        SaConfig {
            iters: 2_000,
            restarts: 1,
            t0_frac: 0.05,
            t_end_frac: 1e-4,
            swap_prob: 0.5,
            seed,
        }
    }

    /// A thorough configuration (~20k evaluations over 2 restarts).
    pub fn thorough(seed: u64) -> Self {
        SaConfig {
            iters: 10_000,
            restarts: 2,
            t0_frac: 0.08,
            t_end_frac: 1e-5,
            swap_prob: 0.5,
            seed,
        }
    }

    /// Geometric cooling factor per iteration.
    fn cooling(&self) -> f64 {
        if self.iters <= 1 {
            return 1.0;
        }
        self.t_end_frac.powf(1.0 / (self.iters as f64 - 1.0))
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig::fast(1)
    }
}

/// The simulated-annealing scheduler. With [`Objective::FullPrediction`]
/// this is the paper's CS; `cbes-sched::NcsScheduler` wraps the same core
/// with [`Objective::ComputeOnly`].
#[derive(Debug, Clone)]
pub struct SaScheduler {
    config: SaConfig,
    objective: Objective,
}

impl SaScheduler {
    /// The CS scheduler with the given configuration.
    pub fn new(config: SaConfig) -> Self {
        SaScheduler {
            config,
            objective: Objective::FullPrediction,
        }
    }

    /// An annealer with an explicit objective (used by NCS and ablations).
    pub fn with_objective(config: SaConfig, objective: Objective) -> Self {
        SaScheduler { config, objective }
    }

    /// The configured objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    fn energy(&self, ev: &Evaluator<'_>, m: &Mapping) -> f64 {
        match self.objective {
            Objective::FullPrediction => ev.predict_time(m),
            Objective::ComputeOnly => ev.compute_only_score(m),
        }
    }

    /// One annealing run from a random initial state; returns the best
    /// mapping, its energy, and the number of evaluations.
    ///
    /// Generic over the sink so the disabled-telemetry path
    /// ([`NullSink`]) compiles to the bare loop.
    fn anneal<S: TelemetrySink>(
        &self,
        req: &ScheduleRequest<'_>,
        ev: &Evaluator<'_>,
        rng: &mut StdRng,
        sink: &mut S,
    ) -> (Mapping, f64, u64) {
        let n = req.num_procs();
        let mut state = SearchState::random(req.pool(), n, rng);
        let mut current = self.energy(ev, &state.mapping());
        let mut evals = 1u64;
        let mut best = (state.mapping(), current);
        sink.on_improvement(evals, current);

        let mut temp = (current * self.config.t0_frac).max(f64::MIN_POSITIVE);
        let cooling = self.config.cooling();

        for _ in 0..self.config.iters {
            let mv = state.propose(self.config.swap_prob, rng);
            state.apply(mv);
            let cand = self.energy(ev, &state.mapping());
            evals += 1;
            let accept = cand <= current || {
                let p = (-(cand - current) / temp).exp();
                rng.random_range(0.0..1.0) < p
            };
            sink.on_move(temp, accept);
            if accept {
                current = cand;
                if current < best.1 {
                    best = (state.mapping(), current);
                    sink.on_improvement(evals, current);
                }
            } else {
                state.apply(mv); // undo
            }
            temp *= cooling;
        }
        sink.on_restart(best.1);
        (best.0, best.1, evals)
    }

    /// Like [`Scheduler::schedule`], reporting the annealing loop's
    /// progress into `sink` (per-temperature acceptance, best-energy
    /// trace, move rate).
    pub fn schedule_with_sink<S: TelemetrySink>(
        &mut self,
        req: &ScheduleRequest<'_>,
        sink: &mut S,
    ) -> Result<ScheduleResult, SchedError> {
        req.validate()?;
        let start = sink.clock();
        let ev = req.evaluator();
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let mut evals = 0u64;
        let mut best: Option<(Mapping, f64)> = None;
        for _ in 0..self.config.restarts.max(1) {
            let (m, e, n) = self.anneal(req, &ev, &mut rng, sink);
            evals += n;
            if best.as_ref().is_none_or(|(_, be)| e < *be) {
                best = Some((m, e));
            }
        }
        let (mapping, score) = best.expect("at least one restart runs");
        // The tables report NCS mappings re-evaluated with the full
        // operation ("normalised prediction"); for CS this is the score.
        let predicted_time = ev.predict_time(&mapping);
        Ok(ScheduleResult {
            mapping,
            predicted_time,
            score,
            evaluations: evals,
            elapsed: sink.clock().saturating_sub(start),
        })
    }
}

impl Scheduler for SaScheduler {
    fn name(&self) -> &'static str {
        match self.objective {
            Objective::FullPrediction => "CS",
            Objective::ComputeOnly => "NCS",
        }
    }

    fn schedule(&mut self, req: &ScheduleRequest<'_>) -> Result<ScheduleResult, SchedError> {
        self.schedule_with_sink(req, &mut NullSink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use cbes_core::snapshot::SystemSnapshot;

    #[test]
    fn cs_finds_same_switch_mapping_for_comm_heavy_ring() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        // Communication-dominated: many messages, small compute.
        let p = ring_profile(4, 0.05, 500, 8192);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        // Restarts make the stochastic search robust to the RNG stream
        // (a single fast() run can stall in a cross-switch local optimum).
        let mut cs = SaScheduler::new(SaConfig {
            restarts: 4,
            ..SaConfig::fast(7)
        });
        let r = cs.schedule(&req).unwrap();
        // All four ranks on one switch: pairwise same-switch.
        let m = r.mapping.as_slice();
        let sw: Vec<_> = m.iter().map(|&n| c.node(n).switch).collect();
        assert!(
            sw.iter().all(|&s| s == sw[0]),
            "CS should co-locate the ring on one switch, got {:?}",
            r.mapping
        );
        assert!(r.evaluations > 1000);
        assert!(r.mapping.is_injective());
    }

    #[test]
    fn cs_prefers_fast_nodes_for_compute_heavy_app() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        // Compute-dominated: Alphas (nodes 0-3, speed 1.0) must win over
        // Intels (nodes 4-7, speed 0.85).
        let p = ring_profile(3, 10.0, 5, 256);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let mut cs = SaScheduler::new(SaConfig::fast(11));
        let r = cs.schedule(&req).unwrap();
        for (_, node) in r.mapping.iter() {
            assert!(
                c.node(node).speed > 0.9,
                "compute-heavy app must land on Alphas, got {:?}",
                r.mapping
            );
        }
    }

    #[test]
    fn sa_is_deterministic_per_seed() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 1.0, 50, 4096);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let a = SaScheduler::new(SaConfig::fast(3)).schedule(&req).unwrap();
        let b = SaScheduler::new(SaConfig::fast(3)).schedule(&req).unwrap();
        assert_eq!(a.mapping, b.mapping);
        assert_eq!(a.predicted_time, b.predicted_time);
    }

    #[test]
    fn restarts_never_hurt() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 0.5, 100, 4096);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let single = SaScheduler::new(SaConfig {
            restarts: 1,
            ..SaConfig::fast(5)
        })
        .schedule(&req)
        .unwrap();
        let multi = SaScheduler::new(SaConfig {
            restarts: 3,
            ..SaConfig::fast(5)
        })
        .schedule(&req)
        .unwrap();
        assert!(multi.score <= single.score + 1e-12);
    }

    #[test]
    fn cooling_reaches_configured_floor() {
        let cfg = SaConfig::fast(1);
        let c = cfg.cooling();
        let end = c.powf(cfg.iters as f64 - 1.0);
        assert!((end - cfg.t_end_frac).abs() / cfg.t_end_frac < 1e-6);
    }

    #[test]
    fn pool_too_small_is_reported() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 1.0, 10, 1024);
        let pool: Vec<_> = c.node_ids().take(2).collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let err = SaScheduler::new(SaConfig::fast(1))
            .schedule(&req)
            .unwrap_err();
        assert_eq!(
            err,
            SchedError::PoolTooSmall {
                need: 4,
                have: 2,
                down: 0
            }
        );
    }

    #[test]
    fn recording_sink_captures_a_centurion_run() {
        use crate::telemetry::RecordingSink;
        let c = cbes_cluster::presets::centurion();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(8, 1.0, 50, 4096);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let mut sink = RecordingSink::new();
        let r = SaScheduler::new(SaConfig::fast(3))
            .schedule_with_sink(&req, &mut sink)
            .unwrap();

        // One on_move per iteration; the initial state is the extra eval.
        assert_eq!(sink.moves(), r.evaluations - 1);

        // The cooling schedule spans several temperature decades, and the
        // cold tail accepts no more often than the hot start.
        let stages = sink.stages();
        assert!(
            stages.len() >= 3,
            "expected several decades, got {stages:?}"
        );
        let first = stages.first().unwrap();
        let last = stages.last().unwrap();
        assert!(first.decade > last.decade, "temperature must fall");
        assert!(
            first.accepted * last.proposed >= last.accepted * first.proposed,
            "hot stage {first:?} must accept at least as often as cold {last:?}"
        );

        // The best-energy trace is chronological and strictly improving.
        let trace = sink.best_trace();
        assert!(!trace.is_empty());
        for w in trace.windows(2) {
            assert!(w[0].0 <= w[1].0, "trace must be chronological");
            assert!(w[0].1 > w[1].1, "best energy must strictly improve");
        }
        assert_eq!(trace.last().unwrap().1, r.score);
    }

    #[test]
    fn telemetry_does_not_perturb_the_search() {
        use crate::telemetry::RecordingSink;
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 1.0, 50, 4096);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let plain = SaScheduler::new(SaConfig::fast(9)).schedule(&req).unwrap();
        let mut sink = RecordingSink::new();
        let recorded = SaScheduler::new(SaConfig::fast(9))
            .schedule_with_sink(&req, &mut sink)
            .unwrap();
        assert_eq!(plain.mapping, recorded.mapping);
        assert_eq!(plain.predicted_time, recorded.predicted_time);
        assert_eq!(plain.evaluations, recorded.evaluations);
    }

    #[test]
    fn elapsed_comes_from_the_sink_clock() {
        use crate::telemetry::TelemetrySink;
        use std::time::Duration;

        /// Deterministic clock: advances 7 ms per read, records nothing.
        struct FrozenClock {
            reads: u32,
        }
        impl TelemetrySink for FrozenClock {
            fn on_move(&mut self, _temp: f64, _accepted: bool) {}
            fn on_improvement(&mut self, _eval: u64, _energy: f64) {}
            fn on_restart(&mut self, _best_energy: f64) {}
            fn clock(&mut self) -> Duration {
                self.reads += 1;
                Duration::from_millis(7) * self.reads
            }
        }

        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 1.0, 50, 4096);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let mut clock = FrozenClock { reads: 0 };
        let r = SaScheduler::new(SaConfig::fast(3))
            .schedule_with_sink(&req, &mut clock)
            .unwrap();
        // The run reads the clock exactly twice: start and finish.
        assert_eq!(clock.reads, 2);
        assert_eq!(r.elapsed, Duration::from_millis(7));
    }

    #[test]
    fn scheduler_names() {
        assert_eq!(SaScheduler::new(SaConfig::fast(1)).name(), "CS");
        assert_eq!(
            SaScheduler::with_objective(SaConfig::fast(1), Objective::ComputeOnly).name(),
            "NCS"
        );
    }
}
