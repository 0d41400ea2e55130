//! Shared experiment machinery: calibrated testbeds, profiling, measuring,
//! predicting, and thread-parallel fan-out.

use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, NodeId};
use cbes_core::eval::Evaluator;
use cbes_core::mapping::Mapping;
use cbes_core::snapshot::SystemSnapshot;
use cbes_mpisim::{simulate, SimConfig};
use cbes_netmodel::calibrate::{CalibrationOutcome, Calibrator};
use cbes_trace::{extract_profile, AppProfile};
use cbes_workloads::Workload;

/// A cluster plus its off-line calibration — everything an experiment needs
/// to profile, predict and "measure".
pub struct Testbed {
    /// The modelled cluster.
    pub cluster: Cluster,
    /// The calibration campaign's outcome (latency model and costs).
    pub calibration: CalibrationOutcome,
}

impl Testbed {
    /// Calibrate a testbed over the given cluster.
    pub fn new(cluster: Cluster, seed: u64) -> Self {
        let calibration = Calibrator::default().with_seed(seed).calibrate(&cluster);
        Testbed {
            cluster,
            calibration,
        }
    }

    /// The Orange Grove testbed (tables 1–4, figures 6–7).
    pub fn orange_grove(seed: u64) -> Self {
        Testbed::new(cbes_cluster::presets::orange_grove(), seed)
    }

    /// The Centurion testbed (figure 5, phase-1 sweep).
    pub fn centurion(seed: u64) -> Self {
        Testbed::new(cbes_cluster::presets::centurion(), seed)
    }

    /// An idle-system snapshot over the calibrated model.
    pub fn snapshot(&self) -> SystemSnapshot<'_> {
        SystemSnapshot::no_load(&self.cluster, &self.calibration.model)
    }

    /// A snapshot with explicit load.
    pub fn snapshot_with(&self, load: LoadState) -> SystemSnapshot<'_> {
        let mut s = self.snapshot();
        s.set_load(load);
        s
    }

    /// Profile a workload by tracing one run on the profiling `mapping`
    /// (idle system) and reducing the trace — the application-profiling
    /// phase of the paper.
    pub fn profile(&self, w: &Workload, mapping: &[NodeId], seed: u64) -> AppProfile {
        let cfg = SimConfig::default().with_seed(seed);
        let run = simulate(
            &self.cluster,
            &w.program,
            mapping,
            &LoadState::idle(self.cluster.len()),
            &cfg,
        )
        .unwrap_or_else(|e| panic!("profiling run of {} failed: {e}", w.name));
        extract_profile(
            &w.name,
            &run.trace,
            &self.cluster,
            mapping,
            &self.calibration.model,
        )
    }

    /// One "actual execution": simulate with per-run seed, no tracing.
    /// Returns the measured wall time.
    pub fn measure(&self, w: &Workload, mapping: &Mapping, load: &LoadState, seed: u64) -> f64 {
        let mut cfg = SimConfig::default().with_seed(seed);
        cfg.collect_trace = false;
        simulate(&self.cluster, &w.program, mapping.as_slice(), load, &cfg)
            .unwrap_or_else(|e| panic!("measured run of {} failed: {e}", w.name))
            .wall_time
    }

    /// `runs` independent measured executions (parallel across threads),
    /// seeds `base_seed..base_seed+runs`.
    pub fn measure_n(
        &self,
        w: &Workload,
        mapping: &Mapping,
        load: &LoadState,
        base_seed: u64,
        runs: usize,
    ) -> Vec<f64> {
        parallel_map((0..runs as u64).collect(), |i| {
            self.measure(w, mapping, load, base_seed + i)
        })
    }

    /// CBES prediction of `mapping` under the idle snapshot.
    pub fn predict(&self, profile: &AppProfile, mapping: &Mapping) -> f64 {
        let snap = self.snapshot();
        Evaluator::new(profile, &snap).predict_time(mapping)
    }
}

/// Map `f` over `items` using all available cores, preserving order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let (queue, jobs) = crossbeam::channel::unbounded();
    for job in items.into_iter().enumerate() {
        assert!(queue.send(job).is_ok(), "the receiver outlives the sends");
    }
    drop(queue);
    let mut out: Vec<(usize, R)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|_| s.spawn(|| jobs.iter().map(|(i, t)| (i, f(t))).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a parallel_map worker panicked"))
            .collect()
    });
    out.sort_by_key(|(i, _)| *i);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_workloads::npb::{lu, NpbClass};

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect::<Vec<i32>>(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<i32>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        assert!(parallel_map(Vec::<i32>::new(), |x| x).is_empty());
        assert_eq!(parallel_map(vec![7], |x| x + 1), vec![8]);
    }

    #[test]
    fn testbed_profiles_and_predicts_close_to_measurement() {
        let tb = Testbed::orange_grove(1);
        let w = lu(8, NpbClass::S);
        let alphas: Vec<NodeId> = (0..8).map(NodeId).collect();
        let profile = tb.profile(&w, &alphas, 11);
        let mapping = Mapping::new(alphas);
        let predicted = tb.predict(&profile, &mapping);
        let measured = tb.measure_n(&w, &mapping, &LoadState::idle(tb.cluster.len()), 100, 5);
        let m = crate::stats::mean(&measured);
        let err = (predicted - m).abs() / m * 100.0;
        assert!(
            err < 6.0,
            "prediction error {err}% (pred {predicted}, meas {m})"
        );
    }
}
