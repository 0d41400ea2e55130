//! The mapping evaluation operation — paper §3, equations 4–8.

use crate::mapping::Mapping;
use crate::snapshot::SystemSnapshot;
use cbes_trace::analyze::theta;
use cbes_trace::AppProfile;
use serde::{Deserialize, Serialize};

/// Cost breakdown for one process under an evaluated mapping.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProcCost {
    /// Computation contribution `R_i` (eq. 5).
    pub r: f64,
    /// Communication contribution `C_i = λ_i · Θ_i^M` (eq. 8).
    pub c: f64,
}

impl ProcCost {
    /// `R_i + C_i`.
    pub fn total(&self) -> f64 {
        self.r + self.c
    }
}

/// A full execution-time prediction for one mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted execution time `S_M` (eq. 4).
    pub time: f64,
    /// The rank `i_M` whose `R_i + C_i` attains the maximum.
    pub bottleneck: usize,
    /// Per-process cost breakdown, indexed by rank.
    pub per_proc: Vec<ProcCost>,
}

/// Count `mapping`'s ranks into the node-indexed census `ranks_on`
/// (`enter`), or take exactly those counts back out, which returns a
/// census that was zero before to zero without walking the cluster. Nodes
/// off the census are skipped.
pub(crate) fn tally(ranks_on: &mut [u32], mapping: &Mapping, enter: bool) {
    for (_, node) in mapping.iter() {
        if let Some(count) = ranks_on.get_mut(node.index()) {
            *count = if enter { *count + 1 } else { *count - 1 };
        }
    }
}

/// Evaluates candidate mappings for one application against one system
/// snapshot: the paper's core mapping-evaluation operation. Every
/// prediction the workspace makes — one mapping or a batch, with the
/// per-rank breakdown or without, `CS` or `NCS` — is one pass of
/// `Evaluator::evaluate`.
pub struct Evaluator<'a> {
    profile: &'a AppProfile,
    snap: &'a SystemSnapshot<'a>,
}

/// Kept for `benchmark/src/layers.rs`; delete with the next
/// `[benchmark]` PR.
pub type BatchEvaluator<'a> = Evaluator<'a>;

impl<'a> Evaluator<'a> {
    /// An evaluator for `profile` under the conditions in `snap`.
    pub fn new(profile: &'a AppProfile, snap: &'a SystemSnapshot<'a>) -> Self {
        Evaluator { profile, snap }
    }

    /// The application profile being evaluated.
    pub fn profile(&self) -> &AppProfile {
        self.profile
    }

    /// A zeroed rank census, one slot per node, for [`Self::evaluate`].
    fn census(&self) -> Vec<u32> {
        vec![0; self.snap.cluster.len()]
    }

    /// Eq. 4–8 for one candidate: hands every rank's `(R_i, C_i)` to
    /// `each` in rank order and returns `(i_M, S_M)`.
    ///
    /// Eq. 5 is `R_i = (X_i + O_i) · (Speed_profile / Speed_j) / ACPU_j`,
    /// extended with a CPU-sharing factor when the mapping co-locates more
    /// ranks on a node than it has CPUs (the profiling side of eq. 5 assumes
    /// a dedicated CPU; oversubscription divides the effective speed), and
    /// with health degradation: a node without availability (`Down`) costs
    /// `+∞`. Eq. 6+8 is `C_i = λ_i · Θ_i^M` with `Θ` summed over message
    /// groups at current load-adjusted latencies; `comm: false` drops it.
    ///
    /// `ranks_on` is the node-indexed rank census: all zero on entry and
    /// all zero again on return (only the mapping's own nodes are touched,
    /// so a batch shares one buffer).
    ///
    /// # Panics
    /// Panics if the mapping arity differs from the profile's process count
    /// (callers validate at the service boundary).
    fn evaluate(
        &self,
        mapping: &Mapping,
        comm: bool,
        ranks_on: &mut [u32],
        mut each: impl FnMut(ProcCost),
    ) -> (usize, f64) {
        assert_eq!(
            mapping.len(),
            self.profile.num_procs(),
            "mapping arity must match profile"
        );
        tally(ranks_on, mapping, true);
        let nodes = self.snap.cluster.nodes();
        let mut best = (0usize, f64::NEG_INFINITY);
        for p in &self.profile.procs {
            let on = mapping.node(p.rank);
            let r = match (nodes.get(on.index()), ranks_on.get(on.index())) {
                (Some(node), Some(&ranks)) => {
                    let acpu = self.snap.effective_acpu(on);
                    if acpu <= 0.0 {
                        f64::INFINITY
                    } else {
                        let share = (node.cpus as f64 / ranks as f64).min(1.0);
                        (p.x + p.o) * (p.profile_speed / (node.speed * share)) / acpu
                    }
                }
                // Off the cluster: as unmappable as a `Down` node.
                _ => f64::INFINITY,
            };
            let c = if !comm || p.lambda == 0.0 || (p.sends.is_empty() && p.recvs.is_empty()) {
                0.0
            } else {
                p.lambda * theta(p.rank, &p.sends, &p.recvs, mapping.as_slice(), self.snap)
            };
            let cost = ProcCost { r, c };
            if cost.total() > best.1 {
                best = (p.rank, cost.total());
            }
            each(cost);
        }
        tally(ranks_on, mapping, false);
        (best.0, best.1.max(0.0))
    }

    /// Predict the execution time of `mapping` (eq. 4), with the full
    /// per-process breakdown.
    ///
    /// # Panics
    /// Panics if the mapping arity differs from the profile's process count
    /// (callers validate at the service boundary).
    pub fn predict(&self, mapping: &Mapping) -> Prediction {
        self.predict_in(mapping, &mut self.census())
    }

    fn predict_in(&self, mapping: &Mapping, ranks_on: &mut [u32]) -> Prediction {
        let mut per_proc = Vec::with_capacity(self.profile.num_procs());
        let (bottleneck, time) = self.evaluate(mapping, true, ranks_on, |cost| per_proc.push(cost));
        Prediction {
            time,
            bottleneck,
            per_proc,
        }
    }

    /// [`Evaluator::predict`] for every candidate, in request order, over
    /// one rank census.
    pub fn predict_batch(&self, mappings: &[Mapping]) -> Vec<Prediction> {
        self.predict_batch_in(mappings, &mut self.census())
    }

    /// [`Evaluator::predict_batch`] over the caller's census: one slot per
    /// cluster node, all zero on entry and on return (the service hands in
    /// the buffer its validation pass just un-counted).
    pub(crate) fn predict_batch_in(
        &self,
        mappings: &[Mapping],
        ranks_on: &mut [u32],
    ) -> Vec<Prediction> {
        mappings
            .iter()
            .map(|m| self.predict_in(m, ranks_on))
            .collect()
    }

    /// Only the predicted time (the SA scheduler's energy function, called
    /// thousands of times per scheduling run).
    pub fn predict_time(&self, mapping: &Mapping) -> f64 {
        self.evaluate(mapping, true, &mut self.census(), |_| {}).1
    }

    /// The NCS variant: eq. 4 with the communication term dropped. Scores
    /// mappings by computation alone; **not** a time prediction (paper §6).
    pub fn compute_only_score(&self, mapping: &Mapping) -> f64 {
        self.evaluate(mapping, false, &mut self.census(), |_| {}).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::load::LoadState;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_cluster::{Architecture, NodeId};
    use cbes_netmodel::LoadAdjuster;
    use cbes_trace::{MessageGroup, ProcessProfile};
    use std::collections::BTreeMap;

    /// Two processes, 10 s compute each, exchanging 100×4 KiB in each
    /// direction, profiled on Alpha nodes (speed 1.0), λ = 1.
    fn profile() -> AppProfile {
        let mk = |rank: usize| ProcessProfile {
            rank,
            x: 9.5,
            o: 0.5,
            b: 0.2,
            sends: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 4096,
                count: 100,
            }],
            recvs: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 4096,
                count: 100,
            }],
            profile_speed: 1.0,
            lambda: 1.0,
        };
        AppProfile {
            name: "synthetic".into(),
            procs: vec![mk(0), mk(1)],
            arch_ratios: BTreeMap::new(),
        }
    }

    #[test]
    fn prediction_on_profiling_conditions_reproduces_profile_times() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        let pred = ev.predict(&m);
        // R = 10 exactly; C = 200 messages × same-switch latency.
        let lat = c.no_load_latency(NodeId(0), NodeId(1), 4096);
        assert!((pred.per_proc[0].r - 10.0).abs() < 1e-9);
        assert!((pred.per_proc[0].c - 200.0 * lat).abs() < 1e-9);
        assert!((pred.time - (10.0 + 200.0 * lat)).abs() < 1e-9);
    }

    #[test]
    fn slower_node_increases_r() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        // Node 4 is Intel at 0.85.
        let m = Mapping::new(vec![NodeId(4), NodeId(1)]);
        let pred = ev.predict(&m);
        assert!((pred.per_proc[0].r - 10.0 / 0.85).abs() < 1e-9);
        assert_eq!(pred.bottleneck, 0);
    }

    #[test]
    fn cpu_load_divides_availability() {
        let c = two_switch_demo();
        let mut load = LoadState::idle(c.len());
        load.set_cpu_avail(NodeId(0), 0.5);
        let snap = SystemSnapshot::new(&c, &c, LoadAdjuster::default(), load);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        let pred = ev.predict(&m);
        assert!((pred.per_proc[0].r - 20.0).abs() < 1e-9);
    }

    #[test]
    fn cross_switch_mapping_predicts_longer_time() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        let near = ev.predict_time(&Mapping::new(vec![NodeId(0), NodeId(1)]));
        let far = ev.predict_time(&Mapping::new(vec![NodeId(0), NodeId(4)]));
        assert!(far > near);
    }

    #[test]
    fn lambda_scales_communication_only() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let mut p = profile();
        for pp in &mut p.procs {
            pp.lambda = 0.5;
        }
        let half = Evaluator::new(&p, &snap);
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        let pred_half = half.predict(&m);
        let p1 = profile();
        let full = Evaluator::new(&p1, &snap);
        let pred_full = full.predict(&m);
        assert!((pred_half.per_proc[0].c * 2.0 - pred_full.per_proc[0].c).abs() < 1e-12);
        assert_eq!(pred_half.per_proc[0].r, pred_full.per_proc[0].r);
    }

    #[test]
    fn compute_only_score_ignores_communication() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        let near = ev.compute_only_score(&Mapping::new(vec![NodeId(0), NodeId(1)]));
        let far = ev.compute_only_score(&Mapping::new(vec![NodeId(0), NodeId(4)]));
        // Node 1 and node 4 differ only in speed for the compute term; the
        // communication difference is invisible to NCS... but speeds differ
        // (1.0 vs 0.85), so compare two same-speed nodes instead:
        let same_arch = ev.compute_only_score(&Mapping::new(vec![NodeId(0), NodeId(2)]));
        assert_eq!(near, same_arch);
        assert!(far > near); // slower Intel node raises R
    }

    #[test]
    fn bottleneck_is_argmax() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let mut p = profile();
        p.procs[1].x = 20.0; // make rank 1 the straggler
        let ev = Evaluator::new(&p, &snap);
        let pred = ev.predict(&Mapping::new(vec![NodeId(0), NodeId(1)]));
        assert_eq!(pred.bottleneck, 1);
        assert!((pred.time - pred.per_proc[1].total()).abs() < 1e-12);
    }

    #[test]
    fn predict_time_agrees_with_predict() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        for nodes in [[0u32, 1], [0, 4], [4, 5], [2, 6]] {
            let m = Mapping::new(nodes.iter().map(|&i| NodeId(i)).collect());
            assert!((ev.predict(&m).time - ev.predict_time(&m)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = profile();
        let ev = Evaluator::new(&p, &snap);
        let _ = ev.predict(&Mapping::new(vec![NodeId(0)]));
    }

    #[test]
    fn oversubscription_divides_effective_speed() {
        let c = two_switch_demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let mut p = profile();
        for pp in &mut p.procs {
            pp.sends.clear();
            pp.recvs.clear();
            pp.lambda = 0.0;
        }
        let ev = Evaluator::new(&p, &snap);
        // Node 0 is a 1-CPU Alpha: both ranks there -> each at half speed.
        let shared = ev.predict_time(&Mapping::new(vec![NodeId(0), NodeId(0)]));
        let dedicated = ev.predict_time(&Mapping::new(vec![NodeId(0), NodeId(1)]));
        assert!(
            (shared / dedicated - 2.0).abs() < 1e-9,
            "{shared} vs {dedicated}"
        );
        // Node 4 is a 2-CPU Intel: two ranks share without slowdown.
        let dual = ev.predict_time(&Mapping::new(vec![NodeId(4), NodeId(4)]));
        let single = ev.predict_time(&Mapping::new(vec![NodeId(4), NodeId(5)]));
        assert!((dual - single).abs() < 1e-9);
    }

    #[test]
    fn suspect_node_inflates_r_by_the_penalty_factor() {
        use crate::health::{HealthView, NodeHealth};
        let c = two_switch_demo();
        let p = profile();
        let m = Mapping::new(vec![NodeId(0), NodeId(1)]);
        let mut snap = SystemSnapshot::no_load(&c, &c);
        let baseline = Evaluator::new(&p, &snap).predict(&m);
        let mut states = vec![NodeHealth::Healthy; c.len()];
        states[0] = NodeHealth::Suspect;
        snap.set_health(HealthView::new(states, 2.5));
        let degraded = Evaluator::new(&p, &snap).predict(&m);
        // R on the suspect node is exactly 2.5× the healthy cost; the
        // communication term is untouched.
        assert!((degraded.per_proc[0].r - baseline.per_proc[0].r * 2.5).abs() < 1e-9);
        assert_eq!(degraded.per_proc[0].c, baseline.per_proc[0].c);
        assert_eq!(degraded.per_proc[1].r, baseline.per_proc[1].r);
    }

    #[test]
    fn down_node_costs_infinity() {
        use crate::health::{HealthView, NodeHealth};
        let c = two_switch_demo();
        let p = profile();
        let mut snap = SystemSnapshot::no_load(&c, &c);
        let mut states = vec![NodeHealth::Healthy; c.len()];
        states[3] = NodeHealth::Down;
        snap.set_health(HealthView::new(states, 2.0));
        let ev = Evaluator::new(&p, &snap);
        let onto_down = ev.predict(&Mapping::new(vec![NodeId(3), NodeId(1)]));
        assert!(onto_down.time.is_infinite());
        assert_eq!(onto_down.bottleneck, 0);
        assert!(ev
            .predict_time(&Mapping::new(vec![NodeId(3), NodeId(1)]))
            .is_infinite());
        assert!(ev
            .compute_only_score(&Mapping::new(vec![NodeId(3), NodeId(1)]))
            .is_infinite());
        // Mappings that avoid the down node are unaffected.
        let clean = ev.predict(&Mapping::new(vec![NodeId(0), NodeId(1)]));
        assert!(clean.time.is_finite());
    }

    #[test]
    fn arch_ratio_map_is_available_for_reporting() {
        let mut p = profile();
        p.arch_ratios.insert(Architecture::Sparc, 0.65);
        assert_eq!(p.arch_ratio(Architecture::Sparc), 0.65);
    }
}
