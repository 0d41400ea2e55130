//! A greedy list scheduler (HEFT-flavoured baseline, used by the scheduler
//! ablation benches).
//!
//! Ranks are placed in decreasing order of computational weight; each rank
//! takes the pool node that minimises its own `R_i` plus the λ-corrected
//! communication cost to the peers already placed. Deterministic and cheap
//! (`O(n_procs × pool)` evaluations of partial costs), but with no global
//! view — simulated annealing should beat it on communication-bound apps.

use crate::telemetry::{NullSink, TelemetrySink};
use crate::{SchedError, ScheduleRequest, ScheduleResult, Scheduler};
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;

/// Deterministic greedy list scheduler.
#[derive(Debug, Clone, Default)]
pub struct GreedyScheduler;

impl GreedyScheduler {
    /// A greedy scheduler.
    pub fn new() -> Self {
        GreedyScheduler
    }
}

impl Scheduler for GreedyScheduler {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn schedule(&mut self, req: &ScheduleRequest<'_>) -> Result<ScheduleResult, SchedError> {
        req.validate()?;
        let mut clock = NullSink;
        let start = clock.clock();
        let snap = req.snapshot;
        let n = req.num_procs();

        // Place heavy ranks first.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            let wa = req.profile.procs[a].x + req.profile.procs[a].o;
            let wb = req.profile.procs[b].x + req.profile.procs[b].o;
            wb.partial_cmp(&wa).expect("profile times are finite")
        });

        let mut placed: Vec<Option<NodeId>> = vec![None; n];
        let mut free: Vec<NodeId> = req.pool().to_vec();
        let mut evals = 0u64;

        for &rank in &order {
            let p = &req.profile.procs[rank];
            let mut best: Option<(usize, f64)> = None;
            for (fi, &node) in free.iter().enumerate() {
                // Partial cost of putting `rank` on `node` now.
                let r = (p.x + p.o) * (p.profile_speed / snap.speed(node))
                    / snap.effective_acpu(node).max(f64::MIN_POSITIVE);
                let mut c = 0.0;
                for g in &p.sends {
                    if let Some(peer_node) = placed[g.peer] {
                        c += g.count as f64 * snap.current_latency(node, peer_node, g.bytes);
                    }
                }
                for g in &p.recvs {
                    if let Some(peer_node) = placed[g.peer] {
                        c += g.count as f64 * snap.current_latency(peer_node, node, g.bytes);
                    }
                }
                let cost = r + p.lambda * c;
                evals += 1;
                if best.is_none_or(|(_, bc)| cost < bc) {
                    best = Some((fi, cost));
                }
            }
            let (fi, _) = best.expect("pool validated non-empty");
            placed[rank] = Some(free.swap_remove(fi));
        }

        let mapping = Mapping::new(
            placed
                .into_iter()
                .map(|p| p.expect("every rank placed"))
                .collect(),
        );
        let ev = req.evaluator();
        let predicted_time = ev.predict_time(&mapping);
        Ok(ScheduleResult {
            mapping,
            predicted_time,
            score: predicted_time,
            evaluations: evals,
            elapsed: clock.clock().saturating_sub(start),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use cbes_core::snapshot::SystemSnapshot;

    #[test]
    fn greedy_places_all_ranks_injectively() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(5, 1.0, 50, 2048);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let r = GreedyScheduler::new().schedule(&req).unwrap();
        assert_eq!(r.mapping.len(), 5);
        assert!(r.mapping.is_injective());
    }

    #[test]
    fn greedy_picks_fast_nodes_for_compute_heavy_work() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 10.0, 1, 64);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let r = GreedyScheduler::new().schedule(&req).unwrap();
        for (_, node) in r.mapping.iter() {
            assert!(c.node(node).speed > 0.9);
        }
    }

    #[test]
    fn greedy_is_deterministic() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        let p = ring_profile(4, 1.0, 100, 4096);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let a = GreedyScheduler::new().schedule(&req).unwrap();
        let b = GreedyScheduler::new().schedule(&req).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn greedy_co_locates_communicating_pairs() {
        let c = demo();
        let snap = SystemSnapshot::no_load(&c, &c);
        // Two ranks, huge message volume: both must end on the same switch.
        let p = ring_profile(2, 0.01, 1000, 16384);
        let pool: Vec<_> = c.node_ids().collect();
        let req = ScheduleRequest::new(&p, &snap, &pool);
        let r = GreedyScheduler::new().schedule(&req).unwrap();
        let m = r.mapping.as_slice();
        assert_eq!(
            c.node(m[0]).switch,
            c.node(m[1]).switch,
            "got {:?}",
            r.mapping
        );
    }
}
