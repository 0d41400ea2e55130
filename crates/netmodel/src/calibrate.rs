//! Off-line cluster calibration: measuring the no-load end-to-end latency of
//! every node pair at a set of probe sizes, parallelised into benchmark
//! *cliques* so that the `O(N²)` measurement campaign completes in `O(N)`
//! rounds (the paper's NWS "clique control" scripts).

use crate::model::LatencyModel;
use cbes_cluster::{Cluster, NodeId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration of the calibration campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibrator {
    /// Probe message sizes in bytes (strictly increasing).
    pub probe_sizes: Vec<u64>,
    /// Ping-pong repetitions averaged per measurement.
    pub reps: u32,
    /// Relative standard deviation of measurement noise (e.g. `0.01` = 1 %).
    pub noise: f64,
    /// RNG seed for reproducible "measurements".
    pub seed: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            probe_sizes: vec![64, 1024, 16 * 1024, 128 * 1024],
            reps: 5,
            noise: 0.01,
            seed: 0xCBE5,
        }
    }
}

/// Result of a calibration campaign.
#[derive(Debug, Clone)]
pub struct CalibrationOutcome {
    /// The fitted latency model.
    pub model: LatencyModel,
    /// Number of individual pair measurements taken (`pairs × sizes`).
    pub measurements: usize,
    /// Number of parallel benchmark rounds (cliques) used.
    pub rounds: usize,
    /// Estimated wall time had every measurement run serially (seconds of
    /// benchmark traffic; the `O(N²)` cost the paper warns about).
    pub serial_cost: f64,
    /// Estimated wall time with clique parallelism (`O(N)` rounds).
    pub parallel_cost: f64,
}

impl CalibrationOutcome {
    /// Speedup of clique-parallel calibration over the serial campaign.
    pub fn clique_speedup(&self) -> f64 {
        if self.parallel_cost > 0.0 {
            self.serial_cost / self.parallel_cost
        } else {
            1.0
        }
    }
}

impl Calibrator {
    /// Override the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Run the calibration campaign against the (idle) cluster.
    ///
    /// Each pair/size measurement is the topological ground-truth latency
    /// perturbed by multiplicative Gaussian noise, averaged over
    /// [`Calibrator::reps`] repetitions — emulating a careful ping-pong
    /// benchmark with pre-posted receives.
    pub fn calibrate(&self, cluster: &Cluster) -> CalibrationOutcome {
        let n = cluster.len();
        let nsizes = self.probe_sizes.len();
        let npairs = LatencyModel::pairs(n);
        let mut table = vec![0.0f64; npairs * nsizes];
        let mut rng = StdRng::seed_from_u64(self.seed);

        // Benchmark-time accounting: one ping-pong burst per (pair, size).
        let mut serial_cost = 0.0f64;
        let mut parallel_cost = 0.0f64;
        let rounds = round_robin_rounds(n);

        // A template model only to reuse pair indexing.
        let index = |a: NodeId, b: NodeId| -> usize {
            let (i, j) = if a.0 < b.0 {
                (a.index(), b.index())
            } else {
                (b.index(), a.index())
            };
            i * (n - 1) - i * i.saturating_sub(1) / 2 + (j - i - 1)
        };

        for round in &rounds {
            let mut round_cost = 0.0f64;
            for &(a, b) in round {
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                let mut pair_cost = 0.0;
                for (k, &size) in self.probe_sizes.iter().enumerate() {
                    let truth = cluster.no_load_latency(na, nb, size);
                    let mut acc = 0.0;
                    for _ in 0..self.reps {
                        acc += truth * gauss_factor(&mut rng, self.noise);
                    }
                    let measured = acc / self.reps as f64;
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "index(a, b) < npairs for a < b < n, and k < nsizes"
                    )]
                    let slot = &mut table[index(na, nb) * nsizes + k];
                    *slot = measured;
                    // Round-trip per rep.
                    pair_cost += 2.0 * truth * self.reps as f64;
                }
                serial_cost += pair_cost;
                round_cost = round_cost.max(pair_cost);
            }
            parallel_cost += round_cost;
        }

        CalibrationOutcome {
            model: LatencyModel::from_table(n, self.probe_sizes.clone(), table),
            measurements: npairs * nsizes,
            rounds: rounds.len(),
            serial_cost,
            parallel_cost,
        }
    }
}

/// Multiplicative noise factor `max(0.2, 1 + σ·z)` with `z ~ N(0,1)`
/// (Box–Muller; floor keeps latencies positive).
pub(crate) fn gauss_factor(rng: &mut StdRng, sigma: f64) -> f64 {
    if sigma <= 0.0 {
        return 1.0;
    }
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (1.0 + sigma * z).max(0.2)
}

/// Partition all unordered pairs of `0..n` into rounds of pairwise-disjoint
/// pairs (a proper edge colouring of `K_n` via the circle method).
///
/// Yields `n-1` rounds for even `n`, `n` rounds for odd `n`; within a round
/// every node appears at most once, so all benchmarks of a round can run in
/// parallel without interfering — this is what turns the `O(N²)` campaign
/// into `O(N)` wall time.
pub fn round_robin_rounds(n: usize) -> Vec<Vec<(usize, usize)>> {
    if n < 2 {
        return Vec::new();
    }
    // Circle method: with odd n add a bye slot.
    let m = if n.is_multiple_of(2) { n } else { n + 1 };
    let mut ring: Vec<usize> = (0..m).collect();
    let mut rounds = Vec::with_capacity(m - 1);
    for _ in 0..m - 1 {
        let mut round = Vec::with_capacity(m / 2);
        for (&a, &b) in ring.iter().zip(ring.iter().rev()).take(m / 2) {
            // `n` (the bye marker when n is odd) sits out.
            if a < n && b < n {
                round.push((a.min(b), a.max(b)));
            }
        }
        rounds.push(round);
        // Rotate all but the first element.
        if let Some((_, rest)) = ring.split_first_mut() {
            rest.rotate_right(1);
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::presets::{orange_grove, two_switch_demo};
    use std::collections::HashSet;

    #[test]
    fn rounds_cover_every_pair_exactly_once() {
        for n in [2usize, 3, 4, 5, 8, 9, 16] {
            let rounds = round_robin_rounds(n);
            let mut seen = HashSet::new();
            for round in &rounds {
                let mut nodes_in_round = HashSet::new();
                for &(a, b) in round {
                    assert!(a < b && b < n);
                    assert!(seen.insert((a, b)), "pair ({a},{b}) repeated, n={n}");
                    assert!(nodes_in_round.insert(a), "node {a} twice in round");
                    assert!(nodes_in_round.insert(b), "node {b} twice in round");
                }
            }
            assert_eq!(seen.len(), n * (n - 1) / 2, "n={n}");
        }
    }

    #[test]
    fn rounds_count_is_linear_in_n() {
        assert_eq!(round_robin_rounds(8).len(), 7);
        assert_eq!(round_robin_rounds(9).len(), 9);
        assert!(round_robin_rounds(0).is_empty());
        assert!(round_robin_rounds(1).is_empty());
    }

    #[test]
    fn calibration_model_tracks_ground_truth() {
        let c = two_switch_demo();
        let out = Calibrator::default().calibrate(&c);
        for a in c.node_ids() {
            for b in c.node_ids() {
                if a == b {
                    continue;
                }
                for &size in &[64u64, 512, 1024, 40_000, 300_000] {
                    let truth = c.no_load_latency(a, b, size);
                    let model = out.model.no_load(a, b, size);
                    let err = (model - truth).abs() / truth;
                    assert!(err < 0.05, "pair {a}->{b} size {size}: err {err}");
                }
            }
        }
    }

    #[test]
    fn calibration_is_deterministic_per_seed() {
        let c = two_switch_demo();
        let a = Calibrator::default().with_seed(1).calibrate(&c);
        let b = Calibrator::default().with_seed(1).calibrate(&c);
        let d = Calibrator::default().with_seed(2).calibrate(&c);
        assert_eq!(a.model, b.model);
        assert_ne!(a.model, d.model);
    }

    #[test]
    fn clique_parallelism_gives_substantial_speedup() {
        let c = orange_grove();
        let out = Calibrator::default().calibrate(&c);
        assert_eq!(out.rounds, 27); // n=28 -> 27 rounds
                                    // 28 nodes: 378 pairs serially vs 27 rounds of up to 14 parallel
                                    // pairs — speedup should approach 14x (bounded by round stragglers).
        assert!(
            out.clique_speedup() > 6.0,
            "speedup {}",
            out.clique_speedup()
        );
        assert_eq!(out.measurements, 378 * 4);
    }

    #[test]
    fn zero_noise_reproduces_truth_exactly_at_probes() {
        let c = two_switch_demo();
        let cal = Calibrator {
            noise: 0.0,
            ..Calibrator::default()
        };
        let out = cal.calibrate(&c);
        let a = NodeId(0);
        let b = NodeId(5);
        for &s in &cal.probe_sizes {
            let truth = c.no_load_latency(a, b, s);
            assert!((out.model.no_load(a, b, s) - truth).abs() < 1e-12);
        }
    }

    #[test]
    fn gauss_factor_is_unbiasedish_and_positive() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut acc = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let f = gauss_factor(&mut rng, 0.05);
            assert!(f > 0.0);
            acc += f;
        }
        let mean = acc / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }
}
