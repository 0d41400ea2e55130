//! The calibrated no-load end-to-end latency model.

use cbes_cluster::{LatencyProvider, NodeId};
use serde::{Deserialize, Serialize};

/// Empirical no-load latency model for every unordered node pair of a
/// cluster, piecewise-linear in message size.
///
/// Built by [`crate::Calibrator`] from benchmark measurements at a fixed set
/// of probe sizes; queried by interpolating (and, beyond the largest probe,
/// extrapolating with the last segment's slope — which converges to the
/// path's `1/bandwidth`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    n: usize,
    /// Strictly increasing probe sizes in bytes.
    sizes: Vec<u64>,
    /// `table[pair * sizes.len() + k]` = measured latency at `sizes[k]`.
    table: Vec<f64>,
}

impl LatencyModel {
    /// A node's latency to itself, whatever the size.
    pub const LOOPBACK: f64 = 1e-6;

    /// Assemble a model from raw calibration data.
    ///
    /// `table` must hold `pairs(n) * sizes.len()` entries, pair-major, where
    /// pairs are ordered `(0,1), (0,2), .., (0,n-1), (1,2), ..`.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent or `sizes` is not strictly
    /// increasing (calibration is in-crate, so this is a programmer error).
    pub fn from_table(n: usize, sizes: Vec<u64>, table: Vec<f64>) -> Self {
        assert!(!sizes.is_empty(), "at least one probe size required");
        assert!(
            sizes.is_sorted_by(|a, b| a < b),
            "probe sizes must be strictly increasing"
        );
        assert_eq!(table.len(), Self::pairs(n) * sizes.len());
        LatencyModel { n, sizes, table }
    }

    /// Number of unordered pairs among `n` nodes.
    #[inline]
    pub fn pairs(n: usize) -> usize {
        n * (n.saturating_sub(1)) / 2
    }

    /// Number of nodes covered by this model.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// The probe sizes the model was calibrated at.
    pub fn probe_sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Flat index of the unordered pair `(a, b)`, `a != b`.
    #[inline]
    pub fn pair_index(&self, a: NodeId, b: NodeId) -> usize {
        let (i, j) = if a.0 < b.0 {
            (a.index(), b.index())
        } else {
            (b.index(), a.index())
        };
        debug_assert!(i < j && j < self.n);
        // Pairs (i, *) start after all pairs with a smaller first element:
        // sum_{k<i} (n-1-k) = i*(n-1) - i*(i-1)/2; offset within row: j-i-1.
        i * (self.n - 1) - i * i.saturating_sub(1) / 2 + (j - i - 1)
    }

    /// Check the invariants [`LatencyModel::from_table`] asserts, for
    /// models that arrived over the wire (serde bypasses the
    /// constructor, so a malformed payload must be rejected here before
    /// any `no_load` query indexes the table).
    pub fn validate(&self) -> Result<(), String> {
        if self.n == 0 {
            return Err("model covers zero nodes".to_string());
        }
        if self.sizes.is_empty() {
            return Err("model has no probe sizes".to_string());
        }
        if !self.sizes.is_sorted_by(|a, b| a < b) {
            return Err("probe sizes are not strictly increasing".to_string());
        }
        let want = Self::pairs(self.n) * self.sizes.len();
        if self.table.len() != want {
            return Err(format!(
                "table has {} entries but {} nodes x {} probe sizes needs {}",
                self.table.len(),
                self.n,
                self.sizes.len(),
                want
            ));
        }
        if let Some(bad) = self.table.iter().find(|v| !v.is_finite() || **v < 0.0) {
            return Err(format!("table contains a non-physical latency {bad}"));
        }
        Ok(())
    }

    /// Interpolated no-load latency for a `bytes`-byte message between `a`
    /// and `b`. Self-pairs return a tiny loopback constant.
    pub fn no_load(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        if a == b {
            return Self::LOOPBACK;
        }
        self.at(a.0, b.0, self.segment(bytes))
    }

    /// Where `bytes` falls among the probe sizes: everything interpolation
    /// reads of a message size. A compiled plan computes it once per
    /// (message group, probe sizes), so the division leaves every query.
    pub fn segment(&self, bytes: u64) -> Segment {
        locate(&self.sizes, bytes)
    }

    /// [`LatencyModel::no_load`] between two *distinct* nodes at a size
    /// already located by [`LatencyModel::segment`]: the same operations
    /// in the same order, so the same bits. A pair the model does not
    /// cover costs `+∞`.
    #[inline]
    pub fn at(&self, a: u32, b: u32, seg: Segment) -> f64 {
        let (i, j) = if a < b { (a, b) } else { (b, a) };
        if j as usize >= self.n {
            return f64::INFINITY;
        }
        let row = self.pair_index(NodeId(i), NodeId(j)) * self.sizes.len();
        match self.table.get(row..row + self.sizes.len()) {
            Some(values) => read(values, seg),
            None => f64::INFINITY,
        }
    }
}

/// Where a message size falls among a model's probe sizes
/// ([`LatencyModel::segment`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Segment {
    /// At or below the first probe (or a single probe): the first value.
    Clamp,
    /// Between probes `k` and `k + 1`, at fraction `t` of the way.
    Within {
        /// The segment's lower probe.
        k: u32,
        /// `(x − s_k) / (s_{k+1} − s_k)`.
        t: f64,
    },
    /// At or beyond the last probe: the last segment's slope, extended.
    Beyond {
        /// `s_last − s_{last−1}`.
        span: f64,
        /// `x − s_last`.
        dx: f64,
    },
}

/// Piecewise-linear interpolation over `(sizes, values)`, extrapolating with
/// the last segment's slope above the largest size and clamping to the first
/// value below the smallest size.
#[cfg(test)]
fn interpolate(sizes: &[u64], values: &[f64], x: u64) -> f64 {
    read(values, locate(sizes, x))
}

/// The size half of [`interpolate`]: which segment `x` falls in.
#[expect(
    clippy::indexing_slicing,
    reason = "past the guard `last >= 1`, and sizes[0] < x < sizes[last] puts k in 0..last"
)]
fn locate(sizes: &[u64], x: u64) -> Segment {
    let Some(last) = sizes.len().checked_sub(1).filter(|&l| l > 0) else {
        return Segment::Clamp;
    };
    if x <= sizes[0] {
        // Below the smallest probe, pin at values[0] (latency is dominated
        // by the fixed cost there).
        return Segment::Clamp;
    }
    let xf = x as f64;
    if x >= sizes[last] {
        let s0 = sizes[last - 1] as f64;
        let s1 = sizes[last] as f64;
        return Segment::Beyond {
            span: s1 - s0,
            dx: xf - s1,
        };
    }
    let k = sizes.partition_point(|&s| s <= x) - 1;
    let s0 = sizes[k] as f64;
    let s1 = sizes[k + 1] as f64;
    Segment::Within {
        k: k as u32,
        t: (xf - s0) / (s1 - s0),
    }
}

/// The value half of [`interpolate`]: one pair's probe values at a located
/// segment.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "`at` passes a row of sizes.len() values and `seg` was located over those sizes, \
              which `validate` keeps non-empty: Within has k + 1 < len, Beyond has len >= 2"
)]
fn read(values: &[f64], seg: Segment) -> f64 {
    match seg {
        Segment::Clamp => values[0],
        Segment::Within { k, t } => {
            let k = k as usize;
            values[k] + t * (values[k + 1] - values[k])
        }
        Segment::Beyond { span, dx } => {
            let last = values.len() - 1;
            let slope = (values[last] - values[last - 1]) / span;
            values[last] + slope * dx
        }
    }
}

impl LatencyProvider for LatencyModel {
    fn latency(&self, a: NodeId, b: NodeId, bytes: u64) -> f64 {
        self.no_load(a, b, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 7;
        let m = LatencyModel::from_table(n, vec![1], vec![0.0; LatencyModel::pairs(n)]);
        let mut seen = vec![false; LatencyModel::pairs(n)];
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                let idx = m.pair_index(NodeId(i), NodeId(j));
                assert!(!seen[idx], "duplicate index {idx} for ({i},{j})");
                seen[idx] = true;
                // Symmetry.
                assert_eq!(idx, m.pair_index(NodeId(j), NodeId(i)));
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn interpolation_hits_probe_points_exactly() {
        let sizes = vec![64u64, 1024, 16384];
        let vals = vec![1e-4, 2e-4, 10e-4];
        assert_eq!(interpolate(&sizes, &vals, 64), 1e-4);
        assert_eq!(interpolate(&sizes, &vals, 1024), 2e-4);
        assert_eq!(interpolate(&sizes, &vals, 16384), 10e-4);
    }

    #[test]
    fn interpolation_is_monotone_between_points() {
        let sizes = vec![64u64, 1024];
        let vals = vec![1e-4, 2e-4];
        let mid = interpolate(&sizes, &vals, 544);
        assert!(mid > 1e-4 && mid < 2e-4);
        let exact = 1e-4 + (544.0 - 64.0) / 960.0 * 1e-4;
        assert!((mid - exact).abs() < 1e-15);
    }

    #[test]
    fn extrapolation_uses_last_slope() {
        let sizes = vec![1000u64, 2000];
        let vals = vec![1.0, 2.0]; // slope 1e-3 per byte
        let v = interpolate(&sizes, &vals, 3000);
        assert!((v - 3.0).abs() < 1e-12);
    }

    #[test]
    fn below_first_probe_clamps() {
        let sizes = vec![64u64, 1024];
        let vals = vec![1e-4, 2e-4];
        assert_eq!(interpolate(&sizes, &vals, 1), 1e-4);
    }

    #[test]
    fn self_pair_is_loopback() {
        let m = LatencyModel::from_table(3, vec![64], vec![1.0, 2.0, 3.0]);
        assert!(m.no_load(NodeId(1), NodeId(1), 4096) < 1e-5);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `pair_index` is symmetric and within bounds for arbitrary n.
            #[test]
            fn pair_index_bounds(n in 2usize..64, a in 0u32..64, b in 0u32..64) {
                prop_assume!((a as usize) < n && (b as usize) < n && a != b);
                let m = LatencyModel::from_table(n, vec![1], vec![0.0; LatencyModel::pairs(n)]);
                let idx = m.pair_index(NodeId(a), NodeId(b));
                prop_assert!(idx < LatencyModel::pairs(n));
                prop_assert_eq!(idx, m.pair_index(NodeId(b), NodeId(a)));
            }

            /// Interpolation of a monotone table is monotone and stays
            /// within the table's value range.
            #[test]
            fn interpolation_monotone(
                base in 1e-5f64..1e-2,
                slope in 1e-10f64..1e-6,
                x in 0u64..2_000_000,
            ) {
                let sizes = vec![64u64, 1024, 16384, 131072];
                let values: Vec<f64> =
                    sizes.iter().map(|&s| base + slope * s as f64).collect();
                let v = interpolate(&sizes, &values, x);
                let vnext = interpolate(&sizes, &values, x + 512);
                prop_assert!(v >= values[0] - 1e-15);
                prop_assert!(vnext >= v - 1e-15);
            }
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_sizes_panic() {
        let _ = LatencyModel::from_table(2, vec![10, 10], vec![1.0, 1.0]);
    }

    #[test]
    fn validate_rejects_wire_malformed_models() {
        let good = LatencyModel::from_table(3, vec![64, 1024], vec![1e-4; 6]);
        assert_eq!(good.validate(), Ok(()));
        // A wrong-dimension table smuggled in through serde.
        let bad: LatencyModel =
            serde_json::from_str("{\"n\": 3, \"sizes\": [64, 1024], \"table\": [0.1, 0.2]}")
                .expect("structurally valid JSON");
        assert!(bad.validate().is_err());
        let negative: LatencyModel =
            serde_json::from_str("{\"n\": 2, \"sizes\": [64], \"table\": [-1.0]}")
                .expect("structurally valid JSON");
        assert!(negative.validate().is_err());
    }
}
