//! The CBES system-information substrate: an empirical end-to-end latency
//! model, its off-line calibration procedure, the run-time load-adjustment
//! rule, and NWS-style forecasters.
//!
//! The paper's key infrastructure idea (§2): measuring all `O(N²)` pairwise
//! latencies continuously is infeasible, so CBES measures them **once**, at
//! calibration time, on an unloaded cluster — parallelised into benchmark
//! *cliques* so wall time is `O(N)` — and at query time *adjusts* the no-load
//! value for the current CPU/NIC load of the two endpoints, which only needs
//! the `O(N)` per-node monitor stream.
//!
//! * [`model::LatencyModel`] — no-load latency per node pair, piecewise-linear
//!   in message size, fitted from calibration measurements.
//! * [`calibrate::Calibrator`] — the off-line measurement campaign.
//! * [`LoadAdjuster`] — no-load → current latency adjustment.
//! * [`forecast`] — last-value / mean / median / adaptive forecasters for the
//!   monitoring stream (NWS-style; the Centurion prototype used NWS, the
//!   Orange Grove prototype used last-value).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(
    clippy::unwrap_used,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]
#![cfg_attr(
    not(test),
    warn(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod calibrate;
pub mod forecast;
pub mod model;

pub use calibrate::{CalibrationOutcome, Calibrator};
pub use model::{LatencyModel, Segment};

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use serde::{Deserialize, Serialize};

/// Adjusts a no-load end-to-end latency for the current CPU and NIC load of
/// the two endpoint nodes (paper §2, ref. \[12\]).
///
/// The adjusted latency is
/// `L_c = L_0 · (1 + α·((1-ACPU_src) + (1-ACPU_dst)) + β·(NIC_src + NIC_dst))`:
/// a busy CPU delays protocol processing, a busy NIC delays wire access.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadAdjuster {
    /// Sensitivity of latency to endpoint CPU load.
    pub alpha_cpu: f64,
    /// Sensitivity of latency to endpoint NIC load.
    pub beta_nic: f64,
}

impl Default for LoadAdjuster {
    fn default() -> Self {
        LoadAdjuster {
            alpha_cpu: 0.35,
            beta_nic: 0.6,
        }
    }
}

impl LoadAdjuster {
    /// Multiplicative load factor for a (src, dst) endpoint pair.
    #[inline]
    pub fn factor(&self, load: &LoadState, src: NodeId, dst: NodeId) -> f64 {
        let idle = |n| (1.0 - load.cpu_avail(n), load.nic_load(n));
        self.factor_of(idle(src), idle(dst))
    }

    /// The load factor from each endpoint's `(1 − ACPU, NIC)` — the one
    /// definition of the formula, for callers that hoisted `1 − ACPU`.
    #[inline]
    pub fn factor_of(&self, src: (f64, f64), dst: (f64, f64)) -> f64 {
        1.0 + self.alpha_cpu * (src.0 + dst.0) + self.beta_nic * (src.1 + dst.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_load_leaves_latency_unchanged() {
        let adj = LoadAdjuster::default();
        let load = LoadState::idle(4);
        assert_eq!(adj.factor(&load, NodeId(0), NodeId(1)), 1.0);
        assert_eq!(adj.factor_of((0.0, 0.0), (0.0, 0.0)), 1.0);
    }

    #[test]
    fn cpu_load_increases_latency() {
        let adj = LoadAdjuster::default();
        let mut load = LoadState::idle(4);
        load.set_cpu_avail(NodeId(0), 0.5);
        let f = adj.factor(&load, NodeId(0), NodeId(1));
        assert!(f > 1.0);
        assert!((f - (1.0 + 0.35 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn nic_load_increases_latency() {
        let adj = LoadAdjuster::default();
        let mut load = LoadState::idle(4);
        load.set_nic_load(NodeId(1), 0.4);
        let f = adj.factor(&load, NodeId(0), NodeId(1));
        assert!((f - (1.0 + 0.6 * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn load_effects_add_across_endpoints() {
        let adj = LoadAdjuster {
            alpha_cpu: 1.0,
            beta_nic: 0.0,
        };
        let mut load = LoadState::idle(4);
        load.set_cpu_avail(NodeId(0), 0.8);
        load.set_cpu_avail(NodeId(1), 0.7);
        let f = adj.factor(&load, NodeId(0), NodeId(1));
        assert!((f - 1.5).abs() < 1e-12);
    }
}
