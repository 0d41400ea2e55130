//! A discrete-event simulator of message-passing (MPI-like) programs running
//! on a modelled heterogeneous cluster.
//!
//! This crate substitutes for the paper's real testbeds (LAM/MPI on the
//! Centurion and Orange Grove clusters). It executes a [`Program`] — one
//! sequence of [`Op`]s per rank — against a [`cbes_cluster::Cluster`], a
//! background [`cbes_cluster::load::LoadState`], and a [`SimConfig`], and
//! produces the *measured* wall time plus a full execution trace from
//! which application profiles are extracted.
//!
//! ## Fidelity vs. the CBES evaluation formula
//!
//! The simulator is deliberately a *finer-grained* model than the CBES
//! prediction operation (paper eq. 4–8): it routes every individual message
//! over the switch topology with per-link serialisation and contention,
//! time-shares CPUs, applies per-event stochastic noise, and respects true
//! happens-before ordering between ranks. The evaluator only sees aggregate
//! message groups and a load-adjusted latency model. The gap between the two
//! is what yields honest prediction errors of a few percent (paper Figure 5)
//! rather than a circular zero.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod error;
pub mod noise;
pub mod program;

pub use engine::{simulate, RankStats, SimResult};
pub use error::SimError;
pub use program::{Op, Program};

use cbes_cluster::Architecture;
use cbes_netmodel::LoadAdjuster;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Simulator configuration: timing constants, noise levels, and feature
/// switches. All time constants are in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; every run with the same seed, inputs and config is
    /// bit-for-bit reproducible.
    pub seed: u64,
    /// Relative σ of multiplicative noise on compute durations.
    pub compute_noise: f64,
    /// Relative σ of multiplicative noise on message latencies.
    pub net_noise: f64,
    /// Model link/NIC contention (serialisation of concurrent transfers).
    pub contention: bool,
    /// Fixed CPU cost of posting a send, at reference speed.
    pub send_overhead: f64,
    /// Fixed CPU cost of posting a receive, at reference speed.
    pub recv_overhead: f64,
    /// Per-byte CPU cost of message packing/unpacking, at reference speed.
    pub per_byte_overhead: f64,
    /// Fixed synchronisation cost of a barrier release.
    pub barrier_cost: f64,
    /// How endpoint load inflates message latency; must match the adjuster
    /// the prediction side uses for load effects to be learnable.
    pub load_adjuster: LoadAdjuster,
    /// Per-architecture efficiency of this application's code (multiplies
    /// node speed); empty map = 1.0 everywhere.
    pub arch_factors: BTreeMap<Architecture, f64>,
    /// Collect a full per-event trace (disable for large scheduling sweeps
    /// where only the wall time matters).
    pub collect_trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            compute_noise: 0.015,
            net_noise: 0.04,
            contention: true,
            send_overhead: 8e-6,
            recv_overhead: 8e-6,
            per_byte_overhead: 1.0 / 1.5e9,
            barrier_cost: 25e-6,
            load_adjuster: LoadAdjuster::default(),
            arch_factors: BTreeMap::new(),
            collect_trace: true,
        }
    }
}

impl SimConfig {
    /// Set the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Disable all stochastic noise (useful for analytical tests).
    pub fn noiseless(mut self) -> Self {
        self.compute_noise = 0.0;
        self.net_noise = 0.0;
        self
    }

    /// Architecture efficiency factor for `arch` (default 1.0).
    pub fn arch_factor(&self, arch: Architecture) -> f64 {
        self.arch_factors.get(&arch).copied().unwrap_or(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_compose() {
        let c = SimConfig {
            contention: false,
            ..SimConfig::default().with_seed(9).noiseless()
        };
        assert_eq!(c.seed, 9);
        assert_eq!(c.compute_noise, 0.0);
        assert!(!c.contention);
    }

    #[test]
    fn arch_factor_defaults_to_unity() {
        let mut c = SimConfig::default();
        assert_eq!(c.arch_factor(Architecture::Sparc), 1.0);
        c.arch_factors.insert(Architecture::Sparc, 0.9);
        assert_eq!(c.arch_factor(Architecture::Sparc), 0.9);
    }
}
