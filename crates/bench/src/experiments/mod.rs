//! One module per experiment; [`crate::EXPERIMENTS`] is the index.

pub mod ablation_calibration;
pub mod ablation_forecast;
pub mod ablation_lambda;
pub mod ablation_moves;
pub mod ablation_sched;
pub mod average_case;
pub mod e10_latency_spread;
pub mod ext_irregular;
pub mod fig5_prediction_error;
pub mod fig6_lu_zones;
pub mod fig7_distributions;
pub mod phase1_sweep;
pub mod phase3_load_sensitivity;
pub mod worst_best;
