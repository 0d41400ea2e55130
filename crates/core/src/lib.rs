//! The CBES core: mapping evaluation and the surrounding service machinery.
//!
//! This crate implements the paper's primary contribution (§2–3):
//!
//! * [`mapping::Mapping`] — an assignment of application processes to
//!   cluster nodes (paper eq. 1–3).
//! * [`eval::Evaluator`] — the mapping evaluation operation: predict the
//!   execution time `S_M = max_i (R_i + C_i)` of an application under a
//!   candidate mapping (paper eq. 4–8), combining the application profile
//!   with a snapshot of current system conditions.
//! * [`snapshot::SystemSnapshot`] — the on-demand view of system state the
//!   evaluation consumes: the calibrated no-load latency model, the load
//!   adjuster, and the monitor's current per-node load estimates. This is
//!   the `O(N)` approximation of the full `O(N²)` resource picture.
//! * [`monitor::Monitor`] — the monitoring daemon stand-in: per-node
//!   forecasters fed by periodic load measurements.
//! * [`registry::ProfileRegistry`] — the application-profile database.
//! * [`service::CbesService`] — the façade accepting mapping-comparison
//!   requests from external clients (such as the schedulers in
//!   `cbes-sched`).
//! * [`remap::RemapAnalysis`] — cost/benefit analysis for re-mapping a
//!   running application when conditions change (the paper's motivating
//!   "remapping events", §2, implemented as an extension).

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

pub mod error;
pub mod eval;
pub mod health;
pub mod mapping;
pub mod monitor;
pub mod registry;
pub mod remap;
pub mod service;
pub mod snapshot;

pub use error::ServiceError;
pub use eval::{Evaluator, Prediction};
pub use health::{HealthPolicy, HealthTracker, HealthView, NodeHealth};
pub use mapping::Mapping;
pub use monitor::{ForecastKind, Monitor};
pub use registry::ProfileRegistry;
pub use remap::{MigrationCost, RemapAnalysis, RemapDecision};
pub use service::CbesService;
pub use snapshot::SystemSnapshot;
