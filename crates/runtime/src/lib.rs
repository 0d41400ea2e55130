//! Run-time orchestration of CBES-scheduled applications.
//!
//! The paper's design (§2) calls for more than one-shot placement: "if
//! system conditions, with regard to a running application, change, there
//! should be the capability of generating a new mapping for that
//! application ... taking into account the task remapping costs", and the
//! future-work section (§8) names "application monitoring and remapping
//! capabilities" as the next step. This crate implements that loop over the
//! simulated testbed:
//!
//! 1. a [`PhasedApp`] executes phase by phase (the paper's LAM/MPI trace
//!    *segments*),
//! 2. between phases the [`Orchestrator`] feeds the monitor with the
//!    current background load, re-schedules the *remaining* work under the
//!    forecast conditions, and
//! 3. a [`cbes_core::remap::RemapAnalysis`] decides whether migrating pays
//!    for itself; if it does, the migration delay is charged and execution
//!    continues on the new mapping.
//!
//! The same loop runs under injected faults: a [`FaultSchedule`] masks
//! monitoring reports and perturbs the load the orchestrator sees, and
//! [`Orchestrator::run_chaos`] sets a faulted run beside its fault-free
//! baseline to check the resilience invariants (completion, no
//! `Down`-node assignments, bounded slowdown).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod error;
pub mod faults;
pub mod orchestrator;
pub mod phased;

pub use chaos::ChaosReport;
pub use error::RuntimeError;
pub use faults::{Disturbance, FaultEvent, FaultKind, FaultSchedule};
pub use orchestrator::{Orchestrator, PhaseReport, RunReport, RuntimeConfig};
pub use phased::PhasedApp;
