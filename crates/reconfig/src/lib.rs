//! `cbes-reconfig`: zero-downtime live reconfiguration for the CBES
//! serving tier.
//!
//! The paper's premise is a *continuously recalibrated* estimating
//! service — load sweeps and latency calibration keep feeding eq. 5/6/8
//! — yet a daemon that fixes its calibration model, cluster preset, and
//! serving limits at process start pays a restart (and a window of lost
//! requests) for every refresh. This crate closes that gap with a
//! syscare-style hot-patch lifecycle over *configuration artifacts*:
//!
//! ```text
//!   stage → apply → (soak) → accept
//!                      └───→ rollback
//! ```
//!
//! * [`ArtifactStore`] persists versioned artifact payloads crash-safely
//!   (write-temp + fsync + atomic rename) plus an append-only lifecycle
//!   journal; reopening the store replays the journal and recovers the
//!   exact staged/soaking/active state, so a `kill -9` at any write
//!   point never leaves a half-flipped config.
//! * [`Lifecycle`] is the pure state machine behind the store: every
//!   durable mutation is planned, journalled, then committed, and
//!   replay re-validates each record, so `accept` without a soak or a
//!   second concurrent activation is impossible by construction.
//! * Artifact kinds ([`ArtifactKind`]) cover calibrated latency models,
//!   cluster topology presets, and serving/admission limits
//!   ([`ServingLimits`]); payloads are validated at stage time against
//!   the running cluster's node count.
//!
//! Activation itself (the atomic epoch bump on the serving snapshot
//! path) and the telemetry-driven soak monitor live in `cbes-server`,
//! which drives this store; the router broadcasts the lifecycle verbs
//! tier-wide so one CLI call reconfigures every instance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod lifecycle;
pub mod report;
pub mod store;

pub use lifecycle::{
    ArtifactKind, ArtifactRef, JournalRecord, Lifecycle, LifecycleError, RollbackNote, Soak,
};
pub use report::{
    ArtifactEntry, ArtifactSummary, InstanceStatus, LifecycleStatus, RollbackReport, SoakSummary,
    StatusReport,
};
pub use store::{
    validate_payload, Applied, ArtifactStore, FaultHook, ReconfigError, RolledBack, ServingLimits,
    WRITE_POINTS,
};
