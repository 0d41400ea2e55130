//! The artifact lifecycle state machine, pure and I/O-free.
//!
//! Every durable mutation of the store is first *planned* against this
//! state machine (producing a [`JournalRecord`]), then persisted to the
//! journal, then *committed* back into it. Replay after a crash commits
//! the surviving records in order, so the recovered state is exactly the
//! prefix of the lifecycle that reached disk — never a half-applied
//! transition.
//!
//! Invariants enforced by [`Lifecycle::commit`] (and therefore by
//! replay):
//!
//! * at most one artifact is soaking at a time (`apply` while a soak is
//!   in progress is rejected — no "double active");
//! * `accept` and `rollback` require a soak in progress (`accept`
//!   without a preceding `apply` is rejected);
//! * the accepted artifact only ever changes through `accept`.

// A crash-safety path: it discards no value and drops no `Result`
// (CI's `-D warnings` makes these errors).
#![cfg_attr(
    not(test),
    warn(
        clippy::let_underscore_must_use,
        clippy::let_underscore_untyped,
        clippy::unused_result_ok
    )
)]

use serde::{Deserialize, Serialize};

/// Journal operation names, the closed vocabulary of [`JournalRecord::op`].
pub mod op {
    /// A new artifact version was staged.
    pub const STAGE: &str = "stage";
    /// The staged artifact was activated and entered its soak window.
    pub const APPLY: &str = "apply";
    /// The soaking artifact was accepted as the durable active config.
    pub const ACCEPT: &str = "accept";
    /// The soaking artifact was reverted to the previous active config.
    pub const ROLLBACK: &str = "rollback";
}

/// What kind of configuration an artifact carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A calibrated [`cbes_netmodel::LatencyModel`] table.
    LatencyModel,
    /// A [`cbes_cluster::ClusterSpec`] topology preset.
    ClusterPreset,
    /// Serving/admission limits (rate cap, shed back-off hint).
    ServingLimits,
}

impl ArtifactKind {
    /// The wire/journal name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::LatencyModel => "latency_model",
            ArtifactKind::ClusterPreset => "cluster_preset",
            ArtifactKind::ServingLimits => "serving_limits",
        }
    }

    /// Parse a wire/journal kind name.
    pub fn parse(s: &str) -> Option<ArtifactKind> {
        match s {
            "latency_model" => Some(ArtifactKind::LatencyModel),
            "cluster_preset" => Some(ArtifactKind::ClusterPreset),
            "serving_limits" => Some(ArtifactKind::ServingLimits),
            _ => None,
        }
    }
}

impl std::fmt::Display for ArtifactKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One append-only journal entry. All fields are always present on the
/// wire; fields irrelevant to an `op` hold their zero value (`0`, `""`,
/// `false`), so the record round-trips through the vendored serde derive
/// without optional-field machinery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// One of the [`op`] names.
    pub op: String,
    /// The artifact version the operation concerns.
    pub version: u64,
    /// Artifact kind name (`stage` records only, `""` otherwise).
    pub kind: String,
    /// For `apply`/`rollback`: the previously active version
    /// (`0` = the boot-time configuration).
    pub previous: u64,
    /// For `rollback`: the operator- or monitor-supplied reason.
    pub reason: String,
    /// For `rollback`: `true` when the soak monitor fired it.
    pub auto: bool,
}

impl JournalRecord {
    fn new(op: &str, version: u64) -> JournalRecord {
        JournalRecord {
            op: op.to_string(),
            version,
            kind: String::new(),
            previous: 0,
            reason: String::new(),
            auto: false,
        }
    }
}

/// A typed rejection of a lifecycle transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LifecycleError {
    /// `apply` with no staged artifact.
    NothingStaged,
    /// `apply` while another artifact is still soaking.
    SoakInProgress {
        /// The version currently soaking.
        soaking: u64,
    },
    /// `accept` or `rollback` with no soak in progress.
    NothingSoaking,
    /// A journal record that no valid transition could have produced
    /// (corrupt or hand-edited journal).
    BadRecord {
        /// Why the record was rejected.
        detail: String,
    },
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::NothingStaged => write!(f, "no artifact is staged"),
            LifecycleError::SoakInProgress { soaking } => {
                write!(
                    f,
                    "artifact v{soaking} is still soaking; accept or roll it back first"
                )
            }
            LifecycleError::NothingSoaking => write!(f, "no artifact is soaking"),
            LifecycleError::BadRecord { detail } => write!(f, "invalid journal record: {detail}"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// An artifact's identity within the lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactRef {
    /// Monotonic store-assigned version (starts at 1; 0 = boot config).
    pub version: u64,
    /// What the artifact carries.
    pub kind: ArtifactKind,
}

/// The soak in progress: which artifact is serving provisionally and
/// what to fall back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Soak {
    /// The provisionally active artifact.
    pub artifact: ArtifactRef,
    /// The previously active version (`0` = boot config).
    pub previous: u64,
}

/// A sticky note about the most recent rollback, for status reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollbackNote {
    /// The version that was rolled back.
    pub version: u64,
    /// Operator- or monitor-supplied reason.
    pub reason: String,
    /// `true` when the soak monitor fired it.
    pub auto: bool,
}

/// The replayable lifecycle state. See the module docs for invariants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lifecycle {
    highest_version: u64,
    staged: Option<ArtifactRef>,
    soaking: Option<Soak>,
    active: Option<ArtifactRef>,
    kinds: std::collections::BTreeMap<u64, ArtifactKind>,
    rolled_back: std::collections::BTreeSet<u64>,
    last_rollback: Option<RollbackNote>,
    records: u64,
}

impl Lifecycle {
    /// A fresh lifecycle with nothing staged, soaking, or active.
    pub fn new() -> Lifecycle {
        Lifecycle::default()
    }

    /// The artifact waiting to be applied, if any.
    pub fn staged(&self) -> Option<ArtifactRef> {
        self.staged
    }

    /// The soak in progress, if any.
    pub fn soaking(&self) -> Option<Soak> {
        self.soaking
    }

    /// The durably accepted artifact, if any.
    pub fn active(&self) -> Option<ArtifactRef> {
        self.active
    }

    /// The artifact a request is served under right now: the soaking
    /// artifact when a soak is in progress, the accepted one otherwise.
    pub fn serving(&self) -> Option<ArtifactRef> {
        self.soaking.map(|s| s.artifact).or(self.active)
    }

    /// The most recent rollback, if any.
    pub fn last_rollback(&self) -> Option<&RollbackNote> {
        self.last_rollback.as_ref()
    }

    /// How many journal records produced this state.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Kind of a known version.
    pub fn kind_of(&self, version: u64) -> Option<ArtifactKind> {
        self.kinds.get(&version).copied()
    }

    /// Every version the store has ever staged, with its current state
    /// (`staged`, `soaking`, `active`, `rolled_back`, or `retired`).
    pub fn entries(&self) -> Vec<(u64, ArtifactKind, &'static str)> {
        self.kinds
            .iter()
            .map(|(&v, &kind)| {
                let state = if self.staged.is_some_and(|a| a.version == v) {
                    "staged"
                } else if self.soaking.is_some_and(|s| s.artifact.version == v) {
                    "soaking"
                } else if self.active.is_some_and(|a| a.version == v) {
                    "active"
                } else if self.rolled_back.contains(&v) {
                    "rolled_back"
                } else {
                    "retired"
                };
                (v, kind, state)
            })
            .collect()
    }

    /// Plan staging a new artifact: allocates the next version. Staging
    /// is always legal and replaces any previously staged artifact.
    pub fn plan_stage(&self, kind: ArtifactKind) -> JournalRecord {
        let mut record = JournalRecord::new(op::STAGE, self.highest_version + 1);
        record.kind = kind.as_str().to_string();
        record
    }

    /// Plan activating the staged artifact (entering its soak window).
    pub fn plan_apply(&self) -> Result<JournalRecord, LifecycleError> {
        if let Some(soak) = self.soaking {
            return Err(LifecycleError::SoakInProgress {
                soaking: soak.artifact.version,
            });
        }
        let staged = self.staged.ok_or(LifecycleError::NothingStaged)?;
        let mut record = JournalRecord::new(op::APPLY, staged.version);
        record.previous = self.active.map_or(0, |a| a.version);
        Ok(record)
    }

    /// Plan accepting the soaking artifact as the durable active config.
    pub fn plan_accept(&self) -> Result<JournalRecord, LifecycleError> {
        let soak = self.soaking.ok_or(LifecycleError::NothingSoaking)?;
        Ok(JournalRecord::new(op::ACCEPT, soak.artifact.version))
    }

    /// Plan rolling the soaking artifact back to the previous config.
    pub fn plan_rollback(&self, reason: &str, auto: bool) -> Result<JournalRecord, LifecycleError> {
        let soak = self.soaking.ok_or(LifecycleError::NothingSoaking)?;
        let mut record = JournalRecord::new(op::ROLLBACK, soak.artifact.version);
        record.previous = soak.previous;
        record.reason = reason.to_string();
        record.auto = auto;
        Ok(record)
    }

    /// Apply one journal record. Used both to commit a freshly planned
    /// record and to replay the journal after a restart; the same
    /// validation runs in both paths, so a journal that violates the
    /// lifecycle invariants is rejected instead of silently adopted.
    pub fn commit(&mut self, record: &JournalRecord) -> Result<(), LifecycleError> {
        match record.op.as_str() {
            op::STAGE => {
                let kind =
                    ArtifactKind::parse(&record.kind).ok_or_else(|| LifecycleError::BadRecord {
                        detail: format!("unknown artifact kind \"{}\"", record.kind),
                    })?;
                if record.version <= self.highest_version {
                    return Err(LifecycleError::BadRecord {
                        detail: format!(
                            "stage version {} is not above the high-water mark {}",
                            record.version, self.highest_version
                        ),
                    });
                }
                self.highest_version = record.version;
                let artifact = ArtifactRef {
                    version: record.version,
                    kind,
                };
                self.staged = Some(artifact);
                self.kinds.insert(record.version, kind);
            }
            op::APPLY => {
                let planned = self.plan_apply()?;
                if planned.version != record.version || planned.previous != record.previous {
                    return Err(LifecycleError::BadRecord {
                        detail: format!(
                            "apply of v{} (previous v{}) does not match the staged state",
                            record.version, record.previous
                        ),
                    });
                }
                let staged = self.staged.take().ok_or(LifecycleError::NothingStaged)?;
                self.soaking = Some(Soak {
                    artifact: staged,
                    previous: record.previous,
                });
            }
            op::ACCEPT => {
                let soak = self.soaking.ok_or(LifecycleError::NothingSoaking)?;
                if soak.artifact.version != record.version {
                    return Err(LifecycleError::BadRecord {
                        detail: format!(
                            "accept of v{} but v{} is soaking",
                            record.version, soak.artifact.version
                        ),
                    });
                }
                self.active = Some(soak.artifact);
                self.soaking = None;
            }
            op::ROLLBACK => {
                let soak = self.soaking.ok_or(LifecycleError::NothingSoaking)?;
                if soak.artifact.version != record.version {
                    return Err(LifecycleError::BadRecord {
                        detail: format!(
                            "rollback of v{} but v{} is soaking",
                            record.version, soak.artifact.version
                        ),
                    });
                }
                self.soaking = None;
                self.rolled_back.insert(record.version);
                self.last_rollback = Some(RollbackNote {
                    version: record.version,
                    reason: record.reason.clone(),
                    auto: record.auto,
                });
            }
            other => {
                return Err(LifecycleError::BadRecord {
                    detail: format!("unknown op \"{other}\""),
                });
            }
        }
        self.records += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn staged(l: &mut Lifecycle, kind: ArtifactKind) -> u64 {
        let r = l.plan_stage(kind);
        let v = r.version;
        l.commit(&r).expect("stage commits");
        v
    }

    #[test]
    fn full_accept_cycle() {
        let mut l = Lifecycle::new();
        let v = staged(&mut l, ArtifactKind::LatencyModel);
        assert_eq!(v, 1);
        let apply = l.plan_apply().expect("staged");
        assert_eq!(apply.previous, 0);
        l.commit(&apply).expect("apply commits");
        assert_eq!(l.serving().map(|a| a.version), Some(1));
        assert_eq!(l.active(), None);
        let accept = l.plan_accept().expect("soaking");
        l.commit(&accept).expect("accept commits");
        assert_eq!(l.active().map(|a| a.version), Some(1));
        assert_eq!(l.soaking(), None);
    }

    #[test]
    fn rollback_restores_the_previous_active() {
        let mut l = Lifecycle::new();
        staged(&mut l, ArtifactKind::LatencyModel);
        l.commit(&l.plan_apply().expect("apply v1"))
            .expect("commit");
        l.commit(&l.plan_accept().expect("accept v1"))
            .expect("commit");
        staged(&mut l, ArtifactKind::LatencyModel);
        let apply = l.plan_apply().expect("apply v2");
        assert_eq!(apply.previous, 1);
        l.commit(&apply).expect("commit");
        let rb = l.plan_rollback("p99 regression", true).expect("rollback");
        assert_eq!(rb.previous, 1);
        l.commit(&rb).expect("commit");
        assert_eq!(l.serving().map(|a| a.version), Some(1));
        assert_eq!(l.active().map(|a| a.version), Some(1));
        let note = l.last_rollback().expect("noted");
        assert!(note.auto);
        assert_eq!(note.version, 2);
    }

    #[test]
    fn accept_requires_a_soak() {
        let mut l = Lifecycle::new();
        assert_eq!(l.plan_accept(), Err(LifecycleError::NothingSoaking));
        staged(&mut l, ArtifactKind::ServingLimits);
        assert_eq!(l.plan_accept(), Err(LifecycleError::NothingSoaking));
    }

    #[test]
    fn apply_requires_a_staged_artifact_and_no_soak() {
        let mut l = Lifecycle::new();
        assert_eq!(l.plan_apply().err(), Some(LifecycleError::NothingStaged));
        staged(&mut l, ArtifactKind::LatencyModel);
        l.commit(&l.plan_apply().expect("apply")).expect("commit");
        staged(&mut l, ArtifactKind::LatencyModel);
        assert_eq!(
            l.plan_apply().err(),
            Some(LifecycleError::SoakInProgress { soaking: 1 })
        );
    }

    #[test]
    fn restaging_replaces_the_staged_slot() {
        let mut l = Lifecycle::new();
        staged(&mut l, ArtifactKind::LatencyModel);
        let v2 = staged(&mut l, ArtifactKind::ClusterPreset);
        assert_eq!(l.staged().map(|a| a.version), Some(v2));
        let entries = l.entries();
        assert_eq!(entries[0].2, "retired");
        assert_eq!(entries[1].2, "staged");
    }

    #[test]
    fn replay_rejects_forged_records() {
        let mut l = Lifecycle::new();
        let forged = JournalRecord::new(op::ACCEPT, 7);
        assert_eq!(l.commit(&forged), Err(LifecycleError::NothingSoaking));
        let unknown = JournalRecord::new("teleport", 1);
        assert!(matches!(
            l.commit(&unknown),
            Err(LifecycleError::BadRecord { .. })
        ));
    }

    #[test]
    fn journal_record_round_trips() {
        let mut l = Lifecycle::new();
        staged(&mut l, ArtifactKind::LatencyModel);
        let record = l.plan_apply().expect("apply");
        let json = serde_json::to_string(&record).expect("encodes");
        let back: JournalRecord = serde_json::from_str(&json).expect("decodes");
        assert_eq!(back, record);
    }
}
