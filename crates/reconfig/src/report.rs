//! Serialisable lifecycle status reports, carried by the
//! `artifact_status` protocol action and merged tier-wide by the
//! router (one [`InstanceStatus`] per instance).

use serde::{Deserialize, Serialize};

use crate::lifecycle::Lifecycle;

/// A short reference to one artifact version.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactSummary {
    /// Store-assigned version.
    pub version: u64,
    /// Artifact kind name.
    pub kind: String,
}

/// The soak in progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoakSummary {
    /// The provisionally active version.
    pub version: u64,
    /// Artifact kind name.
    pub kind: String,
    /// Version to fall back to on rollback (`0` = boot config).
    pub previous: u64,
}

/// The most recent rollback.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RollbackReport {
    /// The version that was rolled back.
    pub version: u64,
    /// Operator- or monitor-supplied reason.
    pub reason: String,
    /// `true` when the soak monitor fired it.
    pub auto: bool,
}

/// One artifact the store has ever staged, with its lifecycle state
/// (`staged`, `soaking`, `active`, `rolled_back`, or `retired`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArtifactEntry {
    /// Store-assigned version.
    pub version: u64,
    /// Artifact kind name.
    pub kind: String,
    /// Current lifecycle state.
    pub state: String,
}

/// One store's full lifecycle snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleStatus {
    /// The artifact waiting to be applied, if any.
    pub staged: Option<ArtifactSummary>,
    /// The soak in progress, if any.
    pub soaking: Option<SoakSummary>,
    /// The durably accepted artifact, if any.
    pub active: Option<ArtifactSummary>,
    /// The most recent rollback, if any.
    pub last_rollback: Option<RollbackReport>,
    /// Journal records replayed/appended so far.
    pub journal_records: u64,
    /// Every version ever staged, in version order.
    pub artifacts: Vec<ArtifactEntry>,
    /// Why the store refuses transitions, when an earlier journal append
    /// failed; cleared by reopening the store (restarting the daemon).
    pub journal_fault: Option<String>,
}

/// One serving instance's lifecycle status, as reported on the wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceStatus {
    /// The instance's listen address.
    pub addr: String,
    /// Whether the instance has a state directory at all (a daemon
    /// started without `--state-dir` reports `false` and an empty
    /// status).
    pub reconfigurable: bool,
    /// The instance's lifecycle snapshot.
    pub status: LifecycleStatus,
}

/// The tier-wide artifact status: one entry per instance. A standalone
/// daemon reports a single entry for itself; the router concatenates
/// entries from every instance it reaches.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Per-instance statuses, sorted by address after a tier merge.
    pub instances: Vec<InstanceStatus>,
}

impl LifecycleStatus {
    /// The empty status of a daemon with no artifact store.
    pub fn empty() -> LifecycleStatus {
        LifecycleStatus::of(&Lifecycle::new())
    }

    /// The status of a store whose lifecycle state is `state`.
    pub fn of(state: &Lifecycle) -> LifecycleStatus {
        let summary = |a: crate::ArtifactRef| ArtifactSummary {
            version: a.version,
            kind: a.kind.as_str().to_string(),
        };
        LifecycleStatus {
            staged: state.staged().map(summary),
            soaking: state.soaking().map(|s| SoakSummary {
                version: s.artifact.version,
                kind: s.artifact.kind.as_str().to_string(),
                previous: s.previous,
            }),
            active: state.active().map(summary),
            last_rollback: state.last_rollback().map(|n| RollbackReport {
                version: n.version,
                reason: n.reason.clone(),
                auto: n.auto,
            }),
            journal_records: state.records(),
            artifacts: state
                .entries()
                .into_iter()
                .map(|(version, kind, lifecycle_state)| ArtifactEntry {
                    version,
                    kind: kind.as_str().to_string(),
                    state: lifecycle_state.to_string(),
                })
                .collect(),
            journal_fault: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_report_round_trips() {
        let report = StatusReport {
            instances: vec![InstanceStatus {
                addr: "127.0.0.1:7000".to_string(),
                reconfigurable: true,
                status: LifecycleStatus {
                    staged: Some(ArtifactSummary {
                        version: 3,
                        kind: "latency_model".to_string(),
                    }),
                    soaking: Some(SoakSummary {
                        version: 2,
                        kind: "latency_model".to_string(),
                        previous: 1,
                    }),
                    active: Some(ArtifactSummary {
                        version: 1,
                        kind: "serving_limits".to_string(),
                    }),
                    last_rollback: None,
                    journal_records: 7,
                    artifacts: vec![ArtifactEntry {
                        version: 1,
                        kind: "serving_limits".to_string(),
                        state: "active".to_string(),
                    }],
                    journal_fault: Some("i/o error on journal.jsonl: disk full".to_string()),
                },
            }],
        };
        let json = serde_json::to_string(&report).expect("encodes");
        let back: StatusReport = serde_json::from_str(&json).expect("decodes");
        assert_eq!(back, report);
    }
}
