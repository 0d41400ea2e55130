//! Property tests over random lifecycle transition sequences: whatever
//! order of stage/apply/accept/rollback verbs arrives, the state
//! machine never reaches accept-without-soak, never has two artifacts
//! active at once, and rejected transitions leave the state untouched.
//!
//! The same sequences then drive a live `ArtifactStore` with an
//! `io::Error` injected at one write point: whatever reached disk, the
//! store reopens to exactly the journal's state and keeps working.
//!
//! The vendored proptest stand-in draws numeric strategies only, so
//! each case draws a seed and a length and expands them into an op
//! sequence through a seeded RNG — fully deterministic per case.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};

use cbes_reconfig::{
    ArtifactKind, ArtifactStore, JournalRecord, Lifecycle, LifecycleError, LifecycleStatus,
    ReconfigError, WRITE_POINTS,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[derive(Debug, Clone, Copy)]
enum Op {
    Stage(ArtifactKind),
    Apply,
    Accept,
    Rollback,
}

fn ops_from_seed(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| match rng.random_range(0u32..6) {
            0 => Op::Stage(ArtifactKind::LatencyModel),
            1 => Op::Stage(ArtifactKind::ClusterPreset),
            2 => Op::Stage(ArtifactKind::ServingLimits),
            3 => Op::Apply,
            4 => Op::Accept,
            _ => Op::Rollback,
        })
        .collect()
}

/// A payload `validate_payload` accepts for `kind`.
fn payload(kind: ArtifactKind) -> String {
    match kind {
        ArtifactKind::LatencyModel => {
            let pairs = cbes_netmodel::LatencyModel::pairs(3);
            let model = cbes_netmodel::LatencyModel::from_table(3, vec![64], vec![1e-4; pairs]);
            serde_json::to_string(&model).expect("model encodes")
        }
        ArtifactKind::ClusterPreset => {
            cbes_cluster::ClusterSpec::from_cluster(&cbes_cluster::presets::two_switch_demo())
                .to_json()
        }
        ArtifactKind::ServingLimits => {
            "{\"max_rps\": 5.0, \"shed_retry_after_ms\": 10}".to_string()
        }
    }
}

/// Issue `op` against a live store the way an operator would (rejected
/// transitions are part of the sequence), returning its error if any.
fn issue(store: &ArtifactStore, op: Op) -> Option<ReconfigError> {
    match op {
        Op::Stage(kind) => store.stage(kind, &payload(kind), None).err(),
        Op::Apply => store.apply().err(),
        Op::Accept => store.accept().err(),
        Op::Rollback => store.rollback("prop", false).err(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ROADMAP claim 2(b), one-crate form: an `io::Error` at any write
    /// point — with or without a short write left in the journal, and
    /// however the operator retries afterwards — never costs the next
    /// boot. Reopening succeeds, recovers exactly what the journal
    /// holds, and the store then completes a full cycle.
    #[test]
    fn an_injected_write_error_never_bricks_the_store(
        seed in 0u64..u64::MAX,
        len in 4usize..24,
    ) {
        // `proptest!` registers a `#[test]`-annotated property twice and
        // the two copies draw the same seeds, so the seed cannot name the
        // scratch directory.
        static CASE: AtomicU32 = AtomicU32::new(0);
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("cbes-reconfig-prop-{case}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = dir.join("journal.jsonl");

        // The fault: the `nth` time `point` is reached it fails, after
        // leaving half a record behind if `torn` (journal points only).
        let mut rng = StdRng::seed_from_u64(!seed);
        let point = WRITE_POINTS[rng.random_range(0..WRITE_POINTS.len())];
        let nth = rng.random_range(0u32..3);
        let torn = point.ends_with(".pre") && rng.random_range(0u32..2) == 0;
        let reached = AtomicU32::new(0);
        let torn_journal = journal.clone();
        let hook = Box::new(move |at: &str| {
            if at != point || reached.fetch_add(1, Ordering::Relaxed) != nth {
                return Ok(());
            }
            if torn {
                let mut f = std::fs::OpenOptions::new().append(true).open(&torn_journal)?;
                f.write_all(b"{\"op\":\"app")?;
            }
            Err(std::io::Error::other("injected fault"))
        });

        {
            let store = ArtifactStore::open_with_hook(&dir, hook).expect("open");
            // Only a failed *append* latches the fault (a failed payload
            // write touches no journal); once latched, every verb is
            // refused and the status says why.
            let mut latched = false;
            for op in ops_from_seed(seed, len) {
                let err = issue(&store, op);
                let refused = matches!(err, Some(ReconfigError::JournalFailed(_)));
                prop_assert_eq!(refused, latched, "{op:?} after the fault at {point}");
                latched |= point.contains(".journal.")
                    && matches!(err, Some(ReconfigError::Io { .. }));
                prop_assert_eq!(store.status().journal_fault.is_some(), latched);
            }
        }

        let reopened = ArtifactStore::open(&dir);
        prop_assert!(
            reopened.is_ok(),
            "reopen after {point} (torn: {torn}) failed: {:?}",
            reopened.err()
        );
        let store = reopened.expect("checked above");
        // The recovered state is a pure lifecycle fed the journal's
        // records, nothing more and nothing less.
        let mut pure = Lifecycle::new();
        for line in std::fs::read_to_string(&journal).expect("journal").lines() {
            let record: JournalRecord = serde_json::from_str(line).expect("journal line parses");
            prop_assert!(pure.commit(&record).is_ok(), "journal replays: {line}");
        }
        prop_assert_eq!(store.status(), LifecycleStatus::of(&pure));

        if store.soaking().is_some() {
            prop_assert!(store.rollback("cleanup", false).is_ok());
        }
        let v = store.stage(ArtifactKind::ServingLimits, &payload(ArtifactKind::ServingLimits), None);
        prop_assert!(v.is_ok() && store.apply().is_ok() && store.accept().is_ok());
        prop_assert_eq!(store.active().map(|a| a.version), v.ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_sequences_preserve_the_invariants(
        seed in 0u64..u64::MAX,
        len in 1usize..60,
    ) {
        let mut l = Lifecycle::new();
        // Soak/accept bookkeeping mirrored independently of the
        // implementation, so the invariants are externally checked,
        // not read back from the code under test.
        let mut soak_open = false;
        let mut last_accepted: Option<u64> = None;

        for op in ops_from_seed(seed, len) {
            let before = l.clone();
            match op {
                Op::Stage(kind) => {
                    let record = l.plan_stage(kind);
                    prop_assert!(l.commit(&record).is_ok());
                    // Staging never touches the serving side.
                    prop_assert_eq!(l.soaking().is_some(), soak_open);
                    prop_assert_eq!(l.active().map(|a| a.version), last_accepted);
                }
                Op::Apply => {
                    match l.plan_apply() {
                        Ok(record) => {
                            // Never double-active: an apply can only
                            // succeed when no soak is in progress.
                            prop_assert!(!soak_open, "apply accepted during a soak");
                            prop_assert!(before.staged().is_some());
                            prop_assert!(l.commit(&record).is_ok());
                            soak_open = true;
                        }
                        Err(e) => {
                            prop_assert!(matches!(
                                e,
                                LifecycleError::NothingStaged
                                    | LifecycleError::SoakInProgress { .. }
                            ));
                            prop_assert_eq!(&l, &before, "rejected apply mutated state");
                        }
                    }
                }
                Op::Accept => {
                    match l.plan_accept() {
                        Ok(record) => {
                            // Never accept-without-soak.
                            prop_assert!(soak_open, "accept accepted without a soak");
                            prop_assert!(l.commit(&record).is_ok());
                            soak_open = false;
                            last_accepted = Some(record.version);
                        }
                        Err(e) => {
                            prop_assert_eq!(e, LifecycleError::NothingSoaking);
                            prop_assert_eq!(&l, &before, "rejected accept mutated state");
                        }
                    }
                }
                Op::Rollback => {
                    match l.plan_rollback("prop", true) {
                        Ok(record) => {
                            prop_assert!(soak_open, "rollback accepted without a soak");
                            // Rollback falls back to the accepted
                            // config, never anything else.
                            prop_assert_eq!(record.previous, last_accepted.unwrap_or(0));
                            prop_assert!(l.commit(&record).is_ok());
                            soak_open = false;
                        }
                        Err(e) => {
                            prop_assert_eq!(e, LifecycleError::NothingSoaking);
                            prop_assert_eq!(&l, &before, "rejected rollback mutated state");
                        }
                    }
                }
            }

            // Global invariants after every step.
            prop_assert_eq!(l.soaking().is_some(), soak_open);
            prop_assert_eq!(l.active().map(|a| a.version), last_accepted);
            // Exactly one artifact serves: the soaking one shadows the
            // accepted one; with no soak the accepted artifact serves.
            let serving = l.serving().map(|a| a.version);
            if soak_open {
                prop_assert_eq!(serving, l.soaking().map(|s| s.artifact.version));
            } else {
                prop_assert_eq!(serving, last_accepted);
            }
        }
    }

    /// Replaying any sequence's journal records from scratch
    /// reconstructs the same state (replay = commit, so this is the
    /// crash-recovery path on random histories).
    #[test]
    fn replaying_committed_records_reconstructs_the_state(
        seed in 0u64..u64::MAX,
        len in 1usize..40,
    ) {
        let mut l = Lifecycle::new();
        let mut journal = Vec::new();
        for op in ops_from_seed(seed, len) {
            let planned = match op {
                Op::Stage(kind) => Some(l.plan_stage(kind)),
                Op::Apply => l.plan_apply().ok(),
                Op::Accept => l.plan_accept().ok(),
                Op::Rollback => l.plan_rollback("prop", false).ok(),
            };
            if let Some(record) = planned {
                prop_assert!(l.commit(&record).is_ok());
                journal.push(record);
            }
        }
        let mut replayed = Lifecycle::new();
        for record in &journal {
            prop_assert!(replayed.commit(record).is_ok());
        }
        prop_assert_eq!(replayed, l);
    }
}
