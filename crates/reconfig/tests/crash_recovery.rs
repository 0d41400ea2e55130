//! Kill -9 crash-recovery suite: a child process drives a fixed
//! lifecycle sequence against a scratch store whose fault hook aborts
//! at one write point (see `cbes_reconfig::FaultHook`), dies mid-write,
//! and the parent reopens the store and asserts the recovered state is
//! exactly the state whose journal records reached disk — never
//! anything in between.
//!
//! The child is this same test binary re-executed with
//! `--exact crash_helper_drives_the_store`; the helper test is a no-op
//! unless `CBES_RECONFIG_CRASH_DIR` is set, and `CBES_FAIL_POINT` names
//! the write point its hook aborts at. Both variables exist only in
//! this file.

use std::path::PathBuf;
use std::process::Command;

use cbes_reconfig::{ArtifactKind, ArtifactStore, ReconfigError, WRITE_POINTS};

const CRASH_DIR_ENV: &str = "CBES_RECONFIG_CRASH_DIR";
const FAIL_POINT_ENV: &str = "CBES_FAIL_POINT";

fn limits_payload(rps: f64) -> String {
    format!("{{\"max_rps\": {rps}, \"shed_retry_after_ms\": 10}}")
}

/// The fixed sequence both sides agree on: a full accept cycle for v1,
/// then an apply + rollback cycle for v2. Each step is attempted in
/// order; the child's hook aborts it inside one of them.
fn drive_sequence(store: &ArtifactStore) {
    let _ = store.stage(ArtifactKind::ServingLimits, &limits_payload(100.0), None);
    let _ = store.apply();
    let _ = store.accept();
    let _ = store.stage(ArtifactKind::ServingLimits, &limits_payload(50.0), None);
    let _ = store.apply();
    let _ = store.rollback("crash-suite rollback", false);
}

/// Child-process entry point; a no-op in a normal test run.
#[test]
fn crash_helper_drives_the_store() {
    let Ok(dir) = std::env::var(CRASH_DIR_ENV) else {
        return;
    };
    let armed = std::env::var(FAIL_POINT_ENV).expect("parent names a write point");
    // The abort is deliberately unclean — no `Drop`, no stream flushing,
    // like `kill -9` — so whatever the store had made durable before
    // the write point is exactly what the parent's recovery sees.
    let hook = Box::new(move |point: &str| {
        if point == armed {
            eprintln!("write point \"{point}\" reached, aborting process");
            std::process::abort();
        }
        Ok(())
    });
    let store = ArtifactStore::open_with_hook(PathBuf::from(dir), hook).expect("child opens store");
    drive_sequence(&store);
    // The sequence reaches every write point, so the child never gets
    // here; if it does, the parent notices the clean exit and fails.
}

/// Expected recovered lifecycle per write point, expressed as
/// `(journal_records, staged, soaking, active)` versions (0 = none).
fn expected_after(point: &str) -> (u64, u64, u64, u64) {
    match point {
        // Payload writes precede the stage record: nothing journalled.
        "reconfig.stage.payload_tmp" => (0, 0, 0, 0),
        "reconfig.stage.payload_renamed" => (0, 0, 0, 0),
        "reconfig.journal.stage.pre" => (0, 0, 0, 0),
        "reconfig.journal.stage.post" => (1, 1, 0, 0),
        "reconfig.journal.apply.pre" => (1, 1, 0, 0),
        "reconfig.journal.apply.post" => (2, 0, 1, 0),
        "reconfig.journal.accept.pre" => (2, 0, 1, 0),
        "reconfig.journal.accept.post" => (3, 0, 0, 1),
        // The rollback points are first reached in the v2 cycle.
        "reconfig.journal.rollback.pre" => (5, 0, 2, 1),
        "reconfig.journal.rollback.post" => (6, 0, 0, 1),
        other => panic!("no expectation for write point {other}"),
    }
}

#[test]
fn recovery_at_every_write_point() {
    let exe = std::env::current_exe().expect("test binary path");
    for (i, point) in WRITE_POINTS.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("cbes-reconfig-crash-{i}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");

        let status = Command::new(&exe)
            .arg("--exact")
            .arg("crash_helper_drives_the_store")
            .arg("--nocapture")
            .env(CRASH_DIR_ENV, &dir)
            .env(FAIL_POINT_ENV, point)
            .status()
            .expect("spawn crash child");
        assert!(
            !status.success(),
            "write point {point} did not kill the child (status {status})"
        );

        let store = ArtifactStore::open(&dir)
            .unwrap_or_else(|e| panic!("recovery after {point} failed: {e}"));
        let status = store.status();
        let (records, staged, soaking, active) = expected_after(point);
        assert_eq!(
            status.journal_records, records,
            "journal records after {point}"
        );
        assert_eq!(
            status.staged.as_ref().map_or(0, |a| a.version),
            staged,
            "staged version after {point}"
        );
        assert_eq!(
            status.soaking.as_ref().map_or(0, |s| s.version),
            soaking,
            "soaking version after {point}"
        );
        assert_eq!(
            status.active.as_ref().map_or(0, |a| a.version),
            active,
            "active version after {point}"
        );

        // The recovered store must remain fully usable: finish whatever
        // the crash interrupted, then run one more full accept cycle.
        if store.soaking().is_some() {
            store
                .rollback("post-crash cleanup", false)
                .unwrap_or_else(|e| panic!("rollback after {point}: {e}"));
        }
        let v = store
            .stage(ArtifactKind::ServingLimits, &limits_payload(75.0), None)
            .unwrap_or_else(|e| panic!("stage after {point}: {e}"));
        store
            .apply()
            .unwrap_or_else(|e| panic!("apply after {point}: {e}"));
        store
            .accept()
            .unwrap_or_else(|e| panic!("accept after {point}: {e}"));
        assert_eq!(store.active().map(|a| a.version), Some(v));

        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn clean_sequence_leaves_a_replayable_journal() {
    let dir =
        std::env::temp_dir().join(format!("cbes-reconfig-crash-clean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let store = ArtifactStore::open(&dir).expect("open");
        drive_sequence(&store);
        assert_eq!(store.status().journal_records, 6);
    }
    let store = ArtifactStore::open(&dir).expect("replay");
    let status = store.status();
    assert_eq!(status.journal_records, 6);
    assert_eq!(status.active.map(|a| a.version), Some(1));
    assert_eq!(status.soaking, None);
    assert_eq!(status.last_rollback.map(|r| r.version), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sequence that used to brick the next boot: the `apply` record
/// reaches disk, the append still reports failure, and the operator
/// retries. The store must refuse the retry (a second `apply v1` record
/// would make the journal unreplayable) and say why, until reopened.
#[test]
fn failed_append_refuses_retries_until_reopened() {
    let dir =
        std::env::temp_dir().join(format!("cbes-reconfig-crash-retry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let hook = Box::new(|point: &str| match point {
            "reconfig.journal.apply.post" => Err(std::io::Error::other("injected fault")),
            _ => Ok(()),
        });
        let store = ArtifactStore::open_with_hook(&dir, hook).expect("open");
        store
            .stage(ArtifactKind::ServingLimits, &limits_payload(100.0), None)
            .expect("stage");
        assert!(matches!(store.apply(), Err(ReconfigError::Io { .. })));
        let status = store.status();
        assert_eq!(
            status.staged.map(|a| a.version),
            Some(1),
            "state stays behind"
        );
        assert!(status.journal_fault.is_some(), "status says why");
        assert!(matches!(
            store.apply(),
            Err(ReconfigError::JournalFailed(_))
        ));
        assert!(matches!(
            store.accept(),
            Err(ReconfigError::JournalFailed(_))
        ));
    }
    // What `cbes serve --state-dir` does at boot.
    let store = ArtifactStore::open(&dir).expect("reopen");
    let status = store.status();
    assert_eq!(status.journal_records, 2, "the durable apply is recovered");
    assert_eq!(status.soaking.map(|s| s.version), Some(1));
    assert_eq!(status.journal_fault, None);
    store.accept().expect("accept after reopen");
    let _ = std::fs::remove_dir_all(&dir);
}
