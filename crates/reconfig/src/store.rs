//! The crash-safe artifact store: versioned payload files plus an
//! append-only lifecycle journal under one state directory.
//!
//! Durability protocol:
//!
//! * **Payloads** are written to `artifacts/.vN.tmp`, fsynced, then
//!   atomically renamed to `artifacts/vN.json` *before* the `stage`
//!   record is journalled. A crash between the rename and the journal
//!   append leaves an orphan payload file that replay simply ignores
//!   (the version was never staged, so the next stage reuses it and the
//!   rename overwrites the orphan).
//! * **The journal** (`journal.jsonl`) is append-only: one JSON record
//!   per line, flushed and fsynced per append. Replay tolerates exactly
//!   one torn trailing line (a crash mid-append), truncates the torn
//!   fragment so the next append starts a fresh line, and rejects
//!   anything else as corruption.
//! * Every write point passes through the store's [`FaultHook`], if it
//!   was built with one ([`ArtifactStore::open_with_hook`]); the crash
//!   suite's hook aborts the process there, the property suite's returns
//!   an `io::Error`. [`ArtifactStore::open`] — the only constructor
//!   production calls — installs none.
//!
//! The in-memory [`Lifecycle`] is only mutated *after* the record is on
//! disk, so the durable state always leads the visible state — a crash
//! can lose an acknowledgement, never an acknowledged transition. A
//! *failed* append leaves the journal's tail unknown (nothing, a torn
//! fragment, or the whole record may have landed), so the store then
//! refuses every further transition with [`ReconfigError::JournalFailed`]
//! until it is reopened: reopening replays and truncates the journal,
//! the one recovery path the crash suite proves.

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

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use cbes_obs::lock::{rank, Mutex, MutexGuard};

use crate::lifecycle::{
    op, ArtifactKind, ArtifactRef, JournalRecord, Lifecycle, LifecycleError, Soak,
};
use crate::report::LifecycleStatus;

/// Every write-point name the store's write paths pass to the
/// [`FaultHook`], in the order a full stage→apply→accept cycle reaches
/// them. The crash suite iterates this table so a new write point
/// cannot be added without being covered.
pub const WRITE_POINTS: [&str; 10] = [
    "reconfig.stage.payload_tmp",
    "reconfig.stage.payload_renamed",
    "reconfig.journal.stage.pre",
    "reconfig.journal.stage.post",
    "reconfig.journal.apply.pre",
    "reconfig.journal.apply.post",
    "reconfig.journal.accept.pre",
    "reconfig.journal.accept.post",
    "reconfig.journal.rollback.pre",
    "reconfig.journal.rollback.post",
];

/// A test's fault injector, called with the [`WRITE_POINTS`] name at each
/// write point. It may not return (the crash suite aborts the process
/// there), or return an error the store surfaces as
/// [`ReconfigError::Io`] at that point.
pub type FaultHook = Box<dyn Fn(&str) -> std::io::Result<()> + Send + Sync>;

/// A store-level failure.
#[derive(Debug)]
pub enum ReconfigError {
    /// A lifecycle transition was rejected.
    Lifecycle(LifecycleError),
    /// Filesystem I/O failed.
    Io {
        /// The path being read or written.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The journal holds a record that cannot be parsed or replayed.
    CorruptJournal {
        /// 1-based journal line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A payload failed kind-specific validation.
    InvalidPayload(String),
    /// An operation referenced a version the store has never staged.
    UnknownVersion(u64),
    /// An earlier journal append failed (the detail says how), so what
    /// reached disk is unknown and the store refuses transitions until
    /// it is reopened.
    JournalFailed(String),
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::Lifecycle(e) => write!(f, "{e}"),
            ReconfigError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            ReconfigError::CorruptJournal { line, detail } => {
                write!(f, "corrupt journal at line {line}: {detail}")
            }
            ReconfigError::InvalidPayload(detail) => write!(f, "invalid payload: {detail}"),
            ReconfigError::UnknownVersion(v) => write!(f, "unknown artifact version {v}"),
            ReconfigError::JournalFailed(detail) => write!(
                f,
                "a journal append failed ({detail}); transitions are refused until the \
                 store is reopened (restart the daemon)"
            ),
        }
    }
}

impl std::error::Error for ReconfigError {}

impl From<LifecycleError> for ReconfigError {
    fn from(e: LifecycleError) -> Self {
        ReconfigError::Lifecycle(e)
    }
}

/// Serving/admission limits carried by a `serving_limits` artifact.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServingLimits {
    /// Evaluation-request admission cap, requests/second (`0` = none).
    pub max_rps: f64,
    /// Back-off hint attached to shed replies, milliseconds.
    pub shed_retry_after_ms: u64,
}

/// Parse and validate an artifact payload for its kind.
///
/// `expected_nodes`, when known (the serving daemon knows its cluster
/// size), pins latency models and cluster presets to the running node
/// count — an artifact for the wrong cluster is rejected at stage time,
/// not at first query.
pub fn validate_payload(
    kind: ArtifactKind,
    payload: &str,
    expected_nodes: Option<usize>,
) -> Result<(), ReconfigError> {
    match kind {
        ArtifactKind::LatencyModel => {
            let model: cbes_netmodel::LatencyModel = serde_json::from_str(payload)
                .map_err(|e| ReconfigError::InvalidPayload(format!("latency model: {e}")))?;
            model.validate().map_err(ReconfigError::InvalidPayload)?;
            if let Some(n) = expected_nodes {
                if model.num_nodes() != n {
                    return Err(ReconfigError::InvalidPayload(format!(
                        "latency model covers {} nodes but the cluster has {n}",
                        model.num_nodes()
                    )));
                }
            }
        }
        ArtifactKind::ClusterPreset => {
            let spec: cbes_cluster::ClusterSpec = serde_json::from_str(payload)
                .map_err(|e| ReconfigError::InvalidPayload(format!("cluster preset: {e}")))?;
            // Count before building: `build` allocates every node, and a
            // group's `count` is whatever `u32` the client sent.
            let nodes: u64 = spec.groups.iter().map(|g| u64::from(g.count)).sum();
            if let Some(n) = expected_nodes {
                if nodes != n as u64 {
                    return Err(ReconfigError::InvalidPayload(format!(
                        "cluster preset defines {nodes} nodes but the cluster has {n}"
                    )));
                }
            }
            spec.build()
                .map_err(|e| ReconfigError::InvalidPayload(format!("cluster preset: {e}")))?;
        }
        ArtifactKind::ServingLimits => {
            let limits: ServingLimits = serde_json::from_str(payload)
                .map_err(|e| ReconfigError::InvalidPayload(format!("serving limits: {e}")))?;
            if !limits.max_rps.is_finite() || limits.max_rps < 0.0 {
                return Err(ReconfigError::InvalidPayload(format!(
                    "serving limits: max_rps {} is not a finite non-negative rate",
                    limits.max_rps
                )));
            }
        }
    }
    Ok(())
}

/// Outcome of [`ArtifactStore::apply`]: what to activate.
#[derive(Debug, Clone)]
pub struct Applied {
    /// The artifact now soaking.
    pub artifact: ArtifactRef,
    /// The previously active version (`0` = boot config).
    pub previous: u64,
    /// The artifact's payload JSON.
    pub payload: String,
}

/// Outcome of [`ArtifactStore::rollback`]: what to reinstate.
#[derive(Debug, Clone)]
pub struct RolledBack {
    /// The artifact rolled back.
    pub artifact: ArtifactRef,
    /// The version to reinstate (`0` = boot config).
    pub previous: u64,
    /// Payload of `previous` (`None` when reverting to boot config).
    pub previous_payload: Option<(ArtifactKind, String)>,
}

/// The crash-safe artifact store. All methods are `&self`; the journal
/// file and lifecycle state are internally synchronised, and concurrent
/// writers serialise on the journal lock.
pub struct ArtifactStore {
    dir: PathBuf,
    hook: Option<FaultHook>,
    inner: Mutex<Inner, { rank::STORE_INNER }>,
}

struct Inner {
    journal: File,
    state: Lifecycle,
    /// Set by the first failed append; see [`ReconfigError::JournalFailed`].
    journal_fault: Option<String>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> ReconfigError + '_ {
    move |source| ReconfigError::Io {
        path: path.to_path_buf(),
        source,
    }
}

impl ArtifactStore {
    /// Open (or initialise) the store under `dir`, replaying the
    /// journal to recover the exact pre-crash lifecycle state.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ArtifactStore, ReconfigError> {
        Self::open_inner(dir.into(), None)
    }

    /// [`ArtifactStore::open`] with a [`FaultHook`] at every write
    /// point. For crash and fault-injection tests only.
    pub fn open_with_hook(
        dir: impl Into<PathBuf>,
        hook: FaultHook,
    ) -> Result<ArtifactStore, ReconfigError> {
        Self::open_inner(dir.into(), Some(hook))
    }

    fn open_inner(dir: PathBuf, hook: Option<FaultHook>) -> Result<ArtifactStore, ReconfigError> {
        let artifacts = dir.join("artifacts");
        fs::create_dir_all(&artifacts).map_err(io_err(&artifacts))?;
        let journal_path = dir.join("journal.jsonl");
        let mut state = Lifecycle::new();
        if journal_path.exists() {
            let text = fs::read_to_string(&journal_path).map_err(io_err(&journal_path))?;
            let valid_len = Self::replay(&text, &mut state)?;
            // A torn trailing fragment (crash mid-append) was tolerated
            // by replay. Truncate it away before reopening for append:
            // otherwise the next record would be written onto the same
            // line as the fragment, turning a tolerated torn *tail*
            // into a fatal corrupt *interior* line on the open after
            // that. Truncation is idempotent — a crash mid-truncate
            // leaves a (shorter) fragment that the next open tolerates
            // and truncates again.
            if valid_len < text.len() {
                let f = OpenOptions::new()
                    .write(true)
                    .open(&journal_path)
                    .map_err(io_err(&journal_path))?;
                f.set_len(valid_len as u64).map_err(io_err(&journal_path))?;
                cbes_obs::lock::blocking("artifact-store fsync");
                f.sync_all().map_err(io_err(&journal_path))?;
            }
        }
        let journal = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(io_err(&journal_path))?;
        Ok(ArtifactStore {
            dir,
            hook,
            inner: Mutex::new(Inner {
                journal,
                state,
                journal_fault: None,
            }),
        })
    }

    /// Replay journal text into `state`, tolerating exactly one torn
    /// trailing line, and return the byte length of the valid committed
    /// prefix (everything past it is the torn fragment).
    ///
    /// A record only counts as committed when its terminating newline
    /// reached disk: the writer emits `record + '\n'` in one append, so
    /// an unterminated final line — even one that happens to parse —
    /// is a write the caller was never acknowledged for, and replay
    /// drops it rather than adopting a transition nobody observed.
    fn replay(text: &str, state: &mut Lifecycle) -> Result<usize, ReconfigError> {
        let mut offset = 0usize;
        let mut line_no = 0usize;
        while offset < text.len() {
            line_no += 1;
            let rest = &text[offset..];
            let (line, consumed) = match rest.find('\n') {
                Some(n) => (&rest[..n], n + 1),
                // Unterminated final line: the one tolerated torn tail.
                None => return Ok(offset),
            };
            if !line.trim().is_empty() {
                let record: JournalRecord = match serde_json::from_str(line) {
                    Ok(r) => r,
                    // A garbled *final* line is also a torn append (the
                    // newline flushed but the record bytes did not).
                    // Anywhere else it is corruption.
                    Err(_) if offset + consumed >= text.len() => {
                        return Ok(offset);
                    }
                    Err(e) => {
                        return Err(ReconfigError::CorruptJournal {
                            line: line_no,
                            detail: e.to_string(),
                        });
                    }
                };
                state
                    .commit(&record)
                    .map_err(|e| ReconfigError::CorruptJournal {
                        line: line_no,
                        detail: e.to_string(),
                    })?;
            }
            offset += consumed;
        }
        Ok(offset)
    }

    /// The state directory this store persists under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn payload_path(&self, version: u64) -> PathBuf {
        self.dir.join("artifacts").join(format!("v{version}.json"))
    }

    /// Pass write point `point` (about to touch, or just done with,
    /// `path`) through the fault hook, if the store has one.
    fn at(&self, point: &str, path: &Path) -> Result<(), ReconfigError> {
        match &self.hook {
            Some(hook) => hook(point).map_err(io_err(path)),
            None => Ok(()),
        }
    }

    /// Lock the store for a transition, refusing once an append failed.
    fn begin(&self) -> Result<MutexGuard<'_, Inner, { rank::STORE_INNER }>, ReconfigError> {
        let inner = self.inner.lock();
        match &inner.journal_fault {
            Some(detail) => Err(ReconfigError::JournalFailed(detail.clone())),
            None => Ok(inner),
        }
    }

    /// Append one record to the journal: write, flush, fsync.
    fn append(&self, journal: &mut File, record: &JournalRecord) -> Result<(), ReconfigError> {
        let path = self.dir.join("journal.jsonl");
        let mut line = serde_json::to_string(record).expect("journal records always serialise");
        line.push('\n');
        self.at(&format!("reconfig.journal.{}.pre", record.op), &path)?;
        journal.write_all(line.as_bytes()).map_err(io_err(&path))?;
        journal.flush().map_err(io_err(&path))?;
        cbes_obs::lock::blocking("artifact-store fsync");
        journal.sync_data().map_err(io_err(&path))?;
        self.at(&format!("reconfig.journal.{}.post", record.op), &path)
    }

    /// Make `record` durable, then — and only then — visible. A failed
    /// append latches `journal_fault` instead of advancing the state.
    fn journal(&self, inner: &mut Inner, record: &JournalRecord) -> Result<(), ReconfigError> {
        if let Err(e) = self.append(&mut inner.journal, record) {
            inner.journal_fault = Some(e.to_string());
            return Err(e);
        }
        Ok(inner.state.commit(record)?)
    }

    /// Stage a new artifact version: validate the payload, persist it
    /// durably, journal the `stage` record, and return the version.
    pub fn stage(
        &self,
        kind: ArtifactKind,
        payload: &str,
        expected_nodes: Option<usize>,
    ) -> Result<u64, ReconfigError> {
        validate_payload(kind, payload, expected_nodes)?;
        let mut inner = self.begin()?;
        let record = inner.state.plan_stage(kind);
        let version = record.version;
        // Payload first: write-temp + fsync + atomic rename, so the
        // journal never references a payload that is not fully on disk.
        let tmp = self.dir.join("artifacts").join(format!(".v{version}.tmp"));
        let target = self.payload_path(version);
        {
            let mut f = File::create(&tmp).map_err(io_err(&tmp))?;
            f.write_all(payload.as_bytes()).map_err(io_err(&tmp))?;
            cbes_obs::lock::blocking("artifact-store fsync");
            f.sync_all().map_err(io_err(&tmp))?;
        }
        self.at("reconfig.stage.payload_tmp", &tmp)?;
        fs::rename(&tmp, &target).map_err(io_err(&target))?;
        self.at("reconfig.stage.payload_renamed", &target)?;
        self.journal(&mut inner, &record)?;
        Ok(version)
    }

    /// Activate the staged artifact, entering its soak window. Returns
    /// the payload so the caller can swap it into the serving path.
    pub fn apply(&self) -> Result<Applied, ReconfigError> {
        let mut inner = self.begin()?;
        let record = inner.state.plan_apply()?;
        let artifact = inner
            .state
            .staged()
            .ok_or(ReconfigError::Lifecycle(LifecycleError::NothingStaged))?;
        let payload = self.read_payload(record.version)?;
        self.journal(&mut inner, &record)?;
        Ok(Applied {
            artifact,
            previous: record.previous,
            payload,
        })
    }

    /// Accept the soaking artifact as the durable active configuration.
    pub fn accept(&self) -> Result<ArtifactRef, ReconfigError> {
        let mut inner = self.begin()?;
        let record = inner.state.plan_accept()?;
        let artifact = inner
            .state
            .soaking()
            .map(|s| s.artifact)
            .ok_or(ReconfigError::Lifecycle(LifecycleError::NothingSoaking))?;
        self.journal(&mut inner, &record)?;
        Ok(artifact)
    }

    /// Roll the soaking artifact back. Returns what to reinstate:
    /// the previous version's payload, or `None` for the boot config.
    pub fn rollback(&self, reason: &str, auto: bool) -> Result<RolledBack, ReconfigError> {
        let mut inner = self.begin()?;
        let record = inner.state.plan_rollback(reason, auto)?;
        let soak = inner
            .state
            .soaking()
            .ok_or(ReconfigError::Lifecycle(LifecycleError::NothingSoaking))?;
        let previous_payload = if record.previous == 0 {
            None
        } else {
            let kind = inner
                .state
                .kind_of(record.previous)
                .ok_or(ReconfigError::UnknownVersion(record.previous))?;
            Some((kind, self.read_payload(record.previous)?))
        };
        self.journal(&mut inner, &record)?;
        Ok(RolledBack {
            artifact: soak.artifact,
            previous: record.previous,
            previous_payload,
        })
    }

    /// Read the payload of a staged version.
    pub fn payload(&self, version: u64) -> Result<String, ReconfigError> {
        {
            let inner = self.inner.lock();
            if inner.state.kind_of(version).is_none() {
                return Err(ReconfigError::UnknownVersion(version));
            }
        }
        self.read_payload(version)
    }

    fn read_payload(&self, version: u64) -> Result<String, ReconfigError> {
        let path = self.payload_path(version);
        fs::read_to_string(&path).map_err(io_err(&path))
    }

    /// The artifact currently soaking, if any.
    pub fn soaking(&self) -> Option<Soak> {
        self.inner.lock().state.soaking()
    }

    /// The durably accepted artifact, if any.
    pub fn active(&self) -> Option<ArtifactRef> {
        self.inner.lock().state.active()
    }

    /// The artifact a request is served under right now.
    pub fn serving(&self) -> Option<ArtifactRef> {
        self.inner.lock().state.serving()
    }

    /// A serialisable snapshot of the lifecycle, for status replies.
    pub fn status(&self) -> LifecycleStatus {
        let inner = self.inner.lock();
        LifecycleStatus {
            journal_fault: inner.journal_fault.clone(),
            ..LifecycleStatus::of(&inner.state)
        }
    }
}

// Keep the journal-op constants referenced so the module-level docs and
// write-point names cannot silently drift from the lifecycle vocabulary.
const _: [&str; 4] = [op::STAGE, op::APPLY, op::ACCEPT, op::ROLLBACK];

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cbes-reconfig-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn model_json(n: usize) -> String {
        let model = cbes_netmodel::LatencyModel::from_table(
            n,
            vec![64, 4096],
            vec![1e-4; cbes_netmodel::LatencyModel::pairs(n) * 2],
        );
        serde_json::to_string(&model).expect("model encodes")
    }

    #[test]
    fn stage_apply_accept_survives_reopen() {
        let dir = scratch("cycle");
        {
            let store = ArtifactStore::open(&dir).expect("open");
            let v = store
                .stage(ArtifactKind::LatencyModel, &model_json(4), Some(4))
                .expect("stage");
            assert_eq!(v, 1);
            let applied = store.apply().expect("apply");
            assert_eq!(applied.artifact.version, 1);
            assert_eq!(applied.previous, 0);
            store.accept().expect("accept");
        }
        let store = ArtifactStore::open(&dir).expect("reopen");
        assert_eq!(store.active().map(|a| a.version), Some(1));
        assert_eq!(store.soaking(), None);
        let status = store.status();
        assert_eq!(status.journal_records, 3);
        assert_eq!(status.artifacts.len(), 1);
        assert_eq!(status.artifacts[0].state, "active");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rollback_returns_the_previous_payload() {
        let dir = scratch("rollback");
        let store = ArtifactStore::open(&dir).expect("open");
        let first = model_json(3);
        store
            .stage(ArtifactKind::LatencyModel, &first, Some(3))
            .expect("stage v1");
        store.apply().expect("apply v1");
        store.accept().expect("accept v1");
        store
            .stage(ArtifactKind::LatencyModel, &model_json(3), Some(3))
            .expect("stage v2");
        store.apply().expect("apply v2");
        let rb = store.rollback("operator says no", false).expect("rollback");
        assert_eq!(rb.artifact.version, 2);
        assert_eq!(rb.previous, 1);
        let (kind, payload) = rb.previous_payload.expect("previous payload");
        assert_eq!(kind, ArtifactKind::LatencyModel);
        assert_eq!(payload, first);
        assert_eq!(store.serving().map(|a| a.version), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_journal_line_is_dropped() {
        let dir = scratch("torn");
        {
            let store = ArtifactStore::open(&dir).expect("open");
            store
                .stage(
                    ArtifactKind::ServingLimits,
                    "{\"max_rps\": 5.0, \"shed_retry_after_ms\": 10}",
                    None,
                )
                .expect("stage");
        }
        // Simulate a crash mid-append: garbage tail without newline.
        let journal = dir.join("journal.jsonl");
        let mut f = OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("open journal");
        f.write_all(b"{\"op\":\"app").expect("torn write");
        drop(f);
        let store = ArtifactStore::open(&dir).expect("reopen despite torn tail");
        assert_eq!(store.status().journal_records, 1);
        assert_eq!(store.soaking(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_recovery_truncates_so_later_appends_survive() {
        let dir = scratch("torn-append");
        {
            let store = ArtifactStore::open(&dir).expect("open");
            store
                .stage(
                    ArtifactKind::ServingLimits,
                    "{\"max_rps\": 5.0, \"shed_retry_after_ms\": 10}",
                    None,
                )
                .expect("stage");
        }
        let journal = dir.join("journal.jsonl");
        let mut f = OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("open journal");
        f.write_all(b"{\"op\":\"app").expect("torn write");
        drop(f);
        // Recover from the torn tail, then keep writing: the appended
        // record must land on a fresh line, not on the fragment.
        {
            let store = ArtifactStore::open(&dir).expect("reopen despite torn tail");
            store.apply().expect("apply after recovery");
        }
        let text = fs::read_to_string(&journal).expect("read journal");
        assert!(
            !text.contains("{\"op\":\"app{"),
            "torn fragment survived into an interior line: {text:?}"
        );
        let store = ArtifactStore::open(&dir).expect("reopen after post-recovery append");
        assert_eq!(store.status().journal_records, 2);
        assert_eq!(store.soaking().map(|s| s.artifact.version), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unterminated_final_record_is_treated_as_torn() {
        let dir = scratch("torn-no-newline");
        {
            let store = ArtifactStore::open(&dir).expect("open");
            store
                .stage(
                    ArtifactKind::ServingLimits,
                    "{\"max_rps\": 5.0, \"shed_retry_after_ms\": 10}",
                    None,
                )
                .expect("stage");
        }
        // A complete, parseable record whose newline never reached disk
        // was never acknowledged: replay must drop it, not adopt it.
        let journal = dir.join("journal.jsonl");
        let mut f = OpenOptions::new()
            .append(true)
            .open(&journal)
            .expect("open journal");
        f.write_all(
            b"{\"op\":\"apply\",\"version\":1,\"kind\":\"\",\"previous\":0,\"reason\":\"\",\"auto\":false}",
        )
        .expect("unterminated write");
        drop(f);
        {
            let store = ArtifactStore::open(&dir).expect("reopen");
            assert_eq!(store.status().journal_records, 1);
            assert_eq!(store.soaking(), None, "unacknowledged apply adopted");
            // And the store stays writable across another reopen.
            store.apply().expect("apply after recovery");
        }
        let store = ArtifactStore::open(&dir).expect("reopen after append");
        assert_eq!(store.status().journal_records, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_interior_line_is_corruption() {
        let dir = scratch("corrupt");
        {
            let store = ArtifactStore::open(&dir).expect("open");
            store
                .stage(
                    ArtifactKind::ServingLimits,
                    "{\"max_rps\": 5.0, \"shed_retry_after_ms\": 10}",
                    None,
                )
                .expect("stage");
        }
        let journal = dir.join("journal.jsonl");
        let text = fs::read_to_string(&journal).expect("read");
        fs::write(&journal, format!("not json\n{text}")).expect("rewrite");
        assert!(matches!(
            ArtifactStore::open(&dir),
            Err(ReconfigError::CorruptJournal { line: 1, .. })
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_validation_gates_staging() {
        let dir = scratch("validate");
        let store = ArtifactStore::open(&dir).expect("open");
        // Wrong node count for the running cluster.
        assert!(matches!(
            store.stage(ArtifactKind::LatencyModel, &model_json(4), Some(8)),
            Err(ReconfigError::InvalidPayload(_))
        ));
        // Structurally broken model.
        assert!(matches!(
            store.stage(
                ArtifactKind::LatencyModel,
                "{\"n\": 3, \"sizes\": [64], \"table\": [0.1]}",
                None
            ),
            Err(ReconfigError::InvalidPayload(_))
        ));
        assert!(matches!(
            store.stage(
                ArtifactKind::ServingLimits,
                "{\"max_rps\": -1.0, \"shed_retry_after_ms\": 0}",
                None
            ),
            Err(ReconfigError::InvalidPayload(_))
        ));
        // Nothing journalled by rejected stages.
        assert_eq!(store.status().journal_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A ~200-byte preset claiming 2^32 - 1 nodes is refused on its
    /// count, before `build` would allocate them all.
    #[test]
    fn an_oversized_preset_is_refused_before_it_is_built() {
        let dir = scratch("oversized");
        let store = ArtifactStore::open(&dir).expect("open");
        let payload = "{\"name\":\"huge\",\"switches\":[{\"ports\":8,\"hop_latency\":1e-6,\
            \"label\":\"s\"}],\"links\":[],\"groups\":[{\"count\":4294967295,\"arch\":\"Alpha\",\
            \"clock_mhz\":533,\"cpus\":1,\"speed\":1.0,\"switch\":0,\"nic_bandwidth\":1e8,\
            \"nic_latency\":1e-5}]}";
        #[expect(
            clippy::disallowed_methods,
            reason = "the test bounds how long a refusal takes"
        )]
        let start = std::time::Instant::now();
        let err = store.stage(ArtifactKind::ClusterPreset, payload, Some(8));
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert!(
            matches!(&err, Err(ReconfigError::InvalidPayload(d)) if d.contains("4294967295")),
            "{err:?}"
        );
        assert_eq!(store.status().journal_records, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_points_cover_every_journal_op() {
        for op_name in [op::STAGE, op::APPLY, op::ACCEPT, op::ROLLBACK] {
            for suffix in ["pre", "post"] {
                let point = format!("reconfig.journal.{op_name}.{suffix}");
                assert!(
                    WRITE_POINTS.contains(&point.as_str()),
                    "missing write point {point}"
                );
            }
        }
    }
}
