//! The daemon side of live reconfiguration: glue between the
//! crash-safe [`ArtifactStore`] (`cbes-reconfig`) and the serving
//! path.
//!
//! The store journals *what* the lifecycle state is; this runtime makes
//! the running daemon *agree* with it. Activation follows an overlay
//! model: the boot configuration (the cluster's own no-load latency
//! function, the `--max-rps` admission cap) is the base, and the
//! serving artifact overlays exactly one aspect of it — a calibrated
//! latency model or a cluster preset replaces the latency provider, a
//! serving-limits artifact retunes the admission cap. Activating an
//! artifact of one kind reverts the *other* aspect to boot, so the
//! live configuration is always `boot + the single journal-recorded
//! serving artifact` — exactly what [`restore`](ReconfigRuntime) and a
//! post-restart replay rebuild. Every `apply` and `rollback` publishes
//! through exactly one snapshot-epoch bump (`cbes-core`'s atomic `Arc`
//! swap), so in-flight requests finish on the configuration they were
//! admitted under and a restart that replays the journal re-activates
//! the recovered serving artifact before the first request is
//! answered.
//!
//! Worker threads handle admin verbs concurrently, so every transition
//! that must flip *both* the store and the serving path (`apply`,
//! `accept`, `rollback`, post-restart resume) runs under one runtime
//! `transition` lock — a journalled apply can never interleave with a
//! concurrent rollback's restore such that the serving path ends up on
//! an artifact the store records as rolled back.

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

use std::path::PathBuf;
use std::sync::Arc;

use cbes_cluster::ClusterSpec;
use cbes_core::CbesService;
use cbes_netmodel::LatencyModel;
use cbes_obs::lock::{rank, Mutex};
use cbes_obs::{names, Counter, Gauge};
use cbes_reconfig::{
    ArtifactKind, ArtifactStore, InstanceStatus, ReconfigError, ServingLimits, StatusReport,
};

use crate::protocol::{error_kind, Response};
use crate::server::RateLimiter;

/// One soak in progress: the soaking version plus the shed-counter
/// baseline taken at apply time, so the monitor measures *regression
/// since the flip*, not ambient load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SoakState {
    /// The soaking artifact version.
    pub version: u64,
    /// Cumulative shed count (`server.overloaded`) when the soak began.
    pub sheds_at_apply: u64,
}

/// Per-daemon live-reconfiguration state: the artifact store plus the
/// hooks that make an activation real (latency-provider swap on the
/// core service, admission-cap retune on the rate limiter).
pub(crate) struct ReconfigRuntime {
    store: ArtifactStore,
    service: Arc<CbesService>,
    limiter: Arc<RateLimiter>,
    /// The `--max-rps` the daemon booted with; rollback to version 0
    /// reinstates it.
    boot_max_rps: f64,
    /// Held across the journal transition *and* the serving-path flip
    /// of every state-changing verb, so store state and serving state
    /// move atomically with respect to each other. Ordered before the
    /// store's own journal lock and the `soak` lock.
    transition: Mutex<(), { rank::RECONFIG_TRANSITION }>,
    soak: Mutex<Option<SoakState>, { rank::RECONFIG_SOAK }>,
    staged: Arc<Counter>,
    applies: Arc<Counter>,
    accepts: Arc<Counter>,
    rollbacks: Arc<Counter>,
    auto_rollbacks: Arc<Counter>,
    active_version: Arc<Gauge>,
}

impl std::fmt::Debug for ReconfigRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReconfigRuntime")
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

fn reconfig_error(e: &ReconfigError) -> Response {
    let kind = match e {
        ReconfigError::InvalidPayload(_) | ReconfigError::Lifecycle(_) => error_kind::BAD_REQUEST,
        _ => error_kind::SERVICE,
    };
    Response::error(kind, e.to_string())
}

/// The reply for an artifact verb on a daemon started without
/// `--state-dir`.
pub(crate) fn not_reconfigurable() -> Response {
    Response::error(
        error_kind::BAD_REQUEST,
        "artifact lifecycle disabled: start the daemon with --state-dir",
    )
}

/// The `ArtifactStatus` reply for a daemon without a store: visible in
/// a tier-wide merge as `reconfigurable: false` rather than an error,
/// so a mixed tier still reports every instance.
pub(crate) fn unreconfigurable_status(addr: std::net::SocketAddr) -> Response {
    Response::ArtifactStatus {
        status: StatusReport {
            instances: vec![InstanceStatus {
                addr: addr.to_string(),
                reconfigurable: false,
                status: cbes_reconfig::LifecycleStatus::empty(),
            }],
        },
    }
}

impl ReconfigRuntime {
    /// Open (or recover) the store under `state_dir` and re-activate
    /// whatever artifact the journal says should be serving, so a
    /// restarted daemon answers its first request under the recovered
    /// configuration. A recovered mid-soak artifact resumes its soak
    /// with a fresh telemetry baseline. Its instruments and flight
    /// events land in the service's registry.
    pub fn open(
        state_dir: PathBuf,
        service: Arc<CbesService>,
        limiter: Arc<RateLimiter>,
        boot_max_rps: f64,
    ) -> Result<ReconfigRuntime, ReconfigError> {
        let store = ArtifactStore::open(state_dir)?;
        let registry = service.obs().clone();
        let runtime = ReconfigRuntime {
            store,
            service,
            limiter,
            boot_max_rps,
            transition: Mutex::new(()),
            soak: Mutex::new(None),
            staged: registry.counter(names::RECONFIG_STAGED),
            applies: registry.counter(names::RECONFIG_APPLIES),
            accepts: registry.counter(names::RECONFIG_ACCEPTS),
            rollbacks: registry.counter(names::RECONFIG_ROLLBACKS),
            auto_rollbacks: registry.counter(names::RECONFIG_AUTO_ROLLBACKS),
            active_version: registry.gauge(names::RECONFIG_ACTIVE_VERSION),
        };
        runtime.resume()?;
        Ok(runtime)
    }

    /// Re-activate the recovered serving artifact after a restart.
    ///
    /// A recovered artifact that no longer activates (a tampered or
    /// truncated payload file, or a crash that journalled an apply the
    /// daemon then refused) must not turn into a daemon that refuses to
    /// boot: a soaking artifact is auto-rolled-back through the journal
    /// and the previous configuration reinstated; an *accepted* one has
    /// no rollback edge, so the daemon serves the boot configuration
    /// and leaves the evidence in the flight ring.
    fn resume(&self) -> Result<(), ReconfigError> {
        let _flip = self.transition.lock();
        if let Some(serving) = self.store.serving() {
            let payload = self.store.payload(serving.version)?;
            if let Err(detail) = self.activate(serving.kind, &payload) {
                if self.store.soaking().is_some() {
                    let rolled = self
                        .store
                        .rollback(&format!("activation failed on restart: {detail}"), true)?;
                    self.restore(rolled.previous_payload);
                    self.rollbacks.incr();
                    self.auto_rollbacks.incr();
                } else {
                    self.service.obs().flight().record(
                        "reconfig",
                        format!(
                            "active artifact v{} failed to activate on restart: \
                             {detail}; serving the boot configuration",
                            serving.version
                        ),
                        0,
                    );
                    self.limiter.set_limits(self.boot_max_rps, 0);
                    self.service.activate_boot_provider();
                }
            }
        }
        if let Some(soak) = self.store.soaking() {
            *self.soak.lock() = Some(SoakState {
                version: soak.artifact.version,
                sheds_at_apply: 0,
            });
        }
        self.publish_active_version();
        Ok(())
    }

    fn publish_active_version(&self) {
        self.active_version
            .set(self.store.active().map_or(0, |a| a.version) as f64);
    }

    /// Make one artifact real on the serving path, with exactly one
    /// epoch bump. Exactly one overlay is live at a time, so the aspect
    /// the artifact does *not* carry reverts to boot — this keeps the
    /// in-memory configuration identical to what a journal replay
    /// (boot + the single serving artifact) would rebuild, so a later
    /// rollback or restart never silently changes the effective
    /// admission cap or latency provider. Payloads were validated at
    /// stage time, so a failure here means the artifact directory was
    /// tampered with.
    fn activate(&self, kind: ArtifactKind, payload: &str) -> Result<u64, String> {
        match kind {
            ArtifactKind::LatencyModel => {
                let model: LatencyModel =
                    serde_json::from_str(payload).map_err(|e| e.to_string())?;
                model.validate()?;
                self.limiter.set_limits(self.boot_max_rps, 0);
                Ok(self.service.activate_provider(Arc::new(model)))
            }
            ArtifactKind::ClusterPreset => {
                let spec: ClusterSpec = serde_json::from_str(payload).map_err(|e| e.to_string())?;
                let cluster = spec.build().map_err(|e| e.to_string())?;
                self.limiter.set_limits(self.boot_max_rps, 0);
                Ok(self.service.activate_provider(Arc::new(cluster)))
            }
            ArtifactKind::ServingLimits => {
                let limits: ServingLimits =
                    serde_json::from_str(payload).map_err(|e| e.to_string())?;
                self.limiter
                    .set_limits(limits.max_rps, limits.shed_retry_after_ms);
                // The latency provider reverts to boot; the epoch bump
                // publishes that reversion atomically with the retune.
                Ok(self.service.activate_boot_provider())
            }
        }
    }

    /// Reinstate the pre-soak configuration: boot defaults, with the
    /// previously active artifact (if any) overlaid — published as one
    /// epoch bump. [`activate`](Self::activate) already reverts the
    /// aspect the artifact does not carry, so this is symmetric with
    /// the apply path.
    fn restore(&self, previous: Option<(ArtifactKind, String)>) -> u64 {
        match previous {
            None => {
                self.limiter.set_limits(self.boot_max_rps, 0);
                self.service.activate_boot_provider()
            }
            Some((kind, payload)) => self.activate(kind, &payload).unwrap_or_else(|_| {
                self.limiter.set_limits(self.boot_max_rps, 0);
                self.service.activate_boot_provider()
            }),
        }
    }

    /// `Stage`: validate and persist without activating.
    pub fn handle_stage(&self, kind: &str, payload: &str) -> Response {
        let Some(kind) = ArtifactKind::parse(kind) else {
            return Response::error(
                error_kind::BAD_REQUEST,
                format!("unknown artifact kind {kind:?} (latency_model | cluster_preset | serving_limits)"),
            );
        };
        let expected = Some(self.service.cluster().len());
        match self.store.stage(kind, payload, expected) {
            Ok(version) => {
                self.staged.incr();
                Response::ArtifactAck {
                    version,
                    state: "staged".to_string(),
                    epoch: self.service.epoch(),
                }
            }
            Err(e) => reconfig_error(&e),
        }
    }

    /// `Apply`: journal the activation, flip the serving path (one
    /// epoch bump), and open the soak window. The transition lock makes
    /// the journal commit and the flip atomic with respect to a
    /// concurrent `Rollback`/`Accept`.
    pub fn handle_apply(&self, sheds_now: u64) -> Response {
        let _flip = self.transition.lock();
        let applied = match self.store.apply() {
            Ok(a) => a,
            Err(e) => return reconfig_error(&e),
        };
        match self.activate(applied.artifact.kind, &applied.payload) {
            Ok(epoch) => {
                self.applies.incr();
                *self.soak.lock() = Some(SoakState {
                    version: applied.artifact.version,
                    sheds_at_apply: sheds_now,
                });
                Response::ArtifactAck {
                    version: applied.artifact.version,
                    state: "soaking".to_string(),
                    epoch,
                }
            }
            Err(detail) => {
                // The journal committed the apply but the serving path
                // refused the payload: roll back immediately so the
                // store and the daemon stay agreed. Nothing was
                // activated, so there is nothing to restore.
                match self
                    .store
                    .rollback(&format!("activation failed: {detail}"), true)
                {
                    Ok(_) => {
                        self.rollbacks.incr();
                        self.auto_rollbacks.incr();
                        Response::error(
                            error_kind::SERVICE,
                            format!("activation failed and was rolled back: {detail}"),
                        )
                    }
                    Err(rb) => {
                        // The compensating rollback could not be
                        // journalled (e.g. disk full): the store now
                        // durably records the artifact as soaking while
                        // nothing was activated. Tell the operator and
                        // leave the evidence in the flight ring —
                        // swallowing this would strand the divergence.
                        self.service.obs().flight().record(
                            "reconfig",
                            format!(
                                "compensating rollback of v{} failed: {rb} \
                                 (activation failure: {detail})",
                                applied.artifact.version
                            ),
                            0,
                        );
                        Response::error(
                            error_kind::SERVICE,
                            format!(
                                "activation failed ({detail}) and the compensating \
                                 rollback also failed ({rb}); the store still records \
                                 v{} as soaking — roll back manually",
                                applied.artifact.version
                            ),
                        )
                    }
                }
            }
        }
    }

    /// `Accept`: promote the soaking artifact; no epoch bump (it is
    /// already serving).
    pub fn handle_accept(&self) -> Response {
        let _flip = self.transition.lock();
        match self.store.accept() {
            Ok(artifact) => {
                *self.soak.lock() = None;
                self.accepts.incr();
                self.publish_active_version();
                Response::ArtifactAck {
                    version: artifact.version,
                    state: "active".to_string(),
                    epoch: self.service.epoch(),
                }
            }
            Err(e) => reconfig_error(&e),
        }
    }

    /// `Rollback` (operator or soak monitor): journal it, reinstate
    /// the previous configuration with one epoch bump — both under the
    /// transition lock, so a concurrent `Apply` cannot activate a
    /// payload the store has just recorded as rolled back.
    pub fn handle_rollback(&self, reason: &str, auto: bool) -> Response {
        let _flip = self.transition.lock();
        let rolled = match self.store.rollback(reason, auto) {
            Ok(r) => r,
            Err(e) => return reconfig_error(&e),
        };
        let epoch = self.restore(rolled.previous_payload);
        *self.soak.lock() = None;
        self.rollbacks.incr();
        if auto {
            self.auto_rollbacks.incr();
        }
        self.publish_active_version();
        Response::ArtifactAck {
            version: rolled.artifact.version,
            state: "rolled_back".to_string(),
            epoch,
        }
    }

    /// `ArtifactStatus`: this daemon's single-instance lifecycle view.
    pub fn handle_status(&self, addr: std::net::SocketAddr) -> Response {
        Response::ArtifactStatus {
            status: StatusReport {
                instances: vec![InstanceStatus {
                    addr: addr.to_string(),
                    reconfigurable: true,
                    status: self.store.status(),
                }],
            },
        }
    }

    /// The soak in progress, if any — read by the once-per-second soak
    /// monitor sweep in the server.
    pub fn soak_state(&self) -> Option<SoakState> {
        *self.soak.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_core::ForecastKind;

    /// A state directory the test owns: emptied before use, removed
    /// when dropped.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn scratch(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("cbes-runtime-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scratch(dir)
    }

    fn runtime_at(dir: PathBuf) -> (ReconfigRuntime, Arc<CbesService>, Arc<RateLimiter>) {
        let service = Arc::new(CbesService::self_calibrated(
            Arc::new(two_switch_demo()),
            ForecastKind::LastValue,
        ));
        let limiter = Arc::new(RateLimiter::new(0.0, service.obs().clock().clone()));
        let rt = ReconfigRuntime::open(dir, service.clone(), limiter.clone(), 0.0)
            .expect("open runtime");
        (rt, service, limiter)
    }

    fn runtime(tag: &str) -> (ReconfigRuntime, Arc<CbesService>, Scratch) {
        let dir = scratch(tag);
        let (rt, service, _) = runtime_at(dir.0.clone());
        (rt, service, dir)
    }

    fn model_json(n: usize) -> String {
        let model =
            LatencyModel::from_table(n, vec![64, 4096], vec![1e-4; LatencyModel::pairs(n) * 2]);
        serde_json::to_string(&model).expect("model encodes")
    }

    fn limits(rps: f64) -> String {
        format!("{{\"max_rps\": {rps}, \"shed_retry_after_ms\": 5}}")
    }

    fn ack(resp: Response) -> (u64, String, u64) {
        match resp {
            Response::ArtifactAck {
                version,
                state,
                epoch,
            } => (version, state, epoch),
            other => panic!("expected ArtifactAck, got {other:?}"),
        }
    }

    #[test]
    fn apply_bumps_the_epoch_exactly_once_and_rollback_once_more() {
        let (rt, service, _dir) = runtime("epochs");
        let (v, state, _) = ack(rt.handle_stage("serving_limits", &limits(40.0)));
        assert_eq!((v, state.as_str()), (1, "staged"));
        let before = service.epoch();
        let (_, state, epoch) = ack(rt.handle_apply(0));
        assert_eq!(state, "soaking");
        assert_eq!(epoch, before + 1, "apply is one epoch bump");
        assert!(rt.soak_state().is_some());
        let (_, state, epoch2) = ack(rt.handle_rollback("operator", false));
        assert_eq!(state, "rolled_back");
        assert_eq!(epoch2, epoch + 1, "rollback is one epoch bump");
        assert!(rt.soak_state().is_none());
    }

    #[test]
    fn accept_promotes_without_an_epoch_bump() {
        let (rt, service, _dir) = runtime("accept");
        ack(rt.handle_stage("serving_limits", &limits(40.0)));
        let (_, _, apply_epoch) = ack(rt.handle_apply(0));
        let (v, state, epoch) = ack(rt.handle_accept());
        assert_eq!((v, state.as_str()), (1, "active"));
        assert_eq!(epoch, apply_epoch, "accept does not republish");
        assert_eq!(service.epoch(), apply_epoch);
    }

    #[test]
    fn activating_a_different_kind_resets_the_other_overlay_aspect() {
        let dir = scratch("overlay");
        let (rt, service, limiter) = runtime_at(dir.0.clone());
        // Accept a serving-limits overlay: admission capped at 40 rps.
        ack(rt.handle_stage("serving_limits", &limits(40.0)));
        ack(rt.handle_apply(0));
        ack(rt.handle_accept());
        assert_eq!(limiter.rate_per_s(), 40.0);
        // Applying a latency model reverts admission to boot
        // (uncapped) — exactly what a restart's journal replay would
        // rebuild from boot + the single serving artifact.
        let n = service.cluster().len();
        ack(rt.handle_stage("latency_model", &model_json(n)));
        ack(rt.handle_apply(0));
        assert_eq!(
            limiter.rate_per_s(),
            0.0,
            "stale limits overlay survived a latency-model activation"
        );
        // Rolling the model back reinstates the accepted limits overlay.
        ack(rt.handle_rollback("operator", false));
        assert_eq!(limiter.rate_per_s(), 40.0);
    }

    #[test]
    fn resume_rolls_back_a_soaking_artifact_that_no_longer_activates() {
        let scratch = scratch("resume-soak-fallback");
        let dir = &scratch.0;
        {
            let (rt, _, _) = runtime_at(dir.clone());
            ack(rt.handle_stage("serving_limits", &limits(40.0)));
            ack(rt.handle_apply(0));
        }
        // Corrupt the soaking payload behind the store's back: the
        // restarted daemon must boot anyway, journalling the fallback.
        std::fs::write(dir.join("artifacts").join("v1.json"), "not json").expect("corrupt payload");
        let (rt, _, limiter) = runtime_at(dir.clone());
        assert!(rt.soak_state().is_none());
        assert_eq!(limiter.rate_per_s(), 0.0, "boot cap reinstated");
        match rt.handle_status("127.0.0.1:0".parse().expect("addr")) {
            Response::ArtifactStatus { status } => {
                let inst = &status.instances[0].status;
                assert!(inst.soaking.is_none());
                let rb = inst.last_rollback.as_ref().expect("journalled rollback");
                assert_eq!((rb.version, rb.auto), (1, true));
            }
            other => panic!("expected ArtifactStatus, got {other:?}"),
        }
    }

    #[test]
    fn resume_serves_boot_when_the_accepted_artifact_no_longer_activates() {
        let scratch = scratch("resume-active-fallback");
        let dir = &scratch.0;
        {
            let (rt, _, _) = runtime_at(dir.clone());
            ack(rt.handle_stage("serving_limits", &limits(40.0)));
            ack(rt.handle_apply(0));
            ack(rt.handle_accept());
        }
        std::fs::write(dir.join("artifacts").join("v1.json"), "not json").expect("corrupt payload");
        // An accepted artifact has no rollback edge: the daemon still
        // boots, serving the boot configuration, and the evidence lands
        // in the flight ring the daemon dumps.
        let (rt, service, limiter) = runtime_at(dir.clone());
        assert_eq!(limiter.rate_per_s(), 0.0, "boot cap reinstated");
        let flight = service.obs().flight();
        assert_eq!(flight.recorded(), 1);
        let (dump, _) = flight
            .dump("test", service.obs().spans())
            .expect("dump written");
        let text = std::fs::read_to_string(&dump).expect("dump readable");
        let _ = std::fs::remove_file(&dump);
        assert!(text.contains("reconfig"), "{text}");
        match rt.handle_status("127.0.0.1:0".parse().expect("addr")) {
            Response::ArtifactStatus { status } => {
                let inst = &status.instances[0].status;
                assert_eq!(inst.active.as_ref().map(|a| a.version), Some(1));
                assert!(inst.last_rollback.is_none());
            }
            other => panic!("expected ArtifactStatus, got {other:?}"),
        }
    }

    /// A preset whose node count or any physical parameter is out of
    /// range is refused as a bad request and journals nothing: the
    /// next good stage is still v1.
    #[test]
    fn out_of_range_presets_are_refused_without_journalling() {
        let (rt, service, _dir) = runtime("bad-presets");
        let spec = cbes_cluster::ClusterSpec::from_cluster(service.cluster());
        let json = serde_json::to_string(&spec).expect("spec encodes");
        // Each physical parameter in turn, spelled `1e999` (parsed as inf).
        let params = "hop_latency \"bandwidth \"latency speed nic_bandwidth nic_latency";
        let mut bad: Vec<String> = params
            .split(' ')
            .map(|p| {
                let at = json.find(&format!("{p}\":")).expect("field present") + p.len() + 2;
                let end = at + json[at..].find([',', '}']).expect("value ends");
                format!("{}1e999{}", &json[..at], &json[end..])
            })
            .collect();
        bad.push(json.replacen("\"count\":4", "\"count\":4294967295", 1));
        for payload in &bad {
            match rt.handle_stage("cluster_preset", payload) {
                Response::Error { kind, message, .. } => {
                    assert_eq!(kind, error_kind::BAD_REQUEST);
                    assert!(message.contains("invalid payload"), "{message}");
                }
                other => panic!("expected a refusal of {payload}, got {other:?}"),
            }
        }
        let (v, _, _) = ack(rt.handle_stage("cluster_preset", &json));
        assert_eq!(v, 1, "a refused stage journalled a version");
    }

    #[test]
    fn unknown_kind_and_missing_store_paths_reply_with_errors() {
        let (rt, _, _dir) = runtime("errors");
        assert!(matches!(
            rt.handle_stage("firmware", "{}"),
            Response::Error { .. }
        ));
        assert!(matches!(rt.handle_apply(0), Response::Error { .. }));
        assert!(matches!(rt.handle_accept(), Response::Error { .. }));
        assert!(matches!(
            rt.handle_rollback("nothing soaking", false),
            Response::Error { .. }
        ));
        assert!(matches!(not_reconfigurable(), Response::Error { .. }));
    }
}
