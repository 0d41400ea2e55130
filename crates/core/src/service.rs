//! The CBES service façade: accepts mapping-comparison requests from
//! external clients (schedulers), combining the profile registry with the
//! current system snapshot (paper figure 2).
//!
//! The service is shareable across threads (`Arc<CbesService>`): the
//! monitor sits behind a write lock, while readers evaluate against an
//! epoch-stamped load forecast cached in an `Arc` — a `Compare` request
//! clones that `Arc` under a brief read lock and then runs entirely
//! lock-free. Each `observe_load` bumps the epoch and replaces the cached
//! forecast, so predictions are bit-identical within an epoch and change
//! deterministically across epochs.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use crate::error::ServiceError;
use crate::eval::{tally, Evaluator, Prediction};
use crate::health::{HealthPolicy, HealthTracker, HealthView};
use crate::mapping::Mapping;
use crate::monitor::{ForecastKind, Monitor};
use crate::registry::ProfileRegistry;
use crate::snapshot::SystemSnapshot;
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, LatencyProvider};
use cbes_netmodel::LoadAdjuster;
use cbes_obs::{names, Counter, Gauge, Histogram, Registry};
use parking_lot::RwLock;

/// Handles into [`Registry::global`] for the service's hot paths,
/// resolved once so per-request updates never touch the registry lock.
struct CoreInstruments {
    compares: Arc<Counter>,
    predictions: Arc<Counter>,
    compare_us: Arc<Histogram>,
    epoch_publish_us: Arc<Histogram>,
    epoch: Arc<Gauge>,
    health_transitions: Arc<Counter>,
    healthy: Arc<Gauge>,
    suspect: Arc<Gauge>,
    down: Arc<Gauge>,
}

fn instruments() -> &'static CoreInstruments {
    static INSTRUMENTS: OnceLock<CoreInstruments> = OnceLock::new();
    INSTRUMENTS.get_or_init(|| {
        let r = Registry::global();
        CoreInstruments {
            compares: r.counter(names::CORE_COMPARES),
            predictions: r.counter(names::CORE_PREDICTIONS),
            compare_us: r.histogram(names::CORE_COMPARE_US),
            epoch_publish_us: r.histogram(names::CORE_EPOCH_PUBLISH_US),
            epoch: r.gauge(names::CORE_EPOCH),
            health_transitions: r.counter(names::CORE_HEALTH_TRANSITIONS),
            healthy: r.gauge(names::CORE_HEALTH_HEALTHY),
            suspect: r.gauge(names::CORE_HEALTH_SUSPECT),
            down: r.gauge(names::CORE_HEALTH_DOWN),
        }
    })
}

/// A load forecast stamped with the observation epoch that produced it.
///
/// The active no-load latency model rides in the same `Arc` as the load
/// and health views: the cached `Arc<EpochLoad>` is the service's single
/// atomic publication unit, so a request never sees a new model with an
/// old epoch (or vice versa) — live reconfiguration is one `Arc` swap,
/// exactly like a load sweep.
#[derive(Clone)]
pub struct EpochLoad {
    /// Monotone counter: 0 before any observation, +1 per `observe_load`
    /// and +1 per artifact activation.
    pub epoch: u64,
    /// The monitor's forecast as of that epoch.
    pub load: LoadState,
    /// Per-node health classification as of that epoch.
    pub health: HealthView,
    /// The no-load latency model active as of that epoch.
    pub model: Arc<dyn LatencyProvider + Send + Sync>,
}

impl std::fmt::Debug for EpochLoad {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochLoad")
            .field("epoch", &self.epoch)
            .field("load", &self.load)
            .field("health", &self.health)
            .finish_non_exhaustive()
    }
}

/// The core CBES module: owns the profile registry and the monitor, and
/// serves mapping-comparison requests against the current snapshot.
pub struct CbesService {
    cluster: Arc<Cluster>,
    no_load: Arc<dyn LatencyProvider + Send + Sync>,
    registry: ProfileRegistry,
    monitor: RwLock<Monitor>,
    /// Staleness-driven per-node health, updated alongside the monitor.
    health: RwLock<HealthTracker>,
    /// Epoch of the cached forecast, readable without any lock.
    epoch: AtomicU64,
    /// Latest forecast; replaced wholesale on observation, so readers
    /// hold the lock only long enough to clone the `Arc`.
    cached: RwLock<Arc<EpochLoad>>,
}

impl CbesService {
    /// A service over `cluster` with the given calibrated latency source
    /// and monitoring strategy.
    pub fn new(
        cluster: Arc<Cluster>,
        no_load: Arc<dyn LatencyProvider + Send + Sync>,
        forecast: ForecastKind,
    ) -> Self {
        let n = cluster.len();
        let initial = Arc::new(EpochLoad {
            epoch: 0,
            load: LoadState::idle(n),
            health: HealthView::all_healthy(n),
            model: no_load.clone(),
        });
        CbesService {
            cluster,
            no_load,
            registry: ProfileRegistry::new(),
            monitor: RwLock::new(Monitor::new(n, forecast)),
            health: RwLock::new(HealthTracker::new(n, HealthPolicy::default())),
            epoch: AtomicU64::new(0),
            cached: RwLock::new(initial),
        }
    }

    /// Replace the health policy (staleness deadlines and suspect penalty).
    /// Resets the tracker; intended for configuration at startup.
    pub fn with_health_policy(self, policy: HealthPolicy) -> Self {
        *self.health.write() = HealthTracker::new(self.cluster.len(), policy);
        self
    }

    /// A service whose no-load latencies come from the cluster's own
    /// analytic topology model (no separate calibration).
    pub fn self_calibrated(cluster: Arc<Cluster>, forecast: ForecastKind) -> Self {
        let no_load: Arc<dyn LatencyProvider + Send + Sync> = cluster.clone();
        CbesService::new(cluster, no_load, forecast)
    }

    /// The cluster this service evaluates against.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The application-profile registry.
    pub fn registry(&self) -> &ProfileRegistry {
        &self.registry
    }

    /// Epoch of the forecast requests are currently evaluated against.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Number of measurement sweeps observed so far.
    pub fn observations(&self) -> u64 {
        self.monitor.read().observations()
    }

    /// Feed a monitoring sweep (periodic load measurement). Bumps the
    /// snapshot epoch and refreshes the cached forecast; returns the new
    /// epoch. Concurrent observers are serialised; readers are never
    /// blocked for longer than an `Arc` swap.
    pub fn observe_load(&self, measured: &LoadState) -> Result<u64, ServiceError> {
        self.observe_sweep(measured, None)
    }

    /// Feed a *partial* monitoring sweep: only nodes with
    /// `reported[i] == true` delivered a measurement. Silent nodes keep
    /// stale forecasts and age toward `Suspect`/`Down` under the health
    /// policy. Returns the new epoch.
    pub fn observe_load_partial(
        &self,
        measured: &LoadState,
        reported: &[bool],
    ) -> Result<u64, ServiceError> {
        self.observe_sweep(measured, Some(reported))
    }

    /// Apply a leader-published sweep at the leader's `epoch` (snapshot
    /// replication). The sweep is adopted only when `epoch` is strictly
    /// newer than this instance's snapshot, so replays and reordered
    /// deliveries are idempotent no-ops. Returns the instance's epoch
    /// after the call and whether the sweep was applied. When this
    /// instance later becomes the leader, its own observations continue
    /// from the adopted epoch, keeping the tier's epoch line monotone.
    pub fn observe_replicated(
        &self,
        epoch: u64,
        measured: &LoadState,
        reported: Option<&[bool]>,
    ) -> Result<(u64, bool), ServiceError> {
        self.observe_checked(measured, reported, Some(epoch))
    }

    fn observe_sweep(
        &self,
        measured: &LoadState,
        reported: Option<&[bool]>,
    ) -> Result<u64, ServiceError> {
        self.observe_checked(measured, reported, None)
            .map(|(epoch, _)| epoch)
    }

    /// Shared sweep path. `target`: `None` bumps the epoch by one (a
    /// locally observed sweep); `Some(e)` adopts the replicated epoch
    /// `e` if newer, else leaves all state untouched.
    fn observe_checked(
        &self,
        measured: &LoadState,
        reported: Option<&[bool]>,
        target: Option<u64>,
    ) -> Result<(u64, bool), ServiceError> {
        let n = self.cluster.len();
        if measured.len() != n {
            return Err(ServiceError::LoadArityMismatch {
                expected: n,
                got: measured.len(),
            });
        }
        if let Some(mask) = reported {
            if mask.len() != n {
                return Err(ServiceError::LoadArityMismatch {
                    expected: n,
                    got: mask.len(),
                });
            }
        }
        let obs = instruments();
        let _span = Registry::global().span(names::SPAN_CORE_PUBLISH_EPOCH);
        let publish = obs.epoch_publish_us.start_timer();
        let mut monitor = self.monitor.write();
        let mut tracker = self.health.write();
        // Staleness check happens under the monitor lock so concurrent
        // replications cannot interleave with the epoch store below.
        let current = self.epoch.load(Ordering::Acquire);
        if let Some(target) = target {
            if target <= current {
                return Ok((current, false));
            }
        }
        let changed = match reported {
            None => {
                monitor.observe(measured);
                tracker.record_full_sweep()
            }
            Some(mask) => {
                monitor.observe_partial(measured, mask);
                tracker.record_sweep(mask)
            }
        };
        let load = monitor.forecast();
        let health = tracker.view();
        let (h, s, d) = health.counts();
        // Epoch bump and cache swap stay under the monitor lock so two
        // concurrent observers cannot publish forecasts out of order.
        let epoch = match target {
            None => current + 1,
            Some(target) => target,
        };
        self.epoch.store(epoch, Ordering::Release);
        let model = self.cached.read().model.clone();
        *self.cached.write() = Arc::new(EpochLoad {
            epoch,
            load,
            health,
            model,
        });
        drop(tracker);
        drop(publish);
        obs.epoch.set(epoch as f64);
        obs.health_transitions.add(changed);
        obs.healthy.set(h as f64);
        obs.suspect.set(s as f64);
        obs.down.set(d as f64);
        Ok((epoch, true))
    }

    /// Counts of nodes per health state as of the current epoch:
    /// `(healthy, suspect, down)`.
    pub fn health_counts(&self) -> (usize, usize, usize) {
        self.current_load().health.counts()
    }

    /// Cumulative health-state transitions since startup.
    pub fn health_transitions(&self) -> u64 {
        self.health.read().transitions()
    }

    /// The epoch-stamped forecast requests are evaluated against.
    pub fn current_load(&self) -> Arc<EpochLoad> {
        self.cached.read().clone()
    }

    /// The evaluation snapshot for one epoch-stamped forecast. Callers
    /// pin an epoch with [`CbesService::current_load`], then build the
    /// snapshot against it:
    ///
    /// ```ignore
    /// let cached = service.current_load();
    /// let snapshot = service.snapshot_of(&cached);
    /// ```
    ///
    /// The two-step shape (rather than a single `snapshot()`) exists
    /// because the snapshot borrows the epoch's latency model, which
    /// lives inside the cached [`EpochLoad`]: the caller must keep the
    /// `Arc` alive for as long as the snapshot is in use. In exchange,
    /// everything a request reads — load, health, model, epoch — comes
    /// from one atomic publication, and the snapshot borrows all of it:
    /// a request copies the `Arc` and nothing per node.
    pub fn snapshot_of<'a>(&'a self, cached: &'a EpochLoad) -> SystemSnapshot<'a> {
        SystemSnapshot::build(
            &self.cluster,
            &*cached.model,
            LoadAdjuster::default(),
            Cow::Borrowed(&cached.load),
            Cow::Borrowed(&cached.health),
        )
    }

    /// Atomically activate a new no-load latency model: exactly one
    /// epoch bump, publishing the model together with the current load
    /// and health views as a single `Arc` swap. In-flight requests
    /// finish against the epoch they pinned; every request admitted
    /// after the swap sees the new model. Returns the new epoch.
    pub fn activate_provider(&self, provider: Arc<dyn LatencyProvider + Send + Sync>) -> u64 {
        self.republish(Some(provider))
    }

    /// Reinstate the boot-time latency model (artifact rollback with no
    /// previously accepted artifact). One epoch bump, like any
    /// activation. Returns the new epoch.
    pub fn activate_boot_provider(&self) -> u64 {
        self.republish(Some(self.no_load.clone()))
    }

    /// Bump the snapshot epoch without changing the model, load, or
    /// health views, republishing the current configuration so the
    /// change is observable tier-wide. Returns the new epoch.
    pub fn bump_epoch(&self) -> u64 {
        self.republish(None)
    }

    /// Shared activation path: serialise with observers on the monitor
    /// lock, bump the epoch by one, republish the cached forecast with
    /// `model` (or the current model when `None`).
    fn republish(&self, model: Option<Arc<dyn LatencyProvider + Send + Sync>>) -> u64 {
        let obs = instruments();
        let _span = Registry::global().span(names::SPAN_CORE_PUBLISH_EPOCH);
        let publish = obs.epoch_publish_us.start_timer();
        // The monitor write lock serialises activations with load
        // sweeps, so two publications can never race the epoch store
        // and cache swap below.
        let _monitor = self.monitor.write();
        let current = self.cached.read().clone();
        let epoch = self.epoch.load(Ordering::Acquire) + 1;
        self.epoch.store(epoch, Ordering::Release);
        *self.cached.write() = Arc::new(EpochLoad {
            epoch,
            load: current.load.clone(),
            health: current.health.clone(),
            model: model.unwrap_or_else(|| current.model.clone()),
        });
        drop(publish);
        obs.epoch.set(epoch as f64);
        epoch
    }

    /// Validate `mappings` against `profile_procs`, the cluster, and the
    /// current health view: non-empty, correct arity, known nodes, no
    /// process on a `Down` node, and no node oversubscribed beyond its CPU
    /// count (the same census `Evaluator` uses for CPU shares; the lowest
    /// such node is reported) — all surfaced as typed errors at the
    /// service boundary. `ranks_on` is the node-indexed census: zero on
    /// entry, and zero again on `Ok` because each candidate un-counts the
    /// nodes it touched, so nothing here walks the cluster.
    fn validate(
        &self,
        profile_procs: usize,
        mappings: &[Mapping],
        health: &HealthView,
        ranks_on: &mut [u32],
    ) -> Result<(), ServiceError> {
        if mappings.is_empty() {
            return Err(ServiceError::EmptyRequest);
        }
        for m in mappings {
            if m.len() != profile_procs {
                return Err(ServiceError::ArityMismatch {
                    expected: profile_procs,
                    got: m.len(),
                });
            }
            for (_, node) in m.iter() {
                if node.index() >= self.cluster.len() {
                    return Err(ServiceError::BadNode(node.0));
                }
                if !health.is_usable(node) {
                    return Err(ServiceError::NodeDown(node.0));
                }
            }
            tally(ranks_on, m, true);
            let oversubscribed = m
                .iter()
                .map(|(_, node)| (node, ranks_on.get(node.index()).copied().unwrap_or(0)))
                .filter(|&(node, ranks)| ranks > self.cluster.node(node).cpus)
                .min();
            if let Some((node, ranks)) = oversubscribed {
                return Err(ServiceError::Oversubscribed {
                    node: node.0,
                    ranks: ranks as usize,
                    cpus: self.cluster.node(node).cpus,
                });
            }
            tally(ranks_on, m, false);
        }
        Ok(())
    }

    /// Compare candidate mappings for a registered application; returns one
    /// prediction per mapping, in request order (the paper's mapping
    /// comparison request).
    pub fn compare(
        &self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<Vec<Prediction>, ServiceError> {
        self.compare_stamped(app, mappings).map(|(_, preds)| preds)
    }

    /// Like [`CbesService::compare`], also reporting the snapshot epoch
    /// the predictions were computed against. The service's one
    /// evaluation entry point: every candidate of the request, one or
    /// many, is evaluated against the same epoch-stamped snapshot.
    pub fn compare_stamped(
        &self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(u64, Vec<Prediction>), ServiceError> {
        let profile = self
            .registry
            .get(app)
            .ok_or_else(|| ServiceError::UnknownApp(app.to_string()))?;
        let cached = self.current_load();
        let epoch = cached.epoch;
        let snap = self.snapshot_of(&cached);
        // The request's one per-node allocation: validation and every
        // candidate's eq. 5 CPU shares count ranks in it.
        let mut ranks_on = vec![0u32; self.cluster.len()];
        self.validate(profile.num_procs(), mappings, &cached.health, &mut ranks_on)?;
        let obs = instruments();
        let span = Registry::global().span(names::SPAN_CORE_EVALUATE_MAPPING);
        let predictions = Evaluator::new(&profile, &snap).predict_batch_in(mappings, &mut ranks_on);
        span.finish_into(&obs.compare_us);
        obs.compares.incr();
        obs.predictions.add(predictions.len() as u64);
        Ok((epoch, predictions))
    }

    /// Kept for `benchmark/src/{layers,loadgen}.rs`; delete with the next
    /// `[benchmark]` PR.
    pub fn batch_stamped(
        &self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(u64, Vec<Prediction>), ServiceError> {
        self.compare_stamped(app, mappings)
    }

    /// The index and prediction of the fastest mapping among candidates.
    pub fn best_of(
        &self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(usize, Prediction), ServiceError> {
        self.best_of_stamped(app, mappings)
            .map(|(_, index, best)| (index, best))
    }

    /// Like [`CbesService::best_of`], also reporting the snapshot epoch:
    /// `(epoch, index, prediction)`. Ties go to the earliest candidate.
    pub fn best_of_stamped(
        &self,
        app: &str,
        mappings: &[Mapping],
    ) -> Result<(u64, usize, Prediction), ServiceError> {
        let (epoch, predictions) = self.compare_stamped(app, mappings)?;
        let (index, best) = predictions
            .into_iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.time.total_cmp(&b.time))
            .expect("compare rejects empty requests");
        Ok((epoch, index, best))
    }
}

impl std::fmt::Debug for CbesService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CbesService")
            .field("cluster", &self.cluster.name())
            .field("profiles", &self.registry.len())
            .field("epoch", &self.epoch())
            .field("monitor", &*self.monitor.read())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_cluster::presets::two_switch_demo;
    use cbes_cluster::NodeId;
    use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
    use std::collections::BTreeMap;

    fn profile() -> AppProfile {
        let mk = |rank: usize| ProcessProfile {
            rank,
            x: 5.0,
            o: 0.2,
            b: 0.5,
            sends: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 8192,
                count: 50,
            }],
            recvs: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 8192,
                count: 50,
            }],
            profile_speed: 1.0,
            lambda: 1.0,
        };
        AppProfile {
            name: "app".into(),
            procs: vec![mk(0), mk(1)],
            arch_ratios: BTreeMap::new(),
        }
    }

    fn m(ids: &[u32]) -> Mapping {
        Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
    }

    fn demo_service() -> CbesService {
        let svc =
            CbesService::self_calibrated(Arc::new(two_switch_demo()), ForecastKind::LastValue);
        svc.registry().insert(profile());
        svc
    }

    #[test]
    fn compare_orders_predictions_by_request() {
        let svc = demo_service();
        let preds = svc
            .compare("app", &[m(&[0, 1]), m(&[0, 4])])
            .expect("demo mappings are valid");
        assert_eq!(preds.len(), 2);
        assert!(preds[0].time < preds[1].time, "same-switch must win");
    }

    #[test]
    fn best_of_picks_fastest() {
        let svc = demo_service();
        let candidates = [m(&[0, 4]), m(&[0, 1]), m(&[4, 5])];
        let (idx, pred) = svc
            .best_of("app", &candidates)
            .expect("demo mappings are valid");
        assert_eq!(idx, 1);
        assert!(pred.time > 0.0);
        // The stamped form is the same arg-min plus the epoch it was
        // taken at.
        svc.bump_epoch();
        assert_eq!(
            svc.best_of_stamped("app", &candidates),
            Ok((svc.epoch(), idx, pred))
        );
    }

    #[test]
    fn activation_is_one_epoch_bump_and_pinned_snapshots_keep_their_model() {
        struct Flat(f64);
        impl cbes_cluster::LatencyProvider for Flat {
            fn latency(&self, _: NodeId, _: NodeId, _: u64) -> f64 {
                self.0
            }
        }
        let svc = demo_service();
        let base = svc.compare("app", &[m(&[0, 4])]).expect("valid")[0].clone();
        // An in-flight request pins the pre-activation epoch.
        let pinned = svc.current_load();
        let before = svc.epoch();

        let epoch = svc.activate_provider(Arc::new(Flat(0.5)));
        assert_eq!(epoch, before + 1, "activation is exactly one epoch bump");
        assert_eq!(svc.epoch(), epoch);

        // New requests evaluate against the new model (0.5 s per hop
        // dwarfs the demo fabric), the pinned snapshot against the old.
        let after = svc.compare("app", &[m(&[0, 4])]).expect("valid")[0].clone();
        assert!(
            after.time > base.time,
            "flat 0.5 s hops must slow the forecast ({} vs {})",
            after.time,
            base.time
        );
        let old_snap = svc.snapshot_of(&pinned);
        let fresh = svc.current_load();
        let new_snap = svc.snapshot_of(&fresh);
        assert!(old_snap.latency(NodeId(0), NodeId(4), 8192) < 0.5);
        assert!((new_snap.latency(NodeId(0), NodeId(4), 8192) - 0.5).abs() < 1e-12);

        // A bare epoch bump republishes the same model.
        let bumped = svc.bump_epoch();
        assert_eq!(bumped, epoch + 1);
        let same = svc.compare("app", &[m(&[0, 4])]).expect("valid")[0].clone();
        assert_eq!(same, after);

        // Boot reactivation restores the original predictions.
        svc.activate_boot_provider();
        let restored = svc.compare("app", &[m(&[0, 4])]).expect("valid")[0].clone();
        assert_eq!(restored, base);

        // Load observations carry the active model forward.
        svc.activate_provider(Arc::new(Flat(0.5)));
        svc.observe_load(&LoadState::idle(svc.cluster().len()))
            .expect("sweep covers every node");
        let swept = svc.current_load();
        let snap = svc.snapshot_of(&swept);
        assert!((snap.latency(NodeId(0), NodeId(4), 8192) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn monitor_feeds_snapshot_and_bumps_epoch() {
        let svc = demo_service();
        assert_eq!(svc.epoch(), 0);
        let idle_pred = svc
            .compare("app", &[m(&[0, 1])])
            .expect("demo mapping is valid")[0]
            .time;
        let mut measured = LoadState::idle(svc.cluster().len());
        measured.set_cpu_avail(NodeId(0), 0.5);
        assert_eq!(
            svc.observe_load(&measured)
                .expect("sweep covers every node"),
            1
        );
        assert_eq!(svc.epoch(), 1);
        let (epoch, preds) = svc
            .compare_stamped("app", &[m(&[0, 1])])
            .expect("demo mapping is valid");
        assert_eq!(epoch, 1);
        assert!(preds[0].time > idle_pred * 1.5);
    }

    #[test]
    fn errors_are_reported() {
        let svc = demo_service();
        assert_eq!(
            svc.compare("nope", &[m(&[0, 1])]).unwrap_err(),
            ServiceError::UnknownApp("nope".into())
        );
        assert_eq!(
            svc.compare("app", &[]).unwrap_err(),
            ServiceError::EmptyRequest
        );
        assert!(matches!(
            svc.compare("app", &[m(&[0])]).unwrap_err(),
            ServiceError::ArityMismatch {
                expected: 2,
                got: 1
            }
        ));
        assert_eq!(
            svc.compare("app", &[m(&[0, 99])]).unwrap_err(),
            ServiceError::BadNode(99)
        );
    }

    #[test]
    fn oversubscribed_mapping_is_rejected_at_the_boundary() {
        let svc = demo_service();
        // Node 0 is a 1-CPU Alpha: two ranks there must be refused.
        assert_eq!(
            svc.compare("app", &[m(&[0, 0])]).unwrap_err(),
            ServiceError::Oversubscribed {
                node: 0,
                ranks: 2,
                cpus: 1
            }
        );
        // Node 4 is a 2-CPU Intel: two ranks there are fine.
        assert!(svc.compare("app", &[m(&[4, 4])]).is_ok());
    }

    #[test]
    fn short_load_sweep_is_a_typed_error() {
        let svc = demo_service();
        let n = svc.cluster().len();
        assert_eq!(
            svc.observe_load(&LoadState::idle(2)).unwrap_err(),
            ServiceError::LoadArityMismatch {
                expected: n,
                got: 2
            }
        );
        assert_eq!(svc.epoch(), 0, "failed observation must not bump epoch");
    }

    #[test]
    fn evaluation_and_epoch_publication_record_into_the_global_registry() {
        let r = Registry::global();
        let compares_before = r.counter("core.compares").get();
        let hist_before = r.histogram("core.compare_us").count();
        let publishes_before = r.histogram("core.epoch_publish_us").count();

        let svc = demo_service();
        svc.compare("app", &[m(&[0, 1]), m(&[0, 4])])
            .expect("demo mappings are valid");
        svc.observe_load(&LoadState::idle(svc.cluster().len()))
            .expect("sweep covers every node");

        // Other tests in this binary share the global registry, so check
        // deltas, not absolutes.
        let snap = r.snapshot();
        assert!(snap.counters["core.compares"] > compares_before);
        assert!(snap.counters["core.predictions"] >= 2);
        assert!(snap.histograms["core.compare_us"].count > hist_before);
        assert!(snap.histograms["core.epoch_publish_us"].count > publishes_before);
        assert!(snap.gauges["core.epoch"] >= 1.0);
        assert!(snap.spans_buffered >= 1, "spans land in the global ring");
    }

    #[test]
    fn silent_node_degrades_to_down_and_is_rejected() {
        use crate::health::HealthPolicy;
        let svc = demo_service().with_health_policy(HealthPolicy {
            suspect_after: 1,
            down_after: 2,
            suspect_cost_factor: 2.0,
        });
        let n = svc.cluster().len();
        let idle = LoadState::idle(n);
        let mut mask = vec![true; n];
        mask[0] = false;
        // Node 0 silent for 4 sweeps: age 1 (healthy), 2 (suspect), 3+ (down).
        for _ in 0..4 {
            svc.observe_load_partial(&idle, &mask)
                .expect("sweep covers every node");
        }
        assert_eq!(svc.health_counts(), (n - 1, 0, 1));
        assert!(svc.health_transitions() >= 2);
        assert_eq!(
            svc.compare("app", &[m(&[0, 1])]).unwrap_err(),
            ServiceError::NodeDown(0)
        );
        // Mappings avoiding the down node still evaluate.
        assert!(svc.compare("app", &[m(&[1, 2])]).is_ok());
        // A fresh report heals the node and lifts the rejection.
        svc.observe_load(&idle).expect("sweep covers every node");
        assert_eq!(svc.health_counts(), (n, 0, 0));
        assert!(svc.compare("app", &[m(&[0, 1])]).is_ok());
    }

    #[test]
    fn suspect_node_predictions_are_inflated_not_rejected() {
        use crate::health::HealthPolicy;
        let svc = demo_service().with_health_policy(HealthPolicy {
            suspect_after: 0,
            down_after: 100,
            suspect_cost_factor: 3.0,
        });
        let n = svc.cluster().len();
        let idle = LoadState::idle(n);
        let baseline = svc
            .compare("app", &[m(&[0, 1])])
            .expect("demo mapping is valid")[0]
            .clone();
        let mut mask = vec![true; n];
        mask[0] = false;
        for _ in 0..2 {
            svc.observe_load_partial(&idle, &mask)
                .expect("sweep covers every node");
        }
        assert_eq!(svc.health_counts(), (n - 1, 1, 0));
        let degraded = svc
            .compare("app", &[m(&[0, 1])])
            .expect("demo mapping is valid")[0]
            .clone();
        assert!((degraded.per_proc[0].r - baseline.per_proc[0].r * 3.0).abs() < 1e-9);
    }

    #[test]
    fn health_gauges_land_in_the_global_registry() {
        use crate::health::HealthPolicy;
        let svc = demo_service().with_health_policy(HealthPolicy {
            suspect_after: 0,
            down_after: 1,
            suspect_cost_factor: 2.0,
        });
        let n = svc.cluster().len();
        let r = Registry::global();
        let before = r.counter("core.health.transitions").get();
        let mut mask = vec![true; n];
        mask[0] = false;
        for _ in 0..3 {
            svc.observe_load_partial(&LoadState::idle(n), &mask)
                .expect("sweep covers every node");
        }
        let snap = r.snapshot();
        assert!(snap.counters["core.health.transitions"] > before);
        assert!(snap.gauges.contains_key("core.health.healthy"));
        assert!(snap.gauges.contains_key("core.health.suspect"));
        assert!(snap.gauges.contains_key("core.health.down"));
    }

    #[test]
    fn replicated_sweeps_adopt_only_newer_epochs() {
        let leader = demo_service();
        let follower = demo_service();
        let n = leader.cluster().len();
        let mut measured = LoadState::idle(n);
        measured.set_cpu_avail(NodeId(0), 0.25);

        // Leader observes locally; follower adopts the published epoch.
        let epoch = leader
            .observe_load(&measured)
            .expect("sweep covers every node");
        assert_eq!(epoch, 1);
        let (e, applied) = follower
            .observe_replicated(epoch, &measured, None)
            .expect("sweep covers every node");
        assert_eq!((e, applied), (1, true));
        assert_eq!(follower.epoch(), 1);
        // Follower's forecast matches the leader's for the same sweep.
        assert_eq!(follower.current_load().load, leader.current_load().load);

        // Replaying the same epoch (or an older one) is a no-op.
        let (e, applied) = follower
            .observe_replicated(epoch, &LoadState::idle(n), None)
            .expect("sweep covers every node");
        assert_eq!((e, applied), (1, false));
        assert_eq!(
            follower.current_load().load,
            leader.current_load().load,
            "stale replication must not disturb the snapshot"
        );

        // Epoch gaps are fine: adopt epoch 5 directly, then a local
        // observation continues the line at 6 (leader failover).
        let (e, applied) = follower
            .observe_replicated(5, &measured, None)
            .expect("sweep covers every node");
        assert_eq!((e, applied), (5, true));
        assert_eq!(
            follower
                .observe_load(&measured)
                .expect("sweep covers every node"),
            6
        );
    }

    #[test]
    fn replicated_partial_sweeps_age_silent_nodes() {
        let svc = demo_service().with_health_policy(HealthPolicy {
            suspect_after: 1,
            down_after: 100,
            suspect_cost_factor: 2.0,
        });
        let n = svc.cluster().len();
        let mut mask = vec![true; n];
        mask[0] = false;
        for epoch in 1..=3u64 {
            let (e, applied) = svc
                .observe_replicated(epoch, &LoadState::idle(n), Some(&mask))
                .expect("sweep covers every node");
            assert!(applied);
            assert_eq!(e, epoch);
        }
        assert_eq!(svc.health_counts(), (n - 1, 1, 0));
    }

    #[test]
    fn replicated_sweep_arity_is_checked() {
        let svc = demo_service();
        assert!(matches!(
            svc.observe_replicated(1, &LoadState::idle(2), None),
            Err(ServiceError::LoadArityMismatch { .. })
        ));
        assert_eq!(svc.epoch(), 0);
    }

    #[test]
    fn service_is_shareable_across_threads() {
        let svc = Arc::new(demo_service());
        let baseline = svc
            .compare("app", &[m(&[0, 1])])
            .expect("demo mapping is valid");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    svc.compare("app", &[m(&[0, 1])])
                        .expect("demo mapping is valid")
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("compare thread panicked"), baseline);
        }
    }
}
