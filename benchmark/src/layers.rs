//! The per-layer ledger, measured from outside: (R) an in-process
//! replay of the workload's own request lines with a span around each
//! call into a layer, (M) deltas of the daemons' `Metrics` wire action,
//! and (L) fixed-iteration loops over single public functions.

use std::hint::black_box;
use std::net::SocketAddr;
use std::time::Instant;

use cbes_cluster::NodeId;
use cbes_core::eval::{BatchEvaluator, Evaluator};
use cbes_core::CbesService;
use cbes_obs::registry::MetricsSnapshot;
use cbes_obs::{names, HistogramSnapshot};
use cbes_router::HashRing;
use cbes_sched::sa::{SaConfig, SaScheduler};
use cbes_sched::{ScheduleRequest, Scheduler};
use cbes_server::protocol::{
    decode_request, encode, encode_response, route_key_hash, Request, RequestEnvelope, Response,
    ResponseEnvelope,
};
use cbes_server::Client;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{circulant_profile, load_sweep, random_mapping, random_mappings, Stream, NODES};
use crate::loadgen;
use crate::report::Metric;
use crate::spans::{self_times_ns, Recorder, Span};
use crate::stats::median;
use crate::tier::Tier;

const US: &str = "us";

/// Median wall time of `work` over `iters` runs, in microseconds.
fn median_us(iters: usize, mut work: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            work();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

// ---------------------------------------------------------------- (R)

const SPAN_REQUEST: &str = "replay.request";
const SPAN_DECODE: &str = "protocol.decode";
const SPAN_PICK: &str = "router.pick";
const SPAN_EVALUATE: &str = "core.evaluate";
const SPAN_OBSERVE: &str = "core.observe";
const SPAN_ENCODE: &str = "protocol.encode";

pub struct Replay {
    pub spans: Vec<Span>,
    pub metrics: Vec<Metric>,
    /// decode + service call + encode, the modelled share of a request.
    pub modelled_us: f64,
}

/// Replay one cycle of the stream in-process against `service`: decode
/// the line, (routed: pick the owner,) call the service, encode the
/// reply — what the daemon does per request minus sockets, framing,
/// admission and queueing.
pub fn replay(stream: &Stream, lines: &[Vec<u8>], service: &CbesService) -> Result<Replay, String> {
    let ring = HashRing::new(2);
    let mut rec = Recorder::with_capacity(lines.len() * 5);
    let mut mappings_of = Vec::with_capacity(lines.len());
    let (mut request_bytes, mut response_bytes) = (0usize, 0usize);
    // An unrecorded lap first, so caches and the allocator are warm.
    for lap in 0..2 {
        rec.spans.clear();
        for (i, line) in lines.iter().enumerate() {
            let text = std::str::from_utf8(line)
                .map_err(|e| e.to_string())?
                .trim_end();
            let id = i as u64 + 1;
            let root = rec.open(SPAN_REQUEST, None, id);
            let env = rec
                .time(SPAN_DECODE, root, || decode_request(text))
                .map_err(|e| format!("replay cannot decode line {id}: {e}"))?;
            if stream.workload.routed() {
                if let Request::Compare { app, .. } = &env.request {
                    rec.time(SPAN_PICK, root, || {
                        black_box(ring.candidates(route_key_hash("centurion", app), 2))
                    });
                }
            }
            let (response, mappings) = match &env.request {
                Request::Compare { app, mappings } => (
                    rec.time(SPAN_EVALUATE, root, || {
                        service.compare_stamped(app, mappings)
                    })
                    .map(|(epoch, predictions)| Response::Predictions { epoch, predictions }),
                    mappings.len(),
                ),
                Request::Batch { app, mappings } => (
                    rec.time(SPAN_EVALUATE, root, || service.batch_stamped(app, mappings))
                        .map(|(epoch, predictions)| Response::Predictions { epoch, predictions }),
                    mappings.len(),
                ),
                Request::ObserveLoad { load } => (
                    rec.time(SPAN_OBSERVE, root, || service.observe_load(load))
                        .map(|epoch| Response::LoadObserved { epoch }),
                    0,
                ),
                other => return Err(format!("replay met an unexpected request {other:?}")),
            };
            let response = response.map_err(|e| format!("replay of request {id} failed: {e}"))?;
            let reply = rec.time(SPAN_ENCODE, root, || {
                encode_response(&ResponseEnvelope {
                    id: env.id,
                    response,
                })
            });
            rec.close(root);
            if lap == 1 {
                mappings_of.push(mappings);
                request_bytes += line.len();
                response_bytes += reply.len() + 1;
            }
        }
    }

    // One row of layer self times per request. Requests fall into two
    // kinds by the service call they make; a layer's value is its
    // per-kind median weighted by the kind's share of the stream, so a
    // mixed stream reports a per-request cost no outlier can move.
    #[derive(Clone, Copy, Default)]
    struct Row {
        observe: bool,
        decode: f64,
        pick: f64,
        service: f64,
        encode: f64,
    }
    let mut rows = vec![Row::default(); lines.len()];
    for (span, own_ns) in rec.spans.iter().zip(self_times_ns(&rec.spans)) {
        let row = &mut rows[span.request as usize - 1];
        let us = own_ns as f64 / 1e3;
        match span.name {
            SPAN_DECODE => row.decode = us,
            SPAN_PICK => row.pick = us,
            SPAN_EVALUATE => row.service = us,
            SPAN_OBSERVE => (row.service, row.observe) = (us, true),
            SPAN_ENCODE => row.encode = us,
            _ => {}
        }
    }
    let blended = |layer: fn(&Row) -> f64| -> f64 {
        [false, true]
            .into_iter()
            .map(|observe| {
                let kind: Vec<f64> = rows
                    .iter()
                    .filter(|r| r.observe == observe)
                    .map(layer)
                    .collect();
                if kind.is_empty() {
                    0.0
                } else {
                    median(&kind) * kind.len() as f64 / rows.len() as f64
                }
            })
            .sum()
    };
    let decode = blended(|r| r.decode);
    let evaluate = blended(|r| r.service);
    let encode = blended(|r| r.encode);
    let pick = blended(|r| r.pick);
    let per_mapping: Vec<f64> = rows
        .iter()
        .zip(&mappings_of)
        .filter(|(r, _)| !r.observe)
        .map(|(r, &mappings)| r.service / mappings as f64)
        .collect();
    let n = lines.len() as f64;
    let metrics = vec![
        Metric::new("protocol.decode_us", US, decode),
        Metric::new("protocol.encode_us", US, encode),
        Metric::new("protocol.request_bytes", "bytes", request_bytes as f64 / n),
        Metric::new(
            "protocol.response_bytes",
            "bytes",
            response_bytes as f64 / n,
        ),
        Metric::new("core.evaluate_us", US, evaluate),
        Metric::new("core.evaluate_per_mapping_us", US, median(&per_mapping)),
        Metric::new("router.pick_us", US, pick),
    ];
    Ok(Replay {
        spans: rec.spans,
        metrics,
        modelled_us: decode + evaluate + encode,
    })
}

// ---------------------------------------------------------------- (M)

/// One `Metrics` snapshot per backend, read over the wire.
pub fn snapshots(tier: &Tier) -> Result<Vec<MetricsSnapshot>, String> {
    tier.backends
        .iter()
        .map(|b| {
            Client::connect(b.handle.addr())
                .and_then(|mut c| c.metrics())
                .map_err(|e| format!("cannot read daemon metrics: {e}"))
        })
        .collect()
}

/// What the daemons counted between two snapshot sets. Server
/// instruments are per daemon and are summed; core, netmodel and router
/// instruments live in the process-wide registry every daemon reports,
/// so they are read from the first backend only.
pub fn counted(before: &[MetricsSnapshot], after: &[MetricsSnapshot]) -> Vec<Metric> {
    let counter = |name: &str, backends: usize| -> f64 {
        before
            .iter()
            .zip(after)
            .take(backends)
            .map(|(b, a)| {
                let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
                get(a).saturating_sub(get(b)) as f64
            })
            .sum()
    };
    let histogram = |name: &str, backends: usize| -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (b, a) in before.iter().zip(after).take(backends) {
            let get = |s: &MetricsSnapshot| s.histograms.get(name).cloned().unwrap_or_default();
            merged.merge(&get(a).sub(&get(b)));
        }
        merged
    };
    let all = after.len();
    let served = counter(names::SERVER_SERVED, all).max(1.0);
    let queue_wait = histogram(names::SERVER_QUEUE_WAIT_US, all);
    let service_time = histogram(names::SERVER_SERVICE_TIME_US, all);
    let routed = counter(names::ROUTER_ROUTED, 1);
    let mut metrics = vec![
        Metric::new("server.queue_wait_p50_us", US, queue_wait.p50() as f64),
        Metric::new("server.queue_wait_p99_us", US, queue_wait.p99() as f64),
        Metric::new("server.service_time_p50_us", US, service_time.p50() as f64),
        Metric::new("server.service_time_p99_us", US, service_time.p99() as f64),
        Metric::new(
            "server.loop_wakeups_per_req",
            "ratio",
            counter(names::SERVER_LOOP_WAKEUPS, all) / served,
        ),
        Metric::new(
            "core.epoch_publish_p50_us",
            US,
            histogram(names::CORE_EPOCH_PUBLISH_US, 1).p50() as f64,
        ),
        Metric::new(
            "netmodel.forecast_refresh_p50_us",
            US,
            histogram(names::NETMODEL_FORECAST_REFRESH_US, 1).p50() as f64,
        ),
        Metric::new(
            "router.backend_connects_per_req",
            "ratio",
            if routed > 0.0 {
                counter(names::SERVER_CONNECTIONS, all) / routed
            } else {
                0.0
            },
        ),
    ];
    for (name, instrument, backends) in [
        ("server.connections", names::SERVER_CONNECTIONS, all),
        ("server.overloaded", names::SERVER_OVERLOADED, all),
        ("server.timeouts", names::SERVER_TIMEOUTS, all),
        ("server.errors", names::SERVER_ERRORS, all),
        ("router.routed", names::ROUTER_ROUTED, 1),
        ("router.forwarded", names::ROUTER_FORWARDED, 1),
        ("router.failed_over", names::ROUTER_FAILED_OVER, 1),
        ("router.giveups", names::ROUTER_GIVEUPS, 1),
    ] {
        metrics.push(Metric::new(name, "count", counter(instrument, backends)));
    }
    metrics
}

// ---------------------------------------------------------------- (L)

/// Candidates per timed evaluation loop.
const CANDIDATES: usize = 32;

/// Fixed-iteration loops over single public functions. `service` and
/// `addr` are the (now idle) first daemon of the workload's tier;
/// `sample_reply` is the workload's longest verified reply.
pub fn layer_pass(
    seed: u64,
    service: &CbesService,
    addr: SocketAddr,
    sample_reply: &[u8],
) -> Result<Vec<Metric>, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1a7e_55ed);
    let mut metrics = Vec::new();

    // A Compare line pushed off the fast decoder by one space.
    let fast = encode(&RequestEnvelope::new(
        1,
        Request::Compare {
            app: "layer.ring8".to_string(),
            mappings: random_mappings(3, 8, &mut rng),
        },
    ));
    let slow = fast.replacen('{', "{ ", 1);
    if decode_request(&slow).ok() != decode_request(&fast).ok() {
        return Err("the serde decode path disagrees with the fast path".to_string());
    }
    metrics.push(Metric::new(
        "protocol.decode_serde_us",
        US,
        median_us(2000, || {
            black_box(decode_request(black_box(&slow)).ok());
        }),
    ));

    // The paper's §6.2 curve: evaluation cost against message groups.
    let cached = service.current_load();
    let snapshot = service.snapshot_of(&cached);
    for (ranks, fanout, predict_name, batch_name) in [
        (8, 1, "core.predict_g16_us", "core.batch_per_mapping_g16_us"),
        (
            16,
            8,
            "core.predict_g256_us",
            "core.batch_per_mapping_g256_us",
        ),
        (
            32,
            16,
            "core.predict_g1024_us",
            "core.batch_per_mapping_g1024_us",
        ),
    ] {
        let profile = circulant_profile("layer", ranks, fanout, &mut rng);
        let mappings = random_mappings(CANDIDATES, ranks, &mut rng);
        let single = Evaluator::new(&profile, &snapshot);
        let predict = median_us(200, || {
            for m in &mappings {
                black_box(single.predict(black_box(m)));
            }
        });
        let batch = median_us(200, || {
            black_box(BatchEvaluator::new(&profile, &snapshot).predict_batch(black_box(&mappings)));
        });
        metrics.push(Metric::new(predict_name, US, predict / CANDIDATES as f64));
        metrics.push(Metric::new(batch_name, US, batch / CANDIDATES as f64));
    }

    metrics.push(Metric::new(
        "core.snapshot_us",
        US,
        median_us(2000, || {
            let cached = service.current_load();
            black_box(service.snapshot_of(&cached).effective_acpu(NodeId(0)));
        }),
    ));
    let sweeps: Vec<_> = (0..300).map(|_| load_sweep(&mut rng)).collect();
    let mut next = sweeps.iter().cycle();
    let mut observe_failed = false;
    let observe = median_us(sweeps.len(), || {
        observe_failed |= service
            .observe_load(next.next().expect("cycle never ends"))
            .is_err();
    });
    if observe_failed {
        return Err("observe_load rejected a generated sweep".to_string());
    }
    metrics.push(Metric::new("core.observe_us", US, observe));

    let mut connect_failed = false;
    let connect = median_us(200, || {
        connect_failed |= Client::connect(addr).and_then(|mut c| c.stats()).is_err();
    });
    if connect_failed {
        return Err("a fresh connection's Stats round trip failed".to_string());
    }
    metrics.push(Metric::new("server.connect_us", US, connect));

    // The cost of a `Schedule` request beyond the wire: fast SA of
    // ring8 over a seeded 48-node pool.
    let ring8 = circulant_profile("layer.ring8", 8, 1, &mut rng);
    let pool: Vec<NodeId> = random_mapping(48, NODES, &mut rng).as_slice().to_vec();
    let request = ScheduleRequest::new(&ring8, &snapshot, &pool);
    let mut evaluations = 0u64;
    let mut sa_failed = false;
    let mut run = 0u64;
    let sa_us = median_us(20, || {
        run += 1;
        match SaScheduler::new(SaConfig::fast(seed.wrapping_add(run))).schedule(&request) {
            Ok(result) => evaluations = result.evaluations,
            Err(_) => sa_failed = true,
        }
    });
    if sa_failed {
        return Err("the SA scheduler rejected the layer-pass request".to_string());
    }
    metrics.push(Metric::new("sched.sa_fast_us", US, sa_us));
    metrics.push(Metric::new(
        "sched.sa_evals_per_s",
        "1/s",
        evaluations as f64 / (sa_us / 1e6),
    ));

    // The generator's own cost per reply.
    metrics.push(Metric::new(
        "loadgen.parse_reply_us",
        US,
        median_us(200, || {
            black_box(loadgen::parse(black_box(sample_reply)).is_ok());
        }),
    ));
    metrics.push(Metric::new(
        "loadgen.scan_reply_us",
        US,
        median_us(200, || {
            for _ in 0..1000 {
                black_box(loadgen::scan(black_box(sample_reply)));
            }
        }) / 1000.0,
    ));
    Ok(metrics)
}
