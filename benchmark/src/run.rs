//! One workload run: set-ups, the verification pass, warm-up, measured
//! slices, bookkeeping checks, and — when traced — the per-layer ledger.

use std::cmp::Reverse;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cbes_server::Client;

use crate::gen::{windows, Stream, Workload};
use crate::layers;
use crate::loadgen::{drive, exchange, verify, Conn, CoreHog, Kind, Load, Slice};
use crate::report::{find, Metric};
use crate::spans::write_jsonl;
use crate::stats::{fastest, median, percentile, supported_percentile, Schedule};
use crate::tier::Tier;

/// Length of one measured slice; a run measures `seconds / SLICE` of them.
pub const SLICE: Duration = Duration::from_millis(150);
/// The end-to-end values come from the fastest slice in this many.
pub const FASTEST_ONE_IN: usize = 10;
pub const WARMUP: Duration = Duration::from_secs(1);
/// Full set-ups per run; `setup_s` is the mean of their fastest tenth.
pub const SETUPS: usize = 30;

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Measured time per run, split into slices of [`SLICE`].
    pub seconds: f64,
    pub traced: bool,
}

impl Config {
    pub fn slices(&self) -> usize {
        ((self.seconds / SLICE.as_secs_f64()).round() as usize).max(1)
    }
}

pub struct Report {
    pub workload: Workload,
    /// The contract's end-to-end metrics (tracing off).
    pub end_to_end: Vec<Metric>,
    /// Printed beside them, unbounded: the whole run's rate and
    /// percentiles, how disturbed the host was, the verification pass.
    pub context: Vec<Metric>,
    /// The per-layer ledger; empty unless traced.
    pub layers: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Where span files go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// What every set-up sends: the profiles, then one evaluation request
/// per application, each as one window.
struct SetUpTraffic {
    register: Vec<u8>,
    register_ids: Vec<u64>,
    first_asks: Vec<u8>,
    first_ask_ids: Vec<u64>,
}

impl SetUpTraffic {
    fn of(stream: &Stream, lines: &[Vec<u8>]) -> SetUpTraffic {
        let (register_ids, register): (Vec<u64>, Vec<Vec<u8>>) =
            stream.register_lines().into_iter().unzip();
        let firsts = stream.first_per_app();
        assert_eq!(firsts.len(), stream.profiles.len());
        SetUpTraffic {
            register: register.concat(),
            register_ids,
            first_asks: firsts
                .iter()
                .flat_map(|&i| lines[i].iter().copied())
                .collect(),
            first_ask_ids: firsts.iter().map(|&i| i as u64 + 1).collect(),
        }
    }
}

/// One full set-up, the interval `setup_s` times: tier up, profiles
/// registered over the wire (through the router when there is one,
/// which broadcasts to every backend), one evaluation answered per
/// application, so whatever a daemon prepares lazily is paid here.
fn set_up(routed: bool, traffic: &SetUpTraffic) -> Result<Tier, String> {
    let tier = Tier::start(routed)?;
    let mut conn = Conn::connect(tier.entry())?;
    exchange(
        &mut conn,
        &traffic.register,
        &traffic.register_ids,
        Kind::Registered,
    )?;
    for backend in &tier.backends {
        if backend.service.registry().len() != traffic.register_ids.len() {
            return Err("a backend is missing registered profiles".to_string());
        }
    }
    exchange(
        &mut conn,
        &traffic.first_asks,
        &traffic.first_ask_ids,
        Kind::Predictions,
    )?;
    Ok(tier)
}

/// Requests per second of the fastest slices of `slices`.
fn fastest_rate(slices: &[&Slice]) -> (Vec<usize>, f64) {
    let chosen = fastest(slices.len(), FASTEST_ONE_IN, |i| Reverse(slices[i].ok));
    let ok: u64 = chosen.iter().map(|&i| slices[i].ok).sum();
    let rate = ok as f64 / (chosen.len() as f64 * SLICE.as_secs_f64());
    (chosen, rate)
}

/// req/s and p50 of the fastest tenth of the slices; beside them,
/// unbounded, their p99 and the same three over every slice.
fn end_to_end(slices: &[&Slice]) -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let sorted = |of: &mut dyn Iterator<Item = &Slice>| {
        let mut pooled: Vec<u64> = of.flat_map(|s| s.latencies_ns.iter().copied()).collect();
        pooled.sort_unstable();
        pooled
    };
    let us = |ns: u64| ns as f64 / 1e3;
    let (chosen, rate) = fastest_rate(slices);
    let best = sorted(&mut chosen.iter().map(|&i| slices[i]));
    let p50 = percentile(&best, 0.50).ok_or("the measured slices completed no request")?;
    let p99 = supported_percentile(&best, 0.99).ok_or_else(|| {
        format!(
            "the fastest slices hold {} samples, too few for ten beyond p99; raise --seconds",
            best.len()
        )
    })?;
    let metrics = vec![
        Metric::new("req_per_s", "req/s", rate),
        Metric::new("latency_p50_us", "us", us(p50)),
    ];

    let rates: Vec<f64> = slices
        .iter()
        .map(|s| s.ok as f64 / SLICE.as_secs_f64())
        .collect();
    let all = sorted(&mut slices.iter().copied());
    let mut context = vec![
        Metric::new("latency_p99_us", "us", us(p99)),
        Metric::new("req_per_s.all_slices_median", "req/s", median(&rates)),
        // How far the run as a whole fell short of its fastest slices:
        // what the host took, on code whose own speed does not vary.
        Metric::new(
            "host_disturbance_pct",
            "%",
            100.0 * (1.0 - median(&rates) / rate),
        ),
        Metric::new("samples_fastest", "count", best.len() as f64),
        Metric::new("samples_all_slices", "count", all.len() as f64),
    ];
    for (name, p) in [
        ("latency_p50_us.all_slices", 0.50),
        ("latency_p99_us.all_slices", 0.99),
        ("latency_p999_us.all_slices", 0.999),
    ] {
        if let Some(value) = supported_percentile(&all, p) {
            context.push(Metric::new(name, "us", us(value)));
        }
    }
    Ok((metrics, context))
}

fn note_failure(load: &mut Load, why: String) {
    load.failed += 1;
    load.first_failure.get_or_insert(why);
}

pub fn run_workload(workload: Workload, cfg: Config) -> Result<Report, String> {
    let stream = Stream::generate(workload, cfg.seed);
    let depth = workload.depth();
    let lines = stream.lines(false);
    let plain = windows(&lines, depth);
    let traffic = SetUpTraffic::of(&stream, &lines);

    // Set-up, several times; the last tier serves the run.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut last: Option<Tier> = None;
    for _ in 0..SETUPS {
        if let Some(tier) = last.take() {
            tier.stop();
        }
        let t = Instant::now();
        last = Some(set_up(workload.routed(), &traffic)?);
        setups.push(t.elapsed());
    }
    let tier = last.expect("at least one set-up");

    // One cycle of the stream verified bit-exact at depth 1. Every
    // backend holds the same profiles at the same epoch, so the first
    // one's service is the reference for routed replies too.
    let mut conn = Conn::connect(tier.entry())?;
    let t = Instant::now();
    let hog = CoreHog::on_two_cores();
    let hogged = hog.is_some();
    let verified = verify(&mut conn, &stream, &lines, &tier.backends[0].service)?;
    drop(hog);
    let verify_s = t.elapsed().as_secs_f64();

    let schedule = Schedule {
        warmup: WARMUP,
        slice: SLICE,
        slices: cfg.slices(),
    };
    // A traced run alternates plain and trace-stamped slices on the
    // same connection; the even ones are the tracing-off measurement.
    let stamped = cfg.traced.then(|| windows(&stream.lines(true), depth));
    let mut sets = vec![plain.as_slice()];
    sets.extend(stamped.as_deref());
    let before = if cfg.traced {
        Some(layers::snapshots(&tier)?)
    } else {
        None
    };
    let mut cursor = 0;
    let hog = if depth == 1 {
        CoreHog::on_two_cores()
    } else {
        None
    };
    let mut load = drive(
        &mut conn,
        &sets,
        depth,
        &verified.expects,
        schedule,
        &mut cursor,
    )?;
    drop(hog);
    let after = if cfg.traced {
        Some(layers::snapshots(&tier)?)
    } else {
        None
    };
    drop(conn);
    let verified_share = load.parsed as f64 / load.attempted as f64;

    // Bookkeeping the daemons must agree with: every observe sent was
    // acknowledged and moved the epoch by exactly one; nothing was
    // shed, timed out or answered with an error.
    let observes_sent = (load.attempted / depth as u64) * (stream.observes() / plain.len()) as u64;
    if load.acks != observes_sent {
        let why = format!("{observes_sent} observes sent, {} acknowledged", load.acks);
        note_failure(&mut load, why);
    }
    for backend in &tier.backends {
        let stats = Client::connect(backend.handle.addr())
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("cannot read daemon stats: {e}"))?;
        let expected_epoch = if workload.routed() {
            0
        } else {
            verified.acks + load.acks
        };
        if stats.epoch != expected_epoch {
            note_failure(
                &mut load,
                format!(
                    "daemon epoch {} after the run, expected {expected_epoch}",
                    stats.epoch
                ),
            );
        }
        if stats.errors + stats.overloaded + stats.timeouts != 0 {
            note_failure(
                &mut load,
                format!(
                    "daemon counted {} errors, {} overloaded, {} timeouts",
                    stats.errors, stats.overloaded, stats.timeouts
                ),
            );
        }
    }

    let untraced: Vec<&Slice> = load.slices.iter().step_by(sets.len()).collect();
    let (mut e2e, mut context) = end_to_end(&untraced)?;
    let quickest = fastest(SETUPS, FASTEST_ONE_IN, |i| setups[i]);
    let setup: Duration = quickest.iter().map(|&i| setups[i]).sum();
    e2e.insert(
        0,
        Metric::new("setup_s", "s", setup.as_secs_f64() / quickest.len() as f64),
    );
    let all_setups: Vec<f64> = setups.iter().map(Duration::as_secs_f64).collect();
    context.push(Metric::new("setup_s.all_median", "s", median(&all_setups)));
    context.push(Metric::new("verify_s", "s", verify_s));
    context.push(Metric::new(
        "lockstep_core_hog",
        "count",
        f64::from(u8::from(hogged)),
    ));

    let mut layer_metrics = Vec::new();
    if let (Some(before), Some(after)) = (before, after) {
        let rate = find(&e2e, "req_per_s").expect("just computed");
        let traced: Vec<&Slice> = load.slices.iter().skip(1).step_by(2).collect();
        let traced_rate = fastest_rate(&traced).1;

        // The same stream sent straight to one backend prices the router hop.
        let hop_us = if workload.routed() {
            let mut direct = Conn::connect(tier.backends[0].handle.addr())?;
            let quarter = Schedule {
                warmup: WARMUP / 4,
                slice: SLICE,
                slices: (cfg.slices() / 4).max(1),
            };
            let direct_load = drive(
                &mut direct,
                &sets[..1],
                depth,
                &verified.expects,
                quarter,
                &mut cursor,
            )?;
            load.attempted += direct_load.attempted;
            load.failed += direct_load.failed;
            load.first_failure = load.first_failure.or(direct_load.first_failure);
            let direct_slices: Vec<&Slice> = direct_load.slices.iter().collect();
            1e6 / rate - 1e6 / fastest_rate(&direct_slices).1.max(1.0)
        } else {
            0.0
        };

        let service = &tier.backends[0].service;
        let replay = layers::replay(&stream, &lines, service)?;
        write_jsonl(
            &out_dir().join(format!("trace-{}.jsonl", workload.name())),
            &replay.spans,
        )
        .map_err(|e| format!("cannot write the span file: {e}"))?;
        layer_metrics.extend(replay.metrics);
        layer_metrics.extend(layers::counted(&before, &after));
        layer_metrics.extend(layers::layer_pass(
            cfg.seed,
            service,
            tier.backends[0].handle.addr(),
            &verified.sample_reply,
        )?);
        let t = tier.timings;
        let p50 = find(&e2e, "latency_p50_us").expect("just computed");
        layer_metrics.extend([
            Metric::new("core.service_build_us", "us", t.service_build_us),
            Metric::new("server.start_us", "us", t.server_start_us),
            Metric::new("router.start_us", "us", t.router_start_us),
            Metric::new(
                "server.io_residual_us",
                "us",
                1e6 / rate - replay.modelled_us,
            ),
            // Only a lock-step round trip is one request's own time.
            Metric::new(
                "server.rtt_residual_us",
                "us",
                if depth == 1 {
                    p50 - replay.modelled_us
                } else {
                    0.0
                },
            ),
            Metric::new("router.hop_us", "us", hop_us),
            Metric::new("loadgen.verified_share", "ratio", verified_share),
            // The client's view of the tail and of the host, unbounded:
            // on this machine neither repeats well enough to carry a bound.
            Metric::new(
                "loadgen.latency_p99_us",
                "us",
                find(&context, "latency_p99_us").expect("just computed"),
            ),
            Metric::new(
                "loadgen.host_disturbance_pct",
                "%",
                find(&context, "host_disturbance_pct").expect("just computed"),
            ),
            Metric::new(
                "trace.overhead_pct",
                "%",
                100.0 * (rate - traced_rate) / rate,
            ),
        ]);
    }
    tier.stop();

    Ok(Report {
        workload,
        end_to_end: e2e,
        context,
        layers: layer_metrics,
        attempted: (lines.len() + SETUPS * 2 * stream.profiles.len()) as u64 + load.attempted,
        failed: load.failed,
        first_failure: load.first_failure,
    })
}
