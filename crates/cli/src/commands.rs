//! Subcommand implementations. Each returns the rendered output text.

use crate::args::{parse_load_list, parse_node_list, Parsed};
use crate::error::CliError;
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, NodeId};
use cbes_core::eval::Evaluator;
use cbes_core::mapping::Mapping;
use cbes_core::snapshot::SystemSnapshot;
use cbes_mpisim::{simulate as sim_run, SimConfig};
use cbes_netmodel::calibrate::Calibrator;
use cbes_sched::{
    GaConfig, GeneticScheduler, GreedyScheduler, NcsScheduler, RandomScheduler, SaConfig,
    SaScheduler, ScheduleRequest, Scheduler,
};
use cbes_server::protocol::{Action, ActionSpec, Request, Response, ACTIONS};
use cbes_trace::{extract_profile, AppProfile, TraceStats};
use cbes_workloads::suite::{self, SuiteParams};
use cbes_workloads::Workload;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

fn preset(name: &str) -> Result<Cluster, CliError> {
    match name {
        "centurion" => Ok(cbes_cluster::presets::centurion()),
        "orange-grove" | "orangegrove" | "grove" => Ok(cbes_cluster::presets::orange_grove()),
        "demo" => Ok(cbes_cluster::presets::two_switch_demo()),
        // Anything ending in .json is a user-defined ClusterSpec file.
        path if path.ends_with(".json") => {
            let text = std::fs::read_to_string(path)?;
            let spec = cbes_cluster::ClusterSpec::from_json(&text)?;
            spec.build()
                .map_err(|e| CliError::domain(format!("invalid cluster spec `{path}`: {e}")))
        }
        other => Err(CliError::usage(format!(
            "unknown preset `{other}` (want centurion | orange-grove | demo, \
             or a ClusterSpec .json file)"
        ))),
    }
}

/// `cbes export-cluster <preset> [--out FILE]` — dump a preset as an
/// editable ClusterSpec JSON (the starting point for custom clusters).
pub fn export_cluster(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let json = cbes_cluster::ClusterSpec::from_cluster(&c).to_json();
    if let Some(path) = parsed.get("out") {
        std::fs::write(path, &json)?;
        Ok(format!("cluster spec written to {path}\n"))
    } else {
        Ok(json)
    }
}

fn workload_from(parsed: &Parsed) -> Result<Workload, CliError> {
    let name = parsed.require("workload")?;
    let class = match parsed.get("class") {
        None => cbes_workloads::npb::NpbClass::A,
        Some(c) => suite::parse_class(c)
            .ok_or_else(|| CliError::usage(format!("bad --class `{c}` (want S|A|B)")))?,
    };
    let params = SuiteParams {
        ranks: parsed.get_parsed("ranks", 8usize)?,
        class,
        size: parsed.get_parsed("size", 10_000u64)?,
    };
    suite::by_name(name, params).ok_or_else(|| {
        CliError::usage(format!(
            "unknown workload `{name}` (run `cbes workloads` for the list)"
        ))
    })
}

/// `node` itself, or a usage error when `cluster` has no such node.
fn in_cluster(node: NodeId, cluster: &Cluster) -> Result<NodeId, CliError> {
    if node.index() < cluster.len() {
        Ok(node)
    } else {
        Err(CliError::usage(format!("node {node} outside the cluster")))
    }
}

fn load_from(parsed: &Parsed, cluster: &Cluster) -> Result<LoadState, CliError> {
    let mut load = LoadState::idle(cluster.len());
    if let Some(spec) = parsed.get("load") {
        for (node, avail) in parse_load_list(spec)? {
            load.set_cpu_avail(in_cluster(node, cluster)?, avail);
        }
    }
    Ok(load)
}

fn read_profile(path: &str) -> Result<AppProfile, CliError> {
    let text = std::fs::read_to_string(path)?;
    Ok(AppProfile::from_json(&text)?)
}

/// `cbes cluster <preset>`
pub fn cluster(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cluster `{}`: {} nodes, {} switches, {} links",
        c.name(),
        c.len(),
        c.switches().len(),
        c.links().len()
    );
    for arch in cbes_cluster::Architecture::known() {
        let nodes = c.nodes_by_arch(arch);
        if nodes.is_empty() {
            continue;
        }
        let speed = c.node(nodes[0]).speed;
        let _ = writeln!(
            out,
            "  {:>18}: {:>3} nodes (relative speed {speed})",
            arch.to_string(),
            nodes.len()
        );
    }
    let _ = writeln!(
        out,
        "inter-node latency spread at 1 KiB: {:.1}%",
        c.latency_spread(1024) * 100.0
    );
    Ok(out)
}

/// `cbes topology <preset> [--out FILE]` — Graphviz DOT of the cluster.
pub fn topology(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let dot = c.to_dot();
    if let Some(path) = parsed.get("out") {
        std::fs::write(path, &dot)?;
        Ok(format!("topology written to {path}\n"))
    } else {
        Ok(dot)
    }
}

/// `cbes workloads`
pub fn workloads(_parsed: &Parsed) -> Result<String, CliError> {
    let mut out = String::from("available workload generators:\n");
    for name in suite::names() {
        let w = suite::by_name(
            name,
            SuiteParams {
                ranks: 4,
                class: cbes_workloads::npb::NpbClass::S,
                size: 12,
            },
        )
        .expect("listed names build");
        let _ = writeln!(out, "  {name:<8} {}", w.description);
    }
    out.push_str("options: --ranks N, --class S|A|B (NPB), --size N (hpl, smg2000)\n");
    Ok(out)
}

/// `cbes calibrate <preset> [--seed N] [--out FILE]`
pub fn calibrate(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let seed = parsed.get_parsed("seed", 42u64)?;
    let outcome = Calibrator::default().with_seed(seed).calibrate(&c);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "calibrated `{}`: {} measurements over {} clique rounds \
         (serial cost {:.1}s, parallel {:.1}s, speedup {:.1}x)",
        c.name(),
        outcome.measurements,
        outcome.rounds,
        outcome.serial_cost,
        outcome.parallel_cost,
        outcome.clique_speedup()
    );
    if let Some(path) = parsed.get("out") {
        let json = serde_json::to_string_pretty(&outcome.model)?;
        std::fs::write(path, json)?;
        let _ = writeln!(out, "model written to {path}");
    }
    Ok(out)
}

/// `cbes profile <preset> --workload W [...] [--out FILE]`
pub fn profile(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let w = workload_from(parsed)?;
    let seed = parsed.get_parsed("seed", 42u64)?;
    let nodes: Vec<NodeId> = match parsed.get("nodes") {
        Some(spec) => parse_node_list(spec)?,
        None => (0..w.num_ranks() as u32).map(NodeId).collect(),
    };
    if nodes.len() != w.num_ranks() {
        return Err(CliError::usage(format!(
            "--nodes lists {} nodes but the workload has {} ranks",
            nodes.len(),
            w.num_ranks()
        )));
    }
    let calib = Calibrator::default().with_seed(seed).calibrate(&c);
    let run = sim_run(
        &c,
        &w.program,
        &nodes,
        &LoadState::idle(c.len()),
        &SimConfig::default().with_seed(seed),
    )
    .map_err(|e| CliError::domain(format!("profiling run failed: {e}")))?;
    let profile = extract_profile(&w.name, &run.trace, &c, &nodes, &calib.model);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profiled `{}` on {} ranks: wall {:.3}s, {:.0}% compute / {:.0}% communication",
        profile.name,
        profile.num_procs(),
        run.wall_time,
        profile.compute_fraction() * 100.0,
        (1.0 - profile.compute_fraction()) * 100.0
    );
    if let Some(path) = parsed.get("out") {
        std::fs::write(path, profile.to_json())?;
        let _ = writeln!(out, "profile written to {path}");
    }
    Ok(out)
}

/// `cbes predict <preset> --profile F --mapping 0,1,..`
pub fn predict(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let profile = read_profile(parsed.require("profile")?)?;
    let nodes = parse_node_list(parsed.require("mapping")?)?;
    let nodes = nodes.into_iter().map(|n| in_cluster(n, &c));
    let mapping = Mapping::new(nodes.collect::<Result<_, _>>()?);
    if mapping.len() != profile.num_procs() {
        return Err(CliError::usage(format!(
            "mapping lists {} nodes but the profile has {} processes",
            mapping.len(),
            profile.num_procs()
        )));
    }
    let seed = parsed.get_parsed("seed", 42u64)?;
    let calib = Calibrator::default().with_seed(seed).calibrate(&c);
    let mut snap = SystemSnapshot::no_load(&c, &calib.model);
    snap.set_load(load_from(parsed, &c)?);
    let pred = Evaluator::new(&profile, &snap).predict(&mapping);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "predicted execution time: {:.4} s (bottleneck rank {})",
        pred.time, pred.bottleneck
    );
    for (rank, cost) in pred.per_proc.iter().enumerate() {
        let _ = writeln!(
            out,
            "  rank {rank}: R = {:.4}s, C = {:.4}s on {}",
            cost.r,
            cost.c,
            mapping.node(rank)
        );
    }
    Ok(out)
}

/// `cbes schedule <preset> --profile F [--scheduler cs|ncs|rs|greedy|ga]`
pub fn schedule(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let profile = read_profile(parsed.require("profile")?)?;
    let seed = parsed.get_parsed("seed", 42u64)?;
    let pool: Vec<NodeId> = match parsed.get("pool") {
        Some(spec) => parse_node_list(spec)?,
        None => c.node_ids().collect(),
    };
    let calib = Calibrator::default().with_seed(seed).calibrate(&c);
    let mut snap = SystemSnapshot::no_load(&c, &calib.model);
    snap.set_load(load_from(parsed, &c)?);
    let req = ScheduleRequest::new(&profile, &snap, &pool);
    let kind = parsed.get("scheduler").unwrap_or("cs");
    let mut scheduler: Box<dyn Scheduler> = match kind {
        "cs" => Box::new(SaScheduler::new(SaConfig::thorough(seed))),
        "ncs" => Box::new(NcsScheduler::new(SaConfig::thorough(seed))),
        "rs" => Box::new(RandomScheduler::new(seed)),
        "greedy" => Box::new(GreedyScheduler::new()),
        "ga" => Box::new(GeneticScheduler::new(GaConfig::fast(seed))),
        other => {
            return Err(CliError::usage(format!(
                "unknown scheduler `{other}` (want cs|ncs|rs|greedy|ga)"
            )))
        }
    };
    let result = scheduler
        .schedule(&req)
        .map_err(|e| CliError::domain(format!("scheduling failed: {e}")))?;
    Ok(format!(
        "{} selected mapping {}\npredicted execution time: {:.4} s\n\
         {} evaluations in {:?}\n",
        scheduler.name(),
        result.mapping,
        result.predicted_time,
        result.evaluations,
        result.elapsed
    ))
}

/// `cbes analyze <preset> --workload W --mapping 0,1,..` — trace one
/// run and print the post-mortem statistics (utilisation, hot edges,
/// matrix).
pub fn analyze(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let mapping = parse_node_list(parsed.require("mapping")?)?;
    let mut p2 = parsed.clone();
    p2.flags
        .entry("ranks".into())
        .or_insert_with(|| mapping.len().to_string());
    let w = workload_from(&p2)?;
    let seed = parsed.get_parsed("seed", 42u64)?;
    let load = load_from(parsed, &c)?;
    let r = sim_run(
        &c,
        &w.program,
        &mapping,
        &load,
        &SimConfig::default().with_seed(seed),
    )
    .map_err(|e| CliError::domain(format!("traced run failed: {e}")))?;
    let stats = TraceStats::from_trace(&r.trace);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "`{}` wall time {:.4}s — {} messages, {} payload bytes, compute \
         imbalance {:.2}x",
        w.name,
        stats.wall_time,
        stats.total_messages(),
        stats.total_bytes(),
        stats.compute_imbalance()
    );
    let _ = writeln!(out, "\nper-rank utilisation (fractions of wall time):");
    let _ = writeln!(out, "  rank | compute | overhead | blocked | tail idle");
    for u in &stats.utilisation {
        let _ = writeln!(
            out,
            "  {:>4} | {:>7.3} | {:>8.3} | {:>7.3} | {:>9.3}",
            u.rank, u.compute, u.overhead, u.blocked, u.tail_idle
        );
    }
    let _ = writeln!(out, "\nhottest communication edges:");
    for (s_, d, b) in stats.hottest_pairs(5) {
        let _ = writeln!(out, "  r{s_} -> r{d}: {b} bytes");
    }
    if stats.num_ranks() <= 12 {
        let _ = writeln!(out, "\n{}", stats.render_matrix());
    }
    Ok(out)
}

/// `cbes simulate <preset> --workload W --mapping 0,1,..`
pub fn simulate(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let mapping = parse_node_list(parsed.require("mapping")?)?;
    let mut p2 = parsed.clone();
    p2.flags
        .entry("ranks".into())
        .or_insert_with(|| mapping.len().to_string());
    let w = workload_from(&p2)?;
    let seed = parsed.get_parsed("seed", 42u64)?;
    let load = load_from(parsed, &c)?;
    let r = sim_run(
        &c,
        &w.program,
        &mapping,
        &load,
        &SimConfig::default().with_seed(seed),
    )
    .map_err(|e| CliError::domain(format!("simulation failed: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(out, "`{}` wall time: {:.4} s", w.name, r.wall_time);
    for (rank, s) in r.stats.iter().enumerate() {
        let _ = writeln!(
            out,
            "  rank {rank} on {}: compute {:.3}s, overhead {:.3}s, blocked {:.3}s",
            mapping[rank], s.x, s.o, s.b
        );
    }
    Ok(out)
}

/// `cbes serve <preset>` — run the CBES daemon until a `Shutdown`
/// request arrives, then drain and report counters.
pub fn serve(parsed: &Parsed) -> Result<String, CliError> {
    let c = preset(parsed.positional0()?)?;
    let seed = parsed.get_parsed("seed", 42u64)?;
    let config = cbes_server::ServerConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:9077").to_string(),
        workers: parsed.get_parsed("workers", 4usize)?,
        queue_capacity: parsed.get_parsed("queue", 1024usize)?,
        request_timeout: std::time::Duration::from_millis(
            parsed.get_parsed("timeout-ms", 10_000u64)?,
        ),
        max_line_bytes: parsed.get_parsed("max-line-bytes", 64 * 1024usize)?,
        max_consecutive_errors: parsed.get_parsed("max-bad-frames", 8u32)?,
        shed_retry_after: std::time::Duration::from_millis(
            parsed.get_parsed("retry-after-ms", 25u64)?,
        ),
        max_rps: parsed.get_parsed("max-rps", 0.0f64)?,
        state_dir: parsed.get("state-dir").map(std::path::PathBuf::from),
    };
    let health = cbes_core::HealthPolicy {
        suspect_after: parsed.get_parsed("suspect-after", 3u64)?,
        down_after: parsed.get_parsed("down-after", 8u64)?,
        ..cbes_core::HealthPolicy::default()
    };
    let forecast = match parsed.get("forecast").unwrap_or("adaptive") {
        "last" => cbes_core::monitor::ForecastKind::LastValue,
        "mean" => cbes_core::monitor::ForecastKind::Mean(8),
        "median" => cbes_core::monitor::ForecastKind::Median(8),
        "adaptive" => cbes_core::monitor::ForecastKind::Adaptive(8),
        other => {
            return Err(CliError::usage(format!(
                "bad --forecast `{other}` (want last | mean | median | adaptive)"
            )))
        }
    };

    // Off-line calibration at start-up, as the paper's service does at
    // installation time.
    let name = c.name().to_string();
    let nodes = c.len();
    let outcome = Calibrator::default().with_seed(seed).calibrate(&c);
    let service = std::sync::Arc::new(
        cbes_core::CbesService::new(
            std::sync::Arc::new(c),
            std::sync::Arc::new(outcome.model),
            forecast,
        )
        .with_health_policy(health),
    );
    if let Some(dir) = parsed.get("profiles") {
        let loaded = cbes_core::registry::ProfileRegistry::load_dir(std::path::Path::new(dir))?;
        for app in loaded.names() {
            if let Some(p) = loaded.get(&app) {
                service
                    .registry()
                    .insert(p)
                    .map_err(|e| CliError::domain(e.to_string()))?;
            }
        }
    }

    let workers = config.workers;
    let handle = cbes_server::Server::start(service, config)?;
    let addr = handle.addr();
    // The daemon blocks in join() until a Shutdown request, so report
    // liveness on stderr where it is visible immediately.
    eprintln!("cbes-server: serving `{name}` ({nodes} nodes) on {addr} with {workers} workers");
    if let Some(path) = parsed.get("addr-file") {
        std::fs::write(path, addr.to_string())?;
    }
    let (served, errors) = handle.join();
    Ok(format!(
        "cbes-server on {addr} drained: {served} requests served, {errors} errors\n"
    ))
}

/// The `--timeout SECONDS` I/O deadline for client commands; a dead or
/// wedged daemon then surfaces as an error instead of a hang.
fn client_timeout(parsed: &Parsed) -> Result<Duration, CliError> {
    let secs = parsed.get_parsed("timeout", 10.0f64)?;
    // `try_from` refuses NaN, infinities, negatives and ~1.8e19 s up.
    match Duration::try_from_secs_f64(secs) {
        Ok(timeout) if secs > 0.0 => Ok(timeout),
        _ => Err(CliError::usage(format!(
            "--timeout must be a positive number of seconds below 1.8e19, got `{secs}`"
        ))),
    }
}

/// Connect to a daemon with the `--timeout` deadline applied to the
/// connection attempt and to every read/write on the socket.
fn connect(parsed: &Parsed, addr: &str) -> Result<cbes_server::Client, CliError> {
    cbes_server::Client::connect_timeout(addr, client_timeout(parsed)?)
        .map_err(|e| CliError::Transport(format!("cannot reach daemon at {addr}: {e}")))
}

/// Classify a client failure for exit-code purposes: transport problems,
/// overload-shed replies, and other server-reported errors are distinct.
fn client_err(e: cbes_server::client::ClientError) -> CliError {
    use cbes_server::client::ClientError;
    match e {
        ClientError::Io(e) => CliError::Transport(e.to_string()),
        ClientError::Protocol(m) => CliError::Transport(m),
        ClientError::Server {
            kind,
            message,
            retry_after_ms,
        } if kind == cbes_server::protocol::error_kind::OVERLOADED => CliError::Shed {
            message,
            retry_after_ms,
        },
        // A draining daemon is indistinguishable from a dead one for
        // scripting purposes: the service is going away, not rejecting
        // this particular request. Exit 3 (transport), not 4.
        ClientError::Server { kind, message, .. }
            if kind == cbes_server::protocol::error_kind::SHUTTING_DOWN =>
        {
            CliError::Transport(format!("daemon is draining: {message}"))
        }
        ClientError::Server { kind, message, .. } => CliError::Server { kind, message },
    }
}

/// Render label/value rows right-aligned on the label column.
fn aligned_table(rows: &[(String, String)]) -> String {
    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut out = String::new();
    for (label, value) in rows {
        let _ = writeln!(out, "{label:>width$}  {value}");
    }
    out
}

/// Pretty-print a `stats` reply, including the per-action service counts.
fn stats_table(s: &cbes_server::protocol::StatsReport) -> String {
    let mut rows: Vec<(String, String)> = vec![
        ("served".into(), s.served.to_string()),
        ("errors".into(), s.errors.to_string()),
        ("overloaded".into(), s.overloaded.to_string()),
        ("timeouts".into(), s.timeouts.to_string()),
        ("connections".into(), s.connections.to_string()),
        ("epoch".into(), s.epoch.to_string()),
        ("profiles".into(), s.profiles.to_string()),
        ("observations".into(), s.observations.to_string()),
        ("workers".into(), s.workers.to_string()),
        ("queue depth".into(), s.queue_depth.to_string()),
        (
            "node health".into(),
            format!(
                "{} healthy / {} suspect / {} down",
                s.healthy, s.suspect, s.down
            ),
        ),
        (
            "health transitions".into(),
            s.health_transitions.to_string(),
        ),
        (
            "dropped connections".into(),
            s.dropped_connections.to_string(),
        ),
        ("uptime".into(), format!("{:.1} s", s.uptime_s)),
    ];
    for (action, count) in &s.per_action {
        rows.push((format!("served: {action}"), count.to_string()));
    }
    aligned_table(&rows)
}

/// Summarise a metrics snapshot: counters, gauges, and latency
/// histograms with their key percentiles (all durations microseconds).
fn metrics_table(m: &cbes_obs::MetricsSnapshot) -> String {
    let mut out = String::new();
    if !m.counters.is_empty() {
        let _ = writeln!(out, "counters:");
        let rows: Vec<(String, String)> = m
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), v.to_string()))
            .collect();
        out.push_str(&aligned_table(&rows));
    }
    if !m.gauges.is_empty() {
        let _ = writeln!(out, "gauges:");
        let rows: Vec<(String, String)> = m
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), format!("{v:.3}")))
            .collect();
        out.push_str(&aligned_table(&rows));
    }
    if !m.histograms.is_empty() {
        let _ = writeln!(out, "histograms (us):");
        let rows: Vec<(String, String)> = m
            .histograms
            .iter()
            .map(|(k, h)| {
                let v = if h.is_empty() {
                    "empty".to_string()
                } else {
                    format!(
                        "count {}  mean {:.0}  p50 {}  p90 {}  p99 {}  max {}",
                        h.count,
                        h.mean(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.max
                    )
                };
                (k.clone(), v)
            })
            .collect();
        out.push_str(&aligned_table(&rows));
    }
    let _ = writeln!(
        out,
        "spans: {} buffered, {} dropped",
        m.spans_buffered, m.spans_dropped
    );
    out
}

/// `cbes metrics <addr>.. [--addr HOST:PORT]..` — fetch observability
/// snapshots from one or more daemons (every positional address plus
/// every repeated `--addr`), merge them into a single tier-wide report
/// (counters and histograms add, gauges last-wins), and render it.
pub fn metrics(parsed: &Parsed) -> Result<String, CliError> {
    let mut addrs: Vec<&str> = parsed.positional.iter().map(String::as_str).collect();
    addrs.extend(parsed.get_all("addr").iter().map(String::as_str));
    if addrs.is_empty() {
        return Err(CliError::usage(
            "`metrics` needs at least one daemon address (positional or --addr)",
        ));
    }
    let format = parsed.get("format").unwrap_or("summary");
    if !matches!(format, "summary" | "json") {
        return Err(CliError::usage(format!(
            "bad --format `{format}` (want summary | json)"
        )));
    }
    let mut merged: Option<cbes_obs::MetricsSnapshot> = None;
    for addr in &addrs {
        let mut client = connect(parsed, addr)?;
        let snap = client.metrics().map_err(client_err)?;
        match merged.as_mut() {
            Some(m) => m.merge(&snap),
            None => merged = Some(snap),
        }
    }
    let snap = merged.ok_or_else(|| CliError::usage("`metrics` needs a daemon address"))?;
    if format == "json" {
        Ok(snap.to_json() + "\n")
    } else if addrs.len() == 1 {
        Ok(metrics_table(&snap))
    } else {
        Ok(format!(
            "merged {} instances:\n{}",
            addrs.len(),
            metrics_table(&snap)
        ))
    }
}

/// What `cbes top` remembers of one endpoint between frames: every
/// column that is a rate or a window is the current cumulative snapshot
/// minus something held here.
#[derive(Default)]
struct TopBaseline {
    /// Cumulative requests served (or routed) at the previous frame.
    served: u64,
    /// Cumulative `overloaded` sheds at the previous frame.
    shed: u64,
    /// `(when polled, cumulative server.service_time_us)` of earlier
    /// frames, oldest first, none older than [`TOP_LONG_WINDOW`].
    service_time: VecDeque<(Instant, cbes_obs::HistogramSnapshot)>,
}

/// [`TopBaseline`]s by endpoint address.
type TopTotals = std::collections::BTreeMap<String, TopBaseline>;

/// The `p50-10s` / `p99-10s` columns' window.
const TOP_SHORT_WINDOW: Duration = Duration::from_secs(10);
/// The `p99-60s` column's window, and how long a frame is kept.
const TOP_LONG_WINDOW: Duration = Duration::from_secs(60);

/// Render one `cbes top` frame, polled at `now`, from per-endpoint
/// metrics snapshots: request and shed deltas against the previous
/// frame's cumulative totals, service-time quantiles over the samples
/// recorded since the newest held frame at least 10 s / 60 s old (else
/// the oldest held; the first frame has no baseline, so every column is
/// the lifetime total). An endpoint that did not answer this frame
/// (`None`) renders as a `down` row rather than aborting the session,
/// and its baseline is dropped so the first frame after it comes back
/// starts fresh. Deltas clamp at zero (`saturating_sub`,
/// `HistogramSnapshot::sub`): a restarted instance resets its
/// instruments, and a session that spans the restart must show a quiet
/// endpoint, not an underflowed rate.
fn top_frame(
    rows: &[(String, Option<cbes_obs::MetricsSnapshot>)],
    prev: &mut TopTotals,
    now: Instant,
) -> String {
    use cbes_obs::names;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<21} {:>7} {:>7} {:>10} {:>10} {:>10} {:>11} {:>7}",
        "endpoint", "req", "shed", "p50-10s us", "p99-10s us", "p99-60s us", "spans", "flight"
    );
    for (addr, snap) in rows {
        let Some(m) = snap else {
            prev.remove(addr);
            let _ = writeln!(
                out,
                "{addr:<21} {:>7} {:>7} {:>10} {:>10} {:>10} {:>11} {:>7}  (down)",
                "-", "-", "-", "-", "-", "-", "-"
            );
            continue;
        };
        let c = |key: &str| m.counters.get(key).copied().unwrap_or(0);
        // A router's reply folds in its daemons', so `server.served`
        // already counts every routed request once.
        let served_total = c(names::SERVER_SERVED);
        // Rate-cap sheds are counted in `server.overloaded` too.
        let shed_total = c(names::SERVER_OVERLOADED);
        let base = prev.entry(addr.clone()).or_default();
        let served = served_total.saturating_sub(base.served);
        let shed = shed_total.saturating_sub(base.shed);
        (base.served, base.shed) = (served_total, shed_total);
        let service_time = m
            .histograms
            .get(names::SERVER_SERVICE_TIME_US)
            .cloned()
            .unwrap_or_default();
        let frames = &mut base.service_time;
        let age = |at: &Instant| now.saturating_duration_since(*at);
        while frames
            .front()
            .is_some_and(|(at, _)| age(at) > TOP_LONG_WINDOW)
        {
            frames.pop_front();
        }
        let since = |window: Duration| {
            let held = frames.iter().rev().find(|(at, _)| age(at) >= window);
            match held.or(frames.front()) {
                Some((_, earlier)) => service_time.sub(earlier),
                None => service_time.clone(),
            }
        };
        let (short, long) = (since(TOP_SHORT_WINDOW), since(TOP_LONG_WINDOW));
        let cell = |window: &cbes_obs::HistogramSnapshot, quantile: u64| {
            if window.is_empty() {
                "-".to_string()
            } else {
                quantile.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{addr:<21} {served:>7} {shed:>7} {:>10} {:>10} {:>10} {:>11} {:>7}",
            cell(&short, short.p50()),
            cell(&short, short.p99()),
            cell(&long, long.p99()),
            format!("{}/{}", m.spans_buffered, m.spans_dropped),
            c(names::FLIGHT_EVENTS),
        );
        frames.push_back((now, service_time));
    }
    out
}

/// `cbes top <addr>.. [--addr A].. [--iterations N] [--interval-ms N]`
/// — a live tier view: every interval, poll each endpoint's cumulative
/// metrics snapshot and render per-frame request/shed deltas and
/// 10 s / 60 s latency quantiles by subtracting the snapshots of
/// earlier frames. Intermediate frames stream to stdout; the final
/// frame is the returned output.
pub fn top(parsed: &Parsed) -> Result<String, CliError> {
    let mut addrs: Vec<&str> = parsed.positional.iter().map(String::as_str).collect();
    addrs.extend(parsed.get_all("addr").iter().map(String::as_str));
    if addrs.is_empty() {
        return Err(CliError::usage(
            "`top` needs at least one daemon address (positional or --addr)",
        ));
    }
    let iterations = parsed.get_parsed("iterations", 5usize)?;
    if iterations == 0 {
        return Err(CliError::usage("--iterations must be at least 1"));
    }
    let interval = std::time::Duration::from_millis(parsed.get_parsed("interval-ms", 1000u64)?);
    let mut last = String::new();
    let mut totals = TopTotals::new();
    for frame in 0..iterations {
        let mut rows = Vec::new();
        for addr in &addrs {
            // A dead endpoint is a row, not a session abort: restarts
            // mid-session are exactly when an operator watches `top`.
            let snap = connect(parsed, addr)
                .and_then(|mut c| c.metrics().map_err(client_err))
                .ok();
            rows.push((addr.to_string(), snap));
        }
        last = format!(
            "cbes top — frame {}/{iterations}, {} endpoint(s)\n{}",
            frame + 1,
            addrs.len(),
            top_frame(&rows, &mut totals, Instant::now())
        );
        if frame + 1 < iterations {
            println!("{last}");
            std::thread::sleep(interval);
        }
    }
    Ok(last)
}

/// The `cbes request` verb of an action, as usage shows it: the row's
/// alias if it has one, else its name with `_` as `-`.
fn verb_of(spec: &ActionSpec) -> String {
    spec.alias
        .map_or_else(|| spec.name.replace('_', "-"), str::to_string)
}

/// Every `cbes request` verb, in protocol order, for usage messages.
fn verb_list() -> String {
    let verbs: Vec<String> = ACTIONS.iter().map(verb_of).collect();
    verbs.join(" | ")
}

/// `--nodes N --load NODE=AVAIL,..` as a full sweep over an otherwise
/// idle `N`-node cluster.
fn sweep_from(parsed: &Parsed, nodes: usize) -> Result<LoadState, CliError> {
    let mut load = LoadState::idle(nodes);
    for (node, avail) in parse_load_list(parsed.require("load")?)? {
        if node.index() >= nodes {
            return Err(CliError::usage(format!(
                "load entry {node} is outside the {nodes}-node cluster"
            )));
        }
        load.set_cpu_avail(node, avail);
    }
    Ok(load)
}

/// `--silent 3,5,..`: the node ids that did not report (none by default).
fn silent_from(parsed: &Parsed) -> Result<Vec<u32>, CliError> {
    match parsed.get("silent") {
        None => Ok(vec![]),
        Some(spec) => Ok(parse_node_list(spec)?.into_iter().map(|n| n.0).collect()),
    }
}

/// Build the request a `cbes request` verb and its flags describe. The
/// verb is looked up in the protocol's action table — the derived verb
/// and the row's alias both parse — and the match over [`Action`] is
/// exhaustive, so an action cannot exist without a way to send it.
fn request_from_args(verb: &str, parsed: &Parsed) -> Result<Request, CliError> {
    let named =
        |spec: &&ActionSpec| spec.alias == Some(verb) || spec.name.replace('_', "-") == verb;
    let spec = ACTIONS.iter().find(named).ok_or_else(|| {
        CliError::usage(format!(
            "unknown request action `{verb}` (want {})",
            verb_list()
        ))
    })?;
    let app = || parsed.require("app").map(str::to_string);
    let mappings = || parse_mapping_list(parsed.require("mappings")?);
    let nodes = || {
        let nodes = parsed.get_parsed("nodes", 0usize)?;
        if nodes == 0 {
            return Err(CliError::usage(format!(
                "`{verb}` requires --nodes (cluster size)"
            )));
        }
        Ok(nodes)
    };
    Ok(match spec.action {
        Action::RegisterProfile => Request::RegisterProfile {
            profile: read_profile(parsed.require("profile")?)?,
        },
        Action::Compare => Request::Compare {
            app: app()?,
            mappings: mappings()?,
        },
        Action::BestOf => Request::BestOf {
            app: app()?,
            mappings: mappings()?,
        },
        Action::Batch => Request::Batch {
            app: app()?,
            mappings: mappings()?,
        },
        Action::Schedule => Request::Schedule {
            app: app()?,
            pool: parse_node_list(parsed.require("pool")?)?
                .into_iter()
                .map(|n| n.0)
                .collect(),
            iters: parsed.get_parsed("iters", 0u32)?,
            seed: parsed.get_parsed("seed", 42u64)?,
        },
        Action::ObserveLoad => Request::ObserveLoad {
            load: sweep_from(parsed, nodes()?)?,
        },
        Action::ObservePartial => Request::ObservePartial {
            load: sweep_from(parsed, nodes()?)?,
            silent: silent_from(parsed)?,
        },
        Action::Stats => Request::Stats,
        Action::Metrics => Request::Metrics,
        Action::Shutdown => Request::Shutdown,
        Action::Route => Request::Route {
            cluster: parsed.get("cluster").unwrap_or("default").to_string(),
            app: app()?,
        },
        Action::Replicate => {
            let epoch = parsed.get_parsed("epoch", 0u64)?;
            let nodes = parsed.get_parsed("nodes", 0usize)?;
            if epoch == 0 || nodes == 0 {
                return Err(CliError::usage(
                    "`replicate` requires --epoch (≥ 1) and --nodes (cluster size)",
                ));
            }
            Request::Replicate {
                epoch,
                load: sweep_from(parsed, nodes)?,
                silent: silent_from(parsed)?,
            }
        }
        Action::Membership => Request::Membership,
        Action::Trace => match parsed.get_parsed("trace-id", 0u64)? {
            0 => {
                return Err(CliError::usage(
                    "`trace` requires --trace-id N (the nonzero id the traced \
                     request was stamped with)",
                ))
            }
            trace_id => Request::Trace { trace_id },
        },
        Action::DumpFlight => Request::DumpFlight,
        Action::Stage => Request::Stage {
            kind: parsed.require("kind")?.to_string(),
            payload: artifact_payload(parsed)?,
        },
        Action::Apply => Request::Apply,
        Action::Accept => Request::Accept,
        Action::Rollback => Request::Rollback {
            reason: rollback_reason(parsed).to_string(),
        },
        Action::ArtifactStatus => Request::ArtifactStatus,
    })
}

/// `--reason R` of a rollback, with the operator default.
fn rollback_reason(parsed: &Parsed) -> &str {
    parsed.get("reason").unwrap_or("operator rollback")
}

/// Render the reply to a `cbes request`. What a line echoes of the
/// request (the mappings beside their predictions, the staged kind)
/// is read back from the flags that built it.
fn render_reply(
    action: Action,
    addr: &str,
    parsed: &Parsed,
    response: Response,
) -> Result<String, CliError> {
    let mut out = String::new();
    match response {
        Response::Stats { stats } => out.push_str(&stats_table(&stats)),
        Response::Metrics { metrics } => {
            out.push_str(&metrics.to_json());
            out.push('\n');
        }
        Response::ShuttingDown => {
            let _ = writeln!(out, "daemon at {addr} is draining");
        }
        Response::Registered { app, procs } => {
            let _ = writeln!(out, "registered `{app}` ({procs} processes)");
        }
        Response::Predictions { epoch, predictions } => {
            let mappings = parse_mapping_list(parsed.require("mappings")?)?;
            let _ = writeln!(out, "epoch {epoch}:");
            for (m, p) in mappings.iter().zip(&predictions) {
                let _ = writeln!(out, "  {m}: {:.4} s (bottleneck r{})", p.time, p.bottleneck);
            }
        }
        Response::Best {
            epoch,
            index,
            prediction,
        } => {
            let mappings = parse_mapping_list(parsed.require("mappings")?)?;
            let n = mappings.len();
            let best = mappings.get(index).ok_or_else(|| {
                CliError::Transport(format!("reply names candidate #{index} of {n}"))
            })?;
            let _ = writeln!(
                out,
                "epoch {epoch}: best is #{index} {best}: {:.4} s",
                prediction.time
            );
        }
        Response::Scheduled {
            epoch,
            mapping,
            predicted_time,
            ..
        } => {
            let _ = writeln!(
                out,
                "epoch {epoch}: {mapping} predicted {predicted_time:.4} s"
            );
        }
        Response::LoadObserved { epoch } => {
            let _ = writeln!(out, "observed; epoch is now {epoch}");
        }
        Response::Routed {
            hash,
            primary,
            replicas,
        } => {
            let cluster = parsed.get("cluster").unwrap_or("default");
            let app = parsed.require("app")?;
            let _ = writeln!(
                out,
                "key ({cluster}, {app}) hashes to {hash:#018x}; primary is \
                 instance {} at {} ({})",
                primary.index, primary.addr, primary.health
            );
            for r in &replicas {
                let _ = writeln!(
                    out,
                    "  replica: instance {} at {} ({})",
                    r.index, r.addr, r.health
                );
            }
        }
        Response::Replicated {
            epoch: now,
            applied,
        } => {
            let epoch = parsed.get_parsed("epoch", 0u64)?;
            let verb = if applied { "adopted" } else { "already had" };
            let _ = writeln!(out, "instance {verb} epoch {epoch}; its epoch is now {now}");
        }
        Response::Membership { membership } => out.push_str(&membership_table(&membership)),
        Response::Traces { trace_id, spans } => out.push_str(&trace_table(trace_id, &spans)),
        Response::FlightDumped { path, events } => {
            let _ = writeln!(out, "flight recorder dumped {events} event(s) to {path}");
        }
        Response::ArtifactAck {
            version,
            state,
            epoch,
        } => {
            let _ = match action {
                Action::Stage => {
                    let kind = parsed.require("kind")?;
                    writeln!(out, "artifact v{version} {state} ({kind})")
                }
                Action::Accept => writeln!(out, "artifact v{version} {state}"),
                _ => writeln!(out, "artifact v{version} {state} (epoch {epoch})"),
            };
        }
        Response::ArtifactStatus { status } => out.push_str(&artifact_status_table(&status)),
        Response::Error { kind, message, .. } => return Err(CliError::Server { kind, message }),
    }
    Ok(out)
}

/// `cbes request <addr> <action>` — issue one request to a running
/// daemon and print the reply.
pub fn request(parsed: &Parsed) -> Result<String, CliError> {
    let addr = parsed
        .positional0()
        .map_err(|_| CliError::usage("`request` needs a daemon address (HOST:PORT)"))?;
    let verb = parsed
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| CliError::usage(format!("`request` needs an action ({})", verb_list())))?;
    let request = request_from_args(verb, parsed)?;
    let action = request.kind();
    // `--trace-id N` roots this invocation in trace N: the guard makes
    // the trace context current, so the client stamps it onto the
    // outgoing envelope and every hop downstream joins the same trace.
    let trace_id = parsed.get_parsed("trace-id", 0u64)?;
    // The span only has to make the context current; its ring is local.
    let ring = cbes_obs::SpanRing::new(1);
    let _span = (trace_id != 0 && action != Action::Trace)
        .then(|| ring.span_rooted(cbes_obs::names::SPAN_CLI_REQUEST, trace_id, 0));
    let response = connect(parsed, addr)?.call(&request).map_err(client_err)?;
    render_reply(action, addr, parsed, response)
}

/// The artifact payload for `stage`: inline `--payload JSON` or
/// `--payload-file FILE`.
fn artifact_payload(parsed: &Parsed) -> Result<String, CliError> {
    match (parsed.get("payload"), parsed.get("payload-file")) {
        (Some(inline), None) => Ok(inline.to_string()),
        (None, Some(path)) => Ok(std::fs::read_to_string(path)?),
        _ => Err(CliError::usage(
            "staging needs exactly one of --payload JSON or --payload-file FILE",
        )),
    }
}

/// Render a tier-wide artifact status: one block per instance with its
/// staged/soaking/active versions and lifecycle history.
fn artifact_status_table(status: &cbes_reconfig::StatusReport) -> String {
    let mut out = String::new();
    for i in &status.instances {
        if !i.reconfigurable {
            let _ = writeln!(out, "{}: not reconfigurable (no --state-dir)", i.addr);
            continue;
        }
        let s = &i.status;
        let fmt = |a: &Option<cbes_reconfig::ArtifactSummary>| {
            a.as_ref()
                .map(|a| format!("v{} ({})", a.version, a.kind))
                .unwrap_or_else(|| "none".to_string())
        };
        let soaking = s
            .soaking
            .as_ref()
            .map(|s| format!("v{} ({}, falls back to v{})", s.version, s.kind, s.previous))
            .unwrap_or_else(|| "none".to_string());
        let _ = writeln!(
            out,
            "{}: active {}, soaking {soaking}, staged {}, {} journal record(s)",
            i.addr,
            fmt(&s.active),
            fmt(&s.staged),
            s.journal_records
        );
        if let Some(r) = &s.last_rollback {
            let _ = writeln!(
                out,
                "  last rollback: v{} ({}) — {}",
                r.version,
                if r.auto { "auto" } else { "operator" },
                r.reason
            );
        }
        if let Some(fault) = &s.journal_fault {
            let _ = writeln!(out, "  refusing transitions until restarted: {fault}");
        }
    }
    out
}

/// `cbes artifact <stage|apply|accept|rollback|status|list> <addr>` —
/// drive the live-reconfiguration lifecycle of a daemon or, pointed at
/// a router, of the whole tier (stage/apply/accept/rollback broadcast;
/// status merges one row per instance).
pub fn artifact(parsed: &Parsed) -> Result<String, CliError> {
    let sub = parsed.positional0().map_err(|_| {
        CliError::usage(
            "`artifact` needs a subcommand (stage | apply | accept | rollback | status | list)",
        )
    })?;
    let addr = parsed
        .positional
        .get(1)
        .map(String::as_str)
        .ok_or_else(|| {
            CliError::usage(format!("`artifact {sub}` needs a daemon or router address"))
        })?;
    // The lifecycle verbs are `cbes request`'s; `status` and `list` are
    // two renderings of the same read.
    let verb = match sub {
        "stage" | "apply" | "accept" | "rollback" => sub,
        "status" | "list" => "artifact-status",
        other => {
            return Err(CliError::usage(format!(
                "unknown artifact subcommand `{other}` \
                 (want stage | apply | accept | rollback | status | list)"
            )))
        }
    };
    let request = request_from_args(verb, parsed)?;
    let response = connect(parsed, addr)?.call(&request).map_err(client_err)?;
    let mut out = String::new();
    match response {
        Response::ArtifactAck {
            version,
            state,
            epoch,
        } => match sub {
            "stage" => {
                let kind = parsed.require("kind")?;
                let _ = writeln!(out, "staged artifact v{version} ({kind}): {state}");
                let _ = writeln!(out, "next: cbes artifact apply {addr}");
            }
            "apply" => {
                let _ = writeln!(
                    out,
                    "artifact v{version} is {state} at epoch {epoch} — accept it once the \
                     soak looks healthy, or roll back"
                );
            }
            "accept" => {
                let _ = writeln!(out, "artifact v{version} is {state}");
            }
            _ => {
                let reason = rollback_reason(parsed);
                let _ = writeln!(
                    out,
                    "artifact v{version} {state} at epoch {epoch}: {reason}"
                );
            }
        },
        Response::ArtifactStatus { status } if sub == "list" => {
            for i in &status.instances {
                let _ = writeln!(out, "{}:", i.addr);
                if i.status.artifacts.is_empty() {
                    let _ = writeln!(out, "  (no artifacts staged)");
                }
                for a in &i.status.artifacts {
                    let _ = writeln!(out, "  v{:<4} {:<16} {}", a.version, a.kind, a.state);
                }
            }
        }
        Response::ArtifactStatus { status } => out.push_str(&artifact_status_table(&status)),
        other => {
            return Err(CliError::Transport(format!(
                "unexpected reply to `artifact {sub}`: {other:?}"
            )))
        }
    }
    Ok(out)
}

/// Render a merged trace: one row per span, indented under its parent
/// when the parent is part of the same trace, offsets relative to the
/// earliest span.
fn trace_table(trace_id: u64, spans: &[cbes_server::protocol::SpanSnapshot]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "trace {trace_id:#018x}: {} span(s)", spans.len());
    if spans.is_empty() {
        let _ = writeln!(
            out,
            "  (no spans retained — the trace may have been evicted, or the \
             request was not stamped with --trace-id)"
        );
        return out;
    }
    let t0 = spans.iter().map(|s| s.start_us).min().unwrap_or(0);
    let depth_of = |span: &cbes_server::protocol::SpanSnapshot| {
        // Walk the parent chain within this trace; cap the walk so a
        // cross-process id collision cannot loop.
        let mut depth = 0usize;
        let mut parent = span.parent;
        while parent != 0 && depth < 8 {
            match spans.iter().find(|s| s.id == parent) {
                Some(p) => {
                    depth += 1;
                    parent = p.parent;
                }
                None => break,
            }
        }
        depth
    };
    for s in spans {
        let _ = writeln!(
            out,
            "  {:indent$}{:<24} t+{:>8} us  dur {:>8} us  id {:#018x}",
            "",
            s.name,
            s.start_us.saturating_sub(t0),
            s.dur_us,
            s.id,
            indent = depth_of(s) * 2
        );
    }
    out
}

/// Render a tier membership report: the header line, then one row per
/// instance.
fn membership_table(report: &cbes_server::protocol::MembershipReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "tier `{}`: {} instances, leader {}, max epoch {}, replication lag {}",
        report.cluster,
        report.instances.len(),
        report
            .leader
            .map(|i| i.to_string())
            .unwrap_or_else(|| "none".to_string()),
        report.max_epoch,
        report.replication_lag
    );
    let _ = writeln!(
        out,
        "{} heartbeat sweeps, {} health transitions",
        report.heartbeats, report.transitions
    );
    for i in &report.instances {
        let _ = writeln!(
            out,
            "  #{} {:<21} {:<8} epoch {:<6} routed {:<6} forwarded {:<6} failed-over {}{}",
            i.index,
            i.addr,
            i.health,
            i.epoch,
            i.routed,
            i.forwarded,
            i.failed_over,
            if i.leader { "  [leader]" } else { "" }
        );
    }
    out
}

/// `cbes route <serve|status|where>` — run or inspect the scale-out
/// routing tier.
///
/// * `serve` boots a router over a static seed list (repeated
///   `--instance HOST:PORT` and/or comma-separated `--instances`) and
///   blocks until a wire-level shutdown drains the tier.
/// * `status <addr>` renders a running router's membership report.
/// * `where <addr> --app NAME [--cluster NAME]` asks a router which
///   instance owns a routing key.
pub fn route(parsed: &Parsed) -> Result<String, CliError> {
    let sub = parsed
        .positional0()
        .map_err(|_| CliError::usage("`route` needs a subcommand (serve | status | where)"))?;
    match sub {
        "serve" => route_serve(parsed),
        "status" | "where" => {
            let addr = parsed
                .positional
                .get(1)
                .map(String::as_str)
                .ok_or_else(|| {
                    CliError::usage(format!("`route {sub}` needs the router address"))
                })?;
            let verb = if sub == "status" {
                "membership"
            } else {
                "route"
            };
            let request = request_from_args(verb, parsed)?;
            match connect(parsed, addr)?.call(&request).map_err(client_err)? {
                Response::Membership { membership } => Ok(membership_table(&membership)),
                Response::Routed {
                    hash,
                    primary,
                    replicas,
                } => {
                    let cluster = parsed.get("cluster").unwrap_or("default");
                    let app = parsed.require("app")?;
                    let mut out = String::new();
                    let _ = writeln!(
                        out,
                        "({cluster}, {app}) -> {hash:#018x} -> instance {} at {}",
                        primary.index, primary.addr
                    );
                    for r in &replicas {
                        let _ = writeln!(out, "  replica: instance {} at {}", r.index, r.addr);
                    }
                    Ok(out)
                }
                other => Err(CliError::Transport(format!(
                    "unexpected reply to `route {sub}`: {other:?}"
                ))),
            }
        }
        other => Err(CliError::usage(format!(
            "unknown route subcommand `{other}` (want serve | status | where)"
        ))),
    }
}

/// `cbes route serve` — boot the routing front-tier and block until it
/// drains.
fn route_serve(parsed: &Parsed) -> Result<String, CliError> {
    let mut seeds: Vec<String> = parsed.get_all("instance").to_vec();
    if let Some(list) = parsed.get("instances") {
        seeds.extend(list.split(',').map(|s| s.trim().to_string()));
    }
    seeds.retain(|s| !s.is_empty());
    if seeds.is_empty() {
        return Err(CliError::usage(
            "`route serve` needs at least one seed (--instance HOST:PORT, \
             or --instances A,B,..)",
        ));
    }
    let membership = cbes_router::MembershipConfig {
        cluster: parsed.get("cluster").unwrap_or("default").to_string(),
        heartbeat: std::time::Duration::from_millis(parsed.get_parsed("heartbeat-ms", 250u64)?),
        probe_timeout: std::time::Duration::from_millis(
            parsed.get_parsed("probe-timeout-ms", 500u64)?,
        ),
        policy: cbes_core::HealthPolicy {
            suspect_after: parsed.get_parsed("suspect-after", 1u64)?,
            down_after: parsed.get_parsed("down-after", 3u64)?,
            ..cbes_core::HealthPolicy::default()
        },
        replicas: parsed.get_parsed("replicas", 1usize)?,
    };
    let cluster = membership.cluster.clone();
    let instances = seeds.len();
    let handle = cbes_router::RouterServer::start(cbes_router::TierConfig {
        addr: parsed.get("addr").unwrap_or("127.0.0.1:9078").to_string(),
        seeds,
        membership,
    })?;
    let addr = handle.addr();
    eprintln!("cbes-router: routing `{cluster}` over {instances} instances on {addr}");
    if let Some(path) = parsed.get("addr-file") {
        std::fs::write(path, addr.to_string())?;
    }
    let table = handle.membership().clone();
    handle.join();
    let report = table.report();
    Ok(format!(
        "cbes-router on {addr} drained: {} heartbeat sweeps, {} health transitions\n",
        report.heartbeats, report.transitions
    ))
}

/// Parse a semicolon-separated list of comma-separated mappings,
/// e.g. `"0,1;4,5"`.
fn parse_mapping_list(s: &str) -> Result<Vec<Mapping>, CliError> {
    s.split(';')
        .map(|m| parse_node_list(m).map(Mapping::new))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(v: &[&str]) -> Parsed {
        Parsed::parse(v.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn preset_lookup() {
        assert!(preset("centurion").is_ok());
        assert!(preset("orange-grove").is_ok());
        assert!(preset("grove").is_ok());
        assert!(preset("nope").is_err());
    }

    #[test]
    fn cluster_command_reports_architectures() {
        let out = cluster(&parsed(&["cluster", "orange-grove"])).unwrap();
        assert!(out.contains("28 nodes"));
        assert!(out.contains("Alpha"));
        assert!(out.contains("SPARC"));
        assert!(out.contains("latency spread"));
    }

    #[test]
    fn topology_emits_dot() {
        let out = topology(&parsed(&["topology", "demo"])).unwrap();
        assert!(out.starts_with("graph"));
        assert!(out.contains("sw0 -- sw1") || out.contains("sw1 -- sw0"));
    }

    #[test]
    fn custom_cluster_spec_file_is_accepted() {
        let dir = std::env::temp_dir().join(format!("cbes-spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("my.json");
        let ps = path.to_str().unwrap().to_string();
        export_cluster(&parsed(&["export-cluster", "demo", "--out", &ps])).unwrap();
        let out = cluster(&parsed(&["cluster", &ps])).unwrap();
        assert!(out.contains("8 nodes"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn calibrate_reports_clique_rounds() {
        let out = calibrate(&parsed(&["calibrate", "demo"])).unwrap();
        assert!(out.contains("clique rounds"), "{out}");
    }

    #[test]
    fn workload_from_validates_class_and_name() {
        assert!(workload_from(&parsed(&["profile", "demo", "--workload", "lu"])).is_ok());
        assert!(workload_from(&parsed(&[
            "profile",
            "demo",
            "--workload",
            "lu",
            "--class",
            "Q"
        ]))
        .is_err());
        assert!(workload_from(&parsed(&["profile", "demo", "--workload", "zz"])).is_err());
    }

    #[test]
    fn simulate_fills_ranks_from_mapping() {
        let out = simulate(&parsed(&[
            "simulate",
            "demo",
            "--workload",
            "cg",
            "--class",
            "S",
            "--mapping",
            "0,1,2,3,4,5",
        ]))
        .unwrap();
        assert!(out.contains("cg.S.6"), "{out}");
    }

    #[test]
    fn every_action_has_a_request_verb_that_builds_it() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-verbs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ps = dir.join("p.json").to_str().unwrap().to_string();
        let ranks = ["--workload", "ep", "--class", "S", "--ranks", "2"];
        profile(&parsed(
            &[&["profile", "demo", "--out", &ps], &ranks[..]].concat(),
        ))
        .unwrap();
        let candidates = ["--app", "ep.S.2", "--mappings", "0,1;4,5"];
        let sweep = ["--nodes", "8", "--load", "0=0.3"];
        for spec in ACTIONS {
            // Exhaustive, like `request_from_args`: a new action needs
            // its flags here before this compiles.
            let flags: &[&str] = match spec.action {
                Action::RegisterProfile => &["--profile", &ps],
                Action::Compare | Action::BestOf | Action::Batch => &candidates,
                Action::Schedule => &["--app", "ep.S.2", "--pool", "0,1,2,3"],
                Action::ObserveLoad => &sweep,
                Action::ObservePartial => &["--nodes", "8", "--load", "0=0.3", "--silent", "7"],
                Action::Route => &["--app", "ep.S.2"],
                Action::Replicate => &["--epoch", "3", "--nodes", "8", "--load", "0=0.3"],
                Action::Trace => &["--trace-id", "77"],
                Action::Stage => &["--kind", "serving_limits", "--payload", "{}"],
                Action::Rollback => &["--reason", "because"],
                Action::Stats
                | Action::Metrics
                | Action::Shutdown
                | Action::Membership
                | Action::DumpFlight
                | Action::Apply
                | Action::Accept
                | Action::ArtifactStatus => &[],
            };
            let derived = spec.name.replace('_', "-");
            let mut verbs = vec![derived.as_str()];
            verbs.extend(spec.alias);
            assert!(verbs.contains(&verb_of(spec).as_str()));
            assert!(verb_list().contains(&verb_of(spec)), "{}", verb_list());
            for verb in verbs {
                let args = [&["request", "127.0.0.1:1", verb], flags].concat();
                let request = request_from_args(verb, &parsed(&args))
                    .unwrap_or_else(|e| panic!("`{verb}` does not parse: {e}"));
                assert_eq!(request.spec(), spec, "`{verb}` built the wrong action");
                // Without its flags a verb that needs any is a usage error.
                let bare = request_from_args(verb, &parsed(&["request", "127.0.0.1:1", verb]));
                let optional = matches!(spec.action, Action::Rollback);
                assert_eq!(bare.is_ok(), flags.is_empty() || optional, "`{verb}`");
            }
        }
        let err = request_from_args("compare_", &parsed(&["request", "a", "compare_"]))
            .expect_err("not a verb");
        assert_eq!(err.exit_code(), 2);
        for spec in ACTIONS {
            assert!(err.to_string().contains(&verb_of(spec)), "{err}");
        }
        // No action at all lists the same verbs.
        let err = request(&parsed(&["request", "127.0.0.1:1"])).expect_err("no action");
        assert!(err.to_string().contains(&verb_list()), "{err}");
        // No address either asks for one, not for a cluster preset.
        let err = request(&parsed(&["request"])).expect_err("no address");
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("daemon address"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_and_request_round_trip() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let af = addr_file.to_str().unwrap().to_string();
        let profile_path = dir.join("p.json");
        let ps = profile_path.to_str().unwrap().to_string();
        profile(&parsed(&[
            "profile",
            "demo",
            "--workload",
            "ep",
            "--class",
            "S",
            "--ranks",
            "2",
            "--out",
            &ps,
        ]))
        .unwrap();

        let server = std::thread::spawn(move || {
            serve(&parsed(&[
                "serve",
                "demo",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--addr-file",
                &af,
            ]))
        });
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let out = request(&parsed(&["request", &addr, "register", "--profile", &ps])).unwrap();
        assert!(out.contains("registered"), "{out}");
        let out = request(&parsed(&[
            "request",
            &addr,
            "compare",
            "--app",
            "ep.S.2",
            "--mappings",
            "0,1;0,4",
        ]))
        .unwrap();
        assert!(out.contains("epoch 0"), "{out}");
        let out = request(&parsed(&[
            "request",
            &addr,
            "batch",
            "--app",
            "ep.S.2",
            "--mappings",
            "0,1;0,4;2,3",
        ]))
        .unwrap();
        assert!(out.contains("epoch 0"), "{out}");
        assert_eq!(out.matches("bottleneck").count(), 3, "{out}");
        let out = request(&parsed(&[
            "request", &addr, "observe", "--nodes", "8", "--load", "0=0.5",
        ]))
        .unwrap();
        assert!(out.contains("epoch is now 1"), "{out}");
        let out = request(&parsed(&["request", &addr, "stats", "--timeout", "5"])).unwrap();
        assert!(out.contains("epoch  1"), "{out}");
        assert!(out.contains("profiles  1"), "{out}");
        assert!(out.contains("served: compare  1"), "{out}");
        assert!(out.contains("uptime"), "{out}");
        let out = metrics(&parsed(&["metrics", &addr])).unwrap();
        assert!(out.contains("server.service_time_us"), "{out}");
        assert!(out.contains("server.action.compare  1"), "{out}");
        let out = metrics(&parsed(&["metrics", &addr, "--format", "json"])).unwrap();
        assert!(out.contains("\"server.queue_wait_us\""), "{out}");

        // A traced request leaves connected spans behind in the daemon's
        // one ring: the action span and the evaluation beneath it, on the
        // trace id the CLI's root span made current.
        let out = request(&parsed(&[
            "request",
            &addr,
            "compare",
            "--app",
            "ep.S.2",
            "--mappings",
            "0,1",
            "--trace-id",
            "7701",
        ]))
        .unwrap();
        assert!(out.contains("epoch"), "{out}");
        let out = request(&parsed(&["request", &addr, "trace", "--trace-id", "7701"])).unwrap();
        assert!(out.contains("2 span(s)"), "{out}");
        assert!(out.contains("compare"), "{out}");
        assert!(out.contains("core.evaluate_mapping"), "{out}");
        // Untraced requests never join a trace.
        let out = request(&parsed(&[
            "request",
            &addr,
            "trace",
            "--trace-id",
            "424242",
        ]))
        .unwrap();
        assert!(out.contains("0 span(s)"), "{out}");
        let err =
            request(&parsed(&["request", &addr, "trace"])).expect_err("trace needs --trace-id");
        assert!(err.to_string().contains("--trace-id"), "{err}");

        // The flight recorder dumps on demand.
        let out = request(&parsed(&["request", &addr, "dump-flight"])).unwrap();
        assert!(out.contains("flight recorder dumped"), "{out}");

        // One `top` frame renders a row for the endpoint.
        let out = top(&parsed(&["top", &addr, "--iterations", "1"])).unwrap();
        assert!(out.contains("endpoint"), "{out}");
        assert!(out.contains(&addr), "{out}");

        let out = request(&parsed(&["request", &addr, "shutdown"])).unwrap();
        assert!(out.contains("draining"), "{out}");

        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("drained"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn route_tier_round_trip() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-route-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wait_addr = |path: &std::path::Path| loop {
            if let Ok(a) = std::fs::read_to_string(path) {
                if !a.is_empty() {
                    break a;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        // Two daemon instances on free ports.
        let mut daemons = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..2 {
            let af = dir.join(format!("addr-{i}"));
            let afs = af.to_str().unwrap().to_string();
            daemons.push(std::thread::spawn(move || {
                serve(&parsed(&[
                    "serve",
                    "demo",
                    "--addr",
                    "127.0.0.1:0",
                    "--workers",
                    "2",
                    "--addr-file",
                    &afs,
                ]))
            }));
            addrs.push(wait_addr(&af));
        }

        // The router in front of them.
        let rf = dir.join("router-addr");
        let rfs = rf.to_str().unwrap().to_string();
        let (a0, a1) = (addrs[0].clone(), addrs[1].clone());
        let router = std::thread::spawn(move || {
            route(&parsed(&[
                "route",
                "serve",
                "--instance",
                &a0,
                "--instance",
                &a1,
                "--cluster",
                "demo",
                "--addr",
                "127.0.0.1:0",
                "--addr-file",
                &rfs,
                "--heartbeat-ms",
                "25",
            ]))
        });
        let raddr = wait_addr(&rf);

        // Wait until a heartbeat sweep marks both instances healthy.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let status = route(&parsed(&["route", "status", &raddr])).unwrap();
            if status.matches("healthy").count() == 2 {
                assert!(status.contains("tier `demo`"), "{status}");
                assert!(status.contains("[leader]"), "{status}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "tier never healthy: {status}"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        // Placement answers come from the router's own ring.
        let out = route(&parsed(&[
            "route",
            "where",
            &raddr,
            "--app",
            "lu.A.8",
            "--cluster",
            "demo",
        ]))
        .unwrap();
        assert!(out.contains("instance"), "{out}");

        // The membership request action renders the same report.
        let out = request(&parsed(&["request", &raddr, "membership"])).unwrap();
        assert!(out.contains("tier `demo`"), "{out}");

        // Multi-address metrics merge into one tier-wide report.
        let out = metrics(&parsed(&["metrics", &addrs[0], "--addr", &addrs[1]])).unwrap();
        assert!(out.contains("merged 2 instances"), "{out}");
        assert!(out.contains("server.served"), "{out}");

        // Shutdown through the router drains daemons and router alike.
        let out = request(&parsed(&["request", &raddr, "shutdown"])).unwrap();
        assert!(out.contains("draining"), "{out}");
        for d in daemons {
            let summary = d.join().unwrap().unwrap();
            assert!(summary.contains("drained"), "{summary}");
        }
        let summary = router.join().unwrap().unwrap();
        assert!(summary.contains("cbes-router"), "{summary}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn artifact_lifecycle_round_trip() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-artifact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let addr_file = dir.join("addr");
        let af = addr_file.to_str().unwrap().to_string();
        let state = dir.join("state").to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            serve(&parsed(&[
                "serve",
                "demo",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--addr-file",
                &af,
                "--state-dir",
                &state,
            ]))
        });
        let addr = loop {
            if let Ok(a) = std::fs::read_to_string(&addr_file) {
                if !a.is_empty() {
                    break a;
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let limits_file = dir.join("limits.json");
        std::fs::write(
            &limits_file,
            r#"{"max_rps": 80.0, "shed_retry_after_ms": 5}"#,
        )
        .unwrap();
        let lf = limits_file.to_str().unwrap().to_string();
        let out = artifact(&parsed(&[
            "artifact",
            "stage",
            &addr,
            "--kind",
            "serving_limits",
            "--payload-file",
            &lf,
        ]))
        .unwrap();
        assert!(out.contains("staged artifact v1"), "{out}");
        let out = artifact(&parsed(&["artifact", "apply", &addr])).unwrap();
        assert!(out.contains("soaking"), "{out}");
        let out = artifact(&parsed(&["artifact", "status", &addr])).unwrap();
        assert!(out.contains("soaking v1"), "{out}");
        let out = artifact(&parsed(&["artifact", "accept", &addr])).unwrap();
        assert!(out.contains("v1 is active"), "{out}");
        let out = artifact(&parsed(&["artifact", "list", &addr])).unwrap();
        assert!(out.contains("serving_limits"), "{out}");
        assert!(out.contains("active"), "{out}");
        // The generic request path speaks the same verbs.
        let out = request(&parsed(&["request", &addr, "artifact-status"])).unwrap();
        assert!(out.contains("active v1"), "{out}");
        // Staging from a bad payload is a server-side validation error.
        let err = artifact(&parsed(&[
            "artifact",
            "stage",
            &addr,
            "--kind",
            "serving_limits",
            "--payload",
            "not json",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        // Missing payload flags are a usage error before any connection.
        let err = artifact(&parsed(&[
            "artifact",
            "stage",
            &addr,
            "--kind",
            "serving_limits",
        ]))
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err}");

        request(&parsed(&["request", &addr, "shutdown"])).unwrap();
        server.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The cells of `addr`'s row in a `cbes top` frame.
    fn top_row<'a>(frame: &'a str, addr: &str) -> Vec<&'a str> {
        let row = frame.lines().find(|l| l.starts_with(addr));
        row.unwrap_or_else(|| panic!("no row for {addr}: {frame}"))
            .split_whitespace()
            .collect()
    }

    #[test]
    fn top_frame_renders_windowed_rates_and_quantiles() {
        let r = cbes_obs::Registry::new();
        r.counter("server.served").add(120);
        // Rate-cap sheds are a subset of `overloaded`, not beside it.
        r.counter("server.overloaded").add(5);
        r.counter("server.rate_limited").add(3);
        for v in [100, 207, 5000] {
            r.histogram("server.service_time_us").record(v);
        }
        let addr = "10.0.0.1:9077".to_string();
        let mut totals = TopTotals::new();
        let rows = vec![(addr.clone(), Some(r.snapshot()))];
        let frame = top_frame(&rows, &mut totals, Instant::now());
        assert!(frame.contains("endpoint"), "{frame}");
        // The first frame has no baseline, so the delta is the total.
        let row = top_row(&frame, &addr);
        assert_eq!(row[1..3], ["120", "5"], "{frame}");
        assert_eq!(row[3..6], ["207", "5000", "5000"], "{frame}");
        // A router's reply carries its daemons' `server.served` and its
        // own `router.routed` for the same requests: counted once.
        let tier = cbes_obs::Registry::new();
        tier.counter("server.served").add(10);
        tier.counter("router.routed").add(10);
        let router = "10.0.0.9:9077".to_string();
        let rows = vec![(router.clone(), Some(tier.snapshot()))];
        let frame = top_frame(&rows, &mut totals, Instant::now());
        assert_eq!(top_row(&frame, &router)[1], "10", "{frame}");
        let err = top(&parsed(&["top"])).unwrap_err();
        assert!(err.to_string().contains("address"), "{err}");
        let err = top(&parsed(&["top", "127.0.0.1:1", "--iterations", "0"])).unwrap_err();
        assert!(err.to_string().contains("--iterations"), "{err}");
    }

    #[test]
    fn top_windows_are_the_current_snapshot_minus_an_earlier_frame() {
        let addr = "10.0.0.1:9077".to_string();
        let mut totals = TopTotals::new();
        let r = cbes_obs::Registry::new();
        let service_time = r.histogram("server.service_time_us");
        let t0 = Instant::now();
        let mut frame_at = |secs: u64| {
            let snap = r.snapshot();
            assert!(!snap.to_json().contains('#'), "one key per instrument");
            let rows = [(addr.clone(), Some(snap))];
            let frame = top_frame(&rows, &mut totals, t0 + Duration::from_secs(secs));
            let quantiles = top_row(&frame, &addr)[3..6].join(" ");
            (quantiles, totals[&addr].service_time.len())
        };
        // One slow request before the session's first frame...
        service_time.record(1 << 20);
        let lifetime = "1048576 1048576 1048576".to_string();
        assert_eq!(frame_at(0), (lifetime, 1), "no baseline yet");
        // ...is outside both windows once that frame is the baseline.
        service_time.record(511);
        assert_eq!(frame_at(11), ("511 511 511".to_string(), 2));
        // At 25 s the newest frame at least 10 s old is the one at 11 s
        // and nothing was recorded since; no frame is 60 s old yet, so
        // that window starts at the oldest one held.
        assert_eq!(frame_at(25), ("- - 511".to_string(), 3));
        service_time.record(12);
        assert_eq!(frame_at(60), ("12 12 511".to_string(), 4));
        // Past 60 s the frame at 0 s is evicted; the window then starts
        // at the 11 s frame, after the 511 µs sample.
        assert_eq!(frame_at(61), ("12 12 12".to_string(), 4));
    }

    #[test]
    fn top_tolerates_restarts_and_dead_endpoints() {
        let addr = "10.0.0.1:9077".to_string();
        let mut totals = TopTotals::new();
        let now = Instant::now();
        // Frame 1: 120 served, two of them timed.
        let r = cbes_obs::Registry::new();
        r.counter("server.served").add(120);
        r.histogram("server.service_time_us").record(40);
        r.histogram("server.service_time_us").record(40);
        top_frame(&[(addr.clone(), Some(r.snapshot()))], &mut totals, now);
        // The endpoint restarts: its instruments reset below the
        // baseline. The deltas must clamp at zero, not underflow.
        let r = cbes_obs::Registry::new();
        r.counter("server.served").add(5);
        r.histogram("server.service_time_us").record(40);
        let frame = top_frame(&[(addr.clone(), Some(r.snapshot()))], &mut totals, now);
        assert_eq!(
            top_row(&frame, &addr)[1..6],
            ["0", "0", "-", "-", "-"],
            "reset instruments must clamp the deltas at zero: {frame}"
        );
        // A frame where the endpoint is unreachable renders a down row
        // and drops the baseline...
        let frame = top_frame(&[(addr.clone(), None)], &mut totals, now);
        assert!(frame.contains("(down)"), "{frame}");
        assert!(totals.is_empty(), "down endpoints lose their baseline");
        // ...so the frame after it comes back starts fresh.
        let r = cbes_obs::Registry::new();
        r.counter("server.served").add(7);
        let frame = top_frame(&[(addr.clone(), Some(r.snapshot()))], &mut totals, now);
        assert_eq!(top_row(&frame, &addr)[1], "7", "{frame}");
        // One dead endpoint must not hide the live one next to it.
        let r = cbes_obs::Registry::new();
        r.counter("server.served").add(9);
        let frame = top_frame(
            &[
                ("10.0.0.2:9077".to_string(), None),
                (addr.clone(), Some(r.snapshot())),
            ],
            &mut totals,
            now,
        );
        assert!(frame.contains("(down)"), "{frame}");
        assert!(frame.contains("10.0.0.1:9077"), "{frame}");
    }

    #[test]
    fn trace_table_indents_children_under_parents() {
        use cbes_server::protocol::SpanSnapshot;
        let spans = vec![
            SpanSnapshot {
                name: "cli.request".to_string(),
                trace: 9,
                id: 1,
                parent: 0,
                start_us: 100,
                dur_us: 900,
            },
            SpanSnapshot {
                name: "compare".to_string(),
                trace: 9,
                id: 2,
                parent: 1,
                start_us: 300,
                dur_us: 500,
            },
        ];
        let out = trace_table(9, &spans);
        assert!(out.contains("2 span(s)"), "{out}");
        assert!(out.contains("cli.request"), "{out}");
        // The child row is indented two spaces deeper and offset from t0.
        assert!(out.contains("\n    compare"), "{out}");
        assert!(out.contains("t+     200 us"), "{out}");
        assert!(trace_table(9, &[]).contains("no spans retained"));
    }

    #[test]
    fn request_times_out_against_an_unresponsive_server() {
        // A listener that never accepts: the connection sits in the
        // kernel backlog, the stats request is written, and the reply
        // never comes. Without an I/O deadline this would hang forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let started = std::time::Instant::now();
        let err = request(&parsed(&["request", &addr, "stats", "--timeout", "0.3"]))
            .expect_err("an unanswered request must fail, not hang");
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "timed out too slowly: {err}"
        );
    }

    #[test]
    fn nonpositive_timeout_is_a_usage_error() {
        // `1e20` s is positive and finite but overflows a `Duration`.
        for secs in ["0", "-1", "1e20"] {
            let args = ["request", "127.0.0.1:1", "stats", "--timeout", secs];
            let err = request(&parsed(&args)).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
            assert!(err.to_string().contains("--timeout"), "{err}");
            let err = metrics(&parsed(&["metrics", "127.0.0.1:1", "--timeout", secs])).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{err}");
        }
    }

    #[test]
    fn a_best_index_past_the_mappings_is_a_transport_error() {
        let args = ["request", "127.0.0.1:1", "best-of", "--mappings", "0,1;2,3"];
        let reply = Response::Best {
            epoch: 0,
            index: 5,
            prediction: cbes_core::eval::Prediction {
                time: 1.0,
                bottleneck: 0,
                per_proc: Vec::new(),
            },
        };
        let err = render_reply(Action::BestOf, "127.0.0.1:1", &parsed(&args), reply).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert!(err.to_string().contains("candidate #5 of 2"), "{err}");
    }

    #[test]
    fn metrics_rejects_unknown_format() {
        let err = metrics(&parsed(&["metrics", "127.0.0.1:1", "--format", "xml"])).unwrap_err();
        assert!(err.to_string().contains("xml"), "{err}");
    }

    #[test]
    fn draining_daemon_reply_maps_to_a_transport_error() {
        // A mid-drain daemon answers with a `shutting_down` server error;
        // scripts must see exit 3 (service unavailable), not exit 4
        // (request rejected) — the same class as a connection refusal.
        let err = client_err(cbes_server::client::ClientError::Server {
            kind: cbes_server::protocol::error_kind::SHUTTING_DOWN.to_string(),
            message: "draining".to_string(),
            retry_after_ms: 0,
        });
        assert!(
            matches!(&err, CliError::Transport(m) if m.contains("draining")),
            "{err:?}"
        );
        assert_eq!(err.exit_code(), 3);
        // Other server errors keep the distinct exit code.
        let err = client_err(cbes_server::client::ClientError::Server {
            kind: cbes_server::protocol::error_kind::SERVICE.to_string(),
            message: "no such app".to_string(),
            retry_after_ms: 0,
        });
        assert_eq!(err.exit_code(), 4);
    }

    #[test]
    fn schedule_rejects_unknown_scheduler() {
        // Write a tiny profile first.
        let dir = std::env::temp_dir().join(format!("cbes-cli-sched-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("p.json");
        let ps = p.to_str().unwrap().to_string();
        profile(&parsed(&[
            "profile",
            "demo",
            "--workload",
            "ep",
            "--class",
            "S",
            "--ranks",
            "4",
            "--out",
            &ps,
        ]))
        .unwrap();
        let err = schedule(&parsed(&[
            "schedule",
            "demo",
            "--profile",
            &ps,
            "--scheduler",
            "quantum",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("quantum"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn predict_rejects_nodes_outside_the_cluster() {
        let dir = std::env::temp_dir().join(format!("cbes-cli-predict-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ps = dir.join("p.json").to_str().unwrap().to_string();
        let argv = |line: String| parsed(&line.split_whitespace().collect::<Vec<_>>());
        profile(&argv(format!(
            "profile demo --workload ep --class S --ranks 4 --out {ps}"
        )))
        .unwrap();
        let run = |mapping: &str| {
            predict(&argv(format!(
                "predict demo --profile {ps} --mapping {mapping}"
            )))
        };
        assert!(run("0,1,2,3").is_ok());
        for mapping in ["0,1,2,999", "4294967295,1,2,3"] {
            let err = run(mapping).expect_err(mapping);
            assert_eq!(err.exit_code(), 2, "{mapping}: {err}");
            assert!(err.to_string().contains("outside the cluster"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
