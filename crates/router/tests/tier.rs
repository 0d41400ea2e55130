//! End-to-end tier tests: real `cbes-server` instances behind the
//! membership table, the routing proxy, and the replication loop.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbes_cluster::load::LoadState;
use cbes_cluster::presets::two_switch_demo;
use cbes_cluster::NodeId;
use cbes_core::health::HealthPolicy;
use cbes_core::mapping::Mapping;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_router::membership::{Membership, MembershipConfig};
use cbes_router::tier::{observe_tier, probe_instances, RouterServer, TierConfig};
use cbes_router::RouterTierHandle;
use cbes_server::protocol::{
    encode, error_kind, route_key_hash, split_id, Action, Request, RequestEnvelope, Response,
    StatsReport, ACTIONS,
};
use cbes_server::{Client, ResponseEnvelope, Server, ServerConfig, ServerHandle};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};

fn profile(name: &str) -> AppProfile {
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
        name: name.to_string(),
        procs: vec![mk(0), mk(1)],
        arch_ratios: BTreeMap::new(),
    }
}

fn start_instance() -> ServerHandle {
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    Server::start(
        service,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("loopback bind succeeds")
}

fn tier_membership(addrs: Vec<String>) -> Arc<Membership> {
    Membership::new(
        addrs,
        MembershipConfig {
            cluster: "demo".to_string(),
            heartbeat: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(500),
            policy: HealthPolicy {
                suspect_after: 1,
                down_after: 3,
                suspect_cost_factor: 1.0,
            },
            replicas: 1,
        },
    )
}

fn mapping(ids: &[u32]) -> Mapping {
    Mapping::new(ids.iter().map(|&i| NodeId(i)).collect())
}

#[test]
fn observations_replicate_from_leader_to_followers() {
    let instances: Vec<ServerHandle> = (0..3).map(|_| start_instance()).collect();
    let addrs: Vec<String> = instances.iter().map(|h| h.addr().to_string()).collect();
    let membership = tier_membership(addrs.clone());
    membership.record_probes(&probe_instances(&membership));

    let n = two_switch_demo().len();
    let mut load = LoadState::idle(n);
    load.set_cpu_avail(NodeId(0), 0.5);
    let epoch = observe_tier(&membership, &load, &[]).expect("leader is up");
    assert_eq!(epoch, 1);
    // Every instance is now at the same epoch: staleness 0.
    for addr in &addrs {
        let mut c = Client::connect_timeout(addr.as_str(), Duration::from_millis(500))
            .expect("instance is up");
        assert_eq!(c.stats().expect("stats answers").epoch, 1);
    }
    membership.record_probes(&probe_instances(&membership));
    assert_eq!(membership.replication_lag(), 0);
    // Sweeps racing the heartbeat: whatever a probe catches mid-push,
    // followers are never seen more than two epochs behind the leader.
    for sweep in 2..=6 {
        let epoch = observe_tier(&membership, &load, &[]).expect("leader is up");
        assert_eq!(epoch, sweep);
        assert!(membership.replication_lag() <= 2);
        membership.record_probes(&probe_instances(&membership));
        assert!(membership.replication_lag() <= 2);
    }

    // Kill the leader: the next sweep goes through a follower, and the
    // epoch line keeps rising from the replicated value.
    let leader = membership.leader().expect("tier has a leader");
    let mut handles: Vec<Option<ServerHandle>> = instances.into_iter().map(Some).collect();
    if let Some(dead) = handles.get_mut(leader).and_then(Option::take) {
        dead.shutdown_and_join();
    }
    for _ in 0..5 {
        membership.record_probes(&probe_instances(&membership));
    }
    let epoch = observe_tier(&membership, &load, &[]).expect("a follower takes over");
    assert_eq!(epoch, 7, "epoch continuity across leader failover");
    assert!(membership.replication_lag() <= 2);

    for h in handles.into_iter().flatten() {
        h.shutdown_and_join();
    }
}

#[test]
fn router_proxy_routes_merges_and_reports() {
    let instances: Vec<ServerHandle> = (0..2).map(|_| start_instance()).collect();
    let seeds: Vec<String> = instances.iter().map(|h| h.addr().to_string()).collect();
    let router = RouterServer::start(TierConfig {
        addr: "127.0.0.1:0".to_string(),
        seeds,
        membership: MembershipConfig {
            cluster: "demo".to_string(),
            heartbeat: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(500),
            policy: HealthPolicy {
                suspect_after: 2,
                down_after: 4,
                suspect_cost_factor: 1.0,
            },
            replicas: 1,
        },
    })
    .expect("router binds loopback");
    // Wait for the first heartbeat to mark instances healthy.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.membership().counts().0 < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "heartbeat never marked the instances healthy"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut c =
        Client::connect_timeout(router.addr(), Duration::from_secs(2)).expect("router answers");
    c.register_profile(profile("app"))
        .expect("broadcast registration");
    let (_, preds) = c
        .compare("app", &[mapping(&[0, 1])])
        .expect("hash-forwarded compare");
    assert_eq!(preds.len(), 1);

    let (hash, primary, replicas) = c.route("demo", "app").expect("local route answer");
    assert_eq!(hash, cbes_server::route_key_hash("demo", "app"));
    assert_eq!(replicas.len(), 1);
    assert_ne!(primary.index, replicas[0].index);

    let report = c.membership().expect("local membership answer");
    assert_eq!(report.instances.len(), 2);
    assert_eq!(report.cluster, "demo");

    let stats = c.stats().expect("merged stats");
    assert!(stats.served >= 2, "tier-wide served count is merged");
    let metrics = c.metrics().expect("merged metrics");
    assert!(metrics.counters.contains_key("server.served"));

    // Shutdown through the router drains the whole tier.
    c.shutdown().expect("broadcast shutdown");
    for h in instances {
        h.join();
    }
    router.shutdown_and_join();
}

#[test]
fn heartbeat_thread_marks_dead_instances_down() {
    let a = start_instance();
    let b = start_instance();
    let membership = tier_membership(vec![a.addr().to_string(), b.addr().to_string()]);
    let stop = Arc::new(AtomicBool::new(false));
    let hb = cbes_router::tier::spawn_heartbeat(membership.clone(), stop.clone());

    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while membership.counts().0 < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "instances never healthy"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    b.shutdown_and_join();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while membership.counts().2 < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "dead instance never marked down"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(membership.leader(), Some(0));
    stop.store(true, std::sync::atomic::Ordering::Release);
    hb.join().expect("heartbeat thread exits");
    a.shutdown_and_join();
}

#[test]
fn artifact_verbs_broadcast_tier_wide_and_status_merges_per_instance() {
    let (state_root, instances) = reconfigurable_instances("cbes-tier-artifacts");
    let seeds: Vec<String> = instances.iter().map(|h| h.addr().to_string()).collect();
    let router = RouterServer::start(TierConfig {
        addr: "127.0.0.1:0".to_string(),
        seeds: seeds.clone(),
        membership: MembershipConfig {
            cluster: "demo".to_string(),
            heartbeat: Duration::from_millis(20),
            probe_timeout: Duration::from_millis(500),
            policy: HealthPolicy {
                suspect_after: 2,
                down_after: 4,
                suspect_cost_factor: 1.0,
            },
            replicas: 1,
        },
    })
    .expect("router binds loopback");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.membership().counts().0 < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "heartbeat never marked the instances healthy"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut c =
        Client::connect_timeout(router.addr(), Duration::from_secs(2)).expect("router answers");

    // Stage + apply broadcast to every instance; each journals v1 and
    // flips with exactly one epoch bump.
    let limits = r#"{"max_rps": 50.0, "shed_retry_after_ms": 5}"#;
    let (v, state, _) = c.stage("serving_limits", limits).expect("tier-wide stage");
    assert_eq!((v, state.as_str()), (1, "staged"));
    let (_, state, _) = c.apply().expect("tier-wide apply");
    assert_eq!(state, "soaking");

    // The merged status carries one row per instance, sorted by address.
    let status = c.artifact_status().expect("merged status");
    assert_eq!(status.instances.len(), 2, "one lifecycle row per instance");
    let mut sorted = status
        .instances
        .iter()
        .map(|i| i.addr.clone())
        .collect::<Vec<_>>();
    sorted.sort();
    assert_eq!(
        status
            .instances
            .iter()
            .map(|i| i.addr.clone())
            .collect::<Vec<_>>(),
        sorted,
        "merge sorts rows by address"
    );
    for row in &status.instances {
        assert!(row.reconfigurable);
        assert_eq!(row.status.soaking.as_ref().map(|s| s.version), Some(1));
    }
    for addr in &seeds {
        let mut direct = Client::connect_timeout(addr.as_str(), Duration::from_millis(500))
            .expect("instance answers");
        assert_eq!(
            direct.stats().expect("stats").epoch,
            1,
            "each instance flipped with exactly one epoch bump"
        );
    }

    // A lifecycle refusal from any instance is relayed with its address.
    match c.accept().and_then(|_| c.accept()) {
        Err(cbes_server::client::ClientError::Server { message, .. }) => {
            assert!(
                seeds.iter().any(|s| message.contains(s.as_str())),
                "error names the refusing instance: {message}"
            );
        }
        other => panic!("second accept must be refused tier-wide, got {other:?}"),
    }

    c.shutdown().expect("broadcast shutdown");
    for h in instances {
        h.join();
    }
    router.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&state_root);
}

/// Two instances with artifact stores of their own under a fresh
/// `<temp>/<tag>-<pid>`, which is returned for the test to remove.
fn reconfigurable_instances(tag: &str) -> (std::path::PathBuf, Vec<ServerHandle>) {
    let state_root = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_root);
    let start = |slot: usize| {
        let cluster = Arc::new(two_switch_demo());
        let service = CbesService::self_calibrated(cluster, ForecastKind::LastValue);
        let config = ServerConfig {
            workers: 1,
            state_dir: Some(state_root.join(format!("i{slot}"))),
            ..ServerConfig::default()
        };
        Server::start(Arc::new(service), config).expect("loopback bind succeeds")
    };
    let instances = (0..2).map(start).collect();
    (state_root, instances)
}

/// A router over `seeds` whose heartbeat sweeps once at start and then
/// stays out of the test's way.
fn quiet_router(seeds: Vec<String>) -> RouterTierHandle {
    quiet_router_waiting(seeds, MembershipConfig::default().probe_timeout)
}

/// [`quiet_router`] with its per-attempt deadline set.
fn quiet_router_waiting(seeds: Vec<String>, probe_timeout: Duration) -> RouterTierHandle {
    let expected = seeds.len();
    let router = RouterServer::start(TierConfig {
        addr: "127.0.0.1:0".to_string(),
        seeds,
        membership: MembershipConfig {
            cluster: "demo".to_string(),
            heartbeat: Duration::from_secs(3600),
            probe_timeout,
            ..MembershipConfig::default()
        },
    })
    .expect("router binds loopback");
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while router.membership().report().heartbeats == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "heartbeat never swept"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(router.membership().counts(), (expected, 0, 0));
    router
}

fn raw_connection(router: &RouterTierHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(router.addr()).expect("router listens");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("socket option");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The next reply line, or `None` once the router closed the connection.
fn next_reply(reader: &mut BufReader<TcpStream>) -> Option<ResponseEnvelope> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(serde_json::from_str(line.trim()).expect("a typed reply envelope")),
        // A drop with unread input behind it surfaces as a reset.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
        Err(e) => panic!("no reply from the router: {e}"),
    }
}

fn error_kind_of(reply: &ResponseEnvelope) -> &str {
    match &reply.response {
        Response::Error { kind, .. } => kind,
        other => panic!("expected an error reply, got {other:?}"),
    }
}

#[test]
fn router_caps_frames_and_survives_an_unterminated_line() {
    let router = quiet_router(Vec::new());
    let (mut stream, mut reader) = raw_connection(&router);
    // 1 MiB with no newline: refused as soon as it passes the cap, not
    // buffered until one arrives.
    stream.write_all(&vec![b'x'; 1 << 20]).expect("write");
    let reply = next_reply(&mut reader).expect("a typed refusal");
    assert_eq!(reply.id, 0);
    assert_eq!(error_kind_of(&reply), error_kind::FRAME_TOO_LARGE);
    // The rest of the monster frame is discarded up to its newline and
    // the connection keeps serving.
    let mut tail = b"tail\n".to_vec();
    tail.extend_from_slice(encode(&RequestEnvelope::new(7, Request::Membership)).as_bytes());
    tail.push(b'\n');
    stream.write_all(&tail).expect("write");
    let reply = next_reply(&mut reader).expect("the connection survived");
    assert_eq!(reply.id, 7);
    assert!(matches!(reply.response, Response::Membership { .. }));
    router.shutdown_and_join();
}

#[test]
fn router_drops_a_connection_that_spends_its_strike_budget() {
    let router = quiet_router(Vec::new());
    let (mut stream, mut reader) = raw_connection(&router);
    let budget = ServerConfig::default().max_consecutive_errors;
    for _ in 0..budget {
        stream.write_all(b"{not json\n").expect("write");
        let reply = next_reply(&mut reader).expect("each strike is answered");
        assert_eq!(reply.id, 0);
        assert_eq!(error_kind_of(&reply), error_kind::BAD_REQUEST);
    }
    assert!(
        next_reply(&mut reader).is_none(),
        "the router hangs up after {budget} consecutive malformed frames"
    );
    router.shutdown_and_join();
}

#[test]
fn wire_shutdown_answers_a_pipelined_window_in_full() {
    let instances: Vec<ServerHandle> = (0..2).map(|_| start_instance()).collect();
    let router = quiet_router(instances.iter().map(|h| h.addr().to_string()).collect());
    let mut control =
        Client::connect_timeout(router.addr(), Duration::from_secs(5)).expect("router answers");
    control
        .register_profile(profile("app"))
        .expect("broadcast registration");

    const WINDOW: u64 = 48;
    let (mut stream, mut reader) = raw_connection(&router);
    let window: String = (1..=WINDOW)
        .map(|id| {
            let request = Request::Compare {
                app: "app".to_string(),
                mappings: vec![mapping(&[0, 1])],
            };
            encode(&RequestEnvelope::new(id, request)) + "\n"
        })
        .collect();
    stream.write_all(window.as_bytes()).expect("write");
    // The window is in flight; the tier is told to drain from elsewhere.
    control.shutdown().expect("broadcast shutdown");
    // Drain sheds come from the reactor and may overtake replies still
    // being computed, so the window is matched by id, not by position.
    let mut answered = Vec::new();
    for nth in 1..=WINDOW {
        let reply = next_reply(&mut reader)
            .unwrap_or_else(|| panic!("window truncated: reply {nth} of {WINDOW} never arrived"));
        match &reply.response {
            Response::Predictions { predictions, .. } => assert_eq!(predictions.len(), 1),
            Response::Error { kind, .. } => assert_eq!(kind, error_kind::SHUTTING_DOWN),
            other => panic!("unexpected reply {other:?}"),
        }
        answered.push(reply.id);
    }
    answered.sort_unstable();
    assert_eq!(answered, (1..=WINDOW).collect::<Vec<_>>());
    for h in instances {
        h.join();
    }
    router.join();
}

#[test]
fn restarted_backend_is_redialled_without_a_failover() {
    let services: Vec<Arc<CbesService>> = (0..2)
        .map(|_| {
            Arc::new(CbesService::self_calibrated(
                Arc::new(two_switch_demo()),
                ForecastKind::LastValue,
            ))
        })
        .collect();
    let serve = |service: &Arc<CbesService>, addr: String| {
        let config = ServerConfig {
            addr,
            workers: 2,
            ..ServerConfig::default()
        };
        Server::start(service.clone(), config).expect("loopback bind succeeds")
    };
    let mut instances: Vec<Option<ServerHandle>> = services
        .iter()
        .map(|s| Some(serve(s, "127.0.0.1:0".to_string())))
        .collect();
    let seeds: Vec<String> = instances
        .iter()
        .flatten()
        .map(|h| h.addr().to_string())
        .collect();
    let router = quiet_router(seeds.clone());
    let mut c =
        Client::connect_timeout(router.addr(), Duration::from_secs(5)).expect("router answers");
    c.register_profile(profile("app"))
        .expect("broadcast registration");
    let (_, primary, replicas) = c.route("demo", "app").expect("local route answer");
    let first = c
        .compare("app", &[mapping(&[0, 1])])
        .expect("routed over a fresh connection");

    // Kill the key's owner and bring it back on the same port (same
    // service, so the profile is still registered). The router's worker
    // is left holding a dead socket to it.
    let dead = instances[primary.index].take().expect("still running");
    dead.shutdown_and_join();
    instances[primary.index] = Some(serve(&services[primary.index], primary.addr.clone()));

    let second = c
        .compare("app", &[mapping(&[0, 1])])
        .expect("the same router connection still gets an answer");
    assert_eq!(first, second, "same service, same epoch, same prediction");
    let report = router.membership().report();
    assert_eq!(
        report.instances[primary.index].routed, 2,
        "the primary answered both, the second over a re-dialled connection"
    );
    assert_eq!(
        report.instances[replicas[0].index].failed_over, 0,
        "a stale socket is not a failover"
    );

    router.shutdown_and_join();
    for h in instances.into_iter().flatten() {
        h.shutdown_and_join();
    }
}

fn compare_line(id: u64, app: &str, mappings: Vec<Mapping>) -> String {
    let request = Request::Compare {
        app: app.to_string(),
        mappings,
    };
    encode(&RequestEnvelope::new(id, request)) + "\n"
}

fn next_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("a reply arrives");
    line
}

fn stats_of(addr: &str) -> StatsReport {
    let mut direct =
        Client::connect_timeout(addr, Duration::from_secs(10)).expect("instance answers");
    direct.stats().expect("stats")
}

#[test]
fn two_connections_reusing_ids_each_get_their_own_replies_byte_for_byte() {
    let instances: Vec<ServerHandle> = (0..2).map(|_| start_instance()).collect();
    let router = quiet_router(instances.iter().map(|h| h.addr().to_string()).collect());
    let mut control =
        Client::connect_timeout(router.addr(), Duration::from_secs(5)).expect("router answers");
    for app in ["left", "right"] {
        control
            .register_profile(profile(app))
            .expect("broadcast registration");
    }
    // Same ids on both connections, different questions behind them.
    const WINDOW: u64 = 64;
    let window = |app: &str, shift: u64| -> Vec<String> {
        (1..=WINDOW)
            .map(|id| {
                let (a, b) = (1 + (id + shift) % 7, 1 + (id + shift + 3) % 7);
                compare_line(id, app, vec![mapping(&[a as u32, b as u32])])
            })
            .collect()
    };
    let sent = [window("left", 0), window("right", 1)];
    let mut conns = [raw_connection(&router), raw_connection(&router)];
    for ((stream, _), lines) in conns.iter_mut().zip(&sent) {
        stream.write_all(lines.concat().as_bytes()).expect("write");
    }
    // What a backend says to the same frame asked directly. Every
    // instance holds the same profiles at the same epoch.
    let direct = TcpStream::connect(instances[0].addr()).expect("instance listens");
    let mut direct_reader = BufReader::new(direct.try_clone().expect("clone"));
    for ((_, reader), lines) in conns.iter_mut().zip(&sent) {
        for (id, line) in (1..=WINDOW).zip(lines) {
            let routed = next_line(reader);
            (&direct).write_all(line.as_bytes()).expect("write");
            let expected = next_line(&mut direct_reader);
            let (routed_id, routed_tail) = split_id(&routed).expect("canonical reply");
            let (_, expected_tail) = split_id(&expected).expect("canonical reply");
            assert_eq!(routed_id, id, "relayed replies keep arrival order");
            assert_eq!(routed_tail, expected_tail, "only the id may differ");
            assert!(routed_tail.starts_with(",\"response\":{\"Predictions\""));
        }
    }
    // A frame spelled another way (here: the id last) has no prefix to
    // cut; it is re-encoded on its way and answered the same.
    let canonical = compare_line(77, "left", vec![mapping(&[1, 2])]);
    let id_last = canonical
        .replacen("{\"id\":77,", "{", 1)
        .replace("}\n", ",\"id\":77}\n");
    let (stream, reader) = &mut conns[0];
    stream.write_all(id_last.as_bytes()).expect("write");
    (&direct).write_all(canonical.as_bytes()).expect("write");
    assert_eq!(next_line(reader), next_line(&mut direct_reader));
    router.shutdown_and_join();
    for h in instances {
        h.shutdown_and_join();
    }
}

/// A backend that answers heartbeat probes like a healthy instance but
/// swallows every other frame; with `hang_up_after: Some(n)` it closes
/// a connection once it has swallowed `n` frames from it.
fn mute_backend(stats: StatsReport, hang_up_after: Option<usize>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind succeeds");
    let addr = listener.local_addr().expect("bound").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            let stats = stats.clone();
            std::thread::spawn(move || {
                let mut swallowed = 0;
                for line in BufReader::new(&stream).lines().map_while(Result::ok) {
                    if line.contains("\"Stats\"") {
                        let id = split_id(&line).map_or(0, |(id, _)| id);
                        let response = Response::Stats {
                            stats: stats.clone(),
                        };
                        let reply = encode(&ResponseEnvelope { id, response }) + "\n";
                        if (&stream).write_all(reply.as_bytes()).is_err() {
                            return;
                        }
                        continue;
                    }
                    swallowed += 1;
                    if hang_up_after == Some(swallowed) {
                        let _ = stream.shutdown(Shutdown::Both);
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A router over one mute backend and one real instance holding
/// `app`, seeded so the mute one owns the key: `(router, real
/// instance, mute index, real index)`.
fn tier_with_a_mute_primary(
    app: &str,
    hang_up_after: Option<usize>,
) -> (RouterTierHandle, ServerHandle, usize, usize) {
    let real = start_instance();
    Client::connect_timeout(real.addr(), Duration::from_secs(2))
        .expect("instance answers")
        .register_profile(profile(app))
        .expect("direct registration");
    let mute = mute_backend(stats_of(&real.addr().to_string()), hang_up_after);
    let owner = cbes_router::HashRing::new(2)
        .primary(route_key_hash("demo", app))
        .expect("non-empty ring");
    let mut seeds = vec![real.addr().to_string(); 2];
    seeds[owner] = mute;
    (quiet_router(seeds), real, owner, 1 - owner)
}

#[test]
fn a_window_in_flight_on_a_dying_primary_is_answered_once_by_the_replica() {
    const WINDOW: u64 = 32;
    let (router, real, primary, replica) = tier_with_a_mute_primary("app", Some(WINDOW as usize));
    let (mut stream, mut reader) = raw_connection(&router);
    let window: String = (1..=WINDOW)
        .map(|id| compare_line(id, "app", vec![mapping(&[0, 1])]))
        .collect();
    stream.write_all(window.as_bytes()).expect("write");
    // The primary reads the whole window, answers none of it and hangs
    // up: all of it is re-sent to the replica, none of it twice.
    for id in 1..=WINDOW {
        let reply = next_reply(&mut reader).expect("the replica's answer");
        assert_eq!(reply.id, id);
        assert!(matches!(reply.response, Response::Predictions { .. }));
    }
    let probe = encode(&RequestEnvelope::new(99, Request::Membership)) + "\n";
    stream.write_all(probe.as_bytes()).expect("write");
    let reply = next_reply(&mut reader).expect("local answer");
    assert_eq!(reply.id, 99, "nothing else was queued behind the window");
    let Response::Membership { membership } = reply.response else {
        panic!("expected the membership table");
    };
    assert_eq!(membership.instances[replica].failed_over, WINDOW);
    assert_eq!(membership.instances[replica].routed, 0);
    assert_eq!(membership.instances[primary].routed, 0);
    router.shutdown_and_join();
    real.shutdown_and_join();
}

#[test]
fn a_silent_primary_costs_one_probe_timeout_not_the_request_deadline() {
    let (router, real, _, replica) = tier_with_a_mute_primary("app", None);
    let (mut stream, mut reader) = raw_connection(&router);
    let asked = Instant::now();
    let window: String = (1..=8)
        .map(|id| compare_line(id, "app", vec![mapping(&[0, 1])]))
        .collect();
    stream.write_all(window.as_bytes()).expect("write");
    for id in 1..=8 {
        let reply = next_reply(&mut reader).expect("the replica's answer");
        assert_eq!(reply.id, id);
        assert!(matches!(reply.response, Response::Predictions { .. }));
    }
    let waited = asked.elapsed();
    let attempt = MembershipConfig::default().probe_timeout;
    assert!(waited >= attempt, "the primary got its full attempt");
    assert!(
        waited < ServerConfig::default().request_timeout / 2,
        "failover after {waited:?} waited for the request deadline, not the attempt's"
    );
    let report = router.membership().report();
    assert_eq!(report.instances[replica].failed_over, 8);
    router.shutdown_and_join();
    real.shutdown_and_join();
}

#[test]
fn giving_up_on_a_key_is_counted_and_a_drain_is_not() {
    let giveups = || {
        let counter = cbes_obs::Registry::global().counter(cbes_obs::names::ROUTER_GIVEUPS);
        counter.get()
    };
    // Seeds nobody listens on: every candidate of every key is down.
    let dead = |_| {
        let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind succeeds");
        listener.local_addr().expect("bound").to_string()
    };
    let router = RouterServer::start(TierConfig {
        addr: "127.0.0.1:0".to_string(),
        seeds: (0..2).map(dead).collect(),
        membership: MembershipConfig {
            cluster: "demo".to_string(),
            heartbeat: Duration::from_secs(3600),
            ..MembershipConfig::default()
        },
    })
    .expect("router binds loopback");
    let before = giveups();
    let (mut stream, mut reader) = raw_connection(&router);
    let line = compare_line(3, "app", vec![mapping(&[0, 1])]);
    stream.write_all(line.as_bytes()).expect("write");
    let reply = next_reply(&mut reader).expect("a typed refusal");
    assert_eq!(reply.id, 3);
    let Response::Error { kind, message, .. } = &reply.response else {
        panic!("expected an error reply, got {reply:?}");
    };
    assert_eq!(kind, error_kind::SERVICE);
    assert_eq!(message, "no usable instance owns this key");
    assert_eq!(giveups() - before, 1, "the router gave up on one request");
    router.shutdown_and_join();

    // A request in flight on a silent backend when the tier is told to
    // drain is answered `shutting_down`: the tier going away, not a key
    // nobody could serve.
    let real = start_instance();
    let mute = mute_backend(stats_of(&real.addr().to_string()), None);
    let router = quiet_router_waiting(vec![mute], Duration::from_millis(200));
    let before = giveups();
    let (mut stream, mut reader) = raw_connection(&router);
    stream.write_all(line.as_bytes()).expect("write");
    // On the wire behind the frame, so the frame is in flight by now.
    let probe = encode(&RequestEnvelope::new(4, Request::Membership)) + "\n";
    stream.write_all(probe.as_bytes()).expect("write");
    assert_eq!(next_reply(&mut reader).expect("local answer").id, 4);
    router.shutdown();
    let reply = next_reply(&mut reader).expect("the drain answers what it holds");
    assert_eq!(reply.id, 3);
    assert_eq!(error_kind_of(&reply), error_kind::SHUTTING_DOWN);
    assert_eq!(giveups(), before, "a drain is not a give-up");
    router.join();
    real.shutdown_and_join();
}

#[test]
fn a_misshapen_hash_frame_is_refused_by_the_router_and_never_forwarded() {
    let instances: Vec<ServerHandle> = (0..2).map(|_| start_instance()).collect();
    let router = quiet_router(instances.iter().map(|h| h.addr().to_string()).collect());
    let (mut stream, mut reader) = raw_connection(&router);
    // Valid JSON, a hash-routed tag, the wrong shape behind it.
    let budget = ServerConfig::default().max_consecutive_errors;
    for _ in 0..budget {
        stream
            .write_all(b"{\"id\":5,\"request\":{\"Compare\":{\"app\":7}}}\n")
            .expect("write");
        let reply = next_reply(&mut reader).expect("each strike is answered");
        assert_eq!(reply.id, 0);
        assert_eq!(error_kind_of(&reply), error_kind::BAD_REQUEST);
    }
    assert!(
        next_reply(&mut reader).is_none(),
        "the refusals were strikes: the router hangs up after {budget}"
    );
    for h in &instances {
        let stats = stats_of(&h.addr().to_string());
        assert_eq!(stats.errors, 0, "no backend ever saw the frame");
        assert_eq!(stats.dropped_connections, 0);
    }
    router.shutdown_and_join();
    for h in instances {
        h.shutdown_and_join();
    }
}

#[test]
fn a_traced_compare_through_the_router_yields_one_connected_chain() {
    let instances: Vec<ServerHandle> = (0..2).map(|_| start_instance()).collect();
    let router = quiet_router(instances.iter().map(|h| h.addr().to_string()).collect());
    let mut control =
        Client::connect_timeout(router.addr(), Duration::from_secs(5)).expect("router answers");
    control
        .register_profile(profile("app"))
        .expect("broadcast registration");
    let trace_id = cbes_obs::mint_trace_id();
    let request = Request::Compare {
        app: "app".to_string(),
        mappings: vec![mapping(&[0, 1])],
    };
    let (mut stream, mut reader) = raw_connection(&router);
    let line = encode(&RequestEnvelope::traced(3, request, trace_id, 41)) + "\n";
    stream.write_all(line.as_bytes()).expect("write");
    let reply = next_reply(&mut reader).expect("relayed reply");
    assert_eq!(reply.id, 3);
    assert!(matches!(reply.response, Response::Predictions { .. }));

    let (_, spans) = control.trace(trace_id).expect("tier-wide trace");
    let named = |name: &str| {
        let mut matching = spans.iter().filter(|s| s.name == name);
        let span = matching.next().unwrap_or_else(|| panic!("no {name} span"));
        assert!(matching.next().is_none(), "one {name} span per request");
        span
    };
    let forward = named("router.forward");
    let served = named("compare");
    let evaluated = named("core.evaluate_mapping");
    assert_eq!(forward.parent, 41, "the caller's span is the hop's parent");
    assert_eq!(served.parent, forward.id);
    assert_eq!(evaluated.parent, served.id);
    assert!(
        forward.dur_us >= served.dur_us,
        "the hop ({} us) contains the backend's work ({} us)",
        forward.dur_us,
        served.dur_us
    );
    router.shutdown_and_join();
    for h in instances {
        h.shutdown_and_join();
    }
}

#[test]
fn a_client_that_never_reads_is_not_read_from_until_it_does() {
    let instances: Vec<ServerHandle> = (0..2).map(|_| start_instance()).collect();
    // A debug-build backend works through a deep burst slowly; give its
    // queue the whole request deadline rather than failing it over.
    let seeds = instances.iter().map(|h| h.addr().to_string()).collect();
    let router = quiet_router_waiting(seeds, ServerConfig::default().request_timeout);
    let mut control =
        Client::connect_timeout(router.addr(), Duration::from_secs(5)).expect("router answers");
    control
        .register_profile(profile("app"))
        .expect("broadcast registration");
    let served = || -> u64 {
        let compares = |h: &ServerHandle| stats_of(&h.addr().to_string()).per_action["compare"];
        instances.iter().map(compares).sum()
    };
    // Replies that dwarf their requests: this burst's are more than
    // every kernel buffer between the router and the client holds.
    const HEAVY: u64 = 120;
    const FILLER: u64 = 500;
    let (mut stream, mut reader) = raw_connection(&router);
    let burst: String = (1..=HEAVY)
        .map(|id| compare_line(id, "app", vec![mapping(&[0, 1]); 400]))
        .collect();
    stream.write_all(burst.as_bytes()).expect("write");
    let deadline = Instant::now() + Duration::from_secs(30);
    while served() < HEAVY {
        assert!(Instant::now() < deadline, "the burst was never evaluated");
        std::thread::sleep(Duration::from_millis(20));
    }
    // Nothing has been read, so the replies sit in the router — which
    // therefore takes nothing more from this client: more than the
    // kernel absorbs cannot be written.
    let sent = Arc::new(AtomicU64::new(0));
    let writer = {
        let sent = sent.clone();
        std::thread::spawn(move || {
            for id in HEAVY + 1..=HEAVY + FILLER {
                let line = compare_line(id, "nobody", vec![mapping(&[0, 1]); 1000]);
                stream.write_all(line.as_bytes()).expect("write");
                sent.fetch_add(1, Ordering::Release);
            }
            stream
        })
    };
    let mut before = u64::MAX;
    let stalled_at = loop {
        std::thread::sleep(Duration::from_millis(300));
        let now = sent.load(Ordering::Acquire);
        if now == before {
            break now;
        }
        before = now;
    };
    assert!(
        stalled_at < FILLER,
        "the router took every frame from a client that reads nothing"
    );
    // Reading drains it all: every frame answered once, evaluations in
    // arrival order (a shed, should the rest of the burst run into a
    // bound, may overtake).
    let frames = (HEAVY + FILLER) as usize;
    let (mut answered, mut last_relayed) = (vec![false; frames + 1], 0);
    for _ in 0..frames {
        let reply = next_reply(&mut reader).expect("every frame is answered");
        let seen = answered.get_mut(reply.id as usize).expect("a sent id");
        assert!(!std::mem::replace(seen, true), "id {} twice", reply.id);
        match &reply.response {
            Response::Predictions { predictions, .. } => assert_eq!(predictions.len(), 400),
            Response::Error { kind, .. } if kind == error_kind::OVERLOADED => continue,
            Response::Error { kind, .. } => assert_eq!(kind, error_kind::SERVICE),
            other => panic!("unexpected reply {other:?}"),
        }
        assert!(reply.id > last_relayed, "relayed replies keep order");
        last_relayed = reply.id;
    }
    let _stream = writer.join().expect("writer thread");
    router.shutdown_and_join();
    for h in instances {
        h.shutdown_and_join();
    }
}

#[path = "../../server/tests/common/mod.rs"]
mod common;

/// One request per row of the action table through a two-daemon tier:
/// each is answered by the fold its row's mode names (a debug build
/// panics in `dispatch` where row and arm disagree), never refused as an
/// action the router has no case for.
#[test]
fn every_row_of_the_action_table_is_answered_through_the_router() {
    let (state_root, instances) = reconfigurable_instances("cbes-tier-rows");
    let router = quiet_router(instances.iter().map(|h| h.addr().to_string()).collect());
    let mut c =
        Client::connect_timeout(router.addr(), Duration::from_secs(10)).expect("router answers");
    let mut requests = common::one_of_each();
    let covered: Vec<_> = requests.iter().map(|r| r.spec()).collect();
    assert_eq!(covered, ACTIONS.iter().collect::<Vec<_>>(), "one per row");
    // Draining the tier comes last.
    requests.sort_by_key(|r| r.kind() == Action::Shutdown);
    for request in &requests {
        let name = request.spec().name;
        let reply = c.request(request).expect("every row is answered").response;
        let expected = match request.kind() {
            Action::RegisterProfile => "Registered",
            Action::Compare | Action::Batch => "Predictions",
            Action::BestOf => "Best",
            Action::Schedule => "Scheduled",
            Action::ObserveLoad | Action::ObservePartial => "LoadObserved",
            Action::Stats => "Stats",
            Action::Metrics => "Metrics",
            Action::Shutdown => "ShuttingDown",
            Action::Route => "Routed",
            Action::Replicate => "Replicated",
            Action::Membership => "Membership",
            Action::Trace => "Traces",
            Action::DumpFlight => "FlightDumped",
            Action::Stage | Action::Apply | Action::Accept => "ArtifactAck",
            // Nothing soaks once `accept` has run: every instance refuses
            // alike, and the all-or-error fold says so.
            Action::Rollback => "Error",
            Action::ArtifactStatus => "ArtifactStatus",
        };
        assert!(
            format!("{reply:?}").starts_with(expected),
            "{name}: {reply:?}"
        );
        if let Response::Error { kind, message, .. } = &reply {
            assert_eq!(kind, error_kind::SERVICE, "{name}: {message}");
            assert!(message.starts_with("broadcast refused by every instance"));
        }
        if let Response::FlightDumped { path, .. } = &reply {
            let _ = std::fs::remove_file(path);
        }
    }
    for h in instances {
        h.join();
    }
    router.join();
    let _ = std::fs::remove_dir_all(&state_root);
}
