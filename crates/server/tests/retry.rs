//! Wire-level retry behaviour of [`cbes_server::Client::retrying`]:
//! jitter envelope, `retry_after_ms` honouring, and give-up accounting
//! against a scripted fake daemon.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cbes_server::protocol::{
    encode, error_kind, RequestEnvelope, Response, ResponseEnvelope, StatsReport,
};
use cbes_server::{Client, RetryPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One scripted reply per incoming request; the last entry repeats once
/// the script runs out.
#[derive(Clone)]
enum Reply {
    Shed(u64),
    Service,
    Ok,
}

fn canned_stats() -> StatsReport {
    StatsReport {
        served: 1,
        errors: 0,
        overloaded: 0,
        timeouts: 0,
        connections: 1,
        queue_depth: 0,
        workers: 1,
        epoch: 0,
        profiles: 0,
        observations: 0,
        healthy: 1,
        suspect: 0,
        down: 0,
        health_transitions: 0,
        dropped_connections: 0,
        per_action: Default::default(),
        uptime_s: 0.0,
    }
}

/// A fake daemon answering per `script`; returns `(addr, request_count)`.
fn fake_daemon(script: Vec<Reply>) -> (String, Arc<AtomicU64>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind succeeds");
    let addr = listener
        .local_addr()
        .expect("bound socket has an address")
        .to_string();
    let seen = Arc::new(AtomicU64::new(0));
    let count = seen.clone();
    std::thread::spawn(move || {
        // One connection at a time: the retrying client reconnects only
        // after transport errors, and shed replies keep the stream.
        for stream in listener.incoming() {
            let stream = match stream {
                Ok(s) => s,
                Err(_) => return,
            };
            let mut reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            let mut writer = stream;
            let mut line = String::new();
            loop {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                let env: RequestEnvelope = match serde_json::from_str(line.trim()) {
                    Ok(e) => e,
                    Err(_) => break,
                };
                let n = count.fetch_add(1, Ordering::AcqRel) as usize;
                let reply = script.get(n).or_else(|| script.last()).cloned();
                let response = match reply {
                    Some(Reply::Shed(hint)) => {
                        Response::shed(error_kind::OVERLOADED, "scripted shed", hint)
                    }
                    Some(Reply::Service) => {
                        Response::error(error_kind::SERVICE, "scripted rejection")
                    }
                    Some(Reply::Ok) | None => Response::Stats {
                        stats: canned_stats(),
                    },
                };
                let mut out = encode(&ResponseEnvelope {
                    id: env.id,
                    response,
                });
                out.push('\n');
                if writer.write_all(out.as_bytes()).is_err() || writer.flush().is_err() {
                    break;
                }
            }
        }
    });
    (addr, seen)
}

fn policy(max_attempts: u32, base_ms: u64, seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_delay: Duration::from_millis(base_ms),
        max_delay: Duration::from_millis(500),
        seed,
    }
}

#[test]
fn jitter_stays_inside_the_documented_envelope_for_many_seeds() {
    // The contract: backoff(retry) ∈ [0.5, 1.5) × min(base · 2^(retry-1),
    // max_delay), for every seed.
    let p = RetryPolicy {
        max_attempts: 8,
        base_delay: Duration::from_millis(10),
        max_delay: Duration::from_millis(100),
        seed: 0,
    };
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        for retry in 1..8u32 {
            let capped_ms = (10u64 << (retry - 1)).min(100);
            let d = p.backoff(retry, &mut rng);
            assert!(
                d >= Duration::from_micros(capped_ms * 500),
                "seed {seed} retry {retry}: {d:?} under the envelope"
            );
            assert!(
                d < Duration::from_micros(capped_ms * 1500),
                "seed {seed} retry {retry}: {d:?} over the envelope"
            );
        }
    }
}

#[test]
fn jitter_is_deterministic_per_seed_and_varies_across_seeds() {
    let p = policy(4, 10, 0);
    let series = |seed: u64| -> Vec<Duration> {
        let mut rng = StdRng::seed_from_u64(seed);
        (1..5u32).map(|r| p.backoff(r, &mut rng)).collect()
    };
    assert_eq!(series(7), series(7), "a seed replays its delays");
    let distinct = (0..20u64)
        .map(series)
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    assert!(distinct > 15, "only {distinct}/20 distinct delay series");
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "the test checks that the client waited out the hints"
)]
fn retry_after_hint_stretches_the_backoff() {
    // Two sheds with a 120 ms hint, then success. The policy's own
    // backoff is ~1 ms, so the observed latency is dominated by the
    // honoured hints: ≥ 240 ms across the two waits.
    let (addr, seen) = fake_daemon(vec![Reply::Shed(120), Reply::Shed(120), Reply::Ok]);
    let mut client = Client::retrying(addr, Duration::from_secs(2), policy(5, 1, 42));
    let started = Instant::now();
    client.stats().expect("third attempt succeeds");
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(240),
        "hints not honoured: replied in {elapsed:?}"
    );
    assert_eq!(seen.load(Ordering::Acquire), 3, "two sheds + one success");
}

#[test]
fn shed_replies_are_retried_until_the_budget_runs_out() {
    let (addr, seen) = fake_daemon(vec![Reply::Shed(1)]);
    let mut client = Client::retrying(addr, Duration::from_secs(2), policy(3, 1, 9));
    let err = client
        .stats()
        .expect_err("a permanent shed exhausts retries");
    assert!(err.is_shed(), "the last shed surfaces: {err}");
    assert_eq!(
        seen.load(Ordering::Acquire),
        3,
        "max_attempts bounds the tries"
    );
}

#[test]
fn terminal_service_errors_are_not_retried() {
    let (addr, seen) = fake_daemon(vec![Reply::Service]);
    let mut client = Client::retrying(addr, Duration::from_secs(2), policy(5, 1, 3));
    let err = client.stats().expect_err("a rejection is terminal");
    assert!(!err.is_shed(), "{err}");
    assert_eq!(
        seen.load(Ordering::Acquire),
        1,
        "terminal errors must not be replayed"
    );
}

mod common;

/// The retry contract is the `idempotent` column of the action table:
/// facing a daemon that sheds everything, a retrying client re-sends a
/// request to the budget if its row says so and sends it once if not.
#[test]
fn only_idempotent_rows_are_ever_sent_twice() {
    use cbes_server::protocol::ACTIONS;
    const BUDGET: u32 = 3;
    let (addr, seen) = fake_daemon(vec![Reply::Shed(1)]);
    let requests = common::one_of_each();
    let covered: Vec<_> = requests.iter().map(|r| r.spec()).collect();
    assert_eq!(covered, ACTIONS.iter().collect::<Vec<_>>(), "one per row");
    for request in requests {
        let spec = request.spec();
        let mut client =
            Client::retrying(addr.clone(), Duration::from_secs(2), policy(BUDGET, 1, 7));
        let before = seen.load(Ordering::Acquire);
        let err = client.call(&request).expect_err("every frame is shed");
        assert!(err.is_shed(), "{}: the shed surfaces: {err}", spec.name);
        let frames = seen.load(Ordering::Acquire) - before;
        let expected = if spec.idempotent {
            u64::from(BUDGET)
        } else {
            1
        };
        assert_eq!(frames, expected, "{} was sent {frames} time(s)", spec.name);
    }
    // Pinned: marking an eleventh action replay-safe is a decision
    // about server state, not a table edit to wave through.
    let replayed: Vec<&str> = ACTIONS
        .iter()
        .filter(|spec| spec.idempotent)
        .map(|spec| spec.name)
        .collect();
    assert_eq!(
        replayed,
        [
            "register_profile",
            "compare",
            "best_of",
            "schedule",
            "stats",
            "metrics",
            "route",
            "replicate",
            "membership",
            "batch",
        ]
    );
}
