//! The daemon's once-per-second anomaly sweep runs on a worker. A soak
//! rollback journals (an fsync) and a flight dump writes a file; the
//! reactor thread must wait on neither, and a debug build panics if it
//! does (`cbes_obs::lock::blocking`). So the frame on which a sweep
//! falls due queues, even when it would otherwise run inline.

use std::sync::Arc;
use std::time::Duration;

use cbes_cluster::presets::two_switch_demo;
use cbes_core::monitor::ForecastKind;
use cbes_core::CbesService;
use cbes_server::client::ClientError;
use cbes_server::protocol::error_kind;
use cbes_server::{Client, Request, Response, Server, ServerConfig};

mod common;

#[test]
fn a_soak_rollback_due_on_an_inline_frame_is_journalled_by_a_worker() {
    let state_dir = std::env::temp_dir().join(format!("cbes-sweep-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let service = Arc::new(CbesService::self_calibrated(
        Arc::new(two_switch_demo()),
        ForecastKind::LastValue,
    ));
    let handle = Server::start(
        service.clone(),
        ServerConfig {
            workers: 1,
            state_dir: Some(state_dir.clone()),
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client =
        Client::connect_timeout(handle.addr(), Duration::from_secs(10)).expect("connect");
    // The fixed `RegisterProfile` and `Compare` of the wire tests.
    let requests = common::one_of_each();
    let (register, compare) = (&requests[0], &requests[1]);
    let Request::Compare { app, mappings } = compare else {
        panic!("the second fixed request is a compare: {compare:?}");
    };
    let registered = client.call(register);
    assert!(matches!(registered, Ok(Response::Registered { .. })));

    // Soak an admission cap of one evaluation a second, then spend the
    // soak's shed budget (25) against it.
    let stage = Request::Stage {
        kind: "serving_limits".to_string(),
        payload: r#"{"max_rps": 1.0, "shed_retry_after_ms": 5}"#.to_string(),
    };
    client.call(&stage).expect("staged");
    client.call(&Request::Apply).expect("applied");
    let mut shed = 0;
    for _ in 0..40 {
        match client.call(compare) {
            Err(ClientError::Server { kind, .. }) if kind == error_kind::OVERLOADED => shed += 1,
            other => drop(other.expect("a reply or a shed")),
        }
    }
    assert!(shed >= 25, "only {shed} of 40 compares were shed");

    // A token refills within a second. Then, on an idle daemon, the
    // first frame of a new clock second is the one the sweep falls due on.
    let clock = service.obs().clock();
    cbes_obs::lock::sleep(Duration::from_millis(1_050));
    let into_second = clock.now().subsec_micros();
    cbes_obs::lock::sleep(Duration::from_micros(
        u64::from(1_000_000 - into_second) + 20_000,
    ));
    let reply = client.call(compare).expect("the frame is answered");
    let (_, want) = service.compare_stamped(app, mappings).expect("evaluates");
    let Response::Predictions { predictions, .. } = reply else {
        panic!("expected predictions, got {reply:?}");
    };
    assert_eq!(format!("{predictions:?}"), format!("{want:?}"));

    // The sweep rolled the soak back, through the journal.
    let reply = client.call(&Request::ArtifactStatus).expect("status");
    let Response::ArtifactStatus { status } = reply else {
        panic!("expected a status, got {reply:?}");
    };
    let lifecycle = &status.instances[0].status;
    assert!(lifecycle.soaking.is_none(), "{lifecycle:?}");
    let rollback = lifecycle
        .last_rollback
        .as_ref()
        .expect("a journalled rollback");
    assert_eq!((rollback.version, rollback.auto), (1, true));
    assert_eq!(
        client.call(&Request::Shutdown).expect("drains"),
        Response::ShuttingDown
    );
    handle.join();
    for dump in service.obs().flight().dumped() {
        let _ = std::fs::remove_file(dump);
    }
    let _ = std::fs::remove_dir_all(&state_dir);
}
