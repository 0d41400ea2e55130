//! Registration compiles a profile, and refuses one eqs. 5–8 cannot
//! evaluate: each field that can make a profile unevaluable, one case
//! each, through `ProfileRegistry::insert` and `ProfileRegistry::load_dir`.

use cbes_core::{ProfileRegistry, ServiceError};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
use std::collections::BTreeMap;

fn pair(name: &str) -> AppProfile {
    let mk = |rank: usize| ProcessProfile {
        rank,
        x: 4.0,
        o: 0.5,
        b: 0.2,
        sends: vec![MessageGroup {
            peer: 1 - rank,
            bytes: 4096,
            count: 10,
        }],
        recvs: vec![MessageGroup {
            peer: 1 - rank,
            bytes: 4096,
            count: 10,
        }],
        profile_speed: 1.0,
        lambda: 0.8,
    };
    AppProfile {
        name: name.into(),
        procs: vec![mk(0), mk(1)],
        arch_ratios: BTreeMap::new(),
    }
}

/// `edit` applied to a good profile must be refused, naming what is wrong,
/// and must neither register nor replace anything.
fn refused(edit: impl Fn(&mut AppProfile), names: &str) {
    let registry = ProfileRegistry::new();
    let good = pair("app");
    registry.insert(good.clone()).expect("the pair compiles");
    let mut bad = good.clone();
    edit(&mut bad);
    match registry.insert(bad) {
        Err(ServiceError::InvalidProfile { app, reason }) => {
            assert_eq!(app, "app");
            assert!(reason.contains(names), "{reason}");
        }
        other => panic!("expected a refusal naming {names}, got {other:?}"),
    }
    assert_eq!(*registry.get("app").expect("still registered"), good);
    let mut renamed = good;
    renamed.name = "other".into();
    edit(&mut renamed);
    assert!(registry.insert(renamed).is_err());
    assert_eq!(registry.names(), ["app"]);
}

#[test]
fn a_rank_out_of_place_is_refused() {
    refused(|p| p.procs[1].rank = 0, "procs[1] is rank 0");
}

#[test]
fn a_send_or_receive_to_a_missing_peer_is_refused() {
    refused(|p| p.procs[0].sends[0].peer = 7, "peer 7");
    refused(|p| p.procs[1].recvs[0].peer = 2, "peer 2");
}

#[test]
fn x_o_and_lambda_must_be_finite_and_non_negative() {
    for bad in [f64::NAN, f64::INFINITY, -1.0] {
        refused(|p| p.procs[0].x = bad, "x");
        refused(|p| p.procs[1].o = bad, "o");
        refused(|p| p.procs[0].lambda = bad, "lambda");
    }
}

#[test]
fn profile_speed_must_be_finite_and_positive() {
    for bad in [f64::NAN, f64::INFINITY, 0.0, -0.5] {
        refused(|p| p.procs[1].profile_speed = bad, "profile_speed");
    }
}

#[test]
fn zeros_and_silent_ranks_still_compile() {
    let registry = ProfileRegistry::new();
    let mut p = pair("quiet");
    p.procs[0].x = 0.0;
    p.procs[0].o = 0.0;
    p.procs[1].lambda = 0.0;
    p.procs[1].sends.clear();
    p.procs[1].recvs.clear();
    registry
        .insert(p)
        .expect("zero work and no messages are valid");
}

#[test]
fn load_dir_refuses_what_insert_refuses() {
    let dir = std::env::temp_dir().join(format!("cbes-reg-invalid-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    let mut bad = pair("bad");
    bad.procs[0].sends[0].peer = 99;
    std::fs::write(dir.join("bad.profile.json"), bad.to_json()).expect("temp dir is writable");
    let err = ProfileRegistry::load_dir(&dir).expect_err("an invalid profile is refused");
    assert!(err.to_string().contains("peer 99"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
