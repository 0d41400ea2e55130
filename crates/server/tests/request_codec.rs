//! The fast request decoder accepts exactly the generic parser's
//! language: for every line here, `decode_request` and a plain
//! `serde_json::from_str::<RequestEnvelope>` either both fail with the
//! same message, or both succeed and re-encode to the same bytes.
//!
//! Lines are every action's request, seeded `ObserveLoad` and `Compare`
//! envelopes (both the fast decoder's shapes), and mutations of each:
//! every byte deleted, a space at every position, every digit flipped,
//! and every number respelled. The vendored `proptest` does not shrink;
//! a failure prints the line, which is its own reproduction.

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use cbes_server::protocol::{decode_request, encode, Request, RequestEnvelope};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod common;

/// Spellings the generic grammar treats differently from the encoder:
/// integers, exponents, signed zero, overflow, leading zeros, and the
/// near-misses `parse::<f64>` takes or refuses.
const RESPELLINGS: [&str; 10] = [
    "1", "1.0", "1e0", "1E+0", "-0.0", "1e999", "01.5", ".5", "1.", "1e",
];

fn agree(line: &str) {
    let fast = decode_request(line);
    let generic = serde_json::from_str::<RequestEnvelope>(line);
    match (&fast, &generic) {
        (Ok(a), Ok(b)) => assert_eq!(encode(a), encode(b), "re-encodings differ for {line}"),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "errors differ for {line}"),
        _ => panic!("decode_request {fast:?} but serde {generic:?} for {line}"),
    }
}

/// Byte spans of the JSON numbers in `line` (outside strings).
fn numbers(line: &str) -> Vec<(usize, usize)> {
    let bytes = line.as_bytes();
    let (mut spans, mut i, mut in_str) = (Vec::new(), 0, false);
    while i < bytes.len() {
        let b = bytes[i];
        if in_str {
            match b {
                b'\\' => i += 1,
                b'"' => in_str = false,
                _ => {}
            }
            i += 1;
        } else if b == b'"' {
            in_str = true;
            i += 1;
        } else if b == b'-' || b.is_ascii_digit() {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                i += 1;
            }
            spans.push((start, i));
        } else {
            i += 1;
        }
    }
    spans
}

/// Every mutation of `line` the harness checks (ASCII lines only, so
/// every byte position is a char boundary).
fn mutations(line: &str) -> Vec<String> {
    assert!(line.is_ascii(), "{line}");
    let mut out = Vec::new();
    for i in 0..=line.len() {
        if i < line.len() {
            out.push(format!("{}{}", &line[..i], &line[i + 1..]));
        }
        out.push(format!("{} {}", &line[..i], &line[i..]));
    }
    for (i, b) in line.bytes().enumerate() {
        if b.is_ascii_digit() {
            let flipped = char::from(b'0' + (b - b'0' + 1) % 10);
            out.push(format!("{}{flipped}{}", &line[..i], &line[i + 1..]));
        }
    }
    for (start, end) in numbers(line) {
        for spelling in RESPELLINGS {
            out.push(format!("{}{spelling}{}", &line[..start], &line[end..]));
        }
    }
    out
}

/// A seeded load sweep: the benchmark's ranges, the idle values, and
/// floats whose shortest spelling has an exponent.
fn sweep(rng: &mut StdRng) -> LoadState {
    let n = rng.random_range(0usize..9);
    let value = |rng: &mut StdRng| match rng.random_range(0u32..6) {
        0 => 1.0,
        1 => 0.0,
        2 => -0.0,
        3 => rng.random_range(1e-9..1e-5),
        4 => rng.random_range(1e20..1e300),
        _ => rng.random_range(0.0..1.0),
    };
    let cpu = (0..n).map(|_| value(rng)).collect();
    let nic = (0..n).map(|_| value(rng)).collect();
    LoadState::from_measured(cpu, nic)
}

fn compare(rng: &mut StdRng) -> Request {
    let mappings = (0..rng.random_range(0usize..4))
        .map(|_| {
            let ranks = rng.random_range(0usize..5);
            Mapping::new(
                (0..ranks)
                    .map(|_| NodeId(rng.random_range(0u32..200)))
                    .collect(),
            )
        })
        .collect();
    Request::Compare {
        app: format!("ring.{:04x}", rng.random_range(0u32..0x1_0000)),
        mappings,
    }
}

/// Each request untraced and traced, under a seeded id.
fn envelopes(requests: Vec<Request>, rng: &mut StdRng) -> Vec<String> {
    requests
        .into_iter()
        .flat_map(|request| {
            let id = rng.random_range(0u64..u64::MAX);
            let trace = rng.random_range(1u64..u64::MAX);
            [
                encode(&RequestEnvelope::new(id, request.clone())),
                encode(&RequestEnvelope::traced(id, request, trace, id / 2)),
            ]
        })
        .collect()
}

#[test]
fn every_action_decodes_the_same_through_both_paths() {
    let mut rng = StdRng::seed_from_u64(1);
    for line in envelopes(common::one_of_each(), &mut rng) {
        agree(&line);
    }
}

#[test]
fn mutated_fast_shapes_decode_the_same_through_both_paths() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let requests = vec![
            Request::ObserveLoad {
                load: sweep(&mut rng),
            },
            compare(&mut rng),
        ];
        for line in envelopes(requests, &mut rng) {
            agree(&line);
            for mutated in mutations(&line) {
                agree(&mutated);
            }
        }
    }
}

#[test]
fn the_respellings_reach_both_outcomes() {
    // The harness is only as good as its mutations: some respellings
    // must be taken and some refused, on the fast shape itself.
    let line = encode(&RequestEnvelope::new(
        3,
        Request::ObserveLoad {
            load: LoadState::from_measured(vec![0.5], vec![0.25]),
        },
    ));
    let (start, end) = numbers(&line)[1];
    let outcomes: Vec<bool> = RESPELLINGS
        .iter()
        .map(|s| decode_request(&format!("{}{s}{}", &line[..start], &line[end..])).is_ok())
        .collect();
    assert_eq!(
        outcomes,
        [true, true, true, true, true, true, true, false, true, false],
        "{RESPELLINGS:?}"
    );
}
