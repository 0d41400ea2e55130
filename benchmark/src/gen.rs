//! Seeded workload generation: synthetic profiles, candidate mappings,
//! load sweeps and the five request streams. The same seed gives
//! byte-identical request lines; the daemon under test only ever sees
//! those bytes.

use std::collections::BTreeMap;

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_core::mapping::Mapping;
use cbes_server::protocol::{encode, Request, RequestEnvelope};
use cbes_trace::{AppProfile, MessageGroup, ProcessProfile};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Nodes of `presets::centurion()`, the cluster every workload serves.
pub const NODES: usize = 128;
/// Applications a stream cycles through. Reply encoding cost depends
/// on the digits of the numbers encoded (30 % between two single
/// `ring8` profiles), so a workload draws many profiles per seed and
/// its cost does not hang on one draw. On the routed workload the
/// applications also spread the keys over both daemons.
const COMPARE_APPS: usize = 24;
const BATCH_APPS: usize = 8;

/// The five workloads. Names are the contract with `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ComparePipelined,
    CompareLockstep,
    BatchHeavy,
    ObserveMixed,
    RoutedCompare,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::ComparePipelined,
        Workload::CompareLockstep,
        Workload::BatchHeavy,
        Workload::ObserveMixed,
        Workload::RoutedCompare,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ComparePipelined => "compare_pipelined",
            Workload::CompareLockstep => "compare_lockstep",
            Workload::BatchHeavy => "batch_heavy",
            Workload::ObserveMixed => "observe_mixed",
            Workload::RoutedCompare => "routed_compare",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pipeline depth: requests written per window before any reply is read.
    pub fn depth(self) -> usize {
        match self {
            Workload::ComparePipelined | Workload::ObserveMixed => 16,
            Workload::CompareLockstep => 1,
            Workload::BatchHeavy => 4,
            Workload::RoutedCompare => 8,
        }
    }

    /// Distinct requests in the stream (one cycle); also the length of
    /// the verification pass, so every line is verified once before it
    /// is timed. `batch_heavy` is shorter because a full parse of its
    /// 21 KB reply costs the client about a millisecond.
    pub fn stream_len(self) -> usize {
        match self {
            Workload::BatchHeavy => 512,
            _ => 4096,
        }
    }

    /// True when the stream is served through the router.
    pub fn routed(self) -> bool {
        self == Workload::RoutedCompare
    }
}

/// A profile whose rank `r` sends one message group to `(r + o) % ranks`
/// for each of `fanout` seeded offsets `o` and receives the matching
/// groups, so every rank has exactly `fanout` send and `fanout` receive
/// groups: `ring8` = (8, 1) has 16 groups, `dense16` = (16, 8) has 256,
/// (32, 16) has 1024. Sizes are 1–32 KiB.
pub fn circulant_profile(name: &str, ranks: usize, fanout: usize, rng: &mut StdRng) -> AppProfile {
    assert!(fanout < ranks, "offsets must be distinct and non-zero");
    let mut offsets: Vec<usize> = (1..ranks).collect();
    for i in 0..fanout {
        let j = rng.random_range(i..offsets.len());
        offsets.swap(i, j);
    }
    offsets.truncate(fanout);
    // One (bytes, count) per (sender, offset); the receiver sees the same group.
    let shape: Vec<Vec<(u64, u64)>> = (0..ranks)
        .map(|_| {
            (0..fanout)
                .map(|_| {
                    (
                        rng.random_range(1024u64..32 * 1024 + 1),
                        rng.random_range(10u64..100),
                    )
                })
                .collect()
        })
        .collect();
    let procs = (0..ranks)
        .map(|rank| ProcessProfile {
            rank,
            x: rng.random_range(2.0..8.0),
            o: rng.random_range(0.1..0.4),
            b: rng.random_range(0.2..1.0),
            sends: offsets
                .iter()
                .enumerate()
                .map(|(k, o)| MessageGroup {
                    peer: (rank + o) % ranks,
                    bytes: shape[rank][k].0,
                    count: shape[rank][k].1,
                })
                .collect(),
            recvs: offsets
                .iter()
                .enumerate()
                .map(|(k, o)| {
                    let peer = (rank + ranks - o) % ranks;
                    MessageGroup {
                        peer,
                        bytes: shape[peer][k].0,
                        count: shape[peer][k].1,
                    }
                })
                .collect(),
            profile_speed: 1.0,
            lambda: rng.random_range(0.8..1.2),
        })
        .collect();
    AppProfile {
        name: name.to_string(),
        procs,
        arch_ratios: BTreeMap::new(),
    }
}

/// A seeded injective mapping of `ranks` processes onto `nodes` nodes.
pub fn random_mapping(ranks: usize, nodes: usize, rng: &mut StdRng) -> Mapping {
    let mut ids: Vec<u32> = (0..nodes as u32).collect();
    for i in 0..ranks {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    Mapping::new(ids[..ranks].iter().map(|&n| NodeId(n)).collect())
}

pub fn random_mappings(count: usize, ranks: usize, rng: &mut StdRng) -> Vec<Mapping> {
    (0..count)
        .map(|_| random_mapping(ranks, NODES, rng))
        .collect()
}

/// A full seeded monitoring sweep over every node.
pub fn load_sweep(rng: &mut StdRng) -> LoadState {
    let mut load = LoadState::idle(NODES);
    for n in 0..NODES as u32 {
        load.set_cpu_avail(NodeId(n), rng.random_range(0.3..1.0));
        load.set_nic_load(NodeId(n), rng.random_range(0.0..0.5));
    }
    load
}

/// One workload's generated input: the profiles to register and the
/// request cycle. Request `i` travels with envelope id `i + 1`.
pub struct Stream {
    pub workload: Workload,
    pub profiles: Vec<AppProfile>,
    pub requests: Vec<Request>,
}

impl Stream {
    pub fn generate(workload: Workload, seed: u64) -> Stream {
        let mut rng = StdRng::seed_from_u64(seed);
        let tag = rng.random_range(0u32..0x1_0000);
        let len = workload.stream_len();
        let batch = workload == Workload::BatchHeavy;
        let (shape, ranks, fanout, apps) = if batch {
            ("dense16", 16, 8, BATCH_APPS)
        } else {
            ("ring8", 8, 1, COMPARE_APPS)
        };
        let profiles: Vec<AppProfile> = (0..apps)
            .map(|i| {
                circulant_profile(
                    &format!("{shape}.{tag:04x}.{i:02}"),
                    ranks,
                    fanout,
                    &mut rng,
                )
            })
            .collect();
        // Evaluation request `i` goes to application `i % apps`.
        let evaluate = |i: usize, rng: &mut StdRng| {
            let app = profiles[i % apps].name.clone();
            if batch {
                Request::Batch {
                    app,
                    mappings: random_mappings(32, ranks, rng),
                }
            } else {
                Request::Compare {
                    app,
                    mappings: random_mappings(3, ranks, rng),
                }
            }
        };
        let requests = if workload == Workload::ObserveMixed {
            let depth = workload.depth();
            let mut requests = Vec::with_capacity(len);
            for _ in 0..len / depth {
                let first = rng.random_range(0..depth);
                let second = (first + rng.random_range(1..depth)) % depth;
                for slot in 0..depth {
                    requests.push(if slot == first || slot == second {
                        Request::ObserveLoad {
                            load: load_sweep(&mut rng),
                        }
                    } else {
                        evaluate(requests.len(), &mut rng)
                    });
                }
            }
            requests
        } else {
            (0..len).map(|i| evaluate(i, &mut rng)).collect()
        };
        Stream {
            workload,
            profiles,
            requests,
        }
    }

    /// The wire lines (newline included). `stamped` appends a trace
    /// context to every envelope so the daemon roots a span per request.
    pub fn lines(&self, stamped: bool) -> Vec<Vec<u8>> {
        self.requests
            .iter()
            .enumerate()
            .map(|(i, request)| {
                let id = i as u64 + 1;
                let envelope = if stamped {
                    RequestEnvelope::traced(id, request.clone(), TRACE_ID_BASE + id, 0)
                } else {
                    RequestEnvelope::new(id, request.clone())
                };
                let mut line = encode(&envelope).into_bytes();
                line.push(b'\n');
                line
            })
            .collect()
    }

    /// One `RegisterProfile` line per application, with the ids that
    /// follow the cycle's.
    pub fn register_lines(&self) -> Vec<(u64, Vec<u8>)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, profile)| {
                let id = (self.requests.len() + 1 + i) as u64;
                let request = Request::RegisterProfile {
                    profile: profile.clone(),
                };
                let mut line = encode(&RequestEnvelope::new(id, request)).into_bytes();
                line.push(b'\n');
                (id, line)
            })
            .collect()
    }

    /// For each registered application, the first request of the cycle
    /// that evaluates it.
    pub fn first_per_app(&self) -> Vec<usize> {
        let asks = |request: &Request, name: &str| match request {
            Request::Compare { app, .. } | Request::Batch { app, .. } => app == name,
            _ => false,
        };
        self.profiles
            .iter()
            .filter_map(|p| self.requests.iter().position(|r| asks(r, &p.name)))
            .collect()
    }

    /// `ObserveLoad` requests in one cycle of the stream.
    pub fn observes(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r, Request::ObserveLoad { .. }))
            .count()
    }
}

/// Trace ids of stamped envelopes start here (any non-zero value works).
const TRACE_ID_BASE: u64 = 0x7ace_0000_0000;

/// Pipeline windows: `depth` consecutive lines concatenated so one
/// `write_all` issues the whole window.
pub struct Window {
    /// Stream index of the window's first request.
    pub first: usize,
    pub blob: Vec<u8>,
}

pub fn windows(lines: &[Vec<u8>], depth: usize) -> Vec<Window> {
    assert_eq!(
        lines.len() % depth,
        0,
        "stream length must be whole windows"
    );
    lines
        .chunks(depth)
        .enumerate()
        .map(|(w, chunk)| Window {
            first: w * depth,
            blob: chunk.concat(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbes_server::protocol::decode_request;

    #[test]
    fn same_seed_gives_byte_identical_streams_and_another_seed_differs() {
        for workload in Workload::ALL {
            let a = Stream::generate(workload, 7).lines(false);
            let b = Stream::generate(workload, 7).lines(false);
            let c = Stream::generate(workload, 8).lines(false);
            assert_eq!(a, b, "{}", workload.name());
            assert_ne!(a, c, "{}", workload.name());
        }
    }

    #[test]
    fn every_generated_line_round_trips_through_decode_request() {
        for workload in Workload::ALL {
            let stream = Stream::generate(workload, 3);
            assert_eq!(stream.requests.len(), workload.stream_len());
            for stamped in [false, true] {
                for (i, line) in stream.lines(stamped).iter().enumerate() {
                    let text = std::str::from_utf8(line).unwrap().trim_end();
                    let env = decode_request(text).expect("decodes");
                    assert_eq!(env.id, i as u64 + 1);
                    assert_eq!(env.request, stream.requests[i]);
                    assert_eq!(env.trace_id != 0, stamped);
                }
            }
        }
    }

    #[test]
    fn profiles_have_the_advertised_group_counts_and_mappings_are_injective() {
        let mut rng = StdRng::seed_from_u64(1);
        for (ranks, fanout, groups) in [(8, 1, 16), (16, 8, 256), (32, 16, 1024)] {
            let p = circulant_profile("p", ranks, fanout, &mut rng);
            let total: usize = p.procs.iter().map(|q| q.group_count()).sum();
            assert_eq!(total, groups);
            for q in &p.procs {
                assert!(q.sends.iter().all(|g| g.peer != q.rank && g.peer < ranks));
            }
            assert!(random_mapping(ranks, NODES, &mut rng).is_injective());
        }
    }

    #[test]
    fn every_application_is_evaluated_somewhere_in_its_stream() {
        for workload in Workload::ALL {
            let stream = Stream::generate(workload, 11);
            let firsts = stream.first_per_app();
            assert_eq!(firsts.len(), stream.profiles.len(), "{}", workload.name());
            assert!(firsts
                .iter()
                .all(|&i| !matches!(stream.requests[i], Request::ObserveLoad { .. })));
        }
    }

    #[test]
    fn observe_mixed_windows_hold_two_observes_each() {
        let stream = Stream::generate(Workload::ObserveMixed, 5);
        for window in stream.requests.chunks(Workload::ObserveMixed.depth()) {
            let observes = window
                .iter()
                .filter(|r| matches!(r, Request::ObserveLoad { .. }))
                .count();
            assert_eq!(observes, 2);
        }
    }
}
