//! Application profiles — the summarised behaviour CBES evaluates mappings
//! against (paper §2–3).

use cbes_cluster::Architecture;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A group of same-size messages exchanged with one peer (`mc_j` messages of
/// `ms_j` bytes in paper eq. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MessageGroup {
    /// The peer rank.
    pub peer: usize,
    /// Message size in bytes (`ms`).
    pub bytes: u64,
    /// Number of messages in the group (`mc`).
    pub count: u64,
}

/// Profile of one application process (paper §3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessProfile {
    /// The process (MPI rank).
    pub rank: usize,
    /// `X_i`: accumulated own-code execution time, seconds, on the
    /// profiling node.
    pub x: f64,
    /// `O_i`: accumulated message-passing library overhead, seconds.
    pub o: f64,
    /// `B_i`: accumulated blocked time, seconds.
    pub b: f64,
    /// Message groups this process sent, one entry per (peer, size).
    pub sends: Vec<MessageGroup>,
    /// Message groups this process received, one entry per (peer, size).
    pub recvs: Vec<MessageGroup>,
    /// `Speed_profile_j`: relative speed of the node this process was
    /// profiled on (numerator of the speed ratio in eq. 5).
    pub profile_speed: f64,
    /// `λ_i = B_i / Θ_i^profile` (eq. 7): expansion (>1) or overlap-driven
    /// reduction (<1) of theoretical communication time.
    pub lambda: f64,
}

impl ProcessProfile {
    /// Total number of message groups (the evaluation-cost driver the paper
    /// identifies: complex communication patterns make each mapping
    /// evaluation more expensive).
    pub fn group_count(&self) -> usize {
        self.sends.len() + self.recvs.len()
    }
}

/// A complete application profile: per-process summaries plus experimentally
/// measured per-architecture speed ratios (footnote to eq. 5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppProfile {
    /// Application name, e.g. `"lu.A.8"`.
    pub name: String,
    /// Per-process profiles, indexed by rank.
    pub procs: Vec<ProcessProfile>,
    /// Relative speed this application achieves on each architecture
    /// (reference architecture = 1.0).
    pub arch_ratios: BTreeMap<Architecture, f64>,
}

impl AppProfile {
    /// Number of processes the application was profiled with (`n_M`).
    pub fn num_procs(&self) -> usize {
        self.procs.len()
    }

    /// Aggregate computation time `Σ (X_i + O_i)` over all processes.
    pub fn total_compute(&self) -> f64 {
        self.procs.iter().map(|p| p.x + p.o).sum()
    }

    /// Aggregate blocked (communication) time `Σ B_i`.
    pub fn total_comm(&self) -> f64 {
        self.procs.iter().map(|p| p.b).sum()
    }

    /// Computation share of total busy time, in `[0, 1]` — the paper quotes
    /// e.g. an "80%/20% computation to communication ratio" for LU(2).
    pub fn compute_fraction(&self) -> f64 {
        let c = self.total_compute();
        let m = self.total_comm();
        if c + m > 0.0 {
            c / (c + m)
        } else {
            1.0
        }
    }

    /// Serialise to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("profile serialisation cannot fail")
    }

    /// Parse a profile back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proc_profile(rank: usize, x: f64, b: f64) -> ProcessProfile {
        ProcessProfile {
            rank,
            x,
            o: 0.1,
            b,
            sends: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 1024,
                count: 10,
            }],
            recvs: vec![MessageGroup {
                peer: 1 - rank,
                bytes: 1024,
                count: 10,
            }],
            profile_speed: 1.0,
            lambda: 1.0,
        }
    }

    fn app() -> AppProfile {
        AppProfile {
            name: "t".into(),
            procs: vec![proc_profile(0, 4.0, 0.9), proc_profile(1, 3.8, 1.1)],
            arch_ratios: BTreeMap::from([(Architecture::Alpha, 1.0), (Architecture::Sparc, 0.65)]),
        }
    }

    #[test]
    fn aggregates_are_consistent() {
        let a = app();
        assert_eq!(a.num_procs(), 2);
        assert!((a.total_compute() - 8.0).abs() < 1e-12);
        assert!((a.total_comm() - 2.0).abs() < 1e-12);
        assert!((a.compute_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn profile_json_roundtrip() {
        let a = app();
        let back = AppProfile::from_json(&a.to_json()).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn per_process_accessors() {
        let p = proc_profile(0, 1.0, 1.0);
        assert_eq!(p.group_count(), 2);
    }

    #[test]
    fn empty_profile_compute_fraction_is_one() {
        let a = AppProfile {
            name: "e".into(),
            procs: vec![],
            arch_ratios: BTreeMap::new(),
        };
        assert_eq!(a.compute_fraction(), 1.0);
    }
}

/// Merge several profiles of the *same process set* (e.g. per-phase
/// profiles) into one cumulative profile: times add, message groups merge,
/// and `λ` is re-derived as total blocked time over total theoretical time
/// (`Θ_i` is recovered per part as `B_i / λ_i`).
///
/// # Panics
/// Panics if `parts` is empty or the process counts differ.
pub fn merge_profiles(name: &str, parts: &[&AppProfile]) -> AppProfile {
    assert!(!parts.is_empty(), "nothing to merge");
    let n = parts[0].num_procs();
    assert!(
        parts.iter().all(|p| p.num_procs() == n),
        "all parts must cover the same processes"
    );
    let procs = (0..n)
        .map(|rank| {
            let mut x = 0.0;
            let mut o = 0.0;
            let mut b = 0.0;
            let mut theta = 0.0;
            let mut sends: std::collections::BTreeMap<(usize, u64), u64> = Default::default();
            let mut recvs: std::collections::BTreeMap<(usize, u64), u64> = Default::default();
            for part in parts {
                let p = &part.procs[rank];
                x += p.x;
                o += p.o;
                b += p.b;
                if p.lambda > 0.0 {
                    theta += p.b / p.lambda;
                }
                for g in &p.sends {
                    *sends.entry((g.peer, g.bytes)).or_insert(0) += g.count;
                }
                for g in &p.recvs {
                    *recvs.entry((g.peer, g.bytes)).or_insert(0) += g.count;
                }
            }
            let group = |m: std::collections::BTreeMap<(usize, u64), u64>| {
                m.into_iter()
                    .map(|((peer, bytes), count)| MessageGroup { peer, bytes, count })
                    .collect::<Vec<_>>()
            };
            ProcessProfile {
                rank,
                x,
                o,
                b,
                sends: group(sends),
                recvs: group(recvs),
                profile_speed: parts[0].procs[rank].profile_speed,
                lambda: if theta > 0.0 { b / theta } else { 1.0 },
            }
        })
        .collect();
    AppProfile {
        name: name.to_string(),
        procs,
        arch_ratios: parts[0].arch_ratios.clone(),
    }
}

#[cfg(test)]
mod merge_tests {
    use super::*;

    fn part(x: f64, b: f64, lambda: f64, bytes: u64) -> AppProfile {
        AppProfile {
            name: "part".into(),
            procs: vec![ProcessProfile {
                rank: 0,
                x,
                o: 0.0,
                b,
                sends: vec![MessageGroup {
                    peer: 1,
                    bytes,
                    count: 5,
                }],
                recvs: vec![],
                profile_speed: 1.0,
                lambda,
            }],
            arch_ratios: std::collections::BTreeMap::new(),
        }
    }

    #[test]
    fn merge_sums_times_and_groups() {
        let a = part(1.0, 0.5, 1.0, 64);
        let b = part(2.0, 0.25, 0.5, 64);
        let m = merge_profiles("m", &[&a, &b]);
        assert_eq!(m.name, "m");
        let p = &m.procs[0];
        assert!((p.x - 3.0).abs() < 1e-12);
        assert!((p.b - 0.75).abs() < 1e-12);
        // Same (peer, size) groups merge: 5 + 5 messages.
        assert_eq!(
            p.sends,
            vec![MessageGroup {
                peer: 1,
                bytes: 64,
                count: 10
            }]
        );
        // Θ = 0.5/1.0 + 0.25/0.5 = 1.0; λ = 0.75 / 1.0.
        assert!((p.lambda - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_keeps_distinct_sizes_separate() {
        let a = part(1.0, 0.1, 1.0, 64);
        let b = part(1.0, 0.1, 1.0, 128);
        let m = merge_profiles("m", &[&a, &b]);
        assert_eq!(m.procs[0].sends.len(), 2);
    }

    #[test]
    #[should_panic(expected = "nothing to merge")]
    fn merge_rejects_empty() {
        let _ = merge_profiles("m", &[]);
    }
}
