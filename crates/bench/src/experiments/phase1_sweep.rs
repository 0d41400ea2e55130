//! §5 phase 1: synthetic-benchmark parameter sweep validating the
//! prediction formulation across computation/communication overlap,
//! communication granularity, duration, and mapping mixes on both clusters.
//!
//! The paper swept >16,000 cases (5 runs each) and found >90 % of cases
//! within 4 % error, mean ≈2 % ± 0.75. The default here is a scaled-down
//! grid; `--full` expands it.

use std::fmt::Write as _;

use crate::harness::{parallel_map, Testbed};
use crate::{args::ExpArgs, stats, Report};
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, NodeId};
use cbes_core::mapping::Mapping;
use cbes_workloads::{SynthPattern, SyntheticSpec};

/// Three mapping mixes per cluster: co-located, spread over switches, and
/// maximally heterogeneous (cross-architecture / cross-federation).
fn mapping_mixes(cluster: &Cluster, n: usize) -> Vec<(&'static str, Mapping)> {
    let ids: Vec<NodeId> = cluster.node_ids().collect();
    let colocated = Mapping::new(ids[..n].to_vec());
    // Spread: stride so consecutive ranks land on different switches.
    let stride = (cluster.len() / n).max(1);
    let spread = Mapping::new((0..n).map(|i| ids[(i * stride) % ids.len()]).collect());
    // Heterogeneous: half the processes at the front of the id space, half
    // at the back (different architectures in both presets; on Orange Grove
    // the job straddles the federation link, as a real co-allocation would,
    // without routing every neighbour edge across it).
    let hetero = Mapping::new(
        (0..n)
            .map(|i| {
                if i < n / 2 {
                    ids[i]
                } else {
                    ids[ids.len() - 1 - (i - n / 2)]
                }
            })
            .collect(),
    );
    vec![
        ("colocated", colocated),
        ("spread", spread),
        ("hetero", hetero),
    ]
}

struct CaseResult {
    cluster: &'static str,
    err_pct: f64,
}

/// Run the experiment.
#[allow(clippy::type_complexity)]
pub fn run(args: &ExpArgs) -> Report {
    let runs = args.reps(3, 5);
    let procs = 8;

    let (overlaps, comps, msgs, bytes, iters, patterns): (
        Vec<f64>,
        Vec<f64>,
        Vec<u32>,
        Vec<u64>,
        Vec<u32>,
        Vec<SynthPattern>,
    ) = if args.full {
        (
            vec![0.0, 0.25, 0.5, 0.75, 1.0],
            vec![0.002, 0.01, 0.05],
            vec![1, 4, 12],
            vec![512, 4 * 1024, 32 * 1024],
            vec![5, 15, 40],
            vec![
                SynthPattern::Ring,
                SynthPattern::Pairs,
                SynthPattern::AllToAll,
            ],
        )
    } else {
        (
            vec![0.0, 0.5, 1.0],
            vec![0.005, 0.03],
            vec![2, 8],
            vec![2 * 1024, 16 * 1024],
            vec![8, 24],
            vec![SynthPattern::Ring, SynthPattern::AllToAll],
        )
    };

    let mut specs = Vec::new();
    for &overlap in &overlaps {
        for &comp_per_iter in &comps {
            for &msgs_per_iter in &msgs {
                for &msg_bytes in &bytes {
                    // Stay out of the link-saturation regime: once a shared
                    // link's offered load exceeds its capacity, execution
                    // time is set by queueing, which eq. 4-8 does not model
                    // (and which the paper's testbed sweep did not enter).
                    if msg_bytes * msgs_per_iter as u64 > 32 * 1024 {
                        continue;
                    }
                    for &it in &iters {
                        for &pattern in &patterns {
                            specs.push(SyntheticSpec {
                                procs,
                                iters: it,
                                comp_per_iter,
                                msgs_per_iter,
                                msg_bytes,
                                overlap,
                                pattern,
                            });
                        }
                    }
                }
            }
        }
    }

    let testbeds = [
        ("centurion", Testbed::centurion(args.seed)),
        ("orange-grove", Testbed::orange_grove(args.seed)),
    ];
    let total_cases: usize = specs.len() * testbeds.len() * 3;
    let mut text = format!(
        "Phase 1 — synthetic parameter sweep: {} specs × 2 clusters × 3 \
         mapping mixes = {} cases, {} runs each (paper: >16,000 cases)\n",
        specs.len(),
        total_cases,
        runs
    );

    let mut results: Vec<CaseResult> = Vec::new();
    for (name, tb) in &testbeds {
        let idle = LoadState::idle(tb.cluster.len());
        let mixes = mapping_mixes(&tb.cluster, procs);
        // One profiling mapping per cluster: the co-located one.
        let outcomes = parallel_map(specs.clone(), |spec| {
            let w = spec.build();
            let prof_map = mixes[0].1.as_slice().to_vec();
            let profile = tb.profile(&w, &prof_map, args.seed + 17);
            mixes
                .iter()
                .map(|(_, m)| {
                    let predicted = tb.predict(&profile, m);
                    let measured: Vec<f64> = (0..runs as u64)
                        .map(|i| tb.measure(&w, m, &idle, args.seed + 31 + i))
                        .collect();
                    stats::pct_error(predicted, stats::mean(&measured)).abs()
                })
                .collect::<Vec<f64>>()
        });
        for errs in outcomes {
            for err_pct in errs {
                results.push(CaseResult {
                    cluster: name,
                    err_pct,
                });
            }
        }
    }

    let errors: Vec<f64> = results.iter().map(|r| r.err_pct).collect();
    let within4 = errors.iter().filter(|&&e| e <= 4.0).count() as f64 / errors.len() as f64;
    let _ = writeln!(
        text,
        "\ncases: {}\nwithin 4% error: {:.1}% of cases (paper: >90%)\n\
         mean |error|: {:.2}% ± {:.2} (95% CI)  (paper: ≈2% ± 0.75)\n\
         max |error|: {:.2}%",
        errors.len(),
        within4 * 100.0,
        stats::mean(&errors),
        stats::ci95(&errors),
        stats::max(&errors)
    );
    for cl in ["centurion", "orange-grove"] {
        let e: Vec<f64> = results
            .iter()
            .filter(|r| r.cluster == cl)
            .map(|r| r.err_pct)
            .collect();
        let _ = writeln!(
            text,
            "  {cl}: mean {:.2}%, max {:.2}%",
            stats::mean(&e),
            stats::max(&e)
        );
    }

    let json = serde_json::json!({
        "cases": errors.len(),
        "within_4pct": within4,
        "mean_error_pct": stats::mean(&errors),
        "ci95": stats::ci95(&errors),
        "max_error_pct": stats::max(&errors),
    });
    Report::one(text, "phase1_sweep", json)
}
