//! Figure 5: prediction errors for the NPB 2.4 suite and HPL on Centurion.
//!
//! Each benchmark is profiled on one mapping, then predicted and measured
//! (5 runs) on a *different* mapping of the listed node count; the bar is
//! the mean absolute percent error with its 95 % CI. The paper observes
//! mean errors below ~3.5 % (one case slightly under 4 %).

use std::fmt::Write as _;

use crate::harness::Testbed;
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::load::LoadState;
use cbes_cluster::{Cluster, NodeId};
use cbes_core::mapping::Mapping;
use cbes_workloads::npb::{bt, cg, ep, is, lu, mg, sp, NpbClass};
use cbes_workloads::{hpl, Workload};

/// A contiguous profiling mapping: the first `n` node ids.
fn profiling_mapping(n: usize) -> Vec<NodeId> {
    (0..n as u32).map(NodeId).collect()
}

/// A test mapping deliberately different from the profiling one: blocks of
/// eight nodes taken from each edge switch in turn — the shape of a real
/// scheduler allocation (mixed architectures and switch spans, but not the
/// pathological fully-interleaved placement no allocator would produce).
fn spread_mapping(cluster: &Cluster, n: usize) -> Mapping {
    const BLOCK: usize = 8;
    let mut per_switch: Vec<Vec<NodeId>> = vec![Vec::new(); cluster.switches().len()];
    for node in cluster.nodes() {
        per_switch[node.switch.index()].push(node.id);
    }
    let mut out = Vec::with_capacity(n);
    let mut round = 0usize;
    while out.len() < n {
        let mut progressed = false;
        for sw in &per_switch {
            for &id in sw.iter().skip(round * BLOCK).take(BLOCK) {
                if out.len() < n {
                    out.push(id);
                    progressed = true;
                }
            }
        }
        assert!(progressed, "cluster too small for {n} ranks");
        round += 1;
    }
    Mapping::new(out)
}

/// EP-B "16(2)": 16 ranks on 8 dual-CPU Intel nodes, two ranks per node.
fn dual_cpu_mapping(cluster: &Cluster, ranks: usize) -> Mapping {
    let intels: Vec<NodeId> = cluster
        .nodes()
        .iter()
        .filter(|n| n.cpus >= 2)
        .map(|n| n.id)
        .collect();
    let nodes_needed = ranks / 2;
    assert!(intels.len() >= nodes_needed);
    let mut out = Vec::with_capacity(ranks);
    for i in 0..ranks {
        out.push(intels[i / 2]);
    }
    Mapping::new(out)
}

struct Case {
    label: &'static str,
    nodes_label: &'static str,
    workload: Workload,
    dual: bool,
}

fn cases(full: bool) -> Vec<Case> {
    let big = |n: usize| if full { n } else { n.min(32) };
    vec![
        Case {
            label: "IS-A",
            nodes_label: "16",
            workload: is(16, NpbClass::A),
            dual: false,
        },
        Case {
            label: "EP-B",
            nodes_label: "16(2)",
            workload: ep(16, NpbClass::B),
            dual: true,
        },
        Case {
            label: "SP-A",
            nodes_label: "64",
            workload: sp(big(64), NpbClass::A),
            dual: false,
        },
        Case {
            label: "SP-B",
            nodes_label: "121",
            workload: sp(big(121), NpbClass::B),
            dual: false,
        },
        Case {
            label: "MG-A",
            nodes_label: "64",
            workload: mg(big(64), NpbClass::A),
            dual: false,
        },
        Case {
            label: "MG-B",
            nodes_label: "128",
            workload: mg(big(128), NpbClass::B),
            dual: false,
        },
        Case {
            label: "CG-A",
            nodes_label: "64",
            workload: cg(big(64), NpbClass::A),
            dual: false,
        },
        Case {
            label: "BT-S",
            nodes_label: "16",
            workload: bt(16, NpbClass::S),
            dual: false,
        },
        Case {
            label: "BT-A",
            nodes_label: "64",
            workload: bt(big(64), NpbClass::A),
            dual: false,
        },
        Case {
            label: "BT-B",
            nodes_label: "121",
            workload: bt(big(121), NpbClass::B),
            dual: false,
        },
        Case {
            label: "LU-A",
            nodes_label: "64",
            workload: lu(big(64), NpbClass::A),
            dual: false,
        },
        Case {
            label: "LU-B",
            nodes_label: "128",
            workload: lu(big(128), NpbClass::B),
            dual: false,
        },
        Case {
            label: "HPL",
            nodes_label: "64",
            workload: hpl::hpl(big(64), 10_000),
            dual: false,
        },
    ]
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let runs = args.reps(5, 5);
    let tb = Testbed::centurion(args.seed);
    let idle = LoadState::idle(tb.cluster.len());

    let mut text = format!(
        "Figure 5 — prediction error, NPB 2.4 suite + HPL on Centurion \
         ({} runs per case{})\n",
        runs,
        if args.full {
            ""
        } else {
            "; node counts capped at 32, use --full for paper sizes"
        }
    );

    let mut t = Table::new(&[
        "benchmark",
        "nodes",
        "predicted (s)",
        "measured (s)",
        "CI95 (s)",
        "error %",
    ]);
    let mut rows_json = Vec::new();
    let mut errors = Vec::new();
    for case in cases(args.full) {
        let n = case.workload.num_ranks();
        let (prof_map, test_map) = if case.dual {
            // Profile on single-CPU placement, test on the dual-CPU one.
            (profiling_mapping(n), dual_cpu_mapping(&tb.cluster, n))
        } else {
            (profiling_mapping(n), spread_mapping(&tb.cluster, n))
        };
        let profile = tb.profile(&case.workload, &prof_map, args.seed + 3);
        let predicted = tb.predict(&profile, &test_map);
        let measured = tb.measure_n(&case.workload, &test_map, &idle, args.seed + 100, runs);
        let m = stats::mean(&measured);
        let err = stats::pct_error(predicted, m).abs();
        errors.push(err);
        t.row(vec![
            case.label.to_string(),
            case.nodes_label.to_string(),
            format!("{predicted:.3}"),
            format!("{m:.3}"),
            format!("±{:.3}", stats::ci95(&measured)),
            format!("{err:.2}"),
        ]);
        rows_json.push(serde_json::json!({
            "benchmark": case.label, "nodes": case.nodes_label,
            "predicted": predicted, "measured_mean": m,
            "measured_ci95": stats::ci95(&measured), "error_pct": err,
        }));
    }
    text += &t.titled("Prediction errors, NPB 2.4 suite and HPL (paper figure 5)");
    let _ = writeln!(
        text,
        "mean |error| {:.2}%, max {:.2}% — paper: all means < 3.5% (one ~4%)",
        stats::mean(&errors),
        stats::max(&errors)
    );

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "fig5_prediction_error", json)
}
