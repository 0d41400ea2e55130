//! Tables 1 and 3: worst-case vs. best-case scenario per test case.
//!
//! NCS cannot distinguish compute-equivalent mappings, so the worst time
//! over its selections approaches the case's worst mapping; CS
//! consistently selects the fastest. The speedup column is
//! `(worst − best) / worst`.
//!
//! Table 1 runs LU over the three Orange Grove node groups. Table 3 runs
//! the remaining programs — HPL (three problem sizes), sweep3d, smg2000
//! (three sizes), SAMRAI, Towhee and Aztec — on a homogeneous node subset,
//! isolating the effect of communication. Four of its cases are expected
//! to show "uncertain speedup": sweep3d and SAMRAI (near-all-to-all
//! patterns), Towhee (embarrassingly parallel), and HPL(1) (too short).

use std::fmt::Write as _;

use crate::harness::Testbed;
use crate::lu_exp::{mean_sched_secs, measured, prepare_lu, run_scheduler, Driver, ProfiledApp};
use crate::zones::{homogeneous_pool, lu_zones};
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::NodeId;
use cbes_workloads::{asci, hpl, Workload};

const HEADERS: [&str; 6] = [
    "test case",
    "worst (meas, s)",
    "best (meas, s)",
    "speedup %",
    "sched time (s)",
    "comments",
];

/// One row of either table: NCS's worst and CS's best measured time over
/// `runs` scheduling runs each, and CS's mean scheduler wall time (printed
/// only — it is not seed-determined, so it stays out of the JSON).
struct WorstBest {
    worst: f64,
    best: f64,
    speedup_pct: f64,
    sched_secs: f64,
}

fn worst_best(
    tb: &Testbed,
    app: &ProfiledApp,
    pool: &[NodeId],
    runs: usize,
    (ncs_seed, cs_seed): (u64, u64),
) -> WorstBest {
    let ncs = run_scheduler(tb, app, pool, Driver::Ncs, runs, ncs_seed);
    let cs = run_scheduler(tb, app, pool, Driver::Cs, runs, cs_seed);
    let worst = stats::max(&measured(&ncs));
    let best = stats::min(&measured(&cs));
    WorstBest {
        worst,
        best,
        speedup_pct: stats::speedup_pct(worst, best),
        sched_secs: mean_sched_secs(&cs),
    }
}

impl WorstBest {
    fn cells(&self, case: &str, comment: &str) -> Vec<String> {
        vec![
            case.to_string(),
            format!("{:.3}", self.worst),
            format!("{:.3}", self.best),
            format!("{:.1}", self.speedup_pct),
            format!("{:.4}", self.sched_secs),
            comment.to_string(),
        ]
    }
}

/// Table 1: LU worst vs. best case per node group.
pub fn table1(args: &ExpArgs) -> Report {
    let runs = args.reps(15, 50);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let setup = prepare_lu(&tb, &zones);

    let mut text = format!(
        "Table 1 — LU worst vs best case ({} scheduler runs per zone, {})\n",
        runs, setup.workload.name
    );
    let mut t = Table::new(&HEADERS);
    let mut rows_json = Vec::new();
    let mut global_best = f64::INFINITY;
    let mut global_worst: f64 = 0.0;
    for zone in &zones {
        let seeds = (args.seed, args.seed + 1000);
        let row = worst_best(&tb, &setup, &zone.pool, runs, seeds);
        global_best = global_best.min(row.best);
        global_worst = global_worst.max(row.worst);
        let case = format!("LU ({})", zone.id);
        t.row(row.cells(&case, zone.name));
        rows_json.push(serde_json::json!({
            "case": case, "worst": row.worst, "best": row.best,
            "speedup_pct": row.speedup_pct,
        }));
    }
    let vs_rs = stats::speedup_pct(global_worst, global_best);
    text += &t.titled("LU: worst vs best case scenario (paper table 1)");
    let _ = writeln!(
        text,
        "max potential speedup vs RS over all zones: {vs_rs:.1}% (paper: 36.6%)\n\
         paper's per-zone speedups for reference: 5.3 / 9.3 / 6.0 %"
    );

    let json = serde_json::json!({ "rows": rows_json, "vs_rs_speedup_pct": vs_rs });
    Report::one(text, "table1_lu_worst_best", json)
}

fn table3_cases() -> Vec<(Workload, &'static str)> {
    vec![
        (hpl::hpl(8, 500), "500 problem size (uncertain speedup)"),
        (hpl::hpl(8, 5_000), "5,000 problem size"),
        (hpl::hpl(8, 10_000), "10,000 problem size"),
        (asci::sweep3d(8), "uncertain speedup (near all-to-all)"),
        (asci::smg2000(8, 12), "12x12x12 problem size"),
        (asci::smg2000(8, 50), "50x50x50 problem size"),
        (asci::smg2000(8, 60), "60x60x60 problem size"),
        (asci::samrai(8), "uncertain speedup (irregular all-to-all)"),
        (
            asci::towhee(8),
            "uncertain speedup (embarrassingly parallel)",
        ),
        (asci::aztec(8), "Poisson solver"),
    ]
}

/// Table 3: the other programs, worst vs. best case on the SPARC pool.
pub fn table3(args: &ExpArgs) -> Report {
    let runs = args.reps(12, 40);
    let tb = Testbed::orange_grove(args.seed);
    let pool = homogeneous_pool(&tb.cluster);

    let mut text = format!(
        "Table 3 — other programs, worst vs best case on the homogeneous \
         SPARC pool ({} nodes, {} scheduler runs per case)\n",
        pool.len(),
        runs
    );
    let mut t = Table::new(&HEADERS);
    let mut rows_json = Vec::new();
    for (w, comment) in table3_cases() {
        // Profile on the first 8 pool nodes.
        let ranks = w.num_ranks();
        let app = ProfiledApp::new(&tb, w, &pool[..ranks], args.seed + 7);
        let seeds = (args.seed, args.seed + 500);
        let row = worst_best(&tb, &app, &pool, runs, seeds);
        let case = &app.workload.name;
        t.row(row.cells(case, comment));
        rows_json.push(serde_json::json!({
            "case": case, "worst": row.worst, "best": row.best,
            "speedup_pct": row.speedup_pct, "comment": comment,
        }));
    }
    text += &t.titled("Other tests: worst vs best case scenario (paper table 3)");
    text += "paper reference: speedups 5.6–10.8% for the schedulable cases;\n\
             sweep3d, SAMRAI, Towhee and HPL(500) show uncertain speedup\n";

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "table3_other_worst_best", json)
}
