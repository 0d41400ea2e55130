//! Tables 2 and 4: the average-case scenario — what a scheduling request
//! yields in practice. 100 CS and 100 NCS runs per case (scaled down by
//! default); reports average predicted time, hit rate (selections
//! achieving the minimum execution time), average measured time, and
//! expected/measured/maximum speedups of CS over NCS.
//!
//! Table 2 runs LU over the three Orange Grove node groups; table 4 the
//! schedulable table-3 programs — HPL(5000), HPL(10000), smg2000 (three
//! sizes) and Aztec — on the homogeneous SPARC pool.

use crate::harness::Testbed;
use crate::lu_exp::{
    hit_rate, measured, predicted, prepare_lu, run_scheduler, Driver, ProfiledApp,
};
use crate::zones::{homogeneous_pool, lu_zones};
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::NodeId;
use cbes_workloads::{asci, hpl, Workload};

const HEADERS: [&str; 10] = [
    "test case",
    "NCS pred (s)",
    "NCS hits %",
    "NCS meas (s)",
    "CS pred (s)",
    "CS hits %",
    "CS meas (s)",
    "exp sp %",
    "meas sp %",
    "max sp %",
];

/// One row of either table: `runs` NCS and `runs` CS scheduling runs of
/// `app` over `pool`, as table cells and as the JSON row.
fn average_case(
    tb: &Testbed,
    app: &ProfiledApp,
    pool: &[NodeId],
    runs: usize,
    (ncs_seed, cs_seed): (u64, u64),
    case: &str,
) -> (Vec<String>, serde_json::Value) {
    let ncs = run_scheduler(tb, app, pool, Driver::Ncs, runs, ncs_seed);
    let cs = run_scheduler(tb, app, pool, Driver::Cs, runs, cs_seed);
    let (ncs_pred, ncs_meas) = (predicted(&ncs), measured(&ncs));
    let (cs_pred, cs_meas) = (predicted(&cs), measured(&cs));
    // Best prediction and best/worst measurement seen for this case.
    let best_pred = stats::min(&cs_pred).min(stats::min(&ncs_pred));
    let best = stats::min(&cs_meas).min(stats::min(&ncs_meas));
    let worst = stats::max(&ncs_meas).max(stats::max(&cs_meas));
    // From here on the four names are the means the table reports.
    let (ncs_pred, ncs_meas) = (stats::mean(&ncs_pred), stats::mean(&ncs_meas));
    let (cs_pred, cs_meas) = (stats::mean(&cs_pred), stats::mean(&cs_meas));
    let expected = stats::speedup_pct(ncs_pred, cs_pred);
    let measured_sp = stats::speedup_pct(ncs_meas, cs_meas);
    let max_sp = stats::speedup_pct(worst, best);
    let (ncs_hits, cs_hits) = (
        hit_rate(&ncs, best_pred, 0.005),
        hit_rate(&cs, best_pred, 0.005),
    );
    let cells = vec![
        case.to_string(),
        format!("{ncs_pred:.3}"),
        format!("{ncs_hits:.0}"),
        format!("{ncs_meas:.3}"),
        format!("{cs_pred:.3}"),
        format!("{cs_hits:.0}"),
        format!("{cs_meas:.3}"),
        format!("{expected:.1}"),
        format!("{measured_sp:.1}"),
        format!("{max_sp:.1}"),
    ];
    let json = serde_json::json!({
        "case": case,
        "ncs": {"pred": ncs_pred, "meas": ncs_meas, "hits_pct": ncs_hits},
        "cs": {"pred": cs_pred, "meas": cs_meas, "hits_pct": cs_hits},
        "expected_speedup_pct": expected,
        "measured_speedup_pct": measured_sp,
        "max_speedup_pct": max_sp,
    });
    (cells, json)
}

/// Table 2: LU average case per node group.
pub fn table2(args: &ExpArgs) -> Report {
    let runs = args.reps(30, 100);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let setup = prepare_lu(&tb, &zones);

    let mut text = format!(
        "Table 2 — LU average case ({} CS + {} NCS runs per zone, {})\n",
        runs, runs, setup.workload.name
    );
    let mut t = Table::new(&HEADERS);
    let mut rows_json = Vec::new();
    for zone in &zones {
        let seeds = (args.seed, args.seed + 1000);
        let case = format!("LU ({})", zone.id);
        let (cells, json) = average_case(&tb, &setup, &zone.pool, runs, seeds, &case);
        t.row(cells);
        rows_json.push(json);
    }
    text += &t.titled("LU: average case scenario (paper table 2)");
    text += "paper reference: CS ≈ 90% hits / NCS < 3% hits; measured speedups 4.8 / 8.7 / 5.5 %\n";

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "table2_lu_average", json)
}

fn table4_cases() -> Vec<Workload> {
    vec![
        hpl::hpl(8, 5_000),
        hpl::hpl(8, 10_000),
        asci::smg2000(8, 12),
        asci::smg2000(8, 50),
        asci::smg2000(8, 60),
        asci::aztec(8),
    ]
}

/// Table 4: the schedulable table-3 programs, average case.
pub fn table4(args: &ExpArgs) -> Report {
    let runs = args.reps(25, 100);
    let tb = Testbed::orange_grove(args.seed);
    let pool = homogeneous_pool(&tb.cluster);

    let mut text = format!(
        "Table 4 — other programs, average case on the homogeneous SPARC \
         pool ({} CS + {} NCS runs per case)\n",
        runs, runs
    );
    let mut t = Table::new(&HEADERS);
    let mut rows_json = Vec::new();
    for w in table4_cases() {
        let ranks = w.num_ranks();
        let app = ProfiledApp::new(&tb, w, &pool[..ranks], args.seed + 7);
        let seeds = (args.seed, args.seed + 500);
        let case = &app.workload.name;
        let (cells, json) = average_case(&tb, &app, &pool, runs, seeds, case);
        t.row(cells);
        rows_json.push(json);
    }
    text += &t.titled("Other tests: average case scenario (paper table 4)");
    text += "paper reference: average speedups 5.2–10.3%, CS hit rates 85–98%\n";

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "table4_other_average", json)
}
