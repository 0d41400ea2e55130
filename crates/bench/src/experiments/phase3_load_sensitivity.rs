//! §5 phase 3: tolerance of predictions to background-load changes.
//!
//! LU, SP and BT are profiled and predicted on an idle system; the actual
//! execution then runs with CPU availability reduced on one mapped node.
//! The paper found predictions "highly sensitive": losing just 10 % of one
//! node's CPU pushes the error past the ~4 % band, while light (<10 %)
//! loads stay tolerable. We also show the flip side the paper's design
//! relies on: when the monitor *knows* the load, the load-aware prediction
//! stays accurate.

use crate::harness::Testbed;
use crate::zones::lu_zones;
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::load::LoadState;
use cbes_core::eval::Evaluator;
use cbes_core::mapping::Mapping;
use cbes_workloads::npb::{bt, lu, sp, NpbClass};
use cbes_workloads::Workload;

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let runs = args.reps(3, 5);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let pool = &zones[0].pool; // 8 Alphas
    let losses = [0.0, 0.05, 0.10, 0.20, 0.30];

    let mut text = format!(
        "Phase 3 — prediction tolerance to background load changes\n\
         (one mapped node loses CPU availability after the prediction; {} runs)\n",
        runs
    );

    let cases: Vec<Workload> = vec![lu(8, NpbClass::A), sp(8, NpbClass::A), bt(8, NpbClass::A)];

    let mut t = Table::new(&[
        "benchmark",
        "CPU loss %",
        "stale pred err %",
        "load-aware err %",
    ]);
    let mut rows_json = Vec::new();
    for w in &cases {
        let profile = tb.profile(w, pool, args.seed + 3);
        let mapping = Mapping::new(pool.clone());
        // Prediction made on the idle snapshot ("stale" once load appears).
        let stale_pred = tb.predict(&profile, &mapping);
        let victim = pool[0];
        for &loss in &losses {
            let mut load = LoadState::idle(tb.cluster.len());
            load.set_cpu_avail(victim, 1.0 - loss);
            let measured = tb.measure_n(w, &mapping, &load, args.seed + 91, runs);
            let m = stats::mean(&measured);
            let stale_err = stats::pct_error(stale_pred, m).abs();
            // Load-aware prediction: the monitor has seen the new load.
            let snap = tb.snapshot_with(load.clone());
            let aware_pred = Evaluator::new(&profile, &snap).predict_time(&mapping);
            let aware_err = stats::pct_error(aware_pred, m).abs();
            t.row(vec![
                w.name.clone(),
                format!("{:.0}", loss * 100.0),
                format!("{stale_err:.2}"),
                format!("{aware_err:.2}"),
            ]);
            rows_json.push(serde_json::json!({
                "benchmark": w.name, "cpu_loss_pct": loss * 100.0,
                "stale_error_pct": stale_err, "aware_error_pct": aware_err,
            }));
        }
    }
    text += &t.titled("Prediction error under post-prediction load change (paper §5 phase 3)");
    text += "paper reference: a single node losing 10% CPU pushes the (stale) \
             error past ~4%;\nloads under 10% were found tolerable. The load-aware \
             column shows why CBES\nre-snapshots load before every evaluation.\n";

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "phase3_load_sensitivity", json)
}
