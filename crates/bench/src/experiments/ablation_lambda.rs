//! Ablation: the λ correction factor (paper eq. 7–8).
//!
//! λ rescales the theoretical communication time by the ratio observed
//! during profiling, absorbing overlap and overhead effects. This ablation
//! predicts with the profiled λ vs. with λ forced to 1, across several
//! workloads and mappings — showing λ is what keeps errors in the few-%
//! band.

use crate::harness::Testbed;
use crate::zones::{lu_zones, sample_mappings};
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::load::LoadState;
use cbes_core::eval::Evaluator;
use cbes_workloads::npb::{cg, is, lu, sp, NpbClass};
use cbes_workloads::Workload;

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let mappings_per_case = args.reps(6, 20);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    // Profile on the homogeneous Alpha group (as the scheduling experiments
    // do); predict mappings drawn from the mixed medium-speed pool.
    let profiling_pool = &zones[0].pool;
    let pool = &zones[1].pool;
    let idle = LoadState::idle(tb.cluster.len());

    let cases: Vec<Workload> = vec![
        lu(8, NpbClass::A),
        sp(8, NpbClass::A),
        cg(8, NpbClass::A),
        is(8, NpbClass::A),
    ];

    let mut text = format!(
        "Ablation — λ correction factor: prediction error with profiled λ \
         vs λ := 1 ({} mappings per workload)\n",
        mappings_per_case
    );

    let mut t = Table::new(&["workload", "mean λ", "err with λ %", "err with λ=1 %"]);
    let mut rows_json = Vec::new();
    for w in &cases {
        let profile = tb.profile(w, &profiling_pool[..8], args.seed + 3);
        let mut no_lambda = profile.clone();
        for p in &mut no_lambda.procs {
            p.lambda = 1.0;
        }
        let mean_lambda =
            profile.procs.iter().map(|p| p.lambda).sum::<f64>() / profile.procs.len() as f64;
        let mappings = sample_mappings(pool, 8, mappings_per_case, args.seed + 40);
        let snap = tb.snapshot();
        let ev = Evaluator::new(&profile, &snap);
        let ev1 = Evaluator::new(&no_lambda, &snap);
        let mut err_with = Vec::new();
        let mut err_without = Vec::new();
        for m in &mappings {
            let measured = tb.measure(w, m, &idle, args.seed + 77);
            err_with.push(stats::pct_error(ev.predict_time(m), measured).abs());
            err_without.push(stats::pct_error(ev1.predict_time(m), measured).abs());
        }
        t.row(vec![
            w.name.clone(),
            format!("{mean_lambda:.2}"),
            format!("{:.2}", stats::mean(&err_with)),
            format!("{:.2}", stats::mean(&err_without)),
        ]);
        rows_json.push(serde_json::json!({
            "workload": w.name, "mean_lambda": mean_lambda,
            "err_with_lambda_pct": stats::mean(&err_with),
            "err_without_lambda_pct": stats::mean(&err_without),
        }));
    }
    text += &t.titled("λ ablation: prediction error with and without the correction factor");
    text += "expected: errors grow substantially with λ forced to 1 whenever the \
             profiled λ deviates from 1\n";

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "ablation_lambda", json)
}
