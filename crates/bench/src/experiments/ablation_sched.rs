//! Ablation: scheduling algorithms. The paper's future work asks about
//! "the suitability of other scheduling algorithms, e.g. genetic
//! algorithms" (§8). This ablation races CS (simulated annealing), the
//! genetic scheduler, the greedy list scheduler, and RS on the LU(2) and
//! Aztec cases, reporting solution quality and scheduler cost (the cost
//! column is wall-clock, so it is printed but kept out of the JSON).

use crate::harness::Testbed;
use crate::zones::{homogeneous_pool, lu_zones};
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::load::LoadState;
use cbes_sched::{
    GaConfig, GeneticScheduler, GreedyScheduler, RandomScheduler, SaConfig, SaScheduler,
    ScheduleRequest, Scheduler,
};
use cbes_workloads::{asci, npb, Workload};

/// Run the experiment; one artifact per case.
pub fn run(args: &ExpArgs) -> Report {
    let runs = args.reps(10, 30);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let idle = LoadState::idle(tb.cluster.len());

    let cases: Vec<(Workload, Vec<cbes_cluster::NodeId>, &'static str)> = vec![
        (
            npb::lu(8, npb::NpbClass::A),
            zones[1].pool.clone(),
            "LU(2) medium group",
        ),
        (
            asci::aztec(8),
            homogeneous_pool(&tb.cluster),
            "Aztec, SPARC pool",
        ),
    ];

    let mut text = format!(
        "Ablation — scheduling algorithms ({} runs per scheduler per case)\n",
        runs
    );
    let mut artifacts = Vec::new();
    for (w, pool, label) in &cases {
        // Profile on the homogeneous Alpha group (mixed-architecture
        // profiling runs inflate λ with imbalance waits).
        let profile = tb.profile(w, &zones[0].pool, args.seed + 3);
        let mut t = Table::new(&[
            "scheduler",
            "mean pred (s)",
            "best pred (s)",
            "mean measured (s)",
            "mean sched time (s)",
            "evals",
        ]);
        let mut rows_json = Vec::new();
        type Mk = Box<dyn Fn(u64) -> Box<dyn Scheduler>>;
        let mks: Vec<(&str, Mk)> = vec![
            (
                "CS (SA)",
                Box::new(|s| Box::new(SaScheduler::new(SaConfig::fast(s)))),
            ),
            (
                "GA",
                Box::new(|s| Box::new(GeneticScheduler::new(GaConfig::fast(s)))),
            ),
            ("Greedy", Box::new(|_| Box::new(GreedyScheduler::new()))),
            ("RS", Box::new(|s| Box::new(RandomScheduler::new(s)))),
        ];
        for (name, mk) in &mks {
            let mut preds = Vec::new();
            let mut meas = Vec::new();
            let mut times = Vec::new();
            let mut evals = Vec::new();
            for i in 0..runs {
                let snap = tb.snapshot();
                let req = ScheduleRequest::new(&profile, &snap, pool);
                let r = mk(args.seed + i as u64 * 6007)
                    .schedule(&req)
                    .expect("valid request");
                preds.push(r.predicted_time);
                meas.push(tb.measure(w, &r.mapping, &idle, args.seed + 123 + i as u64));
                times.push(r.elapsed.as_secs_f64());
                evals.push(r.evaluations as f64);
            }
            t.row(vec![
                name.to_string(),
                format!("{:.4}", stats::mean(&preds)),
                format!("{:.4}", stats::min(&preds)),
                format!("{:.4}", stats::mean(&meas)),
                format!("{:.5}", stats::mean(&times)),
                format!("{:.0}", stats::mean(&evals)),
            ]);
            rows_json.push(serde_json::json!({
                "case": label, "scheduler": name,
                "mean_pred": stats::mean(&preds), "best_pred": stats::min(&preds),
                "mean_measured": stats::mean(&meas),
                "mean_evals": stats::mean(&evals),
            }));
        }
        text += &t.titled(&format!("Scheduler ablation — {label}"));
        artifacts.push((
            format!("ablation_sched_{}", w.name.replace('.', "_")),
            serde_json::json!({ "rows": rows_json }),
        ));
    }
    text += "expected: CS and GA reach comparable quality (GA at higher cost); \
             greedy is cheap but\nloses on communication-bound cases; RS trails \
             everyone — supporting the paper's choice of SA\nand its future-work \
             interest in genetic algorithms.\n";
    Report { text, artifacts }
}
