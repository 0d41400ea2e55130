//! Figure 6: LU on 8 Orange Grove nodes — measured execution-time ranges of
//! representative mappings, showing three distinct speed zones.

use std::fmt::Write as _;

use crate::harness::Testbed;
use crate::lu_exp::{measure_all, prepare_lu};
use crate::zones::{lu_zones, sample_mappings};
use crate::{args::ExpArgs, stats, table::Table, Report};

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    // The paper samples ~100 representative mappings across the zones.
    let per_zone = args.reps(20, 34);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let setup = prepare_lu(&tb, &zones);

    let mut text = format!(
        "Figure 6 — LU on 8 Orange Grove nodes: measured execution time ranges\n\
         ({} representative mappings per zone, workload {})\n",
        per_zone, setup.workload.name
    );

    let mut t = Table::new(&[
        "architecture mix",
        "min (s)",
        "mean (s)",
        "max (s)",
        "range %",
    ]);
    let mut all_times: Vec<f64> = Vec::new();
    let mut zone_json = Vec::new();
    for zone in &zones {
        let mappings = sample_mappings(&zone.pool, 8, per_zone, args.seed + zone.id as u64);
        let times = measure_all(&tb, &setup.workload, &mappings, args.seed);
        let (lo, hi, mu) = (stats::min(&times), stats::max(&times), stats::mean(&times));
        t.row(vec![
            zone.name.to_string(),
            format!("{lo:.3}"),
            format!("{mu:.3}"),
            format!("{hi:.3}"),
            format!("{:.1}", (hi / lo - 1.0) * 100.0),
        ]);
        zone_json.push(serde_json::json!({
            "zone": zone.name, "min": lo, "mean": mu, "max": hi, "samples": times,
        }));
        all_times.extend(times);
    }
    text += &t.titled("LU execution time zones (paper figure 6)");

    let best = stats::min(&all_times);
    let worst = stats::max(&all_times);
    let avg = stats::mean(&all_times);
    let _ = writeln!(
        text,
        "overall: best {:.3} s, worst {:.3} s, average {:.3} s\n\
         max speedup vs a random scheduler over the full space: {:.1}% \
         (paper: 36.6%)\n\
         best vs overall-average speedup: {:.1}% (paper: ~30%)",
        best,
        worst,
        avg,
        stats::speedup_pct(worst, best),
        stats::speedup_pct(avg, best),
    );

    let json = serde_json::json!({
        "zones": zone_json,
        "overall": {"best": best, "worst": worst, "mean": avg,
                     "max_speedup_vs_rs_pct": stats::speedup_pct(worst, best)},
    });
    Report::one(text, "fig6_lu_zones", json)
}
