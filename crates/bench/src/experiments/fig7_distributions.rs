//! Figure 7: distributions of predicted execution times for the mappings
//! selected by CS and by NCS on the LU(3) (low-speed group) case — showing
//! CS results skewed towards the minimum-time mappings and NCS towards the
//! worst.

use std::fmt::Write as _;

use crate::harness::Testbed;
use crate::lu_exp::{predicted, prepare_lu, run_scheduler, Driver};
use crate::zones::lu_zones;
use crate::{args::ExpArgs, stats, Report};

fn ascii_hist(out: &mut String, label: &str, xs: &[f64], lo: f64, hi: f64, bins: usize) {
    let (counts, width) = stats::histogram(xs, lo, hi, bins);
    let maxc = counts.iter().copied().max().unwrap_or(1).max(1);
    let _ = writeln!(out, "\n{label} (n = {}):", xs.len());
    for (i, &c) in counts.iter().enumerate() {
        let from = lo + i as f64 * width;
        let bar = "#".repeat(c * 50 / maxc);
        let _ = writeln!(out, "  {from:8.3}s | {bar} {c}");
    }
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let runs = args.reps(40, 100);
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let setup = prepare_lu(&tb, &zones);
    let low = &zones[2];

    let mut text = format!(
        "Figure 7 — predicted time distributions for the LU(3) case\n\
         ({} runs per scheduler over '{}')\n",
        runs, low.name
    );

    let cs = run_scheduler(&tb, &setup, &low.pool, Driver::Cs, runs, args.seed);
    let ncs_seed = args.seed + 1000;
    let ncs = run_scheduler(&tb, &setup, &low.pool, Driver::Ncs, runs, ncs_seed);
    let (cs_pred, ncs_pred) = (predicted(&cs), predicted(&ncs));

    let lo = stats::min(&cs_pred).min(stats::min(&ncs_pred));
    let hi = stats::max(&cs_pred).max(stats::max(&ncs_pred));
    let span = (hi - lo).max(1e-9);
    let (lo, hi) = (lo - 0.02 * span, hi + 0.02 * span);
    ascii_hist(&mut text, "CS predicted times", &cs_pred, lo, hi, 14);
    let label = "NCS predicted times (normalised)";
    ascii_hist(&mut text, label, &ncs_pred, lo, hi, 14);

    let _ = writeln!(
        text,
        "\nCS mean {:.3}s vs NCS mean {:.3}s — CS skews to the fast end \
         (paper figure 7 shape)",
        stats::mean(&cs_pred),
        stats::mean(&ncs_pred)
    );

    let json = serde_json::json!({ "cs_predicted": cs_pred, "ncs_predicted": ncs_pred });
    Report::one(text, "fig7_distributions", json)
}
