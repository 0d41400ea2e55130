//! E10 (§6 text): the cluster latency spreads CBES exploits, and the
//! fraction of the theoretically available speedup it captures.
//!
//! The paper reports inter-node latency differences up to ~13 % on
//! Centurion and ~54 % on Orange Grove; for the LU(2) case (80/20
//! comp:comm) CBES reduced communication time by 46.4 %, i.e. captured up
//! to ~85 % of the theoretically available speedup.

use std::fmt::Write as _;

use crate::harness::Testbed;
use crate::lu_exp::{prepare_lu, run_scheduler, Driver};
use crate::zones::lu_zones;
use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::load::LoadState;
use cbes_mpisim::{simulate, SimConfig};

fn comm_time(
    tb: &Testbed,
    w: &cbes_workloads::Workload,
    m: &cbes_core::mapping::Mapping,
) -> (f64, f64) {
    let cfg = SimConfig::default().with_seed(0xE10);
    let r = simulate(
        &tb.cluster,
        &w.program,
        m.as_slice(),
        &LoadState::idle(tb.cluster.len()),
        &cfg,
    )
    .expect("run");
    let b: f64 = r.stats.iter().map(|s| s.b).sum();
    let busy: f64 = r.stats.iter().map(|s| s.x + s.o).sum();
    (b, b / (b + busy))
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let runs = args.reps(15, 50);

    // Part 1: latency spreads.
    let mut t = Table::new(&["cluster", "probe size (B)", "latency spread %"]);
    let mut spreads_json = Vec::new();
    for (name, cluster) in [
        ("centurion", cbes_cluster::presets::centurion()),
        ("orange-grove", cbes_cluster::presets::orange_grove()),
    ] {
        for probe in [256u64, 1024, 16 * 1024] {
            let s = cluster.latency_spread(probe) * 100.0;
            t.row(vec![name.into(), probe.to_string(), format!("{s:.1}")]);
            spreads_json.push(serde_json::json!({
                "cluster": name, "probe": probe, "spread_pct": s,
            }));
        }
    }
    let mut text =
        t.titled("Inter-node latency spreads (paper §6: ~13% Centurion, ~54% Orange Grove)");

    // Part 2: fraction of available speedup captured on the LU(2) case.
    let tb = Testbed::orange_grove(args.seed);
    let zones = lu_zones(&tb.cluster);
    let setup = prepare_lu(&tb, &zones);
    let medium = &zones[1];
    let cs = run_scheduler(&tb, &setup, &medium.pool, Driver::Cs, runs, args.seed);
    let ncs_seed = args.seed + 500;
    let ncs = run_scheduler(&tb, &setup, &medium.pool, Driver::Ncs, runs, ncs_seed);
    let best = cs
        .iter()
        .min_by(|a, b| a.measured.partial_cmp(&b.measured).unwrap())
        .expect("runs > 0");
    let worst = ncs
        .iter()
        .max_by(|a, b| a.measured.partial_cmp(&b.measured).unwrap())
        .expect("runs > 0");
    let (b_best, share_best) = comm_time(&tb, &setup.workload, &best.mapping);
    let (b_worst, _) = comm_time(&tb, &setup.workload, &worst.mapping);
    let comm_reduction = stats::speedup_pct(b_worst, b_best);
    // Theoretical availability: the latency spread among the nodes this
    // pool can actually use (mappings never leave the medium group).
    let mut lat_min = f64::INFINITY;
    let mut lat_max = 0.0f64;
    for &a in &medium.pool {
        for &b in &medium.pool {
            if a == b {
                continue;
            }
            let l = tb.cluster.no_load_latency(a, b, 1024);
            lat_min = lat_min.min(l);
            lat_max = lat_max.max(l);
        }
    }
    let available = (lat_max / lat_min - 1.0) * 100.0;
    let captured = (comm_reduction / available * 100.0).min(100.0);
    let _ = writeln!(
        text,
        "\nLU(2) case — medium speed group:\n\
         comp:comm ratio of the best mapping: {:.0}/{:.0}\n\
         communication time: worst {:.3}s -> best {:.3}s  (reduction {:.1}%)\n\
         theoretically available reduction (max latency spread): {:.1}%\n\
         captured fraction: {:.0}%  (paper: 46.4% reduction, up to 85% captured)",
        (1.0 - share_best) * 100.0,
        share_best * 100.0,
        b_worst,
        b_best,
        comm_reduction,
        available,
        captured,
    );

    let json = serde_json::json!({
        "spreads": spreads_json,
        "lu2_comm_reduction_pct": comm_reduction,
        "available_pct": available,
        "captured_fraction_pct": captured,
    });
    Report::one(text, "e10_latency_spread", json)
}
