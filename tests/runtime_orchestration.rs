//! Integration test of the run-time orchestration loop through the facade:
//! phase execution, monitoring, remap decisions, migration accounting and
//! per-phase profiles from segment markers.

use cbes::cluster::load::{LoadPattern, LoadTimeline};
use cbes::core::remap::{MigrationCost, RemapAnalysis};
use cbes::prelude::*;

fn cheap_runtime() -> RuntimeConfig {
    RuntimeConfig {
        sa: SaConfig::fast(5),
        remap: RemapAnalysis {
            cost: MigrationCost {
                image_bytes: 1 << 20,
                transfer_bw: 12.5e6,
                restart_cost: 0.05,
                coordination_cost: 0.05,
            },
            threshold: 0.2,
        },
        ..RuntimeConfig::default()
    }
}

#[test]
fn orchestrator_completes_multi_phase_apps() {
    let cluster = cbes::cluster::presets::orange_grove();
    let calib = Calibrator::default().calibrate(&cluster);
    let phase = npb::cg(8, NpbClass::S).program;
    let app = PhasedApp::new("cg3", vec![phase.clone(), phase.clone(), phase]);
    let pool = cluster.nodes_by_arch(Architecture::Alpha);
    let orch = Orchestrator::new(&cluster, &calib.model, cheap_runtime());
    let report = orch
        .run(&app, &pool, &LoadTimeline::idle(cluster.len()))
        .expect("orchestrated run");
    assert_eq!(report.phases.len(), 3);
    // Total equals the sum of phase walls plus migrations.
    let sum: f64 = report.phases.iter().map(|p| p.wall + p.migration).sum();
    assert!((report.total - sum).abs() < 1e-9);
}

#[test]
fn remap_only_happens_when_it_pays() {
    let cluster = cbes::cluster::presets::orange_grove();
    let calib = Calibrator::default().calibrate(&cluster);
    let phase = npb::lu(8, NpbClass::S).program;
    let app = PhasedApp::new("lu2", vec![phase.clone(), phase]);
    let alphas = cluster.nodes_by_arch(Architecture::Alpha);
    let mut pool = alphas.clone();
    pool.extend(cluster.nodes_by_arch(Architecture::IntelPII));

    // Load arrives on every Alpha after phase 0.
    let mut timeline = LoadTimeline::idle(cluster.len());
    for &node in &alphas {
        timeline = timeline.with(
            node,
            LoadPattern::Step {
                at: 1.0,
                before: 1.0,
                after: 0.3,
            },
        );
    }

    // With cheap migration: remap.
    let orch = Orchestrator::new(&cluster, &calib.model, cheap_runtime());
    let cheap = orch.run(&app, &pool, &timeline).expect("cheap run");
    assert_eq!(cheap.remaps, 1, "{cheap:?}");

    // With prohibitively expensive migration: stay put.
    let mut expensive = cheap_runtime();
    expensive.remap.cost.restart_cost = 1e6;
    let orch = Orchestrator::new(&cluster, &calib.model, expensive);
    let stay = orch.run(&app, &pool, &timeline).expect("expensive run");
    assert_eq!(stay.remaps, 0, "{stay:?}");
    // And staying under load is slower end to end.
    assert!(stay.total > cheap.total);
}

#[test]
fn segment_markers_split_a_run_into_phase_profiles() {
    let cluster = cbes::cluster::presets::two_switch_demo();
    let calib = Calibrator::default().calibrate(&cluster);
    let n = 4;
    let mut program = Program::new(n);
    program.push_all(Op::Compute { seconds: 0.05 });
    for r in 0..n {
        program.push(
            r,
            Op::SendRecv {
                to: (r + 1) % n,
                bytes: 1024,
                from: (r + n - 1) % n,
            },
        );
    }
    program.push_all(Op::Segment(1));
    program.push_all(Op::Compute { seconds: 0.10 });
    let mapping: Vec<NodeId> = cluster.node_ids().take(n).collect();
    let run = simulate(
        &cluster,
        &program,
        &mapping,
        &LoadState::idle(cluster.len()),
        &SimConfig::default().noiseless(),
    )
    .expect("segmented run");

    let whole = extract_profile("seg", &run.trace, &cluster, &mapping, &calib.model);
    let segments =
        cbes::trace::extract_segment_profiles("seg", &run.trace, &cluster, &mapping, &calib.model);
    assert_eq!(segments.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
    let (first, second) = (&segments[&0], &segments[&1]);
    assert_eq!(second.name, "seg#1");
    for rank in 0..n {
        // The exchange precedes the marker, so only phase 0 communicates.
        assert_eq!(first.procs[rank].sends.len(), 1);
        assert!(second.procs[rank].sends.is_empty());
        // Phase 1 computes twice as long as phase 0 on the same node.
        let ratio = second.procs[rank].x / first.procs[rank].x;
        assert!((ratio - 2.0).abs() < 1e-9, "rank {rank}: {ratio}");
        let sum = first.procs[rank].x + second.procs[rank].x;
        assert!((sum - whole.procs[rank].x).abs() < 1e-12);
    }
}
