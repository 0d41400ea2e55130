//! End-to-end integration: the full CBES pipeline — calibrate → profile →
//! snapshot → schedule → validate — on both modelled clusters.

use cbes::prelude::*;

/// The complete life-cycle on Orange Grove with a real workload generator.
#[test]
fn full_pipeline_on_orange_grove() {
    let cluster = cbes::cluster::presets::orange_grove();
    let calib = Calibrator::default().calibrate(&cluster);
    assert_eq!(calib.model.num_nodes(), 28);

    let app = npb::lu(8, NpbClass::S);
    let alphas = cluster.nodes_by_arch(Architecture::Alpha);
    let run = simulate(
        &cluster,
        &app.program,
        &alphas,
        &LoadState::idle(cluster.len()),
        &SimConfig::default().with_seed(1),
    )
    .expect("profiling run");
    let profile =
        cbes::trace::extract_profile(&app.name, &run.trace, &cluster, &alphas, &calib.model);
    assert_eq!(profile.num_procs(), 8);
    assert!(profile.compute_fraction() > 0.3);

    let snapshot = SystemSnapshot::no_load(&cluster, &calib.model);
    let pool: Vec<NodeId> = cluster.node_ids().collect();
    let request = ScheduleRequest::new(&profile, &snapshot, &pool);
    let result = SaScheduler::new(SaConfig::fast(5))
        .schedule(&request)
        .expect("scheduling");
    assert!(result.mapping.is_injective());
    assert!(result.predicted_time > 0.0);

    // The prediction must be close to a fresh measured run.
    let measured = simulate(
        &cluster,
        &app.program,
        result.mapping.as_slice(),
        &LoadState::idle(cluster.len()),
        &SimConfig::default().with_seed(99),
    )
    .expect("measured run")
    .wall_time;
    let err = (result.predicted_time - measured).abs() / measured;
    assert!(err < 0.10, "end-to-end prediction error {err}");
}

/// On Centurion (128 nodes) the pipeline scales and CS prefers the faster
/// Alpha nodes for a compute-bound job.
#[test]
fn pipeline_scales_to_centurion() {
    let cluster = cbes::cluster::presets::centurion();
    let calib = Calibrator::default().calibrate(&cluster);

    let app = npb::ep(8, NpbClass::S);
    let prof: Vec<NodeId> = cluster.node_ids().take(8).collect();
    let run = simulate(
        &cluster,
        &app.program,
        &prof,
        &LoadState::idle(cluster.len()),
        &SimConfig::default().with_seed(2),
    )
    .expect("profiling run");
    let profile =
        cbes::trace::extract_profile(&app.name, &run.trace, &cluster, &prof, &calib.model);
    let snapshot = SystemSnapshot::no_load(&cluster, &calib.model);
    let pool: Vec<NodeId> = cluster.node_ids().collect();
    let result = SaScheduler::new(SaConfig::fast(3))
        .schedule(&ScheduleRequest::new(&profile, &snapshot, &pool))
        .expect("scheduling");
    for (_, node) in result.mapping.iter() {
        assert_eq!(
            cluster.node(node).arch,
            Architecture::Alpha,
            "EP must land on the fast architecture, got {}",
            result.mapping
        );
    }
}

/// The service façade ties registry, monitor and evaluation together.
#[test]
fn service_request_flow() {
    let cluster = std::sync::Arc::new(cbes::cluster::presets::two_switch_demo());
    let calib = Calibrator::default().calibrate(&cluster);
    let service = CbesService::new(
        cluster.clone(),
        std::sync::Arc::new(calib.model.clone()),
        cbes::core::monitor::ForecastKind::Adaptive(4),
    );

    let app = npb::cg(4, NpbClass::S);
    let prof: Vec<NodeId> = (0..4).map(NodeId).collect();
    let run = simulate(
        &cluster,
        &app.program,
        &prof,
        &LoadState::idle(cluster.len()),
        &SimConfig::default().with_seed(4),
    )
    .expect("profiling run");
    service
        .registry()
        .insert(cbes::trace::extract_profile(
            &app.name,
            &run.trace,
            &cluster,
            &prof,
            &calib.model,
        ))
        .expect("an extracted profile compiles");

    let near = Mapping::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    let far = Mapping::new(vec![NodeId(0), NodeId(4), NodeId(1), NodeId(5)]);
    let (best, _) = service
        .best_of(&app.name, &[far.clone(), near.clone()])
        .expect("comparison");
    assert_eq!(best, 1, "same-switch mapping must win for CG");

    // Loading a node steers the service away from it.
    let mut measured = LoadState::idle(cluster.len());
    measured.set_cpu_avail(NodeId(0), 0.3);
    service.observe_load(&measured).expect("full-arity sweep");
    let alt = Mapping::new(vec![NodeId(1), NodeId(2), NodeId(3), NodeId(0)]);
    let preds = service.compare(&app.name, &[near, alt]).expect("compare");
    assert!(
        preds[0].time > preds[1].time * 0.9,
        "load must be reflected in predictions"
    );
}

/// Remapping cost/benefit integrates with the evaluator.
#[test]
fn remap_analysis_flow() {
    let cluster = cbes::cluster::presets::two_switch_demo();
    let calib = Calibrator::default().calibrate(&cluster);
    let app = npb::lu(4, NpbClass::S);
    let prof: Vec<NodeId> = (0..4).map(NodeId).collect();
    let run = simulate(
        &cluster,
        &app.program,
        &prof,
        &LoadState::idle(cluster.len()),
        &SimConfig::default().with_seed(5),
    )
    .expect("profiling run");
    let profile =
        cbes::trace::extract_profile(&app.name, &run.trace, &cluster, &prof, &calib.model);

    // Saturate the current mapping's nodes.
    let mut load = LoadState::idle(cluster.len());
    load.set_cpu_avail(NodeId(0), 0.2);
    load.set_cpu_avail(NodeId(1), 0.2);
    let mut snap = SystemSnapshot::no_load(&cluster, &calib.model);
    snap.set_load(load);
    let ev = Evaluator::new(&profile, &snap);

    let current = Mapping::new(vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)]);
    let candidate = Mapping::new(vec![NodeId(4), NodeId(5), NodeId(2), NodeId(3)]);
    let analysis = RemapAnalysis {
        cost: cbes::core::remap::MigrationCost {
            image_bytes: 1 << 20,
            transfer_bw: 12.5e6,
            restart_cost: 0.05,
            coordination_cost: 0.05,
        },
        threshold: 0.05,
    };
    let early = analysis.decide(&ev, &current, &candidate, 0.05);
    assert!(early.should_remap(), "{early:?}");
    let late = analysis.decide(&ev, &current, &candidate, 0.999);
    assert!(!late.should_remap(), "{late:?}");
}
