//! Ablation: monitoring forecasters under drifting and spiky background
//! load — last-value (the Orange Grove prototype) vs windowed mean/median
//! vs the NWS-style adaptive ensemble (the Centurion prototype).

use crate::{args::ExpArgs, stats, table::Table, Report};
use cbes_cluster::load::{LoadPattern, LoadTimeline};
use cbes_cluster::NodeId;
use cbes_core::monitor::{ForecastKind, Monitor};

/// Mean absolute forecast error of one monitor kind over a load timeline
/// sampled every `dt` seconds for `steps` steps (forecast at step k is
/// compared against the measurement at step k+1).
fn run_monitor(kind: ForecastKind, timeline: &LoadTimeline, steps: usize, dt: f64) -> f64 {
    let mut monitor = Monitor::new(1, kind);
    let mut errors = Vec::with_capacity(steps);
    for k in 0..steps {
        let now = timeline.sample(k as f64 * dt);
        monitor.observe(&now);
        let next = timeline.sample((k + 1) as f64 * dt);
        let err = (monitor.forecast().cpu_avail(NodeId(0)) - next.cpu_avail(NodeId(0))).abs();
        errors.push(err);
    }
    stats::mean(&errors)
}

/// Run the experiment.
pub fn run(args: &ExpArgs) -> Report {
    let steps = args.reps(200, 1000);
    let dt = 1.0;

    let scenarios: Vec<(&str, LoadTimeline)> = vec![
        (
            "constant 0.7",
            LoadTimeline::idle(1).with(NodeId(0), LoadPattern::Constant(0.7)),
        ),
        (
            "step 1.0 -> 0.5",
            LoadTimeline::idle(1).with(
                NodeId(0),
                LoadPattern::Step {
                    at: steps as f64 * dt / 2.0,
                    before: 1.0,
                    after: 0.5,
                },
            ),
        ),
        (
            "slow drift 1.0 -> 0.4",
            LoadTimeline::idle(1).with(
                NodeId(0),
                LoadPattern::Drift {
                    from: 1.0,
                    to: 0.4,
                    duration: steps as f64 * dt,
                },
            ),
        ),
        (
            "short spikes",
            LoadTimeline::idle(1).with(
                NodeId(0),
                LoadPattern::Spikes {
                    base: 0.9,
                    depth: 0.2,
                    period: 17.0,
                    width: 1.0,
                },
            ),
        ),
    ];
    let kinds: Vec<(&str, ForecastKind)> = vec![
        ("last-value", ForecastKind::LastValue),
        ("mean(8)", ForecastKind::Mean(8)),
        ("median(8)", ForecastKind::Median(8)),
        ("adaptive(8)", ForecastKind::Adaptive(8)),
    ];

    let mut text = format!(
        "Ablation — monitoring forecasters ({} steps per scenario): mean \
         absolute CPU-availability forecast error\n",
        steps
    );

    let mut t = Table::new(&[
        "scenario",
        "last-value",
        "mean(8)",
        "median(8)",
        "adaptive(8)",
    ]);
    let mut rows_json = Vec::new();
    for (sname, timeline) in &scenarios {
        let errs: Vec<f64> = kinds
            .iter()
            .map(|(_, k)| run_monitor(*k, timeline, steps, dt))
            .collect();
        t.row(vec![
            sname.to_string(),
            format!("{:.4}", errs[0]),
            format!("{:.4}", errs[1]),
            format!("{:.4}", errs[2]),
            format!("{:.4}", errs[3]),
        ]);
        rows_json.push(serde_json::json!({
            "scenario": sname,
            "errors": kinds.iter().zip(&errs).map(|((n, _), e)| serde_json::json!({"kind": n, "mae": e})).collect::<Vec<_>>(),
        }));
    }
    text += &t.titled("Forecaster ablation (NWS-style monitoring vs last-value)");
    text += "expected: last-value wins on steps, median wins on spikes, the \
             adaptive ensemble is never far from the per-scenario best — the \
             reason NWS forecasts (Centurion prototype) beat the plain last-value \
             monitor (Orange Grove prototype) under bursty load\n";

    let json = serde_json::json!({ "rows": rows_json });
    Report::one(text, "ablation_forecast", json)
}
