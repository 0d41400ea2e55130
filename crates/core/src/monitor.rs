//! The monitoring-daemon stand-in: periodic per-node load measurements fed
//! into per-node forecasters, producing the load estimate a
//! [`crate::SystemSnapshot`] carries.

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_netmodel::forecast::{Adaptive, Forecaster, LastValue, RunningMean, SlidingMedian};

/// Which forecasting strategy the monitor uses per node.
///
/// `LastValue` is the Orange Grove prototype's behaviour; the others emulate
/// NWS-style forecasting as used on Centurion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForecastKind {
    /// Latest measurement is the forecast (Orange Grove prototype).
    LastValue,
    /// Windowed mean.
    Mean(usize),
    /// Windowed median.
    Median(usize),
    /// NWS-style adaptive pick-the-best ensemble (Centurion prototype).
    Adaptive(usize),
}

/// One node's forecaster for one resource. Every series of a monitor has
/// the same strategy, so a sweep is a walk over one flat `Vec` with a
/// perfectly predicted branch per value.
#[derive(Debug, Clone)]
enum Series {
    Last(LastValue),
    Mean(RunningMean),
    Median(SlidingMedian),
    Adaptive(Adaptive),
}

impl Series {
    fn new(kind: ForecastKind, default: f64) -> Self {
        match kind {
            ForecastKind::LastValue => Series::Last(LastValue::new(default)),
            ForecastKind::Mean(w) => Series::Mean(RunningMean::new(w, default)),
            ForecastKind::Median(w) => Series::Median(SlidingMedian::new(w, default)),
            ForecastKind::Adaptive(w) => Series::Adaptive(Adaptive::new(w, default)),
        }
    }

    fn observe(&mut self, value: f64) {
        match self {
            Series::Last(f) => f.observe(value),
            Series::Mean(f) => f.observe(value),
            Series::Median(f) => f.observe(value),
            Series::Adaptive(f) => f.observe(value),
        }
    }

    fn predict(&self) -> f64 {
        match self {
            Series::Last(f) => f.predict(),
            Series::Mean(f) => f.predict(),
            Series::Median(f) => f.predict(),
            Series::Adaptive(f) => f.predict(),
        }
    }
}

/// Per-node CPU and NIC load monitor.
///
/// Feed it measurement sweeps with [`Monitor::observe`]; read the current
/// forecast with [`Monitor::forecast`].
pub struct Monitor {
    cpu: Vec<Series>,
    nic: Vec<Series>,
    observations: u64,
}

impl Monitor {
    /// A monitor over `n` nodes using the given forecasting strategy.
    /// Before any observation it forecasts an idle cluster.
    pub fn new(n: usize, kind: ForecastKind) -> Self {
        Monitor {
            cpu: (0..n).map(|_| Series::new(kind, 1.0)).collect(),
            nic: (0..n).map(|_| Series::new(kind, 0.0)).collect(),
            observations: 0,
        }
    }

    /// Number of nodes monitored.
    pub fn len(&self) -> usize {
        self.cpu.len()
    }

    /// True when monitoring zero nodes.
    pub fn is_empty(&self) -> bool {
        self.cpu.is_empty()
    }

    /// Number of measurement sweeps observed so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Feed one measurement sweep (the instantaneous ground truth the
    /// monitoring daemons would have measured).
    pub fn observe(&mut self, measured: &LoadState) {
        self.observe_where(measured, std::iter::repeat(true));
    }

    /// Feed one *partial* sweep: only nodes with `reported[i] == true`
    /// delivered a measurement (crashed nodes and dropped-out monitor
    /// daemons stay silent). Non-reporting nodes keep their stale
    /// forecasts — health tracking, not forecasting, is responsible for
    /// reacting to the silence.
    pub fn observe_partial(&mut self, measured: &LoadState, reported: &[bool]) {
        assert_eq!(reported.len(), self.cpu.len(), "node count mismatch");
        self.observe_where(measured, reported.iter().copied());
    }

    /// Feed node `i`'s measurements to its series wherever `fresh` says
    /// it reported.
    fn observe_where(&mut self, measured: &LoadState, fresh: impl Iterator<Item = bool> + Clone) {
        let (cpu, nic) = measured.columns();
        assert_eq!(cpu.len(), self.cpu.len(), "node count mismatch");
        assert_eq!(nic.len(), self.nic.len(), "node count mismatch");
        for (series, values) in [(&mut self.cpu, cpu), (&mut self.nic, nic)] {
            for ((s, &v), fresh) in series.iter_mut().zip(values).zip(fresh.clone()) {
                if fresh {
                    s.observe(v);
                }
            }
        }
        self.observations += 1;
    }

    /// The forecast load state for the next period.
    pub fn forecast(&self) -> LoadState {
        let mut s = LoadState::idle(self.cpu.len());
        for (i, (cpu, nic)) in self.cpu.iter().zip(&self.nic).enumerate() {
            let id = NodeId(i as u32);
            s.set_cpu_avail(id, cpu.predict());
            s.set_nic_load(id, nic.predict());
        }
        s
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("nodes", &self.cpu.len())
            .field("observations", &self.observations)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unobserved_monitor_forecasts_idle() {
        let m = Monitor::new(3, ForecastKind::LastValue);
        let f = m.forecast();
        for i in 0..3 {
            assert_eq!(f.cpu_avail(NodeId(i)), 1.0);
            assert_eq!(f.nic_load(NodeId(i)), 0.0);
        }
    }

    #[test]
    fn last_value_monitor_tracks_measurements() {
        let mut m = Monitor::new(2, ForecastKind::LastValue);
        let mut s = LoadState::idle(2);
        s.set_cpu_avail(NodeId(1), 0.6);
        s.set_nic_load(NodeId(0), 0.3);
        m.observe(&s);
        let f = m.forecast();
        assert_eq!(f.cpu_avail(NodeId(1)), 0.6);
        assert_eq!(f.nic_load(NodeId(0)), 0.3);
        assert_eq!(m.observations(), 1);
    }

    #[test]
    fn median_monitor_smooths_spikes() {
        let mut m = Monitor::new(1, ForecastKind::Median(5));
        for i in 0..10 {
            let mut s = LoadState::idle(1);
            s.set_cpu_avail(NodeId(0), if i == 7 { 0.1 } else { 0.9 });
            m.observe(&s);
        }
        assert!((m.forecast().cpu_avail(NodeId(0)) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn adaptive_monitor_converges_on_stable_load() {
        let mut m = Monitor::new(1, ForecastKind::Adaptive(5));
        for _ in 0..20 {
            let mut s = LoadState::idle(1);
            s.set_cpu_avail(NodeId(0), 0.75);
            m.observe(&s);
        }
        assert!((m.forecast().cpu_avail(NodeId(0)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn partial_sweep_keeps_silent_nodes_stale() {
        let mut m = Monitor::new(2, ForecastKind::LastValue);
        let mut s = LoadState::idle(2);
        s.set_cpu_avail(NodeId(0), 0.7);
        s.set_cpu_avail(NodeId(1), 0.7);
        m.observe(&s);
        // Node 1 goes silent; ground truth moves but its forecast must not.
        s.set_cpu_avail(NodeId(0), 0.2);
        s.set_cpu_avail(NodeId(1), 0.2);
        m.observe_partial(&s, &[true, false]);
        let f = m.forecast();
        assert_eq!(f.cpu_avail(NodeId(0)), 0.2);
        assert_eq!(f.cpu_avail(NodeId(1)), 0.7);
        assert_eq!(m.observations(), 2);
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn observe_rejects_wrong_arity() {
        let mut m = Monitor::new(2, ForecastKind::LastValue);
        m.observe(&LoadState::idle(3));
    }

    #[test]
    #[should_panic(expected = "node count mismatch")]
    fn observe_rejects_a_short_nic_column() {
        let mut m = Monitor::new(2, ForecastKind::LastValue);
        m.observe(&LoadState::from_measured(vec![1.0, 1.0], vec![0.0]));
    }
}
