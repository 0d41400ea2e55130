//! Annealer telemetry: an observer the SA inner loop reports into.
//!
//! The hot loop is generic over [`TelemetrySink`], so the disabled path
//! ([`NullSink`]) monomorphises to nothing — no allocation, no branch,
//! no clock read per move. The test-only `RecordingSink` aggregates
//! per-temperature acceptance counts and the best-energy trace, so tests
//! can check a cooling schedule on a real run.
//!
//! All wall-clock reads in the scheduler crate go through
//! [`TelemetrySink::clock`], so tests can substitute a deterministic
//! clock; its default reads the process clock of `cbes_obs::Clock`.

use std::time::Duration;

/// Observer for one scheduling run's annealing loop. All methods have
/// `&mut self` receivers so sinks can aggregate without interior
/// mutability; the annealer calls them single-threaded.
pub trait TelemetrySink {
    /// One proposed move was evaluated at temperature `temp`.
    fn on_move(&mut self, temp: f64, accepted: bool);
    /// The run's best energy improved to `energy` at evaluation `eval`.
    fn on_improvement(&mut self, eval: u64, energy: f64);
    /// One restart finished with the given best energy.
    fn on_restart(&mut self, best_energy: f64);
    /// Monotonic elapsed time since an arbitrary fixed epoch. Schedulers
    /// time themselves by differencing two reads, so only monotonicity
    /// matters. Override in tests for a deterministic clock.
    fn clock(&mut self) -> Duration {
        cbes_obs::Clock::default().now()
    }
}

/// Discards everything. Monomorphised into the annealer this is a set of
/// empty inlined calls, keeping the disabled telemetry path free.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TelemetrySink for NullSink {
    #[inline(always)]
    fn on_move(&mut self, _temp: f64, _accepted: bool) {}
    #[inline(always)]
    fn on_improvement(&mut self, _eval: u64, _energy: f64) {}
    #[inline(always)]
    fn on_restart(&mut self, _best_energy: f64) {}
}

/// Acceptance statistics for one temperature decade of the cooling
/// schedule (all moves proposed while `10^decade <= temp < 10^(decade+1)`).
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StageStats {
    /// `floor(log10(temperature))` for this stage.
    pub decade: i32,
    /// Moves proposed in this stage.
    pub proposed: u64,
    /// Moves accepted in this stage.
    pub accepted: u64,
}

/// Aggregating sink: per-temperature-decade acceptance counts and the
/// best-energy trace.
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct RecordingSink {
    stages: Vec<StageStats>,
    best_trace: Vec<(u64, f64)>,
    moves: u64,
}

#[cfg(test)]
impl RecordingSink {
    /// An empty sink.
    pub fn new() -> Self {
        RecordingSink::default()
    }

    /// Total moves proposed across every restart.
    pub fn moves(&self) -> u64 {
        self.moves
    }

    /// Per-temperature-decade acceptance statistics, in the order the
    /// cooling schedule visited them (hot to cold, repeating per restart).
    pub fn stages(&self) -> &[StageStats] {
        &self.stages
    }

    /// `(evaluation, energy)` pairs at each best-energy improvement, in
    /// chronological order; energies are strictly decreasing within one
    /// restart.
    pub fn best_trace(&self) -> &[(u64, f64)] {
        &self.best_trace
    }
}

#[cfg(test)]
impl TelemetrySink for RecordingSink {
    fn on_move(&mut self, temp: f64, accepted: bool) {
        self.moves += 1;
        let decade = temp.log10().floor() as i32;
        match self.stages.last_mut() {
            Some(stage) if stage.decade == decade => {
                stage.proposed += 1;
                stage.accepted += u64::from(accepted);
            }
            _ => self.stages.push(StageStats {
                decade,
                proposed: 1,
                accepted: u64::from(accepted),
            }),
        }
    }

    fn on_improvement(&mut self, eval: u64, energy: f64) {
        self.best_trace.push((eval, energy));
    }

    fn on_restart(&mut self, _best_energy: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_bucket_by_temperature_decade() {
        let mut sink = RecordingSink::new();
        sink.on_move(0.5, true); // decade -1
        sink.on_move(0.2, false); // decade -1
        sink.on_move(0.05, true); // decade -2
        sink.on_move(0.003, false); // decade -3
        let stages = sink.stages();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].decade, -1);
        assert_eq!(stages[0].proposed, 2);
        assert_eq!(stages[0].accepted, 1);
        assert_eq!(stages[1].decade, -2);
        assert_eq!((stages[1].proposed, stages[1].accepted), (1, 1));
        assert_eq!((stages[2].proposed, stages[2].accepted), (1, 0));
        assert_eq!(sink.moves(), 4);
    }

    #[test]
    fn best_trace_accumulates() {
        let mut sink = RecordingSink::new();
        sink.on_improvement(1, 9.0);
        sink.on_improvement(40, 7.5);
        assert_eq!(sink.best_trace(), &[(1, 9.0), (40, 7.5)]);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut sink = NullSink;
        sink.on_move(1.0, true);
        sink.on_improvement(1, 1.0);
        sink.on_restart(1.0);
    }
}
