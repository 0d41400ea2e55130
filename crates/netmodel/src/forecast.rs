//! Forecasters for monitored resource series (CPU availability, NIC load).
//!
//! The Centurion prototype used NWS, whose distinguishing feature is
//! *next-period forecasting* from a family of simple predictors; the Orange
//! Grove prototype simply considered "the latest measured load values as
//! valid for the next time period". Both styles are provided, plus an
//! NWS-like adaptive meta-forecaster that tracks which simple predictor has
//! recently been most accurate.
//!
//! Every forecaster does its work in `observe` and keeps the answer, so
//! `predict` neither allocates nor sorts; a monitoring sweep costs its
//! arithmetic.

use std::collections::VecDeque;

/// A one-step-ahead forecaster over a scalar measurement stream.
pub trait Forecaster {
    /// Feed one new measurement.
    fn observe(&mut self, value: f64);
    /// Predict the next value. Before any observation, returns `default`.
    fn predict(&self) -> f64;
}

/// The Orange Grove strategy: the last measured value is the forecast.
#[derive(Debug, Clone, Default)]
pub struct LastValue {
    last: Option<f64>,
    default: f64,
}

impl LastValue {
    /// Forecaster returning `default` until the first observation.
    pub fn new(default: f64) -> Self {
        LastValue {
            last: None,
            default,
        }
    }
}

impl Forecaster for LastValue {
    fn observe(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> f64 {
        self.last.unwrap_or(self.default)
    }
}

/// Mean of the most recent `window` measurements.
#[derive(Debug, Clone)]
pub struct RunningMean {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
    default: f64,
}

impl RunningMean {
    /// A windowed mean forecaster. `window` must be ≥ 1.
    pub fn new(window: usize, default: f64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        RunningMean {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0.0,
            default,
        }
    }
}

impl Forecaster for RunningMean {
    fn observe(&mut self, value: f64) {
        if self.buf.len() == self.window {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.buf.push_back(value);
        self.sum += value;
    }
    fn predict(&self) -> f64 {
        if self.buf.is_empty() {
            self.default
        } else {
            self.sum / self.buf.len() as f64
        }
    }
}

/// Median of the most recent `window` measurements — robust to the short
/// transient spikes the paper found harmless.
///
/// Beside the chronological window it keeps the same values in the order
/// a stable sort of that window gives: a new value goes in after its
/// equals, and the evicted (oldest) value leaves from the front of its
/// equal run. The median is then two loads.
#[derive(Debug, Clone)]
pub struct SlidingMedian {
    window: usize,
    buf: VecDeque<f64>,
    sorted: Vec<f64>,
    default: f64,
}

impl SlidingMedian {
    /// A windowed median forecaster. `window` must be ≥ 1.
    pub fn new(window: usize, default: f64) -> Self {
        assert!(window >= 1, "window must be at least 1");
        SlidingMedian {
            window,
            buf: VecDeque::with_capacity(window),
            sorted: Vec::with_capacity(window),
            default,
        }
    }
}

impl Forecaster for SlidingMedian {
    fn observe(&mut self, value: f64) {
        if self.buf.len() == self.window {
            if let Some(old) = self.buf.pop_front() {
                // Everything before `old`'s equal run is smaller, and `old`
                // is the oldest of its run: the first bit-identical entry
                // is the one to evict.
                if let Some(at) = self
                    .sorted
                    .iter()
                    .position(|x| x.to_bits() == old.to_bits())
                {
                    self.sorted.remove(at);
                }
            }
        }
        self.buf.push_back(value);
        let at = self.sorted.partition_point(|x| *x <= value);
        self.sorted.insert(at, value);
    }
    fn predict(&self) -> f64 {
        let mid = self.sorted.len() / 2;
        let Some(&upper) = self.sorted.get(mid) else {
            return self.default;
        };
        if self.sorted.len() % 2 == 1 {
            return upper;
        }
        self.sorted
            .get(mid - 1)
            .map_or(upper, |&lower| 0.5 * (lower + upper))
    }
}

/// NWS-style adaptive forecaster: runs last-value, windowed-mean and
/// windowed-median side by side, tracks each predictor's recent mean absolute
/// error, and answers with the currently best one.
///
/// Each observation scores every candidate once: its absolute error goes
/// into a chronological ring, and the ring's mean is kept beside the
/// candidate's next prediction. Predicting is an argmin over three
/// numbers.
#[derive(Debug, Clone)]
pub struct Adaptive {
    last: LastValue,
    mean: RunningMean,
    median: SlidingMedian,
    /// Per observation, the (last, mean, median) absolute errors, oldest
    /// first.
    errors: VecDeque<[f64; 3]>,
    err_window: usize,
    /// Each candidate's prediction of the next value.
    next: [f64; 3],
    /// Each candidate's mean error over `errors`; ∞ before any history.
    mean_err: [f64; 3],
}

impl Adaptive {
    /// Standard NWS-like ensemble with the given smoothing window.
    pub fn new(window: usize, default: f64) -> Self {
        let err_window = window.max(2) * 2;
        Adaptive {
            last: LastValue::new(default),
            mean: RunningMean::new(window, default),
            median: SlidingMedian::new(window, default),
            errors: VecDeque::new(),
            err_window,
            next: [default; 3],
            mean_err: [f64::INFINITY; 3],
        }
    }
}

impl Forecaster for Adaptive {
    fn observe(&mut self, value: f64) {
        if self.errors.len() == self.err_window {
            self.errors.pop_front();
        }
        self.errors.push_back(self.next.map(|p| (p - value).abs()));
        self.last.observe(value);
        self.mean.observe(value);
        self.median.observe(value);
        self.next = [
            self.last.predict(),
            self.mean.predict(),
            self.median.predict(),
        ];
        // Three independent front-to-back sums in one pass: each is the
        // same chain of additions as summing its ring alone.
        let (mut last, mut mean, mut median) = (0.0, 0.0, 0.0);
        for &[l, m, d] in &self.errors {
            last += l;
            mean += m;
            median += d;
        }
        let n = self.errors.len() as f64;
        self.mean_err = [last / n, mean / n, median / n];
    }
    fn predict(&self) -> f64 {
        // Only a strictly smaller error displaces the incumbent, so ties
        // (all ∞ before any history) go to last-value, the sane default.
        let [last, mean, median] = self.mean_err;
        let [p_last, p_mean, p_median] = self.next;
        let mut best = (last, p_last);
        for candidate in [(mean, p_mean), (median, p_median)] {
            if candidate.0.total_cmp(&best.0).is_lt() {
                best = candidate;
            }
        }
        best.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_value_returns_default_then_last() {
        let mut f = LastValue::new(1.0);
        assert_eq!(f.predict(), 1.0);
        f.observe(0.5);
        f.observe(0.7);
        assert_eq!(f.predict(), 0.7);
    }

    #[test]
    fn running_mean_windows_correctly() {
        let mut f = RunningMean::new(3, 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            f.observe(v);
        }
        // Window holds [2, 3, 4].
        assert!((f.predict() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_median_resists_spikes() {
        let mut f = SlidingMedian::new(5, 1.0);
        for v in [0.9, 0.9, 0.1, 0.9, 0.9] {
            f.observe(v);
        }
        assert_eq!(f.predict(), 0.9);
    }

    #[test]
    fn median_of_even_window_averages_middles() {
        let mut f = SlidingMedian::new(4, 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            f.observe(v);
        }
        assert!((f.predict() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn adaptive_tracks_stable_series_with_low_error() {
        let mut f = Adaptive::new(5, 1.0);
        for _ in 0..20 {
            f.observe(0.8);
        }
        assert!((f.predict() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn adaptive_prefers_median_under_spiky_load() {
        let mut f = Adaptive::new(5, 1.0);
        // Stable 0.9 with periodic one-sample spikes down to 0.1.
        for i in 0..60 {
            let v = if i % 7 == 0 { 0.1 } else { 0.9 };
            f.observe(v);
        }
        // After a spike, last-value predicts 0.1 (bad); median stays 0.9.
        let p = f.predict();
        assert!(
            (p - 0.9).abs() < 0.2,
            "adaptive should resist spikes, got {p}"
        );
    }

    #[test]
    fn adaptive_survives_non_finite_input() {
        let mut f = Adaptive::new(2, 1.0);
        for v in [f64::INFINITY, 0.5, f64::NEG_INFINITY, f64::NAN, 0.5, 0.5] {
            f.observe(v);
            let _ = f.predict();
        }
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_mean_panics() {
        let _ = RunningMean::new(0, 0.0);
    }
}
