//! The forecasters keep their answer instead of re-deriving it on every
//! `predict`. This holds them, bit for bit, against the implementation
//! they replaced, kept below verbatim (less `reset`, which nothing
//! called) as the reference — the way `write_f64` is held against
//! `core::fmt`.
//!
//! Values are quantised so windows are full of ties, ±0.0 among them:
//! ties are where a sorted window, an argmin or an eviction can pick a
//! different element and still look right. `Forecaster` is public, so
//! each case also feeds a second sequence that carries NaN and ±∞. The
//! reference sorts with `partial_cmp().unwrap()` and panics on those;
//! they are held instead against `cached`, the first forecasters that
//! kept their answer, also verbatim. Once a window holds a NaN, where a
//! value is filed depends on how `partition_point` probes. The vendored
//! `proptest` does not shrink, so a failure prints its seed and its
//! input; the seed alone replays it.

use cbes_cluster::load::LoadState;
use cbes_cluster::NodeId;
use cbes_core::monitor::{ForecastKind, Monitor};
use cbes_netmodel::forecast as fast;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

mod reference {
    use std::collections::VecDeque;

    pub trait Forecaster {
        fn observe(&mut self, value: f64);
        fn predict(&self) -> f64;
    }

    #[derive(Debug, Clone, Default)]
    pub struct LastValue {
        last: Option<f64>,
        default: f64,
    }

    impl LastValue {
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

    #[derive(Debug, Clone)]
    pub struct RunningMean {
        window: usize,
        buf: VecDeque<f64>,
        sum: f64,
        default: f64,
    }

    impl RunningMean {
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

    #[derive(Debug, Clone)]
    pub struct SlidingMedian {
        window: usize,
        buf: VecDeque<f64>,
        default: f64,
    }

    impl SlidingMedian {
        pub fn new(window: usize, default: f64) -> Self {
            assert!(window >= 1, "window must be at least 1");
            SlidingMedian {
                window,
                buf: VecDeque::with_capacity(window),
                default,
            }
        }
    }

    impl Forecaster for SlidingMedian {
        fn observe(&mut self, value: f64) {
            if self.buf.len() == self.window {
                self.buf.pop_front();
            }
            self.buf.push_back(value);
        }
        fn predict(&self) -> f64 {
            if self.buf.is_empty() {
                return self.default;
            }
            let mut v: Vec<f64> = self.buf.iter().copied().collect();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mid = v.len() / 2;
            if v.len() % 2 == 1 {
                v[mid]
            } else {
                0.5 * (v[mid - 1] + v[mid])
            }
        }
    }

    #[derive(Debug, Clone)]
    pub struct Adaptive {
        candidates: Vec<Candidate>,
        err_window: usize,
    }

    #[derive(Debug, Clone)]
    struct Candidate {
        kind: Kind,
        errors: VecDeque<f64>,
    }

    #[derive(Debug, Clone)]
    enum Kind {
        Last(LastValue),
        Mean(RunningMean),
        Median(SlidingMedian),
    }

    impl Kind {
        fn observe(&mut self, v: f64) {
            match self {
                Kind::Last(f) => f.observe(v),
                Kind::Mean(f) => f.observe(v),
                Kind::Median(f) => f.observe(v),
            }
        }
        fn predict(&self) -> f64 {
            match self {
                Kind::Last(f) => f.predict(),
                Kind::Mean(f) => f.predict(),
                Kind::Median(f) => f.predict(),
            }
        }
    }

    impl Adaptive {
        pub fn new(window: usize, default: f64) -> Self {
            Adaptive {
                candidates: vec![
                    Candidate {
                        kind: Kind::Last(LastValue::new(default)),
                        errors: VecDeque::new(),
                    },
                    Candidate {
                        kind: Kind::Mean(RunningMean::new(window, default)),
                        errors: VecDeque::new(),
                    },
                    Candidate {
                        kind: Kind::Median(SlidingMedian::new(window, default)),
                        errors: VecDeque::new(),
                    },
                ],
                err_window: window.max(2) * 2,
            }
        }

        fn best(&self) -> &Candidate {
            self.candidates
                .iter()
                .min_by(|a, b| {
                    mean_err(&a.errors)
                        .partial_cmp(&mean_err(&b.errors))
                        .unwrap()
                })
                .expect("at least one candidate")
        }
    }

    fn mean_err(errors: &VecDeque<f64>) -> f64 {
        if errors.is_empty() {
            f64::INFINITY
        } else {
            errors.iter().sum::<f64>() / errors.len() as f64
        }
    }

    impl Forecaster for Adaptive {
        fn observe(&mut self, value: f64) {
            let err_window = self.err_window;
            for c in &mut self.candidates {
                let e = (c.kind.predict() - value).abs();
                if c.errors.len() == err_window {
                    c.errors.pop_front();
                }
                c.errors.push_back(e);
                c.kind.observe(value);
            }
        }
        fn predict(&self) -> f64 {
            self.best().kind.predict()
        }
    }
}

mod cached {
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
}

/// One forecaster under test beside its reference twins.
struct Pair {
    got: Box<dyn fast::Forecaster>,
    /// The reference, on finite input only.
    want: Option<Box<dyn reference::Forecaster>>,
    cached: Box<dyn cached::Forecaster>,
}

fn fast_of(kind: ForecastKind, default: f64) -> Box<dyn fast::Forecaster> {
    match kind {
        ForecastKind::LastValue => Box::new(fast::LastValue::new(default)),
        ForecastKind::Mean(w) => Box::new(fast::RunningMean::new(w, default)),
        ForecastKind::Median(w) => Box::new(fast::SlidingMedian::new(w, default)),
        ForecastKind::Adaptive(w) => Box::new(fast::Adaptive::new(w, default)),
    }
}

fn reference_of(kind: ForecastKind, default: f64) -> Box<dyn reference::Forecaster> {
    match kind {
        ForecastKind::LastValue => Box::new(reference::LastValue::new(default)),
        ForecastKind::Mean(w) => Box::new(reference::RunningMean::new(w, default)),
        ForecastKind::Median(w) => Box::new(reference::SlidingMedian::new(w, default)),
        ForecastKind::Adaptive(w) => Box::new(reference::Adaptive::new(w, default)),
    }
}

fn cached_of(kind: ForecastKind, default: f64) -> Box<dyn cached::Forecaster> {
    match kind {
        ForecastKind::LastValue => Box::new(cached::LastValue::new(default)),
        ForecastKind::Mean(w) => Box::new(cached::RunningMean::new(w, default)),
        ForecastKind::Median(w) => Box::new(cached::SlidingMedian::new(w, default)),
        ForecastKind::Adaptive(w) => Box::new(cached::Adaptive::new(w, default)),
    }
}

impl Pair {
    fn new(kind: ForecastKind, default: f64, finite: bool) -> Pair {
        Pair {
            got: fast_of(kind, default),
            want: finite.then(|| reference_of(kind, default)),
            cached: cached_of(kind, default),
        }
    }

    fn observe(&mut self, value: f64) {
        self.got.observe(value);
        if let Some(want) = &mut self.want {
            want.observe(value);
        }
        self.cached.observe(value);
    }

    /// The prediction and the first twin's whose bits differ from it.
    /// Two NaNs match: Rust leaves the sign and payload of a NaN that
    /// arithmetic produces unspecified, and an optimised build may
    /// commute an addition's operands.
    fn mismatch(&self) -> Option<(f64, f64)> {
        let got = self.got.predict();
        let want = self.want.as_ref().map(|w| w.predict());
        want.into_iter()
            .chain([self.cached.predict()])
            .find(|w| w.to_bits() != got.to_bits() && !(w.is_nan() && got.is_nan()))
            .map(|w| (got, w))
    }
}

fn kinds(window: usize) -> [ForecastKind; 4] {
    [
        ForecastKind::LastValue,
        ForecastKind::Mean(window),
        ForecastKind::Median(window),
        ForecastKind::Adaptive(window),
    ]
}

/// One quantised value: a handful of levels (both zeros among them), a
/// coarse grid whose steps are inexact, and small negatives; when
/// `wild`, one value in eight is NaN or ±∞.
fn level(rng: &mut StdRng, wild: bool) -> f64 {
    const LEVELS: [f64; 8] = [0.0, -0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    if wild && rng.random_range(0u32..8) == 0 {
        return NON_FINITE[rng.random_range(0..NON_FINITE.len())];
    }
    match rng.random_range(0u32..3) {
        0 => LEVELS[rng.random_range(0..LEVELS.len())],
        1 => f64::from(rng.random_range(0u32..8)) / 7.0,
        _ => -f64::from(rng.random_range(0u32..3)) / 3.0,
    }
}

/// `len` quantised values in runs of up to four equal ones.
fn sequence(rng: &mut StdRng, len: usize, wild: bool) -> Vec<f64> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let v = level(rng, wild);
        let run = rng.random_range(1usize..5).min(len - out.len());
        out.extend(std::iter::repeat_n(v, run));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    fn every_forecaster_predicts_what_the_reference_does(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = rng.random_range(1usize..33);
        // A finite sequence held against the reference, then one with
        // NaN and ±∞ held against `cached`.
        for wild in [false, true] {
            let default = level(&mut rng, wild);
            // Long enough to wrap the adaptive error ring three times.
            let errors = window.max(2) * 2;
            let len = rng.random_range(3 * errors..3 * errors + 64);
            let seq = sequence(&mut rng, len, wild);
            let finite = default.is_finite() && seq.iter().all(|v| v.is_finite());
            for kind in kinds(window) {
                let mut pair = Pair::new(kind, default, finite);
                prop_assert!(pair.mismatch().is_none(), "{kind:?} before any value, seed {seed}");
                for (i, &v) in seq.iter().enumerate() {
                    pair.observe(v);
                    if let Some((got, want)) = pair.mismatch() {
                        prop_assert!(
                            false,
                            "{kind:?} (default {default}) after {} values: {got:?}, reference {want:?}\n  seed {seed}\n  sequence {seq:?}",
                            i + 1
                        );
                    }
                }
            }
        }
    }

    fn monitor_partial_sweeps_forecast_what_per_node_references_do(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nodes = rng.random_range(1usize..7);
        let window = rng.random_range(1usize..17);
        let sweeps = rng.random_range(0usize..60);
        for kind in kinds(window) {
            let mut monitor = Monitor::new(nodes, kind);
            let mut cpu: Vec<_> = (0..nodes).map(|_| reference_of(kind, 1.0)).collect();
            let mut nic: Vec<_> = (0..nodes).map(|_| reference_of(kind, 0.0)).collect();
            // What each node has reported, for the failure message.
            let mut seen: Vec<Vec<(f64, f64)>> = vec![Vec::new(); nodes];
            for sweep in 0..sweeps {
                let measured: Vec<(f64, f64)> =
                    (0..nodes).map(|_| (level(&mut rng, false), level(&mut rng, false))).collect();
                // Roughly one node in four is silent in a sweep.
                let reported: Vec<bool> = (0..nodes).map(|_| rng.random_range(0u32..4) != 0).collect();
                let (c, l): (Vec<f64>, Vec<f64>) = measured.iter().copied().unzip();
                monitor.observe_partial(&LoadState::from_measured(c, l), &reported);
                let forecast = monitor.forecast();
                for (i, ((&(c, l), &fresh), (cpu, nic))) in measured
                    .iter()
                    .zip(&reported)
                    .zip(cpu.iter_mut().zip(nic.iter_mut()))
                    .enumerate()
                {
                    if fresh {
                        cpu.observe(c);
                        nic.observe(l);
                        seen[i].push((c, l));
                    }
                    // `forecast` stores through the clamping setters.
                    let want = (
                        cpu.predict().clamp(0.01, 1.0),
                        nic.predict().clamp(0.0, 0.99),
                    );
                    let got = (forecast.cpu_avail(NodeId(i as u32)), forecast.nic_load(NodeId(i as u32)));
                    prop_assert!(
                        got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits(),
                        "{kind:?} node {i} after sweep {sweep}: {got:?}, reference {want:?}\n  seed {seed}\n  node's (cpu, nic) reports {:?}",
                        seen[i]
                    );
                }
            }
            prop_assert_eq!(monitor.observations(), sweeps as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The benchmark's shape: the daemon's default `Adaptive(8)` over full
    // 128-node sweeps of unquantised loads (CPU availability in [0.3, 1),
    // NIC load in [0, 0.5)), with a quantised sweep now and then for ties.
    fn adaptive_monitor_over_128_node_sweeps_forecasts_what_references_do(seed in 0u64..u64::MAX) {
        const NODES: usize = 128;
        let mut rng = StdRng::seed_from_u64(seed);
        let kind = ForecastKind::Adaptive(8);
        let mut monitor = Monitor::new(NODES, kind);
        let mut cpu: Vec<_> = (0..NODES).map(|_| reference_of(kind, 1.0)).collect();
        let mut nic: Vec<_> = (0..NODES).map(|_| reference_of(kind, 0.0)).collect();
        // 64 sweeps wrap the 16-entry error ring four times.
        for sweep in 0..64 {
            let quantised = rng.random_range(0u32..4) == 0;
            let measured: Vec<(f64, f64)> = (0..NODES)
                .map(|_| match quantised {
                    true => (level(&mut rng, false), level(&mut rng, false)),
                    false => (rng.random_range(0.3..1.0), rng.random_range(0.0..0.5)),
                })
                .collect();
            let (c, l): (Vec<f64>, Vec<f64>) = measured.iter().copied().unzip();
            monitor.observe(&LoadState::from_measured(c, l));
            let forecast = monitor.forecast();
            for (i, (&(c, l), (cpu, nic))) in measured
                .iter()
                .zip(cpu.iter_mut().zip(nic.iter_mut()))
                .enumerate()
            {
                cpu.observe(c);
                nic.observe(l);
                let want = (cpu.predict().clamp(0.01, 1.0), nic.predict().clamp(0.0, 0.99));
                let got = (forecast.cpu_avail(NodeId(i as u32)), forecast.nic_load(NodeId(i as u32)));
                prop_assert!(
                    got.0.to_bits() == want.0.to_bits() && got.1.to_bits() == want.1.to_bits(),
                    "node {i} after sweep {sweep}: {got:?}, reference {want:?}\n  seed {seed}"
                );
            }
        }
        prop_assert_eq!(monitor.observations(), 64);
    }
}
