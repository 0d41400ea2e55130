//! The forecasters keep their answer instead of re-deriving it on every
//! `predict`. This holds them, bit for bit, against the implementation
//! they replaced, kept below verbatim (less `reset`, which nothing
//! called) as the reference — the way `write_f64` is held against
//! `core::fmt`.
//!
//! Values are quantised so windows are full of ties, ±0.0 among them:
//! ties are where a sorted window, an argmin or an eviction can pick a
//! different element and still look right. The vendored `proptest` does
//! not shrink, so a failure prints its seed and its input; the seed
//! alone replays it.

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

/// One forecaster under test beside its reference twin.
struct Pair {
    got: Box<dyn fast::Forecaster>,
    want: Box<dyn reference::Forecaster>,
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

impl Pair {
    fn new(kind: ForecastKind, default: f64) -> Pair {
        Pair {
            got: fast_of(kind, default),
            want: reference_of(kind, default),
        }
    }

    fn observe(&mut self, value: f64) {
        self.got.observe(value);
        self.want.observe(value);
    }

    /// Both predictions, when their bits differ.
    fn mismatch(&self) -> Option<(f64, f64)> {
        let (got, want) = (self.got.predict(), self.want.predict());
        (got.to_bits() != want.to_bits()).then_some((got, want))
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
/// coarse grid whose steps are inexact, and small negatives.
fn level(rng: &mut StdRng) -> f64 {
    const LEVELS: [f64; 8] = [0.0, -0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0];
    match rng.random_range(0u32..3) {
        0 => LEVELS[rng.random_range(0..LEVELS.len())],
        1 => f64::from(rng.random_range(0u32..8)) / 7.0,
        _ => -f64::from(rng.random_range(0u32..3)) / 3.0,
    }
}

/// `len` quantised values in runs of up to four equal ones.
fn sequence(rng: &mut StdRng, len: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let v = level(rng);
        let run = rng.random_range(1usize..5).min(len - out.len());
        out.extend(std::iter::repeat_n(v, run));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    fn every_forecaster_predicts_what_the_reference_does(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let window = rng.random_range(1usize..17);
        let default = level(&mut rng);
        let len = rng.random_range(0usize..201);
        let seq = sequence(&mut rng, len);
        for kind in kinds(window) {
            let mut pair = Pair::new(kind, default);
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
                    (0..nodes).map(|_| (level(&mut rng), level(&mut rng))).collect();
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
