//! Lock-free metric primitives: counters, gauges, and log-linear bucket
//! histograms with mergeable snapshots and percentile queries.
//!
//! Every instrument is cumulative: it counts from process start and an
//! update never reads the clock. A reader that wants "the last N
//! seconds" keeps an earlier snapshot and subtracts it from a later one
//! ([`HistogramSnapshot::sub`] for a distribution, `-` for a count).

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count. An update is a single
/// `fetch_add` — wait-free, shareable across threads. It has a cache
/// line to itself: a registry allocates its counters back to back and
/// different threads bump neighbours (the reactor `server.loop_wakeups`,
/// a worker `server.served`), so two to a line cost `routed_compare`
/// 4 % of its requests per second.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins instantaneous measurement (queue depth, rate, ...).
/// Stores `f64` bits in one atomic cell.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Self {
        Gauge(AtomicU64::new(0))
    }

    /// Replace the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^SUB_BITS` linear buckets, bounding relative bucket width to
/// `2^-SUB_BITS` (6.25 %).
const SUB_BITS: usize = 4;
const SUB: usize = 1 << SUB_BITS;
/// Bucket count covering the full `u64` domain: values `0..16` map to
/// exact unit buckets, and each of the 60 octaves `[2^4, 2^64)`
/// contributes 16 more (the top index is `59·16 + 31 = 975`).
const NUM_BUCKETS: usize = (64 - SUB_BITS + 1) * SUB;

/// Index of the log-linear bucket containing `v`.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as usize;
        let shift = msb - SUB_BITS;
        (v >> shift) as usize + (shift << SUB_BITS)
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `idx`.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < SUB {
        (idx as u64, idx as u64)
    } else {
        let shift = idx / SUB - 1;
        let sub = (idx - (shift << SUB_BITS)) as u128;
        let hi = ((sub + 1) << shift) - 1;
        ((sub as u64) << shift, hi.min(u64::MAX as u128) as u64)
    }
}

/// A lock-free log-linear histogram over `u64` values (for CBES:
/// microseconds). `record` touches one bucket plus four summary cells,
/// all relaxed atomics — safe to hammer from every worker thread.
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] in microseconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the whole distribution. Concurrent
    /// `record`s may or may not be included (each one atomically), so a
    /// snapshot taken while writers run is a valid histogram of *some*
    /// prefix-plus-subset of the recorded values; once writers quiesce
    /// it is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i as u32, c));
                count += c;
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if min == u64::MAX { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .finish()
    }
}

/// A frozen, serialisable copy of a [`Histogram`]: sparse bucket counts
/// plus summary statistics. Snapshots merge associatively and
/// commutatively, so per-thread or per-process histograms can be
/// combined in any order with a deterministic result.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// `(bucket index, count)` pairs, ascending by index, zeros omitted.
    pub buckets: Vec<(u32, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold `other` into `self`. Bucket counts add; min/max widen.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<(u32, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.buckets.len() || j < other.buckets.len() {
            match (self.buckets.get(i), other.buckets.get(j)) {
                (Some(&(a, ca)), Some(&(b, cb))) if a == b => {
                    merged.push((a, ca + cb));
                    i += 1;
                    j += 1;
                }
                (Some(&(a, ca)), Some(&(b, _))) if a < b => {
                    merged.push((a, ca));
                    i += 1;
                }
                (Some(_), Some(&(b, cb))) => {
                    merged.push((b, cb));
                    j += 1;
                }
                (Some(&(a, ca)), None) => {
                    merged.push((a, ca));
                    i += 1;
                }
                (None, Some(&(b, cb))) => {
                    merged.push((b, cb));
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        let was_empty = self.count == 0;
        self.buckets = merged;
        self.count += other.count;
        self.sum += other.sum;
        self.min = if was_empty {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
    }

    /// The difference `self − base`: the distribution of observations
    /// recorded between the moment `base` was captured and the moment
    /// `self` was — the window primitive. `base` must be an earlier
    /// snapshot of the same histogram (bucket counts subtract
    /// saturating, so a mismatched pair degrades rather than panics).
    /// `min`/`max` are re-derived from the differenced buckets (bucket
    /// bounds, so within the 6.25 % bucket width rather than exact).
    pub fn sub(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        if base.count == 0 {
            return self.clone();
        }
        let mut buckets: Vec<(u32, u64)> = Vec::with_capacity(self.buckets.len());
        let mut j = 0usize;
        for &(idx, c) in &self.buckets {
            while j < base.buckets.len() && base.buckets[j].0 < idx {
                j += 1;
            }
            let b = match base.buckets.get(j) {
                Some(&(bidx, bc)) if bidx == idx => bc,
                _ => 0,
            };
            let diff = c.saturating_sub(b);
            if diff > 0 {
                buckets.push((idx, diff));
            }
        }
        let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
        let (min, max) = match (buckets.first(), buckets.last()) {
            (Some(&(lo, _)), Some(&(hi, _))) => (
                bucket_bounds(lo as usize).0.max(self.min),
                bucket_bounds(hi as usize).1.min(self.max),
            ),
            _ => (0, 0),
        };
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.saturating_sub(base.sum),
            min,
            max,
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest observation
    /// (within 6.25 % of the true value). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for &(idx, c) in &self.buckets {
            cum += c;
            if cum >= rank {
                let (_, hi) = bucket_bounds(idx as usize);
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(3.25);
        assert_eq!(g.get(), 3.25);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn small_values_get_exact_unit_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bounds(v as usize), (v, v));
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_cover_u64() {
        // Every bucket's hi + 1 must be the next bucket's lo, from 0 up
        // through the top of the u64 range.
        let mut expect_lo = 0u64;
        for idx in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(
                lo, expect_lo,
                "bucket {idx} must start where the last ended"
            );
            assert!(hi >= lo);
            // Both endpoints map back to this bucket.
            assert_eq!(bucket_index(lo), idx);
            assert_eq!(bucket_index(hi), idx);
            if hi == u64::MAX {
                assert_eq!(
                    idx,
                    NUM_BUCKETS - 1,
                    "only the last bucket reaches u64::MAX"
                );
                return;
            }
            expect_lo = hi + 1;
        }
        panic!("buckets must reach u64::MAX");
    }

    #[test]
    fn bucket_width_is_within_relative_error_bound() {
        for v in [17u64, 100, 1000, 12_345, 1 << 20, u64::MAX / 3] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi);
            // Width ≤ lo / 16 ⇒ ≤ 6.25 % relative error at the lower edge.
            assert!(
                (hi - lo) as f64 <= lo as f64 / 16.0 + 1.0,
                "bucket [{lo}, {hi}] too wide for {v}"
            );
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
        let (p50, p90, p99) = (s.p50(), s.p90(), s.p99());
        assert!(p50 <= p90 && p90 <= p99, "{s:?}");
        assert!(p99 <= s.max);
        // Uniform 1..=1000: p50 within a bucket of 500.
        assert!((p50 as f64 - 500.0).abs() / 500.0 < 0.07, "p50 {p50}");
        assert!((p90 as f64 - 900.0).abs() / 900.0 < 0.07, "p90 {p90}");
        assert!((s.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn quantile_edges_and_empty() {
        let empty = HistogramSnapshot::default();
        assert!(empty.is_empty());
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.mean(), 0.0);

        let h = Histogram::new();
        h.record(7);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 7);
        assert_eq!(s.quantile(1.0), 7);
        assert_eq!(s.min, 7);
        assert_eq!(s.max, 7);
    }

    #[test]
    fn merge_is_deterministic_across_concurrent_recorders() {
        // 8 threads record disjoint, known streams into per-thread
        // histograms; merging the snapshots in any order must equal a
        // single histogram fed everything.
        let per_thread: Vec<Histogram> = (0..8).map(|_| Histogram::new()).collect();
        std::thread::scope(|s| {
            for (t, h) in per_thread.iter().enumerate() {
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        h.record(t as u64 * 10_000 + i % 997);
                    }
                });
            }
        });

        let reference = Histogram::new();
        for t in 0..8u64 {
            for i in 0..5_000u64 {
                reference.record(t * 10_000 + i % 997);
            }
        }

        let snaps: Vec<HistogramSnapshot> = per_thread.iter().map(|h| h.snapshot()).collect();
        let mut forward = HistogramSnapshot::default();
        for s in &snaps {
            forward.merge(s);
        }
        let mut backward = HistogramSnapshot::default();
        for s in snaps.iter().rev() {
            backward.merge(s);
        }
        assert_eq!(forward, backward, "merge order must not matter");
        assert_eq!(
            forward,
            reference.snapshot(),
            "merge must equal single-writer"
        );
        assert_eq!(forward.count, 40_000);
    }

    #[test]
    fn concurrent_single_histogram_loses_nothing() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for i in 0..10_000u64 {
                        h.record(i % 1000);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 80_000);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let h = Histogram::new();
        for v in [0u64, 1, 15, 16, 17, 1000, 123_456_789] {
            h.record(v);
        }
        let s = h.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: HistogramSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn sub_recovers_the_increment_between_two_snapshots() {
        let h = Histogram::new();
        h.record(100);
        h.record(200);
        let early = h.snapshot();
        h.record(300);
        h.record(400);
        let late = h.snapshot();
        let diff = late.sub(&early);
        assert_eq!(diff.count, 2);
        assert_eq!(diff.sum, 700);
        assert!(diff.min >= 288 && diff.min <= 300, "{diff:?}");
        assert!(diff.max >= 400 && diff.max <= 416, "{diff:?}");
        // Subtracting an empty base is the identity.
        assert_eq!(late.sub(&HistogramSnapshot::default()), late);
        // Subtracting everything leaves an empty window.
        assert!(late.sub(&late).is_empty());
    }

    // Windows (a later snapshot minus an earlier one) from several
    // instances merge into a tier-wide window whose p99 never exceeds
    // the largest per-instance p99 (shared bucketisation makes the
    // bound exact), and whose count is the sum of the parts.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        fn merged_window_p99_is_bounded_by_the_max_of_the_parts(
            seed in 0u64..u64::MAX,
            instances in 1usize..6,
            per_instance in 1usize..200,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut parts: Vec<HistogramSnapshot> = Vec::new();
            for _ in 0..instances {
                let h = Histogram::new();
                // Some history before the window opens, then the
                // window's own records.
                for _ in 0..rng.random_range(0..per_instance) {
                    h.record(rng.random_range(0u64..2_000_000));
                }
                let opened = h.snapshot();
                for _ in 0..rng.random_range(1..per_instance + 1) {
                    h.record(rng.random_range(0u64..2_000_000));
                }
                parts.push(h.snapshot().sub(&opened));
            }
            let mut merged = HistogramSnapshot::default();
            for p in &parts {
                merged.merge(p);
            }
            // Shared bucketisation makes the bound exact at bucket
            // granularity; `quantile` additionally clamps to the
            // snapshot's own `max`, which can pull a part's p99 below
            // its bucket's upper bound while the merged snapshot (with
            // a larger max from another part) keeps the full bucket —
            // so allow one log-linear bucket width (≤ 1/16) of slack.
            let bound = |v: u64| v + v / 16 + 1;
            let max_part_p99 = parts.iter().map(|p| p.p99()).max().unwrap_or(0);
            proptest::prop_assert!(
                merged.p99() <= bound(max_part_p99),
                "merged p99 {} > max part p99 {} (+1 bucket)",
                merged.p99(),
                max_part_p99
            );
            proptest::prop_assert_eq!(
                merged.count,
                parts.iter().map(|p| p.count).sum::<u64>()
            );
            for q in [0.5f64, 0.9, 0.99] {
                let max_part = parts.iter().map(|p| p.quantile(q)).max().unwrap_or(0);
                proptest::prop_assert!(merged.quantile(q) <= bound(max_part));
            }
        }
    }
}
