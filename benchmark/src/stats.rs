//! Percentiles, medians, the choice of the fastest slices, and the run
//! schedule (warm-up, then back-to-back measured slices).

use std::time::Duration;

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Index of the nearest-rank percentile `p` in a sorted sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of an ascending sample; `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    (!sorted.is_empty()).then(|| sorted[rank(sorted.len(), p)])
}

/// The percentile only when at least [`MIN_BEYOND`] samples lie beyond
/// it, so one preempted request cannot be the whole tail.
pub fn supported_percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    (n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND).then(|| sorted[rank(n, p)])
}

/// Median of a non-empty set (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Indices of the fastest `1 / one_in` of `n` items (at least one): the
/// ones with the smallest `key`, the earlier of two equal ones first.
pub fn fastest<K: Ord>(n: usize, one_in: usize, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (key(i), i));
    order.truncate((n / one_in).max(1));
    order
}

/// Where a window that starts `elapsed` after the run began belongs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    Warmup,
    Slice(usize),
    Done,
}

/// A discarded warm-up followed by `slices` equal measured slices.
/// A window belongs to the slice in which it started.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
}

impl Schedule {
    pub fn slot(&self, elapsed: Duration) -> Slot {
        let Some(measured) = elapsed.checked_sub(self.warmup) else {
            return Slot::Warmup;
        };
        let index = (measured.as_nanos() / self.slice.as_nanos().max(1)) as usize;
        if index < self.slices {
            Slot::Slice(index)
        } else {
            Slot::Done
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 is the 990th value: exactly 10 beyond.
        assert_eq!(supported_percentile(&v, 0.99), Some(990));
        assert_eq!(supported_percentile(&v[..999], 0.99), None);
        // p99.9 needs 10 beyond the 0.1 % tail: more than 10 000 samples.
        assert_eq!(supported_percentile(&v, 0.999), None);
        let big: Vec<u64> = (1..=10_001).collect();
        assert_eq!(supported_percentile(&big, 0.999), Some(9991));
    }

    #[test]
    fn median_is_the_middle_or_the_mean_of_the_two_middles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[6.0, 1.0, 4.0, 2.0, 5.0, 3.0]), 3.5);
        assert_eq!(median(&[9.0]), 9.0);
    }

    #[test]
    fn the_fastest_tenth_has_the_smallest_keys_and_is_never_empty() {
        use std::cmp::Reverse;
        let completed: Vec<u64> = (0..30)
            .map(|i| [5, 9, 7][i % 3] + (i == 4) as u64)
            .collect();
        // 30 slices: three chosen; slice 4 completed 10, then the first 9s.
        assert_eq!(fastest(30, 10, |i| Reverse(completed[i])), vec![4, 1, 7]);
        let took = [3u64, 8, 2, 2];
        assert_eq!(fastest(4, 10, |i| took[i]), vec![2]);
        assert_eq!(fastest(4, 2, |i| took[i]), vec![2, 3]);
    }

    #[test]
    fn a_window_belongs_to_the_slice_in_which_it_started() {
        let s = Schedule {
            warmup: Duration::from_millis(1000),
            slice: Duration::from_millis(150),
            slices: 100,
        };
        assert_eq!(s.slot(Duration::ZERO), Slot::Warmup);
        assert_eq!(s.slot(Duration::from_millis(999)), Slot::Warmup);
        assert_eq!(s.slot(Duration::from_millis(1000)), Slot::Slice(0));
        assert_eq!(s.slot(Duration::from_millis(1149)), Slot::Slice(0));
        assert_eq!(s.slot(Duration::from_millis(1150)), Slot::Slice(1));
        assert_eq!(s.slot(Duration::from_millis(15_999)), Slot::Slice(99));
        assert_eq!(s.slot(Duration::from_millis(16_000)), Slot::Done);
    }
}
