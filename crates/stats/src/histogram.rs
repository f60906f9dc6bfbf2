//! A small fixed-bucket histogram for latency distributions.

use serde::{Deserialize, Serialize};

/// A power-of-two-bucketed histogram of cycle counts.
///
/// Used for read-miss service-time distributions: the mean alone hides the
/// 2-hop/4-hop bimodality that explains CW's latency advantage, so the
/// machine records every demand-miss latency here and the reports can show
/// percentiles.
///
/// Buckets are `[2^k, 2^(k+1))` for `k` in `0..BUCKETS`; values ≥ the last
/// boundary land in the final bucket.
///
/// # Example
///
/// ```
/// use dirext_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [30, 30, 30, 140, 300] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.5) <= 64);   // median in the 32..64 bucket
/// assert!(h.percentile(0.99) >= 256); // tail in the 256..512 bucket
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

const BUCKETS: usize = 24;

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        let b = (64 - value.max(1).leading_zeros()) as usize - 1;
        b.min(BUCKETS - 1)
    }

    /// Upper boundary (exclusive) of bucket `i`.
    fn boundary(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (`q` in 0..=1): the upper boundary of the
    /// bucket containing the q-quantile. Returns 0 for an empty histogram.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn percentile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.count == 0 {
            return 0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::boundary(i).min(self.max.max(1));
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Iterates over `(bucket_upper_bound, count)` for nonempty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| (Self::boundary(i), *n))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let mut h = Histogram::new();
        assert_eq!(h.percentile(0.5), 0);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn percentiles_are_monotonic() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 40, 80, 160, 320, 640] {
            for _ in 0..10 {
                h.record(v);
            }
        }
        let p50 = h.percentile(0.5);
        let p90 = h.percentile(0.9);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= h.max().max(1024));
    }

    #[test]
    fn bimodal_distribution_is_visible() {
        // 2-hop (~120 cycles) vs 4-hop (~280 cycles) service times.
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(120);
        }
        for _ in 0..10 {
            h.record(280);
        }
        assert!(h.percentile(0.5) <= 128);
        assert!(h.percentile(0.95) >= 256);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 500);
        assert_eq!(a.iter().count(), 2);
    }

    #[test]
    fn zero_and_huge_values_are_clamped() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn bad_quantile_panics() {
        Histogram::new().percentile(1.5);
    }

    #[test]
    fn serde_round_trip() {
        let mut h = Histogram::new();
        h.record(42);
        let j = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&j).unwrap();
        assert_eq!(h, back);
    }
}
