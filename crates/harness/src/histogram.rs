//! A fixed-bucket log-linear latency histogram.
//!
//! Latency samples (nanoseconds) are binned into 16 linear sub-buckets per
//! power of two, so the histogram has a constant memory footprint and can be
//! merged across threads without allocation.  Percentile queries return the
//! upper edge of the bucket containing the requested rank, clamped to the
//! largest sample: at most 1/16 (6.25 %) above the true quantile, and never
//! above the maximum.

/// Linear sub-buckets per power of two (`2^SUB_BITS`).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Buckets needed to cover every `u64` value: values below `SUB` get one
/// bucket each, every larger power of two gets `SUB`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A log-linear histogram of nanosecond latencies.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Bucket of `ns`: exact below `SUB`, otherwise the sub-bucket of its power
/// of two.
fn bucket(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    let sub = (ns >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// Largest value that lands in bucket `i`.
fn upper_edge(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = (i / SUB - 1) as u32;
    let low = ((SUB + i % SUB) as u64) << shift;
    low + ((1u64 << shift) - 1)
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
            max_ns: 0,
        }
    }

    /// Records one latency sample.  A sample below the clock's 1-ns
    /// resolution counts as 1 ns.
    pub fn record(&mut self, ns: u64) {
        let ns = ns.max(1);
        self.counts[bucket(ns)] += 1;
        self.total += 1;
        self.sum_ns += u128::from(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean of the samples (0 when empty).
    #[must_use]
    pub fn mean_ns(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum_ns / u128::from(self.total)) as u64
        }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Upper edge of the bucket containing the `q`-quantile (`0.0..=1.0`),
    /// clamped to the largest sample (0 when empty).
    #[must_use]
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((self.total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= target {
                return upper_edge(i).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.max_ns(), 0);
    }

    #[test]
    fn mean_and_max_track_samples() {
        let mut h = LatencyHistogram::new();
        h.record(100);
        h.record(300);
        assert_eq!(h.count(), 2);
        assert_eq!(h.mean_ns(), 200);
        assert_eq!(h.max_ns(), 300);
    }

    #[test]
    fn quantile_is_an_upper_bound_of_the_bucket() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100);
        }
        h.record(1_000_000);
        // p50 falls in the bucket of 100 (64..127).
        assert!(h.quantile_ns(0.5) >= 100);
        assert!(h.quantile_ns(0.5) < 256);
        // p100 falls in the bucket of 1e6.
        assert!(h.quantile_ns(1.0) >= 1_000_000);
    }

    #[test]
    fn merge_accumulates_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(10);
        b.record(1000);
        b.record(2000);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max_ns(), 2000);
    }

    #[test]
    fn buckets_tile_the_value_range() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket(upper_edge(i)), i);
            assert_eq!(
                bucket(upper_edge(i) + 1),
                i + 1,
                "bucket {i} abuts the next"
            );
        }
        for ns in [1u64, 15, 16, 17, 31, 32, 300, 1_000, 123_456_789, u64::MAX] {
            let i = bucket(ns);
            assert!(ns <= upper_edge(i), "{ns}");
            assert!(i == 0 || ns > upper_edge(i - 1), "{ns}");
        }
        assert_eq!(upper_edge(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantile_never_exceeds_the_max() {
        let mut h = LatencyHistogram::new();
        for ns in [300u64, 9_889_000, 1_000, 16_777_215] {
            h.record(ns);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert!(h.quantile_ns(q) <= h.max_ns(), "q={q}");
        }
        let mut single = LatencyHistogram::new();
        single.record(9_889_000);
        assert_eq!(single.quantile_ns(0.99), 9_889_000);
    }

    #[test]
    fn p50_of_constant_samples_is_within_a_sixteenth() {
        let mut h = LatencyHistogram::new();
        for _ in 0..1_000 {
            h.record(300);
        }
        let p50 = h.quantile_ns(0.5) as f64;
        assert!((p50 - 300.0).abs() <= 300.0 / 16.0, "p50 {p50}");
    }

    #[test]
    fn zero_sample_goes_to_first_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_ns(1.0) >= 1);
    }

    proptest! {
        /// Merging is equivalent to recording everything into one histogram.
        #[test]
        fn merge_matches_single_histogram(
            xs in proptest::collection::vec(1u64..1_000_000, 0..64),
            ys in proptest::collection::vec(1u64..1_000_000, 0..64),
        ) {
            let mut merged = LatencyHistogram::new();
            let mut left = LatencyHistogram::new();
            let mut right = LatencyHistogram::new();
            for &x in &xs { left.record(x); merged.record(x); }
            for &y in &ys { right.record(y); merged.record(y); }
            left.merge(&right);
            prop_assert_eq!(left.count(), merged.count());
            prop_assert_eq!(left.mean_ns(), merged.mean_ns());
            prop_assert_eq!(left.max_ns(), merged.max_ns());
            prop_assert_eq!(left.quantile_ns(0.9), merged.quantile_ns(0.9));
        }

        /// Quantiles never exceed the bucket bound above the true maximum and
        /// are monotone in q.
        #[test]
        fn quantiles_are_monotone(xs in proptest::collection::vec(1u64..10_000_000, 1..128)) {
            let mut h = LatencyHistogram::new();
            for &x in &xs { h.record(x); }
            let q50 = h.quantile_ns(0.5);
            let q90 = h.quantile_ns(0.9);
            let q100 = h.quantile_ns(1.0);
            prop_assert!(q50 <= q90);
            prop_assert!(q90 <= q100);
            let max = *xs.iter().max().unwrap();
            prop_assert!(q100 >= max, "upper bound must cover the max");
            prop_assert!(q100 <= max.next_power_of_two().max(2) * 2);
        }
    }
}
