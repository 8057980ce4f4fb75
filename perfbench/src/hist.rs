//! Log-linear latency histogram: 16 linear sub-buckets per power of two.
//!
//! A sample lands in a bucket at most 1/16 (6.25 %) wider than its value, so
//! every percentile read back is within that relative error.  Recording is an
//! index computation and one increment; each recording thread (or connection)
//! owns its histogram and the run merges them at the end, so the hot path
//! never shares a cache line or a lock.

/// Linear sub-buckets per power of two (`2^SUB_BITS`).
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Buckets needed to cover every `u64` value.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// A mergeable nanosecond histogram.
#[derive(Debug, Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

fn index(value: u64) -> usize {
    if value < SUB as u64 {
        return value as usize;
    }
    let exp = 63 - value.leading_zeros();
    let sub = (value >> (exp - SUB_BITS)) as usize & (SUB - 1);
    (exp - SUB_BITS + 1) as usize * SUB + sub
}

/// `[low, high)` value range of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, i as f64 + 1.0);
    }
    let shift = (i / SUB - 1) as i32;
    let low = (SUB + i % SUB) as f64 * 2f64.powi(shift);
    (low, low + 2f64.powi(shift))
}

impl Hist {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample (nanoseconds).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[index(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`.
    pub fn merge(&mut self, other: &Hist) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile, interpolated linearly by rank inside its bucket and
    /// clamped to the observed range (0 when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.total as f64;
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            if (below + count) as f64 >= target {
                let (low, high) = bounds(i);
                let within = ((target - below as f64) / count as f64).clamp(0.0, 1.0);
                let value = low + (high - low) * within;
                return value.clamp(self.min as f64, self.max as f64);
            }
            below += count;
        }
        self.max as f64
    }

    /// The highest percentile with at least ten samples beyond it, as a
    /// fraction (`None` below eleven samples).
    #[must_use]
    pub fn highest_resolved(&self) -> Option<f64> {
        (self.total > 10).then(|| 1.0 - 10.0 / self.total as f64)
    }

    /// The tail figure a metric reports: p99 when at least ten samples lie
    /// beyond it, otherwise the highest percentile that does, otherwise the
    /// slowest sample.
    #[must_use]
    pub fn tail(&self) -> f64 {
        match self.highest_resolved() {
            Some(q) => self.quantile(q.min(0.99)),
            None => self.max as f64,
        }
    }

    /// One human-readable summary line: count, p50, p99 and the highest
    /// resolved percentile.
    #[must_use]
    pub fn summary(&self, scale: f64, unit: &str) -> String {
        let top = match self.highest_resolved() {
            Some(q) => format!(
                "p{} {:.3} {unit}",
                format_percentile(q),
                self.quantile(q) / scale
            ),
            None => format!(
                "max {:.3} {unit} (under 11 samples)",
                self.max as f64 / scale
            ),
        };
        format!(
            "n={} p50 {:.3} {unit}, p99 {:.3} {unit}, {top}",
            self.total,
            self.quantile(0.5) / scale,
            self.quantile(0.99) / scale,
        )
    }
}

fn format_percentile(q: f64) -> String {
    let text = format!("{:.6}", q * 100.0);
    text.trim_end_matches('0').trim_end_matches('.').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_value_range() {
        for i in 0..BUCKETS - 1 {
            let (_, high) = bounds(i);
            let (low, _) = bounds(i + 1);
            assert_eq!(high, low, "bucket {i}");
        }
        for value in [0u64, 1, 15, 16, 17, 31, 32, 33, 1000, 123_456_789, u64::MAX] {
            let (low, high) = bounds(index(value));
            assert!(low <= value as f64 && value as f64 <= high, "{value}");
        }
    }

    #[test]
    fn quantiles_stay_within_the_bucket_error() {
        let mut hist = Hist::new();
        for value in 1..=10_000u64 {
            hist.record(value * 10);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = q * 100_000.0;
            let got = hist.quantile(q);
            assert!(
                (got - exact).abs() / exact <= 0.0625,
                "q={q} got {got} exact {exact}"
            );
        }
        let resolved = hist.highest_resolved().expect("10,000 samples resolve");
        assert!((resolved - 0.999).abs() < 1e-12);
    }

    #[test]
    fn merging_equals_recording_together() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for value in 0..500u64 {
            a.record(value);
            both.record(value);
        }
        for value in 500..2000u64 {
            b.record(value * 3);
            both.record(value * 3);
        }
        a.merge(&b);
        assert_eq!(a.total, both.total);
        assert_eq!(a.quantile(0.5), both.quantile(0.5));
        assert_eq!((a.min, a.max), (both.min, both.max));
    }
}
