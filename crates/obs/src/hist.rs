//! Fixed-bucket log-scale histogram.
//!
//! Buckets are derived from the IEEE-754 representation of the recorded
//! value: one power-of-two decade per exponent, split into
//! [`SUB_BUCKETS`] linear sub-buckets from the top mantissa bits. The
//! covered range is `2^-64 ..= 2^64` (plenty for pivot counts, CPU
//! percentages, and second-denominated latencies); values below the
//! range land in a dedicated underflow bucket, values above in an
//! overflow bucket.
//!
//! The struct stores integer counts, exact `min`/`max`, and the running
//! sample sum as an `f64`. A float sum depends on the order its samples
//! arrive in; every histogram is recorded from sequential code (under
//! the one [`crate::ObsHandle`] lock, or by its owner), so a run at a
//! given seed sums its samples in the same order and gets the same bits.

/// Linear sub-buckets per power-of-two decade.
pub const SUB_BUCKETS: usize = 4;

/// Smallest biased exponent covered (`2^-64`).
const EXP_LO: u64 = 1023 - 64;
/// One past the largest biased exponent covered (`2^64`).
const EXP_HI: u64 = 1023 + 64;
/// Regular (non-under/overflow) bucket count.
const REGULAR: usize = ((EXP_HI - EXP_LO) as usize) * SUB_BUCKETS;
/// Total bucket count: underflow + regular + overflow.
pub const NUM_BUCKETS: usize = REGULAR + 2;

/// Index of the underflow bucket (`v < 2^-64`, including negatives).
const UNDERFLOW: usize = 0;
/// Index of the overflow bucket (`v >= 2^64`).
const OVERFLOW: usize = NUM_BUCKETS - 1;

/// A log-scale histogram of non-negative samples.
///
/// `record` ignores NaN; every other finite value is counted. `min` and
/// `max` track the exact extremes so quantile estimates can be clamped
/// to the observed range.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    min: f64,
    max: f64,
    /// Sum of the recorded samples, in recording order.
    sum: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Bucket index for a value. Total order: underflow, then by magnitude.
fn bucket_of(v: f64) -> usize {
    if v <= 0.0 {
        // zero and negatives underflow
        return UNDERFLOW;
    }
    let bits = v.to_bits();
    let exp = bits >> 52; // sign bit is 0 for positives
    if exp < EXP_LO {
        return UNDERFLOW;
    }
    if exp >= EXP_HI {
        return OVERFLOW;
    }
    let sub = ((bits >> 50) & 0b11) as usize; // top 2 mantissa bits
    1 + (exp - EXP_LO) as usize * SUB_BUCKETS + sub
}

/// Inclusive lower edge of a regular bucket; `0.0` for underflow,
/// `2^64` for overflow.
fn lower_edge(idx: usize) -> f64 {
    if idx == UNDERFLOW {
        return 0.0;
    }
    if idx == OVERFLOW {
        return f64::from_bits(EXP_HI << 52);
    }
    let r = idx - 1;
    let exp = EXP_LO + (r / SUB_BUCKETS) as u64;
    let sub = (r % SUB_BUCKETS) as u64;
    f64::from_bits((exp << 52) | (sub << 50))
}

/// Exclusive upper edge of a bucket; `+inf` for overflow.
fn upper_edge(idx: usize) -> f64 {
    if idx == OVERFLOW {
        return f64::INFINITY;
    }
    lower_edge(idx + 1)
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Record one sample. NaN is silently dropped.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded sample, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of the recorded samples, added in recording order; `0.0`
    /// when empty.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`). The estimate is the
    /// upper edge of the bucket holding the rank statistic, clamped to
    /// the observed `[min, max]`, so it always lies within the edges of
    /// the bucket containing the true quantile value. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 {
            return Some(self.min);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(upper_edge(idx).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Non-empty buckets as `(index, lower_edge, upper_edge, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, f64, f64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, lower_edge(i), upper_edge(i), c))
    }

    /// Bucket index a value would land in (exposed for property tests).
    pub fn bucket_index(v: f64) -> usize {
        bucket_of(v)
    }

    /// Edges `[lower, upper)` of a bucket index (exposed for tests).
    pub fn bucket_edges(idx: usize) -> (f64, f64) {
        (lower_edge(idx), upper_edge(idx))
    }

    /// Stable one-line text encoding:
    /// `count=N min=<f64> max=<f64> sum=<f64> buckets=i:c,i:c`, floats in
    /// Rust's shortest-roundtrip formatting. An empty histogram omits
    /// min/max/sum.
    pub(crate) fn encode(&self) -> String {
        let mut s = format!("count={}", self.count);
        if self.count > 0 {
            s.push_str(&format!(" min={} max={} sum={}", self.min, self.max, self.sum));
        }
        s.push_str(" buckets=");
        let mut first = true;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                if !first {
                    s.push(',');
                }
                s.push_str(&format!("{i}:{c}"));
                first = false;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn single_value_quantiles_collapse_to_it() {
        let mut h = Histogram::new();
        h.record(7.25);
        for q in [0.0, 0.1, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7.25), "q={q}");
        }
    }

    #[test]
    fn bucket_edges_bracket_the_value() {
        for v in [1e-12, 0.001, 0.9, 1.0, 1.5, 2.0, 3.999, 1234.5, 1e18, 1e30] {
            let b = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_edges(b);
            assert!(lo <= v && v < hi, "v={v} bucket {b} [{lo}, {hi})");
        }
    }

    #[test]
    fn zero_and_negatives_underflow() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(-3.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.quantile(1.0), Some(0.0));
    }

    #[test]
    fn nan_is_dropped() {
        let mut h = Histogram::new();
        h.record(f64::NAN);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn sum_is_exact_for_representable_values() {
        let mut h = Histogram::new();
        for v in [1.0, 2.5, 0.25, 1e6, -3.5] {
            h.record(v);
        }
        assert_eq!(h.sum(), 1.0 + 2.5 + 0.25 + 1e6 - 3.5);
        assert_eq!(Histogram::new().sum(), 0.0);
    }
}
