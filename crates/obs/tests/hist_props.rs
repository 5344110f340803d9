//! Seeded property tests for the log-scale histogram.
//!
//! The crate is dependency-free, so a local SplitMix64 (same algorithm
//! as `dust_topology::SplitMix64`) drives the generators.

use dust_obs::Histogram;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Positive sample spanning many decades: 10^u for u in [-9, 9).
    fn sample(&mut self) -> f64 {
        10f64.powf(self.next_f64() * 18.0 - 9.0)
    }
}

fn record_all(values: &[f64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

/// Exact rank statistic from the raw values, matching the histogram's
/// rank convention (`rank = clamp(ceil(q*n), 1, n)`, 1-based).
fn true_quantile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len() as f64;
    let rank = ((q * n).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[test]
fn quantile_estimates_bounded_by_bucket_edges() {
    for seed in 0..24u64 {
        let mut rng = SplitMix64(seed * 1315 + 7);
        let n = 1 + (rng.next_u64() % 500) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.sample()).collect();
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            let truth = true_quantile(&sorted, q);
            let (lo, hi) = Histogram::bucket_edges(Histogram::bucket_index(truth));
            assert!(
                lo <= est && est <= hi,
                "seed {seed} q {q}: estimate {est} outside bucket [{lo}, {hi}] of truth {truth}"
            );
            assert!(est >= truth, "seed {seed} q {q}: estimate {est} below truth {truth}");
            assert!(
                est >= sorted[0] && est <= sorted[n - 1],
                "seed {seed} q {q}: estimate {est} outside observed range"
            );
        }
    }
}

#[test]
fn merging_disjoint_bucket_ranges_preserves_both_tails() {
    // Samples entirely in the tiny decades, then samples entirely in the
    // huge ones: no bucket overlaps, so one histogram of the union must
    // keep both sides exactly — counts, extremes, and both quantile tails.
    let small: Vec<f64> = (1..=100).map(|i| 1e-9 * i as f64).collect();
    let large: Vec<f64> = (1..=100).map(|i| 1e9 * i as f64).collect();
    let (hs, hl) = (record_all(&small), record_all(&large));
    let overlap: Vec<usize> = hs
        .nonzero_buckets()
        .filter(|(i, ..)| hl.nonzero_buckets().any(|(j, ..)| i == &j))
        .map(|(i, ..)| i)
        .collect();
    assert!(overlap.is_empty(), "ranges must be bucket-disjoint, shared: {overlap:?}");

    let mut union = small.clone();
    union.extend(&large);
    let merged = record_all(&union);
    assert_eq!(merged.count(), 200);
    assert_eq!(merged.min(), Some(1e-9));
    assert_eq!(merged.max(), Some(1e11));
    // q=0.5 falls on the last small sample; q=0.51 on the first large
    // one — the estimate must stay within the right side's range.
    assert!(merged.quantile(0.5).unwrap() <= *small.last().unwrap() * 2.0);
    assert!(merged.quantile(0.51).unwrap() >= 1e9);
    // and its buckets are the two sides' buckets side by side
    let both: Vec<_> = hs.nonzero_buckets().chain(hl.nonzero_buckets()).collect();
    assert_eq!(merged.nonzero_buckets().collect::<Vec<_>>(), both);
}

#[test]
fn quantile_zero_and_one_are_the_exact_extremes() {
    for seed in 0..16u64 {
        let mut rng = SplitMix64(seed * 77 + 3);
        let n = 1 + (rng.next_u64() % 300) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.sample()).collect();
        let h = record_all(&values);
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(h.quantile(0.0), Some(sorted[0]), "seed {seed}: q=0 must be the exact min");
        assert_eq!(h.quantile(1.0), Some(sorted[n - 1]), "seed {seed}: q=1 must be the exact max");
        // out-of-domain q clamps rather than panicking or extrapolating
        assert_eq!(h.quantile(-0.5), h.quantile(0.0), "seed {seed}");
        assert_eq!(h.quantile(1.5), h.quantile(1.0), "seed {seed}");
    }
}

#[test]
fn single_sample_quantiles_are_stable_across_the_whole_q_range() {
    // With one sample every quantile is that sample, bit-for-bit, for
    // any q — including awkward values and repeated queries.
    let mut rng = SplitMix64(0xfeed);
    for _ in 0..50 {
        let v = rng.sample();
        let mut h = Histogram::new();
        h.record(v);
        let mut q = 0.0;
        while q <= 1.0 {
            assert_eq!(h.quantile(q), Some(v), "v={v} q={q}");
            q += 0.01;
        }
        assert_eq!(h.quantile(f64::MIN_POSITIVE), Some(v));
        assert_eq!(h.quantile(1.0 - f64::EPSILON), Some(v));
    }
}
