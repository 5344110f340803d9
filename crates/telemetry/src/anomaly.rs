//! Online anomaly detection and overload forecasting.
//!
//! The paper motivates in-device telemetry with "providing in-depth device
//! telemetry and predicting failures in advance" (abstract) and ships a
//! fault-finder agent (§V-A footnote 1). This module supplies the analytic
//! half of that story with two small online estimators:
//!
//! * [`EwmaDetector`] — exponentially-weighted mean/variance with a
//!   z-score test, flagging samples that deviate from recent behaviour
//!   (spikes, stuck-at faults, level shifts);
//! * [`TrendForecaster`] — double-exponential (Holt) smoothing that
//!   projects a series forward, answering "when will this node cross
//!   `C_max`?" before it happens — a proactive trigger to act on instead
//!   of waiting for a Busy STAT.
//!
//! Both are a library-only extension: neither `dust-proto` nor `dust-sim`
//! calls them; the Manager reacts to Busy STATs only.

/// Online EWMA mean/variance with z-score anomaly flagging.
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    /// Smoothing factor in `(0, 1]`: larger forgets faster.
    alpha: f64,
    /// Z-score above which a sample is anomalous.
    z_threshold: f64,
    mean: Option<f64>,
    var: f64,
    /// Samples consumed.
    count: u64,
    /// Warm-up samples before flagging begins.
    warmup: u64,
}

impl EwmaDetector {
    /// A detector with smoothing `alpha`, flagging beyond `z_threshold`
    /// standard deviations, after a `warmup`-sample learning period.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]` or `z_threshold <= 0`.
    pub fn new(alpha: f64, z_threshold: f64, warmup: u64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1], got {alpha}");
        assert!(z_threshold > 0.0, "z threshold must be positive, got {z_threshold}");
        EwmaDetector { alpha, z_threshold, mean: None, var: 0.0, count: 0, warmup }
    }

    /// Default tuning: α = 0.1, 3σ, 10-sample warm-up.
    pub fn default_tuning() -> Self {
        Self::new(0.1, 3.0, 10)
    }

    /// Current estimate of the mean, if any samples were seen.
    pub fn mean(&self) -> Option<f64> {
        self.mean
    }

    /// Current standard-deviation estimate.
    pub fn stddev(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// Consume one sample; returns `Some(z_score)` when it is anomalous.
    ///
    /// The sample is scored against the *pre-update* statistics, then
    /// folded in (so a level shift keeps flagging until the estimator
    /// adapts).
    pub fn observe(&mut self, value: f64) -> Option<f64> {
        self.count += 1;
        let Some(mean) = self.mean else {
            self.mean = Some(value);
            return None;
        };
        // variance floor so a perfectly steady series (sd = 0) still flags
        // genuine departures instead of dividing by zero
        let sd_eff = self.stddev().max(1e-6 * (1.0 + mean.abs()));
        let z = (value - mean).abs() / sd_eff;
        let anomalous = self.count > self.warmup && z > self.z_threshold;

        // EWMA update (West 1979-style coupled mean/variance)
        let delta = value - mean;
        let new_mean = mean + self.alpha * delta;
        self.var = (1.0 - self.alpha) * (self.var + self.alpha * delta * delta);
        self.mean = Some(new_mean);
        anomalous.then_some(z)
    }
}

/// Holt double-exponential smoothing: level + trend, with crossing
/// forecasts.
#[derive(Debug, Clone)]
pub struct TrendForecaster {
    /// Level smoothing factor.
    alpha: f64,
    /// Trend smoothing factor.
    beta: f64,
    level: Option<f64>,
    trend: f64,
    last_ts_ms: Option<u64>,
    /// Nominal sample spacing used to normalize the trend, ms.
    step_ms: u64,
}

impl TrendForecaster {
    /// A forecaster with level/trend smoothing and the expected sample
    /// spacing.
    ///
    /// # Panics
    /// Panics on out-of-range factors or `step_ms == 0`.
    pub fn new(alpha: f64, beta: f64, step_ms: u64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta must be in (0,1]");
        assert!(step_ms > 0, "step must be positive");
        TrendForecaster { alpha, beta, level: None, trend: 0.0, last_ts_ms: None, step_ms }
    }

    /// Default tuning for 1-second telemetry: α = 0.3, β = 0.1.
    pub fn default_tuning() -> Self {
        Self::new(0.3, 0.1, 1_000)
    }

    /// Current level estimate.
    pub fn level(&self) -> Option<f64> {
        self.level
    }

    /// Current per-step trend estimate.
    pub fn trend(&self) -> f64 {
        self.trend
    }

    /// Consume one timestamped sample.
    pub fn observe(&mut self, ts_ms: u64, value: f64) {
        match self.level {
            None => {
                self.level = Some(value);
                self.last_ts_ms = Some(ts_ms);
            }
            Some(level) => {
                // normalize irregular spacing into whole steps
                let dt = ts_ms.saturating_sub(self.last_ts_ms.unwrap_or(ts_ms));
                let steps = (dt as f64 / self.step_ms as f64).max(1e-9);
                let predicted = level + self.trend * steps;
                let new_level = self.alpha * value + (1.0 - self.alpha) * predicted;
                let step_trend = (new_level - level) / steps;
                self.trend = self.beta * step_trend + (1.0 - self.beta) * self.trend;
                self.level = Some(new_level);
                self.last_ts_ms = Some(ts_ms);
            }
        }
    }

    /// Forecast the value `horizon_ms` after the last sample.
    pub fn forecast(&self, horizon_ms: u64) -> Option<f64> {
        let level = self.level?;
        Some(level + self.trend * horizon_ms as f64 / self.step_ms as f64)
    }

    /// Milliseconds (after the last sample) until the series is projected
    /// to reach `threshold`, `None` when it never will on the current
    /// trend (flat/receding, or already past it counts as `Some(0)`).
    pub fn ms_until(&self, threshold: f64) -> Option<u64> {
        let level = self.level?;
        if level >= threshold {
            return Some(0);
        }
        if self.trend <= 1e-12 {
            return None;
        }
        let steps = (threshold - level) / self.trend;
        Some((steps * self.step_ms as f64).ceil() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_series_never_flags() {
        let mut d = EwmaDetector::default_tuning();
        for i in 0..200 {
            let v = 50.0 + ((i % 5) as f64) * 0.1; // tiny periodic wiggle
            assert!(d.observe(v).is_none(), "sample {i} flagged");
        }
        assert!((d.mean().unwrap() - 50.2).abs() < 0.5);
    }

    #[test]
    fn spike_is_flagged_and_scored() {
        let mut d = EwmaDetector::default_tuning();
        for i in 0..50 {
            d.observe(50.0 + ((i % 7) as f64) * 0.2);
        }
        let z = d.observe(95.0);
        assert!(z.is_some(), "10x spike must flag");
        assert!(z.unwrap() > 3.0);
    }

    #[test]
    fn warmup_suppresses_early_flags() {
        let mut d = EwmaDetector::new(0.1, 3.0, 10);
        // wild samples inside the warm-up window never flag
        for (i, v) in [10.0, 90.0, 5.0, 80.0, 20.0].iter().enumerate() {
            assert!(d.observe(*v).is_none(), "warm-up sample {i} flagged");
        }
    }

    #[test]
    fn level_shift_eventually_adapts() {
        let mut d = EwmaDetector::default_tuning();
        for _ in 0..50 {
            d.observe(20.0);
        }
        // jump to a new regime: flags at first…
        let mut flagged = 0;
        for _ in 0..100 {
            if d.observe(60.0).is_some() {
                flagged += 1;
            }
        }
        assert!(flagged > 0, "shift must flag initially");
        // …but adapts: the tail is quiet
        let mut tail_flags = 0;
        for _ in 0..50 {
            if d.observe(60.0).is_some() {
                tail_flags += 1;
            }
        }
        assert_eq!(tail_flags, 0, "estimator must adapt to the new level");
    }

    #[test]
    fn forecaster_tracks_linear_ramp() {
        let mut f = TrendForecaster::default_tuning();
        // 1 %/s ramp sampled every second
        for t in 0..120u64 {
            f.observe(t * 1000, 10.0 + t as f64);
        }
        assert!((f.trend() - 1.0).abs() < 0.05, "trend {}", f.trend());
        // forecast 30 s out: ≈ last value + 30
        let fc = f.forecast(30_000).unwrap();
        assert!((fc - (129.0 + 30.0)).abs() < 3.0, "forecast {fc}");
    }

    #[test]
    fn ms_until_projects_crossing() {
        let mut f = TrendForecaster::default_tuning();
        for t in 0..100u64 {
            f.observe(t * 1000, 40.0 + 0.5 * t as f64); // +0.5 %/s, at ~89.5 now
        }
        // C_max = 95: about (95 − 89.5) / 0.5 ≈ 11 s away
        let eta = f.ms_until(95.0).unwrap();
        assert!((8_000..16_000).contains(&eta), "eta {eta}");
        // already above a low threshold
        assert_eq!(f.ms_until(50.0), Some(0));
        // flat series never crosses
        let mut flat = TrendForecaster::default_tuning();
        for t in 0..50u64 {
            flat.observe(t * 1000, 30.0);
        }
        assert_eq!(flat.ms_until(95.0), None);
    }

    #[test]
    fn irregular_spacing_handled() {
        let mut f = TrendForecaster::default_tuning();
        // same 1-unit-per-second ramp, sampled irregularly for long enough
        // for the slow trend term (beta = 0.1) to converge
        let mut t = 0u64;
        let gaps = [1_000u64, 2_000, 500, 3_500, 3_000, 4_000, 6_000];
        for i in 0..120 {
            t += gaps[i % gaps.len()];
            f.observe(t, t as f64 / 1000.0);
        }
        assert!((f.trend() - 1.0).abs() < 0.15, "trend {}", f.trend());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        EwmaDetector::new(0.0, 3.0, 5);
    }

    #[test]
    #[should_panic(expected = "step")]
    fn zero_step_rejected() {
        TrendForecaster::new(0.3, 0.1, 0);
    }
}
