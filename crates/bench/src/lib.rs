//! Shared experiment machinery for the figure-regeneration harness.
//!
//! The `experiments` binary (one subcommand per paper figure or
//! ablation) builds on these helpers: timing, aligned table printing,
//! and the experiment configurations that mirror §V.

use dust::prelude::*;
use std::time::{Duration, Instant};

pub mod figures;
pub mod stats;

/// Default master seed printed in every table header; every experiment is
/// bit-for-bit reproducible from it.
pub const DEFAULT_SEED: u64 = 20_240_527;

/// Time one closure, returning `(result, elapsed)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Arithmetic mean of a slice of durations, in seconds.
pub fn mean_secs(ds: &[Duration]) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    ds.iter().map(Duration::as_secs_f64).sum::<f64>() / ds.len() as f64
}

/// Median of a slice of durations, in seconds (the mean of the middle two
/// for an even count).
pub fn median_secs(ds: &[Duration]) -> f64 {
    let mut secs: Vec<f64> = ds.iter().map(Duration::as_secs_f64).collect();
    secs.sort_by(f64::total_cmp);
    match secs.len() {
        0 => 0.0,
        n if n % 2 == 1 => secs[n / 2],
        n => (secs[n / 2 - 1] + secs[n / 2]) / 2.0,
    }
}

/// A plain-text table that prints aligned columns (the harness output that
/// EXPERIMENTS.md embeds).
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table { headers: headers.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// The thresholds used for the Monte-Carlo placement experiments
/// (Figs. 7–12). Tighter than [`DustConfig::paper_defaults`] so the
/// one-hop heuristic actually fails at small scale, reproducing the
/// Fig. 9/11a regime where HFR starts high and decays with network size.
pub fn experiment_config() -> DustConfig {
    DustConfig::paper_defaults().with_thresholds(80.0, 32.0, 5.0)
}

/// Scenario distribution shared by the placement experiments.
pub fn experiment_params() -> ScenarioParams {
    ScenarioParams::default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["a", "long-header", "x"]);
        t.row(&["1".into(), "2".into(), "3".into()]);
        t.row(&["10".into(), "222222".into(), "33".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn experiment_config_valid_with_low_delta() {
        let c = experiment_config();
        c.validate().unwrap();
        // deliberately in the regime where infeasibility is possible
        assert!((c.delta_io() - 1.35).abs() < 1e-9);
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        assert_eq!(mean_secs(&[]), 0.0);
        let m = mean_secs(&[Duration::from_millis(10), Duration::from_millis(30)]);
        assert!((m - 0.02).abs() < 1e-9);
    }
}
