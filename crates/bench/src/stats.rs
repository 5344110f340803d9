//! Small statistics helpers for the experiment harness: log-log
//! least-squares (power-law) fits used to check the paper's quantitative
//! shape claims (e.g. Fig. 11a's "negative power function of ~(−0.5)"
//! for HFR vs scale).

/// Least-squares fit of `y = a·x^b` via regression on `ln y = ln a + b·ln x`.
///
/// Returns `(a, b)`. Points with non-positive coordinates are skipped
/// (they have no logarithm); `None` when fewer than two usable points
/// remain or the x-values are all equal.
pub fn power_law_fit(points: &[(f64, f64)]) -> Option<(f64, f64)> {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        return None;
    }
    let n = logs.len() as f64;
    let sx: f64 = logs.iter().map(|(x, _)| x).sum();
    let sy: f64 = logs.iter().map(|(_, y)| y).sum();
    let sxx: f64 = logs.iter().map(|(x, _)| x * x).sum();
    let sxy: f64 = logs.iter().map(|(x, y)| x * y).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return None;
    }
    let b = (n * sxy - sx * sy) / denom;
    let ln_a = (sy - b * sx) / n;
    Some((ln_a.exp(), b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_power_law_recovered() {
        // y = 3 x^-0.5
        let pts: Vec<(f64, f64)> =
            [1.0f64, 4.0, 16.0, 64.0].iter().map(|&x| (x, 3.0 * x.powf(-0.5))).collect();
        let (a, b) = power_law_fit(&pts).unwrap();
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b + 0.5).abs() < 1e-9);
    }

    #[test]
    fn noisy_fit_close() {
        let pts = [(10.0, 9.5), (100.0, 3.1), (1000.0, 1.05), (10000.0, 0.29)];
        let (_, b) = power_law_fit(&pts).unwrap();
        assert!((b + 0.5).abs() < 0.05, "exponent {b}");
    }

    #[test]
    fn degenerate_inputs_rejected() {
        assert!(power_law_fit(&[]).is_none());
        assert!(power_law_fit(&[(1.0, 2.0)]).is_none());
        assert!(power_law_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_none()); // same x
        assert!(power_law_fit(&[(0.0, 2.0), (-1.0, 3.0)]).is_none()); // no logs
    }
}
