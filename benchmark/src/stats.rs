//! The benchmark's own arithmetic: percentiles, the tail rule, and the
//! steal-aware choice of slices. Everything here is pure, so it is
//! tested without running a workload.

/// Share of slices kept: the two thirds with the least steal.
pub fn keep_count(slices: usize) -> usize {
    (slices * 2).div_ceil(3).max(1).min(slices)
}

/// Indices of the `keep` slices with the lowest steal share, ascending.
///
/// Selection is by the external noise indicator only, never by a
/// slice's own speed. Ties go to the earlier slice. Where any slice has
/// no steal reading (the column is absent) the first `keep` are kept.
pub fn select_lowest_steal(steal: &[Option<f64>], keep: usize) -> Vec<usize> {
    let keep = keep.min(steal.len());
    let Some(shares) = steal.iter().copied().collect::<Option<Vec<f64>>>() else {
        return (0..keep).collect();
    };
    let mut order: Vec<usize> = (0..shares.len()).collect();
    // stable sort: equal shares stay in slice order
    order.sort_by(|&a, &b| shares[a].total_cmp(&shares[b]));
    let mut kept = order[..keep].to_vec();
    kept.sort_unstable();
    kept
}

/// Index into an ascending sample of `n` values of the tail percentile:
/// the highest one with at least ten samples beyond it, capped at p99.
/// Below twenty samples no percentile above the median qualifies, so the
/// median is used. Returns `(index, q)` with `q = (index + 1) / n`.
pub fn tail_rank(n: usize) -> (usize, f64) {
    assert!(n > 0, "tail of an empty sample");
    let beyond = (n / 100).max(10);
    let idx = if n > 2 * beyond { n - 1 - beyond } else { median_rank(n) };
    (idx, (idx + 1) as f64 / n as f64)
}

/// The tail percentile when every operation was measured `replicas`
/// times and each is represented by one value: the percentile is chosen
/// by [`tail_rank`] over all `ops * replicas` samples, then located
/// among the `ops` ascending per-operation values. Returns `(index, q)`.
pub fn tail_rank_replicated(ops: usize, replicas: usize) -> (usize, f64) {
    assert!(replicas > 0, "no replicas");
    let (idx, q) = tail_rank(ops * replicas);
    ((idx + 1).div_ceil(replicas) - 1, q)
}

/// Share of a stretch of wall time that was not stolen from the measured
/// thread's critical path, from two lower bounds on it: the share in
/// which no CPU at all was stolen (`1 - stolen / wall`, exact when every
/// stolen tick delayed us, as in fork-join sections), and the share the
/// thread itself was running (`ran / wall`, exact for sequential work,
/// whatever was stolen from other CPUs meanwhile). Readings that are
/// missing bound nothing. Floored, so a wild reading cannot erase a
/// measurement.
pub fn granted_share(stolen_s: Option<f64>, ran_s: Option<f64>, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        return 1.0;
    }
    let unstolen = stolen_s.map_or(1.0, |s| 1.0 - s / wall_s);
    let running = ran_s.map_or(0.0, |r| r / wall_s);
    unstolen.max(running).clamp(0.2, 1.0)
}

/// Per operation, the median of its replicas: `replicas[k][i]` is
/// operation `i` as slice `k` measured it.
pub fn per_op_median(replicas: &[Vec<f64>]) -> Vec<f64> {
    let ops = replicas.first().map_or(0, Vec::len);
    (0..ops).map(|i| median(&replicas.iter().map(|r| r[i]).collect::<Vec<_>>())).collect()
}

/// Nearest-rank median index of `n` ascending values.
pub fn median_rank(n: usize) -> usize {
    assert!(n > 0, "median of an empty sample");
    n.div_ceil(2) - 1
}

/// Median of a sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `part / whole`, or 0 when nothing was counted.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_p99_once_a_thousand_samples_exist() {
        assert_eq!(tail_rank(1000), (989, 0.99));
        assert_eq!(tail_rank(5000), (4949, 0.99));
        // 1999 samples: p99 would leave 19 beyond, still >= 10
        let (idx, q) = tail_rank(1999);
        assert_eq!(1999 - 1 - idx, 19);
        assert!(q <= 0.9905);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it_below_a_thousand() {
        let (idx, q) = tail_rank(240);
        assert_eq!(240 - 1 - idx, 10);
        assert!((q - (1.0 - 10.0 / 240.0)).abs() < 1e-12);
        let (idx, _) = tail_rank(21);
        assert_eq!(idx, 10);
    }

    #[test]
    fn tail_falls_back_to_the_median_below_twenty_samples() {
        assert_eq!(tail_rank(20), (9, 0.5));
        assert_eq!(tail_rank(19).0, median_rank(19));
        assert_eq!(tail_rank(7).0, 3);
        assert_eq!(tail_rank(1), (0, 1.0));
    }

    #[test]
    fn replicated_tail_lands_on_the_matching_operation() {
        // 20 ops x 8 slices = 160 samples: ten beyond means the slowest
        // operation's eight replicas and two of the next one's
        assert_eq!(tail_rank_replicated(20, 8), (18, 150.0 / 160.0));
        // 2400 ops x 8: p99 leaves 24 operations beyond
        let (idx, q) = tail_rank_replicated(2400, 8);
        assert_eq!((2400 - 1 - idx, q), (24, 0.99));
        // one replica is the plain rule
        assert_eq!(tail_rank_replicated(240, 1), tail_rank(240));
        // too few samples for any tail: the median operation
        assert_eq!(tail_rank_replicated(4, 3).0, 1);
    }

    #[test]
    fn steal_is_taken_out_of_wall_time() {
        assert_eq!(granted_share(Some(0.5), None, 2.0), 0.75);
        assert_eq!(granted_share(Some(0.0), None, 2.0), 1.0);
        assert_eq!(granted_share(None, None, 2.0), 1.0);
        assert_eq!(granted_share(Some(1.0), Some(1.0), 0.0), 1.0);
        // more stolen than there was: floored, not negative
        assert_eq!(granted_share(Some(9.0), None, 2.0), 0.2);
    }

    #[test]
    fn a_thread_that_ran_was_not_stolen_from() {
        // sequential work: half of the steal fell on the other CPU
        assert_eq!(granted_share(Some(0.4), Some(1.8), 2.0), 0.9);
        // fork-join work: the thread waited a lot, the steal bound holds
        assert_eq!(granted_share(Some(0.4), Some(0.9), 2.0), 0.8);
        assert_eq!(granted_share(None, Some(1.5), 2.0), 1.0);
        // a thread cannot run longer than the wall clock
        assert_eq!(granted_share(Some(0.5), Some(2.5), 2.0), 1.0);
    }

    #[test]
    fn per_operation_median_ignores_one_slow_replica() {
        let replicas = vec![vec![1.0, 10.0], vec![1.2, 11.0], vec![9.0, 10.5]];
        assert_eq!(per_op_median(&replicas), vec![1.2, 10.5]);
        assert_eq!(per_op_median(&[]), Vec::<f64>::new());
    }

    #[test]
    fn lowest_steal_breaks_ties_by_slice_order() {
        let steal = [Some(0.02), Some(0.0), Some(0.02), Some(0.0), Some(0.5), Some(0.02)];
        assert_eq!(select_lowest_steal(&steal, 4), vec![0, 1, 2, 3]);
        assert_eq!(select_lowest_steal(&steal, 2), vec![1, 3]);
        assert_eq!(select_lowest_steal(&steal, 9), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn missing_steal_column_keeps_the_first_slices() {
        let steal = [Some(0.9), None, Some(0.0), Some(0.0)];
        assert_eq!(select_lowest_steal(&steal, 3), vec![0, 1, 2]);
        assert_eq!(select_lowest_steal(&[None, None], 1), vec![0]);
    }

    #[test]
    fn two_thirds_of_the_slices_are_kept() {
        assert_eq!(keep_count(18), 12);
        assert_eq!(keep_count(12), 8);
        assert_eq!(keep_count(10), 7);
        assert_eq!(keep_count(1), 1);
        assert_eq!(keep_count(0), 0);
    }

    #[test]
    fn median_handles_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_rank(4), 1);
        assert_eq!(median_rank(5), 2);
    }
}
