//! In-memory Time Series Database (TSDB).
//!
//! "The Time Series Database efficiently stores the metrics and rules
//! established by these Monitor Agents" (§III-A). This is a deliberately
//! small, deterministic store: append-only per-series point lists with
//! range queries, bucketed downsampling, and retention trimming — the
//! operations the Monitor Agents and the Time-Series Federation layer need.
//!
//! **Retention moves an offset.** A [`Series`] is one `Vec<Point>` plus a
//! `head`: the points before `head` are dead (trimmed), the rest are live
//! and are all any reader sees. [`Series::trim`] advances `head` and is the
//! only code that compacts — one `drain(..head)` when the dead prefix has
//! reached the live length or outgrown the spare capacity — so a trim costs
//! amortised O(1) per point dropped instead of shifting every survivor, and
//! the dead prefix never costs more than the spare room the list already
//! had. That rule also leaves a non-empty list with at least one live point
//! at its end, which is why [`Series::push`] can check order against the
//! list's last element without knowing about `head`.
//!
//! **Windows are searched from the end they are near.** Monitoring reads
//! ask for recent data and retention cuts the oldest, so [`Series::range`]
//! finds its bounds by doubling steps back from the newest point and
//! [`Series::trim`] finds its cutoff by doubling steps forward from the
//! oldest, each finishing with a binary search inside the last step:
//! O(log d) for a bound `d` points from that end, never worse than
//! O(log n), and the probes land on the cache lines the scan reads next.
//!
//! A writer that appends to the same series over and over resolves the
//! name once and appends through the handle:
//!
//! ```
//! use dust_telemetry::Tsdb;
//!
//! let mut db = Tsdb::new();
//! db.append("mem", 0, 60.0); // by name: one index search per point
//!
//! let cpu = db.series_id("cpu"); // resolve once (creates the series) …
//! db.reserve(cpu, 100); // … size it when the point count is known …
//! for t in 0..100u64 {
//!     db.append_to(cpu, t * 1000, 12.5); // … and append many: index + push
//! }
//! assert_eq!(db.series("cpu").unwrap().len(), 100);
//! assert_eq!(db.series_names(), vec!["cpu", "mem"]);
//! ```

use std::collections::BTreeMap;

/// One timestamped measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Milliseconds since simulation epoch.
    pub ts_ms: u64,
    /// Measured value.
    pub value: f64,
}

/// `points.partition_point(|p| p.ts_ms < ts)`, searched from the newest
/// point: probes at 1, 2, 4, … from the end until one is older than `ts`,
/// then a binary search inside that last step.
fn partition_from_newest(points: &[Point], ts: u64) -> usize {
    let (mut lo, mut hi, mut step) = (0, points.len(), 1);
    while hi > 0 {
        let i = points.len().saturating_sub(step);
        if points[i].ts_ms < ts {
            lo = i + 1;
            break;
        }
        hi = i;
        step *= 2;
    }
    lo + points[lo..hi].partition_point(|p| p.ts_ms < ts)
}

/// `points.partition_point(|p| p.ts_ms < ts)`, searched from the oldest
/// point: probes at 0, 1, 3, 7, … until one is not older than `ts`, then a
/// binary search inside that last step.
fn partition_from_oldest(points: &[Point], ts: u64) -> usize {
    let (mut lo, mut hi, mut step) = (0, points.len(), 1);
    while lo < points.len() {
        let i = (step - 1).min(points.len() - 1);
        if points[i].ts_ms >= ts {
            hi = i;
            break;
        }
        lo = i + 1;
        step *= 2;
    }
    lo + points[lo..hi].partition_point(|p| p.ts_ms < ts)
}

/// Mean of each run of `points` sharing a bucket of `bucket_ms` (aligned
/// to `t = 0`), handed to `emit` as `(bucket start, mean)` in ascending
/// order; empty buckets are skipped. Callers reject `bucket_ms == 0`.
pub(crate) fn bucket_means(points: &[Point], bucket_ms: u64, mut emit: impl FnMut(u64, f64)) {
    let mut rest = points.iter();
    let Some(first) = rest.next() else { return };
    // a bucket's sum starts from its first value, not from 0.0: a bucket of
    // `-0.0`s must average to `-0.0`
    let (mut cur, mut sum, mut n) = (first.ts_ms / bucket_ms * bucket_ms, first.value, 1usize);
    for p in rest {
        let b = p.ts_ms / bucket_ms * bucket_ms;
        if b == cur {
            sum += p.value;
            n += 1;
        } else {
            emit(cur, sum / n as f64);
            (cur, sum, n) = (b, p.value, 1);
        }
    }
    emit(cur, sum / n as f64);
}

/// An append-only series of points ordered by timestamp.
///
/// `points[head..]` are the live points; everything a reader can see —
/// [`Series::points`], lengths, equality, `Debug`, a clone — is the live
/// points only. See the module docs for who moves `head`.
#[derive(Default)]
pub struct Series {
    points: Vec<Point>,
    /// Length of the dead prefix. After every [`Series::trim`]:
    /// `head <= live length` and `head <= spare capacity`, and `head == 0`
    /// when no point is live.
    head: usize,
}

impl Clone for Series {
    /// The live points, in a list of exactly their number.
    fn clone(&self) -> Self {
        Series { points: self.points().to_vec(), head: 0 }
    }
}

impl PartialEq for Series {
    fn eq(&self, other: &Self) -> bool {
        self.points() == other.points()
    }
}

impl std::fmt::Debug for Series {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Series").field("points", &self.points()).finish()
    }
}

impl Series {
    /// An empty series with room for `capacity` points.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Series { points: Vec::with_capacity(capacity), head: 0 }
    }

    /// Append a point.
    ///
    /// # Panics
    /// Panics if `ts_ms` is older than the newest stored point (series are
    /// strictly append-ordered).
    pub fn push(&mut self, ts_ms: u64, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(ts_ms >= last.ts_ms, "out-of-order append: {ts_ms} after {}", last.ts_ms);
        }
        self.points.push(Point { ts_ms, value });
    }

    /// All points.
    pub fn points(&self) -> &[Point] {
        &self.points[self.head..]
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len() - self.head
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Points with `start <= ts < end`; empty when `end <= start`.
    /// Searched from the newest point (see the module docs).
    pub fn range(&self, start_ms: u64, end_ms: u64) -> &[Point] {
        let live = self.points();
        let hi = partition_from_newest(live, end_ms);
        let lo = partition_from_newest(&live[..hi], start_ms);
        &live[lo..hi]
    }

    /// Arithmetic mean over a range, `None` if the range is empty.
    pub fn mean(&self, start_ms: u64, end_ms: u64) -> Option<f64> {
        let pts = self.range(start_ms, end_ms);
        if pts.is_empty() {
            None
        } else {
            Some(pts.iter().map(|p| p.value).sum::<f64>() / pts.len() as f64)
        }
    }

    /// Maximum over a range, `None` if the range is empty.
    pub fn max(&self, start_ms: u64, end_ms: u64) -> Option<f64> {
        self.range(start_ms, end_ms)
            .iter()
            .map(|p| p.value)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Downsample into buckets of `bucket_ms`, averaging points per bucket.
    /// Buckets are aligned to `t = 0`; empty buckets are skipped.
    pub fn downsample(&self, bucket_ms: u64) -> Series {
        assert!(bucket_ms > 0, "bucket width must be positive");
        let live = self.points();
        // at most one mean per bucket from the first point's to the last's
        let buckets = match (live.first(), live.last()) {
            (Some(first), Some(last)) => {
                (last.ts_ms / bucket_ms - first.ts_ms / bucket_ms).saturating_add(1)
            }
            _ => 0,
        };
        let mut out = Series::with_capacity(buckets.min(live.len() as u64) as usize);
        bucket_means(live, bucket_ms, |b, mean| out.push(b, mean));
        out
    }

    /// Drop points older than `horizon_ms` before `now_ms` (retention).
    /// Returns the number of points dropped.
    ///
    /// The cutoff is searched from the oldest point; the dropped points
    /// become dead prefix, compacted away here and nowhere else (see the
    /// module docs).
    pub fn trim(&mut self, now_ms: u64, horizon_ms: u64) -> usize {
        let cutoff = now_ms.saturating_sub(horizon_ms);
        let dropped = partition_from_oldest(self.points(), cutoff);
        self.head += dropped;
        let spare = self.points.capacity() - self.points.len();
        if self.head >= self.len() || self.head > spare {
            self.points.drain(..self.head);
            self.head = 0;
        }
        dropped
    }
}

/// Handle to one series of one [`Tsdb`], from [`Tsdb::series_id`].
///
/// Only meaningful for the store that issued it: ids are positions in
/// that store's own series table, so the same name generally resolves to
/// different ids in different stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SeriesId(u32);

/// A node-local TSDB: named series with shared retention policy.
///
/// Series live in a table in creation order; `index` maps each name to
/// its position. Creation order is an internal detail — every name-facing
/// method answers in sorted name order.
#[derive(Debug, Clone, Default)]
pub struct Tsdb {
    series: Vec<Series>,
    index: BTreeMap<String, u32>,
}

impl Tsdb {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolve a series name to its handle, creating the (empty) series if
    /// absent. The existing-series path allocates nothing; the name is only
    /// materialized on first use.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(&i) = self.index.get(name) {
            return SeriesId(i);
        }
        let i = u32::try_from(self.series.len()).expect("fewer than 2^32 series per store");
        self.series.push(Series::default());
        self.index.insert(name.to_string(), i);
        SeriesId(i)
    }

    /// Append through a handle: an index and a push, no name search.
    ///
    /// # Panics
    /// Panics on an out-of-order timestamp (see [`Series::push`]) or if
    /// `id` was not issued by this store.
    pub fn append_to(&mut self, id: SeriesId, ts_ms: u64, value: f64) {
        self.series[id.0 as usize].push(ts_ms, value);
    }

    /// Make room for exactly `additional` more points in one series, so a
    /// writer that knows its point count up front never regrows the list.
    pub fn reserve(&mut self, id: SeriesId, additional: usize) {
        self.series[id.0 as usize].points.reserve_exact(additional);
    }

    /// Append to (creating if needed) a named series:
    /// [`Tsdb::series_id`] then [`Tsdb::append_to`].
    pub fn append(&mut self, name: &str, ts_ms: u64, value: f64) {
        let id = self.series_id(name);
        self.append_to(id, ts_ms, value);
    }

    /// Look up a series.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.index.get(name).map(|&i| &self.series[i as usize])
    }

    /// Names of all stored series, sorted.
    pub fn series_names(&self) -> Vec<&str> {
        self.index.keys().map(String::as_str).collect()
    }

    /// Number of series.
    pub fn series_count(&self) -> usize {
        self.series.len()
    }

    /// Total stored points across series.
    pub fn point_count(&self) -> usize {
        self.series.iter().map(Series::len).sum()
    }

    /// Apply retention to every series; returns total points dropped.
    pub fn trim_all(&mut self, now_ms: u64, horizon_ms: u64) -> usize {
        self.series.iter_mut().map(|s| s.trim(now_ms, horizon_ms)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled() -> Series {
        let mut s = Series::default();
        for i in 0..10u64 {
            s.push(i * 100, i as f64);
        }
        s
    }

    #[test]
    fn append_and_range() {
        let s = filled();
        assert_eq!(s.len(), 10);
        let r = s.range(200, 500);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].value, 2.0);
        assert_eq!(r[2].value, 4.0);
    }

    #[test]
    fn range_boundaries_half_open() {
        let s = filled();
        assert_eq!(s.range(0, 100).len(), 1);
        assert_eq!(s.range(0, 101).len(), 2);
        assert_eq!(s.range(900, 10_000).len(), 1);
        assert!(s.range(5_000, 9_000).is_empty());
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_rejected() {
        let mut s = filled();
        s.push(50, 1.0);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut s = Series::default();
        s.push(10, 1.0);
        s.push(10, 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn mean_and_max() {
        let s = filled();
        assert_eq!(s.mean(0, 1000), Some(4.5));
        assert_eq!(s.max(0, 1000), Some(9.0));
        assert_eq!(s.mean(5_000, 6_000), None);
    }

    #[test]
    fn inverted_window_is_empty() {
        let s = filled();
        assert!(s.range(500, 200).is_empty());
        assert!(s.range(500, 500).is_empty());
        assert!(s.range(u64::MAX, 0).is_empty());
        assert_eq!(s.mean(500, 200), None);
        assert_eq!(s.max(500, 200), None);
    }

    #[test]
    fn downsample_averages_buckets() {
        let s = filled(); // points at 0,100,...,900
        let d = s.downsample(500); // buckets [0,500) and [500,1000)
        assert_eq!(d.len(), 2);
        assert_eq!(d.points()[0], Point { ts_ms: 0, value: 2.0 }); // mean 0..4
        assert_eq!(d.points()[1], Point { ts_ms: 500, value: 7.0 }); // mean 5..9
    }

    #[test]
    fn trim_retention() {
        let mut s = filled();
        let dropped = s.trim(900, 300); // cutoff at 600
        assert_eq!(dropped, 6);
        assert_eq!(s.points()[0].ts_ms, 600);
    }

    #[test]
    fn tsdb_named_series() {
        let mut db = Tsdb::new();
        db.append("cpu", 0, 10.0);
        db.append("cpu", 100, 12.0);
        db.append("mem", 0, 60.0);
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.point_count(), 3);
        assert_eq!(db.series_names(), vec!["cpu", "mem"]);
        assert_eq!(db.series("cpu").unwrap().len(), 2);
        assert!(db.series("disk").is_none());
    }

    #[test]
    fn tsdb_trim_all() {
        let mut db = Tsdb::new();
        for t in 0..10u64 {
            db.append("a", t * 10, 1.0);
            db.append("b", t * 10, 2.0);
        }
        let dropped = db.trim_all(90, 30); // cutoff 60 → drops t<60: 6 each
        assert_eq!(dropped, 12);
        assert_eq!(db.point_count(), 8);
    }

    #[test]
    fn downsample_skips_gaps() {
        let mut s = Series::default();
        s.push(0, 1.0);
        s.push(2_000, 3.0); // bucket [2000,2500)
        let d = s.downsample(500);
        assert_eq!(d.len(), 2);
        assert_eq!(d.points()[1].ts_ms, 2_000);
    }

    #[test]
    fn append_through_a_handle_equals_append_by_name() {
        // created in non-alphabetical order: creation order must not leak
        let names = ["zeta", "alpha", "mid"];
        let mut by_name = Tsdb::new();
        let mut by_id = Tsdb::new();
        let ids = names.map(|n| by_id.series_id(n));
        for (&id, n) in ids.iter().zip(names) {
            by_id.reserve(id, if n == "mid" { 0 } else { 20 });
        }
        for t in 0..20u64 {
            for (k, (&id, n)) in ids.iter().zip(names).enumerate() {
                let v = (t * 3 + k as u64) as f64;
                by_name.append(n, t * 10, v);
                by_id.append_to(id, t * 10, v);
            }
        }
        for db in [&by_name, &by_id] {
            assert_eq!(db.series_names(), vec!["alpha", "mid", "zeta"]);
            assert_eq!(db.series_count(), 3);
            assert_eq!(db.point_count(), 60);
        }
        for n in names {
            assert_eq!(by_name.series(n), by_id.series(n), "{n}");
        }
        assert_eq!(by_name.trim_all(190, 50), by_id.trim_all(190, 50));
        assert_eq!(by_name.point_count(), by_id.point_count());
        for n in names {
            assert_eq!(by_name.series(n), by_id.series(n), "{n} after trim");
        }
    }

    #[test]
    fn series_id_is_stable_and_creates_once() {
        let mut db = Tsdb::new();
        let b = db.series_id("b");
        assert_eq!(db.series_count(), 1);
        assert!(db.series("b").unwrap().is_empty(), "resolving creates the series, empty");
        let a = db.series_id("a");
        assert_ne!(a, b);
        db.append_to(b, 5, 1.0);
        assert_eq!(db.series_id("b"), b);
        assert_eq!(db.series_id("a"), a);
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.point_count(), 1);
        // by-name appends land in the series the handle names
        db.append("b", 6, 2.0);
        db.append_to(b, 7, 3.0);
        let values: Vec<f64> = db.series("b").unwrap().points().iter().map(|p| p.value).collect();
        assert_eq!(values, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn append_through_a_handle_keeps_the_order_check() {
        let mut db = Tsdb::new();
        let id = db.series_id("cpu");
        db.append_to(id, 100, 1.0);
        db.append_to(id, 50, 2.0);
    }

    /// The series as it was before the offset: a plain list, every trim a
    /// `drain`, every bound a `partition_point`. The model [`Series`] is
    /// checked against.
    #[derive(Clone, Default)]
    struct ListSeries(Vec<Point>);

    impl ListSeries {
        fn range(&self, start: u64, end: u64) -> &[Point] {
            let lo = self.0.partition_point(|p| p.ts_ms < start);
            let hi = self.0.partition_point(|p| p.ts_ms < end);
            &self.0[lo..hi.max(lo)]
        }

        fn mean(&self, start: u64, end: u64) -> Option<f64> {
            let pts = self.range(start, end);
            (!pts.is_empty()).then(|| pts.iter().map(|p| p.value).sum::<f64>() / pts.len() as f64)
        }

        fn max(&self, start: u64, end: u64) -> Option<f64> {
            self.range(start, end).iter().map(|p| p.value).reduce(f64::max)
        }

        fn downsample(&self, bucket_ms: u64) -> Vec<Point> {
            let mut out: Vec<Point> = Vec::new();
            let mut run: Vec<f64> = Vec::new();
            for (i, p) in self.0.iter().enumerate() {
                run.push(p.value);
                let b = p.ts_ms / bucket_ms;
                if self.0.get(i + 1).is_none_or(|next| next.ts_ms / bucket_ms != b) {
                    let sum = run[1..].iter().fold(run[0], |a, v| a + v);
                    out.push(Point { ts_ms: b * bucket_ms, value: sum / run.len() as f64 });
                    run.clear();
                }
            }
            out
        }

        fn trim(&mut self, now: u64, horizon: u64) -> usize {
            let keep_from = self.0.partition_point(|p| p.ts_ms < now.saturating_sub(horizon));
            self.0.drain(..keep_from);
            keep_from
        }
    }

    fn bits(points: &[Point]) -> Vec<(u64, u64)> {
        points.iter().map(|p| (p.ts_ms, p.value.to_bits())).collect()
    }

    /// The memory bound, checked after a trim: the dead prefix fits in
    /// the live length and in the spare capacity.
    fn assert_trimmed(s: &Series, ctx: &str) {
        let spare = s.points.capacity() - s.points.len();
        assert!(s.head <= s.len(), "{ctx}: dead {} > live {}", s.head, s.len());
        assert!(s.head <= spare, "{ctx}: dead {} > spare {spare}", s.head);
        assert!(
            !s.is_empty() || s.points.is_empty(),
            "{ctx}: an empty series keeps no dead points"
        );
    }

    #[test]
    fn offset_series_matches_the_list_model() {
        use dust_topology::SplitMix64;
        const VALUES: [f64; 6] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -7.25];
        for seed in [1u64, 2, 7, 42, 0xDEAD_BEEF] {
            let mut rng = SplitMix64::new(seed);
            let (mut s, mut model) = (Series::default(), ListSeries::default());
            let (mut now, mut peak_live) = (0u64, 0usize);
            for step in 0..2_000 {
                let ctx = format!("seed {seed} step {step}");
                match rng.below(16) {
                    // appends dominate; a delta of 0 is a duplicate timestamp
                    0..=9 => {
                        for _ in 0..=rng.below(6) {
                            now += rng.below(4) * rng.below(30);
                            let v = match rng.below(4) {
                                0 => VALUES[rng.below(6) as usize],
                                _ => rng.range_f64(-100.0, 100.0),
                            };
                            s.push(now, v);
                            model.0.push(Point { ts_ms: now, value: v });
                        }
                    }
                    10..=12 => {
                        // retention, with horizons past `now` and past the data
                        let horizon = match rng.below(4) {
                            0 => now + rng.below(50),
                            1 => 0,
                            _ => rng.below(400),
                        };
                        let at = now + rng.below(3) * rng.below(40);
                        assert_eq!(s.trim(at, horizon), model.trim(at, horizon), "{ctx}");
                        assert_trimmed(&s, &ctx);
                    }
                    13 => {
                        // trim everything, then start again from an older time
                        assert_eq!(s.trim(u64::MAX, 0), model.trim(u64::MAX, 0), "{ctx}");
                        assert_trimmed(&s, &ctx);
                        assert!(s.is_empty());
                        now = rng.below(now + 1);
                        s.push(now, 3.0);
                        model.0.push(Point { ts_ms: now, value: 3.0 });
                    }
                    14 => {
                        let copy = s.clone();
                        assert!(copy == s, "{ctx}: a clone equals its source");
                        assert_eq!(
                            copy.points.capacity(),
                            s.len(),
                            "{ctx}: a clone is exactly sized"
                        );
                        assert_eq!(format!("{copy:?}"), format!("{s:?}"), "{ctx}");
                        if rng.below(2) == 0 {
                            s = copy;
                        }
                    }
                    _ => {
                        let mut other = s.clone();
                        other.push(now, 1.0);
                        assert!(other != s, "{ctx}: one more point is another series");
                        other.trim(u64::MAX, 0);
                        assert_eq!(other == s, s.is_empty(), "{ctx}");
                    }
                }
                peak_live = peak_live.max(s.len());
                assert!(
                    s.points.capacity() <= 4 * peak_live.max(1),
                    "{ctx}: capacity {} with at most {peak_live} ever live",
                    s.points.capacity()
                );
                assert_eq!(s.len(), model.0.len(), "{ctx}");
                assert_eq!(s.is_empty(), model.0.is_empty(), "{ctx}");
                assert_eq!(bits(s.points()), bits(&model.0), "{ctx}");
                let (a, b) = (rng.below(now + 50), rng.below(now + 50));
                for (start, end) in [(a, b), (b, a), (a, a), (0, u64::MAX), (a, a + 200)] {
                    assert_eq!(bits(s.range(start, end)), bits(model.range(start, end)), "{ctx}");
                    assert_eq!(
                        s.mean(start, end).map(f64::to_bits),
                        model.mean(start, end).map(f64::to_bits),
                        "{ctx} mean over {start}..{end}"
                    );
                    assert_eq!(
                        s.max(start, end).map(f64::to_bits),
                        model.max(start, end).map(f64::to_bits),
                        "{ctx} max over {start}..{end}"
                    );
                }
                let bucket = 1 + rng.below(120);
                let down = s.downsample(bucket);
                assert_eq!(
                    bits(down.points()),
                    bits(&model.downsample(bucket)),
                    "{ctx} / {bucket}"
                );
                assert!(down.points.capacity() <= s.len(), "{ctx}: downsample pre-sizes, bounded");
            }
        }
    }

    #[test]
    fn steady_retention_never_regrows_the_list() {
        // `telemetry_rw`'s shape: 264 live points in a 512-slot list, then
        // trim 8 / append 8 for 10 000 rounds
        let mut s = Series::with_capacity(512);
        for t in 0..264u64 {
            s.push(t * 100, t as f64);
        }
        let mut compactions = 0;
        for round in 0..10_000u64 {
            let newest = (263 + round * 8) * 100;
            let was_offset = s.head > 0;
            assert_eq!(s.trim(newest, 255 * 100), 8, "round {round}");
            assert_trimmed(&s, &format!("round {round}"));
            compactions += usize::from(was_offset && s.head == 0);
            for k in 1..=8 {
                s.push(newest + k * 100, k as f64);
            }
            assert_eq!((s.len(), s.points.capacity()), (264, 512), "round {round}");
        }
        // 256 survivors moved once per 17 trims, not once per trim
        assert_eq!(compactions, 10_000 / 17);
    }

    #[test]
    fn both_searches_equal_partition_point_at_every_cut() {
        use dust_topology::SplitMix64;
        for seed in 0..200u64 {
            let mut rng = SplitMix64::new(seed);
            let len = rng.below(70) as usize;
            let mut ts = rng.below(5);
            let points: Vec<Point> = (0..len)
                .map(|_| {
                    ts += rng.below(3) * rng.below(4); // runs of duplicates
                    Point { ts_ms: ts, value: 0.0 }
                })
                .collect();
            for cut in (0..ts + 3).chain([u64::MAX - 1, u64::MAX]) {
                let want = points.partition_point(|p| p.ts_ms < cut);
                assert_eq!(partition_from_newest(&points, cut), want, "seed {seed} cut {cut}");
                assert_eq!(partition_from_oldest(&points, cut), want, "seed {seed} cut {cut}");
            }
        }
    }
}
