//! In-memory Time Series Database (TSDB).
//!
//! "The Time Series Database efficiently stores the metrics and rules
//! established by these Monitor Agents" (§III-A). This is a deliberately
//! small, deterministic store: append-only per-series point lists with
//! range queries, bucketed downsampling, and retention trimming — the
//! operations the Monitor Agents and the Time-Series Federation layer need.
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

/// An append-only series of points ordered by timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    points: Vec<Point>,
}

impl Series {
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
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points are stored.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Points with `start <= ts < end`; empty when `end <= start`.
    pub fn range(&self, start_ms: u64, end_ms: u64) -> &[Point] {
        let lo = self.points.partition_point(|p| p.ts_ms < start_ms);
        let hi = self.points.partition_point(|p| p.ts_ms < end_ms);
        &self.points[lo..hi.max(lo)]
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
        let mut out = Series::default();
        let mut bucket_start: Option<u64> = None;
        let mut sum = 0.0;
        let mut n = 0usize;
        for p in &self.points {
            let b = p.ts_ms / bucket_ms * bucket_ms;
            match bucket_start {
                Some(cur) if cur == b => {
                    sum += p.value;
                    n += 1;
                }
                Some(cur) => {
                    out.push(cur, sum / n as f64);
                    bucket_start = Some(b);
                    sum = p.value;
                    n = 1;
                }
                None => {
                    bucket_start = Some(b);
                    sum = p.value;
                    n = 1;
                }
            }
        }
        if let (Some(cur), true) = (bucket_start, n > 0) {
            out.push(cur, sum / n as f64);
        }
        out
    }

    /// Drop points older than `horizon_ms` before `now_ms` (retention).
    /// Returns the number of points dropped.
    pub fn trim(&mut self, now_ms: u64, horizon_ms: u64) -> usize {
        let cutoff = now_ms.saturating_sub(horizon_ms);
        let keep_from = self.points.partition_point(|p| p.ts_ms < cutoff);
        self.points.drain(..keep_from);
        keep_from
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
}
