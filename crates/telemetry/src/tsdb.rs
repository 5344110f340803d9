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
//! **Spare room is a quarter of the live points.** A full list grows by a
//! quarter of its live points, at least 4 ([`Series::push`]), and a clone
//! holds its live points plus the same quarter ([`Series::clone`]), so a
//! cloned store does not regrow on its first append. Growth meets a dead
//! prefix at most half the live length (a trim leaves no more dead points
//! than spare slots, and the pushes that fill those slots are live), so
//! without a [`Tsdb::reserve`] a list never holds more than
//! `peak + peak / 2 + max(peak / 4, 4)` slots for a peak of `peak` live
//! points; `Vec`'s doubling allowed 4 × the peak. `telemetry_rw`'s lists,
//! appended and trimmed at a steady length, hold 1.03–1.29 slots a live
//! point.
//!
//! **A window search starts where the bound should be.** Telemetry is
//! sampled on a period, so a timestamp's index is close to where it would
//! sit if the points were evenly spaced between the oldest and the newest.
//! [`Series::range`] and [`Series::trim`] find every bound the same way:
//! probe that guessed index, gallop away from it in steps of 1, 2, 4, …
//! until a probe crosses the bound, and binary-search inside the last
//! step. That is one or two probes on periodic data, never worse than
//! O(log n), and the answer is the index `partition_point` returns.
//!
//! **A bucket walk divides once per bucket.** [`Series::downsample`] and
//! the federation's queries close bucket means by comparing each point
//! with the open bucket's end; only the point that opens the next bucket
//! pays a division.
//!
//! A writer that appends to the same series over and over resolves the
//! name once and appends through the handle:
//!
//! ```
//! use dust_telemetry::Tsdb;
//!
//! let mut db = Tsdb::new();
//! db.append("mem", 0, 60.0); // by name: a walk over the store's names per point
//!
//! let cpu = db.series_id("cpu"); // resolve once (creates the series) …
//! db.reserve(cpu, 100); // … size it when the point count is known …
//! for t in 0..100u64 {
//!     db.append_to(cpu, t * 1000, 12.5); // … and append many: index + push
//! }
//! assert_eq!(db.series("cpu").unwrap().len(), 100);
//! assert_eq!(db.series_names(), vec!["cpu", "mem"]);
//! ```

/// One timestamped measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Milliseconds since simulation epoch.
    pub ts_ms: u64,
    /// Measured value.
    pub value: f64,
}

/// `points.partition_point(|p| p.ts_ms < ts)`, started where `ts` would
/// sit if the timestamps were evenly spaced: the probe at the guessed
/// index decides the side, steps of 1, 2, 4, … gallop away from it until
/// one crosses `ts`, and a binary search finishes inside the last step.
fn partition(points: &[Point], ts: u64) -> usize {
    let (Some(first), Some(last)) = (points.first(), points.last()) else { return 0 };
    if ts <= first.ts_ms {
        return 0;
    }
    if ts > last.ts_ms {
        return points.len();
    }
    // first < ts <= last: the answer is in 1..len, the guess in 0..len
    let top = points.len() - 1;
    let guess = (u128::from(ts - first.ts_ms) * top as u128 / u128::from(last.ts_ms - first.ts_ms))
        as usize;
    // the answer is in lo..=hi
    let (mut lo, mut hi, mut step) = (1, top, 1);
    if points[guess].ts_ms < ts {
        lo = guess + 1;
        while guess + step < hi {
            if points[guess + step].ts_ms >= ts {
                hi = guess + step;
                break;
            }
            lo = guess + step + 1;
            step *= 2;
        }
    } else {
        hi = guess;
        while step < guess {
            if points[guess - step].ts_ms < ts {
                lo = guess - step + 1;
                break;
            }
            hi = guess - step;
            step *= 2;
        }
    }
    lo + points[lo..hi].partition_point(|p| p.ts_ms < ts)
}

/// Mean of each run of `points` sharing a bucket of `bucket_ms` (aligned
/// to `t = 0`), handed to `emit` as `(bucket start, mean)` in ascending
/// order; empty buckets are skipped. Callers reject `bucket_ms == 0`.
///
/// A point joins the open bucket while it is older than the bucket's end;
/// only a point past the end divides, to find the bucket it opens.
pub(crate) fn bucket_means(points: &[Point], bucket_ms: u64, mut emit: impl FnMut(u64, f64)) {
    let mut rest = points.iter();
    let Some(first) = rest.next() else { return };
    // a bucket's sum starts from its first value, not from 0.0: a bucket of
    // `-0.0`s must average to `-0.0`
    let (mut cur, mut sum, mut n) = (first.ts_ms / bucket_ms * bucket_ms, first.value, 1usize);
    // `None`: the open bucket runs to `u64::MAX`
    let mut end = cur.checked_add(bucket_ms);
    for p in rest {
        if end.is_none_or(|end| p.ts_ms < end) {
            sum += p.value;
            n += 1;
        } else {
            emit(cur, sum / n as f64);
            cur = p.ts_ms / bucket_ms * bucket_ms;
            end = cur.checked_add(bucket_ms);
            (sum, n) = (p.value, 1);
        }
    }
    emit(cur, sum / n as f64);
}

/// An append-only series of points ordered by timestamp.
///
/// `points[head..]` are the live points; everything a reader can see —
/// [`Series::points`], lengths, equality, `Debug`, a clone — is the live
/// points only. See the module docs for who moves `head` and how much
/// spare room the list keeps.
#[derive(Default)]
pub struct Series {
    points: Vec<Point>,
    /// Length of the dead prefix. After every [`Series::trim`]:
    /// `head <= live length` and `head <= spare capacity`, and `head == 0`
    /// when no point is live.
    head: usize,
}

/// Spare room a full or freshly cloned list gets: a quarter of its `live`
/// points, at least 4.
fn slack(live: usize) -> usize {
    (live / 4).max(4)
}

impl Clone for Series {
    /// The live points, with a quarter of their number spare behind them,
    /// at least 4 (none for an empty series), so the clone's next appends
    /// do not regrow it.
    fn clone(&self) -> Self {
        let live = self.points();
        let spare = if live.is_empty() { 0 } else { slack(live.len()) };
        let mut points = Vec::with_capacity(live.len() + spare);
        points.extend_from_slice(live);
        Series { points, head: 0 }
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

    /// Append a point. A full list first grows by a quarter of its live
    /// points, at least 4 (see the module docs), not by `Vec`'s doubling.
    ///
    /// # Panics
    /// Panics if `ts_ms` is older than the newest stored point (series are
    /// strictly append-ordered).
    pub fn push(&mut self, ts_ms: u64, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(ts_ms >= last.ts_ms, "out-of-order append: {ts_ms} after {}", last.ts_ms);
        }
        if self.points.len() == self.points.capacity() {
            self.grow();
        }
        self.points.push(Point { ts_ms, value });
    }

    /// Room for [`slack`] more points; kept out of line so that the push
    /// into a list with room stays small.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        self.points.reserve_exact(slack(self.len()));
    }

    /// Slots the list holds, live, dead and spare.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.points.capacity()
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
    /// Each bound is searched from its guessed index (see the module docs).
    pub fn range(&self, start_ms: u64, end_ms: u64) -> &[Point] {
        let live = self.points();
        let hi = partition(live, end_ms);
        let lo = partition(&live[..hi], start_ms);
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
    /// The cutoff is searched from its guessed index; the dropped points
    /// become dead prefix, compacted away here and nowhere else (see the
    /// module docs).
    pub fn trim(&mut self, now_ms: u64, horizon_ms: u64) -> usize {
        let cutoff = now_ms.saturating_sub(horizon_ms);
        let dropped = partition(self.points(), cutoff);
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
/// Series live in a table in creation order. Their names sit back to back
/// in one `String`, in the same order, and `spans[i]` is where series
/// `i`'s name starts and ends in it: a look-up walks the spans, comparing
/// lengths, and reads a name's bytes only when its length matches. The
/// walk is O(series in the store), and stores hold a handful of series.
/// Creation order is an internal detail — every name-facing method
/// answers in sorted name order.
#[derive(Debug, Clone, Default)]
pub struct Tsdb {
    series: Vec<Series>,
    names: String,
    /// `(start, end)` of each series' name in `names`, by series slot.
    spans: Vec<(u32, u32)>,
}

impl Tsdb {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot of the series named `name`, if there is one.
    fn slot(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|&(start, end)| {
            (end - start) as usize == name.len()
                && &self.names.as_bytes()[start as usize..end as usize] == name.as_bytes()
        })
    }

    /// Resolve a series name to its handle, creating the (empty) series if
    /// absent. The existing-series path allocates nothing; the name is only
    /// copied in on first use.
    pub fn series_id(&mut self, name: &str) -> SeriesId {
        if let Some(i) = self.slot(name) {
            return SeriesId(i as u32);
        }
        let i = u32::try_from(self.series.len()).expect("fewer than 2^32 series per store");
        let start = u32::try_from(self.names.len()).expect("under 4 GiB of names per store");
        self.names.push_str(name);
        let end = u32::try_from(self.names.len()).expect("under 4 GiB of names per store");
        self.series.push(Series::default());
        self.spans.push((start, end));
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
    /// The reservation is exact, not rounded up to a quarter's spare room,
    /// and a list that already has the room is left as it is. A size the
    /// allocator refuses reserves nothing: the list then grows a quarter at
    /// a time as points arrive, so a run with no end in sight still records.
    pub fn reserve(&mut self, id: SeriesId, additional: usize) {
        // a refused reservation leaves the list as it was
        let _ = self.series[id.0 as usize].points.try_reserve_exact(additional);
    }

    /// Append to (creating if needed) a named series:
    /// [`Tsdb::series_id`] then [`Tsdb::append_to`].
    pub fn append(&mut self, name: &str, ts_ms: u64, value: f64) {
        let id = self.series_id(name);
        self.append_to(id, ts_ms, value);
    }

    /// Look up a series.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.slot(name).map(|i| &self.series[i])
    }

    /// Names of all stored series, sorted.
    pub fn series_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self
            .spans
            .iter()
            .map(|&(start, end)| &self.names[start as usize..end as usize])
            .collect();
        names.sort_unstable();
        names
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
    fn a_reservation_past_the_allocator_reserves_nothing() {
        let mut db = Tsdb::new();
        let id = db.series_id("cpu");
        db.append_to(id, 0, 1.0);
        // past `isize::MAX` bytes, and 1 PiB: more than an address space
        for huge in [usize::MAX, isize::MAX as usize / 2, 1 << 46] {
            db.reserve(id, huge);
            assert!(db.series[0].points.capacity() < 1 << 20, "{huge}: nothing reserved");
        }
        for t in 1..100u64 {
            db.append_to(id, t, t as f64);
        }
        let s = db.series("cpu").unwrap();
        assert_eq!(s.len(), 100);
        assert_eq!(s.points()[99], Point { ts_ms: 99, value: 99.0 });
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
                        let spare = if s.is_empty() { 0 } else { (s.len() / 4).max(4) };
                        assert_eq!(
                            copy.points.capacity(),
                            s.len() + spare,
                            "{ctx}: a clone holds its live points and a quarter of them spare"
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
                // growth meets at most `live / 2` dead points (module docs)
                assert!(
                    s.points.capacity() <= peak_live + peak_live / 2 + (peak_live / 4).max(4),
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
        // 264 live points in a list reserved at 512 slots, then trim 8 /
        // append 8 for 10 000 rounds
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
    fn a_cloned_series_in_steady_retention_keeps_a_quarter_of_slack() {
        // `telemetry_rw`'s shape at each of its 8 trim phases: 256 points
        // one every 100 ms, then rounds of one append each, with a trim to
        // the newest 256 points in every 8th round; 300 rounds on the
        // template, a clone, 560 rounds on the clone
        let round = |s: &mut Series, phase: u64, j: u64| {
            let ts = (256 + j) * 100;
            let compacted = j % 8 == phase && s.trim(ts, 256 * 100) > 0 && s.head == 0;
            s.push(ts, j as f64);
            assert!(
                s.points.capacity() * 10 <= s.len() * 13,
                "phase {phase} round {j}: {} slots for {} live points",
                s.points.capacity(),
                s.len()
            );
            compacted
        };
        let mut compactions = [0; 8];
        for phase in 0..8u64 {
            let mut template = Series::default();
            for t in 0..256u64 {
                template.push(t * 100, t as f64);
            }
            for j in 0..300 {
                round(&mut template, phase, j);
            }
            assert_eq!(
                template.points.capacity(),
                272,
                "phase {phase}: 256 grown a quarter at a time"
            );
            let mut s = template.clone();
            let (slots, at) = (s.points.capacity(), s.points.as_ptr());
            assert_eq!(slots, s.len() + s.len() / 4, "phase {phase}");
            for j in 300..860 {
                compactions[phase as usize] += usize::from(round(&mut s, phase, j));
                assert_eq!(
                    (s.points.capacity(), s.points.as_ptr()),
                    (slots, at),
                    "phase {phase} round {j}: the clone was reallocated"
                );
            }
        }
        // 70 trims each: once in 5 trims the survivors move, not every trim
        assert_eq!(compactions, [14; 8]);
    }

    #[test]
    fn the_search_equals_partition_point_at_every_cut() {
        use dust_topology::SplitMix64;
        // four spacings, then every cut checked: each stored timestamp and
        // its neighbours, the ends of `u64`, and random cuts
        for shape in ["even", "duplicates", "bursts", "geometric"] {
            for seed in 0..150u64 {
                let mut rng = SplitMix64::new(seed);
                let len = rng.below(70) as usize;
                // every third run is shifted so that it ends at `u64::MAX`
                let mut ts = rng.below(5);
                let mut stamps: Vec<u64> = (0..len)
                    .map(|_| {
                        let at = ts;
                        let gap = match shape {
                            "even" => 100,
                            "duplicates" => rng.below(3) * rng.below(4),
                            "bursts" if rng.below(8) == 0 => 1 + rng.below(5_000),
                            "bursts" => 0,
                            _ => ts.max(1),
                        };
                        ts = ts.saturating_add(gap);
                        at
                    })
                    .collect();
                if seed % 3 == 0 {
                    let shift = u64::MAX - stamps.last().copied().unwrap_or(0);
                    stamps.iter_mut().for_each(|t| *t = t.saturating_add(shift));
                }
                let points: Vec<Point> =
                    stamps.iter().map(|&ts_ms| Point { ts_ms, value: 0.0 }).collect();
                let around =
                    stamps.iter().flat_map(|&t| [t.saturating_sub(1), t, t.saturating_add(1)]);
                let random = (0..20).map(|_| rng.next_u64());
                for cut in around.chain([0, 1, u64::MAX - 1, u64::MAX]).chain(random) {
                    let want = points.partition_point(|p| p.ts_ms < cut);
                    assert_eq!(partition(&points, cut), want, "{shape} seed {seed} cut {cut}");
                }
            }
        }
    }

    #[test]
    fn buckets_that_reach_u64_max_match_the_list_model() {
        use dust_topology::SplitMix64;
        // the last buckets' ends overflow: `u64::MAX / 7 * 7 + 7` does not
        // fit, and neither does any bucket's end at width `u64::MAX` once a
        // point sits at `u64::MAX`
        for seed in 0..100u64 {
            let mut rng = SplitMix64::new(seed);
            let mut ts = u64::MAX - rng.below(3_000);
            let mut model = ListSeries::default();
            for _ in 0..rng.below(80) {
                model.0.push(Point { ts_ms: ts, value: rng.range_f64(-5.0, 5.0) });
                ts = ts.saturating_add(rng.below(3) * rng.below(60));
            }
            let mut s = Series::default();
            model.0.iter().for_each(|p| s.push(p.ts_ms, p.value));
            for bucket in [1, 7, 800, u64::MAX / 2, u64::MAX - 1, u64::MAX, 1 + rng.below(500)] {
                assert_eq!(
                    bits(s.downsample(bucket).points()),
                    bits(&model.downsample(bucket)),
                    "seed {seed} / {bucket}"
                );
            }
        }
    }

    #[test]
    fn name_table_matches_the_map_model() {
        use dust_topology::SplitMix64;
        use std::collections::BTreeMap;
        // prefixes of one another, equal lengths (`cpu`/`mem`/`μs`, `ab`/
        // `ba`), the empty name and multi-byte names
        const NAMES: [&str; 11] =
            ["cpu", "cpu2", "cp", "mem", "", "温度", "μs", "ab", "ba", "c", "温"];
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let mut rng = SplitMix64::new(seed);
            let mut db = Tsdb::new();
            let mut model: BTreeMap<String, Vec<Point>> = BTreeMap::new();
            // the handle each name got, in creation order
            let mut created: Vec<(&str, SeriesId)> = Vec::new();
            for step in 0..400u64 {
                let name = NAMES[rng.below(NAMES.len() as u64) as usize];
                let ctx = format!("seed {seed} step {step} {name:?}");
                match rng.below(3) {
                    0 => {
                        let id = db.series_id(name);
                        match created.iter().find(|(n, _)| *n == name) {
                            Some(&(_, first)) => assert_eq!(id, first, "{ctx}: stable"),
                            None => {
                                assert_eq!(id.0 as usize, created.len(), "{ctx}: creation order");
                                created.push((name, id));
                            }
                        }
                        model.entry(name.to_string()).or_default();
                    }
                    1 => {
                        db.append(name, step, step as f64);
                        model
                            .entry(name.to_string())
                            .or_default()
                            .push(Point { ts_ms: step, value: step as f64 });
                        if !created.iter().any(|(n, _)| *n == name) {
                            created.push((name, SeriesId(created.len() as u32)));
                        }
                    }
                    _ => {
                        if let Some(&(_, id)) = created.iter().find(|(n, _)| *n == name) {
                            db.append_to(id, step, -(step as f64));
                            model
                                .get_mut(name)
                                .expect("created")
                                .push(Point { ts_ms: step, value: -(step as f64) });
                        }
                    }
                }
                let names: Vec<&str> = model.keys().map(String::as_str).collect();
                assert_eq!(db.series_names(), names, "{ctx}: sorted");
                assert_eq!(db.series_count(), model.len(), "{ctx}");
                for n in NAMES.into_iter().chain(["cpu3", "温度度", "me"]) {
                    assert_eq!(
                        db.series(n).map(|s| bits(s.points())),
                        model.get(n).map(|pts| bits(pts)),
                        "{ctx}: series {n:?}"
                    );
                }
                if step % 40 == 39 {
                    let mut copy = db.clone();
                    assert_eq!(copy.series_names(), db.series_names(), "{ctx}: clone");
                    for &(n, id) in &created {
                        assert_eq!(copy.series(n), db.series(n), "{ctx}: clone of {n:?}");
                        assert_eq!(copy.series_id(n), id, "{ctx}: clone keeps {n:?}'s handle");
                    }
                    assert_eq!(copy.series_count(), db.series_count(), "{ctx}: nothing created");
                }
            }
            assert_eq!(created.len(), NAMES.len(), "seed {seed}: every name was created");
        }
    }
}
