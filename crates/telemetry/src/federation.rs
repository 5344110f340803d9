//! Time-Series Federation: network-wide aggregation over node-local TSDBs.
//!
//! "The 'Time-Series Federation' component performs the essential task of
//! aggregating data throughout the underlying network" (§III-A). The
//! federation owns the per-node [`Tsdb`] stores: Monitor Agents write
//! into them through [`Federation::store_mut`], and queries merge matching
//! series across nodes.
//!
//! **Dense-id contract.** Stores sit in a table indexed by
//! [`NodeId::index`] — node ids are graph indices, dense `0..node_count()`
//! (see `dust_topology::Graph`) — so reaching a node's store is an index,
//! not a search, and every whole-federation read visits stores in
//! ascending id order. The table is as long as the largest id attached,
//! so memory is O(largest id), not O(stores): ids far outside a graph's
//! range cost one empty slot each.
//!
//! **Queries fold in place.** [`Federation::query`] walks each store's
//! window once, closes bucket means the way [`Series::downsample`] does,
//! and folds each into one ascending accumulator list shared by all
//! stores — no per-store copy of the window, no per-bucket list of values.
//! A store's buckets arrive ascending, so a per-store cursor into the
//! accumulators only moves forward; a bucket no earlier store covered is
//! an insert at the cursor. Every fold starts from the identity
//! [`Iterator::sum`] and the extremum folds start from, and adds in store
//! order, so a result is bit for bit what combining a collected list of
//! per-store means would give. The query allocates for its accumulators
//! and its result, independent of the number of stores.
//!
//! The unit of a whole-federation read — [`Federation::query`],
//! [`Federation::latest_mean`], [`Federation::holders`] — is a batch of 16
//! attached stores, not one store. Reaching a store's window is a chain of
//! dependent loads (slot, name spans, series table, window ends, guessed
//! index, window), and `telemetry_rw`'s 512 stores hold ≈ 17 MB of points,
//! more than L2: one store at a time, each chain waits on its own misses
//! and the fold between two chains is too long for the CPU to overlap them.
//! So one walk serves all three reads: for a batch it finds every store's
//! series by name, then every series' window, then loads one point per
//! 64-byte line of each window (plain loads kept by [`std::hint::black_box`]:
//! the crate has no `unsafe`, so no prefetch instruction), and only then
//! folds the batch in store order. The batch's misses are in flight
//! together, the fold order and so every answer bit are unchanged, and the
//! batch lives in stack arrays, so a read allocates nothing per store. On
//! `telemetry_rw`, 16 stores read faster than 8 or 32, and the read-ahead
//! pays for itself.
//!
//! **Equal stores are one store, copy-on-write.** A slot holds either the
//! node's own [`Tsdb`], inline, or an [`Arc`] of a store other nodes hold
//! too ([`Federation::share`]); every read goes through either kind the
//! same way. Writing through [`Federation::store_mut`] first makes a
//! shared slot the node's own ([`Arc::unwrap_or_clone`]), so a write
//! through one node never shows in another. A fleet whose nodes record
//! the same points keeps one copy of them. Own stores stay inline: a
//! query reaches each store it visits with one load, not two.

use crate::tsdb::{bucket_means, Point, Series, Tsdb};
use dust_topology::NodeId;
use std::sync::Arc;

/// Stores a whole-federation read takes at a time (see the module docs).
const BATCH: usize = 16;

/// Points to a 64-byte cache line.
const POINTS_PER_LINE: usize = 64 / std::mem::size_of::<Point>();

/// How matching points from different nodes combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregation {
    /// Sum across nodes (e.g. total packet rate).
    Sum,
    /// Mean across nodes (e.g. average CPU).
    Mean,
    /// Maximum across nodes (e.g. hottest switch).
    Max,
    /// Minimum across nodes.
    Min,
}

impl Aggregation {
    /// What a fold over per-node values starts from: `Iterator::sum`'s
    /// identity (`-0.0`, so a sum of `-0.0`s stays `-0.0`) or the extremum
    /// no value can lose to.
    fn identity(self) -> f64 {
        match self {
            Aggregation::Sum | Aggregation::Mean => -0.0,
            Aggregation::Max => f64::NEG_INFINITY,
            Aggregation::Min => f64::INFINITY,
        }
    }

    /// Fold one more node's value into `acc`.
    fn fold(self, acc: f64, value: f64) -> f64 {
        match self {
            Aggregation::Sum | Aggregation::Mean => acc + value,
            Aggregation::Max => acc.max(value),
            Aggregation::Min => acc.min(value),
        }
    }

    /// The aggregate of `count` folded values.
    fn finish(self, acc: f64, count: usize) -> f64 {
        match self {
            Aggregation::Mean => acc / count as f64,
            _ => acc,
        }
    }
}

/// A series' newest point, as a window of at most one point.
fn newest(s: &Series) -> &[Point] {
    let points = s.points();
    &points[points.len().saturating_sub(1)..]
}

/// One attached node's store: its own, inline, or one it shares.
#[derive(Debug, Clone)]
enum Slot {
    Own(Tsdb),
    Shared(Arc<Tsdb>),
}

impl Slot {
    fn get(&self) -> &Tsdb {
        match self {
            Slot::Own(db) => db,
            Slot::Shared(db) => db,
        }
    }
}

/// A federation over per-node TSDBs, indexed by [`NodeId::index`] (ids
/// are graph indices; memory is O(largest id) — see the module docs).
/// Nodes may share one store copy-on-write ([`Federation::share`]).
#[derive(Debug, Clone, Default)]
pub struct Federation {
    /// `stores[i]` is node `i`'s store; `None` marks an id never attached.
    stores: Vec<Option<Slot>>,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node `node`'s slot, growing the table to reach it.
    fn slot(&mut self, node: NodeId) -> &mut Option<Slot> {
        let i = node.index();
        if i >= self.stores.len() {
            self.stores.resize_with(i + 1, || None);
        }
        &mut self.stores[i]
    }

    /// Attached stores with their ids, ascending; a shared store once per
    /// node that holds it.
    fn attached(&self) -> impl Iterator<Item = (NodeId, &Tsdb)> {
        self.stores
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|slot| (NodeId(i as u32), slot.get())))
    }

    /// Attach (or replace) a node's TSDB.
    pub fn attach(&mut self, node: NodeId, tsdb: Tsdb) {
        *self.slot(node) = Some(Slot::Own(tsdb));
    }

    /// Make `node` hold `from`'s store, replacing any store it had: both
    /// read the same points until either is written through
    /// [`Federation::store_mut`], which copies the store for the writer
    /// (the last holder takes it without a copy). Sharing copies no point.
    ///
    /// # Panics
    /// Panics if `from` has no store.
    pub fn share(&mut self, node: NodeId, from: NodeId) {
        let source = self.stores.get_mut(from.index()).and_then(Option::as_mut);
        let source = source.expect("`share` needs a store to share");
        // an already shared store is cloned where it sits; one `from` owns
        // moves behind an `Arc` once
        let shared = match source {
            Slot::Shared(db) => Arc::clone(db),
            Slot::Own(db) => {
                let db = Arc::new(std::mem::take(db));
                *source = Slot::Shared(Arc::clone(&db));
                db
            }
        };
        *self.slot(node) = Some(Slot::Shared(shared));
    }

    /// Mutable handle to a node's store, creating it if absent (Monitor
    /// Agents write through this). A store the node shares becomes its
    /// own first, so the write shows in no other node.
    pub fn store_mut(&mut self, node: NodeId) -> &mut Tsdb {
        let slot = self.slot(node);
        if !matches!(slot, Some(Slot::Own(_))) {
            let db = match slot.take() {
                Some(Slot::Shared(db)) => Arc::unwrap_or_clone(db),
                _ => Tsdb::new(),
            };
            *slot = Some(Slot::Own(db));
        }
        match slot {
            Some(Slot::Own(db)) => db,
            _ => unreachable!("the slot was made the node's own above"),
        }
    }

    /// Read handle to a node's store.
    pub fn store(&self, node: NodeId) -> Option<&Tsdb> {
        self.stores.get(node.index())?.as_ref().map(Slot::get)
    }

    /// Participating nodes, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.attached().map(|(n, _)| n).collect()
    }

    /// Every attached store that holds `series`, in ascending id order,
    /// handed to `visit` with the `window` of its points; the stores are
    /// taken `BATCH` at a time, in the phases the module docs give.
    fn walk<'a>(
        &'a self,
        series: &str,
        window: impl Fn(&'a Series) -> &'a [Point],
        mut visit: impl FnMut(NodeId, &'a [Point]),
    ) {
        let mut stores = self.attached();
        loop {
            let mut held: [(NodeId, Option<&Series>); BATCH] = [(NodeId(0), None); BATCH];
            let mut taken = 0;
            // `zip` stops at a full batch before it takes one more store
            for (slot, (node, db)) in held.iter_mut().zip(stores.by_ref()) {
                *slot = (node, db.series(series));
                taken += 1;
            }
            let held = &held[..taken];
            let mut windows: [&[Point]; BATCH] = [&[]; BATCH];
            for ((_, s), w) in held.iter().zip(&mut windows) {
                *w = s.map_or(&[][..], &window);
            }
            // plain loads, independent of each other, kept by one
            // `black_box`: the lines arrive together, before the folds
            let mut touched = 0;
            for w in &windows[..taken] {
                for p in w.iter().step_by(POINTS_PER_LINE) {
                    touched ^= p.ts_ms;
                }
            }
            std::hint::black_box(touched);
            for (&(node, s), w) in held.iter().zip(windows) {
                if s.is_some() {
                    visit(node, w);
                }
            }
            if taken < BATCH {
                return;
            }
        }
    }

    /// Nodes holding a series with this name, ascending.
    pub fn holders(&self, series: &str) -> Vec<NodeId> {
        let mut nodes = Vec::new();
        self.walk(series, |_| &[], |node, _| nodes.push(node));
        nodes
    }

    /// Federated query: bucket every node's `series` into `bucket_ms`
    /// windows over `[start, end)`, then combine matching buckets across
    /// nodes with `agg`. Buckets covered by no node are skipped.
    pub fn query(
        &self,
        series: &str,
        start_ms: u64,
        end_ms: u64,
        bucket_ms: u64,
        agg: Aggregation,
    ) -> Series {
        assert!(bucket_ms > 0, "bucket width must be positive");
        // (bucket start, folded per-node means, nodes folded), ascending
        let mut acc: Vec<(u64, f64, usize)> = Vec::new();
        let fold = |_: NodeId, window: &[Point]| {
            let mut cursor = 0;
            bucket_means(window, bucket_ms, |bucket, mean| {
                while acc.get(cursor).is_some_and(|a| a.0 < bucket) {
                    cursor += 1;
                }
                match acc.get_mut(cursor) {
                    Some(a) if a.0 == bucket => {
                        a.1 = agg.fold(a.1, mean);
                        a.2 += 1;
                    }
                    _ => acc.insert(cursor, (bucket, agg.fold(agg.identity(), mean), 1)),
                }
                cursor += 1;
            });
        };
        self.walk(series, |s| s.range(start_ms, end_ms), fold);
        let mut out = Series::with_capacity(acc.len());
        for (bucket, folded, count) in acc {
            out.push(bucket, agg.finish(folded, count));
        }
        out
    }

    /// Network-wide mean of the latest point of `series` on each node.
    pub fn latest_mean(&self, series: &str) -> Option<f64> {
        let (mut sum, mut n) = (Aggregation::Mean.identity(), 0usize);
        self.walk(series, newest, |_, latest| {
            for p in latest {
                (sum, n) = (sum + p.value, n + 1);
            }
        });
        (n > 0).then(|| Aggregation::Mean.finish(sum, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn fed_with_two_nodes() -> Federation {
        let mut f = Federation::new();
        for (node, base) in [(NodeId(0), 10.0), (NodeId(1), 30.0)] {
            let db = f.store_mut(node);
            for t in 0..10u64 {
                db.append("cpu", t * 100, base + t as f64);
            }
        }
        f
    }

    #[test]
    fn attach_and_holders() {
        let mut f = fed_with_two_nodes();
        f.store_mut(NodeId(2)).append("mem", 0, 1.0);
        assert_eq!(f.nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(f.holders("cpu"), vec![NodeId(0), NodeId(1)]);
        assert_eq!(f.holders("mem"), vec![NodeId(2)]);
        assert!(f.holders("disk").is_empty());
    }

    #[test]
    fn federated_mean() {
        let f = fed_with_two_nodes();
        // bucket [0,500): node0 mean = 12, node1 mean = 32 → mean 22
        let s = f.query("cpu", 0, 1000, 500, Aggregation::Mean);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[0].value, 22.0);
        assert_eq!(s.points()[1].value, 27.0);
    }

    #[test]
    fn federated_sum_and_extremes() {
        let f = fed_with_two_nodes();
        let sum = f.query("cpu", 0, 500, 500, Aggregation::Sum);
        assert_eq!(sum.points()[0].value, 44.0);
        let max = f.query("cpu", 0, 500, 500, Aggregation::Max);
        assert_eq!(max.points()[0].value, 32.0);
        let min = f.query("cpu", 0, 500, 500, Aggregation::Min);
        assert_eq!(min.points()[0].value, 12.0);
    }

    #[test]
    fn query_window_respected() {
        let f = fed_with_two_nodes();
        let s = f.query("cpu", 300, 600, 100, Aggregation::Mean);
        assert_eq!(s.len(), 3); // buckets 300, 400, 500
        assert_eq!(s.points()[0].ts_ms, 300);
    }

    #[test]
    fn missing_series_yields_empty() {
        let f = fed_with_two_nodes();
        assert!(f.query("nope", 0, 1000, 100, Aggregation::Sum).is_empty());
    }

    #[test]
    fn partial_coverage_skips_empty_buckets() {
        let mut f = Federation::new();
        f.store_mut(NodeId(0)).append("x", 50, 5.0);
        f.store_mut(NodeId(1)).append("x", 950, 9.0);
        let s = f.query("x", 0, 1000, 100, Aggregation::Mean);
        assert_eq!(s.len(), 2);
        assert_eq!(s.points()[0].ts_ms, 0);
        assert_eq!(s.points()[1].ts_ms, 900);
    }

    #[test]
    fn latest_mean_across_nodes() {
        let f = fed_with_two_nodes();
        // latest points: 19 and 39
        assert_eq!(f.latest_mean("cpu"), Some(29.0));
        assert_eq!(f.latest_mean("nothing"), None);
    }

    #[test]
    fn inverted_query_window_is_empty() {
        let f = fed_with_two_nodes();
        assert!(f.query("cpu", 600, 300, 100, Aggregation::Mean).is_empty());
    }

    #[test]
    fn unattached_ids_have_no_store() {
        let mut f = Federation::new();
        assert!(f.store(NodeId(0)).is_none(), "empty federation");
        f.store_mut(NodeId(5)).append("x", 0, 1.0);
        assert!(f.store(NodeId(3)).is_none(), "a gap below the largest id");
        assert!(f.store(NodeId(6)).is_none(), "one past the table");
        assert!(f.store(NodeId(u32::MAX)).is_none(), "far past the table");
        assert_eq!(f.nodes(), vec![NodeId(5)]);
    }

    /// The oracle for the in-place folds: combine a collected list.
    fn combine(agg: Aggregation, values: &[f64]) -> f64 {
        assert!(!values.is_empty());
        match agg {
            Aggregation::Sum => values.iter().sum(),
            Aggregation::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Aggregation::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// The federation as it was before the dense table and the in-place
    /// fold: an ordered map of stores, every read a walk over it, every
    /// query a map of per-bucket value lists. Kept as the model the dense
    /// layout and the folds are checked against; it finds windows and
    /// buckets its own way, not through [`Series::range`] or
    /// [`bucket_means`].
    #[derive(Clone, Default)]
    struct MapFederation {
        stores: BTreeMap<NodeId, Tsdb>,
    }

    impl MapFederation {
        fn holders(&self, series: &str) -> Vec<NodeId> {
            let held = self.stores.iter().filter(|(_, db)| db.series(series).is_some());
            held.map(|(n, _)| *n).collect()
        }

        fn query(
            &self,
            series: &str,
            start: u64,
            end: u64,
            bucket: u64,
            agg: Aggregation,
        ) -> Series {
            let mut buckets: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for s in self.stores.values().filter_map(|db| db.series(series)) {
                // this store's window by a filter, its buckets by a
                // division per point
                let mut runs: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
                for p in s.points().iter().filter(|p| start <= p.ts_ms && p.ts_ms < end) {
                    runs.entry(p.ts_ms / bucket * bucket).or_default().push(p.value);
                }
                for (b, run) in runs {
                    let sum = run[1..].iter().fold(run[0], |a, v| a + v);
                    buckets.entry(b).or_default().push(sum / run.len() as f64);
                }
            }
            let mut out = Series::default();
            for (ts, values) in buckets {
                out.push(ts, combine(agg, &values));
            }
            out
        }

        fn latest_mean(&self, series: &str) -> Option<f64> {
            let latest: Vec<f64> = self
                .stores
                .values()
                .filter_map(|db| db.series(series)?.points().last().map(|p| p.value))
                .collect();
            (!latest.is_empty()).then(|| latest.iter().sum::<f64>() / latest.len() as f64)
        }
    }

    fn bits(s: &Series) -> Vec<(u64, u64)> {
        s.points().iter().map(|p| (p.ts_ms, p.value.to_bits())).collect()
    }

    /// Every read of `dense` against `model`, bit for bit: the node list,
    /// each store of ids `0..=top + 1`, holders, latest means and queries.
    fn assert_matches(
        dense: &Federation,
        model: &MapFederation,
        names: &[&str],
        top: u32,
        rng: &mut dust_topology::SplitMix64,
        ctx: &str,
    ) {
        assert_eq!(dense.nodes(), model.stores.keys().copied().collect::<Vec<_>>(), "{ctx}");
        for id in 0..=top + 1 {
            let (d, m) = (dense.store(NodeId(id)), model.stores.get(&NodeId(id)));
            assert_eq!(d.is_some(), m.is_some(), "{ctx} id {id}");
            if let (Some(d), Some(m)) = (d, m) {
                assert_eq!(d.series_names(), m.series_names(), "{ctx} id {id}");
                assert!(names.iter().all(|n| d.series(n) == m.series(n)), "{ctx} id {id}");
            }
        }
        let end = model
            .stores
            .values()
            .flat_map(|db| names.iter().filter_map(|n| db.series(n)?.points().last()))
            .map(|p| p.ts_ms + 1)
            .max()
            .unwrap_or(1);
        for &name in names.iter().chain(&["absent"]) {
            assert_eq!(dense.holders(name), model.holders(name), "{ctx} {name}");
            assert_eq!(
                dense.latest_mean(name).map(f64::to_bits),
                model.latest_mean(name).map(f64::to_bits),
                "{ctx} {name}"
            );
            let from = rng.below(end);
            for agg in [Aggregation::Sum, Aggregation::Mean, Aggregation::Max, Aggregation::Min] {
                assert_eq!(
                    bits(&dense.query(name, from, end, 70, agg)),
                    bits(&model.query(name, from, end, 70, agg)),
                    "{ctx} {name} {agg:?}"
                );
            }
        }
    }

    #[test]
    fn dense_table_matches_the_ordered_map_model() {
        use dust_topology::SplitMix64;
        // sparse on purpose: id 0, gaps, and the largest id touched first
        const IDS: [u32; 7] = [977, 0, 3, 4, 64, 500, 976];
        const NAMES: [&str; 4] = ["zz", "cpu", "mem", "a"];
        // writes that landed in a shared store and in an own one
        let (mut through_shared, mut through_own) = (0, 0);
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let mut rng = SplitMix64::new(seed);
            let mut dense = Federation::new();
            let mut model = MapFederation::default();
            let mut touched = 0usize;
            let mut shares = 0;
            for step in 0..600u64 {
                let ctx = format!("seed {seed} step {step}");
                // the first step goes to the largest id, then at random
                let node = NodeId(if step == 0 { IDS[0] } else { IDS[rng.below(7) as usize] });
                match rng.below(12) {
                    0 => {
                        // attach: a fresh store, replacing any old one
                        let mut db = Tsdb::new();
                        db.append(NAMES[rng.below(4) as usize], step * 10, rng.next_f64());
                        dense.attach(node, db.clone());
                        model.stores.insert(node, db);
                    }
                    1 => {
                        // store_mut alone creates an empty store
                        dense.store_mut(node);
                        model.stores.entry(node).or_default();
                    }
                    2 | 3 => {
                        // share: to the model, a copy; to the federation,
                        // the same store, no point copied
                        let from = NodeId(IDS[rng.below(7) as usize]);
                        if let Some(db) = model.stores.get(&from).cloned() {
                            model.stores.insert(node, db);
                            dense.share(node, from);
                            let (a, b) = (dense.store(node).unwrap(), dense.store(from).unwrap());
                            assert!(std::ptr::eq(a, b), "{ctx}: {node:?} holds {from:?}'s store");
                            shares += 1;
                        }
                    }
                    4 => {
                        // a clone reads as its source, and writes to it
                        // show in neither the source nor its other nodes
                        let (mut copy, mut copy_model) = (dense.clone(), model.clone());
                        for _ in 0..8 {
                            let n = NodeId(IDS[rng.below(7) as usize]);
                            let (name, v) =
                                (NAMES[rng.below(4) as usize], rng.range_f64(-50.0, 150.0));
                            copy.store_mut(n).append(name, step * 10, v);
                            copy_model.stores.entry(n).or_default().append(name, step * 10, v);
                        }
                        assert_matches(&copy, &copy_model, &NAMES, IDS[0], &mut rng, &ctx);
                        assert_matches(&dense, &model, &NAMES, IDS[0], &mut rng, &ctx);
                        if rng.below(2) == 0 {
                            (dense, model) = (copy, copy_model);
                        }
                    }
                    _ => {
                        match dense.stores.get(node.index()) {
                            Some(Some(Slot::Shared(_))) => through_shared += 1,
                            Some(Some(Slot::Own(_))) => through_own += 1,
                            _ => {}
                        }
                        let (name, v) = (NAMES[rng.below(4) as usize], rng.range_f64(-50.0, 150.0));
                        dense.store_mut(node).append(name, step * 10, v);
                        model.stores.entry(node).or_default().append(name, step * 10, v);
                    }
                }
                touched = touched.max(model.stores.len());
                if step % 25 == 24 {
                    assert_matches(&dense, &model, &NAMES, IDS[0], &mut rng, &ctx);
                }
            }
            assert_eq!(touched, IDS.len(), "seed {seed}: every id, gaps included, was exercised");
            assert!(shares > 20, "seed {seed}: {shares} shares");
        }
        assert!(through_shared > 100 && through_own > 100, "{through_shared} / {through_own}");
    }

    /// A value's bits, every NaN as one pattern: Rust leaves a NaN's sign
    /// and payload unspecified, everything else must match to the bit.
    fn canon_bits(v: f64) -> u64 {
        if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    fn value_bits(s: &Series) -> Vec<(u64, u64)> {
        s.points().iter().map(|p| (p.ts_ms, canon_bits(p.value))).collect()
    }

    const AGGS: [Aggregation; 4] =
        [Aggregation::Sum, Aggregation::Mean, Aggregation::Max, Aggregation::Min];
    const SPECIALS: [f64; 5] = [-0.0, 0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];

    #[test]
    fn a_cloned_federation_keeps_a_quarter_of_slack() {
        // `telemetry_rw`'s shape, counted rather than measured: 512 stores
        // of 8 series, 256 points each one every 100 ms, then rounds of one
        // append per series, each store trimmed to its newest 256 points
        // in every 8th round (store `s` in the rounds `≡ s mod 8`); 16
        // rounds on the template, a clone, 16 rounds on the clone
        const NAMES: [&str; 8] = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let advance = |fed: &mut Federation, rounds: std::ops::Range<u64>| {
            for j in rounds {
                let ts = (256 + j) * 100;
                for store in 0..512u32 {
                    let db = fed.store_mut(NodeId(store));
                    if j % 8 == u64::from(store % 8) {
                        db.trim_all(ts, 256 * 100);
                    }
                    NAMES.iter().for_each(|name| db.append(name, ts, j as f64));
                }
            }
        };
        // (slots, live points) over every series
        let census = |fed: &Federation| {
            let series = fed.attached().flat_map(|(_, db)| NAMES.map(|n| db.series(n)));
            series.flatten().fold((0, 0), |(slots, live), s| (slots + s.capacity(), live + s.len()))
        };
        let mut template = Federation::new();
        for t in 0..256u64 {
            for store in 0..512u32 {
                let db = template.store_mut(NodeId(store));
                NAMES.iter().for_each(|name| db.append(name, t * 100, t as f64));
            }
        }
        advance(&mut template, 0..16);
        let mut clone = template.clone();
        advance(&mut clone, 16..32);
        for (fed, which) in [(&template, "template"), (&clone, "clone")] {
            let (slots, live) = census(fed);
            assert_eq!(fed.nodes().len(), 512, "{which}");
            assert!(live >= 512 * 8 * 257, "{which}: {live} live points");
            assert!(slots * 10 <= live * 13, "{which}: {slots} slots for {live} live points");
        }
    }

    #[test]
    fn one_store_one_bucket_keeps_every_bit() {
        // where a fold's starting value shows: `0.0 + -0.0` is `0.0`, but
        // the sum of the one-element list `[-0.0]` is `-0.0`
        for v in SPECIALS.into_iter().chain([3.5]) {
            for points in [1u64, 3] {
                let mut dense = Federation::new();
                let mut model = MapFederation::default();
                for t in 0..points {
                    dense.store_mut(NodeId(4)).append("x", 10 + t, v);
                    model.stores.entry(NodeId(4)).or_default().append("x", 10 + t, v);
                }
                for agg in AGGS {
                    let got = dense.query("x", 0, 100, 100, agg);
                    assert_eq!(got.len(), 1);
                    let want = model.query("x", 0, 100, 100, agg);
                    assert_eq!(value_bits(&got), value_bits(&want), "{v} x {points} {agg:?}");
                }
                assert_eq!(
                    dense.latest_mean("x").map(canon_bits),
                    model.latest_mean("x").map(canon_bits),
                    "latest of {v}"
                );
            }
        }
        let mut f = Federation::new();
        f.store_mut(NodeId(0)).append("x", 0, -0.0);
        f.store_mut(NodeId(1)).append("x", 0, -0.0);
        for agg in AGGS {
            let bits = f.query("x", 0, 1, 1, agg).points()[0].value.to_bits();
            assert_eq!(bits, (-0.0f64).to_bits(), "{agg:?} of two -0.0");
        }
        assert_eq!(f.latest_mean("x").map(f64::to_bits), Some((-0.0f64).to_bits()));
    }

    #[test]
    fn folds_match_the_collected_lists_on_special_values() {
        use dust_topology::SplitMix64;
        for seed in [3u64, 11, 29, 0xF01D] {
            let mut rng = SplitMix64::new(seed);
            let mut dense = Federation::new();
            let mut model = MapFederation::default();
            // stores cover different, gappy stretches of time, so later
            // stores insert buckets before, between and after earlier ones
            for node in (0..12u32).map(|i| NodeId(i * 5 % 12)) {
                let mut ts = rng.below(900);
                for _ in 0..rng.below(40) {
                    ts += rng.below(3) * rng.below(90);
                    let v = match rng.below(3) {
                        0 => rng.range_f64(-10.0, 10.0),
                        _ => SPECIALS[rng.below(5) as usize],
                    };
                    dense.store_mut(node).append("x", ts, v);
                    model.stores.entry(node).or_default().append("x", ts, v);
                }
            }
            assert_eq!(
                dense.latest_mean("x").map(canon_bits),
                model.latest_mean("x").map(canon_bits),
                "seed {seed}"
            );
            for bucket in [1, 7, 64, 500, 10_000] {
                for (from, to) in
                    [(0, u64::MAX), (300, 1_500), (rng.below(2_000), rng.below(4_000))]
                {
                    for agg in AGGS {
                        assert_eq!(
                            value_bits(&dense.query("x", from, to, bucket, agg)),
                            value_bits(&model.query("x", from, to, bucket, agg)),
                            "seed {seed} {from}..{to} / {bucket} {agg:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn batched_reads_match_a_per_store_walk_at_every_batch_edge() {
        use dust_topology::SplitMix64;
        let mut rng = SplitMix64::new(0xBA7C);
        for stores in [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3] {
            let mut f = Federation::new();
            let mut id = 0;
            for k in 0..stores {
                // a gap of 0-2 ids never attached before each store
                let node = NodeId(id + 1 + rng.below(3) as u32);
                id = node.0;
                // a store without the series, an empty series, the first
                // store shared, or points
                match k % 5 {
                    1 => f.store_mut(node).append("other", 500, 1.0),
                    2 => drop(f.store_mut(node).series_id("x")),
                    3 => f.share(node, f.nodes()[0]),
                    _ => {
                        let mut ts = 100 + rng.below(300);
                        for _ in 0..1 + rng.below(60) {
                            f.store_mut(node).append("x", ts, rng.range_f64(-10.0, 10.0));
                            ts += rng.below(20);
                        }
                    }
                }
            }
            assert_eq!(f.nodes().len(), stores);
            // the reference walks the same stores one at a time
            let nodes = f.nodes().into_iter();
            let model =
                MapFederation { stores: nodes.map(|n| (n, f.store(n).unwrap().clone())).collect() };
            for name in ["x", "other", "absent"] {
                let ctx = format!("{stores} stores, {name}");
                assert_eq!(f.holders(name), model.holders(name), "{ctx}");
                assert_eq!(
                    f.latest_mean(name).map(f64::to_bits),
                    model.latest_mean(name).map(f64::to_bits),
                    "{ctx}"
                );
                // inside the data, across its start, across its end, past
                // it, before it, and all of it
                let windows =
                    [(300, 700), (0, 400), (800, 5_000), (5_000, 6_000), (0, 50), (0, u64::MAX)];
                for (from, to) in windows {
                    for bucket in [70, 1_000] {
                        for agg in AGGS {
                            assert_eq!(
                                bits(&f.query(name, from, to, bucket, agg)),
                                bits(&model.query(name, from, to, bucket, agg)),
                                "{ctx} {from}..{to} / {bucket} {agg:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_shared_store_is_copied_only_for_a_writer_that_is_not_its_last_holder() {
        // where node `n` reads its `cpu` points, and their bits
        let at = |f: &Federation, n: u32| {
            let s = f.store(NodeId(n)).and_then(|db| db.series("cpu")).expect("a cpu series");
            (s.points().as_ptr(), value_bits(s))
        };
        let mut f = fed_with_two_nodes();
        let (own, points) = at(&f, 0);
        let (other, other_points) = at(&f, 1);
        f.share(NodeId(2), NodeId(0)); // from a store its source owns
        f.share(NodeId(3), NodeId(2)); // from one its source shares
        f.share(NodeId(3), NodeId(3)); // a shared store onto itself
        f.share(NodeId(1), NodeId(1)); // an own store onto itself
        for n in [0, 2, 3] {
            assert_eq!(at(&f, n), (own, points.clone()), "node {n} reads node 0's points");
        }
        assert_eq!(at(&f, 1), (other, other_points.clone()), "sharing copies no point");

        // a write through a holder copies the store for that holder only
        f.store_mut(NodeId(2)).append("cpu", 1_000, 1.0);
        let (copy, written) = at(&f, 2);
        assert_ne!(copy, own);
        assert_eq!((written.len(), &written[..10]), (11, &points[..]));
        for n in [0, 3] {
            assert_eq!(at(&f, n), (own, points.clone()), "node {n} still reads the original");
        }
        let db = f.store_mut(NodeId(0));
        assert_ne!(db.series("cpu").unwrap().points().as_ptr(), own, "node 3 still holds it");
        db.append("cpu", 1_000, 2.0);
        assert_eq!(at(&f, 3), (own, points.clone()));
        // the last holder, and a store shared onto itself, write in place
        for (n, store) in [(3, own), (1, other)] {
            let db = f.store_mut(NodeId(n));
            assert_eq!(db.series("cpu").unwrap().points().as_ptr(), store, "node {n} copies");
        }
        assert_eq!(at(&f, 1), (other, other_points));
        assert_eq!(at(&f, 3), (own, points));
    }
}
