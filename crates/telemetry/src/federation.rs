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

use crate::tsdb::{Point, Series, Tsdb};
use dust_topology::NodeId;
use std::collections::BTreeMap;

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
    fn combine(self, values: &[f64]) -> f64 {
        debug_assert!(!values.is_empty());
        match self {
            Aggregation::Sum => values.iter().sum(),
            Aggregation::Mean => values.iter().sum::<f64>() / values.len() as f64,
            Aggregation::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregation::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }
}

/// A federation over per-node TSDBs, indexed by [`NodeId::index`] (ids
/// are graph indices; memory is O(largest id) — see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Federation {
    /// `stores[i]` is node `i`'s store; `None` marks an id never attached.
    stores: Vec<Option<Tsdb>>,
}

impl Federation {
    /// An empty federation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Node `node`'s slot, growing the table to reach it.
    fn slot(&mut self, node: NodeId) -> &mut Option<Tsdb> {
        let i = node.index();
        if i >= self.stores.len() {
            self.stores.resize_with(i + 1, || None);
        }
        &mut self.stores[i]
    }

    /// Attached stores with their ids, ascending.
    fn attached(&self) -> impl Iterator<Item = (NodeId, &Tsdb)> {
        self.stores
            .iter()
            .enumerate()
            .filter_map(|(i, db)| db.as_ref().map(|db| (NodeId(i as u32), db)))
    }

    /// Attach (or replace) a node's TSDB.
    pub fn attach(&mut self, node: NodeId, tsdb: Tsdb) {
        *self.slot(node) = Some(tsdb);
    }

    /// Mutable handle to a node's store, creating it if absent (Monitor
    /// Agents write through this).
    pub fn store_mut(&mut self, node: NodeId) -> &mut Tsdb {
        self.slot(node).get_or_insert_with(Tsdb::new)
    }

    /// Read handle to a node's store.
    pub fn store(&self, node: NodeId) -> Option<&Tsdb> {
        self.stores.get(node.index())?.as_ref()
    }

    /// Participating nodes, ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.attached().map(|(n, _)| n).collect()
    }

    /// Nodes holding a series with this name, ascending.
    pub fn holders(&self, series: &str) -> Vec<NodeId> {
        self.attached().filter(|(_, db)| db.series(series).is_some()).map(|(n, _)| n).collect()
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
        // bucket start → per-node bucket means
        let mut buckets: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for db in self.stores.iter().flatten() {
            let Some(s) = db.series(series) else { continue };
            // per-node downsample restricted to the window
            let mut window = Series::default();
            for p in s.range(start_ms, end_ms) {
                window.push(p.ts_ms, p.value);
            }
            for Point { ts_ms, value } in window.downsample(bucket_ms).points() {
                buckets.entry(*ts_ms).or_default().push(*value);
            }
        }
        let mut out = Series::default();
        for (ts, values) in buckets {
            out.push(ts, agg.combine(&values));
        }
        out
    }

    /// Network-wide mean of the latest point of `series` on each node.
    pub fn latest_mean(&self, series: &str) -> Option<f64> {
        let latest: Vec<f64> = self
            .stores
            .iter()
            .flatten()
            .filter_map(|db| db.series(series))
            .filter_map(|s| s.points().last().map(|p| p.value))
            .collect();
        if latest.is_empty() {
            None
        } else {
            Some(latest.iter().sum::<f64>() / latest.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The federation as it was before the dense table: an ordered map of
    /// stores, every read a walk over it. Kept as the model the dense
    /// layout is checked against.
    #[derive(Default)]
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
                let mut window = Series::default();
                for p in s.range(start, end) {
                    window.push(p.ts_ms, p.value);
                }
                for p in window.downsample(bucket).points() {
                    buckets.entry(p.ts_ms).or_default().push(p.value);
                }
            }
            let mut out = Series::default();
            for (ts, values) in buckets {
                out.push(ts, agg.combine(&values));
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

    #[test]
    fn dense_table_matches_the_ordered_map_model() {
        use dust_topology::SplitMix64;
        // sparse on purpose: id 0, gaps, and the largest id touched first
        const IDS: [u32; 7] = [977, 0, 3, 4, 64, 500, 976];
        const NAMES: [&str; 4] = ["zz", "cpu", "mem", "a"];
        for seed in [1u64, 7, 42, 0xDEAD_BEEF] {
            let mut rng = SplitMix64::new(seed);
            let mut dense = Federation::new();
            let mut model = MapFederation::default();
            let mut touched = 0usize;
            for step in 0..600u64 {
                // the first step goes to the largest id, then at random
                let node = NodeId(if step == 0 { IDS[0] } else { IDS[rng.below(7) as usize] });
                match rng.below(10) {
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
                    _ => {
                        let (name, v) = (NAMES[rng.below(4) as usize], rng.range_f64(-50.0, 150.0));
                        dense.store_mut(node).append(name, step * 10, v);
                        model.stores.entry(node).or_default().append(name, step * 10, v);
                    }
                }
                touched = touched.max(model.stores.len());
                if step % 50 != 49 {
                    continue;
                }
                assert_eq!(dense.nodes(), model.stores.keys().copied().collect::<Vec<_>>());
                for id in 0..=IDS[0] + 1 {
                    let (d, m) = (dense.store(NodeId(id)), model.stores.get(&NodeId(id)));
                    assert_eq!(d.is_some(), m.is_some(), "seed {seed} step {step} id {id}");
                    if let (Some(d), Some(m)) = (d, m) {
                        assert_eq!(d.series_names(), m.series_names());
                        assert!(NAMES.iter().all(|n| d.series(n) == m.series(n)));
                    }
                }
                for name in NAMES.into_iter().chain(["absent"]) {
                    assert_eq!(dense.holders(name), model.holders(name), "seed {seed} {name}");
                    assert_eq!(
                        dense.latest_mean(name).map(f64::to_bits),
                        model.latest_mean(name).map(f64::to_bits),
                        "seed {seed} step {step} {name}"
                    );
                    let (from, to) = (rng.below(step * 10), step * 10 + 1);
                    for agg in
                        [Aggregation::Sum, Aggregation::Mean, Aggregation::Max, Aggregation::Min]
                    {
                        assert_eq!(
                            bits(&dense.query(name, from, to, 70, agg)),
                            bits(&model.query(name, from, to, 70, agg)),
                            "seed {seed} step {step} {name} {agg:?}"
                        );
                    }
                }
            }
            assert_eq!(touched, IDS.len(), "seed {seed}: every id, gaps included, was exercised");
        }
    }
}
