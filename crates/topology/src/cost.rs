//! `T_rmin` cost matrices between Busy nodes and Offload-candidates (Eq. 2).
//!
//! The placement LP needs, for every pair `(i ∈ V_b, j ∈ V_o)`, the minimum
//! response time over all paths within the hop bound. This module builds
//! that matrix with the hop-bounded DP, whose minimum is the enumerated
//! one bit for bit (see [`crate::paths`]), parameterized per source by the
//! monitoring data volume `D_i` in megabits.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::{min_inv_lu_dp_into, DpScratch, RowScratch};
use dust_obs::{LocalProfiler, ObsHandle, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

/// The minimum response times (seconds) of the `|V_b| × |V_o|` pairs that
/// have a path inside the hop bound: Eq. 3 has a variable for those pairs
/// only. Each row lists its reachable columns in ascending order with their
/// `T_rmin`; a pair a row does not list has no path within the bound, and
/// the placement layer must not route between it.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    /// Busy (source) nodes, row order.
    pub sources: Vec<NodeId>,
    /// Offload-candidate (destination) nodes, column order.
    pub destinations: Vec<NodeId>,
    /// Row `r`'s entries are `row_start[r]..row_start[r + 1]` of `columns`
    /// and `t_rmin`.
    pub row_start: Vec<u32>,
    /// The destination column of each entry, ascending within its row.
    pub columns: Vec<u32>,
    /// `T_rmin` of each entry in seconds, always finite.
    pub t_rmin: Vec<f64>,
}

impl CostMatrix {
    /// Build the matrix sequentially with a throwaway [`CostEngine`].
    /// `data_mb[r]` is `D_i` (Mb) for `sources[r]`.
    ///
    /// Prefer holding a [`CostEngine`] across solves — it parallelizes row
    /// computation and reuses cached rows between re-optimizations; this
    /// constructor exists for one-shot and test use.
    ///
    /// # Panics
    /// Panics if `data_mb.len() != sources.len()`.
    pub fn build(
        g: &Graph,
        sources: &[NodeId],
        destinations: &[NodeId],
        data_mb: &[f64],
        max_hop: Option<usize>,
    ) -> Self {
        CostEngine::with_threads(1).build_matrix(g, sources, destinations, data_mb, max_hop)
    }

    /// Number of rows (Busy nodes).
    #[inline]
    pub fn rows(&self) -> usize {
        self.sources.len()
    }

    /// Number of columns (Offload-candidates).
    #[inline]
    pub fn cols(&self) -> usize {
        self.destinations.len()
    }

    /// Row `r`'s reachable columns, ascending, and their `T_rmin`.
    pub fn row(&self, r: usize) -> (&[u32], &[f64]) {
        let at = self.row_start[r] as usize..self.row_start[r + 1] as usize;
        (&self.columns[at.clone()], &self.t_rmin[at])
    }

    /// `T_rmin` for row `r`, column `c`, in seconds; `f64::INFINITY` when
    /// the pair has no path within the hop bound.
    pub fn at(&self, r: usize, c: usize) -> f64 {
        let (cols, t) = self.row(r);
        cols.binary_search(&(c as u32)).map_or(f64::INFINITY, |k| t[k])
    }

    /// True if any (source, destination) pair is connected within the bound.
    pub fn any_reachable(&self) -> bool {
        !self.t_rmin.is_empty()
    }
}

/// Cache key for one priced row: graph epoch, source and hop bound
/// (`u64::MAX` encodes unbounded).
type RowKey = (u64, NodeId, u64);

fn hop_key(max_hop: Option<usize>) -> u64 {
    max_hop.map_or(u64::MAX, |h| h as u64)
}

/// Parallel, memoized `T_rmin` row provider — the single cost authority
/// behind every placement entry point.
///
/// Pricing a source means computing `min Σ 1/Lu_e` from it to *every*
/// node with the hop-bounded DP; [`CostEngine::rows`] is the one door to
/// a row. The
/// per-source rows are independent, so `build_matrix` fans them out
/// across scoped worker threads pulling row indices from a shared cursor
/// and filling each row into a buffer the calling thread allocated for
/// it. Merging happens in
/// node-index order, so output is byte-identical to the sequential path
/// for any thread count.
///
/// Rows are cached keyed by `(graph epoch, source, hop bound)`.
/// The epoch ([`Graph::epoch`]) is reassigned on every graph mutation, so
/// a changed link utilization can never serve a stale row, while repeated
/// re-optimizations over an unchanged graph — `io_rate_sweep`, the
/// periodic re-solve loop — hit the cache instead of re-pricing. Cached
/// rows store `Σ 1/Lu_e` (not `T_rmin`), so one row serves every data
/// volume `D_i`.
#[derive(Debug)]
pub struct CostEngine {
    /// Worker count, resolved once at construction: never 0.
    threads: usize,
    cache: RwLock<HashMap<RowKey, Arc<Vec<f64>>>>,
    obs: ObsHandle,
    /// Epoch of the last [`CostEngine::refresh`] snapshot: rows keyed here
    /// predate everything in the graph's dirty journal, so they are the
    /// ones eligible for migration at the next refresh. `0` = never
    /// refreshed (no epoch is ever handed out as 0).
    coherent_epoch: AtomicU64,
    /// The hop layers routes over this engine's graph backtrack through,
    /// kept from one placement round to the next.
    routes: Mutex<DpScratch>,
}

impl Default for CostEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// Dirty-link fraction (of the edge count) above which
/// [`CostEngine::refresh`] gives up on incremental row migration and
/// re-prices everything: the break-even observed on fat-trees, where past
/// roughly a quarter of links dirty the BFS reachability pass saves fewer
/// rows than it costs.
pub const MAX_DIRTY_FRACTION: f64 = 0.25;

/// What one [`CostEngine::refresh`] did to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RefreshStats {
    /// Rows carried over to the new epoch without re-pricing (no path
    /// within their hop bound can traverse a dirty link).
    pub migrated: usize,
    /// Rows dropped because a dirty link sits inside their hop cone (or
    /// because they were keyed at an unmigratable intermediate epoch).
    pub invalidated: usize,
    /// True when the refresh gave up on per-link precision and fell back
    /// to full invalidation (structural change, journal overflow, or
    /// dirty fraction above the caller's threshold).
    pub full: bool,
}

impl CostEngine {
    /// An engine using all available parallelism.
    pub fn new() -> Self {
        Self::with_threads(0)
    }

    /// An engine with an explicit worker count; `0` means "use available
    /// parallelism", read once here. `1` is the sequential reference
    /// implementation.
    pub fn with_threads(threads: usize) -> Self {
        let threads = match threads {
            0 => std::thread::available_parallelism().map_or(1, usize::from),
            n => n,
        };
        CostEngine {
            threads,
            cache: RwLock::new(HashMap::new()),
            obs: ObsHandle::disabled(),
            coherent_epoch: AtomicU64::new(0),
            routes: Mutex::default(),
        }
    }

    /// Attach an observability handle (builder form). Cache hit/miss
    /// accounting happens in a sequential pre-pass and the parallel
    /// workers never touch the handle, so recording cannot perturb
    /// row-pricing determinism.
    pub fn with_obs(mut self, obs: ObsHandle) -> Self {
        self.obs = obs;
        self
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Resolved worker count: the configured value, or the available
    /// parallelism read at construction when configured as `0`.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The working memory route extraction runs its DPs in: a round that
    /// routes through it allocates no layers a previous round already
    /// grew. Every run overwrites what the last one left, so a scratch a
    /// panicking holder left behind is as good as any.
    pub fn route_scratch(&self) -> MutexGuard<'_, DpScratch> {
        self.routes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of rows currently cached (all epochs).
    pub fn cached_rows(&self) -> usize {
        self.cache.read().expect("cost cache poisoned").len()
    }

    /// Incrementally re-validate the row cache against the mutations `g`
    /// accumulated since the previous refresh, instead of letting the
    /// epoch bump evict everything. `dirty` is what [`Graph::take_dirty`]
    /// returned for `g` (`Some(vec![])` when [`Graph::journal_is_empty`]
    /// said there was nothing to take; `None` when everything is dirty).
    /// The caller drains the journal, so the refresh only reads the graph
    /// and a holder of a shared `Arc<Graph>` re-validates the cache
    /// without copying the topology.
    ///
    /// For every row priced at the previous refresh's epoch, the refresh
    /// decides whether any path inside the row's hop bound could traverse
    /// a touched link: one multi-source BFS from the dirty links' endpoints
    /// gives each node its distance to the nearest dirty link, and a row
    /// from `src` under bound `h` is provably unaffected when
    /// `dist(src, dirty) + 1 > h` — those rows are re-keyed to the
    /// current epoch (same `Arc`, no re-pricing) and every later lookup
    /// hits the cache bit-identically to a from-scratch re-price
    /// (utilization-only mutations never change hop distances, and
    /// structural mutations journal as all-dirty). Rows a dirty link
    /// *might* reach are dropped and re-priced on demand.
    ///
    /// Precision degrades safely: an all-dirty journal (`None`), an empty
    /// cache epoch, or a dirty fraction above [`MAX_DIRTY_FRACTION`] (of
    /// the edge count) falls back to full invalidation, which evicts every
    /// row priced under an epoch other than `g`'s current one. A
    /// long-lived engine re-pricing a graph that is re-drawn wholesale
    /// calls `refresh(g, None)` to keep the cache from accumulating dead
    /// epochs. Records `cost.rows_migrated`, `cost.rows_invalidated`,
    /// `cost.refreshes`, and `cost.full_invalidations` counters; no trace
    /// events, so golden digests never depend on refresh cadence.
    pub fn refresh(&self, g: &Graph, dirty: Option<Vec<EdgeId>>) -> RefreshStats {
        let _prof = self.obs.prof_scope("cost.refresh");
        let cur = g.epoch();
        let prev = self.coherent_epoch.swap(cur, Ordering::Relaxed);
        if self.obs.is_enabled() {
            self.obs.counter_inc("cost.refreshes");
        }
        if prev == cur {
            // nothing mutated since the last refresh: every cached row at
            // `cur` is already coherent
            return RefreshStats::default();
        }
        let full = match &dirty {
            None => true,
            Some(d) => {
                prev == 0
                    || g.edge_count() == 0
                    || (d.len() as f64) > MAX_DIRTY_FRACTION * g.edge_count() as f64
            }
        };
        let mut cache = self.cache.write().expect("cost cache poisoned");
        let mut stats = RefreshStats { full, ..RefreshStats::default() };
        if full {
            let before = cache.len();
            cache.retain(|k, _| k.0 == cur);
            stats.invalidated = before - cache.len();
            if self.obs.is_enabled() {
                self.obs.counter_inc("cost.full_invalidations");
            }
        } else {
            let d = dirty.as_deref().unwrap_or(&[]);
            // hops from each node to the nearest dirty link's endpoint:
            // utilization-only mutations never change adjacency, so the
            // post-mutation graph answers for the pre-mutation one too
            let ddist = (!d.is_empty())
                .then(|| g.hop_distances(d.iter().flat_map(|&e| [g.edge(e).a, g.edge(e).b])));
            let keys: Vec<RowKey> = cache.keys().filter(|k| k.0 == prev).copied().collect();
            for key in keys {
                let (_, src, hopk) = key;
                let affected = match &ddist {
                    None => false,
                    Some(dist) => match dist.get(src.index()) {
                        // a dirty link is inside the hop cone when its
                        // nearest endpoint is reachable within bound - 1
                        Some(&dd) => dd != usize::MAX && (hopk == u64::MAX || (dd as u64) < hopk),
                        None => true,
                    },
                };
                let row = cache.remove(&key).expect("row key vanished under write lock");
                if affected {
                    stats.invalidated += 1;
                } else {
                    cache.insert((cur, src, hopk), row);
                    stats.migrated += 1;
                }
            }
            // rows priced at intermediate epochs (between refreshes) saw
            // an unknown subset of the dirt: not migratable, just stale
            let before = cache.len();
            cache.retain(|k, _| k.0 == cur);
            stats.invalidated += before - cache.len();
        }
        if self.obs.is_enabled() {
            self.obs.counter_add("cost.rows_migrated", stats.migrated as u64);
            self.obs.counter_add("cost.rows_invalidated", stats.invalidated as u64);
        }
        stats
    }

    /// Price the rows for `sources` in parallel, returning them in source
    /// order. This is the fan-out core behind [`CostEngine::build_matrix`]:
    /// workers pull row indices from a shared cursor and each writes into
    /// its own slot, so the result — and everything assembled from it — is
    /// identical for any thread count. One source's cached row is
    /// `rows(g, &[src], ..)[0]`.
    pub fn rows(
        &self,
        g: &Graph,
        sources: &[NodeId],
        max_hop: Option<usize>,
    ) -> Vec<Arc<Vec<f64>>> {
        self.rows_counted(g, sources, max_hop).0
    }

    /// Fan-out core returning `(rows, cache_hits, cache_misses)`.
    ///
    /// Hit/miss accounting runs in a *sequential pre-pass* over the
    /// cache (counters and `CacheHit`/`CacheMiss` trace events in source
    /// order); the workers themselves never touch the obs handle, so the
    /// trace is identical for every thread count.
    fn rows_counted(
        &self,
        g: &Graph,
        sources: &[NodeId],
        max_hop: Option<usize>,
    ) -> (Vec<Arc<Vec<f64>>>, u64, u64) {
        let _prof = self.obs.prof_scope("cost.price_rows");
        let workers = self.threads().min(sources.len());
        // Everything the pricing allocates is allocated here, on the
        // calling thread and in source order: a buffer per uncached row,
        // each worker's scratch, the cache entries. Workers only fill
        // buffers, so the heap a round leaves behind does not depend on
        // which thread priced which row. A buffer is allocated with room
        // for its row, not filled: the row kernel writes every entry.
        let n = g.node_count();
        let key = |src: NodeId| -> RowKey { (g.epoch(), src, hop_key(max_hop)) };
        // a cached row, or the buffer a worker prices the row into
        type RowSlot = Result<Arc<Vec<f64>>, Mutex<Vec<f64>>>;
        let slots: Vec<RowSlot> = {
            let _probe = self.obs.prof_scope("cost.cache_probe");
            let cache = self.cache.read().expect("cost cache poisoned");
            sources
                .iter()
                .map(|&src| match cache.get(&key(src)) {
                    Some(row) => Ok(Arc::clone(row)),
                    None => Err(Mutex::new(Vec::with_capacity(n))),
                })
                .collect()
        };
        let (mut hits, mut misses) = (0u64, 0u64);
        if self.obs.is_enabled() {
            for (slot, &src) in slots.iter().zip(sources) {
                if slot.is_ok() {
                    hits += 1;
                    self.obs.counter_inc("cost.cache_hits");
                    self.obs.trace(TraceEvent::CacheHit { node: src.0 });
                } else {
                    misses += 1;
                    self.obs.counter_inc("cost.cache_misses");
                    self.obs.counter_inc("cost.rows_priced");
                    self.obs.trace(TraceEvent::CacheMiss { node: src.0 });
                }
            }
            self.obs.gauge_set("cost.workers", workers.max(1) as f64);
        }
        let price = |i: usize, scratch: &mut RowScratch| {
            if let Err(buf) = &slots[i] {
                let mut row = buf.lock().expect("row buffer poisoned");
                min_inv_lu_dp_into(g, sources[i], max_hop, &mut row, scratch);
            }
        };
        let mut scratch: Vec<RowScratch> =
            (0..workers.max(1)).map(|_| RowScratch::reserved(n)).collect();
        if workers <= 1 {
            for i in 0..sources.len() {
                let _row = self.obs.prof_scope("cost.row_price");
                price(i, &mut scratch[0]);
            }
        } else {
            // Workers never touch the shared obs handle: each job records
            // into a private forked profiler, and the locals are grafted
            // back in job-index order after the scope — so profile *counts*
            // (sources.len() rows) are identical for every thread count,
            // like everything else.
            let profiles: Vec<OnceLock<LocalProfiler>> =
                sources.iter().map(|_| OnceLock::new()).collect();
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for scratch in &mut scratch {
                    let (price, profiles, cursor) = (&price, &profiles, &cursor);
                    s.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= sources.len() {
                            break;
                        }
                        match self.obs.prof_fork() {
                            Some(mut local) => {
                                local.time("cost.row_price", || price(i, scratch));
                                profiles[i].set(local).expect("row profiled twice");
                            }
                            None => price(i, scratch),
                        }
                    });
                }
            });
            for local in profiles {
                if let Some(l) = local.into_inner() {
                    self.obs.prof_join(l);
                }
            }
        }
        let mut cache = self.cache.write().expect("cost cache poisoned");
        let rows = slots
            .into_iter()
            .zip(sources)
            .map(|(slot, &src)| match slot {
                Ok(row) => row,
                // a source listed twice keeps its first row, as a second
                // lookup would have hit it
                Err(buf) => {
                    let row = Arc::new(buf.into_inner().expect("row buffer poisoned"));
                    Arc::clone(cache.entry(key(src)).or_insert(row))
                }
            })
            .collect();
        (rows, hits, misses)
    }

    /// Build the `T_rmin` matrix (Eq. 2): row `r` is
    /// `data_mb[r] · Σ 1/Lu_e` from `sources[r]` to each destination it
    /// reaches inside the bound, `0` on the diagonal; the pairs with no path
    /// inside the bound are left out.
    ///
    /// Rows are priced in parallel across [`CostEngine::threads`] workers
    /// and merged in row order — output is identical for every thread
    /// count.
    ///
    /// # Panics
    /// Panics if `data_mb.len() != sources.len()` or any volume is
    /// negative or non-finite.
    pub fn build_matrix(
        &self,
        g: &Graph,
        sources: &[NodeId],
        destinations: &[NodeId],
        data_mb: &[f64],
        max_hop: Option<usize>,
    ) -> CostMatrix {
        assert_eq!(sources.len(), data_mb.len(), "one D_i per source required");
        for &d in data_mb {
            assert!(d.is_finite() && d >= 0.0, "monitoring data volume must be >= 0, got {d}");
        }
        let _prof = self.obs.prof_scope("cost.build_matrix");
        let (rows, hits, misses) = self.rows_counted(g, sources, max_hop);
        if self.obs.is_enabled() {
            self.obs.counter_inc("cost.builds");
            self.obs.trace(TraceEvent::MatrixBuilt {
                rows: sources.len() as u32,
                hits: hits as u32,
                misses: misses as u32,
            });
        }
        // T_rmin of row r's pair with `dst`: offloading to yourself is free
        // (the role model never produces that pair), and a pair with no
        // path inside the bound costs INFINITY (or NaN, at no data) and is
        // left out. A row is read in chunks of destinations: each entry is
        // written to a small buffer and the write cursor advances only past
        // the finite ones, so no branch depends on the data; a chunk that
        // keeps nothing costs the matrix nothing.
        const CHUNK: usize = 64;
        let mut row_start = Vec::with_capacity(sources.len() + 1);
        // a power-of-two start keeps the doubling a push would do
        let (mut columns, mut t_rmin) = (Vec::with_capacity(CHUNK), Vec::with_capacity(CHUNK));
        let (mut chunk_cols, mut chunk_t) = ([0u32; CHUNK], [0.0f64; CHUNK]);
        row_start.push(0);
        for (r, (&src, row)) in sources.iter().zip(&rows).enumerate() {
            let d = data_mb[r];
            for (at, chunk) in destinations.chunks(CHUNK).enumerate() {
                let mut kept = 0;
                for (i, &dst) in chunk.iter().enumerate() {
                    let t = d * row[dst.index()];
                    let t = if src == dst { 0.0 } else { t };
                    chunk_cols[kept] = (at * CHUNK + i) as u32;
                    chunk_t[kept] = t;
                    kept += usize::from(t.is_finite());
                }
                if kept > 0 {
                    columns.extend_from_slice(&chunk_cols[..kept]);
                    t_rmin.extend_from_slice(&chunk_t[..kept]);
                }
            }
            row_start.push(columns.len() as u32);
        }
        CostMatrix {
            sources: sources.to_vec(),
            destinations: destinations.to_vec(),
            row_start,
            columns,
            t_rmin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Link;
    use crate::topologies::{example7, example7_roles, line};

    #[test]
    fn unreachable_is_infinite() {
        let g = line(4, Link::default());
        let m = CostMatrix::build(&g, &[NodeId(0)], &[NodeId(3)], &[10.0], Some(2));
        assert!(m.at(0, 0).is_infinite());
        assert!(!m.any_reachable());
    }

    #[test]
    fn cost_scales_linearly_with_data_volume() {
        let g = line(3, Link::default());
        let m1 = CostMatrix::build(&g, &[NodeId(0)], &[NodeId(2)], &[10.0], None);
        let m2 = CostMatrix::build(&g, &[NodeId(0)], &[NodeId(2)], &[20.0], None);
        assert!((m2.at(0, 0) / m1.at(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_pair_is_zero() {
        let g = line(3, Link::default());
        let m = CostMatrix::build(&g, &[NodeId(1)], &[NodeId(1)], &[5.0], None);
        assert_eq!(m.at(0, 0), 0.0);
    }

    #[test]
    fn row_access_matches_at() {
        let g = example7(Link::default());
        let (busy, cands) = example7_roles();
        let m = CostMatrix::build(&g, &[busy], &cands, &[50.0], None);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.cols(), 2);
        let (cols, t) = m.row(0);
        assert_eq!(cols, [0, 1]);
        assert_eq!(t[1], m.at(0, 1));
    }

    #[test]
    fn rows_list_exactly_the_pairs_within_the_bound() {
        // line 0-1-2-3-4-5: from node 0 at two hops, nodes 1 and 2 are
        // reachable and 3..5 are not; from node 4, nodes 2, 3 and 5
        let g = line(6, Link::default());
        let (src, dst) = ([NodeId(0), NodeId(4)], [NodeId(1), NodeId(2), NodeId(3), NodeId(5)]);
        let m = CostMatrix::build(&g, &src, &dst, &[10.0, 20.0], Some(2));
        assert_eq!(
            (m.row_start.as_slice(), m.columns.as_slice()),
            ([0, 2, 5].as_slice(), [0, 1, 1, 2, 3].as_slice())
        );
        assert!(m.t_rmin.iter().all(|t| t.is_finite()));
        let eng = CostEngine::with_threads(1);
        for (r, &s) in src.iter().enumerate() {
            let raw = &eng.rows(&g, &[s], Some(2))[0];
            for (c, &d) in dst.iter().enumerate() {
                let want = [10.0, 20.0][r] * raw[d.index()];
                assert_eq!(m.at(r, c).to_bits(), want.to_bits(), "{s:?} -> {d:?}");
            }
        }
        assert!(m.any_reachable());
    }

    #[test]
    #[should_panic(expected = "one D_i per source")]
    fn mismatched_data_len_rejected() {
        let g = line(3, Link::default());
        CostMatrix::build(&g, &[NodeId(0)], &[NodeId(2)], &[], None);
    }
}

#[cfg(test)]
mod engine_tests {
    use super::*;
    use crate::fattree::FatTree;
    use crate::graph::{EdgeId, Link};
    use crate::topologies::example7;

    fn fat_tree_instance() -> (Graph, Vec<NodeId>, Vec<NodeId>, Vec<f64>) {
        let ft = FatTree::with_default_links(4);
        let mut g = ft.graph.clone();
        g.retarget_utilization(|e, _| 0.1 + 0.8 * (e.index() % 7) as f64 / 7.0);
        let sources: Vec<NodeId> = (0..8).map(NodeId).collect();
        let destinations: Vec<NodeId> = (8..20).map(NodeId).collect();
        let data: Vec<f64> = (0..8).map(|i| 50.0 + 10.0 * i as f64).collect();
        (g, sources, destinations, data)
    }

    /// Drain `g`'s journal into one refresh of `eng`.
    fn refresh(eng: &CostEngine, g: &mut Graph) -> RefreshStats {
        let dirty = g.take_dirty();
        eng.refresh(g, dirty)
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_sequential() {
        let (g, src, dst, data) = fat_tree_instance();
        let seq = CostEngine::with_threads(1).build_matrix(&g, &src, &dst, &data, Some(6));
        for threads in [2, 3, 8] {
            let par =
                CostEngine::with_threads(threads).build_matrix(&g, &src, &dst, &data, Some(6));
            let a: Vec<u64> = seq.t_rmin.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = par.t_rmin.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "threads={threads}");
        }
    }

    #[test]
    fn rows_are_cached_across_builds() {
        let (g, src, dst, data) = fat_tree_instance();
        let eng = CostEngine::with_threads(4);
        assert_eq!(eng.cached_rows(), 0);
        let m1 = eng.build_matrix(&g, &src, &dst, &data, Some(6));
        assert_eq!(eng.cached_rows(), src.len());
        let m2 = eng.build_matrix(&g, &src, &dst, &data, Some(6));
        assert_eq!(eng.cached_rows(), src.len(), "second build must not price new rows");
        assert_eq!(m1.t_rmin, m2.t_rmin);
    }

    #[test]
    fn cached_rows_serve_any_data_volume() {
        let (g, src, dst, _) = fat_tree_instance();
        let eng = CostEngine::with_threads(1);
        let ones = vec![1.0; src.len()];
        let base = eng.build_matrix(&g, &src, &dst, &ones, Some(6));
        let n = eng.cached_rows();
        let doubled = eng.build_matrix(&g, &src, &dst, &vec![2.0; src.len()], Some(6));
        assert_eq!(eng.cached_rows(), n, "different D_i must reuse the same rows");
        for (a, b) in base.t_rmin.iter().zip(&doubled.t_rmin) {
            if a.is_finite() {
                assert!((b - 2.0 * a).abs() <= 1e-12 * (1.0 + a.abs()));
            }
        }
    }

    #[test]
    fn mutation_changes_epoch_and_invalidates() {
        let mut g = example7(Link::default());
        let eng = CostEngine::with_threads(1);
        let src = [NodeId(0)];
        let dst = [NodeId(1), NodeId(5)];
        let before = eng.build_matrix(&g, &src, &dst, &[100.0], None);
        let e0 = g.epoch();
        g.link_mut(EdgeId(0)).utilization = 0.05;
        assert_ne!(g.epoch(), e0, "mutation must move the epoch");
        let after = eng.build_matrix(&g, &src, &dst, &[100.0], None);
        assert_eq!(eng.cached_rows(), 2, "one row per epoch");
        assert!(after.at(0, 0) > before.at(0, 0), "slower link must raise the cost");
        // evicting dead epochs keeps only the live row
        eng.refresh(&g, None);
        assert_eq!(eng.cached_rows(), 1);
        let again = eng.build_matrix(&g, &src, &dst, &[100.0], None);
        assert_eq!(again.t_rmin, after.t_rmin);
        // told that everything is dirty, a refresh never migrates a row
        g.link_mut(EdgeId(0)).utilization = 0.9;
        let stats = eng.refresh(&g, None);
        assert!(stats.full && stats.migrated == 0, "{stats:?}");
        assert_eq!(eng.cached_rows(), 0);
    }

    #[test]
    fn clone_shares_epoch_until_mutated() {
        let g = example7(Link::default());
        let c = g.clone();
        assert_eq!(g.epoch(), c.epoch());
        let mut c2 = c.clone();
        c2.retarget_utilization(|_, _| 0.3);
        assert_ne!(c2.epoch(), g.epoch());
    }

    #[test]
    fn zero_threads_resolves_to_available_parallelism() {
        let eng = CostEngine::new();
        assert!(eng.threads() >= 1);
        assert_eq!(CostEngine::with_threads(5).threads(), 5);
    }

    #[test]
    fn obs_accounting_is_thread_count_invariant() {
        let (g, src, dst, data) = fat_tree_instance();
        let run = |threads: usize| {
            let obs = ObsHandle::recording(1);
            let eng = CostEngine::with_threads(threads).with_obs(obs.clone());
            eng.build_matrix(&g, &src, &dst, &data, Some(6));
            eng.build_matrix(&g, &src, &dst, &data, Some(6));
            let m = obs.metrics().unwrap();
            (
                m.counter("cost.cache_hits"),
                m.counter("cost.cache_misses"),
                m.counter("cost.rows_priced"),
                obs.digest().unwrap(),
            )
        };
        let seq = run(1);
        assert_eq!(seq.0, src.len() as u64, "second build must hit on every row");
        assert_eq!(seq.1, src.len() as u64, "first build must miss on every row");
        assert_eq!(seq.1, seq.2, "every miss prices exactly one row");
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn profile_scope_counts_are_thread_count_invariant() {
        let (g, src, dst, data) = fat_tree_instance();
        let run = |threads: usize| {
            let obs = ObsHandle::recording(1);
            obs.enable_profiling();
            let eng = CostEngine::with_threads(threads).with_obs(obs.clone());
            eng.build_matrix(&g, &src, &dst, &data, Some(6));
            let report = obs.profile_report().unwrap();
            report.lines().filter(|l| l.starts_with("count ")).map(String::from).collect::<Vec<_>>()
        };
        let seq = run(1);
        assert!(
            seq.iter().any(|l| l
                == &format!(
                    "count cost.build_matrix;cost.price_rows;cost.row_price {}",
                    src.len()
                )),
            "{seq:?}"
        );
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn refresh_migrates_far_rows_and_reprices_crossing_ones() {
        use crate::topologies::line;
        // line 0-1-2-...-7: mutate the 0-1 link; a 2-hop row from node 7
        // cannot see it, a 2-hop row from node 0 must re-price
        let mut g = line(8, Link::default());
        let obs = ObsHandle::recording(0);
        let eng = CostEngine::with_threads(1).with_obs(obs.clone());
        refresh(&eng, &mut g); // first refresh: establishes coherence (full)
        let src = [NodeId(0), NodeId(7)];
        let dst: Vec<NodeId> = (1..7).map(NodeId).collect();
        let data = [10.0, 10.0];
        eng.build_matrix(&g, &src, &dst, &data, Some(2));
        assert_eq!(eng.cached_rows(), 2);

        g.link_mut(EdgeId(0)).utilization = 0.95;
        let stats = refresh(&eng, &mut g);
        assert!(!stats.full);
        assert_eq!(stats.migrated, 1, "node 7's bounded row is provably clean");
        assert_eq!(stats.invalidated, 1, "node 0's row crosses the dirty link");
        assert_eq!(obs.counter("cost.rows_migrated"), 1);
        assert_eq!(obs.counter("cost.rows_invalidated"), 1);
        assert_eq!(obs.counter("cost.full_invalidations"), 1, "only the bootstrap refresh");

        // the incremental cache must answer bit-identically to a cold engine
        let inc = eng.build_matrix(&g, &src, &dst, &data, Some(2));
        let cold = CostEngine::with_threads(1).build_matrix(&g, &src, &dst, &data, Some(2));
        let a: Vec<u64> = inc.t_rmin.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = cold.t_rmin.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "migrated rows must be indistinguishable from re-priced ones");
        // and only the crossing row was re-priced
        assert_eq!(obs.counter("cost.cache_hits"), 1, "migrated row served from cache");
    }

    #[test]
    fn refresh_reprices_unbounded_rows_whenever_dirt_is_reachable() {
        use crate::topologies::line;
        let mut g = line(6, Link::default());
        let eng = CostEngine::with_threads(1);
        refresh(&eng, &mut g);
        let src = [NodeId(5)];
        let dst = [NodeId(0)];
        eng.build_matrix(&g, &src, &dst, &[10.0], None);
        let before = eng.build_matrix(&g, &src, &dst, &[10.0], None);
        g.link_mut(EdgeId(0)).utilization = 0.01;
        let stats = refresh(&eng, &mut g);
        assert_eq!(stats.migrated, 0, "an unbounded row sees every link");
        assert_eq!(stats.invalidated, 1);
        let after = eng.build_matrix(&g, &src, &dst, &[10.0], None);
        // Lu = capacity × utilization, Tr = D/Lu: a nearly idle link is a
        // nearly useless link in this model, so the cost must rise
        assert!(after.at(0, 0) > before.at(0, 0), "the mutation must actually show through");
    }

    #[test]
    fn refresh_falls_back_full_above_dirty_fraction() {
        use crate::topologies::line;
        let mut g = line(10, Link::default());
        let obs = ObsHandle::recording(0);
        let eng = CostEngine::with_threads(1).with_obs(obs.clone());
        refresh(&eng, &mut g);
        let src: Vec<NodeId> = (0..4).map(NodeId).collect();
        let dst = [NodeId(9)];
        eng.build_matrix(&g, &src, &dst, &[1.0; 4], Some(3));
        // touch 4 of 9 links: 44% dirty > MAX_DIRTY_FRACTION
        for e in 0..4 {
            g.link_mut(EdgeId(e)).utilization = 0.9;
        }
        let stats = refresh(&eng, &mut g);
        assert!(stats.full);
        assert_eq!(stats.migrated, 0);
        assert_eq!(stats.invalidated, 4);
        assert_eq!(eng.cached_rows(), 0);
        assert_eq!(obs.counter("cost.full_invalidations"), 2);
    }

    #[test]
    fn refresh_handles_structural_mutations_as_all_dirty() {
        use crate::topologies::line;
        let mut g = line(5, Link::default());
        let eng = CostEngine::with_threads(1);
        refresh(&eng, &mut g);
        let src = [NodeId(4)];
        eng.build_matrix(&g, &src, &[NodeId(0)], &[1.0], Some(2));
        // a new edge changes reachability: the bounded row from node 4
        // would be wrong to keep even though no *link state* was touched
        let n = g.add_node();
        g.add_edge(NodeId(0), n, Link::default());
        let stats = refresh(&eng, &mut g);
        assert!(stats.full);
        assert_eq!(eng.cached_rows(), 0);
    }

    #[test]
    fn refresh_with_no_mutations_keeps_everything() {
        use crate::topologies::line;
        let mut g = line(4, Link::default());
        let eng = CostEngine::with_threads(1);
        refresh(&eng, &mut g);
        eng.build_matrix(&g, &[NodeId(0)], &[NodeId(3)], &[1.0], None);
        let stats = refresh(&eng, &mut g);
        assert_eq!(stats, RefreshStats::default());
        assert_eq!(eng.cached_rows(), 1);
    }

    #[test]
    fn refresh_incremental_matches_full_invalidation_bit_for_bit() {
        // seeded drift sweep: after every targeted mutation, an engine
        // using incremental refresh and an always-cold engine must price
        // identical matrices
        //
        // `h` takes the same drift but refreshes the way the holder of a
        // shared graph does — ask the journal and drain only when there is
        // dirt — and must end every round with the same refresh outcome,
        // cache and prices
        let (mut g, src, dst, data) = fat_tree_instance();
        let mut h = g.clone();
        let inc = CostEngine::with_threads(1);
        let by_ref = CostEngine::with_threads(1);
        let refresh_by_ref = |h: &mut Graph| {
            let dirty = if h.journal_is_empty() { Some(Vec::new()) } else { h.take_dirty() };
            by_ref.refresh(h, dirty)
        };
        assert_eq!(refresh(&inc, &mut g), refresh_by_ref(&mut h));
        let mut state = 0x5EEDu64;
        let mut split = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..6 {
            for _ in 0..3 {
                let e = EdgeId((split() % g.edge_count() as u64) as u32);
                let u = 0.05 + 0.9 * (split() % 1000) as f64 / 1000.0;
                g.link_mut(e).utilization = u;
                h.link_mut(e).utilization = u;
            }
            // every other round refreshes twice: the second finds nothing
            for _ in 0..1 + round % 2 {
                assert_eq!(refresh(&inc, &mut g), refresh_by_ref(&mut h), "round {round}");
            }
            let a = inc.build_matrix(&g, &src, &dst, &data, Some(6));
            let b = by_ref.build_matrix(&h, &src, &dst, &data, Some(6));
            assert_eq!(inc.cached_rows(), by_ref.cached_rows(), "round {round}");
            let cold = CostEngine::with_threads(1).build_matrix(&g, &src, &dst, &data, Some(6));
            let x: Vec<u64> = a.t_rmin.iter().map(|v| v.to_bits()).collect();
            let y: Vec<u64> = cold.t_rmin.iter().map(|v| v.to_bits()).collect();
            let z: Vec<u64> = b.t_rmin.iter().map(|v| v.to_bits()).collect();
            assert_eq!(x, y, "round {round}");
            assert_eq!(x, z, "round {round}: by-reference refresh");
        }
    }

    #[test]
    fn enumerated_row_matches_per_destination_calls() {
        use crate::paths::{min_inv_lu_enumerated, min_inv_lu_enumerated_row};
        let mut g = example7(Link::default());
        let utils = [0.9, 0.1, 0.8, 0.7, 0.3, 0.6, 0.2];
        g.retarget_utilization(|e, _| utils[e.index()]);
        for bound in [Some(1), Some(2), Some(4), None] {
            let row = min_inv_lu_enumerated_row(&g, NodeId(0), bound);
            for v in g.nodes().skip(1) {
                let per = min_inv_lu_enumerated(&g, NodeId(0), v, bound)
                    .map_or(f64::INFINITY, |(c, _)| c);
                assert_eq!(row[v.index()].to_bits(), per.to_bits(), "dst {v} bound {bound:?}");
            }
        }
    }
}
