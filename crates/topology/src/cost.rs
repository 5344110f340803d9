//! `T_rmin` cost matrices between Busy nodes and Offload-candidates (Eq. 2).
//!
//! The placement LP needs, for every pair `(i ∈ V_b, j ∈ V_o)`, the minimum
//! response time over all paths within the hop bound. This module builds
//! that matrix with the hop-bounded DP, whose minimum is the enumerated
//! one bit for bit (see [`crate::paths`]), parameterized per source by the
//! monitoring data volume `D_i` in megabits.
//!
//! Rows and routes relax one arc list the [`CostEngine`] owns (the
//! [`crate::paths`] module docs have the kernel). A pricing call that
//! misses a row, or a [`CostEngine::route_scratch`], builds it unless it
//! is at the graph's epoch, so a round's routes relax the list its
//! pricing built. The end of the round's routes (dropping the
//! [`RouteScratch`]) keeps it only when the last refresh was incremental
//! and at its epoch, and frees it otherwise; an incremental refresh
//! patches a kept list's runs at both endpoints of each dirty link, and a
//! full refresh drops any list. So a churning Manager patches a few runs a
//! round, while a cold round or a one-shot caller builds it once and frees
//! it after its routes; a round without routes (a non-optimal LP) leaves
//! it for the next refresh. Building and patching are the `cost.arcs`
//! profile scope.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::{min_inv_lu_row_into, ArcList, DpScratch, RouteScratch, RowScratch};
use dust_obs::{ObsHandle, TraceEvent};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// The minimum response times (seconds) of the `|V_b| × |V_o|` pairs that
/// have a path inside the hop bound: Eq. 3 has a variable for those pairs
/// only. Each row lists its reachable columns in ascending order with their
/// `T_rmin`; a pair a row does not list has no path within the bound, and
/// the placement layer must not route between it.
///
/// [`CostEngine::build_matrix`] is the one door to a matrix; a one-shot
/// caller writes `CostEngine::with_threads(1).build_matrix(..)`.
#[derive(Debug, Clone)]
pub struct CostMatrix {
    /// Row `r`'s entries are `row_start[r]..row_start[r + 1]` of `columns`
    /// and `t_rmin`.
    pub row_start: Vec<u32>,
    /// The destination column of each entry, ascending within its row.
    pub columns: Vec<u32>,
    /// `T_rmin` of each entry in seconds, always finite.
    pub t_rmin: Vec<f64>,
}

impl CostMatrix {
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
}

/// Cache key for one priced row: graph epoch, source and hop bound
/// (`u64::MAX` encodes unbounded).
type RowKey = (u64, NodeId, u64);

fn hop_key(max_hop: Option<usize>) -> u64 {
    max_hop.map_or(u64::MAX, |h| h as u64)
}

/// A cached row, or the buffer a pricing job prices the row into.
type RowSlot = Result<Arc<Vec<f64>>, Vec<f64>>;

/// One pricing job: price every uncached slot of a chunk from its source
/// with the job's scratch. Returns the chunk's row count and the job's
/// elapsed nanoseconds, for the caller's profile; the job touches nothing
/// else it does not own.
fn price_chunk(
    arcs: Option<&ArcList>,
    max_hop: Option<usize>,
    ((slots, sources), scratch): ((&mut [RowSlot], &[NodeId]), &mut RowScratch),
) -> (usize, u64) {
    let start = Instant::now();
    for (slot, &src) in slots.iter_mut().zip(sources) {
        if let Err(row) = slot {
            let arcs = arcs.expect("a miss prices over the list the caller built");
            min_inv_lu_row_into(arcs, src, max_hop, row, scratch);
        }
    }
    (sources.len(), u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX))
}

/// Parallel, memoized `T_rmin` row provider — the single cost authority
/// behind every placement entry point.
///
/// Pricing a source means computing `min Σ 1/Lu_e` from it to *every*
/// node with the hop-bounded DP; [`CostEngine::rows`] is the one door to
/// a row. The per-source rows are independent, so a pricing call splits
/// its sources into one contiguous chunk per worker; each job fills the
/// row buffers of its own chunk, which the calling thread allocated, and
/// returns only its row count and elapsed time. The jobs share nothing
/// they write, and rows are merged in source order, so output is
/// byte-identical for any thread count.
///
/// Rows are cached keyed by `(graph epoch, source, hop bound)`.
/// The epoch ([`Graph::epoch`]) is reassigned on every graph mutation, so
/// a changed link utilization can never serve a stale row, while repeated
/// re-optimizations over an unchanged graph — `io_rate_sweep`, the
/// periodic re-solve loop — hit the cache instead of re-pricing. Cached
/// rows store `Σ 1/Lu_e` (not `T_rmin`), so one row serves every data
/// volume `D_i`.
///
/// An engine has one owner: pricing, refreshing and routing take
/// `&mut self`, and a clone carries a cache and an epoch of its own.
#[derive(Debug, Clone)]
pub struct CostEngine {
    /// Worker count, resolved once at construction: never 0.
    threads: usize,
    cache: HashMap<RowKey, Arc<Vec<f64>>>,
    obs: ObsHandle,
    /// Epoch of the last [`CostEngine::refresh`] snapshot: rows keyed here
    /// predate everything in the graph's dirty journal, so they are the
    /// ones eligible for migration at the next refresh. `0` = never
    /// refreshed (no epoch is ever handed out as 0).
    coherent_epoch: u64,
    /// The working memory of routes, kept from one round to the next.
    routes: DpScratch,
    /// Each pricing job's scratch, kept like `routes` and fitted to the
    /// graph at every pricing call.
    scratch: Vec<RowScratch>,
    /// The arc list rows and routes relax (the module docs have its life).
    arcs: Option<ArcList>,
    /// Whether the last refresh that changed the epoch was incremental, so
    /// the next one can patch the list instead of a pricing call building
    /// it anew.
    keep_arcs: bool,
    /// Arc lists built so far.
    #[cfg(test)]
    arc_builds: usize,
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
            cache: HashMap::new(),
            obs: ObsHandle::disabled(),
            coherent_epoch: 0,
            routes: DpScratch::default(),
            scratch: Vec::new(),
            arcs: None,
            keep_arcs: false,
            #[cfg(test)]
            arc_builds: 0,
        }
    }

    /// Attach an observability handle (builder form). Cache hit/miss
    /// accounting happens in a sequential pre-pass, and the pricing jobs
    /// never touch the handle: the calling thread records their totals
    /// once they have ended, so recording cannot perturb row-pricing
    /// determinism.
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

    /// The round's routes over `g`: the returned [`RouteScratch`] runs
    /// and backtracks over the engine's arc list at `g`'s epoch (the module
    /// docs have its life), in layers a previous round already grew. No
    /// run outlives the borrow.
    pub fn route_scratch(&mut self, g: &Graph) -> RouteScratch<'_> {
        let arcs = self.arcs_at(g);
        let arcs = if self.keep_arcs && self.coherent_epoch == g.epoch() {
            Cow::Borrowed(&*self.arcs.insert(arcs))
        } else {
            Cow::Owned(arcs)
        };
        RouteScratch::new(arcs, &mut self.routes)
    }

    /// The arc list at `g`'s epoch, taken out of the engine: the one it
    /// holds if that is at the epoch, else a new one.
    fn arcs_at(&mut self, g: &Graph) -> ArcList {
        match self.arcs.take() {
            Some(list) if list.epoch() == g.epoch() => list,
            _ => {
                let _arcs = self.obs.prof_scope("cost.arcs");
                #[cfg(test)]
                {
                    self.arc_builds += 1;
                }
                ArcList::build(g)
            }
        }
    }

    /// Number of rows currently cached (all epochs).
    pub fn cached_rows(&self) -> usize {
        self.cache.len()
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
    pub fn refresh(&mut self, g: &Graph, dirty: Option<Vec<EdgeId>>) -> RefreshStats {
        let _prof = self.obs.prof_scope("cost.refresh");
        let cur = g.epoch();
        let prev = std::mem::replace(&mut self.coherent_epoch, cur);
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
        // a list at `prev` is patched to `cur`; any other is dropped
        let arcs = self.arcs.take().filter(|l| !full && l.epoch() == prev);
        self.keep_arcs = !full;
        let cache = &mut self.cache;
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
            if let Some(mut list) = arcs {
                let _arcs = self.obs.prof_scope("cost.arcs");
                list.patch(g, d);
                self.arcs = Some(list);
            }
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
                let row = cache.remove(&key).expect("a listed key is cached");
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
    /// each job prices a contiguous chunk of the sources into slots only
    /// it holds, so the result — and everything assembled from it — is
    /// identical for any thread count. One source's cached row is
    /// `rows(g, &[src], ..)[0]`.
    pub fn rows(
        &mut self,
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
    /// order); the pricing jobs never touch the obs handle, so the trace
    /// is identical for every thread count.
    fn rows_counted(
        &mut self,
        g: &Graph,
        sources: &[NodeId],
        max_hop: Option<usize>,
    ) -> (Vec<Arc<Vec<f64>>>, u64, u64) {
        let _prof = self.obs.prof_scope("cost.price_rows");
        // each job prices one contiguous chunk of the slots with a kept
        // scratch: at most one job a thread, and at least one scratch
        let pricers = self.threads().min(sources.len()).max(1);
        let per = sources.len().div_ceil(pricers).max(1);
        let jobs = sources.len().div_ceil(per);
        // Everything the pricing allocates is allocated here, on the
        // calling thread and in source order: a buffer per uncached row,
        // the room a kept job scratch lacks, the cache entries. Jobs only
        // fill buffers, so the heap a round leaves behind does not depend
        // on which thread priced which row. A buffer is allocated with
        // room for its row, not filled: the row kernel writes every entry.
        // The arc list the rows relax is built here too.
        let n = g.node_count();
        let key = |src: NodeId| -> RowKey { (g.epoch(), src, hop_key(max_hop)) };
        let mut slots: Vec<RowSlot> = {
            let _probe = self.obs.prof_scope("cost.cache_probe");
            sources
                .iter()
                .map(|&src| match self.cache.get(&key(src)) {
                    Some(row) => Ok(Arc::clone(row)),
                    None => Err(Vec::with_capacity(n)),
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
            self.obs.gauge_set("cost.workers", jobs.max(1) as f64);
        }
        if slots.iter().any(Result::is_err) {
            self.arcs = Some(self.arcs_at(g));
        }
        if self.scratch.len() < pricers {
            self.scratch.resize_with(pricers, RowScratch::default);
        }
        let scratch = &mut self.scratch[..pricers];
        scratch.iter_mut().for_each(|s| s.fit(n));
        let (arcs, obs) = (self.arcs.as_ref(), &self.obs);
        // the jobs' totals, so `cost.row_price` counts every source once
        // for any thread count
        let record = |(rows, ns): (usize, u64)| obs.prof_add("cost.row_price", rows as u64, ns);
        let chunks = slots.chunks_mut(per).zip(sources.chunks(per)).zip(scratch);
        // one chunk is priced here; several on as many scoped threads,
        // while this one waits
        if jobs <= 1 {
            chunks.for_each(|job| record(price_chunk(arcs, max_hop, job)));
        } else {
            // each job writes its totals to a slot of its own; the scope
            // ends as the last job returns, so no thread's exit is waited
            // for (a `join` would wait for it)
            let mut totals = vec![(0, 0); jobs];
            std::thread::scope(|s| {
                for (job, total) in chunks.zip(&mut totals) {
                    s.spawn(move || *total = price_chunk(arcs, max_hop, job));
                }
            });
            totals.into_iter().for_each(record);
        }
        let cache = &mut self.cache;
        let rows = slots
            .into_iter()
            .zip(sources)
            .map(|(slot, &src)| match slot {
                Ok(row) => row,
                // a source listed twice keeps its first row, as a second
                // lookup would have hit it
                Err(row) => Arc::clone(cache.entry(key(src)).or_insert(Arc::new(row))),
            })
            .collect();
        (rows, hits, misses)
    }

    /// Build the `T_rmin` matrix (Eq. 2): row `r` is
    /// `data_mb[r] · Σ 1/Lu_e` from `sources[r]` to each destination it
    /// reaches inside the bound, `0` on the diagonal; the pairs with no path
    /// inside the bound are left out.
    ///
    /// Rows are priced in parallel, one contiguous chunk of `sources` per
    /// job and at most [`CostEngine::threads`] jobs, and merged in row
    /// order — output is identical for every thread count.
    ///
    /// # Panics
    /// Panics if `data_mb.len() != sources.len()` or any volume is
    /// negative or non-finite.
    pub fn build_matrix(
        &mut self,
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
        CostMatrix { row_start, columns, t_rmin }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Link;
    use crate::topologies::{example7, example7_roles, line};

    /// A matrix from a fresh sequential engine.
    fn build(
        g: &Graph,
        sources: &[NodeId],
        destinations: &[NodeId],
        data_mb: &[f64],
        max_hop: Option<usize>,
    ) -> CostMatrix {
        CostEngine::with_threads(1).build_matrix(g, sources, destinations, data_mb, max_hop)
    }

    #[test]
    fn unreachable_is_infinite() {
        let g = line(4, Link::default());
        let m = build(&g, &[NodeId(0)], &[NodeId(3)], &[10.0], Some(2));
        assert!(m.at(0, 0).is_infinite());
        assert!(m.t_rmin.is_empty(), "no pair is reachable");
    }

    #[test]
    fn cost_scales_linearly_with_data_volume() {
        let g = line(3, Link::default());
        let m1 = build(&g, &[NodeId(0)], &[NodeId(2)], &[10.0], None);
        let m2 = build(&g, &[NodeId(0)], &[NodeId(2)], &[20.0], None);
        assert!((m2.at(0, 0) / m1.at(0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_pair_is_zero() {
        let g = line(3, Link::default());
        let m = build(&g, &[NodeId(1)], &[NodeId(1)], &[5.0], None);
        assert_eq!(m.at(0, 0), 0.0);
    }

    #[test]
    fn row_access_matches_at() {
        let g = example7(Link::default());
        let (busy, cands) = example7_roles();
        let m = build(&g, &[busy], &cands, &[50.0], None);
        assert_eq!(m.row_start, [0, 2], "one row, both columns reachable");
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
        let m = build(&g, &src, &dst, &[10.0, 20.0], Some(2));
        assert_eq!(
            (m.row_start.as_slice(), m.columns.as_slice()),
            ([0, 2, 5].as_slice(), [0, 1, 1, 2, 3].as_slice())
        );
        assert!(m.t_rmin.iter().all(|t| t.is_finite()));
        let mut eng = CostEngine::with_threads(1);
        for (r, &s) in src.iter().enumerate() {
            let raw = &eng.rows(&g, &[s], Some(2))[0];
            for (c, &d) in dst.iter().enumerate() {
                let want = [10.0, 20.0][r] * raw[d.index()];
                assert_eq!(m.at(r, c).to_bits(), want.to_bits(), "{s:?} -> {d:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one D_i per source")]
    fn mismatched_data_len_rejected() {
        let g = line(3, Link::default());
        build(&g, &[NodeId(0)], &[NodeId(2)], &[], None);
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
    fn refresh(eng: &mut CostEngine, g: &mut Graph) -> RefreshStats {
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
        let mut eng = CostEngine::with_threads(4);
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
        let mut eng = CostEngine::with_threads(1);
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
        let mut eng = CostEngine::with_threads(1);
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
            let mut eng = CostEngine::with_threads(threads).with_obs(obs.clone());
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
            let mut eng = CostEngine::with_threads(threads).with_obs(obs.clone());
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
        let mut eng = CostEngine::with_threads(1).with_obs(obs.clone());
        refresh(&mut eng, &mut g); // first refresh: establishes coherence (full)
        let src = [NodeId(0), NodeId(7)];
        let dst: Vec<NodeId> = (1..7).map(NodeId).collect();
        let data = [10.0, 10.0];
        eng.build_matrix(&g, &src, &dst, &data, Some(2));
        assert_eq!(eng.cached_rows(), 2);

        g.link_mut(EdgeId(0)).utilization = 0.95;
        let stats = refresh(&mut eng, &mut g);
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
        let mut eng = CostEngine::with_threads(1);
        refresh(&mut eng, &mut g);
        let src = [NodeId(5)];
        let dst = [NodeId(0)];
        eng.build_matrix(&g, &src, &dst, &[10.0], None);
        let before = eng.build_matrix(&g, &src, &dst, &[10.0], None);
        g.link_mut(EdgeId(0)).utilization = 0.01;
        let stats = refresh(&mut eng, &mut g);
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
        let mut eng = CostEngine::with_threads(1).with_obs(obs.clone());
        refresh(&mut eng, &mut g);
        let src: Vec<NodeId> = (0..4).map(NodeId).collect();
        let dst = [NodeId(9)];
        eng.build_matrix(&g, &src, &dst, &[1.0; 4], Some(3));
        // touch 4 of 9 links: 44% dirty > MAX_DIRTY_FRACTION
        for e in 0..4 {
            g.link_mut(EdgeId(e)).utilization = 0.9;
        }
        let stats = refresh(&mut eng, &mut g);
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
        let mut eng = CostEngine::with_threads(1);
        refresh(&mut eng, &mut g);
        let src = [NodeId(4)];
        eng.build_matrix(&g, &src, &[NodeId(0)], &[1.0], Some(2));
        // a new edge changes reachability: the bounded row from node 4
        // would be wrong to keep even though no *link state* was touched
        let n = g.add_node();
        g.add_edge(NodeId(0), n, Link::default());
        let stats = refresh(&mut eng, &mut g);
        assert!(stats.full);
        assert_eq!(eng.cached_rows(), 0);
    }

    #[test]
    fn refresh_with_no_mutations_keeps_everything() {
        use crate::topologies::line;
        let mut g = line(4, Link::default());
        let mut eng = CostEngine::with_threads(1);
        refresh(&mut eng, &mut g);
        eng.build_matrix(&g, &[NodeId(0)], &[NodeId(3)], &[1.0], None);
        let stats = refresh(&mut eng, &mut g);
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
        let mut inc = CostEngine::with_threads(1);
        let mut by_ref = CostEngine::with_threads(1);
        let refresh_by_ref = |by_ref: &mut CostEngine, h: &mut Graph| {
            let dirty = if h.journal_is_empty() { Some(Vec::new()) } else { h.take_dirty() };
            by_ref.refresh(h, dirty)
        };
        assert_eq!(refresh(&mut inc, &mut g), refresh_by_ref(&mut by_ref, &mut h));
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
                let by_ref_stats = refresh_by_ref(&mut by_ref, &mut h);
                assert_eq!(refresh(&mut inc, &mut g), by_ref_stats, "round {round}");
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

    /// Every row `eng` prices for `sources` on `g` holds the bits a fresh
    /// engine's does.
    fn assert_fresh(eng: &mut CostEngine, g: &Graph, sources: &[NodeId], max_hop: Option<usize>) {
        let bits = |rows: Vec<Arc<Vec<f64>>>| {
            rows.iter().map(|r| r.iter().map(|c| c.to_bits()).collect()).collect::<Vec<Vec<_>>>()
        };
        let want = CostEngine::with_threads(1).rows(g, sources, max_hop);
        assert_eq!(bits(eng.rows(g, sources, max_hop)), bits(want), "{max_hop:?}");
    }

    /// Every route `eng` extracts on `g` from `src` to each of `dests` —
    /// cost bits, nodes and edges — is a fresh engine's.
    fn assert_fresh_routes(
        eng: &mut CostEngine,
        g: &Graph,
        src: NodeId,
        dests: &[NodeId],
        max_hop: Option<usize>,
    ) {
        let routes = |eng: &mut CostEngine| {
            let mut scratch = eng.route_scratch(g);
            scratch.run_to(src, dests, max_hop);
            let route = |&dst: &NodeId| scratch.route_to(dst).map(|(c, p)| (c.to_bits(), p));
            dests.iter().map(route).collect::<Vec<_>>()
        };
        let want = routes(&mut CostEngine::with_threads(1));
        assert_eq!(routes(eng), want, "{src:?} -> {dests:?} {max_hop:?}");
    }

    /// The list's life over 60 seeded rounds of drift, re-draws and
    /// structural changes, each priced and then routed: a full refresh
    /// drops it and the round builds one, which its pricing and its routes
    /// share and its routes free; an incremental refresh patches a held
    /// list, which the round prices and routes over and keeps. Every row
    /// and every route is a fresh engine's, bit for bit.
    #[test]
    fn the_arc_list_is_patched_by_incremental_refreshes_and_dropped_otherwise() {
        use crate::SplitMix64;
        let ft = FatTree::with_default_links(4);
        let mut g = ft.graph.clone();
        g.retarget_utilization(|e, _| 0.1 + 0.8 * (e.index() % 7) as f64 / 7.0);
        let all: Vec<NodeId> = g.nodes().collect();
        let mut rng = SplitMix64::new(0xA2C5);
        // a one-shot caller builds one list for its pricing and its routes
        // and holds none after its routes
        let mut once = CostEngine::with_threads(1);
        once.build_matrix(&g, &all[..4], &all[4..], &[1.0; 4], Some(2));
        assert_fresh_routes(&mut once, &g, all[0], &all[4..9], Some(2));
        assert_eq!((once.arc_builds, once.arcs.is_none()), (1, true));
        let mut eng = CostEngine::with_threads(2);
        let mut clones = 0;
        for round in 0..60 {
            let max_hop = [Some(1), Some(2), Some(3), None][rng.below(4) as usize];
            match rng.below(10) {
                // a structural change or a wholesale re-draw: a full refresh
                0 => {
                    let (a, b) = (rng.below(20) as u32, 1 + rng.below(19) as u32);
                    g.add_edge(NodeId(a), NodeId((a + b) % 20), Link::new(10_000.0, 0.3));
                }
                1 => g.retarget_utilization(|_, _| rng.range_f64(0.05, 0.95)),
                // 1–3 links drift: an incremental refresh
                _ => {
                    for _ in 0..1 + rng.below(3) {
                        let e = EdgeId(rng.below(g.edge_count() as u64) as u32);
                        g.link_mut(e).utilization = rng.range_f64(0.05, 0.95);
                    }
                }
            }
            let src = all[rng.below(20) as usize];
            let dests: Vec<NodeId> =
                (0..1 + rng.below(4)).map(|_| all[rng.below(20) as usize]).collect();
            if rng.below(5) == 0 {
                // an epoch no refresh reached: the list is built for the
                // pricing, shared by the routes and freed after them
                let builds = eng.arc_builds;
                assert_fresh(&mut eng, &g, &all[..7], max_hop);
                assert_fresh_routes(&mut eng, &g, src, &dests, max_hop);
                assert_eq!((eng.arc_builds, eng.arcs.is_none()), (builds + 1, true), "{round}");
            }
            let held = eng.arcs.as_ref().map(ArcList::epoch) == Some(eng.coherent_epoch);
            let builds = eng.arc_builds;
            let stats = refresh(&mut eng, &mut g);
            if stats.full {
                assert!(eng.arcs.is_none(), "round {round}: a full refresh drops the list");
            } else {
                assert_eq!(eng.arcs.is_some(), held, "round {round}: a held list is patched");
            }
            assert_eq!(eng.arc_builds, builds, "round {round}: a refresh builds nothing");
            let key = |src: NodeId| (g.epoch(), src, hop_key(max_hop));
            let missed = all.iter().any(|&src| !eng.cache.contains_key(&key(src)));
            let patched = held && !stats.full;
            assert_fresh(&mut eng, &g, &all, max_hop);
            let built = usize::from(missed && !patched);
            assert_eq!(eng.arc_builds, builds + built, "round {round}: {stats:?}");
            assert_eq!(eng.arcs.is_some(), patched || missed, "round {round}: {stats:?}");
            // the routes relax the list the pricing left, or build one
            assert_fresh_routes(&mut eng, &g, src, &dests, max_hop);
            assert_eq!(eng.arc_builds, builds + usize::from(!patched), "round {round}");
            let kept = !stats.full;
            assert_eq!(eng.arcs.is_some(), kept, "round {round}: {stats:?}");
            if kept && rng.below(3) == 0 {
                // a clone patches, prices and routes with its own copy
                clones += 1;
                let (mut twin, mut h) = (eng.clone(), g.clone());
                h.link_mut(EdgeId(0)).utilization = rng.range_f64(0.05, 0.95);
                assert!(!refresh(&mut twin, &mut h).full);
                assert_fresh(&mut twin, &h, &all, max_hop);
                assert_fresh_routes(&mut twin, &h, src, &dests, max_hop);
                assert_eq!(twin.arc_builds, eng.arc_builds, "round {round}: the clone patched");
                assert_eq!(eng.arcs.as_ref().map(ArcList::epoch), Some(g.epoch()));
                assert_fresh(&mut eng, &g, &all, Some(2));
                assert_fresh_routes(&mut eng, &g, src, &dests, Some(2));
                assert_eq!(twin.arc_builds, eng.arc_builds, "round {round}: the list was kept");
            }
        }
        assert!(clones > 0);
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
