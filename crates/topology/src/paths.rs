//! Bounded path enumeration and hop-constrained minimum-cost routing.
//!
//! The paper evaluates `Tr_{i,j}` over *all* feasible paths up to a
//! `max-hop` bound and takes the minimum (Eq. 1–2), and finds it by
//! enumerating the paths (§IV-D). Pricing and routing compute the same
//! minimum with one engine, a hop-bounded Bellman–Ford dynamic program,
//! in `O(max_hop · |E|)`: because edge costs `1/Lu_e` are strictly
//! positive, a minimum-cost walk never revisits a node, so the DP optimum
//! equals the simple-path optimum, bit for bit (ablation 1 in DESIGN.md).
//! Each path job has one door:
//!
//! * a source's row of minima to every node is
//!   [`CostEngine::rows`](crate::CostEngine::rows);
//! * a pair's cost or route is a
//!   [`CostEngine::route_scratch`](crate::CostEngine::route_scratch):
//!   [`RouteScratch::run_to`](crate::RouteScratch::run_to), then
//!   [`cost_to`](crate::RouteScratch::cost_to) or
//!   [`route_to`](crate::RouteScratch::route_to);
//! * enumeration is [`for_each_simple_path`], one pair's optimal
//!   enumerated route is [`min_inv_lu_enumerated`], and one source's
//!   enumerated row is [`min_inv_lu_enumerated_row`].
//!
//! The enumerator survives as the oracle the DP is checked against and as
//! the figure harness's model of the paper's enumeration cost, which
//! explodes with `max-hop` exactly like the computation-time curves of
//! Figs. 8 and 10. [`for_each_simple_path`] and the enumerated row are one
//! depth-first walk, `walk_simple_paths`, with two visitors: one stops at
//! the destination and reports the path, the other lowers every node's
//! minimum.
//!
//! Per-edge cost is the *inverse utilized bandwidth* `1/Lu_e` (seconds per
//! megabit); multiplying by the monitoring data volume `D_i` yields the
//! paper's response time `Tr = Σ_e D_i / Lu_e`.
//!
//! # One kernel over a packed arc list
//!
//! Rows and routes run one hop-layer kernel, `relax_hop_layers`, over an
//! `ArcList`: per node, one run of `(far end: u32, edge id: u32,
//! 1/Lu_e: f64)` arcs in [`Graph::incident`] order, 16 B an arc, two arcs
//! an edge, so a relaxation reads one arc, not an edge record and a
//! division. A layer lowers the row in place, relaxing from a copy of its
//! frontier's distances as the previous layer left them: every entry takes
//! the minimum of the same sums in the same order as a two-buffer layer,
//! so rows and routes are the graph walk's bits. The last layer feeds no
//! frontier and lowers its entries with a select. A row keeps its last
//! layer; a route run hands each layer to a hook that copies it out, and
//! its backtrack reads the same arc runs, taking each step's edge id from
//! the arc. The [`crate::cost`] module docs give the list's life.
//!
//! # Routes cost the cones they cross
//!
//! A route extraction knows its destinations before it runs: the busy
//! row's shipped columns, a re-home's new hosts, a replica. Under a hop
//! bound `H`, [`RouteScratch::run_to`] therefore relaxes, at
//! layer `j`, only into the nodes within `H − j` hops of one of those
//! destinations (a BFS of depth `H − 1` from them over the arc runs finds
//! each node's last such layer), and keeps only them. That loses nothing
//! a route reads:
//!
//! * A node `b` within `H − j` hops of a destination has every neighbour
//!   within `H − j + 1` hops, so each neighbour was kept at layer
//!   `j − 1`; by induction `b`'s layer-`j` value is exactly the unpruned
//!   one. A neighbour the frontier skips did not move, exactly as in the
//!   unpruned DP.
//! * Backtracking from destination `d` at layer `h` reads layers `h` and
//!   `h − 1` of nodes within `final − h + 1` hops of `d`: all kept, and
//!   exact. Layer 0 is not read at all: it is 0 at the source and ∞
//!   elsewhere.
//! * A pruned run may stop at an earlier layer than an unpruned one, and a
//!   run that reaches its bound keeps its last layer even when it moved
//!   nothing, but `d`'s value is flat across the layers in between, so the
//!   "shorten" steps reach the same `(h, d)` and the same predecessor wins
//!   every tie.
//!
//! Every route and every cost bit is the unpruned DP's. Without a hop
//! bound nothing is pruned.

use crate::graph::{EdgeId, Graph, Link, NodeId};
use std::borrow::Cow;

/// A simple path: node sequence plus the edges traversed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// Visited nodes, starting at the source and ending at the destination.
    pub nodes: Vec<NodeId>,
    /// Edges traversed; `edges.len() == nodes.len() - 1`.
    pub edges: Vec<EdgeId>,
}

impl Path {
    /// Hop count (number of edges).
    #[inline]
    pub fn hops(&self) -> usize {
        self.edges.len()
    }

    /// Sum of `1/Lu_e` over the path's edges, in seconds per Mb.
    pub fn inv_lu(&self, g: &Graph) -> f64 {
        self.edges.iter().map(|&e| inv_lu_edge(g, e)).sum()
    }
}

/// Cost of one edge: `1/Lu_e`. An idle link (`Lu = 0`) carries no data-plane
/// traffic in the paper's model; we treat it as infinitely slow so it never
/// wins the minimum (matching Eq. 1, where `Lu` is the denominator).
#[inline]
pub fn inv_lu_edge(g: &Graph, e: EdgeId) -> f64 {
    inv_lu(&g.edge(e).link)
}

/// [`inv_lu_edge`] of a link already in hand, so a kernel that read an
/// edge's record for its far end prices it from the same load.
#[inline]
fn inv_lu(link: &Link) -> f64 {
    let lu = link.lu();
    if lu > 0.0 {
        1.0 / lu
    } else {
        f64::INFINITY
    }
}

/// Visit every simple path from `src` to `dst` with at most `max_hop` edges
/// (`None` = unbounded). The visitor receives the node sequence, edge
/// sequence, and the accumulated `Σ 1/Lu_e` of the path.
///
/// This is a depth-first enumeration whose work grows combinatorially with
/// `max_hop` — deliberately so, as it reproduces the paper's optimization
/// cost model (§IV-D complexity analysis).
pub fn for_each_simple_path<F>(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    max_hop: Option<usize>,
    mut f: F,
) where
    F: FnMut(&[NodeId], &[EdgeId], f64),
{
    if src == dst {
        return;
    }
    let (mut nodes, mut edges) = (Vec::new(), Vec::new());
    walk_simple_paths(g, src, max_hop, |w, cost, frames| {
        if w != dst {
            return true;
        }
        nodes.clear();
        edges.clear();
        for &(v, next) in frames {
            nodes.push(v);
            edges.push(g.incident(v)[next - 1]);
        }
        nodes.push(w);
        f(&nodes, &edges, cost);
        false
    });
}

/// Minimum `Σ 1/Lu_e` over all simple paths within `max_hop` hops, found by
/// exhaustive enumeration; returns the optimal path too. `None` if `dst` is
/// unreachable within the bound.
pub fn min_inv_lu_enumerated(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    max_hop: Option<usize>,
) -> Option<(f64, Path)> {
    let mut best: Option<(f64, Path)> = None;
    for_each_simple_path(g, src, dst, max_hop, |nodes, edges, cost| {
        let better = match &best {
            Some((c, _)) => cost < *c,
            None => true,
        };
        if better {
            best = Some((cost, Path { nodes: nodes.to_vec(), edges: edges.to_vec() }));
        }
    });
    best
}

/// One arc of an [`ArcList`]: the far end of an edge seen from the node
/// whose run holds it, the edge's id, and its cost `1/Lu_e`
/// ([`inv_lu_edge`]). Sixteen bytes: four arcs a cache line.
#[derive(Debug, Clone, Copy)]
struct OutArc {
    to: u32,
    edge: u32,
    inv_lu: f64,
}

/// A graph's edges packed for the DP: per node, one contiguous run of
/// [`OutArc`]s in [`Graph::incident`] order, two arcs an edge. It prices
/// the graph at one epoch ([`Graph::epoch`]).
/// [`ArcList::patch`] re-prices the runs a link drift reaches; a
/// structural change needs a new list.
#[derive(Debug, Clone)]
pub(crate) struct ArcList {
    epoch: u64,
    /// Node `v`'s run is `arcs[start[v]..start[v + 1]]`.
    start: Vec<u32>,
    arcs: Vec<OutArc>,
}

impl ArcList {
    /// The list of `g` at its epoch, allocated at its exact size: `n + 1`
    /// starts and `2 · |E|` arcs.
    pub(crate) fn build(g: &Graph) -> ArcList {
        let mut start = Vec::with_capacity(g.node_count() + 1);
        let mut arcs = Vec::with_capacity(2 * g.edge_count());
        start.push(0);
        for v in g.nodes() {
            arcs.extend(g.incident(v).iter().map(|&e| {
                let edge = g.edge(e);
                OutArc { to: edge.other(v).0, edge: e.0, inv_lu: inv_lu(&edge.link) }
            }));
            start.push(u32::try_from(arcs.len()).expect("more than u32::MAX arcs"));
        }
        ArcList { epoch: g.epoch(), start, arcs }
    }

    /// The graph epoch the list prices.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Bring the list to `g`'s epoch after the links in `dirty` drifted:
    /// both endpoints' runs are re-priced, each arc from its edge's record.
    /// `g` must have the adjacency the list was built from — only link
    /// state changed since.
    pub(crate) fn patch(&mut self, g: &Graph, dirty: &[EdgeId]) {
        for &e in dirty {
            let edge = g.edge(e);
            for v in [edge.a, edge.b] {
                let run = self.start[v.index()] as usize..self.start[v.index() + 1] as usize;
                for arc in &mut self.arcs[run] {
                    arc.inv_lu = inv_lu(&g.edge(EdgeId(arc.edge)).link);
                }
            }
        }
        self.epoch = g.epoch();
    }

    fn node_count(&self) -> usize {
        self.start.len() - 1
    }

    #[inline(always)]
    fn run(&self, v: NodeId) -> &[OutArc] {
        &self.arcs[self.start[v.index()] as usize..self.start[v.index() + 1] as usize]
    }
}

/// The working memory of the hop-layer kernel, [`relax_hop_layers`],
/// fitted up front to a graph's node count ([`RowScratch::fit`]), so a
/// pricing job fills rows without allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowScratch {
    /// The frontier's distances as the layer found them.
    from: Vec<f64>,
    frontier: Vec<NodeId>,
    moved: Vec<NodeId>,
    /// Per node, the stamp of the last layer it moved in.
    marks: Vec<u32>,
    /// The current layer's stamp: no mark holds it until the layer writes
    /// it (the marks are cleared when the stamps wrap).
    stamp: u32,
    /// Relaxations made by every run so far.
    #[cfg(test)]
    relaxed: usize,
}

impl RowScratch {
    /// Make room for every row priced on an `n`-node graph, growing only
    /// what is short: a DP frontier holds each node at most once.
    pub(crate) fn fit(&mut self, n: usize) {
        for list in [&mut self.frontier, &mut self.moved] {
            list.clear();
            list.reserve(n);
        }
        self.from.clear();
        self.from.reserve(n);
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
    }
}

/// The one depth-first walk over the simple paths from `src` with at most
/// `max_hop` edges, neighbours in adjacency order. Each step to an
/// unvisited neighbour `w` calls `visit(w, cost, frames)`: `cost` is the
/// path's `Σ 1/Lu_e` summed from `src` outwards, and `frames` is the path
/// up to `w`'s predecessor, each node with the index one past the edge
/// the path left it by in [`Graph::incident`]. `visit` returns whether to
/// extend the path past `w`; a path at the hop bound is never extended.
fn walk_simple_paths(
    g: &Graph,
    src: NodeId,
    max_hop: Option<usize>,
    mut visit: impl FnMut(NodeId, f64, &[(NodeId, usize)]) -> bool,
) {
    let bound = max_hop.unwrap_or(usize::MAX);
    if bound == 0 {
        return;
    }
    let mut visited = vec![false; g.node_count()];
    let mut cost_stack = vec![0.0];
    let mut frames = vec![(src, 0)];
    visited[src.index()] = true;
    while let Some(&mut (v, ref mut next)) = frames.last_mut() {
        let Some(&e) = g.incident(v).get(*next) else {
            frames.pop();
            visited[v.index()] = false;
            cost_stack.pop();
            continue;
        };
        *next += 1;
        let edge = g.edge(e);
        let w = edge.other(v);
        if visited[w.index()] {
            continue;
        }
        let cost = cost_stack.last().unwrap() + inv_lu(&edge.link);
        if !visit(w, cost, &frames) || frames.len() >= bound {
            continue;
        }
        visited[w.index()] = true;
        cost_stack.push(cost);
        frames.push((w, 0));
    }
}

/// Minimum `Σ 1/Lu_e` from `src` to *every* node within `max_hop` hops by
/// exhaustive simple-path enumeration, one entry per node: `f64::INFINITY`
/// where a node is unreachable within the bound, `0.0` at `src`.
///
/// One DFS prices the whole row: every simple path from `src` appears as a
/// stack prefix exactly once, so each destination sees the same path set —
/// and therefore bit-identical minima — as a per-destination
/// [`min_inv_lu_enumerated`] call, at a fraction of the work. Nothing in
/// the product prices with it: it is the oracle the DP row is checked
/// against, and the enumeration the figure harness times.
pub fn min_inv_lu_enumerated_row(g: &Graph, src: NodeId, max_hop: Option<usize>) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; g.node_count()];
    dist[src.index()] = 0.0;
    walk_simple_paths(g, src, max_hop, |w, cost, _| {
        if cost < dist[w.index()] {
            dist[w.index()] = cost;
        }
        true
    });
    dist
}

/// The hop bound a DP over `n` nodes runs to: `max_hop`, or `n − 1` when
/// unbounded (enough for any simple path), and never more.
fn layer_bound(max_hop: Option<usize>, n: usize) -> usize {
    max_hop.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1))
}

/// The one hop-layer kernel of the Bellman–Ford DP, for rows and routes
/// alike (the module docs have its layer): out of `src`, `bound` layers
/// over `arcs`, lowering `dist` in place, working in `scratch`. `dist`
/// enters at 0 for `src` and ∞ for every node `into` admits; layer `h`
/// relaxes only into the nodes `b` with `into(b, h)`, which admits no node
/// it refused at an earlier layer. Each layer relaxes only out of the
/// nodes the previous one lowered: a node that did not move offers the
/// sums it offered before. After each layer that can have moved a node,
/// `layer(h, dist)` sees the row; returns the last such layer, `0` when
/// none ran.
#[inline(always)]
fn relax_hop_layers(
    arcs: &ArcList,
    src: NodeId,
    bound: usize,
    dist: &mut [f64],
    scratch: &mut RowScratch,
    into: impl Fn(usize, usize) -> bool,
    mut layer: impl FnMut(usize, &[f64]),
) -> usize {
    let n = arcs.node_count();
    #[cfg(test)]
    let mut relaxed = 0;
    let RowScratch { from, frontier, moved, marks, stamp, .. } = scratch;
    if marks.len() < n {
        marks.resize(n, 0);
    }
    frontier.clear();
    frontier.push(src);
    let mut last = 0;
    for h in 1..=bound {
        from.clear();
        from.extend(frontier.iter().map(|a| dist[a.index()]));
        if h == bound {
            for (&a, &from) in frontier.iter().zip(from.iter()) {
                for arc in arcs.run(a) {
                    let b = arc.to as usize;
                    if !into(b, h) {
                        continue;
                    }
                    #[cfg(test)]
                    {
                        relaxed += 1;
                    }
                    let (through, so_far) = (from + arc.inv_lu, dist[b]);
                    dist[b] = if through < so_far { through } else { so_far };
                }
            }
            layer(h, dist);
            last = h;
            break;
        }
        if *stamp == u32::MAX {
            marks.fill(0);
            *stamp = 0;
        }
        *stamp += 1;
        moved.clear();
        for (&a, &from) in frontier.iter().zip(from.iter()) {
            for arc in arcs.run(a) {
                let b = arc.to as usize;
                if !into(b, h) {
                    continue;
                }
                #[cfg(test)]
                {
                    relaxed += 1;
                }
                let through = from + arc.inv_lu;
                if through < dist[b] {
                    if marks[b] != *stamp {
                        marks[b] = *stamp; // b's first drop in this layer
                        moved.push(NodeId(arc.to));
                    }
                    dist[b] = through;
                }
            }
        }
        if moved.is_empty() {
            break; // diameter reached
        }
        layer(h, dist);
        last = h;
        std::mem::swap(frontier, moved);
    }
    #[cfg(test)]
    {
        scratch.relaxed += relaxed;
    }
    last
}

/// Minimum `Σ 1/Lu_e` from `src` to *every* node within `max_hop` hops
/// over the graph's [`ArcList`] — the enumerated optimum's bits — into
/// `dist`, which it sets to one entry per node (within the capacity it
/// brings, allocating nothing), working in `scratch`: `f64::INFINITY`
/// where a node is out of reach, `0.0` at `src`. It is [`relax_hop_layers`]
/// admitting every node and keeping no layer, the row
/// [`crate::CostEngine`] parallelizes over sources.
pub(crate) fn min_inv_lu_row_into(
    arcs: &ArcList,
    src: NodeId,
    max_hop: Option<usize>,
    dist: &mut Vec<f64>,
    scratch: &mut RowScratch,
) {
    let n = arcs.node_count();
    dist.clear();
    dist.resize(n, f64::INFINITY);
    dist[src.index()] = 0.0;
    relax_hop_layers(arcs, src, layer_bound(max_hop, n), dist, scratch, |_, _| true, |_, _| {});
    // The source's own distance stays 0 but a path to itself is not
    // meaningful for offloading; callers filter src == dst beforehand.
}

/// The working memory of route runs, which the
/// [`CostEngine`](crate::CostEngine) keeps from one round to the next, so
/// a caller extracting many routes refills the row, the layers and the
/// cone marks instead of allocating anew.
#[derive(Debug, Default, Clone)]
pub(crate) struct DpScratch {
    /// The run's row, lowered layer by layer by [`relax_hop_layers`].
    dist: Vec<f64>,
    row: RowScratch,
    /// Layer `h ≥ 1` of the last run, `layers[(h − 1) * n..][v]`: the min
    /// cost of reaching `v` in `<= h` hops, for every node `v` a route to
    /// the run's destinations reads. Layer 0 is 0 at the source and ∞
    /// elsewhere, and is not stored.
    layers: Vec<f64>,
    /// Per node, the last layer that relaxes into it under the last run's
    /// hop bound: `bound − d` for a node `d < bound` hops from a
    /// destination, `0` (never) for the rest.
    last_layer: Vec<u32>,
    /// The nodes the last run's cone BFS reached, in BFS order: its queue,
    /// and what the next run resets in `last_layer`.
    cone: Vec<NodeId>,
    /// The last run's hop bound as a last layer when it pruned, `0` when
    /// it did not: a destination's `last_layer`.
    top: u32,
    /// The source of the last run; `None` when nothing ran.
    src: Option<NodeId>,
    /// The last layer that can have moved: `layers` holds that many.
    final_layer: usize,
}

/// Route extraction over a cost engine's arc list at one graph epoch,
/// borrowed from [`CostEngine::route_scratch`](crate::CostEngine::route_scratch):
/// [`RouteScratch::run_to`] runs the hop-layered DP out of a source toward
/// its destinations, then [`RouteScratch::cost_to`] reads a destination's
/// cost and [`RouteScratch::route_to`] backtracks its route. A run is the
/// row kernel's, so a route's cost is its row entry's bits.
#[derive(Debug)]
pub struct RouteScratch<'a> {
    /// The list the runs relax: owned when the end of the routes frees
    /// it, borrowed when the engine keeps it.
    arcs: Cow<'a, ArcList>,
    dp: &'a mut DpScratch,
}

impl<'a> RouteScratch<'a> {
    /// Routes over `arcs`, run in `dp`, which forgets its last run.
    pub(crate) fn new(arcs: Cow<'a, ArcList>, dp: &'a mut DpScratch) -> Self {
        dp.src = None;
        RouteScratch { arcs, dp }
    }

    /// Run the exact layered DP out of `src` within `max_hop` hops, far
    /// enough to route to each of `dests`, overwriting what the last run
    /// left; under a bound it costs only the destinations' hop cones (the
    /// module docs say why that loses nothing).
    pub fn run_to(&mut self, src: NodeId, dests: &[NodeId], max_hop: Option<usize>) {
        let arcs = &*self.arcs;
        let n = arcs.node_count();
        let bound = layer_bound(max_hop, n);
        let DpScratch { dist, row, layers, last_layer, cone, top, .. } = &mut *self.dp;
        for v in cone.drain(..) {
            last_layer[v.index()] = 0;
        }
        *top = 0;
        if max_hop.is_some() && bound > 0 {
            if last_layer.len() < n {
                last_layer.resize(n, 0);
            }
            // BFS of depth bound − 1 out of the destinations: the cone,
            // in descending order of last layer
            *top = u32::try_from(bound).unwrap_or(u32::MAX);
            for &d in dests {
                if last_layer[d.index()] == 0 {
                    last_layer[d.index()] = *top;
                    cone.push(d);
                }
            }
            let mut head = 0;
            while let Some(&v) = cone.get(head) {
                head += 1;
                let next = last_layer[v.index()] - 1;
                if next == 0 {
                    continue;
                }
                for arc in arcs.run(v) {
                    let w = arc.to as usize;
                    if last_layer[w] == 0 {
                        last_layer[w] = next;
                        cone.push(NodeId(arc.to));
                    }
                }
            }
        }
        let pruned = *top > 0;
        // A pruned run reads and writes only its cone (and the source), so
        // what earlier runs left elsewhere stays, unread.
        if pruned && dist.len() >= n {
            for v in cone.iter() {
                dist[v.index()] = f64::INFINITY;
            }
        } else {
            dist.clear();
            dist.resize(n, f64::INFINITY);
        }
        dist[src.index()] = 0.0;
        // Layers stop growing once a layer moves nothing (diameter
        // reached), so memory is O(diameter · |V|) even when the bound is
        // "unbounded"; room for a small bound's layers is taken up front so
        // they are one allocation.
        layers.reserve((n * bound.min(7)).saturating_sub(layers.len()));
        let (cone, last_layer) = (&*cone, &*last_layer);
        let keep = |h: usize, dist: &[f64]| {
            if layers.len() < h * n {
                layers.resize(h * n, f64::INFINITY);
            }
            let layer = &mut layers[(h - 1) * n..h * n];
            if pruned {
                let at = h as u32;
                for v in cone.iter().take_while(|v| at <= last_layer[v.index()]) {
                    layer[v.index()] = dist[v.index()];
                }
            } else {
                layer.copy_from_slice(dist);
            }
        };
        self.dp.final_layer = if pruned {
            let into = |b: usize, h: usize| h as u32 <= last_layer[b];
            relax_hop_layers(arcs, src, bound, dist, row, into, keep)
        } else {
            relax_hop_layers(arcs, src, bound, dist, row, |_, _| true, keep)
        };
        self.dp.src = Some(src);
    }

    /// Layer `h` of the last run at `v`, for a node its routes read.
    fn at(&self, h: usize, v: NodeId) -> f64 {
        match h {
            0 if Some(v) == self.dp.src => 0.0,
            0 => f64::INFINITY,
            _ => self.dp.layers[(h - 1) * self.arcs.node_count() + v.index()],
        }
    }

    /// The cost `Σ 1/Lu_e` of the optimal route [`RouteScratch::route_to`]
    /// `dst` would backtrack, without backtracking it; `None` where
    /// `route_to` is.
    pub fn cost_to(&self, dst: NodeId) -> Option<f64> {
        self.dp.src.filter(|&s| s != dst)?;
        // under a bound, only a destination's layers are there to read
        if self.dp.top > 0 && self.dp.last_layer[dst.index()] != self.dp.top {
            return None;
        }
        let best = self.at(self.dp.final_layer, dst);
        best.is_finite().then_some(best)
    }

    /// The optimal route from the last [`RouteScratch::run_to`]'s source
    /// to `dst` and its cost, backtracked through that run's layers over
    /// the arc runs. `None` when `dst` is the source, is out of reach
    /// within the bound, was not one of that run's destinations under a
    /// bound, or nothing has run through this borrow.
    pub fn route_to(&self, dst: NodeId) -> Option<(f64, Path)> {
        let best = self.cost_to(dst)?;
        let src = self.dp.src?;
        // Backtrack exactly: at layer h and node v, find a predecessor u
        // with layer[h-1][u] + c(u,v) == layer[h][v]; if layer[h-1][v]
        // already equals layer[h][v] the optimal path is shorter — stay
        // on v. A route has at most `final_layer` hops.
        let mut nodes = Vec::with_capacity(self.dp.final_layer + 1);
        let mut edges = Vec::with_capacity(self.dp.final_layer);
        nodes.push(dst);
        let mut cur = dst;
        let mut h = self.dp.final_layer;
        while cur != src {
            debug_assert!(h > 0, "ran out of layers during reconstruction");
            let target = self.at(h, cur);
            if self.at(h - 1, cur) <= target {
                h -= 1; // same cost with fewer hops: shorten
                continue;
            }
            // the first arc in run order that lands on the target wins; a
            // neighbour out of reach at h − 1 (∞) cannot match
            let step = self.arcs.run(cur).iter().find(|arc| {
                let via = self.at(h - 1, NodeId(arc.to));
                via.is_finite()
                    && (via + arc.inv_lu - target).abs() <= 1e-12 * target.abs().max(1.0)
            });
            debug_assert!(step.is_some(), "no predecessor found; DP tables inconsistent");
            let arc = step?;
            edges.push(EdgeId(arc.edge));
            cur = NodeId(arc.to);
            nodes.push(cur);
            h -= 1;
        }
        nodes.reverse();
        edges.reverse();
        Some((best, Path { nodes, edges }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Link;
    use crate::topologies::{example7, ring};

    fn uniform(g: &mut Graph, cap: f64, util: f64) {
        g.retarget_utilization(|_, _| util);
        for i in 0..g.edge_count() {
            g.link_mut(EdgeId(i as u32)).capacity_mbps = cap;
        }
    }

    /// Every simple path from `src` to `dst` within `max_hop`, as the
    /// enumerator walks them.
    fn all_paths(g: &Graph, src: NodeId, dst: NodeId, max_hop: Option<usize>) -> Vec<Path> {
        let mut out = Vec::new();
        for_each_simple_path(g, src, dst, max_hop, |nodes, edges, _| {
            out.push(Path { nodes: nodes.to_vec(), edges: edges.to_vec() });
        });
        out
    }

    /// The DP's cost from `src` to `dst`, as a fresh [`RouteScratch`]
    /// prices it.
    fn dp_cost(g: &Graph, src: NodeId, dst: NodeId, max_hop: Option<usize>) -> Option<f64> {
        let mut dp = DpScratch::default();
        let mut routes = RouteScratch::new(Cow::Owned(ArcList::build(g)), &mut dp);
        routes.run_to(src, &[dst], max_hop);
        routes.cost_to(dst)
    }

    #[test]
    fn ring_has_two_paths() {
        let g = ring(6, Link::default());
        let paths = all_paths(&g, NodeId(0), NodeId(3), None);
        assert_eq!(paths.len(), 2);
        let hops: Vec<_> = paths.iter().map(Path::hops).collect();
        assert!(hops.contains(&3));
        // both directions around the ring
        assert_eq!(hops.iter().sum::<usize>(), 6);
    }

    #[test]
    fn max_hop_prunes() {
        let g = ring(6, Link::default());
        // both ways around the 6-ring reach node 3 in exactly 3 hops
        assert_eq!(all_paths(&g, NodeId(0), NodeId(3), Some(3)).len(), 2);
        assert_eq!(all_paths(&g, NodeId(0), NodeId(3), Some(2)).len(), 0);
        // node 2: short way (2 hops) and long way (4 hops)
        assert_eq!(all_paths(&g, NodeId(0), NodeId(2), Some(3)).len(), 1);
        assert_eq!(all_paths(&g, NodeId(0), NodeId(2), Some(4)).len(), 2);
    }

    #[test]
    fn example7_has_expected_paths_s1_to_s2() {
        let g = example7(Link::default());
        // S1 = n0, S2 = n1. Paths: e1-e2, e1-e3-e4, e1-e7-e6-e5-e4 (S1,S3,S6,S5,S4,S2)
        let paths = all_paths(&g, NodeId(0), NodeId(1), None);
        assert_eq!(paths.len(), 3);
        let mut hops: Vec<_> = paths.iter().map(Path::hops).collect();
        hops.sort_unstable();
        assert_eq!(hops, vec![2, 3, 5]);
    }

    #[test]
    fn enumerated_and_dp_minima_agree() {
        let mut g = example7(Link::default());
        // heterogeneous utilizations so costs differ per edge
        let utils = [0.9, 0.1, 0.8, 0.7, 0.3, 0.6, 0.2];
        g.retarget_utilization(|e, _| utils[e.index()]);
        for max_hop in [Some(2), Some(3), Some(5), None] {
            for dst in [NodeId(1), NodeId(5)] {
                let enumerated = min_inv_lu_enumerated(&g, NodeId(0), dst, max_hop).map(|(c, _)| c);
                let dp = dp_cost(&g, NodeId(0), dst, max_hop);
                match (enumerated, dp) {
                    (Some(a), Some(b)) => {
                        assert!((a - b).abs() < 1e-12, "mismatch {a} vs {b} at {max_hop:?}")
                    }
                    (None, None) => {}
                    other => panic!("reachability mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn dp_respects_hop_bound() {
        let g = ring(8, Link::default());
        // opposite side of an 8-ring is 4 hops away
        assert!(dp_cost(&g, NodeId(0), NodeId(4), Some(3)).is_none());
        assert!(dp_cost(&g, NodeId(0), NodeId(4), Some(4)).is_some());
    }

    #[test]
    fn response_time_scales_with_data() {
        let mut g = example7(Link::default());
        uniform(&mut g, 1000.0, 0.5); // Lu = 500 Mbps per edge
        let (cost, path) = min_inv_lu_enumerated(&g, NodeId(0), NodeId(1), None).unwrap();
        assert_eq!(path.hops(), 2);
        assert!((cost - 2.0 / 500.0).abs() < 1e-12);
        // moving 100 Mb along it takes D · Σ 1/Lu_e (Eq. 1)
        assert!((100.0 * path.inv_lu(&g) - 100.0 * 2.0 / 500.0).abs() < 1e-12);
    }

    #[test]
    fn min_prefers_fast_detour_over_slow_direct() {
        // triangle 0-1 direct (slow), 0-2-1 detour (fast)
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Link::new(100.0, 1.0)); // Lu=100
        g.add_edge(NodeId(0), NodeId(2), Link::new(10_000.0, 1.0)); // Lu=10000
        g.add_edge(NodeId(2), NodeId(1), Link::new(10_000.0, 1.0));
        let (cost, path) = min_inv_lu_enumerated(&g, NodeId(0), NodeId(1), None).unwrap();
        assert_eq!(path.hops(), 2, "detour should win");
        assert!((cost - 2.0 / 10_000.0).abs() < 1e-15);
        // with max_hop 1 only the slow direct link qualifies
        let (c1, p1) = min_inv_lu_enumerated(&g, NodeId(0), NodeId(1), Some(1)).unwrap();
        assert_eq!(p1.hops(), 1);
        assert!((c1 - 1.0 / 100.0).abs() < 1e-15);
    }

    #[test]
    fn zero_utilization_is_infinitely_slow_but_traversable() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), Link::new(1000.0, 0.0));
        let (cost, _) = min_inv_lu_enumerated(&g, NodeId(0), NodeId(1), None).unwrap();
        assert!(cost.is_infinite());
        // DP reports unreachable-in-finite-time as None
        assert!(dp_cost(&g, NodeId(0), NodeId(1), None).is_none());
    }

    #[test]
    fn src_equals_dst_yields_nothing() {
        let g = ring(4, Link::default());
        assert_eq!(all_paths(&g, NodeId(0), NodeId(0), None).len(), 0);
        assert!(dp_cost(&g, NodeId(0), NodeId(0), None).is_none());
    }

    #[test]
    fn fat_tree_4k_path_counts_grow_with_hops() {
        let ft = crate::fattree::FatTree::with_default_links(4);
        let edges = ft.tier_nodes(crate::fattree::Tier::Edge);
        let (a, b) = (edges[0], *edges.last().unwrap());
        let mut prev = 0;
        for h in [2, 4, 6, 8] {
            let mut c = 0;
            for_each_simple_path(&ft.graph, a, b, Some(h), |_, _, _| c += 1);
            assert!(c >= prev, "path count must be monotone in max_hop");
            prev = c;
        }
        assert!(prev > 0);
    }
}

#[cfg(test)]
mod dp_path_tests {
    use super::*;
    use crate::graph::{Graph, Link};
    use crate::topologies::example7;

    /// The DP's optimal route from `src` to `dst`, backtracked by a fresh
    /// [`RouteScratch`].
    fn dp_route(
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        max_hop: Option<usize>,
    ) -> Option<(f64, Path)> {
        let mut dp = DpScratch::default();
        let mut routes = RouteScratch::new(Cow::Owned(ArcList::build(g)), &mut dp);
        routes.run_to(src, &[dst], max_hop);
        routes.route_to(dst)
    }

    #[test]
    fn dp_path_matches_enumerated_route_cost() {
        let mut g = example7(Link::default());
        let utils = [0.9, 0.1, 0.8, 0.7, 0.3, 0.6, 0.2];
        g.retarget_utilization(|e, _| utils[e.index()]);
        for max_hop in [Some(2), Some(3), Some(5), None] {
            for dst in [NodeId(1), NodeId(5)] {
                let e = min_inv_lu_enumerated(&g, NodeId(0), dst, max_hop);
                let p = dp_route(&g, NodeId(0), dst, max_hop);
                match (e, p) {
                    (Some((ce, _)), Some((cp, path))) => {
                        assert!((ce - cp).abs() < 1e-12, "{ce} vs {cp}");
                        assert!((path.inv_lu(&g) - cp).abs() < 1e-12, "path cost must match");
                        if let Some(h) = max_hop {
                            assert!(path.hops() <= h);
                        }
                    }
                    (None, None) => {}
                    other => panic!("mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn dp_path_respects_tight_bound() {
        // fast detour has 2 hops; with bound 1 only the slow direct edge works
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Link::new(100.0, 1.0));
        g.add_edge(NodeId(0), NodeId(2), Link::new(10_000.0, 1.0));
        g.add_edge(NodeId(2), NodeId(1), Link::new(10_000.0, 1.0));
        let (_, p1) = dp_route(&g, NodeId(0), NodeId(1), Some(1)).unwrap();
        assert_eq!(p1.hops(), 1);
        let (_, p2) = dp_route(&g, NodeId(0), NodeId(1), Some(4)).unwrap();
        assert_eq!(p2.hops(), 2);
    }

    #[test]
    fn dp_path_unreachable_is_none() {
        let mut g = Graph::with_nodes(4);
        g.add_default_edge(NodeId(0), NodeId(1));
        assert!(dp_route(&g, NodeId(0), NodeId(3), None).is_none());
    }
}

/// The frontier-limited DP against the plain one it replaced: every edge
/// swept in every layer. The two must agree to the bit, not to a tolerance —
/// the cost matrix and the offered routes are pinned downstream.
#[cfg(test)]
mod frontier_tests {
    use super::*;
    use crate::fattree::FatTree;
    use crate::graph::Link;
    use crate::topologies::{example7, random_regular, ring};
    use crate::SplitMix64;

    /// Layered distances by sweeping all edges per layer; the last layer is
    /// the row `min_inv_lu_row_into` prices.
    fn full_sweep_layers(g: &Graph, src: NodeId, max_hop: Option<usize>) -> Vec<Vec<f64>> {
        let n = g.node_count();
        let bound = max_hop.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1));
        let mut first = vec![f64::INFINITY; n];
        first[src.index()] = 0.0;
        let mut layers = vec![first];
        for _ in 1..=bound {
            let prev = layers.last().unwrap();
            let mut next = prev.clone();
            let mut changed = false;
            for (i, e) in g.edges().iter().enumerate() {
                let c = inv_lu_edge(g, EdgeId(i as u32));
                let (a, b) = (e.a.index(), e.b.index());
                if prev[a] + c < next[b] {
                    next[b] = prev[a] + c;
                    changed = true;
                }
                if prev[b] + c < next[a] {
                    next[a] = prev[b] + c;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            layers.push(next);
        }
        layers
    }

    /// The route from `src` to `dst` that full-sweep `layers` backtrack
    /// to, by the same exact rule.
    fn backtrack(g: &Graph, layers: &[Vec<f64>], src: NodeId, dst: NodeId) -> Option<(f64, Path)> {
        let mut h = layers.len() - 1;
        let best = layers[h][dst.index()];
        if src == dst || !best.is_finite() {
            return None;
        }
        let (mut nodes, mut edges, mut cur) = (vec![dst], Vec::new(), dst);
        while cur != src {
            let target = layers[h][cur.index()];
            if layers[h - 1][cur.index()] <= target {
                h -= 1;
                continue;
            }
            let (u, e) = g.neighbors(cur).find(|&(u, e)| {
                let via = layers[h - 1][u.index()] + inv_lu_edge(g, e);
                (via - target).abs() <= 1e-12 * target.abs().max(1.0)
            })?;
            edges.push(e);
            nodes.push(u);
            cur = u;
            h -= 1;
        }
        nodes.reverse();
        edges.reverse();
        Some((best, Path { nodes, edges }))
    }

    /// Seeded heterogeneous utilizations, with one idle (`Lu = 0`) link
    /// next to node 0.
    fn loaded(mut g: Graph, seed: u64) -> Graph {
        let mut rng = SplitMix64::new(seed);
        let idle = g.incident(NodeId(0))[0];
        g.retarget_utilization(|e, _| if e == idle { 0.0 } else { rng.range_f64(0.05, 0.95) });
        g
    }

    /// `g` with a second link beside every other edge, added after all of
    /// them: both ends' runs hold the pair, and [`loaded`] loads the two
    /// differently, so a route names which of them it crosses.
    fn doubled(mut g: Graph) -> Graph {
        for e in (0..g.edge_count()).step_by(2) {
            let edge = g.edge(EdgeId(e as u32));
            let (a, b) = (edge.a, edge.b);
            g.add_edge(a, b, Link::default());
        }
        g
    }

    /// Every link at the same load: equal-hop routes tie everywhere, so
    /// the backtrack's tie rule picks every route.
    fn uniform(mut g: Graph) -> Graph {
        g.retarget_utilization(|_, _| 0.5);
        g
    }

    type Bits<'a> = Option<(u64, &'a Path)>;

    fn bits(route: &Option<(f64, Path)>) -> Bits<'_> {
        route.as_ref().map(|(c, p)| (c.to_bits(), p))
    }

    /// Rows, costs and routes of the frontier DP against the full sweep
    /// and its backtrack, bit for bit and edge for edge, on loaded and
    /// uniform fat trees (ties everywhere), a ring, the paper's example, a
    /// multigraph whose parallel links carry different loads (so a route
    /// names the right one of two) and a random regular graph.
    #[test]
    fn frontier_dp_matches_the_full_sweep_bit_for_bit() {
        let graphs = [
            loaded(FatTree::with_default_links(8).graph, 1),
            loaded(FatTree::with_default_links(16).graph, 2),
            uniform(FatTree::with_default_links(8).graph),
            loaded(ring(9, Link::default()), 3),
            loaded(example7(Link::default()), 4),
            loaded(doubled(FatTree::with_default_links(8).graph), 5),
            loaded(random_regular(40, 5, 6, Link::default()), 7),
        ];
        let mut rng = SplitMix64::new(0xD57);
        let mut shared = DpScratch::default();
        for (gi, g) in graphs.iter().enumerate() {
            let arcs = ArcList::build(g);
            let mut scratch = RouteScratch::new(Cow::Borrowed(&arcs), &mut shared);
            let n = g.node_count();
            let all: Vec<NodeId> = g.nodes().collect();
            let stepped: Vec<NodeId> = g.nodes().step_by(1 + n / 40).collect();
            for max_hop in [Some(1), Some(2), Some(4), None] {
                // node 0 sits on the idle link; the others spread over tiers
                for src in [0, 1, n / 3, n / 2, 2 * n / 3, n - 1].map(|v| NodeId(v as u32)) {
                    let want = full_sweep_layers(g, src, max_hop);
                    let mut got = Vec::new();
                    min_inv_lu_row_into(&arcs, src, max_hop, &mut got, &mut RowScratch::default());
                    let row = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        row(&got),
                        row(want.last().unwrap()),
                        "graph {gi} src {src:?} {max_hop:?}"
                    );
                    // a run per destination set — three random nodes, a
                    // spread, all of them — routed to each member, through
                    // one scratch across every graph, bound and source:
                    // what the last run left behind must not show; and a
                    // run of its own to a spread of each set's members
                    let three: Vec<NodeId> =
                        (0..3).map(|_| NodeId(rng.below(n as u64) as u32)).collect();
                    for dests in [&three[..], &stepped, &all] {
                        scratch.run_to(src, dests, max_hop);
                        for (i, &dst) in dests.iter().enumerate() {
                            let want = backtrack(g, &want, src, dst);
                            let what = format!("graph {gi} {src:?}->{dst:?} {max_hop:?}");
                            if i % (1 + dests.len() / 40) == 0 {
                                let mut dp = DpScratch::default();
                                let mut alone = RouteScratch::new(Cow::Borrowed(&arcs), &mut dp);
                                alone.run_to(src, &[dst], max_hop);
                                let alone = alone.route_to(dst);
                                assert_eq!(bits(&alone), bits(&want), "{what}: alone");
                            }
                            let shared = scratch.route_to(dst);
                            assert_eq!(bits(&shared), bits(&want), "{what}: among {}", dests.len());
                            let cost = scratch.cost_to(dst).map(f64::to_bits);
                            assert_eq!(cost, bits(&want).map(|w| w.0), "{what}: cost");
                        }
                    }
                }
            }
        }
    }

    /// The arc-list row kernel against the enumerator, to the bit: every
    /// source of the small graphs at hop bounds 0–4 and none, and on the
    /// 8/16/24-k trees, where enumerating every path is out of reach, a
    /// spread of sources at bounds 0–4 against the enumerator and with no
    /// bound against the full sweep. Each loaded graph has an idle link
    /// (`Lu = 0`, an arc that costs ∞) at node 0, a source. One scratch
    /// prices every row, across the wrap of its layer stamps.
    #[test]
    fn arc_rows_match_the_enumerated_rows_bit_for_bit() {
        // one scratch for every row, its first layer stamp the wrap's and
        // every node marked with the stamp the wrap hands out: what
        // earlier rows left in it must not show
        let scratch = std::cell::RefCell::new(RowScratch::default());
        scratch.borrow_mut().stamp = u32::MAX;
        scratch.borrow_mut().marks = vec![1; 720];
        let row_of = |arcs: &ArcList, src: NodeId, max_hop: Option<usize>| {
            let mut row = Vec::new();
            min_inv_lu_row_into(arcs, src, max_hop, &mut row, &mut scratch.borrow_mut());
            row.iter().map(|d| d.to_bits()).collect::<Vec<_>>()
        };
        let bits = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        let bounds = [Some(0), Some(1), Some(2), Some(3), Some(4), None];
        let small = [
            loaded(FatTree::with_default_links(4).graph, 6),
            uniform(FatTree::with_default_links(4).graph),
            loaded(ring(9, Link::default()), 7),
            loaded(example7(Link::default()), 8),
            loaded(random_regular(12, 3, 9, Link::default()), 10),
        ];
        for (gi, g) in small.iter().enumerate() {
            let arcs = ArcList::build(g);
            for max_hop in bounds {
                for src in g.nodes() {
                    let want = min_inv_lu_enumerated_row(g, src, max_hop);
                    let what = format!("small graph {gi} {src:?} {max_hop:?}");
                    assert_eq!(row_of(&arcs, src, max_hop), bits(&want), "{what}");
                }
            }
        }
        for (k, seed) in [(8, 11), (16, 12), (24, 13)] {
            let g = loaded(FatTree::with_default_links(k).graph, seed);
            let arcs = ArcList::build(&g);
            let n = g.node_count();
            // node 0 is a core switch on the idle link; n − 1 an edge switch
            for src in [0, 1, n / 2, n - 1].map(|v| NodeId(v as u32)) {
                for max_hop in bounds {
                    let want = match max_hop {
                        Some(_) => min_inv_lu_enumerated_row(&g, src, max_hop),
                        None => full_sweep_layers(&g, src, None).pop().unwrap(),
                    };
                    let what = format!("{k}-k {src:?} {max_hop:?}");
                    assert_eq!(row_of(&arcs, src, max_hop), bits(&want), "{what}");
                }
            }
        }
    }

    /// What the pruning saves: a route two hops out on a loaded 24-k tree,
    /// to a destination a shipped row could route to, relaxes at most a
    /// tenth of what the run to every node relaxes, and lands on the same
    /// route.
    #[test]
    fn a_hop_two_route_relaxes_a_tenth_of_the_unpruned_run() {
        let g = loaded(FatTree::with_default_links(24).graph, 5);
        let arcs = ArcList::build(&g);
        let all: Vec<NodeId> = g.nodes().collect();
        let mut rng = SplitMix64::new(24);
        let (mut pruned_dp, mut full_dp) = (DpScratch::default(), DpScratch::default());
        let mut pruned = RouteScratch::new(Cow::Borrowed(&arcs), &mut pruned_dp);
        let mut full = RouteScratch::new(Cow::Borrowed(&arcs), &mut full_dp);
        for _ in 0..24 {
            let src = NodeId(rng.below(all.len() as u64) as u32);
            let mut reach = Vec::new();
            min_inv_lu_row_into(&arcs, src, Some(2), &mut reach, &mut RowScratch::default());
            let within: Vec<NodeId> =
                g.nodes().filter(|&v| v != src && reach[v.index()].is_finite()).collect();
            let dst = within[rng.below(within.len() as u64) as usize];
            let (was_pruned, was_full) = (pruned.dp.row.relaxed, full.dp.row.relaxed);
            pruned.run_to(src, &[dst], Some(2));
            full.run_to(src, &all, Some(2));
            let (p, f) = (pruned.dp.row.relaxed - was_pruned, full.dp.row.relaxed - was_full);
            assert!(10 * p <= f, "{src:?}->{dst:?}: {p} of {f} relaxations");
            assert_eq!(bits(&pruned.route_to(dst)), bits(&full.route_to(dst)));
        }
    }
}
