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
//! * a pair's cost or route is a [`DpScratch`]: [`DpScratch::run_to`],
//!   then [`DpScratch::cost_to`] or [`DpScratch::route_to`];
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
//! # Routes cost the cones they cross
//!
//! A route is backtracked through the DP's hop layers ([`DpScratch`]),
//! and a route extraction knows its destinations before it runs: the
//! busy row's shipped columns, a re-home's new hosts, a replica. Under a
//! hop bound `H`, [`DpScratch::run_to`] therefore keeps, at layer `j`,
//! only the nodes within `H − j` hops of one of those destinations (a
//! BFS of depth `H − 1` from them finds each node's last such layer): it
//! carries only them over from layer `j − 1` and relaxes only into them.
//! That loses nothing a route reads:
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
//! * A pruned run may stop at an earlier layer than an unpruned one, but
//!   `d`'s value is flat across the layers in between, so the "shorten"
//!   steps reach the same `(h, d)` and the same predecessor wins every
//!   tie.
//!
//! Every route and every cost bit is the unpruned DP's. Without a hop
//! bound nothing is pruned.

use crate::graph::{EdgeId, Graph, NodeId};

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
    let lu = g.edge(e).link.lu();
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
            edges.push(g.neighbors(v)[next - 1].1);
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

/// The working memory of one DP row pricing, [`min_inv_lu_dp_into`],
/// reserved up front for a graph's node count, so a pricing worker fills
/// rows without allocating.
#[derive(Debug, Default)]
pub(crate) struct RowScratch {
    next: Vec<f64>,
    frontier: Vec<NodeId>,
    moved: Vec<NodeId>,
}

impl RowScratch {
    /// Room for every row priced on an `n`-node graph: a DP frontier
    /// holds each node at most once.
    pub(crate) fn reserved(n: usize) -> RowScratch {
        RowScratch {
            next: Vec::with_capacity(n),
            frontier: Vec::with_capacity(n),
            moved: Vec::with_capacity(n),
        }
    }
}

/// The one depth-first walk over the simple paths from `src` with at most
/// `max_hop` edges, neighbours in adjacency order. Each step to an
/// unvisited neighbour `w` calls `visit(w, cost, frames)`: `cost` is the
/// path's `Σ 1/Lu_e` summed from `src` outwards, and `frames` is the path
/// up to `w`'s predecessor, each node with the index one past the
/// neighbour the path left it by. `visit` returns whether to extend the
/// path past `w`; a path at the hop bound is never extended.
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
        let neighbors = g.neighbors(v);
        if *next >= neighbors.len() {
            frames.pop();
            visited[v.index()] = false;
            cost_stack.pop();
            continue;
        }
        let (w, e) = neighbors[*next];
        *next += 1;
        if visited[w.index()] {
            continue;
        }
        let cost = cost_stack.last().unwrap() + inv_lu_edge(g, e);
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

/// One hop layer of the Bellman–Ford DP: relax every edge out of
/// `frontier` — the nodes whose distance changed in the previous layer —
/// into the nodes `into` admits, reading `prev` and lowering `next`, which
/// enters as a copy of `prev`. The nodes whose distance dropped are
/// collected, once each, in `moved`. Returns the relaxations made.
///
/// Skipping the nodes outside the frontier loses nothing: a node that did
/// not move offered the very same `prev[a] + c` candidates one layer
/// earlier, so every minimum sees the same floats as a sweep of all edges.
#[inline(always)]
fn relax_layer(
    g: &Graph,
    prev: &[f64],
    next: &mut [f64],
    frontier: &[NodeId],
    moved: &mut Vec<NodeId>,
    into: impl Fn(NodeId) -> bool,
) -> usize {
    moved.clear();
    let mut relaxed = 0;
    for &a in frontier {
        for &(b, e) in g.neighbors(a) {
            if !into(b) {
                continue;
            }
            relaxed += 1;
            let through = prev[a.index()] + inv_lu_edge(g, e);
            let so_far = next[b.index()];
            if through < so_far {
                if so_far == prev[b.index()] {
                    moved.push(b); // b's first drop in this layer
                }
                next[b.index()] = through;
            }
        }
    }
    relaxed
}

/// Minimum `Σ 1/Lu_e` from `src` to *every* node within `max_hop` hops via
/// hop-bounded Bellman–Ford, into `dist`, which it sets to one entry per
/// node (within the capacity it brings, allocating nothing), working in
/// `scratch`. Entry `dist[v]` is `f64::INFINITY` when `v` is unreachable
/// within the bound; `dist[src]` is `0.0`.
///
/// With strictly positive edge costs a minimum-cost walk is simple, so this
/// equals the enumerated optimum at a fraction of the cost. Each layer
/// relaxes only out of the previous layer's frontier, so a bounded search
/// costs what it reaches, not `max_hop · |E|`. This is the row
/// [`crate::CostEngine`] parallelizes over sources.
pub(crate) fn min_inv_lu_dp_into(
    g: &Graph,
    src: NodeId,
    max_hop: Option<usize>,
    dist: &mut Vec<f64>,
    scratch: &mut RowScratch,
) {
    let n = g.node_count();
    // Unbounded: n-1 hops suffice for any simple path.
    let bound = max_hop.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1));
    dist.clear();
    dist.resize(n, f64::INFINITY);
    dist[src.index()] = 0.0;
    let RowScratch { next, frontier, moved } = scratch;
    next.clear();
    next.extend_from_slice(dist);
    frontier.clear();
    frontier.push(src);
    for _ in 0..bound {
        relax_layer(g, dist, next, frontier, moved, |_| true);
        if moved.is_empty() {
            break; // diameter reached
        }
        for &b in moved.iter() {
            dist[b.index()] = next[b.index()];
        }
        std::mem::swap(frontier, moved);
    }
    // The source's own distance stays 0 but a path to itself is not
    // meaningful for offloading; callers filter src == dst beforehand.
}

/// The hop-layered DP from one source toward a set of destinations, kept
/// so that routes to each of them backtrack through one
/// [`DpScratch::run_to`], and so that a caller extracting many routes in
/// a row refills the layers, frontier lists and cone marks instead of
/// allocating anew.
#[derive(Debug, Default)]
pub struct DpScratch {
    layers: Vec<f64>,
    frontier: Vec<NodeId>,
    moved: Vec<NodeId>,
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
    /// The source of the last run.
    src: Option<NodeId>,
    /// The last layer that moved: `layers` holds `final_layer + 1` of them.
    final_layer: usize,
    /// Relaxations made by every run so far.
    #[cfg(test)]
    relaxed: usize,
}

impl DpScratch {
    /// Run the exact layered DP out of `src` within `max_hop` hops, far
    /// enough to route to each of `dests`, overwriting whatever a previous
    /// run left here: layer h, `layers[h * n..][v]`, is the min cost of
    /// reaching v in <= h hops for every node v a route to `dests` can
    /// read. Under a hop bound, layer j holds and relaxes only the nodes
    /// within `bound − j` hops of a destination (the module docs say why
    /// the routes and their costs stay those of the unpruned DP), so a run
    /// costs the cones it crosses; without one, every node.
    pub fn run_to(&mut self, g: &Graph, src: NodeId, dests: &[NodeId], max_hop: Option<usize>) {
        let n = g.node_count();
        let bound = max_hop.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1));
        let DpScratch { layers, frontier, moved, last_layer, cone, top, .. } = self;
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
                for &(w, _) in g.neighbors(v) {
                    if last_layer[w.index()] == 0 {
                        last_layer[w.index()] = next;
                        cone.push(w);
                    }
                }
            }
        }
        let pruned = *top > 0;
        // Layers stop growing once a layer moves nothing (diameter
        // reached), so memory is O(diameter · |V|) even when the bound is
        // "unbounded"; room for a small bound's layers is taken up front so
        // they are one allocation. A pruned run writes only its cone, so
        // what earlier runs left elsewhere stays, unread.
        layers.reserve((n * (bound.min(7) + 1)).saturating_sub(layers.len()));
        if layers.len() < n {
            layers.resize(n, f64::INFINITY);
        }
        if pruned {
            for v in cone.iter() {
                layers[v.index()] = f64::INFINITY;
            }
        } else {
            layers[..n].fill(f64::INFINITY);
        }
        layers[src.index()] = 0.0;
        frontier.clear();
        frontier.push(src);
        let mut final_layer = 0;
        #[cfg(test)]
        let mut relaxed = 0;
        for h in 1..=bound {
            if layers.len() < (h + 1) * n {
                layers.resize((h + 1) * n, f64::INFINITY);
            }
            let (prev, next) = layers[(h - 1) * n..(h + 1) * n].split_at_mut(n);
            let _made = if pruned {
                // carry the nodes layer h relaxes into over from layer h − 1
                let at = h as u32;
                for v in cone.iter().take_while(|v| at <= last_layer[v.index()]) {
                    next[v.index()] = prev[v.index()];
                }
                relax_layer(g, prev, next, frontier, moved, |b| at <= last_layer[b.index()])
            } else {
                next.copy_from_slice(prev);
                relax_layer(g, prev, next, frontier, moved, |_| true)
            };
            #[cfg(test)]
            {
                relaxed += _made;
            }
            if moved.is_empty() {
                break;
            }
            final_layer = h;
            std::mem::swap(frontier, moved);
        }
        (self.src, self.final_layer) = (Some(src), final_layer);
        #[cfg(test)]
        {
            self.relaxed += relaxed;
        }
    }

    /// The cost of the optimal route [`DpScratch::route_to`] `dst` would
    /// backtrack, without backtracking it; `None` where `route_to` is.
    pub fn cost_to(&self, g: &Graph, dst: NodeId) -> Option<f64> {
        self.src.filter(|&s| s != dst)?;
        // under a bound, only a destination's layers are there to read
        if self.top > 0 && self.last_layer[dst.index()] != self.top {
            return None;
        }
        let best = self.layers[self.final_layer * g.node_count() + dst.index()];
        best.is_finite().then_some(best)
    }

    /// The optimal route from the last [`DpScratch::run_to`]'s source to
    /// `dst` and its cost, backtracked through that run's layers; `g` must
    /// be the graph it ran on. `None` when `dst` is the source, is out of
    /// reach within the bound, was not one of that run's destinations
    /// under a bound, or nothing has run.
    pub fn route_to(&self, g: &Graph, dst: NodeId) -> Option<(f64, Path)> {
        let best = self.cost_to(g, dst)?;
        let src = self.src?;
        let n = g.node_count();
        // layer 0 is 0 at the source and ∞ elsewhere; a pruned run wrote
        // it only where it relaxes, so it is not read back
        let at = |h: usize, v: NodeId| match h {
            0 if v == src => 0.0,
            0 => f64::INFINITY,
            _ => self.layers[h * n + v.index()],
        };
        // Backtrack exactly: at layer h and node v, find a predecessor u
        // with layers[h-1][u] + c(u,v) == layers[h][v]; if layers[h-1][v]
        // already equals layers[h][v] the optimal path is shorter — stay
        // on v. A route has at most `final_layer` hops.
        let mut nodes = Vec::with_capacity(self.final_layer + 1);
        let mut edges = Vec::with_capacity(self.final_layer);
        nodes.push(dst);
        let mut cur = dst;
        let mut h = self.final_layer;
        while cur != src {
            debug_assert!(h > 0, "ran out of layers during reconstruction");
            let target = at(h, cur);
            if at(h - 1, cur) <= target {
                h -= 1; // same cost with fewer hops: shorten
                continue;
            }
            let mut stepped = false;
            for &(u, e) in g.neighbors(cur) {
                // a neighbour out of reach at h − 1 (∞) cannot match: skip
                // the division that prices its edge
                let via = at(h - 1, u);
                if via.is_finite()
                    && (via + inv_lu_edge(g, e) - target).abs() <= 1e-12 * target.abs().max(1.0)
                {
                    edges.push(e);
                    nodes.push(u);
                    cur = u;
                    h -= 1;
                    stepped = true;
                    break;
                }
            }
            debug_assert!(stepped, "no predecessor found; DP tables inconsistent");
            if !stepped {
                return None;
            }
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

    /// The DP's cost from `src` to `dst`, as a fresh [`DpScratch`] prices it.
    fn dp_cost(g: &Graph, src: NodeId, dst: NodeId, max_hop: Option<usize>) -> Option<f64> {
        let mut dp = DpScratch::default();
        dp.run_to(g, src, &[dst], max_hop);
        dp.cost_to(g, dst)
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
    /// [`DpScratch`].
    fn dp_route(
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        max_hop: Option<usize>,
    ) -> Option<(f64, Path)> {
        let mut dp = DpScratch::default();
        dp.run_to(g, src, &[dst], max_hop);
        dp.route_to(g, dst)
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
    use crate::topologies::{example7, ring};
    use crate::SplitMix64;

    /// Layered distances by sweeping all edges per layer; the last layer is
    /// the row `min_inv_lu_dp_into` prices.
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
            let &(u, e) = g.neighbors(cur).iter().find(|&&(u, e)| {
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
        let idle = g.neighbors(NodeId(0))[0].1;
        g.retarget_utilization(|e, _| if e == idle { 0.0 } else { rng.range_f64(0.05, 0.95) });
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

    #[test]
    fn frontier_dp_matches_the_full_sweep_bit_for_bit() {
        let graphs = [
            loaded(FatTree::with_default_links(8).graph, 1),
            loaded(FatTree::with_default_links(16).graph, 2),
            uniform(FatTree::with_default_links(8).graph),
            loaded(ring(9, Link::default()), 3),
            loaded(example7(Link::default()), 4),
        ];
        let mut rng = SplitMix64::new(0xD57);
        let mut scratch = DpScratch::default();
        for (gi, g) in graphs.iter().enumerate() {
            let n = g.node_count();
            let all: Vec<NodeId> = g.nodes().collect();
            let stepped: Vec<NodeId> = g.nodes().step_by(1 + n / 40).collect();
            for max_hop in [Some(1), Some(2), Some(4), None] {
                // node 0 sits on the idle link; the others spread over tiers
                for src in [0, 1, n / 3, n / 2, n - 1].map(|v| NodeId(v as u32)) {
                    let want = full_sweep_layers(g, src, max_hop);
                    let mut got = Vec::new();
                    min_inv_lu_dp_into(g, src, max_hop, &mut got, &mut RowScratch::default());
                    let row = |row: &[f64]| row.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        row(&got),
                        row(want.last().unwrap()),
                        "graph {gi} src {src:?} {max_hop:?}"
                    );
                    // a run per destination set — one node, three random
                    // ones, a spread, all of them — routed to each member,
                    // through one scratch across every graph, bound and
                    // source: what the last run left behind must not show
                    let three: Vec<NodeId> =
                        (0..3).map(|_| NodeId(rng.below(n as u64) as u32)).collect();
                    for dests in [&three[..], &stepped, &all] {
                        scratch.run_to(g, src, dests, max_hop);
                        for &dst in dests.iter().step_by(1 + dests.len() / 40) {
                            let want = backtrack(g, &want, src, dst);
                            let mut alone = DpScratch::default();
                            alone.run_to(g, src, &[dst], max_hop);
                            let alone = alone.route_to(g, dst);
                            let what = format!("graph {gi} {src:?}->{dst:?} {max_hop:?}");
                            assert_eq!(bits(&alone), bits(&want), "{what}: alone");
                            let shared = scratch.route_to(g, dst);
                            assert_eq!(bits(&shared), bits(&want), "{what}: among {}", dests.len());
                            let cost = scratch.cost_to(g, dst).map(f64::to_bits);
                            assert_eq!(cost, bits(&want).map(|w| w.0), "{what}: cost");
                        }
                    }
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
        let all: Vec<NodeId> = g.nodes().collect();
        let mut rng = SplitMix64::new(24);
        let (mut pruned, mut full) = (DpScratch::default(), DpScratch::default());
        for _ in 0..24 {
            let src = NodeId(rng.below(all.len() as u64) as u32);
            let mut reach = Vec::new();
            min_inv_lu_dp_into(&g, src, Some(2), &mut reach, &mut RowScratch::default());
            let within: Vec<NodeId> =
                g.nodes().filter(|&v| v != src && reach[v.index()].is_finite()).collect();
            let dst = within[rng.below(within.len() as u64) as usize];
            let (was_pruned, was_full) = (pruned.relaxed, full.relaxed);
            pruned.run_to(&g, src, &[dst], Some(2));
            full.run_to(&g, src, &all, Some(2));
            let (p, f) = (pruned.relaxed - was_pruned, full.relaxed - was_full);
            assert!(10 * p <= f, "{src:?}->{dst:?}: {p} of {f} relaxations");
            assert_eq!(bits(&pruned.route_to(&g, dst)), bits(&full.route_to(&g, dst)));
        }
    }
}
