//! K-shortest loopless paths (Yen's algorithm) under the `1/Lu` metric.
//!
//! The DUST-Manager programs "controllable routes" (§IV); a single best
//! path is enough for the published optimizer, but replica substitution
//! and congestion avoidance want ranked alternatives: when the primary
//! route degrades, a caller could fail over to the next-cheapest path
//! without re-running the whole placement. This module provides Yen's
//! algorithm on top of the hop-bounded DP, with the same optional
//! `max_hop` bound the rest of the routing stack uses. It is a
//! library-only extension: neither `dust-proto` nor `dust-sim` calls it.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::paths::{inv_lu_edge, Path};

/// Hop-bounded min-cost path avoiding masked nodes/edges.
///
/// Same layered Bellman–Ford as `min_inv_lu_dp_path`, with masks applied.
fn masked_shortest(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    max_hop: Option<usize>,
    banned_nodes: &[bool],
    banned_edges: &std::collections::HashSet<EdgeId>,
) -> Option<(f64, Path)> {
    if src == dst || banned_nodes[src.index()] || banned_nodes[dst.index()] {
        return None;
    }
    let n = g.node_count();
    let bound = max_hop.unwrap_or(n.saturating_sub(1)).min(n.saturating_sub(1));
    let usable = |e: EdgeId, a: usize, b: usize| {
        !banned_edges.contains(&e) && !banned_nodes[a] && !banned_nodes[b]
    };
    let mut layers: Vec<Vec<f64>> = Vec::with_capacity(8);
    let mut first = vec![f64::INFINITY; n];
    first[src.index()] = 0.0;
    layers.push(first);
    for _ in 1..=bound {
        let prev = layers.last().unwrap();
        let mut next = prev.clone();
        let mut changed = false;
        for (i, e) in g.edges().iter().enumerate() {
            let id = EdgeId(i as u32);
            let (a, b) = (e.a.index(), e.b.index());
            if !usable(id, a, b) {
                continue;
            }
            let c = inv_lu_edge(g, id);
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
    let final_layer = layers.len() - 1;
    let best = layers[final_layer][dst.index()];
    if !best.is_finite() {
        return None;
    }
    // exact backtrack through the layers
    let mut nodes = vec![dst];
    let mut edges = Vec::new();
    let mut cur = dst;
    let mut h = final_layer;
    while cur != src {
        let target = layers[h][cur.index()];
        if h > 0 && layers[h - 1][cur.index()] <= target {
            h -= 1;
            continue;
        }
        let mut stepped = false;
        for &(u, e) in g.neighbors(cur) {
            if banned_edges.contains(&e) || banned_nodes[u.index()] {
                continue;
            }
            let c = inv_lu_edge(g, e);
            if h > 0
                && (layers[h - 1][u.index()] + c - target).abs() <= 1e-12 * target.abs().max(1.0)
            {
                edges.push(e);
                nodes.push(u);
                cur = u;
                h -= 1;
                stepped = true;
                break;
            }
        }
        if !stepped {
            return None; // inconsistent tables (masked everything)
        }
    }
    nodes.reverse();
    edges.reverse();
    Some((best, Path { nodes, edges }))
}

/// The `k` cheapest loopless paths from `src` to `dst` within `max_hop`
/// hops, ranked by `Σ 1/Lu_e` ascending. Fewer than `k` are returned when
/// the graph does not admit that many distinct simple paths in the bound.
pub fn k_shortest_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    max_hop: Option<usize>,
) -> Vec<(f64, Path)> {
    if k == 0 {
        return Vec::new();
    }
    let no_nodes = vec![false; g.node_count()];
    let no_edges = std::collections::HashSet::new();
    let Some(first) = masked_shortest(g, src, dst, max_hop, &no_nodes, &no_edges) else {
        return Vec::new();
    };
    let mut accepted: Vec<(f64, Path)> = vec![first];
    // candidate pool: (cost, path); keep sorted ascending and dedup
    let mut candidates: Vec<(f64, Path)> = Vec::new();

    while accepted.len() < k {
        let (_, last) = accepted.last().unwrap().clone();
        // spur from every prefix of the last accepted path
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root_nodes = &last.nodes[..=spur_idx];
            let root_edges = &last.edges[..spur_idx];
            let root_cost: f64 = root_edges.iter().map(|&e| inv_lu_edge(g, e)).sum();

            // Ban edges used by any accepted/candidate path sharing this
            // root. On multigraphs the root is identified by its *edge*
            // sequence — two paths over the same nodes but different
            // parallel edges are distinct roots.
            let mut banned_edges = std::collections::HashSet::new();
            for (_, p) in accepted.iter().chain(candidates.iter()) {
                if p.edges.len() > spur_idx && p.edges[..spur_idx] == *root_edges {
                    banned_edges.insert(p.edges[spur_idx]);
                }
            }
            // ban root nodes except the spur node (looplessness)
            let mut banned_nodes = vec![false; g.node_count()];
            for &v in &root_nodes[..spur_idx] {
                banned_nodes[v.index()] = true;
            }
            let remaining_hops = max_hop.map(|h| h.saturating_sub(spur_idx));
            if remaining_hops == Some(0) {
                continue;
            }
            if let Some((spur_cost, spur_path)) =
                masked_shortest(g, spur_node, dst, remaining_hops, &banned_nodes, &banned_edges)
            {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur_path.nodes[1..]);
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur_path.edges);
                let total = Path { nodes, edges };
                let cost = root_cost + spur_cost;
                if let Some(h) = max_hop {
                    if total.hops() > h {
                        continue;
                    }
                }
                // dedup against accepted and candidates
                let duplicate =
                    accepted.iter().chain(candidates.iter()).any(|(_, p)| p.edges == total.edges);
                if !duplicate {
                    candidates.push((cost, total));
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.edges.cmp(&b.1.edges))
        });
        accepted.push(candidates.remove(0));
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Link;
    use crate::paths::enumerate_simple_paths;
    use crate::topologies::{example7, ring};

    /// Brute force: all simple paths, sorted by cost.
    fn brute(g: &Graph, src: NodeId, dst: NodeId, max_hop: Option<usize>) -> Vec<f64> {
        let mut costs: Vec<f64> =
            enumerate_simple_paths(g, src, dst, max_hop).iter().map(|p| p.inv_lu(g)).collect();
        costs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        costs
    }

    #[test]
    fn ring_has_exactly_two_paths() {
        let g = ring(6, Link::default());
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(2), 5, None);
        assert_eq!(ps.len(), 2, "a ring offers exactly two loopless routes");
        assert!(ps[0].0 <= ps[1].0);
        assert_eq!(ps[0].1.hops(), 2);
        assert_eq!(ps[1].1.hops(), 4);
    }

    #[test]
    fn matches_brute_force_on_example7() {
        let mut g = example7(Link::default());
        let utils = [0.9, 0.1, 0.8, 0.7, 0.3, 0.6, 0.2];
        g.retarget_utilization(|e, _| utils[e.index()]);
        for max_hop in [Some(3), Some(5), None] {
            for dst in [NodeId(1), NodeId(5)] {
                let expect = brute(&g, NodeId(0), dst, max_hop);
                let got = k_shortest_paths(&g, NodeId(0), dst, expect.len() + 2, max_hop);
                assert_eq!(got.len(), expect.len(), "path count at {max_hop:?}");
                for (i, (c, p)) in got.iter().enumerate() {
                    assert!((c - expect[i]).abs() < 1e-9, "rank {i}: {c} vs {}", expect[i]);
                    assert!((p.inv_lu(&g) - c).abs() < 1e-12, "cost matches its path");
                }
            }
        }
    }

    #[test]
    fn paths_are_simple_and_ranked() {
        let ft = crate::fattree::FatTree::with_default_links(4);
        let edges = ft.tier_nodes(crate::fattree::Tier::Edge);
        let (a, b) = (edges[0], *edges.last().unwrap());
        let ps = k_shortest_paths(&ft.graph, a, b, 8, Some(6));
        assert!(ps.len() >= 2);
        for w in ps.windows(2) {
            assert!(w[0].0 <= w[1].0 + 1e-12, "ranking must be ascending");
        }
        for (_, p) in &ps {
            let mut seen = p.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), p.nodes.len(), "loopless");
            assert!(p.hops() <= 6);
            assert_eq!(p.nodes[0], a);
            assert_eq!(*p.nodes.last().unwrap(), b);
        }
        // all distinct
        for i in 0..ps.len() {
            for j in i + 1..ps.len() {
                assert_ne!(ps[i].1.edges, ps[j].1.edges, "paths {i} and {j} identical");
            }
        }
    }

    #[test]
    fn k_zero_and_unreachable() {
        let g = ring(4, Link::default());
        assert!(k_shortest_paths(&g, NodeId(0), NodeId(2), 0, None).is_empty());
        let mut g2 = Graph::with_nodes(3);
        g2.add_default_edge(NodeId(0), NodeId(1));
        assert!(k_shortest_paths(&g2, NodeId(0), NodeId(2), 3, None).is_empty());
    }

    #[test]
    fn hop_bound_filters_long_alternatives() {
        let g = ring(6, Link::default());
        let ps = k_shortest_paths(&g, NodeId(0), NodeId(2), 5, Some(2));
        assert_eq!(ps.len(), 1, "only the short way fits in 2 hops");
    }

    use crate::graph::Graph;

    #[test]
    fn first_path_matches_single_shortest() {
        let mut g = example7(Link::default());
        let utils = [0.9, 0.1, 0.8, 0.7, 0.3, 0.6, 0.2];
        g.retarget_utilization(|e, _| utils[e.index()]);
        let ks = k_shortest_paths(&g, NodeId(0), NodeId(1), 1, None);
        let single = crate::paths::min_inv_lu_enumerated(&g, NodeId(0), NodeId(1), None).unwrap();
        assert!((ks[0].0 - single.0).abs() < 1e-12);
    }
}
