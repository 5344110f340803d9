//! Auxiliary topology generators: line, ring, star, random-regular, and the
//! paper's 7-node illustrative example (Fig. 4).
//!
//! The fat-trees used in the evaluation live in [`crate::fattree`]; these
//! generators exist for unit testing, examples, and for exercising DUST on
//! non-data-center graphs (the architecture is "versatile and can be deployed
//! across various network topologies", §III).

use crate::graph::{Graph, Link, NodeId};
use crate::rng::SplitMix64;

/// A path graph `0 - 1 - ... - (n-1)`.
pub fn line(n: usize, link: Link) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), link);
    }
    g
}

/// A cycle on `n ≥ 3` nodes.
///
/// # Panics
/// Panics if `n < 3`.
pub fn ring(n: usize, link: Link) -> Graph {
    assert!(n >= 3, "ring needs at least 3 nodes, got {n}");
    let mut g = line(n, link);
    g.add_edge(NodeId(n as u32 - 1), NodeId(0), link);
    g
}

/// A star: node 0 is the hub, nodes `1..n` are leaves.
///
/// # Panics
/// Panics if `n < 2`.
pub fn star(n: usize, link: Link) -> Graph {
    assert!(n >= 2, "star needs at least 2 nodes, got {n}");
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(0), NodeId(i as u32), link);
    }
    g
}

/// A random `d`-regular simple graph on `n` nodes via the pairing model with
/// rejection, deterministic in `seed`.
///
/// # Panics
/// Panics if `n * d` is odd or `d >= n`.
pub fn random_regular(n: usize, d: usize, seed: u64, link: Link) -> Graph {
    assert!((n * d).is_multiple_of(2), "n*d must be even (n={n}, d={d})");
    assert!(d < n, "degree {d} must be below node count {n}");
    let mut rng = SplitMix64::new(seed);
    'retry: loop {
        // Pairing model: d stubs per node, shuffle, pair consecutive stubs.
        let mut stubs: Vec<u32> = (0..n as u32).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        rng.shuffle(&mut stubs);
        let mut seen = std::collections::HashSet::new();
        let mut pairs = Vec::with_capacity(n * d / 2);
        for chunk in stubs.chunks(2) {
            let (a, b) = (chunk[0], chunk[1]);
            if a == b {
                continue 'retry; // self-loop: resample
            }
            let key = (a.min(b), a.max(b));
            if !seen.insert(key) {
                continue 'retry; // parallel edge: resample
            }
            pairs.push((a, b));
        }
        let mut g = Graph::with_nodes(n);
        for (a, b) in pairs {
            g.add_edge(NodeId(a), NodeId(b), link);
        }
        return g;
    }
}

/// A two-tier leaf–spine (Clos) fabric: every leaf connects to every
/// spine, and `servers_per_leaf` servers hang off each leaf. Node order:
/// spines, then leaves, then servers (grouped by leaf).
///
/// This is the generalized form of the paper's testbed topology (Fig. 5).
///
/// # Panics
/// Panics when `spines` or `leaves` is zero.
pub fn leaf_spine(spines: usize, leaves: usize, servers_per_leaf: usize, link: Link) -> Graph {
    assert!(spines > 0 && leaves > 0, "need at least one spine and one leaf");
    let mut g = Graph::with_nodes(spines + leaves + leaves * servers_per_leaf);
    for s in 0..spines {
        for l in 0..leaves {
            g.add_edge(NodeId(s as u32), NodeId((spines + l) as u32), link);
        }
    }
    for l in 0..leaves {
        for v in 0..servers_per_leaf {
            let server = spines + leaves + l * servers_per_leaf + v;
            g.add_edge(NodeId((spines + l) as u32), NodeId(server as u32), link);
        }
    }
    g
}

/// The illustrative 7-node / 7-edge topology of the paper's Fig. 4.
///
/// Nodes are `S1..S7` mapped to `NodeId(0)..NodeId(6)`. The edge ids match
/// the paper's `e1..e7` as `EdgeId(0)..EdgeId(6)`:
///
/// ```text
///   e1: S1-S3   e2: S3-S2   e3: S3-S4   e4: S4-S2
///   e5: S4-S5   e6: S5-S6   e7: S3-S6
/// ```
///
/// With this wiring the paper's example routes from the Busy node S1 to the
/// candidates exist: `r1 = {e1,e2}` (S1→S3→S2), `r2 = {e1,e3,e4}`
/// (S1→S3→S4→S2), and `r4 = {e1,e7}` (S1→S3→S6).
pub fn example7(link: Link) -> Graph {
    let mut g = Graph::with_nodes(7);
    let s = |i: u32| NodeId(i - 1); // paper's 1-based S-names
    g.add_edge(s(1), s(3), link); // e1
    g.add_edge(s(3), s(2), link); // e2
    g.add_edge(s(3), s(4), link); // e3
    g.add_edge(s(4), s(2), link); // e4
    g.add_edge(s(4), s(5), link); // e5
    g.add_edge(s(5), s(6), link); // e6
    g.add_edge(s(3), s(6), link); // e7
    g
}

/// Node ids of Fig. 4's Busy node (S1) and Offload-candidates (S2, S6).
pub fn example7_roles() -> (NodeId, [NodeId; 2]) {
    (NodeId(0), [NodeId(1), NodeId(5)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::EdgeId;

    #[test]
    fn line_counts() {
        let g = line(5, Link::default());
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
    }

    #[test]
    fn ring_counts() {
        let g = ring(6, Link::default());
        assert_eq!(g.edge_count(), 6);
        for n in g.nodes() {
            assert_eq!(g.degree(n), 2);
        }
    }

    #[test]
    fn star_hub_degree() {
        let g = star(9, Link::default());
        assert_eq!(g.degree(NodeId(0)), 8);
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn random_regular_is_regular_and_deterministic() {
        let g1 = random_regular(16, 3, 42, Link::default());
        let g2 = random_regular(16, 3, 42, Link::default());
        assert_eq!(g1.edge_count(), 16 * 3 / 2);
        for n in g1.nodes() {
            assert_eq!(g1.degree(n), 3);
        }
        // determinism: identical edge lists
        let e1: Vec<_> = g1.edges().iter().map(|e| (e.a, e.b)).collect();
        let e2: Vec<_> = g2.edges().iter().map(|e| (e.a, e.b)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn random_regular_odd_rejected() {
        random_regular(5, 3, 0, Link::default());
    }

    #[test]
    fn leaf_spine_structure() {
        let g = leaf_spine(2, 4, 3, Link::default());
        assert_eq!(g.node_count(), 2 + 4 + 12);
        assert_eq!(g.edge_count(), 2 * 4 + 12);
        assert!(g.is_connected());
        // spines touch every leaf
        assert_eq!(g.degree(NodeId(0)), 4);
        // leaves: 2 spines + 3 servers
        assert_eq!(g.degree(NodeId(2)), 5);
        // servers are leaves of the tree
        assert_eq!(g.degree(NodeId(6)), 1);
        // any two servers are at most 4 hops apart (server-leaf-spine-leaf-server)
        let d = g.hop_distances([NodeId(6)]);
        assert!(d.iter().all(|&x| x <= 4));
    }

    #[test]
    #[should_panic(expected = "at least one spine")]
    fn empty_leaf_spine_rejected() {
        leaf_spine(0, 2, 1, Link::default());
    }

    #[test]
    fn example7_matches_figure() {
        let g = example7(Link::default());
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 7);
        // e1 joins S1 and S3
        let e1 = g.edge(EdgeId(0));
        assert_eq!((e1.a, e1.b), (NodeId(0), NodeId(2)));
        // busy node S1 has exactly one neighbor (S3)
        let (busy, cands) = example7_roles();
        assert!(g.neighbors(busy).eq([(NodeId(2), EdgeId(0))]));
        assert_eq!(cands, [NodeId(1), NodeId(5)]);
    }

    #[test]
    fn example7_route_r1_exists() {
        // S1→S3→S2 must be a 2-hop walk in the graph.
        let g = example7(Link::default());
        let d = g.hop_distances([NodeId(0)]);
        assert_eq!(d[NodeId(1).index()], 2); // S2 two hops from S1
        assert_eq!(d[NodeId(5).index()], 2); // S6 two hops from S1
    }
}
