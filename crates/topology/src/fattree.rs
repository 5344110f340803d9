//! k-ary fat-tree topology generator (Al-Fares et al., SIGCOMM '08).
//!
//! The DUST paper evaluates on switch-only three-level fat-trees and counts
//! only the switches (§V-B): a `k`-port fat-tree has `(k/2)^2` core switches,
//! `k` pods each containing `k/2` aggregation and `k/2` edge switches, for
//! `5k^2/4` switches total and `k^3/2` switch-to-switch links. That yields
//! exactly the paper's sizes: 4-k → 20 nodes / 32 edges, 8-k → 80 / 256,
//! 16-k → 320 / 2048, 64-k → 5120 / 131072.

use crate::graph::{Graph, Link, NodeId};

/// The layer a fat-tree switch sits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Core layer, `(k/2)^2` switches.
    Core,
    /// Aggregation layer, `k/2` per pod.
    Aggregation,
    /// Edge (top-of-rack) layer, `k/2` per pod.
    Edge,
}

/// A generated fat-tree: the graph plus structural metadata.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Switch-to-switch topology.
    pub graph: Graph,
    /// Port count `k` (must be even).
    pub k: usize,
    /// Tier of each node, indexable by `NodeId::index`.
    pub tiers: Vec<Tier>,
    /// Pod of each node (`None` for core switches).
    pub pods: Vec<Option<usize>>,
}

impl FatTree {
    /// Build a `k`-port three-level fat-tree with the given link template.
    ///
    /// Node ids are assigned core-first, then pod by pod (aggregation before
    /// edge within each pod).
    ///
    /// # Panics
    /// Panics if `k` is not an even number ≥ 2.
    pub fn new(k: usize, link: Link) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree requires even k >= 2, got {k}");
        let half = k / 2;
        let n_core = half * half;
        let n_per_pod = k; // k/2 agg + k/2 edge
        let n_total = n_core + k * n_per_pod;

        // Cores and aggregation switches have degree k, edge switches k/2;
        // reserving every list at its degree leaves no growth slack.
        let is_edge_switch = |v: usize| v >= n_core && (v - n_core) % n_per_pod >= half;
        let degrees = (0..n_total).map(|v| if is_edge_switch(v) { half } else { k });
        let mut graph = Graph::with_degrees(degrees, k * k * k / 2);
        let mut tiers = vec![Tier::Core; n_total];
        let mut pods = vec![None; n_total];

        // Core switch (i, j) for i, j in 0..k/2 is node i*half + j.
        let core = |i: usize, j: usize| NodeId((i * half + j) as u32);

        for pod in 0..k {
            let pod_base = n_core + pod * n_per_pod;
            // aggregation switches: pod_base .. pod_base + half
            // edge switches:        pod_base + half .. pod_base + k
            for a in 0..half {
                let agg = NodeId((pod_base + a) as u32);
                tiers[agg.index()] = Tier::Aggregation;
                pods[agg.index()] = Some(pod);
                // Aggregation switch `a` connects to core row `a`:
                // cores (a, 0..half).
                for j in 0..half {
                    graph.add_edge(agg, core(a, j), link);
                }
            }
            for e in 0..half {
                let edge = NodeId((pod_base + half + e) as u32);
                tiers[edge.index()] = Tier::Edge;
                pods[edge.index()] = Some(pod);
                // Every edge switch connects to every aggregation switch in
                // its pod.
                for a in 0..half {
                    let agg = NodeId((pod_base + a) as u32);
                    graph.add_edge(edge, agg, link);
                }
            }
        }

        debug_assert_eq!(graph.node_count(), 5 * k * k / 4);
        debug_assert_eq!(graph.edge_count(), k * k * k / 2);
        FatTree { graph, k, tiers, pods }
    }

    /// Build with the default 10 Gbps / 50 % link.
    pub fn with_default_links(k: usize) -> Self {
        Self::new(k, Link::default())
    }

    /// All node ids in a given tier.
    pub fn tier_nodes(&self, tier: Tier) -> Vec<NodeId> {
        self.tiers
            .iter()
            .enumerate()
            .filter(|&(_, t)| *t == tier)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// All node ids belonging to pod `p`.
    pub fn pod_nodes(&self, p: usize) -> Vec<NodeId> {
        self.pods
            .iter()
            .enumerate()
            .filter(|&(_, q)| *q == Some(p))
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of switches (`5k²/4`).
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of switch-to-switch links (`k³/2`).
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// The paper's four evaluation sizes (§V-B).
///
/// Returns `(k, nodes, edges)` tuples for 4-k, 8-k, 16-k, 64-k.
pub fn paper_sizes() -> [(usize, usize, usize); 4] {
    [(4, 20, 32), (8, 80, 256), (16, 320, 2048), (64, 5120, 131_072)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_node_and_edge_counts() {
        for (k, nodes, edges) in paper_sizes() {
            let ft = FatTree::with_default_links(k);
            assert_eq!(ft.node_count(), nodes, "k={k} node count");
            assert_eq!(ft.edge_count(), edges, "k={k} edge count");
        }
    }

    #[test]
    fn fat_tree_is_connected() {
        for k in [2, 4, 8] {
            let ft = FatTree::with_default_links(k);
            assert!(ft.graph.is_connected(), "k={k} must be connected");
        }
    }

    #[test]
    fn tier_populations() {
        let k = 8;
        let ft = FatTree::with_default_links(k);
        assert_eq!(ft.tier_nodes(Tier::Core).len(), k * k / 4);
        assert_eq!(ft.tier_nodes(Tier::Aggregation).len(), k * k / 2);
        assert_eq!(ft.tier_nodes(Tier::Edge).len(), k * k / 2);
    }

    #[test]
    fn degrees_match_roles() {
        let k = 4;
        let ft = FatTree::with_default_links(k);
        for n in ft.graph.nodes() {
            let deg = ft.graph.degree(n);
            match ft.tiers[n.index()] {
                // every core switch connects to one agg switch per pod
                Tier::Core => assert_eq!(deg, k, "core degree"),
                // k/2 up to core + k/2 down to edge
                Tier::Aggregation => assert_eq!(deg, k, "agg degree"),
                // k/2 up to agg (host links not modeled)
                Tier::Edge => assert_eq!(deg, k / 2, "edge degree"),
            }
        }
    }

    #[test]
    fn pods_have_k_switches() {
        let k = 4;
        let ft = FatTree::with_default_links(k);
        for p in 0..k {
            assert_eq!(ft.pod_nodes(p).len(), k, "pod {p}");
        }
    }

    #[test]
    fn core_nodes_have_no_pod() {
        let ft = FatTree::with_default_links(4);
        for n in ft.tier_nodes(Tier::Core) {
            assert_eq!(ft.pods[n.index()], None);
        }
    }

    #[test]
    fn edge_to_edge_same_pod_distance_is_two() {
        let ft = FatTree::with_default_links(4);
        let edges = ft.tier_nodes(Tier::Edge);
        // two edge switches in pod 0
        let in_pod0: Vec<_> =
            edges.iter().copied().filter(|n| ft.pods[n.index()] == Some(0)).collect();
        let d = ft.graph.hop_distances([in_pod0[0]]);
        assert_eq!(d[in_pod0[1].index()], 2);
    }

    #[test]
    fn edge_to_edge_cross_pod_distance_is_four() {
        let ft = FatTree::with_default_links(4);
        let edges = ft.tier_nodes(Tier::Edge);
        let pod0 = edges.iter().copied().find(|n| ft.pods[n.index()] == Some(0)).unwrap();
        let pod1 = edges.iter().copied().find(|n| ft.pods[n.index()] == Some(1)).unwrap();
        let d = ft.graph.hop_distances([pod0]);
        assert_eq!(d[pod1.index()], 4);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn odd_k_rejected() {
        FatTree::with_default_links(3);
    }
}
