//! Undirected network graph with per-link bandwidth and utilization.
//!
//! This is the substrate the DUST paper's placement problem is defined on
//! (§IV-B): an undirected graph `G = (V, E)` where every edge carries a
//! physical bandwidth and a dynamic utilization rate whose product is the
//! paper's `Lu_{i,j}` (utilized bandwidth, Mbps) used in the response-time
//! cost `Tr = D / Lu` (Eq. 1).

use std::fmt;

/// Index of a node in a [`Graph`]. Stable for the lifetime of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an undirected edge in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The node index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The edge index as a `usize`, for direct slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Physical link state: capacity and dynamic utilization.
///
/// The paper defines `Lu_{i,j}` (Mbps) as "the physical link bandwidth
/// [multiplied by] the dynamic utilization rate resulting from the data in
/// transit" (§IV-B). [`Link::lu`] follows that definition verbatim so that
/// the reproduced cost model matches Eq. 1 exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Physical line rate of the link, in Mbps.
    pub capacity_mbps: f64,
    /// Dynamic utilization rate in `[0, 1]` from data-plane traffic in transit.
    pub utilization: f64,
}

impl Link {
    /// A link with the given capacity and utilization.
    ///
    /// # Panics
    /// Panics if `capacity_mbps` is not finite and positive, or `utilization`
    /// is outside `[0, 1]`.
    pub fn new(capacity_mbps: f64, utilization: f64) -> Self {
        assert!(
            capacity_mbps.is_finite() && capacity_mbps > 0.0,
            "link capacity must be finite and positive, got {capacity_mbps}"
        );
        assert!(
            (0.0..=1.0).contains(&utilization),
            "link utilization must be in [0,1], got {utilization}"
        );
        Link { capacity_mbps, utilization }
    }

    /// Utilized bandwidth `Lu` in Mbps (paper §IV-B): capacity × utilization.
    #[inline]
    pub fn lu(&self) -> f64 {
        self.capacity_mbps * self.utilization
    }
}

impl Default for Link {
    /// A 10 Gbps link at 50 % utilization — the generator default.
    fn default() -> Self {
        Link { capacity_mbps: 10_000.0, utilization: 0.5 }
    }
}

/// An undirected edge between two nodes carrying a [`Link`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Link state on this edge.
    pub link: Link,
}

impl Edge {
    /// Given one endpoint of this edge, return the other.
    ///
    /// # Panics
    /// Panics if `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            debug_assert_eq!(n, self.b, "node {n} is not an endpoint of this edge");
            self.a
        }
    }
}

/// An undirected multigraph with adjacency lists.
///
/// Nodes are dense indices `0..node_count()`. Parallel edges and self-loop
/// rejection are handled at insertion time ([`Graph::add_edge`] forbids
/// self-loops, allows parallel edges since fat-tree pods never produce them
/// but ad-hoc topologies may).
///
/// Each link is stored once, as its [`Edge`] record; a node's adjacency
/// list holds only the ids of its edges, and the neighbour across edge `e`
/// is `edge(e).other(v)`. A generator that knows its degrees builds on
/// [`Graph::with_degrees`], so no list carries growth slack.
#[derive(Debug, Clone)]
pub struct Graph {
    edges: Vec<Edge>,
    /// `adj[v]` lists the ids of the edges at node `v`, in insertion order.
    adj: Vec<Vec<EdgeId>>,
    /// Globally-unique state stamp; see [`Graph::epoch`].
    epoch: u64,
    /// True when the dirty journal lost precision (structural mutation,
    /// bulk retarget, or journal overflow): everything must be treated as
    /// touched.
    dirty_all: bool,
    /// Links touched via [`Graph::link_mut`] since the last
    /// [`Graph::take_dirty`] (unsorted, may hold duplicates; meaningless
    /// while `dirty_all` is set).
    dirty: Vec<EdgeId>,
}

/// Process-global source of graph state stamps. Every stamp is handed out
/// exactly once, so two graphs share an epoch only when one is an
/// unmutated clone of the other — which is exactly when cached path costs
/// keyed by epoch remain valid across both.
fn next_epoch() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

impl Default for Graph {
    fn default() -> Self {
        Self::new()
    }
}

impl Graph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::with_nodes(0)
    }

    /// An empty graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Self::with_degrees(std::iter::repeat_n(0, n), 0)
    }

    /// An empty graph with one isolated node per entry of `degrees`, whose
    /// adjacency lists and edge list are reserved at their final sizes:
    /// node `v` will have `degrees[v]` edges, and the graph `links` edges.
    /// Adding exactly those edges then allocates nothing and leaves no
    /// spare room; the sizes are a reservation, not a limit.
    pub fn with_degrees(degrees: impl IntoIterator<Item = usize>, links: usize) -> Self {
        Graph {
            edges: Vec::with_capacity(links),
            adj: degrees.into_iter().map(Vec::with_capacity).collect(),
            epoch: next_epoch(),
            dirty_all: true,
            dirty: Vec::new(),
        }
    }

    /// The link-state epoch: a process-globally-unique stamp reassigned on
    /// every mutation (adding nodes or edges, touching a link, retargeting
    /// utilizations). Clones share their original's stamp until either
    /// side mutates, so `a.epoch() == b.epoch()` implies `a` and `b` are
    /// bit-identical — the invariant [`crate::CostEngine`] keys its path
    /// cost cache on.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Add a new isolated node, returning its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(u32::try_from(self.adj.len()).expect("more than u32::MAX nodes"));
        self.adj.push(Vec::new());
        self.epoch = next_epoch();
        self.mark_all_dirty();
        id
    }

    /// Add an undirected edge between `a` and `b` with the given link state.
    ///
    /// # Panics
    /// Panics on self-loops or out-of-range node ids.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, link: Link) -> EdgeId {
        assert_ne!(a, b, "self-loops are not allowed");
        assert!(a.index() < self.adj.len(), "node {a} out of range");
        assert!(b.index() < self.adj.len(), "node {b} out of range");
        let id = EdgeId(u32::try_from(self.edges.len()).expect("more than u32::MAX edges"));
        self.edges.push(Edge { a, b, link });
        self.adj[a.index()].push(id);
        self.adj[b.index()].push(id);
        self.epoch = next_epoch();
        self.mark_all_dirty();
        id
    }

    /// Add an edge with the default 10 Gbps / 50 % link.
    pub fn add_default_edge(&mut self, a: NodeId, b: NodeId) -> EdgeId {
        self.add_edge(a, b, Link::default())
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len() as u32).map(NodeId)
    }

    /// All edges, indexable by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.index()]
    }

    /// The ids of the edges at `v`, in the order they were added.
    #[inline]
    pub fn incident(&self, v: NodeId) -> &[EdgeId] {
        &self.adj[v.index()]
    }

    /// `(neighbor, edge)` pairs adjacent to `v`, in the order of
    /// [`Graph::incident`].
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        self.incident(v).iter().map(move |&e| (self.edge(e).other(v), e))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v.index()].len()
    }

    /// Mutable access to the link state of an edge (dynamic utilization
    /// updates during simulation). The touched edge is journaled for
    /// [`Graph::take_dirty`], so targeted drift keeps incremental row
    /// re-pricing possible.
    pub fn link_mut(&mut self, e: EdgeId) -> &mut Link {
        self.epoch = next_epoch();
        if !self.dirty_all {
            self.dirty.push(e);
            // a journal bigger than the edge set carries no information
            // beyond "everything" — collapse it instead of growing forever
            if self.dirty.len() > self.edges.len() {
                self.mark_all_dirty();
            }
        }
        &mut self.edges[e.index()].link
    }

    /// Set every edge's utilization with a callback (used by traffic models).
    pub fn retarget_utilization(&mut self, mut f: impl FnMut(EdgeId, &Edge) -> f64) {
        for i in 0..self.edges.len() {
            let u = f(EdgeId(i as u32), &self.edges[i]);
            assert!((0.0..=1.0).contains(&u), "utilization callback returned {u}");
            self.edges[i].link.utilization = u;
        }
        self.epoch = next_epoch();
        self.mark_all_dirty();
    }

    /// Forget the journal's precision: everything counts as touched.
    fn mark_all_dirty(&mut self) {
        self.dirty_all = true;
        self.dirty.clear();
    }

    /// True when [`Graph::take_dirty`] would return `Some(vec![])`: no link
    /// was touched and nothing structural happened since the last drain.
    /// A holder of a shared (`Arc`) graph asks this first, so that a round
    /// with nothing to drain never needs `&mut` — and so never copies.
    #[inline]
    pub fn journal_is_empty(&self) -> bool {
        !self.dirty_all && self.dirty.is_empty()
    }

    /// Drain the dirty-link journal accumulated since the last call (or
    /// since construction): `None` means *everything* is dirty (structural
    /// mutation, bulk retarget, journal overflow, or first call), `Some`
    /// lists the touched links, sorted and deduplicated — possibly empty
    /// when nothing changed. Clones carry their own copy of the journal,
    /// so draining one graph never blinds another.
    ///
    /// The journal lives inside the graph, so draining is a write: on a
    /// graph behind a shared `Arc` it costs `Arc::make_mut`'s full copy.
    /// Check [`Graph::journal_is_empty`] first and hand the result to
    /// [`crate::CostEngine::refresh`], which only reads the graph.
    pub fn take_dirty(&mut self) -> Option<Vec<EdgeId>> {
        if self.dirty_all {
            self.dirty_all = false;
            self.dirty.clear();
            return None;
        }
        let mut taken = std::mem::take(&mut self.dirty);
        taken.sort_unstable();
        taken.dedup();
        Some(taken)
    }

    /// Hop distance from the nearest of `sources` to every node (one
    /// multi-source BFS; a repeated source counts once). Nodes no source
    /// reaches get `usize::MAX` — every node when `sources` is empty.
    pub fn hop_distances(&self, sources: impl IntoIterator<Item = NodeId>) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        let mut queue = std::collections::VecDeque::new();
        for s in sources {
            if dist[s.index()] == usize::MAX {
                dist[s.index()] = 0;
                queue.push_back(s);
            }
        }
        while let Some(v) = queue.pop_front() {
            let d = dist[v.index()];
            for (w, _) in self.neighbors(v) {
                if dist[w.index()] == usize::MAX {
                    dist[w.index()] = d + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// True if every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.node_count() == 0 {
            return true;
        }
        let dist = self.hop_distances([NodeId(0)]);
        dist.iter().all(|&d| d != usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_default_edge(NodeId(0), NodeId(1));
        g.add_default_edge(NodeId(1), NodeId(2));
        g.add_default_edge(NodeId(2), NodeId(0));
        g
    }

    #[test]
    fn build_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(NodeId(0)), 2);
    }

    #[test]
    fn fat_tree_lists_are_sized_to_their_degrees() {
        for k in [2, 4, 24] {
            let g = crate::fattree::FatTree::with_default_links(k).graph;
            for v in g.nodes() {
                assert_eq!(g.adj[v.index()].capacity(), g.degree(v), "k = {k}: {v}");
            }
            assert_eq!(g.adj.capacity(), g.node_count(), "k = {k}");
            assert_eq!(g.edges.capacity(), k * k * k / 2, "k = {k}");
        }
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        let mut g = Graph::with_nodes(1);
        g.add_default_edge(NodeId(0), NodeId(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut g = Graph::with_nodes(1);
        g.add_default_edge(NodeId(0), NodeId(5));
    }

    #[test]
    fn lu_is_capacity_times_utilization() {
        let l = Link::new(10_000.0, 0.25);
        assert_eq!(l.lu(), 2_500.0);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn link_rejects_bad_utilization() {
        Link::new(1000.0, 1.5);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn link_rejects_bad_capacity() {
        Link::new(0.0, 0.5);
    }

    #[test]
    fn bfs_distances() {
        // path graph 0-1-2-3
        let mut g = Graph::with_nodes(4);
        g.add_default_edge(NodeId(0), NodeId(1));
        g.add_default_edge(NodeId(1), NodeId(2));
        g.add_default_edge(NodeId(2), NodeId(3));
        let d = g.hop_distances([NodeId(0)]);
        assert_eq!(d, vec![0, 1, 2, 3]);
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_detected() {
        let mut g = Graph::with_nodes(3);
        g.add_default_edge(NodeId(0), NodeId(1));
        assert!(!g.is_connected());
        let d = g.hop_distances([NodeId(0)]);
        assert_eq!(d[2], usize::MAX);
    }

    #[test]
    fn retarget_utilization_applies() {
        let mut g = triangle();
        g.retarget_utilization(|_, _| 0.9);
        for e in g.edges() {
            assert_eq!(e.link.utilization, 0.9);
        }
    }

    #[test]
    fn empty_graph_is_connected() {
        assert!(Graph::new().is_connected());
    }

    #[test]
    fn dirty_journal_tracks_link_mut_precisely() {
        let mut g = triangle();
        assert_eq!(g.take_dirty(), None, "a fresh graph is all-dirty");
        assert_eq!(g.take_dirty(), Some(vec![]), "nothing touched since the drain");
        g.link_mut(EdgeId(2)).utilization = 0.7;
        g.link_mut(EdgeId(0)).utilization = 0.6;
        g.link_mut(EdgeId(2)).utilization = 0.8;
        assert_eq!(
            g.take_dirty(),
            Some(vec![EdgeId(0), EdgeId(2)]),
            "sorted, deduplicated, exactly the touched links"
        );
    }

    #[test]
    fn journal_is_empty_says_what_a_drain_would_find() {
        let mut g = triangle();
        assert!(!g.journal_is_empty(), "a fresh graph is all-dirty");
        g.take_dirty();
        assert!(g.journal_is_empty());
        g.link_mut(EdgeId(1)).utilization = 0.7;
        assert!(!g.journal_is_empty());
        assert!(!g.clone().journal_is_empty(), "a clone carries the journal");
        g.take_dirty();
        g.retarget_utilization(|_, _| 0.4);
        assert!(!g.journal_is_empty());
        assert_eq!(g.take_dirty(), None);
        assert!(g.journal_is_empty());
        assert_eq!(g.take_dirty(), Some(vec![]));
    }

    #[test]
    fn structural_mutations_and_retarget_go_all_dirty() {
        let mut g = triangle();
        g.take_dirty();
        g.add_node();
        assert_eq!(g.take_dirty(), None);
        g.retarget_utilization(|_, _| 0.4);
        assert_eq!(g.take_dirty(), None);
        let n = g.add_node();
        g.take_dirty();
        g.add_edge(NodeId(0), n, Link::default());
        assert_eq!(g.take_dirty(), None);
    }

    #[test]
    fn journal_overflow_collapses_to_all_dirty() {
        let mut g = triangle();
        g.take_dirty();
        for _ in 0..4 {
            // 4 touches > 3 edges: precision is gone
            g.link_mut(EdgeId(1)).utilization = 0.3;
        }
        assert_eq!(g.take_dirty(), None);
    }

    #[test]
    fn clones_keep_independent_journals() {
        let mut g = triangle();
        g.take_dirty();
        g.link_mut(EdgeId(1)).utilization = 0.9;
        let mut h = g.clone();
        assert_eq!(g.take_dirty(), Some(vec![EdgeId(1)]));
        assert_eq!(h.take_dirty(), Some(vec![EdgeId(1)]), "the clone still sees its copy");
    }
}
