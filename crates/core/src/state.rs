//! Node state, roles, and the Network Monitoring Data Base (NMDB).
//!
//! The DUST-Manager keeps "the current network status and utilization …
//! and nodes' monitoring and offloading capabilities" in the NMDB (§III-B).
//! Here the NMDB is a snapshot of the topology plus one [`NodeState`] per
//! node; role classification (§III-B) and the `Cs`/`Cd` aggregates
//! (Eq. 3c/3d) derive from it. The topology is shared, not copied: a
//! snapshot's own memory is its states vector.

use crate::config::DustConfig;
use dust_topology::{Graph, NodeId};
use std::sync::Arc;

/// Dynamic per-node state reported via `STAT` messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeState {
    /// Utilized capacity `C_i` in percent `[0, 100]`.
    pub utilization: f64,
    /// In-device monitoring data volume `D_i` in megabits — what must move
    /// to a remote node if this node offloads.
    pub data_mb: f64,
    /// Whether the node answered the `Offload-capable` query with `1`
    /// (§III-B); `false` marks a None-offloading node excluded from both
    /// sides of the placement.
    pub offload_capable: bool,
    /// Heterogeneity coefficient κ: one capacity-percent offloaded *to*
    /// this node consumes κ percent here. The paper's homogeneity
    /// assumption is κ = 1; "in industry implementations, it can be
    /// adjusted with a coefficient factor relating two endpoint platform
    /// capacities" (§IV-A). κ < 1 models a beefier host (DPU/server),
    /// κ > 1 a weaker one.
    pub capacity_factor: f64,
}

impl NodeState {
    /// A capable node with the given utilization and data volume.
    ///
    /// # Panics
    /// Panics if `utilization` is outside `[0, 100]` or `data_mb < 0`.
    pub fn new(utilization: f64, data_mb: f64) -> Self {
        assert!(
            (0.0..=100.0).contains(&utilization),
            "utilization must be in [0,100], got {utilization}"
        );
        assert!(data_mb >= 0.0 && data_mb.is_finite(), "data_mb must be >= 0, got {data_mb}");
        NodeState { utilization, data_mb, offload_capable: true, capacity_factor: 1.0 }
    }

    /// Mark the node as refusing to participate in offloading.
    pub fn non_offloading(mut self) -> Self {
        self.offload_capable = false;
        self
    }

    /// Set the heterogeneity coefficient κ (§IV-A industry note).
    ///
    /// # Panics
    /// Panics unless `kappa` is finite and positive.
    pub fn with_capacity_factor(mut self, kappa: f64) -> Self {
        assert!(kappa.is_finite() && kappa > 0.0, "capacity factor must be > 0, got {kappa}");
        self.capacity_factor = kappa;
        self
    }
}

/// Role a node holds in one optimization round (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// `C_i ≥ C_max`: must offload `Cs_i = C_i − C_max`.
    Busy,
    /// `C_j ≤ CO_max`: may absorb up to `Cd_j = CO_max − C_j`.
    OffloadCandidate,
    /// Utilization between the thresholds: neither offloads nor absorbs,
    /// but still relays traffic (zero relay cost is assumed, §IV-A).
    Neutral,
    /// Declared `Offload-capable = 0`; excluded from the placement.
    NonOffloading,
}

/// Classify one node's role under a configuration.
pub fn classify(state: &NodeState, cfg: &DustConfig) -> Role {
    if !state.offload_capable {
        return Role::NonOffloading;
    }
    if state.utilization >= cfg.c_max {
        Role::Busy
    } else if state.utilization <= cfg.co_max {
        Role::OffloadCandidate
    } else {
        Role::Neutral
    }
}

/// Snapshot of the network the optimization engine consumes.
#[derive(Debug, Clone)]
pub struct Nmdb {
    /// Topology with the link utilizations of the moment the snapshot was
    /// taken, shared with whoever handed it over (the Manager, another
    /// snapshot). Reads go straight through (`&nmdb.graph` is a `&Graph`
    /// wherever one is wanted). A writer calls `Arc::make_mut`, which
    /// copies the topology only while someone else still holds it — so a
    /// snapshot kept across a link drift goes on reading the links it was
    /// taken with, at the price of one copy, made once, by whoever writes
    /// first.
    pub graph: Arc<Graph>,
    /// One state per node, indexable by `NodeId::index`.
    pub states: Vec<NodeState>,
}

impl Nmdb {
    /// Bundle a topology with per-node states. Takes a [`Graph`] (moved
    /// behind a fresh `Arc`) or an `Arc<Graph>` someone else also holds.
    ///
    /// # Panics
    /// Panics if `states.len() != graph.node_count()`.
    pub fn new(graph: impl Into<Arc<Graph>>, states: Vec<NodeState>) -> Self {
        let graph = graph.into();
        assert_eq!(states.len(), graph.node_count(), "one NodeState per graph node required");
        Nmdb { graph, states }
    }

    /// State of one node.
    pub fn state(&self, n: NodeId) -> &NodeState {
        &self.states[n.index()]
    }

    /// Role of one node under `cfg`.
    pub fn role(&self, n: NodeId, cfg: &DustConfig) -> Role {
        classify(&self.states[n.index()], cfg)
    }

    /// The Busy set `V_b` (ascending node order, so results are
    /// deterministic).
    pub fn busy_nodes(&self, cfg: &DustConfig) -> Vec<NodeId> {
        self.graph.nodes().filter(|&n| self.role(n, cfg) == Role::Busy).collect()
    }

    /// The Offload-candidate set `V_o`.
    pub fn candidate_nodes(&self, cfg: &DustConfig) -> Vec<NodeId> {
        self.graph.nodes().filter(|&n| self.role(n, cfg) == Role::OffloadCandidate).collect()
    }

    /// Excess load `Cs_i = C_i − C_max` of a Busy node (Eq. 3c).
    ///
    /// Returns 0 for non-busy nodes.
    pub fn cs(&self, n: NodeId, cfg: &DustConfig) -> f64 {
        if self.role(n, cfg) == Role::Busy {
            self.states[n.index()].utilization - cfg.c_max
        } else {
            0.0
        }
    }

    /// Spare capacity `Cd_j = CO_max − C_j` of a candidate (Eq. 3d).
    ///
    /// Returns 0 for non-candidates.
    pub fn cd(&self, n: NodeId, cfg: &DustConfig) -> f64 {
        let s = &self.states[n.index()];
        if self.role(n, cfg) == Role::OffloadCandidate {
            // One source-percent consumes κ destination-percent, so the
            // absorbable amount in *source* units is headroom / κ. With the
            // paper's homogeneity assumption (κ = 1) this is Eq. 3d exactly.
            (cfg.co_max - s.utilization) / s.capacity_factor
        } else {
            0.0
        }
    }

    /// Total load to shed: `Cs = Σ_i Cs_i` (§IV-B).
    pub fn total_cs(&self, cfg: &DustConfig) -> f64 {
        self.graph.nodes().map(|n| self.cs(n, cfg)).sum()
    }

    /// Total spare capacity: `Cd = Σ_j Cd_j` (§IV-B).
    pub fn total_cd(&self, cfg: &DustConfig) -> f64 {
        self.graph.nodes().map(|n| self.cd(n, cfg)).sum()
    }

    /// Apply an accepted offload of `amount` capacity-percent from `from`
    /// to `to` under the homogeneity assumption (§IV-A): the destination's
    /// utilization rises by exactly what the source sheds.
    ///
    /// # Panics
    /// Panics if the transfer would push either node outside `[0, 100]`.
    pub fn apply_transfer(&mut self, from: NodeId, to: NodeId, amount: f64) {
        assert!(amount >= 0.0, "transfer amount must be >= 0, got {amount}");
        let src = &mut self.states[from.index()];
        assert!(
            src.utilization - amount >= -1e-9,
            "transfer {amount} exceeds source utilization {}",
            src.utilization
        );
        src.utilization = (src.utilization - amount).max(0.0);
        let dst = &mut self.states[to.index()];
        let landed = amount * dst.capacity_factor;
        assert!(
            dst.utilization + landed <= 100.0 + 1e-9,
            "transfer {amount} (×κ = {landed}) would overload destination at {}",
            dst.utilization
        );
        dst.utilization = (dst.utilization + landed).min(100.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_topology::{topologies::line, Link};

    fn cfg() -> DustConfig {
        DustConfig::paper_defaults() // c_max 80, co_max 50, x_min 5
    }

    fn nmdb(utils: &[f64]) -> Nmdb {
        let g = line(utils.len(), Link::default());
        let states = utils.iter().map(|&u| NodeState::new(u, 100.0)).collect();
        Nmdb::new(g, states)
    }

    #[test]
    fn classify_all_roles() {
        let c = cfg();
        assert_eq!(classify(&NodeState::new(85.0, 1.0), &c), Role::Busy);
        assert_eq!(classify(&NodeState::new(80.0, 1.0), &c), Role::Busy); // boundary
        assert_eq!(classify(&NodeState::new(50.0, 1.0), &c), Role::OffloadCandidate); // boundary
        assert_eq!(classify(&NodeState::new(30.0, 1.0), &c), Role::OffloadCandidate);
        assert_eq!(classify(&NodeState::new(65.0, 1.0), &c), Role::Neutral);
        assert_eq!(classify(&NodeState::new(85.0, 1.0).non_offloading(), &c), Role::NonOffloading);
    }

    #[test]
    fn busy_and_candidate_sets() {
        let db = nmdb(&[90.0, 20.0, 65.0, 85.0, 40.0]);
        let c = cfg();
        assert_eq!(db.busy_nodes(&c), vec![NodeId(0), NodeId(3)]);
        assert_eq!(db.candidate_nodes(&c), vec![NodeId(1), NodeId(4)]);
    }

    #[test]
    fn cs_cd_formulas() {
        let db = nmdb(&[90.0, 20.0]);
        let c = cfg();
        assert!((db.cs(NodeId(0), &c) - 10.0).abs() < 1e-12);
        assert!((db.cd(NodeId(1), &c) - 30.0).abs() < 1e-12);
        // non-busy node has no excess, non-candidate no spare
        assert_eq!(db.cs(NodeId(1), &c), 0.0);
        assert_eq!(db.cd(NodeId(0), &c), 0.0);
        assert!((db.total_cs(&c) - 10.0).abs() < 1e-12);
        assert!((db.total_cd(&c) - 30.0).abs() < 1e-12);
    }

    #[test]
    fn transfer_moves_utilization() {
        let mut db = nmdb(&[90.0, 20.0]);
        db.apply_transfer(NodeId(0), NodeId(1), 10.0);
        assert!((db.state(NodeId(0)).utilization - 80.0).abs() < 1e-12);
        assert!((db.state(NodeId(1)).utilization - 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "overload destination")]
    fn transfer_overload_rejected() {
        let mut db = nmdb(&[90.0, 95.0]);
        db.apply_transfer(NodeId(0), NodeId(1), 10.0);
    }

    #[test]
    #[should_panic(expected = "one NodeState per graph node")]
    fn state_count_mismatch_rejected() {
        let g = line(3, Link::default());
        Nmdb::new(g, vec![NodeState::new(10.0, 1.0)]);
    }

    #[test]
    fn capacity_factor_scales_cd_and_transfers() {
        let g = line(2, Link::default());
        let c = cfg();
        // a 2x-beefier host (κ = 0.5) absorbs twice the source units
        let db = Nmdb::new(
            g.clone(),
            vec![NodeState::new(90.0, 1.0), NodeState::new(20.0, 1.0).with_capacity_factor(0.5)],
        );
        assert!((db.cd(NodeId(1), &c) - 60.0).abs() < 1e-12, "30 headroom / 0.5");
        let mut db2 = db.clone();
        db2.apply_transfer(NodeId(0), NodeId(1), 10.0);
        // destination rose by 10 × 0.5 = 5
        assert!((db2.state(NodeId(1)).utilization - 25.0).abs() < 1e-12);
        // a weaker host (κ = 2) absorbs half and fills twice as fast
        let db3 = Nmdb::new(
            g,
            vec![NodeState::new(90.0, 1.0), NodeState::new(20.0, 1.0).with_capacity_factor(2.0)],
        );
        assert!((db3.cd(NodeId(1), &c) - 15.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "capacity factor")]
    fn bad_capacity_factor_rejected() {
        NodeState::new(10.0, 1.0).with_capacity_factor(0.0);
    }

    #[test]
    fn non_offloading_excluded_from_both_sets() {
        let g = line(2, Link::default());
        let states = vec![
            NodeState::new(90.0, 1.0).non_offloading(),
            NodeState::new(10.0, 1.0).non_offloading(),
        ];
        let db = Nmdb::new(g, states);
        let c = cfg();
        assert!(db.busy_nodes(&c).is_empty());
        assert!(db.candidate_nodes(&c).is_empty());
    }
}
