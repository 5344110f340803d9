//! Network-topology substrate for the DUST reproduction.
//!
//! Provides the undirected graph model the paper's placement problem lives
//! on (§IV-B), the fat-tree generator used throughout the evaluation
//! (§V-B), hop-bounded minimum-cost routing (Eq. 1–2) with the bounded
//! simple-path enumeration it is checked against, and the `T_rmin`
//! cost-matrix builder consumed by the `dust-core` placement engine.
//!
//! # Example
//!
//! ```
//! use dust_topology::{CostEngine, FatTree, Tier};
//!
//! let ft = FatTree::with_default_links(4); // 20 switches, 32 links
//! assert_eq!(ft.node_count(), 20);
//! let edges = ft.tier_nodes(Tier::Edge);
//! let mut engine = CostEngine::with_threads(1);
//! let m = engine.build_matrix(&ft.graph, &edges[..1], &edges[1..3], &[100.0], Some(6));
//! assert!(m.at(0, 1).is_finite());
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod dot;
pub mod fattree;
pub mod graph;
pub mod paths;
pub mod rng;
pub mod topologies;

pub use cost::{CostEngine, CostMatrix, RefreshStats, MAX_DIRTY_FRACTION};
pub use dot::{placement_to_dot, to_dot, NodeStyle};
pub use fattree::{paper_sizes, FatTree, Tier};
pub use graph::{Edge, EdgeId, Graph, Link, NodeId};
pub use paths::{
    for_each_simple_path, min_inv_lu_enumerated, min_inv_lu_enumerated_row, Path, RouteScratch,
};
pub use rng::SplitMix64;
