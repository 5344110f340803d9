//! DUST placement engine — the paper's primary contribution (§IV).
//!
//! Implements the network-monitoring placement problem end to end:
//!
//! * [`config`] — user-defined thresholds `C_max`, `CO_max`, `x_min`, hop
//!   bounds, and the `Δ_io` feasibility parameter (Eq. 5);
//! * [`state`] — per-node state, role classification (Busy /
//!   Offload-candidate / Neutral / None-offloading, §III-B), and the NMDB
//!   snapshot with `Cs`/`Cd` aggregates (Eq. 3c/3d);
//! * [`error`] — the typed [`DustError`] every fallible entry point
//!   returns;
//! * [`request`] — the unified [`PlacementRequest`] builder that fronts
//!   both placement strategies (the exact LP and Algorithm 1) over one
//!   shared, parallel [`CostEngine`](dust_topology::CostEngine);
//! * [`optimizer`] — the min-cost "ILP" of Eq. 3 solved exactly over
//!   controllable routes, with route extraction;
//! * [`heuristic`](mod@heuristic) — Algorithm 1 (one-hop candidates) plus HFR (Eq. 4) and
//!   a generalized h-hop variant;
//! * [`feasibility`] — `Δ_io` sweeps and the infeasible-optimization rate
//!   estimator behind Fig. 7;
//! * [`success`] — the heuristic-vs-optimization outcome split of Fig. 9;
//! * [`scenario`] — seeded random network states for all Monte-Carlo
//!   experiments.
//!
//! # Example
//!
//! ```
//! use dust_core::{DustConfig, NodeState, Nmdb, PlacementRequest, SolverBackend};
//! use dust_topology::{topologies, Link};
//!
//! // 0 (busy) — 1 (neutral) — 2 (candidate)
//! let g = topologies::line(3, Link::default());
//! let nmdb = Nmdb::new(g, vec![
//!     NodeState::new(92.0, 150.0),
//!     NodeState::new(60.0, 10.0),
//!     NodeState::new(25.0, 10.0),
//! ]);
//! let cfg = DustConfig::paper_defaults();
//! let report = PlacementRequest::new(&nmdb, &cfg)
//!     .backend(SolverBackend::Transportation)
//!     .solve()
//!     .expect("feasible placement");
//! assert!((report.total_offloaded() - 12.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod error;
pub mod feasibility;
pub mod heuristic;
pub mod optimizer;
pub mod request;
pub mod scenario;
pub mod state;
pub mod success;

pub use config::DustConfig;
pub use error::DustError;
pub use feasibility::{capacity_precheck, estimate_io_rate, io_rate_sweep, IoRatePoint};
pub use heuristic::{heuristic, heuristic_with, heuristic_with_hops, HeuristicOutcome};
pub use optimizer::{
    optimize, optimize_with, Assignment, Placement, PlacementStatus, SolverBackend, WarmState,
};
pub use request::{PlacementReport, PlacementRequest, ReportOutcome};
pub use scenario::{random_nmdb, scenario_stream, ScenarioParams};
pub use state::{classify, Nmdb, NodeState, Role};
pub use success::{classify_iteration, SuccessClass, SuccessTally};
