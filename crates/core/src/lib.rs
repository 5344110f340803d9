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
//! * [`optimizer`] — the min-cost "ILP" of Eq. 3 solved exactly over
//!   controllable routes, with route extraction, priced by a caller's
//!   parallel [`CostEngine`](dust_topology::CostEngine);
//! * [`heuristic`](mod@heuristic) — Algorithm 1 (one-hop candidates) plus HFR (Eq. 4) and
//!   a generalized h-hop variant;
//! * [`request`] — one-shot requests: the LP and Algorithm 1 on a fresh
//!   cost engine;
//! * [`feasibility`] — `Δ_io` sweeps and the infeasible-optimization rate
//!   estimator behind Fig. 7;
//! * [`success`] — the heuristic-vs-optimization outcome split of Fig. 9;
//! * [`scenario`] — seeded random network states for all Monte-Carlo
//!   experiments.
//!
//! # Example
//!
//! ```
//! use dust_core::{optimize_with, DustConfig, NodeState, Nmdb, PlacementStatus};
//! use dust_topology::{topologies, CostEngine, Link};
//!
//! // 0 (busy) — 1 (neutral) — 2 (candidate)
//! let g = topologies::line(3, Link::default());
//! let nmdb = Nmdb::new(g, vec![
//!     NodeState::new(92.0, 150.0),
//!     NodeState::new(60.0, 10.0),
//!     NodeState::new(25.0, 10.0),
//! ]);
//! let cfg = DustConfig::paper_defaults();
//! let mut engine = CostEngine::with_threads(2);
//! let p = optimize_with(&nmdb, &cfg, &mut engine, None)?;
//! assert_eq!(p.status, PlacementStatus::Optimal);
//! assert!((p.total_offloaded() - 12.0).abs() < 1e-6);
//! # Ok::<(), dust_core::DustError>(())
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
pub use heuristic::{heuristic_with, HeuristicOutcome};
pub use optimizer::{
    assign_run, infeasible_cause, optimize_with, routes_from, solve_placement, Assignment,
    LpSolution, Placement, PlacementLp, PlacementStatus, WarmState, FLOW_TOL,
};
pub use request::{heuristic, optimize};
pub use scenario::{random_nmdb, scenario_stream, ScenarioParams};
pub use state::{classify, Nmdb, NodeState, Role};
pub use success::{classify_iteration, SuccessClass, SuccessTally};
