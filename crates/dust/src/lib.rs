//! # DUST — Resource-Aware Telemetry Offloading
//!
//! A from-scratch Rust implementation of the DUST system (Sharifian et
//! al., IPDPS-W 2024): dynamic, distributed, hardware-agnostic offloading
//! of in-device network-telemetry workloads from overloaded nodes to
//! under-utilized ones, over controllable minimum-response-time routes.
//!
//! This facade re-exports the whole workspace under stable module names:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`obs`] | `dust-obs` | metrics registry, deterministic event tracing, trace digests |
//! | [`topology`] | `dust-topology` | graphs, fat-trees, bounded path enumeration, `T_rmin` costs |
//! | [`lp`] | `dust-lp` | transportation solver with warm starts; the reference simplex |
//! | [`core`] | `dust-core` | thresholds, roles, NMDB, the placement ILP, Algorithm 1, HFR, `Δ_io` |
//! | [`proto`] | `dust-proto` | Manager/Client state machines and every §III message |
//! | [`telemetry`] | `dust-telemetry` | monitor agents, TSDB, Gorilla compression, federation |
//! | [`sim`] | `dust-sim` | the discrete-event testbed with Fig. 1 / Fig. 6 scenarios |
//!
//! # Quickstart
//!
//! ```
//! use dust::prelude::*;
//!
//! // a 4-port fat-tree: the paper's small-scale network (20 switches)
//! let ft = FatTree::with_default_links(4);
//! let cfg = DustConfig::paper_defaults();
//! let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), 42);
//!
//! // exact placement (the paper's ILP), priced by the parallel memoizing
//! // cost engine; share the engine across rounds to reuse its rows …
//! let engine = CostEngine::with_threads(4);
//! let p = optimize_with(&nmdb, &cfg, &engine, None)?;
//! if p.status == PlacementStatus::Infeasible {
//!     // hop bound or capacity? the engine already holds the rows to tell
//!     let _why = infeasible_cause(&nmdb, &cfg, &engine, &p);
//! }
//!
//! // … and Algorithm 1, with its failure rate
//! let h = heuristic_with(&nmdb, &cfg, 1, &engine)?;
//! assert!(h.hfr_percent() >= 0.0);
//! # Ok::<(), DustError>(())
//! ```

#![warn(missing_docs)]

pub use dust_core as core;
pub use dust_lp as lp;
pub use dust_obs as obs;
pub use dust_proto as proto;
pub use dust_sim as sim;
pub use dust_telemetry as telemetry;
pub use dust_topology as topology;

/// One-stop imports for applications.
pub mod prelude {
    pub use dust_core::{
        classify, classify_iteration, estimate_io_rate, heuristic, heuristic_with,
        infeasible_cause, io_rate_sweep, optimize, optimize_with, random_nmdb, scenario_stream,
        Assignment, DustConfig, DustError, HeuristicOutcome, IoRatePoint, Nmdb, NodeState,
        Placement, PlacementStatus, Role, ScenarioParams, SuccessClass, SuccessTally,
    };
    // named only by the benchmark under `benchmark/`; ROADMAP item 1's
    // benchmark edit deletes it
    pub use dust_core::config::PathEngine;
    pub use dust_obs::{
        build_spans, FlowId, Histogram, MetricsRegistry, ObsHandle, SloBreach, SloEngine, SloKind,
        SloSpec, SpanForest, SpanOutcome, Trace, TraceAssert, TraceEvent,
    };
    pub use dust_proto::{
        Client, ClientMsg, Envelope, Manager, ManagerMsg, Priority, RequestId, SolverBackend,
    };
    pub use dust_sim::{
        evaluate_flows, fig1_curve, fig6_contrast, fleet, registry, scale_fleet_builder,
        scale_fleet_sim_on, testbed_dust_config, testbed_nodes, testbed_topology, ChaosResult,
        EngineKind, FaultConfig, FaultProfile, FlowOutcome, NodeSpec, Scenario, ScenarioKnobs,
        ScenarioRun, SimBuilder, SimNode, SimReport, Simulation, StormConfig, TelemetryFlow,
        TrafficModel, Transport,
    };
    pub use dust_telemetry::{
        aggregate_load, compress, decompress, AgentKind, Federation, MonitorAgent, Series,
        SeriesId, Tsdb,
    };
    pub use dust_topology::{
        paper_sizes, CostEngine, CostMatrix, FatTree, Graph, Link, NodeId, Path, SplitMix64, Tier,
    };
}
