//! Discrete-event testbed simulator for DUST (§V-A).
//!
//! Substitutes the paper's physical prototype — a VxLAN data-center
//! topology of commercial switches — with a deterministic simulation:
//!
//! * [`engine`] — a deterministic event queue firing in `(time, insertion)` order;
//! * [`builder`] — validating construction ([`Simulation::builder`]);
//! * [`event`] — the simulation core: the event loop, with per-event-time
//!   batching, one slot table for every per-node read (nodes with equal
//!   values share a slot and its walk) and arena-backed hot state;
//! * [`node`] — the device resource model (Aruba-8325-class DUT, servers,
//!   DPUs) where CPU/memory derive from which monitor agents run where;
//! * [`traffic`] — VxLAN overlay traffic profiles projected onto links;
//! * [`transport`] — a deterministic fault gate dropping, duplicating,
//!   delaying, and reordering control-plane messages, one profile for
//!   both directions;
//! * [`runner`] — the full wiring: protocol state machines, placement
//!   rounds, physical agent movement, metric recording, failure injection;
//! * [`scenarios`] — the shared Fig. 5 testbed fixtures (topology, agent
//!   mixes, DUST config) and the fat-tree fleet workloads;
//! * [`registry`] — the named scenario registry: every canned workload
//!   (`testbed`, `chaos`, `int_burst`, `diurnal`, `flash_crowd`,
//!   `zone_storm`, `churn`) as a [`registry::Scenario`] descriptor carrying
//!   its own SLO spec, the fault-parameterized [`registry::chaos`] run,
//!   and the Fig. 1 / Fig. 6 experiment helpers. A run is named by one
//!   [`registry::ScenarioKnobs`] value (seed, duration, observer, SLO
//!   override).
//!
//! # Example
//!
//! ```
//! use dust_sim::registry;
//!
//! // the Fig. 6 experiment, 60 simulated seconds
//! let r = registry::fig6_contrast(60_000, 42);
//! assert!(r.transfers > 0);
//! assert!(r.dust_cpu < r.local_cpu);
//!
//! // a registry scenario, SLO-gated by construction
//! let sc = registry::find("testbed").unwrap();
//! let run = sc.run(&registry::ScenarioKnobs::seeded(42)).unwrap();
//! assert!(!run.breached());
//! ```

#![warn(missing_docs)]

pub mod builder;
pub mod engine;
pub mod event;
pub mod flows;
pub mod node;
pub mod registry;
pub mod runner;
pub mod scenarios;
pub mod traffic;
pub mod transport;

pub use builder::SimBuilder;
pub use engine::{EngineKind, EventQueue, Scheduled};
pub use flows::{evaluate_flows, FlowOutcome, TelemetryFlow};
pub use node::{NodeSpec, SimNode};
pub use registry::{fig1_curve, fig6_contrast, Scenario, ScenarioKnobs, ScenarioRun};
pub use runner::{series, DriftConfig, SimReport, Simulation};
pub use scenarios::{
    congestion, fleet, scale_fleet_builder, scale_fleet_sim_on, testbed_dust_config, testbed_nodes,
    testbed_topology, ChaosResult, CongestionResult, Fig1Row, Fig6Result, FleetResult,
};
pub use traffic::TrafficModel;
pub use transport::{FaultProfile, Transport, TransportStats};
