//! Validating construction for [`Simulation`], its only constructor.
//!
//! Every knob is a builder method, and [`SimBuilder::build`] cross-checks
//! the combination before any state is wired up: inconsistent settings
//! come back as a loud [`DustError::BadConfig`] naming the offending knob
//! instead of a panic deep inside the run loop (or, worse, a silently
//! meaningless result — the classic one being a lossy fault profile
//! without an explicit seed, which "works" but makes the run
//! irreproducible).
//!
//! ```
//! use dust_sim::{Simulation, SimNode, NodeSpec, TrafficModel};
//! use dust_topology::{topologies, Link, NodeId};
//!
//! let g = topologies::line(2, Link::default());
//! let nodes = vec![
//!     SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
//!     SimNode::bare(NodeId(1), NodeSpec::server()),
//! ];
//! let mut sim = Simulation::builder()
//!     .graph(g)
//!     .nodes(nodes)
//!     .traffic(TrafficModel::testbed())
//!     .duration_ms(10_000)
//!     .build()
//!     .expect("consistent knobs");
//! let report = sim.run();
//! assert!(report.end_ms > 0);
//! ```

use crate::node::SimNode;
use crate::runner::{DriftConfig, SimConfig, Simulation, StormConfig};
use crate::traffic::TrafficModel;
use crate::transport::FaultConfig;
use dust_core::{DustConfig, DustError};
use dust_obs::{ObsHandle, SloSpec};
use dust_topology::{Graph, NodeId};

/// Builder for [`Simulation`]; obtain one via [`Simulation::builder`].
///
/// Required: [`graph`](SimBuilder::graph) and [`nodes`](SimBuilder::nodes)
/// (one [`SimNode`] per vertex). Everything else defaults to the paper's
/// testbed parameters — a sample every second, two-minute runs — and
/// traffic to [`TrafficModel::testbed`]. The protocol's cadences are
/// fixed, not knobs: STATs every second, four seconds of keepalive
/// silence tolerated, a placement round every five seconds.
#[derive(Debug, Default)]
pub struct SimBuilder {
    graph: Option<Graph>,
    nodes: Vec<SimNode>,
    traffic: Option<TrafficModel>,
    cfg: SimConfig,
    /// Set when the caller picked a seed explicitly — a lossy fault
    /// profile without one is rejected as irreproducible.
    seed_set: bool,
    obs: Option<ObsHandle>,
    slo: Option<SloSpec>,
    kills: Vec<(u64, NodeId)>,
    revives: Vec<(u64, NodeId)>,
}

impl SimBuilder {
    pub(crate) fn new() -> Self {
        SimBuilder::default()
    }

    /// The network topology (required).
    pub fn graph(mut self, graph: Graph) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The per-vertex resource models (required; one per graph node, in
    /// node-id order).
    pub fn nodes(mut self, nodes: Vec<SimNode>) -> Self {
        self.nodes = nodes;
        self
    }

    /// Traffic evolution model (default: [`TrafficModel::testbed`]).
    pub fn traffic(mut self, traffic: TrafficModel) -> Self {
        self.traffic = Some(traffic);
        self
    }

    /// Placement thresholds and routing options.
    pub fn dust(mut self, dust: DustConfig) -> Self {
        self.cfg.dust = dust;
        self
    }

    /// Metric sampling cadence, ms.
    pub fn sample_period_ms(mut self, ms: u64) -> Self {
        self.cfg.sample_period_ms = ms;
        self
    }

    /// Total simulated time, ms.
    pub fn duration_ms(mut self, ms: u64) -> Self {
        self.cfg.duration_ms = ms;
        self
    }

    /// `false` runs the no-offload baseline (control plane gossips, no
    /// placement rounds).
    pub fn dust_enabled(mut self, enabled: bool) -> Self {
        self.cfg.dust_enabled = enabled;
        self
    }

    /// Per-link utilization jitter around the traffic model's base.
    pub fn link_jitter(mut self, jitter: f64) -> Self {
        self.cfg.link_jitter = jitter;
        self
    }

    /// Move the Busy node's entire deployment on accept (§V-A testbed
    /// semantics) instead of the granted capacity budget.
    pub fn full_monitoring_offload(mut self, full: bool) -> Self {
        self.cfg.full_monitoring_offload = full;
        self
    }

    /// Control-plane fault model. Non-ideal profiles require an explicit
    /// [`seed`](SimBuilder::seed) or `build` fails.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.cfg.faults = faults;
        self
    }

    /// Master seed (drives link jitter and the fault gate).
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self.seed_set = true;
        self
    }

    /// Attach an observability handle at construction time.
    pub fn obs(mut self, obs: ObsHandle) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Attach an online SLO engine for `spec` at construction time; its
    /// `overload_dwell` rules count CPU at or above the run's `c_max`.
    pub fn slo(mut self, spec: SloSpec) -> Self {
        self.slo = Some(spec);
        self
    }

    /// Attach a correlated failure storm: cascading overload kills on
    /// top of any scheduled [`kill_at`](SimBuilder::kill_at) injections.
    pub fn storm(mut self, storm: StormConfig) -> Self {
        self.cfg.storm = Some(storm);
        self
    }

    /// Attach continuous link/agent churn: seeded capacity and
    /// sampling-rate drift at a fixed cadence.
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.cfg.drift = Some(drift);
        self
    }

    /// Warm-start the Manager's solver from the previous round's basis
    /// (identical objectives, fewer pivots).
    pub fn warm_start(mut self, on: bool) -> Self {
        self.cfg.warm_start = on;
        self
    }

    /// Enable the Manager's delta-placement path: between full solves
    /// every `full_every` rounds, only flows whose `T_rmin` degraded
    /// past `threshold` (relative) are re-homed.
    pub fn delta_placement(mut self, threshold: f64, full_every: u64) -> Self {
        self.cfg.delta_threshold = Some(threshold);
        self.cfg.delta_full_every = full_every;
        self
    }

    /// Crash `node` at `at_ms`.
    pub fn kill_at(mut self, at_ms: u64, node: NodeId) -> Self {
        self.kills.push((at_ms, node));
        self
    }

    /// Revive `node` at `at_ms`.
    pub fn revive_at(mut self, at_ms: u64, node: NodeId) -> Self {
        self.revives.push((at_ms, node));
        self
    }

    /// Validate the knob combination and wire up the simulation.
    pub fn build(self) -> Result<Simulation, DustError> {
        let bad = |msg: String| Err(DustError::BadConfig(msg));
        let Some(graph) = self.graph else {
            return bad("a simulation needs a graph (SimBuilder::graph)".into());
        };
        if self.nodes.is_empty() {
            return bad("a simulation needs nodes (SimBuilder::nodes)".into());
        }
        if self.nodes.len() != graph.node_count() {
            return bad(format!(
                "node count mismatch: {} SimNodes for a {}-vertex graph",
                self.nodes.len(),
                graph.node_count()
            ));
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if n.id.index() != i {
                return bad(format!("nodes must be in id order: position {i} holds {:?}", n.id));
            }
        }
        let cfg = &self.cfg;
        if cfg.sample_period_ms == 0 {
            return bad("sample_period_ms must be positive".into());
        }
        if cfg.duration_ms == 0 {
            return bad("duration_ms must be positive".into());
        }
        if !cfg.link_jitter.is_finite() || !(0.0..=1.0).contains(&cfg.link_jitter) {
            return bad(format!("link_jitter must lie in [0, 1], got {}", cfg.link_jitter));
        }
        for (dir, p) in
            [("to_manager", &cfg.faults.to_manager), ("to_client", &cfg.faults.to_client)]
        {
            if !p.drop.is_finite()
                || !p.duplicate.is_finite()
                || !(0.0..=1.0).contains(&p.drop)
                || !(0.0..=1.0).contains(&p.duplicate)
            {
                return bad(format!(
                    "fault probabilities for {dir} must lie in [0, 1]: \
                     drop {} duplicate {}",
                    p.drop, p.duplicate
                ));
            }
        }
        if !cfg.faults.is_ideal() && !self.seed_set {
            return bad("a fault profile without an explicit seed is irreproducible: \
                 call SimBuilder::seed(...) alongside SimBuilder::faults(...)"
                .into());
        }
        cfg.dust.validate().map_err(DustError::BadConfig)?;
        if let Some(storm) = &cfg.storm {
            if !storm.cpu_threshold.is_finite() || storm.cpu_threshold <= 0.0 {
                return bad(format!(
                    "storm cpu_threshold must be a positive CPU percentage, got {}",
                    storm.cpu_threshold
                ));
            }
            if storm.max_cascades == 0 {
                return bad("a storm with max_cascades = 0 can never fire: drop the \
                     storm or give it a kill budget"
                    .into());
            }
        }
        if let Some(d) = &cfg.drift {
            if d.period_ms == 0 {
                return bad("drift period_ms must be positive".into());
            }
            if !d.capacity_swing.is_finite() || !(0.0..1.0).contains(&d.capacity_swing) {
                return bad(format!(
                    "drift capacity_swing must lie in [0, 1), got {}",
                    d.capacity_swing
                ));
            }
            if !(d.rate_floor.is_finite() && 0.0 < d.rate_floor && d.rate_floor <= 1.0) {
                return bad(format!("drift rate_floor must lie in (0, 1], got {}", d.rate_floor));
            }
            if d.links_per_tick == 0 && d.nodes_per_tick == 0 {
                return bad("drift with links_per_tick = 0 and nodes_per_tick = 0 never \
                     changes anything: drop the drift or give it work"
                    .into());
            }
        }
        if let Some(t) = cfg.delta_threshold {
            if !t.is_finite() || t < 0.0 {
                return bad(format!(
                    "delta_placement threshold must be finite and non-negative, got {t}"
                ));
            }
            if cfg.delta_full_every == 0 {
                return bad("delta_placement full_every must be at least 1: a cadence of 0 \
                     would never run a full solve"
                    .into());
            }
        }
        let n = graph.node_count();
        for &(_, node) in self.kills.iter().chain(self.revives.iter()) {
            if node.index() >= n {
                return bad(format!(
                    "kill/revive targets {node:?}, but the graph has only {n} nodes"
                ));
            }
        }
        let kills = self.kills.iter().map(|k| ("kill", k));
        for (what, &(at, node)) in kills.chain(self.revives.iter().map(|r| ("revive", r))) {
            if at > cfg.duration_ms {
                return bad(format!(
                    "{what} of {node:?} at {at} ms lands after duration_ms ({} ms)",
                    cfg.duration_ms
                ));
            }
        }

        let traffic = self.traffic.unwrap_or_else(TrafficModel::testbed);
        let mut sim = Simulation::assemble(graph, self.nodes, traffic, self.cfg);
        if let Some(obs) = self.obs {
            sim.set_obs(obs);
        }
        if let Some(spec) = self.slo {
            sim.set_slo(spec);
        }
        for (at, node) in self.kills {
            sim.inject_failure(at, node);
        }
        for (at, node) in self.revives {
            sim.inject_revival(at, node);
        }
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::transport::FaultProfile;
    use dust_topology::{topologies, Link};

    fn two_nodes() -> (Graph, Vec<SimNode>) {
        let g = topologies::line(2, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
        ];
        (g, nodes)
    }

    fn msg(err: DustError) -> String {
        match err {
            DustError::BadConfig(m) => m,
            other => panic!("expected BadConfig, got {other:?}"),
        }
    }

    #[test]
    fn minimal_valid_build_succeeds() {
        let (g, nodes) = two_nodes();
        let sim = Simulation::builder().graph(g).nodes(nodes).build();
        assert!(sim.is_ok());
    }

    #[test]
    fn missing_graph_is_loud() {
        let (_, nodes) = two_nodes();
        let err = msg(Simulation::builder().nodes(nodes).build().unwrap_err());
        assert!(err.contains("graph"), "{err}");
    }

    #[test]
    fn node_count_mismatch_is_loud() {
        let (g, mut nodes) = two_nodes();
        nodes.pop();
        let err = msg(Simulation::builder().graph(g).nodes(nodes).build().unwrap_err());
        assert!(err.contains("node count mismatch"), "{err}");
    }

    #[test]
    fn out_of_order_nodes_are_loud() {
        let (g, mut nodes) = two_nodes();
        nodes.swap(0, 1);
        let err = msg(Simulation::builder().graph(g).nodes(nodes).build().unwrap_err());
        assert!(err.contains("id order"), "{err}");
    }

    #[test]
    fn faults_without_seed_are_rejected() {
        let (g, nodes) = two_nodes();
        let faults = FaultConfig::symmetric(FaultProfile {
            drop: 0.1,
            duplicate: 0.0,
            delay_ms: 10,
            jitter_ms: 50,
        });
        let err = msg(Simulation::builder()
            .graph(g.clone())
            .nodes(nodes.clone())
            .faults(faults)
            .build()
            .unwrap_err());
        assert!(err.contains("seed"), "{err}");
        // the same profile with a seed is fine
        let ok = Simulation::builder().graph(g).nodes(nodes).faults(faults).seed(9).build();
        assert!(ok.is_ok());
    }

    #[test]
    fn out_of_range_fault_probability_is_loud() {
        let (g, nodes) = two_nodes();
        let faults = FaultConfig::symmetric(FaultProfile {
            drop: 1.5,
            duplicate: 0.0,
            delay_ms: 0,
            jitter_ms: 0,
        });
        let err = msg(Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .faults(faults)
            .seed(1)
            .build()
            .unwrap_err());
        assert!(err.contains("fault probabilities"), "{err}");
    }

    #[test]
    fn degenerate_periods_are_loud() {
        let (g, nodes) = two_nodes();
        let err = msg(Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .sample_period_ms(0)
            .build()
            .unwrap_err());
        assert!(err.contains("sample_period_ms"), "{err}");
    }

    #[test]
    fn link_jitter_outside_unit_interval_is_loud() {
        let (g, nodes) = two_nodes();
        let err =
            msg(Simulation::builder().graph(g).nodes(nodes).link_jitter(1.5).build().unwrap_err());
        assert!(err.contains("link_jitter"), "{err}");
    }

    #[test]
    fn kill_of_unknown_node_is_loud() {
        let (g, nodes) = two_nodes();
        let err = msg(Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .kill_at(1_000, NodeId(7))
            .build()
            .unwrap_err());
        assert!(err.contains("kill/revive"), "{err}");
    }

    #[test]
    fn kill_after_duration_is_loud() {
        // a kill or a revive past the end would never fire
        let (g, nodes) = two_nodes();
        let late_kill = Simulation::builder().kill_at(20_000, NodeId(1));
        let late_revive =
            Simulation::builder().kill_at(5_000, NodeId(1)).revive_at(20_000, NodeId(1));
        for (b, what) in [(late_kill, "kill"), (late_revive, "revive")] {
            let err = msg(b
                .graph(g.clone())
                .nodes(nodes.clone())
                .duration_ms(10_000)
                .build()
                .unwrap_err());
            assert_eq!(
                err,
                format!("{what} of NodeId(1) at 20000 ms lands after duration_ms (10000 ms)"),
                "{err}"
            );
        }
        // the last instant of the run is inside it
        let (g, nodes) = two_nodes();
        let at_end = Simulation::builder().kill_at(10_000, NodeId(1)).revive_at(10_000, NodeId(1));
        assert!(at_end.graph(g).nodes(nodes).duration_ms(10_000).build().is_ok());
    }

    #[test]
    fn storm_knobs_are_validated() {
        use crate::runner::StormConfig;
        let storm = |cpu_threshold: f64, max_cascades: usize| StormConfig {
            cpu_threshold,
            start_ms: 0,
            cascade_delay_ms: 1_000,
            max_cascades,
        };
        let (g, nodes) = two_nodes();
        let err = msg(Simulation::builder()
            .graph(g.clone())
            .nodes(nodes.clone())
            .storm(storm(f64::NAN, 2))
            .build()
            .unwrap_err());
        assert!(err.contains("cpu_threshold"), "{err}");
        let err = msg(Simulation::builder()
            .graph(g.clone())
            .nodes(nodes.clone())
            .storm(storm(30.0, 0))
            .build()
            .unwrap_err());
        assert!(err.contains("max_cascades"), "{err}");
        assert!(Simulation::builder().graph(g).nodes(nodes).storm(storm(30.0, 2)).build().is_ok());
    }

    #[test]
    fn obs_and_slo_attach_through_the_builder() {
        use dust_obs::{ObsHandle, SloSpec};
        let (g, nodes) = two_nodes();
        let obs = ObsHandle::recording(1);
        let sim = Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .obs(obs.clone())
            .slo(SloSpec::parse("convergence<=10000").unwrap())
            .build()
            .unwrap();
        assert!(sim.obs().is_enabled());
        assert!(sim.slo().is_some());
    }
}
