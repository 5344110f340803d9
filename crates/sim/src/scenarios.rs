//! Shared testbed fixtures and the fat-tree fleet workloads.
//!
//! [`testbed_topology`] mirrors Fig. 5's small VxLAN data-center prototype:
//! a spine/leaf fabric where the DUT (an Aruba 8325-class leaf) runs the
//! ten-agent monitoring deployment and neighboring servers offer spare
//! compute. The named canned workloads, the Fig. 1 / Fig. 6 experiment
//! helpers and the fault-parameterized [`crate::registry::chaos`] run live
//! in [`crate::registry`]; this module keeps the fixtures they are
//! assembled from, their result types, and the workloads that are not
//! registry entries ([`fleet`], [`congestion`], [`scale_fleet_sim_on`]).

use crate::builder::SimBuilder;
use crate::engine::EngineKind;
use crate::node::{NodeSpec, SimNode};
use crate::registry::{offload_builder, testbed_builder, ScenarioKnobs};
use crate::runner::Simulation;
use crate::traffic::TrafficModel;
use dust_core::DustConfig;
use dust_obs::ObsHandle;
use dust_topology::{FatTree, Graph, Link, NodeId, Tier};

/// The Fig. 5 testbed: 2 spines, 2 leaves, 2 servers. Returns the graph
/// and the DUT's node id (leaf 0).
///
/// ```text
///   spine0 ─┬─ leaf0 (DUT) ─ server0
///           │      ╳
///   spine1 ─┴─ leaf1        ─ server1
/// ```
pub fn testbed_topology() -> (Graph, NodeId) {
    let mut g = Graph::with_nodes(6);
    let link = Link::new(25_000.0, 0.2); // 25G fabric at testbed load
    let (s0, s1, l0, l1, srv0, srv1) =
        (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(5));
    for spine in [s0, s1] {
        for leaf in [l0, l1] {
            g.add_edge(spine, leaf, link);
        }
    }
    g.add_edge(l0, srv0, Link::new(10_000.0, 0.2));
    g.add_edge(l1, srv1, Link::new(10_000.0, 0.2));
    (g, l0)
}

/// SimNodes matching [`testbed_topology`]: switches run monitoring (the
/// DUT with the full ten agents), servers are bare offload targets.
pub fn testbed_nodes(dut: NodeId) -> Vec<SimNode> {
    (0..6u32)
        .map(|i| {
            let id = NodeId(i);
            if id == dut {
                SimNode::with_standard_agents(id, NodeSpec::aruba_8325())
            } else if i >= 4 {
                SimNode::bare(id, NodeSpec::server())
            } else {
                SimNode::bare(id, NodeSpec::aruba_8325())
            }
        })
        .collect()
}

/// Thresholds used for the testbed runs: the DUT's ≈ 31 % local reading
/// must classify as Busy while the idle servers qualify as candidates.
pub fn testbed_dust_config() -> DustConfig {
    DustConfig::paper_defaults().with_thresholds(20.0, 15.0, 1.0)
}

/// One Fig. 1 measurement row.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Row {
    /// Offered VxLAN traffic, fraction of line rate.
    pub traffic_fraction: f64,
    /// Mean monitoring-module CPU, percent of one core.
    pub mean_cpu_percent: f64,
    /// Peak (burst) monitoring CPU observed.
    pub peak_cpu_percent: f64,
}

/// Fig. 6 result: device-level CPU/memory with local monitoring vs DUST.
#[derive(Debug, Clone, Copy)]
pub struct Fig6Result {
    /// Mean DUT CPU %, monitoring local.
    pub local_cpu: f64,
    /// Mean DUT CPU %, monitoring offloaded by DUST.
    pub dust_cpu: f64,
    /// Mean DUT memory %, monitoring local.
    pub local_mem: f64,
    /// Mean DUT memory %, monitoring offloaded.
    pub dust_mem: f64,
    /// Offload transfers the DUST run applied.
    pub transfers: usize,
}

impl Fig6Result {
    /// Relative CPU reduction, percent (paper: ≈ 52 %).
    pub fn cpu_reduction_percent(&self) -> f64 {
        100.0 * (self.local_cpu - self.dust_cpu) / self.local_cpu
    }

    /// Relative memory reduction, percent (paper: ≈ 12 %).
    pub fn mem_reduction_percent(&self) -> f64 {
        100.0 * (self.local_mem - self.dust_mem) / self.local_mem
    }
}

/// Outcome of the fleet scenario.
#[derive(Debug, Clone, Copy)]
pub struct FleetResult {
    /// Switches that ran monitoring at the start.
    pub monitored: usize,
    /// Offload transfers applied across the run.
    pub transfers: usize,
    /// Mean device CPU over monitored switches, first 10 % of the run.
    pub early_mean_cpu: f64,
    /// Mean device CPU over monitored switches, settled tail (last half).
    pub late_mean_cpu: f64,
    /// Monitored switches still above the Busy threshold at the end.
    pub still_busy: usize,
}

/// A `k`-port fat-tree whose *edge* switches run the full ten-agent
/// deployment (DUT-class hardware) while aggregation/core switches are
/// lightly loaded candidates. Returns the tree, its edge tier and the
/// matching SimNodes.
pub(crate) fn monitored_fat_tree(k: usize) -> (FatTree, Vec<NodeId>, Vec<SimNode>) {
    let ft = FatTree::new(k, Link::new(25_000.0, 0.2));
    let edges = ft.tier_nodes(Tier::Edge);
    let nodes = ft
        .graph
        .nodes()
        .map(|n| {
            if edges.contains(&n) {
                SimNode::with_standard_agents(n, NodeSpec::aruba_8325())
            } else {
                SimNode::bare(n, NodeSpec::dpu())
            }
        })
        .collect();
    (ft, edges, nodes)
}

/// Fleet scenario: DUST on a `k`-port fat-tree where every *edge* switch
/// runs the full ten-agent deployment. Exercises many simultaneous Busy
/// nodes, shared destinations, and repeated placement rounds — the "at
/// scale" claim of the abstract.
pub fn fleet(k: usize, duration_ms: u64, seed: u64) -> FleetResult {
    let (ft, edges, nodes) = monitored_fat_tree(k);
    let mut sim = offload_builder(ft.graph, nodes, &ScenarioKnobs::seeded(seed), duration_ms)
        .build()
        .expect("fleet knobs are consistent");
    let report = sim.run();

    let window = |start: u64, end: u64| -> f64 {
        let vals: Vec<f64> =
            edges.iter().filter_map(|&e| report.mean(e, "device-cpu", start, end)).collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    };
    let dust_cfg = testbed_dust_config();
    let still_busy = edges
        .iter()
        .filter(|&&e| {
            let n = &sim.nodes()[e.index()];
            n.device_cpu_percent(duration_ms, 0.2) >= dust_cfg.c_max
        })
        .count();
    FleetResult {
        monitored: edges.len(),
        transfers: report.transfers_applied,
        early_mean_cpu: window(0, duration_ms / 10),
        late_mean_cpu: window(duration_ms / 2, duration_ms),
        still_busy,
    }
}

/// Outcome of the congestion scenario.
#[derive(Debug, Clone, Copy)]
pub struct CongestionResult {
    /// Mean fraction of offloaded telemetry discarded during the squeeze.
    pub dropped_during_congestion: f64,
    /// Mean fraction discarded before the squeeze.
    pub dropped_before: f64,
    /// Mean admitted telemetry rate during the squeeze, Mbps.
    pub admitted_during: f64,
}

/// Congestion scenario: offload normally, then drive the fabric to
/// near-saturation mid-run. The §III-C QoS guarantee requires offloaded
/// telemetry to be "safely discarded in the event of network congestion"
/// while the data plane is untouched — measured via the flow-transport
/// series the runner records.
pub fn congestion(duration_ms: u64, seed: u64) -> CongestionResult {
    let (_, dut) = testbed_topology();
    let squeeze_from = duration_ms / 2;
    // traffic ramps from the normal 20 % to a 99.9 % squeeze by mid-run,
    // then holds saturated for the whole second half
    let traffic = TrafficModel::Ramp { from: 0.2, to: 0.999, duration_ms: squeeze_from.max(1) };
    let mut sim = testbed_builder(&ScenarioKnobs::seeded(seed), duration_ms)
        .traffic(traffic)
        .link_jitter(0.0)
        .build()
        .expect("congestion knobs are consistent");
    let report = sim.run();
    let dropped = |a: u64, b: u64| {
        report
            .federation
            .store(dut)
            .and_then(|db| db.series("telemetry-dropped"))
            .and_then(|s| s.mean(a, b))
            .unwrap_or(0.0)
    };
    let admitted = report
        .federation
        .store(dut)
        .and_then(|db| db.series("telemetry-admitted-mbps"))
        .and_then(|s| s.mean(squeeze_from + duration_ms / 4, duration_ms))
        .unwrap_or(0.0);
    CongestionResult {
        dropped_during_congestion: dropped(squeeze_from + duration_ms / 4, duration_ms),
        dropped_before: dropped(0, squeeze_from / 2),
        admitted_during: admitted,
    }
}

/// Outcome of one chaos run: the testbed under a lossy control plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosResult {
    /// Uniform drop probability applied in both directions.
    pub loss: f64,
    /// Offload transfers physically applied.
    pub transfers: usize,
    /// REP replica substitutions applied.
    pub replicas: usize,
    /// Envelopes through the fault gate.
    pub msgs_sent: u64,
    /// Envelopes the gate dropped.
    pub msgs_dropped: u64,
    /// Extra copies the gate injected.
    pub msgs_duplicated: u64,
    /// Offer retransmissions the Manager performed.
    pub offer_retries: u64,
    /// Offers abandoned after exhausting their retries.
    pub offers_abandoned: u64,
    /// When the first transfer landed, ms (None = handshake never closed).
    pub first_transfer_ms: Option<u64>,
    /// Monitor agents the DUT deployment started with.
    pub agents_expected: usize,
    /// Monitor agents accounted for at the end (local + hosted anywhere).
    pub agents_present: usize,
    /// Unconfirmed hostings older than the full retry budget at the end —
    /// must be zero or offers are leaking.
    pub unconfirmed_stale: usize,
    /// Manager and client ledgers mutually consistent at the end.
    pub ledgers_consistent: bool,
}

/// How many copies of the standard ten-agent deployment every switch in
/// [`scale_fleet_sim_on`] carries: a deep per-node monitoring stack whose
/// resource model a naive loop would re-walk on every emission and
/// sample, and the event core walks once per deployment and traffic value.
pub const SCALE_FLEET_AGENT_COPIES: usize = 40;

/// The interned deployment record every [`scale_fleet_sim_on`] switch shares:
/// [`SCALE_FLEET_AGENT_COPIES`] copies of the standard ten-agent
/// deployment, built **once** per fleet. Before interning, construction
/// materialised this 400-struct vector separately for each of the
/// 10 125 nodes at `k = 90` (4 M owned agent structs); now every node
/// holds an `Arc` to this one record and only detaches onto a private
/// copy if something actually mutates its agent list (which the quiet
/// scale_fleet control plane never does).
pub fn scale_fleet_deployment() -> std::sync::Arc<Vec<dust_telemetry::MonitorAgent>> {
    use dust_telemetry::MonitorAgent;
    std::sync::Arc::new(
        (0..SCALE_FLEET_AGENT_COPIES).flat_map(|_| MonitorAgent::standard_deployment()).collect(),
    )
}

/// The core-overhead bench scenario, configured but not built: a `k`-port
/// fat-tree where *every* switch is a many-core telemetry appliance
/// carrying [`SCALE_FLEET_AGENT_COPIES`] copies of the standard monitoring
/// deployment. The core count keeps device-level CPU far below the Busy
/// threshold, so the placement control plane stays quiet and the run is
/// dominated by the per-event machinery — resource-model walks over the
/// deep agent stacks, link-state application, sampling — not by protocol
/// traffic. At `k = 90` this is a 10 125-node fleet processing > 100 000
/// events over a 10-second run — the `fleet_sim_k90` benchmark workload,
/// whose ruler pins this signature. Pass [`ObsHandle::disabled`] for the
/// plain run; the assembled fleet is bit-identical either way. `build`
/// fails with [`dust_core::DustError::BadConfig`] on a knob the builder
/// rejects, such as a zero `duration_ms`.
pub fn scale_fleet_builder(k: usize, duration_ms: u64, seed: u64, obs: ObsHandle) -> SimBuilder {
    let ft = FatTree::new(k, Link::new(25_000.0, 0.2));
    let appliance =
        NodeSpec { cpu_cores: 4096.0, mem_gib: 4096.0, base_cpu_percent: 14.0, base_mem_gib: 9.6 };
    let deployment = scale_fleet_deployment();
    let nodes: Vec<SimNode> = ft
        .graph
        .nodes()
        .map(|n| SimNode::with_shared_agents(n, appliance, std::sync::Arc::clone(&deployment)))
        .collect();
    // paper-default thresholds, so nobody classifies Busy
    let dust = DustConfig::paper_defaults();
    Simulation::builder()
        .graph(ft.graph)
        .nodes(nodes)
        .traffic(TrafficModel::testbed())
        .dust(dust)
        .duration_ms(duration_ms)
        .sample_period_ms(150)
        .seed(seed)
        .obs(obs)
}

/// [`scale_fleet_builder`], built — assembled but not run, so the
/// benchmark can time [`Simulation::run`] apart from fleet construction.
/// `engine` selects nothing: see [`EngineKind`].
///
/// # Panics
/// On a knob the builder rejects, such as a zero `duration_ms`.
pub fn scale_fleet_sim_on(
    k: usize,
    duration_ms: u64,
    seed: u64,
    obs: ObsHandle,
    engine: EngineKind,
) -> Simulation {
    let EngineKind::Event = engine;
    scale_fleet_builder(k, duration_ms, seed, obs).build().expect("scale knobs are consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::chaos;
    use crate::transport::{FaultConfig, FaultProfile};
    use dust_obs::SloSpec;

    #[test]
    fn testbed_shape() {
        let (g, dut) = testbed_topology();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        assert!(g.is_connected());
        assert_eq!(dut, NodeId(2));
        // DUT touches both spines and its server
        assert_eq!(g.degree(dut), 3);
    }

    #[test]
    fn congestion_discards_offloaded_telemetry_first() {
        let r = congestion(120_000, 3);
        assert!(
            r.dropped_before < 0.05,
            "telemetry must flow freely at 20 % load, dropped {}",
            r.dropped_before
        );
        assert!(
            r.dropped_during_congestion > 0.5,
            "near-saturation must squeeze telemetry hard, dropped {}",
            r.dropped_during_congestion
        );
        assert!(
            r.admitted_during < 50.0,
            "admitted telemetry must collapse under the squeeze: {} Mbps",
            r.admitted_during
        );
    }

    #[test]
    fn fleet_offloads_many_switches() {
        let r = fleet(4, 90_000, 13);
        assert_eq!(r.monitored, 8, "4-k fat-tree has 8 edge switches");
        assert!(r.transfers >= 4, "most edge switches must offload, got {}", r.transfers);
        assert!(
            r.late_mean_cpu < r.early_mean_cpu - 5.0,
            "fleet CPU must settle lower: early {:.1} late {:.1}",
            r.early_mean_cpu,
            r.late_mean_cpu
        );
        assert!(r.still_busy <= 2, "{} switches never de-busied", r.still_busy);
    }

    #[test]
    fn chaos_slo_engine_is_a_pure_observer_and_catches_loss() {
        let faults = FaultConfig::symmetric(FaultProfile {
            drop: 0.25,
            duplicate: 0.125,
            delay_ms: 20,
            jitter_ms: 100,
        });
        let knobs = ScenarioKnobs { duration_ms: Some(60_000), ..ScenarioKnobs::seeded(9) };
        let (plain, _) = chaos(faults, &knobs);
        // thresholds tight enough that a 25 % lossy wire must trip them
        let spec = SloSpec::parse("retransmit_rate<=0.0,convergence<=1").unwrap();
        let watched_knobs =
            ScenarioKnobs { obs: ObsHandle::recording(9), slo_override: Some(spec), ..knobs };
        let (watched, engine) = chaos(faults, &watched_knobs);
        let engine = engine.expect("slo_override attaches an engine");
        assert_eq!(plain, watched, "SLO engine must not perturb the run");
        assert!(engine.breached(), "a lossy wire must breach a zero-retransmit budget");
        assert!(engine.report().contains("breach rule="), "{}", engine.report());
    }

    #[test]
    fn chaos_counters_bit_identical_per_seed() {
        let faults = FaultConfig::symmetric(FaultProfile::chaos(0.25));
        let knobs = ScenarioKnobs { duration_ms: Some(60_000), ..ScenarioKnobs::seeded(9) };
        let (a, _) = chaos(faults, &knobs);
        let (b, _) = chaos(faults, &knobs);
        assert_eq!(a, b, "same seed must reproduce every counter bit-for-bit");
    }

    #[test]
    fn scale_fleet_stays_idle() {
        // small k keeps the test fast; the bench binary runs the real k=90
        let ev = scale_fleet_sim_on(4, 3_000, 9, ObsHandle::disabled(), EngineKind::Event).run();
        // under paper-default thresholds nobody classifies Busy…
        assert_eq!(ev.transfers_applied, 0, "paper defaults must not trigger offload");
        // …but the STAT pipeline runs fleet-wide
        assert!(ev.events_processed > 100);
        assert_eq!(ev.end_ms, 3_000);
    }

    #[test]
    fn a_quiet_fleet_keeps_one_topology_and_a_written_one_splits() {
        use std::sync::Arc;
        // nobody goes Busy, so no flow is routed and no link written: the
        // simulator and the Manager end the run on the allocation they
        // started on, and no snapshot outlived its round
        let mut sim = scale_fleet_sim_on(8, 10_000, 1, ObsHandle::disabled(), EngineKind::Event);
        assert!(Arc::ptr_eq(&sim.graph, sim.manager().graph()));
        let report = sim.run();
        assert_eq!((report.placement_rounds, report.transfers_applied), (2, 0));
        assert!(Arc::ptr_eq(&sim.graph, sim.manager().graph()));
        assert_eq!(Arc::strong_count(&sim.graph), 2, "one Graph alive, held twice");

        // the testbed routes telemetry flows, so the simulator writes link
        // load to its view; churn also drifts capacities, on both views
        for name in ["testbed", "churn"] {
            let scenario = crate::registry::find(name).expect("registered");
            let mut sim = scenario.build_unwatched(&ScenarioKnobs::seeded(17)).expect("builds");
            assert!(Arc::ptr_eq(&sim.graph, sim.manager().graph()), "{name}");
            let report = sim.run();
            assert!(report.transfers_applied > 0, "{name}");
            assert!(!Arc::ptr_eq(&sim.graph, sim.manager().graph()), "{name}: a write splits");
            let (ours, theirs) = (sim.graph.edges(), sim.manager().graph().edges());
            assert!(
                ours.iter().zip(theirs).all(|(a, b)| a.link.capacity_mbps == b.link.capacity_mbps),
                "{name}: capacity drift lands on both views"
            );
            assert!(
                ours.iter().zip(theirs).any(|(a, b)| a.link.utilization != b.link.utilization),
                "{name}: traffic load lands on the simulator's view only"
            );
        }
    }

    #[test]
    fn scale_fleet_shares_one_deployment_record() {
        let sim = scale_fleet_sim_on(8, 1_000, 1, ObsHandle::disabled(), EngineKind::Event);
        // the quiet control plane never mutates an agent list, so every
        // node must still point at the single interned record
        assert!(sim.nodes().iter().all(|n| n.agents_interned()));
        assert!(sim
            .nodes()
            .iter()
            .all(|n| n.local_agents().len() == 10 * SCALE_FLEET_AGENT_COPIES));
    }

    #[test]
    fn interned_fleet_construction_beats_owned_copies() {
        use dust_telemetry::MonitorAgent;
        use std::time::{Duration, Instant};
        // the pre-interning construction path: 400 owned agent structs
        // materialised per node, exactly what scale_fleet_sim_on used to do
        let appliance = NodeSpec {
            cpu_cores: 4096.0,
            mem_gib: 4096.0,
            base_cpu_percent: 14.0,
            base_mem_gib: 9.6,
        };
        let n_nodes = 2_000usize;
        let owned_build = || -> Vec<SimNode> {
            (0..n_nodes)
                .map(|i| {
                    let mut node = SimNode::with_standard_agents(NodeId(i as u32), appliance);
                    for _ in 1..SCALE_FLEET_AGENT_COPIES {
                        node.local_agents_mut().extend(MonitorAgent::standard_deployment());
                    }
                    node.note_agents_changed();
                    node
                })
                .collect()
        };
        let interned_build = || -> Vec<SimNode> {
            let record = scale_fleet_deployment();
            (0..n_nodes)
                .map(|i| {
                    SimNode::with_shared_agents(
                        NodeId(i as u32),
                        appliance,
                        std::sync::Arc::clone(&record),
                    )
                })
                .collect()
        };
        let best_of = |build: &dyn Fn() -> Vec<SimNode>| -> Duration {
            (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    let nodes = build();
                    let dt = t0.elapsed();
                    assert_eq!(nodes.len(), n_nodes);
                    dt
                })
                .min()
                .unwrap()
        };
        let owned = best_of(&owned_build);
        let interned = best_of(&interned_build);
        eprintln!(
            "fleet build, {n_nodes} nodes x {} agents: owned {owned:?}, interned {interned:?}",
            10 * SCALE_FLEET_AGENT_COPIES
        );
        // one Arc bump per node vs 400 struct copies per node: the interned
        // path wins by orders of magnitude, so a plain < is noise-proof
        assert!(
            interned < owned,
            "interned construction ({interned:?}) must beat per-node copies ({owned:?})"
        );
        // and the two fleets price identically
        let a = owned_build();
        let b = interned_build();
        assert_eq!(a[0].raw_agent_cpu(0.2), b[0].raw_agent_cpu(0.2));
        assert_eq!(a[0].device_mem_percent(), b[0].device_mem_percent());
        assert_eq!(a[0].data_mb(0.2), b[0].data_mb(0.2));
    }
}
