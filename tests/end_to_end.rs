//! Full-system end-to-end tests on the discrete-event simulator: the whole
//! stack (topology → telemetry cost model → protocol → optimizer → physical
//! agent movement) must reproduce the paper's headline behaviours.

use dust::prelude::*;
use dust::sim::scenarios;

#[test]
fn fig6_cpu_and_memory_reductions() {
    let r = fig6_contrast(120_000, 2024);
    assert!(r.transfers > 0, "DUST must offload in the testbed scenario");
    // Paper: CPU 31 % → 15 % (≈ 52 % less), memory 70 % → 62 % (≈ 12 % less).
    assert!((r.local_cpu - 31.0).abs() < 3.0, "local cpu {}", r.local_cpu);
    assert!(r.dust_cpu < 18.0, "dust cpu {}", r.dust_cpu);
    assert!(r.cpu_reduction_percent() > 40.0, "cpu cut {}", r.cpu_reduction_percent());
    assert!((r.local_mem - 70.0).abs() < 3.0, "local mem {}", r.local_mem);
    assert!((r.dust_mem - 62.0).abs() < 3.0, "dust mem {}", r.dust_mem);
    assert!(
        r.mem_reduction_percent() > 7.0 && r.mem_reduction_percent() < 20.0,
        "mem cut {}",
        r.mem_reduction_percent()
    );
}

#[test]
fn fig1_shape_monotone_with_spikes() {
    let rows = fig1_curve(&[0.0, 0.05, 0.1, 0.15, 0.2], 61_000, 9);
    // CPU grows monotonically with traffic
    for w in rows.windows(2) {
        assert!(w[1].mean_cpu_percent > w[0].mean_cpu_percent);
    }
    // at the paper's 20 % line rate: ~100 % steady average, ~600 % spikes
    let top = rows.last().unwrap();
    assert!(top.mean_cpu_percent > 90.0, "mean {}", top.mean_cpu_percent);
    assert!(
        top.peak_cpu_percent > 500.0 && top.peak_cpu_percent < 700.0,
        "peak {}",
        top.peak_cpu_percent
    );
}

#[test]
fn destination_failure_is_survived() {
    let (graph, dut) = testbed_topology();
    let mut sim = Simulation::builder()
        .graph(graph)
        .nodes(scenarios::testbed_nodes(dut))
        .traffic(TrafficModel::testbed())
        .dust(scenarios::testbed_dust_config())
        .duration_ms(120_000)
        .full_monitoring_offload(true)
        // kill a server mid-run; the fleet must re-home or orphan cleanly
        .kill_at(40_000, NodeId(4))
        .build()
        .expect("testbed knobs are consistent");
    let report = sim.run();
    // agents are conserved: 10 total, somewhere
    let hosted_elsewhere: usize =
        sim.nodes().iter().map(|n| n.hosted_agents.iter().filter(|(o, _)| *o == dut).count()).sum();
    let local = sim.nodes()[dut.index()].local_agents().len();
    assert_eq!(local + hosted_elsewhere, 10, "agents lost or duplicated");
    // if the failed node was the host, a replica substitution happened
    if report.replicas_applied > 0 {
        assert!(sim.nodes()[4].hosted_agents.is_empty(), "failed node must no longer host");
    }
}

#[test]
fn baseline_run_keeps_everything_local() {
    let (graph, dut) = testbed_topology();
    let mut sim = Simulation::builder()
        .graph(graph)
        .nodes(scenarios::testbed_nodes(dut))
        .traffic(TrafficModel::testbed())
        .dust(scenarios::testbed_dust_config())
        .dust_enabled(false)
        .duration_ms(60_000)
        .build()
        .expect("testbed knobs are consistent");
    let report = sim.run();
    assert_eq!(report.transfers_applied, 0);
    assert_eq!(sim.nodes()[dut.index()].local_agents().len(), 10);
    // metric series were still recorded
    assert!(report.mean(dut, "device-cpu", 0, 60_000).is_some());
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let build = || {
        let (graph, dut) = testbed_topology();
        Simulation::builder()
            .graph(graph)
            .nodes(scenarios::testbed_nodes(dut))
            .traffic(TrafficModel::testbed())
            .dust(scenarios::testbed_dust_config())
            .duration_ms(60_000)
            .full_monitoring_offload(true)
            .seed(31)
            .build()
            .expect("testbed knobs are consistent")
    };
    let r1 = build().run();
    let r2 = build().run();
    let (_, dut) = testbed_topology();
    assert_eq!(r1.transfers_applied, r2.transfers_applied);
    assert_eq!(r1.mean(dut, "device-cpu", 0, 60_000), r2.mean(dut, "device-cpu", 0, 60_000));
    assert_eq!(r1.mean(dut, "device-mem", 0, 60_000), r2.mean(dut, "device-mem", 0, 60_000));
}

#[test]
fn diurnal_traffic_drives_offload_and_reclaim() {
    // a traffic wave that pushes the DUT over threshold only at the peak:
    // the system should offload at the peak; the Busy node's demand then
    // falls with the trough, enabling reclaim (Release) — verify at least
    // that transfers happen and the run stays consistent.
    let (graph, dut) = testbed_topology();
    let traffic = TrafficModel::Diurnal {
        mean: 0.12,
        amplitude: 0.1,
        period_ms: 120_000,
        noise: 0.0,
        seed: 0,
    };
    let mut sim = Simulation::builder()
        .graph(graph)
        .nodes(scenarios::testbed_nodes(dut))
        .traffic(traffic)
        .dust(scenarios::testbed_dust_config())
        .duration_ms(240_000)
        .build()
        .expect("testbed knobs are consistent");
    let report = sim.run();
    assert!(report.transfers_applied > 0, "peak traffic must trigger offload");
    // conservation again
    let hosted: usize =
        sim.nodes().iter().map(|n| n.hosted_agents.iter().filter(|(o, _)| *o == dut).count()).sum();
    assert_eq!(sim.nodes()[dut.index()].local_agents().len() + hosted, 10);
}

#[test]
fn telemetry_flows_recorded_without_loss_on_idle_fabric() {
    // the testbed fabric at 20 % load has ample headroom: offloaded
    // telemetry must flow with zero drops, and the series must exist
    let (graph, dut) = testbed_topology();
    let mut sim = Simulation::builder()
        .graph(graph)
        .nodes(scenarios::testbed_nodes(dut))
        .traffic(TrafficModel::testbed())
        .dust(scenarios::testbed_dust_config())
        .duration_ms(60_000)
        .full_monitoring_offload(true)
        .build()
        .expect("testbed knobs are consistent");
    let report = sim.run();
    assert!(report.transfers_applied > 0);
    let db = report.federation.store(dut).expect("DUT records flow series");
    let admitted = db.series("telemetry-admitted-mbps").expect("admitted series");
    assert!(!admitted.is_empty());
    assert!(admitted.points().iter().all(|p| p.value > 0.0));
    let dropped = db.series("telemetry-dropped").expect("dropped series");
    assert!(
        dropped.points().iter().all(|p| p.value == 0.0),
        "no congestion loss expected on an idle fabric"
    );
}

#[test]
fn lossy_control_plane_end_to_end() {
    // the whole stack under a hostile control plane: 25 % drop, 10 %
    // duplication, 120 ms of jitter-driven reordering. The retry/expiry
    // machinery must still offload, never lose a monitor agent, and
    // leave Manager and Client ledgers agreeing once traffic settles.
    let knobs = ScenarioKnobs { duration_ms: Some(180_000), ..ScenarioKnobs::seeded(99) };
    let (r, _) = registry::chaos(
        FaultProfile { drop: 0.25, duplicate: 0.1, delay_ms: 20, jitter_ms: 120 },
        &knobs,
    );
    assert!(r.msgs_dropped > 0, "fault gate must actually fire");
    assert!(r.transfers > 0, "offloading must survive 25 % loss");
    assert_eq!(r.agents_present, r.agents_expected, "monitor agents conserved");
    assert_eq!(r.unconfirmed_stale, 0, "no offer outlives its retry budget");
    assert!(r.ledgers_consistent, "manager and client ledgers diverged");

    // determinism across the full e2e path
    let (again, _) = registry::chaos(
        FaultProfile { drop: 0.25, duplicate: 0.1, delay_ms: 20, jitter_ms: 120 },
        &knobs,
    );
    assert_eq!(r, again, "same seed must reproduce identical counters");
}
