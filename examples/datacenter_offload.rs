//! Data-center offload walkthrough: the full DUST protocol lifecycle on
//! the Fig. 5 testbed — registration, STATs, placement, Offload-Request /
//! Offload-ACK, a destination failure with REP replica substitution, and
//! resource reclaim — driven by the discrete-event simulator.
//!
//! ```sh
//! cargo run -p dust --example datacenter_offload
//! ```

use dust::prelude::*;
use dust::sim::scenarios;

fn main() {
    let (graph, dut) = testbed_topology();
    println!(
        "testbed: {} nodes / {} links, DUT = n{}",
        graph.node_count(),
        graph.edge_count(),
        dut.0
    );

    // Build the simulation: the DUT runs the ten-agent deployment; the two
    // servers are idle offload targets. A destination failure at t = 60 s
    // (whichever server hosts the DUT's agents goes dark) exercises
    // keepalive → REP before the node revives at t = 120 s.
    let mut sim = Simulation::builder()
        .graph(graph)
        .nodes(scenarios::testbed_nodes(dut))
        .traffic(TrafficModel::testbed())
        .dust(scenarios::testbed_dust_config())
        .duration_ms(180_000) // 3 simulated minutes
        .full_monitoring_offload(true)
        .kill_at(60_000, NodeId(4))
        .revive_at(120_000, NodeId(4))
        .build()
        .expect("testbed knobs are consistent");

    let report = sim.run();

    println!("\n-- protocol activity --");
    println!("placement rounds with assignments: {}", report.placements_with_assignments);
    println!("offload transfers applied:         {}", report.transfers_applied);
    println!("REP replica substitutions:         {}", report.replicas_applied);
    println!("orphaned hostings:                 {}", report.orphaned);

    println!("\n-- DUT resource trajectory (device CPU %, 30 s buckets) --");
    let duration = report.end_ms;
    let mut t = 0;
    while t < duration {
        let end = (t + 30_000).min(duration);
        if let Some(cpu) = report.mean(dut, "device-cpu", t, end) {
            let mem = report.mean(dut, "device-mem", t, end).unwrap_or(f64::NAN);
            let bar = "#".repeat((cpu / 2.0) as usize);
            println!(
                "  [{:>3}s..{:>3}s] cpu {:5.1}%  mem {:5.1}%  {}",
                t / 1000,
                end / 1000,
                cpu,
                mem,
                bar
            );
        }
        t = end;
    }

    println!("\n-- where did the agents end up? --");
    for n in sim.nodes() {
        if !n.hosted_agents.is_empty() {
            let names: Vec<&str> = n.hosted_agents.iter().map(|(_, a)| a.kind.name()).collect();
            println!("  n{} hosts {} agents: {}", n.id.0, names.len(), names.join(", "));
        }
    }
    let dut_node = &sim.nodes()[dut.index()];
    println!(
        "  DUT keeps {} local agents, {} offloaded",
        dut_node.local_agents().len(),
        dut_node.remote_agents()
    );
}
