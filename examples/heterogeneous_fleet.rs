//! Heterogeneous fleet: DPUs, servers, and switches with different
//! platform capacities (the κ coefficient of §IV-A's industry note).
//!
//! ```sh
//! cargo run -p dust --example heterogeneous_fleet
//! ```

use dust::prelude::*;
use dust::topology::topologies;

fn main() {
    // Leaf-spine fabric: 2 spines, 3 leaves, 2 servers per leaf.
    let graph = topologies::leaf_spine(2, 3, 2, Link::new(25_000.0, 0.3));
    println!("leaf-spine fabric: {} nodes / {} links", graph.node_count(), graph.edge_count());

    // Node mix: the first leaf (node 2) is overloaded. Servers are beefier
    // platforms: one offloaded percent only costs them κ = 0.4; one spine
    // runs legacy firmware and refuses offloading entirely.
    let states: Vec<NodeState> = graph
        .nodes()
        .map(|n| match n.0 {
            0 => NodeState::new(30.0, 5.0),                  // spine 0: candidate
            1 => NodeState::new(30.0, 5.0).non_offloading(), // spine 1: legacy
            2 => NodeState::new(90.0, 220.0),                // leaf 0: Busy, Cs = 10
            3 | 4 => NodeState::new(60.0, 5.0),              // other leaves: neutral
            _ => NodeState::new(20.0, 2.0).with_capacity_factor(0.4), // servers
        })
        .collect();
    let nmdb = Nmdb::new(graph, states);
    let cfg = DustConfig::paper_defaults(); // C_max 80, CO_max 50

    println!("\n-- roles --");
    for n in nmdb.graph.nodes() {
        println!(
            "  node {}  util {:5.1}%  κ {:.1}  {:?}  (Cs {:.1} / Cd {:.1})",
            n.0,
            nmdb.state(n).utilization,
            nmdb.state(n).capacity_factor,
            nmdb.role(n, &cfg),
            nmdb.cs(n, &cfg),
            nmdb.cd(n, &cfg),
        );
    }

    // Continuous placement: κ = 0.4 servers absorb 2.5x their headroom in
    // source units, so they dominate the solution.
    let p = optimize(&nmdb, &cfg);
    println!("\n-- continuous placement ({:?}) --", p.status);
    for a in &p.assignments {
        println!(
            "  move {:5.2}% from {} to {} (T_rmin {:.5}s)",
            a.amount, a.from.0, a.to.0, a.t_rmin
        );
    }
    println!("  beta = {:.6}", p.beta);
}
