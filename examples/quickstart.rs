//! Quickstart: run the DUST placement engine on the paper's illustrative
//! 7-node topology (Fig. 4) and on a small fat-tree.
//!
//! ```sh
//! cargo run -p dust --example quickstart
//! ```

use dust::prelude::*;
use dust::topology::topologies;

fn main() {
    // ---- Fig. 4: one Busy node (S1), two candidates (S2, S6) --------------
    println!("== Fig. 4 example: 7 nodes, 7 edges ==");
    let graph = topologies::example7(Link::new(10_000.0, 0.5));
    let (busy, candidates) = topologies::example7_roles();

    // Node states: S1 overloaded at 92 %, S2/S6 idle, the rest neutral.
    let cfg = DustConfig::paper_defaults(); // C_max 80, CO_max 50, x_min 5
    let states: Vec<NodeState> = graph
        .nodes()
        .map(|n| {
            if n == busy {
                NodeState::new(92.0, 150.0) // 12 points over C_max, 150 Mb to move
            } else if candidates.contains(&n) {
                NodeState::new(25.0, 10.0)
            } else {
                NodeState::new(65.0, 10.0) // relay nodes
            }
        })
        .collect();
    let nmdb = Nmdb::new(graph, states);

    let placement = optimize(&nmdb, &cfg);
    println!("status: {:?}, beta = {:.6} s·%", placement.status, placement.beta);
    for a in &placement.assignments {
        let route = a.route.as_ref().expect("optimal assignments carry routes");
        let via: Vec<String> = route.nodes.iter().map(|n| format!("S{}", n.0 + 1)).collect();
        println!(
            "  offload {:5.1}% from S{} to S{} over {} ({} hops, T_rmin {:.4}s)",
            a.amount,
            a.from.0 + 1,
            a.to.0 + 1,
            via.join("→"),
            route.hops(),
            a.t_rmin
        );
    }

    // ---- the same engine on a 4-k fat-tree with a random state ------------
    println!("\n== 4-port fat-tree (20 switches), random state, seed 7 ==");
    let ft = FatTree::with_default_links(4);
    let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), 7);
    println!(
        "busy nodes: {:?}, candidates: {}",
        nmdb.busy_nodes(&cfg),
        nmdb.candidate_nodes(&cfg).len()
    );

    let exact = optimize(&nmdb, &cfg);
    println!(
        "ILP:        {:?}, beta {:.6}, {} assignments, mean hops {:?}",
        exact.status,
        exact.beta,
        exact.assignments.len(),
        exact.mean_hops()
    );

    let h = heuristic(&nmdb, &cfg.with_max_hop(Some(1)));
    println!(
        "heuristic:  placed {:.1} of {:.1} capacity-% one-hop, HFR {:.1}%",
        h.total_cs - h.total_cse,
        h.total_cs,
        h.hfr_percent()
    );
}
