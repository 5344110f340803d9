//! Scalability study: ILP-vs-heuristic across the paper's four fat-tree
//! sizes (§V-B) — a condensed, runnable version of Figs. 11 and 12.
//!
//! ```sh
//! cargo run --release -p dust --example scalability_study
//! ```

use dust::prelude::*;
use std::time::Instant;

fn main() {
    let seed = 2024;
    let iterations = 5;
    // The bench harness adds the paper's path enumeration to the timing
    // figures; this example times the placement the product runs.
    let cfg = DustConfig::paper_defaults();

    println!(
        "{:>6} {:>7} {:>8} {:>12} {:>12} {:>9}",
        "k", "nodes", "edges", "ILP(ms)", "heur(ms)", "HFR(%)"
    );
    for (k, nodes, edges) in paper_sizes() {
        let ft = FatTree::with_default_links(k);
        assert_eq!(ft.node_count(), nodes);
        assert_eq!(ft.edge_count(), edges);

        // recommended hop bounds from the paper: 10 (4-k), 7 (8-k), 4 (16-k)
        let max_hop = match k {
            4 => Some(10),
            8 => Some(7),
            16 => Some(4),
            _ => Some(3),
        };
        let cfg = cfg.with_max_hop(max_hop);

        let mut ilp_ms = 0.0;
        let mut heur_ms = 0.0;
        let mut hfr = 0.0;
        let mut ilp_runs = 0u32;
        for it in 0..iterations {
            let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), seed + it);
            // ILP only up to 16-k: the paper, too, stops optimizing at 320
            // nodes and runs heuristic-only at 5120 (Fig. 12).
            if k <= 16 {
                let t = Instant::now();
                let _ = optimize(&nmdb, &cfg);
                ilp_ms += t.elapsed().as_secs_f64() * 1e3;
                ilp_runs += 1;
            }
            let t = Instant::now();
            let h = heuristic(&nmdb, &cfg);
            heur_ms += t.elapsed().as_secs_f64() * 1e3;
            hfr += h.hfr_percent();
        }
        let ilp = if ilp_runs > 0 {
            format!("{:12.2}", ilp_ms / f64::from(ilp_runs))
        } else {
            format!("{:>12}", "—")
        };
        println!(
            "{:>6} {:>7} {:>8} {} {:12.2} {:9.2}",
            k,
            nodes,
            edges,
            ilp,
            heur_ms / iterations as f64,
            hfr / iterations as f64,
        );
    }
    println!("\nShape check (paper): HFR falls with scale (~n^-0.5); heuristic stays");
    println!("tractable at 5120 nodes while the ILP's cost explodes with max-hop.");
}
