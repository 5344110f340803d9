//! Seeded random-scenario tests for the placement engine: agreement with
//! the reference simplex, optimality dominance over the heuristic, conservation
//! invariants, and thread-count invariance on random fat-tree states.

use dust_core::{
    heuristic, heuristic_with, optimize, optimize_with, random_nmdb, DustConfig, PlacementStatus,
    ScenarioParams,
};
use dust_topology::{CostEngine, FatTree};

#[path = "../../../tests/support/raw_lp.rs"]
mod raw_lp;
use raw_lp::beta_via_raw_lp;

fn cfg() -> DustConfig {
    DustConfig::paper_defaults()
}

/// The placement and the reference simplex over the explicit LP agree on
/// status and objective for random states.
#[test]
fn backends_agree() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..24u64 {
        let db = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let a = optimize_with(&db, &c, &CostEngine::new(), None).unwrap();
        match (a.status, beta_via_raw_lp(&db, &c).0) {
            (PlacementStatus::Optimal, Some(b)) => assert!(
                (a.beta - b).abs() <= 1e-5 * (1.0 + a.beta.abs()),
                "seed {seed}: beta {} vs {}",
                a.beta,
                b
            ),
            (PlacementStatus::Infeasible, None) => {}
            (PlacementStatus::NoBusyNodes, Some(b)) => assert_eq!(b, 0.0, "seed {seed}"),
            (a, b) => panic!("seed {seed}: status mismatch {a:?} vs {b:?}"),
        }
    }
}

/// Optimal placements satisfy Eq. 3a (capacity) and Eq. 3b (equality).
#[test]
fn placement_respects_constraints() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..24u64 {
        let db = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let p = optimize(&db, &c);
        if p.status != PlacementStatus::Optimal {
            continue;
        }
        // Eq. 3b: every busy node sheds exactly Cs_i
        for &b in &p.busy {
            let shed: f64 = p.assignments.iter().filter(|a| a.from == b).map(|a| a.amount).sum();
            assert!(
                (shed - db.cs(b, &c)).abs() < 1e-6,
                "seed {seed}: busy {b:?} shed {shed} != Cs {}",
                db.cs(b, &c)
            );
        }
        // Eq. 3a: no candidate absorbs beyond Cd_j
        for &o in &p.candidates {
            let got: f64 = p.assignments.iter().filter(|a| a.to == o).map(|a| a.amount).sum();
            assert!(
                got <= db.cd(o, &c) + 1e-6,
                "seed {seed}: candidate {o:?} got {got} > Cd {}",
                db.cd(o, &c)
            );
        }
        // routes stay within the hop bound and connect the right endpoints
        for a in &p.assignments {
            let r = a.route.as_ref().expect("optimal assignments carry routes");
            assert_eq!(*r.nodes.first().unwrap(), a.from);
            assert_eq!(*r.nodes.last().unwrap(), a.to);
            if let Some(h) = c.max_hop {
                assert!(r.hops() <= h);
            }
        }
    }
}

/// When the heuristic fully offloads, its β is never below the
/// optimizer's (the ILP is optimal).
#[test]
fn heuristic_never_beats_optimum() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..24u64 {
        let db = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let p = optimize(&db, &c);
        let h = heuristic(&db, &c);
        if p.status == PlacementStatus::Optimal && h.fully_offloaded() && h.total_cs > 0.0 {
            assert!(
                h.beta >= p.beta - 1e-6 * (1.0 + p.beta.abs()),
                "seed {seed}: heuristic beta {} beat optimal {}",
                h.beta,
                p.beta
            );
        }
    }
}

/// HFR is within [0, 100] and monotone non-increasing in the hop reach.
#[test]
fn hfr_bounds_and_monotonicity() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..24u64 {
        let db = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let mut prev = f64::INFINITY;
        for hops in [1usize, 2, 4, 6] {
            let h = heuristic_with(&db, &c, hops, &CostEngine::new()).unwrap();
            let rate = h.hfr_percent();
            assert!((0.0..=100.0 + 1e-9).contains(&rate), "seed {seed}: HFR {rate} out of range");
            assert!(
                rate <= prev + 1e-9,
                "seed {seed}: HFR must not grow with reach: {rate} > {prev}"
            );
            prev = rate;
        }
    }
}

/// Heuristic assignments never overdraw a candidate even with several
/// busy nodes competing, and residual + placed = total excess.
#[test]
fn heuristic_conservation() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..24u64 {
        let db = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let h = heuristic(&db, &c);
        let placed: f64 = h.assignments.iter().map(|a| a.amount).sum();
        assert!(
            (placed + h.total_cse - h.total_cs).abs() < 1e-6,
            "seed {seed}: placed {placed} + residual {} != total {}",
            h.total_cse,
            h.total_cs
        );
        for n in db.graph.nodes() {
            let got: f64 = h.assignments.iter().filter(|a| a.to == n).map(|a| a.amount).sum();
            assert!(got <= db.cd(n, &c) + 1e-6, "seed {seed}: {n:?} overdrawn");
        }
        // one-hop routes only
        for a in &h.assignments {
            assert_eq!(a.route.as_ref().unwrap().hops(), 1, "seed {seed}");
        }
    }
}

/// The whole pipeline is deterministic in the seed.
#[test]
fn determinism() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..24u64 {
        let db1 = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let db2 = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let p1 = optimize(&db1, &c);
        let p2 = optimize(&db2, &c);
        assert_eq!(p1.status, p2.status, "seed {seed}");
        assert_eq!(p1.assignments.len(), p2.assignments.len(), "seed {seed}");
        let h1 = heuristic(&db1, &c);
        let h2 = heuristic(&db2, &c);
        assert!((h1.beta - h2.beta).abs() < 1e-12, "seed {seed}");
    }
}

/// Hop-bounded optimization cost is monotone: loosening max_hop never
/// worsens β (more routes can only help).
#[test]
fn beta_monotone_in_max_hop() {
    let ft = FatTree::with_default_links(4);
    let base = cfg();
    for seed in 0..24u64 {
        let db = random_nmdb(&ft.graph, &base, &ScenarioParams::default(), seed);
        let mut prev = f64::INFINITY;
        for h in [2usize, 4, 8] {
            let c = base.with_max_hop(Some(h));
            let p = optimize(&db, &c);
            if p.status == PlacementStatus::Optimal {
                assert!(
                    p.beta <= prev + 1e-6 * (1.0 + prev.abs()),
                    "seed {seed}: beta grew from {prev} to {} at hop {h}",
                    p.beta
                );
                prev = p.beta;
            }
        }
    }
}

/// `optimize_with` and `heuristic_with` over an engine built with
/// `CostEngine::with_threads(t)` reproduce the one-shot `optimize` and
/// `heuristic` bit-for-bit at every pricing thread count.
#[test]
fn builder_matches_legacy_at_every_thread_count() {
    let ft = FatTree::with_default_links(4);
    let c = cfg();
    for seed in 0..12u64 {
        let db = random_nmdb(&ft.graph, &c, &ScenarioParams::default(), seed);
        let base = optimize(&db, &c);
        let base_h = heuristic(&db, &c);
        for threads in [1usize, 2, 7] {
            let engine = CostEngine::with_threads(threads);
            let p = optimize_with(&db, &c, &engine, None).unwrap();
            assert_eq!(p.status, base.status, "seed {seed} threads {threads}");
            assert_eq!(p.beta.to_bits(), base.beta.to_bits(), "seed {seed} threads {threads}");
            assert_eq!(p.assignments.len(), base.assignments.len(), "seed {seed}");
            let h = heuristic_with(&db, &c, 1, &engine).unwrap();
            assert_eq!(h.beta.to_bits(), base_h.beta.to_bits(), "seed {seed} threads {threads}");
            assert_eq!(h.assignments.len(), base_h.assignments.len(), "seed {seed}");
        }
    }
}
