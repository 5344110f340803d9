//! Seeded random-instance tests pitting the two solvers against each
//! other and against first principles: the specialized transportation
//! solver must match the general simplex on random instances, simplex
//! optima must be feasible and never beaten by random feasible points, and
//! LP duality must hold exactly.

use dust_lp::{solve, Cmp, Problem, Status, TransportProblem, TransportStatus};
use dust_topology::SplitMix64;

/// Build the transportation instance as a general LP and solve with simplex.
fn transport_via_simplex(tp: &TransportProblem) -> Option<f64> {
    let m = tp.supply.len();
    let n = tp.capacity.len();
    let mut p = Problem::new();
    let mut vars = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let c = tp.cost[i * n + j];
            if c.is_finite() {
                vars.push(Some(p.add_nonneg(c)));
            } else {
                vars.push(None); // forbidden: simply omit the variable
            }
        }
    }
    for i in 0..m {
        let terms: Vec<_> = (0..n).filter_map(|j| vars[i * n + j].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Eq, tp.supply[i]);
    }
    for j in 0..n {
        let terms: Vec<_> = (0..m).filter_map(|i| vars[i * n + j].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Le, tp.capacity[j]);
    }
    let s = solve(&p);
    (s.status == Status::Optimal).then_some(s.objective)
}

/// A random transportation instance: 1–4 sources, 1–4 sinks, ~10 % of the
/// cost cells forbidden (infinite). Deterministic in `seed`.
fn arb_transport(seed: u64) -> TransportProblem {
    let mut rng = SplitMix64::new(seed);
    let m = 1 + rng.below(4) as usize;
    let n = 1 + rng.below(4) as usize;
    let supply: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 40.0)).collect();
    let capacity: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 60.0)).collect();
    let cost: Vec<f64> = (0..m * n)
        .map(|_| if rng.below(10) == 0 { f64::INFINITY } else { rng.range_f64(0.1, 20.0) })
        .collect();
    TransportProblem::new(supply, capacity, cost)
}

/// MODI and simplex agree on optimality status and objective.
#[test]
fn transportation_matches_simplex() {
    for seed in 0..128u64 {
        let tp = arb_transport(seed);
        let fast = tp.solve();
        let general = transport_via_simplex(&tp);
        match (fast.status, general) {
            (TransportStatus::Optimal, Some(obj)) => {
                assert!(
                    (fast.objective - obj).abs() <= 1e-5 * obj.abs().max(1.0),
                    "seed {seed}: MODI {} vs simplex {}",
                    fast.objective,
                    obj
                );
            }
            (TransportStatus::Infeasible, None) => {}
            (a, b) => panic!("seed {seed}: status mismatch: {a:?} vs {b:?}"),
        }
    }
}

/// Optimal transportation flows satisfy supply equality and capacity.
#[test]
fn transportation_flows_feasible() {
    for seed in 0..128u64 {
        let tp = arb_transport(seed);
        let s = tp.solve();
        if s.status != TransportStatus::Optimal {
            continue;
        }
        let n = tp.capacity.len();
        for (i, &sup) in tp.supply.iter().enumerate() {
            let shipped: f64 = (0..n).map(|j| s.flow[i * n + j]).sum();
            assert!((shipped - sup).abs() < 1e-6, "seed {seed} row {i}: {shipped} != {sup}");
        }
        for (j, &cap) in tp.capacity.iter().enumerate() {
            let recv: f64 = (0..tp.supply.len()).map(|i| s.flow[i * n + j]).sum();
            assert!(recv <= cap + 1e-6, "seed {seed} col {j}: {recv} > {cap}");
        }
        for &f in &s.flow {
            assert!(f >= -1e-9, "seed {seed}: negative flow {f}");
        }
    }
}

/// Simplex optimum on random bounded LPs is feasible and not beaten by
/// sampled feasible corners of the box.
#[test]
fn simplex_optimum_dominates_box_samples() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let n = 1 + rng.below(4) as usize;
        let costs: Vec<f64> = (0..4).map(|_| rng.range_f64(-5.0, 5.0)).collect();
        let caps: Vec<f64> = (0..4).map(|_| rng.range_f64(1.0, 10.0)).collect();
        let mut p = Problem::new();
        let vars: Vec<_> =
            (0..n).map(|i| p.add_var(0.0, caps[i % caps.len()], costs[i % costs.len()])).collect();
        // a coupling constraint to make it non-trivial
        let terms: Vec<_> = vars.iter().map(|&v| (v, 1.0)).collect();
        let budget: f64 = caps.iter().take(n).sum::<f64>() / 2.0;
        p.add_constraint(&terms, Cmp::Le, budget);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal, "seed {seed}");
        assert!(p.is_feasible(&s.x, 1e-6), "seed {seed}");
        // corners of the box clipped to the budget: all-zero is feasible
        assert!(s.objective <= 1e-9, "seed {seed}: all-zeros is feasible with objective 0");
    }
}

/// Scaling all costs scales the transportation objective linearly.
#[test]
fn transportation_objective_scales() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed ^ 0xA5A5);
        let tp = arb_transport(seed);
        let k = rng.range_f64(1.0, 10.0);
        let s1 = tp.solve();
        let scaled = TransportProblem::new(
            tp.supply.clone(),
            tp.capacity.clone(),
            tp.cost.iter().map(|c| c * k).collect(),
        );
        let s2 = scaled.solve();
        assert_eq!(s1.status, s2.status, "seed {seed}");
        if s1.status == TransportStatus::Optimal {
            assert!(
                (s2.objective - k * s1.objective).abs() <= 1e-6 * (1.0 + s2.objective.abs()),
                "seed {seed}"
            );
        }
    }
}

/// LP duality holds on every random optimal instance: dual feasibility,
/// complementary slackness, and strong duality.
#[test]
fn transportation_duality() {
    for seed in 0..128u64 {
        let tp = arb_transport(seed);
        let s = tp.solve();
        if s.status != TransportStatus::Optimal {
            continue;
        }
        let n = tp.capacity.len();
        // dual feasibility + complementary slackness
        for (i, &u) in s.row_potentials.iter().enumerate() {
            for (j, &v) in s.col_potentials.iter().enumerate() {
                let c = tp.cost[i * n + j];
                if !c.is_finite() {
                    continue;
                }
                let reduced = c - u - v;
                assert!(reduced >= -1e-6, "seed {seed}: dual infeasible ({i},{j}): {reduced}");
                if s.flow[i * n + j] > 1e-7 {
                    assert!(
                        reduced.abs() < 1e-6,
                        "seed {seed}: complementary slackness ({i},{j}): {reduced}"
                    );
                }
            }
        }
        // strong duality (dummy-normalized): primal == dual objective
        let dual: f64 = s
            .row_potentials
            .iter()
            .zip(&tp.supply)
            .map(|(u, a)| u * a)
            .chain(s.col_potentials.iter().zip(&tp.capacity).map(|(v, b)| v * b))
            .sum();
        assert!(
            (dual - s.objective).abs() <= 1e-5 * (1.0 + s.objective.abs()),
            "seed {seed}: strong duality: {dual} vs {}",
            s.objective
        );
    }
}
