//! Seeded random-instance tests pitting the two solvers against each
//! other and against first principles: the specialized transportation
//! solver must match the reference simplex on random instances, both must
//! match an enumeration of every basis on tiny ones, and LP duality must
//! hold exactly.

use dust_lp::{solve, Cmp, Problem, Status, TransportProblem, TransportStatus};
use dust_topology::SplitMix64;

/// Build the transportation instance as a general LP and solve with simplex:
/// `Some(objective)` when optimal, `None` when infeasible. Any other stop
/// panics, so an unfinished oracle never agrees with an infeasible answer.
fn transport_via_simplex(tp: &TransportProblem) -> Option<f64> {
    let m = tp.supply.len();
    let n = tp.capacity.len();
    let mut p = Problem::new();
    let mut vars = Vec::with_capacity(m * n);
    for i in 0..m {
        for j in 0..n {
            let c = tp.cost_at(i, j);
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
    match s.status {
        Status::Optimal => Some(s.objective),
        Status::Infeasible => None,
        other => panic!("the reference simplex stopped without an answer: {other:?}"),
    }
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

/// A tiny instance, at most 3 sources by 4 sinks: small integer balances
/// (zeros included) and costs, so Vogel penalties, reduced costs and
/// `theta` tie and bases carry zero-flow cells, with about one cell in five
/// forbidden. Every third seed draws real-valued costs instead.
fn tiny_transport(seed: u64) -> TransportProblem {
    let mut rng = SplitMix64::new(seed);
    let m = 1 + rng.below(3) as usize;
    let n = 1 + rng.below(4) as usize;
    let supply: Vec<f64> = (0..m).map(|_| rng.below(5) as f64).collect();
    let capacity: Vec<f64> = (0..n).map(|_| rng.below(7) as f64).collect();
    let cost: Vec<f64> = (0..m * n)
        .map(|_| match rng.below(5) {
            0 => f64::INFINITY,
            _ if seed.is_multiple_of(3) => rng.range_f64(0.1, 20.0),
            _ => rng.below(4) as f64,
        })
        .collect();
    TransportProblem::new(supply, capacity, cost)
}

/// The optimum by brute force: balance the instance with a zero-cost
/// slack source, then try every set of `rows + cols − 1` cells. A set
/// that is a spanning tree fixes its flows (peel a leaf, which must carry
/// its whole residual balance, and repeat); the tree is a vertex of the
/// feasible region when no flow is negative and no forbidden cell carries
/// any. The cheapest vertex is the optimum; none means infeasible.
fn transport_by_enumeration(tp: &TransportProblem) -> Option<f64> {
    const TOL: f64 = 1e-9;
    let (m0, n) = (tp.supply.len(), tp.capacity.len());
    let slack = tp.capacity.iter().sum::<f64>() - tp.supply.iter().sum::<f64>();
    if slack < -TOL {
        return None;
    }
    // vertices: rows 0..m (the slack source last), then columns m..m + n
    let m = m0 + 1;
    let mut balance = tp.supply.clone();
    balance.push(slack.max(0.0));
    balance.extend(&tp.capacity);
    let cost = |i: usize, j: usize| if i < m0 { tp.cost_at(i, j) } else { 0.0 };
    let mut best: Option<f64> = None;
    for set in 0u32..1 << (m * n) {
        if set.count_ones() as usize != m + n - 1 {
            continue;
        }
        let cells: Vec<(usize, usize)> =
            (0..m * n).filter(|&x| set >> x & 1 == 1).map(|x| (x / n, x % n)).collect();
        let mut resid = balance.clone();
        let mut peeled = vec![false; cells.len()];
        let mut objective = 0.0;
        let mut vertex = true;
        for _ in 0..cells.len() {
            // a vertex on exactly one unpeeled cell; none left means a cycle
            let ends = |(i, j): (usize, usize)| [i, m + j];
            let leaf = (0..m + n).find_map(|x| {
                let mut on =
                    (0..cells.len()).filter(|&e| !peeled[e] && ends(cells[e]).contains(&x));
                let e = on.next()?;
                on.next().is_none().then_some((x, e))
            });
            let Some((x, e)) = leaf else {
                vertex = false;
                break;
            };
            peeled[e] = true;
            let f = resid[x];
            let (i, j) = cells[e];
            resid[if x == i { m + j } else { i }] -= f;
            let c = cost(i, j);
            if f < -TOL || (!c.is_finite() && f > TOL) {
                vertex = false;
                break;
            }
            if c.is_finite() {
                objective += f * c;
            }
        }
        if vertex && best.is_none_or(|b| objective < b) {
            best = Some(objective);
        }
    }
    best
}

/// A differential oracle on tiny instances: the transportation solver, the
/// dense simplex and the enumeration of every basis agree on the optimum
/// to 1e-9 and on which instances are infeasible.
#[test]
fn three_solvers_agree_on_tiny_instances() {
    let mut infeasible = 0;
    for seed in 0..240u64 {
        let tp = tiny_transport(seed);
        let fast = tp.solve();
        let fast = (fast.status == TransportStatus::Optimal).then_some(fast.objective);
        let general = transport_via_simplex(&tp);
        let brute = transport_by_enumeration(&tp);
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(1.0);
        match (fast, general, brute) {
            (Some(a), Some(b), Some(c)) if close(a, c) && close(b, c) => {}
            (None, None, None) => infeasible += 1,
            other => panic!("seed {seed}: transport/simplex/enumeration {other:?} on {tp:?}"),
        }
    }
    assert!((40..160).contains(&infeasible), "{infeasible} of 240 instances infeasible");
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
            let shipped: f64 = (0..n).map(|j| s.flow_at(i, j)).sum();
            assert!((shipped - sup).abs() < 1e-6, "seed {seed} row {i}: {shipped} != {sup}");
        }
        for (j, &cap) in tp.capacity.iter().enumerate() {
            let recv: f64 = (0..tp.supply.len()).map(|i| s.flow_at(i, j)).sum();
            assert!(recv <= cap + 1e-6, "seed {seed} col {j}: {recv} > {cap}");
        }
        for &(_, _, f) in &s.flows {
            assert!(f >= -1e-9, "seed {seed}: negative flow {f}");
        }
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
        let mut scaled = tp.clone();
        scaled.cost.iter_mut().for_each(|c| *c *= k);
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

/// Costs near the top of the f64 range. Big-M, the cost of a forbidden
/// cell inside the solver, is a million times the largest cost, so it
/// used to overflow to +∞ once that cost passed ≈ 1.8e302: an infeasible
/// instance came back optimal, and optimal ones with a NaN objective.
/// Tiny seeded instances (at most 3 × 4, a quarter of the cells
/// forbidden) with their costs multiplied by 1e290, 1e302 and 1e305 must
/// keep the status of the unscaled instance, and their objective over the
/// factor.
#[test]
fn huge_costs_keep_the_status_and_objective() {
    for seed in 0..20_000u64 {
        let mut rng = SplitMix64::new(seed ^ 0x0E05);
        let (m, n) = (1 + rng.below(3) as usize, 1 + rng.below(4) as usize);
        let supply: Vec<f64> = (0..m).map(|_| rng.range_f64(0.0, 40.0)).collect();
        let capacity: Vec<f64> = (0..n).map(|_| rng.range_f64(0.0, 60.0)).collect();
        let cost: Vec<f64> = (0..m * n)
            .map(|_| if rng.below(4) == 0 { f64::INFINITY } else { rng.range_f64(0.1, 20.0) })
            .collect();
        let tp = TransportProblem::new(supply, capacity, cost);
        let want = tp.solve();
        for factor in [1e290, 1e302, 1e305] {
            let mut huge = tp.clone();
            huge.cost.iter_mut().for_each(|c| *c *= factor);
            let got = huge.solve();
            assert_eq!(got.status, want.status, "seed {seed}, costs × {factor:e}");
            if got.status == TransportStatus::Optimal {
                assert!(!got.objective.is_nan(), "seed {seed}, costs × {factor:e}");
                let scaled_back = got.objective / factor;
                assert!(
                    (scaled_back - want.objective).abs() <= 1e-9 * (1.0 + want.objective.abs()),
                    "seed {seed}, costs × {factor:e}: {scaled_back} vs {}",
                    want.objective
                );
            }
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
        // dual feasibility + complementary slackness
        for (i, &u) in s.row_potentials.iter().enumerate() {
            for (j, &v) in s.col_potentials.iter().enumerate() {
                let c = tp.cost_at(i, j);
                if !c.is_finite() {
                    continue;
                }
                let reduced = c - u - v;
                assert!(reduced >= -1e-6, "seed {seed}: dual infeasible ({i},{j}): {reduced}");
                if s.flow_at(i, j) > 1e-7 {
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
