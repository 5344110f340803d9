//! Exact pins of what the reference simplex *does* on the one LP shape its
//! callers build — non-negative variables, `=` supply rows and `≤`
//! capacity rows, minimised: the status, the pivot count, the objective's
//! bits and every `x` bit, folded into one FNV-1a digest per corpus. The
//! corpora are tiny transport-shaped LPs with forbidden cells and tied
//! costs, ablation 2's 96 instances, and hand-made infeasible, unbounded,
//! redundant-row and degenerate cases. A rewrite of the solver must walk
//! the same pivots and so leave every digest unchanged.

use dust_lp::{solve, Cmp, Problem, Solution, Status};
use dust_topology::SplitMix64;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold one solve into `h`: status, pivots, objective bits, `x` bits.
fn fold(h: u64, s: &Solution) -> u64 {
    let mut h = fnv1a(h, format!("{:?}", s.status).as_bytes());
    h = fnv1a(h, &(s.iterations as u64).to_le_bytes());
    h = fnv1a(h, &s.objective.to_bits().to_le_bytes());
    h = fnv1a(h, &(s.x.len() as u64).to_le_bytes());
    for x in &s.x {
        h = fnv1a(h, &x.to_bits().to_le_bytes());
    }
    h
}

/// Eq. 3 written out: a variable per finite cell, an `=` row per supply
/// and a `≤` row per capacity, as the placement tests' oracle builds it.
fn transport_lp(supply: &[f64], capacity: &[f64], cost: &[f64]) -> Problem {
    let (m, n) = (supply.len(), capacity.len());
    let mut p = Problem::new();
    let vars: Vec<_> = cost.iter().map(|&c| c.is_finite().then(|| p.add_nonneg(c))).collect();
    for (i, &s) in supply.iter().enumerate() {
        let terms: Vec<_> = (0..n).filter_map(|j| vars[i * n + j].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Eq, s);
    }
    for (j, &c) in capacity.iter().enumerate() {
        let terms: Vec<_> = (0..m).filter_map(|i| vars[i * n + j].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Le, c);
    }
    p
}

/// 1–4 supplies of 0–6 units, 1–5 capacities of 0–8, costs drawn from
/// four values so that entering and leaving candidates tie, and about a
/// fifth of the cells forbidden.
fn tiny(seed: u64) -> Problem {
    let mut rng = SplitMix64::new(seed);
    let m = 1 + rng.below(4) as usize;
    let n = 1 + rng.below(5) as usize;
    let supply: Vec<f64> = (0..m).map(|_| rng.below(7) as f64).collect();
    let capacity: Vec<f64> = (0..n).map(|_| rng.below(9) as f64).collect();
    let cost: Vec<f64> = (0..m * n)
        .map(|_| match rng.below(10) {
            0 | 1 => f64::INFINITY,
            k => [1.0, 2.0, 2.5, 3.0][(k % 4) as usize],
        })
        .collect();
    transport_lp(&supply, &capacity, &cost)
}

#[test]
fn tiny_transport_lps_are_pinned() {
    let mut h = FNV_OFFSET;
    let mut census = [0usize; 2];
    let mut pivots = 0;
    for seed in 0..400u64 {
        let s = solve(&tiny(seed));
        match s.status {
            Status::Optimal => census[0] += 1,
            Status::Infeasible => census[1] += 1,
            other => panic!("seed {seed}: {other:?}"),
        }
        pivots += s.iterations;
        h = fold(h, &s);
    }
    assert_eq!((census, pivots), ([255, 145], 1_885), "digest {h:#018x}");
    assert_eq!(h, 0xf018_daf2_7360_b667, "digest {h:#018x}");
}

#[test]
fn ablation_two_instances_are_pinned() {
    // `experiments ablations`' second table: 32 seeded placement-shaped
    // instances per size, every cell finite, generous capacities
    let mut h = FNV_OFFSET;
    let mut pivots = 0;
    for (m, n) in [(4usize, 8usize), (10, 20), (25, 50)] {
        for instance in 0..32u64 {
            let mut rng = SplitMix64::new(instance * 7 + 1);
            let supply: Vec<f64> = (0..m).map(|_| rng.range_f64(1.0, 20.0)).collect();
            let total: f64 = supply.iter().sum();
            let capacity: Vec<f64> =
                (0..n).map(|_| rng.range_f64(0.5, 2.0) * total / n as f64 * 1.5).collect();
            let cost: Vec<f64> = (0..m * n).map(|_| rng.range_f64(0.01, 10.0)).collect();
            let s = solve(&transport_lp(&supply, &capacity, &cost));
            assert_eq!(s.status, Status::Optimal, "{m}x{n} #{instance}");
            pivots += s.iterations;
            h = fold(h, &s);
        }
    }
    assert_eq!(pivots, 19_104, "digest {h:#018x}");
    assert_eq!(h, 0x30a3_b330_640d_6af5, "digest {h:#018x}");
}

#[test]
fn edge_cases_are_pinned() {
    let mut cases: Vec<(&str, Problem, Status)> = Vec::new();
    // x ≤ 1 and x = 2
    let mut p = Problem::new();
    let x = p.add_nonneg(1.0);
    p.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
    p.add_constraint(&[(x, 1.0)], Cmp::Eq, 2.0);
    cases.push(("infeasible", p, Status::Infeasible));
    // a supply row with no admissible cell
    cases.push((
        "forbidden row",
        transport_lp(&[3.0, 2.0], &[9.0], &[1.0, f64::INFINITY]),
        Status::Infeasible,
    ));
    // min −x − y with only x − y ≤ 1
    let mut p = Problem::new();
    let x = p.add_nonneg(-1.0);
    let y = p.add_nonneg(-1.0);
    p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
    cases.push(("unbounded", p, Status::Unbounded));
    // x + y = 4 twice, and a transport whose supply rows repeat
    let mut p = Problem::new();
    let x = p.add_nonneg(1.0);
    let y = p.add_nonneg(1.0);
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
    p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
    cases.push(("redundant rows", p, Status::Optimal));
    let mut p = transport_lp(&[2.0, 3.0], &[5.0, 5.0], &[1.0, 1.0, 1.0, 1.0]);
    let v: Vec<_> = (0..p.num_vars()).map(dust_lp::Var).collect();
    p.add_constraint(&[(v[0], 1.0), (v[1], 1.0)], Cmp::Eq, 2.0);
    cases.push(("redundant transport", p, Status::Optimal));
    // Beale's cycling example, minimising the negated costs
    let mut p = Problem::new();
    let x = p.add_nonneg(-10.0);
    let y = p.add_nonneg(57.0);
    let z = p.add_nonneg(9.0);
    let w = p.add_nonneg(24.0);
    p.add_constraint(&[(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)], Cmp::Le, 0.0);
    p.add_constraint(&[(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)], Cmp::Le, 0.0);
    p.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
    cases.push(("degenerate", p, Status::Optimal));
    // balanced supply and capacity, every partial sum colliding
    cases.push((
        "balanced",
        transport_lp(&[2.0, 2.0, 2.0], &[3.0, 3.0], &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0]),
        Status::Optimal,
    ));
    // zero supplies and zero capacities
    cases.push((
        "zeros",
        transport_lp(&[0.0, 4.0], &[0.0, 4.0, 0.0], &[1.0, 2.0, 1.0, 2.0, 2.0, 1.0]),
        Status::Optimal,
    ));
    cases.push(("empty", Problem::new(), Status::Optimal));

    let mut h = FNV_OFFSET;
    for (name, p, want) in &cases {
        let s = solve(p);
        assert_eq!(s.status, *want, "{name}");
        h = fold(h, &s);
    }
    assert_eq!(h, 0xd53b_d17e_9e0b_f8c2, "digest {h:#018x}");
}
