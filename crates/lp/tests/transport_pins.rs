//! Exact pins of what the transportation solver *does*, not only what it
//! reaches: pivot counts, objective bits and FNV-1a digests of every flow
//! bit and every exported basis cell, on seeded instances at three sizes
//! and four cost structures, cold and warm. The numbers were taken from
//! the dense-bitmap solver (rescanning Vogel, bitmap MODI); any faster
//! replacement must walk the same pivots and so leave every pin unchanged.

use dust_lp::{Basis, TransportProblem, TransportSolution, TransportStatus};
use dust_obs::ObsHandle;
use dust_topology::SplitMix64;

/// Supply rows × sinks; the largest is about one `decide_cold_k24` round.
const SIZES: [(usize, usize); 3] = [(4, 9), (40, 160), (121, 360)];

#[derive(Debug, Clone, Copy)]
enum Kind {
    /// Every cell finite, real-valued costs: no ties.
    Dense,
    /// Small integer costs and balances: ties in Vogel penalties, in the
    /// entering rule and in `theta`.
    Integer,
    /// ≈ 90 % forbidden cells in pod-like blocks, the shape a hop-2 bound
    /// gives a fat-tree cost matrix.
    Blocks,
    /// Total supply equals total capacity exactly and every partial sum
    /// collides: a zero-supply dummy row and many zero-flow basic cells.
    Balanced,
}

const KINDS: [Kind; 4] = [Kind::Dense, Kind::Integer, Kind::Blocks, Kind::Balanced];

fn instance(kind: Kind, m: usize, n: usize, seed: u64) -> TransportProblem {
    let mut rng = SplitMix64::new(seed);
    let (supply, capacity, cost): (Vec<f64>, Vec<f64>, Vec<f64>) = match kind {
        Kind::Dense => (
            (0..m).map(|_| rng.range_f64(1.0, 10.0)).collect(),
            (0..n).map(|_| rng.range_f64(5.0, 30.0)).collect(),
            (0..m * n).map(|_| rng.range_f64(0.1, 20.0)).collect(),
        ),
        Kind::Integer => (
            (0..m).map(|_| rng.range_u64(1, 10) as f64).collect(),
            (0..n).map(|_| rng.range_u64(10, 40) as f64).collect(),
            (0..m * n).map(|_| rng.range_u64(1, 9) as f64).collect(),
        ),
        Kind::Blocks => {
            let blocks = (n / 3).min(10);
            let supply = (0..m).map(|_| rng.range_f64(0.5, 5.0)).collect();
            let capacity = (0..n).map(|_| rng.range_f64(5.0, 30.0)).collect();
            let cost = (0..m * n)
                .map(|x| {
                    let (i, j) = (x / n, x % n);
                    let v = rng.range_f64(0.01, 2.0);
                    if i % blocks == j % blocks {
                        v
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            (supply, capacity, cost)
        }
        Kind::Balanced => (
            vec![n as f64; m],
            vec![m as f64; n],
            (0..m * n).map(|_| rng.range_f64(0.1, 20.0)).collect(),
        ),
    };
    TransportProblem::new(supply, capacity, cost)
}

/// The previous round of the same instance: slightly less supply and more
/// capacity (so feasibility is kept) and every seventh route repriced. Its
/// optimal basis is a plausible stale warm start — no longer optimal for
/// `p`, and feasible for it only if the drift did not force a tree flow
/// negative.
fn perturbed(p: &TransportProblem) -> TransportProblem {
    let mut q = p.clone();
    for s in q.supply.iter_mut().step_by(2) {
        *s *= 0.99;
    }
    for c in q.capacity.iter_mut().step_by(3) {
        *c *= 1.01;
    }
    let mut cost = dense_cost(p);
    for c in cost.iter_mut().step_by(7) {
        *c *= 1.5;
    }
    TransportProblem::new(q.supply, q.capacity, cost)
}

/// The row-major cost matrix, `INFINITY` on the forbidden cells.
fn dense_cost(p: &TransportProblem) -> Vec<f64> {
    let n = p.capacity.len();
    (0..p.supply.len()).flat_map(|i| (0..n).map(move |j| p.cost_at(i, j))).collect()
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `(warm_used, iterations, objective bits, flow digest, basis digest)`.
/// `Basis` keeps its cells private; its derived `Debug` prints the
/// dimensions and every cell in order, which is what gets digested.
type Pin = (bool, usize, u64, u64, u64);

fn pin(s: &TransportSolution) -> Pin {
    assert_eq!(s.status, TransportStatus::Optimal, "every pinned instance is feasible");
    let basis = s.basis.as_ref().expect("optimal solves export a basis");
    let (rows, cols) = basis.dims();
    let flow = (0..rows - 1).flat_map(|i| (0..cols).map(move |j| s.flow_at(i, j)));
    (
        s.warm_used,
        s.iterations,
        s.objective.to_bits(),
        fnv1a(flow.flat_map(|f| f.to_bits().to_le_bytes())),
        fnv1a(format!("{basis:?}").bytes()),
    )
}

/// Cold, warm from the instance's own optimal basis, warm from the
/// perturbed instance's optimal basis.
fn solve_three_ways(p: &TransportProblem) -> [Pin; 3] {
    let obs = ObsHandle::disabled();
    let cold = p.solve();
    let own = p.solve_with(&obs, cold.basis.as_ref());
    let stale = perturbed(p).solve().basis;
    let drifted = p.solve_with(&obs, stale.as_ref());
    [pin(&cold), pin(&own), pin(&drifted)]
}

#[rustfmt::skip]
const EXPECTED: [[Pin; 3]; 12] = [
    // 4 x 9 Dense
    [
        (false, 1, 0x40458c2413d7022e, 0xfe925a017bdfb6a1, 0xdcf6b3dcd4553f7c),
        (true, 0, 0x40458c2413d7022c, 0xd2ed7c7f8d20d460, 0xdcf6b3dcd4553f7c),
        (true, 0, 0x40458c2413d7022c, 0xd2ed7c7f8d20d460, 0xdcf6b3dcd4553f7c),
    ],
    // 4 x 9 Integer
    [
        (false, 1, 0x4039000000000000, 0x4be3abf33bbc0b29, 0x549b82428b306040),
        (true, 0, 0x4039000000000000, 0x4be3abf33bbc0b29, 0x549b82428b306040),
        (true, 0, 0x4039000000000000, 0x4be3abf33bbc0b29, 0x549b82428b306040),
    ],
    // 4 x 9 Blocks
    [
        (false, 0, 0x401d14d3ec92571e, 0x123d4574c51f7d1f, 0x03939a211bdf3b3c),
        (true, 0, 0x401d14d3ec92571c, 0x3013b9cff91fed9e, 0x03939a211bdf3b3c),
        (true, 0, 0x401d14d3ec92571c, 0x3013b9cff91fed9e, 0x03939a211bdf3b3c),
    ],
    // 4 x 9 Balanced
    [
        (false, 3, 0x40615da7d9d6982c, 0x721459af05455435, 0xcf79edfd998888a5),
        (true, 0, 0x40615da7d9d6982c, 0x721459af05455435, 0xcf79edfd998888a5),
        (true, 1, 0x40615da7d9d6982c, 0x721459af05455435, 0xcf79edfd998888a5),
    ],
    // 40 x 160 Dense
    [
        (false, 15, 0x404dda2a11c361ec, 0xf5aba50442fcfe78, 0x9405a8c075910e23),
        (true, 0, 0x404dda2a11c361f6, 0xdf186c60df09e25a, 0x9405a8c075910e23),
        (true, 3, 0x404dda2a11c361f8, 0x6fa1f19f4ac1f7ea, 0x9405a8c075910e23),
    ],
    // 40 x 160 Integer
    [
        (false, 0, 0x4067000000000000, 0x26939cdf931e357b, 0x7dac4fdb74d8b3aa),
        (true, 0, 0x4067000000000000, 0x26939cdf931e357b, 0x7dac4fdb74d8b3aa),
        (true, 0, 0x4067000000000000, 0x56724f64b3df42bb, 0x3a42bea2df1bf02d),
    ],
    // 40 x 160 Blocks
    [
        (false, 4, 0x4029febd0b347211, 0x2a868fdc2a7183b7, 0xf97ed22f91082fd2),
        (true, 0, 0x4029febd0b3471dd, 0xae3aca544f3c2c31, 0xf97ed22f91082fd2),
        (true, 5, 0x4029febd0b3471d7, 0xd3d5f22b92955800, 0xf97ed22f91082fd2),
    ],
    // 40 x 160 Balanced
    [
        (false, 78, 0x40b06fec2a48ad65, 0x0c23228632f92525, 0x4bae4ff7fe040967),
        (true, 0, 0x40b06fec2a48ad65, 0x0c23228632f92525, 0x4bae4ff7fe040967),
        (true, 24, 0x40b06fec2a48ad65, 0x0c23228632f92525, 0xa40cd102c603bdab),
    ],
    // 121 x 360 Dense
    [
        (false, 55, 0x405b7cc13daa740b, 0x492ffc4acd57616b, 0xaf8d7e351ff9c9b1),
        (true, 0, 0x405b7cc13daa7400, 0x47e804da8f142efd, 0xaf8d7e351ff9c9b1),
        (true, 14, 0x405b7cc13daa7406, 0x56f98074e4f0ffab, 0xaf8d7e351ff9c9b1),
    ],
    // 121 x 360 Integer
    [
        (false, 39, 0x4083480000000000, 0x67c921caf2bed571, 0x45ba4ba50a005eef),
        (true, 0, 0x4083480000000000, 0x67c921caf2bed571, 0x45ba4ba50a005eef),
        (false, 39, 0x4083480000000000, 0x67c921caf2bed571, 0x45ba4ba50a005eef),
    ],
    // 121 x 360 Blocks
    [
        (false, 22, 0x403483821d1cb18c, 0x5a3b6dc7294972bd, 0x1f676d44fed7a82b),
        (true, 0, 0x403483821d1cb1ae, 0xf703ea431e0b2e6f, 0x1f676d44fed7a82b),
        (true, 9, 0x403483821d1cb1b6, 0x48db6ac669d930c5, 0x1f676d44fed7a82b),
    ],
    // 121 x 360 Balanced
    [
        (false, 418, 0x40c898be60f95d83, 0x2117d5622eaf0e62, 0xd7b7d2d8d05ee3e2),
        (true, 0, 0x40c898be60f95d83, 0x2117d5622eaf0e62, 0xd7b7d2d8d05ee3e2),
        (false, 418, 0x40c898be60f95d83, 0x2117d5622eaf0e62, 0xd7b7d2d8d05ee3e2),
    ],
];

#[test]
fn solver_walks_the_pinned_pivots() {
    let mut actual = Vec::new();
    for (si, &(m, n)) in SIZES.iter().enumerate() {
        for (ki, &kind) in KINDS.iter().enumerate() {
            actual.push(solve_three_ways(&instance(kind, m, n, 1000 + (si * 4 + ki) as u64)));
        }
    }
    if actual != EXPECTED {
        // print the whole table in source form so a diff shows which rows moved
        for (row, pins) in actual.iter().enumerate() {
            let (m, n) = SIZES[row / 4];
            eprintln!("    // {m} x {n} {:?}", KINDS[row % 4]);
            eprintln!("    [");
            for p in pins {
                eprintln!(
                    "        ({}, {}, {:#018x}, {:#018x}, {:#018x}),",
                    p.0, p.1, p.2, p.3, p.4
                );
            }
            eprintln!("    ],");
        }
        panic!("transportation solver left its pinned pivot sequence");
    }
}

/// `(degenerate pivots, cells priced)` of the solves
/// [`solver_walks_the_pinned_pivots`] makes, cold, warm from the own basis
/// and warm from the drifted one. `cells_priced` is a ceiling: a solver
/// may price fewer cells on the way to the same pivots, never more.
#[test]
fn every_kind_pins_its_degenerate_pivots_and_a_pricing_ceiling() {
    #[rustfmt::skip]
    const EXPECTED: &[[(usize, u64); 3]] = &[
        [(0, 90), (0, 45), (0, 45)],
        [(0, 54), (0, 45), (0, 45)],
        [(0, 45), (0, 45), (0, 45)],
        [(1, 116), (0, 45), (0, 90)],
        [(0, 18816), (0, 6560), (0, 7040)],
        [(0, 6560), (0, 6560), (0, 6560)],
        [(0, 7200), (0, 6560), (0, 7360)],
        [(75, 153957), (0, 6560), (21, 76528)],
        [(0, 79070), (0, 43920), (0, 52558)],
        [(18, 1212874), (0, 43920), (18, 1212874)],
        [(0, 98155), (0, 43920), (0, 47160)],
        [(0, 9777078), (0, 43920), (0, 9777078)],
    ];
    let obs = ObsHandle::disabled();
    let mut actual = Vec::new();
    for (si, &(m, n)) in SIZES.iter().enumerate() {
        for (ki, &kind) in KINDS.iter().enumerate() {
            let p = instance(kind, m, n, 1000 + (si * 4 + ki) as u64);
            let cold = p.solve();
            let own = p.solve_with(&obs, cold.basis.as_ref());
            let stale = perturbed(&p).solve().basis;
            let drifted = p.solve_with(&obs, stale.as_ref());
            actual.push([&cold, &own, &drifted].map(|s| (s.degenerate_pivots, s.cells_priced)));
        }
    }
    let holds = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|(got, want)| got.iter().zip(want).all(|(g, w)| g.0 == w.0 && g.1 <= w.1));
    if !holds {
        for row in &actual {
            eprintln!("        {row:?},");
        }
        panic!("degenerate pivots moved or pricing rose above its ceiling");
    }
}

/// The pins only mean something if the instances exercise what they claim
/// to: ties, forbidden blocks, degeneracy, accepted and rejected bases.
#[test]
fn pinned_instances_have_the_shapes_they_claim() {
    let (m, n) = SIZES[2];
    let blocks = instance(Kind::Blocks, m, n, 1);
    let cost = dense_cost(&blocks);
    let forbidden = cost.iter().filter(|c| c.is_infinite()).count();
    assert!(forbidden * 10 >= cost.len() * 9 - cost.len() / 10, "{forbidden}");
    let balanced = instance(Kind::Balanced, m, n, 1);
    let (s, c): (f64, f64) = (balanced.supply.iter().sum(), balanced.capacity.iter().sum());
    assert_eq!(s.to_bits(), c.to_bits());
    let integer = instance(Kind::Integer, m, n, 1);
    assert!(integer.cost.iter().all(|c| c.fract() == 0.0));
}

/// What a per-row cache of the pricing scan could get wrong and the plain
/// row-major scan cannot: many *equal* reduced costs inside one row and
/// across rows, duals that move on exactly the columns a tie sits on,
/// whole forbidden lines, and column counts around the 8-lane remainder.
/// Taken from the full-scan solver before it was touched.
mod tie_pins {
    use super::*;

    /// One supply row; `n < 8`; `n % 8` of 0, 1 and 7 at two sizes each.
    const SIZES: [(usize, usize); 9] =
        [(1, 5), (1, 17), (5, 3), (7, 8), (6, 9), (13, 15), (24, 64), (33, 65), (40, 71)];

    #[derive(Debug, Clone, Copy)]
    enum Kind {
        /// Costs drawn from `{0, 1, 2}`, tight integer balances: dozens of
        /// equal reduced costs per pivot.
        Ternary,
        /// `{0, 1, 2}` costs on the exactly balanced, all-partial-sums-
        /// collide shape: ties in the entering rule *and* in `theta`.
        TernaryBalanced,
        /// Real-valued costs, but column `j` repeats column `j mod p`: a
        /// row's minimum is attained in several columns whose duals move
        /// together.
        RepeatedColumns,
        /// Every third row (zero supply) and every fourth column entirely
        /// `INFINITY`.
        ForbiddenLines,
    }

    const KINDS: [Kind; 4] =
        [Kind::Ternary, Kind::TernaryBalanced, Kind::RepeatedColumns, Kind::ForbiddenLines];

    fn instance(kind: Kind, m: usize, n: usize, seed: u64) -> TransportProblem {
        let mut rng = SplitMix64::new(seed);
        let mut supply: Vec<f64> = (0..m).map(|_| rng.range_u64(1, 10) as f64).collect();
        let open_col = |j: usize| !matches!(kind, Kind::ForbiddenLines) || !j.is_multiple_of(4);
        let open_row = |i: usize| !matches!(kind, Kind::ForbiddenLines) || i % 3 != 2;
        for (i, s) in supply.iter_mut().enumerate() {
            if !open_row(i) {
                *s = 0.0;
            }
        }
        // just enough room, spread over the reachable sinks
        let total: f64 = supply.iter().sum();
        let open_cols = (0..n).filter(|&j| open_col(j)).count();
        let mut capacity: Vec<f64> =
            (0..n).map(|_| (total / open_cols as f64).ceil() + rng.below(3) as f64).collect();
        let period = (n / 3).max(1);
        let mut base = Vec::new();
        let cost: Vec<f64> = (0..m * n)
            .map(|x| {
                let (i, j) = (x / n, x % n);
                match kind {
                    Kind::Ternary | Kind::TernaryBalanced => rng.below(3) as f64,
                    Kind::RepeatedColumns => {
                        if j < period {
                            base.truncate(j);
                            base.push(rng.range_f64(0.1, 20.0));
                        }
                        base[j % period]
                    }
                    Kind::ForbiddenLines => {
                        let v = rng.range_f64(0.1, 20.0);
                        if open_row(i) && open_col(j) {
                            v
                        } else {
                            f64::INFINITY
                        }
                    }
                }
            })
            .collect();
        if matches!(kind, Kind::TernaryBalanced) {
            supply = vec![n as f64; m];
            capacity = vec![m as f64; n];
        }
        TransportProblem::new(supply, capacity, cost)
    }

    /// `(warm_used, pivots, degenerate pivots, objective bits, flow digest,
    /// basis digest, digest of both dual vectors)`.
    type TiePin = (bool, usize, usize, u64, u64, u64, u64);

    fn tie_pin(s: &TransportSolution) -> TiePin {
        let (warm_used, iterations, objective, flow, basis) = pin(s);
        let duals = s.row_potentials.iter().chain(&s.col_potentials);
        (
            warm_used,
            iterations,
            s.degenerate_pivots,
            objective,
            flow,
            basis,
            fnv1a(duals.flat_map(|d| d.to_bits().to_le_bytes())),
        )
    }

    /// The same balances with every finite cost mirrored (`max − c`): its
    /// optimal basis is always accepted as a warm start and is about as far
    /// from optimal as a basis can be, so even the instances Vogel solves
    /// outright are walked through dozens of tied pivots.
    fn mirrored(p: &TransportProblem) -> TransportProblem {
        let max = p.cost.iter().copied().filter(|c| c.is_finite()).fold(0.0, f64::max);
        let mut q = p.clone();
        for c in q.cost.iter_mut().filter(|c| c.is_finite()) {
            *c = max - *c;
        }
        q
    }

    /// Cold, warm from the own optimal basis, warm from the perturbed
    /// instance's (stale) optimal basis, warm from the mirrored instance's.
    fn solve_four_ways(p: &TransportProblem) -> [TiePin; 4] {
        let obs = ObsHandle::disabled();
        let warm = |basis: Option<Basis>| p.solve_with(&obs, basis.as_ref());
        let cold = p.solve();
        let own = warm(cold.basis.clone());
        let drifted = warm(perturbed(p).solve().basis);
        let adverse = warm(mirrored(p).solve().basis);
        [tie_pin(&cold), tie_pin(&own), tie_pin(&drifted), tie_pin(&adverse)]
    }

    #[rustfmt::skip]
    const EXPECTED: [[TiePin; 4]; 36] = [
        // 1 x 5 Ternary
        [
            (false, 0, 0, 0x4018000000000000, 0x523969f515c9fdf8, 0x70ee8373f9f2d2e3, 0x54cd6776e48b7ac5),
            (true, 0, 0, 0x4018000000000000, 0x523969f515c9fdf8, 0x70ee8373f9f2d2e3, 0x54cd6776e48b7ac5),
            (true, 0, 0, 0x4018000000000000, 0x523969f515c9fdf8, 0x70ee8373f9f2d2e3, 0x54cd6776e48b7ac5),
            (true, 5, 2, 0x4018000000000000, 0x523969f515c9fdf8, 0x70ee8373f9f2d2e3, 0x54cd6776e48b7ac5),
        ],
        // 1 x 5 TernaryBalanced
        [
            (false, 0, 0, 0x4014000000000000, 0x33e81a0dcc8f3478, 0x3ecd9aaf12084025, 0xf38cde211da17118),
            (true, 0, 0, 0x4014000000000000, 0x33e81a0dcc8f3478, 0x3ecd9aaf12084025, 0xf38cde211da17118),
            (true, 0, 0, 0x4014000000000000, 0x33e81a0dcc8f3478, 0x3ecd9aaf12084025, 0xf38cde211da17118),
            (true, 1, 1, 0x4014000000000000, 0x33e81a0dcc8f3478, 0x3ecd9aaf12084025, 0xf38cde211da17118),
        ],
        // 1 x 5 RepeatedColumns
        [
            (false, 0, 0, 0x4043e6e56d3286dc, 0x6625d6a7ca21517d, 0x46659dd95dba8f58, 0x08f9b9821413f6d7),
            (true, 0, 0, 0x4043e6e56d3286dc, 0x6625d6a7ca21517d, 0x46659dd95dba8f58, 0x08f9b9821413f6d7),
            (true, 0, 0, 0x4043e6e56d3286dc, 0x6625d6a7ca21517d, 0x96f9a3f6c02f0d1e, 0x08f9b9821413f6d7),
            (true, 0, 0, 0x4043e6e56d3286dc, 0x6983ad1104c3e1b8, 0xd0a04a427833cfa4, 0x08f9b9821413f6d7),
        ],
        // 1 x 5 ForbiddenLines
        [
            (false, 0, 0, 0x401087d74e177314, 0x7d11439b619a5078, 0xe631c8975faf2a98, 0xc98508ca20a06d28),
            (true, 0, 0, 0x401087d74e177314, 0x7d11439b619a5078, 0xe631c8975faf2a98, 0xc98508ca20a06d28),
            (true, 0, 0, 0x401087d74e177314, 0x7d11439b619a5078, 0xf72e983118d2f1c8, 0xacace3a47d0ac4d7),
            (true, 1, 0, 0x401087d74e177314, 0x7d11439b619a5078, 0xf72e983118d2f1c8, 0xacace3a47d0ac4d7),
        ],
        // 1 x 17 Ternary
        [
            (false, 0, 0, 0x3ff0000000000000, 0x3493e33fa3d3ad18, 0xaed4b2628734192e, 0x99060b3506e8ef78),
            (true, 0, 0, 0x3ff0000000000000, 0x3493e33fa3d3ad18, 0xaed4b2628734192e, 0x99060b3506e8ef78),
            (true, 0, 0, 0x3ff0000000000000, 0x3493e33fa3d3ad18, 0xaed4b2628734192e, 0x99060b3506e8ef78),
            (true, 8, 2, 0x3ff0000000000000, 0x9313cb53a68c9db8, 0xfae7a2c31c8a8e02, 0x99060b3506e8ef78),
        ],
        // 1 x 17 TernaryBalanced
        [
            (false, 0, 0, 0x4032000000000000, 0x6e3c31b64522aeb8, 0xfed0f84c6e1c7187, 0x2fe7a24af4123785),
            (true, 0, 0, 0x4032000000000000, 0x6e3c31b64522aeb8, 0xfed0f84c6e1c7187, 0x2fe7a24af4123785),
            (true, 0, 0, 0x4032000000000000, 0x6e3c31b64522aeb8, 0xc51b1c0403f0605d, 0x2fe7a24af4123785),
            (true, 1, 1, 0x4032000000000000, 0x6e3c31b64522aeb8, 0xfed0f84c6e1c7187, 0x2fe7a24af4123785),
        ],
        // 1 x 17 RepeatedColumns
        [
            (false, 0, 0, 0x40116938fbaf7cd8, 0xd8f746edf032b085, 0x24299c01dfe47da3, 0xbc9046c304113341),
            (true, 0, 0, 0x40116938fbaf7cd8, 0xd8f746edf032b085, 0x24299c01dfe47da3, 0xbc9046c304113341),
            (true, 0, 0, 0x40116938fbaf7cd8, 0xd8f746edf032b085, 0x1254cf88159ac3c7, 0xbc9046c304113341),
            (true, 3, 1, 0x40116938fbaf7cd8, 0x5cda28579cc71aa5, 0xd512a6f9e66d3e1f, 0xbc9046c304113341),
        ],
        // 1 x 17 ForbiddenLines
        [
            (false, 0, 0, 0x40368c2463f9fc50, 0x538feef9e3bf44d8, 0xa4d1df821f91f46a, 0xf249acf0fdc653ed),
            (true, 0, 0, 0x40368c2463f9fc50, 0x538feef9e3bf44d8, 0xa4d1df821f91f46a, 0xf249acf0fdc653ed),
            (true, 0, 0, 0x40368c2463f9fc50, 0x538feef9e3bf44d8, 0x2647bbd9461db90d, 0x15a8749d14810cc1),
            (true, 10, 3, 0x40368c2463f9fc50, 0x538feef9e3bf44d8, 0xa4d1df821f91f46a, 0xf249acf0fdc653ed),
        ],
        // 5 x 3 Ternary
        [
            (false, 0, 0, 0x4032000000000000, 0x6b77be2ff9fa6670, 0x7140cf3850405e20, 0xdb67c1ddf00ef498),
            (true, 0, 0, 0x4032000000000000, 0x6b77be2ff9fa6670, 0x7140cf3850405e20, 0xdb67c1ddf00ef498),
            (true, 0, 0, 0x4032000000000000, 0xde4dc8aa0f53caf1, 0x02f668317c9a30e0, 0xdb67c1ddf00ef498),
            (true, 6, 0, 0x4032000000000000, 0x052c2f3507e86d60, 0x5491460153e5c1c0, 0xdb67c1ddf00ef498),
        ],
        // 5 x 3 TernaryBalanced
        [
            (false, 0, 0, 0x4014000000000000, 0xe648f6ee8d424c7d, 0xd4f58ce897d3ffad, 0x4dec3930a9448038),
            (true, 0, 0, 0x4014000000000000, 0xe648f6ee8d424c7d, 0xd4f58ce897d3ffad, 0x4dec3930a9448038),
            (true, 0, 0, 0x4014000000000000, 0xdca92da8438bfe7d, 0x7ec88b791f6db85f, 0x4dec3930a9448038),
            (true, 7, 1, 0x4014000000000000, 0xe648f6ee8d424c7d, 0xa98c23c2cf482323, 0x4dec3930a9448038),
        ],
        // 5 x 3 RepeatedColumns
        [
            (false, 0, 0, 0x407145323b577c1c, 0x011346172c8b1ff5, 0x8fb4e15325c7f46e, 0x8b8518e64ace0692),
            (true, 0, 0, 0x407145323b577c1c, 0x011346172c8b1ff5, 0x8fb4e15325c7f46e, 0x8b8518e64ace0692),
            (true, 0, 0, 0x407145323b577c1c, 0xe9e986b6d7eb5e45, 0x57239cec1e9d42df, 0x8b8518e64ace0692),
            (true, 0, 0, 0x407145323b577c1c, 0xdee3c2b3de52c0b8, 0x2337b12dfdc036f9, 0x8b8518e64ace0692),
        ],
        // 5 x 3 ForbiddenLines
        [
            (false, 0, 0, 0x4050f9caccfeb9b8, 0x39d439d8f3f57365, 0x4178bb7bea31eaf6, 0x33f305d99a0ffc3e),
            (true, 0, 0, 0x4050f9caccfeb9b8, 0x39d439d8f3f57365, 0x4178bb7bea31eaf6, 0x33f305d99a0ffc3e),
            (true, 0, 0, 0x4050f9caccfeb9b8, 0x39d439d8f3f57365, 0x4178bb7bea31eaf6, 0x33f305d99a0ffc3e),
            (true, 6, 3, 0x4050f9caccfeb9b8, 0x39d439d8f3f57365, 0xe5e9342af9cae6fd, 0x33f305d99a0ffc3e),
        ],
        // 7 x 8 Ternary
        [
            (false, 0, 0, 0x4010000000000000, 0xe9b96bcb2d7cf304, 0xf07691f51bc0a4c6, 0x5b76752aa07a6758),
            (true, 0, 0, 0x4010000000000000, 0xe9b96bcb2d7cf304, 0xf07691f51bc0a4c6, 0x5b76752aa07a6758),
            (true, 0, 0, 0x4010000000000000, 0xe9b96bcb2d7cf304, 0xf07691f51bc0a4c6, 0x5b76752aa07a6758),
            (true, 15, 3, 0x4010000000000000, 0x2864a7c6878b3e0d, 0x974b33e248090c2f, 0x5b76752aa07a6758),
        ],
        // 7 x 8 TernaryBalanced
        [
            (false, 1, 0, 0x401c000000000000, 0xce50c3264cbdfe94, 0xa9d08d53cd7bb294, 0x6c53e6c05fc4aa05),
            (true, 0, 0, 0x401c000000000000, 0xce50c3264cbdfe94, 0xa9d08d53cd7bb294, 0x6c53e6c05fc4aa05),
            (true, 0, 0, 0x401c000000000000, 0xce50c3264cbdfe94, 0xa9d08d53cd7bb294, 0x6c53e6c05fc4aa05),
            (true, 15, 1, 0x401c000000000000, 0x1dae428826e64239, 0xe2017f4202d92584, 0x6c53e6c05fc4aa05),
        ],
        // 7 x 8 RepeatedColumns
        [
            (false, 11, 5, 0x406aefc1d66541cb, 0xaf64362fc8f25d15, 0x1a36e4fce3c3e775, 0x073c814a935b3b8f),
            (true, 0, 0, 0x406aefc1d66541cb, 0xaf64362fc8f25d15, 0x1a36e4fce3c3e775, 0x073c814a935b3b8f),
            (true, 0, 0, 0x406aefc1d66541cc, 0xc3250d62013c7e78, 0x4f8aad885312319f, 0x073c814a935b3b8f),
            (true, 15, 6, 0x406aefc1d66541cb, 0x978231b5b22813c8, 0xebbc71e9e44f0e22, 0x073c814a935b3b8f),
        ],
        // 7 x 8 ForbiddenLines
        [
            (false, 6, 4, 0x40677f1c877a4a06, 0x455fbbecbc6e2898, 0x1e8c16b93a4a3262, 0xa1d0a8657de751ba),
            (true, 0, 0, 0x40677f1c877a4a06, 0x455fbbecbc6e2898, 0x1e8c16b93a4a3262, 0xa1d0a8657de751ba),
            (true, 0, 0, 0x40677f1c877a4a06, 0x455fbbecbc6e2898, 0xeda7ebbba173b6af, 0xde1164b0749dbdab),
            (true, 14, 6, 0x40677f1c877a4a06, 0x455fbbecbc6e2898, 0xa4783cc372cb94e4, 0xbce848d219a3dddb),
        ],
        // 6 x 9 Ternary
        [
            (false, 0, 0, 0x4014000000000000, 0x5349e787aa80fc01, 0x13e512a2d539ce96, 0x113d1ac63bc21998),
            (true, 0, 0, 0x4014000000000000, 0x5349e787aa80fc01, 0x13e512a2d539ce96, 0x113d1ac63bc21998),
            (true, 0, 0, 0x4014000000000000, 0x5349e787aa80fc01, 0x13e512a2d539ce96, 0x113d1ac63bc21998),
            (true, 15, 2, 0x4014000000000000, 0xf51557f3e907db08, 0x884177d956614552, 0x113d1ac63bc21998),
        ],
        // 6 x 9 TernaryBalanced
        [
            (false, 3, 2, 0x4028000000000000, 0x353b53c9c5f1284d, 0x32fd72f83efc2ce1, 0x85195d4274a21c78),
            (true, 0, 0, 0x4028000000000000, 0x353b53c9c5f1284d, 0x32fd72f83efc2ce1, 0x85195d4274a21c78),
            (true, 0, 0, 0x4028000000000000, 0x8895550bfbfcc0e5, 0xcf3590efb5cf8d84, 0x85195d4274a21c78),
            (true, 20, 12, 0x4028000000000000, 0x7bbc58bb667240e5, 0x2ac2c6d1e15c13e8, 0x85195d4274a21c78),
        ],
        // 6 x 9 RepeatedColumns
        [
            (false, 15, 7, 0x4060d65d0c9ce0e7, 0xf984779e1e78ee6c, 0x659343ec0a6c6a7c, 0xc16a88f3f3a018b6),
            (true, 0, 0, 0x4060d65d0c9ce0e7, 0xf984779e1e78ee6c, 0x659343ec0a6c6a7c, 0xc16a88f3f3a018b6),
            (true, 0, 0, 0x4060d65d0c9ce0e7, 0x416ceb59ce6ac428, 0x5941e3e6f4251d51, 0xc16a88f3f3a018b6),
            (true, 22, 7, 0x4060d65d0c9ce0e7, 0x0e0cf1c6ab129c9d, 0x7f4e7cf869bacc7c, 0xc16a88f3f3a018b6),
        ],
        // 6 x 9 ForbiddenLines
        [
            (false, 2, 2, 0x40461d67d4a4e594, 0x73dc967d90f2b940, 0x0317ae29294787fe, 0xdd268de7b7caabc9),
            (true, 0, 0, 0x40461d67d4a4e594, 0x73dc967d90f2b940, 0x0317ae29294787fe, 0xdd268de7b7caabc9),
            (true, 0, 0, 0x40461d67d4a4e594, 0x73dc967d90f2b940, 0x698e20a130bfa195, 0x9361ebcd55d53732),
            (true, 11, 5, 0x40461d67d4a4e594, 0x73dc967d90f2b940, 0xc4130eaef4fb3cfd, 0x9361ebcd55d53732),
        ],
        // 13 x 15 Ternary
        [
            (false, 0, 0, 0x0000000000000000, 0x5739076c42ed1229, 0xa3d6f7a2519386fb, 0xcc6a1ff5f8a224a5),
            (true, 0, 0, 0x0000000000000000, 0x5739076c42ed1229, 0xa3d6f7a2519386fb, 0xcc6a1ff5f8a224a5),
            (true, 0, 0, 0x0000000000000000, 0x5739076c42ed1229, 0xa3d6f7a2519386fb, 0xcc6a1ff5f8a224a5),
            (true, 32, 13, 0x0000000000000000, 0xdb33e62711ce86c8, 0x1cf0f277129f5a3e, 0xcc6a1ff5f8a224a5),
        ],
        // 13 x 15 TernaryBalanced
        [
            (false, 8, 0, 0x4000000000000000, 0x7a1f6595ca64af99, 0x9a0c55fc8abf76f5, 0x18beb0c5789f6ac5),
            (true, 0, 0, 0x4000000000000000, 0x7a1f6595ca64af99, 0x9a0c55fc8abf76f5, 0x18beb0c5789f6ac5),
            (true, 0, 0, 0x4000000000000000, 0xd501bae9d9b6a714, 0xc8cc0c92fb322db4, 0x18beb0c5789f6ac5),
            (true, 49, 0, 0x4000000000000000, 0x6604d31d8c3139e2, 0x55bfdcd57ef89134, 0x18beb0c5789f6ac5),
        ],
        // 13 x 15 RepeatedColumns
        [
            (false, 22, 8, 0x406b9c73de1176d3, 0x69505ce376226840, 0xf86487d1f8e08962, 0x4e57ad4a3d24a37a),
            (true, 0, 0, 0x406b9c73de1176d3, 0x69505ce376226840, 0xf86487d1f8e08962, 0x4e57ad4a3d24a37a),
            (true, 0, 0, 0x406b9c73de1176d4, 0x2ff092e438b6d895, 0xfc8d5793aa7d68b9, 0x4e57ad4a3d24a37a),
            (true, 53, 19, 0x406b9c73de1176d3, 0x9449199650659de1, 0x73ebb31d3b28b17a, 0x4e57ad4a3d24a37a),
        ],
        // 13 x 15 ForbiddenLines
        [
            (false, 11, 7, 0x405c6bfd82f351f5, 0xa2dd11c8f7b00ecd, 0x4593e5991f39de25, 0xf5314513e3f4ca4c),
            (true, 0, 0, 0x405c6bfd82f351f5, 0xa2dd11c8f7b00ecd, 0x4593e5991f39de25, 0xf5314513e3f4ca4c),
            (true, 1, 0, 0x405c6bfd82f351f5, 0xa2dd11c8f7b00ecd, 0xe59830d596449a60, 0xfc584b89156e5a3b),
            (true, 34, 14, 0x405c6bfd82f351f5, 0xa2dd11c8f7b00ecd, 0xc46cf3c73d7d743c, 0xfc584b89156e5a3b),
        ],
        // 24 x 64 Ternary
        [
            (false, 0, 0, 0x0000000000000000, 0x052da990dd888358, 0x8c1202a98214fb6d, 0xcf58746c2dfcfa25),
            (true, 0, 0, 0x0000000000000000, 0x052da990dd888358, 0x8c1202a98214fb6d, 0xcf58746c2dfcfa25),
            (true, 0, 0, 0x0000000000000000, 0x052da990dd888358, 0x8c1202a98214fb6d, 0xcf58746c2dfcfa25),
            (true, 111, 80, 0x0000000000000000, 0xee19591bfe9a168d, 0x5dae6e3c6f18e2ec, 0xcf58746c2dfcfa25),
        ],
        // 24 x 64 TernaryBalanced
        [
            (false, 7, 4, 0x0000000000000000, 0xdbe9d9c36c90e6bd, 0x6743fb92bfcea9e3, 0xcf58746c2dfcfa25),
            (true, 0, 0, 0x0000000000000000, 0xdbe9d9c36c90e6bd, 0x6743fb92bfcea9e3, 0xcf58746c2dfcfa25),
            (true, 0, 0, 0x0000000000000000, 0x623a81ef2c4f2375, 0xf12da86936cb042a, 0xcf58746c2dfcfa25),
            (true, 157, 122, 0x0000000000000000, 0x5ae181effb511c0d, 0xb6426c36814d096a, 0xcf58746c2dfcfa25),
        ],
        // 24 x 64 RepeatedColumns
        [
            (false, 58, 30, 0x40611aec84ab947e, 0x60499d66a2e969ad, 0xc6d7da9dcef96468, 0x272e89ad05ef8dae),
            (true, 0, 0, 0x40611aec84ab947e, 0x60499d66a2e969ad, 0xc6d7da9dcef96468, 0x272e89ad05ef8dae),
            (true, 12, 6, 0x40611aec84ab947f, 0xbae596d5e9adfa5d, 0x48f0c274a860712d, 0x272e89ad05ef8dae),
            (true, 139, 79, 0x40611aec84ab947f, 0x261248056cd859c1, 0xa369ba20a210840b, 0xff950472c85c2735),
        ],
        // 24 x 64 ForbiddenLines
        [
            (false, 71, 57, 0x40548b98f81c6b33, 0x1ef36606c85be5d0, 0xe2b664d74b1bdd20, 0xc79c340e6aa526a1),
            (true, 0, 0, 0x40548b98f81c6b33, 0x1ef36606c85be5d0, 0xe2b664d74b1bdd20, 0xc79c340e6aa526a1),
            (true, 4, 2, 0x40548b98f81c6b33, 0x1ef36606c85be5d0, 0x9b50fe69525ecf64, 0xc79c340e6aa526a1),
            (true, 194, 144, 0x40548b98f81c6b33, 0x1ef36606c85be5d0, 0xd3a30318ad1f9f2e, 0x12db74446e639d92),
        ],
        // 33 x 65 Ternary
        [
            (false, 0, 0, 0x0000000000000000, 0x42bc48a9b99377d8, 0xa3cf670ccca98d08, 0xacce919f8e9b2065),
            (true, 0, 0, 0x0000000000000000, 0x42bc48a9b99377d8, 0xa3cf670ccca98d08, 0xacce919f8e9b2065),
            (true, 0, 0, 0x0000000000000000, 0x42bc48a9b99377d8, 0xa3cf670ccca98d08, 0xacce919f8e9b2065),
            (true, 119, 89, 0x0000000000000000, 0xe1652fb697b5ae38, 0x5072eaa728ffeedf, 0xacce919f8e9b2065),
        ],
        // 33 x 65 TernaryBalanced
        [
            (false, 16, 0, 0x0000000000000000, 0xe99c8463f712728e, 0x9ac992eef5c452ba, 0xacce919f8e9b2065),
            (true, 0, 0, 0x0000000000000000, 0xe99c8463f712728e, 0x9ac992eef5c452ba, 0xacce919f8e9b2065),
            (false, 16, 0, 0x0000000000000000, 0xe99c8463f712728e, 0x9ac992eef5c452ba, 0xacce919f8e9b2065),
            (true, 207, 0, 0x0000000000000000, 0x8f1b85261ee89a62, 0x1b3eb2aa9beb5045, 0xacce919f8e9b2065),
        ],
        // 33 x 65 RepeatedColumns
        [
            (false, 75, 41, 0x4069e71b1589d565, 0x1c55c5bfd25f795d, 0x842816310d28a8bb, 0xa9735fe45c2afec6),
            (true, 0, 0, 0x4069e71b1589d565, 0x1c55c5bfd25f795d, 0x842816310d28a8bb, 0xa9735fe45c2afec6),
            (true, 9, 3, 0x4069e71b1589d566, 0x5644738680aeb0f1, 0x41274fff53e81553, 0xd9f0a1a3eeadac98),
            (true, 196, 120, 0x4069e71b1589d567, 0x0282f238787ce6b1, 0x9d31be48b62ade66, 0x001e7d35db1bd04c),
        ],
        // 33 x 65 ForbiddenLines
        [
            (false, 111, 91, 0x40540de9d27955c4, 0x2ea5798e2e383401, 0x1f43108570c302f8, 0x86e9808590ce485a),
            (true, 0, 0, 0x40540de9d27955c4, 0x2ea5798e2e383401, 0x1f43108570c302f8, 0x86e9808590ce485a),
            (true, 20, 13, 0x40540de9d27955c4, 0x2ea5798e2e383401, 0x1c51204ef7ba3356, 0x944f62de39497f9b),
            (true, 234, 171, 0x40540de9d27955c4, 0x2ea5798e2e383401, 0x7e2f01fe63657fc7, 0xabd6d009c87e1e74),
        ],
        // 40 x 71 Ternary
        [
            (false, 0, 0, 0x0000000000000000, 0x427a36fe4004dac9, 0xb9f74a20de6040c8, 0xb91f7c084c076685),
            (true, 0, 0, 0x0000000000000000, 0x427a36fe4004dac9, 0xb9f74a20de6040c8, 0xb91f7c084c076685),
            (true, 0, 0, 0x0000000000000000, 0x427a36fe4004dac9, 0xb9f74a20de6040c8, 0xb91f7c084c076685),
            (true, 167, 113, 0x0000000000000000, 0xd4eb61799a8d2199, 0x6c2e3cbd8ff9fe81, 0xb91f7c084c076685),
        ],
        // 40 x 71 TernaryBalanced
        [
            (false, 9, 0, 0x0000000000000000, 0x4ab36f935ef0abef, 0x345fc2d62a253cb8, 0xb91f7c084c076685),
            (true, 0, 0, 0x0000000000000000, 0x4ab36f935ef0abef, 0x345fc2d62a253cb8, 0xb91f7c084c076685),
            (false, 9, 0, 0x0000000000000000, 0x4ab36f935ef0abef, 0x345fc2d62a253cb8, 0xb91f7c084c076685),
            (true, 170, 0, 0x0000000000000000, 0xde90fad60d53449f, 0x8cfe7fca2e7a8590, 0xb91f7c084c076685),
        ],
        // 40 x 71 RepeatedColumns
        [
            (false, 107, 66, 0x40647f13bf045f0e, 0xae6f5fa8b5694599, 0x290d1fccde4128c2, 0x895f0940bc8e8a84),
            (true, 0, 0, 0x40647f13bf045f0e, 0xae6f5fa8b5694599, 0x290d1fccde4128c2, 0x895f0940bc8e8a84),
            (true, 4, 2, 0x40647f13bf045f0e, 0xd4fc5172854f5e25, 0x6da841b9d84c2e1a, 0xba776afdfbc4b440),
            (true, 316, 230, 0x40647f13bf045f0d, 0x1cf0d21da8ee3c95, 0x7ce329d941a8def8, 0xebc55f93e353124f),
        ],
        // 40 x 71 ForbiddenLines
        [
            (false, 162, 146, 0x405493a09cad04e8, 0x82eaa7c2474c6608, 0x667c682a8a0bc311, 0xf2c32f49784b9f1b),
            (true, 0, 0, 0x405493a09cad04e8, 0x82eaa7c2474c6608, 0x667c682a8a0bc311, 0xf2c32f49784b9f1b),
            (true, 32, 28, 0x405493a09cad04e8, 0x82eaa7c2474c6608, 0x37a86e191b4b154e, 0x96643cb869e84f23),
            (true, 190, 120, 0x405493a09cad04e8, 0x82eaa7c2474c6608, 0xe0f5b5e9a550c521, 0x1fd678f49bb24115),
        ],
    ];

    #[test]
    fn solver_walks_the_pinned_pivots_through_ties() {
        let mut actual = Vec::new();
        for (si, &(m, n)) in SIZES.iter().enumerate() {
            for (ki, &kind) in KINDS.iter().enumerate() {
                actual.push(solve_four_ways(&instance(kind, m, n, 2000 + (si * 4 + ki) as u64)));
            }
        }
        if actual != EXPECTED {
            for (row, pins) in actual.iter().enumerate() {
                let (m, n) = SIZES[row / 4];
                eprintln!("        // {m} x {n} {:?}", KINDS[row % 4]);
                eprintln!("        [");
                for p in pins {
                    eprintln!(
                        "            ({}, {}, {}, {:#018x}, {:#018x}, {:#018x}, {:#018x}),",
                        p.0, p.1, p.2, p.3, p.4, p.5, p.6
                    );
                }
                eprintln!("        ],");
            }
            panic!("transportation solver left its pinned pivot sequence");
        }
    }

    /// `cells_priced` of the solves
    /// [`solver_walks_the_pinned_pivots_through_ties`] makes, as a ceiling:
    /// a solver may price fewer cells on the way to the same pivots.
    #[test]
    fn tie_solves_price_under_a_ceiling() {
        #[rustfmt::skip]
        const CEILING: &[[u64; 4]] = &[
            [10, 10, 10, 60],
            [10, 10, 10, 15],
            [10, 10, 10, 10],
            [10, 10, 10, 20],
            [34, 34, 34, 306],
            [34, 34, 34, 51],
            [34, 34, 34, 136],
            [34, 34, 34, 374],
            [18, 18, 18, 111],
            [18, 18, 18, 113],
            [18, 18, 18, 18],
            [18, 18, 18, 96],
            [64, 64, 64, 778],
            [79, 64, 64, 380],
            [421, 64, 64, 636],
            [316, 64, 64, 551],
            [63, 63, 63, 757],
            [150, 63, 63, 797],
            [577, 63, 63, 922],
            [123, 63, 63, 428],
            [210, 210, 210, 4772],
            [1273, 210, 210, 7471],
            [2471, 210, 210, 6899],
            [1195, 210, 238, 3895],
            [1600, 1600, 1600, 81822],
            [8246, 1600, 1600, 114739],
            [38299, 1600, 6007, 99833],
            [28974, 1600, 4977, 91508],
            [2210, 2210, 2210, 114736],
            [20655, 2210, 20655, 281429],
            [72932, 2210, 6745, 162433],
            [35535, 2210, 6039, 140756],
            [2911, 2911, 2911, 211030],
            [20080, 2911, 20080, 446282],
            [138089, 2911, 4755, 333104],
            [64606, 2911, 9999, 144295],
        ];
        let obs = ObsHandle::disabled();
        let mut actual = Vec::new();
        for (si, &(m, n)) in SIZES.iter().enumerate() {
            for (ki, &kind) in KINDS.iter().enumerate() {
                let p = instance(kind, m, n, 2000 + (si * 4 + ki) as u64);
                let warm = |basis: Option<Basis>| p.solve_with(&obs, basis.as_ref());
                let cold = p.solve();
                let own = warm(cold.basis.clone());
                let drifted = warm(perturbed(&p).solve().basis);
                let adverse = warm(mirrored(&p).solve().basis);
                actual.push([&cold, &own, &drifted, &adverse].map(|s| s.cells_priced));
            }
        }
        let holds = actual.len() == CEILING.len()
            && actual
                .iter()
                .zip(CEILING)
                .all(|(got, cap)| got.iter().zip(cap).all(|(g, c)| g <= c));
        if !holds {
            for row in &actual {
                eprintln!("            {row:?},");
            }
            panic!("pricing rose above its ceiling");
        }
    }

    /// A forbidden row that must ship is only found infeasible *after*
    /// MODI has driven what it can off the big-M cells: the pivots on the
    /// way there are pinned too.
    #[test]
    fn infeasible_forbidden_rows_walk_the_pinned_pivots() {
        const EXPECTED: [(usize, usize); 4] = [(1, 0), (0, 0), (42, 29), (156, 128)];
        let mut actual = Vec::new();
        for (k, &(m, n)) in [(5, 3), (6, 9), (24, 64), (40, 71)].iter().enumerate() {
            let mut p = instance(Kind::ForbiddenLines, m, n, 3000 + k as u64);
            p.supply[2] = 1.0; // row 2 is entirely forbidden
            p.capacity[1] += 1.0;
            let s = p.solve();
            assert_eq!(s.status, TransportStatus::Infeasible);
            actual.push((s.iterations, s.degenerate_pivots));
        }
        assert_eq!(actual, EXPECTED);
    }

    #[test]
    fn tie_instances_have_the_shapes_they_claim() {
        let p = instance(Kind::Ternary, 24, 64, 1);
        assert!(p.cost.iter().all(|&c| c == 0.0 || c == 1.0 || c == 2.0));
        let p = instance(Kind::RepeatedColumns, 24, 64, 1);
        assert!((0..24).all(|i| (0..64).all(|j| p.cost_at(i, j) == p.cost_at(i, j % 21))));
        let p = instance(Kind::ForbiddenLines, 24, 64, 1);
        assert!((0..64).all(|j| p.cost_at(2, j).is_infinite()), "row 2 forbidden");
        assert!((0..24).all(|i| p.cost_at(i, 4).is_infinite()), "column 4 forbidden");
        assert!(p.cost_at(0, 1).is_finite());
        for (_, n) in SIZES {
            assert!(n < 8 || matches!(n % 8, 0 | 1 | 7), "{n}");
        }
    }
}

/// `cells_priced` counts reduced costs evaluated. One full scan per pricing
/// step — what the solver did before it cached row minima — would be
/// `(pivots + 1)` times the admissible cells plus the slack row's `n`:
/// implicit cells are read only when a basic big-M cell brings them within
/// reach. A pivot moves the duals of one cut-off component, so on costs
/// without ties (the shape of a placement round) the count must be a small
/// fraction of that; degenerate pivots flip large components, so the
/// tie-heavy kinds are only held to the ceiling.
#[test]
fn pricing_visits_a_fraction_of_the_cells() {
    let (m, n) = SIZES[2];
    for (ki, &kind) in KINDS.iter().enumerate() {
        let p = instance(kind, m, n, 1008 + ki as u64);
        let full_scan = (p.cost.len() + n) as u64;
        let cold = p.solve();
        let ceiling = (cold.iterations as u64 + 1) * full_scan;
        let percent = match kind {
            Kind::Dense | Kind::Blocks => 15,
            Kind::Integer | Kind::Balanced => 100,
        };
        assert!(
            cold.cells_priced >= full_scan && cold.cells_priced * 100 <= percent * ceiling,
            "{kind:?}: priced {} cells in {} pivots, a full scan each is {ceiling}",
            cold.cells_priced,
            cold.iterations
        );
        // a basis that is already optimal is priced once, in full
        let obs = ObsHandle::recording(0);
        let own = p.solve_with(&obs, cold.basis.as_ref());
        assert_eq!((own.iterations, own.cells_priced), (0, full_scan), "{kind:?}");
        assert_eq!(obs.counter("lp.cells_priced"), full_scan);
    }
}
