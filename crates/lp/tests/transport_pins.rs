//! Exact pins of what the transportation solver *does*, not only what it
//! reaches: pivot counts, objective bits and FNV-1a digests of every flow
//! bit and every exported basis cell, on seeded instances at three sizes
//! and four cost structures, cold and warm. The numbers were taken from
//! the dense-bitmap solver (rescanning Vogel, bitmap MODI); any faster
//! replacement must walk the same pivots and so leave every pin unchanged.

use dust_lp::{SolveOptions, TransportProblem, TransportSolution, TransportStatus};
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
    for c in q.cost.iter_mut().step_by(7) {
        *c *= 1.5;
    }
    q
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
    (
        s.warm_used,
        s.iterations,
        s.objective.to_bits(),
        fnv1a(s.flow.iter().flat_map(|f| f.to_bits().to_le_bytes())),
        fnv1a(format!("{basis:?}").bytes()),
    )
}

/// Cold, warm from the instance's own optimal basis, warm from the
/// perturbed instance's optimal basis.
fn solve_three_ways(p: &TransportProblem) -> [Pin; 3] {
    let obs = ObsHandle::disabled();
    let cold = p.solve();
    let own = p.solve_with_options(&obs, &SolveOptions { warm_start: cold.basis.clone() });
    let stale = perturbed(p).solve().basis;
    let drifted = p.solve_with_options(&obs, &SolveOptions { warm_start: stale });
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

/// The pins only mean something if the instances exercise what they claim
/// to: ties, forbidden blocks, degeneracy, accepted and rejected bases.
#[test]
fn pinned_instances_have_the_shapes_they_claim() {
    let (m, n) = SIZES[2];
    let blocks = instance(Kind::Blocks, m, n, 1);
    let forbidden = blocks.cost.iter().filter(|c| c.is_infinite()).count();
    assert!(forbidden * 10 >= blocks.cost.len() * 9 - blocks.cost.len() / 10, "{forbidden}");
    let balanced = instance(Kind::Balanced, m, n, 1);
    let (s, c): (f64, f64) = (balanced.supply.iter().sum(), balanced.capacity.iter().sum());
    assert_eq!(s.to_bits(), c.to_bits());
    let integer = instance(Kind::Integer, m, n, 1);
    assert!(integer.cost.iter().all(|c| c.fract() == 0.0));
}
