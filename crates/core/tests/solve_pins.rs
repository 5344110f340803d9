//! Exact pins of every transportation solve a placement round makes, on
//! the instances the Manager meets: decide-shaped fat-trees at three
//! sizes and four hop bounds, and the CLI's 16-k smoke batch. Each solve
//! pins its pivots, its degenerate pivots, the objective's bits and a
//! digest of the exported basis and of every assignment; a rewrite of the
//! solver must walk the same pivots to the same answer. `cells_priced` is
//! pinned as a ceiling: a solver may price fewer cells, never more.
//!
//! The routes the placements carry are pinned apart from the solves, node
//! id for node id and edge id for edge id: over the same corpus and
//! batch, over a fat-tree whose links all carry the same load (every
//! route ties with its mirror images), and over Algorithm 1's routes.

use dust_core::{heuristic_with, optimize_with, random_nmdb, Assignment, DustConfig, Nmdb};
use dust_core::{NodeState, Placement, ScenarioParams};
use dust_obs::ObsHandle;
use dust_topology::{CostEngine, FatTree, SplitMix64, Tier};

/// A decide-shaped snapshot of a `k`-port fat-tree: link utilisations in
/// `[0.1, 0.9]`, and in every tier a sixth of the switches Busy (82–98 %),
/// half Offload-candidates (6–30 %) and the rest neutral (56–74 %), each
/// with 10–500 Mb of monitoring data.
fn decide_nmdb(k: usize, seed: u64) -> Nmdb {
    let ft = FatTree::with_default_links(k);
    let mut rng = SplitMix64::new(seed);
    let mut graph = ft.graph.clone();
    graph.retarget_utilization(|_, _| rng.range_f64(0.1, 0.9));
    let mut util = vec![0.0; graph.node_count()];
    for tier in [Tier::Core, Tier::Aggregation, Tier::Edge] {
        let mut order: Vec<usize> = ft.tier_nodes(tier).iter().map(|n| n.index()).collect();
        rng.shuffle(&mut order);
        let (hot, cand) = (order.len() / 6, order.len() / 2);
        for (rank, &i) in order.iter().enumerate() {
            util[i] = match rank {
                r if r < hot => rng.range_f64(82.0, 98.0),
                r if r < hot + cand => rng.range_f64(6.0, 30.0),
                _ => rng.range_f64(56.0, 74.0),
            };
        }
    }
    let states = util.iter().map(|&u| NodeState::new(u, rng.range_f64(10.0, 500.0))).collect();
    Nmdb::new(graph, states)
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// `(pivots, degenerate pivots, cells priced, β bits, digest)` of one
/// solve. The digest covers the status, the exported basis (its `Debug`
/// text lists every cell) and every assignment's endpoints, amount and
/// `T_rmin` bits, in the order the placement lists them.
type Pin = (u64, u64, u64, u64, u64);

fn solve(nmdb: &Nmdb, cfg: &DustConfig) -> Pin {
    let obs = ObsHandle::recording(0);
    let engine = CostEngine::with_threads(1).with_obs(obs.clone());
    let p: Placement = optimize_with(nmdb, cfg, &engine, None).expect("solves");
    let mut h =
        fnv1a(0xcbf2_9ce4_8422_2325, format!("{:?} {:?}", p.status, p.warm.basis).as_bytes());
    for a in &p.assignments {
        h = fnv1a(h, &a.from.0.to_le_bytes());
        h = fnv1a(h, &a.to.0.to_le_bytes());
        h = fnv1a(h, &a.amount.to_bits().to_le_bytes());
        h = fnv1a(h, &a.t_rmin.to_bits().to_le_bytes());
    }
    (
        obs.counter("lp.transport.pivots"),
        obs.counter("lp.degenerate_pivots"),
        obs.counter("lp.cells_priced"),
        p.beta.to_bits(),
        h,
    )
}

const SIZES: [usize; 3] = [8, 16, 24];
/// `0` stands for no hop bound.
const HOPS: [usize; 4] = [1, 2, 4, 0];
const SEEDS: [u64; 4] = [1, 2, 3, 4];

fn decide_corpus() -> Vec<Pin> {
    let mut pins = Vec::new();
    for k in SIZES {
        for hop in HOPS {
            let cfg = DustConfig::paper_defaults().with_max_hop((hop > 0).then_some(hop));
            for seed in SEEDS {
                pins.push(solve(&decide_nmdb(k, seed), &cfg));
            }
        }
    }
    pins
}

/// `dustctl place --fat-tree 16 --batch 3 --seed 11`: the CLI's defaults
/// (no hop bound, the hop-bounded DP) over `random_nmdb` at seeds 11–13.
fn cli_batch() -> Vec<Pin> {
    let graph = FatTree::with_default_links(16).graph;
    let cfg = DustConfig::paper_defaults().with_max_hop(None);
    (11..14)
        .map(|seed| solve(&random_nmdb(&graph, &cfg, &ScenarioParams::default(), seed), &cfg))
        .collect()
}

/// Equal to `want` in everything but `cells_priced`, which may only fall.
fn assert_pinned(got: &[Pin], want: &[Pin], what: &str) {
    let holds = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g.0, g.1, g.3, g.4) == (w.0, w.1, w.3, w.4) && g.2 <= w.2);
    if !holds {
        for p in got {
            eprintln!("    ({}, {}, {}, {:#018x}, {:#018x}),", p.0, p.1, p.2, p.3, p.4);
        }
        panic!("{what}: the solves left their pins");
    }
}

#[test]
fn decide_shaped_solves_walk_the_pinned_pivots() {
    assert_pinned(&decide_corpus(), DECIDE, "decide-shaped fat-trees");
}

#[test]
fn the_cli_batch_walks_the_pinned_pivots() {
    assert_pinned(&cli_batch(), CLI_BATCH, "the CLI's 16-k batch");
}

/// The corpus covers what it claims: feasible and infeasible solves, and
/// solves that pivot.
#[test]
fn the_pinned_corpus_has_the_shapes_it_claims() {
    let nan = DECIDE.iter().filter(|p| f64::from_bits(p.3).is_nan()).count();
    assert!(nan > 0 && nan < DECIDE.len(), "{nan} infeasible of {}", DECIDE.len());
    assert!(DECIDE.iter().filter(|p| p.0 > 0).count() > DECIDE.len() / 2);
}

/// At a hop bound of two a 24-k round's instance admits about a fifth of
/// its cells, and pricing reads only those, unless a basic big-M cell
/// brings the others within reach: each such solve prices at most a third
/// of the cells its pin allows, which is what the solver priced when it
/// read every cell.
#[test]
fn hop_bounded_solves_price_a_third_of_their_ceiling() {
    let cfg = DustConfig::paper_defaults().with_max_hop(Some(2));
    // the k = 24, hop = 2 block of DECIDE
    let at = (SIZES.len() - 1) * HOPS.len() * SEEDS.len() + SEEDS.len();
    for (pin, seed) in DECIDE[at..at + SEEDS.len()].iter().zip(SEEDS) {
        let got = solve(&decide_nmdb(24, seed), &cfg);
        assert_eq!((got.0, got.4), (pin.0, pin.4), "seed {seed}: not the pinned solve");
        assert!(3 * got.2 <= pin.2, "seed {seed}: priced {} of a ceiling of {}", got.2, pin.2);
    }
}

/// FNV-1a over every assignment's route, in the order the placement lists
/// them: its node ids, then its edge ids; an assignment without a route
/// hashes one `0xff` byte.
fn route_digest(assignments: &[Assignment]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for a in assignments {
        match &a.route {
            Some(p) => {
                for n in &p.nodes {
                    h = fnv1a(h, &n.0.to_le_bytes());
                }
                for e in &p.edges {
                    h = fnv1a(h, &e.0.to_le_bytes());
                }
            }
            None => h = fnv1a(h, &[0xff]),
        }
    }
    h
}

/// The hop-bounded DP under `hop` (`0`: no bound).
fn dp_cfg(hop: usize) -> DustConfig {
    DustConfig::paper_defaults().with_max_hop((hop > 0).then_some(hop))
}

fn routes_of(nmdb: &Nmdb, cfg: &DustConfig) -> u64 {
    let engine = CostEngine::with_threads(1);
    let p = optimize_with(nmdb, cfg, &engine, None).expect("solves");
    route_digest(&p.assignments)
}

/// `decide_nmdb(8, seed)` with every link at the same load: equal-cost
/// routes tie everywhere, so the pins read which tie a route takes.
fn uniform_nmdb(seed: u64) -> Nmdb {
    let db = decide_nmdb(8, seed);
    let mut graph = dust_topology::Graph::clone(&db.graph);
    graph.retarget_utilization(|_, _| 0.5);
    let states = graph.nodes().map(|n| *db.state(n)).collect();
    Nmdb::new(graph, states)
}

fn assert_routes(got: &[u64], want: &[u64], what: &str) {
    if got != want {
        for h in got {
            eprintln!("    {h:#018x},");
        }
        panic!("{what}: the routes left their pins");
    }
}

#[test]
fn decide_and_cli_batch_routes_are_pinned() {
    let mut got = Vec::new();
    for k in SIZES {
        for hop in HOPS {
            for seed in SEEDS {
                got.push(routes_of(&decide_nmdb(k, seed), &dp_cfg(hop)));
            }
        }
    }
    let graph = FatTree::with_default_links(16).graph;
    for seed in 11..14 {
        got.push(routes_of(
            &random_nmdb(&graph, &dp_cfg(0), &ScenarioParams::default(), seed),
            &dp_cfg(0),
        ));
    }
    assert_routes(&got, DECIDE_ROUTES, "the decide corpus and the CLI batch");
}

#[test]
fn tied_and_heuristic_routes_are_pinned() {
    let mut got = Vec::new();
    for hop in HOPS {
        for seed in SEEDS {
            got.push(routes_of(&uniform_nmdb(seed), &dp_cfg(hop)));
        }
    }
    let engine = CostEngine::with_threads(1);
    for hops in [1, 2] {
        for seed in SEEDS {
            for db in [uniform_nmdb(seed), decide_nmdb(16, seed)] {
                let h = heuristic_with(&db, &DustConfig::paper_defaults(), hops, &engine)
                    .expect("a valid config and hop count");
                got.push(route_digest(&h.assignments));
            }
        }
    }
    assert_routes(&got, TIED_AND_HEURISTIC_ROUTES, "tied links and Algorithm 1");
}

/// The decide corpus in `DECIDE`'s order, then the CLI batch.
#[rustfmt::skip]
const DECIDE_ROUTES: &[u64] = &[
    0xaf66998210839595,
    0x2eaf68037ff9208a,
    0xcbf29ce484222325,
    0x3a6f718ef1231a82,
    0xbf097670d91e893d,
    0xab1fec2aeb2f6e7a,
    0x37ff96318eb33265,
    0x3a6f718ef1231a82,
    0xbf097670d91e893d,
    0xab1fec2aeb2f6e7a,
    0x37ff96318eb33265,
    0x3a6f718ef1231a82,
    0xbf097670d91e893d,
    0xab1fec2aeb2f6e7a,
    0x37ff96318eb33265,
    0x3a6f718ef1231a82,
    0xf39cc43bb75f45b1,
    0x0138e76224744ed3,
    0xcbf29ce484222325,
    0xa6015e99401e91bf,
    0x6a05375411ffe8c6,
    0x0138e76224744ed3,
    0xa58c7694940e8ae9,
    0xa6015e99401e91bf,
    0x6a05375411ffe8c6,
    0x0138e76224744ed3,
    0xa58c7694940e8ae9,
    0xa6015e99401e91bf,
    0x6a05375411ffe8c6,
    0x0138e76224744ed3,
    0xa58c7694940e8ae9,
    0xa6015e99401e91bf,
    0xe245b975e134e598,
    0x672a79b351bd47d8,
    0xb97b1067b65c3c94,
    0x9e5abee1b4b1d9c1,
    0xe245b975e134e598,
    0x672a79b351bd47d8,
    0xc9e9f23d8f1cce67,
    0x2cfd1b542b2d6ee9,
    0xe245b975e134e598,
    0x672a79b351bd47d8,
    0xc9e9f23d8f1cce67,
    0x2cfd1b542b2d6ee9,
    0xe245b975e134e598,
    0x672a79b351bd47d8,
    0xc9e9f23d8f1cce67,
    0x2cfd1b542b2d6ee9,
    0x0414807d130cb9a7,
    0xb2faafee8cc22559,
    0xb7a990b769f8a0d2,
];

/// The uniform-link 8-k tree in `HOPS × SEEDS` order, then Algorithm 1 at
/// one and two hops, per seed the uniform tree and then the 16-k one.
#[rustfmt::skip]
const TIED_AND_HEURISTIC_ROUTES: &[u64] = &[
    0x0f6184402b442400,
    0x0fd3b829475c2c86,
    0xcbf29ce484222325,
    0x11024fdb79a942af,
    0xf9a85d14a1202211,
    0x8981010be2066d97,
    0xcec455de33c2b463,
    0x6f30af8c47438c88,
    0xf9a85d14a1202211,
    0xa14b22c9c4199e87,
    0xcec455de33c2b463,
    0x6f30af8c47438c88,
    0xf9a85d14a1202211,
    0xa14b22c9c4199e87,
    0xcec455de33c2b463,
    0x6f30af8c47438c88,
    0x8e64bc1cb83b3f3d,
    0x27582bc2298bef62,
    0xad0ffe8828264104,
    0x43a6ba85595e330c,
    0x8d80b53febf1d688,
    0x768430550aea5052,
    0xef2d96028dc38f23,
    0x015c2dbbde8f45d6,
    0x9ce5ef7e65d99d03,
    0x24a177d77b950dad,
    0xad0ffe8828264104,
    0x9861ee5a48e7b7e9,
    0x35fca5a60fe904ec,
    0xa58c7694940e8ae9,
    0xef2d96028dc38f23,
    0xe1a9336b8738125d,
];

/// `(k, hop, seed)` in `SIZES × HOPS × SEEDS` order.
#[rustfmt::skip]
const DECIDE: &[Pin] = &[
    (2, 0, 1080, 0x40077528c7e09fac, 0x91b17e88e5d92e2d),
    (1, 0, 560, 0x40122134582715f8, 0xf7e4dc5d61f2140a),
    (0, 0, 520, 0x7ff8000000000000, 0x7f32d5532098bd4b),
    (1, 0, 560, 0x40174da375a7f2cb, 0x6ff227f8bad9ea43),
    (4, 0, 680, 0x40068bfda4061d7e, 0x0c7091c4c337bab4),
    (6, 0, 760, 0x4011b2bbc2b85aff, 0x520684750aa58aba),
    (5, 0, 1200, 0x4012703de1613b2a, 0x54d924faf7c95fe7),
    (4, 0, 680, 0x40174da375a7f2d4, 0xbd939daa9e34777b),
    (1, 0, 560, 0x40068bfda4061d7e, 0x0c7091c4c337bab4),
    (5, 0, 720, 0x4011b2bbc2b85aff, 0x520684750aa58aba),
    (6, 0, 1576, 0x4012703de1613b2a, 0x54d924faf7c95fe7),
    (4, 0, 680, 0x40174da375a7f2db, 0x560f1c6dae011da1),
    (1, 0, 560, 0x40068bfda4061d7e, 0x0c7091c4c337bab4),
    (5, 0, 720, 0x4011b2bbc2b85aff, 0x520684750aa58aba),
    (6, 0, 1576, 0x4012703de1613b2a, 0x54d924faf7c95fe7),
    (4, 0, 680, 0x40174da375a7f2db, 0x560f1c6dae011da1),
    (26, 0, 30111, 0x403349c97a744c99, 0x495fba142a69cfc2),
    (30, 0, 25670, 0x4034f77d8314e2bd, 0xc6cb1b9e74e732bd),
    (29, 0, 24056, 0x7ff8000000000000, 0x7f32d5532098bd4b),
    (14, 0, 11090, 0x40317171ed48a596, 0x3801ded0d473d777),
    (37, 0, 41489, 0x40330eb5f8a1ebc7, 0x8e5b03a0a6fa6e5e),
    (31, 0, 23555, 0x4034f77d8314e2bd, 0xc6cb1b9e74e732bd),
    (31, 0, 16030, 0x403050708cd69304, 0x019ec4d5c1200a2a),
    (26, 0, 27602, 0x40317171ed48a596, 0x3801ded0d473d777),
    (32, 0, 30935, 0x40330eb5f8a1ebc9, 0x1197808ba5754716),
    (31, 0, 28997, 0x4034f77d8314e2bd, 0xc6cb1b9e74e732bd),
    (26, 0, 14331, 0x403050708cd69304, 0x019ec4d5c1200a2a),
    (25, 0, 24610, 0x40317171ed48a596, 0x3801ded0d473d777),
    (33, 0, 31095, 0x40330eb5f8a1ebca, 0x823a82829441daca),
    (31, 0, 28997, 0x4034f77d8314e2bd, 0xc6cb1b9e74e732bd),
    (26, 0, 14331, 0x403050708cd69304, 0x019ec4d5c1200a2a),
    (25, 0, 24610, 0x40317171ed48a596, 0x3801ded0d473d777),
    (74, 0, 287283, 0x40423982d3873512, 0x4cbb25015faf895d),
    (67, 0, 224166, 0x4042220f8f85cac0, 0x05cab4a0a62e3f75),
    (78, 0, 185630, 0x4041b1ca34ae41e7, 0xa6f8a106a75b2420),
    (86, 0, 205900, 0x404351284e828965, 0x70ba6926e6e93743),
    (72, 0, 127875, 0x40423982d3873519, 0x804efa4c45cae5fa),
    (80, 0, 97139, 0x4042220f8f85cac0, 0x05cab4a0a62e3f75),
    (82, 0, 117927, 0x4041a339e88eb7a2, 0x58f14eda71034aba),
    (99, 0, 167843, 0x40434dc96b31323a, 0x911f804c79860fd9),
    (65, 0, 133120, 0x40423982d3873519, 0x804efa4c45cae5fa),
    (70, 0, 93055, 0x4042220f8f85cac0, 0x05cab4a0a62e3f75),
    (73, 0, 90061, 0x4041a339e88eb7a2, 0x58f14eda71034aba),
    (67, 0, 124885, 0x40434dc96b31323a, 0x911f804c79860fd9),
    (64, 0, 132760, 0x40423982d3873519, 0x804efa4c45cae5fa),
    (70, 0, 93414, 0x4042220f8f85cac0, 0x05cab4a0a62e3f75),
    (73, 0, 90420, 0x4041a339e88eb7a2, 0x58f14eda71034aba),
    (67, 0, 124885, 0x40434dc96b31323a, 0x911f804c79860fd9),
];

#[rustfmt::skip]
const CLI_BATCH: &[Pin] = &[
    (47, 0, 84601, 0x40361528b4256779, 0x35c54b0334f98fc9),
    (53, 0, 61724, 0x4035a9e1393657be, 0x06cbef5027eb9e1a),
    (69, 0, 108061, 0x4037795d30bc1e4e, 0x52cede92838e6d82),
];
