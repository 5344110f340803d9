//! Exact pins of the routes a Manager hands out over a drifting fabric:
//! the full rounds' offers, the delta rounds' re-homes and the `REP`s that
//! replace a destination gone silent, node id for node id and edge id for
//! edge id, at three hop bounds — and of everything a delta round decides:
//! its β, its assignments, the baselines it leaves on the ledger and the
//! LP work it records.

use dust_core::{DustConfig, Placement};
use dust_obs::ObsHandle;
use dust_proto::{ClientMsg, Envelope, Manager, ManagerMsg, SolverBackend};
use dust_topology::{EdgeId, FatTree, NodeId, Path, PathEngine, SplitMix64, Tier};
use std::collections::BTreeMap;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// What one run handed out: the digest of every offer and `REP` in the
/// order they left, and how many of each kind.
#[derive(Debug, Default)]
struct Handed {
    digest: u64,
    offers: u32,
    reps: u32,
    rehomed: u64,
    unrouted_reps: u32,
}

impl Handed {
    fn take(&mut self, out: &[Envelope<ManagerMsg>]) {
        for env in out {
            let (kind, from, route) = match &env.msg {
                ManagerMsg::OffloadRequest { from, route, .. } => {
                    self.offers += 1;
                    (1u8, from, route)
                }
                ManagerMsg::Rep { from, route, .. } => {
                    self.reps += 1;
                    self.unrouted_reps += u32::from(route.is_none());
                    (2u8, from, route)
                }
                _ => continue,
            };
            let mut h = fnv1a(self.digest, &[kind]);
            h = fnv1a(h, &env.to.0.to_le_bytes());
            h = fnv1a(h, &from.0.to_le_bytes());
            h = route_bytes(h, route.as_ref());
            self.digest = h;
        }
    }
}

fn route_bytes(mut h: u64, route: Option<&Path>) -> u64 {
    match route {
        Some(p) => {
            for n in &p.nodes {
                h = fnv1a(h, &n.0.to_le_bytes());
            }
            for e in &p.edges {
                h = fnv1a(h, &e.0.to_le_bytes());
            }
            h
        }
        None => fnv1a(h, &[0xff]),
    }
}

/// Accept every offer and `REP` in `out` from the node it went to.
fn accept_all(m: &mut Manager, now_ms: u64, out: &[Envelope<ManagerMsg>]) {
    for env in out {
        if let ManagerMsg::OffloadRequest { request, .. } | ManagerMsg::Rep { request, .. } =
            env.msg
        {
            m.handle(now_ms, &ClientMsg::OffloadAck { node: env.to, request, accept: true });
        }
    }
}

/// What [`drive`]'s run handed out.
fn run(max_hop: Option<usize>, seed: u64, silence: bool) -> Handed {
    let mut handed = Handed::default();
    let m = drive(max_hop, seed, silence, None, |_, _, out| handed.take(out));
    handed.rehomed = m.flows_rehomed();
    handed
}

/// Sixteen rounds of a delta-placing Manager on a loaded 8-k fat-tree: a
/// sixth of each tier Busy, half of it candidates, eight links re-drawn
/// every round, and, with `silence`, from round 4 on the destination of
/// the oldest confirmed hosting stops sending keepalives. `each` sees the
/// Manager after every placement round (with its placement) and every
/// tick, with the messages that left; `obs`, when given, is attached
/// before the first round.
fn drive(
    max_hop: Option<usize>,
    seed: u64,
    silence: bool,
    obs: Option<ObsHandle>,
    mut each: impl FnMut(&Manager, Option<&Placement>, &[Envelope<ManagerMsg>]),
) -> Manager {
    let ft = FatTree::with_default_links(8);
    let mut rng = SplitMix64::new(seed);
    let mut graph = ft.graph.clone();
    graph.retarget_utilization(|_, _| rng.range_f64(0.1, 0.9));
    let mut load = vec![(0.0, 0.0); graph.node_count()];
    for tier in [Tier::Core, Tier::Aggregation, Tier::Edge] {
        let mut order: Vec<usize> = ft.tier_nodes(tier).iter().map(|n| n.index()).collect();
        rng.shuffle(&mut order);
        let (hot, cand) = (order.len() / 6, order.len() / 2);
        for (rank, &i) in order.iter().enumerate() {
            let util = match rank {
                r if r < hot => rng.range_f64(82.0, 98.0),
                r if r < hot + cand => rng.range_f64(6.0, 30.0),
                _ => rng.range_f64(56.0, 74.0),
            };
            load[i] = (util, rng.range_f64(10.0, 500.0));
        }
    }
    let edges = graph.edge_count() as u64;
    let cfg =
        DustConfig::paper_defaults().with_max_hop(max_hop).with_engine(PathEngine::HopBoundedDp);
    let mut m = Manager::new(graph, cfg, SolverBackend::Transportation, 1000, 3000)
        .unwrap()
        .with_delta_placement(0.02, 6)
        .unwrap();
    if let Some(obs) = obs {
        m.set_obs(obs);
    }
    for n in 0..load.len() as u32 {
        m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(n), capable: true });
    }
    let mut silent: Option<NodeId> = None;
    for round in 0..16u64 {
        let now = 1000 * round + 1;
        for (i, &(utilization, data_mb)) in load.iter().enumerate() {
            let node = NodeId(i as u32);
            m.handle(now, &ClientMsg::Stat { node, utilization, data_mb });
            if silent != Some(node) {
                m.handle(now, &ClientMsg::Keepalive { node });
            }
        }
        if silence && round == 4 {
            silent = m.hostings().values().find(|h| h.confirmed).map(|h| h.to);
        }
        for _ in 0..8 {
            let e = EdgeId(rng.below(edges) as u32);
            m.graph_mut().link_mut(e).utilization = rng.range_f64(0.05, 0.95);
        }
        let (placement, out) = m.run_placement(now);
        each(&m, Some(&placement), &out);
        accept_all(&mut m, now + 10, &out);
        let out = m.tick(now + 500);
        each(&m, None, &out);
        accept_all(&mut m, now + 510, &out);
    }
    m
}

#[test]
fn manager_routes_are_pinned() {
    let mut got = Vec::new();
    for max_hop in [None, Some(4), Some(2)] {
        for seed in [1, 3] {
            // at two hops a replica can sit out of reach: the bound's runs
            // pin what the fully routed rounds hand out
            let silence = max_hop != Some(2);
            let h = run(max_hop, seed, silence);
            assert!(h.rehomed > 0 && (h.reps > 0) == silence, "{max_hop:?} seed {seed}: {h:?}");
            assert_eq!(h.unrouted_reps, 0, "{max_hop:?} seed {seed}: a REP without a route");
            got.push((h.digest, h.offers, h.reps, h.rehomed));
        }
    }
    if got != PINS {
        for p in &got {
            eprintln!("    ({:#018x}, {}, {}, {}),", p.0, p.1, p.2, p.3);
        }
        panic!("the Manager's routes left their pins");
    }
}

/// `(digest, offers, REPs, flows re-homed)` per bound in `None, 4, 2`
/// order, seeds 1 and 3.
#[rustfmt::skip]
const PINS: &[(u64, u32, u32, u64)] = &[
    (0x24ac15c8e6a78568, 47, 3, 11),
    (0xa939f6e9500e94d3, 44, 5, 8),
    (0x6954620d703a2b88, 47, 3, 11),
    (0x57f2acd28053a4bc, 45, 6, 9),
    (0xcba267ef5fa53565, 47, 0, 11),
    (0xf94e0df29dfed861, 42, 0, 6),
];

/// What the delta rounds of one run decided.
#[derive(Debug, Default, PartialEq)]
struct Deltas {
    /// Per delta round, in order: β's bits; each assignment's from, to,
    /// amount and `T_rmin` bits and route; then every hosting's request id
    /// and `t_rmin` bits after the round; then the `lp.*` counters the
    /// round moved, by name.
    digest: u64,
    assignments: u32,
    /// Hostings that kept their request id across a delta round but left
    /// it with a new `t_rmin`: the residual re-picked their destination.
    rebaselined: u32,
    /// `lp.transport.pivots` summed over the delta rounds.
    pivots: u64,
    delta_rounds: u64,
    rehomed: u64,
}

fn lp_counters(obs: &ObsHandle) -> BTreeMap<String, u64> {
    let metrics = obs.metrics().expect("a recording handle");
    metrics
        .counters()
        .filter(|(k, _)| k.starts_with("lp."))
        .map(|(k, v)| (k.to_string(), v))
        .collect()
}

fn deltas(max_hop: Option<usize>, seed: u64, silence: bool) -> Deltas {
    let obs = ObsHandle::recording(seed);
    let mut d = Deltas::default();
    let mut seen_rounds = 0;
    let mut lp_before = BTreeMap::new();
    let mut t_rmin_before: BTreeMap<u64, f64> = BTreeMap::new();
    let m = drive(max_hop, seed, silence, Some(obs.clone()), |m, placement, _| {
        let lp_now = lp_counters(&obs);
        if let (Some(p), true) = (placement, m.delta_rounds() > seen_rounds) {
            seen_rounds = m.delta_rounds();
            let mut h = fnv1a(d.digest, &p.beta.to_bits().to_le_bytes());
            for a in &p.assignments {
                h = fnv1a(h, &a.from.0.to_le_bytes());
                h = fnv1a(h, &a.to.0.to_le_bytes());
                h = fnv1a(h, &a.amount.to_bits().to_le_bytes());
                h = fnv1a(h, &a.t_rmin.to_bits().to_le_bytes());
                h = route_bytes(h, a.route.as_ref());
                d.assignments += 1;
            }
            for (req, hosting) in m.hostings() {
                h = fnv1a(h, &req.0.to_le_bytes());
                h = fnv1a(h, &hosting.t_rmin.to_bits().to_le_bytes());
                let before = t_rmin_before.get(&req.0);
                d.rebaselined +=
                    u32::from(before.is_some_and(|t| t.to_bits() != hosting.t_rmin.to_bits()));
            }
            for (name, &n) in &lp_now {
                let moved = n - lp_before.get(name).copied().unwrap_or(0);
                h = fnv1a(h, name.as_bytes());
                h = fnv1a(h, &moved.to_le_bytes());
                if name == "lp.transport.pivots" {
                    d.pivots += moved;
                }
            }
            d.digest = h;
        }
        t_rmin_before = m.hostings().iter().map(|(r, h)| (r.0, h.t_rmin)).collect();
        lp_before = lp_now;
    });
    d.delta_rounds = m.delta_rounds();
    d.rehomed = m.flows_rehomed();
    d
}

#[test]
fn delta_rounds_are_pinned() {
    let mut got = Vec::new();
    for max_hop in [None, Some(4), Some(2)] {
        for silence in [false, true] {
            for seed in [1, 3] {
                let d = deltas(max_hop, seed, silence);
                assert!(d.delta_rounds > 0 && d.assignments > 0, "{max_hop:?} seed {seed}: {d:?}");
                got.push((
                    d.digest,
                    d.assignments,
                    d.rebaselined,
                    d.pivots,
                    d.delta_rounds,
                    d.rehomed,
                ));
            }
        }
    }
    assert!(got.iter().any(|g| g.2 > 0), "no delta round kept a flow and rebaselined it");
    if got != DELTA_PINS {
        for p in &got {
            eprintln!("    ({:#018x}, {}, {}, {}, {}, {}),", p.0, p.1, p.2, p.3, p.4, p.5);
        }
        panic!("the Manager's delta rounds left their pins");
    }
}

/// `(digest, assignments, rebaselined, pivots, delta rounds, flows
/// re-homed)` per bound in `None, 4, 2` order, without then with silence,
/// seeds 1 and 3.
#[rustfmt::skip]
const DELTA_PINS: &[(u64, u32, u32, u64, u64, u64)] = &[
    (0x4efd037415bef9c7, 11, 2, 3, 13, 11),
    (0x8cee66a6f97e4871, 6, 1, 0, 13, 6),
    (0x683e7f2be635dbe6, 11, 2, 3, 13, 11),
    (0xc8569a9bd6f8eae5, 8, 1, 0, 13, 8),
    (0x4efd037415bef9c7, 11, 2, 3, 13, 11),
    (0x8cee66a6f97e4871, 6, 1, 0, 13, 6),
    (0x6395cddf5485f1f8, 11, 2, 3, 13, 11),
    (0x1529b11738411551, 9, 1, 0, 13, 9),
    (0x10975e14f3272d6a, 11, 2, 2, 13, 11),
    (0xaf5c3e65ccbad03b, 6, 1, 0, 13, 6),
    (0x4eaf4b46d6b2adeb, 12, 2, 2, 13, 12),
    (0xb7df3cb655da0efa, 7, 1, 0, 13, 7),
];
