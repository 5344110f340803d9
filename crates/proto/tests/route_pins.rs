//! Exact pins of the routes a Manager hands out over a drifting fabric:
//! the full rounds' offers, the delta rounds' re-homes and the `REP`s that
//! replace a destination gone silent, node id for node id and edge id for
//! edge id, at three hop bounds.

use dust_core::{DustConfig, SolverBackend};
use dust_proto::{ClientMsg, Envelope, Manager, ManagerMsg};
use dust_topology::{EdgeId, FatTree, NodeId, Path, PathEngine, SplitMix64, Tier};

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

/// Sixteen rounds of a delta-placing Manager on a loaded 8-k fat-tree: a
/// sixth of each tier Busy, half of it candidates, eight links re-drawn
/// every round, and, with `silence`, from round 4 on the destination of
/// the oldest confirmed hosting stops sending keepalives.
fn run(max_hop: Option<usize>, seed: u64, silence: bool) -> Handed {
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
    for n in 0..load.len() as u32 {
        m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(n), capable: true });
    }
    let mut handed = Handed::default();
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
        let (_, out) = m.run_placement(now);
        handed.take(&out);
        accept_all(&mut m, now + 10, &out);
        let out = m.tick(now + 500);
        handed.take(&out);
        accept_all(&mut m, now + 510, &out);
    }
    handed.rehomed = m.flows_rehomed();
    handed
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
