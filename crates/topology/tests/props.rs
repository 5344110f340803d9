//! Property-based tests for the topology substrate, driven by seeded
//! random instances: the hop-bounded DP must reach the exhaustive
//! enumerator's minimum bit for bit everywhere, enumerated paths must be
//! simple and within bounds, generator invariants must hold for arbitrary
//! parameters, and the parallel [`CostEngine`] must reproduce the
//! sequential matrices bit-for-bit under every thread count. Each path job
//! is reached through its public door: DP rows from [`CostEngine::rows`],
//! a DP pair from a [`DpScratch`], paths from [`for_each_simple_path`],
//! enumerated rows from [`min_inv_lu_enumerated_row`].

use dust_topology::{
    for_each_simple_path, min_inv_lu_enumerated, min_inv_lu_enumerated_row,
    topologies::random_regular, CostEngine, DpScratch, FatTree, Graph, Link, NodeId, Path,
    SplitMix64,
};

/// Every simple path from `src` to `dst` within `max_hop` hops.
fn all_paths(g: &Graph, src: NodeId, dst: NodeId, max_hop: Option<usize>) -> Vec<Path> {
    let mut out = Vec::new();
    for_each_simple_path(g, src, dst, max_hop, |nodes, edges, _| {
        out.push(Path { nodes: nodes.to_vec(), edges: edges.to_vec() });
    });
    out
}

/// The DP's cost from `src` to `dst`, as a fresh [`DpScratch`] prices it.
fn dp_cost(g: &Graph, src: NodeId, dst: NodeId, max_hop: Option<usize>) -> Option<f64> {
    let mut dp = DpScratch::default();
    dp.run_to(g, src, &[dst], max_hop);
    dp.cost_to(g, dst)
}

/// A small random connected graph: a spanning line plus extra random
/// edges, with randomized link states. Deterministic in `seed`.
fn arb_graph(seed: u64) -> Graph {
    let mut rng = SplitMix64::new(seed);
    let n = rng.range_u64(3, 10) as usize;
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId(i as u32 - 1), NodeId(i as u32), Link::new(1000.0, 0.5));
    }
    let extras = rng.below(12) as usize;
    for _ in 0..extras {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a != b {
            let cap = rng.range_f64(1.0, 10_000.0);
            let util = rng.range_f64(0.01, 1.0);
            g.add_edge(NodeId(a as u32), NodeId(b as u32), Link::new(cap, util));
        }
    }
    g
}

/// The DP reaches the enumerated minimum bit for bit: for every ordered
/// pair of 400 random graphs, at hop bounds 1–6 and none, the cost
/// engine's row, the enumerated row and a [`DpScratch`]'s `cost_to` hold
/// the same bits, and agree on which pairs are reachable. This is the
/// oracle behind pricing and routing with one engine.
#[test]
fn dp_matches_enumeration() {
    let engine = CostEngine::with_threads(1);
    for seed in 0..400u64 {
        let g = arb_graph(seed);
        let max_hop =
            [Some(1), Some(2), Some(3), Some(4), Some(5), Some(6), None][seed as usize % 7];
        let bits = |row: &[f64]| row.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        for src in g.nodes() {
            let row = engine.rows(&g, &[src], max_hop).remove(0);
            let enumerated = min_inv_lu_enumerated_row(&g, src, max_hop);
            assert_eq!(bits(&row), bits(&enumerated), "seed {seed} {src:?} {max_hop:?}");
            for dst in g.nodes() {
                let from_row = Some(row[dst.index()]).filter(|c| dst != src && c.is_finite());
                let p = dp_cost(&g, src, dst, max_hop);
                assert_eq!(p.map(f64::to_bits), from_row.map(f64::to_bits), "seed {seed}: pair");
            }
        }
    }
}

/// Every enumerated path is simple, within the hop bound, and actually a
/// walk in the graph.
#[test]
fn paths_are_simple_and_bounded() {
    for seed in 0..64u64 {
        let g = arb_graph(seed);
        let max_hop = 1 + (seed % 5) as usize;
        let src = NodeId(0);
        let dst = NodeId(g.node_count() as u32 - 1);
        for path in all_paths(&g, src, dst, Some(max_hop)) {
            assert!(path.hops() <= max_hop);
            assert_eq!(path.nodes.len(), path.edges.len() + 1);
            assert_eq!(*path.nodes.first().unwrap(), src);
            assert_eq!(*path.nodes.last().unwrap(), dst);
            // simplicity
            let mut seen = path.nodes.clone();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), path.nodes.len(), "path revisits a node");
            // each edge joins consecutive nodes
            for (w, &e) in path.nodes.windows(2).zip(&path.edges) {
                let edge = g.edge(e);
                let pair = (edge.a, edge.b);
                assert!(pair == (w[0], w[1]) || pair == (w[1], w[0]));
            }
        }
    }
}

/// Path counts are monotone non-decreasing in the hop bound, and the
/// unbounded count equals the largest bounded one.
#[test]
fn path_count_monotone_in_bound() {
    for seed in 0..48u64 {
        let g = arb_graph(seed);
        let src = NodeId(0);
        let dst = NodeId(g.node_count() as u32 - 1);
        let mut prev = 0;
        for h in 1..=g.node_count() {
            let c = all_paths(&g, src, dst, Some(h)).len();
            assert!(c >= prev, "seed {seed}");
            prev = c;
        }
        assert_eq!(
            all_paths(&g, src, dst, None).len(),
            prev,
            "unbounded must equal the largest bounded count"
        );
    }
}

/// Minimum cost is monotone non-increasing in the hop bound.
#[test]
fn min_cost_monotone_in_bound() {
    for seed in 0..48u64 {
        let g = arb_graph(seed);
        let src = NodeId(0);
        let dst = NodeId(g.node_count() as u32 - 1);
        let mut prev = f64::INFINITY;
        for h in 1..=g.node_count() {
            if let Some(c) = dp_cost(&g, src, dst, Some(h)) {
                assert!(c <= prev + 1e-12, "seed {seed}");
                prev = c;
            }
        }
    }
}

/// Fat-tree sizes follow the closed forms for arbitrary even k.
#[test]
fn fat_tree_size_formulas() {
    for half in 1usize..9 {
        let k = half * 2;
        let ft = FatTree::with_default_links(k);
        assert_eq!(ft.node_count(), 5 * k * k / 4);
        assert_eq!(ft.edge_count(), k * k * k / 2);
        assert!(ft.graph.is_connected());
    }
}

/// Random-regular generation really is d-regular and deterministic.
#[test]
fn random_regular_invariants() {
    for seed in 0..24u64 {
        let d = 3;
        let mut n = 4 + (seed % 20) as usize;
        if n * d % 2 == 1 {
            n += 1;
        }
        let g = random_regular(n, d, seed, Link::default());
        for v in g.nodes() {
            assert_eq!(g.degree(v), d, "seed {seed}");
        }
        let g2 = random_regular(n, d, seed, Link::default());
        let e1: Vec<_> = g.edges().iter().map(|e| (e.a, e.b)).collect();
        let e2: Vec<_> = g2.edges().iter().map(|e| (e.a, e.b)).collect();
        assert_eq!(e1, e2);
    }
}

/// BFS hop distances satisfy the triangle inequality over edges.
#[test]
fn bfs_distance_is_metric_over_edges() {
    for seed in 0..48u64 {
        let g = arb_graph(seed);
        let dist = g.hop_distances([NodeId(0)]);
        for e in g.edges() {
            let (da, db) = (dist[e.a.index()], dist[e.b.index()]);
            if da != usize::MAX && db != usize::MAX {
                assert!(da.abs_diff(db) <= 1, "seed {seed}");
            }
        }
    }
}

/// A multi-source BFS gives every node its hop distance to the nearest
/// source — the minimum over the sources of one-source BFS distances,
/// repeated sources included — and no source reaches nothing.
#[test]
fn multi_source_bfs_is_the_nearest_source() {
    let mut rng = SplitMix64::new(0xBF5);
    for seed in 0..48u64 {
        let g = match seed % 3 {
            0 => arb_graph(seed),
            1 => random_regular(8 + 2 * (seed % 8) as usize, 3, seed, Link::default()),
            _ => FatTree::with_default_links(4).graph,
        };
        let n = g.node_count();
        let sources: Vec<NodeId> =
            (0..rng.range_u64(1, 5)).map(|_| NodeId(rng.below(n as u64) as u32)).collect();
        let mut nearest = vec![usize::MAX; n];
        for &s in &sources {
            for (near, d) in nearest.iter_mut().zip(g.hop_distances([s])) {
                *near = (*near).min(d);
            }
        }
        assert_eq!(g.hop_distances(sources.iter().copied()), nearest, "seed {seed} {sources:?}");
        assert_eq!(g.hop_distances([]), vec![usize::MAX; n], "seed {seed}");
    }
}

/// The parallel `CostEngine` matrix equals the sequential one exactly —
/// any topology, any seed, any thread count (the engine's determinism
/// contract).
#[test]
fn parallel_cost_engine_matches_sequential_bitwise() {
    for seed in 0..40u64 {
        let g = arb_graph(seed);
        let mut rng = SplitMix64::new(seed ^ 0xC0FFEE);
        let n = g.node_count();
        let sources: Vec<NodeId> = (0..n as u32).filter(|v| v % 2 == 0).map(NodeId).collect();
        let destinations: Vec<NodeId> = (0..n as u32).filter(|v| v % 2 == 1).map(NodeId).collect();
        let data: Vec<f64> = sources.iter().map(|_| rng.range_f64(1.0, 500.0)).collect();
        let max_hop = if seed % 3 == 0 { None } else { Some(1 + (seed % 6) as usize) };
        let seq =
            CostEngine::with_threads(1).build_matrix(&g, &sources, &destinations, &data, max_hop);
        for threads in [2usize, 3, 5, 16] {
            let par = CostEngine::with_threads(threads).build_matrix(
                &g,
                &sources,
                &destinations,
                &data,
                max_hop,
            );
            let a: Vec<u64> = seq.t_rmin.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = par.t_rmin.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "seed {seed} threads {threads}");
        }
    }
}

/// Changing any link's utilization moves the graph epoch, so a shared
/// engine re-prices instead of serving stale rows; rebuilding on the
/// unchanged graph hits the cache and reproduces the matrix exactly.
#[test]
fn cache_invalidates_on_epoch_change() {
    for seed in 0..24u64 {
        let mut g = arb_graph(seed);
        let n = g.node_count();
        let sources = vec![NodeId(0)];
        let destinations: Vec<NodeId> = (1..n as u32).map(NodeId).collect();
        let eng = CostEngine::with_threads(4);
        let before = eng.build_matrix(&g, &sources, &destinations, &[100.0], None);
        let cached = eng.cached_rows();
        let hot = eng.build_matrix(&g, &sources, &destinations, &[100.0], None);
        assert_eq!(eng.cached_rows(), cached, "seed {seed}: warm rebuild must not re-price");
        assert_eq!(before.t_rmin, hot.t_rmin);
        // mutate one link; a fresh sequential engine is the ground truth
        let epoch = g.epoch();
        let mut rng = SplitMix64::new(seed ^ 0xBEEF);
        let e = dust_topology::EdgeId(rng.below(g.edge_count() as u64) as u32);
        g.link_mut(e).utilization = 0.001;
        assert_ne!(g.epoch(), epoch, "seed {seed}: mutation must move the epoch");
        let after = eng.build_matrix(&g, &sources, &destinations, &[100.0], None);
        let truth =
            CostEngine::with_threads(1).build_matrix(&g, &sources, &destinations, &[100.0], None);
        assert_eq!(after.t_rmin, truth.t_rmin, "seed {seed}: stale row served after mutation");
    }
}

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The exhaustive enumerator's answers, bit for bit: on fat-trees 4 and
/// 6, a 9-ring, Fig. 7's example and a 3-regular 16-node graph, each with
/// uniform links (equal-hop routes tie exactly) and with seeded loads from
/// four values plus one idle link, at hop bounds 1–4, one FNV-1a digest
/// folds every enumerated row's bits ([`min_inv_lu_enumerated_row`]) and,
/// for a spread of pairs, the route `min_inv_lu_enumerated` picks (cost
/// bits, nodes, edges) and the count of paths `for_each_simple_path`
/// visits. Which of two tied routes wins, and where the walk stops, are
/// part of the answer.
#[test]
fn enumerated_rows_routes_and_counts_are_pinned() {
    use dust_topology::topologies::{example7, ring};
    let built: Vec<(&str, Graph)> = vec![
        ("fat-tree 4", FatTree::new(4, Link::default()).graph),
        ("fat-tree 6", FatTree::new(6, Link::default()).graph),
        ("ring 9", ring(9, Link::default())),
        ("example7", example7(Link::default())),
        ("random-regular 16x3", random_regular(16, 3, 5, Link::default())),
    ];
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut routes, mut paths) = (0usize, 0u64);
    for (seed, (name, g)) in built.into_iter().enumerate() {
        let mut loaded = g.clone();
        let mut rng = SplitMix64::new(seed as u64 + 11);
        let idle = loaded.neighbors(NodeId(0))[0].1;
        loaded.retarget_utilization(|e, _| {
            if e == idle {
                0.0
            } else {
                [0.25, 0.5, 0.5, 0.75][rng.below(4) as usize]
            }
        });
        for (g, loads) in [(g, "uniform"), (loaded, "loaded")] {
            let n = g.node_count() as u32;
            for max_hop in 1..=4 {
                let at = format!("{name} {loads} hop {max_hop}");
                for src in (0..n).map(NodeId) {
                    let row = min_inv_lu_enumerated_row(&g, src, Some(max_hop));
                    for d in row.iter() {
                        h = fnv1a(h, &d.to_bits().to_le_bytes());
                    }
                    if src.0 % 3 != 0 {
                        continue;
                    }
                    for dst in (0..n).filter(|d| d % 2 == 1).map(NodeId) {
                        match min_inv_lu_enumerated(&g, src, dst, Some(max_hop)) {
                            Some((cost, path)) => {
                                assert_eq!(cost.to_bits(), row[dst.index()].to_bits(), "{at}");
                                routes += 1;
                                h = fnv1a(h, &cost.to_bits().to_le_bytes());
                                for v in &path.nodes {
                                    h = fnv1a(h, &v.0.to_le_bytes());
                                }
                                for e in &path.edges {
                                    h = fnv1a(h, &e.0.to_le_bytes());
                                }
                            }
                            None => h = fnv1a(h, &[0xff]),
                        }
                        let mut count = 0u64;
                        for_each_simple_path(&g, src, dst, Some(max_hop), |_, _, _| count += 1);
                        paths += count;
                        h = fnv1a(h, &count.to_le_bytes());
                    }
                }
            }
        }
    }
    assert_eq!((routes, paths), (2_140, 10_244), "digest {h:#018x}");
    assert_eq!(h, 0x6775_dfb4_f122_8989, "digest {h:#018x}");
}

/// The hop-bounded DP's routes, bit for bit, over the graphs, loads, hop
/// bounds and pairs of [`enumerated_rows_routes_and_counts_are_pinned`]:
/// one [`DpScratch::run_to`] per source toward its odd-numbered
/// destinations, then one FNV-1a digest of each pair's route (cost bits,
/// nodes, edges). The DP's tie rule — the backtrack's first predecessor in
/// adjacency order, shorter before longer — is the only rule routes are
/// picked by, so which of two tied routes wins is part of the answer. Each
/// cost must equal the enumerated optimum's bits; the count of pairs where
/// the enumerator picks a different route of that cost is pinned too.
#[test]
fn dp_routes_are_pinned() {
    use dust_topology::topologies::{example7, ring};
    let built: Vec<(&str, Graph)> = vec![
        ("fat-tree 4", FatTree::new(4, Link::default()).graph),
        ("fat-tree 6", FatTree::new(6, Link::default()).graph),
        ("ring 9", ring(9, Link::default())),
        ("example7", example7(Link::default())),
        ("random-regular 16x3", random_regular(16, 3, 5, Link::default())),
    ];
    let mut scratch = DpScratch::default();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut routes, mut other_ties) = (0usize, 0usize);
    for (seed, (name, g)) in built.into_iter().enumerate() {
        let mut loaded = g.clone();
        let mut rng = SplitMix64::new(seed as u64 + 11);
        let idle = loaded.neighbors(NodeId(0))[0].1;
        loaded.retarget_utilization(|e, _| {
            if e == idle {
                0.0
            } else {
                [0.25, 0.5, 0.5, 0.75][rng.below(4) as usize]
            }
        });
        for (g, loads) in [(g, "uniform"), (loaded, "loaded")] {
            let n = g.node_count() as u32;
            let dests: Vec<NodeId> = (0..n).filter(|d| d % 2 == 1).map(NodeId).collect();
            for max_hop in 1..=4 {
                let at = format!("{name} {loads} hop {max_hop}");
                for src in (0..n).filter(|s| s % 3 == 0).map(NodeId) {
                    scratch.run_to(&g, src, &dests, Some(max_hop));
                    for &dst in &dests {
                        let enumerated = min_inv_lu_enumerated(&g, src, dst, Some(max_hop))
                            .filter(|(c, _)| c.is_finite());
                        match scratch.route_to(&g, dst) {
                            Some((cost, path)) => {
                                let (want, by_enum) = enumerated.expect("reachable");
                                assert_eq!(cost.to_bits(), want.to_bits(), "{at} {src}->{dst}");
                                other_ties += usize::from(path != by_enum);
                                routes += 1;
                                h = fnv1a(h, &cost.to_bits().to_le_bytes());
                                for v in &path.nodes {
                                    h = fnv1a(h, &v.0.to_le_bytes());
                                }
                                for e in &path.edges {
                                    h = fnv1a(h, &e.0.to_le_bytes());
                                }
                            }
                            None => {
                                assert!(enumerated.is_none(), "{at} {src}->{dst}");
                                h = fnv1a(h, &[0xff]);
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!((routes, other_ties), (2_106, 74), "digest {h:#018x}");
    assert_eq!(h, 0x9053_836a_6966_d4f1, "digest {h:#018x}");
}
