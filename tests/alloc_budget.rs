//! Allocation budgets of the telemetry write, read and retention paths, of
//! a transportation solve, of an NMDB snapshot, and of a wire frame that
//! lies about its length.
//!
//! "Resolve once, append many" is a claim about allocations as much as
//! about time: once a series handle is resolved and sized, a sample is an
//! index and a push; once a metric name has been seen, recording into it
//! copies no name. So is "fold in place": a federated query allocates for
//! its buckets, not for its stores, and retention allocates nothing. So is
//! "a snapshot is the states vector only": it shares the topology, so what
//! a quiet placement round allocates grows with the nodes, not the edges.
//! So is "a decoder allocates what its input can fill": a claimed route
//! length the frame's bytes cannot hold reserves no node list. A
//! timing cannot pin that on a shared host — a count can, exactly. This binary installs a counting `#[global_allocator]`
//! (its own test target for that reason) and counts per thread, so the
//! harness running tests side by side cannot disturb a measurement.

use dust::prelude::*;
use dust::sim::series;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    // const-initialized and without a destructor, so touching it from
    // inside the allocator can neither allocate nor observe a dead slot
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (growing reallocations included) this thread makes in `f`.
fn allocs_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes this thread asks the allocator for in `f` (a growing
/// reallocation counts its whole new size, as `benchmark/` counts it).
fn bytes_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (BYTES.with(Cell::get) - before, out)
}

#[test]
fn the_counter_counts() {
    let (n, v) = allocs_in(|| Vec::<u64>::with_capacity(8));
    assert_eq!((n, v.capacity()), (1, 8));
    let (n, _) = allocs_in(|| std::hint::black_box(3 + 4));
    assert_eq!(n, 0);
    let (bytes, mut v) = bytes_in(|| Vec::<u64>::with_capacity(8));
    assert_eq!(bytes, 64);
    let (bytes, ()) = bytes_in(|| v.reserve_exact(16));
    assert_eq!(bytes, 128);
}

#[test]
fn appends_through_a_reserved_handle_allocate_nothing() {
    const N: u64 = 1_000;
    let mut db = Tsdb::new();
    let id = db.series_id("device-cpu");
    db.reserve(id, N as usize);
    let (n, ()) = allocs_in(|| {
        for t in 0..N {
            db.append_to(id, t * 150, t as f64);
        }
    });
    assert_eq!(n, 0, "{N} appends into {N} reserved slots");
    assert_eq!(db.point_count(), N as usize);
    // the reservation was exact: the next point has to grow the list
    let (n, ()) = allocs_in(|| db.append_to(id, N * 150, 0.0));
    assert_eq!(n, 1, "point {N} + 1 regrows");
}

#[test]
fn appends_by_name_to_an_existing_series_allocate_nothing() {
    let mut db = Tsdb::new();
    let id = db.series_id("device-mem");
    db.reserve(id, 64);
    db.append("device-mem", 0, 1.0);
    let (n, ()) = allocs_in(|| {
        for t in 1..64u64 {
            db.append("device-mem", t, 1.0);
        }
    });
    assert_eq!(n, 0, "the name is only copied when the series is created");
    let (n, same) = allocs_in(|| db.series_id("device-mem"));
    assert_eq!((n, same), (0, id));
}

#[test]
fn metric_calls_on_a_known_name_allocate_nothing() {
    let mut m = MetricsRegistry::new();
    m.counter_add("proto.stats_ingested", 1);
    m.gauge_set("sim.active_transfers", 0.0);
    m.observe("sim.node.cpu_percent", 50.0);
    let (n, ()) = allocs_in(|| {
        for i in 0..1_000u64 {
            m.counter_add("proto.stats_ingested", 1);
            m.gauge_set("sim.active_transfers", i as f64);
            m.observe("sim.node.cpu_percent", (i % 100) as f64);
        }
    });
    assert_eq!(n, 0);
    assert_eq!(m.counter("proto.stats_ingested"), 1_001);

    // the same through a recording handle, batch call included
    let obs = ObsHandle::recording(1);
    obs.counter_inc("c");
    obs.gauge_set("g", 0.0);
    obs.observe_all("h", &[1.0, 2.0]);
    let (n, ()) = allocs_in(|| {
        obs.counter_inc("c");
        obs.gauge_set("g", 1.0);
        obs.observe("h", 3.0);
        obs.observe_all("h", &[4.0, 5.0, 6.0]);
    });
    assert_eq!(n, 0);
}

/// `stores` stores of one 264-point `cpu` series each, one point every
/// 100 ms — `telemetry_rw`'s shape.
fn steady_federation(stores: u32) -> Federation {
    let mut fed = Federation::new();
    for node in 0..stores {
        let db = fed.store_mut(NodeId(node));
        for t in 0..264u64 {
            db.append("cpu", t * 100, f64::from(node) + t as f64 * 0.25);
        }
    }
    fed
}

#[test]
fn a_federated_query_allocates_for_its_buckets_not_its_stores() {
    use dust::telemetry::Aggregation;
    let (few, many) = (steady_federation(8), steady_federation(512));
    for agg in [Aggregation::Mean, Aggregation::Max] {
        let (n_few, a) = allocs_in(|| few.query("cpu", 20_000, 26_400, 800, agg));
        let (n_many, b) = allocs_in(|| many.query("cpu", 20_000, 26_400, 800, agg));
        assert_eq!((a.len(), b.len()), (8, 8), "same buckets");
        assert_eq!(n_few, n_many, "{agg:?}: 512 stores must cost what 8 do");
        // the accumulator list reaching 8 buckets, and the result
        assert!(n_many <= 3, "{agg:?}: {n_many} allocations");
    }
    let (n, mean) = allocs_in(|| many.latest_mean("cpu"));
    assert!(mean.is_some());
    assert_eq!(n, 0, "latest_mean sums as it walks");
}

#[test]
fn retention_allocates_nothing() {
    let mut fed = steady_federation(4);
    let mut dropped = 0;
    let (n, ()) = allocs_in(|| {
        // trims that only move the offset, trims that compact, a trim of
        // everything
        for now in [26_400, 27_000, 33_000, 40_000, u64::MAX] {
            for node in 0..4 {
                dropped += fed.store_mut(NodeId(node)).trim_all(now, 25_600);
            }
        }
    });
    assert_eq!((n, dropped), (0, 4 * 264));
}

#[test]
fn compressing_allocates_only_the_output_buffer() {
    let fed = steady_federation(1);
    let series = fed.store(NodeId(0)).and_then(|db| db.series("cpu")).expect("filled");
    let (n, block) = allocs_in(|| compress(series));
    assert_eq!(block.count, 264);
    // a byte buffer starts at 8 and doubles: what reaching this size takes
    let mut doublings = 1;
    while (8usize << (doublings - 1)) < block.bytes.len() {
        doublings += 1;
    }
    assert!(n <= doublings, "{n} allocations for {} bytes", block.bytes.len());
    // reading it back allocates the point list once, sized from the count
    let (n, back) = allocs_in(|| decompress(&block));
    assert_eq!(back.as_ref(), Some(series));
    assert_eq!(n, 1);
}

/// A frame that claims a route longer than its bytes can hold is refused
/// before the route's node list is reserved: a 22-byte `OffloadRequest`
/// claiming 1 000 000 nodes, and its `Rep` twin, allocate (almost) nothing.
#[test]
fn a_route_length_the_frame_cannot_fill_allocates_nothing() {
    use dust::proto::{decode_manager, CodecError};
    // tag, request 5, [failed 4,] from 1, amount and data 0.0, route length
    // 1 000 000 as a three-byte varint, then the frame ends
    let frame = |tag: u8, nodes: &[u8]| {
        let mut bytes = vec![tag, 5];
        bytes.extend_from_slice(nodes);
        bytes.extend_from_slice(&[0; 16]);
        bytes.extend_from_slice(&[0xC0, 0x84, 0x3D]);
        bytes
    };
    let (request, rep) = (frame(0x12, &[1]), frame(0x13, &[4, 1]));
    assert_eq!((request.len(), rep.len()), (22, 23));
    for bytes in [request, rep] {
        let (n, decoded) = bytes_in(|| decode_manager(&bytes));
        assert_eq!(decoded, Err(CodecError::Truncated), "tag {:#04x}", bytes[0]);
        assert!(n <= 64, "tag {:#04x}: {n} bytes allocated", bytes[0]);
    }
}

/// A quiet `k = 4` fat-tree fleet (20 switches, no placement), sampling
/// every `sample_period_ms` over 10 simulated seconds on the event core.
fn quiet_fleet(sample_period_ms: u64, obs: ObsHandle) -> Simulation {
    let ft = FatTree::new(4, Link::new(25_000.0, 0.2));
    let spec =
        NodeSpec { cpu_cores: 64.0, mem_gib: 256.0, base_cpu_percent: 10.0, base_mem_gib: 8.0 };
    let nodes = ft.graph.nodes().map(|n| SimNode::with_standard_agents(n, spec)).collect();
    Simulation::builder()
        .graph(ft.graph.clone())
        .nodes(nodes)
        .traffic(TrafficModel::testbed())
        .dust(DustConfig::paper_defaults())
        .dust_enabled(false)
        .duration_ms(10_000)
        .sample_period_ms(sample_period_ms)
        .obs(obs)
        .build()
        .expect("consistent knobs")
}

#[test]
fn samples_after_the_first_allocate_nothing() {
    // Same fleet, same 10 s, 3 samples against 67: if any sample after the
    // first allocated — a regrown series, a name copied, a map node — the
    // longer series would cost more allocations. They cost the same: a
    // run's sample buffers are sized at its first sample, and a node's
    // point lists are allocated once, at its first flush (both runs flush).
    let run = |period: u64, obs: ObsHandle| {
        let mut sim = quiet_fleet(period, obs);
        let (n, report) = allocs_in(|| sim.run());
        let db = report.federation.store(NodeId(0)).expect("sampled");
        (n, db.series(series::DEVICE_CPU).expect("recorded").len())
    };
    let (few, few_points) = run(4_000, ObsHandle::disabled());
    let (many, many_points) = run(150, ObsHandle::disabled());
    assert_eq!((few_points, many_points), (3, 67));
    assert_eq!(few, many, "allocations must not depend on the number of samples");

    // recording: the two batch buffers fill once, at the first sample too
    let (few, _) = run(4_000, ObsHandle::recording(1));
    let (many, _) = run(150, ObsHandle::recording(1));
    assert_eq!(few, many, "recording run: allocations must not depend on the number of samples");
}

#[test]
fn shared_fleet_samples_after_the_first_allocate_nothing() {
    // The twin of the test above on the scale fleet, whose switches share
    // one deployment record and so one sample slot: it holds a whole run's
    // samples, not eight, and the hold must be sized at the first sample.
    let run = |period: u64, obs: ObsHandle| {
        let mut sim = scale_fleet_builder(4, 10_000, 1, obs)
            .sample_period_ms(period)
            .build()
            .expect("scale knobs are consistent");
        let (n, report) = allocs_in(|| sim.run());
        let db = report.federation.store(NodeId(0)).expect("sampled");
        (n, db.series(series::DEVICE_CPU).expect("recorded").len())
    };
    let (few, few_points) = run(4_000, ObsHandle::disabled());
    let (many, many_points) = run(150, ObsHandle::disabled());
    assert_eq!((few_points, many_points), (3, 67));
    assert_eq!(few, many, "allocations must not depend on the number of samples");

    let (few, _) = run(4_000, ObsHandle::recording(1));
    let (many, _) = run(150, ObsHandle::recording(1));
    assert_eq!(few, many, "recording run: allocations must not depend on the number of samples");
}

#[test]
fn fleet_run_allocation_count_is_pinned() {
    // `fleet_sim_k90`'s scenario at k = 12: 180 switches, 67 samples. What
    // one run allocates: 223, or 1.2 per node — the 180 nodes hold one
    // store, copy-on-write: the first sample builds a template and shares
    // it, and the run's one flush writes it in place (about ten
    // allocations in all, three of them exactly-sized point lists), beside
    // the two buffers that hold a run of samples; the rest is STAT ingest
    // and the placement rounds. Earlier values worth keeping: 1 651 (9.2 per node)
    // while every node had a store of its own, 8 allocations each at the
    // first sample (the store's series table, its name index, three names
    // and three exactly-sized point lists: 1 440); 4 584 (25.5 per node)
    // while each of the 540 series grew its point list by doubling, 2 042
    // while every snapshot copied the topology (the run's two placement
    // rounds each cloned 180 adjacency lists and the edge list), and 1 678
    // while the Manager filed registrations in an ordered map, whose tree
    // nodes every run allocated as its clients registered. A ceiling with
    // < 10 % headroom rather than an equality, because the cost engine
    // sizes its worker pool from the host.
    const OBSERVED: u64 = 223;
    let mut sim = scale_fleet_sim_on(12, 10_000, 1, ObsHandle::disabled(), EngineKind::Event);
    let (n, report) = allocs_in(|| sim.run());
    assert_eq!(report.federation.nodes().len(), 180);
    assert!(
        n <= OBSERVED + OBSERVED / 10,
        "one k = 12 fleet run made {n} allocations ({:.1} per node), pinned at {OBSERVED} + 10 %",
        n as f64 / 180.0
    );
}

/// A Manager over a `k`-port fat-tree with every switch registered and
/// reporting `load` percent — the whole fleet an Offload-candidate, nobody
/// Busy.
fn idle_manager(k: usize, load: f64) -> Manager {
    let graph = FatTree::new(k, Link::new(25_000.0, 0.2)).graph;
    let nodes: Vec<NodeId> = graph.nodes().collect();
    let cfg = DustConfig::paper_defaults();
    let mut m = Manager::new(graph, cfg, SolverBackend::Transportation, 1_000, 3_000)
        .expect("paper defaults are valid");
    for node in nodes {
        m.handle(0, &ClientMsg::OffloadCapable { node, capable: true });
        m.handle(0, &ClientMsg::Stat { node, utilization: load, data_mb: 50.0 });
    }
    m
}

#[test]
fn a_snapshot_is_the_states_vector_only() {
    let m = idle_manager(8, 20.0);
    let (n, nmdb) = allocs_in(|| m.snapshot());
    assert_eq!(nmdb.states.len(), 80);
    assert_eq!(n, 1, "the states, and a shared topology");
    // the same with somebody Busy
    let mut m = m;
    m.handle(10, &ClientMsg::Stat { node: NodeId(79), utilization: 95.0, data_mb: 50.0 });
    let (n, nmdb) = allocs_in(|| m.snapshot());
    assert_eq!(nmdb.states[79].utilization, 95.0);
    assert_eq!(n, 1);
}

#[test]
fn a_quiet_placement_round_allocates_per_node_not_per_edge() {
    // `fleet_sim_k90`'s round at k = 12: 180 switches, 864 links, nobody
    // Busy. The round owns a snapshot's states (32 bytes a node) and the
    // candidate list (every node; 4 bytes each, grown by doubling): 43
    // bytes a node. A copy of the topology alone is 864 edges of 24 bytes
    // and 180 adjacency lists holding 1 728 edge ids of 4: 178 bytes a
    // node here, and 1.2 kB a node at k = 90, where a node has 36 links.
    let mut m = idle_manager(12, 20.0);
    let nodes = m.graph().node_count() as u64;
    assert_eq!((nodes, m.graph().edge_count()), (180, 864));
    for round in 0..3 {
        let (bytes, (placement, offers)) = bytes_in(|| m.run_placement(1_000 * round));
        assert_eq!(placement.status, PlacementStatus::NoBusyNodes);
        assert_eq!((offers.len(), placement.candidates.len()), (0, 180));
        assert!(
            bytes < 64 * nodes,
            "round {round}: {bytes} bytes, {:.1} a node",
            bytes as f64 / nodes as f64
        );
    }
}

/// MODI's buffers — potentials, last pivot's potentials, the per-row
/// pricing cache, the cycle — are allocated once per solve. Two warm solves
/// of one 121 × 360 instance (so neither pays for a Vogel start), one from
/// its own optimal basis and one from the mirrored instance's, differ only
/// by the few basis adjacency lists a pivot happens to grow.
#[test]
fn a_transport_solve_allocates_per_solve_not_per_pivot() {
    use dust::lp::{Basis, TransportProblem};
    let (m, n) = (121, 360);
    let mut rng = SplitMix64::new(1008);
    let p = TransportProblem::new(
        (0..m).map(|_| rng.range_f64(1.0, 10.0)).collect(),
        (0..n).map(|_| rng.range_f64(5.0, 30.0)).collect(),
        (0..m * n).map(|_| rng.range_f64(0.1, 20.0)).collect(),
    );
    let mut mirrored = p.clone();
    mirrored.cost.iter_mut().for_each(|c| *c = 20.1 - *c);
    let obs = ObsHandle::disabled();
    let solve_from = |basis: Option<Basis>| allocs_in(|| p.solve_with(&obs, basis.as_ref()));
    let (none, own) = solve_from(p.solve().basis);
    let (many, far) = solve_from(mirrored.solve().basis);
    assert!(own.warm_used && far.warm_used, "both bases fit: same balances");
    assert_eq!(own.iterations, 0);
    assert!(far.iterations >= 100, "{} pivots", far.iterations);
    assert!(
        many >= none && ((many - none) as usize) < far.iterations / 8,
        "{none} allocations for 0 pivots, {many} for {}",
        far.iterations
    );
}

/// A cold solve allocates for the admissible cells, not for all `m · n`:
/// an instance that admits a tenth of its cells, a band of columns per
/// row, allocates at most a third of the bytes its fully admissible twin
/// of the same shape, balances and costs does.
#[test]
fn a_sparse_solve_allocates_for_its_admissible_cells() {
    use dust::lp::{TransportProblem, TransportStatus};
    let (m, n) = (121, 360);
    let mut rng = SplitMix64::new(1010);
    let supply: Vec<f64> = (0..m).map(|_| rng.range_f64(1.0, 10.0)).collect();
    let capacity: Vec<f64> = (0..n).map(|_| rng.range_f64(5.0, 30.0)).collect();
    let cost: Vec<f64> = (0..m * n).map(|_| rng.range_f64(0.1, 20.0)).collect();
    let band = |k: usize| (k % n + n - (k / n) * n / m) % n < n / 10;
    let banded = cost.iter().enumerate().map(|(k, &c)| if band(k) { c } else { f64::INFINITY });
    let full = TransportProblem::new(supply.clone(), capacity.clone(), cost.clone());
    let sparse = TransportProblem::new(supply, capacity, banded.collect());
    let (full_bytes, f) = bytes_in(|| full.solve());
    let (sparse_bytes, s) = bytes_in(|| sparse.solve());
    assert_eq!((f.status, s.status), (TransportStatus::Optimal, TransportStatus::Optimal));
    assert!(
        3 * sparse_bytes <= full_bytes,
        "{sparse_bytes} bytes for a tenth of the cells, {full_bytes} for all of them"
    );
}
