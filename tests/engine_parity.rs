//! Tick-vs-event core parity: the redesigned event-driven core must be
//! observably indistinguishable from the legacy fixed-tick core.
//!
//! "Observably" is strict: for the same scenario, seed, and fault
//! profile, the two cores must produce bit-identical traces (same
//! digest, same binary encoding), identical metrics text, and identical
//! report counters. The event core is free to reorder *work* internally
//! (lazy link application, epoch-cached resource walks) but never to
//! reorder or change any *observable* event.
//!
//! A seeded sweep stands in for a property test: a fixed set of seeds
//! chosen at authoring time, run over both the perfect-wire testbed and
//! a lossy chaos profile. Any divergence names the seed that broke.

use dust::prelude::*;

/// Seeds for the parity sweep. Deliberately spread: small, large,
/// bit-dense, and the golden-trace seeds themselves.
const SEEDS: [u64; 5] = [1, 7, 42, 0xDEAD_BEEF, u64::MAX - 3];

/// The perfect-wire testbed with no SLO engine attached, on `engine`.
fn run_testbed(seed: u64, obs: ObsHandle, engine: EngineKind) -> SimReport {
    let knobs =
        ScenarioKnobs { duration_ms: Some(30_000), engine, obs, ..ScenarioKnobs::seeded(seed) };
    let testbed = registry::find("testbed").expect("registered scenario");
    testbed.build_unwatched(&knobs).unwrap().run()
}

fn run_scale_fleet(k: usize, duration_ms: u64, seed: u64, engine: EngineKind) -> SimReport {
    scale_fleet_sim_on(k, duration_ms, seed, ObsHandle::disabled(), engine).run()
}

/// [`scale_fleet_sim_on`]'s fleet — every switch an appliance on the one
/// interned deployment record — under any traffic model.
fn scale_fleet_under(
    k: usize,
    duration_ms: u64,
    seed: u64,
    traffic: TrafficModel,
    engine: EngineKind,
) -> SimReport {
    let ft = FatTree::new(k, Link::new(25_000.0, 0.2));
    let appliance =
        NodeSpec { cpu_cores: 4096.0, mem_gib: 4096.0, base_cpu_percent: 14.0, base_mem_gib: 9.6 };
    let deployment = dust::sim::scenarios::scale_fleet_deployment();
    let nodes = ft
        .graph
        .nodes()
        .map(|n| SimNode::with_shared_agents(n, appliance, std::sync::Arc::clone(&deployment)))
        .collect();
    Simulation::builder()
        .graph(ft.graph)
        .nodes(nodes)
        .traffic(traffic)
        .dust(DustConfig::paper_defaults().with_engine(PathEngine::HopBoundedDp))
        .duration_ms(duration_ms)
        .sample_period_ms(150)
        .seed(seed)
        .engine(engine)
        .build()
        .expect("scale knobs are consistent")
        .run()
}

/// FNV-1a over every point of every series of every store, in node, name
/// and time order: value bits, not values, so `-0.0` and NaN payloads count.
fn federation_digest(fed: &Federation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for n in fed.nodes() {
        let db = fed.store(n).expect("listed stores exist");
        eat(&n.0.to_le_bytes());
        for name in db.series_names() {
            eat(name.as_bytes());
            eat(&[0xff]);
            for p in db.series(name).expect("listed series exist").points() {
                eat(&p.ts_ms.to_le_bytes());
                eat(&p.value.to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// The two federations hold the same stores, series and points, bit for bit.
fn assert_federations_equal(label: &str, tick: &Federation, event: &Federation) {
    let nodes = tick.nodes();
    assert_eq!(nodes, event.nodes(), "{label}: federation topology diverges");
    for n in nodes {
        let (a, b) = (tick.store(n).unwrap(), event.store(n).unwrap());
        assert_eq!(a.series_names(), b.series_names(), "{label}: {n:?} series sets diverge");
        for name in a.series_names() {
            let (pa, pb) = (a.series(name).unwrap().points(), b.series(name).unwrap().points());
            assert_eq!(pa.len(), pb.len(), "{label}: {n:?} {name} point counts diverge");
            for (x, y) in pa.iter().zip(pb) {
                assert!(
                    x.ts_ms == y.ts_ms && x.value.to_bits() == y.value.to_bits(),
                    "{label}: {n:?} {name} diverges: tick {x:?} vs event {y:?}"
                );
            }
        }
    }
    assert_eq!(federation_digest(tick), federation_digest(event), "{label}");
}

fn assert_obs_equal(scenario: &str, seed: u64, tick: &ObsHandle, event: &ObsHandle) {
    let tt = tick.trace_snapshot().unwrap();
    let te = event.trace_snapshot().unwrap();
    assert_eq!(
        tt.digest(),
        te.digest(),
        "{scenario} seed {seed}: trace digests diverge (tick {:016x} vs event {:016x})",
        tt.digest(),
        te.digest()
    );
    assert_eq!(tt.to_binary(), te.to_binary(), "{scenario} seed {seed}: binary traces diverge");
    assert_eq!(
        tick.metrics().unwrap().to_text(),
        event.metrics().unwrap().to_text(),
        "{scenario} seed {seed}: metrics snapshots diverge"
    );
}

#[test]
fn testbed_cores_agree_at_every_seed() {
    for seed in SEEDS {
        let tick_obs = ObsHandle::recording(seed);
        let tick = run_testbed(seed, tick_obs.clone(), EngineKind::Tick);
        let event_obs = ObsHandle::recording(seed);
        let event = run_testbed(seed, event_obs.clone(), EngineKind::Event);

        assert_obs_equal("testbed", seed, &tick_obs, &event_obs);
        assert_eq!(tick.transfers_applied, event.transfers_applied, "seed {seed}");
        assert_eq!(tick.replicas_applied, event.replicas_applied, "seed {seed}");
        assert_eq!(tick.placements_with_assignments, event.placements_with_assignments);
        assert_eq!(tick.placement_rounds, event.placement_rounds, "seed {seed}");
        assert_eq!(tick.msgs_sent, event.msgs_sent, "seed {seed}");
        assert_eq!(tick.first_transfer_ms, event.first_transfer_ms, "seed {seed}");
        assert_eq!(tick.events_processed, event.events_processed, "seed {seed}");
        assert_eq!(tick.end_ms, event.end_ms, "seed {seed}");
    }
}

#[test]
fn chaos_cores_agree_at_every_seed() {
    let faults = FaultConfig::symmetric(FaultProfile {
        drop: 0.2,
        duplicate: 0.1,
        delay_ms: 20,
        jitter_ms: 100,
    });
    for seed in SEEDS {
        let run_on = |engine: EngineKind| {
            let knobs = ScenarioKnobs {
                duration_ms: Some(60_000),
                engine,
                obs: ObsHandle::recording(seed),
                ..ScenarioKnobs::seeded(seed)
            };
            (registry::chaos(faults, &knobs).0, knobs.obs)
        };
        let (tick, tick_obs) = run_on(EngineKind::Tick);
        let (event, event_obs) = run_on(EngineKind::Event);

        assert_obs_equal("chaos", seed, &tick_obs, &event_obs);
        // ChaosResult derives PartialEq over every protocol counter.
        assert_eq!(tick, event, "chaos seed {seed}: protocol outcomes diverge");
    }
}

#[test]
fn registry_scenarios_agree_at_every_seed() {
    // The four PR-8 registry scenarios (INT sampling costs, diurnal and
    // flash-crowd traffic, storm cascades) must hold the same parity
    // contract as the hand-rolled scenarios above: whatever machinery a
    // scenario exercises, both cores must observe it identically.
    for name in ["int_burst", "diurnal", "flash_crowd", "zone_storm"] {
        let sc = registry::find(name).expect("registered scenario");
        for seed in SEEDS {
            let run_on = |engine: EngineKind| {
                let knobs = ScenarioKnobs {
                    duration_ms: Some(30_000),
                    engine,
                    obs: ObsHandle::recording(seed),
                    ..ScenarioKnobs::seeded(seed)
                };
                let run = sc.run(&knobs).unwrap();
                (knobs.obs, run.report)
            };
            let (tick_obs, tick) = run_on(EngineKind::Tick);
            let (event_obs, event) = run_on(EngineKind::Event);
            assert_obs_equal(name, seed, &tick_obs, &event_obs);
            assert_eq!(tick.transfers_applied, event.transfers_applied, "{name} seed {seed}");
            assert_eq!(tick.msgs_sent, event.msgs_sent, "{name} seed {seed}");
            assert_eq!(tick.first_transfer_ms, event.first_transfer_ms, "{name} seed {seed}");
            assert_eq!(tick.events_processed, event.events_processed, "{name} seed {seed}");
            assert_eq!(tick.end_ms, event.end_ms, "{name} seed {seed}");
        }
    }
}

#[test]
fn federation_contents_identical_across_cores() {
    // Beyond counters: the time-series databases the run leaves behind
    // must hold the same points on the same nodes.
    let tick = run_testbed(42, ObsHandle::disabled(), EngineKind::Tick);
    let event = run_testbed(42, ObsHandle::disabled(), EngineKind::Event);
    let tick_nodes = tick.federation.nodes();
    assert_eq!(tick_nodes, event.federation.nodes(), "federation topology diverges");
    for n in tick_nodes {
        let a = tick.federation.store(n).unwrap();
        let b = event.federation.store(n).unwrap();
        assert_eq!(a.point_count(), b.point_count(), "node {n:?} point counts diverge");
        // the event core writes through per-store handles, the tick core
        // by name: same series, same points, bit for bit
        assert_eq!(a.series_names(), b.series_names(), "node {n:?} series sets diverge");
        for name in a.series_names() {
            assert_eq!(a.series(name), b.series(name), "node {n:?} series {name} diverges");
        }
    }
}

#[test]
fn scale_scenario_cores_agree() {
    // The `fleet_sim_k90` benchmark workload's scenario at small k (so
    // the test stays quick): the cores must agree on its shape too.
    let event = run_scale_fleet(4, 2_000, 3, EngineKind::Event);
    let tick = run_scale_fleet(4, 2_000, 3, EngineKind::Tick);
    assert_eq!(event.events_processed, tick.events_processed);
    assert_eq!(event.peak_queue_len, tick.peak_queue_len);
    assert_eq!(event.end_ms, tick.end_ms);
    assert_eq!(event.placement_rounds, tick.placement_rounds);
}

#[test]
fn scale_fleet_contents_identical_across_cores() {
    // Every node of the scale fleet shares one interned deployment, so the
    // event core may price it once for all of them; the tick core walks
    // every node at every event. Point for point, under constant traffic
    // and under a ramp that moves the traffic fraction at every event.
    let ramp = || TrafficModel::Ramp { from: 0.1, to: 0.9, duration_ms: 8_000 };
    let mut digests = Vec::new();
    for k in [4, 8] {
        let tick = run_scale_fleet(k, 10_000, 5, EngineKind::Tick);
        let event = run_scale_fleet(k, 10_000, 5, EngineKind::Event);
        assert_federations_equal(&format!("k = {k} constant"), &tick.federation, &event.federation);
        assert_eq!(tick.events_processed, event.events_processed, "k = {k}");
        let mirror = scale_fleet_under(k, 10_000, 5, TrafficModel::testbed(), EngineKind::Event);
        assert_eq!(federation_digest(&mirror.federation), federation_digest(&event.federation));
        digests.push(federation_digest(&event.federation));

        let tick = scale_fleet_under(k, 10_000, 5, ramp(), EngineKind::Tick);
        let event = scale_fleet_under(k, 10_000, 5, ramp(), EngineKind::Event);
        assert_federations_equal(&format!("k = {k} ramp"), &tick.federation, &event.federation);
        assert_eq!(tick.events_processed, event.events_processed, "k = {k} ramp");
        digests.push(federation_digest(&event.federation));
    }
    // k = 4 constant, k = 4 ramp, k = 8 constant, k = 8 ramp
    let pinned = [
        0x18da_1d92_941b_cf39,
        0x3249_c08e_33ff_f689,
        0x4b37_38c9_5e37_1d25,
        0x2976_e845_61db_ba45,
    ];
    assert_eq!(digests, pinned);
}

/// A `k`-port fat-tree on two interned deployments that interleave in node
/// order: edge switches are DUT-class and share the standard ten agents
/// (Busy, so they offload), every other switch is a DPU sharing a
/// two-agent record (a candidate, so it comes to host). Drift retunes one
/// node's agents every 10 s, detaching it onto a private copy, and the
/// traffic ramps, so no two events see the same fraction.
fn mixed_shared_fleet(k: usize, seed: u64, engine: EngineKind, obs: ObsHandle) -> Simulation {
    let ft = FatTree::new(k, Link::new(25_000.0, 0.2));
    let edges = ft.tier_nodes(Tier::Edge);
    let standard = std::sync::Arc::new(MonitorAgent::standard_deployment());
    let light = std::sync::Arc::new(MonitorAgent::standard_deployment()[..2].to_vec());
    let nodes = ft
        .graph
        .nodes()
        .map(|n| {
            if edges.contains(&n) {
                SimNode::with_shared_agents(
                    n,
                    NodeSpec::aruba_8325(),
                    std::sync::Arc::clone(&standard),
                )
            } else {
                SimNode::with_shared_agents(n, NodeSpec::dpu(), std::sync::Arc::clone(&light))
            }
        })
        .collect();
    Simulation::builder()
        .graph(ft.graph)
        .nodes(nodes)
        .traffic(TrafficModel::Ramp { from: 0.2, to: 0.5, duration_ms: 40_000 })
        .dust(testbed_dust_config())
        .duration_ms(60_000)
        .sample_period_ms(500)
        .drift(dust::sim::DriftConfig { period_ms: 10_000, ..Default::default() })
        .seed(seed)
        .engine(engine)
        .obs(obs)
        .build()
        .expect("mixed fleet knobs are consistent")
}

#[test]
fn mixed_shared_fleet_contents_identical_across_cores() {
    // Nodes leave the shared record three ways — drift retunes them,
    // offload moves their agents away, hosting adds someone else's — while
    // their siblings keep sharing it. Both cores must record the same
    // points through all of it.
    let mut digests = Vec::new();
    for seed in [3u64, 11] {
        let (tick_obs, event_obs) = (ObsHandle::recording(seed), ObsHandle::recording(seed));
        let mut tick_sim = mixed_shared_fleet(4, seed, EngineKind::Tick, tick_obs.clone());
        let mut event_sim = mixed_shared_fleet(4, seed, EngineKind::Event, event_obs.clone());
        let (tick, event) = (tick_sim.run(), event_sim.run());
        assert_obs_equal("mixed fleet", seed, &tick_obs, &event_obs);
        assert_federations_equal(&format!("seed {seed}"), &tick.federation, &event.federation);
        assert_eq!(tick.transfers_applied, event.transfers_applied, "seed {seed}");
        assert_eq!(tick.events_processed, event.events_processed, "seed {seed}");
        digests.push(federation_digest(&event.federation));

        // the run really went down every path
        let nodes = event_sim.nodes();
        assert!(event.transfers_applied > 0, "seed {seed}: nobody offloaded");
        assert!(nodes.iter().any(|n| !n.hosted_agents.is_empty()), "seed {seed}: nobody hosts");
        assert!(nodes.iter().any(|n| !n.agents_interned()), "seed {seed}: nobody detached");
        assert!(
            nodes.iter().any(|n| n.agents_interned() && n.hosted_agents.is_empty()),
            "seed {seed}: nobody still shares a record"
        );
    }
    assert_eq!(digests, [0x832d_2170_3801_a4bf, 0x754b_50cb_0b6d_7602]);
}

#[test]
fn scale_fleet_k90_shape_is_pinned() {
    // The `fleet_sim_k90` benchmark workload, event core. The benchmark
    // only checks that this shape repeats run to run; the numbers
    // themselves are pinned here. A change to any of them is a change in
    // simulation behaviour, not in speed.
    let report = run_scale_fleet(90, 10_000, 1, EngineKind::Event);
    let fed = &report.federation;
    let nodes = fed.nodes();
    assert_eq!(nodes.len(), 10_125);
    assert_eq!(report.events_processed, 121_589);
    assert_eq!(report.peak_queue_len, 3);
    let points: usize = nodes.iter().filter_map(|&n| fed.store(n)).map(|db| db.point_count()).sum();
    assert_eq!(points, 2_035_125);
    // 10 000 ms at one sample per 150 ms, first at t = 0: 67 points in
    // each of the three per-sample series, and no store holds anything else
    for &n in &nodes {
        let db = fed.store(n).unwrap();
        assert_eq!(db.series_names(), ["device-cpu", "device-mem", "monitor-cpu"], "{n:?}");
        for name in db.series_names() {
            assert_eq!(db.series(name).unwrap().len(), 67, "{n:?} {name}");
        }
    }
    // and every one of those points, bit for bit
    assert_eq!(federation_digest(fed), 0x45c2_4569_25f7_bde5);
}
