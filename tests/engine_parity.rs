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
}
