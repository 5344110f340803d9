//! Golden-trace regression tests.
//!
//! Two canned scenarios — the Fig. 5 testbed under a perfect wire and the
//! same testbed under 20 % control-plane loss — run at fixed seeds with
//! the trace recorder on. Each test runs its scenario twice in-process and
//! requires (a) the two traces to be bit-identical (digest, text
//! encoding, and metrics text all equal) and (b) the digest and a handful
//! of load-bearing counters to match golden values checked in below.
//!
//! If a change legitimately alters protocol or solver behaviour, rerun
//! the tests, read the `got {digest:016x}` from the failure message, and
//! update the constants — that diff is the reviewable behavioural delta.
//!
//! Beside the digests, [`FINGERPRINTS`] pins a sweep of runs — the
//! testbed, the chaos loss ladder, five registry scenarios and the scale
//! fleet, each at several seeds — one u64 per run over everything the run
//! leaves behind: trace digest, metrics text, report counters and every
//! recorded point.

use dust::prelude::*;

/// Fixed seed for the perfect-wire testbed scenario.
const TESTBED_SEED: u64 = 42;
/// Simulated duration for the testbed scenario, ms.
const TESTBED_DURATION_MS: u64 = 60_000;

/// Fixed seed for the 20 %-loss chaos scenario.
const CHAOS_SEED: u64 = 7;
/// Simulated duration for the chaos scenario, ms.
const CHAOS_DURATION_MS: u64 = 120_000;

/// Golden digest of the testbed trace at `TESTBED_SEED`.
const TESTBED_DIGEST: u64 = 0x56baacf9a0c6e5d5;
/// Golden digest of the chaos trace at `CHAOS_SEED`.
const CHAOS_DIGEST: u64 = 0x0462984b186d8882;

fn run_testbed() -> (ObsHandle, SimReport) {
    let obs = ObsHandle::recording(TESTBED_SEED);
    let knobs = ScenarioKnobs {
        duration_ms: Some(TESTBED_DURATION_MS),
        obs: obs.clone(),
        ..ScenarioKnobs::seeded(TESTBED_SEED)
    };
    // unwatched: an SLO engine would add its own evaluation events
    let testbed = registry::find("testbed").expect("registered scenario");
    let report = testbed.build_unwatched(&knobs).unwrap().run();
    (obs, report)
}

fn chaos_faults() -> FaultProfile {
    FaultProfile { drop: 0.2, duplicate: 0.1, delay_ms: 20, jitter_ms: 100 }
}

fn run_chaos() -> (ObsHandle, ChaosResult) {
    let obs = ObsHandle::recording(CHAOS_SEED);
    let knobs = ScenarioKnobs {
        duration_ms: Some(CHAOS_DURATION_MS),
        obs: obs.clone(),
        ..ScenarioKnobs::seeded(CHAOS_SEED)
    };
    let (result, _) = registry::chaos(chaos_faults(), &knobs);
    (obs, result)
}

#[test]
fn testbed_trace_is_bit_identical_across_runs() {
    let (a, report_a) = run_testbed();
    let (b, report_b) = run_testbed();
    assert!(report_a.transfers_applied > 0, "testbed run must offload");
    assert_eq!(report_a.transfers_applied, report_b.transfers_applied);

    let ta = a.trace_snapshot().unwrap();
    let tb = b.trace_snapshot().unwrap();
    TraceAssert::new(&ta).assert_same_digest(&tb);
    assert_eq!(ta.to_text(), tb.to_text(), "text encodings diverge");
    assert_eq!(
        a.metrics().unwrap().to_text(),
        b.metrics().unwrap().to_text(),
        "metrics snapshots diverge"
    );
}

#[test]
fn testbed_trace_matches_golden_digest() {
    let (obs, _) = run_testbed();
    let trace = obs.trace_snapshot().unwrap();
    // a failure writes the trace tail to target/postmortem/ so CI can
    // upload the black box next to the red test
    TraceAssert::new(&trace)
        .with_postmortem("target/postmortem/testbed_golden.txt")
        .expect("Register")
        .expect("Offer")
        .expect("OfferAccepted")
        .expect("TransferApplied")
        .assert_digest(TESTBED_DIGEST);
}

#[test]
fn chaos_trace_is_bit_identical_across_runs() {
    let (a, result_a) = run_chaos();
    let (b, result_b) = run_chaos();
    assert_eq!(result_a, result_b, "chaos outcomes diverge at the same seed");
    assert!(result_a.msgs_dropped > 0, "20% loss must drop something");

    let ta = a.trace_snapshot().unwrap();
    let tb = b.trace_snapshot().unwrap();
    TraceAssert::new(&ta).assert_same_digest(&tb);
    assert_eq!(ta.to_text(), tb.to_text(), "text encodings diverge");
    assert_eq!(
        a.metrics().unwrap().to_text(),
        b.metrics().unwrap().to_text(),
        "metrics snapshots diverge"
    );
}

#[test]
fn chaos_trace_matches_golden_digest() {
    let (obs, _) = run_chaos();
    let trace = obs.trace_snapshot().unwrap();
    TraceAssert::new(&trace)
        .with_postmortem("target/postmortem/chaos_golden.txt")
        .expect("FaultDrop")
        .expect("Retransmit")
        .expect("TransferApplied")
        .assert_digest(CHAOS_DIGEST);
}

/// Fixed seed for the four registry scenarios pinned below.
const SCENARIO_SEED: u64 = 42;

/// Golden digests of the registry scenarios at `SCENARIO_SEED`, default
/// durations, default (event) core, each entry's own SLO spec attached
/// (a registry run always attaches one, and the evaluation events are
/// part of the trace).
const INT_BURST_DIGEST: u64 = 0x79a6b30453fa311f;
const DIURNAL_DIGEST: u64 = 0xfc936cf3e05a3066;
const FLASH_CROWD_DIGEST: u64 = 0x028c1eec925a8662;
const ZONE_STORM_DIGEST: u64 = 0xed3d8c01dc80f20f;

fn run_scenario(name: &str) -> ObsHandle {
    let sc = registry::find(name).expect("registered scenario");
    let knobs = ScenarioKnobs {
        obs: ObsHandle::recording(SCENARIO_SEED),
        ..ScenarioKnobs::seeded(SCENARIO_SEED)
    };
    let run = sc.run(&knobs).unwrap();
    assert!(!run.breached(), "{name} must pass its attached SLO:\n{}", run.slo.report());
    assert!(run.report.transfers_applied > 0, "{name} must offload");
    knobs.obs
}

#[test]
fn registry_scenarios_are_bit_identical_across_runs() {
    for name in ["int_burst", "diurnal", "flash_crowd", "zone_storm"] {
        let a = run_scenario(name);
        let b = run_scenario(name);
        let ta = a.trace_snapshot().unwrap();
        let tb = b.trace_snapshot().unwrap();
        TraceAssert::new(&ta).assert_same_digest(&tb);
        assert_eq!(ta.to_text(), tb.to_text(), "{name}: text encodings diverge");
        assert_eq!(
            a.metrics().unwrap().to_text(),
            b.metrics().unwrap().to_text(),
            "{name}: metrics snapshots diverge"
        );
    }
}

#[test]
fn int_burst_trace_matches_golden_digest() {
    let obs = run_scenario("int_burst");
    let trace = obs.trace_snapshot().unwrap();
    TraceAssert::new(&trace)
        .with_postmortem("target/postmortem/int_burst_golden.txt")
        .expect("Register")
        .expect("Offer")
        .expect("TransferApplied")
        .assert_digest(INT_BURST_DIGEST);
}

#[test]
fn diurnal_trace_matches_golden_digest() {
    let obs = run_scenario("diurnal");
    let trace = obs.trace_snapshot().unwrap();
    TraceAssert::new(&trace)
        .with_postmortem("target/postmortem/diurnal_golden.txt")
        .expect("TransferApplied")
        .assert_digest(DIURNAL_DIGEST);
}

#[test]
fn flash_crowd_trace_matches_golden_digest() {
    let obs = run_scenario("flash_crowd");
    let trace = obs.trace_snapshot().unwrap();
    TraceAssert::new(&trace)
        .with_postmortem("target/postmortem/flash_crowd_golden.txt")
        .expect("TransferApplied")
        .assert_digest(FLASH_CROWD_DIGEST);
}

#[test]
fn zone_storm_trace_matches_golden_digest() {
    let obs = run_scenario("zone_storm");
    let trace = obs.trace_snapshot().unwrap();
    assert!(obs.counter("sim.storm_cascades") > 0, "the storm must cascade");
    TraceAssert::new(&trace)
        .with_postmortem("target/postmortem/zone_storm_golden.txt")
        .expect("StormCascade")
        .expect("TransferApplied")
        .assert_digest(ZONE_STORM_DIGEST);
}

#[test]
fn golden_counters_hold() {
    // A few load-bearing counters pinned alongside the digests: these
    // change only when protocol or solver behaviour changes, and their
    // diff localizes *what* moved when a digest test goes red.
    let (testbed, _) = run_testbed();
    let (chaos, _) = run_chaos();
    let got = [
        ("testbed proto.offers_sent", testbed.counter("proto.offers_sent")),
        ("testbed proto.offers_confirmed", testbed.counter("proto.offers_confirmed")),
        ("testbed sim.transfers_applied", testbed.counter("sim.transfers_applied")),
        ("chaos proto.offers_sent", chaos.counter("proto.offers_sent")),
        ("chaos proto.offer_retransmits", chaos.counter("proto.offer_retransmits")),
        ("chaos sim.transport.to_client.dropped", chaos.counter("sim.transport.to_client.dropped")),
    ];
    let golden: [(&str, u64); 6] = [
        ("testbed proto.offers_sent", 6),
        ("testbed proto.offers_confirmed", 6),
        ("testbed sim.transfers_applied", 6),
        ("chaos proto.offers_sent", 6),
        ("chaos proto.offer_retransmits", 2),
        ("chaos sim.transport.to_client.dropped", 1),
    ];
    assert_eq!(got, golden, "golden counters moved");
}

// ---------------------------------------------------------------------
// Fingerprints: one u64 per run over everything the run leaves behind.
// ---------------------------------------------------------------------

/// Seeds of the fingerprint sweep. Deliberately spread: small, large,
/// bit-dense, and the golden-trace seeds themselves.
const SEEDS: [u64; 5] = [1, 7, 42, 0xDEAD_BEEF, u64::MAX - 3];

/// The chaos ladder `dustctl sim --sweep` runs: drop probability per
/// direction, with [`FaultProfile::chaos`]'s duplication and jitter.
const CHAOS_LADDER: [(&str, f64); 5] = [
    ("chaos 0%", 0.0),
    ("chaos 5%", 0.05),
    ("chaos 10%", 0.1),
    ("chaos 20%", 0.2),
    ("chaos 40%", 0.4),
];

/// The registry scenarios the sweep runs watched, at 30 s each.
const SCENARIOS: [&str; 5] = ["int_burst", "diurnal", "flash_crowd", "zone_storm", "churn"];

/// The scale fleet's arities and seeds, 10 s each.
const SCALE_FLEET: [(&str, usize); 3] =
    [("scale_fleet k=4", 4), ("scale_fleet k=8", 8), ("scale_fleet k=12", 12)];
const SCALE_FLEET_SEEDS: [u64; 3] = [1, 3, 5];

/// `(run, seed, fingerprint)`.
type Row = (&'static str, u64, u64);

/// FNV-1a, fed in pieces.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a over every point of every series of every store, in node, name
/// and time order: value bits, not values, so `-0.0` and NaN payloads count.
fn federation_digest(fed: &Federation) -> u64 {
    let mut h = Fnv::new();
    for n in fed.nodes() {
        let db = fed.store(n).expect("listed stores exist");
        h.eat(&n.0.to_le_bytes());
        for name in db.series_names() {
            h.eat(name.as_bytes());
            h.eat(&[0xff]);
            for p in db.series(name).expect("listed series exist").points() {
                h.eat(&p.ts_ms.to_le_bytes());
                h.eat(&p.value.to_bits().to_le_bytes());
            }
        }
    }
    h.0
}

/// Every scalar field of a report. Destructured without `..`, so a field
/// added to [`SimReport`] does not compile here until it is pinned too.
fn report_scalars(r: &SimReport) -> String {
    let SimReport {
        federation: _,
        placements_with_assignments,
        transfers_applied,
        replicas_applied,
        orphaned,
        first_transfer_ms,
        msgs_sent,
        msgs_dropped,
        msgs_duplicated,
        offer_retries,
        offers_abandoned,
        end_ms,
        events_processed,
        peak_queue_len,
        placement_rounds,
    } = r;
    format!(
        "placements_with_assignments {placements_with_assignments} \
         transfers_applied {transfers_applied} replicas_applied {replicas_applied} \
         orphaned {orphaned} first_transfer_ms {first_transfer_ms:?} msgs_sent {msgs_sent} \
         msgs_dropped {msgs_dropped} msgs_duplicated {msgs_duplicated} \
         offer_retries {offer_retries} offers_abandoned {offers_abandoned} end_ms {end_ms} \
         events_processed {events_processed} peak_queue_len {peak_queue_len} \
         placement_rounds {placement_rounds}"
    )
}

/// One run's fingerprint: FNV-1a over its trace digest, its metrics text,
/// its outcome (report scalars, or a chaos result's `Debug` text) and,
/// where the run hands one back, its federation's digest. The metrics text
/// leaves out `lp.cells_priced`: it counts the solver's pricing work, not
/// what the run did, and a solver that prices fewer cells on the way to
/// the same pivots lowers it.
fn fingerprint(obs: &ObsHandle, outcome: &str, federation: Option<&Federation>) -> u64 {
    let mut h = Fnv::new();
    h.eat(&obs.digest().expect("a recording run").to_le_bytes());
    let metrics = obs.metrics().expect("a recording run").to_text();
    for line in metrics.lines().filter(|l| !l.starts_with("counter lp.cells_priced ")) {
        h.eat(line.as_bytes());
        h.eat(b"\n");
    }
    h.eat(outcome.as_bytes());
    if let Some(fed) = federation {
        h.eat(&federation_digest(fed).to_le_bytes());
    }
    h.0
}

fn report_fingerprint(obs: &ObsHandle, r: &SimReport) -> u64 {
    fingerprint(obs, &report_scalars(r), Some(&r.federation))
}

/// The testbed unwatched at 30 s, and the chaos ladder at 60 s.
fn testbed_and_chaos_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    let testbed = registry::find("testbed").expect("registered scenario");
    for seed in SEEDS {
        let obs = ObsHandle::recording(seed);
        let knobs = ScenarioKnobs {
            duration_ms: Some(30_000),
            obs: obs.clone(),
            ..ScenarioKnobs::seeded(seed)
        };
        let report = testbed.build_unwatched(&knobs).unwrap().run();
        rows.push(("testbed", seed, report_fingerprint(&obs, &report)));
    }
    for (run, loss) in CHAOS_LADDER {
        let faults = FaultProfile::chaos(loss);
        for seed in SEEDS {
            let obs = ObsHandle::recording(seed);
            let knobs = ScenarioKnobs {
                duration_ms: Some(60_000),
                obs: obs.clone(),
                ..ScenarioKnobs::seeded(seed)
            };
            let (result, _) = registry::chaos(faults, &knobs);
            rows.push((run, seed, fingerprint(&obs, &format!("{result:?}"), None)));
        }
    }
    rows
}

/// Five registry scenarios, each watched by its own SLO spec, at 30 s.
fn scenario_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for name in SCENARIOS {
        let sc = registry::find(name).expect("registered scenario");
        for seed in SEEDS {
            let obs = ObsHandle::recording(seed);
            let knobs = ScenarioKnobs {
                duration_ms: Some(30_000),
                obs: obs.clone(),
                ..ScenarioKnobs::seeded(seed)
            };
            let run = sc.run(&knobs).unwrap();
            rows.push((name, seed, report_fingerprint(&obs, &run.report)));
        }
    }
    rows
}

/// The benchmark fleet at small arities, 10 s each.
fn scale_fleet_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for (run, k) in SCALE_FLEET {
        for seed in SCALE_FLEET_SEEDS {
            let obs = ObsHandle::recording(seed);
            let report = scale_fleet_sim_on(k, 10_000, seed, obs.clone(), EngineKind::Event).run();
            rows.push((run, seed, report_fingerprint(&obs, &report)));
        }
    }
    rows
}

/// `got` equals the rows of [`FINGERPRINTS`] for the runs it names; a
/// mismatch prints what the runs give now, in the table's own form.
fn assert_pinned(got: &[Row]) {
    let want: Vec<Row> =
        FINGERPRINTS.iter().copied().filter(|(run, ..)| got.iter().any(|g| g.0 == *run)).collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(run, seed, f)| {
                let f = format!("{f:016x}");
                format!(
                    "    ({run:?}, {seed}, 0x{}_{}_{}_{}),\n",
                    &f[..4],
                    &f[4..8],
                    &f[8..12],
                    &f[12..]
                )
            })
            .collect();
        panic!("fingerprints moved; the runs now give:\n{table}");
    }
}

#[test]
fn testbed_and_chaos_fingerprints_are_pinned() {
    assert_pinned(&testbed_and_chaos_rows());
}

#[test]
fn registry_scenario_fingerprints_are_pinned() {
    assert_pinned(&scenario_rows());
}

#[test]
fn scale_fleet_fingerprints_are_pinned() {
    assert_pinned(&scale_fleet_rows());
}

#[test]
fn metrics_json_is_pinned() {
    // The JSON exposition renders no histogram sum, so it cannot depend
    // on how a sum is accumulated. The runs are the seed-42 testbed row
    // and the seed-7 "chaos 20%" row of the sweep.
    let json_fnv = |obs: &ObsHandle| {
        let mut h = Fnv::new();
        h.eat(obs.metrics().expect("a recording run").to_json().as_bytes());
        h.0
    };
    let knobs = |seed: u64, duration_ms: u64, obs: &ObsHandle| ScenarioKnobs {
        duration_ms: Some(duration_ms),
        obs: obs.clone(),
        ..ScenarioKnobs::seeded(seed)
    };
    let testbed = ObsHandle::recording(42);
    let sc = registry::find("testbed").expect("registered scenario");
    sc.build_unwatched(&knobs(42, 30_000, &testbed)).unwrap().run();
    let chaos = ObsHandle::recording(7);
    registry::chaos(FaultProfile::chaos(0.2), &knobs(7, 60_000, &chaos));
    assert_eq!(
        [json_fnv(&testbed), json_fnv(&chaos)],
        [0x5215_fc70_9382_c2f4, 0x4065_8604_7a9f_6210]
    );
}

/// [`scale_fleet_sim_on`]'s fleet — every switch an appliance on the one
/// interned deployment record — under any traffic model.
fn scale_fleet_under(k: usize, duration_ms: u64, seed: u64, traffic: TrafficModel) -> SimReport {
    scale_fleet_builder(k, duration_ms, seed, ObsHandle::disabled())
        .traffic(traffic)
        .build()
        .expect("scale knobs are consistent")
        .run()
}

#[test]
fn scale_fleet_federation_digests_are_pinned() {
    // Every node of the scale fleet shares one interned deployment, so the
    // core prices it once for all of them. Point for point, under constant
    // traffic and under a ramp that moves the traffic fraction at every
    // event. Recorded when a per-node walk at every event gave the same.
    let ramp = TrafficModel::Ramp { from: 0.1, to: 0.9, duration_ms: 8_000 };
    let mut digests = Vec::new();
    for k in [4, 8] {
        for traffic in [TrafficModel::testbed(), ramp.clone()] {
            digests.push(federation_digest(&scale_fleet_under(k, 10_000, 5, traffic).federation));
        }
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
fn mixed_shared_fleet(k: usize, seed: u64) -> Simulation {
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
        .build()
        .expect("mixed fleet knobs are consistent")
}

#[test]
fn mixed_shared_fleet_digests_are_pinned() {
    // Nodes leave the shared record three ways — drift retunes them,
    // offload moves their agents away, hosting adds someone else's — while
    // their siblings keep sharing it. Recorded when a per-node walk at
    // every event gave the same points through all of it.
    let mut digests = Vec::new();
    for seed in [3u64, 11] {
        let mut sim = mixed_shared_fleet(4, seed);
        let report = sim.run();
        digests.push(federation_digest(&report.federation));

        // the run really went down every path
        let nodes = sim.nodes();
        assert!(report.transfers_applied > 0, "seed {seed}: nobody offloaded");
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
fn shared_fleet_slot_changes_are_pinned() {
    // The scale fleet shares one deployment record until drift retunes a
    // node, which detaches it onto its own copy. At k = 4 one node drifts
    // every 450 ms (samples 3, 6, … and, at 67 samples, the last one); at
    // k = 8 three drift every 1 050 ms (sample 7, the end of a run of
    // eight). Each run unwatched and recorded: the recorded JSON carries
    // the `sim.node.*_percent` histograms, which see every sampled value in
    // the order it arrives.
    let json_fnv = |obs: &ObsHandle| {
        let mut h = Fnv::new();
        h.eat(obs.metrics().expect("a recording run").to_json().as_bytes());
        h.0
    };
    let mut got = Vec::new();
    for (k, nodes_per_tick, period_ms) in [(4, 1, 450), (8, 3, 1_050)] {
        // 9 and 67 samples
        for duration_ms in [1_200, 10_000] {
            let drift = dust::sim::DriftConfig { nodes_per_tick, period_ms, ..Default::default() };
            let run = |obs: ObsHandle| {
                let mut sim = scale_fleet_builder(k, duration_ms, 2, obs)
                    .drift(drift)
                    .build()
                    .expect("scale knobs are consistent");
                let digest = federation_digest(&sim.run().federation);
                (digest, sim.nodes().iter().filter(|n| !n.agents_interned()).count())
            };
            let (quiet, detached) = run(ObsHandle::disabled());
            let obs = ObsHandle::recording(2);
            assert_eq!(run(obs.clone()), (quiet, detached), "k {k}, {duration_ms} ms");
            got.push((k, duration_ms, detached, quiet, json_fnv(&obs)));
        }
    }
    // (k, duration, nodes detached, federation digest, metrics JSON FNV)
    let pinned = [
        (4, 1_200, 2, 0x1f28_23db_8409_f9eb, 0xc87d_e78b_3c1f_c6d8),
        (4, 10_000, 13, 0x4cba_9f5e_a0b1_35ed, 0xdffd_ceac_826a_164f),
        (8, 1_200, 3, 0x200a_bf5b_87dd_3385, 0x1c90_18e4_fbdb_e16c),
        (8, 10_000, 25, 0xeb14_cc67_cb65_6f8b, 0xd9ee_05e9_06cc_e828),
    ];
    assert_eq!(got, pinned);
}

/// The nodes holding each distinct store of `fed` — one store shared
/// copy-on-write counts once — each list ascending, the lists ordered by
/// their first node.
fn holders_by_store(fed: &Federation) -> Vec<Vec<NodeId>> {
    let mut groups: Vec<(*const Tsdb, Vec<NodeId>)> = Vec::new();
    for n in fed.nodes() {
        let store: *const Tsdb = fed.store(n).expect("listed stores exist");
        match groups.iter_mut().find(|(s, _)| *s == store) {
            Some((_, holders)) => holders.push(n),
            None => groups.push((store, vec![n])),
        }
    }
    groups.into_iter().map(|(_, holders)| holders).collect()
}

#[test]
fn fleets_share_exactly_the_stores_that_are_equal() {
    // nodes that take the same points all run hold one store; a node whose
    // points part from the others' holds one of its own
    let report = scale_fleet_sim_on(12, 10_000, 1, ObsHandle::disabled(), EngineKind::Event).run();
    let held = holders_by_store(&report.federation);
    assert_eq!(held.iter().map(Vec::len).collect::<Vec<_>>(), [180], "one store, every node");

    // the drift fixtures of `shared_fleet_slot_changes_are_pinned`: each
    // detached node alone, the nodes still on the record together
    for (k, nodes_per_tick, period_ms) in [(4, 1, 450), (8, 3, 1_050)] {
        for duration_ms in [1_200, 10_000] {
            let drift = dust::sim::DriftConfig { nodes_per_tick, period_ms, ..Default::default() };
            let mut sim = scale_fleet_builder(k, duration_ms, 2, ObsHandle::disabled())
                .drift(drift)
                .build()
                .expect("scale knobs are consistent");
            let held = holders_by_store(&sim.run().federation);
            let (detached, sharing): (Vec<NodeId>, Vec<NodeId>) = sim
                .nodes()
                .iter()
                .map(|n| n.id)
                .partition(|&id| !sim.nodes()[id.index()].agents_interned());
            let at = format!("k {k}, {duration_ms} ms");
            assert!(!detached.is_empty() && !sharing.is_empty(), "{at}");
            for id in &detached {
                assert!(held.contains(&vec![*id]), "{at}: detached {id:?} holds its own store");
            }
            assert!(held.contains(&sharing), "{at}: the class holds one store");
            assert_eq!(held.len(), detached.len() + 1, "{at}: and there is no other");
        }
    }

    // a flow owner appends its flow's series to its store alone
    let report = mixed_shared_fleet(4, 3).run();
    let fed = &report.federation;
    let owners: Vec<NodeId> = fed.holders(dust::sim::series::TELEMETRY_ADMITTED_MBPS);
    assert!(!owners.is_empty(), "somebody owned a routed flow");
    let held = holders_by_store(fed);
    for id in owners {
        assert!(held.contains(&vec![id]), "flow owner {id:?} holds its own store");
    }
    assert!(held.iter().any(|h| h.len() > 1), "the nodes without a flow still share");
}

#[test]
fn scale_fleet_k90_shape_is_pinned() {
    // The `fleet_sim_k90` benchmark workload. The benchmark only checks
    // that this shape repeats run to run; the numbers themselves are
    // pinned here. A change to any of them is a change in simulation
    // behaviour, not in speed.
    let report = scale_fleet_sim_on(90, 10_000, 1, ObsHandle::disabled(), EngineKind::Event).run();
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

/// `(k, duration_ms, samples, federation digest, points)` of
/// [`scale_fleet_sim_on`] runs whose sample counts straddle a run of
/// eight: one, a few, exactly eight, one past, and the 10 s run's 67.
const SAMPLE_COUNT_PINS: [(usize, u64, u64, u64, usize); 10] = [
    (4, 100, 1, 0xa91b_1b90_046f_d821, 60),
    (4, 300, 3, 0x7003_2fd5_0132_b329, 180),
    (4, 1_050, 8, 0x576a_d8bb_143b_899d, 480),
    (4, 1_200, 9, 0xf222_2c0d_bcbb_ebe1, 540),
    (4, 10_000, 67, 0x18da_1d92_941b_cf39, 4_020),
    (8, 100, 1, 0xfc26_68ee_d2f2_ca85, 240),
    (8, 300, 3, 0x9637_13ab_641f_b1d5, 720),
    (8, 1_050, 8, 0xcc9c_6efa_b0a7_be05, 1_920),
    (8, 1_200, 9, 0x2faa_e487_6062_4a65, 2_160),
    (8, 10_000, 67, 0x4b37_38c9_5e37_1d25, 16_080),
];

#[test]
fn sample_counts_around_a_run_of_eight_are_pinned() {
    // Every series of these fleets is a per-sample series, one point per
    // sample at t = 0, 150, 300, …: its length and its last timestamp
    // follow from the sample count, and every point is in the digest.
    let mut got = Vec::new();
    for (k, duration_ms, samples, ..) in SAMPLE_COUNT_PINS {
        let report =
            scale_fleet_sim_on(k, duration_ms, 1, ObsHandle::disabled(), EngineKind::Event).run();
        let fed = &report.federation;
        let mut points = 0;
        for n in fed.nodes() {
            let db = fed.store(n).expect("listed stores exist");
            assert_eq!(db.series_names(), ["device-cpu", "device-mem", "monitor-cpu"], "{n:?}");
            for name in db.series_names() {
                let s = db.series(name).expect("listed series exist");
                let last = s.points().last().expect("sampled").ts_ms;
                let at = format!("k {k}, {duration_ms} ms, {n:?} {name}");
                assert_eq!((s.len() as u64, last), (samples, (samples - 1) * 150), "{at}");
                points += s.len();
            }
        }
        got.push((k, duration_ms, samples, federation_digest(fed), points));
    }
    assert_eq!(got, SAMPLE_COUNT_PINS);
}

/// One row per run of the sweep. Recorded from the tick core — the
/// reference the event core was pinned against — and the event core
/// alike: the two gave the same value for every row. The rows of runs that
/// solve placements were re-recorded, with nothing else changed, when
/// [`fingerprint`] stopped reading `lp.cells_priced`. Every row was
/// re-recorded when a histogram's sum became an `f64`: the metrics text's
/// `sum=` tokens changed from 64 hex digits to a float, and with those
/// tokens masked out every row hashed the same before and after.
const FINGERPRINTS: [Row; 64] = [
    ("testbed", 1, 0x2268_5a7c_89a1_08eb),
    ("testbed", 7, 0xd826_6df0_2fa5_81c1),
    ("testbed", 42, 0x4040_7f0c_7cc2_04f9),
    ("testbed", 3735928559, 0xe2be_8edc_8632_1464),
    ("testbed", 18446744073709551612, 0xcd43_bcd5_7d02_a842),
    ("chaos 0%", 1, 0x35fa_7ffe_785f_4968),
    ("chaos 0%", 7, 0xe4af_7f02_60b5_6b0f),
    ("chaos 0%", 42, 0x8682_562a_8e52_f438),
    ("chaos 0%", 3735928559, 0x1373_1d53_0016_bf75),
    ("chaos 0%", 18446744073709551612, 0x51bc_c739_0b8f_0cd2),
    ("chaos 5%", 1, 0x8558_be1b_32d7_fee1),
    ("chaos 5%", 7, 0x5fe4_e9a4_c0ea_9d45),
    ("chaos 5%", 42, 0xb420_2127_f3cb_0a6f),
    ("chaos 5%", 3735928559, 0xc0e5_7968_4e95_92f2),
    ("chaos 5%", 18446744073709551612, 0xe5c3_947c_fc4d_4cab),
    ("chaos 10%", 1, 0xcbc0_60c7_4a7f_66fe),
    ("chaos 10%", 7, 0xbcfa_5335_5ba4_6074),
    ("chaos 10%", 42, 0x7183_9b02_b63b_7e2b),
    ("chaos 10%", 3735928559, 0xb4dd_7de6_80cf_af85),
    ("chaos 10%", 18446744073709551612, 0x7f50_24ae_99a5_98dc),
    ("chaos 20%", 1, 0xfc9d_0e4a_b1a8_a358),
    ("chaos 20%", 7, 0x70cd_1c9b_c79a_7d4a),
    ("chaos 20%", 42, 0x49c3_3b35_4dd6_21e6),
    ("chaos 20%", 3735928559, 0x172d_0582_e129_111c),
    ("chaos 20%", 18446744073709551612, 0xc379_8e6c_8351_aeb9),
    ("chaos 40%", 1, 0xbe54_b117_2c32_adb2),
    ("chaos 40%", 7, 0x9e24_1fc5_7908_210f),
    ("chaos 40%", 42, 0x937d_5528_6a89_9f3f),
    ("chaos 40%", 3735928559, 0x9168_d5df_b563_489e),
    ("chaos 40%", 18446744073709551612, 0x0267_c3ac_c9b7_b2a8),
    ("int_burst", 1, 0xa9ef_9015_4fc3_a4bc),
    ("int_burst", 7, 0x857f_d45c_4736_2642),
    ("int_burst", 42, 0xe307_78bc_4595_a33a),
    ("int_burst", 3735928559, 0xc1aa_bdcb_f878_c4f3),
    ("int_burst", 18446744073709551612, 0xcc60_4959_cb84_3011),
    ("diurnal", 1, 0xa0da_8c45_71ed_0f0a),
    ("diurnal", 7, 0x8170_8142_11e1_9924),
    ("diurnal", 42, 0xcca4_d1c9_c80f_2bd1),
    ("diurnal", 3735928559, 0x9097_ec06_63cb_47b0),
    ("diurnal", 18446744073709551612, 0xb0ce_1dbb_c9a9_7b07),
    ("flash_crowd", 1, 0xc8b4_ca6d_8b9e_8247),
    ("flash_crowd", 7, 0xc8ea_3ad8_93bf_be27),
    ("flash_crowd", 42, 0x810c_f3bd_3056_957e),
    ("flash_crowd", 3735928559, 0x9edc_f192_d217_3862),
    ("flash_crowd", 18446744073709551612, 0x7440_8a05_43bf_ff4a),
    ("zone_storm", 1, 0x3386_256b_6a57_76f6),
    ("zone_storm", 7, 0x8d4b_8c93_1013_e9c8),
    ("zone_storm", 42, 0xc430_4163_86d7_f3ec),
    ("zone_storm", 3735928559, 0x5a88_3748_86eb_7403),
    ("zone_storm", 18446744073709551612, 0x9cb4_d4a8_4165_fd16),
    ("churn", 1, 0xbc46_3103_2e98_2cb2),
    ("churn", 7, 0x6f21_22e9_8eb0_aab2),
    ("churn", 42, 0x520d_fd40_108c_4bf5),
    ("churn", 3735928559, 0x255a_6e53_186a_ba1f),
    ("churn", 18446744073709551612, 0x0aa1_c598_a183_ac9a),
    ("scale_fleet k=4", 1, 0x6a0e_174b_ed4c_a06b),
    ("scale_fleet k=4", 3, 0x8ecf_33b2_40d0_14aa),
    ("scale_fleet k=4", 5, 0x0f41_e506_4f23_3fd4),
    ("scale_fleet k=8", 1, 0xc3d3_6ea6_266a_3f2c),
    ("scale_fleet k=8", 3, 0xc516_4d6d_3e8f_0d2a),
    ("scale_fleet k=8", 5, 0x8bd7_2e63_40bb_0332),
    ("scale_fleet k=12", 1, 0xcd69_1678_4d95_b5a2),
    ("scale_fleet k=12", 3, 0x8a0e_4641_0596_6f08),
    ("scale_fleet k=12", 5, 0x7f0b_6b5a_af28_df40),
];
