//! Golden-trace regression tests.
//!
//! Two canned scenarios — the Fig. 5 testbed under a perfect wire and the
//! same testbed under 20 % control-plane loss — run at fixed seeds with
//! the trace recorder on. Each test runs its scenario twice in-process and
//! requires (a) the two traces to be bit-identical (digest, binary
//! encoding, and metrics text all equal) and (b) the digest and a handful
//! of load-bearing counters to match golden values checked in below.
//!
//! If a change legitimately alters protocol or solver behaviour, rerun
//! the tests, read the `got {digest:016x}` from the failure message, and
//! update the constants — that diff is the reviewable behavioural delta.

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

fn chaos_faults() -> FaultConfig {
    FaultConfig::symmetric(FaultProfile { drop: 0.2, duplicate: 0.1, delay_ms: 20, jitter_ms: 100 })
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
    assert_eq!(ta.to_binary(), tb.to_binary(), "binary encodings diverge");
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
    assert_eq!(ta.to_binary(), tb.to_binary(), "binary encodings diverge");
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
        assert_eq!(ta.to_binary(), tb.to_binary(), "{name}: binary encodings diverge");
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
fn trace_binary_format_is_versioned_and_round_trips() {
    use dust::obs::{DecodedTrace, TRACE_FORMAT_VERSION, TRACE_MAGIC};
    // The golden digests above are only comparable across builds that
    // speak the same trace format. Pin the version: bumping it is a
    // deliberate act that must arrive in the same diff as new digests.
    assert_eq!(TRACE_FORMAT_VERSION, 2, "format bumped — re-record the golden digests");

    let (obs, _) = run_testbed();
    let trace = obs.trace_snapshot().unwrap();
    let bytes = trace.to_binary();
    assert_eq!(&bytes[..4], &TRACE_MAGIC, "stream must open with the magic");

    let decoded: DecodedTrace = dust::obs::Trace::decode_binary(&bytes).unwrap();
    assert_eq!(decoded.version, TRACE_FORMAT_VERSION);
    assert_eq!(decoded.seed, TESTBED_SEED);
    assert_eq!(decoded.lines.len(), trace.len());
    assert_eq!(decoded.digest, TESTBED_DIGEST, "decode must reproduce the golden digest");

    // a future-format stream fails loudly, not with a digest mismatch
    let mut future = bytes.clone();
    future[4] = 0xff;
    future[5] = 0xff;
    let err = dust::obs::Trace::decode_binary(&future).unwrap_err();
    assert!(err.contains("golden digests are format-versioned"), "{err}");
    let err = dust::obs::Trace::decode_binary(b"nope").unwrap_err();
    assert!(err.contains("bad magic") || err.contains("truncated"), "{err}");
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
