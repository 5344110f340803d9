//! Integration tests for the trace-analysis tier: causal span trees,
//! the online SLO engine, and the trace's post-mortem dump —
//! all driven through the public `dust` facade the way `dustctl` is.
//!
//! The common thread is determinism: every artifact below (span
//! forests, per-phase quantiles, breach lists, post-mortem dumps) is a
//! pure function of the recorded trace, so two runs at the same seed
//! must agree byte for byte.

use dust::prelude::*;

const SEED: u64 = 42;
const DURATION_MS: u64 = 60_000;

/// The perfect-wire testbed with no SLO engine attached, recording into `obs`.
fn run_testbed(obs: &ObsHandle) -> SimReport {
    let knobs = ScenarioKnobs {
        duration_ms: Some(DURATION_MS),
        obs: obs.clone(),
        ..ScenarioKnobs::seeded(SEED)
    };
    registry::find("testbed").expect("registered scenario").build_unwatched(&knobs).unwrap().run()
}

fn testbed_forest() -> (SpanForest, SimReport) {
    let obs = ObsHandle::recording(SEED);
    let report = run_testbed(&obs);
    let trace = obs.trace_snapshot().unwrap();
    (build_spans(&trace), report)
}

#[test]
fn every_testbed_transfer_reconstructs_as_a_complete_span_tree() {
    let (forest, report) = testbed_forest();
    assert!(report.transfers_applied > 0, "testbed must offload");
    assert_eq!(forest.orphan_events, 0, "no event may be stranded without its opener");

    let transfers: Vec<_> = forest.transfers().collect();
    assert!(!transfers.is_empty());
    for f in &transfers {
        assert!(f.complete, "{:?} must be complete on a perfect wire", f.flow);
        assert!(
            f.phase("offer").is_some() && f.phase("confirm").is_some(),
            "{:?} must carry the handshake phases, got {:?}",
            f.flow,
            f.phases
        );
        assert!(f.backoffs.is_empty(), "no retransmits on a perfect wire");
        assert!(
            matches!(f.outcome, SpanOutcome::Hosted | SpanOutcome::Released),
            "{:?} ended {:?}",
            f.flow,
            f.outcome
        );
    }
    // every registration ACKed, every node accounted for
    let (_, regs, rounds) = forest.kind_counts();
    assert_eq!(regs, 6, "all six testbed nodes register");
    assert!(rounds > 0, "placement rounds are flows too");
}

#[test]
fn per_phase_quantiles_are_byte_identical_across_runs() {
    let (a, _) = testbed_forest();
    let (b, _) = testbed_forest();
    assert_eq!(a, b, "span forests must match field for field");
    let (ha, hb) = (a.phase_histograms(), b.phase_histograms());
    assert_eq!(ha.len(), hb.len());
    for (name, h) in &ha {
        assert_eq!(h, &hb[name], "phase {name}: histograms diverge");
        for q in [0.5, 0.99] {
            assert_eq!(
                h.quantile(q).map(f64::to_bits),
                hb[name].quantile(q).map(f64::to_bits),
                "phase {name}: p{} diverges",
                q * 100.0
            );
        }
    }
    assert_eq!(a.critical_path(), b.critical_path());
}

#[test]
fn lossy_transfers_grow_backoff_children_but_stay_complete() {
    let faults = FaultProfile { drop: 0.2, duplicate: 0.1, delay_ms: 20, jitter_ms: 100 };
    let obs = ObsHandle::recording(7);
    let (r, _) =
        registry::chaos(faults, &ScenarioKnobs { obs: obs.clone(), ..ScenarioKnobs::seeded(7) });
    assert!(r.offer_retries > 0, "20 % loss must force retransmits");
    let forest = build_spans(&obs.trace_snapshot().unwrap());
    let backoffs: usize = forest.flows.iter().map(|f| f.backoffs.len()).sum();
    assert!(backoffs > 0, "retransmits must surface as backoff spans");
    assert_eq!(forest.orphan_events, 0, "loss may delay flows, never orphan them");
    for f in forest.transfers() {
        assert!(f.complete, "{:?}: lossy flows must still causally close", f.flow);
    }
}

#[test]
fn slo_breaches_are_traced_deterministically_and_digested() {
    let faults = FaultProfile { drop: 0.25, duplicate: 0.1, delay_ms: 20, jitter_ms: 100 };
    let spec = SloSpec::parse("retransmit_rate<=0.0,convergence<=1").unwrap();
    let run = |seed: u64| {
        let obs = ObsHandle::recording(seed);
        let knobs = ScenarioKnobs {
            duration_ms: Some(60_000),
            obs: obs.clone(),
            slo_override: Some(spec.clone()),
            ..ScenarioKnobs::seeded(seed)
        };
        let (r, engine) = registry::chaos(faults, &knobs);
        (r, engine.expect("slo_override attaches an engine"), obs)
    };
    let (ra, ea, oa) = run(9);
    let (rb, eb, ob) = run(9);
    assert_eq!(ra, rb);
    assert!(ea.breached());
    assert_eq!(ea.breaches(), eb.breaches(), "breach lists must reproduce exactly");
    assert_eq!(ea.report(), eb.report());
    assert_eq!(oa.digest(), ob.digest(), "SloBreach events are part of the digest");
    assert_eq!(oa.counter("slo.breaches"), ea.breaches().len() as u64);
    // the breach events round-trip through the trace with their payloads
    let traced: Vec<_> = oa
        .trace_snapshot()
        .unwrap()
        .entries()
        .iter()
        .filter_map(|e| match e.event {
            TraceEvent::SloBreach { rule, node, value_m } => Some((rule, node, value_m)),
            _ => None,
        })
        .collect();
    assert_eq!(traced.len(), ea.breaches().len());
    for (b, (rule, node, value_m)) in ea.breaches().iter().zip(&traced) {
        assert_eq!((b.rule, b.node_code(), b.value_m()), (*rule, *node, *value_m));
    }
}

#[test]
fn post_mortem_dump_is_deterministic_and_window_bounded() {
    let run = || {
        let obs = ObsHandle::recording(SEED);
        run_testbed(&obs);
        obs.post_mortem("invariant: agent census diverged").unwrap()
    };
    let (a, b) = (run(), run());
    assert_eq!(a, b, "same seed, same dump, byte for byte");
    assert!(a.starts_with("postmortem reason=invariant:_agent_census_diverged seed=42 "), "{a}");
    let last = a.lines().last().unwrap();
    assert!(last.starts_with("digest "), "dump must close with its own digest: {last}");
    // window-bounded: the dump holds at most the window + header + digest
    let events = a.lines().count() - 2;
    assert!(events <= dust::obs::POST_MORTEM_WINDOW, "{events} events in dump");
    // the exact header and closing digest of the seed-42 testbed dump
    assert_eq!(
        a.lines().next().unwrap(),
        "postmortem reason=invariant:_agent_census_diverged seed=42 window=256 dropped=445"
    );
    assert_eq!(last, "digest bd1292593f2a6577");
}

/// A failing `TraceAssert` with a post-mortem path writes the dump
/// `ObsHandle::post_mortem` renders for the same trace and reason.
fn assert_dump_matches_post_mortem(obs: &ObsHandle, file: &str) -> String {
    let trace = obs.trace_snapshot().unwrap();
    let path =
        std::env::temp_dir().join(format!("dust-span-slo-{}", std::process::id())).join(file);
    let _ = std::fs::remove_file(&path);
    let failed = std::panic::catch_unwind(|| {
        TraceAssert::new(&trace).with_postmortem(&path).assert_digest(trace.digest() ^ 1);
    });
    assert!(failed.is_err(), "a digest mismatch must panic");
    let written = std::fs::read_to_string(&path).expect("the failing assertion writes its dump");
    let _ = std::fs::remove_file(&path);
    assert_eq!(written, obs.post_mortem("trace digest mismatch").unwrap());
    written
}

#[test]
fn trace_assert_and_obs_handle_write_the_same_post_mortem() {
    // longer than the window: the testbed records hundreds of events
    let long = ObsHandle::recording(SEED);
    run_testbed(&long);
    let dump = assert_dump_matches_post_mortem(&long, "long.txt");
    assert!(dump.starts_with("postmortem reason=trace_digest_mismatch seed=42 window=256 "));
    assert!(!dump.contains(" dropped=0\n"), "{}", dump.lines().next().unwrap());

    // shorter than the window: every event is kept and nothing dropped
    let short = ObsHandle::recording(3);
    for i in 0..5u64 {
        short.trace_at(i * 10, TraceEvent::Abandon { request: i });
    }
    let dump = assert_dump_matches_post_mortem(&short, "short.txt");
    assert!(dump.starts_with("postmortem reason=trace_digest_mismatch seed=3 window=5 dropped=0\n"));
    assert!(dump.contains("\n0 0 Abandon req=0\n") && dump.contains("\n40 4 Abandon req=4\n"));
}
