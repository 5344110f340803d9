//! Cross-crate metrics-conservation property tests.
//!
//! The observability counters are not free-floating telemetry — they obey
//! exact conservation identities that tie the protocol, simulator, and
//! fault gate together. Each identity is checked over at least twelve
//! seeds spanning a ladder of loss rates:
//!
//! * **offers**: every offer the Manager ever sent is accounted for —
//!   confirmed, refused, abandoned, or still in flight (unconfirmed) when
//!   time ran out. Nothing vanishes, nothing is double-counted.
//! * **ledger**: the simulator's active-transfer set equals the running
//!   sum of applied transfers and replicas minus releases and superseded
//!   entries.
//! * **fault gate**: per direction, `delivered + dropped` equals
//!   `sent + duplicated` — the gate may reshape traffic but never
//!   miscounts it.
//! * **non-perturbation**: a chaos run with the recorder attached is
//!   bit-identical to the same run without it.

use dust::prelude::*;
use dust::sim::scenarios::{testbed_dust_config, testbed_nodes};

const SEEDS: u64 = 12;
const DURATION_MS: u64 = 45_000;

/// Loss ladder cycled across seeds so the identities are exercised on the
/// perfect wire and under light, heavy, and extreme loss alike.
fn loss_for(seed: u64) -> f64 {
    [0.0, 0.1, 0.2, 0.4][(seed % 4) as usize]
}

fn faults_for(seed: u64) -> FaultProfile {
    let loss = loss_for(seed);
    FaultProfile { drop: loss, duplicate: loss / 2.0, delay_ms: 20, jitter_ms: 100 }
}

/// Build and run the Fig. 5 testbed chaos scenario with the recorder
/// attached, returning the finished simulation (for ledger access) and
/// its observability handle.
fn run_observed(seed: u64) -> (Simulation, ObsHandle) {
    let obs = ObsHandle::recording(seed);
    (run_observed_into(seed, obs.clone()), obs)
}

/// [`run_observed`] recording into a caller's handle.
fn run_observed_into(seed: u64, obs: ObsHandle) -> Simulation {
    let (graph, dut) = testbed_topology();
    let mut sim = Simulation::builder()
        .graph(graph)
        .nodes(testbed_nodes(dut))
        .traffic(TrafficModel::testbed())
        .dust(testbed_dust_config())
        .duration_ms(DURATION_MS)
        .seed(seed)
        .full_monitoring_offload(true)
        .faults(faults_for(seed))
        .obs(obs)
        .build()
        .expect("testbed knobs are consistent");
    sim.run();
    sim
}

#[test]
fn offers_are_conserved() {
    for seed in 0..SEEDS {
        let (sim, obs) = run_observed(seed);
        let inflight = sim.manager().hostings().values().filter(|h| !h.confirmed).count() as u64;
        let sent = obs.counter("proto.offers_sent");
        let confirmed = obs.counter("proto.offers_confirmed");
        let refused = obs.counter("proto.offers_refused");
        let abandoned = obs.counter("proto.offers_abandoned");
        assert!(sent > 0, "seed {seed}: no offers at all");
        assert_eq!(
            sent,
            confirmed + refused + abandoned + inflight,
            "seed {seed} (loss {}): offers leak — sent {sent} != confirmed {confirmed} \
             + refused {refused} + abandoned {abandoned} + inflight {inflight}",
            loss_for(seed),
        );
    }
}

#[test]
fn transfer_ledger_is_conserved() {
    for seed in 0..SEEDS {
        let (sim, obs) = run_observed(seed);
        let applied = obs.counter("sim.transfers_applied") as i64;
        let replicas = obs.counter("sim.replicas_applied") as i64;
        let released = obs.counter("sim.releases_applied") as i64;
        let superseded = obs.counter("sim.transfers_superseded") as i64;
        let expected = applied + replicas - released - superseded;
        assert_eq!(
            sim.active_transfers() as i64,
            expected,
            "seed {seed} (loss {}): ledger drift — active {} != {applied} + {replicas} \
             - {released} - {superseded}",
            loss_for(seed),
            sim.active_transfers(),
        );
    }
}

#[test]
fn fault_gate_counts_per_direction_are_conserved() {
    for seed in 0..SEEDS {
        let (_, obs) = run_observed(seed);
        for dir in ["sim.transport.to_client", "sim.transport.to_manager"] {
            let sent = obs.counter(&format!("{dir}.sent"));
            let delivered = obs.counter(&format!("{dir}.delivered"));
            let dropped = obs.counter(&format!("{dir}.dropped"));
            let duplicated = obs.counter(&format!("{dir}.duplicated"));
            assert!(sent > 0, "seed {seed}: no traffic through {dir}");
            assert_eq!(
                delivered + dropped,
                sent + duplicated,
                "seed {seed} (loss {}) {dir}: gate miscount — delivered {delivered} \
                 + dropped {dropped} != sent {sent} + duplicated {duplicated}",
                loss_for(seed),
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // The recorder must be write-only with respect to the simulation:
    // attaching it cannot change a single outcome. ChaosResult carries
    // every externally visible number of a run, so plain-vs-observed
    // equality at the same seed is the whole contract.
    for seed in 0..SEEDS {
        let faults = faults_for(seed);
        let knobs = ScenarioKnobs { duration_ms: Some(DURATION_MS), ..ScenarioKnobs::seeded(seed) };
        let (plain, _) = registry::chaos(faults, &knobs);
        let (observed, _) =
            registry::chaos(faults, &ScenarioKnobs { obs: ObsHandle::recording(seed), ..knobs });
        assert_eq!(plain, observed, "seed {seed}: recorder perturbed the run");
    }
}

#[test]
fn merged_metrics_equal_the_sum_of_runs() {
    // Two runs recording into one shared handle leave counters that are
    // the arithmetic sum of the two runs recorded apart.
    let (_, a) = run_observed(1);
    let (_, b) = run_observed(2);
    let shared = ObsHandle::recording(1);
    run_observed_into(1, shared.clone());
    run_observed_into(2, shared.clone());
    let (ma, mb, merged) = (a.metrics().unwrap(), b.metrics().unwrap(), shared.metrics().unwrap());
    for name in ["proto.offers_sent", "sim.transfers_applied", "sim.transport.to_client.sent"] {
        assert!(ma.counter(name) > 0, "seed 1 never moved {name}");
        assert_eq!(
            merged.counter(name),
            ma.counter(name) + mb.counter(name),
            "shared handle broke counter {name}"
        );
    }
}
