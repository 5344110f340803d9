//! The named scenario registry: every canned workload the simulator can
//! run, as data instead of ad-hoc free functions.
//!
//! A [`Scenario`] bundles a name, a constructor for the topology, agent
//! mix, traffic model and fault model, and an attached SLO spec, so every
//! entry is simultaneously a reproducible experiment and a pass/fail
//! gate: [`Scenario::run`] always attaches an online [`SloEngine`] for
//! the entry's spec (override it via [`ScenarioKnobs::slo_override`]),
//! and a run is bit-identical per `(seed, duration)` — the CI
//! chaos gate diffs two `dustctl sim --scenario <name> --metrics-json`
//! invocations byte-for-byte.
//!
//! The registry entries:
//!
//! | name          | workload shape                                        |
//! |---------------|-------------------------------------------------------|
//! | `testbed`     | Fig. 5 testbed, full DUST offload, perfect wire       |
//! | `chaos`       | the testbed under a 20 % lossy, duplicating wire      |
//! | `int_burst`   | testbed + INT per-packet agents (`1/N` and `p` knobs) |
//! | `diurnal`     | testbed under a sinusoidal day curve plus noise       |
//! | `flash_crowd` | testbed under a ramp/hold/decay crowd spike           |
//! | `zone_storm`  | 4-k fat-tree: CPU-cascade storm + a pod-wide outage   |
//! | `churn`       | testbed under seeded link/agent drift, warm + delta   |
//!
//! [`ScenarioKnobs`] is the one way to name a run: the registry entries
//! take it through [`Scenario::run`], and [`chaos`] — the testbed under a
//! caller-supplied fault model, which is what `dustctl sim --loss …`
//! drives — takes the same knobs beside its [`FaultProfile`]. The Fig. 1 /
//! Fig. 6 experiment helpers ([`fig1_curve`], [`fig6_contrast`]) live
//! here too.

use crate::builder::SimBuilder;
use crate::node::SimNode;
use crate::runner::{DriftConfig, SimReport, Simulation};
use crate::scenarios::{
    monitored_fat_tree, testbed_dust_config, testbed_nodes, testbed_topology, ChaosResult, Fig1Row,
    Fig6Result,
};
use crate::traffic::TrafficModel;
use crate::transport::FaultProfile;
use dust_core::DustError;
use dust_obs::{ObsHandle, SloEngine, SloSpec};
use dust_telemetry::{IntSampling, MonitorAgent};
use dust_topology::Graph;

/// Per-invocation knobs for a registry scenario: everything the caller
/// may vary without changing what the scenario *is*.
#[derive(Debug, Clone, Default)]
pub struct ScenarioKnobs {
    /// Simulated duration override; `None` runs the scenario's
    /// [`Scenario::default_duration_ms`].
    pub duration_ms: Option<u64>,
    /// Master seed.
    pub seed: u64,
    /// Observability sink ([`ObsHandle::disabled`] for a plain run).
    pub obs: ObsHandle,
    /// Evaluate this spec instead of the scenario's attached one.
    pub slo_override: Option<SloSpec>,
}

impl ScenarioKnobs {
    /// Default knobs at `seed`.
    pub fn seeded(seed: u64) -> Self {
        ScenarioKnobs { seed, ..Default::default() }
    }
}

/// One named registry entry: a complete workload description plus the
/// SLO spec that judges it.
#[derive(Clone, Copy)]
pub struct Scenario {
    /// Registry key (`dustctl sim --scenario <name>`).
    pub name: &'static str,
    /// One-line description for `--scenario help` and the README table.
    pub summary: &'static str,
    /// The attached SLO spec, evaluated by default on every run.
    pub slo_spec: &'static str,
    /// Duration when the caller does not override it, ms.
    pub default_duration_ms: u64,
    /// Sets up the simulation's builder (everything but the SLO engine).
    make: fn(&ScenarioKnobs, u64) -> SimBuilder,
}

impl std::fmt::Debug for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("slo_spec", &self.slo_spec)
            .field("default_duration_ms", &self.default_duration_ms)
            .finish()
    }
}

/// What one [`Scenario::run`] produced.
#[derive(Debug)]
pub struct ScenarioRun {
    /// The scenario that ran.
    pub name: &'static str,
    /// The simulation report (metric series, transfer counters, …).
    pub report: SimReport,
    /// The SLO engine that watched the run, holding any breaches.
    pub slo: SloEngine,
}

impl ScenarioRun {
    /// True when any SLO rule fired.
    pub fn breached(&self) -> bool {
        self.slo.breached()
    }
}

impl Scenario {
    /// The attached SLO spec, parsed. Registry specs are tested to
    /// parse, so this never fails for a registry entry.
    pub fn slo(&self) -> SloSpec {
        SloSpec::parse(self.slo_spec).expect("registry SLO specs parse")
    }

    /// The duration this invocation will simulate.
    pub fn duration(&self, knobs: &ScenarioKnobs) -> u64 {
        knobs.duration_ms.unwrap_or(self.default_duration_ms)
    }

    /// Assemble the simulation with no SLO engine watching it. An attached
    /// engine schedules its own evaluation events, so a run built here
    /// processes fewer events than one from [`Scenario::build`]; the trace
    /// digest is the same unless a rule breaches.
    pub fn build_unwatched(&self, knobs: &ScenarioKnobs) -> Result<Simulation, DustError> {
        (self.make)(knobs, self.duration(knobs)).build()
    }

    /// Assemble the simulation with the SLO engine already attached
    /// (the scenario's own spec, or the override).
    pub fn build(&self, knobs: &ScenarioKnobs) -> Result<Simulation, DustError> {
        let spec = match &knobs.slo_override {
            Some(s) => s.clone(),
            None => self.slo(),
        };
        (self.make)(knobs, self.duration(knobs)).slo(spec).build()
    }

    /// Build and run to completion.
    pub fn run(&self, knobs: &ScenarioKnobs) -> Result<ScenarioRun, DustError> {
        let mut sim = self.build(knobs)?;
        let report = sim.run();
        let slo = sim.take_slo().expect("build attached an engine");
        Ok(ScenarioRun { name: self.name, report, slo })
    }
}

/// Every registered scenario, in stable listing order.
pub fn all() -> &'static [Scenario] {
    &REGISTRY
}

/// Look a scenario up by name.
pub fn find(name: &str) -> Option<&'static Scenario> {
    REGISTRY.iter().find(|s| s.name == name)
}

static REGISTRY: [Scenario; 7] = [
    Scenario {
        name: "testbed",
        summary: "Fig. 5 testbed, full DUST offload, perfect wire",
        slo_spec: "convergence<=20000,abandons<=0",
        default_duration_ms: 120_000,
        make: testbed_builder,
    },
    Scenario {
        name: "chaos",
        summary: "the testbed under a 20% lossy, duplicating, jittery wire",
        slo_spec: "convergence<=60000,abandons<=10",
        default_duration_ms: 120_000,
        make: make_chaos,
    },
    Scenario {
        name: "int_burst",
        summary: "testbed + INT per-packet agents (deterministic 1/4 and p=0.25)",
        slo_spec: "convergence<=20000,abandons<=0",
        default_duration_ms: 90_000,
        make: make_int_burst,
    },
    Scenario {
        name: "diurnal",
        summary: "testbed under a sinusoidal day curve with seeded noise",
        slo_spec: "convergence<=30000,abandons<=0",
        default_duration_ms: 120_000,
        make: make_diurnal,
    },
    Scenario {
        name: "flash_crowd",
        summary: "testbed under a ramp/hold/decay crowd spike",
        slo_spec: "convergence<=30000,abandons<=0",
        default_duration_ms: 90_000,
        make: make_flash_crowd,
    },
    Scenario {
        name: "zone_storm",
        summary: "4-k fat-tree: CPU-cascade storm, then a pod-wide outage",
        slo_spec: "convergence<=20000,abandons<=40",
        default_duration_ms: 90_000,
        make: make_zone_storm,
    },
    Scenario {
        name: "churn",
        summary: "testbed under seeded link/agent drift, warm-started delta re-placement",
        slo_spec: "convergence<=20000,abandons<=5",
        default_duration_ms: 120_000,
        make: make_churn,
    },
];

/// What every canned DUST run starts from: full monitoring offload at
/// the testbed's thresholds and traffic over `graph`/`nodes`, with the
/// knobs applied. Callers override only what they vary.
pub(crate) fn offload_builder(
    graph: Graph,
    nodes: Vec<SimNode>,
    knobs: &ScenarioKnobs,
    duration: u64,
) -> SimBuilder {
    Simulation::builder()
        .graph(graph)
        .nodes(nodes)
        .traffic(TrafficModel::testbed())
        .dust(testbed_dust_config())
        .duration_ms(duration)
        .seed(knobs.seed)
        .full_monitoring_offload(true)
        .obs(knobs.obs.clone())
}

/// [`offload_builder`] over the Fig. 5 testbed.
pub(crate) fn testbed_builder(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    let (graph, dut) = testbed_topology();
    offload_builder(graph, testbed_nodes(dut), knobs, duration)
}

fn make_chaos(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    testbed_builder(knobs, duration).faults(FaultProfile::chaos(0.2))
}

fn make_int_burst(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    let (_, dut) = testbed_topology();
    let mut nodes = testbed_nodes(dut);
    // The INT class rides along with the periodic STAT deployment: one
    // deterministic 1/N sampler and one seeded probabilistic sampler at
    // the same expected fraction, so their *costs* are identical while
    // their per-packet decision sequences differ (see
    // `crates/sim/tests/int_sampling.rs`).
    let d = &mut nodes[dut.index()];
    d.local_agents_mut().push(MonitorAgent::int(IntSampling::Deterministic { n: 4 }));
    d.local_agents_mut().push(MonitorAgent::int(IntSampling::Probabilistic { p: 0.25 }));
    d.note_agents_changed();
    testbed_builder(knobs, duration).nodes(nodes)
}

fn make_diurnal(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    let traffic = TrafficModel::Diurnal {
        mean: 0.45,
        amplitude: 0.35,
        period_ms: 30_000,
        noise: 0.05,
        seed: knobs.seed ^ 0xD1A7,
    };
    testbed_builder(knobs, duration).traffic(traffic)
}

fn make_flash_crowd(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    let traffic = TrafficModel::FlashCrowd {
        base: 0.15,
        peak: 0.85,
        start_ms: duration / 3,
        ramp_ms: 5_000.min(duration / 8).max(1),
        hold_ms: duration / 4,
    };
    testbed_builder(knobs, duration).traffic(traffic)
}

fn make_zone_storm(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    let (ft, _, nodes) = monitored_fat_tree(4);
    // Two correlated failure modes layered on the kill/revive path:
    // the CPU-cascade storm, which takes out edge switches still Busy
    // before placement relieves them, and a zone outage killing all of
    // pod 0 mid-run (revived at two-thirds), exercising REP re-homing at
    // scale.
    let pod: Vec<_> = ft.pod_nodes(0);
    let mut b = offload_builder(ft.graph, nodes, knobs, duration).storm();
    for &n in &pod {
        b = b.kill_at(duration / 2, n);
    }
    for &n in &pod {
        b = b.revive_at(duration * 2 / 3, n);
    }
    b
}

fn make_churn(knobs: &ScenarioKnobs, duration: u64) -> SimBuilder {
    // High-churn continuous operation: every 4 s a seeded drift step
    // retunes one link capacity (±30 %) and one node's agent sampling
    // rate, so the optimum keeps moving. The Manager re-optimizes
    // incrementally — warm-started bases, dirty-row re-pricing (one
    // drifted link per round keeps the dirty fraction under the
    // full-invalidation threshold on the small testbed fabric), and the
    // delta path re-homing only flows whose T_rmin degraded > 10 %
    // between full solves every 8th round.
    testbed_builder(knobs, duration)
        .drift(DriftConfig { links_per_tick: 1, ..DriftConfig::default() })
        .incremental_placement()
}

// ---------------------------------------------------------------------
// Experiment helpers and the fault-parameterized chaos run.
// ---------------------------------------------------------------------

/// Reproduce Fig. 1: monitoring-module CPU versus VxLAN traffic level on
/// the DUT with all ten agents local. Each level runs `per_level_ms` of
/// simulated time.
pub fn fig1_curve(levels: &[f64], per_level_ms: u64, seed: u64) -> Vec<Fig1Row> {
    let (_, dut) = testbed_topology();
    levels
        .iter()
        .map(|&traffic| {
            let mut sim = testbed_builder(&ScenarioKnobs::seeded(seed), per_level_ms)
                .traffic(TrafficModel::Constant(traffic))
                .dust_enabled(false) // Fig. 1 measures the unoffloaded module
                .build()
                .expect("fig1 knobs are consistent");
            let report = sim.run();
            let mean = report.mean(dut, "monitor-cpu", 0, per_level_ms).unwrap_or(0.0);
            let peak = report.max(dut, "monitor-cpu", 0, per_level_ms).unwrap_or(0.0);
            Fig1Row { traffic_fraction: traffic, mean_cpu_percent: mean, peak_cpu_percent: peak }
        })
        .collect()
}

/// Reproduce Fig. 6: run the testbed twice — monitoring local vs DUST
/// offloading — and compare the DUT's steady-state resource utilization.
///
/// The DUST run's mean is taken over the post-offload tail (second half
/// of the run) to measure the settled state, mirroring how the testbed
/// numbers were read.
pub fn fig6_contrast(duration_ms: u64, seed: u64) -> Fig6Result {
    let (_, dut) = testbed_topology();
    let run = |dust_enabled: bool| -> (SimReport, usize) {
        let mut sim = testbed_builder(&ScenarioKnobs::seeded(seed), duration_ms)
            .dust_enabled(dust_enabled)
            .build()
            .expect("fig6 knobs are consistent");
        let r = sim.run();
        let transfers = r.transfers_applied;
        (r, transfers)
    };
    let (local, _) = run(false);
    let (dust, transfers) = run(true);
    let tail = duration_ms / 2;
    Fig6Result {
        local_cpu: local.mean(dut, "device-cpu", tail, duration_ms).unwrap_or(f64::NAN),
        dust_cpu: dust.mean(dut, "device-cpu", tail, duration_ms).unwrap_or(f64::NAN),
        local_mem: local.mean(dut, "device-mem", tail, duration_ms).unwrap_or(f64::NAN),
        dust_mem: dust.mean(dut, "device-mem", tail, duration_ms).unwrap_or(f64::NAN),
        transfers,
    }
}

/// Run the Fig. 5 testbed under a caller-supplied control-plane fault
/// model (`dustctl sim`'s flags, or a [`FaultProfile::chaos`] rung) and
/// audit what the retry/expiry machinery did about it. The duration
/// defaults to the `chaos` entry's; an SLO engine rides along iff
/// [`ScenarioKnobs::slo_override`] is set (overload threshold = the
/// run's `c_max`) and comes back holding any breaches. The engine is
/// a pure observer: the [`ChaosResult`] is bit-identical with or without
/// it, and with or without a recording `obs`. The reported `loss` is the
/// profile's drop probability.
///
/// The invariant under test is *conservation*: whatever the control
/// plane loses, no monitor agent may vanish — every agent is either
/// local to its owner or hosted somewhere on its behalf, and the
/// protocol ledgers quiesce to a mutually consistent state.
pub fn chaos(faults: FaultProfile, knobs: &ScenarioKnobs) -> (ChaosResult, Option<SloEngine>) {
    let entry = find("chaos").expect("chaos is a registry entry");
    let (_, dut) = testbed_topology();
    let mut b = testbed_builder(knobs, entry.duration(knobs)).faults(faults);
    if let Some(spec) = &knobs.slo_override {
        b = b.slo(spec.clone());
    }
    let mut sim = b.build().expect("chaos knobs are consistent");
    let report = sim.run();

    // offers still unconfirmed at the end are fine while young (an offer
    // may be mid-retry when time runs out); one older than the entire
    // backoff ladder has leaked past the expiry machinery
    let budget = 8 * sim.manager().offer_timeout_ms();
    let unconfirmed_stale = sim
        .manager()
        .hostings()
        .values()
        .filter(|h| !h.confirmed && report.end_ms.saturating_sub(h.offered_ms) > budget)
        .count();

    // mutual ledger consistency: every confirmed hosting is mirrored on
    // its client with the same owner and amount, and no client entry that
    // the Manager still tracks diverges from the Manager's record
    let mut consistent = true;
    for (req, h) in sim.manager().hostings() {
        if !h.confirmed {
            continue;
        }
        let mirrored = sim.clients()[h.to.index()]
            .hosted()
            .any(|(r, w)| r == req && w.from == h.from && (w.amount - h.amount).abs() < 1e-9);
        consistent &= mirrored;
    }
    for c in sim.clients() {
        for (req, w) in c.hosted() {
            if let Some(h) = sim.manager().hostings().get(req) {
                consistent &=
                    h.to == c.node && h.from == w.from && (h.amount - w.amount).abs() < 1e-9;
            }
        }
    }

    let result = ChaosResult {
        loss: faults.drop,
        transfers: report.transfers_applied,
        replicas: report.replicas_applied,
        msgs_sent: report.msgs_sent,
        msgs_dropped: report.msgs_dropped,
        msgs_duplicated: report.msgs_duplicated,
        offer_retries: report.offer_retries,
        offers_abandoned: report.offers_abandoned,
        first_transfer_ms: report.first_transfer_ms,
        agents_expected: 10,
        agents_present: sim.agent_census(dut),
        unconfirmed_stale,
        ledgers_consistent: consistent,
    };
    (result, sim.take_slo())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_topology::NodeId;

    #[test]
    fn every_entry_has_a_parsable_slo_spec_and_unique_name() {
        let mut seen = std::collections::BTreeSet::new();
        for s in all() {
            assert!(seen.insert(s.name), "duplicate scenario name {}", s.name);
            let spec = SloSpec::parse(s.slo_spec);
            assert!(spec.is_ok(), "{}: {:?}", s.name, spec.err());
            assert!(s.default_duration_ms > 0, "{}", s.name);
            assert!(!s.summary.is_empty(), "{}", s.name);
        }
        assert!(seen.len() >= 7);
    }

    #[test]
    fn find_resolves_names_and_rejects_junk() {
        assert_eq!(find("int_burst").unwrap().name, "int_burst");
        assert_eq!(find("zone_storm").unwrap().name, "zone_storm");
        assert!(find("figment").is_none());
    }

    #[test]
    fn every_entry_builds_and_passes_its_own_slo_gate() {
        for s in all() {
            let run = s.run(&ScenarioKnobs::seeded(0)).expect(s.name);
            assert!(
                !run.breached(),
                "{} must pass its attached SLO spec at seed 0:\n{}",
                s.name,
                run.slo.report()
            );
            assert!(run.report.transfers_applied > 0, "{} must offload", s.name);
        }
    }

    #[test]
    fn int_burst_raises_dut_load_over_the_plain_testbed() {
        // the INT agents cost real CPU: the unoffloaded DUT reads higher
        // than the plain ten-agent testbed at the same traffic level
        let dut = NodeId(2);
        let load = |name: &str| {
            let sc = find(name).unwrap();
            let mut sim = sc.build(&ScenarioKnobs::seeded(3)).unwrap();
            sim.run().mean(dut, "monitor-cpu", 0, 4_000).unwrap()
        };
        let plain = load("testbed");
        let int = load("int_burst");
        assert!(int > plain + 20.0, "INT must add load: plain {plain:.1} int {int:.1}");
    }

    #[test]
    fn zone_storm_cascades_and_recovers() {
        let sc = find("zone_storm").unwrap();
        let knobs = ScenarioKnobs { obs: ObsHandle::recording(7), ..ScenarioKnobs::seeded(7) };
        let run = sc.run(&knobs).unwrap();
        assert!(run.report.transfers_applied > 0, "storm fleet must offload");
        let cascades = knobs.obs.counter("sim.storm_cascades");
        assert!(cascades > 0, "the CPU storm must actually cascade");
        assert!(cascades <= 2, "cascade budget must hold, got {cascades}");
        let killed = knobs.obs.counter("sim.nodes_killed");
        assert!(killed >= cascades + 4, "pod outage + cascades, got {killed}");
        assert_eq!(knobs.obs.counter("sim.nodes_revived"), 4, "pod 0 revives");
        let trace = knobs.obs.trace_snapshot().unwrap();
        let storms =
            trace.entries().iter().filter(|e| e.event.kind() == "StormCascade").count() as u64;
        assert_eq!(storms, cascades, "every cascade is traced");
    }

    #[test]
    fn storm_is_deterministic_per_seed_and_varies_shape_by_duration() {
        let sc = find("zone_storm").unwrap();
        let digest = |seed: u64| {
            let knobs =
                ScenarioKnobs { obs: ObsHandle::recording(seed), ..ScenarioKnobs::seeded(seed) };
            sc.run(&knobs).unwrap();
            knobs.obs.digest().unwrap()
        };
        assert_eq!(digest(5), digest(5), "same seed, same digest");
    }

    #[test]
    fn profiling_never_perturbs_the_digest_or_metrics() {
        let sc = find("testbed").unwrap();
        let run_with = |profiled: bool| {
            let obs = ObsHandle::recording(11);
            if profiled {
                obs.enable_profiling();
            }
            let knobs = ScenarioKnobs {
                obs: obs.clone(),
                duration_ms: Some(30_000),
                ..ScenarioKnobs::seeded(11)
            };
            sc.run(&knobs).unwrap();
            (obs.digest().unwrap(), obs.metrics().unwrap().to_json())
        };
        let (plain_digest, plain_metrics) = run_with(false);
        let (prof_digest, prof_metrics) = run_with(true);
        assert_eq!(plain_digest, prof_digest, "profiler must not touch the trace digest");
        assert_eq!(plain_metrics, prof_metrics, "profiler must not touch recorded metrics");
    }

    #[test]
    fn flash_crowd_peaks_where_configured() {
        let sc = find("flash_crowd").unwrap();
        let mut sim = sc.build(&ScenarioKnobs::seeded(1)).unwrap();
        let report = sim.run();
        let dut = NodeId(2);
        let d = sc.default_duration_ms;
        // traffic (and hence device CPU) must be higher inside the crowd
        // window than in the quiet lead-in
        let quiet = report.mean(dut, "device-cpu", 0, d / 4).unwrap();
        let crowd = report.max(dut, "device-cpu", d / 3, 2 * d / 3).unwrap();
        assert!(crowd > quiet, "crowd must load the DUT: quiet {quiet:.1} peak {crowd:.1}");
    }

    #[test]
    fn churn_drifts_rehomes_and_saves_pivots() {
        let sc = find("churn").unwrap();
        let knobs = ScenarioKnobs { obs: ObsHandle::recording(0), ..ScenarioKnobs::seeded(0) };
        let run = sc.run(&knobs).unwrap();
        assert!(run.report.transfers_applied > 0, "churn must offload");
        assert!(knobs.obs.counter("sim.drift_ticks") > 0, "drift must tick");
        let delta = knobs.obs.counter("proto.delta_rounds");
        let full = knobs.obs.counter("proto.placement_rounds") - delta;
        assert!(delta > 0, "delta rounds must fire");
        assert!(full > 0, "the periodic full-solve cadence must hold");
        assert!(delta > full, "under churn most rounds must take the delta path");
        assert!(knobs.obs.counter("proto.flows_rehomed") > 0, "drift must force re-homes");
        // dirty-link journaling from drift must keep most refreshes
        // incremental (full invalidation stays available as the
        // fallback) and actually drop the rows crossing drifted links
        let refreshes = knobs.obs.counter("cost.refreshes");
        let full_inval = knobs.obs.counter("cost.full_invalidations");
        assert!(refreshes > 2 * full_inval, "refreshes {refreshes} full {full_inval}");
        assert!(knobs.obs.counter("cost.rows_invalidated") > 0, "dirty rows must be dropped");
        let trace = knobs.obs.trace_snapshot().unwrap();
        let drifts =
            trace.entries().iter().filter(|e| e.event.kind() == "DriftApplied").count() as u64;
        assert_eq!(drifts, knobs.obs.counter("sim.drift_ticks"), "every drift step is traced");
        let rehomes = trace.entries().iter().filter(|e| e.event.kind() == "Rehome").count() as u64;
        assert_eq!(rehomes, knobs.obs.counter("proto.flows_rehomed"), "every re-home is traced");
    }

    #[test]
    fn churn_is_pinned_at_seed_42() {
        let sc = find("churn").unwrap();
        let knobs = ScenarioKnobs {
            obs: ObsHandle::recording(42),
            duration_ms: Some(60_000),
            ..ScenarioKnobs::seeded(42)
        };
        sc.run(&knobs).unwrap();
        let digest = knobs.obs.digest().unwrap();
        // Golden digest: any change to the churn event stream (drift
        // draws, delta-round decisions, re-home ordering) must be a
        // conscious one — regenerate with
        //   dustctl trace --scenario churn --seed 42 --duration 60000
        assert_eq!(
            format!("{digest:016x}"),
            CHURN_GOLDEN_DIGEST_SEED42,
            "churn@42 golden digest moved"
        );
    }

    /// Pinned by `churn_is_pinned_at_seed_42`.
    const CHURN_GOLDEN_DIGEST_SEED42: &str = "c9f9ba6ee7db0c4a";

    #[test]
    fn slo_override_replaces_the_attached_spec() {
        let sc = find("testbed").unwrap();
        // an impossible spec must breach even though the attached one passes
        let knobs = ScenarioKnobs {
            slo_override: Some(SloSpec::parse("convergence<=1").unwrap()),
            ..ScenarioKnobs::seeded(0)
        };
        let run = sc.run(&knobs).unwrap();
        assert!(run.breached(), "{}", run.slo.report());
    }

    // -- moved experiment helpers keep their original behaviour --------

    #[test]
    fn fig1_cpu_grows_with_traffic_and_spikes() {
        let rows = fig1_curve(&[0.0, 0.1, 0.2], 61_000, 7);
        assert_eq!(rows.len(), 3);
        assert!(rows[1].mean_cpu_percent > rows[0].mean_cpu_percent);
        assert!(rows[2].mean_cpu_percent > rows[1].mean_cpu_percent);
        let r20 = rows[2];
        assert!(
            r20.mean_cpu_percent > 90.0 && r20.mean_cpu_percent < 180.0,
            "mean {}",
            r20.mean_cpu_percent
        );
        assert!(r20.peak_cpu_percent > 500.0, "peak {}", r20.peak_cpu_percent);
    }

    #[test]
    fn fig6_reductions_match_paper_shape() {
        let r = fig6_contrast(120_000, 11);
        assert!(r.transfers > 0, "DUST run must offload");
        assert!((r.local_cpu - 31.0).abs() < 3.0, "local cpu {}", r.local_cpu);
        assert!((r.dust_cpu - 15.5).abs() < 3.0, "dust cpu {}", r.dust_cpu);
        assert!(
            (r.cpu_reduction_percent() - 52.0).abs() < 10.0,
            "cpu reduction {}",
            r.cpu_reduction_percent()
        );
        assert!((r.local_mem - 70.0).abs() < 3.0, "local mem {}", r.local_mem);
        assert!((r.dust_mem - 62.0).abs() < 3.0, "dust mem {}", r.dust_mem);
        assert!(
            (r.mem_reduction_percent() - 12.0).abs() < 5.0,
            "mem reduction {}",
            r.mem_reduction_percent()
        );
    }

    #[test]
    fn chaos_at_20_percent_loss_conserves_everything() {
        let (r, _) = chaos(FaultProfile::chaos(0.2), &ScenarioKnobs::seeded(17));
        assert!(r.msgs_dropped > 0, "faults must actually fire");
        assert!(r.transfers > 0, "offloading must converge despite 20 % loss");
        assert_eq!(r.agents_present, r.agents_expected, "no monitor agent may ever be lost");
        assert_eq!(r.unconfirmed_stale, 0, "offers must confirm, retry, or die — not leak");
        assert!(r.ledgers_consistent, "ledgers must quiesce mutually consistent");
    }

    #[test]
    fn chaos_degrades_gracefully_up_the_loss_ladder() {
        let knobs = ScenarioKnobs { duration_ms: Some(90_000), ..ScenarioKnobs::seeded(21) };
        let rows: Vec<ChaosResult> =
            [0.0, 0.1, 0.3].iter().map(|&p| chaos(FaultProfile::chaos(p), &knobs).0).collect();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.transfers > 0, "loss {} must still offload", r.loss);
            assert_eq!(r.agents_present, r.agents_expected, "loss {}", r.loss);
            assert!(r.ledgers_consistent, "loss {}", r.loss);
            assert!(r.first_transfer_ms.is_some(), "loss {}", r.loss);
        }
        assert_eq!(rows[0].offer_retries + rows[0].msgs_dropped, 0);
        assert!(rows[2].msgs_dropped > rows[1].msgs_dropped);
        assert!(rows[0].first_transfer_ms <= rows[2].first_transfer_ms);
    }
}
