//! The one simulation run path behind `dustctl sim`, `trace`, `spans` and
//! `profile`: a [`RunSpec`] names a run, [`run`] executes it, and the
//! commands only render the [`Run`] that comes back. [`run`] is the only
//! place in the crate that creates an [`ObsHandle`] for a simulation,
//! builds [`ScenarioKnobs`] and calls into `dust-sim`, so a per-run
//! artefact added later has one place to be produced.

use dust::prelude::*;

/// The fat-tree arity `dustctl profile scale_fleet` uses: big enough
/// that the per-event machinery dominates, small enough for an
/// interactive command (the benchmark's `fleet_sim_k90` uses k = 90).
pub const PROFILE_FLEET_K: usize = 24;

/// Default simulated duration for `dustctl profile scale_fleet`, ms.
pub const PROFILE_FLEET_DURATION_MS: u64 = 10_000;

/// What a run simulates.
#[derive(Debug, Clone, Copy)]
pub enum Target {
    /// The Fig. 5 testbed under this control-plane fault model.
    Faults(FaultProfile),
    /// A registry scenario, SLO-gated by its attached spec.
    Scenario(&'static Scenario),
    /// The benchmark fleet at [`PROFILE_FLEET_K`] (not a registry entry:
    /// it has no SLO, it exists to be measured).
    ScaleFleet,
}

impl Target {
    /// How section headers and the profile artefact name this run.
    pub fn label(&self) -> String {
        match self {
            Target::Faults(f) => format!("loss {:.0}%", f.drop * 100.0),
            Target::Scenario(sc) => format!("scenario {}", sc.name),
            Target::ScaleFleet => format!("scale_fleet (k={PROFILE_FLEET_K})"),
        }
    }

    /// The field that opens this run's `--metrics-json` object.
    pub fn json_head(&self) -> String {
        match self {
            Target::Faults(f) => format!("\"loss\":{}", f.drop),
            Target::Scenario(sc) => format!("\"scenario\":\"{}\"", sc.name),
            Target::ScaleFleet => "\"scenario\":\"scale_fleet\"".to_string(),
        }
    }
}

/// Everything that names one simulation run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub target: Target,
    pub seed: u64,
    /// `None` = the target's default.
    pub duration_ms: Option<u64>,
    /// Attaches an SLO engine to a fault run; replaces a scenario's spec.
    pub slo: Option<SloSpec>,
    /// Turn the wall-clock profiler on.
    pub profile: bool,
}

/// What the simulation handed back.
#[derive(Debug)]
pub enum Outcome {
    /// A fault run's conservation audit.
    Chaos(ChaosResult),
    /// A scenario's or the fleet's report.
    Report(SimReport),
}

/// One finished run.
#[derive(Debug)]
pub struct Run {
    pub target: Target,
    /// The recording handle that watched the run: metrics, trace, and
    /// the profile when the spec asked for one.
    pub obs: ObsHandle,
    pub outcome: Outcome,
    /// The SLO engine that watched the run, holding any breaches.
    pub slo: Option<SloEngine>,
    /// The simulated duration, ms.
    pub duration_ms: u64,
}

impl Run {
    /// True when an SLO rule fired.
    pub fn breached(&self) -> bool {
        self.slo.as_ref().is_some_and(|e| e.breached())
    }
}

/// Execute one run. Every run records: the observer never perturbs the
/// simulation, so a command that ignores the recording prints the same.
pub fn run(spec: &RunSpec) -> Result<Run, String> {
    let obs = ObsHandle::recording(spec.seed);
    if spec.profile {
        obs.enable_profiling();
    }
    let knobs = ScenarioKnobs {
        duration_ms: spec.duration_ms,
        seed: spec.seed,
        obs: obs.clone(),
        slo_override: spec.slo.clone(),
    };
    let (outcome, slo, duration_ms) = match spec.target {
        Target::Faults(faults) => {
            let entry = registry::find("chaos").expect("chaos is a registry entry");
            let (result, slo) = registry::chaos(faults, &knobs);
            (Outcome::Chaos(result), slo, entry.duration(&knobs))
        }
        Target::Scenario(sc) => {
            let run = sc.run(&knobs).map_err(|e| e.to_string())?;
            (Outcome::Report(run.report), Some(run.slo), sc.duration(&knobs))
        }
        Target::ScaleFleet => {
            let duration = spec.duration_ms.unwrap_or(PROFILE_FLEET_DURATION_MS);
            let mut sim = scale_fleet_builder(PROFILE_FLEET_K, duration, spec.seed, obs.clone())
                .build()
                .map_err(|e| e.to_string())?;
            (Outcome::Report(sim.run()), None, duration)
        }
    };
    Ok(Run { target: spec.target, obs, outcome, slo, duration_ms })
}

/// Resolve a scenario name, listing the registry (plus `extra` targets
/// and where to read more) when it is unknown.
pub fn find_scenario(name: &str, extra: &str, hint: &str) -> Result<&'static Scenario, String> {
    registry::find(name).ok_or_else(|| {
        let names: Vec<&str> = registry::all().iter().map(|s| s.name).collect();
        format!("unknown scenario {name:?} (have: {}{extra}; {hint})", names.join(", "))
    })
}

/// Write a profile artefact to `path`; returns the line that says so.
pub fn write_profile(path: &str, artefact: &str) -> Result<String, String> {
    std::fs::write(path, artefact).map_err(|e| format!("profile write to {path} failed: {e}"))?;
    Ok(format!("profile written to {path}\n"))
}

/// Write `obs`'s post-mortem dump (its trace's tail) to `path` (when
/// one was given); returns what happened.
pub fn write_postmortem(reason: &str, obs: &ObsHandle, path: Option<&str>) -> Option<String> {
    let path = path?;
    let dump = obs.post_mortem(reason)?;
    Some(match std::fs::write(path, &dump) {
        Ok(()) => format!("postmortem written to {path}"),
        Err(e) => format!("postmortem write to {path} failed: {e}"),
    })
}
