//! `dustctl` subcommand implementations, testable independently of the
//! process entry point: each takes a parsed [`Nmdb`] plus options and
//! returns the text to print.

use crate::run::{
    find_scenario, run, write_postmortem, write_profile, Outcome, Run, RunSpec, Target,
    PROFILE_FLEET_DURATION_MS, PROFILE_FLEET_K,
};
use dust::prelude::*;

/// Threshold/routing options shared by all commands.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Busy threshold `C_max`.
    pub c_max: f64,
    /// Candidate threshold `CO_max`.
    pub co_max: f64,
    /// Minimum utilization `x_min`.
    pub x_min: f64,
    /// Hop bound for controllable routes.
    pub max_hop: Option<usize>,
    /// Worker threads pricing `T_rmin` rows (0 = one per core).
    pub threads: usize,
}

impl Default for Options {
    fn default() -> Self {
        let d = DustConfig::paper_defaults();
        Options { c_max: d.c_max, co_max: d.co_max, x_min: d.x_min, max_hop: None, threads: 0 }
    }
}

impl Options {
    /// Materialize the [`DustConfig`], validating thresholds.
    pub fn config(&self) -> Result<DustConfig, String> {
        let cfg = DustConfig::paper_defaults()
            .with_thresholds(self.c_max, self.co_max, self.x_min)
            .with_max_hop(self.max_hop);
        cfg.validate()?;
        Ok(cfg)
    }

    /// A fresh cost engine pricing with `--threads` workers.
    fn engine(&self) -> CostEngine {
        CostEngine::with_threads(self.threads)
    }
}

/// Options for `dustctl sim` (the chaos testbed run).
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Drop probability applied in both directions.
    pub loss: f64,
    /// Duplication probability applied in both directions.
    pub dup: f64,
    /// Base propagation delay per message, ms.
    pub delay_ms: u64,
    /// Extra uniform delay in `0..=jitter`, ms (reorders when large).
    pub jitter_ms: u64,
    /// Simulated duration, ms. `None` runs the target's default: the
    /// `chaos` entry's 120 000 ms for a fault run, a scenario's own
    /// otherwise.
    pub duration_ms: Option<u64>,
    /// Master seed.
    pub seed: u64,
    /// Sweep the canned loss ladder instead of one `--loss` run.
    pub sweep: bool,
    /// Append the recorded metrics in text form.
    pub metrics: bool,
    /// Append the recorded metrics (plus trace digest) as JSON — stable
    /// byte-for-byte per seed, so CI can diff two runs.
    pub metrics_json: bool,
    /// Append the metrics as a Prometheus-style text exposition.
    pub metrics_prom: bool,
    /// SLO spec evaluated online during each run, e.g.
    /// `convergence<=15000,retransmit_rate<=0.25`. Any breach makes
    /// [`cmd_sim`] report `slo_breached` so `main` can exit 1.
    pub slo: Option<String>,
    /// Where to write the trace's post-mortem dump if a sim
    /// invariant breaks or a scenario breaches its SLO.
    pub postmortem: Option<String>,
    /// Deliberately corrupt the first run's agent census after the fact
    /// so the invariant check (and post-mortem path) demonstrably fires.
    pub inject_breach: bool,
    /// Run a named registry scenario instead of the chaos ladder
    /// (`--scenario help` lists the registry). Mutually exclusive with
    /// the fault flags, `--sweep`, and `--inject-breach`.
    pub scenario: Option<String>,
    /// Write the hierarchical wall-clock profile (folded stacks plus the
    /// top self-time table) to this path after the run. Scope *counts*
    /// in the artifact are deterministic per seed; durations are
    /// wall-clock and never leak into `--metrics-json` or the digest.
    pub profile: Option<String>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            loss: 0.0,
            dup: 0.0,
            delay_ms: 0,
            jitter_ms: 0,
            duration_ms: None,
            seed: 0,
            sweep: false,
            metrics: false,
            metrics_json: false,
            metrics_prom: false,
            slo: None,
            postmortem: None,
            inject_breach: false,
            scenario: None,
            profile: None,
        }
    }
}

impl SimOptions {
    fn validate(&self) -> Result<(), String> {
        for (flag, p) in [("--loss", self.loss), ("--dup", self.dup)] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{flag} must lie in [0, 1], got {p}"));
            }
        }
        if self.duration_ms == Some(0) {
            return Err("--duration must be positive".into());
        }
        Ok(())
    }

    /// The registry listing, when `--scenario help` (or `list`) asks for it.
    fn scenario_help(&self) -> Option<String> {
        let name = self.scenario.as_deref()?;
        if name != "help" && name != "list" {
            return None;
        }
        let mut out = String::from("named scenarios (dustctl sim --scenario <name>):\n\n");
        for sc in registry::all() {
            out.push_str(&format!(
                "  {:<12} {}\n               default {} s, slo {}\n",
                sc.name,
                sc.summary,
                sc.default_duration_ms / 1000,
                sc.slo_spec,
            ));
        }
        Some(out)
    }

    /// The runs this invocation names. The fault model comes from exactly
    /// one source — `--scenario`, `--sweep`, or the fault flags (all zero
    /// = a perfect wire) — and any mix is an error.
    fn run_specs(&self) -> Result<Vec<RunSpec>, String> {
        let flags = FaultProfile {
            drop: self.loss,
            duplicate: self.dup,
            delay_ms: self.delay_ms,
            jitter_ms: self.jitter_ms,
        };
        let own_model = |what: &str| {
            Err(format!("{what} carries its own fault model: drop --loss/--dup/--delay/--jitter"))
        };
        let targets = match &self.scenario {
            Some(name) => {
                let sc = find_scenario(name, "", "--scenario help describes them")?;
                if !flags.is_ideal() {
                    return own_model(&format!("scenario {}", sc.name));
                }
                if self.sweep || self.inject_breach {
                    return Err("--sweep/--inject-breach apply to the chaos ladder, \
                                not --scenario runs"
                        .into());
                }
                vec![Target::Scenario(sc)]
            }
            None if self.sweep => {
                if !flags.is_ideal() {
                    return own_model("--sweep");
                }
                let rung = |p| Target::Faults(FaultProfile::chaos(p));
                [0.0, 0.05, 0.1, 0.2, 0.4].map(rung).to_vec()
            }
            None => vec![Target::Faults(flags)],
        };
        let slo = self.slo.as_deref().map(SloSpec::parse).transpose()?;
        let run_spec = |target| RunSpec {
            target,
            seed: self.seed,
            duration_ms: self.duration_ms,
            slo: slo.clone(),
            profile: self.profile.is_some(),
        };
        Ok(targets.into_iter().map(run_spec).collect())
    }

    /// The single recorded run `trace` and `spans` analyze.
    fn run_recorded(&self, what: &str) -> Result<Run, String> {
        self.validate()?;
        if self.sweep {
            return Err(format!("{what} a single run; drop --sweep"));
        }
        run(&self.run_specs()?[0])
    }
}

/// What one `dustctl sim` invocation produced: the rendered report plus
/// whether any SLO rule fired (so `main` can print *and* exit 1 — a
/// breach is a finding, not an error that should eat the output).
#[derive(Debug, Clone)]
pub struct SimRun {
    /// The text to print.
    pub output: String,
    /// True when an `--slo` rule breached in any run.
    pub slo_breached: bool,
}

/// `dustctl sim`: chaos-run the Fig. 5 testbed under the fault flags (or
/// the `--sweep` ladder) and report what the retry/expiry machinery did
/// about it, or run one `--scenario` registry entry under its attached
/// SLO spec. A fault run exits nonzero (via `Err`) if a conservation
/// invariant breaks — the whole point of the command is that it never
/// should. SLO breaches (`--slo`, or a scenario's own spec) land in the
/// report and the JSON and flip [`SimRun::slo_breached`]: a finding, so
/// the report is still printed.
pub fn cmd_sim(opts: &SimOptions) -> Result<SimRun, String> {
    opts.validate()?;
    if let Some(output) = opts.scenario_help() {
        return Ok(SimRun { output, slo_breached: false });
    }
    let mut runs = opts.run_specs()?.iter().map(run).collect::<Result<Vec<Run>, String>>()?;
    if opts.inject_breach {
        // simulate the unthinkable: an agent vanished (testing the
        // invariant check and the post-mortem machinery end to end)
        if let Outcome::Chaos(r) = &mut runs[0].outcome {
            r.agents_present = r.agents_present.saturating_sub(1);
        }
    }
    let mut out = match runs[0].target {
        Target::Scenario(sc) => scenario_report(sc, &runs[0], opts),
        _ => chaos_report(&runs, opts)?,
    };
    for r in &runs {
        let label = r.target.label();
        if opts.metrics {
            out.push_str(&format!(
                "\n-- metrics ({label}, seed {}, digest {:016x}) --\n{}",
                opts.seed,
                r.obs.digest().expect("recording handle"),
                r.obs.metrics().expect("recording handle").to_text()
            ));
        }
        if opts.metrics_prom {
            out.push_str(&format!(
                "\n-- prometheus ({label}, seed {}) --\n{}",
                opts.seed,
                r.obs.metrics().expect("recording handle").to_prometheus()
            ));
        }
    }
    if opts.metrics_json {
        for r in &runs {
            let breaches = r.slo.as_ref().map_or(String::new(), |e| {
                let lines: Vec<String> =
                    e.breaches().iter().map(|b| format!("\"{}\"", b.to_line())).collect();
                format!(",\"slo_breaches\":[{}]", lines.join(","))
            });
            out.push_str(&format!(
                "{{{},\"seed\":{},\"digest\":\"{:016x}\"{breaches},\"metrics\":{}}}\n",
                r.target.json_head(),
                opts.seed,
                r.obs.digest().expect("recording handle"),
                r.obs.metrics().expect("recording handle").to_json()
            ));
        }
    }
    if let Some(path) = opts.profile.as_deref() {
        let artefact: String = runs
            .iter()
            .map(|r| {
                let report = r.obs.profile_report().expect("profiling was enabled");
                format!("# run: {}\n{report}", r.target.label())
            })
            .collect();
        out.push('\n');
        out.push_str(&write_profile(path, &artefact)?);
    }
    Ok(SimRun { output: out, slo_breached: runs.iter().any(Run::breached) })
}

/// The fault-run half of `sim`'s report: the table, the invariant audit
/// (a violation is the `Err`, with the post-mortem dump written to
/// `--postmortem`), and one SLO section per watched run.
fn chaos_report(runs: &[Run], opts: &SimOptions) -> Result<String, String> {
    let results: Vec<ChaosResult> = runs
        .iter()
        .map(|run| match run.outcome {
            Outcome::Chaos(r) => r,
            Outcome::Report(_) => unreachable!("fault runs produce a ChaosResult"),
        })
        .collect();
    let mut out = format!(
        "testbed chaos run: {:.0}s simulated, seed {}\n\n{}",
        runs[0].duration_ms as f64 / 1000.0,
        opts.seed,
        crate::format::render_chaos(&results)
    );
    for (r, run) in results.iter().zip(runs) {
        let violated = if r.agents_present != r.agents_expected {
            Some(format!(
                "loss {:.0}%: {} of {} monitor agents lost — conservation broken",
                r.loss * 100.0,
                r.agents_expected - r.agents_present.min(r.agents_expected),
                r.agents_expected
            ))
        } else if !r.ledgers_consistent {
            Some(format!("loss {:.0}%: ledgers diverged", r.loss * 100.0))
        } else if r.unconfirmed_stale > 0 {
            Some(format!(
                "loss {:.0}%: {} unconfirmed offers leaked past the retry budget",
                r.loss * 100.0,
                r.unconfirmed_stale
            ))
        } else {
            None
        };
        if let Some(msg) = violated {
            return Err(match write_postmortem(&msg, &run.obs, opts.postmortem.as_deref()) {
                Some(note) => format!("{msg} ({note})"),
                None => msg,
            });
        }
    }
    out.push_str("\ninvariants: agents conserved, ledgers consistent, no leaked offers\n");
    for run in runs {
        if let Some(engine) = &run.slo {
            out.push_str(&format!("\n-- slo ({}) --\n{}", run.target.label(), engine.report()));
        }
    }
    Ok(out)
}

/// The scenario half of `sim`'s report: what ran, the transfer summary,
/// the SLO verdict and — on a breach, with `--postmortem` — the
/// post-mortem dump.
fn scenario_report(sc: &Scenario, run: &Run, opts: &SimOptions) -> String {
    let Outcome::Report(r) = &run.outcome else {
        unreachable!("scenario runs produce a SimReport")
    };
    let slo = run.slo.as_ref().expect("scenario runs are always watched");
    let mut out = format!(
        "scenario {}: {}\n{:.0}s simulated, seed {}, slo {}\n\n",
        sc.name,
        sc.summary,
        run.duration_ms as f64 / 1000.0,
        opts.seed,
        opts.slo.as_deref().unwrap_or(sc.slo_spec),
    );
    out.push_str(&format!(
        "transfers {} | replicas {} | msgs {} (dropped {}, duplicated {}) | \
         retries {} | abandoned {}\n",
        r.transfers_applied,
        r.replicas_applied,
        r.msgs_sent,
        r.msgs_dropped,
        r.msgs_duplicated,
        r.offer_retries,
        r.offers_abandoned,
    ));
    out.push_str(&match r.first_transfer_ms {
        Some(t) => format!("first transfer at {t} ms\n"),
        None => "no transfer landed\n".to_string(),
    });
    out.push_str(&format!("\n-- slo --\n{}", slo.report()));
    if run.breached() {
        let msg = format!("scenario {} breached its SLO", sc.name);
        if let Some(note) = write_postmortem(&msg, &run.obs, opts.postmortem.as_deref()) {
            out.push_str(&format!("\n{note}\n"));
        }
    }
    out
}

/// `dustctl trace`: run one fault profile or `--scenario` with the trace
/// recorder on and print the event census plus the run's digest — or,
/// with `full`, the entire decoded event log. Two invocations with the
/// same flags print byte-identical output; that is the feature.
///
/// The full dump *streams* into `out` one event at a time (traces grow
/// with duration; a two-minute chaos run is tens of thousands of lines),
/// so no run-length buffer is ever materialized.
pub fn cmd_trace(
    opts: &SimOptions,
    full: bool,
    out: &mut dyn std::io::Write,
) -> Result<(), String> {
    if let Some(help) = opts.scenario_help() {
        return out.write_all(help.as_bytes()).map_err(|e| format!("writing help: {e}"));
    }
    let run = opts.run_recorded("trace records")?;
    let trace = run.obs.trace_snapshot().expect("recording handle");
    if full {
        return trace.write_text(out).map_err(|e| format!("writing trace: {e}"));
    }
    let mut by_kind: std::collections::BTreeMap<&'static str, u64> =
        std::collections::BTreeMap::new();
    for e in trace.entries() {
        *by_kind.entry(e.event.kind()).or_insert(0) += 1;
    }
    let mut text = format!(
        "trace: seed {}, {}, {} events, digest {:016x}\n",
        opts.seed,
        run.target.label(),
        trace.len(),
        trace.digest()
    );
    for (kind, n) in by_kind {
        text.push_str(&format!("  {kind:<18} {n}\n"));
    }
    out.write_all(text.as_bytes()).map_err(|e| format!("writing census: {e}"))
}

/// `dustctl spans`: run one fault profile or `--scenario`, reconstruct
/// every flow's causal span tree, and print a per-flow table, per-phase
/// p50/p99 latencies, and the critical-path breakdown. `flow` narrows the
/// table to one transfer's request id; `phase` narrows the latency table
/// to one phase name. Byte-identical per seed, like everything else here.
pub fn cmd_spans(
    opts: &SimOptions,
    flow: Option<u64>,
    phase: Option<&str>,
) -> Result<String, String> {
    if let Some(help) = opts.scenario_help() {
        return Ok(help);
    }
    let run = opts.run_recorded("spans analyzes")?;
    let trace = run.obs.trace_snapshot().expect("recording handle");
    let forest = build_spans(&trace);
    let (t, reg, p) = forest.kind_counts();
    let mut out = format!(
        "spans: seed {}, {}, {} events → {} flows \
         ({t} transfers, {reg} registrations, {p} rounds), \
         unflowed {}, orphan events {}\n\n",
        opts.seed,
        run.target.label(),
        forest.total_events,
        forest.flows.len(),
        forest.unflowed_events,
        forest.orphan_events,
    );

    out.push_str("flow    outcome      start_ms  dur_ms  events  backoffs  phases\n");
    for f in &forest.flows {
        if let Some(want) = flow {
            if f.flow != FlowId::Transfer(want) {
                continue;
            }
        }
        let phases: Vec<String> =
            f.phases.iter().map(|s| format!("{}={}ms", s.name, s.dur_ms())).collect();
        out.push_str(&format!(
            "{:<7} {:<12} {:>8}  {:>6}  {:>6}  {:>8}  {}{}\n",
            f.flow.to_string(),
            f.outcome.name(),
            f.root.start_ms,
            f.root.dur_ms(),
            f.events,
            f.backoffs.len(),
            phases.join(" "),
            if f.complete { "" } else { "  [INCOMPLETE]" },
        ));
    }

    let hists = forest.phase_histograms();
    out.push_str("\nphase latency (ms):\nphase         count    p50    p99\n");
    for (name, h) in &hists {
        if let Some(want) = phase {
            if *name != want {
                continue;
            }
        }
        let q = |q: f64| h.quantile(q).map_or("-".into(), |v| format!("{v:.1}"));
        out.push_str(&format!("{name:<12} {:>6}  {:>5}  {:>5}\n", h.count(), q(0.5), q(0.99)));
    }

    let cp = forest.critical_path();
    let total: u64 = cp.iter().map(|(_, ms, _)| ms).sum();
    out.push_str("\ncritical path (share of total phase time):\n");
    for (name, ms, n) in &cp {
        let share = if total > 0 { 100.0 * *ms as f64 / total as f64 } else { 0.0 };
        out.push_str(&format!("  {name:<12} {ms:>7} ms over {n:>3} span(s)  {share:5.1}%\n"));
    }
    Ok(out)
}

fn route_string(a: &Assignment) -> String {
    match &a.route {
        Some(r) => r.nodes.iter().map(|n| n.0.to_string()).collect::<Vec<_>>().join("→"),
        None => "?".into(),
    }
}

/// `dustctl roles`: classify every node.
pub fn roles(nmdb: &Nmdb, opts: &Options) -> Result<String, String> {
    let cfg = opts.config()?;
    let mut out = format!(
        "thresholds: C_max {} / CO_max {} / x_min {} (delta_io {:.2})\n",
        cfg.c_max,
        cfg.co_max,
        cfg.x_min,
        cfg.delta_io()
    );
    for n in nmdb.graph.nodes() {
        let s = nmdb.state(n);
        let role = nmdb.role(n, &cfg);
        let extra = match role {
            Role::Busy => format!("  Cs = {:.1}", nmdb.cs(n, &cfg)),
            Role::OffloadCandidate => format!("  Cd = {:.1}", nmdb.cd(n, &cfg)),
            _ => String::new(),
        };
        out.push_str(&format!(
            "node {:>4}  util {:6.1}%  D {:8.1} Mb  {:?}{}\n",
            n.0, s.utilization, s.data_mb, role, extra
        ));
    }
    out.push_str(&format!(
        "totals: Cs = {:.1}, Cd = {:.1}{}\n",
        nmdb.total_cs(&cfg),
        nmdb.total_cd(&cfg),
        if nmdb.total_cs(&cfg) > nmdb.total_cd(&cfg) { "  (capacity precheck FAILS)" } else { "" }
    ));
    Ok(out)
}

/// `dustctl optimize`: the exact placement, with routes.
///
/// Infeasible placements surface as `Err` (typed by [`DustError`]'s
/// message) so the process exits nonzero, letting scripts branch on the
/// outcome.
pub fn cmd_optimize(nmdb: &Nmdb, opts: &Options) -> Result<String, String> {
    let cfg = opts.config()?;
    let mut engine = opts.engine();
    let p = optimize_with(nmdb, &cfg, &mut engine, None).map_err(|e| e.to_string())?;
    if p.status == PlacementStatus::Infeasible {
        let e = infeasible_cause(nmdb, &cfg, &mut engine, &p);
        let hint = match e {
            DustError::NoPathWithinHops => "raise --max-hop",
            _ => "raise CO_max / max-hop, or add capacity",
        };
        return Err(format!("{e}; {hint}"));
    }
    let mut out = format!("status: {:?}\n", p.status);
    if p.status == PlacementStatus::NoBusyNodes {
        out.push_str("no node exceeds C_max; nothing to offload\n");
        return Ok(out);
    }
    out.push_str(&format!(
        "beta = {:.6} s·%, total offloaded = {:.1}%, mean hops = {}\n",
        p.beta,
        p.total_offloaded(),
        p.mean_hops().map_or("n/a".into(), |h| format!("{h:.2}")),
    ));
    for a in &p.assignments {
        out.push_str(&format!(
            "  move {:6.2}% from {} to {}  (T_rmin {:.6}s, route {})\n",
            a.amount,
            a.from.0,
            a.to.0,
            a.t_rmin,
            route_string(a)
        ));
    }
    // capacity worth buying: most negative shadow prices first
    let mut prices = p.shadow_prices.clone();
    prices.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let binding: Vec<String> = prices
        .iter()
        .take_while(|(_, v)| *v < -1e-12)
        .take(3)
        .map(|(n, v)| format!("node {} ({:+.5})", n.0, v))
        .collect();
    if !binding.is_empty() {
        out.push_str(&format!(
            "  capacity worth upgrading (shadow prices): {}\n",
            binding.join(", ")
        ));
    }
    Ok(out)
}

/// `dustctl heuristic`: Algorithm 1 (optionally with extended reach).
pub fn cmd_heuristic(nmdb: &Nmdb, opts: &Options, hops: usize) -> Result<String, String> {
    let cfg = opts.config()?;
    if hops == 0 {
        return Err("--hops must be at least 1".into());
    }
    let h = heuristic_with(nmdb, &cfg, hops, &mut opts.engine()).map_err(|e| e.to_string())?;
    let mut out = format!(
        "placed {:.1} of {:.1} capacity-% within {} hop(s); HFR = {:.2}%\n",
        h.total_cs - h.total_cse,
        h.total_cs,
        hops,
        h.hfr_percent()
    );
    for a in &h.assignments {
        out.push_str(&format!(
            "  move {:6.2}% from {} to {}  (Tr {:.6}s, route {})\n",
            a.amount,
            a.from.0,
            a.to.0,
            a.t_rmin,
            route_string(a)
        ));
    }
    for (n, r) in &h.residual {
        out.push_str(&format!("  UNPLACED {:.2}% on node {}\n", r, n.0));
    }
    Ok(out)
}

/// `dustctl dot`: render the network (roles colored, busy nodes red,
/// candidates green) and the optimizer's chosen routes as Graphviz.
pub fn cmd_dot(nmdb: &Nmdb, opts: &Options) -> Result<String, String> {
    use dust::topology::{placement_to_dot, NodeStyle};
    let cfg = opts.config()?;
    let styles: Vec<NodeStyle> = nmdb
        .graph
        .nodes()
        .map(|n| {
            let s = nmdb.state(n);
            let fill = match nmdb.role(n, &cfg) {
                Role::Busy => Some("tomato".to_string()),
                Role::OffloadCandidate => Some("palegreen".to_string()),
                Role::Neutral => Some("lightyellow".to_string()),
                Role::NonOffloading => Some("lightgray".to_string()),
            };
            NodeStyle { label: Some(format!("{:.0}%", s.utilization)), fill }
        })
        .collect();
    // an infeasible outcome is data: the graph still renders, just without
    // a route overlay
    let p = optimize_with(nmdb, &cfg, &mut opts.engine(), None).map_err(|e| e.to_string())?;
    let routes: Vec<_> = p.assignments.iter().filter_map(|a| a.route.clone()).collect();
    Ok(placement_to_dot(&nmdb.graph, "dust", &styles, &routes))
}

/// Options for `dustctl place`: single or batched placement rounds,
/// optionally over a generated fat-tree.
#[derive(Debug, Clone)]
pub struct PlaceOptions {
    /// Shared threshold/routing options.
    pub base: Options,
    /// Generate a k-port fat-tree instead of reading a network-state file.
    pub fat_tree: Option<usize>,
    /// Placement rounds to run back-to-back (throughput mode when > 1).
    pub batch: usize,
    /// Seed for generated states (round `i` uses `seed + i`).
    pub seed: u64,
    /// Write the solver-side wall-clock profile (cost-matrix pricing, LP
    /// solve, route extraction) to this path.
    pub profile: Option<String>,
    /// Steady-state mode: freeze the node states at round 0, drift link
    /// utilizations between rounds, and warm-start each solve from the
    /// previous round's spanning-tree bases.
    pub warm: bool,
}

impl Default for PlaceOptions {
    fn default() -> Self {
        PlaceOptions {
            base: Options::default(),
            fat_tree: None,
            batch: 1,
            seed: 0,
            profile: None,
            warm: false,
        }
    }
}

/// Seeded link drift for `--warm` steady-state rounds: retune an eighth
/// of the links' utilizations, leaving node states (and so the
/// busy/candidate sets) fixed so the previous round's bases stay
/// offerable. Mutating through `link_mut` journals the touched links,
/// which lets the batch's cost engine re-price only the crossing rows.
fn drift_links(g: &mut Graph, seed: u64, round: u64) {
    use dust::topology::EdgeId;
    let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let edges = g.edge_count() as u64;
    for _ in 0..(edges / 8 + 1) {
        let e = EdgeId(rng.below(edges) as u32);
        g.link_mut(e).utilization = rng.range_f64(0.05, 0.95);
    }
}

/// The most memory `--fat-tree K`'s links may ask for up front: 1 GiB
/// admits K ≤ 406 (the paper's largest fat-tree has K = 64).
const FAT_TREE_LINK_BYTES: u64 = 1 << 30;

/// The k-port fat-tree `--fat-tree K` asks for. `K` is rejected before
/// anything is built when it is odd, below 2, or so large that its `5K²/4`
/// switches would overflow the `u32` behind a node id, its `K³/2` links
/// the `u32` behind a link id, or the links' storage — one edge record
/// each, and its id in both ends' lists — [`FAT_TREE_LINK_BYTES`]: the
/// generator reserves all of it up front.
fn fat_tree_graph(k: usize) -> Result<Graph, String> {
    use dust::topology::{Edge, EdgeId};
    if k < 2 || !k.is_multiple_of(2) {
        return Err(format!("--fat-tree needs an even K >= 2, got {k}"));
    }
    let switches = k.checked_mul(k).and_then(|k2| (k2 / 4).checked_mul(5));
    if switches.is_none_or(|n| n > u32::MAX as usize) {
        return Err(format!("--fat-tree {k} has more switches than node ids"));
    }
    // ids run 0..=u32::MAX, so there are 2^32 of them
    let links = k.checked_mul(k).and_then(|k2| k2.checked_mul(k / 2));
    let Some(links) = links.filter(|&l| l as u64 <= u64::from(u32::MAX) + 1) else {
        return Err(format!("--fat-tree {k} has more links than link ids"));
    };
    let per_link = std::mem::size_of::<Edge>() + 2 * std::mem::size_of::<EdgeId>();
    let bytes = links as u64 * per_link as u64;
    if bytes > FAT_TREE_LINK_BYTES {
        return Err(format!(
            "--fat-tree {k} needs {bytes} bytes for its links, over the {FAT_TREE_LINK_BYTES}-byte \
             ceiling"
        ));
    }
    Ok(FatTree::with_default_links(k).graph)
}

/// FNV-1a over every assignment's route, in placement order: its node
/// ids, then its edge ids, little-endian; an assignment without a route
/// hashes one `0xff` byte.
fn route_digest(assignments: &[Assignment]) -> u64 {
    let fnv = |h: u64, bytes: &[u8]| {
        bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
    };
    assignments.iter().fold(0xcbf2_9ce4_8422_2325, |h, a| match &a.route {
        Some(p) => {
            let h = p.nodes.iter().fold(h, |h, n| fnv(h, &n.0.to_le_bytes()));
            p.edges.iter().fold(h, |h, e| fnv(h, &e.0.to_le_bytes()))
        }
        None => fnv(h, &[0xff]),
    })
}

/// `dustctl place`: run exact placement rounds — from a file or a
/// generated fat-tree — reporting solve throughput (rounds/sec). With
/// `--warm` the batch becomes one steady-state instance whose links drift
/// between rounds: node states freeze at round 0 (keeping the
/// busy/candidate sets fixed), one cost engine re-prices only rows
/// crossing drifted links, and each solve warm-starts from the previous
/// round's basis.
pub fn cmd_place(file_nmdb: Option<&Nmdb>, opts: &PlaceOptions) -> Result<String, String> {
    let cfg = opts.base.config()?;
    if opts.batch == 0 {
        return Err("--batch must be at least 1".into());
    }
    let generated_graph = match (file_nmdb, opts.fat_tree) {
        (None, Some(k)) => Some(fat_tree_graph(k)?),
        (None, None) => return Err("place needs a <file> or --fat-tree K".into()),
        (Some(_), Some(_)) => return Err("give either a <file> or --fat-tree, not both".into()),
        (Some(_), None) => None,
    };

    // --warm reads the lp.* warm counters back, so it records even
    // without --profile (profiling itself stays opt-in).
    let obs = if opts.profile.is_some() || opts.warm {
        let o = ObsHandle::recording(opts.seed);
        if opts.profile.is_some() {
            o.enable_profiling();
        }
        o
    } else {
        ObsHandle::disabled()
    };
    let params = ScenarioParams::default();
    let make_nmdb = |round: u64| -> Option<Nmdb> {
        generated_graph
            .as_ref()
            .map(|g| random_nmdb(g, &cfg, &params, opts.seed.wrapping_add(round)))
    };

    // The steady-state instance `--warm` drifts in place; rounds without
    // `--warm` re-generate states per round instead.
    let mut steady: Option<Nmdb> = if opts.warm {
        Some(match file_nmdb {
            Some(db) => db.clone(),
            None => make_nmdb(0).expect("generated path has a graph"),
        })
    } else {
        None
    };
    // `--warm` prices every round through this one engine; a cold round
    // gets a fresh engine of its own, so its cache never grows
    let mut engine = opts.base.engine().with_obs(obs.clone());

    let mut out = String::new();
    let mut optimal = 0usize;
    let mut no_busy = 0usize;
    let mut infeasible = 0usize;
    let mut warm_rounds = 0usize;
    let mut beta_sum = 0.0f64;

    let started = std::time::Instant::now();
    let mut last: Option<Placement> = None;
    for round in 0..opts.batch as u64 {
        let storage;
        let nmdb: &Nmdb = match (&mut steady, file_nmdb) {
            (Some(db), _) => {
                if round > 0 {
                    let graph = std::sync::Arc::make_mut(&mut db.graph);
                    drift_links(graph, opts.seed, round);
                    let dirty = graph.take_dirty();
                    engine.refresh(graph, dirty);
                }
                db
            }
            (None, Some(db)) => db,
            (None, None) => {
                storage = make_nmdb(round).expect("generated path has a graph");
                &storage
            }
        };
        let mut fresh;
        let (round_engine, warm) = if opts.warm {
            (&mut engine, last.as_ref().map(|pl| &pl.warm))
        } else {
            fresh = opts.base.engine().with_obs(obs.clone());
            (&mut fresh, None)
        };
        let p = optimize_with(nmdb, &cfg, round_engine, warm).map_err(|e| e.to_string())?;
        if p.warm_used {
            warm_rounds += 1;
        }
        match p.status {
            PlacementStatus::Optimal => {
                optimal += 1;
                beta_sum += p.beta;
            }
            PlacementStatus::NoBusyNodes => no_busy += 1,
            PlacementStatus::Infeasible => infeasible += 1,
        }
        last = Some(p);
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);

    let p = last.expect("batch >= 1 always solves at least once");
    let nodes = file_nmdb
        .map(|db| db.graph.node_count())
        .or_else(|| generated_graph.as_ref().map(|g| g.node_count()))
        .unwrap_or(0);
    out.push_str(&format!(
        "place: {} round(s) on {} nodes, threads = {}\n",
        opts.batch,
        nodes,
        if opts.base.threads == 0 { "auto".to_string() } else { opts.base.threads.to_string() },
    ));
    if opts.batch == 1 {
        out.push_str(&format!("status: {:?}\n", p.status));
        if p.status == PlacementStatus::Optimal {
            out.push_str(&format!(
                "beta = {:.6} s·%, total offloaded = {:.1}%, assignments = {}\n",
                p.beta,
                p.total_offloaded(),
                p.assignments.len(),
            ));
            out.push_str(&format!("route digest = {:#018x}\n", route_digest(&p.assignments)));
        }
    } else {
        out.push_str(&format!(
            "outcomes: optimal = {optimal}, no-busy = {no_busy}, infeasible = {infeasible}\n"
        ));
        if optimal > 0 {
            out.push_str(&format!("mean beta = {:.6} s·%\n", beta_sum / optimal as f64));
        }
    }
    out.push_str(&format!(
        "throughput: {:.1} rounds/sec ({:.3} s total)\n",
        opts.batch as f64 / elapsed,
        elapsed,
    ));
    if opts.warm {
        out.push_str(&format!(
            "warm starts: {} of {} solved round(s) reused bases; pivots warm = {}, \
             cold = {}, saved = {}\n",
            warm_rounds,
            opts.batch,
            obs.counter("lp.warm_pivots"),
            obs.counter("lp.cold_pivots"),
            obs.counter("lp.pivots_saved"),
        ));
        out.push_str(&format!(
            "cost refresh: {} incremental, {} full invalidation(s), rows migrated = {}, \
             invalidated = {}\n",
            obs.counter("cost.refreshes").saturating_sub(obs.counter("cost.full_invalidations")),
            obs.counter("cost.full_invalidations"),
            obs.counter("cost.rows_migrated"),
            obs.counter("cost.rows_invalidated"),
        ));
    }
    if let Some(path) = opts.profile.as_deref() {
        let report = obs.profile_report().expect("profiling was enabled");
        out.push_str(&write_profile(path, &report)?);
    }
    Ok(out)
}

/// Options for `dustctl profile <scenario>`: one profiled run of a named
/// registry scenario (or the `scale_fleet` benchmark fleet) with the
/// wall-clock profiler on from the start.
#[derive(Debug, Clone, Default)]
pub struct ProfileOptions {
    /// Master seed.
    pub seed: u64,
    /// Simulated-duration override, ms (`None` = the scenario default).
    pub duration_ms: Option<u64>,
    /// Write the artifact to this path instead of stdout.
    pub out: Option<String>,
}

/// `dustctl profile <scenario>`: run one named scenario with the
/// hierarchical profiler enabled and emit the folded-stack artifact —
/// scope-count lines first (deterministic per seed; CI byte-diffs them),
/// then wall-clock `self` lines a flamegraph renders, then the top
/// self-time table. `scale_fleet` profiles the benchmark fleet (which is
/// deliberately not in the registry: it has no SLO, it exists to be
/// measured); every other name resolves through [`registry::find`].
pub fn cmd_profile(name: &str, opts: &ProfileOptions) -> Result<String, String> {
    if name == "help" || name == "list" {
        let mut out = String::from("profilable scenarios (dustctl profile <name>):\n\n");
        for sc in registry::all() {
            out.push_str(&format!("  {:<12} {}\n", sc.name, sc.summary));
        }
        out.push_str(&format!(
            "  {:<12} the {}-port benchmark fleet, {} s default\n",
            "scale_fleet",
            PROFILE_FLEET_K,
            PROFILE_FLEET_DURATION_MS / 1000
        ));
        return Ok(out);
    }
    let target = if name == "scale_fleet" {
        Target::ScaleFleet
    } else {
        Target::Scenario(find_scenario(name, ", scale_fleet", "profile help lists them")?)
    };
    let run = run(&RunSpec {
        target,
        seed: opts.seed,
        duration_ms: opts.duration_ms,
        slo: None,
        profile: true,
    })?;
    let Outcome::Report(report) = &run.outcome else {
        unreachable!("scenario and fleet runs produce a SimReport")
    };
    let mut out = format!(
        "profile: {}, seed {}, engine event, {:.0}s simulated, {} events\n",
        match target {
            Target::Scenario(sc) => sc.name.to_string(),
            other => other.label(),
        },
        opts.seed,
        run.duration_ms as f64 / 1000.0,
        report.events_processed,
    );
    let artefact = run.obs.profile_report().expect("profiling was enabled");
    match opts.out.as_deref() {
        Some(path) => out.push_str(&write_profile(path, &artefact)?),
        None => out.push_str(&artefact),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{example_file, parse_nmdb};

    fn fig4() -> Nmdb {
        parse_nmdb(&example_file()).unwrap()
    }

    #[test]
    fn roles_lists_everything() {
        let out = roles(&fig4(), &Options::default()).unwrap();
        assert!(out.contains("Busy"));
        assert!(out.contains("OffloadCandidate"));
        assert!(out.contains("Cs = 12.0"));
        assert!(out.contains("totals:"));
    }

    #[test]
    fn place_single_round_on_a_file() {
        let db = fig4();
        let out = cmd_place(Some(&db), &PlaceOptions::default()).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("rounds/sec"), "{out}");
        assert!(out.contains("total offloaded = 12.0%"), "{out}");
        assert!(out.contains("route digest = 0x"), "{out}");
    }

    #[test]
    fn place_batch_on_a_generated_fat_tree_is_pinned() {
        // CI's smoke instance, solved exactly: every round optimal and the
        // mean objective pinned to the printed digits
        let opts = PlaceOptions { fat_tree: Some(16), batch: 3, seed: 11, ..Default::default() };
        let out = cmd_place(None, &opts).unwrap();
        assert!(out.contains("3 round(s) on 320 nodes"), "{out}");
        assert!(out.contains("outcomes: optimal = 3, no-busy = 0, infeasible = 0"), "{out}");
        assert!(out.contains("mean beta = 22.406774 s·%\n"), "{out}");
    }

    #[test]
    fn place_rejects_contradictory_sources() {
        let db = fig4();
        let opts = PlaceOptions { fat_tree: Some(4), ..Default::default() };
        assert!(cmd_place(Some(&db), &opts).is_err());
        assert!(cmd_place(None, &PlaceOptions::default()).is_err());
        let opts = PlaceOptions { fat_tree: Some(4), batch: 0, ..Default::default() };
        assert!(cmd_place(None, &opts).is_err());
    }

    #[test]
    fn place_rejects_a_fat_tree_it_cannot_build() {
        // odd or tiny K would panic in the generator, and a K whose 5K²/4
        // switches overflow a u32 node id would wrap or exhaust memory; so
        // would one whose K³/2 links outnumber the 2^32 link ids: 2 050 is
        // the smallest such K, 58 616 the largest with few enough switches
        for k in [0, 1, 3, 15, 408, 2_048, 2_050, 58_616, 100_000, usize::MAX] {
            let opts = PlaceOptions { fat_tree: Some(k), ..Default::default() };
            let err = cmd_place(None, &opts).unwrap_err();
            assert!(err.starts_with("--fat-tree"), "k = {k}: {err}");
        }
        // 58 618 is the smallest even K past u32::MAX switches
        assert!(fat_tree_graph(58_618).is_err());
        assert_eq!(fat_tree_graph(2).unwrap().node_count(), 5);
        // ids enough, but more link storage than the ceiling: K³/2 links of
        // 32 bytes (a 24-byte record, a 4-byte id at each end) pass 1 GiB
        // from K = 408. Only rejections are checked: K = 406 would build
        // ≈ 1 GiB of links
        for k in [408, 2_048] {
            let err = fat_tree_graph(k).unwrap_err();
            let bytes = 16 * (k as u64).pow(3);
            assert_eq!(
                err,
                format!(
                    "--fat-tree {k} needs {bytes} bytes for its links, over the 1073741824-byte \
                     ceiling"
                )
            );
        }
    }

    #[test]
    fn place_warm_steady_state_reuses_bases() {
        let opts =
            PlaceOptions { fat_tree: Some(8), batch: 6, seed: 3, warm: true, ..Default::default() };
        let out = cmd_place(None, &opts).unwrap();
        assert!(out.contains("warm starts:"), "{out}");
        // node states freeze at round 0, so every later round's bases match
        assert!(out.contains("warm starts: 5 of 6"), "{out}");
        assert!(out.contains("cost refresh:"), "{out}");
    }

    #[test]
    fn optimize_prints_route() {
        let out = cmd_optimize(&fig4(), &Options::default()).unwrap();
        assert!(out.contains("status: Optimal"), "{out}");
        assert!(out.contains("move  12.00% from 0"), "{out}");
        assert!(out.contains("route 0→2→"), "{out}");
    }

    #[test]
    fn heuristic_reports_failure_on_fig4() {
        // S1's only neighbor is the relay S3 (65 %) — one hop finds nothing
        let out = cmd_heuristic(&fig4(), &Options::default(), 1).unwrap();
        assert!(out.contains("HFR = 100.00%"), "{out}");
        assert!(out.contains("UNPLACED"), "{out}");
        // two hops reach S2/S6
        let out2 = cmd_heuristic(&fig4(), &Options::default(), 2).unwrap();
        assert!(out2.contains("HFR = 0.00%"), "{out2}");
    }

    #[test]
    fn dot_renders_roles_and_routes() {
        let out = cmd_dot(&fig4(), &Options::default()).unwrap();
        assert!(out.starts_with("graph dust {"), "{out}");
        assert!(out.contains("tomato"), "busy node colored");
        assert!(out.contains("palegreen"), "candidates colored");
        assert!(out.contains("color=red"), "route overlay present");
    }

    #[test]
    fn invalid_options_surface_errors() {
        let o = Options { co_max: 95.0, ..Default::default() }; // co_max above c_max
        assert!(roles(&fig4(), &o).is_err());
        assert!(cmd_heuristic(&fig4(), &Options::default(), 0).is_err());
    }

    #[test]
    fn simplex_and_enumerate_flags_work() {
        // no flag selects a placement solver or a path engine (args.rs
        // pins both old flags as unknown options), so the command line's
        // defaults are the library's
        assert_eq!(Options::default().config(), Ok(DustConfig::paper_defaults()));
    }

    #[test]
    fn sim_lossy_run_reports_invariants() {
        let o = SimOptions {
            loss: 0.2,
            dup: 0.1,
            delay_ms: 20,
            jitter_ms: 100,
            duration_ms: Some(60_000),
            seed: 17,
            ..Default::default()
        };
        let out = cmd_sim(&o).unwrap().output;
        assert!(out.contains("loss%"), "{out}");
        assert!(out.contains("20.0"), "{out}");
        assert!(out.contains("invariants: agents conserved"), "{out}");
    }

    #[test]
    fn sim_sweep_emits_one_row_per_loss_rate() {
        let o =
            SimOptions { sweep: true, duration_ms: Some(30_000), seed: 3, ..Default::default() };
        let out = cmd_sim(&o).unwrap().output;
        // header + five ladder rows + trailing invariant line
        assert_eq!(out.lines().filter(|l| l.ends_with("ok")).count(), 5, "{out}");
    }

    #[test]
    fn sim_metrics_json_is_byte_identical_per_seed() {
        let o = SimOptions {
            loss: 0.2,
            dup: 0.1,
            delay_ms: 20,
            jitter_ms: 100,
            duration_ms: Some(30_000),
            seed: 23,
            metrics_json: true,
            ..Default::default()
        };
        let a = cmd_sim(&o).unwrap().output;
        let b = cmd_sim(&o).unwrap().output;
        assert_eq!(a, b, "metrics JSON must be reproducible byte-for-byte");
        assert!(a.contains("\"digest\":\""), "{a}");
        assert!(a.contains("proto.offers_sent"), "{a}");
    }

    #[test]
    fn sim_metrics_text_includes_transport_counters() {
        let o = SimOptions {
            loss: 0.2,
            duration_ms: Some(30_000),
            seed: 5,
            metrics: true,
            ..Default::default()
        };
        let out = cmd_sim(&o).unwrap().output;
        assert!(out.contains("-- metrics"), "{out}");
        assert!(out.contains("sim.transport.to_manager.sent"), "{out}");
        assert!(out.contains("hist lp."), "solver histograms must record: {out}");
    }

    fn trace_to_string(o: &SimOptions, full: bool) -> Result<String, String> {
        let mut buf = Vec::new();
        cmd_trace(o, full, &mut buf)?;
        Ok(String::from_utf8(buf).expect("trace output is UTF-8"))
    }

    #[test]
    fn trace_census_is_reproducible_and_full_dump_carries_digest() {
        let o = SimOptions { loss: 0.2, duration_ms: Some(30_000), seed: 7, ..Default::default() };
        let a = trace_to_string(&o, false).unwrap();
        let b = trace_to_string(&o, false).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("digest"), "{a}");
        assert!(a.contains("Offer"), "{a}");
        let full = trace_to_string(&o, true).unwrap();
        let digest_line = full.lines().last().unwrap();
        assert!(digest_line.starts_with("digest "), "{digest_line}");
        assert!(trace_to_string(&SimOptions { sweep: true, ..o }, false).is_err());
        // one run path: a scenario traced is the scenario `sim` digests
        for name in ["churn", "int_burst"] {
            let o = SimOptions { scenario: Some(name.into()), seed: 17, ..Default::default() };
            let census = trace_to_string(&o, false).unwrap();
            assert!(census.starts_with(&format!("trace: seed 17, scenario {name}, ")), "{census}");
            let digest = census.lines().next().unwrap().rsplit("digest ").next().unwrap();
            let json = cmd_sim(&SimOptions { metrics_json: true, ..o }).unwrap().output;
            assert!(json.contains(&format!("\"digest\":\"{digest}\"")), "{digest} vs {json}");
        }
    }

    #[test]
    fn spans_reports_complete_flows_and_phase_quantiles() {
        let o = SimOptions { duration_ms: Some(60_000), seed: 42, ..Default::default() };
        let a = cmd_spans(&o, None, None).unwrap();
        let b = cmd_spans(&o, None, None).unwrap();
        assert_eq!(a, b, "span analytics must be byte-identical per seed");
        assert!(a.contains("transfers"), "{a}");
        assert!(a.contains("registered"), "{a}");
        assert!(!a.contains("[INCOMPLETE]"), "perfect wire must yield complete trees: {a}");
        assert!(a.contains("phase latency"), "{a}");
        assert!(a.contains("critical path"), "{a}");
        assert!(a.contains("hosted"), "{a}");
        // --phase narrows the latency table; --flow narrows the flow table
        let only_offer = cmd_spans(&o, None, Some("offer")).unwrap();
        assert!(only_offer.contains("offer"), "{only_offer}");
        assert!(!only_offer.lines().any(|l| l.starts_with("hosted ")), "{only_offer}");
        let only_t1 = cmd_spans(&o, Some(1), None).unwrap();
        assert!(only_t1.contains("t:1"), "{only_t1}");
        assert!(!only_t1.contains("\nn:"), "registrations filtered out: {only_t1}");
        assert!(cmd_spans(&SimOptions { sweep: true, ..o }, None, None).is_err());
        // --scenario names the run here exactly as it does for sim
        let o = SimOptions { scenario: Some("zone_storm".into()), seed: 7, ..Default::default() };
        let storm = cmd_spans(&o, None, None).unwrap();
        assert_eq!(storm, cmd_spans(&o, None, None).unwrap());
        assert!(storm.starts_with("spans: seed 7, scenario zone_storm, "), "{storm}");
        assert!(storm.lines().any(|l| l.starts_with("t:")), "storm fleet must offload: {storm}");
    }

    #[test]
    fn sim_slo_breach_is_reported_and_flagged() {
        let o = SimOptions {
            loss: 0.25,
            dup: 0.1,
            delay_ms: 20,
            jitter_ms: 100,
            duration_ms: Some(60_000),
            seed: 9,
            metrics_json: true,
            slo: Some("retransmit_rate<=0.0,convergence<=1".into()),
            ..Default::default()
        };
        let run = cmd_sim(&o).unwrap();
        assert!(run.slo_breached, "a lossy wire must breach a zero-retransmit budget");
        assert!(run.output.contains("-- slo"), "{}", run.output);
        assert!(run.output.contains("breach rule=retransmit_rate"), "{}", run.output);
        assert!(run.output.contains("\"slo_breaches\":[\"breach"), "{}", run.output);
        // a satisfied spec keeps the flag down
        let ok = cmd_sim(&SimOptions {
            slo: Some("abandons<=1000".into()),
            metrics_json: false,
            ..o.clone()
        })
        .unwrap();
        assert!(!ok.slo_breached, "{}", ok.output);
        assert!(ok.output.contains("0 breach(es)"), "{}", ok.output);
        // junk specs fail loudly before any run
        assert!(cmd_sim(&SimOptions { slo: Some("bogus<=1".into()), ..o }).is_err());
    }

    #[test]
    fn sim_injected_breach_writes_the_postmortem_dump() {
        let path = std::env::temp_dir().join("dustctl-test-postmortem.txt");
        let _ = std::fs::remove_file(&path);
        let o = SimOptions {
            duration_ms: Some(30_000),
            seed: 5,
            inject_breach: true,
            postmortem: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let err = cmd_sim(&o).unwrap_err();
        assert!(err.contains("conservation broken"), "{err}");
        assert!(err.contains("postmortem written to"), "{err}");
        let dump = std::fs::read_to_string(&path).expect("dump must exist");
        assert!(dump.starts_with("postmortem reason="), "{dump}");
        assert!(dump.contains("seed=5"), "{dump}");
        let last = dump.lines().last().unwrap();
        assert!(last.starts_with("digest "), "{last}");
        // deterministic: a second breach run reproduces the dump exactly
        let _ = cmd_sim(&o).unwrap_err();
        assert_eq!(dump, std::fs::read_to_string(&path).unwrap());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sim_prometheus_exposition_renders_all_three_kinds() {
        let o = SimOptions {
            loss: 0.2,
            duration_ms: Some(30_000),
            seed: 5,
            metrics_prom: true,
            ..Default::default()
        };
        let out = cmd_sim(&o).unwrap().output;
        assert!(out.contains("-- prometheus"), "{out}");
        assert!(out.contains("# TYPE dust_proto_offers_sent counter"), "{out}");
        assert!(out.contains("_bucket{le=\"+Inf\"}"), "{out}");
    }

    #[test]
    fn sim_rejects_bad_probabilities() {
        assert!(cmd_sim(&SimOptions { loss: 1.5, ..Default::default() }).is_err());
        assert!(cmd_sim(&SimOptions { dup: -0.1, ..Default::default() }).is_err());
        assert!(cmd_sim(&SimOptions { duration_ms: Some(0), ..Default::default() }).is_err());
    }

    #[test]
    fn scenario_help_lists_every_registry_entry() {
        let run =
            cmd_sim(&SimOptions { scenario: Some("help".into()), ..Default::default() }).unwrap();
        for sc in registry::all() {
            assert!(run.output.contains(sc.name), "{}", run.output);
            assert!(run.output.contains(sc.slo_spec), "{}", run.output);
        }
        assert!(!run.slo_breached);
    }

    #[test]
    fn scenario_run_is_slo_gated_and_byte_identical_per_seed() {
        let o = SimOptions {
            scenario: Some("int_burst".into()),
            seed: 11,
            metrics_json: true,
            ..Default::default()
        };
        let a = cmd_sim(&o).unwrap();
        let b = cmd_sim(&o).unwrap();
        assert_eq!(a.output, b.output, "scenario runs must be reproducible byte-for-byte");
        assert!(!a.slo_breached, "{}", a.output);
        assert!(a.output.contains("\"scenario\":\"int_burst\""), "{}", a.output);
        assert!(a.output.contains("\"digest\":\""), "{}", a.output);
        assert!(a.output.contains("\"slo_breaches\":[]"), "{}", a.output);
        assert!(a.output.contains("-- slo --"), "{}", a.output);
    }

    #[test]
    fn scenario_duration_override_shrinks_the_run() {
        let o = SimOptions {
            scenario: Some("testbed".into()),
            duration_ms: Some(30_000),
            ..Default::default()
        };
        let run = cmd_sim(&o).unwrap();
        assert!(run.output.contains("30s simulated"), "{}", run.output);
    }

    #[test]
    fn scenario_slo_override_can_force_a_breach_and_postmortem() {
        let path = std::env::temp_dir().join("dustctl-test-scenario-postmortem.txt");
        let _ = std::fs::remove_file(&path);
        let o = SimOptions {
            scenario: Some("testbed".into()),
            slo: Some("convergence<=1".into()),
            postmortem: Some(path.to_string_lossy().into_owned()),
            seed: 3,
            ..Default::default()
        };
        let run = cmd_sim(&o).unwrap();
        assert!(run.slo_breached, "an impossible bound must breach:\n{}", run.output);
        assert!(run.output.contains("postmortem written to"), "{}", run.output);
        let dump = std::fs::read_to_string(&path).expect("dump must exist");
        assert!(dump.starts_with("postmortem reason="), "{dump}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sim_profile_writes_folded_stacks_without_perturbing_json() {
        let path = std::env::temp_dir().join("dustctl-test-sim-profile.folded");
        let _ = std::fs::remove_file(&path);
        let plain = SimOptions {
            loss: 0.2,
            duration_ms: Some(30_000),
            seed: 23,
            metrics_json: true,
            ..Default::default()
        };
        let profiled =
            SimOptions { profile: Some(path.to_string_lossy().into_owned()), ..plain.clone() };
        let a = cmd_sim(&plain).unwrap().output;
        let b = cmd_sim(&profiled).unwrap().output;
        // the profiler must not perturb anything deterministic: the JSON
        // line (metrics + trace digest) is bit-identical with it on
        let json = |s: &str| s.lines().find(|l| l.starts_with('{')).unwrap().to_string();
        assert_eq!(json(&a), json(&b), "profiling must not leak into --metrics-json");
        assert!(b.contains("profile written to"), "{b}");
        let dump = std::fs::read_to_string(&path).expect("artifact must exist");
        assert!(dump.starts_with("# run: loss 20%\n# dust profile v1"), "{dump}");
        assert!(dump.contains("count sim.event.stat_emission;sim.resource_walk "), "{dump}");
        assert!(dump.lines().any(|l| l.starts_with("self ")), "{dump}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn profile_command_scope_counts_are_deterministic_per_seed() {
        let o = ProfileOptions { seed: 17, duration_ms: Some(20_000), ..Default::default() };
        let a = cmd_profile("testbed", &o).unwrap();
        let b = cmd_profile("testbed", &o).unwrap();
        fn counts(s: &str) -> Vec<&str> {
            s.lines().filter(|l| l.starts_with("count ")).collect()
        }
        assert_eq!(counts(&a), counts(&b), "scope counts must be byte-identical per seed");
        assert!(!counts(&a).is_empty(), "{a}");
        assert!(a.lines().any(|l| l.starts_with("self ")), "{a}");
        assert!(a.starts_with("profile: testbed, seed 17, engine event"), "{a}");
    }

    #[test]
    fn profile_command_handles_scale_fleet_help_and_unknowns() {
        let o = ProfileOptions { duration_ms: Some(2_000), ..Default::default() };
        let out = cmd_profile("scale_fleet", &o).unwrap();
        assert!(out.starts_with("profile: scale_fleet (k=24)"), "{out}");
        assert!(out.contains("count sim.event.telemetry_sample;sim.telemetry_batch "), "{out}");
        let help = cmd_profile("help", &ProfileOptions::default()).unwrap();
        assert!(help.contains("scale_fleet"), "{help}");
        assert!(help.contains("testbed"), "{help}");
        let err = cmd_profile("figment", &ProfileOptions::default()).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("scale_fleet"), "{err}");
    }

    #[test]
    fn profile_rejects_a_zero_duration_on_every_target() {
        // the fleet is built through the same validating builder as a
        // registry scenario, so a bad knob is a typed error, not a panic
        let o = ProfileOptions { duration_ms: Some(0), ..Default::default() };
        for name in ["scale_fleet", "testbed"] {
            let err = cmd_profile(name, &o).unwrap_err();
            assert!(err.contains("duration_ms must be positive"), "{name}: {err}");
        }
    }

    #[test]
    fn place_profile_covers_the_solver_stack() {
        let path = std::env::temp_dir().join("dustctl-test-place-profile.folded");
        let _ = std::fs::remove_file(&path);
        let opts = PlaceOptions {
            fat_tree: Some(4),
            batch: 2,
            seed: 7,
            profile: Some(path.to_string_lossy().into_owned()),
            ..Default::default()
        };
        let out = cmd_place(None, &opts).unwrap();
        assert!(out.contains("profile written to"), "{out}");
        let dump = std::fs::read_to_string(&path).expect("artifact must exist");
        assert!(dump.contains("cost.build_matrix"), "{dump}");
        assert!(dump.contains("lp.transport.solve"), "{dump}");
        assert!(dump.contains("core.routes"), "{dump}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn scenario_rejects_fault_flags_sweeps_and_unknown_names() {
        let base = || SimOptions { scenario: Some("chaos".into()), ..Default::default() };
        let err = cmd_sim(&SimOptions { loss: 0.1, ..base() }).unwrap_err();
        assert!(err.contains("carries its own fault model"), "{err}");
        let err = cmd_sim(&SimOptions { sweep: true, ..base() }).unwrap_err();
        assert!(err.contains("chaos ladder"), "{err}");
        // the sweep is a fault source too: it must not swallow --loss silently
        let err =
            cmd_sim(&SimOptions { sweep: true, loss: 0.9, ..Default::default() }).unwrap_err();
        assert!(err.contains("--sweep carries its own fault model"), "{err}");
        let err = cmd_sim(&SimOptions { scenario: Some("figment".into()), ..Default::default() })
            .unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        assert!(err.contains("zone_storm"), "the error must list the registry: {err}");
    }
}
