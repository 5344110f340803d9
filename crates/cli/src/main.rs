//! `dustctl` — run DUST placement decisions from a network-state file.
//!
//! ```sh
//! dustctl example > net.dust
//! dustctl roles net.dust
//! dustctl optimize net.dust --max-hop 6
//! dustctl heuristic net.dust --max-hop 2
//! ```

use dust::prelude::Nmdb;
use dust_cli::args::{
    parse_file_invocation, parse_place_invocation, parse_profile_invocation, parse_sim_invocation,
    FileInvocation, SimCommandKind,
};
use dust_cli::commands::{
    cmd_dot, cmd_heuristic, cmd_optimize, cmd_place, cmd_profile, cmd_sim, cmd_spans, cmd_trace,
    roles,
};
use dust_cli::format::{example_file, parse_nmdb};

const USAGE: &str = "usage: dustctl <command> [file] [options]

commands:
  example                      print a sample network-state file
  roles     <file>             classify nodes (Busy / candidate / neutral)
  optimize  <file>             exact min-cost placement with routes
  place     [file]             exact placement rounds on a file or a generated
                               fat-tree; reports rounds/sec
  heuristic <file>             Algorithm 1 (one-hop reach unless --max-hop)
  dot       <file>             Graphviz view: roles colored + chosen routes
  sim                          chaos-run the testbed under a lossy control plane,
                               or run a named registry scenario (--scenario)
  trace                        the same run with the trace recorder on; print the
                               event census and the run's deterministic digest
  spans                        the same run, reconstructed into per-flow causal span
                               trees: flow table, per-phase p50/p99, critical path
  profile   <scenario>         run one scenario with the wall-clock profiler on
                               and print the folded-stack profile (counts are
                               deterministic per seed; durations are wall-clock);
                               profile help lists the targets

options (all commands taking a file):
  --c-max X     Busy threshold (default 80)
  --co-max X    candidate threshold (default 50)
  --x-min X     minimum utilization (default 5)
  --max-hop N   hop bound on routes (default unlimited; heuristic: 1)
  --threads N   T_rmin pricing threads (default: one per core)

place options (plus the file options above):
  --fat-tree K  solve on a generated k-port fat-tree with seeded random
                states instead of a <file> (K even, >= 2; k = 64 is the
                paper's scale)
  --batch N     run N placement rounds back-to-back and report rounds/sec
                (generated states re-seed per round with seed+i)
  --seed N      base seed for generated states
  --warm        steady-state mode: node states freeze at round 0, links
                drift per round, each solve warm-starts from the previous
                round's bases and re-prices only rows crossing drifted
                links (reports pivots saved and refresh behavior)
  --profile PATH
                write the solver-side wall-clock profile (cost-matrix
                pricing, LP solve, route extraction) to PATH

run options (sim, trace and spans name a run the same way; the fault
model comes from exactly one of --scenario, --sweep, or the fault flags):
  --scenario NAME
                run a named registry scenario (testbed, chaos, int_burst,
                diurnal, flash_crowd, zone_storm, churn) with its own topology,
                traffic/fault model, duration, and attached SLO spec —
                evaluated by default; --scenario help lists the registry.
                Excludes the fault flags, --sweep, and --inject-breach
  --loss P      drop probability per message, both directions (default 0)
  --dup P       duplication probability per message (default 0)
  --delay MS    base propagation delay per message (default 0)
  --jitter MS   extra uniform delay in 0..=MS, reorders messages (default 0)
  --duration MS simulated time (default 120000, or the scenario's own)
  --seed N      master seed (default 0)

sim options (plus the run options above):
  --sweep       sweep loss 0/5/10/20/40% instead of one fault-flag run
                (excludes the fault flags)
  --metrics     append the recorded metrics (counters/gauges/histograms)
  --metrics-json
                append one stable JSON object per run (includes the trace
                digest and any SLO breaches) — byte-identical per seed
  --metrics-prom
                append the metrics as a Prometheus-style text exposition
  --slo SPEC    evaluate SLO rules online and exit 1 on any breach, e.g.
                convergence<=15000,retransmit_rate<=0.25,abandons<=0,
                overload_dwell<=20000
  --postmortem PATH
                on an invariant violation, write the post-mortem dump
                (the trace's most recent events + digest) to PATH
  --inject-breach
                corrupt the first run's agent census after the fact, to
                exercise the invariant check and post-mortem path
  --profile PATH
                write the hierarchical wall-clock profile (folded stacks
                plus the top self-time table) to PATH after the run

profile options:
  --seed N      master seed (default 0)
  --duration MS override the scenario's default simulated time
  --out PATH    write the artifact to PATH instead of stdout

trace options: the run options above, plus
  --full        stream the entire decoded event log instead of the census

spans options: the run options above, plus
  --flow N      show only transfer flow N in the flow table
  --phase NAME  show only NAME in the phase-latency table

exit status: 0 on success, 1 when no feasible placement exists, a sim
invariant breaks, or an --slo rule breaches, 2 on usage errors";

/// How an invocation fails: a usage error prints the usage text and exits
/// 2; a run that fails or finds something exits 1.
enum Failure {
    Usage(String),
    Run(String),
}

fn load(path: &str) -> Result<Nmdb, Failure> {
    let input = std::fs::read_to_string(path)
        .map_err(|e| Failure::Usage(format!("cannot read {path:?}: {e}")))?;
    parse_nmdb(&input).map_err(|e| Failure::Usage(format!("{path}: {e}")))
}

fn sim_command(kind: SimCommandKind, args: &[String]) -> Result<(), Failure> {
    use Failure::{Run, Usage};
    let inv = parse_sim_invocation(kind, args).map_err(Usage)?;
    match kind {
        SimCommandKind::Trace => {
            let stdout = std::io::stdout();
            cmd_trace(&inv.opts, inv.full, &mut stdout.lock()).map_err(Run)?
        }
        SimCommandKind::Spans => {
            print!("{}", cmd_spans(&inv.opts, inv.flow, inv.phase.as_deref()).map_err(Run)?)
        }
        SimCommandKind::Sim => {
            let run = cmd_sim(&inv.opts).map_err(Run)?;
            print!("{}", run.output);
            if run.slo_breached {
                return Err(Run("SLO breached (see report above)".into()));
            }
        }
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<(), Failure> {
    use Failure::{Run, Usage};
    let Some(cmd) = args.first().map(String::as_str) else {
        return Err(Usage("missing command".into()));
    };
    let rest = &args[1..];
    if let Some(kind) = SimCommandKind::from_name(cmd) {
        return sim_command(kind, rest);
    }
    let out = match cmd {
        "example" => example_file(),
        "-h" | "--help" => format!("{USAGE}\n"),
        "profile" => {
            let (name, opts) = parse_profile_invocation(rest).map_err(Usage)?;
            cmd_profile(&name, &opts).map_err(Run)?
        }
        "place" => {
            let (path, opts) = parse_place_invocation(rest).map_err(Usage)?;
            let nmdb = path.as_deref().map(load).transpose()?;
            cmd_place(nmdb.as_ref(), &opts).map_err(Run)?
        }
        _ => {
            // an unknown command is reported as one, before its flags
            let run: fn(&Nmdb, &FileInvocation) -> Result<String, String> = match cmd {
                "roles" => |db, inv| roles(db, &inv.opts),
                "optimize" => |db, inv| cmd_optimize(db, &inv.opts),
                "heuristic" => |db, inv| cmd_heuristic(db, &inv.opts),
                "dot" => |db, inv| cmd_dot(db, &inv.opts),
                other => return Err(Usage(format!("unknown command {other:?}"))),
            };
            let inv = parse_file_invocation(cmd, rest).map_err(Usage)?;
            let nmdb = load(&inv.path)?;
            // Solve-time failures (infeasible, hop starvation, bad
            // thresholds) exit 1 without the usage text.
            run(&nmdb, &inv).map_err(Run)?
        }
    };
    print!("{out}");
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(Failure::Usage(msg)) => {
            eprintln!("dustctl: {msg}\n\n{USAGE}");
            std::process::exit(2)
        }
        Err(Failure::Run(msg)) => {
            eprintln!("dustctl: {msg}");
            std::process::exit(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_documented_flag_is_known_to_a_grammar() {
        // a grammar that knows a flag either accepts it or asks for its
        // value; only an unknown flag is reported as an unknown option
        let knows = |result: Result<(), String>| !result.is_err_and(|e| e.contains("unknown"));
        let mut flags: Vec<String> = USAGE
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .map(String::from)
            .collect();
        flags.sort();
        flags.dedup();
        assert_eq!(flags.len(), 27, "USAGE gained or lost a flag: {flags:?}");
        for flag in flags {
            let after_name = ["x".to_string(), flag.clone()];
            let alone = &after_name[1..];
            let known = [SimCommandKind::Sim, SimCommandKind::Trace, SimCommandKind::Spans]
                .iter()
                .any(|&kind| knows(parse_sim_invocation(kind, alone).map(drop)))
                || knows(parse_profile_invocation(&after_name).map(drop))
                || knows(parse_place_invocation(alone).map(drop))
                || knows(parse_file_invocation("heuristic", &after_name).map(drop));
            assert!(known, "USAGE documents {flag}, which no grammar in args.rs parses");
        }
    }
}
