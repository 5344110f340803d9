//! Every `dustctl` flag grammar, as functions from the words after the
//! command to a typed invocation or an error message.
//!
//! `sim`, `trace`, and `spans` accept the same run flags — what to run
//! (`--scenario`, or the fault profile `--loss`/`--dup`/`--delay`/
//! `--jitter`) and its shape (`--duration`/`--seed`) — so one
//! parser owns that grammar and each command declares only its extras.
//! `profile`, `place` and the file commands have their own parsers; all
//! four read values through one typed `value` helper, so a flag means the
//! same type everywhere, and the threshold/routing flags through one
//! `base_option`. Errors are plain messages: the binary appends the
//! usage text and exits 2.

use crate::commands::{Options, PlaceOptions, ProfileOptions, SimOptions};
use std::slice::Iter;
use std::str::FromStr;

/// The word after `flag`, parsed as `T`. Integer flags parse as their
/// integer type, so a fraction, a negative or an out-of-range value is an
/// error rather than a silently different number.
fn value<T: FromStr>(it: &mut Iter<String>, flag: &str) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: invalid number {v:?}"))
}

/// The threshold/routing flags every placement command shares. `Ok(false)`
/// means `flag` is not one of them.
fn base_option(o: &mut Options, flag: &str, it: &mut Iter<String>) -> Result<bool, String> {
    match flag {
        "--c-max" => o.c_max = value(it, flag)?,
        "--co-max" => o.co_max = value(it, flag)?,
        "--x-min" => o.x_min = value(it, flag)?,
        "--max-hop" => o.max_hop = Some(value(it, flag)?),
        "--threads" => o.threads = value(it, flag)?,
        _ => return Ok(false),
    }
    Ok(true)
}

/// Which simulation-backed subcommand is being parsed. Gates the
/// command-specific flags (`--sweep` and the report switches for `sim`,
/// `--full` for `trace`, `--flow`/`--phase` for `spans`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCommandKind {
    /// `dustctl sim` — the chaos ladder with metrics/SLO reporting.
    Sim,
    /// `dustctl trace` — one run, trace census or full event log.
    Trace,
    /// `dustctl spans` — one run, causal span reconstruction.
    Spans,
}

impl SimCommandKind {
    /// Map a command word to its kind, `None` for non-sim commands.
    pub fn from_name(cmd: &str) -> Option<Self> {
        match cmd {
            "sim" => Some(SimCommandKind::Sim),
            "trace" => Some(SimCommandKind::Trace),
            "spans" => Some(SimCommandKind::Spans),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SimCommandKind::Sim => "sim",
            SimCommandKind::Trace => "trace",
            SimCommandKind::Spans => "spans",
        }
    }
}

/// A fully parsed `sim`/`trace`/`spans` invocation: the shared
/// [`SimOptions`] plus each command's extras (unused extras stay at
/// their defaults).
#[derive(Debug, Clone)]
pub struct SimInvocation {
    /// The shared simulation options.
    pub opts: SimOptions,
    /// `trace --full`: stream the whole decoded event log.
    pub full: bool,
    /// `spans --flow N`: restrict the flow table to one transfer.
    pub flow: Option<u64>,
    /// `spans --phase NAME`: restrict the latency table to one phase.
    pub phase: Option<String>,
}

/// Parse the flags of one simulation-backed command. `args` excludes the
/// command word itself.
pub fn parse_sim_invocation(
    kind: SimCommandKind,
    args: &[String],
) -> Result<SimInvocation, String> {
    let mut inv =
        SimInvocation { opts: SimOptions::default(), full: false, flow: None, phase: None };
    let s = &mut inv.opts;
    let sim = kind == SimCommandKind::Sim;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // -- shared by sim, trace, and spans --------------------------
            "--scenario" => s.scenario = Some(value(&mut it, a)?),
            "--loss" => s.loss = value(&mut it, a)?,
            "--dup" => s.dup = value(&mut it, a)?,
            "--delay" => s.delay_ms = value(&mut it, a)?,
            "--jitter" => s.jitter_ms = value(&mut it, a)?,
            "--duration" => s.duration_ms = Some(value(&mut it, a)?),
            "--seed" => s.seed = value(&mut it, a)?,
            // -- sim only -------------------------------------------------
            "--sweep" if sim => s.sweep = true,
            "--profile" if sim => s.profile = Some(value(&mut it, a)?),
            "--metrics" if sim => s.metrics = true,
            "--metrics-json" if sim => s.metrics_json = true,
            "--metrics-prom" if sim => s.metrics_prom = true,
            "--slo" if sim => s.slo = Some(value(&mut it, a)?),
            "--postmortem" if sim => s.postmortem = Some(value(&mut it, a)?),
            "--inject-breach" if sim => s.inject_breach = true,
            // -- trace / spans extras -------------------------------------
            "--full" if kind == SimCommandKind::Trace => inv.full = true,
            "--flow" if kind == SimCommandKind::Spans => inv.flow = Some(value(&mut it, a)?),
            "--phase" if kind == SimCommandKind::Spans => inv.phase = Some(value(&mut it, a)?),
            other => return Err(format!("{}: unknown option {other:?}", kind.name())),
        }
    }
    Ok(inv)
}

/// Parse `profile <scenario> [options]` into the scenario name and its
/// options.
pub fn parse_profile_invocation(args: &[String]) -> Result<(String, ProfileOptions), String> {
    let Some(name) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err("profile needs a scenario name (profile help lists them)".into());
    };
    let mut p = ProfileOptions::default();
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => p.seed = value(&mut it, a)?,
            "--duration" => p.duration_ms = Some(value(&mut it, a)?),
            "--out" => p.out = Some(value(&mut it, a)?),
            other => return Err(format!("unknown profile option {other:?}")),
        }
    }
    Ok((name.clone(), p))
}

/// Parse `place [file] [options]` into the optional state-file path and
/// the placement options.
pub fn parse_place_invocation(args: &[String]) -> Result<(Option<String>, PlaceOptions), String> {
    let mut p = PlaceOptions::default();
    let mut path = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if base_option(&mut p.base, a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--fat-tree" => p.fat_tree = Some(value(&mut it, a)?),
            "--batch" => p.batch = value(&mut it, a)?,
            "--seed" => p.seed = value(&mut it, a)?,
            "--warm" => p.warm = true,
            "--profile" => p.profile = Some(value(&mut it, a)?),
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => return Err(format!("unknown place option {other:?}")),
        }
    }
    Ok((path, p))
}

/// A parsed `roles`/`optimize`/`heuristic`/`dot` invocation.
#[derive(Debug, Clone)]
pub struct FileInvocation {
    /// The network-state file to read.
    pub path: String,
    /// Threshold/routing options.
    pub opts: Options,
}

/// Parse `<cmd> <file> [options]` for the commands that read a
/// network-state file. `args` excludes the command word, which only names
/// the command in the missing-file message.
pub fn parse_file_invocation(cmd: &str, args: &[String]) -> Result<FileInvocation, String> {
    let Some(path) = args.first().cloned() else {
        return Err(format!("{cmd}: missing <file>"));
    };
    let mut inv = FileInvocation { path, opts: Options::default() };
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        if !base_option(&mut inv.opts, a, &mut it)? {
            return Err(format!("unknown option {a:?}"));
        }
    }
    Ok(inv)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults_when_no_flags() {
        let inv = parse_sim_invocation(SimCommandKind::Sim, &[]).unwrap();
        assert_eq!(inv.opts.duration_ms, None);
        assert!(!inv.full && inv.flow.is_none() && inv.phase.is_none());
    }

    #[test]
    fn shared_flags_parse_for_every_command() {
        for kind in [SimCommandKind::Sim, SimCommandKind::Trace, SimCommandKind::Spans] {
            let inv = parse_sim_invocation(
                kind,
                &argv("--loss 0.2 --dup 0.1 --delay 20 --jitter 100 --duration 60000 --seed 7"),
            )
            .unwrap();
            assert_eq!(inv.opts.loss, 0.2);
            assert_eq!(inv.opts.dup, 0.1);
            assert_eq!(inv.opts.delay_ms, 20);
            assert_eq!(inv.opts.jitter_ms, 100);
            assert_eq!(inv.opts.duration_ms, Some(60_000));
            assert_eq!(inv.opts.seed, 7);
        }
    }

    #[test]
    fn sim_only_flags_are_rejected_elsewhere() {
        assert!(parse_sim_invocation(SimCommandKind::Sim, &argv("--sweep")).is_ok());
        let err = parse_sim_invocation(SimCommandKind::Trace, &argv("--sweep")).unwrap_err();
        assert!(err.contains("trace: unknown option"), "{err}");
        let err = parse_sim_invocation(SimCommandKind::Spans, &argv("--metrics-json")).unwrap_err();
        assert!(err.contains("spans: unknown option"), "{err}");
        let err =
            parse_sim_invocation(SimCommandKind::Trace, &argv("--profile p.txt")).unwrap_err();
        assert!(err.contains("trace: unknown option"), "{err}");
    }

    #[test]
    fn profile_flag_parses_for_sim() {
        let inv =
            parse_sim_invocation(SimCommandKind::Sim, &argv("--profile prof.folded")).unwrap();
        assert_eq!(inv.opts.profile.as_deref(), Some("prof.folded"));
    }

    #[test]
    fn command_extras_parse() {
        let inv = parse_sim_invocation(SimCommandKind::Trace, &argv("--full")).unwrap();
        assert!(inv.full);
        let inv =
            parse_sim_invocation(SimCommandKind::Spans, &argv("--flow 3 --phase offer")).unwrap();
        assert_eq!(inv.flow, Some(3));
        assert_eq!(inv.phase.as_deref(), Some("offer"));
    }

    #[test]
    fn missing_and_malformed_values_are_loud() {
        let err = parse_sim_invocation(SimCommandKind::Sim, &argv("--loss")).unwrap_err();
        assert_eq!(err, "--loss needs a value");
        let err = parse_sim_invocation(SimCommandKind::Sim, &argv("--seed banana")).unwrap_err();
        assert!(err.contains("invalid number"), "{err}");
    }

    /// `--seed V` through every grammar that takes a seed.
    fn seed_through_every_grammar(v: &str) -> Vec<Result<u64, String>> {
        let flags = argv(&format!("--seed {v}"));
        let mut seeds: Vec<Result<u64, String>> =
            [SimCommandKind::Sim, SimCommandKind::Trace, SimCommandKind::Spans]
                .iter()
                .map(|&kind| parse_sim_invocation(kind, &flags).map(|inv| inv.opts.seed))
                .collect();
        seeds.push(parse_place_invocation(&flags).map(|(_, p)| p.seed));
        let profile = argv(&format!("testbed --seed {v}"));
        seeds.push(parse_profile_invocation(&profile).map(|(_, p)| p.seed));
        seeds
    }

    #[test]
    fn integer_flags_parse_exactly_or_not_at_all() {
        // 2^53 + 1 and u64::MAX - 3 both change value on a trip through f64
        for seed in [9_007_199_254_740_993u64, u64::MAX - 3] {
            for parsed in seed_through_every_grammar(&seed.to_string()) {
                assert_eq!(parsed, Ok(seed));
            }
        }
        // a negative, a fraction, and one past u64::MAX
        for bad in ["-5", "2.9", "18446744073709551616"] {
            for parsed in seed_through_every_grammar(bad) {
                assert_eq!(parsed, Err(format!("--seed: invalid number {bad:?}")));
            }
        }
        let err = parse_place_invocation(&argv("--fat-tree 4 --batch 2.7")).unwrap_err();
        assert_eq!(err, "--batch: invalid number \"2.7\"");
    }

    #[test]
    fn scenario_names_a_run_for_sim_trace_and_spans() {
        for kind in [SimCommandKind::Sim, SimCommandKind::Trace, SimCommandKind::Spans] {
            let inv = parse_sim_invocation(kind, &argv("--scenario churn --seed 17")).unwrap();
            assert_eq!(inv.opts.scenario.as_deref(), Some("churn"));
            assert_eq!(inv.opts.duration_ms, None, "the scenario keeps its own duration");
        }
    }

    #[test]
    fn profile_place_and_file_grammars_parse_and_reject() {
        let (name, p) =
            parse_profile_invocation(&argv("scale_fleet --seed 3 --duration 2000 --out p.folded"))
                .unwrap();
        assert_eq!(name, "scale_fleet");
        assert_eq!((p.seed, p.duration_ms), (3, Some(2000)));
        assert_eq!(p.out.as_deref(), Some("p.folded"));
        for no_name in ["", "--seed 3"] {
            let err = parse_profile_invocation(&argv(no_name)).unwrap_err();
            assert!(err.starts_with("profile needs a scenario name"), "{err}");
        }
        let err = parse_profile_invocation(&argv("testbed --loss 0.1")).unwrap_err();
        assert_eq!(err, "unknown profile option \"--loss\"");

        let (path, p) = parse_place_invocation(&argv(
            "net.dust --batch 3 --max-hop 6 --threads 2 --warm --profile solve.folded",
        ))
        .unwrap();
        assert_eq!(path.as_deref(), Some("net.dust"));
        assert_eq!((p.batch, p.base.max_hop, p.base.threads), (3, Some(6), 2));
        assert!(p.warm && p.fat_tree.is_none());
        assert_eq!(p.profile.as_deref(), Some("solve.folded"));
        let err = parse_place_invocation(&argv("a.dust b.dust")).unwrap_err();
        assert_eq!(err, "unknown place option \"b.dust\"");

        let inv = parse_file_invocation(
            "heuristic",
            &argv("net.dust --max-hop 2 --c-max 85 --co-max 55 --x-min 4"),
        )
        .unwrap();
        assert_eq!((inv.path.as_str(), inv.opts.max_hop), ("net.dust", Some(2)));
        assert_eq!((inv.opts.c_max, inv.opts.co_max, inv.opts.x_min), (85.0, 55.0, 4.0));
        // there is one placement solver and one path engine to select
        for removed in ["simplex", "enumerate"] {
            let flag = format!("--{removed}");
            let err = parse_file_invocation("optimize", &argv(&format!("net.dust {flag}")));
            assert_eq!(err.unwrap_err(), format!("unknown option {flag:?}"));
        }
        let err = parse_file_invocation("roles", &argv("net.dust --zone-size 3")).unwrap_err();
        assert_eq!(err, "unknown option \"--zone-size\"");
        assert_eq!(parse_file_invocation("optimize", &[]).unwrap_err(), "optimize: missing <file>");
        let err = parse_file_invocation("optimize", &argv("net.dust --fat-tree 4")).unwrap_err();
        assert_eq!(err, "unknown option \"--fat-tree\"");
        let err = parse_file_invocation("optimize", &argv("net.dust --threads abc")).unwrap_err();
        assert_eq!(err, "--threads: invalid number \"abc\"");
    }
}
