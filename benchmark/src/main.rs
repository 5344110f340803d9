//! The repository's benchmark: four replayed workloads over `dust`'s
//! public API, one per process. See `README.md` beside this package.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! benchmark all [--seed N] [--seconds S] [--trace 0|1]
//! benchmark aa [--sets 2] [--runs 3] [--seed N] [--seconds S]
//! ```

mod aa;
mod alloc;
mod decide;
mod fleet;
mod harness;
mod json;
mod probe;
mod procfs;
mod spans;
mod stats;
mod telemetry;

use harness::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Every workload, in the order `all` and `aa` run them.
pub const WORKLOADS: &[&str] =
    &["decide_cold_k24", "decide_churn_k16", "fleet_sim_k90", "telemetry_rw"];

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// Measuring time used when none is given; `BENCHMARK.json` says the same.
pub const DEFAULT_SECONDS: u64 = 24;

/// Parsed command line.
pub struct Args {
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub sets: usize,
    pub runs: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 2,
        runs: 3,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        let number =
            |s: &String| s.parse::<u64>().map_err(|_| format!("{arg}: not a whole number: {s}"));
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a name")?.clone()),
            "--seed" => args.seed = number(value("a number")?)?,
            "--seconds" => args.seconds = number(value("a number")?)?.clamp(1, 600),
            "--trace" => args.trace = number(value("0 or 1")?)? != 0,
            "--sets" => args.sets = number(value("a number")?)?.clamp(2, 16) as usize,
            "--runs" => args.runs = number(value("a number")?)?.clamp(1, 64) as usize,
            "aa" | "all" if args.command.is_none() => args.command = Some(arg.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where a traced run leaves its spans: under the build directory, which
/// the repository's `.gitignore` already covers.
fn span_path(workload: &str) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), PathBuf::from);
    target.join("benchmark").join(format!("{workload}.spans.jsonl"))
}

fn run_workload(name: &str, args: &Args) -> Result<harness::Report, String> {
    let seed = args.seed;
    let setup: Box<dyn Fn() -> Box<dyn Workload>> = match name {
        "decide_cold_k24" => {
            Box::new(move || Box::new(decide::Decide::setup(decide::Kind::ColdK24, seed)))
        }
        "decide_churn_k16" => {
            Box::new(move || Box::new(decide::Decide::setup(decide::Kind::ChurnK16, seed)))
        }
        "fleet_sim_k90" => Box::new(move || Box::new(fleet::Fleet::setup(seed))),
        "telemetry_rw" => Box::new(move || Box::new(telemetry::Telemetry::setup(seed))),
        other => return Err(format!("unknown workload {other}; known: {}", WORKLOADS.join(", "))),
    };
    Ok(harness::run(name, &*setup, args.seconds, args.trace, &span_path(name)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\nusage: benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] | all | aa [--sets N] [--runs N]");
            return ExitCode::from(2);
        }
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("aa"), _) => aa::calibrate(&args),
        (Some("all"), _) => aa::run_all(&args),
        (_, Some(name)) => match run_workload(name, &args) {
            Ok(report) => {
                for line in &report.lines {
                    println!("{line}");
                }
                println!("{}", report.result.to_json());
                // an incorrect run still reports: the driver reads `correct`
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!(
                "benchmark: give --workload NAME, `all` or `aa`; workloads: {}",
                WORKLOADS.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Value;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a =
            args(&["--workload", "telemetry_rw", "--seed", "7", "--seconds", "24", "--trace", "1"])
                .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("telemetry_rw"), 7, 24, true)
        );
        let a = args(&["aa", "--sets", "2", "--runs", "3"]).unwrap();
        assert_eq!(
            (a.command.as_deref(), a.sets, a.runs, a.seed),
            (Some("aa"), 2, 3, DEFAULT_SEED)
        );
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--bogus"]).is_err());
    }

    /// `BENCHMARK.json` is what the driver believes; the tables in this
    /// program are what is printed. They must name the same things.
    #[test]
    fn contract_file_matches_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            json::parse(&std::fs::read_to_string(path).unwrap()).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::items)
                .unwrap()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or_default().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
        let per_layer: Vec<(String, String)> =
            harness::PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("per_layer"), per_layer);
        let end_to_end: Vec<(String, String)> =
            harness::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(names("end_to_end"), end_to_end);
        assert_eq!(doc.get("run_seconds").and_then(Value::as_f64), Some(DEFAULT_SECONDS as f64));
    }
}
