//! `all` and `aa`: the whole benchmark, one child process per workload,
//! and the A/A calibration that compares sets of runs of the same code.

use crate::json::{self, RunResult, Value};
use crate::{stats, Args, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Run one workload in a process of its own and read its result line.
fn child(workload: &str, seed: u64, args: &Args, echo: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{stdout}");
    }
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    stdout
        .lines()
        .last()
        .and_then(RunResult::from_json)
        .ok_or(format!("{workload} printed no result line"))
}

/// Every workload once; exit 1 if any run is incorrect.
pub fn run_all(args: &Args) -> ExitCode {
    let mut good = true;
    for w in WORKLOADS {
        match child(w, args.seed, args, true) {
            Ok(r) => good &= r.correct,
            Err(e) => {
                eprintln!("benchmark: {e}");
                good = false;
            }
        }
    }
    if good {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Bounds by end-to-end metric name, from `BENCHMARK.json` in the
/// current directory.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = json::parse(&text).ok_or("BENCHMARK.json is not JSON")?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Value::items)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| Some((m.get("name")?.as_str()?.to_string(), m.get("bound")?.as_f64()?)))
        .collect::<Option<Vec<_>>>()
        .ok_or("an end_to_end metric lacks a name or a bound".to_string())
}

/// Relative distance between the best and the worst set median.
pub fn gap(medians: &[f64]) -> f64 {
    let lo = medians.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = medians.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if lo > 0.0 {
        (hi - lo) / lo
    } else {
        f64::INFINITY
    }
}

/// Run the whole benchmark `sets x runs` times, the sets taking turns
/// (A, B, A, B, ...) so that drift in the host's speed falls on all of
/// them, then compare the sets' medians of every end-to-end metric with
/// its bound. All sets run this same program: any gap is noise.
pub fn calibrate(args: &Args) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("benchmark aa: {e}");
            return ExitCode::from(2);
        }
    };
    // (workload, metric) -> per set, the values of its runs
    let mut values: BTreeMap<(&str, String), Vec<Vec<f64>>> = BTreeMap::new();
    let mut good = true;
    for turn in 0..args.sets * args.runs {
        let (set, run) = (turn % args.sets, turn / args.sets);
        // run r of every set measures the same seed
        let seed = args.seed + run as u64;
        for &w in WORKLOADS {
            eprintln!("aa: set {} run {} seed {seed} {w}", (b'A' + set as u8) as char, run + 1);
            match child(w, seed, args, false) {
                Ok(r) => {
                    good &= r.correct;
                    for m in r.metrics {
                        values.entry((w, m.name)).or_insert_with(|| vec![Vec::new(); args.sets])
                            [set]
                            .push(m.value);
                    }
                }
                Err(e) => {
                    eprintln!("benchmark aa: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    println!(
        "| workload | metric | {} | gap | bound |",
        (0..args.sets)
            .map(|s| format!("median {}", (b'A' + s as u8) as char))
            .collect::<Vec<_>>()
            .join(" | ")
    );
    println!("|---|---|{}---|---|", "---|".repeat(args.sets));
    for &w in WORKLOADS {
        for (name, bound) in &bounds {
            let Some(sets) = values.get(&(w, name.clone())) else {
                println!("| {w} | {name} | not reported |");
                good = false;
                continue;
            };
            let medians: Vec<f64> = sets.iter().map(|v| stats::median(v)).collect();
            let g = gap(&medians);
            let verdict = if g > *bound { " EXCEEDED" } else { "" };
            good &= g <= *bound;
            let cells: Vec<String> = medians.iter().map(|m| format!("{m:.4}")).collect();
            println!("| {w} | {name} | {} | {g:.4} | {bound}{verdict} |", cells.join(" | "));
        }
    }
    if good {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::gap;

    #[test]
    fn gap_is_relative_to_the_smaller_median() {
        assert!((gap(&[100.0, 110.0]) - 0.10).abs() < 1e-12);
        assert!((gap(&[110.0, 100.0]) - 0.10).abs() < 1e-12);
        assert_eq!(gap(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(gap(&[0.0, 1.0]), f64::INFINITY);
    }
}
