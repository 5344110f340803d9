//! Figure-regeneration harness: one subcommand per table/figure of the
//! DUST paper's evaluation (§V).
//!
//! ```sh
//! cargo run --release -p dust-bench --bin experiments -- all
//! cargo run --release -p dust-bench --bin experiments -- fig8 --seed 1 --full
//! ```
//!
//! Output is plain text; EXPERIMENTS.md records the paper-vs-measured
//! comparison for each figure.

use dust_bench::figures::{self, Effort, FIGURES};
use dust_bench::DEFAULT_SEED;

/// The usage text, derived from [`FIGURES`] so it cannot drift from
/// what the dispatch accepts.
fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, ..)| *name).collect();
    let mut out =
        format!("usage: experiments <{}|all> [--seed N] [--quick|--full]\n\n", names.join("|"));
    for (name, summary, _) in FIGURES {
        out.push_str(&format!("  {name:<11} {summary}\n"));
    }
    out.push_str(
        "  all         everything above, in order\n\n  \
         --seed N   master seed (default printed in the header)\n  \
         --quick    trimmed iteration counts (the default)\n  \
         --full     paper-scale iteration counts (slower)",
    );
    out
}

fn main() {
    let usage = usage();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<String> = None;
    let mut seed = DEFAULT_SEED;
    let mut effort = Effort::Quick;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--seed needs a value\n{usage}");
                    std::process::exit(2);
                });
                seed = v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid seed {v:?}\n{usage}");
                    std::process::exit(2);
                });
            }
            "--full" => effort = Effort::Full,
            "--quick" => effort = Effort::Quick,
            "-h" | "--help" => {
                println!("{usage}");
                return;
            }
            other if cmd.is_none() && !other.starts_with('-') => cmd = Some(other.to_string()),
            other => {
                eprintln!("unknown argument {other:?}\n{usage}");
                std::process::exit(2);
            }
        }
    }
    let Some(cmd) = cmd else {
        eprintln!("{usage}");
        std::process::exit(2);
    };

    let run = match FIGURES.iter().find(|(name, ..)| *name == cmd) {
        Some((_, _, run)) => *run,
        None if cmd == "all" => figures::all,
        None => {
            eprintln!("unknown figure {cmd:?}\n{usage}");
            std::process::exit(2);
        }
    };
    println!(
        "DUST experiment harness — seed {seed}, {} mode\n",
        if effort == Effort::Full { "full" } else { "quick" }
    );
    println!("{}", run(seed, effort));
}
