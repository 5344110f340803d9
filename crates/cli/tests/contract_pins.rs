//! The placement commands' output, pinned byte for byte: `optimize`,
//! `heuristic`, `dot` and `place` on the Fig. 4 example, an all-busy
//! file and small generated fat-trees, every typed failure's message,
//! the same text at every `--threads` count, and the exit code and
//! message of the removed `--simplex` flag. `place`'s wall-clock
//! `throughput:` line is the one line left out.

use dust::prelude::*;
use dust_cli::commands::{cmd_dot, cmd_heuristic, cmd_optimize, cmd_place, Options, PlaceOptions};
use dust_cli::format::{example_file, parse_nmdb};

fn fig4() -> Nmdb {
    parse_nmdb(&example_file()).unwrap()
}

/// Three busy nodes in a line: nothing to offload to.
fn all_busy() -> Nmdb {
    parse_nmdb(
        "node 0 95 10\nnode 1 92 10\nnode 2 90 10\n\
         edge 0 1 10000 0.5\nedge 1 2 10000 0.5\n",
    )
    .unwrap()
}

/// The exit code and first stderr line of `dustctl args`.
fn dustctl(args: &[&str]) -> (Option<i32>, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_dustctl")).args(args).output();
    let out = out.expect("dustctl runs");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    (out.status.code(), stderr.lines().next().unwrap_or_default().to_string())
}

fn without_throughput(out: String) -> String {
    out.lines().filter(|l| !l.starts_with("throughput:")).map(|l| format!("{l}\n")).collect()
}

const OPTIMIZE_FIG4: &str = "status: Optimal\n\
    beta = 0.720000 s·%, total offloaded = 12.0%, mean hops = 2.00\n  \
    move  12.00% from 0 to 5  (T_rmin 0.060000s, route 0→2→5)\n";

#[test]
fn optimize_output_is_pinned_at_every_thread_count() {
    for threads in [0, 1, 2, 4] {
        let o = Options { threads, ..Options::default() };
        assert_eq!(cmd_optimize(&fig4(), &o).unwrap(), OPTIMIZE_FIG4, "threads {threads}");
    }
    assert_eq!(
        dustctl(&["optimize", "net.dust", "--simplex"]),
        (Some(2), "dustctl: unknown option \"--simplex\"".to_string())
    );
}

#[test]
fn optimize_failures_keep_their_messages() {
    let hop = |h| Options { max_hop: Some(h), ..Options::default() };
    assert_eq!(cmd_optimize(&fig4(), &hop(0)).unwrap_err(), "max_hop of 0 forbids all routes");
    assert_eq!(
        cmd_optimize(&fig4(), &hop(1)).unwrap_err(),
        "no route between any busy node and any candidate within the hop bound; raise --max-hop"
    );
    assert_eq!(
        cmd_optimize(&all_busy(), &Options::default()).unwrap_err(),
        "infeasible: busy excess exceeds reachable candidate capacity; \
         raise CO_max / max-hop, or add capacity"
    );
    let bad = Options { co_max: 95.0, ..Options::default() };
    assert_eq!(
        cmd_optimize(&fig4(), &bad).unwrap_err(),
        "co_max (95) must not exceed c_max (80): a node must never be Busy and a candidate at once"
    );
}

#[test]
fn heuristic_output_is_pinned() {
    for threads in [0, 1, 2] {
        let o = Options { threads, ..Options::default() };
        assert_eq!(
            cmd_heuristic(&fig4(), &o, 2).unwrap(),
            "placed 12.0 of 12.0 capacity-% within 2 hop(s); HFR = 0.00%\n  \
             move  12.00% from 0 to 1  (Tr 0.060000s, route 0→2→1)\n",
            "threads {threads}"
        );
    }
    assert_eq!(
        cmd_heuristic(&all_busy(), &Options::default(), 1).unwrap(),
        "placed 0.0 of 37.0 capacity-% within 1 hop(s); HFR = 100.00%\n  \
         UNPLACED 15.00% on node 0\n  UNPLACED 12.00% on node 1\n  UNPLACED 10.00% on node 2\n"
    );
}

#[test]
fn dot_renders_an_infeasible_file_without_routes() {
    assert_eq!(
        cmd_dot(&all_busy(), &Options::default()).unwrap(),
        "graph dust {\n  layout=neato; overlap=false; node [shape=circle];\n  \
         n0 [label=\"n0\\n95%\", style=filled, fillcolor=\"tomato\"];\n  \
         n1 [label=\"n1\\n92%\", style=filled, fillcolor=\"tomato\"];\n  \
         n2 [label=\"n2\\n90%\", style=filled, fillcolor=\"tomato\"];\n  \
         n0 -- n1 [color=grey55, label=\"50% of 10000M\"];\n  \
         n1 -- n2 [color=grey55, label=\"50% of 10000M\"];\n}\n"
    );
}

#[test]
fn place_output_is_pinned() {
    let run = |file: Option<&Nmdb>, opts: PlaceOptions| {
        without_throughput(cmd_place(file, &opts).unwrap())
    };
    let warm = PlaceOptions { batch: 4, warm: true, ..Default::default() };
    assert_eq!(
        run(Some(&fig4()), warm),
        "place: 4 round(s) on 7 nodes, threads = auto\n\
         outcomes: optimal = 4, no-busy = 0, infeasible = 0\n\
         mean beta = 0.637424 s·%\n\
         warm starts: 3 of 4 solved round(s) reused bases; pivots warm = 1, cold = 0, saved = 9\n\
         cost refresh: 2 incremental, 1 full invalidation(s), rows migrated = 0, invalidated = 3\n"
    );
    assert_eq!(
        run(Some(&all_busy()), PlaceOptions::default()),
        "place: 1 round(s) on 3 nodes, threads = auto\nstatus: Infeasible\n"
    );
    let ft8 = PlaceOptions { fat_tree: Some(8), seed: 3, ..Default::default() };
    assert_eq!(
        run(None, PlaceOptions { batch: 6, warm: true, ..ft8.clone() }),
        "place: 6 round(s) on 80 nodes, threads = auto\n\
         outcomes: optimal = 6, no-busy = 0, infeasible = 0\n\
         mean beta = 6.512926 s·%\n\
         warm starts: 5 of 6 solved round(s) reused bases; pivots warm = 12, cold = 4, saved = 295\n\
         cost refresh: 4 incremental, 1 full invalidation(s), rows migrated = 0, invalidated = 85\n"
    );
    // one hop: the drift reaches rows the refresh migrates, so this pins
    // what the refresh's BFS around the dirty links decides
    let base = Options { max_hop: Some(1), ..Options::default() };
    let hop1 = PlaceOptions {
        base,
        fat_tree: Some(16),
        seed: 11,
        batch: 6,
        warm: true,
        ..Default::default()
    };
    assert_eq!(
        run(None, hop1),
        "place: 6 round(s) on 320 nodes, threads = auto\n\
         outcomes: optimal = 6, no-busy = 0, infeasible = 0\n\
         mean beta = 22.117253 s·%\n\
         warm starts: 5 of 6 solved round(s) reused bases; pivots warm = 71, cold = 58, saved = 1130\n\
         cost refresh: 4 incremental, 1 full invalidation(s), rows migrated = 72, invalidated = 283\n"
    );
    for threads in [0, 1, 2] {
        let base = Options { threads, ..Options::default() };
        let shown = if threads == 0 { "auto".to_string() } else { threads.to_string() };
        assert_eq!(
            run(None, PlaceOptions { base, ..ft8.clone() }),
            format!(
                "place: 1 round(s) on 80 nodes, threads = {shown}\nstatus: Optimal\n\
                 beta = 6.430740 s·%, total offloaded = 155.5%, assignments = 18\n\
                 route digest = 0x9a5f3db01079edc9\n"
            ),
            "threads {threads}"
        );
    }
    assert_eq!(
        run(None, PlaceOptions { fat_tree: Some(8), batch: 3, seed: 5, ..Default::default() }),
        "place: 3 round(s) on 80 nodes, threads = auto\n\
         outcomes: optimal = 3, no-busy = 0, infeasible = 0\n\
         mean beta = 6.004323 s·%\n"
    );
    assert_eq!(
        dustctl(&["place", "--fat-tree", "8", "--batch", "3", "--seed", "5", "--simplex"]),
        (Some(2), "dustctl: unknown place option \"--simplex\"".to_string())
    );
}
