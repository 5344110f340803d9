//! One regeneration routine per table/figure of the paper's evaluation
//! (§V). Each returns the rendered table plus a short shape-comparison
//! note; the `experiments` binary prints them and EXPERIMENTS.md records
//! the outcomes.

use crate::{experiment_config, experiment_params, mean_secs, median_secs, timed, Table};
use dust::prelude::*;
use dust::topology::min_inv_lu_enumerated_row;

/// Effort level for the sweeps: `quick` trims iteration counts so the full
/// suite finishes in a couple of minutes; `full` runs paper-scale sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Trimmed iteration counts.
    Quick,
    /// Paper-scale sweeps (minutes).
    Full,
}

/// Fig. 1 — monitoring-module CPU vs VxLAN traffic on the testbed DUT.
pub fn fig1(seed: u64, effort: Effort) -> String {
    let per_level = match effort {
        Effort::Quick => 61_000,
        Effort::Full => 181_000,
    };
    let levels = [0.0, 0.05, 0.10, 0.15, 0.20];
    let rows = dust::sim::registry::fig1_curve(&levels, per_level, seed);
    let mut t = Table::new(&["traffic (% line rate)", "mean CPU (% of core)", "peak CPU (%)"]);
    for r in rows {
        t.row(&[
            format!("{:.0}", r.traffic_fraction * 100.0),
            format!("{:.1}", r.mean_cpu_percent),
            format!("{:.1}", r.peak_cpu_percent),
        ]);
    }
    format!(
        "Fig. 1 — monitoring module CPU vs traffic (10 agents, 8-core DUT)\n{}\n\
         paper: ≈100 % average at 20 % line rate, spikes to ≈600 %.\n",
        t.render()
    )
}

/// Fig. 6 — DUT CPU/memory, local monitoring vs DUST offloading.
pub fn fig6(seed: u64, effort: Effort) -> String {
    let duration = match effort {
        Effort::Quick => 120_000,
        Effort::Full => 300_000,
    };
    let r = dust::sim::registry::fig6_contrast(duration, seed);
    let mut t = Table::new(&["metric", "local", "DUST", "reduction (%)"]);
    t.row(&[
        "CPU (%)".into(),
        format!("{:.1}", r.local_cpu),
        format!("{:.1}", r.dust_cpu),
        format!("{:.1}", r.cpu_reduction_percent()),
    ]);
    t.row(&[
        "memory (%)".into(),
        format!("{:.1}", r.local_mem),
        format!("{:.1}", r.dust_mem),
        format!("{:.1}", r.mem_reduction_percent()),
    ]);
    format!(
        "Fig. 6 — testbed resource utilization, local vs DUST ({} transfers)\n{}\n\
         paper: CPU 31→15 % (≈52 % cut), memory 70→62 % (≈12 % cut).\n",
        r.transfers,
        t.render()
    )
}

/// Fig. 7 — infeasible-optimization rate vs `Δ_io` on the 4-k fat-tree.
pub fn fig7(seed: u64, effort: Effort) -> String {
    let iterations = match effort {
        Effort::Quick => 300,
        Effort::Full => 1000, // the paper's count
    };
    let ft = FatTree::with_default_links(4);
    // Fixed C_max = 85, sweep CO_max so Δ_io spans the paper's 0.8..3.5
    // (Δ = (CO_max − 5) / 15; CO_max stays below C_max for the whole sweep).
    let base = DustConfig::paper_defaults().with_thresholds(85.0, 20.0, 5.0);
    let co_sweep: Vec<(f64, f64)> =
        [0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5].iter().map(|d| (85.0, 5.0 + d * 15.0)).collect();
    let pts = io_rate_sweep(&ft.graph, &base, &co_sweep, &experiment_params(), seed, iterations);
    let mut t = Table::new(&["C_max", "CO_max", "delta_io", "io rate (%)", "iterations"]);
    for p in &pts {
        t.row(&[
            format!("{:.0}", p.c_max),
            format!("{:.1}", p.co_max),
            format!("{:.2}", p.delta_io),
            format!("{:.1}", p.io_rate_percent),
            p.iterations.to_string(),
        ]);
    }
    format!(
        "Fig. 7 — infeasible-optimization rate vs delta_io (4-k, {iterations} iterations)\n{}\n\
         paper: io rate 69 % at delta 0.8 falling to 0.2 % at delta 3.5; recommend K_io >= 2.\n",
        t.render()
    )
}

/// One exact placement as the paper times it (§IV-D): every Busy node's
/// row of minima by exhaustive path enumeration, then the exact solve.
/// The solve prices with the hop-bounded DP, whose rows hold the
/// enumerated ones' bits, so the enumeration is the paper's cost model
/// and the solve is the product's.
fn enumerate_and_solve(nmdb: &Nmdb, cfg: &DustConfig) -> Placement {
    for b in nmdb.busy_nodes(cfg) {
        std::hint::black_box(min_inv_lu_enumerated_row(&nmdb.graph, b, cfg.max_hop));
    }
    optimize(nmdb, cfg)
}

/// Fig. 8 — computation time vs max-hop on the 4-k fat-tree: enumeration
/// of every busy row plus the exact solve. Each hop reports the median
/// run, after one untimed warm-up, so the first hop — the `normalized`
/// column's base — is not the process's cold start.
pub fn fig8(seed: u64, effort: Effort) -> String {
    let iterations = match effort {
        Effort::Quick => 20,
        Effort::Full => 100, // the paper's count
    };
    let ft = FatTree::with_default_links(4);
    let base = experiment_config();
    let mut t = Table::new(&["max-hop", "median time (ms)", "normalized", "feasible/runs"]);
    let mut first: Option<f64> = None;
    let hops: Vec<Option<usize>> = (1..=12).map(Some).chain(std::iter::once(None)).collect();
    let warm_up = base.with_max_hop(hops[0]);
    let nmdb = random_nmdb(&ft.graph, &warm_up, &experiment_params(), seed);
    std::hint::black_box(enumerate_and_solve(&nmdb, &warm_up));
    for h in hops {
        let cfg = base.with_max_hop(h);
        let mut times = Vec::new();
        let mut feasible = 0;
        for i in 0..iterations {
            let nmdb = random_nmdb(&ft.graph, &cfg, &experiment_params(), seed + i as u64);
            let (p, d) = timed(|| enumerate_and_solve(&nmdb, &cfg));
            times.push(d);
            if p.status == PlacementStatus::Optimal {
                feasible += 1;
            }
        }
        let median = median_secs(&times) * 1e3;
        let norm = *first.get_or_insert(median.max(1e-9));
        t.row(&[
            h.map_or("unlimited".into(), |x| x.to_string()),
            format!("{median:.3}"),
            format!("{:.1}x", median / norm),
            format!("{feasible}/{iterations}"),
        ]);
    }
    format!(
        "Fig. 8 — enumeration of every busy row plus the exact solve vs max-hop (4-k)\n{}\n\
         paper: < 3.5 s unlimited; 0.5 s threshold => recommended max-hop 10.\n\
         note: absolute times are far lower than the paper's Python+Gurobi; compare the growth shape.\n",
        t.render()
    )
}

/// Fig. 9 — heuristic-vs-ILP success split on the 4-k fat-tree.
pub fn fig9(seed: u64, effort: Effort) -> String {
    let iterations = match effort {
        Effort::Quick => 200,
        Effort::Full => 1000,
    };
    let ft = FatTree::with_default_links(4);
    let cfg = experiment_config();
    let mut tally = SuccessTally::default();
    for nmdb in scenario_stream(&ft.graph, &cfg, &experiment_params(), seed, iterations) {
        tally.record(classify_iteration(&nmdb, &cfg));
    }
    let (full, partial, none) = tally.percentages();
    let mut t = Table::new(&["outcome", "share (%)", "count"]);
    t.row(&["heuristic fully offloads".into(), format!("{full:.2}"), tally.full.to_string()]);
    t.row(&[
        "heuristic partial, ILP completes".into(),
        format!("{partial:.2}"),
        tally.partial.to_string(),
    ]);
    t.row(&["heuristic none, ILP succeeds".into(), format!("{none:.2}"), tally.none.to_string()]);
    format!(
        "Fig. 9 — success split over {} comparable iterations (4-k; {} infeasible, {} trivial excluded)\n{}\n\
         paper: 18.37 % full / 75.5 % partial / 6.13 % none.\n",
        tally.comparable(),
        tally.infeasible,
        tally.trivial,
        t.render()
    )
}

/// Figs. 10a/10b — enumeration of every busy row plus the exact solve vs
/// max-hop on 8-k and 16-k.
pub fn fig10(seed: u64, effort: Effort) -> String {
    let mut out = String::new();
    let plans: &[(usize, Vec<usize>, usize)] = match effort {
        // (k, hop sweep, iterations)
        Effort::Quick => &[(8, vec![1, 2, 3, 4, 5, 6, 7], 3), (16, vec![1, 2, 3, 4], 2)],
        Effort::Full => &[(8, vec![1, 2, 3, 4, 5, 6, 7], 5), (16, vec![1, 2, 3, 4, 5], 3)],
    };
    for (k, hops, iterations) in plans {
        let ft = FatTree::with_default_links(*k);
        let base = experiment_config();
        let mut t = Table::new(&["max-hop", "mean time (s)", "normalized"]);
        let mut first: Option<f64> = None;
        for &h in hops {
            let cfg = base.with_max_hop(Some(h));
            let mut times = Vec::new();
            for i in 0..*iterations {
                let nmdb = random_nmdb(&ft.graph, &cfg, &experiment_params(), seed + i as u64);
                let (_, d) = timed(|| enumerate_and_solve(&nmdb, &cfg));
                times.push(d);
            }
            let mean = mean_secs(&times);
            let norm = *first.get_or_insert(mean.max(1e-12));
            t.row(&[h.to_string(), format!("{mean:.4}"), format!("{:.1}x", mean / norm)]);
        }
        out.push_str(&format!(
            "Fig. 10{} — enumeration of every busy row plus the exact solve vs max-hop ({k}-k fat-tree, {} nodes)\n{}\n",
            if *k == 8 { 'a' } else { 'b' },
            ft.node_count(),
            t.render()
        ));
    }
    out.push_str(
        "paper: 300 s threshold => recommended max-hop 7 (8-k) and 4 (16-k);\n\
         raising 16-k from hop 4 to 5 costs ~10x. Compare the per-hop growth factors.\n",
    );
    out
}

/// Figs. 11a/11b — HFR and the mean time of enumeration of every busy row
/// plus the exact solve vs network scale.
pub fn fig11(seed: u64, effort: Effort) -> String {
    // (k, heuristic iterations, enumerate-and-solve iterations, recommended max-hop)
    let plans: &[(usize, usize, usize, Option<usize>)] = match effort {
        Effort::Quick => {
            &[(4, 100, 10, Some(10)), (8, 40, 5, Some(7)), (16, 15, 2, Some(4)), (64, 3, 0, None)]
        }
        Effort::Full => {
            &[(4, 300, 20, Some(10)), (8, 100, 10, Some(7)), (16, 30, 3, Some(4)), (64, 5, 0, None)]
        }
    };
    let mut t = Table::new(&[
        "k",
        "nodes",
        "HFR (%)",
        "enum+solve mean (s)",
        "max-hop",
        "heur iters",
        "solve iters",
    ]);
    let mut hfr_points: Vec<(f64, f64)> = Vec::new();
    for &(k, h_iters, ilp_iters, max_hop) in plans {
        let ft = FatTree::with_default_links(k);
        let cfg_h = experiment_config();
        let mut hfr = 0.0;
        for nmdb in scenario_stream(&ft.graph, &cfg_h, &experiment_params(), seed, h_iters) {
            hfr += heuristic(&nmdb, &cfg_h).hfr_percent();
        }
        hfr /= h_iters as f64;
        hfr_points.push((ft.node_count() as f64, hfr));

        let ilp_mean = if ilp_iters > 0 {
            let cfg_i = experiment_config().with_max_hop(max_hop);
            let mut times = Vec::new();
            for i in 0..ilp_iters {
                let nmdb =
                    random_nmdb(&ft.graph, &cfg_i, &experiment_params(), seed + 1000 + i as u64);
                let (_, d) = timed(|| enumerate_and_solve(&nmdb, &cfg_i));
                times.push(d);
            }
            format!("{:.4}", mean_secs(&times))
        } else {
            "— (heuristic regime)".into()
        };
        t.row(&[
            k.to_string(),
            ft.node_count().to_string(),
            format!("{hfr:.2}"),
            ilp_mean,
            max_hop.map_or("—".into(), |h| h.to_string()),
            h_iters.to_string(),
            ilp_iters.to_string(),
        ]);
    }
    let fit = crate::stats::power_law_fit(&hfr_points)
        .map(|(_, b)| format!("{b:.2}"))
        .unwrap_or_else(|| "n/a".into());
    format!(
        "Fig. 11 — scalability: HFR of the heuristic (a) and mean time of enumeration of every\n\
         busy row plus the exact solve (b) vs network size\n{}\n\
         fitted HFR power-law exponent vs node count: {fit} (paper: ~ -0.5)\n\
         paper: HFR falls 47.92 % -> 11.04 %; ILP time rises 0.2 s -> 153+ s.\n\
         The enum+solve column stops at 320 nodes, as the paper's ILP column does.\n",
        t.render()
    )
}

/// Fig. 12 — heuristic runtime vs network scale (up to 5120 nodes).
pub fn fig12(seed: u64, effort: Effort) -> String {
    let plans: &[(usize, usize)] = match effort {
        Effort::Quick => &[(4, 20), (8, 10), (16, 5), (64, 2)],
        Effort::Full => &[(4, 50), (8, 20), (16, 10), (64, 3)],
    };
    let cfg = experiment_config();
    let mut t = Table::new(&["k", "nodes", "edges", "mean heuristic time (s)", "normalized"]);
    let mut first: Option<f64> = None;
    for &(k, iters) in plans {
        let ft = FatTree::with_default_links(k);
        let mut times = Vec::new();
        for i in 0..iters {
            let nmdb = random_nmdb(&ft.graph, &cfg, &experiment_params(), seed + i as u64);
            let (_, d) = timed(|| heuristic(&nmdb, &cfg));
            times.push(d);
        }
        let mean = mean_secs(&times);
        let norm = *first.get_or_insert(mean.max(1e-12));
        t.row(&[
            k.to_string(),
            ft.node_count().to_string(),
            ft.edge_count().to_string(),
            format!("{mean:.5}"),
            format!("{:.0}x", mean / norm),
        ]);
    }
    format!(
        "Fig. 12 — heuristic runtime vs scale\n{}\n\
         paper: 124 s at 5120 nodes (Python); ours is faster in absolute terms —\n\
         compare the growth across scales, which tracks |V|+|E| as in the paper.\n",
        t.render()
    )
}

/// Extension experiment — fleet scale-out: every edge switch of a fat-tree
/// runs the ten-agent deployment and DUST drains them simultaneously.
pub fn fleet(seed: u64, effort: Effort) -> String {
    let plans: &[(usize, u64)] = match effort {
        Effort::Quick => &[(4, 90_000), (8, 90_000)],
        Effort::Full => &[(4, 180_000), (8, 180_000), (16, 120_000)],
    };
    let mut t = Table::new(&[
        "k",
        "monitored",
        "transfers",
        "early mean CPU (%)",
        "settled mean CPU (%)",
        "still busy",
    ]);
    for &(k, duration) in plans {
        let r = dust::sim::scenarios::fleet(k, duration, seed);
        t.row(&[
            k.to_string(),
            r.monitored.to_string(),
            r.transfers.to_string(),
            format!("{:.1}", r.early_mean_cpu),
            format!("{:.1}", r.late_mean_cpu),
            r.still_busy.to_string(),
        ]);
    }
    format!(
        "Extension — fleet offload at scale (all edge switches monitored)
{}
         the abstract's 'savings in computing at scale': settled CPU sits well below the
         pre-offload mean across the whole monitored fleet.
",
        t.render()
    )
}

/// Extension experiment — QoS under congestion (§III-C): offloaded
/// telemetry is squeezed out as the fabric saturates, data plane first.
pub fn congestion(seed: u64, effort: Effort) -> String {
    let duration = match effort {
        Effort::Quick => 120_000,
        Effort::Full => 300_000,
    };
    let r = dust::sim::scenarios::congestion(duration, seed);
    let mut t = Table::new(&["phase", "telemetry dropped (fraction)", "admitted (Mbps)"]);
    t.row(&["20 % load".into(), format!("{:.3}", r.dropped_before), "—".into()]);
    t.row(&[
        "99.9 % squeeze".into(),
        format!("{:.3}", r.dropped_during_congestion),
        format!("{:.1}", r.admitted_during),
    ]);
    format!(
        "Extension — QoS guarantee under congestion (offloaded telemetry is lowest class)
{}
         §III-C: monitoring data 'can be safely discarded in the event of network congestion';
         the data plane is never displaced by telemetry (see dust-proto::qos).
",
        t.render()
    )
}

/// Extension — INT-style per-packet sampling: deterministic `1/N`
/// versus seeded probabilistic `p` at matched expected fractions. The
/// realized report rate and the agent's modeled CPU cost must agree
/// between the two modes; only the per-packet decision sequence differs.
pub fn int_contrast(seed: u64, effort: Effort) -> String {
    use dust::telemetry::IntSampling;
    let pkts: u64 = match effort {
        Effort::Quick => 100_000,
        Effort::Full => 1_000_000,
    };
    let mut t = Table::new(&[
        "sampling",
        "expected fraction",
        "realized reports/pkt",
        "agent CPU (%, 20% traffic)",
    ]);
    for (n, p) in [(1u32, 1.0f64), (2, 0.5), (4, 0.25), (8, 0.125)] {
        for mode in [IntSampling::Deterministic { n }, IntSampling::Probabilistic { p }] {
            let realized = mode.sampler(seed).reports_for(pkts) as f64 / pkts as f64;
            let agent = MonitorAgent::int(mode);
            let label = match mode {
                IntSampling::Deterministic { n } => format!("det 1/{n}"),
                IntSampling::Probabilistic { p } => format!("prob p={p}"),
            };
            t.row(&[
                label,
                format!("{:.4}", mode.fraction()),
                format!("{:.4}", realized),
                format!("{:.2}", agent.cpu_percent(0.2)),
            ]);
        }
    }
    format!(
        "Extension — INT sampling: deterministic 1/N vs probabilistic p ({pkts} pkts)\n{}\n\
         matched fractions cost the same CPU; deterministic realizes ceil(pkts/N)/pkts\n\
         exactly while probabilistic converges binomially (`sim --scenario int_burst`\n\
         runs both agent flavors on the DUT and is digest-pinned in tests/golden_trace.rs).\n",
        t.render()
    )
}

/// Extension — the `zone_storm` registry scenario across a seed ladder:
/// CPU-cascade storm kills, a pod-wide zone outage, revival, and the
/// re-convergence the SLO spec gates in CI.
pub fn zone_storm(seed: u64, effort: Effort) -> String {
    use dust::sim::registry::{self, ScenarioKnobs};
    let runs = match effort {
        Effort::Quick => 4,
        Effort::Full => 10,
    };
    let sc = registry::find("zone_storm").expect("registered scenario");
    let mut t = Table::new(&[
        "seed",
        "cascades",
        "killed",
        "revived",
        "transfers",
        "first offload (ms)",
        "slo",
    ]);
    for i in 0..runs {
        let s = seed.wrapping_add(i);
        let knobs =
            ScenarioKnobs { obs: dust::obs::ObsHandle::recording(s), ..ScenarioKnobs::seeded(s) };
        let run = sc.run(&knobs).expect("zone_storm builds");
        t.row(&[
            format!("{s}"),
            format!("{}", knobs.obs.counter("sim.storm_cascades")),
            format!("{}", knobs.obs.counter("sim.nodes_killed")),
            format!("{}", knobs.obs.counter("sim.nodes_revived")),
            format!("{}", run.report.transfers_applied),
            run.report.first_transfer_ms.map_or("never".into(), |ms| format!("{ms}")),
            if run.breached() { "BREACH".into() } else { "pass".to_string() },
        ]);
    }
    format!(
        "Extension — zone_storm convergence ladder ({} seeds, {} s each)\n{}\n\
         every seed must converge (offload despite the storm) and pass the\n\
         attached spec `{}` — the same gate CI runs via `dustctl sim --scenario`.\n",
        runs,
        sc.default_duration_ms / 1000,
        t.render(),
        sc.slo_spec
    )
}

/// DESIGN.md's three "design choices to ablate", one table each:
/// enumerated vs hop-bounded DP `T_rmin` rows, the transportation solver vs the
/// reference simplex (wall-clock plus the deterministic pivot census), and
/// the heuristic's 1/2/4-hop reach.
pub fn ablations(seed: u64, effort: Effort) -> String {
    use dust::lp::{solve, Problem, TransportProblem};
    let reps = match effort {
        Effort::Quick => 10,
        Effort::Full => 50,
    };
    fn mean_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
        let times: Vec<_> = (0..reps).map(|_| std::hint::black_box(timed(&mut f)).1).collect();
        mean_secs(&times)
    }

    // 1. T_rmin rows of 4 busy edge switches
    let mut paths = Table::new(&["k", "max-hop", "enumerate (ms)", "DP (ms)", "DP speedup"]);
    for (k, max_hop) in [(4usize, 6usize), (4, 8), (8, 4), (8, 6)] {
        let ft = FatTree::with_default_links(k);
        let sources: Vec<NodeId> = ft.tier_nodes(Tier::Edge).iter().copied().take(4).collect();
        let hop = Some(max_hop);
        let enumerate = mean_of(reps, || {
            sources
                .iter()
                .map(|&s| min_inv_lu_enumerated_row(&ft.graph, s, hop))
                .collect::<Vec<_>>()
        });
        let dp = mean_of(reps, || CostEngine::with_threads(1).rows(&ft.graph, &sources, hop));
        paths.row(&[
            k.to_string(),
            max_hop.to_string(),
            format!("{:.3}", enumerate * 1e3),
            format!("{:.3}", dp * 1e3),
            format!("{:.1}x", enumerate / dp.max(1e-12)),
        ]);
    }

    // 2. the transportation solver against the reference simplex on 32
    // seeded placement-shaped instances per size:
    // m supplies, n generous capacities, uniform random costs. Pivot
    // quantiles come from the runtime's own log-scale histogram.
    let mut solvers = Table::new(&[
        "instance",
        "transportation (us)",
        "simplex (us)",
        "transportation pivots p50/p95/max",
        "simplex pivots p50/p95/max",
    ]);
    for (m, n) in [(4usize, 8usize), (10, 20), (25, 50)] {
        let (mut t_times, mut s_times) = (Vec::new(), Vec::new());
        let (mut t_pivots, mut s_pivots) = (Histogram::new(), Histogram::new());
        for instance in 0..32u64 {
            let mut rng = SplitMix64::new(instance * 7 + 1);
            let supply: Vec<f64> = (0..m).map(|_| rng.range_f64(1.0, 20.0)).collect();
            let total: f64 = supply.iter().sum();
            let capacity: Vec<f64> =
                (0..n).map(|_| rng.range_f64(0.5, 2.0) * total / n as f64 * 1.5).collect();
            let cost: Vec<f64> = (0..m * n).map(|_| rng.range_f64(0.01, 10.0)).collect();
            let lp = Problem::transportation(&supply, &capacity, &cost);
            let tp = TransportProblem::new(supply, capacity, cost);
            let (t, dt) = timed(|| tp.solve());
            let (s, ds) = timed(|| solve(&lp));
            t_times.push(dt);
            s_times.push(ds);
            t_pivots.record(t.iterations as f64);
            s_pivots.record(s.iterations as f64);
        }
        let census = |h: &Histogram| {
            let at = |q| h.quantile(q).unwrap_or(0.0);
            format!("{:.0} / {:.0} / {:.0}", at(0.5), at(0.95), h.max().unwrap_or(0.0))
        };
        solvers.row(&[
            format!("{m}x{n}"),
            format!("{:.1}", mean_secs(&t_times) * 1e6),
            format!("{:.1}", mean_secs(&s_times) * 1e6),
            census(&t_pivots),
            census(&s_pivots),
        ]);
    }

    // 3. heuristic reach on one seeded NMDB per fabric
    let mut reach = Table::new(&["k", "hops", "mean time (ms)", "HFR (%)"]);
    let cfg = experiment_config();
    for k in [8usize, 16] {
        let ft = FatTree::with_default_links(k);
        let nmdb = random_nmdb(&ft.graph, &cfg, &experiment_params(), seed);
        for hops in [1usize, 2, 4] {
            let run = || heuristic_with(&nmdb, &cfg, hops, &mut CostEngine::new()).unwrap();
            let hfr = run().hfr_percent();
            let secs = mean_of(reps, run);
            reach.row(&[
                k.to_string(),
                hops.to_string(),
                format!("{:.3}", secs * 1e3),
                format!("{hfr:.2}"),
            ]);
        }
    }

    format!(
        "Ablation 1 — T_rmin rows of 4 busy edge switches: exhaustive enumeration vs hop-bounded DP (mean of {reps})\n{}\n\
         Ablation 2 — transportation (VAM+MODI) vs general simplex, 32 seeded instances per size\n{}\n\
         pivot counts are deterministic; times are this machine's.\n\n\
         Ablation 3 — heuristic reach: Algorithm 1's one hop vs 2 and 4 (mean of {reps})\n{}",
        paths.render(),
        solvers.render(),
        reach.render()
    )
}

/// A subcommand of the `experiments` binary: its name, the one-line
/// summary the usage text prints, and the routine that renders it.
pub type Figure = (&'static str, &'static str, fn(u64, Effort) -> String);

/// Every experiment, in the order `all` runs them. Dispatch, `all` and
/// the usage text are all derived from this one table.
pub const FIGURES: &[Figure] = &[
    ("fig1", "monitoring-module CPU vs VxLAN traffic (testbed sim)", fig1),
    ("fig6", "local vs DUST resource utilization (testbed sim)", fig6),
    ("fig7", "infeasible-optimization rate vs delta_io (4-k)", fig7),
    ("fig8", "busy-row enumeration plus exact solve vs max-hop, 4-k", fig8),
    ("fig9", "heuristic success split vs ILP (4-k)", fig9),
    ("fig10", "busy-row enumeration plus exact solve vs max-hop, 8-k and 16-k", fig10),
    ("fig11", "HFR and busy-row enumeration plus exact solve vs network scale", fig11),
    ("fig12", "heuristic runtime vs scale (to 5120 nodes)", fig12),
    ("fleet", "extension: all edge switches offload simultaneously", fleet),
    ("congestion", "extension: QoS squeeze on offloaded telemetry", congestion),
    ("int", "extension: INT sampling, deterministic 1/N vs probabilistic p", int_contrast),
    ("storm", "extension: zone_storm scenario convergence ladder", zone_storm),
    (
        "ablations",
        "DESIGN.md's design choices: enumerated vs DP rows, LP solver vs reference, heuristic reach",
        ablations,
    ),
];

/// Run every figure in order.
pub fn all(seed: u64, effort: Effort) -> String {
    FIGURES.iter().map(|(_, _, run)| run(seed, effort)).collect::<Vec<_>>().join("\n")
}
