//! Pins of the deterministic columns of the reproduced figures. Timings
//! stay out; what is pinned is what the seed alone decides.
//!
//! Fig. 7 runs `io_rate_sweep` exactly as `figures::fig7` does in quick
//! mode: the 4-k fat-tree, `C_max` 85, `CO_max` swept so that `Δ_io`
//! spans 0.8…3.5, `experiment_params()`, the default seed and 300
//! iterations. Each point pins its infeasible count and the bits of its
//! io rate, so a change to how the sweep prices `T_rmin` or solves Eq. 3
//! that moves a single iteration's status fails here.
//!
//! Figs. 6, 9 and 11a are computed the way `figures::fig6`, `fig9` and
//! `fig11` compute them in quick mode, at the default seed.

use dust::prelude::*;
use dust_bench::stats::power_law_fit;
use dust_bench::{experiment_config, experiment_params, DEFAULT_SEED};

#[test]
fn fig7_io_rates_are_pinned() {
    const ITERATIONS: usize = 300;
    let ft = FatTree::with_default_links(4);
    let base = DustConfig::paper_defaults()
        .with_engine(PathEngine::HopBoundedDp)
        .with_thresholds(85.0, 20.0, 5.0);
    let deltas = [0.8, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5];
    let sweep: Vec<(f64, f64)> = deltas.iter().map(|d| (85.0, 5.0 + d * 15.0)).collect();
    let pts =
        io_rate_sweep(&ft.graph, &base, &sweep, &experiment_params(), DEFAULT_SEED, ITERATIONS);

    // (infeasible iterations, io rate in percent as bits)
    let got: Vec<(usize, u64)> = pts
        .iter()
        .map(|p| {
            assert_eq!(p.iterations, ITERATIONS);
            let infeasible = (p.io_rate_percent * ITERATIONS as f64 / 100.0).round() as usize;
            (infeasible, p.io_rate_percent.to_bits())
        })
        .collect();
    // 66.3 / 43.3 / 14.0 / 3.7 / 1.0 / 0 / 0 %
    let want = [
        (199, 0x4050_9555_5555_5555),
        (130, 0x4045_AAAA_AAAA_AAAB),
        (42, 0x402C_0000_0000_0000),
        (11, 0x400D_5555_5555_5555),
        (3, 0x3FF0_0000_0000_0000),
        (0, 0),
        (0, 0),
    ];
    assert_eq!(got, want, "rates {:?}", pts.iter().map(|p| p.io_rate_percent).collect::<Vec<_>>());
    for (p, d) in pts.iter().zip(deltas) {
        assert!((p.delta_io - d).abs() < 1e-9, "Δ_io {} for {d}", p.delta_io);
    }
}

/// Fig. 6 as `figures::fig6` runs it in quick mode: the testbed over
/// 120 s, monitoring local against offloaded by DUST. Pins the transfer
/// count and the bits of both runs' mean DUT CPU and memory.
#[test]
fn fig6_testbed_contrast_is_pinned() {
    let r = dust::sim::registry::fig6_contrast(120_000, DEFAULT_SEED);
    assert_eq!(r.transfers, 6);
    // CPU 30.7 → 15.5 %, memory 69.5 → 62.0 %
    let got = [r.local_cpu, r.dust_cpu, r.local_mem, r.dust_mem].map(f64::to_bits);
    let want = [
        0x403E_AAAA_AAAA_AAAB,
        0x402F_0000_0000_0000,
        0x4051_6160_0000_0000,
        0x404F_0000_0000_0000,
    ];
    assert_eq!(got, want, "{r:?}");
}

/// Fig. 9 as `figures::fig9` runs it in quick mode: 200 iterations of
/// the 4-k fat-tree under `experiment_config()`, each classified by
/// whether Algorithm 1 fully, partly or not at all offloads.
#[test]
fn fig9_success_split_is_pinned() {
    let ft = FatTree::with_default_links(4);
    let cfg = experiment_config().with_engine(PathEngine::HopBoundedDp);
    let mut tally = SuccessTally::default();
    for nmdb in scenario_stream(&ft.graph, &cfg, &experiment_params(), DEFAULT_SEED, 200) {
        tally.record(classify_iteration(&nmdb, &cfg));
    }
    let got = (tally.full, tally.partial, tally.none, tally.infeasible, tally.trivial);
    assert_eq!(got, (24, 127, 10, 38, 1));
}

/// Fig. 11a as `figures::fig11` runs it in quick mode: Algorithm 1's mean
/// HFR on the 4/8/16/64-k fat-trees over 100/40/15/3 iterations, and the
/// power-law exponent fitted to HFR against node count.
#[test]
fn fig11a_hfr_is_pinned() {
    let cfg = experiment_config().with_engine(PathEngine::HopBoundedDp);
    let mut points = Vec::new();
    for (k, iterations) in [(4, 100), (8, 40), (16, 15), (64, 3)] {
        let ft = FatTree::with_default_links(k);
        let mut hfr = 0.0;
        for nmdb in scenario_stream(&ft.graph, &cfg, &experiment_params(), DEFAULT_SEED, iterations)
        {
            hfr += heuristic(&nmdb, &cfg).hfr_percent();
        }
        points.push((ft.node_count() as f64, hfr / iterations as f64));
    }
    // 46.23 / 27.09 / 17.66 / 6.54 %
    let got: Vec<u64> = points.iter().map(|p| p.1.to_bits()).collect();
    let want = [
        0x4047_1DE5_6975_2AB4,
        0x403B_179B_5AE4_097B,
        0x4031_A88D_0A23_35B9,
        0x401A_2CFC_F7DF_918F,
    ];
    assert_eq!(got, want, "{points:?}");
    let (_, exponent) = power_law_fit(&points).expect("four positive points");
    assert_eq!(exponent.to_bits(), 0xBFD6_5D75_2134_82E4, "exponent {exponent}");
}
