//! Pins of the deterministic columns of the reproduced figures. Timings
//! stay out; what is pinned is what the seed alone decides.
//!
//! Fig. 7 runs `io_rate_sweep` exactly as `figures::fig7` does in quick
//! mode: the 4-k fat-tree, `C_max` 85, `CO_max` swept so that `Δ_io`
//! spans 0.8…3.5, `experiment_params()`, the default seed and 300
//! iterations. Each point pins its infeasible count and the bits of its
//! io rate, so a change to how the sweep prices `T_rmin` or solves Eq. 3
//! that moves a single iteration's status fails here.

use dust::prelude::*;
use dust_bench::{experiment_params, DEFAULT_SEED};

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
