//! Feasibility analysis: the `Δ_io` parameter and infeasible-optimization
//! rate (Eq. 5, Fig. 7).
//!
//! The optimization of Eq. 3 is infeasible when Busy excess exceeds what
//! reachable candidates can absorb. The paper introduces
//! `Δ_io = (CO_max − x_min) / (100 − C_max)` to let operators pick
//! thresholds where infeasibility is rare (recommendation: `Δ_io ≥ 2`).
//! This module provides a cheap *capacity precheck* and the Monte-Carlo
//! io-rate estimator behind Fig. 7.

use crate::config::DustConfig;
use crate::optimizer::{optimize_with, PlacementStatus};
use crate::scenario::{scenario_stream, ScenarioParams};
use crate::state::Nmdb;
use dust_topology::{CostEngine, Graph};

/// Aggregate-capacity precheck: `Σ Cs ≤ Σ Cd` is necessary (not
/// sufficient — routing/hop limits can still make Eq. 3 infeasible).
pub fn capacity_precheck(nmdb: &Nmdb, cfg: &DustConfig) -> bool {
    nmdb.total_cs(cfg) <= nmdb.total_cd(cfg) + 1e-9
}

/// One Fig. 7 measurement: thresholds, their `Δ_io`, and the observed
/// infeasible-optimization rate.
#[derive(Debug, Clone, Copy)]
pub struct IoRatePoint {
    /// Busy threshold used.
    pub c_max: f64,
    /// Candidate threshold used.
    pub co_max: f64,
    /// `Δ_io` for these thresholds (Eq. 5).
    pub delta_io: f64,
    /// Fraction of iterations whose optimization was infeasible, percent.
    pub io_rate_percent: f64,
    /// Iterations sampled.
    pub iterations: usize,
}

/// Estimate the infeasible-optimization rate for one configuration by
/// drawing `iterations` random network states (the paper's 1000-iteration
/// loop on the 4-k topology).
///
/// Iterations with no Busy node count as feasible (there is nothing to
/// place).
pub fn estimate_io_rate(
    graph: &Graph,
    cfg: &DustConfig,
    params: &ScenarioParams,
    seed: u64,
    iterations: usize,
) -> IoRatePoint {
    // One engine for the whole loop. Each iteration re-rolls link
    // utilizations (a fresh graph epoch), so rows never carry over between
    // iterations — a full refresh keeps only the current epoch to bound
    // cache memory.
    let mut engine = CostEngine::new();
    let mut infeasible = 0usize;
    for nmdb in scenario_stream(graph, cfg, params, seed, iterations) {
        engine.refresh(&nmdb.graph, None);
        let p = optimize_with(&nmdb, cfg, &mut engine, None)
            .expect("threshold configs are validated by the sweep caller");
        if p.status == PlacementStatus::Infeasible {
            infeasible += 1;
        }
    }
    IoRatePoint {
        c_max: cfg.c_max,
        co_max: cfg.co_max,
        delta_io: cfg.delta_io(),
        io_rate_percent: 100.0 * infeasible as f64 / iterations.max(1) as f64,
        iterations,
    }
}

/// Sweep a set of threshold pairs and report `(Δ_io, io rate)` for each —
/// the series Fig. 7 plots.
pub fn io_rate_sweep(
    graph: &Graph,
    base: &DustConfig,
    thresholds: &[(f64, f64)],
    params: &ScenarioParams,
    seed: u64,
    iterations: usize,
) -> Vec<IoRatePoint> {
    thresholds
        .iter()
        .map(|&(c_max, co_max)| {
            let cfg = base.with_thresholds(c_max, co_max, base.x_min);
            cfg.validate().expect("invalid threshold pair in sweep");
            estimate_io_rate(graph, &cfg, params, seed, iterations)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::NodeState;
    use dust_topology::{topologies, FatTree, Link};

    #[test]
    fn precheck_matches_totals() {
        let g = topologies::line(2, Link::default());
        let cfg = DustConfig::paper_defaults();
        let ok = Nmdb::new(g.clone(), vec![NodeState::new(85.0, 1.0), NodeState::new(20.0, 1.0)]);
        assert!(capacity_precheck(&ok, &cfg));
        let bad = Nmdb::new(g, vec![NodeState::new(99.0, 1.0), NodeState::new(49.5, 1.0)]);
        assert!(!capacity_precheck(&bad, &cfg));
    }

    #[test]
    fn io_rate_decreases_with_delta() {
        // Tight thresholds (small Δ_io) must be infeasible more often than
        // generous ones (large Δ_io) — the Fig. 7 anticorrelation.
        let ft = FatTree::with_default_links(4);
        let params = ScenarioParams::default();
        let base = DustConfig::paper_defaults();
        let tight = base.with_thresholds(75.0, 25.0, 5.0); // Δ = 0.8
        let loose = base.with_thresholds(90.0, 45.0, 5.0); // Δ = 4.0
        let r_tight = estimate_io_rate(&ft.graph, &tight, &params, 11, 60);
        let r_loose = estimate_io_rate(&ft.graph, &loose, &params, 11, 60);
        assert!(r_tight.delta_io < r_loose.delta_io);
        assert!(
            r_tight.io_rate_percent >= r_loose.io_rate_percent,
            "tight {} vs loose {}",
            r_tight.io_rate_percent,
            r_loose.io_rate_percent
        );
    }

    #[test]
    fn sweep_reports_each_pair() {
        let ft = FatTree::with_default_links(4);
        let base = DustConfig::paper_defaults();
        let pts = io_rate_sweep(
            &ft.graph,
            &base,
            &[(80.0, 40.0), (85.0, 45.0)],
            &ScenarioParams::default(),
            3,
            20,
        );
        assert_eq!(pts.len(), 2);
        assert!((pts[0].delta_io - (40.0 - 5.0) / 20.0).abs() < 1e-12);
        assert_eq!(pts[0].iterations, 20);
    }

    #[test]
    fn io_rate_zero_when_no_busy_possible() {
        // c_max = 100 means nodes are never Busy (U[x_min,100] hits 100 with
        // probability ~0) → io rate 0
        let ft = FatTree::with_default_links(4);
        let cfg = DustConfig::paper_defaults().with_thresholds(100.0, 50.0, 5.0);
        let r = estimate_io_rate(&ft.graph, &cfg, &ScenarioParams::default(), 5, 30);
        assert_eq!(r.io_rate_percent, 0.0);
    }
}
