//! One-shot placement requests: the exact LP and Algorithm 1 on one
//! snapshot, each priced with a fresh [`CostEngine`].
//!
//! [`optimize`] and [`heuristic`] call [`optimize_with`] and
//! [`heuristic_with`] with `CostEngine::new()`, so a request shares no
//! cached rows with any other. Callers that run rounds (the Manager,
//! `dustctl place --warm`) or want Algorithm 1 with more than one hop of
//! reach call the `_with` functions with an engine of their own instead:
//!
//! ```
//! use dust_core::{heuristic_with, optimize, DustConfig, Nmdb, NodeState};
//! use dust_topology::{topologies, CostEngine, Link};
//!
//! let g = topologies::line(3, Link::default());
//! let nmdb = Nmdb::new(g, vec![
//!     NodeState::new(92.0, 150.0),
//!     NodeState::new(60.0, 10.0),
//!     NodeState::new(25.0, 10.0),
//! ]);
//! let cfg = DustConfig::paper_defaults().with_max_hop(Some(10));
//! let p = optimize(&nmdb, &cfg);
//! assert!((p.total_offloaded() - 12.0).abs() < 1e-6);
//! // the candidate is two hops away: Algorithm 1 needs that much reach
//! let h = heuristic_with(&nmdb, &cfg, 2, &CostEngine::new()).unwrap();
//! assert!(h.fully_offloaded());
//! ```

use crate::config::DustConfig;
use crate::heuristic::{heuristic_with, HeuristicOutcome};
use crate::optimizer::{optimize_with, Placement, PlacementStatus};
use crate::state::Nmdb;
use dust_topology::CostEngine;

/// Run the optimization engine on a snapshot, pricing with a fresh
/// [`CostEngine`]. Use [`optimize_with`] to share an engine across
/// rounds, warm-start, or see a solve failure as a typed
/// [`DustError`](crate::DustError).
///
/// # Panics
/// Panics when `cfg` is invalid.
pub fn optimize(nmdb: &Nmdb, cfg: &DustConfig) -> Placement {
    cfg.validate().expect("invalid DustConfig");
    // The pivot cap is not known to be reachable; fold it into the one
    // failure the status enum can express.
    optimize_with(nmdb, cfg, &CostEngine::new(), None).unwrap_or_else(|_| {
        let (busy, candidates) = (nmdb.busy_nodes(cfg), nmdb.candidate_nodes(cfg));
        Placement::unsolved(PlacementStatus::Infeasible, busy, candidates)
    })
}

/// Run Algorithm 1 with the paper's one-hop candidate restriction,
/// pricing with a fresh [`CostEngine`]. [`heuristic_with`] takes a wider
/// reach, shares an engine across rounds and returns a bad config as a
/// typed error.
///
/// # Panics
/// Panics when `cfg` is invalid.
pub fn heuristic(nmdb: &Nmdb, cfg: &DustConfig) -> HeuristicOutcome {
    heuristic_with(nmdb, cfg, 1, &CostEngine::new()).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DustError;
    use crate::state::NodeState;
    use dust_topology::{topologies, Link};

    fn cfg() -> DustConfig {
        DustConfig::paper_defaults()
    }

    /// Line 0-1-2 where node 0 is busy and node 2 is a candidate.
    fn simple_nmdb() -> Nmdb {
        let g = topologies::line(3, Link::default());
        Nmdb::new(
            g,
            vec![
                NodeState::new(90.0, 100.0),
                NodeState::new(60.0, 10.0),
                NodeState::new(20.0, 10.0),
            ],
        )
    }

    #[test]
    fn thread_counts_do_not_change_the_answer() {
        let db = simple_nmdb();
        let base = optimize(&db, &cfg());
        for n in [1usize, 2, 4, 8] {
            let engine = CostEngine::with_threads(n);
            let p = optimize_with(&db, &cfg(), &engine, None).unwrap();
            assert_eq!(p.beta.to_bits(), base.beta.to_bits(), "threads {n}");
            assert_eq!(engine.threads(), n);
        }
    }

    #[test]
    fn bad_config_is_typed() {
        // the one-shot requests panic on it; the engine-taking entry
        // points they call return it as data
        let db = simple_nmdb();
        let bad = cfg().with_thresholds(60.0, 70.0, 5.0);
        let engine = CostEngine::new();
        let err = optimize_with(&db, &bad, &engine, None).unwrap_err();
        assert!(matches!(err, DustError::BadConfig(_)));
        let err = heuristic_with(&db, &bad, 1, &engine).unwrap_err();
        assert!(matches!(err, DustError::BadConfig(_)));
    }

    #[test]
    fn heuristic_strategy_reports_partial_outcomes_as_data() {
        // two-hop candidate is invisible at one hop: 100% HFR, still a result
        let db = simple_nmdb();
        assert!(heuristic(&db, &cfg()).nothing_offloaded());
        // the generalized reach succeeds
        let h = heuristic_with(&db, &cfg(), 2, &CostEngine::new()).unwrap();
        assert!(h.fully_offloaded());
        let placed: f64 = h.assignments.iter().map(|a| a.amount).sum();
        assert!((placed - 10.0).abs() < 1e-9);
    }

    #[test]
    fn shared_engine_reuses_rows_across_strategies() {
        let db = simple_nmdb();
        let c = cfg().with_max_hop(Some(2));
        let engine = CostEngine::with_threads(2);
        let lp = optimize_with(&db, &c, &engine, None).unwrap();
        let cached = engine.cached_rows();
        assert!(cached > 0, "the solve must populate the shared cache");
        let again = optimize_with(&db, &c, &engine, None).unwrap();
        assert_eq!(engine.cached_rows(), cached, "second solve must be all cache hits");
        assert_eq!(lp.beta.to_bits(), again.beta.to_bits());
        // Algorithm 1 at the same reach reads the rows the LP priced
        let h = heuristic_with(&db, &c, 2, &engine).unwrap();
        assert_eq!(engine.cached_rows(), cached, "the heuristic must reuse the LP's rows");
        assert!(h.fully_offloaded());
        assert_eq!(h.assignments.len(), lp.assignments.len());
    }
}
