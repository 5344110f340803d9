//! Heuristic-vs-optimization success classification (Fig. 9).
//!
//! For every random network state the paper compares Algorithm 1 with the
//! full optimization and buckets the outcome: the heuristic offloaded
//! **all** overloaded nodes (18.37 % of iterations), offloaded **none**
//! while the optimization succeeded (6.13 %), or offloaded **part** of the
//! excess with the optimization placing the rest (75.5 %).

use crate::config::DustConfig;
use crate::optimizer::PlacementStatus;
use crate::request::{heuristic, optimize};
use crate::state::Nmdb;

/// Bucket for one iteration's heuristic-vs-optimization comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuccessClass {
    /// Heuristic fully offloaded every Busy node (one-hop sufficed).
    HeuristicFull,
    /// Heuristic placed some but not all excess.
    HeuristicPartial,
    /// Heuristic placed nothing; the optimization found a placement.
    HeuristicNone,
    /// Even the optimization was infeasible (excluded from Fig. 9's split,
    /// tracked separately — this is Fig. 7 territory).
    OptimizationInfeasible,
    /// No Busy node appeared; nothing to compare.
    NoBusyNodes,
}

/// Tallies over many iterations.
#[derive(Debug, Clone, Default)]
pub struct SuccessTally {
    /// Iterations where the heuristic fully offloaded.
    pub full: usize,
    /// Iterations where it partially offloaded.
    pub partial: usize,
    /// Iterations where it offloaded nothing but optimization succeeded.
    pub none: usize,
    /// Iterations where the optimization itself was infeasible.
    pub infeasible: usize,
    /// Iterations with no Busy nodes.
    pub trivial: usize,
}

impl SuccessTally {
    /// Iterations that Fig. 9 buckets (optimization feasible, busy nodes
    /// present).
    pub fn comparable(&self) -> usize {
        self.full + self.partial + self.none
    }

    /// Percentages `(full, partial, none)` over comparable iterations.
    pub fn percentages(&self) -> (f64, f64, f64) {
        let n = self.comparable().max(1) as f64;
        (
            100.0 * self.full as f64 / n,
            100.0 * self.partial as f64 / n,
            100.0 * self.none as f64 / n,
        )
    }

    /// Record one classified iteration.
    pub fn record(&mut self, class: SuccessClass) {
        match class {
            SuccessClass::HeuristicFull => self.full += 1,
            SuccessClass::HeuristicPartial => self.partial += 1,
            SuccessClass::HeuristicNone => self.none += 1,
            SuccessClass::OptimizationInfeasible => self.infeasible += 1,
            SuccessClass::NoBusyNodes => self.trivial += 1,
        }
    }
}

/// Classify one network state by running both algorithms on it.
pub fn classify_iteration(nmdb: &Nmdb, cfg: &DustConfig) -> SuccessClass {
    let opt = optimize(nmdb, cfg);
    match opt.status {
        PlacementStatus::NoBusyNodes => return SuccessClass::NoBusyNodes,
        PlacementStatus::Infeasible => return SuccessClass::OptimizationInfeasible,
        PlacementStatus::Optimal => {}
    }
    let h = heuristic(nmdb, cfg);
    if h.fully_offloaded() {
        SuccessClass::HeuristicFull
    } else if h.nothing_offloaded() {
        SuccessClass::HeuristicNone
    } else {
        SuccessClass::HeuristicPartial
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario_stream, ScenarioParams};
    use crate::state::NodeState;
    use dust_topology::{topologies, FatTree, Link};

    fn cfg() -> DustConfig {
        DustConfig::paper_defaults()
    }

    #[test]
    fn full_when_one_hop_suffices() {
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(90.0, 1.0), NodeState::new(20.0, 1.0)]);
        assert_eq!(classify_iteration(&db, &cfg()), SuccessClass::HeuristicFull);
    }

    #[test]
    fn none_when_candidate_beyond_one_hop() {
        let g = topologies::line(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(90.0, 1.0), NodeState::new(60.0, 1.0), NodeState::new(20.0, 1.0)],
        );
        assert_eq!(classify_iteration(&db, &cfg()), SuccessClass::HeuristicNone);
    }

    #[test]
    fn partial_when_neighbor_too_small() {
        // neighbor takes 5 of 20; remote candidate absorbs the rest for the ILP
        let g = topologies::line(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![
                NodeState::new(100.0, 1.0),
                NodeState::new(45.0, 1.0), // spare 5, adjacent
                NodeState::new(5.0, 1.0),  // spare 45, two hops
            ],
        );
        assert_eq!(classify_iteration(&db, &cfg()), SuccessClass::HeuristicPartial);
    }

    #[test]
    fn infeasible_and_trivial_classes() {
        let g = topologies::line(2, Link::default());
        let infeasible =
            Nmdb::new(g.clone(), vec![NodeState::new(99.0, 1.0), NodeState::new(49.5, 1.0)]);
        assert_eq!(classify_iteration(&infeasible, &cfg()), SuccessClass::OptimizationInfeasible);
        let trivial = Nmdb::new(g, vec![NodeState::new(10.0, 1.0), NodeState::new(10.0, 1.0)]);
        assert_eq!(classify_iteration(&trivial, &cfg()), SuccessClass::NoBusyNodes);
    }

    #[test]
    fn tally_percentages_sum_to_100() {
        let mut t = SuccessTally::default();
        for c in [
            SuccessClass::HeuristicFull,
            SuccessClass::HeuristicPartial,
            SuccessClass::HeuristicPartial,
            SuccessClass::HeuristicNone,
            SuccessClass::OptimizationInfeasible,
            SuccessClass::NoBusyNodes,
        ] {
            t.record(c);
        }
        assert_eq!(t.comparable(), 4);
        let (f, p, n) = t.percentages();
        assert!((f + p + n - 100.0).abs() < 1e-9);
        assert!((f - 25.0).abs() < 1e-9);
        assert!((p - 50.0).abs() < 1e-9);
    }

    #[test]
    fn fat_tree_iterations_produce_mostly_partial_or_full() {
        // On the 4-k fat-tree with paper thresholds the dominant Fig. 9
        // bucket is 'partial'; assert the qualitative ordering on a small
        // sample: partial > none.
        let ft = FatTree::with_default_links(4);
        let c = cfg();
        let mut tally = SuccessTally::default();
        for db in scenario_stream(&ft.graph, &c, &ScenarioParams::default(), 21, 60) {
            tally.record(classify_iteration(&db, &c));
        }
        assert!(tally.comparable() > 0);
        assert!(
            tally.partial >= tally.none,
            "partial ({}) should dominate none ({})",
            tally.partial,
            tally.none
        );
    }
}
