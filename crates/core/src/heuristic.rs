//! Algorithm 1: the one-hop min-cost heuristic and its HFR metric (Eq. 4).
//!
//! For every Busy node the heuristic restricts Offload-candidates to those
//! within the configured reach and solves the per-node minimum-cost
//! subproblem. The published algorithm is `DustConfig::max_hop =
//! Some(1)`, the node's **directly connected neighbors**; a wider bound is
//! ablation 3 in DESIGN.md, and `None` is unbounded. Excess that found no
//! home within the reach is recorded as `Cse_i`; the Heuristic Failure
//! Rate is `HFR = Σ Cse_i / Σ Cs_i` (Eq. 4).
//!
//! Candidate capacity is consumed in Busy-node order (ascending id), so a
//! candidate in reach of two Busy nodes cannot be double-booked; the whole
//! procedure is deterministic. Pricing and routing are the exact round's
//! ([`optimize_with`](crate::optimize_with)); only the solve differs.

use crate::config::DustConfig;
use crate::error::DustError;
use crate::optimizer::{price_round, route_cells, Assignment, PlacementLp, Round};
use crate::state::Nmdb;
use dust_topology::{CostEngine, NodeId};
use std::time::{Duration, Instant};

/// Result of one heuristic round.
#[derive(Debug, Clone)]
pub struct HeuristicOutcome {
    /// Accepted offload decisions (may cover only part of the excess).
    pub assignments: Vec<Assignment>,
    /// Per-busy-node leftover `Cse_i` that found no home within the reach.
    pub residual: Vec<(NodeId, f64)>,
    /// `Σ Cs_i` — total excess the round had to place.
    pub total_cs: f64,
    /// `Σ Cse_i` — total excess that failed to place.
    pub total_cse: f64,
    /// Objective contribution `Σ x_ij · Tr(i,j)` of the accepted moves.
    pub beta: f64,
    /// Wall time of the whole heuristic round.
    pub elapsed: Duration,
}

impl HeuristicOutcome {
    /// Heuristic Failure Rate in percent (Eq. 4). Zero when there was
    /// nothing to offload.
    pub fn hfr_percent(&self) -> f64 {
        if self.total_cs <= 0.0 {
            0.0
        } else {
            100.0 * self.total_cse / self.total_cs
        }
    }

    /// True when every Busy node was fully offloaded.
    pub fn fully_offloaded(&self) -> bool {
        self.total_cse <= 1e-9
    }

    /// True when no excess at all could be placed (and there was some).
    pub fn nothing_offloaded(&self) -> bool {
        self.total_cs > 1e-9 && (self.total_cs - self.total_cse).abs() <= 1e-9
    }
}

/// Algorithm 1 with a caller's [`CostEngine`]: candidates within
/// `cfg.max_hop` of each Busy node. `Some(1)` is the published algorithm;
/// a wider reach trades runtime for a lower HFR (ablation 3 in DESIGN.md).
///
/// The round is priced and routed as [`optimize_with`](crate::optimize_with)'s
/// is — one `T_rmin` matrix from `engine` (rows priced in parallel and
/// memoized per graph epoch, so a round on an unchanged graph prices
/// nothing twice), and one pruned DP per Busy row for the routes of its
/// accepted moves. Only the solve differs: each Busy row in turn takes
/// its cheapest candidates' remaining capacity, which is optimal for a
/// single source (the per-node transportation LP of Algorithm 1 line 8).
pub fn heuristic_with(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    engine: &mut CostEngine,
) -> Result<HeuristicOutcome, DustError> {
    cfg.validate().map_err(DustError::BadConfig)?;
    let t0 = Instant::now();
    let Round { busy, candidates, lp, .. } = price_round(nmdb, cfg, engine);
    let lp = lp.unwrap_or_else(|| PlacementLp::with_rows(0, Vec::new()));
    let PlacementLp { supply, capacity: mut spare, row_start, columns, t_rmin } = lp;

    let (mut shipped, mut priced) = (Vec::new(), Vec::new());
    let mut residual = Vec::new();
    let (mut total_cs, mut total_cse) = (0.0, 0.0);
    let mut beta = 0.0;
    for (r, (&b, at)) in busy.iter().zip(row_start.windows(2)).enumerate() {
        let at = at[0] as usize..at[1] as usize;
        // the row's candidates with capacity left, cheapest first
        priced.clear();
        let row = t_rmin[at.clone()].iter().zip(&columns[at]);
        priced.extend(row.map(|(&t, &c)| (t, c as usize)).filter(|&(_, c)| spare[c] > 1e-12));
        priced.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut cs = supply[r];
        total_cs += cs;
        for &(t, c) in &priced {
            if cs <= 1e-12 {
                break;
            }
            let take = cs.min(spare[c]);
            if take <= 1e-12 {
                continue;
            }
            spare[c] -= take;
            cs -= take;
            beta += take * t;
            shipped.push((r, c, take, t));
        }
        if cs > 1e-12 {
            residual.push((b, cs));
            total_cse += cs;
        }
    }
    let assignments = route_cells(nmdb, cfg, engine, &busy, &candidates, &shipped);

    Ok(HeuristicOutcome { assignments, residual, total_cs, total_cse, beta, elapsed: t0.elapsed() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::heuristic;
    use crate::state::NodeState;
    use dust_topology::{topologies, Graph, Link};

    fn cfg() -> DustConfig {
        DustConfig::paper_defaults().with_max_hop(Some(1)) // c_max 80, co_max 50
    }

    #[test]
    fn one_hop_neighbor_takes_all() {
        // 0 (busy, 90) - 1 (candidate, 20): excess 10, spare 30
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(90.0, 10.0), NodeState::new(20.0, 1.0)]);
        let h = heuristic(&db, &cfg());
        assert!(h.fully_offloaded());
        assert_eq!(h.hfr_percent(), 0.0);
        assert_eq!(h.assignments.len(), 1);
        assert!((h.assignments[0].amount - 10.0).abs() < 1e-9);
        assert_eq!(h.assignments[0].route.as_ref().unwrap().hops(), 1);
    }

    #[test]
    fn two_hop_candidate_is_invisible_to_paper_heuristic() {
        // 0 (busy) - 1 (neutral) - 2 (candidate): heuristic fails fully
        let g = topologies::line(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(90.0, 10.0), NodeState::new(60.0, 1.0), NodeState::new(20.0, 1.0)],
        );
        let h = heuristic(&db, &cfg());
        assert!(h.nothing_offloaded());
        assert!((h.hfr_percent() - 100.0).abs() < 1e-9);
        // ...but the generalized 2-hop variant succeeds, and a partial
        // outcome is data, not an error
        let mut engine = CostEngine::new();
        assert!(heuristic_with(&db, &cfg(), &mut engine).unwrap().nothing_offloaded());
        let h2 = heuristic_with(&db, &cfg().with_max_hop(Some(2)), &mut engine).unwrap();
        let placed: f64 = h2.assignments.iter().map(|a| a.amount).sum();
        assert!(h2.fully_offloaded() && (placed - 10.0).abs() < 1e-9);
    }

    #[test]
    fn partial_offload_counts_residual() {
        // busy with 20 excess, single neighbor with 5 spare
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(100.0, 10.0), NodeState::new(45.0, 1.0)]);
        let h = heuristic(&db, &cfg());
        assert!(!h.fully_offloaded());
        assert!(!h.nothing_offloaded());
        assert!((h.total_cse - 15.0).abs() < 1e-9);
        assert!((h.hfr_percent() - 75.0).abs() < 1e-9);
        assert_eq!(h.residual, vec![(NodeId(0), 15.0)]);
    }

    #[test]
    fn shared_candidate_not_double_booked() {
        // two busy leaves (5 excess each) around one candidate hub with 6 spare
        let g = topologies::star(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(44.0, 1.0), NodeState::new(85.0, 10.0), NodeState::new(85.0, 10.0)],
        );
        let h = heuristic(&db, &cfg());
        let absorbed: f64 = h.assignments.iter().map(|a| a.amount).sum();
        assert!((absorbed - 6.0).abs() < 1e-9, "hub only holds 6");
        assert!((h.total_cse - 4.0).abs() < 1e-9);
        // deterministic: first busy node (id 1) fills first
        assert!((h.assignments[0].amount - 5.0).abs() < 1e-9);
        assert_eq!(h.assignments[0].from, NodeId(1));
    }

    #[test]
    fn cheapest_neighbor_fills_first() {
        // busy center, two candidates: fast link to 1, slow to 2
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Link::new(10_000.0, 0.9));
        g.add_edge(NodeId(0), NodeId(2), Link::new(100.0, 0.5));
        let db = Nmdb::new(
            g,
            vec![
                NodeState::new(85.0, 10.0),
                NodeState::new(48.0, 1.0), // spare 2
                NodeState::new(20.0, 1.0), // spare 30
            ],
        );
        let h = heuristic(&db, &cfg());
        assert!(h.fully_offloaded());
        assert_eq!(h.assignments[0].to, NodeId(1), "cheap route first");
        assert!((h.assignments[0].amount - 2.0).abs() < 1e-9);
        assert_eq!(h.assignments[1].to, NodeId(2));
        assert!((h.assignments[1].amount - 3.0).abs() < 1e-9);
    }

    #[test]
    fn no_busy_nodes_is_trivial_success() {
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(10.0, 1.0), NodeState::new(10.0, 1.0)]);
        let h = heuristic(&db, &cfg());
        assert_eq!(h.hfr_percent(), 0.0);
        assert!(h.fully_offloaded());
        assert!(!h.nothing_offloaded());
        assert!(h.assignments.is_empty());
    }

    #[test]
    fn busy_neighbor_is_not_a_candidate() {
        // two adjacent busy nodes, no candidates
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(90.0, 1.0), NodeState::new(95.0, 1.0)]);
        let h = heuristic(&db, &cfg());
        assert!(h.nothing_offloaded());
        assert!((h.hfr_percent() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn beta_consistent_with_assignments() {
        let g = topologies::star(4, Link::default());
        let db = Nmdb::new(
            g,
            vec![
                NodeState::new(90.0, 25.0),
                NodeState::new(45.0, 1.0),
                NodeState::new(30.0, 1.0),
                NodeState::new(70.0, 1.0),
            ],
        );
        // hub busy; candidates are leaves 1 and 2 — but they're 1 hop away
        let h = heuristic(&db, &cfg());
        let recomputed: f64 = h.assignments.iter().map(|a| a.amount * a.t_rmin).sum();
        assert!((h.beta - recomputed).abs() < 1e-9);
        assert!(h.fully_offloaded());
    }

    #[test]
    fn a_cold_round_looks_up_each_busy_row_once() {
        let ft = dust_topology::FatTree::with_default_links(4);
        let c = cfg().with_max_hop(Some(2));
        let db = crate::scenario::random_nmdb(&ft.graph, &c, &crate::ScenarioParams::default(), 3);
        let busy = db.busy_nodes(&c);
        assert!(!busy.is_empty());
        let obs = dust_obs::ObsHandle::recording(0);
        let mut engine = CostEngine::new().with_obs(obs.clone());
        heuristic_with(&db, &c, &mut engine).unwrap();
        assert_eq!(obs.counter("cost.cache_misses"), busy.len() as u64);
        assert_eq!(obs.counter("cost.cache_hits"), 0);
    }

    #[test]
    fn zero_hops_rejected() {
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(90.0, 1.0), NodeState::new(10.0, 1.0)]);
        let zero = cfg().with_max_hop(Some(0));
        let err = heuristic_with(&db, &zero, &mut CostEngine::new()).unwrap_err();
        assert!(
            matches!(&err, DustError::BadConfig(msg) if msg.contains("max_hop of 0")),
            "{err:?}"
        );
    }
}
