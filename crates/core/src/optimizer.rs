//! The DUST optimization engine: the min-cost placement of Eq. 3.
//!
//! Given an NMDB snapshot and thresholds, the engine
//!
//! 1. classifies Busy nodes `V_b` and Offload-candidates `V_o`,
//! 2. builds the `T_rmin` matrix over all controllable routes within the
//!    hop bound (Eq. 1–2),
//! 3. solves `min β = Σ x_ij · T_rmin(i,j)` subject to capacity (3a) and
//!    full-offload equality (3b) constraints, and
//! 4. extracts the chosen routes so the Manager can program them.
//!
//! The LP is a Hitchcock transportation problem, solved by `dust-lp`'s
//! transportation solver (Vogel + MODI); the dense simplex there is only
//! the reference tests compare against (ablation 2 in DESIGN.md).

use crate::config::DustConfig;
use crate::error::DustError;
use crate::state::Nmdb;
use dust_lp::{Basis, TransportProblem, TransportSolution, TransportStatus};
use dust_obs::ObsHandle;
use dust_topology::{CostEngine, CostMatrix, DpScratch, Graph, NodeId, Path};
use std::time::{Duration, Instant};

/// The spanning-tree basis carried from one placement round to the next
/// so a drifting instance re-solves warm instead of cold.
///
/// The basis is only offered back to the solver when the busy/candidate
/// sets match the round it was exported from — a changed set reshapes
/// the LP's rows/columns, and although a mismatched basis would be
/// rejected (or re-optimized) safely by MODI anyway, the guard keeps
/// `lp.pivots_saved` honest. Feed the previous round's
/// [`Placement::warm`] into [`optimize_with`].
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    /// The optimal basis of the round it was exported from.
    pub basis: Option<Basis>,
    /// Busy set the basis was exported under, in row order.
    pub busy: Vec<NodeId>,
    /// Candidate set the basis was exported under, in column order.
    pub candidates: Vec<NodeId>,
}

impl WarmState {
    /// True when no basis is carried (a round that did not reach an
    /// optimal solve).
    pub fn is_empty(&self) -> bool {
        self.basis.is_none()
    }

    /// Whether this basis may be offered for a round over the given
    /// busy/candidate sets.
    fn matches(&self, busy: &[NodeId], candidates: &[NodeId]) -> bool {
        !self.is_empty() && self.busy == busy && self.candidates == candidates
    }
}

/// One accepted offload decision.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Busy node shedding load.
    pub from: NodeId,
    /// Offload-destination node absorbing it.
    pub to: NodeId,
    /// Capacity-percent moved (`x_ij`).
    pub amount: f64,
    /// Minimum response time for this pair (seconds).
    pub t_rmin: f64,
    /// The controllable route realizing `t_rmin`.
    pub route: Option<Path>,
}

/// Outcome of a placement round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStatus {
    /// Every Busy node's excess was placed at minimum cost.
    Optimal,
    /// Constraint 3a/3b cannot all hold — the "Infeasible Optimization"
    /// outcome counted by Fig. 7.
    Infeasible,
    /// No node exceeded `C_max`; nothing to do.
    NoBusyNodes,
}

/// Result of running the optimization engine once.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Outcome.
    pub status: PlacementStatus,
    /// Offload decisions (empty unless optimal).
    pub assignments: Vec<Assignment>,
    /// Objective `β = Σ x_ij · T_rmin(i,j)` in second-percent units.
    pub beta: f64,
    /// The Busy set this round.
    pub busy: Vec<NodeId>,
    /// The Offload-candidate set this round.
    pub candidates: Vec<NodeId>,
    /// Wall time spent building the `T_rmin` matrix.
    pub cost_time: Duration,
    /// Wall time spent in the LP solve proper.
    pub solve_time: Duration,
    /// Shadow price per Offload-candidate: the marginal β saved by one
    /// more unit of spare capacity at that node — the most negative
    /// entries are the candidates most worth upgrading. Empty for
    /// non-optimal outcomes.
    pub shadow_prices: Vec<(NodeId, f64)>,
    /// Basis for warm-starting the next round over the same busy/candidate
    /// sets (empty unless the solve reached optimality).
    pub warm: WarmState,
    /// True when this round's solve actually started from an accepted
    /// warm basis.
    pub warm_used: bool,
}

impl Placement {
    /// A round that placed nothing: no assignments, no timing, no warm
    /// basis. β is `0` when there was nothing to place
    /// ([`PlacementStatus::NoBusyNodes`]) and NaN otherwise.
    pub fn unsolved(
        status: PlacementStatus,
        busy: Vec<NodeId>,
        candidates: Vec<NodeId>,
    ) -> Placement {
        Placement {
            status,
            assignments: Vec::new(),
            beta: if status == PlacementStatus::NoBusyNodes { 0.0 } else { f64::NAN },
            busy,
            candidates,
            cost_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            shadow_prices: Vec::new(),
            warm: WarmState::default(),
            warm_used: false,
        }
    }

    /// Total capacity-percent moved.
    pub fn total_offloaded(&self) -> f64 {
        self.assignments.iter().map(|a| a.amount).sum()
    }

    /// Mean hop count over chosen routes (the paper's "number of hops
    /// required to reach the destination" metric), `None` when no
    /// assignment carries a route.
    pub fn mean_hops(&self) -> Option<f64> {
        let hops: Vec<usize> =
            self.assignments.iter().filter_map(|a| a.route.as_ref().map(Path::hops)).collect();
        if hops.is_empty() {
            None
        } else {
            Some(hops.iter().sum::<usize>() as f64 / hops.len() as f64)
        }
    }
}

/// A shipped amount at or below this is solver noise, not a flow.
pub const FLOW_TOL: f64 = 1e-7;

/// A placement LP in CSR form, the instance [`solve_placement`] takes:
/// each row must ship all of its supply over the `(column, T_rmin)` pairs
/// it lists (columns ascending, every `T_rmin` finite, in seconds), and
/// each column absorbs at most its capacity. A pair its row does not list
/// carries nothing.
#[derive(Debug, Clone)]
pub struct PlacementLp {
    supply: Vec<f64>,
    capacity: Vec<f64>,
    row_start: Vec<u32>,
    columns: Vec<u32>,
    t_rmin: Vec<f64>,
}

impl PlacementLp {
    /// An instance over `capacity`'s columns with room for `rows` rows and
    /// none yet; add them with [`PlacementLp::push_row`].
    pub fn with_rows(rows: usize, capacity: Vec<f64>) -> Self {
        let mut row_start = Vec::with_capacity(rows + 1);
        row_start.push(0);
        let (columns, t_rmin) = (Vec::new(), Vec::new());
        PlacementLp { supply: Vec::with_capacity(rows), capacity, row_start, columns, t_rmin }
    }

    /// Append a row that ships `supply` over `columns` at `t_rmin`.
    pub fn push_row(&mut self, supply: f64, columns: &[u32], t_rmin: &[f64]) {
        self.supply.push(supply);
        self.columns.extend_from_slice(columns);
        self.t_rmin.extend_from_slice(t_rmin);
        self.row_start.push(self.columns.len() as u32);
    }
}

/// What [`solve_placement`] found.
#[derive(Debug, Clone, Default)]
pub struct LpSolution {
    /// `false`: the instance is infeasible, and every field below but
    /// `warm_used` is empty (β NaN).
    pub optimal: bool,
    /// The cells that ship more than [`FLOW_TOL`], `(row, column, x,
    /// T_rmin)` row-major: a row's cells are one run of it.
    pub shipped: Vec<(usize, usize, f64, f64)>,
    /// `β = Σ x · T_rmin`, as the solver summed it.
    pub objective: f64,
    /// Each column's dual.
    pub column_duals: Vec<f64>,
    /// The optimal spanning-tree basis.
    pub basis: Option<Basis>,
    /// True when the solve started from the offered warm basis.
    pub warm_used: bool,
}

/// Whether a transportation solve carries an optimal plan (`false`: the
/// instance is infeasible). A solve its pivot cap stopped is neither — its
/// flows are feasible but unoptimised — so it is an error, never folded
/// into either answer.
fn transport_optimal(sol: &TransportSolution) -> Result<bool, DustError> {
    match sol.status {
        TransportStatus::Optimal => Ok(true),
        TransportStatus::Infeasible => Ok(false),
        TransportStatus::IterationLimit => {
            Err(DustError::IterationLimit { pivots: sol.iterations })
        }
    }
}

/// Solve one placement LP with the transportation solver, recording
/// solver metrics through `obs` and starting from `warm` when it is a
/// usable basis. Every placement solve — a full round's through
/// [`optimize_with`], a Manager's residual re-home — runs here.
///
/// A solve that runs into its pivot cap is [`DustError::IterationLimit`].
pub fn solve_placement(
    lp: PlacementLp,
    obs: &ObsHandle,
    warm: Option<Basis>,
) -> Result<LpSolution, DustError> {
    let PlacementLp { supply, capacity, row_start, columns, t_rmin } = lp;
    // The problem takes the instance's rows for the solve: a round never
    // holds two copies of them.
    let tp = TransportProblem::sparse(supply, capacity, row_start, columns, t_rmin);
    let sol = tp.solve_with(obs, warm.as_ref());
    if !transport_optimal(&sol)? {
        let warm_used = sol.warm_used;
        return Ok(LpSolution { objective: f64::NAN, warm_used, ..LpSolution::default() });
    }
    let shipped = sol.flows.iter().filter(|f| f.2 > FLOW_TOL).map(|&(r, c, x)| {
        let (r, c) = (r as usize, c as usize);
        (r, c, x, tp.cost_at(r, c))
    });
    Ok(LpSolution {
        optimal: true,
        shipped: shipped.collect(),
        objective: sol.objective,
        column_duals: sol.col_potentials,
        basis: sol.basis,
        warm_used: sol.warm_used,
    })
}

/// Run the optimization engine with an explicit shared [`CostEngine`],
/// warm-started from a previous round's basis ([`Placement::warm`]) when
/// one is given.
///
/// This is the paper's "ILP" (continuous `x_ij`, Eq. 3) solved exactly by
/// [`solve_placement`]. The `T_rmin` matrix comes from `engine` — parallel
/// across its worker threads and memoized across calls on an unchanged
/// graph. Routes for chosen assignments are backtracked through the same
/// hop-bounded DP that priced them.
///
/// Warm and cold solves reach the same objective — the basis only skips
/// the initial-assignment phase and most pivots when the instance drifted
/// little. It is ignored (solved cold) when the busy/candidate sets no
/// longer match or when it is empty.
///
/// A solve that runs into its pivot cap surfaces as
/// [`DustError::IterationLimit`], not as an infeasible placement.
pub fn optimize_with(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    engine: &CostEngine,
    warm: Option<&WarmState>,
) -> Result<Placement, DustError> {
    cfg.validate().map_err(DustError::BadConfig)?;
    // Solver metrics (pivots, warm starts) are recorded through the
    // engine's observability handle — attach one with
    // `CostEngine::with_obs`.
    let obs = engine.obs();
    obs.counter_inc("core.placements");
    let busy = nmdb.busy_nodes(cfg);
    let candidates = nmdb.candidate_nodes(cfg);
    if busy.is_empty() {
        obs.counter_inc("core.placements_no_busy");
        return Ok(Placement::unsolved(PlacementStatus::NoBusyNodes, busy, candidates));
    }

    // ---- T_rmin of the pairs within the hop bound ---------------------------
    let t0 = Instant::now();
    let data: Vec<f64> = busy.iter().map(|&b| nmdb.state(b).data_mb).collect();
    let costs = engine.build_matrix(&nmdb.graph, &busy, &candidates, &data, cfg.max_hop);
    let cost_time = t0.elapsed();

    let supply: Vec<f64> = busy.iter().map(|&b| nmdb.cs(b, cfg)).collect();
    let capacity: Vec<f64> = candidates.iter().map(|&c| nmdb.cd(c, cfg)).collect();
    let CostMatrix { row_start, columns, t_rmin, .. } = costs;
    let lp = PlacementLp { supply, capacity, row_start, columns, t_rmin };

    // ---- LP solve ----------------------------------------------------------
    let t1 = Instant::now();
    let warm_start = warm.filter(|w| w.matches(&busy, &candidates)).and_then(|w| w.basis.clone());
    let solution = solve_placement(lp, obs, warm_start)?;
    let solve_time = t1.elapsed();
    if !solution.optimal {
        obs.counter_inc("core.placements_infeasible");
        return Ok(Placement {
            cost_time,
            solve_time,
            warm_used: solution.warm_used,
            ..Placement::unsolved(PlacementStatus::Infeasible, busy, candidates)
        });
    }

    // ---- Route extraction for the chosen pairs -----------------------------
    let routes_scope = obs.prof_scope("core.routes");
    let mut assignments = Vec::with_capacity(solution.shipped.len());
    let (mut scratch, mut dests) = (engine.route_scratch(), Vec::new());
    // a busy row's destinations are one run of the row-major cells
    for run in solution.shipped.chunk_by(|a, b| a.0 == b.0) {
        let from = busy[run[0].0];
        let run = assign_run(&nmdb.graph, cfg, from, run, &candidates, &mut scratch, &mut dests);
        assignments.extend(run);
    }
    drop(routes_scope);

    obs.counter_inc("core.placements_optimal");
    let shadow_prices = candidates.iter().copied().zip(solution.column_duals).collect();
    let warm =
        WarmState { basis: solution.basis, busy: busy.clone(), candidates: candidates.clone() };
    Ok(Placement {
        status: PlacementStatus::Optimal,
        assignments,
        beta: solution.objective,
        busy,
        candidates,
        cost_time,
        solve_time,
        shadow_prices,
        warm,
        warm_used: solution.warm_used,
    })
}

/// The assignments out of `from` for one row's `run` of shipped cells
/// (their columns index `candidates`), in order, each carrying the route
/// that realizes its `T_rmin` under `cfg`'s hop bound.
/// `dests` is scratch for the run's destinations.
pub fn assign_run<'a>(
    graph: &'a Graph,
    cfg: &DustConfig,
    from: NodeId,
    run: &'a [(usize, usize, f64, f64)],
    candidates: &'a [NodeId],
    scratch: &'a mut DpScratch,
    dests: &'a mut Vec<NodeId>,
) -> impl Iterator<Item = Assignment> + 'a {
    dests.clear();
    dests.extend(run.iter().map(|&(_, c, _, _)| candidates[c]));
    let dests: &'a [NodeId] = dests;
    let routes = routes_from(graph, from, dests, cfg.max_hop, scratch);
    let assign = move |(&(_, c, amount, t_rmin), route)| Assignment {
        from,
        to: candidates[c],
        amount,
        t_rmin,
        route,
    };
    run.iter().zip(routes).map(assign)
}

/// The controllable route from `from` to each of `dests`, in order: the
/// one realizing the pair's `T_rmin` under `max_hop`. The hop-bounded DP
/// runs once, pruned to the hop cones of `dests`, and is backtracked to
/// each of them.
pub fn routes_from<'a>(
    graph: &'a Graph,
    from: NodeId,
    dests: &'a [NodeId],
    max_hop: Option<usize>,
    scratch: &'a mut DpScratch,
) -> impl Iterator<Item = Option<Path>> + 'a {
    scratch.run_to(graph, from, dests, max_hop);
    let scratch = &*scratch;
    dests.iter().map(move |&to| scratch.route_to(graph, to).map(|(_, p)| p))
}

/// Why a round came back [`PlacementStatus::Infeasible`]:
/// [`DustError::NoPathWithinHops`] when the hop bound disconnects every
/// (busy, candidate) pair of `placement`, [`DustError::Infeasible`] — a
/// genuine capacity shortfall — otherwise. Reads `engine`'s cached rows,
/// so after [`optimize_with`] on the same engine it prices nothing.
pub fn infeasible_cause(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    engine: &CostEngine,
    placement: &Placement,
) -> DustError {
    let (busy, candidates) = (&placement.busy, &placement.candidates);
    if busy.is_empty() || candidates.is_empty() {
        return DustError::Infeasible;
    }
    let reachable = busy.iter().any(|&b| {
        let row = &engine.rows(&nmdb.graph, &[b], cfg.max_hop)[0];
        candidates.iter().any(|c| row[c.index()].is_finite())
    });
    if reachable {
        DustError::Infeasible
    } else {
        DustError::NoPathWithinHops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::optimize;
    use crate::state::NodeState;
    use dust_topology::{topologies, Graph, Link};

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

    /// `T_rmin` of `simple_nmdb`'s one pair: 100 MB over two default links
    /// (`Lu` = 10 000 × 0.5 = 5 000 Mbps each).
    const SIMPLE_T_RMIN: f64 = 100.0 * 2.0 / 5_000.0;

    #[test]
    fn basic_offload_places_all_excess() {
        let p = optimize(&simple_nmdb(), &cfg());
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert!((p.total_offloaded() - 10.0).abs() < 1e-6);
        assert_eq!(p.assignments.len(), 1);
        let a = &p.assignments[0];
        assert_eq!((a.from, a.to), (NodeId(0), NodeId(2)));
        assert!((a.t_rmin - SIMPLE_T_RMIN).abs() < 1e-12);
        let route = a.route.as_ref().unwrap();
        assert_eq!(route.hops(), 2);
    }

    #[test]
    fn pivot_cap_is_a_typed_error_not_an_infeasible_placement() {
        let sol = |status| TransportSolution {
            status,
            flows: Vec::new(),
            objective: f64::NAN,
            iterations: 9,
            degenerate_pivots: 9,
            cells_priced: 0,
            row_potentials: Vec::new(),
            col_potentials: Vec::new(),
            basis: None,
            warm_used: false,
        };
        assert_eq!(transport_optimal(&sol(TransportStatus::Optimal)), Ok(true));
        assert_eq!(transport_optimal(&sol(TransportStatus::Infeasible)), Ok(false));
        assert_eq!(
            transport_optimal(&sol(TransportStatus::IterationLimit)),
            Err(DustError::IterationLimit { pivots: 9 })
        );
        // an invalid configuration is typed too
        let bad = cfg().with_thresholds(60.0, 70.0, 5.0);
        let err = optimize_with(&simple_nmdb(), &bad, &CostEngine::new(), None).unwrap_err();
        assert!(matches!(err, DustError::BadConfig(_)));
    }

    #[test]
    fn backends_agree_on_objective() {
        // the one candidate takes all 10 points of excess: β = 10 · T_rmin
        let p = optimize(&simple_nmdb(), &cfg());
        let closed_form = 10.0 * SIMPLE_T_RMIN;
        assert!((p.beta - closed_form).abs() < 1e-9 * (1.0 + closed_form), "β = {}", p.beta);
    }

    #[test]
    fn no_busy_nodes_short_circuits() {
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(50.0, 1.0), NodeState::new(50.0, 1.0)]);
        let p = optimize(&db, &cfg());
        assert_eq!(p.status, PlacementStatus::NoBusyNodes);
    }

    #[test]
    fn infeasible_when_candidates_lack_capacity() {
        // busy node has 19 points of excess, single candidate only 1 spare
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(99.0, 10.0), NodeState::new(49.0, 1.0)]);
        let p = optimize(&db, &cfg());
        assert_eq!(p.status, PlacementStatus::Infeasible);
    }

    #[test]
    fn infeasible_when_out_of_hop_range() {
        // candidate exists but is 2 hops away with max_hop = 1
        let db = simple_nmdb();
        let c = cfg().with_max_hop(Some(1));
        let p = optimize(&db, &c);
        assert_eq!(p.status, PlacementStatus::Infeasible);
        // …and feasible again at 2 hops
        let p2 = optimize(&db, &cfg().with_max_hop(Some(2)));
        assert_eq!(p2.status, PlacementStatus::Optimal);
    }

    #[test]
    fn hop_starvation_is_distinguished_from_capacity_shortfall() {
        let cause = |db: &Nmdb, c: &DustConfig| {
            let engine = CostEngine::new();
            let p = optimize_with(db, c, &engine, None).unwrap();
            assert_eq!(p.status, PlacementStatus::Infeasible);
            infeasible_cause(db, c, &engine, &p)
        };
        // candidate is 2 hops away; a 1-hop bound starves routing
        let starved = cfg().with_max_hop(Some(1));
        assert_eq!(cause(&simple_nmdb(), &starved), DustError::NoPathWithinHops);
        // same topology, reachable candidate, but capacity genuinely short
        let g = topologies::line(2, Link::default());
        let tight = Nmdb::new(g, vec![NodeState::new(99.0, 10.0), NodeState::new(49.0, 1.0)]);
        assert_eq!(cause(&tight, &cfg()), DustError::Infeasible);
    }

    #[test]
    fn splits_across_candidates_when_one_lacks_capacity() {
        // star: busy hub with two leaf candidates of 6 + 6 spare, excess 10
        let g = topologies::star(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(90.0, 50.0), NodeState::new(44.0, 1.0), NodeState::new(44.0, 1.0)],
        );
        let p = optimize(&db, &cfg());
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert_eq!(p.assignments.len(), 2, "flexible offloading must split");
        assert!((p.total_offloaded() - 10.0).abs() < 1e-6);
        for a in &p.assignments {
            assert!(a.amount <= 6.0 + 1e-9, "no candidate may exceed its Cd");
        }
    }

    #[test]
    fn multiple_busy_share_one_destination() {
        // two busy leaves, hub is the only candidate
        let g = topologies::star(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(20.0, 1.0), NodeState::new(85.0, 10.0), NodeState::new(88.0, 10.0)],
        );
        let p = optimize(&db, &cfg());
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert!((p.total_offloaded() - (5.0 + 8.0)).abs() < 1e-6);
        assert!(p.assignments.iter().all(|a| a.to == NodeId(0)));
        // one default link of 10 MB each: T_rmin = 10 / 5 000 s
        let closed_form = (5.0 + 8.0) * 10.0 / 5_000.0;
        assert!((p.beta - closed_form).abs() < 1e-12, "β = {}", p.beta);
    }

    #[test]
    fn prefers_cheaper_route_destination() {
        // busy node 0; candidate 1 via fast link, candidate 2 via slow link
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Link::new(10_000.0, 0.9)); // Lu = 9000
        g.add_edge(NodeId(0), NodeId(2), Link::new(100.0, 0.5)); // Lu = 50
        let db = Nmdb::new(
            g,
            vec![NodeState::new(85.0, 100.0), NodeState::new(10.0, 1.0), NodeState::new(10.0, 1.0)],
        );
        let p = optimize(&db, &cfg());
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert_eq!(p.assignments.len(), 1);
        assert_eq!(p.assignments[0].to, NodeId(1), "faster route must win");
    }

    #[test]
    fn beta_equals_sum_of_amount_times_trmin() {
        let db = simple_nmdb();
        let p = optimize(&db, &cfg());
        let recomputed: f64 = p.assignments.iter().map(|a| a.amount * a.t_rmin).sum();
        assert!((p.beta - recomputed).abs() < 1e-9 * (1.0 + p.beta.abs()));
    }

    #[test]
    fn shadow_prices_identify_binding_candidate() {
        // busy hub (excess 10); cheap candidate with tiny capacity (binds)
        // and an expensive roomy one: the binding candidate's shadow price
        // must be strictly more negative.
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), Link::new(10_000.0, 0.9)); // fast
        g.add_edge(NodeId(0), NodeId(2), Link::new(100.0, 0.5)); // slow
        let db = Nmdb::new(
            g,
            vec![
                NodeState::new(90.0, 100.0),
                NodeState::new(46.0, 1.0), // spare 4 on the fast route — binds
                NodeState::new(10.0, 1.0), // spare 40 on the slow route
            ],
        );
        let p = optimize(&db, &cfg());
        assert_eq!(p.status, PlacementStatus::Optimal);
        let price = |n: u32| {
            p.shadow_prices.iter().find(|(id, _)| *id == NodeId(n)).map(|(_, v)| *v).unwrap()
        };
        assert!(
            price(1) < price(2) - 1e-9,
            "binding fast candidate must be worth upgrading: {:?}",
            p.shadow_prices
        );
        // both cells ship (4 fast, 6 slow), so the duals differ by exactly
        // the two routes' T_rmin: 100 MB over Lu 50 against over Lu 9 000
        let gap = 100.0 / 50.0 - 100.0 / 9_000.0;
        assert!((price(2) - price(1) - gap).abs() < 1e-9, "{:?}", p.shadow_prices);
        // a round with no busy node prices nothing
        let mut quiet = db.clone();
        quiet.states[0].utilization = 50.0;
        assert!(optimize(&quiet, &cfg()).shadow_prices.is_empty());
    }

    #[test]
    fn mean_hops_reported() {
        let db = simple_nmdb();
        let p = optimize(&db, &cfg());
        assert_eq!(p.mean_hops(), Some(2.0));
    }

    fn fat_tree_nmdb(k: usize, seed: u64) -> Nmdb {
        let ft = dust_topology::FatTree::with_default_links(k);
        crate::scenario::random_nmdb(&ft.graph, &cfg(), &crate::ScenarioParams::default(), seed)
    }

    // ---- warm-start rounds ------------------------------------------------

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Retune a seeded sample of link utilizations: `T_rmin` drifts but the
    /// node states — and therefore the busy/candidate sets a warm basis is
    /// keyed on — survive untouched.
    fn drifted(db: &Nmdb, seed: u64) -> Nmdb {
        let mut g = Graph::clone(&db.graph);
        let mut s = seed;
        let edges = g.edge_count() as u64;
        for _ in 0..(edges / 4 + 1) {
            let e = dust_topology::EdgeId((splitmix(&mut s) % edges) as u32);
            let u = 0.05 + 0.9 * (splitmix(&mut s) as f64 / u64::MAX as f64);
            g.link_mut(e).utilization = u;
        }
        let states = g.nodes().map(|n| *db.state(n)).collect();
        Nmdb::new(g, states)
    }

    #[test]
    fn warm_vs_cold_objective_equality_sweep() {
        // 12 seeds × {testbed, 16-k fat-tree}: after seeded link drift, a
        // solve warm-started from the previous round's basis must land on
        // the same objective a cold solve reaches. Warm starts trade pivots,
        // never optimality.
        let testbed = topologies::example7(Link::default());
        let params = crate::ScenarioParams::default();
        for seed in 0..12u64 {
            for topo in 0..2usize {
                let base = if topo == 0 {
                    crate::scenario::random_nmdb(&testbed, &cfg(), &params, seed)
                } else {
                    fat_tree_nmdb(16, seed)
                };
                let engine = CostEngine::new();
                let first = optimize_with(&base, &cfg(), &engine, None).unwrap();
                if first.status != PlacementStatus::Optimal {
                    continue;
                }
                let next = drifted(&base, seed.wrapping_mul(2654435761).wrapping_add(1));
                let cold = optimize_with(&next, &cfg(), &engine, None).unwrap();
                let warm = optimize_with(&next, &cfg(), &engine, Some(&first.warm)).unwrap();
                assert_eq!(cold.status, warm.status, "topo={topo} seed={seed}");
                if cold.status == PlacementStatus::Optimal {
                    assert!(
                        (warm.beta - cold.beta).abs() <= 1e-7 * (1.0 + cold.beta.abs()),
                        "topo={topo} seed={seed}: warm {} vs cold {}",
                        warm.beta,
                        cold.beta
                    );
                    assert!(
                        (warm.total_offloaded() - cold.total_offloaded()).abs() < 1e-6,
                        "topo={topo} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn warm_round_over_unchanged_instance_pivots_zero_times() {
        let db = fat_tree_nmdb(8, 42);
        let obs = dust_obs::ObsHandle::recording(0);
        let engine = CostEngine::new().with_obs(obs.clone());
        let first = optimize_with(&db, &cfg(), &engine, None).unwrap();
        assert_eq!(first.status, PlacementStatus::Optimal);
        assert!(!first.warm.is_empty(), "optimal transportation rounds must export a basis");
        let cached = engine.cached_rows();
        assert!(cached > 0, "the solve must populate the shared cache");
        let warm = optimize_with(&db, &cfg(), &engine, Some(&first.warm)).unwrap();
        assert!(warm.warm_used);
        assert_eq!(engine.cached_rows(), cached, "second solve must be all cache hits");
        // flows are re-derived from the basis by leaf-peeling, so the sum
        // may round differently — equality is mathematical, not bitwise
        assert!((warm.beta - first.beta).abs() <= 1e-9 * (1.0 + first.beta.abs()));
        assert_eq!(obs.counter("lp.warm_solves"), 1);
        assert_eq!(obs.counter("lp.warm_pivots"), 0, "an already-optimal basis needs no pivots");
        assert!(obs.counter("lp.pivots_saved") > 0);
        assert_eq!(obs.counter("lp.warm_rejects"), 0);
    }

    #[test]
    fn warm_bases_are_ignored_when_the_busy_set_changes() {
        let db = fat_tree_nmdb(8, 7);
        let engine = CostEngine::new();
        let first = optimize_with(&db, &cfg(), &engine, None).unwrap();
        assert_eq!(first.status, PlacementStatus::Optimal);
        // flip one candidate to busy: the LP's rows/columns reshape, so the
        // stale basis must be ignored, not trusted
        let mut db2 = db.clone();
        let flipped = first.candidates[0];
        db2.states[flipped.index()].utilization = 99.0;
        let warm = optimize_with(&db2, &cfg(), &engine, Some(&first.warm)).unwrap();
        assert!(!warm.warm_used);
    }

    #[test]
    fn simplex_backend_carries_no_warm_state() {
        // only an optimal solve exports a basis: a round that never solves
        // (no busy node) or solves to infeasibility carries none
        let engine = CostEngine::new();
        let solved = optimize_with(&simple_nmdb(), &cfg(), &engine, None).unwrap();
        assert!(!solved.warm.is_empty());
        let g = topologies::line(2, Link::default());
        let quiet = Nmdb::new(g.clone(), vec![NodeState::new(50.0, 1.0); 2]);
        let short = Nmdb::new(g, vec![NodeState::new(99.0, 10.0), NodeState::new(49.0, 1.0)]);
        for (db, status) in
            [(quiet, PlacementStatus::NoBusyNodes), (short, PlacementStatus::Infeasible)]
        {
            let p = optimize_with(&db, &cfg(), &engine, Some(&solved.warm)).unwrap();
            assert_eq!(p.status, status);
            assert!(p.warm.is_empty(), "{status:?}");
            assert!(!p.warm_used, "{status:?}");
        }
    }
}
