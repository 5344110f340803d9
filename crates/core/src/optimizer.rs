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
//! Two interchangeable LP backends are offered (ablation 2 in DESIGN.md):
//! the specialized transportation solver and the general two-phase simplex.

use crate::config::DustConfig;
use crate::error::DustError;
use crate::state::Nmdb;
use dust_lp::{
    Cmp, PartitionWarm, Problem, SolveOptions, Status, TransportProblem, TransportSolution,
    TransportStatus,
};
use dust_topology::{
    min_inv_lu_dp_path_with, min_inv_lu_enumerated, CostEngine, DpScratch, NodeId, Path, PathEngine,
};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// Which LP machinery solves the placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverBackend {
    /// Vogel + MODI transportation solver (fast, structure-aware).
    #[default]
    Transportation,
    /// General two-phase simplex over the explicit LP.
    Simplex,
}

/// How the transportation LP is attacked — the quality-vs-latency knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolvePath {
    /// One whole-problem MODI solve: the exact optimum.
    #[default]
    Exact,
    /// POP-style: deal the busy nodes into `parts` seeded random groups,
    /// give each group a supply-proportional slice of every candidate's
    /// capacity, solve the subproblems in parallel on the cost engine's
    /// scoped-thread pool, and recombine. Near-optimal (typically well
    /// under 1 % on fat-tree instances) at a fraction of the latency;
    /// falls back to the exact solve if any subproblem is infeasible
    /// (which supply-proportional shares only allow when the joint
    /// problem is itself infeasible).
    Partitioned {
        /// Subproblem count (1 behaves exactly like [`SolvePath::Exact`]).
        parts: NonZeroUsize,
        /// Seed for the random row split.
        seed: u64,
    },
}

/// Spanning-tree bases carried from one placement round to the next so a
/// drifting instance re-solves warm instead of cold.
///
/// The bases are only offered back to the solver when the busy/candidate
/// sets match the round they were exported from — a changed set reshapes
/// the LP's rows/columns, and although a mismatched basis would be
/// rejected (or re-optimized) safely by MODI anyway, the guard keeps
/// `lp.pivots_saved` honest. Feed the previous round's
/// [`Placement::warm`] into [`optimize_with_path_warm`] (or
/// `PlacementRequest::warm_start`).
#[derive(Debug, Clone, Default)]
pub struct WarmState {
    /// Per-group bases (a single slot when the exact path ran).
    pub bases: PartitionWarm,
    /// Busy set the bases were exported under, in row order.
    pub busy: Vec<NodeId>,
    /// Candidate set the bases were exported under, in column order.
    pub candidates: Vec<NodeId>,
}

impl WarmState {
    /// True when no basis is carried (cold round, infeasible round, or
    /// simplex backend).
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// Whether these bases may be offered for a round over the given
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
    /// Wall time spent building the `T_rmin` matrix (dominates with the
    /// enumeration engine — this is what Figs. 8/10 measure growing).
    pub cost_time: Duration,
    /// Wall time spent in the LP solve proper.
    pub solve_time: Duration,
    /// Shadow price per Offload-candidate (transportation backend only):
    /// the marginal β saved by one more unit of spare capacity at that
    /// node — the most negative entries are the candidates most worth
    /// upgrading. Empty for the simplex backend or non-optimal outcomes.
    /// Under [`SolvePath::Partitioned`] these are share-weighted averages
    /// of the per-group duals, not the joint optimum's prices.
    pub shadow_prices: Vec<(NodeId, f64)>,
    /// Subproblems the solve actually ran (1 = the whole-problem path).
    pub partitions: usize,
    /// True when a partitioned solve hit an infeasible subproblem and
    /// re-ran the exact whole-problem solve instead.
    pub partition_fallback: bool,
    /// Bases for warm-starting the next round over the same busy/candidate
    /// sets (empty unless the transportation backend reached optimality).
    pub warm: WarmState,
    /// True when this round's solve actually started from an accepted
    /// warm basis (at least one subproblem, for the partitioned path).
    pub warm_used: bool,
}

impl Placement {
    /// Total optimization time: routing + LP.
    pub fn total_time(&self) -> Duration {
        self.cost_time + self.solve_time
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

/// Run the optimization engine on a snapshot.
///
/// Thin wrapper over [`crate::PlacementRequest`] kept for source
/// compatibility — prefer the builder, which shares one [`CostEngine`]
/// across entry points and returns typed [`DustError`]s instead of
/// panicking.
///
/// # Panics
/// Panics when `cfg` is invalid.
pub fn optimize(nmdb: &Nmdb, cfg: &DustConfig, backend: SolverBackend) -> Placement {
    cfg.validate().expect("invalid DustConfig");
    match crate::PlacementRequest::new(nmdb, cfg).backend(backend).run_lp() {
        Ok(p) => p,
        // Unbounded cannot occur for well-formed placement instances
        // (non-negative costs, finite supplies) and the pivot cap is not
        // known to be reachable; fold both into the one failure the
        // legacy status enum can express.
        Err(_) => Placement {
            status: PlacementStatus::Infeasible,
            assignments: Vec::new(),
            beta: f64::NAN,
            busy: nmdb.busy_nodes(cfg),
            candidates: nmdb.candidate_nodes(cfg),
            cost_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            shadow_prices: Vec::new(),
            partitions: 1,
            partition_fallback: false,
            warm: WarmState::default(),
            warm_used: false,
        },
    }
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

/// Run the optimization engine with an explicit shared [`CostEngine`].
///
/// This is the paper's "ILP" (continuous `x_ij`, Eq. 3) solved exactly.
/// The `T_rmin` matrix comes from `engine` — parallel across its worker
/// threads and memoized across calls on an unchanged graph. Routes for
/// chosen assignments are reconstructed with the same path engine that
/// produced the costs.
pub fn optimize_with(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    backend: SolverBackend,
    engine: &CostEngine,
) -> Result<Placement, DustError> {
    optimize_with_path(nmdb, cfg, backend, engine, SolvePath::Exact)
}

/// [`optimize_with`], plus the [`SolvePath`] choice: `Exact` reproduces
/// the whole-problem solve bit for bit; `Partitioned` trades a bounded
/// slice of objective quality for a large latency cut at fleet scale.
/// Partitioning applies to the transportation backend only — combining it
/// with [`SolverBackend::Simplex`] is a [`DustError::BadConfig`].
pub fn optimize_with_path(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    backend: SolverBackend,
    engine: &CostEngine,
    path: SolvePath,
) -> Result<Placement, DustError> {
    optimize_with_path_warm(nmdb, cfg, backend, engine, path, None)
}

/// [`optimize_with_path`], plus warm-start bases from a previous round
/// ([`Placement::warm`]). Warm and cold solves reach the same objective —
/// the bases only skip the initial-assignment phase and most pivots when
/// the instance drifted little. Ignored (solved cold) when the
/// busy/candidate sets no longer match, when the bases are empty, or for
/// the simplex backend.
///
/// A transportation solve that runs into its pivot cap surfaces as
/// [`DustError::IterationLimit`], not as an infeasible placement.
pub fn optimize_with_path_warm(
    nmdb: &Nmdb,
    cfg: &DustConfig,
    backend: SolverBackend,
    engine: &CostEngine,
    path: SolvePath,
    warm: Option<&WarmState>,
) -> Result<Placement, DustError> {
    cfg.validate().map_err(DustError::BadConfig)?;
    if let SolvePath::Partitioned { .. } = path {
        if backend == SolverBackend::Simplex {
            return Err(DustError::BadConfig(
                "partitioned solves require the transportation backend".to_string(),
            ));
        }
    }
    // Solver metrics (pivots, B&B nodes) are recorded through the
    // engine's observability handle — attach one with
    // `CostEngine::set_obs` or `PlacementRequest::obs`.
    let obs = engine.obs();
    obs.counter_inc("core.placements");
    let busy = nmdb.busy_nodes(cfg);
    let candidates = nmdb.candidate_nodes(cfg);
    if busy.is_empty() {
        obs.counter_inc("core.placements_no_busy");
        return Ok(Placement {
            status: PlacementStatus::NoBusyNodes,
            assignments: Vec::new(),
            beta: 0.0,
            busy,
            candidates,
            cost_time: Duration::ZERO,
            solve_time: Duration::ZERO,
            shadow_prices: Vec::new(),
            partitions: 1,
            partition_fallback: false,
            warm: WarmState::default(),
            warm_used: false,
        });
    }

    // ---- T_rmin matrix over controllable routes ---------------------------
    let t0 = Instant::now();
    let data: Vec<f64> = busy.iter().map(|&b| nmdb.state(b).data_mb).collect();
    let mut costs =
        engine.build_matrix(&nmdb.graph, &busy, &candidates, &data, cfg.max_hop, cfg.path_engine);
    let cost_time = t0.elapsed();

    let supply: Vec<f64> = busy.iter().map(|&b| nmdb.cs(b, cfg)).collect();
    let capacity: Vec<f64> = candidates.iter().map(|&c| nmdb.cd(c, cfg)).collect();

    // ---- LP solve ----------------------------------------------------------
    let t1 = Instant::now();
    let mut shadow_prices: Vec<(NodeId, f64)> = Vec::new();
    let mut partitions = 1usize;
    let mut partition_fallback = false;
    let mut warm_next = WarmState::default();
    let mut warm_used = false;
    let flows: Option<(Vec<f64>, f64)> = match backend {
        SolverBackend::Transportation => {
            // The problem takes the matrix for the solve and hands it back
            // for `costs.at` below: a round never holds two copies of it.
            let t_rmin = std::mem::take(&mut costs.t_rmin);
            let tp = TransportProblem::new(supply, capacity, t_rmin);
            let offered = warm.filter(|w| w.matches(&busy, &candidates));
            let (sol, bases) = match path {
                SolvePath::Exact => {
                    let warm_start = offered.and_then(|w| {
                        if w.bases.bases.len() == 1 {
                            w.bases.bases[0].clone()
                        } else {
                            None
                        }
                    });
                    let s = tp.solve_with_options(obs, &SolveOptions { warm_start });
                    let bases = PartitionWarm { bases: vec![s.basis.clone()] };
                    (s, bases)
                }
                SolvePath::Partitioned { parts, seed } => {
                    // Subproblems run with detached observability so the
                    // recorded trace stays identical for every thread
                    // count; the partition counters land on `obs` inside
                    // solve_partitioned_via_warm.
                    let out = dust_lp::solve_partitioned_via_warm(
                        &tp,
                        parts,
                        seed,
                        obs,
                        offered.map(|w| &w.bases),
                        |subs| {
                            engine.run_parallel(subs.len(), |i| {
                                let sub = &subs[i];
                                sub.problem.solve_with_options(
                                    &dust_obs::ObsHandle::disabled(),
                                    &SolveOptions { warm_start: sub.warm.clone() },
                                )
                            })
                        },
                    );
                    partitions = out.parts;
                    partition_fallback = out.fell_back;
                    (out.solution, out.warm)
                }
            };
            costs.t_rmin = tp.cost;
            warm_used = sol.warm_used;
            let optimal = transport_optimal(&sol)?;
            if optimal {
                shadow_prices =
                    candidates.iter().copied().zip(sol.col_potentials.iter().copied()).collect();
                warm_next = WarmState { bases, busy: busy.clone(), candidates: candidates.clone() };
            }
            optimal.then_some((sol.flow, sol.objective))
        }
        SolverBackend::Simplex => {
            let n = candidates.len();
            let mut p = Problem::new();
            let mut vars = Vec::with_capacity(busy.len() * n);
            for r in 0..busy.len() {
                for c in 0..n {
                    let t = costs.at(r, c);
                    // Unreachable pairs are simply not modeled (equivalent
                    // to a forbidden cell).
                    vars.push(t.is_finite().then(|| p.add_nonneg(t)));
                }
            }
            for (r, &s) in supply.iter().enumerate() {
                let terms: Vec<_> =
                    (0..n).filter_map(|c| vars[r * n + c].map(|v| (v, 1.0))).collect();
                p.add_constraint(&terms, Cmp::Eq, s);
            }
            for (c, &cap) in capacity.iter().enumerate() {
                let terms: Vec<_> =
                    (0..busy.len()).filter_map(|r| vars[r * n + c].map(|v| (v, 1.0))).collect();
                p.add_constraint(&terms, Cmp::Le, cap);
            }
            let sol = dust_lp::solve_with(&p, dust_lp::Options::default(), obs);
            if sol.status == Status::Unbounded {
                return Err(DustError::Unbounded);
            }
            sol.is_optimal().then(|| {
                let mut flow = vec![0.0; busy.len() * n];
                for (idx, v) in vars.iter().enumerate() {
                    if let Some(v) = v {
                        flow[idx] = sol.x[v.index()];
                    }
                }
                (flow, sol.objective)
            })
        }
    };
    let solve_time = t1.elapsed();

    let Some((flow, beta)) = flows else {
        obs.counter_inc("core.placements_infeasible");
        return Ok(Placement {
            status: PlacementStatus::Infeasible,
            assignments: Vec::new(),
            beta: f64::NAN,
            busy,
            candidates,
            cost_time,
            solve_time,
            shadow_prices: Vec::new(),
            partitions,
            partition_fallback,
            warm: WarmState::default(),
            warm_used,
        });
    };

    // ---- Route extraction for the chosen pairs -----------------------------
    const FLOW_TOL: f64 = 1e-7;
    let mut assignments = Vec::new();
    let mut scratch = DpScratch::default();
    for (r, &b) in busy.iter().enumerate() {
        for (c, &o) in candidates.iter().enumerate() {
            let x = flow[r * candidates.len() + c];
            if x > FLOW_TOL {
                let route = match cfg.path_engine {
                    PathEngine::Enumerate => {
                        min_inv_lu_enumerated(&nmdb.graph, b, o, cfg.max_hop).map(|(_, p)| p)
                    }
                    PathEngine::HopBoundedDp => {
                        min_inv_lu_dp_path_with(&nmdb.graph, b, o, cfg.max_hop, &mut scratch)
                            .map(|(_, p)| p)
                    }
                };
                assignments.push(Assignment {
                    from: b,
                    to: o,
                    amount: x,
                    t_rmin: costs.at(r, c),
                    route,
                });
            }
        }
    }

    obs.counter_inc("core.placements_optimal");
    Ok(Placement {
        status: PlacementStatus::Optimal,
        assignments,
        beta,
        busy,
        candidates,
        cost_time,
        solve_time,
        shadow_prices,
        partitions,
        partition_fallback,
        warm: warm_next,
        warm_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn basic_offload_places_all_excess() {
        let db = simple_nmdb();
        for backend in [SolverBackend::Transportation, SolverBackend::Simplex] {
            let p = optimize(&db, &cfg(), backend);
            assert_eq!(p.status, PlacementStatus::Optimal, "{backend:?}");
            assert!((p.total_offloaded() - 10.0).abs() < 1e-6);
            assert_eq!(p.assignments.len(), 1);
            let a = &p.assignments[0];
            assert_eq!((a.from, a.to), (NodeId(0), NodeId(2)));
            let route = a.route.as_ref().unwrap();
            assert_eq!(route.hops(), 2);
        }
    }

    #[test]
    fn pivot_cap_is_a_typed_error_not_an_infeasible_placement() {
        let sol = |status| TransportSolution {
            status,
            flow: Vec::new(),
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
    }

    #[test]
    fn backends_agree_on_objective() {
        let db = simple_nmdb();
        let a = optimize(&db, &cfg(), SolverBackend::Transportation);
        let b = optimize(&db, &cfg(), SolverBackend::Simplex);
        assert!((a.beta - b.beta).abs() < 1e-6 * (1.0 + a.beta.abs()));
    }

    #[test]
    fn no_busy_nodes_short_circuits() {
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(50.0, 1.0), NodeState::new(50.0, 1.0)]);
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
        assert_eq!(p.status, PlacementStatus::NoBusyNodes);
    }

    #[test]
    fn infeasible_when_candidates_lack_capacity() {
        // busy node has 19 points of excess, single candidate only 1 spare
        let g = topologies::line(2, Link::default());
        let db = Nmdb::new(g, vec![NodeState::new(99.0, 10.0), NodeState::new(49.0, 1.0)]);
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
        assert_eq!(p.status, PlacementStatus::Infeasible);
    }

    #[test]
    fn infeasible_when_out_of_hop_range() {
        // candidate exists but is 2 hops away with max_hop = 1
        let db = simple_nmdb();
        let c = cfg().with_max_hop(Some(1));
        let p = optimize(&db, &c, SolverBackend::Transportation);
        assert_eq!(p.status, PlacementStatus::Infeasible);
        // …and feasible again at 2 hops
        let p2 = optimize(&db, &cfg().with_max_hop(Some(2)), SolverBackend::Transportation);
        assert_eq!(p2.status, PlacementStatus::Optimal);
    }

    #[test]
    fn splits_across_candidates_when_one_lacks_capacity() {
        // star: busy hub with two leaf candidates of 6 + 6 spare, excess 10
        let g = topologies::star(3, Link::default());
        let db = Nmdb::new(
            g,
            vec![NodeState::new(90.0, 50.0), NodeState::new(44.0, 1.0), NodeState::new(44.0, 1.0)],
        );
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
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
        let p = optimize(&db, &cfg(), SolverBackend::Simplex);
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert!((p.total_offloaded() - (5.0 + 8.0)).abs() < 1e-6);
        assert!(p.assignments.iter().all(|a| a.to == NodeId(0)));
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
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert_eq!(p.assignments.len(), 1);
        assert_eq!(p.assignments[0].to, NodeId(1), "faster route must win");
    }

    #[test]
    fn beta_equals_sum_of_amount_times_trmin() {
        let db = simple_nmdb();
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
        let recomputed: f64 = p.assignments.iter().map(|a| a.amount * a.t_rmin).sum();
        assert!((p.beta - recomputed).abs() < 1e-9 * (1.0 + p.beta.abs()));
    }

    #[test]
    fn engines_produce_same_placement() {
        let db = simple_nmdb();
        let e =
            optimize(&db, &cfg().with_engine(PathEngine::Enumerate), SolverBackend::Transportation);
        let d = optimize(
            &db,
            &cfg().with_engine(PathEngine::HopBoundedDp),
            SolverBackend::Transportation,
        );
        assert_eq!(e.status, d.status);
        assert!((e.beta - d.beta).abs() < 1e-9);
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
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
        assert_eq!(p.status, PlacementStatus::Optimal);
        let price = |n: u32| {
            p.shadow_prices.iter().find(|(id, _)| *id == NodeId(n)).map(|(_, v)| *v).unwrap()
        };
        assert!(
            price(1) < price(2) - 1e-9,
            "binding fast candidate must be worth upgrading: {:?}",
            p.shadow_prices
        );
        // simplex backend leaves the field empty
        let ps = optimize(&db, &cfg(), SolverBackend::Simplex);
        assert!(ps.shadow_prices.is_empty());
    }

    #[test]
    fn mean_hops_reported() {
        let db = simple_nmdb();
        let p = optimize(&db, &cfg(), SolverBackend::Transportation);
        assert_eq!(p.mean_hops(), Some(2.0));
    }

    fn nz(k: usize) -> NonZeroUsize {
        NonZeroUsize::new(k).unwrap()
    }

    /// Thresholds from `cfg()` but `T_rmin` priced by the hop-bounded DP:
    /// exhaustive enumeration is exponential on fat-trees beyond 4-k, so
    /// the partition tests would never finish under `paper_defaults`.
    fn fat_cfg() -> DustConfig {
        cfg().with_engine(dust_topology::PathEngine::HopBoundedDp)
    }

    fn fat_tree_nmdb(k: usize, seed: u64) -> Nmdb {
        let ft = dust_topology::FatTree::with_default_links(k);
        crate::scenario::random_nmdb(&ft.graph, &fat_cfg(), &crate::ScenarioParams::default(), seed)
    }

    #[test]
    fn partitioned_k1_matches_exact_bit_for_bit() {
        let db = fat_tree_nmdb(8, 42);
        let engine = CostEngine::sequential();
        let exact = optimize_with(&db, &fat_cfg(), SolverBackend::Transportation, &engine).unwrap();
        let part = optimize_with_path(
            &db,
            &fat_cfg(),
            SolverBackend::Transportation,
            &engine,
            SolvePath::Partitioned { parts: nz(1), seed: 7 },
        )
        .unwrap();
        assert_eq!(part.partitions, 1);
        assert!(!part.partition_fallback);
        assert_eq!(part.beta.to_bits(), exact.beta.to_bits());
        assert_eq!(part.assignments.len(), exact.assignments.len());
    }

    #[test]
    fn partitioned_solve_is_feasible_with_bounded_gap() {
        let db = fat_tree_nmdb(8, 3);
        let engine = CostEngine::new();
        let exact = optimize_with(&db, &fat_cfg(), SolverBackend::Transportation, &engine).unwrap();
        assert_eq!(exact.status, PlacementStatus::Optimal);
        for k in [2usize, 4] {
            let part = optimize_with_path(
                &db,
                &fat_cfg(),
                SolverBackend::Transportation,
                &engine,
                SolvePath::Partitioned { parts: nz(k), seed: 1 },
            )
            .unwrap();
            assert_eq!(part.status, PlacementStatus::Optimal, "k={k}");
            assert!((part.total_offloaded() - exact.total_offloaded()).abs() < 1e-6);
            assert!(part.beta >= exact.beta - 1e-9, "partitioned can't beat the optimum");
            if !part.partition_fallback {
                assert_eq!(part.partitions, k);
                // random fat-tree instances are granular; a huge gap would
                // mean recombination lost flow
                assert!(part.beta <= exact.beta * 2.0, "k={k}: gap too large");
            }
        }
    }

    #[test]
    fn partitioned_is_deterministic_for_any_thread_count() {
        let db = fat_tree_nmdb(8, 11);
        let path = SolvePath::Partitioned { parts: nz(4), seed: 5 };
        let base = optimize_with_path(
            &db,
            &fat_cfg(),
            SolverBackend::Transportation,
            &CostEngine::sequential(),
            path,
        )
        .unwrap();
        for threads in [2usize, 8] {
            let p = optimize_with_path(
                &db,
                &fat_cfg(),
                SolverBackend::Transportation,
                &CostEngine::with_threads(threads),
                path,
            )
            .unwrap();
            assert_eq!(p.beta.to_bits(), base.beta.to_bits(), "threads {threads}");
            assert_eq!(p.assignments.len(), base.assignments.len());
        }
    }

    #[test]
    fn partitioned_k_beyond_busy_count_still_places_everything() {
        let db = simple_nmdb(); // exactly one busy node
        let part = optimize_with_path(
            &db,
            &cfg(),
            SolverBackend::Transportation,
            &CostEngine::new(),
            SolvePath::Partitioned { parts: nz(64), seed: 0 },
        )
        .unwrap();
        assert_eq!(part.status, PlacementStatus::Optimal);
        assert!((part.total_offloaded() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn partitioned_simplex_is_a_bad_config() {
        let db = simple_nmdb();
        let err = optimize_with_path(
            &db,
            &cfg(),
            SolverBackend::Simplex,
            &CostEngine::new(),
            SolvePath::Partitioned { parts: nz(4), seed: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, DustError::BadConfig(_)));
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
        // 12 seeds × {testbed, 16-k fat-tree} × k∈{1,4}: after seeded link
        // drift, a solve warm-started from the previous round's bases must
        // land on the same objective a cold solve reaches. Warm starts trade
        // pivots, never optimality.
        let testbed = topologies::example7(Link::default());
        let params = crate::ScenarioParams::default();
        for seed in 0..12u64 {
            for topo in 0..2usize {
                let base = if topo == 0 {
                    crate::scenario::random_nmdb(&testbed, &fat_cfg(), &params, seed)
                } else {
                    fat_tree_nmdb(16, seed)
                };
                let engine = CostEngine::new();
                for k in [1usize, 4] {
                    let path = SolvePath::Partitioned { parts: nz(k), seed: 9 };
                    let first = optimize_with_path(
                        &base,
                        &fat_cfg(),
                        SolverBackend::Transportation,
                        &engine,
                        path,
                    )
                    .unwrap();
                    if first.status != PlacementStatus::Optimal {
                        continue;
                    }
                    let next = drifted(&base, seed.wrapping_mul(2654435761).wrapping_add(k as u64));
                    let cold = optimize_with_path(
                        &next,
                        &fat_cfg(),
                        SolverBackend::Transportation,
                        &engine,
                        path,
                    )
                    .unwrap();
                    let warm = optimize_with_path_warm(
                        &next,
                        &fat_cfg(),
                        SolverBackend::Transportation,
                        &engine,
                        path,
                        Some(&first.warm),
                    )
                    .unwrap();
                    assert_eq!(cold.status, warm.status, "topo={topo} seed={seed} k={k}");
                    if cold.status == PlacementStatus::Optimal {
                        assert!(
                            (warm.beta - cold.beta).abs() <= 1e-7 * (1.0 + cold.beta.abs()),
                            "topo={topo} seed={seed} k={k}: warm {} vs cold {}",
                            warm.beta,
                            cold.beta
                        );
                        assert!(
                            (warm.total_offloaded() - cold.total_offloaded()).abs() < 1e-6,
                            "topo={topo} seed={seed} k={k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_round_over_unchanged_instance_pivots_zero_times() {
        let db = fat_tree_nmdb(8, 42);
        let obs = dust_obs::ObsHandle::recording(0);
        let engine = CostEngine::new().with_obs(obs.clone());
        let first = optimize_with(&db, &fat_cfg(), SolverBackend::Transportation, &engine).unwrap();
        assert_eq!(first.status, PlacementStatus::Optimal);
        assert!(!first.warm.is_empty(), "optimal transportation rounds must export bases");
        let warm = optimize_with_path_warm(
            &db,
            &fat_cfg(),
            SolverBackend::Transportation,
            &engine,
            SolvePath::Exact,
            Some(&first.warm),
        )
        .unwrap();
        assert!(warm.warm_used);
        // flows are re-derived from the basis by leaf-peeling, so the sum
        // may round differently — equality is mathematical, not bitwise
        assert!((warm.beta - first.beta).abs() <= 1e-9 * (1.0 + first.beta.abs()));
        assert_eq!(obs.counter("lp.warm_solves"), 1);
        assert_eq!(obs.counter("lp.warm_pivots"), 0, "an already-optimal basis needs no pivots");
        assert!(obs.counter("lp.pivots_saved") > 0);
        assert_eq!(obs.counter("lp.warm_rejects"), 0);
    }

    #[test]
    fn partitioned_warm_round_saves_pivots_and_matches_cold() {
        let db = fat_tree_nmdb(8, 21);
        let obs = dust_obs::ObsHandle::recording(0);
        let engine = CostEngine::new().with_obs(obs.clone());
        let path = SolvePath::Partitioned { parts: nz(4), seed: 3 };
        let first =
            optimize_with_path(&db, &fat_cfg(), SolverBackend::Transportation, &engine, path)
                .unwrap();
        assert_eq!(first.status, PlacementStatus::Optimal);
        let next = drifted(&db, 5);
        let saved_before = obs.counter("lp.pivots_saved");
        let warm = optimize_with_path_warm(
            &next,
            &fat_cfg(),
            SolverBackend::Transportation,
            &engine,
            path,
            Some(&first.warm),
        )
        .unwrap();
        let cold =
            optimize_with_path(&next, &fat_cfg(), SolverBackend::Transportation, &engine, path)
                .unwrap();
        if !first.partition_fallback && !warm.partition_fallback {
            assert!(warm.warm_used, "matching per-partition bases must be accepted");
            assert!(obs.counter("lp.pivots_saved") > saved_before);
        }
        assert!(
            (warm.beta - cold.beta).abs() <= 1e-7 * (1.0 + cold.beta.abs()),
            "warm {} vs cold {}",
            warm.beta,
            cold.beta
        );
    }

    #[test]
    fn warm_bases_are_ignored_when_the_busy_set_changes() {
        let db = fat_tree_nmdb(8, 7);
        let engine = CostEngine::new();
        let first = optimize_with(&db, &fat_cfg(), SolverBackend::Transportation, &engine).unwrap();
        assert_eq!(first.status, PlacementStatus::Optimal);
        // flip one candidate to busy: the LP's rows/columns reshape, so the
        // stale bases must be ignored, not trusted
        let mut db2 = db.clone();
        let flipped = first.candidates[0];
        db2.state_mut(flipped).utilization = 99.0;
        let warm = optimize_with_path_warm(
            &db2,
            &fat_cfg(),
            SolverBackend::Transportation,
            &engine,
            SolvePath::Exact,
            Some(&first.warm),
        )
        .unwrap();
        assert!(!warm.warm_used);
    }

    #[test]
    fn simplex_backend_carries_no_warm_state() {
        let db = simple_nmdb();
        let engine = CostEngine::new();
        let p = optimize_with(&db, &cfg(), SolverBackend::Simplex, &engine).unwrap();
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert!(p.warm.is_empty());
        assert!(!p.warm_used);
    }
}
