//! The unified placement API: one builder, two strategies, one engine.
//!
//! [`PlacementRequest`] is the single front door to the placement layer.
//! It owns (or borrows) the [`CostEngine`] that prices `T_rmin` rows —
//! parallel across worker threads and memoized per graph epoch — and
//! routes every strategy through it, so repeated solves on an unchanged
//! graph never re-enumerate paths:
//!
//! ```
//! use dust_core::{DustConfig, Nmdb, NodeState, PlacementRequest, SolverBackend};
//! use dust_topology::{topologies, Link};
//!
//! let g = topologies::line(3, Link::default());
//! let nmdb = Nmdb::new(g, vec![
//!     NodeState::new(92.0, 150.0),
//!     NodeState::new(60.0, 10.0),
//!     NodeState::new(25.0, 10.0),
//! ]);
//! let cfg = DustConfig::paper_defaults();
//! let report = PlacementRequest::new(&nmdb, &cfg)
//!     .backend(SolverBackend::Transportation)
//!     .max_hops(10)
//!     .threads(2)
//!     .solve()
//!     .unwrap();
//! assert!((report.total_offloaded() - 12.0).abs() < 1e-6);
//! ```
//!
//! The two historical free functions ([`optimize`](crate::optimize) and
//! [`heuristic`](crate::heuristic())) remain as thin wrappers over this
//! builder.

use crate::config::DustConfig;
use crate::error::DustError;
use crate::heuristic::{heuristic_with, HeuristicOutcome};
use crate::optimizer::{
    optimize_with, Assignment, Placement, PlacementStatus, SolverBackend, WarmState,
};
use crate::state::Nmdb;
use dust_obs::ObsHandle;
use dust_topology::{CostEngine, PathEngine};

/// Which placement algorithm a request runs.
#[derive(Debug, Clone, Copy)]
enum Strategy {
    /// Exact continuous placement (Eq. 3) — the default.
    Lp,
    /// Algorithm 1 with candidates within `hops` of each busy node.
    Heuristic { hops: usize },
}

/// Either a request-owned engine or one shared by the caller.
enum EngineRef<'a> {
    Owned(Box<CostEngine>),
    Shared(&'a CostEngine),
}

impl EngineRef<'_> {
    fn get(&self) -> &CostEngine {
        match self {
            EngineRef::Owned(e) => e,
            EngineRef::Shared(e) => e,
        }
    }
}

/// Builder for one placement solve over an NMDB snapshot.
///
/// Construct with [`PlacementRequest::new`], refine with the chained
/// setters, then call [`solve`](PlacementRequest::solve) for the unified
/// [`PlacementReport`] — or one of the `run_*` escape hatches when the
/// strategy-specific result type is wanted.
pub struct PlacementRequest<'a> {
    nmdb: &'a Nmdb,
    cfg: DustConfig,
    backend: SolverBackend,
    strategy: Strategy,
    engine: EngineRef<'a>,
    obs: ObsHandle,
    warm: Option<&'a WarmState>,
}

impl<'a> PlacementRequest<'a> {
    /// Start a request with the snapshot and configuration. The strategy
    /// defaults to the exact LP; the cost engine defaults to one worker
    /// per available core.
    pub fn new(nmdb: &'a Nmdb, cfg: &DustConfig) -> Self {
        PlacementRequest {
            nmdb,
            cfg: *cfg,
            backend: SolverBackend::default(),
            strategy: Strategy::Lp,
            engine: EngineRef::Owned(Box::new(CostEngine::new())),
            obs: ObsHandle::disabled(),
            warm: None,
        }
    }

    /// Record metrics and trace events for this solve into `obs` (cost
    /// cache hits/misses, rows priced, solver pivot counts). Applies to
    /// the request-owned engine; when sharing an engine via
    /// [`engine`](PlacementRequest::engine), attach the handle to that
    /// engine with [`CostEngine::set_obs`] instead.
    pub fn obs(mut self, obs: ObsHandle) -> Self {
        if let EngineRef::Owned(e) = &mut self.engine {
            e.set_obs(obs.clone());
        }
        self.obs = obs;
        self
    }

    /// Choose the LP backend (transportation or two-phase simplex).
    pub fn backend(mut self, backend: SolverBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Bound controllable routes to `hops` hops.
    pub fn max_hops(mut self, hops: usize) -> Self {
        self.cfg.max_hop = Some(hops);
        self
    }

    /// Remove the hop bound.
    pub fn unbounded_hops(mut self) -> Self {
        self.cfg.max_hop = None;
        self
    }

    /// Choose the routing engine that prices `T_rmin`.
    pub fn path_engine(mut self, engine: PathEngine) -> Self {
        self.cfg.path_engine = engine;
        self
    }

    /// Price rows with `n` worker threads (0 = one per available core).
    /// Replaces any engine previously set via
    /// [`engine`](PlacementRequest::engine), losing its cache.
    pub fn threads(mut self, n: usize) -> Self {
        self.engine =
            EngineRef::Owned(Box::new(CostEngine::with_threads(n).with_obs(self.obs.clone())));
        self
    }

    /// Price rows with a caller-owned [`CostEngine`], sharing its memoized
    /// rows with every other request using the same engine.
    pub fn engine(mut self, engine: &'a CostEngine) -> Self {
        self.engine = EngineRef::Shared(engine);
        self
    }

    /// Warm-start this solve from a previous round's basis
    /// ([`Placement::warm`]). Warm and cold solves reach the same
    /// objective; a stale or mismatched basis is rejected cold by the
    /// solver. Applies to the LP strategy with the transportation
    /// backend only.
    pub fn warm_start(mut self, warm: &'a WarmState) -> Self {
        self.warm = Some(warm);
        self
    }

    /// Use Algorithm 1 (the paper's one-hop heuristic).
    pub fn heuristic(self) -> Self {
        self.heuristic_hops(1)
    }

    /// Use the generalized heuristic with candidates within `hops`.
    pub fn heuristic_hops(mut self, hops: usize) -> Self {
        self.strategy = Strategy::Heuristic { hops };
        self
    }

    /// The worker-thread count the request will price rows with.
    pub fn thread_count(&self) -> usize {
        self.engine.get().threads()
    }

    /// Run the configured strategy and unify the outcome.
    ///
    /// Hard failures become typed [`DustError`]s: an exact solve with no
    /// feasible placement returns
    /// [`DustError::Infeasible`] — refined to
    /// [`DustError::NoPathWithinHops`] when the hop bound disconnects
    /// every (busy, candidate) pair — and an invalid configuration
    /// returns [`DustError::BadConfig`]. Partial outcomes (heuristic
    /// residuals) are data, not errors.
    pub fn solve(&self) -> Result<PlacementReport, DustError> {
        let threads = self.thread_count();
        let outcome = match self.strategy {
            Strategy::Lp => {
                let p = self.run_lp()?;
                if p.status == PlacementStatus::Infeasible {
                    return Err(self.refine_infeasible(&p.busy, &p.candidates));
                }
                ReportOutcome::Lp(p)
            }
            Strategy::Heuristic { .. } => ReportOutcome::Heuristic(self.run_heuristic()?),
        };
        Ok(PlacementReport { threads, outcome })
    }

    /// Run the exact LP regardless of the configured strategy, returning
    /// the full [`Placement`] (including the legacy status enum).
    pub fn run_lp(&self) -> Result<Placement, DustError> {
        optimize_with(self.nmdb, &self.cfg, self.backend, self.engine.get(), self.warm)
    }

    /// Run the heuristic regardless of the configured strategy (reach
    /// defaults to the paper's one hop unless set via
    /// [`heuristic_hops`](PlacementRequest::heuristic_hops)).
    pub fn run_heuristic(&self) -> Result<HeuristicOutcome, DustError> {
        let hops = match self.strategy {
            Strategy::Heuristic { hops } => hops,
            Strategy::Lp => 1,
        };
        heuristic_with(self.nmdb, &self.cfg, hops, self.engine.get())
    }

    /// Distinguish "no route within the hop bound" from a genuine
    /// capacity shortfall. Reads the engine's already-cached rows, so the
    /// check costs no re-pricing after a solve.
    fn refine_infeasible(
        &self,
        busy: &[dust_topology::NodeId],
        candidates: &[dust_topology::NodeId],
    ) -> DustError {
        if busy.is_empty() || candidates.is_empty() {
            return DustError::Infeasible;
        }
        let engine = self.engine.get();
        let reachable = busy.iter().any(|&b| {
            let row = engine.row(&self.nmdb.graph, b, self.cfg.max_hop, self.cfg.path_engine);
            candidates.iter().any(|c| row[c.index()].is_finite())
        });
        if reachable {
            DustError::Infeasible
        } else {
            DustError::NoPathWithinHops
        }
    }
}

/// Strategy-specific payload of a [`PlacementReport`].
#[derive(Debug, Clone)]
pub enum ReportOutcome {
    /// Exact continuous placement.
    Lp(Placement),
    /// Algorithm 1 outcome (may carry residual excess).
    Heuristic(HeuristicOutcome),
}

/// Unified result of [`PlacementRequest::solve`].
#[derive(Debug, Clone)]
pub struct PlacementReport {
    /// Worker threads the cost engine priced rows with.
    pub threads: usize,
    /// The strategy-specific result.
    pub outcome: ReportOutcome,
}

impl PlacementReport {
    /// Objective `β = Σ x_ij · T_rmin(i,j)` of the accepted moves.
    pub fn beta(&self) -> f64 {
        match &self.outcome {
            ReportOutcome::Lp(p) => p.beta,
            ReportOutcome::Heuristic(h) => h.beta,
        }
    }

    /// Accepted offload decisions.
    pub fn assignments(&self) -> &[Assignment] {
        match &self.outcome {
            ReportOutcome::Lp(p) => &p.assignments,
            ReportOutcome::Heuristic(h) => &h.assignments,
        }
    }

    /// Total capacity-percent moved by the accepted assignments.
    pub fn total_offloaded(&self) -> f64 {
        self.assignments().iter().map(|a| a.amount).sum()
    }

    /// The LP placement, when that strategy ran.
    pub fn as_lp(&self) -> Option<&Placement> {
        match &self.outcome {
            ReportOutcome::Lp(p) => Some(p),
            _ => None,
        }
    }

    /// The heuristic outcome, when that strategy ran.
    pub fn as_heuristic(&self) -> Option<&HeuristicOutcome> {
        match &self.outcome {
            ReportOutcome::Heuristic(h) => Some(h),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn builder_defaults_to_lp_and_matches_free_function() {
        let db = simple_nmdb();
        let report = PlacementRequest::new(&db, &cfg()).solve().unwrap();
        let legacy = crate::optimizer::optimize(&db, &cfg(), SolverBackend::Transportation);
        assert_eq!(report.beta().to_bits(), legacy.beta.to_bits());
        assert_eq!(report.assignments().len(), legacy.assignments.len());
        assert!(report.as_lp().is_some());
    }

    #[test]
    fn thread_counts_do_not_change_the_answer() {
        let db = simple_nmdb();
        let base = PlacementRequest::new(&db, &cfg()).threads(1).solve().unwrap();
        for n in [2usize, 4, 8] {
            let r = PlacementRequest::new(&db, &cfg()).threads(n).solve().unwrap();
            assert_eq!(r.beta().to_bits(), base.beta().to_bits(), "threads {n}");
            assert_eq!(r.threads, n);
        }
    }

    #[test]
    fn bad_config_is_typed() {
        let db = simple_nmdb();
        let bad = cfg().with_thresholds(60.0, 70.0, 5.0);
        let err = PlacementRequest::new(&db, &bad).solve().unwrap_err();
        assert!(matches!(err, DustError::BadConfig(_)));
    }

    #[test]
    fn hop_starvation_is_distinguished_from_capacity_shortfall() {
        let db = simple_nmdb();
        // candidate is 2 hops away; a 1-hop bound starves routing
        let err = PlacementRequest::new(&db, &cfg()).max_hops(1).solve().unwrap_err();
        assert_eq!(err, DustError::NoPathWithinHops);
        // same topology, reachable candidate, but capacity genuinely short
        let g = topologies::line(2, Link::default());
        let tight = Nmdb::new(g, vec![NodeState::new(99.0, 10.0), NodeState::new(49.0, 1.0)]);
        let err = PlacementRequest::new(&tight, &cfg()).solve().unwrap_err();
        assert_eq!(err, DustError::Infeasible);
    }

    #[test]
    fn heuristic_strategy_reports_partial_outcomes_as_data() {
        // two-hop candidate is invisible at one hop: 100% HFR, still Ok
        let db = simple_nmdb();
        let report = PlacementRequest::new(&db, &cfg()).heuristic().solve().unwrap();
        let h = report.as_heuristic().unwrap();
        assert!(h.nothing_offloaded());
        // the generalized reach succeeds
        let report = PlacementRequest::new(&db, &cfg()).heuristic_hops(2).solve().unwrap();
        assert!(report.as_heuristic().unwrap().fully_offloaded());
        assert!((report.total_offloaded() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn shared_engine_reuses_rows_across_strategies() {
        let db = simple_nmdb();
        let c = cfg().with_engine(PathEngine::HopBoundedDp);
        let engine = CostEngine::with_threads(2);
        let lp = PlacementRequest::new(&db, &c).engine(&engine).solve().unwrap();
        let cached = engine.cached_rows();
        assert!(cached > 0, "the solve must populate the shared cache");
        let again = PlacementRequest::new(&db, &c).engine(&engine).solve().unwrap();
        assert_eq!(engine.cached_rows(), cached, "second solve must be all cache hits");
        assert_eq!(lp.beta().to_bits(), again.beta().to_bits());
    }
}
