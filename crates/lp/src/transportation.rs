//! Specialized solver for the Hitchcock transportation problem.
//!
//! Once the `T_rmin` costs are known, the DUST placement model (Eq. 3) *is*
//! a transportation LP: ship `Cs_i` units out of every Busy node `i`
//! (equality, Eq. 3b) into Offload-candidates `j` with spare capacity
//! `Cd_j` (inequality, Eq. 3a), minimizing `Σ x_ij · T_rmin(i,j)`. This
//! module solves that structure directly — Vogel's approximation for the
//! initial basis, then MODI (u-v) improvement on the basis spanning tree —
//! which is far faster than the general simplex for the many small problems
//! the heuristic spawns (ablation 2 in DESIGN.md).
//!
//! **A sparse instance.** Eq. 3 has a variable only for a pair joined by a
//! path within the hop bound, so an instance lists only those *admissible*
//! cells, row by row ([`TransportProblem::sparse`]); at a hop bound of two
//! they are about a fifth of a fat-tree round's `m · n` cells. Every other
//! cell is *implicit*: it costs big-M = (largest admissible cost + 1) · 10⁶,
//! is never stored, and is read only where a step could pick it. Any flow
//! left on an implicit cell at the optimum proves the instance infeasible.
//! Besides the instance and its column lists, the solver's state is
//! `O(m + n)`: the basis tree's edges carry the flows, and nothing is kept
//! per cell. Costs so large that big-M would overflow are solved scaled
//! down by a power of two, which is exact.
//!
//! Both phases keep indexed state, so a step costs what it changes rather
//! than a rescan of the instance:
//!
//! * **Vogel** caches, per open row and column, its two smallest open costs
//!   and where they sit, and rescans a line only when the line just closed
//!   was one of those two. A rescan reads the line's admissible cells, a
//!   closed one at a floor of +∞, so it never branches on which are open.
//!   Big-M exceeds every admissible cost, so an implicit cell can only be
//!   the line's cheapest when no admissible cell is open, and its second
//!   cheapest when one is — and then it is the first open line the
//!   admissible cells leave out, found through pointers that skip closed
//!   lines. The penalties sit at the leaves of a winner tree
//!   (`Tournament`), so a step reads the largest at the root and a changed
//!   penalty replays the matches on its way up.
//! * **MODI** holds the basis as the adjacency lists of the spanning tree it
//!   forms on the row and column vertices, so potentials, the entering
//!   cell's cycle, the exported [`Basis`] and the warm-start peel all walk
//!   tree edges. A pivot cuts one tree edge, so only the duals of the
//!   component cut off from the root can move; that component is re-hung
//!   below the entering cell and only its potentials are recomputed
//!   (`Duals::hang`). Pricing is the exact Dantzig rule (most negative
//!   reduced cost, row-major, first wins) over a per-row cache of each
//!   row's minimum: a row is priced afresh only if its own dual, its basic
//!   set or the dual under its cached minimum changed, and every other row
//!   takes in just the columns whose dual moved, through those columns'
//!   lists of admissible rows. Implicit cells are priced only where they
//!   could matter: an implicit reduced cost `big_m − u_i − v_j` is at least
//!   `big_m − u_i − v_max` for any `v_max` above every column dual, so a row
//!   whose minimum lies below that bound skips them all; only when a big-M
//!   cell is basic, and the potentials carry big-M, does a row read them.
//!   A row or column whose cells are consecutive is read by position, with
//!   no list, so an instance that admits every cell is priced as fast as a
//!   dense matrix. [`TransportSolution::cells_priced`] counts the reduced
//!   costs evaluated.
//!
//! None of this changes what the solver does. Each potential is the chain
//! `u_i + v_j = c_ij` along its own tree path from the root, so the
//! re-hung subtree's values are bit-equal to a recompute from the root, and
//! pivots, flows and bases are bit-identical to the plain textbook loops
//! over a dense big-M matrix — `tests/transport_pins.rs` holds them to that.
//!
//! A search that exhausts its pivot budget reports
//! [`TransportStatus::IterationLimit`] and withholds its flows rather than
//! passing them off as optimal.

use std::borrow::Cow;

/// A transportation instance over its admissible cells.
///
/// Row `i` lists its admissible sinks in ascending order with their unit
/// costs; every pair it does not list is forbidden (unreachable). Build one
/// from a row-major matrix with [`TransportProblem::new`], or from its rows
/// with [`TransportProblem::sparse`].
#[derive(Debug, Clone)]
pub struct TransportProblem {
    /// Amount that *must* leave each source (`Cs_i`, Eq. 3b).
    pub supply: Vec<f64>,
    /// Maximum each sink can absorb (`Cd_j`, Eq. 3a).
    pub capacity: Vec<f64>,
    /// Unit shipping costs of the admissible cells, row by row, each row's
    /// sinks ascending. They must stay finite and `>= 0`.
    pub cost: Vec<f64>,
    /// The sink of each entry of `cost`.
    columns: Vec<u32>,
    /// Row `i`'s entries are `row_start[i]..row_start[i + 1]`.
    row_start: Vec<u32>,
}

/// Outcome of a transportation solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportStatus {
    /// All supply was shipped over permitted routes at minimum cost.
    Optimal,
    /// Supply exceeds reachable capacity — no feasible shipment exists.
    Infeasible,
    /// MODI hit its pivot cap before proving optimality. The flows it
    /// stopped on are feasible but unoptimised, so they are withheld.
    IterationLimit,
}

/// Transportation solution: flows and objective.
#[derive(Debug, Clone)]
pub struct TransportSolution {
    /// Solve outcome.
    pub status: TransportStatus,
    /// `(i, j, x_ij)` on the basis cells of the supply rows, row-major
    /// (empty unless optimal). Every other cell carries nothing; zero-flow
    /// basis cells are listed too.
    pub flows: Vec<(u32, u32, f64)>,
    /// `Σ x_ij · c_ij` (NaN unless optimal).
    pub objective: f64,
    /// MODI improvement pivots performed.
    pub iterations: usize,
    /// Of those, pivots that moved no flow (`theta = 0`): the basis
    /// changed, the solution did not.
    pub degenerate_pivots: usize,
    /// Reduced costs the pricing step evaluated, the first pricing of every
    /// row included: a work count the clock cannot fake. The first pricing
    /// reads each row's admissible cells and the slack row's `cols` cells,
    /// and a row reads its implicit cells only when a basic big-M cell puts
    /// them within reach.
    pub cells_priced: u64,
    /// Dual values `u_i` per source (empty unless optimal): the marginal
    /// cost of one more unit of supply at source `i`.
    pub row_potentials: Vec<f64>,
    /// Dual values `v_j` per sink (empty unless optimal): the shadow price
    /// of one more unit of capacity at sink `j` — which Offload-candidate
    /// is worth upgrading.
    pub col_potentials: Vec<f64>,
    /// The optimal spanning-tree basis, reusable as the `warm` basis of
    /// [`TransportProblem::solve_with`] for the next solve of a similar
    /// instance (`None` on infeasible or trivial solves).
    pub basis: Option<Basis>,
    /// True when this solve started from an accepted warm-start basis
    /// instead of the Vogel initial-assignment phase.
    pub warm_used: bool,
}

impl TransportSolution {
    /// `x_ij`: the flow of the basis cell `(i, j)`, or `0.0` off the basis.
    pub fn flow_at(&self, i: usize, j: usize) -> f64 {
        self.flows
            .binary_search_by_key(&(i, j), |&(r, c, _)| (r as usize, c as usize))
            .map_or(0.0, |k| self.flows[k].2)
    }
}

/// A spanning-tree basis exported from an optimal transportation solve.
///
/// The cells live on the *balanced* instance (real supply rows plus the
/// dummy slack source the solver appends), so a basis round-trips between
/// solves without the caller ever seeing the balancing. Feeding a stale
/// basis back in via [`TransportProblem::solve_with`] can never change the
/// answer: MODI converges to the optimum from *any* basic feasible
/// solution, and a basis that no longer fits (changed dimensions, not
/// spanning, or infeasible for the new supplies/capacities) is silently
/// rejected in favor of the cold Vogel start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    /// Balanced-instance rows (real supply rows + 1 dummy).
    rows: usize,
    /// Sink columns.
    cols: usize,
    /// Basic cells `(row, col)` of the balanced instance, row-major order.
    cells: Vec<(u32, u32)>,
}

impl Basis {
    /// Balanced-instance dimensions `(rows, cols)`; `rows` counts the
    /// dummy slack source the solver appends.
    pub fn dims(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of basic cells — `rows + cols - 1` for a spanning tree.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the basis holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// How a solve used (or didn't use) its warm-start basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmUse {
    /// No warm basis was offered, or the solve ended (trivial, or
    /// infeasible by capacity) before a start was chosen.
    Cold,
    /// A warm basis was offered but did not fit the instance.
    Rejected,
    /// The warm basis seeded the solve.
    Accepted,
}

/// Costs above this are solved scaled down by a power of two, the largest
/// to `[1, 2)`: big-M is a million times the largest cost, and the
/// potentials are sums and differences of big-M, so unscaled costs above
/// ≈ 1.8e302 would take big-M to +∞ (a 10 Gbps link at a utilisation
/// near 1e-305 prices a hop at ≈ 1e301). Scaling by a power of two is
/// exact; the threshold is `2^64`, far above any priced `T_rmin`, so no
/// ordinary instance is scaled.
const SCALE_ABOVE: f64 = 18_446_744_073_709_551_616.0;

impl TransportProblem {
    /// Validate and create an instance from a row-major
    /// `supply.len() × capacity.len()` cost matrix, where `f64::INFINITY`
    /// marks a forbidden (unreachable) route. Only the finite cells are
    /// kept.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent, any supply/capacity is
    /// negative or non-finite, or any cost is NaN or negative.
    pub fn new(supply: Vec<f64>, capacity: Vec<f64>, cost: Vec<f64>) -> Self {
        assert_eq!(cost.len(), supply.len() * capacity.len(), "cost matrix shape mismatch");
        for &c in &cost {
            assert!(!c.is_nan() && c >= 0.0, "costs must be >= 0 or +inf, got {c}");
        }
        let n = capacity.len();
        let mut row_start = Vec::with_capacity(supply.len() + 1);
        row_start.push(0);
        let (mut columns, mut kept) = (Vec::new(), Vec::new());
        for row in cost.chunks_exact(n.max(1)).take(supply.len()) {
            for (j, &c) in row.iter().enumerate().filter(|(_, c)| c.is_finite()) {
                columns.push(j as u32);
                kept.push(c);
            }
            row_start.push(columns.len() as u32);
        }
        row_start.resize(supply.len() + 1, 0);
        Self::sparse(supply, capacity, row_start, columns, kept)
    }

    /// Validate and create an instance from its admissible cells: row `i`
    /// lists sinks `columns[row_start[i]..row_start[i + 1]]`, strictly
    /// ascending, at unit costs `cost[..]` over the same range.
    ///
    /// # Panics
    /// Panics if `row_start` does not delimit `supply.len()` rows of
    /// `columns` and `cost`, a row's sinks are out of range or not strictly
    /// ascending, any supply/capacity is negative or non-finite, or any
    /// cost is negative or non-finite.
    pub fn sparse(
        supply: Vec<f64>,
        capacity: Vec<f64>,
        row_start: Vec<u32>,
        columns: Vec<u32>,
        cost: Vec<f64>,
    ) -> Self {
        for &s in &supply {
            assert!(s.is_finite() && s >= 0.0, "supply must be finite and >= 0, got {s}");
        }
        for &d in &capacity {
            assert!(d.is_finite() && d >= 0.0, "capacity must be finite and >= 0, got {d}");
        }
        assert_eq!(row_start.len(), supply.len() + 1, "one row start per supply row, and an end");
        assert_eq!(columns.len(), cost.len(), "one cost per admissible cell");
        assert!(
            row_start[0] == 0 && row_start[supply.len()] as usize == columns.len(),
            "the rows must cover the admissible cells"
        );
        // The checks run on every solve, so they fold over the cells without
        // stopping early, which lets them run several cells at a time.
        for w in row_start.windows(2) {
            assert!(w[0] <= w[1], "row starts must not decrease");
            let row = &columns[w[0] as usize..w[1] as usize];
            let ascending = row.windows(2).fold(true, |ok, p| ok & (p[0] < p[1]));
            assert!(ascending, "a row's sinks must ascend");
            assert!(row.last().is_none_or(|&j| (j as usize) < capacity.len()), "sink out of range");
        }
        let bad = |c: f64| !(0.0..f64::INFINITY).contains(&c);
        if cost.iter().fold(false, |any, &c| any | bad(c)) {
            let c = cost.iter().find(|&&c| bad(c)).expect("a bad cost");
            panic!("admissible costs must be finite and >= 0, got {c}");
        }
        TransportProblem { supply, capacity, cost, columns, row_start }
    }

    /// Row `i`'s admissible sinks, ascending, and their costs.
    pub fn row(&self, i: usize) -> (&[u32], &[f64]) {
        let at = self.row_start[i] as usize..self.row_start[i + 1] as usize;
        (&self.columns[at.clone()], &self.cost[at])
    }

    /// The cost of cell `(i, j)`: `f64::INFINITY` when it is not admissible.
    pub fn cost_at(&self, i: usize, j: usize) -> f64 {
        let (cols, costs) = self.row(i);
        cols.binary_search(&(j as u32)).map_or(f64::INFINITY, |k| costs[k])
    }

    /// The one observed solve: solve, starting from `warm` when one is
    /// offered, and record solver metrics into `obs` — a MODI pivot counter
    /// and histogram plus one `TransportSolve` trace event. A disabled
    /// handle skips all recording, preserving the untraced path exactly.
    ///
    /// `warm` is a spanning-tree basis from a previous round, used instead
    /// of the Vogel initial-assignment phase. Warm and cold solves reach
    /// the same objective. A basis that does not fit the instance falls
    /// back to the cold start and counts as `lp.warm_rejects`; an accepted
    /// one adds the `rows + cols - 1` initial assignments it skipped to
    /// `lp.pivots_saved`. The split between `lp.warm_pivots` and
    /// `lp.cold_pivots` records where the pivots went. A trivial solve, or
    /// one the up-front capacity check finds infeasible, counts as cold
    /// whether or not a basis was offered.
    pub fn solve_with(&self, obs: &dust_obs::ObsHandle, warm: Option<&Basis>) -> TransportSolution {
        let _prof = obs.prof_scope("lp.transport.solve");
        let (s, warm_use) = self.solve_inner(warm, None);
        if obs.is_enabled() {
            obs.counter_inc("lp.transport.solves");
            obs.counter_add("lp.transport.pivots", s.iterations as u64);
            obs.counter_add("lp.degenerate_pivots", s.degenerate_pivots as u64);
            obs.counter_add("lp.cells_priced", s.cells_priced);
            obs.observe("lp.transport.pivots", s.iterations as f64);
            match warm_use {
                WarmUse::Accepted => {
                    obs.counter_inc("lp.warm_solves");
                    obs.counter_add("lp.warm_pivots", s.iterations as u64);
                    let skipped = s.basis.as_ref().map(|b| b.len()).unwrap_or(0);
                    obs.counter_add("lp.pivots_saved", skipped as u64);
                }
                WarmUse::Rejected => {
                    obs.counter_inc("lp.warm_rejects");
                    obs.counter_add("lp.cold_pivots", s.iterations as u64);
                }
                WarmUse::Cold => {
                    obs.counter_add("lp.cold_pivots", s.iterations as u64);
                }
            }
            obs.trace(dust_obs::TraceEvent::TransportSolve { pivots: s.iterations as u64 });
        }
        s
    }

    /// Solve cold with no observability.
    pub fn solve(&self) -> TransportSolution {
        self.solve_with(&dust_obs::ObsHandle::disabled(), None)
    }

    /// The balanced instance the solver works on — the supply rows, then a
    /// dummy slack source absorbing spare capacity at zero cost — with its
    /// costs scaled down by `1 / unscale` when they are too large for
    /// big-M (`unscale` is 1 otherwise).
    fn balanced(&self) -> (Cells<'_>, Vec<f64>, f64) {
        let max_finite = max_of(&self.cost, 0.0);
        let (cost, max_finite, unscale) = if max_finite > SCALE_ABOVE {
            // the exponent of the largest cost: it scales to [1, 2)
            let e = ((max_finite.to_bits() >> 52) & 0x7ff) as i32 - 1023;
            let scale = 0.5f64.powi(e);
            let cost = Cow::Owned(self.cost.iter().map(|c| c * scale).collect());
            (cost, max_finite * scale, 2f64.powi(e))
        } else {
            (Cow::Borrowed(&self.cost[..]), max_finite, 1.0)
        };
        // dominates any mix of real costs
        let big_m = (max_finite + 1.0) * 1e6;
        let cells = Cells::new(self.capacity.len(), &self.row_start, &self.columns, cost, big_m);
        let total_supply: f64 = self.supply.iter().sum();
        let total_cap: f64 = self.capacity.iter().sum();
        let mut supply = Vec::with_capacity(self.supply.len() + 1);
        supply.extend_from_slice(&self.supply);
        supply.push(total_cap - total_supply);
        (cells, supply, unscale)
    }

    /// `pivot_cap` overrides the default MODI pivot budget; it exists so
    /// the unit tests can reach [`TransportStatus::IterationLimit`].
    fn solve_inner(
        &self,
        warm: Option<&Basis>,
        pivot_cap: Option<usize>,
    ) -> (TransportSolution, WarmUse) {
        const TOL: f64 = 1e-9;
        let m0 = self.supply.len();
        let n = self.capacity.len();
        let total_supply: f64 = self.supply.iter().sum();
        let total_cap: f64 = self.capacity.iter().sum();
        if m0 == 0 || total_supply <= TOL {
            // nothing to ship
            return (
                TransportSolution {
                    status: TransportStatus::Optimal,
                    flows: Vec::new(),
                    objective: 0.0,
                    iterations: 0,
                    degenerate_pivots: 0,
                    cells_priced: 0,
                    row_potentials: vec![0.0; m0],
                    col_potentials: vec![0.0; n],
                    basis: None,
                    warm_used: false,
                },
                WarmUse::Cold,
            );
        }
        if n == 0 || total_supply > total_cap + TOL {
            let none = Pivots { count: 0, degenerate: 0, cells_priced: 0, duals: None };
            return (withheld(TransportStatus::Infeasible, &none, false), WarmUse::Cold);
        }

        let (cells, supply, unscale) = self.balanced();
        let m = cells.m;
        let demand = &self.capacity;
        let (mut state, warm_use) =
            match warm.and_then(|b| State::from_basis(&cells, &supply, demand, b)) {
                Some(s) => (s, WarmUse::Accepted),
                None => {
                    let mut st = State::vogel_initial(&cells, supply, demand.clone(), |_, _, _| ());
                    st.complete_basis(&cells);
                    (st, if warm.is_some() { WarmUse::Rejected } else { WarmUse::Cold })
                }
            };
        let warm_used = warm_use == WarmUse::Accepted;
        let pivot_cap = pivot_cap.unwrap_or(50 * (m + n).max(16) * (m + n).max(16));
        let mut pivots = state.modi_optimize(&cells, pivot_cap, |_, _, _, _, _| ());
        let Some((u_bal, v_bal)) = pivots.duals.take() else {
            return (withheld(TransportStatus::IterationLimit, &pivots, warm_used), warm_use);
        };

        // The real rows of the basis are the answer (the dummy row is last,
        // so they are a prefix of the row-major cells) — unless flow is
        // left on an implicit cell. Only basic cells carry flow, so summing
        // them row-major adds what a sweep of every cell adds, bit for bit.
        let sorted = state.sorted_cells();
        let real = sorted.iter().take_while(|&&(i, ..)| (i as usize) < m0);
        let mut objective = 0.0;
        let mut flows = Vec::with_capacity(sorted.len());
        for &(i, j, e) in real {
            let edge = state.edges[e as usize];
            if edge.flow > TOL && !cells.admissible(i as usize, j as usize) {
                return (withheld(TransportStatus::Infeasible, &pivots, warm_used), warm_use);
            }
            objective += edge.flow * edge.cost;
            flows.push((i, j, edge.flow));
        }
        let basis =
            Basis { rows: m, cols: n, cells: sorted.iter().map(|&(i, j, _)| (i, j)).collect() };
        // Normalize duals so the dummy source's potential is zero: shifting
        // all u by -u_dummy and all v by +u_dummy preserves u_i + v_j and
        // anchors sink potentials at "price relative to leaving capacity
        // unused" (the dummy row costs 0).
        let shift = u_bal[m0];
        let row_potentials: Vec<f64> = u_bal[..m0].iter().map(|u| (u - shift) * unscale).collect();
        let col_potentials: Vec<f64> = v_bal.iter().map(|v| (v + shift) * unscale).collect();
        (
            TransportSolution {
                status: TransportStatus::Optimal,
                flows,
                objective: objective * unscale,
                iterations: pivots.count,
                degenerate_pivots: pivots.degenerate,
                cells_priced: pivots.cells_priced,
                row_potentials,
                col_potentials,
                basis: Some(basis),
                warm_used,
            },
            warm_use,
        )
    }
}

/// A solution that carries no flows: the instance is infeasible, or the
/// pivot cap stopped the search.
fn withheld(status: TransportStatus, pivots: &Pivots, warm_used: bool) -> TransportSolution {
    TransportSolution {
        status,
        flows: Vec::new(),
        objective: f64::NAN,
        iterations: pivots.count,
        degenerate_pivots: pivots.degenerate,
        cells_priced: pivots.cells_priced,
        row_potentials: Vec::new(),
        col_potentials: Vec::new(),
        basis: None,
        warm_used,
    }
}

/// The balanced `m × n` instance as the solver reads it: the admissible
/// cells of the supply rows `0..m − 1` by row, the dummy row `m − 1` (every
/// column admissible at cost 0), every column's admissible rows, and the
/// cost of every other cell, big-M.
struct Cells<'a> {
    m: usize,
    n: usize,
    big_m: f64,
    row_start: &'a [u32],
    columns: &'a [u32],
    cost: Cow<'a, [f64]>,
    /// The dummy row: every column, at cost 0.
    every_col: Vec<u32>,
    zeros: Vec<f64>,
    /// Column `j`'s admissible rows, ascending (the dummy row last), are
    /// `col_rows[col_start[j]..col_start[j + 1]]`, at `col_cost[..]`.
    col_start: Vec<u32>,
    col_rows: Vec<u32>,
    col_cost: Vec<f64>,
}

/// The first of an ascending list of lines that are consecutive, so that
/// a walk of the list needs no read of it; `None` for any other list.
fn run_start(lines: &[u32]) -> Option<usize> {
    let (&first, &last) = (lines.first()?, lines.last()?);
    (last - first + 1 == lines.len() as u32).then_some(first as usize)
}

/// The largest of `xs` and `floor`, for values without NaNs: a maximum
/// over eight independent lanes, so it does not wait on one running
/// maximum per value.
fn max_of(xs: &[f64], floor: f64) -> f64 {
    let max = |a: f64, b: f64| if b > a { b } else { a };
    let mut lanes = [floor; 8];
    let mut chunks = xs.chunks_exact(8);
    for chunk in &mut chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane = max(*lane, x);
        }
    }
    chunks.remainder().iter().copied().chain(lanes).fold(floor, max)
}

impl<'a> Cells<'a> {
    fn new(
        n: usize,
        row_start: &'a [u32],
        columns: &'a [u32],
        cost: Cow<'a, [f64]>,
        big_m: f64,
    ) -> Cells<'a> {
        let m0 = row_start.len() - 1;
        let row = |i: usize| row_start[i] as usize..row_start[i + 1] as usize;
        // A row whose columns are consecutive is a run: it is counted by
        // its ends, through a difference array, and filed a block of rows
        // at a time (below). Every other row goes cell by cell.
        let runs: Vec<Option<usize>> = (0..m0).map(|i| run_start(&columns[row(i)])).collect();
        let (mut count, mut run_ends) = (vec![0u32; n], vec![0i64; n + 1]);
        for (i, run) in runs.iter().enumerate() {
            match *run {
                Some(first) => {
                    run_ends[first] += 1;
                    run_ends[first + row(i).len()] -= 1;
                }
                None => columns[row(i)].iter().for_each(|&j| count[j as usize] += 1),
            }
        }
        let mut col_start = Vec::with_capacity(n + 1);
        let (mut at, mut runs_over) = (0u32, 0i64);
        for (&c, &ends) in count.iter().zip(&run_ends) {
            col_start.push(at);
            runs_over += ends;
            at += c + runs_over as u32 + 1; // + 1: the dummy row
        }
        col_start.push(at);
        let len = columns.len() + n;
        let (mut col_rows, mut col_cost) = (vec![m0 as u32; len], vec![0.0; len]);
        // Filling row by row lists every column's rows in ascending order,
        // and leaves each column's last slot to the dummy row. A row filed
        // cell by cell writes to as many lists as it has cells, each on a
        // page of its own on a dense instance, so consecutive runs are
        // filed BLOCK rows at a time, a column at a time: each list grows
        // by the block's rows in one go.
        const BLOCK: usize = 16;
        let mut next = col_start.clone();
        let mut i = 0;
        while i < m0 {
            if runs[i].is_none() {
                for (&j, &c) in columns[row(i)].iter().zip(&cost[row(i)]) {
                    let slot = &mut next[j as usize];
                    col_rows[*slot as usize] = i as u32;
                    col_cost[*slot as usize] = c;
                    *slot += 1;
                }
                i += 1;
                continue;
            }
            // each run of the block as `(row, first column, end column,
            // where its first cell sits)`
            let mut block = Vec::with_capacity(BLOCK);
            while let Some(Some(first)) = runs.get(i).filter(|_| block.len() < BLOCK) {
                let cells = row(i);
                block.push((i as u32, *first, first + cells.len(), cells.start));
                i += 1;
            }
            let lo = block.iter().map(|b| b.1).min().unwrap_or(0);
            let hi = block.iter().map(|b| b.2).max().unwrap_or(0);
            for j in lo..hi {
                let mut slot = next[j] as usize;
                for &(k, first, end, start) in &block {
                    if first <= j && j < end {
                        col_rows[slot] = k;
                        col_cost[slot] = cost[start + j - first];
                        slot += 1;
                    }
                }
                next[j] = slot as u32;
            }
        }
        Cells {
            m: m0 + 1,
            n,
            big_m,
            row_start,
            columns,
            cost,
            every_col: (0..n as u32).collect(),
            zeros: vec![0.0; n],
            col_start,
            col_rows,
            col_cost,
        }
    }

    /// Row `i`'s admissible columns, ascending, and their costs.
    fn row(&self, i: usize) -> (&[u32], &[f64]) {
        if i + 1 == self.m {
            return (&self.every_col, &self.zeros);
        }
        let at = self.row_start[i] as usize..self.row_start[i + 1] as usize;
        (&self.columns[at.clone()], &self.cost[at])
    }

    /// Column `j`'s admissible rows, ascending, and their costs.
    fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let at = self.col_start[j] as usize..self.col_start[j + 1] as usize;
        (&self.col_rows[at.clone()], &self.col_cost[at])
    }

    fn find(&self, i: usize, j: usize) -> Result<usize, usize> {
        self.row(i).0.binary_search(&(j as u32))
    }

    fn admissible(&self, i: usize, j: usize) -> bool {
        self.find(i, j).is_ok()
    }

    /// The cost of cell `(i, j)`, big-M when it is implicit.
    fn cost(&self, i: usize, j: usize) -> f64 {
        self.find(i, j).map_or(self.big_m, |k| self.row(i).1[k])
    }
}

/// The two smallest costs among the open cells of one row or column, as
/// Vogel's method needs them, and where they sit.
#[derive(Debug, Clone, Copy)]
struct Least {
    /// Smallest open cost, at its first index `k1`.
    c1: f64,
    /// Smallest cost over every *other* open cell, found at `k2`
    /// (`INFINITY` / `usize::MAX` when `k1` is the only open cell).
    c2: f64,
    k1: usize,
    k2: usize,
}

impl Least {
    /// A line with no open cell.
    const EMPTY: Least =
        Least { c1: f64::INFINITY, c2: f64::INFINITY, k1: usize::MAX, k2: usize::MAX };

    /// Take in the line's next open cell; indices must come ascending.
    fn offer(&mut self, k: usize, v: f64) {
        if v < self.c1 {
            (self.c2, self.k2) = (self.c1, self.k1);
            (self.c1, self.k1) = (v, k);
        } else if v < self.c2 {
            (self.c2, self.k2) = (v, k);
        }
    }

    /// One pass over a line's open cells `(index, cost)`, ascending.
    fn scan(open: impl Iterator<Item = (usize, f64)>) -> Least {
        let mut l = Least::EMPTY;
        for (k, v) in open {
            l.offer(k, v);
        }
        l
    }

    /// What [`Least::scan`] finds over every open cell of a line whose
    /// admissible cells are `(adm[k], cost[k])`, ascending, and whose other
    /// cells cost `big_m`; `open` holds the cells that are open.
    ///
    /// `k1` is the first cell of least cost and `k2` the first of least
    /// cost among the others. Big-M exceeds every admissible cost, so both
    /// are admissible when two admissible cells are open. Otherwise the
    /// missing ones are the first open implicit cells, in order; taking
    /// them in after the admissible cells gives what the ascending scan
    /// gives, as each costs more than any admissible cell.
    fn scan_line(adm: &[u32], cost: &[f64], open: &mut Open, big_m: f64) -> Least {
        // a closed cell is taken in at its floor, INFINITY, which changes
        // nothing; an open one at its cost. Taking the larger of the two
        // needs no branch on whether the cell is open, which would be a
        // coin toss per cell once lines start closing.
        let floor = &open.floor;
        let cells = adm.iter().zip(cost).map(|(&k, &v)| {
            let f = floor[k as usize];
            (k as usize, if f > v { f } else { v })
        });
        let mut l = Least::scan(cells);
        if l.k2 == usize::MAX {
            let mut want = if l.k1 == usize::MAX { 2 } else { 1 };
            let mut p = 0;
            let mut k = open.first_from(0);
            while k < open.len() {
                while p < adm.len() && (adm[p] as usize) < k {
                    p += 1;
                }
                if p == adm.len() || adm[p] as usize != k {
                    l.offer(k, big_m);
                    want -= 1;
                    if want == 0 {
                        break;
                    }
                }
                k = open.first_from(k + 1);
            }
        }
        l
    }

    /// Vogel's penalty: the regret of not taking the cheapest cell.
    fn penalty(&self) -> f64 {
        if self.c2.is_finite() {
            self.c2 - self.c1
        } else {
            self.c1
        }
    }

    /// Closing line `k` invalidates this cache only if it held one of the
    /// two cells the cache stands on; closing any other leaves `c1`, `k1`
    /// and `c2` exactly what a rescan would find.
    fn stands_on(&self, k: usize) -> bool {
        self.k1 == k || self.k2 == k
    }
}

/// The open lines of one side of Vogel's instance, the rows or the
/// columns.
struct Open {
    /// `-∞` at an open line and `+∞` at a closed one: the least cost a
    /// cell on it can be taken in at ([`Least::scan_line`]).
    floor: Vec<f64>,
    /// Leads from each line toward the first open line at or after it: an
    /// open line points at itself, a closed one further on, and the
    /// sentinel `next[len]` is always open.
    next: Vec<u32>,
    /// Open lines.
    left: usize,
}

impl Open {
    /// `len` lines, all open.
    fn new(len: usize) -> Open {
        Open { floor: vec![f64::NEG_INFINITY; len], next: (0..=len as u32).collect(), left: len }
    }

    fn len(&self) -> usize {
        self.floor.len()
    }

    fn is_open(&self, k: usize) -> bool {
        self.floor[k] < 0.0
    }

    fn close(&mut self, k: usize) {
        debug_assert!(self.is_open(k), "line {k} is closed twice");
        self.floor[k] = f64::INFINITY;
        self.next[k] = k as u32 + 1;
        self.left -= 1;
    }

    /// The first open line at or after `k`, or `len` when there is none.
    /// Every pointer it follows is bent to skip the next one as well, so a
    /// run of closed lines is soon crossed in a few steps.
    fn first_from(&mut self, mut k: usize) -> usize {
        while self.next[k] as usize != k {
            let further = self.next[self.next[k] as usize];
            self.next[k] = further;
            k = further as usize;
        }
        k
    }
}

/// A winner tree over a fixed number of values without NaNs: every inner
/// node holds the index of its subtree's larger value, the smaller index
/// on ties, so the root holds the first maximum — what a left-to-right
/// strict-`>` scan finds. Changing one value replays the matches on its
/// way to the root, one per level.
struct Tournament {
    /// Heap nodes `(value, index)` of each match's winner: the root at 1,
    /// the children of `k` at `2k` and `2k + 1`, and leaf `x` at `len + x`,
    /// the values padded with `-∞` up to a power of two `len`. A node holds
    /// its winner's value, so a match reads its two children and nothing
    /// else.
    node: Vec<(f64, u32)>,
}

impl Tournament {
    /// A tree over `vals`, which must be non-empty.
    fn new(vals: &[f64]) -> Tournament {
        let size = vals.len().next_power_of_two();
        let mut node = vec![(f64::NEG_INFINITY, 0); 2 * size];
        for (leaf, &v) in node[size..].iter_mut().zip(vals) {
            leaf.0 = v;
        }
        for (x, leaf) in node[size..].iter_mut().enumerate() {
            leaf.1 = x as u32;
        }
        let mut t = Tournament { node };
        for k in (1..size).rev() {
            t.play(k);
        }
        t
    }

    /// The winner at heap node `k` from its children's winners. Every
    /// index under the left child is below every index under the right
    /// one, so the left wins ties.
    fn play(&mut self, k: usize) {
        let (a, b) = (self.node[2 * k], self.node[2 * k + 1]);
        self.node[k] = if b.0 > a.0 { b } else { a };
    }

    /// Value `x`.
    fn value(&self, x: usize) -> f64 {
        self.node[self.node.len() / 2 + x].0
    }

    /// Set value `x` and replay its matches, up to the first one whose
    /// winner is neither `x` nor changed: every match above it replays as
    /// before.
    fn set(&mut self, x: usize, val: f64) {
        let mut k = self.node.len() / 2 + x;
        self.node[k].0 = val;
        k /= 2;
        while k > 0 {
            let was = self.node[k].1;
            self.play(k);
            if self.node[k].1 == was && was as usize != x {
                break;
            }
            k /= 2;
        }
    }

    /// Index of the first largest value.
    fn top(&self) -> usize {
        self.node[1].1 as usize
    }
}

/// For every Vogel line, the lines whose cached two cheapest cells
/// ([`Least`]) include one on it, so closing a line rescans those lines
/// without looking at the others: singly linked lists through one slab.
/// Lines are numbered rows then columns. An entry outlives the cache that
/// made it, so whoever walks a list checks that the line still stands on
/// the closed one.
struct Watchers {
    /// The first entry of each line's list.
    head: Vec<u32>,
    /// `(watching line, next entry)`.
    slab: Vec<(u32, u32)>,
}

impl Watchers {
    fn new(lines: usize) -> Watchers {
        Watchers { head: vec![END; lines], slab: Vec::with_capacity(4 * lines) }
    }

    /// Line `watcher`'s cache stands on lines `base + l.k1` and
    /// `base + l.k2`.
    fn listen(&mut self, watcher: usize, l: &Least, base: usize) {
        for k in [l.k1, l.k2].into_iter().filter(|&k| k != usize::MAX) {
            self.slab.push((watcher as u32, self.head[base + k]));
            self.head[base + k] = (self.slab.len() - 1) as u32;
        }
    }

    /// Empty `line`'s list, returning its first entry.
    fn take(&mut self, line: usize) -> u32 {
        std::mem::replace(&mut self.head[line], END)
    }

    /// Entry `at`'s watching line and the entry after it.
    fn at(&self, at: u32) -> Option<(usize, u32)> {
        (at != END).then(|| {
            let (w, next) = self.slab[at as usize];
            (w as usize, next)
        })
    }
}

/// No edge, no list entry: the end of a list, or the root's edge upward.
const END: u32 = u32::MAX;

/// What [`State::modi_optimize`] did.
struct Pivots {
    /// Improvement pivots performed.
    count: usize,
    /// Of those, pivots that moved no flow (`theta == 0`).
    degenerate: usize,
    /// Reduced costs evaluated by the pricing step, first pricing included.
    cells_priced: u64,
    /// Optimal potentials `(u, v)` of the balanced instance; `None` when
    /// the pivot cap stopped the search short of optimality.
    duals: Option<(Vec<f64>, Vec<f64>)>,
}

/// The potentials of the basis tree, which is hung from row 0: tree
/// vertices are the rows `0..m`, then the columns `m..m + n`, and `pot`
/// holds `u_i` at vertex `i` and `v_j` at vertex `m + j`.
struct Duals {
    pot: Vec<f64>,
    /// The pivot at which each potential's bits last changed.
    at: Vec<usize>,
    /// Each vertex's neighbour toward the root (`usize::MAX` at the root).
    up: Vec<usize>,
    /// The tree edge to that neighbour ([`END`] at the root).
    up_edge: Vec<u32>,
    /// Tree edges between each vertex and the root.
    depth: Vec<usize>,
    /// The columns whose `v_j` changed in the last [`Duals::hang`].
    moved: Vec<usize>,
    stack: Vec<usize>,
}

impl Duals {
    /// The potentials of `st`'s basis, all stamped with pivot 0.
    fn new(st: &State) -> Duals {
        let k = st.m + st.n;
        let mut d = Duals {
            pot: vec![f64::NAN; k],
            at: vec![0; k],
            up: vec![usize::MAX; k],
            up_edge: vec![END; k],
            depth: vec![0; k],
            moved: Vec::with_capacity(st.n),
            stack: Vec::with_capacity(k),
        };
        d.hang(st, 0, usize::MAX, END, 0);
        debug_assert!(d.pot.iter().all(|x| !x.is_nan()), "basis does not span the bipartite graph");
        d
    }

    /// Hang `top` below its tree neighbour `above` across edge `via` (`top`
    /// is the root, row 0, when `above` is `usize::MAX`) and everything on
    /// `top`'s side of that edge below `top`, setting `up`, `depth` and the
    /// potentials on the way down by `u_i + v_j = c_ij` from `u_0 = 0`. A
    /// potential whose bits change is stamped with pivot `now`, and a
    /// column's lands in `moved`.
    ///
    /// Each potential is the chain along its own tree path to the root,
    /// whatever order the walk takes, so a vertex whose path did not change
    /// keeps its value and re-hanging one subtree gives every value a
    /// recompute from the root would give, bit for bit.
    fn hang(&mut self, st: &State, top: usize, above: usize, via: u32, now: usize) {
        self.moved.clear();
        self.set(st, top, above, via, now);
        self.stack.push(top);
        while let Some(x) = self.stack.pop() {
            for (e, y) in st.adjacent(x) {
                if y != self.up[x] {
                    self.set(st, y, x, e, now);
                    self.stack.push(y);
                }
            }
        }
    }

    /// Hang vertex `y` from its tree neighbour `x` across edge `via`.
    fn set(&mut self, st: &State, y: usize, x: usize, via: u32, now: usize) {
        let (p, depth) = if x == usize::MAX {
            (0.0, 0)
        } else {
            (st.edges[via as usize].cost - self.pot[x], self.depth[x] + 1)
        };
        if p.to_bits() != self.pot[y].to_bits() {
            self.pot[y] = p;
            self.at[y] = now;
            if y >= st.m {
                self.moved.push(y - st.m);
            }
        }
        (self.up[y], self.up_edge[y], self.depth[y]) = (x, via, depth);
    }
}

/// A basic cell: one edge of the basis tree, with its cost (big-M on an
/// implicit cell) and its flow, linked into the edge lists of its row
/// (`[0]`) and of its column (`[1]`).
#[derive(Debug, Clone, Copy)]
struct Edge {
    i: u32,
    j: u32,
    cost: f64,
    flow: f64,
    next: [u32; 2],
    prev: [u32; 2],
}

/// Internal solver state over the balanced `m × n` instance: the basis as
/// a slab of its `m + n − 1` tree edges, which carry the flows, each vertex
/// — the rows `0..m`, then the columns `m..m + n` — heading a doubly linked
/// list of its edges through the slab. Every walk of the basis
/// (potentials, cycle, export, warm-start peel) follows tree edges;
/// nothing is kept per cell, and the whole state is three allocations.
struct State {
    m: usize,
    n: usize,
    edges: Vec<Edge>,
    /// The first edge at each vertex.
    head: Vec<u32>,
}

/// The edges at one vertex and the vertex across each.
struct Adjacent<'a> {
    st: &'a State,
    /// 0 at a row, 1 at a column.
    side: usize,
    at: u32,
}

impl Iterator for Adjacent<'_> {
    type Item = (u32, usize);

    fn next(&mut self) -> Option<(u32, usize)> {
        (self.at != END).then(|| {
            let (e, edge) = (self.at, &self.st.edges[self.at as usize]);
            self.at = edge.next[self.side];
            let far = if self.side == 0 { self.st.m + edge.j as usize } else { edge.i as usize };
            (e, far)
        })
    }
}

impl State {
    fn new(m: usize, n: usize) -> State {
        State { m, n, edges: Vec::with_capacity(m + n - 1), head: vec![END; m + n] }
    }

    /// The edges at vertex `x` and the vertex across each.
    fn adjacent(&self, x: usize) -> Adjacent<'_> {
        Adjacent { st: self, side: usize::from(x >= self.m), at: self.head[x] }
    }

    /// Whether `(i, j)` is basic: a walk of row `i`'s edges.
    fn is_basic(&self, i: usize, j: usize) -> bool {
        self.adjacent(i).any(|(_, y)| y == self.m + j)
    }

    /// Put edge `e` at the front of the lists of its row and column.
    fn link(&mut self, e: u32) {
        let Edge { i, j, .. } = self.edges[e as usize];
        for (side, x) in [(0, i as usize), (1, self.m + j as usize)] {
            let first = self.head[x];
            if first != END {
                self.edges[first as usize].prev[side] = e;
            }
            let edge = &mut self.edges[e as usize];
            (edge.next[side], edge.prev[side]) = (first, END);
            self.head[x] = e;
        }
    }

    /// Take edge `e` out of the lists of its row and column.
    fn unlink(&mut self, e: u32) {
        let Edge { i, j, next, prev, .. } = self.edges[e as usize];
        for (side, x) in [(0, i as usize), (1, self.m + j as usize)] {
            match prev[side] {
                END => self.head[x] = next[side],
                p => self.edges[p as usize].next[side] = next[side],
            }
            if next[side] != END {
                self.edges[next[side] as usize].prev[side] = prev[side];
            }
        }
    }

    /// Make the nonbasic cell `(i, j)` basic.
    fn insert(&mut self, i: usize, j: usize, cost: f64, flow: f64) {
        let e = self.edges.len() as u32;
        let (i, j) = (i as u32, j as u32);
        self.edges.push(Edge { i, j, cost, flow, next: [END; 2], prev: [END; 2] });
        self.link(e);
    }

    /// Make the basic cell of edge `e` nonbasic and the nonbasic cell
    /// `(i, j)` basic in its slot.
    fn replace(&mut self, e: u32, i: usize, j: usize, cost: f64, flow: f64) {
        self.unlink(e);
        let (i, j) = (i as u32, j as u32);
        self.edges[e as usize] = Edge { i, j, cost, flow, next: [END; 2], prev: [END; 2] };
        self.link(e);
    }

    /// Every basic cell `(i, j, edge)`, row-major.
    fn sorted_cells(&self) -> Vec<(u32, u32, u32)> {
        let mut cells: Vec<(u32, u32, u32)> =
            self.edges.iter().enumerate().map(|(e, x)| (x.i, x.j, e as u32)).collect();
        cells.sort_unstable();
        cells
    }

    /// Rebuild solver state from a previous round's basis: make the cells
    /// basic and recompute the unique tree flows by leaf-peeling the
    /// spanning tree against the *current* supplies and demands. Returns
    /// `None` — caller falls back to the cold Vogel start — when the basis
    /// does not fit: wrong dimensions or cell count, cells out of row-major
    /// order (a duplicate among them) or out of range, a cell set that is
    /// not a spanning tree (the peel stalls), or tree flows forced negative
    /// by the new balances.
    fn from_basis(cells: &Cells, supply: &[f64], demand: &[f64], basis: &Basis) -> Option<State> {
        const FEAS_TOL: f64 = 1e-9;
        let (m, n) = (cells.m, cells.n);
        if basis.rows != m || basis.cols != n || basis.cells.len() != m + n - 1 {
            return None;
        }
        // A solve exports its cells row-major, so cells out of that order,
        // a repeated one included, did not come from a solve of this shape.
        if !basis.cells.windows(2).all(|w| w[0] < w[1]) {
            return None;
        }
        let mut st = State::new(m, n);
        for &(bi, bj) in &basis.cells {
            let (i, j) = (bi as usize, bj as usize);
            if i >= m || j >= n {
                return None;
            }
            st.insert(i, j, cells.cost(i, j), 0.0);
        }
        // vertices: rows 0..m, cols m..m+n
        let mut degree: Vec<usize> = (0..m + n).map(|x| st.adjacent(x).count()).collect();
        if degree.contains(&0) {
            return None; // an isolated vertex can never be spanned
        }
        // Each leaf's single remaining edge must carry the leaf's entire
        // residual balance; peeling a tree consumes every edge exactly once.
        // An edge is spent once either end is peeled, so a leaf's remaining
        // edge is the one toward its only unpeeled neighbour.
        let mut resid: Vec<f64> = supply.iter().chain(demand.iter()).copied().collect();
        let mut peeled = vec![false; m + n];
        let mut leaves: Vec<usize> = (0..m + n).filter(|&v| degree[v] == 1).collect();
        let mut assigned = 0usize;
        while let Some(v) = leaves.pop() {
            peeled[v] = true;
            let Some((e, other)) = st.adjacent(v).find(|&(_, w)| !peeled[w]) else {
                continue;
            };
            let f = resid[v];
            if f < -FEAS_TOL {
                return None; // old basis is infeasible for the new balances
            }
            st.edges[e as usize].flow = f.max(0.0);
            assigned += 1;
            resid[other] -= f;
            degree[v] -= 1;
            degree[other] -= 1;
            if degree[other] == 1 {
                leaves.push(other);
            }
        }
        if assigned != basis.cells.len() {
            return None; // the cell set was not a spanning tree
        }
        Some(st)
    }

    /// Vogel's approximation method initial basic feasible solution;
    /// `s` and `d` are the balances it works down.
    ///
    /// Every open line's two smallest open costs are cached ([`Least`]) and
    /// a line is rescanned ([`Least::scan_line`]) only when the line just
    /// closed was one of the two its cache stands on; [`Watchers`] lists,
    /// for every line, who stands on it. The penalties are the
    /// leaves of a [`Tournament`], so a step reads its line at the root and
    /// pays one climb per penalty the closure changed, instead of a fresh
    /// sweep of the instance or a maximum over all `m + n` lines.
    ///
    /// The first caches come from one pass over the admissible cells, row
    /// by row: each cell is offered to its row's cache and to its column's,
    /// so every column's cache takes in its rows in ascending order, as a
    /// scan down the column would.
    ///
    /// `watch(rows, cols, penalties)` is called before every pick with the
    /// open rows and columns; it is the tests' window onto the caches and a
    /// no-op otherwise.
    fn vogel_initial(
        cells: &Cells,
        mut s: Vec<f64>,
        mut d: Vec<f64>,
        mut watch: impl FnMut(&Open, &Open, &Tournament),
    ) -> State {
        const TOL: f64 = 1e-12;
        let (m, n, big_m) = (cells.m, cells.n, cells.big_m);
        let (mut open_rows, mut open_cols) = (Open::new(m), Open::new(n));
        let mut st = State::new(m, n);

        let scan_row = |i: usize, open_cols: &mut Open| {
            if i + 1 == m {
                // the dummy row costs 0 everywhere: its first two open cells
                let k1 = open_cols.first_from(0);
                let k2 = if k1 < n { open_cols.first_from(k1 + 1) } else { n };
                return Least::scan([k1, k2].into_iter().filter(|&k| k < n).map(|k| (k, 0.0)));
            }
            let (adm, cost) = cells.row(i);
            Least::scan_line(adm, cost, open_cols, big_m)
        };
        let scan_col = |j: usize, open_rows: &mut Open| {
            let (adm, cost) = cells.col(j);
            Least::scan_line(adm, cost, open_rows, big_m)
        };
        let mut rows = Vec::with_capacity(m);
        let mut cols = vec![Least::EMPTY; n];
        for i in 0..m - 1 {
            let (adm, cost) = cells.row(i);
            let mut row = Least::EMPTY;
            for (&j, &c) in adm.iter().zip(cost) {
                row.offer(j as usize, c);
                cols[j as usize].offer(i, c);
            }
            rows.push(row);
        }
        rows.push(scan_row(m - 1, &mut open_cols));
        for col in &mut cols {
            col.offer(m - 1, 0.0);
        }
        // a line with fewer than two admissible cells takes in implicit ones
        for (i, row) in rows.iter_mut().enumerate().filter(|(_, l)| l.k2 == usize::MAX) {
            *row = scan_row(i, &mut open_cols);
        }
        for (j, col) in cols.iter_mut().enumerate().filter(|(_, l)| l.k2 == usize::MAX) {
            *col = scan_col(j, &mut open_rows);
        }
        // lines are numbered rows then columns: a row's cache stands on
        // columns, a column's on rows
        let mut watchers = Watchers::new(m + n);
        for (i, l) in rows.iter().enumerate() {
            watchers.listen(i, l, m);
        }
        for (j, l) in cols.iter().enumerate() {
            watchers.listen(m + j, l, 0);
        }
        // Penalties of the open lines, rows then columns. Costs are >= 0,
        // so every live penalty is too: CLOSED marks a closed line or one
        // with no open cell left.
        const CLOSED: f64 = -1.0;
        let live = |l: &Least| if l.k1 == usize::MAX { CLOSED } else { l.penalty() };
        let penalties: Vec<f64> = rows.iter().chain(&cols).map(live).collect();
        let mut pen = Tournament::new(&penalties);

        while open_rows.left > 0 && open_cols.left > 0 {
            watch(&open_rows, &open_cols, &pen);
            // the open row or column with the largest penalty, rows first
            let line = pen.top();
            if pen.value(line) == CLOSED {
                break;
            }
            // the line's cheapest open cell, and its cost
            let (i, j, cost) = if line < m {
                (line, rows[line].k1, rows[line].c1)
            } else {
                (cols[line - m].k1, line - m, cols[line - m].c1)
            };
            let q = s[i].min(d[j]);
            st.insert(i, j, cost, q);
            s[i] -= q;
            d[j] -= q;
            // close exactly one of row/col per assignment (keeps the basis
            // at m + n - 1 cells); close the exhausted one, preferring the
            // row on ties unless it is the last row. The open lines that
            // stood on it are rescanned; rescans read only the open sets,
            // so their order does not matter.
            if s[i] <= TOL && (d[j] > TOL || open_rows.left > 1) {
                open_rows.close(i);
                pen.set(i, CLOSED);
                let mut at = watchers.take(i);
                while let Some((w, next)) = watchers.at(at) {
                    let j = w - m;
                    if open_cols.is_open(j) && cols[j].stands_on(i) {
                        cols[j] = scan_col(j, &mut open_rows);
                        pen.set(w, live(&cols[j]));
                        watchers.listen(w, &cols[j], 0);
                    }
                    at = next;
                }
            } else {
                open_cols.close(j);
                pen.set(m + j, CLOSED);
                let mut at = watchers.take(m + j);
                while let Some((i, next)) = watchers.at(at) {
                    if open_rows.is_open(i) && rows[i].stands_on(j) {
                        rows[i] = scan_row(i, &mut open_cols);
                        pen.set(i, live(&rows[i]));
                        watchers.listen(i, &rows[i], m);
                    }
                    at = next;
                }
            }
        }
        st
    }

    /// Ensure the basis is a spanning tree with exactly `m + n - 1` cells,
    /// adding zero-flow cells that join distinct components if VAM left the
    /// basis short (it closes the last row with columns still open when
    /// rounding leaves residual demand). The cells are the row-major-first
    /// ones that join two components, implicit or not.
    fn complete_basis(&mut self, cells: &Cells) {
        let (m, n) = (self.m, self.n);
        let mut count = self.edges.len();
        if count >= m + n - 1 {
            return;
        }
        // union-find over m row-vertices and n col-vertices
        let mut parent: Vec<usize> = (0..m + n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for e in &self.edges {
            let (a, b) = (find(&mut parent, e.i as usize), find(&mut parent, m + e.j as usize));
            if a != b {
                parent[a] = b;
            }
        }
        // One pass suffices: a cell passed over joins nothing, and merging
        // components later cannot change that. A basic cell never joins two
        // components, so the pass needs no test of membership.
        for i in 0..m {
            for j in 0..n {
                let (a, b) = (find(&mut parent, i), find(&mut parent, m + j));
                if a != b {
                    parent[a] = b;
                    self.insert(i, j, cells.cost(i, j), 0.0);
                    count += 1;
                    if count == m + n - 1 {
                        return;
                    }
                }
            }
        }
    }

    /// MODI (u-v) optimization from the current basis, for at most
    /// `max_pivots` pivots.
    ///
    /// The potentials are kept across pivots ([`Duals`]), the cycle walks
    /// the tree's parent edges, every buffer is allocated once, up front,
    /// and pricing (step 1) visits only the cells whose reduced cost can
    /// differ from the last pivot's.
    ///
    /// **The potentials.** The whole tree is hung from row 0 once, up
    /// front. After that, a pivot cuts the leaving edge, and only the
    /// component cut off from the root can change duals; the cycle says
    /// which end of the entering cell lies in it. That component is re-hung
    /// below the entering cell ([`Duals::hang`]), and its potentials are
    /// recomputed down the same chain rule: O(component), not O(m + n), and
    /// bit-equal to a recompute from the root. A potential whose bits
    /// change is stamped with the pivot; a value that happens to come out
    /// equal is not.
    ///
    /// **The pricing cache.** `row_best[i]` holds the minimum reduced cost
    /// over row `i`'s nonbasic cells, implicit ones at big-M included, and
    /// the *first* column attaining it — what a left-to-right strict-`<`
    /// scan of the whole row finds. A row is priced afresh iff its own
    /// `u_i` was stamped by the last pivot, its basic set changed (the
    /// entering or leaving cell's row), or the dual of the column its cached
    /// minimum stands on was stamped; every other row takes in just the
    /// stamped columns (smaller value wins, equal value goes to the smaller
    /// column), its admissible cells reached through each column's list of
    /// admissible rows. The entering cell is then the first row, ascending,
    /// whose minimum beats the best so far — the cell the row-major scan of
    /// all `m · n` cells picks, ties included.
    ///
    /// **Implicit cells.** `fl(a − v)` never rises as `v` does, so with
    /// `v_max` at or above every column dual, `(big_m − u_i) − v_max` is at
    /// most every implicit reduced cost of row `i`, as the scan computes
    /// them. A row whose minimum over its admissible cells lies strictly
    /// below that bound needs none of its implicit cells: none can be its
    /// minimum, nor tie it. Otherwise the row reads them — a fresh row
    /// every implicit cell, in the gaps between its admissible ones, and a
    /// merging row its stamped implicit columns. `v_max` rises with every
    /// stamped column and is recomputed exactly only when a bound fails.
    ///
    /// `watch(state, u, v, row_best, entering)` is called after every
    /// pricing step; it is the tests' window onto the cache and a no-op
    /// otherwise.
    fn modi_optimize(
        &mut self,
        cells: &Cells,
        max_pivots: usize,
        mut watch: impl FnMut(&State, &[f64], &[f64], &[(f64, usize)], Option<(usize, usize)>),
    ) -> Pivots {
        const TOL: f64 = 1e-7;
        let (m, n, big_m) = (self.m, self.n, cells.big_m);
        // Every dual is stamped with pivot 0, so the first pricing step
        // prices every row afresh.
        let mut duals = Duals::new(self);
        let mut row_best = vec![(f64::INFINITY, usize::MAX); m];
        let mut fresh = vec![true; m];
        // the rows with implicit cells
        let partial: Vec<bool> = (0..m).map(|i| cells.row(i).0.len() < n).collect();
        // the dummy row's floors: INFINITY at its basic cells, -INFINITY at
        // the others, so that pricing it needs no walk of its many edges
        let mut dummy_floor = vec![f64::NEG_INFINITY; n];
        for (_, y) in self.adjacent(m - 1) {
            dummy_floor[y - m] = f64::INFINITY;
        }
        // the basic cells of the line being priced carry its stamp
        let (mut row_mark, mut col_mark, mut stamp) = (vec![0u64; m], vec![0u64; n], 0u64);
        let (mut v_max, mut v_max_exact) = (f64::INFINITY, false);
        // rows of the last pivot's entering and leaving cells: their basic
        // sets changed
        let mut swapped = (usize::MAX, usize::MAX);
        // cycle edges in path order, and its far half
        let mut cycle: Vec<u32> = Vec::with_capacity(m + n);
        let mut tail: Vec<u32> = Vec::with_capacity(m + n);
        let mut pivots = Pivots { count: 0, degenerate: 0, cells_priced: 0, duals: None };
        loop {
            // 1. most negative reduced cost among nonbasic cells, row-major
            //    first: refresh the per-row minima, then take the first row
            //    that beats the best so far.
            let now = pivots.count;
            let (u, v) = duals.pot.split_at(m);
            let (u_at, v_at) = duals.at.split_at(m);
            // an upper bound on every column dual; exact when a bound on
            // implicit cells would otherwise fail
            let mut tighten = |v_max: &mut f64| {
                if !v_max_exact {
                    *v_max = max_of(v, f64::NEG_INFINITY);
                    v_max_exact = true;
                }
            };
            // does row `i`'s minimum `lo` lie below every implicit reduced
            // cost of the row?
            let clears = |i: usize, lo: f64, v_max: f64| big_m - u[i] - v_max > lo;
            for (i, (is_fresh, &(_, at))) in fresh.iter_mut().zip(&row_best).enumerate() {
                // `|`, not `||`: four cheap tests beat a branch on each
                *is_fresh = (i == swapped.0)
                    | (i == swapped.1)
                    | (u_at[i] == now)
                    | v_at.get(at).is_some_and(|&t| t == now);
            }
            let merge = |cached: &mut (f64, usize), rc: f64, j: usize| {
                if rc < cached.0 || (rc == cached.0 && j < cached.1) {
                    *cached = (rc, j);
                }
            };
            // the stamped columns' admissible cells, down each column
            for &j in &duals.moved {
                stamp += 1;
                for (_, i) in self.adjacent(m + j) {
                    row_mark[i] = stamp;
                }
                let ((adm, cost), vj, mut priced) = (cells.col(j), v[j], 0);
                let mut take = |i: usize, c: f64| {
                    // a basic cell is visited, as a scan of the row visits it
                    if !fresh[i] {
                        priced += 1;
                        if row_mark[i] != stamp {
                            merge(&mut row_best[i], c - u[i] - vj, j);
                        }
                    }
                };
                match run_start(adm) {
                    Some(a) => cost.iter().enumerate().for_each(|(k, &c)| take(a + k, c)),
                    None => adm.iter().zip(cost).for_each(|(&i, &c)| take(i as usize, c)),
                }
                pivots.cells_priced += priced;
            }
            // Then the rows in order: a fresh row is priced afresh, its
            // admissible cells and, when they are within reach, its implicit
            // ones; any other takes in the stamped columns' implicit cells
            // when those are within reach. Whether a row reads its implicit
            // cells comes down to the exact bound either way, so the order
            // in which `v_max` is tightened changes nothing. Each row's
            // minimum is final once its turn is over, so the entering cell
            // is found on the way.
            let mut best = -TOL;
            let mut enter: Option<(usize, usize)> = None;
            let merge_implicit = !duals.moved.is_empty();
            for i in 0..m {
                if !fresh[i] {
                    if merge_implicit && partial[i] && !clears(i, row_best[i].0, v_max) {
                        tighten(&mut v_max);
                        if !clears(i, row_best[i].0, v_max) {
                            for &j in duals.moved.iter().filter(|&&j| !cells.admissible(i, j)) {
                                pivots.cells_priced += 1;
                                if !self.is_basic(i, j) {
                                    merge(&mut row_best[i], big_m - u[i] - v[j], j);
                                }
                            }
                        }
                    }
                } else if i + 1 == m {
                    // the dummy row: every column, at cost 0, a basic cell
                    // taken in at its floor, INFINITY
                    let a = 0.0 - u[i];
                    let mut lo = (f64::INFINITY, usize::MAX);
                    for (j, (&f, &vj)) in dummy_floor.iter().zip(v).enumerate() {
                        let rc = a - vj;
                        if (if f > rc { f } else { rc }) < lo.0 {
                            lo = (rc, j);
                        }
                    }
                    pivots.cells_priced += n as u64;
                    row_best[i] = lo;
                } else {
                    let (adm, cost) = cells.row(i);
                    stamp += 1;
                    for (_, y) in self.adjacent(i) {
                        col_mark[y - m] = stamp;
                    }
                    let (ui, mut lo) = (u[i], (f64::INFINITY, usize::MAX));
                    match run_start(adm) {
                        Some(a) => {
                            let run = cost.iter().zip(&v[a..]).zip(&col_mark[a..]);
                            for (k, ((&c, &vj), &mark)) in run.enumerate() {
                                if mark != stamp {
                                    let rc = c - ui - vj;
                                    if rc < lo.0 {
                                        lo = (rc, a + k);
                                    }
                                }
                            }
                        }
                        None => {
                            for (&j, &c) in adm.iter().zip(cost) {
                                let j = j as usize;
                                if col_mark[j] != stamp {
                                    let rc = c - ui - v[j];
                                    if rc < lo.0 {
                                        lo = (rc, j);
                                    }
                                }
                            }
                        }
                    }
                    pivots.cells_priced += adm.len() as u64;
                    let mut reach = adm.len() < n && !clears(i, lo.0, v_max);
                    if reach {
                        tighten(&mut v_max);
                        reach = !clears(i, lo.0, v_max);
                    }
                    if reach {
                        // the implicit cells, in the gaps between the
                        // admissible ones; the first least of both halves
                        // is the row's
                        let a = big_m - u[i];
                        let (mut from, mut imp) = (0, (f64::INFINITY, usize::MAX));
                        for end in adm.iter().map(|&j| j as usize).chain([n]) {
                            for j in (from..end).filter(|&j| col_mark[j] != stamp) {
                                let rc = a - v[j];
                                if rc < imp.0 {
                                    imp = (rc, j);
                                }
                            }
                            from = end + 1;
                        }
                        merge(&mut lo, imp.0, imp.1);
                        pivots.cells_priced += (n - adm.len()) as u64;
                    }
                    row_best[i] = lo;
                }
                if row_best[i].0 < best {
                    (best, enter) = (row_best[i].0, Some((i, row_best[i].1)));
                }
            }
            watch(self, u, v, &row_best, enter);
            let Some((ei, ej)) = enter else {
                let v = duals.pot.split_off(m);
                pivots.duals = Some((duals.pot, v));
                return pivots;
            };
            if pivots.count >= max_pivots {
                return pivots;
            }

            // 2. unique cycle: the tree path from row ei to col ej, which
            //    the entering cell closes. Climb from both ends to where
            //    they meet; `cycle` lists the path's edges from the ei end,
            //    the first `near` of them on ei's own climb.
            let (up, up_edge, depth) = (&duals.up, &duals.up_edge, &duals.depth);
            cycle.clear();
            let (mut a, mut b) = (ei, m + ej);
            while a != b {
                if depth[a] >= depth[b] {
                    cycle.push(up_edge[a]);
                    a = up[a];
                } else {
                    tail.push(up_edge[b]);
                    b = up[b];
                }
            }
            let near = cycle.len();
            cycle.extend(tail.drain(..).rev());

            // 3. the entering cell is '+', then the path alternates -, +,
            //    -, … from the ei end. theta = min flow on '-' cells (first
            //    wins); update and swap basis, the entering cell taking the
            //    leaving cell's slot.
            let (mut theta, mut out) = (f64::INFINITY, 0);
            for t in (0..cycle.len()).step_by(2) {
                let f = self.edges[cycle[t] as usize].flow;
                if f < theta {
                    theta = f;
                    out = t;
                }
            }
            for (t, &e) in cycle.iter().enumerate() {
                let edge = &mut self.edges[e as usize];
                if t % 2 == 0 {
                    edge.flow -= theta;
                } else {
                    edge.flow += theta;
                }
            }
            let leave = cycle[out];
            let Edge { i: li, j: lj, .. } = self.edges[leave as usize];
            swapped = (ei, li as usize);
            if li as usize + 1 == m {
                dummy_floor[lj as usize] = f64::NEG_INFINITY;
            }
            if ei + 1 == m {
                dummy_floor[ej] = f64::INFINITY;
            }
            // a nonbasic cell holds 0.0, and the entering one gains theta
            self.replace(leave, ei, ej, cells.cost(ei, ej), 0.0 + theta);
            pivots.count += 1;
            if theta == 0.0 {
                pivots.degenerate += 1;
            }

            // 4. the leaving edge lay on the climb from the end of the
            //    entering cell that it cut off from the root: hang that
            //    side from the other end, across the entering cell.
            let (inside, outside) = if out < near { (ei, m + ej) } else { (m + ej, ei) };
            duals.hang(self, inside, outside, leave, pivots.count);
            if !duals.moved.is_empty() {
                let moved = duals.moved.iter().map(|&j| duals.pot[m + j]);
                v_max = moved.fold(v_max, f64::max);
                v_max_exact = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_balanced() {
        // supplies [20, 30, 25], demands [10, 28, 37], classic instance
        let p = TransportProblem::new(
            vec![20.0, 30.0, 25.0],
            vec![10.0, 28.0, 37.0],
            vec![4.0, 3.0, 2.0, 1.0, 5.0, 0.0, 3.0, 8.0, 6.0],
        );
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        // LP optimum cross-checked with the simplex in integration tests;
        // here verify feasibility + conservation.
        for i in 0..3 {
            let row: f64 = (0..3).map(|j| s.flow_at(i, j)).sum();
            assert_close(row, p.supply[i]);
        }
        for j in 0..3 {
            let col: f64 = (0..3).map(|i| s.flow_at(i, j)).sum();
            assert!(col <= p.capacity[j] + 1e-9);
        }
    }

    #[test]
    fn simple_two_by_two() {
        // min: costs [[1,4],[3,2]], supplies [30,20], caps [25,30] → 85
        let p = TransportProblem::new(vec![30.0, 20.0], vec![25.0, 30.0], vec![1.0, 4.0, 3.0, 2.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_close(s.objective, 85.0);
        assert_close(s.flow_at(0, 0), 25.0); // x11
        assert_close(s.flow_at(0, 1), 5.0); // x12
        assert_close(s.flow_at(1, 1), 20.0); // x22
    }

    #[test]
    fn excess_capacity_absorbed() {
        // single source, two sinks with plenty of room: all flow to cheap sink
        let p = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![5.0, 1.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.flow_at(0, 1), 10.0);
    }

    #[test]
    fn infeasible_when_supply_exceeds_capacity() {
        let p = TransportProblem::new(vec![50.0], vec![10.0, 20.0], vec![1.0, 1.0]);
        assert_eq!(p.solve().status, TransportStatus::Infeasible);
    }

    #[test]
    fn forbidden_route_forces_detour() {
        // source 0 can only reach sink 1; cheap sink 0 is forbidden
        let p = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![f64::INFINITY, 7.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_close(s.objective, 70.0);
        assert_close(s.flow_at(0, 0), 0.0);
    }

    #[test]
    fn forbidden_route_makes_infeasible() {
        // both sinks unreachable
        let p = TransportProblem::new(
            vec![10.0],
            vec![100.0, 100.0],
            vec![f64::INFINITY, f64::INFINITY],
        );
        assert_eq!(p.solve().status, TransportStatus::Infeasible);
    }

    #[test]
    fn partially_forbidden_capacity_shortfall_is_infeasible() {
        // 30 units must leave, reachable sink holds only 20
        let p = TransportProblem::new(vec![30.0], vec![20.0, 50.0], vec![1.0, f64::INFINITY]);
        assert_eq!(p.solve().status, TransportStatus::Infeasible);
    }

    #[test]
    fn zero_supply_trivial() {
        let p = TransportProblem::new(vec![0.0, 0.0], vec![5.0], vec![1.0, 2.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn empty_sinks_with_supply_infeasible() {
        let p = TransportProblem::new(vec![5.0], vec![], vec![]);
        assert_eq!(p.solve().status, TransportStatus::Infeasible);
    }

    #[test]
    fn degenerate_instance_terminates() {
        // supplies exactly match single-sink capacities → many zero cells
        let p = TransportProblem::new(vec![10.0, 10.0], vec![10.0, 10.0], vec![1.0, 2.0, 2.0, 1.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_close(s.objective, 20.0);
    }

    #[test]
    fn exact_balance() {
        let p = TransportProblem::new(vec![15.0, 25.0], vec![20.0, 20.0], vec![2.0, 3.0, 4.0, 1.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        // x11=15 (30), x21=5 (20), x22=20 (20) → 70
        assert_close(s.objective, 70.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_rejected() {
        TransportProblem::new(vec![1.0], vec![1.0, 2.0], vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "supply must be finite")]
    fn negative_supply_rejected() {
        TransportProblem::new(vec![-1.0], vec![1.0], vec![1.0]);
    }
}

#[cfg(test)]
mod duality_tests {
    use super::*;

    /// Verify LP duality on an optimal solution: reduced costs
    /// `c_ij − u_i − v_j ≥ 0` everywhere, with complementary slackness
    /// (zero reduced cost wherever flow is positive).
    fn check_duality(p: &TransportProblem, s: &TransportSolution) {
        assert_eq!(s.status, TransportStatus::Optimal);
        let n = p.capacity.len();
        for (i, &u) in s.row_potentials.iter().enumerate() {
            for (j, &v) in s.col_potentials.iter().enumerate() {
                let c = p.cost_at(i, j);
                if !c.is_finite() {
                    continue; // forbidden cells carry big-M internally
                }
                let reduced = c - u - v;
                assert!(reduced >= -1e-6, "dual infeasible at ({i},{j}): {reduced}");
                if s.flow_at(i, j) > 1e-9 {
                    assert!(
                        reduced.abs() < 1e-6,
                        "complementary slackness violated at ({i},{j}): {reduced}"
                    );
                }
            }
        }
        // sinks with unused capacity have non-positive... rather: the dummy
        // row (cost 0) is basic on every sink with slack, so v_j <= 0 there.
        let used: Vec<f64> =
            (0..n).map(|j| (0..p.supply.len()).map(|i| s.flow_at(i, j)).sum()).collect();
        for (j, &v) in s.col_potentials.iter().enumerate() {
            if used[j] < p.capacity[j] - 1e-6 {
                assert!(v <= 1e-6, "slack sink {j} must have v <= 0, got {v}");
            }
        }
    }

    #[test]
    fn duality_on_textbook_instance() {
        let p = TransportProblem::new(
            vec![20.0, 30.0, 25.0],
            vec![10.0, 28.0, 37.0],
            vec![4.0, 3.0, 2.0, 1.0, 5.0, 0.0, 3.0, 8.0, 6.0],
        );
        check_duality(&p, &p.solve());
    }

    #[test]
    fn duality_with_excess_capacity() {
        let p = TransportProblem::new(vec![15.0], vec![100.0, 100.0], vec![2.0, 5.0]);
        let s = p.solve();
        check_duality(&p, &s);
        // both sinks have slack → shadow price of extra capacity is zero
        // at the unused one and the binding constraint is the supply
        assert!(s.col_potentials.iter().all(|&v| v <= 1e-9));
    }

    #[test]
    fn duality_with_forbidden_cells() {
        let p = TransportProblem::new(
            vec![10.0, 5.0],
            vec![8.0, 20.0],
            vec![1.0, 4.0, f64::INFINITY, 2.0],
        );
        check_duality(&p, &p.solve());
    }

    #[test]
    fn tight_capacity_has_negative_shadow_price_gain() {
        // sink 0 is cheap but tiny: its capacity constraint binds, so
        // increasing it would reduce cost — detectable via duals: v_0 < v_1
        let p = TransportProblem::new(vec![30.0], vec![10.0, 100.0], vec![1.0, 6.0]);
        let s = p.solve();
        check_duality(&p, &s);
        assert!(
            s.col_potentials[0] < s.col_potentials[1] - 1.0,
            "binding cheap sink must show a more negative potential: {:?}",
            s.col_potentials
        );
    }

    #[test]
    fn strong_duality_objective_matches() {
        // balanced-by-dummy duality: objective = Σ u_i s_i + Σ v_j d_j holds
        // for the balanced instance; with the dummy normalized to u = 0 the
        // identity carries over to the real rows plus full capacities.
        let p = TransportProblem::new(vec![12.0, 8.0], vec![10.0, 15.0], vec![3.0, 7.0, 2.0, 4.0]);
        let s = p.solve();
        let dual_obj: f64 = s
            .row_potentials
            .iter()
            .zip(&p.supply)
            .map(|(u, s)| u * s)
            .chain(s.col_potentials.iter().zip(&p.capacity).map(|(v, d)| v * d))
            .sum();
        assert!(
            (dual_obj - s.objective).abs() < 1e-6,
            "strong duality: dual {dual_obj} vs primal {}",
            s.objective
        );
    }
}

#[cfg(test)]
mod warm_tests {
    use super::*;
    use dust_obs::ObsHandle;

    fn instance() -> TransportProblem {
        TransportProblem::new(
            vec![20.0, 30.0, 25.0],
            vec![40.0, 28.0, 37.0],
            vec![4.0, 3.0, 2.0, 1.0, 5.0, 0.0, 3.0, 8.0, 6.0],
        )
    }

    #[test]
    fn optimal_solves_export_a_spanning_basis() {
        let p = instance();
        let s = p.solve();
        let b = s.basis.expect("optimal solves export a basis");
        // balanced dims: 3 real rows + 1 dummy, 3 cols
        assert_eq!(b.dims(), (4, 3));
        assert_eq!(b.len(), 4 + 3 - 1);
        assert!(!s.warm_used);
    }

    #[test]
    fn warm_start_from_own_basis_needs_zero_pivots() {
        let p = instance();
        let cold = p.solve();
        let obs = ObsHandle::recording(0);
        let warm = p.solve_with(&obs, cold.basis.as_ref());
        assert_eq!(warm.status, TransportStatus::Optimal);
        assert!(warm.warm_used, "own basis must be accepted");
        assert_eq!(warm.iterations, 0, "an optimal basis needs no pivots");
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(warm.flows, cold.flows, "same basis, same basic solution");
        assert_eq!(obs.counter("lp.warm_solves"), 1);
        assert_eq!(obs.counter("lp.warm_pivots"), 0);
        assert_eq!(obs.counter("lp.pivots_saved"), 6, "rows+cols-1 assignments skipped");
        assert_eq!(obs.counter("lp.cold_pivots"), 0);
    }

    #[test]
    fn warm_start_reaches_the_cold_objective_after_perturbation() {
        let p = instance();
        let basis = p.solve().basis.unwrap();
        // drift the balances (keeping the instance feasible) and re-solve
        // both ways: objectives must be equal, pivot order need not be
        let mut q = p.clone();
        q.supply[0] = 24.0;
        q.supply[2] = 21.5;
        q.capacity[1] = 31.0;
        let cold = q.solve();
        let warm = q.solve_with(&ObsHandle::disabled(), Some(&basis));
        assert_eq!(cold.status, TransportStatus::Optimal);
        assert_eq!(warm.status, TransportStatus::Optimal);
        assert!(
            (warm.objective - cold.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.objective,
            cold.objective
        );
    }

    #[test]
    fn mismatched_dimensions_fall_back_cold() {
        let p = instance();
        let basis = p.solve().basis.unwrap();
        // a 2-sink instance cannot absorb a 3-sink basis
        let q = TransportProblem::new(vec![5.0, 5.0], vec![10.0, 10.0], vec![1.0, 2.0, 2.0, 1.0]);
        let obs = ObsHandle::recording(0);
        let s = q.solve_with(&obs, Some(&basis));
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!(!s.warm_used);
        assert_eq!(obs.counter("lp.warm_rejects"), 1);
        assert_eq!(obs.counter("lp.warm_solves"), 0);
        assert_eq!(obs.counter("lp.pivots_saved"), 0);
    }

    #[test]
    fn corrupt_basis_is_rejected_not_trusted() {
        let p = instance();
        let good = p.solve().basis.unwrap();
        // right dims and count, but a cycle instead of a spanning tree:
        // cells (0,0),(0,1),(1,0),(1,1) form a 4-cycle
        let cyclic = Basis {
            rows: good.rows,
            cols: good.cols,
            cells: vec![(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (3, 2)],
        };
        let obs = ObsHandle::recording(0);
        let s = p.solve_with(&obs, Some(&cyclic));
        assert_eq!(s.status, TransportStatus::Optimal, "fallback still solves");
        assert!(!s.warm_used);
        assert_eq!(obs.counter("lp.warm_rejects"), 1);
        // and the fallback answer matches the plain cold solve exactly
        assert_eq!(s.objective.to_bits(), p.solve().objective.to_bits());
        // a repeated cell, and the good cells out of row-major order
        let mut repeated = good.cells.clone();
        repeated[1] = repeated[0];
        let reversed = good.cells.iter().rev().copied().collect();
        for cells in [repeated, reversed] {
            let bad = Basis { rows: good.rows, cols: good.cols, cells };
            let s = p.solve_with(&obs, Some(&bad));
            assert!(s.status == TransportStatus::Optimal && !s.warm_used);
        }
        assert_eq!(obs.counter("lp.warm_rejects"), 3);
    }

    #[test]
    fn infeasible_and_trivial_instances_tolerate_warm_options() {
        let basis = instance().solve().basis.unwrap();
        let infeasible = TransportProblem::new(vec![50.0], vec![10.0], vec![1.0]);
        let obs = ObsHandle::recording(0);
        let s = infeasible.solve_with(&obs, Some(&basis));
        assert_eq!(s.status, TransportStatus::Infeasible);
        assert!(s.basis.is_none());
        let trivial = TransportProblem::new(vec![0.0], vec![10.0], vec![1.0]);
        let s = trivial.solve_with(&obs, Some(&basis));
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!(s.basis.is_none(), "trivial solves have no basis to export");
        // both count as cold solves, never as rejected warm starts
        assert_eq!(obs.counter("lp.warm_rejects"), 0);
        assert_eq!(obs.counter("lp.warm_solves"), 0);
        assert_eq!(obs.counter("lp.transport.solves"), 2);
    }

    #[test]
    fn warm_start_respects_forbidden_routes() {
        // basis exported before a route became forbidden must not smuggle
        // flow onto it: the re-solve still detours (or reports infeasible)
        let p = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![2.0, 7.0]);
        let basis = p.solve().basis.unwrap();
        let q = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![f64::INFINITY, 7.0]);
        let s = q.solve_with(&ObsHandle::disabled(), Some(&basis));
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!((s.objective - 70.0).abs() < 1e-6);
        assert!(s.flow_at(0, 0).abs() < 1e-9, "no flow on the forbidden route");
    }
}

/// Test support: dense balanced matrices, the dummy row last and all
/// zeros, as the solver's sparse instance.
#[cfg(test)]
mod support {
    use super::*;

    /// The big-M of the test instances: their cells costing exactly this
    /// much are implicit.
    pub(super) const BIG_M: f64 = 21e6;

    /// A dense `m × n` matrix and its admissible cells.
    pub(super) struct Dense {
        n: usize,
        big_m: f64,
        row_start: Vec<u32>,
        columns: Vec<u32>,
        cost: Vec<f64>,
    }

    impl Dense {
        /// Every real-row cell that does not cost `big_m` is admissible.
        pub(super) fn new(m: usize, n: usize, c: &[f64], big_m: f64) -> Dense {
            assert!(c[(m - 1) * n..].iter().all(|&x| x == 0.0), "the dummy row costs 0");
            let (mut row_start, mut columns, mut cost) = (vec![0], Vec::new(), Vec::new());
            for row in c.chunks_exact(n).take(m - 1) {
                for (j, &x) in row.iter().enumerate().filter(|&(_, &x)| x != big_m) {
                    assert!(x < big_m, "big-M dominates every admissible cost");
                    columns.push(j as u32);
                    cost.push(x);
                }
                row_start.push(columns.len() as u32);
            }
            Dense { n, big_m, row_start, columns, cost }
        }

        pub(super) fn cells(&self) -> Cells<'_> {
            let cost = Cow::Borrowed(&self.cost[..]);
            Cells::new(self.n, &self.row_start, &self.columns, cost, self.big_m)
        }
    }

    /// The state's flows as a row-major `m × n` matrix.
    pub(super) fn dense_flow(st: &State) -> Vec<f64> {
        let mut flow = vec![0.0; st.m * st.n];
        for e in &st.edges {
            flow[e.i as usize * st.n + e.j as usize] = e.flow;
        }
        flow
    }
}

/// The cached-penalty Vogel start against the method as first written:
/// every open line's two smallest open costs re-derived at every step.
#[cfg(test)]
mod vogel_tests {
    use super::pricing_tests::tie_instance;
    use super::support::{dense_flow, Dense, BIG_M};
    use super::*;
    use dust_topology::SplitMix64;

    /// Returns the flows and the basic cells in assignment order.
    fn vogel_rescanning(
        m: usize,
        n: usize,
        supply: &[f64],
        demand: &[f64],
        c: &[f64],
    ) -> (Vec<f64>, Vec<(u32, u32)>) {
        let (mut s, mut d) = (supply.to_vec(), demand.to_vec());
        let (mut row_done, mut col_done) = (vec![false; m], vec![false; n]);
        let (mut flow, mut cells) = (vec![0.0; m * n], Vec::new());
        let (mut rows_left, mut cols_left) = (m, n);
        // (penalty, argmin) over one line's open cells `(index, cost)`
        let penalty = |open: &mut dyn Iterator<Item = (usize, f64)>| {
            let (mut c1, mut c2, mut k1) = (f64::INFINITY, f64::INFINITY, usize::MAX);
            for (k, v) in open {
                if v < c1 {
                    (c2, c1, k1) = (c1, v, k);
                } else if v < c2 {
                    c2 = v;
                }
            }
            (if c2.is_finite() { c2 - c1 } else { c1 }, k1)
        };
        while rows_left > 0 && cols_left > 0 {
            let (mut best, mut pick) = (-1.0, None);
            for i in (0..m).filter(|&i| !row_done[i]) {
                let mut open = (0..n).filter(|&j| !col_done[j]).map(|j| (j, c[i * n + j]));
                let (pen, j) = penalty(&mut open);
                if j != usize::MAX && pen > best {
                    (best, pick) = (pen, Some((i, j)));
                }
            }
            for j in (0..n).filter(|&j| !col_done[j]) {
                let mut open = (0..m).filter(|&i| !row_done[i]).map(|i| (i, c[i * n + j]));
                let (pen, i) = penalty(&mut open);
                if i != usize::MAX && pen > best {
                    (best, pick) = (pen, Some((i, j)));
                }
            }
            let Some((i, j)) = pick else { break };
            let q = s[i].min(d[j]);
            flow[i * n + j] = q;
            cells.push((i as u32, j as u32));
            s[i] -= q;
            d[j] -= q;
            if s[i] <= 1e-12 && (d[j] > 1e-12 || rows_left > 1) {
                row_done[i] = true;
                rows_left -= 1;
            } else {
                col_done[j] = true;
                cols_left -= 1;
            }
        }
        (flow, cells)
    }

    /// A balanced instance (dummy row last, zero cost) whose cost structure
    /// rotates with the seed: real-valued, small integers (penalty ties),
    /// mostly big-M, all equal (every penalty ties).
    fn balanced_instance(seed: u64) -> (usize, usize, Vec<f64>, Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let m = 3 + rng.below(12) as usize;
        let n = 2 + rng.below(39) as usize;
        let mut supply: Vec<f64> = (0..m - 1).map(|_| rng.range_u64(1, 6) as f64).collect();
        let total: f64 = supply.iter().sum();
        // integer balances, so rows and columns often exhaust together
        let demand: Vec<f64> =
            (0..n).map(|_| (total / n as f64).ceil() + rng.below(3) as f64).collect();
        supply.push(demand.iter().sum::<f64>() - total);
        let mut c: Vec<f64> = (0..(m - 1) * n)
            .map(|_| match seed % 4 {
                0 => rng.range_f64(0.1, 20.0),
                1 => rng.range_u64(1, 5) as f64,
                2 if rng.below(10) < 7 => 21e6,
                2 => rng.range_f64(0.1, 20.0),
                _ => 3.0,
            })
            .collect();
        c.extend(std::iter::repeat_n(0.0, n));
        (m, n, supply, demand, c)
    }

    /// Besides picking the same cells, the flat penalty array must hold,
    /// before every pick, what re-deriving each open line's two smallest
    /// open costs from the dense big-M matrix gives — and `-1` on every
    /// closed line. The big-M cells of the instances are implicit, so the
    /// picks on them, and the penalties they set, come from the walk for the
    /// first open inadmissible line.
    #[test]
    fn cached_penalties_pick_the_cells_a_rescan_picks() {
        let instances = (0..64).map(balanced_instance).chain((0..120).map(tie_instance));
        let mut implicit_picks = 0;
        for (seed, (m, n, supply, demand, c)) in instances.enumerate() {
            let mut step = 0;
            let watch = |rows: &Open, cols: &Open, pen: &Tournament| {
                step += 1;
                let open_rows: Vec<usize> = (0..m).filter(|&i| rows.is_open(i)).collect();
                let open_cols: Vec<usize> = (0..n).filter(|&j| cols.is_open(j)).collect();
                assert_eq!((open_rows.len(), open_cols.len()), (rows.left, cols.left), "{seed}");
                for line in 0..m + n {
                    let fresh = if line < m {
                        let open = open_cols.iter().map(|&j| (j, c[line * n + j]));
                        open_rows.contains(&line).then(|| Least::scan(open))
                    } else {
                        let open = open_rows.iter().map(|&i| (i, c[i * n + line - m]));
                        open_cols.contains(&(line - m)).then(|| Least::scan(open))
                    };
                    let fresh = fresh.filter(|l| l.k1 != usize::MAX).map_or(-1.0, |l| l.penalty());
                    assert_eq!(
                        pen.value(line).to_bits(),
                        fresh.to_bits(),
                        "{seed}: step {step}, {line}"
                    );
                }
            };
            let dense = Dense::new(m, n, &c, BIG_M);
            let st = State::vogel_initial(&dense.cells(), supply.clone(), demand.clone(), watch);
            let (flow, mut cells) = vogel_rescanning(m, n, &supply, &demand, &c);
            cells.sort_unstable();
            let basis: Vec<(u32, u32)> =
                st.sorted_cells().iter().map(|&(i, j, _)| (i, j)).collect();
            assert_eq!(basis, cells, "seed {seed}");
            let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&dense_flow(&st)), bits(&flow), "seed {seed}");
            implicit_picks += st.edges.iter().filter(|e| e.cost == BIG_M && e.flow > 0.0).count();
        }
        assert!(implicit_picks > 20, "{implicit_picks} picks put flow on an implicit cell");
    }

    /// The first and second open inadmissible line of [`Least::scan_line`],
    /// against the ascending scan of every open cell, on lines whose open
    /// and admissible sets interleave every way.
    #[test]
    fn scan_line_is_the_scan_of_every_open_cell() {
        let mut rng = SplitMix64::new(17);
        for len in 1..=24 {
            for _ in 0..200 {
                let cost: Vec<f64> = (0..len)
                    .map(|_| if rng.below(3) == 0 { BIG_M } else { rng.below(4) as f64 })
                    .collect();
                let mut lines = Open::new(len);
                for k in (0..len).filter(|_| rng.below(4) == 0) {
                    lines.close(k);
                }
                let open: Vec<usize> = (0..len).filter(|&k| lines.is_open(k)).collect();
                let adm: Vec<u32> =
                    (0..len as u32).filter(|&k| cost[k as usize] != BIG_M).collect();
                let adm_cost: Vec<f64> = adm.iter().map(|&k| cost[k as usize]).collect();
                let got = Least::scan_line(&adm, &adm_cost, &mut lines, BIG_M);
                let want = Least::scan(open.iter().map(|&k| (k, cost[k])));
                let key = |l: Least| (l.c1.to_bits(), l.c2.to_bits(), l.k1, l.k2);
                assert_eq!(key(got), key(want), "{cost:?} open {open:?}");
            }
        }
    }

    /// The first open line at or after every line, against a scan of the
    /// open flags, as lines close one by one in a seeded order, and again
    /// after every query has bent the pointers it crossed.
    #[test]
    fn first_open_line_is_the_scans_under_closures() {
        let mut rng = SplitMix64::new(23);
        for len in [1, 2, 3, 7, 64, 373] {
            let mut lines = Open::new(len);
            let mut order: Vec<usize> = (0..len).collect();
            rng.shuffle(&mut order);
            for (step, &k) in order.iter().enumerate() {
                lines.close(k);
                // want[x]: the first open line at or after x
                let mut want = vec![len; len + 1];
                for x in (0..len).rev() {
                    want[x] = if lines.is_open(x) { x } else { want[x + 1] };
                }
                for _ in 0..2 {
                    for (from, &want) in want.iter().enumerate() {
                        assert_eq!(
                            lines.first_from(from),
                            want,
                            "len {len}: step {step}, from {from}"
                        );
                    }
                }
            }
            assert_eq!(lines.left, 0);
        }
    }

    /// Index of the first largest value of a non-empty slice without NaNs —
    /// what a left-to-right strict-`>` scan finds — as a branch-free maximum
    /// over eight lanes, then the first element equal to it: the reference
    /// the winner tree is checked against.
    fn first_max(xs: &[f64]) -> usize {
        let max = |a: f64, b: f64| if a > b { a } else { b };
        let mut lanes = [f64::NEG_INFINITY; 8];
        let mut x8 = xs.chunks_exact(8);
        for chunk in &mut x8 {
            for k in 0..8 {
                lanes[k] = max(chunk[k], lanes[k]);
            }
        }
        let hi = x8.remainder().iter().copied().chain(lanes).fold(f64::NEG_INFINITY, max);
        xs.iter().position(|&x| x == hi).expect("the maximum is attained")
    }

    #[test]
    fn first_max_is_the_first_of_equal_maxima() {
        let mut rng = SplitMix64::new(9);
        for len in 1..=40 {
            for _ in 0..20 {
                let xs: Vec<f64> = (0..len).map(|_| rng.below(4) as f64 - 1.0).collect();
                let (mut hi, mut at) = (f64::NEG_INFINITY, usize::MAX);
                for (k, &x) in xs.iter().enumerate() {
                    if x > hi {
                        (hi, at) = (x, k);
                    }
                }
                assert_eq!(first_max(&xs), at, "{xs:?}");
            }
        }
    }

    /// Penalty-shaped arrays — a few distinct values, so ties are the
    /// rule, and `-1` closures — under single-point updates: after every
    /// update the root names the line `first_max` finds.
    #[test]
    fn tournament_root_is_first_max_under_single_point_updates() {
        let mut rng = SplitMix64::new(11);
        for len in (1..=40).chain([63, 64, 65, 481]) {
            let draw = |rng: &mut SplitMix64| match rng.below(6) {
                0 => -1.0,
                k => (k % 3) as f64 * 0.5,
            };
            let mut xs: Vec<f64> = (0..len).map(|_| draw(&mut rng)).collect();
            let mut t = Tournament::new(&xs);
            assert_eq!(t.top(), first_max(&xs), "len {len}: built {xs:?}");
            for step in 0..3 * len {
                let k = rng.below(len as u64) as usize;
                xs[k] = if step % 7 == 6 { -1.0 } else { draw(&mut rng) };
                t.set(k, xs[k]);
                assert_eq!(t.top(), first_max(&xs), "len {len}: step {step}, {xs:?}");
            }
        }
    }
}

/// The per-row pricing cache against the pricing step as first written:
/// every nonbasic cell's reduced cost, row-major, strict `<`, first wins.
#[cfg(test)]
mod pricing_tests {
    use super::support::{Dense, BIG_M};
    use super::*;
    use dust_topology::SplitMix64;

    /// Which cells of the `m × n` instance are basic.
    fn basic_cells(st: &State) -> Vec<bool> {
        let mut basic = vec![false; st.m * st.n];
        for e in &st.edges {
            basic[e.i as usize * st.n + e.j as usize] = true;
        }
        basic
    }

    /// Minimum reduced cost `c_ij − u_i − v_j` over one row's nonbasic
    /// cells of the dense matrix and the first column attaining it.
    fn price_row(c_row: &[f64], basic_row: &[bool], ui: f64, v: &[f64]) -> (f64, usize) {
        let (mut lo, mut at) = (f64::INFINITY, usize::MAX);
        for (j, ((&cij, &basic), &vj)) in c_row.iter().zip(basic_row).zip(v).enumerate() {
            if !basic {
                let rc = cij - ui - vj;
                if rc < lo {
                    (lo, at) = (rc, j);
                }
            }
        }
        (lo, at)
    }

    fn full_scan(st: &State, c: &[f64], u: &[f64], v: &[f64]) -> Option<(usize, usize)> {
        let mut best = -1e-7;
        let mut enter = None;
        let basic = basic_cells(st);
        let rows = c.chunks_exact(st.n).zip(basic.chunks_exact(st.n)).zip(u);
        for (i, ((c_row, basic_row), &ui)) in rows.enumerate() {
            for (j, ((&cij, &basic), &vj)) in c_row.iter().zip(basic_row).zip(v).enumerate() {
                if !basic {
                    let rc = cij - ui - vj;
                    if rc < best {
                        best = rc;
                        enter = Some((i, j));
                    }
                }
            }
        }
        enter
    }

    /// The potentials recomputed from the root over `st`'s basis — the
    /// reference the re-hung ones are checked against: `u_i + v_j = c_ij`
    /// on every tree edge, chained outward from `u_0 = 0`.
    fn potentials_from_root(st: &State, c: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let (m, n) = (st.m, st.n);
        let mut u = vec![f64::NAN; m];
        let mut v = vec![f64::NAN; n];
        u[0] = 0.0;
        let mut stack = vec![0];
        while let Some(x) = stack.pop() {
            if x < m {
                for (_, y) in st.adjacent(x) {
                    let j = y - m;
                    if v[j].is_nan() {
                        v[j] = c[x * n + j] - u[x];
                        stack.push(m + j);
                    }
                }
            } else {
                let j = x - m;
                for (_, i) in st.adjacent(x) {
                    if u[i].is_nan() {
                        u[i] = c[i * n + j] - v[j];
                        stack.push(i);
                    }
                }
            }
        }
        (u, v)
    }

    /// A balanced instance (dummy row last, zero cost) from one supply row
    /// by 3 sinks to 60 by 200, sink counts on both sides of a multiple of
    /// eight, whose cost structure rotates with the seed: real-valued,
    /// `{0, 1, 2}`, repeated columns, whole big-M rows and columns, all
    /// equal.
    pub(super) fn tie_instance(seed: u64) -> (usize, usize, Vec<f64>, Vec<f64>, Vec<f64>) {
        const ROWS: [usize; 8] = [1, 2, 4, 5, 9, 17, 33, 60];
        const COLS: [usize; 12] = [3, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 200];
        let mut rng = SplitMix64::new(seed);
        let (m0, n) = (ROWS[rng.below(8) as usize], COLS[rng.below(12) as usize]);
        let shape = seed % 5;
        let shut_row = |i: usize| shape == 3 && i % 3 == 2;
        let shut_col = |j: usize| shape == 3 && j.is_multiple_of(4);
        let mut supply: Vec<f64> =
            (0..m0).map(|i| if shut_row(i) { 0.0 } else { rng.range_u64(1, 6) as f64 }).collect();
        let total: f64 = supply.iter().sum();
        let open_cols = (0..n).filter(|&j| !shut_col(j)).count() as f64;
        let demand: Vec<f64> =
            (0..n).map(|_| (total / open_cols).ceil() + rng.below(3) as f64).collect();
        supply.push(demand.iter().sum::<f64>() - total);
        let period = (n / 3).max(1);
        let mut c = Vec::with_capacity((m0 + 1) * n);
        for i in 0..m0 {
            let base: Vec<f64> = (0..period).map(|_| rng.range_f64(0.1, 20.0)).collect();
            c.extend((0..n).map(|j| match shape {
                0 => rng.range_f64(0.1, 20.0),
                1 => rng.below(3) as f64,
                2 => base[j % period],
                3 if shut_row(i) || shut_col(j) => 21e6,
                3 => rng.range_f64(0.1, 20.0),
                _ => 3.0,
            }));
        }
        c.extend(std::iter::repeat_n(0.0, n));
        (m0 + 1, n, supply, demand, c)
    }

    /// After every pivot the cache holds, row by row, what pricing every
    /// nonbasic cell of the dense big-M matrix gives, the re-hung potentials
    /// are the from-root ones, and the entering cell is the full scan's.
    /// The big-M cells of the instances are implicit; every other instance
    /// starts from a basis full of them, so the pivots that drive flow off
    /// big-M, with potentials of the order of big-M, price implicit cells.
    #[test]
    fn cached_row_minima_match_a_fresh_scan_after_every_pivot() {
        let (mut pivots, mut implicit_entries) = (0, 0);
        for seed in 0..240 {
            let (m, n, supply, demand, c) = tie_instance(seed);
            let dense = Dense::new(m, n, &c, BIG_M);
            let cells = dense.cells();
            // every other instance starts from the basis Vogel finds for the
            // mirrored costs, its big-M cells made the cheapest: about as far
            // from optimal as a basis can be
            let mut start = c.clone();
            if (seed / 5) % 2 == 1 {
                let max = c.iter().copied().filter(|&x| x < BIG_M).fold(0.0, f64::max);
                for x in &mut start[..(m - 1) * n] {
                    *x = if *x == BIG_M { 0.0 } else { max - *x };
                }
            }
            let from = Dense::new(m, n, &start, BIG_M);
            let mut st = State::vogel_initial(&from.cells(), supply, demand, |_, _, _| ());
            st.complete_basis(&from.cells());
            for e in &mut st.edges {
                e.cost = cells.cost(e.i as usize, e.j as usize);
            }
            let mut step = 0;
            let done =
                st.modi_optimize(&cells, 50 * (m + n) * (m + n), |st, u, v, row_best, enter| {
                    step += 1;
                    // the re-hung potentials are the from-root ones, bit for bit
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let (root_u, root_v) = potentials_from_root(st, &c);
                    assert_eq!(bits(u), bits(&root_u), "{seed}: step {step}, u");
                    assert_eq!(bits(v), bits(&root_v), "{seed}: step {step}, v");
                    let basic = basic_cells(st);
                    for (i, &(lo, at)) in row_best.iter().enumerate() {
                        let row = i * n..(i + 1) * n;
                        let fresh = price_row(&c[row.clone()], &basic[row], u[i], v);
                        let cached = (lo.to_bits(), at);
                        assert_eq!(
                            cached,
                            (fresh.0.to_bits(), fresh.1),
                            "{seed}: step {step}, {i}"
                        );
                    }
                    assert_eq!(enter, full_scan(st, &c, u, v), "{seed}: step {step}");
                    if enter.is_some_and(|(i, j)| !cells.admissible(i, j)) {
                        implicit_entries += 1;
                    }
                });
            assert!(done.duals.is_some(), "seed {seed} ran into the pivot cap");
            pivots += done.count;
        }
        assert!(pivots > 5_000, "the instances must exercise the cache: {pivots} pivots");
        assert!(implicit_entries > 20, "{implicit_entries} pivots entered an implicit cell");
    }
}

#[cfg(test)]
mod pivot_cap_tests {
    use super::*;
    use dust_obs::ObsHandle;
    use dust_topology::SplitMix64;

    /// Real-valued costs and balances: Vogel's start is not optimal, and
    /// nothing ties.
    fn generic_instance() -> TransportProblem {
        let mut rng = SplitMix64::new(5);
        let (m, n) = (24, 72);
        TransportProblem::new(
            (0..m).map(|_| rng.range_f64(1.0, 10.0)).collect(),
            (0..n).map(|_| rng.range_f64(5.0, 30.0)).collect(),
            (0..m * n).map(|_| rng.range_f64(0.1, 20.0)).collect(),
        )
    }

    #[test]
    fn a_capped_solve_withholds_its_flows() {
        let p = generic_instance();
        let full = p.solve();
        assert_eq!(full.status, TransportStatus::Optimal);
        assert!(full.iterations >= 3, "instance must need pivots, took {}", full.iterations);
        for cap in 0..full.iterations {
            let (s, _) = p.solve_inner(None, Some(cap));
            assert_eq!(s.status, TransportStatus::IterationLimit, "cap {cap}");
            assert_eq!(s.iterations, cap, "pivots done are still reported");
            assert!(s.flows.is_empty() && s.objective.is_nan() && s.basis.is_none());
            assert!(s.row_potentials.is_empty() && s.col_potentials.is_empty());
        }
        // exactly enough pivots is not a limit: optimality is proved first
        let (s, _) = p.solve_inner(None, Some(full.iterations));
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_eq!(s.objective.to_bits(), full.objective.to_bits());
        assert_eq!(s.basis, full.basis);
    }

    #[test]
    fn zero_theta_pivots_are_counted() {
        let obs = ObsHandle::recording(0);
        let s = generic_instance().solve_with(&obs, None);
        assert_eq!(s.degenerate_pivots, 0, "no ties, every pivot moves flow");
        assert_eq!(obs.counter("lp.degenerate_pivots"), 0);
        // every supply equals every other and total supply equals total
        // capacity: partial sums collide, so bases carry zero-flow cells
        let mut rng = SplitMix64::new(6);
        let (m, n) = (6, 9);
        let p = TransportProblem::new(
            vec![n as f64; m],
            vec![m as f64; n],
            (0..m * n).map(|_| rng.range_f64(0.1, 20.0)).collect(),
        );
        let s = p.solve_with(&obs, None);
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!(s.degenerate_pivots > 0 && s.degenerate_pivots <= s.iterations, "{s:?}");
        assert_eq!(obs.counter("lp.degenerate_pivots"), s.degenerate_pivots as u64);
    }
}

/// The column lists the solver reads columns through.
#[cfg(test)]
mod cells_tests {
    use super::*;
    use dust_topology::SplitMix64;

    /// The column lists are the rows transposed, the dummy row last in
    /// every column, whatever rows an instance mixes: rows of every column,
    /// runs of consecutive columns (in blocks and alone), scattered rows
    /// and empty ones.
    #[test]
    fn column_lists_are_the_rows_transposed() {
        let mut rng = SplitMix64::new(29);
        for seed in 0..300 {
            let (m0, n) = (1 + rng.below(40) as usize, 1 + rng.below(300) as usize);
            let mut rows: Vec<Vec<u32>> = Vec::with_capacity(m0);
            for _ in 0..m0 {
                rows.push(match rng.below(4) {
                    0 => (0..n as u32).collect(),
                    1 => {
                        let a = rng.below(n as u64) as u32;
                        (a..=a + rng.below(n as u64 - a as u64) as u32).collect()
                    }
                    2 => Vec::new(),
                    _ => (0..n as u32).filter(|_| rng.below(3) == 0).collect(),
                });
            }
            let columns: Vec<u32> = rows.concat();
            let cost: Vec<f64> = (0..columns.len()).map(|_| rng.range_f64(0.0, 9.0)).collect();
            let row_start: Vec<u32> = std::iter::once(0)
                .chain(rows.iter().scan(0, |at, r| {
                    *at += r.len() as u32;
                    Some(*at)
                }))
                .collect();
            let cells = Cells::new(n, &row_start, &columns, Cow::Borrowed(&cost), 1e7);
            for j in 0..n {
                let mut want: Vec<(u32, u64)> = Vec::new();
                for (i, r) in rows.iter().enumerate() {
                    if let Ok(k) = r.binary_search(&(j as u32)) {
                        want.push((i as u32, cost[row_start[i] as usize + k].to_bits()));
                    }
                }
                want.push((m0 as u32, 0.0f64.to_bits()));
                let (got_rows, got_cost) = cells.col(j);
                let got: Vec<(u32, u64)> =
                    got_rows.iter().zip(got_cost).map(|(&i, c)| (i, c.to_bits())).collect();
                assert_eq!(got, want, "seed {seed}: column {j}");
            }
        }
    }
}

/// The census of implicit cells over the pinned corpus: the branches that
/// put flow on an implicit cell and price one happen in the solves the
/// pins hold bit for bit.
#[cfg(test)]
mod census_tests {
    use super::*;
    use dust_topology::{CostEngine, FatTree, SplitMix64, Tier};

    /// The instance `crates/core/tests/solve_pins.rs` solves for a
    /// decide-shaped `k`-port fat-tree at `seed` and `max_hop`: the same
    /// draws, the same classification (Busy at 80 % and above, a candidate
    /// at 50 % and below) and the same `Cs`/`Cd`.
    pub(super) fn decide_instance(k: usize, seed: u64, max_hop: Option<usize>) -> TransportProblem {
        let ft = FatTree::with_default_links(k);
        let mut rng = SplitMix64::new(seed);
        let mut graph = ft.graph.clone();
        graph.retarget_utilization(|_, _| rng.range_f64(0.1, 0.9));
        let mut util = vec![0.0; graph.node_count()];
        for tier in [Tier::Core, Tier::Aggregation, Tier::Edge] {
            let mut order: Vec<usize> = ft.tier_nodes(tier).iter().map(|n| n.index()).collect();
            rng.shuffle(&mut order);
            let (hot, cand) = (order.len() / 6, order.len() / 2);
            for (rank, &i) in order.iter().enumerate() {
                util[i] = match rank {
                    r if r < hot => rng.range_f64(82.0, 98.0),
                    r if r < hot + cand => rng.range_f64(6.0, 30.0),
                    _ => rng.range_f64(56.0, 74.0),
                };
            }
        }
        let data: Vec<f64> = util.iter().map(|_| rng.range_f64(10.0, 500.0)).collect();
        let busy: Vec<_> = graph.nodes().filter(|n| util[n.index()] >= 80.0).collect();
        let cands: Vec<_> = graph.nodes().filter(|n| util[n.index()] <= 50.0).collect();
        let busy_data: Vec<f64> = busy.iter().map(|b| data[b.index()]).collect();
        let m =
            CostEngine::with_threads(1).build_matrix(&graph, &busy, &cands, &busy_data, max_hop);
        TransportProblem::sparse(
            busy.iter().map(|b| util[b.index()] - 80.0).collect(),
            cands.iter().map(|c| (50.0 - util[c.index()]) / 1.0).collect(),
            m.row_start,
            m.columns,
            m.t_rmin,
        )
    }

    /// Over the decide-shaped corpus the core crate pins (`k` = 8, 16, 24,
    /// hop bounds 1, 2, 4 and none, seeds 1–4), some Vogel starts put flow
    /// on an implicit cell and some MODI pivots enter one, and at hop 2 a
    /// solve reads a small share of its `m · n` cells.
    #[test]
    fn pinned_solves_put_flow_on_implicit_cells_and_enter_them() {
        const TOL: f64 = 1e-9;
        let (mut solves, mut vogel_flow, mut entered) = (0, 0, 0);
        for k in [8, 16, 24] {
            for max_hop in [Some(1), Some(2), Some(4), None] {
                for seed in 1..=4 {
                    let p = decide_instance(k, seed, max_hop);
                    let (s, d): (f64, f64) = (p.supply.iter().sum(), p.capacity.iter().sum());
                    if s <= TOL || s > d + TOL {
                        continue; // no solve: nothing to ship, or infeasible up front
                    }
                    let (cells, supply, _) = p.balanced();
                    let implicit = |i: usize, j: usize| !cells.admissible(i, j);
                    let mut st =
                        State::vogel_initial(&cells, supply, p.capacity.clone(), |_, _, _| ());
                    let on_implicit = st
                        .edges
                        .iter()
                        .any(|e| e.flow > 0.0 && implicit(e.i as usize, e.j as usize));
                    st.complete_basis(&cells);
                    let mut enters = false;
                    let pivots = st.modi_optimize(&cells, usize::MAX, |_, _, _, _, enter| {
                        enters |= enter.is_some_and(|(i, j)| implicit(i, j));
                    });
                    (solves, vogel_flow, entered) = (
                        solves + 1,
                        vogel_flow + usize::from(on_implicit),
                        entered + usize::from(enters),
                    );
                    if max_hop == Some(2) && k == 24 {
                        let full = (pivots.count as u64 + 1) * (cells.m * cells.n) as u64;
                        assert!(
                            pivots.cells_priced * 10 < full,
                            "k {k}, seed {seed}: {}",
                            pivots.cells_priced
                        );
                    }
                }
            }
        }
        assert!(
            vogel_flow >= 10 && entered >= 3,
            "of {solves} solves, {vogel_flow} put Vogel flow on an implicit cell, {entered} entered one"
        );
    }
}
