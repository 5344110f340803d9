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
//! Both phases keep indexed state, so a step costs what it changes rather
//! than a rescan of the `m × n` arrays:
//!
//! * **Vogel** caches, per open row and column, its two smallest open costs
//!   and where they sit, and rescans a line only when the line just closed
//!   was one of those two — a few hundred line rescans per solve at
//!   121 × 360, where re-deriving every penalty at each of the `m + n − 1`
//!   steps was two thirds of a cold solve. A rescan walks an ascending
//!   list of the open lines. The penalties sit at the leaves of a winner
//!   tree (`Tournament`), so a step reads the largest at the root and a
//!   changed penalty replays the matches on its way up.
//! * **MODI** holds the basis as the adjacency lists of the spanning tree it
//!   forms on the row and column vertices, so potentials, the entering
//!   cell's cycle, the exported [`Basis`] and the warm-start peel all walk
//!   tree edges. A pivot cuts one tree edge, so only the duals of the
//!   component cut off from the root can move; that component is re-hung
//!   below the entering cell and only its potentials are recomputed
//!   (`Duals::hang`). Pricing is the exact Dantzig rule (most negative
//!   reduced cost, row-major, first wins) over a per-row cache of each
//!   row's minimum: a row is scanned again only if its own dual, its basic
//!   set or the dual under its cached minimum changed, and every other row
//!   prices just the columns whose dual moved — a few per cent of the
//!   `m · n` cells a full scan visits
//!   ([`TransportSolution::cells_priced`]).
//!
//! None of this changes what the solver does. Each potential is the chain
//! `u_i + v_j = c_ij` along its own tree path from the root, so the
//! re-hung subtree's values are bit-equal to a recompute from the root,
//! and pivots, flows and bases are bit-identical to the plain textbook
//! loops — `tests/transport_pins.rs` holds them to that.
//!
//! Unreachable (forbidden) pairs are modeled with `f64::INFINITY` costs;
//! internally they become a big-M cost, and any positive flow left on them
//! at the optimum proves the instance infeasible. A search that exhausts
//! its pivot budget reports [`TransportStatus::IterationLimit`] and
//! withholds its flows rather than passing them off as optimal.

/// A transportation instance.
///
/// `cost` is row-major `supply.len() × capacity.len()`; `f64::INFINITY`
/// marks a forbidden (unreachable) route.
#[derive(Debug, Clone)]
pub struct TransportProblem {
    /// Amount that *must* leave each source (`Cs_i`, Eq. 3b).
    pub supply: Vec<f64>,
    /// Maximum each sink can absorb (`Cd_j`, Eq. 3a).
    pub capacity: Vec<f64>,
    /// Row-major unit shipping costs.
    pub cost: Vec<f64>,
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
    /// Row-major flows `x_ij` (empty unless optimal).
    pub flow: Vec<f64>,
    /// `Σ x_ij · c_ij` (NaN unless optimal).
    pub objective: f64,
    /// MODI improvement pivots performed.
    pub iterations: usize,
    /// Of those, pivots that moved no flow (`theta = 0`): the basis
    /// changed, the solution did not.
    pub degenerate_pivots: usize,
    /// Reduced costs the pricing step evaluated, the first full scan of
    /// all `(rows + 1) · cols` balanced cells included: a work count the
    /// clock cannot fake (a full scan per pivot would be
    /// `(iterations + 1) · (rows + 1) · cols`).
    pub cells_priced: u64,
    /// Dual values `u_i` per source (empty unless optimal): the marginal
    /// cost of one more unit of supply at source `i`.
    pub row_potentials: Vec<f64>,
    /// Dual values `v_j` per sink (empty unless optimal): the shadow price
    /// of one more unit of capacity at sink `j` — which Offload-candidate
    /// is worth upgrading.
    pub col_potentials: Vec<f64>,
    /// The optimal spanning-tree basis, reusable as
    /// [`SolveOptions::warm_start`] for the next solve of a similar
    /// instance (`None` on infeasible or trivial solves).
    pub basis: Option<Basis>,
    /// True when this solve started from an accepted warm-start basis
    /// instead of the Vogel initial-assignment phase.
    pub warm_used: bool,
}

/// A spanning-tree basis exported from an optimal transportation solve.
///
/// The cells live on the *balanced* instance (real supply rows plus the
/// dummy slack source the solver appends), so a basis round-trips between
/// solves without the caller ever seeing the balancing. Feeding a stale
/// basis back in via [`SolveOptions::warm_start`] can never change the
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

/// Knobs for one transportation solve.
#[derive(Debug, Clone, Default)]
pub struct SolveOptions {
    /// Reuse this spanning-tree basis from a previous round instead of
    /// running the Vogel initial-assignment phase. A basis that does not
    /// fit the current instance falls back to the cold start (counted as
    /// `lp.warm_rejects`); an accepted one pins `lp.pivots_saved` by the
    /// `rows + cols - 1` initial assignments it skipped.
    pub warm_start: Option<Basis>,
}

/// How a solve used (or didn't use) its warm-start basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmUse {
    /// No warm basis was offered.
    Cold,
    /// A warm basis was offered but did not fit the instance.
    Rejected,
    /// The warm basis seeded the solve.
    Accepted,
}

impl TransportProblem {
    /// Validate and create an instance.
    ///
    /// # Panics
    /// Panics if dimensions are inconsistent or any supply/capacity is
    /// negative or non-finite.
    pub fn new(supply: Vec<f64>, capacity: Vec<f64>, cost: Vec<f64>) -> Self {
        assert_eq!(cost.len(), supply.len() * capacity.len(), "cost matrix shape mismatch");
        for &s in &supply {
            assert!(s.is_finite() && s >= 0.0, "supply must be finite and >= 0, got {s}");
        }
        for &d in &capacity {
            assert!(d.is_finite() && d >= 0.0, "capacity must be finite and >= 0, got {d}");
        }
        for &c in &cost {
            assert!(!c.is_nan() && c >= 0.0, "costs must be >= 0 or +inf, got {c}");
        }
        TransportProblem { supply, capacity, cost }
    }

    /// The single entry point: solve and record solver metrics into
    /// `obs` — a MODI pivot counter and histogram plus one
    /// `TransportSolve` trace event. A disabled handle skips all
    /// recording, preserving the untraced path exactly.
    pub fn solve_with(&self, obs: &dust_obs::ObsHandle) -> TransportSolution {
        self.solve_with_options(obs, &SolveOptions::default())
    }

    /// Solve with explicit [`SolveOptions`] (warm-start basis reuse).
    /// Warm and cold solves reach the same objective; the split between
    /// `lp.warm_pivots` and `lp.cold_pivots` records where the pivots
    /// went, and `lp.pivots_saved` the initial assignments a warm start
    /// skipped.
    pub fn solve_with_options(
        &self,
        obs: &dust_obs::ObsHandle,
        opts: &SolveOptions,
    ) -> TransportSolution {
        let _prof = obs.prof_scope("lp.transport.solve");
        let (s, warm) = self.solve_inner(opts.warm_start.as_ref(), None);
        if obs.is_enabled() {
            obs.counter_inc("lp.transport.solves");
            obs.counter_add("lp.transport.pivots", s.iterations as u64);
            obs.counter_add("lp.degenerate_pivots", s.degenerate_pivots as u64);
            obs.counter_add("lp.cells_priced", s.cells_priced);
            obs.observe("lp.transport.pivots", s.iterations as f64);
            match warm {
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

    /// Solve with no observability.
    pub fn solve(&self) -> TransportSolution {
        self.solve_with(&dust_obs::ObsHandle::disabled())
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
                    flow: vec![0.0; m0 * n],
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

        // Big-M for forbidden routes: dominates any mix of real costs.
        let max_finite = self.cost.iter().copied().filter(|c| c.is_finite()).fold(0.0f64, f64::max);
        let big_m = (max_finite + 1.0) * 1e6;

        // Balanced instance: extra dummy source absorbing spare capacity at
        // zero cost. Rows = m0 + 1 (dummy last), all sinks become equality.
        let m = m0 + 1;
        let mut c = Vec::with_capacity(m * n);
        c.extend(self.cost.iter().map(|&v| if v.is_finite() { v } else { big_m }));
        c.resize(m * n, 0.0); // the dummy row costs 0
        let mut supply: Vec<f64> = Vec::with_capacity(m);
        supply.extend_from_slice(&self.supply);
        supply.push(total_cap - total_supply);
        let demand = &self.capacity;

        let (mut state, warm_use) = match warm
            .and_then(|b| State::from_basis(m, n, &supply, demand, b))
        {
            Some(s) => (s, WarmUse::Accepted),
            None => {
                let mut st = State::vogel_initial(m, n, supply, demand.clone(), &c, |_, _, _| ());
                st.complete_basis();
                (st, if warm.is_some() { WarmUse::Rejected } else { WarmUse::Cold })
            }
        };
        let warm_used = warm_use == WarmUse::Accepted;
        let pivot_cap = pivot_cap.unwrap_or(50 * (m + n).max(16) * (m + n).max(16));
        let mut pivots = state.modi_optimize(&c, pivot_cap, |_, _, _, _, _| ());
        let Some((u_bal, v_bal)) = pivots.duals.take() else {
            return (withheld(TransportStatus::IterationLimit, &pivots, warm_used), warm_use);
        };

        // The real rows of the balanced flows are the answer (the dummy row
        // is last, so they are a prefix) — unless flow is left on a
        // forbidden route. Only basic cells carry flow and a nonbasic one
        // holds exactly 0.0, so summing the basis cells, row-major as they
        // are exported, adds what a sweep of every cell adds, bit for bit.
        let basis = state.export_basis();
        let mut objective = 0.0;
        for &(i, j) in basis.cells.iter().take_while(|&&(i, _)| (i as usize) < m0) {
            let x = i as usize * n + j as usize;
            let (f, cost) = (state.flow[x], self.cost[x]);
            if f > TOL && !cost.is_finite() {
                return (withheld(TransportStatus::Infeasible, &pivots, warm_used), warm_use);
            }
            objective += f * cost.min(big_m);
        }
        let mut flow = state.flow;
        flow.truncate(m0 * n);
        // Normalize duals so the dummy source's potential is zero: shifting
        // all u by -u_dummy and all v by +u_dummy preserves u_i + v_j and
        // anchors sink potentials at "price relative to leaving capacity
        // unused" (the dummy row costs 0).
        let shift = u_bal[m0];
        let row_potentials: Vec<f64> = u_bal[..m0].iter().map(|u| u - shift).collect();
        let col_potentials: Vec<f64> = v_bal.iter().map(|v| v + shift).collect();
        (
            TransportSolution {
                status: TransportStatus::Optimal,
                flow,
                objective,
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
        flow: Vec::new(),
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

/// Minimum reduced cost `c_ij − u_i − v_j` over one row's nonbasic cells
/// and the first column attaining it (`(INFINITY, usize::MAX)` when every
/// cell is basic).
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

/// A winner tree over a fixed number of values without NaNs: every inner
/// node holds the index of its subtree's larger value, the smaller index
/// on ties, so the root holds the first maximum — what a left-to-right
/// strict-`>` scan finds. Changing one value replays the matches on its
/// way to the root, one per level.
struct Tournament {
    /// The values, padded with `-∞` up to a power of two.
    vals: Vec<f64>,
    /// `win[k]` is the winning index below heap node `k` (root at 1,
    /// children of `k` at `2k` and `2k + 1`, leaf `x` at `vals.len() + x`).
    win: Vec<u32>,
}

impl Tournament {
    /// A tree over `vals`, which must be non-empty.
    fn new(vals: impl IntoIterator<Item = f64>) -> Tournament {
        let vals = vals.into_iter();
        // room for the padding up front, so it is one allocation
        let mut padded = Vec::with_capacity(vals.size_hint().0.next_power_of_two());
        padded.extend(vals);
        let size = padded.len().next_power_of_two();
        padded.resize(size, f64::NEG_INFINITY);
        let mut t = Tournament { vals: padded, win: vec![0; 2 * size] };
        for x in 0..size {
            t.win[size + x] = x as u32;
        }
        for k in (1..size).rev() {
            t.play(k);
        }
        t
    }

    /// The winner at heap node `k` from its children's winners. Every
    /// index under the left child is below every index under the right
    /// one, so the left wins ties.
    fn play(&mut self, k: usize) {
        let (a, b) = (self.win[2 * k], self.win[2 * k + 1]);
        self.win[k] = if self.vals[b as usize] > self.vals[a as usize] { b } else { a };
    }

    /// Set value `x` and replay its matches.
    fn set(&mut self, x: usize, val: f64) {
        self.vals[x] = val;
        let mut k = (self.vals.len() + x) / 2;
        while k > 0 {
            self.play(k);
            k /= 2;
        }
    }

    /// Index of the first largest value.
    fn top(&self) -> usize {
        self.win[1] as usize
    }
}

/// What [`State::modi_optimize`] did.
struct Pivots {
    /// Improvement pivots performed.
    count: usize,
    /// Of those, pivots that moved no flow (`theta == 0`).
    degenerate: usize,
    /// Reduced costs evaluated by the pricing step, first scan included.
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
    /// Tree edges between each vertex and the root.
    depth: Vec<usize>,
    /// The columns whose `v_j` changed in the last [`Duals::hang`].
    moved: Vec<usize>,
    stack: Vec<usize>,
}

impl Duals {
    /// The potentials of `st`'s basis, all stamped with pivot 0.
    fn new(st: &State, c: &[f64]) -> Duals {
        let k = st.m + st.n;
        let mut d = Duals {
            pot: vec![f64::NAN; k],
            at: vec![0; k],
            up: vec![usize::MAX; k],
            depth: vec![0; k],
            moved: Vec::with_capacity(st.n),
            stack: Vec::with_capacity(k),
        };
        d.hang(st, c, 0, usize::MAX, 0);
        debug_assert!(d.pot.iter().all(|x| !x.is_nan()), "basis does not span the bipartite graph");
        d
    }

    /// Hang `top` below its tree neighbour `above` (`top` is the root, row
    /// 0, when `above` is `usize::MAX`) and everything on `top`'s side of
    /// that edge below `top`, setting `up`, `depth` and the potentials on
    /// the way down by `u_i + v_j = c_ij` from `u_0 = 0`. A potential whose
    /// bits change is stamped with pivot `now`, and a column's lands in
    /// `moved`.
    ///
    /// Each potential is the chain along its own tree path to the root,
    /// whatever order the walk takes, so a vertex whose path did not change
    /// keeps its value and re-hanging one subtree gives every value a
    /// recompute from the root would give, bit for bit.
    fn hang(&mut self, st: &State, c: &[f64], top: usize, above: usize, now: usize) {
        let (m, n) = (st.m, st.n);
        self.moved.clear();
        self.set(m, n, c, top, above, now);
        self.stack.push(top);
        while let Some(x) = self.stack.pop() {
            if x < m {
                for &j in &st.row_adj[x] {
                    if m + j != self.up[x] {
                        self.set(m, n, c, m + j, x, now);
                        self.stack.push(m + j);
                    }
                }
            } else {
                for &i in &st.col_adj[x - m] {
                    if i != self.up[x] {
                        self.set(m, n, c, i, x, now);
                        self.stack.push(i);
                    }
                }
            }
        }
    }

    /// Hang vertex `y` from its tree neighbour `x`.
    fn set(&mut self, m: usize, n: usize, c: &[f64], y: usize, x: usize, now: usize) {
        let (p, depth) = if x == usize::MAX {
            (0.0, 0)
        } else {
            let cell = if x < m { x * n + (y - m) } else { y * n + (x - m) };
            (c[cell] - self.pot[x], self.depth[x] + 1)
        };
        if p.to_bits() != self.pot[y].to_bits() {
            self.pot[y] = p;
            self.at[y] = now;
            if y >= m {
                self.moved.push(y - m);
            }
        }
        (self.up[y], self.depth[y]) = (x, depth);
    }
}

/// Internal solver state over the balanced `m × n` instance.
///
/// The basis is held twice: as a per-cell bitmap, which only the pricing
/// scan's O(1) membership test reads, and as the adjacency lists of the
/// spanning tree it forms on the `m` row and `n` column vertices, which is
/// what every walk of the basis (potentials, cycle, export, warm-start
/// peel) follows — `m + n − 1` edges instead of `m · n` cells.
struct State {
    m: usize,
    n: usize,
    /// Row-major flows, `m × n` (including the dummy row).
    flow: Vec<f64>,
    /// Basis membership per cell.
    basic: Vec<bool>,
    /// Basic columns of each row, unordered.
    row_adj: Vec<Vec<usize>>,
    /// Basic rows of each column, unordered.
    col_adj: Vec<Vec<usize>>,
}

impl State {
    fn new(m: usize, n: usize) -> State {
        State {
            m,
            n,
            flow: vec![0.0; m * n],
            basic: vec![false; m * n],
            row_adj: vec![Vec::new(); m],
            col_adj: vec![Vec::new(); n],
        }
    }

    /// Make the nonbasic cell `(i, j)` basic.
    fn insert(&mut self, i: usize, j: usize) {
        self.basic[i * self.n + j] = true;
        self.row_adj[i].push(j);
        self.col_adj[j].push(i);
    }

    /// Make the basic cell `(i, j)` nonbasic.
    fn remove(&mut self, i: usize, j: usize) {
        self.basic[i * self.n + j] = false;
        let at = self.row_adj[i].iter().position(|&x| x == j).expect("cell is basic");
        self.row_adj[i].swap_remove(at);
        let at = self.col_adj[j].iter().position(|&x| x == i).expect("cell is basic");
        self.col_adj[j].swap_remove(at);
    }

    /// Collect the current basis as an exportable cell set, row-major.
    fn export_basis(&self) -> Basis {
        let mut cells: Vec<(u32, u32)> = self
            .row_adj
            .iter()
            .enumerate()
            .flat_map(|(i, cols)| cols.iter().map(move |&j| (i as u32, j as u32)))
            .collect();
        cells.sort_unstable();
        Basis { rows: self.m, cols: self.n, cells }
    }

    /// Rebuild solver state from a previous round's basis: mark the cells
    /// basic and recompute the unique tree flows by leaf-peeling the
    /// spanning tree against the *current* supplies and demands. Returns
    /// `None` — caller falls back to the cold Vogel start — when the basis
    /// does not fit: wrong dimensions or cell count, duplicate or
    /// out-of-range cells, a cell set that is not a spanning tree (the
    /// peel stalls), or tree flows forced negative by the new balances.
    fn from_basis(
        m: usize,
        n: usize,
        supply: &[f64],
        demand: &[f64],
        basis: &Basis,
    ) -> Option<State> {
        const FEAS_TOL: f64 = 1e-9;
        if basis.rows != m || basis.cols != n || basis.cells.len() != m + n - 1 {
            return None;
        }
        let mut st = State::new(m, n);
        for &(bi, bj) in &basis.cells {
            let (i, j) = (bi as usize, bj as usize);
            if i >= m || j >= n || st.basic[i * n + j] {
                return None;
            }
            st.insert(i, j);
        }
        // vertices: rows 0..m, cols m..m+n
        let mut degree: Vec<usize> = st.row_adj.iter().chain(&st.col_adj).map(Vec::len).collect();
        if degree.contains(&0) {
            return None; // an isolated vertex can never be spanned
        }
        // Each leaf's single remaining cell must carry the leaf's entire
        // residual balance; peeling a tree consumes every cell exactly once.
        // A cell is spent once either end is peeled, so a leaf's remaining
        // cell is the one toward its only unpeeled neighbour.
        let mut resid: Vec<f64> = supply.iter().chain(demand.iter()).copied().collect();
        let mut peeled = vec![false; m + n];
        let mut leaves: Vec<usize> = (0..m + n).filter(|&v| degree[v] == 1).collect();
        let mut assigned = 0usize;
        while let Some(v) = leaves.pop() {
            peeled[v] = true;
            let other = if v < m {
                st.row_adj[v].iter().map(|&j| m + j).find(|&w| !peeled[w])
            } else {
                st.col_adj[v - m].iter().copied().find(|&w| !peeled[w])
            };
            let Some(other) = other else { continue };
            let (i, j) = if v < m { (v, other - m) } else { (other, v - m) };
            let f = resid[v];
            if f < -FEAS_TOL {
                return None; // old basis is infeasible for the new balances
            }
            st.flow[i * n + j] = f.max(0.0);
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
    /// a line is rescanned, along the ascending list of open lines across
    /// it, only when the line just closed was one of the two its cache
    /// stands on. The penalties are the leaves of a [`Tournament`], so a
    /// step reads its line at the root and pays one climb per penalty the
    /// closure changed, instead of a fresh O(m · n) sweep or a maximum
    /// over all `m + n` lines.
    ///
    /// `watch(open_rows, open_cols, penalties)` is called before every
    /// pick; it is the tests' window onto the caches and a no-op otherwise.
    fn vogel_initial(
        m: usize,
        n: usize,
        mut s: Vec<f64>,
        mut d: Vec<f64>,
        c: &[f64],
        mut watch: impl FnMut(&[usize], &[usize], &[f64]),
    ) -> State {
        const TOL: f64 = 1e-12;
        let mut open_rows: Vec<usize> = (0..m).collect();
        let mut open_cols: Vec<usize> = (0..n).collect();
        let mut st = State::new(m, n);

        let scan_row = |i: usize, open_cols: &[usize]| {
            Least::scan(open_cols.iter().map(|&j| (j, c[i * n + j])))
        };
        let scan_col = |j: usize, open_rows: &[usize]| {
            Least::scan(open_rows.iter().map(|&i| (i, c[i * n + j])))
        };
        let mut rows: Vec<Least> = (0..m).map(|i| scan_row(i, &open_cols)).collect();
        // every column sees its rows in ascending order, as `scan_col` would
        // show them, but the matrix is walked along its rows
        let mut cols = vec![Least::EMPTY; n];
        for (i, c_row) in c.chunks_exact(n).enumerate() {
            for (l, &v) in cols.iter_mut().zip(c_row) {
                l.offer(i, v);
            }
        }
        // Penalties of the open lines, rows then columns. Costs are >= 0,
        // so every live penalty is too: CLOSED marks a closed line or one
        // with no open cell left.
        const CLOSED: f64 = -1.0;
        let live = |l: &Least| if l.k1 == usize::MAX { CLOSED } else { l.penalty() };
        let mut pen = Tournament::new(rows.iter().chain(&cols).map(live));
        // closing line `k` of an ascending open list
        let close = |open: &mut Vec<usize>, k: usize| {
            let at = open.binary_search(&k).expect("the line is open");
            open.remove(at);
        };

        while !open_rows.is_empty() && !open_cols.is_empty() {
            watch(&open_rows, &open_cols, &pen.vals[..m + n]);
            // the open row or column with the largest penalty, rows first
            let line = pen.top();
            if pen.vals[line] == CLOSED {
                break;
            }
            let (i, j) =
                if line < m { (line, rows[line].k1) } else { (cols[line - m].k1, line - m) };
            let q = s[i].min(d[j]);
            st.flow[i * n + j] = q;
            st.insert(i, j);
            s[i] -= q;
            d[j] -= q;
            // close exactly one of row/col per assignment (keeps the basis
            // at m + n - 1 cells); close the exhausted one, preferring the
            // row on ties unless it is the last row.
            if s[i] <= TOL && (d[j] > TOL || open_rows.len() > 1) {
                close(&mut open_rows, i);
                pen.set(i, CLOSED);
                for &j in &open_cols {
                    if cols[j].stands_on(i) {
                        cols[j] = scan_col(j, &open_rows);
                        pen.set(m + j, live(&cols[j]));
                    }
                }
            } else {
                close(&mut open_cols, j);
                pen.set(m + j, CLOSED);
                for &i in &open_rows {
                    if rows[i].stands_on(j) {
                        rows[i] = scan_row(i, &open_cols);
                        pen.set(i, live(&rows[i]));
                    }
                }
            }
        }
        st
    }

    /// Ensure the basis is a spanning tree with exactly `m + n - 1` cells,
    /// adding zero-flow cells that join distinct components if VAM left the
    /// basis short (it closes the last row with columns still open when
    /// rounding leaves residual demand).
    fn complete_basis(&mut self) {
        let (m, n) = (self.m, self.n);
        let mut count: usize = self.row_adj.iter().map(Vec::len).sum();
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
        for i in 0..m {
            for &j in &self.row_adj[i] {
                let (a, b) = (find(&mut parent, i), find(&mut parent, m + j));
                if a != b {
                    parent[a] = b;
                }
            }
        }
        // Add the row-major-first zero cells that each join two components.
        // One pass suffices: a cell passed over joins nothing, and merging
        // components later cannot change that.
        for i in 0..m {
            for j in 0..n {
                if !self.basic[i * n + j] {
                    let (a, b) = (find(&mut parent, i), find(&mut parent, m + j));
                    if a != b {
                        parent[a] = b;
                        self.insert(i, j);
                        count += 1;
                        if count == m + n - 1 {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// MODI (u-v) optimization from the current basis, for at most
    /// `max_pivots` pivots.
    ///
    /// The potentials are kept across pivots ([`Duals`]), the cycle walks
    /// the tree's parent pointers, every buffer is allocated once, up
    /// front, and pricing (step 1) visits only the cells whose reduced cost
    /// can differ from the last pivot's.
    ///
    /// **The potentials.** The whole tree is hung from row 0 once, up
    /// front. After that, a pivot cuts the leaving edge, and only the
    /// component cut off from the root can change duals; the cycle says
    /// which end of the entering cell lies in it. That component is re-hung below the
    /// entering cell ([`Duals::hang`]), and its potentials are recomputed
    /// down the same chain rule: O(component), not O(m + n), and bit-equal
    /// to a recompute from the root. A potential whose bits change is
    /// stamped with the pivot; a value that happens to come out equal is
    /// not.
    ///
    /// **The pricing cache.** `row_best[i]` holds the minimum reduced cost
    /// over row `i`'s nonbasic cells and the *first* column attaining it —
    /// what a left-to-right strict-`<` scan of the row finds. A row is
    /// scanned afresh iff its own `u_i` was stamped by the last pivot, its
    /// basic set changed (the entering or leaving cell's row), or the dual
    /// of the column its cached minimum stands on was stamped; every other
    /// row prices just the stamped columns and merges them into its cache
    /// (smaller value wins, equal value goes to the smaller column). The
    /// entering cell is then the first row, ascending, whose minimum beats
    /// the best so far — the cell the row-major scan of all `m · n` cells
    /// picks, ties included.
    ///
    /// `watch(state, u, v, row_best, entering)` is called after every
    /// pricing step; it is the tests' window onto the cache and a no-op
    /// otherwise.
    fn modi_optimize(
        &mut self,
        c: &[f64],
        max_pivots: usize,
        mut watch: impl FnMut(&State, &[f64], &[f64], &[(f64, usize)], Option<(usize, usize)>),
    ) -> Pivots {
        const TOL: f64 = 1e-7;
        let (m, n) = (self.m, self.n);
        // Every dual is stamped with pivot 0, so the first pricing step
        // scans every row.
        let mut duals = Duals::new(self, c);
        let mut row_best = vec![(f64::INFINITY, usize::MAX); m];
        // rows of the last pivot's entering and leaving cells: their basic
        // sets changed
        let mut swapped = (usize::MAX, usize::MAX);
        // cycle cells (as flow indices) in path order, and its far half
        let mut cycle: Vec<usize> = Vec::with_capacity(m + n);
        let mut tail: Vec<usize> = Vec::with_capacity(m + n);
        let mut pivots = Pivots { count: 0, degenerate: 0, cells_priced: 0, duals: None };
        loop {
            // 1. most negative reduced cost among nonbasic cells, row-major
            //    first: refresh the per-row minima, then take the first row
            //    that beats the best so far.
            let now = pivots.count;
            let (u, v) = duals.pot.split_at(m);
            let (u_at, v_at) = duals.at.split_at(m);
            let mut best = -TOL;
            let mut enter: Option<(usize, usize)> = None;
            for (i, cached) in row_best.iter_mut().enumerate() {
                let (c_row, basic_row) = (&c[i * n..(i + 1) * n], &self.basic[i * n..(i + 1) * n]);
                let (mut lo, mut at) = *cached;
                let stale = i == swapped.0
                    || i == swapped.1
                    || u_at[i] == now
                    || (at != usize::MAX && v_at[at] == now);
                if stale {
                    (lo, at) = price_row(c_row, basic_row, u[i], v);
                    pivots.cells_priced += n as u64;
                } else {
                    for &j in duals.moved.iter().filter(|&&j| !basic_row[j]) {
                        let rc = c_row[j] - u[i] - v[j];
                        if rc < lo || (rc == lo && j < at) {
                            (lo, at) = (rc, j);
                        }
                    }
                    pivots.cells_priced += duals.moved.len() as u64;
                }
                *cached = (lo, at);
                if lo < best {
                    best = lo;
                    enter = Some((i, at));
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
            //    they meet; `cycle` lists the path's cells from the ei end,
            //    the first `near` of them on ei's own climb.
            let (up, depth) = (&duals.up, &duals.depth);
            let cell = |x: usize, y: usize| if x < m { x * n + (y - m) } else { y * n + (x - m) };
            cycle.clear();
            let (mut a, mut b) = (ei, m + ej);
            while a != b {
                if depth[a] >= depth[b] {
                    cycle.push(cell(a, up[a]));
                    a = up[a];
                } else {
                    tail.push(cell(b, up[b]));
                    b = up[b];
                }
            }
            let near = cycle.len();
            cycle.extend(tail.drain(..).rev());

            // 3. the entering cell is '+', then the path alternates -, +,
            //    -, … from the ei end. theta = min flow on '-' cells (first
            //    wins); update and swap basis.
            let (mut theta, mut out) = (f64::INFINITY, 0);
            for t in (0..cycle.len()).step_by(2) {
                if self.flow[cycle[t]] < theta {
                    theta = self.flow[cycle[t]];
                    out = t;
                }
            }
            let leave = cycle[out];
            self.flow[ei * n + ej] += theta;
            for (t, &x) in cycle.iter().enumerate() {
                if t % 2 == 0 {
                    self.flow[x] -= theta;
                } else {
                    self.flow[x] += theta;
                }
            }
            self.insert(ei, ej);
            self.remove(leave / n, leave % n);
            self.flow[leave] = 0.0;
            swapped = (ei, leave / n);
            pivots.count += 1;
            if theta == 0.0 {
                pivots.degenerate += 1;
            }

            // 4. the leaving edge lay on the climb from the end of the
            //    entering cell that it cut off from the root: hang that
            //    side from the other end.
            let (inside, outside) = if out < near { (ei, m + ej) } else { (m + ej, ei) };
            duals.hang(self, c, inside, outside, pivots.count);
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
            let row: f64 = (0..3).map(|j| s.flow[i * 3 + j]).sum();
            assert_close(row, p.supply[i]);
        }
        for j in 0..3 {
            let col: f64 = (0..3).map(|i| s.flow[i * 3 + j]).sum();
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
        assert_close(s.flow[0], 25.0); // x11
        assert_close(s.flow[1], 5.0); // x12
        assert_close(s.flow[3], 20.0); // x22
    }

    #[test]
    fn excess_capacity_absorbed() {
        // single source, two sinks with plenty of room: all flow to cheap sink
        let p = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![5.0, 1.0]);
        let s = p.solve();
        assert_eq!(s.status, TransportStatus::Optimal);
        assert_close(s.objective, 10.0);
        assert_close(s.flow[1], 10.0);
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
        assert_close(s.flow[0], 0.0);
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
                let c = p.cost[i * n + j];
                if !c.is_finite() {
                    continue; // forbidden cells carry big-M internally
                }
                let reduced = c - u - v;
                assert!(reduced >= -1e-6, "dual infeasible at ({i},{j}): {reduced}");
                if s.flow[i * n + j] > 1e-9 {
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
            (0..n).map(|j| (0..p.supply.len()).map(|i| s.flow[i * n + j]).sum()).collect();
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
        let opts = SolveOptions { warm_start: cold.basis.clone() };
        let warm = p.solve_with_options(&obs, &opts);
        assert_eq!(warm.status, TransportStatus::Optimal);
        assert!(warm.warm_used, "own basis must be accepted");
        assert_eq!(warm.iterations, 0, "an optimal basis needs no pivots");
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(warm.flow, cold.flow, "same basis, same basic solution");
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
        let warm =
            q.solve_with_options(&ObsHandle::disabled(), &SolveOptions { warm_start: Some(basis) });
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
        let s = q.solve_with_options(&obs, &SolveOptions { warm_start: Some(basis) });
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
        let s = p.solve_with_options(&obs, &SolveOptions { warm_start: Some(cyclic) });
        assert_eq!(s.status, TransportStatus::Optimal, "fallback still solves");
        assert!(!s.warm_used);
        assert_eq!(obs.counter("lp.warm_rejects"), 1);
        // and the fallback answer matches the plain cold solve exactly
        assert_eq!(s.objective.to_bits(), p.solve().objective.to_bits());
    }

    #[test]
    fn infeasible_and_trivial_instances_tolerate_warm_options() {
        let basis = instance().solve().basis.unwrap();
        let infeasible = TransportProblem::new(vec![50.0], vec![10.0], vec![1.0]);
        let s = infeasible.solve_with_options(
            &ObsHandle::disabled(),
            &SolveOptions { warm_start: Some(basis.clone()) },
        );
        assert_eq!(s.status, TransportStatus::Infeasible);
        assert!(s.basis.is_none());
        let trivial = TransportProblem::new(vec![0.0], vec![10.0], vec![1.0]);
        let s = trivial
            .solve_with_options(&ObsHandle::disabled(), &SolveOptions { warm_start: Some(basis) });
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!(s.basis.is_none(), "trivial solves have no basis to export");
    }

    #[test]
    fn warm_start_respects_forbidden_routes() {
        // basis exported before a route became forbidden must not smuggle
        // flow onto it: the re-solve still detours (or reports infeasible)
        let p = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![2.0, 7.0]);
        let basis = p.solve().basis.unwrap();
        let q = TransportProblem::new(vec![10.0], vec![100.0, 100.0], vec![f64::INFINITY, 7.0]);
        let s =
            q.solve_with_options(&ObsHandle::disabled(), &SolveOptions { warm_start: Some(basis) });
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!((s.objective - 70.0).abs() < 1e-6);
        assert!(s.flow[0].abs() < 1e-9, "no flow on the forbidden route");
    }
}

/// The cached-penalty Vogel start against the method as first written:
/// every open line's two smallest open costs re-derived at every step.
#[cfg(test)]
mod vogel_tests {
    use super::pricing_tests::tie_instance;
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
    /// open costs from the matrix gives — and `-1` on every closed line.
    #[test]
    fn cached_penalties_pick_the_cells_a_rescan_picks() {
        let instances = (0..64).map(balanced_instance).chain((0..120).map(tie_instance));
        for (seed, (m, n, supply, demand, c)) in instances.enumerate() {
            let mut step = 0;
            let watch = |open_rows: &[usize], open_cols: &[usize], pen: &[f64]| {
                step += 1;
                assert!(open_rows.is_sorted() && open_cols.is_sorted(), "{seed}: step {step}");
                for line in 0..m + n {
                    let fresh = if line < m {
                        let open = open_cols.iter().map(|&j| (j, c[line * n + j]));
                        open_rows.contains(&line).then(|| Least::scan(open))
                    } else {
                        let open = open_rows.iter().map(|&i| (i, c[i * n + line - m]));
                        open_cols.contains(&(line - m)).then(|| Least::scan(open))
                    };
                    let fresh = fresh.filter(|l| l.k1 != usize::MAX).map_or(-1.0, |l| l.penalty());
                    assert_eq!(pen[line].to_bits(), fresh.to_bits(), "{seed}: step {step}, {line}");
                }
            };
            let st = State::vogel_initial(m, n, supply.clone(), demand.clone(), &c, watch);
            let (flow, mut cells) = vogel_rescanning(m, n, &supply, &demand, &c);
            cells.sort_unstable();
            assert_eq!(st.export_basis().cells, cells, "seed {seed}");
            let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&st.flow), bits(&flow), "seed {seed}");
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
            let mut t = Tournament::new(xs.iter().copied());
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
    use super::*;
    use dust_topology::SplitMix64;

    fn full_scan(st: &State, c: &[f64], u: &[f64], v: &[f64]) -> Option<(usize, usize)> {
        let mut best = -1e-7;
        let mut enter = None;
        let rows = c.chunks_exact(st.n).zip(st.basic.chunks_exact(st.n)).zip(u);
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
                for &j in &st.row_adj[x] {
                    if v[j].is_nan() {
                        v[j] = c[x * n + j] - u[x];
                        stack.push(m + j);
                    }
                }
            } else {
                let j = x - m;
                for &i in &st.col_adj[j] {
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

    #[test]
    fn cached_row_minima_match_a_fresh_scan_after_every_pivot() {
        let mut pivots = 0;
        for seed in 0..240 {
            let (m, n, supply, demand, c) = tie_instance(seed);
            // every other instance starts from the basis Vogel finds for the
            // mirrored costs: about as far from optimal as a basis can be
            let mut start = c.clone();
            if (seed / 5) % 2 == 1 {
                let max = c.iter().copied().fold(0.0, f64::max);
                start[..(m - 1) * n].iter_mut().for_each(|x| *x = max - *x);
            }
            let mut st = State::vogel_initial(m, n, supply, demand, &start, |_, _, _| ());
            st.complete_basis();
            let mut step = 0;
            let done = st.modi_optimize(&c, 50 * (m + n) * (m + n), |st, u, v, row_best, enter| {
                step += 1;
                // the re-hung potentials are the from-root ones, bit for bit
                let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let (root_u, root_v) = potentials_from_root(st, &c);
                assert_eq!(bits(u), bits(&root_u), "{seed}: step {step}, u");
                assert_eq!(bits(v), bits(&root_v), "{seed}: step {step}, v");
                for (i, &(lo, at)) in row_best.iter().enumerate() {
                    let row = i * n..(i + 1) * n;
                    let fresh = price_row(&c[row.clone()], &st.basic[row], u[i], v);
                    let cached = (lo.to_bits(), at);
                    assert_eq!(cached, (fresh.0.to_bits(), fresh.1), "{seed}: step {step}, {i}");
                }
                assert_eq!(enter, full_scan(st, &c, u, v), "{seed}: step {step}");
            });
            assert!(done.duals.is_some(), "seed {seed} ran into the pivot cap");
            pivots += done.count;
        }
        assert!(pivots > 5_000, "the instances must exercise the cache: {pivots} pivots");
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
            assert!(s.flow.is_empty() && s.objective.is_nan() && s.basis.is_none());
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
        let s = generic_instance().solve_with(&obs);
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
        let s = p.solve_with(&obs);
        assert_eq!(s.status, TransportStatus::Optimal);
        assert!(s.degenerate_pivots > 0 && s.degenerate_pivots <= s.iterations, "{s:?}");
        assert_eq!(obs.counter("lp.degenerate_pivots"), s.degenerate_pivots as u64);
    }
}
