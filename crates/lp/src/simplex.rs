//! Two-phase dense primal simplex.
//!
//! The reference solver: no product path calls it. Tests solve the
//! explicit placement LP with it and compare the transportation solver's
//! answer against it, and ablation 2 times the two. The solver accepts
//! any [`Problem`] built by the modeling layer:
//!
//! 1. **Standard-form conversion** — variables are shifted to have zero
//!    lower bounds (free variables are split into positive/negative parts,
//!    finite upper bounds become explicit rows), rows are normalized to a
//!    non-negative right-hand side, and slack/surplus/artificial columns
//!    are appended.
//! 2. **Phase 1** minimizes the sum of artificial variables; a positive
//!    optimum proves infeasibility.
//! 3. **Phase 2** optimizes the real objective from the feasible basis.
//!
//! Pivoting uses Dantzig pricing with an automatic switch to Bland's rule
//! after a stall, which guarantees termination.

use crate::problem::{Cmp, Problem, Sense};

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
}

/// Solver result: status, point, objective, and iteration count.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Values of the *original* problem variables (empty unless
    /// [`Status::Optimal`]).
    pub x: Vec<f64>,
    /// Objective value in the original problem's sense (NaN unless optimal).
    pub objective: f64,
    /// Total simplex pivots across both phases.
    pub iterations: usize,
    /// Pivots spent in Phase 1 (driving out artificials).
    pub phase1_iterations: usize,
    /// Pivots spent in Phase 2 (optimizing the real objective).
    pub phase2_iterations: usize,
}

impl Solution {
    /// True when an optimal point was found.
    pub fn is_optimal(&self) -> bool {
        self.status == Status::Optimal
    }
}

/// Numerical tolerance for feasibility and pricing.
const TOL: f64 = 1e-9;
/// Hard cap on pivots per phase.
const MAX_ITERATIONS: usize = 200_000;
/// Pivot count after which Dantzig pricing yields to Bland's rule.
const BLAND_AFTER: usize = 5_000;

/// How each original variable maps into the standard-form column space.
enum VarMap {
    /// `x = lower + col`
    Shifted { col: usize, lower: f64 },
    /// `x = plus - minus` (free variable)
    Split { plus: usize, minus: usize },
}

/// Dense simplex tableau with an explicit basis.
struct Tableau {
    /// `rows × (cols + 1)`; the last column is the RHS.
    a: Vec<f64>,
    rows: usize,
    cols: usize,
    /// `basis[r]` = column basic in row `r`.
    basis: Vec<usize>,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.cols + 1) + c]
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.cols)
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.a[r * (self.cols + 1) + c] = v;
    }

    /// Gauss-Jordan pivot on (row, col).
    fn pivot(&mut self, pr: usize, pc: usize) {
        let w = self.cols + 1;
        let piv = self.at(pr, pc);
        debug_assert!(piv.abs() > 0.0, "zero pivot");
        let inv = 1.0 / piv;
        for c in 0..w {
            self.a[pr * w + c] *= inv;
        }
        // exact unit pivot column
        self.set(pr, pc, 1.0);
        for r in 0..self.rows {
            if r == pr {
                continue;
            }
            let f = self.at(r, pc);
            if f == 0.0 {
                continue;
            }
            for c in 0..w {
                let upd = self.a[r * w + c] - f * self.a[pr * w + c];
                self.a[r * w + c] = upd;
            }
            self.set(r, pc, 0.0);
        }
        self.basis[pr] = pc;
    }
}

/// Run primal simplex on `tab` minimizing `costs` over `allowed` columns.
/// Returns `(status, objective, iterations)`. `tab` must start from a basic
/// feasible solution (identity-like basis with non-negative RHS).
fn run_simplex(tab: &mut Tableau, costs: &[f64], allowed: &[bool]) -> (Status, f64, usize) {
    let w = tab.cols + 1;
    // Reduced-cost row z[c] = costs[c] - c_B^T B^{-1} A_c, maintained densely.
    let mut z = vec![0.0; w];
    z[..tab.cols].copy_from_slice(costs);
    // subtract contributions of the initial basis
    for r in 0..tab.rows {
        let cb = costs[tab.basis[r]];
        if cb != 0.0 {
            for (c, zc) in z.iter_mut().enumerate() {
                *zc -= cb * tab.a[r * w + c];
            }
        }
    }

    let mut iters = 0usize;
    loop {
        if iters >= MAX_ITERATIONS {
            return (Status::IterationLimit, f64::NAN, iters);
        }
        // Pricing: entering column with negative reduced cost.
        let use_bland = iters >= BLAND_AFTER;
        let mut enter: Option<usize> = None;
        let mut best = -TOL;
        for c in 0..tab.cols {
            if !allowed[c] {
                continue;
            }
            let rc = z[c];
            if use_bland {
                if rc < -TOL {
                    enter = Some(c);
                    break;
                }
            } else if rc < best {
                best = rc;
                enter = Some(c);
            }
        }
        let Some(pc) = enter else {
            // optimal: objective = -z[rhs]
            return (Status::Optimal, -z[tab.cols], iters);
        };

        // Ratio test: leaving row minimizing rhs / a[r][pc] over a > tol.
        let mut leave: Option<usize> = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..tab.rows {
            let a = tab.at(r, pc);
            if a > TOL {
                let ratio = tab.rhs(r) / a;
                let better = ratio < best_ratio - TOL
                    || (ratio < best_ratio + TOL
                        && leave.is_some_and(|lr| tab.basis[r] < tab.basis[lr]));
                if better {
                    best_ratio = ratio;
                    leave = Some(r);
                }
            }
        }
        let Some(pr) = leave else {
            return (Status::Unbounded, f64::NAN, iters);
        };

        tab.pivot(pr, pc);
        // update reduced-cost row with the pivoted row
        let f = z[pc];
        if f != 0.0 {
            for (c, zc) in z.iter_mut().enumerate() {
                *zc -= f * tab.a[pr * w + c];
            }
            z[pc] = 0.0;
        }
        iters += 1;
    }
}

/// Solve `p`: the one entry point.
pub fn solve(p: &Problem) -> Solution {
    // ---- 1. Standard-form conversion -------------------------------------
    let minimize = p.sense() == Sense::Minimize;
    let mut maps: Vec<VarMap> = Vec::with_capacity(p.num_vars());
    let mut costs: Vec<f64> = Vec::new(); // structural columns only, minimize sense
                                          // rows as (terms over columns, cmp, rhs)
    type RowSpec = (Vec<(usize, f64)>, Cmp, f64);
    let mut rows: Vec<RowSpec> = Vec::new();

    for i in 0..p.num_vars() {
        let def = *p.var_def(crate::problem::Var(i));
        let sign = if minimize { 1.0 } else { -1.0 };
        if def.lower.is_finite() {
            let col = costs.len();
            costs.push(sign * def.cost);
            maps.push(VarMap::Shifted { col, lower: def.lower });
            if def.upper.is_finite() {
                // col <= upper - lower
                rows.push((vec![(col, 1.0)], Cmp::Le, def.upper - def.lower));
            }
        } else {
            // free (or upper-bounded-only) variable: x = plus - minus
            let plus = costs.len();
            costs.push(sign * def.cost);
            let minus = costs.len();
            costs.push(-sign * def.cost);
            maps.push(VarMap::Split { plus, minus });
            if def.upper.is_finite() {
                rows.push((vec![(plus, 1.0), (minus, -1.0)], Cmp::Le, def.upper));
            }
        }
    }

    for c in &p.constraints {
        let mut terms: Vec<(usize, f64)> = Vec::with_capacity(c.terms.len() + 1);
        let mut rhs = c.rhs;
        for &(v, coef) in &c.terms {
            match &maps[v.0] {
                VarMap::Shifted { col, lower } => {
                    terms.push((*col, coef));
                    rhs -= coef * lower;
                }
                VarMap::Split { plus, minus } => {
                    terms.push((*plus, coef));
                    terms.push((*minus, -coef));
                }
            }
        }
        rows.push((terms, c.cmp, rhs));
    }

    let n_struct = costs.len();
    let m = rows.len();

    // ---- 2. Append slack/artificial columns, build the tableau -----------
    // Column layout: [structural | slacks/surplus | artificials]
    let mut n_slack = 0usize;
    for (_, cmp, _) in &rows {
        if *cmp != Cmp::Eq {
            n_slack += 1;
        }
    }
    let n_total_guess = n_struct + n_slack + m;
    let mut tab = Tableau {
        a: vec![0.0; m * (n_total_guess + 1)],
        rows: m,
        cols: n_total_guess,
        basis: vec![usize::MAX; m],
    };
    let w = n_total_guess + 1;

    let mut slack_cursor = n_struct;
    let mut art_cursor = n_struct + n_slack;
    let mut artificials: Vec<usize> = Vec::new();

    for (r, (terms, cmp, rhs)) in rows.iter().enumerate() {
        // normalize rhs >= 0
        let flip = *rhs < 0.0;
        let s = if flip { -1.0 } else { 1.0 };
        for &(c, coef) in terms {
            tab.a[r * w + c] += s * coef;
        }
        tab.a[r * w + n_total_guess] = s * rhs;
        let eff_cmp = match (cmp, flip) {
            (Cmp::Le, false) | (Cmp::Ge, true) => Cmp::Le,
            (Cmp::Ge, false) | (Cmp::Le, true) => Cmp::Ge,
            (Cmp::Eq, _) => Cmp::Eq,
        };
        match eff_cmp {
            Cmp::Le => {
                tab.a[r * w + slack_cursor] = 1.0;
                tab.basis[r] = slack_cursor;
                slack_cursor += 1;
            }
            Cmp::Ge => {
                tab.a[r * w + slack_cursor] = -1.0; // surplus
                slack_cursor += 1;
                tab.a[r * w + art_cursor] = 1.0;
                tab.basis[r] = art_cursor;
                artificials.push(art_cursor);
                art_cursor += 1;
            }
            Cmp::Eq => {
                tab.a[r * w + art_cursor] = 1.0;
                tab.basis[r] = art_cursor;
                artificials.push(art_cursor);
                art_cursor += 1;
            }
        }
    }

    let mut total_iters = 0usize;
    let mut phase1_iters = 0usize;

    // ---- 3. Phase 1 -------------------------------------------------------
    if !artificials.is_empty() {
        let mut p1_costs = vec![0.0; n_total_guess];
        for &a in &artificials {
            p1_costs[a] = 1.0;
        }
        let allowed = vec![true; n_total_guess];
        let (st, obj, it) = run_simplex(&mut tab, &p1_costs, &allowed);
        total_iters += it;
        phase1_iters = it;
        match st {
            Status::Optimal => {
                if obj > 1e-6 {
                    return Solution {
                        status: Status::Infeasible,
                        x: Vec::new(),
                        objective: f64::NAN,
                        iterations: total_iters,
                        phase1_iterations: phase1_iters,
                        phase2_iterations: 0,
                    };
                }
            }
            Status::IterationLimit => {
                return Solution {
                    status: Status::IterationLimit,
                    x: Vec::new(),
                    objective: f64::NAN,
                    iterations: total_iters,
                    phase1_iterations: phase1_iters,
                    phase2_iterations: 0,
                };
            }
            // Phase 1 objective is bounded below by 0, so Unbounded cannot
            // occur; treat defensively.
            _ => unreachable!("phase-1 objective cannot be unbounded"),
        }
        // Drive any artificial still basic (at zero level) out of the basis.
        let is_artificial = |c: usize| c >= n_struct + n_slack;
        for r in 0..m {
            if is_artificial(tab.basis[r]) {
                // find a non-artificial column with nonzero entry to pivot in
                let mut pivoted = false;
                for c in 0..n_struct + n_slack {
                    if tab.at(r, c).abs() > TOL {
                        tab.pivot(r, c);
                        pivoted = true;
                        break;
                    }
                }
                if !pivoted {
                    // redundant row: artificial stays basic at zero; it will
                    // simply never leave and its column is disallowed below.
                }
            }
        }
    }

    // ---- 4. Phase 2 -------------------------------------------------------
    let mut p2_costs = vec![0.0; n_total_guess];
    p2_costs[..n_struct].copy_from_slice(&costs);
    let mut allowed = vec![true; n_total_guess];
    allowed[n_struct + n_slack..].fill(false); // artificials may never re-enter
    let (st, obj, it) = run_simplex(&mut tab, &p2_costs, &allowed);
    total_iters += it;
    let phase2_iters = it;
    match st {
        Status::Optimal => {}
        other => {
            return Solution {
                status: other,
                x: Vec::new(),
                objective: f64::NAN,
                iterations: total_iters,
                phase1_iterations: phase1_iters,
                phase2_iterations: phase2_iters,
            };
        }
    }

    // ---- 5. Recover original variable values ------------------------------
    let mut col_val = vec![0.0; n_total_guess];
    for r in 0..m {
        let b = tab.basis[r];
        if b < n_total_guess {
            col_val[b] = tab.rhs(r);
        }
    }
    let mut x = vec![0.0; p.num_vars()];
    for (i, map) in maps.iter().enumerate() {
        x[i] = match map {
            VarMap::Shifted { col, lower } => lower + col_val[*col],
            VarMap::Split { plus, minus } => col_val[*plus] - col_val[*minus],
        };
    }
    // `obj` covers only the shifted columns; recompute from the recovered
    // point so constant offsets from variable lower bounds are included.
    let _ = obj;
    let objective = p.objective_value(&x);
    debug_assert!(p.is_feasible(&x, 1e-5), "simplex returned an infeasible point: {x:?}");
    Solution {
        status: Status::Optimal,
        x,
        objective,
        iterations: total_iters,
        phase1_iterations: phase1_iters,
        phase2_iterations: phase2_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem, Sense};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_2d() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  → (2, 6), obj 36
        let mut p = Problem::new();
        p.set_sense(Sense::Maximize);
        let x = p.add_nonneg(3.0);
        let y = p.add_nonneg(5.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn min_with_ge_constraints_uses_phase1() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  → x=7,y=3, obj 23
        let mut p = Problem::new();
        let x = p.add_nonneg(2.0);
        let y = p.add_nonneg(3.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 10.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        p.add_constraint(&[(y, 1.0)], Cmp::Ge, 3.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 23.0);
        assert_close(s.x[0], 7.0);
        assert_close(s.x[1], 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + 2y s.t. x + y = 5, x - y = 1 → x=3, y=2, obj 7
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        let y = p.add_nonneg(2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 5.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 2.0);
        assert_eq!(solve(&p).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new();
        p.set_sense(Sense::Maximize);
        let x = p.add_nonneg(1.0);
        let y = p.add_nonneg(1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        assert_eq!(solve(&p).status, Status::Unbounded);
    }

    #[test]
    fn bounded_variable_upper_limits() {
        // max x with 0 <= x <= 7 and no other constraints
        let mut p = Problem::new();
        p.set_sense(Sense::Maximize);
        let _x = p.add_var(0.0, 7.0, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn shifted_lower_bound() {
        // min x with x >= 3 (lower bound, not constraint)
        let mut p = Problem::new();
        let _x = p.add_var(3.0, f64::INFINITY, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 3.0);
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn negative_lower_bound() {
        // min x with -5 <= x <= 5 → x = -5
        let mut p = Problem::new();
        let _x = p.add_var(-5.0, 5.0, 1.0);
        let s = solve(&p);
        assert_close(s.x[0], -5.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn free_variable_split() {
        // min y s.t. y >= x - 3, y >= -x + 1, x free → min at intersection
        // x = 2, y = -1
        let mut p = Problem::new();
        let x = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 0.0);
        let y = p.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        p.add_constraint(&[(y, 1.0), (x, -1.0)], Cmp::Ge, -3.0);
        p.add_constraint(&[(y, 1.0), (x, 1.0)], Cmp::Ge, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -1.0);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // classic degeneracy: multiple constraints active at the optimum
        let mut p = Problem::new();
        p.set_sense(Sense::Maximize);
        let x = p.add_nonneg(10.0);
        let y = p.add_nonneg(-57.0);
        let z = p.add_nonneg(-9.0);
        let w = p.add_nonneg(-24.0);
        p.add_constraint(&[(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)], Cmp::Le, 0.0);
        p.add_constraint(&[(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)], Cmp::Le, 0.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 1.0);
    }

    #[test]
    fn transportation_shaped_lp() {
        // 2 sources (supplies 30, 20), 2 sinks (caps 25, 30)
        // costs [[1, 4], [3, 2]] → x11=25, x12=5, x22=20: 25+20+40 = 85
        let mut p = Problem::new();
        let x11 = p.add_nonneg(1.0);
        let x12 = p.add_nonneg(4.0);
        let x21 = p.add_nonneg(3.0);
        let x22 = p.add_nonneg(2.0);
        p.add_constraint(&[(x11, 1.0), (x12, 1.0)], Cmp::Eq, 30.0);
        p.add_constraint(&[(x21, 1.0), (x22, 1.0)], Cmp::Eq, 20.0);
        p.add_constraint(&[(x11, 1.0), (x21, 1.0)], Cmp::Le, 25.0);
        p.add_constraint(&[(x12, 1.0), (x22, 1.0)], Cmp::Le, 30.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 85.0);
    }

    #[test]
    fn empty_problem_is_trivially_optimal() {
        let p = Problem::new();
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn redundant_equality_rows_handled() {
        // x + y = 4 stated twice (redundant artificial row in phase 1)
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        let y = p.add_nonneg(1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Eq, 4.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, 4.0);
    }

    #[test]
    fn negative_rhs_rows_normalized() {
        // -x <= -3  ≡  x >= 3
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        p.add_constraint(&[(x, -1.0)], Cmp::Le, -3.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.x[0], 3.0);
    }

    #[test]
    fn fixed_variable() {
        let mut p = Problem::new();
        let x = p.add_var(2.5, 2.5, 1.0);
        let y = p.add_nonneg(1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 4.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.x[0], 2.5);
        assert_close(s.x[1], 1.5);
    }
}
