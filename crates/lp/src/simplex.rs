//! Two-phase dense primal simplex.
//!
//! The reference solver: no product path calls it. Tests solve the
//! explicit placement LP with it and compare the transportation solver's
//! answer against it, and ablation 2 times the two. It takes the one
//! shape [`Problem`] builds — non-negative variables, `≤` and `=` rows
//! with a non-negative right-hand side, minimised:
//!
//! 1. **Standard form** — the structural columns, then one slack per `≤`
//!    row and one artificial per `=` row, each block in row order; every
//!    row starts with its slack or artificial basic.
//! 2. **Phase 1** minimizes the sum of artificial variables; a positive
//!    optimum proves infeasibility.
//! 3. **Phase 2** minimizes the real objective from the feasible basis.
//!
//! Pivoting uses Dantzig pricing with an automatic switch to Bland's rule
//! after a stall, which guarantees termination.

use crate::problem::{Cmp, Problem};

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective decreases without bound (some cost is negative).
    Unbounded,
    /// The iteration limit was hit before convergence.
    IterationLimit,
}

/// Solver result: status, point, objective, and iteration count.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Why the solver stopped.
    pub status: Status,
    /// Values of the problem's variables (empty unless
    /// [`Status::Optimal`]).
    pub x: Vec<f64>,
    /// Objective value at `x` (NaN unless optimal).
    pub objective: f64,
    /// Total simplex pivots across both phases.
    pub iterations: usize,
}

impl Solution {
    /// A stop without a point.
    fn stopped(status: Status, iterations: usize) -> Self {
        Solution { status, x: Vec::new(), objective: f64::NAN, iterations }
    }
}

/// Numerical tolerance for feasibility and pricing.
const TOL: f64 = 1e-9;
/// Hard cap on pivots per phase.
const MAX_ITERATIONS: usize = 200_000;
/// Pivot count after which Dantzig pricing yields to Bland's rule.
const BLAND_AFTER: usize = 5_000;

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
    // ---- 1. Standard form -------------------------------------------------
    // Column layout: [structural | a slack per ≤ row | an artificial per = row]
    let n_struct = p.num_vars();
    let m = p.constraints.len();
    let n_slack = p.constraints.iter().filter(|c| c.cmp == Cmp::Le).count();
    let cols = n_struct + m;
    let w = cols + 1;
    let mut tab = Tableau { a: vec![0.0; m * w], rows: m, cols, basis: vec![0; m] };
    let (mut slack, mut artificial) = (n_struct, n_struct + n_slack);
    for (r, c) in p.constraints.iter().enumerate() {
        for &(v, coef) in &c.terms {
            tab.a[r * w + v.index()] += coef;
        }
        tab.a[r * w + cols] = c.rhs;
        let next = match c.cmp {
            Cmp::Le => &mut slack,
            Cmp::Eq => &mut artificial,
        };
        tab.a[r * w + *next] = 1.0;
        tab.basis[r] = *next;
        *next += 1;
    }
    let is_artificial = |c: usize| c >= n_struct + n_slack;

    // ---- 2. Phase 1 -------------------------------------------------------
    let mut iterations = 0;
    if n_slack < m {
        let p1_costs: Vec<f64> =
            (0..cols).map(|c| if is_artificial(c) { 1.0 } else { 0.0 }).collect();
        let (st, obj, it) = run_simplex(&mut tab, &p1_costs, &vec![true; cols]);
        iterations += it;
        match st {
            Status::Optimal if obj > 1e-6 => {
                return Solution::stopped(Status::Infeasible, iterations)
            }
            Status::Optimal => {}
            Status::IterationLimit => return Solution::stopped(st, iterations),
            // the phase-1 objective is bounded below by 0
            _ => unreachable!("phase-1 objective cannot be unbounded"),
        }
        // Drive any artificial still basic (at zero level) out of the
        // basis. A row with no other nonzero is redundant: its artificial
        // stays basic at zero and, disallowed below, never leaves.
        for r in 0..m {
            if is_artificial(tab.basis[r]) {
                if let Some(c) = (0..n_struct + n_slack).find(|&c| tab.at(r, c).abs() > TOL) {
                    tab.pivot(r, c);
                }
            }
        }
    }

    // ---- 3. Phase 2 -------------------------------------------------------
    let mut p2_costs = vec![0.0; cols];
    p2_costs[..n_struct].copy_from_slice(&p.costs);
    let allowed: Vec<bool> = (0..cols).map(|c| !is_artificial(c)).collect();
    let (st, _, it) = run_simplex(&mut tab, &p2_costs, &allowed);
    iterations += it;
    if st != Status::Optimal {
        return Solution::stopped(st, iterations);
    }

    // ---- 4. The point and its objective -----------------------------------
    // `0.0 + level` reports a `-0.0` level as `0.0`; the objective is
    // summed from the point in variable order.
    let mut x = vec![0.0; n_struct];
    for r in 0..m {
        if tab.basis[r] < n_struct {
            x[tab.basis[r]] = 0.0 + tab.rhs(r);
        }
    }
    let objective = p.objective_value(&x);
    debug_assert!(p.is_feasible(&x, 1e-5), "simplex returned an infeasible point: {x:?}");
    Solution { status: Status::Optimal, x, objective, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Cmp, Problem};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max_2d() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 → (2, 6), obj 36,
        // as min −3x − 5y
        let mut p = Problem::new();
        let x = p.add_nonneg(-3.0);
        let y = p.add_nonneg(-5.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
        p.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
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
        p.add_constraint(&[(x, 1.0)], Cmp::Eq, 2.0);
        assert_eq!(solve(&p).status, Status::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new();
        let x = p.add_nonneg(-1.0);
        let y = p.add_nonneg(-1.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Le, 1.0);
        assert_eq!(solve(&p).status, Status::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // classic degeneracy (Beale): multiple constraints active at the
        // optimum
        let mut p = Problem::new();
        let x = p.add_nonneg(-10.0);
        let y = p.add_nonneg(57.0);
        let z = p.add_nonneg(9.0);
        let w = p.add_nonneg(24.0);
        p.add_constraint(&[(x, 0.5), (y, -5.5), (z, -2.5), (w, 9.0)], Cmp::Le, 0.0);
        p.add_constraint(&[(x, 0.5), (y, -1.5), (z, -0.5), (w, 1.0)], Cmp::Le, 0.0);
        p.add_constraint(&[(x, 1.0)], Cmp::Le, 1.0);
        let s = solve(&p);
        assert_eq!(s.status, Status::Optimal);
        assert_close(s.objective, -1.0);
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
}
