//! Linear-program model builder.
//!
//! The one LP shape the reference simplex's callers build — Eq. 3 written
//! out as a transportation LP: non-negative variables with objective
//! coefficients, `=` rows and `≤` rows with a non-negative right-hand
//! side, minimised. Build it here, then hand it to
//! [`crate::simplex::solve`].

use std::fmt;

/// Handle to a decision variable in a [`Problem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub usize);

impl Var {
    /// Index into solution vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Eq => "=",
        })
    }
}

/// One linear constraint: `Σ coeff·var  cmp  rhs`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// Sparse left-hand side as `(variable, coefficient)` pairs.
    pub terms: Vec<(Var, f64)>,
    /// Comparison operator.
    pub cmp: Cmp,
    /// Right-hand-side constant, finite and non-negative.
    pub rhs: f64,
}

/// A linear program under construction: minimise `Σ cost·x` over `x ≥ 0`
/// subject to `≤` and `=` rows.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    /// Objective coefficient of each variable.
    pub(crate) costs: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Problem {
    /// An empty problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable `x ≥ 0` with objective coefficient `cost`.
    ///
    /// # Panics
    /// Panics if `cost` is NaN or infinite.
    pub fn add_nonneg(&mut self, cost: f64) -> Var {
        assert!(cost.is_finite(), "objective coefficient must be finite, got {cost}");
        self.costs.push(cost);
        Var(self.costs.len() - 1)
    }

    /// Add the constraint `Σ terms  cmp  rhs`. Duplicate variables in
    /// `terms` are summed.
    ///
    /// # Panics
    /// Panics on NaN/infinite coefficients, a negative or non-finite rhs,
    /// or out-of-range variables.
    pub fn add_constraint(&mut self, terms: &[(Var, f64)], cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite() && rhs >= 0.0, "constraint rhs must be finite and ≥ 0, got {rhs}");
        let mut merged: Vec<(Var, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.costs.len(), "variable {v:?} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite, got {c}");
            match merged.iter_mut().find(|(w, _)| *w == v) {
                Some((_, acc)) => *acc += c,
                None => merged.push((v, c)),
            }
        }
        self.constraints.push(Constraint { terms: merged, cmp, rhs });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.costs.iter().zip(x).map(|(c, &xi)| c * xi).sum()
    }

    /// Check primal feasibility of a point within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.costs.len() || x.iter().any(|&xi| xi < -tol) {
            return false;
        }
        self.constraints.iter().all(|c| {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v.0]).sum();
            match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        let y = p.add_nonneg(2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.constraints.len(), 1);
        assert_eq!(p.costs, [1.0, 2.0]);
    }

    #[test]
    fn duplicate_terms_merge() {
        let mut p = Problem::new();
        let x = p.add_nonneg(0.0);
        p.add_constraint(&[(x, 1.0), (x, 2.0)], Cmp::Eq, 3.0);
        assert_eq!(p.constraints[0].terms, vec![(x, 3.0)]);
    }

    #[test]
    fn feasibility_check() {
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        let y = p.add_nonneg(1.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        p.add_constraint(&[(x, 1.0), (y, -1.0)], Cmp::Eq, 1.0);
        assert!(p.is_feasible(&[2.0, 1.0], 1e-9));
        assert!(!p.is_feasible(&[0.5, 0.0], 1e-9)); // violates x - y = 1
        assert!(!p.is_feasible(&[3.0, 2.0], 1e-9)); // violates sum <= 4
        assert!(!p.is_feasible(&[-0.1, -1.1], 1e-9)); // violates x >= 0
        assert!(!p.is_feasible(&[1.0], 1e-9)); // wrong arity
    }

    #[test]
    fn objective_value_respects_costs() {
        let mut p = Problem::new();
        let _x = p.add_nonneg(2.0);
        let _y = p.add_nonneg(3.0);
        assert_eq!(p.objective_value(&[1.0, 2.0]), 8.0);
    }

    #[test]
    #[should_panic(expected = "rhs must be finite and ≥ 0")]
    fn negative_rhs_rejected() {
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        p.add_constraint(&[(x, -1.0)], Cmp::Le, -3.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_var_rejected() {
        let mut p = Problem::new();
        p.add_constraint(&[(Var(3), 1.0)], Cmp::Le, 1.0);
    }
}
