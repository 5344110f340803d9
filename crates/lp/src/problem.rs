//! Linear-program model builder.
//!
//! A thin, allocation-friendly modeling layer in the spirit of the Gurobi
//! Python API the paper used: create variables with bounds, add linear
//! constraints, set a linear objective, then hand the model to
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

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sense {
    /// Minimize the objective (the DUST placement problem minimizes β).
    #[default]
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Cmp::Le => "<=",
            Cmp::Ge => ">=",
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
    /// Right-hand-side constant.
    pub rhs: f64,
}

/// Variable metadata.
#[derive(Debug, Clone, Copy)]
pub struct VarDef {
    /// Lower bound (may be `f64::NEG_INFINITY`).
    pub lower: f64,
    /// Upper bound (may be `f64::INFINITY`).
    pub upper: f64,
    /// Objective coefficient.
    pub cost: f64,
}

/// A linear program under construction.
#[derive(Debug, Clone, Default)]
pub struct Problem {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) sense: Sense,
}

impl Problem {
    /// An empty minimization problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the optimization direction (default: minimize).
    pub fn set_sense(&mut self, sense: Sense) -> &mut Self {
        self.sense = sense;
        self
    }

    /// The optimization direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lower, upper]` and the given
    /// objective coefficient.
    ///
    /// # Panics
    /// Panics if `lower > upper` or either bound is NaN.
    pub fn add_var(&mut self, lower: f64, upper: f64, cost: f64) -> Var {
        assert!(!lower.is_nan() && !upper.is_nan(), "variable bounds must not be NaN");
        assert!(lower <= upper, "empty variable domain [{lower}, {upper}]");
        assert!(cost.is_finite(), "objective coefficient must be finite, got {cost}");
        self.vars.push(VarDef { lower, upper, cost });
        Var(self.vars.len() - 1)
    }

    /// Add a non-negative continuous variable (`[0, ∞)`).
    pub fn add_nonneg(&mut self, cost: f64) -> Var {
        self.add_var(0.0, f64::INFINITY, cost)
    }

    /// Add the constraint `Σ terms  cmp  rhs`. Duplicate variables in
    /// `terms` are summed.
    ///
    /// # Panics
    /// Panics on NaN/infinite coefficients or rhs, or out-of-range variables.
    pub fn add_constraint(&mut self, terms: &[(Var, f64)], cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite, got {rhs}");
        let mut merged: Vec<(Var, f64)> = Vec::with_capacity(terms.len());
        for &(v, c) in terms {
            assert!(v.0 < self.vars.len(), "variable {v:?} out of range");
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
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Variable metadata.
    pub fn var_def(&self, v: Var) -> &VarDef {
        &self.vars[v.0]
    }

    /// Evaluate the objective at a point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(d, &xi)| d.cost * xi).sum()
    }

    /// Check primal feasibility of a point within tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.vars.len() {
            return false;
        }
        for (d, &xi) in self.vars.iter().zip(x) {
            if xi < d.lower - tol || xi > d.upper + tol {
                return false;
            }
        }
        for c in &self.constraints {
            let lhs: f64 = c.terms.iter().map(|&(v, coef)| coef * x[v.0]).sum();
            let ok = match c.cmp {
                Cmp::Le => lhs <= c.rhs + tol,
                Cmp::Ge => lhs >= c.rhs - tol,
                Cmp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_count() {
        let mut p = Problem::new();
        let x = p.add_nonneg(1.0);
        let y = p.add_var(-1.0, 5.0, 2.0);
        p.add_constraint(&[(x, 1.0), (y, 1.0)], Cmp::Le, 4.0);
        assert_eq!(p.num_vars(), 2);
        assert_eq!(p.num_constraints(), 1);
        assert_eq!(p.var_def(y).upper, 5.0);
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
        p.add_constraint(&[(x, 1.0)], Cmp::Ge, 1.0);
        assert!(p.is_feasible(&[1.0, 3.0], 1e-9));
        assert!(!p.is_feasible(&[0.5, 0.0], 1e-9)); // violates x >= 1
        assert!(!p.is_feasible(&[3.0, 3.0], 1e-9)); // violates sum <= 4
        assert!(!p.is_feasible(&[-0.1, 0.0], 1e-9)); // violates x >= 0
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
    #[should_panic(expected = "empty variable domain")]
    fn inverted_bounds_rejected() {
        Problem::new().add_var(2.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn foreign_var_rejected() {
        let mut p = Problem::new();
        p.add_constraint(&[(Var(3), 1.0)], Cmp::Le, 1.0);
    }
}
