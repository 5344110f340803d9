//! From-scratch linear programming for the DUST reproduction.
//!
//! Replaces the Gurobi toolkit of the paper's evaluation (§V-B) with two
//! solvers:
//!
//! * [`transportation`] — a specialized Hitchcock-transportation solver
//!   (Vogel + MODI) matching the exact structure of the placement model
//!   (Eq. 3); every placement the product makes is solved here;
//! * [`simplex`] — a general two-phase dense primal simplex over models
//!   built with [`problem::Problem`], kept as the reference that tests
//!   check the transportation solver against.
//!
//! The placement's `x_ij` are continuous (Eq. 3), so there is no integer
//! layer.
//!
//! # Example
//!
//! ```
//! use dust_lp::{Problem, Cmp, Sense, solve};
//!
//! // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18
//! let mut p = Problem::new();
//! p.set_sense(Sense::Maximize);
//! let x = p.add_nonneg(3.0);
//! let y = p.add_nonneg(5.0);
//! p.add_constraint(&[(x, 1.0)], Cmp::Le, 4.0);
//! p.add_constraint(&[(y, 2.0)], Cmp::Le, 12.0);
//! p.add_constraint(&[(x, 3.0), (y, 2.0)], Cmp::Le, 18.0);
//! let s = solve(&p);
//! assert!((s.objective - 36.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod problem;
pub mod simplex;
pub mod transportation;

pub use problem::{Cmp, Constraint, Problem, Sense, Var, VarDef};
pub use simplex::{solve, Solution, Status};
pub use transportation::{
    Basis, SolveOptions, TransportProblem, TransportSolution, TransportStatus,
};
