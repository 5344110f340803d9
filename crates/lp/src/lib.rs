//! From-scratch linear programming for the DUST reproduction.
//!
//! Replaces the Gurobi toolkit of the paper's evaluation (§V-B) with two
//! solvers:
//!
//! * [`transportation`] — a specialized Hitchcock-transportation solver
//!   (Vogel + MODI) matching the exact structure of the placement model
//!   (Eq. 3); every placement the product makes is solved here;
//! * [`simplex`] — a two-phase dense primal simplex over the one LP shape
//!   [`problem::Problem`] builds (non-negative variables, `=` and `≤` rows,
//!   minimised: Eq. 3 written out), kept as the reference that tests
//!   check the transportation solver against.
//!
//! The placement's `x_ij` are continuous (Eq. 3), so there is no integer
//! layer.
//!
//! # Example
//!
//! ```
//! use dust_lp::{Problem, Cmp, Status, solve};
//!
//! // ship 30 and 20 units to two sinks of room 25 and 30 at costs
//! // [[1, 4], [3, 2]]: x11 = 25, x12 = 5, x22 = 20, cost 85
//! let mut p = Problem::new();
//! let x11 = p.add_nonneg(1.0);
//! let x12 = p.add_nonneg(4.0);
//! let x21 = p.add_nonneg(3.0);
//! let x22 = p.add_nonneg(2.0);
//! p.add_constraint(&[(x11, 1.0), (x12, 1.0)], Cmp::Eq, 30.0);
//! p.add_constraint(&[(x21, 1.0), (x22, 1.0)], Cmp::Eq, 20.0);
//! p.add_constraint(&[(x11, 1.0), (x21, 1.0)], Cmp::Le, 25.0);
//! p.add_constraint(&[(x12, 1.0), (x22, 1.0)], Cmp::Le, 30.0);
//! let s = solve(&p);
//! assert_eq!(s.status, Status::Optimal);
//! assert!((s.objective - 85.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod problem;
pub mod simplex;
pub mod transportation;

pub use problem::{Cmp, Constraint, Problem, Var};
pub use simplex::{solve, Solution, Status};
pub use transportation::{Basis, TransportProblem, TransportSolution, TransportStatus};
