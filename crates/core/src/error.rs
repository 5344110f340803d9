//! Typed errors for the placement engine.
//!
//! The original entry points signalled failure three different ways:
//! panics on bad configuration, status enums on infeasible solves, and
//! bare `Option`s on missing routes. [`DustError`] unifies them so
//! callers — `dustctl` in particular — can branch on the cause and exit
//! with a meaningful code instead of unwinding.

use std::fmt;

/// Why a placement request could not produce a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DustError {
    /// Constraints 3a/3b cannot all hold: busy excess exceeds what
    /// reachable candidates can absorb (the "Infeasible Optimization"
    /// outcome counted by Fig. 7).
    Infeasible,
    /// Busy nodes and candidates both exist, but no (busy, candidate)
    /// pair is connected within the configured hop bound.
    NoPathWithinHops,
    /// The transportation solver spent its whole pivot budget without
    /// proving optimality (degenerate cycling is the only known way
    /// there). The flows it stopped on are withheld rather than passed
    /// off as a plan.
    IterationLimit {
        /// MODI pivots performed before giving up.
        pivots: usize,
    },
    /// The [`DustConfig`](crate::DustConfig) violates its invariants; the
    /// message says which one.
    BadConfig(String),
}

impl DustError {
    /// A stable one-word label for the variant, for metric names and
    /// trace events (`proto.solve_errors.<kind>`).
    pub fn kind(&self) -> &'static str {
        match self {
            DustError::Infeasible => "infeasible",
            DustError::NoPathWithinHops => "no_path_within_hops",
            DustError::IterationLimit { .. } => "iteration_limit",
            DustError::BadConfig(_) => "bad_config",
        }
    }
}

impl fmt::Display for DustError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DustError::Infeasible => {
                write!(f, "infeasible: busy excess exceeds reachable candidate capacity")
            }
            DustError::NoPathWithinHops => {
                write!(f, "no route between any busy node and any candidate within the hop bound")
            }
            DustError::IterationLimit { pivots } => {
                write!(f, "the placement LP hit its pivot cap after {pivots} pivots, not optimal")
            }
            DustError::BadConfig(msg) => write!(f, "invalid DustConfig: {msg}"),
        }
    }
}

impl std::error::Error for DustError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_labels() {
        assert_eq!(DustError::IterationLimit { pivots: 7 }.kind(), "iteration_limit");
        assert_eq!(DustError::BadConfig("x".to_string()).kind(), "bad_config");
        assert_eq!(DustError::Infeasible.kind(), "infeasible");
        assert_eq!(DustError::NoPathWithinHops.kind(), "no_path_within_hops");
    }

    #[test]
    fn display_is_informative() {
        assert!(DustError::Infeasible.to_string().contains("infeasible"));
        assert!(DustError::NoPathWithinHops.to_string().contains("hop bound"));
        assert!(DustError::BadConfig("x_min out of range".into())
            .to_string()
            .contains("x_min out of range"));
        assert!(DustError::IterationLimit { pivots: 7 }
            .to_string()
            .contains("after 7 pivots, not optimal"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn std::error::Error> = Box::new(DustError::Infeasible);
        assert!(!e.to_string().is_empty());
    }
}
