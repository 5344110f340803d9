//! Placement diffing for dynamic re-optimization rounds.
//!
//! DUST is "a dynamic traffic-aware solution that periodically monitors
//! the in-device computational load of all nodes and makes distributed
//! monitoring decisions accordingly" (§I). Re-running the optimizer every
//! Update-Interval produces a fresh [`crate::Placement`]; tearing
//! everything down and re-issuing it would thrash the network. This module
//! computes the *minimal action set* between two placements — which
//! transfers to start, stop, or resize — so that a caller need only signal
//! what actually changed. It is a library-only extension: neither
//! `dust-proto` nor `dust-sim` calls it (the Manager's own delta path
//! re-homes flows by re-priced `T_rmin`, not by diffing placements).

use crate::optimizer::Assignment;
use dust_topology::NodeId;
use std::collections::BTreeMap;

/// One reconciliation action between consecutive placement rounds.
#[derive(Debug, Clone, PartialEq)]
pub enum TransferAction {
    /// Begin a new hosting arrangement.
    Start {
        /// Busy node shedding load.
        from: NodeId,
        /// Destination absorbing it.
        to: NodeId,
        /// Capacity-percent to move.
        amount: f64,
    },
    /// End an existing arrangement entirely (the owner reclaims or the
    /// load moved elsewhere).
    Stop {
        /// Owner of the workload.
        from: NodeId,
        /// Destination currently hosting it.
        to: NodeId,
    },
    /// Resize an existing arrangement in place.
    Adjust {
        /// Owner of the workload.
        from: NodeId,
        /// Destination hosting it.
        to: NodeId,
        /// Previous amount.
        old_amount: f64,
        /// New amount.
        new_amount: f64,
    },
}

/// Amount below which two assignments count as equal (avoids churn from
/// floating-point noise between LP solves).
pub const AMOUNT_TOLERANCE: f64 = 1e-6;

/// Compute the minimal action set turning `prev` into `next`.
///
/// Assignments are keyed by `(from, to)`; duplicate pairs within one
/// placement are summed. Actions come out in deterministic order: stops
/// first (freeing capacity), then adjusts, then starts.
pub fn placement_diff(prev: &[Assignment], next: &[Assignment]) -> Vec<TransferAction> {
    let collapse = |list: &[Assignment]| -> BTreeMap<(NodeId, NodeId), f64> {
        let mut m = BTreeMap::new();
        for a in list {
            *m.entry((a.from, a.to)).or_insert(0.0) += a.amount;
        }
        m
    };
    let old = collapse(prev);
    let new = collapse(next);

    let mut stops = Vec::new();
    let mut adjusts = Vec::new();
    let mut starts = Vec::new();
    for (&(from, to), &old_amount) in &old {
        match new.get(&(from, to)) {
            None => stops.push(TransferAction::Stop { from, to }),
            Some(&new_amount) => {
                if (new_amount - old_amount).abs() > AMOUNT_TOLERANCE {
                    adjusts.push(TransferAction::Adjust { from, to, old_amount, new_amount });
                }
            }
        }
    }
    for (&(from, to), &amount) in &new {
        if !old.contains_key(&(from, to)) {
            starts.push(TransferAction::Start { from, to, amount });
        }
    }
    stops.into_iter().chain(adjusts).chain(starts).collect()
}

/// Apply an action list to a collapsed placement (for tests and for the
/// Manager's ledger): returns the resulting `(from, to) → amount` map.
pub fn apply_actions(
    prev: &[Assignment],
    actions: &[TransferAction],
) -> BTreeMap<(NodeId, NodeId), f64> {
    let mut m: BTreeMap<(NodeId, NodeId), f64> = BTreeMap::new();
    for a in prev {
        *m.entry((a.from, a.to)).or_insert(0.0) += a.amount;
    }
    for act in actions {
        match *act {
            TransferAction::Start { from, to, amount } => {
                m.insert((from, to), amount);
            }
            TransferAction::Stop { from, to } => {
                m.remove(&(from, to));
            }
            TransferAction::Adjust { from, to, new_amount, .. } => {
                m.insert((from, to), new_amount);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn asg(from: u32, to: u32, amount: f64) -> Assignment {
        Assignment { from: NodeId(from), to: NodeId(to), amount, t_rmin: 0.1, route: None }
    }

    #[test]
    fn identical_placements_need_nothing() {
        let p = vec![asg(0, 1, 5.0), asg(2, 3, 7.0)];
        assert!(placement_diff(&p, &p).is_empty());
    }

    #[test]
    fn tiny_float_noise_is_ignored() {
        let a = vec![asg(0, 1, 5.0)];
        let b = vec![asg(0, 1, 5.0 + 1e-9)];
        assert!(placement_diff(&a, &b).is_empty());
    }

    #[test]
    fn start_stop_adjust_detected() {
        let prev = vec![asg(0, 1, 5.0), asg(0, 2, 3.0)];
        let next = vec![asg(0, 1, 8.0), asg(4, 5, 2.0)];
        let d = placement_diff(&prev, &next);
        assert_eq!(
            d,
            vec![
                TransferAction::Stop { from: NodeId(0), to: NodeId(2) },
                TransferAction::Adjust {
                    from: NodeId(0),
                    to: NodeId(1),
                    old_amount: 5.0,
                    new_amount: 8.0
                },
                TransferAction::Start { from: NodeId(4), to: NodeId(5), amount: 2.0 },
            ]
        );
    }

    #[test]
    fn stops_ordered_before_starts() {
        // moving a workload to a different destination = stop + start
        let prev = vec![asg(0, 1, 5.0)];
        let next = vec![asg(0, 2, 5.0)];
        let d = placement_diff(&prev, &next);
        assert_eq!(d.len(), 2);
        assert!(matches!(d[0], TransferAction::Stop { .. }));
        assert!(matches!(d[1], TransferAction::Start { .. }));
    }

    #[test]
    fn duplicate_pairs_are_summed() {
        let prev = vec![asg(0, 1, 2.0), asg(0, 1, 3.0)];
        let next = vec![asg(0, 1, 5.0)];
        assert!(placement_diff(&prev, &next).is_empty());
    }

    #[test]
    fn applying_diff_reproduces_next() {
        let prev = vec![asg(0, 1, 5.0), asg(0, 2, 3.0), asg(7, 8, 1.0)];
        let next = vec![asg(0, 1, 4.0), asg(3, 2, 6.0), asg(7, 8, 1.0)];
        let actions = placement_diff(&prev, &next);
        let applied = apply_actions(&prev, &actions);
        let mut want = BTreeMap::new();
        for a in &next {
            *want.entry((a.from, a.to)).or_insert(0.0) += a.amount;
        }
        assert_eq!(applied, want);
    }

    #[test]
    fn from_empty_and_to_empty() {
        let p = vec![asg(0, 1, 5.0)];
        let up = placement_diff(&[], &p);
        assert_eq!(up, vec![TransferAction::Start { from: NodeId(0), to: NodeId(1), amount: 5.0 }]);
        let down = placement_diff(&p, &[]);
        assert_eq!(down, vec![TransferAction::Stop { from: NodeId(0), to: NodeId(1) }]);
        assert!(placement_diff(&[], &[]).is_empty());
    }
}
