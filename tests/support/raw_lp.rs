//! The reference oracle for placement tests: Eq. 3 rebuilt from first
//! principles as an explicit LP and solved by the dense simplex.
//!
//! Included by `#[path]` from the tests that compare a placement against
//! it, in the `dust` facade's and in `dust-core`'s test suites, so it names
//! the workspace crates directly.

use dust_core::{DustConfig, Nmdb};
use dust_lp::{solve, Problem, Status};
use dust_topology::{CostEngine, CostMatrix};

/// Rebuild a placement as an explicit LP and return its β with the cost
/// matrix it was built on: a variable for each pair within the hop bound,
/// none for the others. β is `Some(0)` with no matrix when no node is
/// Busy, `Some` for an optimal LP and `None` for an infeasible one.
///
/// # Panics
/// Panics when the simplex stops for any other reason (its pivot cap, or
/// an unbounded LP): an oracle that did not finish must never agree with
/// an infeasible placement.
pub fn beta_via_raw_lp(nmdb: &Nmdb, cfg: &DustConfig) -> (Option<f64>, Option<CostMatrix>) {
    let busy = nmdb.busy_nodes(cfg);
    let cands = nmdb.candidate_nodes(cfg);
    if busy.is_empty() {
        return (Some(0.0), None);
    }
    let data: Vec<f64> = busy.iter().map(|&b| nmdb.state(b).data_mb).collect();
    let costs =
        CostEngine::with_threads(1).build_matrix(&nmdb.graph, &busy, &cands, &data, cfg.max_hop);
    let supply: Vec<f64> = busy.iter().map(|&b| nmdb.cs(b, cfg)).collect();
    let capacity: Vec<f64> = cands.iter().map(|&o| nmdb.cd(o, cfg)).collect();
    let cells: Vec<f64> = (0..busy.len())
        .flat_map(|r| (0..cands.len()).map(move |c| (r, c)))
        .map(|(r, c)| costs.at(r, c))
        .collect();
    let s = solve(&Problem::transportation(&supply, &capacity, &cells));
    let beta = match s.status {
        Status::Optimal => Some(s.objective),
        Status::Infeasible => None,
        other => panic!("the reference simplex stopped without an answer: {other:?}"),
    };
    (beta, Some(costs))
}
