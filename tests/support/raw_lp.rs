//! The reference oracle for placement tests: Eq. 3 rebuilt from first
//! principles as an explicit LP and solved by the dense simplex.
//!
//! Included by `#[path]` from the tests that compare a placement against
//! it, in the `dust` facade's and in `dust-core`'s test suites, so it names
//! the workspace crates directly.

use dust_core::{DustConfig, Nmdb};
use dust_lp::{solve, Cmp, Problem, Status};
use dust_topology::CostMatrix;

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
    let costs = CostMatrix::build(&nmdb.graph, &busy, &cands, &data, cfg.max_hop);
    let mut p = Problem::new();
    let mut vars = Vec::new();
    for r in 0..busy.len() {
        for c in 0..cands.len() {
            let t = costs.at(r, c);
            vars.push(t.is_finite().then(|| p.add_nonneg(t)));
        }
    }
    for (r, &b) in busy.iter().enumerate() {
        let terms: Vec<_> =
            (0..cands.len()).filter_map(|c| vars[r * cands.len() + c].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Eq, nmdb.cs(b, cfg));
    }
    for (c, &o) in cands.iter().enumerate() {
        let terms: Vec<_> =
            (0..busy.len()).filter_map(|r| vars[r * cands.len() + c].map(|v| (v, 1.0))).collect();
        p.add_constraint(&terms, Cmp::Le, nmdb.cd(o, cfg));
    }
    let s = solve(&p);
    let beta = match s.status {
        Status::Optimal => Some(s.objective),
        Status::Infeasible => None,
        other => panic!("the reference simplex stopped without an answer: {other:?}"),
    };
    (beta, Some(costs))
}
