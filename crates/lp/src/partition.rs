//! POP-style partitioned transportation solve.
//!
//! Large placement instances are *granular*: thousands of small, largely
//! interchangeable allocations. POP (Narayanan et al., SOSP '21) exploits
//! that by splitting such a problem into `k` random subproblems, solving
//! them independently, and recombining. The union of subproblem optima is
//! feasible for the whole problem and empirically within a few percent of
//! its optimum, while the `k` solves shrink and can run in parallel.
//!
//! Three ingredients make that work on transportation instances whose
//! costs encode *distance* (not fungible resources):
//!
//! 1. **Random row deal.** Supply rows are dealt into `k` seeded random
//!    groups. Dealing the columns disjointly too (the naive `k²`-shrink
//!    split) was measured first and rejected: on fat-tree instances it
//!    denies each busy node `(k-1)/k` of its cheap nearby capacity and
//!    the objective gap lands at 35–65 % (see EXPERIMENTS.md).
//! 2. **Sliced columns with slack, pruned per group.** Every subproblem
//!    sees every column at `min(1, SLACK · share)` of its capacity,
//!    where `share` is the group's fraction of total supply — the slack
//!    lets a group claim more than its fair share of the columns it is
//!    actually close to. For speed, each group then keeps only its
//!    cheapest columns until their sliced capacity covers
//!    `PRUNE_COVER ×` its supply (plus each row's few cheapest columns
//!    as a reachability floor): the subproblem shrinks in *both*
//!    dimensions without giving up locality.
//! 3. **Eviction repair.** Slack means recombined columns can
//!    oversubscribe. A deterministic repair pass evicts the most
//!    expensive flows from each oversubscribed column and re-places the
//!    evicted supply with one small exact solve against residual
//!    capacity.
//!
//! A group carrying `share` of total supply keeps at least `share` of
//! total capacity, so every subproblem of a feasible instance is itself
//! feasible — the whole-problem MODI fallback only runs when the joint
//! problem was infeasible to begin with. The fallback stays wired in
//! regardless, so callers never lose answers to partitioning.
//!
//! [`solve_partitioned_with`] is the sequential entry point;
//! [`solve_partitioned_via`] accepts a caller-supplied batch solver so the
//! subproblems can run on an existing thread pool (dust-core drives it from
//! the `CostEngine` scoped-thread pool).

use crate::transportation::{
    Basis, SolveOptions, TransportProblem, TransportSolution, TransportStatus,
};
use dust_obs::ObsHandle;
use std::num::NonZeroUsize;

/// How much more than its fair share of any column a group may claim.
/// 1.0 disables slack (and the repair pass with it); higher values trade
/// repair work for a smaller objective gap.
const SLACK: f64 = 2.0;

/// Column pruning keeps a group's cheapest columns until their sliced
/// capacity covers this multiple of the group's supply.
const PRUNE_COVER: f64 = 2.0;

/// Reachability floor: every row keeps at least this many of its own
/// cheapest finite-cost columns, so pruning by group-wide cheapness can
/// never strand a row whose neighborhood differs from the group's.
const ROW_FLOOR: usize = 4;

/// Feasibility slop, matching the transportation solver's tolerance.
const TOL: f64 = 1e-9;

/// SplitMix64 step (Steele et al.) — the same generator dust-topology uses,
/// inlined here because dust-lp deliberately has no topology dependency.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle of `0..len`, dealt round-robin into
/// `parts` groups: balanced sizes (they differ by at most one), random
/// membership.
fn deal(len: usize, parts: usize, rng: &mut u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        idx.swap(i, j);
    }
    let mut assignment = vec![0usize; len];
    for (pos, &i) in idx.iter().enumerate() {
        assignment[i] = pos % parts;
    }
    assignment
}

/// A seeded random split of an `m × n` transportation instance into
/// `parts` row groups; every subproblem prices a sliced, pruned view of
/// the columns.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    parts: usize,
    row_part: Vec<usize>,
}

impl PartitionPlan {
    /// Split `rows` supply rows into `min(parts, max(rows, 1))` seeded
    /// random groups — more groups than rows would only mint empty
    /// subproblems, so the effective count is capped.
    pub fn new(rows: usize, parts: NonZeroUsize, seed: u64) -> Self {
        let parts = parts.get().min(rows.max(1));
        let mut rng = seed;
        PartitionPlan { parts, row_part: deal(rows, parts, &mut rng) }
    }

    /// Effective number of subproblems (≤ the requested count).
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// Group assignment per row.
    pub fn row_part(&self) -> &[usize] {
        &self.row_part
    }

    /// Materialize subproblem `part` of `p`: its group's rows against the
    /// group's cheapest columns, each at `min(1, SLACK · share)` of its
    /// capacity.
    pub fn subproblem(&self, p: &TransportProblem, part: usize) -> SubProblem {
        let n = p.capacity.len();
        let rows: Vec<usize> = (0..p.supply.len()).filter(|&i| self.row_part[i] == part).collect();
        let group_supply: f64 = rows.iter().map(|&i| p.supply[i]).sum();
        let total_supply: f64 = p.supply.iter().sum();
        // a zero-supply group needs no columns at all; it solves
        // trivially to zero flow
        let share = if total_supply > 0.0 { group_supply / total_supply } else { 0.0 };
        let slice = (SLACK * share).min(1.0);
        let cols = if group_supply > 0.0 {
            prune_columns(p, &rows, slice, PRUNE_COVER * group_supply)
        } else {
            Vec::new()
        };
        let supply = rows.iter().map(|&i| p.supply[i]).collect();
        let capacity = cols.iter().map(|&j| p.capacity[j] * slice).collect();
        let mut cost = Vec::with_capacity(rows.len() * cols.len());
        for &i in &rows {
            for &j in &cols {
                cost.push(p.cost[i * n + j]);
            }
        }
        SubProblem {
            problem: TransportProblem { supply, capacity, cost },
            rows,
            cols,
            share,
            warm: None,
        }
    }

    /// All subproblems of `p`, in group order.
    pub fn subproblems(&self, p: &TransportProblem) -> Vec<SubProblem> {
        (0..self.parts).map(|part| self.subproblem(p, part)).collect()
    }
}

/// Keep the group's cheapest columns (by the cheapest row able to use
/// each) until their sliced capacity reaches `target`, plus each row's
/// [`ROW_FLOOR`] cheapest finite columns. Returns original column
/// indices, ascending.
fn prune_columns(p: &TransportProblem, rows: &[usize], slice: f64, target: f64) -> Vec<usize> {
    let n = p.capacity.len();
    let mut score = vec![f64::INFINITY; n];
    for &i in rows {
        for (j, s) in score.iter_mut().enumerate() {
            let c = p.cost[i * n + j];
            if c < *s {
                *s = c;
            }
        }
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| score[a].total_cmp(&score[b]).then(a.cmp(&b)));
    let mut keep = vec![false; n];
    let mut kept_cap = 0.0;
    for &j in &order {
        if kept_cap + TOL >= target {
            break;
        }
        keep[j] = true;
        kept_cap += p.capacity[j] * slice;
    }
    // reachability floor: a row whose own neighborhood is not the
    // group's must still see its cheapest columns
    for &i in rows {
        let mut best: Vec<usize> = Vec::with_capacity(ROW_FLOOR);
        for j in 0..n {
            let c = p.cost[i * n + j];
            if !c.is_finite() {
                continue;
            }
            if best.len() < ROW_FLOOR {
                best.push(j);
                best.sort_by(|&a, &b| {
                    p.cost[i * n + a].total_cmp(&p.cost[i * n + b]).then(a.cmp(&b))
                });
            } else if c < p.cost[i * n + best[ROW_FLOOR - 1]] {
                best[ROW_FLOOR - 1] = j;
                best.sort_by(|&a, &b| {
                    p.cost[i * n + a].total_cmp(&p.cost[i * n + b]).then(a.cmp(&b))
                });
            }
        }
        for j in best {
            keep[j] = true;
        }
    }
    (0..n).filter(|&j| keep[j]).collect()
}

/// One slice of a partitioned instance: the reduced problem plus the
/// original row/column indices its solution scatters back into.
#[derive(Debug, Clone)]
pub struct SubProblem {
    /// The reduced transportation instance.
    pub problem: TransportProblem,
    /// Original row index of each subproblem row.
    pub rows: Vec<usize>,
    /// Original column index of each kept (pruned-in) column.
    pub cols: Vec<usize>,
    /// This group's share of total supply (its capacity scaling factor,
    /// before slack).
    pub share: f64,
    /// Warm-start basis for this subproblem, carried over from the same
    /// group's previous-round solve (see [`PartitionWarm`]). Batch solvers
    /// should pass it through [`SolveOptions::warm_start`]; a basis that no
    /// longer fits the (re-pruned) subproblem is rejected cold by the
    /// solver itself.
    pub warm: Option<Basis>,
}

/// Per-group warm-start bases carried between successive partitioned
/// solves of drifting instances.
///
/// The deal is a pure function of `(rows, parts, seed)`, so as long as the
/// instance keeps its row count and the caller keeps the seed, group `g`
/// sees the same supply rows every round and its previous basis usually
/// still spans the new subproblem. Column pruning is cost-dependent, so a
/// group whose kept-column set shifted simply rejects its stale basis and
/// solves cold — correctness never depends on acceptance.
#[derive(Debug, Clone, Default)]
pub struct PartitionWarm {
    /// One basis slot per subproblem, in group order (a single slot when
    /// the whole-problem path ran). `None` slots solve cold.
    pub bases: Vec<Option<Basis>>,
}

impl PartitionWarm {
    /// True when no basis is carried at all.
    pub fn is_empty(&self) -> bool {
        self.bases.iter().all(Option::is_none)
    }
}

/// Result of a partitioned solve.
#[derive(Debug, Clone)]
pub struct PartitionOutcome {
    /// Full-size solution (flows are `m × n` row-major, like a
    /// whole-problem solve). Row potentials come from each row's
    /// subproblem; column potentials are the share-weighted average of
    /// the subproblem duals, so treat them as approximate shadow prices.
    pub solution: TransportSolution,
    /// Effective subproblem count actually used (1 means the whole-problem
    /// path ran — either `parts == 1` or a single supply row).
    pub parts: usize,
    /// True when an infeasible subproblem forced the exact whole-problem
    /// fallback (with supply-proportional capacity shares this only
    /// happens when the joint problem is itself infeasible).
    pub fell_back: bool,
    /// Per-group bases from this round, ready to feed the next round's
    /// [`solve_partitioned_via_warm`] call as its `warm` argument.
    pub warm: PartitionWarm,
}

/// Partitioned solve with a caller-supplied batch solver: `solve_batch`
/// receives every subproblem and returns one solution per subproblem, in
/// order. This is the hook dust-core uses to fan the solves out on the
/// `CostEngine` scoped-thread pool; the recombination and repair logic
/// stay here.
///
/// `parts == 1` (or an instance too small to split) delegates to the
/// whole-problem solver and is bit-identical to [`TransportProblem::solve_with`].
/// Any subproblem that comes back without an optimal answer (infeasible, or
/// stopped at its pivot cap) triggers the exact whole-problem fallback.
pub fn solve_partitioned_via<F>(
    p: &TransportProblem,
    parts: NonZeroUsize,
    seed: u64,
    obs: &ObsHandle,
    solve_batch: F,
) -> PartitionOutcome
where
    F: FnOnce(&[SubProblem]) -> Vec<TransportSolution>,
{
    solve_partitioned_via_warm(p, parts, seed, obs, None, solve_batch)
}

/// [`solve_partitioned_via`] with per-group warm-start bases from a
/// previous round. Each subproblem's slot from `warm` (matched by group
/// order; ignored wholesale if the group count changed) is attached as
/// [`SubProblem::warm`] for the batch solver to feed through
/// [`SolveOptions::warm_start`]. The returned [`PartitionOutcome::warm`]
/// carries this round's bases for the next call.
///
/// Subproblem solves run under the batch solver's (typically disabled)
/// obs handle, so the warm/cold pivot split (`lp.warm_solves`,
/// `lp.warm_pivots`, `lp.warm_rejects`, `lp.cold_pivots`,
/// `lp.pivots_saved`) is aggregated here from the returned solutions.
pub fn solve_partitioned_via_warm<F>(
    p: &TransportProblem,
    parts: NonZeroUsize,
    seed: u64,
    obs: &ObsHandle,
    warm: Option<&PartitionWarm>,
    solve_batch: F,
) -> PartitionOutcome
where
    F: FnOnce(&[SubProblem]) -> Vec<TransportSolution>,
{
    let m = p.supply.len();
    let n = p.capacity.len();
    let plan = PartitionPlan::new(m, parts, seed);
    if plan.parts() <= 1 {
        // whole-problem path: one basis slot, recorded directly against
        // the caller's obs by the solver itself
        let warm_start =
            warm.and_then(|w| if w.bases.len() == 1 { w.bases[0].clone() } else { None });
        let solution = p.solve_with_options(obs, &SolveOptions { warm_start });
        let bases = vec![solution.basis.clone()];
        return PartitionOutcome {
            solution,
            parts: 1,
            fell_back: false,
            warm: PartitionWarm { bases },
        };
    }
    let mut subs = {
        let _prof = obs.prof_scope("lp.partition.deal");
        plan.subproblems(p)
    };
    if let Some(w) = warm {
        if w.bases.len() == subs.len() {
            for (sub, b) in subs.iter_mut().zip(&w.bases) {
                sub.warm = b.clone();
            }
        }
    }
    let solutions = {
        let _prof = obs.prof_scope("lp.partition.solve");
        solve_batch(&subs)
    };
    assert_eq!(solutions.len(), subs.len(), "batch solver must answer every subproblem");

    if obs.is_enabled() {
        obs.counter_inc("lp.partition.solves");
        obs.counter_add("lp.partition.subproblems", subs.len() as u64);
        for (sub, sol) in subs.iter().zip(&solutions) {
            obs.counter_add("lp.degenerate_pivots", sol.degenerate_pivots as u64);
            obs.counter_add("lp.cells_priced", sol.cells_priced);
            if sol.warm_used {
                obs.counter_inc("lp.warm_solves");
                obs.counter_add("lp.warm_pivots", sol.iterations as u64);
                let skipped = sol.basis.as_ref().map(|b| b.len() as u64).unwrap_or(0);
                obs.counter_add("lp.pivots_saved", skipped);
            } else {
                if sub.warm.is_some() {
                    obs.counter_inc("lp.warm_rejects");
                }
                obs.counter_add("lp.cold_pivots", sol.iterations as u64);
            }
        }
    }
    let fallback = |fell_back: bool| {
        let solution = p.solve_with(obs);
        let bases = vec![solution.basis.clone()];
        PartitionOutcome { solution, parts: plan.parts(), fell_back, warm: PartitionWarm { bases } }
    };
    if solutions.iter().any(|s| s.status != TransportStatus::Optimal) {
        // Groups keep at least their fair share of capacity, so reaching
        // this means the joint problem is infeasible, a sub-solve ran
        // into its pivot cap, or a caller-supplied solver misbehaved: the
        // exact whole-problem solve is the authority either way.
        if obs.is_enabled() {
            obs.counter_inc("lp.partition.fallbacks");
        }
        return fallback(true);
    }

    let mut flow = vec![0.0; m * n];
    let mut row_potentials = vec![0.0; m];
    let mut col_potentials = vec![0.0; n];
    let mut iterations = 0;
    let mut degenerate_pivots = 0;
    let mut cells_priced = 0;
    for (sub, sol) in subs.iter().zip(&solutions) {
        iterations += sol.iterations;
        degenerate_pivots += sol.degenerate_pivots;
        cells_priced += sol.cells_priced;
        let w = sub.cols.len();
        for (si, &i) in sub.rows.iter().enumerate() {
            if let Some(&u) = sol.row_potentials.get(si) {
                row_potentials[i] = u;
            }
            for (sj, &j) in sub.cols.iter().enumerate() {
                flow[i * n + j] = sol.flow[si * w + sj];
            }
        }
        for (sj, &j) in sub.cols.iter().enumerate() {
            if let Some(&v) = sol.col_potentials.get(sj) {
                col_potentials[j] += sub.share * v;
            }
        }
    }

    // Repair: slack lets groups collectively oversubscribe a column.
    // Evict the most expensive flows from each oversubscribed column,
    // then re-place the evicted supply with one small exact solve
    // against residual capacity.
    let prof_repair = obs.prof_scope("lp.partition.repair");
    let mut absorbed = vec![0.0; n];
    for i in 0..m {
        for (j, a) in absorbed.iter_mut().enumerate() {
            *a += flow[i * n + j];
        }
    }
    let mut evicted = vec![0.0; m];
    let mut evicted_total = 0.0;
    for j in 0..n {
        let mut excess = absorbed[j] - p.capacity[j];
        if excess <= TOL {
            continue;
        }
        // most expensive users of this column go first; ties break on
        // the row index so the repair is deterministic
        let mut users: Vec<usize> = (0..m).filter(|&i| flow[i * n + j] > 0.0).collect();
        users.sort_by(|&a, &b| p.cost[b * n + j].total_cmp(&p.cost[a * n + j]).then(a.cmp(&b)));
        for i in users {
            if excess <= TOL {
                break;
            }
            let take = flow[i * n + j].min(excess);
            flow[i * n + j] -= take;
            evicted[i] += take;
            evicted_total += take;
            excess -= take;
        }
        absorbed[j] = p.capacity[j];
    }
    if evicted_total > TOL {
        let rows: Vec<usize> = (0..m).filter(|&i| evicted[i] > TOL).collect();
        let cols: Vec<usize> = (0..n).filter(|&j| p.capacity[j] - absorbed[j] > TOL).collect();
        let supply: Vec<f64> = rows.iter().map(|&i| evicted[i]).collect();
        let capacity: Vec<f64> = cols.iter().map(|&j| p.capacity[j] - absorbed[j]).collect();
        let mut cost = Vec::with_capacity(rows.len() * cols.len());
        for &i in &rows {
            for &j in &cols {
                cost.push(p.cost[i * n + j]);
            }
        }
        let residual = TransportProblem { supply, capacity, cost };
        let sol = residual.solve();
        if sol.status != TransportStatus::Optimal {
            // numerically starved residual (whole problem right at the
            // feasibility boundary): the exact solve is the safe answer
            if obs.is_enabled() {
                obs.counter_inc("lp.partition.fallbacks");
            }
            return fallback(true);
        }
        iterations += sol.iterations;
        degenerate_pivots += sol.degenerate_pivots;
        cells_priced += sol.cells_priced;
        if obs.is_enabled() {
            obs.counter_inc("lp.partition.repairs");
            obs.observe("lp.partition.evicted", evicted_total);
        }
        let w = cols.len();
        for (si, &i) in rows.iter().enumerate() {
            for (sj, &j) in cols.iter().enumerate() {
                flow[i * n + j] += sol.flow[si * w + sj];
            }
        }
    }
    drop(prof_repair);

    // the recombined + repaired flows are the solution: price them directly
    let mut objective = 0.0;
    for (x, c) in flow.iter().zip(&p.cost) {
        if *x > 0.0 {
            objective += x * c;
        }
    }
    if obs.is_enabled() {
        obs.counter_add("lp.partition.pivots", iterations as u64);
        obs.observe("lp.partition.pivots", iterations as f64);
    }
    PartitionOutcome {
        solution: TransportSolution {
            status: TransportStatus::Optimal,
            flow,
            objective,
            iterations,
            degenerate_pivots,
            cells_priced,
            row_potentials,
            col_potentials,
            basis: None,
            warm_used: solutions.iter().any(|s| s.warm_used),
        },
        parts: plan.parts(),
        fell_back: false,
        warm: PartitionWarm { bases: solutions.iter().map(|s| s.basis.clone()).collect() },
    }
}

/// Sequential partitioned solve: subproblems run one after another on the
/// calling thread. See [`solve_partitioned_via`] for the parallel hook and
/// [`solve_partitioned_via_warm`] for basis reuse across rounds.
pub fn solve_partitioned_with(
    p: &TransportProblem,
    parts: NonZeroUsize,
    seed: u64,
    obs: &ObsHandle,
) -> PartitionOutcome {
    solve_partitioned_via(p, parts, seed, obs, solve_subs_sequential)
}

/// The default batch solver: solve each subproblem on the calling thread,
/// honoring any attached warm basis. Exposed so warm-aware callers (and
/// tests) can reuse it with [`solve_partitioned_via_warm`].
pub fn solve_subs_sequential(subs: &[SubProblem]) -> Vec<TransportSolution> {
    let obs = ObsHandle::disabled();
    subs.iter()
        .map(|s| s.problem.solve_with_options(&obs, &SolveOptions { warm_start: s.warm.clone() }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nz(k: usize) -> NonZeroUsize {
        NonZeroUsize::new(k).unwrap()
    }

    /// A granular instance: `m` unit supplies, `n` sinks with ample
    /// capacity, costs varying smoothly so partition quality stays high.
    fn granular(m: usize, n: usize) -> TransportProblem {
        let supply = vec![1.0; m];
        let capacity = vec![2.0 * m as f64 / n as f64 + 1.0; n];
        let cost = (0..m * n).map(|x| 1.0 + ((x * 7919) % 97) as f64 / 97.0).collect();
        TransportProblem::new(supply, capacity, cost)
    }

    fn objective_of(p: &TransportProblem, flow: &[f64]) -> f64 {
        flow.iter().zip(&p.cost).filter(|(x, _)| **x > 0.0).map(|(x, c)| x * c).sum()
    }

    #[test]
    fn k1_is_bit_identical_to_whole_problem() {
        let p = granular(12, 8);
        let whole = p.solve();
        let part = solve_partitioned_with(&p, nz(1), 99, &ObsHandle::disabled());
        assert_eq!(part.parts, 1);
        assert!(!part.fell_back);
        assert_eq!(part.solution.flow, whole.flow, "k=1 must take the exact path verbatim");
        assert_eq!(part.solution.objective.to_bits(), whole.objective.to_bits());
        assert_eq!(part.solution.col_potentials, whole.col_potentials);
    }

    #[test]
    fn partitioned_flow_is_feasible_and_near_optimal() {
        let p = granular(40, 24);
        let whole = p.solve();
        for k in [2, 4, 8] {
            let part = solve_partitioned_with(&p, nz(k), 7, &ObsHandle::disabled());
            assert_eq!(part.solution.status, TransportStatus::Optimal, "k={k}");
            // every row ships exactly its supply
            for i in 0..p.supply.len() {
                let shipped: f64 = part.solution.flow
                    [i * p.capacity.len()..(i + 1) * p.capacity.len()]
                    .iter()
                    .sum();
                assert!((shipped - p.supply[i]).abs() < 1e-6, "row {i} k={k}");
            }
            // no column overflows its *original* capacity once the
            // per-group slices recombine and repair runs
            for j in 0..p.capacity.len() {
                let absorbed: f64 =
                    (0..p.supply.len()).map(|i| part.solution.flow[i * p.capacity.len() + j]).sum();
                assert!(absorbed <= p.capacity[j] + 1e-6, "col {j} k={k}");
            }
            // objective is consistent with the flows, ≥ the true optimum,
            // and close to it (slicing with slack + repair keeps every
            // cheap column usable by every group)
            let obj = objective_of(&p, &part.solution.flow);
            assert!((obj - part.solution.objective).abs() < 1e-6);
            assert!(part.solution.objective >= whole.objective - 1e-9, "k={k}");
            assert!(
                part.solution.objective <= whole.objective * 1.10 + 1e-9,
                "k={k}: gap {:.1}% too large",
                (part.solution.objective / whole.objective - 1.0) * 100.0
            );
        }
    }

    #[test]
    fn split_is_deterministic_in_seed() {
        let p = granular(30, 16);
        let a = solve_partitioned_with(&p, nz(4), 5, &ObsHandle::disabled());
        let b = solve_partitioned_with(&p, nz(4), 5, &ObsHandle::disabled());
        assert_eq!(a.solution.flow, b.solution.flow);
        let c = solve_partitioned_with(&p, nz(4), 6, &ObsHandle::disabled());
        // different seed, different split (objective may coincide; the
        // plan must not)
        assert_ne!(
            PartitionPlan::new(30, nz(4), 5).row_part(),
            PartitionPlan::new(30, nz(4), 6).row_part()
        );
        let _ = c;
    }

    #[test]
    fn k_exceeding_rows_is_capped() {
        // 2 rows split 6 ways: only 2 non-empty groups are possible, so
        // the plan caps the effective count instead of minting empty
        // subproblems.
        let p = granular(2, 12);
        let plan = PartitionPlan::new(2, nz(6), 3);
        assert_eq!(plan.parts(), 2);
        assert!(plan.subproblems(&p).iter().all(|s| !s.rows.is_empty()));
        let part = solve_partitioned_with(&p, nz(6), 3, &ObsHandle::disabled());
        assert_eq!(part.parts, 2);
        assert_eq!(part.solution.status, TransportStatus::Optimal);
        let shipped: f64 = part.solution.flow.iter().sum();
        assert!((shipped - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_supply_rows_make_effectively_empty_subproblems() {
        // Rows 3 and 7 carry no supply: whichever groups they land in may
        // end up all-zero — an effectively empty subproblem (no columns
        // kept at all) that must solve trivially to zero flow.
        let mut p = granular(10, 6);
        p.supply[3] = 0.0;
        p.supply[7] = 0.0;
        let part = solve_partitioned_with(&p, nz(3), 11, &ObsHandle::disabled());
        assert_eq!(part.solution.status, TransportStatus::Optimal);
        let n = p.capacity.len();
        for i in [3usize, 7] {
            assert!(
                part.solution.flow[i * n..(i + 1) * n].iter().all(|&x| x == 0.0),
                "zero-supply row {i} must come back with zero flow"
            );
        }
        assert_eq!(part.solution.flow.len(), p.supply.len() * n);
    }

    #[test]
    fn all_zero_supply_solves_to_zero_flow() {
        let mut p = granular(6, 4);
        p.supply.iter_mut().for_each(|s| *s = 0.0);
        let part = solve_partitioned_with(&p, nz(3), 2, &ObsHandle::disabled());
        assert_eq!(part.solution.status, TransportStatus::Optimal);
        assert!(part.solution.flow.iter().all(|&x| x == 0.0));
        assert_eq!(part.solution.objective, 0.0);
    }

    #[test]
    fn feasible_instances_never_fall_back() {
        // Groups keep at least their supply-proportional share of every
        // column, so feasibility is preserved for every seed — the
        // fat-source instance that strands a naive disjoint split stays
        // solvable here.
        let supply = vec![10.0, 0.5, 0.5, 0.5];
        let capacity = vec![10.5, 0.6, 0.6, 0.6];
        let cost = vec![1.0; 16];
        let p = TransportProblem::new(supply, capacity, cost);
        let whole = p.solve();
        for seed in 0..16 {
            let part = solve_partitioned_with(&p, nz(4), seed, &ObsHandle::disabled());
            assert!(!part.fell_back, "seed {seed}: feasible instance must not fall back");
            assert_eq!(part.solution.status, TransportStatus::Optimal, "seed {seed}");
            assert!(
                (objective_of(&p, &part.solution.flow) - whole.objective).abs() < 1e-6,
                "seed {seed}: uniform costs leave no room for a gap"
            );
        }
    }

    #[test]
    fn infeasible_instance_falls_back_to_the_exact_answer() {
        // More supply than capacity: every subproblem inherits the
        // imbalance, the fallback fires, and the exact verdict surfaces.
        let p = TransportProblem::new(vec![5.0, 5.0], vec![1.0, 1.0], vec![1.0; 4]);
        let obs = ObsHandle::recording(0);
        let part = solve_partitioned_with(&p, nz(2), 3, &obs);
        assert!(part.fell_back);
        assert_eq!(part.solution.status, TransportStatus::Infeasible);
        assert_eq!(obs.counter("lp.partition.fallbacks"), 1);
    }

    #[test]
    fn a_sub_solve_stopped_at_its_pivot_cap_falls_back_too() {
        let p = granular(12, 8);
        let obs = ObsHandle::recording(0);
        let out = solve_partitioned_via(&p, nz(3), 5, &obs, |subs| {
            let mut solutions = solve_subs_sequential(subs);
            solutions[1].status = TransportStatus::IterationLimit;
            solutions[1].flow.clear(); // withheld, as the solver would
            solutions
        });
        assert!(out.fell_back, "unoptimised flows must not be recombined");
        assert_eq!(out.solution.status, TransportStatus::Optimal);
        assert_eq!(out.solution.objective.to_bits(), p.solve().objective.to_bits());
        assert_eq!(obs.counter("lp.partition.fallbacks"), 1);
    }

    #[test]
    fn repair_respects_capacity_under_contention() {
        // One very cheap sink every row wants: slack lets several groups
        // pile onto it, and the repair pass must pull the recombined
        // usage back under its true capacity.
        let m = 12;
        let n = 6;
        let supply = vec![1.0; m];
        let mut capacity = vec![4.0; n];
        capacity[0] = 3.0;
        let mut cost = vec![10.0; m * n];
        for i in 0..m {
            cost[i * n] = 1.0; // column 0 is everyone's favorite
        }
        let p = TransportProblem::new(supply, capacity, cost);
        let part = solve_partitioned_with(&p, nz(4), 9, &ObsHandle::disabled());
        assert_eq!(part.solution.status, TransportStatus::Optimal);
        let absorbed: f64 = (0..m).map(|i| part.solution.flow[i * n]).sum();
        assert!(absorbed <= 3.0 + 1e-6, "column 0 oversubscribed: {absorbed}");
        let shipped: f64 = part.solution.flow.iter().sum();
        assert!((shipped - m as f64).abs() < 1e-6, "supply conserved through repair");
        // the optimum fills the cheap sink exactly
        let whole = p.solve();
        assert!((part.solution.objective - whole.objective).abs() / whole.objective < 0.25);
    }

    #[test]
    fn obs_counters_record_partition_work() {
        let obs = ObsHandle::recording(0);
        let p = granular(24, 12);
        let out = solve_partitioned_with(&p, nz(4), 2, &obs);
        assert!(!out.fell_back);
        assert_eq!(obs.counter("lp.partition.solves"), 1);
        assert_eq!(obs.counter("lp.partition.subproblems"), 4);
        assert_eq!(obs.counter("lp.partition.fallbacks"), 0);
    }

    #[test]
    fn via_hook_sees_every_subproblem() {
        let p = granular(20, 10);
        let mut seen = 0;
        let out = solve_partitioned_via(&p, nz(5), 4, &ObsHandle::disabled(), |subs| {
            seen = subs.len();
            subs.iter().map(|s| s.problem.solve()).collect()
        });
        assert_eq!(seen, 5);
        assert_eq!(out.parts, 5);
    }

    #[test]
    fn warm_round_trip_matches_cold_and_saves_pivots() {
        let p = granular(40, 24);
        let first = solve_partitioned_with(&p, nz(4), 7, &ObsHandle::disabled());
        assert_eq!(first.warm.bases.len(), 4, "one basis slot per group");
        assert!(!first.warm.is_empty());

        // drift the instance a little, then solve warm and cold
        let mut q = p.clone();
        for (i, s) in q.supply.iter_mut().enumerate() {
            *s += (i % 3) as f64 * 0.01;
        }
        let obs = ObsHandle::recording(0);
        let warm = solve_partitioned_via_warm(
            &q,
            nz(4),
            7,
            &obs,
            Some(&first.warm),
            solve_subs_sequential,
        );
        let cold = solve_partitioned_with(&q, nz(4), 7, &ObsHandle::disabled());
        assert_eq!(warm.solution.status, TransportStatus::Optimal);
        // same seed → same deal → same subproblems: warm and cold land on
        // the same optimum of every subproblem, so the recombined
        // objectives agree exactly up to float summation order
        assert!(
            (warm.solution.objective - cold.solution.objective).abs() < 1e-6,
            "warm {} vs cold {}",
            warm.solution.objective,
            cold.solution.objective
        );
        assert!(obs.counter("lp.warm_solves") > 0, "at least one group accepted its basis");
        assert!(obs.counter("lp.pivots_saved") > 0);
    }

    #[test]
    fn warm_with_wrong_group_count_is_ignored() {
        let p = granular(30, 16);
        let first = solve_partitioned_with(&p, nz(4), 5, &ObsHandle::disabled());
        let obs = ObsHandle::recording(0);
        // re-solve with k=2: the 4-slot warm set cannot line up and must
        // be dropped wholesale, not half-applied
        let out = solve_partitioned_via_warm(
            &p,
            nz(2),
            5,
            &obs,
            Some(&first.warm),
            solve_subs_sequential,
        );
        assert_eq!(out.parts, 2);
        assert_eq!(out.solution.status, TransportStatus::Optimal);
        assert_eq!(obs.counter("lp.warm_solves"), 0);
        assert_eq!(obs.counter("lp.warm_rejects"), 0, "never offered, so never rejected");
        let cold = solve_partitioned_with(&p, nz(2), 5, &ObsHandle::disabled());
        assert_eq!(out.solution.flow, cold.solution.flow);
    }

    #[test]
    fn k1_warm_path_delegates_to_whole_problem_solver() {
        let p = granular(12, 8);
        let first = solve_partitioned_with(&p, nz(1), 9, &ObsHandle::disabled());
        assert_eq!(first.warm.bases.len(), 1);
        assert!(first.warm.bases[0].is_some());
        let obs = ObsHandle::recording(0);
        let again = solve_partitioned_via_warm(
            &p,
            nz(1),
            9,
            &obs,
            Some(&first.warm),
            solve_subs_sequential,
        );
        assert!(again.solution.warm_used);
        assert_eq!(again.solution.iterations, 0, "optimal basis re-solves pivot-free");
        assert_eq!(again.solution.objective.to_bits(), first.solution.objective.to_bits());
        // counters recorded once by the whole-problem solver, not doubled
        // by the partition layer
        assert_eq!(obs.counter("lp.warm_solves"), 1);
    }
}
