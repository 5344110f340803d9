//! Hierarchical wall-clock profiler.
//!
//! Answers the question the metrics tier deliberately avoids: *how long
//! did the host spend where?* Scopes are named phases (`lp.transport.solve`,
//! `sim.event.telemetry_sample`, …) opened with an RAII [`ScopeTimer`]
//! and assembled into a call tree of invocation counts plus total/self
//! wall-clock nanoseconds. The artifact is a folded-stack text export —
//! `grep '^self ' | cut -d' ' -f2-` feeds straight into `flamegraph.pl`
//! or speedscope — plus a top-N self-time table.
//!
//! # Determinism contract
//!
//! Wall-clock durations are inherently nondeterministic, so they never
//! enter trace digests, `--metrics-json`, or any golden-tested output.
//! The profile artifact itself is split: `count` lines (scope path +
//! invocation count) are a pure function of the seed and byte-identical
//! across same-seed runs — CI diffs them — while `self` lines carry the
//! wall-clock and are expected to vary. Profiling is an observer: the
//! tree lives beside the metrics registry and touches nothing else, so
//! enabling it cannot perturb a run's simulated behavior.
//!
//! # Threading model
//!
//! The tree keeps one open-scope stack, so [`ScopeTimer`] guards and
//! [`ProfileRegistry::add`] calls must come from a single thread at a
//! time — in DUST that is the simulation/solver main thread. Work done on
//! other threads touches no registry: the cost engine's pricing jobs each
//! return their row count and elapsed time, and the calling thread adds
//! those totals under its open scope once the jobs have ended. So scope
//! counts do not depend on how many threads ran the work.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Index of the synthetic root node in every [`ProfTree`].
const ROOT: usize = 0;

/// One node of the call tree: a scope name in the context of its parent.
#[derive(Debug, Clone)]
struct ProfNode {
    /// Index into the interned name table.
    name_id: usize,
    /// Child node indices, in first-entered order.
    children: Vec<usize>,
    /// Times this scope was entered.
    count: u64,
    /// Total wall-clock nanoseconds spent inside, children included.
    total_ns: u64,
}

/// The call tree plus its interned name table and open-scope stack.
#[derive(Debug)]
struct ProfTree {
    /// Interned scope names. Instrumentation sites pass `&'static str`,
    /// so interning is pointer-cheap and the table stays tiny.
    names: Vec<&'static str>,
    nodes: Vec<ProfNode>,
    /// Currently open scope nodes, innermost last. Only the owning
    /// thread pushes/pops.
    stack: Vec<usize>,
}

impl ProfTree {
    fn new() -> Self {
        let root = ProfNode { name_id: 0, children: Vec::new(), count: 0, total_ns: 0 };
        ProfTree { names: vec!["<root>"], nodes: vec![root], stack: Vec::new() }
    }

    fn intern(&mut self, name: &'static str) -> usize {
        // linear scan: the scope vocabulary is a few dozen names at most
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        }
    }

    /// Find or create the child of `parent` carrying `name_id`.
    fn child(&mut self, parent: usize, name_id: usize) -> usize {
        if let Some(&c) =
            self.nodes[parent].children.iter().find(|&&c| self.nodes[c].name_id == name_id)
        {
            return c;
        }
        let idx = self.nodes.len();
        self.nodes.push(ProfNode { name_id, children: Vec::new(), count: 0, total_ns: 0 });
        self.nodes[parent].children.push(idx);
        idx
    }

    fn open(&mut self) -> usize {
        self.stack.last().copied().unwrap_or(ROOT)
    }

    /// Add `count` entries and `ns` to the child `name` of the innermost
    /// open scope, creating it if need be.
    fn add(&mut self, name: &'static str, count: u64, ns: u64) -> usize {
        let name_id = self.intern(name);
        let parent = self.open();
        let idx = self.child(parent, name_id);
        self.nodes[idx].count += count;
        self.nodes[idx].total_ns = self.nodes[idx].total_ns.saturating_add(ns);
        idx
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let idx = self.add(name, 1, 0);
        self.stack.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize, elapsed_ns: u64) {
        self.nodes[idx].total_ns = self.nodes[idx].total_ns.saturating_add(elapsed_ns);
        // defensive search-pop: a guard dropped out of order (e.g. held
        // across an early return) unwinds every scope it encloses
        if let Some(pos) = self.stack.iter().rposition(|&n| n == idx) {
            self.stack.truncate(pos);
        }
    }

    /// Self nanoseconds of a node: total minus children totals, clamped.
    fn self_ns(&self, idx: usize) -> u64 {
        let kids: u64 = self.nodes[idx].children.iter().map(|&c| self.nodes[c].total_ns).sum();
        self.nodes[idx].total_ns.saturating_sub(kids)
    }

    /// Every exported scope as `(folded path, count, total_ns, self_ns)`.
    fn rows(&self) -> Vec<(String, u64, u64, u64)> {
        let mut out = Vec::new();
        let mut work: Vec<(usize, String)> = self.nodes[ROOT]
            .children
            .iter()
            .map(|&c| (c, self.names[self.nodes[c].name_id].to_string()))
            .collect();
        while let Some((idx, path)) = work.pop() {
            for &c in &self.nodes[idx].children {
                work.push((c, format!("{path};{}", self.names[self.nodes[c].name_id])));
            }
            out.push((path, self.nodes[idx].count, self.nodes[idx].total_ns, self.self_ns(idx)));
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Shared profiling registry: one call tree behind a mutex, attached to
/// an `ObsHandle` after construction via `enable_profiling`.
#[derive(Debug)]
pub struct ProfileRegistry {
    inner: Mutex<ProfTree>,
}

impl Default for ProfileRegistry {
    fn default() -> Self {
        Self::new()
    }
}

/// Recover the tree from a poisoned lock: profiling data is advisory, a
/// panicking scope must not cascade into every later scope.
fn lock(reg: &ProfileRegistry) -> std::sync::MutexGuard<'_, ProfTree> {
    reg.inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl ProfileRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ProfileRegistry { inner: Mutex::new(ProfTree::new()) }
    }

    /// Open `name` under the innermost open scope; the returned guard
    /// closes it on drop. Single-threaded use only (see module docs).
    pub fn scope(self: &Arc<Self>, name: &'static str) -> ScopeTimer {
        let node = lock(self).enter(name);
        ScopeTimer { reg: Arc::clone(self), node, start: Instant::now() }
    }

    /// Add `count` entries taking `ns` nanoseconds in all to the child
    /// `name` of the innermost open scope: the totals of work timed
    /// elsewhere, such as a pricing job on a worker thread. Single-threaded
    /// use only, like [`ProfileRegistry::scope`].
    pub fn add(&self, name: &'static str, count: u64, ns: u64) {
        lock(self).add(name, count, ns);
    }

    /// Per-scope-name self-time totals in nanoseconds, aggregated across
    /// all paths a name appears under, sorted by self-time descending
    /// (ties by name). Feeds the benchmark's per-layer `sim.*_ms` metrics.
    pub fn phase_self_ns(&self) -> Vec<(String, u64)> {
        let tree = lock(self);
        let mut by_name: Vec<(String, u64)> = Vec::new();
        for idx in 1..tree.nodes.len() {
            let name = tree.names[tree.nodes[idx].name_id];
            let ns = tree.self_ns(idx);
            match by_name.iter_mut().find(|(n, _)| n == name) {
                Some((_, acc)) => *acc += ns,
                None => by_name.push((name.to_string(), ns)),
            }
        }
        by_name.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        by_name
    }

    /// The folded-stack artifact. Layout, in order:
    ///
    /// 1. comment header (`# …`)
    /// 2. `count <path> <n>` lines, sorted by path — **deterministic**,
    ///    CI byte-diffs these across same-seed runs
    /// 3. `self <path> <ns>` lines, same order — wall-clock; strip the
    ///    prefix (`grep '^self ' | cut -d' ' -f2-`) for flamegraph input
    /// 4. a top-N self-time table as trailing comments
    pub fn report(&self) -> String {
        let rows = lock(self).rows();
        let mut out = String::new();
        out.push_str("# dust profile v1 (folded stacks)\n");
        let _ = writeln!(out, "# scopes: {}", rows.len());
        out.push_str("# count lines are deterministic per seed; self lines are wall-clock ns\n");
        for (path, count, _, _) in &rows {
            let _ = writeln!(out, "count {path} {count}");
        }
        for (path, _, _, self_ns) in &rows {
            let _ = writeln!(out, "self {path} {self_ns}");
        }
        let total: u64 = rows.iter().map(|r| r.3).sum();
        let mut top: Vec<&(String, u64, u64, u64)> = rows.iter().collect();
        top.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(&b.0)));
        out.push_str("#\n# top self-time\n");
        for (path, count, _, self_ns) in top.into_iter().take(10) {
            let pct = if total == 0 { 0.0 } else { 100.0 * *self_ns as f64 / total as f64 };
            let _ = writeln!(
                out,
                "# {pct:5.1}% {:>10.3} ms  {count:>8}x  {path}",
                *self_ns as f64 / 1e6
            );
        }
        out
    }
}

/// Shared slot an `ObsHandle` core reserves for its (lazily enabled)
/// profiler. Kept here so the obs core stores exactly one `OnceLock`.
pub type ProfileSlot = OnceLock<Arc<ProfileRegistry>>;

/// RAII guard for one open scope. Owns its registry handle so it can
/// outlive any borrow of the instrumented structure (event loops hold
/// `&mut self` while scopes are open).
#[derive(Debug)]
pub struct ScopeTimer {
    reg: Arc<ProfileRegistry>,
    node: usize,
    start: Instant,
}

impl Drop for ScopeTimer {
    fn drop(&mut self) {
        let elapsed = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        lock(&self.reg).exit(self.node, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Arc<ProfileRegistry> {
        Arc::new(ProfileRegistry::new())
    }

    fn counts(r: &ProfileRegistry) -> Vec<(String, u64)> {
        lock(r).rows().into_iter().map(|(p, c, _, _)| (p, c)).collect()
    }

    #[test]
    fn nested_scopes_build_a_tree() {
        let r = reg();
        {
            let _a = r.scope("outer");
            let _b = r.scope("inner");
            drop(_b);
            let _c = r.scope("inner");
        }
        assert_eq!(counts(&r), vec![("outer".into(), 1), ("outer;inner".into(), 2)]);
    }

    #[test]
    fn zero_duration_scopes_still_count() {
        let r = reg();
        for _ in 0..5 {
            let _s = r.scope("blink");
        }
        let rows = lock(&r).rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1, 5, "five entries even if elapsed rounds to 0ns");
        // self time equals total for a leaf, whatever tiny value it is
        assert_eq!(rows[0].2, rows[0].3);
    }

    #[test]
    fn reentrant_same_name_nests_not_merges() {
        let r = reg();
        {
            let _a = r.scope("solve");
            let _b = r.scope("solve");
        }
        assert_eq!(counts(&r), vec![("solve".into(), 1), ("solve;solve".into(), 1)]);
    }

    #[test]
    fn out_of_order_drop_unwinds_enclosed_scopes() {
        let r = reg();
        let a = r.scope("a");
        let b = r.scope("b");
        drop(a); // drops while b is still open: stack unwinds past b
        drop(b); // must not corrupt the tree
        let _c = r.scope("c");
        drop(_c);
        let got = counts(&r);
        assert_eq!(got, vec![("a".into(), 1), ("a;b".into(), 1), ("c".into(), 1)]);
    }

    #[test]
    fn add_lands_under_the_open_scope() {
        let r = reg();
        {
            let _fan = r.scope("fan_out");
            r.add("job", 3, 70);
        }
        r.add("top", 1, 5);
        assert_eq!(
            counts(&r),
            vec![("fan_out".into(), 1), ("fan_out;job".into(), 3), ("top".into(), 1)]
        );
        let rows = lock(&r).rows();
        assert_eq!((rows[1].2, rows[1].3), (70, 70), "a leaf's total is its self time");
        assert_eq!(rows[2].2, 5);
    }

    #[test]
    fn add_sums_into_an_existing_child() {
        let r = reg();
        {
            let _fan = r.scope("fan_out");
            {
                let _job = r.scope("job");
            }
            r.add("job", 4, 1_000);
            r.add("job", 2, 500);
        }
        assert_eq!(counts(&r), vec![("fan_out".into(), 1), ("fan_out;job".into(), 7)]);
        let rows = lock(&r).rows();
        assert!(rows[1].2 >= 1_500, "the scope's own time plus both adds: {:?}", rows[1]);
    }

    #[test]
    fn report_separates_counts_from_wallclock() {
        let r = reg();
        {
            let _a = r.scope("phase");
            std::thread::yield_now();
        }
        let text = r.report();
        assert!(text.contains("count phase 1\n"), "{text}");
        assert!(text.lines().any(|l| l.starts_with("self phase ")), "{text}");
        assert!(text.contains("# top self-time"), "{text}");
        // count lines carry no wall-clock: re-running the same scope
        // sequence must reproduce them byte-for-byte
        let r2 = reg();
        {
            let _a = r2.scope("phase");
        }
        let pick = |s: &str| {
            s.lines().filter(|l| l.starts_with("count ")).map(String::from).collect::<Vec<_>>()
        };
        assert_eq!(pick(&text), pick(&r2.report()));
    }

    #[test]
    fn phase_self_ns_aggregates_across_paths() {
        let r = reg();
        {
            let _a = r.scope("outer");
            let _b = r.scope("shared");
        }
        {
            let _c = r.scope("shared");
        }
        let phases = r.phase_self_ns();
        let names: Vec<&str> = phases.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"outer") && names.contains(&"shared"), "{names:?}");
        assert_eq!(phases.iter().filter(|(n, _)| n == "shared").count(), 1);
    }
}
