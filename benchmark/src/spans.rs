//! Spans recorded around the benchmark's calls into the program's public
//! functions. They live in memory during the run and are written out as
//! JSON lines at exit; a layer's self time is its span minus the part of
//! it that child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Spans of one operation share this identifier.
    pub op_id: u64,
}

/// In-memory span recorder. While off, `enter` costs one branch.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op_id: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { on: false, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside an open span");
        self.on = on;
    }

    /// Start the next operation: later spans carry a fresh `op_id`.
    pub fn next_op(&mut self) {
        self.op_id += 1;
    }

    /// Identifier of the operation in progress (0 before the first).
    pub fn op_id(&self) -> u64 {
        self.op_id
    }

    pub fn enter(&mut self, name: &'static str) -> Option<u32> {
        if !self.on {
            return None;
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(id);
        Some(id)
    }

    pub fn exit(&mut self, handle: Option<u32>) {
        let Some(id) = handle else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Record consecutive children of the just-closed span `parent` from
    /// durations the program itself reported (`Placement::cost_time`,
    /// `solve_time`): laid end to end from the parent's start.
    pub fn children_from_durations(&mut self, parent: Option<u32>, parts: &[(&'static str, u64)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent as usize].start_ns;
        let end = self.spans[parent as usize].end_ns;
        for &(name, ns) in parts {
            let id = self.spans.len() as u32;
            let stop = at.saturating_add(ns).min(end);
            self.spans.push(Span {
                id,
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(parent),
                op_id: self.op_id,
            });
            at = stop;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op_id\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.op_id
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, indexed like `spans`: its duration minus the
/// union of the intervals its direct children cover inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per operation, the summed time of spans called `name`: self time when
/// `own` is set, whole duration otherwise. One entry per `op_id` that
/// `keep` accepts and that has such a span, in `op_id` order.
pub fn per_op(
    spans: &[Span],
    self_ns: &[u64],
    name: &str,
    own: bool,
    keep: &dyn Fn(u64) -> bool,
) -> Vec<u64> {
    let mut by_op: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, &own_ns) in spans.iter().zip(self_ns) {
        if s.name == name && keep(s.op_id) {
            *by_op.entry(s.op_id).or_default() += if own { own_ns } else { s.end_ns - s.start_ns };
        }
    }
    by_op.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span { id, name, start_ns: start, end_ns: end, parent, op_id: 1 }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100] > placement [10,90] > solve [20,70]
        let spans = vec![
            span(0, "op", 0, 100, None),
            span(1, "placement", 10, 90, Some(0)),
            span(2, "solve", 20, 70, Some(1)),
        ];
        // a grandchild is its parent's business, not the root's
        assert_eq!(self_times(&spans), vec![20, 30, 50]);
    }

    #[test]
    fn adjacent_and_overlapping_children_are_not_double_counted() {
        let spans = vec![
            span(0, "op", 0, 100, None),
            span(1, "a", 0, 40, Some(0)),
            span(2, "b", 40, 60, Some(0)),
            // overlaps b and runs past the parent's end: clipped
            span(3, "c", 50, 120, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 40, 20, 70]);
        let gap = vec![span(0, "op", 0, 100, None), span(1, "a", 10, 20, Some(0))];
        assert_eq!(self_times(&gap), vec![90, 10]);
    }

    #[test]
    fn tracer_nests_and_reports_children_from_durations() {
        let mut t = Tracer::new();
        assert_eq!(t.enter("ignored"), None);
        t.set_on(true);
        t.next_op();
        let op = t.enter("op");
        let inner = t.enter("inner");
        t.exit(inner);
        t.exit(op);
        t.children_from_durations(inner, &[("x", 0), ("y", u64::MAX / 2)]);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[2].parent, s[3].parent), (Some(1), Some(1)));
        // reported durations never leak past the span they sit in
        assert_eq!(s[3].end_ns, s[1].end_ns);
        assert!(s.iter().all(|x| x.op_id == 1 && x.end_ns >= x.start_ns));
        let own = self_times(s);
        assert_eq!(own[1], 0);
    }

    #[test]
    fn per_op_sums_spans_of_one_name() {
        let mut spans = vec![
            span(0, "enc", 0, 10, None),
            span(1, "enc", 20, 25, None),
            span(2, "dec", 30, 31, None),
        ];
        spans.push(Span { op_id: 2, ..span(3, "enc", 40, 47, None) });
        let own = self_times(&spans);
        assert_eq!(per_op(&spans, &own, "enc", false, &|_| true), vec![15, 7]);
        assert_eq!(per_op(&spans, &own, "enc", false, &|op| op == 2), vec![7]);
        assert_eq!(per_op(&spans, &own, "nope", true, &|_| true), Vec::<u64>::new());
    }
}
