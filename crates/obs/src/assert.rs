//! Test helper for asserting over recorded traces.
//!
//! `TraceAssert` wraps a [`Trace`] and provides pattern counts, window
//! counts, expect/forbid assertions, and precedence checks — the
//! building blocks of the trace-based protocol regression tests (e.g.
//! "no `ClientAccept` after a `ClientReleased` for the same request",
//! "every `Abandon` is preceded by the full retry budget of
//! `Retransmit` events").
//!
//! With [`TraceAssert::with_postmortem`], a failing assertion writes
//! the trace's [`Trace::post_mortem`] dump to the given path before
//! panicking, so CI can upload the black box as an artifact.

use crate::trace::{Trace, TraceEntry};
use std::path::PathBuf;

/// Assertion surface over an immutable trace.
#[derive(Debug, Clone)]
pub struct TraceAssert<'a> {
    trace: &'a Trace,
    dump_path: Option<PathBuf>,
}

impl<'a> TraceAssert<'a> {
    /// Wrap a recorded trace.
    pub fn new(trace: &'a Trace) -> Self {
        TraceAssert { trace, dump_path: None }
    }

    /// On assertion failure, write the trace's post-mortem dump (the
    /// last [`crate::POST_MORTEM_WINDOW`] entries) to `path` before panicking.
    /// Parent directories are created; write errors are swallowed — a
    /// failing assertion must still panic with its own message.
    pub fn with_postmortem(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump_path = Some(path.into());
        self
    }

    /// Panic with `msg`, writing the post-mortem dump first if one was
    /// requested via [`TraceAssert::with_postmortem`].
    #[track_caller]
    fn fail(&self, msg: String) -> ! {
        if let Some(path) = &self.dump_path {
            let reason = msg.split(':').next().unwrap_or("assert");
            let dump = self.trace.post_mortem(reason);
            if let Some(dir) = path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(path, &dump);
            panic!("{msg} (postmortem written to {})", path.display());
        }
        panic!("{msg}");
    }

    /// The underlying entries, in record order.
    pub fn entries(&self) -> &'a [TraceEntry] {
        self.trace.entries()
    }

    /// Number of events of a given kind.
    pub fn count(&self, kind: &str) -> usize {
        self.entries().iter().filter(|e| e.event.kind() == kind).count()
    }

    /// Number of entries matching an arbitrary predicate.
    pub fn count_where(&self, pred: impl Fn(&TraceEntry) -> bool) -> usize {
        self.entries().iter().filter(|e| pred(e)).count()
    }

    /// Panic unless at least one event of `kind` was recorded.
    #[track_caller]
    pub fn expect(&self, kind: &str) -> &Self {
        if self.count(kind) == 0 {
            self.fail(format!("expected at least one `{kind}` event, trace has none"));
        }
        self
    }

    /// Panic if any entry matches the predicate.
    #[track_caller]
    pub fn forbid(&self, what: &str, pred: impl Fn(&TraceEntry) -> bool) -> &Self {
        if let Some(e) = self.entries().iter().find(|e| pred(e)) {
            self.fail(format!(
                "forbidden event ({what}) present: {} (t={} seq={})",
                e.event, e.t_ms, e.seq
            ));
        }
        self
    }

    /// For every entry matching `anchor`, panic if any *later* entry
    /// matches `later(anchor_entry, later_entry)`. Precedence guard for
    /// per-request orderings (tombstone → no re-accept).
    #[track_caller]
    pub fn forbid_after(
        &self,
        what: &str,
        anchor: impl Fn(&TraceEntry) -> bool,
        later: impl Fn(&TraceEntry, &TraceEntry) -> bool,
    ) -> &Self {
        let entries = self.entries();
        for (i, a) in entries.iter().enumerate() {
            if !anchor(a) {
                continue;
            }
            if let Some(b) = entries[i + 1..].iter().find(|b| later(a, b)) {
                self.fail(format!(
                    "forbidden ordering ({what}): {} (seq={}) followed by {} (seq={})",
                    a.event, a.seq, b.event, b.seq
                ));
            }
        }
        self
    }

    /// Number of entries before `seq` that match the predicate.
    pub fn preceding(&self, seq: u64, pred: impl Fn(&TraceEntry) -> bool) -> usize {
        self.entries().iter().take(seq as usize).filter(|e| pred(e)).count()
    }

    /// Panic unless the trace digest equals `expected`.
    #[track_caller]
    pub fn assert_digest(&self, expected: u64) -> &Self {
        if self.trace.digest() != expected {
            self.fail(format!(
                "trace digest mismatch: got {:016x}, expected {expected:016x}",
                self.trace.digest(),
            ));
        }
        self
    }

    /// Panic unless two traces have identical digests.
    #[track_caller]
    pub fn assert_same_digest(&self, other: &Trace) -> &Self {
        if self.trace.digest() != other.digest() {
            self.fail(format!(
                "trace digests diverge: {:016x} vs {:016x}",
                self.trace.digest(),
                other.digest(),
            ));
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;

    fn sample() -> Trace {
        let mut t = Trace::new(1);
        t.record(0, TraceEvent::Offer { request: 1, from: 0, to: 2 });
        t.record(3, TraceEvent::Retransmit { request: 1, attempt: 2 });
        t.record(5, TraceEvent::Abandon { request: 1 });
        t
    }

    #[test]
    fn counts_and_windows() {
        let t = sample();
        let a = TraceAssert::new(&t);
        assert_eq!(a.count("Offer"), 1);
        a.expect("Abandon").expect("Offer");
    }

    #[test]
    #[should_panic(expected = "forbidden event")]
    fn forbid_fires() {
        let t = sample();
        TraceAssert::new(&t).forbid("no abandons", |e| e.event.kind() == "Abandon");
    }

    #[test]
    #[should_panic(expected = "forbidden ordering")]
    fn forbid_after_fires() {
        let t = sample();
        TraceAssert::new(&t).forbid_after(
            "retransmit after offer",
            |e| e.event.kind() == "Offer",
            |a, b| b.event.kind() == "Retransmit" && b.event.request() == a.event.request(),
        );
    }

    #[test]
    fn preceding_counts_only_earlier_entries() {
        let t = sample();
        let a = TraceAssert::new(&t);
        let abandon_seq = a.entries().iter().find(|e| e.event.kind() == "Abandon").unwrap().seq;
        assert_eq!(a.preceding(abandon_seq, |e| e.event.kind() == "Retransmit"), 1);
    }

    #[test]
    fn digest_assertions() {
        let t = sample();
        let u = sample();
        TraceAssert::new(&t).assert_digest(t.digest()).assert_same_digest(&u);
    }

    #[test]
    fn failing_assertion_writes_a_postmortem_dump() {
        let t = sample();
        let path = std::env::temp_dir().join("dust-obs-assert-test/postmortem.txt");
        let _ = std::fs::remove_file(&path);
        let result = std::panic::catch_unwind(|| {
            TraceAssert::new(&t).with_postmortem(&path).assert_digest(0xdead_beef);
        });
        assert!(result.is_err(), "assertion must still panic");
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("postmortem written to"), "got: {msg}");
        let dump = std::fs::read_to_string(&path).expect("dump file");
        assert!(dump.starts_with("postmortem reason=trace_digest_mismatch seed=1 window=3"));
        assert!(dump.contains("Abandon req=1"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn passing_assertions_write_nothing() {
        let t = sample();
        let path = std::env::temp_dir().join("dust-obs-assert-test/clean.txt");
        let _ = std::fs::remove_file(&path);
        TraceAssert::new(&t).with_postmortem(&path).expect("Offer").assert_digest(t.digest());
        assert!(!path.exists(), "no dump on success");
    }
}
