//! # dust-obs — deterministic observability for DUST
//!
//! A dependency-free metrics + tracing layer shared by every crate in
//! the workspace. Two halves:
//!
//! * [`MetricsRegistry`] — monotonic counters, gauges, and log-scale
//!   [`Histogram`]s, read back by name and rendered as stable
//!   text/JSON/Prometheus expositions.
//! * [`Trace`] — an append-only structured event log keyed by sim time
//!   and seed, with a running FNV-1a digest so two runs at the same
//!   seed are bit-identical iff their digests match. [`TraceAssert`]
//!   turns traces into regression tests.
//!
//! On top of the trace sit three analysis tiers (all deterministic pure
//! functions of the recorded stream): [`span::build_spans`] reconstructs
//! per-flow causal span trees from the flow identities events carry
//! ([`TraceEvent::flow`]), [`Trace::post_mortem`] renders the trace's
//! last [`POST_MORTEM_WINDOW`] events as a deterministic dump
//! ([`ObsHandle::post_mortem`]), and an [`SloEngine`] evaluates
//! declarative health rules online as the sim feeds it.
//!
//! Both live behind [`ObsHandle`], a cheap clonable handle that is a
//! **no-op by default**: `ObsHandle::disabled()` (also `Default`)
//! carries no allocation, and every recording call is an inlined
//! `Option` check in front of an out-of-line, cold body, so instrumented
//! code pays one branch when observability is off and builds no
//! [`TraceEvent`]. `ObsHandle::recording(seed)` turns everything on.
//!
//! ## Determinism contract
//!
//! Instrumentation must never perturb the instrumented system: handles
//! are passed by value/clone, recording never fails, and nothing reads
//! back from the registry on the hot path. Work that runs on other
//! threads touches no handle: the cost engine decides cache hits in a
//! sequential pre-pass, emits a single summary event per matrix build,
//! and its pricing jobs return only their row counts and elapsed times,
//! which the calling thread adds to the profile once they have ended. So
//! counters, histograms (whose float sums depend on sample order) and
//! trace events (whose order would depend on thread scheduling) are all
//! recorded in program order.

#![warn(missing_docs)]

mod assert;
mod hist;
mod metrics;
pub mod profile;
mod slo;
pub mod span;
mod trace;

pub use assert::TraceAssert;
pub use hist::{Histogram, NUM_BUCKETS, SUB_BUCKETS};
pub use metrics::MetricsRegistry;
pub use profile::{ProfileRegistry, ScopeTimer};
pub use slo::{SloBreach, SloEngine, SloKind, SloRule, SloSpec};
pub use span::{build_spans, FlowSpans, Span, SpanForest, SpanOutcome};
pub use trace::{FlowId, Trace, TraceEntry, TraceEvent, POST_MORTEM_WINDOW, SLO_GLOBAL};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

#[derive(Debug)]
struct ObsCore {
    /// Sim clock, mirrored by whoever owns the clock (the sim runner)
    /// so layers without one (cost engine, solvers) can stamp events.
    now_ms: AtomicU64,
    inner: Mutex<ObsInner>,
    /// Wall-clock profiler, attached lazily by [`ObsHandle::enable_profiling`]
    /// so the common recording handle pays one `OnceLock` probe per scope
    /// and the disabled handle stays a single `Option` check.
    profile: profile::ProfileSlot,
}

#[derive(Debug)]
struct ObsInner {
    metrics: MetricsRegistry,
    trace: Trace,
}

/// The recording bodies behind [`ObsHandle`]'s inlined wrappers: out of
/// line and cold, so a disabled handle's call site keeps one branch and
/// builds nothing it would pass here.
impl ObsCore {
    fn lock(&self) -> MutexGuard<'_, ObsInner> {
        // recording never panics while holding the lock; if a caller's
        // assertion ever poisons it, keep recording anyway
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[cold]
    #[inline(never)]
    fn counter_add(&self, name: &str, n: u64) {
        self.lock().metrics.counter_add(name, n);
    }

    #[cold]
    #[inline(never)]
    fn gauge_set(&self, name: &str, v: f64) {
        self.lock().metrics.gauge_set(name, v);
    }

    #[cold]
    #[inline(never)]
    fn observe_all(&self, name: &str, values: &[f64]) {
        self.lock().metrics.observe_all(name, values);
    }

    #[cold]
    #[inline(never)]
    fn trace_at(&self, t_ms: u64, event: TraceEvent) {
        self.lock().trace.record(t_ms, event);
    }

    #[cold]
    #[inline(never)]
    fn profile(&self) -> Option<&Arc<ProfileRegistry>> {
        self.profile.get()
    }

    #[cold]
    #[inline(never)]
    fn prof_scope(&self, name: &'static str) -> Option<ScopeTimer> {
        self.profile().map(|p| p.scope(name))
    }
}

/// Shared handle to one run's metrics + trace. Clones are cheap and all
/// point at the same underlying recorder.
///
/// On a disabled handle a recording call (`counter_add`/`counter_inc`,
/// `trace`/`trace_at`, `gauge_set`, `observe`/`observe_all`, `set_now`,
/// `is_enabled`, `profile`, `prof_scope`) costs one inlined branch: each is
/// an `#[inline]` check of the handle in front of a `#[cold]`,
/// `#[inline(never)]` body that takes the lock, so the call site neither
/// calls out nor builds the [`TraceEvent`] it would record.
#[derive(Debug, Clone, Default)]
pub struct ObsHandle {
    core: Option<Arc<ObsCore>>,
}

impl ObsHandle {
    /// The no-op handle: every recording call returns immediately.
    pub fn disabled() -> Self {
        ObsHandle { core: None }
    }

    /// A live handle recording into a fresh registry and trace.
    pub fn recording(seed: u64) -> Self {
        ObsHandle {
            core: Some(Arc::new(ObsCore {
                now_ms: AtomicU64::new(0),
                inner: Mutex::new(ObsInner {
                    metrics: MetricsRegistry::new(),
                    trace: Trace::new(seed),
                }),
                profile: profile::ProfileSlot::new(),
            })),
        }
    }

    /// True when this handle actually records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.core.is_some()
    }

    /// Mirror the sim clock (ms). Called by the clock owner per event.
    #[inline]
    pub fn set_now(&self, t_ms: u64) {
        if let Some(c) = &self.core {
            c.now_ms.store(t_ms, Ordering::Relaxed);
        }
    }

    /// Current mirrored sim time, ms (0 when disabled or never set).
    pub fn now(&self) -> u64 {
        self.core.as_ref().map_or(0, |c| c.now_ms.load(Ordering::Relaxed))
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(c) = &self.core {
            c.counter_add(name, n);
        }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn counter_inc(&self, name: &str) {
        self.counter_add(name, 1);
    }

    /// Set a gauge. Must only be called from deterministic (sequential)
    /// context — last write wins.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(c) = &self.core {
            c.gauge_set(name, v);
        }
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(c) = &self.core {
            c.observe_all(name, &[v]);
        }
    }

    /// Record a batch of samples into one histogram under a single lock
    /// acquisition, in slice order, so this leaves the registry exactly
    /// as one [`ObsHandle::observe`] per value would.
    #[inline]
    pub fn observe_all(&self, name: &str, values: &[f64]) {
        if let Some(c) = &self.core {
            c.observe_all(name, values);
        }
    }

    /// Record a trace event at the mirrored sim time. Must only be
    /// called from deterministic (sequential) context.
    #[inline]
    pub fn trace(&self, event: TraceEvent) {
        if let Some(c) = &self.core {
            c.trace_at(c.now_ms.load(Ordering::Relaxed), event);
        }
    }

    /// Record a trace event at an explicit sim time.
    #[inline]
    pub fn trace_at(&self, t_ms: u64, event: TraceEvent) {
        if let Some(c) = &self.core {
            c.trace_at(t_ms, event);
        }
    }

    /// Render a post-mortem dump of the trace's most recent events
    /// tagged with `reason`. `None` when disabled. The dump is
    /// deterministic: same events in, same bytes out — see
    /// [`Trace::post_mortem`].
    pub fn post_mortem(&self, reason: &str) -> Option<String> {
        self.core.as_ref().map(|c| c.lock().trace.post_mortem(reason))
    }

    /// Copy of the metrics so far (`None` when disabled).
    pub fn metrics(&self) -> Option<MetricsRegistry> {
        self.core.as_ref().map(|c| c.lock().metrics.clone())
    }

    /// Copy of the trace so far (`None` when disabled).
    pub fn trace_snapshot(&self) -> Option<Trace> {
        self.core.as_ref().map(|c| c.lock().trace.clone())
    }

    /// Current trace digest (`None` when disabled).
    pub fn digest(&self) -> Option<u64> {
        self.core.as_ref().map(|c| c.lock().trace.digest())
    }

    /// Convenience: counter value, 0 when disabled.
    pub fn counter(&self, name: &str) -> u64 {
        self.core.as_ref().map_or(0, |c| c.lock().metrics.counter(name))
    }

    /// Attach a wall-clock [`ProfileRegistry`] to this handle (no-op on
    /// a disabled handle, idempotent on a recording one). Profiling is
    /// opt-in on top of recording: metrics/trace callers pay one extra
    /// `OnceLock` probe per `prof_*` call until this is invoked.
    pub fn enable_profiling(&self) {
        if let Some(c) = &self.core {
            let _ = c.profile.set(Arc::new(ProfileRegistry::new()));
        }
    }

    /// The attached profiler, if any.
    #[inline]
    pub fn profile(&self) -> Option<&Arc<ProfileRegistry>> {
        self.core.as_ref().and_then(|c| c.profile())
    }

    /// Open a profiling scope (RAII; closes on drop). `None` — costing
    /// one branch on a disabled handle — unless profiling is enabled.
    /// Single-threaded use only: work timed on other threads is added
    /// with [`ObsHandle::prof_add`].
    #[inline]
    pub fn prof_scope(&self, name: &'static str) -> Option<ScopeTimer> {
        self.core.as_ref().and_then(|c| c.prof_scope(name))
    }

    /// Add `count` entries taking `ns` nanoseconds in all under the open
    /// scope (see [`ProfileRegistry::add`]); inert unless profiling.
    pub fn prof_add(&self, name: &'static str, count: u64, ns: u64) {
        if let Some(p) = self.profile() {
            p.add(name, count, ns);
        }
    }

    /// The folded-stack profile artifact (`None` unless profiling).
    pub fn profile_report(&self) -> Option<String> {
        self.profile().map(|p| p.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert_and_cheap() {
        let h = ObsHandle::disabled();
        assert!(!h.is_enabled());
        h.counter_inc("x");
        h.observe("h", 1.0);
        h.trace(TraceEvent::Abandon { request: 1 });
        assert_eq!(h.metrics(), None);
        assert_eq!(h.digest(), None);
        assert_eq!(h.counter("x"), 0);
        assert_eq!(h.post_mortem("why"), None);
        assert!(h.prof_scope("x").is_none());
        h.prof_add("x", 1, 1);
        h.enable_profiling();
        assert!(h.profile().is_none(), "profiling cannot attach to a disabled handle");
        assert_eq!(h.profile_report(), None);
        assert_eq!(std::mem::size_of::<ObsHandle>(), std::mem::size_of::<usize>());
    }

    #[test]
    fn profiling_is_opt_in_on_recording_handles() {
        let h = ObsHandle::recording(1);
        assert!(h.profile().is_none());
        assert!(h.prof_scope("x").is_none(), "recording alone must not profile");
        h.prof_add("x", 1, 1); // inert until profiling is enabled
        h.enable_profiling();
        h.enable_profiling(); // idempotent
        assert!(h.profile().is_some());
        {
            let _outer = h.prof_scope("outer");
            h.prof_add("job", 2, 40);
        }
        let report = h.profile_report().unwrap();
        assert!(report.contains("count outer 1\n"), "{report}");
        assert!(report.contains("count outer;job 2\n"), "{report}");
        assert!(report.contains("self outer;job 40\n"), "{report}");
        assert!(!report.contains(" x "), "nothing was added before profiling: {report}");
        // clones share the profiler like they share the recorder
        assert!(h.clone().profile().is_some());
    }

    #[test]
    fn post_mortem_dumps_the_trailing_window() {
        let h = ObsHandle::recording(9);
        let total = POST_MORTEM_WINDOW as u64 + 3;
        for i in 0..total {
            h.trace_at(i * 10, TraceEvent::Abandon { request: i });
        }
        let dump = h.post_mortem("test").unwrap();
        assert!(dump.starts_with("postmortem reason=test seed=9 window=256 dropped=3\n"), "{dump}");
        assert!(dump.contains("\n30 3 Abandon req=3\n"));
        assert!(dump.contains("\n2580 258 Abandon req=258\n"));
        assert!(!dump.contains("req=2\n"), "entries before the window must not appear");
        assert_eq!(dump, h.post_mortem("test").unwrap(), "dump is deterministic");
        // the full trace still has everything
        assert_eq!(h.trace_snapshot().unwrap().len(), total as usize);
    }

    #[test]
    fn observe_all_matches_per_value_observes() {
        let (batched, single) = (ObsHandle::recording(1), ObsHandle::recording(1));
        let values = [12.5, 0.25, 99.0, 12.5];
        batched.observe_all("sim.node.cpu_percent", &values);
        for v in values {
            single.observe("sim.node.cpu_percent", v);
        }
        assert_eq!(batched.metrics(), single.metrics());
        ObsHandle::disabled().observe_all("x", &values); // inert, like every other call
    }

    #[test]
    fn default_is_disabled() {
        assert!(!ObsHandle::default().is_enabled());
    }

    #[test]
    fn clones_share_the_recorder() {
        let h = ObsHandle::recording(5);
        let h2 = h.clone();
        h.counter_add("c", 2);
        h2.counter_add("c", 3);
        h2.set_now(40);
        h.trace(TraceEvent::Reclaim { request: 1, node: 2 });
        assert_eq!(h.counter("c"), 5);
        let t = h2.trace_snapshot().unwrap();
        assert_eq!(t.entries()[0].t_ms, 40);
        assert_eq!(t.seed(), 5);
    }

    #[test]
    fn parallel_counter_adds_are_deterministic_in_total() {
        let h = ObsHandle::recording(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        h.counter_inc("n");
                    }
                });
            }
        });
        assert_eq!(h.counter("n"), 4000);
    }
}
