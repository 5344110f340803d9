//! The run shape shared by every workload: set-up three times, then
//! slices that each replay the same seeded operations from the same
//! start state, the two thirds with the least hypervisor steal kept.

use crate::json::{Metric, RunResult};
use crate::probe::{self, Probe};
use crate::spans::{self, Tracer};
use crate::{alloc, procfs, stats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a slice is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Nothing attached: what the end-to-end metrics are measured on.
    Plain,
    /// Benchmark spans, allocation counting, and — where the workload
    /// reads the program's counters — a recording `ObsHandle`.
    Traced,
    /// The program's own profiler on (`fleet_sim_k90` only).
    Profiled,
}

/// What one slice did.
#[derive(Debug, Default)]
pub struct SliceOut {
    /// Latency of every operation, in order.
    pub lat_ns: Vec<u64>,
    /// Work units the operations completed.
    pub units: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Exact work counters; bit-equal across all slices of a run.
    pub work: Vec<(&'static str, u64)>,
    /// Per-layer values this slice measured itself (traced modes only).
    pub layers: Vec<(&'static str, f64)>,
    /// Set when the slice did not exercise what the workload claims to:
    /// the condition that failed.
    pub invalid: Option<String>,
}

/// One replayable workload.
pub trait Workload {
    /// What `throughput_per_s` counts.
    fn unit(&self) -> &'static str;
    /// Work units per operation (constant).
    fn units_per_op(&self) -> u64;
    /// Slice modes a traced run cycles through.
    fn traced_cycle(&self) -> &'static [Mode] {
        &[Mode::Plain, Mode::Traced, Mode::Traced]
    }
    /// Replay the slice's operations from the start state, calling
    /// `probe.pulse()` between operations, outside what is timed.
    fn slice(&mut self, mode: Mode, tr: &mut Tracer, probe: &mut Probe) -> SliceOut;
}

/// A per-layer time metric read off the benchmark's spans.
struct SpanMetric {
    metric: &'static str,
    span: &'static str,
    /// Self time (children subtracted) rather than the whole span.
    own: bool,
    /// Nanoseconds per reported unit.
    ns_per: f64,
    /// Divide by the workload's units per operation.
    per_unit: bool,
}

const fn us(metric: &'static str, span: &'static str) -> SpanMetric {
    SpanMetric { metric, span, own: false, ns_per: 1e3, per_unit: false }
}

const fn ms(metric: &'static str, span: &'static str) -> SpanMetric {
    SpanMetric { metric, span, own: false, ns_per: 1e6, per_unit: false }
}

/// Medians per operation over the kept traced slices.
const SPAN_METRICS: &[SpanMetric] = &[
    us("proto.decode_us", "proto.decode"),
    us("proto.stat_ingest_us", "proto.stat_ingest"),
    us("proto.tick_us", "proto.tick"),
    us("proto.encode_us", "proto.encode"),
    SpanMetric { own: true, ..us("proto.run_placement_self_us", "proto.run_placement") },
    us("proto.snapshot_us", "proto.snapshot"),
    us("topology.price_us", "topology.price"),
    us("lp.solve_us", "lp.solve"),
    ms("sim.build_ms", "sim.build"),
    ms("sim.run_ms", "sim.run"),
    SpanMetric {
        ns_per: 1.0,
        per_unit: true,
        ..us("telemetry.append_ns_per_point", "telemetry.append")
    },
    us("telemetry.query_us", "telemetry.query"),
    us("telemetry.compress_us", "telemetry.compress"),
    us("telemetry.decompress_us", "telemetry.decompress"),
    us("telemetry.frame_us", "telemetry.frame"),
    us("telemetry.trim_us", "telemetry.trim"),
    us("telemetry.downsample_us", "telemetry.downsample"),
];

/// Every per-layer metric with its unit, in the order it is printed.
/// Each workload prints all of them; one that does not apply reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("proto.decode_us", "us"),
    ("proto.stat_ingest_us", "us"),
    ("proto.tick_us", "us"),
    ("proto.encode_us", "us"),
    ("proto.run_placement_self_us", "us"),
    ("proto.snapshot_us", "us"),
    ("proto.stats_per_op", "count"),
    ("proto.offers_per_op", "count"),
    ("proto.delta_round_share", "share"),
    ("proto.hostings_end", "count"),
    ("topology.price_us", "us"),
    ("topology.rows_priced_per_op", "count"),
    ("topology.cache_hit_share", "share"),
    ("topology.rows_migrated_share", "share"),
    ("topology.full_invalidations", "count"),
    ("lp.solve_us", "us"),
    ("lp.solve_share", "share"),
    ("lp.pivots_per_op", "count"),
    ("lp.warm_accept_share", "share"),
    ("lp.pivots_saved_per_op", "count"),
    ("core.optimal_share", "share"),
    ("sim.build_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.telemetry_batch_ms", "ms"),
    ("sim.resource_walk_ms", "ms"),
    ("sim.placement_round_ms", "ms"),
    ("sim.stat_ingest_ms", "ms"),
    ("sim.events_per_run", "count"),
    ("sim.peak_queue_len", "count"),
    ("sim.federation_points", "count"),
    ("telemetry.append_ns_per_point", "ns"),
    ("telemetry.query_us", "us"),
    ("telemetry.compress_us", "us"),
    ("telemetry.decompress_us", "us"),
    ("telemetry.frame_us", "us"),
    ("telemetry.trim_us", "us"),
    ("telemetry.downsample_us", "us"),
    ("telemetry.bytes_per_point", "bytes"),
    ("obs.trace_overhead_share", "share"),
    ("obs.profile_overhead_share", "share"),
    ("bench.allocs_per_op", "count"),
    ("bench.alloc_bytes_per_op", "bytes"),
    ("bench.cpu_ms_per_op", "ms"),
    ("bench.steal_share", "share"),
    ("bench.slices_kept", "count"),
];

/// The end-to-end metrics with their units, in the order printed.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// One measured slice with what surrounded it.
struct Measured {
    mode: Mode,
    out: SliceOut,
    /// Steal as a share of all CPUs' ticks: what slices are chosen by.
    steal: Option<f64>,
    /// Turns the slice's clock readings into time on the nominal host:
    /// the share of the slice the hypervisor left us, times how fast the
    /// reference kernel ran in it.
    to_nominal: f64,
    /// Operation ids the slice's spans carry: `first_op..=last_op`.
    ops: (u64, u64),
    allocs: (u64, u64),
    cpu_ticks: Option<u64>,
    /// Wall time of the whole slice, untimed generator work included.
    wall_s: f64,
}

/// What the host did over a stretch of the run, from indicators outside
/// the workload: steal, this thread's CPU time, the reference kernel.
struct HostWindow {
    ticks: Option<procfs::CpuTicks>,
    ran_ns: Option<u64>,
    opened: Instant,
}

impl HostWindow {
    fn open(probe: &mut Probe) -> HostWindow {
        let w = HostWindow {
            ticks: procfs::cpu_ticks(),
            ran_ns: procfs::thread_cpu_ns(),
            opened: Instant::now(),
        };
        probe.read();
        w
    }

    /// `(wall seconds, steal share of all ticks, factor to the nominal
    /// host)`; the factor is the share of the window not stolen times how
    /// fast the reference kernel ran in it.
    fn close(self, probe: &mut Probe) -> (f64, Option<f64>, f64) {
        probe.read();
        let wall_s = self.opened.elapsed().as_secs_f64();
        let ran =
            self.ran_ns.zip(procfs::thread_cpu_ns()).map(|(a, b)| b.saturating_sub(a) as f64 / 1e9);
        let ticks = procfs::cpu_ticks();
        let granted = stats::granted_share(procfs::stolen_seconds(self.ticks, ticks), ran, wall_s);
        (
            wall_s,
            procfs::steal_share(self.ticks, ticks),
            granted * probe::to_nominal(&probe.drain()),
        )
    }
}

/// The kept slices that ran in `mode`.
fn kept_of<'a>(measured: &'a [Measured], kept: &[usize], mode: Mode) -> Vec<&'a Measured> {
    kept.iter().map(|&i| &measured[i]).filter(|m| m.mode == mode).collect()
}

/// Everything a run produced.
pub struct Report {
    pub result: RunResult,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

/// Run one workload: `setup` three times (the median is `setup_s`, the
/// last instance is the one measured), then slices for about `seconds`.
pub fn run(
    name: &str,
    setup: &dyn Fn() -> Box<dyn Workload>,
    seconds: u64,
    traced: bool,
    span_path: &std::path::Path,
) -> Report {
    let mut probe = Probe::new();
    // (seconds on the clock, factor to the nominal host) per set-up
    let mut setups: Vec<(f64, f64)> = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for _ in 0..3 {
        // the previous instance goes first, so peak memory is one
        // instance's, as it is for a program that sets up once
        drop(workload.take());
        let window = HostWindow::open(&mut probe);
        let t = Instant::now();
        workload = Some(setup());
        let took = t.elapsed().as_secs_f64();
        setups.push((took, window.close(&mut probe).2));
    }
    let mut w = workload.expect("set-up ran");
    let cycle: &[Mode] = if traced { w.traced_cycle() } else { &[Mode::Plain] };

    let mut tr = Tracer::new();
    let mut measured: Vec<Measured> = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    loop {
        let n = measured.len();
        if n >= cycle.len().max(3) {
            // start another slice only if it should end inside the budget
            let mean = started.elapsed() / n as u32;
            if started.elapsed() + mean > budget + budget / 20 {
                break;
            }
        }
        let mode = cycle[n % cycle.len()];
        let observed = mode != Mode::Plain;
        let first_op = tr.op_id() + 1;
        tr.set_on(observed);
        let cpu0 = procfs::self_cpu_ticks();
        let alloc0 = alloc::counts();
        alloc::set_counting(observed);
        let window = HostWindow::open(&mut probe);
        let out = w.slice(mode, &mut tr, &mut probe);
        let (wall_s, steal, to_nominal) = window.close(&mut probe);
        alloc::set_counting(false);
        let alloc1 = alloc::counts();
        let cpu1 = procfs::self_cpu_ticks();
        tr.set_on(false);
        measured.push(Measured {
            mode,
            out,
            steal,
            to_nominal,
            ops: (first_op, tr.op_id()),
            allocs: (alloc1.0 - alloc0.0, alloc1.1 - alloc0.1),
            cpu_ticks: cpu0.zip(cpu1).map(|(a, b)| b.saturating_sub(a)),
            wall_s,
        });
    }

    let mut lines = Vec::new();
    let mut correct = true;
    let mut fail = |lines: &mut Vec<String>, why: String| {
        lines.push(format!("INCORRECT: {why}"));
        correct = false;
    };

    // every slice replays the same operations, so its exact counters must
    // come out bit-equal whatever was observing it
    let first = &measured[0].out;
    for (i, m) in measured.iter().enumerate().skip(1) {
        if m.out.work != first.work || m.out.lat_ns.len() != first.lat_ns.len() {
            fail(
                &mut lines,
                format!(
                    "slice {i} did other work than slice 0: {:?} vs {:?}",
                    m.out.work, first.work
                ),
            );
        }
    }
    if let Some(why) = measured.iter().find_map(|m| m.out.invalid.as_ref()) {
        fail(&mut lines, format!("workload invalid: {why}"));
    }
    let attempted: u64 = measured.iter().map(|m| m.out.lat_ns.len() as u64).sum();
    let failed: u64 = measured.iter().map(|m| m.out.failed).sum();
    if failed > 0 {
        fail(&mut lines, format!("{failed} of {attempted} operations failed a check"));
    }

    // keep, within each mode, the two thirds of its slices with least steal
    let mut kept: Vec<usize> = Vec::new();
    for mode in [Mode::Plain, Mode::Traced, Mode::Profiled] {
        let idx: Vec<usize> = (0..measured.len()).filter(|&i| measured[i].mode == mode).collect();
        let steal: Vec<Option<f64>> = idx.iter().map(|&i| measured[i].steal).collect();
        for k in stats::select_lowest_steal(&steal, stats::keep_count(idx.len())) {
            kept.push(idx[k]);
        }
    }
    kept.sort_unstable();
    let steal_kept: Vec<f64> = kept.iter().filter_map(|&i| measured[i].steal).collect();
    let steal_share = if steal_kept.is_empty() {
        0.0
    } else {
        steal_kept.iter().sum::<f64>() / steal_kept.len() as f64
    };

    lines.push(format!(
        "workload {name}: {} slices of {} ops, {} kept (steal share of kept {:.4}; per slice {})",
        measured.len(),
        first.lat_ns.len(),
        kept.len(),
        steal_share,
        measured
            .iter()
            .map(|m| m.steal.map_or("-".to_string(), |s| format!("{s:.3}")))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    let timed_s: Vec<f64> =
        measured.iter().map(|m| m.out.lat_ns.iter().sum::<u64>() as f64 / 1e9).collect();
    lines.push(format!(
        "a slice took {:.2} s, {:.2} s of it timed operations (medians)",
        stats::median(&measured.iter().map(|m| m.wall_s).collect::<Vec<_>>()),
        stats::median(&timed_s)
    ));
    let slice_p50: Vec<f64> = measured
        .iter()
        .map(|m| {
            let mut v = m.out.lat_ns.clone();
            v.sort_unstable();
            v[stats::median_rank(v.len())] as f64 / 1e6
        })
        .collect();
    lines.push(format!("median latency per slice, as the clock read it: {slice_p50:.4?} ms"));
    lines.push(format!(
        "the same on the nominal host: {:.4?} ms",
        measured.iter().zip(&slice_p50).map(|(m, p50)| p50 * m.to_nominal).collect::<Vec<_>>()
    ));
    lines.push(format!("ops_attempted {attempted}  ops_failed {failed}"));
    lines.push(format!("work counters per slice: {:?}", first.work));

    let mut metrics: Vec<Metric> = Vec::new();
    if !traced {
        // Two things the host does are taken out of the clock. Time the
        // hypervisor stole: every latency of a slice is scaled by the share
        // of the slice's wall time that was left. And how fast the machine
        // ran while it ran: scaled again by the reference kernel's speed
        // in that slice (in CPU time, so steal is not counted twice),
        // relative to the nominal host. Each operation was then
        // measured once per kept slice; its median over the slices
        // stands for it, which drops what interfered with one replay and
        // not the others.
        let plain = kept_of(&measured, &kept, Mode::Plain);
        let replicas: Vec<Vec<f64>> = plain
            .iter()
            .map(|m| m.out.lat_ns.iter().map(|&ns| ns as f64 * m.to_nominal).collect())
            .collect();
        let mut per_op = stats::per_op_median(&replicas);
        let slice_ns: f64 = per_op.iter().sum();
        per_op.sort_by(f64::total_cmp);
        let ops = per_op.len();
        let (tail_idx, q) = stats::tail_rank_replicated(ops, replicas.len());
        let mut setup_s: Vec<f64> =
            setups.iter().map(|&(wall, to_nominal)| wall * to_nominal).collect();
        setup_s.sort_by(f64::total_cmp);
        let values = [
            per_op[stats::median_rank(ops)] / 1e6,
            per_op[tail_idx] / 1e6,
            plain[0].out.units as f64 / (slice_ns / 1e9),
            procfs::peak_rss_mb().unwrap_or(0.0),
            setup_s[1],
        ];
        let mut raw: Vec<u64> = plain.iter().flat_map(|m| m.out.lat_ns.iter().copied()).collect();
        raw.sort_unstable();
        let n = raw.len();
        lines.push(format!(
            "as the clock read them, pooled over kept slices: p50 {:.6} ms, tail {:.6} ms, set-ups {:.4?} s",
            raw[stats::median_rank(n)] as f64 / 1e6,
            raw[stats::tail_rank(n).0] as f64 / 1e6,
            setups.iter().map(|s| s.0).collect::<Vec<_>>(),
        ));
        lines.push(format!(
            "factor to the nominal host (steal out, reference kernel at {} ms): slices {:.3?}, set-ups {:.3?}",
            probe::NOMINAL_NS / 1e6,
            plain.iter().map(|m| m.to_nominal).collect::<Vec<_>>(),
            setups.iter().map(|s| s.1).collect::<Vec<_>>(),
        ));
        lines.push(format!(
            "latency_ms_tail is q={q:.4} of N={n} samples ({ops} operations x {} kept slices); throughput counts {} per second of timed operation",
            replicas.len(),
            w.unit()
        ));
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            lines.push(format!("{name:<28} {value:>16.6} {unit:<6} samples={n}"));
            metrics.push(Metric { name: name.to_string(), value, unit: unit.to_string() });
        }
    } else {
        let layers = layer_metrics(&*w, &measured, &kept, &tr, steal_share, &mut lines);
        for &(name, unit) in PER_LAYER {
            let value = layers.get(name).copied().unwrap_or(0.0);
            lines.push(format!("{name:<32} {value:>16.6} {unit}"));
            metrics.push(Metric { name: name.to_string(), value, unit: unit.to_string() });
        }
        match tr.write_jsonl(span_path) {
            Ok(()) => {
                lines.push(format!("{} spans written to {}", tr.spans().len(), span_path.display()))
            }
            Err(e) => {
                fail(&mut lines, format!("cannot write spans to {}: {e}", span_path.display()))
            }
        }
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        let why = format!("metric {} is not a finite number", m.name);
        fail(&mut lines, why);
    }
    Report { result: RunResult { correct, attempted, failed, metrics }, lines }
}

/// The per-layer metrics of a traced run, by name.
fn layer_metrics(
    w: &dyn Workload,
    measured: &[Measured],
    kept: &[usize],
    tr: &Tracer,
    steal_share: f64,
    lines: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced = kept_of(measured, kept, Mode::Traced);
    let in_kept_traced = |op: u64| traced.iter().any(|m| m.ops.0 <= op && op <= m.ops.1);

    // time metrics: per-operation sums of the benchmark's spans, median
    let all = tr.spans();
    let own = spans::self_times(all);
    let per_op =
        |span: &str, own_time: bool| spans::per_op(all, &own, span, own_time, &in_kept_traced);
    let median_ns = |v: &[u64]| -> f64 {
        if v.is_empty() {
            return 0.0;
        }
        let mut v = v.to_vec();
        v.sort_unstable();
        v[stats::median_rank(v.len())] as f64
    };
    for m in SPAN_METRICS {
        let per = per_op(m.span, m.own);
        let div = if m.per_unit { w.units_per_op().max(1) as f64 } else { 1.0 };
        out.insert(m.metric, median_ns(&per) / m.ns_per / div);
    }
    // the share of each operation spent in the solver, median over ops
    let op_ns = per_op("op", false);
    let solve_ns = per_op("lp.solve", false);
    if !solve_ns.is_empty() && solve_ns.len() == op_ns.len() {
        let mut shares: Vec<f64> =
            solve_ns.iter().zip(&op_ns).map(|(&s, &o)| stats::share(s as f64, o as f64)).collect();
        shares.sort_by(f64::total_cmp);
        out.insert("lp.solve_share", shares[stats::median_rank(shares.len())]);
        let total =
            stats::share(solve_ns.iter().sum::<u64>() as f64, op_ns.iter().sum::<u64>() as f64);
        lines.push(format!("lp.solve is {total:.4} of all traced operation time (median operation: see lp.solve_share)"));
    }

    // values the traced slices measured themselves: median across slices
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for m in kept.iter().map(|&i| &measured[i]) {
        for &(name, v) in &m.out.layers {
            by_name.entry(name).or_default().push(v);
        }
    }
    for (name, values) in by_name {
        out.insert(name, stats::median(&values));
    }

    // what observing cost: median operation, observed against plain, both
    // on the nominal host — the slices ran at different moments
    let median_lat = |ms: &[&Measured]| -> Option<f64> {
        let mut v: Vec<f64> = ms
            .iter()
            .flat_map(|m| m.out.lat_ns.iter().map(|&ns| ns as f64 * m.to_nominal))
            .collect();
        v.sort_by(f64::total_cmp);
        (!v.is_empty()).then(|| v[stats::median_rank(v.len())])
    };
    let plain = median_lat(&kept_of(measured, kept, Mode::Plain));
    if let (Some(p), Some(t)) = (plain, median_lat(&traced)) {
        out.insert("obs.trace_overhead_share", (t - p) / p);
    }
    if let (Some(p), Some(t)) = (plain, median_lat(&kept_of(measured, kept, Mode::Profiled))) {
        out.insert("obs.profile_overhead_share", (t - p) / p);
    }

    let ops: u64 = traced.iter().map(|m| m.out.lat_ns.len() as u64).sum();
    if ops > 0 {
        let allocs: u64 = traced.iter().map(|m| m.allocs.0).sum();
        let bytes: u64 = traced.iter().map(|m| m.allocs.1).sum();
        let cpu: u64 = traced.iter().filter_map(|m| m.cpu_ticks).sum();
        out.insert("bench.allocs_per_op", allocs as f64 / ops as f64);
        out.insert("bench.alloc_bytes_per_op", bytes as f64 / ops as f64);
        out.insert("bench.cpu_ms_per_op", cpu as f64 * procfs::TICK_MS / ops as f64);
    }
    out.insert("bench.steal_share", steal_share);
    out.insert("bench.slices_kept", kept.len() as f64);
    out
}
