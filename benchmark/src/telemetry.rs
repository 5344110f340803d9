//! `telemetry_rw`: the time-series layer with reads, the wire path and
//! retention running beside the simulator's append pattern, so a change
//! that speeds appends and slows anything else is caught.

use crate::harness::{Mode, SliceOut, Workload};
use crate::probe::Probe;
use crate::spans::Tracer;
use dust::prelude::*;
use dust::telemetry::{deframe, frame, Aggregation, Point};
use std::collections::BTreeMap;
use std::time::Instant;

const STORES: usize = 512;
const SERIES: [&str; 8] = [
    "device-cpu",
    "device-mem",
    "monitor-cpu",
    "telemetry-admitted-mbps",
    "telemetry-dropped",
    "link-utilization",
    "queue-depth",
    "packet-rate",
];
/// Points per series at the start, one every `STEP_MS`.
const PREFILL: u64 = 256;
const STEP_MS: u64 = 100;
/// Retention: what the stores are trimmed back to, so state is steady.
const HORIZON_MS: u64 = PREFILL * STEP_MS;
/// Each store is trimmed on every this-many-th operation.
const TRIM_EVERY: usize = 8;
/// Stores whose series are read directly in one operation.
const READ_STORES: usize = 64;
const WINDOW_MS: u64 = 64 * STEP_MS;
const BUCKET_MS: u64 = 8 * STEP_MS;
/// Operations whose reads are re-computed naively from the raw points.
const AUDIT_EVERY: usize = 8;
/// About 3.5 ms an operation, so a slice runs about two seconds.
const OPS_PER_SLICE: usize = 560;
/// Operations during set-up, so that one set-up takes more than a second.
const WARMUP_OPS: usize = 300;
const POINTS_PER_OP: usize = STORES * SERIES.len();

/// What one operation read, kept for the untimed checks.
struct Reads {
    mean: Series,
    max: Series,
    latest: Option<f64>,
    /// Per directly-read series: points in the window, their mean and max.
    windows: Vec<(usize, Option<f64>, Option<f64>)>,
    downsampled: Vec<Series>,
    wire_ok: bool,
    framed_bytes: u64,
    wire_points: u64,
}

pub struct Telemetry {
    template: Federation,
    /// One value per store and series per operation, warm-up first.
    values: Vec<f64>,
    points_start: u64,
}

fn point_count(fed: &Federation) -> u64 {
    fed.nodes().iter().filter_map(|&n| fed.store(n)).map(|db| db.point_count() as u64).sum()
}

impl Telemetry {
    pub fn setup(seed: u64) -> Telemetry {
        let mut rng = SplitMix64::new(seed ^ 0xD057_0003);
        // a bounded random walk per series: compressible, never constant
        let mut level: Vec<f64> = (0..POINTS_PER_OP).map(|_| rng.range_f64(10.0, 90.0)).collect();
        let mut step = |level: &mut Vec<f64>, out: &mut Vec<f64>| {
            for v in level.iter_mut() {
                *v = (*v + rng.range_f64(-1.0, 1.0)).clamp(0.0, 100.0);
                out.push(*v);
            }
        };
        let mut prefill = Vec::with_capacity(PREFILL as usize * POINTS_PER_OP);
        for _ in 0..PREFILL {
            step(&mut level, &mut prefill);
        }
        let mut values = Vec::with_capacity((WARMUP_OPS + OPS_PER_SLICE) * POINTS_PER_OP);
        for _ in 0..WARMUP_OPS + OPS_PER_SLICE {
            step(&mut level, &mut values);
        }

        let mut fed = Federation::new();
        for (tick, batch) in prefill.chunks_exact(POINTS_PER_OP).enumerate() {
            append_batch(&mut fed, tick as u64 * STEP_MS, batch);
        }
        let mut tr = Tracer::new();
        for j in 0..WARMUP_OPS {
            let (_, reads) = operation(&mut fed, j, &values, &mut tr);
            assert!(check(&fed, j, &reads), "warm-up operation {j} failed its checks");
        }
        let points_start = point_count(&fed);
        Telemetry { template: fed, values, points_start }
    }
}

/// Append one point to every series of every store, the way the
/// simulator's sample loop does: one keyed store look-up per node, one
/// keyed series look-up per point.
fn append_batch(fed: &mut Federation, ts_ms: u64, batch: &[f64]) {
    for (s, row) in batch.chunks_exact(SERIES.len()).enumerate() {
        let db = fed.store_mut(NodeId(s as u32));
        for (name, &v) in SERIES.iter().zip(row) {
            db.append(name, ts_ms, v);
        }
    }
}

/// Operation `j` since the prefill: trim, append, then read.
fn operation(fed: &mut Federation, j: usize, values: &[f64], tr: &mut Tracer) -> (u64, Reads) {
    let ts = (PREFILL + j as u64) * STEP_MS;
    let (from, to) = (ts + STEP_MS - WINDOW_MS, ts + STEP_MS);
    tr.next_op();
    let t0 = Instant::now();
    let op = tr.enter("op");

    let s = tr.enter("telemetry.trim");
    for store in (j % TRIM_EVERY..STORES).step_by(TRIM_EVERY) {
        std::hint::black_box(fed.store_mut(NodeId(store as u32)).trim_all(ts, HORIZON_MS));
    }
    tr.exit(s);

    let s = tr.enter("telemetry.append");
    append_batch(fed, ts, &values[j * POINTS_PER_OP..(j + 1) * POINTS_PER_OP]);
    tr.exit(s);

    let s = tr.enter("telemetry.query");
    let mean = fed.query(SERIES[j % 8], from, to, BUCKET_MS, Aggregation::Mean);
    let max = fed.query(SERIES[(j + 3) % 8], from, to, BUCKET_MS, Aggregation::Max);
    let latest = fed.latest_mean(SERIES[(j + 5) % 8]);
    let read: Vec<&Series> = (0..READ_STORES)
        .map(|r| NodeId(((j * READ_STORES + r) % STORES) as u32))
        .map(|n| {
            fed.store(n).and_then(|db| db.series(SERIES[(j + n.index()) % 8])).expect("prefilled")
        })
        .collect();
    let windows =
        read.iter().map(|s| (s.range(from, to).len(), s.mean(from, to), s.max(from, to))).collect();
    tr.exit(s);

    let s = tr.enter("telemetry.downsample");
    let downsampled = read.iter().map(|s| s.downsample(BUCKET_MS)).collect();
    tr.exit(s);

    let original = read[0];
    let s = tr.enter("telemetry.compress");
    let block = compress(original);
    tr.exit(s);
    let s = tr.enter("telemetry.frame");
    let bytes = frame(&block);
    let deframed = deframe(&bytes);
    tr.exit(s);
    let s = tr.enter("telemetry.decompress");
    let back = deframed.as_ref().ok().and_then(|(b, _)| decompress(b));
    tr.exit(s);

    tr.exit(op);
    let lat_ns = t0.elapsed().as_nanos() as u64;
    let wire_ok =
        deframed.is_ok_and(|(_, used)| used == bytes.len()) && back.as_ref() == Some(original);
    let reads = Reads {
        mean,
        max,
        latest,
        windows,
        downsampled,
        wire_ok,
        framed_bytes: bytes.len() as u64,
        wire_points: original.len() as u64,
    };
    (lat_ns, reads)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

fn close_opt(a: Option<f64>, b: Option<f64>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => close(a, b),
        (None, None) => true,
        _ => false,
    }
}

fn same_series(got: &Series, want: &[(u64, f64)]) -> bool {
    got.len() == want.len()
        && got.points().iter().zip(want).all(|(p, &(ts, v))| p.ts_ms == ts && close(p.value, v))
}

/// Bucket means of raw points, the slow obvious way.
fn naive_buckets(points: &[Point], from: u64, to: u64) -> Vec<(u64, f64)> {
    let mut acc: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    for p in points.iter().filter(|p| from <= p.ts_ms && p.ts_ms < to) {
        let slot = acc.entry(p.ts_ms / BUCKET_MS * BUCKET_MS).or_default();
        slot.0 += p.value;
        slot.1 += 1;
    }
    acc.into_iter().map(|(b, (sum, n))| (b, sum / n as f64)).collect()
}

fn naive_query(fed: &Federation, name: &str, from: u64, to: u64, max: bool) -> Vec<(u64, f64)> {
    let mut across: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for node in fed.nodes() {
        let points = fed.store(node).and_then(|db| db.series(name)).map_or(&[][..], Series::points);
        for (b, v) in naive_buckets(points, from, to) {
            across.entry(b).or_default().push(v);
        }
    }
    across
        .into_iter()
        .map(|(b, vs)| {
            let v = if max {
                vs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            } else {
                vs.iter().sum::<f64>() / vs.len() as f64
            };
            (b, v)
        })
        .collect()
}

/// Check what operation `j` read against the state it left behind
/// (nothing is written after the reads). The wire round trip is checked
/// on every operation, the naive references on every [`AUDIT_EVERY`]th.
fn check(fed: &Federation, j: usize, reads: &Reads) -> bool {
    if !reads.wire_ok {
        return false;
    }
    if !j.is_multiple_of(AUDIT_EVERY) {
        return true;
    }
    let ts = (PREFILL + j as u64) * STEP_MS;
    let (from, to) = (ts + STEP_MS - WINDOW_MS, ts + STEP_MS);
    let mut ok = same_series(&reads.mean, &naive_query(fed, SERIES[j % 8], from, to, false))
        && same_series(&reads.max, &naive_query(fed, SERIES[(j + 3) % 8], from, to, true));
    let lasts: Vec<f64> = fed
        .nodes()
        .iter()
        .filter_map(|&n| {
            fed.store(n)?.series(SERIES[(j + 5) % 8])?.points().last().map(|p| p.value)
        })
        .collect();
    ok &= close_opt(
        reads.latest,
        (!lasts.is_empty()).then(|| lasts.iter().sum::<f64>() / lasts.len() as f64),
    );
    for r in 0..READ_STORES {
        let n = NodeId(((j * READ_STORES + r) % STORES) as u32);
        let Some(series) = fed.store(n).and_then(|db| db.series(SERIES[(j + n.index()) % 8]))
        else {
            return false;
        };
        let window: Vec<f64> = series
            .points()
            .iter()
            .filter(|p| from <= p.ts_ms && p.ts_ms < to)
            .map(|p| p.value)
            .collect();
        let (count, mean, max) = reads.windows[r];
        ok &= count == window.len()
            && close_opt(
                mean,
                (!window.is_empty()).then(|| window.iter().sum::<f64>() / window.len() as f64),
            )
            && close_opt(max, window.iter().copied().reduce(f64::max))
            && same_series(&reads.downsampled[r], &naive_buckets(series.points(), 0, u64::MAX));
    }
    ok
}

impl Workload for Telemetry {
    fn unit(&self) -> &'static str {
        "points appended"
    }

    fn units_per_op(&self) -> u64 {
        POINTS_PER_OP as u64
    }

    fn slice(&mut self, mode: Mode, tr: &mut Tracer, probe: &mut Probe) -> SliceOut {
        let mut fed = self.template.clone();
        let mut out = SliceOut::default();
        let (mut framed_bytes, mut wire_points, mut digest) = (0u64, 0u64, 0u64);
        for j in WARMUP_OPS..WARMUP_OPS + OPS_PER_SLICE {
            probe.pulse();
            let (lat_ns, reads) = operation(&mut fed, j, &self.values, tr);
            out.lat_ns.push(lat_ns);
            out.failed += u64::from(!check(&fed, j, &reads));
            framed_bytes += reads.framed_bytes;
            wire_points += reads.wire_points;
            for p in reads.mean.points().iter().chain(reads.max.points()) {
                digest = digest.rotate_left(7) ^ p.value.to_bits();
            }
        }
        out.units = (OPS_PER_SLICE * POINTS_PER_OP) as u64;
        let points_end = point_count(&fed);
        out.work = vec![
            ("points_appended", out.units),
            ("points_start", self.points_start),
            ("points_end", points_end),
            ("framed_bytes", framed_bytes),
            ("query_digest", digest),
        ];
        if points_end * 20 > self.points_start * 21 {
            out.invalid = Some(format!(
                "stored points grew from {} to {points_end} in one slice",
                self.points_start
            ));
        }
        if mode != Mode::Plain {
            out.layers = vec![(
                "telemetry.bytes_per_point",
                framed_bytes as f64 / wire_points.max(1) as f64,
            )];
        }
        out
    }
}
