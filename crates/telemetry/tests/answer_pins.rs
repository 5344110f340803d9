//! The exact bits of every TSDB and federation answer, pinned over seeded
//! data shaped to reach the edges of the window search, the bucket walk
//! and the name look-up: irregular timestamps heavy with duplicates, runs
//! from 0, wide gaps, bursts and stretches that end at `u64::MAX`; bucket
//! widths from 1 to `u64::MAX`; names that prefix one another, share a
//! length, are empty or are not ASCII.
//!
//! A change to how these answers are computed must leave every digest
//! as it is.

use dust_telemetry::{Aggregation, Federation, Point, Series, Tsdb};
use dust_topology::{NodeId, SplitMix64};

const NAMES: [&str; 8] = ["cpu", "cpu2", "mem", "", "cp", "温度", "μs-lat", "dsk"];
const BUCKETS: [u64; 4] = [1, 7, 800, u64::MAX];
const AGGS: [Aggregation; 4] =
    [Aggregation::Sum, Aggregation::Mean, Aggregation::Max, Aggregation::Min];
const NODES: [u32; 6] = [0, 1, 5, 9, 40, 41];
const SPECIALS: [f64; 6] = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e308];

/// FNV-1a over the little-endian bytes of every word folded in.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A value's bits, every NaN as one pattern: Rust leaves a NaN's sign
    /// and payload unspecified, everything else must match to the bit.
    fn value(&mut self, v: f64) {
        self.word(if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() });
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            None => self.word(0),
            Some(v) => {
                self.word(1);
                self.value(v);
            }
        }
    }

    fn points(&mut self, points: &[Point]) {
        self.word(points.len() as u64);
        for p in points {
            self.word(p.ts_ms);
            self.value(p.value);
        }
    }

    fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        s.bytes().for_each(|b| self.word(u64::from(b)));
    }
}

fn value(rng: &mut SplitMix64) -> f64 {
    match rng.below(4) {
        0 => SPECIALS[rng.below(SPECIALS.len() as u64) as usize],
        _ => rng.range_f64(-100.0, 100.0),
    }
}

/// Ascending timestamps in one of four shapes: from 0 with duplicates
/// and gaps, bursts of duplicates on a period, a stretch that runs into
/// `u64::MAX` and stays there, and a few huge gaps.
fn timestamps(rng: &mut SplitMix64) -> Vec<u64> {
    let len = rng.below(120) as usize;
    let shape = rng.below(4);
    let mut ts = match shape {
        0 => 0,
        1 => rng.below(3) * 1_000,
        2 => u64::MAX - rng.below(4_000),
        _ => rng.below(1 << 40),
    };
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(ts);
        let delta = match (shape, rng.below(10)) {
            (_, 0..=3) => 0,
            (0, 4..=7) => 1 + rng.below(10),
            (0, _) => rng.below(1_000_000_000),
            (1, 4..=8) => 0,
            (1, _) => 100,
            (2, _) => rng.below(90),
            (_, 4..=6) => rng.below(8),
            (_, _) => rng.below(1 << 62),
        };
        ts = ts.saturating_add(delta);
    }
    out
}

/// A store whose series are created in a seeded order, some only
/// resolved (empty), some filled by name and some through the handle.
fn store(rng: &mut SplitMix64) -> Tsdb {
    let mut db = Tsdb::new();
    for _ in 0..rng.below(NAMES.len() as u64 + 1) {
        let name = NAMES[rng.below(NAMES.len() as u64) as usize];
        if db.series(name).is_some_and(|s| !s.is_empty()) {
            continue;
        }
        match rng.below(3) {
            0 => {
                db.series_id(name);
            }
            1 => {
                for t in timestamps(rng) {
                    db.append(name, t, value(rng));
                }
            }
            _ => {
                let id = db.series_id(name);
                for t in timestamps(rng) {
                    db.append_to(id, t, value(rng));
                }
            }
        }
    }
    db
}

/// Query windows: everything, nothing, inverted, empty, bounds on and
/// beside stored timestamps (so they land inside runs of duplicates),
/// and windows that end at `u64::MAX`.
fn windows(rng: &mut SplitMix64, points: &[Point]) -> Vec<(u64, u64)> {
    let mut near = || match points.len() {
        0 => rng.next_u64(),
        n => {
            let t = points[rng.below(n as u64) as usize].ts_ms;
            t.saturating_add(rng.below(3)).saturating_sub(1)
        }
    };
    let (a, b) = (near(), near());
    vec![
        (0, u64::MAX),
        (0, 0),
        (a, b),
        (b, a),
        (a, a),
        (a, a.saturating_add(1_000)),
        (u64::MAX - 2_000, u64::MAX),
        (u64::MAX - 1, u64::MAX),
    ]
}

fn series_answers(d: &mut Digest, rng: &mut SplitMix64, s: &Series) {
    d.points(s.points());
    for (start, end) in windows(rng, s.points()) {
        d.points(s.range(start, end));
        d.opt(s.mean(start, end));
        d.opt(s.max(start, end));
    }
    for bucket in BUCKETS {
        d.points(s.downsample(bucket).points());
    }
    let newest = s.points().last().map_or(0, |p| p.ts_ms);
    for (now, horizon) in
        [(newest, 0), (newest, rng.below(2_000)), (u64::MAX, rng.next_u64()), (0, 0), (u64::MAX, 0)]
    {
        let mut trimmed = s.clone();
        d.word(trimmed.trim(now, horizon) as u64);
        d.points(trimmed.points());
    }
}

/// Digests of `(series answers, name answers, federation answers)` over
/// the given seeds.
fn digests(seeds: std::ops::Range<u64>) -> [u64; 3] {
    let (mut series, mut names, mut federation) = (Digest::new(), Digest::new(), Digest::new());
    for seed in seeds {
        let mut rng = SplitMix64::new(seed);
        let mut fed = Federation::new();
        for node in NODES {
            if rng.below(5) > 0 {
                fed.attach(NodeId(node), store(&mut rng));
            }
        }
        for node in fed.nodes() {
            let db = fed.store(node).expect("attached");
            names.word(u64::from(node.0));
            for name in db.series_names() {
                names.text(name);
                let s = db.series(name).expect("listed series exist");
                series_answers(&mut series, &mut rng, s);
            }
            // resolving every name on a copy: the existing keep their
            // handles, the absent are created after them in this order
            let mut copy = db.clone();
            for name in NAMES.into_iter().chain(["cpu3", "c", "温"]) {
                names.text(&format!("{name}={:?}", copy.series_id(name)));
            }
            for name in copy.series_names() {
                names.text(name);
            }
        }
        for name in NAMES.into_iter().chain(["absent"]) {
            let holders = fed.holders(name);
            federation.word(holders.len() as u64);
            holders.iter().for_each(|n| federation.word(u64::from(n.0)));
            federation.opt(fed.latest_mean(name));
            let held: Vec<Point> = fed
                .nodes()
                .into_iter()
                .filter_map(|n| fed.store(n)?.series(name))
                .flat_map(|s| s.points().iter().copied())
                .collect();
            for (start, end) in windows(&mut rng, &held) {
                for bucket in BUCKETS {
                    for agg in AGGS {
                        federation.points(fed.query(name, start, end, bucket, agg).points());
                    }
                }
            }
        }
    }
    [series.0, names.0, federation.0]
}

#[test]
fn every_answer_keeps_its_bits() {
    assert_eq!(
        digests(0..64),
        [5_780_565_251_780_803_425, 8_083_320_151_112_263_967, 1_185_372_802_189_594_687]
    );
}
