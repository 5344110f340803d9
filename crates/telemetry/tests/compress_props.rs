//! Seeded random-series tests: Gorilla compression must be lossless on
//! arbitrary monotone time series, and TSDB invariants must hold under
//! random usage.

use dust_telemetry::{compress, decompress, CompressedBlock, FrameError, Series, Tsdb};
use dust_topology::SplitMix64;

/// Arbitrary monotone series: random non-negative deltas and float values
/// (including weird ones: infinities, extreme magnitudes, subnormals).
fn arb_series(rng: &mut SplitMix64) -> Series {
    let len = rng.below(200) as usize;
    let mut s = Series::default();
    let mut t = 0u64;
    for _ in 0..len {
        t += rng.below(5_000);
        let v = match rng.below(10) {
            0 => 0.0,
            1 => match rng.below(4) {
                0 => f64::INFINITY,
                1 => f64::NEG_INFINITY,
                2 => f64::MAX,
                _ => f64::MIN_POSITIVE,
            },
            _ => rng.range_f64(-1.0e6, 1.0e6),
        };
        s.push(t, v);
    }
    s
}

/// Lossless round trip for arbitrary series.
#[test]
fn compression_is_lossless() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let block = compress(&s);
        assert_eq!(block.count, s.len(), "seed {seed}");
        let back = decompress(&block).expect("well-formed block must decompress");
        assert_eq!(back.points(), s.points(), "seed {seed}");
    }
}

/// Steady cadences compress below raw size once the series is long
/// enough to amortize the 17-byte header.
#[test]
fn steady_series_beat_raw() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let n = rng.range_u64(10, 300) as usize;
        let period = rng.range_u64(1, 10_000);
        let v = rng.range_f64(-100.0, 100.0);
        let mut s = Series::default();
        for i in 0..n as u64 {
            s.push(i * period, v);
        }
        let block = compress(&s);
        assert!(
            block.size_bytes() < n * 16,
            "seed {seed}: {} bytes vs raw {}",
            block.size_bytes(),
            n * 16
        );
    }
}

/// Range queries return exactly the in-window points, in order.
#[test]
fn range_is_exact() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let start = rng.below(100_000);
        let end = start.saturating_add(rng.below(100_000));
        let got = s.range(start, end);
        let expect: Vec<_> =
            s.points().iter().copied().filter(|p| p.ts_ms >= start && p.ts_ms < end).collect();
        assert_eq!(got, &expect[..], "seed {seed}");
    }
}

/// Downsampling never yields more points than the source.
#[test]
fn downsample_shrinks() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let bucket = rng.range_u64(1, 5_000);
        // skip pathological float inputs
        if s.points().iter().any(|p| !p.value.is_finite()) {
            continue;
        }
        let d = s.downsample(bucket);
        assert!(d.len() <= s.len(), "seed {seed}");
        if !s.is_empty() {
            assert!(!d.is_empty(), "seed {seed}");
        }
    }
}

/// Retention trims exactly the points older than the horizon.
#[test]
fn trim_respects_horizon() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let now = rng.below(2_000_000);
        let horizon = rng.below(1_000_000);
        let mut t = s.clone();
        let dropped = t.trim(now, horizon);
        let cutoff = now.saturating_sub(horizon);
        assert_eq!(dropped + t.len(), s.len(), "seed {seed}");
        assert!(t.points().iter().all(|p| p.ts_ms >= cutoff), "seed {seed}");
    }
}

/// TSDB appends are isolated per series name.
#[test]
fn tsdb_series_isolated() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        // 1–29 names over the same alphabet as the old "[a-c]{1,2}" regex
        let count = rng.range_u64(1, 30) as usize;
        let names: Vec<String> = (0..count)
            .map(|_| {
                let len = 1 + rng.below(2) as usize;
                (0..len).map(|_| (b'a' + rng.below(3) as u8) as char).collect()
            })
            .collect();
        let mut db = Tsdb::new();
        for (i, n) in names.iter().enumerate() {
            db.append(n, i as u64, i as f64);
        }
        let total: usize = db.series_names().iter().map(|n| db.series(n).unwrap().len()).sum();
        assert_eq!(total, names.len(), "seed {seed}");
    }
}

use dust_telemetry::{deframe, frame};

/// Framing round-trips any compressed block, and single-bit corruption
/// anywhere in the payload or checksum is always detected.
#[test]
fn framing_roundtrip_and_corruption() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        let flip_bit = rng.next_u64() as u32;
        let block = compress(&s);
        let framed = frame(&block);
        let (back, used) = deframe(&framed).expect("own frames must parse");
        assert_eq!(used, framed.len(), "seed {seed}");
        assert_eq!(&back, &block, "seed {seed}");

        // flip one bit beyond the magic: must fail (header fields may fail
        // differently than payload, but never silently succeed with
        // different content)
        if framed.len() > 5 {
            let idx = 4 + (flip_bit as usize % (framed.len() - 4));
            let bit = 1u8 << (flip_bit % 8);
            let mut corrupt = framed.clone();
            corrupt[idx] ^= bit;
            match deframe(&corrupt) {
                Err(_) => {}
                Ok((b, _)) => assert_eq!(
                    b, block,
                    "seed {seed}: a parse that succeeds after a bit flip must still match (flip hit padding)"
                ),
            }
        }
    }
}

/// Deframing arbitrary bytes never panics.
#[test]
fn deframe_is_total() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.below(300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = deframe(&bytes);
        let _ = dust_telemetry::deframe_stream(&bytes);
    }
}

// ---- wire pins --------------------------------------------------------------
//
// The bytes `compress` and `frame` produce are a wire format: a receiver
// built from another commit must read them. The pins come from the
// bit-at-a-time coder that defined the format; any coder must reproduce them.

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a of the block's payload and of its frame.
fn wire_pin(s: &Series) -> (u64, u64) {
    let block = compress(s);
    assert_eq!(block.count, s.len());
    (fnv1a(&block.bytes), fnv1a(&frame(&block)))
}

fn series_of(pts: &[(u64, f64)]) -> Series {
    let mut s = Series::default();
    for &(t, v) in pts {
        s.push(t, v);
    }
    s
}

/// The hand cases of `compress.rs`'s unit tests, by name.
fn hand_cases() -> Vec<(&'static str, Series)> {
    let steady: Vec<_> = (0..100u64).map(|i| (i * 1000, 55.0)).collect();
    let drift: Vec<_> = (0..200u64).map(|i| (i * 500, 40.0 + (i as f64) * 0.25)).collect();
    let alternating: Vec<_> =
        (0..64u64).map(|i| (i, if i % 2 == 0 { 1.5 } else { -2.5 })).collect();
    vec![
        ("empty", series_of(&[])),
        ("single", series_of(&[(42, 3.125)])),
        ("two", series_of(&[(7, 1.0), (9, 1.0)])),
        (
            "64-bit dod escape",
            series_of(&[(0, 1.0), (10, 2.0), (1_000_000_000, 3.0), (1_000_000_010, 4.0)]),
        ),
        ("signed zeros", series_of(&[(0, 0.0), (1, -0.0), (2, 0.0), (3, -0.0)])),
        (
            "infinities and extremes",
            series_of(&[
                (0, 0.0),
                (1, -0.0),
                (2, f64::MAX),
                (3, f64::MIN_POSITIVE),
                (4, f64::INFINITY),
                (5, f64::NEG_INFINITY),
            ]),
        ),
        ("equal timestamps", series_of(&[(5, 1.0), (5, 2.0), (5, 3.0)])),
        ("steady", series_of(&steady)),
        ("slow drift", series_of(&drift)),
        ("alternating", series_of(&alternating)),
        (
            "largest timestamps",
            series_of(&[(u64::MAX - 2, 1.0), (u64::MAX - 1, 2.0), (u64::MAX, 3.0)]),
        ),
    ]
}

const HAND_PINS: [(u64, u64); 11] = [
    (0xcbf29ce484222325, 0xa22862c65b727b9f),
    (0xb346974341dfb2b4, 0xd44b0a62faaa4a3d),
    (0xa71651e6d06863b9, 0xc80afb4d8ddb5554),
    (0xced7560a7280fc3a, 0x41fd358fb87a4b1e),
    (0x0a85a29699f41f04, 0x47fcbc6690e897a4),
    (0xbceb088cc240e07e, 0xc78d201b39ca87ed),
    (0x963a91cf7a0c3e59, 0xdf02341e56f8d777),
    (0x03b891ea14aae5b9, 0x93251c32e3dcdaf8),
    (0xb6761c3a257f46c3, 0x0c86a7eb97644fee),
    (0xd9dfed726b5cfa3a, 0x82a408c0a52c8382),
    (0x5537fc4973b4b628, 0x1cb01809a070e6a4),
];

const SEEDED_PINS: [(u64, u64); 64] = [
    (0x307db6e3946d5aed, 0xe91adac87f4cc1f1),
    (0xfed8e131f01cca0e, 0x0921a5b352121250),
    (0x249666f59b26a9d1, 0x4f3db6ab0b8ee2e7),
    (0x976d0520b12ace80, 0xd29f1439c55e884e),
    (0xf380d2391b432db5, 0xefe89efd805fb192),
    (0x361cc6582f861098, 0x6010df5921ff3c48),
    (0x2aa94e9d20a93868, 0x920cfcb1a9fcbefb),
    (0x13996106bdc6cc36, 0x1ac4f82833eee797),
    (0xa935a156d6504c5a, 0xb70cd73c9e6a99da),
    (0xe3373c8d3670840c, 0xf64a6c45e03cfca3),
    (0x33ef04378d401c25, 0xf2f4f8714a99fc6e),
    (0xf853519f77b93166, 0x4887bfaf21665f58),
    (0xe02b1321fdf641a3, 0xd718382dfba4515a),
    (0xf1ebcf51555a0ef2, 0xd20a1137910815bd),
    (0xfdf6a667e476b8bc, 0x4541a433e7aa10a1),
    (0x0b0e53153661cbd9, 0xd1af2200008aac1a),
    (0x12652958214a9094, 0x167179a23d8f45f5),
    (0x928bece18b2c1082, 0x77975bde5fe0af6e),
    (0x7293edbe5df92049, 0x9a3476ee8b020772),
    (0x6d00e8208eb0cfff, 0x8434912874dff364),
    (0x9151c498cc1ace98, 0xd172477e84b00f66),
    (0xbe8dfde5ebf5d19c, 0xe949c820042a870d),
    (0x54e0fb5e8ee99b10, 0x792278f94d35e227),
    (0xde08fe1ffc687c7b, 0xe9617aec1f365453),
    (0x5b8b75531310047d, 0xac79c7ee05741b6f),
    (0x169523b9b8a13bb6, 0x58db37ed4b72bff9),
    (0x1130e6963425041a, 0x16de05884921e2aa),
    (0x323fa1b600469f8e, 0x034ccd5d765d7b8e),
    (0x65e3174ad79eabe5, 0xd995f6d37f02d99e),
    (0x0449d9641d532e7d, 0xd82f665cfb04e4e5),
    (0xb7f295517395dff4, 0xe097edd0aaf0262f),
    (0x1585ee304e179e42, 0xfc25717670a3f4e9),
    (0xb54bb8c166a9bafc, 0x0f7e6427e93ac0e4),
    (0xb42800890c85637c, 0x60413ecbb94906b7),
    (0x83d43d2c1f5a9e74, 0x1404387472242809),
    (0xb9107f06ee558955, 0xa3714bbc1922978d),
    (0xd98885bb9b0169af, 0xffbae4c992d84abb),
    (0x0dfb224f4a909876, 0xd16eabeaf5332e85),
    (0x96feb1ca926cf006, 0x2e1b15093126762b),
    (0x46989e72904dcff5, 0x7b38b895a6a8da09),
    (0x50a2d7a892e43791, 0x7751692459ba7cfe),
    (0x8573e0acca542efb, 0x0e6331ca1d94b640),
    (0x8151a000f0bccd13, 0x6b5100fbaf400b49),
    (0x969dd7241e6a4b2f, 0xb2bcdbf9077ed48c),
    (0xdc4ebc7fb79d15de, 0xd77103771d0caa0f),
    (0x5804f45f5b47cba5, 0xde994bc0662ae173),
    (0x19bad622b852fed5, 0xafdcc437bab6d30f),
    (0x94caf9cc1aca7a15, 0x0eeeadb7ee1bda12),
    (0x64baa451db0f51af, 0xec2a571b009c1288),
    (0x561fd9e5a303b79a, 0xd8277bb7202ca5b6),
    (0x735287ce70c3f836, 0x89f930cbe4b5afb4),
    (0xa3fa4b18fcf9cf30, 0x37c322d7621beea6),
    (0xfb72e408184591e3, 0xfd779915202f0cf5),
    (0xba831a0d54859ec6, 0xf51aba768da3b382),
    (0xd6022ec22a3aed18, 0x0e66effa922fe145),
    (0xcabf5bc04bce70e5, 0xd8a09b8b8e1ed720),
    (0x904569c0d496d48b, 0x36eaa8fb0b6e93b1),
    (0x016bd3805abf0046, 0x411a3f03b387d245),
    (0xe1e56076e40dd347, 0x985a9177fdd3f75c),
    (0x504880f8dd4b3d9c, 0x9acbf8d993140000),
    (0x67934972660338e7, 0x3e3aef91e4d3f682),
    (0xad90c174b89a609a, 0x6f728ee96db9ba5a),
    (0x8ecab41e7681bfc8, 0xa75ffae267a7316a),
    (0xb848e0ddcfc28e63, 0x3121af8310b86438),
];

#[test]
fn wire_bytes_of_the_hand_cases_are_pinned() {
    let cases = hand_cases();
    assert_eq!(cases.len(), HAND_PINS.len());
    for ((name, s), want) in cases.iter().zip(HAND_PINS) {
        let got = wire_pin(s);
        assert_eq!(got, want, "{name}: (payload, frame) FNV-1a is {got:#x?}");
    }
}

#[test]
fn wire_bytes_of_seeded_series_are_pinned() {
    let got: Vec<(u64, u64)> =
        (0..64u64).map(|seed| wire_pin(&arb_series(&mut SplitMix64::new(seed)))).collect();
    assert_eq!(got[..], SEEDED_PINS[..], "(payload, frame) FNV-1a per seed: {got:#x?}");
}

#[test]
fn crc32_of_seeded_bytes_is_pinned() {
    let mut rng = SplitMix64::new(0x000C_4C32);
    let bytes: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
    assert_eq!(dust_telemetry::crc32(&bytes), 0x81b0_98f3);
    // every prefix length class the table loop could mishandle
    assert_eq!(dust_telemetry::crc32(&bytes[..1]), 0x550a_4c5f);
    assert_eq!(dust_telemetry::crc32(&bytes[3..10]), 0xe6a0_31b0);
}

/// A block cut short at any byte is `None`, never a panic and never a
/// shorter series: the count says how many points to expect.
#[test]
fn truncated_blocks_are_none() {
    let seeded = (0..16u64).map(|seed| arb_series(&mut SplitMix64::new(seed)));
    for s in seeded.chain(hand_cases().into_iter().map(|(_, s)| s)) {
        let block = compress(&s);
        for cut in 0..block.bytes.len() {
            let short = CompressedBlock { count: block.count, bytes: block.bytes[..cut].to_vec() };
            assert!(decompress(&short).is_none(), "{} points cut at byte {cut}", s.len());
        }
    }
}

// ---- hostile input ------------------------------------------------------------
//
// `decompress` takes any `CompressedBlock` and `deframe` any bytes; the
// frame CRC does not stand between a caller and `decompress`. Neither may
// panic, in a debug build (overflow checks on) or a release build (this
// file runs in both, see CI).

/// `decompress` must answer; when it answers `Some`, with a valid series.
fn assert_decodes_sanely(block: &CompressedBlock, ctx: &str) {
    if let Some(s) = decompress(block) {
        assert_eq!(s.len(), block.count, "{ctx}");
        assert!(s.points().windows(2).all(|w| w[0].ts_ms <= w[1].ts_ms), "{ctx}: out of order");
    }
}

#[test]
fn corrupt_blocks_never_panic() {
    for seed in [5u64, 6, 9] {
        let mut rng = SplitMix64::new(seed);
        let s = arb_series(&mut rng);
        assert!(s.len() >= 40, "seed {seed}: {} points", s.len());
        let block = compress(&s);
        // every single-bit flip
        for bit in 0..block.bytes.len() * 8 {
            let mut hit = block.clone();
            hit.bytes[bit / 8] ^= 1 << (bit % 8);
            assert_decodes_sanely(&hit, &format!("seed {seed} bit {bit}"));
        }
        // bytes overwritten in several places, the block cut or padded, and
        // a count the payload cannot hold
        for round in 0..2_000 {
            let mut hit = block.clone();
            for _ in 0..=rng.below(4) {
                let at = rng.below(hit.bytes.len() as u64) as usize;
                hit.bytes[at] = rng.next_u64() as u8;
            }
            match rng.below(8) {
                0 => hit.bytes.truncate(rng.below(hit.bytes.len() as u64) as usize),
                1 => hit.bytes.extend((0..rng.below(40)).map(|_| rng.next_u64() as u8)),
                2 => hit.count += 1 + rng.below(500) as usize,
                3 => hit.count = usize::MAX - rng.below(3) as usize,
                _ => {}
            }
            assert_decodes_sanely(&hit, &format!("seed {seed} round {round}"));
        }
    }
}

#[test]
fn corrupt_window_headers_and_timestamps_are_none() {
    // "previous window" before any window was sent: after the 192 header
    // bits, value control bits `10`
    let mut bytes = vec![0u8; 24];
    bytes.push(0b1000_0000);
    assert_eq!(decompress(&CompressedBlock { count: 2, bytes }), None);
    // a window of 31 leading zeros and 64 meaningful bits: `11`, 11111, 111111
    let mut bytes = vec![0u8; 24];
    bytes.extend([0xFF; 10]);
    assert_eq!(decompress(&CompressedBlock { count: 2, bytes }), None);
    // second timestamp before the first: first delta zigzag(-1) = 1
    let mut bytes = vec![0u8; 24];
    bytes[7] = 9; // ts0 = 9
    bytes[23] = 1;
    bytes.push(0);
    assert_eq!(decompress(&CompressedBlock { count: 2, bytes }), None);
    // second timestamp past u64::MAX: ts0 = u64::MAX, first delta +1
    let mut bytes = vec![0xFF; 8];
    bytes.extend([0u8; 16]);
    bytes[23] = 2;
    bytes.push(0);
    assert_eq!(decompress(&CompressedBlock { count: 2, bytes }), None);
}

#[test]
fn hostile_frame_lengths_are_truncated_frames() {
    let varint = |mut v: u64| {
        let mut out = Vec::new();
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
        out
    };
    let frame_claiming = |len: u64| {
        let mut buf = b"DTF1".to_vec();
        buf.push(1);
        buf.extend(varint(len));
        buf.extend([0xAB; 8]);
        buf
    };
    // `pos + len` fits, `+ 4` for the checksum does not
    let buf = frame_claiming(u64::MAX - 16);
    assert_eq!(buf.len(), 23);
    assert_eq!(deframe(&buf), Err(FrameError::Truncated));
    for k in 0..32u64 {
        assert_eq!(deframe(&frame_claiming(usize::MAX as u64 - k)), Err(FrameError::Truncated));
        assert_eq!(deframe(&frame_claiming(u64::MAX - k)), Err(FrameError::Truncated));
    }
    // a length one past what is there, and exactly what is there
    assert_eq!(deframe(&frame_claiming(5)), Err(FrameError::Truncated));
    assert!(matches!(deframe(&frame_claiming(4)), Err(FrameError::BadChecksum { .. })));
}
