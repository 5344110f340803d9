//! Gorilla-style time-series compression.
//!
//! The DUST architecture "includes in-situ data compression and packet
//! parsing capabilities in SmartNICs, which aid in reducing data transfers
//! and improving end-to-end performance" (§III-A). This module implements
//! the classic Facebook Gorilla scheme: delta-of-delta timestamps and
//! XOR-encoded float values, both bit-packed.

use crate::tsdb::Series;

/// Bit-level writer over a growable byte buffer (MSB-first).
///
/// Bits gather in a 64-bit word, filled from its top, and reach the
/// buffer eight bytes at a time; [`BitWriter::finish`] flushes the bytes
/// the last partial word touches.
#[derive(Debug, Default)]
struct BitWriter {
    buf: Vec<u8>,
    /// Pending bits, left-aligned; the low `64 - used` bits are zero.
    word: u64,
    /// Bits pending in `word` (0..64).
    used: u8,
}

impl BitWriter {
    fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Write the low `count` bits of `value`, most significant first.
    fn write_bits(&mut self, value: u64, count: u8) {
        debug_assert!(count <= 64);
        if count == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - count));
        let free = 64 - self.used;
        if count < free {
            self.word |= value << (free - count);
            self.used += count;
            return;
        }
        // the word fills: its last `free` bits are the top of `value`
        let rest = count - free;
        self.buf.extend_from_slice(&(self.word | value >> rest).to_be_bytes());
        self.word = if rest == 0 { 0 } else { value << (64 - rest) };
        self.used = rest;
    }

    fn finish(mut self) -> Vec<u8> {
        let bytes = usize::from(self.used).div_ceil(8);
        self.buf.extend_from_slice(&self.word.to_be_bytes()[..bytes]);
        self.buf
    }
}

/// Bit-level reader mirroring [`BitWriter`]: a bit position into the
/// buffer, each read one byte-aligned load of the word the field starts in.
#[derive(Debug)]
struct BitReader<'a> {
    buf: &'a [u8],
    /// Next bit to read, counted from the buffer's first (most
    /// significant) bit.
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        BitReader { buf, pos: 0 }
    }

    fn read_bit(&mut self) -> Option<bool> {
        let byte = *self.buf.get(self.pos / 8)?;
        let bit = byte >> (7 - self.pos % 8) & 1 == 1;
        self.pos += 1;
        Some(bit)
    }

    /// Read `count` bits (at most 64), most significant first; `None` when
    /// fewer remain.
    fn read_bits(&mut self, count: u8) -> Option<u64> {
        debug_assert!(count <= 64);
        let end = self.pos.checked_add(usize::from(count))?;
        if end.div_ceil(8) > self.buf.len() {
            return None;
        }
        if count == 0 {
            return Some(0);
        }
        let (at, skip) = (self.pos / 8, (self.pos % 8) as u32);
        let tail = &self.buf[at..];
        // the eight bytes the field starts in, zero-padded past the end
        let word = match tail.first_chunk::<8>() {
            Some(chunk) => u64::from_be_bytes(*chunk),
            None => {
                let mut padded = [0u8; 8];
                padded[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(padded)
            }
        };
        let mut bits = word << skip;
        if u32::from(count) + skip > 64 {
            // the field's last bits spill into a ninth byte
            bits |= u64::from(tail[8]) >> (8 - skip);
        }
        self.pos = end;
        Some(bits >> (64 - count))
    }
}

/// A compressed block of one series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedBlock {
    /// Number of points encoded.
    pub count: usize,
    /// Bit-packed payload.
    pub bytes: Vec<u8>,
}

impl CompressedBlock {
    /// Compressed size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Compression ratio vs. raw `(u64, f64)` points (16 bytes each).
    /// Greater than 1 means the block is smaller than raw.
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 1.0;
        }
        (self.count * 16) as f64 / self.bytes.len() as f64
    }
}

/// Compress a series with Gorilla delta-of-delta + XOR encoding.
pub fn compress(series: &Series) -> CompressedBlock {
    let pts = series.points();
    let mut w = BitWriter::default();
    if pts.is_empty() {
        return CompressedBlock { count: 0, bytes: w.finish() };
    }
    // Header: first timestamp and value, raw.
    w.write_bits(pts[0].ts_ms, 64);
    w.write_bits(pts[0].value.to_bits(), 64);
    if pts.len() == 1 {
        return CompressedBlock { count: 1, bytes: w.finish() };
    }
    // Second point: delta (as zigzag 64-bit), value XOR-encoded below.
    let first_delta = pts[1].ts_ms as i64 - pts[0].ts_ms as i64;
    w.write_bits(zigzag(first_delta), 64);

    let mut prev_ts = pts[1].ts_ms;
    let mut prev_delta = first_delta;
    let mut prev_bits = pts[0].value.to_bits();
    let mut prev_lead: u8 = 255; // sentinel: no previous window
    let mut prev_len: u8 = 0;

    // encode value of point 1 first
    encode_value(&mut w, pts[1].value.to_bits(), &mut prev_bits, &mut prev_lead, &mut prev_len);

    for p in &pts[2..] {
        // ---- timestamp: delta-of-delta ------------------------------------
        let delta = p.ts_ms as i64 - prev_ts as i64;
        let dod = delta - prev_delta;
        prev_ts = p.ts_ms;
        prev_delta = delta;
        match dod {
            0 => w.write_bit(false),
            -63..=64 => {
                w.write_bits(0b10, 2);
                w.write_bits((dod + 63) as u64, 7);
            }
            -255..=256 => {
                w.write_bits(0b110, 3);
                w.write_bits((dod + 255) as u64, 9);
            }
            -2047..=2048 => {
                w.write_bits(0b1110, 4);
                w.write_bits((dod + 2047) as u64, 12);
            }
            _ => {
                w.write_bits(0b1111, 4);
                w.write_bits(zigzag(dod), 64);
            }
        }
        // ---- value: XOR ----------------------------------------------------
        encode_value(&mut w, p.value.to_bits(), &mut prev_bits, &mut prev_lead, &mut prev_len);
    }
    CompressedBlock { count: pts.len(), bytes: w.finish() }
}

fn encode_value(
    w: &mut BitWriter,
    bits: u64,
    prev: &mut u64,
    prev_lead: &mut u8,
    prev_len: &mut u8,
) {
    let xor = bits ^ *prev;
    *prev = bits;
    if xor == 0 {
        w.write_bit(false);
        return;
    }
    w.write_bit(true);
    let lead = (xor.leading_zeros() as u8).min(31); // 5 bits reserve
    let trail = xor.trailing_zeros() as u8;
    let len = 64 - lead - trail;
    if *prev_lead != 255 && lead >= *prev_lead && (64 - *prev_lead - *prev_len) <= trail {
        // reuse the previous window
        w.write_bit(false);
        w.write_bits(xor >> (64 - *prev_lead - *prev_len), *prev_len);
    } else {
        w.write_bit(true);
        w.write_bits(u64::from(lead), 5);
        // len in 1..=64; store len-1 in 6 bits
        w.write_bits(u64::from(len - 1), 6);
        w.write_bits(xor >> trail, len);
        *prev_lead = lead;
        *prev_len = len;
    }
}

/// Decompress a block produced by [`compress`].
///
/// Returns `None` on a truncated or corrupt payload — one that runs out of
/// bits, names a value window wider than 64 bits, or decodes a timestamp
/// that overflows or precedes its predecessor (no valid [`Series`]
/// compresses to that). It never panics, whatever the block holds.
pub fn decompress(block: &CompressedBlock) -> Option<Series> {
    if block.count == 0 {
        return Some(Series::default());
    }
    // a point after the first costs at least two bits, so a count the
    // payload cannot hold is corrupt — and never sizes an allocation
    if block.count - 1 > block.bytes.len().saturating_mul(4) {
        return None;
    }
    let mut out = Series::with_capacity(block.count);
    let mut r = BitReader::new(&block.bytes);
    let ts0 = r.read_bits(64)?;
    let v0 = f64::from_bits(r.read_bits(64)?);
    out.push(ts0, v0);
    if block.count == 1 {
        return Some(out);
    }
    let mut prev_delta = unzigzag(r.read_bits(64)?);
    let mut prev_ts = step_forward(ts0, prev_delta)?;
    let mut prev_bits = v0.to_bits();
    let mut prev_lead: u8 = 255;
    let mut prev_len: u8 = 0;

    let v1 = decode_value(&mut r, &mut prev_bits, &mut prev_lead, &mut prev_len)?;
    out.push(prev_ts, v1);

    for _ in 2..block.count {
        // ---- timestamp -----------------------------------------------------
        let dod = if !r.read_bit()? {
            0
        } else if !r.read_bit()? {
            r.read_bits(7)? as i64 - 63
        } else if !r.read_bit()? {
            r.read_bits(9)? as i64 - 255
        } else if !r.read_bit()? {
            r.read_bits(12)? as i64 - 2047
        } else {
            unzigzag(r.read_bits(64)?)
        };
        prev_delta = prev_delta.checked_add(dod)?;
        prev_ts = step_forward(prev_ts, prev_delta)?;
        let v = decode_value(&mut r, &mut prev_bits, &mut prev_lead, &mut prev_len)?;
        out.push(prev_ts, v);
    }
    Some(out)
}

/// `ts + delta` when that is a timestamp a series could hold next: no
/// overflow and not before `ts`.
fn step_forward(ts: u64, delta: i64) -> Option<u64> {
    ts.checked_add(u64::try_from(delta).ok()?)
}

fn decode_value(
    r: &mut BitReader<'_>,
    prev: &mut u64,
    prev_lead: &mut u8,
    prev_len: &mut u8,
) -> Option<f64> {
    if !r.read_bit()? {
        return Some(f64::from_bits(*prev));
    }
    if r.read_bit()? {
        *prev_lead = r.read_bits(5)? as u8;
        *prev_len = r.read_bits(6)? as u8 + 1;
    }
    // the window's zero bits below the meaningful ones; `None` for a window
    // wider than the word, or a "previous window" before there was one
    let trail = 64u8.checked_sub(prev_lead.checked_add(*prev_len)?)?;
    *prev ^= r.read_bits(*prev_len)? << trail;
    Some(f64::from_bits(*prev))
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_of(pts: &[(u64, f64)]) -> Series {
        let mut s = Series::default();
        for &(t, v) in pts {
            s.push(t, v);
        }
        s
    }

    fn roundtrip(pts: &[(u64, f64)]) {
        let s = series_of(pts);
        let block = compress(&s);
        let back = decompress(&block).expect("decompress");
        assert_eq!(back.points(), s.points(), "roundtrip mismatch");
    }

    #[test]
    fn empty_and_single() {
        roundtrip(&[]);
        roundtrip(&[(42, 3.125)]);
    }

    #[test]
    fn regular_cadence_constant_value() {
        let pts: Vec<_> = (0..100u64).map(|i| (i * 1000, 55.0)).collect();
        roundtrip(&pts);
        // steady series should compress extremely well (dod = 0, xor = 0)
        let block = compress(&series_of(&pts));
        assert!(block.ratio() > 30.0, "ratio {}", block.ratio());
    }

    #[test]
    fn regular_cadence_slow_drift() {
        let pts: Vec<_> = (0..200u64).map(|i| (i * 500, 40.0 + (i as f64) * 0.25)).collect();
        roundtrip(&pts);
        let block = compress(&series_of(&pts));
        assert!(block.ratio() > 2.0, "ratio {}", block.ratio());
    }

    #[test]
    fn jittered_timestamps() {
        let pts: Vec<_> =
            (0..50u64).map(|i| (i * 1000 + (i % 7) * 13, (i as f64).sin() * 100.0)).collect();
        roundtrip(&pts);
    }

    #[test]
    fn large_timestamp_jumps() {
        roundtrip(&[(0, 1.0), (10, 2.0), (1_000_000_000, 3.0), (1_000_000_010, 4.0)]);
    }

    #[test]
    fn special_float_values() {
        roundtrip(&[
            (0, 0.0),
            (1, -0.0),
            (2, f64::MAX),
            (3, f64::MIN_POSITIVE),
            (4, f64::INFINITY),
            (5, f64::NEG_INFINITY),
        ]);
    }

    #[test]
    fn equal_timestamps_survive() {
        roundtrip(&[(5, 1.0), (5, 2.0), (5, 3.0)]);
    }

    #[test]
    fn alternating_values() {
        let pts: Vec<_> = (0..64u64).map(|i| (i, if i % 2 == 0 { 1.5 } else { -2.5 })).collect();
        roundtrip(&pts);
    }

    #[test]
    fn truncated_block_fails_gracefully() {
        let s = series_of(&[(0, 1.0), (100, 2.0), (200, 3.0)]);
        let mut block = compress(&s);
        block.bytes.truncate(4);
        assert!(decompress(&block).is_none());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN + 1] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn word_coder_matches_a_bit_at_a_time_packer() {
        use dust_topology::SplitMix64;
        for seed in 0..64u64 {
            let mut rng = SplitMix64::new(seed);
            // fields of every width, 64 included, at every bit offset
            let fields: Vec<(u64, u8)> = (0..rng.range_u64(1, 80))
                .map(|_| (rng.next_u64(), rng.below(65) as u8))
                .map(|(v, n)| (if n == 64 { v } else { v & ((1 << n) - 1) }, n))
                .collect();
            let mut w = BitWriter::default();
            let mut bits: Vec<bool> = Vec::new();
            for &(v, n) in &fields {
                w.write_bits(v, n);
                bits.extend((0..n).rev().map(|i| v >> i & 1 == 1));
            }
            let bytes = w.finish();
            let packed: Vec<u8> = bits
                .chunks(8)
                .map(|c| c.iter().enumerate().fold(0u8, |b, (i, &on)| b | u8::from(on) << (7 - i)))
                .collect();
            assert_eq!(bytes, packed, "seed {seed}");

            let mut r = BitReader::new(&bytes);
            for &(v, n) in &fields {
                assert_eq!(r.read_bits(n), Some(v), "seed {seed}: {n} bits");
            }
            // what is left is padding: readable to the byte's end, then nothing
            let padding = (bytes.len() * 8 - bits.len()) as u8;
            assert_eq!(r.read_bits(padding), Some(0), "seed {seed}");
            assert_eq!(r.read_bits(1), None);
            assert_eq!(r.read_bit(), None);
            assert_eq!(r.read_bits(0), Some(0));
            // bit by bit from the start reads the same stream
            let mut r = BitReader::new(&bytes);
            assert!(bits.iter().all(|&on| r.read_bit() == Some(on)), "seed {seed}");
        }
    }
}
