//! Framing for compressed telemetry blocks in flight.
//!
//! When a Busy node streams its series to an Offload-destination
//! (§III-A's in-situ compression + §III-C's lowest-priority transport,
//! where frames may legitimately be discarded mid-stream), the receiver
//! must detect truncated or corrupted blocks. A frame wraps one
//! [`CompressedBlock`] with a magic, the point count, a length, and a
//! CRC-32 over everything after the magic (header varints included, so a
//! flipped bit in `count` cannot silently change the block):
//!
//! ```text
//! magic(4) | count(varint) | len(varint) | payload(len) | crc32(4, LE)
//! ```

use crate::compress::CompressedBlock;

/// Frame magic: `DTF1` (DUST Telemetry Frame v1).
pub const MAGIC: [u8; 4] = *b"DTF1";

/// Framing/deframing failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Frame shorter than its own header or declared length.
    Truncated,
    /// Magic bytes mismatch.
    BadMagic,
    /// CRC-32 mismatch — header or payload corrupted in flight.
    BadChecksum {
        /// CRC carried by the frame.
        expected: u32,
        /// CRC computed over the received header + payload.
        actual: u32,
    },
    /// A varint header field was malformed.
    BadHeader,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:#010x}, payload is {actual:#010x}"
                )
            }
            FrameError::BadHeader => write!(f, "malformed frame header"),
        }
    }
}

impl std::error::Error for FrameError {}

/// `CRC_TABLE[b]` is the CRC register after shifting byte `b` through the
/// reflected polynomial 0xEDB88320, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[b] = crc;
        b += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), one table
/// look-up per byte.
pub fn crc32(data: &[u8]) -> u32 {
    !data
        .iter()
        .fold(0xFFFF_FFFF, |crc: u32, &b| CRC_TABLE[usize::from(crc as u8 ^ b)] ^ (crc >> 8))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Wrap a compressed block into a checksummed frame.
pub fn frame(block: &CompressedBlock) -> Vec<u8> {
    let mut out = Vec::with_capacity(block.bytes.len() + 16);
    out.extend_from_slice(&MAGIC);
    put_varint(&mut out, block.count as u64);
    put_varint(&mut out, block.bytes.len() as u64);
    out.extend_from_slice(&block.bytes);
    let crc = crc32(&out[MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Unwrap a frame, verifying magic, length, and checksum. Returns the
/// block and the total frame size consumed (frames may be concatenated).
pub fn deframe(buf: &[u8]) -> Result<(CompressedBlock, usize), FrameError> {
    if buf.len() < 4 {
        return Err(FrameError::Truncated);
    }
    if buf[..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let mut pos = 4;
    let count = read_varint(buf, &mut pos).ok_or(FrameError::BadHeader)?;
    let count = usize::try_from(count).map_err(|_| FrameError::BadHeader)?;
    let len = read_varint(buf, &mut pos).ok_or(FrameError::BadHeader)?;
    // a declared length the buffer cannot hold — or that no buffer could —
    // is a truncated frame; nothing is indexed or added before this check
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .filter(|end| end.checked_add(4).is_some_and(|total| total <= buf.len()))
        .ok_or(FrameError::Truncated)?;
    let payload = &buf[pos..end];
    let expected = u32::from_le_bytes(buf[end..end + 4].try_into().expect("4 bytes checked"));
    let actual = crc32(&buf[MAGIC.len()..end]);
    if expected != actual {
        return Err(FrameError::BadChecksum { expected, actual });
    }
    Ok((CompressedBlock { count, bytes: payload.to_vec() }, end + 4))
}

/// Split a buffer of concatenated frames into blocks, stopping at the
/// first error; returns the blocks plus the unconsumed tail offset.
pub fn deframe_stream(buf: &[u8]) -> (Vec<CompressedBlock>, usize) {
    let mut blocks = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        match deframe(&buf[pos..]) {
            Ok((b, used)) => {
                blocks.push(b);
                pos += used;
            }
            Err(_) => break,
        }
    }
    (blocks, pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{compress, decompress};
    use crate::tsdb::Series;

    fn sample_block() -> CompressedBlock {
        let mut s = Series::default();
        for t in 0..50u64 {
            s.push(t * 1000, 40.0 + (t % 9) as f64);
        }
        compress(&s)
    }

    #[test]
    fn crc32_known_vectors() {
        // standard test vector: CRC-32("123456789") = 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let block = sample_block();
        let framed = frame(&block);
        let (back, used) = deframe(&framed).unwrap();
        assert_eq!(used, framed.len());
        assert_eq!(back, block);
        // and the payload still decompresses
        assert_eq!(decompress(&back).unwrap().len(), 50);
    }

    #[test]
    fn corruption_detected() {
        let block = sample_block();
        let mut framed = frame(&block);
        let mid = framed.len() / 2;
        framed[mid] ^= 0x40;
        match deframe(&framed) {
            Err(FrameError::BadChecksum { .. }) => {}
            other => panic!("corruption must be caught, got {other:?}"),
        }
    }

    #[test]
    fn truncation_and_bad_magic() {
        let framed = frame(&sample_block());
        for cut in [0, 3, 7, framed.len() - 1] {
            assert!(deframe(&framed[..cut]).is_err(), "cut at {cut}");
        }
        let mut bad = framed.clone();
        bad[0] = b'X';
        assert_eq!(deframe(&bad), Err(FrameError::BadMagic));
    }

    #[test]
    fn stream_of_frames_splits() {
        let b1 = sample_block();
        let mut s2 = Series::default();
        s2.push(5, 1.0);
        let b2 = compress(&s2);
        let mut stream = frame(&b1);
        stream.extend_from_slice(&frame(&b2));
        stream.extend_from_slice(b"garbage");
        let (blocks, consumed) = deframe_stream(&stream);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0], b1);
        assert_eq!(blocks[1], b2);
        assert_eq!(consumed, stream.len() - 7);
    }

    #[test]
    fn empty_block_frames_fine() {
        let empty = compress(&Series::default());
        let (back, _) = deframe(&frame(&empty)).unwrap();
        assert_eq!(back.count, 0);
    }
}
