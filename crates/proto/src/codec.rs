//! Compact binary wire codec for the DUST protocol.
//!
//! The paper transports Manager↔Client messages over REST/gRPC (§III);
//! this repo keeps transport pluggable, and since no serialization-format
//! crate is available in the offline dependency set, the wire encoding is
//! hand-rolled: one tag byte per message kind, LEB128 varints for
//! integers, IEEE-754 little-endian bits for floats, and length-prefixed
//! sequences for routes. Decoding is total — corrupt or truncated frames
//! return errors, never panic — and a decoder allocates only what its
//! input's bytes can fill: a route whose claimed length the frame's
//! remaining bytes cannot hold is [`CodecError::Truncated`] before any
//! node list is reserved.

use crate::messages::{ClientMsg, ManagerMsg, RequestId};
use dust_topology::{EdgeId, NodeId, Path};

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended mid-field.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// A varint ran past its maximum width.
    Overlong,
    /// Structural inconsistency (e.g. route with 0 nodes).
    Malformed(&'static str),
    /// Bytes left over after a complete message.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            CodecError::Overlong => write!(f, "overlong varint"),
            CodecError::Malformed(m) => write!(f, "malformed frame: {m}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---- primitives ------------------------------------------------------------

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

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::Overlong)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        if self.pos + 8 > self.buf.len() {
            return Err(CodecError::Truncated);
        }
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(&self.buf[self.pos..self.pos + 8]);
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("bool out of range")),
        }
    }

    fn finish(&self) -> Result<(), CodecError> {
        let left = self.buf.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(left))
        }
    }
}

fn put_route(out: &mut Vec<u8>, route: &Option<Path>) {
    match route {
        None => put_varint(out, 0),
        Some(p) => {
            put_varint(out, p.nodes.len() as u64);
            for n in &p.nodes {
                put_varint(out, u64::from(n.0));
            }
            for e in &p.edges {
                put_varint(out, u64::from(e.0));
            }
        }
    }
}

fn read_route(r: &mut Reader<'_>) -> Result<Option<Path>, CodecError> {
    let n = r.varint()? as usize;
    if n == 0 {
        return Ok(None);
    }
    if n > 1_000_000 {
        return Err(CodecError::Malformed("absurd route length"));
    }
    // `n` node ids and `n - 1` edge ids take a byte each at least: a
    // length the frame's bytes cannot fill allocates nothing
    if r.buf.len() - r.pos < 2 * n - 1 {
        return Err(CodecError::Truncated);
    }
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(NodeId(
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("node id > u32"))?,
        ));
    }
    let mut edges = Vec::with_capacity(n - 1);
    for _ in 0..n - 1 {
        edges.push(EdgeId(
            u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("edge id > u32"))?,
        ));
    }
    Ok(Some(Path { nodes, edges }))
}

fn read_node(r: &mut Reader<'_>) -> Result<NodeId, CodecError> {
    Ok(NodeId(u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("node id > u32"))?))
}

// ---- client messages ---------------------------------------------------------

const TAG_OFFLOAD_CAPABLE: u8 = 0x01;
const TAG_STAT: u8 = 0x02;
const TAG_OFFLOAD_ACK: u8 = 0x03;
const TAG_KEEPALIVE: u8 = 0x04;
const TAG_ACK: u8 = 0x11;
const TAG_OFFLOAD_REQUEST: u8 = 0x12;
const TAG_REP: u8 = 0x13;
const TAG_RELEASE: u8 = 0x14;

/// Encode a client → manager message.
pub fn encode_client(msg: &ClientMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(24);
    match msg {
        ClientMsg::OffloadCapable { node, capable } => {
            out.push(TAG_OFFLOAD_CAPABLE);
            put_varint(&mut out, u64::from(node.0));
            put_bool(&mut out, *capable);
        }
        ClientMsg::Stat { node, utilization, data_mb } => {
            out.push(TAG_STAT);
            put_varint(&mut out, u64::from(node.0));
            put_f64(&mut out, *utilization);
            put_f64(&mut out, *data_mb);
        }
        ClientMsg::OffloadAck { node, request, accept } => {
            out.push(TAG_OFFLOAD_ACK);
            put_varint(&mut out, u64::from(node.0));
            put_varint(&mut out, request.0);
            put_bool(&mut out, *accept);
        }
        ClientMsg::Keepalive { node } => {
            out.push(TAG_KEEPALIVE);
            put_varint(&mut out, u64::from(node.0));
        }
    }
    out
}

/// Decode a client → manager message.
pub fn decode_client(buf: &[u8]) -> Result<ClientMsg, CodecError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        TAG_OFFLOAD_CAPABLE => {
            ClientMsg::OffloadCapable { node: read_node(&mut r)?, capable: r.bool()? }
        }
        TAG_STAT => {
            ClientMsg::Stat { node: read_node(&mut r)?, utilization: r.f64()?, data_mb: r.f64()? }
        }
        TAG_OFFLOAD_ACK => ClientMsg::OffloadAck {
            node: read_node(&mut r)?,
            request: RequestId(r.varint()?),
            accept: r.bool()?,
        },
        TAG_KEEPALIVE => ClientMsg::Keepalive { node: read_node(&mut r)? },
        t => return Err(CodecError::BadTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

/// Encode a manager → client message.
pub fn encode_manager(msg: &ManagerMsg) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    match msg {
        ManagerMsg::Ack { update_interval_ms } => {
            out.push(TAG_ACK);
            put_varint(&mut out, *update_interval_ms);
        }
        ManagerMsg::OffloadRequest { request, from, amount, data_mb, route } => {
            out.push(TAG_OFFLOAD_REQUEST);
            put_varint(&mut out, request.0);
            put_varint(&mut out, u64::from(from.0));
            put_f64(&mut out, *amount);
            put_f64(&mut out, *data_mb);
            put_route(&mut out, route);
        }
        ManagerMsg::Rep { request, failed, from, amount, data_mb, route } => {
            out.push(TAG_REP);
            put_varint(&mut out, request.0);
            put_varint(&mut out, u64::from(failed.0));
            put_varint(&mut out, u64::from(from.0));
            put_f64(&mut out, *amount);
            put_f64(&mut out, *data_mb);
            put_route(&mut out, route);
        }
        ManagerMsg::Release { request } => {
            out.push(TAG_RELEASE);
            put_varint(&mut out, request.0);
        }
    }
    out
}

/// Decode a manager → client message.
pub fn decode_manager(buf: &[u8]) -> Result<ManagerMsg, CodecError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        TAG_ACK => ManagerMsg::Ack { update_interval_ms: r.varint()? },
        TAG_OFFLOAD_REQUEST => ManagerMsg::OffloadRequest {
            request: RequestId(r.varint()?),
            from: read_node(&mut r)?,
            amount: r.f64()?,
            data_mb: r.f64()?,
            route: read_route(&mut r)?,
        },
        TAG_REP => ManagerMsg::Rep {
            request: RequestId(r.varint()?),
            failed: read_node(&mut r)?,
            from: read_node(&mut r)?,
            amount: r.f64()?,
            data_mb: r.f64()?,
            route: read_route(&mut r)?,
        },
        TAG_RELEASE => ManagerMsg::Release { request: RequestId(r.varint()?) },
        t => return Err(CodecError::BadTag(t)),
    };
    r.finish()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_route() -> Path {
        Path {
            nodes: vec![NodeId(0), NodeId(7), NodeId(300)],
            edges: vec![EdgeId(2), EdgeId(9000)],
        }
    }

    #[test]
    fn client_messages_roundtrip() {
        let msgs = [
            ClientMsg::OffloadCapable { node: NodeId(0), capable: true },
            ClientMsg::OffloadCapable { node: NodeId(4_000_000), capable: false },
            ClientMsg::Stat { node: NodeId(3), utilization: 82.25, data_mb: 0.0 },
            ClientMsg::Stat { node: NodeId(3), utilization: f64::MAX, data_mb: 1e-300 },
            ClientMsg::OffloadAck { node: NodeId(9), request: RequestId(u64::MAX), accept: true },
            ClientMsg::Keepalive { node: NodeId(77) },
        ];
        for m in msgs {
            let bytes = encode_client(&m);
            assert_eq!(decode_client(&bytes).unwrap(), m, "roundtrip {m:?}");
        }
    }

    #[test]
    fn manager_messages_roundtrip() {
        let msgs = [
            ManagerMsg::Ack { update_interval_ms: 60_000 },
            ManagerMsg::OffloadRequest {
                request: RequestId(5),
                from: NodeId(1),
                amount: 12.5,
                data_mb: 150.0,
                route: Some(sample_route()),
            },
            ManagerMsg::OffloadRequest {
                request: RequestId(6),
                from: NodeId(2),
                amount: 0.25,
                data_mb: 1.0,
                route: None,
            },
            ManagerMsg::Rep {
                request: RequestId(7),
                failed: NodeId(4),
                from: NodeId(1),
                amount: 3.0,
                data_mb: 42.5,
                route: Some(sample_route()),
            },
            ManagerMsg::Rep {
                request: RequestId(9),
                failed: NodeId(4),
                from: NodeId(1),
                amount: 3.0,
                data_mb: 0.0,
                route: None,
            },
            ManagerMsg::Release { request: RequestId(8) },
        ];
        for m in msgs {
            let bytes = encode_manager(&m);
            assert_eq!(decode_manager(&bytes).unwrap(), m, "roundtrip {m:?}");
        }
    }

    #[test]
    fn stat_frame_is_compact() {
        // tag + small varint + 2 × f64 = 18 bytes
        let m = ClientMsg::Stat { node: NodeId(3), utilization: 80.0, data_mb: 100.0 };
        assert_eq!(encode_client(&m).len(), 18);
        let ka = ClientMsg::Keepalive { node: NodeId(3) };
        assert_eq!(encode_client(&ka).len(), 2);
    }

    #[test]
    fn truncation_detected() {
        let m = ManagerMsg::OffloadRequest {
            request: RequestId(5),
            from: NodeId(1),
            amount: 12.5,
            data_mb: 150.0,
            route: Some(sample_route()),
        };
        let bytes = encode_manager(&m);
        for cut in 0..bytes.len() {
            let r = decode_manager(&bytes[..cut]);
            assert!(r.is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn a_route_longer_than_its_frame_is_truncated() {
        // a route length of 1 000 000, then no node id
        let head = |tag: u8, nodes: &[u8]| {
            let mut bytes = vec![tag, 5];
            bytes.extend_from_slice(nodes);
            bytes.extend_from_slice(&[0; 16]);
            bytes.extend_from_slice(&[0xC0, 0x84, 0x3D]);
            bytes
        };
        let request = head(TAG_OFFLOAD_REQUEST, &[1]);
        assert_eq!(request.len(), 22);
        assert_eq!(decode_manager(&request), Err(CodecError::Truncated));
        assert_eq!(decode_manager(&head(TAG_REP, &[4, 1])), Err(CodecError::Truncated));
        // a length the bytes can just hold still reads its ids: two nodes
        // and one edge, one byte each
        let mut two = head(TAG_OFFLOAD_REQUEST, &[1]);
        two.truncate(19);
        two.extend_from_slice(&[2, 0, 7, 3]);
        let ManagerMsg::OffloadRequest { route: Some(route), .. } = decode_manager(&two).unwrap()
        else {
            panic!("a two-node route")
        };
        assert_eq!((route.nodes, route.edges), (vec![NodeId(0), NodeId(7)], vec![EdgeId(3)]));
        two.pop();
        assert_eq!(decode_manager(&two), Err(CodecError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = encode_client(&ClientMsg::Keepalive { node: NodeId(1) });
        bytes.push(0xAA);
        assert_eq!(decode_client(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(decode_client(&[0xFF]), Err(CodecError::BadTag(0xFF)));
        assert_eq!(decode_manager(&[0x00]), Err(CodecError::BadTag(0x00)));
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(decode_client(&[]), Err(CodecError::Truncated));
    }

    #[test]
    fn overlong_varint_rejected() {
        // 10 continuation bytes exceed a u64's 64 bits
        let mut bytes = vec![TAG_KEEPALIVE];
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        assert!(matches!(
            decode_client(&bytes),
            Err(CodecError::Overlong)
                | Err(CodecError::Malformed(_))
                | Err(CodecError::TrailingBytes(_))
        ));
    }

    #[test]
    fn special_floats_survive() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE] {
            let m = ClientMsg::Stat { node: NodeId(0), utilization: v, data_mb: v };
            let back = decode_client(&encode_client(&m)).unwrap();
            match back {
                ClientMsg::Stat { utilization, .. } => {
                    assert_eq!(utilization.to_bits(), v.to_bits());
                }
                other => panic!("{other:?}"),
            }
        }
    }
}
