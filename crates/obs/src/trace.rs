//! Deterministic event tracing with a running FNV-1a digest.
//!
//! A [`Trace`] is an append-only log of [`TraceEntry`]s keyed by sim
//! time and sequence number, seeded with the run's RNG seed. Every entry
//! has a stable one-line text encoding; the 64-bit FNV-1a digest is
//! folded over those lines (plus the seed) as entries are recorded, so
//! two runs produce the same digest iff they produced the same event
//! stream at the same times — the bit-identity the golden-trace
//! regression tests pin down.
//!
//! Event payloads are integers only (node ids, request ids, counts):
//! no floats means no formatting ambiguity in the encoding.

use std::fmt;
use std::io;

/// Version of the [`Trace::to_binary`] encoding. Bumped whenever the
/// framing (not the event payload) changes; [`Trace::decode_binary`]
/// refuses streams from other versions with a loud error instead of
/// silently mismatching digests.
pub const TRACE_FORMAT_VERSION: u16 = 2;

/// Magic bytes opening every versioned binary trace stream.
pub const TRACE_MAGIC: [u8; 4] = *b"DTRC";

/// One structured event. Fields are raw ids (`u32` node, `u64` request)
/// so the crate stays dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are self-describing ids/counts
pub enum TraceEvent {
    /// Manager received an Offload-capable registration.
    Register { node: u32 },
    /// Manager ACKed a registration.
    RegisterAck { node: u32 },
    /// Manager received a STAT update.
    Stat { node: u32 },
    /// Manager received a keepalive.
    Keepalive { node: u32 },
    /// Manager sent an Offload-Request.
    Offer { request: u64, from: u32, to: u32 },
    /// Manager confirmed a hosting (first accepting Offload-ACK).
    OfferAccepted { request: u64, node: u32 },
    /// Manager dropped a hosting on a refusing Offload-ACK.
    OfferRefused { request: u64, node: u32 },
    /// Manager sent a REP (replica substitution) for a failed host.
    /// `orig` is the request id the replica supersedes (0 = unknown),
    /// linking the new flow back to the one it continues.
    Rep { request: u64, orig: u64, failed: u32, to: u32 },
    /// Manager sent (or retransmitted) a Release.
    ReleaseSent { request: u64, to: u32 },
    /// Manager retransmitted an expired unconfirmed offer.
    Retransmit { request: u64, attempt: u32 },
    /// Manager abandoned an offer after exhausting its retry budget.
    Abandon { request: u64 },
    /// Manager reclaimed a hosting back to a recovered owner.
    Reclaim { request: u64, node: u32 },
    /// Client accepted an Offload-Request (sent accept=true).
    ClientAccept { request: u64, node: u32 },
    /// Client refused an Offload-Request (sent accept=false).
    ClientRefuse { request: u64, node: u32 },
    /// Client released a hosted workload (tombstone created).
    ClientReleased { request: u64, node: u32 },
    /// Simulator applied a confirmed transfer to the physical model.
    TransferApplied { request: u64, from: u32, to: u32 },
    /// Simulator applied a replica substitution.
    ReplicaApplied { request: u64, to: u32 },
    /// Simulator reverted a transfer on Release.
    ReleaseApplied { request: u64, node: u32 },
    /// A stale transfer was superseded by a newer REP for the same id.
    TransferSuperseded { request: u64 },
    /// Fault gate dropped an envelope.
    FaultDrop { to_manager: bool },
    /// Fault gate duplicated an envelope.
    FaultDuplicate { to_manager: bool },
    /// Chaos schedule killed a node.
    NodeKilled { node: u32 },
    /// Chaos schedule revived a node.
    NodeRevived { node: u32 },
    /// Cost-engine row cache hit for a source node.
    CacheHit { node: u32 },
    /// Cost-engine row cache miss for a source node.
    CacheMiss { node: u32 },
    /// Cost matrix assembled: totals for one build.
    MatrixBuilt { rows: u32, hits: u32, misses: u32 },
    /// One transportation-simplex solve finished (MODI pivots).
    TransportSolve { pivots: u64 },
    /// Client sent (or retransmitted) an Offload-capable registration.
    ClientRegister { node: u32 },
    /// Client saw its first registration ACK and went Active.
    ClientRegistered { node: u32 },
    /// Manager finished one placement round, sending `offers` offers.
    PlacementRound { round: u64, offers: u32 },
    /// Online SLO engine fired a rule breach. `rule` is the rule's index
    /// in its spec, `node` the offender (`SLO_GLOBAL` for fleet-wide
    /// rules), `value_m` the observed value in milli-units.
    SloBreach { rule: u32, node: u32, value_m: u64 },
    /// A failure storm cascaded: `node` was killed because its CPU
    /// (`cpu_m`, milli-percent) crossed the storm's cascade threshold
    /// under load.
    StormCascade { node: u32, cpu_m: u64 },
    /// Manager ran a delta round: of `checked` confirmed hostings,
    /// `degraded` drifted past the re-home threshold and only those were
    /// re-solved — the full placement engine stayed cold.
    DeltaRound { round: u64, checked: u32, degraded: u32 },
    /// A delta round re-homed one degraded hosted flow: the hosting under
    /// `old` (destination `old_to`) was released and re-offered as
    /// `request` toward `new_to`.
    Rehome { request: u64, old: u64, from: u32, old_to: u32, new_to: u32 },
    /// Seeded churn drift retuned `links` link utilizations and scaled
    /// `agents` agent data rates.
    DriftApplied { links: u32, agents: u32 },
    /// The Manager's full solve in `round` failed with a typed error —
    /// `kind` is its label, e.g. `iteration_limit` or `bad_config` —
    /// and the round went on as an infeasible one.
    SolveError { round: u64, kind: &'static str },
}

/// Sentinel `node` value on [`TraceEvent::SloBreach`] for rules that
/// apply to the whole fleet rather than one node.
pub const SLO_GLOBAL: u32 = u32::MAX;

/// Stable causal-flow identity for an event: the unit of work it belongs
/// to. Flows are what [`crate::span::build_spans`] groups by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FlowId {
    /// One transfer's lifecycle, keyed by its (root) request id.
    Transfer(u64),
    /// One node's registration lifecycle, keyed by node id.
    Registration(u32),
    /// One placement round, keyed by round number.
    Placement(u64),
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FlowId::Transfer(r) => write!(f, "t:{r}"),
            FlowId::Registration(n) => write!(f, "n:{n}"),
            FlowId::Placement(r) => write!(f, "p:{r}"),
        }
    }
}

impl TraceEvent {
    /// Stable kind name used in the text encoding and by `TraceAssert`.
    pub fn kind(&self) -> &'static str {
        use TraceEvent::*;
        match self {
            Register { .. } => "Register",
            RegisterAck { .. } => "RegisterAck",
            Stat { .. } => "Stat",
            Keepalive { .. } => "Keepalive",
            Offer { .. } => "Offer",
            OfferAccepted { .. } => "OfferAccepted",
            OfferRefused { .. } => "OfferRefused",
            Rep { .. } => "Rep",
            ReleaseSent { .. } => "ReleaseSent",
            Retransmit { .. } => "Retransmit",
            Abandon { .. } => "Abandon",
            Reclaim { .. } => "Reclaim",
            ClientAccept { .. } => "ClientAccept",
            ClientRefuse { .. } => "ClientRefuse",
            ClientReleased { .. } => "ClientReleased",
            TransferApplied { .. } => "TransferApplied",
            ReplicaApplied { .. } => "ReplicaApplied",
            ReleaseApplied { .. } => "ReleaseApplied",
            TransferSuperseded { .. } => "TransferSuperseded",
            FaultDrop { .. } => "FaultDrop",
            FaultDuplicate { .. } => "FaultDuplicate",
            NodeKilled { .. } => "NodeKilled",
            NodeRevived { .. } => "NodeRevived",
            CacheHit { .. } => "CacheHit",
            CacheMiss { .. } => "CacheMiss",
            MatrixBuilt { .. } => "MatrixBuilt",
            TransportSolve { .. } => "TransportSolve",
            ClientRegister { .. } => "ClientRegister",
            ClientRegistered { .. } => "ClientRegistered",
            PlacementRound { .. } => "PlacementRound",
            SloBreach { .. } => "SloBreach",
            StormCascade { .. } => "StormCascade",
            DeltaRound { .. } => "DeltaRound",
            Rehome { .. } => "Rehome",
            DriftApplied { .. } => "DriftApplied",
            SolveError { .. } => "SolveError",
        }
    }

    /// The request id this event concerns, if any.
    pub fn request(&self) -> Option<u64> {
        use TraceEvent::*;
        match *self {
            Offer { request, .. }
            | OfferAccepted { request, .. }
            | OfferRefused { request, .. }
            | Rep { request, .. }
            | ReleaseSent { request, .. }
            | Retransmit { request, .. }
            | Abandon { request }
            | Reclaim { request, .. }
            | ClientAccept { request, .. }
            | ClientRefuse { request, .. }
            | ClientReleased { request, .. }
            | TransferApplied { request, .. }
            | ReplicaApplied { request, .. }
            | ReleaseApplied { request, .. }
            | TransferSuperseded { request }
            | Rehome { request, .. } => Some(request),
            _ => None,
        }
    }

    /// The causal flow this event belongs to, if any. Infrastructure
    /// events (fault gate, chaos schedule, solver/cache internals, SLO
    /// breaches) carry no flow and are reported separately.
    pub fn flow(&self) -> Option<FlowId> {
        use TraceEvent::*;
        if let Some(request) = self.request() {
            return Some(FlowId::Transfer(request));
        }
        match *self {
            Register { node }
            | RegisterAck { node }
            | Stat { node }
            | Keepalive { node }
            | ClientRegister { node }
            | ClientRegistered { node } => Some(FlowId::Registration(node)),
            PlacementRound { round, .. } | DeltaRound { round, .. } | SolveError { round, .. } => {
                Some(FlowId::Placement(round))
            }
            _ => None,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TraceEvent::*;
        match *self {
            Register { node } => write!(f, "Register node={node}"),
            RegisterAck { node } => write!(f, "RegisterAck node={node}"),
            Stat { node } => write!(f, "Stat node={node}"),
            Keepalive { node } => write!(f, "Keepalive node={node}"),
            Offer { request, from, to } => write!(f, "Offer req={request} from={from} to={to}"),
            OfferAccepted { request, node } => write!(f, "OfferAccepted req={request} node={node}"),
            OfferRefused { request, node } => write!(f, "OfferRefused req={request} node={node}"),
            Rep { request, orig, failed, to } => {
                write!(f, "Rep req={request} orig={orig} failed={failed} to={to}")
            }
            ReleaseSent { request, to } => write!(f, "ReleaseSent req={request} to={to}"),
            Retransmit { request, attempt } => {
                write!(f, "Retransmit req={request} attempt={attempt}")
            }
            Abandon { request } => write!(f, "Abandon req={request}"),
            Reclaim { request, node } => write!(f, "Reclaim req={request} node={node}"),
            ClientAccept { request, node } => write!(f, "ClientAccept req={request} node={node}"),
            ClientRefuse { request, node } => write!(f, "ClientRefuse req={request} node={node}"),
            ClientReleased { request, node } => {
                write!(f, "ClientReleased req={request} node={node}")
            }
            TransferApplied { request, from, to } => {
                write!(f, "TransferApplied req={request} from={from} to={to}")
            }
            ReplicaApplied { request, to } => write!(f, "ReplicaApplied req={request} to={to}"),
            ReleaseApplied { request, node } => {
                write!(f, "ReleaseApplied req={request} node={node}")
            }
            TransferSuperseded { request } => write!(f, "TransferSuperseded req={request}"),
            FaultDrop { to_manager } => {
                write!(f, "FaultDrop dir={}", if to_manager { "to_manager" } else { "to_client" })
            }
            FaultDuplicate { to_manager } => write!(
                f,
                "FaultDuplicate dir={}",
                if to_manager { "to_manager" } else { "to_client" }
            ),
            NodeKilled { node } => write!(f, "NodeKilled node={node}"),
            NodeRevived { node } => write!(f, "NodeRevived node={node}"),
            CacheHit { node } => write!(f, "CacheHit node={node}"),
            CacheMiss { node } => write!(f, "CacheMiss node={node}"),
            MatrixBuilt { rows, hits, misses } => {
                write!(f, "MatrixBuilt rows={rows} hits={hits} misses={misses}")
            }
            TransportSolve { pivots } => write!(f, "TransportSolve pivots={pivots}"),
            ClientRegister { node } => write!(f, "ClientRegister node={node}"),
            ClientRegistered { node } => write!(f, "ClientRegistered node={node}"),
            PlacementRound { round, offers } => {
                write!(f, "PlacementRound round={round} offers={offers}")
            }
            SloBreach { rule, node, value_m } => {
                write!(f, "SloBreach rule={rule} node={node} value_m={value_m}")
            }
            StormCascade { node, cpu_m } => {
                write!(f, "StormCascade node={node} cpu_m={cpu_m}")
            }
            DeltaRound { round, checked, degraded } => {
                write!(f, "DeltaRound round={round} checked={checked} degraded={degraded}")
            }
            Rehome { request, old, from, old_to, new_to } => {
                write!(
                    f,
                    "Rehome req={request} old={old} from={from} old_to={old_to} new_to={new_to}"
                )
            }
            DriftApplied { links, agents } => {
                write!(f, "DriftApplied links={links} agents={agents}")
            }
            SolveError { round, kind } => write!(f, "SolveError round={round} kind={kind}"),
        }
    }
}

/// One recorded event with its sim-time and sequence coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Sim time the event was recorded at, ms.
    pub t_ms: u64,
    /// Zero-based position in the trace (total order within a run).
    pub seq: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceEntry {
    /// Stable line encoding: `<t_ms> <seq> <event>`.
    pub fn to_line(&self) -> String {
        format!("{} {} {}", self.t_ms, self.seq, self.event)
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

pub(crate) fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// An append-only event log with a running digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    seed: u64,
    entries: Vec<TraceEntry>,
    digest: u64,
}

impl Trace {
    /// An empty trace for a run at `seed`. The seed is folded into the
    /// digest so traces from different seeds never collide trivially.
    pub fn new(seed: u64) -> Self {
        Trace { seed, entries: Vec::new(), digest: fnv1a(FNV_OFFSET, &seed.to_le_bytes()) }
    }

    /// The seed this trace was recorded under.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Append one event at sim time `t_ms`.
    pub fn record(&mut self, t_ms: u64, event: TraceEvent) {
        let entry = TraceEntry { t_ms, seq: self.entries.len() as u64, event };
        self.digest = fnv1a(self.digest, entry.to_line().as_bytes());
        self.digest = fnv1a(self.digest, b"\n");
        self.entries.push(entry);
    }

    /// All entries in record order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// FNV-1a 64 digest over seed + every encoded line so far.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Full text encoding: header, one line per event, digest footer.
    pub fn to_text(&self) -> String {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 40);
        self.write_text(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("trace lines are ASCII")
    }

    /// Stream the text encoding to `out` one line at a time — same bytes
    /// as [`Trace::to_text`] without materializing the dump as one
    /// String. This is what `dustctl trace --full` uses so large chaos
    /// sweeps run in bounded memory.
    pub fn write_text<W: io::Write + ?Sized>(&self, out: &mut W) -> io::Result<()> {
        writeln!(out, "trace seed={}", self.seed)?;
        for e in &self.entries {
            writeln!(out, "{} {} {}", e.t_ms, e.seq, e.event)?;
        }
        writeln!(out, "digest {:016x}", self.digest)
    }

    /// Compact binary encoding: magic `DTRC`, format version, then
    /// `seed, count` and one length-prefixed encoded line per entry (all
    /// integers little-endian). The digest is recomputed on decode, so a
    /// tampered stream is detectable by comparing digests, and a stream
    /// from a different format version is rejected loudly.
    pub fn to_binary(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.entries.len() * 32);
        out.extend_from_slice(&TRACE_MAGIC);
        out.extend_from_slice(&TRACE_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u64).to_le_bytes());
        for e in &self.entries {
            let line = e.to_line();
            out.extend_from_slice(&(line.len() as u32).to_le_bytes());
            out.extend_from_slice(line.as_bytes());
        }
        out
    }

    /// Decode a versioned binary stream produced by [`Trace::to_binary`].
    ///
    /// The digest is recomputed from the decoded lines exactly as the
    /// recorder computed it, so `decoded.digest` can be compared against
    /// a golden value. Fails loudly (with the offending magic/version in
    /// the message) on format drift instead of returning garbage that
    /// would only surface later as a digest mismatch.
    pub fn decode_binary(bytes: &[u8]) -> Result<DecodedTrace, String> {
        fn take<'a>(bytes: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], String> {
            if bytes.len() < n {
                return Err(format!("truncated trace stream: expected {n} bytes for {what}"));
            }
            let (head, tail) = bytes.split_at(n);
            *bytes = tail;
            Ok(head)
        }
        let mut rest = bytes;
        let magic = take(&mut rest, 4, "magic")?;
        if magic != TRACE_MAGIC {
            return Err(format!(
                "not a DUST trace: bad magic {magic:02x?} (expected {TRACE_MAGIC:02x?})"
            ));
        }
        let version = u16::from_le_bytes(take(&mut rest, 2, "version")?.try_into().unwrap());
        if version != TRACE_FORMAT_VERSION {
            return Err(format!(
                "trace format v{version} but this build reads v{TRACE_FORMAT_VERSION}; \
                 re-record the trace (golden digests are format-versioned)"
            ));
        }
        let seed = u64::from_le_bytes(take(&mut rest, 8, "seed")?.try_into().unwrap());
        let count = u64::from_le_bytes(take(&mut rest, 8, "count")?.try_into().unwrap());
        let mut lines = Vec::with_capacity(count.min(1 << 20) as usize);
        let mut digest = fnv1a(FNV_OFFSET, &seed.to_le_bytes());
        for i in 0..count {
            let len =
                u32::from_le_bytes(take(&mut rest, 4, "line length")?.try_into().unwrap()) as usize;
            let raw = take(&mut rest, len, "line body")?;
            let line = std::str::from_utf8(raw)
                .map_err(|_| format!("entry {i}: line is not UTF-8"))?
                .to_string();
            digest = fnv1a(digest, line.as_bytes());
            digest = fnv1a(digest, b"\n");
            lines.push(line);
        }
        if !rest.is_empty() {
            return Err(format!("trailing garbage: {} bytes past the last entry", rest.len()));
        }
        Ok(DecodedTrace { version, seed, lines, digest })
    }
}

/// A binary trace stream decoded by [`Trace::decode_binary`]: the raw
/// encoded lines plus the digest recomputed over them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedTrace {
    /// Format version the stream was encoded with.
    pub version: u16,
    /// Seed of the recorded run.
    pub seed: u64,
    /// One encoded `<t_ms> <seq> <event>` line per entry.
    pub lines: Vec<String>,
    /// FNV-1a digest recomputed over seed + lines (matches
    /// [`Trace::digest`] for an untampered stream).
    pub digest: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_events_same_digest() {
        let run = || {
            let mut t = Trace::new(42);
            t.record(0, TraceEvent::Register { node: 1 });
            t.record(5, TraceEvent::Offer { request: 9, from: 1, to: 2 });
            t.record(7, TraceEvent::OfferAccepted { request: 9, node: 2 });
            t.digest()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn digest_is_sensitive_to_order_time_and_seed() {
        let mut a = Trace::new(1);
        a.record(0, TraceEvent::Abandon { request: 1 });
        a.record(0, TraceEvent::Reclaim { request: 1, node: 0 });
        let mut b = Trace::new(1);
        b.record(0, TraceEvent::Reclaim { request: 1, node: 0 });
        b.record(0, TraceEvent::Abandon { request: 1 });
        assert_ne!(a.digest(), b.digest(), "order must matter");

        let mut c = Trace::new(1);
        c.record(1, TraceEvent::Abandon { request: 1 });
        let mut d = Trace::new(1);
        d.record(2, TraceEvent::Abandon { request: 1 });
        assert_ne!(c.digest(), d.digest(), "time must matter");

        assert_ne!(Trace::new(1).digest(), Trace::new(2).digest(), "seed must matter");
    }

    #[test]
    fn text_encoding_carries_digest_footer() {
        let mut t = Trace::new(3);
        t.record(10, TraceEvent::FaultDrop { to_manager: true });
        let text = t.to_text();
        assert!(text.starts_with("trace seed=3\n"));
        assert!(text.contains("10 0 FaultDrop dir=to_manager\n"));
        assert!(text.trim_end().ends_with(&format!("{:016x}", t.digest())));
    }

    #[test]
    fn binary_encoding_is_deterministic() {
        let mk = || {
            let mut t = Trace::new(8);
            t.record(1, TraceEvent::Stat { node: 4 });
            t.record(2, TraceEvent::Keepalive { node: 4 });
            t.to_binary()
        };
        assert_eq!(mk(), mk());
        assert!(mk().len() > 16);
    }

    #[test]
    fn request_accessor_covers_lifecycle_events() {
        assert_eq!(TraceEvent::Abandon { request: 7 }.request(), Some(7));
        assert_eq!(TraceEvent::Stat { node: 1 }.request(), None);
    }

    #[test]
    fn flow_accessor_partitions_events() {
        use TraceEvent::*;
        assert_eq!(
            Offer { request: 9, from: 1, to: 2 }.flow(),
            Some(FlowId::Transfer(9)),
            "request-scoped events belong to their transfer"
        );
        assert_eq!(Rep { request: 4, orig: 2, failed: 1, to: 3 }.flow(), Some(FlowId::Transfer(4)));
        assert_eq!(ClientRegister { node: 5 }.flow(), Some(FlowId::Registration(5)));
        assert_eq!(Keepalive { node: 5 }.flow(), Some(FlowId::Registration(5)));
        assert_eq!(PlacementRound { round: 3, offers: 2 }.flow(), Some(FlowId::Placement(3)));
        assert_eq!(FaultDrop { to_manager: true }.flow(), None, "infrastructure has no flow");
        assert_eq!(SloBreach { rule: 0, node: SLO_GLOBAL, value_m: 1 }.flow(), None);
    }

    #[test]
    fn binary_round_trips_through_decode() {
        let mut t = Trace::new(42);
        t.record(0, TraceEvent::ClientRegister { node: 1 });
        t.record(5, TraceEvent::Offer { request: 9, from: 1, to: 2 });
        let d = Trace::decode_binary(&t.to_binary()).expect("decode");
        assert_eq!(d.version, TRACE_FORMAT_VERSION);
        assert_eq!(d.seed, 42);
        assert_eq!(d.lines.len(), 2);
        assert_eq!(d.lines[0], t.entries()[0].to_line());
        assert_eq!(d.digest, t.digest(), "decode must recompute the recorder's digest");
    }

    #[test]
    fn decode_rejects_bad_magic_loudly() {
        let err = Trace::decode_binary(b"NOPE\x02\x00rest").unwrap_err();
        assert!(err.contains("bad magic"), "got: {err}");
    }

    #[test]
    fn decode_rejects_other_versions_loudly() {
        let mut bytes = Trace::new(1).to_binary();
        bytes[4] = TRACE_FORMAT_VERSION as u8 + 1; // bump the version field
        let err = Trace::decode_binary(&bytes).unwrap_err();
        assert!(err.contains("trace format v"), "got: {err}");
        assert!(err.contains("re-record"), "got: {err}");
    }

    #[test]
    fn decode_rejects_truncation_and_trailing_garbage() {
        let mut t = Trace::new(1);
        t.record(0, TraceEvent::Abandon { request: 1 });
        let bytes = t.to_binary();
        assert!(Trace::decode_binary(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(Trace::decode_binary(&longer).unwrap_err().contains("trailing garbage"));
    }

    #[test]
    fn write_text_streams_the_same_bytes_as_to_text() {
        let mut t = Trace::new(9);
        t.record(1, TraceEvent::PlacementRound { round: 0, offers: 3 });
        let mut streamed = Vec::new();
        t.write_text(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), t.to_text());
    }
}
