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
//!
//! The trace is also the run's black box: [`Trace::post_mortem`]
//! renders its last [`POST_MORTEM_WINDOW`] entries as the dump a
//! broken sim invariant or a failing [`crate::TraceAssert`] leaves
//! behind.

use std::fmt;
use std::io;

/// How many trailing entries a [`Trace::post_mortem`] dump keeps.
pub const POST_MORTEM_WINDOW: usize = 256;

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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
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

    /// Render the last [`POST_MORTEM_WINDOW`] entries as a
    /// deterministic post-mortem dump tagged with `reason`. Format:
    ///
    /// ```text
    /// postmortem reason=<reason> seed=<seed> window=<kept> dropped=<older>
    /// <t_ms> <seq> <event>         (one line per kept entry)
    /// digest <fnv1a-64 over all preceding lines>
    /// ```
    ///
    /// Whitespace in `reason` is folded to `_` so the header stays one
    /// token-parseable line. The digest covers the header and every entry
    /// line, so two dumps are byte-identical iff their digests match.
    pub fn post_mortem(&self, reason: &str) -> String {
        let reason: String =
            reason.chars().map(|c| if c.is_whitespace() { '_' } else { c }).collect();
        let tail = &self.entries[self.entries.len().saturating_sub(POST_MORTEM_WINDOW)..];
        let dropped = self.entries.len() - tail.len();
        let mut out = format!(
            "postmortem reason={reason} seed={} window={} dropped={dropped}\n",
            self.seed,
            tail.len()
        );
        for e in tail {
            out.push_str(&e.to_line());
            out.push('\n');
        }
        let digest = fnv1a(FNV_OFFSET, out.as_bytes());
        out.push_str(&format!("digest {digest:016x}\n"));
        out
    }
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
    fn write_text_streams_the_same_bytes_as_to_text() {
        let mut t = Trace::new(9);
        t.record(1, TraceEvent::PlacementRound { round: 0, offers: 3 });
        let mut streamed = Vec::new();
        t.write_text(&mut streamed).unwrap();
        assert_eq!(String::from_utf8(streamed).unwrap(), t.to_text());
    }

    fn trace_of(seed: u64, n: u64) -> Trace {
        let mut t = Trace::new(seed);
        for i in 0..n {
            t.record(i * 10, TraceEvent::Abandon { request: i });
        }
        t
    }

    /// The `seq` of every entry line in a post-mortem dump.
    fn dumped_seqs(dump: &str) -> Vec<u64> {
        let body = dump.lines().skip(1).take_while(|l| !l.starts_with("digest "));
        body.map(|l| l.split(' ').nth(1).unwrap().parse().unwrap()).collect()
    }

    #[test]
    fn ring_keeps_the_most_recent_entries_in_order() {
        let total = POST_MORTEM_WINDOW as u64 + 44;
        let dump = trace_of(1, total).post_mortem("x");
        let seqs = dumped_seqs(&dump);
        assert_eq!(seqs, (44..total).collect::<Vec<_>>(), "window must be the tail, oldest first");
        assert!(dump.starts_with("postmortem reason=x seed=1 window=256 dropped=44\n"));
    }

    #[test]
    fn window_is_stable_before_wraparound() {
        let dump = trace_of(1, 3).post_mortem("x");
        assert_eq!(dumped_seqs(&dump), vec![0, 1, 2]);
        assert!(dump.starts_with("postmortem reason=x seed=1 window=3 dropped=0\n"));
    }

    #[test]
    fn dump_is_deterministic_and_counts_evictions() {
        let mk = || trace_of(7, POST_MORTEM_WINDOW as u64 + 3).post_mortem("ledger drift");
        let dump = mk();
        assert_eq!(dump, mk(), "same window must dump identical bytes");
        assert!(dump.starts_with("postmortem reason=ledger_drift seed=7 window=256 dropped=3\n"));
        assert!(dump.trim_end().lines().last().unwrap().starts_with("digest "));
    }

    #[test]
    fn dump_digest_is_sensitive_to_content() {
        let mut a = Trace::new(1);
        a.record(0, TraceEvent::Abandon { request: 0 });
        let mut b = Trace::new(1);
        b.record(0, TraceEvent::Abandon { request: 1 });
        let digest = |d: String| d.lines().last().unwrap().to_string();
        assert_ne!(digest(a.post_mortem("x")), digest(b.post_mortem("x")));
    }
}
