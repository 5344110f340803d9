//! DUST-Client state machine.
//!
//! A client is a pure, clock-driven state machine: the caller feeds it the
//! current time, its local resource readings, and any Manager messages; it
//! emits the `ClientMsg`s the protocol requires. No real clocks or sockets
//! — the discrete-event simulator and unit tests drive it deterministically.
//!
//! The machine is hardened for lossy transports: the registration
//! announcement retransmits until the Manager's `ACK` arrives, duplicated
//! `Offload-Request`/`REP` deliveries re-confirm instead of double-booking,
//! and released request ids are remembered so a late duplicate of an old
//! offer can never resurrect a hosting the Manager already ended.

use crate::messages::{ClientMsg, ManagerMsg, RequestId};
use dust_obs::{ObsHandle, TraceEvent};
use dust_topology::NodeId;
use std::collections::{BTreeMap, BTreeSet};

/// Registration lifecycle of a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientPhase {
    /// Nothing sent yet.
    Idle,
    /// `Offload-capable` sent, waiting for the Manager's `ACK`.
    Registering,
    /// Registered; STAT cadence known.
    Active,
}

/// One workload this client hosts on behalf of a Busy node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostedWorkload {
    /// Originating Busy node.
    pub from: NodeId,
    /// Capacity-percent being hosted.
    pub amount: f64,
    /// Monitoring data volume flowing in, Mb.
    pub data_mb: f64,
}

/// The DUST-Client state machine.
#[derive(Debug, Clone)]
pub struct Client {
    /// This node's identity.
    pub node: NodeId,
    /// Whether the node volunteers for offloading.
    pub capable: bool,
    phase: ClientPhase,
    /// STAT period from the Manager's ACK, ms.
    update_interval_ms: Option<u64>,
    last_stat_ms: Option<u64>,
    last_keepalive_ms: Option<u64>,
    /// When the last `Offload-capable` announcement went out, ms.
    last_register_ms: Option<u64>,
    /// Workloads hosted for Busy nodes, by request id.
    hosted: BTreeMap<RequestId, HostedWorkload>,
    /// Request ids this client already released: a late duplicate of an
    /// old offer must not resurrect a hosting the Manager ended.
    released: BTreeSet<RequestId>,
    /// Maximum utilization this client will accept before refusing an
    /// `Offload-Request` (its own protection threshold).
    accept_ceiling: f64,
    /// Latest locally measured utilization, percent.
    utilization: f64,
    /// Latest locally measured monitoring data volume, Mb.
    data_mb: f64,
    /// Observability sink for hosting transitions (no-op by default).
    obs: ObsHandle,
}

/// Keepalive cadence relative to the STAT interval: destinations heartbeat
/// 4× as often as they report STATs so failures are caught quickly.
const KEEPALIVE_DIVISOR: u64 = 4;

/// Retransmit cadence for the registration announcement while no ACK has
/// arrived (the transport may have dropped either direction).
const REGISTER_RETRY_MS: u64 = 1_000;

/// A hosting order's payload is only bookable if both quantities are
/// finite and the capacity share is positive — anything else is a
/// corrupted or hostile frame, not a workload.
fn sane_payload(amount: f64, data_mb: f64) -> bool {
    amount.is_finite() && amount > 0.0 && data_mb.is_finite() && data_mb >= 0.0
}

impl Client {
    /// A new, unregistered client. The ceiling is a percentage; values
    /// outside `[0, 100]` (including NaN) are clamped rather than trusted,
    /// so a bad config can never panic a node.
    pub fn new(node: NodeId, capable: bool, accept_ceiling: f64) -> Self {
        let accept_ceiling =
            if accept_ceiling.is_finite() { accept_ceiling.clamp(0.0, 100.0) } else { 0.0 };
        Client {
            node,
            capable,
            phase: ClientPhase::Idle,
            update_interval_ms: None,
            last_stat_ms: None,
            last_keepalive_ms: None,
            last_register_ms: None,
            hosted: BTreeMap::new(),
            released: BTreeSet::new(),
            accept_ceiling,
            utilization: 0.0,
            data_mb: 0.0,
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach an observability handle: hosting transitions (accept,
    /// refuse, release) record through it.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Registration lifecycle phase.
    pub fn phase(&self) -> ClientPhase {
        self.phase
    }

    /// Workloads currently hosted (the node is an Offload-destination iff
    /// this is non-empty).
    pub fn hosted(&self) -> impl Iterator<Item = (&RequestId, &HostedWorkload)> {
        self.hosted.iter()
    }

    /// Total capacity-percent hosted for others.
    pub fn hosted_amount(&self) -> f64 {
        self.hosted.values().map(|w| w.amount).sum()
    }

    /// Update local readings (from the node's own monitor agents). Readings
    /// come from outside the protocol — a wedged agent reporting NaN or a
    /// utilization above 100 % is clamped, never a panic.
    pub fn observe(&mut self, utilization: f64, data_mb: f64) {
        self.utilization =
            if utilization.is_finite() { utilization.clamp(0.0, 100.0) } else { 0.0 };
        self.data_mb = if data_mb.is_finite() { data_mb.max(0.0) } else { 0.0 };
    }

    /// Begin registration: emits the `Offload-capable` message (§III-B).
    /// While the ACK is outstanding, [`Client::tick`] keeps retransmitting
    /// the announcement every `REGISTER_RETRY_MS`.
    pub fn register(&mut self, now_ms: u64) -> ClientMsg {
        self.phase = ClientPhase::Registering;
        self.last_register_ms = Some(now_ms);
        self.obs.counter_inc("proto.client.registers");
        self.obs.trace_at(now_ms, TraceEvent::ClientRegister { node: self.node.0 });
        ClientMsg::OffloadCapable { node: self.node, capable: self.capable }
    }

    /// Process one Manager message, possibly emitting a reply. Every arm is
    /// idempotent: redelivering any message leaves the ledger unchanged.
    pub fn handle(&mut self, now_ms: u64, msg: &ManagerMsg) -> Option<ClientMsg> {
        match msg {
            ManagerMsg::Ack { update_interval_ms } => {
                // Only the first ACK matters; a duplicated ACK must not
                // reset the STAT clock of an already-active client.
                if self.phase != ClientPhase::Active {
                    self.phase = ClientPhase::Active;
                    self.update_interval_ms = Some(*update_interval_ms);
                    // first STAT goes out on the next tick
                    self.last_stat_ms = Some(now_ms);
                    self.obs.counter_inc("proto.client.registered");
                    self.obs.trace_at(now_ms, TraceEvent::ClientRegistered { node: self.node.0 });
                }
                None
            }
            ManagerMsg::OffloadRequest { request, from, amount, data_mb, route: _ } => {
                let order = HostedWorkload { from: *from, amount: *amount, data_mb: *data_mb };
                Some(self.hosting_order(now_ms, *request, order, false))
            }
            // Replica substitution: an unconditional hosting order from the
            // Manager, which already verified capacity from STATs.
            ManagerMsg::Rep { request, failed: _, from, amount, data_mb, route: _ } => {
                let order = HostedWorkload { from: *from, amount: *amount, data_mb: *data_mb };
                Some(self.hosting_order(now_ms, *request, order, true))
            }
            ManagerMsg::Release { request } => {
                if self.hosted.remove(request).is_some() {
                    self.obs.counter_inc("proto.client.releases");
                    self.obs.trace_at(
                        now_ms,
                        TraceEvent::ClientReleased { request: request.0, node: self.node.0 },
                    );
                }
                self.released.insert(*request);
                None
            }
        }
    }

    /// One hosting order, an `Offload-Request` or (`rep`) a `REP`, and its
    /// `Offload-ACK`. A tombstoned request is refused and one already
    /// hosted re-confirmed, so a duplicated delivery (or a Manager retry
    /// after a lost ACK) never double-books. Otherwise the order is booked
    /// when its payload is sane — a corrupted frame can smuggle NaN or
    /// negative payloads past the codec, and those must never reach the
    /// ledger — and, for an `Offload-Request` only, while the added load
    /// keeps this client under its own ceiling (the QoS guarantee of
    /// §III-C: remote nodes must not be degraded).
    fn hosting_order(
        &mut self,
        now_ms: u64,
        request: RequestId,
        order: HostedWorkload,
        rep: bool,
    ) -> ClientMsg {
        let node = self.node;
        let ack = |accept| ClientMsg::OffloadAck { node, request, accept };
        if self.released.contains(&request) {
            // late duplicate of an offer the Manager already ended
            self.obs.counter_inc("proto.client.tombstone_refusals");
            return ack(false);
        }
        if self.hosted.contains_key(&request) {
            self.obs.counter_inc("proto.client.reconfirms");
            return ack(true);
        }
        let fits = || {
            self.capable
                && self.utilization + self.hosted_amount() + order.amount <= self.accept_ceiling
        };
        let accept = sane_payload(order.amount, order.data_mb) && (rep || fits());
        if accept {
            self.hosted.insert(request, order);
            self.obs.counter_inc("proto.client.accepts");
            self.obs
                .trace_at(now_ms, TraceEvent::ClientAccept { request: request.0, node: node.0 });
        } else {
            self.obs.counter_inc("proto.client.refusals");
            self.obs
                .trace_at(now_ms, TraceEvent::ClientRefuse { request: request.0, node: node.0 });
        }
        ack(accept)
    }

    /// Advance the clock; emits due periodic messages: the registration
    /// retransmit while unacknowledged, then `STAT` (and `Keepalive` while
    /// hosting) once active.
    pub fn tick(&mut self, now_ms: u64) -> Vec<ClientMsg> {
        let mut out = Vec::new();
        self.tick_into(now_ms, &mut out);
        out
    }

    /// [`Client::tick`] into a caller-owned buffer — the allocation-free
    /// form the event-driven simulator core uses on its per-fleet hot
    /// path. Due messages are *appended*; the buffer is not cleared.
    pub fn tick_into(&mut self, now_ms: u64, out: &mut Vec<ClientMsg>) {
        let due = |last: Option<u64>, period: u64| match last {
            None => true,
            Some(t) => now_ms.saturating_sub(t) >= period,
        };
        match self.phase {
            ClientPhase::Idle => return,
            ClientPhase::Registering => {
                if due(self.last_register_ms, REGISTER_RETRY_MS) {
                    out.push(self.register(now_ms));
                }
                return;
            }
            ClientPhase::Active => {}
        }
        // An Active client always has an interval (set by the ACK), but a
        // missing one must degrade to silence, not a panic.
        let Some(interval) = self.update_interval_ms else { return };
        if interval == 0 {
            return;
        }
        if due(self.last_stat_ms, interval) {
            self.last_stat_ms = Some(now_ms);
            out.push(ClientMsg::Stat {
                node: self.node,
                utilization: self.utilization + self.hosted_amount(),
                data_mb: self.data_mb,
            });
        }
        if !self.hosted.is_empty() {
            let ka = (interval / KEEPALIVE_DIVISOR).max(1);
            if due(self.last_keepalive_ms, ka) {
                self.last_keepalive_ms = Some(now_ms);
                out.push(ClientMsg::Keepalive { node: self.node });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active_client() -> Client {
        let mut c = Client::new(NodeId(1), true, 80.0);
        let _ = c.register(0);
        c.handle(0, &ManagerMsg::Ack { update_interval_ms: 1000 });
        c
    }

    fn request(id: u64, amount: f64) -> ManagerMsg {
        ManagerMsg::OffloadRequest {
            request: RequestId(id),
            from: NodeId(0),
            amount,
            data_mb: 50.0,
            route: None,
        }
    }

    fn rep(id: u64, amount: f64) -> ManagerMsg {
        ManagerMsg::Rep {
            request: RequestId(id),
            failed: NodeId(9),
            from: NodeId(0),
            amount,
            data_mb: 35.0,
            route: None,
        }
    }

    #[test]
    fn registration_flow() {
        let mut c = Client::new(NodeId(2), true, 80.0);
        assert_eq!(c.phase(), ClientPhase::Idle);
        let m = c.register(0);
        assert_eq!(m, ClientMsg::OffloadCapable { node: NodeId(2), capable: true });
        assert_eq!(c.phase(), ClientPhase::Registering);
        c.handle(0, &ManagerMsg::Ack { update_interval_ms: 500 });
        assert_eq!(c.phase(), ClientPhase::Active);
    }

    #[test]
    fn registration_retransmits_until_ack() {
        let mut c = Client::new(NodeId(2), true, 80.0);
        let _ = c.register(0); // lost on the wire
        assert!(c.tick(500).is_empty(), "not due yet");
        let again = c.tick(1_000);
        assert_eq!(again, vec![ClientMsg::OffloadCapable { node: NodeId(2), capable: true }]);
        // still unacknowledged: keeps going
        assert_eq!(c.tick(2_000).len(), 1);
        c.handle(2_100, &ManagerMsg::Ack { update_interval_ms: 1000 });
        assert_eq!(c.phase(), ClientPhase::Active);
        // once active, ticks emit STATs, not registrations
        let msgs = c.tick(4_000);
        assert!(msgs.iter().all(|m| matches!(m, ClientMsg::Stat { .. })));
    }

    #[test]
    fn duplicate_ack_does_not_reset_stat_clock() {
        let mut c = active_client();
        c.observe(42.0, 10.0);
        // STAT due at 1000; a duplicated ACK at 900 must not postpone it
        c.handle(900, &ManagerMsg::Ack { update_interval_ms: 1000 });
        assert_eq!(c.tick(1_000).len(), 1);
    }

    #[test]
    fn stat_cadence_follows_interval() {
        let mut c = active_client();
        c.observe(42.0, 10.0);
        // ACK at t=0 set last_stat; next STAT due at t=1000
        assert!(c.tick(500).is_empty());
        let msgs = c.tick(1000);
        assert_eq!(msgs.len(), 1);
        match &msgs[0] {
            ClientMsg::Stat { utilization, .. } => assert_eq!(*utilization, 42.0),
            other => panic!("expected STAT, got {other:?}"),
        }
        // not due again immediately
        assert!(c.tick(1100).is_empty());
        assert_eq!(c.tick(2000).len(), 1);
    }

    #[test]
    fn accepts_request_within_ceiling() {
        let mut c = active_client();
        c.observe(40.0, 10.0);
        let reply = c.handle(0, &request(1, 20.0)).unwrap();
        assert_eq!(
            reply,
            ClientMsg::OffloadAck { node: NodeId(1), request: RequestId(1), accept: true }
        );
        assert_eq!(c.hosted_amount(), 20.0);
    }

    #[test]
    fn refuses_request_beyond_ceiling() {
        let mut c = active_client();
        c.observe(70.0, 10.0);
        let reply = c.handle(0, &request(2, 20.0)).unwrap();
        match reply {
            ClientMsg::OffloadAck { accept, .. } => assert!(!accept),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.hosted_amount(), 0.0);
    }

    #[test]
    fn duplicated_request_reconfirms_without_double_booking() {
        let mut c = active_client();
        c.observe(60.0, 10.0);
        let first = c.handle(0, &request(3, 15.0)).unwrap();
        assert!(matches!(first, ClientMsg::OffloadAck { accept: true, .. }));
        assert_eq!(c.hosted_amount(), 15.0);
        // the duplicate would fail the ceiling check (60 + 15 + 15 > 80) if
        // it were treated as a fresh offer — it must re-confirm instead
        let dup = c.handle(5, &request(3, 15.0)).unwrap();
        assert_eq!(
            dup,
            ClientMsg::OffloadAck { node: NodeId(1), request: RequestId(3), accept: true }
        );
        assert_eq!(c.hosted_amount(), 15.0, "no double-booking");
    }

    #[test]
    fn late_duplicate_after_release_is_refused() {
        let mut c = active_client();
        c.observe(10.0, 5.0);
        c.handle(0, &request(4, 10.0));
        c.handle(10, &ManagerMsg::Release { request: RequestId(4) });
        assert_eq!(c.hosted_amount(), 0.0);
        // a delayed duplicate of the original offer arrives after the end
        // of the arrangement: it must not resurrect the hosting
        let reply = c.handle(20, &request(4, 10.0)).unwrap();
        assert_eq!(
            reply,
            ClientMsg::OffloadAck { node: NodeId(1), request: RequestId(4), accept: false }
        );
        assert_eq!(c.hosted_amount(), 0.0);
        // same for a late REP duplicate
        c.handle(30, &rep(5, 10.0));
        c.handle(40, &ManagerMsg::Release { request: RequestId(5) });
        let reply = c.handle(50, &rep(5, 10.0)).unwrap();
        assert!(matches!(reply, ClientMsg::OffloadAck { accept: false, .. }));
        assert_eq!(c.hosted_amount(), 0.0);
    }

    #[test]
    fn hosting_raises_reported_utilization() {
        let mut c = active_client();
        c.observe(30.0, 5.0);
        c.handle(0, &request(3, 15.0));
        let msgs = c.tick(1000);
        match &msgs[0] {
            ClientMsg::Stat { utilization, .. } => assert_eq!(*utilization, 45.0),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn keepalives_only_while_hosting() {
        let mut c = active_client();
        c.observe(30.0, 5.0);
        assert!(!c.tick(1000).iter().any(|m| matches!(m, ClientMsg::Keepalive { .. })));
        c.handle(1000, &request(4, 10.0));
        let msgs = c.tick(2000);
        assert!(msgs.iter().any(|m| matches!(m, ClientMsg::Keepalive { .. })));
        // keepalive cadence is interval/4 = 250ms
        assert!(c.tick(2100).is_empty());
        assert!(c.tick(2250).iter().any(|m| matches!(m, ClientMsg::Keepalive { .. })));
    }

    #[test]
    fn keepalive_period_clamps_to_one_ms_for_tiny_stat_intervals() {
        // STAT intervals of 1–3 ms divide to 0 under KEEPALIVE_DIVISOR;
        // the clamp must hold the heartbeat at 1 ms, never 0 (which would
        // read as "always due" semantics degenerating per-call).
        for interval in 1..=3u64 {
            let mut c = Client::new(NodeId(1), true, 80.0);
            let _ = c.register(0);
            c.handle(0, &ManagerMsg::Ack { update_interval_ms: interval });
            c.observe(30.0, 5.0);
            c.handle(0, &request(1, 10.0));
            let first = c.tick(interval);
            assert!(
                first.iter().any(|m| matches!(m, ClientMsg::Keepalive { .. })),
                "interval {interval}: hosting client must heartbeat"
            );
            // the next keepalive is due exactly 1 ms later — not sooner
            // (same-instant re-tick) and not stalled
            let t = interval;
            assert!(
                !c.tick(t).iter().any(|m| matches!(m, ClientMsg::Keepalive { .. })),
                "interval {interval}: re-tick at the same ms must not re-heartbeat"
            );
            assert!(
                c.tick(t + 1).iter().any(|m| matches!(m, ClientMsg::Keepalive { .. })),
                "interval {interval}: keepalive must be due 1 ms later"
            );
        }
    }

    #[test]
    fn release_stops_hosting() {
        let mut c = active_client();
        c.observe(30.0, 5.0);
        c.handle(0, &request(5, 10.0));
        assert_eq!(c.hosted_amount(), 10.0);
        c.handle(10, &ManagerMsg::Release { request: RequestId(5) });
        assert_eq!(c.hosted_amount(), 0.0);
        // duplicated Release is a no-op
        c.handle(20, &ManagerMsg::Release { request: RequestId(5) });
        assert_eq!(c.hosted_amount(), 0.0);
    }

    #[test]
    fn rep_order_is_unconditional_and_carries_volume() {
        let mut c = active_client();
        c.observe(79.0, 5.0); // near ceiling — a REQUEST would be refused
        let reply = c.handle(0, &rep(6, 10.0)).unwrap();
        match reply {
            ClientMsg::OffloadAck { accept, .. } => assert!(accept),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.hosted_amount(), 10.0);
        // the telemetry volume survives the re-homing
        let (_, w) = c.hosted().next().unwrap();
        assert_eq!(w.data_mb, 35.0);
        // duplicated REP re-confirms without double-booking
        let dup = c.handle(5, &rep(6, 10.0)).unwrap();
        assert!(matches!(dup, ClientMsg::OffloadAck { accept: true, .. }));
        assert_eq!(c.hosted_amount(), 10.0);
    }

    #[test]
    fn a_corrupt_duplicate_of_a_hosted_rep_reconfirms() {
        let mut c = active_client();
        c.handle(0, &rep(6, 10.0));
        let before: Vec<(RequestId, HostedWorkload)> = c.hosted().map(|(r, w)| (*r, *w)).collect();
        // the duplicate's payload was garbled on the wire, but the hosting
        // it names is booked: refusing it would make the Manager drop a
        // hosting this client keeps carrying
        for corrupt in [rep(6, f64::NAN), rep(6, -4.0)] {
            let dup = c.handle(5, &corrupt).unwrap();
            assert_eq!(
                dup,
                ClientMsg::OffloadAck { node: NodeId(1), request: RequestId(6), accept: true }
            );
            let after: Vec<(RequestId, HostedWorkload)> =
                c.hosted().map(|(r, w)| (*r, *w)).collect();
            assert_eq!(after, before, "the booked workload is unchanged");
        }
        // a corrupt REP for a request not hosted is still refused
        let fresh = c.handle(10, &rep(7, f64::NAN)).unwrap();
        assert!(matches!(fresh, ClientMsg::OffloadAck { accept: false, .. }));
        assert_eq!(c.hosted().count(), 1);
    }

    #[test]
    fn inactive_client_stays_silent() {
        let mut c = Client::new(NodeId(7), true, 80.0);
        assert!(c.tick(10_000).is_empty());
        let _ = c.register(10_000);
        assert!(
            c.tick(20_000).iter().all(|m| matches!(m, ClientMsg::OffloadCapable { .. })),
            "no STATs before the ACK — only registration retries"
        );
    }

    #[test]
    fn incapable_node_refuses_requests() {
        let mut c = Client::new(NodeId(8), false, 80.0);
        let _ = c.register(0);
        c.handle(0, &ManagerMsg::Ack { update_interval_ms: 1000 });
        c.observe(10.0, 1.0);
        let reply = c.handle(0, &request(7, 5.0)).unwrap();
        match reply {
            ClientMsg::OffloadAck { accept, .. } => assert!(!accept),
            other => panic!("{other:?}"),
        }
    }
}
