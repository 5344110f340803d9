//! Trace-based protocol tests under loss.
//!
//! The same deterministic loss shuttle as `lossy_ledger.rs`, but with a
//! shared trace recorder attached to the Manager and every Client. The
//! assertions run against the *event log* rather than the final ledgers,
//! so they catch transient misbehaviour that quiesces away before the end
//! of a run:
//!
//! * a request released at a client (tombstoned) is never re-accepted —
//!   late duplicate offers cannot double-book capacity;
//! * the Manager only abandons an offer after burning its entire retry
//!   budget — every `Abandon` is preceded by exactly
//!   `MAX_OFFER_ATTEMPTS - 1` retransmissions of that request;
//! * a request is confirmed at most once, no matter how many duplicate
//!   ACKs the gate injects.

use dust_core::DustConfig;
use dust_obs::{ObsHandle, Trace, TraceAssert, TraceEvent};
use dust_proto::{Client, ClientMsg, Envelope, Manager, ManagerMsg, SolverBackend};
use dust_topology::{topologies, Link, NodeId, SplitMix64};
use std::collections::BTreeMap;

const STEP_MS: u64 = 100;
const UPDATE_INTERVAL_MS: u64 = 1_000;
const KEEPALIVE_TIMEOUT_MS: u64 = 4_000;

/// Offer transmissions before the Manager gives up (mirrors
/// `manager::MAX_OFFER_ATTEMPTS`); an `Abandon` therefore implies exactly
/// `MAX_OFFER_ATTEMPTS - 1` retransmits of that request beforehand.
const MAX_OFFER_ATTEMPTS: usize = 5;

struct Gate {
    rng: SplitMix64,
    drop: f64,
    dup: f64,
}

impl Gate {
    fn copies(&mut self) -> usize {
        if self.rng.gen_bool(self.drop) {
            0
        } else if self.rng.gen_bool(self.dup) {
            2
        } else {
            1
        }
    }
}

struct Harness {
    manager: Manager,
    /// The config `manager` was built with.
    cfg: DustConfig,
    clients: BTreeMap<NodeId, Client>,
    load: BTreeMap<NodeId, (f64, f64)>,
    gate: Gate,
    obs: ObsHandle,
}

impl Harness {
    fn new(seed: u64, drop: f64, dup: f64) -> Self {
        let n = 4usize;
        let g = topologies::star(n, Link::default());
        let cfg = DustConfig::paper_defaults();
        let obs = ObsHandle::recording(seed);
        // A short offer timeout squeezes the full exponential-backoff
        // ladder (base·{1,2,4,8,8} ≈ 11.5 s) inside the lossy phase so
        // heavy-loss runs actually reach Abandon.
        let mut manager = Manager::new(
            g,
            cfg,
            SolverBackend::Transportation,
            UPDATE_INTERVAL_MS,
            KEEPALIVE_TIMEOUT_MS,
        )
        .unwrap()
        .with_offer_timeout(500)
        .unwrap();
        manager.set_obs(obs.clone());
        let mut clients = BTreeMap::new();
        let mut load = BTreeMap::new();
        for i in 0..n as u32 {
            let mut c = Client::new(NodeId(i), true, 90.0);
            c.set_obs(obs.clone());
            clients.insert(NodeId(i), c);
        }
        load.insert(NodeId(0), (92.0, 120.0));
        load.insert(NodeId(1), (25.0, 10.0));
        load.insert(NodeId(2), (30.0, 10.0));
        load.insert(NodeId(3), (35.0, 10.0));
        Harness {
            manager,
            cfg,
            clients,
            load,
            gate: Gate { rng: SplitMix64::new(seed), drop, dup },
            obs,
        }
    }

    fn send_to_manager(&mut self, now: u64, msg: &ClientMsg) {
        for _ in 0..self.gate.copies() {
            let replies = self.manager.handle(now, msg);
            self.deliver_all(now, replies);
        }
    }

    fn deliver_all(&mut self, now: u64, envs: Vec<Envelope<ManagerMsg>>) {
        for env in envs {
            for _ in 0..self.gate.copies() {
                let reply =
                    self.clients.get_mut(&env.to).expect("known client").handle(now, &env.msg);
                if let Some(reply) = reply {
                    self.send_to_manager(now, &reply);
                }
            }
        }
    }

    fn step(&mut self, now: u64, faults_on: bool) {
        if !faults_on {
            self.gate.drop = 0.0;
            self.gate.dup = 0.0;
        }
        self.obs.set_now(now);
        let nodes: Vec<NodeId> = self.clients.keys().copied().collect();
        for id in nodes {
            let (u, d) = self.load[&id];
            let c = self.clients.get_mut(&id).unwrap();
            c.observe(u, d);
            for msg in c.tick(now) {
                self.send_to_manager(now, &msg);
            }
        }
        let maintenance = self.manager.tick(now);
        self.deliver_all(now, maintenance);
        if now.is_multiple_of(UPDATE_INTERVAL_MS)
            && !self.manager.snapshot().busy_nodes(&self.cfg).is_empty()
        {
            let (_, offers) = self.manager.run_placement(now);
            self.deliver_all(now, offers);
        }
    }

    /// Register everyone at t=0, then run `[STEP_MS, to_ms]` with faults
    /// on, then a calm settling phase of equal length. Returns the trace.
    fn run_to(&mut self, to_ms: u64) -> Trace {
        let regs: Vec<ClientMsg> = self.clients.values_mut().map(|c| c.register(0)).collect();
        for reg in regs {
            self.send_to_manager(0, &reg);
        }
        let mut now = STEP_MS;
        while now <= to_ms {
            self.step(now, true);
            now += STEP_MS;
        }
        while now <= 2 * to_ms {
            self.step(now, false);
            now += STEP_MS;
        }
        self.obs.trace_snapshot().expect("recording handle")
    }
}

/// Tombstone safety at 20 % loss: once a client has released a request
/// (`ClientReleased`), no later `ClientAccept` may carry the same id —
/// a late duplicate of the original offer must hit the tombstone and be
/// refused, never re-book capacity.
#[test]
fn no_double_booking_after_release_tombstone() {
    for seed in 0..12u64 {
        let mut h = Harness::new(seed * 13 + 5, 0.2, 0.1);
        let trace = h.run_to(30_000);
        let t = TraceAssert::new(&trace);
        t.expect("ClientAccept").forbid_after(
            "re-accept of a released request",
            |a| matches!(a.event, TraceEvent::ClientReleased { .. }),
            |a, b| {
                matches!(b.event, TraceEvent::ClientAccept { .. })
                    && a.event.request() == b.event.request()
            },
        );
    }
}

/// A request is confirmed at most once, however many duplicate ACKs the
/// gate injects: duplicate confirmations land on the idempotent path and
/// must not re-emit `OfferAccepted` (or `ClientAccept`).
#[test]
fn duplicate_acks_confirm_at_most_once() {
    for seed in 0..12u64 {
        let mut h = Harness::new(seed * 3 + 2, 0.2, 0.3);
        let trace = h.run_to(30_000);
        let t = TraceAssert::new(&trace);
        let requests: std::collections::BTreeSet<u64> =
            t.entries().iter().filter_map(|e| e.event.request()).collect();
        for req in requests {
            for kind in ["OfferAccepted", "ClientAccept"] {
                let n = t.count_where(|e| e.event.kind() == kind && e.event.request() == Some(req));
                assert!(n <= 1, "seed {seed}: request {req} saw {n} {kind} events");
            }
        }
    }
}

/// The Manager never gives up early: every `Abandon` must be preceded by
/// exactly `MAX_OFFER_ATTEMPTS - 1` retransmissions of that request, with
/// attempt numbers `2..=MAX_OFFER_ATTEMPTS`. Heavy loss (60 %) makes
/// abandonment likely; the assertion must hold for every occurrence.
#[test]
fn abandon_only_after_full_retry_budget() {
    let mut abandons_seen = 0usize;
    for seed in 0..12u64 {
        let mut h = Harness::new(seed * 11 + 3, 0.6, 0.1);
        let trace = h.run_to(30_000);
        let t = TraceAssert::new(&trace);
        for e in t.entries() {
            let TraceEvent::Abandon { request } = e.event else { continue };
            abandons_seen += 1;
            let retransmits = t.preceding(
                e.seq,
                |p| matches!(p.event, TraceEvent::Retransmit { request: r, .. } if r == request),
            );
            assert_eq!(
                retransmits,
                MAX_OFFER_ATTEMPTS - 1,
                "seed {seed}: request {request} abandoned after {retransmits} retransmits"
            );
            let attempts: Vec<u32> = t
                .entries()
                .iter()
                .take(e.seq as usize)
                .filter_map(|p| match p.event {
                    TraceEvent::Retransmit { request: r, attempt } if r == request => Some(attempt),
                    _ => None,
                })
                .collect();
            let expected: Vec<u32> = (2..=MAX_OFFER_ATTEMPTS as u32).collect();
            assert_eq!(
                attempts, expected,
                "seed {seed}: request {request} retransmit ladder out of order"
            );
        }
    }
    assert!(abandons_seen > 0, "60% loss over 12 seeds must abandon at least one offer");
}
