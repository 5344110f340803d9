//! Seeded lossy-transport tests for the Manager/Client pair.
//!
//! A deterministic shuttle carries every message through a SplitMix64-
//! driven fault gate that drops and duplicates envelopes. The protocol's
//! retry/expiry machinery (registration retransmit, offer expiry with
//! backoff, Release retransmit, idempotent duplicate handling) must keep
//! the two ledgers convergent: after the network calms down, every
//! confirmed hosting on the Manager is hosted by exactly the right client
//! with exactly the right amount, and no unconfirmed offer outlives its
//! retry budget.

use dust_core::DustConfig;
use dust_proto::{Client, ClientMsg, Envelope, Manager, ManagerMsg, SolverBackend};
use dust_topology::{topologies, Link, NodeId, SplitMix64};
use std::collections::BTreeMap;

const STEP_MS: u64 = 100;
const UPDATE_INTERVAL_MS: u64 = 1_000;
const KEEPALIVE_TIMEOUT_MS: u64 = 4_000;

/// Drop/duplicate gate. Delivery stays in-order (reordering is exercised
/// by the simulator's transport; here we isolate loss and duplication).
struct Gate {
    rng: SplitMix64,
    drop: f64,
    dup: f64,
}

impl Gate {
    /// 0, 1, or 2 copies of the message, decided deterministically.
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
    /// Per-client observed local load (constant per scenario).
    load: BTreeMap<NodeId, (f64, f64)>,
    gate: Gate,
}

impl Harness {
    fn new(seed: u64, drop: f64, dup: f64) -> Self {
        let n = 4usize;
        let g = topologies::star(n, Link::default());
        let cfg = DustConfig::paper_defaults();
        let manager = Manager::new(
            g,
            cfg,
            SolverBackend::Transportation,
            UPDATE_INTERVAL_MS,
            KEEPALIVE_TIMEOUT_MS,
        )
        .unwrap();
        let mut clients = BTreeMap::new();
        let mut load = BTreeMap::new();
        for i in 0..n as u32 {
            clients.insert(NodeId(i), Client::new(NodeId(i), true, 90.0));
        }
        // hub is Busy, spokes have headroom
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
        }
    }

    /// Pass a client→manager message through the gate and deliver it,
    /// shuttling any manager replies straight back (also gated).
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

    /// One simulated step: clients tick (registration retransmit, STAT,
    /// keepalive), manager ticks (expiry, REP, reclaim, Release retries),
    /// and a placement round fires every update interval.
    fn step(&mut self, now: u64, faults_on: bool) {
        if !faults_on {
            self.gate.drop = 0.0;
            self.gate.dup = 0.0;
        }
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

    fn run(&mut self, from_ms: u64, to_ms: u64, faults_on: bool) {
        let mut now = from_ms;
        while now <= to_ms {
            self.step(now, faults_on);
            now += STEP_MS;
        }
    }
}

/// Ledger convergence under loss + duplication: lossy phase, then a calm
/// settling phase, then the invariants must hold exactly.
#[test]
fn ledgers_converge_under_loss_and_duplication() {
    for &loss in &[0.05, 0.2, 0.4] {
        for seed in 0..12u64 {
            let mut h = Harness::new(seed * 7 + 1, loss, loss / 2.0);
            // registration kicks the whole thing off — possibly lost,
            // retransmitted by the client until the ACK lands
            let regs: Vec<(NodeId, ClientMsg)> =
                h.clients.iter_mut().map(|(id, c)| (*id, c.register(0))).collect();
            for (_, reg) in regs {
                h.send_to_manager(0, &reg);
            }
            h.run(STEP_MS, 30_000, true);
            // calm network: retries drain, offers confirm or die
            h.run(30_100, 60_000, false);

            let ctx = format!("loss {loss} seed {seed}");
            // 1. the protocol made progress despite the loss
            let confirmed: Vec<_> = h.manager.hostings().values().filter(|x| x.confirmed).collect();
            assert!(!confirmed.is_empty(), "{ctx}: no hosting ever confirmed");
            // 2. no unconfirmed offer survives the settling phase
            assert!(
                h.manager.hostings().values().all(|x| x.confirmed),
                "{ctx}: zombie unconfirmed hosting outlived its retry budget"
            );
            // 3. every confirmed hosting is mirrored exactly on its client
            for hosting in &confirmed {
                let client = &h.clients[&hosting.to];
                let found = client.hosted().find(|(_, w)| {
                    w.from == hosting.from && (w.amount - hosting.amount).abs() < 1e-9
                });
                assert!(
                    found.is_some(),
                    "{ctx}: manager believes {:?} hosts {:?} but the client ledger disagrees",
                    hosting.to,
                    hosting.from,
                );
            }
            // 4. no divergent entries: every client-side hosting either
            //    matches the manager's record for that request id exactly
            //    (same owner, same amount — duplicated offers never
            //    double-book) or refers to a request the manager has
            //    closed out (e.g. a destination falsely declared dead
            //    after a streak of lost keepalives, whose workload was
            //    re-homed by REP). Never a same-id mismatch.
            for (id, c) in &h.clients {
                for (req, w) in c.hosted() {
                    if let Some(x) = h.manager.hostings().get(req) {
                        assert_eq!(x.to, *id, "{ctx}: request {req:?} hosted by the wrong node");
                        assert_eq!(x.from, w.from, "{ctx}: owner mismatch for {req:?}");
                        assert!(
                            (x.amount - w.amount).abs() < 1e-9,
                            "{ctx}: amount diverged for {req:?}: {} vs {}",
                            x.amount,
                            w.amount
                        );
                    }
                }
            }
            // 5. everyone finished registration (retransmit worked)
            for (id, c) in &h.clients {
                assert_eq!(
                    c.phase(),
                    dust_proto::ClientPhase::Active,
                    "{ctx}: client {id:?} never completed registration"
                );
            }
        }
    }
}

/// Same-seed runs are bit-identical: the fault gate and both state
/// machines are fully deterministic.
#[test]
fn lossy_runs_are_deterministic() {
    let snapshot = |seed: u64| {
        let mut h = Harness::new(seed, 0.25, 0.1);
        let regs: Vec<(NodeId, ClientMsg)> =
            h.clients.iter_mut().map(|(id, c)| (*id, c.register(0))).collect();
        for (_, reg) in regs {
            h.send_to_manager(0, &reg);
        }
        h.run(STEP_MS, 20_000, true);
        let hostings: Vec<String> =
            h.manager.hostings().iter().map(|(r, x)| format!("{r:?}:{x:?}")).collect();
        let ledgers: Vec<String> =
            h.clients.values().map(|c| format!("{:.12}", c.hosted_amount())).collect();
        (hostings, ledgers, h.manager.offer_retries(), h.manager.offers_abandoned())
    };
    assert_eq!(snapshot(42), snapshot(42));
    assert_eq!(snapshot(7), snapshot(7));
}

/// Sanity at 100 % loss: nothing ever confirms, nothing panics, and the
/// manager abandons every offer instead of leaking it.
#[test]
fn total_blackout_leaks_nothing() {
    let mut h = Harness::new(3, 1.0, 0.0);
    let regs: Vec<(NodeId, ClientMsg)> =
        h.clients.iter_mut().map(|(id, c)| (*id, c.register(0))).collect();
    for (_, reg) in regs {
        h.send_to_manager(0, &reg);
    }
    h.run(STEP_MS, 20_000, true);
    assert!(h.manager.registry().is_empty(), "no registration can survive 100 % loss");
    assert!(h.manager.hostings().is_empty());
    for c in h.clients.values() {
        assert_eq!(c.phase(), dust_proto::ClientPhase::Registering);
        assert_eq!(c.hosted_amount(), 0.0);
    }
}
