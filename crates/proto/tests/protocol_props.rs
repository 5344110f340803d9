//! Seeded random-interleaving tests for the protocol state machines:
//! random message sequences must never violate the bookkeeping invariants
//! the rest of the system relies on.

use dust_core::DustConfig;
use dust_proto::{Client, ClientMsg, Manager, ManagerMsg, RequestId, SolverBackend};
use dust_topology::{topologies, Link, NodeId, SplitMix64};

/// Random actions to throw at a client.
#[derive(Debug, Clone)]
enum ClientAction {
    Observe(f64, f64),
    Request { id: u64, amount: f64 },
    Release { id: u64 },
    Rep { id: u64, amount: f64 },
    Tick(u64),
}

fn arb_client_action(rng: &mut SplitMix64) -> ClientAction {
    match rng.below(5) {
        0 => ClientAction::Observe(rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 500.0)),
        1 => ClientAction::Request { id: rng.below(20), amount: rng.range_f64(0.1, 30.0) },
        2 => ClientAction::Release { id: rng.below(20) },
        3 => ClientAction::Rep { id: rng.below(20), amount: rng.range_f64(0.1, 10.0) },
        _ => ClientAction::Tick(rng.range_u64(1, 5_000)),
    }
}

/// Whatever the Manager sends in whatever order — including duplicates
/// and late retransmits — the client's hosted ledger stays consistent:
/// non-negative, only accepted requests are hosted, releases remove
/// exactly their request (and tombstone it against late duplicates), and
/// STAT always reports local + hosted load.
#[test]
fn client_ledger_consistent() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let actions: Vec<ClientAction> =
            (0..rng.range_u64(1, 60)).map(|_| arb_client_action(&mut rng)).collect();
        let mut c = Client::new(NodeId(0), true, 80.0);
        let _ = c.register(0);
        c.handle(0, &ManagerMsg::Ack { update_interval_ms: 100 });
        let mut now = 0u64;
        let mut expected: std::collections::BTreeMap<u64, f64> = Default::default();
        let mut released: std::collections::BTreeSet<u64> = Default::default();
        let mut last_observed = 0.0f64;
        for a in actions {
            match a {
                ClientAction::Observe(u, d) => {
                    c.observe(u, d);
                    last_observed = u;
                }
                ClientAction::Request { id, amount } => {
                    let dup = expected.contains_key(&id);
                    let reply = c.handle(
                        now,
                        &ManagerMsg::OffloadRequest {
                            request: RequestId(id),
                            from: NodeId(9),
                            amount,
                            data_mb: 1.0,
                            route: None,
                        },
                    );
                    match reply {
                        Some(ClientMsg::OffloadAck { accept, request, .. }) => {
                            assert_eq!(request, RequestId(id), "seed {seed}");
                            if released.contains(&id) {
                                assert!(!accept, "seed {seed}: released id must stay refused");
                            } else if dup {
                                // a duplicated offer re-confirms without
                                // double-booking: the ledger keeps the
                                // originally accepted amount
                                assert!(accept, "seed {seed}: duplicate must re-confirm");
                            } else if accept {
                                // acceptance implies the ceiling held
                                assert!(
                                    last_observed + expected.values().sum::<f64>() + amount
                                        <= 80.0 + 1e-9,
                                    "seed {seed}"
                                );
                                expected.insert(id, amount);
                            }
                        }
                        other => panic!("seed {seed}: request must be answered, got {other:?}"),
                    }
                }
                ClientAction::Release { id } => {
                    c.handle(now, &ManagerMsg::Release { request: RequestId(id) });
                    expected.remove(&id);
                    released.insert(id);
                }
                ClientAction::Rep { id, amount } => {
                    let reply = c.handle(
                        now,
                        &ManagerMsg::Rep {
                            request: RequestId(id),
                            failed: NodeId(7),
                            from: NodeId(9),
                            amount,
                            data_mb: 1.0,
                            route: None,
                        },
                    );
                    if released.contains(&id) {
                        assert!(
                            matches!(reply, Some(ClientMsg::OffloadAck { accept: false, .. })),
                            "seed {seed}: released id must stay refused"
                        );
                    } else {
                        assert!(
                            matches!(reply, Some(ClientMsg::OffloadAck { accept: true, .. })),
                            "seed {seed}: REP must be accepted unconditionally"
                        );
                        // a duplicated REP keeps the original amount
                        expected.entry(id).or_insert(amount);
                    }
                }
                ClientAction::Tick(dt) => {
                    now += dt;
                    for m in c.tick(now) {
                        if let ClientMsg::Stat { utilization, .. } = m {
                            let want = last_observed + expected.values().sum::<f64>();
                            assert!(
                                (utilization - want).abs() < 1e-9,
                                "seed {seed}: STAT {utilization} != observed {last_observed} + hosted"
                            );
                        }
                    }
                }
            }
            let hosted: f64 = expected.values().sum();
            assert!(
                (c.hosted_amount() - hosted).abs() < 1e-9,
                "seed {seed}: ledger mismatch: {} vs {}",
                c.hosted_amount(),
                hosted
            );
            assert!(c.hosted_amount() >= 0.0, "seed {seed}");
        }
    }
}

/// Manager invariants under random STAT streams and placement rounds:
/// request ids never repeat, confirmed hostings always reference
/// registered nodes, and snapshots clamp dirty inputs.
#[test]
fn manager_bookkeeping_sound() {
    for seed in 0..128u64 {
        let mut rng = SplitMix64::new(seed);
        let utils: Vec<(u32, f64)> = (0..rng.range_u64(1, 40))
            .map(|_| (rng.below(5) as u32, rng.range_f64(0.0, 150.0)))
            .collect();
        let rounds = rng.range_u64(1, 4) as usize;
        let g = topologies::star(5, Link::default());
        let mut m =
            Manager::new(g, DustConfig::paper_defaults(), SolverBackend::Transportation, 100, 400)
                .unwrap();
        for n in 0..5u32 {
            m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(n), capable: true });
        }
        let mut now = 1u64;
        let mut seen_requests: std::collections::BTreeSet<RequestId> = Default::default();
        for (n, u) in utils {
            // deliberately dirty utilizations above 100 — snapshot must clamp
            m.handle(
                now,
                &ClientMsg::Stat { node: NodeId(n), utilization: u.min(100.0), data_mb: 10.0 },
            );
            now += 1;
        }
        for _ in 0..rounds {
            let (placement, outs) = m.run_placement(now);
            let _ = placement;
            for env in &outs {
                if let ManagerMsg::OffloadRequest { request, from, amount, .. } = &env.msg {
                    assert!(seen_requests.insert(*request), "seed {seed}: request id reuse");
                    assert!(*amount > 0.0, "seed {seed}");
                    assert!(from.0 < 5 && env.to.0 < 5, "seed {seed}");
                    assert_ne!(*from, env.to, "seed {seed}: never offload to yourself");
                    // accept every request so hostings confirm
                    m.handle(
                        now,
                        &ClientMsg::OffloadAck { node: env.to, request: *request, accept: true },
                    );
                }
            }
            now += 10;
        }
        for h in m.hostings().values() {
            assert!(m.registry().contains_key(&h.to), "seed {seed}");
            assert!(m.registry().contains_key(&h.from), "seed {seed}");
            assert!(h.amount > 0.0, "seed {seed}");
        }
        // snapshot is always a valid NMDB
        let db = m.snapshot();
        for s in &db.states {
            assert!((0.0..=100.0).contains(&s.utilization), "seed {seed}");
            assert!(s.data_mb >= 0.0, "seed {seed}");
        }
    }
}

/// Keepalive timeouts never lose workloads: every confirmed hosting is
/// either still hosted, re-homed by a REP, or recorded as orphaned.
#[test]
fn failures_conserve_hostings() {
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let fail_first = rng.gen_bool(0.5);
        let silence_ms = rng.range_u64(500, 5_000);
        let g = topologies::line(3, Link::default());
        let mut m =
            Manager::new(g, DustConfig::paper_defaults(), SolverBackend::Transportation, 100, 400)
                .unwrap();
        for n in 0..3u32 {
            m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(n), capable: true });
        }
        m.handle(1, &ClientMsg::Stat { node: NodeId(0), utilization: 90.0, data_mb: 10.0 });
        m.handle(1, &ClientMsg::Stat { node: NodeId(1), utilization: 20.0, data_mb: 10.0 });
        m.handle(1, &ClientMsg::Stat { node: NodeId(2), utilization: 10.0, data_mb: 10.0 });
        let (_, outs) = m.run_placement(2);
        let before: usize = outs.len();
        for env in &outs {
            if let ManagerMsg::OffloadRequest { request, .. } = &env.msg {
                m.handle(
                    3,
                    &ClientMsg::OffloadAck { node: env.to, request: *request, accept: true },
                );
            }
        }
        let confirmed = m.hostings().len();
        assert_eq!(confirmed, before, "seed {seed}");

        // one destination goes silent; keep the other's records fresh
        let silent = if fail_first { NodeId(1) } else { NodeId(2) };
        let alive = if fail_first { NodeId(2) } else { NodeId(1) };
        let t = 3 + silence_ms;
        m.handle(t, &ClientMsg::Stat { node: alive, utilization: 10.0, data_mb: 10.0 });
        m.handle(t, &ClientMsg::Keepalive { node: alive });
        let _ = silent;
        let outs = m.tick(t + 1);
        // conservation: hostings + orphans == confirmed arrangements
        let after = m.hostings().len() + m.orphaned().len();
        assert_eq!(after, confirmed, "seed {seed}: arrangements lost or duplicated");
        // REPs (if any) went to the alive node
        for env in outs {
            if let ManagerMsg::Rep { .. } = env.msg {
                assert_eq!(env.to, alive, "seed {seed}");
            }
        }
    }
}

use dust_proto::{decode_client, decode_manager, encode_client, encode_manager};
use dust_topology::{EdgeId, Path};

/// A possibly-absent random route (None on ~25 % of draws).
fn arb_route(rng: &mut SplitMix64) -> Option<Path> {
    if rng.below(4) == 0 {
        return None;
    }
    let n = rng.range_u64(2, 12) as usize;
    let nodes: Vec<NodeId> = (0..n).map(|_| NodeId(rng.below(10_000) as u32)).collect();
    let edges = (0..n - 1).map(|i| EdgeId(i as u32)).collect();
    Some(Path { nodes, edges })
}

/// A raw 64-bit pattern reinterpreted as f64: exercises NaNs, infinities,
/// subnormals, and negative zero in the codecs.
fn arb_f64_bits(rng: &mut SplitMix64) -> f64 {
    f64::from_bits(rng.next_u64())
}

fn arb_client_msg(rng: &mut SplitMix64) -> ClientMsg {
    match rng.below(4) {
        0 => ClientMsg::OffloadCapable {
            node: NodeId(rng.next_u64() as u32),
            capable: rng.gen_bool(0.5),
        },
        1 => ClientMsg::Stat {
            node: NodeId(rng.next_u64() as u32),
            utilization: arb_f64_bits(rng),
            data_mb: arb_f64_bits(rng),
        },
        2 => ClientMsg::OffloadAck {
            node: NodeId(rng.next_u64() as u32),
            request: RequestId(rng.next_u64()),
            accept: rng.gen_bool(0.5),
        },
        _ => ClientMsg::Keepalive { node: NodeId(rng.next_u64() as u32) },
    }
}

fn arb_manager_msg(rng: &mut SplitMix64) -> ManagerMsg {
    match rng.below(4) {
        0 => ManagerMsg::Ack { update_interval_ms: rng.next_u64() },
        1 => ManagerMsg::OffloadRequest {
            request: RequestId(rng.next_u64()),
            from: NodeId(rng.next_u64() as u32),
            amount: arb_f64_bits(rng),
            data_mb: arb_f64_bits(rng),
            route: arb_route(rng),
        },
        2 => ManagerMsg::Rep {
            request: RequestId(rng.next_u64()),
            failed: NodeId(rng.next_u64() as u32),
            from: NodeId(rng.next_u64() as u32),
            amount: arb_f64_bits(rng),
            data_mb: arb_f64_bits(rng),
            route: arb_route(rng),
        },
        _ => ManagerMsg::Release { request: RequestId(rng.next_u64()) },
    }
}

/// Bit-exact float comparison for message equality (NaN-safe).
fn msgs_bit_equal_c(a: &ClientMsg, b: &ClientMsg) -> bool {
    format!("{a:?}").replace("NaN", "nan") == format!("{b:?}").replace("NaN", "nan")
        || encode_client(a) == encode_client(b)
}

/// Every client message round-trips byte-exactly through the codec.
#[test]
fn codec_client_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let m = arb_client_msg(&mut rng);
        let bytes = encode_client(&m);
        let back = decode_client(&bytes).expect("decode");
        assert!(msgs_bit_equal_c(&m, &back), "seed {seed}: {m:?} vs {back:?}");
        // re-encoding is stable
        assert_eq!(encode_client(&back), bytes, "seed {seed}");
    }
}

/// Every manager message round-trips through the codec.
#[test]
fn codec_manager_roundtrip() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let m = arb_manager_msg(&mut rng);
        let bytes = encode_manager(&m);
        let back = decode_manager(&bytes).expect("decode");
        assert_eq!(encode_manager(&back), bytes, "seed {seed}: re-encode mismatch for {m:?}");
    }
}

/// Arbitrary byte soup never panics the decoders — they return errors.
#[test]
fn codec_decoders_are_total() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let len = rng.below(200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let _ = decode_client(&bytes);
        let _ = decode_manager(&bytes);
    }
}

/// Truncating a valid frame anywhere is always detected.
#[test]
fn codec_detects_truncation() {
    for seed in 0..256u64 {
        let mut rng = SplitMix64::new(seed);
        let m = arb_manager_msg(&mut rng);
        let bytes = encode_manager(&m);
        let cut = ((bytes.len() as f64) * rng.next_f64()) as usize;
        if cut < bytes.len() {
            assert!(decode_manager(&bytes[..cut]).is_err(), "seed {seed} cut {cut}");
        }
    }
}
