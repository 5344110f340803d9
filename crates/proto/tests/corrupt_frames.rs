//! Seeded corrupt-frame fuzzing: the decode and message paths of
//! dust-proto must be total. Arbitrary byte mutations of valid frames may
//! fail to decode — but they must never panic, and whatever *does* decode
//! must pass through a Manager and a Client without panicking or
//! corrupting their ledgers.

use dust_core::DustConfig;
use dust_proto::{
    decode_client, decode_manager, encode_client, encode_manager, Client, ClientMsg, Manager,
    ManagerMsg, RequestId, SolverBackend,
};
use dust_topology::{topologies, EdgeId, Link, NodeId, Path, SplitMix64};

fn sample_route() -> Path {
    Path { nodes: vec![NodeId(0), NodeId(7), NodeId(300)], edges: vec![EdgeId(2), EdgeId(9000)] }
}

/// One valid frame of every client message kind.
fn client_corpus() -> Vec<Vec<u8>> {
    [
        ClientMsg::OffloadCapable { node: NodeId(0), capable: true },
        ClientMsg::OffloadCapable { node: NodeId(4_000_000), capable: false },
        ClientMsg::Stat { node: NodeId(3), utilization: 82.25, data_mb: 120.0 },
        ClientMsg::OffloadAck { node: NodeId(9), request: RequestId(u64::MAX), accept: true },
        ClientMsg::Keepalive { node: NodeId(77) },
    ]
    .iter()
    .map(encode_client)
    .collect()
}

/// One valid frame of every manager message kind.
fn manager_corpus() -> Vec<Vec<u8>> {
    [
        ManagerMsg::Ack { update_interval_ms: 60_000 },
        ManagerMsg::OffloadRequest {
            request: RequestId(5),
            from: NodeId(1),
            amount: 12.5,
            data_mb: 150.0,
            route: Some(sample_route()),
        },
        ManagerMsg::Rep {
            request: RequestId(7),
            failed: NodeId(4),
            from: NodeId(1),
            amount: 3.0,
            data_mb: 42.5,
            route: None,
        },
        ManagerMsg::Release { request: RequestId(8) },
    ]
    .iter()
    .map(encode_manager)
    .collect()
}

/// Mutate a valid frame: flip bits, truncate, extend, or splice, all
/// driven by the seeded generator so every failure is reproducible.
fn mutate(frame: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    match rng.below(4) {
        0 => {
            // flip 1–4 random bits
            for _ in 0..rng.range_u64(1, 5) {
                if bytes.is_empty() {
                    break;
                }
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
        }
        1 => {
            // truncate to a random prefix
            let keep = rng.below(bytes.len() as u64 + 1) as usize;
            bytes.truncate(keep);
        }
        2 => {
            // append random garbage
            for _ in 0..rng.range_u64(1, 9) {
                bytes.push(rng.below(256) as u8);
            }
        }
        _ => {
            // overwrite a random span with random bytes
            if !bytes.is_empty() {
                let start = rng.below(bytes.len() as u64) as usize;
                let end = (start + rng.range_u64(1, 9) as usize).min(bytes.len());
                for b in &mut bytes[start..end] {
                    *b = rng.below(256) as u8;
                }
            }
        }
    }
    bytes
}

/// Decoding any mutation of any valid frame returns `Ok` or `Err` — it
/// never panics — and re-encoding whatever decoded round-trips.
#[test]
fn decoding_corrupt_frames_never_panics() {
    let clients = client_corpus();
    let managers = manager_corpus();
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..200 {
            let frame = &clients[rng.below(clients.len() as u64) as usize];
            let corrupt = mutate(frame, &mut rng);
            if let Ok(msg) = decode_client(&corrupt) {
                assert_eq!(decode_client(&encode_client(&msg)), Ok(msg), "seed {seed}");
            }
            let frame = &managers[rng.below(managers.len() as u64) as usize];
            let corrupt = mutate(frame, &mut rng);
            if let Ok(msg) = decode_manager(&corrupt) {
                assert_eq!(decode_manager(&encode_manager(&msg)), Ok(msg.clone()), "seed {seed}");
            }
        }
    }
}

/// Messages that survive decoding — including ones carrying hostile
/// payloads like NaN utilizations or absurd node ids — must pass through
/// the Manager's message path without panicking, and every snapshot it
/// takes must still be a valid NMDB.
#[test]
fn manager_survives_decoded_garbage() {
    let corpus = client_corpus();
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let g = topologies::star(4, Link::default());
        let mut m =
            Manager::new(g, DustConfig::paper_defaults(), SolverBackend::Transportation, 100, 400)
                .unwrap();
        let mut now = 0u64;
        for _ in 0..300 {
            let frame = &corpus[rng.below(corpus.len() as u64) as usize];
            let corrupt = mutate(frame, &mut rng);
            if let Ok(msg) = decode_client(&corrupt) {
                let _ = m.handle(now, &msg);
            }
            now += rng.range_u64(1, 50);
            let _ = m.tick(now);
            if rng.gen_bool(0.1) {
                let _ = m.run_placement(now);
            }
            let db = m.snapshot();
            for s in &db.states {
                assert!(
                    (0.0..=100.0).contains(&s.utilization),
                    "seed {seed}: utilization {} escaped the clamp",
                    s.utilization
                );
                assert!(s.data_mb >= 0.0, "seed {seed}: negative data volume");
            }
        }
    }
}

/// The NaN regression pinned down: a STAT whose float bits decode to NaN
/// must leave the node idle and non-offloading instead of panicking the
/// Manager's snapshot.
#[test]
fn nan_stat_never_panics_the_manager() {
    let g = topologies::line(2, Link::default());
    let mut m =
        Manager::new(g, DustConfig::paper_defaults(), SolverBackend::Transportation, 100, 400)
            .unwrap();
    m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(0), capable: true });
    for (u, d) in
        [(f64::NAN, 10.0), (10.0, f64::NAN), (f64::INFINITY, 10.0), (10.0, f64::NEG_INFINITY)]
    {
        let frame = encode_client(&ClientMsg::Stat { node: NodeId(0), utilization: u, data_mb: d });
        let msg = decode_client(&frame).expect("the codec preserves float bits");
        m.handle(1, &msg);
        let db = m.snapshot();
        let s = db.state(NodeId(0));
        assert!((0.0..=100.0).contains(&s.utilization), "u={u} d={d}");
        assert!(s.data_mb >= 0.0, "u={u} d={d}");
        assert!(!s.offload_capable, "a node with unreadable stats must not host");
    }
}

/// Clients survive decoded garbage from a hostile or corrupted Manager
/// stream the same way.
#[test]
fn client_survives_decoded_garbage() {
    let corpus = manager_corpus();
    for seed in 0..32u64 {
        let mut rng = SplitMix64::new(seed);
        let mut c = Client::new(NodeId(1), true, 80.0);
        let _ = c.register(0);
        let mut now = 0u64;
        for _ in 0..300 {
            let frame = &corpus[rng.below(corpus.len() as u64) as usize];
            let corrupt = mutate(frame, &mut rng);
            if let Ok(msg) = decode_manager(&corrupt) {
                let _ = c.handle(now, &msg);
            }
            now += rng.range_u64(1, 50);
            let _ = c.tick(now);
            assert!(c.hosted_amount() >= 0.0, "seed {seed}");
        }
    }
}
