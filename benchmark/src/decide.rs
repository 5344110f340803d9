//! The two decision workloads. One operation is one Manager round as a
//! deployment would see it: decode the round's STAT frames, ingest them,
//! run the placement, encode every outgoing message, tick.
//!
//! Between operations, untimed, the generator plays the fleet: every
//! node's `dust::proto::Client` receives what the Manager sent it, ACKs
//! go back, and the next STATs report utilisation after offloading — a
//! node that shed load reports less, a node hosting it reports more —
//! so the Manager's hosting ledger stays bounded as it does in `dust-sim`.

use crate::harness::{Mode, SliceOut, Workload};
use crate::probe::Probe;
use crate::spans::Tracer;
use crate::stats;
use dust::prelude::*;
use dust::proto::codec;
use dust::topology::EdgeId;
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Simulated time between rounds.
const ROUND_MS: u64 = 1_000;
/// Tolerance of the Eq. 3 audit, capacity-percent.
const AUDIT_TOL: f64 = 1e-6;

/// Which of the two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every round re-draws all link utilisations and all node states.
    ColdK24,
    /// Two links drift and a sixteenth of the nodes nudge per round; all
    /// offloaded work turns over every eighth round.
    ChurnK16,
}

/// Fixed sizes. Operation counts are chosen so a slice runs about two
/// seconds, and warm-up counts so one set-up takes more than one.
struct Sizes {
    k: usize,
    ops_per_slice: usize,
    warmup_ops: usize,
    /// Nodes above `C_max`, as a divisor of the node count.
    busy_one_in: usize,
    /// Nodes below `CO_max`, as a divisor of the node count.
    candidates_one_in: usize,
}

impl Kind {
    fn sizes(self) -> Sizes {
        match self {
            Kind::ColdK24 => Sizes {
                k: 24,
                ops_per_slice: 20,
                warmup_ops: 13,
                busy_one_in: 6,
                candidates_one_in: 2,
            },
            Kind::ChurnK16 => Sizes {
                k: 16,
                ops_per_slice: 2400,
                warmup_ops: 1600,
                busy_one_in: 8,
                candidates_one_in: 2,
            },
        }
    }
}

/// Churn: STATs arrive on a cadence of this many rounds per node.
const STAT_EVERY: u64 = 16;
/// Churn: the Manager's periodic full solve, and the round on which the
/// fleet's offloaded work turns over.
const FULL_EVERY: u64 = 8;
/// Churn: what a hot node reports while it cools before a turnover —
/// below `C_max` even with everything it shed taken back, so the
/// Manager reclaims all of it.
const COOL: f64 = 70.0;

/// A node's part in the fleet: its band of own load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Hot,
    Candidate,
    Neutral,
}

impl Role {
    /// Own load stays inside the band, so nudges never change a role.
    fn band(self) -> (f64, f64) {
        match self {
            Role::Hot => (82.0, 98.0),
            Role::Candidate => (6.0, 30.0),
            Role::Neutral => (56.0, 74.0),
        }
    }
}

/// What the generator changes before one round.
enum RoundInput {
    Cold { link_util: Vec<f64>, base: Vec<f64>, data: Vec<f64> },
    Churn { drift: [(u32, f64); 2], nudges: Vec<f64>, jitter: Vec<f64> },
}

/// The fleet and its Manager between rounds.
#[derive(Clone)]
struct World {
    kind: Kind,
    cfg: DustConfig,
    manager: Manager,
    clients: Vec<Client>,
    /// Node indices of the core, aggregation and edge tiers.
    tiers: Vec<Vec<usize>>,
    roles: Vec<Role>,
    /// Own load per node before anything is shed or hosted, percent.
    base: Vec<f64>,
    /// Monitoring data volume per node, Mb.
    data: Vec<f64>,
    /// Hot nodes report [`COOL`] instead of their own load.
    cooling: bool,
    /// Accepted hostings: request → (owner, capacity-percent).
    ledger: BTreeMap<RequestId, (NodeId, f64)>,
    /// Utilisation in each node's latest STAT as the Manager reads it.
    reported: Vec<f64>,
    /// Nodes that began or stopped hosting since their last STAT.
    hosting_changed: Vec<bool>,
    /// Most hostings the Manager's ledger held after any round so far.
    hostings_peak: u64,
    now_ms: u64,
    round: u64,
}

/// What the checks and counters need from one timed round.
struct RoundOut {
    lat_ns: u64,
    ok: bool,
    beta: f64,
    assignments: u64,
    stats: u64,
    wire_bytes: u64,
}

impl World {
    fn new(kind: Kind, seed: u64) -> World {
        let sizes = kind.sizes();
        let cfg = DustConfig::paper_defaults()
            .with_max_hop(Some(2))
            .with_engine(PathEngine::HopBoundedDp);
        let tree = FatTree::with_default_links(sizes.k);
        let tiers: Vec<Vec<usize>> = [Tier::Core, Tier::Aggregation, Tier::Edge]
            .iter()
            .map(|&t| tree.tier_nodes(t).iter().map(|n| n.index()).collect())
            .collect();
        let graph = tree.graph;
        let n = graph.node_count();
        // cold: every node reports every round. churn: every sixteenth
        // round, staggered by registration time; keepalives run 4x as often
        let (interval, manager) = match kind {
            Kind::ColdK24 => {
                let m =
                    Manager::new(graph, cfg, SolverBackend::Transportation, ROUND_MS, 3 * ROUND_MS);
                (ROUND_MS, m.expect("paper defaults are valid"))
            }
            Kind::ChurnK16 => {
                let interval = STAT_EVERY * ROUND_MS;
                let m =
                    Manager::new(graph, cfg, SolverBackend::Transportation, interval, 3 * interval)
                        .expect("paper defaults are valid")
                        .with_warm_start(true)
                        .with_delta_placement(0.25, FULL_EVERY)
                        .expect("delta knobs are valid");
                (interval, m)
            }
        };
        let mut world = World {
            kind,
            cfg,
            manager,
            clients: (0..n).map(|i| Client::new(NodeId(i as u32), true, cfg.co_max)).collect(),
            tiers,
            roles: vec![Role::Neutral; n],
            base: vec![0.0; n],
            data: vec![0.0; n],
            cooling: false,
            ledger: BTreeMap::new(),
            reported: vec![0.0; n],
            hosting_changed: vec![false; n],
            hostings_peak: 0,
            now_ms: interval,
            round: 0,
        };
        for i in 0..n {
            // first STAT falls due one interval after registration
            let at = (i as u64 % (interval / ROUND_MS)) * ROUND_MS;
            let hello = world.clients[i].register(at);
            for env in world.manager.handle(at, &hello) {
                world.clients[i].handle(at, &env.msg);
            }
        }
        let mut rng = SplitMix64::new(seed ^ 0xD057_0001);
        for d in &mut world.data {
            *d = rng.range_f64(10.0, 500.0);
        }
        if kind == Kind::ChurnK16 {
            world.roles = draw_roles(&mut rng, &world.tiers, &sizes);
            for i in 0..n {
                let (lo, hi) = world.roles[i].band();
                // start away from the band's edges
                world.base[i] = rng.range_f64(lo + 2.0, hi - 2.0);
            }
            world.manager.graph_mut().retarget_utilization(|_, _| rng.range_f64(0.1, 0.9));
            // on a cadence of sixteen rounds the Manager would know nothing
            // of most nodes for the first fifteen: each reports once now
            for i in 0..n {
                let utilization = world.own_load(i, 0.0);
                let first =
                    ClientMsg::Stat { node: NodeId(i as u32), utilization, data_mb: world.data[i] };
                world.manager.handle(0, &first);
                world.reported[i] = utilization;
            }
        }
        world
    }

    /// A node's load as it would measure it: its own, less what it shed.
    /// A node over `C_max` that shed its excess runs at `C_max`, not a
    /// rounding error below it.
    fn own_load(&self, i: usize, shed: f64) -> f64 {
        let base = if self.cooling && self.roles[i] == Role::Hot { COOL } else { self.base[i] };
        let floor = if base >= self.cfg.c_max { self.cfg.c_max } else { 0.0 };
        (base - shed).max(floor)
    }

    /// Apply one round's input and collect the round's client messages.
    /// STATs are returned for the timed round; keepalives are delivered
    /// here, untimed.
    fn prepare(&mut self, input: &RoundInput) -> Vec<ClientMsg> {
        let n = self.clients.len();
        let phase = self.round % FULL_EVERY;
        match input {
            RoundInput::Cold { link_util, base, data } => {
                self.manager.graph_mut().retarget_utilization(|e, _| link_util[e.index()]);
                self.base.clone_from(base);
                self.data.clone_from(data);
            }
            // the round before a full solve every hot node cools and the
            // Manager reclaims what it shed. Nothing else moves in that
            // round: a flow re-homed then would be offered, not yet
            // confirmed, and so survive the reclaim
            RoundInput::Churn { .. } if phase == FULL_EVERY - 1 => self.cooling = true,
            RoundInput::Churn { drift, nudges, jitter } => {
                if phase == 0 {
                    self.cooling = false;
                    let (lo, hi) = Role::Hot.band();
                    let hot = (0..n).filter(|&i| self.roles[i] == Role::Hot);
                    for (slot, i) in hot.enumerate() {
                        self.base[i] = (self.base[i] + jitter[slot]).clamp(lo, hi);
                    }
                }
                for &(e, u) in drift {
                    self.manager.graph_mut().link_mut(EdgeId(e)).utilization = u;
                }
                let due = (self.round % STAT_EVERY) as usize;
                for (slot, i) in (due..n).step_by(STAT_EVERY as usize).enumerate() {
                    if self.roles[i] != Role::Hot {
                        let (lo, hi) = self.roles[i].band();
                        self.base[i] = (self.base[i] + nudges[slot]).clamp(lo, hi);
                    }
                }
            }
        }
        let mut shed = vec![0.0; n];
        for &(owner, amount) in self.ledger.values() {
            shed[owner.index()] += amount;
        }
        let mut msgs = Vec::new();
        for (i, &shed) in shed.iter().enumerate() {
            let own = self.own_load(i, shed);
            self.clients[i].observe(own, self.data[i]);
            self.clients[i].tick_into(self.now_ms, &mut msgs);
        }
        // off the cadence, a node reports at once when it crosses a
        // threshold (the hot nodes at a turnover) and when it begins or
        // stops hosting, so the Manager never plans on stale headroom
        let turnover = self.kind == Kind::ChurnK16 && (phase == 0 || phase == FULL_EVERY - 1);
        let mut forced = std::mem::replace(&mut self.hosting_changed, vec![false; n]);
        for (i, f) in forced.iter_mut().enumerate() {
            *f |= turnover && self.roles[i] == Role::Hot;
        }
        for m in &msgs {
            if let ClientMsg::Stat { node, .. } = m {
                forced[node.index()] = false;
            }
        }
        for i in (0..n).filter(|&i| forced[i]) {
            msgs.push(ClientMsg::Stat {
                node: NodeId(i as u32),
                utilization: self.own_load(i, shed[i]) + self.clients[i].hosted_amount(),
                data_mb: self.data[i],
            });
        }
        let mut stats = Vec::with_capacity(msgs.len());
        for m in msgs {
            match m {
                ClientMsg::Stat { node, utilization, .. } => {
                    self.reported[node.index()] = utilization.clamp(0.0, 100.0);
                    stats.push(m);
                }
                other => {
                    let replies = self.manager.handle(self.now_ms, &other);
                    debug_assert!(replies.is_empty());
                }
            }
        }
        stats
    }

    /// One timed Manager round over pre-encoded STAT frames, then the
    /// untimed checks and the fleet's replies.
    fn round(
        &mut self,
        sent: &[ClientMsg],
        frames: &[Vec<u8>],
        tr: &mut Tracer,
        traced: bool,
    ) -> RoundOut {
        let now = self.now_ms;
        let delta_before = self.manager.delta_rounds();
        tr.next_op();

        let t0 = Instant::now();
        let op = tr.enter("op");
        let s = tr.enter("proto.decode");
        let decoded: Vec<Result<ClientMsg, codec::CodecError>> =
            frames.iter().map(|f| codec::decode_client(f)).collect();
        tr.exit(s);
        let s = tr.enter("proto.stat_ingest");
        let mut outgoing: Vec<Envelope<ManagerMsg>> = Vec::new();
        for m in decoded.iter().flatten() {
            outgoing.extend(self.manager.handle(now, m));
        }
        tr.exit(s);
        let s = tr.enter("proto.run_placement");
        let (placement, offers) = self.manager.run_placement(now);
        tr.exit(s);
        tr.children_from_durations(
            s,
            &[
                ("topology.price", placement.cost_time.as_nanos() as u64),
                ("lp.solve", placement.solve_time.as_nanos() as u64),
            ],
        );
        outgoing.extend(offers);
        let s = tr.enter("proto.encode");
        let mut wire: VecDeque<(NodeId, Vec<u8>)> =
            outgoing.iter().map(|e| (e.to, codec::encode_manager(&e.msg))).collect();
        tr.exit(s);
        let s = tr.enter("proto.tick");
        let ticked = self.manager.tick(now);
        tr.exit(s);
        let s = tr.enter("proto.encode");
        wire.extend(ticked.iter().map(|e| (e.to, codec::encode_manager(&e.msg))));
        tr.exit(s);
        tr.exit(op);
        let lat_ns = t0.elapsed().as_nanos() as u64;

        if traced {
            // one more snapshot per round, outside the operation, so its
            // cost has a number of its own
            let s = tr.enter("proto.snapshot");
            std::hint::black_box(self.manager.snapshot());
            tr.exit(s);
        }

        outgoing.extend(ticked);
        let mut ok = decoded.len() == sent.len()
            && decoded.iter().zip(sent).all(|(d, s)| d.as_ref().ok() == Some(s));
        ok &= self.audit(&placement, self.manager.delta_rounds() > delta_before);
        let wire_bytes = wire.iter().map(|(_, b)| b.len() as u64).sum();
        ok &= self.deliver(wire, &outgoing);

        self.hostings_peak = self.hostings_peak.max(self.manager.hostings().len() as u64);
        self.round += 1;
        self.now_ms += ROUND_MS;
        debug_assert_eq!(self.round, self.manager.placement_rounds());
        RoundOut {
            lat_ns,
            ok,
            beta: if placement.status == PlacementStatus::Optimal { placement.beta } else { 0.0 },
            assignments: placement.assignments.len() as u64,
            stats: sent.len() as u64,
            wire_bytes,
        }
    }

    /// Re-audit an acted-on placement against Eq. 3: every Busy node's
    /// excess fully assigned (3a), no destination past its `CO_max`
    /// headroom (3b), and a solve that did not fail. A delta round
    /// re-homes flows already placed, so only 3b applies to it.
    fn audit(&self, p: &Placement, delta_round: bool) -> bool {
        match p.status {
            PlacementStatus::Infeasible => return false,
            PlacementStatus::NoBusyNodes => return p.assignments.is_empty(),
            PlacementStatus::Optimal => {}
        }
        let n = self.clients.len();
        let (mut out, mut into) = (vec![0.0; n], vec![0.0; n]);
        for a in &p.assignments {
            if !(a.amount.is_finite() && a.amount > 0.0)
                || p.candidates.binary_search(&a.to).is_err()
            {
                return false;
            }
            out[a.from.index()] += a.amount;
            into[a.to.index()] += a.amount;
        }
        let within =
            (0..n).all(|j| into[j] <= (self.cfg.co_max - self.reported[j]).max(0.0) + AUDIT_TOL);
        let placed = delta_round
            || p.busy.iter().all(|b| {
                (out[b.index()] - (self.reported[b.index()] - self.cfg.c_max)).abs() <= AUDIT_TOL
            });
        within && placed
    }

    /// Hand every outgoing frame to its client, decoded from the wire,
    /// and the clients' ACKs back to the Manager.
    fn deliver(
        &mut self,
        mut wire: VecDeque<(NodeId, Vec<u8>)>,
        originals: &[Envelope<ManagerMsg>],
    ) -> bool {
        let mut ok = true;
        let mut index = 0;
        while let Some((to, bytes)) = wire.pop_front() {
            let Ok(msg) = codec::decode_manager(&bytes) else {
                ok = false;
                continue;
            };
            if let Some(orig) = originals.get(index) {
                ok &= orig.msg == msg && orig.to == to;
            }
            index += 1;
            let offered = match &msg {
                ManagerMsg::OffloadRequest { request, from, amount, .. }
                | ManagerMsg::Rep { request, from, amount, .. } => Some((*request, *from, *amount)),
                ManagerMsg::Release { request } => {
                    self.hosting_changed[to.index()] |= self.ledger.remove(request).is_some();
                    None
                }
                ManagerMsg::Ack { .. } => None,
            };
            let Some(reply) = self.clients[to.index()].handle(self.now_ms, &msg) else { continue };
            if let (Some((request, from, amount)), ClientMsg::OffloadAck { accept: true, .. }) =
                (offered, &reply)
            {
                self.ledger.entry(request).or_insert((from, amount));
                self.hosting_changed[to.index()] = true;
            }
            for env in self.manager.handle(self.now_ms, &reply) {
                wire.push_back((env.to, codec::encode_manager(&env.msg)));
            }
        }
        ok
    }
}

/// Seeded roles with exact counts in every tier of the fat-tree, so
/// every seed's instance has the same shape: a row priced from a core
/// switch costs other than one from an edge switch.
fn draw_roles(rng: &mut SplitMix64, tiers: &[Vec<usize>], sizes: &Sizes) -> Vec<Role> {
    let mut roles = vec![Role::Neutral; tiers.iter().map(Vec::len).sum()];
    for tier in tiers {
        let mut order = tier.clone();
        rng.shuffle(&mut order);
        let (hot, cand) = (tier.len() / sizes.busy_one_in, tier.len() / sizes.candidates_one_in);
        for (rank, &i) in order.iter().enumerate() {
            roles[i] = match rank {
                r if r < hot => Role::Hot,
                r if r < hot + cand => Role::Candidate,
                _ => Role::Neutral,
            };
        }
    }
    roles
}

fn draw_inputs(
    kind: Kind,
    rng: &mut SplitMix64,
    tiers: &[Vec<usize>],
    edges: usize,
    count: usize,
) -> Vec<RoundInput> {
    let sizes = kind.sizes();
    let n: usize = tiers.iter().map(Vec::len).sum();
    (0..count)
        .map(|_| match kind {
            Kind::ColdK24 => {
                let roles = draw_roles(rng, tiers, &sizes);
                RoundInput::Cold {
                    link_util: (0..edges).map(|_| rng.range_f64(0.1, 0.9)).collect(),
                    base: roles
                        .iter()
                        .map(|r| r.band())
                        .map(|(lo, hi)| rng.range_f64(lo, hi))
                        .collect(),
                    data: (0..n).map(|_| rng.range_f64(10.0, 500.0)).collect(),
                }
            }
            Kind::ChurnK16 => RoundInput::Churn {
                drift: [(); 2]
                    .map(|()| (rng.below(edges as u64) as u32, rng.range_f64(0.05, 0.95))),
                nudges: (0..n.div_ceil(STAT_EVERY as usize))
                    .map(|_| rng.range_f64(-0.1, 0.1))
                    .collect(),
                jitter: (0..n / sizes.busy_one_in).map(|_| rng.range_f64(-0.05, 0.05)).collect(),
            },
        })
        .collect()
}

/// A decision workload after set-up: the start state every slice is
/// replayed from, and the slice's inputs.
pub struct Decide {
    kind: Kind,
    seed: u64,
    template: World,
    inputs: Vec<RoundInput>,
    /// Most hostings the ledger held during warm-up.
    hostings_warm: u64,
}

impl Decide {
    /// Topology, Manager, registration, input generation, and a warm-up
    /// that leaves the fleet in steady state.
    pub fn setup(kind: Kind, seed: u64) -> Decide {
        let sizes = kind.sizes();
        let mut world = World::new(kind, seed);
        let edges = world.manager.graph_mut().edge_count();
        let mut rng = SplitMix64::new(seed ^ 0xD057_0002);
        let warmup = draw_inputs(kind, &mut rng, &world.tiers, edges, sizes.warmup_ops);
        let inputs = draw_inputs(kind, &mut rng, &world.tiers, edges, sizes.ops_per_slice);
        let mut tr = Tracer::new();
        for input in &warmup {
            let sent = world.prepare(input);
            let frames: Vec<Vec<u8>> = sent.iter().map(codec::encode_client).collect();
            let out = world.round(&sent, &frames, &mut tr, false);
            assert!(out.ok, "warm-up round {} failed its checks", world.round - 1);
        }
        let hostings_warm = world.hostings_peak;
        Decide { kind, seed, template: world, inputs, hostings_warm }
    }
}

impl Workload for Decide {
    fn unit(&self) -> &'static str {
        "rounds"
    }

    fn units_per_op(&self) -> u64 {
        1
    }

    fn slice(&mut self, mode: Mode, tr: &mut Tracer, probe: &mut Probe) -> SliceOut {
        let traced = mode != Mode::Plain;
        let mut world = self.template.clone();
        // a clone shares the template's cost engine; attaching a handle
        // gives this slice an engine — and a cold row cache — of its own
        let obs = if traced { ObsHandle::recording(self.seed) } else { ObsHandle::disabled() };
        world.manager.set_obs(obs.clone());
        world.hostings_peak = 0;
        let offers_before = world.manager.offers_sent();
        let delta_before = world.manager.delta_rounds();

        let mut out = SliceOut::default();
        let (mut beta, mut assignments, mut stats_sent, mut wire_bytes) =
            (0.0f64, 0u64, 0u64, 0u64);
        for input in &self.inputs {
            probe.pulse();
            let sent = world.prepare(input);
            let frames: Vec<Vec<u8>> = sent.iter().map(codec::encode_client).collect();
            let r = world.round(&sent, &frames, tr, traced);
            out.lat_ns.push(r.lat_ns);
            out.failed += u64::from(!r.ok);
            beta += r.beta;
            assignments += r.assignments;
            stats_sent += r.stats;
            wire_bytes += r.wire_bytes;
        }
        let ops = self.inputs.len() as u64;
        out.units = ops;
        let hostings_peak = world.hostings_peak;
        let delta_rounds = world.manager.delta_rounds() - delta_before;
        out.work = vec![
            ("sum_beta_bits", beta.to_bits()),
            ("assignments", assignments),
            ("offers", world.manager.offers_sent() - offers_before),
            ("delta_rounds", delta_rounds),
            ("stats", stats_sent),
            ("wire_bytes", wire_bytes),
            ("hostings_warm", self.hostings_warm),
            ("hostings_peak", hostings_peak),
        ];

        // the fleet's replies must keep the Manager's ledger bounded
        if hostings_peak > 2 * self.hostings_warm.max(1) {
            out.invalid = Some(format!(
                "hostings grew from {} in warm-up to {hostings_peak}",
                self.hostings_warm
            ));
        }
        if self.kind == Kind::ChurnK16 && 2 * delta_rounds <= ops {
            out.invalid = Some(format!("only {delta_rounds} of {ops} rounds took the delta path"));
        }
        if traced {
            let c = |name: &str| obs.counter(name) as f64;
            let per_op = |name: &str| c(name) / ops as f64;
            let warm_accept =
                stats::share(c("lp.warm_solves"), c("lp.warm_solves") + c("lp.warm_rejects"));
            if self.kind == Kind::ChurnK16 && warm_accept <= 0.5 {
                out.invalid =
                    Some(format!("only {warm_accept:.3} of offered warm bases were accepted"));
            }
            out.layers = vec![
                ("proto.stats_per_op", per_op("proto.stats")),
                ("proto.offers_per_op", per_op("proto.offers_sent")),
                (
                    "proto.delta_round_share",
                    stats::share(c("proto.delta_rounds"), c("proto.placement_rounds")),
                ),
                ("proto.hostings_end", world.manager.hostings().len() as f64),
                ("topology.rows_priced_per_op", per_op("cost.rows_priced")),
                (
                    "topology.cache_hit_share",
                    stats::share(
                        c("cost.cache_hits"),
                        c("cost.cache_hits") + c("cost.cache_misses"),
                    ),
                ),
                (
                    "topology.rows_migrated_share",
                    stats::share(
                        c("cost.rows_migrated"),
                        c("cost.rows_migrated") + c("cost.rows_invalidated"),
                    ),
                ),
                ("topology.full_invalidations", c("cost.full_invalidations")),
                ("lp.pivots_per_op", per_op("lp.transport.pivots")),
                ("lp.warm_accept_share", warm_accept),
                ("lp.pivots_saved_per_op", per_op("lp.pivots_saved")),
                (
                    "core.optimal_share",
                    stats::share(
                        c("core.placements_optimal"),
                        c("core.placements") - c("core.placements_no_busy"),
                    ),
                ),
            ];
        }
        out
    }
}
