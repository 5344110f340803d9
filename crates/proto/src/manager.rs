//! DUST-Manager state machine.
//!
//! The Manager is "a decision node \[that\] defines the most optimized
//! destination monitoring node by evaluating network resource utilization,
//! monitoring capabilities, and the number of monitoring agents" (§III-B).
//! Like the client it is a pure, clock-driven state machine: it ingests
//! `ClientMsg`s, assembles the NMDB from the latest `STAT`s, invokes the
//! optimization engine, and emits addressed `ManagerMsg`s — registration
//! ACKs, `Offload-Request`s, `Release`s when Busy nodes can reclaim local
//! resources, and `REP` replica substitutions when a destination stops
//! sending keepalives (§III-C).
//!
//! Every placement solve goes through dust-core — a full round's through
//! [`optimize_with`], a delta round's residual through the function it
//! solves with, [`solve_placement`] — and every `Offload-Request` or
//! `REP`, first copy or retransmit, is built from the hosting it offers.
//!
//! The ledger is hardened for lossy transports: unconfirmed offers expire
//! and retransmit with exponential backoff (then are abandoned with a
//! clean-up `Release`, so a destination whose `Offload-ACK` was lost never
//! hosts a zombie), `Release`s retransmit a bounded number of times, ACKs
//! from the wrong sender are ignored in all builds, and the reclaim path
//! refuses to act on stale `STAT`s from a possibly-dead Busy node.

use crate::messages::{ClientMsg, Envelope, ManagerMsg, RequestId};
use dust_core::{
    assign_run, optimize_with, solve_placement, Assignment, DustConfig, DustError, Nmdb, NodeState,
    Placement, PlacementLp, PlacementStatus, WarmState, FLOW_TOL,
};
use dust_obs::{ObsHandle, TraceEvent};
use dust_topology::{CostEngine, Graph, NodeId, Path};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the Manager knows about one registered client.
#[derive(Debug, Clone, Copy)]
pub struct ClientRecord {
    /// `Offload-capable` flag from registration.
    pub capable: bool,
    /// Latest STAT: `(time_ms, utilization, data_mb)`.
    pub last_stat: Option<(u64, f64, f64)>,
    /// Latest keepalive time (destinations only).
    pub last_keepalive: Option<u64>,
}

impl ClientRecord {
    /// The node state the NMDB holds for this client. A client that is
    /// not capable, or never reported, is a fully idle non-participant, so
    /// it never becomes a placement target on stale ignorance. A STAT
    /// travels as raw f64 bits, so a corrupt or hostile frame can smuggle
    /// NaN/∞ here: that too is sanitized to idle rather than left to trip
    /// [`NodeState`]'s invariants.
    fn node_state(&self) -> NodeState {
        match self.last_stat {
            Some((_, u, d)) if self.capable && u.is_finite() && d.is_finite() => {
                NodeState::new(u.clamp(0.0, 100.0), d.max(0.0))
            }
            _ => IDLE_NON_PARTICIPANT,
        }
    }
}

/// The Manager's registered clients, by node id.
///
/// One slot per node of the graph the Manager was built on, so a STAT's
/// lookup is an index, plus an ordered map for registrants whose id lies
/// past that graph: the protocol accepts them (and placement ignores
/// them), but a hostile `NodeId(u32::MAX)` must not size the table.
/// Iteration is ascending by id — the slots, then the map, whose ids are
/// all larger.
#[derive(Debug, Clone)]
pub struct ClientRegistry {
    dense: Vec<Option<ClientRecord>>,
    strangers: BTreeMap<NodeId, ClientRecord>,
}

impl ClientRegistry {
    /// An empty registry with one slot per node of a `nodes`-node graph.
    fn new(nodes: usize) -> Self {
        ClientRegistry { dense: vec![None; nodes], strangers: BTreeMap::new() }
    }

    /// The record of `node`, if it registered.
    pub fn get(&self, node: &NodeId) -> Option<&ClientRecord> {
        match self.dense.get(node.index()) {
            Some(slot) => slot.as_ref(),
            None => self.strangers.get(node),
        }
    }

    fn get_mut(&mut self, node: &NodeId) -> Option<&mut ClientRecord> {
        match self.dense.get_mut(node.index()) {
            Some(slot) => slot.as_mut(),
            None => self.strangers.get_mut(node),
        }
    }

    /// `node`'s record, inserting `fresh` first if it has none.
    fn get_or_insert(&mut self, node: NodeId, fresh: ClientRecord) -> &mut ClientRecord {
        match self.dense.get_mut(node.index()) {
            Some(slot) => slot.get_or_insert(fresh),
            None => self.strangers.entry(node).or_insert(fresh),
        }
    }

    /// True when `node` registered.
    pub fn contains_key(&self, node: &NodeId) -> bool {
        self.get(node).is_some()
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True when nobody registered.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }

    /// Every registered client with its record, ascending by id.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &ClientRecord)> {
        let dense = self.dense.iter().enumerate().filter_map(|(i, slot)| {
            let id = u32::try_from(i).expect("graph node ids fit in u32");
            slot.as_ref().map(|rec| (NodeId(id), rec))
        });
        dense.chain(self.strangers.iter().map(|(n, rec)| (*n, rec)))
    }
}

impl std::ops::Index<&NodeId> for ClientRegistry {
    type Output = ClientRecord;

    /// # Panics
    /// Panics if `node` never registered.
    fn index(&self, node: &NodeId) -> &ClientRecord {
        self.get(node).unwrap_or_else(|| panic!("{node:?} is not registered"))
    }
}

/// What the NMDB holds for a node the Manager knows nothing usable about.
const IDLE_NON_PARTICIPANT: NodeState =
    NodeState { utilization: 0.0, data_mb: 0.0, offload_capable: false, capacity_factor: 1.0 };

/// One hosting arrangement brokered by the Manager.
#[derive(Debug, Clone, PartialEq)]
pub struct Hosting {
    /// Busy node that shed the load.
    pub from: NodeId,
    /// Destination currently hosting it.
    pub to: NodeId,
    /// Capacity-percent hosted.
    pub amount: f64,
    /// Whether the destination's `Offload-ACK` arrived.
    pub confirmed: bool,
    /// Monitoring data volume shipped per interval, Mb.
    pub data_mb: f64,
    /// Controllable route the offer carried.
    pub route: Option<Path>,
    /// When the current offer transmission went out, ms.
    pub offered_ms: u64,
    /// Offer transmissions so far (1 = the original).
    pub attempts: u32,
    /// `T_rmin` of the (from, to) pair when this hosting was offered —
    /// the baseline a delta round's degradation check compares against.
    /// `INFINITY` when the route was unpriceable at offer time.
    pub t_rmin: f64,
    /// `Some(failed)` when this hosting was created by a `REP` replica
    /// substitution away from `failed` — retries must resend a `REP`.
    pub rep_failed: Option<NodeId>,
    /// For REP hostings: the request id the transfer was previously
    /// running under (the owner reclaims under this id if the REP never
    /// lands and the offer is abandoned).
    pub orig_request: Option<RequestId>,
}

impl Hosting {
    /// The message that offers this hosting to its destination under
    /// `request`: a `REP` when it substitutes a failed destination, an
    /// `Offload-Request` otherwise.
    fn offer(&self, request: RequestId) -> Envelope<ManagerMsg> {
        let (from, amount, data_mb, route) =
            (self.from, self.amount, self.data_mb, self.route.clone());
        let msg = match self.rep_failed {
            Some(failed) => ManagerMsg::Rep { request, failed, from, amount, data_mb, route },
            None => ManagerMsg::OffloadRequest { request, from, amount, data_mb, route },
        };
        Envelope { to: self.to, msg }
    }
}

/// Retransmit bookkeeping for one outstanding `Release`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReleaseRetry {
    to: NodeId,
    sent_ms: u64,
    attempts: u32,
}

/// What a placement round decided, before anything acts on it: the
/// Manager's `decide` picks it and its `commit` applies it.
#[derive(Debug)]
enum Decision {
    /// The whole-fleet solve's outcome.
    Full(Result<Placement, DustError>),
    /// A delta round: its placement (the snapshot's Busy nodes and
    /// candidates, the pricing and residual solve times, no assignment
    /// yet), the confirmed hostings `checked` and the `degraded` among
    /// them, the degraded ones the residual keeps whole with their fresh
    /// `T_rmin`, and each re-homed hosting's pieces, consecutive per hosting.
    Delta {
        placement: Placement,
        checked: u32,
        degraded: u32,
        keep_fresh: Vec<(RequestId, f64)>,
        rehomes: Vec<(RequestId, Assignment)>,
    },
}

/// Offer transmissions before an unconfirmed hosting is abandoned.
const MAX_OFFER_ATTEMPTS: u32 = 5;

/// `Release` transmissions before the Manager stops retrying (the message
/// has no acknowledgment, so delivery is at-least-attempted, not exact).
const MAX_RELEASE_ATTEMPTS: u32 = 5;

/// Exponential backoff: `base`, `2·base`, `4·base`, then `8·base` capped.
fn backoff(base_ms: u64, attempts: u32) -> u64 {
    base_ms.saturating_mul(1 << attempts.saturating_sub(1).min(3))
}

/// The placement solver, the transportation solver behind
/// [`dust_core::solve_placement`] — the only one there is.
///
/// It selects nothing. It survives only as a parameter of
/// [`Manager::new`], because the benchmark passes
/// `SolverBackend::Transportation` there and must build unedited; dropping
/// the parameter, and this type with it, is an edit to the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// Vogel + MODI transportation solver.
    Transportation,
}

/// The DUST-Manager.
#[derive(Debug, Clone)]
pub struct Manager {
    cfg: DustConfig,
    /// The fabric, shared copy-on-write with every [`Nmdb`] snapshot and
    /// with whoever handed it over (the simulator keeps the same `Arc` as
    /// its ground truth).
    graph: Arc<Graph>,
    update_interval_ms: u64,
    /// A destination is declared failed after this long without keepalive.
    keepalive_timeout_ms: u64,
    /// Base timeout before an unconfirmed offer retransmits.
    offer_timeout_ms: u64,
    registry: ClientRegistry,
    hostings: BTreeMap<RequestId, Hosting>,
    /// Outstanding `Release`s being retransmitted.
    releases: BTreeMap<RequestId, ReleaseRetry>,
    /// Hostings whose destination failed with no replacement available.
    orphaned: Vec<Hosting>,
    /// Offer retransmissions performed (for reports and tests).
    offer_retries: u64,
    /// Offers abandoned after [`MAX_OFFER_ATTEMPTS`].
    offers_abandoned: u64,
    /// Placement rounds run so far (each traced as a `PlacementRound`).
    placement_rounds: u64,
    /// Delta rounds run (placement rounds that skipped the full solve).
    delta_rounds: u64,
    /// Hosted flows re-homed by delta rounds.
    flows_rehomed: u64,
    /// Reuse the previous optimal round's spanning-tree bases to
    /// warm-start the next full solve.
    warm_enabled: bool,
    /// Bases exported by the last optimal full round (empty when cold).
    warm: WarmState,
    /// `Some((r, n))`: delta placement is on — a round where every
    /// confirmed hosting's fresh `T_rmin` stayed within `(1 + r)×` its
    /// offer-time baseline re-homes only the degraded flows instead of
    /// re-solving the whole fleet, and every `n`-th round still runs the
    /// full (warm-started) engine, against slow aggregate drift no single
    /// flow's threshold catches.
    delta: Option<(f64, u64)>,
    next_request: u64,
    /// Observability sink for protocol transitions (no-op by default).
    obs: ObsHandle,
    /// This Manager's own cost engine: `T_rmin` rows stay cached across
    /// placement rounds and migrate across the link drift this Manager's
    /// graph journals; a clone gets a copy of the cache and its epoch, so
    /// two Managers never price with each other's rows. Solver metrics
    /// flow through its attached [`ObsHandle`].
    engine: CostEngine,
}

impl Manager {
    /// A Manager over `graph` with protocol timing.
    ///
    /// `update_interval_ms` is the Update-Interval Time sent in every ACK
    /// ("typically in minutes", §III-B — the simulator compresses time);
    /// `keepalive_timeout_ms` is how long a hosting destination may stay
    /// silent before replica substitution kicks in. The offer-expiry
    /// timeout defaults to `2 × update_interval_ms`; tune it with
    /// [`Manager::with_offer_timeout`].
    ///
    /// An invalid `cfg`, a zero update interval or a zero keepalive
    /// timeout is a typed [`DustError::BadConfig`] — a daemon
    /// bootstrapping from an untrusted config file must never panic. (At a
    /// zero timeout no STAT is ever fresh, so every confirmed hosting would
    /// fail over at the next tick with no replica to take it.)
    ///
    /// `graph` is a [`Graph`] (moved behind a fresh `Arc`) or an
    /// `Arc<Graph>`; either way the Manager shares it from here on and
    /// copies it only to write while someone else still holds it
    /// ([`Manager::graph_mut`]).
    ///
    /// `backend` selects nothing: see [`SolverBackend`].
    pub fn new(
        graph: impl Into<Arc<Graph>>,
        cfg: DustConfig,
        backend: SolverBackend,
        update_interval_ms: u64,
        keepalive_timeout_ms: u64,
    ) -> Result<Self, DustError> {
        let SolverBackend::Transportation = backend;
        cfg.validate().map_err(DustError::BadConfig)?;
        if update_interval_ms == 0 {
            return Err(DustError::BadConfig("update interval must be positive".to_string()));
        }
        if keepalive_timeout_ms == 0 {
            return Err(DustError::BadConfig("keepalive timeout must be positive".to_string()));
        }
        let mut graph = graph.into();
        // A graph is born all-dirty, and draining that is a write. Do it
        // while nobody else can hold this `Arc`, or the first round would
        // copy the whole fabric to clear one flag. Nothing is lost: the
        // engine is as new as the graph, and a new engine's first refresh
        // is a full invalidation whatever the journal says.
        if let Some(g) = Arc::get_mut(&mut graph) {
            g.take_dirty();
        }
        let registry = ClientRegistry::new(graph.node_count());
        Ok(Manager {
            cfg,
            graph,
            update_interval_ms,
            keepalive_timeout_ms,
            offer_timeout_ms: 2 * update_interval_ms,
            registry,
            hostings: BTreeMap::new(),
            releases: BTreeMap::new(),
            orphaned: Vec::new(),
            offer_retries: 0,
            offers_abandoned: 0,
            placement_rounds: 0,
            delta_rounds: 0,
            flows_rehomed: 0,
            warm_enabled: false,
            warm: WarmState::default(),
            delta: None,
            next_request: 0,
            obs: ObsHandle::disabled(),
            engine: CostEngine::new(),
        })
    }

    /// Attach an observability handle: every protocol transition and
    /// the optimizer's solver/cache metrics record through it. The cost
    /// engine is rebuilt so its accounting lands on the same handle; its
    /// memoized rows restart cold.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.engine = CostEngine::new().with_obs(obs.clone());
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Override the base offer-expiry timeout; zero is a typed
    /// [`DustError::BadConfig`].
    pub fn with_offer_timeout(mut self, offer_timeout_ms: u64) -> Result<Self, DustError> {
        if offer_timeout_ms == 0 {
            return Err(DustError::BadConfig("offer timeout must be positive".to_string()));
        }
        self.offer_timeout_ms = offer_timeout_ms;
        Ok(self)
    }

    /// Base timeout before an unconfirmed offer retransmits, ms.
    pub fn offer_timeout_ms(&self) -> u64 {
        self.offer_timeout_ms
    }

    /// Reuse the previous optimal round's spanning-tree bases to
    /// warm-start subsequent full solves. Warm and cold rounds reach the
    /// same objective — the bases only skip the initial-assignment phase
    /// and most MODI pivots when the instance drifted little.
    pub fn with_warm_start(mut self, on: bool) -> Self {
        self.warm_enabled = on;
        if !on {
            self.warm = WarmState::default();
        }
        self
    }

    /// Turn on the delta-placement path: a round where every confirmed
    /// hosting's fresh `T_rmin` stayed within `(1 + threshold)×` its
    /// offer-time baseline re-homes only the degraded flows via a
    /// residual subproblem; every `full_every`-th round still runs the
    /// full engine. `threshold` must be finite and non-negative,
    /// `full_every` positive.
    pub fn with_delta_placement(
        mut self,
        threshold: f64,
        full_every: u64,
    ) -> Result<Self, DustError> {
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(DustError::BadConfig(
                "delta threshold must be finite and non-negative".to_string(),
            ));
        }
        if full_every == 0 {
            return Err(DustError::BadConfig(
                "delta full-solve cadence must be positive".to_string(),
            ));
        }
        self.delta = Some((threshold, full_every));
        Ok(self)
    }

    /// Delta rounds run so far (rounds that skipped the full solve).
    pub fn delta_rounds(&self) -> u64 {
        self.delta_rounds
    }

    /// Hosted flows re-homed by delta rounds so far.
    pub fn flows_rehomed(&self) -> u64 {
        self.flows_rehomed
    }

    /// The Manager's view of the fabric: the `Arc` every snapshot shares.
    pub fn graph(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// Mutable access to the Manager's view of the fabric, for applying
    /// link drift. Mutations made through [`Graph::link_mut`] are
    /// journaled, so the next placement round re-prices only the cost
    /// rows whose paths can cross a retuned link.
    ///
    /// Copy-on-write: while a snapshot, a cloned Manager or the simulator
    /// still holds the same topology, the first call copies it (once —
    /// the copy is the Manager's alone) and the other holders keep
    /// reading the links as they were. To read, use [`Manager::graph`]:
    /// it never copies.
    pub fn graph_mut(&mut self) -> &mut Graph {
        Arc::make_mut(&mut self.graph)
    }

    /// Registered clients and their records.
    pub fn registry(&self) -> &ClientRegistry {
        &self.registry
    }

    /// Active hosting arrangements.
    pub fn hostings(&self) -> &BTreeMap<RequestId, Hosting> {
        &self.hostings
    }

    /// Hostings that lost their destination and found no replacement.
    pub fn orphaned(&self) -> &[Hosting] {
        &self.orphaned
    }

    /// Offer retransmissions performed so far.
    pub fn offer_retries(&self) -> u64 {
        self.offer_retries
    }

    /// Offers abandoned after exhausting their retries.
    pub fn offers_abandoned(&self) -> u64 {
        self.offers_abandoned
    }

    /// Total offers ever sent (original transmissions, including REPs).
    /// Request ids are allocated one per offer, so this is exact.
    pub fn offers_sent(&self) -> u64 {
        self.next_request
    }

    /// Placement rounds run so far.
    pub fn placement_rounds(&self) -> u64 {
        self.placement_rounds
    }

    fn fresh_request(&mut self) -> RequestId {
        self.next_request += 1;
        RequestId(self.next_request)
    }

    /// Queue a `Release` for retransmission and return the first copy.
    fn send_release(
        &mut self,
        now_ms: u64,
        to: NodeId,
        request: RequestId,
    ) -> Envelope<ManagerMsg> {
        self.releases.insert(request, ReleaseRetry { to, sent_ms: now_ms, attempts: 1 });
        self.obs.counter_inc("proto.releases_sent");
        self.obs.trace_at(now_ms, TraceEvent::ReleaseSent { request: request.0, to: to.0 });
        Envelope { to, msg: ManagerMsg::Release { request } }
    }

    /// Process one client message.
    pub fn handle(&mut self, now_ms: u64, msg: &ClientMsg) -> Vec<Envelope<ManagerMsg>> {
        match msg {
            ClientMsg::OffloadCapable { node, capable } => {
                // Idempotent: a registration retransmit (lost ACK) must not
                // wipe the STAT/keepalive history of a known client.
                let rec = self.registry.get_or_insert(
                    *node,
                    ClientRecord { capable: *capable, last_stat: None, last_keepalive: None },
                );
                rec.capable = *capable;
                self.obs.counter_inc("proto.registrations");
                self.obs.trace_at(now_ms, TraceEvent::Register { node: node.0 });
                self.obs.trace_at(now_ms, TraceEvent::RegisterAck { node: node.0 });
                // "DUST-Manager responds with an ACK message to each client
                // engaged in the offloading process" (§III-B).
                vec![Envelope {
                    to: *node,
                    msg: ManagerMsg::Ack { update_interval_ms: self.update_interval_ms },
                }]
            }
            ClientMsg::Stat { node, utilization, data_mb } => {
                let _prof = self.obs.prof_scope("proto.stat_ingest");
                if let Some(rec) = self.registry.get_mut(node) {
                    rec.last_stat = Some((now_ms, *utilization, *data_mb));
                    self.obs.counter_inc("proto.stats");
                    self.obs.trace_at(now_ms, TraceEvent::Stat { node: node.0 });
                }
                Vec::new()
            }
            ClientMsg::Keepalive { node } => {
                if let Some(rec) = self.registry.get_mut(node) {
                    rec.last_keepalive = Some(now_ms);
                    self.obs.counter_inc("proto.keepalives");
                    self.obs.trace_at(now_ms, TraceEvent::Keepalive { node: node.0 });
                }
                Vec::new()
            }
            ClientMsg::OffloadAck { node, request, accept } => {
                let Some(h) = self.hostings.get_mut(request) else {
                    // Unknown request. If the destination claims to host it
                    // (accept after the offer was abandoned or released),
                    // self-heal with a Release so no zombie hosting leaks.
                    if *accept && !self.releases.contains_key(request) {
                        self.obs.counter_inc("proto.releases_sent");
                        self.obs.trace_at(
                            now_ms,
                            TraceEvent::ReleaseSent { request: request.0, to: node.0 },
                        );
                        return vec![Envelope {
                            to: *node,
                            msg: ManagerMsg::Release { request: *request },
                        }];
                    }
                    return Vec::new();
                };
                if h.to != *node {
                    // An ACK from anyone but the offered destination must
                    // not confirm (or drop) someone else's hosting — in
                    // every build, not just with debug assertions on.
                    return Vec::new();
                }
                if *accept {
                    if h.confirmed {
                        self.obs.counter_inc("proto.acks_duplicate");
                    } else {
                        h.confirmed = true;
                        self.obs.counter_inc("proto.offers_confirmed");
                        self.obs.trace_at(
                            now_ms,
                            TraceEvent::OfferAccepted { request: request.0, node: node.0 },
                        );
                    }
                    // hosting starts: destination owes keepalives from now
                    if let Some(rec) = self.registry.get_mut(node) {
                        rec.last_keepalive.get_or_insert(now_ms);
                    }
                } else {
                    // refusal: drop the arrangement; the next placement
                    // round will retry with fresher state
                    let was_confirmed = h.confirmed;
                    self.hostings.remove(request);
                    if was_confirmed {
                        // a confirmed hosting refused late — cannot happen
                        // with the shipped client, but keep the ledger math
                        // honest if a foreign client ever does it
                        self.obs.counter_inc("proto.confirmed_refused");
                    } else {
                        self.obs.counter_inc("proto.offers_refused");
                        self.obs.trace_at(
                            now_ms,
                            TraceEvent::OfferRefused { request: request.0, node: node.0 },
                        );
                    }
                }
                Vec::new()
            }
        }
    }

    /// Assemble the NMDB from the latest STATs. Nodes that never reported
    /// are treated as fully idle non-participants (capable = false) so they
    /// never become placement targets on stale ignorance.
    ///
    /// The snapshot shares the Manager's topology and owns only its node
    /// states: one allocation, whatever the size of the fabric.
    pub fn snapshot(&self) -> Nmdb {
        let states = self
            .graph
            .nodes()
            .map(|n| self.registry.get(&n).map_or(IDLE_NON_PARTICIPANT, ClientRecord::node_state))
            .collect();
        Nmdb::new(Arc::clone(&self.graph), states)
    }

    /// Run one optimization round ("DUST Monitoring Placement Workflow",
    /// §III-B): deploy the optimization engine and notify the chosen
    /// Offload-destination nodes with `Offload-Request`s. Assignments that
    /// duplicate a still-unconfirmed offer (same busy node and destination)
    /// are skipped — the expiry/retry machinery owns those.
    ///
    /// Before anything solves, the cost engine migrates its cached
    /// `T_rmin` rows across whatever link drift accumulated since the last
    /// round (incremental when few links moved, a full re-price past
    /// [`dust_topology::MAX_DIRTY_FRACTION`] of them). With
    /// [`Manager::with_delta_placement`] on, a round where the hosted
    /// flows all priced within their degradation threshold re-homes only
    /// the offenders; otherwise — and on every periodic cadence round —
    /// the full engine runs, warm-started from the previous round's bases
    /// when [`Manager::with_warm_start`] is on.
    ///
    /// Returns the placement (for inspection) and the outgoing messages.
    pub fn run_placement(&mut self, now_ms: u64) -> (Placement, Vec<Envelope<ManagerMsg>>) {
        let _prof = self.obs.prof_scope("proto.placement_round");
        // Draining the journal is a write to the graph; a round with
        // nothing to drain must not be what copies a shared topology.
        let dirty = if self.graph.journal_is_empty() {
            Some(Vec::new())
        } else {
            Arc::make_mut(&mut self.graph).take_dirty()
        };
        self.engine.refresh(&self.graph, dirty);
        let nmdb = self.snapshot();
        let decision = self.decide(&nmdb);
        self.commit(now_ms, &nmdb, decision)
    }

    /// Decide a round without acting on it: only the cost engine's row
    /// cache and scratch are written, never the ledger, a counter or the
    /// trace. The delta path prices just the hosted (from → candidate)
    /// rows and re-homes the hostings whose fresh `T_rmin` degraded past
    /// the threshold: one residual row per degraded flow, solved cold by
    /// [`solve_placement`]. A busy *destination* has left the candidate
    /// set, so every flow hosted on it prices to `INFINITY` and is
    /// re-homed. The delta path gives up for the whole-fleet solve when
    /// delta placement is off, on a cadence round, with no confirmed
    /// hostings, no candidates or a Busy node the ledger has never seen
    /// (new excess), and when the residual solve failed or is not optimal.
    fn decide(&mut self, nmdb: &Nmdb) -> Decision {
        'delta: {
            let Some((threshold, full_every)) = self.delta else { break 'delta };
            if self.placement_rounds.is_multiple_of(full_every) {
                break 'delta;
            }
            let confirmed: Vec<RequestId> =
                self.hostings.iter().filter(|(_, h)| h.confirmed).map(|(r, _)| *r).collect();
            if confirmed.is_empty() {
                break 'delta;
            }
            let busy = nmdb.busy_nodes(&self.cfg);
            let candidates = nmdb.candidate_nodes(&self.cfg);
            if candidates.is_empty() {
                break 'delta;
            }
            let hosted_from: BTreeSet<NodeId> =
                confirmed.iter().map(|r| self.hostings[r].from).collect();
            let hosted_to: BTreeSet<NodeId> =
                confirmed.iter().map(|r| self.hostings[r].to).collect();
            // a Busy node absent from the ledger has excess only the full
            // engine can place; a busy source or host is delta material
            if busy.iter().any(|b| !hosted_from.contains(b) && !hosted_to.contains(b)) {
                break 'delta;
            }

            // ---- fresh T_rmin over the hosted rows only -------------------
            let t0 = Instant::now();
            let froms: Vec<NodeId> = hosted_from.into_iter().collect();
            let data: Vec<f64> = froms.iter().map(|&f| nmdb.state(f).data_mb).collect();
            let (graph, cfg) = (&nmdb.graph, &self.cfg);
            let costs = self.engine.build_matrix(graph, &froms, &candidates, &data, cfg.max_hop);
            let cost_time = t0.elapsed();
            // both lists ascend: a node's row or column is a binary search
            let row_of = |n: NodeId| froms.binary_search(&n).expect("a hosted source has a row");

            let mut degraded: Vec<RequestId> = Vec::new();
            for &req in &confirmed {
                let h = &self.hostings[&req];
                let fresh = match candidates.binary_search(&h.to) {
                    // destination left the candidate set (overloaded or
                    // reclassified): always worth re-homing
                    Err(_) => f64::INFINITY,
                    Ok(c) => costs.at(row_of(h.from), c),
                };
                // NaN-aware: anything not provably within the tolerance
                // (including an incomparable NaN price) counts as degraded
                let within = fresh <= h.t_rmin * (1.0 + threshold);
                if !within {
                    degraded.push(req);
                }
            }

            let mut rehomes: Vec<(RequestId, Assignment)> = Vec::new();
            let mut keep_fresh: Vec<(RequestId, f64)> = Vec::new();
            let mut solve_time = Duration::ZERO;
            if !degraded.is_empty() {
                // ---- residual subproblem over the degraded flows only -----
                // one row per degraded flow: its source's reachable candidates
                let capacity = candidates.iter().map(|&c| nmdb.cd(c, &self.cfg)).collect();
                let mut lp = PlacementLp::with_rows(degraded.len(), capacity);
                for r in &degraded {
                    let h = &self.hostings[r];
                    let (cols, t) = costs.row(row_of(h.from));
                    lp.push_row(h.amount, cols, t);
                }
                let t1 = Instant::now();
                let Ok(solution) = solve_placement(lp, self.engine.obs(), None) else {
                    break 'delta;
                };
                solve_time = t1.elapsed();
                if !solution.optimal {
                    // residual infeasible (e.g. candidates too full): let the
                    // full engine reconcile the whole fleet this round
                    break 'delta;
                }
                let (mut scratch, mut dests) = (self.engine.route_scratch(graph), Vec::new());
                for run in solution.shipped.chunk_by(|a, b| a.0 == b.0) {
                    let req = degraded[run[0].0];
                    let h = &self.hostings[&req];
                    // the residual may re-pick the current destination — keep
                    // the hosting and just rebaseline so the same drift does
                    // not re-trigger every round
                    if let [(_, c, x, t_rmin)] = *run {
                        if candidates[c] == h.to && (x - h.amount).abs() <= FLOW_TOL {
                            keep_fresh.push((req, t_rmin));
                            continue;
                        }
                    }
                    let run = assign_run(cfg, h.from, run, &candidates, &mut scratch, &mut dests);
                    rehomes.extend(run.map(|a| (req, a)));
                }
            }
            let unsolved = Placement::unsolved(PlacementStatus::Optimal, busy, candidates);
            let placement = Placement { cost_time, solve_time, ..unsolved };
            let (checked, degraded) = (confirmed.len() as u32, degraded.len() as u32);
            return Decision::Delta { placement, checked, degraded, keep_fresh, rehomes };
        }
        let warm = if self.warm_enabled && !self.warm.is_empty() { Some(&self.warm) } else { None };
        Decision::Full(optimize_with(nmdb, &self.cfg, &mut self.engine, warm))
    }

    /// Apply a round's decision ("notify the chosen Offload-destination
    /// nodes", §III-B): count a failed solve, keep an optimal full round's
    /// bases, count and rebaseline a delta round, open every offer in one
    /// loop, and count the round, tracing each step. A full round's
    /// assignment is a re-home with no old hosting. A piece whose (busy
    /// node, destination) pair already waits on an unconfirmed offer is
    /// not offered: the expiry/retry machinery owns it. A full round's
    /// placement lists every assignment it solved; a delta round's lists
    /// what it offered, with β over those.
    fn commit(
        &mut self,
        now_ms: u64,
        nmdb: &Nmdb,
        decision: Decision,
    ) -> (Placement, Vec<Envelope<ManagerMsg>>) {
        let round = self.placement_rounds;
        let (mut placement, rehomes, delta) = match decision {
            Decision::Full(solved) => {
                // A solve stopped at its pivot cap, or refused by a bad
                // config, has no plan to act on; fold it into the infeasible
                // outcome like `dust_core::optimize`, but leave a count and a
                // trace event saying which it was.
                let placement = solved.unwrap_or_else(|err| {
                    let kind = err.kind();
                    self.obs.counter_inc("proto.solve_errors");
                    self.obs.counter_inc(&format!("proto.solve_errors.{kind}"));
                    self.obs.trace_at(now_ms, TraceEvent::SolveError { round, kind });
                    let (busy, candidates) =
                        (nmdb.busy_nodes(&self.cfg), nmdb.candidate_nodes(&self.cfg));
                    Placement::unsolved(PlacementStatus::Infeasible, busy, candidates)
                });
                if self.warm_enabled && placement.status == PlacementStatus::Optimal {
                    self.warm = placement.warm.clone();
                }
                (placement, Vec::new(), false)
            }
            Decision::Delta { placement, checked, degraded, keep_fresh, rehomes } => {
                self.delta_rounds += 1;
                self.obs.counter_inc("proto.delta_rounds");
                self.obs.trace_at(now_ms, TraceEvent::DeltaRound { round, checked, degraded });
                for (req, fresh) in keep_fresh {
                    if let Some(h) = self.hostings.get_mut(&req) {
                        h.t_rmin = fresh;
                    }
                }
                (placement, rehomes, true)
            }
        };

        // A full round offers what it solved (empty unless optimal; a delta
        // round's lists nothing yet), a delta round each re-homed flow's
        // pieces: they are consecutive, and the first releases the hosting.
        let mut offered = Vec::with_capacity(rehomes.len());
        let pieces = placement.assignments.iter().map(|a| (None, Cow::Borrowed(a)));
        let pieces = pieces.chain(rehomes.into_iter().map(|(old, a)| (Some(old), Cow::Owned(a))));
        let in_flight: BTreeSet<(NodeId, NodeId)> =
            self.hostings.values().filter(|h| !h.confirmed).map(|h| (h.from, h.to)).collect();
        let (mut out, mut offers, mut old_to) = (Vec::new(), 0, NodeId(u32::MAX));
        for (old, a) in pieces {
            if let Some(old) = old {
                if let Some(hosting) = self.hostings.remove(&old) {
                    old_to = hosting.to;
                    out.push(self.send_release(now_ms, hosting.to, old));
                }
            }
            if in_flight.contains(&(a.from, a.to)) {
                continue;
            }
            let request = self.fresh_request();
            let a = a.into_owned();
            let (from, to) = (a.from.0, a.to.0);
            let data_mb = nmdb.state(a.from).data_mb;
            if let Some(old) = old {
                self.flows_rehomed += 1;
                self.obs.counter_inc("proto.flows_rehomed");
                let (old, old_to, new_to) = (old.0, old_to.0, to);
                let rehome = TraceEvent::Rehome { request: request.0, old, from, old_to, new_to };
                self.obs.trace_at(now_ms, rehome);
                offered.push(a.clone());
            }
            out.push(self.open_offer(now_ms, request, a, data_mb, None));
            self.obs.trace_at(now_ms, TraceEvent::Offer { request: request.0, from, to });
            offers += 1;
        }
        if delta {
            // β over what the round lists: a re-home skipped for an offer
            // already in flight is not this round's to count
            placement.beta = offered.iter().fold(0.0, |beta, a| beta + a.amount * a.t_rmin);
            placement.assignments = offered;
        }

        self.placement_rounds += 1;
        self.obs.counter_inc("proto.placement_rounds");
        self.obs.trace_at(now_ms, TraceEvent::PlacementRound { round, offers });
        (placement, out)
    }

    /// Record the unconfirmed hosting of `a` under `request`, shipping
    /// `data_mb` per interval (a `REP` when `rep` names the failed
    /// destination and request it replaces), count the offer and return
    /// the message that asks its destination.
    fn open_offer(
        &mut self,
        now_ms: u64,
        request: RequestId,
        a: Assignment,
        data_mb: f64,
        rep: Option<(NodeId, RequestId)>,
    ) -> Envelope<ManagerMsg> {
        let hosting = Hosting {
            from: a.from,
            to: a.to,
            amount: a.amount,
            confirmed: false,
            data_mb,
            route: a.route,
            offered_ms: now_ms,
            attempts: 1,
            t_rmin: a.t_rmin,
            rep_failed: rep.map(|(failed, _)| failed),
            orig_request: rep.map(|(_, orig)| orig),
        };
        let offer = hosting.offer(request);
        self.hostings.insert(request, hosting);
        self.obs.counter_inc("proto.offers_sent");
        offer
    }

    /// Periodic maintenance: offer expiry/retransmit for unconfirmed
    /// hostings, replica substitution for silent destinations (§III-C),
    /// `Release` for Busy nodes whose demand dropped enough to reclaim
    /// local resources (§III-B), and `Release` retransmits.
    pub fn tick(&mut self, now_ms: u64) -> Vec<Envelope<ManagerMsg>> {
        let _prof = self.obs.prof_scope("proto.manager_tick");
        let mut out = Vec::new();

        // --- offer expiry: retransmit or abandon unconfirmed offers -------
        let expired: Vec<RequestId> = self
            .hostings
            .iter()
            .filter(|(_, h)| !h.confirmed)
            .filter(|(_, h)| {
                now_ms.saturating_sub(h.offered_ms) >= backoff(self.offer_timeout_ms, h.attempts)
            })
            .map(|(r, _)| *r)
            .collect();
        for req in expired {
            let Some(attempts) = self.hostings.get(&req).map(|h| h.attempts) else { continue };
            if attempts >= MAX_OFFER_ATTEMPTS {
                // Abandon: the destination never confirmed. Its ACK may
                // have been lost after it accepted, so send a clean-up
                // Release; a REP that never landed additionally hands the
                // workload back to its owner under the old request id.
                let Some(h) = self.hostings.remove(&req) else { continue };
                self.offers_abandoned += 1;
                self.obs.counter_inc("proto.offers_abandoned");
                self.obs.trace_at(now_ms, TraceEvent::Abandon { request: req.0 });
                out.push(self.send_release(now_ms, h.to, req));
                if h.rep_failed.is_some() {
                    if let Some(orig) = h.orig_request {
                        out.push(self.send_release(now_ms, h.from, orig));
                    }
                    self.orphaned.push(h);
                }
            } else {
                let Some(h) = self.hostings.get_mut(&req) else { continue };
                self.offer_retries += 1;
                h.attempts += 1;
                h.offered_ms = now_ms;
                self.obs.counter_inc("proto.offer_retransmits");
                self.obs.trace_at(
                    now_ms,
                    TraceEvent::Retransmit { request: req.0, attempt: h.attempts },
                );
                out.push(h.offer(req));
            }
        }

        // --- keepalive timeouts → REP -------------------------------------
        // each silent destination once, in the order the ledger first names
        // it: the first pass re-homes all its hostings
        let silent = |to: &NodeId| match self.registry.get(to).and_then(|r| r.last_keepalive) {
            Some(t) => now_ms.saturating_sub(t) > self.keepalive_timeout_ms,
            None => true,
        };
        let mut failed_dests: Vec<NodeId> = Vec::new();
        for h in self.hostings.values().filter(|h| h.confirmed) {
            if silent(&h.to) && !failed_dests.contains(&h.to) {
                failed_dests.push(h.to);
            }
        }
        for failed in failed_dests {
            // re-home every hosting on the failed destination
            let affected: Vec<RequestId> = self
                .hostings
                .iter()
                .filter(|(_, h)| h.to == failed && h.confirmed)
                .map(|(r, _)| *r)
                .collect();
            for req in affected {
                let Some(hosting) = self.hostings.remove(&req) else { continue };
                match self.pick_replacement(now_ms, failed, hosting.from, hosting.amount) {
                    Some((replacement, inv_lu, path)) => {
                        let new_req = self.fresh_request();
                        // a fresh controllable route — the old one ran to
                        // the failed destination and is useless now
                        let a = Assignment {
                            from: hosting.from,
                            to: replacement,
                            amount: hosting.amount,
                            t_rmin: hosting.data_mb * inv_lu,
                            route: Some(path),
                        };
                        // "the malfunctioning destination-node is diagnosed
                        // and substituted with a replica node. Manager
                        // notifies this node by sending it a REP message."
                        // A REP opens a fresh offer: it counts toward
                        // `proto.offers_sent` so the offer ledger balances.
                        let rep = Some((failed, req));
                        out.push(self.open_offer(now_ms, new_req, a, hosting.data_mb, rep));
                        self.obs.counter_inc("proto.reps_sent");
                        self.obs.trace_at(
                            now_ms,
                            TraceEvent::Rep {
                                request: new_req.0,
                                orig: req.0,
                                failed: failed.0,
                                to: replacement.0,
                            },
                        );
                    }
                    None => {
                        // No replica fits: hand the workload back to its
                        // owner so monitoring resumes locally rather than
                        // silently stalling on a dead destination.
                        self.obs.counter_inc("proto.hostings_orphaned");
                        out.push(self.send_release(now_ms, hosting.from, req));
                        self.orphaned.push(hosting);
                    }
                }
            }
            // forget the stale keepalive so we don't re-trigger forever
            if let Some(rec) = self.registry.get_mut(&failed) {
                rec.last_keepalive = None;
            }
        }

        // --- reclaim: Busy node could run everything locally again --------
        // Only a *fresh* STAT may trigger a reclaim: firing a Release off a
        // stale report from a dead Busy node would end a hosting that is
        // still carrying real load.
        for req in self.reclaimable(now_ms) {
            let Some(h) = self.hostings.remove(&req) else { continue };
            self.obs.counter_inc("proto.reclaims");
            self.obs.trace_at(now_ms, TraceEvent::Reclaim { request: req.0, node: h.from.0 });
            out.push(self.send_release(now_ms, h.to, req));
        }

        // --- Release retransmits ------------------------------------------
        let due: Vec<RequestId> = self
            .releases
            .iter()
            .filter(|(_, r)| {
                now_ms.saturating_sub(r.sent_ms) >= backoff(self.offer_timeout_ms, r.attempts)
            })
            .map(|(r, _)| *r)
            .collect();
        for req in due {
            let Some(r) = self.releases.get_mut(&req) else { continue };
            if r.attempts >= MAX_RELEASE_ATTEMPTS {
                self.releases.remove(&req);
            } else {
                r.attempts += 1;
                r.sent_ms = now_ms;
                let to = r.to;
                self.obs.counter_inc("proto.release_retransmits");
                self.obs.trace_at(now_ms, TraceEvent::ReleaseSent { request: req.0, to: to.0 });
                out.push(Envelope { to, msg: ManagerMsg::Release { request: req } });
            }
        }

        out
    }

    /// Confirmed hostings whose Busy source could take its load back: its
    /// last STAT is fresh and, with everything it shed added back, it
    /// stays at or under `C_max`. In ledger (request-id) order.
    fn reclaimable(&self, now_ms: u64) -> Vec<RequestId> {
        // What each source shed, summed once over the ledger in request-id
        // order — the terms and the order a per-hosting rescan would add.
        let mut shed: BTreeMap<NodeId, f64> = BTreeMap::new();
        for h in self.hostings.values().filter(|h| h.confirmed) {
            shed.entry(h.from).and_modify(|total| *total += h.amount).or_insert(h.amount);
        }
        let fits = |from: NodeId| match self.registry.get(&from).and_then(|r| r.last_stat) {
            Some((t, util, _)) => {
                now_ms.saturating_sub(t) <= self.keepalive_timeout_ms
                    && util + shed[&from] <= self.cfg.c_max
            }
            None => false,
        };
        self.hostings.iter().filter(|(_, h)| h.confirmed && fits(h.from)).map(|(r, _)| *r).collect()
    }

    /// Choose a replica destination for the `amount` that `from` shed onto
    /// `failed`, and the route to it with its `Σ 1/Lu_e`: among the
    /// capable nodes whose last STAT is fresh (a stale record is presumed
    /// dead), whose load plus what they already host plus `amount` stays
    /// within `CO_max`, and which `from` reaches within the hop bound, the
    /// least loaded, the lowest id on a tie. A registrant the topology
    /// does not have has no route, so it is never a candidate (a snapshot
    /// ([`Manager::snapshot`]) leaves such registrants out too). The DP
    /// runs in the engine's route scratch.
    fn pick_replacement(
        &mut self,
        now_ms: u64,
        failed: NodeId,
        from: NodeId,
        amount: f64,
    ) -> Option<(NodeId, f64, Path)> {
        // what each destination hosts, summed once over the ledger in
        // request-id order — the terms and the order a per-node rescan adds
        let mut committed: BTreeMap<NodeId, f64> = BTreeMap::new();
        for h in self.hostings.values() {
            committed.entry(h.to).and_modify(|total| *total += h.amount).or_insert(h.amount);
        }
        let nodes = self.graph.node_count();
        let fitting: Vec<(NodeId, f64)> = self
            .registry
            .iter()
            .filter(|(n, rec)| n.index() < nodes && *n != failed && rec.capable)
            .filter_map(|(n, rec)| rec.last_stat.map(|(t, u, _)| (n, t, u)))
            .filter(|(_, t, _)| now_ms.saturating_sub(*t) <= self.keepalive_timeout_ms)
            .map(|(n, _, u)| (n, u + committed.get(&n).copied().unwrap_or(0.0)))
            .filter(|(_, load)| load + amount <= self.cfg.co_max)
            .collect();
        let dests: Vec<NodeId> = fitting.iter().map(|&(n, _)| n).collect();
        let mut scratch = self.engine.route_scratch(&self.graph);
        scratch.run_to(from, &dests, self.cfg.max_hop);
        let (replica, _) = fitting
            .into_iter()
            .filter(|&(n, _)| scratch.cost_to(n).is_some())
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))?;
        let (inv_lu, route) = scratch.route_to(replica)?;
        Some((replica, inv_lu, route))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dust_topology::{topologies, EdgeId, Link};

    fn manager_on_line(n: usize) -> Manager {
        Manager::new(
            topologies::line(n, Link::default()),
            DustConfig::paper_defaults(),
            SolverBackend::Transportation,
            1000,
            3000,
        )
        .unwrap()
    }

    fn register_and_stat(m: &mut Manager, node: NodeId, util: f64) {
        let acks = m.handle(0, &ClientMsg::OffloadCapable { node, capable: true });
        assert_eq!(acks.len(), 1);
        m.handle(0, &ClientMsg::Stat { node, utilization: util, data_mb: 50.0 });
    }

    fn first_request(msgs: &[Envelope<ManagerMsg>]) -> RequestId {
        match &msgs[0].msg {
            ManagerMsg::OffloadRequest { request, .. } => *request,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn registration_gets_ack_with_interval() {
        let mut m = manager_on_line(2);
        let out = m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(0), capable: true });
        assert_eq!(out[0].to, NodeId(0));
        assert_eq!(out[0].msg, ManagerMsg::Ack { update_interval_ms: 1000 });
    }

    #[test]
    fn duplicate_registration_keeps_stat_history() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 42.0);
        // retransmitted registration (the client never saw the ACK)
        let out = m.handle(500, &ClientMsg::OffloadCapable { node: NodeId(0), capable: true });
        assert_eq!(out.len(), 1, "must re-ACK");
        let rec = m.registry()[&NodeId(0)];
        assert!(rec.last_stat.is_some(), "STAT history must survive re-registration");
    }

    #[test]
    fn snapshot_reflects_stats_and_ignorance() {
        let mut m = manager_on_line(3);
        register_and_stat(&mut m, NodeId(0), 90.0);
        // node 1 registered but silent; node 2 never registered
        m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(1), capable: true });
        let db = m.snapshot();
        assert_eq!(db.state(NodeId(0)).utilization, 90.0);
        assert!(!db.state(NodeId(1)).offload_capable, "silent node must not be placed on");
        assert!(!db.state(NodeId(2)).offload_capable);
    }

    #[test]
    fn placement_emits_offload_requests() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        assert_eq!(m.snapshot().busy_nodes(&m.cfg), [NodeId(0)]);
        let (placement, msgs) = m.run_placement(100);
        assert_eq!(placement.status, PlacementStatus::Optimal);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].to, NodeId(1));
        match &msgs[0].msg {
            ManagerMsg::OffloadRequest { from, amount, .. } => {
                assert_eq!(*from, NodeId(0));
                assert!((amount - 10.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.hostings().len(), 1);
        assert!(!m.hostings().values().next().unwrap().confirmed);
    }

    #[test]
    fn a_failed_solve_is_folded_into_infeasible_but_counted_by_kind() {
        let mut m = manager_on_line(2);
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        // a config `Manager::new` would have refused: every solve fails
        m.cfg.max_hop = Some(0);
        let (placement, msgs) = m.run_placement(100);
        assert_eq!(placement.status, PlacementStatus::Infeasible);
        assert!(msgs.is_empty() && m.hostings().is_empty());
        assert_eq!(obs.counter("proto.solve_errors"), 1);
        assert_eq!(obs.counter("proto.solve_errors.bad_config"), 1);
        assert_eq!(obs.counter("proto.solve_errors.iteration_limit"), 0);
        assert_eq!(obs.counter("proto.solve_errors.infeasible"), 0);
        let trace = obs.trace_snapshot().unwrap();
        let event = TraceEvent::SolveError { round: 0, kind: "bad_config" };
        assert!(trace.entries().iter().any(|e| e.t_ms == 100 && e.event == event));
        // a solve that merely finds no room is not an error
        m.cfg.max_hop = DustConfig::paper_defaults().max_hop;
        m.handle(150, &ClientMsg::Stat { node: NodeId(1), utilization: 79.0, data_mb: 50.0 });
        let (placement, _) = m.run_placement(200);
        assert_eq!(placement.status, PlacementStatus::Infeasible);
        assert_eq!(obs.counter("proto.solve_errors"), 1);
    }

    #[test]
    fn placement_skips_in_flight_offers() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(100);
        assert_eq!(msgs.len(), 1);
        // same round again while the first offer is still unconfirmed:
        // no duplicate offer for the same (from, to) pair
        let (_, msgs2) = m.run_placement(200);
        assert!(msgs2.is_empty(), "{msgs2:?}");
        assert_eq!(m.hostings().len(), 1);
    }

    #[test]
    fn unconfirmed_offer_retransmits_then_abandons() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        // before the offer timeout (2 × update interval): silence
        assert!(m.tick(1_000).is_empty());
        // past it: the same request id is retransmitted
        let mut now = 2_000u64;
        let out = m.tick(now);
        assert_eq!(out.len(), 1);
        assert_eq!(first_request(&out), req, "retry reuses the request id");
        assert_eq!(m.offer_retries(), 1);
        // keep the destination silent through every backoff stage
        let mut retries = 1;
        while m.hostings().contains_key(&req) {
            now += 40_000; // beyond any backoff stage
            let out = m.tick(now);
            if m.hostings().contains_key(&req) {
                assert_eq!(first_request(&out), req);
                retries += 1;
            } else {
                // abandoned: a clean-up Release goes to the destination
                assert!(matches!(out[0].msg, ManagerMsg::Release { request } if request == req));
            }
        }
        assert_eq!(retries, MAX_OFFER_ATTEMPTS - 1, "retries beyond the original send");
        assert_eq!(m.offers_abandoned(), 1);
        assert!(m.hostings().is_empty(), "no zombie unconfirmed hosting may leak");
    }

    #[test]
    fn ack_confirms_hosting_and_refusal_drops_it() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(100);
        let req = first_request(&msgs);
        m.handle(150, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        assert!(m.hostings()[&req].confirmed);

        // a refusal on a fresh round drops the arrangement
        register_and_stat(&mut m, NodeId(0), 95.0);
        let (_, msgs2) = m.run_placement(200);
        let req2 = first_request(&msgs2);
        m.handle(250, &ClientMsg::OffloadAck { node: NodeId(1), request: req2, accept: false });
        assert!(!m.hostings().contains_key(&req2));
    }

    #[test]
    fn ack_from_wrong_sender_is_ignored() {
        let mut m = manager_on_line(3);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 30.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        let dest = msgs[0].to;
        let impostor = if dest == NodeId(2) { NodeId(1) } else { NodeId(2) };
        // an accept from the wrong node must not confirm the hosting …
        m.handle(10, &ClientMsg::OffloadAck { node: impostor, request: req, accept: true });
        assert!(!m.hostings()[&req].confirmed);
        // … and a refusal from the wrong node must not drop it
        m.handle(20, &ClientMsg::OffloadAck { node: impostor, request: req, accept: false });
        assert!(m.hostings().contains_key(&req));
        // the real destination still closes the handshake
        m.handle(30, &ClientMsg::OffloadAck { node: dest, request: req, accept: true });
        assert!(m.hostings()[&req].confirmed);
    }

    #[test]
    fn stray_accept_for_unknown_request_draws_release() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        let out = m.handle(
            10,
            &ClientMsg::OffloadAck { node: NodeId(1), request: RequestId(999), accept: true },
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(1));
        assert_eq!(out[0].msg, ManagerMsg::Release { request: RequestId(999) });
        // a stray refusal draws nothing
        let out = m.handle(
            20,
            &ClientMsg::OffloadAck { node: NodeId(1), request: RequestId(998), accept: false },
        );
        assert!(out.is_empty());
    }

    #[test]
    fn keepalive_timeout_triggers_rep_with_volume_and_route() {
        let mut m = manager_on_line(4);
        register_and_stat(&mut m, NodeId(0), 90.0); // busy
        register_and_stat(&mut m, NodeId(1), 20.0); // destination of both
        register_and_stat(&mut m, NodeId(3), 90.0); // busy
        let (_, msgs) = m.run_placement(0);
        assert_eq!(msgs.len(), 2);
        for offer in &msgs {
            assert_eq!(offer.to, NodeId(1));
            let ManagerMsg::OffloadRequest { request, .. } = offer.msg else { panic!("{msgs:?}") };
            m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request, accept: true });
        }
        register_and_stat(&mut m, NodeId(2), 10.0); // future replica
        m.handle(500, &ClientMsg::Keepalive { node: NodeId(1) });
        // within timeout: nothing
        assert!(m.tick(2000).is_empty());
        // keep node 2's STAT fresh so it qualifies as the replica
        m.handle(3500, &ClientMsg::Stat { node: NodeId(2), utilization: 10.0, data_mb: 50.0 });
        // silent past the 3000ms timeout → one REP to node 2 per hosted
        // flow, in request-id order
        let out = m.tick(4000);
        assert_eq!(out.len(), 2, "{out:?}");
        for (i, (rep, busy)) in out.iter().zip([NodeId(0), NodeId(3)]).enumerate() {
            assert_eq!(rep.to, NodeId(2));
            match &rep.msg {
                ManagerMsg::Rep { request, failed, from, amount, data_mb, route } => {
                    assert_eq!(*request, RequestId(3 + i as u64));
                    assert_eq!(*failed, NodeId(1));
                    assert_eq!(*from, busy);
                    assert!((amount - 10.0).abs() < 1e-6);
                    assert_eq!(*data_mb, 50.0, "REP must carry the telemetry volume");
                    let route = route.as_ref().expect("REP must carry a fresh route");
                    assert_eq!(route.nodes.first(), Some(&busy));
                    assert_eq!(route.nodes.last(), Some(&NodeId(2)));
                }
                other => panic!("{other:?}"),
            }
        }
        // both hostings re-homed to node 2
        assert_eq!(m.hostings().values().filter(|h| h.to == NodeId(2)).count(), 2);
        assert!(!m.hostings().values().any(|h| h.to == NodeId(1)));
    }

    #[test]
    fn a_replica_is_never_picked_off_the_fabric() {
        let mut m = manager_on_line(4);
        register_and_stat(&mut m, NodeId(0), 90.0); // busy
        register_and_stat(&mut m, NodeId(1), 20.0); // destination
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        m.handle(500, &ClientMsg::Keepalive { node: NodeId(1) });
        // a node the topology does not have reports the lightest load; a
        // real one reports a little more
        register_and_stat(&mut m, NodeId(99), 1.0);
        register_and_stat(&mut m, NodeId(2), 10.0);
        m.handle(4000, &ClientMsg::Stat { node: NodeId(99), utilization: 1.0, data_mb: 50.0 });
        m.handle(4000, &ClientMsg::Stat { node: NodeId(2), utilization: 10.0, data_mb: 50.0 });
        // node 1 is silent past the timeout: the REP (and its route) goes
        // to the lightest node on the fabric
        let out = m.tick(4500);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(2));
        assert!(matches!(&out[0].msg, ManagerMsg::Rep { route: Some(_), .. }), "{:?}", out[0]);
    }

    #[test]
    fn a_replica_out_of_hop_reach_is_never_picked() {
        // line 0-1-2-3-4 under a two-hop bound: node 4, the lightest
        // replica, is four hops from the busy node 0; node 2 is two
        let cfg = DustConfig::paper_defaults().with_max_hop(Some(2));
        let g = topologies::line(5, Link::default());
        let mut m = Manager::new(g, cfg, SolverBackend::Transportation, 1000, 3000).unwrap();
        register_and_stat(&mut m, NodeId(0), 90.0); // busy
        register_and_stat(&mut m, NodeId(1), 20.0); // destination
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        m.handle(500, &ClientMsg::Keepalive { node: NodeId(1) });
        register_and_stat(&mut m, NodeId(4), 1.0);
        register_and_stat(&mut m, NodeId(2), 30.0);
        m.handle(3500, &ClientMsg::Stat { node: NodeId(4), utilization: 1.0, data_mb: 50.0 });
        m.handle(3500, &ClientMsg::Stat { node: NodeId(2), utilization: 30.0, data_mb: 50.0 });
        // node 1 is silent past the timeout: the REP goes to the lightest
        // replica node 0 reaches, with a route and a finite baseline
        let out = m.tick(4000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(2));
        match &out[0].msg {
            ManagerMsg::Rep { route: Some(route), .. } => {
                assert_eq!(route.nodes, [NodeId(0), NodeId(1), NodeId(2)]);
            }
            other => panic!("{other:?}"),
        }
        let h = m.hostings().values().find(|h| h.to == NodeId(2)).expect("re-homed to node 2");
        assert!(h.t_rmin.is_finite(), "a REP's baseline is its route's T_rmin");
        // with node 2 gone too, nothing in reach fits: the owner takes the
        // workload back rather than a REP to node 4 without a route
        m.handle(4010, &ClientMsg::OffloadCapable { node: NodeId(2), capable: false });
        let rep = m.hostings().keys().copied().find(|r| m.hostings()[r].to == NodeId(2)).unwrap();
        m.handle(4020, &ClientMsg::OffloadAck { node: NodeId(2), request: rep, accept: true });
        m.handle(7900, &ClientMsg::Stat { node: NodeId(4), utilization: 1.0, data_mb: 50.0 });
        let out = m.tick(8000);
        assert!(out.iter().all(|e| !matches!(e.msg, ManagerMsg::Rep { .. })), "{out:?}");
        assert_eq!(m.orphaned().len(), 1);
    }

    #[test]
    fn orphaned_when_no_replacement_fits() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        // only possible replacement is the busy node itself at 90% — no fit:
        // the hosting is orphaned and the owner is told to reclaim locally
        let out = m.tick(10_000);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(0));
        assert_eq!(out[0].msg, ManagerMsg::Release { request: req });
        assert_eq!(m.orphaned().len(), 1);
        assert!(m.hostings().is_empty());
    }

    #[test]
    fn release_when_busy_node_recovers() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        m.handle(20, &ClientMsg::Keepalive { node: NodeId(1) });
        // busy node now reports 60%: 60 + 10 hosted = 70 <= c_max (80) → release
        m.handle(1000, &ClientMsg::Stat { node: NodeId(0), utilization: 60.0, data_mb: 50.0 });
        let out = m.tick(1100);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId(1));
        assert_eq!(out[0].msg, ManagerMsg::Release { request: req });
        assert!(m.hostings().is_empty());
    }

    #[test]
    fn releases_retransmit_with_backoff_then_stop() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        m.handle(20, &ClientMsg::Keepalive { node: NodeId(1) });
        m.handle(1000, &ClientMsg::Stat { node: NodeId(0), utilization: 60.0, data_mb: 50.0 });
        assert_eq!(m.tick(1100).len(), 1); // the Release itself
        assert_eq!(m.releases.keys().copied().collect::<Vec<_>>(), vec![req]);
        // the Release keeps retransmitting with backoff until the cap
        let mut copies = 0;
        let mut now = 1100u64;
        while !m.releases.is_empty() {
            now += 40_000;
            // refresh node 0's STAT so the loop only exercises retransmits
            m.handle(now, &ClientMsg::Stat { node: NodeId(0), utilization: 60.0, data_mb: 50.0 });
            copies += m
                .tick(now)
                .iter()
                .filter(|e| matches!(e.msg, ManagerMsg::Release { request } if request == req))
                .count();
        }
        assert_eq!(copies, (MAX_RELEASE_ATTEMPTS - 1) as usize);
    }

    #[test]
    fn no_release_while_demand_still_high() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        m.handle(20, &ClientMsg::Keepalive { node: NodeId(1) });
        // post-offload STAT shows 80 (= c_max): 80 + 10 > 80 → keep hosting
        m.handle(1000, &ClientMsg::Stat { node: NodeId(0), utilization: 80.0, data_mb: 50.0 });
        assert!(m.tick(1100).is_empty());
        assert_eq!(m.hostings().len(), 1);
    }

    #[test]
    fn no_reclaim_off_stale_stat() {
        let mut m = manager_on_line(2);
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        // node 0 recovers… then dies. Its last STAT (60%) goes stale.
        m.handle(1000, &ClientMsg::Stat { node: NodeId(0), utilization: 60.0, data_mb: 50.0 });
        // keep the destination's keepalives flowing so only staleness matters
        m.handle(8000, &ClientMsg::Keepalive { node: NodeId(1) });
        // 8s later the 60% reading is far older than the keepalive timeout:
        // the reclaim path must NOT fire a Release off it
        let out = m.tick(9000);
        assert!(
            !out.iter().any(|e| matches!(e.msg, ManagerMsg::Release { .. })),
            "stale STAT fired a Release: {out:?}"
        );
        assert_eq!(m.hostings().len(), 1);
    }

    #[test]
    fn non_capable_registration_excluded_from_placement() {
        let mut m = manager_on_line(2);
        m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(0), capable: true });
        m.handle(0, &ClientMsg::Stat { node: NodeId(0), utilization: 90.0, data_mb: 10.0 });
        m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(1), capable: false });
        m.handle(0, &ClientMsg::Stat { node: NodeId(1), utilization: 10.0, data_mb: 10.0 });
        let (placement, msgs) = m.run_placement(10);
        assert_eq!(placement.status, PlacementStatus::Infeasible, "no willing destination");
        assert!(msgs.is_empty());
    }

    // ---- one topology, shared copy-on-write --------------------------------

    #[test]
    fn a_snapshot_shares_the_topology_until_the_manager_writes() {
        let (mut m, e1, _) = churn_manager();
        assert!(m.graph().journal_is_empty(), "`new` drained the construction-time flag");
        let before = m.snapshot();
        assert!(Arc::ptr_eq(&before.graph, m.graph()));
        // a quiet round has nothing to drain, so it must not copy either
        register_and_stat(&mut m, NodeId(0), 20.0);
        m.run_placement(0);
        assert!(Arc::ptr_eq(&before.graph, m.graph()));

        let (old_epoch, old_util) = (before.graph.epoch(), before.graph.edge(e1).link.utilization);
        m.graph_mut().link_mut(e1).utilization = 0.123;
        assert!(!Arc::ptr_eq(&before.graph, m.graph()), "the write split them");
        assert_eq!(before.graph.epoch(), old_epoch);
        assert_eq!(before.graph.edge(e1).link.utilization, old_util);
        assert_ne!(m.graph().epoch(), old_epoch);
        assert_eq!(m.graph().edge(e1).link.utilization, 0.123);
        // the copy is the Manager's alone: writing again copies nothing
        let after = Arc::as_ptr(m.graph());
        drop(before);
        m.graph_mut().link_mut(e1).utilization = 0.5;
        m.run_placement(1000); // drains the journal in place
        assert_eq!(Arc::as_ptr(m.graph()), after);
        assert!(m.graph().journal_is_empty());
        assert!(Arc::ptr_eq(&m.snapshot().graph, m.graph()));
    }

    #[test]
    fn a_cloned_manager_that_drifts_a_link_leaves_the_original_alone() {
        let (template, e1, e2) = churn_manager();
        let mut slice = template.clone();
        assert!(Arc::ptr_eq(template.graph(), slice.graph()));
        let (epoch, u1) = (template.graph().epoch(), template.graph().edge(e1).link.utilization);
        slice.graph_mut().link_mut(e1).utilization = 0.001;
        slice
            .graph_mut()
            .retarget_utilization(|e, old| if e == e2 { 0.9 } else { old.link.utilization });
        assert!(!Arc::ptr_eq(template.graph(), slice.graph()));
        assert_eq!(template.graph().epoch(), epoch);
        assert_eq!(template.graph().edge(e1).link.utilization, u1);
        assert!(template.graph().journal_is_empty(), "the clone's journal is its own");
        assert_eq!(slice.graph().edge(e1).link.utilization, 0.001);
        assert_eq!(slice.graph().edge(e2).link.utilization, 0.9);
    }

    /// A Manager on an 8-node line at hop 2 that has run one round: node 0
    /// Busy at 95 %, nodes 1–2 candidates at 20 %, the rest Neutral.
    fn priced_line_manager() -> (Manager, DustConfig) {
        let cfg = DustConfig::paper_defaults().with_max_hop(Some(2));
        let g = topologies::line(8, Link::new(1000.0, 0.5));
        let mut m = Manager::new(g, cfg, SolverBackend::Transportation, 1000, 3000).unwrap();
        for n in 0..8 {
            let util = match n {
                0 => 95.0,
                1 | 2 => 20.0,
                _ => 60.0,
            };
            register_and_stat(&mut m, NodeId(n), util);
        }
        m.run_placement(0);
        (m, cfg)
    }

    #[test]
    fn a_cloned_manager_prices_with_its_own_links() {
        let (mut original, cfg) = priced_line_manager();
        let mut clone = original.clone();
        // the original drifts the Busy node's only link; the clone drifts
        // one outside that row's hop cone
        original.graph_mut().link_mut(EdgeId(0)).utilization = 0.05;
        clone.graph_mut().link_mut(EdgeId(6)).utilization = 0.9;
        for m in [&mut original, &mut clone] {
            let (p, _) = m.run_placement(1000);
            let fresh = optimize_with(&m.snapshot(), &cfg, &mut CostEngine::new(), None).unwrap();
            assert_eq!(p.status, PlacementStatus::Optimal);
            assert_eq!(p.beta.to_bits(), fresh.beta.to_bits(), "{} vs {}", p.beta, fresh.beta);
        }
    }

    #[test]
    fn a_clone_given_a_handle_prices_cold_and_leaves_the_original_warm() {
        let (mut original, _) = priced_line_manager();
        let original_obs = ObsHandle::recording(0);
        original.set_obs(original_obs.clone());
        original.run_placement(1000);
        let mut clone = original.clone();
        let obs = ObsHandle::recording(0);
        clone.set_obs(obs.clone());
        clone.run_placement(2000);
        assert_eq!(obs.counter("cost.cache_hits"), 0);
        assert!(obs.counter("cost.rows_priced") > 0);
        assert_eq!(obs.counter("cost.cache_misses"), obs.counter("cost.rows_priced"));
        let priced = original_obs.counter("cost.rows_priced");
        original.run_placement(2000);
        assert_eq!(original_obs.counter("cost.rows_priced"), priced, "the original stays warm");
    }

    #[test]
    fn a_graph_someone_else_holds_is_copied_at_the_first_drain_not_before() {
        let shared = Arc::new(topologies::line(3, Link::default()));
        let mut m = Manager::new(
            Arc::clone(&shared),
            DustConfig::paper_defaults(),
            SolverBackend::Transportation,
            1000,
            3000,
        )
        .unwrap();
        assert!(Arc::ptr_eq(&shared, m.graph()));
        assert!(!shared.journal_is_empty(), "not the Manager's to drain");
        m.run_placement(0);
        assert!(!Arc::ptr_eq(&shared, m.graph()));
        assert!(!shared.journal_is_empty() && m.graph().journal_is_empty());
    }

    // ---- the client registry ----

    #[test]
    fn registrants_past_the_graph_never_size_the_registry() {
        let strangers = [NodeId(u32::MAX), NodeId(4), NodeId(5), NodeId(1_000)];
        let mut m = manager_on_line(4);
        for n in strangers {
            register_and_stat(&mut m, n, 99.0);
        }
        register_and_stat(&mut m, NodeId(2), 10.0);
        let reg = m.registry();
        assert_eq!(reg.dense.len(), m.graph().node_count(), "one slot per graph node");
        assert_eq!(reg.len(), 5);
        let ids: Vec<NodeId> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(ids, [NodeId(2), NodeId(4), NodeId(5), NodeId(1_000), NodeId(u32::MAX)]);
        assert!(reg.contains_key(&NodeId(u32::MAX)) && !reg.contains_key(&NodeId(3)));
        assert_eq!(reg[&NodeId(u32::MAX)].last_stat.map(|s| s.1), Some(99.0));
        let db = m.snapshot();
        assert_eq!(db.states.len(), 4, "a snapshot holds the graph's nodes only");
        assert!(db.busy_nodes(&m.cfg).is_empty(), "a Busy registrant off the graph is not Busy");

        // idle strangers are never a replica, however much room they have
        let mut m = manager_on_line(4);
        for n in strangers {
            register_and_stat(&mut m, n, 0.0);
        }
        let pick = |m: &mut Manager| m.pick_replacement(0, NodeId(1), NodeId(0), 5.0).map(|r| r.0);
        assert_eq!(pick(&mut m), None);
        register_and_stat(&mut m, NodeId(2), 40.0);
        assert_eq!(pick(&mut m), Some(NodeId(2)));
    }

    /// A record's fields, floats as bits.
    type Fields = (bool, Option<(u64, u64, u64)>, Option<u64>);

    fn fields(r: &ClientRecord) -> Fields {
        let stat = r.last_stat.map(|(t, u, d)| (t, u.to_bits(), d.to_bits()));
        (r.capable, stat, r.last_keepalive)
    }

    #[test]
    fn registry_matches_an_ordered_map_model() {
        use dust_topology::SplitMix64;
        // on a 6-node line: four ids on the graph, four past it
        let ids = [0, 2, 5, 1, 6, 7, 1_000, u32::MAX];
        for seed in 0..200 {
            let mut rng = SplitMix64::new(seed);
            let mut m = manager_on_line(6);
            let mut model: BTreeMap<NodeId, ClientRecord> = BTreeMap::new();
            for now in 0..64 {
                let node = NodeId(ids[rng.below(ids.len() as u64) as usize]);
                let msg = match rng.below(3) {
                    0 => {
                        let capable = rng.gen_bool(0.7);
                        let fresh = ClientRecord { capable, last_stat: None, last_keepalive: None };
                        model.entry(node).or_insert(fresh).capable = capable;
                        ClientMsg::OffloadCapable { node, capable }
                    }
                    1 => {
                        let (u, d) = (rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 80.0));
                        if let Some(rec) = model.get_mut(&node) {
                            rec.last_stat = Some((now, u, d));
                        }
                        ClientMsg::Stat { node, utilization: u, data_mb: d }
                    }
                    _ => {
                        if let Some(rec) = model.get_mut(&node) {
                            rec.last_keepalive = Some(now);
                        }
                        ClientMsg::Keepalive { node }
                    }
                };
                m.handle(now, &msg);
            }
            let reg = m.registry();
            let got: Vec<(NodeId, Fields)> = reg.iter().map(|(n, r)| (n, fields(r))).collect();
            let want: Vec<(NodeId, Fields)> = model.iter().map(|(n, r)| (*n, fields(r))).collect();
            assert_eq!(got, want, "seed {seed}");
            assert_eq!((reg.len(), reg.is_empty()), (model.len(), model.is_empty()), "seed {seed}");
            for n in ids.map(NodeId) {
                assert_eq!(reg.get(&n).map(fields), model.get(&n).map(fields), "seed {seed}");
            }
        }
    }

    // ---- what a snapshot sees ----

    #[test]
    fn a_snapshot_is_busy_only_for_a_capable_finite_stat_at_c_max() {
        let c_max = DustConfig::paper_defaults().c_max;
        // what a node can look like to the Manager; the first two are Busy
        type Kind<'a> = &'a dyn Fn(&mut Manager, NodeId);
        let kinds: [Kind; 10] = [
            &|m, n| register_and_stat(m, n, c_max), // exactly at the threshold
            &|m, n| register_and_stat(m, n, 150.0), // clamps to 100
            &|m, n| register_and_stat(m, n, c_max - 1e-9),
            &|m, n| register_and_stat(m, n, -5.0),
            &|m, n| register_and_stat(m, n, f64::NAN),
            &|m, n| register_and_stat(m, n, f64::INFINITY),
            &|m, n| {
                // a finite load beside a volume that is not
                m.handle(0, &ClientMsg::OffloadCapable { node: n, capable: true });
                m.handle(0, &ClientMsg::Stat { node: n, utilization: 95.0, data_mb: f64::NAN });
            },
            &|m, n| {
                // overloaded, but not taking part
                m.handle(0, &ClientMsg::OffloadCapable { node: n, capable: false });
                m.handle(0, &ClientMsg::Stat { node: n, utilization: 95.0, data_mb: 10.0 });
            },
            &|m, n| {
                // registered, never reported
                m.handle(0, &ClientMsg::OffloadCapable { node: n, capable: true });
            },
            &|_, _| {}, // never registered
        ];
        for (k, kind) in kinds.iter().enumerate() {
            let mut m = manager_on_line(1);
            kind(&mut m, NodeId(0));
            let busy = m.snapshot().busy_nodes(&m.cfg);
            assert_eq!(busy, if k < 2 { vec![NodeId(0)] } else { vec![] }, "kind {k}");
        }
    }

    // ---- the reclaim scan against what it replaced ----

    /// The reclaim scan as it was: every confirmed hosting re-sums the
    /// whole ledger for its source.
    fn reclaimable_by_rescan(m: &Manager, now_ms: u64) -> Vec<RequestId> {
        m.hostings
            .iter()
            .filter(|(_, h)| h.confirmed)
            .filter(|(_, h)| {
                let total_hosted_for: f64 = m
                    .hostings
                    .values()
                    .filter(|x| x.from == h.from && x.confirmed)
                    .map(|x| x.amount)
                    .sum();
                match m.registry.get(&h.from).and_then(|r| r.last_stat) {
                    Some((t, util, _)) => {
                        now_ms.saturating_sub(t) <= m.keepalive_timeout_ms
                            && util + total_hosted_for <= m.cfg.c_max
                    }
                    None => false,
                }
            })
            .map(|(r, _)| *r)
            .collect()
    }

    fn hosting(from: u32, to: u32, amount: f64, confirmed: bool, now_ms: u64) -> Hosting {
        Hosting {
            from: NodeId(from),
            to: NodeId(to),
            amount,
            confirmed,
            data_mb: 50.0,
            route: None,
            offered_ms: now_ms,
            attempts: 1,
            t_rmin: 1.0,
            rep_failed: None,
            orig_request: None,
        }
    }

    #[test]
    fn reclaim_sums_each_source_once_and_releases_what_the_rescan_did() {
        const NOW: u64 = 5_000;
        let mut m = manager_on_line(8);
        let c_max = m.cfg.c_max;
        // sources 0, 1, 2 shed 7.75 each over three flows (2.5 + 1.25 + 4,
        // exact in binary): with it added back source 0 lands just under
        // C_max, source 1 exactly on it, source 2 just over
        let shed = [2.5, 1.25, 4.0];
        for (src, util) in [(0, c_max - 7.75 - 1e-9), (1, c_max - 7.75), (2, c_max - 7.75 + 1e-9)] {
            m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(src), capable: true });
            let stat = ClientMsg::Stat { node: NodeId(src), utilization: util, data_mb: 50.0 };
            m.handle(NOW, &stat);
        }
        for dst in 3..8 {
            m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(dst), capable: true });
            m.handle(NOW, &ClientMsg::Stat { node: NodeId(dst), utilization: 20.0, data_mb: 1.0 });
            m.handle(NOW, &ClientMsg::Keepalive { node: NodeId(dst) });
        }
        // interleaved request ids, so ledger order is not source order
        let mut id = 0;
        for (flow, &amount) in shed.iter().enumerate() {
            for src in [2, 0, 1] {
                id += 1;
                m.hostings.insert(RequestId(id), hosting(src, 3 + flow as u32, amount, true, NOW));
            }
        }
        // an offer still in flight counts for nothing, wherever it sorts
        m.hostings.insert(RequestId(0), hosting(1, 6, 30.0, false, NOW));
        m.hostings.insert(RequestId(id + 1), hosting(0, 7, 30.0, false, NOW));
        m.next_request = id + 1;

        let want = reclaimable_by_rescan(&m, NOW);
        let of = |src: u32| -> Vec<RequestId> {
            m.hostings
                .iter()
                .filter(|(_, h)| h.confirmed && h.from == NodeId(src))
                .map(|(r, _)| *r)
                .collect()
        };
        let mut under_and_at = [of(0), of(1)].concat();
        under_and_at.sort();
        assert_eq!(want, under_and_at, "the oracle itself: under and exactly at, not over");
        assert_eq!(m.reclaimable(NOW), want);
        let released: Vec<(NodeId, RequestId)> = m
            .tick(NOW)
            .iter()
            .map(|e| match e.msg {
                ManagerMsg::Release { request } => (e.to, request),
                ref other => panic!("only reclaims are due: {other:?}"),
            })
            .collect();
        let to_of = |r: &RequestId| NodeId(3 + ((r.0 - 1) / 3) as u32);
        assert_eq!(released, want.iter().map(|r| (to_of(r), *r)).collect::<Vec<_>>());
        assert_eq!(
            m.hostings.values().filter(|h| h.confirmed).count(),
            3,
            "source 2 keeps its three"
        );
    }

    #[test]
    fn reclaim_matches_the_rescan_on_seeded_ledgers() {
        use dust_topology::SplitMix64;
        const NOW: u64 = 10_000;
        let mut reclaimed = 0;
        for seed in 0..60 {
            let mut rng = SplitMix64::new(0xEC1A ^ seed);
            let mut m = manager_on_line(12);
            for src in 0..6 {
                // source 5 never registers; the others report near the
                // threshold, some of them too long ago to act on
                if src < 5 {
                    m.handle(0, &ClientMsg::OffloadCapable { node: NodeId(src), capable: true });
                    let at = if rng.below(4) == 0 { NOW - 3_001 } else { NOW - rng.below(3_001) };
                    let utilization = rng.range_f64(60.0, 80.0);
                    m.handle(at, &ClientMsg::Stat { node: NodeId(src), utilization, data_mb: 5.0 });
                }
            }
            for id in 1..=rng.below(40) {
                let (from, to) = (rng.below(6) as u32, 6 + rng.below(6) as u32);
                let h = hosting(from, to, rng.range_f64(0.1, 6.0), rng.below(5) != 0, NOW);
                m.hostings.insert(RequestId(id), h);
            }
            let want = reclaimable_by_rescan(&m, NOW);
            assert_eq!(m.reclaimable(NOW), want, "seed {seed}");
            reclaimed += want.len();
        }
        assert!(reclaimed > 100, "the sweep reclaims: {reclaimed}");
    }

    /// A model of the `Release` retransmit pass on a bare ledger: a scan
    /// of every pending `Release`, in request-id order, for the ones due.
    /// Any due-time index that replaces the scan in `tick` must match it.
    fn retransmit_by_scan(
        releases: &mut BTreeMap<RequestId, ReleaseRetry>,
        base_ms: u64,
        now_ms: u64,
    ) -> Vec<(NodeId, RequestId)> {
        let due: Vec<RequestId> = releases
            .iter()
            .filter(|(_, r)| now_ms.saturating_sub(r.sent_ms) >= backoff(base_ms, r.attempts))
            .map(|(r, _)| *r)
            .collect();
        let mut out = Vec::new();
        for req in due {
            let r = releases.get_mut(&req).unwrap();
            if r.attempts >= MAX_RELEASE_ATTEMPTS {
                releases.remove(&req);
            } else {
                r.attempts += 1;
                r.sent_ms = now_ms;
                out.push((r.to, req));
            }
        }
        out
    }

    #[test]
    fn release_retransmits_match_the_scan_on_seeded_schedules() {
        use dust_topology::SplitMix64;
        let mut retransmitted = 0;
        for seed in 0..100 {
            let mut rng = SplitMix64::new(0x7E1E ^ seed);
            // some schedules change the backoff with Releases pending
            let mut m = manager_on_line(2);
            if seed % 4 == 3 {
                m = m.with_offer_timeout(700).unwrap();
            }
            let mut model = BTreeMap::new();
            let mut now = 0;
            for step in 0..120 {
                now += rng.below(900);
                if rng.below(3) == 0 {
                    // a fresh request id, or one already pending again
                    let req = RequestId(rng.below(40));
                    let to = NodeId(rng.below(2) as u32);
                    m.send_release(now, to, req);
                    model.insert(req, ReleaseRetry { to, sent_ms: now, attempts: 1 });
                }
                if step == 60 && seed % 4 == 3 {
                    m = m.with_offer_timeout(1500).unwrap();
                }
                let want = retransmit_by_scan(&mut model, m.offer_timeout_ms, now);
                let got: Vec<(NodeId, RequestId)> = m
                    .tick(now)
                    .iter()
                    .map(|e| match e.msg {
                        ManagerMsg::Release { request } => (e.to, request),
                        ref other => panic!("only Releases are due: {other:?}"),
                    })
                    .collect();
                assert_eq!(got, want, "seed {seed} step {step}");
                assert_eq!(m.releases, model, "seed {seed} step {step}");
                retransmitted += got.len();
            }
        }
        assert!(retransmitted > 1000, "the schedules retransmit: {retransmitted}");
    }

    // ---- warm-started and delta rounds -----------------------------------

    /// Busy hub 0 with two leaf candidates: 0—1 over a hot (cheap) link,
    /// 0—2 over a cold (expensive) one. Returns the manager plus both
    /// edge ids so tests can drift the links.
    fn churn_manager() -> (Manager, dust_topology::EdgeId, dust_topology::EdgeId) {
        let mut g = Graph::with_nodes(3);
        let e1 = g.add_edge(NodeId(0), NodeId(1), Link::new(10_000.0, 0.9));
        let e2 = g.add_edge(NodeId(0), NodeId(2), Link::new(10_000.0, 0.05));
        let m = Manager::new(
            g,
            DustConfig::paper_defaults(),
            SolverBackend::Transportation,
            1000,
            3000,
        )
        .unwrap();
        (m, e1, e2)
    }

    #[test]
    fn warm_start_reuses_bases_across_rounds() {
        let (m, _, _) = churn_manager();
        let mut m = m.with_warm_start(true);
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 92.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 20.0);
        let (p1, _) = m.run_placement(0);
        assert_eq!(p1.status, PlacementStatus::Optimal);
        assert!(!p1.warm_used, "nothing to reuse on the first round");
        let (p2, _) = m.run_placement(1000);
        assert!(p2.warm_used, "second round over an unchanged fleet must go warm");
        assert!((p2.beta - p1.beta).abs() <= 1e-9 * (1.0 + p1.beta.abs()));
        assert_eq!(obs.counter("lp.warm_solves"), 1);
        assert!(obs.counter("lp.pivots_saved") > 0);
    }

    #[test]
    fn delta_round_skips_the_full_solve_when_nothing_degraded() {
        let (m, _, _) = churn_manager();
        let mut m = m.with_delta_placement(0.25, 100).unwrap();
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 92.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 20.0);
        let (_, msgs) = m.run_placement(0); // round 0: full by cadence
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        let placements_before = obs.counter("core.placements");
        let (p, out) = m.run_placement(1000);
        assert_eq!(m.delta_rounds(), 1);
        assert_eq!(obs.counter("proto.delta_rounds"), 1);
        assert_eq!(p.status, PlacementStatus::Optimal);
        assert!(p.assignments.is_empty(), "healthy flows must not be re-homed");
        assert!(out.is_empty());
        assert_eq!(
            obs.counter("core.placements"),
            placements_before,
            "the full placement engine must stay cold on a healthy delta round"
        );
    }

    #[test]
    fn delta_round_rehomes_a_degraded_flow() {
        let (m, e1, e2) = churn_manager();
        let mut m = m.with_delta_placement(0.25, 100).unwrap();
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 92.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 20.0);
        let (p0, msgs) = m.run_placement(0);
        assert_eq!(p0.status, PlacementStatus::Optimal);
        assert_eq!(p0.assignments[0].to, NodeId(1), "hot link must win the full round");
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        // drift: the 0—1 link empties out (Lu collapses → cost explodes)
        // while 0—2 heats up and becomes the cheap route
        m.graph_mut().link_mut(e1).utilization = 0.001;
        m.graph_mut().link_mut(e2).utilization = 0.9;
        let (p, out) = m.run_placement(1000);
        assert_eq!(m.delta_rounds(), 1);
        assert_eq!(m.flows_rehomed(), 1);
        assert_eq!(obs.counter("proto.flows_rehomed"), 1);
        assert_eq!(p.assignments.len(), 1);
        assert_eq!(p.assignments[0].to, NodeId(2), "the flow must re-home to the hot link");
        assert!(
            out.iter().any(|e| matches!(e.msg, ManagerMsg::Release { request } if request == req)),
            "the degraded hosting must be released: {out:?}"
        );
        assert!(out
            .iter()
            .any(|e| e.to == NodeId(2) && matches!(e.msg, ManagerMsg::OffloadRequest { .. })));
        let trace = obs.trace_snapshot().unwrap();
        assert!(trace
            .entries()
            .iter()
            .any(|t| matches!(t.event, TraceEvent::Rehome { old_to: 1, new_to: 2, .. })));
        assert!(trace
            .entries()
            .iter()
            .any(|t| matches!(t.event, TraceEvent::DeltaRound { checked: 1, degraded: 1, .. })));
    }

    #[test]
    fn a_delta_round_sums_beta_over_the_rehomes_it_offers() {
        let (m, e1, e2) = churn_manager();
        let mut m = m.with_delta_placement(0.25, 100).unwrap();
        register_and_stat(&mut m, NodeId(0), 92.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 20.0);
        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        // an offer 0 → 2 still waits for its ACK when the drift makes 2
        // the residual's pick for the hosted flow
        m.hostings.insert(RequestId(99), hosting(0, 2, 12.0, false, 500));
        m.graph_mut().link_mut(e1).utilization = 0.001;
        m.graph_mut().link_mut(e2).utilization = 0.9;
        let (p, out) = m.run_placement(1000);
        assert_eq!(m.delta_rounds(), 1);
        assert!(
            out.iter().any(|e| matches!(e.msg, ManagerMsg::Release { request } if request == req)),
            "the degraded hosting is released: {out:?}"
        );
        assert!(p.assignments.is_empty(), "the pair in flight is not offered again");
        let listed = p.assignments.iter().fold(0.0, |beta, a| beta + a.amount * a.t_rmin);
        assert_eq!(p.beta.to_bits(), listed.to_bits(), "β {} counts what the round lists", p.beta);
    }

    #[test]
    fn delta_cadence_forces_periodic_full_rounds() {
        let (m, _, _) = churn_manager();
        let mut m = m.with_delta_placement(0.25, 2).unwrap().with_warm_start(true);
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 92.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 20.0);
        let (_, msgs) = m.run_placement(0); // round 0: full
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        m.run_placement(1000); // round 1: delta (1 % 2 != 0)
        m.run_placement(2000); // round 2: full by cadence, warm-started
        assert_eq!(m.placement_rounds(), 3);
        assert_eq!(m.delta_rounds(), 1);
        assert!(obs.counter("core.placements") >= 2, "cadence round must run the engine");
        assert_eq!(obs.counter("lp.warm_solves"), 1, "cadence full round reuses round 0's basis");
    }

    /// Run one placement round and return what it traced, the cost
    /// engine's and the solver's own events left out.
    fn round_events(
        m: &mut Manager,
        obs: &ObsHandle,
        now_ms: u64,
    ) -> (Placement, Vec<Envelope<ManagerMsg>>, Vec<TraceEvent>) {
        let seen = manager_events(obs).len();
        let (placement, out) = m.run_placement(now_ms);
        let events = manager_events(obs).split_off(seen);
        (placement, out, events)
    }

    /// The events a Manager traced: the cost engine's and the solver's
    /// own are left out.
    fn manager_events(obs: &ObsHandle) -> Vec<TraceEvent> {
        let trace = obs.trace_snapshot().unwrap();
        let events = trace.entries().iter().map(|e| e.event);
        let engine = |e: &TraceEvent| {
            matches!(
                e,
                TraceEvent::CacheHit { .. }
                    | TraceEvent::CacheMiss { .. }
                    | TraceEvent::MatrixBuilt { .. }
                    | TraceEvent::TransportSolve { .. }
            )
        };
        events.filter(|e| !engine(e)).collect()
    }

    #[test]
    fn a_round_traces_its_events_in_a_fixed_order() {
        // a full round with offers, then the same round with both still in
        // flight: nothing offered, every solved assignment still listed
        let mut m = manager_on_line(4);
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        for (node, util) in [(0, 90.0), (1, 20.0), (2, 20.0), (3, 90.0)] {
            register_and_stat(&mut m, NodeId(node), util);
        }
        let (_, out, events) = round_events(&mut m, &obs, 100);
        assert_eq!(out.len(), 2);
        let want = [
            TraceEvent::Offer { request: 1, from: 0, to: 1 },
            TraceEvent::Offer { request: 2, from: 3, to: 2 },
            TraceEvent::PlacementRound { round: 0, offers: 2 },
        ];
        assert_eq!(events, want);
        let (p, out, events) = round_events(&mut m, &obs, 200);
        assert!(out.is_empty(), "{out:?}");
        assert_eq!(events, [TraceEvent::PlacementRound { round: 1, offers: 0 }]);
        let pairs: Vec<(u32, u32)> = p.assignments.iter().map(|a| (a.from.0, a.to.0)).collect();
        assert_eq!(pairs, [(0, 1), (3, 2)], "a full round lists what it skipped");

        // a delta round that re-homes one degraded flow in two pieces
        let mut g = Graph::with_nodes(4);
        let e1 = g.add_edge(NodeId(0), NodeId(1), Link::new(10_000.0, 0.9));
        let e2 = g.add_edge(NodeId(0), NodeId(2), Link::new(10_000.0, 0.05));
        let e3 = g.add_edge(NodeId(0), NodeId(3), Link::new(10_000.0, 0.05));
        let cfg = DustConfig::paper_defaults();
        let m = Manager::new(g, cfg, SolverBackend::Transportation, 1000, 3000).unwrap();
        let mut m = m.with_delta_placement(0.25, 100).unwrap();
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        for (node, util) in [(0, 92.0), (1, 20.0), (2, 20.0), (3, 20.0)] {
            register_and_stat(&mut m, NodeId(node), util);
        }
        let (_, out, events) = round_events(&mut m, &obs, 0);
        let want = [
            TraceEvent::Offer { request: 1, from: 0, to: 1 },
            TraceEvent::PlacementRound { round: 0, offers: 1 },
        ];
        assert_eq!(events, want);
        let req = first_request(&out);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        // 0—1 empties out; 0—2 turns cheapest but has room for 7 of the
        // 12, and 0—3 takes the rest
        m.handle(500, &ClientMsg::Stat { node: NodeId(2), utilization: 43.0, data_mb: 50.0 });
        m.graph_mut().link_mut(e1).utilization = 0.001;
        m.graph_mut().link_mut(e2).utilization = 0.9;
        m.graph_mut().link_mut(e3).utilization = 0.5;
        let (p, out, events) = round_events(&mut m, &obs, 1000);
        assert_eq!(out.len(), 3);
        let want = [
            TraceEvent::DeltaRound { round: 1, checked: 1, degraded: 1 },
            TraceEvent::ReleaseSent { request: 1, to: 1 },
            TraceEvent::Rehome { request: 2, old: 1, from: 0, old_to: 1, new_to: 2 },
            TraceEvent::Offer { request: 2, from: 0, to: 2 },
            TraceEvent::Rehome { request: 3, old: 1, from: 0, old_to: 1, new_to: 3 },
            TraceEvent::Offer { request: 3, from: 0, to: 3 },
            TraceEvent::PlacementRound { round: 1, offers: 2 },
        ];
        assert_eq!(events, want);
        let pieces: Vec<(u32, f64)> = p.assignments.iter().map(|a| (a.to.0, a.amount)).collect();
        assert_eq!(pieces, [(2, 7.0), (3, 5.0)]);

        // a full round whose solve fails
        let mut m = manager_on_line(2);
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 90.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        m.cfg.max_hop = Some(0);
        let (p, out, events) = round_events(&mut m, &obs, 100);
        assert_eq!(p.status, PlacementStatus::Infeasible);
        assert!(out.is_empty(), "{out:?}");
        let want = [
            TraceEvent::SolveError { round: 0, kind: "bad_config" },
            TraceEvent::PlacementRound { round: 0, offers: 0 },
        ];
        assert_eq!(events, want);
    }

    /// A decision with its wall-clock durations zeroed, as text.
    fn timeless(mut decision: Decision) -> String {
        if let Decision::Full(Ok(p)) | Decision::Delta { placement: p, .. } = &mut decision {
            (p.cost_time, p.solve_time) = (Duration::ZERO, Duration::ZERO);
        }
        format!("{decision:?}")
    }

    /// Everything `decide` must leave alone, as text.
    fn ledger_and_counters(m: &Manager, obs: &ObsHandle) -> String {
        let metrics = obs.metrics().unwrap();
        let proto: Vec<_> =
            metrics.counters().filter(|(name, _)| name.starts_with("proto.")).collect();
        format!(
            "{:?} {:?} {} {:?} {} {} {} {proto:?} {:?}",
            m.hostings,
            m.releases,
            m.next_request,
            m.warm,
            m.placement_rounds,
            m.delta_rounds,
            m.flows_rehomed,
            manager_events(obs),
        )
    }

    #[test]
    fn deciding_twice_gives_one_decision_and_touches_no_ledger() {
        let (m, e1, e2) = churn_manager();
        let mut m = m.with_delta_placement(0.25, 100).unwrap().with_warm_start(true);
        let obs = ObsHandle::recording(0);
        m.set_obs(obs.clone());
        register_and_stat(&mut m, NodeId(0), 92.0);
        register_and_stat(&mut m, NodeId(1), 20.0);
        register_and_stat(&mut m, NodeId(2), 20.0);

        // round 0 is full by cadence
        let nmdb = m.snapshot();
        let before = ledger_and_counters(&m, &obs);
        let first = m.decide(&nmdb);
        assert!(matches!(first, Decision::Full(Ok(_))), "{first:?}");
        assert_eq!(timeless(first), timeless(m.decide(&nmdb)));
        assert_eq!(ledger_and_counters(&m, &obs), before);

        let (_, msgs) = m.run_placement(0);
        let req = first_request(&msgs);
        m.handle(10, &ClientMsg::OffloadAck { node: NodeId(1), request: req, accept: true });
        // round 1 re-homes the flow whose link emptied out
        m.graph_mut().link_mut(e1).utilization = 0.001;
        m.graph_mut().link_mut(e2).utilization = 0.9;
        let dirty = m.graph_mut().take_dirty();
        m.engine.refresh(&m.graph, dirty);
        let nmdb = m.snapshot();
        let before = ledger_and_counters(&m, &obs);
        let first = m.decide(&nmdb);
        match &first {
            Decision::Delta { checked: 1, degraded: 1, rehomes, .. } => {
                assert_eq!(rehomes.len(), 1, "{rehomes:?}");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(timeless(first), timeless(m.decide(&nmdb)));
        assert_eq!(ledger_and_counters(&m, &obs), before);
    }

    #[test]
    fn zero_timings_are_bad_configs() {
        for (update, keepalive, want) in [
            (0, 3000, "update interval must be positive"),
            (1000, 0, "keepalive timeout must be positive"),
        ] {
            let g = Graph::with_nodes(2);
            let cfg = DustConfig::paper_defaults();
            match Manager::new(g, cfg, SolverBackend::Transportation, update, keepalive) {
                Err(DustError::BadConfig(msg)) => assert_eq!(msg, want),
                other => panic!("({update}, {keepalive}) gave {:?}", other.map(|_| ())),
            }
        }
    }

    #[test]
    fn delta_knobs_reject_bad_configs() {
        let (m, _, _) = churn_manager();
        assert!(m.clone().with_delta_placement(-0.1, 4).is_err());
        assert!(m.clone().with_delta_placement(f64::NAN, 4).is_err());
        assert!(m.with_delta_placement(0.2, 0).is_err());
    }
}
