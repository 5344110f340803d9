//! End-to-end DUST simulation: protocol, placement, and resource model
//! wired onto the discrete-event engine.
//!
//! One [`Simulation`] owns the topology, a [`SimNode`] resource model and a
//! [`dust_proto::Client`] state machine per device, and a
//! [`dust_proto::Manager`]. Traffic evolves per the [`TrafficModel`],
//! clients report STATs, the Manager runs placement rounds, and accepted
//! offloads *physically move monitor agents* between nodes — so measured
//! CPU/memory series (recorded into a [`Federation`]) reproduce the Fig. 6
//! deltas mechanistically. Node failures can be injected to exercise the
//! keepalive → REP replica-substitution path (§III-C).
//!
//! Every control-plane envelope crosses the [`Transport`] fault gate
//! ([`SimBuilder::faults`](crate::SimBuilder::faults)): it may be
//! dropped, duplicated, or delayed with jitter, deterministically per
//! seed, under one [`FaultProfile`] for both directions. An ideal
//! profile delivers inline (identical to a direct call); any other routes
//! the copies through the event queue as `SimEvent::DeliverClient` /
//! `SimEvent::DeliverManager` events, so delayed copies interleave with
//! the periodic events exactly as wall-clock delivery would.
//!
//! This module holds the state and the per-event handlers; the loop that
//! pops the typed event sequence — `SimEvent::StatEmission`, offer
//! expiry/backoff maintenance, fault-injected delivery, transfer
//! completion, node kill/revive, and SLO evaluation — and dispatches it is
//! the event core in [`crate::event`], which batches telemetry cost
//! updates per event time and keeps hot per-node/per-flow state in arenas.
//! What a run leaves behind is pinned by the golden trace digests and the
//! per-run fingerprints in `tests/golden_trace.rs`.

use crate::engine::EventQueue;
use crate::node::SimNode;
use crate::traffic::TrafficModel;
use crate::transport::{FaultProfile, Transport};
use dust_core::{DustConfig, DustError};
use dust_obs::{ObsHandle, SloBreach, SloEngine, SloSpec, TraceEvent};
use dust_proto::{Client, ClientMsg, Envelope, Manager, ManagerMsg, RequestId, SolverBackend};
use dust_telemetry::{Federation, IntSampling};
use dust_topology::{EdgeId, Graph, NodeId, Path, SplitMix64};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

/// Continuous-churn parameters: seeded link-capacity and agent-rate
/// drift applied at a fixed cadence, so placement never reaches a
/// steady state and the Manager's incremental re-optimization path
/// (warm-started bases, dirty-row re-pricing, delta rounds) has real
/// work every round.
///
/// Link drift retunes `capacity_mbps` — not utilization, which the
/// traffic model owns and overwrites every STAT interval — on *both*
/// the physical graph and the Manager's pricing view, so telemetry
/// flows and `T_rmin` costs move together. Agent drift retunes the
/// per-packet sampling fraction of one seeded node's local agents,
/// shifting the data volume (`D_i`) its STATs report. A retuned link's
/// capacity is scaled by a factor drawn from `[0.7, 1.3]`; a retuned
/// sampling fraction is drawn from `[0.4, 1.0]`. Every draw comes from a
/// SplitMix64 keyed on `(seed, now)`, so a run is bit-identical across
/// repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Drift cadence, ms.
    pub period_ms: u64,
    /// Links whose capacity is retuned per tick.
    pub links_per_tick: usize,
    /// Nodes whose local agents' sampling fraction is retuned per tick.
    pub nodes_per_tick: usize,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig { period_ms: 4_000, links_per_tick: 2, nodes_per_tick: 1 }
    }
}

/// Maximum relative capacity change of a drifted link: the factor is
/// drawn from `[1 - swing, 1 + swing]`, so capacity never hits zero in
/// one step.
const DRIFT_CAPACITY_SWING: f64 = 0.3;

/// Lowest sampling fraction a drifted agent is retuned to.
const DRIFT_RATE_FLOOR: f64 = 0.4;

/// Relative `T_rmin` degradation past which a delta round re-homes a
/// flow ([`SimBuilder::incremental_placement`](crate::SimBuilder::incremental_placement)).
const DELTA_THRESHOLD: f64 = 0.10;

/// Every this-many-th round under incremental placement is a full solve.
const DELTA_FULL_EVERY: u64 = 8;

/// How often the Manager runs a placement round, ms.
const PLACEMENT_PERIOD_MS: u64 = 5_000;

/// STAT cadence handed out in ACKs, ms.
pub(crate) const UPDATE_INTERVAL_MS: u64 = 1_000;

/// Keepalive silence tolerated before replica substitution, ms.
const KEEPALIVE_TIMEOUT_MS: u64 = 4_000;

/// Simulation parameters: what [`Simulation::builder`] sets and validates
/// before a run starts.
#[derive(Debug, Clone)]
pub(crate) struct SimConfig {
    /// Placement thresholds and routing options.
    pub dust: DustConfig,
    /// Metric sampling cadence, ms.
    pub sample_period_ms: u64,
    /// Total simulated time, ms.
    pub duration_ms: u64,
    /// `false` runs the "local monitoring" baseline: the DUST control plane
    /// still gossips, but no placement rounds fire (Fig. 6's comparison).
    pub dust_enabled: bool,
    /// Per-link utilization jitter around the traffic model's base.
    pub link_jitter: f64,
    /// When `true`, an accepted Offload-Request moves the Busy node's
    /// *entire* local monitoring deployment instead of just the granted
    /// capacity budget — the semantics of the paper's testbed experiment
    /// (§V-A offloaded all ten agents; Fig. 6).
    pub full_monitoring_offload: bool,
    /// Fault model for the control plane, shared by both directions.
    /// [`FaultProfile::ideal`] reproduces the perfect wire.
    pub faults: FaultProfile,
    /// Run the correlated failure storm (cascading overload kills).
    pub storm: bool,
    /// Continuous link/agent churn, if any.
    pub drift: Option<DriftConfig>,
    /// Warm-start the Manager's solver and run delta rounds between
    /// periodic full solves ([`DELTA_THRESHOLD`], [`DELTA_FULL_EVERY`]).
    pub incremental_placement: bool,
    /// Master seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            dust: DustConfig::paper_defaults(),
            sample_period_ms: 1_000,
            duration_ms: 120_000,
            dust_enabled: true,
            link_jitter: 0.05,
            full_monitoring_offload: false,
            faults: FaultProfile::ideal(),
            storm: false,
            drift: None,
            incremental_placement: false,
            seed: 0,
        }
    }
}

/// The typed events driving a simulation run, processed in `(time, seq)`
/// order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SimEvent {
    /// The fleet's STAT emission point: every live client observes its
    /// node's resources and ticks its protocol machine (registration
    /// retransmits, STATs, keepalives).
    StatEmission,
    /// Manager timer maintenance: offer expiry/backoff retransmits,
    /// keepalive timeouts, replica substitution.
    OfferMaintenance,
    /// Manager placement round (solve + Offload-Requests).
    PlacementRound,
    /// Record metric samples and evaluate telemetry flow transport.
    TelemetrySample,
    /// Online SLO evaluation over the sample just recorded (scheduled
    /// only when an engine is attached).
    SloEvaluation,
    /// Apply one seeded churn step ([`SimBuilder::drift`](crate::SimBuilder::drift)): retune link
    /// capacities and agent sampling rates.
    DriftTick,
    /// Stop a node (crash): it stops sending anything.
    NodeKill(NodeId),
    /// Restart a dead node.
    NodeRevive(NodeId),
    /// A delayed Manager → client envelope reaches its destination
    /// (transfer completions ride this event: an accepted Offload-Request
    /// lands here and moves agents).
    DeliverClient(Envelope<ManagerMsg>),
    /// A delayed client → Manager message reaches the Manager.
    DeliverManager(ClientMsg),
}

impl SimEvent {
    /// Profiling scope name for this event kind (`dustctl profile`
    /// attributes self-time per kind under it).
    pub(crate) fn scope_name(&self) -> &'static str {
        match self {
            SimEvent::StatEmission => "sim.event.stat_emission",
            SimEvent::OfferMaintenance => "sim.event.offer_maintenance",
            SimEvent::PlacementRound => "sim.event.placement_round",
            SimEvent::TelemetrySample => "sim.event.telemetry_sample",
            SimEvent::SloEvaluation => "sim.event.slo_evaluation",
            SimEvent::DriftTick => "sim.event.drift_tick",
            SimEvent::NodeKill(_) => "sim.event.node_kill",
            SimEvent::NodeRevive(_) => "sim.event.node_revive",
            SimEvent::DeliverClient(_) => "sim.event.deliver_client",
            SimEvent::DeliverManager(_) => "sim.event.deliver_manager",
        }
    }
}

/// Names of the series a run records into [`SimReport::federation`] — the
/// one place the simulator and its readers take them from.
pub mod series {
    /// Device CPU, percent — every node, every sample.
    pub const DEVICE_CPU: &str = "device-cpu";
    /// Device memory, percent — every node, every sample.
    pub const DEVICE_MEM: &str = "device-mem";
    /// Monitoring CPU, percent of one core — every node, every sample.
    pub const MONITOR_CPU: &str = "monitor-cpu";
    /// Delivered telemetry rate, Mbps — on a flow's owner, at samples
    /// where the transfer is routed.
    pub const TELEMETRY_ADMITTED_MBPS: &str = "telemetry-admitted-mbps";
    /// Dropped telemetry fraction — beside
    /// [`TELEMETRY_ADMITTED_MBPS`], same samples.
    pub const TELEMETRY_DROPPED: &str = "telemetry-dropped";
}

/// Summary of a finished run.
#[derive(Debug)]
pub struct SimReport {
    /// Per-node metric series, named by [`series`]:
    /// [`series::DEVICE_CPU`], [`series::DEVICE_MEM`] and
    /// [`series::MONITOR_CPU`] on every node per
    /// [`SimBuilder::sample_period_ms`](crate::SimBuilder::sample_period_ms), plus
    /// [`series::TELEMETRY_ADMITTED_MBPS`] / [`series::TELEMETRY_DROPPED`]
    /// on the owner of each routed transfer.
    pub federation: Federation,
    /// Placement rounds that produced at least one Offload-Request.
    pub placements_with_assignments: usize,
    /// Offload transfers physically applied (accepted requests).
    pub transfers_applied: usize,
    /// REP replica substitutions applied.
    pub replicas_applied: usize,
    /// Hostings orphaned (destination died, no replacement fit).
    pub orphaned: usize,
    /// When the first transfer was physically applied, ms (None = never):
    /// under loss this measures convergence latency of the handshake.
    pub first_transfer_ms: Option<u64>,
    /// Envelopes that crossed the fault gate (ideal directions bypass it).
    pub msgs_sent: u64,
    /// Envelopes the fault gate dropped.
    pub msgs_dropped: u64,
    /// Extra copies the fault gate injected.
    pub msgs_duplicated: u64,
    /// Offer retransmissions the Manager performed.
    pub offer_retries: u64,
    /// Offers the Manager abandoned after exhausting retries.
    pub offers_abandoned: u64,
    /// Final simulated time, ms.
    pub end_ms: u64,
    /// Units of simulation work processed: queue events popped plus
    /// messages delivered inline on an ideal wire. A pure function of the
    /// configuration — a determinism cross-check and the denominator of
    /// the benchmark's events/sec (`fleet_sim_k90`).
    pub events_processed: u64,
    /// Peak number of pending events observed in the queue.
    pub peak_queue_len: usize,
    /// Placement rounds the Manager executed.
    pub placement_rounds: u64,
}

impl SimReport {
    /// Mean of a node's recorded series over `[start, end)`.
    pub fn mean(&self, node: NodeId, series: &str, start_ms: u64, end_ms: u64) -> Option<f64> {
        self.federation.store(node)?.series(series)?.mean(start_ms, end_ms)
    }

    /// Maximum of a node's recorded series over `[start, end)`.
    pub fn max(&self, node: NodeId, series: &str, start_ms: u64, end_ms: u64) -> Option<f64> {
        self.federation.store(node)?.series(series)?.max(start_ms, end_ms)
    }
}

/// One accepted transfer tracked by the simulation.
#[derive(Debug, Clone)]
pub(crate) struct Transfer {
    pub(crate) owner: NodeId,
    pub(crate) host: NodeId,
    /// Route from the Offload-Request or REP.
    pub(crate) route: Option<Path>,
    /// Telemetry volume shipped per update interval, Mb.
    pub(crate) data_mb: f64,
}

/// The wired-up simulation.
#[derive(Debug)]
pub struct Simulation {
    /// The physical fabric: ground truth for telemetry-flow evaluation.
    /// Starts as the very `Arc` the Manager prices from; the first write
    /// on either side (`Arc::make_mut`) gives that side its own copy, so
    /// a fleet nobody writes to keeps one topology in memory.
    pub(crate) graph: Arc<Graph>,
    pub(crate) nodes: Vec<SimNode>,
    pub(crate) clients: Vec<Client>,
    pub(crate) manager: Manager,
    pub(crate) traffic: TrafficModel,
    pub(crate) transport: Transport,
    pub(crate) cfg: SimConfig,
    /// `alive[i]`: node `i` is up (not killed, or revived since).
    pub(crate) alive: Vec<bool>,
    /// Accepted transfers by request id. A `BTreeMap` so iteration order
    /// (flow evaluation, stale-transfer supersede traces) is a pure
    /// function of contents — identical across runs.
    pub(crate) active: BTreeMap<RequestId, Transfer>,
    /// Bumped whenever `active` changes; the event core's flow arena
    /// rebuilds only when this moves.
    pub(crate) active_version: u64,
    /// Bumped whenever [`Simulation::node_mut`] hands out a node, the one
    /// door to a node's agent lists during a run; the event core re-keys
    /// its sample slots only when this moves.
    pub(crate) agents_version: u64,
    /// Failure injections: `(when_ms, node)`.
    pub(crate) kills: Vec<(u64, NodeId)>,
    /// Revival injections.
    pub(crate) revives: Vec<(u64, NodeId)>,
    /// Nodes the failure storm has already cascaded (each at most once).
    pub(crate) storm_triggered: HashSet<NodeId>,
    /// Observability sink shared with the Manager and every client
    /// (no-op by default).
    pub(crate) obs: ObsHandle,
    /// Online SLO engine, fed from the event loop (none by default).
    /// A pure observer: it reads Manager counters and node samples but
    /// never feeds back, so a run is bit-identical with or without it.
    pub(crate) slo: Option<SloEngine>,
}

impl Simulation {
    /// Start building a simulation: the validating entry point. See
    /// [`crate::builder::SimBuilder`].
    pub fn builder() -> crate::builder::SimBuilder {
        crate::builder::SimBuilder::new()
    }

    /// Internal constructor behind the builder. The [`Manager`] checks
    /// the [`DustConfig`]; its error comes back as the builder's. Panics
    /// on a node-count mismatch, which the builder rejects first.
    pub(crate) fn assemble(
        graph: Graph,
        nodes: Vec<SimNode>,
        traffic: TrafficModel,
        cfg: SimConfig,
    ) -> Result<Self, DustError> {
        assert_eq!(nodes.len(), graph.node_count(), "one SimNode per vertex");
        // the Manager takes the graph while it is still uniquely owned
        // (it drains the construction-time dirty flag in place) and the
        // simulation shares what the Manager holds
        let mut manager = Manager::new(
            graph,
            cfg.dust,
            SolverBackend::Transportation,
            UPDATE_INTERVAL_MS,
            KEEPALIVE_TIMEOUT_MS,
        )?;
        if cfg.incremental_placement {
            manager = manager
                .with_warm_start(true)
                .with_delta_placement(DELTA_THRESHOLD, DELTA_FULL_EVERY)?;
        }
        let clients =
            nodes.iter().map(|n| Client::new(n.id, true, cfg.dust.co_max + 10.0)).collect();
        let transport = Transport::new(cfg.seed, cfg.faults);
        let n = nodes.len();
        Ok(Simulation {
            graph: Arc::clone(manager.graph()),
            nodes,
            clients,
            manager,
            traffic,
            transport,
            cfg,
            alive: vec![true; n],
            active: BTreeMap::new(),
            active_version: 0,
            agents_version: 0,
            kills: Vec::new(),
            revives: Vec::new(),
            storm_triggered: HashSet::new(),
            obs: ObsHandle::disabled(),
            slo: None,
        })
    }

    /// Attach an observability handle: the Manager, every client, and
    /// the runner itself record metrics and trace events through it.
    /// Instrumentation never feeds back into simulation decisions, so a
    /// run at a given seed is bit-identical with tracing on or off.
    pub(crate) fn set_obs(&mut self, obs: ObsHandle) {
        self.manager.set_obs(obs.clone());
        for c in &mut self.clients {
            c.set_obs(obs.clone());
        }
        self.obs = obs;
    }

    /// The attached observability handle (disabled by default).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Attach an online SLO engine for `spec`, whose `overload_dwell` rules
    /// count a node as overloaded at or above the run's `c_max`. The
    /// runner feeds it from the event loop — protocol counters after
    /// Manager activity, CPU samples and a tick at each
    /// `SimEvent::SloEvaluation` point, and the
    /// convergence clock when the first transfer lands — and traces every
    /// breach it fires as a [`TraceEvent::SloBreach`] (plus `slo.breaches`
    /// counters), so alerts are part of the digested event stream.
    pub(crate) fn set_slo(&mut self, spec: SloSpec) {
        self.slo = Some(SloEngine::new(spec, self.cfg.dust.c_max));
    }

    /// The attached SLO engine, if any (for breach inspection).
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// Detach and return the SLO engine (e.g. to render its report).
    pub fn take_slo(&mut self) -> Option<SloEngine> {
        self.slo.take()
    }

    /// Trace and count newly fired SLO breaches (no-op on an empty set).
    fn record_breaches(&self, now: u64, fired: &[SloBreach]) {
        for b in fired {
            self.obs.counter_inc("slo.breaches");
            self.obs.counter_inc(&format!("slo.breach.{}", b.kind));
            self.obs.trace_at(
                now,
                TraceEvent::SloBreach { rule: b.rule, node: b.node_code(), value_m: b.value_m() },
            );
        }
    }

    /// Feed the Manager's cumulative offer counters to the SLO engine
    /// (after Manager ticks and placement rounds, where they can move).
    fn poll_slo_protocol(&mut self, now: u64) {
        if self.slo.is_none() {
            return;
        }
        let sent = self.manager.offers_sent();
        let retries = self.manager.offer_retries();
        let abandons = self.manager.offers_abandoned();
        let fired = self
            .slo
            .as_mut()
            .map(|e| e.on_protocol(now, sent, retries, abandons))
            .unwrap_or_default();
        self.record_breaches(now, &fired);
    }

    /// Schedule a crash of `node` at `at_ms` (builder-internal; callers
    /// use [`crate::builder::SimBuilder::kill_at`]).
    pub(crate) fn inject_failure(&mut self, at_ms: u64, node: NodeId) {
        self.kills.push((at_ms, node));
    }

    /// Schedule a revival of `node` at `at_ms` (builder-internal; callers
    /// use [`crate::builder::SimBuilder::revive_at`]).
    pub(crate) fn inject_revival(&mut self, at_ms: u64, node: NodeId) {
        self.revives.push((at_ms, node));
    }

    pub(crate) fn alive(&self, n: NodeId) -> bool {
        self.alive[n.index()]
    }

    /// Pass a Manager → client envelope through the fault gate. An ideal
    /// direction delivers inline; otherwise each surviving copy is queued
    /// at `now + delay`, saturating: a copy due past the end of time is
    /// lost, as one due after `duration_ms` is.
    pub(crate) fn send_to_client(
        &mut self,
        now: u64,
        env: Envelope<ManagerMsg>,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        if self.cfg.faults.is_ideal() {
            if self.obs.is_enabled() {
                self.obs.counter_inc("sim.transport.to_client.sent");
                self.obs.counter_inc("sim.transport.to_client.delivered");
            }
            report.events_processed += 1;
            self.deliver_manager_msg(now, env, q, report);
            return;
        }
        let copies = self.transport.plan();
        self.record_gate(now, false, &copies);
        for delay in copies {
            q.schedule(now.saturating_add(delay), SimEvent::DeliverClient(env.clone()));
        }
    }

    /// Record one envelope's fate at the fault gate: per-direction
    /// sent/delivered/dropped/duplicated counters (the conservation
    /// identity `delivered + dropped == sent + duplicated` holds per
    /// direction), a delay histogram, and drop/duplicate trace events.
    fn record_gate(&self, now: u64, to_manager: bool, copies: &[u64]) {
        if !self.obs.is_enabled() {
            return;
        }
        let prefix =
            if to_manager { "sim.transport.to_manager" } else { "sim.transport.to_client" };
        self.obs.counter_add(&format!("{prefix}.sent"), 1);
        self.obs.counter_add(&format!("{prefix}.delivered"), copies.len() as u64);
        if copies.is_empty() {
            self.obs.counter_add(&format!("{prefix}.dropped"), 1);
            self.obs.trace_at(now, TraceEvent::FaultDrop { to_manager });
        } else if copies.len() > 1 {
            self.obs.counter_add(&format!("{prefix}.duplicated"), copies.len() as u64 - 1);
            self.obs.trace_at(now, TraceEvent::FaultDuplicate { to_manager });
        }
        for &d in copies {
            self.obs.observe("sim.transport.delay_ms", d as f64);
        }
    }

    /// Pass a client → Manager message through the fault gate, as
    /// [`Simulation::send_to_client`] does.
    pub(crate) fn send_to_manager(
        &mut self,
        now: u64,
        msg: ClientMsg,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        if self.cfg.faults.is_ideal() {
            if self.obs.is_enabled() {
                self.obs.counter_inc("sim.transport.to_manager.sent");
                self.obs.counter_inc("sim.transport.to_manager.delivered");
            }
            report.events_processed += 1;
            self.deliver_client_msg(now, &msg, q, report);
            return;
        }
        let copies = self.transport.plan();
        self.record_gate(now, true, &copies);
        for delay in copies {
            q.schedule(now.saturating_add(delay), SimEvent::DeliverManager(msg.clone()));
        }
    }

    /// Node `i`, to change its agent lists: every such change the runner
    /// makes goes through here, so the agents version moves with it.
    pub(crate) fn node_mut(&mut self, i: usize) -> &mut SimNode {
        self.agents_version += 1;
        &mut self.nodes[i]
    }

    /// A client message reaches the Manager; replies head back through the
    /// fault gate.
    pub(crate) fn deliver_client_msg(
        &mut self,
        now: u64,
        msg: &ClientMsg,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        for env in self.manager.handle(now, msg) {
            self.send_to_client(now, env, q, report);
        }
    }

    /// Apply a Manager → client envelope: route to the client state machine
    /// and mirror accepted decisions onto the resource model. Duplicate
    /// deliveries re-ACK at the protocol layer but must not move agents
    /// twice — mirroring is guarded by the `active` transfer ledger.
    pub(crate) fn deliver_manager_msg(
        &mut self,
        now: u64,
        env: Envelope<ManagerMsg>,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        let to = env.to;
        if !self.alive(to) {
            return; // lost on the wire; keepalive timeout will catch it
        }
        let traffic = self.traffic.fraction(now);
        let reply = self.clients[to.index()].handle(now, &env.msg);
        // Mirror protocol decisions onto the physical model.
        match (&env.msg, &reply) {
            (
                ManagerMsg::OffloadRequest { request, from, amount, data_mb, route },
                Some(ClientMsg::OffloadAck { accept: true, .. }),
            ) if !self.active.contains_key(request) => {
                if self.cfg.full_monitoring_offload {
                    // The Busy node sheds its own agents…
                    let moved = self.node_mut(from.index()).offload_all();
                    self.node_mut(to.index()).host_agents(moved);
                    // …and redirects any workload it was hosting for others
                    // ("an Offload-destination node can redirect the
                    // workload to another node if it becomes busy", §III-B).
                    let redirected = self.node_mut(from.index()).take_hosted(None);
                    self.node_mut(to.index()).host_agents(redirected);
                    // keep the transfer ledger pointing at the new host
                    // (redirected flows lose their planned route)
                    for t in self.active.values_mut() {
                        if t.host == *from {
                            t.host = to;
                            t.route = None;
                        }
                    }
                } else {
                    let moved = self.node_mut(from.index()).offload_agents(*amount, traffic);
                    self.node_mut(to.index()).host_agents(moved);
                }
                self.active.insert(
                    *request,
                    Transfer { owner: *from, host: to, route: route.clone(), data_mb: *data_mb },
                );
                self.active_version += 1;
                report.transfers_applied += 1;
                report.first_transfer_ms.get_or_insert(now);
                self.obs.counter_inc("sim.transfers_applied");
                self.obs.trace_at(
                    now,
                    TraceEvent::TransferApplied { request: request.0, from: from.0, to: to.0 },
                );
                let fired =
                    self.slo.as_mut().map(|e| e.on_transfer_applied(now)).unwrap_or_default();
                self.record_breaches(now, &fired);
            }
            (
                ManagerMsg::Rep { request, failed, from, data_mb, route, .. },
                Some(ClientMsg::OffloadAck { accept: true, .. }),
            ) if !self.active.contains_key(request) => {
                // re-home: the owner's agents move off the failed node
                // onto the new host
                let rehomed = self.node_mut(failed.index()).take_hosted(Some(*from));
                self.node_mut(to.index()).host_agents(rehomed);
                // the transfer that ran owner → failed is gone; its
                // replacement lives under the new request id — dropping
                // the stale entry keeps the flow model truthful
                let stale: Vec<RequestId> = self
                    .active
                    .iter()
                    .filter(|(_, t)| t.owner == *from && t.host == *failed)
                    .map(|(r, _)| *r)
                    .collect();
                for r in stale {
                    self.active.remove(&r);
                    self.obs.counter_inc("sim.transfers_superseded");
                    self.obs.trace_at(now, TraceEvent::TransferSuperseded { request: r.0 });
                }
                self.active.insert(
                    *request,
                    Transfer { owner: *from, host: to, route: route.clone(), data_mb: *data_mb },
                );
                self.active_version += 1;
                report.replicas_applied += 1;
                self.obs.counter_inc("sim.replicas_applied");
                self.obs.trace_at(now, TraceEvent::ReplicaApplied { request: request.0, to: to.0 });
            }
            (ManagerMsg::Release { request }, _) => {
                if let Some(t) = self.active.remove(request) {
                    self.active_version += 1;
                    let back = self.node_mut(t.host.index()).take_hosted(Some(t.owner));
                    self.node_mut(t.owner.index()).reclaim(back);
                    self.obs.counter_inc("sim.releases_applied");
                    self.obs.trace_at(
                        now,
                        TraceEvent::ReleaseApplied { request: request.0, node: t.host.0 },
                    );
                }
            }
            _ => {}
        }
        if let Some(r) = reply {
            self.send_to_manager(now, r, q, report);
        }
    }

    /// A fresh, empty report.
    pub(crate) fn empty_report() -> SimReport {
        SimReport {
            federation: Federation::new(),
            placements_with_assignments: 0,
            transfers_applied: 0,
            replicas_applied: 0,
            orphaned: 0,
            first_transfer_ms: None,
            msgs_sent: 0,
            msgs_dropped: 0,
            msgs_duplicated: 0,
            offer_retries: 0,
            offers_abandoned: 0,
            end_ms: 0,
            events_processed: 0,
            peak_queue_len: 0,
            placement_rounds: 0,
        }
    }

    /// Seed the queue: registrations delivered at t = 0, then the periodic
    /// events, then injected kills and revivals — the relative `seq` order
    /// at equal timestamps is part of the determinism contract.
    pub(crate) fn seed_queue(&mut self, q: &mut EventQueue<SimEvent>, report: &mut SimReport) {
        // Registration at t = 0: every client announces itself. Lost
        // registrations are retransmitted by the client on its next ticks.
        for i in 0..self.clients.len() {
            let reg = self.clients[i].register(0);
            self.send_to_manager(0, reg, q, report);
        }
        q.schedule(UPDATE_INTERVAL_MS, SimEvent::StatEmission);
        q.schedule(UPDATE_INTERVAL_MS, SimEvent::OfferMaintenance);
        if self.cfg.dust_enabled {
            q.schedule(PLACEMENT_PERIOD_MS, SimEvent::PlacementRound);
        }
        q.schedule(0, SimEvent::TelemetrySample);
        if let Some(d) = &self.cfg.drift {
            q.schedule(d.period_ms, SimEvent::DriftTick);
        }
        for &(t, n) in &self.kills {
            q.schedule(t, SimEvent::NodeKill(n));
        }
        for &(t, n) in &self.revives {
            q.schedule(t, SimEvent::NodeRevive(n));
        }
    }

    /// Manager timer maintenance (offer expiry/backoff, keepalive
    /// timeouts → REP).
    pub(crate) fn handle_offer_maintenance(
        &mut self,
        now: u64,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        let outs = self.manager.tick(now);
        for env in outs {
            self.send_to_client(now, env, q, report);
        }
        self.poll_slo_protocol(now);
        q.schedule_in(UPDATE_INTERVAL_MS, SimEvent::OfferMaintenance);
    }

    /// One Manager placement round.
    pub(crate) fn handle_placement_round(
        &mut self,
        now: u64,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        let (placement, outs) = self.manager.run_placement(now);
        if !outs.is_empty() {
            report.placements_with_assignments += 1;
        }
        let _ = placement;
        for env in outs {
            self.send_to_client(now, env, q, report);
        }
        self.poll_slo_protocol(now);
        q.schedule_in(PLACEMENT_PERIOD_MS, SimEvent::PlacementRound);
    }

    /// Online SLO evaluation over the sample recorded at `now` (the cost
    /// is proportional to fleet size only when an engine is attached, so
    /// the hot path never pays it).
    pub(crate) fn handle_slo_evaluation(&mut self, now: u64) {
        let traffic = self.traffic.fraction(now);
        let samples: Vec<(u32, f64)> = self
            .nodes
            .iter()
            .filter(|n| self.alive(n.id))
            .map(|n| (n.id.0, n.device_cpu_percent(now, traffic)))
            .collect();
        let mut fired = Vec::new();
        if let Some(engine) = self.slo.as_mut() {
            for (node, cpu) in samples {
                fired.extend(engine.on_cpu(now, node, cpu));
            }
            fired.extend(engine.on_tick(now));
        }
        self.record_breaches(now, &fired);
    }

    /// Device CPU (percent) at which a node joins the failure storm.
    const STORM_CPU_THRESHOLD: f64 = 30.5;
    /// Delay between a node's threshold crossing and its crash, ms.
    const STORM_CASCADE_DELAY_MS: u64 = 2_000;
    /// Cascade-kill budget for a run.
    const STORM_MAX_CASCADES: usize = 2;

    /// Failure-storm check at a telemetry sample point
    /// ([`SimBuilder::storm`](crate::SimBuilder::storm)): from
    /// `min(2 s, duration / 4)` on, any live node whose device CPU is at
    /// or above [`Self::STORM_CPU_THRESHOLD`] crashes
    /// [`Self::STORM_CASCADE_DELAY_MS`] later — a zone outage where the
    /// survivors buckle under the load shed onto them. Each node cascades
    /// at most once, and the storm stops after
    /// [`Self::STORM_MAX_CASCADES`] kills so a run cannot annihilate its
    /// own fleet. Nodes are visited in id order and CPU comes from the
    /// pure [`SimNode::device_cpu_percent`], so the cascade decision
    /// sequence is a function of the seed alone. A triggered node is
    /// killed through the normal [`SimEvent::NodeKill`] path, so the
    /// event loop's liveness bookkeeping sees it.
    pub(crate) fn handle_storm_check(&mut self, now: u64, q: &mut EventQueue<SimEvent>) {
        if !self.cfg.storm || now < 2_000.min(self.cfg.duration_ms / 4) {
            return;
        }
        let traffic = self.traffic.fraction(now);
        for i in 0..self.nodes.len() {
            if self.storm_triggered.len() >= Self::STORM_MAX_CASCADES {
                break;
            }
            let id = self.nodes[i].id;
            if !self.alive(id) || self.storm_triggered.contains(&id) {
                continue;
            }
            let cpu = self.nodes[i].device_cpu_percent(now, traffic);
            if cpu >= Self::STORM_CPU_THRESHOLD {
                self.storm_triggered.insert(id);
                self.obs.counter_inc("sim.storm_cascades");
                self.obs.trace_at(
                    now,
                    TraceEvent::StormCascade { node: id.0, cpu_m: (cpu * 1000.0).round() as u64 },
                );
                q.schedule(now + Self::STORM_CASCADE_DELAY_MS, SimEvent::NodeKill(id));
            }
        }
    }

    /// One churn step ([`SimBuilder::drift`](crate::SimBuilder::drift)). The RNG is keyed on
    /// `(seed, now)` alone, so the draw sequence is a pure function of the
    /// event time.
    ///
    /// Link-capacity drift is written to *both* views of the fabric (the
    /// first write splits them if they still share one allocation). The
    /// simulation's view feeds telemetry-flow evaluation (utilization is
    /// untouched — the traffic model owns it, and re-applies it lazily in
    /// the event core). The Manager's view feeds `T_rmin` pricing through
    /// [`dust_topology::Graph::link_mut`], whose dirty journal lets
    /// [`dust_topology::CostEngine::refresh`] re-price only the crossing
    /// rows at the next placement round.
    pub(crate) fn handle_drift(&mut self, now: u64, q: &mut EventQueue<SimEvent>) {
        let Some(drift) = self.cfg.drift else { return };
        let mut rng = SplitMix64::new(self.cfg.seed ^ now.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut links = 0u32;
        let edge_count = self.graph.edge_count();
        for _ in 0..drift.links_per_tick.min(edge_count) {
            let e = EdgeId(rng.below(edge_count as u64) as u32);
            let factor = rng.range_f64(1.0 - DRIFT_CAPACITY_SWING, 1.0 + DRIFT_CAPACITY_SWING);
            // random walk with absolute guard rails so a long run can
            // neither collapse a link to zero nor grow it without bound
            let cap = (self.graph.edge(e).link.capacity_mbps * factor).clamp(100.0, 1.0e6);
            Arc::make_mut(&mut self.graph).link_mut(e).capacity_mbps = cap;
            self.manager.graph_mut().link_mut(e).capacity_mbps = cap;
            links += 1;
        }
        let mut agents = 0u32;
        for _ in 0..drift.nodes_per_tick.min(self.nodes.len()) {
            let i = rng.below(self.nodes.len() as u64) as usize;
            let p = rng.range_f64(DRIFT_RATE_FLOOR, 1.0);
            if self.nodes[i].local_agents().is_empty() {
                continue;
            }
            let node = self.node_mut(i);
            for a in node.local_agents_mut() {
                a.sampling = Some(IntSampling::Probabilistic { p });
            }
            node.note_agents_changed();
            agents += node.local_agents().len() as u32;
        }
        self.obs.counter_inc("sim.drift_ticks");
        self.obs.trace_at(now, TraceEvent::DriftApplied { links, agents });
        q.schedule_in(drift.period_ms, SimEvent::DriftTick);
    }

    /// Crash `node`.
    pub(crate) fn handle_kill(&mut self, now: u64, n: NodeId) {
        self.alive[n.index()] = false;
        self.obs.counter_inc("sim.nodes_killed");
        self.obs.trace_at(now, TraceEvent::NodeKilled { node: n.0 });
    }

    /// Revive `node` with a fresh client.
    pub(crate) fn handle_revive(
        &mut self,
        now: u64,
        n: NodeId,
        q: &mut EventQueue<SimEvent>,
        report: &mut SimReport,
    ) {
        self.alive[n.index()] = true;
        self.obs.counter_inc("sim.nodes_revived");
        self.obs.trace_at(now, TraceEvent::NodeRevived { node: n.0 });
        // The process restarted: the reborn client has no memory of
        // workloads it hosted before the crash — keeping the old ledger
        // would inflate every STAT it sends from now on with phantom
        // hosted load.
        let ceiling = self.cfg.dust.co_max + 10.0;
        let mut fresh = Client::new(n, true, ceiling);
        fresh.set_obs(self.obs.clone());
        self.clients[n.index()] = fresh;
        let reg = self.clients[n.index()].register(now);
        self.send_to_manager(now, reg, q, report);
    }

    /// Fill the end-of-run fields from Manager and transport state.
    pub(crate) fn finish_report(&self, report: &mut SimReport) {
        debug_assert!(self.remote_agents_match_hosts(), "a remote count lost its host entries");
        report.orphaned = self.manager.orphaned().len();
        report.offer_retries = self.manager.offer_retries();
        report.offers_abandoned = self.manager.offers_abandoned();
        report.placement_rounds = self.manager.placement_rounds();
        let stats = self.transport.stats();
        report.msgs_sent = stats.sent;
        report.msgs_dropped = stats.dropped;
        report.msgs_duplicated = stats.duplicated;
    }

    /// Run to completion.
    pub fn run(&mut self) -> SimReport {
        crate::event::run_event(self)
    }

    /// Immutable view of the resource model (for assertions).
    pub fn nodes(&self) -> &[SimNode] {
        &self.nodes
    }

    /// The per-node client state machines (for assertions).
    pub fn clients(&self) -> &[Client] {
        &self.clients
    }

    /// The Manager (for assertions on protocol state).
    pub fn manager(&self) -> &Manager {
        &self.manager
    }

    /// Number of transfers currently applied on the resource model (the
    /// `active` ledger). Satisfies the conservation identity
    /// `active == transfers_applied + replicas_applied
    ///            - releases_applied - transfers_superseded`.
    pub fn active_transfers(&self) -> usize {
        self.active.len()
    }

    /// Where `owner`'s monitor agents physically are right now: local
    /// count plus copies hosted for it anywhere in the fleet. Conservation
    /// means this never changes, whatever the control plane loses.
    pub fn agent_census(&self, owner: NodeId) -> usize {
        self.nodes[owner.index()].local_agents().len()
            + self
                .nodes
                .iter()
                .map(|n| n.hosted_agents.iter().filter(|(o, _)| *o == owner).count())
                .sum::<usize>()
    }

    /// Whether every node's [`SimNode::remote_agents`] is the number of its
    /// entries on the fleet's hosted lists: an agent is listed once, on the
    /// node it runs on, and its owner keeps only that count. A debug build
    /// checks it at the end of every run.
    pub fn remote_agents_match_hosts(&self) -> bool {
        let mut hosted = vec![0; self.nodes.len()];
        for (owner, _) in self.nodes.iter().flat_map(|n| &n.hosted_agents) {
            hosted[owner.index()] += 1;
        }
        self.nodes.iter().zip(hosted).all(|(n, h)| n.remote_agents() == h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use crate::transport::FaultProfile;
    use dust_topology::{topologies, Link};

    /// DUT (node 0) + idle server (node 1) on one link.
    fn two_node_sim(dust_enabled: bool) -> Simulation {
        let g = topologies::line(2, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
        ];
        // make the DUT Busy under paper thresholds: lower c_max so ~31 %
        // qualifies (thresholds are per-deployment, §IV-A)
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .dust_enabled(dust_enabled)
            .duration_ms(60_000)
            .build()
            .expect("valid config")
    }

    #[test]
    fn baseline_never_offloads() {
        let mut sim = two_node_sim(false);
        let report = sim.run();
        assert_eq!(report.transfers_applied, 0);
        assert_eq!(sim.nodes()[0].local_agents().len(), 10);
    }

    #[test]
    fn dust_offloads_and_cpu_drops() {
        let mut sim = two_node_sim(true);
        let report = sim.run();
        assert!(report.transfers_applied > 0, "placement must fire");
        assert!(sim.nodes()[0].remote_agents() > 0, "agents must physically move");
        // CPU in the steady tail must sit below the pre-offload window
        let before = report.mean(NodeId(0), "device-cpu", 0, 5_000).unwrap();
        let after = report.mean(NodeId(0), "device-cpu", 40_000, 60_000).unwrap();
        assert!(
            after < before - 5.0,
            "offload must reduce DUT CPU: before {before:.1} after {after:.1}"
        );
    }

    #[test]
    fn inverted_report_window_is_none() {
        let report = two_node_sim(false).run();
        assert!(report.mean(NodeId(0), series::DEVICE_CPU, 1_000, 5_000).is_some());
        assert_eq!(report.mean(NodeId(0), series::DEVICE_CPU, 5_000, 1_000), None);
        assert_eq!(report.max(NodeId(0), series::DEVICE_CPU, 5_000, 1_000), None);
    }

    #[test]
    fn failure_triggers_replica_substitution() {
        // three nodes: DUT busy, two possible hosts
        let g = topologies::line(3, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
            SimNode::bare(NodeId(2), NodeSpec::server()),
        ];
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        let mut sim = Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .duration_ms(60_000)
            // kill whichever host got the agents once hosting is underway
            .kill_at(20_000, NodeId(1))
            .build()
            .expect("valid config");
        let report = sim.run();
        if sim.nodes()[1].hosted_agents.is_empty() && report.replicas_applied > 0 {
            // re-homed to node 2
            assert!(!sim.nodes()[2].hosted_agents.is_empty());
        }
        // invariant: the DUT's agents are somewhere — local, on 1, or on 2
        assert_eq!(sim.agent_census(NodeId(0)), 10, "no agents may be lost");
    }

    #[test]
    fn revival_resets_phantom_hosted_state() {
        let g = topologies::line(3, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
            SimNode::bare(NodeId(2), NodeSpec::server()),
        ];
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        // the destination dies mid-hosting and comes back much later,
        // after the REP already re-homed its workload
        let mut sim = Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .duration_ms(60_000)
            .kill_at(20_000, NodeId(1))
            .revive_at(40_000, NodeId(2))
            .revive_at(40_000, NodeId(1))
            .build()
            .expect("valid config");
        sim.run();
        // the reborn client's ledger must agree with the Manager: every
        // hosted entry corresponds to a live confirmed hosting — the
        // pre-crash entry must NOT survive the reboot and inflate STATs
        for c in sim.clients() {
            for (req, _) in c.hosted() {
                let h = sim.manager().hostings().get(req);
                assert!(
                    h.is_some_and(|h| h.to == c.node && h.confirmed),
                    "client {:?} still carries phantom hosting {req:?}",
                    c.node
                );
            }
        }
        assert_eq!(sim.agent_census(NodeId(0)), 10, "no agents may be lost");
    }

    #[test]
    fn sampling_produces_all_series() {
        let mut sim = two_node_sim(false);
        let report = sim.run();
        for n in [NodeId(0), NodeId(1)] {
            let db = report.federation.store(n).unwrap();
            for s in ["device-cpu", "device-mem", "monitor-cpu"] {
                assert!(db.series(s).is_some(), "{n:?} missing {s}");
                assert!(db.series(s).unwrap().len() >= 50);
            }
        }
    }

    #[test]
    fn deterministic_runs() {
        let r1 = two_node_sim(true).run();
        let r2 = two_node_sim(true).run();
        assert_eq!(r1.transfers_applied, r2.transfers_applied);
        assert_eq!(
            r1.mean(NodeId(0), "device-cpu", 0, 60_000),
            r2.mean(NodeId(0), "device-cpu", 0, 60_000)
        );
    }

    /// Lossy control plane: offloading still converges, nothing is lost,
    /// and the fault gate's counters land in the report.
    fn lossy_sim(loss: f64, seed: u64) -> Simulation {
        let profile =
            FaultProfile { drop: loss, duplicate: loss / 2.0, delay_ms: 20, jitter_ms: 100 };
        faulty_sim(profile, seed)
    }

    /// A Busy DUT and two idle servers behind `profile` in both directions.
    fn faulty_sim(profile: FaultProfile, seed: u64) -> Simulation {
        let g = topologies::line(3, Link::default());
        let nodes = vec![
            SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325()),
            SimNode::bare(NodeId(1), NodeSpec::server()),
            SimNode::bare(NodeId(2), NodeSpec::server()),
        ];
        let dust = DustConfig::paper_defaults().with_thresholds(25.0, 20.0, 1.0);
        Simulation::builder()
            .graph(g)
            .nodes(nodes)
            .traffic(TrafficModel::testbed())
            .dust(dust)
            .duration_ms(60_000)
            .faults(profile)
            .seed(seed)
            .build()
            .expect("valid config")
    }

    #[test]
    fn a_copy_due_past_the_end_of_time_is_lost() {
        for (delay_ms, jitter_ms) in
            [(u64::MAX, 0), (0, u64::MAX), (18_446_744_073_709_551_000, 5_000)]
        {
            let profile = FaultProfile { delay_ms, jitter_ms, ..FaultProfile::ideal() };
            let mut sim = faulty_sim(profile, 1);
            let report = sim.run();
            let at = format!("delay {delay_ms}, jitter {jitter_ms}");
            assert!(report.msgs_sent > 0, "{at}");
            assert_eq!(report.transfers_applied, 0, "{at}: nothing reaches the other side");
            assert!(report.end_ms <= 60_000, "{at}");
        }
    }

    #[test]
    fn lossy_control_plane_still_offloads() {
        let mut sim = lossy_sim(0.2, 11);
        let report = sim.run();
        assert!(report.transfers_applied > 0, "handshake must converge despite 20 % loss");
        assert!(report.msgs_sent > 0 && report.msgs_dropped > 0, "faults must actually fire");
        assert_eq!(sim.agent_census(NodeId(0)), 10, "no agents may be lost");
    }

    #[test]
    fn slo_convergence_breach_fires_on_the_no_offload_baseline() {
        use dust_obs::{ObsHandle, SloKind, SloSpec};
        // dust disabled → no transfer ever applies → convergence breaches
        let mut sim = two_node_sim(false);
        sim.set_obs(ObsHandle::recording(3));
        let spec = SloSpec::parse("convergence<=10000").unwrap();
        sim.set_slo(spec);
        sim.run();
        let engine = sim.take_slo().unwrap();
        assert!(engine.breached(), "baseline never offloads, deadline must fire");
        assert_eq!(engine.breaches().len(), 1, "convergence fires exactly once");
        assert_eq!(engine.breaches()[0].kind, SloKind::Convergence);
        // the breach is traced and counted — part of the digested stream
        assert_eq!(sim.obs().counter("slo.breaches"), 1);
        assert_eq!(sim.obs().counter("slo.breach.convergence"), 1);
        let trace = sim.obs().trace_snapshot().unwrap();
        let traced = trace
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::SloBreach { .. }))
            .count();
        assert_eq!(traced, 1);
    }

    #[test]
    fn slo_engine_is_a_pure_observer() {
        // identical runs with and without an engine watching
        let plain = two_node_sim(true).run();
        let mut watched = two_node_sim(true);
        let spec = dust_obs::SloSpec::parse(
            "convergence<=1,retransmit_rate<=0.0,abandons<=0,overload_dwell<=1",
        )
        .unwrap();
        watched.set_slo(spec);
        let report = watched.run();
        assert!(watched.slo().unwrap().breached(), "tight thresholds must fire");
        assert_eq!(plain.transfers_applied, report.transfers_applied);
        assert_eq!(plain.first_transfer_ms, report.first_transfer_ms);
        assert_eq!(
            plain.mean(NodeId(0), "device-cpu", 0, 60_000),
            report.mean(NodeId(0), "device-cpu", 0, 60_000)
        );
    }

    #[test]
    fn lossy_runs_are_bit_identical_per_seed() {
        let a = lossy_sim(0.3, 5).run();
        let b = lossy_sim(0.3, 5).run();
        assert_eq!(
            (a.transfers_applied, a.replicas_applied, a.msgs_sent, a.msgs_dropped),
            (b.transfers_applied, b.replicas_applied, b.msgs_sent, b.msgs_dropped)
        );
        assert_eq!(a.first_transfer_ms, b.first_transfer_ms);
        assert_eq!(
            a.mean(NodeId(0), "device-cpu", 0, 60_000),
            b.mean(NodeId(0), "device-cpu", 0, 60_000)
        );
    }
}
