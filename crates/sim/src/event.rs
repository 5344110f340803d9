//! The simulation core.
//!
//! Pops the typed `SimEvent` sequence in `(time, seq)` order and
//! dispatches it to the handlers on [`Simulation`] in [`crate::runner`].
//! Its contract is with the pure per-node functions on [`SimNode`] —
//! [`SimNode::device_cpu_percent`], [`SimNode::device_mem_percent`],
//! [`SimNode::data_mb`] and [`SimNode::monitoring_cpu_core_percent`]:
//! every value a run records or reports is bit-identical to what those
//! return for the same node, traffic and time, however this core caches
//! it. The speed comes from *how* each handler computes, never from
//! reordering *what* happens:
//!
//! * **Lazy link application.** A STAT emission sets every link's load
//!   ([`crate::TrafficModel::apply_to_links`], a pure function of
//!   `(seed, time)` that re-rolls a per-edge RNG over the whole graph).
//!   The simulation's own view of the graph is only ever read by flow
//!   evaluation at sample points, so the core records the last emission
//!   time and applies it on demand — an O(E) pass per *flow-bearing
//!   sample* instead of per emission, and never when no telemetry flow is
//!   routed (in which case the simulation never writes to the topology
//!   and goes on sharing the Manager's).
//! * **One slot table for every per-node read.** Nodes whose whole walk
//!   is one interned record ([`SimNode::shared_deployment`]), with equal
//!   spec bits and offload state, share a *slot*; every other node has a
//!   slot of its own. Each slot keeps one walk of a representative, keyed
//!   on its [`SimNode::agents_epoch`] and the traffic fraction's bits, so
//!   a fleet of one class costs one walk per traffic value, not one per
//!   node. STAT emission and sampling both read it after re-keying the
//!   nodes whose epoch moved; per node only the `*_from_raw` arithmetic
//!   runs, bit-identical with the pure functions. The re-keying scans the
//!   nodes only after the runner's agents version moved:
//!   `Simulation::node_mut` is the one door to a node's agent lists
//!   during a run and bumps it, so a run in which no agent moves never
//!   scans, and a debug build checks every node's epoch at each skip.
//! * **Arena-style buffers.** STAT emission reuses one message buffer
//!   ([`dust_proto::Client::tick_into`]); the telemetry flow set is
//!   rebuilt only when the transfer ledger's version moves; liveness is
//!   a flat bitmap instead of a hash probe per node.
//! * **One sample per slot, one store per class.** A sample computes one
//!   `[device-cpu, device-mem, monitor-cpu]` triple per slot, so a fleet
//!   of one class costs one computation per sample, not one per node. The
//!   first telemetry sample builds one template store with the three
//!   series, resolved to [`SeriesId`] handles that hold in every store,
//!   and shares it to every node ([`Federation::share`]). The per-slot
//!   values are held, and a hold ends when another sample would not fit in
//!   `SAMPLE_RUN` (8) values per node, at a slot change, or at the run's
//!   last sample. The flush groups the nodes by the store each held when
//!   it began and by slot: a group takes the same points, so its first
//!   node writes them — each series its held points back-to-back in one
//!   ordered pass, into a list reserved for the rest of the run (the count
//!   follows from the run's own duration and sample period) — and the
//!   others share that store. A fleet of one class holds the whole run and
//!   ends with one store; a fleet of nodes on their own writes runs of
//!   eight into a store each. A node whose key changes (drift detached it,
//!   an offload or a hosting moved agents) ends the hold before the slots
//!   are reassigned, at the next STAT emission or sample, so each series
//!   gets the same points in the same order, and the next flush parts its
//!   store from its old class's. The run's last sample writes what is
//!   held, so the federation is whole when the run ends; nothing reads it
//!   before then. A handler that comes to read it mid-run must flush the
//!   held samples first. The flow series, written only while flows are
//!   routed, append directly, which makes the owner's store its own. The
//!   batch's CPU/memory histogram samples, one per node in node order,
//!   collect in two reused buffers and reach the recorder in one
//!   [`dust_obs::ObsHandle::observe_all`] each instead of one lock per
//!   node.

use crate::engine::EventQueue;
use crate::flows::{evaluate_flows, TelemetryFlow};
use crate::node::SimNode;
use crate::runner::{series, SimEvent, SimReport, Simulation, UPDATE_INTERVAL_MS};
use dust_proto::ClientMsg;
use dust_telemetry::{Federation, MonitorAgent, SeriesId, Tsdb};
use std::sync::Arc;

/// Held values per node: a hold ends before it would keep more than
/// `SAMPLE_RUN` samples' worth of values for every node, so a fleet whose
/// nodes each have a slot of their own writes runs of eight, and one of a
/// single class holds up to `SAMPLE_RUN × nodes` samples.
const SAMPLE_RUN: usize = 8;

/// What a shared-record node's values depend on besides `(traffic, now)`:
/// nodes with equal keys share a slot.
#[derive(Debug)]
struct SlotKey {
    /// The node's [`SimNode::shared_deployment`], matched by
    /// [`Arc::ptr_eq`]. Holding a clone keeps the record alive, so no
    /// other record can be allocated at its address meanwhile.
    record: Arc<Vec<MonitorAgent>>,
    /// The bits of its [`crate::node::NodeSpec`].
    spec: [u64; 4],
    /// Whether its `offloaded_agents` is empty (no offload stub).
    local: bool,
}

/// The bits of `node`'s [`crate::node::NodeSpec`].
fn spec_bits(node: &SimNode) -> [u64; 4] {
    let s = node.spec;
    [s.cpu_cores, s.mem_gib, s.base_cpu_percent, s.base_mem_gib].map(f64::to_bits)
}

impl SlotKey {
    /// Whether `node` has this key: it shares this very record, with equal
    /// spec bits and offload state. Compares without cloning the record.
    fn holds(&self, node: &SimNode) -> bool {
        node.shared_deployment().is_some_and(|r| Arc::ptr_eq(r, &self.record))
            && self.spec == spec_bits(node)
            && self.local == node.offloaded_agents.is_empty()
    }
}

/// One slot's walks, each keyed on its representative's agent epoch.
#[derive(Debug, Clone, Default)]
struct SlotWalk {
    /// Key of `raw_cpu`/`data_mb`: `(agents_epoch, traffic.to_bits())`.
    raw_key: Option<(u64, u64)>,
    raw_cpu: f64,
    data_mb: f64,
    /// Key of `mem_percent`: `agents_epoch` (memory is traffic-blind).
    mem_key: Option<u64>,
    mem_percent: f64,
}

/// Hot state owned by the event loop, outside the `Simulation` so the
/// borrow checker lets handlers mutate both independently.
struct HotState {
    /// Agent walks taken: a CPU/data walk counts one, a memory walk one.
    #[cfg(test)]
    walks: u64,
    /// Slot syncs, and the node scans they ran.
    #[cfg(test)]
    syncs: u64,
    #[cfg(test)]
    scans: u64,
    /// Syncs that found some node's agent epoch moved since the last one,
    /// counted by comparing every node's epoch: what the scans should be.
    #[cfg(test)]
    moved_syncs: u64,
    /// The runner's agents version ([`Simulation::node_mut`]) at the last
    /// slot sync: while it holds, no agent list changed and the slots
    /// stand.
    synced_version: u64,
    /// Reused STAT/keepalive buffer.
    stat_buf: Vec<ClientMsg>,
    /// Flow arena: rebuilt only when `sim.active_version` moves.
    flows: Vec<TelemetryFlow>,
    flows_version: Option<u64>,
    /// Time of the latest STAT emission — the link state the graph
    /// *should* carry, applied lazily before flow evaluation.
    links_pending: Option<u64>,
    /// Time whose link state is actually applied to the graph.
    links_applied: Option<u64>,
    /// The [`series::DEVICE_CPU`], [`series::DEVICE_MEM`] and
    /// [`series::MONITOR_CPU`] series of every node's store: each store
    /// starts as the first sample's template, so they are the same three
    /// in all of them. `None` until the first telemetry sample.
    handles: Option<[SeriesId; 3]>,
    /// Points each of those series has yet to take, from the held
    /// samples' first to the run's last sample.
    points_left: usize,
    /// A flush's `(store, slot, node)` triples, one per node: the address
    /// of the store the node held when the flush began, its slot and its
    /// index. Sized here, reused by every flush.
    groups: Vec<(usize, u32, u32)>,
    /// One batch's `sim.node.cpu_percent` / `sim.node.mem_percent`
    /// samples, reused across batches and flushed once per batch.
    cpu_batch: Vec<f64>,
    mem_batch: Vec<f64>,
    /// `slot_of[i]`: node `i`'s slot. The shared slots come first,
    /// `classes[s]` keying slot `s`; a slot past them is one node's own.
    slot_of: Vec<u32>,
    /// `slot_epoch[i]`: node `i`'s [`SimNode::agents_epoch`] when its slot
    /// was last checked.
    slot_epoch: Vec<u64>,
    /// `reps[s]`: the node whose values slot `s` takes.
    reps: Vec<u32>,
    /// `walked[s]`: slot `s`'s walks. Sized to the node count here, at the
    /// run's start, like the tables beside it: a block first allocated
    /// mid-run can sit above the run's large blocks (the hold buffer, and
    /// the point lists of a fleet whose nodes keep stores of their own)
    /// and, once freed and cached by the allocator, keep the heap from
    /// shrinking after the run — the k = 90 fleet's next run read 67 MB
    /// instead of 63 while each of its nodes stored ≈ 33 MB of point lists
    /// of its own.
    walked: Vec<SlotWalk>,
    /// The shared slots' keys, in slot order.
    classes: Vec<SlotKey>,
    /// The held samples' values, slot-major within a sample:
    /// `run[(s * slots + slot) * 3 + j]` is sample `s`'s point for
    /// `handles[i][j]` of every node `i` in `slot`. At most
    /// `SAMPLE_RUN × nodes × 3` values, reserved at the first sample.
    run: Vec<f64>,
    /// The held samples' timestamps, oldest first.
    run_at: Vec<u64>,
}

impl HotState {
    /// The state of a run over `nodes`, with their slots assigned at the
    /// runner's agents version `version`.
    fn new(nodes: &[SimNode], version: u64) -> Self {
        let n = nodes.len();
        let mut hot = HotState {
            #[cfg(test)]
            walks: 0,
            #[cfg(test)]
            syncs: 0,
            #[cfg(test)]
            scans: 0,
            #[cfg(test)]
            moved_syncs: 0,
            synced_version: version,
            stat_buf: Vec::new(),
            flows: Vec::new(),
            flows_version: None,
            links_pending: None,
            links_applied: None,
            handles: None,
            points_left: 0,
            groups: Vec::with_capacity(n),
            cpu_batch: Vec::new(),
            mem_batch: Vec::new(),
            slot_of: vec![0; n],
            slot_epoch: vec![0; n],
            reps: Vec::with_capacity(n),
            walked: Vec::with_capacity(n),
            classes: Vec::with_capacity(4),
            run: Vec::new(),
            run_at: Vec::new(),
        };
        hot.assign_slots(nodes);
        hot
    }

    /// Write the held samples once per group of nodes that held the same
    /// store and share a slot: they take the same points, so they end with
    /// equal stores. The group's first node writes, series by series —
    /// each series takes its points back-to-back through
    /// [`Tsdb::append_to`], which still checks their order, into a list
    /// reserved for the rest of the run — and the others share its store.
    /// A store that several groups held is copied for all but the last.
    ///
    /// [`Tsdb::append_to`]: dust_telemetry::Tsdb::append_to
    fn flush_samples(&mut self, federation: &mut Federation, nodes: &[SimNode]) {
        if self.run_at.is_empty() {
            return;
        }
        let ids = self.handles.expect("the first held sample resolved the handles");
        self.groups.clear();
        self.groups.extend(nodes.iter().zip(&self.slot_of).enumerate().map(|(i, (n, &slot))| {
            let store = federation.store(n.id).map_or(0, |db| std::ptr::from_ref(db) as usize);
            (store, slot, i as u32)
        }));
        self.groups.sort_unstable();
        let stride = self.reps.len() * 3;
        for group in self.groups.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let (_, slot, first) = group[0];
            let writer = nodes[first as usize].id;
            // the others let go of the store first: a group that held it
            // alone writes it in place, with no copy
            for &(.., i) in &group[1..] {
                federation.attach(nodes[i as usize].id, Tsdb::new());
            }
            let db = federation.store_mut(writer);
            for (j, &id) in ids.iter().enumerate() {
                db.reserve(id, self.points_left);
                let values = self.run[slot as usize * 3 + j..].iter().step_by(stride);
                for (&at, &value) in self.run_at.iter().zip(values) {
                    db.append_to(id, at, value);
                }
            }
            for &(.., i) in &group[1..] {
                federation.share(nodes[i as usize].id, writer);
            }
        }
        self.points_left = self.points_left.saturating_sub(self.run_at.len());
        self.run.clear();
        self.run_at.clear();
    }

    /// Give every node its slot: one per distinct key, in first-seen
    /// order, then one per node on its own. Nothing may be held.
    fn assign_slots(&mut self, nodes: &[SimNode]) {
        debug_assert!(self.run_at.is_empty(), "held values are laid out by the old slots");
        self.classes.clear();
        self.reps.clear();
        for (i, n) in nodes.iter().enumerate() {
            self.slot_epoch[i] = n.agents_epoch();
            self.slot_of[i] = match n.shared_deployment() {
                Some(record) => {
                    let at = self.classes.iter().position(|c| c.holds(n));
                    at.unwrap_or_else(|| {
                        self.classes.push(SlotKey {
                            record: Arc::clone(record),
                            spec: spec_bits(n),
                            local: n.offloaded_agents.is_empty(),
                        });
                        self.reps.push(i as u32);
                        self.classes.len() - 1
                    }) as u32
                }
                None => u32::MAX,
            };
        }
        for (i, slot) in self.slot_of.iter_mut().enumerate() {
            if *slot == u32::MAX {
                *slot = self.reps.len() as u32;
                self.reps.push(i as u32);
            }
        }
        self.walked.clear();
        self.walked.resize(self.reps.len(), SlotWalk::default());
    }

    /// Whether some node's key moved off its slot's since the slots were
    /// assigned: a shared node's key changed, or a node on its own came to
    /// share a record. Only a node whose agent epoch moved is re-keyed.
    fn slots_changed(&mut self, nodes: &[SimNode]) -> bool {
        for (i, n) in nodes.iter().enumerate() {
            let epoch = n.agents_epoch();
            if self.slot_epoch[i] != epoch {
                self.slot_epoch[i] = epoch;
                let moved_off = match self.classes.get(self.slot_of[i] as usize) {
                    Some(class) => !class.holds(n),
                    None => n.shared_deployment().is_some(),
                };
                if moved_off {
                    return true;
                }
            }
        }
        false
    }

    /// Whether every node's agent epoch is the one its slot was last
    /// checked at.
    fn epochs_current(&self, nodes: &[SimNode]) -> bool {
        nodes.iter().zip(&self.slot_epoch).all(|(n, &e)| n.agents_epoch() == e)
    }

    /// Bring the slots up to date with the nodes' agent lists at the
    /// runner's agents version `version`: at a slot change, write the held
    /// samples by the old slots, then reassign. While the version stands
    /// no agent list changed, so nothing is scanned; a debug build checks
    /// every node's epoch instead.
    fn sync_slots(&mut self, federation: &mut Federation, nodes: &[SimNode], version: u64) {
        #[cfg(test)]
        {
            self.syncs += 1;
            self.moved_syncs += u64::from(!self.epochs_current(nodes));
        }
        if version == self.synced_version {
            debug_assert!(
                self.epochs_current(nodes),
                "an agent list changed without moving the agents version"
            );
            return;
        }
        self.synced_version = version;
        #[cfg(test)]
        {
            self.scans += 1;
        }
        if self.slots_changed(nodes) {
            self.flush_samples(federation, nodes);
            self.assign_slots(nodes);
        }
        #[cfg(test)]
        {
            let fresh = HotState::new(nodes, version);
            assert_eq!((&self.slot_of, &self.reps), (&fresh.slot_of, &fresh.reps), "a full scan");
        }
    }

    /// Hold the sample at `now`: one `[device-cpu, device-mem, monitor-cpu]`
    /// per slot, each from the slot's representative. Returns whether the
    /// hold is full — whether another sample would take it past
    /// `SAMPLE_RUN` values per node.
    fn hold_sample(&mut self, nodes: &[SimNode], traffic: f64, now: u64) -> bool {
        for s in 0..self.reps.len() {
            let (raw, _) = self.raw(nodes, s, traffic);
            let mem = self.mem(nodes, s);
            let cpu = nodes[self.reps[s] as usize].device_cpu_from_raw(raw, now);
            let monitor = SimNode::monitoring_cpu_from_raw(raw, now);
            self.run.extend([cpu, mem, monitor]);
        }
        self.run_at.push(now);
        (self.run_at.len() + 1) * self.reps.len() > SAMPLE_RUN * nodes.len()
    }

    /// One agent walk, `f`; tests count them.
    fn walk<T>(&mut self, f: impl FnOnce() -> T) -> T {
        #[cfg(test)]
        {
            self.walks += 1;
        }
        f()
    }

    /// Slot `s`'s `(raw_cpu, data_mb)` at `traffic`: its representative's
    /// [`SimNode::raw_agent_cpu`] and [`SimNode::data_mb`], walked once per
    /// agent epoch and traffic value.
    fn raw(&mut self, nodes: &[SimNode], s: usize, traffic: f64) -> (f64, f64) {
        let rep = &nodes[self.reps[s] as usize];
        let key = (rep.agents_epoch(), traffic.to_bits());
        if self.walked[s].raw_key != Some(key) {
            let sums = self.walk(|| (rep.raw_agent_cpu(traffic), rep.data_mb(traffic)));
            let w = &mut self.walked[s];
            (w.raw_cpu, w.data_mb) = sums;
            w.raw_key = Some(key);
        }
        let w = &self.walked[s];
        (w.raw_cpu, w.data_mb)
    }

    /// Slot `s`'s [`SimNode::device_mem_percent`], walked once per agent
    /// epoch.
    fn mem(&mut self, nodes: &[SimNode], s: usize) -> f64 {
        let rep = &nodes[self.reps[s] as usize];
        let key = rep.agents_epoch();
        if self.walked[s].mem_key != Some(key) {
            let percent = self.walk(|| rep.device_mem_percent());
            let w = &mut self.walked[s];
            w.mem_percent = percent;
            w.mem_key = Some(key);
        }
        self.walked[s].mem_percent
    }
}
/// Run `sim` to completion; [`Simulation::run`] is its entry point.
pub(crate) fn run_event(sim: &mut Simulation) -> SimReport {
    let mut hot = HotState::new(&sim.nodes, sim.agents_version);
    run_with(sim, &mut hot)
}

/// [`run_event`] over the caller's hot state (tests read its counters).
fn run_with(sim: &mut Simulation, hot: &mut HotState) -> SimReport {
    let mut report = Simulation::empty_report();
    let mut q: EventQueue<SimEvent> = EventQueue::new();
    sim.seed_queue(&mut q, &mut report);

    while let Some(ev) = q.pop() {
        let now = ev.at_ms;
        if now > sim.cfg.duration_ms {
            break;
        }
        report.events_processed += 1;
        report.peak_queue_len = report.peak_queue_len.max(q.len());
        sim.obs.set_now(now);
        let _prof = sim.obs.prof_scope(ev.event.scope_name());
        match ev.event {
            SimEvent::StatEmission => {
                let traffic = sim.traffic.fraction(now);
                // This emission's link load: nothing below reads the
                // graph, so note the time and apply it before the next
                // flow evaluation.
                hot.links_pending = Some(now);
                hot.sync_slots(&mut report.federation, &sim.nodes, sim.agents_version);
                let walk = sim.obs.prof_scope("sim.resource_walk");
                for i in 0..sim.nodes.len() {
                    if !sim.alive[i] {
                        continue;
                    }
                    // a STAT, keepalive or registration draws at most an
                    // ACK: no agent moves inside this loop
                    debug_assert_eq!(hot.slot_epoch[i], sim.nodes[i].agents_epoch());
                    let (raw, data) = hot.raw(&sim.nodes, hot.slot_of[i] as usize, traffic);
                    let cpu = sim.nodes[i].device_cpu_from_raw(raw, now);
                    sim.clients[i].observe(cpu, data);
                    sim.clients[i].tick_into(now, &mut hot.stat_buf);
                    for msg in hot.stat_buf.drain(..) {
                        sim.send_to_manager(now, msg, &mut q, &mut report);
                    }
                }
                drop(walk);
                q.schedule_in(UPDATE_INTERVAL_MS, SimEvent::StatEmission);
            }
            SimEvent::OfferMaintenance => {
                sim.handle_offer_maintenance(now, &mut q, &mut report);
            }
            SimEvent::PlacementRound => {
                sim.handle_placement_round(now, &mut q, &mut report);
            }
            SimEvent::TelemetrySample => {
                let traffic = sim.traffic.fraction(now);
                let batch = sim.obs.prof_scope("sim.telemetry_batch");
                hot.sync_slots(&mut report.federation, &sim.nodes, sim.agents_version);
                if hot.handles.is_none() {
                    // first sample: every later one lands `sample_period_ms`
                    // after the last until `duration_ms`, so the point
                    // count of each series is known now
                    let points = (sim.cfg.duration_ms - now) / sim.cfg.sample_period_ms + 1;
                    hot.points_left = usize::try_from(points).unwrap_or(usize::MAX);
                    // `held × slots ≤ SAMPLE_RUN × nodes` and `slots ≥ 1`,
                    // whatever the slots become later in the run
                    let nodes = sim.nodes.len();
                    hot.run.reserve_exact(hot.points_left.min(SAMPLE_RUN) * nodes * 3);
                    hot.run_at.reserve_exact(hot.points_left.min(SAMPLE_RUN * nodes));
                    // one template store, shared by every node until their
                    // points part (the flushes size the point lists)
                    let mut template = Tsdb::new();
                    hot.handles = Some(
                        [series::DEVICE_CPU, series::DEVICE_MEM, series::MONITOR_CPU]
                            .map(|name| template.series_id(name)),
                    );
                    if let Some((first, rest)) = sim.nodes.split_first() {
                        report.federation.attach(first.id, template);
                        for n in rest {
                            report.federation.share(n.id, first.id);
                        }
                    }
                }
                let at = hot.run.len();
                let full = hot.hold_sample(&sim.nodes, traffic, now);
                let recording = sim.obs.is_enabled();
                if recording {
                    for &slot in &hot.slot_of {
                        let v = &hot.run[at + slot as usize * 3..];
                        hot.cpu_batch.push(v[0]);
                        hot.mem_batch.push(v[1]);
                    }
                }
                // the run's last sample (its successor would land past the
                // end) writes what it holds too, so the run ends with every
                // point stored and inside this scope's time
                let last = now.saturating_add(sim.cfg.sample_period_ms) > sim.cfg.duration_ms;
                if full || last {
                    hot.flush_samples(&mut report.federation, &sim.nodes);
                }
                if recording {
                    sim.obs.observe_all("sim.node.cpu_percent", &hot.cpu_batch);
                    sim.obs.observe_all("sim.node.mem_percent", &hot.mem_batch);
                    hot.cpu_batch.clear();
                    hot.mem_batch.clear();
                }
                drop(batch);
                if recording {
                    sim.obs.gauge_set("sim.active_transfers", sim.active.len() as f64);
                }
                if sim.slo.is_some() {
                    q.schedule(now, SimEvent::SloEvaluation);
                }
                if hot.flows_version != Some(sim.active_version) {
                    hot.flows.clear();
                    hot.flows.extend(sim.active.values().filter(|t| t.data_mb > 0.0).filter_map(
                        |t| {
                            t.route.as_ref().map(|r| TelemetryFlow {
                                owner: t.owner,
                                host: t.host,
                                route: r.clone(),
                                data_mb: t.data_mb,
                            })
                        },
                    ));
                    hot.flows_version = Some(sim.active_version);
                }
                if !hot.flows.is_empty() {
                    // flows read link utilizations: reconcile the graph
                    // with the latest STAT emission's link state first
                    if hot.links_applied != hot.links_pending {
                        if let Some(t) = hot.links_pending {
                            sim.traffic.apply_to_links(
                                Arc::make_mut(&mut sim.graph),
                                t,
                                sim.cfg.link_jitter,
                                sim.cfg.seed,
                            );
                        }
                        hot.links_applied = hot.links_pending;
                    }
                    let outs = evaluate_flows(&sim.graph, &hot.flows, UPDATE_INTERVAL_MS);
                    for (f, o) in hot.flows.iter().zip(&outs) {
                        let db = report.federation.store_mut(f.owner);
                        db.append(series::TELEMETRY_ADMITTED_MBPS, now, o.admitted_mbps);
                        db.append(series::TELEMETRY_DROPPED, now, o.dropped_fraction);
                    }
                }
                sim.handle_storm_check(now, &mut q);
                q.schedule_in(sim.cfg.sample_period_ms, SimEvent::TelemetrySample);
            }
            SimEvent::SloEvaluation => {
                sim.handle_slo_evaluation(now);
            }
            SimEvent::DriftTick => {
                sim.handle_drift(now, &mut q);
            }
            SimEvent::NodeKill(n) => {
                sim.handle_kill(now, n);
            }
            SimEvent::NodeRevive(n) => {
                sim.handle_revive(now, n, &mut q, &mut report);
            }
            SimEvent::DeliverClient(env) => {
                sim.deliver_manager_msg(now, env, &mut q, &mut report);
            }
            SimEvent::DeliverManager(msg) => {
                sim.deliver_client_msg(now, &msg, &mut q, &mut report);
            }
        }
        report.end_ms = now;
    }
    debug_assert!(hot.run_at.is_empty(), "the last sample writes every held point");
    sim.finish_report(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeSpec;
    use dust_obs::{ObsHandle, TraceEvent};
    use dust_telemetry::IntSampling;
    use dust_topology::{NodeId, SplitMix64, Tier};

    /// Retune every local agent of `node`, detaching it from its record.
    fn retune(node: &mut SimNode, p: f64) {
        for agent in node.local_agents_mut() {
            agent.sampling = Some(IntSampling::Probabilistic { p });
        }
        node.note_agents_changed();
    }

    /// `n` nodes drawn from `seed`: each on one of two records and one of
    /// two specs, and then left sharing, detached, hosting, offloaded, or
    /// still sharing while it pays the offload stub for an agent it has
    /// also sent away.
    fn node_mix(seed: u64, n: u32) -> Vec<SimNode> {
        let records = [
            Arc::new(MonitorAgent::standard_deployment()),
            Arc::new(MonitorAgent::standard_deployment()[3..].to_vec()),
        ];
        let specs = [NodeSpec::aruba_8325(), NodeSpec::dpu()];
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let record = &records[rng.below(2) as usize];
                let spec = specs[rng.below(2) as usize];
                let mut node = SimNode::with_shared_agents(NodeId(i), spec, Arc::clone(record));
                match rng.below(8) {
                    0 => retune(&mut node, rng.range_f64(0.4, 1.0)),
                    1 => node.host_agents(NodeId(0), &record[..1]),
                    2 => drop(node.offload_all_to(NodeId(0))),
                    3 => {
                        node.offloaded_agents.push((NodeId(0), record[0]));
                        node.note_agents_changed();
                    }
                    _ => {}
                }
                node
            })
            .collect()
    }

    /// Distinct shared keys — record, spec bits, offload stub — plus the
    /// nodes on their own, counted without [`HotState`].
    fn distinct_slots(nodes: &[SimNode]) -> usize {
        let mut keys = Vec::new();
        let mut own = 0;
        for n in nodes {
            let Some(record) = n.shared_deployment() else {
                own += 1;
                continue;
            };
            let s = n.spec;
            let spec = [s.cpu_cores, s.mem_gib, s.base_cpu_percent, s.base_mem_gib];
            let key = (Arc::as_ptr(record), spec.map(f64::to_bits), n.offloaded_agents.is_empty());
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        keys.len() + own
    }

    /// Hold one sample and check every node's slot triple against the
    /// pure per-node functions, bit for bit.
    fn sample_and_check(hot: &mut HotState, nodes: &[SimNode], traffic: f64, now: u64, at: &str) {
        let base = hot.run.len();
        hot.hold_sample(nodes, traffic, now);
        assert_eq!(hot.run.len() - base, hot.reps.len() * 3, "{at}");
        for (i, n) in nodes.iter().enumerate() {
            let slot = hot.slot_of[i] as usize;
            let got: Vec<u64> =
                hot.run[base + slot * 3..][..3].iter().map(|v| v.to_bits()).collect();
            let want = [
                n.device_cpu_percent(now, traffic),
                n.device_mem_percent(),
                n.monitoring_cpu_core_percent(now, traffic),
            ];
            assert_eq!(got, want.map(f64::to_bits), "{at}: node {i}, t {now}, traffic {traffic}");
        }
    }

    #[test]
    fn each_slot_walks_once_per_traffic_value() {
        let a = Arc::new(MonitorAgent::standard_deployment());
        let b = Arc::new(MonitorAgent::standard_deployment()[3..].to_vec());
        let spec = NodeSpec::aruba_8325();
        // eight nodes alternating between the two records…
        let mut nodes: Vec<SimNode> = (0..8u32)
            .map(|i| {
                let record = if i % 2 == 0 { &a } else { &b };
                SimNode::with_shared_agents(NodeId(i), spec, Arc::clone(record))
            })
            .collect();
        // …one retuned off `a` onto its own copy…
        let mut detached = SimNode::with_shared_agents(NodeId(8), spec, Arc::clone(&a));
        retune(&mut detached, 0.5);
        // …one still on `b` but hosting an agent of node 0's…
        let mut hosting = SimNode::with_shared_agents(NodeId(9), spec, Arc::clone(&b));
        hosting.host_agents(NodeId(0), &a[..1]);
        // …and one that never shared
        nodes.extend([detached, hosting, SimNode::with_standard_agents(NodeId(10), spec)]);
        let on_their_own = 3;

        let mut hot = HotState::new(&nodes, 0);
        assert_eq!((hot.classes.len(), hot.reps.len() as u64), (2, 2 + on_their_own));
        let mut walks = 0;
        // `now` crosses the burst window; the last fraction comes back
        for (step, traffic) in [0.2, 0.35, 0.9, 0.2].into_iter().enumerate() {
            let now = step as u64 * 1_000;
            for _ in 0..2 {
                for (i, n) in nodes.iter().enumerate() {
                    let slot = hot.slot_of[i] as usize;
                    let (raw, data) = hot.raw(&nodes, slot, traffic);
                    let mem = hot.mem(&nodes, slot);
                    let at = format!("node {i} traffic {traffic}");
                    let cpu = n.device_cpu_from_raw(raw, now);
                    assert_eq!(cpu.to_bits(), n.device_cpu_percent(now, traffic).to_bits(), "{at}");
                    let monitor = SimNode::monitoring_cpu_from_raw(raw, now);
                    let fresh = n.monitoring_cpu_core_percent(now, traffic);
                    assert_eq!(monitor.to_bits(), fresh.to_bits(), "{at}");
                    assert_eq!(data.to_bits(), n.data_mb(traffic).to_bits(), "{at}");
                    assert_eq!(mem.to_bits(), n.device_mem_percent().to_bits(), "{at}");
                }
            }
            // one CPU/data walk per shared slot and per node on its own,
            // the second pass none; memory is traffic-blind, walked once
            walks += 2 + on_their_own;
            if step == 0 {
                walks += 2 + on_their_own;
            }
            assert_eq!(hot.walks, walks, "traffic {traffic}");
        }
    }

    #[test]
    fn every_node_reads_its_own_values_from_its_slot() {
        for seed in 1..=8u64 {
            let mut nodes = node_mix(seed, 48);
            let mut hot = HotState::new(&nodes, 0);
            let at = format!("seed {seed}");
            assert_eq!(hot.reps.len(), distinct_slots(&nodes), "{at}");
            assert!(hot.reps.len() < nodes.len(), "{at}: somebody shares a slot");
            // into, inside and out of the burst window, traffic moving
            for (now, traffic) in [(0, 0.2), (1_500, 0.35), (3_000, 0.9)] {
                sample_and_check(&mut hot, &nodes, traffic, now, &at);
            }
            hot.run.clear();
            hot.run_at.clear();

            // a node on its own that stays on its own changes no slot
            let own = nodes.iter().position(|n| !n.agents_interned()).expect("a detached node");
            retune(&mut nodes[own], 0.5);
            assert!(!hot.slots_changed(&nodes), "{at}");
            // one leaving its record does, and so does one coming back to it
            let shared = nodes.iter().position(|n| n.shared_deployment().is_some()).unwrap();
            retune(&mut nodes[shared], 0.7);
            assert!(hot.slots_changed(&nodes), "{at}");
            hot.assign_slots(&nodes);
            let host =
                nodes.iter().position(|n| n.agents_interned() && n.shared_deployment().is_none());
            if let Some(host) = host {
                nodes[host].drop_hosted_for(NodeId(0));
                assert!(hot.slots_changed(&nodes), "{at}");
                hot.assign_slots(&nodes);
            }
            assert_eq!(hot.reps.len(), distinct_slots(&nodes), "{at}");
            sample_and_check(&mut hot, &nodes, 0.45, 4_500, &at);
        }
    }

    #[test]
    fn stat_emission_reads_every_node_through_its_slot() {
        // what a STAT reports per node: its device CPU and its data volume
        let check = |hot: &mut HotState, nodes: &[SimNode], now: u64, traffic: f64, at: &str| {
            for (i, n) in nodes.iter().enumerate() {
                assert_eq!(hot.slot_epoch[i], n.agents_epoch(), "{at}: node {i} synced");
                let (raw, data) = hot.raw(nodes, hot.slot_of[i] as usize, traffic);
                let cpu = n.device_cpu_from_raw(raw, now);
                let at = format!("{at}: node {i}, t {now}, traffic {traffic}");
                assert_eq!(cpu.to_bits(), n.device_cpu_percent(now, traffic).to_bits(), "{at}");
                assert_eq!(data.to_bits(), n.data_mb(traffic).to_bits(), "{at}");
            }
        };
        for seed in 1..=8u64 {
            let mut nodes = node_mix(seed, 48);
            let mut federation = Federation::new();
            let mut hot = HotState::new(&nodes, 0);
            let at = format!("seed {seed}");
            check(&mut hot, &nodes, 0, 0.2, &at);
            // a node on its own that stays on its own keeps its slot, and
            // its slot walks again at the same traffic
            let own = nodes.iter().position(|n| !n.agents_interned()).expect("a detached node");
            retune(&mut nodes[own], 0.5);
            hot.sync_slots(&mut federation, &nodes, 1);
            check(&mut hot, &nodes, 0, 0.2, &at);

            // retune a shared node, drop a hosting, offload a shared node
            let shared = nodes.iter().position(|n| n.shared_deployment().is_some()).unwrap();
            retune(&mut nodes[shared], 0.6);
            let host =
                nodes.iter().position(|n| n.agents_interned() && n.shared_deployment().is_none());
            if let Some(host) = host {
                nodes[host].drop_hosted_for(NodeId(0));
            }
            let sender = nodes.iter().position(|n| n.shared_deployment().is_some()).unwrap();
            drop(nodes[sender].offload_all_to(NodeId(1)));
            hot.sync_slots(&mut federation, &nodes, 2);
            assert_eq!(hot.reps.len(), distinct_slots(&nodes), "{at}");
            // into, inside and out of the burst window, traffic moving
            for (now, traffic) in [(1_500, 0.35), (3_000, 0.9), (4_500, 0.2)] {
                check(&mut hot, &nodes, now, traffic, &at);
            }
        }
    }

    #[test]
    fn a_hold_keeps_sample_run_values_per_node() {
        let spec = NodeSpec::aruba_8325();
        let record = Arc::new(MonitorAgent::standard_deployment());
        let held = |nodes: &[SimNode]| {
            let mut hot = HotState::new(nodes, 0);
            (1..).find(|&s| hot.hold_sample(nodes, 0.2, s as u64 * 150)).unwrap()
        };
        let own: Vec<SimNode> =
            (0..6).map(|i| SimNode::with_standard_agents(NodeId(i), spec)).collect();
        assert_eq!(held(&own), SAMPLE_RUN);
        let shared: Vec<SimNode> = (0..6)
            .map(|i| SimNode::with_shared_agents(NodeId(i), spec, Arc::clone(&record)))
            .collect();
        assert_eq!(held(&shared), SAMPLE_RUN * 6);
        // one class and four nodes on their own, 5 slots: 9 samples hold
        // 45 of the 48 values, and a tenth would pass them
        let mixed: Vec<SimNode> =
            shared[..2].iter().cloned().chain(own[2..].iter().cloned()).collect();
        assert_eq!(held(&mixed), 9);
    }

    /// Run `sim` over a hot state the test keeps, to read its counters.
    fn run_counted(mut sim: Simulation) -> (SimReport, HotState, Simulation) {
        let mut hot = HotState::new(&sim.nodes, sim.agents_version);
        let report = run_with(&mut sim, &mut hot);
        (report, hot, sim)
    }

    #[test]
    fn a_run_in_which_no_agent_moves_never_scans() {
        let builder = crate::scenarios::scale_fleet_builder(4, 10_000, 1, ObsHandle::disabled());
        let (report, hot, sim) = run_counted(builder.build().expect("a valid fleet"));
        assert_eq!((report.transfers_applied, sim.agents_version), (0, 0));
        // a STAT emission a second and a sample every 150 ms
        assert!(hot.syncs > 70, "{} syncs", hot.syncs);
        assert_eq!((hot.scans, hot.moved_syncs), (0, 0));
    }

    #[test]
    fn a_run_scans_at_the_first_sync_after_each_move() {
        // the zone-outage fat-tree with its edge switches on one shared
        // record and its core switches on a light one: offloads and drift
        // move nodes off their slot; pod 0 dies mid-run, so hostings are
        // re-homed (REP) and released
        let (ft, edges, mut nodes) = crate::scenarios::monitored_fat_tree(4);
        let (core, pod) = (ft.tier_nodes(Tier::Core), ft.pod_nodes(0));
        let record = Arc::new(MonitorAgent::standard_deployment());
        let light = Arc::new(MonitorAgent::standard_deployment()[8..].to_vec());
        for n in &mut nodes {
            let record = match core.contains(&n.id) {
                true => &light,
                false if edges.contains(&n.id) => &record,
                false => continue,
            };
            *n = SimNode::with_shared_agents(n.id, n.spec, Arc::clone(record));
        }
        let obs = ObsHandle::recording(0);
        let knobs = crate::registry::ScenarioKnobs { obs: obs.clone(), ..Default::default() };
        let mut builder = crate::registry::offload_builder(ft.graph, nodes, &knobs, 90_000)
            .drift(crate::runner::DriftConfig { links_per_tick: 1, ..Default::default() });
        for n in pod {
            builder = builder.kill_at(45_000, n).revive_at(60_000, n);
        }
        let (report, hot, _) = run_counted(builder.build().expect("valid knobs"));
        assert!(report.transfers_applied > 0, "offloads");
        assert!(report.replicas_applied > 0, "a REP");
        assert!(obs.counter("sim.releases_applied") > 0, "Releases");
        // drift retunes agents after the first offload too, when nothing
        // else moves them
        let first = report.first_transfer_ms.expect("an offload");
        let trace = obs.trace_snapshot().expect("recording");
        let retuned = trace.entries().iter().filter(|e| {
            e.t_ms > first
                && matches!(e.event, TraceEvent::DriftApplied { agents, .. } if agents > 0)
        });
        assert!(retuned.count() > 0, "drift");
        // every sync that followed a move scanned, and no other did (a
        // skip that missed a move fails the debug oracle); each scan's
        // slots were checked against a full assignment as it ran
        assert!(hot.scans > 0 && hot.scans < hot.syncs, "{} of {} syncs", hot.scans, hot.syncs);
        assert_eq!(hot.scans, hot.moved_syncs);
    }
}
