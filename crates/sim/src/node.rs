//! Simulated network device resource model.
//!
//! Models the testbed DUT — an HPE Aruba 8325-class switch with 8 CPU
//! cores, 16 GB RAM (§V-A) — as a node whose CPU and memory are the sum of
//! a switching/NOS baseline plus the analytic-engine cost of every monitor
//! agent it runs, local or hosted. Offloading physically moves agents
//! between [`SimNode`]s, so the Fig. 6 deltas fall out of the model rather
//! than being scripted.

use std::sync::Arc;

use dust_telemetry::MonitorAgent;
use dust_topology::NodeId;

/// Hardware and baseline-software profile of a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// CPU cores (the DUT has 8).
    pub cpu_cores: f64,
    /// Total memory, GiB (the DUT has 16).
    pub mem_gib: f64,
    /// Device-level CPU consumed by switching/bridging and the NOS,
    /// percent of the whole device.
    pub base_cpu_percent: f64,
    /// Memory consumed by the NOS, databases, and forwarding state, GiB.
    pub base_mem_gib: f64,
}

impl NodeSpec {
    /// The testbed DUT profile (§V-A): 8 cores, 16 GB. The baseline is
    /// calibrated so the Fig. 6 'local monitoring' readings come out at
    /// ≈ 31 % CPU and ≈ 70 % memory with the standard ten agents at 20 %
    /// line rate, and the post-offload readings at ≈ 15 % / ≈ 62 %.
    pub fn aruba_8325() -> Self {
        NodeSpec {
            cpu_cores: 8.0,
            mem_gib: 16.0,
            base_cpu_percent: 14.0,
            base_mem_gib: 9.6, // 60 % of 16 GB
        }
    }

    /// A generic server with spare capacity (offload destination).
    pub fn server() -> Self {
        NodeSpec { cpu_cores: 32.0, mem_gib: 64.0, base_cpu_percent: 5.0, base_mem_gib: 8.0 }
    }

    /// A DPU/SmartNIC profile.
    pub fn dpu() -> Self {
        NodeSpec { cpu_cores: 8.0, mem_gib: 16.0, base_cpu_percent: 3.0, base_mem_gib: 2.0 }
    }
}

/// Multiplier applied to raw agent CPU for the analytic engine's own
/// aggregation/scheduling overhead (Python engine on the NOS, §V-A).
const ENGINE_OVERHEAD: f64 = 1.0;

/// Residual device CPU% for forwarding telemetry to a remote monitor after
/// local agents are offloaded (compression + transmit stub).
const OFFLOAD_STUB_CPU_PERCENT: f64 = 1.5;

/// Residual memory (GiB) for the transmit buffers after offload.
const OFFLOAD_STUB_MEM_GIB: f64 = 0.32;

/// Periodic aggregation burst: every `BURST_PERIOD_MS` the engine runs a
/// heavy collection cycle for `BURST_LEN_MS`, multiplying monitoring CPU —
/// the "spiking to as high as 600 %" of Fig. 1.
const BURST_PERIOD_MS: u64 = 30_000;
const BURST_LEN_MS: u64 = 2_000;
const BURST_FACTOR: f64 = 6.0;

/// Storage for a node's local agent deployment. Large fleets of
/// identical nodes share one immutable deployment record
/// (`Shared`) instead of carrying hundreds of owned copies of the same
/// agent structs per node; the first mutation detaches the node onto its
/// own copy (copy-on-write), so per-node divergence — drift retuning,
/// budgeted offload, reclaim — still works exactly as before.
#[derive(Debug, Clone)]
enum AgentStore {
    /// One deployment record interned across every node of a class.
    Shared(Arc<Vec<MonitorAgent>>),
    /// This node's private, divergent agent list.
    Owned(Vec<MonitorAgent>),
}

impl AgentStore {
    fn as_slice(&self) -> &[MonitorAgent] {
        match self {
            AgentStore::Shared(a) => a,
            AgentStore::Owned(v) => v,
        }
    }

    /// Copy-on-write access: a shared record is first detached into an
    /// owned copy so the mutation never bleeds into sibling nodes.
    fn to_mut(&mut self) -> &mut Vec<MonitorAgent> {
        if let AgentStore::Shared(a) = self {
            *self = AgentStore::Owned(a.as_ref().clone());
        }
        match self {
            AgentStore::Owned(v) => v,
            AgentStore::Shared(_) => unreachable!("detached above"),
        }
    }
}

/// A simulated device.
#[derive(Debug, Clone)]
pub struct SimNode {
    /// Topology identity.
    pub id: NodeId,
    /// Hardware profile.
    pub spec: NodeSpec,
    /// Agents monitoring *this* node, running locally (not yet offloaded).
    /// Read via [`SimNode::local_agents`]; mutate via
    /// [`SimNode::local_agents_mut`] (copy-on-write when interned).
    local_agents: AgentStore,
    /// How many agents monitoring this node run remotely
    /// ([`SimNode::remote_agents`]).
    remote: usize,
    /// Agents this node hosts on behalf of others: `(owner, agent)`.
    pub hosted_agents: Vec<(NodeId, MonitorAgent)>,
    /// Bumped on every agent-list mutation; lets callers cache derived
    /// sums (CPU/memory/data) and invalidate them precisely. Code that
    /// mutates the public agent vectors directly must call
    /// [`SimNode::note_agents_changed`].
    epoch: u64,
}

impl SimNode {
    /// A node with the standard ten-agent deployment.
    pub fn with_standard_agents(id: NodeId, spec: NodeSpec) -> Self {
        SimNode {
            id,
            spec,
            local_agents: AgentStore::Owned(MonitorAgent::standard_deployment()),
            remote: 0,
            hosted_agents: Vec::new(),
            epoch: 0,
        }
    }

    /// A node sharing an interned deployment record with its siblings —
    /// fleet construction hands every node of a class the *same*
    /// `Arc<Vec<MonitorAgent>>` instead of materialising hundreds of
    /// identical agent structs per node. The node detaches onto its own
    /// copy the moment anything mutates its local agent list.
    pub fn with_shared_agents(id: NodeId, spec: NodeSpec, agents: Arc<Vec<MonitorAgent>>) -> Self {
        SimNode {
            id,
            spec,
            local_agents: AgentStore::Shared(agents),
            remote: 0,
            hosted_agents: Vec::new(),
            epoch: 0,
        }
    }

    /// A node with no monitoring deployed.
    pub fn bare(id: NodeId, spec: NodeSpec) -> Self {
        SimNode {
            id,
            spec,
            local_agents: AgentStore::Owned(Vec::new()),
            remote: 0,
            hosted_agents: Vec::new(),
            epoch: 0,
        }
    }

    /// The agents monitoring this node that run locally.
    pub fn local_agents(&self) -> &[MonitorAgent] {
        self.local_agents.as_slice()
    }

    /// Mutable access to the local agent list. If the deployment record
    /// is interned ([`SimNode::with_shared_agents`]) this detaches the
    /// node onto a private copy first. Callers that mutate through this
    /// must still call [`SimNode::note_agents_changed`].
    pub fn local_agents_mut(&mut self) -> &mut Vec<MonitorAgent> {
        self.local_agents.to_mut()
    }

    /// Whether this node still shares an interned deployment record
    /// (i.e. nothing has mutated its local agent list yet).
    pub fn agents_interned(&self) -> bool {
        matches!(self.local_agents, AgentStore::Shared(_))
    }

    /// The interned record that is this node's *whole* agent walk: its
    /// local agents are still shared and it hosts nobody else's. Nodes
    /// returning the same `Arc` get bit-identical [`SimNode::raw_agent_cpu`],
    /// [`SimNode::data_mb`] and [`SimNode::agent_mem_gib`], so one walk of
    /// the record prices them all.
    pub fn shared_deployment(&self) -> Option<&Arc<Vec<MonitorAgent>>> {
        match &self.local_agents {
            AgentStore::Shared(record) if self.hosted_agents.is_empty() => Some(record),
            _ => None,
        }
    }

    /// Current agent-list epoch: changes whenever a cached derivation of
    /// the agent lists (CPU sum, memory, data volume) could be stale.
    pub fn agents_epoch(&self) -> u64 {
        self.epoch
    }

    /// Declare that the agent vectors were mutated directly (outside the
    /// methods below), invalidating any epoch-keyed cache.
    pub fn note_agents_changed(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Raw agent CPU sum in percent of one core at `traffic_fraction` —
    /// local agents then hosted agents, before engine overhead and bursts.
    /// This is the expensive per-agent walk the event core keeps once per
    /// slot (a group of nodes whose values are equal), keyed on the
    /// representative's [`SimNode::agents_epoch`].
    pub fn raw_agent_cpu(&self, traffic_fraction: f64) -> f64 {
        self.local_agents
            .as_slice()
            .iter()
            .chain(self.hosted_agents.iter().map(|(_, a)| a))
            .map(|a| a.cpu_percent(traffic_fraction))
            .sum()
    }

    /// Monitoring CPU (percent of one core) from a precomputed
    /// [`SimNode::raw_agent_cpu`] sum: engine overhead plus the periodic
    /// aggregation burst. Shared by the cached and uncached paths so the
    /// arithmetic is bit-identical.
    pub fn monitoring_cpu_from_raw(raw_cpu: f64, now_ms: u64) -> f64 {
        let mut cpu = raw_cpu * ENGINE_OVERHEAD;
        if now_ms % BURST_PERIOD_MS < BURST_LEN_MS {
            cpu *= BURST_FACTOR;
        }
        cpu
    }

    /// Monitoring-module CPU in percent **of one core** at `now_ms`, the
    /// Fig. 1 metric: agent cost × engine overhead, with periodic
    /// aggregation bursts. Includes hosted agents (they run in the same
    /// engine).
    pub fn monitoring_cpu_core_percent(&self, now_ms: u64, traffic_fraction: f64) -> f64 {
        Self::monitoring_cpu_from_raw(self.raw_agent_cpu(traffic_fraction), now_ms)
    }

    /// Device CPU from a precomputed raw agent sum (cached-path variant of
    /// [`SimNode::device_cpu_percent`]; identical arithmetic).
    pub fn device_cpu_from_raw(&self, raw_cpu: f64, now_ms: u64) -> f64 {
        let monitoring = Self::monitoring_cpu_from_raw(raw_cpu, now_ms) / self.spec.cpu_cores;
        let stub = if self.remote == 0 { 0.0 } else { OFFLOAD_STUB_CPU_PERCENT };
        (self.spec.base_cpu_percent + monitoring + stub).min(100.0)
    }

    /// Device-level CPU utilization percent (all cores) — what a `STAT`
    /// message reports as `C_i`.
    pub fn device_cpu_percent(&self, now_ms: u64, traffic_fraction: f64) -> f64 {
        self.device_cpu_from_raw(self.raw_agent_cpu(traffic_fraction), now_ms)
    }

    /// Memory the agents take with their engine, GiB — local agents then
    /// hosted agents: the per-agent walk of [`SimNode::device_mem_percent`].
    pub fn agent_mem_gib(&self) -> f64 {
        self.local_agents
            .as_slice()
            .iter()
            .chain(self.hosted_agents.iter().map(|(_, a)| a))
            .map(|a| a.kind.mem_mib() / 1024.0)
            .sum::<f64>()
            * 1.3 // engine + TSDB overhead
    }

    /// Device memory utilization percent.
    pub fn device_mem_percent(&self) -> f64 {
        let stub = if self.remote == 0 { 0.0 } else { OFFLOAD_STUB_MEM_GIB };
        ((self.spec.base_mem_gib + self.agent_mem_gib() + stub) / self.spec.mem_gib * 100.0)
            .min(100.0)
    }

    /// Telemetry data volume this node must ship per interval if its local
    /// agents were monitored remotely (`D_i`, Mb).
    pub fn data_mb(&self, traffic_fraction: f64) -> f64 {
        self.local_agents.as_slice().iter().map(|a| a.data_mb_per_interval(traffic_fraction)).sum()
    }

    /// How many of this node's agents run elsewhere: offloaded, and not
    /// yet reclaimed. Where each one runs is on its host's
    /// [`SimNode::hosted_agents`], as `(owner, agent)`.
    pub fn remote_agents(&self) -> usize {
        self.remote
    }

    /// Move up to `cpu_budget_percent` (device-level percent) of local
    /// agent load off this node, largest agents first. Returns the agents
    /// moved as `(this node, agent)` entries for their host's
    /// [`SimNode::host_agents`]. Used when the Manager's placement grants
    /// this node an offload of `amount` capacity-percent.
    pub fn offload_agents(
        &mut self,
        cpu_budget_percent: f64,
        traffic_fraction: f64,
    ) -> Vec<(NodeId, MonitorAgent)> {
        self.note_agents_changed();
        // device-level contribution of one agent (sampling-aware)
        let cores = self.spec.cpu_cores;
        let device_cost =
            |a: &MonitorAgent| a.cpu_percent(traffic_fraction) * ENGINE_OVERHEAD / cores;
        // largest first so few agents cover the budget
        let locals = self.local_agents.to_mut();
        locals.sort_by(|a, b| {
            device_cost(b).partial_cmp(&device_cost(a)).unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut moved = Vec::new();
        let mut budget = cpu_budget_percent;
        let mut i = 0;
        while i < locals.len() {
            let c = device_cost(&locals[i]);
            if c <= budget + 1e-9 {
                budget -= c;
                moved.push((self.id, locals.remove(i)));
            } else {
                i += 1;
            }
        }
        self.remote += moved.len();
        moved
    }

    /// Offload *every* local agent — the testbed's Fig. 6 experiment,
    /// where the whole monitoring deployment moves — as
    /// [`SimNode::offload_agents`] returns them.
    pub fn offload_all(&mut self) -> Vec<(NodeId, MonitorAgent)> {
        self.note_agents_changed();
        let local = std::mem::replace(&mut self.local_agents, AgentStore::Owned(Vec::new()));
        let moved: Vec<_> = local.as_slice().iter().map(|&a| (self.id, a)).collect();
        self.remote += moved.len();
        moved
    }

    /// Run `entries`, `(owner, agent)` pairs, here: the one way onto
    /// [`SimNode::hosted_agents`].
    pub fn host_agents(&mut self, entries: impl IntoIterator<Item = (NodeId, MonitorAgent)>) {
        self.note_agents_changed();
        self.hosted_agents.extend(entries);
    }

    /// Take the hosted entries of `owner`, or of every owner with `None`,
    /// in hosting order: to move them onto another host (a REP, §III-C, or
    /// a Busy host redirecting its workload, §III-B) or back onto their
    /// owner ([`SimNode::reclaim`]).
    pub fn take_hosted(&mut self, owner: Option<NodeId>) -> Vec<(NodeId, MonitorAgent)> {
        self.note_agents_changed();
        self.hosted_agents.extract_if(.., |(o, _)| owner.is_none_or(|w| w == *o)).collect()
    }

    /// Reclaim: run this node's `entries`, taken off their host with
    /// [`SimNode::take_hosted`], locally again, in their hosting order.
    pub fn reclaim(&mut self, entries: Vec<(NodeId, MonitorAgent)>) {
        self.note_agents_changed();
        if entries.is_empty() {
            return;
        }
        debug_assert!(entries.iter().all(|(o, _)| *o == self.id), "only the owner reclaims");
        self.remote -= entries.len();
        self.local_agents.to_mut().extend(entries.into_iter().map(|(_, a)| a));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dut() -> SimNode {
        SimNode::with_standard_agents(NodeId(0), NodeSpec::aruba_8325())
    }

    /// `agents` as hosted entries of `owner`.
    fn of(owner: u32, agents: &[MonitorAgent]) -> Vec<(NodeId, MonitorAgent)> {
        agents.iter().map(|&a| (NodeId(owner), a)).collect()
    }

    #[test]
    fn fig1_average_and_spike_calibration() {
        let n = dut();
        // outside a burst window the module reads its steady ≈ 100 % of
        // one core
        let calm = n.monitoring_cpu_core_percent(10_000, 0.2);
        assert!((calm - 100.0).abs() < 5.0, "calm {calm}");
        // during a burst the module spikes toward 600+ %
        let burst = n.monitoring_cpu_core_percent(1_000, 0.2); // inside burst window
        assert!(burst > 500.0, "burst {burst}");
    }

    #[test]
    fn fig6_local_readings() {
        let n = dut();
        // time-averaged device CPU over a full burst period ≈ 31 %
        let samples: Vec<f64> = (0..60u64).map(|s| n.device_cpu_percent(s * 1000, 0.2)).collect();
        let cpu = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((cpu - 31.0).abs() < 2.0, "local CPU {cpu}");
        // steady (burst-free) instantaneous reading sits lower
        let calm = n.device_cpu_percent(10_000, 0.2);
        assert!((calm - 26.5).abs() < 1.0, "calm CPU {calm}");
        // memory ≈ (9.6 + 1.17*1.3) / 16 ≈ 69–70 %
        let mem = n.device_mem_percent();
        assert!((mem - 70.0).abs() < 2.0, "local mem {mem}");
    }

    #[test]
    fn fig6_offloaded_readings() {
        let mut n = dut();
        let moved = n.offload_all();
        assert_eq!((moved.len(), n.remote_agents()), (10, 10));
        let cpu = n.device_cpu_percent(10_000, 0.2);
        assert!((cpu - 15.5).abs() < 1.0, "offloaded CPU {cpu}");
        let mem = n.device_mem_percent();
        assert!((mem - 62.0).abs() < 1.0, "offloaded mem {mem}");
    }

    #[test]
    fn hosting_raises_host_cost() {
        let mut host = SimNode::bare(NodeId(1), NodeSpec::server());
        let before = host.device_cpu_percent(10_000, 0.2);
        host.host_agents(of(0, &MonitorAgent::standard_deployment()));
        let after = host.device_cpu_percent(10_000, 0.2);
        assert!(after > before);
        // a 32-core server absorbs the same engine load with ~4x less
        // device-level impact than the 8-core DUT
        assert!((after - before - 100.0 / 32.0).abs() < 0.5);
    }

    #[test]
    fn budgeted_offload_moves_largest_first() {
        let mut n = dut();
        let traffic = 0.2;
        let moved = n.offload_agents(10.0, traffic);
        assert!(!moved.is_empty());
        assert!(moved.len() < 10, "10 % budget must not take everything");
        // the first moved agent is the most expensive one
        let costs: Vec<f64> = moved.iter().map(|(_, a)| a.kind.cpu_percent(traffic)).collect();
        assert!(costs.windows(2).all(|w| w[0] >= w[1]));
        // remaining + moved = 10
        assert_eq!(n.local_agents().len() + moved.len(), 10);
        assert_eq!(n.remote_agents(), moved.len());
    }

    #[test]
    fn reclaim_round_trip() {
        let mut dut = dut();
        let mut host = SimNode::bare(NodeId(2), NodeSpec::server());
        host.host_agents(of(7, &MonitorAgent::standard_deployment()[..2]));
        let moved = dut.offload_all();
        host.host_agents(moved.clone());
        assert_eq!((dut.local_agents().len(), dut.remote_agents()), (0, 10));
        assert_eq!(host.hosted_agents.len(), 12);

        // the owner takes back its own entries, in hosting order
        let back = host.take_hosted(Some(NodeId(0)));
        assert_eq!(back, moved);
        dut.reclaim(back);
        assert_eq!(dut.local_agents(), MonitorAgent::standard_deployment());
        assert_eq!(dut.remote_agents(), 0);
        assert_eq!(host.hosted_agents, of(7, &MonitorAgent::standard_deployment()[..2]));
        // back to the calm (burst-free) local reading: 14 + 100/8 = 26.5
        let cpu = dut.device_cpu_percent(10_000, 0.2);
        assert!((cpu - 26.5).abs() < 1.0);
    }

    #[test]
    fn data_volume_positive() {
        let n = dut();
        assert!(n.data_mb(0.2) > 0.0);
        assert!(n.data_mb(0.8) > n.data_mb(0.0));
    }

    #[test]
    fn epoch_tracks_every_mutation() {
        let mut n = dut();
        let e0 = n.agents_epoch();
        let moved = n.offload_all();
        assert_ne!(n.agents_epoch(), e0, "offload must bump the epoch");
        let mut host = SimNode::bare(NodeId(2), NodeSpec::server());
        let eh = host.agents_epoch();
        host.host_agents(moved);
        assert_ne!(host.agents_epoch(), eh);
        let eh = host.agents_epoch();
        let back = host.take_hosted(None);
        assert_eq!(back.len(), 10);
        assert_ne!(host.agents_epoch(), eh);
        let e1 = n.agents_epoch();
        n.reclaim(back);
        assert_ne!(n.agents_epoch(), e1);
        // taking or reclaiming nothing still bumps: the callers' caches
        // key on the epoch, never on what moved
        let (eh, e2) = (host.agents_epoch(), n.agents_epoch());
        n.reclaim(host.take_hosted(Some(NodeId(0))));
        assert_ne!(host.agents_epoch(), eh);
        assert_ne!(n.agents_epoch(), e2);
        let e3 = n.agents_epoch();
        n.offload_agents(10.0, 0.2);
        assert_ne!(n.agents_epoch(), e3);
    }

    #[test]
    fn cached_raw_cpu_matches_fresh_compute() {
        let n = dut();
        let raw = n.raw_agent_cpu(0.2);
        for t in [0u64, 1_000, 10_000, 31_000] {
            assert_eq!(
                SimNode::device_cpu_from_raw(&n, raw, t),
                n.device_cpu_percent(t, 0.2),
                "cached path must be bit-identical at t={t}"
            );
            assert_eq!(
                SimNode::monitoring_cpu_from_raw(raw, t),
                n.monitoring_cpu_core_percent(t, 0.2)
            );
        }
    }

    #[test]
    fn shared_deployment_detaches_on_first_mutation() {
        let record = Arc::new(MonitorAgent::standard_deployment());
        let mut a =
            SimNode::with_shared_agents(NodeId(0), NodeSpec::aruba_8325(), Arc::clone(&record));
        let b = SimNode::with_shared_agents(NodeId(1), NodeSpec::aruba_8325(), Arc::clone(&record));
        // reads never detach, and shared nodes price identically to owned
        let owned = SimNode::with_standard_agents(NodeId(2), NodeSpec::aruba_8325());
        assert_eq!(a.raw_agent_cpu(0.2), owned.raw_agent_cpu(0.2));
        assert_eq!(a.device_mem_percent(), owned.device_mem_percent());
        assert_eq!(a.data_mb(0.2), owned.data_mb(0.2));
        assert!(a.agents_interned() && b.agents_interned());
        // the first mutation peels `a` off onto its own copy; `b` and the
        // interned record itself are untouched
        let moved = a.offload_agents(10.0, 0.2);
        assert!(!moved.is_empty());
        assert!(!a.agents_interned());
        assert!(b.agents_interned());
        assert_eq!(record.len(), 10);
        assert_eq!(b.local_agents().len(), 10);
        assert_eq!(a.local_agents().len() + moved.len(), 10);
    }

    #[test]
    fn a_node_is_its_shared_deployment_until_it_detaches_or_hosts() {
        let record = Arc::new(MonitorAgent::standard_deployment());
        let on =
            |id| SimNode::with_shared_agents(NodeId(id), NodeSpec::server(), Arc::clone(&record));
        let shared = on(0);
        assert!(shared.shared_deployment().is_some_and(|r| Arc::ptr_eq(r, &record)));
        assert!(dut().shared_deployment().is_none(), "owned agents are nobody's record");
        let mut hosting = on(1);
        hosting.host_agents(of(7, &MonitorAgent::standard_deployment()[..1]));
        assert!(hosting.agents_interned() && hosting.shared_deployment().is_none());
        let mut detached = on(2);
        detached.local_agents_mut()[0].sampling = None;
        assert!(detached.shared_deployment().is_none());
    }

    #[test]
    fn cpu_clamped_at_100() {
        let mut n = dut();
        // host five more full deployments to overload
        for i in 0..5 {
            n.host_agents(of(10 + i, &MonitorAgent::standard_deployment()));
        }
        assert!(n.device_cpu_percent(0, 1.0) <= 100.0);
    }
}
