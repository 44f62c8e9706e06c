//! The network simulator: D-BGP speakers on a topology of delayed
//! links, an out-of-band service bus, and a data plane with
//! multi-network-protocol encapsulation — the workspace's substitute for
//! the paper's MiniNeXT testbed (DESIGN.md §2).
//!
//! Control-plane messages are real wire bytes: every IA is encoded with
//! the TLV codec at the sender and decoded at the receiver, so the
//! simulator exercises exactly the serialization path the §5 stress test
//! measures.
//!
//! Links carry an optional [`LinkModel`] (seeded jitter, loss,
//! duplication, corruption) and can be failed, restored and flapped at
//! runtime; nodes can be restarted (session reset + full-table
//! re-transfer). All randomness flows through one seeded
//! [`SimRng`](crate::link::SimRng), so a run is fully determined by its
//! construction sequence and seed — the property the `dbgp-chaos` crate
//! builds its fault-injection harness on.

use crate::engine::{EventQueue, SimTime};
use crate::link::LinkModel;
use crate::link::SimRng;
use bytes::Bytes;
use dbgp_core::{
    render_path, DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, DbgpUpdate, NeighborId,
    PeerClass,
};
use dbgp_protocols::{MiroPortal, MiroRequest};
use dbgp_rib::PrefixTrie;
use dbgp_telemetry::{
    CounterId, EventId, GaugeId, HistogramId, MetricsRegistry, Semantics, TraceKind, TraceRecorder,
};
use dbgp_wire::{EncodedIa, Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;

/// Index of a node (one AS) in the simulation.
pub type NodeId = usize;

/// Canonical undirected key for a link between two nodes.
fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

/// Causal annotations riding with a [`Event::Deliver`] when tracing is
/// on: the ids the receiver needs to chain its Deliver/Decode events to
/// the sender's Transmit/Advertise events. `None` in the untraced (and
/// therefore hot) configuration, so the only cost there is the pointer.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DeliverTrace {
    /// The sender's Transmit event for this frame.
    frame: EventId,
    /// Per-element causes in frame order (withdraws first, then IAs):
    /// the sender-side Withdraw/Advertise events.
    causes: Vec<EventId>,
}

/// What travels on the simulated wires and bus.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    /// Control-plane bytes arriving on a link. The buffer is refcounted:
    /// a fan-out or a duplicating link shares one allocation, and only a
    /// corrupting fault model copies (copy-on-corrupt).
    Deliver { to: NodeId, from: NodeId, bytes: Bytes, trace: Option<Box<DeliverTrace>> },
    /// MRAI window expired: flush pending advertisements to a neighbor.
    Flush { node: NodeId, neighbor: NeighborId },
    /// Out-of-band request to a service address.
    OobRequest { to_addr: Ipv4Addr, from: NodeId, payload: Vec<u8> },
    /// Out-of-band response back to a node.
    OobResponse { to: NodeId, from_addr: Ipv4Addr, payload: Vec<u8> },
}

/// A service reachable over the out-of-band bus (the paper's portals,
/// §3.4).
pub enum Service {
    /// A module inbox: forwards raw payloads into the owning node's
    /// decision module for the given protocol via
    /// `DecisionModule::deliver_oob` (Wiser's cost-exchange portal,
    /// HLP's intra-island LSA flooding).
    ModuleInbox(ProtocolId),
    /// A MIRO service portal: negotiates alternate paths for payment.
    Miro(MiroPortal),
}

/// A coalesced outbound advertisement: the latest IA for a prefix
/// (`None` = withdraw) plus the trace event that caused it.
type PendingAdvert = (Option<Arc<Ia>>, Option<EventId>);

struct Node {
    speaker: DbgpSpeaker,
    /// Neighbor ID -> peer node.
    neighbor_nodes: BTreeMap<NeighborId, NodeId>,
    /// Peer node -> our neighbor ID for it.
    ids_by_node: HashMap<NodeId, NeighborId>,
    /// Forwarding table maintained from `BestChanged` outputs.
    fib: PrefixTrie<Option<NodeId>>,
    /// This node's own address (used as IA next-hop and for tunnels).
    addr: Ipv4Addr,
    /// Out-of-band responses received, for inspection by drivers.
    oob_inbox: Vec<(Ipv4Addr, Vec<u8>)>,
    next_neighbor_id: u32,
    /// Coalesced outbound state per neighbor: prefix -> latest IA
    /// (`None` = withdraw), flushed when the MRAI window closes. The
    /// `Arc` is shared with the speaker's Adj-RIB-Out.
    pending_out: HashMap<NeighborId, BTreeMap<Ipv4Prefix, PendingAdvert>>,
    /// Neighbors with a Flush already scheduled.
    flush_armed: std::collections::HashSet<NeighborId>,
    /// Adj-RIB-Out encode cache: wire bytes for an outgoing IA, keyed by
    /// the `Arc`'s pointer identity (the speaker hands the *same* `Arc`
    /// to every neighbor of a class and across re-advertisements of an
    /// unchanged best path, so identity is exactly "same chosen-IA
    /// generation"). Each entry pins its `Arc` so a recycled allocation
    /// can never alias a live key.
    encode_cache: PtrMap<EncodeCacheEntry>,
    /// Per-incarnation control-plane counters (see [`NodeCounters`]).
    counters: NodeCounters,
}

/// Per-node control-plane counters with explicit restart semantics
/// (`reset-on-restart`): a node restart zeroes them and bumps
/// `generation`, so a reader can tell "1000 messages since boot" from
/// "1000 messages across three incarnations". Engine-wide totals in
/// [`SimStats`] accumulate regardless.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Incarnation number: 0 at creation, +1 per restart.
    pub generation: u64,
    /// Control-plane frames delivered to this node this incarnation.
    pub messages_in: u64,
    /// IA announcements decoded at this node this incarnation.
    pub updates_in: u64,
    /// Withdraws decoded at this node this incarnation.
    pub withdraws_in: u64,
    /// Best-path changes at this node this incarnation.
    pub best_changes: u64,
}

/// Handles into the simulator's [`MetricsRegistry`]. Engine-wide totals
/// are mirrored from [`SimStats`] at snapshot time (keeping the hot path
/// byte-identical to the pre-telemetry engine); histograms are observed
/// inline.
struct SimMetrics {
    registry: MetricsRegistry,
    /// One counter per [`SimStats::totals`] entry, in that order.
    totals: [CounterId; SimStats::TOTALS],
    node_restarts: CounterId,
    pending_events: GaugeId,
    last_event_at: GaugeId,
    message_bytes: HistogramId,
    flush_batch: HistogramId,
}

impl SimMetrics {
    fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        let acc = Semantics::Accumulate;
        SimMetrics {
            totals: SimStats::default().totals().map(|(name, _)| registry.counter(name, acc)),
            node_restarts: registry.counter("sim.node_restarts_total", acc),
            pending_events: registry.gauge("sim.pending_events"),
            last_event_at: registry.gauge("sim.last_event_at"),
            message_bytes: registry.histogram("sim.message_bytes", acc),
            flush_batch: registry.histogram("sim.flush_batch_prefixes", acc),
            registry,
        }
    }
}

/// Hasher for pointer-keyed caches: the key is an `Arc` address, so one
/// Fibonacci multiply spreads it well enough and the SipHash setup cost
/// disappears from the per-send hot path. Never iterated, so the hash
/// choice cannot leak into event ordering.
#[derive(Default)]
struct PtrHasher(u64);

impl std::hash::Hasher for PtrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (n as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PtrMap<V> = HashMap<usize, V, std::hash::BuildHasherDefault<PtrHasher>>;

/// Cached wire form of one outgoing IA.
struct EncodeCacheEntry {
    /// Pins the IA so the pointer key stays unique while cached.
    _ia: Arc<Ia>,
    /// The encoded IA body (the unit batched frames are assembled from):
    /// the tail end of `announce`, not a buffer of its own.
    body: Bytes,
    /// A ready-made single-IA announce frame (the common MRAI flush).
    announce: Bytes,
}

/// Entries per node before the encode cache is wiped (a crude bound; a
/// routing table that cycles through this many distinct outgoing IAs
/// inside one epoch is churning too hard to cache anyway).
const ENCODE_CACHE_CAP: usize = 8192;

/// One adjacency's static parameters plus its administrative state.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    delay: SimTime,
    same_island: bool,
    speaks_dbgp: bool,
    model: LinkModel,
    up: bool,
    /// Gao-Rexford annotation, if any: how each end sees the other,
    /// ordered `(lower-id end's view, higher-id end's view)` to match
    /// the `link_key` normalization. `None` (every classic scenario)
    /// leaves the adjacency exempt from valley-free filtering.
    classes: Option<(PeerClass, PeerClass)>,
}

/// Counters the experiments read out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Control-plane messages delivered.
    pub messages: u64,
    /// Total control-plane bytes delivered.
    pub bytes: u64,
    /// Out-of-band requests served.
    pub oob_requests: u64,
    /// Simulated time of the last processed event (convergence time).
    pub last_event_at: SimTime,
    /// Deliveries whose bytes failed to decode (corruption, or a driver
    /// injecting garbage). Previously these were silently swallowed.
    pub decode_errors: u64,
    /// Deliveries that arrived after their adjacency was torn down
    /// (in-flight messages racing a link failure or node restart).
    pub orphaned_deliveries: u64,
    /// Messages dropped in flight by a lossy [`LinkModel`].
    pub dropped_messages: u64,
    /// Extra copies delivered by a duplicating [`LinkModel`].
    pub duplicated_messages: u64,
    /// Messages with a byte flipped in flight by a corrupting
    /// [`LinkModel`].
    pub corrupted_messages: u64,
    /// Total `BestChanged` decisions across all nodes (route churn).
    pub best_changes: u64,
    /// IA bodies freshly serialized on the send path, plus withdraw-only
    /// frames (which carry no cacheable IA body).
    pub updates_encoded: u64,
    /// IA bodies whose wire bytes were reused from the Adj-RIB-Out
    /// encode cache instead of being re-serialized.
    pub encode_cache_hits: u64,
    /// Freshly serialized IA bodies whose tail records were shared with
    /// the frame they arrived in (pass-through as a splice) instead of
    /// written again. The encoder declined on the other
    /// `updates_encoded - tails_spliced`.
    pub tails_spliced: u64,
}

impl SimStats {
    /// How many totals [`totals`](Self::totals) lists.
    pub const TOTALS: usize = 12;

    /// Every running total — each field but the `last_event_at`
    /// timestamp — under the counter name it has in a
    /// `dbgp-metrics/v1` snapshot. The one list
    /// [`Sim::metrics_snapshot`] registers and mirrors from.
    pub fn totals(&self) -> [(&'static str, u64); Self::TOTALS] {
        [
            ("sim.messages_total", self.messages),
            ("sim.bytes_total", self.bytes),
            ("sim.best_changes_total", self.best_changes),
            ("sim.decode_errors_total", self.decode_errors),
            ("sim.orphaned_deliveries_total", self.orphaned_deliveries),
            ("sim.dropped_messages_total", self.dropped_messages),
            ("sim.duplicated_messages_total", self.duplicated_messages),
            ("sim.corrupted_messages_total", self.corrupted_messages),
            ("sim.oob_requests_total", self.oob_requests),
            ("sim.updates_encoded_total", self.updates_encoded),
            ("sim.encode_cache_hits_total", self.encode_cache_hits),
            ("sim.tails_spliced_total", self.tails_spliced),
        ]
    }
}

/// Per-(node, prefix) route-churn record, maintained on every
/// `BestChanged` a speaker emits. The chaos crate's convergence tracker
/// diffs snapshots of these to measure per-fault churn and convergence
/// times.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefixChurn {
    /// How many times this node's best path for the prefix changed.
    pub best_changes: u64,
    /// Simulated time of the most recent change.
    pub last_change_at: SimTime,
}

/// One recorded best-path change, emitted by the bounded-horizon
/// oscillation capture ([`Sim::capture_best_changes`]). The stability
/// suite analyzes the tail of this sequence for periodicity: a
/// non-quiescent run whose `(node, prefix, next)` tail repeats is a
/// route-flapping livelock observed in the production engine, not just
/// in the reference model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestChange {
    /// Simulated time of the change.
    pub at: SimTime,
    /// The node whose Loc-RIB changed.
    pub node: NodeId,
    /// The affected prefix.
    pub prefix: Ipv4Prefix,
    /// Whether a route is installed after the change (`false` =
    /// withdrawn / unreachable).
    pub installed: bool,
    /// The new FIB next hop; `None` when withdrawn or locally
    /// originated.
    pub next: Option<NodeId>,
}

/// Ring buffer behind [`Sim::capture_best_changes`]: keeps the most
/// recent `cap` changes (the tail is what periodicity analysis needs;
/// the transient before it is disposable).
#[derive(Debug, Clone, Default)]
struct BestChangeCapture {
    cap: usize,
    records: VecDeque<BestChange>,
}

impl BestChangeCapture {
    fn record(&mut self, change: BestChange) {
        if self.records.len() == self.cap {
            self.records.pop_front();
        }
        if self.cap > 0 {
            self.records.push_back(change);
        }
    }
}

/// The simulator.
pub struct Sim {
    nodes: Vec<Node>,
    /// Undirected link state, keyed by `(min, max)` node pair.
    links: BTreeMap<(NodeId, NodeId), LinkState>,
    services: HashMap<Ipv4Addr, (NodeId, Service)>,
    queue: EventQueue<Event>,
    stats: SimStats,
    /// The bodies of the frame [`Sim::emit`] is assembling. Kept (empty)
    /// between frames so a batched flush allocates no list of them.
    frame_bodies: Vec<EncodedIa>,
    /// Route-churn records per (node, prefix).
    churn: BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn>,
    /// Seeded RNG driving link perturbation models. Only consumed for
    /// links with a non-default model, so fault-free runs are identical
    /// to runs before link models existed.
    rng: SimRng,
    /// Default one-way delay for the out-of-band bus.
    oob_delay: SimTime,
    /// Minimum route advertisement interval: outbound updates to a
    /// neighbor are coalesced per prefix over this window, BGP's
    /// classic damper for transient churn (and the reason real-world
    /// policy oscillations burn bandwidth instead of CPU). Latest state
    /// wins within a window.
    mrai: SimTime,
    /// Where control-plane events are recorded; `None` (one predictable
    /// branch per instrumentation site) unless
    /// [`Sim::enable_telemetry`] was called.
    recorder: Option<Rc<TraceRecorder>>,
    /// Metrics registry mirrored from [`SimStats`] at snapshot time.
    metrics: SimMetrics,
    /// Link-delay accumulators: the calendar queue's day width is tuned
    /// to the mean link delay at first run.
    delay_sum: SimTime,
    delay_count: u64,
    width_tuned: bool,
    /// Bounded-horizon oscillation capture; `None` (the default) is
    /// completely inert — no state, no branches taken, no output
    /// change, so pinned golden results are unaffected.
    capture: Option<BestChangeCapture>,
    /// Per-phase wall-time accumulators ([`Sim::enable_phase_timing`]);
    /// `None` (the default) keeps the hot path to one predictable
    /// branch per instrumentation site.
    phase_timing: Option<Box<PhaseTimes>>,
}

/// Wall-clock nanoseconds attributed to each stage of the delivery hot
/// path, collected only when [`Sim::enable_phase_timing`] was called.
/// `decode` covers frame decoding, `decide` the receiving speakers'
/// import/decision work, `encode` outbound wire-byte assembly, and
/// `queue` delivery scheduling (including link-model application).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Nanoseconds spent decoding inbound frames.
    pub decode_ns: u64,
    /// Nanoseconds spent in speaker receive/decision processing.
    pub decide_ns: u64,
    /// Nanoseconds spent assembling outbound wire bytes.
    pub encode_ns: u64,
    /// Nanoseconds spent scheduling deliveries onto links.
    pub queue_ns: u64,
}

/// Which [`PhaseTimes`] bucket an instrumented span belongs to.
#[derive(Clone, Copy)]
enum Phase {
    Decode,
    Decide,
    Encode,
    Queue,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// An empty simulation.
    pub fn new() -> Self {
        Sim {
            nodes: Vec::new(),
            links: BTreeMap::new(),
            services: HashMap::new(),
            queue: EventQueue::new(),
            stats: SimStats::default(),
            frame_bodies: Vec::new(),
            churn: BTreeMap::new(),
            rng: SimRng::new(0),
            oob_delay: 5,
            mrai: 30,
            recorder: None,
            metrics: SimMetrics::new(),
            delay_sum: 0,
            delay_count: 0,
            width_tuned: false,
            capture: None,
            phase_timing: None,
        }
    }

    /// No-op. The windowed and sharded engines are gone and [`Sim::run`]
    /// is the one serial loop; this shell survives only because
    /// `benchmark/src/sims.rs` (frozen outside `[benchmark]` PRs) still
    /// calls `sim.set_threads(1)`. Delete it in the next `[benchmark]`
    /// PR, together with those two calls.
    #[doc(hidden)]
    pub fn set_threads(&mut self, _: usize) {}

    /// Attach a recorder: every control-plane action from here on —
    /// the simulator's own and what the speakers report back — is
    /// recorded as a causally linked [`dbgp_telemetry::TraceEvent`].
    /// Node -> ASN labels are registered with the recorder (nodes added
    /// later register at [`Sim::add_node`] time).
    pub fn enable_telemetry(&mut self, recorder: Rc<TraceRecorder>) {
        for (i, node) in self.nodes.iter().enumerate() {
            recorder.set_node_asn(i as u32, node.speaker.asn());
        }
        self.recorder = Some(recorder);
    }

    /// The recorder attached by [`Sim::enable_telemetry`], if any.
    pub fn trace_recorder(&self) -> Option<&Rc<TraceRecorder>> {
        self.recorder.as_ref()
    }

    /// Change the minimum route advertisement interval (0 sends every
    /// change at once, one element per frame).
    pub fn set_mrai(&mut self, mrai: SimTime) {
        self.mrai = mrai;
    }

    /// Full candidate scans the incremental decision fast path avoided,
    /// summed over all speakers.
    pub fn full_scans_avoided(&self) -> u64 {
        self.nodes.iter().map(|n| n.speaker.full_scans_avoided()).sum()
    }

    /// Collect per-phase wall time (decode/decide/encode/queue) on the
    /// delivery hot path. Costs two clock reads per timed region, so
    /// enable it only on dedicated measurement runs — never on gated
    /// throughput legs.
    pub fn enable_phase_timing(&mut self) {
        self.phase_timing = Some(Box::default());
    }

    /// Accumulated hot-path phase times, if
    /// [`enable_phase_timing`](Self::enable_phase_timing) was called.
    pub fn phase_times(&self) -> Option<PhaseTimes> {
        self.phase_timing.as_deref().copied()
    }

    /// Turn on bounded-horizon oscillation capture: from here on the
    /// most recent `cap` best-path changes are kept (with their
    /// simulated times) for post-run periodicity analysis.
    pub fn capture_best_changes(&mut self, cap: usize) {
        self.capture = Some(BestChangeCapture { cap, records: VecDeque::new() });
    }

    /// The captured tail of best-path changes, oldest first (at most
    /// the `cap` passed to [`Sim::capture_best_changes`]).
    pub fn captured_changes(&self) -> Vec<BestChange> {
        self.capture.as_ref().map_or_else(Vec::new, |c| c.records.iter().copied().collect())
    }

    /// Re-seed the perturbation RNG. Two runs with the same construction
    /// sequence, seed and fault schedule are byte-identical.
    pub fn set_seed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed);
    }

    /// Add an AS. Its node address is derived from the node index.
    pub fn add_node(&mut self, cfg: DbgpConfig) -> NodeId {
        let id = self.nodes.len();
        let addr = Ipv4Addr::new(10, (id >> 8) as u8, (id & 0xff) as u8, 1);
        let speaker = DbgpSpeaker::new(cfg);
        if let Some(recorder) = &self.recorder {
            recorder.set_node_asn(id as u32, speaker.asn());
        }
        self.nodes.push(Node {
            speaker,
            neighbor_nodes: BTreeMap::new(),
            ids_by_node: HashMap::new(),
            fib: PrefixTrie::new(),
            addr,
            oob_inbox: Vec::new(),
            next_neighbor_id: 0,
            pending_out: HashMap::new(),
            flush_armed: std::collections::HashSet::new(),
            encode_cache: PtrMap::default(),
            counters: NodeCounters::default(),
        });
        id
    }

    /// Pre-size the event queue (drivers call this with a multiple of
    /// the topology's edge count so large-run warmup doesn't regrow the
    /// heap).
    pub fn reserve_events(&mut self, additional: usize) {
        self.queue.reserve(additional);
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The node's own address.
    pub fn node_addr(&self, node: NodeId) -> Ipv4Addr {
        self.nodes[node].addr
    }

    /// Access a node's speaker.
    pub fn speaker(&self, node: NodeId) -> &DbgpSpeaker {
        &self.nodes[node].speaker
    }

    /// Mutable access to a node's speaker (to register decision modules).
    pub fn speaker_mut(&mut self, node: NodeId) -> &mut DbgpSpeaker {
        &mut self.nodes[node].speaker
    }

    /// Statistics so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Events still scheduled (a quiescent simulation has none).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Total events processed since construction (the throughput
    /// numerator `sim_bench` reports).
    pub fn events_processed(&self) -> u64 {
        self.queue.processed()
    }

    /// Route-churn records per (node, prefix), cumulative since the
    /// start of the run.
    pub fn churn(&self) -> &BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn> {
        &self.churn
    }

    /// This node's per-incarnation counters (reset on restart, with the
    /// incarnation recorded in `generation`).
    pub fn node_counters(&self, node: NodeId) -> NodeCounters {
        self.nodes[node].counters
    }

    /// A `dbgp-metrics/v1` snapshot: the engine-wide registry (totals
    /// mirrored from [`SimStats`], `accumulate` semantics) plus a
    /// `nodes` array of per-node `reset-on-restart` counters, each with
    /// its own restart generation.
    pub fn metrics_snapshot(&mut self) -> Value {
        let s = self.stats;
        let m = &mut self.metrics;
        for (id, (_, value)) in m.totals.iter().zip(s.totals()) {
            m.registry.set_counter(*id, value);
        }
        m.registry.set_gauge(m.pending_events, self.queue.len() as i64);
        m.registry.set_gauge(m.last_event_at, s.last_event_at as i64);
        let mut snap = m.registry.snapshot(self.queue.now());
        let nodes: Vec<Value> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let c = n.counters;
                Value::Object(vec![
                    ("node".into(), Value::UInt(i as u64)),
                    ("asn".into(), Value::UInt(u64::from(n.speaker.asn()))),
                    ("generation".into(), Value::UInt(c.generation)),
                    ("semantics".into(), Value::String("reset-on-restart".into())),
                    ("messages_in".into(), Value::UInt(c.messages_in)),
                    ("updates_in".into(), Value::UInt(c.updates_in)),
                    ("withdraws_in".into(), Value::UInt(c.withdraws_in)),
                    ("best_changes".into(), Value::UInt(c.best_changes)),
                ])
            })
            .collect();
        if let Value::Object(fields) = &mut snap {
            fields.push(("nodes".into(), Value::Array(nodes)));
        }
        snap
    }

    /// This node's island id, if it is an island member.
    fn island_of(&self, node: NodeId) -> Option<u32> {
        self.nodes[node].speaker.config().island.as_ref().map(|i| i.id.0)
    }

    /// Record `kind` at `node`, now, as a consequence of `parent`; the
    /// new event's id, or `None` when nothing is being recorded.
    #[inline]
    fn record(&self, node: NodeId, parent: Option<EventId>, kind: TraceKind) -> Option<EventId> {
        let recorder = self.recorder.as_ref()?;
        Some(recorder.record(self.queue.now(), node as u32, parent, kind))
    }

    /// Connect two nodes with symmetric one-way `delay`. `same_island`
    /// marks both ends as intra-island peers.
    pub fn link(&mut self, a: NodeId, b: NodeId, delay: SimTime, same_island: bool) {
        self.link_with(a, b, delay, same_island, true)
    }

    /// Connect with full control over D-BGP capability (`speaks_dbgp =
    /// false` models a legacy BGP-only adjacency).
    pub fn link_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimTime,
        same_island: bool,
        speaks_dbgp: bool,
    ) {
        self.link_full(a, b, delay, same_island, speaks_dbgp, None)
    }

    /// Connect a customer to its transit provider (Gao-Rexford): the
    /// customer sees a [`PeerClass::Provider`], the provider a
    /// [`PeerClass::Customer`]. Valley-free filtering only activates on
    /// speakers whose `FilterConfig::valley_free` is set.
    pub fn link_customer_provider(&mut self, customer: NodeId, provider: NodeId, delay: SimTime) {
        let classes = if customer < provider {
            (PeerClass::Provider, PeerClass::Customer)
        } else {
            (PeerClass::Customer, PeerClass::Provider)
        };
        self.link_full(customer, provider, delay, false, true, Some(classes));
    }

    /// Connect two settlement-free lateral peers (Gao-Rexford).
    pub fn link_peering(&mut self, a: NodeId, b: NodeId, delay: SimTime) {
        self.link_full(a, b, delay, false, true, Some((PeerClass::Peer, PeerClass::Peer)));
    }

    fn link_full(
        &mut self,
        a: NodeId,
        b: NodeId,
        delay: SimTime,
        same_island: bool,
        speaks_dbgp: bool,
        classes: Option<(PeerClass, PeerClass)>,
    ) {
        self.links.insert(
            link_key(a, b),
            LinkState {
                delay,
                same_island,
                speaks_dbgp,
                model: LinkModel::reliable(),
                up: true,
                classes,
            },
        );
        self.delay_sum = self.delay_sum.saturating_add(delay);
        self.delay_count += 1;
        for (me, peer) in [(a, b), (b, a)] {
            self.establish(me, peer, same_island, speaks_dbgp, "link-up", None);
        }
    }

    /// Attach a perturbation model to an existing link (both directions).
    ///
    /// Panics if the nodes were never linked: a chaos plan naming a
    /// non-existent link is a scenario bug worth failing loudly on.
    pub fn set_link_model(&mut self, a: NodeId, b: NodeId, model: LinkModel) {
        self.links
            .get_mut(&link_key(a, b))
            .unwrap_or_else(|| panic!("set_link_model: no link {a}-{b}"))
            .model = model;
    }

    /// Whether the link between two nodes exists and is up.
    pub fn link_is_up(&self, a: NodeId, b: NodeId) -> bool {
        self.links.get(&link_key(a, b)).is_some_and(|l| l.up)
    }

    /// All links ever created, as `(a, b, up)` with `a < b`, in
    /// deterministic order.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId, bool)> + '_ {
        self.links.iter().map(|(&(a, b), l)| (a, b, l.up))
    }

    /// Register an out-of-band service at `addr`, owned by `node`.
    pub fn register_service(&mut self, node: NodeId, addr: Ipv4Addr, service: Service) {
        self.services.insert(addr, (node, service));
    }

    /// Originate a prefix at a node.
    pub fn originate(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        let root = self.record(node, None, TraceKind::Originate { prefix });
        let addr = self.nodes[node].addr;
        let outputs = self.nodes[node].speaker.originate(prefix, addr);
        self.absorb(node, root, outputs);
    }

    /// Originate a hand-built IA at a node (replacement protocols use
    /// this to control descriptors).
    pub fn originate_ia(&mut self, node: NodeId, ia: dbgp_wire::Ia) {
        let root = self.record(node, None, TraceKind::Originate { prefix: ia.prefix });
        let outputs = self.nodes[node].speaker.originate_ia(ia);
        self.absorb(node, root, outputs);
    }

    /// Withdraw a locally originated prefix.
    pub fn withdraw(&mut self, node: NodeId, prefix: Ipv4Prefix) {
        let root = self.record(node, None, TraceKind::OriginWithdraw { prefix });
        let outputs = self.nodes[node].speaker.withdraw_origin(prefix);
        self.absorb(node, root, outputs);
    }

    /// Fail the link between two nodes: both speakers see the neighbor
    /// go down, flush its routes, and re-converge (the link-failure
    /// events of §3.5, "about 172 per day" in the wild). The link's
    /// parameters are remembered so [`Sim::restore_link`] can undo this.
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        match self.links.get_mut(&link_key(a, b)) {
            Some(l) if l.up => l.up = false,
            _ => return,
        }
        let root = self.record(a, None, TraceKind::LinkDown { a: a as u32, b: b as u32 });
        for (me, peer) in [(a, b), (b, a)] {
            self.teardown_neighbor(me, peer, "link-down", root);
        }
    }

    /// Re-establish a previously failed link: the inverse of
    /// [`Sim::fail_link`]. Both ends run session bring-up again — fresh
    /// neighbor IDs, and each speaker re-advertises its full Adj-RIB-Out
    /// to the other, exactly like a BGP session re-establishing after an
    /// outage.
    pub fn restore_link(&mut self, a: NodeId, b: NodeId) {
        let (same_island, speaks_dbgp) = match self.links.get_mut(&link_key(a, b)) {
            Some(l) if !l.up => {
                l.up = true;
                (l.same_island, l.speaks_dbgp)
            }
            _ => return,
        };
        let root = self.record(a, None, TraceKind::LinkUp { a: a as u32, b: b as u32 });
        for (me, peer) in [(a, b), (b, a)] {
            self.establish(me, peer, same_island, speaks_dbgp, "link-up", root);
        }
    }

    /// Restart a node: every one of its sessions resets and then comes
    /// back up with a full-table re-transfer in both directions — the
    /// paper's §3.5 concern that D-BGP's per-session state must survive
    /// ASes rebooting routers. Neighbors see the peer flap; the
    /// restarting node drops all queued outbound state.
    pub fn restart_node(&mut self, node: NodeId) {
        let peers: Vec<(NodeId, bool, bool)> = self
            .links
            .iter()
            .filter(|(&(x, y), l)| l.up && (x == node || y == node))
            .map(|(&(x, y), l)| (if x == node { y } else { x }, l.same_island, l.speaks_dbgp))
            .collect();
        // The restart opens a new incarnation: the node's generation
        // bumps and the registry-wide generation follows (S2 semantics —
        // engine totals keep accumulating, per-node counters reset).
        let generation = self.nodes[node].counters.generation + 1;
        self.metrics.registry.on_restart();
        self.metrics.registry.inc(self.metrics.node_restarts, 1);
        let root = self.record(node, None, TraceKind::NodeRestart { generation });
        for &(peer, ..) in &peers {
            self.teardown_neighbor(node, peer, "node-restart", root);
            self.teardown_neighbor(peer, node, "node-restart", root);
        }
        // Counters reset after the teardown: the going-down route losses
        // belong to the old incarnation, the new one counts only its
        // re-convergence.
        self.nodes[node].counters = NodeCounters { generation, ..NodeCounters::default() };
        // The rebooting router loses its MRAI buffers, encode cache and
        // any undelivered out-of-band responses.
        self.nodes[node].pending_out.clear();
        self.nodes[node].flush_armed.clear();
        self.nodes[node].oob_inbox.clear();
        self.nodes[node].encode_cache.clear();
        for &(peer, same_island, speaks_dbgp) in &peers {
            self.establish(node, peer, same_island, speaks_dbgp, "node-restart", root);
            self.establish(peer, node, same_island, speaks_dbgp, "node-restart", root);
        }
    }

    /// Send an out-of-band payload from a node to a service address.
    pub fn oob_send(&mut self, from: NodeId, to_addr: Ipv4Addr, payload: Vec<u8>) {
        self.queue.schedule(self.oob_delay, Event::OobRequest { to_addr, from, payload });
    }

    /// Out-of-band responses a node has received so far.
    pub fn oob_inbox(&self, node: NodeId) -> &[(Ipv4Addr, Vec<u8>)] {
        &self.nodes[node].oob_inbox
    }

    /// The node's forwarding table (prefix -> next-hop node; `None` =
    /// delivered locally).
    pub fn fib(&self, node: NodeId) -> &PrefixTrie<Option<NodeId>> {
        &self.nodes[node].fib
    }

    /// Schedule raw bytes for delivery as if they arrived on the wire
    /// from `from` — a hook for tests and chaos drivers to model
    /// garbage or stale traffic without a sending speaker.
    pub fn inject_raw(&mut self, from: NodeId, to: NodeId, delay: SimTime, bytes: Vec<u8>) {
        self.queue
            .schedule(delay, Event::Deliver { to, from, bytes: Bytes::from(bytes), trace: None });
    }

    /// Run until no events remain or `max_time` is reached. Events at
    /// exactly `max_time` are processed; events beyond it stay queued
    /// (and the clock stays at or before `max_time`), so a later `run`
    /// call picks up exactly where this one stopped. Returns the
    /// statistics snapshot.
    pub fn run(&mut self, max_time: SimTime) -> SimStats {
        self.tune_width();
        while let Some(next_at) = self.queue.peek_time() {
            if next_at > max_time {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event must pop");
            self.handle_event(at, event);
        }
        self.stats
    }

    /// Derive the calendar-queue day width from the mean link delay
    /// (once, at first run): one day spanning roughly one typical delay
    /// keeps the events in flight within O(1) buckets. A pure
    /// throughput knob — pop order is exact `(time, seq)` at any width.
    fn tune_width(&mut self) {
        if self.width_tuned {
            return;
        }
        self.width_tuned = true;
        if self.delay_count == 0 {
            return;
        }
        let mean = (self.delay_sum / self.delay_count).max(1);
        let shift = (SimTime::BITS - mean.leading_zeros()).min(12);
        self.queue.set_width_shift(shift);
    }

    /// Process one popped event (the pop already advanced the queue
    /// clock to `at`).
    fn handle_event(&mut self, at: SimTime, event: Event) {
        self.stats.last_event_at = at;
        match event {
            Event::Deliver { to, from, bytes, trace } => {
                self.stats.messages += 1;
                self.stats.bytes += bytes.len() as u64;
                self.nodes[to].counters.messages_in += 1;
                self.metrics.registry.observe(self.metrics.message_bytes, bytes.len() as u64);
                let deliver_id = self.record(
                    to,
                    trace.as_ref().map(|t| t.frame),
                    TraceKind::Deliver { from: from as u32, bytes: bytes.len() as u32 },
                );
                let mut buf = bytes;
                let t = self.phase_now();
                let decoded = DbgpUpdate::decode(&mut buf);
                self.phase_add(t, Phase::Decode);
                let Ok(update) = decoded else {
                    self.stats.decode_errors += 1;
                    self.record(to, deliver_id, TraceKind::DecodeError { from: from as u32 });
                    return;
                };
                let Some(&from_id) = self.nodes[to].ids_by_node.get(&from) else {
                    self.stats.orphaned_deliveries += 1;
                    return;
                };
                self.nodes[to].counters.withdraws_in += update.withdrawn.len() as u64;
                self.nodes[to].counters.updates_in += update.ias.len() as u64;
                // One element at a time, in frame order (withdraws, then
                // IAs): each Decode event parents exactly the outputs it
                // causes, chained to the sender-side event that put the
                // element on the wire (or to the Deliver, for a frame
                // that carried no causes).
                let causes: &[EventId] = trace.as_deref().map_or(&[], |t| &t.causes);
                let mut causes = causes.iter().copied();
                for prefix in update.withdrawn {
                    let parent = causes.next().or(deliver_id);
                    self.receive_element(to, from, from_id, parent, prefix, None);
                }
                for ia in update.ias {
                    let parent = causes.next().or(deliver_id);
                    self.receive_element(to, from, from_id, parent, ia.prefix, Some(ia));
                }
            }
            Event::Flush { node, neighbor } => {
                self.flush(node, neighbor);
            }
            Event::OobRequest { to_addr, from, payload } => {
                self.stats.oob_requests += 1;
                self.serve_oob(to_addr, from, payload);
            }
            Event::OobResponse { to, from_addr, payload } => {
                self.nodes[to].oob_inbox.push((from_addr, payload));
            }
        }
    }

    /// Feed one decoded frame element (`ia`, or a withdrawal of `prefix`
    /// when `None`) from neighbor `from_id` to node `to`'s speaker and
    /// act on what it returns.
    fn receive_element(
        &mut self,
        to: NodeId,
        from: NodeId,
        from_id: NeighborId,
        parent: Option<EventId>,
        prefix: Ipv4Prefix,
        ia: Option<Ia>,
    ) {
        let decode_id = self.record(
            to,
            parent,
            TraceKind::Decode { prefix, from: from as u32, withdraw: ia.is_none() },
        );
        let t = self.phase_now();
        let speaker = &mut self.nodes[to].speaker;
        let outputs = match ia {
            Some(ia) => speaker.receive_ia(from_id, ia),
            None => speaker.receive_withdraw(from_id, prefix),
        };
        self.phase_add(t, Phase::Decide);
        self.absorb(to, decode_id, outputs);
    }

    // ----- internals ----------------------------------------------------

    /// One end of session bring-up: allocate a neighbor ID for `peer`,
    /// register the adjacency, and dispatch the speaker's full-table
    /// transfer to it. The transfer's advertisements chain to the
    /// adjacency's session-up event (itself a child of `parent`, e.g. the
    /// LinkUp or NodeRestart that caused the bring-up).
    fn establish(
        &mut self,
        me: NodeId,
        peer: NodeId,
        same_island: bool,
        speaks_dbgp: bool,
        trigger: &'static str,
        parent: Option<EventId>,
    ) {
        let peer_as = self.nodes[peer].speaker.asn();
        let id = NeighborId(self.nodes[me].next_neighbor_id);
        self.nodes[me].next_neighbor_id += 1;
        self.nodes[me].neighbor_nodes.insert(id, peer);
        self.nodes[me].ids_by_node.insert(peer, id);
        let mut neighbor =
            if speaks_dbgp { DbgpNeighbor::dbgp(peer_as) } else { DbgpNeighbor::legacy(peer_as) };
        neighbor.same_island = same_island;
        // Re-reading the annotation from the link table (rather than
        // threading it through every call site) keeps restarts and link
        // restores re-establishing with the same commercial relationship.
        if let Some((lo_view, hi_view)) =
            self.links.get(&link_key(me, peer)).and_then(|l| l.classes)
        {
            neighbor.class = Some(if me < peer { lo_view } else { hi_view });
        }
        let root = self.record_adjacency(me, peer, parent, true, trigger);
        let outputs = self.nodes[me].speaker.add_neighbor(id, neighbor);
        self.absorb(me, root, outputs);
    }

    /// One end of session teardown: `me` loses its adjacency to `peer`.
    fn teardown_neighbor(
        &mut self,
        me: NodeId,
        peer: NodeId,
        trigger: &'static str,
        parent: Option<EventId>,
    ) {
        let Some(&id) = self.nodes[me].ids_by_node.get(&peer) else { return };
        self.nodes[me].neighbor_nodes.remove(&id);
        self.nodes[me].ids_by_node.remove(&peer);
        self.nodes[me].pending_out.remove(&id);
        let root = self.record_adjacency(me, peer, parent, false, trigger);
        let outputs = self.nodes[me].speaker.neighbor_down(id);
        self.absorb(me, root, outputs);
    }

    /// Record `me`'s adjacency to `peer` coming up or going down (the
    /// strings are only built while recording).
    fn record_adjacency(
        &self,
        me: NodeId,
        peer: NodeId,
        parent: Option<EventId>,
        up: bool,
        trigger: &str,
    ) -> Option<EventId> {
        self.recorder.as_ref()?;
        let (from, to) = if up { ("down", "up") } else { ("up", "down") };
        let kind = TraceKind::SessionFsm {
            peer: peer as u32,
            from: from.into(),
            to: to.into(),
            trigger: trigger.into(),
        };
        self.record(me, parent, kind)
    }

    /// Act on what a speaker call at `node` returned — the one path from
    /// speaker outputs to the trace, the FIB / churn bookkeeping and the
    /// wires. `cause` is the trace event (Decode, Originate, SessionFsm,
    /// ...) that prompted the call: it parents the `Decision` and
    /// `LoopDrop` events recorded here from what the speaker reported,
    /// and then the sends. All of a call's decisions are recorded before
    /// any of its sends is dispatched.
    fn absorb(&mut self, node: NodeId, cause: Option<EventId>, outputs: Vec<DbgpOutput>) {
        let at = self.queue.now();
        for output in &outputs {
            let (prefix, chosen, selection) = match output {
                DbgpOutput::BestChanged(chosen, selection) => {
                    (chosen.ia.prefix, Some(chosen), *selection)
                }
                DbgpOutput::Unreachable(prefix, selection) => (*prefix, None, *selection),
                DbgpOutput::Rejected(from, prefix, reason) => {
                    if self.recorder.is_some() {
                        let from_as = self.nodes[node]
                            .neighbor_nodes
                            .get(from)
                            .map_or(0, |&peer| self.nodes[peer].speaker.asn());
                        let reason = format!("{reason:?}");
                        self.record(
                            node,
                            cause,
                            TraceKind::LoopDrop { prefix: *prefix, from_as, reason },
                        );
                    }
                    continue;
                }
                DbgpOutput::SendIa(..) | DbgpOutput::SendWithdraw(..) => continue,
            };
            self.stats.best_changes += 1;
            self.nodes[node].counters.best_changes += 1;
            let record = self.churn.entry((node, prefix)).or_default();
            record.best_changes += 1;
            record.last_change_at = at;
            let next =
                chosen.and_then(|c| self.nodes[node].neighbor_nodes.get(&c.neighbor?).copied());
            match chosen {
                Some(_) => self.nodes[node].fib.insert(prefix, next),
                None => self.nodes[node].fib.remove(&prefix),
            };
            if let Some(capture) = &mut self.capture {
                let installed = chosen.is_some();
                capture.record(BestChange { at, node, prefix, installed, next });
            }
            if self.recorder.is_some() {
                let kind = TraceKind::Decision {
                    prefix,
                    selected: chosen.is_some(),
                    neighbor_as: next.map(|peer| self.nodes[peer].speaker.asn()),
                    path: chosen.map_or_else(String::new, |c| render_path(&c.ia)),
                    hops: chosen.map_or(0, |c| c.ia.hop_count() as u32),
                    candidates: selection.candidates,
                    why: selection.why,
                };
                self.record(node, cause, kind);
            }
        }
        self.dispatch(node, outputs, cause);
    }

    /// Turn speaker outputs into scheduled deliveries, coalescing per
    /// (neighbor, prefix) over the MRAI window. `cause` is the trace
    /// event (Decode, Originate, SessionFsm, ...) that produced these
    /// outputs; it rides with each pending element so the eventual
    /// Advertise/Withdraw chains back to it.
    fn dispatch(&mut self, node: NodeId, outputs: Vec<DbgpOutput>, cause: Option<EventId>) {
        for output in outputs {
            let (neighbor, prefix, ia) = match output {
                DbgpOutput::SendIa(neighbor, ia) => (neighbor, ia.prefix, Some(ia)),
                DbgpOutput::SendWithdraw(neighbor, prefix) => (neighbor, prefix, None),
                DbgpOutput::BestChanged(..)
                | DbgpOutput::Unreachable(..)
                | DbgpOutput::Rejected(..) => continue,
            };
            if !self.nodes[node].neighbor_nodes.contains_key(&neighbor) {
                continue;
            }
            if self.mrai == 0 {
                self.send_now(node, neighbor, prefix, ia, cause);
                continue;
            }
            self.nodes[node].pending_out.entry(neighbor).or_default().insert(prefix, (ia, cause));
            if self.nodes[node].flush_armed.insert(neighbor) {
                self.queue.schedule(self.mrai, Event::Flush { node, neighbor });
            }
        }
    }

    /// Start an instrumented span, when phase timing is on.
    #[inline]
    fn phase_now(&self) -> Option<std::time::Instant> {
        self.phase_timing.as_ref().map(|_| std::time::Instant::now())
    }

    /// Close an instrumented span into its [`PhaseTimes`] bucket.
    #[inline]
    fn phase_add(&mut self, start: Option<std::time::Instant>, phase: Phase) {
        if let (Some(start), Some(pt)) = (start, self.phase_timing.as_deref_mut()) {
            let ns = start.elapsed().as_nanos() as u64;
            match phase {
                Phase::Decode => pt.decode_ns += ns,
                Phase::Decide => pt.decide_ns += ns,
                Phase::Encode => pt.encode_ns += ns,
                Phase::Queue => pt.queue_ns += ns,
            }
        }
    }

    /// Record the per-element trace events for one outgoing frame
    /// element (Advertise or Withdraw, plus an IslandCrossing child when
    /// the adjacency spans an island boundary). Only called while
    /// recording.
    fn record_element(
        &mut self,
        node: NodeId,
        to: NodeId,
        prefix: Ipv4Prefix,
        announce: bool,
        cause: Option<EventId>,
    ) -> Option<EventId> {
        let kind = if announce {
            TraceKind::Advertise { prefix, to: to as u32 }
        } else {
            TraceKind::Withdraw { prefix, to: to as u32 }
        };
        let id = self.record(node, cause, kind);
        if announce {
            let from_island = self.island_of(node);
            let to_island = self.island_of(to);
            if from_island != to_island {
                self.record(
                    node,
                    id,
                    TraceKind::IslandCrossing { prefix, to: to as u32, from_island, to_island },
                );
            }
        }
        id
    }

    /// The wire form of one outgoing IA, from the node's encode cache
    /// when the speaker has handed us this exact `Arc` before. Returns
    /// `(body, announce_frame)` views into the one shared cached buffer.
    /// It is contiguous — a link carries `Bytes` — so a spliced tail is
    /// copied here, once per IA version however many neighbors get it.
    fn cached_wire(&mut self, node: NodeId, ia: &Arc<Ia>) -> (Bytes, Bytes) {
        let key = Arc::as_ptr(ia) as usize;
        if let Some(entry) = self.nodes[node].encode_cache.get(&key) {
            self.stats.encode_cache_hits += 1;
            return (entry.body.clone(), entry.announce.clone());
        }
        self.stats.updates_encoded += 1;
        let body = ia.encode();
        self.stats.tails_spliced += u64::from(body.is_spliced());
        let announce = DbgpUpdate::encode_frame(&[], std::slice::from_ref(&body)).into_bytes();
        // A single-IA announce frame ends with the IA's body.
        let body = announce.slice(announce.len() - body.len()..);
        let cache = &mut self.nodes[node].encode_cache;
        if cache.len() >= ENCODE_CACHE_CAP {
            cache.clear();
        }
        cache.insert(
            key,
            EncodeCacheEntry {
                _ia: Arc::clone(ia),
                body: body.clone(),
                announce: announce.clone(),
            },
        );
        (body, announce)
    }

    /// MRAI 0: one change, one frame, now.
    fn send_now(
        &mut self,
        node: NodeId,
        neighbor: NeighborId,
        prefix: Ipv4Prefix,
        ia: Option<Arc<Ia>>,
        cause: Option<EventId>,
    ) {
        let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) else { return };
        let cause = std::slice::from_ref(&cause);
        match ia {
            Some(ia) => self.emit(node, to, &[], std::slice::from_ref(&ia), cause),
            None => self.emit(node, to, std::slice::from_ref(&prefix), &[], cause),
        }
    }

    /// The MRAI window to `neighbor` closed: everything pending goes out
    /// as one frame.
    fn flush(&mut self, node: NodeId, neighbor: NeighborId) {
        self.nodes[node].flush_armed.remove(&neighbor);
        let Some(pending) = self.nodes[node].pending_out.remove(&neighbor) else { return };
        if pending.is_empty() {
            return;
        }
        let Some(&to) = self.nodes[node].neighbor_nodes.get(&neighbor) else { return };
        let traced = self.recorder.is_some();
        let mut withdrawn = Vec::new();
        let mut ias = Vec::with_capacity(pending.len());
        // Per-element causes in frame order, collected only while
        // recording.
        let mut causes = Vec::new();
        let mut ia_causes = Vec::new();
        for (prefix, (ia, cause)) in pending {
            match ia {
                Some(ia) => {
                    if traced {
                        ia_causes.push(cause);
                    }
                    ias.push(ia);
                }
                None => {
                    if traced {
                        causes.push(cause);
                    }
                    withdrawn.push(prefix);
                }
            }
        }
        causes.append(&mut ia_causes);
        self.metrics
            .registry
            .observe(self.metrics.flush_batch, (withdrawn.len() + ias.len()) as u64);
        self.emit(node, to, &withdrawn, &ias, &causes);
    }

    /// The one frame emitter: put `withdrawn` and `ias` on the
    /// `node -> to` link as a single frame. `causes` runs parallel to the
    /// elements in frame order — withdraws first, then IAs, matching
    /// `DbgpUpdate` encode/decode order so the receiver can zip its
    /// copy against the decoded elements — and is read only while
    /// recording.
    fn emit(
        &mut self,
        node: NodeId,
        to: NodeId,
        withdrawn: &[Ipv4Prefix],
        ias: &[Arc<Ia>],
        causes: &[Option<EventId>],
    ) {
        // Announce frames for a single IA are cached whole; batched
        // frames are assembled from cached bodies (byte-identical to a
        // fresh `DbgpUpdate::encode`, see `encode_frame`).
        let t = self.phase_now();
        let bytes = if let ([], [ia]) = (withdrawn, ias) {
            self.cached_wire(node, ia).1
        } else {
            let mut bodies = std::mem::take(&mut self.frame_bodies);
            bodies.extend(ias.iter().map(|ia| EncodedIa::from(self.cached_wire(node, ia).0)));
            if bodies.is_empty() {
                self.stats.updates_encoded += 1;
            }
            let frame = DbgpUpdate::encode_frame(withdrawn, &bodies).into_bytes();
            bodies.clear();
            self.frame_bodies = bodies;
            frame
        };
        self.phase_add(t, Phase::Encode);
        let trace = if self.recorder.is_some() {
            let elements = withdrawn
                .iter()
                .map(|&prefix| (prefix, false))
                .chain(ias.iter().map(|ia| (ia.prefix, true)));
            let mut ids = Vec::with_capacity(causes.len());
            for ((prefix, announce), &cause) in elements.zip(causes) {
                ids.extend(self.record_element(node, to, prefix, announce, cause));
            }
            let frame = self.record(
                node,
                ids.first().copied(),
                TraceKind::Transmit { to: to as u32, bytes: bytes.len() as u32 },
            );
            frame.map(|frame| Box::new(DeliverTrace { frame, causes: ids }))
        } else {
            None
        };
        let t = self.phase_now();
        self.deliver_on_link(node, to, bytes, trace);
        self.phase_add(t, Phase::Queue);
    }

    /// Schedule a control-plane delivery across the `node -> to` link,
    /// applying the link's perturbation model.
    ///
    /// For an unreliable model the RNG draw order per message is fixed —
    /// loss, corruption, duplication, jitter — so a given seed and fault
    /// schedule always perturbs the same messages the same way.
    ///
    /// The buffer arrives refcounted (possibly shared with the encode
    /// cache and other in-flight deliveries); only a corrupting model
    /// copies it, so the flipped byte never leaks into anyone else's
    /// view (copy-on-corrupt).
    fn deliver_on_link(
        &mut self,
        node: NodeId,
        to: NodeId,
        mut bytes: Bytes,
        trace: Option<Box<DeliverTrace>>,
    ) {
        let (mut delay, model, up) = match self.links.get(&link_key(node, to)) {
            Some(l) => (l.delay, l.model, l.up),
            // Adjacency without an explicit link record (not constructed
            // via `link_with`): legacy default of one time unit.
            None => (1, LinkModel::reliable(), true),
        };
        if !up {
            // The adjacency map normally prevents this; a message racing
            // an administrative down is simply lost on the floor.
            self.stats.dropped_messages += 1;
            self.record(
                node,
                trace.as_ref().map(|t| t.frame),
                TraceKind::MessageDropped { to: to as u32 },
            );
            return;
        }
        if !model.is_reliable() {
            let lost = self.rng.chance(model.loss_ppm);
            let corrupt = self.rng.chance(model.corrupt_ppm);
            let duplicate = self.rng.chance(model.duplicate_ppm);
            let jitter = if model.jitter > 0 { self.rng.below(model.jitter + 1) } else { 0 };
            if lost {
                self.stats.dropped_messages += 1;
                self.record(
                    node,
                    trace.as_ref().map(|t| t.frame),
                    TraceKind::MessageDropped { to: to as u32 },
                );
                return;
            }
            if corrupt && !bytes.is_empty() {
                let idx = self.rng.below(bytes.len() as u64) as usize;
                let flip = 1 + self.rng.below(255) as u8;
                let mut copy = bytes.to_vec();
                copy[idx] ^= flip;
                bytes = Bytes::from(copy);
                self.stats.corrupted_messages += 1;
            }
            delay += jitter;
            if duplicate {
                self.stats.duplicated_messages += 1;
                // Refcount bump: the duplicate shares the original's
                // buffer (and the same causal frame).
                self.queue.schedule(
                    delay + 1,
                    Event::Deliver { to, from: node, bytes: bytes.clone(), trace: trace.clone() },
                );
            }
        }
        self.queue.schedule(delay, Event::Deliver { to, from: node, bytes, trace });
    }

    fn serve_oob(&mut self, to_addr: Ipv4Addr, from: NodeId, payload: Vec<u8>) {
        let Some((owner, service)) = self.services.get_mut(&to_addr) else { return };
        let owner = *owner;
        match service {
            Service::ModuleInbox(protocol) => {
                let protocol = *protocol;
                let from_as = self.nodes[from].speaker.asn();
                if let Some(module) = self.nodes[owner].speaker.module_mut(protocol) {
                    module.deliver_oob(from_as, &payload);
                }
            }
            Service::Miro(portal) => {
                if let Some(request) = MiroRequest::from_bytes(&payload) {
                    if let Some(offer) = portal.negotiate(request) {
                        let response = offer.to_bytes();
                        self.queue.schedule(
                            self.oob_delay,
                            Event::OobResponse { to: from, from_addr: to_addr, payload: response },
                        );
                    }
                }
            }
        }
    }

    /// Resolve which node (if any) owns `addr`: a registered service, a
    /// node address, or an originated prefix.
    pub(crate) fn owner_of(&self, addr: Ipv4Addr) -> Option<NodeId> {
        if let Some((node, _)) = self.services.get(&addr) {
            return Some(*node);
        }
        if let Some(node) = self.nodes.iter().position(|n| n.addr == addr) {
            return Some(node);
        }
        // Longest-prefix owner across all originated prefixes.
        self.nodes
            .iter()
            .enumerate()
            .flat_map(|(id, n)| {
                n.fib
                    .covering(Ipv4Prefix::new(addr, 32).expect("/32 is valid"))
                    .filter(|(_, next)| next.is_none())
                    .map(move |(p, _)| (p.len(), id))
            })
            .max_by_key(|(len, _)| *len)
            .map(|(_, id)| id)
    }

    /// Data-plane next hop at `node` for `addr` (longest match).
    pub(crate) fn next_hop(&self, node: NodeId, addr: Ipv4Addr) -> Option<Option<NodeId>> {
        self.nodes[node].fib.longest_match(addr).map(|(_, next)| *next)
    }
}
