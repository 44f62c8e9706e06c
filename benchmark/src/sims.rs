//! The three simulator workloads. All pin one thread and one shard and
//! otherwise take the library defaults, so a later change to a default
//! shows up here.
//!
//! Each round builds a fresh [`Sim`] (untimed) and times only the drive
//! to quiescence through `Sim::run`; the operation counted is the engine
//! event.

use crate::span::Trace;
use crate::workload::{Round, Size, Workload};
use dbgp_chaos::scenario::sim_from_graph;
use dbgp_chaos::{FaultPlan, ScenarioRunner};
use dbgp_sim::{PhaseTimes, Sim, SimTime};
use dbgp_telemetry::TraceRecorder;
use dbgp_topology::waxman::{self, WaxmanParams};
use dbgp_topology::{AsGraph, HierParams, HierTopology, Tier};
use dbgp_wire::Ipv4Prefix;
use dbgp_workload::policy::node_prefix;
use std::rc::Rc;

/// Link delay of the Waxman workloads (the chaos suite's value).
const WAXMAN_DELAY: SimTime = 10;

/// Counters of a simulation, for before/after deltas.
#[derive(Clone, Copy)]
struct Counters {
    events: u64,
    messages: u64,
    bytes: u64,
    best_changes: u64,
    full_scans_avoided: u64,
    updates_encoded: u64,
    encode_cache_hits: u64,
}

impl Counters {
    fn of(sim: &Sim) -> Self {
        let s = sim.stats();
        Counters {
            events: sim.events_processed(),
            messages: s.messages,
            bytes: s.bytes,
            best_changes: s.best_changes,
            full_scans_avoided: sim.full_scans_avoided(),
            updates_encoded: s.updates_encoded,
            encode_cache_hits: s.encode_cache_hits,
        }
    }
}

/// Phase times accumulated between two readings.
fn phases_since(before: Option<PhaseTimes>, after: Option<PhaseTimes>) -> Option<PhaseTimes> {
    let (b, a) = (before?, after?);
    Some(PhaseTimes {
        decode_ns: a.decode_ns - b.decode_ns,
        decide_ns: a.decide_ns - b.decide_ns,
        encode_ns: a.encode_ns - b.encode_ns,
        queue_ns: a.queue_ns - b.queue_ns,
    })
}

/// Time `drive` (which returns whether the run quiesced inside its
/// horizon) as one `sim.run` span and report the counter deltas, plus
/// the phase times of the span when phase timing is on. A run that did
/// not quiesce fails every event it processed.
fn sim_round<T: Trace>(
    sim: &mut Sim,
    trace: &mut T,
    drive: impl FnOnce(&mut Sim) -> bool,
) -> (Round, Option<PhaseTimes>) {
    let before = Counters::of(sim);
    let phases_before = sim.phase_times();
    trace.enter("sim.run");
    let quiesced = drive(sim);
    trace.exit();
    let after = Counters::of(sim);
    let phases = phases_since(phases_before, sim.phase_times());
    let ops = after.events - before.events;
    let round = Round {
        ops,
        failed: if quiesced { 0 } else { ops },
        wire_bytes: after.bytes - before.bytes,
        exact: vec![
            ("events", ops),
            ("messages", after.messages - before.messages),
            ("bytes", after.bytes - before.bytes),
            ("best_changes", after.best_changes - before.best_changes),
            ("full_scans_avoided", after.full_scans_avoided - before.full_scans_avoided),
            ("updates_encoded", after.updates_encoded - before.updates_encoded),
            ("encode_cache_hits", after.encode_cache_hits - before.encode_cache_hits),
        ],
    };
    (round, phases)
}

/// Every node must hold a best route to every originated prefix once
/// the run has quiesced: the topologies are connected, and valley-free
/// export reaches every AS of the hierarchy by construction.
fn all_reach(sim: &Sim, origins: impl Iterator<Item = usize>) -> Result<(), String> {
    let prefixes: Vec<Ipv4Prefix> = origins.map(node_prefix).collect();
    for node in 0..sim.node_count() {
        for prefix in &prefixes {
            if sim.speaker(node).best(prefix).is_none() {
                return Err(format!("node {node} has no route to {prefix} after quiescence"));
            }
        }
    }
    Ok(())
}

/// What the traced run needs to know about a simulator workload's
/// topology for its per-layer probes.
pub trait SimShape {
    /// Nodes in the topology.
    fn nodes(&self) -> usize;
    /// Adjacencies in the topology.
    fn edges(&self) -> usize;
}

fn waxman_sim(graph: &AsGraph, seed: u64, traced: bool) -> Sim {
    let mut sim = sim_from_graph(graph, WAXMAN_DELAY);
    sim.set_threads(1);
    sim.set_seed(seed);
    if traced {
        sim.enable_phase_timing();
    }
    sim
}

/// `sim_flood_waxman1000`: the paper's §6.3 topology, 100 evenly spaced
/// origins, cold start to quiescence.
pub struct SimFlood {
    seed: u64,
    graph: AsGraph,
    origins: usize,
    sim: Option<Sim>,
    phases: Option<PhaseTimes>,
}

impl SimFlood {
    /// Generate the topology.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let n = size.pick(1000, 100);
        let graph = waxman::generate(WaxmanParams { n, ..WaxmanParams::default() }, seed);
        Ok(SimFlood { seed, graph, origins: size.pick(100, 10), sim: None, phases: None })
    }
}

impl SimShape for SimFlood {
    fn nodes(&self) -> usize {
        self.graph.len()
    }
    fn edges(&self) -> usize {
        self.graph.edge_count()
    }
}

impl Workload for SimFlood {
    fn reset(&mut self) {
        self.sim = None;
    }

    fn prepare(&mut self, traced: bool) -> Result<(), String> {
        let mut sim = waxman_sim(&self.graph, self.seed, traced);
        let stride = self.graph.len() / self.origins;
        for i in 0..self.origins {
            sim.originate(i * stride, node_prefix(i * stride));
        }
        self.sim = Some(sim);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let sim = self.sim.as_mut().expect("prepare ran");
        let (round, phases) = sim_round(sim, trace, |sim| {
            sim.run(4_000_000_000);
            sim.pending_events() == 0
        });
        self.phases = phases;
        round
    }

    fn check(&self) -> Result<(), String> {
        let stride = self.graph.len() / self.origins;
        all_reach(self.sim.as_ref().expect("prepare ran"), (0..self.origins).map(|i| i * stride))
    }

    fn phase_times(&self) -> Option<PhaseTimes> {
        self.phases
    }
}

/// `sim_churn_waxman50`: converge untimed, then time a rolling flap
/// storm plus node restarts to quiescence.
pub struct SimChurn {
    seed: u64,
    graph: AsGraph,
    flap_windows: u64,
    restarts: usize,
    /// Attach a `TraceRecorder` to each fresh simulation (the
    /// telemetry-overhead probe turns this on).
    pub record: bool,
    sim: Option<Sim>,
    plan: FaultPlan,
    phases: Option<PhaseTimes>,
}

impl SimChurn {
    /// Generate the topology.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        Ok(SimChurn {
            seed,
            graph: dbgp_topology::fixtures::waxman_50(seed),
            flap_windows: size.pick(30, 3),
            restarts: size.pick(4, 1),
            record: false,
            sim: None,
            plan: FaultPlan::new(),
            phases: None,
        })
    }
}

impl SimShape for SimChurn {
    fn nodes(&self) -> usize {
        self.graph.len()
    }
    fn edges(&self) -> usize {
        self.graph.edge_count()
    }
}

impl Workload for SimChurn {
    fn reset(&mut self) {
        self.sim = None;
    }

    fn prepare(&mut self, traced: bool) -> Result<(), String> {
        let mut sim = waxman_sim(&self.graph, self.seed, traced);
        if self.record {
            sim.enable_telemetry(Rc::new(TraceRecorder::with_capacity(1 << 16)));
        }
        for node in 0..self.graph.len() {
            sim.originate(node, node_prefix(node));
        }
        sim.run(200_000_000);
        if sim.pending_events() != 0 {
            return Err("sim_churn_waxman50: initial convergence did not quiesce".into());
        }
        // The storm sim_bench's waxman50_churn scenario established: flap
        // windows sweeping the edge list, punctuated by node restarts.
        // Every flap forces withdraw + re-advertise of all 50 prefixes.
        let edges: Vec<(usize, usize, bool)> = sim.links().collect();
        let mut plan = FaultPlan::new();
        for window in 0..self.flap_windows {
            let (a, b, _) = edges[(window as usize * 13 + 5) % edges.len()];
            plan =
                plan.link_flaps(a, b, 210_000_000 + window * 40_000_000, 25_000_000, 10_000_000, 2);
        }
        for (i, node) in [1usize, 7, 19, 33].into_iter().take(self.restarts).enumerate() {
            plan = plan.node_restart(node, 300_000_000 + i as u64 * 250_000_000);
        }
        self.plan = plan;
        self.sim = Some(sim);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let sim = self.sim.as_mut().expect("prepare ran");
        let plan = &self.plan;
        let (round, phases) =
            sim_round(sim, trace, |sim| ScenarioRunner::new(3_000_000_000).run(sim, plan).quiesced);
        self.phases = phases;
        round
    }

    fn check(&self) -> Result<(), String> {
        all_reach(self.sim.as_ref().expect("prepare ran"), 0..self.graph.len())
    }

    fn phase_times(&self) -> Option<PhaseTimes> {
        self.phases
    }
}

/// `sim_hier50k`: the 50,000-AS Gao-Rexford hierarchy, eight stub
/// origins, cold start to quiescence.
///
/// The origins announce [`HIER_STAGGER`] ticks apart instead of all at
/// tick 0. Announced together, how many prefixes share an UPDATE is
/// decided by which floods happen to meet inside an MRAI window: across
/// ten seeds the same eight prefixes took 264k–439k events and
/// 64–106 B/event, a spread no regression bound could sit under. Spaced
/// one flood apart the count is 1.24M events ± 0.3 % on every seed,
/// with the same 50k × 8 resident state.
pub struct SimHier {
    seed: u64,
    topo: HierTopology,
    origins: Vec<usize>,
    sim: Option<Sim>,
    phases: Option<PhaseTimes>,
}

const HIER_ORIGINS: usize = 8;
const HIER_STAGGER: SimTime = 200;
const HIER_HORIZON: SimTime = 1_000_000;

impl SimHier {
    /// Generate the topology.
    pub fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let params = size.pick(HierParams::default(), HierParams::default().scaled_down(50));
        let topo = dbgp_topology::generate_hier(params, seed);
        // Evenly spaced over the stub tail, like
        // `workload::policy::originate_from_stubs`.
        let stubs: Vec<usize> = topo.nodes_in(Tier::Stub).collect();
        let stride = stubs.len() / HIER_ORIGINS;
        let origins = (0..HIER_ORIGINS).map(|i| stubs[i * stride]).collect();
        Ok(SimHier { seed, topo, origins, sim: None, phases: None })
    }
}

impl SimShape for SimHier {
    fn nodes(&self) -> usize {
        self.topo.len()
    }
    fn edges(&self) -> usize {
        self.topo.edge_count()
    }
}

impl Workload for SimHier {
    fn reset(&mut self) {
        self.sim = None;
    }

    fn prepare(&mut self, traced: bool) -> Result<(), String> {
        let mut sim = dbgp_workload::policy::valley_free_sim(&self.topo, self.seed);
        sim.set_threads(1);
        if traced {
            sim.enable_phase_timing();
        }
        self.sim = Some(sim);
        Ok(())
    }

    fn round<T: Trace>(&mut self, trace: &mut T) -> Round {
        let sim = self.sim.as_mut().expect("prepare ran");
        let origins = &self.origins;
        let (round, phases) = sim_round(sim, trace, |sim| {
            for (i, &node) in origins.iter().enumerate() {
                sim.originate(node, node_prefix(node));
                sim.run((i as SimTime + 1) * HIER_STAGGER);
            }
            sim.run(HIER_HORIZON);
            sim.pending_events() == 0
        });
        self.phases = phases;
        round
    }

    fn check(&self) -> Result<(), String> {
        all_reach(self.sim.as_ref().expect("prepare ran"), self.origins.iter().copied())
    }

    fn phase_times(&self) -> Option<PhaseTimes> {
        self.phases
    }
}
