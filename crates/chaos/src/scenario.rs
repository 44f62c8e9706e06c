//! Canonical scenarios: topology lowerings the chaos tests and the
//! `chaos_table` benchmark share.
//!
//! Each builder returns a fully wired, *not yet converged* simulation
//! plus the handles a fault plan needs (node indices, the prefix under
//! test). Callers originate, converge, then hand a plan to a
//! [`ScenarioRunner`](crate::ScenarioRunner).

use dbgp_core::{DbgpConfig, IslandConfig};
use dbgp_protocols::rbgp::RbgpModule;
use dbgp_protocols::wiser::WiserModule;
use dbgp_sim::{Sim, SimTime};
use dbgp_telemetry::query::TraceLog;
use dbgp_telemetry::TraceRecorder;
use dbgp_topology::AsGraph;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use std::rc::Rc;

/// The prefix every scenario's destination originates (Rutgers' /16,
/// the paper's running example).
pub fn scenario_prefix() -> Ipv4Prefix {
    "128.6.0.0/16".parse().unwrap()
}

/// Lower a relationship-annotated [`AsGraph`] into a simulation of
/// plain gulf (BGP-over-D-BGP) speakers. Node `i` gets AS number
/// `i + 1`; every edge becomes a symmetric link with the given delay.
/// Edges are added in deterministic `(min, max)` order.
pub fn sim_from_graph(graph: &AsGraph, delay: SimTime) -> Sim {
    let mut sim = Sim::new();
    for node in 0..graph.len() {
        sim.add_node(DbgpConfig::gulf(node as u32 + 1));
    }
    let mut edges: Vec<(usize, usize)> = Vec::with_capacity(graph.edge_count());
    for a in 0..graph.len() {
        for adj in graph.neighbors(a) {
            if a < adj.neighbor {
                edges.push((a, adj.neighbor));
            }
        }
    }
    edges.sort_unstable();
    for (a, b) in edges {
        sim.link(a, b, delay, false);
    }
    sim
}

/// The Figure 8 deployment testbed with Wiser islands on both sides of
/// a two-path BGP gulf (the §6.1 experiment, with the G2 gulf split in
/// two so the cheap Wiser exit rides the *longer* BGP path).
pub struct Figure8Wiser {
    /// The wired simulation.
    pub sim: Sim,
    /// Destination D (island A).
    pub d: usize,
    /// Island A's expensive border AS.
    pub a2: usize,
    /// Island A's cheap border AS.
    pub a3: usize,
    /// Gulf AS on the short path.
    pub g1: usize,
    /// First gulf AS on the long path.
    pub g2a: usize,
    /// Second gulf AS on the long path.
    pub g2b: usize,
    /// Source S (island B).
    pub s: usize,
}

/// Build the Figure 8 Wiser deployment: island A (D, A2 expensive, A3
/// cheap), a gulf of G1 (short) and G2a-G2b (long), island B (S).
pub fn figure8_wiser() -> Figure8Wiser {
    let island_a = IslandConfig { id: IslandId(900), abstraction: false };
    let island_b = IslandConfig { id: IslandId(901), abstraction: false };
    let mut sim = Sim::new();
    let d = sim.add_node(DbgpConfig::island_member(10, island_a, ProtocolId::WISER));
    let a2 = sim.add_node(DbgpConfig::island_member(11, island_a, ProtocolId::WISER));
    let a3 = sim.add_node(DbgpConfig::island_member(12, island_a, ProtocolId::WISER));
    let g1 = sim.add_node(DbgpConfig::gulf(4000));
    let g2a = sim.add_node(DbgpConfig::gulf(4001));
    let g2b = sim.add_node(DbgpConfig::gulf(4002));
    let s = sim.add_node(DbgpConfig::island_member(20, island_b, ProtocolId::WISER));

    // The short exit (via A2/G1) is expensive, the long exit (via
    // A3/G2a/G2b) cheap — the Figure 1 inversion Wiser must surface.
    let portal = |n: u8| Ipv4Addr::new(163, 42, 5, n);
    sim.speaker_mut(d).register_module(Box::new(WiserModule::new(IslandId(900), portal(0), 5)));
    sim.speaker_mut(a2).register_module(Box::new(WiserModule::new(IslandId(900), portal(0), 500)));
    sim.speaker_mut(a3).register_module(Box::new(WiserModule::new(IslandId(900), portal(0), 10)));
    sim.speaker_mut(s).register_module(Box::new(WiserModule::new(IslandId(901), portal(1), 5)));

    sim.link(d, a2, 10, true);
    sim.link(d, a3, 10, true);
    sim.link(a2, g1, 10, false);
    sim.link(a3, g2a, 10, false);
    sim.link(g2a, g2b, 10, false);
    sim.link(g1, s, 10, false);
    sim.link(g2b, s, 10, false);
    Figure8Wiser { sim, d, a2, a3, g1, g2a, g2b, s }
}

/// The R-BGP failover diamond, lowered from
/// [`dbgp_topology::fixtures::rbgp_diamond`]: destination (node 0), a
/// short transit (1), a long transit pair (2, 3), and a source (4)
/// running R-BGP so the long path is staged as a disjoint backup.
pub struct RbgpDiamond {
    /// The wired simulation.
    pub sim: Sim,
    /// Destination.
    pub d: usize,
    /// Short (primary) transit.
    pub short: usize,
    /// First hop of the long (backup) path.
    pub long_a: usize,
    /// Second hop of the long (backup) path.
    pub long_b: usize,
    /// Source running R-BGP.
    pub s: usize,
}

/// Build the diamond with an R-BGP source.
pub fn rbgp_diamond() -> RbgpDiamond {
    let graph = dbgp_topology::fixtures::rbgp_diamond();
    let mut sim = Sim::new();
    for node in 0..graph.len() {
        if node == 4 {
            let mut cfg = DbgpConfig::gulf(node as u32 + 1);
            cfg.active = ProtocolId::RBGP;
            sim.add_node(cfg);
        } else {
            sim.add_node(DbgpConfig::gulf(node as u32 + 1));
        }
    }
    sim.speaker_mut(4).register_module(Box::new(RbgpModule::new()));
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for a in 0..graph.len() {
        for adj in graph.neighbors(a) {
            if a < adj.neighbor {
                edges.push((a, adj.neighbor));
            }
        }
    }
    edges.sort_unstable();
    for (a, b) in edges {
        sim.link(a, b, 10, false);
    }
    RbgpDiamond { sim, d: 0, short: 1, long_a: 2, long_b: 3, s: 4 }
}

/// Run the `fig8-wiser-flap` chaos scenario (the same fault plan
/// `chaos_table` reports on) with an unbounded trace recorder attached
/// and return the recorded log — the fixture behind `trace_query` and
/// its pinned-answer tests.
pub fn traced_fig8_wiser_flap() -> TraceLog {
    let mut f = figure8_wiser();
    f.sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    f.sim.originate(f.d, scenario_prefix());
    f.sim.run(10_000_000);
    let plan = crate::FaultPlan::new()
        .link_flaps(f.g2a, f.g2b, 20_000_000, 40_000_000, 10_000_000, 2)
        .link_flap(f.g1, f.s, 110_000_000, 130_000_000);
    crate::ScenarioRunner::default().run(&mut f.sim, &plan);
    TraceLog::from_recorder(f.sim.trace_recorder().expect("recorder attached"), "fig8-wiser-flap")
}

/// Run the `rbgp-diamond-failover` scenario traced: converge on the
/// short primary, kill the destination-primary link, converge again on
/// the staged disjoint backup.
pub fn traced_rbgp_diamond_failover() -> TraceLog {
    let diamond = rbgp_diamond();
    let (mut sim, d, short) = (diamond.sim, diamond.d, diamond.short);
    sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    sim.originate(d, scenario_prefix());
    sim.run(10_000_000);
    sim.fail_link(d, short);
    sim.run(60_000_000);
    TraceLog::from_recorder(
        sim.trace_recorder().expect("recorder attached"),
        "rbgp-diamond-failover",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_lowering_converges() {
        let graph = dbgp_topology::fixtures::waxman_50(1);
        let mut sim = sim_from_graph(&graph, 10);
        assert_eq!(sim.node_count(), 50);
        sim.originate(0, scenario_prefix());
        sim.run(100_000_000);
        assert_eq!(sim.pending_events(), 0, "quiesces");
        for node in 1..sim.node_count() {
            assert!(
                sim.speaker(node).best(&scenario_prefix()).is_some(),
                "node {node} learned the prefix"
            );
        }
    }
}
