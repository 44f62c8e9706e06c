//! Gao-Rexford policy workloads: build a valley-free simulation from a
//! tiered topology.
//!
//! The hierarchical benchmark tier ([`dbgp_topology::hierarchical`])
//! only stays tractable because valley-free export prunes the
//! advertisement flood: a stub-originated prefix climbs provider chains
//! to the clique, crosses it once, and fans out strictly downward —
//! instead of echoing across every lateral adjacency the way an
//! unpoliced 50,000-AS mesh would.

use dbgp_core::DbgpConfig;
use dbgp_sim::{Sim, SimTime};
use dbgp_topology::{HierTopology, Relationship, Tier};
use dbgp_wire::Ipv4Prefix;

/// Link delay by hierarchy depth: core adjacencies are long-haul, edge
/// adjacencies short — so lookahead windows see a heterogeneous delay
/// distribution, like the churn suites.
pub fn tier_delay(topo: &HierTopology, a: usize, b: usize) -> SimTime {
    let rank = |t: Tier| match t {
        Tier::Tier1 => 3,
        Tier::Tier2 => 2,
        Tier::Regional => 1,
        Tier::Stub => 0,
    };
    1 + rank(topo.tier(a)) + rank(topo.tier(b))
}

/// Build a simulation over a tiered topology with every speaker's
/// `valley_free` filter on, customer/provider links annotated from the
/// transit graph, and tier-1/tier-2 lateral adjacencies as
/// settlement-free peering. No prefixes are originated yet.
pub fn valley_free_sim(topo: &HierTopology, seed: u64) -> Sim {
    let mut sim = Sim::new();
    sim.set_seed(seed);
    sim.reserve_events(2 * topo.edge_count());
    for node in 0..topo.len() {
        let mut cfg = DbgpConfig::gulf(node as u32 + 1);
        cfg.filters.valley_free = true;
        sim.add_node(cfg);
    }
    for customer in 0..topo.len() {
        for adj in topo.transit.neighbors(customer) {
            if adj.relationship == Relationship::CustomerToProvider {
                let delay = tier_delay(topo, customer, adj.neighbor);
                sim.link_customer_provider(customer, adj.neighbor, delay);
            }
        }
    }
    for &(a, b) in &topo.peering {
        sim.link_peering(a, b, tier_delay(topo, a, b));
    }
    sim
}

/// The prefix a node originates in the hierarchical scenarios (unique
/// per node for topologies under 65,536 ASes).
pub fn node_prefix(node: usize) -> Ipv4Prefix {
    format!("10.{}.{}.0/24", (node >> 8) & 0xff, node & 0xff).parse().expect("valid prefix")
}

/// Originate prefixes from `count` stubs spread evenly across the stub
/// tail, returning the prefixes in origination order. Stub selection is
/// a pure function of the topology, so every run replays the identical
/// driver sequence.
pub fn originate_from_stubs(sim: &mut Sim, topo: &HierTopology, count: usize) -> Vec<Ipv4Prefix> {
    let stubs: Vec<usize> = topo.nodes_in(Tier::Stub).collect();
    assert!(!stubs.is_empty(), "topology has no stubs to originate from");
    let count = count.min(stubs.len());
    let stride = stubs.len() / count;
    let mut prefixes = Vec::with_capacity(count);
    for i in 0..count {
        let node = stubs[i * stride];
        let prefix = node_prefix(node);
        sim.originate(node, prefix);
        prefixes.push(prefix);
    }
    prefixes
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_topology::{generate_hier, HierParams};

    fn tiny() -> HierTopology {
        generate_hier(HierParams::default().scaled_down(250), 5)
    }

    #[test]
    fn valley_free_sim_converges_and_prunes_lateral_echo() {
        let topo = tiny();
        let mut sim = valley_free_sim(&topo, 99);
        let prefixes = originate_from_stubs(&mut sim, &topo, 4);
        assert_eq!(prefixes.len(), 4);
        let stats = sim.run(5_000_000);
        assert_eq!(sim.pending_events(), 0, "must quiesce");
        assert!(stats.messages > 0);
        // Every node reaches every originated prefix: the hierarchy is
        // connected through valley-free paths by construction (each
        // node's provider chain reaches the clique).
        for node in 0..topo.len() {
            for prefix in &prefixes {
                assert!(
                    sim.speaker(node).best(prefix).is_some(),
                    "node {node} has no route to {prefix}"
                );
            }
        }
        // And the policy actually bites: an unpoliced run floods
        // strictly more advertisements over the same topology.
        let mut free = Sim::new();
        free.set_seed(99);
        for node in 0..topo.len() {
            free.add_node(DbgpConfig::gulf(node as u32 + 1));
        }
        for customer in 0..topo.len() {
            for adj in topo.transit.neighbors(customer) {
                if adj.relationship == Relationship::CustomerToProvider {
                    free.link(
                        customer,
                        adj.neighbor,
                        tier_delay(&topo, customer, adj.neighbor),
                        false,
                    );
                }
            }
        }
        for &(a, b) in &topo.peering {
            free.link(a, b, tier_delay(&topo, a, b), false);
        }
        let stubs: Vec<usize> = topo.nodes_in(Tier::Stub).collect();
        let stride = stubs.len() / 4;
        for i in 0..4 {
            free.originate(stubs[i * stride], node_prefix(stubs[i * stride]));
        }
        let free_stats = free.run(5_000_000);
        assert!(
            free_stats.messages > stats.messages,
            "valley-free ({}) should send fewer messages than unpoliced ({})",
            stats.messages,
            free_stats.messages
        );
    }

    #[test]
    fn valley_free_routes_never_traverse_valleys() {
        let topo = tiny();
        let mut sim = valley_free_sim(&topo, 7);
        let prefixes = originate_from_stubs(&mut sim, &topo, 2);
        sim.run(5_000_000);
        // Spot-check installed paths on a sample of nodes: strip our
        // own hop and verify the AS-level path is valley-free over the
        // transit graph (peering hops allowed only at the top).
        let mut checked = 0;
        for node in (0..topo.len()).step_by(7) {
            for prefix in &prefixes {
                let Some(chosen) = sim.speaker(node).best(prefix) else { continue };
                let path: Vec<usize> = std::iter::once(node)
                    .chain(chosen.ia.path_vector.iter().filter_map(|e| match e {
                        dbgp_wire::PathElem::As(asn) => Some(*asn as usize - 1),
                        _ => None,
                    }))
                    .collect();
                // Split the path at peering hops; each transit segment
                // must itself be valley-free.
                let mut seg_start = 0;
                for w in 0..path.len().saturating_sub(1) {
                    let (a, b) = (path[w], path[w + 1]);
                    let lateral = topo.peering.binary_search(&(a.min(b), a.max(b))).is_ok();
                    if lateral {
                        assert!(
                            topo.transit.is_valley_free(&path[seg_start..=w]) || w == seg_start,
                            "transit segment {:?} has a valley",
                            &path[seg_start..=w]
                        );
                        seg_start = w + 1;
                    }
                }
                assert!(
                    topo.transit.is_valley_free(&path[seg_start..]) || seg_start + 1 >= path.len(),
                    "transit segment {:?} has a valley",
                    &path[seg_start..]
                );
                checked += 1;
            }
        }
        assert!(checked > 10, "checked only {checked} paths");
    }
}
