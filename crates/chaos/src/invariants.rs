//! Routing invariants checked at quiescence.
//!
//! After a scenario's faults have been injected and the simulator has
//! quiesced, these checks walk the control- and data-plane state every
//! node holds and look for the classic inter-domain failure modes:
//!
//! * **forwarding loops** — a packet following installed FIBs revisits
//!   a node;
//! * **black holes** — a node forwards toward a neighbor that has no
//!   route (transient during convergence, a bug at quiescence);
//! * **path-vector violations** — a best path whose mixed AS/island
//!   path vector repeats an element or contains the holder's own AS,
//!   i.e. the unified loop detection of G-R5 failed;
//! * **pass-through damage** — an IA that crossed a gulf lost the
//!   non-local protocol descriptors it was carrying (CF-R1 / the
//!   paper's Figure 8 experiment), checked for explicitly registered
//!   (observer, prefix, protocol) expectations.

use dbgp_sim::sim::NodeId;
use dbgp_sim::Sim;
use dbgp_wire::{Ipv4Prefix, PathElem, ProtocolId};
use std::collections::BTreeSet;

/// What the checker found. Empty vectors everywhere means the network
/// is clean.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantReport {
    /// `(prefix, cycle)` — following FIBs for `prefix` revisits a node;
    /// `cycle` is the walk from its first node to the repeat.
    pub forwarding_loops: Vec<(Ipv4Prefix, Vec<NodeId>)>,
    /// `(prefix, node)` — `node` is forwarded to for `prefix` but has
    /// no route for it.
    pub black_holes: Vec<(Ipv4Prefix, NodeId)>,
    /// `(node, prefix, why)` — the node's best path vector violates
    /// loop-freeness.
    pub path_vector_violations: Vec<(NodeId, Ipv4Prefix, String)>,
    /// `(node, prefix, why)` — a registered pass-through expectation
    /// does not hold.
    pub pass_through_violations: Vec<(NodeId, Ipv4Prefix, String)>,
}

impl InvariantReport {
    /// True when every invariant held.
    pub fn ok(&self) -> bool {
        self.violation_count() == 0
    }

    /// Total number of violations across all categories.
    pub fn violation_count(&self) -> usize {
        self.forwarding_loops.len()
            + self.black_holes.len()
            + self.path_vector_violations.len()
            + self.pass_through_violations.len()
    }

    /// One-line summary ("clean" or per-category counts).
    pub fn summary(&self) -> String {
        if self.ok() {
            "clean".to_string()
        } else {
            format!(
                "{} loops, {} black holes, {} path-vector, {} pass-through",
                self.forwarding_loops.len(),
                self.black_holes.len(),
                self.path_vector_violations.len(),
                self.pass_through_violations.len()
            )
        }
    }
}

/// The invariant checker. Construct, register any pass-through
/// expectations, then [`check`](Invariants::check) a quiescent sim.
#[derive(Debug, Clone, Default)]
pub struct Invariants {
    pass_through: Vec<(NodeId, Ipv4Prefix, ProtocolId)>,
}

impl Invariants {
    /// A checker with no pass-through expectations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Require that `observer`'s best route for `prefix` still carries
    /// at least one path or island descriptor owned by `protocol` —
    /// the CF-R1 pass-through property across whatever gulfs separate
    /// the observer from the origin.
    pub fn expect_pass_through(
        mut self,
        observer: NodeId,
        prefix: Ipv4Prefix,
        protocol: ProtocolId,
    ) -> Self {
        self.pass_through.push((observer, prefix, protocol));
        self
    }

    /// Run every check against the simulator's current state.
    pub fn check(&self, sim: &Sim) -> InvariantReport {
        let mut report = InvariantReport::default();
        self.check_forwarding(sim, &mut report);
        self.check_path_vectors(sim, &mut report);
        self.check_pass_through(sim, &mut report);
        report
    }

    /// Walk installed FIBs for every (node, prefix) and flag loops and
    /// black holes. Each distinct loop/hole is reported once.
    fn check_forwarding(&self, sim: &Sim, report: &mut InvariantReport) {
        // Each node's table is built once, then walked many times.
        let fibs: Vec<_> = (0..sim.node_count()).map(|node| sim.fib(node)).collect();
        let mut prefixes: BTreeSet<Ipv4Prefix> = BTreeSet::new();
        for fib in &fibs {
            prefixes.extend(fib.keys().copied());
        }
        for prefix in prefixes {
            let mut looped: BTreeSet<NodeId> = BTreeSet::new();
            let mut holed: BTreeSet<NodeId> = BTreeSet::new();
            for start in 0..sim.node_count() {
                if !fibs[start].contains_key(&prefix) {
                    continue;
                }
                let mut walk = vec![start];
                let mut seen: BTreeSet<NodeId> = BTreeSet::from([start]);
                let mut cur = start;
                loop {
                    match fibs[cur].get(&prefix) {
                        // Delivered locally: a clean walk.
                        Some(None) => break,
                        Some(Some(next)) => {
                            if !seen.insert(*next) {
                                if looped.insert(*next) {
                                    walk.push(*next);
                                    report.forwarding_loops.push((prefix, walk));
                                }
                                break;
                            }
                            walk.push(*next);
                            cur = *next;
                        }
                        // Forwarded to a node with no route.
                        None => {
                            if holed.insert(cur) {
                                report.black_holes.push((prefix, cur));
                            }
                            break;
                        }
                    }
                }
            }
        }
    }

    /// G-R5: every installed best path's mixed AS/island path vector
    /// must be loop-free and must not contain the holder itself.
    fn check_path_vectors(&self, sim: &Sim, report: &mut InvariantReport) {
        for node in 0..sim.node_count() {
            let own_asn = sim.speaker(node).asn();
            for (prefix, chosen) in sim.speaker(node).routes() {
                let ia = &chosen.ia;
                if ia.contains_as(own_asn) {
                    report.path_vector_violations.push((
                        node,
                        *prefix,
                        format!("own AS {own_asn} appears in the path vector"),
                    ));
                }
                let mut seen_as: BTreeSet<u32> = BTreeSet::new();
                let mut seen_island: BTreeSet<u32> = BTreeSet::new();
                for elem in &ia.path_vector {
                    let duplicate = match elem {
                        PathElem::As(asn) => !seen_as.insert(*asn),
                        PathElem::Island(island) => !seen_island.insert(island.0),
                        // AS_SET members may repeat across aggregation
                        // boundaries; skip them like BGP does.
                        PathElem::AsSet(_) => false,
                    };
                    if duplicate {
                        report.path_vector_violations.push((
                            node,
                            *prefix,
                            format!("repeated element {elem:?} in the path vector"),
                        ));
                        break;
                    }
                }
            }
        }
    }

    /// CF-R1: registered observers must still see the non-local
    /// protocol's descriptors on their best route.
    fn check_pass_through(&self, sim: &Sim, report: &mut InvariantReport) {
        for &(observer, prefix, protocol) in &self.pass_through {
            let Some(chosen) = sim.speaker(observer).best(&prefix) else {
                report.pass_through_violations.push((
                    observer,
                    prefix,
                    format!("no route at all (expected {protocol:?} descriptors)"),
                ));
                continue;
            };
            let ia = &chosen.ia;
            let has_descriptor = ia.path_descriptors_for(protocol).next().is_some()
                || ia.island_descriptors_for(protocol).next().is_some();
            if !has_descriptor {
                report.pass_through_violations.push((
                    observer,
                    prefix,
                    format!("best route carries no {protocol:?} descriptors"),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::DbgpConfig;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn converged_chain_is_clean() {
        let mut sim = Sim::new();
        let nodes: Vec<_> = (1..=4).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
        for w in nodes.windows(2) {
            sim.link(w[0], w[1], 10, false);
        }
        sim.originate(nodes[0], p("10.0.0.0/8"));
        sim.run(10_000_000);
        let report = Invariants::new().check(&sim);
        assert!(report.ok(), "unexpected violations: {report:?}");
        assert_eq!(report.summary(), "clean");
    }

    #[test]
    fn missing_pass_through_is_flagged() {
        let mut sim = Sim::new();
        let a = sim.add_node(DbgpConfig::gulf(1));
        let b = sim.add_node(DbgpConfig::gulf(2));
        sim.link(a, b, 10, false);
        sim.originate(a, p("10.0.0.0/8"));
        sim.run(10_000_000);
        // b's route exists but plain BGP IAs carry no Wiser descriptors.
        let report = Invariants::new()
            .expect_pass_through(b, p("10.0.0.0/8"), ProtocolId::WISER)
            .check(&sim);
        assert_eq!(report.pass_through_violations.len(), 1);
        assert!(!report.ok());
        // And an expectation for a missing route reports differently.
        let report = Invariants::new()
            .expect_pass_through(b, p("99.0.0.0/8"), ProtocolId::WISER)
            .check(&sim);
        assert!(report.pass_through_violations[0].2.contains("no route"));
    }
}
