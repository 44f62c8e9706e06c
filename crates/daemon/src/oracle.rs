//! The in-process oracle: every config of a topology run as a [`Node`]
//! on `dbgp_session`'s in-memory [`Fabric`], pumped to quiescence.
//!
//! This is the check that the transport changes nothing: the interop
//! tests diff live `dbgpd` dumps against it, and because the converged
//! RIB contents are schedule-independent, the oracle's dumps match a
//! real run bit for bit regardless of which connection happened to win
//! where. It is not the reference model — it runs the same `Node` code
//! the live daemons do. `dbgp-oracle`'s `RefNet` is the reference, and
//! its differential harness drives this fabric as a third participant.
//! All this module adds is the wiring: each neighbor's `addr=` is
//! matched to another config's `listen` line.

use crate::config::DaemonConfig;
use crate::node::Node;
use dbgp_session::{Fabric, PeerId};

/// A topology of daemon configs, wired onto one fabric.
pub struct Oracle(Fabric<Node>);

impl Oracle {
    /// Wire up a topology from parsed configs. Dial targets (`addr=`)
    /// are matched against `listen` lines; the reverse neighbor on the
    /// accepting node is found by AS number.
    pub fn new(configs: &[DaemonConfig]) -> Result<Self, String> {
        let mut fabric = Fabric::new(configs.iter().map(Node::from_config).collect());
        for (i, cfg) in configs.iter().enumerate() {
            for (j, spec) in cfg.neighbors.iter().enumerate() {
                let Some(addr) = &spec.addr else { continue };
                let Some(k) = configs.iter().position(|c| c.listen.as_ref() == Some(addr)) else {
                    return Err(format!(
                        "as {}: neighbor as={} addr={} matches no config's listen",
                        cfg.local_as, spec.peer_as, addr
                    ));
                };
                let Some(q) = configs[k].neighbors.iter().position(|n| n.peer_as == cfg.local_as)
                else {
                    return Err(format!(
                        "as {}: no reverse neighbor for as {} on as {}",
                        cfg.local_as, cfg.local_as, configs[k].local_as
                    ));
                };
                fabric.link(i, PeerId(j as u32), k, PeerId(q as u32));
            }
        }
        Ok(Oracle(fabric))
    }

    /// Start every node and pump to quiescence; returns the converged
    /// nodes for dumping.
    pub fn converge(self) -> Vec<Node> {
        let mut fabric = self.0;
        fabric.start();
        fabric.into_nodes()
    }

    /// The wired fabric, not yet started, for a caller that drives
    /// phases and faults itself.
    pub fn into_fabric(self) -> Fabric<Node> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dump::{all_established, dump_node};
    use crate::testutil::line_configs;

    #[test]
    fn two_nodes_converge_with_collision() {
        // Both sides dial (neither is passive): the fabric creates two
        // pipes and §6.8 must collapse them to one established session.
        let nodes = Oracle::new(&line_configs(29100, 2, None)).unwrap().converge();
        assert!(all_established(&nodes[0]), "A not established");
        assert!(all_established(&nodes[1]), "B not established");
        let dump_a = dump_node(&nodes[0]);
        assert!(dump_a.contains("ia=true"), "IA capability negotiated:\n{dump_a}");
        assert!(dump_a.contains("route 10.2.0.0/16 path=65002"), "learned B's net:\n{dump_a}");
        let dump_b = dump_node(&nodes[1]);
        assert!(dump_b.contains("route 10.1.0.0/16 path=65001"), "learned A's net:\n{dump_b}");
    }

    #[test]
    fn passive_side_still_converges() {
        let a = DaemonConfig::parse(
            "local-as 65001\nrouter-id 10.0.0.1\nlisten 127.0.0.1:29201\n\
             network 10.1.0.0/16\nneighbor as=65002 passive\n",
        )
        .unwrap();
        let b = DaemonConfig::parse(
            "local-as 65002\nrouter-id 10.0.0.2\n\
             network 10.2.0.0/16\nneighbor as=65001 addr=127.0.0.1:29201\n",
        )
        .unwrap();
        let nodes = Oracle::new(&[a, b]).unwrap().converge();
        assert!(all_established(&nodes[0]));
        assert!(all_established(&nodes[1]));
        assert!(dump_node(&nodes[0]).contains("route 10.2.0.0/16"));
    }

    #[test]
    fn five_node_gulf_converges_and_ia_gap_visible() {
        // Line A-B-C-D-E; C is a legacy island (no ia flag).
        let nodes = Oracle::new(&line_configs(29300, 5, Some(2))).unwrap().converge();
        for (i, n) in nodes.iter().enumerate() {
            assert!(all_established(n), "node {i} not fully established");
        }
        let dump_a = dump_node(&nodes[0]);
        // A learns E's prefix across the gulf with the full AS path.
        assert!(
            dump_a.contains("route 10.5.0.0/16 path=65002 65003 65004 65005"),
            "gulf path:\n{dump_a}"
        );
        // B's session toward C negotiated no IA; toward A it did.
        let dump_b = dump_node(&nodes[1]);
        assert!(dump_b.contains("peer as=65001 state=established ia=true"), "{dump_b}");
        assert!(dump_b.contains("peer as=65003 state=established ia=false"), "{dump_b}");
    }
}
