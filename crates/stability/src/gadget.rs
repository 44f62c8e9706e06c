//! The gadget fixture library: classic stability gadgets as
//! topology-plus-policy specs reusable by the simulator, the oracle
//! reference model, and the schedule explorer.
//!
//! A [`Gadget`] wraps a differential [`Scenario`] (so the existing
//! [`build_production`] / [`build_reference`] plumbing does the heavy
//! lifting) plus optional per-node path *rankings*. Rankings install
//! the stability override — [`RankedPolicyModule`] in the production
//! simulator, [`RefModule::Ranked`] in the reference model — which
//! replaces baseline BGP selection with an explicit path preference
//! list, exactly the policy freedom the Stable Paths Problem gadgets
//! (Griffin–Shepherd–Wilfong) exploit.
//!
//! Node 0 is always the origin. AS numbers follow the differential
//! harness's `10 + 7·i` convention, so the committed
//! `eqbgp-legacy-livelock` fixture promotes into the catalog with the
//! same ASNs it was shrunk with.

use dbgp_oracle::{
    build_production, build_reference, scenario_from_json, Fault, IslandSpec, NodeSpec, RefModule,
    RefNet, Scenario,
};
use dbgp_protocols::RankedPolicyModule;
use dbgp_sim::Sim;
use dbgp_topology::wheel_edges;
use dbgp_wire::{Ipv4Prefix, ProtocolId};
use std::str::FromStr;

/// Island ID shared by every protocol-bearing gadget node (matches the
/// differential fixtures, which use island 900).
pub const GADGET_ISLAND: u32 = 900;

/// The prefix every gadget originates (the differential fixtures'
/// prefix, so promoted fixtures keep their exact wire images).
pub fn gadget_prefix() -> Ipv4Prefix {
    Ipv4Prefix::from_str("128.6.0.0/16").expect("literal prefix parses")
}

/// AS number of gadget node `i` — the differential harness convention.
pub fn gadget_asn(i: usize) -> u32 {
    10 + 7 * i as u32
}

/// A stability gadget: one named topology + policy instance, run under
/// one protocol variant.
#[derive(Debug, Clone)]
pub struct Gadget {
    /// Gadget name (`bad-gadget`, `disagree`, `wheel-5`, ...).
    pub name: String,
    /// Protocol variant label (`ranked`, `bgp`, `wiser`, `hlp`,
    /// `eqbgp`).
    pub protocol: &'static str,
    /// The underlying differential scenario (topology, islands,
    /// originations, fault plan).
    pub scenario: Scenario,
    /// Per-node ranked-path overrides: `Some(prefs)` registers the
    /// stability ranking module on that node; AS-path sequences, most
    /// preferred first.
    pub rankings: Vec<Option<Vec<Vec<u32>>>>,
}

impl Gadget {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.scenario.nodes.len()
    }

    /// AS number of node `i`.
    pub fn asn(&self, i: usize) -> u32 {
        self.scenario.nodes[i].asn
    }

    /// Origin node index (first origination).
    pub fn origin(&self) -> usize {
        self.scenario.originations[0].0
    }

    /// Whether the (undirected) link `a`–`b` exists, and if so whether
    /// it speaks D-BGP (`false` = legacy BGP session: island
    /// descriptors are stripped in transit).
    pub fn link(&self, a: usize, b: usize) -> Option<bool> {
        self.scenario
            .links
            .iter()
            .find(|&&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
            .map(|&(_, _, dbgp)| dbgp)
    }

    /// Up-front neighbor list of node `i` (faults not applied).
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .scenario
            .links
            .iter()
            .filter_map(|&(a, b, _)| {
                if a == i {
                    Some(b)
                } else if b == i {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Build the oracle reference network, register ranking overrides,
    /// and apply the originations (pending frames are queued, nothing
    /// is delivered yet).
    pub fn build_ref(&self) -> RefNet {
        let mut net = build_reference(&self.scenario);
        for (i, prefs) in self.rankings.iter().enumerate() {
            if let Some(prefs) = prefs {
                net.speaker_mut(i).register_module(RefModule::Ranked { prefs: prefs.clone() });
            }
        }
        for &(node, prefix) in &self.scenario.originations {
            net.originate(node, prefix);
        }
        net
    }

    /// Build the production simulator (MRAI 0, uniform link delay),
    /// register ranking overrides, and apply the originations.
    pub fn build_sim(&self) -> Sim {
        let mut sim = build_production(&self.scenario);
        for (i, prefs) in self.rankings.iter().enumerate() {
            if let Some(prefs) = prefs {
                sim.speaker_mut(i)
                    .register_module(Box::new(RankedPolicyModule::with_prefs(prefs.clone())));
            }
        }
        for &(node, prefix) in &self.scenario.originations {
            sim.originate(node, prefix);
        }
        sim
    }
}

/// AS-path sequence for the node path `hops` (first hop first).
fn asns(hops: &[usize]) -> Vec<u32> {
    hops.iter().map(|&i| gadget_asn(i)).collect()
}

fn protocol_spec(protocol: &str) -> Option<IslandSpec> {
    let id = match protocol {
        "ranked" | "bgp" => return None,
        "wiser" => ProtocolId::WISER.0,
        "eqbgp" => ProtocolId::EQBGP.0,
        "hlp" => ProtocolId::HLP.0,
        other => panic!("unknown gadget protocol variant {other:?}"),
    };
    Some(IslandSpec { id: GADGET_ISLAND, abstraction: false, protocol: id })
}

/// Build a wheel-topology gadget: spokes `(0, i)` and a rim ring, with
/// per-variant policies. For the `ranked` variant, `ring_prefs` picks
/// between prefer-clockwise (the dispute wheel) and prefer-direct
/// (wheel-free) rankings.
fn wheel_gadget(name: &str, k: usize, protocol: &'static str, prefer_ring: bool) -> Gadget {
    let spec = protocol_spec(protocol);
    let nodes: Vec<NodeSpec> =
        (0..=k).map(|i| NodeSpec { asn: gadget_asn(i), island: spec }).collect();
    let links: Vec<(usize, usize, bool)> =
        wheel_edges(k).into_iter().map(|(a, b)| (a, b, true)).collect();
    let rankings: Vec<Option<Vec<Vec<u32>>>> = if protocol == "ranked" {
        (0..=k)
            .map(|i| {
                if i == 0 {
                    None
                } else {
                    let next = if i == k { 1 } else { i + 1 };
                    let ring = asns(&[next, 0]);
                    let direct = asns(&[0]);
                    let prefs = if prefer_ring { vec![ring, direct] } else { vec![direct, ring] };
                    Some(prefs)
                }
            })
            .collect()
    } else {
        vec![None; k + 1]
    };
    Gadget {
        name: name.to_string(),
        protocol,
        scenario: Scenario {
            nodes,
            links,
            originations: vec![(0, gadget_prefix())],
            faults: vec![],
        },
        rankings,
    }
}

/// BAD-GADGET: the size-3 dispute wheel with prefer-clockwise rankings.
/// No stable path assignment exists; every schedule diverges.
pub fn bad_gadget(protocol: &'static str) -> Gadget {
    wheel_gadget("bad-gadget", 3, protocol, true)
}

/// GOOD-GADGET: the same 3-ring topology with prefer-direct rankings —
/// dispute-wheel-free, converges on every schedule.
pub fn good_gadget(protocol: &'static str) -> Gadget {
    wheel_gadget("good-gadget", 3, protocol, false)
}

/// DISAGREE: two rim nodes each preferring the path through the other.
/// A dispute wheel exists, but so do two stable states; which one (if
/// any) a run reaches depends on the schedule. Under the global-FIFO
/// schedule the perfectly symmetric message race recurs forever.
pub fn disagree(protocol: &'static str) -> Gadget {
    wheel_gadget("disagree", 2, protocol, true)
}

/// Parametric dispute wheel of size `k` with prefer-clockwise rankings
/// (`wheel(3, _)` is BAD-GADGET, `wheel(2, _)` DISAGREE).
pub fn wheel(k: usize, protocol: &'static str) -> Gadget {
    wheel_gadget(&format!("wheel-{k}"), k, protocol, true)
}

/// The BGP-wedgie gadget (RFC 4264 in miniature): origin 0 is
/// multihomed to a backup provider 1 and a primary provider 2, both
/// reaching an upstream 3. Node 1 treats its customer link as backup
/// (prefers the long route via the upstream); node 3 prefers the
/// route via 1. Flapping the backup link `0`–`1` returns the topology
/// to its initial shape, but routing latches onto the other stable
/// state — 1 never falls back to its direct link once the upstream
/// route exists. Every phase converges under the global-FIFO
/// schedule, so the hysteresis is deterministic.
pub fn wedgie() -> Gadget {
    let nodes: Vec<NodeSpec> =
        (0..4).map(|i| NodeSpec { asn: gadget_asn(i), island: None }).collect();
    let links = vec![(0, 1, true), (0, 2, true), (1, 3, true), (2, 3, true)];
    let rankings = vec![
        None,
        // 1: backup semantics — prefer the upstream route, use the
        // direct customer link only as a last resort.
        Some(vec![asns(&[3, 2, 0]), asns(&[0])]),
        // 2: primary — prefer the direct customer link.
        Some(vec![asns(&[0]), asns(&[3, 1, 0])]),
        // 3: prefer the route via the backup provider.
        Some(vec![asns(&[1, 0]), asns(&[2, 0])]),
    ];
    Gadget {
        name: "wedgie".to_string(),
        protocol: "ranked",
        scenario: Scenario {
            nodes,
            links,
            originations: vec![(0, gadget_prefix())],
            faults: vec![Fault::LinkDown(0, 1), Fault::LinkRestore(0, 1)],
        },
        rankings,
    }
}

/// The committed differential fixture, promoted into the gadget
/// library: three EQ-BGP islanders whose `0`–`2` link is a legacy BGP
/// session. The stripped bandwidth descriptor makes node 2 score its
/// direct route 0 while scoring the route *through* node 1 at 100, and
/// node 1 score the route through node 2 at 500 — a size-2 dispute
/// wheel the differential harness caught livelocking (PR 4).
pub fn eqbgp_legacy_livelock(protocol: &'static str) -> Gadget {
    let raw = include_str!("../../oracle/fixtures/eqbgp-legacy-livelock.json");
    let value = serde_json::from_str(raw).expect("fixture is valid JSON");
    let mut scenario = scenario_from_json(&value).expect("fixture is a valid scenario");
    if protocol == "bgp" {
        for node in &mut scenario.nodes {
            node.island = None;
        }
    } else {
        assert_eq!(protocol, "eqbgp", "fixture variants: eqbgp (native) or bgp (baseline)");
    }
    let n = scenario.nodes.len();
    Gadget {
        name: "eqbgp-legacy-livelock".to_string(),
        protocol,
        scenario,
        rankings: vec![None; n],
    }
}

/// The full catalog: every gadget × protocol case the stability table
/// reports on.
pub fn catalog() -> Vec<Gadget> {
    vec![
        good_gadget("ranked"),
        good_gadget("bgp"),
        good_gadget("wiser"),
        good_gadget("hlp"),
        bad_gadget("ranked"),
        bad_gadget("bgp"),
        bad_gadget("wiser"),
        bad_gadget("hlp"),
        disagree("ranked"),
        disagree("bgp"),
        disagree("eqbgp"),
        wedgie(),
        wheel(4, "ranked"),
        wheel(4, "bgp"),
        wheel(5, "ranked"),
        wheel(5, "bgp"),
        eqbgp_legacy_livelock("eqbgp"),
        eqbgp_legacy_livelock("bgp"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_required_breadth() {
        let cases = catalog();
        let gadgets: std::collections::BTreeSet<&str> =
            cases.iter().map(|g| g.name.as_str()).collect();
        let protocols: std::collections::BTreeSet<&str> =
            cases.iter().map(|g| g.protocol).collect();
        assert!(gadgets.len() >= 5, "need at least 5 gadgets, have {gadgets:?}");
        assert!(protocols.len() >= 3, "need at least 3 protocols, have {protocols:?}");
    }

    #[test]
    fn fixture_promotes_with_original_asns() {
        let g = eqbgp_legacy_livelock("eqbgp");
        assert_eq!(g.node_count(), 3);
        assert_eq!((g.asn(0), g.asn(1), g.asn(2)), (10, 17, 24));
        assert_eq!(g.link(0, 2), Some(false), "the 0-2 link is the legacy session");
        assert_eq!(g.link(0, 1), Some(true));
    }

    #[test]
    fn ranked_gadgets_rank_received_paths() {
        let g = bad_gadget("ranked");
        // Node 1 prefers the clockwise route through node 2.
        assert_eq!(
            g.rankings[1].as_ref().unwrap(),
            &vec![vec![gadget_asn(2), gadget_asn(0)], vec![gadget_asn(0)]]
        );
    }

    #[test]
    fn builders_mirror_each_other() {
        for g in [bad_gadget("ranked"), disagree("eqbgp"), good_gadget("wiser")] {
            let net = g.build_ref();
            let sim = g.build_sim();
            assert_eq!(net.node_count(), sim.node_count());
            assert!(net.pending() > 0, "{}: originations queued frames", g.name);
        }
    }
}
