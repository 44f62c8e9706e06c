//! Per-protocol conformance: one end-to-end production-simulator test
//! per deployed protocol, each pinning a selection outcome that only
//! that protocol's semantics can produce, across a gulf of
//! non-deploying ASes. Every scenario is also pushed through the
//! differential harness so the naive reference model agrees with the
//! pinned outcome (and stays in the generated-scenario protocol pool).
//!
//! Wiser, Pathlet, and R-BGP get the same treatment elsewhere: Wiser
//! and R-BGP are the explorer's paper topologies (`tests/explorer.rs`),
//! and all nine pool protocols ride the generated differential runs.

use dbgp_oracle::differential::run_differential;
use dbgp_oracle::scenario::{build_production, IslandSpec, NodeSpec, Scenario, SPEC_ADDRMAP};
use dbgp_wire::ia::dkey;
use dbgp_wire::{Ipv4Prefix, ProtocolId};

fn prefix() -> Ipv4Prefix {
    "128.6.0.0/16".parse().unwrap()
}

fn member(asn: u32, island: u32, protocol: u16) -> NodeSpec {
    NodeSpec { asn, island: Some(IslandSpec { id: island, abstraction: false, protocol }) }
}

fn gulf(asn: u32) -> NodeSpec {
    NodeSpec { asn, island: None }
}

/// Run a scenario's production sim to quiescence and return it.
fn converge(scenario: &Scenario) -> dbgp_sim::Sim {
    run_differential(scenario).expect("reference model agrees with production");
    let mut sim = build_production(scenario);
    for &(node, pfx) in &scenario.originations {
        sim.originate(node, pfx);
    }
    sim.run(1_000_000);
    assert_eq!(sim.pending_events(), 0, "scenario did not quiesce");
    sim
}

fn next_hop(sim: &dbgp_sim::Sim, node: usize) -> Option<usize> {
    sim.fib(node).get(&prefix()).copied().flatten()
}

/// EQ-BGP: the destination prefers the wider (higher bottleneck
/// bandwidth) path even though it is one AS hop longer. Bandwidths are
/// derived from ASNs: `(asn % 5 + 1) * 100`.
#[test]
fn eqbgp_prefers_wider_longer_path_across_gulf() {
    let eq = ProtocolId::EQBGP.0;
    let scenario = Scenario {
        nodes: vec![
            member(14, 910, eq), // 0: origin, bw 500
            member(10, 910, eq), // 1: narrow exit, bw 100
            member(19, 910, eq), // 2: wide, bw 500
            member(24, 910, eq), // 3: wide, bw 500
            gulf(4000),          // 4: gulf on the short path
            gulf(4001),          // 5: gulf on the long path
            member(29, 911, eq), // 6: destination, active EQ-BGP
        ],
        links: vec![
            (0, 1, true),
            (1, 4, true),
            (4, 6, true),
            (0, 2, true),
            (2, 3, true),
            (3, 5, true),
            (5, 6, true),
        ],
        originations: vec![(0, prefix())],
        faults: vec![],
    };
    let sim = converge(&scenario);
    // Baseline BGP would pick the 3-hop path via node 4; EQ-BGP takes
    // the 4-hop path because its bottleneck is 500 vs 100.
    assert_eq!(next_hop(&sim, 6), Some(5), "destination must take the wide path");
}

/// HLP: the destination prefers the lower cumulative-cost path even
/// though it is longer. Costs are `asn % 4 + 1` per HLP hop.
#[test]
fn hlp_prefers_cheaper_longer_path_across_gulf() {
    let hlp = ProtocolId::HLP.0;
    let scenario = Scenario {
        nodes: vec![
            member(12, 920, hlp), // 0: origin, cost 1
            member(11, 920, hlp), // 1: expensive exit, cost 4
            member(16, 920, hlp), // 2: cheap, cost 1
            member(20, 920, hlp), // 3: cheap, cost 1
            gulf(4000),           // 4: gulf on the short path
            gulf(4001),           // 5: gulf on the long path
            member(24, 921, hlp), // 6: destination, active HLP
        ],
        links: vec![
            (0, 1, true),
            (1, 4, true),
            (4, 6, true),
            (0, 2, true),
            (2, 3, true),
            (3, 5, true),
            (5, 6, true),
        ],
        originations: vec![(0, prefix())],
        faults: vec![],
    };
    let sim = converge(&scenario);
    // Short path cost 1 + 4 = 5; long path cost 1 + 1 + 1 = 3.
    assert_eq!(next_hop(&sim, 6), Some(5), "destination must take the cheap path");
}

/// SCION: the destination prefers the route exposing more within-island
/// path sets, despite extra AS hops. Path-set descriptors attach once
/// per island, so the two routes traverse *different* SCION islands —
/// the long route crosses two of them and arrives with two sets.
#[test]
fn scion_prefers_more_path_sets_across_gulf() {
    let sc = ProtocolId::SCION.0;
    let scenario = Scenario {
        nodes: vec![
            gulf(4100),          // 0: origin, outside every island
            member(31, 930, sc), // 1: short path's lone island
            gulf(4000),          // 2: gulf on the short path
            member(32, 931, sc), // 3: long path, first island
            member(33, 932, sc), // 4: long path, second island
            gulf(4001),          // 5: gulf on the long path
            member(34, 933, sc), // 6: destination, active SCION
        ],
        links: vec![
            (0, 1, true),
            (1, 2, true),
            (2, 6, true),
            (0, 3, true),
            (3, 4, true),
            (4, 5, true),
            (5, 6, true),
        ],
        originations: vec![(0, prefix())],
        faults: vec![],
    };
    let sim = converge(&scenario);
    // Short route carries island 930's single path set; the long route
    // carries one set each from islands 931 and 932.
    assert_eq!(next_hop(&sim, 6), Some(5), "destination must take the path-rich route");
}

/// BGPSec: the destination prefers a fully attested longer path over a
/// shorter one whose chain is broken by an unsigned gulf hop.
#[test]
fn bgpsec_prefers_valid_chain_over_short_gulf_path() {
    let bs = ProtocolId::BGPSEC.0;
    let scenario = Scenario {
        nodes: vec![
            member(50, 940, bs), // 0: origin, signs
            gulf(4000),          // 1: gulf hop — breaks the chain
            member(51, 940, bs), // 2: long path, signs
            member(52, 940, bs), // 3: long path, signs
            member(53, 941, bs), // 4: destination, active BGPSec
        ],
        links: vec![(0, 1, true), (1, 4, true), (0, 2, true), (2, 3, true), (3, 4, true)],
        originations: vec![(0, prefix())],
        faults: vec![],
    };
    let sim = converge(&scenario);
    // 2-hop path via the gulf verifies Broken; 3-hop all-signed path
    // verifies Valid and wins despite the extra hop.
    assert_eq!(next_hop(&sim, 4), Some(3), "destination must take the attested path");
}

/// MIRO: selection stays baseline-shortest, and the island's portal
/// descriptor crosses the gulf intact (CF-R1) so the destination could
/// negotiate an alternate path out of band.
#[test]
fn miro_portal_descriptor_survives_gulf() {
    let miro = ProtocolId::MIRO.0;
    let scenario = Scenario {
        nodes: vec![
            member(60, 950, miro), // 0: origin island
            gulf(4000),            // 1: gulf, short path
            gulf(4001),            // 2: gulf, long path
            gulf(4002),            // 3: gulf, long path
            member(61, 951, miro), // 4: destination island
        ],
        links: vec![(0, 1, true), (1, 4, true), (0, 2, true), (2, 3, true), (3, 4, true)],
        originations: vec![(0, prefix())],
        faults: vec![],
    };
    let sim = converge(&scenario);
    assert_eq!(next_hop(&sim, 4), Some(1), "MIRO keeps baseline shortest-path selection");
    let chosen = sim.speaker(4).best(&prefix()).expect("destination has a route");
    assert!(
        chosen
            .ia
            .island_descriptors()
            .iter()
            .any(|d| d.protocol == ProtocolId::MIRO && d.key == dkey::MIRO_PORTAL),
        "MIRO portal descriptor was dropped in the gulf (CF-R1 violation)"
    );
}

/// Address-mapping service: the origin island's lookup-service
/// descriptor reaches a destination island across the gulf, while the
/// replaced baseline tie-break still picks the shortest path.
#[test]
fn addrmap_service_descriptor_survives_gulf() {
    let scenario = Scenario {
        nodes: vec![
            member(70, 960, SPEC_ADDRMAP), // 0: origin island, announces service
            gulf(4000),                    // 1: gulf, short path
            gulf(4001),                    // 2: gulf, long path
            gulf(4002),                    // 3: gulf, long path
            member(71, 961, SPEC_ADDRMAP), // 4: destination member
        ],
        links: vec![(0, 1, true), (1, 4, true), (0, 2, true), (2, 3, true), (3, 4, true)],
        originations: vec![(0, prefix())],
        faults: vec![],
    };
    let sim = converge(&scenario);
    assert_eq!(next_hop(&sim, 4), Some(1), "addrmap keeps shortest-path selection");
    let chosen = sim.speaker(4).best(&prefix()).expect("destination has a route");
    assert!(
        chosen.ia.island_descriptors().iter().any(|d| d.key == dkey::ADDR_LOOKUP_SERVICE),
        "address-lookup service descriptor was dropped in the gulf"
    );
}
