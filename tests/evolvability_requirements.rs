//! One integration test per evolvability requirement from the paper's
//! §2: CF-R1, CF-R2, CP-R3, G-R4 and G-R5, exercised end-to-end through
//! the public facade.

use dbgp::core::{
    DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, IslandConfig, NeighborId, RejectReason,
};
use dbgp::protocols::{miro, wiser, MiroModule, WiserModule};
use dbgp::sim::Sim;
use dbgp::wire::ia::dkey;
use dbgp::wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, PathElem, ProtocolId};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// CF-R1: disseminate critical fixes' control information across gulfs.
#[test]
fn cf_r1_control_information_crosses_gulfs() {
    let island = IslandConfig { id: IslandId(900), abstraction: false };
    let mut sim = Sim::new();
    let origin = sim.add_node(DbgpConfig::island_member(10, island, ProtocolId::WISER));
    sim.speaker_mut(origin).register_module(Box::new(WiserModule::new(
        island.id,
        Ipv4Addr::new(163, 42, 5, 0),
        7,
    )));
    // Five-AS plain-BGP gulf.
    let mut prev = origin;
    for asn in 4000..4005 {
        let node = sim.add_node(DbgpConfig::gulf(asn));
        sim.link(prev, node, 10, false);
        prev = node;
    }
    let receiver = sim.add_node(DbgpConfig::gulf(5000));
    sim.link(prev, receiver, 10, false);
    sim.originate(origin, p("128.6.0.0/16"));
    sim.run(10_000_000);

    let best = sim.speaker(receiver).best(&p("128.6.0.0/16")).unwrap();
    assert!(
        wiser::path_cost(&best.ia).is_some(),
        "Wiser's cost crossed five gulf ASes that do not run Wiser"
    );
    assert_eq!(wiser::portals(&best.ia).len(), 1, "and so did the portal descriptor");
}

/// CF-R2: the dissemination is in-band of the baseline's advertisements
/// (one message stream, one container — not a side channel).
#[test]
fn cf_r2_dissemination_is_in_band() {
    // Directly inspect what a D-BGP speaker emits: a single IA that
    // carries baseline reachability AND the critical fix's descriptors.
    let island = IslandConfig { id: IslandId(900), abstraction: false };
    let mut speaker = DbgpSpeaker::new(DbgpConfig::island_member(10, island, ProtocolId::WISER));
    speaker.register_module(Box::new(WiserModule::new(island.id, Ipv4Addr::new(163, 42, 5, 0), 7)));
    speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(4000));
    let outputs = speaker.originate(p("10.0.0.0/8"), Ipv4Addr::new(10, 0, 0, 1));
    let sent = outputs
        .iter()
        .find_map(|o| match o {
            DbgpOutput::SendIa(_, ia) => Some(ia),
            _ => None,
        })
        .expect("one advertisement");
    // Baseline content and Wiser content in the same advertisement.
    assert_eq!(sent.prefix, p("10.0.0.0/8"));
    assert_eq!(sent.path_vector, vec![PathElem::As(10)]);
    assert!(sent.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).is_some());
    // And it is one wire object.
    let decoded = Ia::decode(sent.encode().into_bytes()).unwrap();
    assert_eq!(&decoded, sent.as_ref());
}

/// CP-R3: across-gulf discovery of islands running custom protocols and
/// how to negotiate use of their services.
#[test]
fn cp_r3_custom_service_discovery_across_gulf() {
    let island = IslandConfig { id: IslandId(1007), abstraction: false };
    let mut sim = Sim::new();
    let d = sim.add_node(DbgpConfig::gulf(1));
    let m = sim.add_node(DbgpConfig::island_member(2, island, ProtocolId::BGP));
    let gulf = sim.add_node(DbgpConfig::gulf(4000));
    let t = sim.add_node(DbgpConfig::gulf(3));
    let portal = Ipv4Addr::new(173, 82, 2, 0);
    sim.speaker_mut(m).register_module(Box::new(MiroModule::new(island.id, portal)));
    sim.link(d, m, 10, false);
    sim.link(m, gulf, 10, false);
    sim.link(gulf, t, 10, false);
    sim.originate(d, p("131.4.0.0/24"));
    sim.run(10_000_000);

    let best = sim.speaker(t).best(&p("131.4.0.0/24")).unwrap();
    // The discovery payload: which island offers the service, and the
    // address to negotiate at.
    assert_eq!(miro::find_portals(&best.ia), vec![(island.id, portal)]);
}

/// G-R4: inform islands and gulf ASes of what protocols are used on
/// routing paths (including how to layer multi-network-protocol
/// headers, via island memberships).
#[test]
fn g_r4_protocols_on_path_are_visible() {
    let island = IslandConfig { id: IslandId(900), abstraction: false };
    let mut sim = Sim::new();
    let origin = sim.add_node(DbgpConfig::island_member(10, island, ProtocolId::WISER));
    sim.speaker_mut(origin).register_module(Box::new(WiserModule::new(
        island.id,
        Ipv4Addr::new(163, 42, 5, 0),
        7,
    )));
    let gulf = sim.add_node(DbgpConfig::gulf(4000));
    let receiver = sim.add_node(DbgpConfig::gulf(5000));
    sim.link(origin, gulf, 10, false);
    sim.link(gulf, receiver, 10, false);
    sim.originate(origin, p("10.0.0.0/8"));
    sim.run(10_000_000);

    // The *gulf* AS — which runs only BGP — can also see what protocols
    // ride its paths, the visibility §2.2 promises operators.
    let at_gulf = sim.speaker(gulf).best(&p("10.0.0.0/8")).unwrap();
    assert!(at_gulf.ia.protocols_on_path().contains(&ProtocolId::WISER));
    // And island membership tells receivers which path-vector entries
    // belong to the island.
    let at_receiver = sim.speaker(receiver).best(&p("10.0.0.0/8")).unwrap();
    let member_idx =
        at_receiver.ia.path_vector.iter().position(|e| *e == PathElem::As(10)).unwrap() as u16;
    assert_eq!(at_receiver.ia.island_of(member_idx), Some(island.id));
}

/// G-R5: avoid loops across all protocols used on routing paths — one
/// shared loop-detection mechanism over the common path vector.
#[test]
fn g_r5_shared_loop_detection() {
    // AS-level loop.
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(7));
    speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(8));
    let mut looped = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
    looped.prepend_as(7);
    looped.prepend_as(8);
    let outputs = speaker.receive_ia(NeighborId(0), looped);
    assert!(matches!(outputs[0], DbgpOutput::Rejected(_, _, RejectReason::AsLoop)));

    // Island-level loop: the path left island 55 and is coming back
    // through a gulf — rejected even though no AS number repeats.
    let island = IslandConfig { id: IslandId(55), abstraction: true };
    let mut speaker = DbgpSpeaker::new(DbgpConfig::island_member(7, island, ProtocolId::BGP));
    speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(4000));
    let mut reentrant = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
    reentrant.path_vector.push(PathElem::Island(IslandId(55)));
    reentrant.prepend_as(4000);
    let outputs = speaker.receive_ia(NeighborId(0), reentrant);
    assert!(matches!(outputs[0], DbgpOutput::Rejected(_, _, RejectReason::IslandLoop)));
}

/// The Internet-scale sanity check behind G-R5: a densely meshed
/// simulation converges (quiesces) instead of looping forever.
#[test]
fn g_r5_mesh_quiesces() {
    let mut sim = Sim::new();
    let nodes: Vec<_> = (1..=8).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for i in 0..nodes.len() {
        for j in (i + 1)..nodes.len() {
            sim.link(nodes[i], nodes[j], 5, false);
        }
    }
    for &node in &nodes {
        sim.originate(node, Ipv4Prefix::new(sim.node_addr(node), 32).unwrap());
    }
    let stats = sim.run(60_000_000);
    assert!(stats.messages < 10_000, "full mesh must quiesce, saw {}", stats.messages);
    // Everyone reaches everyone.
    for &a in &nodes {
        for &b in &nodes {
            if a != b {
                let prefix = Ipv4Prefix::new(sim.node_addr(b), 32).unwrap();
                assert!(sim.speaker(a).best(&prefix).is_some(), "{a} -> {b}");
            }
        }
    }
}
