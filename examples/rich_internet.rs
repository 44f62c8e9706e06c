//! The paper's Figure 6/7: a rich, evolvable Internet running Pathlet
//! Routing, Wiser ∥ MIRO, SCION, and plain BGP side by side over D-BGP.
//! The program converges the topology and prints the Integrated
//! Advertisement island G sends toward island 8 for 131.4.0.0/24 — the
//! IA the paper's Figure 7 depicts.
//!
//! Run with: `cargo run --release --example rich_internet`

use dbgp::core::{DbgpConfig, IslandConfig};
use dbgp::protocols::pathlet::Pathlet;
use dbgp::protocols::scion::PathSet;
use dbgp::protocols::{wiser, MiroModule, PathletModule, ScionModule, WiserModule};
use dbgp::sim::Sim;
use dbgp::wire::{Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};

fn main() {
    let dst: Ipv4Prefix = "131.4.0.0/24".parse().unwrap();

    // Islands of Figure 6 (the subset on the advertised path plus the
    // gulf AS 14): D (Pathlet) originates 131.4/24; F (SCION); 11
    // (Wiser ∥ MIRO); G (Pathlet); 8 (Wiser) receives.
    let island_d = IslandConfig { id: IslandId(680), abstraction: false };
    let island_f = IslandConfig { id: IslandId(660), abstraction: false };
    let island_11 = IslandConfig { id: IslandId(711), abstraction: false };
    let island_g = IslandConfig { id: IslandId(640), abstraction: false };
    let island_8 = IslandConfig { id: IslandId(708), abstraction: false };

    let mut sim = Sim::new();
    let d = sim.add_node(DbgpConfig::island_member(680, island_d, ProtocolId::PATHLET));
    let as14 = sim.add_node(DbgpConfig::gulf(14));
    let f = sim.add_node(DbgpConfig::island_member(660, island_f, ProtocolId::SCION));
    let as11 = sim.add_node(DbgpConfig::island_member(11, island_11, ProtocolId::WISER));
    let g = sim.add_node(DbgpConfig::island_member(640, island_g, ProtocolId::PATHLET));
    let as8 = sim.add_node(DbgpConfig::island_member(8, island_8, ProtocolId::WISER));

    // Island D: pathlets of Figure 7 — 1:(dr1,dr2), 5:(dr2,dr4),
    // 9:(dr4, 131.1.4.0/24-style dest), 3:(dr1,dr3), 4:(dr3,dr4).
    sim.speaker_mut(d).register_module(Box::new(PathletModule::new(
        island_d.id,
        1,
        vec![
            Pathlet::between(1, 1, 2),
            Pathlet::between(5, 2, 4),
            Pathlet::to_dest(9, 4, dst),
            Pathlet::between(3, 1, 3),
            Pathlet::between(4, 3, 4),
        ],
    )));
    // Island F: SCION within-island paths fr1..fr7.
    sim.speaker_mut(f).register_module(Box::new(ScionModule::new(
        island_f.id,
        PathSet { paths: vec![vec![1, 9, 11, 7], vec![1, 2, 3, 7]] },
    )));
    // Island 11: Wiser with a cost-exchange portal, in parallel with a
    // MIRO service portal (the ∥ of Figure 6).
    sim.speaker_mut(as11).register_module(Box::new(WiserModule::new(
        island_11.id,
        Ipv4Addr::new(154, 63, 23, 1),
        75,
    )));
    sim.speaker_mut(as11)
        .register_module(Box::new(MiroModule::new(island_11.id, Ipv4Addr::new(154, 63, 23, 2))));
    // Island G: its own pathlets, including the inter-island pathlet
    // 8:(gr10, dr1) of Figure 6's dotted line.
    sim.speaker_mut(g).register_module(Box::new(PathletModule::new(
        island_g.id,
        101,
        vec![
            Pathlet::between(101, 101, 104),
            Pathlet::between(103, 104, 110),
            Pathlet::between(106, 101, 103),
            Pathlet::between(107, 103, 110),
            Pathlet::between(108, 110, 1), // inter-island: gr10 -> dr1
        ],
    )));

    // Island 8: the receiving Wiser island.
    sim.speaker_mut(as8).register_module(Box::new(WiserModule::new(
        island_8.id,
        Ipv4Addr::new(154, 63, 24, 1),
        10,
    )));

    // Path of the Figure-7 IA: D - 14 - F - 11 - G - 8.
    sim.link(d, as14, 10, false);
    sim.link(as14, f, 10, false);
    sim.link(f, as11, 10, false);
    sim.link(as11, g, 10, false);
    sim.link(g, as8, 10, false);

    sim.originate(d, dst);
    sim.run(10_000_000);

    // The IA at "point 1": what island 8 received from island G.
    let best = sim.speaker(as8).best(&dst).expect("prefix reachable");
    let ia = &best.ia;
    println!("The Figure-7 Integrated Advertisement (as received by island 8):\n");
    println!("Baseline Address: {}", ia.prefix);
    println!("Next hop: {}", ia.next_hop);
    println!("Origin: {}", ia.origin);
    println!(
        "Path vector: [{}]",
        ia.path_vector.iter().map(|e| e.to_string()).collect::<Vec<_>>().join(" ")
    );
    println!("Island memberships:");
    for m in ia.memberships() {
        println!("  {} covers path-vector entries [{}, {})", m.island, m.start, m.end);
    }
    println!("\nPath descriptors:");
    for pd in ia.path_descriptors() {
        let protos: Vec<String> = pd.protocols.iter().map(|p| p.to_string()).collect();
        println!("  [{}] key {} ({} bytes)", protos.join(", "), pd.key, pd.value.len());
    }
    if let Some(cost) = wiser::path_cost(ia) {
        println!("  -> Wiser path cost: {cost} (island 11's contribution: 75)");
    }
    println!("\nIsland descriptors:");
    for id in ia.island_descriptors() {
        println!(
            "  island {} / {}: key {} ({} bytes)",
            id.island,
            id.protocol,
            id.key,
            id.value.len()
        );
    }
    println!(
        "\nProtocols on path (G-R4): {:?}",
        ia.protocols_on_path().iter().map(|p| p.to_string()).collect::<Vec<_>>()
    );
    println!("Serialized IA size: {} bytes", ia.wire_size());

    // Verify the richness the figure promises.
    assert!(wiser::path_cost(ia).is_some(), "Wiser cost present");
    assert!(
        ia.island_descriptors_for(ProtocolId::PATHLET).count() >= 2,
        "pathlets from islands D and G"
    );
    assert!(ia.island_descriptors_for(ProtocolId::SCION).count() >= 1, "SCION paths from F");
    assert!(ia.island_descriptors_for(ProtocolId::MIRO).count() >= 1, "MIRO portal from 11");
    assert!(ia.island_descriptors_for(ProtocolId::WISER).count() >= 1, "Wiser portal from 11");
    println!("\nAll five protocols' control information coexists in one IA.");
}
