//! End-to-end simulator tests, including the paper's §6.1 deployment
//! experiments (Figure 8): Wiser and Pathlet Routing deployed across a
//! BGP gulf over D-BGP.

use dbgp_core::{DbgpConfig, DbgpOutput, DbgpSpeaker, IslandConfig, NeighborId};
use dbgp_protocols::wiser::{self, WiserModule};
use dbgp_protocols::{miro, MiroOffer, MiroPortal, MiroRequest, Pathlet, PathletModule};
use dbgp_sim::{Delivery, LinkModel, Packet, Service, Sim, SimStats};
use dbgp_telemetry::{TraceKind, TraceRecorder};
use dbgp_wire::{BgpAttrs, Ia, Ipv4Addr, Ipv4Prefix, IslandId, PathAttribute, ProtocolId};
use std::rc::Rc;
use std::sync::Arc;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

#[test]
fn chain_converges_and_installs_fibs() {
    let mut sim = Sim::new();
    let nodes: Vec<_> = (1..=4).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for w in nodes.windows(2) {
        sim.link(w[0], w[1], 10, false);
    }
    sim.originate(nodes[0], p("128.6.0.0/16"));
    let stats = sim.run(1_000_000);
    assert!(stats.messages >= 3, "at least one hop-by-hop wave");
    for (i, &node) in nodes.iter().enumerate().skip(1) {
        let best = sim.speaker(node).best(&p("128.6.0.0/16")).expect("route installed");
        assert_eq!(best.ia.hop_count(), i, "hop count grows along the chain");
        let next = sim.fib(node).get(&p("128.6.0.0/16")).copied().unwrap();
        assert_eq!(next, Some(nodes[i - 1]), "FIB points toward the origin");
    }
}

/// The FIB is read off the speaker's installed routes, so forwarding
/// follows a best path changed outside the engine — an AS switching its
/// active protocol in place, its outputs dropped — with no second table
/// left behind to disagree.
#[test]
fn fib_and_forwarding_follow_a_best_path_changed_outside_the_engine() {
    // Diamond toward D: a short, expensive exit and a long, cheap one.
    let island = IslandConfig { id: IslandId(900), abstraction: false };
    let mut sim = Sim::new();
    let d = sim.add_node(DbgpConfig::island_member(10, island, ProtocolId::WISER));
    let cheap_a = sim.add_node(DbgpConfig::island_member(11, island, ProtocolId::WISER));
    let cheap_b = sim.add_node(DbgpConfig::island_member(12, island, ProtocolId::WISER));
    let costly = sim.add_node(DbgpConfig::island_member(13, island, ProtocolId::WISER));
    let s = sim.add_node(DbgpConfig::gulf(20));
    let portal = Ipv4Addr::new(163, 42, 5, 0);
    for (node, cost) in [(d, 5), (cheap_a, 10), (cheap_b, 10), (costly, 800)] {
        sim.speaker_mut(node).register_module(Box::new(WiserModule::new(island.id, portal, cost)));
    }
    sim.link(d, cheap_a, 10, true);
    sim.link(cheap_a, cheap_b, 10, true);
    sim.link(d, costly, 10, true);
    sim.link(cheap_b, s, 10, false);
    sim.link(costly, s, 10, false);
    let prefix = p("128.6.0.0/16");
    sim.originate(d, prefix);
    sim.run(10_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");

    let dst = Ipv4Addr::new(128, 6, 0, 1);
    assert_eq!(sim.fib(s).get(&prefix), Some(&Some(costly)), "BGP takes the short exit");
    let (delivery, trajectory) = sim.forward(s, Packet::ipv4(dst, 1));
    assert_eq!(delivery, Delivery::Delivered { at: d, remaining: vec![] });
    assert_eq!(trajectory, vec![s, costly, d]);

    let speaker = sim.speaker_mut(s);
    speaker.register_module(Box::new(WiserModule::new(
        IslandId::from_as(20),
        Ipv4Addr::new(163, 42, 6, 0),
        3,
    )));
    let outputs = speaker.set_active_protocol(ProtocolId::WISER);
    assert!(outputs.iter().any(|o| matches!(o, DbgpOutput::BestChanged(..))));
    drop(outputs);
    assert_eq!(sim.pending_events(), 0, "nothing reached the engine");

    assert_eq!(sim.fib(s).get(&prefix), Some(&Some(cheap_b)), "Wiser takes the cheap exit");
    let (delivery, trajectory) = sim.forward(s, Packet::ipv4(dst, 2));
    assert_eq!(delivery, Delivery::Delivered { at: d, remaining: vec![] });
    assert_eq!(trajectory, vec![s, cheap_b, cheap_a, d]);
}

#[test]
fn fanout_encodes_once_and_reuses_cached_bytes() {
    // Star: the hub re-advertises the origin leaf's IA to every other
    // leaf. The chosen IA is one interned Arc, so the hub's encode
    // cache serializes it once and hands out the shared bytes after
    // that — fan-out minus one deliveries are cache hits.
    let mut sim = Sim::new();
    let hub = sim.add_node(DbgpConfig::gulf(1));
    let leaves: Vec<_> = (2..=5).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for &leaf in &leaves {
        sim.link(hub, leaf, 10, false);
    }
    sim.originate(leaves[0], p("128.6.0.0/16"));
    let stats = sim.run(60_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");
    for &leaf in &leaves {
        assert!(
            leaf == leaves[0] || sim.speaker(leaf).best(&p("128.6.0.0/16")).is_some(),
            "leaf {leaf} learned the route"
        );
    }
    // Hub fans out to 3 non-chosen leaves: 1 fresh encode + 2 reuses.
    assert!(stats.encode_cache_hits >= 2, "fan-out reused cached bytes: {stats:?}");
    assert!(
        stats.updates_encoded + stats.encode_cache_hits >= stats.messages,
        "every message is either freshly encoded or a cache reuse: {stats:?}"
    );
}

#[test]
fn data_plane_follows_control_plane() {
    let mut sim = Sim::new();
    let nodes: Vec<_> = (1..=4).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for w in nodes.windows(2) {
        sim.link(w[0], w[1], 10, false);
    }
    sim.originate(nodes[0], p("128.6.0.0/16"));
    sim.run(1_000_000);
    let packet = Packet::ipv4(Ipv4Addr::new(128, 6, 1, 1), 42);
    let (delivery, trace) = sim.forward(nodes[3], packet);
    assert_eq!(trace, vec![nodes[3], nodes[2], nodes[1], nodes[0]]);
    match delivery {
        Delivery::Delivered { at, remaining } => {
            assert_eq!(at, nodes[0]);
            assert!(remaining.is_empty());
        }
        other => panic!("expected delivery, got {other:?}"),
    }
}

#[test]
fn no_route_is_reported() {
    let mut sim = Sim::new();
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.link(a, b, 10, false);
    sim.run(1_000);
    let (delivery, _) = sim.forward(a, Packet::ipv4(Ipv4Addr::new(99, 0, 0, 1), 0));
    assert!(matches!(delivery, Delivery::NoRoute { .. }));
}

#[test]
fn withdrawal_clears_routes_downstream() {
    let mut sim = Sim::new();
    let nodes: Vec<_> = (1..=3).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for w in nodes.windows(2) {
        sim.link(w[0], w[1], 10, false);
    }
    sim.originate(nodes[0], p("10.0.0.0/8"));
    sim.run(1_000_000);
    assert!(sim.speaker(nodes[2]).best(&p("10.0.0.0/8")).is_some());
    sim.withdraw(nodes[0], p("10.0.0.0/8"));
    sim.run(2_000_000);
    assert!(sim.speaker(nodes[2]).best(&p("10.0.0.0/8")).is_none());
    assert!(sim.fib(nodes[2]).get(&p("10.0.0.0/8")).is_none());
}

#[test]
fn ring_converges_without_loops() {
    let mut sim = Sim::new();
    let nodes: Vec<_> = (1..=5).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for i in 0..nodes.len() {
        sim.link(nodes[i], nodes[(i + 1) % nodes.len()], 10, false);
    }
    sim.originate(nodes[0], p("192.0.2.0/24"));
    let stats = sim.run(10_000_000);
    assert!(stats.messages < 500, "must quiesce, not loop (saw {})", stats.messages);
    // Every node picks its shortest side of the ring.
    for (i, &node) in nodes.iter().enumerate() {
        if i == 0 {
            continue;
        }
        let best = sim.speaker(node).best(&p("192.0.2.0/24")).unwrap();
        let expected = i.min(nodes.len() - i);
        assert_eq!(best.ia.hop_count(), expected, "node {i} takes the short way around");
    }
}

#[test]
fn determinism_same_trace_twice() {
    let build = || {
        let mut sim = Sim::new();
        let nodes: Vec<_> = (1..=6).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if (i + j) % 2 == 0 {
                    sim.link(nodes[i], nodes[j], 5 + (i as u64), false);
                }
            }
        }
        sim.originate(nodes[0], p("10.0.0.0/8"));
        sim.originate(nodes[5], p("192.168.0.0/16"));
        sim.run(10_000_000)
    };
    assert_eq!(build(), build(), "identical construction gives identical stats");
}

/// The Figure-8 topology: Island A (D, A1, A2/A3 borders) — a two-AS BGP
/// gulf — Island B (S). Returns (sim, island A nodes, gulf nodes, s).
///
/// Topology (paper Figure 8):
/// ```text
///   D(A1) - A2 - G1 - B1(S)      upper path (short)
///    \      A3 -  G2 - B1        lower path (long, via A3's second exit)
/// ```
/// We model it as: D - A2 - G1 - S and D - A3 - G2a - G2b - S so the two
/// paths have different lengths, as in the Wiser test where "the longer
/// path to AS D has a higher cost than the shorter one" is inverted.
struct Figure8 {
    sim: Sim,
    d: usize,
    a3: usize,
    g1: usize,
    s: usize,
}

fn figure8_wiser() -> Figure8 {
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

    // Wiser modules: the short path (via A2/G1) is made expensive, the
    // long path (via A3/G2a/G2b) cheap — the Figure-1 inversion.
    let portal = |n: u8| Ipv4Addr::new(163, 42, 5, n);
    sim.speaker_mut(d).register_module(Box::new(WiserModule::new(IslandId(900), portal(0), 5)));
    sim.speaker_mut(a2).register_module(Box::new(WiserModule::new(
        IslandId(900),
        portal(0),
        500, // expensive exit
    )));
    sim.speaker_mut(a3).register_module(Box::new(WiserModule::new(
        IslandId(900),
        portal(0),
        10, // cheap exit
    )));
    sim.speaker_mut(s).register_module(Box::new(WiserModule::new(IslandId(901), portal(1), 5)));

    sim.link(d, a2, 10, true);
    sim.link(d, a3, 10, true);
    sim.link(a2, g1, 10, false);
    sim.link(a3, g2a, 10, false);
    sim.link(g2a, g2b, 10, false);
    sim.link(g1, s, 10, false);
    sim.link(g2b, s, 10, false);
    let _ = (a2, g2a, g2b);
    Figure8 { sim, d, a3, g1, s }
}

#[test]
fn figure8_wiser_source_sees_costs_and_picks_cheap_long_path() {
    let mut f = figure8_wiser();
    f.sim.originate(f.d, p("128.6.0.0/16"));
    f.sim.run(10_000_000);

    let best = f.sim.speaker(f.s).best(&p("128.6.0.0/16")).expect("S has a route");
    // (1) The §6.1 check: "we verified that AS S saw these path costs".
    let cost = wiser::path_cost(&best.ia).expect("Wiser cost visible across the gulf");
    // (2) The cheap-but-long path must win despite BGP preferring short.
    assert_eq!(best.ia.hop_count(), 4, "long path via A3/G2a/G2b chosen");
    assert!(cost < 500, "chosen cost ({cost}) must be the cheap exit's");
    // (3) The cost-exchange portal crossed the gulf too.
    let portals = wiser::portals(&best.ia);
    assert!(
        portals.iter().any(|(island, _)| *island == IslandId(900)),
        "island A's portal advertised: {portals:?}"
    );
    // (4) Under plain BGP the short path would have been chosen — check
    // the gulf AS (which runs BGP selection) did pick the short side.
    let gulf_best = f.sim.speaker(f.g1).best(&p("128.6.0.0/16")).unwrap();
    assert_eq!(gulf_best.ia.hop_count(), 2, "gulf ASes still use BGP rules");
}

#[test]
fn figure8_wiser_cost_exchange_calibrates_scaling() {
    let mut f = figure8_wiser();
    f.sim.originate(f.d, p("128.6.0.0/16"));
    f.sim.run(10_000_000);
    // S sends its cost report to island A's portal across the gulf.
    let report = {
        let speaker = f.sim.speaker_mut(f.s);
        let asn = speaker.asn();
        let module = speaker.module_mut(ProtocolId::WISER).unwrap();
        // Downcast-free: produce the report through the Wiser-specific
        // API by rebuilding from the module trait is not possible, so we
        // reconstruct it from what S received: one path, cheap cost.
        let _ = module;
        let best = f.sim.speaker(f.s).best(&p("128.6.0.0/16")).unwrap();
        let cost = wiser::path_cost(&best.ia).unwrap();
        dbgp_protocols::CostReport { reporter: asn, sum: cost * 2, count: 1 }
    };
    let portal_addr = Ipv4Addr::new(163, 42, 5, 0);
    f.sim.register_service(f.a3, portal_addr, Service::ModuleInbox(ProtocolId::WISER));
    f.sim.oob_send(f.s, portal_addr, report.to_bytes());
    f.sim.run(20_000_000);
    let stats = f.sim.stats();
    assert_eq!(stats.oob_requests, 1, "portal served the report");
}

#[test]
fn figure8_pathlets_source_sees_all_five() {
    // Pathlet deployment across the gulf (§6.1): island A disseminates
    // four one-hop pathlets internally; border AS A2 composes a two-hop
    // pathlet and exports it with its remaining one-hop pathlets; border
    // AS A3 exports its single one-hop pathlet. AS S must see all five
    // pathlets that should be advertised to it.
    let island_a = IslandConfig { id: IslandId(900), abstraction: false };
    let island_b = IslandConfig { id: IslandId(901), abstraction: false };
    let mut sim = Sim::new();
    let d = sim.add_node(DbgpConfig::island_member(10, island_a, ProtocolId::BGP));
    let a2 = sim.add_node(DbgpConfig::island_member(11, island_a, ProtocolId::BGP));
    let a3 = sim.add_node(DbgpConfig::island_member(12, island_a, ProtocolId::BGP));
    let g1 = sim.add_node(DbgpConfig::gulf(4000));
    let g2 = sim.add_node(DbgpConfig::gulf(4001));
    let s = sim.add_node(DbgpConfig::island_member(20, island_b, ProtocolId::BGP));

    let dest = p("128.6.0.0/16");
    // Island A's intra-island pathlets (one-hop): d->a2 (fid 1),
    // d->a3 (fid 2), a2->dest (fid 3), a3->dest (fid 4). A2 additionally
    // composes two-hop fid 5 = (a2 -> d -> dest)? The paper composes two
    // of the one-hop pathlets into a two-hop pathlet at A2; we model A2
    // exporting: composed two-hop pathlet (fid 5) + its remaining
    // one-hop pathlets (fids 1, 3); A3 exports its one-hop (fid 4) and
    // shares fid 2. Total distinct pathlets reaching S: 5.
    let a2_exports = vec![
        Pathlet::between(1, 100, 111),  // d -> a2
        Pathlet::to_dest(3, 111, dest), // a2 -> dest
        Pathlet::to_dest(5, 100, dest), // composed two-hop
    ];
    let a3_exports = vec![
        Pathlet::between(2, 100, 112),  // d -> a3
        Pathlet::to_dest(4, 112, dest), // a3 -> dest
    ];
    sim.speaker_mut(a2).register_module(Box::new(PathletModule::new(
        IslandId(900),
        111,
        a2_exports,
    )));
    sim.speaker_mut(a3).register_module(Box::new(PathletModule::new(
        IslandId(900),
        112,
        a3_exports,
    )));
    sim.speaker_mut(s).register_module(Box::new(PathletModule::new(IslandId(901), 200, vec![])));

    sim.link(d, a2, 10, true);
    sim.link(d, a3, 10, true);
    sim.link(a2, g1, 10, false);
    sim.link(a3, g2, 10, false);
    sim.link(g1, s, 10, false);
    sim.link(g2, s, 10, false);

    sim.originate(d, dest);
    sim.run(10_000_000);

    // Force S's pathlet module to ingest both gulf-crossing IAs: they are
    // in its IA DB; selection ingests candidates.
    let iadb_count = sim.speaker(s).iadb().candidates(&dest).count();
    assert_eq!(iadb_count, 2, "S heard the route via both gulf paths");
    // Drive selection once more via the module to materialize learning.
    {
        let speaker: &mut DbgpSpeaker = sim.speaker_mut(s);
        let outs = speaker.set_active_protocol(ProtocolId::PATHLET);
        let _ = outs;
    }
    let speaker = sim.speaker_mut(s);
    let module = speaker.module_mut(ProtocolId::PATHLET).unwrap();
    // Downcast via the protocols API: we re-ingest through the public
    // translation function instead.
    let _ = module;
    let mut total = std::collections::BTreeSet::new();
    for (_, ia) in sim.speaker(s).iadb().candidates(&dest) {
        for ad in dbgp_protocols::pathlet::ingress_translate(ia) {
            total.insert(ad.pathlet.fid);
        }
    }
    assert_eq!(
        total.into_iter().collect::<Vec<_>>(),
        vec![1, 2, 3, 4, 5],
        "AS S saw all five pathlets (the §6.1 verification)"
    );
}

#[test]
fn miro_discovery_negotiation_and_tunnel() {
    // Figure 2 over D-BGP (§3.4's four steps): transit island T discovers
    // island M's MIRO portal via a passed-through island descriptor,
    // negotiates an alternate path out-of-band, and tunnels traffic.
    let mut sim = Sim::new();
    let dst_prefix = p("131.4.0.0/24");
    let m_island = IslandConfig { id: IslandId(1007), abstraction: false };
    let d = sim.add_node(DbgpConfig::gulf(1));
    let m = {
        let cfg = DbgpConfig::island_member(2, m_island, ProtocolId::BGP);
        sim.add_node(cfg)
    };
    let gulf = sim.add_node(DbgpConfig::gulf(4000));
    let t = sim.add_node(DbgpConfig::gulf(3));
    let portal_addr = Ipv4Addr::new(173, 82, 2, 0);
    sim.speaker_mut(m)
        .register_module(Box::new(dbgp_protocols::MiroModule::new(IslandId(1007), portal_addr)));

    sim.link(d, m, 10, false);
    sim.link(m, gulf, 10, false);
    sim.link(gulf, t, 10, false);
    sim.originate(d, dst_prefix);
    // M also advertises reachability for its own tunnel endpoint.
    let m_host = Ipv4Prefix::new(sim.node_addr(m), 32).unwrap();
    sim.originate(m, m_host);
    sim.run(10_000_000);

    // Step 1-2: T discovers the portal from the passed-through IA.
    let best = sim.speaker(t).best(&dst_prefix).unwrap();
    let portals = miro::find_portals(&best.ia);
    assert_eq!(portals, vec![(IslandId(1007), portal_addr)]);

    // Step 3: negotiate out-of-band.
    let mut portal = MiroPortal::new();
    portal.offer(
        dst_prefix,
        MiroOffer { path: vec![2, 1], price: 100, tunnel_endpoint: sim.node_addr(m) },
    );
    sim.register_service(m, portal_addr, Service::Miro(portal));
    let request = MiroRequest { dst: dst_prefix, max_price: 500 };
    sim.oob_send(t, portal_addr, request.to_bytes());
    sim.run(20_000_000);
    let inbox = sim.oob_inbox(t);
    assert_eq!(inbox.len(), 1, "offer received");
    let offer = MiroOffer::from_bytes(&inbox[0].1).unwrap();
    assert_eq!(offer.price, 100);

    // Step 4: tunnel traffic to the island, which decapsulates and
    // forwards to the true destination.
    let inner = Packet::ipv4(Ipv4Addr::new(131, 4, 0, 1), 7);
    let tunneled = inner.encap_ipv4(offer.tunnel_endpoint);
    let (delivery, trace) = sim.forward(t, tunneled);
    match delivery {
        Delivery::Delivered { at, remaining } => {
            assert_eq!(at, d, "inner packet reached the true destination");
            assert!(remaining.is_empty());
        }
        other => panic!("tunnel failed: {other:?}"),
    }
    assert!(trace.contains(&m), "traffic traversed the MIRO island");
}

#[test]
fn legacy_adjacency_drops_extra_fields() {
    let mut sim = Sim::new();
    let island = IslandConfig { id: IslandId(900), abstraction: false };
    let a = sim.add_node(DbgpConfig::island_member(1, island, ProtocolId::WISER));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.speaker_mut(a).register_module(Box::new(WiserModule::new(
        IslandId(900),
        Ipv4Addr::new(1, 1, 1, 1),
        7,
    )));
    sim.link_with(a, b, 10, false, false); // legacy adjacency
    sim.originate(a, p("10.0.0.0/8"));
    sim.run(1_000_000);
    let best = sim.speaker(b).best(&p("10.0.0.0/8")).unwrap();
    assert!(wiser::path_cost(&best.ia).is_none(), "legacy peer got baseline-only IA");
}

/// MED and LOCAL_PREF stay in the AS that set them (RFC 4271 §5.1.4,
/// §5.1.5): neither reaches the IA the next AS or the one after it
/// stores. A transitive attribute rides on.
#[test]
fn med_and_local_pref_stop_at_the_as_boundary() {
    let mut sim = Sim::new();
    let nodes: Vec<_> = (1..=3).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for w in nodes.windows(2) {
        sim.link(w[0], w[1], 10, false);
    }
    let prefix = p("128.6.0.0/16");
    let communities = PathAttribute::Communities(vec![0xffff_ff01]);
    let mut ia = Ia::originate(prefix, sim.node_addr(nodes[0]));
    ia.bgp = Some(Box::new(BgpAttrs {
        med: Some(50),
        local_pref: Some(300),
        extras: vec![communities.clone()],
    }));
    sim.originate_ia(nodes[0], ia);
    sim.run(1_000_000);
    for &node in &nodes[1..] {
        let best = sim.speaker(node).best(&prefix).expect("route installed");
        let bgp = best.ia.bgp.as_deref().expect("the transitive attribute rides on");
        assert_eq!((bgp.med, bgp.local_pref), (None, None), "node {node}");
        assert_eq!(bgp.extras, std::slice::from_ref(&communities), "node {node}");
    }
}

#[test]
fn rejected_outputs_surface_island_loops() {
    // Direct speaker-level check that the sim's plumbing preserves
    // Rejected outputs: covered at the core layer, asserted here through
    // a two-node sim where B's own AS appears in a crafted IA.
    let mut sim = Sim::new();
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.link(a, b, 10, false);
    // A originates a prefix; B gets it; then A (maliciously) originates
    // an IA that already contains B's AS number — B must reject it.
    let mut evil = dbgp_wire::Ia::originate(p("66.0.0.0/8"), Ipv4Addr::new(6, 6, 6, 6));
    evil.prepend_as(2);
    sim.originate_ia(a, evil);
    sim.run(1_000_000);
    assert!(sim.speaker(b).best(&p("66.0.0.0/8")).is_none(), "loop rejected");
}

/// Pass-through as a splice, counted where the simulator encodes: a gulf
/// AS forwards a foreign 4 KB descriptor by writing a new head in front
/// of the tail bytes it received; the origin has no arrival bytes to
/// share, and a Wiser AS that adds its cost to its own descriptor has
/// changed the tail, so both write the whole IA.
#[test]
fn gulfs_splice_the_tail_and_a_module_that_rewrites_it_does_not() {
    let prefix = p("128.6.0.0/16");
    let foreign = ProtocolId(100);
    // O - G - G - G - X - G - G - S, where X is a gulf or a Wiser AS.
    let run = |wiser_hop: bool| {
        let mut sim = Sim::new();
        let island = IslandConfig { id: IslandId(900), abstraction: false };
        let nodes: Vec<_> = (1..=8u32)
            .map(|asn| {
                if wiser_hop && asn == 5 {
                    let x = sim.add_node(DbgpConfig::island_member(asn, island, ProtocolId::WISER));
                    let portal = Ipv4Addr::new(163, 42, 5, 0);
                    sim.speaker_mut(x)
                        .register_module(Box::new(WiserModule::new(island.id, portal, 7)));
                    x
                } else {
                    sim.add_node(DbgpConfig::gulf(asn))
                }
            })
            .collect();
        for w in nodes.windows(2) {
            sim.link(w[0], w[1], 10, false);
        }
        let ia = dbgp_wire::Ia::builder(prefix, Ipv4Addr::new(192, 0, 2, 1))
            .path_descriptor(
                ProtocolId::WISER,
                dbgp_wire::ia::dkey::WISER_PATH_COST,
                100u64.to_be_bytes().to_vec(),
            )
            .path_descriptor(foreign, 1, vec![0x5a; 4096])
            .build()
            .unwrap();
        sim.originate_ia(nodes[0], ia);
        let stats = sim.run(60_000_000);
        assert_eq!(sim.pending_events(), 0, "quiesces");
        let best = sim.speaker(nodes[7]).best(&prefix).expect("the far end learned the route");
        assert_eq!(best.ia.path_descriptor(foreign, 1).expect("passed through").value.len(), 4096);
        (stats, wiser::path_cost(&best.ia))
    };

    // Seven ASes each encode the one IA they send on; all but the origin
    // are handing on what they were sent.
    let (stats, cost) = run(false);
    assert_eq!((stats.updates_encoded, stats.tails_spliced), (7, 6), "{stats:?}");
    assert_eq!(cost, Some(100));

    let (stats, cost) = run(true);
    assert_eq!((stats.updates_encoded, stats.tails_spliced), (7, 5), "{stats:?}");
    assert_eq!(cost, Some(107), "the Wiser AS rewrote its descriptor");
}

/// The hub of a star fans one announce frame out to every other leaf;
/// its IA is decoded once, where the hub encoded it, and the leaves
/// store the same `Arc<Ia>`.
#[test]
fn decode_once_leaves_of_one_hub_share_the_ia() {
    let mut sim = Sim::new();
    let hub = sim.add_node(DbgpConfig::gulf(1));
    let leaves: Vec<_> = (2..=5).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for &leaf in &leaves {
        sim.link(hub, leaf, 10, false);
    }
    let prefix = p("128.6.0.0/16");
    sim.originate(leaves[0], prefix);
    sim.run(60_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");
    // Each leaf's one neighbor, the hub, is its neighbor 0.
    let from_hub = |leaf| sim.speaker(leaf).iadb().get(NeighborId(0), &prefix).expect("learned");
    let (first, second) = (from_hub(leaves[1]), from_hub(leaves[2]));
    assert!(Arc::ptr_eq(first, second), "two leaves hold one decoded IA");
    assert!(Arc::ptr_eq(first, from_hub(leaves[3])));
    // Leaf 0 -> hub, then hub -> three leaves: two IA bodies encoded,
    // each decoded by its sender, and no delivery parsed.
    let stats = sim.stats();
    assert_eq!((stats.messages, stats.updates_encoded), (4, 2), "{stats:?}");
    assert_eq!((sim.frames_decoded(), sim.ias_decoded()), (0, 2));
}

/// A corrupting link delivers its own copy of the frame, without the
/// sender's decoding, so a corrupted delivery is parsed on its own and
/// never handed the clean IA. Every counter equals what this scenario
/// produced before frames were decoded once.
#[test]
fn decode_once_a_corrupted_delivery_is_decoded_on_its_own() {
    let mut sim = Sim::new();
    sim.set_seed(48);
    let hub = sim.add_node(DbgpConfig::gulf(1));
    let leaves: Vec<_> = (2..=5).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
    for &leaf in &leaves {
        sim.link(hub, leaf, 10, false);
    }
    sim.set_link_model(hub, leaves[1], LinkModel::default().corrupt_ppm(600_000));
    let prefixes: Vec<Ipv4Prefix> = (0..12).map(|i| p(&format!("10.{i}.0.0/16"))).collect();
    for (i, &prefix) in prefixes.iter().enumerate() {
        sim.originate([leaves[0], leaves[2], leaves[3]][i % 3], prefix);
        sim.run(100 * (i as u64 + 1));
    }
    sim.run(60_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");
    assert_eq!(
        sim.stats(),
        SimStats {
            messages: 48,
            bytes: 1152,
            oob_requests: 0,
            last_event_at: 960,
            decode_errors: 3,
            orphaned_deliveries: 0,
            dropped_messages: 0,
            duplicated_messages: 0,
            corrupted_messages: 8,
            best_changes: 57,
            updates_encoded: 24,
            encode_cache_hits: 24,
            tails_spliced: 0,
        }
    );
    assert_eq!(sim.frames_decoded(), 8, "one parse per corrupted delivery");
    // Where the corrupting leaf stored what the clean leaf stored, it is
    // the same decoded IA; where a flipped byte survived decoding, it is
    // a separate IA with the flip in it.
    let (mut shared, mut apart) = (0, 0);
    for prefix in &prefixes {
        let from_hub = |leaf| sim.speaker(leaf).iadb().get(NeighborId(0), prefix);
        let (Some(dirty), Some(clean)) = (from_hub(leaves[1]), from_hub(leaves[2])) else {
            continue;
        };
        assert_eq!(Arc::ptr_eq(dirty, clean), dirty == clean, "{prefix}");
        if dirty == clean {
            shared += 1;
        } else {
            apart += 1;
        }
    }
    assert_eq!((shared, apart), (3, 2), "three clean copies shared, two corrupted ones not");
}

/// A duplicating link delivers a batched frame twice, and the duplicate
/// carries the decoding its original carried: nothing is parsed.
#[test]
fn decode_once_the_duplicate_of_a_batched_frame_shares_its_decoding() {
    let mut sim = Sim::new();
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.link(a, b, 10, false);
    sim.set_link_model(a, b, LinkModel::default().duplicate_ppm(1_000_000));
    let prefixes = [p("10.0.0.0/16"), p("10.1.0.0/16"), p("10.2.0.0/16")];
    for prefix in prefixes {
        sim.originate(a, prefix);
    }
    sim.run(60_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");
    let stats = sim.stats();
    assert_eq!((stats.messages, stats.duplicated_messages), (2, 1), "{stats:?}");
    assert_eq!((sim.frames_decoded(), sim.ias_decoded()), (0, 3), "the sender's three decodes");
    for prefix in &prefixes {
        assert!(sim.speaker(b).best(prefix).is_some(), "{prefix} installed once");
    }
}

/// A batched flush goes to one neighbor, but the sender puts the same
/// cached bodies into its flush to every neighbor, each decoded once
/// where it was encoded.
#[test]
fn decode_once_neighbours_of_one_sender_share_the_ias_of_their_batched_flushes() {
    let mut sim = Sim::new();
    let hub = sim.add_node(DbgpConfig::gulf(1));
    let (left, right) = (sim.add_node(DbgpConfig::gulf(2)), sim.add_node(DbgpConfig::gulf(3)));
    sim.link(hub, left, 10, false);
    sim.link(hub, right, 10, false);
    let prefixes = [p("10.0.0.0/16"), p("10.1.0.0/16"), p("10.2.0.0/16")];
    for prefix in prefixes {
        sim.originate(hub, prefix);
    }
    sim.run(60_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");
    let stats = sim.stats();
    assert_eq!(stats.messages, 2, "one batched flush to each neighbor");
    assert_eq!(stats.updates_encoded, 3, "{stats:?}");
    for prefix in &prefixes {
        let from_hub = |leaf| sim.speaker(leaf).iadb().get(NeighborId(0), prefix).expect("learned");
        assert!(Arc::ptr_eq(from_hub(left), from_hub(right)), "{prefix}: one decoded IA");
    }
    assert_eq!((sim.frames_decoded(), sim.ias_decoded()), (0, 3));
}

/// An announce frame of a few short IA bodies (every count and length
/// one varint byte), written by hand so a body can be anything.
fn frame_of(bodies: &[&[u8]]) -> Vec<u8> {
    let mut frame = vec![0, bodies.len() as u8];
    for body in bodies {
        assert!(body.len() < 128, "a one-byte length");
        frame.push(body.len() as u8);
        frame.extend_from_slice(body);
    }
    frame
}

/// An undecodable body rejects its whole frame: the good body beside it
/// is not fed to the speaker.
#[test]
fn decode_once_a_frame_with_one_corrupt_body_is_rejected_whole() {
    let mut sim = Sim::new();
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.link(a, b, 10, false);
    sim.run(1_000);
    let prefix = p("128.6.0.0/16");
    let mut ia = dbgp_wire::Ia::originate(prefix, Ipv4Addr::new(192, 0, 2, 2));
    ia.prepend_as(2);
    let good = ia.encode().into_bytes();
    assert!(dbgp_wire::Ia::decode(vec![0xff; 4].into()).is_err(), "the corrupt body");

    sim.inject_raw(b, a, 10, frame_of(&[&good, &[0xff; 4]]));
    sim.run(2_000);
    assert_eq!(sim.stats().decode_errors, 1);
    assert_eq!(sim.node_counters(a).updates_in, 0, "no element fed");
    assert!(sim.speaker(a).best(&prefix).is_none());
    let decoded = sim.ias_decoded();

    sim.inject_raw(b, a, 10, frame_of(&[&good]));
    sim.run(3_000);
    assert!(sim.speaker(a).best(&prefix).is_some(), "the good body alone is accepted");
    assert_eq!(sim.ias_decoded(), decoded + 1, "decoded afresh");
}

/// The frames `from` put on the wire toward `to` after event `since`,
/// each as its elements in frame order: `(announce, prefix)`.
fn frames_sent(
    rec: &TraceRecorder,
    from: usize,
    to: usize,
    since: u64,
) -> Vec<Vec<(bool, Ipv4Prefix)>> {
    let (mut frames, mut elements) = (Vec::new(), Vec::new());
    for event in rec.events().into_iter().filter(|e| e.id.0 >= since && e.node == from as u32) {
        match event.kind {
            TraceKind::Advertise { prefix, to: t } if t == to as u32 => {
                elements.push((true, prefix))
            }
            TraceKind::Withdraw { prefix, to: t } if t == to as u32 => {
                elements.push((false, prefix))
            }
            TraceKind::Transmit { to: t, .. } if t == to as u32 => {
                frames.push(std::mem::take(&mut elements))
            }
            _ => {}
        }
    }
    assert!(elements.is_empty(), "every element belongs to a frame");
    frames
}

/// An IA for `prefix` that names `version` in a foreign descriptor, so
/// the receiver can tell which origination it holds.
fn versioned_ia(prefix: Ipv4Prefix, version: u8) -> dbgp_wire::Ia {
    dbgp_wire::Ia::builder(prefix, Ipv4Addr::new(192, 0, 2, 1))
        .path_descriptor(ProtocolId(100), 1, vec![version])
        .build()
        .unwrap()
}

fn version_at(sim: &Sim, node: usize, prefix: &Ipv4Prefix) -> Option<u8> {
    let best = sim.speaker(node).best(prefix)?;
    Some(best.ia.path_descriptor(ProtocolId(100), 1).expect("descriptor passed through").value[0])
}

/// MRAI coalescing keeps one element per (neighbor, prefix) for a
/// window, the latest state winning, and the window leaves as one frame:
/// withdraws first, then IAs, each group in ascending prefix order.
#[test]
fn an_mrai_window_leaves_as_one_frame_of_latest_states_in_prefix_order() {
    let mut sim = Sim::new();
    sim.set_mrai(30);
    let rec = Rc::new(TraceRecorder::unbounded());
    sim.enable_telemetry(rec.clone());
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.link(a, b, 10, false);
    let [p0, p1, p2] = [p("10.0.0.0/16"), p("10.1.0.0/16"), p("10.2.0.0/16")];
    for prefix in [p2, p0, p1] {
        sim.originate_ia(a, versioned_ia(prefix, 1));
    }
    sim.run(10);
    sim.withdraw(a, p1);
    sim.originate_ia(a, versioned_ia(p2, 2));
    sim.run(60_000_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");

    assert_eq!(frames_sent(&rec, a, b, 0), vec![vec![(false, p1), (true, p0), (true, p2)]]);
    assert_eq!(sim.stats().messages, 1, "B receives one frame and sends none");
    assert_eq!(version_at(&sim, b, &p0), Some(1));
    assert_eq!(version_at(&sim, b, &p1), None, "withdrawn inside the window");
    assert_eq!(version_at(&sim, b, &p2), Some(2), "the re-origination won");
}

/// A session torn down inside a window drops what was pending to it: a
/// failed link, and a restart with the window's Flush still queued.
/// When the neighbor comes back it gets the full table once, and none
/// of the dropped elements.
#[test]
fn an_mrai_window_torn_down_delivers_nothing_it_held() {
    let [p0, p1, p2] = [p("10.0.0.0/16"), p("10.1.0.0/16"), p("10.2.0.0/16")];
    for restart in [false, true] {
        let mut sim = Sim::new();
        sim.set_mrai(30);
        let rec = Rc::new(TraceRecorder::unbounded());
        sim.enable_telemetry(rec.clone());
        let a = sim.add_node(DbgpConfig::gulf(1));
        let b = sim.add_node(DbgpConfig::gulf(2));
        sim.link(a, b, 10, false);
        for prefix in [p0, p1] {
            sim.originate_ia(a, versioned_ia(prefix, 1));
        }
        sim.run(1_000);
        assert_eq!(sim.pending_events(), 0, "converged");
        let t0 = sim.now();

        // Pending to B from t0 to t0 + 30: a withdraw of p1, and p2 at
        // version 1 then 2.
        let since = rec.events().last().unwrap().id.0 + 1;
        sim.withdraw(a, p1);
        sim.originate_ia(a, versioned_ia(p2, 1));
        sim.run(t0 + 10);
        sim.originate_ia(a, versioned_ia(p2, 2));
        if restart {
            sim.restart_node(a);
        } else {
            sim.fail_link(a, b);
            sim.run(t0 + 20);
            sim.restore_link(a, b);
        }
        sim.run(60_000_000);
        assert_eq!(sim.pending_events(), 0, "quiesces");

        assert_eq!(
            frames_sent(&rec, a, b, since),
            vec![vec![(true, p0), (true, p2)]],
            "restart {restart}: one full-table frame, no withdraw"
        );
        assert_eq!(version_at(&sim, b, &p0), Some(1));
        assert_eq!(version_at(&sim, b, &p1), None);
        assert_eq!(version_at(&sim, b, &p2), Some(2));
    }
}
