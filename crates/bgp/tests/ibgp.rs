//! Distributed control (paper §3: D-BGP "can be used by ASes with
//! distributed control — those that use individual routers as BGP
//! speakers"): the classic speaker's iBGP behaviour across a
//! multi-router AS.

use dbgp_bgp::{NeighborConfig, PeerId, Speaker};
use dbgp_session::{ConnDir, RouteSource};
use dbgp_wire::message::{BgpMessage, OpenMsg, UpdateMsg};
use dbgp_wire::{AsPath, Ipv4Addr, Ipv4Prefix, Origin, PathAttribute};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

type Fabric = dbgp_session::Fabric<Speaker>;

fn neighbor(local_as: u32, local_id: u8, peer_as: u32) -> NeighborConfig {
    NeighborConfig::new(
        local_as,
        Ipv4Addr::new(10, 0, 0, local_id),
        peer_as,
        Ipv4Addr::new(10, local_id, peer_as as u8, 1),
    )
}

/// AS 100 = routers R1, R2, R3 (iBGP full mesh). R1 peers eBGP with AS
/// 200 (origin), R3 with AS 300 (customer).
fn multi_router_as() -> Fabric {
    let mut r1 = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 1));
    let mut r2 = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 2));
    let mut r3 = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 3));
    let mut origin = Speaker::new(200, Ipv4Addr::new(10, 0, 0, 4));
    let mut customer = Speaker::new(300, Ipv4Addr::new(10, 0, 0, 5));

    // iBGP mesh.
    r1.add_peer(PeerId(0), neighbor(100, 1, 100)); // to r2
    r1.add_peer(PeerId(1), neighbor(100, 1, 100)); // to r3
    r2.add_peer(PeerId(0), neighbor(100, 2, 100)); // to r1
    r2.add_peer(PeerId(1), neighbor(100, 2, 100)); // to r3
    r3.add_peer(PeerId(0), neighbor(100, 3, 100)); // to r1
    r3.add_peer(PeerId(1), neighbor(100, 3, 100)); // to r2
                                                   // eBGP edges.
    r1.add_peer(PeerId(2), neighbor(100, 1, 200));
    origin.add_peer(PeerId(0), neighbor(200, 4, 100));
    r3.add_peer(PeerId(2), neighbor(100, 3, 300));
    customer.add_peer(PeerId(0), neighbor(300, 5, 100));

    let mut fabric = Fabric::new(vec![r1, r2, r3, origin, customer]);
    fabric.link(0, PeerId(0), 1, PeerId(0)); // r1-r2
    fabric.link(0, PeerId(1), 2, PeerId(0)); // r1-r3
    fabric.link(1, PeerId(1), 2, PeerId(1)); // r2-r3
    fabric.link(0, PeerId(2), 3, PeerId(0)); // r1-origin
    fabric.link(2, PeerId(2), 4, PeerId(0)); // r3-customer
    fabric.start();
    fabric
}

#[test]
fn ibgp_mesh_establishes() {
    let fabric = multi_router_as();
    for idx in 0..3 {
        assert!(fabric[idx].is_established(PeerId(0)), "router {idx} iBGP peer 0");
        assert!(fabric[idx].is_established(PeerId(1)), "router {idx} iBGP peer 1");
    }
}

#[test]
fn ebgp_route_distributes_over_ibgp_without_as_prepend() {
    let mut fabric = multi_router_as();
    fabric.originate(3, p("198.51.100.0/24"));
    // R1 learned it via eBGP (path: 200).
    let at_r1 = fabric[0].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_r1.route.as_path.hop_count(), 1);
    // R2 and R3 got it over iBGP: same AS path (no prepend inside the
    // AS), NEXT_HOP preserved from R1's eBGP edge.
    for idx in [1usize, 2] {
        let entry = fabric[idx].loc_rib().get(&p("198.51.100.0/24")).unwrap();
        assert_eq!(entry.route.as_path.hop_count(), 1, "router {idx}: no iBGP prepend");
        assert_eq!(entry.route.next_hop, at_r1.route.next_hop, "router {idx}: next hop kept");
        assert!(matches!(entry.source, RouteSource::Peer(_)));
    }
}

#[test]
fn ibgp_routes_are_not_reflected() {
    let mut fabric = multi_router_as();
    fabric.originate(3, p("198.51.100.0/24"));
    // R2 hears the route from R1 over iBGP. R2 must NOT re-advertise it
    // to R3 (no route reflection): R3's copy must have come directly
    // from R1. We verify by checking R3 has exactly one Adj-RIB-In
    // entry for the prefix.
    let candidates: Vec<_> = fabric[2].adj_rib_in().candidates(&p("198.51.100.0/24")).collect();
    assert_eq!(candidates.len(), 1, "exactly one iBGP source: {candidates:?}");
}

#[test]
fn egress_router_prepends_once_toward_ebgp_customer() {
    let mut fabric = multi_router_as();
    fabric.originate(3, p("198.51.100.0/24"));
    let at_customer = fabric[4].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_customer.route.as_path.hop_count(), 2, "AS path is [100, 200]");
    assert_eq!(at_customer.route.as_path.first_as(), Some(100));
    assert_eq!(at_customer.route.as_path.origin_as(), Some(200));
}

#[test]
fn local_pref_propagates_inside_the_as_only() {
    // R2 (AS 100) peers iBGP with R1, whose side of the session is
    // written out as bytes below, and eBGP with a customer in AS 300.
    let mut r2 = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 2));
    let mut customer = Speaker::new(300, Ipv4Addr::new(10, 0, 0, 5));
    r2.add_peer(PeerId(0), neighbor(100, 2, 100));
    r2.add_peer(PeerId(1), neighbor(100, 2, 300));
    customer.add_peer(PeerId(0), neighbor(300, 5, 100));
    let mut fabric = Fabric::new(vec![r2, customer]);
    fabric.link(0, PeerId(1), 1, PeerId(0));
    fabric.start();

    // A LOCAL_PREF enters the AS only over iBGP, from the wire: R1
    // connects, opens the session and announces a route carrying one.
    let update = UpdateMsg::announce(
        vec![p("198.51.100.0/24")],
        vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence(vec![200])),
            PathAttribute::NextHop(Ipv4Addr::new(10, 1, 200, 1)),
            PathAttribute::LocalPref(250),
        ],
    );
    let from_r1 = [
        BgpMessage::Open(OpenMsg::new(100, 90, Ipv4Addr::new(10, 0, 0, 1))),
        BgpMessage::Keepalive,
        BgpMessage::Update(update),
    ];
    fabric.drive(0, |host, now| {
        let mut out = host.accepted(now, PeerId(0));
        for msg in &from_r1 {
            out.extend(host.bytes_in(now, PeerId(0), ConnDir::In, &msg.encode(true)));
        }
        out
    });

    // Inside AS 100: LOCAL_PREF kept at R2.
    let at_r2 = fabric[0].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_r2.source, RouteSource::Peer(PeerId(0)));
    assert_eq!(at_r2.route.bgp.local_pref, Some(250), "LOCAL_PREF crossed iBGP");
    // Outside: stripped before the customer.
    let at_customer = fabric[1].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_customer.route.as_path.hop_count(), 2, "AS path is [100, 200]");
    assert_eq!(at_customer.route.bgp.local_pref, None, "LOCAL_PREF never leaves the AS");
}
