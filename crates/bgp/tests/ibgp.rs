//! Distributed control (paper §3: D-BGP "can be used by ASes with
//! distributed control — those that use individual routers as BGP
//! speakers"): the classic speaker's iBGP behaviour across a
//! multi-router AS.

use bytes::Bytes;
use dbgp_bgp::{NeighborConfig, Output, PeerId, Speaker, TransportEvent};
use dbgp_session::RouteSource;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use std::collections::{BTreeMap, VecDeque};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// Minimal lossless fabric pumping wire bytes between speakers.
struct Fabric {
    speakers: Vec<Speaker>,
    links: BTreeMap<(usize, PeerId), (usize, PeerId)>,
    queue: VecDeque<(usize, PeerId, Bytes)>,
    now: u64,
}

impl Fabric {
    fn new(speakers: Vec<Speaker>) -> Self {
        Fabric { speakers, links: BTreeMap::new(), queue: VecDeque::new(), now: 0 }
    }

    fn connect(&mut self, a: usize, pa: PeerId, b: usize, pb: PeerId) {
        self.links.insert((a, pa), (b, pb));
        self.links.insert((b, pb), (a, pa));
    }

    fn absorb(&mut self, idx: usize, outputs: Vec<Output>) {
        for output in outputs {
            match output {
                Output::Send(peer, _, bytes) => {
                    if let Some(&(remote, rpeer)) = self.links.get(&(idx, peer)) {
                        self.queue.push_back((remote, rpeer, bytes));
                    }
                }
                Output::Connect(peer) => {
                    if let Some(&(remote, rpeer)) = self.links.get(&(idx, peer)) {
                        let now = self.now;
                        let o = self.speakers[idx].transport_event(
                            now,
                            peer,
                            TransportEvent::Connected,
                        );
                        self.absorb(idx, o);
                        let o = self.speakers[remote].transport_event(
                            now,
                            rpeer,
                            TransportEvent::Connected,
                        );
                        self.absorb(remote, o);
                    }
                }
                _ => {}
            }
        }
    }

    fn run(&mut self) {
        while let Some((idx, peer, bytes)) = self.queue.pop_front() {
            self.now += 1;
            let now = self.now;
            let outputs = self.speakers[idx].receive(now, peer, &bytes);
            self.absorb(idx, outputs);
        }
    }

    fn start(&mut self) {
        for idx in 0..self.speakers.len() {
            let o = self.speakers[idx].start(0);
            self.absorb(idx, o);
        }
        self.run();
    }

    fn originate(&mut self, idx: usize, prefix: Ipv4Prefix) {
        self.now += 1;
        let now = self.now;
        let o = self.speakers[idx].originate(now, prefix);
        self.absorb(idx, o);
        self.run();
    }
}

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
    fabric.connect(0, PeerId(0), 1, PeerId(0)); // r1-r2
    fabric.connect(0, PeerId(1), 2, PeerId(0)); // r1-r3
    fabric.connect(1, PeerId(1), 2, PeerId(1)); // r2-r3
    fabric.connect(0, PeerId(2), 3, PeerId(0)); // r1-origin
    fabric.connect(2, PeerId(2), 4, PeerId(0)); // r3-customer
    fabric.start();
    fabric
}

#[test]
fn ibgp_mesh_establishes() {
    let fabric = multi_router_as();
    for idx in 0..3 {
        assert!(fabric.speakers[idx].is_established(PeerId(0)), "router {idx} iBGP peer 0");
        assert!(fabric.speakers[idx].is_established(PeerId(1)), "router {idx} iBGP peer 1");
    }
}

#[test]
fn ebgp_route_distributes_over_ibgp_without_as_prepend() {
    let mut fabric = multi_router_as();
    fabric.originate(3, p("198.51.100.0/24"));
    // R1 learned it via eBGP (path: 200).
    let at_r1 = fabric.speakers[0].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_r1.route.as_path.hop_count(), 1);
    // R2 and R3 got it over iBGP: same AS path (no prepend inside the
    // AS), NEXT_HOP preserved from R1's eBGP edge.
    for idx in [1usize, 2] {
        let entry = fabric.speakers[idx].loc_rib().get(&p("198.51.100.0/24")).unwrap();
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
    let candidates: Vec<_> =
        fabric.speakers[2].adj_rib_in().candidates(&p("198.51.100.0/24")).collect();
    assert_eq!(candidates.len(), 1, "exactly one iBGP source: {candidates:?}");
}

#[test]
fn egress_router_prepends_once_toward_ebgp_customer() {
    let mut fabric = multi_router_as();
    fabric.originate(3, p("198.51.100.0/24"));
    let at_customer = fabric.speakers[4].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_customer.route.as_path.hop_count(), 2, "AS path is [100, 200]");
    assert_eq!(at_customer.route.as_path.first_as(), Some(100));
    assert_eq!(at_customer.route.as_path.origin_as(), Some(200));
}

#[test]
fn local_pref_propagates_inside_the_as_only() {
    use dbgp_session::{Clause, MatchCond, RouteMap, SetAction};
    let mut r1 = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 1));
    let mut r2 = Speaker::new(100, Ipv4Addr::new(10, 0, 0, 2));
    let mut origin = Speaker::new(200, Ipv4Addr::new(10, 0, 0, 4));
    let mut customer = Speaker::new(300, Ipv4Addr::new(10, 0, 0, 5));
    r1.add_peer(PeerId(0), neighbor(100, 1, 100));
    r2.add_peer(PeerId(0), neighbor(100, 2, 100));
    let mut ebgp_in = neighbor(100, 1, 200);
    ebgp_in.import = RouteMap {
        clauses: vec![Clause::permit(vec![MatchCond::Any], vec![SetAction::LocalPref(250)])],
        default_permit: true,
    };
    r1.add_peer(PeerId(1), ebgp_in);
    origin.add_peer(PeerId(0), neighbor(200, 4, 100));
    r2.add_peer(PeerId(1), neighbor(100, 2, 300));
    customer.add_peer(PeerId(0), neighbor(300, 5, 100));

    let mut fabric = Fabric::new(vec![r1, r2, origin, customer]);
    fabric.connect(0, PeerId(0), 1, PeerId(0));
    fabric.connect(0, PeerId(1), 2, PeerId(0));
    fabric.connect(1, PeerId(1), 3, PeerId(0));
    fabric.start();
    fabric.originate(2, p("198.51.100.0/24"));

    // Inside AS 100: LOCAL_PREF visible at R2.
    let at_r2 = fabric.speakers[1].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_r2.route.local_pref, Some(250), "LOCAL_PREF crossed iBGP");
    // Outside: stripped before the customer.
    let at_customer = fabric.speakers[3].loc_rib().get(&p("198.51.100.0/24")).unwrap();
    assert_eq!(at_customer.route.local_pref, None, "LOCAL_PREF never leaves the AS");
}
