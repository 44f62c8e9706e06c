//! Two RFC 4271 rules the classic decision process has to get right
//! beyond the rung order `decision_tiebreaks.rs` walks: a LOCAL_PREF
//! sent by an external peer is ignored (§5.1.5), and the MED rung, which
//! applies only between routes from one neighbouring AS (§9.1.2.2(c)),
//! does not let candidate order pick the winner.

use dbgp_session::decision::{best, explain, Candidate};
use dbgp_session::{NeighborConfig, PeerId, Route, RouteSource, RoutingCore, SessionSummary};
use dbgp_telemetry::SelectionReason;
use dbgp_wire::attrs::{AsPath, Origin, PathAttribute};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};

const LOCAL_AS: u32 = 65000;
const LOCAL_ADDR: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

fn route(path: Vec<u32>, med: u32) -> Route {
    let mut r = Route::originated(Ipv4Addr::new(10, 0, 0, 1));
    r.as_path = AsPath::from_sequence(path);
    r.bgp.med = Some(med);
    r
}

fn cand(route: &Route, peer: u32, peer_as: u32, rid: u32) -> Candidate<'_> {
    Candidate {
        route,
        source: RouteSource::Peer(PeerId(peer)),
        peer_as,
        ebgp: true,
        peer_router_id: Ipv4Addr(rid),
    }
}

#[test]
fn an_external_local_pref_does_not_outrank_a_shorter_path() {
    let mut core = RoutingCore::new(LOCAL_AS, LOCAL_ADDR);
    for (id, asn) in [(PeerId(0), 65001), (PeerId(1), 65002)] {
        core.add_peer(id, NeighborConfig::new(LOCAL_AS, LOCAL_ADDR, asn, LOCAL_ADDR));
        let summary = SessionSummary {
            peer_as: asn,
            peer_id: Ipv4Addr::new(10, 0, 0, id.0 as u8 + 1),
            hold_time_ms: 90_000,
            four_octet: true,
            ia_support: false,
        };
        core.peer_up(id, summary);
    }
    let prefix: Ipv4Prefix = "203.0.113.0/24".parse().unwrap();
    let announce = |path: Vec<u32>, local_pref: Option<u32>| {
        let mut attrs = vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence(path)),
            PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
        ];
        attrs.extend(local_pref.map(PathAttribute::LocalPref));
        UpdateMsg::announce(vec![prefix], attrs)
    };
    let (_, err) = core.update(0, PeerId(0), announce(vec![65001, 7, 8, 9], Some(500)));
    assert!(err.is_none());
    let (_, err) = core.update(0, PeerId(1), announce(vec![65002, 9], None));
    assert!(err.is_none());

    let installed = core.loc_rib().get(&prefix).expect("a route is installed");
    assert_eq!(installed.source, RouteSource::Peer(PeerId(1)), "the shorter path wins");
    assert_eq!(installed.route.as_path.hop_count(), 2);
}

#[test]
fn the_med_cycle_picks_one_winner_in_every_candidate_order() {
    // `decision::tests::med_default_is_intransitive`'s triple: a beats b
    // and b beats c on router id, c beats a on MED (both from AS 7).
    // RFC 4271 drops a (AS 7 also offers c, with a lower MED), and b
    // beats c on router id: b wins, and c is the runner-up.
    let (ra, rb, rc) = (route(vec![1, 2], 50), route(vec![3, 4], 10), route(vec![5, 6], 10));
    let triple = [cand(&ra, 1, 7, 1), cand(&rb, 2, 8, 2), cand(&rc, 3, 7, 3)];
    let orders = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    for order in orders {
        let cands: Vec<Candidate<'_>> = order.iter().map(|&i| triple[i].clone()).collect();
        let winner = best(&cands).expect("three candidates");
        assert_eq!(cands[winner].source, RouteSource::Peer(PeerId(2)), "order {order:?}");
        assert_eq!(explain(&cands, winner), SelectionReason::RouterId, "order {order:?}");
    }
}
