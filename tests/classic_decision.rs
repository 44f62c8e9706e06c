//! RFC 4271 §9.1.2.2's classic order, one case per rung, run three ways:
//! against the comparator (`dbgp_session::decision`), against
//! `RoutingCore` (UPDATEs from peers brought up with a
//! `SessionSummary`), and against a `DbgpSpeaker` running `ClassicBgp`
//! (the same routes as IAs, `Route::to_ia`). Every leg must install the
//! same winner and report the same `Selection.why`. Each core is fed the
//! offers in every arrival order; the reported `why` is the one of the
//! last best change, so it is held to the case's `why` in the orders
//! where the winner arrives last (an originated route is always
//! originated last), and to the other core's in every order.
//!
//! For most rungs there are two kinds of case: the rung decides when
//! everything above it ties, and a *boundary* case where the rung below
//! would pick the other route — so the chain is evaluated in order, not
//! just present.
//!
//! Cases a core cannot receive, and which leg each one skips:
//!
//! - LOCAL_PREF from an eBGP peer. Both cores drop it on import (RFC
//!   4271 §5.1.5), so the LOCAL_PREF rung reaches `RoutingCore` over
//!   iBGP, and the speaker not at all.
//! - The iBGP rung, and any case with an iBGP offer. A `DbgpSpeaker`
//!   has no iBGP neighbor (ROADMAP item 16 adds them), so those cases
//!   run on the comparator and `RoutingCore` only.
//! - Distinct router ids on the speaker. D-BGP neighbors carry no BGP
//!   identifier, so `ClassicBgp` ties rung 6 and the neighbor id (rung
//!   7) decides. A case whose peers' router ids differ runs on the
//!   comparator and `RoutingCore` only; every other case gives its
//!   `RoutingCore` peers one router id, so rung 6 ties there too.

use dbgp_core::{ClassicBgp, DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, NeighborId};
use dbgp_session::decision::{self, Candidate};
use dbgp_session::{
    NeighborConfig, PeerId, RibOp, Route, RouteSource, RoutingCore, SessionSummary,
};
use dbgp_telemetry::SelectionReason as Why;
use dbgp_wire::attrs::{AsPath, Origin};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};

const LOCAL_AS: u32 = 65000;
const LOCAL_ADDR: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
/// The router id of every peer in a case that does not test rung 6.
const RID: u32 = 1;

fn prefix() -> Ipv4Prefix {
    "203.0.113.0/24".parse().unwrap()
}

/// One route offered to the cores for [`prefix`].
#[derive(Clone)]
struct Offer {
    /// `PeerId` on `RoutingCore`, `NeighborId` on the speaker.
    peer: u32,
    peer_as: u32,
    router_id: u32,
    route: Route,
}

impl Offer {
    fn ibgp(&self) -> bool {
        self.peer_as == LOCAL_AS
    }

    fn med(mut self, med: u32) -> Self {
        self.route.bgp.med = Some(med);
        self
    }

    fn local_pref(mut self, local_pref: u32) -> Self {
        self.route.bgp.local_pref = Some(local_pref);
        self
    }

    fn origin(mut self, origin: Origin) -> Self {
        self.route.origin = origin;
        self
    }

    fn router_id(mut self, router_id: u32) -> Self {
        self.router_id = router_id;
        self
    }
}

/// A route from eBGP peer `peer` in AS `asn`: the path is `asn` then
/// `tail`.
fn ebgp(peer: u32, asn: u32, tail: &[u32]) -> Offer {
    let mut route = Route::originated(Ipv4Addr::new(192, 0, 2, peer as u8));
    route.as_path = AsPath::from_sequence([&[asn], tail].concat());
    Offer { peer, peer_as: asn, router_id: RID, route }
}

/// A route from iBGP peer `peer`, whose path is `path` unchanged.
fn ibgp(peer: u32, path: &[u32]) -> Offer {
    let mut route = Route::originated(Ipv4Addr::new(192, 0, 2, peer as u8));
    route.as_path = AsPath::from_sequence(path);
    Offer { peer, peer_as: LOCAL_AS, router_id: RID, route }
}

/// The comparator's view of `offer`, as it is imported: an eBGP
/// LOCAL_PREF dropped, the MED rung grouped by the path's first AS.
fn candidate(offer: &Offer) -> Candidate {
    let mut route = offer.route.clone();
    route.bgp.import(!offer.ibgp());
    Candidate {
        local: false,
        local_pref: route.effective_local_pref(),
        hops: route.as_path.hop_count(),
        origin: route.origin,
        med: route.bgp.med.unwrap_or(0),
        neighbor_as: route.as_path.first_as().unwrap_or(offer.peer_as),
        ebgp: !offer.ibgp(),
        router_id: Ipv4Addr(offer.router_id),
        peer: offer.peer,
    }
}

/// What a leg installed (`Some(None)`: the originated route) and the
/// `why` of its last best change.
type Outcome = (Option<Option<u32>>, Option<Why>);

fn run_core(local: bool, arrivals: &[&Offer]) -> Outcome {
    let mut core = RoutingCore::new(LOCAL_AS, LOCAL_ADDR);
    for o in arrivals {
        let id = PeerId(o.peer);
        core.add_peer(id, NeighborConfig::new(LOCAL_AS, LOCAL_ADDR, o.peer_as, LOCAL_ADDR));
        let summary = SessionSummary {
            peer_as: o.peer_as,
            peer_id: Ipv4Addr(o.router_id),
            hold_time_ms: 90_000,
            four_octet: true,
            ia_support: false,
        };
        core.peer_up(id, summary);
    }
    let mut why = None;
    let mut record = |ops: Vec<RibOp>| {
        for op in ops {
            if let RibOp::BestRouteChanged(_, _, selection) = op {
                why = Some(selection.why);
            }
        }
    };
    for o in arrivals {
        let update = UpdateMsg::announce(vec![prefix()], o.route.to_attrs(true));
        let (ops, err) = core.update(0, PeerId(o.peer), update);
        assert!(err.is_none(), "{err:?}");
        record(ops);
    }
    if local {
        record(core.originate(0, prefix()));
    }
    let installed = core.loc_rib().get(&prefix()).map(|best| match best.source {
        RouteSource::Local => None,
        RouteSource::Peer(id) => Some(id.0),
    });
    (installed, why)
}

fn run_speaker(local: bool, arrivals: &[&Offer]) -> Outcome {
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(LOCAL_AS));
    speaker.register_module(Box::new(ClassicBgp::new()));
    for o in arrivals {
        speaker.add_neighbor(NeighborId(o.peer), DbgpNeighbor::dbgp(o.peer_as));
    }
    let mut why = None;
    let mut record = |outs: Vec<DbgpOutput>| {
        for out in outs {
            if let DbgpOutput::BestChanged(_, selection) | DbgpOutput::Unreachable(_, selection) =
                out
            {
                why = Some(selection.why);
            }
        }
    };
    for o in arrivals {
        record(speaker.receive_ia(NeighborId(o.peer), o.route.to_ia(prefix())));
    }
    if local {
        record(speaker.originate(prefix(), LOCAL_ADDR));
    }
    let installed = speaker.best(&prefix()).map(|best| best.neighbor.map(|n| n.0));
    (installed, why)
}

/// Every order of `0..n`.
fn orders(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in orders(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

/// Run a case on every leg that can receive it, in every order, and
/// hold each to `winner` (`None`: the originated route) and `why`.
fn check_with_origin(local: bool, offers: &[Offer], winner: Option<u32>, why: Why) {
    let speaker_too = offers.iter().all(|o| !o.ibgp())
        && offers.windows(2).all(|w| w[0].router_id == w[1].router_id);
    for order in orders(offers.len()) {
        let arrivals: Vec<&Offer> = order.iter().map(|&i| &offers[i]).collect();

        let mut cands: Vec<Candidate> = arrivals.iter().map(|o| candidate(o)).collect();
        if local {
            cands.push(Candidate::LOCAL);
        }
        let best = decision::best(&cands).expect("a candidate");
        let got = (!cands[best].local).then_some(cands[best].peer);
        assert_eq!(got, winner, "comparator, order {order:?}");
        assert_eq!(decision::explain(&cands, best), why, "comparator, order {order:?}");

        let core = run_core(local, &arrivals);
        assert_eq!(core.0, Some(winner), "RoutingCore, order {order:?}");
        if local || arrivals.last().map(|o| o.peer) == winner {
            assert_eq!(core.1, Some(why), "RoutingCore, order {order:?}");
        }
        if speaker_too {
            assert_eq!(run_speaker(local, &arrivals), core, "ClassicBgp, order {order:?}");
        }
    }
}

fn check(offers: &[Offer], winner: u32, why: Why) {
    check_with_origin(false, offers, Some(winner), why);
}

// ----- local origination and a lone candidate ---------------------------

#[test]
fn a_local_route_beats_every_learned_one() {
    check_with_origin(true, &[ebgp(1, 1, &[])], None, Why::LocalOrigin);
    check_with_origin(true, &[ibgp(1, &[]).local_pref(500)], None, Why::LocalOrigin);
}

#[test]
fn a_lone_candidate_is_its_own_reason() {
    check(&[ebgp(1, 1, &[2])], 1, Why::OnlyCandidate);
    assert_eq!(decision::best(&[]), None);
}

// ----- rung 1: LOCAL_PREF (iBGP only, on RoutingCore) -------------------

#[test]
fn local_pref_highest_wins() {
    check(&[ibgp(1, &[3, 4]).local_pref(100), ibgp(2, &[1, 2]).local_pref(300)], 2, Why::LocalPref);
}

#[test]
fn local_pref_defaults_to_100_when_absent() {
    // An explicit 100 ties with an absent LOCAL_PREF; path length decides.
    check(&[ibgp(1, &[1, 2, 3]).local_pref(100), ibgp(2, &[4, 5])], 2, Why::ShortestPath);
    // An explicit 99 loses to the absent default.
    check(&[ibgp(1, &[1]).local_pref(99), ibgp(2, &[4, 5])], 2, Why::LocalPref);
}

#[test]
fn boundary_local_pref_beats_shorter_path() {
    // One unit of LOCAL_PREF on a path twice as long.
    check(&[ibgp(1, &[5, 6]), ibgp(2, &[1, 2, 3, 4]).local_pref(101)], 2, Why::LocalPref);
}

#[test]
fn an_external_local_pref_does_not_outrank_a_shorter_path() {
    // RFC 4271 §5.1.5: both cores drop it on import.
    let long = ebgp(1, 65001, &[7, 8, 9]).local_pref(500);
    check(&[long, ebgp(2, 65002, &[9])], 2, Why::ShortestPath);
}

// ----- rung 2: AS-path length -------------------------------------------

#[test]
fn shorter_as_path_wins() {
    check(&[ebgp(1, 3, &[4, 5]), ebgp(2, 1, &[2])], 2, Why::ShortestPath);
}

#[test]
fn boundary_path_length_beats_better_origin() {
    let long = ebgp(1, 1, &[2, 3]).origin(Origin::Igp);
    check(&[long, ebgp(2, 4, &[5]).origin(Origin::Incomplete)], 2, Why::ShortestPath);
}

#[test]
fn the_runner_up_is_the_best_of_the_rest() {
    // The runner-up names the rung, not any loser: the 4-hop route loses
    // on length, the rival from the winner's AS on MED.
    check(&[ebgp(1, 6, &[7, 8, 9]), ebgp(2, 1, &[2]), ebgp(3, 3, &[4, 5])], 2, Why::ShortestPath);
    let rival = ebgp(3, 1, &[3]).med(20);
    check(&[ebgp(1, 6, &[7, 8, 9]), ebgp(2, 1, &[2]).med(10), rival], 2, Why::Med);
}

// ----- rung 3: ORIGIN ---------------------------------------------------

#[test]
fn origin_ranks_igp_egp_incomplete() {
    let inc = ebgp(1, 5, &[6]).origin(Origin::Incomplete);
    let egp = ebgp(2, 3, &[4]).origin(Origin::Egp);
    let igp = ebgp(3, 1, &[2]).origin(Origin::Igp);
    check(&[inc.clone(), egp.clone(), igp], 3, Why::Origin);
    check(&[inc, egp], 2, Why::Origin);
}

#[test]
fn boundary_origin_beats_lower_med() {
    // One neighbouring AS, so MED would apply, but ORIGIN is higher.
    let egp = ebgp(1, 7, &[2]).origin(Origin::Egp).med(1);
    check(&[egp, ebgp(2, 7, &[1]).origin(Origin::Igp).med(500)], 2, Why::Origin);
}

// ----- rung 4: MED ------------------------------------------------------

#[test]
fn med_lower_wins_within_same_neighbor_as() {
    check(&[ebgp(1, 7, &[8]).med(99), ebgp(2, 7, &[9]).med(10)], 2, Why::Med);
}

#[test]
fn med_skipped_across_different_neighbor_ases() {
    // MED skipped; the tie falls through to the peer id.
    check(&[ebgp(1, 7, &[8]).med(99), ebgp(2, 6, &[9]).med(10)], 1, Why::NeighborId);
}

#[test]
fn missing_med_treated_as_zero() {
    check(&[ebgp(1, 7, &[8]).med(1), ebgp(2, 7, &[9])], 2, Why::Med);
}

#[test]
fn boundary_med_beats_ebgp_preference() {
    // The iBGP route has the lower MED, and its path leaves through the
    // eBGP route's AS: MED is the higher rung.
    check(&[ebgp(1, 7, &[2]).med(50), ibgp(2, &[7, 1]).med(5)], 2, Why::Med);
}

#[test]
fn med_groups_by_the_paths_neighbouring_as_not_the_relaying_peers() {
    // RFC 4271 §9.1.2.2(c): over iBGP the relaying peer is in our own
    // AS, but both routes enter through AS 7, so MED compares them.
    check(&[ebgp(1, 7, &[9]).med(50), ibgp(2, &[7, 8]).med(10)], 2, Why::Med);
    // Routes originated inside our AS have no neighbouring AS on the
    // path; they group by the peer's, ours.
    check(&[ibgp(1, &[]).med(20), ibgp(2, &[]).med(5)], 2, Why::Med);
}

#[test]
fn the_med_cycle_picks_one_winner_in_every_arrival_order() {
    // a beats b and b beats c on the peer id, c beats a on MED (both
    // from AS 7). RFC 4271 drops a (AS 7 also offers c, with a lower
    // MED), and b beats c: b wins, and c is the runner-up.
    let (a, b, c) = (ebgp(1, 7, &[2]).med(50), ebgp(2, 8, &[4]).med(10), ebgp(3, 7, &[6]).med(10));
    check(&[a.clone(), b.clone(), c.clone()], 2, Why::NeighborId);
    // With router ids in the same order, rung 6 decides instead.
    check(&[a.router_id(1), b.router_id(2), c.router_id(3)], 2, Why::RouterId);
}

#[test]
fn the_med_rung_is_intransitive_and_the_comparison_antisymmetric() {
    // Why no core may prune against the incumbent: "loses to the
    // installed best" is not "cannot win a full scan" in a cycle
    // (Daggitt & Griffin, arXiv 2106.01184).
    let [a, b, c] = [ebgp(1, 7, &[2]).med(50), ebgp(2, 8, &[4]).med(10), ebgp(3, 7, &[6]).med(10)]
        .map(|o| candidate(&o));
    let beats = |x: &Candidate, y: &Candidate| decision::compare_explain(x, y).0.is_gt();
    assert!(beats(&a, &b) && beats(&b, &c) && beats(&c, &a), "the cycle closes");
    for (x, y) in [(a, b), (b, c), (c, a)] {
        assert!(!beats(&y, &x), "antisymmetric");
        assert_eq!(decision::compare_explain(&x, &y).1, decision::compare_explain(&y, &x).1);
    }
}

// ----- rung 5: eBGP over iBGP (RoutingCore only) ------------------------

#[test]
fn ebgp_beats_ibgp() {
    check(&[ibgp(1, &[3, 4]), ebgp(2, 1, &[2])], 2, Why::EbgpOverIbgp);
}

#[test]
fn boundary_ebgp_beats_lower_router_id() {
    check(&[ibgp(1, &[3, 4]).router_id(1), ebgp(2, 1, &[2]).router_id(200)], 2, Why::EbgpOverIbgp);
}

// ----- rung 6: router id (RoutingCore only) -----------------------------

#[test]
fn lowest_router_id_wins() {
    check(&[ebgp(1, 1, &[2]).router_id(50), ebgp(2, 3, &[4]).router_id(10)], 2, Why::RouterId);
}

#[test]
fn boundary_router_id_beats_lower_peer_id() {
    check(&[ebgp(1, 1, &[2]).router_id(50), ebgp(9, 3, &[4]).router_id(10)], 9, Why::RouterId);
}

// ----- rung 7: peer id --------------------------------------------------

#[test]
fn lowest_peer_id_is_the_final_rung() {
    check(&[ebgp(9, 1, &[2]), ebgp(3, 3, &[4])], 3, Why::NeighborId);
}
