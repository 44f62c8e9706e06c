//! RFC 4271 §9.1.2.2 tie-break chain, one rung at a time.
//!
//! For every rung there are two kinds of tests: the rung itself
//! decides when everything above it ties, and a *boundary* case where
//! the rung below would pick the other route — proving the chain is
//! evaluated in order, not just that each comparison exists.

use dbgp_session::decision::{best, Candidate};
use dbgp_session::{PeerId, Route, RouteSource};
use dbgp_wire::attrs::{AsPath, Origin};
use dbgp_wire::Ipv4Addr;

fn route(path: Vec<u32>) -> Route {
    let mut r = Route::originated(Ipv4Addr::new(10, 0, 0, 1));
    r.as_path = AsPath::from_sequence(path);
    r
}

fn cand(route: &Route, peer: u32, peer_as: u32, ebgp: bool, rid: u32) -> Candidate<'_> {
    Candidate {
        route,
        source: RouteSource::Peer(PeerId(peer)),
        peer_as,
        ebgp,
        peer_router_id: Ipv4Addr(rid),
    }
}

// ----- rung 1: LOCAL_PREF ----------------------------------------------

#[test]
fn local_pref_highest_wins() {
    let mut hi = route(vec![1, 2]);
    hi.bgp.local_pref = Some(300);
    let mut lo = route(vec![3, 4]);
    lo.bgp.local_pref = Some(100);
    let cands = [cand(&lo, 1, 3, true, 1), cand(&hi, 2, 1, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn local_pref_defaults_to_100_when_absent() {
    // An explicit 100 ties with an absent LOCAL_PREF; the next rung
    // (path length) decides.
    let mut explicit = route(vec![1, 2, 3]);
    explicit.bgp.local_pref = Some(100);
    let absent = route(vec![4, 5]);
    let cands = [cand(&explicit, 1, 1, true, 1), cand(&absent, 2, 4, true, 2)];
    assert_eq!(best(&cands), Some(1), "tie at 100 must fall through to path length");
    // And an explicit 99 genuinely loses to the absent default.
    let mut low = route(vec![1]);
    low.bgp.local_pref = Some(99);
    let cands = [cand(&low, 1, 1, true, 1), cand(&absent, 2, 4, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn boundary_local_pref_beats_shorter_path() {
    // One-unit LOCAL_PREF edge on a path twice as long.
    let mut long = route(vec![1, 2, 3, 4]);
    long.bgp.local_pref = Some(101);
    let short = route(vec![5, 6]);
    let cands = [cand(&short, 1, 5, true, 1), cand(&long, 2, 1, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

// ----- rung 2: AS-path length ------------------------------------------

#[test]
fn shorter_as_path_wins() {
    let short = route(vec![1, 2]);
    let long = route(vec![3, 4, 5]);
    let cands = [cand(&long, 1, 3, true, 1), cand(&short, 2, 1, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn boundary_path_length_beats_better_origin() {
    // The longer path has the better (IGP) origin; length is the
    // higher rung and must win.
    let mut long = route(vec![1, 2, 3]);
    long.origin = Origin::Igp;
    let mut short = route(vec![4, 5]);
    short.origin = Origin::Incomplete;
    let cands = [cand(&long, 1, 1, true, 1), cand(&short, 2, 4, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

// ----- rung 3: origin ---------------------------------------------------

#[test]
fn origin_ranks_igp_egp_incomplete() {
    let mut igp = route(vec![1, 2]);
    igp.origin = Origin::Igp;
    let mut egp = route(vec![3, 4]);
    egp.origin = Origin::Egp;
    let mut inc = route(vec![5, 6]);
    inc.origin = Origin::Incomplete;
    let cands = [cand(&inc, 1, 5, true, 1), cand(&egp, 2, 3, true, 2), cand(&igp, 3, 1, true, 3)];
    assert_eq!(best(&cands), Some(2), "IGP beats EGP and INCOMPLETE");
    let cands = [cand(&inc, 1, 5, true, 1), cand(&egp, 2, 3, true, 2)];
    assert_eq!(best(&cands), Some(1), "EGP beats INCOMPLETE");
}

#[test]
fn boundary_origin_beats_lower_med() {
    // Same neighbouring AS, so MED *would* apply — but origin is the
    // higher rung and the worse-MED route has the better origin.
    let mut igp = route(vec![7, 1]);
    igp.origin = Origin::Igp;
    igp.bgp.med = Some(500);
    let mut egp = route(vec![7, 2]);
    egp.origin = Origin::Egp;
    egp.bgp.med = Some(1);
    let cands = [cand(&egp, 1, 7, true, 1), cand(&igp, 2, 7, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

// ----- rung 4: MED ------------------------------------------------------

#[test]
fn med_lower_wins_within_same_neighbor_as() {
    let mut cheap = route(vec![7, 9]);
    cheap.bgp.med = Some(10);
    let mut costly = route(vec![7, 8]);
    costly.bgp.med = Some(99);
    let cands = [cand(&costly, 1, 7, true, 1), cand(&cheap, 2, 7, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn med_skipped_across_different_neighbor_ases() {
    let mut cheap = route(vec![6, 9]);
    cheap.bgp.med = Some(10);
    let mut costly = route(vec![7, 8]);
    costly.bgp.med = Some(99);
    // MED skipped → falls through to router ID, where the costly
    // route's peer wins.
    let cands = [cand(&costly, 1, 7, true, 1), cand(&cheap, 2, 6, true, 2)];
    assert_eq!(best(&cands), Some(0));
}

#[test]
fn boundary_med_beats_ebgp_preference() {
    // The iBGP route has the lower MED; MED is the higher rung.
    let mut ibgp = route(vec![7, 1]);
    ibgp.bgp.med = Some(5);
    let mut ebgp = route(vec![7, 2]);
    ebgp.bgp.med = Some(50);
    let cands = [cand(&ebgp, 1, 7, true, 1), cand(&ibgp, 2, 7, false, 2)];
    assert_eq!(best(&cands), Some(1));
}

// ----- rung 5: eBGP over iBGP ------------------------------------------

#[test]
fn ebgp_beats_ibgp() {
    let e = route(vec![1, 2]);
    let i = route(vec![3, 4]);
    let cands = [cand(&i, 1, 3, false, 1), cand(&e, 2, 1, true, 2)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn boundary_ebgp_beats_lower_router_id() {
    // The iBGP peer has the lowest router ID; eBGP is the higher rung.
    let e = route(vec![1, 2]);
    let i = route(vec![3, 4]);
    let cands = [cand(&i, 1, 3, false, 1), cand(&e, 2, 1, true, 200)];
    assert_eq!(best(&cands), Some(1));
}

// ----- rungs 6 and 7: router ID, then peer ID --------------------------

#[test]
fn lowest_router_id_wins() {
    let r1 = route(vec![1, 2]);
    let r2 = route(vec![3, 4]);
    let cands = [cand(&r1, 1, 1, true, 50), cand(&r2, 2, 3, true, 10)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn boundary_router_id_beats_lower_peer_id() {
    // The higher-router-ID candidate has the lower peer ID; router ID
    // is the higher rung.
    let r1 = route(vec![1, 2]);
    let r2 = route(vec![3, 4]);
    let cands = [cand(&r1, 1, 1, true, 50), cand(&r2, 9, 3, true, 10)];
    assert_eq!(best(&cands), Some(1));
}

#[test]
fn lowest_peer_id_is_the_final_rung() {
    let r1 = route(vec![1, 2]);
    let r2 = route(vec![3, 4]);
    let cands = [cand(&r1, 9, 1, true, 5), cand(&r2, 3, 3, true, 5)];
    assert_eq!(best(&cands), Some(1));
}
