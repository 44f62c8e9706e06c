//! The BGP decision process (RFC 4271 §9.1.2.2): rank candidate routes
//! for one prefix and pick the best.
//!
//! Order of comparison:
//!
//! 1. highest LOCAL_PREF (default 100 when absent);
//! 2. shortest AS_PATH (AS_SET counts one);
//! 3. lowest ORIGIN (IGP < EGP < INCOMPLETE);
//! 4. lowest MED, compared only between routes from the same
//!    neighbouring AS (absent MED treated as 0, i.e. best);
//! 5. eBGP-learned over iBGP-learned;
//! 6. lowest peer BGP identifier;
//! 7. lowest peer ID (stands in for "lowest peer address").
//!
//! This is exactly the tie-break chain Quagga runs, minus IGP-metric
//! comparison (we have no IGP) — which is also what the paper's
//! simulator reduces BGP to: "shortest path length, below local
//! preference" (§6.3).

use crate::rib::RouteSource;
use crate::route::Route;
use dbgp_telemetry::SelectionReason;
use dbgp_wire::Ipv4Addr;
use std::cmp::Ordering;

/// One contender in the decision process.
#[derive(Debug, Clone)]
pub struct Candidate<'a> {
    /// The route under consideration.
    pub route: &'a Route,
    /// Where it came from.
    pub source: RouteSource,
    /// AS of the peer that sent it (0 for local routes).
    pub peer_as: u32,
    /// True if learned over eBGP.
    pub ebgp: bool,
    /// The sending peer's BGP identifier (tiebreaker #6).
    pub peer_router_id: Ipv4Addr,
}

impl<'a> Candidate<'a> {
    /// A candidate for a locally originated route: always preferred over
    /// anything learned (modeled as maximal LOCAL_PREF handled by
    /// `better`, plus zero path length which it naturally has).
    pub fn local(route: &'a Route) -> Self {
        Candidate {
            route,
            source: RouteSource::Local,
            peer_as: 0,
            ebgp: false,
            peer_router_id: Ipv4Addr(0),
        }
    }
}

/// Compare two candidates and report the decisive tie-break step.
/// `Ordering::Greater` means `a` is preferred.
pub fn compare_explain(a: &Candidate<'_>, b: &Candidate<'_>) -> (Ordering, SelectionReason) {
    // Locally originated routes beat everything.
    let a_local = matches!(a.source, RouteSource::Local);
    let b_local = matches!(b.source, RouteSource::Local);
    if a_local != b_local {
        let ord = if a_local { Ordering::Greater } else { Ordering::Less };
        return (ord, SelectionReason::LocalOrigin);
    }

    // 1. Highest LOCAL_PREF.
    let lp = a.route.effective_local_pref().cmp(&b.route.effective_local_pref());
    if lp != Ordering::Equal {
        return (lp, SelectionReason::LocalPref);
    }
    // 2. Shortest AS path.
    let len = b.route.as_path.hop_count().cmp(&a.route.as_path.hop_count());
    if len != Ordering::Equal {
        return (len, SelectionReason::ShortestPath);
    }
    // 3. Lowest origin.
    let origin = (b.route.origin as u8).cmp(&(a.route.origin as u8));
    if origin != Ordering::Equal {
        return (origin, SelectionReason::Origin);
    }
    // 4. Lowest MED — same neighbouring AS only.
    if a.peer_as == b.peer_as {
        let med = b.route.bgp.med.unwrap_or(0).cmp(&a.route.bgp.med.unwrap_or(0));
        if med != Ordering::Equal {
            return (med, SelectionReason::Med);
        }
    }
    // 5. eBGP over iBGP.
    if a.ebgp != b.ebgp {
        let ord = if a.ebgp { Ordering::Greater } else { Ordering::Less };
        return (ord, SelectionReason::EbgpOverIbgp);
    }
    // 6. Lowest peer router ID.
    let rid = b.peer_router_id.cmp(&a.peer_router_id);
    if rid != Ordering::Equal {
        return (rid, SelectionReason::RouterId);
    }
    // 7. Lowest peer ID.
    let ord = match (a.source, b.source) {
        (RouteSource::Peer(pa), RouteSource::Peer(pb)) => pb.cmp(&pa),
        _ => Ordering::Equal,
    };
    (ord, SelectionReason::NeighborId)
}

/// Compare two candidates; `Ordering::Greater` means `a` is preferred.
pub fn compare(a: &Candidate<'_>, b: &Candidate<'_>) -> Ordering {
    compare_explain(a, b).0
}

/// Pick the index of the best candidate, or `None` if the slice is empty.
///
/// [`compare`] is not transitive (the MED rung applies only within one
/// neighbouring AS), so a left-to-right scan would let candidate order
/// pick the winner. RFC 4271 §9.1.2.2(c) removes a route only against
/// one from the same neighbouring AS, so the choice is made in two
/// steps, each over a transitive comparison: the best within each
/// neighbour-AS group (every rung), then the best of the group winners
/// (MED never applies between them).
pub fn best(candidates: &[Candidate<'_>]) -> Option<usize> {
    best_except(candidates, None)
}

/// Why `winner` — the index [`best`] returned for the same slice — won:
/// the tie-break step that separates it from the runner-up, the route
/// the same procedure picks once the winner is gone.
pub fn explain(candidates: &[Candidate<'_>], winner: usize) -> SelectionReason {
    match best_except(candidates, Some(winner)) {
        Some(runner) => compare_explain(&candidates[winner], &candidates[runner]).1,
        None => SelectionReason::OnlyCandidate,
    }
}

/// [`best`] over every candidate but `skip`.
fn best_except(candidates: &[Candidate<'_>], skip: Option<usize>) -> Option<usize> {
    let live = || (0..candidates.len()).filter(move |&i| Some(i) != skip);
    let beats = |i: usize, j: usize| compare(&candidates[i], &candidates[j]) == Ordering::Greater;
    let leads_group = |i: usize| {
        let peer_as = candidates[i].peer_as;
        live().all(|j| candidates[j].peer_as != peer_as || !beats(j, i))
    };
    live().filter(|&i| leads_group(i)).reduce(|best, i| if beats(i, best) { i } else { best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PeerId;
    use dbgp_wire::attrs::{AsPath, Origin};

    fn route(path: Vec<u32>) -> Route {
        let mut r = Route::originated(Ipv4Addr::new(10, 0, 0, 1));
        r.as_path = AsPath::from_sequence(path);
        r
    }

    fn best_explain(candidates: &[Candidate<'_>]) -> Option<(usize, SelectionReason)> {
        best(candidates).map(|winner| (winner, explain(candidates, winner)))
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

    #[test]
    fn local_pref_dominates_path_length() {
        let mut long = route(vec![1, 2, 3, 4]);
        long.bgp.local_pref = Some(200);
        let short = route(vec![1]);
        let cands = [cand(&short, 1, 1, true, 1), cand(&long, 2, 2, true, 2)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn shorter_path_wins_at_equal_pref() {
        let short = route(vec![1, 2]);
        let long = route(vec![3, 4, 5]);
        let cands = [cand(&long, 1, 3, true, 1), cand(&short, 2, 1, true, 2)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn lower_origin_wins() {
        let mut igp = route(vec![1, 2]);
        igp.origin = Origin::Igp;
        let mut incomplete = route(vec![3, 4]);
        incomplete.origin = Origin::Incomplete;
        let cands = [cand(&incomplete, 1, 3, true, 1), cand(&igp, 2, 1, true, 2)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn med_compared_only_within_same_neighbor_as() {
        let mut cheap = route(vec![7, 9]);
        cheap.bgp.med = Some(10);
        let mut costly = route(vec![7, 8]);
        costly.bgp.med = Some(99);
        // Same neighbouring AS 7: lower MED wins.
        let cands = [cand(&costly, 1, 7, true, 1), cand(&cheap, 2, 7, true, 2)];
        assert_eq!(best(&cands), Some(1));
        // Different neighbouring ASes: MED skipped, falls to router-id.
        let cands = [cand(&costly, 1, 7, true, 1), cand(&cheap, 2, 6, true, 2)];
        assert_eq!(best(&cands), Some(0), "rid 1 < rid 2 decides");
    }

    #[test]
    fn missing_med_treated_as_zero() {
        let mut with_med = route(vec![7, 8]);
        with_med.bgp.med = Some(1);
        let without = route(vec![7, 9]);
        let cands = [cand(&with_med, 1, 7, true, 1), cand(&without, 2, 7, true, 2)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn ebgp_beats_ibgp() {
        let r1 = route(vec![1, 2]);
        let r2 = route(vec![3, 4]);
        let cands = [cand(&r1, 1, 1, false, 1), cand(&r2, 2, 3, true, 2)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn router_id_breaks_ties() {
        let r1 = route(vec![1, 2]);
        let r2 = route(vec![3, 4]);
        let cands = [cand(&r1, 1, 1, true, 50), cand(&r2, 2, 3, true, 10)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn peer_id_is_final_tiebreak() {
        let r1 = route(vec![1, 2]);
        let r2 = route(vec![3, 4]);
        let cands = [cand(&r1, 9, 1, true, 5), cand(&r2, 3, 3, true, 5)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn local_routes_beat_learned() {
        let learned = route(vec![]);
        let local = route(vec![]);
        let cands = [cand(&learned, 1, 1, true, 1), Candidate::local(&local)];
        assert_eq!(best(&cands), Some(1));
    }

    #[test]
    fn empty_candidates_give_none() {
        assert_eq!(best(&[]), None);
    }

    #[test]
    fn explain_reports_the_decisive_step() {
        let short = route(vec![1, 2]);
        let long = route(vec![3, 4, 5]);
        let cands = [cand(&long, 1, 3, true, 1), cand(&short, 2, 1, true, 2)];
        assert_eq!(best_explain(&cands), Some((1, SelectionReason::ShortestPath)));

        let mut pref = route(vec![1, 2, 3]);
        pref.bgp.local_pref = Some(200);
        let plain = route(vec![4]);
        let cands = [cand(&plain, 1, 4, true, 1), cand(&pref, 2, 1, true, 2)];
        assert_eq!(best_explain(&cands), Some((1, SelectionReason::LocalPref)));

        let r1 = route(vec![1, 2]);
        let r2 = route(vec![3, 4]);
        let cands = [cand(&r1, 1, 1, true, 50), cand(&r2, 2, 3, true, 10)];
        assert_eq!(best_explain(&cands), Some((1, SelectionReason::RouterId)));

        let only = route(vec![1]);
        let cands = [cand(&only, 1, 1, true, 1)];
        assert_eq!(best_explain(&cands), Some((0, SelectionReason::OnlyCandidate)));

        let local = route(vec![]);
        let learned = route(vec![9]);
        let cands = [cand(&learned, 1, 9, true, 1), Candidate::local(&local)];
        assert_eq!(best_explain(&cands), Some((1, SelectionReason::LocalOrigin)));

        assert_eq!(best_explain(&[]), None);
    }

    #[test]
    fn explain_picks_runner_up_among_many() {
        // Winner: 2 hops. Others: 3 and 4 hops. The decisive comparison is
        // against the 3-hop runner-up, not the 4-hop also-ran.
        let w = route(vec![1, 2]);
        let r3 = route(vec![3, 4, 5]);
        let r4 = route(vec![6, 7, 8, 9]);
        let cands = [cand(&r4, 1, 6, true, 1), cand(&w, 2, 1, true, 2), cand(&r3, 3, 3, true, 3)];
        assert_eq!(best_explain(&cands), Some((1, SelectionReason::ShortestPath)));
    }

    #[test]
    fn med_default_is_intransitive() {
        // The textbook MED cycle: a beats b (different AS, router-id),
        // b beats c (different AS, router-id), c beats a (same AS,
        // lower MED). This is why `RoutingCore` has no incremental fast
        // path and re-scans every candidate on every change: "strictly
        // worse than the incumbent" does not imply "cannot win a full
        // scan" in a cyclic preference, and pruning on it is only sound
        // over a total order (Daggitt & Griffin, arXiv 2106.01184).
        let mut ra = route(vec![1, 2]);
        ra.bgp.med = Some(50);
        let mut rb = route(vec![3, 4]);
        rb.bgp.med = Some(10);
        let mut rc = route(vec![5, 6]);
        rc.bgp.med = Some(10);
        let a = cand(&ra, 1, 7, true, 1);
        let b = cand(&rb, 2, 8, true, 2);
        let c = cand(&rc, 3, 7, true, 3);
        assert_eq!(compare(&a, &b), Ordering::Greater);
        assert_eq!(compare(&b, &c), Ordering::Greater);
        assert_eq!(compare(&c, &a), Ordering::Greater, "cycle closes");
    }

    #[test]
    fn comparison_is_antisymmetric() {
        let r1 = route(vec![1, 2]);
        let r2 = route(vec![3, 4, 5]);
        let a = cand(&r1, 1, 1, true, 1);
        let b = cand(&r2, 2, 3, true, 2);
        assert_eq!(compare(&a, &b), Ordering::Greater);
        assert_eq!(compare(&b, &a), Ordering::Less);
    }
}
