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
//!
//! A [`Candidate`] is the plain values those rungs read, with nothing
//! borrowed, so every core runs this one comparator: `RoutingCore`
//! builds one per stored route, and `dbgp-core`'s `ClassicBgp` decision
//! module one per candidate IA.

use dbgp_telemetry::SelectionReason;
use dbgp_wire::attrs::Origin;
use dbgp_wire::Ipv4Addr;
use std::cmp::Ordering;

/// LOCAL_PREF assumed when the attribute is absent.
pub const DEFAULT_LOCAL_PREF: u32 = 100;

/// One contender in the decision process: what each rung reads.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Locally originated: beats every learned route.
    pub local: bool,
    /// LOCAL_PREF, [`DEFAULT_LOCAL_PREF`] when absent (rung 1).
    pub local_pref: u32,
    /// AS_PATH length, an AS_SET counting one (rung 2).
    pub hops: usize,
    /// ORIGIN (rung 3).
    pub origin: Origin,
    /// MULTI_EXIT_DISC, 0 when absent (rung 4).
    pub med: u32,
    /// The neighbouring AS the route came through: rung 4 compares MED
    /// only between candidates that share it.
    pub neighbor_as: u32,
    /// Learned over eBGP (rung 5).
    pub ebgp: bool,
    /// The sending peer's BGP identifier (rung 6).
    pub router_id: Ipv4Addr,
    /// The sending peer's id, standing in for its address (rung 7).
    pub peer: u32,
}

impl Candidate {
    /// The locally originated route.
    pub const LOCAL: Candidate = Candidate {
        local: true,
        local_pref: DEFAULT_LOCAL_PREF,
        hops: 0,
        origin: Origin::Igp,
        med: 0,
        neighbor_as: 0,
        ebgp: false,
        router_id: Ipv4Addr(0),
        peer: 0,
    };
}

/// Compare two candidates and report the decisive tie-break step.
/// `Ordering::Greater` means `a` is preferred.
pub fn compare_explain(a: &Candidate, b: &Candidate) -> (Ordering, SelectionReason) {
    // Same neighbouring AS only.
    let med = if a.neighbor_as == b.neighbor_as { b.med.cmp(&a.med) } else { Ordering::Equal };
    [
        (a.local.cmp(&b.local), SelectionReason::LocalOrigin),
        (a.local_pref.cmp(&b.local_pref), SelectionReason::LocalPref),
        (b.hops.cmp(&a.hops), SelectionReason::ShortestPath),
        (b.origin.cmp(&a.origin), SelectionReason::Origin),
        (med, SelectionReason::Med),
        (a.ebgp.cmp(&b.ebgp), SelectionReason::EbgpOverIbgp),
        (b.router_id.cmp(&a.router_id), SelectionReason::RouterId),
    ]
    .into_iter()
    .find(|(ord, _)| ord.is_ne())
    .unwrap_or((b.peer.cmp(&a.peer), SelectionReason::NeighborId))
}

/// Pick the index of the best candidate, or `None` if the slice is empty.
///
/// [`compare_explain`] is not transitive (the MED rung applies only
/// within one neighbouring AS), so a left-to-right scan would let
/// candidate order pick the winner. RFC 4271 §9.1.2.2(c) removes a route
/// only against one from the same neighbouring AS, so the choice is made
/// in two steps, each over a transitive comparison: the best within
/// each neighbour-AS group (every rung), then the best of the group
/// winners (MED never applies between them).
pub fn best(candidates: &[Candidate]) -> Option<usize> {
    best_except(candidates, None)
}

/// Why `winner` — the index [`best`] returned for the same slice — won:
/// the tie-break step that separates it from the runner-up, the route
/// the same procedure picks once the winner is gone.
pub fn explain(candidates: &[Candidate], winner: usize) -> SelectionReason {
    match best_except(candidates, Some(winner)) {
        Some(runner) => compare_explain(&candidates[winner], &candidates[runner]).1,
        None => SelectionReason::OnlyCandidate,
    }
}

/// [`best`] over every candidate but `skip`.
fn best_except(candidates: &[Candidate], skip: Option<usize>) -> Option<usize> {
    let live = || (0..candidates.len()).filter(move |&i| Some(i) != skip);
    let beats = |i: usize, j: usize| compare_explain(&candidates[i], &candidates[j]).0.is_gt();
    let leads_group = |i: usize| {
        let asn = candidates[i].neighbor_as;
        live().all(|j| candidates[j].neighbor_as != asn || !beats(j, i))
    };
    live().filter(|&i| leads_group(i)).reduce(|best, i| if beats(i, best) { i } else { best })
}
