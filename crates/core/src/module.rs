//! Decision modules: the pluggable per-protocol path-selection units of
//! D-BGP's processing pipeline (paper §3.3, Figure 5).
//!
//! Each deployable protocol supplies one implementation of
//! [`DecisionModule`]. The module encapsulates the protocol's RIB and
//! path-selection algorithm, its protocol-specific import/export filters,
//! and (for two-way protocols like Wiser) its out-of-band mailbox.
//! Exactly one module is *active* per address range; the speaker routes
//! extracted control information to it and asks it to pick best paths.

use crate::neighbor::NeighborId;
use dbgp_bgp::decision::{self, Candidate};
use dbgp_telemetry::SelectionReason;
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};

/// One candidate path for a prefix, as presented to a decision module.
#[derive(Debug, Clone, Copy)]
pub struct CandidateIa<'a> {
    /// The neighbor the IA came from.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// The stored incoming IA (post-global-import-filters).
    pub ia: &'a Ia,
}

/// Context handed to a module when an IA is imported.
#[derive(Debug, Clone, Copy)]
pub struct ImportContext<'a> {
    /// The neighbor the IA arrived from.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
    /// The full IA (shared fields + every protocol's descriptors).
    pub ia: &'a Ia,
}

/// Context handed to a module when the factory builds the outgoing IA
/// for a selected best path.
#[derive(Debug, Clone, Copy)]
pub struct ExportContext {
    /// The neighbor the new IA will be sent to.
    pub neighbor: NeighborId,
    /// That neighbor's AS number.
    pub neighbor_as: u32,
    /// Our own AS number.
    pub local_as: u32,
    /// The destination prefix.
    pub prefix: Ipv4Prefix,
}

/// A candidate's place in a module's preference order; the lowest rank
/// wins. The rungs are private and compared in declaration order, so
/// every rank a module can build is a point in one total order whose
/// last rung — the neighbor id — separates any two candidates of one
/// speaker: a selection is always *the* minimum, never one of several.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Rank {
    measure: u64,
    hops: usize,
    neighbor_as: u32,
    neighbor: u32,
}

// The constructors are `#[inline]` because a module's `rank` calls one
// per candidate, usually from another crate or codegen unit, where a
// non-generic function is otherwise a real call returning the struct
// through memory (BGP selection over eight candidates: 15 ns inlined,
// 24 ns not).
impl Rank {
    /// The baseline order: shortest path vector, then lowest neighbor
    /// AS, then lowest neighbor id.
    #[inline]
    pub fn baseline(c: &CandidateIa<'_>) -> Self {
        Rank::lower(0, c)
    }

    /// Prefer the lower `measure` (a cost, a list position); ties fall
    /// to the baseline order.
    #[inline]
    pub fn lower(measure: u64, c: &CandidateIa<'_>) -> Self {
        Rank { measure, hops: c.ia.hop_count(), neighbor_as: c.neighbor_as, neighbor: c.neighbor.0 }
    }

    /// Prefer the higher `measure` (a bandwidth, a path count); ties
    /// fall to shortest path, lowest neighbor AS, then the *highest*
    /// neighbor id.
    #[inline]
    pub fn higher(measure: u64, c: &CandidateIa<'_>) -> Self {
        Rank { measure: u64::MAX - measure, neighbor: u32::MAX - c.neighbor.0, ..Rank::baseline(c) }
    }

    /// The first rung on which `self` and `other` differ, as the reason
    /// the better of the two won.
    fn decided_by(self, other: Rank) -> SelectionReason {
        if self.measure != other.measure {
            SelectionReason::ModulePreference
        } else if self.hops != other.hops {
            SelectionReason::ShortestPath
        } else if self.neighbor_as != other.neighbor_as {
            SelectionReason::NeighborAs
        } else {
            SelectionReason::NeighborId
        }
    }
}

/// A protocol's decision module.
///
/// Implementations live in `dbgp-protocols`; `dbgp-core` ships only the
/// baseline [`BgpDecision`] and RFC 4271's order, [`ClassicBgp`]. The
/// paper's observation that deploying a new protocol takes a few
/// hundred lines (§6.1) corresponds to implementing this trait. A
/// protocol author writes [`protocol`](Self::protocol);
/// [`rank`](Self::rank) when the protocol prefers paths by a measure of
/// its own; the [`accept`](Self::accept) import filter and the
/// [`export`](Self::export) / [`decorate_origin`](Self::decorate_origin)
/// export filters for the descriptors it carries. Selection, its
/// explanation and the speaker's incremental comparison are all derived
/// from `rank`, unless it overrides `select_best` and `explain`
/// ([`ClassicBgp`]).
pub trait DecisionModule {
    /// The protocol this module decides for.
    fn protocol(&self) -> ProtocolId;

    /// Protocol-specific import filter, consulted at selection time for
    /// each candidate. Returning `false` excludes the IA from this
    /// protocol's decision process (it is still stored and passed
    /// through). The default accepts everything.
    fn accept(&mut self, _ctx: ImportContext<'_>) -> bool {
        true
    }

    /// Where `candidate` stands in this module's preference order for
    /// `prefix` — the one statement of that order. The default is the
    /// baseline's.
    fn rank(&mut self, _prefix: Ipv4Prefix, candidate: &CandidateIa<'_>) -> Rank {
        Rank::baseline(candidate)
    }

    /// Select the best path among candidates for one prefix. `None`
    /// declares the prefix unreachable. Candidates are presented in
    /// deterministic (neighbor-id) order. The provided body is
    /// [`best_by_rank`]. Override it to add bookkeeping around that call
    /// (Wiser's chosen source, R-BGP's failover path), or for an order
    /// that is not a [`Rank`] — [`ClassicBgp`]'s MED rung is not
    /// transitive — with [`explain`](Self::explain) overridden beside
    /// it.
    fn select_best(&mut self, prefix: Ipv4Prefix, candidates: &[CandidateIa<'_>]) -> Option<usize> {
        best_by_rank(self, prefix, candidates)
    }

    /// Why `best` — the index [`select_best`](Self::select_best)
    /// returned for the same candidates — won. The provided body is
    /// [`explain_best`], which reads [`rank`](Self::rank).
    fn explain(
        &mut self,
        prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
        best: usize,
    ) -> SelectionReason {
        explain_best(self, prefix, candidates, best)
    }

    /// Protocol-specific export filter: update this protocol's own
    /// descriptors on the outgoing IA (e.g., Wiser adds its internal cost
    /// to the path cost; BGPSec appends an attestation). Descriptors of
    /// other protocols have already been copied over by the factory and
    /// must not be touched.
    fn export(&mut self, _ia: &mut Ia, _ctx: ExportContext) {}

    /// True when this module's [`export`](Self::export) is a pure
    /// function of the outgoing IA — it neither varies by destination
    /// neighbor nor consults mutable module state. A speaker whose
    /// resident modules are all uniform builds one outgoing IA per
    /// (island-membership, capability) neighbor class and shares it
    /// across the fan-out instead of re-running the factory per
    /// neighbor. Default is the conservative `false`; modules that
    /// stamp per-neighbor data (BGPSec attestations) or live state
    /// (Wiser costs, R-BGP failover paths) must keep it that way.
    fn export_is_uniform(&self) -> bool {
        false
    }

    /// True when the speaker may maintain this module's best path
    /// *incrementally*: a new candidate that ranks strictly worse than
    /// the installed best is stored without re-running
    /// [`select_best`](Self::select_best), and a withdrawal of a
    /// non-best candidate skips the re-scan outright. That the winner is
    /// the minimum of a total order holds by [`Rank`]'s type; declaring
    /// `true` asserts what the type cannot:
    ///
    /// 1. [`accept`](Self::accept) is **idempotent**: the full scan
    ///    re-consults it for every stored candidate on every redecide,
    ///    while the fast path consults it only for the new arrival.
    /// 2. Every piece of module state [`rank`](Self::rank) depends on is
    ///    fenced by [`selection_epoch`](Self::selection_epoch): whenever
    ///    such state changes, the epoch changes, which forces the next
    ///    decision for every prefix back through the full scan.
    /// 3. `select_best` is not overridden, or overridden only to add
    ///    bookkeeping around [`best_by_rank`] that a skipped scan (same
    ///    winner as before) does not need repeated.
    ///
    /// The conservative default is `false` (always full-scan).
    fn incremental_safe(&self) -> bool {
        false
    }

    /// A counter that changes whenever module state consulted by
    /// [`rank`](Self::rank) changes (Wiser's scale recalibration, HLP's
    /// LSDB updates). The speaker records the epoch at each full scan and
    /// refuses the incremental fast path when the current epoch differs
    /// — a drifted key could make the full scan pick a different winner
    /// among the *already stored* candidates, which the fast path can
    /// never see. Stateless-key modules keep the default constant `0`.
    fn selection_epoch(&self) -> u64 {
        0
    }

    /// Deliver an out-of-band message (e.g., Wiser's cost exchange,
    /// MIRO's negotiation) addressed to this module. Default: ignored.
    fn deliver_oob(&mut self, _from: u32, _payload: &[u8]) {}

    /// Called when a prefix is originated locally so the module can
    /// attach its descriptors to the very first IA.
    fn decorate_origin(&mut self, _ia: &mut Ia, _local_as: u32) {}
}

/// The index of the candidate with the lowest [`rank`](DecisionModule::rank)
/// — the selection every module shares. Each candidate is ranked once.
pub fn best_by_rank<M: DecisionModule + ?Sized>(
    module: &mut M,
    prefix: Ipv4Prefix,
    candidates: &[CandidateIa<'_>],
) -> Option<usize> {
    // A loop, not `.min()` over `(rank, index)` pairs: carrying the index
    // through the comparison as a fifth rung doubled the baseline's cost.
    let mut best: Option<(usize, Rank)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let rank = module.rank(prefix, c);
        if best.is_none_or(|(_, lowest)| rank < lowest) {
            best = Some((i, rank));
        }
    }
    best.map(|(i, _)| i)
}

/// Explain why `best` (an index returned by
/// [`select_best`](DecisionModule::select_best) over the same candidate
/// slice) won: the first rung of its [`Rank`] that separates it from the
/// best of the rest. A lone candidate is not ranked at all.
pub fn explain_best<M: DecisionModule + ?Sized>(
    module: &mut M,
    prefix: Ipv4Prefix,
    candidates: &[CandidateIa<'_>],
    best: usize,
) -> SelectionReason {
    let others = candidates.iter().enumerate().filter(|(i, _)| *i != best);
    match others.map(|(_, c)| module.rank(prefix, c)).min() {
        Some(runner_up) => module.rank(prefix, &candidates[best]).decided_by(runner_up),
        None => SelectionReason::OnlyCandidate,
    }
}

/// The baseline decision module: BGP's path selection reduced to its
/// policy-free core (shortest path vector, then lowest neighbor AS),
/// exactly the reduction the paper's simulator uses (§6.3).
#[derive(Debug, Default, Clone)]
pub struct BgpDecision;

impl BgpDecision {
    /// Create the baseline module.
    pub fn new() -> Self {
        BgpDecision
    }
}

impl DecisionModule for BgpDecision {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGP
    }

    // The baseline never touches outgoing IAs, so its export is trivially
    // neighbor- and state-independent.
    fn export_is_uniform(&self) -> bool {
        true
    }

    // `accept` is the side-effect-free default and the baseline rank
    // reads no module state, so there is nothing for an epoch to fence.
    fn incremental_safe(&self) -> bool {
        true
    }
}

/// RFC 4271's decision process as a decision module, over candidate
/// IAs: LOCAL_PREF and MED from the IA's BGP block (100 and 0 when
/// absent), the MED rung grouped by the neighbor's AS. D-BGP neighbors
/// are eBGP and carry no router id, so the neighbor id breaks what ties.
/// The MED rung is intransitive, so the order is no [`Rank`], and the
/// module keeps [`incremental_safe`](DecisionModule::incremental_safe)
/// `false`: every decision is a full scan. Its protocol is
/// [`ProtocolId::BGP`]; registering it replaces [`BgpDecision`].
#[derive(Debug, Default, Clone)]
pub struct ClassicBgp {
    /// The comparator's input, reused from call to call.
    scratch: Vec<Candidate>,
}

impl ClassicBgp {
    /// Create the module.
    pub fn new() -> Self {
        ClassicBgp::default()
    }

    /// The comparator's view of `candidates`, in the same order.
    fn load(&mut self, candidates: &[CandidateIa<'_>]) -> &[Candidate] {
        self.scratch.clear();
        self.scratch.extend(candidates.iter().map(|c| {
            let bgp = c.ia.bgp.as_deref();
            Candidate {
                local: false,
                local_pref: bgp.and_then(|b| b.local_pref).unwrap_or(decision::DEFAULT_LOCAL_PREF),
                hops: c.ia.hop_count(),
                origin: c.ia.origin,
                med: bgp.and_then(|b| b.med).unwrap_or(0),
                neighbor_as: c.neighbor_as,
                ebgp: true,
                router_id: Ipv4Addr(0),
                peer: c.neighbor.0,
            }
        }));
        &self.scratch
    }
}

impl DecisionModule for ClassicBgp {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGP
    }

    fn select_best(
        &mut self,
        _prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
    ) -> Option<usize> {
        decision::best(self.load(candidates))
    }

    fn explain(
        &mut self,
        _prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
        best: usize,
    ) -> SelectionReason {
        decision::explain(self.load(candidates), best)
    }

    // Like the baseline, it never touches outgoing IAs.
    fn export_is_uniform(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ia(hops: &[u32]) -> Ia {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for &h in hops.iter().rev() {
            ia.prepend_as(h);
        }
        ia
    }

    #[test]
    fn bgp_module_prefers_shortest_path() {
        let short = ia(&[1, 2]);
        let long = ia(&[3, 4, 5]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 3, ia: &long },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 1, ia: &short },
        ];
        assert_eq!(BgpDecision::new().select_best(p("10.0.0.0/8"), &cands), Some(1));
    }

    #[test]
    fn bgp_module_ties_on_lowest_neighbor_as() {
        let a = ia(&[1, 2]);
        let b = ia(&[3, 4]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 9, ia: &a },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 4, ia: &b },
        ];
        assert_eq!(BgpDecision::new().select_best(p("10.0.0.0/8"), &cands), Some(1));
    }

    #[test]
    fn bgp_module_empty_is_none() {
        assert_eq!(BgpDecision::new().select_best(p("10.0.0.0/8"), &[]), None);
    }
}
