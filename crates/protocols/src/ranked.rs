//! Per-node ranked path policies: the decision-process override used by
//! the stability gadget suite (`crates/stability`).
//!
//! Griffin–Shepherd–Wilfong gadgets (BAD-GADGET, DISAGREE, dispute
//! wheels) are defined by each node *ranking* concrete AS-level paths —
//! "I prefer reaching the origin via my clockwise neighbor over my
//! direct link". [`RankedPolicyModule`] expresses exactly that: an
//! ordered list of AS-path sequences, most preferred first. It registers
//! under [`ProtocolId::BGP`], so installing it on a speaker *replaces*
//! the baseline shortest-path decision process for that node only — the
//! same per-node evolvability D-BGP's §3.3 pipeline provides, here bent
//! toward the policies that make BGP stability precarious.
//!
//! Ranking semantics: a candidate whose AS-level path equals the i-th
//! ranked sequence gets rank i; candidates matching no sequence (or
//! whose path vector contains abstracted island elements) rank below all
//! listed paths. Ties — including everything unlisted — fall back to the
//! baseline key, keeping selection a total order so replays stay
//! deterministic.

use dbgp_core::module::{CandidateIa, DecisionModule, Rank};
use dbgp_wire::ia::PathElem;
use dbgp_wire::{Ia, Ipv4Prefix, ProtocolId};

/// Extract the pure AS-number sequence of an IA's path vector. `None`
/// when the path contains island abstractions or AS-sets — gadget
/// policies only rank concrete AS paths.
pub fn as_sequence(ia: &Ia) -> Option<Vec<u32>> {
    ia.path_vector
        .iter()
        .map(|e| match e {
            PathElem::As(a) => Some(*a),
            PathElem::Island(_) | PathElem::AsSet(_) => None,
        })
        .collect()
}

/// A decision module that orders candidates by an explicit path ranking,
/// falling back to baseline BGP order for unlisted paths.
#[derive(Debug, Clone, Default)]
pub struct RankedPolicyModule {
    prefs: Vec<Vec<u32>>,
}

impl RankedPolicyModule {
    /// A module with no rankings: behaves exactly like the baseline.
    pub fn new() -> Self {
        Self::default()
    }

    /// A module ranking `prefs` (most preferred first). Each entry is an
    /// AS-level path as received: first hop first, origin AS last.
    pub fn with_prefs(prefs: Vec<Vec<u32>>) -> Self {
        RankedPolicyModule { prefs }
    }

    /// Append a path at the bottom of the current ranking.
    pub fn prefer(mut self, path: Vec<u32>) -> Self {
        self.prefs.push(path);
        self
    }

    /// The ranked paths, most preferred first.
    pub fn prefs(&self) -> &[Vec<u32>] {
        &self.prefs
    }

    /// Rank of a candidate: index into the preference list, or
    /// `prefs.len()` for unlisted / non-AS paths.
    pub fn rank_of(&self, ia: &Ia) -> usize {
        match as_sequence(ia) {
            Some(seq) => self.prefs.iter().position(|p| *p == seq).unwrap_or(self.prefs.len()),
            None => self.prefs.len(),
        }
    }
}

impl DecisionModule for RankedPolicyModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGP
    }

    // The ranking only reorders selection; outgoing IAs are untouched,
    // so exports stay shareable across the fan-out.
    fn export_is_uniform(&self) -> bool {
        true
    }

    // `accept` is the side-effect-free default, and `prefs` is fixed at
    // construction (the builder consumes `self`), so `rank` reads no
    // mutable state and the constant epoch 0 fences everything there is
    // to fence.
    fn incremental_safe(&self) -> bool {
        true
    }

    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        Rank::lower(self.rank_of(c.ia) as u64, c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::module::explain_best;
    use dbgp_core::neighbor::NeighborId;
    use dbgp_telemetry::SelectionReason;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ia(hops: &[u32]) -> Ia {
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(1, 1, 1, 1));
        for &h in hops.iter().rev() {
            ia.prepend_as(h);
        }
        ia
    }

    #[test]
    fn ranked_path_beats_shorter_unlisted_path() {
        // BAD-GADGET's essence: prefer the longer via-neighbor path.
        let via = ia(&[2, 0]);
        let direct = ia(&[0]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 100, ia: &direct },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 102, ia: &via },
        ];
        let mut m = RankedPolicyModule::new().prefer(vec![2, 0]).prefer(vec![0]);
        assert_eq!(m.select_best(p("128.6.0.0/16"), &cands), Some(1));
        assert_eq!(
            explain_best(&mut m, p("128.6.0.0/16"), &cands, 1),
            SelectionReason::ModulePreference
        );
    }

    #[test]
    fn unlisted_paths_fall_back_to_baseline_order() {
        let a = ia(&[7, 0]);
        let b = ia(&[9, 0]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 107, ia: &a },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 109, ia: &b },
        ];
        let mut m = RankedPolicyModule::new().prefer(vec![3, 0]);
        // Neither is ranked: lowest neighbor AS wins, like the baseline.
        assert_eq!(m.select_best(p("128.6.0.0/16"), &cands), Some(0));
    }

    #[test]
    fn island_abstracted_paths_are_never_ranked() {
        let mut abstracted = ia(&[5, 0]);
        abstracted.declare_membership(dbgp_wire::IslandId(900), 2).unwrap();
        abstracted.abstract_island(dbgp_wire::IslandId(900), 2).unwrap();
        assert_eq!(as_sequence(&abstracted), None);
        let m = RankedPolicyModule::new().prefer(vec![5, 0]);
        assert_eq!(m.rank_of(&abstracted), 1);
    }

    #[test]
    fn empty_ranking_is_baseline() {
        let short = ia(&[1, 0]);
        let long = ia(&[3, 4, 0]);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 103, ia: &long },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 101, ia: &short },
        ];
        assert_eq!(RankedPolicyModule::new().select_best(p("128.6.0.0/16"), &cands), Some(1));
    }
}
