//! Global import/export filters (paper §3.3, Figure 5 steps 1 and 7).
//!
//! These run on whole IAs, across all protocols: loop detection over the
//! shared path vector, the gulf operator's protocol blacklist, island
//! membership declaration / abstraction at egress, and the
//! baseline-only export mode used for the §6.3 "BGP baseline"
//! comparison.

use dbgp_wire::{Ia, IslandId, ProtocolId, WireError};
use std::borrow::Borrow;
use std::sync::Arc;

/// Why the global import filter rejected an IA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The path vector already contains our AS number.
    AsLoop,
    /// The path vector re-enters our island after having left it (loop
    /// detection at island granularity, §3.2).
    IslandLoop,
}

/// Operator-configurable filter settings shared by import and export.
#[derive(Debug, Clone, Default)]
pub struct FilterConfig {
    /// Protocols whose control information this AS removes from IAs it
    /// forwards (the "known to be problematic" knob of §2.2).
    pub strip_protocols: Vec<ProtocolId>,
    /// When set, exports carry only baseline (BGP) control information —
    /// the behaviour of an Internet whose baseline is plain BGP, used as
    /// the comparison case in §6.3.
    pub baseline_only_export: bool,
    /// Gao-Rexford valley-free export policy: a route learned from a
    /// provider or lateral peer is exported only to customers. Only
    /// adjacencies annotated with a [`crate::PeerClass`] participate;
    /// unannotated ones export freely, so the default stays BGP's
    /// policy-free behaviour.
    pub valley_free: bool,
}

/// How this AS participates in an island, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IslandConfig {
    /// The island's ID.
    pub id: IslandId,
    /// If true, the egress filter replaces the island's member entries
    /// with the bare island ID when exporting outside the island
    /// (trading path diversity for abstraction, §3.2). If false, member
    /// AS numbers stay listed and the island is only *declared* via the
    /// membership field.
    pub abstraction: bool,
}

/// Global import filter: loop detection, the protocol blacklist, and
/// the BGP attributes' import rule (every D-BGP neighbor is another AS,
/// so a LOCAL_PREF it sends is ignored).
///
/// Returns `Err` if the IA must be discarded, and otherwise the `Arc` to
/// store: a shared IA (one decoded frame, many neighbors) as the same
/// allocation, an owned one moved into a new `Arc` after the loop check,
/// so a rejected one allocates nothing. The blacklist and the
/// LOCAL_PREF rule change the IA through [`Arc::make_mut`], and only
/// when there is something to change, so they copy a shared IA first
/// and the other receivers' copy stays whole.
pub fn global_import(
    cfg: &FilterConfig,
    local_as: u32,
    island: Option<IslandConfig>,
    ia: impl Borrow<Ia> + Into<Arc<Ia>>,
) -> Result<Arc<Ia>, RejectReason> {
    let view: &Ia = ia.borrow();
    if view.contains_as(local_as) {
        return Err(RejectReason::AsLoop);
    }
    if let Some(island) = island {
        // Re-entry check: our island appearing anywhere is fine as long
        // as the IA is arriving from a fellow member (front entry still
        // inside the island); a gulf entry in front means the path left
        // the island and is trying to come back.
        if view.contains_island(island.id) && view.island_of(0) != Some(island.id) {
            return Err(RejectReason::IslandLoop);
        }
    }
    let has_local_pref = view.bgp.as_ref().is_some_and(|b| b.local_pref.is_some());
    let mut ia = ia.into();
    if !cfg.strip_protocols.is_empty() {
        Arc::make_mut(&mut ia).strip_protocols(&cfg.strip_protocols);
    }
    if has_local_pref {
        Arc::make_mut(&mut ia).edit_bgp(|b| b.import(true));
    }
    Ok(ia)
}

/// Mark the frontmost path-vector entry (our own AS, just prepended) as a
/// member of our island, merging with an adjacent membership run left by
/// the previous intra-island hop.
pub fn declare_own_membership(ia: &mut Ia, island: IslandId) -> Result<(), WireError> {
    // After prepend_as, an upstream member's run starts at index 1.
    let upstream = ia.memberships().iter().position(|m| m.island == island && m.start == 1);
    if let Some(i) = upstream {
        ia.with_records(|r| r.memberships[i].start = 0);
        return Ok(());
    }
    ia.declare_membership(island, 1)
}

/// Global export filter: island abstraction, the protocol blacklist, and
/// baseline-only stripping.
///
/// `leaving_island` is true when the receiving neighbor is *not* a member
/// of our island (i.e., we are an egress border for this advertisement).
pub fn global_export(
    cfg: &FilterConfig,
    island: Option<IslandConfig>,
    leaving_island: bool,
    ia: &mut Ia,
) -> Result<(), WireError> {
    if let Some(island) = island {
        if island.abstraction && leaving_island {
            // Replace the front run of our island's member entries with
            // the single island ID.
            let run = ia
                .memberships()
                .iter()
                .filter(|m| m.island == island.id && m.start == 0)
                .map(|m| m.end)
                .max()
                .unwrap_or(0);
            if run > 0 {
                ia.with_records(|r| {
                    r.memberships.retain(|m| !(m.island == island.id && m.start == 0))
                });
                ia.abstract_island(island.id, run)?;
            }
        }
    }
    if cfg.baseline_only_export {
        ia.retain_protocols(&[ProtocolId::BGP]);
    } else if !cfg.strip_protocols.is_empty() {
        ia.strip_protocols(&cfg.strip_protocols);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::ia::dkey;
    use dbgp_wire::{Ipv4Addr, Ipv4Prefix, PathElem};

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
    fn as_loop_rejected() {
        let adv = ia(&[5, 6, 7]);
        assert_eq!(
            global_import(&FilterConfig::default(), 6, None, adv.clone()),
            Err(RejectReason::AsLoop)
        );
        assert_eq!(global_import(&FilterConfig::default(), 9, None, adv.clone()), Ok(adv.into()));
    }

    #[test]
    fn island_reentry_rejected_but_intra_island_forwarding_allowed() {
        let island = IslandConfig { id: IslandId(500), abstraction: false };
        // Case 1: IA arriving from a fellow member — front entry belongs
        // to the island. Must be allowed.
        let mut adv = ia(&[5, 6]);
        adv.declare_membership(IslandId(500), 1).unwrap();
        assert!(global_import(&FilterConfig::default(), 9, Some(island), adv).is_ok());
        // Case 2: the path left the island (gulf AS in front) and is
        // trying to re-enter. Must be rejected.
        let mut adv = ia(&[5, 6]);
        adv.declare_membership(IslandId(500), 1).unwrap();
        adv.prepend_as(4000); // gulf hop in front
        assert_eq!(
            global_import(&FilterConfig::default(), 9, Some(island), adv),
            Err(RejectReason::IslandLoop)
        );
        // Case 3: abstracted island element re-entering via a gulf.
        let mut adv = ia(&[7]);
        adv.path_vector.push(PathElem::Island(IslandId(500)));
        assert_eq!(
            global_import(&FilterConfig::default(), 9, Some(island), adv),
            Err(RejectReason::IslandLoop)
        );
    }

    #[test]
    fn strip_filter_removes_blacklisted_protocol() {
        let cfg = FilterConfig {
            strip_protocols: vec![dbgp_wire::ProtocolId::WISER],
            baseline_only_export: false,
            valley_free: false,
        };
        let mut adv = ia(&[5]);
        adv.set_path_descriptor(dbgp_wire::ProtocolId::WISER, dkey::WISER_PATH_COST, vec![0, 1]);
        adv.set_path_descriptor(dbgp_wire::ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION, vec![2]);
        let adv = global_import(&cfg, 9, None, adv).expect("no loop");
        assert!(adv.path_descriptor(dbgp_wire::ProtocolId::WISER, dkey::WISER_PATH_COST).is_none());
        assert!(adv
            .path_descriptor(dbgp_wire::ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION)
            .is_some());
    }

    #[test]
    fn membership_declaration_merges_runs() {
        let island = IslandId(500);
        // First member AS (6) originates... actually: AS 6 prepends and
        // declares, AS 5 prepends and declares; the run must grow.
        let mut adv = ia(&[]);
        adv.prepend_as(6);
        declare_own_membership(&mut adv, island).unwrap();
        adv.prepend_as(5);
        declare_own_membership(&mut adv, island).unwrap();
        assert_eq!(adv.memberships().len(), 1);
        let m = adv.memberships()[0];
        assert_eq!((m.start, m.end), (0, 2));
        assert_eq!(adv.island_of(0), Some(island));
        assert_eq!(adv.island_of(1), Some(island));
    }

    #[test]
    fn export_abstraction_collapses_member_run() {
        let island = IslandConfig { id: IslandId(500), abstraction: true };
        let mut adv = ia(&[]);
        adv.prepend_as(9); // origin-side gulf AS
        for asn in [8, 7, 6] {
            adv.prepend_as(asn);
            declare_own_membership(&mut adv, island.id).unwrap();
        }
        global_export(&FilterConfig::default(), Some(island), true, &mut adv).unwrap();
        assert_eq!(adv.path_vector, vec![PathElem::Island(IslandId(500)), PathElem::As(9)]);
        assert_eq!(adv.island_of(0), Some(IslandId(500)));
    }

    #[test]
    fn export_no_abstraction_inside_island() {
        let island = IslandConfig { id: IslandId(500), abstraction: true };
        let mut adv = ia(&[]);
        adv.prepend_as(6);
        declare_own_membership(&mut adv, island.id).unwrap();
        global_export(&FilterConfig::default(), Some(island), false, &mut adv).unwrap();
        assert_eq!(adv.path_vector, vec![PathElem::As(6)], "kept verbatim inside island");
    }

    #[test]
    fn baseline_only_export_strips_everything_but_bgp() {
        let cfg = FilterConfig {
            strip_protocols: vec![],
            baseline_only_export: true,
            valley_free: false,
        };
        let mut adv = ia(&[5]);
        adv.set_path_descriptor(dbgp_wire::ProtocolId::WISER, dkey::WISER_PATH_COST, vec![0]);
        global_export(&cfg, None, true, &mut adv).unwrap();
        assert!(adv.path_descriptors().is_empty());
        assert!(!adv.has_records());
    }
}
