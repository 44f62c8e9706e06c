//! BGPSec-lite over D-BGP: secure path attestations as a critical fix
//! (paper §2.2, §3.2, §3.5).
//!
//! Each hop appends an attestation — keyed over (signer, intended next
//! AS, prefix, previous attestation) — to a chain carried in a path
//! descriptor ([`dkey::BGPSEC_ATTESTATION`]). A receiver verifies the
//! chain against its trust anchor and the IA's path vector.
//!
//! The paper is explicit about the limits D-BGP inherits here (§3.5):
//! pass-through cannot *accelerate* BGPSec's benefits, because an
//! attacker can always spoof toward the first gulf AS — an unbroken
//! chain of participation is required. We reproduce that, too: the
//! module can run in `enforce` mode (drop candidates whose chain is
//! broken — only safe inside a contiguous secure island) or monitor mode
//! (prefer verified paths but accept others, the realistic partial-
//! deployment posture).

use dbgp_core::module::{CandidateIa, DecisionModule, ExportContext, ImportContext, Rank};
use dbgp_crypto::{AttestationChain, KeyRegistry};
use dbgp_wire::ia::dkey;
use dbgp_wire::{Ia, Ipv4Prefix, PathElem, ProtocolId};

/// Outcome of verifying an IA's attestation chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainStatus {
    /// Chain present, cryptographically valid, and consistent with the
    /// path vector up to the first non-AS element.
    Valid,
    /// No attestation descriptor at all.
    Absent,
    /// Chain present but broken (bad tag, broken target linkage, or
    /// mismatch with the path vector).
    Broken,
}

/// Read the attestation chain from an IA.
pub fn chain_of(ia: &Ia) -> Option<AttestationChain> {
    let d = ia.path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION)?;
    AttestationChain::from_bytes(&d.value)
}

fn set_chain(ia: &mut Ia, chain: &AttestationChain) {
    ia.set_path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION, chain.to_bytes());
}

fn subject_for(prefix: &Ipv4Prefix) -> Vec<u8> {
    prefix.to_string().into_bytes()
}

/// Verify an IA's chain against the trust anchor and its own path
/// vector: signers must match the trailing AS entries of the path,
/// oldest (origin) last.
pub fn verify(ia: &Ia, registry: &mut KeyRegistry, local_as: u32) -> ChainStatus {
    let Some(chain) = chain_of(ia) else { return ChainStatus::Absent };
    if chain.hops.is_empty() {
        return ChainStatus::Absent;
    }
    if chain.verify(registry, &subject_for(&ia.prefix)).is_err() {
        return ChainStatus::Broken;
    }
    // The last attestation must be addressed to us.
    if chain.hops.last().map(|h| h.target) != Some(local_as) {
        return ChainStatus::Broken;
    }
    // Signers (origin first) must equal the path vector read back-to-
    // front, for as many trailing AS entries as there are attestations.
    // (Island elements interrupt the check: an abstracted island cannot
    // be attested per-AS, one of the structural reasons the paper notes
    // BGPSec benefits need contiguity.)
    let mut path_ases: Vec<u32> = ia
        .path_vector
        .iter()
        .rev()
        .map_while(|e| match e {
            PathElem::As(asn) => Some(*asn),
            _ => None,
        })
        .collect();
    path_ases.truncate(chain.hops.len());
    if path_ases.len() < chain.hops.len() {
        return ChainStatus::Broken;
    }
    for (hop, asn) in chain.hops.iter().zip(path_ases.iter()) {
        if hop.signer != *asn {
            return ChainStatus::Broken;
        }
    }
    ChainStatus::Valid
}

/// The BGPSec-lite decision module.
pub struct BgpsecModule {
    local_as: u32,
    registry: KeyRegistry,
    /// Enforce mode drops unverifiable candidates entirely.
    enforce: bool,
}

impl BgpsecModule {
    /// Create the module. `registry` is the shared trust anchor (every
    /// participant constructs it from the same master secret).
    pub fn new(local_as: u32, registry: KeyRegistry, enforce: bool) -> Self {
        BgpsecModule { local_as, registry, enforce }
    }

    /// Verify an IA with this module's trust anchor.
    pub fn status(&mut self, ia: &Ia) -> ChainStatus {
        verify(ia, &mut self.registry, self.local_as)
    }
}

impl DecisionModule for BgpsecModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGPSEC
    }

    fn accept(&mut self, ctx: ImportContext<'_>) -> bool {
        if !self.enforce {
            return true;
        }
        verify(ctx.ia, &mut self.registry, self.local_as) == ChainStatus::Valid
    }

    // Prefer verified chains (monitor-mode ranking; under enforce,
    // accept() already filtered).
    fn rank(&mut self, _prefix: Ipv4Prefix, c: &CandidateIa<'_>) -> Rank {
        let status = match verify(c.ia, &mut self.registry, self.local_as) {
            ChainStatus::Valid => 0,
            ChainStatus::Absent => 1,
            ChainStatus::Broken => 2,
        };
        Rank::lower(status, c)
    }

    fn export(&mut self, ia: &mut Ia, ctx: ExportContext) {
        // Extend the chain toward this specific neighbor. The chain is
        // per-export-target, which is exactly why BGPSec attestations
        // cannot be aggregated (§3.5).
        let mut chain = chain_of(ia).unwrap_or_default();
        chain.sign(&mut self.registry, ctx.local_as, ctx.neighbor_as, &subject_for(&ia.prefix));
        set_chain(ia, &chain);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::module::ExportContext;
    use dbgp_core::NeighborId;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn anchor() -> KeyRegistry {
        KeyRegistry::new(b"test-trust-anchor")
    }

    fn export_ctx(local_as: u32, neighbor_as: u32) -> ExportContext {
        ExportContext { neighbor: NeighborId(0), neighbor_as, local_as, prefix: p("128.6.0.0/16") }
    }

    /// Simulate a fully secure 3-hop advertisement: origin 1 -> 2 -> 3,
    /// final delivery target `last_target`.
    fn secure_path(last_target: u32) -> Ia {
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(9, 9, 9, 9));
        let hops = [(1u32, 2u32), (2, 3), (3, last_target)];
        for (signer, target) in hops {
            let mut module = BgpsecModule::new(signer, anchor(), false);
            module.export(&mut ia, export_ctx(signer, target));
            ia.prepend_as(signer);
        }
        ia
    }

    #[test]
    fn full_chain_verifies() {
        let ia = secure_path(99);
        let mut module = BgpsecModule::new(99, anchor(), false);
        assert_eq!(module.status(&ia), ChainStatus::Valid);
    }

    #[test]
    fn wire_roundtrip_preserves_validity() {
        let ia = Ia::decode(secure_path(99).encode().into_bytes()).unwrap();
        let mut module = BgpsecModule::new(99, anchor(), false);
        assert_eq!(module.status(&ia), ChainStatus::Valid);
    }

    #[test]
    fn chain_for_someone_else_rejected() {
        // Delivered to 99 but we are 98: a replayed advertisement.
        let ia = secure_path(99);
        let mut module = BgpsecModule::new(98, anchor(), false);
        assert_eq!(module.status(&ia), ChainStatus::Broken);
    }

    #[test]
    fn hijacked_origin_detected() {
        // Attacker AS 66 prepends itself as origin without a key.
        let mut ia = secure_path(99);
        ia.path_vector.push(PathElem::As(66)); // claims 66 originated
        let mut module = BgpsecModule::new(99, anchor(), false);
        assert_eq!(module.status(&ia), ChainStatus::Broken);
    }

    #[test]
    fn unsigned_gulf_hop_breaks_chain() {
        // A gulf AS (4000) forwards without signing: path grows, chain
        // does not, and the final target no longer matches us.
        let mut ia = secure_path(4000);
        ia.prepend_as(4000);
        let mut module = BgpsecModule::new(99, anchor(), false);
        assert_eq!(
            module.status(&ia),
            ChainStatus::Broken,
            "pass-through cannot fake an unbroken chain of participation"
        );
    }

    #[test]
    fn absent_chain_reported() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.prepend_as(5);
        let mut module = BgpsecModule::new(99, anchor(), false);
        assert_eq!(module.status(&ia), ChainStatus::Absent);
    }

    #[test]
    fn monitor_mode_prefers_valid_chain() {
        let valid = secure_path(99);
        let mut unsigned = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(8, 8, 8, 8));
        unsigned.prepend_as(7); // shorter path, no attestations
        let mut module = BgpsecModule::new(99, anchor(), false);
        let cands = [
            CandidateIa { neighbor: NeighborId(0), neighbor_as: 7, ia: &unsigned },
            CandidateIa { neighbor: NeighborId(1), neighbor_as: 3, ia: &valid },
        ];
        assert_eq!(module.select_best(p("128.6.0.0/16"), &cands), Some(1));
    }

    #[test]
    fn enforce_mode_filters_unverified() {
        let mut module = BgpsecModule::new(99, anchor(), true);
        let mut unsigned = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(8, 8, 8, 8));
        unsigned.prepend_as(7);
        let accepted = module.accept(dbgp_core::module::ImportContext {
            neighbor: NeighborId(0),
            neighbor_as: 7,
            prefix: p("128.6.0.0/16"),
            ia: &unsigned,
        });
        assert!(!accepted);
        let valid = secure_path(99);
        let accepted = module.accept(dbgp_core::module::ImportContext {
            neighbor: NeighborId(1),
            neighbor_as: 3,
            prefix: p("128.6.0.0/16"),
            ia: &valid,
        });
        assert!(accepted);
    }

    #[test]
    fn different_trust_anchor_rejects_everything() {
        let ia = secure_path(99);
        let mut module = BgpsecModule::new(99, KeyRegistry::new(b"other-anchor"), false);
        assert_eq!(module.status(&ia), ChainStatus::Broken);
    }
}
