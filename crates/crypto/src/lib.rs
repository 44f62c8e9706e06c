#![warn(missing_docs)]

//! Minimal cryptographic substrate for BGPSec-lite path attestations.
//!
//! The paper (§3.2, Figure 4) carries BGPSec attestations as opaque path
//! descriptors. Real BGPSec rides on the RPKI; building an X.509/RPKI
//! stack is out of scope and orthogonal to what D-BGP demonstrates, so we
//! substitute a keyed-MAC scheme (see DESIGN.md §2): every AS holds a
//! secret key registered with a trust anchor ([`KeyRegistry`]), and an
//! attestation over (prefix, target AS, previous attestation) is an
//! HMAC-SHA-256 chain. This preserves the properties the paper relies on:
//! attestations are per-hop, chained (so they cannot be aggregated — §3.5
//! cites exactly that), and verification fails at the first
//! non-participating hop.

pub mod hmac;
pub mod sha256;

pub use hmac::hmac_sha256;
pub use sha256::Sha256;

use std::collections::HashMap;

/// Length in bytes of every digest and attestation tag we produce.
pub const DIGEST_LEN: usize = 32;

/// A shared-key trust anchor: maps each participating AS to its secret.
///
/// Stands in for the RPKI. The registry hands out deterministic per-AS
/// keys derived from a registry master secret, so simulations are
/// reproducible without key-distribution machinery.
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    master: [u8; DIGEST_LEN],
    keys: HashMap<u32, [u8; DIGEST_LEN]>,
}

impl KeyRegistry {
    /// Create a registry from a master secret.
    pub fn new(master_secret: &[u8]) -> Self {
        KeyRegistry { master: Sha256::digest(master_secret), keys: HashMap::new() }
    }

    /// Fetch (deriving and caching on first use) the key for an AS.
    pub fn key_for(&mut self, asn: u32) -> [u8; DIGEST_LEN] {
        let master = self.master;
        *self.keys.entry(asn).or_insert_with(|| hmac_sha256(&master, &asn.to_be_bytes()))
    }
}

/// One hop's attestation: "AS `signer` advertised this prefix toward
/// `target`, on top of everything attested so far."
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attestation {
    /// The AS that produced this attestation.
    pub signer: u32,
    /// The AS the advertisement was sent to.
    pub target: u32,
    /// HMAC tag over (signer, target, subject, previous tag).
    pub tag: [u8; DIGEST_LEN],
}

/// An ordered chain of attestations, origin first — the BGPSec-lite path
/// descriptor payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AttestationChain {
    /// The attestations, earliest (origin) first.
    pub hops: Vec<Attestation>,
}

impl AttestationChain {
    /// The empty chain, held by the route's originator.
    pub fn new() -> Self {
        Self::default()
    }

    fn tag_input(
        signer: u32,
        target: u32,
        subject: &[u8],
        prev: Option<&[u8; DIGEST_LEN]>,
    ) -> Vec<u8> {
        let mut input = Vec::with_capacity(subject.len() + 8 + DIGEST_LEN);
        input.extend_from_slice(&signer.to_be_bytes());
        input.extend_from_slice(&target.to_be_bytes());
        input.extend_from_slice(subject);
        if let Some(prev) = prev {
            input.extend_from_slice(prev);
        }
        input
    }

    /// Extend the chain: `signer` attests it sent `subject` (e.g., the
    /// encoded prefix) toward `target`.
    pub fn sign(&mut self, registry: &mut KeyRegistry, signer: u32, target: u32, subject: &[u8]) {
        let prev = self.hops.last().map(|h| &h.tag);
        let input = Self::tag_input(signer, target, subject, prev);
        let key = registry.key_for(signer);
        self.hops.push(Attestation { signer, target, tag: hmac_sha256(&key, &input) });
    }

    /// Verify the whole chain against `subject`. Returns the index of the
    /// first bad hop, or `Ok(())`.
    pub fn verify(&self, registry: &mut KeyRegistry, subject: &[u8]) -> Result<(), usize> {
        let mut prev: Option<[u8; DIGEST_LEN]> = None;
        for (i, hop) in self.hops.iter().enumerate() {
            let input = Self::tag_input(hop.signer, hop.target, subject, prev.as_ref());
            let key = registry.key_for(hop.signer);
            let expect = hmac_sha256(&key, &input);
            if expect != hop.tag {
                return Err(i);
            }
            // Chained: each hop must have been sent to the next signer.
            if let Some(next) = self.hops.get(i + 1) {
                if hop.target != next.signer {
                    return Err(i + 1);
                }
            }
            prev = Some(hop.tag);
        }
        Ok(())
    }

    /// Serialize to the opaque byte form carried in a path descriptor.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.hops.len() * (8 + DIGEST_LEN));
        for hop in &self.hops {
            out.extend_from_slice(&hop.signer.to_be_bytes());
            out.extend_from_slice(&hop.target.to_be_bytes());
            out.extend_from_slice(&hop.tag);
        }
        out
    }

    /// Parse from the opaque byte form. `None` if the length is not a
    /// whole number of attestations.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        const HOP: usize = 8 + DIGEST_LEN;
        if !data.len().is_multiple_of(HOP) {
            return None;
        }
        let mut hops = Vec::with_capacity(data.len() / HOP);
        for chunk in data.chunks_exact(HOP) {
            let signer = u32::from_be_bytes(chunk[0..4].try_into().unwrap());
            let target = u32::from_be_bytes(chunk[4..8].try_into().unwrap());
            let mut tag = [0u8; DIGEST_LEN];
            tag.copy_from_slice(&chunk[8..]);
            hops.push(Attestation { signer, target, tag });
        }
        Some(AttestationChain { hops })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_keys_are_deterministic_and_distinct() {
        let mut r1 = KeyRegistry::new(b"anchor");
        let mut r2 = KeyRegistry::new(b"anchor");
        assert_eq!(r1.key_for(100), r2.key_for(100));
        assert_ne!(r1.key_for(100), r1.key_for(101));
        let mut r3 = KeyRegistry::new(b"other-anchor");
        assert_ne!(r1.key_for(100), r3.key_for(100));
    }

    #[test]
    fn chain_sign_verify_roundtrip() {
        let mut reg = KeyRegistry::new(b"anchor");
        let subject = b"128.6.0.0/16";
        let mut chain = AttestationChain::new();
        chain.sign(&mut reg, 65001, 65002, subject);
        chain.sign(&mut reg, 65002, 65003, subject);
        chain.sign(&mut reg, 65003, 65004, subject);
        assert_eq!(chain.verify(&mut reg, subject), Ok(()));
    }

    #[test]
    fn tampered_tag_detected_at_right_hop() {
        let mut reg = KeyRegistry::new(b"anchor");
        let subject = b"10.0.0.0/8";
        let mut chain = AttestationChain::new();
        chain.sign(&mut reg, 1, 2, subject);
        chain.sign(&mut reg, 2, 3, subject);
        chain.hops[1].tag[0] ^= 0xff;
        assert_eq!(chain.verify(&mut reg, subject), Err(1));
    }

    #[test]
    fn wrong_subject_detected_at_first_hop() {
        let mut reg = KeyRegistry::new(b"anchor");
        let mut chain = AttestationChain::new();
        chain.sign(&mut reg, 1, 2, b"10.0.0.0/8");
        assert_eq!(chain.verify(&mut reg, b"11.0.0.0/8"), Err(0));
    }

    #[test]
    fn broken_target_chain_detected() {
        let mut reg = KeyRegistry::new(b"anchor");
        let subject = b"10.0.0.0/8";
        let mut chain = AttestationChain::new();
        chain.sign(&mut reg, 1, 2, subject);
        // Hop signed by 9, but hop 0 targeted 2: spoofed insertion.
        chain.sign(&mut reg, 9, 3, subject);
        assert_eq!(chain.verify(&mut reg, subject), Err(1));
    }

    #[test]
    fn hijacker_cannot_extend_without_key_match() {
        let mut honest = KeyRegistry::new(b"anchor");
        let mut attacker = KeyRegistry::new(b"attacker-guess");
        let subject = b"198.51.100.0/24";
        let mut chain = AttestationChain::new();
        chain.sign(&mut honest, 1, 2, subject);
        // The attacker forges hop 2 with a key not in the trust anchor.
        chain.sign(&mut attacker, 2, 3, subject);
        assert_eq!(chain.verify(&mut honest, subject), Err(1));
    }

    #[test]
    fn byte_serialization_roundtrip() {
        let mut reg = KeyRegistry::new(b"anchor");
        let subject = b"x";
        let mut chain = AttestationChain::new();
        chain.sign(&mut reg, 10, 20, subject);
        chain.sign(&mut reg, 20, 30, subject);
        let bytes = chain.to_bytes();
        assert_eq!(AttestationChain::from_bytes(&bytes), Some(chain));
        assert_eq!(AttestationChain::from_bytes(&bytes[..bytes.len() - 1]), None);
    }

    #[test]
    fn empty_chain_verifies_and_serializes() {
        let mut reg = KeyRegistry::new(b"anchor");
        let chain = AttestationChain::new();
        assert_eq!(chain.verify(&mut reg, b"s"), Ok(()));
        assert_eq!(AttestationChain::from_bytes(&chain.to_bytes()), Some(chain));
    }
}
