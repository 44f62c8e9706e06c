//! Transitional deployment of D-BGP itself (paper §3.5): carrying an IA
//! *inside* a classic BGP UPDATE as an optional-transitive attribute.
//!
//! While D-BGP is only partially deployed, upgraded speakers can tunnel
//! IAs through legacy BGP speakers, because legacy BGP passes unknown
//! optional-transitive attributes through verbatim (setting the PARTIAL
//! bit) — the very mechanism the paper identifies as BGP's embryonic
//! pass-through support. Legacy speakers see a normal UPDATE; upgraded
//! speakers recover the full IA.
//!
//! The hard limit is RFC 4271's 4096-byte message ceiling: IAs larger
//! than [`MAX_EMBEDDED_IA`] cannot ride in-band and must use the
//! out-of-band lookup service, exactly the fallback Beagle used (§5).

use dbgp_wire::attrs::{code, PathAttribute, FLAG_OPTIONAL, FLAG_TRANSITIVE};
use dbgp_wire::error::{WireError, WireResult};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::Ia;

/// Largest IA payload that safely fits in a 4096-byte UPDATE alongside
/// header, mandatory attributes and one NLRI.
pub const MAX_EMBEDDED_IA: usize = 3800;

/// Wrap an IA as the optional-transitive `IA_PAYLOAD` attribute.
pub fn ia_to_attribute(ia: &Ia) -> WireResult<PathAttribute> {
    // Refuse by arithmetic: an IA that cannot ride in-band is never
    // serialized just to be thrown away.
    if ia.wire_size() > MAX_EMBEDDED_IA {
        return Err(WireError::Overflow("IA too large to embed in an UPDATE"));
    }
    Ok(PathAttribute::Unknown {
        flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
        code: code::IA_PAYLOAD,
        data: ia.encode().into_bytes(),
    })
}

/// Attach an IA to an UPDATE (replacing any previous embedded IA).
pub fn embed_ia(update: &mut UpdateMsg, ia: &Ia) -> WireResult<()> {
    let attr = ia_to_attribute(ia)?;
    update.attributes.retain(|a| a.code() != code::IA_PAYLOAD);
    update.attributes.push(attr);
    Ok(())
}

/// Extract the embedded IA from an UPDATE, if one is present.
pub fn extract_ia(update: &UpdateMsg) -> Option<WireResult<Ia>> {
    update.attributes.iter().find_map(|a| match a {
        PathAttribute::Unknown { code: c, data, .. } if *c == code::IA_PAYLOAD => {
            Some(Ia::decode(data.clone()))
        }
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::ia::dkey;
    use dbgp_wire::message::BgpMessage;
    use dbgp_wire::{Ipv4Addr, Ipv4Prefix, ProtocolId};

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn sample_ia() -> Ia {
        let mut ia = Ia::originate(p("128.6.0.0/16"), Ipv4Addr::new(9, 9, 9, 9));
        ia.prepend_as(42);
        ia.set_path_descriptor(
            ProtocolId::WISER,
            dkey::WISER_PATH_COST,
            77u64.to_be_bytes().to_vec(),
        );
        ia
    }

    fn carrier(ia: &Ia) -> UpdateMsg {
        let route = dbgp_bgp::Route::from_ia(ia).unwrap();
        let mut update = UpdateMsg::announce(vec![ia.prefix], route.to_attrs(false));
        embed_ia(&mut update, ia).unwrap();
        update
    }

    #[test]
    fn embedded_ia_survives_full_bgp_encode_decode() {
        let ia = sample_ia();
        let update = carrier(&ia);
        let bytes = BgpMessage::Update(update).encode(true);
        let mut buf = bytes::BytesMut::from(&bytes[..]);
        let decoded = match BgpMessage::decode(&mut buf, true).unwrap().unwrap() {
            BgpMessage::Update(u) => u,
            other => panic!("expected UPDATE, got {other:?}"),
        };
        let recovered = extract_ia(&decoded).unwrap().unwrap();
        assert_eq!(recovered, ia);
    }

    #[test]
    fn legacy_speaker_passes_ia_attribute_through() {
        // A legacy speaker decodes the UPDATE, re-encodes it from its
        // parsed Route — the Unknown attribute must survive with the
        // PARTIAL bit set.
        use dbgp_bgp::Route;
        let ia = sample_ia();
        let update = carrier(&ia);
        let bytes = BgpMessage::Update(update).encode(true);
        let mut buf = bytes::BytesMut::from(&bytes[..]);
        let decoded = match BgpMessage::decode(&mut buf, true).unwrap().unwrap() {
            BgpMessage::Update(u) => u,
            other => panic!("expected UPDATE, got {other:?}"),
        };
        let route = Route::from_attrs(&decoded.attributes).unwrap();
        // The legacy hop prepends its AS and re-advertises.
        let exported = route.for_ebgp_export(65000, Ipv4Addr::new(1, 1, 1, 1));
        let reattrs = exported.to_attrs(false);
        let relayed = UpdateMsg::announce(vec![ia.prefix], reattrs);
        let recovered = extract_ia(&relayed).unwrap().unwrap();
        assert_eq!(recovered, ia, "IA intact across a legacy hop");
    }

    #[test]
    fn oversized_ia_rejected() {
        let mut ia = sample_ia();
        ia.set_path_descriptor(ProtocolId(99), 1, vec![0u8; 5000]);
        assert!(matches!(ia_to_attribute(&ia), Err(WireError::Overflow(_))));
    }

    /// `sample_ia` padded with one descriptor so that `wire_size()` is
    /// exactly `size`.
    fn ia_of_size(size: usize) -> Ia {
        let mut ia = sample_ia();
        // The pad's value-length and record-length varints are 2 bytes
        // each for the sizes used here; solve for the value length.
        ia.set_path_descriptor(ProtocolId(99), 1, Vec::new());
        let pad = size - ia.wire_size() - 2;
        ia.set_path_descriptor(ProtocolId(99), 1, vec![0xa5; pad]);
        assert_eq!(ia.wire_size(), size);
        ia
    }

    #[test]
    fn the_embedding_limit_is_exact() {
        let fits = ia_of_size(MAX_EMBEDDED_IA);
        let mut update = carrier(&sample_ia());
        embed_ia(&mut update, &fits).unwrap();
        assert_eq!(extract_ia(&update).unwrap().unwrap(), fits, "3,800 B embeds and round-trips");
        let over = ia_of_size(MAX_EMBEDDED_IA + 1);
        assert!(matches!(ia_to_attribute(&over), Err(WireError::Overflow(_))), "3,801 B refused");
    }

    #[test]
    fn embed_replaces_previous_payload() {
        let ia1 = sample_ia();
        let mut ia2 = sample_ia();
        ia2.prepend_as(7);
        let mut update = carrier(&ia1);
        embed_ia(&mut update, &ia2).unwrap();
        let n = update.attributes.iter().filter(|a| a.code() == code::IA_PAYLOAD).count();
        assert_eq!(n, 1);
        assert_eq!(extract_ia(&update).unwrap().unwrap(), ia2);
    }

    #[test]
    fn update_without_ia_extracts_none() {
        let update = UpdateMsg::withdraw(vec![p("10.0.0.0/8")]);
        assert!(extract_ia(&update).is_none());
    }
}
