//! Property-based round-trip and robustness tests for the wire codecs.

use bytes::{Bytes, BytesMut};
use dbgp_wire::attrs::{decode_attribute_list, encode_attribute_list};
use dbgp_wire::ia::{dkey, IslandDescriptor, IslandMembership, PathDescriptor, UnknownRecord};
use dbgp_wire::varint::{get_uvarint, put_uvarint, uvarint_len};
use dbgp_wire::{
    AsPath, AsSegment, BgpMessage, Ia, Ipv4Addr, Ipv4Prefix, IslandId, NotificationMsg, OpenMsg,
    Origin, PathAttribute, PathElem, ProtocolId, UpdateMsg,
};
use proptest::prelude::*;

fn arb_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(addr, len)| Ipv4Prefix::new(Ipv4Addr(addr), len).unwrap())
}

fn arb_origin() -> impl Strategy<Value = Origin> {
    prop_oneof![Just(Origin::Igp), Just(Origin::Egp), Just(Origin::Incomplete)]
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(
        prop_oneof![
            proptest::collection::vec(1u32..100_000, 1..8).prop_map(AsSegment::Sequence),
            proptest::collection::vec(1u32..100_000, 1..5).prop_map(AsSegment::Set),
        ],
        0..4,
    )
    .prop_map(|segments| AsPath { segments })
}

fn arb_attr() -> impl Strategy<Value = PathAttribute> {
    prop_oneof![
        arb_origin().prop_map(PathAttribute::Origin),
        arb_as_path().prop_map(PathAttribute::AsPath),
        any::<u32>().prop_map(|a| PathAttribute::NextHop(Ipv4Addr(a))),
        any::<u32>().prop_map(PathAttribute::Med),
        any::<u32>().prop_map(PathAttribute::LocalPref),
        Just(PathAttribute::AtomicAggregate),
        (1u32..100_000, any::<u32>())
            .prop_map(|(asn, a)| PathAttribute::Aggregator { asn, addr: Ipv4Addr(a) }),
        proptest::collection::vec(any::<u32>(), 0..6).prop_map(PathAttribute::Communities),
    ]
}

fn arb_path_elem() -> impl Strategy<Value = PathElem> {
    prop_oneof![
        (1u32..1_000_000).prop_map(PathElem::As),
        (1u32..1_000_000).prop_map(|i| PathElem::Island(IslandId(i))),
        proptest::collection::vec(1u32..1_000_000, 1..6).prop_map(PathElem::AsSet),
    ]
}

fn arb_ia() -> impl Strategy<Value = Ia> {
    (
        arb_prefix(),
        any::<u32>(),
        arb_origin(),
        proptest::option::of(any::<u32>()),
        proptest::collection::vec(arb_path_elem(), 0..8),
        proptest::collection::vec(
            (100u16..108, proptest::collection::vec(any::<u8>(), 0..64)),
            0..4,
        ),
        proptest::collection::vec(
            (1u32..1000, 100u16..108, proptest::collection::vec(any::<u8>(), 0..64)),
            0..4,
        ),
    )
        .prop_map(|(prefix, nh, origin, med, pv, pds, ids)| {
            let pvlen = pv.len() as u16;
            let mut ia = Ia::originate(prefix, Ipv4Addr(nh));
            ia.origin = origin;
            ia.med = med;
            ia.path_vector = pv;
            // Memberships must be valid ranges; derive them from the
            // path-vector length.
            if pvlen >= 2 {
                ia.memberships.push(IslandMembership {
                    island: IslandId(7),
                    start: 0,
                    end: pvlen / 2,
                });
            }
            for (key, value) in pds {
                ia.path_descriptors.push(PathDescriptor::shared(
                    vec![ProtocolId::WISER, ProtocolId::BGP],
                    key,
                    value,
                ));
            }
            for (island, key, value) in ids {
                ia.island_descriptors.push(IslandDescriptor::new(
                    IslandId(island),
                    ProtocolId::SCION,
                    key,
                    value,
                ));
            }
            ia
        })
        .prop_filter("memberships need nonempty range", |ia| ia.validate().is_ok())
}

proptest! {
    #[test]
    fn varint_roundtrips(v in any::<u64>()) {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, v);
        prop_assert_eq!(buf.len(), uvarint_len(v));
        let mut bytes = buf.freeze();
        prop_assert_eq!(get_uvarint(&mut bytes).unwrap(), v);
    }

    #[test]
    fn varint_decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..16)) {
        let mut buf = &data[..];
        let _ = get_uvarint(&mut buf);
    }

    #[test]
    fn prefix_roundtrips(p in arb_prefix()) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        let mut bytes = buf.freeze();
        prop_assert_eq!(Ipv4Prefix::decode(&mut bytes).unwrap(), p);
    }

    #[test]
    fn prefix_parse_display_roundtrips(p in arb_prefix()) {
        let shown = p.to_string();
        let reparsed: Ipv4Prefix = shown.parse().unwrap();
        prop_assert_eq!(reparsed, p);
    }

    #[test]
    fn attribute_lists_roundtrip(attrs in proptest::collection::vec(arb_attr(), 0..6)) {
        // Deduplicate by code, as a real UPDATE would.
        let mut seen = std::collections::HashSet::new();
        let attrs: Vec<PathAttribute> =
            attrs.into_iter().filter(|a| seen.insert(a.code())).collect();
        let mut buf = BytesMut::new();
        encode_attribute_list(&attrs, &mut buf, true);
        let decoded = decode_attribute_list(buf.freeze(), true).unwrap();
        prop_assert_eq!(decoded.len(), attrs.len());
        for attr in &attrs {
            // AS paths may be re-chunked on the wire; compare semantics.
            match attr {
                PathAttribute::AsPath(p) => {
                    let out = decoded.iter().find_map(|a| match a {
                        PathAttribute::AsPath(q) => Some(q),
                        _ => None,
                    }).unwrap();
                    prop_assert_eq!(out.hop_count(), p.hop_count());
                }
                other => prop_assert!(decoded.contains(other)),
            }
        }
    }

    #[test]
    fn update_messages_roundtrip(
        withdrawn in proptest::collection::vec(arb_prefix(), 0..4),
        nlri in proptest::collection::vec(arb_prefix(), 0..4),
        path in arb_as_path(),
    ) {
        let mut withdrawn = withdrawn;
        withdrawn.sort();
        withdrawn.dedup();
        let mut nlri = nlri;
        nlri.sort();
        nlri.dedup();
        let attributes = if nlri.is_empty() { vec![] } else {
            vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(path),
                PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 1)),
            ]
        };
        let msg = BgpMessage::Update(UpdateMsg { withdrawn: withdrawn.clone(), attributes, nlri: nlri.clone() });
        let bytes = msg.encode(true);
        let mut buf = BytesMut::from(&bytes[..]);
        let out = BgpMessage::decode(&mut buf, true).unwrap().unwrap();
        match out {
            BgpMessage::Update(u) => {
                prop_assert_eq!(u.withdrawn, withdrawn);
                prop_assert_eq!(u.nlri, nlri);
            }
            _ => prop_assert!(false, "wrong message type"),
        }
    }

    #[test]
    fn open_roundtrips(asn in 1u32..4_000_000_000, hold in prop_oneof![Just(0u16), 3u16..=65535], id in any::<u32>()) {
        let open = OpenMsg::new(asn, hold, Ipv4Addr(id));
        let bytes = BgpMessage::Open(open).encode(true);
        let mut buf = BytesMut::from(&bytes[..]);
        let out = BgpMessage::decode(&mut buf, true).unwrap().unwrap();
        match out {
            BgpMessage::Open(o) => {
                prop_assert_eq!(o.effective_as(), asn);
                prop_assert_eq!(o.hold_time, hold);
            }
            _ => prop_assert!(false, "wrong message type"),
        }
    }

    #[test]
    fn notification_roundtrips(code in any::<u8>(), sub in any::<u8>(), data in proptest::collection::vec(any::<u8>(), 0..32)) {
        let n = NotificationMsg { error_code: code, subcode: sub, data: Bytes::from(data) };
        let bytes = BgpMessage::Notification(n.clone()).encode(true);
        let mut buf = BytesMut::from(&bytes[..]);
        prop_assert_eq!(
            BgpMessage::decode(&mut buf, true).unwrap().unwrap(),
            BgpMessage::Notification(n)
        );
    }

    #[test]
    fn message_decode_never_panics_on_noise(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let mut buf = BytesMut::from(&data[..]);
        let _ = BgpMessage::decode(&mut buf, true);
        let mut buf = BytesMut::from(&data[..]);
        let _ = BgpMessage::decode(&mut buf, false);
    }

    #[test]
    fn ia_roundtrips(ia in arb_ia()) {
        let decoded = Ia::decode(ia.encode()).unwrap();
        prop_assert_eq!(decoded, ia);
    }

    #[test]
    fn ia_wire_size_is_the_encoded_length(
        ia in arb_ia(),
        tag in 100u64..100_000,
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut ia = ia;
        ia.unknown_records.push(UnknownRecord { tag, data: Bytes::from(payload) });
        prop_assert_eq!(ia.wire_size(), ia.encode().len());
    }

    #[test]
    fn ia_encode_into_appends_what_encode_returns(
        ia in arb_ia(),
        before in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut buf = before.clone();
        ia.encode_into(&mut buf);
        prop_assert_eq!(&buf[..before.len()], &before[..]);
        prop_assert_eq!(&buf[before.len()..], &ia.encode()[..]);
    }

    #[test]
    fn ia_decode_never_panics_on_noise(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Ia::decode(Bytes::from(data));
    }

    #[test]
    fn ia_unknown_records_pass_through(ia in arb_ia(), tag in 100u64..10_000, payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut ia = ia;
        ia.unknown_records.push(UnknownRecord { tag, data: Bytes::from(payload) });
        let decoded = Ia::decode(ia.encode()).unwrap();
        prop_assert_eq!(&decoded.unknown_records, &ia.unknown_records);
        // A second hop re-encodes what it decoded; the record must still
        // be there (transitivity of pass-through).
        let second = Ia::decode(decoded.encode()).unwrap();
        prop_assert_eq!(&second.unknown_records, &ia.unknown_records);
    }

    #[test]
    fn ia_prepend_preserves_validity(ia in arb_ia(), asn in 1u32..1_000_000) {
        let mut ia = ia;
        ia.prepend_as(asn);
        prop_assert!(ia.validate().is_ok());
        prop_assert!(ia.contains_as(asn));
        prop_assert_eq!(Ia::decode(ia.encode()).unwrap(), ia);
    }

    #[test]
    fn ia_wiser_cost_descriptor_is_findable(ia in arb_ia(), cost in any::<u64>()) {
        let mut ia = ia;
        ia.path_descriptors.push(PathDescriptor::new(
            ProtocolId::WISER,
            dkey::WISER_PATH_COST,
            cost.to_be_bytes().to_vec(),
        ));
        let decoded = Ia::decode(ia.encode()).unwrap();
        let d = decoded.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).unwrap();
        prop_assert_eq!(&d.value[..], &cost.to_be_bytes()[..]);
    }
}
