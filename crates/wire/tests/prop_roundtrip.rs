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
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
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
        prop_assert_eq!(&buf[before.len()..], &ia.encode().into_bytes()[..]);
    }

    #[test]
    fn ia_decode_never_panics_on_noise(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Ia::decode(Bytes::from(data));
    }

    #[test]
    fn ia_unknown_records_pass_through(ia in arb_ia(), tag in 100u64..10_000, payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut ia = ia;
        ia.unknown_records.push(UnknownRecord { tag, data: Bytes::from(payload) });
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        prop_assert_eq!(&decoded.unknown_records, &ia.unknown_records);
        // A second hop re-encodes what it decoded; the record must still
        // be there (transitivity of pass-through).
        let second = Ia::decode(decoded.encode().into_bytes()).unwrap();
        prop_assert_eq!(&second.unknown_records, &ia.unknown_records);
    }

    #[test]
    fn ia_prepend_preserves_validity(ia in arb_ia(), asn in 1u32..1_000_000) {
        let mut ia = ia;
        ia.prepend_as(asn);
        prop_assert!(ia.validate().is_ok());
        prop_assert!(ia.contains_as(asn));
        prop_assert_eq!(Ia::decode(ia.encode().into_bytes()).unwrap(), ia);
    }

    #[test]
    fn ia_wiser_cost_descriptor_is_findable(ia in arb_ia(), cost in any::<u64>()) {
        let mut ia = ia;
        ia.path_descriptors.push(PathDescriptor::new(
            ProtocolId::WISER,
            dkey::WISER_PATH_COST,
            cost.to_be_bytes().to_vec(),
        ));
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        let d = decoded.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).unwrap();
        prop_assert_eq!(&d.value[..], &cost.to_be_bytes()[..]);
    }
}

// ----- pass-through as a splice ---------------------------------------
//
// `Ia::encode` may return a written head plus the window of the frame the
// IA was decoded from. One invariant: flattened, that is always exactly
// what `encode_into` writes — whatever was done to the IA in between,
// through its methods or straight to its `pub` fields — and the window is
// used if and only if the tail records are still the bytes that arrived.

/// What `encode_into` writes, and how much of it is head records.
fn written(ia: &Ia) -> (Vec<u8>, usize) {
    let mut whole = Vec::new();
    ia.encode_into(&mut whole);
    let mut head_only = ia.clone();
    head_only.path_descriptors.clear();
    head_only.island_descriptors.clear();
    head_only.unknown_records.clear();
    (whole, head_only.wire_size())
}

/// One step between arrival and re-encode. `a` picks an index or a
/// number, `bytes` is a fresh payload. Returns whether a filter that
/// removes records ran (it may drop the window for good).
fn apply_edit(ia: &mut Ia, kind: u8, a: u32, bytes: Vec<u8>) -> bool {
    let pick = |len: usize| (len > 0).then(|| a as usize % len.max(1));
    let asn = a % 1_000_000 + 1;
    let count = (a as usize % (ia.path_vector.len() + 1)) as u16;
    match kind {
        // What a speaker does through `Ia`'s methods.
        0 => ia.prepend_as(asn),
        1 => *ia = ia.prepended(asn),
        2 => ia.declare_membership(IslandId(asn), count).unwrap(),
        3 => ia.abstract_island(IslandId(asn), count).unwrap(),
        4 => {
            ia.strip_protocols(&[
                [ProtocolId::WISER, ProtocolId::SCION, ProtocolId(77)][a as usize % 3]
            ]);
            return true;
        }
        5 => {
            ia.retain_protocols(&[
                [ProtocolId::BGP, ProtocolId::SCION, ProtocolId(77)][a as usize % 3]
            ]);
            return true;
        }
        // Head fields written directly: the tail is not touched.
        6 => ia.med = Some(a),
        7 => ia.next_hop = Ipv4Addr(a),
        // Tail fields written directly.
        8 => ia.path_descriptors.push(PathDescriptor::new(ProtocolId(77), 1, bytes)),
        9 => {
            if let Some(i) = pick(ia.path_descriptors.len()) {
                ia.path_descriptors.remove(i);
            }
        }
        10 => ia.island_descriptors.reverse(),
        11 => ia.unknown_records.clear(),
        12 => {
            if let Some(i) = pick(ia.path_descriptors.len()) {
                ia.path_descriptors[i].key ^= 1;
            }
        }
        13 => {
            if let Some(i) = pick(ia.path_descriptors.len()) {
                ia.path_descriptors[i].protocols.push(ProtocolId(77));
            }
        }
        14 => {
            // An equal value in a fresh buffer: the bytes did not change.
            if let Some(i) = pick(ia.island_descriptors.len()) {
                let fresh = ia.island_descriptors[i].value.to_vec();
                ia.island_descriptors[i].value = Bytes::from(fresh);
            }
        }
        15 => {
            // A different value of the same length.
            if let Some(i) = pick(ia.island_descriptors.len()) {
                let mut other = ia.island_descriptors[i].value.to_vec();
                if let Some(first) = other.first_mut() {
                    *first = !*first;
                }
                ia.island_descriptors[i].value = Bytes::from(other);
            }
        }
        16 => {
            if let Some(i) = pick(ia.path_descriptors.len()) {
                ia.path_descriptors[i].value = Bytes::new();
            }
        }
        _ => ia.unknown_records.push(UnknownRecord { tag: 100 + a as u64, data: bytes.into() }),
    }
    false
}

proptest! {
    #[test]
    fn encode_is_a_written_head_plus_the_arrival_tail_iff_the_tail_is_untouched(
        ia in arb_ia(),
        unknown in proptest::option::of(proptest::collection::vec(any::<u8>(), 0..48)),
        lead in 0usize..8,
        edits in proptest::collection::vec(
            (0u8..18, any::<u32>(), proptest::collection::vec(any::<u8>(), 0..24)),
            0..12,
        ),
    ) {
        let mut ia = ia;
        if let Some(data) = unknown {
            ia.unknown_records.push(UnknownRecord { tag: 4242, data: data.into() });
        }
        // The IA arrives in the middle of a larger frame.
        let (body, head_len) = written(&ia);
        let mut framed = vec![0xee; lead];
        framed.extend_from_slice(&body);
        let frame = Bytes::from(framed);
        let span = frame.as_ptr_range();
        let arrived_tail = &body[head_len..];
        let mut ia = Ia::decode(frame.slice(lead..)).unwrap();

        let mut window_dropped = false;
        for step in 0..=edits.len() {
            let (whole, head_len) = written(&ia);
            let tail_intact = &whole[head_len..] == arrived_tail;
            let encoded = ia.encode();
            prop_assert_eq!(encoded.len(), whole.len(), "step {}", step);
            prop_assert_eq!(
                encoded.is_spliced(),
                tail_intact && !arrived_tail.is_empty() && !window_dropped,
                "step {}: tail intact {}, window dropped {}", step, tail_intact, window_dropped
            );
            if let Some(tail) = encoded.tail() {
                prop_assert_eq!(encoded.head().len(), head_len);
                prop_assert_eq!(tail.as_ptr_range().end, span.end, "the tail is the arrival frame's");
            }
            prop_assert_eq!(&encoded.into_bytes()[..], &whole[..], "step {}", step);

            let Some((kind, a, bytes)) = edits.get(step).cloned() else { break };
            // A filter drops the window exactly when it removed something.
            if apply_edit(&mut ia, kind, a, bytes) {
                let (whole, head_len) = written(&ia);
                window_dropped |= whole[head_len..] != *arrived_tail;
            }
        }
    }
}

/// Frames no encoder of ours would write, but a peer's might: they must
/// decode, and re-encode — without the window — to the canonical form.
#[test]
fn a_frame_whose_tail_is_not_what_we_would_write_falls_back_to_the_full_write() {
    fn record(tag: u64, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        put_uvarint(&mut out, tag);
        put_uvarint(&mut out, body.len() as u64);
        out.extend_from_slice(body);
        out
    }
    let head = [record(1, &[8, 10]), record(2, &[0]), record(3, &[192, 0, 2, 1])].concat();
    let path_elem = record(5, &[0, 42]);
    // One protocol (100), key 1, a 5-byte value.
    let path_desc = record(7, &[1, 100, 1, 5, b'h', b'e', b'l', b'l', b'o']);
    let island_desc = record(8, &[9, 100, 1, 2, b'h', b'i']);
    let empty_value = record(7, &[1, 100, 2, 0]);
    // The same path descriptor with its record length as a two-byte varint.
    let mut loose_len = vec![7, 0x80 | 9, 0x00];
    loose_len.extend_from_slice(&path_desc[2..]);

    let cases: [(&str, Vec<u8>, bool); 5] = [
        (
            "canonical",
            [&head[..], &path_elem, &path_desc, &empty_value, &island_desc].concat(),
            false,
        ),
        ("head record after a tail record", [&head[..], &path_desc, &path_elem].concat(), true),
        (
            "interleaved unknown tags",
            [&head[..], &record(99, b"x"), &path_desc, &record(98, b""), &island_desc].concat(),
            true,
        ),
        ("non-minimal varint in a descriptor header", [&head[..], &loose_len].concat(), true),
        (
            "island descriptor before path descriptor",
            [&head[..], &island_desc, &path_desc].concat(),
            true,
        ),
    ];
    for (name, frame, falls_back) in cases {
        let ia = Ia::decode(Bytes::from(frame.clone())).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (whole, _) = written(&ia);
        let encoded = ia.encode();
        assert_eq!(encoded.is_spliced(), !falls_back, "{name}");
        assert_eq!(encoded.into_bytes(), whole, "{name}: not what encode_into writes");
        assert_eq!(whole == frame, !falls_back, "{name}: canonical form");
        let forwarded = ia.prepended(7);
        assert_eq!(forwarded.encode().is_spliced(), !falls_back, "{name}: forwarded");
        assert_eq!(forwarded.encode().into_bytes(), written(&forwarded).0, "{name}: forwarded");
        assert_eq!(Ia::decode(Bytes::from(whole)).unwrap(), ia, "{name}: same IA either way");
    }
}
