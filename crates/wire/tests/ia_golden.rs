//! The IA wire format, pinned byte for byte, plus the in-memory layout
//! and the zero-copy property of the decoder.
//!
//! The hex literals were recorded from the encoder as it stood before
//! `Ia::encode` became a one-pass exact-size write; any encoder must
//! reproduce them. The `size_of` figures are the ones every resident IA
//! of the 50k-AS simulation is multiplied by.

use bytes::Bytes;
use dbgp_wire::ia::{dkey, IslandDescriptor, PathDescriptor, UnknownRecord};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, Origin, PathElem, ProtocolId};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The Figure-4/Figure-7 IA (same construction as `ia.rs`'s unit tests).
fn figure4_ia() -> Ia {
    let island_a = IslandId(1001);
    let island_g = IslandId(1007);
    let island_k = IslandId(1011);
    Ia::builder(p("128.6.0.0/32"), Ipv4Addr::new(195, 2, 27, 0))
        .origin(Origin::Egp)
        .as_hop(3)
        .island_hop(island_a)
        .as_hop(16)
        .as_hop(19)
        .as_hop(4000)
        .membership(island_g, 2, 4)
        .membership(island_k, 5, 6)
        .as_hop(77)
        .shared_descriptor(
            vec![ProtocolId::WISER],
            dkey::WISER_PATH_COST,
            100u64.to_be_bytes().to_vec(),
        )
        .path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION, b"<signatures>".to_vec())
        .island_descriptor(
            island_a,
            ProtocolId::SCION,
            dkey::SCION_PATHS,
            b"br70 br50 br10 br1;br70 br20 br5 br1".to_vec(),
        )
        .island_descriptor(
            island_g,
            ProtocolId::MIRO,
            dkey::MIRO_PORTAL,
            Ipv4Addr::new(173, 82, 2, 0).octets().to_vec(),
        )
        .island_descriptor(
            IslandId::from_as(3),
            ProtocolId::WISER,
            dkey::WISER_PORTAL,
            Ipv4Addr::new(163, 42, 5, 0).octets().to_vec(),
        )
        .build()
        .unwrap()
}

fn bgp_only_with_med() -> Ia {
    Ia::builder(p("10.20.0.0/16"), Ipv4Addr::new(192, 0, 2, 1))
        .as_hop(65001)
        .as_hop(4_200_000_000)
        .as_hop(7)
        .med(4096)
        .build()
        .unwrap()
}

fn as_set_and_two_memberships() -> Ia {
    let mut ia = Ia::originate(p("203.0.113.0/24"), Ipv4Addr::new(198, 51, 100, 9));
    ia.origin = Origin::Incomplete;
    ia.path_vector = vec![
        PathElem::As(300),
        PathElem::AsSet(Box::new(vec![10, 20_000, 3_000_000])),
        PathElem::Island(IslandId(70_000)),
        PathElem::As(1),
    ];
    ia.declare_membership(IslandId(500), 2).unwrap();
    let m = dbgp_wire::ia::IslandMembership { island: IslandId(70_000), start: 2, end: 4 };
    ia.with_records(|r| r.memberships.push(m));
    ia.validate().unwrap();
    ia
}

/// An unknown record and a 300-byte descriptor: the value and record
/// lengths need 2-byte varints.
fn unknown_record_and_long_descriptor() -> Ia {
    let value: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
    let mut ia = Ia::builder(p("0.0.0.0/0"), Ipv4Addr::new(1, 1, 1, 1))
        .as_hop(42)
        .shared_descriptor(vec![ProtocolId::BGP, ProtocolId::WISER, ProtocolId(900)], 300, value)
        .island_descriptor(IslandId(9), ProtocolId::PATHLET, dkey::PATHLET_PATHLETS, Vec::new())
        .build()
        .unwrap();
    ia.with_records(|r| {
        r.unknown_records.push(UnknownRecord { tag: 4242, data: Bytes::from_static(b"future") });
        r.unknown_records.push(UnknownRecord { tag: 9, data: Bytes::new() });
    });
    ia
}

const FIGURE4_HEX: &str = concat!(
    "010520800600000201010304c3021b0005020003050301e9070502001005020013050300a01f0502004d0604",
    "ef0702040604f3070506070c01010108000000000000006407100105030c3c7369676e6174757265733e0829",
    "e9070304246272373020627235302062723130206272313b62723730206272323020627235206272310809ef",
    "07040504ad520200080803010204a32a0500",
);
const BGP_ONLY_MED_HEX: &str =
    "0103100a140201000304c000020104028020050400e9fb0305060080d4dbd20f05020007";
const AS_SET_HEX: &str = concat!(
    "010418cb00710201020304c6336409050300ac02050a02030aa09c01c08db701050401f0a204050200010604",
    "f40300020605f0a2040204",
);
const UNKNOWN_LONG_HEX: &str = concat!(
    "0101000201000304010101010502002a07b5020300018407ac02ac02030a11181f262d343b424950575e656c",
    "737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0",
    "a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4",
    "dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa0108",
    "0f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c",
    "434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970",
    "777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4",
    "abb2b9c0c7ced5dce3eaf1f8ff060d141b2229300804090206009221066675747572650900",
);

#[test]
fn the_wire_format_did_not_move() {
    for (name, ia, want) in [
        ("figure4", figure4_ia(), FIGURE4_HEX),
        ("bgp_only_med", bgp_only_with_med(), BGP_ONLY_MED_HEX),
        ("as_set", as_set_and_two_memberships(), AS_SET_HEX),
        ("unknown_long", unknown_record_and_long_descriptor(), UNKNOWN_LONG_HEX),
    ] {
        let got = ia.encode().into_bytes();
        assert_eq!(hex(&got), want, "{name}: encoded bytes changed");
        assert_eq!(ia.wire_size(), got.len(), "{name}: wire_size is the encoded length");
        assert_eq!(Ia::decode(got).unwrap(), ia, "{name}: round trip");
    }
}

/// In-memory sizes. `sim_hier50k` keeps 50k × 8 IAs resident; none of
/// these may grow by accident. The descriptor types are as they were
/// when the values were `Vec<u8>`. `Ia` went from 152 to 56 bytes when
/// the four rare record lists and the tail window moved into one box an
/// IA without them does not allocate: an `Arc<Ia>` now takes an 80-byte
/// allocator chunk, not a 176-byte one. A path element went from 24 to
/// 16 bytes when its AS_SET moved behind a thin pointer.
#[test]
fn the_layout_did_not_grow() {
    use std::mem::size_of;
    assert_eq!(size_of::<Ia>(), 56);
    assert_eq!(size_of::<PathElem>(), 16);
    assert_eq!(size_of::<PathDescriptor>(), 56);
    assert_eq!(size_of::<IslandDescriptor>(), 32);
    assert_eq!(size_of::<UnknownRecord>(), 32);
}

/// A BGP-only IA, decoded, holds no records box, and its path vector is
/// allocated once at its length; one that carries a descriptor holds a
/// box, exactly sized path vector and all.
#[test]
fn a_decoded_bgp_only_ia_holds_no_records_box_and_an_exact_path_vector() {
    for len in 0..12u32 {
        let mut ia = bgp_only_with_med();
        ia.path_vector = (0..len).map(|asn| PathElem::As(65_000 + asn)).collect();
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert!(!decoded.has_records(), "{len} hops: a records box");
        assert_eq!(decoded.path_vector.capacity(), decoded.path_vector.len(), "{len} hops");
        assert_eq!(decoded, ia);
    }
    for ia in [figure4_ia(), as_set_and_two_memberships(), unknown_record_and_long_descriptor()] {
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert!(decoded.has_records());
        assert_eq!(decoded.path_vector.capacity(), decoded.path_vector.len());
    }
}

/// Every payload of a decoded IA is a view into the frame it was decoded
/// from, and cloning the IA shares those views.
#[test]
fn decoded_payloads_are_views_of_the_frame() {
    // The IA sits in the middle of a larger buffer, as it does inside a
    // D-BGP update frame.
    let body = unknown_record_and_long_descriptor().encode().into_bytes();
    let mut framed = vec![0xee; 5];
    framed.extend_from_slice(&body);
    framed.extend_from_slice(&[0xee; 3]);
    let frame = Bytes::from(framed);
    let span = frame.as_ptr_range();
    let inside = |name: &str, b: &Bytes| {
        let r = b.as_ptr_range();
        assert!(span.start <= r.start && r.end <= span.end, "{name} was copied out of the frame");
    };

    let ia = Ia::decode(frame.slice(5..5 + body.len())).unwrap();
    assert_eq!(ia, unknown_record_and_long_descriptor());
    assert_eq!(ia.path_descriptors()[0].value.len(), 300);
    for d in ia.path_descriptors() {
        inside("path descriptor value", &d.value);
    }
    for d in ia.island_descriptors() {
        inside("island descriptor value", &d.value);
    }
    for r in ia.unknown_records() {
        inside("unknown record", &r.data);
    }

    let copy = ia.clone();
    for (a, b) in ia.path_descriptors().iter().zip(copy.path_descriptors()) {
        assert_eq!(a.value.as_ptr(), b.value.as_ptr(), "clone shares the payload");
    }
    for (a, b) in ia.unknown_records().iter().zip(copy.unknown_records()) {
        assert_eq!(a.data.as_ptr(), b.data.as_ptr(), "clone shares the unknown record");
    }
}

/// The retention bound (DESIGN.md §6): the tail window `encode` splices
/// pins only the frame the IA's payloads already pin, and a filter that
/// removes records drops it — so an IA stripped to its baseline lets go
/// of the 32 KB frame it arrived in, and one that merely passes through
/// a filter with nothing to remove keeps its window.
#[test]
fn a_stripped_ia_stops_pinning_its_arrival_frame() {
    let arrival = Ia::builder(p("128.6.0.0/16"), Ipv4Addr::new(192, 0, 2, 1))
        .as_hop(42)
        .path_descriptor(ProtocolId(100), 1, vec![0x5a; 32 << 10])
        .island_descriptor(IslandId(9), ProtocolId::SCION, dkey::SCION_PATHS, vec![7; 64])
        .build()
        .unwrap();
    let frame = arrival.encode().into_bytes();
    assert!(frame.is_unique());
    let mut ia = Ia::decode(frame.clone()).unwrap();
    assert!(!frame.is_unique(), "the decoded IA views the frame");

    ia.strip_protocols(&[ProtocolId::WISER]);
    assert!(ia.encode().is_spliced(), "nothing removed: the window stays");

    // One descriptor goes: the window goes with it, the other payload
    // still (and alone) holds the frame.
    let mut one_left = ia.clone();
    one_left.strip_protocols(&[ProtocolId(100)]);
    assert!(!one_left.encode().is_spliced());
    let survivor = one_left.island_descriptors()[0].value.clone();
    drop((ia, one_left));
    assert!(!frame.is_unique());
    drop(survivor);
    assert!(frame.is_unique(), "something besides the payload views held the frame");

    // Down to the baseline: nothing of the frame is held at all.
    let mut ia = Ia::decode(frame.clone()).unwrap();
    ia.retain_protocols(&[ProtocolId::BGP]);
    assert!(frame.is_unique(), "a baseline IA still pins the frame it arrived in");
    assert!(!ia.has_records(), "a baseline IA keeps an empty records box");
    assert_eq!(ia.wire_size(), ia.encode().head().len());
}
