//! The classic core interprets five attributes — ORIGIN, AS_PATH,
//! NEXT_HOP, MED and LOCAL_PREF — and carries every other one it is
//! sent without reading it: BGP's own pass-through (the paper's CF-R1,
//! in its first form: optional transitive attributes). An
//! optional transitive attribute a `Host` hears over eBGP reaches the
//! next eBGP peer byte for byte, an unknown one marked PARTIAL; MED and
//! LOCAL_PREF stop at the AS boundary. Every route forwarded here is
//! also carried as an IA in between — `Route::to_ia`, the IA codec,
//! `Route::from_ia` — and must leave as the same UPDATE. A block that
//! lacks a mandatory attribute is refused naming the one it lacks.

use bytes::{Bytes, BytesMut};
use dbgp_session::{ConnDir, Host, HostOutput, NeighborConfig, PeerId, Route, RoutingCore};
use dbgp_wire::attrs::{code, FLAG_EXT_LEN, FLAG_OPTIONAL, FLAG_PARTIAL, FLAG_TRANSITIVE};
use dbgp_wire::message::{BgpMessage, OpenMsg, UpdateMsg};
use dbgp_wire::{
    AsPath, AsSegment, Ia, Ipv4Addr, Ipv4Prefix, IslandId, Origin, PathAttribute, PathElem,
    WireError,
};
use std::collections::BTreeMap;

const LOCAL_AS: u32 = 65000;
const LOCAL_ID: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// The NEXT_HOP this host writes toward its peers.
const LOCAL_ADDR: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);
/// Peer 0 sends the route; peer 1 is the next eBGP hop.
const PEERS: [(PeerId, u32); 2] = [(PeerId(0), 65001), (PeerId(1), 65002)];
/// An attribute type code no one has assigned.
const UNKNOWN: u8 = 99;

fn prefix() -> Ipv4Prefix {
    "198.51.100.0/24".parse().unwrap()
}

fn neighbor(peer_as: u32) -> NeighborConfig {
    NeighborConfig::new(LOCAL_AS, LOCAL_ID, peer_as, LOCAL_ADDR)
}

/// A host with both eBGP sessions Established over accepted
/// connections, the peers' side written out as bytes.
fn host() -> Host {
    let mut host = Host::new(LOCAL_AS, LOCAL_ID);
    for (id, asn) in PEERS {
        host.add_peer(id, neighbor(asn));
        host.accepted(0, id);
        let open = OpenMsg::new(asn, 90, Ipv4Addr::new(10, 0, 0, id.0 as u8 + 2));
        host.bytes_in(0, id, ConnDir::In, &BgpMessage::Open(open).encode(true));
        let out = host.bytes_in(0, id, ConnDir::In, &BgpMessage::Keepalive.encode(true));
        assert!(out.iter().any(|o| matches!(o, HostOutput::Up(..))), "{id} up: {out:?}");
    }
    host
}

/// ORIGIN, AS_PATH and NEXT_HOP as peer 0 sends them, then `more`.
fn attributes(more: Vec<PathAttribute>) -> Vec<PathAttribute> {
    let mut attrs = vec![
        PathAttribute::Origin(Origin::Igp),
        PathAttribute::AsPath(AsPath::from_sequence(vec![PEERS[0].1])),
        PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
    ];
    attrs.extend(more);
    attrs
}

/// The eBGP export of the route `update` announces, with the route
/// carried as an IA in between: parsed, turned into the IA for the
/// prefix, encoded, decoded, turned back into a route, exported.
fn via_ia(update: &[u8]) -> Bytes {
    let Ok(Some(BgpMessage::Update(update))) =
        BgpMessage::decode(&mut BytesMut::from(update), true)
    else {
        panic!("an UPDATE")
    };
    let route = Route::from_attrs(&update.attributes).expect("a full block");
    let ia = Ia::decode(route.to_ia(prefix()).encode().into_bytes()).expect("the IA decodes");
    let route = Route::from_ia(&ia).expect("a path of ASes");
    let attrs = route.for_ebgp_export(LOCAL_AS, LOCAL_ADDR).to_attrs(false);
    BgpMessage::Update(UpdateMsg::announce(vec![prefix()], attrs)).encode(true)
}

/// Announce one prefix from peer 0 with `attrs`: the frame it sent and
/// the one frame peer 1 is sent, which the route carried as an IA
/// between the two hosts' cores comes out as too.
fn forward(attrs: Vec<PathAttribute>) -> (Bytes, Bytes) {
    let mut host = host();
    let update = BgpMessage::Update(UpdateMsg::announce(vec![prefix()], attrs)).encode(true);
    let out = host.bytes_in(1, PEERS[0].0, ConnDir::In, &update);
    let sent: Vec<&Bytes> = out
        .iter()
        .filter_map(|o| match o {
            HostOutput::Send(id, _, bytes) if *id == PEERS[1].0 => Some(bytes),
            _ => None,
        })
        .collect();
    let [frame] = sent[..] else { panic!("one frame to the next hop, got {out:?}") };
    assert_eq!(via_ia(&update), *frame, "the route carried as an IA leaves as the same UPDATE");
    (update, frame.clone())
}

/// An UPDATE frame's path attributes as they sit on the wire — flags,
/// type code, length and body — by type code.
fn raw_attributes(frame: &[u8]) -> BTreeMap<u8, Vec<u8>> {
    let body = &frame[19..];
    let withdrawn = usize::from(u16::from_be_bytes([body[0], body[1]]));
    let at = 2 + withdrawn;
    let len = usize::from(u16::from_be_bytes([body[at], body[at + 1]]));
    let mut rest = &body[at + 2..at + 2 + len];
    let mut attrs = BTreeMap::new();
    while !rest.is_empty() {
        let (header, len) = if rest[0] & FLAG_EXT_LEN != 0 {
            (4, usize::from(u16::from_be_bytes([rest[2], rest[3]])))
        } else {
            (3, usize::from(rest[2]))
        };
        let (attr, tail) = rest.split_at(header + len);
        assert!(attrs.insert(attr[1], attr.to_vec()).is_none(), "code {} twice", attr[1]);
        rest = tail;
    }
    attrs
}

#[test]
fn optional_transitive_attributes_reach_the_next_ebgp_peer_byte_for_byte() {
    let (update, frame) = forward(attributes(vec![
        PathAttribute::Med(9),
        PathAttribute::LocalPref(300),
        // A four-octet AS.
        PathAttribute::Aggregator { asn: 4_200_000_001, addr: Ipv4Addr::new(10, 1, 1, 1) },
        PathAttribute::Communities(vec![0xffff_ff01, (PEERS[0].1 << 16) | 7]),
        PathAttribute::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            code: UNKNOWN,
            data: Bytes::from_static(b"opaque"),
        },
    ]));
    let (sent, got) = (raw_attributes(&update), raw_attributes(&frame));
    assert_eq!(got[&code::AGGREGATOR], sent[&code::AGGREGATOR]);
    assert_eq!(got[&code::COMMUNITIES], sent[&code::COMMUNITIES]);
    // Passed on by a speaker that did not understand it: PARTIAL.
    let mut unknown = sent[&UNKNOWN].clone();
    assert_eq!(unknown[0] & FLAG_PARTIAL, 0);
    unknown[0] |= FLAG_PARTIAL;
    assert_eq!(got[&UNKNOWN], unknown);
    let codes: Vec<u8> = got.keys().copied().collect();
    let want = [code::ORIGIN, code::AS_PATH, code::NEXT_HOP, code::AGGREGATOR, code::COMMUNITIES];
    assert_eq!(codes, [&want[..], &[UNKNOWN]].concat(), "no MED, no LOCAL_PREF");
}

/// COMMUNITIES is carried, not read, so an empty one leaves as it came.
#[test]
fn an_empty_communities_attribute_is_passed_through_as_received() {
    let (update, frame) = forward(attributes(vec![PathAttribute::Communities(Vec::new())]));
    let got = raw_attributes(&frame);
    assert_eq!(got[&code::COMMUNITIES], [FLAG_OPTIONAL | FLAG_TRANSITIVE, code::COMMUNITIES, 0]);
    assert_eq!(got[&code::COMMUNITIES], raw_attributes(&update)[&code::COMMUNITIES]);
}

/// The wire decoder refuses such a block first; an UPDATE built in
/// process reaches the core as it is.
#[test]
fn an_update_without_next_hop_is_refused_naming_next_hop() {
    let mut core = RoutingCore::new(LOCAL_AS, LOCAL_ID);
    core.add_peer(PEERS[0].0, neighbor(PEERS[0].1));
    let mut attrs = attributes(Vec::new());
    attrs.retain(|a| a.code() != code::NEXT_HOP);
    let (ops, err) = core.update(0, PEERS[0].0, UpdateMsg::announce(vec![prefix()], attrs));
    assert_eq!(err, Some(WireError::MissingWellKnownAttribute(code::NEXT_HOP)));
    assert_eq!(ops, []);
    assert!(core.loc_rib().is_empty());
}

/// `Route::from_ia` is `Route::to_ia` undone, AS_SETs included; an
/// island in the path vector has no AS_PATH form and is refused.
#[test]
fn a_route_and_its_ia_convert_both_ways_and_an_island_is_refused() {
    let mut route = Route::from_attrs(&attributes(vec![
        PathAttribute::Med(9),
        PathAttribute::Communities(Vec::new()),
    ]))
    .unwrap();
    route.as_path.segments.push(AsSegment::Set(vec![30, 40]));
    route.as_path.segments.push(AsSegment::Sequence(vec![50]));
    let mut ia = route.to_ia(prefix());
    assert_eq!(ia.prefix, prefix());
    assert_eq!(Route::from_ia(&ia), Ok(route));
    assert_eq!(Route::originated(LOCAL_ADDR).to_ia(prefix()).bgp, None, "no attribute, no block");

    ia.path_vector.insert(1, PathElem::Island(IslandId(7)));
    let refused = WireError::MalformedAttribute {
        code: code::AS_PATH,
        detail: "an island has no AS_PATH form",
    };
    assert_eq!(Route::from_ia(&ia), Err(refused));
}
