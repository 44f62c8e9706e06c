//! §3.5's transitional deployment: Integrated Advertisements tunneled
//! through *classic, unmodified* BGP speakers inside an
//! optional-transitive attribute. The legacy speaker (our full
//! `dbgp-bgp` implementation) forwards the attribute untouched, so two
//! D-BGP islands interoperate across a legacy BGP core.

use dbgp::bgp::{NeighborConfig, PeerId, Route, Speaker, TransportEvent};
use dbgp::core::transitional::{embed_ia, extract_ia};
use dbgp::wire::attrs::PathAttribute;
use dbgp::wire::ia::dkey;
use dbgp::wire::message::{BgpMessage, OpenMsg, UpdateMsg};
use dbgp::wire::{Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// Drive a classic speaker's session with a scripted peer to
/// Established and return it.
fn established(local_as: u32, peer_as: u32) -> Speaker {
    let mut speaker = Speaker::new(local_as, Ipv4Addr::new(10, 0, 0, local_as as u8));
    speaker.add_peer(
        PeerId(0),
        NeighborConfig::new(
            local_as,
            Ipv4Addr::new(10, 0, 0, local_as as u8),
            peer_as,
            Ipv4Addr::new(10, 0, 1, local_as as u8),
        ),
    );
    // Downstream peer too.
    speaker.add_peer(
        PeerId(1),
        NeighborConfig::new(
            local_as,
            Ipv4Addr::new(10, 0, 0, local_as as u8),
            peer_as + 1,
            Ipv4Addr::new(10, 0, 2, local_as as u8),
        ),
    );
    speaker.start(0);
    for (peer, asn) in [(PeerId(0), peer_as), (PeerId(1), peer_as + 1)] {
        speaker.transport_event(0, peer, TransportEvent::Connected);
        let open =
            BgpMessage::Open(OpenMsg::new(asn, 90, Ipv4Addr::new(9, 9, 0, asn as u8))).encode(true);
        speaker.receive(1, peer, &open);
        speaker.receive(2, peer, &BgpMessage::Keepalive.encode(true));
        assert!(speaker.is_established(peer));
    }
    speaker
}

fn dbgp_island_update(prefix: Ipv4Prefix, origin_as: u32) -> (UpdateMsg, Ia) {
    let mut ia = Ia::originate(prefix, Ipv4Addr::new(9, 9, 9, 9));
    ia.prepend_as(origin_as);
    ia.with_records(|r| {
        r.path_descriptors.push(dbgp::wire::ia::PathDescriptor::new(
            ProtocolId::WISER,
            dkey::WISER_PATH_COST,
            321u64.to_be_bytes().to_vec(),
        ))
    });
    let route = Route::from_ia(&ia).unwrap();
    let mut update = UpdateMsg::announce(vec![prefix], route.to_attrs(false));
    embed_ia(&mut update, &ia).unwrap();
    (update, ia)
}

#[test]
fn legacy_speaker_passes_embedded_ia_through() {
    let prefix = p("128.6.0.0/16");
    let (update, original_ia) = dbgp_island_update(prefix, 65_001);
    let mut legacy = established(65_000, 65_001);

    // The D-BGP island's border sends the UPDATE to the legacy core.
    let frame = BgpMessage::Update(update).encode(true);
    let outputs = legacy.receive(10, PeerId(0), &frame);

    // The legacy speaker re-advertises toward its other peer; find the
    // bytes it sent and decode them as the downstream D-BGP island
    // would.
    let relayed = outputs
        .iter()
        .find_map(|o| match o {
            dbgp::bgp::Output::Send(PeerId(1), _, bytes) => Some(bytes.clone()),
            _ => None,
        })
        .expect("legacy speaker relays the route");
    let mut buf = bytes::BytesMut::from(&relayed[..]);
    let relayed_update = match BgpMessage::decode(&mut buf, true).unwrap().unwrap() {
        BgpMessage::Update(u) => u,
        other => panic!("expected UPDATE, got {other:?}"),
    };

    // The legacy hop prepended its AS in the classic path...
    let as_path = relayed_update
        .attributes
        .iter()
        .find_map(|a| match a {
            PathAttribute::AsPath(p) => Some(p),
            _ => None,
        })
        .unwrap();
    assert_eq!(as_path.first_as(), Some(65_000));
    // ...and the embedded IA came through byte-identical.
    let recovered = extract_ia(&relayed_update).unwrap().unwrap();
    assert_eq!(recovered, original_ia);
    assert!(recovered.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).is_some());
}

#[test]
fn two_legacy_hops_preserve_the_ia() {
    let prefix = p("128.6.0.0/16");
    let (update, original_ia) = dbgp_island_update(prefix, 65_001);
    let mut hop1 = established(65_000, 65_001);
    let mut hop2 = established(64_000, 65_000);

    let frame = BgpMessage::Update(update).encode(true);
    let outputs = hop1.receive(10, PeerId(0), &frame);
    let relayed = outputs
        .iter()
        .find_map(|o| match o {
            dbgp::bgp::Output::Send(PeerId(1), _, bytes) => Some(bytes.clone()),
            _ => None,
        })
        .unwrap();
    let outputs = hop2.receive(20, PeerId(0), &relayed);
    let relayed2 = outputs
        .iter()
        .find_map(|o| match o {
            dbgp::bgp::Output::Send(PeerId(1), _, bytes) => Some(bytes.clone()),
            _ => None,
        })
        .expect("second legacy hop relays too");
    let mut buf = bytes::BytesMut::from(&relayed2[..]);
    let u = match BgpMessage::decode(&mut buf, true).unwrap().unwrap() {
        BgpMessage::Update(u) => u,
        other => panic!("expected UPDATE, got {other:?}"),
    };
    assert_eq!(extract_ia(&u).unwrap().unwrap(), original_ia);
}
