//! Shared topology builders for the daemon's unit and interop tests.

use crate::config::DaemonConfig;
use dbgp_wire::attrs::{AsPath, Origin, PathAttribute};
use dbgp_wire::message::{BgpMessage, OpenMsg, UpdateMsg};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};

/// Raw config texts for the five-node "gulf" line A–B–C–D–E
/// (AS 65001..65005): every AS originates one /16, every adjacency
/// dials from both sides (so collision resolution is always
/// exercised), and C — the middle AS — is a legacy island that does
/// not advertise the IA capability, the paper's gulf scenario in
/// miniature.
pub fn gulf5_config_texts(base_port: u16) -> Vec<String> {
    let mut texts = Vec::new();
    for i in 0u16..5 {
        let asn = 65001 + i as u32;
        let ia = if i == 2 { "" } else { " ia" };
        let mut text = format!(
            "local-as {asn}\nrouter-id 10.0.0.{}\nlisten 127.0.0.1:{}\n\
             hold-time 9\nconnect-retry-ms 200\nnetwork 10.{}.0.0/16\n",
            i + 1,
            base_port + i,
            i + 1,
        );
        if i > 0 {
            text.push_str(&format!(
                "neighbor as={} addr=127.0.0.1:{}{ia}\n",
                65000 + i as u32,
                base_port + i - 1,
            ));
        }
        if i < 4 {
            text.push_str(&format!(
                "neighbor as={} addr=127.0.0.1:{}{ia}\n",
                65002 + i as u32,
                base_port + i + 1,
            ));
        }
        texts.push(text);
    }
    texts
}

/// [`gulf5_config_texts`], parsed.
pub fn gulf5_configs(base_port: u16) -> Vec<DaemonConfig> {
    gulf5_config_texts(base_port)
        .iter()
        .map(|t| DaemonConfig::parse(t).expect("valid gulf config"))
        .collect()
}

/// A symmetric two-node pair (AS 65001 ↔ 65002), both sides dialing —
/// the minimal topology that still exercises collision resolution.
pub fn pair_config_texts(base_port: u16) -> Vec<String> {
    vec![
        format!(
            "local-as 65001\nrouter-id 10.0.0.1\nlisten 127.0.0.1:{p0}\n\
             hold-time 9\nconnect-retry-ms 200\nnetwork 10.1.0.0/16\n\
             neighbor as=65002 addr=127.0.0.1:{p1} ia\n",
            p0 = base_port,
            p1 = base_port + 1,
        ),
        format!(
            "local-as 65002\nrouter-id 10.0.0.2\nlisten 127.0.0.1:{p1}\n\
             hold-time 9\nconnect-retry-ms 200\nnetwork 10.2.0.0/16\n\
             neighbor as=65001 addr=127.0.0.1:{p0} ia\n",
            p0 = base_port,
            p1 = base_port + 1,
        ),
    ]
}

/// AS of the hub daemon in the data-path tests.
pub const HUB_AS: u32 = 65000;

/// Config text of a hub that only listens: one passive neighbor per
/// entry of `neighbor_asns`, in that order (so `PeerId(i)` is
/// `neighbor_asns[i]`). `listen` is `None` for an in-process `Node`.
pub fn hub_config_text(listen: Option<&str>, neighbor_asns: &[u32]) -> String {
    let mut text = format!("local-as {HUB_AS}\nrouter-id 10.0.0.100\nhold-time 180\n");
    if let Some(addr) = listen {
        text.push_str(&format!("listen {addr}\n"));
    }
    for asn in neighbor_asns {
        text.push_str(&format!("neighbor as={asn} passive\n"));
    }
    text
}

/// The OPEN a test peer in AS `asn` sends the hub.
pub fn open_bytes(asn: u32) -> Vec<u8> {
    let router_id = Ipv4Addr::new(10, 0, (asn >> 8) as u8, asn as u8);
    BgpMessage::Open(OpenMsg::new(asn, 180, router_id)).encode(true).to_vec()
}

/// A KEEPALIVE.
pub fn keepalive_bytes() -> Vec<u8> {
    BgpMessage::Keepalive.encode(true).to_vec()
}

/// A synthetic routing table on the wire.
pub struct TableBytes {
    /// Every prefix, in announcement order.
    pub prefixes: Vec<Ipv4Prefix>,
    /// The announcements: 50 NLRI to an UPDATE, a different AS path
    /// for each UPDATE, concatenated.
    pub announce: Vec<u8>,
    /// The packed withdrawals, concatenated.
    pub withdraw: Vec<u8>,
}

/// `routes` distinct /24s (at most 65,536) as announced by AS `peer_as`.
pub fn table_bytes(routes: usize, peer_as: u32) -> TableBytes {
    assert!(routes <= 1 << 16, "10.0.0.0/8 holds 65,536 /24s");
    let prefixes: Vec<Ipv4Prefix> = (0..routes)
        .map(|i| Ipv4Prefix::new(Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 0), 24).expect("a /24"))
        .collect();
    let mut announce = Vec::new();
    for (k, nlri) in prefixes.chunks(50).enumerate() {
        let attributes = vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence(vec![peer_as, 64_500 + (k % 200) as u32])),
            PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
        ];
        let update = UpdateMsg::announce(nlri.to_vec(), attributes);
        announce.extend_from_slice(&BgpMessage::Update(update).encode(true));
    }
    let withdraw = UpdateMsg::pack_withdrawals(&prefixes)
        .into_iter()
        .flat_map(|u| BgpMessage::Update(u).encode(true).to_vec())
        .collect();
    TableBytes { prefixes, announce, withdraw }
}
