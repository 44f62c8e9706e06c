//! Address-format evolution support (paper §3.2): stub islands using a
//! non-baseline address format (IPv6, content names, ...) originate an
//! IA for a *gateway* plus an island descriptor pointing at a lookup
//! service that maps new-format addresses to within-island gateways.
//! "This would let islands route traffic among themselves using the new
//! format."
//!
//! We model the new format as opaque byte-string addresses (enough for
//! IPv6 or NDN-style names) and provide both the descriptor plumbing and
//! the lookup-service payloads carried over the out-of-band bus.

use bytes::{Buf, Bytes, BytesMut};
use dbgp_core::module::{DecisionModule, ExportContext};
use dbgp_wire::ia::dkey;
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Addr, IslandId, ProtocolId};
use std::collections::HashMap;

/// An address in the island's new format: opaque bytes (an IPv6
/// address, a content name, ...).
pub type NewFormatAddr = Vec<u8>;

/// The lookup service is protocol-agnostic infrastructure; its
/// descriptor is filed under the baseline's ID.
const LOOKUP_PROTOCOL: ProtocolId = ProtocolId::BGP;

/// Find address-lookup services advertised along an IA's path:
/// (island, service address) pairs.
pub fn lookup_services(ia: &Ia) -> Vec<(IslandId, Ipv4Addr)> {
    ia.island_addrs(LOOKUP_PROTOCOL, dkey::ADDR_LOOKUP_SERVICE).collect()
}

/// A mapping query: "which gateway do I tunnel to for this new-format
/// address?"
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapQuery {
    /// The new-format address to resolve.
    pub addr: NewFormatAddr,
}

impl MapQuery {
    /// Serialize for the out-of-band bus.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.addr.len() as u64);
        buf.extend_from_slice(&self.addr);
        buf.to_vec()
    }

    /// Parse from the out-of-band bus.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let n = get_uvarint(&mut buf).ok()? as usize;
        if buf.remaining() != n {
            return None;
        }
        Some(MapQuery { addr: buf.to_vec() })
    }
}

/// The mapping service an island operates: new-format address →
/// baseline-format gateway.
#[derive(Debug, Clone, Default)]
pub struct AddressMapService {
    entries: HashMap<NewFormatAddr, Ipv4Addr>,
}

impl AddressMapService {
    /// An empty service.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a mapping.
    pub fn register(&mut self, addr: NewFormatAddr, gateway: Ipv4Addr) {
        self.entries.insert(addr, gateway);
    }

    /// Resolve a query; `None` if the address is unknown.
    pub fn resolve(&self, query: &MapQuery) -> Option<Ipv4Addr> {
        self.entries.get(&query.addr).copied()
    }

    /// Number of registered mappings.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no mappings are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Decision module for a stub island evolving its address format: BGP
/// selection plus the lookup-service island descriptor on everything it
/// originates or forwards.
#[derive(Debug, Clone)]
pub struct AddrMapModule {
    island: IslandId,
    service_addr: Ipv4Addr,
}

impl AddrMapModule {
    /// Create the module with the island's lookup-service address.
    pub fn new(island: IslandId, service_addr: Ipv4Addr) -> Self {
        AddrMapModule { island, service_addr }
    }

    fn attach(&self, ia: &mut Ia) {
        ia.ensure_island_descriptor(
            self.island,
            LOOKUP_PROTOCOL,
            dkey::ADDR_LOOKUP_SERVICE,
            || self.service_addr.octets().to_vec(),
        );
    }
}

impl DecisionModule for AddrMapModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGP
    }

    fn export(&mut self, ia: &mut Ia, _ctx: ExportContext) {
        self.attach(ia);
    }

    fn decorate_origin(&mut self, ia: &mut Ia, _local_as: u32) {
        self.attach(ia);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Prefix;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn query_codec_roundtrip() {
        let q = MapQuery { addr: b"2001:db8::42".to_vec() };
        assert_eq!(MapQuery::from_bytes(&q.to_bytes()), Some(q));
        assert_eq!(MapQuery::from_bytes(&[5, 1]), None);
    }

    #[test]
    fn service_resolves_registered_addresses() {
        let mut svc = AddressMapService::new();
        svc.register(b"2001:db8::42".to_vec(), Ipv4Addr::new(192, 0, 2, 1));
        svc.register(b"/ndn/video/cat".to_vec(), Ipv4Addr::new(192, 0, 2, 2));
        assert_eq!(
            svc.resolve(&MapQuery { addr: b"2001:db8::42".to_vec() }),
            Some(Ipv4Addr::new(192, 0, 2, 1))
        );
        assert_eq!(svc.resolve(&MapQuery { addr: b"unknown".to_vec() }), None);
        assert_eq!(svc.len(), 2);
    }

    #[test]
    fn descriptor_survives_gulf_transit() {
        let mut module = AddrMapModule::new(IslandId(70), Ipv4Addr::new(198, 18, 0, 1));
        let mut ia = Ia::originate(p("203.0.113.0/24"), Ipv4Addr::new(9, 9, 9, 9));
        module.decorate_origin(&mut ia, 1);
        let mut ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        ia.prepend_as(4000); // gulf hop
        let ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(lookup_services(&ia), vec![(IslandId(70), Ipv4Addr::new(198, 18, 0, 1))]);
    }

    #[test]
    fn a_foreign_descriptor_under_the_same_key_is_not_a_lookup_service() {
        // Key numbers are only unique per protocol: MIRO's key 9 is not
        // the lookup service's key 9, four bytes long or not.
        let ia = Ia::builder(p("203.0.113.0/24"), Ipv4Addr::new(9, 9, 9, 9))
            .island_descriptor(
                IslandId(70),
                ProtocolId::MIRO,
                dkey::ADDR_LOOKUP_SERVICE,
                vec![198, 18, 0, 1],
            )
            .build()
            .unwrap();
        assert_eq!(lookup_services(&ia), vec![]);
        // Nor does it stand in for this island's own descriptor.
        let mut ia = ia;
        AddrMapModule::new(IslandId(70), Ipv4Addr::new(198, 18, 0, 2)).attach(&mut ia);
        assert_eq!(lookup_services(&ia), vec![(IslandId(70), Ipv4Addr::new(198, 18, 0, 2))]);
    }

    #[test]
    fn attach_is_idempotent() {
        let module = AddrMapModule::new(IslandId(70), Ipv4Addr::new(198, 18, 0, 1));
        let mut ia = Ia::originate(p("203.0.113.0/24"), Ipv4Addr::new(9, 9, 9, 9));
        module.attach(&mut ia);
        module.attach(&mut ia);
        assert_eq!(lookup_services(&ia).len(), 1);
    }
}
