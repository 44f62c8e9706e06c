//! MIRO (Xu & Rexford, SIGCOMM'06) deployed over D-BGP: the paper's
//! worked example of a *custom protocol* sold as a value-added service
//! (§2.3, §3.4, Figure 2).
//!
//! MIRO islands sell alternate paths. The problem D-BGP solves for them
//! is **discovery**: with plain BGP, a transit island stuck with a bad
//! path cannot even find out that a MIRO island off-path offers better
//! ones. Over D-BGP, the MIRO island attaches an island descriptor with
//! its service portal's address ([`dkey::MIRO_PORTAL`]); the descriptor
//! is passed through gulfs, so any AS that hears *any* IA touching the
//! island (on-path discovery) — or an IA for the portal's own prefix
//! (off-path discovery) — can contact the portal out-of-band, negotiate
//! a path for payment, and tunnel traffic to it (§3.4's four-step walk).

use bytes::{Buf, Bytes, BytesMut};
use dbgp_core::module::{DecisionModule, ExportContext};
use dbgp_wire::ia::dkey;
use dbgp_wire::varint::{get_uvarint, put_uvarint};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};

/// Discover MIRO service portals advertised along an IA's path.
pub fn find_portals(ia: &Ia) -> Vec<(IslandId, Ipv4Addr)> {
    ia.island_addrs(ProtocolId::MIRO, dkey::MIRO_PORTAL).collect()
}

/// A customer's request to a MIRO portal: "offer me alternate paths to
/// `dst`, costing at most `max_price`."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MiroRequest {
    /// Destination the customer wants alternatives for.
    pub dst: Ipv4Prefix,
    /// Price ceiling.
    pub max_price: u64,
}

impl MiroRequest {
    /// Serialize for the out-of-band channel.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        self.dst.encode(&mut buf);
        put_uvarint(&mut buf, self.max_price);
        buf.to_vec()
    }

    /// Parse from the out-of-band channel.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let dst = Ipv4Prefix::decode(&mut buf).ok()?;
        let max_price = get_uvarint(&mut buf).ok()?;
        (!buf.has_remaining()).then_some(MiroRequest { dst, max_price })
    }
}

/// One alternate path a MIRO portal offers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiroOffer {
    /// AS-level path of the alternative.
    pub path: Vec<u32>,
    /// Price to use it.
    pub price: u64,
    /// Tunnel entry point the customer must encapsulate toward.
    pub tunnel_endpoint: Ipv4Addr,
}

impl MiroOffer {
    /// Serialize one offer.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, self.path.len() as u64);
        for asn in &self.path {
            put_uvarint(&mut buf, *asn as u64);
        }
        put_uvarint(&mut buf, self.price);
        buf.extend_from_slice(&self.tunnel_endpoint.octets());
        buf.to_vec()
    }

    /// Parse one offer.
    pub fn from_bytes(data: &[u8]) -> Option<Self> {
        let mut buf = Bytes::copy_from_slice(data);
        let n = get_uvarint(&mut buf).ok()? as usize;
        if n > data.len() {
            return None;
        }
        let mut path = Vec::with_capacity(n);
        for _ in 0..n {
            path.push(get_uvarint(&mut buf).ok()? as u32);
        }
        let price = get_uvarint(&mut buf).ok()?;
        if buf.remaining() != 4 {
            return None;
        }
        let tunnel_endpoint = Ipv4Addr(buf.get_u32());
        Some(MiroOffer { path, price, tunnel_endpoint })
    }
}

/// The server side of a MIRO island: the portal customers negotiate
/// with. Lives behind the out-of-band bus in the simulator.
#[derive(Debug, Clone, Default)]
pub struct MiroPortal {
    offers: Vec<(Ipv4Prefix, MiroOffer)>,
    /// Completed sales: (destination, price) — bookkeeping for the
    /// value-added-service story.
    pub sales: Vec<(Ipv4Prefix, u64)>,
}

impl MiroPortal {
    /// An empty portal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an alternate path for sale.
    pub fn offer(&mut self, dst: Ipv4Prefix, offer: MiroOffer) {
        self.offers.push((dst, offer));
    }

    /// Handle a customer request: the cheapest in-budget offer whose
    /// destination covers the request.
    pub fn negotiate(&mut self, request: MiroRequest) -> Option<MiroOffer> {
        let chosen = self
            .offers
            .iter()
            .filter(|(dst, offer)| {
                (dst == &request.dst || dst.covers(&request.dst))
                    && offer.price <= request.max_price
            })
            .min_by_key(|(_, offer)| offer.price)
            .map(|(dst, offer)| (*dst, offer.clone()))?;
        self.sales.push((chosen.0, chosen.1.price));
        Some(chosen.1)
    }
}

/// A tunnel established after negotiation: encapsulate packets for
/// `inner_dst` toward `entry`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tunnel {
    /// Tunnel entry (outer destination).
    pub entry: Ipv4Addr,
    /// Real destination (inner header).
    pub inner_dst: Ipv4Addr,
}

/// The MIRO decision module for an island selling alternate paths. MIRO
/// runs *in parallel* with the baseline (§2.3): it never takes over path
/// selection, it only advertises the service.
#[derive(Debug, Clone)]
pub struct MiroModule {
    island: IslandId,
    portal_addr: Ipv4Addr,
}

impl MiroModule {
    /// Create the module with the portal customers should contact.
    pub fn new(island: IslandId, portal_addr: Ipv4Addr) -> Self {
        MiroModule { island, portal_addr }
    }

    fn attach(&self, ia: &mut Ia) {
        ia.ensure_island_descriptor(self.island, ProtocolId::MIRO, dkey::MIRO_PORTAL, || {
            self.portal_addr.octets().to_vec()
        });
    }
}

impl DecisionModule for MiroModule {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::MIRO
    }

    // Custom protocols route *selected* traffic out-of-band; selection
    // stays the baseline's.

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

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn request_codec_roundtrip() {
        let r = MiroRequest { dst: p("131.1.0.0/16"), max_price: 500 };
        assert_eq!(MiroRequest::from_bytes(&r.to_bytes()), Some(r));
        assert_eq!(MiroRequest::from_bytes(&[1]), None);
    }

    #[test]
    fn offer_codec_roundtrip() {
        let o = MiroOffer {
            path: vec![100, 200, 300],
            price: 250,
            tunnel_endpoint: Ipv4Addr::new(173, 82, 2, 0),
        };
        assert_eq!(MiroOffer::from_bytes(&o.to_bytes()), Some(o));
        assert_eq!(MiroOffer::from_bytes(&[0xff; 2]), None);
    }

    #[test]
    fn portal_negotiates_cheapest_in_budget() {
        let mut portal = MiroPortal::new();
        portal.offer(
            p("131.1.0.0/16"),
            MiroOffer { path: vec![1, 2], price: 300, tunnel_endpoint: Ipv4Addr(1) },
        );
        portal.offer(
            p("131.1.0.0/16"),
            MiroOffer { path: vec![1, 3, 4], price: 100, tunnel_endpoint: Ipv4Addr(2) },
        );
        let offer =
            portal.negotiate(MiroRequest { dst: p("131.1.0.0/16"), max_price: 500 }).unwrap();
        assert_eq!(offer.price, 100);
        assert_eq!(portal.sales.len(), 1);
    }

    #[test]
    fn portal_respects_budget_and_coverage() {
        let mut portal = MiroPortal::new();
        portal.offer(
            p("131.1.0.0/16"),
            MiroOffer { path: vec![1], price: 300, tunnel_endpoint: Ipv4Addr(1) },
        );
        assert!(portal.negotiate(MiroRequest { dst: p("131.1.0.0/16"), max_price: 100 }).is_none());
        assert!(portal.negotiate(MiroRequest { dst: p("10.0.0.0/8"), max_price: 1000 }).is_none());
        // A more specific destination is covered by the /16 offer.
        assert!(portal
            .negotiate(MiroRequest { dst: p("131.1.5.0/24"), max_price: 1000 })
            .is_some());
    }

    #[test]
    fn portal_descriptor_survives_gulf_transit() {
        let mut module = MiroModule::new(IslandId(1007), Ipv4Addr::new(173, 82, 2, 0));
        let mut ia = Ia::originate(p("131.4.0.0/24"), Ipv4Addr::new(9, 9, 9, 9));
        module.decorate_origin(&mut ia, 11);
        // Cross a gulf hop: wire round-trip then another AS prepends.
        let mut ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        ia.prepend_as(4000);
        let ia = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(find_portals(&ia), vec![(IslandId(1007), Ipv4Addr::new(173, 82, 2, 0))]);
    }

    #[test]
    fn attach_is_idempotent() {
        let module = MiroModule::new(IslandId(1007), Ipv4Addr::new(173, 82, 2, 0));
        let mut ia = Ia::originate(p("131.4.0.0/24"), Ipv4Addr::new(9, 9, 9, 9));
        module.attach(&mut ia);
        module.attach(&mut ia);
        assert_eq!(find_portals(&ia).len(), 1);
    }
}
