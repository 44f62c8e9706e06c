//! BGP-4 message framing and the four message bodies (RFC 4271 §4),
//! including the capabilities optional parameter (RFC 5492) and the
//! 4-octet-AS capability (RFC 6793).

use crate::attrs::{self, PathAttribute};
use crate::error::{WireError, WireResult};
use crate::prefix::{Ipv4Addr, Ipv4Prefix};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Minimum BGP message length: the 19-byte header alone (KEEPALIVE).
pub const MIN_MESSAGE_LEN: usize = 19;
/// Maximum BGP message length (RFC 4271 §4.1).
pub const MAX_MESSAGE_LEN: usize = 4096;
/// BGP version implemented.
pub const BGP_VERSION: u8 = 4;

/// OPEN message type code.
pub const TYPE_OPEN: u8 = 1;
/// UPDATE message type code.
pub const TYPE_UPDATE: u8 = 2;
/// NOTIFICATION message type code.
pub const TYPE_NOTIFICATION: u8 = 3;
/// KEEPALIVE message type code.
pub const TYPE_KEEPALIVE: u8 = 4;

/// A capability advertised in an OPEN's optional parameters (RFC 5492).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Capability {
    /// Multiprotocol extensions (RFC 4760): AFI/SAFI pair.
    Multiprotocol {
        /// Address family identifier (1 = IPv4).
        afi: u16,
        /// Subsequent address family identifier (1 = unicast).
        safi: u8,
    },
    /// Four-octet AS numbers (RFC 6793), carrying the speaker's real ASN.
    FourOctetAs(u32),
    /// D-BGP support: the speaker understands Integrated Advertisements.
    /// Uses an experimental capability code.
    DbgpIa,
    /// A capability we do not recognize; preserved verbatim.
    Unknown {
        /// Capability code.
        code: u8,
        /// Raw capability value.
        value: Bytes,
    },
}

const CAP_MULTIPROTOCOL: u8 = 1;
const CAP_FOUR_OCTET_AS: u8 = 65;
const CAP_DBGP_IA: u8 = 230; // experimental range

impl Capability {
    fn encode(&self, buf: &mut impl BufMut) {
        match self {
            Capability::Multiprotocol { afi, safi } => {
                buf.put_u8(CAP_MULTIPROTOCOL);
                buf.put_u8(4);
                buf.put_u16(*afi);
                buf.put_u8(0);
                buf.put_u8(*safi);
            }
            Capability::FourOctetAs(asn) => {
                buf.put_u8(CAP_FOUR_OCTET_AS);
                buf.put_u8(4);
                buf.put_u32(*asn);
            }
            Capability::DbgpIa => {
                buf.put_u8(CAP_DBGP_IA);
                buf.put_u8(0);
            }
            Capability::Unknown { code, value } => {
                buf.put_u8(*code);
                buf.put_u8(value.len() as u8);
                buf.put_slice(value);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        if buf.remaining() < 2 {
            return Err(WireError::Truncated { context: "capability header" });
        }
        let code = buf.get_u8();
        let len = buf.get_u8() as usize;
        if buf.remaining() < len {
            return Err(WireError::Truncated { context: "capability value" });
        }
        let mut value = buf.split_to(len);
        Ok(match (code, len) {
            (CAP_MULTIPROTOCOL, 4) => {
                let afi = value.get_u16();
                let _reserved = value.get_u8();
                let safi = value.get_u8();
                Capability::Multiprotocol { afi, safi }
            }
            (CAP_FOUR_OCTET_AS, 4) => Capability::FourOctetAs(value.get_u32()),
            (CAP_DBGP_IA, 0) => Capability::DbgpIa,
            _ => Capability::Unknown { code, value },
        })
    }
}

/// The OPEN message (RFC 4271 §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenMsg {
    /// Protocol version; always 4 on encode.
    pub version: u8,
    /// The 2-octet "My Autonomous System" field. Speakers with 4-octet
    /// ASNs put [`attrs::AS_TRANS`] here and their real ASN in the
    /// [`Capability::FourOctetAs`] capability.
    pub my_as: u16,
    /// Proposed hold time in seconds (0, or >= 3).
    pub hold_time: u16,
    /// BGP identifier (router ID).
    pub bgp_id: Ipv4Addr,
    /// Advertised capabilities.
    pub capabilities: Vec<Capability>,
}

impl OpenMsg {
    /// Build an OPEN for a speaker with the given (possibly 4-octet) ASN.
    pub fn new(asn: u32, hold_time: u16, bgp_id: Ipv4Addr) -> Self {
        let my_as = if asn > u16::MAX as u32 { attrs::AS_TRANS as u16 } else { asn as u16 };
        OpenMsg {
            version: BGP_VERSION,
            my_as,
            hold_time,
            bgp_id,
            capabilities: vec![
                Capability::Multiprotocol { afi: 1, safi: 1 },
                Capability::FourOctetAs(asn),
            ],
        }
    }

    /// The effective ASN: the 4-octet capability value if present, else
    /// the 2-octet field.
    pub fn effective_as(&self) -> u32 {
        for cap in &self.capabilities {
            if let Capability::FourOctetAs(asn) = cap {
                return *asn;
            }
        }
        self.my_as as u32
    }

    /// Whether the peer advertised D-BGP IA support.
    pub fn supports_ia(&self) -> bool {
        self.capabilities.contains(&Capability::DbgpIa)
    }

    fn encode_body(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.version);
        buf.put_u16(self.my_as);
        buf.put_u16(self.hold_time);
        buf.put_u32(self.bgp_id.0);
        let mut caps = BytesMut::new();
        for cap in &self.capabilities {
            cap.encode(&mut caps);
        }
        if caps.is_empty() {
            buf.put_u8(0);
        } else {
            // One optional parameter of type 2 (capabilities) wrapping all
            // capabilities, the common practice.
            buf.put_u8((caps.len() + 2) as u8);
            buf.put_u8(2);
            buf.put_u8(caps.len() as u8);
            buf.put_slice(&caps);
        }
    }

    fn decode_body(mut buf: Bytes) -> WireResult<Self> {
        if buf.remaining() < 10 {
            return Err(WireError::Truncated { context: "OPEN body" });
        }
        let version = buf.get_u8();
        if version != BGP_VERSION {
            return Err(WireError::UnsupportedVersion(version));
        }
        let my_as = buf.get_u16();
        let hold_time = buf.get_u16();
        if hold_time == 1 || hold_time == 2 {
            return Err(WireError::UnacceptableHoldTime(hold_time));
        }
        let bgp_id = Ipv4Addr(buf.get_u32());
        let opt_len = buf.get_u8() as usize;
        if buf.remaining() < opt_len {
            return Err(WireError::Truncated { context: "OPEN optional parameters" });
        }
        let mut params = buf.split_to(opt_len);
        let mut capabilities = Vec::new();
        while params.has_remaining() {
            if params.remaining() < 2 {
                return Err(WireError::Truncated { context: "optional parameter header" });
            }
            let ptype = params.get_u8();
            let plen = params.get_u8() as usize;
            if params.remaining() < plen {
                return Err(WireError::Truncated { context: "optional parameter body" });
            }
            let mut pbody = params.split_to(plen);
            if ptype == 2 {
                while pbody.has_remaining() {
                    capabilities.push(Capability::decode(&mut pbody)?);
                }
            }
            // Other parameter types (deprecated auth) are skipped.
        }
        Ok(OpenMsg { version, my_as, hold_time, bgp_id, capabilities })
    }
}

/// The UPDATE message (RFC 4271 §4.3).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UpdateMsg {
    /// Prefixes no longer reachable via this peer.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// Attributes shared by every NLRI prefix below.
    pub attributes: Vec<PathAttribute>,
    /// Newly advertised prefixes.
    pub nlri: Vec<Ipv4Prefix>,
}

impl UpdateMsg {
    /// A pure withdrawal.
    pub fn withdraw(prefixes: Vec<Ipv4Prefix>) -> Self {
        UpdateMsg { withdrawn: prefixes, ..Default::default() }
    }

    /// An advertisement of `nlri` with the given attributes.
    pub fn announce(nlri: Vec<Ipv4Prefix>, attributes: Vec<PathAttribute>) -> Self {
        UpdateMsg { withdrawn: Vec::new(), attributes, nlri }
    }

    /// Find an attribute by type code.
    pub fn attr(&self, code: u8) -> Option<&PathAttribute> {
        self.attributes.iter().find(|a| a.code() == code)
    }

    /// Wire size of one prefix in NLRI/withdrawn encoding: the length
    /// octet plus only the octets needed to cover the mask.
    pub fn prefix_wire_len(prefix: &Ipv4Prefix) -> usize {
        1 + (prefix.len() as usize).div_ceil(8)
    }

    /// [`prefix_wire_len`](Self::prefix_wire_len) of a /32.
    const MAX_PREFIX_WIRE_LEN: usize = 5;

    /// Split an announcement of `nlri` under one shared attribute block
    /// into as few UPDATEs as fit in [`MAX_MESSAGE_LEN`] (RFC 4271
    /// §4.3 allows any number of NLRI per message; the 4096-byte frame
    /// is the only bound). Every returned message clones the same
    /// attribute `Vec`, so the per-prefix attribute cost on the wire is
    /// amortized across the whole batch.
    ///
    /// `None` when the attribute block is so large that a frame could
    /// not carry one more prefix beside it: such a route cannot be
    /// announced at all. `Some` of an empty `Vec` for empty `nlri`.
    pub fn pack_announcements(
        nlri: &[Ipv4Prefix],
        attributes: Vec<PathAttribute>,
        four_octet: bool,
    ) -> Option<Vec<UpdateMsg>> {
        if nlri.is_empty() {
            return Some(Vec::new());
        }
        let mut attrs_buf = BytesMut::new();
        attrs::encode_attribute_list(&attributes, &mut attrs_buf, four_octet);
        // Header (19) + withdrawn-len (2) + attrs-len (2) + attrs.
        let overhead = MIN_MESSAGE_LEN + 4 + attrs_buf.len();
        let budget =
            MAX_MESSAGE_LEN.checked_sub(overhead).filter(|b| *b >= Self::MAX_PREFIX_WIRE_LEN)?;
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        let mut used = 0usize;
        for prefix in nlri {
            let cost = Self::prefix_wire_len(prefix);
            if used + cost > budget {
                out.push(UpdateMsg::announce(std::mem::take(&mut chunk), attributes.clone()));
                used = 0;
            }
            chunk.push(*prefix);
            used += cost;
        }
        out.push(UpdateMsg::announce(chunk, attributes));
        Some(out)
    }

    /// Split a withdrawal of `prefixes` into as few UPDATEs as fit in
    /// [`MAX_MESSAGE_LEN`]. Returns an empty `Vec` for empty input.
    pub fn pack_withdrawals(prefixes: &[Ipv4Prefix]) -> Vec<UpdateMsg> {
        if prefixes.is_empty() {
            return Vec::new();
        }
        let budget = MAX_MESSAGE_LEN - (MIN_MESSAGE_LEN + 4);
        let mut out = Vec::new();
        let mut chunk = Vec::new();
        let mut used = 0usize;
        for prefix in prefixes {
            let cost = Self::prefix_wire_len(prefix);
            if used + cost > budget && !chunk.is_empty() {
                out.push(UpdateMsg::withdraw(std::mem::take(&mut chunk)));
                used = 0;
            }
            chunk.push(*prefix);
            used += cost;
        }
        out.push(UpdateMsg::withdraw(chunk));
        out
    }

    fn encode_body(&self, buf: &mut impl BufMut, four_octet: bool) {
        let mut withdrawn = BytesMut::new();
        for p in &self.withdrawn {
            p.encode(&mut withdrawn);
        }
        buf.put_u16(withdrawn.len() as u16);
        buf.put_slice(&withdrawn);

        let mut attrs_buf = BytesMut::new();
        attrs::encode_attribute_list(&self.attributes, &mut attrs_buf, four_octet);
        buf.put_u16(attrs_buf.len() as u16);
        buf.put_slice(&attrs_buf);

        for p in &self.nlri {
            p.encode(buf);
        }
    }

    fn decode_body(mut buf: Bytes, four_octet: bool) -> WireResult<Self> {
        if buf.remaining() < 2 {
            return Err(WireError::Truncated { context: "UPDATE withdrawn length" });
        }
        let wlen = buf.get_u16() as usize;
        if buf.remaining() < wlen {
            return Err(WireError::Truncated { context: "UPDATE withdrawn routes" });
        }
        let mut wbuf = buf.split_to(wlen);
        let mut withdrawn = Vec::new();
        while wbuf.has_remaining() {
            withdrawn.push(Ipv4Prefix::decode(&mut wbuf)?);
        }

        if buf.remaining() < 2 {
            return Err(WireError::Truncated { context: "UPDATE attributes length" });
        }
        let alen = buf.get_u16() as usize;
        if buf.remaining() < alen {
            return Err(WireError::Truncated { context: "UPDATE attributes" });
        }
        let abuf = buf.split_to(alen);
        let attributes = attrs::decode_attribute_list(abuf, four_octet)?;

        let mut nlri = Vec::new();
        while buf.has_remaining() {
            nlri.push(Ipv4Prefix::decode(&mut buf)?);
        }

        // RFC 4271 §6.3: announcements require the well-known mandatory
        // attributes.
        if !nlri.is_empty() {
            for required in [attrs::code::ORIGIN, attrs::code::AS_PATH, attrs::code::NEXT_HOP] {
                if !attributes.iter().any(|a| a.code() == required) {
                    return Err(WireError::MissingWellKnownAttribute(required));
                }
            }
        }
        Ok(UpdateMsg { withdrawn, attributes, nlri })
    }
}

/// The NOTIFICATION message (RFC 4271 §4.5): fatal error report sent
/// immediately before closing the session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NotificationMsg {
    /// Major error code.
    pub error_code: u8,
    /// Error subcode.
    pub subcode: u8,
    /// Diagnostic data.
    pub data: Bytes,
}

/// NOTIFICATION major error codes.
pub mod notif {
    /// Message header error.
    pub const MESSAGE_HEADER_ERROR: u8 = 1;
    /// OPEN message error.
    pub const OPEN_ERROR: u8 = 2;
    /// UPDATE message error.
    pub const UPDATE_ERROR: u8 = 3;
    /// Hold timer expired.
    pub const HOLD_TIMER_EXPIRED: u8 = 4;
    /// FSM error.
    pub const FSM_ERROR: u8 = 5;
    /// Administrative cease.
    pub const CEASE: u8 = 6;
}

impl NotificationMsg {
    /// Build a NOTIFICATION with no diagnostic data.
    pub fn new(error_code: u8, subcode: u8) -> Self {
        NotificationMsg { error_code, subcode, data: Bytes::new() }
    }

    /// Map a decode failure to the NOTIFICATION a conformant speaker
    /// would emit for it.
    pub fn from_wire_error(err: &WireError) -> Self {
        use WireError::*;
        match err {
            BadMarker => NotificationMsg::new(notif::MESSAGE_HEADER_ERROR, 1),
            BadLength(_) | Truncated { .. } => NotificationMsg::new(notif::MESSAGE_HEADER_ERROR, 2),
            BadMessageType(_) => NotificationMsg::new(notif::MESSAGE_HEADER_ERROR, 3),
            UnsupportedVersion(_) => NotificationMsg::new(notif::OPEN_ERROR, 1),
            UnacceptableHoldTime(_) => NotificationMsg::new(notif::OPEN_ERROR, 6),
            BadAttributeFlags { .. } => NotificationMsg::new(notif::UPDATE_ERROR, 4),
            MissingWellKnownAttribute(_) => NotificationMsg::new(notif::UPDATE_ERROR, 3),
            DuplicateAttribute(_) | MalformedAttribute { .. } => {
                NotificationMsg::new(notif::UPDATE_ERROR, 5)
            }
            MalformedPrefix => NotificationMsg::new(notif::UPDATE_ERROR, 10),
            _ => NotificationMsg::new(notif::UPDATE_ERROR, 0),
        }
    }

    fn encode_body(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.error_code);
        buf.put_u8(self.subcode);
        buf.put_slice(&self.data);
    }

    fn decode_body(mut buf: Bytes) -> WireResult<Self> {
        if buf.remaining() < 2 {
            return Err(WireError::Truncated { context: "NOTIFICATION body" });
        }
        let error_code = buf.get_u8();
        let subcode = buf.get_u8();
        Ok(NotificationMsg { error_code, subcode, data: buf })
    }
}

/// Any BGP message, ready to frame onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BgpMessage {
    /// Session negotiation.
    Open(OpenMsg),
    /// Route advertisement / withdrawal.
    Update(UpdateMsg),
    /// Fatal error.
    Notification(NotificationMsg),
    /// Liveness probe.
    Keepalive,
}

impl BgpMessage {
    /// Encode with the 19-byte header (all-ones marker, length, type).
    ///
    /// `four_octet` selects the AS-number width for AS_PATH/AGGREGATOR and
    /// must match what the session negotiated.
    pub fn encode(&self, four_octet: bool) -> Bytes {
        let mut body = BytesMut::new();
        let ty = match self {
            BgpMessage::Open(m) => {
                m.encode_body(&mut body);
                TYPE_OPEN
            }
            BgpMessage::Update(m) => {
                m.encode_body(&mut body, four_octet);
                TYPE_UPDATE
            }
            BgpMessage::Notification(m) => {
                m.encode_body(&mut body);
                TYPE_NOTIFICATION
            }
            BgpMessage::Keepalive => TYPE_KEEPALIVE,
        };
        let total = MIN_MESSAGE_LEN + body.len();
        debug_assert!(total <= MAX_MESSAGE_LEN, "message exceeds 4096 bytes");
        let mut out = BytesMut::with_capacity(total);
        out.put_slice(&[0xff; 16]);
        out.put_u16(total as u16);
        out.put_u8(ty);
        out.put_slice(&body);
        out.freeze()
    }

    /// Decode one framed message from the front of `buf`, consuming it.
    ///
    /// Returns `Ok(None)` if `buf` does not yet hold a complete message
    /// (streaming use); errors are fatal to the session.
    pub fn decode(buf: &mut BytesMut, four_octet: bool) -> WireResult<Option<BgpMessage>> {
        if buf.len() < MIN_MESSAGE_LEN {
            return Ok(None);
        }
        if buf[..16] != [0xff; 16] {
            return Err(WireError::BadMarker);
        }
        let length = u16::from_be_bytes([buf[16], buf[17]]) as usize;
        if !(MIN_MESSAGE_LEN..=MAX_MESSAGE_LEN).contains(&length) {
            return Err(WireError::BadLength(length as u16));
        }
        if buf.len() < length {
            return Ok(None);
        }
        let frame = buf.split_to(length).freeze();
        let ty = frame[18];
        let body = frame.slice(MIN_MESSAGE_LEN..);
        let msg = match ty {
            TYPE_OPEN => BgpMessage::Open(OpenMsg::decode_body(body)?),
            TYPE_UPDATE => BgpMessage::Update(UpdateMsg::decode_body(body, four_octet)?),
            TYPE_NOTIFICATION => BgpMessage::Notification(NotificationMsg::decode_body(body)?),
            TYPE_KEEPALIVE => {
                if !body.is_empty() {
                    return Err(WireError::BadLength(length as u16));
                }
                BgpMessage::Keepalive
            }
            other => return Err(WireError::BadMessageType(other)),
        };
        Ok(Some(msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::{AsPath, Origin};

    fn roundtrip(msg: BgpMessage) -> BgpMessage {
        let bytes = msg.encode(true);
        let mut buf = BytesMut::from(&bytes[..]);
        let out = BgpMessage::decode(&mut buf, true).unwrap().unwrap();
        assert!(buf.is_empty());
        out
    }

    fn sample_update() -> UpdateMsg {
        UpdateMsg::announce(
            vec!["128.6.0.0/16".parse().unwrap(), "10.0.0.0/8".parse().unwrap()],
            vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(AsPath::from_sequence(vec![100, 200, 70000])),
                PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
                PathAttribute::Med(50),
            ],
        )
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(roundtrip(BgpMessage::Keepalive), BgpMessage::Keepalive);
    }

    #[test]
    fn keepalive_is_exactly_19_bytes() {
        assert_eq!(BgpMessage::Keepalive.encode(true).len(), 19);
    }

    #[test]
    fn open_roundtrip_preserves_capabilities() {
        let open = OpenMsg::new(70000, 90, Ipv4Addr::new(10, 0, 0, 1));
        let out = roundtrip(BgpMessage::Open(open.clone()));
        match out {
            BgpMessage::Open(o) => {
                assert_eq!(o.my_as, attrs::AS_TRANS as u16);
                assert_eq!(o.effective_as(), 70000);
                assert_eq!(o.hold_time, 90);
                assert_eq!(o.bgp_id, Ipv4Addr::new(10, 0, 0, 1));
            }
            other => panic!("expected OPEN, got {other:?}"),
        }
    }

    #[test]
    fn open_small_asn_goes_in_my_as_field() {
        let open = OpenMsg::new(64512, 180, Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(open.my_as, 64512);
        assert_eq!(open.effective_as(), 64512);
    }

    #[test]
    fn open_ia_capability_detected() {
        let mut open = OpenMsg::new(100, 90, Ipv4Addr::new(1, 1, 1, 1));
        assert!(!open.supports_ia());
        open.capabilities.push(Capability::DbgpIa);
        let out = roundtrip(BgpMessage::Open(open));
        match out {
            BgpMessage::Open(o) => assert!(o.supports_ia()),
            other => panic!("expected OPEN, got {other:?}"),
        }
    }

    #[test]
    fn open_rejects_bad_version() {
        let open = OpenMsg { version: 3, ..OpenMsg::new(100, 90, Ipv4Addr::new(1, 1, 1, 1)) };
        let bytes = BgpMessage::Open(open).encode(true);
        let mut buf = BytesMut::from(&bytes[..]);
        assert_eq!(BgpMessage::decode(&mut buf, true), Err(WireError::UnsupportedVersion(3)));
    }

    #[test]
    fn open_rejects_hold_time_one_and_two() {
        for ht in [1u16, 2] {
            let open =
                OpenMsg { hold_time: ht, ..OpenMsg::new(100, 90, Ipv4Addr::new(1, 1, 1, 1)) };
            let bytes = BgpMessage::Open(open).encode(true);
            let mut buf = BytesMut::from(&bytes[..]);
            assert_eq!(
                BgpMessage::decode(&mut buf, true),
                Err(WireError::UnacceptableHoldTime(ht))
            );
        }
    }

    #[test]
    fn update_roundtrip() {
        let update = sample_update();
        let out = roundtrip(BgpMessage::Update(update.clone()));
        match out {
            BgpMessage::Update(u) => {
                assert_eq!(u.nlri, update.nlri);
                assert_eq!(u.attributes.len(), 4);
                assert_eq!(u.attr(attrs::code::MED), Some(&PathAttribute::Med(50)));
            }
            other => panic!("expected UPDATE, got {other:?}"),
        }
    }

    #[test]
    fn pack_announcements_splits_at_frame_limit_and_roundtrips() {
        // 2000 /24s cost 4 bytes each on the wire; they cannot fit in
        // one 4096-byte frame, so the packer must split — and the split
        // messages must decode back to exactly the input set, in order.
        let nlri: Vec<Ipv4Prefix> = (0..2000u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr(0x0a00_0000 | (i << 8)), 24).unwrap())
            .collect();
        let attrs = sample_update().attributes;
        let msgs = UpdateMsg::pack_announcements(&nlri, attrs.clone(), true).unwrap();
        assert!(msgs.len() > 1, "2000 prefixes cannot fit one frame");
        let mut decoded = Vec::new();
        for msg in &msgs {
            assert_eq!(msg.attributes, attrs, "attribute block shared verbatim");
            let bytes = BgpMessage::Update(msg.clone()).encode(true);
            assert!(bytes.len() <= MAX_MESSAGE_LEN, "frame of {} bytes", bytes.len());
            let mut buf = BytesMut::from(&bytes[..]);
            match BgpMessage::decode(&mut buf, true).unwrap().unwrap() {
                BgpMessage::Update(u) => decoded.extend(u.nlri),
                other => panic!("expected UPDATE, got {other:?}"),
            }
        }
        assert_eq!(decoded, nlri);
    }

    #[test]
    fn pack_announcements_single_message_when_it_fits() {
        let nlri: Vec<Ipv4Prefix> = vec!["10.0.0.0/8".parse().unwrap()];
        let msgs = UpdateMsg::pack_announcements(&nlri, sample_update().attributes, true).unwrap();
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0].nlri, nlri);
        assert_eq!(UpdateMsg::pack_announcements(&[], Vec::new(), true), Some(Vec::new()));
    }

    #[test]
    fn pack_announcements_refuses_a_block_that_leaves_no_room_for_a_prefix() {
        // ORIGIN (4) + AS_PATH (3 + 2 + 4) + NEXT_HOP (7) = 20 octets;
        // COMMUNITIES adds 4 + 4n. A frame has 4096 - 23 = 4073 octets
        // for attributes and NLRI together.
        let block = |communities: u32| {
            vec![
                PathAttribute::Origin(Origin::Igp),
                PathAttribute::AsPath(AsPath::from_sequence(vec![70000])),
                PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
                PathAttribute::Communities((0..communities).collect()),
            ]
        };
        let slash32: Vec<Ipv4Prefix> = vec!["10.1.2.3/32".parse().unwrap(); 2];
        // 1011 communities: 4068 octets of attributes, 5 left — one /32
        // per frame, each exactly 4096 bytes.
        let msgs = UpdateMsg::pack_announcements(&slash32, block(1011), true).unwrap();
        assert_eq!(msgs.len(), 2);
        for msg in msgs {
            assert_eq!(BgpMessage::Update(msg).encode(true).len(), MAX_MESSAGE_LEN);
        }
        // One more community leaves 1 octet: refused whatever the
        // prefix, so that a route is announceable or not as a whole.
        assert_eq!(UpdateMsg::pack_announcements(&slash32, block(1012), true), None);
        let short: Vec<Ipv4Prefix> = vec!["0.0.0.0/0".parse().unwrap()];
        assert_eq!(UpdateMsg::pack_announcements(&short, block(1012), true), None);
        assert_eq!(UpdateMsg::pack_announcements(&short, block(2000), true), None);
    }

    #[test]
    fn pack_withdrawals_splits_and_roundtrips() {
        let prefixes: Vec<Ipv4Prefix> = (0..2000u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr(0xc000_0000 | (i << 8)), 24).unwrap())
            .collect();
        let msgs = UpdateMsg::pack_withdrawals(&prefixes);
        assert!(msgs.len() > 1);
        let mut decoded = Vec::new();
        for msg in &msgs {
            let bytes = BgpMessage::Update(msg.clone()).encode(true);
            assert!(bytes.len() <= MAX_MESSAGE_LEN);
            let mut buf = BytesMut::from(&bytes[..]);
            match BgpMessage::decode(&mut buf, true).unwrap().unwrap() {
                BgpMessage::Update(u) => decoded.extend(u.withdrawn),
                other => panic!("expected UPDATE, got {other:?}"),
            }
        }
        assert_eq!(decoded, prefixes);
        assert!(UpdateMsg::pack_withdrawals(&[]).is_empty());
    }

    #[test]
    fn prefix_wire_len_counts_only_needed_octets() {
        for (s, want) in [
            ("0.0.0.0/0", 1),
            ("10.0.0.0/8", 2),
            ("128.6.0.0/16", 3),
            ("1.2.3.0/24", 4),
            ("1.2.3.4/32", 5),
        ] {
            let p: Ipv4Prefix = s.parse().unwrap();
            assert_eq!(UpdateMsg::prefix_wire_len(&p), want, "{s}");
        }
    }

    #[test]
    fn pure_withdrawal_roundtrip() {
        let update = UpdateMsg::withdraw(vec!["203.0.113.0/24".parse().unwrap()]);
        let out = roundtrip(BgpMessage::Update(update.clone()));
        assert_eq!(out, BgpMessage::Update(update));
    }

    #[test]
    fn announcement_without_mandatory_attrs_rejected() {
        let update = UpdateMsg::announce(
            vec!["10.0.0.0/8".parse().unwrap()],
            vec![PathAttribute::Origin(Origin::Igp)],
        );
        let bytes = BgpMessage::Update(update).encode(true);
        let mut buf = BytesMut::from(&bytes[..]);
        assert!(matches!(
            BgpMessage::decode(&mut buf, true),
            Err(WireError::MissingWellKnownAttribute(_))
        ));
    }

    #[test]
    fn notification_roundtrip() {
        let n = NotificationMsg::new(notif::HOLD_TIMER_EXPIRED, 0);
        assert_eq!(roundtrip(BgpMessage::Notification(n.clone())), BgpMessage::Notification(n));
    }

    #[test]
    fn decode_returns_none_on_partial_input() {
        let bytes = BgpMessage::Update(sample_update()).encode(true);
        for cut in [0usize, 5, 18, bytes.len() - 1] {
            let mut buf = BytesMut::from(&bytes[..cut]);
            assert_eq!(BgpMessage::decode(&mut buf, true), Ok(None), "cut at {cut}");
        }
    }

    #[test]
    fn decode_streams_multiple_messages() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&BgpMessage::Keepalive.encode(true));
        buf.extend_from_slice(&BgpMessage::Update(sample_update()).encode(true));
        let first = BgpMessage::decode(&mut buf, true).unwrap().unwrap();
        assert_eq!(first, BgpMessage::Keepalive);
        let second = BgpMessage::decode(&mut buf, true).unwrap().unwrap();
        assert!(matches!(second, BgpMessage::Update(_)));
        assert!(buf.is_empty());
    }

    #[test]
    fn decode_rejects_bad_marker() {
        let mut bytes = BytesMut::from(&BgpMessage::Keepalive.encode(true)[..]);
        bytes[0] = 0;
        assert_eq!(BgpMessage::decode(&mut bytes, true), Err(WireError::BadMarker));
    }

    #[test]
    fn decode_rejects_bad_length() {
        let mut bytes = BytesMut::from(&BgpMessage::Keepalive.encode(true)[..]);
        bytes[16] = 0xff;
        bytes[17] = 0xff;
        assert!(matches!(BgpMessage::decode(&mut bytes, true), Err(WireError::BadLength(_))));
    }

    #[test]
    fn decode_rejects_unknown_type() {
        let mut bytes = BytesMut::from(&BgpMessage::Keepalive.encode(true)[..]);
        bytes[18] = 9;
        assert_eq!(BgpMessage::decode(&mut bytes, true), Err(WireError::BadMessageType(9)));
    }

    #[test]
    fn keepalive_with_body_rejected() {
        let mut bytes = BytesMut::new();
        bytes.put_slice(&[0xff; 16]);
        bytes.put_u16(20);
        bytes.put_u8(TYPE_KEEPALIVE);
        bytes.put_u8(0);
        assert!(matches!(BgpMessage::decode(&mut bytes, true), Err(WireError::BadLength(_))));
    }

    #[test]
    fn notification_mapping_covers_header_errors() {
        let n = NotificationMsg::from_wire_error(&WireError::BadMarker);
        assert_eq!((n.error_code, n.subcode), (notif::MESSAGE_HEADER_ERROR, 1));
        let n = NotificationMsg::from_wire_error(&WireError::BadMessageType(9));
        assert_eq!((n.error_code, n.subcode), (notif::MESSAGE_HEADER_ERROR, 3));
        let n = NotificationMsg::from_wire_error(&WireError::UnsupportedVersion(3));
        assert_eq!((n.error_code, n.subcode), (notif::OPEN_ERROR, 1));
    }
}
