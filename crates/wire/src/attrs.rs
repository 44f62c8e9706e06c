//! BGP path attributes (RFC 4271 §4.3, §5) and their codec.
//!
//! The attribute layer is where BGP's only native evolvability hook lives:
//! *optional transitive* attributes are passed through by routers that do
//! not understand them. D-BGP generalizes that idea into structured
//! Integrated Advertisements (see [`crate::ia`]); we still implement the
//! classic mechanism faithfully because the paper's transitional story
//! (§3.5) rides on it, and because the classic core in `dbgp-session`
//! needs it.

use crate::error::{WireError, WireResult};
use crate::ia::PathElem;
use crate::prefix::Ipv4Addr;
use bytes::{Buf, BufMut, Bytes};
use std::fmt;

/// Attribute flag: attribute is optional (not well-known).
pub const FLAG_OPTIONAL: u8 = 0x80;
/// Attribute flag: attribute is transitive.
pub const FLAG_TRANSITIVE: u8 = 0x40;
/// Attribute flag: optional transitive attribute was passed through by a
/// router that did not recognize it.
pub const FLAG_PARTIAL: u8 = 0x20;
/// Attribute flag: length field is two octets.
pub const FLAG_EXT_LEN: u8 = 0x10;

/// `AS_TRANS`, the 2-octet stand-in for a 4-octet AS number (RFC 6793).
pub const AS_TRANS: u32 = 23456;

/// Attribute type codes.
pub mod code {
    /// ORIGIN.
    pub const ORIGIN: u8 = 1;
    /// AS_PATH.
    pub const AS_PATH: u8 = 2;
    /// NEXT_HOP.
    pub const NEXT_HOP: u8 = 3;
    /// MULTI_EXIT_DISC.
    pub const MED: u8 = 4;
    /// LOCAL_PREF.
    pub const LOCAL_PREF: u8 = 5;
    /// ATOMIC_AGGREGATE.
    pub const ATOMIC_AGGREGATE: u8 = 6;
    /// AGGREGATOR.
    pub const AGGREGATOR: u8 = 7;
    /// COMMUNITIES (RFC 1997).
    pub const COMMUNITIES: u8 = 8;
    /// Optional-transitive attribute carrying a serialized Integrated
    /// Advertisement during D-BGP's transitional deployment (paper §3.5).
    /// Code taken from the private-use/experimental range.
    pub const IA_PAYLOAD: u8 = 240;
}

/// Path origin (RFC 4271 §5.1.1). Lower is preferred in the decision
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin {
    /// Learned from an interior gateway protocol.
    Igp = 0,
    /// Learned via EGP.
    Egp = 1,
    /// Origin unknown (e.g., redistributed static route).
    Incomplete = 2,
}

impl Origin {
    /// Decode from the single-octet wire value.
    pub fn from_u8(v: u8) -> WireResult<Self> {
        match v {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(WireError::MalformedAttribute {
                code: code::ORIGIN,
                detail: "bad origin value",
            }),
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Origin::Igp => "IGP",
            Origin::Egp => "EGP",
            Origin::Incomplete => "INCOMPLETE",
        })
    }
}

/// One segment of an AS_PATH.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AsSegment {
    /// Ordered sequence of traversed ASes (most recent first).
    Sequence(Vec<u32>),
    /// Unordered set, produced by aggregation; counts as one hop.
    Set(Vec<u32>),
}

impl AsSegment {
    /// Contribution to AS_PATH length for the decision process: a
    /// sequence counts each AS, a set counts one (RFC 4271 §9.1.2.2).
    pub fn hop_count(&self) -> usize {
        match self {
            AsSegment::Sequence(ases) => ases.len(),
            AsSegment::Set(_) => 1,
        }
    }

    /// All AS numbers mentioned, regardless of segment type.
    pub fn ases(&self) -> &[u32] {
        match self {
            AsSegment::Sequence(a) | AsSegment::Set(a) => a,
        }
    }
}

const SEG_TYPE_SET: u8 = 1;
const SEG_TYPE_SEQUENCE: u8 = 2;
/// Maximum ASes per wire segment (the count field is one octet).
const MAX_SEG_LEN: usize = 255;

/// An AS_PATH: the loop-prevention record and primary tiebreaker of BGP.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AsPath {
    /// The segments, most recently prepended first.
    pub segments: Vec<AsSegment>,
}

impl AsPath {
    /// The empty path, as originated by the destination AS before its own
    /// number is prepended at the first eBGP hop.
    pub fn empty() -> Self {
        AsPath { segments: Vec::new() }
    }

    /// A path consisting of a single sequence.
    pub fn from_sequence(ases: impl Into<Vec<u32>>) -> Self {
        let ases = ases.into();
        if ases.is_empty() {
            return AsPath::empty();
        }
        AsPath { segments: vec![AsSegment::Sequence(ases)] }
    }

    /// Path length as used by the decision process.
    pub fn hop_count(&self) -> usize {
        self.segments.iter().map(AsSegment::hop_count).sum()
    }

    /// Does the path mention `asn` anywhere (loop check)?
    pub fn contains(&self, asn: u32) -> bool {
        self.segments.iter().any(|s| s.ases().contains(&asn))
    }

    /// Prepend `asn` once, merging into a leading sequence if present.
    pub fn prepend(&mut self, asn: u32) {
        match self.segments.first_mut() {
            Some(AsSegment::Sequence(ases)) if ases.len() < MAX_SEG_LEN => {
                ases.insert(0, asn);
            }
            _ => self.segments.insert(0, AsSegment::Sequence(vec![asn])),
        }
    }

    /// The neighbouring AS this path was received from: the first AS of
    /// the leading sequence, if any.
    pub fn first_as(&self) -> Option<u32> {
        match self.segments.first() {
            Some(AsSegment::Sequence(ases)) => ases.first().copied(),
            _ => None,
        }
    }

    /// The origin AS (last AS of the last sequence segment), if the path
    /// ends in a sequence.
    pub fn origin_as(&self) -> Option<u32> {
        match self.segments.last() {
            Some(AsSegment::Sequence(ases)) => ases.last().copied(),
            _ => None,
        }
    }

    /// Encode with 2- or 4-octet AS numbers. In 2-octet mode, numbers that
    /// do not fit are substituted with [`AS_TRANS`] (RFC 6793 §4.2.2).
    pub fn encode(&self, buf: &mut impl BufMut, four_octet: bool) {
        for seg in &self.segments {
            let (ty, ases) = match seg {
                AsSegment::Set(a) => (SEG_TYPE_SET, a),
                AsSegment::Sequence(a) => (SEG_TYPE_SEQUENCE, a),
            };
            for chunk in ases.chunks(MAX_SEG_LEN) {
                buf.put_u8(ty);
                buf.put_u8(chunk.len() as u8);
                for &asn in chunk {
                    if four_octet {
                        buf.put_u32(asn);
                    } else if asn > u16::MAX as u32 {
                        buf.put_u16(AS_TRANS as u16);
                    } else {
                        buf.put_u16(asn as u16);
                    }
                }
            }
        }
    }

    /// The path as an IA path vector: each sequenced AS one element, each
    /// set one `AsSet`.
    pub fn to_path_vector(&self) -> Vec<PathElem> {
        let len =
            self.segments
                .iter()
                .map(|s| if let AsSegment::Set(_) = s { 1 } else { s.ases().len() });
        let mut out = Vec::with_capacity(len.sum());
        for seg in &self.segments {
            match seg {
                AsSegment::Sequence(ases) => out.extend(ases.iter().map(|&a| PathElem::As(a))),
                AsSegment::Set(ases) => out.push(PathElem::AsSet(Box::new(ases.clone()))),
            }
        }
        out
    }

    /// The AS_PATH form of an IA path vector, consecutive ASes in one
    /// sequence. An island element has none and is refused.
    pub fn from_path_vector(path_vector: &[PathElem]) -> WireResult<Self> {
        let mut segments = Vec::new();
        for elem in path_vector {
            match (elem, segments.last_mut()) {
                (PathElem::As(asn), Some(AsSegment::Sequence(ases))) => ases.push(*asn),
                (PathElem::As(asn), _) => segments.push(AsSegment::Sequence(vec![*asn])),
                (PathElem::AsSet(ases), _) => segments.push(AsSegment::Set(ases.to_vec())),
                (PathElem::Island(_), _) => {
                    return Err(WireError::MalformedAttribute {
                        code: code::AS_PATH,
                        detail: "an island has no AS_PATH form",
                    })
                }
            }
        }
        Ok(AsPath { segments })
    }

    /// Decode an AS_PATH body of exactly `buf.remaining()` bytes.
    pub fn decode(buf: &mut impl Buf, four_octet: bool) -> WireResult<Self> {
        let mut segments = Vec::new();
        while buf.has_remaining() {
            if buf.remaining() < 2 {
                return Err(WireError::Truncated { context: "AS_PATH segment header" });
            }
            let ty = buf.get_u8();
            let count = buf.get_u8() as usize;
            let width = if four_octet { 4 } else { 2 };
            if buf.remaining() < count * width {
                return Err(WireError::Truncated { context: "AS_PATH segment body" });
            }
            let mut ases = Vec::with_capacity(count);
            for _ in 0..count {
                ases.push(if four_octet { buf.get_u32() } else { buf.get_u16() as u32 });
            }
            segments.push(match ty {
                SEG_TYPE_SET => AsSegment::Set(ases),
                SEG_TYPE_SEQUENCE => AsSegment::Sequence(ases),
                _ => {
                    return Err(WireError::MalformedAttribute {
                        code: code::AS_PATH,
                        detail: "unknown segment type",
                    })
                }
            });
        }
        Ok(AsPath { segments })
    }
}

impl fmt::Display for AsPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for seg in &self.segments {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match seg {
                AsSegment::Sequence(ases) => {
                    let strs: Vec<String> = ases.iter().map(u32::to_string).collect();
                    write!(f, "{}", strs.join(" "))?;
                }
                AsSegment::Set(ases) => {
                    let strs: Vec<String> = ases.iter().map(u32::to_string).collect();
                    write!(f, "{{{}}}", strs.join(","))?;
                }
            }
        }
        Ok(())
    }
}

/// A decoded path attribute.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PathAttribute {
    /// ORIGIN: how the route entered BGP.
    Origin(Origin),
    /// AS_PATH.
    AsPath(AsPath),
    /// NEXT_HOP: border router to forward toward.
    NextHop(Ipv4Addr),
    /// MULTI_EXIT_DISC: metric to discriminate among exits to one AS.
    Med(u32),
    /// LOCAL_PREF: the operator's first-ranked knob (iBGP only).
    LocalPref(u32),
    /// ATOMIC_AGGREGATE marker.
    AtomicAggregate,
    /// AGGREGATOR: who formed the aggregate.
    Aggregator {
        /// AS that performed aggregation.
        asn: u32,
        /// Router that performed aggregation.
        addr: Ipv4Addr,
    },
    /// COMMUNITIES: 32-bit tags (RFC 1997).
    Communities(Vec<u32>),
    /// An attribute this speaker does not understand. Optional transitive
    /// unknowns are re-advertised with the PARTIAL bit set — BGP's native
    /// pass-through, which the paper contrasts with D-BGP's IAs.
    Unknown {
        /// The flag octet as received.
        flags: u8,
        /// Attribute type code.
        code: u8,
        /// Raw attribute body.
        data: Bytes,
    },
}

impl PathAttribute {
    /// The attribute's type code.
    pub fn code(&self) -> u8 {
        match self {
            PathAttribute::Origin(_) => code::ORIGIN,
            PathAttribute::AsPath(_) => code::AS_PATH,
            PathAttribute::NextHop(_) => code::NEXT_HOP,
            PathAttribute::Med(_) => code::MED,
            PathAttribute::LocalPref(_) => code::LOCAL_PREF,
            PathAttribute::AtomicAggregate => code::ATOMIC_AGGREGATE,
            PathAttribute::Aggregator { .. } => code::AGGREGATOR,
            PathAttribute::Communities(_) => code::COMMUNITIES,
            PathAttribute::Unknown { code, .. } => *code,
        }
    }

    /// Is this attribute transitive (should it survive re-advertisement by
    /// a speaker that does not recognize it)?
    pub fn is_transitive(&self) -> bool {
        match self {
            PathAttribute::Med(_) | PathAttribute::LocalPref(_) => {
                // MED is optional non-transitive; LOCAL_PREF is well-known
                // but only within an AS. Both true-on-wire flags are
                // handled at encode time; here we answer the
                // re-advertisement question.
                false
            }
            PathAttribute::Unknown { flags, .. } => flags & FLAG_TRANSITIVE != 0,
            _ => true,
        }
    }

    fn flags_for(&self) -> u8 {
        match self {
            PathAttribute::Origin(_)
            | PathAttribute::AsPath(_)
            | PathAttribute::NextHop(_)
            | PathAttribute::LocalPref(_)
            | PathAttribute::AtomicAggregate => FLAG_TRANSITIVE,
            PathAttribute::Med(_) => FLAG_OPTIONAL,
            PathAttribute::Aggregator { .. } | PathAttribute::Communities(_) => {
                FLAG_OPTIONAL | FLAG_TRANSITIVE
            }
            PathAttribute::Unknown { flags, .. } => *flags & !FLAG_EXT_LEN,
        }
    }

    /// Encode this attribute (flags, code, length, body).
    pub fn encode(&self, buf: &mut impl BufMut, four_octet: bool) {
        let mut body = Vec::new();
        match self {
            PathAttribute::Origin(o) => body.push(*o as u8),
            PathAttribute::AsPath(p) => p.encode(&mut body, four_octet),
            PathAttribute::NextHop(a) => body.extend_from_slice(&a.octets()),
            PathAttribute::Med(v) | PathAttribute::LocalPref(v) => {
                body.extend_from_slice(&v.to_be_bytes())
            }
            PathAttribute::AtomicAggregate => {}
            PathAttribute::Aggregator { asn, addr } => {
                if four_octet {
                    body.extend_from_slice(&asn.to_be_bytes());
                } else {
                    let short = if *asn > u16::MAX as u32 { AS_TRANS as u16 } else { *asn as u16 };
                    body.extend_from_slice(&short.to_be_bytes());
                }
                body.extend_from_slice(&addr.octets());
            }
            PathAttribute::Communities(cs) => {
                for c in cs {
                    body.extend_from_slice(&c.to_be_bytes());
                }
            }
            PathAttribute::Unknown { data, .. } => body.extend_from_slice(data),
        }
        let mut flags = self.flags_for();
        if body.len() > u8::MAX as usize {
            flags |= FLAG_EXT_LEN;
        }
        buf.put_u8(flags);
        buf.put_u8(self.code());
        if flags & FLAG_EXT_LEN != 0 {
            buf.put_u16(body.len() as u16);
        } else {
            buf.put_u8(body.len() as u8);
        }
        buf.put_slice(&body);
    }

    /// Decode one attribute from the front of `buf`.
    pub fn decode(buf: &mut Bytes, four_octet: bool) -> WireResult<Self> {
        if buf.remaining() < 2 {
            return Err(WireError::Truncated { context: "attribute header" });
        }
        let flags = buf.get_u8();
        let code = buf.get_u8();
        let len = if flags & FLAG_EXT_LEN != 0 {
            if buf.remaining() < 2 {
                return Err(WireError::Truncated { context: "attribute extended length" });
            }
            buf.get_u16() as usize
        } else {
            if !buf.has_remaining() {
                return Err(WireError::Truncated { context: "attribute length" });
            }
            buf.get_u8() as usize
        };
        if buf.remaining() < len {
            return Err(WireError::Truncated { context: "attribute body" });
        }
        let mut body = buf.split_to(len);

        let check_flags = |well_known: bool, transitive: bool| -> WireResult<()> {
            let opt_ok = (flags & FLAG_OPTIONAL != 0) != well_known;
            let trans_ok = (flags & FLAG_TRANSITIVE != 0) == transitive;
            if opt_ok && trans_ok {
                Ok(())
            } else {
                Err(WireError::BadAttributeFlags { code, flags })
            }
        };
        let fixed = |body: &Bytes, n: usize| -> WireResult<()> {
            if body.len() == n {
                Ok(())
            } else {
                Err(WireError::MalformedAttribute { code, detail: "wrong length" })
            }
        };

        match code {
            code::ORIGIN => {
                check_flags(true, true)?;
                fixed(&body, 1)?;
                Ok(PathAttribute::Origin(Origin::from_u8(body.get_u8())?))
            }
            code::AS_PATH => {
                check_flags(true, true)?;
                Ok(PathAttribute::AsPath(AsPath::decode(&mut body, four_octet)?))
            }
            code::NEXT_HOP => {
                check_flags(true, true)?;
                fixed(&body, 4)?;
                Ok(PathAttribute::NextHop(Ipv4Addr(body.get_u32())))
            }
            code::MED => {
                check_flags(false, false)?;
                fixed(&body, 4)?;
                Ok(PathAttribute::Med(body.get_u32()))
            }
            code::LOCAL_PREF => {
                check_flags(true, true)?;
                fixed(&body, 4)?;
                Ok(PathAttribute::LocalPref(body.get_u32()))
            }
            code::ATOMIC_AGGREGATE => {
                check_flags(true, true)?;
                fixed(&body, 0)?;
                Ok(PathAttribute::AtomicAggregate)
            }
            code::AGGREGATOR => {
                check_flags(false, true)?;
                let as_width = if four_octet { 4 } else { 2 };
                fixed(&body, as_width + 4)?;
                let asn = if four_octet { body.get_u32() } else { body.get_u16() as u32 };
                Ok(PathAttribute::Aggregator { asn, addr: Ipv4Addr(body.get_u32()) })
            }
            code::COMMUNITIES => {
                check_flags(false, true)?;
                if !body.len().is_multiple_of(4) {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "length not multiple of 4",
                    });
                }
                let mut cs = Vec::with_capacity(body.len() / 4);
                while body.has_remaining() {
                    cs.push(body.get_u32());
                }
                Ok(PathAttribute::Communities(cs))
            }
            _ => {
                // Unrecognized well-known attributes are a session error;
                // unrecognized optional attributes are kept (transitive)
                // or may be dropped (non-transitive) by the caller.
                if flags & FLAG_OPTIONAL == 0 {
                    return Err(WireError::MalformedAttribute {
                        code,
                        detail: "unrecognized well-known attribute",
                    });
                }
                let flags = if flags & FLAG_TRANSITIVE != 0 { flags | FLAG_PARTIAL } else { flags };
                Ok(PathAttribute::Unknown { flags, code, data: body })
            }
        }
    }
}

/// The BGP attributes an advertisement carries beyond Figure 4's shared
/// fields (ORIGIN, NEXT_HOP, and AS_PATH as the path vector): MED,
/// LOCAL_PREF, and every attribute carried without being read —
/// COMMUNITIES, AGGREGATOR, ATOMIC_AGGREGATE and optional unknowns. A
/// classic route holds one inline; an IA holds one boxed, and only when
/// it has any of them.
///
/// What may cross an AS boundary is stated here, once: LOCAL_PREF from
/// an eBGP peer is ignored ([`import`](Self::import)); neither
/// LOCAL_PREF nor MED is sent to one ([`export_ebgp`](Self::export_ebgp));
/// a non-transitive extra is passed on to no one.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct BgpAttrs {
    /// MULTI_EXIT_DISC, if present.
    pub med: Option<u32>,
    /// LOCAL_PREF, if present (learned over iBGP only).
    pub local_pref: Option<u32>,
    /// Attributes carried but not interpreted, in the order received
    /// (code order, when read from an IA's record).
    pub extras: Vec<PathAttribute>,
}

impl BgpAttrs {
    /// Holds no attribute at all.
    pub fn is_empty(&self) -> bool {
        self.med.is_none() && self.local_pref.is_none() && self.extras.is_empty()
    }

    /// File one attribute that is none of ORIGIN, AS_PATH and NEXT_HOP:
    /// MED and LOCAL_PREF in their fields, any other among the extras.
    pub fn insert(&mut self, attr: PathAttribute) {
        match attr {
            PathAttribute::Med(v) => self.med = Some(v),
            PathAttribute::LocalPref(v) => self.local_pref = Some(v),
            other => self.extras.push(other),
        }
    }

    /// As learned from a peer: LOCAL_PREF from an eBGP peer is ignored
    /// (RFC 4271 §5.1.5).
    pub fn import(&mut self, ebgp: bool) {
        if ebgp {
            self.local_pref = None;
        }
    }

    /// As sent on to an eBGP peer: LOCAL_PREF (RFC 4271 §5.1.5) and MED
    /// (§5.1.4) stay in this AS, and so does a non-transitive extra.
    pub fn export_ebgp(&mut self) {
        self.local_pref = None;
        self.med = None;
        self.extras.retain(PathAttribute::is_transitive);
    }

    /// Append the attributes an UPDATE carries after the mandatory three:
    /// MED, LOCAL_PREF when `include_local_pref` (toward iBGP peers
    /// only), and the transitive extras.
    pub fn to_attrs(&self, include_local_pref: bool, attrs: &mut Vec<PathAttribute>) {
        attrs.extend(self.med.map(PathAttribute::Med));
        if include_local_pref {
            attrs.extend(self.local_pref.map(PathAttribute::LocalPref));
        }
        attrs.extend(self.extras.iter().filter(|a| a.is_transitive()).cloned());
    }
}

/// Encode a full attribute list preceded by nothing (the UPDATE codec adds
/// the two-octet total length). Attributes are emitted in ascending code
/// order, as RFC 4271 recommends.
pub fn encode_attribute_list(attrs: &[PathAttribute], buf: &mut impl BufMut, four_octet: bool) {
    let mut sorted: Vec<&PathAttribute> = attrs.iter().collect();
    sorted.sort_by_key(|a| a.code());
    for attr in sorted {
        attr.encode(buf, four_octet);
    }
}

/// Decode a complete attribute list, rejecting duplicates.
pub fn decode_attribute_list(mut buf: Bytes, four_octet: bool) -> WireResult<Vec<PathAttribute>> {
    let mut attrs = Vec::new();
    let mut seen = [false; 256];
    while buf.has_remaining() {
        let attr = PathAttribute::decode(&mut buf, four_octet)?;
        let code = attr.code() as usize;
        if seen[code] {
            return Err(WireError::DuplicateAttribute(attr.code()));
        }
        seen[code] = true;
        attrs.push(attr);
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(attr: PathAttribute, four_octet: bool) -> PathAttribute {
        let mut buf = BytesMut::new();
        attr.encode(&mut buf, four_octet);
        let mut bytes = buf.freeze();
        let out = PathAttribute::decode(&mut bytes, four_octet).unwrap();
        assert!(!bytes.has_remaining(), "trailing bytes after decode");
        out
    }

    #[test]
    fn origin_roundtrip() {
        for o in [Origin::Igp, Origin::Egp, Origin::Incomplete] {
            assert_eq!(roundtrip(PathAttribute::Origin(o), true), PathAttribute::Origin(o));
        }
    }

    #[test]
    fn origin_bad_value_rejected() {
        let raw = [FLAG_TRANSITIVE, code::ORIGIN, 1, 9];
        let mut buf = Bytes::copy_from_slice(&raw);
        assert!(PathAttribute::decode(&mut buf, true).is_err());
    }

    #[test]
    fn as_path_roundtrip_four_octet() {
        let path = AsPath {
            segments: vec![
                AsSegment::Sequence(vec![70000, 2, 3]),
                AsSegment::Set(vec![10, 20]),
                AsSegment::Sequence(vec![99]),
            ],
        };
        assert_eq!(
            roundtrip(PathAttribute::AsPath(path.clone()), true),
            PathAttribute::AsPath(path)
        );
    }

    #[test]
    fn as_path_two_octet_substitutes_as_trans() {
        let path = AsPath::from_sequence(vec![70000, 2]);
        let out = roundtrip(PathAttribute::AsPath(path), false);
        assert_eq!(out, PathAttribute::AsPath(AsPath::from_sequence(vec![AS_TRANS, 2])));
    }

    #[test]
    fn as_path_hop_count_counts_sets_once() {
        let path = AsPath {
            segments: vec![AsSegment::Sequence(vec![1, 2, 3]), AsSegment::Set(vec![10, 20, 30])],
        };
        assert_eq!(path.hop_count(), 4);
    }

    #[test]
    fn as_path_prepend_merges_into_leading_sequence() {
        let mut path = AsPath::from_sequence(vec![2, 3]);
        path.prepend(1);
        assert_eq!(path, AsPath::from_sequence(vec![1, 2, 3]));
        assert_eq!(path.first_as(), Some(1));
        assert_eq!(path.origin_as(), Some(3));
    }

    #[test]
    fn as_path_prepend_onto_set_creates_new_segment() {
        let mut path = AsPath { segments: vec![AsSegment::Set(vec![5, 6])] };
        path.prepend(1);
        assert_eq!(path.segments.len(), 2);
        assert_eq!(path.first_as(), Some(1));
        assert_eq!(path.hop_count(), 2);
    }

    #[test]
    fn long_paths_split_into_multiple_wire_segments() {
        let ases: Vec<u32> = (1..=300).collect();
        let path = AsPath::from_sequence(ases.clone());
        let out = roundtrip(PathAttribute::AsPath(path), true);
        // The wire split into two segments is an encoding artifact; the
        // semantic content (order, hop count) must survive.
        if let PathAttribute::AsPath(p) = out {
            let flattened: Vec<u32> =
                p.segments.iter().flat_map(|s| s.ases().iter().copied()).collect();
            assert_eq!(flattened, ases);
            assert_eq!(p.hop_count(), 300);
        } else {
            panic!("wrong attribute");
        }
    }

    #[test]
    fn next_hop_med_localpref_roundtrip() {
        for attr in [
            PathAttribute::NextHop(Ipv4Addr::new(10, 0, 0, 1)),
            PathAttribute::Med(4096),
            PathAttribute::LocalPref(200),
        ] {
            assert_eq!(roundtrip(attr.clone(), true), attr);
        }
    }

    #[test]
    fn aggregator_roundtrip_both_widths() {
        let attr = PathAttribute::Aggregator { asn: 70000, addr: Ipv4Addr::new(1, 2, 3, 4) };
        assert_eq!(roundtrip(attr.clone(), true), attr);
        // In 2-octet mode the wide ASN degrades to AS_TRANS.
        let out = roundtrip(attr, false);
        assert_eq!(
            out,
            PathAttribute::Aggregator { asn: AS_TRANS, addr: Ipv4Addr::new(1, 2, 3, 4) }
        );
    }

    #[test]
    fn communities_roundtrip() {
        let attr = PathAttribute::Communities(vec![0x0001_0002, 0xFFFF_FF01]);
        assert_eq!(roundtrip(attr.clone(), true), attr);
    }

    #[test]
    fn communities_bad_length_rejected() {
        let raw = [FLAG_OPTIONAL | FLAG_TRANSITIVE, code::COMMUNITIES, 3, 1, 2, 3];
        let mut buf = Bytes::copy_from_slice(&raw);
        assert!(PathAttribute::decode(&mut buf, true).is_err());
    }

    #[test]
    fn unknown_optional_transitive_kept_with_partial_bit() {
        let raw = [FLAG_OPTIONAL | FLAG_TRANSITIVE, 77, 2, 0xAB, 0xCD];
        let mut buf = Bytes::copy_from_slice(&raw);
        let attr = PathAttribute::decode(&mut buf, true).unwrap();
        match attr {
            PathAttribute::Unknown { flags, code, data } => {
                assert_eq!(code, 77);
                assert!(flags & FLAG_PARTIAL != 0, "partial bit must be set on pass-through");
                assert_eq!(&data[..], &[0xAB, 0xCD]);
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn unknown_well_known_rejected() {
        let raw = [FLAG_TRANSITIVE, 99, 1, 0];
        let mut buf = Bytes::copy_from_slice(&raw);
        assert!(PathAttribute::decode(&mut buf, true).is_err());
    }

    #[test]
    fn flag_validation_catches_contradictions() {
        // ORIGIN marked optional: invalid.
        let raw = [FLAG_OPTIONAL | FLAG_TRANSITIVE, code::ORIGIN, 1, 0];
        let mut buf = Bytes::copy_from_slice(&raw);
        assert!(matches!(
            PathAttribute::decode(&mut buf, true),
            Err(WireError::BadAttributeFlags { .. })
        ));
    }

    #[test]
    fn extended_length_used_for_big_bodies() {
        let data = Bytes::from(vec![0u8; 300]);
        let attr =
            PathAttribute::Unknown { flags: FLAG_OPTIONAL | FLAG_TRANSITIVE, code: 77, data };
        let mut buf = BytesMut::new();
        attr.encode(&mut buf, true);
        assert!(buf[0] & FLAG_EXT_LEN != 0);
        let mut bytes = buf.freeze();
        let out = PathAttribute::decode(&mut bytes, true).unwrap();
        match out {
            PathAttribute::Unknown { data, .. } => assert_eq!(data.len(), 300),
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn attribute_list_rejects_duplicates() {
        let mut buf = BytesMut::new();
        PathAttribute::Origin(Origin::Igp).encode(&mut buf, true);
        PathAttribute::Origin(Origin::Egp).encode(&mut buf, true);
        assert_eq!(
            decode_attribute_list(buf.freeze(), true),
            Err(WireError::DuplicateAttribute(code::ORIGIN))
        );
    }

    #[test]
    fn attribute_list_sorted_by_code() {
        let attrs = vec![
            PathAttribute::NextHop(Ipv4Addr::new(9, 9, 9, 9)),
            PathAttribute::Origin(Origin::Igp),
        ];
        let mut buf = BytesMut::new();
        encode_attribute_list(&attrs, &mut buf, true);
        let decoded = decode_attribute_list(buf.freeze(), true).unwrap();
        assert_eq!(decoded[0].code(), code::ORIGIN);
        assert_eq!(decoded[1].code(), code::NEXT_HOP);
    }

    #[test]
    fn as_path_display() {
        let path =
            AsPath { segments: vec![AsSegment::Sequence(vec![1, 2]), AsSegment::Set(vec![7, 8])] };
        assert_eq!(path.to_string(), "1 2 {7,8}");
    }
}
