//! IPv4 addresses and CIDR prefixes, plus the packed NLRI codec of
//! RFC 4271 §4.3.

use crate::error::{WireError, WireResult};
use bytes::{Buf, BufMut};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address stored as a big-endian `u32`.
///
/// We use our own trivial newtype rather than `std::net::Ipv4Addr` so the
/// simulator can treat addresses as plain integers (arithmetic, hashing,
/// range allocation) without conversion noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Build an address from dotted-quad octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v)
    }
}

impl FromStr for Ipv4Addr {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 4];
        let mut parts = s.split('.');
        for slot in &mut octets {
            let part = parts.next().ok_or(WireError::MalformedPrefix)?;
            *slot = part.parse().map_err(|_| WireError::MalformedPrefix)?;
        }
        if parts.next().is_some() {
            return Err(WireError::MalformedPrefix);
        }
        Ok(Ipv4Addr::new(octets[0], octets[1], octets[2], octets[3]))
    }
}

/// An IPv4 CIDR prefix: a network address plus a mask length.
///
/// The network address is always stored in canonical form (host bits
/// zeroed), so two prefixes are equal iff they denote the same network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ipv4Prefix {
    network: Ipv4Addr,
    len: u8,
}

impl Ipv4Prefix {
    /// Create a prefix, canonicalizing the address by masking host bits.
    ///
    /// Returns an error if `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> WireResult<Self> {
        if len > 32 {
            return Err(WireError::MalformedPrefix);
        }
        Ok(Ipv4Prefix { network: Ipv4Addr(addr.0 & Self::mask(len)), len })
    }

    /// The all-addresses prefix `0.0.0.0/0`.
    pub const DEFAULT: Ipv4Prefix = Ipv4Prefix { network: Ipv4Addr(0), len: 0 };

    fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len as u32)
        }
    }

    /// The canonical network address.
    pub fn network(&self) -> Ipv4Addr {
        self.network
    }

    /// The mask length in bits.
    #[allow(clippy::len_without_is_empty)] // a mask length is never "empty"
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Does this prefix contain the given address?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        addr.0 & Self::mask(self.len) == self.network.0
    }

    /// Does this prefix fully contain (or equal) `other`?
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && self.contains(other.network)
    }

    /// Number of bytes the packed NLRI form of this prefix occupies,
    /// including the length octet.
    pub fn wire_len(&self) -> usize {
        1 + (self.len as usize).div_ceil(8)
    }

    /// Encode in the packed form of RFC 4271 §4.3: one length octet, then
    /// only as many address bytes as the mask requires.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.len);
        let octets = self.network.octets();
        buf.put_slice(&octets[..(self.len as usize).div_ceil(8)]);
    }

    /// Decode one packed prefix from the front of `buf`.
    pub fn decode(buf: &mut impl Buf) -> WireResult<Self> {
        if !buf.has_remaining() {
            return Err(WireError::Truncated { context: "prefix length" });
        }
        let len = buf.get_u8();
        if len > 32 {
            return Err(WireError::MalformedPrefix);
        }
        let nbytes = (len as usize).div_ceil(8);
        if buf.remaining() < nbytes {
            return Err(WireError::Truncated { context: "prefix bytes" });
        }
        let mut octets = [0u8; 4];
        buf.copy_to_slice(&mut octets[..nbytes]);
        Ipv4Prefix::new(Ipv4Addr(u32::from_be_bytes(octets)), len)
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = WireError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or(WireError::MalformedPrefix)?;
        let addr: Ipv4Addr = addr.parse()?;
        let len: u8 = len.parse().map_err(|_| WireError::MalformedPrefix)?;
        Ipv4Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("10.0.0.0/8").to_string(), "10.0.0.0/8");
        assert_eq!(p("128.6.0.0/16").to_string(), "128.6.0.0/16");
        assert_eq!(p("0.0.0.0/0"), Ipv4Prefix::DEFAULT);
    }

    #[test]
    fn canonicalizes_host_bits() {
        assert_eq!(p("10.1.2.3/8"), p("10.0.0.0/8"));
        assert_ne!(p("10.0.0.0/8"), p("10.0.0.0/9"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0.1/8".parse::<Ipv4Prefix>().is_err());
        assert!("256.0.0.0/8".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn containment() {
        assert!(p("10.0.0.0/8").contains(Ipv4Addr::new(10, 200, 3, 4)));
        assert!(!p("10.0.0.0/8").contains(Ipv4Addr::new(11, 0, 0, 1)));
        assert!(p("10.0.0.0/8").covers(&p("10.5.0.0/16")));
        assert!(!p("10.5.0.0/16").covers(&p("10.0.0.0/8")));
        assert!(p("10.0.0.0/8").covers(&p("10.0.0.0/8")));
        assert!(Ipv4Prefix::DEFAULT.covers(&p("192.168.0.0/16")));
    }

    #[test]
    fn packed_roundtrip_all_lengths() {
        for len in 0..=32u8 {
            let pre = Ipv4Prefix::new(Ipv4Addr::new(203, 0, 113, 255), len).unwrap();
            let mut buf = BytesMut::new();
            pre.encode(&mut buf);
            assert_eq!(buf.len(), pre.wire_len());
            let mut bytes = buf.freeze();
            assert_eq!(Ipv4Prefix::decode(&mut bytes).unwrap(), pre);
        }
    }

    #[test]
    fn packed_uses_minimal_bytes() {
        let mut buf = BytesMut::new();
        p("10.0.0.0/8").encode(&mut buf);
        assert_eq!(&buf[..], &[8, 10]);
        let mut buf = BytesMut::new();
        p("128.6.0.0/16").encode(&mut buf);
        assert_eq!(&buf[..], &[16, 128, 6]);
    }

    #[test]
    fn decode_rejects_bad_length() {
        let raw = [33u8, 1, 2, 3, 4, 5];
        let mut buf = &raw[..];
        assert_eq!(Ipv4Prefix::decode(&mut buf), Err(WireError::MalformedPrefix));
    }

    #[test]
    fn decode_rejects_truncation() {
        let raw = [24u8, 10, 0];
        let mut buf = &raw[..];
        assert!(matches!(Ipv4Prefix::decode(&mut buf), Err(WireError::Truncated { .. })));
    }
}
