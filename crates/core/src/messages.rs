//! The D-BGP update message: the unit the simulator's transport carries
//! between D-BGP speakers.
//!
//! Mirrors a BGP UPDATE — withdrawn prefixes plus advertisements — but
//! the advertisements are whole Integrated Advertisements. The codec is
//! length-prefixed so a stream can carry several messages back to back.
//! (During the transitional phase IAs can instead ride inside a classic
//! UPDATE as the optional-transitive attribute `attrs::code::IA_PAYLOAD`;
//! see [`crate::transitional`].)

use bytes::{Buf, BufMut, Bytes, BytesMut};
use dbgp_wire::error::{WireError, WireResult};
use dbgp_wire::varint::{get_uvarint, put_uvarint, uvarint_len};
use dbgp_wire::{EncodedIa, Ia, Ipv4Prefix};

/// One D-BGP update: withdrawals plus new IAs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DbgpUpdate {
    /// Prefixes no longer reachable via the sender.
    pub withdrawn: Vec<Ipv4Prefix>,
    /// New or replacing advertisements.
    pub ias: Vec<Ia>,
}

impl DbgpUpdate {
    /// An update advertising a single IA.
    pub fn announce(ia: Ia) -> Self {
        DbgpUpdate { withdrawn: Vec::new(), ias: vec![ia] }
    }

    /// An update withdrawing a single prefix.
    pub fn withdraw(prefix: Ipv4Prefix) -> Self {
        DbgpUpdate { withdrawn: vec![prefix], ias: Vec::new() }
    }

    /// Encode to a self-delimiting frame: one exactly-sized buffer, each
    /// IA written in place.
    pub fn encode(&self) -> Bytes {
        let sizes = self.ias.iter().map(Ia::wire_size);
        let mut buf = BytesMut::with_capacity(frame_size(&self.withdrawn, sizes));
        put_withdrawn(&mut buf, &self.withdrawn);
        put_uvarint(&mut buf, self.ias.len() as u64);
        for ia in &self.ias {
            put_uvarint(&mut buf, ia.wire_size() as u64);
            ia.encode_into(&mut buf);
        }
        buf.freeze()
    }

    /// Assemble the frame [`DbgpUpdate::encode`] would produce, from IA
    /// bodies that were already encoded (e.g. by an Adj-RIB-Out encode
    /// cache). Byte-identical to encoding the equivalent update, so a
    /// cached send path and a fresh one are indistinguishable on the
    /// wire. The framing and the bodies' heads are written into one
    /// exactly-sized buffer; a spliced body's tail is shared, not copied.
    pub fn encode_frame(withdrawn: &[Ipv4Prefix], ia_bodies: &[EncodedIa]) -> Frame {
        let tails = ia_bodies.iter().filter_map(EncodedIa::tail);
        let (spliced, shared) = tails.fold((0, 0), |(n, len), tail| (n + 1, len + tail.len()));
        let sizes = ia_bodies.iter().map(EncodedIa::len);
        let mut buf = BytesMut::with_capacity(frame_size(withdrawn, sizes) - shared);
        let mut splices = Vec::with_capacity(spliced);
        put_withdrawn(&mut buf, withdrawn);
        put_uvarint(&mut buf, ia_bodies.len() as u64);
        for body in ia_bodies {
            put_uvarint(&mut buf, body.len() as u64);
            buf.put_slice(body.head());
            if let Some(tail) = body.tail() {
                splices.push((buf.len(), tail.clone()));
            }
        }
        Frame { fresh: buf.freeze(), splices }
    }

    /// Decode one frame (consumes exactly one update from `buf`).
    pub fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let nwith = get_uvarint(buf)? as usize;
        if nwith > buf.remaining() {
            return Err(WireError::MalformedIa("withdrawn count too large"));
        }
        let mut withdrawn = Vec::with_capacity(nwith);
        for _ in 0..nwith {
            withdrawn.push(Ipv4Prefix::decode(buf)?);
        }
        let nias = get_uvarint(buf)? as usize;
        if nias > buf.remaining() + 1 {
            return Err(WireError::MalformedIa("IA count too large"));
        }
        let mut ias = Vec::with_capacity(nias);
        for _ in 0..nias {
            let len = get_uvarint(buf)? as usize;
            if buf.remaining() < len {
                return Err(WireError::Truncated { context: "IA frame" });
            }
            let body = buf.split_to(len);
            ias.push(Ia::decode(body)?);
        }
        Ok(DbgpUpdate { withdrawn, ias })
    }
}

/// An encoded update frame as a gather list: the freshly written bytes,
/// and the shared windows (tails of pass-through IAs, still in the frames
/// they arrived in) spliced in at their offsets. A frame with nothing
/// spliced is its one fresh buffer and holds no list.
///
/// Deliberately not `PartialEq`: two frames with the same bytes may be
/// cut differently, so compare [`Frame::into_bytes`].
#[derive(Debug, Clone)]
pub struct Frame {
    fresh: Bytes,
    /// `(offset into fresh, window)`: the window's bytes follow the
    /// first `offset` fresh ones. Offsets never decrease.
    splices: Vec<(usize, Bytes)>,
}

impl Frame {
    /// Frame length in bytes.
    #[allow(clippy::len_without_is_empty)] // never empty: the two counts are always there
    pub fn len(&self) -> usize {
        self.fresh.len() + self.splices.iter().map(|(_, window)| window.len()).sum::<usize>()
    }

    /// The frame's bytes in order, as the slices a vectored write would
    /// take (none of them empty).
    pub fn chunks(&self) -> impl Iterator<Item = &[u8]> {
        let mut at = 0;
        let cuts = self.splices.iter().flat_map(move |(cut, window)| {
            let fresh = &self.fresh[at..*cut];
            at = *cut;
            [fresh, &window[..]]
        });
        let last = self.splices.last().map_or(0, |(cut, _)| *cut);
        cuts.chain([&self.fresh[last..]]).filter(|chunk| !chunk.is_empty())
    }

    /// One contiguous buffer: free when nothing was spliced, one copy of
    /// every chunk otherwise.
    pub fn into_bytes(self) -> Bytes {
        if self.splices.is_empty() {
            return self.fresh;
        }
        let mut buf = BytesMut::with_capacity(self.len());
        for chunk in self.chunks() {
            buf.put_slice(chunk);
        }
        buf.freeze()
    }
}

/// Exact size of a frame carrying `withdrawn` and IA bodies of the given
/// sizes, so the frame buffer is allocated once and never grows.
fn frame_size(withdrawn: &[Ipv4Prefix], ia_sizes: impl ExactSizeIterator<Item = usize>) -> usize {
    uvarint_len(withdrawn.len() as u64)
        + withdrawn.iter().map(Ipv4Prefix::wire_len).sum::<usize>()
        + uvarint_len(ia_sizes.len() as u64)
        + ia_sizes.map(|n| uvarint_len(n as u64) + n).sum::<usize>()
}

fn put_withdrawn(buf: &mut BytesMut, withdrawn: &[Ipv4Prefix]) {
    put_uvarint(buf, withdrawn.len() as u64);
    for prefix in withdrawn {
        prefix.encode(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Addr;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn sample_ia(prefix: &str) -> Ia {
        let mut ia = Ia::originate(p(prefix), Ipv4Addr::new(1, 2, 3, 4));
        ia.prepend_as(42);
        ia
    }

    #[test]
    fn roundtrip_mixed_update() {
        let update = DbgpUpdate {
            withdrawn: vec![p("192.168.0.0/16"), p("10.0.0.0/8")],
            ias: vec![sample_ia("128.6.0.0/16"), sample_ia("203.0.113.0/24")],
        };
        let mut bytes = update.encode();
        let decoded = DbgpUpdate::decode(&mut bytes).unwrap();
        assert_eq!(decoded, update);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn roundtrip_back_to_back_frames() {
        let u1 = DbgpUpdate::announce(sample_ia("10.0.0.0/8"));
        let u2 = DbgpUpdate::withdraw(p("10.0.0.0/8"));
        let mut stream = BytesMut::new();
        stream.put_slice(&u1.encode());
        stream.put_slice(&u2.encode());
        let mut bytes = stream.freeze();
        assert_eq!(DbgpUpdate::decode(&mut bytes).unwrap(), u1);
        assert_eq!(DbgpUpdate::decode(&mut bytes).unwrap(), u2);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn truncation_detected() {
        let bytes = DbgpUpdate::announce(sample_ia("10.0.0.0/8")).encode();
        for cut in 0..bytes.len() {
            let mut partial = bytes.slice(..cut);
            assert!(DbgpUpdate::decode(&mut partial).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn encode_frame_matches_encode() {
        let update = DbgpUpdate {
            withdrawn: vec![p("192.168.0.0/16"), p("10.0.0.0/8")],
            ias: vec![sample_ia("128.6.0.0/16"), sample_ia("203.0.113.0/24")],
        };
        let bodies: Vec<EncodedIa> = update.ias.iter().map(Ia::encode).collect();
        let assembled = DbgpUpdate::encode_frame(&update.withdrawn, &bodies);
        assert_eq!(assembled.chunks().count(), 1, "nothing to splice: one fresh buffer");
        assert_eq!(assembled.len(), update.encode().len());
        assert_eq!(
            assembled.into_bytes(),
            update.encode(),
            "cached-body assembly is byte-identical"
        );
    }

    #[test]
    fn a_frame_shares_the_tails_of_pass_through_ias() {
        // Two IAs with descriptors arrive in one frame, a BGP-only one
        // between them; each is prepended and sent on in one frame.
        let with_tail = |prefix: &str, fill: u8| {
            let mut ia = sample_ia(prefix);
            ia.path_descriptors.push(dbgp_wire::PathDescriptor::new(
                dbgp_wire::ProtocolId(100),
                1,
                vec![fill; 600],
            ));
            ia
        };
        let arriving = DbgpUpdate {
            withdrawn: vec![p("10.0.0.0/8")],
            ias: vec![
                with_tail("128.6.0.0/16", 0xaa),
                sample_ia("198.51.100.0/24"),
                with_tail("203.0.113.0/24", 0xbb),
            ],
        };
        let arrival = arriving.encode();
        let span = arrival.as_ptr_range();
        let received = DbgpUpdate::decode(&mut arrival.clone()).unwrap();
        let forwarded = DbgpUpdate {
            withdrawn: received.withdrawn,
            ias: received.ias.iter().map(|ia| ia.prepended(7)).collect(),
        };
        let bodies: Vec<EncodedIa> = forwarded.ias.iter().map(Ia::encode).collect();
        assert_eq!(
            bodies.iter().map(EncodedIa::is_spliced).collect::<Vec<_>>(),
            [true, false, true]
        );
        let frame = DbgpUpdate::encode_frame(&forwarded.withdrawn, &bodies);
        let chunks: Vec<&[u8]> = frame.chunks().collect();
        let shared: Vec<bool> =
            chunks.iter().map(|c| span.contains(&c.as_ptr()) && c.len() > 600).collect();
        assert_eq!(shared, [false, true, false, true], "fresh, tail, fresh, tail");
        assert_eq!(frame.len(), chunks.iter().map(|c| c.len()).sum::<usize>());
        assert_eq!(frame.into_bytes(), forwarded.encode(), "the same bytes as a contiguous encode");
    }

    #[test]
    fn frames_are_sized_exactly() {
        let update = DbgpUpdate {
            withdrawn: vec![p("192.168.0.0/16"), p("0.0.0.0/0")],
            ias: vec![sample_ia("128.6.0.0/16"), sample_ia("203.0.113.0/24")],
        };
        let sizes = update.ias.iter().map(Ia::wire_size);
        assert_eq!(frame_size(&update.withdrawn, sizes), update.encode().len());
        assert_eq!(frame_size(&[], [].into_iter()), DbgpUpdate::default().encode().len());
    }

    #[test]
    fn empty_update_roundtrips() {
        let update = DbgpUpdate::default();
        let mut bytes = update.encode();
        assert_eq!(DbgpUpdate::decode(&mut bytes).unwrap(), update);
    }
}
