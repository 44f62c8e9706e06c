//! TCP stream reassembly: turn an arbitrarily fragmented byte stream
//! into framed BGP messages.
//!
//! TCP guarantees ordered bytes, not message boundaries: one `read` may
//! return half a header, three messages, or a message and a half. The
//! [`StreamReassembler`] buffers whatever arrives and yields complete
//! [`BgpMessage`]s — the same `bytes::BytesMut` + [`BgpMessage::decode`]
//! discipline the simulator's speakers use, packaged so the daemon's
//! socket loop and the sans-IO session core share one implementation.
//! A fragmentation proptest in `tests/` pins the invariant that chunk
//! boundaries never change the decoded message sequence.

use bytes::BytesMut;
use dbgp_wire::error::{WireError, WireResult};
use dbgp_wire::message::BgpMessage;

/// Buffers received bytes and yields complete BGP messages.
///
/// Memory is bounded by the largest partial message, not by session
/// lifetime: the buffer reclaims the front that framed messages were
/// consumed from before it grows (see [`StreamReassembler::capacity`]).
///
/// Decode errors are fatal to the underlying session (RFC 4271 §6):
/// after [`StreamReassembler::next_message`] returns an error the
/// buffer contents are undefined and the host must tear the connection
/// down; [`StreamReassembler::reset`] readies the buffer for a new
/// connection.
#[derive(Debug, Clone, Default)]
pub struct StreamReassembler {
    buf: BytesMut,
}

impl StreamReassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        StreamReassembler { buf: BytesMut::new() }
    }

    /// Append bytes read from the transport.
    pub fn push(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Pop the next complete message, if one is buffered.
    ///
    /// `four_octet` selects the AS-number width for UPDATE bodies and
    /// must match what the session negotiated.
    pub fn next_message(&mut self, four_octet: bool) -> WireResult<Option<BgpMessage>> {
        BgpMessage::decode(&mut self.buf, four_octet)
    }

    /// Bytes buffered but not yet framed.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Bytes allocated for the receive buffer. Stays at a few read
    /// chunks however many bytes the session has carried; the soak
    /// tests and the daemon's metrics read it.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Drop all buffered bytes (connection reset).
    pub fn reset(&mut self) {
        self.buf.clear();
    }

    /// Decode every message in `data` in one pass, requiring the input
    /// to hold only whole messages. Convenience for tests and corpus
    /// replay.
    pub fn decode_all(data: &[u8], four_octet: bool) -> WireResult<Vec<BgpMessage>> {
        let mut r = StreamReassembler::new();
        r.push(data);
        let mut out = Vec::new();
        while let Some(msg) = r.next_message(four_octet)? {
            out.push(msg);
        }
        if r.pending() > 0 {
            return Err(WireError::Truncated { context: "trailing partial message" });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::message::OpenMsg;
    use dbgp_wire::Ipv4Addr;

    #[test]
    fn reassembles_across_fragment_boundaries() {
        let open = BgpMessage::Open(OpenMsg::new(65001, 90, Ipv4Addr::new(10, 0, 0, 1)));
        let mut bytes = open.encode(true).to_vec();
        bytes.extend_from_slice(&BgpMessage::Keepalive.encode(true));
        let mut r = StreamReassembler::new();
        // Feed one byte at a time: exactly two messages, in order.
        let mut got = Vec::new();
        for b in &bytes {
            r.push(std::slice::from_ref(b));
            while let Some(msg) = r.next_message(true).unwrap() {
                got.push(msg);
            }
        }
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], open);
        assert_eq!(got[1], BgpMessage::Keepalive);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn decode_all_rejects_trailing_garbage_only_when_partial() {
        let bytes = BgpMessage::Keepalive.encode(true);
        assert_eq!(StreamReassembler::decode_all(&bytes, true).unwrap().len(), 1);
        let mut cut = bytes.to_vec();
        cut.extend_from_slice(&bytes[..5]);
        assert!(StreamReassembler::decode_all(&cut, true).is_err());
    }
}
