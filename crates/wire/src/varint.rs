//! LEB128 variable-length unsigned integers.
//!
//! The Integrated Advertisement codec uses varints everywhere a
//! protocol-buffer encoding would, so IA sizes stay close to what the
//! paper's Beagle prototype (which serialized IAs with protobuf) produced.

use crate::error::{WireError, WireResult};
use bytes::{Buf, BufMut};

/// Maximum number of bytes a `u64` LEB128 varint may occupy.
pub const MAX_VARINT_LEN: usize = 10;

/// Append `value` to `buf` as an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode an unsigned LEB128 varint from the front of `buf`.
///
/// Rejects encodings longer than [`MAX_VARINT_LEN`] bytes and encodings
/// whose final byte would overflow 64 bits.
pub fn get_uvarint(buf: &mut impl Buf) -> WireResult<u64> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for _ in 0..MAX_VARINT_LEN {
        if !buf.has_remaining() {
            return Err(WireError::MalformedVarint);
        }
        let byte = buf.get_u8();
        let low = (byte & 0x7f) as u64;
        if shift == 63 && low > 1 {
            return Err(WireError::MalformedVarint);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
    Err(WireError::MalformedVarint)
}

/// Number of bytes [`put_uvarint`] will emit for `value`.
pub fn uvarint_len(value: u64) -> usize {
    if value == 0 {
        return 1;
    }
    (64 - value.leading_zeros() as usize).div_ceil(7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn roundtrip(v: u64) -> u64 {
        let mut b = BytesMut::new();
        put_uvarint(&mut b, v);
        assert_eq!(b.len(), uvarint_len(v), "predicted length for {v}");
        let mut bytes = b.freeze();
        let out = get_uvarint(&mut bytes).unwrap();
        assert!(!bytes.has_remaining());
        out
    }

    #[test]
    fn small_values_roundtrip() {
        for v in 0..=300u64 {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn boundary_values_roundtrip() {
        for shift in 0..64 {
            let v = 1u64 << shift;
            assert_eq!(roundtrip(v), v);
            assert_eq!(roundtrip(v - 1), v - 1);
        }
        assert_eq!(roundtrip(u64::MAX), u64::MAX);
    }

    #[test]
    fn single_byte_values() {
        let mut b = BytesMut::new();
        put_uvarint(&mut b, 0x7f);
        assert_eq!(&b[..], &[0x7f]);
    }

    #[test]
    fn overlong_encoding_rejected() {
        // Eleven continuation bytes: longer than any valid u64 varint.
        let raw = [0xffu8; 11];
        let mut buf = &raw[..];
        assert_eq!(get_uvarint(&mut buf), Err(WireError::MalformedVarint));
    }

    #[test]
    fn overflowing_final_byte_rejected() {
        // 9 continuation bytes then a final byte with more than the one
        // permissible low bit set: would overflow 64 bits.
        let raw = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        let mut buf = &raw[..];
        assert_eq!(get_uvarint(&mut buf), Err(WireError::MalformedVarint));
    }

    #[test]
    fn truncated_input_rejected() {
        let raw = [0x80u8, 0x80];
        let mut buf = &raw[..];
        assert_eq!(get_uvarint(&mut buf), Err(WireError::MalformedVarint));
    }
}
