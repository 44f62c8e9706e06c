//! Error type shared by every codec in this crate.

use std::fmt;

/// Decoding / encoding failure for a BGP message or an Integrated
/// Advertisement.
///
/// Variants deliberately mirror the NOTIFICATION error subcodes of
/// RFC 4271 §6 where one applies, so a session layer can translate a
/// `WireError` into the correct NOTIFICATION to send before tearing the
/// session down (see `NotificationMsg::from_wire_error`, which the
/// session cores in `dbgp-session` call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes were available than the format requires.
    Truncated {
        /// What was being decoded when the input ran out.
        context: &'static str,
    },
    /// The 16-byte marker at the start of a BGP header was not all-ones.
    BadMarker,
    /// The header `length` field was outside `[19, 4096]` or disagrees
    /// with the message type's minimum size.
    BadLength(u16),
    /// Unknown BGP message type code.
    BadMessageType(u8),
    /// The OPEN carried an unsupported version number.
    UnsupportedVersion(u8),
    /// A hold time of 1 or 2 seconds, which RFC 4271 forbids.
    UnacceptableHoldTime(u16),
    /// A path attribute's flag bits contradict its type code.
    BadAttributeFlags {
        /// Attribute type code.
        code: u8,
        /// The offending flag octet.
        flags: u8,
    },
    /// A well-known mandatory attribute was absent from an UPDATE.
    MissingWellKnownAttribute(u8),
    /// An attribute appeared twice in one UPDATE.
    DuplicateAttribute(u8),
    /// Attribute body malformed (wrong length for fixed-size attribute,
    /// bad enum value, ...).
    MalformedAttribute {
        /// Attribute type code.
        code: u8,
        /// Human-readable detail.
        detail: &'static str,
    },
    /// A prefix had a mask length over 32 or its packed bytes were short.
    MalformedPrefix,
    /// A varint ran past its maximum width or the end of input.
    MalformedVarint,
    /// An IA record's TLV structure was malformed.
    MalformedIa(&'static str),
    /// The IA declared an island-membership range that does not fall
    /// inside its path vector.
    BadMembershipRange,
    /// A value did not fit in the field that must carry it.
    Overflow(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated input while decoding {context}")
            }
            WireError::BadMarker => write!(f, "BGP header marker is not all-ones"),
            WireError::BadLength(l) => write!(f, "bad BGP header length {l}"),
            WireError::BadMessageType(t) => write!(f, "unknown BGP message type {t}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported BGP version {v}"),
            WireError::UnacceptableHoldTime(h) => write!(f, "unacceptable hold time {h}"),
            WireError::BadAttributeFlags { code, flags } => {
                write!(f, "attribute {code} has invalid flags {flags:#04x}")
            }
            WireError::MissingWellKnownAttribute(c) => {
                write!(f, "missing well-known mandatory attribute {c}")
            }
            WireError::DuplicateAttribute(c) => write!(f, "duplicate attribute {c}"),
            WireError::MalformedAttribute { code, detail } => {
                write!(f, "malformed attribute {code}: {detail}")
            }
            WireError::MalformedPrefix => write!(f, "malformed prefix"),
            WireError::MalformedVarint => write!(f, "malformed varint"),
            WireError::MalformedIa(d) => write!(f, "malformed integrated advertisement: {d}"),
            WireError::BadMembershipRange => {
                write!(f, "island membership range outside path vector")
            }
            WireError::Overflow(what) => write!(f, "value too large for field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience alias used across the codecs.
pub type WireResult<T> = Result<T, WireError>;
