#![warn(missing_docs)]

//! Wire formats for classic BGP-4 and for D-BGP's Integrated Advertisements.
//!
//! This crate is pure data + codecs: no sockets, no timers, no state
//! machines. Everything here can be exercised byte-for-byte in unit and
//! property tests, which is how the rest of the workspace keeps its
//! protocol logic sans-IO (see DESIGN.md §6).
//!
//! Two families of formats live here:
//!
//! * **BGP-4 messages** ([`message`], [`attrs`], [`prefix`]) following
//!   RFC 4271, with the 4-octet-AS capability of RFC 6793 (which the paper
//!   cites as the model for deploying D-BGP's wider path-vector entries).
//! * **Integrated Advertisements** ([`ia`]): the multi-protocol container
//!   of D-BGP §3.2 — a path vector admitting AS numbers, island IDs and
//!   AS_SETs; island-membership annotations; per-protocol *path
//!   descriptors*; and per-island *island descriptors*. The codec is a
//!   tag-length-value format with skippable unknown tags, standing in for
//!   the protocol-buffer encoding Beagle used (DESIGN.md §2).

pub mod attrs;
pub mod error;
pub mod ia;
pub mod ids;
pub mod message;
pub mod prefix;
pub mod varint;

pub use attrs::{AsPath, AsSegment, BgpAttrs, Origin, PathAttribute};
pub use error::WireError;
pub use ia::{
    EncodedIa, Ia, IaBuilder, IaRecords, IslandDescriptor, IslandMembership, PathDescriptor,
    PathElem,
};
pub use ids::{IslandId, ProtocolId};
pub use message::{BgpMessage, Capability, NotificationMsg, OpenMsg, UpdateMsg};
pub use prefix::{Ipv4Addr, Ipv4Prefix};
