//! Integrated Advertisements (IAs): D-BGP's multi-protocol advertisement
//! container (paper §3.2, Figures 4 and 7).
//!
//! An IA describes one path to one baseline-format destination prefix and
//! carries, for every protocol running on that path:
//!
//! * a **path vector** whose elements may be AS numbers, island IDs or
//!   AS_SETs — the common loop-avoidance denominator all protocols share
//!   (requirement G-R5);
//! * **island memberships** mapping contiguous path-vector entries to the
//!   island they belong to, which tells sources how to layer
//!   multi-network-protocol headers (G-R4);
//! * **path descriptors**: per-protocol attributes of the whole path
//!   (e.g., Wiser's scaled path cost, BGPSec's attestation). A descriptor
//!   names *all* protocols that share it, which is what makes critical
//!   fixes nearly free in the overhead analysis of §6.2;
//! * **island descriptors**: attributes of one island on the path (e.g.,
//!   a SCION island's within-island paths, a MIRO island's service
//!   portal, a Wiser island's cost-exchange portal).
//!
//! Beside Figure 4's shared baseline fields (origin, next hop) an IA
//! carries the rest of what a classic route does — MED, LOCAL_PREF and
//! the attributes BGP passes on unread — as one [`BgpAttrs`] block,
//! absent when empty.
//!
//! The wire form is a tag-length-value stream with varint tags and
//! lengths. Records with unknown tags are preserved byte-for-byte and
//! re-emitted on encode, so even the *container* is forward-compatible —
//! a D-BGP speaker can pass through IA extensions it has never heard of.

use crate::attrs::{
    decode_attribute_list, encode_attribute_list, BgpAttrs, Origin, PathAttribute, FLAG_EXT_LEN,
};
use crate::error::{WireError, WireResult};
use crate::ids::{IslandId, ProtocolId};
use crate::prefix::{Ipv4Addr, Ipv4Prefix};
use crate::varint::{get_uvarint, put_uvarint, uvarint_len};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::sync::Arc;

/// Well-known descriptor keys for the protocols this workspace ships.
///
/// A real deployment would carve these out of an IANA-style registry next
/// to the protocol IDs; the numbers only need to be unique per protocol.
pub mod dkey {
    /// Wiser: accumulated, scaled path cost (`u64`).
    pub const WISER_PATH_COST: u16 = 1;
    /// Wiser: IPv4 address of the island's cost-exchange portal.
    pub const WISER_PORTAL: u16 = 2;
    /// BGPSec-lite: attestation chain.
    pub const BGPSEC_ATTESTATION: u16 = 3;
    /// SCION-like: list of within-island paths (border-router IDs).
    pub const SCION_PATHS: u16 = 4;
    /// MIRO: IPv4 address of the island's service portal.
    pub const MIRO_PORTAL: u16 = 5;
    /// Pathlet Routing: within-island pathlets (FID + hop list).
    pub const PATHLET_PATHLETS: u16 = 6;
    /// EQ-BGP archetype: bottleneck bandwidth observed so far (`u64`).
    pub const EQBGP_BOTTLENECK_BW: u16 = 7;
    /// R-BGP: backup-path availability marker.
    pub const RBGP_BACKUP: u16 = 8;
    /// Generic: address-format gateway lookup service (paper §3.2's
    /// stub-island address-mapping example).
    pub const ADDR_LOOKUP_SERVICE: u16 = 9;
}

/// One element of an IA path vector: 16 bytes, the set behind one thin
/// pointer, so the common elements (an AS, an island) pay no more than
/// that.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
// `Box<[u32]>` would be a fat pointer and make every element 24 bytes.
#[allow(clippy::box_collection)]
pub enum PathElem {
    /// An ordinary AS number.
    As(u32),
    /// An island that chose to abstract away its interior (paper §3.2):
    /// loop detection then works at island granularity.
    Island(IslandId),
    /// An unordered set of ASes, used by islands that list member ASes
    /// inside an AS_SET so gulf ASes do not see an overly long path.
    AsSet(Box<Vec<u32>>),
}

impl PathElem {
    /// Contribution to path length for BGP-style shortest-path
    /// comparison: sets and islands count once.
    pub fn hop_count(&self) -> usize {
        1
    }
}

impl fmt::Display for PathElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathElem::As(asn) => write!(f, "{asn}"),
            PathElem::Island(id) => write!(f, "{id}"),
            PathElem::AsSet(ases) => {
                let strs: Vec<String> = ases.iter().map(u32::to_string).collect();
                write!(f, "{{{}}}", strs.join(","))
            }
        }
    }
}

/// Declares that path-vector entries `[start, end)` belong to `island`.
///
/// Gulf ASes appear in no membership; singleton islands map one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IslandMembership {
    /// The island the entries belong to.
    pub island: IslandId,
    /// First covered path-vector index (0 = most recently prepended).
    pub start: u16,
    /// One past the last covered index.
    pub end: u16,
}

/// A per-protocol attribute of the entire path (paper Figure 4, "Path
/// descriptors").
///
/// `protocols` lists every protocol sharing this field — e.g. origin and
/// next-hop are shared by BGP, Wiser and BGPSec, which is why critical
/// fixes add so little to IA size (§6.2's `CFu` sharing factor).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PathDescriptor {
    /// Protocols that share this descriptor (never empty).
    pub protocols: Vec<ProtocolId>,
    /// Descriptor key, scoped to the owning protocol(s); see [`dkey`].
    pub key: u16,
    /// Opaque value, interpreted by the owning protocols' decision
    /// modules. A decoded value is a view of the frame it arrived in;
    /// cloning the descriptor shares it. `Bytes::from(Vec<u8>)` (or
    /// `.into()`) mints a fresh one.
    pub value: Bytes,
}

impl PathDescriptor {
    /// A descriptor owned by a single protocol.
    pub fn new(protocol: ProtocolId, key: u16, value: impl Into<Bytes>) -> Self {
        PathDescriptor { protocols: vec![protocol], key, value: value.into() }
    }

    /// A descriptor shared by several protocols.
    pub fn shared(protocols: Vec<ProtocolId>, key: u16, value: impl Into<Bytes>) -> Self {
        debug_assert!(!protocols.is_empty());
        PathDescriptor { protocols, key, value: value.into() }
    }

    /// Does `protocol` own (or co-own) this descriptor?
    pub fn owned_by(&self, protocol: ProtocolId) -> bool {
        self.protocols.contains(&protocol)
    }
}

/// A per-island attribute (paper Figure 4, "Island descriptors"): service
/// portals, within-island paths, pathlets, address-lookup services.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IslandDescriptor {
    /// Which island this describes.
    pub island: IslandId,
    /// The protocol the descriptor belongs to.
    pub protocol: ProtocolId,
    /// Descriptor key; see [`dkey`].
    pub key: u16,
    /// Opaque value; a view of the received frame when decoded (see
    /// [`PathDescriptor::value`]).
    pub value: Bytes,
}

impl IslandDescriptor {
    /// Construct an island descriptor.
    pub fn new(island: IslandId, protocol: ProtocolId, key: u16, value: impl Into<Bytes>) -> Self {
        IslandDescriptor { island, protocol, key, value: value.into() }
    }
}

/// A record whose tag this implementation does not know. Preserved and
/// re-emitted verbatim so future IA extensions survive transit through
/// today's speakers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct UnknownRecord {
    /// The unrecognized tag.
    pub tag: u64,
    /// Raw record payload.
    pub data: Bytes,
}

/// An Integrated Advertisement.
///
/// The records a protocol *adds* — island memberships, path and island
/// descriptors, unknown records — live in one [`IaRecords`] box that an
/// IA without any of them (a gulf AS's, every IA of a BGP-only world)
/// does not allocate. The box is `None` exactly when all four lists are
/// empty; [`Ia::with_records`], the one way to change them, keeps that
/// true, so the derived equality and the encoder need no special case.
#[derive(Clone, PartialEq, Eq)]
pub struct Ia {
    /// Destination, in the baseline address format (paper: IPv4).
    pub prefix: Ipv4Prefix,
    /// Baseline origin marker (shared field in Figure 4).
    pub origin: Origin,
    /// Baseline next hop (shared field in Figure 4).
    pub next_hop: Ipv4Addr,
    /// The BGP attributes a classic route carries beyond the shared
    /// fields — MED, LOCAL_PREF, pass-through extras — or `None` when it
    /// has none of them (every IA a D-BGP-only path carries).
    pub bgp: Option<Box<BgpAttrs>>,
    /// The shared path vector, most recently prepended element first.
    pub path_vector: Vec<PathElem>,
    /// The rare records, `None` when there are none.
    records: Option<Box<IaRecords>>,
}

/// The records of an IA that only a protocol adds, in one allocation
/// beside the baseline fields: read them through [`Ia::memberships`] and
/// its siblings, change them through [`Ia::with_records`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct IaRecords {
    /// Which path-vector entries belong to which island.
    pub memberships: Vec<IslandMembership>,
    /// Per-protocol path attributes.
    pub path_descriptors: Vec<PathDescriptor>,
    /// Per-island attributes.
    pub island_descriptors: Vec<IslandDescriptor>,
    /// Unrecognized records preserved for pass-through.
    pub unknown_records: Vec<UnknownRecord>,
    /// Where the tail records sat in the frame this IA was decoded from.
    window: TailWindow,
}

/// What an IA without a records box reads.
static NO_RECORDS: IaRecords = IaRecords {
    memberships: Vec::new(),
    path_descriptors: Vec::new(),
    island_descriptors: Vec::new(),
    unknown_records: Vec::new(),
    window: TailWindow(None),
};

/// The window of the arrival frame that held a decoded IA's *tail*
/// records — path descriptors, island descriptors, unknown records:
/// everything [`Ia::encode_into`] writes after the memberships. Pass-
/// through leaves those records alone, so [`Ia::encode`] can hand the
/// window on instead of writing them again. It is a hint and never part
/// of the IA's value: the record lists are `pub` inside
/// [`Ia::with_records`], and `encode` checks the window against them
/// each time before it trusts it. It lives in the records box, which an
/// IA without tail records (every BGP-only one) does not have, and
/// behind an `Arc`, so cloning an IA does not allocate for it.
#[derive(Clone, Default)]
struct TailWindow(Option<Arc<Bytes>>);

impl PartialEq for TailWindow {
    /// Two IAs with the same fields are the same IA wherever they came
    /// from.
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl Eq for TailWindow {}

impl fmt::Debug for Ia {
    /// The fields, as the derive printed them before the window existed.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ia")
            .field("prefix", &self.prefix)
            .field("origin", &self.origin)
            .field("next_hop", &self.next_hop)
            .field("bgp", &self.bgp)
            .field("path_vector", &self.path_vector)
            .field("memberships", &self.memberships())
            .field("path_descriptors", &self.path_descriptors())
            .field("island_descriptors", &self.island_descriptors())
            .field("unknown_records", &self.unknown_records())
            .finish()
    }
}

/// The wire form of one IA, as [`Ia::encode`] returns it: a freshly
/// written chunk and, when the IA's tail records are still the bytes
/// they arrived as, the window of the arrival frame that holds them.
/// The IA's bytes are the head followed by the tail.
#[derive(Debug, Clone)]
pub struct EncodedIa {
    head: Bytes,
    tail: Option<Arc<Bytes>>,
}

impl EncodedIa {
    /// Encoded length in bytes, [`Ia::wire_size`].
    #[allow(clippy::len_without_is_empty)] // never empty: the prefix record is mandatory
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.as_ref().map_or(0, |t| t.len())
    }

    /// Was the tail shared with the arrival frame instead of written?
    pub fn is_spliced(&self) -> bool {
        self.tail.is_some()
    }

    /// The freshly written chunk: the whole IA unless
    /// [`is_spliced`](Self::is_spliced).
    pub fn head(&self) -> &Bytes {
        &self.head
    }

    /// The shared window of the arrival frame, if there is one.
    pub fn tail(&self) -> Option<&Bytes> {
        self.tail.as_deref()
    }

    /// One contiguous buffer: free when nothing was spliced, one copy of
    /// both chunks otherwise.
    pub fn into_bytes(self) -> Bytes {
        match self.tail {
            None => self.head,
            Some(tail) => {
                let mut buf = BytesMut::with_capacity(self.head.len() + tail.len());
                buf.put_slice(&self.head);
                buf.put_slice(&tail);
                buf.freeze()
            }
        }
    }
}

impl From<Bytes> for EncodedIa {
    /// A body that is already one contiguous buffer.
    fn from(whole: Bytes) -> Self {
        EncodedIa { head: whole, tail: None }
    }
}

/// A `BufMut` that stores nothing: it checks that what is written to it
/// is, byte for byte, `rest`. A slice that *is* the next bytes of `rest`
/// (same address — a descriptor value still viewing the arrival frame)
/// is accepted without being read, so checking an untouched 32 KB tail
/// reads only its record headers.
struct TailCheck<'a> {
    rest: &'a [u8],
    same: bool,
}

impl BufMut for TailCheck<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        match self.rest.split_at_checked(src.len()) {
            Some((next, rest)) if std::ptr::eq(next.as_ptr(), src.as_ptr()) || next == src => {
                self.rest = rest
            }
            _ => self.same = false,
        }
    }
}

impl Ia {
    /// An IA originated by the destination itself: empty path vector.
    pub fn originate(prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> Self {
        Ia {
            prefix,
            origin: Origin::Igp,
            next_hop,
            bgp: None,
            path_vector: Vec::new(),
            records: None,
        }
    }

    /// Start building an IA fluently.
    pub fn builder(prefix: Ipv4Prefix, next_hop: Ipv4Addr) -> IaBuilder {
        IaBuilder { ia: Ia::originate(prefix, next_hop) }
    }

    /// The rare records, or the empty ones.
    fn records(&self) -> &IaRecords {
        self.records.as_deref().unwrap_or(&NO_RECORDS)
    }

    /// Which path-vector entries belong to which island.
    pub fn memberships(&self) -> &[IslandMembership] {
        &self.records().memberships
    }

    /// Per-protocol path attributes.
    pub fn path_descriptors(&self) -> &[PathDescriptor] {
        &self.records().path_descriptors
    }

    /// Per-island attributes.
    pub fn island_descriptors(&self) -> &[IslandDescriptor] {
        &self.records().island_descriptors
    }

    /// Unrecognized records preserved for pass-through.
    pub fn unknown_records(&self) -> &[UnknownRecord] {
        &self.records().unknown_records
    }

    /// Does this IA hold a records box? Only when it has a membership, a
    /// descriptor or an unknown record.
    pub fn has_records(&self) -> bool {
        self.records.is_some()
    }

    /// Change the rare records in place: `edit` gets them (empty ones,
    /// on the stack, if there are none), and records it leaves empty go,
    /// box and all. A box is allocated only for records `edit` adds.
    pub fn with_records<R>(&mut self, edit: impl FnOnce(&mut IaRecords) -> R) -> R {
        match &mut self.records {
            Some(records) => {
                let out = edit(records);
                if records.is_empty() {
                    self.records = None;
                }
                out
            }
            None => {
                let mut records = IaRecords::default();
                let out = edit(&mut records);
                if !records.is_empty() {
                    self.records = Some(Box::new(records));
                }
                out
            }
        }
    }

    /// Path length for BGP-style comparison (AS_SETs and islands count 1).
    pub fn hop_count(&self) -> usize {
        self.path_vector.iter().map(PathElem::hop_count).sum()
    }

    /// The neighbouring AS this path was received from: the leading
    /// element, if it is an AS (as
    /// [`AsPath::first_as`](crate::attrs::AsPath::first_as) reads a path).
    pub fn first_as(&self) -> Option<u32> {
        match self.path_vector.first() {
            Some(PathElem::As(asn)) => Some(*asn),
            _ => None,
        }
    }

    /// Loop check: does the path already mention this AS number?
    pub fn contains_as(&self, asn: u32) -> bool {
        self.path_vector.iter().any(|e| match e {
            PathElem::As(a) => *a == asn,
            PathElem::AsSet(ases) => ases.contains(&asn),
            PathElem::Island(_) => false,
        })
    }

    /// Loop check: does the path already mention this island?
    pub fn contains_island(&self, island: IslandId) -> bool {
        self.path_vector.iter().any(|e| matches!(e, PathElem::Island(i) if *i == island))
            || self.memberships().iter().any(|m| m.island == island)
    }

    /// Prepend an AS number (the normal per-hop operation), shifting all
    /// membership ranges right by one.
    pub fn prepend_as(&mut self, asn: u32) {
        self.path_vector.insert(0, PathElem::As(asn));
        self.shift_memberships();
    }

    /// Move every membership range one entry toward the origin: the
    /// path vector just grew by one at the front.
    fn shift_memberships(&mut self) {
        if let Some(records) = &mut self.records {
            for m in &mut records.memberships {
                m.start += 1;
                m.end += 1;
            }
        }
    }

    /// A copy of this IA with `asn` prepended — `clone` then
    /// [`prepend_as`](Self::prepend_as), except that the path vector is
    /// built once at its final length instead of cloned at exact
    /// capacity and then grown and shifted by the `insert(0)`.
    pub fn prepended(&self, asn: u32) -> Ia {
        let mut path_vector = Vec::with_capacity(self.path_vector.len() + 1);
        path_vector.push(PathElem::As(asn));
        path_vector.extend_from_slice(&self.path_vector);
        let mut ia = Ia {
            prefix: self.prefix,
            origin: self.origin,
            next_hop: self.next_hop,
            bgp: self.bgp.clone(),
            path_vector,
            records: self.records.clone(),
        };
        ia.shift_memberships();
        ia
    }

    /// Change the BGP attributes in place: `edit` gets the block (an
    /// empty one if there is none), and a block it leaves empty goes.
    pub fn edit_bgp(&mut self, edit: impl FnOnce(&mut BgpAttrs)) {
        let mut block = self.bgp.take().unwrap_or_default();
        edit(&mut block);
        self.bgp = (!block.is_empty()).then_some(block);
    }

    /// Record that the frontmost `count` path-vector entries belong to
    /// `island` (the "state island membership" egress filter of §3.3).
    pub fn declare_membership(&mut self, island: IslandId, count: u16) -> WireResult<()> {
        if count as usize > self.path_vector.len() {
            return Err(WireError::BadMembershipRange);
        }
        self.with_records(|r| {
            r.memberships.push(IslandMembership { island, start: 0, end: count })
        });
        Ok(())
    }

    /// Replace the frontmost `count` entries with a single island ID (the
    /// "abstract away intra-island details" egress filter of §3.3).
    ///
    /// Loop detection thereafter works at island granularity for those
    /// hops, which is exactly the path-diversity trade-off §3.2 describes.
    pub fn abstract_island(&mut self, island: IslandId, count: u16) -> WireResult<()> {
        let count = count as usize;
        if count > self.path_vector.len() {
            return Err(WireError::BadMembershipRange);
        }
        self.path_vector.splice(0..count, [PathElem::Island(island)]);
        let removed = count as i32 - 1;
        self.with_records(|r| {
            r.memberships.retain(|m| m.start as usize >= count);
            for m in &mut r.memberships {
                m.start = (m.start as i32 - removed) as u16;
                m.end = (m.end as i32 - removed) as u16;
            }
            r.memberships.push(IslandMembership { island, start: 0, end: 1 });
        });
        Ok(())
    }

    /// All path descriptors owned (or co-owned) by `protocol`.
    pub fn path_descriptors_for(
        &self,
        protocol: ProtocolId,
    ) -> impl Iterator<Item = &PathDescriptor> {
        self.path_descriptors().iter().filter(move |d| d.owned_by(protocol))
    }

    /// The first path descriptor with this protocol + key, if any.
    pub fn path_descriptor(&self, protocol: ProtocolId, key: u16) -> Option<&PathDescriptor> {
        self.path_descriptors().iter().find(|d| d.owned_by(protocol) && d.key == key)
    }

    /// A protocol's own 8-byte big-endian value under `key` (a cost, a
    /// bandwidth); `None` when absent or not 8 bytes long.
    pub fn path_descriptor_u64(&self, protocol: ProtocolId, key: u16) -> Option<u64> {
        let d = self.path_descriptor(protocol, key)?;
        Some(u64::from_be_bytes(d.value[..].try_into().ok()?))
    }

    /// Replace every descriptor `protocol` owns under `key` with one
    /// single-protocol descriptor holding `value`, appended last.
    pub fn set_path_descriptor(&mut self, protocol: ProtocolId, key: u16, value: impl Into<Bytes>) {
        let descriptor = PathDescriptor::new(protocol, key, value);
        self.with_records(|r| {
            r.path_descriptors.retain(|d| !(d.owned_by(protocol) && d.key == key));
            r.path_descriptors.push(descriptor);
        });
    }

    /// All island descriptors owned by `protocol`.
    pub fn island_descriptors_for(
        &self,
        protocol: ProtocolId,
    ) -> impl Iterator<Item = &IslandDescriptor> {
        self.island_descriptors().iter().filter(move |d| d.protocol == protocol)
    }

    /// Every `(island, IPv4 address)` that `protocol` filed under `key`
    /// — a service portal, a lookup service — in path order. A `key` is
    /// only unique per protocol, so both are matched; a value that is not
    /// four bytes long is not an address.
    pub fn island_addrs(
        &self,
        protocol: ProtocolId,
        key: u16,
    ) -> impl Iterator<Item = (IslandId, Ipv4Addr)> + '_ {
        self.island_descriptors_for(protocol).filter(move |d| d.key == key).filter_map(|d| {
            let octets: [u8; 4] = d.value[..].try_into().ok()?;
            Some((d.island, Ipv4Addr(u32::from_be_bytes(octets))))
        })
    }

    /// This island's descriptor, once: if `island` has no descriptor of
    /// `protocol` under `key`, append one holding `value()`. One that is
    /// there already stays as it is, whatever it holds.
    pub fn ensure_island_descriptor<V: Into<Bytes>>(
        &mut self,
        island: IslandId,
        protocol: ProtocolId,
        key: u16,
        value: impl FnOnce() -> V,
    ) {
        let exists =
            self.island_descriptors_for(protocol).any(|d| d.island == island && d.key == key);
        if !exists {
            let descriptor = IslandDescriptor::new(island, protocol, key, value());
            self.with_records(|r| r.island_descriptors.push(descriptor));
        }
    }

    /// The set of protocols mentioned anywhere in this IA — what G-R4
    /// exposes to islands and gulf ASes.
    pub fn protocols_on_path(&self) -> Vec<ProtocolId> {
        let mut out: Vec<ProtocolId> = Vec::new();
        let mut push = |p: ProtocolId| {
            if !out.contains(&p) {
                out.push(p);
            }
        };
        push(ProtocolId::BGP);
        for d in self.path_descriptors() {
            for &p in &d.protocols {
                push(p);
            }
        }
        for d in self.island_descriptors() {
            push(d.protocol);
        }
        out
    }

    /// Drop every descriptor and unknown record that does not belong to
    /// one of `keep`. This is what a *BGP-baseline* Internet does at every
    /// gulf hop (§6.3's comparison case) and what a gulf operator's
    /// global filter does to a protocol it has blacklisted.
    pub fn retain_protocols(&mut self, keep: &[ProtocolId]) {
        self.with_records(|r| {
            r.path_descriptors.retain(|d| d.protocols.iter().any(|p| keep.contains(p)));
            r.island_descriptors.retain(|d| keep.contains(&d.protocol));
            r.unknown_records.clear();
            r.drop_stale_window();
        });
    }

    /// What a legacy BGP neighbor is sent in transitional mode (§3.5):
    /// BGP's own path descriptors, and no membership, island descriptor
    /// or unknown record.
    pub fn strip_to_bgp(&mut self) {
        self.with_records(|r| {
            r.path_descriptors.retain(|d| d.owned_by(ProtocolId::BGP));
            r.memberships.clear();
            r.island_descriptors.clear();
            r.unknown_records.clear();
            r.drop_stale_window();
        });
    }

    /// Remove descriptors belonging to the given protocols, keeping
    /// everything else (including unknown records). This is the gulf
    /// operator's per-protocol blacklist filter of §3.3 — "they would
    /// only need to know the protocol ID to do so".
    pub fn strip_protocols(&mut self, remove: &[ProtocolId]) {
        self.with_records(|r| {
            for d in &mut r.path_descriptors {
                d.protocols.retain(|p| !remove.contains(p));
            }
            r.path_descriptors.retain(|d| !d.protocols.is_empty());
            r.island_descriptors.retain(|d| !remove.contains(&d.protocol));
            r.drop_stale_window();
        });
    }

    /// The island that `path_vector[idx]` belongs to, if declared.
    pub fn island_of(&self, idx: u16) -> Option<IslandId> {
        if let Some(PathElem::Island(id)) = self.path_vector.get(idx as usize) {
            return Some(*id);
        }
        self.memberships().iter().find(|m| m.start <= idx && idx < m.end).map(|m| m.island)
    }

    /// Validate structural invariants (membership ranges inside the path
    /// vector, non-empty descriptor protocol lists).
    pub fn validate(&self) -> WireResult<()> {
        let len = self.path_vector.len() as u16;
        for m in self.memberships() {
            if m.start >= m.end || m.end > len {
                return Err(WireError::BadMembershipRange);
            }
        }
        for d in self.path_descriptors() {
            if d.protocols.is_empty() {
                return Err(WireError::MalformedIa("path descriptor with no protocols"));
            }
        }
        Ok(())
    }

    // ----- wire codec -------------------------------------------------

    /// Encode to the TLV wire form. An IA whose tail records are still
    /// the bytes it was decoded from — pass-through — comes back as a
    /// freshly written head plus the window of the arrival frame that
    /// holds them, and no payload byte is copied. Any other IA is one
    /// allocation of exactly [`Ia::wire_size`] bytes, every byte written
    /// once. Either way the bytes are the ones [`Ia::encode_into`]
    /// writes.
    pub fn encode(&self) -> EncodedIa {
        let records = self.records();
        let tail = records.spliceable_tail();
        let size = self.head_size() + if tail.is_some() { 0 } else { records.tail_size() };
        let mut buf = BytesMut::with_capacity(size);
        self.encode_head(&mut buf);
        if tail.is_none() {
            records.encode_tail(&mut buf);
        }
        debug_assert_eq!(buf.len(), size, "the size arithmetic and the writers agree");
        EncodedIa { head: buf.freeze(), tail }
    }

    /// Append the TLV wire form to `buf` — the bytes [`Ia::encode`]
    /// returns. Each record goes out as `tag | len | body` with its
    /// length computed up front, so nothing is staged and the
    /// destination (a frame under assembly, say) is written in place.
    pub fn encode_into(&self, buf: &mut impl BufMut) {
        self.encode_head(buf);
        self.records().encode_tail(buf);
    }

    /// The records every hop rewrites: prefix, origin, next hop, MED,
    /// the other BGP attributes, path vector, memberships.
    fn encode_head(&self, buf: &mut impl BufMut) {
        put_header(buf, tag::PREFIX, self.prefix.wire_len());
        self.prefix.encode(buf);
        put_header(buf, tag::ORIGIN, 1);
        buf.put_u8(self.origin as u8);
        put_header(buf, tag::NEXT_HOP, 4);
        buf.put_u32(self.next_hop.0);
        if let Some(bgp) = &self.bgp {
            if let Some(med) = bgp.med {
                put_header(buf, tag::MED, uvarint_len(med as u64));
                put_uvarint(buf, med as u64);
            }
            let body = bgp_record_body(bgp);
            if !body.is_empty() {
                put_header(buf, tag::BGP_ATTRS, body.len());
                buf.put_slice(&body);
            }
        }
        for elem in &self.path_vector {
            put_header(buf, tag::PATH_ELEM, elem.body_len());
            match elem {
                PathElem::As(asn) => {
                    buf.put_u8(0);
                    put_uvarint(buf, *asn as u64);
                }
                PathElem::Island(id) => {
                    buf.put_u8(1);
                    put_uvarint(buf, id.0 as u64);
                }
                PathElem::AsSet(ases) => {
                    buf.put_u8(2);
                    put_uvarint(buf, ases.len() as u64);
                    for asn in ases.iter() {
                        put_uvarint(buf, *asn as u64);
                    }
                }
            }
        }
        for m in self.memberships() {
            put_header(buf, tag::MEMBERSHIP, m.body_len());
            put_uvarint(buf, m.island.0 as u64);
            put_uvarint(buf, m.start as u64);
            put_uvarint(buf, m.end as u64);
        }
    }

    /// Exact encoded size in bytes, by arithmetic over the record
    /// lengths (nothing is encoded). Sizes [`Ia::encode`]'s buffer and
    /// feeds the overhead experiments and the stress-test workload.
    pub fn wire_size(&self) -> usize {
        self.head_size() + self.records().tail_size()
    }

    /// What [`Ia::encode_head`] writes.
    fn head_size(&self) -> usize {
        let mut n = record_len(tag::PREFIX, self.prefix.wire_len())
            + record_len(tag::ORIGIN, 1)
            + record_len(tag::NEXT_HOP, 4);
        if let Some(bgp) = &self.bgp {
            if let Some(med) = bgp.med {
                n += record_len(tag::MED, uvarint_len(med as u64));
            }
            let body_len = bgp_record_body(bgp).len();
            if body_len > 0 {
                n += record_len(tag::BGP_ATTRS, body_len);
            }
        }
        for elem in &self.path_vector {
            n += record_len(tag::PATH_ELEM, elem.body_len());
        }
        for m in self.memberships() {
            n += record_len(tag::MEMBERSHIP, m.body_len());
        }
        n
    }

    /// Decode from the TLV wire form. Descriptor values and unknown
    /// records come back as views of `buf` — no payload byte is copied —
    /// so the decoded IA keeps `buf`'s allocation alive for as long as it
    /// (or any clone of it) holds one of them. From the first descriptor
    /// or unknown record to the end of `buf` is remembered as the tail
    /// window [`Ia::encode`] may hand on.
    pub fn decode(buf: Bytes) -> WireResult<Self> {
        let mut prefix = None;
        let mut origin = Origin::Incomplete;
        let mut next_hop = Ipv4Addr(0);
        let mut bgp = BgpAttrs::default();
        let mut path_vector = Vec::with_capacity(count_path_elems(&buf));
        let mut records = IaRecords::default();
        // Where the first tail record (descriptor or unknown) starts.
        let mut tail_at = None;

        // A borrowed cursor walks the frame; only the parts that are
        // kept are turned into refcounted views of it.
        let mut rest: &[u8] = &buf;
        while rest.has_remaining() {
            let record_at = buf.len() - rest.len();
            let t = get_uvarint(&mut rest)?;
            let len = get_uvarint(&mut rest)? as usize;
            if rest.remaining() < len {
                return Err(WireError::Truncated { context: "IA record body" });
            }
            let (mut body, tail) = rest.split_at(len);
            rest = tail;
            match t {
                tag::PREFIX => prefix = Some(Ipv4Prefix::decode(&mut body)?),
                tag::ORIGIN => {
                    if body.remaining() < 1 {
                        return Err(WireError::MalformedIa("empty origin"));
                    }
                    origin = Origin::from_u8(body.get_u8())?;
                }
                tag::NEXT_HOP => {
                    if body.remaining() < 4 {
                        return Err(WireError::MalformedIa("short next hop"));
                    }
                    next_hop = Ipv4Addr(body.get_u32());
                }
                tag::MED => {
                    let v = get_uvarint(&mut body)?;
                    bgp.med = Some(u32::try_from(v).map_err(|_| WireError::Overflow("med"))?);
                }
                tag::BGP_ATTRS => read_bgp_record(buf.slice_ref(body), &mut bgp)?,
                tag::PATH_ELEM => {
                    if body.remaining() < 1 {
                        return Err(WireError::MalformedIa("empty path element"));
                    }
                    let kind = body.get_u8();
                    path_vector.push(match kind {
                        0 => PathElem::As(read_u32(&mut body)?),
                        1 => PathElem::Island(IslandId(read_u32(&mut body)?)),
                        2 => {
                            let n = get_uvarint(&mut body)? as usize;
                            if n > body.remaining() {
                                return Err(WireError::MalformedIa("AS_SET count too large"));
                            }
                            let mut ases = Vec::with_capacity(n);
                            for _ in 0..n {
                                ases.push(read_u32(&mut body)?);
                            }
                            PathElem::AsSet(Box::new(ases))
                        }
                        _ => return Err(WireError::MalformedIa("unknown path element kind")),
                    });
                }
                tag::MEMBERSHIP => {
                    let island = IslandId(read_u32(&mut body)?);
                    let start = read_u16(&mut body)?;
                    let end = read_u16(&mut body)?;
                    records.memberships.push(IslandMembership { island, start, end });
                }
                tag::PATH_DESC => {
                    let nproto = get_uvarint(&mut body)? as usize;
                    // Each protocol ID is a varint (>= 1 byte) and the key
                    // and value-length fields still have to follow.
                    if nproto == 0 || nproto.saturating_add(2) > body.remaining() {
                        return Err(WireError::MalformedIa("bad descriptor protocol count"));
                    }
                    let mut protocols = Vec::with_capacity(nproto);
                    for _ in 0..nproto {
                        protocols.push(ProtocolId(read_u16(&mut body)?));
                    }
                    let key = read_u16(&mut body)?;
                    let vlen = get_uvarint(&mut body)? as usize;
                    if body.remaining() < vlen {
                        return Err(WireError::MalformedIa("short descriptor value"));
                    }
                    let value = buf.slice_ref(&body[..vlen]);
                    records.path_descriptors.push(PathDescriptor { protocols, key, value });
                    tail_at.get_or_insert(record_at);
                }
                tag::ISLAND_DESC => {
                    let island = IslandId(read_u32(&mut body)?);
                    let protocol = ProtocolId(read_u16(&mut body)?);
                    let key = read_u16(&mut body)?;
                    let vlen = get_uvarint(&mut body)? as usize;
                    if body.remaining() < vlen {
                        return Err(WireError::MalformedIa("short island descriptor value"));
                    }
                    let value = buf.slice_ref(&body[..vlen]);
                    records.island_descriptors.push(IslandDescriptor {
                        island,
                        protocol,
                        key,
                        value,
                    });
                    tail_at.get_or_insert(record_at);
                }
                other => {
                    records
                        .unknown_records
                        .push(UnknownRecord { tag: other, data: buf.slice_ref(body) });
                    tail_at.get_or_insert(record_at);
                }
            }
        }

        let prefix = prefix.ok_or(WireError::MalformedIa("missing prefix record"))?;
        // A window exists only beside a tail record, so never in an empty
        // box.
        records.window = TailWindow(tail_at.map(|at| Arc::new(buf.slice(at..))));
        let ia = Ia {
            prefix,
            origin,
            next_hop,
            bgp: (!bgp.is_empty()).then(|| Box::new(bgp)),
            path_vector,
            records: (!records.is_empty()).then(|| Box::new(records)),
        };
        ia.validate()?;
        Ok(ia)
    }
}

impl IaRecords {
    fn is_empty(&self) -> bool {
        self.memberships.is_empty()
            && self.path_descriptors.is_empty()
            && self.island_descriptors.is_empty()
            && self.unknown_records.is_empty()
    }

    /// The records pass-through carries untouched: path descriptors,
    /// island descriptors, unknown records.
    fn encode_tail(&self, buf: &mut impl BufMut) {
        for d in &self.path_descriptors {
            put_header(buf, tag::PATH_DESC, d.body_len());
            put_uvarint(buf, d.protocols.len() as u64);
            for p in &d.protocols {
                put_uvarint(buf, p.0 as u64);
            }
            put_uvarint(buf, d.key as u64);
            put_value(buf, &d.value);
        }
        for d in &self.island_descriptors {
            put_header(buf, tag::ISLAND_DESC, d.body_len());
            put_uvarint(buf, d.island.0 as u64);
            put_uvarint(buf, d.protocol.0 as u64);
            put_uvarint(buf, d.key as u64);
            put_value(buf, &d.value);
        }
        for r in &self.unknown_records {
            put_header(buf, r.tag, r.data.len());
            buf.put_slice(&r.data);
        }
    }

    /// What [`IaRecords::encode_tail`] writes.
    fn tail_size(&self) -> usize {
        let mut n = 0;
        for d in &self.path_descriptors {
            n += record_len(tag::PATH_DESC, d.body_len());
        }
        for d in &self.island_descriptors {
            n += record_len(tag::ISLAND_DESC, d.body_len());
        }
        for r in &self.unknown_records {
            n += record_len(r.tag, r.data.len());
        }
        n
    }

    /// A filter that removed something leaves the window useless, and an
    /// IA stripped to a few small descriptors must not keep a whole
    /// frame alive through it (DESIGN.md §6, the retention bound).
    fn drop_stale_window(&mut self) {
        if self.spliceable_tail().is_none() {
            self.window = TailWindow(None);
        }
    }

    /// The arrival window, if the tail records as they stand now would
    /// encode to exactly its bytes. Decided by checking, not by tracking
    /// writes: the fields are `pub`, and a peer's frame may hold the
    /// records in another order or with non-minimal varints.
    fn spliceable_tail(&self) -> Option<Arc<Bytes>> {
        let window = self.window.0.as_ref()?;
        let mut check = TailCheck { rest: window, same: true };
        self.encode_tail(&mut check);
        (check.same && check.rest.is_empty()).then(|| Arc::clone(window))
    }
}

impl fmt::Display for Ia {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IA {} via {} path [", self.prefix, self.next_hop)?;
        let mut first = true;
        for e in &self.path_vector {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{e}")?;
        }
        write!(f, "] protos {{")?;
        let mut first = true;
        for p in self.protocols_on_path() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Fluent construction helper for tests, examples and workload
/// generators.
pub struct IaBuilder {
    ia: Ia,
}

impl IaBuilder {
    /// Append an AS to the *end* of the path vector (origin side).
    pub fn as_hop(mut self, asn: u32) -> Self {
        self.ia.path_vector.push(PathElem::As(asn));
        self
    }

    /// Append an island-ID element to the end of the path vector.
    pub fn island_hop(mut self, island: IslandId) -> Self {
        self.ia.path_vector.push(PathElem::Island(island));
        self
    }

    /// Set the MED.
    pub fn med(mut self, med: u32) -> Self {
        self.ia.edit_bgp(|b| b.med = Some(med));
        self
    }

    /// Set the origin marker.
    pub fn origin(mut self, origin: Origin) -> Self {
        self.ia.origin = origin;
        self
    }

    /// Declare island membership over `[start, end)`.
    pub fn membership(mut self, island: IslandId, start: u16, end: u16) -> Self {
        self.ia.with_records(|r| r.memberships.push(IslandMembership { island, start, end }));
        self
    }

    /// Attach a single-protocol path descriptor.
    pub fn path_descriptor(
        mut self,
        protocol: ProtocolId,
        key: u16,
        value: impl Into<Bytes>,
    ) -> Self {
        let descriptor = PathDescriptor::new(protocol, key, value);
        self.ia.with_records(|r| r.path_descriptors.push(descriptor));
        self
    }

    /// Attach a shared path descriptor.
    pub fn shared_descriptor(
        mut self,
        protocols: Vec<ProtocolId>,
        key: u16,
        value: impl Into<Bytes>,
    ) -> Self {
        let descriptor = PathDescriptor::shared(protocols, key, value);
        self.ia.with_records(|r| r.path_descriptors.push(descriptor));
        self
    }

    /// Attach an island descriptor.
    pub fn island_descriptor(
        mut self,
        island: IslandId,
        protocol: ProtocolId,
        key: u16,
        value: impl Into<Bytes>,
    ) -> Self {
        let descriptor = IslandDescriptor::new(island, protocol, key, value);
        self.ia.with_records(|r| r.island_descriptors.push(descriptor));
        self
    }

    /// Finish, validating invariants.
    pub fn build(self) -> WireResult<Ia> {
        self.ia.validate()?;
        Ok(self.ia)
    }
}

mod tag {
    pub const PREFIX: u64 = 1;
    pub const ORIGIN: u64 = 2;
    pub const NEXT_HOP: u64 = 3;
    pub const MED: u64 = 4;
    pub const PATH_ELEM: u64 = 5;
    pub const MEMBERSHIP: u64 = 6;
    pub const PATH_DESC: u64 = 7;
    pub const ISLAND_DESC: u64 = 8;
    pub const BGP_ATTRS: u64 = 10;
}

/// The body of an IA's BGP-attribute record: LOCAL_PREF and the extras
/// as one four-octet attribute list (MED has a record of its own).
/// Empty when there are neither, and then no record is written.
fn bgp_record_body(bgp: &BgpAttrs) -> Vec<u8> {
    let mut list: Vec<PathAttribute> =
        bgp.local_pref.map(PathAttribute::LocalPref).into_iter().collect();
    list.extend(bgp.extras.iter().cloned());
    let mut body = Vec::new();
    encode_attribute_list(&list, &mut body, true);
    body
}

/// Read a BGP-attribute record into `bgp`, replacing the LOCAL_PREF and
/// extras an earlier one set (a repeated record wins, as every head
/// record does). What it reads is normalised to what
/// [`bgp_record_body`] writes back: extras in code order, an unknown
/// attribute's flags without the extended-length bit, which only the
/// length of its body decides. An attribute Figure 4 shares, or MED, has
/// a record of its own and is refused here.
fn read_bgp_record(body: Bytes, bgp: &mut BgpAttrs) -> WireResult<()> {
    let mut local_pref = None;
    let mut extras = Vec::new();
    for attr in decode_attribute_list(body, true)? {
        match attr {
            PathAttribute::LocalPref(v) => local_pref = Some(v),
            PathAttribute::Origin(_)
            | PathAttribute::AsPath(_)
            | PathAttribute::NextHop(_)
            | PathAttribute::Med(_) => {
                return Err(WireError::MalformedAttribute {
                    code: attr.code(),
                    detail: "has its own IA record",
                })
            }
            PathAttribute::Unknown { flags, code, data } => {
                extras.push(PathAttribute::Unknown { flags: flags & !FLAG_EXT_LEN, code, data })
            }
            other => extras.push(other),
        }
    }
    extras.sort_by_key(PathAttribute::code);
    bgp.local_pref = local_pref;
    bgp.extras = extras;
    Ok(())
}

/// Write a record's `tag | len` header; the caller writes exactly
/// `body_len` bytes of body next.
fn put_header(buf: &mut impl BufMut, tag: u64, body_len: usize) {
    put_uvarint(buf, tag);
    put_uvarint(buf, body_len as u64);
}

/// Encoded size of a whole `tag | len | body` record.
fn record_len(tag: u64, body_len: usize) -> usize {
    uvarint_len(tag) + uvarint_len(body_len as u64) + body_len
}

/// Write an opaque value as `len | bytes`.
fn put_value(buf: &mut impl BufMut, value: &[u8]) {
    put_uvarint(buf, value.len() as u64);
    buf.put_slice(value);
}

/// Encoded size of what [`put_value`] writes.
fn value_len(value: &[u8]) -> usize {
    uvarint_len(value.len() as u64) + value.len()
}

impl PathElem {
    /// Encoded size of this element's record body.
    fn body_len(&self) -> usize {
        1 + match self {
            PathElem::As(asn) => uvarint_len(*asn as u64),
            PathElem::Island(id) => uvarint_len(id.0 as u64),
            PathElem::AsSet(ases) => {
                uvarint_len(ases.len() as u64)
                    + ases.iter().map(|asn| uvarint_len(*asn as u64)).sum::<usize>()
            }
        }
    }
}

impl IslandMembership {
    fn body_len(&self) -> usize {
        uvarint_len(self.island.0 as u64)
            + uvarint_len(self.start as u64)
            + uvarint_len(self.end as u64)
    }
}

impl PathDescriptor {
    fn body_len(&self) -> usize {
        uvarint_len(self.protocols.len() as u64)
            + self.protocols.iter().map(|p| uvarint_len(p.0 as u64)).sum::<usize>()
            + uvarint_len(self.key as u64)
            + value_len(&self.value)
    }
}

impl IslandDescriptor {
    fn body_len(&self) -> usize {
        uvarint_len(self.island.0 as u64)
            + uvarint_len(self.protocol.0 as u64)
            + uvarint_len(self.key as u64)
            + value_len(&self.value)
    }
}

/// How many path-element records `ia` holds, from its record headers
/// alone, so the decoder allocates the path vector once at its length. A
/// malformed header ends the count; the decoder reports it.
fn count_path_elems(mut ia: &[u8]) -> usize {
    let mut n = 0;
    while let (Ok(t), Ok(len)) = (get_uvarint(&mut ia), get_uvarint(&mut ia)) {
        let Some(rest) = usize::try_from(len).ok().and_then(|len| ia.get(len..)) else { break };
        ia = rest;
        n += usize::from(t == tag::PATH_ELEM);
    }
    n
}

fn read_u32(buf: &mut &[u8]) -> WireResult<u32> {
    let v = get_uvarint(buf)?;
    u32::try_from(v).map_err(|_| WireError::Overflow("u32 field"))
}

fn read_u16(buf: &mut &[u8]) -> WireResult<u16> {
    let v = get_uvarint(buf)?;
    u16::try_from(v).map_err(|_| WireError::Overflow("u16 field"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// The Figure-4 IA from the paper: a path through a Wiser singleton
    /// island (AS 3), a SCION island (A), a MIRO island (G), a gulf AS
    /// (4000), and a BGPSec island (K).
    fn figure4_ia() -> Ia {
        let island_a = IslandId(1001);
        let island_g = IslandId(1007);
        let island_k = IslandId(1011);
        Ia::builder(p("128.6.0.0/32"), Ipv4Addr::new(195, 2, 27, 0))
            .origin(Origin::Egp)
            .as_hop(3)
            .island_hop(island_a)
            .as_hop(16)
            .as_hop(19)
            .as_hop(4000)
            .membership(island_g, 2, 4)
            .membership(island_k, 5, 6)
            .as_hop(77)
            .shared_descriptor(
                vec![ProtocolId::WISER],
                dkey::WISER_PATH_COST,
                100u64.to_be_bytes().to_vec(),
            )
            .path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION, b"<signatures>".to_vec())
            .island_descriptor(
                island_a,
                ProtocolId::SCION,
                dkey::SCION_PATHS,
                b"br70 br50 br10 br1;br70 br20 br5 br1".to_vec(),
            )
            .island_descriptor(
                island_g,
                ProtocolId::MIRO,
                dkey::MIRO_PORTAL,
                Ipv4Addr::new(173, 82, 2, 0).octets().to_vec(),
            )
            .island_descriptor(
                IslandId::from_as(3),
                ProtocolId::WISER,
                dkey::WISER_PORTAL,
                Ipv4Addr::new(163, 42, 5, 0).octets().to_vec(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn set_path_descriptor_replaces_in_place_of_appending_a_second() {
        let mut ia = figure4_ia();
        assert_eq!(ia.path_descriptor_u64(ProtocolId::WISER, dkey::WISER_PATH_COST), Some(100));
        ia.set_path_descriptor(
            ProtocolId::WISER,
            dkey::WISER_PATH_COST,
            7u64.to_be_bytes().to_vec(),
        );
        assert_eq!(ia.path_descriptor_u64(ProtocolId::WISER, dkey::WISER_PATH_COST), Some(7));
        // Retain-then-push: the other protocol's descriptor moves up, the
        // new value goes last, and nothing is left of the old one.
        let keys: Vec<_> = ia.path_descriptors().iter().map(|d| (d.protocols[0], d.key)).collect();
        assert_eq!(
            keys,
            [
                (ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION),
                (ProtocolId::WISER, dkey::WISER_PATH_COST)
            ]
        );
        // Same key under another protocol, and a value that is not eight
        // bytes, are not this protocol's number.
        assert_eq!(ia.path_descriptor_u64(ProtocolId::EQBGP, dkey::WISER_PATH_COST), None);
        assert_eq!(ia.path_descriptor_u64(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION), None);
    }

    #[test]
    fn ensure_island_descriptor_appends_once_and_island_addrs_reads_both_halves_of_the_key() {
        // A key number nothing in Figure 4 uses, under two protocols.
        const KEY: u16 = 77;
        let (ours, theirs) = (ProtocolId::EQBGP, ProtocolId::HLP);
        let mut ia = figure4_ia();
        let portal = Ipv4Addr::new(198, 18, 0, 1);
        let before = ia.island_descriptors().to_vec();
        for _ in 0..2 {
            ia.ensure_island_descriptor(IslandId(70), ours, KEY, || portal.octets().to_vec());
        }
        // Appended last, once; what was there is untouched.
        assert_eq!(ia.island_descriptors().len(), before.len() + 1);
        assert_eq!(ia.island_descriptors()[..before.len()], before[..]);
        let addrs = |ia: &Ia, protocol| ia.island_addrs(protocol, KEY).collect::<Vec<_>>();
        assert_eq!(addrs(&ia, ours), [(IslandId(70), portal)]);
        // Another island's descriptor, or another protocol's under the
        // same key number, is a different descriptor.
        ia.ensure_island_descriptor(IslandId(71), ours, KEY, || vec![1]);
        ia.ensure_island_descriptor(IslandId(70), theirs, KEY, || vec![9, 9, 9, 9]);
        assert_eq!(ia.island_descriptors().len(), before.len() + 3);
        // One byte is not an address; their four bytes are not ours.
        assert_eq!(addrs(&ia, ours), [(IslandId(70), portal)]);
        assert_eq!(addrs(&ia, theirs), [(IslandId(70), Ipv4Addr::new(9, 9, 9, 9))]);
        // An existing descriptor is kept, whatever it holds.
        ia.ensure_island_descriptor(IslandId(71), ours, KEY, || -> Vec<u8> {
            unreachable!("there is one already")
        });
        assert_eq!(ia.island_descriptors().len(), before.len() + 3);
    }

    #[test]
    fn figure4_roundtrip() {
        let ia = figure4_ia();
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(decoded, ia);
    }

    #[test]
    fn figure4_protocols_on_path() {
        let protos = figure4_ia().protocols_on_path();
        for expect in [
            ProtocolId::BGP,
            ProtocolId::WISER,
            ProtocolId::BGPSEC,
            ProtocolId::SCION,
            ProtocolId::MIRO,
        ] {
            assert!(protos.contains(&expect), "missing {expect}");
        }
    }

    #[test]
    fn loop_detection_over_as_and_islands() {
        let ia = figure4_ia();
        assert!(ia.contains_as(4000));
        assert!(ia.contains_as(3));
        assert!(!ia.contains_as(9999));
        assert!(ia.contains_island(IslandId(1001)));
        assert!(ia.contains_island(IslandId(1007)), "membership-declared islands count");
        assert!(!ia.contains_island(IslandId(5)));
    }

    #[test]
    fn as_set_members_count_for_loops() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.path_vector.push(PathElem::AsSet(Box::new(vec![10, 20, 30])));
        assert!(ia.contains_as(20));
        assert_eq!(ia.hop_count(), 1);
    }

    #[test]
    fn prepend_shifts_memberships() {
        let mut ia = figure4_ia();
        let before = ia.memberships().to_vec();
        ia.prepend_as(42);
        assert_eq!(ia.path_vector[0], PathElem::As(42));
        for (b, a) in before.iter().zip(ia.memberships()) {
            assert_eq!(a.start, b.start + 1);
            assert_eq!(a.end, b.end + 1);
        }
        assert!(ia.validate().is_ok());
    }

    #[test]
    fn prepended_equals_clone_then_prepend_as() {
        // Memberships, shared/path/island descriptors, an unknown record.
        let mut ia = figure4_ia();
        ia.edit_bgp(|b| b.med = Some(7));
        let future = UnknownRecord { tag: 999, data: Bytes::from_static(b"future") };
        ia.with_records(|r| r.unknown_records.push(future));
        for ia in [ia, Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(10, 0, 0, 1))] {
            let mut expected = ia.clone();
            expected.prepend_as(42);
            let got = ia.prepended(42);
            assert_eq!(got, expected);
            assert_eq!(got.path_vector.capacity(), got.path_vector.len(), "built in one piece");
        }
    }

    #[test]
    fn declare_membership_front() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.prepend_as(30);
        ia.prepend_as(20);
        ia.prepend_as(10);
        ia.declare_membership(IslandId(500), 2).unwrap();
        assert_eq!(ia.island_of(0), Some(IslandId(500)));
        assert_eq!(ia.island_of(1), Some(IslandId(500)));
        assert_eq!(ia.island_of(2), None);
    }

    #[test]
    fn declare_membership_rejects_overrun() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.prepend_as(10);
        assert_eq!(ia.declare_membership(IslandId(1), 2), Err(WireError::BadMembershipRange));
    }

    #[test]
    fn abstract_island_replaces_front_entries() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for asn in [5, 4, 3, 2, 1] {
            ia.prepend_as(asn);
        }
        // Path is now [1 2 3 4 5]; abstract the front three into island 900.
        ia.abstract_island(IslandId(900), 3).unwrap();
        assert_eq!(
            ia.path_vector,
            vec![PathElem::Island(IslandId(900)), PathElem::As(4), PathElem::As(5)]
        );
        assert_eq!(ia.hop_count(), 3);
        assert_eq!(ia.island_of(0), Some(IslandId(900)));
        assert!(ia.contains_island(IslandId(900)));
        // The abstracted ASes no longer trip AS-level loop detection —
        // the path-diversity trade-off of §3.2.
        assert!(!ia.contains_as(1));
        assert!(ia.validate().is_ok());
    }

    #[test]
    fn abstract_island_shifts_later_memberships() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        for asn in [6, 5, 4, 3, 2, 1] {
            ia.prepend_as(asn);
        }
        let m = IslandMembership { island: IslandId(777), start: 4, end: 6 };
        ia.with_records(|r| r.memberships.push(m));
        ia.abstract_island(IslandId(900), 2).unwrap();
        // Two entries became one: the old [4,6) range must now be [3,5).
        let m = ia.memberships().iter().find(|m| m.island == IslandId(777)).unwrap();
        assert_eq!((m.start, m.end), (3, 5));
        assert!(ia.validate().is_ok());
    }

    #[test]
    fn retain_protocols_strips_foreign_descriptors() {
        let mut ia = figure4_ia();
        ia.retain_protocols(&[ProtocolId::BGP, ProtocolId::WISER]);
        assert!(ia.path_descriptor(ProtocolId::WISER, dkey::WISER_PATH_COST).is_some());
        assert!(ia.path_descriptor(ProtocolId::BGPSEC, dkey::BGPSEC_ATTESTATION).is_none());
        assert!(ia.island_descriptors_for(ProtocolId::SCION).next().is_none());
        assert!(ia.island_descriptors_for(ProtocolId::WISER).next().is_some());
    }

    #[test]
    fn shared_descriptor_visible_to_all_owners() {
        let ia = Ia::builder(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1))
            .shared_descriptor(
                vec![ProtocolId::BGP, ProtocolId::WISER, ProtocolId::BGPSEC],
                99,
                vec![1],
            )
            .build()
            .unwrap();
        assert!(ia.path_descriptor(ProtocolId::BGP, 99).is_some());
        assert!(ia.path_descriptor(ProtocolId::WISER, 99).is_some());
        assert!(ia.path_descriptor(ProtocolId::BGPSEC, 99).is_some());
        assert!(ia.path_descriptor(ProtocolId::SCION, 99).is_none());
    }

    #[test]
    fn unknown_records_survive_roundtrip() {
        let mut ia = figure4_ia();
        let future = UnknownRecord { tag: 4242, data: Bytes::from_static(b"future") };
        ia.with_records(|r| r.unknown_records.push(future));
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(decoded.unknown_records(), ia.unknown_records());
    }

    #[test]
    fn decode_rejects_missing_prefix() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, tag::ORIGIN, 1);
        buf.put_u8(0);
        assert!(matches!(Ia::decode(buf.freeze()), Err(WireError::MalformedIa(_))));
    }

    #[test]
    fn decode_rejects_bad_membership_range() {
        let mut ia = figure4_ia();
        let m = IslandMembership { island: IslandId(1), start: 90, end: 91 };
        ia.with_records(|r| r.memberships.push(m));
        assert_eq!(Ia::decode(ia.encode().into_bytes()), Err(WireError::BadMembershipRange));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = figure4_ia().encode().into_bytes();
        // Chopping the stream at any interior point must error, never
        // panic and never loop.
        for cut in 1..bytes.len() {
            let _ = Ia::decode(bytes.slice(..cut));
        }
    }

    #[test]
    fn med_roundtrips() {
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.edit_bgp(|b| b.med = Some(4096));
        assert_eq!(Ia::decode(ia.encode().into_bytes()).unwrap().bgp.unwrap().med, Some(4096));
    }

    #[test]
    fn bgp_attributes_roundtrip() {
        use crate::attrs::{FLAG_OPTIONAL, FLAG_PARTIAL, FLAG_TRANSITIVE};
        let mut ia = Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1));
        ia.edit_bgp(|b| {
            b.med = Some(4096);
            b.local_pref = Some(300);
            // In code order, a transitive unknown marked PARTIAL: as
            // the decoder reads a block back.
            b.extras = vec![
                PathAttribute::Aggregator { asn: 4_200_000_001, addr: Ipv4Addr::new(10, 1, 1, 1) },
                PathAttribute::Communities(Vec::new()),
                PathAttribute::Unknown {
                    flags: FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL,
                    code: 99,
                    data: Bytes::from(vec![7; 300]),
                },
            ];
        });
        let decoded = Ia::decode(ia.encode().into_bytes()).unwrap();
        assert_eq!(decoded, ia);
        assert_eq!(decoded.wire_size(), ia.wire_size());
        // An empty block is no block.
        ia.edit_bgp(|b| *b = BgpAttrs::default());
        assert_eq!(ia.bgp, None);
    }

    #[test]
    fn the_bgp_attribute_record_is_read_back_canonically() {
        use crate::attrs::{code, FLAG_OPTIONAL, FLAG_TRANSITIVE};
        // Out of code order, an extended length on a short body.
        let list = [
            vec![FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_EXT_LEN, 99, 0, 1, 0xab],
            vec![FLAG_OPTIONAL | FLAG_TRANSITIVE, code::COMMUNITIES, 0],
        ]
        .concat();
        let mut buf = BytesMut::new();
        Ia::originate(p("10.0.0.0/8"), Ipv4Addr::new(1, 1, 1, 1)).encode_into(&mut buf);
        put_header(&mut buf, tag::BGP_ATTRS, list.len());
        buf.put_slice(&list);
        let ia = Ia::decode(buf.freeze()).unwrap();
        let codes: Vec<u8> = ia.bgp.as_ref().unwrap().extras.iter().map(|a| a.code()).collect();
        assert_eq!(codes, [code::COMMUNITIES, 99]);
        assert_eq!(Ia::decode(ia.encode().into_bytes()).unwrap(), ia);
    }

    #[test]
    fn display_lists_protocols() {
        let s = figure4_ia().to_string();
        assert!(s.contains("128.6.0.0/32"), "{s}");
        assert!(s.contains("Wiser"), "{s}");
        assert!(s.contains("SCION"), "{s}");
    }

    #[test]
    fn wire_size_tracks_payload() {
        let small = figure4_ia().wire_size();
        let mut big = figure4_ia();
        let descriptor = PathDescriptor::new(ProtocolId(50), 1, vec![0u8; 1000]);
        big.with_records(|r| r.path_descriptors.push(descriptor));
        assert!(big.wire_size() > small + 1000);
    }
}
