//! The IA database: everything a speaker knows about each prefix, in one
//! prefix-keyed table. Every pipeline step asks about one prefix, so one
//! trie walk finds the [`PrefixEntry`] that answers all of them; the
//! per-neighbor half of an entry is `dbgp_rib::PeerSlots`, the same slot
//! vector the classic core (`dbgp-session`'s `RoutingCore`) keeps, which
//! also holds what only a few entries have (an originated IA, exports
//! to a second neighbor class) under reserved keys.
//!
//! The IA factory (paper §3.3, step 6) builds the outgoing IA from the
//! stored incoming one, so control information for protocols the local
//! AS does not run is copied through verbatim — the pass-through feature.

use crate::neighbor::NeighborId;
use crate::speaker::Chosen;
use dbgp_rib::{PeerSlots, PrefixTrie};
use dbgp_wire::{Ia, Ipv4Prefix};
use std::sync::Arc;

/// The slot key an originated IA is stored under, on the received side.
/// It and the ids above it, the sent-side keys of the export classes kept
/// out of line, are the entry's own: they sort after every neighbor, and
/// no neighbor may have one.
pub(crate) const LOCAL: NeighborId = NeighborId(u32::MAX - 4);

/// The export class ([`PrefixEntry::export`]) kept inline in the entry:
/// a D-BGP neighbor outside the speaker's island — every neighbor of a
/// speaker in no island with no legacy peer, so a whole fan-out of those
/// needs no slot record.
const INLINE_CLASS: usize = 1;

/// The sent-side slot key of export `class` (not [`INLINE_CLASS`]).
fn class_key(class: usize) -> NeighborId {
    NeighborId(LOCAL.0 + 1 + class as u32)
}

/// Everything known about one prefix, in 56 bytes so that, boxed in the
/// trie (a node stays three words), it takes a 64-byte heap chunk.
/// What few entries hold lives among the slot records rather than in a
/// field of every entry: the originated IA under [`LOCAL`], and the
/// exports of the classes other than [`INLINE_CLASS`].
#[derive(Debug, Default)]
pub(crate) struct PrefixEntry {
    /// Adj-RIB-In and Adj-RIB-Out: what each neighbor sent and was sent,
    /// plus the reserved records above.
    pub(crate) slots: PeerSlots<NeighborId, Ia>,
    /// Loc-RIB: the installed best path.
    pub(crate) chosen: Option<Chosen>,
    /// The factory product built from `chosen` for [`INLINE_CLASS`].
    built: Option<Arc<Ia>>,
    /// The `selection_epoch()` the active module reported at the last
    /// full scan (0 for stateless modules).
    pub(crate) epoch: u64,
}

impl PrefixEntry {
    /// Nothing received, originated, installed or sent: the entry can
    /// go. (An originated IA is always the installed one.)
    pub(crate) fn is_idle(&self) -> bool {
        self.slots.is_empty() && self.chosen.is_none()
    }

    /// The IA we originate for the prefix, if any.
    pub(crate) fn originated(&self) -> Option<&Arc<Ia>> {
        self.slots.received(LOCAL)
    }

    /// Originate `ia` (`None`: stop), returning the IA it replaces.
    pub(crate) fn set_originated(&mut self, ia: Option<Arc<Ia>>) -> Option<Arc<Ia>> {
        match ia {
            Some(ia) => self.slots.receive(LOCAL, ia),
            None => self.slots.unreceive(LOCAL),
        }
    }

    /// The factory product built from `chosen` for one neighbor class
    /// (in-island × speaks-D-BGP); kept only while every resident
    /// module's export is uniform.
    pub(crate) fn export(&self, class: usize) -> Option<&Arc<Ia>> {
        if class == INLINE_CLASS {
            self.built.as_ref()
        } else {
            self.slots.sent(class_key(class))
        }
    }

    /// Keep `ia` as `class`'s export until [`clear_exports`](Self::clear_exports).
    pub(crate) fn keep_export(&mut self, class: usize, ia: &Arc<Ia>) {
        if class == INLINE_CLASS {
            self.built = Some(Arc::clone(ia));
        } else {
            self.slots.advertise(class_key(class), ia);
        }
    }

    /// Forget every export, as whenever `chosen` changes.
    pub(crate) fn clear_exports(&mut self) {
        self.built = None;
        self.slots.forget_from(class_key(0));
    }
}

/// The speaker's one prefix-keyed table. On its own (`new` / `insert` /
/// `candidates` / `get`) it is the store of received IAs.
#[derive(Debug, Default)]
pub struct IaDb {
    pub(crate) entries: PrefixTrie<Box<PrefixEntry>>,
}

impl IaDb {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// The entry for `prefix`, created empty if absent: one trie walk.
    pub(crate) fn entry(&mut self, prefix: Ipv4Prefix) -> &mut PrefixEntry {
        self.entries.get_or_insert_with(prefix, Box::default)
    }

    /// Store an IA, replacing the neighbor's previous one for the prefix
    /// (implicit withdraw). Returns the replaced IA.
    pub fn insert(&mut self, neighbor: NeighborId, ia: Ia) -> Option<Arc<Ia>> {
        self.entry(ia.prefix).slots.receive(neighbor, Arc::new(ia))
    }

    /// The stored IA of `neighbor` for `prefix`.
    pub fn get(&self, neighbor: NeighborId, prefix: &Ipv4Prefix) -> Option<&Arc<Ia>> {
        self.entries.get(prefix)?.slots.received(neighbor)
    }

    /// Every `(neighbor, IA)` stored for `prefix`, in ascending neighbor
    /// order. Allocation-free.
    pub fn candidates(
        &self,
        prefix: &Ipv4Prefix,
    ) -> impl Iterator<Item = (NeighborId, &Arc<Ia>)> + '_ {
        let entry = self.entries.get(prefix);
        entry.into_iter().flat_map(|e| e.slots.candidates()).filter(|&(n, _)| n != LOCAL)
    }

    /// Number of prefixes anything is known about.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is known about any prefix.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The entry takes a 64-byte heap chunk: it was 88 bytes (a 96-byte
    /// chunk) with the originated IA and four export slots inline.
    #[test]
    fn an_entry_fits_a_64_byte_chunk() {
        assert_eq!(std::mem::size_of::<PrefixEntry>(), 56);
    }

    /// Every class's export is kept, the originated IA is no candidate,
    /// and clearing the exports keeps it.
    #[test]
    fn reserved_records_stay_out_of_the_neighbor_view() {
        let prefix: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let ia = |n| Arc::new(Ia::originate(prefix, dbgp_wire::Ipv4Addr::new(10, 0, 0, n)));
        let mut db = IaDb::new();
        db.insert(NeighborId(3), Ia::originate(prefix, dbgp_wire::Ipv4Addr::new(10, 0, 0, 3)));
        let entry = db.entry(prefix);
        assert!(entry.set_originated(Some(ia(1))).is_none());
        for class in 0..4 {
            entry.keep_export(class, &ia(10 + class as u8));
        }
        assert!((0..4).all(|class| entry.export(class).is_some()));
        let neighbors: Vec<_> = db.candidates(&prefix).map(|(n, _)| n).collect();
        assert_eq!(neighbors, [NeighborId(3)]);
        let entry = db.entry(prefix);
        entry.clear_exports();
        assert!((0..4).all(|class| entry.export(class).is_none()));
        assert_eq!(entry.originated().map(|ia| ia.next_hop), Some(ia(1).next_hop));
        assert!(entry.set_originated(None).is_some());
        assert!(entry.originated().is_none());
    }
}
