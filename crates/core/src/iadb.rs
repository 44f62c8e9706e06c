//! The IA database: everything a speaker knows about each prefix, in one
//! prefix-keyed table. Every pipeline step asks about one prefix, so one
//! trie walk finds the [`PrefixEntry`] that answers all of them; the
//! per-neighbor half of an entry is `dbgp_rib::PeerSlots`, the same slot
//! vector the classic core (`dbgp-session`'s `RoutingCore`) keeps.
//!
//! The IA factory (paper §3.3, step 6) builds the outgoing IA from the
//! stored incoming one, so control information for protocols the local
//! AS does not run is copied through verbatim — the pass-through feature.

use crate::neighbor::NeighborId;
use crate::speaker::Chosen;
use dbgp_rib::{PeerSlots, PrefixTrie};
use dbgp_wire::{Ia, Ipv4Prefix};
use std::sync::Arc;

/// Everything known about one prefix. Boxed in the trie so a node stays
/// three words: arena doubling and valueless branch nodes would
/// otherwise each pay for the whole entry.
#[derive(Debug, Default)]
pub(crate) struct PrefixEntry {
    /// Adj-RIB-In and Adj-RIB-Out: what each neighbor sent and was sent.
    pub(crate) slots: PeerSlots<NeighborId, Ia>,
    /// The IA we originate for the prefix, if any.
    pub(crate) originated: Option<Arc<Ia>>,
    /// Loc-RIB: the installed best path.
    pub(crate) chosen: Option<Chosen>,
    /// Factory products built from `chosen`, one per neighbor class
    /// (in-island × speaks-D-BGP); filled only while every resident
    /// module's export is uniform, emptied whenever `chosen` changes.
    pub(crate) built: [Option<Arc<Ia>>; 4],
    /// The `selection_epoch()` the active module reported at the last
    /// full scan (0 for stateless modules).
    pub(crate) epoch: u64,
}

impl PrefixEntry {
    /// Nothing received, originated, installed or sent: the entry can go.
    pub(crate) fn is_idle(&self) -> bool {
        self.slots.is_empty() && self.originated.is_none() && self.chosen.is_none()
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
        self.entries.get(prefix).into_iter().flat_map(|e| e.slots.candidates())
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
