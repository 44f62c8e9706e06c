//! The IA database: everything a speaker knows about each prefix, in one
//! prefix-keyed table. An IA carries exactly one prefix, so — unlike
//! classic BGP, where one attribute block is shared by many NLRI and
//! `dbgp_rib::AdjRib` keeps a trie per neighbor — nothing is shared
//! across prefixes and every pipeline step asks about one prefix: one
//! trie walk finds the [`PrefixEntry`] that answers all of them.
//!
//! The IA factory (paper §3.3, step 6) builds the outgoing IA from the
//! stored incoming one, so control information for protocols the local
//! AS does not run is copied through verbatim — the pass-through feature.

use crate::neighbor::NeighborId;
use crate::speaker::Chosen;
use dbgp_rib::PrefixTrie;
use dbgp_wire::{Ia, Ipv4Prefix};
use std::sync::Arc;

/// What one neighbor sent us, and was sent, for a prefix.
#[derive(Debug)]
struct Slot {
    neighbor: NeighborId,
    /// Adj-RIB-In: the IA the neighbor advertised.
    received: Option<Arc<Ia>>,
    /// Adj-RIB-Out: the IA we last advertised to it.
    sent: Option<Arc<Ia>>,
}

/// Everything known about one prefix. Boxed in the trie so a node stays
/// three words: arena doubling and valueless branch nodes would
/// otherwise each pay for the whole entry.
#[derive(Debug, Default)]
pub(crate) struct PrefixEntry {
    /// One slot per neighbor with either side set, ascending by id.
    slots: Vec<Slot>,
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
    fn find(&self, neighbor: NeighborId) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&neighbor, |s| s.neighbor)
    }

    /// The slot for `neighbor`, created in id order if absent.
    fn slot_mut(&mut self, neighbor: NeighborId) -> &mut Slot {
        let at = self.find(neighbor).unwrap_or_else(|at| {
            // Most prefixes are heard from one neighbor and sent to one
            // or two: size the first allocation for that.
            if self.slots.capacity() == 0 {
                self.slots.reserve_exact(2);
            }
            self.slots.insert(at, Slot { neighbor, received: None, sent: None });
            at
        });
        &mut self.slots[at]
    }

    /// Drop the slot at `at` once neither side holds an IA.
    fn prune(&mut self, at: usize) {
        if self.slots[at].received.is_none() && self.slots[at].sent.is_none() {
            self.slots.remove(at);
        }
    }

    /// Store the IA `neighbor` sent, returning the one it replaces.
    pub(crate) fn receive(&mut self, neighbor: NeighborId, ia: Arc<Ia>) -> Option<Arc<Ia>> {
        self.slot_mut(neighbor).received.replace(ia)
    }

    /// Forget the IA `neighbor` sent, returning it.
    pub(crate) fn unreceive(&mut self, neighbor: NeighborId) -> Option<Arc<Ia>> {
        let at = self.find(neighbor).ok()?;
        let old = self.slots[at].received.take();
        self.prune(at);
        old
    }

    /// The Adj-RIB-Out diff: record that `neighbor` is to be sent `ia`.
    /// Returns `false`, touching nothing, when that is what it already
    /// has — the same allocation or an equal IA.
    pub(crate) fn advertise(&mut self, neighbor: NeighborId, ia: &Arc<Ia>) -> bool {
        let sent = &mut self.slot_mut(neighbor).sent;
        let changed = !sent.as_ref().is_some_and(|s| Arc::ptr_eq(s, ia) || **s == **ia);
        if changed {
            *sent = Some(Arc::clone(ia));
        }
        changed
    }

    /// Record a withdrawal; `true` if `neighbor` had been sent an IA.
    pub(crate) fn withdraw(&mut self, neighbor: NeighborId) -> bool {
        let Ok(at) = self.find(neighbor) else { return false };
        let had = self.slots[at].sent.take().is_some();
        self.prune(at);
        had
    }

    /// The stored IA of `neighbor`.
    pub(crate) fn received(&self, neighbor: NeighborId) -> Option<&Arc<Ia>> {
        self.slots[self.find(neighbor).ok()?].received.as_ref()
    }

    /// Every `(neighbor, IA)` received, ascending by neighbor id.
    pub(crate) fn candidates(&self) -> impl Iterator<Item = (NeighborId, &Arc<Ia>)> + '_ {
        self.slots.iter().filter_map(|s| Some((s.neighbor, s.received.as_ref()?)))
    }

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
        self.entry(ia.prefix).receive(neighbor, Arc::new(ia))
    }

    /// The stored IA of `neighbor` for `prefix`.
    pub fn get(&self, neighbor: NeighborId, prefix: &Ipv4Prefix) -> Option<&Arc<Ia>> {
        self.entries.get(prefix)?.received(neighbor)
    }

    /// Every `(neighbor, IA)` stored for `prefix`, in ascending neighbor
    /// order. Allocation-free.
    pub fn candidates(
        &self,
        prefix: &Ipv4Prefix,
    ) -> impl Iterator<Item = (NeighborId, &Arc<Ia>)> + '_ {
        self.entries.get(prefix).into_iter().flat_map(|e| e.candidates())
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
