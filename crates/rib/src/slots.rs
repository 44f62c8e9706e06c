//! The per-prefix neighbor slots: Adj-RIB-In and Adj-RIB-Out for one
//! prefix, the only such code in the workspace. Both routing cores keep
//! one [`PeerSlots`] inside the per-prefix entry of their one
//! [`PrefixTrie`](crate::PrefixTrie), so every question an UPDATE asks
//! about a prefix — who sent what, what did we send whom — is answered
//! by the entry one trie walk found.

use std::sync::Arc;

/// What one peer sent us, and was sent, for a prefix.
#[derive(Debug)]
struct Slot<K, A> {
    peer: K,
    /// Adj-RIB-In: the route the peer advertised.
    received: Option<Arc<A>>,
    /// Adj-RIB-Out: the route we last advertised to it.
    sent: Option<Arc<A>>,
}

/// One slot per peer with either side set, ascending by peer key.
///
/// Routes are interned behind `Arc`: the decision process, the installed
/// best and the export bookkeeping share one allocation per distinct
/// route, and one attribute block decoded from a multi-NLRI UPDATE is
/// shared by every prefix it announced.
#[derive(Debug)]
pub struct PeerSlots<K, A> {
    slots: Vec<Slot<K, A>>,
}

impl<K, A> Default for PeerSlots<K, A> {
    fn default() -> Self {
        PeerSlots { slots: Vec::new() }
    }
}

impl<K: Ord + Copy, A> PeerSlots<K, A> {
    fn find(&self, peer: K) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&peer, |s| s.peer)
    }

    /// The slot for `peer`, created in key order if absent.
    fn slot_mut(&mut self, peer: K) -> &mut Slot<K, A> {
        let at = self.find(peer).unwrap_or_else(|at| {
            // Most prefixes are heard from one peer and sent to one or
            // two: size the first allocation for that.
            if self.slots.capacity() == 0 {
                self.slots.reserve_exact(2);
            }
            self.slots.insert(at, Slot { peer, received: None, sent: None });
            at
        });
        &mut self.slots[at]
    }

    /// Drop the slot at `at` once neither side holds a route.
    fn prune(&mut self, at: usize) {
        if self.slots[at].received.is_none() && self.slots[at].sent.is_none() {
            self.slots.remove(at);
        }
    }

    /// Store the route `peer` sent, returning the one it replaces
    /// (implicit withdraw).
    pub fn receive(&mut self, peer: K, route: Arc<A>) -> Option<Arc<A>> {
        self.slot_mut(peer).received.replace(route)
    }

    /// Forget the route `peer` sent, returning it.
    pub fn unreceive(&mut self, peer: K) -> Option<Arc<A>> {
        let at = self.find(peer).ok()?;
        let old = self.slots[at].received.take();
        self.prune(at);
        old
    }

    /// Record a withdrawal; `true` if `peer` had been sent a route.
    pub fn withdraw(&mut self, peer: K) -> bool {
        let Ok(at) = self.find(peer) else { return false };
        let had = self.slots[at].sent.take().is_some();
        self.prune(at);
        had
    }

    /// The stored route of `peer`.
    pub fn received(&self, peer: K) -> Option<&Arc<A>> {
        self.slots[self.find(peer).ok()?].received.as_ref()
    }

    /// Every `(peer, route)` received, ascending by peer key.
    /// Allocation-free.
    pub fn candidates(&self) -> impl Iterator<Item = (K, &Arc<A>)> + '_ {
        self.slots.iter().filter_map(|s| Some((s.peer, s.received.as_ref()?)))
    }

    /// No peer sent or was sent anything.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Heap bytes held by the slot vector (the shared route bodies are
    /// accounted where they are interned, not here).
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<K, A>>()
    }
}

impl<K: Ord + Copy, A: PartialEq> PeerSlots<K, A> {
    /// The Adj-RIB-Out diff: record that `peer` is to be sent `route`.
    /// Returns `false`, touching nothing (not even the refcount), when
    /// that is what it already has — the same allocation or an equal
    /// route.
    pub fn advertise(&mut self, peer: K, route: &Arc<A>) -> bool {
        let sent = &mut self.slot_mut(peer).sent;
        let changed = !sent.as_ref().is_some_and(|s| Arc::ptr_eq(s, route) || **s == **route);
        if changed {
            *sent = Some(Arc::clone(route));
        }
        changed
    }
}
