//! The per-prefix neighbor slots: Adj-RIB-In and Adj-RIB-Out for one
//! prefix, the only such code in the workspace. Both routing cores keep
//! one [`PeerSlots`] inside the per-prefix entry of their one
//! [`PrefixTrie`](crate::PrefixTrie), so every question an UPDATE asks
//! about a prefix — who sent what, what did we send whom — is answered
//! by the entry one trie walk found.

use crate::VecMap;
use std::sync::Arc;

/// One route per (peer, direction) that holds one, keyed by `(peer,
/// sent)`: what the peer sent us (`sent == false`, Adj-RIB-In) sorts
/// before what we last sent it (`sent == true`, Adj-RIB-Out). Sixteen
/// bytes a route for a `u32` key.
///
/// A slot rarely holds both sides — a route is heard from one peer and
/// sent to the others — so a side that holds nothing takes no room, and
/// a route is dropped as soon as its side is cleared.
///
/// Routes are interned behind `Arc`: the decision process, the installed
/// best and the export bookkeeping share one allocation per distinct
/// route, and one attribute block decoded from a multi-NLRI UPDATE is
/// shared by every prefix it announced.
#[derive(Debug)]
pub struct PeerSlots<K, A> {
    routes: VecMap<(K, bool), Arc<A>>,
}

impl<K, A> Default for PeerSlots<K, A> {
    fn default() -> Self {
        PeerSlots { routes: VecMap::default() }
    }
}

impl<K: Ord + Copy, A> PeerSlots<K, A> {
    /// Store `route` as `peer`'s `sent` side, returning the one it
    /// replaces.
    fn store(&mut self, peer: K, sent: bool, route: Arc<A>) -> Option<Arc<A>> {
        // Most prefixes are heard from one peer and sent to one or two:
        // size the first allocation for that, not the map's one.
        if self.routes.is_empty() {
            self.routes.reserve_exact(2);
        }
        self.routes.insert((peer, sent), route)
    }

    /// Store the route `peer` sent, returning the one it replaces
    /// (implicit withdraw).
    pub fn receive(&mut self, peer: K, route: Arc<A>) -> Option<Arc<A>> {
        self.store(peer, false, route)
    }

    /// Forget the route `peer` sent, returning it.
    pub fn unreceive(&mut self, peer: K) -> Option<Arc<A>> {
        self.routes.remove(&(peer, false))
    }

    /// Record a withdrawal; `true` if `peer` had been sent a route.
    pub fn withdraw(&mut self, peer: K) -> bool {
        self.routes.remove(&(peer, true)).is_some()
    }

    /// The stored route of `peer`.
    pub fn received(&self, peer: K) -> Option<&Arc<A>> {
        self.routes.get(&(peer, false))
    }

    /// The route `peer` was last sent.
    pub fn sent(&self, peer: K) -> Option<&Arc<A>> {
        self.routes.get(&(peer, true))
    }

    /// Forget both sides of every peer from `peer` up: one comparison
    /// when no such peer holds a route.
    pub fn forget_from(&mut self, peer: K) {
        self.routes.truncate_from(&(peer, false));
    }

    /// Every `(peer, route)` received, ascending by peer key.
    /// Allocation-free.
    pub fn candidates(&self) -> impl Iterator<Item = (K, &Arc<A>)> + '_ {
        self.routes.iter().filter(|((_, sent), _)| !sent).map(|(&(peer, _), route)| (peer, route))
    }

    /// No peer sent or was sent anything.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Heap bytes held by the route vector (the shared route bodies are
    /// accounted where they are interned, not here).
    pub fn heap_bytes(&self) -> usize {
        self.routes.heap_bytes()
    }
}

impl<K: Ord + Copy, A: PartialEq> PeerSlots<K, A> {
    /// The Adj-RIB-Out diff: record that `peer` is to be sent `route`.
    /// Returns `false`, touching nothing (not even the refcount), when
    /// that is what it already has — the same allocation or an equal
    /// route.
    pub fn advertise(&mut self, peer: K, route: &Arc<A>) -> bool {
        match self.routes.get_mut(&(peer, true)) {
            Some(sent) => {
                if Arc::ptr_eq(sent, route) || **sent == **route {
                    return false;
                }
                *sent = Arc::clone(route);
            }
            None => {
                self.store(peer, true, Arc::clone(route));
            }
        }
        true
    }
}
