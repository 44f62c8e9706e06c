//! What the routing core keeps per prefix (RFC 4271 §3.2's three RIBs,
//! prefix-major): one `Entry` in one `dbgp_rib::PrefixTrie` holds the
//! Adj-RIB-In and Adj-RIB-Out slots of every peer, the originated route
//! and the installed Loc-RIB winner.
//!
//! Routes are interned behind `Arc`, so the decision process, the
//! Loc-RIB and the per-peer Adj-RIB-Out bookkeeping share one
//! allocation per distinct route instead of deep-cloning AS paths at
//! every hand-off.

use crate::config::PeerId;
use crate::route::Route;
use dbgp_rib::PeerSlots;
use std::sync::Arc;

/// Everything known about one prefix.
#[derive(Debug, Default)]
pub(crate) struct Entry {
    /// Adj-RIB-In and Adj-RIB-Out: what each peer sent (post-import-
    /// policy) and was last sent, so withdrawals and implicit
    /// replacements can be generated precisely.
    pub(crate) slots: PeerSlots<PeerId, Route>,
    /// The route we originate for the prefix, if any.
    pub(crate) originated: Option<Arc<Route>>,
    /// Loc-RIB: the installed best route.
    pub(crate) best: Option<LocRibEntry>,
}

impl Entry {
    /// Nothing received, originated, installed or sent: the entry can go.
    pub(crate) fn is_idle(&self) -> bool {
        self.slots.is_empty() && self.originated.is_none() && self.best.is_none()
    }
}

/// Where a Loc-RIB entry came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteSource {
    /// Chosen from a peer's Adj-RIB-In.
    Peer(PeerId),
    /// Locally originated.
    Local,
}

/// One selected best route. Holds the route by `Arc`, so installing,
/// cloning into `BestRouteChanged` outputs and re-exporting are
/// refcount bumps, not deep copies.
#[derive(Debug, Clone, Eq)]
pub struct LocRibEntry {
    /// Winning route.
    pub route: Arc<Route>,
    /// Who supplied it.
    pub source: RouteSource,
}

impl PartialEq for LocRibEntry {
    fn eq(&self, other: &Self) -> bool {
        self.source == other.source
            // Pointer equality short-circuits the common "same interned
            // route re-selected" comparison.
            && (Arc::ptr_eq(&self.route, &other.route) || *self.route == *other.route)
    }
}
