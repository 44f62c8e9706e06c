//! Routing information bases: Adj-RIB-In, Loc-RIB and Adj-RIB-Out
//! (RFC 4271 §3.2), all `dbgp-rib` tables.
//!
//! The two Adj-RIBs are one [`AdjRib`] keyed by [`PeerId`]: routes are
//! interned behind `Arc`, so the decision process, the Loc-RIB and the
//! per-peer Adj-RIB-Out bookkeeping share one allocation per distinct
//! route instead of deep-cloning AS paths at every hand-off. The
//! Loc-RIB is a [`PrefixTrie`], so `longest_match` is bounded by prefix
//! depth rather than table size.

use crate::config::PeerId;
use crate::route::Route;
use dbgp_rib::{AdjRib, PrefixTrie};
use std::sync::Arc;

/// Routes received from each peer, post-import-policy.
pub type AdjRibIn = AdjRib<PeerId, Route>;

/// What we last advertised to each peer, so withdrawals and implicit
/// replacements can be generated precisely.
pub type AdjRibOut = AdjRib<PeerId, Route>;

/// The speaker's view of best paths, one per prefix.
pub type LocRib = PrefixTrie<LocRibEntry>;

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
