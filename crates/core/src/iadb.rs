//! The IA database: every Integrated Advertisement received and retained,
//! keyed by (neighbor, prefix).
//!
//! The IA factory (paper §3.3, step 6) indexes into this database when it
//! builds the outgoing IA for a selected best path, so control
//! information for protocols the local AS does not run is copied through
//! verbatim — the pass-through feature.

use crate::neighbor::NeighborId;
use dbgp_rib::AdjRib;
use dbgp_wire::Ia;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Store of received IAs: the shared [`AdjRib`] keyed by neighbor, with
/// an [`insert`](IaDb::insert) that reads the prefix out of the IA.
/// Everything else (`candidates`, `get`, `remove`, `drop_peer`,
/// `prefixes`) is the store's own.
#[derive(Debug, Default)]
pub struct IaDb(AdjRib<NeighborId, Ia>);

impl IaDb {
    /// Create an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store an IA, replacing the neighbor's previous one for the prefix
    /// (implicit withdraw). Returns the replaced IA.
    pub fn insert(&mut self, neighbor: NeighborId, ia: Ia) -> Option<Arc<Ia>> {
        self.0.insert(neighbor, ia.prefix, Arc::new(ia))
    }
}

impl Deref for IaDb {
    type Target = AdjRib<NeighborId, Ia>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl DerefMut for IaDb {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
