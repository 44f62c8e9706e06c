//! The daemon node: `dbgp_session`'s [`Host`] — one session core per
//! configured neighbor glued to one routing core — built from a
//! [`DaemonConfig`].
//!
//! Both the live reactor ([`crate::reactor`]) and the in-process oracle
//! ([`crate::oracle`]) drive exactly this type, which is what makes
//! their RIB dumps comparable byte for byte.

use crate::config::DaemonConfig;
use dbgp_session::{Host, PeerId};
use std::ops::{Deref, DerefMut};

pub use dbgp_session::HostOutput as NodeOutput;

/// One daemon's worth of sans-IO state: a [`Host`] (to which it
/// dereferences for everything but construction).
pub struct Node(Host);

impl Deref for Node {
    type Target = Host;

    fn deref(&self) -> &Host {
        &self.0
    }
}

impl DerefMut for Node {
    fn deref_mut(&mut self) -> &mut Host {
        &mut self.0
    }
}

impl Node {
    /// Build a node from a parsed configuration. Prefixes in
    /// `network` lines are originated immediately (before any session
    /// exists, so no UPDATEs result).
    pub fn from_config(cfg: &DaemonConfig) -> Self {
        let mut host = Host::new(cfg.local_as, cfg.router_id);
        for i in 0..cfg.neighbors.len() {
            host.add_peer(PeerId(i as u32), cfg.neighbor_config(i));
        }
        for prefix in &cfg.networks {
            // No peers are up yet: outputs are Best-only and discarded.
            let _ = host.originate(0, *prefix);
        }
        Node(host)
    }
}
