//! Speaker and per-peer configuration.

use dbgp_wire::Ipv4Addr;

/// Transport-and-FSM level settings for one peering session.
#[derive(Debug, Clone)]
pub struct PeerConfig {
    /// Our AS number (may exceed 16 bits; RFC 6793 handles the wire).
    pub local_as: u32,
    /// Our BGP identifier.
    pub local_id: Ipv4Addr,
    /// The peer's AS: an OPEN from any other is refused.
    pub peer_as: u32,
    /// Hold time we offer, in seconds (0 disables keepalives).
    pub hold_time_secs: u16,
    /// Delay between transport connection attempts, in milliseconds.
    pub connect_retry_ms: u64,
    /// If set, never initiate the transport connection; wait for the peer.
    pub passive: bool,
    /// Advertise the D-BGP Integrated-Advertisement capability.
    pub advertise_ia: bool,
}

impl PeerConfig {
    /// Reasonable defaults for a session from `local_as` to `peer_as`.
    pub fn new(local_as: u32, local_id: Ipv4Addr, peer_as: u32) -> Self {
        PeerConfig {
            local_as,
            local_id,
            peer_as,
            hold_time_secs: 90,
            connect_retry_ms: 30_000,
            passive: false,
            advertise_ia: false,
        }
    }
}

/// Identifies one configured neighbor of a speaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PeerId(pub u32);

impl std::fmt::Display for PeerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Routing-layer settings for one neighbor.
#[derive(Debug, Clone)]
pub struct NeighborConfig {
    /// The address we use as NEXT_HOP when advertising to this neighbor.
    pub local_addr: Ipv4Addr,
    /// Session-level settings, the neighbor's AS among them.
    pub session: PeerConfig,
}

impl NeighborConfig {
    /// A neighbor with default session settings.
    pub fn new(local_as: u32, local_id: Ipv4Addr, peer_as: u32, local_addr: Ipv4Addr) -> Self {
        NeighborConfig { local_addr, session: PeerConfig::new(local_as, local_id, peer_as) }
    }

    /// Is this an iBGP neighbor?
    pub fn is_ibgp(&self) -> bool {
        self.session.peer_as == self.session.local_as
    }
}
