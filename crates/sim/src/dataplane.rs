//! The data plane: packets with multi-network-protocol header stacks
//! (paper §2, §3.4) forwarded along the FIBs the control plane installed.
//!
//! A packet carries a stack of headers, outermost last. Gulf ASes only
//! understand IPv4 and forward on the outermost IPv4 header; when the
//! packet reaches the AS owning that header's destination, the header is
//! popped (decapsulation). An inner SCION or Pathlet header is then
//! interpreted by the island it addressed — modeled here as delivery to
//! that island's ingress together with the remaining stack, since
//! intra-island forwarding is below the AS-level abstraction the paper's
//! experiments operate at.

use crate::sim::{NodeId, Sim};
use dbgp_wire::Ipv4Addr;

/// One header in the encapsulation stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Header {
    /// Plain IPv4 toward a destination address — the baseline network
    /// protocol every AS understands.
    Ipv4 {
        /// Destination address.
        dst: Ipv4Addr,
    },
    /// A SCION-like path-based header (opaque to gulf ASes).
    Scion(Vec<u8>),
    /// A Pathlet forwarding-ID header (opaque to gulf ASes).
    Pathlet(Vec<u8>),
}

/// A packet: header stack (outermost last) plus an opaque payload tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Encapsulation stack; `stack.last()` is the header routers act on.
    pub stack: Vec<Header>,
    /// Identifying payload for assertions in tests.
    pub payload: u64,
}

impl Packet {
    /// A plain IPv4 packet.
    pub fn ipv4(dst: Ipv4Addr, payload: u64) -> Self {
        Packet { stack: vec![Header::Ipv4 { dst }], payload }
    }

    /// Encapsulate this packet in an outer IPv4 header (tunneling).
    pub fn encap_ipv4(mut self, dst: Ipv4Addr) -> Self {
        self.stack.push(Header::Ipv4 { dst });
        self
    }
}

/// Why forwarding stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The packet reached the AS owning the innermost IPv4 destination.
    Delivered {
        /// Final node.
        at: NodeId,
        /// Remaining non-IPv4 headers (a SCION/Pathlet header handed to
        /// the island for intra-island forwarding).
        remaining: Vec<Header>,
    },
    /// Some AS had no route for the outermost destination.
    NoRoute {
        /// Where forwarding died.
        at: NodeId,
        /// The unrouteable destination.
        dst: Ipv4Addr,
    },
    /// The hop budget was exhausted (would indicate a forwarding loop).
    Looped,
}

impl Sim {
    /// Forward `packet` from `start` hop by hop along installed FIBs.
    /// Returns the delivery outcome and the AS-level trajectory.
    pub fn forward(&self, start: NodeId, mut packet: Packet) -> (Delivery, Vec<NodeId>) {
        let mut at = start;
        let mut trace = vec![start];
        // A loop-free AS path can visit each node at most once; double
        // the node count leaves room for decapsulation re-routing.
        let mut budget = (self.node_count() * 2).max(64);
        loop {
            budget -= 1;
            if budget == 0 {
                return (Delivery::Looped, trace);
            }
            // Act on the outermost header.
            let dst = match packet.stack.last() {
                Some(Header::Ipv4 { dst }) => *dst,
                Some(_) | None => {
                    // Non-IPv4 outermost header: we are the island that
                    // understands it — delivered to the island ingress.
                    return (Delivery::Delivered { at, remaining: packet.stack }, trace);
                }
            };
            let next = self.next_hop(at, dst);
            // Ours by ownership, or by a prefix originated here (the
            // FIB says local): decapsulate.
            if self.owner_of(dst) == Some(at) || next == Some(None) {
                packet.stack.pop();
                match packet.stack.last() {
                    None => return (Delivery::Delivered { at, remaining: vec![] }, trace),
                    Some(Header::Ipv4 { .. }) => continue, // route on inner header
                    Some(_) => return (Delivery::Delivered { at, remaining: packet.stack }, trace),
                }
            }
            let Some(Some(next)) = next else { return (Delivery::NoRoute { at, dst }, trace) };
            at = next;
            trace.push(next);
        }
    }
}
