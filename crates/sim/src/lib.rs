#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A deterministic discrete-event network simulator hosting D-BGP
//! speakers — the workspace's substitute for the paper's MiniNeXT
//! emulation testbed (DESIGN.md §2).
//!
//! * [`engine`] — the time-ordered event queue with FIFO tie-breaking;
//! * [`sim`] — nodes (one AS = one [`dbgp_core::DbgpSpeaker`]), links
//!   with one-way delays, real wire-format control messages, the
//!   out-of-band service bus (Wiser cost-exchange portals, MIRO service
//!   portals, generic lookup services), and FIB maintenance;
//! * [`link`] — per-link perturbation models (seeded jitter, loss,
//!   duplication, corruption) and the deterministic [`link::SimRng`]
//!   that drives them, the substrate for `dbgp-chaos` fault injection;
//! * [`dataplane`] — packets with multi-network-protocol header stacks,
//!   IPv4 tunneling, and hop-by-hop forwarding along installed FIBs.
//!
//! Determinism: the same construction sequence always yields the same
//! trace, message counts and convergence times, which the experiment
//! harness relies on.

pub mod dataplane;
pub mod engine;
pub mod link;
pub mod sim;

pub use dataplane::{Delivery, Header, Packet};
pub use engine::{EventQueue, SimTime};
pub use link::{LinkModel, SimRng, PPM_SCALE};
pub use sim::{BestChange, NodeCounters, NodeId, PhaseTimes, PrefixChurn, Service, Sim, SimStats};
