#![warn(missing_docs)]

//! A classic BGP-4 speaker, written from scratch and sans-IO.
//!
//! This crate is the workspace's "Quagga": the baseline inter-domain
//! routing implementation that D-BGP (`dbgp-core`) extends. The state
//! machines themselves — session FSM, RIBs, decision process, policy —
//! live in `dbgp-session` (shared with the `dbgpd` daemon), which is
//! where to import them from; this crate adds:
//!
//! * [`speaker`] — the whole speaker behind a byte-oriented,
//!   one-connection-per-peer interface: `dbgp-session`'s `Host` (the
//!   assembly `dbgpd` runs) as the stress harnesses and the iBGP tests
//!   drive it.
//!
//! Nothing here knows about Integrated Advertisements; `dbgp-core`
//! builds the multi-protocol pipeline on top of these pieces.

pub mod speaker;

pub use dbgp_session::{NeighborConfig, PeerId, Route};
pub use speaker::{Output, Speaker, TransportEvent};
