#![warn(missing_docs)]

//! A classic BGP-4 speaker, written from scratch and sans-IO.
//!
//! This crate is the workspace's "Quagga": the baseline inter-domain
//! routing implementation that D-BGP (`dbgp-core`) extends. The state
//! machines themselves — session FSM, RIBs, decision process, policy —
//! live in `dbgp-session` (shared with the `dbgpd` daemon) and are
//! re-exported here under their historical paths; this crate adds:
//!
//! * [`speaker`] — the whole speaker behind a byte-oriented,
//!   one-connection-per-peer interface: `dbgp-session`'s `Host` (the
//!   assembly `dbgpd` runs) as the stress harnesses and the iBGP tests
//!   drive it.
//!
//! Nothing here knows about Integrated Advertisements; `dbgp-core`
//! builds the multi-protocol pipeline on top of these pieces.

pub use dbgp_session::config;
pub use dbgp_session::decision;
pub use dbgp_session::policy;
pub use dbgp_session::rib;
pub use dbgp_session::route;
pub use dbgp_session::session;

pub mod speaker;

pub use config::{NeighborConfig, PeerConfig, PeerId};
pub use decision::{best, compare, Candidate};
pub use policy::{Clause, MatchCond, PrefixMatch, RouteMap, SetAction};
pub use rib::{LocRibEntry, RouteSource};
pub use route::Route;
pub use session::{
    Action, DownReason, Millis, Session, SessionEvent, SessionState, SessionSummary,
};
pub use speaker::{Output, Speaker, TransportEvent};
