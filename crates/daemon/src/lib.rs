#![warn(missing_docs)]

//! `dbgpd`: a real BGP daemon over TCP, built on the sans-IO cores in
//! `dbgp-session`.
//!
//! The daemon speaks RFC 4271 BGP over loopback/LAN TCP: OPEN with
//! capability negotiation (including the D-BGP Integrated-Advertisement
//! capability), hold/keepalive timers, connection collision resolution,
//! and graceful NOTIFICATION teardown. Because the session FSM, stream
//! reassembly, and the whole routing pipeline are the *same code* the
//! deterministic simulator executes, a live `dbgpd` run can be pinned
//! against an in-process oracle: converge both, dump both Loc-RIBs in
//! the canonical format, and diff bytes. The CI `interop-smoke` job
//! does exactly that.
//!
//! * [`config`] — the line-based neighbor/network config format;
//! * [`node`] — `dbgp_session::Host` (session cores + routing core)
//!   built from a config;
//! * [`reactor`] — the std-only nonblocking TCP event loop;
//! * [`oracle`] — the in-memory reference fabric;
//! * [`dump`] — the canonical Loc-RIB dump both sides emit.

pub mod config;
pub mod dump;
pub mod node;
pub mod oracle;
pub mod reactor;
#[doc(hidden)]
pub mod testutil;

pub use config::{DaemonConfig, NeighborSpec};
pub use dump::{all_established, dump_node};
pub use node::{Node, NodeOutput};
pub use oracle::Oracle;
pub use reactor::{Reactor, ReactorOptions, ReactorStats, RunOutcome};
