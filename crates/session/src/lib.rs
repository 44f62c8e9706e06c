#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! The sans-IO BGP session core.
//!
//! Everything in this crate is a pure state machine: bytes and
//! timestamps go in, bytes, timer deadlines and RIB deltas come out.
//! No sockets, no clocks, no threads, no trace — the host decides what
//! "now" means and owns every side effect, recording included: a best
//! route change comes out with its
//! [`Selection`](dbgp_telemetry::Selection) (why the winner won, out of
//! how many candidates), and a host that keeps a trace stamps that with
//! the time and the cause it knows. Two kinds of frontend drive this
//! crate today, both through the one [`host::Host`] assembly:
//!
//! * in process: the one [`fabric::Fabric`], under `dbgpd`'s oracle,
//!   the differential harness's daemon participant and the classic
//!   speaker's tests, and `dbgp-bgp`'s `Speaker` alone under the stress
//!   harnesses — where "now" is whatever the caller says; and
//! * `dbgpd` (`dbgp-daemon`), the real BGP daemon, where "now" is
//!   milliseconds since process start and the bytes ride TCP.
//!
//! Because both frontends execute *this* code, a behaviour verified on
//! the fabric is the behaviour a live daemon executes. The event
//! simulator hosts `dbgp-core`'s `DbgpSpeaker`, not this crate, so what
//! holds this code to the reference model is the fabric, driven by
//! `dbgp-oracle`'s differential harness.
//!
//! Layout:
//!
//! * [`session`] — the RFC 4271 §8 per-connection finite-state machine;
//! * [`stream`] — TCP stream reassembly: buffered bytes to framed
//!   [`BgpMessage`](dbgp_wire::message::BgpMessage)s;
//! * [`peer`] — [`peer::SessionCore`]: one neighbor, up to two
//!   transport connections, RFC 4271 §6.8 collision resolution;
//! * [`route`] / [`rib`] / [`decision`] — the parsed route model (what
//!   it does not interpret rides along opaque), the per-prefix RIB
//!   entry and the §9.1.2.2 decision process;
//! * [`routing`] — [`routing::RoutingCore`]: the multi-neighbor RIB
//!   plumbing (receive, decide, export, propagate) on one per-prefix
//!   table;
//! * [`host`] — [`host::Host`]: the session cores glued to the routing
//!   core, the one assembly every frontend drives;
//! * [`fabric`] — [`fabric::Fabric`]: hosts joined by in-memory pipes,
//!   with link failure, restore and restart as pipe operations;
//! * [`config`] — peer and neighbor configuration.

pub mod config;
pub mod decision;
pub mod fabric;
pub mod host;
pub mod peer;
pub mod rib;
pub mod route;
pub mod routing;
pub mod session;
pub mod stream;

pub use config::{NeighborConfig, PeerConfig, PeerId};
pub use fabric::Fabric;
pub use host::{Host, HostOutput};
pub use peer::{ConnDir, CoreOutput, SessionCore};
pub use rib::{LocRibEntry, RouteSource};
pub use route::Route;
pub use routing::{AdjRibInView, LocRibView, RibOp, RoutingCore};
pub use session::{
    Action, DownReason, Millis, Session, SessionEvent, SessionState, SessionSummary,
};
pub use stream::StreamReassembler;
