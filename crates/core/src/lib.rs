#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! D-BGP: the paper's contribution — BGPv4 extended with pass-through
//! support and multi-protocol Integrated Advertisements.
//!
//! The crate implements the complete IA-processing pipeline of the
//! paper's Figure 5:
//!
//! * [`filters`] — global import/export filters: cross-protocol loop
//!   detection, operator protocol blacklists, island declaration and
//!   abstraction, baseline-only export (the §6.3 comparison mode);
//! * [`iadb`] — the speaker's one per-prefix table: the received IAs
//!   the factory builds from (pass-through), and everything else;
//! * [`module`] — the [`module::DecisionModule`] trait each deployable
//!   protocol implements, plus the baseline BGP module and RFC 4271's
//!   classic order as a module;
//! * [`factory`] — builds outgoing IAs from stored incoming ones,
//!   copying through every protocol's control information untouched;
//! * [`speaker`] — [`speaker::DbgpSpeaker`], one per AS, orchestrating
//!   steps 1–7;
//! * [`messages`] — the update frame the simulator's transport carries;
//! * [`transitional`] — IAs tunnelled through legacy BGP speakers inside
//!   an optional-transitive attribute (paper §3.5).
//!
//! Protocol implementations (Wiser, Pathlet Routing, SCION-like, MIRO,
//! BGPSec-lite) live in `dbgp-protocols`.

pub mod factory;
pub mod filters;
pub mod iadb;
pub mod messages;
pub mod module;
pub mod neighbor;
pub mod speaker;
pub mod transitional;

pub use factory::{build_outgoing, FactoryContext};
pub use filters::{FilterConfig, IslandConfig, RejectReason};
pub use iadb::IaDb;
pub use messages::{DbgpUpdate, Frame};
pub use module::{
    BgpDecision, CandidateIa, ClassicBgp, DecisionModule, ExportContext, ImportContext, Rank,
};
pub use neighbor::{DbgpNeighbor, NeighborId, PeerClass};
pub use speaker::{render_path, Chosen, DbgpConfig, DbgpOutput, DbgpSpeaker};
