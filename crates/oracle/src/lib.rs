#![warn(missing_docs)]

//! dbgp-oracle: the correctness oracle for the D-BGP implementation.
//!
//! Three coupled pieces (DESIGN.md §8):
//!
//! * [`reference`] — a deliberately naive re-implementation of IA
//!   processing, the baseline decision process, and every per-protocol
//!   selection rule, straight from the design document: no `Arc`
//!   sharing, no encode cache, no interning, full clones everywhere.
//!   Slow on purpose; obvious on purpose.
//! * [`differential`] — runs the production simulator, the reference
//!   model and, for scenarios without islands, `dbgpd`'s configs on the
//!   in-memory fabric over the same generated scenarios (topology +
//!   islands + fault plan) and asserts identical best paths, IAs, FIBs
//!   and daemon Loc-RIBs at every quiescent phase. Divergences
//!   delta-debug down to a minimal scenario and are dumped as
//!   replayable JSON fixtures (see [`scenario`]).
//! * [`explorer`] — model-checks event-delivery orderings on small
//!   topologies ([`topologies`]): exhaustive DFS over the first
//!   `branch_depth` deliveries, seeded-random schedules beyond, with
//!   loop-freedom, black-hole, CF-R1, and bounded-quiescence
//!   (stability) invariants checked at every quiescent end state.
//!
//! The oracle is test-only: nothing here is linked into production
//! binaries, and golden results (`results/chaos.json`, benchmark
//! schemas) are unaffected by its existence.

pub mod differential;
pub mod explorer;
pub mod reference;
pub mod scenario;
pub mod topologies;

pub use differential::{check_scenarios, run_differential, run_differential_mutated, Divergence};
pub use explorer::{
    check_routing_invariants, explore, run_fifo_classified, ExplorerConfig, ExplorerReport,
    FifoOutcome,
};
pub use reference::{Mutation, RefConfig, RefIsland, RefModule, RefNet, RefSpeaker};
pub use scenario::{
    build_daemon, build_production, build_reference, scenario_from_json, scenario_to_json, Fault,
    IslandSpec, NodeSpec, Scenario,
};
