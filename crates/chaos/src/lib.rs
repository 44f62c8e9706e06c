//! # dbgp-chaos — churn for the D-BGP control plane
//!
//! Deterministic fault injection and robustness checking for the
//! simulated D-BGP deployment: timed [`FaultPlan`]s of link failures,
//! flaps, loss bursts and node restarts, executed by a
//! [`ScenarioRunner`] that interleaves them with simulator quiescence,
//! a [`ConvergenceTracker`] measuring per-prefix churn and convergence
//! times, and an [`invariants`] checker that walks forwarding state at
//! quiescence looking for loops, black holes, path-vector violations
//! and pass-through damage. Multi-seed sweeps fan out across the
//! [`sweep`] worker threads with seed-ordered results.

#![warn(missing_docs)]

pub mod invariants;
pub mod plan;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod tracker;

pub use invariants::{InvariantReport, Invariants};
pub use plan::{Fault, FaultPlan, TimedFault};
pub use runner::{FaultRecord, ScenarioReport, ScenarioRunner};
pub use sweep::sweep_seeds;
pub use tracker::{ConvergenceTracker, ConvergenceWindow};
