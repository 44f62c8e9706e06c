//! # dbgp — Bootstrapping evolvability for inter-domain routing
//!
//! A from-scratch Rust reproduction of **D-BGP** (Sambasivan et al.,
//! SIGCOMM 2017): BGPv4 extended with the two evolvability features the
//! paper identifies — *pass-through support* and *multi-protocol
//! Integrated Advertisements* — plus every substrate needed to reproduce
//! the paper's experiments.
//!
//! This facade crate re-exports the workspace's public API under one
//! name. See the individual crates for the details:
//!
//! * [`wire`] — BGP-4 and IA wire formats.
//! * [`bgp`] — a classic BGP-4 speaker (FSM, RIBs, decision process).
//! * [`core`] — the D-BGP IA-processing pipeline of the paper's Figure 5.
//! * [`protocols`] — Wiser, Pathlet Routing, SCION-like, MIRO and
//!   BGPSec-lite deployed over D-BGP.
//! * [`crypto`] — SHA-256/HMAC substrate for BGPSec-lite.
//! * [`sim`] — a deterministic discrete-event network simulator standing
//!   in for the paper's MiniNeXT testbed.
//! * [`topology`] — Waxman/BRITE topologies, Gao-Rexford relationships,
//!   and the paper's figure topologies.
//! * [`workload`] — synthetic RIBs and update traces for the §5 stress
//!   test.
//! * [`experiments`] — the §6.2 overhead model and §6.3
//!   incremental-benefit simulations.
//! * [`chaos`] — deterministic fault injection, convergence tracking,
//!   and routing-invariant checking under churn.

pub use dbgp_bgp as bgp;
pub use dbgp_chaos as chaos;
pub use dbgp_core as core;
pub use dbgp_crypto as crypto;
pub use dbgp_experiments as experiments;
pub use dbgp_protocols as protocols;
pub use dbgp_sim as sim;
pub use dbgp_topology as topology;
pub use dbgp_wire as wire;
pub use dbgp_workload as workload;
