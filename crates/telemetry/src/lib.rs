//! # dbgp-telemetry
//!
//! Causal control-plane tracing, metrics, and convergence explainability
//! for the D-BGP reproduction.
//!
//! Three layers:
//!
//! * **Trace** — a host records [`TraceEvent`]s into a [`TraceRecorder`],
//!   stamping each with the time and the causal parent it alone knows,
//!   so a single advertisement can be traced from its originating AS
//!   through every pass-through hop to each Loc-RIB install. The routing
//!   cores record nothing: a best-path change comes back from them with
//!   its [`Selection`] (why the winner won, out of how many), and the
//!   host turns that into the `Decision` event. A trace is written, as a
//!   `dbgp-trace/v1` document, by [`query::TraceLog::to_json`]; nothing
//!   reads one back.
//! * **Metrics** — [`metrics::render`] turns the counters, gauges and
//!   [`Log2Histogram`]s a host already holds into a `dbgp-metrics/v1`
//!   document, at the moment it is asked. There is no registry.
//! * **Explainability** — the [`query`] module (`why-selected`,
//!   `path-of`, `convergence-timeline`) over recorded traces.

#![warn(missing_docs)]

mod event;
pub mod metrics;
pub mod query;
mod recorder;

pub use event::{EventId, Selection, SelectionReason, TraceEvent, TraceKind};
pub use metrics::{Log2Histogram, METRICS_SCHEMA};
pub use query::TRACE_SCHEMA;
pub use recorder::TraceRecorder;
