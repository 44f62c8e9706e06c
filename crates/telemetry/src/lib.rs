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
//!   host turns that into the `Decision` event.
//! * **Metrics** — a [`MetricsRegistry`] of counters, gauges, and
//!   log2-bucketed histograms with explicit reset-vs-accumulate restart
//!   semantics and a stable `dbgp-metrics/v1` snapshot schema.
//! * **Explainability** — the [`query`] module (`why-selected`,
//!   `path-of`, `convergence-timeline`) over recorded traces.

#![warn(missing_docs)]

mod event;
mod metrics;
pub mod query;
mod recorder;

pub use event::{EventId, Selection, SelectionReason, TraceEvent, TraceKind};
pub use metrics::{
    log2_bucket, CounterId, GaugeId, HistogramId, MetricsRegistry, Semantics, METRICS_SCHEMA,
};
pub use recorder::{TraceRecorder, TRACE_SCHEMA};
