//! # dbgp-telemetry
//!
//! Causal control-plane tracing, metrics, and convergence explainability
//! for the D-BGP reproduction.
//!
//! Three layers:
//!
//! * **Event bus** — instrumented code emits [`TraceEvent`]s through a
//!   [`SinkHandle`]; each event carries a causal parent id, so a single
//!   advertisement can be traced from its originating AS through every
//!   pass-through hop to each Loc-RIB install. The no-op handle costs one
//!   branch per instrumentation site.
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
mod sink;

pub use event::{EventId, SelectionReason, TraceEvent, TraceKind};
pub use metrics::{
    log2_bucket, CounterId, GaugeId, HistogramId, MetricsRegistry, Semantics, METRICS_SCHEMA,
};
pub use recorder::{TraceRecorder, TRACE_SCHEMA};
pub use sink::{SinkHandle, TelemetrySink};
