//! The zero-cost sink boundary between instrumented code and recorders.
//!
//! Instrumented crates hold a [`SinkHandle`]; when no recorder is attached
//! the handle is `None` and every instrumentation site reduces to a single
//! predictable branch — no allocation, no clock reads, no formatting.

use std::fmt;
use std::rc::Rc;

use crate::event::{EventId, TraceKind};

/// Receiver for trace events. Implemented by [`crate::TraceRecorder`];
/// hosts may supply their own (e.g. a filtering or streaming sink).
pub trait TelemetrySink {
    /// Whether events are currently being consumed. Instrumented code must
    /// skip all event construction when this is false.
    fn enabled(&self) -> bool;

    /// Record an event. `at: None` uses the sink's ambient clock (set by
    /// the host via [`TelemetrySink::set_now`]). Returns the assigned id
    /// so callers can thread causality onward.
    fn record(
        &self,
        at: Option<u64>,
        node: u32,
        parent: Option<EventId>,
        kind: TraceKind,
    ) -> Option<EventId>;

    /// Advance the ambient clock (simulation time).
    fn set_now(&self, _at: u64) {}

    /// Set the ambient causal parent. The simulator points this at the
    /// `Decode` (or root) event before handing control to a speaker, so
    /// events emitted from inside the speaker chain correctly.
    fn set_ambient_parent(&self, _parent: Option<EventId>) {}

    /// Read back the ambient causal parent.
    fn ambient_parent(&self) -> Option<EventId> {
        None
    }
}

/// Cheap, cloneable handle to an optional sink.
///
/// `SinkHandle::none()` is the no-op sink: `enabled()` is a constant
/// `false` and every `record` call is skipped by the caller, so fully
/// un-instrumented behaviour (and performance) is preserved.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Rc<dyn TelemetrySink>>);

impl SinkHandle {
    /// The no-op handle. This is also `Default`.
    pub fn none() -> Self {
        SinkHandle(None)
    }

    /// Wrap a live sink.
    pub fn new(sink: Rc<dyn TelemetrySink>) -> Self {
        SinkHandle(Some(sink))
    }

    /// True when a sink is attached and accepting events.
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.0 {
            Some(s) => s.enabled(),
            None => false,
        }
    }

    /// Record with an explicit timestamp.
    #[inline]
    pub fn record_at(
        &self,
        at: u64,
        node: u32,
        parent: Option<EventId>,
        kind: TraceKind,
    ) -> Option<EventId> {
        match &self.0 {
            Some(s) => s.record(Some(at), node, parent, kind),
            None => None,
        }
    }

    /// Record using the sink's ambient clock.
    #[inline]
    pub fn record_now(
        &self,
        node: u32,
        parent: Option<EventId>,
        kind: TraceKind,
    ) -> Option<EventId> {
        match &self.0 {
            Some(s) => s.record(None, node, parent, kind),
            None => None,
        }
    }

    /// Advance the ambient clock.
    #[inline]
    pub fn set_now(&self, at: u64) {
        if let Some(s) = &self.0 {
            s.set_now(at);
        }
    }

    /// Set the ambient causal parent (see [`TelemetrySink::set_ambient_parent`]).
    #[inline]
    pub fn set_ambient_parent(&self, parent: Option<EventId>) {
        if let Some(s) = &self.0 {
            s.set_ambient_parent(parent);
        }
    }

    /// Read the ambient causal parent.
    #[inline]
    pub fn ambient_parent(&self) -> Option<EventId> {
        match &self.0 {
            Some(s) => s.ambient_parent(),
            None => None,
        }
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Some(_) => f.write_str("SinkHandle(attached)"),
            None => f.write_str("SinkHandle(none)"),
        }
    }
}
