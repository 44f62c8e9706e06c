//! Ring-buffered in-memory trace recorder.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};

use crate::event::{EventId, TraceEvent, TraceKind};

struct Inner {
    events: VecDeque<TraceEvent>,
    /// Ring capacity; 0 means unbounded.
    capacity: usize,
    next_id: u64,
    /// How many events have been evicted from the front of the ring.
    evicted: u64,
    /// node index -> AS number, registered by the host for rendering.
    node_asn: BTreeMap<u32, u32>,
}

/// Records [`TraceEvent`]s into a bounded ring (oldest evicted first) or
/// an unbounded log. Single-threaded and interior-mutable, so a host and
/// whoever reads the trace afterwards can share one recorder through `Rc`.
pub struct TraceRecorder {
    inner: RefCell<Inner>,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("TraceRecorder")
            .field("events", &inner.events.len())
            .field("capacity", &inner.capacity)
            .field("next_id", &inner.next_id)
            .field("evicted", &inner.evicted)
            .finish()
    }
}

impl TraceRecorder {
    /// Recorder with a bounded ring; once `capacity` events are held the
    /// oldest are evicted (and counted).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRecorder {
            inner: RefCell::new(Inner {
                events: VecDeque::new(),
                capacity,
                next_id: 0,
                evicted: 0,
                node_asn: BTreeMap::new(),
            }),
        }
    }

    /// Recorder that never evicts. Use for scenario-sized traces that will
    /// be queried or serialized afterwards.
    pub fn unbounded() -> Self {
        Self::with_capacity(0)
    }

    /// Register the AS number a node index maps to (used by queries and
    /// written into the trace meta block).
    pub fn set_node_asn(&self, node: u32, asn: u32) {
        self.inner.borrow_mut().node_asn.insert(node, asn);
    }

    /// Record that `kind` happened at `node` at time `at` because of
    /// `parent`. Returns the new event's id, for the caller to name as
    /// the parent of what follows from it.
    pub fn record(&self, at: u64, node: u32, parent: Option<EventId>, kind: TraceKind) -> EventId {
        let mut inner = self.inner.borrow_mut();
        let id = EventId(inner.next_id);
        inner.next_id += 1;
        inner.events.push_back(TraceEvent { id, at, node, parent, kind });
        if inner.capacity != 0 && inner.events.len() > inner.capacity {
            inner.events.pop_front();
            inner.evicted += 1;
        }
        id
    }

    /// Number of events currently held.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True when no events are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone out every retained event, in id order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.borrow().events.iter().cloned().collect()
    }

    /// Clone out the registered node -> AS map.
    pub fn node_asn(&self) -> BTreeMap<u32, u32> {
        self.inner.borrow().node_asn.clone()
    }

    /// How many events the ring has dropped; [`TraceLog`](crate::query::TraceLog)
    /// writes it into the document.
    pub(crate) fn evicted(&self) -> u64 {
        self.inner.borrow().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_wire::Ipv4Prefix;

    fn pfx() -> Ipv4Prefix {
        "10.0.0.0/8".parse().unwrap()
    }

    #[test]
    fn ids_are_monotonic_and_parents_precede_children() {
        let rec = TraceRecorder::unbounded();
        let a = rec.record(5, 0, None, TraceKind::Originate { prefix: pfx() });
        let b = rec.record(5, 0, Some(a), TraceKind::Advertise { prefix: pfx(), to: 1 });
        assert!(a < b);
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at, 5);
        assert_eq!(evs[1].parent, Some(a));
    }
}
