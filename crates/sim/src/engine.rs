//! The discrete-event core: a time-ordered queue with deterministic
//! FIFO tie-breaking.
//!
//! Determinism is the whole point — the same topology and inputs must
//! produce byte-identical traces on every run, which is what lets the
//! experiment harness assert exact results. Ties in time are broken by
//! insertion sequence number.
//!
//! # Storage model: a binary heap over an arena
//!
//! One `BinaryHeap` orders a `(at, seq, slot)` key per pending event;
//! the event itself sits in a `u32`-indexed arena slot and never moves,
//! so the heap's sift shuffles 24-byte keys, not payloads. A popped
//! slot goes on a free list and the next schedule reuses it (mirroring
//! `crates/rib`'s node arena), so the arena holds as many slots as the
//! most events ever in flight at once. `seq` is unique, so the heap's
//! minimum is the exact `(at, seq)` minimum: pop order does not depend
//! on the heap's internal layout or on which slot an event landed in.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated milliseconds.
pub type SimTime = u64;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// One `(at, seq, slot)` key per pending event, least first.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Event arena; a `None` slot is free and listed in `free`.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with room for `cap` events in flight before the
    /// heap or the arena has to regrow.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            now: 0,
            seq: 0,
            popped: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule(&mut self, delay: SimTime, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, event);
    }

    /// Schedule at an absolute time (clamped to never run backwards).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let idx = if let Some(idx) = self.free.pop() {
            self.slots[idx as usize] = Some(event);
            idx
        } else {
            self.slots.push(Some(event));
            u32::try_from(self.slots.len() - 1).expect("event arena exhausted u32 indices")
        };
        self.heap.push(Reverse((at.max(self.now), self.seq, idx)));
        self.seq += 1;
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse((at, _seq, idx)) = self.heap.pop()?;
        let event = self.slots[idx as usize].take().expect("popped a freed slot");
        self.free.push(idx);
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Timestamp of the next event without popping it (and without
    /// advancing the clock). Lets callers honor a time horizon while
    /// leaving later events queued for a subsequent run.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    /// Events waiting.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events processed so far.
    pub fn processed(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        q.schedule(5, "second");
        q.schedule(5, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn clock_advances_with_pops_and_relative_scheduling_compounds() {
        let mut q = EventQueue::new();
        q.schedule(10, 1u32);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, 10);
        assert_eq!(q.now(), 10);
        q.schedule(5, 2u32);
        assert_eq!(q.pop(), Some((15, 2u32)));
    }

    #[test]
    fn schedule_at_never_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule(10, 1u32);
        q.pop();
        q.schedule_at(3, 2u32); // in the past: clamped to now
        assert_eq!(q.pop(), Some((10, 2u32)));
    }

    #[test]
    fn peek_does_not_advance_clock_or_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(10, "later");
        q.schedule(5, "sooner");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.now(), 0, "peek must not advance the clock");
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop(), Some((5, "sooner")));
        assert_eq!(q.peek_time(), Some(10));
    }

    /// The horizon contract a driver loop needs: peek-compare-pop keeps
    /// events beyond the horizon queued (a pop-then-check loop would
    /// silently discard the first event past the horizon and advance
    /// the clock to it).
    #[test]
    fn peek_based_horizon_preserves_future_events() {
        let mut q = EventQueue::new();
        q.schedule(10, "inside");
        q.schedule(20, "boundary");
        q.schedule(21, "beyond");
        let horizon = 20;
        let mut seen = Vec::new();
        while let Some(at) = q.peek_time() {
            if at > horizon {
                break;
            }
            seen.push(q.pop().unwrap().1);
        }
        // An event at exactly the horizon is processed, not dropped.
        assert_eq!(seen, vec!["inside", "boundary"]);
        // The event past the horizon is still there for the next run.
        assert_eq!(q.len(), 1);
        assert_eq!(q.now(), 20, "clock must not run past the horizon");
        assert_eq!(q.pop(), Some((21, "beyond")));
    }

    #[test]
    fn with_capacity_pre_sizes_without_changing_behavior() {
        let mut q = EventQueue::with_capacity(64);
        q.schedule(5, "only");
        assert_eq!(q.pop(), Some((5, "only")));
        assert!(q.is_empty());
    }

    #[test]
    fn counts_processed() {
        let mut q = EventQueue::new();
        for i in 0..5u32 {
            q.schedule(i as u64, i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.processed(), 5);
        assert!(q.is_empty());
    }

    /// A sparse far-future gap (fault plans schedule events tens of
    /// millions of ticks out) pops in exact order, ties included.
    #[test]
    fn sparse_far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3, "soon");
        q.schedule_at(50_000_000, "flap");
        q.schedule_at(50_000_000, "flap2");
        q.schedule_at(210_000_777, "late");
        assert_eq!(q.pop(), Some((3, "soon")));
        assert_eq!(q.pop(), Some((50_000_000, "flap")));
        assert_eq!(q.pop(), Some((50_000_000, "flap2")));
        assert_eq!(q.peek_time(), Some(210_000_777));
        assert_eq!(q.pop(), Some((210_000_777, "late")));
        assert_eq!(q.pop(), None);
    }

    /// A popped event's slot is reused by the next schedule: draining
    /// and refilling the queue, or keeping a steady number in flight,
    /// never grows the arena past the most events ever pending at once.
    #[test]
    fn drained_and_refilled_queue_reuses_its_arena_slots() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(i as u64 % 7, i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.slots.len(), 100);
        for i in 0..100u32 {
            q.schedule(i as u64 % 5, i);
        }
        for i in 100..1_000u32 {
            q.pop().unwrap();
            q.schedule(3, i);
        }
        assert_eq!(q.len(), 100);
        assert_eq!(q.slots.len(), 100, "arena grew past the peak in flight");
        while q.pop().is_some() {}
        assert_eq!(q.free.len(), 100);
        assert_eq!(q.processed(), 1_100);
    }
}
