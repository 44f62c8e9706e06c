//! The discrete-event core: a time-ordered queue with deterministic
//! FIFO tie-breaking.
//!
//! Determinism is the whole point — the same topology and inputs must
//! produce byte-identical traces on every run, which is what lets the
//! experiment harness assert exact results. Ties in time are broken by
//! insertion sequence number.
//!
//! # Storage model: per-tick FIFO lists through an arena
//!
//! Every pending event sits in a `u32`-indexed arena slot and never
//! moves. Each of the `WINDOW` (64) ticks from the clock on owns a FIFO
//! list of slots, a `(head, tail)` pair at index `at % WINDOW` chained
//! through a `next` vector that runs parallel to the arena, and one
//! `u64` mask has a tick's bit set while its list is non-empty. The next
//! event is the head of the first set bit from the clock's, found by
//! one rotate and one `trailing_zeros`: nothing is searched or sifted
//! per event. An event at or beyond `now + WINDOW` waits in a small
//! `far` heap of `(at, seq, slot)` keys and joins its tick's list as
//! soon as a pop brings the clock within the window of it, before
//! anything else can be scheduled at that tick. So a tick's list is in
//! `seq` order, and pop order is exactly `(at, seq)`: it does not depend
//! on which slot an event landed in. The window is wider than any delay
//! the simulator schedules itself (link delays, the 30-tick MRAI, the
//! out-of-band bus), so only what a caller schedules far ahead waits in
//! the far heap.
//!
//! A popped slot heads a free list chained through the same `next`
//! vector and the next schedule reuses it (mirroring `crates/rib`'s
//! node arena), so the arena holds as many slots as the most events
//! ever in flight at once.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated milliseconds.
pub type SimTime = u64;

/// Ticks from the clock on that have a list of their own: one bit each
/// of the occupancy mask.
const WINDOW: SimTime = 64;

/// The end of a slot chain.
const NIL: u32 = u32::MAX;

/// A deterministic event queue.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Event arena; a `None` slot is free.
    slots: Vec<Option<E>>,
    /// Per slot, the slot after it in its tick's list or in the free
    /// list (`NIL` at the end).
    next: Vec<u32>,
    /// First and last slot of each tick's list, at `at % WINDOW`.
    ticks: [(u32, u32); WINDOW as usize],
    /// Bit `at % WINDOW` set while that tick's list is non-empty.
    occupied: u64,
    /// One `(at, seq, slot)` key per event at or beyond `now + WINDOW`,
    /// least first.
    far: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    /// Head of the free-slot list.
    free: u32,
    len: usize,
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
    /// arena has to regrow.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slots: Vec::with_capacity(cap),
            next: Vec::with_capacity(cap),
            ticks: [(NIL, NIL); WINDOW as usize],
            occupied: 0,
            far: BinaryHeap::new(),
            free: NIL,
            len: 0,
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
        let at = at.max(self.now);
        let slot = if self.free != NIL {
            let slot = self.free;
            self.free = self.next[slot as usize];
            self.slots[slot as usize] = Some(event);
            slot
        } else {
            let slot = u32::try_from(self.slots.len())
                .ok()
                .filter(|&slot| slot != NIL)
                .expect("event arena exhausted u32 indices");
            self.slots.push(Some(event));
            self.next.push(NIL);
            slot
        };
        if at - self.now < WINDOW {
            self.append(at, slot);
        } else {
            self.far.push(Reverse((at, self.seq, slot)));
        }
        self.seq += 1;
        self.len += 1;
    }

    /// Put `slot` at the tail of tick `at`'s list.
    fn append(&mut self, at: SimTime, slot: u32) {
        let tick = (at % WINDOW) as usize;
        self.next[slot as usize] = NIL;
        let (head, tail) = &mut self.ticks[tick];
        if self.occupied & (1 << tick) == 0 {
            *head = slot;
            self.occupied |= 1 << tick;
        } else {
            self.next[*tail as usize] = slot;
        }
        *tail = slot;
    }

    /// Move the clock to `at`: every far event now inside the window
    /// joins its tick's list, least `(at, seq)` first.
    fn advance(&mut self, at: SimTime) {
        self.now = at;
        while let Some(&Reverse((far_at, _, slot))) = self.far.peek() {
            if far_at - at >= WINDOW {
                break;
            }
            self.far.pop();
            self.append(far_at, slot);
        }
    }

    /// Pop the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let at = self.peek_time()?;
        if at != self.now {
            self.advance(at);
        }
        let tick = (at % WINDOW) as usize;
        let slot = self.ticks[tick].0;
        let after = self.next[slot as usize];
        self.ticks[tick].0 = after;
        if after == NIL {
            self.occupied &= !(1 << tick);
        }
        let event = self.slots[slot as usize].take().expect("a listed slot holds an event");
        self.next[slot as usize] = self.free;
        self.free = slot;
        self.len -= 1;
        self.popped += 1;
        Some((at, event))
    }

    /// Timestamp of the next event without popping it (and without
    /// advancing the clock). Lets callers honor a time horizon while
    /// leaving later events queued for a subsequent run.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.occupied == 0 {
            return self.far.peek().map(|Reverse((at, ..))| *at);
        }
        // Every tick's list is earlier than every far event.
        let ahead = self.occupied.rotate_right((self.now % WINDOW) as u32).trailing_zeros();
        Some(self.now + SimTime::from(ahead))
    }

    /// Events waiting.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// An event 64 ticks or more ahead waits in the far heap and joins
    /// its tick's list as soon as the clock comes within 64 of it, so a
    /// tie scheduled after that pops after it; an empty window is
    /// crossed straight to the far heap's least event.
    #[test]
    fn far_events_join_their_tick_ahead_of_later_ties() {
        let mut q = EventQueue::new();
        q.schedule(63, "edge");
        q.schedule(64, "far");
        q.schedule(65, "farther");
        q.schedule(1, "soon");
        assert_eq!(q.pop(), Some((1, "soon")));
        q.schedule(63, "tie");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((63, "edge")));
        assert_eq!(q.pop(), Some((64, "far")));
        assert_eq!(q.pop(), Some((64, "tie")));
        q.schedule_at(1_000, "across");
        q.schedule_at(1_000, "across2");
        assert_eq!(q.pop(), Some((65, "farther")));
        assert_eq!(q.peek_time(), Some(1_000));
        assert_eq!(q.pop(), Some((1_000, "across")));
        q.schedule_at(7, "clamped");
        assert_eq!(q.pop(), Some((1_000, "across2")));
        assert_eq!(q.pop(), Some((1_000, "clamped")));
        assert!(q.is_empty());
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
        let mut free = 0;
        let mut slot = q.free;
        while slot != NIL {
            free += 1;
            slot = q.next[slot as usize];
        }
        assert_eq!(free, 100, "every slot is back on the free list");
        assert_eq!(q.processed(), 1_100);
    }
}
