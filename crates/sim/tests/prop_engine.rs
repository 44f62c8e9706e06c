//! The calendar queue's determinism contract, property-tested against
//! a reference model: a plain `BinaryHeap` over `(time, seq)` keys with
//! the same clock/clamping semantics the engine documents. Whatever
//! interleaving of schedules, pops and mid-stream day width retunes the
//! generator produces — including same-timestamp ties — the calendar
//! queue must emit the bit-identical pop sequence.

use dbgp_sim::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The executable spec: exact `(at, seq)` order, clock advanced by
/// pops, `schedule_at` clamped to never run backwards.
#[derive(Default)]
struct RefModel {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    now: SimTime,
    seq: u64,
}

impl RefModel {
    fn schedule_at(&mut self, at: SimTime, payload: u32) {
        let at = at.max(self.now);
        self.heap.push(Reverse((at, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((at, _seq, payload)) = self.heap.pop()?;
        self.now = at;
        Some((at, payload))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// One generated operation against both queues. The numeric argument is
/// interpreted per opcode; payloads are the op index, so every pop is
/// traceable to the schedule that produced it.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Absolute schedule near the clock (dense ties, boundary hits).
    At(u16),
    /// Relative schedule with a small delay (the common case).
    Delay(u8),
    /// Absolute schedule far in the future (fault-plan idiom; stresses
    /// the sparse-jump path).
    Far(u16),
    Pop,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(|v| Op::At(v % 257)),
        any::<u8>().prop_map(|v| Op::Delay(v % 17)),
        any::<u16>().prop_map(Op::Far),
        Just(Op::Pop),
    ]
}

/// Run one op sequence at a given day-width shift, retuning to
/// `mid_shift` halfway through, and assert every observable output
/// matches the reference model exactly.
fn check(ops: &[Op], shift: u32, mid_shift: u32) -> proptest::test_runner::TestCaseResult {
    let mut q: EventQueue<u32> = EventQueue::new();
    q.set_width_shift(shift);
    let mut model = RefModel::default();
    for (i, &op) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            // A mid-stream retune rebuckets every pending event; the
            // model (which has no buckets) is untouched, so any
            // width-dependent ordering shows up immediately.
            q.set_width_shift(mid_shift);
        }
        let payload = i as u32;
        match op {
            Op::At(v) => {
                let at = model.now + v as SimTime;
                q.schedule_at(at, payload);
                model.schedule_at(at, payload);
            }
            Op::Delay(d) => {
                q.schedule(d as SimTime, payload);
                model.schedule_at(model.now + d as SimTime, payload);
            }
            Op::Far(v) => {
                let at = model.now + 50_000 + v as SimTime * 9973;
                q.schedule_at(at, payload);
                model.schedule_at(at, payload);
            }
            Op::Pop => {
                prop_assert_eq!(q.pop(), model.pop(), "pop diverged at op {}", i);
            }
        }
        prop_assert_eq!(q.peek_time(), model.peek_time(), "peek diverged at op {}", i);
        prop_assert_eq!(q.now(), model.now, "clock diverged at op {}", i);
        prop_assert_eq!(q.len(), model.heap.len(), "len diverged at op {}", i);
    }
    // Final full drain: everything still queued pops in identical order.
    loop {
        let (a, b) = (q.pop(), model.pop());
        prop_assert_eq!(&a, &b, "final drain diverged");
        if a.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The calendar queue bit-matches the heap model at several day
    /// widths (including degenerate 1-tick days and days so wide the
    /// whole run fits in one), with a retune mid-sequence.
    #[test]
    fn calendar_queue_matches_binary_heap(
        ops in proptest::collection::vec(arb_op(), 1..250),
        pair in (0usize..7, 0usize..7),
    ) {
        const SHIFTS: [u32; 7] = [0, 1, 3, 4, 8, 14, 20];
        let (a, b) = (SHIFTS[pair.0], SHIFTS[pair.1]);
        check(&ops, a, b)?;
        check(&ops, b, a)?;
    }
}
