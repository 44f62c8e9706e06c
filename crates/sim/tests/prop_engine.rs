//! The event queue's determinism contract, property-tested against a
//! reference model: a plain binary heap over `(time, seq)` keys holding
//! the payloads inline, with the same clock/clamping semantics the
//! engine documents. Whatever interleaving of schedules and pops the
//! generator produces — same-timestamp ties, far-future gaps, and the
//! edges of the engine's 64-tick window of per-tick lists (delays 63,
//! 64 and 65, far events joining the window as the clock advances,
//! pops that cross an empty window to the far heap, schedules clamped
//! from the past) — the engine must emit the bit-identical pop
//! sequence, with the same `len()` and `peek_time()` after every op.

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
    /// Absolute schedule far in the future (the fault-plan idiom).
    Far(u16),
    /// Relative schedule at the window's edge: 63, 64 or 65 ticks, or
    /// 127, 128 or 129 (two windows out).
    Edge(u8),
    /// Absolute schedule in the past, clamped to the clock.
    Past(u16),
    Pop,
    /// Pop until the clock jumps by a whole window or more (crossing an
    /// empty window to a far event) or the queue runs dry.
    Cross,
}

const EDGES: [SimTime; 6] = [63, 64, 65, 127, 128, 129];

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u16>().prop_map(|v| Op::At(v % 257)),
        any::<u8>().prop_map(|v| Op::Delay(v % 17)),
        any::<u16>().prop_map(Op::Far),
        any::<u8>().prop_map(|v| Op::Edge(v % EDGES.len() as u8)),
        any::<u16>().prop_map(|v| Op::Past(v % 70)),
        Just(Op::Pop),
        Just(Op::Cross),
    ]
}

/// Run one op sequence and assert every observable output matches the
/// reference model exactly.
fn check(ops: &[Op]) -> proptest::test_runner::TestCaseResult {
    let mut q: EventQueue<u32> = EventQueue::new();
    let mut model = RefModel::default();
    for (i, &op) in ops.iter().enumerate() {
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
            Op::Edge(e) => {
                q.schedule(EDGES[e as usize], payload);
                model.schedule_at(model.now + EDGES[e as usize], payload);
            }
            Op::Past(v) => {
                let at = model.now.saturating_sub(v as SimTime);
                q.schedule_at(at, payload);
                model.schedule_at(at, payload);
            }
            Op::Pop => {
                prop_assert_eq!(q.pop(), model.pop(), "pop diverged at op {}", i);
            }
            Op::Cross => loop {
                let before = model.now;
                let popped = model.pop();
                prop_assert_eq!(q.pop(), popped, "pop diverged at op {}", i);
                prop_assert_eq!(q.peek_time(), model.peek_time(), "peek diverged at op {}", i);
                prop_assert_eq!(q.len(), model.heap.len(), "len diverged at op {}", i);
                if popped.is_none_or(|(at, _)| at - before >= 64) {
                    break;
                }
            },
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine bit-matches the reference model, ties and the
    /// recycling of popped slots included.
    #[test]
    fn event_queue_matches_binary_heap(ops in proptest::collection::vec(arb_op(), 1..250)) {
        check(&ops)?;
    }
}
