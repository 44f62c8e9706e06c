//! Allocation budget of the §5 per-advertisement loop: decode →
//! `receive_ia` on a gulf speaker → `encode` + `encode_frame` of what it
//! forwards (a gather list: nothing flattens it), exactly what
//! `benchmark/src/stress.rs` times.
//!
//! Bytes requested from the allocator repeat exactly from run to run, so
//! this gates in CI where a timing cannot. One `#[test]` in its own
//! binary: the counter is process-wide and must see one thread's work.

use bytes::Bytes;
use dbgp_core::{DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, DbgpUpdate, NeighborId};
use dbgp_workload::WorkloadGen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static REQUESTED: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        REQUESTED.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run the stress loop over `n` generated IAs of about `payload` bytes;
/// returns (bytes allocated inside the loop, bytes emitted).
fn stress_loop(n: usize, payload: usize) -> (u64, u64) {
    let frames: Vec<Bytes> = WorkloadGen::new(42)
        .ia_trace(n, payload, 5)
        .into_iter()
        .map(|ia| DbgpUpdate::announce(ia).encode())
        .collect();
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(4_200_000));
    speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(4_200_001));
    speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(4_200_002));

    REQUESTED.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let mut emitted = 0u64;
    for frame in &frames {
        let mut buf = frame.clone();
        let update = DbgpUpdate::decode(&mut buf).expect("a generated frame decodes");
        for ia in update.ias {
            for output in speaker.receive_ia(NeighborId(0), ia) {
                if let DbgpOutput::SendIa(_, ia) = output {
                    let frame = DbgpUpdate::encode_frame(&[], &[ia.encode()]);
                    emitted += std::hint::black_box(frame).len() as u64;
                }
            }
        }
    }
    COUNTING.store(false, Ordering::Relaxed);
    assert_eq!(speaker.routes().count(), n, "every advertisement installed a route");
    (REQUESTED.load(Ordering::Relaxed), emitted)
}

/// What the loop over 1,000 BGP-only IAs allocated at the parent commit
/// (`2ad465f`, six prefix-keyed tables in the speaker), measured with
/// this test.
const PARENT_BGP_ONLY_BYTES: u64 = 1_318_640;

#[test]
fn the_stress_loop_stays_inside_its_allocation_budget() {
    // 32 KB IAs: a gulf's frame is a freshly written head plus the tail
    // bytes as they arrived, so no buffer of the emitted size is
    // allocated at all — decode, the IA DB, the factory, the Adj-RIB-Out,
    // the head and the gather list together measure 0.066× of the bytes
    // emitted. Re-cut on purpose from 2.2× (the two 32 KB buffers of
    // `encode` then `encode_frame`, which this budget used to allow):
    // one payload copy anywhere in the loop is 1×, and 0.1× refuses it.
    let (allocated, emitted) = stress_loop(64, 32 << 10);
    println!("ia32k: allocated {allocated} B for {emitted} B emitted");
    assert!(emitted > 64 * (32 << 10));
    assert!(
        allocated as f64 <= 0.1 * emitted as f64,
        "32 KB IAs: allocated {allocated} B for {emitted} B emitted ({:.3}x, budget 0.1x)",
        allocated as f64 / emitted as f64
    );

    // BGP-only IAs: no payload to share, so what is left is the
    // per-message bookkeeping. One boxed per-prefix entry with one slot
    // vector sits at 0.909x of the parent's six tables. The same entry
    // stored inline in the trie node (0.967x), or boxed with separate
    // received/sent vectors (0.988x), passes every functional test and
    // gives most of that back. Re-cut on purpose from 0.92x to 0.93x:
    // `Ia` grew by the one pointer of its tail window, and each
    // advertisement allocates three `Ia`s — 3 × 8 B × 1,000 = 24,000 B
    // on top of 1,198,920 B, 0.9274x. Still below both rejected layouts.
    let (allocated, emitted) = stress_loop(1_000, 0);
    println!("bgponly: allocated {allocated} B for {emitted} B emitted");
    assert!(
        allocated as f64 <= 0.93 * PARENT_BGP_ONLY_BYTES as f64,
        "BGP-only IAs: allocated {allocated} B, budget 0.93x of the parent's \
         {PARENT_BGP_ONLY_BYTES} B"
    );
}
