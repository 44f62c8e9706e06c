//! Live-memory budget of a quiescent many-prefix world: the scaled-down
//! `sim_flood_waxman1000` of `benchmark/src/sims.rs` (a Waxman topology
//! wired as `dbgp_chaos::scenario::sim_from_graph` wires it, evenly
//! spaced origins announced at once), held to a number of live heap
//! bytes per (node, prefix) once it has converged.
//!
//! Live bytes repeat exactly from run to run, so this gates in CI where
//! a resident-set size cannot. One `#[test]` in its own binary: the
//! counters are process-wide and must see one thread's work.

use dbgp_chaos::scenario::sim_from_graph;
use dbgp_topology::{waxman, WaxmanParams};
use dbgp_workload::policy::node_prefix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The allocator chunks behind `LIVE`: glibc gives a request of `n`
/// bytes `max(32, n + 8)` rounded up to 16, and resident memory follows
/// that sum, not `LIVE`.
static CHUNKS: AtomicIsize = AtomicIsize::new(0);

fn chunk(size: usize) -> isize {
    (size + 8).next_multiple_of(16).max(32) as isize
}

fn count(bytes: isize, chunks: isize) {
    LIVE.fetch_add(bytes, Ordering::Relaxed);
    CHUNKS.fetch_add(chunks, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, chunk(layout.size()));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize), -chunk(layout.size()));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize, chunk(layout.size()));
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize, chunk(new_size) - chunk(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const NODES: usize = 300;
const ORIGINS: usize = 30;
/// `sim_flood_waxman1000`'s link delay and run horizon.
const DELAY: u64 = 10;
const HORIZON: u64 = 4_000_000_000;

/// 834 B measured with this test (seed 42, 300 nodes x 30 prefixes,
/// the same in debug and release, rustc 1.95) once an IA kept its rare
/// records in one box it allocates only when it has one (an `Arc<Ia>` of
/// 72 bytes, not 168) and its path elements took 16 bytes, not 24, in a
/// path vector decoded at its length. Before that, 1,154 B (the same in
/// debug and release), once the speaker-table entry took a 64-byte
/// chunk instead of a 96-byte one, with the one export of a
/// world without islands still inline. Before that, 1,226 B, once each
/// IA body was decoded once, where its sender encoded it: 9,000 distinct
/// received IAs of 26,850, one per body encoded (the same since). Before
/// that, a content-keyed body memo wiped
/// at 256 entries decoded a body once per sender while it remembered
/// it: 1,317 B, with 11,801 distinct. Before that, every receiver of a
/// batched flush decoded its own copy, and the scenario held 1,835 B per
/// (node, prefix) with 26,201 distinct. The budget leaves a 4.9 % margin.
const BUDGET_BYTES_PER_ROW: usize = 875;

/// The same rows in allocator chunks: 934 B once the IA's rare records
/// moved into one box, against 1,250 B before; the budget leaves 4.9 %.
const CHUNK_BUDGET_PER_ROW: usize = 980;

#[test]
fn a_quiescent_flood_stays_inside_its_memory_budget() {
    let graph = waxman::generate(WaxmanParams { n: NODES, ..WaxmanParams::default() }, 42);
    let stride = NODES / ORIGINS;
    let origins: Vec<usize> = (0..ORIGINS).map(|i| i * stride).collect();

    let (before, chunks_before) = (LIVE.load(Ordering::Relaxed), CHUNKS.load(Ordering::Relaxed));
    let mut sim = sim_from_graph(&graph, DELAY);
    sim.set_seed(42);
    for &node in &origins {
        sim.originate(node, node_prefix(node));
    }
    sim.run(HORIZON);
    let live = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let chunks = (CHUNKS.load(Ordering::Relaxed) - chunks_before) as usize;
    assert_eq!(sim.pending_events(), 0, "quiesces");

    let prefixes: Vec<_> = origins.iter().map(|&node| node_prefix(node)).collect();
    let (mut received, mut distinct) = (0usize, HashSet::new());
    for node in 0..sim.node_count() {
        let speaker = sim.speaker(node);
        for prefix in &prefixes {
            assert!(speaker.best(prefix).is_some(), "node {node} reaches {prefix}");
            for (_, ia) in speaker.iadb().candidates(prefix) {
                received += 1;
                distinct.insert(Arc::as_ptr(ia));
            }
        }
    }
    let rows = sim.node_count() * prefixes.len();
    let (per_row, chunks_per_row) = (live / rows, chunks / rows);
    println!(
        "{} nodes x {} prefixes: {per_row} live B per (node, prefix), {chunks_per_row} in chunks; \
         {received} received IAs, {} distinct; {} deliveries parsed, {} IA bodies decoded",
        sim.node_count(),
        prefixes.len(),
        distinct.len(),
        sim.frames_decoded(),
        sim.ias_decoded(),
    );
    assert!(per_row <= BUDGET_BYTES_PER_ROW, "{per_row} live B/row, budget {BUDGET_BYTES_PER_ROW}");
    assert!(
        chunks_per_row <= CHUNK_BUDGET_PER_ROW,
        "{chunks_per_row} chunk B/row, budget {CHUNK_BUDGET_PER_ROW}"
    );
    // Every receiver of an IA body stores the IA its one decode made.
    assert!(
        distinct.len() as u64 <= sim.ias_decoded(),
        "{} distinct received IAs from {} decoded bodies",
        distinct.len(),
        sim.ias_decoded()
    );
}
