//! Live-memory budget of a network after a flap storm: the
//! `sim_churn_waxman50` of `benchmark/src/sims.rs` (a converged 50-node
//! Waxman world, 30 windows of link flaps sweeping its edge list, four
//! node restarts), held to a number of live heap bytes per node once the
//! storm has quiesced. Every flap re-advertises what the link carried,
//! so each encode cache sees a new IA version per change; an entry whose
//! IA the speaker no longer holds must not outlive it.
//!
//! Live bytes repeat exactly from run to run, so this gates in CI where
//! a resident-set size cannot. One `#[test]` in its own binary: the
//! counter is process-wide and must see one thread's work.

use dbgp_chaos::scenario::sim_from_graph;
use dbgp_chaos::{FaultPlan, ScenarioRunner};
use dbgp_topology::fixtures::waxman_50;
use dbgp_workload::policy::node_prefix;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

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

/// `sim_churn_waxman50`'s link delay, storm and horizons.
const DELAY: u64 = 10;
const FLAP_WINDOWS: u64 = 30;
const RESTARTS: [usize; 4] = [1, 7, 19, 33];
const SETTLE: u64 = 3_000_000_000;

/// 50,484 B measured with this test (seed 42, 50 nodes x 50 prefixes,
/// the same in debug and release, rustc 1.95) once an IA kept its rare
/// records in one box it allocates only when it has one, and its path
/// elements took 16 bytes, not 24, in a path vector decoded at its
/// length. Before that, 72,452 B (the same in debug and release), once
/// an encode-cache entry kept its body as an offset into its announce frame (48 bytes, not
/// 64) and the speaker-table entry took a 64-byte chunk. Before that,
/// 76,299 B, once an encode-cache entry lived as long as its IA: 3,718
/// entries are left (the same since). While a cache
/// was wiped only at 8,192 entries, the scenario held 178,307 B (debug)
/// and 178,325 B (release), most of it entries no speaker could send
/// again. The budget leaves a 5.0 % margin.
const BUDGET_BYTES_PER_NODE: usize = 53_000;

/// The same bytes in allocator chunks: 57,088 B once the IA's rare
/// records moved into one box, against 78,759 B before; the budget
/// leaves 4.9 %.
const CHUNK_BUDGET_PER_NODE: usize = 59_900;

#[test]
fn a_network_after_a_flap_storm_stays_inside_its_memory_budget() {
    let graph = waxman_50(42);
    let (before, chunks_before) = (LIVE.load(Ordering::Relaxed), CHUNKS.load(Ordering::Relaxed));
    let mut sim = sim_from_graph(&graph, DELAY);
    sim.set_seed(42);
    for node in 0..graph.len() {
        sim.originate(node, node_prefix(node));
    }
    sim.run(200_000_000);
    assert_eq!(sim.pending_events(), 0, "converges");

    let edges: Vec<(usize, usize, bool)> = sim.links().collect();
    let mut plan = FaultPlan::new();
    for window in 0..FLAP_WINDOWS {
        let (a, b, _) = edges[(window as usize * 13 + 5) % edges.len()];
        plan = plan.link_flaps(a, b, 210_000_000 + window * 40_000_000, 25_000_000, 10_000_000, 2);
    }
    for (i, node) in RESTARTS.into_iter().enumerate() {
        plan = plan.node_restart(node, 300_000_000 + i as u64 * 250_000_000);
    }
    assert!(ScenarioRunner::new(SETTLE).run(&mut sim, &plan).quiesced, "the storm quiesces");
    let live = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let chunks = (CHUNKS.load(Ordering::Relaxed) - chunks_before) as usize;

    for node in 0..sim.node_count() {
        for prefix in (0..graph.len()).map(node_prefix) {
            assert!(sim.speaker(node).best(&prefix).is_some(), "node {node} reaches {prefix}");
        }
    }
    let (per_node, chunks_per_node) = (live / sim.node_count(), chunks / sim.node_count());
    let stats = sim.stats();
    println!(
        "{} nodes x {} prefixes after the storm: {per_node} live B/node, {chunks_per_node} in \
         chunks; {} IA bodies encoded, {} re-sent from the encode cache",
        sim.node_count(),
        graph.len(),
        stats.updates_encoded,
        stats.encode_cache_hits,
    );
    assert!(
        per_node <= BUDGET_BYTES_PER_NODE,
        "{per_node} live B/node, budget {BUDGET_BYTES_PER_NODE}"
    );
    assert!(
        chunks_per_node <= CHUNK_BUDGET_PER_NODE,
        "{chunks_per_node} chunk B/node, budget {CHUNK_BUDGET_PER_NODE}"
    );
}
