//! Live-memory budget of a quiescent AS hierarchy: the scaled-down
//! `sim_hier50k` of `benchmark/src/sims.rs` (a valley-free Gao-Rexford
//! hierarchy, eight stub origins announced one flood apart), held to a
//! number of live heap bytes per node once it has converged, and to a
//! peak of live bytes per node over the run.
//!
//! Live bytes at a point of a run, and their peak, repeat exactly from
//! run to run, so this gates in CI where a resident-set size cannot. One
//! `#[test]` in its own binary: the counters are process-wide and must
//! see one thread's work.

use dbgp_sim::{Sim, SimTime};
use dbgp_topology::{generate_hier, HierParams, Tier};
use dbgp_workload::policy::{node_prefix, valley_free_sim};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since it was last reset.
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// The allocator chunks behind `LIVE`: glibc gives a request of `n`
/// bytes `max(32, n + 8)` rounded up to 16, and resident memory follows
/// that sum, not `LIVE`.
static CHUNKS: AtomicIsize = AtomicIsize::new(0);
/// The most `CHUNKS` has been since it was last reset.
static CHUNK_PEAK: AtomicIsize = AtomicIsize::new(0);

fn chunk(size: usize) -> isize {
    (size + 8).next_multiple_of(16).max(32) as isize
}

fn count(bytes: isize, chunks: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
    let held = CHUNKS.fetch_add(chunks, Ordering::Relaxed) + chunks;
    CHUNK_PEAK.fetch_max(held, Ordering::Relaxed);
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

/// The driver of `benchmark/src/sims.rs`'s `sim_hier50k`.
const ORIGINS: usize = 8;
const STAGGER: SimTime = 200;
const HORIZON: SimTime = 1_000_000;

/// 2,799 B measured with this test (seed 42, 1,002 nodes, the same in
/// debug and release, rustc 1.95) once an IA kept its rare records
/// (memberships, descriptors, unknown records) in one box it allocates
/// only when it has one, so an `Arc<Ia>` takes 72 bytes, not 168, and a
/// path element 16 bytes, not 24, in a path vector decoded at its
/// length; the budget leaves a 5.0 % margin. Before that, 3,018 B (the
/// same in debug and release), once every per-node and per-prefix record
/// took a smaller allocator chunk: a 56-byte speaker-table entry (the
/// originated IA and the exports to a second neighbor class among its
/// slot records), a 32-byte prefix trie, a 392-byte simulator node (no
/// out-of-band inbox of its own), a 24-byte link record under `u32` keys
/// and a 48-byte encode-cache entry. Before that, 3,409 B, once each IA
/// body was decoded once, where its sender encoded it, and an encode-cache entry lived as long
/// as its IA. Before that, 3,449 B,
/// once each IA body was decoded once per sender, into its `Arc`,
/// through a content-keyed body memo, and a memoised frame held an
/// exactly sized vector of pointers. Before that, 3,464 B in
/// both profiles, measured once the event queue was one binary heap
/// over its slot arena, grown to the most events in flight, in place of
/// a calendar queue whose arena was pre-sized to twice the edge count.
/// Before that change the scenario held 3,750 B under a 3,900 B budget,
/// measured once MRAI coalescing kept one sorted vector of pending
/// elements per node, released when it empties, in place of a hash
/// table of per-neighbor B-trees. Before that, 3,866 B under 4,030 B,
/// measured once each per-node record was sized to what it holds —
/// one-sided Adj-RIB slot records, sorted-vector neighbor, module and
/// churn tables. Before that, the scenario held 4,832 B under a 5,130 B
/// budget; before the simulator stopped keeping a FIB trie beside each
/// speaker's Loc-RIB, 5,467 B under 5,800 B. Before every receiver of a frame stored the
/// IAs of its one decode, each receiver decoded its own copy, and the
/// same scenario held 8,946 B per node: 12,527 received IAs, all
/// distinct, where there are now 752.
const BUDGET_BYTES_PER_NODE: usize = 2_940;

/// The most live bytes per node at any point of the run: 2,799 B, equal
/// to the figure at quiescence, once the IA's rare records moved into one
/// box. Before that, 3,018 B in debug and in release, equal to the
/// figure at quiescence too (3,409 B in debug and 3,410 B in release
/// before the smaller records; 3,450 B, one above the figure at quiescence,
/// under the decode memos; 3,464 B, equal to it, before the body memo;
/// 3,750 B under the calendar queue). While every (node, neighbor) MRAI window allocated
/// a `BTreeMap`, the windows open at once pushed the peak to 3,974 B.
const PEAK_BUDGET_BYTES_PER_NODE: usize = 2_940;

/// The same bytes in allocator chunks: 3,155 B at quiescence and 3,156 B
/// at the peak once the IA's rare records moved into one box, against
/// 3,373 B for both before; the budgets leave 4.9 %.
const CHUNK_BUDGET_PER_NODE: usize = 3_310;
const PEAK_CHUNK_BUDGET_PER_NODE: usize = 3_310;

#[test]
fn a_quiescent_hierarchy_stays_inside_its_memory_budget() {
    let topo = generate_hier(HierParams::default().scaled_down(50), 42);
    let stubs: Vec<usize> = topo.nodes_in(Tier::Stub).collect();
    let stride = stubs.len() / ORIGINS;
    let origins: Vec<usize> = (0..ORIGINS).map(|i| stubs[i * stride]).collect();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let chunks_before = CHUNKS.load(Ordering::Relaxed);
    CHUNK_PEAK.store(chunks_before, Ordering::Relaxed);
    let mut sim: Sim = valley_free_sim(&topo, 42);
    for (i, &node) in origins.iter().enumerate() {
        sim.originate(node, node_prefix(node));
        sim.run((i as SimTime + 1) * STAGGER);
    }
    sim.run(HORIZON);
    let live = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let peak = (PEAK.load(Ordering::Relaxed) - before) as usize;
    let chunks = (CHUNKS.load(Ordering::Relaxed) - chunks_before) as usize;
    let chunk_peak = (CHUNK_PEAK.load(Ordering::Relaxed) - chunks_before) as usize;
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
    let n = sim.node_count();
    let (per_node, peak_per_node) = (live / n, peak / n);
    let (chunks_per_node, chunk_peak_per_node) = (chunks / n, chunk_peak / n);
    println!(
        "{n} nodes: {per_node} live B/node, peak {peak_per_node}; in chunks {chunks_per_node}, \
         peak {chunk_peak_per_node}; {received} received IAs, {} distinct; {} deliveries parsed, \
         {} IA bodies decoded",
        distinct.len(),
        sim.frames_decoded(),
        sim.ias_decoded(),
    );
    assert!(
        per_node <= BUDGET_BYTES_PER_NODE,
        "{per_node} live B/node, budget {BUDGET_BYTES_PER_NODE}"
    );
    assert!(
        peak_per_node <= PEAK_BUDGET_BYTES_PER_NODE,
        "peak {peak_per_node} live B/node, budget {PEAK_BUDGET_BYTES_PER_NODE}"
    );
    assert!(
        chunks_per_node <= CHUNK_BUDGET_PER_NODE,
        "{chunks_per_node} chunk B/node, budget {CHUNK_BUDGET_PER_NODE}"
    );
    assert!(
        chunk_peak_per_node <= PEAK_CHUNK_BUDGET_PER_NODE,
        "peak {chunk_peak_per_node} chunk B/node, budget {PEAK_CHUNK_BUDGET_PER_NODE}"
    );
    // Every receiver of an IA body stores the IA its one decode made.
    assert!(
        distinct.len() as u64 <= sim.ias_decoded(),
        "{} distinct received IAs from {} decoded bodies",
        distinct.len(),
        sim.ias_decoded()
    );
}
