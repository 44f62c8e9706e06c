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

fn count(bytes: isize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The driver of `benchmark/src/sims.rs`'s `sim_hier50k`.
const ORIGINS: usize = 8;
const STAGGER: SimTime = 200;
const HORIZON: SimTime = 1_000_000;

/// 3,750 B measured with this test (seed 42, 1,002 nodes) once MRAI
/// coalescing kept one sorted vector of pending elements per node,
/// released when it empties, in place of a hash table of per-neighbor
/// B-trees; the budget leaves a 4 % margin. Before that change the
/// scenario held 3,866 B under a 4,030 B budget, measured once each
/// per-node record was sized to what it holds — one-sided Adj-RIB slot
/// records, sorted-vector neighbor, module and churn tables. Before
/// that, the scenario held 4,832 B under a 5,130 B budget; before the
/// simulator stopped keeping a FIB trie beside each speaker's Loc-RIB,
/// 5,467 B under 5,800 B. Before every receiver of a frame stored the
/// IAs of its one decode, each receiver decoded its own copy, and the
/// same scenario held 8,946 B per node: 12,527 received IAs, all
/// distinct, where there are now 757.
const BUDGET_BYTES_PER_NODE: usize = 3_900;

/// The most live bytes per node at any point of the run: 3,750 B
/// measured, equal to the figure at quiescence. While every (node,
/// neighbor) MRAI window allocated a `BTreeMap`, the windows open at
/// once pushed the peak to 3,974 B.
const PEAK_BUDGET_BYTES_PER_NODE: usize = 3_900;

#[test]
fn a_quiescent_hierarchy_stays_inside_its_memory_budget() {
    let topo = generate_hier(HierParams::default().scaled_down(50), 42);
    let stubs: Vec<usize> = topo.nodes_in(Tier::Stub).collect();
    let stride = stubs.len() / ORIGINS;
    let origins: Vec<usize> = (0..ORIGINS).map(|i| stubs[i * stride]).collect();

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut sim: Sim = valley_free_sim(&topo, 42);
    for (i, &node) in origins.iter().enumerate() {
        sim.originate(node, node_prefix(node));
        sim.run((i as SimTime + 1) * STAGGER);
    }
    sim.run(HORIZON);
    let live = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let peak = (PEAK.load(Ordering::Relaxed) - before) as usize;
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
    let (per_node, peak_per_node) = (live / sim.node_count(), peak / sim.node_count());
    println!(
        "{} nodes: {per_node} live B/node, peak {peak_per_node}; {received} received IAs, {} distinct; \
         {} frames decoded, {} deliveries served from the decode memo",
        sim.node_count(),
        distinct.len(),
        sim.frames_decoded(),
        sim.decode_memo_hits(),
    );
    assert!(
        per_node <= BUDGET_BYTES_PER_NODE,
        "{per_node} live B/node, budget {BUDGET_BYTES_PER_NODE}"
    );
    assert!(
        peak_per_node <= PEAK_BUDGET_BYTES_PER_NODE,
        "peak {peak_per_node} live B/node, budget {PEAK_BUDGET_BYTES_PER_NODE}"
    );
    // Every receiver of a frame stores the IAs its one decode made.
    assert!(
        distinct.len() as u64 <= sim.frames_decoded(),
        "{} distinct received IAs from {} decoded frames",
        distinct.len(),
        sim.frames_decoded()
    );
}
