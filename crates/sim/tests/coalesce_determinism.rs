//! Deterministic update coalescing ([`Sim::set_coalesce`]) contract:
//!
//! 1. With coalescing on, a run stays a pure function of its seed:
//!    two runs are bit-identical at every checkpoint of a churning
//!    scenario — staging deltas are absorbed at event commit and
//!    flushed at the time barrier, in canonical (node, neighbor,
//!    prefix) order, never in hash or arrival order.
//! 2. Coalescing changes the wire stream (fewer, fatter frames — that
//!    is the point) but never the outcome: the converged Loc-RIBs and
//!    FIBs match the per-change stream's exactly.
//! 3. With `mrai > 0` the staged sends compose with the classic MRAI
//!    window instead of bypassing it.

use dbgp_core::{render_path, DbgpConfig};
use dbgp_sim::{LinkModel, Sim};
use dbgp_topology::fixtures::waxman_50;
use dbgp_wire::Ipv4Prefix;

fn origin_prefix(node: usize) -> Ipv4Prefix {
    format!("10.{}.{}.0/24", (node >> 8) & 0xff, node & 0xff).parse().unwrap()
}

/// The `determinism.rs` churn scenario, with coalescing configurable.
fn build(seed: u64, coalesce: bool, mrai: u64, perturb: bool) -> (Sim, Vec<(usize, usize)>) {
    let graph = waxman_50(seed);
    let mut sim = Sim::new();
    sim.set_seed(seed ^ 0xD1CE);
    sim.set_mrai(mrai);
    sim.set_coalesce(coalesce);
    for node in 0..graph.len() {
        sim.add_node(DbgpConfig::gulf(node as u32 + 1));
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for a in 0..graph.len() {
        for adj in graph.neighbors(a) {
            if a < adj.neighbor {
                edges.push((a, adj.neighbor));
            }
        }
    }
    edges.sort_unstable();
    for &(a, b) in &edges {
        sim.link(a, b, 5 + ((a + b) % 7) as u64, false);
        // Perturbed links make the RNG draw order load-bearing: a
        // flush point differing between runs would desynchronize
        // every later draw. (The coalesce-on/off outcome
        // comparison turns them off — the two wire streams draw the RNG
        // differently by design, and a duplicated stale announcement
        // landing after its successor legitimately changes the result.)
        if perturb {
            match (a + b) % 3 {
                0 => sim.set_link_model(a, b, LinkModel::reliable().jitter(((a + b) % 5) as u64)),
                1 => sim.set_link_model(a, b, LinkModel::reliable().duplicate_ppm(90_000)),
                _ => {}
            }
        }
    }
    for node in 0..graph.len() {
        sim.originate(node, origin_prefix(node));
    }
    (sim, edges)
}

/// Everything observable, rendered to one comparable string (the
/// `determinism.rs` fingerprint: stats — including total frame count and
/// bytes, so a single diverging frame shows up — plus FIBs, Loc-RIBs
/// and churn records).
fn fingerprint(sim: &mut Sim) -> String {
    let mut out = String::new();
    out.push_str(&format!("stats={:?}\n", sim.stats()));
    out.push_str(&format!(
        "now={} processed={} pending={}\n",
        sim.now(),
        sim.events_processed(),
        sim.pending_events()
    ));
    for node in 0..sim.node_count() {
        out.push_str(&format!("fib[{node}]={:?}\n", sim.fib(node)));
        for (prefix, chosen) in sim.speaker(node).routes() {
            out.push_str(&format!(
                "rib[{node}][{prefix}]: via={:?} path={}\n",
                chosen.neighbor,
                render_path(&chosen.ia)
            ));
        }
    }
    out.push_str(&format!("churn={:?}\n", sim.churn()));
    out
}

/// Only the converged routing outcome (no stats, no timing): what must
/// survive coalescing unchanged.
fn rib_fingerprint(sim: &Sim) -> String {
    let mut out = String::new();
    for node in 0..sim.node_count() {
        out.push_str(&format!("fib[{node}]={:?}\n", sim.fib(node)));
        for (prefix, chosen) in sim.speaker(node).routes() {
            out.push_str(&format!("rib[{node}][{prefix}]: path={}\n", render_path(&chosen.ia)));
        }
    }
    out
}

/// Drive the churn scenario, fingerprinting after every segment.
fn drive(seed: u64) -> Vec<String> {
    let (mut sim, edges) = build(seed, true, 0, true);
    let mut checkpoints = Vec::new();
    sim.run(20_000);
    checkpoints.push(fingerprint(&mut sim));
    for round in 0..4u64 {
        let (a, b) = edges[(seed as usize + round as usize * 11) % edges.len()];
        sim.fail_link(a, b);
        sim.run(sim.now() + 400);
        sim.restore_link(a, b);
        sim.run(sim.now() + 1200);
        checkpoints.push(fingerprint(&mut sim));
    }
    sim.restart_node(17);
    sim.run(60_000);
    checkpoints.push(fingerprint(&mut sim));
    checkpoints
}

#[test]
fn coalesced_run_is_a_pure_function_of_the_seed() {
    let (first, second) = (drive(42), drive(42));
    assert_eq!(first.len(), second.len());
    for (i, (a, b)) in first.iter().zip(second.iter()).enumerate() {
        assert_eq!(a, b, "coalescing: two runs of seed 42 diverged at checkpoint {i}");
    }
}

#[test]
fn coalescing_reduces_frames_without_changing_the_outcome() {
    let (mut off, _) = build(42, false, 0, false);
    off.run(200_000);
    assert_eq!(off.pending_events(), 0, "per-change run must quiesce");
    let (mut on, _) = build(42, true, 0, false);
    on.run(200_000);
    assert_eq!(on.pending_events(), 0, "coalesced run must quiesce");

    assert_eq!(
        rib_fingerprint(&off),
        rib_fingerprint(&on),
        "coalescing changed the converged routing outcome"
    );
    let (soff, son) = (off.stats(), on.stats());
    assert_eq!(soff.frames_coalesced, 0, "per-change run must not coalesce");
    assert!(son.frames_coalesced > 0, "coalesced run saved no frames");
    assert!(
        son.messages < soff.messages,
        "coalescing should deliver fewer frames: {} vs {}",
        son.messages,
        soff.messages
    );
}

#[test]
fn coalescing_composes_with_the_mrai_window() {
    let (mut off, _) = build(7, false, 30, false);
    off.run(400_000);
    assert_eq!(off.pending_events(), 0);
    let (mut on, _) = build(7, true, 30, false);
    on.run(400_000);
    assert_eq!(on.pending_events(), 0);
    assert_eq!(
        rib_fingerprint(&off),
        rib_fingerprint(&on),
        "coalescing under MRAI changed the converged routing outcome"
    );
}
