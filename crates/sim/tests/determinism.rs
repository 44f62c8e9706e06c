//! The simulator's determinism contract: a run is a pure function of
//! its construction sequence and seed — bit-identical statistics,
//! metrics snapshots, per-node counters, Loc-RIBs, FIBs and churn
//! records at every intermediate checkpoint of a churning run — and
//! attaching observers (trace recorder, best-change capture, phase
//! timer) changes none of it.
//!
//! The scenario mirrors the `waxman50_churn` benchmark: gulf speakers
//! on a 50-AS Waxman graph with heterogeneous link delays and seeded
//! link perturbation models, driven through a flap storm and node
//! restarts. Checkpointing after every driver step pins the entire
//! event stream, not just the final state: any divergence in event
//! ordering shows up as a diverging stat or RIB at the next checkpoint.

use dbgp_core::{render_path, DbgpConfig};
use dbgp_sim::{LinkModel, Sim};
use dbgp_telemetry::TraceRecorder;
use dbgp_topology::fixtures::waxman_50;
use dbgp_wire::Ipv4Prefix;
use proptest::proptest;
use proptest::test_runner::ProptestConfig;
use std::rc::Rc;

fn origin_prefix(node: usize) -> Ipv4Prefix {
    format!("10.{}.{}.0/24", (node >> 8) & 0xff, node & 0xff).parse().unwrap()
}

/// Build the churn scenario's topology (nothing originated yet).
fn build(seed: u64) -> (Sim, Vec<(usize, usize)>) {
    let graph = waxman_50(seed);
    let mut sim = Sim::new();
    sim.set_seed(seed ^ 0xD1CE);
    sim.reserve_events(2 * graph.edge_count());
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
        // Every third link gets a perturbation model so the RNG draw
        // order is load-bearing.
        match (a + b) % 3 {
            0 => sim.set_link_model(a, b, LinkModel::reliable().jitter(((a + b) % 5) as u64)),
            1 => sim.set_link_model(a, b, LinkModel::reliable().duplicate_ppm(90_000)),
            _ => {}
        }
    }
    (sim, edges)
}

/// Everything observable about a simulation, rendered to one comparable
/// string.
fn fingerprint(sim: &mut Sim) -> String {
    let mut out = String::new();
    out.push_str(&format!("stats={:?}\n", sim.stats()));
    out.push_str(&format!(
        "now={} processed={} pending={}\n",
        sim.now(),
        sim.events_processed(),
        sim.pending_events()
    ));
    out.push_str(&format!("metrics={}\n", serde_json::to_string(&sim.metrics_snapshot()).unwrap()));
    for node in 0..sim.node_count() {
        out.push_str(&format!("counters[{node}]={:?}\n", sim.node_counters(node)));
        out.push_str(&format!("fib[{node}]={:?}\n", sim.fib(node)));
        for (prefix, chosen) in sim.speaker(node).routes() {
            let via_as =
                sim.fib(node).get(prefix).copied().flatten().map(|peer| sim.speaker(peer).asn());
            out.push_str(&format!(
                "rib[{node}][{prefix}]: via={:?} via_as={via_as:?} hops={} path={}\n",
                chosen.neighbor,
                chosen.ia.hop_count(),
                render_path(&chosen.ia)
            ));
        }
    }
    out.push_str(&format!("churn={:?}\n", sim.churn()));
    out
}

/// Drive the churn scenario, collecting a fingerprint after every run
/// segment. The driver sequence (originate, flaps, restarts) is a pure
/// function of the seed and the MRAI (`0` sends every change at once
/// through `send_now`, anything else batches through `flush` — the two
/// callers of the one frame emitter); `observe` gets the freshly built
/// simulation before anything is originated, to attach whatever it
/// likes.
fn drive(seed: u64, mrai: u64, observe: impl FnOnce(&mut Sim)) -> Vec<String> {
    let (mut sim, edges) = build(seed);
    sim.set_mrai(mrai);
    observe(&mut sim);
    for node in 0..sim.node_count() {
        sim.originate(node, origin_prefix(node));
    }
    let mut checkpoints = Vec::new();
    sim.run(20_000);
    checkpoints.push(fingerprint(&mut sim));
    for round in 0..6u64 {
        let (a, b) = edges[(seed as usize + round as usize * 11) % edges.len()];
        sim.fail_link(a, b);
        sim.run(sim.now() + 400);
        sim.restore_link(a, b);
        sim.run(sim.now() + 1200);
        checkpoints.push(fingerprint(&mut sim));
    }
    for &node in &[3usize, 17, 41] {
        sim.restart_node(node % sim.node_count());
        sim.run(sim.now() + 3000);
        checkpoints.push(fingerprint(&mut sim));
    }
    sim.run(60_000);
    checkpoints.push(fingerprint(&mut sim));
    checkpoints
}

fn assert_same(what: &str, a: &[String], b: &[String]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x, y, "{what} diverged at checkpoint {i}");
    }
}

/// The MRAI settings every test below runs at: none, and the default.
const MRAIS: [u64; 2] = [0, 30];

#[test]
fn same_seed_twice_is_bit_identical_on_waxman_50_churn() {
    for mrai in MRAIS {
        let (a, b) = (drive(42, mrai, |_| {}), drive(42, mrai, |_| {}));
        assert_same(&format!("seed 42 at mrai {mrai} run twice"), &a, &b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Across seeds: two runs of one seed never diverge.
    #[test]
    fn same_seed_twice_is_bit_identical_across_seeds(seed in 0u64..1000) {
        let (a, b) = (drive(seed, 30, |_| {}), drive(seed, 30, |_| {}));
        assert_same(&format!("seed {seed} run twice"), &a, &b);
    }
}

/// Observation is neutral: a run with a trace recorder, a best-change
/// capture ring and the phase timer all attached ends every segment
/// with the same stats, metrics, RIB snapshot, FIBs, counters and event
/// count as a bare run of the same seed, with and without an MRAI
/// window. There is one event loop, one receive loop and one frame
/// emitter, so attaching an observer cannot change which code path
/// runs — only whether the records that path offers are kept.
#[test]
fn attached_observers_do_not_change_the_run() {
    for mrai in MRAIS {
        let bare = drive(42, mrai, |_| {});
        let recorder = Rc::new(TraceRecorder::unbounded());
        let observed = drive(42, mrai, |sim| {
            sim.enable_telemetry(recorder.clone());
            sim.capture_best_changes(4096);
            sim.enable_phase_timing();
        });
        assert!(!recorder.is_empty(), "the recorder saw the run");
        assert_same(&format!("bare vs observed runs at mrai {mrai}"), &bare, &observed);
    }
}
