//! Pinned answers for the `trace_query` provenance queries over the two
//! canonical traced scenarios. The simulator is deterministic, so these
//! answers are exact: if one changes, either the scenario or the
//! telemetry instrumentation changed semantics.

use dbgp_chaos::scenario::{traced_fig8_wiser_flap, traced_rbgp_diamond_failover};
use dbgp_core::DbgpConfig;
use dbgp_crypto::Sha256;
use dbgp_sim::Sim;
use dbgp_telemetry::query::{convergence_timeline, path_of, why_selected, TraceLog};
use dbgp_telemetry::{TraceKind, TraceRecorder};
use std::rc::Rc;

const PREFIX: &str = "128.6.0.0/16";

#[test]
fn rbgp_failover_why_selected_blames_the_link_down() {
    let log = traced_rbgp_diamond_failover();
    // AS 5 is the R-BGP source; after the primary d-short link dies it
    // must sit on the staged disjoint backup.
    let w = why_selected(&log, 5, PREFIX).expect("source has a route");
    assert_eq!(w.path, "4 3 1", "failed over to the long path");
    assert_eq!(w.hops, 3);
    assert_eq!(w.why, "only-candidate", "the withdraw left a single path");
    // The provenance walks decision -> decode -> withdraw -> session
    // down -> link down: the root cause is the injected fault.
    let kinds: Vec<&str> = w.provenance.iter().map(|h| h.kind.as_str()).collect();
    assert_eq!(kinds, ["decision", "decode", "withdraw", "session-fsm", "link-down"]);
}

#[test]
fn rbgp_failover_timeline_is_rooted_and_converges() {
    let log = traced_rbgp_diamond_failover();
    let t = convergence_timeline(&log);
    assert_eq!(t.decisions, 8, "5 initial installs + loss + 2 failover installs");
    assert_eq!(t.messages, 10);
    assert_eq!(t.converged_at, 240);
    // Every best-path change has a complete causal chain back to a root.
    assert!(t.entries.iter().all(|e| e.root.is_some()));
    // Post-fault changes share the link-down event as their root.
    let post_fault: Vec<_> = t.entries.iter().filter(|e| e.at >= 160).collect();
    assert_eq!(post_fault.len(), 3);
    let root = post_fault[0].root.unwrap();
    assert!(post_fault.iter().all(|e| e.root == Some(root)));
    assert!(matches!(log.find(root).unwrap().kind, TraceKind::LinkDown { .. }));
    // The loss at the short transit, then the source's failover install.
    assert!(!post_fault[0].selected, "the short transit loses all paths first");
    assert!(post_fault[1].selected && post_fault[1].asn == 5, "the source fails over");
}

#[test]
fn rbgp_failover_path_of_spans_fault_to_reinstall() {
    let log = traced_rbgp_diamond_failover();
    let last =
        log.events.iter().rev().find(|e| matches!(e.kind, TraceKind::Decision { .. })).unwrap().id;
    let p = path_of(&log, last).unwrap();
    // Root-first chain: fault -> session down -> withdraw -> decode ->
    // re-advertise of the backup -> decode -> final install.
    let kinds: Vec<&str> = p.chain.iter().map(|h| h.kind.as_str()).collect();
    assert_eq!(
        kinds,
        ["link-down", "session-fsm", "withdraw", "decode", "advertise", "decode", "decision"]
    );
    assert_eq!(p.chain.first().unwrap().at, 160, "fault injected at t=160");
    assert_eq!(p.chain.last().unwrap().at, 240);
}

#[test]
fn fig8_flap_why_selected_shows_the_wiser_inversion() {
    let log = traced_fig8_wiser_flap();
    // After the flap storm heals, source S (AS 20) must be back on the
    // cheap-but-long Wiser exit — preferred by the module over the
    // shorter expensive path, the paper's Figure 1 inversion.
    let w = why_selected(&log, 20, PREFIX).expect("source has a route");
    assert_eq!(w.path, "4002 4001 12 10", "the long cheap exit via A3");
    assert_eq!(w.hops, 4);
    assert_eq!(w.candidates, 2, "the short expensive path is still a candidate");
    assert_eq!(w.why, "module-preference", "Wiser overrode shortest-path");
    assert_eq!(w.at, 560);
    // Rooted at the healing link-up of the flapped gulf link.
    let root = w.provenance.last().unwrap();
    assert_eq!(root.kind, "link-up");
    assert_eq!(root.at, 480);
}

#[test]
fn fig8_flap_timeline_matches_the_chaos_table_totals() {
    let log = traced_fig8_wiser_flap();
    let t = convergence_timeline(&log);
    // Same underlying occurrences results/chaos.json counts for this
    // scenario: 30 delivered messages, 18 best-path changes.
    assert_eq!(t.messages, 30);
    assert_eq!(t.decisions, 18);
    assert_eq!(t.converged_at, 560);
    assert!(t.entries.iter().all(|e| e.root.is_some()));
}

/// A triangle whose 0-2 side is slow, plus a stub, at MRAI 0 (every
/// change is sent from inside the call that caused it): node 2 first
/// hears the prefix the long way round and offers it back to node 0,
/// which drops it as a loop; then a link flap and a node restart.
fn traced_mrai0_triangle() -> TraceLog {
    let mut sim = Sim::new();
    for asn in 1..=4 {
        sim.add_node(DbgpConfig::gulf(asn));
    }
    sim.enable_telemetry(Rc::new(TraceRecorder::unbounded()));
    sim.set_mrai(0);
    for (a, b, delay) in [(0, 1, 10), (1, 2, 10), (0, 2, 50), (2, 3, 10)] {
        sim.link(a, b, delay, false);
    }
    sim.originate(0, PREFIX.parse().unwrap());
    sim.run(1_000);
    sim.fail_link(0, 1);
    sim.run(2_000);
    sim.restore_link(0, 1);
    sim.run(3_000);
    sim.restart_node(1);
    sim.run(4_000);
    sim.withdraw(0, PREFIX.parse().unwrap());
    sim.run(5_000);
    assert_eq!(sim.pending_events(), 0, "quiesces");
    TraceLog::from_recorder(sim.trace_recorder().expect("recorder attached"), "mrai0-triangle")
}

fn sha256_hex(log: &TraceLog) -> String {
    let doc = serde_json::to_string(&log.to_json()).expect("a trace serializes");
    Sha256::digest(doc.as_bytes()).iter().map(|b| format!("{b:02x}")).collect()
}

/// The whole trace — every event, id, parent and timestamp — of three
/// runs, as recorded at the last commit whose speakers wrote `Decision`
/// and `LoopDrop` events themselves. Who records an event must not show
/// in what is recorded.
#[test]
fn traces_are_byte_identical_to_the_in_core_recording() {
    let mrai0 = traced_mrai0_triangle();
    let kinds = |name: &str| mrai0.events.iter().filter(|e| e.kind.name() == name).count();
    assert!(kinds("loop-drop") > 0, "the scenario must exercise a loop drop");
    assert!(kinds("decision") > 0 && kinds("session-fsm") > 0);
    assert_eq!(
        sha256_hex(&traced_fig8_wiser_flap()),
        "b6aa35c865efc6fd7f120f95c3adb73c0d2eb976c26d44d66182bda01c598f0d"
    );
    assert_eq!(
        sha256_hex(&traced_rbgp_diamond_failover()),
        "caa1df2eaeecb9ca8e0461efcc499b81f671a63a35c904f81130b972bc65474e"
    );
    assert_eq!(
        sha256_hex(&mrai0),
        "3cfebd0c98baad23e74aa14c32c3b4b2359c73f14cbb2d9a6a3a8e19fc1b202d"
    );
}
