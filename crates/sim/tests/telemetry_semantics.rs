//! Restart semantics of the telemetry counters (explicit
//! reset-vs-accumulate contract):
//!
//! * engine-wide `SimStats` totals and the registry's `accumulate`
//!   counters keep counting across node restarts;
//! * per-node counters are `reset-on-restart`, dropping to zero with
//!   the node's incarnation recorded in `generation`;
//! * the restart itself is visible on the event bus as a `NodeRestart`
//!   event carrying the new generation.

use dbgp_core::DbgpConfig;
use dbgp_sim::{Sim, SimStats};
use dbgp_telemetry::{TraceKind, TraceRecorder};
use serde_json::Value;
use std::rc::Rc;

fn chain() -> Sim {
    let mut sim = Sim::new();
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    let c = sim.add_node(DbgpConfig::gulf(3));
    sim.link(a, b, 10, false);
    sim.link(b, c, 10, false);
    sim.originate(a, "10.0.0.0/8".parse().unwrap());
    sim.run(1_000_000);
    sim
}

#[test]
fn node_counters_reset_on_restart_while_engine_totals_accumulate() {
    let mut sim = chain();
    let before_node = sim.node_counters(1);
    let before_stats = sim.stats();
    assert!(before_node.messages_in > 0, "the transit node heard updates");
    assert_eq!(before_node.generation, 0);

    sim.restart_node(1);
    // Immediately after the restart the node's counters are zeroed and
    // stamped with the new incarnation...
    let at_restart = sim.node_counters(1);
    assert_eq!(at_restart.generation, 1);
    assert_eq!(at_restart.messages_in, 0);
    assert_eq!(at_restart.best_changes, 0);

    sim.run(2_000_000);
    let after_node = sim.node_counters(1);
    let after_stats = sim.stats();
    // ...then count only post-restart activity, while the engine-wide
    // totals kept accumulating through the restart.
    assert_eq!(after_node.generation, 1);
    assert!(after_node.messages_in > 0, "re-convergence traffic counted");
    assert!(after_node.messages_in < after_stats.messages, "not the all-time total");
    assert!(after_stats.messages > before_stats.messages);
    assert!(after_stats.best_changes >= before_stats.best_changes);
    // Untouched nodes keep their incarnation.
    assert_eq!(sim.node_counters(0).generation, 0);
    assert_eq!(sim.node_counters(2).generation, 0);
}

#[test]
fn snapshot_labels_semantics_and_generations() {
    let mut sim = chain();
    sim.restart_node(1);
    sim.run(2_000_000);
    let snap = sim.metrics_snapshot();

    // Engine counters are published as `accumulate`.
    let counters = snap.get("counters").unwrap().as_array().unwrap();
    assert!(counters
        .iter()
        .all(|c| c.get("semantics").and_then(Value::as_str) == Some("accumulate")));
    let restarts = counters
        .iter()
        .find(|c| c.get("name").and_then(Value::as_str) == Some("sim.node_restarts_total"))
        .expect("restart counter registered");
    assert_eq!(restarts.get("value").and_then(Value::as_u64), Some(1));

    // The registry generation advanced with the restart, and the node
    // rows carry per-node generations and the reset semantics label.
    assert_eq!(snap.get("generation").and_then(Value::as_u64), Some(1));
    let nodes = snap.get("nodes").unwrap().as_array().unwrap();
    let gen = |i: usize| nodes[i].get("generation").and_then(Value::as_u64).unwrap();
    assert_eq!((gen(0), gen(1), gen(2)), (0, 1, 0));
    assert!(nodes
        .iter()
        .all(|n| n.get("semantics").and_then(Value::as_str) == Some("reset-on-restart")));
}

#[test]
fn every_engine_total_reaches_the_snapshot() {
    let mut sim = chain();
    let stats = sim.stats();
    // No `..` on purpose: a new `SimStats` field does not compile here
    // until it is bound, and an unused binding is a warning CI denies —
    // so it has to join `fields`, whose length then disagrees with
    // `totals()` until the field is named there too.
    let SimStats {
        messages,
        bytes,
        oob_requests,
        last_event_at,
        decode_errors,
        orphaned_deliveries,
        dropped_messages,
        duplicated_messages,
        corrupted_messages,
        best_changes,
        updates_encoded,
        encode_cache_hits,
        tails_spliced,
    } = stats;
    let mut fields = [
        messages,
        bytes,
        oob_requests,
        decode_errors,
        orphaned_deliveries,
        dropped_messages,
        duplicated_messages,
        corrupted_messages,
        best_changes,
        updates_encoded,
        encode_cache_hits,
        tails_spliced,
    ];
    let mut totals = stats.totals().map(|(_, value)| value);
    fields.sort_unstable();
    totals.sort_unstable();
    assert_eq!(totals, fields);

    let snap = sim.metrics_snapshot();
    let value_of = |list: &str, name: &str| {
        let items = snap.get(list).and_then(Value::as_array).unwrap();
        let item = items.iter().find(|c| c.get("name").and_then(Value::as_str) == Some(name));
        let item = item.unwrap_or_else(|| panic!("`{name}` is not in the snapshot's {list}"));
        item.get("value").and_then(Value::as_u64)
    };
    for (name, value) in stats.totals() {
        assert_eq!(value_of("counters", name), Some(value), "{name}");
    }
    assert!(stats.totals().iter().any(|(name, _)| *name == "sim.tails_spliced_total"));
    assert_eq!(value_of("gauges", "sim.last_event_at"), Some(last_event_at));
}

#[test]
fn restart_is_a_traced_event_with_the_new_generation() {
    let mut sim = Sim::new();
    let rec = Rc::new(TraceRecorder::unbounded());
    sim.enable_telemetry(rec.clone());
    let a = sim.add_node(DbgpConfig::gulf(1));
    let b = sim.add_node(DbgpConfig::gulf(2));
    sim.link(a, b, 10, false);
    sim.originate(a, "10.0.0.0/8".parse().unwrap());
    sim.run(1_000_000);
    sim.restart_node(b);
    sim.restart_node(b);
    sim.run(2_000_000);

    let restarts: Vec<(u32, u64)> = rec
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::NodeRestart { generation } => Some((e.node, generation)),
            _ => None,
        })
        .collect();
    assert_eq!(restarts, vec![(b as u32, 1), (b as u32, 2)]);
    // Session churn caused by the restart chains back to it.
    let restart_id =
        rec.events().iter().find(|e| matches!(e.kind, TraceKind::NodeRestart { .. })).unwrap().id;
    assert!(rec
        .events()
        .iter()
        .any(|e| e.parent == Some(restart_id) && matches!(e.kind, TraceKind::SessionFsm { .. })));
}
