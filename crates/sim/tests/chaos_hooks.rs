//! Tests for the fault-injection substrate the `dbgp-chaos` crate sits
//! on: link restore, node restart, lossy link models, the run-horizon
//! contract, and the stats counters that replaced silently swallowed
//! events.

use dbgp_core::DbgpConfig;
use dbgp_sim::{LinkModel, Sim};
use dbgp_wire::Ipv4Prefix;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

/// A square: origin o, two transit nodes a (short path) and b (long
/// path), sink s. After `fail_link(o, a)` the sink must re-route via b;
/// after `restore_link(o, a)` it must come back to a.
fn square() -> (Sim, usize, usize, usize, usize) {
    let mut sim = Sim::new();
    let o = sim.add_node(DbgpConfig::gulf(1));
    let a = sim.add_node(DbgpConfig::gulf(2));
    let b = sim.add_node(DbgpConfig::gulf(3));
    let s = sim.add_node(DbgpConfig::gulf(4));
    sim.link(o, a, 10, false);
    sim.link(o, b, 10, false);
    sim.link(a, s, 10, false);
    sim.link(b, s, 10, false);
    sim.originate(o, p("128.6.0.0/16"));
    (sim, o, a, b, s)
}

#[test]
fn restore_link_reconverges_to_primary() {
    let (mut sim, o, a, b, s) = square();
    sim.run(1_000_000);
    // Shortest-path tie broken deterministically; record the winner.
    let primary = sim.fib(s).get(&p("128.6.0.0/16")).copied().flatten().unwrap();
    assert!(primary == a || primary == b);
    let (via, other) = if primary == a { (a, b) } else { (b, a) };

    sim.fail_link(via, s);
    sim.run(2_000_000);
    assert_eq!(
        sim.fib(s).get(&p("128.6.0.0/16")).copied().flatten(),
        Some(other),
        "sink fails over to the surviving transit"
    );

    sim.restore_link(via, s);
    sim.run(3_000_000);
    assert_eq!(
        sim.fib(s).get(&p("128.6.0.0/16")).copied().flatten(),
        Some(primary),
        "after repair the sink returns to its original best path"
    );
    assert!(sim.link_is_up(via, s));
    let _ = o;
}

#[test]
fn fail_and_restore_are_idempotent() {
    let (mut sim, o, a, _b, _s) = square();
    sim.run(1_000_000);
    let stats_before = sim.stats();
    // Double-fail and double-restore must not wedge or double-announce.
    sim.fail_link(o, a);
    sim.fail_link(o, a);
    sim.run(2_000_000);
    sim.restore_link(o, a);
    sim.restore_link(o, a);
    sim.run(3_000_000);
    assert!(sim.link_is_up(o, a));
    assert!(sim.stats().messages > stats_before.messages);
    // Restoring a link that was never failed is a no-op.
    let quiesced = sim.stats();
    sim.restore_link(o, a);
    sim.run(4_000_000);
    assert_eq!(sim.stats(), quiesced);
}

#[test]
fn restart_node_resets_sessions_and_reconverges() {
    let (mut sim, o, a, b, s) = square();
    sim.run(1_000_000);
    let fib_before = sim.fib(s);
    let messages_before = sim.stats().messages;

    // Restart a transit node: all four FIBs must be intact afterwards
    // and the full-table re-transfer must have generated traffic.
    sim.restart_node(a);
    sim.run(2_000_000);
    assert_eq!(sim.fib(s), fib_before, "sink's route survives the restart");
    assert!(sim.stats().messages > messages_before, "restart triggers a full-table re-transfer");
    for node in [o, a, b, s] {
        if node != o {
            assert!(
                sim.speaker(node).best(&p("128.6.0.0/16")).is_some(),
                "node {node} re-learns the prefix"
            );
        }
    }
}

#[test]
fn decode_errors_are_counted_not_swallowed() {
    let mut sim = Sim::new();
    let x = sim.add_node(DbgpConfig::gulf(1));
    let y = sim.add_node(DbgpConfig::gulf(2));
    sim.link(x, y, 10, false);
    sim.run(1_000);
    assert_eq!(sim.stats().decode_errors, 0);
    sim.inject_raw(x, y, 5, vec![0xde, 0xad, 0xbe, 0xef]);
    let stats = sim.run(10_000);
    assert_eq!(stats.decode_errors, 1, "garbage bytes are counted");
    assert_eq!(stats.orphaned_deliveries, 0);
}

#[test]
fn orphaned_deliveries_are_counted() {
    let mut sim = Sim::new();
    let x = sim.add_node(DbgpConfig::gulf(1));
    let y = sim.add_node(DbgpConfig::gulf(2));
    let z = sim.add_node(DbgpConfig::gulf(3));
    sim.link(x, y, 10, false);
    sim.run(1_000);
    // z was never linked to y, so a (well-formed) message claiming to
    // come from z has no adjacency at y.
    let update = dbgp_core::DbgpUpdate::withdraw(p("10.0.0.0/8"));
    sim.inject_raw(z, y, 5, update.encode().to_vec());
    let stats = sim.run(10_000);
    assert_eq!(stats.orphaned_deliveries, 1);
    assert_eq!(stats.decode_errors, 0);
}

#[test]
fn run_horizon_is_inclusive_and_preserves_later_events() {
    let mut sim = Sim::new();
    let x = sim.add_node(DbgpConfig::gulf(1));
    let y = sim.add_node(DbgpConfig::gulf(2));
    sim.link(x, y, 10, false);
    sim.run(1_000);
    let update = dbgp_core::DbgpUpdate::withdraw(p("10.0.0.0/8"));
    // One delivery at exactly the horizon, one just beyond it.
    let now = sim.now();
    sim.inject_raw(x, y, 100, update.encode().to_vec());
    sim.inject_raw(x, y, 101, update.encode().to_vec());
    let horizon = now + 100;
    let stats = sim.run(horizon);
    assert_eq!(stats.last_event_at, horizon, "event at the horizon is processed");
    assert_eq!(sim.pending_events(), 1, "event beyond the horizon stays queued");
    assert!(sim.now() <= horizon, "clock never runs past the horizon");
    let stats = sim.run(horizon + 10);
    assert_eq!(stats.last_event_at, horizon + 1, "a later run picks it up");
    assert_eq!(sim.pending_events(), 0);
}

#[test]
fn lossy_link_drops_messages_and_flap_resyncs() {
    // 100% loss on the o-a link while a prefix is originated: a learns
    // nothing. A flap (session reset + full-table transfer over the
    // now-reliable link) resynchronizes — the control plane has no
    // retransmission, so this is how chaos scenarios must heal loss.
    let mut sim = Sim::new();
    sim.set_seed(7);
    let o = sim.add_node(DbgpConfig::gulf(1));
    let a = sim.add_node(DbgpConfig::gulf(2));
    sim.link(o, a, 10, false);
    sim.run(1_000);
    sim.set_link_model(o, a, LinkModel::reliable().loss_ppm(1_000_000));
    sim.originate(o, p("128.6.0.0/16"));
    let stats = sim.run(100_000);
    assert!(stats.dropped_messages >= 1);
    assert!(sim.speaker(a).best(&p("128.6.0.0/16")).is_none(), "announcement was lost");

    sim.set_link_model(o, a, LinkModel::reliable());
    sim.fail_link(o, a);
    sim.run(200_000);
    sim.restore_link(o, a);
    sim.run(300_000);
    assert!(
        sim.speaker(a).best(&p("128.6.0.0/16")).is_some(),
        "flap over the healed link resynchronizes the table"
    );
}

#[test]
fn duplication_and_jitter_do_not_change_final_state() {
    // Same topology run twice: once reliable, once with heavy
    // duplication + jitter. D-BGP processing is idempotent per IA, so
    // final routing state must match (message counts will not).
    let build = |model: Option<LinkModel>| {
        let mut sim = Sim::new();
        sim.set_seed(42);
        let nodes: Vec<_> = (1..=4).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
        for w in nodes.windows(2) {
            sim.link(w[0], w[1], 10, false);
        }
        if let Some(m) = model {
            for w in nodes.windows(2) {
                sim.set_link_model(w[0], w[1], m);
            }
        }
        sim.originate(nodes[0], p("128.6.0.0/16"));
        sim.run(10_000_000);
        (sim, nodes)
    };
    let (clean, nodes) = build(None);
    let noisy_model = LinkModel::reliable().duplicate_ppm(500_000).jitter(17);
    let (noisy, _) = build(Some(noisy_model));
    assert!(noisy.stats().duplicated_messages > 0, "duplication actually fired");
    for &n in &nodes {
        assert_eq!(clean.fib(n), noisy.fib(n), "final FIB at node {n} unchanged");
    }
}

#[test]
fn corruption_is_counted_and_survivable() {
    let mut sim = Sim::new();
    sim.set_seed(3);
    let o = sim.add_node(DbgpConfig::gulf(1));
    let a = sim.add_node(DbgpConfig::gulf(2));
    sim.link(o, a, 10, false);
    sim.run(1_000);
    sim.set_link_model(o, a, LinkModel::reliable().corrupt_ppm(1_000_000));
    sim.originate(o, p("128.6.0.0/16"));
    let stats = sim.run(100_000);
    assert!(stats.corrupted_messages >= 1);
    // A corrupted frame either fails to decode (counted) or decodes to
    // something the speaker handles; it must never crash the sim.
    assert_eq!(
        stats.corrupted_messages,
        stats.decode_errors + (stats.corrupted_messages - stats.decode_errors)
    );
}

#[test]
fn same_seed_same_trace() {
    let run_once = |seed: u64| {
        let mut sim = Sim::new();
        sim.set_seed(seed);
        let nodes: Vec<_> = (1..=5).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
        for w in nodes.windows(2) {
            sim.link(w[0], w[1], 7, false);
        }
        sim.link(nodes[0], nodes[4], 9, false);
        for w in nodes.windows(2) {
            sim.set_link_model(
                w[0],
                w[1],
                LinkModel::reliable().loss_ppm(100_000).jitter(5).duplicate_ppm(50_000),
            );
        }
        sim.originate(nodes[0], p("128.6.0.0/16"));
        sim.run(500_000);
        sim.fail_link(nodes[0], nodes[1]);
        sim.run(1_000_000);
        sim.restore_link(nodes[0], nodes[1]);
        sim.run(2_000_000);
        let fibs: Vec<_> = nodes.iter().map(|&n| sim.fib(n)).collect();
        (sim.stats(), fibs)
    };
    assert_eq!(run_once(11), run_once(11), "identical seed => identical run");
    let (stats_a, _) = run_once(11);
    let (stats_b, _) = run_once(12);
    assert_ne!(
        (stats_a.dropped_messages, stats_a.messages),
        (stats_b.dropped_messages, stats_b.messages),
        "different seed perturbs differently"
    );
}

#[test]
fn churn_records_best_changes_per_prefix() {
    let (mut sim, o, _a, _b, s) = square();
    sim.run(1_000_000);
    let key = (s, p("128.6.0.0/16"));
    let before = sim.churn_of(key.0, key.1).unwrap();
    assert!(before.best_changes >= 1);
    assert_eq!(sim.stats().best_changes, sim.churn().map(|(_, c)| c.best_changes).sum());
    // A withdraw + re-originate cycle adds churn at the sink.
    sim.withdraw(o, p("128.6.0.0/16"));
    sim.run(2_000_000);
    sim.originate(o, p("128.6.0.0/16"));
    sim.run(3_000_000);
    let after = sim.churn_of(key.0, key.1).unwrap();
    assert!(after.best_changes >= before.best_changes + 2);
    assert!(after.last_change_at > before.last_change_at);
}
