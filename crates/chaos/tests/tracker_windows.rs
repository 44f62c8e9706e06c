//! The convergence tracker's merge-join churn diff against the naive
//! one: on a churning 50-AS Waxman world, every window `ScenarioRunner`
//! reports must count the same affected routes and the same worst
//! per-route churn as two `BTreeMap` readings of `Sim::churn()` taken
//! around the same fault and diffed key by key.

use dbgp_chaos::scenario::sim_from_graph;
use dbgp_chaos::{ConvergenceTracker, FaultPlan, ScenarioRunner};
use dbgp_sim::sim::{NodeId, PrefixChurn};
use dbgp_sim::Sim;
use dbgp_topology::fixtures::waxman_50;
use dbgp_wire::Ipv4Prefix;
use std::collections::BTreeMap;

fn prefix_of(node: NodeId) -> Ipv4Prefix {
    format!("10.{}.{}.0/24", node >> 8, node & 0xff).parse().unwrap()
}

/// Every node originates its own /24, as in the churn benchmark.
fn converged_world() -> Sim {
    let graph = waxman_50(42);
    let mut sim = sim_from_graph(&graph, 10);
    for node in 0..sim.node_count() {
        sim.originate(node, prefix_of(node));
    }
    sim.run(1_000_000);
    sim
}

/// `affected_routes`, `max_route_churn` and `best_changes` of the window
/// between two readings, diffed key by key.
fn naive_window(
    before: &BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn>,
    after: &BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn>,
) -> (u64, u64, u64) {
    let deltas: Vec<u64> = after
        .iter()
        .map(|(key, c)| c.best_changes - before.get(key).map_or(0, |b| b.best_changes))
        .filter(|&d| d > 0)
        .collect();
    (deltas.len() as u64, deltas.iter().copied().max().unwrap_or(0), deltas.iter().sum())
}

/// Two flaps of one link with a node restart between them.
fn plan(sim: &Sim) -> FaultPlan {
    let (a, b, _) = sim.links().nth(7).expect("a link");
    FaultPlan::new()
        .link_flap(a, b, 2_000_000, 2_000_400)
        .node_restart(17, 2_001_000)
        .link_flap(a, b, 2_003_000, 2_003_050)
}

fn read(sim: &Sim) -> BTreeMap<(NodeId, Ipv4Prefix), PrefixChurn> {
    sim.churn().collect()
}

#[test]
fn tracker_windows_match_a_naive_diff_of_churn_maps() {
    let mut sim = converged_world();
    let plan = plan(&sim);
    let report = ScenarioRunner::new(5_000_000).run(&mut sim, &plan);
    assert!(report.quiesced);

    // The same run again, read around each fault the slow way: the
    // runner's stepping, with a whole-map diff per window.
    let mut naive = converged_world();
    let faults = plan.sorted();
    assert_eq!(report.records.len(), faults.len());
    let mut affected_total = 0;
    for (i, timed) in faults.iter().enumerate() {
        naive.run(timed.at);
        let before = read(&naive);
        ScenarioRunner::apply(&mut naive, timed.fault);
        naive.run(faults.get(i + 1).map_or(timed.at + 5_000_000, |next| next.at));
        let (affected, max, changes) = naive_window(&before, &read(&naive));
        let window = &report.records[i].window;
        assert_eq!(window.affected_routes, affected, "{}", window.label);
        assert_eq!(window.max_route_churn, max, "{}", window.label);
        assert_eq!(window.best_changes, changes, "{}", window.label);
        affected_total += affected;
    }
    assert!(affected_total > 0, "the faults churned routes");
    assert!(read(&naive).len() >= 2_500, "every node holds a record per prefix");
    assert_eq!(read(&naive), read(&sim), "the two runs are the same run");
}

/// Records that first appear inside a window (a prefix a node never had
/// a route for) count from zero, wherever they fall among the old keys.
#[test]
fn records_born_inside_a_window_count_from_zero() {
    let graph = waxman_50(42);
    let mut sim = sim_from_graph(&graph, 10);
    // Every third node originates first; the rest join inside the
    // window, so new keys interleave with old ones at every node.
    for node in (0..sim.node_count()).step_by(3) {
        sim.originate(node, prefix_of(node));
    }
    sim.run(1_000_000);
    let before = read(&sim);
    let mut tracker = ConvergenceTracker::begin(&sim);
    for node in (0..sim.node_count()).filter(|n| n % 3 != 0) {
        sim.originate(node, prefix_of(node));
    }
    sim.run(2_000_000);
    let after = read(&sim);
    assert!(after.len() > before.len(), "the window adds records");
    let window = tracker.window(&sim, "join");
    let (affected, max, changes) = naive_window(&before, &after);
    assert_eq!((window.affected_routes, window.max_route_churn), (affected, max));
    assert_eq!(window.best_changes, changes);
}
