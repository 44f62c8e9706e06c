//! Convergence measurement.
//!
//! A [`ConvergenceTracker`] measures what one disturbance cost the
//! control plane as a [`ConvergenceWindow`]: how long the network took
//! to quiesce, how many messages that cost, and how much per-prefix
//! route churn it caused.
//!
//! A window is the difference between two readings of the simulator's
//! cumulative [`SimStats`] and per-(node, prefix) churn records
//! ([`Sim::churn`]). Those are maintained whether or not a
//! [`dbgp_telemetry`] recorder is attached, so observing a run does not
//! change how it is measured.
//!
//! The churn reading is a flat vector of change counts in the order
//! [`Sim::churn`] yields them, ascending by `(node, prefix)`. Records
//! are only ever added, so the next reading is a superset of this one in
//! the same order, and a window diffs the two in one merge-join walk.

use dbgp_sim::sim::NodeId;
use dbgp_sim::{Sim, SimStats, SimTime};
use dbgp_wire::Ipv4Prefix;

/// Snapshot-and-diff measurement of one disturbance.
#[derive(Debug, Clone)]
pub struct ConvergenceTracker {
    started_at: SimTime,
    stats: SimStats,
    /// `best_changes` per `(node, prefix)` at the last reading.
    churn: Vec<((NodeId, Ipv4Prefix), u64)>,
}

/// What one disturbance cost the control plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergenceWindow {
    /// Display label (usually the fault's).
    pub label: String,
    /// Simulated time when the window opened.
    pub started_at: SimTime,
    /// Time of the last event processed inside the window.
    pub quiesced_at: SimTime,
    /// `quiesced_at - started_at`: the convergence time. Zero when the
    /// disturbance caused no control-plane activity at all.
    pub convergence_time: SimTime,
    /// Control-plane messages delivered in the window.
    pub messages: u64,
    /// Control-plane bytes delivered in the window.
    pub bytes: u64,
    /// `BestChanged` decisions in the window (total route churn).
    pub best_changes: u64,
    /// Messages lost to lossy link models in the window.
    pub dropped_messages: u64,
    /// Deliveries that failed to decode in the window.
    pub decode_errors: u64,
    /// Distinct `(node, prefix)` pairs whose best route changed.
    pub affected_routes: u64,
    /// The largest per-`(node, prefix)` change count — the flap-damped
    /// worst case.
    pub max_route_churn: u64,
}

impl ConvergenceTracker {
    /// Open a measurement window at the simulator's current state.
    pub fn begin(sim: &Sim) -> Self {
        ConvergenceTracker { started_at: sim.now(), stats: sim.stats(), churn: read_churn(sim) }
    }

    /// Close the window: measure the activity since
    /// [`begin`](ConvergenceTracker::begin) (or the previous
    /// [`window`](ConvergenceTracker::window) call) and re-baseline, so
    /// one tracker can measure a whole sequence of disturbances.
    pub fn window(&mut self, sim: &Sim, label: impl Into<String>) -> ConvergenceWindow {
        let stats = sim.stats();
        // Activity quiesced at the last processed event; a window with
        // no activity has zero width.
        let quiesced_at = stats.last_event_at.max(self.started_at);
        let mut affected_routes = 0u64;
        let mut max_route_churn = 0u64;
        let churn = read_churn(sim);
        let mut before = self.churn.iter().peekable();
        for &(key, changes) in &churn {
            // Both readings ascend by key, and every key of the old one
            // is still in the new one.
            let was = before.next_if(|(k, _)| *k == key).map_or(0, |&(_, c)| c);
            let delta = changes - was;
            if delta > 0 {
                affected_routes += 1;
                max_route_churn = max_route_churn.max(delta);
            }
        }
        debug_assert!(before.next().is_none(), "a churn record disappeared");
        let window = ConvergenceWindow {
            label: label.into(),
            started_at: self.started_at,
            quiesced_at,
            convergence_time: quiesced_at - self.started_at,
            messages: stats.messages - self.stats.messages,
            bytes: stats.bytes - self.stats.bytes,
            best_changes: stats.best_changes - self.stats.best_changes,
            dropped_messages: stats.dropped_messages - self.stats.dropped_messages,
            decode_errors: stats.decode_errors - self.stats.decode_errors,
            affected_routes,
            max_route_churn,
        };
        self.started_at = sim.now();
        self.stats = stats;
        self.churn = churn;
        window
    }
}

/// The simulator's churn records as `((node, prefix), best_changes)`,
/// ascending by key.
fn read_churn(sim: &Sim) -> Vec<((NodeId, Ipv4Prefix), u64)> {
    sim.churn().map(|(key, record)| (key, record.best_changes)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::DbgpConfig;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn windows_report_deltas_not_totals() {
        let mut sim = Sim::new();
        let a = sim.add_node(DbgpConfig::gulf(1));
        let b = sim.add_node(DbgpConfig::gulf(2));
        let c = sim.add_node(DbgpConfig::gulf(3));
        sim.link(a, b, 10, false);
        sim.link(b, c, 10, false);
        sim.originate(a, p("10.0.0.0/8"));
        sim.run(1_000_000);

        let mut tracker = ConvergenceTracker::begin(&sim);
        sim.fail_link(a, b);
        sim.run(2_000_000);
        let w1 = tracker.window(&sim, "down");
        assert!(w1.best_changes >= 2, "b and c lose the route");
        assert!(w1.affected_routes >= 2);
        assert!(w1.convergence_time > 0);

        sim.restore_link(a, b);
        sim.run(3_000_000);
        let w2 = tracker.window(&sim, "up");
        assert!(w2.best_changes >= 2, "b and c re-learn the route");
        assert!(w2.started_at >= w1.quiesced_at, "windows do not overlap");

        // A window with no disturbance measures nothing.
        sim.run(4_000_000);
        let w3 = tracker.window(&sim, "idle");
        assert_eq!(w3.messages, 0);
        assert_eq!(w3.best_changes, 0);
        assert_eq!(w3.convergence_time, 0);
    }

    /// Attaching a recorder does not change a window.
    #[test]
    fn bus_backed_windows_match_stats_diff_windows() {
        let build = |recorder: bool| {
            let mut sim = Sim::new();
            if recorder {
                sim.enable_telemetry(std::rc::Rc::new(dbgp_telemetry::TraceRecorder::unbounded()));
            }
            let a = sim.add_node(DbgpConfig::gulf(1));
            let b = sim.add_node(DbgpConfig::gulf(2));
            let c = sim.add_node(DbgpConfig::gulf(3));
            sim.link(a, b, 10, false);
            sim.link(b, c, 10, false);
            sim.originate(a, p("10.0.0.0/8"));
            sim.run(1_000_000);
            let mut tracker = ConvergenceTracker::begin(&sim);
            let mut windows = Vec::new();
            sim.fail_link(a, b);
            sim.run(2_000_000);
            windows.push(tracker.window(&sim, "down"));
            sim.restore_link(a, b);
            sim.run(3_000_000);
            windows.push(tracker.window(&sim, "up"));
            windows
        };
        let plain = build(false);
        let traced = build(true);
        assert_eq!(plain, traced);
        assert!(traced[0].messages > 0, "the measurement is not vacuous");
    }
}
