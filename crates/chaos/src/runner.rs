//! Scenario execution: replay a [`FaultPlan`] against a simulation,
//! measuring a [`ConvergenceWindow`] per fault.

use crate::plan::{Fault, FaultPlan};
use crate::tracker::{ConvergenceTracker, ConvergenceWindow};
use dbgp_sim::{Sim, SimStats, SimTime};

/// One executed fault and what it cost.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// When the fault was scheduled.
    pub at: SimTime,
    /// The fault.
    pub fault: Fault,
    /// The convergence window that followed it (up to the next fault
    /// or the settle horizon, whichever came first).
    pub window: ConvergenceWindow,
}

/// The outcome of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Per-fault records, in injection order.
    pub records: Vec<FaultRecord>,
    /// Cumulative simulator statistics at the end.
    pub final_stats: SimStats,
    /// Simulated time when the run finished.
    pub finished_at: SimTime,
    /// True when no events remained — the network truly quiesced
    /// within the settle horizon.
    pub quiesced: bool,
}

impl ScenarioReport {
    /// The worst per-fault convergence time observed.
    pub fn max_convergence_time(&self) -> SimTime {
        self.records.iter().map(|r| r.window.convergence_time).max().unwrap_or(0)
    }

    /// Total route churn (`BestChanged` decisions) across all faults.
    pub fn total_best_changes(&self) -> u64 {
        self.records.iter().map(|r| r.window.best_changes).sum()
    }
}

/// Replays fault plans deterministically.
///
/// Execution model: faults are applied in schedule order. Before each
/// fault the simulation runs up to the fault's timestamp; after the
/// last fault it runs for `settle` more simulated time. Each fault's
/// convergence window closes at the next fault's timestamp (faults may
/// deliberately overlap a previous fault's convergence — that is what
/// flap damping experiments need) or at the settle horizon.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioRunner {
    /// Extra simulated time after the last fault for the network to
    /// quiesce.
    pub settle: SimTime,
}

impl Default for ScenarioRunner {
    fn default() -> Self {
        // Generous relative to MRAI (30) and typical link delays (10):
        // any scenario that has not quiesced after this is oscillating.
        ScenarioRunner { settle: 10_000_000 }
    }
}

impl ScenarioRunner {
    /// A runner with an explicit settle horizon.
    pub fn new(settle: SimTime) -> Self {
        ScenarioRunner { settle }
    }

    /// Apply one fault to the simulation immediately.
    pub fn apply(sim: &mut Sim, fault: Fault) {
        match fault {
            Fault::LinkDown { a, b } => sim.fail_link(a, b),
            Fault::LinkUp { a, b } => sim.restore_link(a, b),
            Fault::SetLinkModel { a, b, model } => sim.set_link_model(a, b, model),
            Fault::NodeRestart { node } => sim.restart_node(node),
        }
    }

    /// Run the plan to completion.
    pub fn run(&self, sim: &mut Sim, plan: &FaultPlan) -> ScenarioReport {
        let faults = plan.sorted();
        let mut records = Vec::with_capacity(faults.len());
        for (i, timed) in faults.iter().enumerate() {
            sim.run(timed.at);
            let mut tracker = ConvergenceTracker::begin(sim);
            Self::apply(sim, timed.fault);
            let horizon = match faults.get(i + 1) {
                Some(next) => next.at,
                None => timed.at + self.settle,
            };
            sim.run(horizon);
            let window = tracker.window(sim, timed.fault.label());
            records.push(FaultRecord { at: timed.at, fault: timed.fault, window });
        }
        let finished_at = sim.now();
        ScenarioReport {
            records,
            final_stats: sim.stats(),
            finished_at,
            quiesced: sim.pending_events() == 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgp_core::DbgpConfig;
    use dbgp_wire::Ipv4Prefix;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn flap_plan_converges_back_to_the_original_route() {
        let mut sim = Sim::new();
        let nodes: Vec<_> = (1..=3).map(|asn| sim.add_node(DbgpConfig::gulf(asn))).collect();
        sim.link(nodes[0], nodes[1], 10, false);
        sim.link(nodes[1], nodes[2], 10, false);
        sim.originate(nodes[0], p("10.0.0.0/8"));
        sim.run(1_000_000);
        let fib_before = sim.fib(nodes[2]);

        let plan = FaultPlan::new().link_flap(nodes[0], nodes[1], 2_000_000, 2_500_000);
        let report = ScenarioRunner::default().run(&mut sim, &plan);

        assert_eq!(report.records.len(), 2);
        assert!(report.quiesced, "flap scenario must quiesce");
        assert_eq!(report.records[0].window.label, "link-down 0-1");
        assert!(report.records[0].window.best_changes >= 2, "down wave reached both nodes");
        assert!(report.records[1].window.best_changes >= 2, "up wave restored both nodes");
        assert_eq!(sim.fib(nodes[2]), fib_before, "route restored after the flap");
        assert!(report.max_convergence_time() > 0);
    }

    #[test]
    fn windows_close_at_the_next_fault() {
        let mut sim = Sim::new();
        let a = sim.add_node(DbgpConfig::gulf(1));
        let b = sim.add_node(DbgpConfig::gulf(2));
        sim.link(a, b, 10, false);
        sim.originate(a, p("10.0.0.0/8"));
        sim.run(1_000_000);
        // Two faults 100 apart: the first window must not extend past
        // the second fault's injection time.
        let plan = FaultPlan::new().link_flap(a, b, 2_000_000, 2_000_100);
        let report = ScenarioRunner::new(5_000).run(&mut sim, &plan);
        assert!(report.records[0].window.quiesced_at <= 2_000_100);
    }
}
