//! The outcome classifier: run a gadget's dynamics and label them
//! `converge`, `stable-oscillation`, `livelock`, or `unknown`.
//!
//! Three independent probes feed one [`Observation`]:
//!
//! 1. **Global-FIFO with state-cycle detection**
//!    ([`dbgp_oracle::run_fifo_classified`]) — the primary label. A
//!    recurrent global state is a *proof* of divergence, and the
//!    routing digest inside the cycle separates livelock (best paths
//!    flap forever) from stable oscillation (only message state
//!    churns).
//! 2. **Seeded-random schedule pool** (the PR 5 style `TestRng`
//!    schedules) — how many of N random interleavings quiesce. A
//!    dispute wheel with stable states (DISAGREE) livelocks under the
//!    symmetric FIFO race yet quiesces under almost every random
//!    schedule; the pool records that texture.
//! 3. **The PR 4 schedule explorer** ([`dbgp_oracle::explore`]) —
//!    exhaustive over the first deliveries, with routing invariants
//!    checked at every quiescent end state. For `safe`-predicted rows
//!    the explorer must come back clean.
//!
//! A production-simulator cross-check replays the same gadget on the
//! event-driven engine (uniform delay, MRAI 0 — delivery order equals
//! global send order) and asserts it agrees with the FIFO label; for
//! livelocks, the bounded best-route capture exposes the periodic tail.
//!
//! Gadgets with fault plans (the wedgie) are classified per quiescent
//! phase under a deterministically chosen seeded schedule, and the
//! observation records whether the final routing state differs from
//! the pre-fault one (`wedged`) even though the topology is back to
//! its initial shape.

use crate::gadget::Gadget;
use dbgp_oracle::{
    check_routing_invariants, explore, run_fifo_classified, ExplorerConfig, FifoOutcome, RefNet,
};
use dbgp_sim::BestChange;
use proptest::test_runner::TestRng;

/// The observed stability class of one gadget run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every probe quiesced.
    Converge,
    /// A recurrent global-state cycle with no routing changes inside
    /// it: messages churn forever, best paths do not.
    StableOscillation,
    /// A recurrent global-state cycle in which best paths flap.
    Livelock,
    /// Budget ran out with no proof either way.
    Unknown,
}

impl Outcome {
    /// Stable table label.
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Converge => "converge",
            Outcome::StableOscillation => "stable-oscillation",
            Outcome::Livelock => "livelock",
            Outcome::Unknown => "unknown",
        }
    }
}

/// Classifier budgets.
#[derive(Debug, Clone, Copy)]
pub struct ClassifyConfig {
    /// Delivery budget for the FIFO cycle-detection probe.
    pub fifo_budget: u64,
    /// Seeded-random schedules in the pool sweep.
    pub pool_seeds: u64,
    /// Per-schedule delivery budget in the pool sweep.
    pub pool_budget: u64,
    /// Explorer bounds (exhaustive prefix + random tail schedules).
    pub explorer: ExplorerConfig,
    /// Simulated-time ceiling for the production cross-check.
    pub sim_horizon: u64,
    /// Best-route capture ring size for the production cross-check.
    pub sim_capture: usize,
}

impl ClassifyConfig {
    /// Full budgets — what the committed `results/stability.json` uses.
    pub fn full() -> Self {
        ClassifyConfig {
            fifo_budget: 2_500,
            pool_seeds: 64,
            pool_budget: 2_500,
            explorer: ExplorerConfig {
                branch_depth: 4,
                random_schedules: 64,
                max_deliveries: 2_500,
            },
            sim_horizon: 60_000,
            sim_capture: 256,
        }
    }

    /// Reduced budgets for the CI smoke job. Labels must not change —
    /// only coverage counts do.
    pub fn quick() -> Self {
        ClassifyConfig {
            fifo_budget: 800,
            pool_seeds: 16,
            pool_budget: 800,
            explorer: ExplorerConfig { branch_depth: 3, random_schedules: 16, max_deliveries: 800 },
            sim_horizon: 60_000,
            sim_capture: 128,
        }
    }
}

/// Everything the probes observed about one gadget run.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The primary label.
    pub outcome: Outcome,
    /// FIFO deliveries to quiescence (convergent runs only).
    pub fifo_deliveries: Option<u64>,
    /// Proven state-cycle length in deliveries (divergent runs only).
    pub cycle_length: Option<u64>,
    /// Deliveries before the cycle is entered.
    pub preperiod: Option<u64>,
    /// Routing (Loc-RIB/FIB) changes within one cycle.
    pub routing_changes: Option<u64>,
    /// Seeded-random schedules attempted.
    pub pool_schedules: u64,
    /// How many of them quiesced within budget.
    pub pool_quiesced: u64,
    /// Explorer verdict: `quiesced`, `proven-oscillation`,
    /// `budget-exhausted`, `invariant-violation`, or `skipped`
    /// (fault-plan gadgets).
    pub explorer: &'static str,
    /// Schedules the explorer checked (0 unless `quiesced`).
    pub explorer_schedules: u64,
    /// Fault-plan gadgets: does the final routing state differ from
    /// the pre-fault one although the topology is restored?
    pub wedged: Option<bool>,
    /// Production simulator agreement with the FIFO label.
    pub sim_agrees: Option<bool>,
    /// Period of the production best-route capture tail (livelocks).
    pub sim_tail_period: Option<u64>,
}

/// Deliver frames in a seeded-random order until quiescence or budget.
/// Returns `Some(deliveries)` on quiescence.
fn random_run(net: &mut RefNet, rng: &mut TestRng, budget: u64) -> Option<u64> {
    let mut delivered = 0u64;
    while net.pending() > 0 {
        if delivered >= budget {
            return None;
        }
        let links = net.deliverable();
        let (from, to) = links[rng.below(links.len() as u64) as usize];
        net.deliver_from(from, to);
        delivered += 1;
    }
    Some(delivered)
}

/// Smallest period of the capture tail: the last `2p` records must
/// repeat with shift `p` in `(node, prefix, installed, next)` —
/// timestamps advance, the flap pattern does not.
pub fn capture_tail_period(records: &[BestChange]) -> Option<u64> {
    let eq = |a: &BestChange, b: &BestChange| {
        a.node == b.node && a.prefix == b.prefix && a.installed == b.installed && a.next == b.next
    };
    for p in 1..=records.len() / 2 {
        let tail = &records[records.len() - 2 * p..];
        if (0..p).all(|i| eq(&tail[i], &tail[i + p])) {
            return Some(p as u64);
        }
    }
    None
}

fn pool_sweep(base: &RefNet, cfg: &ClassifyConfig) -> (u64, u64) {
    let mut quiesced = 0u64;
    for seed in 0..cfg.pool_seeds {
        let mut net = base.clone();
        let mut rng = TestRng::for_case("stability-pool", seed);
        if random_run(&mut net, &mut rng, cfg.pool_budget).is_some() {
            quiesced += 1;
        }
    }
    (cfg.pool_seeds, quiesced)
}

/// Classify a gadget with a fault plan: every phase (the initial
/// bring-up and each fault) runs to quiescence under the global-FIFO
/// schedule, and the observation records whether the final routing
/// state differs from the pre-fault one (`wedged`). A fault-pair plan
/// restores the topology exactly, so a wedge is pure hysteresis. The
/// production simulator replays the identical phase sequence and must
/// agree on quiescence.
fn classify_faulted(g: &Gadget, cfg: &ClassifyConfig) -> Observation {
    let base = g.build_ref();
    let (pool_schedules, pool_quiesced) = pool_sweep(&base, cfg);

    let mut net = base;
    let mut outcome = Outcome::Converge;
    let mut fifo_total = 0u64;
    let mut cycle = (None, None, None);
    let mut phases_done = 0usize;
    let mut before = String::new();
    for phase in 0..=g.scenario.faults.len() {
        if phase > 0 {
            g.apply_fault_ref(&mut net, &g.scenario.faults[phase - 1]);
        }
        match run_fifo_classified(&mut net, cfg.fifo_budget) {
            FifoOutcome::Quiesced { deliveries } => fifo_total += deliveries,
            FifoOutcome::Oscillation { preperiod, period, routing_changes } => {
                outcome = if routing_changes > 0 {
                    Outcome::Livelock
                } else {
                    Outcome::StableOscillation
                };
                cycle = (Some(period), Some(preperiod), Some(routing_changes));
                break;
            }
            FifoOutcome::BudgetExhausted { .. } => {
                outcome = Outcome::Unknown;
                break;
            }
        }
        phases_done = phase + 1;
        if phase == 0 {
            before = net.routing_digest();
        }
    }
    let all_phases = phases_done == g.scenario.faults.len() + 1;
    let wedged = if all_phases && outcome == Outcome::Converge {
        Some(net.routing_digest() != before)
    } else {
        None
    };

    // Production replay of the same phase sequence.
    let mut sim = g.build_sim();
    let mut horizon = cfg.sim_horizon;
    sim.run(horizon);
    let mut sim_quiesced = sim.pending_events() == 0;
    for fault in &g.scenario.faults {
        g.apply_fault_sim(&mut sim, fault);
        horizon += cfg.sim_horizon;
        sim.run(horizon);
        sim_quiesced &= sim.pending_events() == 0;
    }
    let sim_agrees = match outcome {
        Outcome::Converge => Some(sim_quiesced),
        Outcome::Livelock | Outcome::StableOscillation => Some(!sim_quiesced),
        Outcome::Unknown => None,
    };

    Observation {
        outcome,
        fifo_deliveries: if all_phases && outcome == Outcome::Converge {
            Some(fifo_total)
        } else {
            None
        },
        cycle_length: cycle.0,
        preperiod: cycle.1,
        routing_changes: cycle.2,
        pool_schedules,
        pool_quiesced,
        explorer: "skipped",
        explorer_schedules: 0,
        wedged,
        sim_agrees,
        sim_tail_period: None,
    }
}

/// Run every probe on one gadget and fold the results.
pub fn classify(g: &Gadget, cfg: &ClassifyConfig) -> Observation {
    if !g.scenario.faults.is_empty() {
        return classify_faulted(g, cfg);
    }

    let base = g.build_ref();

    // Probe 1: global FIFO with sound state-cycle detection.
    let mut fifo_net = base.clone();
    let fifo = run_fifo_classified(&mut fifo_net, cfg.fifo_budget);
    let (outcome, fifo_deliveries, cycle_length, preperiod, routing_changes) = match fifo {
        FifoOutcome::Quiesced { deliveries } => {
            (Outcome::Converge, Some(deliveries), None, None, None)
        }
        FifoOutcome::Oscillation { preperiod, period, routing_changes } => {
            let outcome =
                if routing_changes > 0 { Outcome::Livelock } else { Outcome::StableOscillation };
            (outcome, None, Some(period), Some(preperiod), Some(routing_changes))
        }
        FifoOutcome::BudgetExhausted { .. } => (Outcome::Unknown, None, None, None, None),
    };

    // Probe 2: the seeded-random schedule pool.
    let (pool_schedules, pool_quiesced) = pool_sweep(&base, cfg);

    // Probe 3: the schedule explorer with routing invariants.
    let origins = &g.scenario.originations;
    let (explorer, explorer_schedules) =
        match explore(&base, &cfg.explorer, &|net| check_routing_invariants(net, origins)) {
            Ok(report) => ("quiesced", report.schedules),
            Err(e) if e.contains("proven oscillation") => ("proven-oscillation", 0),
            Err(e) if e.contains("budget exhausted") => ("budget-exhausted", 0),
            Err(_) => ("invariant-violation", 0),
        };

    // Cross-check: the production simulator on the same gadget. With
    // uniform delay and MRAI 0 its delivery order equals global send
    // order, so it must agree with the FIFO label.
    let mut sim = g.build_sim();
    sim.capture_best_changes(cfg.sim_capture);
    sim.run(cfg.sim_horizon);
    let sim_quiesced = sim.pending_events() == 0;
    let (sim_agrees, sim_tail_period) = match outcome {
        Outcome::Converge => ((Some(sim_quiesced)), None),
        Outcome::Livelock | Outcome::StableOscillation => {
            let tail =
                if sim_quiesced { None } else { capture_tail_period(&sim.captured_changes()) };
            (Some(!sim_quiesced), tail)
        }
        Outcome::Unknown => (None, None),
    };

    Observation {
        outcome,
        fifo_deliveries,
        cycle_length,
        preperiod,
        routing_changes,
        pool_schedules,
        pool_quiesced,
        explorer,
        explorer_schedules,
        wedged: None,
        sim_agrees,
        sim_tail_period,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gadget::{bad_gadget, disagree, good_gadget, wedgie};

    fn cfg() -> ClassifyConfig {
        ClassifyConfig::quick()
    }

    #[test]
    fn good_gadget_converges_everywhere() {
        let obs = classify(&good_gadget("ranked"), &cfg());
        assert_eq!(obs.outcome, Outcome::Converge);
        assert_eq!(obs.pool_quiesced, obs.pool_schedules);
        assert_eq!(obs.explorer, "quiesced");
        assert_eq!(obs.sim_agrees, Some(true));
    }

    #[test]
    fn bad_gadget_livelocks_with_a_proven_cycle() {
        let obs = classify(&bad_gadget("ranked"), &cfg());
        assert_eq!(obs.outcome, Outcome::Livelock);
        assert!(obs.cycle_length.unwrap() > 0);
        assert!(obs.routing_changes.unwrap() > 0);
        assert_eq!(obs.pool_quiesced, 0, "no schedule stabilizes BAD-GADGET");
        assert_eq!(obs.explorer, "proven-oscillation");
        assert_eq!(obs.sim_agrees, Some(true), "production engine flaps forever too");
        assert!(obs.sim_tail_period.is_some(), "capture tail is periodic");
    }

    #[test]
    fn disagree_livelocks_under_fifo_but_random_schedules_settle() {
        let obs = classify(&disagree("ranked"), &cfg());
        assert_eq!(obs.outcome, Outcome::Livelock, "the symmetric FIFO race recurs");
        assert!(obs.pool_quiesced > 0, "random schedules break the symmetry");
    }

    #[test]
    fn wedgie_converges_per_phase_and_latches() {
        let obs = classify(&wedgie(), &cfg());
        assert_eq!(obs.outcome, Outcome::Converge);
        assert_eq!(obs.wedged, Some(true), "flap returns topology, not routing");
    }
}
