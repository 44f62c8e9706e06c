//! The schedule explorer: model-checking event-delivery orderings on
//! small topologies.
//!
//! The simulator delivers frames in one fixed order; real networks do
//! not. The explorer takes a [`RefNet`] with pending frames and walks
//! the tree of delivery schedules: at each step any directed link with
//! a queued frame may deliver its head frame next (per-link FIFO is
//! preserved — that is what a reliable transport guarantees — but
//! cross-link interleaving is unconstrained). The first
//! `branch_depth` deliveries are explored exhaustively by DFS; each
//! leaf then continues with the deterministic global-FIFO schedule to
//! quiescence. A batch of seeded-random full schedules covers
//! interleavings beyond the exhaustive bound. Every explored schedule
//! must quiesce within `max_deliveries` (the stability invariant) and
//! pass the caller's invariant check at quiescence.

use crate::reference::RefNet;
use dbgp_wire::Ipv4Prefix;
use proptest::test_runner::TestRng;
use std::collections::{BTreeSet, HashMap};

/// Exploration bounds.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerConfig {
    /// Deliveries branched exhaustively before falling back to FIFO.
    pub branch_depth: usize,
    /// Additional seeded-random full schedules.
    pub random_schedules: u64,
    /// Per-schedule delivery budget (stability invariant).
    pub max_deliveries: u64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig { branch_depth: 4, random_schedules: 64, max_deliveries: 10_000 }
    }
}

/// The classified result of a global-FIFO run with global-state cycle
/// detection — the general mechanism behind the stability suite's
/// converge / stable-oscillation / livelock labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FifoOutcome {
    /// Every queue drained: the run converged.
    Quiesced {
        /// Deliveries needed to quiesce.
        deliveries: u64,
    },
    /// The global state (speakers, FIBs, links, in-flight frames in
    /// relative order) recurred: the FIFO continuation repeats this
    /// cycle forever — a *proof* of divergence, not a timeout.
    Oscillation {
        /// Deliveries before the recurrent cycle is entered.
        preperiod: u64,
        /// Cycle length in deliveries.
        period: u64,
        /// Steps within one cycle where some Loc-RIB/FIB changed:
        /// `> 0` is a livelock (best paths flap forever), `0` a
        /// stable oscillation (only message state churns).
        routing_changes: u64,
    },
    /// Budget ran out before quiescence or a state recurrence:
    /// inconclusive, *not* a proven oscillation.
    BudgetExhausted {
        /// The delivery budget that was exhausted.
        deliveries: u64,
    },
}

/// Run `net` in global-FIFO order with full-state cycle detection.
///
/// Sound, not probabilistic: recurrence is decided on the complete
/// canonical state rendering ([`RefNet::state_digest`]), never on a
/// hash. Because delivery is a deterministic function of that quotient
/// state, a repeated digest proves the continuation cycles forever.
pub fn run_fifo_classified(net: &mut RefNet, max_deliveries: u64) -> FifoOutcome {
    let mut seen: HashMap<String, u64> = HashMap::new();
    let mut routing = vec![net.routing_digest()];
    seen.insert(net.state_digest(), 0);
    let mut step = 0u64;
    while net.pending() > 0 {
        if step >= max_deliveries {
            return FifoOutcome::BudgetExhausted { deliveries: step };
        }
        net.deliver_next_fifo();
        step += 1;
        routing.push(net.routing_digest());
        let digest = net.state_digest();
        if let Some(&first) = seen.get(&digest) {
            let period = step - first;
            let routing_changes = (first..step)
                .filter(|&i| routing[i as usize + 1] != routing[i as usize])
                .count() as u64;
            return FifoOutcome::Oscillation { preperiod: first, period, routing_changes };
        }
        seen.insert(digest, step);
    }
    FifoOutcome::Quiesced { deliveries: step }
}

/// Explain a schedule that hit its delivery budget: probe the FIFO
/// continuation from the stuck state and say whether divergence is
/// *proven* (recurrent state cycle) or the budget was simply too small.
fn classify_stuck(net: &RefNet, budget: u64) -> String {
    let mut probe = net.clone();
    match run_fifo_classified(&mut probe, budget) {
        FifoOutcome::Oscillation { preperiod, period, .. } => format!(
            "proven oscillation: the FIFO continuation enters a recurrent \
             global-state cycle of length {period} after {preperiod} further deliveries"
        ),
        FifoOutcome::Quiesced { deliveries } => format!(
            "budget exhausted: the FIFO continuation quiesces after {deliveries} \
             further deliveries, so the budget was too small for this schedule"
        ),
        FifoOutcome::BudgetExhausted { deliveries } => format!(
            "budget exhausted: no quiescence or state recurrence within \
             {deliveries} further FIFO deliveries (inconclusive)"
        ),
    }
}

/// What an exploration covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExplorerReport {
    /// Quiescent schedules checked (exhaustive prefix leaves + random).
    pub schedules: u64,
    /// The largest delivery count any schedule needed to quiesce.
    pub longest_schedule: u64,
}

/// Explore delivery schedules of `base` and run `check` at every
/// quiescent end state. Returns the coverage report, or the first
/// invariant violation (with the delivery schedule that produced it).
///
/// The exhaustive DFS prefix shares state down the tree and stays
/// serial; the seeded-random batch is embarrassingly parallel (each
/// schedule clones `base` and derives its own RNG from its seed) and
/// fans out across `DBGP_THREADS` workers. Results fold in seed order,
/// so the report — and on violation, *which* schedule is reported — is
/// identical to the serial sweep.
pub fn explore(
    base: &RefNet,
    cfg: &ExplorerConfig,
    check: &(dyn Fn(&RefNet) -> Result<(), String> + Sync),
) -> Result<ExplorerReport, String> {
    let mut report = ExplorerReport::default();
    let mut trail = Vec::new();
    dfs(base, cfg, check, 0, &mut trail, &mut report)?;
    let seeds: Vec<u64> = (0..cfg.random_schedules).collect();
    let outcomes = dbgp_par::par_map(dbgp_par::configured_threads(), &seeds, |_, &seed| {
        random_schedule(base, cfg, check, seed)
    });
    for outcome in outcomes {
        let delivered = outcome?;
        report.schedules += 1;
        report.longest_schedule = report.longest_schedule.max(delivered);
    }
    Ok(report)
}

/// Run one seeded-random full schedule to quiescence and check it.
/// Returns the delivery count, or the invariant/stability violation.
fn random_schedule(
    base: &RefNet,
    cfg: &ExplorerConfig,
    check: &(dyn Fn(&RefNet) -> Result<(), String> + Sync),
    seed: u64,
) -> Result<u64, String> {
    let mut net = base.clone();
    let mut rng = TestRng::for_case("oracle-explorer-random", seed);
    let mut delivered = 0u64;
    let mut trail = Vec::new();
    while net.pending() > 0 {
        if delivered >= cfg.max_deliveries {
            return Err(format!(
                "stability violation: random schedule {seed} did not quiesce \
                 within {} deliveries — {} (schedule prefix {trail:?})",
                cfg.max_deliveries,
                classify_stuck(&net, cfg.max_deliveries)
            ));
        }
        let links = net.deliverable();
        let (from, to) = links[rng.below(links.len() as u64) as usize];
        net.deliver_from(from, to);
        trail.push((from, to));
        delivered += 1;
    }
    check(&net).map_err(|e| format!("random schedule {seed} ({trail:?}): {e}"))?;
    Ok(delivered)
}

fn dfs(
    net: &RefNet,
    cfg: &ExplorerConfig,
    check: &(dyn Fn(&RefNet) -> Result<(), String> + Sync),
    depth: usize,
    trail: &mut Vec<(usize, usize)>,
    report: &mut ExplorerReport,
) -> Result<(), String> {
    let links = net.deliverable();
    if links.is_empty() {
        check(net).map_err(|e| format!("schedule {trail:?}: {e}"))?;
        report.schedules += 1;
        report.longest_schedule = report.longest_schedule.max(trail.len() as u64);
        return Ok(());
    }
    if depth >= cfg.branch_depth {
        let mut tail = net.clone();
        let extra = tail
            .run_fifo(cfg.max_deliveries.saturating_sub(trail.len() as u64))
            .ok_or_else(|| {
                format!(
                    "stability violation: schedule prefix {trail:?} + FIFO tail did not \
                     quiesce within {} deliveries — {}",
                    cfg.max_deliveries,
                    classify_stuck(net, cfg.max_deliveries)
                )
            })?;
        check(&tail).map_err(|e| format!("schedule {trail:?} + FIFO tail: {e}"))?;
        report.schedules += 1;
        report.longest_schedule = report.longest_schedule.max(trail.len() as u64 + extra);
        return Ok(());
    }
    for (from, to) in links {
        let mut next = net.clone();
        next.deliver_from(from, to);
        trail.push((from, to));
        dfs(&next, cfg, check, depth + 1, trail, report)?;
        trail.pop();
    }
    Ok(())
}

// ----- quiescent-state invariants --------------------------------------

/// Check the chaos invariants at quiescence: for every `(origin,
/// prefix)`, each node connected to the origin over up links must hold
/// a route (no black holes), and following FIB next hops from any such
/// node must reach the origin without revisiting a node (no loops).
pub fn check_routing_invariants(
    net: &RefNet,
    origins: &[(usize, Ipv4Prefix)],
) -> Result<(), String> {
    for &(origin, prefix) in origins {
        let reachable = connected_component(net, origin);
        for &node in &reachable {
            if node == origin {
                continue;
            }
            let mut visited = BTreeSet::new();
            let mut cur = node;
            loop {
                if !visited.insert(cur) {
                    return Err(format!(
                        "forwarding loop for {prefix} starting at node {node} \
                         (revisited node {cur})"
                    ));
                }
                if cur == origin {
                    break;
                }
                match net.fib(cur).get(&prefix) {
                    Some(Some(next)) => cur = *next,
                    Some(None) => {
                        return Err(format!(
                            "node {cur} black-holes {prefix}: FIB entry has no next hop \
                             but the node is not the origin"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "black hole: node {cur} is connected to origin {origin} \
                             but has no route for {prefix}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

fn connected_component(net: &RefNet, start: usize) -> BTreeSet<usize> {
    let mut seen = BTreeSet::new();
    let mut stack = vec![start];
    while let Some(node) = stack.pop() {
        if !seen.insert(node) {
            continue;
        }
        for peer in 0..net.node_count() {
            if peer != node && net.link_is_up(node, peer) && !seen.contains(&peer) {
                stack.push(peer);
            }
        }
    }
    seen
}
