//! Multi-seed scenario sweeps on worker threads.
//!
//! Chaos studies rarely care about one seed: confidence comes from
//! running the same fault plan across a family of seeded topologies
//! and aggregating. Each seed builds, runs and tears down its own
//! [`crate::ScenarioRunner`] world, so seeds share nothing and the
//! sweep is embarrassingly parallel. Results come back **in seed
//! order** (the ordered-reduce contract of [`dbgp_par::par_map`]), so
//! a parallel sweep is indistinguishable from the serial loop it
//! replaces — same values, same order, any thread count.

/// Run `scenario` once per seed on `threads` workers, returning the
/// per-seed results in the order of `seeds`.
///
/// `scenario` must be a pure function of its seed (build the sim, seed
/// it, run the plan, report) — the usual shape of every chaos sweep in
/// this repo. With `threads == 1` the sweep degenerates to the plain
/// serial loop on the calling thread.
pub fn sweep_seeds<R, F>(seeds: &[u64], threads: usize, scenario: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    dbgp_par::par_map(threads, seeds, |_, &seed| scenario(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{scenario_prefix, sim_from_graph};
    use crate::{FaultPlan, ScenarioRunner};
    use dbgp_topology::fixtures::waxman_50;

    /// One small churn scenario, reduced to comparable numbers.
    fn churn_digest(seed: u64) -> (u64, u64, u64, bool) {
        let graph = waxman_50(seed);
        let mut sim = sim_from_graph(&graph, 10);
        sim.set_seed(seed);
        sim.originate(0, scenario_prefix());
        sim.run(100_000_000);
        let edges: Vec<(usize, usize, bool)> = sim.links().collect();
        let (a, b, _) = edges[edges.len() / 2];
        let plan = FaultPlan::new().link_flap(a, b, 110_000_000, 140_000_000);
        let report = ScenarioRunner::default().run(&mut sim, &plan);
        let stats = report.final_stats;
        (stats.messages, stats.best_changes, sim.events_processed(), report.quiesced)
    }

    #[test]
    fn parallel_sweep_matches_serial_loop_in_value_and_order() {
        let seeds: Vec<u64> = (0..6).collect();
        let serial: Vec<_> = seeds.iter().map(|&s| churn_digest(s)).collect();
        for threads in [1, 2, 4] {
            let swept = sweep_seeds(&seeds, threads, churn_digest);
            assert_eq!(serial, swept, "sweep diverged at {threads} threads");
        }
    }
}
