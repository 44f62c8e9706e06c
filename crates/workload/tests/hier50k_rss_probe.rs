//! Where `sim_hier50k`'s peak resident set is set: the benchmark's
//! 50,000-AS Gao-Rexford world (`benchmark/src/sims.rs`), built, run to
//! quiescence and dropped three times over, as the harness's rounds do,
//! with `VmRSS` and `VmHWM` read from `/proc/self/status` after each
//! round and after each drop. Live bytes are the same every round, so a
//! `VmHWM` that rises after the first round is set by a later round
//! reusing a fragmented heap, not by what the world holds.
//!
//! A probe, not a gate (resident memory does not repeat from run to
//! run): `cargo test --release -p dbgp-workload --test hier50k_rss_probe
//! -- --ignored --nocapture`.

use dbgp_sim::SimTime;
use dbgp_topology::{generate_hier, HierParams, Tier};
use dbgp_workload::policy::{node_prefix, valley_free_sim};

/// How `benchmark/src/sims.rs`'s `sim_hier50k` announces its prefixes.
const ORIGINS: usize = 8;
const STAGGER: SimTime = 200;
const HORIZON: SimTime = 1_000_000;

/// `VmRSS` and `VmHWM` of this process, in MiB.
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let kb = |key: &str| -> f64 {
        let line = status.lines().find(|l| l.starts_with(key)).expect(key);
        line[key.len()..].trim().trim_end_matches("kB").trim().parse::<f64>().unwrap()
    };
    (kb("VmRSS:") / 1024.0, kb("VmHWM:") / 1024.0)
}

#[test]
#[ignore = "builds the 50,000-AS world three times; run it in release"]
fn hier50k_resident_set_round_by_round() {
    let topo = generate_hier(HierParams::default(), 42);
    let stubs: Vec<usize> = topo.nodes_in(Tier::Stub).collect();
    let stride = stubs.len() / ORIGINS;
    let origins: Vec<usize> = (0..ORIGINS).map(|i| stubs[i * stride]).collect();
    let report = |what: &str| {
        let (rss, hwm) = rss_mb();
        println!("{what:<28} VmRSS {rss:6.1} MiB  VmHWM {hwm:6.1} MiB");
    };
    report("topology built");
    for round in 0..3 {
        let mut sim = valley_free_sim(&topo, 42);
        for (i, &node) in origins.iter().enumerate() {
            sim.originate(node, node_prefix(node));
            sim.run((i as SimTime + 1) * STAGGER);
        }
        sim.run(HORIZON);
        assert_eq!(sim.pending_events(), 0, "round {round} quiesces");
        report(&format!("round {round} quiescent"));
        drop(sim);
        report(&format!("round {round} world dropped"));
    }
}
