//! Schedule exploration of the two paper topologies (DESIGN.md §8).
//!
//! Coverage bound, also documented in EXPERIMENTS.md: the first 4
//! deliveries are explored exhaustively (every interleaving of
//! per-link-FIFO schedules), each leaf is driven to quiescence with the
//! deterministic global-FIFO tail, and 64 seeded-random full schedules
//! cover interleavings past the exhaustive prefix. Every schedule must
//! quiesce within the delivery budget and land in a state that passes
//! the routing invariants — same final answer on every ordering.

use dbgp_oracle::explorer::{check_routing_invariants, explore, ExplorerConfig};
use dbgp_oracle::topologies::{figure8_wiser, paper_prefix, rbgp_diamond};
use dbgp_wire::ia::dkey;
use dbgp_wire::{PathElem, ProtocolId};

fn config() -> ExplorerConfig {
    ExplorerConfig { branch_depth: 4, random_schedules: 64, max_deliveries: 10_000 }
}

/// Figure 8 of the paper: on *every* explored delivery schedule, `s`
/// must converge to the longer-but-cheaper route via `g2b`, with the
/// Wiser cost and portal descriptors carried intact across three gulf
/// ASes (CF-R1 pass-through).
#[test]
fn figure8_wiser_converges_identically_on_all_schedules() {
    let fig = figure8_wiser();
    let prefix = paper_prefix();
    let mut base = fig.net.clone();
    base.originate(fig.d, prefix);

    let check = move |net: &dbgp_oracle::RefNet| -> Result<(), String> {
        check_routing_invariants(net, &[(fig.d, prefix)])?;
        // The paper's punchline: s ignores the shorter AS path via g1
        // because the Wiser cost descriptor says the g2b route is
        // cheaper (5 + 10 = 15 vs 5 + 500).
        let next = net.fib(fig.s).get(&prefix).copied().flatten();
        if next != Some(fig.g2b) {
            return Err(format!("s routed via {next:?}, expected g2b ({})", fig.g2b));
        }
        let chosen = net.speaker(fig.s).best(&prefix).ok_or("s has no best route")?;
        // CF-R1: the gulf ASes g2a/g2b never deployed Wiser, yet the
        // cost descriptor must arrive at s unmodified.
        let cost = chosen
            .ia
            .path_descriptors()
            .iter()
            .find(|d| d.protocols.contains(&ProtocolId::WISER) && d.key == dkey::WISER_PATH_COST)
            .ok_or("Wiser cost descriptor was dropped in the gulf (CF-R1 violation)")?;
        let mut be = [0u8; 8];
        be.copy_from_slice(&cost.value);
        let cost = u64::from_be_bytes(be);
        if cost != 15 {
            return Err(format!("Wiser path cost {cost}, expected 15 (via a3)"));
        }
        // G-R4 island declaration: island A's portal advertisement also
        // survives the gulf.
        if !chosen
            .ia
            .island_descriptors()
            .iter()
            .any(|d| d.protocol == ProtocolId::WISER && d.key == dkey::WISER_PORTAL)
        {
            return Err("Wiser portal island descriptor missing at s".into());
        }
        Ok(())
    };

    let report = explore(&base, &config(), &check).expect("all schedules agree");
    assert!(
        report.schedules > 64,
        "exhaustive prefix explored only {} schedules",
        report.schedules
    );
}

/// The R-BGP diamond: converge, fail the primary link, and explore the
/// *reconvergence* schedules — every ordering of the teardown fallout
/// must end with `s` on the staged disjoint path via `long_b`.
#[test]
fn rbgp_diamond_fails_over_on_all_reconvergence_schedules() {
    let dia = rbgp_diamond();
    let prefix = paper_prefix();
    let mut net = dia.net.clone();
    net.originate(dia.d, prefix);

    // Phase 1: every interleaving of the initial convergence must put
    // s on the short path (R-BGP keeps baseline selection; the long
    // path is only *staged*).
    let initial_check = move |net: &dbgp_oracle::RefNet| -> Result<(), String> {
        check_routing_invariants(net, &[(dia.d, prefix)])?;
        let next = net.fib(dia.s).get(&prefix).copied().flatten();
        if next != Some(dia.short) {
            return Err(format!("s converged to {next:?}, expected short ({})", dia.short));
        }
        Ok(())
    };
    let report = explore(&net, &config(), &initial_check).expect("all convergence schedules agree");
    assert!(report.schedules > 64, "initial convergence explored only {}", report.schedules);

    // Phase 2: fail the primary from the deterministic converged state
    // and explore the reconvergence fallout.
    net.run_fifo(10_000).expect("initial convergence");
    assert_eq!(
        net.fib(dia.s).get(&prefix).copied().flatten(),
        Some(dia.short),
        "before the fault, s must use the short path"
    );

    net.fail_link(dia.short, dia.s);

    let check = move |net: &dbgp_oracle::RefNet| -> Result<(), String> {
        check_routing_invariants(net, &[(dia.d, prefix)])?;
        let next = net.fib(dia.s).get(&prefix).copied().flatten();
        if next != Some(dia.long_b) {
            return Err(format!("s failed over to {next:?}, expected long_b ({})", dia.long_b));
        }
        let chosen = net.speaker(dia.s).best(&prefix).ok_or("s lost the route")?;
        let ases: Vec<u32> = chosen
            .ia
            .path_vector
            .iter()
            .filter_map(|e| match e {
                PathElem::As(a) => Some(*a),
                _ => None,
            })
            .collect();
        if ases != [4, 3, 1] {
            return Err(format!("failover AS path {ases:?}, expected [4, 3, 1]"));
        }
        Ok(())
    };

    let report = explore(&net, &config(), &check).expect("all reconvergence schedules agree");
    assert!(report.schedules >= 1, "no schedules explored");
}

/// A schedule that exhausts its budget because the net genuinely
/// diverges must be reported as a *proven* oscillation (recurrent
/// global-state cycle on the FIFO continuation), never as an
/// inconclusive timeout. The net is DISAGREE: two nodes that each
/// prefer the route through the other over their own direct spoke.
#[test]
fn budget_failure_on_a_real_oscillation_is_reported_as_proven() {
    use dbgp_oracle::{RefConfig, RefModule, RefNet};

    let mut net = RefNet::new();
    for asn in [10, 17, 24] {
        net.add_node(RefConfig::gulf(asn));
    }
    net.link(0, 1, false);
    net.link(0, 2, false);
    net.link(1, 2, false);
    net.speaker_mut(1).register_module(RefModule::Ranked { prefs: vec![vec![24, 10], vec![10]] });
    net.speaker_mut(2).register_module(RefModule::Ranked { prefs: vec![vec![17, 10], vec![10]] });
    net.originate(0, paper_prefix());

    let cfg = ExplorerConfig { branch_depth: 2, random_schedules: 4, max_deliveries: 300 };
    let err = explore(&net, &cfg, &|_| Ok(())).expect_err("DISAGREE must not pass exploration");
    assert!(err.contains("proven oscillation"), "want a divergence proof, got: {err}");
    assert!(err.contains("recurrent global-state cycle"), "want the cycle evidence, got: {err}");
    assert!(!err.contains("inconclusive"), "a proof must not be hedged: {err}");
}

/// The converse: a net that converges fine but is given a starvation
/// budget must be reported as *budget exhausted*, never as a proven
/// oscillation. The line 0-1-2 quiesces in exactly two FIFO
/// deliveries, so a budget of one delivery is guaranteed too small.
#[test]
fn budget_failure_on_a_converging_net_is_reported_as_budget_exhausted() {
    use dbgp_oracle::{RefConfig, RefNet};

    let mut net = RefNet::new();
    for asn in [10, 17, 24] {
        net.add_node(RefConfig::gulf(asn));
    }
    net.link(0, 1, false);
    net.link(1, 2, false);
    net.originate(0, paper_prefix());

    let cfg = ExplorerConfig { branch_depth: 0, random_schedules: 0, max_deliveries: 1 };
    let err =
        explore(&net, &cfg, &|_| Ok(())).expect_err("a one-delivery budget cannot cover the line");
    assert!(err.contains("budget exhausted"), "want a budget verdict, got: {err}");
    assert!(!err.contains("proven oscillation"), "must not claim divergence: {err}");
}
