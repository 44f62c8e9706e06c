//! The differential harness: production `dbgp-sim` vs the reference
//! model over generated scenarios.
//!
//! Both systems process the same originations and fault plan, each
//! phase runs to quiescence, and the harness asserts the two ended in
//! identical states: same chosen best path (neighbor and full IA) per
//! node per prefix, and same forwarding tables. Because scenarios use a
//! uniform link delay with MRAI disabled, the simulator's delivery
//! order equals global send order, which is exactly the order
//! [`RefNet::run_fifo`](crate::reference::RefNet::run_fifo) replays —
//! so state equality is checked against a deterministic, naive
//! re-execution rather than a fixpoint argument.
//!
//! A divergence is shrunk by delta-debugging (the vendored proptest has
//! no shrinking) and dumped as a replayable JSON fixture.

use crate::reference::{Mutation, RefNet};
use crate::scenario::{
    apply_fault_production, apply_fault_reference, build_production, build_reference,
    scenario_to_json, Fault, IslandSpec, NodeSpec, Scenario, PROTOCOL_POOL,
};
use dbgp_sim::Sim;
use dbgp_wire::Ipv4Prefix;
use proptest::test_runner::TestRng;
use std::collections::BTreeSet;

/// Ceiling on simulated time per phase — ~30k delivery generations at
/// the uniform link delay, far beyond any quiescence point for ≤8-node
/// scenarios. Hitting it means the scenario genuinely livelocks.
const MAX_SIM_TIME: u64 = 60_000;

/// Ceiling on reference deliveries per phase. Production quiescing
/// within [`MAX_SIM_TIME`] implies far fewer sends than this, so a
/// reference that hits the ceiling while production converged is a
/// true divergence, not a budget artifact.
const MAX_REF_DELIVERIES: u64 = 20_000;

/// A detected production/reference disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Phase index (0 = initial convergence, then one per fault).
    pub phase: usize,
    /// Human-readable description of the first mismatch found.
    pub detail: String,
}

/// Run a scenario through both systems with faithful reference
/// semantics. `Err` carries the first mismatch.
pub fn run_differential(scenario: &Scenario) -> Result<(), Divergence> {
    run_differential_mutated(scenario, Mutation::None)
}

/// Run with a deliberately broken reference decision rung — used by the
/// negative tests proving the harness catches decision-process drift.
pub fn run_differential_mutated(scenario: &Scenario, mutation: Mutation) -> Result<(), Divergence> {
    let mut sim = build_production(scenario);
    let mut net = build_reference(scenario);
    for node in 0..net.node_count() {
        net.speaker_mut(node).set_mutation(mutation);
    }
    for &(node, prefix) in &scenario.originations {
        sim.originate(node, prefix);
        net.originate(node, prefix);
    }
    if run_phase(&mut sim, &mut net, scenario, 0)? == PhaseOutcome::BothLivelocked {
        return Ok(());
    }
    for (i, fault) in scenario.faults.iter().enumerate() {
        apply_fault_production(&mut sim, fault);
        apply_fault_reference(&mut net, fault);
        if run_phase(&mut sim, &mut net, scenario, i + 1)? == PhaseOutcome::BothLivelocked {
            return Ok(());
        }
    }
    Ok(())
}

/// How one phase ended when it did not diverge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PhaseOutcome {
    /// Both systems quiesced and their states matched.
    Quiescent,
    /// Neither system quiesced within budget. Some generated scenarios
    /// genuinely oscillate (e.g. a preference cycle through a legacy
    /// link that strips a protocol's descriptors); both engines
    /// livelocking on the same schedule is agreement, and the
    /// remaining fault phases are skipped because neither state is
    /// meaningful.
    BothLivelocked,
}

fn run_phase(
    sim: &mut Sim,
    net: &mut RefNet,
    scenario: &Scenario,
    phase: usize,
) -> Result<PhaseOutcome, Divergence> {
    sim.run(MAX_SIM_TIME);
    let prod_quiesced = sim.pending_events() == 0;
    let ref_quiesced = net.run_fifo(MAX_REF_DELIVERIES).is_some();
    match (prod_quiesced, ref_quiesced) {
        (true, true) => {
            compare_states(sim, net, scenario, phase)?;
            Ok(PhaseOutcome::Quiescent)
        }
        (false, false) => Ok(PhaseOutcome::BothLivelocked),
        (true, false) => Err(Divergence {
            phase,
            detail: format!(
                "production quiesced but the reference did not within \
                 {MAX_REF_DELIVERIES} deliveries"
            ),
        }),
        (false, true) => Err(Divergence {
            phase,
            detail: format!(
                "reference quiesced but production still had {} events pending \
                 after {MAX_SIM_TIME} ticks",
                sim.pending_events()
            ),
        }),
    }
}

fn compare_states(
    sim: &Sim,
    net: &RefNet,
    scenario: &Scenario,
    phase: usize,
) -> Result<(), Divergence> {
    let prefixes: BTreeSet<Ipv4Prefix> = scenario.originations.iter().map(|&(_, p)| p).collect();
    for node in 0..scenario.nodes.len() {
        for prefix in &prefixes {
            let prod = sim.speaker(node).best(prefix);
            let reference = net.speaker(node).best(prefix);
            match (prod, reference) {
                (None, None) => {}
                (Some(p), Some(r)) => {
                    let prod_neighbor = p.neighbor.map(|n| n.0);
                    if prod_neighbor != r.neighbor {
                        return Err(Divergence {
                            phase,
                            detail: format!(
                                "node {node} prefix {prefix}: chosen neighbor differs \
                                 (production {prod_neighbor:?}, reference {:?})",
                                r.neighbor
                            ),
                        });
                    }
                    if *p.ia != r.ia {
                        return Err(Divergence {
                            phase,
                            detail: format!(
                                "node {node} prefix {prefix}: chosen IA differs\n\
                                 production: {:?}\nreference:  {:?}",
                                p.ia, r.ia
                            ),
                        });
                    }
                }
                (p, r) => {
                    return Err(Divergence {
                        phase,
                        detail: format!(
                            "node {node} prefix {prefix}: reachability differs \
                             (production chose {:?}, reference chose {:?})",
                            p.map(|c| c.neighbor),
                            r.map(|c| c.neighbor)
                        ),
                    });
                }
            }
        }
        if sim.fib(node) != net.fib(node) {
            return Err(Divergence {
                phase,
                detail: format!(
                    "node {node}: FIB differs\nproduction: {:?}\nreference:  {:?}",
                    sim.fib(node),
                    net.fib(node)
                ),
            });
        }
    }
    Ok(())
}

// ----- scenario generation ---------------------------------------------

/// Prefix pool for originations. Deliberately nested: the default
/// route covers everything, `128.6.0.0/16` covers its /20 slice, and
/// `44.0.0.0/8` covers `44.128.0.0/10` — so generated scenarios
/// routinely store covering chains (and a valued trie root) in the
/// production prefix trie, state the old disjoint pool never produced.
const PREFIXES: &[&str] = &[
    "128.6.0.0/16",
    "44.0.0.0/8",
    "203.0.113.0/24",
    "128.6.128.0/20",
    "44.128.0.0/10",
    "0.0.0.0/0",
];

/// Generate a random scenario: 3–8 ASes, a connected topology with a
/// few redundant edges, up to two islands (contiguous node ranges) from
/// the protocol pool, 1–2 originations, and 0–3 faults.
pub fn generate_scenario(rng: &mut TestRng) -> Scenario {
    let n = 3 + rng.below(6) as usize;

    // Up to two islands over disjoint contiguous ranges: one anchored at
    // the front, one at the back, gulf nodes in between.
    let mut islands: Vec<Option<IslandSpec>> = vec![None; n];
    let island_count = rng.below(3);
    if island_count >= 1 {
        let len = 2 + rng.below((n as u64 - 1).min(2)) as usize;
        let spec = IslandSpec {
            id: 900,
            abstraction: rng.below(2) == 1,
            protocol: PROTOCOL_POOL[rng.below(PROTOCOL_POOL.len() as u64) as usize],
        };
        for slot in islands.iter_mut().take(len) {
            *slot = Some(spec);
        }
    }
    if island_count == 2 {
        let used = islands.iter().filter(|i| i.is_some()).count();
        let free = n - used;
        if free >= 2 {
            let len = 2 + rng.below((free as u64 - 1).min(2)) as usize;
            let spec = IslandSpec {
                id: 901,
                abstraction: rng.below(2) == 1,
                protocol: PROTOCOL_POOL[rng.below(PROTOCOL_POOL.len() as u64) as usize],
            };
            for slot in islands.iter_mut().rev().take(len) {
                *slot = Some(spec);
            }
        }
    }
    let nodes: Vec<NodeSpec> =
        (0..n).map(|i| NodeSpec { asn: 10 + i as u32 * 7, island: islands[i] }).collect();

    // Spanning tree plus up to two redundant edges. A rare legacy
    // (BGP-only) adjacency exercises the stripping path.
    let mut links: Vec<(usize, usize, bool)> = Vec::new();
    let mut have: BTreeSet<(usize, usize)> = BTreeSet::new();
    for i in 1..n {
        let parent = rng.below(i as u64) as usize;
        let speaks_dbgp = rng.below(8) != 0;
        links.push((parent, i, speaks_dbgp));
        have.insert((parent.min(i), parent.max(i)));
    }
    for _ in 0..rng.below(3) {
        let a = rng.below(n as u64) as usize;
        let b = rng.below(n as u64) as usize;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if have.insert(key) {
            links.push((key.0, key.1, rng.below(8) != 0));
        }
    }

    // 1–3 distinct prefixes drawn at random from the nested pool, so a
    // fair share of scenarios originate overlapping prefixes (or the
    // default route) and the per-prefix state comparison runs against
    // covering chains in the trie-backed stores.
    let mut originations = Vec::new();
    let mut pool: Vec<&str> = PREFIXES.to_vec();
    let origin_count = 1 + rng.below(3) as usize;
    for _ in 0..origin_count {
        let node = rng.below(n as u64) as usize;
        let raw = pool.remove(rng.below(pool.len() as u64) as usize);
        originations.push((node, raw.parse().expect("static prefix")));
    }

    // Faults, tracked against link state so restores target down links.
    let mut faults = Vec::new();
    let mut down: Vec<(usize, usize)> = Vec::new();
    for _ in 0..rng.below(4) {
        match rng.below(3) {
            0 => {
                let up: Vec<(usize, usize)> =
                    have.iter().filter(|k| !down.contains(k)).copied().collect();
                if let Some(&(a, b)) = up.get(rng.below(up.len().max(1) as u64) as usize) {
                    faults.push(Fault::LinkDown(a, b));
                    down.push((a, b));
                }
            }
            1 => {
                if down.is_empty() {
                    continue;
                }
                let i = rng.below(down.len() as u64) as usize;
                let (a, b) = down.remove(i);
                faults.push(Fault::LinkRestore(a, b));
            }
            _ => {
                faults.push(Fault::Restart(rng.below(n as u64) as usize));
            }
        }
    }

    Scenario { nodes, links, originations, faults }
}

// ----- shrinking -------------------------------------------------------

/// Delta-debugging shrinker: repeatedly drop faults, originations,
/// redundant links, and whole nodes while the scenario keeps failing
/// `still_fails`. The vendored proptest stub has no shrinking of its
/// own, so minimization happens here, on the scenario structure itself.
pub fn shrink(scenario: Scenario, still_fails: impl Fn(&Scenario) -> bool) -> Scenario {
    let mut best = scenario;
    loop {
        let mut improved = false;
        for candidate in removal_candidates(&best) {
            if still_fails(&candidate) {
                best = candidate;
                improved = true;
                break;
            }
        }
        if !improved {
            return best;
        }
    }
}

fn removal_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    for i in 0..s.faults.len() {
        let mut c = s.clone();
        c.faults.remove(i);
        out.push(c);
    }
    if s.originations.len() > 1 {
        for i in 0..s.originations.len() {
            let mut c = s.clone();
            c.originations.remove(i);
            out.push(c);
        }
    }
    for i in 0..s.links.len() {
        let mut c = s.clone();
        let (a, b, _) = c.links.remove(i);
        // Faults naming a removed link make no sense; drop them too.
        c.faults.retain(|f| match *f {
            Fault::LinkDown(x, y) | Fault::LinkRestore(x, y) => {
                (x.min(y), x.max(y)) != (a.min(b), a.max(b))
            }
            Fault::Restart(_) => true,
        });
        out.push(c);
    }
    for node in 0..s.nodes.len() {
        if let Some(c) = remove_node(s, node) {
            out.push(c);
        }
    }
    out
}

/// Drop a node, its links and faults, re-indexing everything above it.
/// Returns `None` when the node originates the only prefix.
fn remove_node(s: &Scenario, node: usize) -> Option<Scenario> {
    let remaining: Vec<(usize, Ipv4Prefix)> =
        s.originations.iter().filter(|&&(n, _)| n != node).copied().collect();
    if remaining.is_empty() {
        return None;
    }
    let reindex = |i: usize| if i > node { i - 1 } else { i };
    let mut nodes = s.nodes.clone();
    nodes.remove(node);
    let links = s
        .links
        .iter()
        .filter(|&&(a, b, _)| a != node && b != node)
        .map(|&(a, b, d)| (reindex(a), reindex(b), d))
        .collect();
    let originations = remaining.into_iter().map(|(n, p)| (reindex(n), p)).collect();
    let faults = s
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::LinkDown(a, b) if a != node && b != node => {
                Some(Fault::LinkDown(reindex(a), reindex(b)))
            }
            Fault::LinkRestore(a, b) if a != node && b != node => {
                Some(Fault::LinkRestore(reindex(a), reindex(b)))
            }
            Fault::Restart(n) if n != node => Some(Fault::Restart(reindex(n))),
            _ => None,
        })
        .collect();
    Some(Scenario { nodes, links, originations, faults })
}

// ----- fixtures and the test entry point -------------------------------

/// Write a shrunken divergence as a replayable fixture. Returns the
/// path written. Directory override: `DBGP_ORACLE_FIXTURE_DIR`.
pub fn dump_fixture(test_name: &str, case: u64, scenario: &Scenario) -> String {
    let dir = std::env::var("DBGP_ORACLE_FIXTURE_DIR")
        .unwrap_or_else(|_| "target/oracle-fixtures".to_string());
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/divergence-{test_name}-{case}.json");
    let json = serde_json::to_string_pretty(&scenario_to_json(scenario))
        .unwrap_or_else(|_| "{}".to_string());
    let _ = std::fs::write(&path, json + "\n");
    path
}

/// Run `cases` generated scenarios; on divergence, shrink to a minimal
/// failing scenario, dump it as a fixture, and panic with the replay
/// path. `test_name` seeds the deterministic RNG.
///
/// Thread count comes from `DBGP_THREADS` (default: available
/// parallelism) — see [`check_scenarios_threaded`].
pub fn check_scenarios(test_name: &str, cases: u64) {
    check_scenarios_threaded(test_name, cases, dbgp_par::configured_threads());
}

/// [`check_scenarios`] with an explicit thread count (`1` = the classic
/// serial sweep).
///
/// Each case is a sealed deterministic unit: its RNG is derived from
/// `(test_name, case)` alone, and each differential run builds its own
/// production simulator and reference network. Cases therefore fan out
/// across the workers freely; results come back in case order, and on
/// failure the *lowest-index* diverging case is shrunk and reported —
/// exactly the case a serial sweep would have stopped at, so failure
/// output is thread-count-independent.
pub fn check_scenarios_threaded(test_name: &str, cases: u64, threads: usize) {
    let scenarios: Vec<(u64, Scenario)> = (0..cases)
        .map(|case| {
            let mut rng = TestRng::for_case(test_name, case);
            (case, generate_scenario(&mut rng))
        })
        .collect();
    let failures = dbgp_par::par_map(threads, &scenarios, |_, (case, scenario)| {
        run_differential(scenario).err().map(|d| (*case, d))
    });
    // Shrinking re-runs the scenario dozens of times under a mutating
    // closure; it stays serial (only the first divergence is reported,
    // and shrink order affects which minimum is found).
    if let Some((case, divergence)) = failures.into_iter().flatten().next() {
        let scenario = scenarios
            .into_iter()
            .find(|&(c, _)| c == case)
            .map(|(_, s)| s)
            .expect("failing case came from this scenario list");
        let minimal = shrink(scenario, |s| run_differential(s).is_err());
        let error = run_differential(&minimal)
            .err()
            .map(|d| d.detail)
            .unwrap_or_else(|| divergence.detail.clone());
        let path = dump_fixture(test_name, case, &minimal);
        panic!(
            "differential divergence (case {case}, phase {}):\n{error}\n\
             minimal scenario dumped to {path} — replay with \
             `scenario_from_json` + `run_differential`",
            divergence.phase
        );
    }
}
