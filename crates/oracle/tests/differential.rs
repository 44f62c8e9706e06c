//! Harness self-tests: the differential oracle must catch deliberately
//! broken decision semantics and a wrong daemon lowering, agree with
//! itself on faithful runs, treat mutual livelock as agreement, shrink
//! failures, and round-trip scenarios through JSON fixtures.

use dbgp_oracle::differential::{
    generate_scenario, run_differential, run_differential_mutated, run_differential_with_daemons,
    run_differential_with_origin_bgp, shrink,
};
use dbgp_oracle::reference::Mutation;
use dbgp_oracle::scenario::{
    build_daemon, scenario_from_json, scenario_to_json, Fault, IslandSpec, NodeSpec, Scenario,
};
use dbgp_wire::{BgpAttrs, Ipv4Addr, PathAttribute, ProtocolId};
use proptest::test_runner::TestRng;

fn gulf(asn: u32) -> NodeSpec {
    NodeSpec { asn, island: None }
}

/// A 5-node diamond where the production decision process picks the
/// 2-hop path at the sink while a length-inverted reference picks the
/// 3-hop path.
fn diamond() -> Scenario {
    Scenario {
        nodes: vec![gulf(10), gulf(20), gulf(30), gulf(40), gulf(50)],
        links: vec![(0, 1, true), (1, 4, true), (0, 2, true), (2, 3, true), (3, 4, true)],
        originations: vec![(0, "128.6.0.0/16".parse().unwrap())],
        faults: vec![],
    }
}

/// Equal-length paths where the neighbor-AS rung and the neighbor-ID
/// rung disagree: the sink's session to node 2 is established before
/// its session to node 1, but node 1 has the lower AS.
fn tiebreak_square() -> Scenario {
    Scenario {
        nodes: vec![gulf(10), gulf(20), gulf(30), gulf(40)],
        links: vec![(0, 1, true), (0, 2, true), (2, 3, true), (1, 3, true)],
        originations: vec![(0, "128.6.0.0/16".parse().unwrap())],
        faults: vec![],
    }
}

#[test]
fn faithful_reference_matches_on_crafted_scenarios() {
    run_differential(&diamond()).expect("diamond");
    run_differential(&tiebreak_square()).expect("tiebreak square");
}

/// An origin IA that carries MED, LOCAL_PREF and a COMMUNITIES: the
/// first two stop at the origin AS, the third rides on, in production
/// and reference alike.
#[test]
fn bgp_attributes_cross_the_as_boundary_alike() {
    let bgp = BgpAttrs {
        med: Some(50),
        local_pref: Some(300),
        extras: vec![PathAttribute::Communities(vec![0xffff_ff01])],
    };
    run_differential_with_origin_bgp(&diamond(), &bgp).expect("diamond with BGP attributes");
}

/// Covering chains through the trie-backed stores: a default route, a
/// /16, and a more-specific /20 inside it, originated at different
/// nodes, then churned by a flap of the more-specific's uplink. The
/// reference keeps flat `BTreeMap`s, so per-prefix agreement here is
/// exactly the trie-vs-naive differential the storage swap needs.
#[test]
fn overlapping_prefixes_and_default_route_agree() {
    let scenario = Scenario {
        nodes: vec![gulf(10), gulf(20), gulf(30), gulf(40), gulf(50)],
        links: vec![(0, 1, true), (1, 4, true), (0, 2, true), (2, 3, true), (3, 4, true)],
        originations: vec![
            (0, "0.0.0.0/0".parse().unwrap()),
            (4, "128.6.0.0/16".parse().unwrap()),
            (2, "128.6.128.0/20".parse().unwrap()),
        ],
        faults: vec![Fault::LinkDown(2, 3), Fault::LinkRestore(2, 3), Fault::Restart(4)],
    };
    run_differential(&scenario).expect("nested-prefix scenario");
}

#[test]
fn inverted_path_length_rung_is_caught() {
    let err = run_differential_mutated(&diamond(), Mutation::PreferLongerPaths)
        .expect_err("length-inverted reference must diverge");
    assert_eq!(err.phase, 0);
}

#[test]
fn dropped_neighbor_as_rung_is_caught() {
    let err = run_differential_mutated(&tiebreak_square(), Mutation::IgnoreNeighborAs)
        .expect_err("neighbor-AS-blind reference must diverge");
    assert_eq!(err.phase, 0);
}

/// The shrunken fixture class the generator discovered: an EQBGP island
/// with a cycle through a legacy (descriptor-stripping) link oscillates
/// forever, because selection scores an absent bandwidth descriptor as
/// zero while export floors it at the local ingress capacity. Both the
/// production engine and the reference livelock on the same schedule —
/// the harness counts that as agreement rather than a divergence.
#[test]
fn mutual_livelock_is_agreement_not_divergence() {
    let eqbgp = IslandSpec { id: 900, abstraction: false, protocol: 6 };
    let scenario = Scenario {
        nodes: vec![
            NodeSpec { asn: 10, island: Some(eqbgp) },
            NodeSpec { asn: 17, island: Some(eqbgp) },
            NodeSpec { asn: 24, island: Some(eqbgp) },
        ],
        links: vec![(0, 1, true), (0, 2, false), (1, 2, true)],
        originations: vec![(0, "128.6.0.0/16".parse().unwrap())],
        faults: vec![],
    };
    run_differential(&scenario).expect("mutual livelock is agreement");
}

#[test]
fn shrinker_strips_irrelevant_structure() {
    // The diamond plus an appendage node and a fault that touches only
    // the appendage. Neither contributes to the divergence, so the
    // shrinker must remove both.
    let mut fat = diamond();
    fat.nodes.push(gulf(60));
    fat.links.push((0, 5, true));
    fat.faults.push(Fault::LinkDown(0, 5));
    let still_fails =
        |s: &Scenario| run_differential_mutated(s, Mutation::PreferLongerPaths).is_err();
    assert!(still_fails(&fat), "fat scenario must fail before shrinking");
    let slim = shrink(fat, still_fails);
    assert!(still_fails(&slim), "shrunken scenario must still fail");
    assert!(slim.faults.is_empty(), "irrelevant fault survived shrinking: {slim:?}");
    assert!(slim.nodes.len() <= 5, "appendage node survived shrinking: {slim:?}");
}

#[test]
fn scenarios_round_trip_through_json() {
    for case in 0..32 {
        let mut rng = TestRng::for_case("oracle-json-roundtrip", case);
        let scenario = generate_scenario(&mut rng);
        let text = serde_json::to_string_pretty(&scenario_to_json(&scenario))
            .expect("fixture JSON serializes");
        let value = serde_json::from_str(&text).expect("fixture JSON parses");
        let back = scenario_from_json(&value).expect("fixture JSON decodes");
        assert_eq!(back, scenario, "case {case} did not round-trip");
    }
}

/// The line of `n` ASes 65001.. that `dbgpd`'s interop test runs as live
/// processes: AS `65001 + i` originates `10.<i + 1>.0.0/16`, and the
/// links of the `legacy` nodes do not speak D-BGP.
fn interop_line(n: usize, legacy: &[usize]) -> Scenario {
    Scenario {
        nodes: (0..n).map(|i| gulf(65_001 + i as u32)).collect(),
        links: (1..n)
            .map(|i| (i - 1, i, !legacy.contains(&(i - 1)) && !legacy.contains(&i)))
            .collect(),
        originations: (0..n)
            .map(|i| (i, format!("10.{}.0.0/16", i + 1).parse().unwrap()))
            .collect(),
        faults: vec![],
    }
}

#[test]
fn the_live_interop_topologies_agree_three_way() {
    for scenario in [interop_line(2, &[]), interop_line(5, &[2])] {
        assert!(build_daemon(&scenario).is_ok(), "no island, so the daemons take part");
        run_differential(&scenario).expect("dbgpd, the simulator and the reference agree");
    }
}

/// The baseline-only cases of the 256-case sweep: every one lowers, so
/// `tests/oracle_differential.rs` runs each of them three-way; and
/// router ids that descend in AS, against `Rank`'s neighbor-AS rung,
/// make some of them diverge at once.
#[test]
fn router_ids_descending_in_as_are_caught_on_the_baseline_sweep() {
    let sweep =
        (0..256).map(|case| generate_scenario(&mut TestRng::for_case("oracle-differential", case)));
    let baseline: Vec<Scenario> =
        sweep.filter(|s| s.nodes.iter().all(|n| n.island.is_none())).collect();
    assert_eq!(baseline.len(), 79);
    let diverged = baseline
        .iter()
        .filter(|scenario| {
            let mut configs = build_daemon(scenario).expect("an island-free scenario lowers");
            for cfg in &mut configs {
                cfg.router_id = Ipv4Addr(!cfg.router_id.0);
            }
            run_differential_with_daemons(scenario, configs).is_err_and(|d| d.phase == 0)
        })
        .count();
    assert_eq!(diverged, 12);
}

#[test]
fn an_islanded_scenario_is_not_lowered_and_still_runs_two_way() {
    let wiser = IslandSpec { id: 900, abstraction: false, protocol: ProtocolId::WISER.0 };
    let mut scenario = diamond();
    scenario.nodes[0].island = Some(wiser);
    let err = build_daemon(&scenario).expect_err("dbgpd runs no decision module");
    assert!(err.contains("ROADMAP item 1(a)"), "{err}");
    run_differential(&scenario).expect("the simulator and the reference agree");
}
