//! The one invariant of stating each module's order once, as a
//! [`Rank`]: nothing selects differently. For every bundled module, over
//! random candidate sets in neighbor-id order — with repeated neighbor
//! ASes and tied measures, so every rung down to the neighbor id
//! decides some case — `select_best` picks what the selection closure
//! the module used to carry picks (written out literally below), which
//! is the candidate of minimum `rank`; ranks of distinct neighbors are
//! distinct; and `explain_best` answers what the two hand-written
//! explainers (baseline, ranked) answered.

use dbgp_core::module::{
    explain_best, BgpDecision, CandidateIa, DecisionModule, ExportContext, Rank,
};
use dbgp_core::NeighborId;
use dbgp_crypto::KeyRegistry;
use dbgp_protocols::bgpsec::ChainStatus;
use dbgp_protocols::eqbgp::bottleneck_bw;
use dbgp_protocols::hlp::{hlp_cost, HLP_PATH_COST};
use dbgp_protocols::pathlet::{decode_pathlets, egress_translate};
use dbgp_protocols::scion::total_paths;
use dbgp_protocols::wiser::{path_cost, set_path_cost};
use dbgp_protocols::{
    as_sequence, AddrMapModule, BgpsecModule, BottleneckBwModule, CostReport, HlpModule,
    MiroModule, PathSet, Pathlet, PathletModule, RankedPolicyModule, RbgpModule, ScionModule,
    WiserModule,
};
use dbgp_telemetry::SelectionReason;
use dbgp_wire::ia::{dkey, IslandDescriptor};
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;
use std::cmp::Reverse;

const LOCAL_AS: u32 = 99;

fn prefix() -> Ipv4Prefix {
    "128.6.0.0/16".parse().unwrap()
}

fn anchor() -> KeyRegistry {
    KeyRegistry::new(b"prop-rank-trust-anchor")
}

/// One candidate, drawn from small alphabets so ties are the rule.
#[derive(Debug, Clone)]
struct Spec {
    /// Distance to the previous candidate's neighbor id, minus one.
    id_gap: u32,
    neighbor_as: u32,
    /// AS path, first hop first.
    path: Vec<u32>,
    wiser_cost: Option<u64>,
    hlp_cost: Option<u64>,
    bandwidth: Option<u64>,
    chain: ChainStatus,
    pathlets: u32,
    scion_paths: u32,
}

fn arb_spec() -> impl Strategy<Value = Spec> {
    let measure = || proptest::option::of(prop_oneof![Just(5u64), Just(10), Just(20)]);
    let chain =
        prop_oneof![Just(ChainStatus::Valid), Just(ChainStatus::Absent), Just(ChainStatus::Broken)];
    (
        (0u32..3, 100u32..103, proptest::collection::vec(1u32..4, 1..4)),
        (measure(), measure(), measure()),
        (chain, 0u32..3, 0u32..3),
    )
        .prop_map(|((id_gap, neighbor_as, path), (wiser_cost, hlp_cost, bandwidth), rest)| {
            let (chain, pathlets, scion_paths) = rest;
            Spec {
                id_gap,
                neighbor_as,
                path,
                wiser_cost,
                hlp_cost,
                bandwidth,
                chain,
                pathlets,
                scion_paths,
            }
        })
}

/// The IA a spec describes, carrying every protocol's measure at once.
fn build(spec: &Spec) -> Ia {
    let mut ia = Ia::originate(prefix(), Ipv4Addr::new(9, 9, 9, 9));
    // Origin first: each AS signs toward the next, the last toward us
    // (or, for a broken chain, toward somebody else).
    for (i, &signer) in spec.path.iter().enumerate().rev() {
        let target = match (i, spec.chain) {
            (0, ChainStatus::Broken) => LOCAL_AS + 1,
            (0, _) => LOCAL_AS,
            _ => spec.path[i - 1],
        };
        if spec.chain != ChainStatus::Absent {
            let ctx = ExportContext {
                neighbor: NeighborId(0),
                neighbor_as: target,
                local_as: signer,
                prefix: prefix(),
            };
            BgpsecModule::new(signer, anchor(), false).export(&mut ia, ctx);
        }
        ia.prepend_as(signer);
    }
    if let Some(cost) = spec.wiser_cost {
        set_path_cost(&mut ia, cost);
    }
    if let Some(cost) = spec.hlp_cost {
        ia.set_path_descriptor(ProtocolId::HLP, HLP_PATH_COST, cost.to_be_bytes().to_vec());
    }
    if let Some(bw) = spec.bandwidth {
        let value = bw.to_be_bytes().to_vec();
        ia.set_path_descriptor(ProtocolId::EQBGP, dkey::EQBGP_BOTTLENECK_BW, value);
    }
    if spec.pathlets > 0 {
        let pathlets: Vec<_> = (0..spec.pathlets).map(|i| Pathlet::between(i + 1, 1, 2)).collect();
        ia.with_records(|r| r.island_descriptors.push(egress_translate(IslandId(7), &pathlets)));
    }
    if spec.scion_paths > 0 {
        let paths = (0..spec.scion_paths).map(|i| vec![70, i, 1]).collect();
        ia.with_records(|r| {
            r.island_descriptors.push(IslandDescriptor::new(
                IslandId(8),
                ProtocolId::SCION,
                dkey::SCION_PATHS,
                PathSet { paths }.to_bytes(),
            ))
        });
    }
    ia
}

fn candidates<'a>(specs: &[Spec], ias: &'a [Ia]) -> Vec<CandidateIa<'a>> {
    let mut next_id = 0;
    specs
        .iter()
        .zip(ias)
        .map(|(spec, ia)| {
            let neighbor = NeighborId(next_id + spec.id_gap);
            next_id = neighbor.0 + 1;
            CandidateIa { neighbor, neighbor_as: spec.neighbor_as, ia }
        })
        .collect()
}

/// `select_best` is the parent's pick, and the parent's pick is the
/// minimum of a rank no two neighbors share.
fn check<M: DecisionModule>(
    name: &str,
    module: &mut M,
    cands: &[CandidateIa<'_>],
    parent: Option<usize>,
) -> TestCaseResult {
    prop_assert_eq!(module.select_best(prefix(), cands), parent, "{}: select_best", name);
    let ranks: Vec<Rank> = cands.iter().map(|c| module.rank(prefix(), c)).collect();
    prop_assert_eq!((0..ranks.len()).min_by_key(|&i| ranks[i]), parent, "{}: minimum rank", name);
    for (i, a) in ranks.iter().enumerate() {
        for b in &ranks[i + 1..] {
            prop_assert_ne!(a, b, "{}: two neighbors share a rank", name);
        }
    }
    Ok(())
}

/// What MIRO, R-BGP and the address-mapping module each spelled out.
fn shortest_then_lowest_as(cands: &[CandidateIa<'_>]) -> Option<usize> {
    cands.iter().enumerate().min_by_key(|(_, c)| (c.ia.hop_count(), c.neighbor_as)).map(|(i, _)| i)
}

fn parent_baseline_key(c: &CandidateIa<'_>) -> (usize, u32, u32) {
    (c.ia.hop_count(), c.neighbor_as, c.neighbor.0)
}

/// `BgpDecision::explain_best` as it was written by hand.
fn parent_baseline_explain(candidates: &[CandidateIa<'_>], best: usize) -> SelectionReason {
    if candidates.len() == 1 {
        return SelectionReason::OnlyCandidate;
    }
    let key = |c: &CandidateIa<'_>| (c.ia.hop_count(), c.neighbor_as, c.neighbor.0);
    let winner = key(&candidates[best]);
    let runner_up =
        candidates.iter().enumerate().filter(|(i, _)| *i != best).map(|(_, c)| key(c)).min();
    match runner_up {
        Some(r) if winner.0 != r.0 => SelectionReason::ShortestPath,
        Some(r) if winner.1 != r.1 => SelectionReason::NeighborAs,
        Some(_) => SelectionReason::NeighborId,
        None => SelectionReason::OnlyCandidate,
    }
}

/// `RankedPolicyModule::explain_best` as it was written by hand.
fn parent_ranked_explain(
    module: &RankedPolicyModule,
    candidates: &[CandidateIa<'_>],
    best: usize,
) -> SelectionReason {
    if candidates.len() == 1 {
        return SelectionReason::OnlyCandidate;
    }
    let winner_rank = module.rank_of(candidates[best].ia);
    let runner_up = candidates
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != best)
        .map(|(_, c)| (module.rank_of(c.ia), parent_baseline_key(c)))
        .min();
    match runner_up {
        Some((r, _)) if winner_rank != r => SelectionReason::ModulePreference,
        Some((_, k)) if parent_baseline_key(&candidates[best]).0 != k.0 => {
            SelectionReason::ShortestPath
        }
        Some((_, k)) if parent_baseline_key(&candidates[best]).1 != k.1 => {
            SelectionReason::NeighborAs
        }
        Some(_) => SelectionReason::NeighborId,
        None => SelectionReason::OnlyCandidate,
    }
}

/// A ranking over some of the candidates' own paths, so listed and
/// unlisted paths both occur.
fn ranked_module(cands: &[CandidateIa<'_>], listed: &[bool]) -> RankedPolicyModule {
    let prefs = cands.iter().zip(listed).filter(|(_, &on)| on);
    RankedPolicyModule::with_prefs(prefs.filter_map(|(c, _)| as_sequence(c.ia)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_module_selects_what_its_closure_selected(
        specs in proptest::collection::vec(arb_spec(), 0..8),
        listed in proptest::collection::vec(any::<bool>(), 8),
        their_sum in 1u64..4000,
    ) {
        let ias: Vec<Ia> = specs.iter().map(build).collect();
        let cands = candidates(&specs, &ias);
        let cands = cands.as_slice();

        let parent = cands.iter().enumerate().min_by_key(|(_, c)| parent_baseline_key(c)).map(|(i, _)| i);
        check("bgp", &mut BgpDecision::new(), cands, parent)?;

        let mut ranked = ranked_module(cands, &listed);
        let parent = cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| (ranked.rank_of(c.ia), parent_baseline_key(c)))
            .map(|(i, _)| i);
        check("ranked", &mut ranked, cands, parent)?;

        // Wiser with a learned scale for AS 100: something sent there,
        // then its report of what it received.
        let mut wiser = WiserModule::new(IslandId(3), Ipv4Addr::new(1, 1, 1, 1), 7);
        let to_100 =
            ExportContext { neighbor: NeighborId(0), neighbor_as: 100, local_as: LOCAL_AS, prefix: prefix() };
        wiser.export(&mut Ia::originate(prefix(), Ipv4Addr::new(9, 9, 9, 9)), to_100);
        wiser.deliver_oob(100, &CostReport { reporter: 100, sum: their_sum, count: 2 }.to_bytes());
        let parent = cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| {
                let cost = path_cost(c.ia)
                    .map(|raw| raw.saturating_mul(wiser.scale_for(c.neighbor_as)) / 1000)
                    .unwrap_or(u64::MAX);
                (cost, c.ia.hop_count(), c.neighbor_as)
            })
            .map(|(i, _)| i);
        check("wiser", &mut wiser, cands, parent)?;

        // HLP with link-state distances to the members in AS 100 and 101.
        let mut hlp = HlpModule::new(IslandId(5), 1, 7);
        hlp.register_member(100, 2);
        hlp.register_member(101, 3);
        hlp.make_lsa(vec![(2, 5), (3, 10)]);
        let internal = |asn: u32| match asn {
            100 => hlp.lsdb().distance(1, 2).unwrap_or(0),
            101 => hlp.lsdb().distance(1, 3).unwrap_or(0),
            _ => 0,
        };
        let parent = cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| {
                let external = hlp_cost(c.ia).unwrap_or(0);
                (external.saturating_add(internal(c.neighbor_as)), c.ia.hop_count(), c.neighbor_as)
            })
            .map(|(i, _)| i);
        check("hlp", &mut hlp, cands, parent)?;

        let mut bgpsec = BgpsecModule::new(LOCAL_AS, anchor(), false);
        for (spec, c) in specs.iter().zip(cands) {
            prop_assert_eq!(bgpsec.status(c.ia), spec.chain);
        }
        let parent = cands
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| {
                let rank = match bgpsec.status(c.ia) {
                    ChainStatus::Valid => 0u8,
                    ChainStatus::Absent => 1,
                    ChainStatus::Broken => 2,
                };
                (rank, c.ia.hop_count(), c.neighbor_as)
            })
            .map(|(i, _)| i);
        check("bgpsec", &mut bgpsec, cands, parent)?;

        let parent = cands
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| {
                (bottleneck_bw(c.ia).unwrap_or(0), Reverse(c.ia.hop_count()), Reverse(c.neighbor_as))
            })
            .map(|(i, _)| i);
        check("eqbgp", &mut BottleneckBwModule::new(100), cands, parent)?;

        let parent = cands
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| {
                let pathlet_count: usize =
                    c.ia.island_descriptors_for(ProtocolId::PATHLET)
                        .filter(|d| d.key == dkey::PATHLET_PATHLETS)
                        .filter_map(|d| decode_pathlets(&d.value))
                        .map(|v| v.len())
                        .sum();
                (pathlet_count, Reverse(c.ia.hop_count()), Reverse(c.neighbor_as))
            })
            .map(|(i, _)| i);
        check("pathlet", &mut PathletModule::new(IslandId(6), 1, Vec::new()), cands, parent)?;

        let parent = cands
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| {
                (total_paths(c.ia, 10), Reverse(c.ia.hop_count()), Reverse(c.neighbor_as))
            })
            .map(|(i, _)| i);
        check("scion", &mut ScionModule::new(IslandId(8), PathSet::default()), cands, parent)?;

        let parent = shortest_then_lowest_as(cands);
        check("miro", &mut MiroModule::new(IslandId(9), Ipv4Addr::new(2, 2, 2, 2)), cands, parent)?;
        check("rbgp", &mut RbgpModule::new(), cands, parent)?;
        check("addrmap", &mut AddrMapModule::new(IslandId(10), Ipv4Addr::new(3, 3, 3, 3)), cands, parent)?;
    }

    #[test]
    fn explain_best_names_the_rung_the_hand_written_explainers_named(
        specs in proptest::collection::vec(arb_spec(), 1..8),
        listed in proptest::collection::vec(any::<bool>(), 8),
    ) {
        let ias: Vec<Ia> = specs.iter().map(build).collect();
        let cands = candidates(&specs, &ias);
        let cands = cands.as_slice();

        let mut bgp = BgpDecision::new();
        let best = bgp.select_best(prefix(), cands).expect("one candidate at least");
        prop_assert_eq!(
            explain_best(&mut bgp, prefix(), cands, best),
            parent_baseline_explain(cands, best)
        );

        let mut ranked = ranked_module(cands, &listed);
        let best = ranked.select_best(prefix(), cands).expect("one candidate at least");
        let parent = parent_ranked_explain(&ranked, cands, best);
        prop_assert_eq!(explain_best(&mut ranked, prefix(), cands, best), parent);
    }
}
