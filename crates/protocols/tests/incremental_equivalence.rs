//! The incremental decision process is an optimization, never a
//! semantic: for every module that declares `incremental_safe`, a
//! speaker with the fast path on and a twin with it forced off must
//! produce byte-identical outputs, installed bests and routes under
//! arbitrary announce/withdraw interleavings — including the two edges
//! the fast path must NOT take (the best's own source re-advertising,
//! and the best being withdrawn). A module that does not declare
//! safety (here: one whose selection inverts the baseline order, so
//! "strictly worse" pruning would flip its winners) must be refused
//! the fast path entirely.

use dbgp_core::module::{CandidateIa, DecisionModule};
use dbgp_core::{DbgpConfig, DbgpNeighbor, DbgpSpeaker, IslandConfig, NeighborId};
use dbgp_protocols::hlp::{HlpModule, HLP_PATH_COST};
use dbgp_protocols::{RankedPolicyModule, WiserModule};
use dbgp_wire::ia::dkey;
use dbgp_wire::{Ia, Ipv4Addr, Ipv4Prefix, IslandId, ProtocolId};
use proptest::prelude::*;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn prefix() -> Ipv4Prefix {
    p("128.6.0.0/16")
}

/// Neighbor `i` (0..4) speaks for AS `i + 1`.
const NEIGHBORS: usize = 4;

/// An incoming IA from neighbor `n`: the neighbor's own AS first, then
/// the generated tail (kept clear of our AS 9 and the neighbor ASes so
/// loop detection never fires asymmetrically), optionally carrying a
/// protocol cost descriptor.
fn ia_from(n: usize, tail: &[u32], cost: Option<(ProtocolId, u16, u64)>) -> Ia {
    let mut ia = Ia::originate(prefix(), Ipv4Addr::new(10, 0, 0, n as u8 + 1));
    for &hop in tail.iter().rev() {
        ia.prepend_as(hop);
    }
    ia.prepend_as(n as u32 + 1);
    if let Some((proto, key, value)) = cost {
        ia.set_path_descriptor(proto, key, value.to_be_bytes().to_vec());
    }
    ia
}

fn add_neighbors(speaker: &mut DbgpSpeaker, island: bool) {
    for n in 0..NEIGHBORS {
        let asn = n as u32 + 1;
        let neighbor =
            if island { DbgpNeighbor::island_peer(asn) } else { DbgpNeighbor::dbgp(asn) };
        speaker.add_neighbor(NeighborId(n as u32), neighbor);
    }
}

/// The modules under test, each with its builder and (for the island
/// protocols) the descriptor key generated announcements carry.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Module {
    Bgp,
    Ranked,
    Wiser,
    Hlp,
}

const MODULES: [Module; 4] = [Module::Bgp, Module::Ranked, Module::Wiser, Module::Hlp];

impl Module {
    fn build(self) -> DbgpSpeaker {
        let island = IslandConfig { id: IslandId(7), abstraction: false };
        match self {
            Module::Bgp => {
                let mut s = DbgpSpeaker::new(DbgpConfig::gulf(9));
                add_neighbors(&mut s, false);
                s
            }
            Module::Ranked => {
                let mut s = DbgpSpeaker::new(DbgpConfig::gulf(9));
                // Rank a handful of concrete paths the generator can
                // hit; everything else falls back to baseline order.
                s.register_module(Box::new(RankedPolicyModule::with_prefs(vec![
                    vec![3, 20],
                    vec![1, 10],
                    vec![2],
                    vec![4, 20, 10],
                ])));
                add_neighbors(&mut s, false);
                s
            }
            Module::Wiser => {
                let mut s =
                    DbgpSpeaker::new(DbgpConfig::island_member(9, island, ProtocolId::WISER));
                s.register_module(Box::new(WiserModule::new(
                    IslandId(7),
                    Ipv4Addr::new(10, 0, 0, 9),
                    5,
                )));
                add_neighbors(&mut s, true);
                s
            }
            Module::Hlp => {
                let mut s = DbgpSpeaker::new(DbgpConfig::island_member(9, island, ProtocolId::HLP));
                s.register_module(Box::new(HlpModule::new(IslandId(7), 9, 5)));
                add_neighbors(&mut s, true);
                s
            }
        }
    }

    /// The path-descriptor slot announcements feed this module's
    /// selection key through (None: cost-less baseline/ranked).
    fn cost_key(self) -> Option<(ProtocolId, u16)> {
        match self {
            Module::Bgp | Module::Ranked => None,
            Module::Wiser => Some((ProtocolId::WISER, dkey::WISER_PATH_COST)),
            Module::Hlp => Some((ProtocolId::HLP, HLP_PATH_COST)),
        }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Announce { neighbor: usize, tail: Vec<u32>, cost: u64 },
    Withdraw { neighbor: usize },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0..NEIGHBORS, proptest::collection::vec(10u32..40, 0..4), 0u64..100)
                .prop_map(|(neighbor, tail, cost)| Op::Announce { neighbor, tail, cost }),
            (0..NEIGHBORS, proptest::collection::vec(10u32..40, 0..4), 0u64..100)
                .prop_map(|(neighbor, tail, cost)| Op::Announce { neighbor, tail, cost }),
            (0..NEIGHBORS, proptest::collection::vec(10u32..40, 0..4), 0u64..100)
                .prop_map(|(neighbor, tail, cost)| Op::Announce { neighbor, tail, cost }),
            (0..NEIGHBORS).prop_map(|neighbor| Op::Withdraw { neighbor }),
        ],
        1..40,
    )
}

/// Drive fast and slow twins through `ops`, asserting identical outputs
/// and installed bests after every single step. Returns the fast twin's
/// fast-path hit count.
fn assert_twins_equivalent(module: Module, ops: &[Op]) -> u64 {
    let mut fast = module.build();
    let mut slow = module.build();
    slow.set_incremental(false);
    for (step, op) in ops.iter().enumerate() {
        let (fast_out, slow_out) = match op {
            Op::Announce { neighbor, tail, cost } => {
                let ia = ia_from(
                    *neighbor,
                    tail,
                    module.cost_key().map(|(proto, key)| (proto, key, *cost)),
                );
                (
                    fast.receive_ia(NeighborId(*neighbor as u32), ia.clone()),
                    slow.receive_ia(NeighborId(*neighbor as u32), ia),
                )
            }
            Op::Withdraw { neighbor } => (
                fast.receive_withdraw(NeighborId(*neighbor as u32), prefix()),
                slow.receive_withdraw(NeighborId(*neighbor as u32), prefix()),
            ),
        };
        assert_eq!(fast_out, slow_out, "{module:?}: outputs diverged at step {step} on {op:?}");
        assert_eq!(
            fast.best(&prefix()),
            slow.best(&prefix()),
            "{module:?}: installed best diverged at step {step} on {op:?}"
        );
    }
    let fast_routes: Vec<_> = fast.routes().collect();
    let slow_routes: Vec<_> = slow.routes().collect();
    assert_eq!(fast_routes, slow_routes, "{module:?}: final Loc-RIBs diverged");
    assert_eq!(slow.full_scans_avoided(), 0, "the slow twin must never fast-path");
    fast.full_scans_avoided()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random interleavings (duplicate-neighbor re-advertisements and
    /// best-withdrawals arise constantly at 4 neighbors × 40 ops) keep
    /// every incremental-safe module's twins in lockstep.
    #[test]
    fn incremental_equals_full_scan_for_every_safe_module(ops in arb_ops()) {
        for module in MODULES {
            assert_twins_equivalent(module, &ops);
        }
    }
}

/// The two edges the fast path must refuse, pinned deterministically
/// per module: the best's own source re-advertising (the incumbent is
/// replaced, so "worse than the incumbent" proves nothing) and the best
/// itself being withdrawn — plus a duplicate re-advertisement from the
/// losing neighbor, which IS eligible. The strictly-worse arrival
/// must fast-path at least once in the sequence.
#[test]
fn readvertisement_and_best_withdrawal_edges_hold_per_module() {
    for module in MODULES {
        let worse_cost = 80;
        let ops = vec![
            // A good route, then a strictly worse challenger.
            Op::Announce { neighbor: 0, tail: vec![10], cost: 2 },
            Op::Announce { neighbor: 1, tail: vec![20, 21, 22], cost: worse_cost },
            // The losing neighbor re-advertises (still worse): eligible.
            Op::Announce { neighbor: 1, tail: vec![20, 21, 23], cost: worse_cost },
            // The BEST's source re-advertises a much worse route: the
            // incumbent itself is replaced — never eligible. Selection
            // must move to neighbor 1.
            Op::Announce { neighbor: 0, tail: vec![10, 11, 12, 13], cost: 99 },
            // Withdraw the non-best, then the best.
            Op::Announce { neighbor: 2, tail: vec![30, 31, 32, 33], cost: 99 },
            Op::Withdraw { neighbor: 2 },
            Op::Withdraw { neighbor: 1 },
            Op::Withdraw { neighbor: 0 },
        ];
        let hits = assert_twins_equivalent(module, &ops);
        assert!(hits > 0, "{module:?}: the strictly-worse arrival never fast-pathed");
    }
}

/// A selection order the baseline's "strictly worse" pruning inverts:
/// longest path wins. The module keeps `incremental_safe` at its
/// default `false`, so the speaker must refuse the fast path — and the
/// long (baseline-worse) arrival must still WIN, which is exactly the
/// outcome a wrongly-applied fast path would have skipped.
#[derive(Debug)]
struct LongestPathWins;

impl DecisionModule for LongestPathWins {
    fn protocol(&self) -> ProtocolId {
        ProtocolId::BGP
    }

    fn select_best(
        &mut self,
        _prefix: Ipv4Prefix,
        candidates: &[CandidateIa<'_>],
    ) -> Option<usize> {
        candidates
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| (c.ia.hop_count(), c.neighbor_as))
            .map(|(i, _)| i)
    }
}

#[test]
fn a_module_without_the_safety_declaration_is_refused_the_fast_path() {
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
    speaker.register_module(Box::new(LongestPathWins));
    add_neighbors(&mut speaker, false);
    speaker.receive_ia(NeighborId(0), ia_from(0, &[10], None));
    assert_eq!(speaker.best(&prefix()).unwrap().neighbor, Some(NeighborId(0)));
    // Baseline-strictly-worse (longer path, different neighbor): the
    // textbook fast-path candidate — but under this module it wins, so
    // taking the fast path would install the wrong route.
    speaker.receive_ia(NeighborId(1), ia_from(1, &[20, 21, 22], None));
    assert_eq!(
        speaker.best(&prefix()).unwrap().neighbor,
        Some(NeighborId(1)),
        "the longest path must win under the module's order"
    );
    assert_eq!(
        speaker.full_scans_avoided(),
        0,
        "an unsafe module must never be granted the fast path"
    );
    // Withdrawing the loser is also ineligible without the declaration.
    speaker.receive_withdraw(NeighborId(0), prefix());
    assert_eq!(speaker.full_scans_avoided(), 0);
    assert_eq!(speaker.best(&prefix()).unwrap().neighbor, Some(NeighborId(1)));
}
