//! The speaker's one per-prefix table, driven through the public API:
//! the incremental fast path against its full-scan twin (hand-written
//! edges, then random operation sequences), the per-class export cache
//! across a fan-out, and reclamation of idle entries.

use dbgp_core::module::{DecisionModule, ExportContext};
use dbgp_core::{
    BgpDecision, DbgpConfig, DbgpNeighbor, DbgpOutput, DbgpSpeaker, NeighborId, PeerClass,
};
use dbgp_wire::{BgpAttrs, Ia, Ipv4Addr, Ipv4Prefix, ProtocolId};
use proptest::prelude::*;
use std::sync::Arc;

fn p(s: &str) -> Ipv4Prefix {
    s.parse().unwrap()
}

fn nh(n: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, n)
}

/// A pair of identically configured speakers, one with the
/// incremental fast path disabled, fed the same inputs.
fn fast_slow_pair() -> (DbgpSpeaker, DbgpSpeaker) {
    let mk = || {
        let mut s = DbgpSpeaker::new(DbgpConfig::gulf(9));
        s.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
        s.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(2));
        s.add_neighbor(NeighborId(2), DbgpNeighbor::dbgp(3));
        s
    };
    let fast = mk();
    let mut slow = mk();
    slow.set_incremental(false);
    (fast, slow)
}

fn hops_ia(nexthop: u8, hops: &[u32]) -> Ia {
    let mut ia = Ia::originate(p("10.0.0.0/8"), nh(nexthop));
    for &h in hops.iter().rev() {
        ia.prepend_as(h);
    }
    ia
}

#[test]
fn strictly_worse_arrival_takes_fast_path_with_identical_outputs() {
    let (mut fast, mut slow) = fast_slow_pair();
    let good = hops_ia(1, &[1]);
    assert_eq!(fast.receive_ia(NeighborId(0), good.clone()), slow.receive_ia(NeighborId(0), good));
    // Two hops from a different neighbor: provably strictly worse.
    let worse = hops_ia(2, &[2, 50]);
    assert_eq!(
        fast.receive_ia(NeighborId(1), worse.clone()),
        slow.receive_ia(NeighborId(1), worse)
    );
    assert_eq!(fast.full_scans_avoided(), 1);
    assert_eq!(slow.full_scans_avoided(), 0);
    // Withdrawing the non-best candidate is also a provable no-op.
    assert_eq!(
        fast.receive_withdraw(NeighborId(1), p("10.0.0.0/8")),
        slow.receive_withdraw(NeighborId(1), p("10.0.0.0/8"))
    );
    assert_eq!(fast.full_scans_avoided(), 2);
    // Withdrawing the best forces the full scan on both.
    assert_eq!(
        fast.receive_withdraw(NeighborId(0), p("10.0.0.0/8")),
        slow.receive_withdraw(NeighborId(0), p("10.0.0.0/8"))
    );
    assert_eq!(fast.full_scans_avoided(), 2);
    assert_eq!(fast.best(&p("10.0.0.0/8")), slow.best(&p("10.0.0.0/8")));
}

#[test]
fn best_source_readvertisement_takes_full_scan() {
    let (mut fast, mut slow) = fast_slow_pair();
    fast.receive_ia(NeighborId(0), hops_ia(1, &[1]));
    slow.receive_ia(NeighborId(0), hops_ia(1, &[1]));
    // The best's own source re-advertises a longer path: the
    // incumbent itself is replaced, so the fast path must not fire
    // and selection must move to the other candidate.
    fast.receive_ia(NeighborId(1), hops_ia(2, &[2, 60]));
    slow.receive_ia(NeighborId(1), hops_ia(2, &[2, 60]));
    let long = hops_ia(1, &[1, 70, 71]);
    assert_eq!(fast.receive_ia(NeighborId(0), long.clone()), slow.receive_ia(NeighborId(0), long));
    assert_eq!(fast.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(1)));
    assert_eq!(fast.best(&p("10.0.0.0/8")), slow.best(&p("10.0.0.0/8")));
    assert_eq!(fast.full_scans_avoided(), 1, "only the strictly-worse arrival fast-paths");
}

#[test]
fn originated_prefix_arrivals_fast_path_without_module_involvement() {
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
    speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
    speaker.originate(p("10.0.0.0/8"), nh(9));
    let outs = speaker.receive_ia(NeighborId(0), hops_ia(1, &[1]));
    assert!(outs.is_empty(), "a learned route never displaces a local origination");
    assert_eq!(speaker.full_scans_avoided(), 1);
    assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, None);
    // Withdrawing the origination re-scans and promotes the stored IA.
    let outs = speaker.withdraw_origin(p("10.0.0.0/8"));
    assert!(outs.iter().any(|o| matches!(o, DbgpOutput::BestChanged(..))));
    assert_eq!(speaker.best(&p("10.0.0.0/8")).unwrap().neighbor, Some(NeighborId(0)));
}

#[test]
fn module_swap_poisons_fast_path_until_rescan() {
    let (mut fast, mut slow) = fast_slow_pair();
    for s in [&mut fast, &mut slow] {
        s.receive_ia(NeighborId(0), hops_ia(1, &[1]));
        s.receive_ia(NeighborId(1), hops_ia(2, &[2, 50]));
        // Replacing the active module invalidates the recorded
        // decision state; the next arrival must take a full scan
        // even though the new module is also incremental-safe.
        s.register_module(Box::new(BgpDecision::new()));
    }
    let worse = hops_ia(3, &[3, 51, 52]);
    assert_eq!(
        fast.receive_ia(NeighborId(2), worse.clone()),
        slow.receive_ia(NeighborId(2), worse)
    );
    assert_eq!(fast.full_scans_avoided(), 1, "post-swap arrival full-scans");
    // The full scan re-recorded the epoch; the fast path is live again.
    fast.receive_ia(NeighborId(2), hops_ia(3, &[3, 51, 53]));
    assert_eq!(fast.full_scans_avoided(), 2);
}

#[test]
fn fan_out_shares_one_export_when_best_is_not_the_lowest_neighbor() {
    // Four uniform-export neighbors of one class; the best is learned
    // from neighbor 2, so the fan-out meets the split-horizon neighbor
    // in mid-walk. It must not cost the neighbors after it a second
    // factory run: hosts key their encode caches on the `Arc`.
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
    for n in 0..4 {
        speaker.add_neighbor(NeighborId(n), DbgpNeighbor::dbgp(n + 1));
    }
    let outs = speaker.receive_ia(NeighborId(2), hops_ia(3, &[3]));
    let sent: Vec<(u32, &Arc<Ia>)> = outs
        .iter()
        .filter_map(|o| match o {
            DbgpOutput::SendIa(n, ia) => Some((n.0, ia)),
            _ => None,
        })
        .collect();
    assert_eq!(sent.iter().map(|(n, _)| *n).collect::<Vec<_>>(), vec![0, 1, 3]);
    assert!(sent.iter().all(|(_, ia)| Arc::ptr_eq(ia, sent[0].1)), "one build, shared by all");
    assert_eq!((speaker.exports_built(), speaker.exports_shared()), (1, 2));
    // A late neighbor of the same class is served from the entry too.
    let outs = speaker.add_neighbor(NeighborId(4), DbgpNeighbor::dbgp(5));
    assert!(
        matches!(&outs[..], [DbgpOutput::SendIa(NeighborId(4), ia)] if Arc::ptr_eq(ia, sent[0].1))
    );
    assert_eq!((speaker.exports_built(), speaker.exports_shared()), (1, 3));
}

#[test]
fn a_shared_arrival_is_stored_as_handed_in_and_copied_only_to_strip() {
    // One decoded IA handed to two speakers, as a host does with a frame
    // that fans out: the one that filters nothing stores the very
    // allocation; the one that strips Wiser copies it first, and neither
    // the caller's IA nor the other speaker's loses the descriptor.
    let cost = dbgp_wire::ia::dkey::WISER_PATH_COST;
    let mut ia = hops_ia(1, &[1]);
    ia.set_path_descriptor(ProtocolId::WISER, cost, 7u64.to_be_bytes().to_vec());
    let shared = Arc::new(ia);
    let prefix = p("10.0.0.0/8");

    let mut plain = DbgpSpeaker::new(DbgpConfig::gulf(9));
    plain.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
    let mut cfg = DbgpConfig::gulf(9);
    cfg.filters.strip_protocols = vec![ProtocolId::WISER];
    let mut stripping = DbgpSpeaker::new(cfg);
    stripping.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));

    plain.receive_ia(NeighborId(0), Arc::clone(&shared));
    stripping.receive_ia(NeighborId(0), Arc::clone(&shared));

    let kept = plain.iadb().get(NeighborId(0), &prefix).expect("stored");
    assert!(Arc::ptr_eq(kept, &shared), "a speaker that changes nothing shares the allocation");
    let stripped = stripping.iadb().get(NeighborId(0), &prefix).expect("stored");
    assert!(!Arc::ptr_eq(stripped, &shared), "a speaker that strips copies first");
    assert!(stripped.path_descriptor(ProtocolId::WISER, cost).is_none());
    assert!(shared.path_descriptor(ProtocolId::WISER, cost).is_some(), "the caller's IA is whole");
    assert!(kept.path_descriptor(ProtocolId::WISER, cost).is_some());
}

/// A LOCAL_PREF from a neighbor — always another AS — is not stored,
/// and the arrival is copied to drop it; one that carries only a MED is
/// stored as handed in.
#[test]
fn a_neighbors_local_pref_is_ignored_and_only_then_is_the_arrival_copied() {
    let prefix = p("10.0.0.0/8");
    let mut speaker = DbgpSpeaker::new(DbgpConfig::gulf(9));
    speaker.add_neighbor(NeighborId(0), DbgpNeighbor::dbgp(1));
    speaker.add_neighbor(NeighborId(1), DbgpNeighbor::dbgp(2));
    let with_med = |local_pref| {
        let mut ia = hops_ia(1, &[1]);
        ia.bgp = Some(Box::new(BgpAttrs { med: Some(5), local_pref, extras: Vec::new() }));
        Arc::new(ia)
    };

    let shared = with_med(Some(300));
    speaker.receive_ia(NeighborId(0), Arc::clone(&shared));
    let stored = speaker.iadb().get(NeighborId(0), &prefix).expect("stored");
    assert!(!Arc::ptr_eq(stored, &shared), "copied to drop the LOCAL_PREF");
    assert_eq!(stored.bgp.as_deref(), Some(&BgpAttrs { med: Some(5), ..BgpAttrs::default() }));
    assert_eq!(shared.bgp.as_ref().unwrap().local_pref, Some(300), "the caller's IA is whole");

    let shared = with_med(None);
    speaker.receive_ia(NeighborId(1), Arc::clone(&shared));
    let stored = speaker.iadb().get(NeighborId(1), &prefix).expect("stored");
    assert!(Arc::ptr_eq(stored, &shared), "nothing to drop, nothing copied");
}

// ----- random operation sequences -------------------------------------------

const PREFIXES: [&str; 5] =
    ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.1.0/24", "192.168.0.0/16"];
const NEIGHBORS: u32 = 5;
const LOCAL_AS: u32 = 9;

/// A resident (never active) module whose export stamps the neighbor it
/// is for: not uniform, so registering it turns the per-class cache and
/// the fan-out skip off.
struct Stamp;

impl DecisionModule for Stamp {
    fn protocol(&self) -> ProtocolId {
        ProtocolId(77)
    }
    fn export(&mut self, ia: &mut Ia, ctx: ExportContext) {
        ia.set_path_descriptor(ProtocolId(77), 1, ctx.neighbor_as.to_be_bytes().to_vec());
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Neighbor `n` announces prefix `at` over `tail` (our own AS in the
    /// tail is a loop: the global import filter rejects it).
    Announce {
        n: u32,
        at: usize,
        tail: Vec<u32>,
    },
    Withdraw {
        n: u32,
        at: usize,
    },
    NeighborDown(u32),
    AddNeighbor {
        n: u32,
        legacy: bool,
    },
    Originate(usize),
    WithdrawOrigin(usize),
    RegisterModule {
        stamp: bool,
    },
}

/// Announcements and withdrawals dominate; one hop in nine is our own AS.
fn arb_op() -> impl Strategy<Value = Op> {
    let tail = proptest::collection::vec(0u32..9, 0..3);
    (0u32..17, 0..NEIGHBORS, 0..PREFIXES.len(), tail, any::<bool>()).prop_map(
        |(kind, n, at, tail, flag)| match kind {
            0..=7 => {
                let tail = tail.iter().map(|&h| if h == 8 { LOCAL_AS } else { 20 + h }).collect();
                Op::Announce { n, at, tail }
            }
            8..=11 => Op::Withdraw { n, at },
            12 => Op::NeighborDown(n),
            13 => Op::AddNeighbor { n, legacy: flag },
            14 => Op::Originate(at),
            15 => Op::WithdrawOrigin(at),
            _ => Op::RegisterModule { stamp: flag },
        },
    )
}

fn neighbor(n: u32, legacy: bool) -> DbgpNeighbor {
    let base = if legacy { DbgpNeighbor::legacy(n + 1) } else { DbgpNeighbor::dbgp(n + 1) };
    match n {
        0 => base.with_class(PeerClass::Provider),
        1 => base.with_class(PeerClass::Peer),
        2 | 4 => base.with_class(PeerClass::Customer),
        _ => base,
    }
}

fn apply(speaker: &mut DbgpSpeaker, op: &Op) -> Vec<DbgpOutput> {
    match op {
        Op::Announce { n, at, tail } => {
            let mut ia = Ia::originate(p(PREFIXES[*at]), nh(*n as u8 + 1));
            for &hop in tail.iter().rev() {
                ia.prepend_as(hop);
            }
            ia.prepend_as(n + 1);
            speaker.receive_ia(NeighborId(*n), ia)
        }
        Op::Withdraw { n, at } => speaker.receive_withdraw(NeighborId(*n), p(PREFIXES[*at])),
        Op::NeighborDown(n) => speaker.neighbor_down(NeighborId(*n)),
        Op::AddNeighbor { n, legacy } => {
            speaker.add_neighbor(NeighborId(*n), neighbor(*n, *legacy))
        }
        Op::Originate(at) => speaker.originate(p(PREFIXES[*at]), nh(LOCAL_AS as u8)),
        Op::WithdrawOrigin(at) => speaker.withdraw_origin(p(PREFIXES[*at])),
        Op::RegisterModule { stamp: true } => {
            speaker.register_module(Box::new(Stamp));
            Vec::new()
        }
        Op::RegisterModule { stamp: false } => {
            speaker.register_module(Box::new(BgpDecision::new()));
            Vec::new()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fast path on and off are the same speaker: equal outputs at
    /// every step and equal tables after, whatever the interleaving —
    /// and no idle entry outlives the last thing known about its prefix,
    /// so once everything is withdrawn the table is empty.
    #[test]
    fn twins_agree_and_idle_entries_are_reclaimed(
        valley_free in any::<bool>(),
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let mut twins = [true, false].map(|incremental| {
            let mut cfg = DbgpConfig::gulf(LOCAL_AS);
            cfg.filters.valley_free = valley_free;
            let mut s = DbgpSpeaker::new(cfg);
            s.set_incremental(incremental);
            for n in 0..NEIGHBORS - 1 {
                s.add_neighbor(NeighborId(n), neighbor(n, false));
            }
            s
        });
        // Tear down by withdrawal for some neighbors and by session loss
        // for the rest, so both reclaim paths run.
        let teardown = (0..PREFIXES.len())
            .flat_map(|at| {
                [Op::WithdrawOrigin(at), Op::Withdraw { n: 0, at }, Op::Withdraw { n: 1, at }]
            })
            .chain((2..NEIGHBORS).map(Op::NeighborDown));
        for op in ops.into_iter().chain(teardown) {
            let [fast, slow] = &mut twins;
            prop_assert_eq!(apply(fast, &op), apply(slow, &op), "outputs diverge at {:?}", op);
            prop_assert!(fast.routes().eq(slow.routes()), "tables diverge at {:?}", op);
            // An entry exists exactly while something is known about
            // its prefix (whatever was sent implies an installed best).
            for s in [&*fast, &*slow] {
                let known = PREFIXES.iter().map(|at| p(at)).filter(|at| {
                    s.best(at).is_some() || s.iadb().candidates(at).next().is_some()
                });
                let known = known.count();
                prop_assert_eq!(s.iadb().len(), known, "an idle entry leaked at {:?}", op);
            }
        }
        let [fast, slow] = &twins;
        prop_assert_eq!(slow.full_scans_avoided(), 0);
        prop_assert!(fast.iadb().is_empty() && slow.iadb().is_empty());
    }
}

/// `BestChanged` carries why the winner won, and every speaker call
/// returns a vector of these: the explanation took the place of the
/// prefix (`chosen.ia.prefix` says it again), and the size is the one
/// `BestChanged(Ipv4Prefix, Option<Chosen>)` had.
#[test]
fn the_output_did_not_grow() {
    assert_eq!(std::mem::size_of::<DbgpOutput>(), 24);
}
