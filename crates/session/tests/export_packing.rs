//! `RoutingCore` exports what it was sent packed: the route changes of
//! one section of one inbound UPDATE leave as one withdrawal run and one
//! multi-NLRI UPDATE per exported route, never one frame per prefix.
//! Packing must be invisible to the peer: replaying the UPDATEs a peer
//! was sent, in order, leaves it holding exactly what a twin core fed
//! the same prefixes one UPDATE each leaves it holding — and both are
//! held to a model of the export rules written out here, so that a
//! fault both twins share (a stale export handed to a new route) does
//! not pass as agreement. Sessions going down and coming back (a late
//! joiner is sent the table in ascending prefix order) and local
//! origination go through the same model, and when everything has been
//! withdrawn the table is empty again. Every emitted UPDATE must be a
//! legal frame, whatever the inbound attribute block grows to on export.

use dbgp_session::{
    LocRibEntry, NeighborConfig, PeerId, RibOp, Route, RouteSource, RoutingCore, SessionSummary,
};
use dbgp_wire::attrs::{AsPath, Origin, PathAttribute};
use dbgp_wire::message::{BgpMessage, UpdateMsg, MAX_MESSAGE_LEN};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

const LOCAL_AS: u32 = 65000;
/// Peers 0 and 1 feed routes (one eBGP, one iBGP, so both kinds of
/// installed route get exported); peers 2 and 3 only listen.
const FEEDERS: [(PeerId, u32); 2] = [(PeerId(0), 65001), (PeerId(1), LOCAL_AS)];
const EBGP_LISTENER: (PeerId, u32) = (PeerId(2), 65010);
const IBGP_LISTENER: (PeerId, u32) = (PeerId(3), LOCAL_AS);

/// Sixteen /24s: few enough that UPDATEs collide on prefixes.
fn prefix(i: u8) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, 0, i % 16, 0), 24).expect("a /24")
}

/// As many distinct /24s as a full frame or a full table needs.
fn table(routes: u32) -> Vec<Ipv4Prefix> {
    (0..routes)
        .map(|i| Ipv4Prefix::new(Ipv4Addr(0x1400_0000 | (i << 8)), 24).expect("a /24"))
        .collect()
}

const LOCAL_ADDR: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

/// Every peer with its AS, ascending by ID — the order a best-route
/// change is propagated in.
const PEERS: [(PeerId, u32); 4] = [FEEDERS[0], FEEDERS[1], EBGP_LISTENER, IBGP_LISTENER];

fn summary((id, asn): (PeerId, u32)) -> SessionSummary {
    SessionSummary {
        peer_as: asn,
        peer_id: Ipv4Addr::new(10, 0, 0, id.0 as u8 + 1),
        hold_time_ms: 90_000,
        four_octet: true,
        ia_support: false,
    }
}

fn core() -> RoutingCore {
    let mut core = RoutingCore::new(LOCAL_AS, LOCAL_ADDR);
    for (id, asn) in PEERS {
        core.add_peer(id, NeighborConfig::new(LOCAL_AS, LOCAL_ADDR, asn, LOCAL_ADDR));
        assert!(core.peer_up(id, summary((id, asn))).is_empty(), "nothing to dump yet");
    }
    core
}

/// One inbound UPDATE: who sends it, what it withdraws and announces,
/// and the attributes that tell its routes apart.
#[derive(Debug, Clone)]
struct Inbound {
    feeder: usize,
    withdrawn: Vec<u8>,
    nlri: Vec<u8>,
    path_tail: Vec<u32>,
    med: Option<u32>,
}

impl Inbound {
    fn attributes(&self) -> Vec<PathAttribute> {
        let (_, asn) = FEEDERS[self.feeder];
        // An eBGP feeder's path starts with its own AS; an iBGP one
        // relays someone else's.
        let mut path = if asn == LOCAL_AS { vec![64999] } else { vec![asn] };
        path.extend(&self.path_tail);
        let mut attrs = vec![
            PathAttribute::Origin(Origin::Igp),
            PathAttribute::AsPath(AsPath::from_sequence(path)),
            PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, self.feeder as u8 + 1)),
        ];
        attrs.extend(self.med.map(PathAttribute::Med));
        attrs
    }

    /// The UPDATE as the peer packed it.
    fn packed(&self) -> UpdateMsg {
        UpdateMsg {
            withdrawn: self.withdrawn.iter().map(|&i| prefix(i)).collect(),
            attributes: if self.nlri.is_empty() { Vec::new() } else { self.attributes() },
            nlri: self.nlri.iter().map(|&i| prefix(i)).collect(),
        }
    }

    /// The same changes, one prefix to an UPDATE, in the order a packed
    /// UPDATE is processed: withdrawals, then announcements.
    fn per_prefix(&self) -> Vec<UpdateMsg> {
        let withdrawals = self.withdrawn.iter().map(|&i| UpdateMsg::withdraw(vec![prefix(i)]));
        let announcements =
            self.nlri.iter().map(|&i| UpdateMsg::announce(vec![prefix(i)], self.attributes()));
        withdrawals.chain(announcements).collect()
    }
}

/// One thing that happens to the core.
#[derive(Debug, Clone)]
enum Step {
    Update(Inbound),
    /// The session with `PEERS[i]` — a feeder or a listener — goes
    /// down, or comes (back) up.
    PeerDown(usize),
    PeerUp(usize),
    Originate(u8),
    WithdrawOrigin(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    // Six UPDATEs in ten steps.
    (0u8..10, arb_inbound(), 0usize..4, 0u8..16).prop_map(|(kind, inbound, peer, i)| match kind {
        0 => Step::PeerDown(peer),
        1 => Step::PeerUp(peer),
        2 => Step::Originate(i),
        3 => Step::WithdrawOrigin(i),
        _ => Step::Update(inbound),
    })
}

fn arb_inbound() -> impl Strategy<Value = Inbound> {
    (
        0usize..FEEDERS.len(),
        proptest::collection::vec(0u8..16, 0..6),
        proptest::collection::vec(0u8..16, 0..10),
        proptest::collection::vec(100u32..104, 0..3),
        proptest::option::of(0u32..3),
    )
        .prop_map(|(feeder, withdrawn, nlri, path_tail, med)| Inbound {
            feeder,
            withdrawn,
            nlri,
            path_tail,
            med,
        })
}

/// RFC 4271 export, spelled out: what `peer` should hold when `best` is
/// installed and its session is `up`.
fn model_export(
    best: Option<&LocRibEntry>,
    (peer, peer_as): (PeerId, u32),
    up: bool,
) -> Option<Route> {
    let best = best.filter(|_| up)?;
    let ibgp = peer_as == LOCAL_AS;
    if let RouteSource::Peer(src) = best.source {
        let src_as = FEEDERS.iter().find(|(id, _)| *id == src).expect("only feeders feed").1;
        if src == peer || (ibgp && src_as == LOCAL_AS) {
            return None; // split horizon; no iBGP reflection
        }
    }
    Some(if ibgp {
        (*best.route).clone()
    } else {
        best.route.for_ebgp_export(LOCAL_AS, LOCAL_ADDR)
    })
}

/// What every peer holds, learned from nothing but the UPDATEs it was
/// sent: the receiving end of each session, as a model Adj-RIB-In.
#[derive(Default)]
struct Receivers {
    held: BTreeMap<(PeerId, Ipv4Prefix), Vec<PathAttribute>>,
    frames: BTreeMap<PeerId, usize>,
    /// Changes that changed nothing: a withdrawal of a prefix the peer
    /// did not hold, an announcement of the route it already held.
    redundant: usize,
}

impl Receivers {
    /// Receive the UPDATEs among `ops`, in order. Each must be a frame
    /// a peer would accept: no longer than 4096 bytes, naming at least
    /// one prefix and none twice.
    fn replay(&mut self, ops: &[RibOp]) {
        for op in ops {
            let RibOp::Announce(peer, update) = op else { continue };
            *self.frames.entry(*peer).or_default() += 1;
            let frame = BgpMessage::Update(update.clone()).encode(true);
            assert!(frame.len() <= MAX_MESSAGE_LEN, "a {} byte frame to {peer}", frame.len());
            let mut named = BTreeSet::new();
            for prefix in update.withdrawn.iter().chain(&update.nlri) {
                assert!(named.insert(*prefix), "{prefix} twice in one UPDATE to {peer}");
            }
            assert!(!named.is_empty(), "an UPDATE to {peer} that says nothing");
            for prefix in &update.withdrawn {
                self.redundant += usize::from(self.held.remove(&(*peer, *prefix)).is_none());
            }
            for prefix in &update.nlri {
                let before = self.held.insert((*peer, *prefix), update.attributes.clone());
                self.redundant += usize::from(before.as_ref() == Some(&update.attributes));
            }
        }
    }

    fn frames_to(&self, peer: PeerId) -> usize {
        self.frames.get(&peer).copied().unwrap_or(0)
    }

    fn holds(&self, peer: PeerId) -> Vec<Ipv4Prefix> {
        self.held.keys().filter(|(id, _)| *id == peer).map(|(_, prefix)| *prefix).collect()
    }

    /// The session with `peer` is gone, and with it all it was sent.
    fn reset(&mut self, peer: PeerId) {
        self.held.retain(|(id, _), _| *id != peer);
    }
}

/// The initial table transfer: nothing but UPDATEs to `peer`, each
/// attribute block's prefixes ascending across its frames, and the
/// blocks in the order of their first prefix.
fn assert_ascending_dump(ops: &[RibOp], peer: PeerId) {
    // (block, its first prefix, its last so far), as they appear.
    let mut blocks: Vec<(&Vec<PathAttribute>, Ipv4Prefix, Ipv4Prefix)> = Vec::new();
    for op in ops {
        let RibOp::Announce(to, update) = op else { panic!("{op:?} in a table dump") };
        assert!(*to == peer && update.withdrawn.is_empty(), "{op:?} in a dump to {peer}");
        assert!(update.nlri.windows(2).all(|w| w[0] < w[1]), "{:?}", update.nlri);
        let (first, last) = (update.nlri[0], *update.nlri.last().expect("non-empty"));
        match blocks.iter_mut().find(|(attrs, ..)| **attrs == update.attributes) {
            Some((_, _, seen)) => assert!(std::mem::replace(seen, last) < first, "{ops:?}"),
            None => {
                assert!(blocks.last().is_none_or(|(_, opened, _)| *opened < first), "{ops:?}");
                blocks.push((&update.attributes, first, last));
            }
        }
    }
}

fn feed(core: &mut RoutingCore, now: u64, feeder: usize, update: UpdateMsg) -> Vec<RibOp> {
    let (ops, err) = core.update(now, FEEDERS[feeder].0, update);
    assert!(err.is_none(), "generated UPDATEs are well-formed");
    ops
}

fn best_changes(ops: &[RibOp]) -> Vec<RibOp> {
    ops.iter().filter(|op| matches!(op, RibOp::BestRouteChanged(..))).cloned().collect()
}

fn installed(core: &RoutingCore) -> Vec<(Ipv4Prefix, LocRibEntry)> {
    core.loc_rib().iter().map(|(p, e)| (*p, e.clone())).collect()
}

/// Apply one non-UPDATE step to `core`; `None` if the step does not
/// apply to sessions in state `up`.
fn apply(core: &mut RoutingCore, now: u64, step: &Step, up: [bool; 4]) -> Option<Vec<RibOp>> {
    Some(match *step {
        Step::Update(_) => return None,
        Step::PeerDown(i) if up[i] => core.peer_down(now, PEERS[i].0),
        // Down already: nothing left to flush.
        Step::PeerDown(i) => {
            assert_eq!(core.peer_down(now, PEERS[i].0), []);
            return None;
        }
        Step::PeerUp(i) if !up[i] => {
            let ops = core.peer_up(PEERS[i].0, summary(PEERS[i]));
            assert_ascending_dump(&ops, PEERS[i].0);
            ops
        }
        Step::PeerUp(_) => return None,
        Step::Originate(i) => core.originate(now, prefix(i)),
        Step::WithdrawOrigin(i) => core.withdraw_origin(now, prefix(i)),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn packed_exports_leave_every_peer_holding_what_the_per_prefix_model_predicts(
        steps in proptest::collection::vec(arb_step(), 1..24),
    ) {
        let (mut packed, mut packed_rx) = (core(), Receivers::default());
        let (mut twin, mut twin_rx) = (core(), Receivers::default());
        let mut up = [true; 4];
        // Afterwards every feeder leaves and every origin is withdrawn.
        let close = (0..FEEDERS.len()).map(Step::PeerDown).chain((0..16).map(Step::WithdrawOrigin));
        for (now, step) in steps.iter().cloned().chain(close).enumerate() {
            let now = now as u64;
            let (got, want_best) = match &step {
                // A session that is down delivers nothing.
                Step::Update(update) if !up[update.feeder] => continue,
                Step::Update(update) => {
                    let got = feed(&mut packed, now, update.feeder, update.packed());
                    // The host's FIB still hears of every change, one
                    // prefix at a time, in the order the UPDATE listed them.
                    let mut want_best = Vec::new();
                    for single in update.per_prefix() {
                        let ops = feed(&mut twin, now, update.feeder, single);
                        twin_rx.replay(&ops);
                        want_best.extend(best_changes(&ops));
                    }
                    (got, want_best)
                }
                other => {
                    let Some(got) = apply(&mut packed, now, other, up) else { continue };
                    let ops = apply(&mut twin, now, other, up).expect("same sessions");
                    twin_rx.replay(&ops);
                    (got, best_changes(&ops))
                }
            };
            packed_rx.replay(&got);
            match step {
                Step::PeerDown(i) => {
                    up[i] = false;
                    packed_rx.reset(PEERS[i].0);
                    twin_rx.reset(PEERS[i].0);
                }
                Step::PeerUp(i) => up[i] = true,
                _ => {}
            }
            prop_assert_eq!(best_changes(&got), want_best, "step {} of {:?}", now, steps);
            prop_assert_eq!(installed(&packed), installed(&twin));
            prop_assert_eq!(packed.loc_rib().len(), packed.loc_rib().iter().count());

            let mut model = BTreeMap::new();
            for prefix in (0..16).map(prefix) {
                for (peer, up) in PEERS.into_iter().zip(up) {
                    let best = packed.loc_rib().get(&prefix);
                    if let Some(route) = model_export(best, peer, up) {
                        model.insert((peer.0, prefix), route.to_attrs(peer.1 == LOCAL_AS));
                    }
                }
            }
            prop_assert_eq!(&packed_rx.held, &model, "after step {} of {:?}", now, steps);
            prop_assert_eq!(&twin_rx.held, &model, "twin after step {} of {:?}", now, steps);
        }
        // Nothing received, originated, installed or sent is left: no
        // entry outlives its last route. (The bytes that remain are the
        // trie's arena, which keeps its capacity.)
        prop_assert_eq!((packed.prefixes(), twin.prefixes()), (0, 0));
        prop_assert!(packed.loc_rib().is_empty() && packed.adj_rib_in().is_empty());
        prop_assert_eq!(packed.rib_bytes(), packed.loc_rib().memory_bytes());
        // Nothing is sent that the peer already knew, packed or not, and
        // packing never costs a frame.
        prop_assert_eq!((packed_rx.redundant, twin_rx.redundant), (0, 0));
        for (peer, _) in PEERS {
            prop_assert!(packed_rx.frames_to(peer) <= twin_rx.frames_to(peer));
        }
        // Whatever one twin built per prefix the other built or shared.
        prop_assert_eq!(
            packed.exports_shared() + packed.exports_computed(),
            twin.exports_shared() + twin.exports_computed()
        );
        prop_assert!(packed.exports_computed() <= twin.exports_computed());
        prop_assert_eq!(packed.updates_out(), packed_rx.frames.values().sum::<usize>() as u64);
    }
}

/// The arrangement the daemon benchmark runs: one attribute block, many
/// NLRI, an eBGP listener. One export is built, the rest share it, and
/// all sixteen leave in one frame.
#[test]
fn one_update_is_sent_per_attribute_block() {
    let update = Inbound {
        feeder: 0,
        withdrawn: Vec::new(),
        nlri: (0..16).collect(),
        path_tail: vec![100],
        med: None,
    };
    let mut core = core();
    let mut rx = Receivers::default();
    rx.replay(&feed(&mut core, 1, 0, update.packed()));
    assert_eq!((rx.frames_to(EBGP_LISTENER.0), rx.frames_to(IBGP_LISTENER.0)), (1, 1));
    assert_eq!(rx.holds(EBGP_LISTENER.0), (0..16).map(prefix).collect::<Vec<_>>());
    assert_eq!((core.exports_computed(), core.exports_shared()), (1, 15));
    // The other feeder is a peer too: three frames of sixteen NLRI.
    assert_eq!((core.updates_out(), core.nlri_out()), (3, 48));
}

/// A late joiner is sent one UPDATE per attribute block, the blocks in
/// the order their first prefix comes in the table and each block's
/// prefixes ascending — however the blocks interleave.
#[test]
fn a_table_dump_groups_interleaved_blocks_in_first_seen_order() {
    let mut core = core();
    let ebgp = EBGP_LISTENER.0;
    core.peer_down(0, ebgp);
    // Prefixes 0..6 alternate between two blocks: A B A B A B.
    let inbound = |i: u8| Inbound {
        feeder: 0,
        withdrawn: Vec::new(),
        nlri: vec![i],
        path_tail: vec![100 + u32::from(i % 2)],
        med: None,
    };
    for i in 0..6 {
        feed(&mut core, 1 + u64::from(i), 0, inbound(i).packed());
    }
    let exported = |i: u8| {
        let route = Route::from_attrs(&inbound(i).attributes()).expect("a full block");
        route.for_ebgp_export(LOCAL_AS, LOCAL_ADDR).to_attrs(false)
    };
    let announce = |members: [u8; 3]| {
        let update = UpdateMsg::announce(members.map(prefix).to_vec(), exported(members[0]));
        RibOp::Announce(ebgp, update)
    };
    let ops = core.peer_up(ebgp, summary(EBGP_LISTENER));
    assert_eq!(ops, [announce([0, 2, 4]), announce([1, 3, 5])]);
}

/// [`frames_fnv`] of the forty-thousand-block dump below, as recorded
/// from the linear-probe grouping it replaced.
const DUMP_FNV: u64 = 3_662_833_354_405_702_693;

/// FNV-1a over every frame in `ops`, as each peer's session encodes it.
fn frames_fnv(ops: &[RibOp]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for op in ops {
        let RibOp::Announce(_, update) = op else { continue };
        for byte in BgpMessage::Update(update.clone()).encode(true).iter() {
            hash = (hash ^ u64::from(*byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// A table with as many distinct attribute blocks as prefixes: the dump
/// to a late joiner is linear in the table, not in the table times the
/// blocks seen so far (about 9 s for this table on a 2-vCPU host when
/// it was). The frames are the ones that quadratic dump sent.
#[test]
fn a_table_dump_of_forty_thousand_blocks_is_linear() {
    let routes = table(40_000);
    let mut core = core();
    let ebgp = EBGP_LISTENER.0;
    core.peer_down(0, ebgp);
    for (i, prefix) in routes.iter().enumerate() {
        let mut attrs = block(0);
        attrs[1] = PathAttribute::AsPath(AsPath::from_sequence(vec![FEEDERS[0].1, i as u32]));
        feed(&mut core, 1, 0, UpdateMsg::announce(vec![*prefix], attrs));
    }
    let start = std::time::Instant::now();
    let ops = core.peer_up(ebgp, summary(EBGP_LISTENER));
    let took = start.elapsed();
    assert_eq!(ops.len(), routes.len(), "one UPDATE per block");
    assert_eq!(frames_fnv(&ops), DUMP_FNV);
    if !cfg!(debug_assertions) {
        assert!(took < std::time::Duration::from_secs(1), "dump took {took:?}");
    }
}

/// ORIGIN, a one-AS AS_PATH and NEXT_HOP: 20 bytes of attributes, plus
/// 4 + 4n for n > 63 communities.
fn block(communities: u32) -> Vec<PathAttribute> {
    let mut attrs = vec![
        PathAttribute::Origin(Origin::Igp),
        PathAttribute::AsPath(AsPath::from_sequence(vec![FEEDERS[0].1])),
        PathAttribute::NextHop(Ipv4Addr::new(192, 0, 2, 1)),
    ];
    if communities > 0 {
        attrs.push(PathAttribute::Communities((0..communities).collect()));
    }
    attrs
}

/// A frame the feeder packed to the last byte cannot be re-exported as
/// one frame once our AS is prepended: it is split, and every prefix
/// still arrives exactly once, in order.
#[test]
fn a_full_inbound_frame_is_split_when_the_export_grows() {
    // 4096 = 23 of framing + 20 of attributes + 1012 /24s + one /32.
    let mut nlri = table(1012);
    nlri.push(Ipv4Prefix::new(Ipv4Addr::new(30, 0, 0, 1), 32).expect("a /32"));
    let update = UpdateMsg::announce(nlri.clone(), block(0));
    assert_eq!(BgpMessage::Update(update.clone()).encode(true).len(), MAX_MESSAGE_LEN);

    let mut core = core();
    let mut rx = Receivers::default();
    let ops = feed(&mut core, 1, 0, update);
    rx.replay(&ops);
    // The iBGP listener is forwarded the block as it came; the eBGP
    // listener's copy is four bytes longer.
    assert_eq!((rx.frames_to(IBGP_LISTENER.0), rx.frames_to(EBGP_LISTENER.0)), (1, 2));
    let to_ebgp: Vec<Ipv4Prefix> = ops
        .iter()
        .filter_map(|op| match op {
            RibOp::Announce(id, update) if *id == EBGP_LISTENER.0 => Some(update.nlri.clone()),
            _ => None,
        })
        .flatten()
        .collect();
    assert_eq!(to_ebgp, nlri);
    assert_eq!(core.exports_oversize(), 0);
}

/// A legal 4095-byte UPDATE whose attribute block, with our AS
/// prepended, leaves no room for even one prefix. It used to leave as a
/// 4099-byte frame (a debug build panicked encoding it), which resets
/// the session it is sent on: an upstream could reset our *other*
/// sessions. Now the route is installed, forwarded where it fits, and
/// withdrawn where it does not.
#[test]
fn an_export_that_cannot_fit_a_frame_is_withdrawn_not_sent() {
    let prefix = table(1)[0];
    let oversize = UpdateMsg::announce(vec![prefix], block(1011));
    assert_eq!(BgpMessage::Update(oversize.clone()).encode(true).len(), 4095);
    let (ebgp, ibgp) = (EBGP_LISTENER.0, IBGP_LISTENER.0);

    let mut core = core();
    let mut rx = Receivers::default();
    rx.replay(&feed(&mut core, 1, 0, oversize.clone()));
    assert!(core.loc_rib().get(&prefix).is_some(), "the route is still ours to use");
    assert_eq!(rx.holds(ibgp), [prefix], "unchanged, it fits the iBGP session");
    // A withdrawal of a prefix the peer never held: harmless.
    assert_eq!((rx.holds(ebgp), rx.frames_to(ebgp), rx.redundant), (vec![], 1, 1));
    assert_eq!(core.exports_oversize(), 1);

    // A block that fits replaces it and is announced ...
    rx.replay(&feed(&mut core, 2, 0, UpdateMsg::announce(vec![prefix], block(3))));
    assert_eq!((rx.holds(ebgp), rx.frames_to(ebgp)), (vec![prefix], 2));
    // ... and when the oversize one comes back, the peer must not go on
    // holding the route it replaced.
    rx.replay(&feed(&mut core, 3, 0, oversize));
    assert_eq!((rx.holds(ebgp), rx.frames_to(ebgp), rx.redundant), (vec![], 3, 1));
    assert_eq!(core.exports_oversize(), 2);

    // The initial table dump goes through the same emitter.
    core.peer_down(4, ebgp);
    let mut late = Receivers::default();
    late.replay(&core.peer_up(ebgp, summary(EBGP_LISTENER)));
    assert_eq!((late.holds(ebgp), late.frames_to(ebgp)), (vec![], 1));
    assert_eq!(core.exports_oversize(), 3);

    // The real withdrawal finds nothing left to withdraw there.
    rx.replay(&feed(&mut core, 5, 0, UpdateMsg::withdraw(vec![prefix])));
    assert_eq!((rx.holds(ibgp), rx.frames_to(ebgp)), (vec![], 3));
}

/// Losing a feeder withdraws its whole table from every other peer in
/// frames packed to the limit — about a thousand /24s each — not in one
/// frame per route.
#[test]
fn peer_down_withdraws_a_table_in_a_handful_of_frames() {
    let routes = table(10_000);
    let mut core = core();
    let mut rx = Receivers::default();
    for (now, nlri) in routes.chunks(1000).enumerate() {
        rx.replay(&feed(&mut core, now as u64, 0, UpdateMsg::announce(nlri.to_vec(), block(0))));
    }
    assert_eq!(rx.holds(EBGP_LISTENER.0), routes);
    let announced = rx.frames_to(EBGP_LISTENER.0);
    assert_eq!(announced, 10, "one frame out per frame in");

    let ops = core.peer_down(20, FEEDERS[0].0);
    assert_eq!(best_changes(&ops).len(), routes.len(), "the FIB hears of every route");
    rx.replay(&ops);
    assert!(rx.held.is_empty(), "{} routes still held", rx.held.len());
    assert_eq!(rx.redundant, 0);
    let frames = rx.frames_to(EBGP_LISTENER.0) - announced;
    assert!(frames <= 12, "{frames} frames to withdraw {} routes", routes.len());
    assert_eq!(core.withdrawn_out(), 3 * routes.len() as u64, "two listeners, one feeder");
}

/// `BestRouteChanged` / `Best` carry why the winner won; both enums
/// are as large as their widest variant (`Announce`, `Down`) was
/// before. A route is as wide as when MED, LOCAL_PREF and the extras
/// were three fields of its own instead of one `BgpAttrs`.
#[test]
fn the_outputs_did_not_grow() {
    assert_eq!(std::mem::size_of::<RibOp>(), 80);
    assert_eq!(std::mem::size_of::<dbgp_session::HostOutput>(), 48);
    assert_eq!(std::mem::size_of::<Route>(), 72);
}

/// A session keeps what its OPEN exchange settled, not the peer's OPEN,
/// and a neighbor's settings live once, in its outbound session: a
/// `SessionCore` was 376 B with its own copy of them beside a 136 B
/// `Session` holding the OPEN, and a 32 B `PeerConfig` with an optional
/// peer AS.
#[test]
fn a_session_keeps_what_it_negotiated() {
    assert_eq!(std::mem::size_of::<dbgp_session::SessionCore>(), 280);
    assert_eq!(std::mem::size_of::<dbgp_session::Session>(), 104);
    assert_eq!(std::mem::size_of::<dbgp_session::PeerConfig>(), 24);
}
