//! `RoutingCore` shares one exported route across every NLRI of an
//! UPDATE that installs the same interned route. Sharing must be
//! invisible: a core fed multi-NLRI UPDATEs emits exactly the `RibOp`s
//! of a twin fed the same prefixes one UPDATE each — the per-prefix
//! path, where every UPDATE interns its own route and nothing can be
//! shared — toward iBGP and eBGP peers, with and without export
//! clauses. The per-prefix twin is in turn held to a model of the
//! export rules written out here, so that a fault both twins share
//! (a stale export handed to a new route) does not pass as agreement.

use dbgp_session::{
    Clause, LocRibEntry, MatchCond, NeighborConfig, PeerId, PrefixMatch, RibOp, Route, RouteMap,
    RouteSource, RoutingCore, SessionSummary, SetAction,
};
use dbgp_wire::attrs::{AsPath, Origin, PathAttribute};
use dbgp_wire::message::UpdateMsg;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// Export policies with clauses that look at the prefix, rewrite the
/// route, or deny it — everything sharing must step aside for.
fn export_policy(kind: u8) -> RouteMap {
    let in_low_half = MatchCond::Prefix(
        Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 21).expect("a /21"),
        PrefixMatch::OrLonger,
    );
    match kind % 4 {
        0 => RouteMap::permit_all(),
        1 => RouteMap::deny_all(),
        2 => RouteMap {
            clauses: vec![Clause::permit(
                vec![in_low_half],
                vec![SetAction::Med(7), SetAction::Prepend { asn: LOCAL_AS, count: 2 }],
            )],
            default_permit: true,
        },
        _ => RouteMap {
            clauses: vec![
                Clause::deny(vec![in_low_half]),
                Clause::permit(vec![MatchCond::Any], vec![SetAction::AddCommunity(0xbeef)]),
            ],
            default_permit: false,
        },
    }
}

const LOCAL_ADDR: Ipv4Addr = Ipv4Addr::new(10, 9, 9, 9);

/// Every peer with its AS and export-policy kind, ascending by ID —
/// the order a best-route change is propagated in.
fn peers(ebgp_export: u8, ibgp_export: u8) -> [(PeerId, u32, u8); 4] {
    let [(f0, as0), (f1, as1)] = FEEDERS;
    let ((e, eas), (i, ias)) = (EBGP_LISTENER, IBGP_LISTENER);
    [(f0, as0, 0), (f1, as1, 0), (e, eas, ebgp_export), (i, ias, ibgp_export)]
}

fn core(ebgp_export: u8, ibgp_export: u8) -> RoutingCore {
    let mut core = RoutingCore::new(LOCAL_AS, LOCAL_ADDR);
    for (id, asn, export) in peers(ebgp_export, ibgp_export) {
        let mut cfg = NeighborConfig::new(LOCAL_AS, LOCAL_ADDR, asn, LOCAL_ADDR);
        cfg.export = export_policy(export);
        core.add_peer(id, cfg);
        let summary = SessionSummary {
            peer_as: asn,
            peer_id: Ipv4Addr::new(10, 0, 0, id.0 as u8 + 1),
            hold_time_ms: 90_000,
            four_octet: true,
            ia_support: false,
        };
        assert!(core.peer_up(id, summary).is_empty(), "nothing to dump yet");
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

/// RFC 4271 export, spelled out: what `peer` should hold for `prefix`
/// when `best` is installed.
fn model_export(
    best: Option<&LocRibEntry>,
    prefix: &Ipv4Prefix,
    (peer, peer_as, export): (PeerId, u32, u8),
) -> Option<Route> {
    let best = best?;
    let ibgp = peer_as == LOCAL_AS;
    if let RouteSource::Peer(src) = best.source {
        let src_as = FEEDERS.iter().find(|(id, _)| *id == src).expect("only feeders feed").1;
        if src == peer || (ibgp && src_as == LOCAL_AS) {
            return None; // split horizon; no iBGP reflection
        }
    }
    let mut route =
        if ibgp { (*best.route).clone() } else { best.route.for_ebgp_export(LOCAL_AS, LOCAL_ADDR) };
    export_policy(export).apply(prefix, &mut route, peer_as).then_some(route)
}

/// The per-prefix twin plus what the model says every peer holds.
struct Modelled {
    core: RoutingCore,
    peers: [(PeerId, u32, u8); 4],
    adj_out: BTreeMap<(PeerId, Ipv4Prefix), Route>,
}

impl Modelled {
    /// Feed one single-prefix UPDATE and hold the ops to the model.
    fn feed(&mut self, now: u64, feeder: usize, update: UpdateMsg) -> Vec<RibOp> {
        let prefix = *update.withdrawn.iter().chain(&update.nlri).next().expect("one prefix");
        let before = self.core.loc_rib().get(&prefix).cloned();
        let ops = feed(&mut self.core, now, feeder, update);
        let after = self.core.loc_rib().get(&prefix).cloned();
        let mut want = Vec::new();
        if before != after {
            want.push(RibOp::BestRouteChanged(prefix, after.clone()));
            for peer in self.peers {
                let ibgp = peer.1 == LOCAL_AS;
                let held = self.adj_out.get(&(peer.0, prefix));
                match model_export(after.as_ref(), &prefix, peer) {
                    Some(route) if held != Some(&route) => {
                        let update = UpdateMsg::announce(vec![prefix], route.to_attrs(ibgp));
                        want.push(RibOp::Announce(peer.0, update));
                        self.adj_out.insert((peer.0, prefix), route);
                    }
                    None if held.is_some() => {
                        want.push(RibOp::Announce(peer.0, UpdateMsg::withdraw(vec![prefix])));
                        self.adj_out.remove(&(peer.0, prefix));
                    }
                    _ => {}
                }
            }
        }
        assert_eq!(ops, want, "per-prefix ops differ from the export model for {prefix}");
        ops
    }
}

fn feed(core: &mut RoutingCore, now: u64, feeder: usize, update: UpdateMsg) -> Vec<RibOp> {
    let (ops, err) = core.update(now, FEEDERS[feeder].0, update);
    assert!(err.is_none(), "generated UPDATEs are well-formed");
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn shared_exports_emit_the_per_prefix_ops(
        inbound in proptest::collection::vec(arb_inbound(), 1..24),
        ebgp_export in 0u8..4,
        ibgp_export in 0u8..4,
    ) {
        let mut packed = core(ebgp_export, ibgp_export);
        let mut per_prefix = Modelled {
            core: core(ebgp_export, ibgp_export),
            peers: peers(ebgp_export, ibgp_export),
            adj_out: BTreeMap::new(),
        };
        for (now, update) in inbound.iter().enumerate() {
            let got = feed(&mut packed, now as u64, update.feeder, update.packed());
            let mut want = Vec::new();
            for single in update.per_prefix() {
                want.extend(per_prefix.feed(now as u64, update.feeder, single));
            }
            prop_assert_eq!(got, want, "UPDATE {} of {:?}", now, inbound);
        }
        let per_prefix = per_prefix.core;
        let installed = |core: &RoutingCore| {
            core.loc_rib().iter().map(|(p, e)| (*p, e.clone())).collect::<Vec<_>>()
        };
        prop_assert_eq!(installed(&packed), installed(&per_prefix));
        // Whatever one twin built per prefix the other built or shared.
        prop_assert_eq!(
            packed.exports_shared() + packed.exports_computed(),
            per_prefix.exports_shared() + per_prefix.exports_computed()
        );
        prop_assert!(packed.exports_computed() <= per_prefix.exports_computed());
    }
}

/// The arrangement the daemon benchmark runs: one attribute block, many
/// NLRI, a clause-free eBGP listener. One export is built, the rest
/// share it — and a listener whose policy has clauses shares nothing.
#[test]
fn one_export_is_built_per_attribute_block() {
    let update = Inbound {
        feeder: 0,
        withdrawn: Vec::new(),
        nlri: (0..16).collect(),
        path_tail: vec![100],
        med: None,
    };
    let mut transparent = core(0, 0);
    let ops = feed(&mut transparent, 1, 0, update.packed());
    let to_ebgp = ops
        .iter()
        .filter(|op| matches!(op, RibOp::Announce(id, _) if *id == EBGP_LISTENER.0))
        .count();
    assert_eq!(to_ebgp, 16, "still one single-NLRI UPDATE per route change");
    assert_eq!((transparent.exports_computed(), transparent.exports_shared()), (1, 15));

    let mut with_clauses = core(2, 0);
    feed(&mut with_clauses, 1, 0, update.packed());
    assert_eq!((with_clauses.exports_computed(), with_clauses.exports_shared()), (16, 0));
}
