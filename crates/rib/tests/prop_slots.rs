//! Differential property test: a `PrefixTrie` of `PeerSlots` — the
//! per-prefix table both routing cores keep — against two naive
//! `BTreeMap<(peer, prefix), value>` reference models (received, sent),
//! over op sequences on a universe small enough that peers and prefixes
//! collide.

use dbgp_rib::{PeerSlots, PrefixTrie};
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<(u8, Ipv4Prefix), u8>;
type Table = PrefixTrie<PeerSlots<u8, u8>>;

#[derive(Debug, Clone)]
enum Op {
    Receive(u8, Ipv4Prefix, u8),
    Unreceive(u8, Ipv4Prefix),
    Advertise(u8, Ipv4Prefix, u8),
    Withdraw(u8, Ipv4Prefix),
    DropPeer(u8),
}

/// Eight prefixes: two /8s with a nested /16 and /24 each, the default
/// route and one host route.
fn prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (0u8..2, prop_oneof![Just(0u8), Just(8), Just(16), Just(24), Just(32)])
        .prop_map(|(a, len)| Ipv4Prefix::new(Ipv4Addr::new(10 + a, 1, 1, 1), len).unwrap())
}

fn op() -> impl Strategy<Value = Op> {
    // Few peers, few values: replacements and equal re-advertisements
    // must actually happen.
    let (peer, value) = (0u8..4, 0u8..3);
    prop_oneof![
        (peer.clone(), prefix(), value.clone()).prop_map(|(k, p, v)| Op::Receive(k, p, v)),
        (peer.clone(), prefix()).prop_map(|(k, p)| Op::Unreceive(k, p)),
        (peer.clone(), prefix(), value).prop_map(|(k, p, v)| Op::Advertise(k, p, v)),
        (peer.clone(), prefix()).prop_map(|(k, p)| Op::Withdraw(k, p)),
        peer.prop_map(Op::DropPeer),
    ]
}

/// The two-walk withdrawal both cores use: `get_mut`, then `remove` if
/// that emptied the slots.
fn on_existing<R: Default>(
    table: &mut Table,
    p: &Ipv4Prefix,
    f: impl FnOnce(&mut PeerSlots<u8, u8>) -> R,
) -> R {
    let Some(slots) = table.get_mut(p) else { return R::default() };
    let r = f(slots);
    if slots.is_empty() {
        table.remove(p);
    }
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn slots_match_flat_map_models(ops in proptest::collection::vec(op(), 1..80)) {
        let mut table = Table::new();
        let (mut received, mut sent) = (Model::new(), Model::new());
        for op in &ops {
            match *op {
                Op::Receive(k, p, v) => {
                    // Implicit withdraw: replacement returns the old route.
                    let old = table.get_or_insert_with(p, PeerSlots::default).receive(k, Arc::new(v));
                    prop_assert_eq!(old.map(|a| *a), received.insert((k, p), v));
                }
                Op::Unreceive(k, p) => {
                    let old = on_existing(&mut table, &p, |s| s.unreceive(k));
                    prop_assert_eq!(old.map(|a| *a), received.remove(&(k, p)));
                }
                Op::Advertise(k, p, v) => {
                    let slots = table.get_or_insert_with(p, PeerSlots::default);
                    // A fresh Arc: only deep equality can dedupe it.
                    let route = Arc::new(v);
                    let changed = sent.insert((k, p), v) != Some(v);
                    prop_assert_eq!(slots.advertise(k, &route), changed);
                    // The unchanged path takes no reference; a change
                    // takes one; the same interned route again, none.
                    prop_assert_eq!(Arc::strong_count(&route), 1 + usize::from(changed));
                    prop_assert!(!slots.advertise(k, &route));
                    prop_assert_eq!(Arc::strong_count(&route), 1 + usize::from(changed));
                }
                Op::Withdraw(k, p) => {
                    // Only if advertised.
                    let had = on_existing(&mut table, &p, |s| s.withdraw(k));
                    prop_assert_eq!(had, sent.remove(&(k, p)).is_some());
                }
                Op::DropPeer(k) => {
                    // Session reset, as `peer_down` / `neighbor_down` do
                    // it: one sorted walk, then reclaim what went idle.
                    let (mut held, mut idle) = (Vec::new(), Vec::new());
                    table.for_each_mut(|p, slots| {
                        slots.withdraw(k);
                        if slots.unreceive(k).is_some() {
                            held.push(*p);
                        }
                        if slots.is_empty() {
                            idle.push(*p);
                        }
                    });
                    idle.iter().for_each(|p| { table.remove(p); });
                    // (peer, prefix) keys sort by prefix within a peer.
                    let want: Vec<Ipv4Prefix> =
                        received.keys().filter(|(peer, _)| *peer == k).map(|(_, p)| *p).collect();
                    prop_assert_eq!(held, want);
                    received.retain(|(peer, _), _| *peer != k);
                    sent.retain(|(peer, _), _| *peer != k);
                }
            }
            // A slot with neither side set is pruned, so an entry lives
            // exactly as long as some peer holds a side of it.
            let mut live: Vec<Ipv4Prefix> =
                received.keys().chain(sent.keys()).map(|(_, p)| *p).collect();
            live.sort();
            live.dedup();
            prop_assert_eq!(table.keys().copied().collect::<Vec<_>>(), live);
        }
        for (p, slots) in table.iter() {
            prop_assert!(!slots.is_empty());
            prop_assert!(slots.heap_bytes() > 0);
            // Candidates ascend by peer.
            let got: Vec<(u8, u8)> = slots.candidates().map(|(k, a)| (k, **a)).collect();
            let want: Vec<(u8, u8)> =
                received.iter().filter(|((_, q), _)| q == p).map(|((k, _), v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
            // Exact lookups agree, present and absent alike.
            for k in 0u8..4 {
                prop_assert_eq!(slots.received(k).map(|a| **a), received.get(&(k, *p)).copied());
            }
        }
    }
}

/// A slot side that holds no route takes no room: one route heard from
/// one peer and one sent to another are two 16-byte records in the
/// first allocation of two, where a two-sided slot per peer took 24
/// bytes each.
#[test]
fn a_route_in_and_a_route_out_take_one_record_each() {
    let mut slots = PeerSlots::<u32, u8>::default();
    assert_eq!(slots.heap_bytes(), 0);
    slots.receive(1, Arc::new(7));
    assert!(slots.advertise(2, &Arc::new(8)));
    assert_eq!(slots.heap_bytes(), 32);
    assert_eq!(slots.candidates().map(|(k, a)| (k, **a)).collect::<Vec<_>>(), [(1, 7)]);
}

/// One attribute block decoded from a multi-NLRI UPDATE is one
/// allocation however many prefixes it announced.
#[test]
fn one_route_is_shared_across_prefixes() {
    let mut table = Table::new();
    let shared = Arc::new(7u8);
    for p in ["10.0.0.0/8", "192.168.0.0/16"] {
        table.get_or_insert_with(p.parse().unwrap(), PeerSlots::default).receive(1, shared.clone());
    }
    assert_eq!(Arc::strong_count(&shared), 3, "two prefixes plus our handle");
}
