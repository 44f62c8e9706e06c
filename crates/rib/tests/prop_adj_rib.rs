//! Differential property test: `AdjRib` against a naive
//! `BTreeMap<(peer, prefix), value>` reference model, over op sequences
//! on a universe small enough that peers and prefixes collide.

use dbgp_rib::AdjRib;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

type Model = BTreeMap<(u8, Ipv4Prefix), u8>;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, Ipv4Prefix, u8),
    Remove(u8, Ipv4Prefix),
    Advertise(u8, Ipv4Prefix, u8),
    Withdraw(u8, Ipv4Prefix),
    DropPeer(u8),
    ClearPeer(u8),
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
        (peer.clone(), prefix(), value.clone()).prop_map(|(k, p, v)| Op::Insert(k, p, v)),
        (peer.clone(), prefix()).prop_map(|(k, p)| Op::Remove(k, p)),
        (peer.clone(), prefix(), value).prop_map(|(k, p, v)| Op::Advertise(k, p, v)),
        (peer.clone(), prefix()).prop_map(|(k, p)| Op::Withdraw(k, p)),
        peer.clone().prop_map(Op::DropPeer),
        peer.prop_map(Op::ClearPeer),
    ]
}

fn held_by(model: &Model, peer: u8) -> Vec<Ipv4Prefix> {
    model.keys().filter(|(k, _)| *k == peer).map(|(_, p)| *p).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn adj_rib_matches_flat_map_model(ops in proptest::collection::vec(op(), 1..80)) {
        let mut rib: AdjRib<u8, u8> = AdjRib::new();
        let mut model = Model::new();
        for op in &ops {
            match *op {
                Op::Insert(k, p, v) => {
                    let old = rib.insert(k, p, Arc::new(v)).map(|a| *a);
                    prop_assert_eq!(old, model.insert((k, p), v));
                }
                Op::Remove(k, p) => {
                    prop_assert_eq!(rib.remove(k, &p).map(|a| *a), model.remove(&(k, p)));
                }
                Op::Advertise(k, p, v) => {
                    // A fresh Arc each time: only deep equality can dedupe.
                    let changed = model.insert((k, p), v) != Some(v);
                    prop_assert_eq!(rib.advertise(k, p, &Arc::new(v)), changed);
                }
                Op::Withdraw(k, p) => {
                    prop_assert_eq!(rib.withdraw(k, &p), model.remove(&(k, p)).is_some());
                }
                Op::DropPeer(k) => {
                    // (peer, prefix) keys sort by prefix within a peer.
                    prop_assert_eq!(rib.drop_peer(k), held_by(&model, k));
                    model.retain(|(peer, _), _| *peer != k);
                }
                Op::ClearPeer(k) => {
                    rib.clear_peer(k);
                    model.retain(|(peer, _), _| *peer != k);
                }
            }
            prop_assert_eq!(rib.is_empty(), model.is_empty());
        }
        let mut all: Vec<Ipv4Prefix> = model.keys().map(|(_, p)| *p).collect();
        all.sort();
        all.dedup();
        prop_assert_eq!(&rib.prefixes(), &all);
        for p in &all {
            let got: Vec<(u8, u8)> = rib.candidates(p).map(|(k, a)| (k, **a)).collect();
            let want: Vec<(u8, u8)> =
                model.iter().filter(|((_, q), _)| q == p).map(|((k, _), v)| (*k, *v)).collect();
            prop_assert_eq!(got, want);
            // Exact lookups agree, present and absent alike.
            for k in 0u8..4 {
                prop_assert_eq!(rib.get(k, p).map(|a| **a), model.get(&(k, *p)).copied());
            }
        }
    }
}
