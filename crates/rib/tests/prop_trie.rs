//! Differential property tests: `PrefixTrie` against a naive
//! `BTreeMap` reference model, over op sequences dense enough to force
//! default routes, overlapping prefixes, branch-node creation, and
//! splice-on-remove.

use dbgp_rib::PrefixTrie;
use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A prefix drawn from a deliberately tiny universe so random
/// sequences collide: two /8 pools, nested /16s and /24s, host routes,
/// and the default route.
fn dense_prefix() -> impl Strategy<Value = Ipv4Prefix> {
    (any::<u32>(), prop_oneof![Just(0u8), Just(8), Just(9), Just(16), Just(20), Just(24), Just(32)])
        .prop_map(|(bits, len)| {
            // Confine the address space to 10.x and 11.x with only a few
            // distinct values per octet, maximizing overlap.
            let a = 10 + (bits & 1) as u8;
            let b = ((bits >> 1) & 3) as u8;
            let c = ((bits >> 3) & 3) as u8;
            let d = ((bits >> 5) & 1) as u8;
            Ipv4Prefix::new(Ipv4Addr::new(a, b, c, d), len).unwrap()
        })
}

/// One mutation: insert (value) or remove.
fn op() -> impl Strategy<Value = (Ipv4Prefix, Option<u32>)> {
    (dense_prefix(), proptest::option::of(any::<u32>()))
}

fn naive_longest_match(
    model: &BTreeMap<Ipv4Prefix, u32>,
    addr: Ipv4Addr,
) -> Option<(Ipv4Prefix, u32)> {
    model
        .iter()
        .filter(|(p, _)| p.contains(addr))
        .max_by_key(|(p, _)| p.len())
        .map(|(p, v)| (*p, *v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trie_matches_btreemap_model(ops in proptest::collection::vec(op(), 1..60)) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for (prefix, action) in &ops {
            match action {
                Some(v) => {
                    prop_assert_eq!(trie.insert(*prefix, *v), model.insert(*prefix, *v));
                }
                None => {
                    prop_assert_eq!(trie.remove(prefix), model.remove(prefix));
                }
            }
            prop_assert_eq!(trie.len(), model.len());
        }
        // Structural equality and iteration order.
        prop_assert!(trie == model, "trie {:?} != model {:?}", trie, model);
        let trie_items: Vec<_> = trie.iter().map(|(p, v)| (*p, *v)).collect();
        let model_items: Vec<_> = model.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert_eq!(trie_items, model_items);
        // Exact lookups agree, present and absent alike.
        for (prefix, _) in &ops {
            prop_assert_eq!(trie.get(prefix), model.get(prefix));
            prop_assert_eq!(trie.contains_key(prefix), model.contains_key(prefix));
        }
        // The compressed structure stays within its node budget.
        prop_assert!(
            trie.node_count() <= 2 * trie.len().max(1),
            "{} nodes for {} prefixes", trie.node_count(), trie.len()
        );
    }

    /// Find-or-create against `entry().or_default()`, interleaved with
    /// inserts and removes over nested prefixes and the default route;
    /// then `for_each_mut` against `iter_mut`, in the same order.
    #[test]
    fn get_or_insert_with_matches_entry_or_default(
        ops in proptest::collection::vec((dense_prefix(), 0u8..4, any::<u32>()), 1..60),
    ) {
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        let mut model: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for (prefix, kind, v) in &ops {
            match kind {
                // Twice as likely as the others: both the "found" and
                // the "created" side need traffic.
                0 | 1 => {
                    let mut called = false;
                    let slot = trie.get_or_insert_with(*prefix, || {
                        called = true;
                        u32::default()
                    });
                    *slot = slot.wrapping_add(*v);
                    prop_assert_eq!(called, !model.contains_key(prefix), "default ran iff absent");
                    let want = model.entry(*prefix).or_default();
                    *want = want.wrapping_add(*v);
                }
                2 => prop_assert_eq!(trie.insert(*prefix, *v), model.insert(*prefix, *v)),
                _ => prop_assert_eq!(trie.remove(prefix), model.remove(prefix)),
            }
            prop_assert_eq!(trie.len(), model.len());
            prop_assert_eq!(trie.get(prefix), model.get(prefix));
        }
        prop_assert!(trie == model, "trie {:?} != model {:?}", trie, model);
        prop_assert!(trie.node_count() <= 2 * trie.len().max(1));
        let mut visited = Vec::new();
        trie.for_each_mut(|prefix, v| {
            *v = v.wrapping_mul(3);
            visited.push(*prefix);
        });
        model.values_mut().for_each(|v| *v = v.wrapping_mul(3));
        prop_assert_eq!(visited, model.keys().copied().collect::<Vec<_>>());
        prop_assert!(trie == model);
    }

    #[test]
    fn longest_match_agrees_with_linear_scan(
        ops in proptest::collection::vec(op(), 1..60),
        probes in proptest::collection::vec(any::<u32>(), 8),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for (prefix, action) in &ops {
            match action {
                Some(v) => { trie.insert(*prefix, *v); model.insert(*prefix, *v); }
                None => { trie.remove(prefix); model.remove(prefix); }
            }
        }
        for &raw in &probes {
            // Probe both inside the dense universe and outside it.
            for addr in [
                Ipv4Addr::new(10 + (raw & 1) as u8, (raw >> 1 & 3) as u8, (raw >> 3 & 3) as u8, (raw >> 5) as u8),
                Ipv4Addr(raw),
            ] {
                let got = trie.longest_match(addr).map(|(p, v)| (*p, *v));
                prop_assert_eq!(got, naive_longest_match(&model, addr), "addr {}", addr);
            }
        }
    }

    #[test]
    fn covering_agrees_with_linear_scan(
        ops in proptest::collection::vec(op(), 1..60),
        target in dense_prefix(),
    ) {
        let mut trie = PrefixTrie::new();
        let mut model: BTreeMap<Ipv4Prefix, u32> = BTreeMap::new();
        for (prefix, action) in &ops {
            match action {
                Some(v) => { trie.insert(*prefix, *v); model.insert(*prefix, *v); }
                None => { trie.remove(prefix); model.remove(prefix); }
            }
        }
        let got: Vec<_> = trie.covering(target).map(|(p, v)| (*p, *v)).collect();
        let mut want: Vec<_> =
            model.iter().filter(|(p, _)| p.covers(&target)).map(|(p, v)| (*p, *v)).collect();
        want.sort_by_key(|(p, _)| p.len());
        prop_assert_eq!(got, want, "target {}", target);
    }

    #[test]
    fn clone_and_clear_preserve_state(ops in proptest::collection::vec(op(), 1..40)) {
        let mut trie = PrefixTrie::new();
        for (prefix, action) in &ops {
            match action {
                Some(v) => { trie.insert(*prefix, *v); }
                None => { trie.remove(prefix); }
            }
        }
        let snapshot = trie.clone();
        prop_assert!(trie == snapshot);
        trie.clear();
        prop_assert!(trie.is_empty());
        prop_assert_eq!(trie.iter().count(), 0);
        // Refill from the clone via FromIterator and compare.
        let refilled: PrefixTrie<u32> = snapshot.iter().map(|(p, v)| (*p, *v)).collect();
        prop_assert!(refilled == snapshot);
    }
}
