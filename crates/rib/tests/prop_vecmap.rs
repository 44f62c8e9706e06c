//! Differential property test: `VecMap` against a `BTreeMap` model over
//! random insert, replace, remove, truncate and get sequences on a key universe
//! small enough that keys collide, checking values and iteration order
//! after every operation.

use dbgp_rib::VecMap;
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    /// Insert, or replace when the key is present.
    Insert(u8, u32),
    GetOrInsert(u8, u32),
    Remove(u8),
    /// Remove every key from this one up.
    TruncateFrom(u8),
    Get(u8),
}

fn op() -> impl Strategy<Value = Op> {
    // Up to 48 keys: enough to grow the vector several times, few
    // enough that removes hit.
    let key = 0u8..48;
    prop_oneof![
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
        (key.clone(), any::<u32>()).prop_map(|(k, v)| Op::GetOrInsert(k, v)),
        key.clone().prop_map(Op::Remove),
        // The upper keys only, so the map still grows; from 48 up, a no-op.
        (32u8..56).prop_map(Op::TruncateFrom),
        key.prop_map(Op::Get),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn vecmap_matches_a_btreemap(ops in proptest::collection::vec(op(), 1..300)) {
        let mut map = VecMap::new();
        let mut model = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => prop_assert_eq!(map.insert(k, v), model.insert(k, v)),
                Op::GetOrInsert(k, v) => {
                    let got = *map.get_or_insert_with(k, || v);
                    prop_assert_eq!(got, *model.entry(k).or_insert(v));
                }
                Op::Remove(k) => prop_assert_eq!(map.remove(&k), model.remove(&k)),
                Op::TruncateFrom(k) => {
                    map.truncate_from(&k);
                    model.split_off(&k);
                }
                Op::Get(k) => {
                    prop_assert_eq!(map.get(&k), model.get(&k));
                    prop_assert_eq!(map.contains_key(&k), model.contains_key(&k));
                    if let Some(v) = map.get_mut(&k) {
                        *v = v.wrapping_add(1);
                        *model.get_mut(&k).unwrap() = *v;
                    }
                }
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.is_empty(), model.is_empty());
            // Same pairs, same (ascending) order.
            prop_assert!(map.iter().eq(model.iter()));
            prop_assert!(map.values().eq(model.values()));
        }
        for v in map.values_mut() {
            *v = 0;
        }
        prop_assert!(map.values().all(|&v| v == 0));
    }
}

/// A new map allocates nothing (the speaker lends its neighbor map out
/// by leaving an empty one in its place), and its first key takes room
/// for one pair, not `Vec`'s four.
#[test]
fn a_map_of_one_key_holds_one_pair() {
    let mut map = VecMap::new();
    assert_eq!(map.heap_bytes(), 0);
    map.insert(3u32, 30u32);
    assert_eq!(map.heap_bytes(), 8);
    assert_eq!(map[&3], 30);
}
