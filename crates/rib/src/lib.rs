#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! A level-compressed binary prefix trie keyed on [`Ipv4Prefix`], the
//! per-prefix neighbor slots both routing cores keep in it, and the
//! sorted-vector map the small per-node tables use.
//!
//! [`PrefixTrie`] is the storage engine behind every routing table in
//! the workspace: the one per-prefix table of each routing core
//! (`dbgp-core`'s `IaDb`, `dbgp-session`'s `RoutingCore`), whose entries
//! hold a [`PeerSlots`] — Adj-RIB-In and Adj-RIB-Out for that prefix —
//! next to the installed best. (The simulator keeps no forwarding table
//! of its own: `Sim::fib` builds one from a speaker's routes on demand.)
//! [`VecMap`] holds the tables a node keeps beside it — neighbor ids,
//! decision modules, per-prefix churn — at the size of what they hold.
//! The flat
//! `BTreeMap<Ipv4Prefix, _>` stores it replaces were fine for the
//! paper's handful of §5 prefixes but made `longest_match` a linear
//! scan; at full-table cardinality (~1M routes, ROADMAP item 1) both
//! lookup and the per-update insert path must be bounded by prefix
//! depth, not table size.
//!
//! # Layout
//!
//! Nodes live in a single arena `Vec` and refer to each other by `u32`
//! index, so the whole table is one heap allocation regardless of route
//! count and a node is pointer-free (copyable, cache-dense). A released
//! node's slot is reused before the arena grows: the vacant slots form a
//! free list threaded through their own `children[0]`, so the trie is
//! the arena plus two `u32`s (32 bytes).
//! Path compression keeps one node per *stored or branching* prefix:
//! an internal node either carries a value or has exactly two
//! children, so the node count is at most `2·len - 1`.
//!
//! The root always exists and is pinned at `0.0.0.0/0`; the default
//! route is simply a value on the root.
//!
//! # Iteration order
//!
//! [`PrefixTrie::iter`] walks the trie in preorder, zero-child first.
//! Because every stored network is canonical (host bits zero), that
//! order is exactly ascending `(network, len)` — identical to
//! `BTreeMap<Ipv4Prefix, _>` iteration. The simulator's determinism
//! contract (chaos digests, replay traces) depends on this, and
//! [`PartialEq`] against a `BTreeMap` leans on it to compare in one
//! lockstep pass.

use dbgp_wire::{Ipv4Addr, Ipv4Prefix};
use std::collections::BTreeMap;
use std::fmt;

mod slots;
mod vecmap;
pub use slots::PeerSlots;
pub use vecmap::VecMap;

/// Hand an emptied scratch `Vec` back under a new element type, keeping
/// its allocation: `DbgpSpeaker`'s decision loop fills a `Vec` of
/// borrowing views per call, and a view type that differs
/// from call to call only in its lifetime cannot be named in a struct
/// field. `v` is cleared first, so the closure never runs; when `T` and
/// `U` have the same layout std's in-place `collect` reuses the buffer
/// (pointer and capacity survive — unit-tested below), and when they do
/// not, the result is simply a fresh empty `Vec`.
pub fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared above")).collect()
}

/// Sentinel child index meaning "no child".
const NIL: u32 = u32::MAX;

/// Bit `i` (0 = most significant) of `addr`, as a child-slot index.
#[inline]
fn bit(addr: u32, i: u8) -> usize {
    debug_assert!(i < 32);
    ((addr >> (31 - i)) & 1) as usize
}

/// The longest common prefix of two distinct, non-nested prefixes.
fn common_prefix(a: Ipv4Prefix, b: Ipv4Prefix) -> Ipv4Prefix {
    let xor = a.network().0 ^ b.network().0;
    let diff = xor.leading_zeros().min(31) as u8;
    let len = diff.min(a.len()).min(b.len());
    Ipv4Prefix::new(a.network(), len).expect("len <= 32")
}

#[derive(Debug, Clone)]
struct Node<T> {
    prefix: Ipv4Prefix,
    value: Option<T>,
    children: [u32; 2],
}

/// A path-compressed binary trie from [`Ipv4Prefix`] to `T`.
///
/// Exact-prefix operations (`insert`, `remove`, `get`) and
/// [`longest_match`](PrefixTrie::longest_match) cost O(stored path
/// depth) — bounded by 32 plus the branch nodes along the way — with
/// no allocation except arena growth. Iteration yields entries in
/// ascending `(network, len)` order.
#[derive(Clone)]
pub struct PrefixTrie<T> {
    nodes: Vec<Node<T>>,
    /// The first vacant arena slot (`NIL`: none); each vacant slot's
    /// `children[0]` names the next.
    free: u32,
    len: u32,
}

impl<T> Default for PrefixTrie<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PrefixTrie<T> {
    /// An empty trie (just the valueless root at `0.0.0.0/0`).
    pub fn new() -> Self {
        PrefixTrie {
            nodes: vec![Node { prefix: Ipv4Prefix::DEFAULT, value: None, children: [NIL, NIL] }],
            free: NIL,
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no prefix is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of live arena nodes, including the root and any
    /// valueless branch nodes (at most `2·len - 1` for `len >= 1`,
    /// plus the root).
    pub fn node_count(&self) -> usize {
        let mut vacant = 0;
        let mut at = self.free;
        while at != NIL {
            vacant += 1;
            at = self.nodes[at as usize].children[0];
        }
        self.nodes.len() - vacant
    }

    /// Bytes of arena memory held by this trie: the struct itself plus
    /// the node capacity. Heap owned by the values themselves (e.g.
    /// `Arc` targets) is *not* counted — shared attribute blocks are
    /// accounted once at their interning site, not once per prefix.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.capacity() * std::mem::size_of::<Node<T>>()
    }

    /// Remove every stored prefix, keeping the arena allocation.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.nodes.push(Node { prefix: Ipv4Prefix::DEFAULT, value: None, children: [NIL, NIL] });
        self.free = NIL;
        self.len = 0;
    }

    /// A fresh valueless, childless node for `prefix`.
    fn alloc(&mut self, prefix: Ipv4Prefix) -> u32 {
        let node = Node { prefix, value: None, children: [NIL, NIL] };
        if self.free != NIL {
            let idx = self.free;
            self.free = self.nodes[idx as usize].children[0];
            self.nodes[idx as usize] = node;
            return idx;
        }
        let idx = self.nodes.len() as u32;
        assert!(idx < NIL, "prefix trie arena overflow");
        self.nodes.push(node);
        idx
    }

    /// Make `idx`'s slot the head of the free list.
    fn release(&mut self, idx: u32) {
        debug_assert_ne!(idx, 0, "root is never released");
        self.nodes[idx as usize].value = None;
        self.nodes[idx as usize].children = [self.free, NIL];
        self.free = idx;
    }

    /// Walk to `prefix`'s node, creating it (valueless) if it is not in
    /// the trie. The one descent under both [`insert`](Self::insert)
    /// and [`get_or_insert_with`](Self::get_or_insert_with); the caller
    /// stores a value there before returning, which restores the
    /// "valueless nodes have two children" invariant.
    fn find_or_create(&mut self, prefix: Ipv4Prefix) -> usize {
        let mut at = 0u32;
        loop {
            let node_prefix = self.nodes[at as usize].prefix;
            if node_prefix == prefix {
                return at as usize;
            }
            // Invariant: node_prefix strictly covers prefix.
            let b = bit(prefix.network().0, node_prefix.len());
            let child = self.nodes[at as usize].children[b];
            if child == NIL {
                let leaf = self.alloc(prefix);
                self.nodes[at as usize].children[b] = leaf;
                return leaf as usize;
            }
            let child_prefix = self.nodes[child as usize].prefix;
            if child_prefix.covers(&prefix) {
                at = child;
                continue;
            }
            if prefix.covers(&child_prefix) {
                // The new prefix sits between `at` and its child.
                let mid = self.alloc(prefix);
                let cb = bit(child_prefix.network().0, prefix.len());
                self.nodes[mid as usize].children[cb] = child;
                self.nodes[at as usize].children[b] = mid;
                return mid as usize;
            }
            // Diverging prefixes: branch at their longest common prefix.
            let lcp = common_prefix(prefix, child_prefix);
            let branch = self.alloc(lcp);
            let leaf = self.alloc(prefix);
            let pb = bit(prefix.network().0, lcp.len());
            let cb = bit(child_prefix.network().0, lcp.len());
            debug_assert_ne!(pb, cb);
            self.nodes[branch as usize].children[pb] = leaf;
            self.nodes[branch as usize].children[cb] = child;
            self.nodes[at as usize].children[b] = branch;
            return leaf as usize;
        }
    }

    /// Insert `value` at `prefix`, returning the previous value if the
    /// prefix was already present.
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let at = self.find_or_create(prefix);
        let old = self.nodes[at].value.replace(value);
        self.len += u32::from(old.is_none());
        old
    }

    /// The value at `prefix`, storing `default()` first if the prefix
    /// was absent — `BTreeMap::entry(..).or_insert_with(..)` in one
    /// descent, where `get_mut` then `insert` would take two.
    pub fn get_or_insert_with(
        &mut self,
        prefix: Ipv4Prefix,
        default: impl FnOnce() -> T,
    ) -> &mut T {
        let at = self.find_or_create(prefix);
        let slot = &mut self.nodes[at].value;
        if slot.is_none() {
            *slot = Some(default());
            self.len += 1;
        }
        slot.as_mut().expect("filled above")
    }

    /// Remove `prefix`, returning its value if it was stored.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        // Every step down the trie lengthens the node prefix by at
        // least one bit, so a root-to-leaf path holds at most 33 nodes
        // — the parent trail fits in a fixed array, no allocation.
        let mut stack = [(0u32, 0usize); 33];
        let mut depth = 0usize;
        let mut at = 0u32;
        loop {
            let node_prefix = self.nodes[at as usize].prefix;
            if node_prefix == *prefix {
                break;
            }
            if !node_prefix.covers(prefix) {
                return None;
            }
            let b = bit(prefix.network().0, node_prefix.len());
            let child = self.nodes[at as usize].children[b];
            if child == NIL {
                return None;
            }
            stack[depth] = (at, b);
            depth += 1;
            at = child;
        }
        let old = self.nodes[at as usize].value.take()?;
        self.len -= 1;
        // Prune upward: a non-root node without a value must keep the
        // two-children invariant or disappear.
        let mut cur = at;
        while cur != 0 && self.nodes[cur as usize].value.is_none() {
            let kids = self.nodes[cur as usize].children;
            match (kids[0] != NIL, kids[1] != NIL) {
                (true, true) => break,
                (true, false) | (false, true) => {
                    let child = if kids[0] != NIL { kids[0] } else { kids[1] };
                    debug_assert!(depth > 0, "non-root node has a parent");
                    depth -= 1;
                    let (parent, slot) = stack[depth];
                    self.nodes[parent as usize].children[slot] = child;
                    self.release(cur);
                    break;
                }
                (false, false) => {
                    debug_assert!(depth > 0, "non-root node has a parent");
                    depth -= 1;
                    let (parent, slot) = stack[depth];
                    self.nodes[parent as usize].children[slot] = NIL;
                    self.release(cur);
                    cur = parent;
                }
            }
        }
        Some(old)
    }

    /// Exact-prefix lookup.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let mut at = 0u32;
        loop {
            let node = &self.nodes[at as usize];
            if node.prefix == *prefix {
                return node.value.as_ref();
            }
            if !node.prefix.covers(prefix) {
                return None;
            }
            let b = bit(prefix.network().0, node.prefix.len());
            let child = node.children[b];
            if child == NIL {
                return None;
            }
            at = child;
        }
    }

    /// Exact-prefix lookup, mutable.
    pub fn get_mut(&mut self, prefix: &Ipv4Prefix) -> Option<&mut T> {
        let mut at = 0u32;
        loop {
            let node = &self.nodes[at as usize];
            if node.prefix == *prefix {
                return self.nodes[at as usize].value.as_mut();
            }
            if !node.prefix.covers(prefix) {
                return None;
            }
            let b = bit(prefix.network().0, node.prefix.len());
            let child = node.children[b];
            if child == NIL {
                return None;
            }
            at = child;
        }
    }

    /// Is `prefix` stored?
    pub fn contains_key(&self, prefix: &Ipv4Prefix) -> bool {
        self.get(prefix).is_some()
    }

    /// Longest-prefix-match lookup for a destination address, as the
    /// data plane performs it: the most specific stored prefix that
    /// contains `addr`.
    pub fn longest_match(&self, addr: Ipv4Addr) -> Option<(&Ipv4Prefix, &T)> {
        let mut best: Option<u32> = None;
        let mut at = 0u32;
        loop {
            let node = &self.nodes[at as usize];
            if !node.prefix.contains(addr) {
                break;
            }
            if node.value.is_some() {
                best = Some(at);
            }
            if node.prefix.len() == 32 {
                break;
            }
            let b = bit(addr.0, node.prefix.len());
            let child = node.children[b];
            if child == NIL {
                break;
            }
            at = child;
        }
        best.map(|i| {
            let n = &self.nodes[i as usize];
            (&n.prefix, n.value.as_ref().expect("best node has a value"))
        })
    }

    /// All stored prefixes that cover `target` (including `target`
    /// itself if stored), in increasing length order. This is the
    /// aggregate/route-leak walk: every less-specific route above a
    /// prefix, in one root-to-leaf descent.
    pub fn covering(&self, target: Ipv4Prefix) -> Covering<'_, T> {
        Covering { trie: self, target, at: 0 }
    }

    /// Iterate `(prefix, value)` pairs in ascending `(network, len)`
    /// order — the same order a `BTreeMap<Ipv4Prefix, _>` yields.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { trie: self, stack: vec![0] }
    }

    /// Iterate stored prefixes in ascending order.
    pub fn keys(&self) -> Keys<'_, T> {
        Keys { inner: self.iter() }
    }

    /// Iterate stored values in ascending prefix order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Visit every stored value mutably, in ascending prefix order.
    /// Internal iteration: a borrowing `iter_mut` over an index-linked
    /// arena cannot be written in safe Rust.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&Ipv4Prefix, &mut T)) {
        let mut stack = vec![0u32];
        while let Some(at) = stack.pop() {
            let node = &mut self.nodes[at as usize];
            // Right child below left so the zero side pops first.
            if node.children[1] != NIL {
                stack.push(node.children[1]);
            }
            if node.children[0] != NIL {
                stack.push(node.children[0]);
            }
            if let Some(v) = node.value.as_mut() {
                f(&node.prefix, v);
            }
        }
    }
}

/// Sorted iterator over stored prefixes.
pub struct Keys<'a, T> {
    inner: Iter<'a, T>,
}

impl<'a, T> Iterator for Keys<'a, T> {
    type Item = &'a Ipv4Prefix;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|(p, _)| p)
    }
}

/// Preorder (sorted-order) iterator over a [`PrefixTrie`].
pub struct Iter<'a, T> {
    trie: &'a PrefixTrie<T>,
    stack: Vec<u32>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (&'a Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while let Some(at) = self.stack.pop() {
            let node = &self.trie.nodes[at as usize];
            // Right child below left so the zero side pops first.
            if node.children[1] != NIL {
                self.stack.push(node.children[1]);
            }
            if node.children[0] != NIL {
                self.stack.push(node.children[0]);
            }
            if let Some(v) = node.value.as_ref() {
                return Some((&node.prefix, v));
            }
        }
        None
    }
}

impl<'a, T> IntoIterator for &'a PrefixTrie<T> {
    type Item = (&'a Ipv4Prefix, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Root-to-leaf iterator over stored prefixes covering a target.
pub struct Covering<'a, T> {
    trie: &'a PrefixTrie<T>,
    target: Ipv4Prefix,
    at: u32,
}

impl<'a, T> Iterator for Covering<'a, T> {
    type Item = (&'a Ipv4Prefix, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        while self.at != NIL {
            let node = &self.trie.nodes[self.at as usize];
            self.at = if node.prefix.len() >= self.target.len() {
                NIL
            } else {
                let b = bit(self.target.network().0, node.prefix.len());
                match node.children[b] {
                    NIL => NIL,
                    c if self.trie.nodes[c as usize].prefix.covers(&self.target) => c,
                    _ => NIL,
                }
            };
            if let Some(v) = node.value.as_ref() {
                return Some((&node.prefix, v));
            }
        }
        None
    }
}

impl<T> FromIterator<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn from_iter<I: IntoIterator<Item = (Ipv4Prefix, T)>>(iter: I) -> Self {
        let mut trie = PrefixTrie::new();
        for (p, v) in iter {
            trie.insert(p, v);
        }
        trie
    }
}

impl<T> Extend<(Ipv4Prefix, T)> for PrefixTrie<T> {
    fn extend<I: IntoIterator<Item = (Ipv4Prefix, T)>>(&mut self, iter: I) {
        for (p, v) in iter {
            self.insert(p, v);
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for PrefixTrie<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for PrefixTrie<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for PrefixTrie<T> {}

/// Lockstep comparison against the naive map the trie replaces (and
/// the oracle's reference model still uses). Relies on both sides
/// iterating in ascending `(network, len)` order.
impl<T, U> PartialEq<BTreeMap<Ipv4Prefix, U>> for PrefixTrie<T>
where
    T: PartialEq<U>,
{
    fn eq(&self, other: &BTreeMap<Ipv4Prefix, U>) -> bool {
        self.len() == other.len()
            && self.iter().zip(other.iter()).all(|((p, v), (q, w))| p == q && v == w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    /// The scratch buffer of `DbgpSpeaker::select` rides on this: a
    /// round trip through a borrowing element type gives back the same
    /// allocation.
    #[test]
    fn recycle_keeps_the_allocation_across_lifetimes() {
        let mut parked: Vec<(&'static u32, u64)> = Vec::with_capacity(64);
        let (ptr, cap) = (parked.as_ptr() as usize, parked.capacity());
        for round in 0..3u32 {
            let local = round;
            let mut views: Vec<(&u32, u64)> = recycle(parked);
            assert!(views.is_empty());
            views.push((&local, 7));
            parked = recycle(views);
            assert!(parked.is_empty());
            assert_eq!((parked.as_ptr() as usize, parked.capacity()), (ptr, cap));
        }
        // A layout change cannot reuse the buffer; it must still be safe.
        let other: Vec<[u8; 3]> = recycle(parked);
        assert!(other.is_empty());
    }

    #[test]
    fn empty_trie() {
        let trie: PrefixTrie<u32> = PrefixTrie::new();
        assert!(trie.is_empty());
        assert_eq!(trie.len(), 0);
        assert_eq!(trie.iter().count(), 0);
        assert!(trie.longest_match(Ipv4Addr::new(1, 2, 3, 4)).is_none());
        assert!(trie.get(&Ipv4Prefix::DEFAULT).is_none());
    }

    #[test]
    fn default_route_lives_on_the_root() {
        let mut trie = PrefixTrie::new();
        assert_eq!(trie.insert(Ipv4Prefix::DEFAULT, 7u32), None);
        assert_eq!(trie.len(), 1);
        assert_eq!(trie.get(&Ipv4Prefix::DEFAULT), Some(&7));
        let (best, v) = trie.longest_match(Ipv4Addr::new(203, 0, 113, 9)).unwrap();
        assert_eq!((*best, *v), (Ipv4Prefix::DEFAULT, 7));
        assert_eq!(trie.remove(&Ipv4Prefix::DEFAULT), Some(7));
        assert!(trie.is_empty());
        assert_eq!(trie.node_count(), 1, "root survives removal");
    }

    #[test]
    fn overlapping_prefixes_prefer_most_specific() {
        let mut trie = PrefixTrie::new();
        trie.insert(Ipv4Prefix::DEFAULT, 0u32);
        trie.insert(p("10.0.0.0/8"), 8);
        trie.insert(p("10.5.0.0/16"), 16);
        trie.insert(p("10.5.3.0/24"), 24);
        fn lm(trie: &PrefixTrie<u32>, a: u8, b: u8, c: u8, d: u8) -> u32 {
            *trie.longest_match(Ipv4Addr::new(a, b, c, d)).unwrap().1
        }
        assert_eq!(lm(&trie, 10, 5, 3, 1), 24);
        assert_eq!(lm(&trie, 10, 5, 4, 1), 16);
        assert_eq!(lm(&trie, 10, 6, 0, 1), 8);
        assert_eq!(lm(&trie, 11, 0, 0, 1), 0);
        trie.remove(&p("10.5.0.0/16"));
        assert_eq!(lm(&trie, 10, 5, 4, 1), 8, "falls back past the removed mid prefix");
        assert_eq!(lm(&trie, 10, 5, 3, 1), 24, "more specific unaffected");
    }

    #[test]
    fn iteration_is_btreemap_order() {
        let mut trie = PrefixTrie::new();
        let mut model = BTreeMap::new();
        for s in [
            "10.0.0.0/8",
            "0.0.0.0/0",
            "10.5.3.0/24",
            "192.168.0.0/16",
            "10.5.0.0/16",
            "10.128.0.0/9",
        ] {
            trie.insert(p(s), s.to_string());
            model.insert(p(s), s.to_string());
        }
        let got: Vec<_> = trie.iter().map(|(k, v)| (*k, v.clone())).collect();
        let want: Vec<_> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert_eq!(got, want);
        assert_eq!(trie, model);
        assert_eq!(format!("{trie:?}"), format!("{model:?}"));
    }

    #[test]
    fn covering_walks_less_specifics_in_order() {
        let mut trie = PrefixTrie::new();
        trie.insert(Ipv4Prefix::DEFAULT, 0u32);
        trie.insert(p("10.0.0.0/8"), 8);
        trie.insert(p("10.5.0.0/16"), 16);
        trie.insert(p("10.5.3.0/24"), 24);
        trie.insert(p("192.168.0.0/16"), 99);
        let covers: Vec<u32> = trie.covering(p("10.5.3.0/24")).map(|(_, v)| *v).collect();
        assert_eq!(covers, vec![0, 8, 16, 24]);
        let covers: Vec<u32> = trie.covering(p("10.5.0.0/20")).map(|(_, v)| *v).collect();
        assert_eq!(covers, vec![0, 8, 16]);
    }

    #[test]
    fn branch_nodes_are_pruned() {
        let mut trie = PrefixTrie::new();
        // These two diverge under the root and force a /14 branch node.
        trie.insert(p("10.4.0.0/16"), 1u32);
        trie.insert(p("10.5.0.0/16"), 2);
        assert_eq!(trie.node_count(), 4, "root + branch + two leaves");
        trie.remove(&p("10.4.0.0/16"));
        assert_eq!(trie.node_count(), 2, "branch spliced out with its leaf");
        assert_eq!(trie.get(&p("10.5.0.0/16")), Some(&2));
        trie.remove(&p("10.5.0.0/16"));
        assert_eq!(trie.node_count(), 1);
        // The freed slots are reused.
        trie.insert(p("172.16.0.0/12"), 3);
        assert!(trie.memory_bytes() > 0);
        assert_eq!(trie.len(), 1);
    }

    /// A released slot is reused before the arena grows, and the trie
    /// itself is the arena plus two `u32`s: it was 56 bytes with a
    /// free-list `Vec` of its own and a `usize` length.
    #[test]
    fn vacant_slots_are_the_free_list() {
        assert_eq!(std::mem::size_of::<PrefixTrie<Box<u64>>>(), 32);
        let mut trie = PrefixTrie::new();
        for s in ["10.4.0.0/16", "10.5.0.0/16", "10.6.0.0/16", "10.7.0.0/16"] {
            trie.insert(p(s), 1u32);
        }
        let arena = trie.nodes.len();
        trie.remove(&p("10.4.0.0/16"));
        trie.remove(&p("10.6.0.0/16"));
        assert_eq!(trie.node_count(), arena - 4, "two leaves and their branches released");
        for s in ["172.16.0.0/12", "192.168.0.0/16"] {
            trie.insert(p(s), 2);
        }
        assert_eq!(trie.nodes.len(), arena, "the vacant slots were taken first");
        assert_eq!(trie.node_count(), arena - 1);
        let got: Vec<Ipv4Prefix> = trie.keys().copied().collect();
        assert_eq!(got, ["10.5.0.0/16", "10.7.0.0/16", "172.16.0.0/12", "192.168.0.0/16"].map(p));
    }

    #[test]
    fn host_routes_terminate_the_walk() {
        let mut trie = PrefixTrie::new();
        trie.insert(p("10.0.0.1/32"), 1u32);
        trie.insert(p("10.0.0.0/24"), 2);
        assert_eq!(*trie.longest_match(Ipv4Addr::new(10, 0, 0, 1)).unwrap().1, 1);
        assert_eq!(*trie.longest_match(Ipv4Addr::new(10, 0, 0, 2)).unwrap().1, 2);
        assert_eq!(trie.insert(p("10.0.0.1/32"), 9), Some(1));
    }
}
