//! A map kept as one sorted vector of `(key, value)` pairs: the store for
//! the small per-node tables of the simulator and the speaker (neighbor
//! ids, decision modules, per-prefix churn) and under every
//! [`PeerSlots`](crate::PeerSlots), which usually hold one to a handful
//! of keys. A `BTreeMap` pays for a whole leaf node (eleven slots) for
//! the first key; this pays for the pairs it holds plus `Vec`'s own
//! spare room.

use std::ops::Index;

/// A sorted-vector map: binary search on lookup and iteration in
/// ascending key order (the order a `BTreeMap` iterates in).
///
/// The first allocation holds one pair, not `Vec`'s four: most of these
/// tables never hold a second key (a stub's one provider, a speaker's
/// one decision module). Past that the vector grows as `Vec` does.
#[derive(Debug, Clone)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { entries: Vec::new() }
    }
}

impl<K: Ord, V> VecMap<K, V> {
    /// An empty map; allocates nothing.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    fn insert_at(&mut self, at: usize, key: K, value: V) {
        if self.entries.is_empty() {
            self.entries.reserve_exact(1);
        }
        self.entries.insert(at, (key, value));
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no key is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Make room for `additional` more keys, and no more.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Heap bytes held by the pair vector (not what the values own).
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(K, V)>()
    }

    /// The value of `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.entries[at].1)
    }

    /// The value of `key`, mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.entries[at].1)
    }

    /// Whether `key` is stored.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Store `value` under `key`, returning the value it replaces.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.entries[at].1, value)),
            Err(at) => {
                self.insert_at(at, key, value);
                None
            }
        }
    }

    /// The value of `key`, storing `default()` first if it was absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let at = match self.find(&key) {
            Ok(at) => at,
            Err(at) => {
                self.insert_at(at, key, default());
                at
            }
        };
        &mut self.entries[at].1
    }

    /// Remove `key`, returning its value if it was stored.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.find(key).ok()?;
        Some(self.entries.remove(at).1)
    }

    /// Remove every key at or above `key`: one comparison when the
    /// largest key is below it.
    pub fn truncate_from(&mut self, key: &K) {
        if self.entries.last().is_some_and(|(last, _)| last >= key) {
            let at = self.entries.partition_point(|(k, _)| k < key);
            self.entries.truncate(at);
        }
    }
}

impl<K, V> VecMap<K, V> {
    /// Every `(key, value)`, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Every value, ascending by key.
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Every value, mutably, ascending by key.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> + '_ {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

impl<K: Ord, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    /// The value of `key`; panics if it is absent, as `BTreeMap` does.
    fn index(&self, key: &K) -> &V {
        self.get(key).expect("key not in VecMap")
    }
}
