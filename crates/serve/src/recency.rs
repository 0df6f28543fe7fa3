//! The worker's recency index: owned-key metadata and LRU order in one
//! structure with constant-time operations.
//!
//! A slab `Vec` of nodes threaded as a doubly linked list (head = least
//! recently used) and found through one hash map keyed by the
//! namespaced key. Every access moves the key's node to the tail, so
//! the list order is the order of last accesses — exactly the order a
//! `(tick, key)` set has when every access draws a fresh, larger tick.
//! Links are `u32` slab indices, not pointers: half the bytes per link
//! and no `unsafe` (SNIPPETS.md Snippet 1, "why 32-bit pointers").
//! Removed nodes go on a free list (chained through `next`) and are
//! reused before the slab grows.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use farmem_core::RecordHint;

use crate::splitmix64;
use crate::tenant::TenantId;

/// "No node": list ends and the empty free list.
const NIL: u32 = u32::MAX;

/// Hashes an already-namespaced `u64` key with the SplitMix64 finalizer
/// — the mix `owner_shard` and the far HT-tree's bucket hash already
/// use, so the compute side adds no second hash family.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("recency keys hash through write_u64");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = splitmix64(key);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What the index remembers about one owned key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyMeta {
    /// Issuing tenant (for crediting the bytes back on removal).
    pub tenant: TenantId,
    /// Charged (slab-rounded) bytes of the stored record.
    pub charged: u64,
    /// Where the owner's put placed the record: what makes its get one
    /// far access. Current by construction — every put replaces the entry
    /// and every delete, eviction and expiry drops it.
    pub hint: RecordHint,
}

struct Node {
    nskey: u64,
    meta: KeyMeta,
    prev: u32,
    next: u32,
}

/// Owned-key metadata in recency order. See the module docs.
pub struct RecencyIndex {
    nodes: Vec<Node>,
    /// Head of the free-slot chain.
    free: u32,
    /// Least recently used.
    head: u32,
    /// Most recently used.
    tail: u32,
    slots: HashMap<u64, u32, BuildHasherDefault<KeyHasher>>,
}

impl Default for RecencyIndex {
    fn default() -> RecencyIndex {
        RecencyIndex::new()
    }
}

impl RecencyIndex {
    /// An empty index.
    pub fn new() -> RecencyIndex {
        RecencyIndex {
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            slots: HashMap::default(),
        }
    }

    /// Keys indexed.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no key is indexed.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The key's metadata, without counting as an access.
    pub fn get(&self, nskey: u64) -> Option<KeyMeta> {
        self.slots.get(&nskey).map(|&i| self.nodes[i as usize].meta)
    }

    /// Marks `nskey` most recently used; `false` when it is not indexed.
    pub fn touch(&mut self, nskey: u64) -> bool {
        let Some(&i) = self.slots.get(&nskey) else { return false };
        self.move_to_tail(i);
        true
    }

    /// Indexes `nskey` as most recently used, returning the metadata it
    /// replaced.
    pub fn insert(&mut self, nskey: u64, meta: KeyMeta) -> Option<KeyMeta> {
        if let Some(&i) = self.slots.get(&nskey) {
            self.move_to_tail(i);
            return Some(std::mem::replace(&mut self.nodes[i as usize].meta, meta));
        }
        let node = Node { nskey, meta, prev: NIL, next: NIL };
        let i = if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = node;
            i
        } else {
            let i = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("a worker indexes fewer than 2^32 - 1 keys");
            self.nodes.push(node);
            i
        };
        self.link_tail(i);
        self.slots.insert(nskey, i);
        None
    }

    /// Drops `nskey` from the index.
    pub fn remove(&mut self, nskey: u64) -> Option<KeyMeta> {
        let i = self.slots.remove(&nskey)?;
        self.unlink(i);
        let node = &mut self.nodes[i as usize];
        node.next = self.free;
        self.free = i;
        Some(node.meta)
    }

    /// The least recently used key.
    pub fn oldest(&self) -> Option<u64> {
        (self.head != NIL).then(|| self.nodes[self.head as usize].nskey)
    }

    /// Keys from least to most recently used.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let node = self.nodes.get(at as usize)?;
            at = node.next;
            Some(node.nskey)
        })
    }

    fn move_to_tail(&mut self, i: u32) {
        if i != self.tail {
            self.unlink(i);
            self.link_tail(i);
        }
    }

    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.nodes[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_tail(&mut self, i: u32) {
        let old_tail = std::mem::replace(&mut self.tail, i);
        let node = &mut self.nodes[i as usize];
        node.prev = old_tail;
        node.next = NIL;
        match old_tail {
            NIL => self.head = i,
            t => self.nodes[t as usize].next = i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hints come from real puts only: one per payload length `0..n`.
    fn hints(n: usize) -> Vec<RecordHint> {
        use farmem_core::{FarBlobMap, HtTreeConfig};
        let f = farmem_fabric::FabricConfig::count_only(1 << 20).build();
        let a = farmem_alloc::FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut m: FarBlobMap = FarBlobMap::create(&mut c, &a, HtTreeConfig::default()).unwrap();
        (0..n).map(|len| m.put(&mut c, len as u64, [], &vec![0; len]).unwrap().1).collect()
    }

    #[test]
    fn order_follows_last_access_and_slots_are_reused() {
        let hints = hints(10);
        // Distinct per `charged`, so a mixed-up hint shows as a wrong entry.
        let meta = |charged: u64| KeyMeta {
            tenant: TenantId(0),
            charged,
            hint: hints[charged as usize / 10],
        };
        assert_eq!(std::mem::size_of::<KeyMeta>(), 24, "the hint costs a key 8 bytes");
        let mut ix = RecencyIndex::new();
        for k in 1..=4u64 {
            assert_eq!(ix.insert(k, meta(k * 10)), None);
        }
        assert!(ix.touch(1));
        assert!(!ix.touch(9));
        assert_eq!(ix.insert(2, meta(99)), Some(meta(20)), "overwrite returns the old entry");
        assert_eq!(ix.iter().collect::<Vec<_>>(), [3, 4, 1, 2]);
        assert_eq!(ix.remove(4), Some(meta(40)));
        assert_eq!(ix.remove(4), None);
        assert_eq!(ix.oldest(), Some(3));
        // The freed slot is taken before the slab grows.
        ix.insert(5, meta(50));
        assert_eq!(ix.nodes.len(), 4);
        assert_eq!(ix.iter().collect::<Vec<_>>(), [3, 1, 2, 5]);
        assert_eq!((ix.len(), ix.get(2)), (4, Some(meta(99))));
        for k in [3, 1, 2, 5] {
            assert_eq!(ix.oldest(), Some(k));
            ix.remove(k);
        }
        assert!(ix.is_empty() && ix.oldest().is_none() && ix.iter().next().is_none());
    }
}
