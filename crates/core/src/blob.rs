//! Variable-length values over the HT-tree: blob records behind pointers.
//!
//! The core map stores `u64 → u64`; for "very large keys or values" the
//! paper points at pointer indirection with placement control (§7.1).
//! [`FarBlobMap`] layers that on the HT-tree: a value is a pointer to an
//! immutable far record `{len, bytes…}` written through a per-handle
//! arena.
//!
//! Costs: a store is the map's two far accesses — the record's bytes
//! ride the put's own fenced batch ([`HtTreeHandle::publish`]), which in
//! reclaim mode also returns the record the store superseded (one more
//! access per chain hop down to it); a lookup is the map's one far access
//! plus one record read — the record read prefetches
//! [`FarBlobMap::PREFETCH`] bytes, so blobs up to `PREFETCH - 8` bytes
//! need no second read.
//!
//! With [`FarBlobMap::attach_reclaimed`] the map participates in
//! epoch-based reclamation: overwrites and removes retire the superseded
//! record (slab-allocated in this mode) into the limbo list. An overwrite
//! pays nothing for that — the superseded pointer comes back from the
//! store and its length from the allocator's books; a remove pays one
//! lookup ahead of its tombstone, and stops there when the key is absent.
//! Constraint: a remove racing another mutation of the **same key** from
//! a different client can retire the same old record twice (its lookup
//! and its tombstone are separate accesses); the allocator rejects the
//! loser's double free as `BadFree`. Keep each key single-writer (or
//! externally serialized) in reclaim mode.

use farmem_alloc::{AllocError, AllocHint, Arena, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr, WORD};
use farmem_reclaim::SharedReclaim;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::httree::{HtTree, HtTreeConfig, HtTreeHandle};

/// A far-memory map from `u64` keys to byte strings.
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::FarAlloc;
/// use farmem_core::{FarBlobMap, HtTreeConfig};
///
/// let fabric = FabricConfig::single_node(16 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut c = fabric.client();
/// let mut m = FarBlobMap::create(&mut c, &alloc, HtTreeConfig::default()).unwrap();
/// m.put_bytes(&mut c, 1, b"hello far memory").unwrap();
/// assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"hello far memory");
/// ```
pub struct FarBlobMap {
    inner: HtTreeHandle,
    arena: Arena,
    alloc: Arc<FarAlloc>,
    /// Epoch-based reclamation: `Some` for `attach_reclaimed` handles.
    reclaim: Option<SharedReclaim>,
}

impl FarBlobMap {
    /// Bytes fetched with the first record read; blobs up to
    /// `PREFETCH - 8` bytes complete in that one access.
    pub const PREFETCH: u64 = 256;

    /// Creates a new blob map (an HT-tree plus a record arena).
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
    ) -> Result<FarBlobMap> {
        let tree = HtTree::create(client, alloc, cfg)?;
        FarBlobMap::attach(client, alloc, tree, cfg)
    }

    /// Attaches to an existing HT-tree as a blob map.
    pub fn attach(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        tree: HtTree,
        cfg: HtTreeConfig,
    ) -> Result<FarBlobMap> {
        let inner = tree.attach(client, alloc, cfg)?;
        Ok(FarBlobMap {
            inner,
            arena: Arena::new(alloc.clone(), 16 * 4096, AllocHint::Spread),
            alloc: alloc.clone(),
            reclaim: None,
        })
    }

    /// Creates a new blob map whose handles reclaim superseded records
    /// through `reclaim` (see the module docs for the costs and the
    /// single-writer-per-key constraint).
    pub fn create_reclaimed(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
        reclaim: SharedReclaim,
    ) -> Result<FarBlobMap> {
        let tree = HtTree::create(client, alloc, cfg)?;
        FarBlobMap::attach_reclaimed(client, alloc, tree, cfg, reclaim)
    }

    /// Attaches in reclaim mode: records are slab-allocated, and every
    /// overwrite or remove retires the record it supersedes into the
    /// limbo list. All handles of one tree must use the same mode.
    pub fn attach_reclaimed(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        tree: HtTree,
        cfg: HtTreeConfig,
        reclaim: SharedReclaim,
    ) -> Result<FarBlobMap> {
        let inner = tree.attach_reclaimed(client, alloc, cfg, reclaim.clone())?;
        Ok(FarBlobMap {
            inner,
            arena: Arena::new(alloc.clone(), 16 * 4096, AllocHint::Spread),
            alloc: alloc.clone(),
            reclaim: Some(reclaim),
        })
    }

    /// The underlying HT-tree (to share with `u64`-value users or attach
    /// more handles).
    pub fn tree(&self) -> HtTree {
        *self.inner.tree()
    }

    /// Stores `value` under `key` in the map's two far accesses: alloc,
    /// [`HtTreeHandle::publish`], retire what came back. Reclaim mode adds
    /// the chain hops down to the key's previous item, if it had one below
    /// the bucket head; quarantine mode strands that record with the arena
    /// and never looks for it.
    pub fn put_bytes(&mut self, client: &mut FabricClient, key: u64, value: &[u8]) -> Result<()> {
        let _span = client.span("blob.put_bytes");
        if value.len() as u64 > u32::MAX as u64 {
            return Err(CoreError::BadConfig("blob too large"));
        }
        let len = WORD + value.len() as u64;
        let record = if self.reclaim.is_some() {
            self.alloc.alloc(len, AllocHint::Spread)?
        } else {
            self.arena.alloc(len)?
        };
        let mut bytes = Vec::with_capacity(len as usize);
        bytes.extend_from_slice(&(value.len() as u64).to_le_bytes());
        bytes.extend_from_slice(value);
        match self.inner.publish(client, key, record, &bytes) {
            Ok(old) => self.retire_old(client, old),
            Err(e) => {
                // `publish` fails only ahead of its CAS: never linked, so
                // nobody can reach the record and no grace period is due.
                if self.reclaim.is_some() {
                    self.alloc.free(record, len)?;
                }
                Err(e)
            }
        }
    }

    /// Fetches the blob under `key`: the map's one far access plus one
    /// (sometimes two, for blobs past the prefetch) record reads.
    pub fn get_bytes(&mut self, client: &mut FabricClient, key: u64) -> Result<Option<Vec<u8>>> {
        let _span = client.span("blob.get_bytes");
        let Some(ptr) = self.inner.get(client, key)? else {
            return Ok(None);
        };
        let record = FarAddr(ptr);
        let first = client.read(record, Self::PREFETCH)?;
        let len = u64::from_le_bytes(first[0..8].try_into().expect("length word"));
        let mut out = Vec::with_capacity(len as usize);
        let have = (Self::PREFETCH - WORD).min(len);
        out.extend_from_slice(&first[8..8 + have as usize]);
        if len > have {
            let tail = client.read(record.offset(WORD + have), len - have)?;
            out.extend_from_slice(&tail);
        }
        Ok(Some(out))
    }

    /// Removes `key`. Quarantine mode publishes the tombstone and strands
    /// the record with the arena (two far accesses); reclaim mode looks
    /// the record up first (one), returns if there is none, and otherwise
    /// publishes the tombstone and retires it (three in all).
    pub fn remove(&mut self, client: &mut FabricClient, key: u64) -> Result<()> {
        let _span = client.span("blob.remove");
        if self.reclaim.is_none() {
            return self.inner.remove(client, key);
        }
        let Some(old) = self.inner.get(client, key)? else {
            return Ok(());
        };
        self.inner.remove(client, key)?;
        self.retire_old(client, Some(old))
    }

    /// Retires the record a mutation just unlinked, at the length the
    /// allocator booked for it (no far access). The record stays readable
    /// by concurrent guards until its grace period elapses.
    fn retire_old(&mut self, client: &mut FabricClient, old: Option<u64>) -> Result<()> {
        let (Some(shared), Some(ptr)) = (self.reclaim.clone(), old) else {
            return Ok(());
        };
        let addr = FarAddr(ptr);
        let len = self.alloc.size_of(addr).ok_or(AllocError::BadFree { addr })?;
        let mut r = shared.lock().unwrap();
        // lint: retire-ok: the record was unlinked by the map op; concurrent readers hold epoch guards until grace elapses.
        r.retire(client, addr, len).map_err(CoreError::from)
    }

    /// Statistics of the underlying map handle.
    pub fn stats(&self) -> crate::httree::HtTreeStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn bytes_round_trip_various_sizes() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut m = FarBlobMap::create(&mut c, &a, HtTreeConfig::default()).unwrap();
        for (k, size) in [(1u64, 0usize), (2, 1), (3, 100), (4, 247), (5, 248), (6, 249), (7, 5000)] {
            let v: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            m.put_bytes(&mut c, k, &v).unwrap();
            assert_eq!(m.get_bytes(&mut c, k).unwrap().as_deref(), Some(&v[..]), "size {size}");
        }
        assert_eq!(m.get_bytes(&mut c, 99).unwrap(), None);
    }

    #[test]
    fn small_blob_lookup_costs_two_far_accesses() {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut m = FarBlobMap::create(&mut c, &a, cfg).unwrap();
        m.put_bytes(&mut c, 7, b"hello far memory").unwrap();
        let before = c.stats();
        assert_eq!(m.get_bytes(&mut c, 7).unwrap().unwrap(), b"hello far memory");
        assert_eq!(
            c.stats().since(&before).round_trips,
            2,
            "map lookup + one record read"
        );
    }

    #[test]
    fn large_blob_needs_one_extra_read() {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut m = FarBlobMap::create(&mut c, &a, cfg).unwrap();
        let v = vec![9u8; 4096];
        m.put_bytes(&mut c, 7, &v).unwrap();
        let before = c.stats();
        assert_eq!(m.get_bytes(&mut c, 7).unwrap().unwrap(), v);
        assert_eq!(c.stats().since(&before).round_trips, 3);
    }

    #[test]
    fn updates_replace_and_removes_hide() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut m = FarBlobMap::create(&mut c, &a, HtTreeConfig::default()).unwrap();
        m.put_bytes(&mut c, 1, b"first").unwrap();
        m.put_bytes(&mut c, 1, b"second, longer value").unwrap();
        assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"second, longer value");
        m.remove(&mut c, 1).unwrap();
        assert_eq!(m.get_bytes(&mut c, 1).unwrap(), None);
    }

    #[test]
    fn reclaimed_overwrites_and_removes_return_records() {
        let (f, a) = setup();
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig {
            initial_buckets: 4096,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut m = FarBlobMap::create_reclaimed(&mut c, &a, cfg, shared.clone()).unwrap();
        m.put_bytes(&mut c, 1, &[7u8; 500]).unwrap();
        let retired_before = shared.lock().unwrap().stats().retired_bytes;
        // Overwrite: the 500-byte record is superseded and retired.
        m.put_bytes(&mut c, 1, b"short").unwrap();
        let retired_mid = shared.lock().unwrap().stats().retired_bytes;
        // The limbo list counts allocator bytes — the block's size class
        // (`FarAlloc::size_of`), which is what freeing it returns — not
        // the 8 + 500 the record's own length word would say.
        assert_eq!(retired_mid - retired_before, 512, "old record retired");
        assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"short");
        // Remove: the replacement record is retired too.
        m.remove(&mut c, 1).unwrap();
        let retired_after = shared.lock().unwrap().stats().retired_bytes;
        assert_eq!(retired_after - retired_mid, 16, "8 + 5 bytes live in the 16-byte class");
        assert_eq!(m.get_bytes(&mut c, 1).unwrap(), None);
        // Sole client: a seal + one grace round frees it all.
        let mut r = shared.lock().unwrap();
        r.seal(&mut c).unwrap();
        let freed = r.reclaim(&mut c).unwrap();
        assert!(freed >= 512 + 16, "records came back to the allocator");
    }

    /// The store-path price list, on a table that never restructures:
    /// what `publish` and the allocator's books took off each mutation.
    fn mutation_costs(reclaimed: bool) {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut m = if reclaimed {
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
            let shared = reg.attach(&mut c, &a).unwrap();
            FarBlobMap::create_reclaimed(&mut c, &a, cfg, shared).unwrap()
        } else {
            FarBlobMap::create(&mut c, &a, cfg).unwrap()
        };
        let rt = |c: &mut FabricClient, op: &mut dyn FnMut(&mut FabricClient)| {
            let before = c.stats();
            op(c);
            c.stats().since(&before).round_trips
        };
        assert_eq!(rt(&mut c, &mut |c| m.put_bytes(c, 1, b"fresh").unwrap()), 2, "fresh put");
        assert_eq!(
            rt(&mut c, &mut |c| m.put_bytes(c, 1, b"over the head").unwrap()),
            2,
            "overwrite, old item at the chain head"
        );
        // Chain another key on top of key 1: its lookup grows by one hop.
        let above = (2u64..)
            .find(|&k| {
                m.put_bytes(&mut c, k, b"probe").unwrap();
                rt(&mut c, &mut |c| drop(m.get_bytes(c, 1).unwrap())) == 3
            })
            .unwrap();
        // Only a map that will retire the old record walks down to it.
        assert_eq!(
            rt(&mut c, &mut |c| m.put_bytes(c, 1, b"under a neighbour").unwrap()),
            if reclaimed { 3 } else { 2 },
            "overwrite, old item one hop below key {above}"
        );
        assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"under a neighbour");
        if !reclaimed {
            return; // quarantine removes are the tree's own two accesses
        }
        assert_eq!(rt(&mut c, &mut |c| m.remove(c, 1).unwrap()), 3, "remove: lookup + tombstone");
        // A miss stops after the lookup: no tombstone joins the chain.
        let mut probe = m.tree().attach(&mut c, &a, cfg).unwrap();
        let (removes, items) = (m.stats().removes, probe.len_estimate(&mut c).unwrap());
        assert_eq!(rt(&mut c, &mut |c| m.remove(c, 1).unwrap()), 1, "remove of a removed key");
        assert_eq!(rt(&mut c, &mut |c| m.remove(c, 1 << 40).unwrap()), 1, "remove of a new key");
        assert_eq!(m.stats().removes, removes);
        assert_eq!(probe.len_estimate(&mut c).unwrap(), items);
    }

    #[test]
    fn reclaimed_mutations_cost_two_accesses_plus_hops_and_a_lookup_per_remove() {
        mutation_costs(true);
    }

    #[test]
    fn quarantine_store_costs_two_far_accesses() {
        mutation_costs(false);
    }

    #[test]
    fn survives_splits() {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let mut m = FarBlobMap::create(&mut c, &a, cfg).unwrap();
        for k in 0..500u64 {
            m.put_bytes(&mut c, k, format!("value-{k}").as_bytes()).unwrap();
        }
        assert!(m.stats().splits + m.stats().grows > 0);
        for k in 0..500u64 {
            assert_eq!(
                m.get_bytes(&mut c, k).unwrap().unwrap(),
                format!("value-{k}").as_bytes()
            );
        }
    }
}
