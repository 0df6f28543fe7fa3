//! Variable-length values over the HT-tree: immutable far records behind
//! pointers. The one record layer: [`FarBlobMap`] is the byte-string map,
//! and `farmem-serve`'s record store is `FarBlobMap<1>` plus a TTL rule.
//!
//! The core map stores `u64 → u64`; for "very large keys or values" the
//! paper points at pointer indirection with placement control (§7.1). A
//! value here is a pointer to a record that is never modified once
//! linked:
//!
//! ```text
//! record := { len: u64 | H header words | len payload bytes }
//! ```
//!
//! `H` is a compile-time parameter: the blob map has none, serve keeps an
//! expiry instant in one. The header words ride in front of the payload
//! so that a lookup can judge them ([`FarBlobMap::get_if`]) from the
//! prefetch alone, without reading a payload it will not return.
//!
//! Costs: a store is the map's two far accesses — the record's bytes
//! ride the put's own fenced batch ([`HtTreeHandle::publish`]), which in
//! reclaim mode also returns the record the store superseded (one more
//! access per chain hop down to it); a lookup is the map's one far access
//! plus one record read — the record read prefetches
//! [`FarBlobMap::PREFETCH`] bytes, so payloads up to
//! [`FarBlobMap::PREFETCHED`] bytes need no second read.
//!
//! With [`FarBlobMap::attach_reclaimed`] the map participates in
//! epoch-based reclamation: records are slab-allocated, lookups hold the
//! tree lookup's epoch guard to the last record byte, and
//! overwrites and removes retire the superseded record into the limbo
//! list. An overwrite pays nothing for that — the superseded pointer
//! comes back from the store and its length from the allocator's books; a
//! remove pays one lookup ahead of its tombstone, and stops there when
//! the key is absent. Constraint: a remove racing another mutation of the
//! **same key** from a different client can retire the same old record
//! twice (its lookup and its tombstone are separate accesses); the
//! allocator rejects the loser's double free as `BadFree`. Keep each key
//! single-writer (or externally serialized) in reclaim mode.

use farmem_alloc::{AllocError, AllocHint, Arena, FarAlloc};
use farmem_fabric::{DescList, FabricClient, FarAddr, WORD};
use farmem_reclaim::SharedReclaim;
use farmem_runtime::Doorbell;
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::httree::{HtTree, HtTreeConfig, HtTreeHandle};
use crate::word_at;

/// Bytes fetched with the first record read.
const PREFETCH: u64 = 256;

/// Where records come from and where superseded ones go.
enum Records {
    /// Bump-allocated; a superseded record is stranded with the arena.
    Quarantine(Arena),
    /// Slab-allocated; a superseded record is retired into the limbo list.
    Reclaim(SharedReclaim),
}

/// A far-memory map from `u64` keys to byte strings, each behind `H`
/// caller-defined header words (none by default).
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
pub struct FarBlobMap<const H: usize = 0> {
    inner: HtTreeHandle,
    alloc: Arc<FarAlloc>,
    records: Records,
}

impl<const H: usize> FarBlobMap<H> {
    /// Bytes fetched with the first record read.
    pub const PREFETCH: u64 = PREFETCH;

    /// Bytes ahead of a record's payload: the length word and `H` header
    /// words.
    pub const HEADER: u64 = (1 + H as u64) * WORD;

    /// Payload bytes the first record read covers; a longer payload takes
    /// one more read.
    pub const PREFETCHED: u64 = PREFETCH - Self::HEADER;

    /// Creates a new blob map (an HT-tree plus a record arena).
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
    ) -> Result<Self> {
        let tree = HtTree::create(client, alloc, cfg)?;
        Self::attach(client, alloc, tree, cfg)
    }

    /// Attaches to an existing HT-tree as a blob map.
    pub fn attach(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        tree: HtTree,
        cfg: HtTreeConfig,
    ) -> Result<Self> {
        Ok(FarBlobMap {
            inner: tree.attach(client, alloc, cfg)?,
            alloc: alloc.clone(),
            records: Records::Quarantine(Arena::new(alloc.clone(), 16 * 4096, AllocHint::Spread)),
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
    ) -> Result<Self> {
        let tree = HtTree::create(client, alloc, cfg)?;
        Self::attach_reclaimed(client, alloc, tree, cfg, reclaim)
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
    ) -> Result<Self> {
        Ok(FarBlobMap {
            inner: tree.attach_reclaimed(client, alloc, cfg, reclaim.clone())?,
            alloc: alloc.clone(),
            records: Records::Reclaim(reclaim),
        })
    }

    /// The underlying HT-tree (to share with `u64`-value users or attach
    /// more handles).
    pub fn tree(&self) -> HtTree {
        *self.inner.tree()
    }

    /// Statistics of the underlying map handle.
    pub fn stats(&self) -> crate::httree::HtTreeStats {
        self.inner.stats()
    }

    /// Stores `value` behind `header` under `key` in the map's two far
    /// accesses: alloc, [`HtTreeHandle::publish`], retire what came back.
    /// Reclaim mode adds the chain hops down to the key's previous item,
    /// if it had one below the bucket head, and returns whether a record
    /// was replaced (and retired); quarantine mode strands that record
    /// with the arena, never looks for it and returns `false`.
    pub fn put(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        header: [u64; H],
        value: &[u8],
    ) -> Result<bool> {
        if value.len() as u64 > u32::MAX as u64 {
            return Err(CoreError::BadConfig("blob too large"));
        }
        let len = Self::HEADER + value.len() as u64;
        let record = match &mut self.records {
            Records::Quarantine(arena) => arena.alloc(len)?,
            Records::Reclaim(_) => self.alloc.alloc(len, AllocHint::Spread)?,
        };
        let mut bytes = Vec::with_capacity(len as usize);
        bytes.extend_from_slice(&(value.len() as u64).to_le_bytes());
        for word in header {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(value);
        match self.inner.publish(client, key, record, &bytes) {
            Ok(None) => Ok(false),
            // lint: retire-ok: the overwritten record was unlinked by the
            // publish above; readers hold epoch guards until grace.
            Ok(Some(old)) => self.retire(client, old).map(|()| true),
            Err(e) => {
                // `publish` fails only ahead of its CAS: never linked, so
                // nobody can reach the record and no grace period is due.
                if let Records::Reclaim(_) = self.records {
                    self.alloc.free(record, len)?;
                }
                Err(e)
            }
        }
    }

    /// Splits a record's prefetched prefix into its payload length and
    /// header words.
    fn decode(first: &[u8]) -> (u64, [u64; H]) {
        (word_at(first, 0), std::array::from_fn(|i| word_at(first, (1 + i as u64) * WORD)))
    }

    /// Fetches the record under `key` if `live` accepts its header words:
    /// the map's one far access plus one (two, for a payload past the
    /// prefetch) record reads. `None` is a key with no record;
    /// `Some(None)` a record whose header `live` turned down — its payload
    /// is never materialized.
    pub fn get_if(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        live: impl FnOnce(&[u64; H]) -> bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        // Reclaim mode: the lookup's epoch guard is held to the record's
        // last byte, so a record another client is concurrently retiring
        // stays readable until grace elapses.
        let (ptr, _guard) = self.inner.get_guarded(client, key)?;
        let Some(ptr) = ptr else {
            return Ok(None);
        };
        let record = FarAddr(ptr);
        let mut first = [0u8; PREFETCH as usize];
        client.read_into(record, &mut first)?;
        let (len, header) = Self::decode(&first);
        if !live(&header) {
            return Ok(Some(None));
        }
        // One buffer sized from the header: the prefetched part is copied
        // in, the rest of a large value is read straight into place.
        let mut out = vec![0u8; len as usize];
        let have = Self::PREFETCHED.min(len) as usize;
        let (head, tail) = out.split_at_mut(have);
        head.copy_from_slice(&first[Self::HEADER as usize..][..have]);
        if !tail.is_empty() {
            client.read_into(record.offset(Self::HEADER + have as u64), tail)?;
        }
        Ok(Some(Some(out)))
    }

    /// [`get_if`](Self::get_if) over a batch of keys and any
    /// [`Doorbell`]: the tree lookups post through one doorbell
    /// ([`HtTreeHandle::get_many_async`]), then every found record's
    /// prefetch read posts through a second shared one — so an executor
    /// interleaves whole sessions' batches on one OS thread. Results are
    /// those of one `get_if` per key.
    pub async fn get_many_async<D: Doorbell>(
        &mut self,
        ac: &D,
        keys: &[u64],
        live: impl Fn(&[u64; H]) -> bool,
    ) -> Result<Vec<Option<Option<Vec<u8>>>>> {
        let (ptrs, _guard) = self.inner.get_many_async_guarded(ac, keys).await?;
        let mut heads = DescList::new();
        let posted: Vec<Option<(FarAddr, usize)>> = ptrs
            .into_iter()
            .map(|ptr| ptr.map(|p| (FarAddr(p), heads.read(FarAddr(p), PREFETCH))))
            .collect();
        let mut cq = ac.ring(heads).await;
        let mut out = Vec::with_capacity(keys.len());
        for found in posted {
            let Some((record, slot)) = found else {
                out.push(None);
                continue;
            };
            let first = match cq.take(slot) {
                Some(Ok(res)) => res.into_bytes(),
                // lint: block-ok — serial fallback after a failed
                // prefetch, identical to the sync path.
                // audit: rt-in-loop-ok: rare per-key fallback — the hot path
                // batched every prefetch through one doorbell above.
                _ => ac.with(|c| c.read(record, PREFETCH))?,
            };
            let (len, header) = Self::decode(&first);
            if !live(&header) {
                out.push(Some(None));
                continue;
            }
            // The completion's own buffer becomes the value: drop the
            // header and the bytes past a short value, then append the
            // tail of a large one (no async read-into exists, so that
            // tail still arrives in the doorbell's buffer).
            let have = Self::PREFETCHED.min(len);
            let mut v = first;
            v.truncate((Self::HEADER + have) as usize);
            v.drain(..Self::HEADER as usize);
            if len > have {
                let tail = ac.read(record.offset(Self::HEADER + have), len - have).await?;
                v.reserve_exact(tail.len());
                v.extend_from_slice(&tail);
            }
            out.push(Some(Some(v)));
        }
        Ok(out)
    }

    /// Removes `key` and returns whether a tombstone was published.
    /// Quarantine mode always publishes one and strands the record with
    /// the arena (two far accesses); reclaim mode looks the record up
    /// first (one), returns `false` if there is none, and otherwise
    /// publishes the tombstone and retires the record (three in all).
    pub fn remove(&mut self, client: &mut FabricClient, key: u64) -> Result<bool> {
        if let Records::Reclaim(_) = self.records {
            let Some(old) = self.inner.get(client, key)? else {
                return Ok(false);
            };
            self.inner.remove(client, key)?;
            // lint: retire-ok: the tombstone above unlinked the record;
            // readers hold epoch guards until grace.
            self.retire(client, old)?;
        } else {
            self.inner.remove(client, key)?;
        }
        Ok(true)
    }

    /// Retires the record a mutation just unlinked, at the length the
    /// allocator booked for it (no far access). The record stays readable
    /// by concurrent guards until its grace period elapses.
    fn retire(&mut self, client: &mut FabricClient, old: u64) -> Result<()> {
        let Records::Reclaim(shared) = &self.records else {
            return Ok(());
        };
        let addr = FarAddr(old);
        let len = self.alloc.size_of(addr).ok_or(AllocError::BadFree { addr })?;
        let mut r = shared.lock().unwrap();
        // lint: retire-ok: the record was unlinked by the map op; concurrent readers hold epoch guards until grace elapses.
        r.retire(client, addr, len).map_err(CoreError::from)
    }
}

impl FarBlobMap {
    /// Stores `value` under `key` ([`put`](Self::put) with no header).
    pub fn put_bytes(&mut self, client: &mut FabricClient, key: u64, value: &[u8]) -> Result<()> {
        let _span = client.span("blob.put_bytes");
        self.put(client, key, [], value).map(drop)
    }

    /// Fetches the blob under `key` ([`get_if`](Self::get_if) with
    /// nothing to turn down).
    pub fn get_bytes(&mut self, client: &mut FabricClient, key: u64) -> Result<Option<Vec<u8>>> {
        let _span = client.span("blob.get_bytes");
        Ok(self.get_if(client, key, |[]| true)?.flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;
    use farmem_runtime::Inline;

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
        assert_eq!(rt(&mut c, &mut |c| assert!(m.remove(c, 1).unwrap())), 3, "remove: lookup + tombstone");
        // A miss stops after the lookup: no tombstone joins the chain.
        let mut probe = m.tree().attach(&mut c, &a, cfg).unwrap();
        let (removes, items) = (m.stats().removes, probe.len_estimate(&mut c).unwrap());
        assert_eq!(rt(&mut c, &mut |c| assert!(!m.remove(c, 1).unwrap())), 1, "remove of a removed key");
        assert_eq!(rt(&mut c, &mut |c| assert!(!m.remove(c, 1 << 40).unwrap())), 1, "remove of a new key");
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

    /// `get_many_async` is one `get_if` per key, whatever the header
    /// width, the mode or the doorbell: hits on either side of the
    /// prefetch, misses, removed keys and records `live` turns down.
    fn get_many_matches_get<const H: usize>(reclaimed: bool, header_of: fn(u64) -> [u64; H]) {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut m: FarBlobMap<H> = if reclaimed {
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
            let shared = reg.attach(&mut c, &a).unwrap();
            FarBlobMap::attach_reclaimed(&mut c, &a, tree, cfg, shared).unwrap()
        } else {
            FarBlobMap::attach(&mut c, &a, tree, cfg).unwrap()
        };
        let sizes = [0, 1, 100, FarBlobMap::<H>::PREFETCHED, FarBlobMap::<H>::PREFETCHED + 1, 5000];
        for k in 0..24u64 {
            let v: Vec<u8> = (0..sizes[k as usize % sizes.len()]).map(|i| (i + k) as u8).collect();
            m.put(&mut c, k, header_of(k), &v).unwrap();
        }
        m.remove(&mut c, 5).unwrap();
        // Turn down every record whose last header word is odd (none when
        // there is no header).
        let live = |h: &[u64; H]| h.last().is_none_or(|w| w % 2 == 0);
        let keys: Vec<u64> = (0..32).rev().collect();
        let serial: Vec<_> = keys.iter().map(|&k| m.get_if(&mut c, k, live).unwrap()).collect();
        let bell = Inline::new(&mut c);
        let batched = Inline::run(m.get_many_async(&bell, &keys, live)).unwrap();
        assert_eq!(batched, serial);
        assert!(serial.iter().any(|r| r.is_none()), "misses");
        assert!(serial.iter().flatten().flatten().any(|v| v.len() > 4096), "tails");
        assert_eq!(serial.contains(&Some(None)), H > 0, "turned-down records");
    }

    #[test]
    fn get_many_equals_per_key_gets() {
        for reclaimed in [false, true] {
            get_many_matches_get::<0>(reclaimed, |_| []);
            get_many_matches_get::<1>(reclaimed, |k| [k % 5]);
        }
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
