//! The record store: slab-class values with TTL words, freed through
//! epoch reclamation.
//!
//! This is [`FarBlobMap`] with one header word — the record format, the
//! prefetch, the store / lookup / remove protocol and the retire are its —
//! holding the absolute expiry instant:
//!
//! ```text
//! record := { len: u64 | expiry_ns: u64 | payload bytes }
//! ```
//!
//! What is serve's own is what that word means (the TTL verdict) and what
//! a record costs a tenant. Records are slab-allocated ([`rounded_len`]
//! size classes), so the bytes a tenant is charged for are the *rounded*
//! class — exactly what [`charged_bytes`] reports and what
//! `FarAlloc::class_stats` audits. Every unlink (overwrite, delete,
//! expiry, eviction) retires the old record into the reclaim limbo list;
//! it stays readable by concurrent epoch guards until grace elapses, and
//! only then returns to the allocator. The server routes each key to one
//! owning worker: not so that a record is retired once (the tree's `take`
//! and `publish` settle that in the bucket CAS), but because the worker's
//! index and hint describe a key only while nobody else mutates it.

use farmem_alloc::{rounded_len, FarAlloc};
use farmem_core::{FarBlobMap, HtTree, HtTreeConfig, RecordHint};
use farmem_fabric::FabricClient;
use farmem_reclaim::SharedReclaim;
use farmem_runtime::Doorbell;
use std::sync::Arc;

use crate::Result;

/// Record header: length word + expiry word.
pub const RECORD_HEADER: u64 = FarBlobMap::<1>::HEADER;

/// The far-memory bytes a stored value of `len` payload bytes is
/// charged: header plus payload at the allocator's own rounding
/// ([`rounded_len`]: four size classes per doubling, so a 64-B value's
/// 80-B record is charged 80 B and a 4-KiB value's 5,120 B). This is the
/// quantity tenant byte quotas meter, so quota accounting and allocator
/// occupancy reconcile exactly.
pub fn charged_bytes(len: u64) -> u64 {
    rounded_len(RECORD_HEADER + len)
}

/// What a lookup found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GetOutcome {
    /// No record under the key.
    Miss,
    /// A record exists but its TTL instant has passed; it is *never*
    /// returned to the caller. The owning worker unlinks and retires it.
    Expired,
    /// A live value.
    Hit(Vec<u8>),
}

impl GetOutcome {
    /// Names what [`FarBlobMap::get_if`] found under the TTL rule.
    fn of(found: Option<Option<Vec<u8>>>) -> GetOutcome {
        match found {
            None => GetOutcome::Miss,
            Some(None) => GetOutcome::Expired,
            Some(Some(value)) => GetOutcome::Hit(value),
        }
    }
}

/// The TTL rule over a record's header word: `0` never expires, anything
/// else is live strictly before that instant.
fn live(expiry_ns: u64, now_ns: u64) -> bool {
    expiry_ns == 0 || now_ns < expiry_ns
}

/// One handle onto the shared record tree (per worker or per session;
/// cheap, client-side).
pub struct RecordStore {
    records: FarBlobMap<1>,
    reclaim: SharedReclaim,
}

impl RecordStore {
    /// Bytes fetched with the first record read; values up to
    /// `PREFETCH - RECORD_HEADER` bytes complete in that one access.
    pub const PREFETCH: u64 = FarBlobMap::<1>::PREFETCH;

    /// Attaches a handle to the shared tree in reclaim mode.
    pub fn attach(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        tree: HtTree,
        cfg: HtTreeConfig,
        reclaim: SharedReclaim,
    ) -> Result<RecordStore> {
        let records = FarBlobMap::attach_reclaimed(client, alloc, tree, cfg, reclaim.clone())?;
        Ok(RecordStore { records, reclaim })
    }

    /// The underlying tree handle's stats.
    pub fn tree_stats(&self) -> farmem_core::HtTreeStats {
        self.records.stats()
    }

    /// Stores `value` under the namespaced key with an absolute expiry
    /// instant (`0` = never) in the tree put's two far accesses. Returns
    /// whether an existing record was replaced (and retired), and where
    /// the record went: the hint that makes
    /// [`get_hinted`](Self::get_hinted) of this key one far access until
    /// the key's next mutation.
    pub fn put(
        &mut self,
        client: &mut FabricClient,
        nskey: u64,
        value: &[u8],
        expiry_ns: u64,
    ) -> Result<(bool, RecordHint)> {
        Ok(self.records.put(client, nskey, [expiry_ns], value)?)
    }

    /// Looks the key up and reads the record, enforcing the TTL against
    /// `now_ns`: an expired record is reported as [`GetOutcome::Expired`]
    /// and its payload is never materialized. The read runs under an
    /// epoch guard, so a record another worker is concurrently retiring
    /// stays readable until grace elapses. Two far accesses (three past
    /// the prefetch): the path of a caller that holds no hint.
    pub fn get(&mut self, client: &mut FabricClient, nskey: u64, now_ns: u64) -> Result<GetOutcome> {
        self.get_hinted(client, nskey, &mut None, now_ns)
    }

    /// [`get`](Self::get) in **one far access** when `hint` names the
    /// key's current record ([`FarBlobMap::get_if`]); the same outcome at
    /// `get`'s own price with any other hint. On return `hint` holds the
    /// hint of the record the tree named, or `None` when there was none.
    pub fn get_hinted(
        &mut self,
        client: &mut FabricClient,
        nskey: u64,
        hint: &mut Option<RecordHint>,
        now_ns: u64,
    ) -> Result<GetOutcome> {
        let found =
            self.records.get_if(client, nskey, hint, |&[expiry_ns]| live(expiry_ns, now_ns))?;
        Ok(GetOutcome::of(found))
    }

    /// [`get_hinted`](Self::get_hinted) over a batch of keys and any
    /// [`Doorbell`], `hints[i]` in and out for `nskeys[i]`: tree lookups
    /// through one doorbell — a fresh hint completes its get there — and
    /// the record prefetches of the rest through a second
    /// ([`FarBlobMap::get_many_async`]). TTL semantics are identical to
    /// the sync path.
    pub async fn get_many_async<D: Doorbell>(
        &mut self,
        ac: &D,
        nskeys: &[u64],
        hints: &mut [Option<RecordHint>],
        now_ns: u64,
    ) -> Result<Vec<GetOutcome>> {
        let found = self
            .records
            .get_many_async(ac, nskeys, hints, |&[expiry_ns]| live(expiry_ns, now_ns))
            .await?;
        Ok(found.into_iter().map(GetOutcome::of).collect())
    }

    /// Unlinks the key and retires its record ([`FarBlobMap::remove`], the
    /// tree's `take`): two far accesses — one, and nothing linked, when
    /// there is no record. Returns whether a record existed.
    pub fn remove(&mut self, client: &mut FabricClient, nskey: u64) -> Result<bool> {
        Ok(self.records.remove(client, nskey)?)
    }

    /// Seals the current epoch and runs one reclaim pass, returning the
    /// bytes handed back to the allocator.
    pub fn reclaim_pass(&mut self, client: &mut FabricClient) -> Result<u64> {
        let mut r = self.reclaim.lock().unwrap();
        r.seal(client)?;
        let freed = r.reclaim(client)?;
        Ok(freed)
    }

    /// Gives this handle's epoch slot back to the registry
    /// ([`ReclaimHandle::release`](farmem_reclaim::ReclaimHandle::release)):
    /// for a per-session handle that only read, at the session's end.
    pub fn release(self, client: &mut FabricClient) -> Result<()> {
        Ok(self.reclaim.lock().unwrap().release(client)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_alloc::AllocHint;
    use farmem_fabric::FabricConfig;
    use farmem_reclaim::ReclaimRegistry;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    fn store(
        _f: &Arc<farmem_fabric::Fabric>,
        a: &Arc<FarAlloc>,
        c: &mut FabricClient,
    ) -> RecordStore {
        let reg = ReclaimRegistry::create(c, a, 8).unwrap();
        let shared = reg.attach(c, a).unwrap();
        let cfg = HtTreeConfig { initial_buckets: 1024, ..HtTreeConfig::default() };
        let tree = HtTree::create(c, a, cfg).unwrap();
        RecordStore::attach(c, a, tree, cfg, shared).unwrap()
    }

    #[test]
    fn charged_bytes_round_to_classes() {
        assert_eq!(charged_bytes(0), 16);
        assert_eq!(charged_bytes(1), 32);
        assert_eq!(charged_bytes(48), 64);
        assert_eq!(charged_bytes(64), 80);
        assert_eq!(charged_bytes(2032), 2048);
        assert_eq!(charged_bytes(2033), 2560); // the next class, not the next page
        assert_eq!(charged_bytes(4096), 5120); // past a page: a 5-KiB class, not two pages
    }

    #[test]
    fn charged_bytes_are_what_the_allocator_books() {
        let (_f, a) = setup();
        for len in 0..=3 * farmem_fabric::PAGE {
            let rec = a.alloc(RECORD_HEADER + len, AllocHint::Spread).unwrap();
            assert_eq!(Some(charged_bytes(len)), a.size_of(rec), "len {len}");
            a.free(rec, charged_bytes(len)).unwrap();
        }
    }

    #[test]
    fn mutations_cost_two_accesses_plus_hops() {
        let (f, a) = setup();
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &a, 8).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let tree = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut s = RecordStore::attach(&mut c, &a, tree, cfg, shared).unwrap();
        let rt = |c: &mut FabricClient, op: &mut dyn FnMut(&mut FabricClient)| {
            let before = c.stats();
            op(c);
            c.stats().since(&before).round_trips
        };
        assert_eq!(rt(&mut c, &mut |c| assert!(!s.put(c, 1, b"fresh", 0).unwrap().0)), 2, "fresh put");
        assert_eq!(
            rt(&mut c, &mut |c| assert!(s.put(c, 1, b"over the head", 0).unwrap().0)),
            2,
            "overwrite, key 1 alone in its block"
        );
        // Another key in key 1's bucket: the block grows, and its lookup
        // and stores stay at their price.
        let bucket = |k: u64| farmem_fabric::splitmix64(k) % cfg.initial_buckets;
        let beside = (2u64..).find(|&k| bucket(k) == bucket(1)).unwrap();
        s.put(&mut c, beside, b"probe", 0).unwrap();
        assert_eq!(rt(&mut c, &mut |c| drop(s.get(c, 1, 0).unwrap())), 2, "lookup + record");
        assert_eq!(
            rt(&mut c, &mut |c| assert!(s.put(c, 1, b"beside a neighbour", 0).unwrap().0)),
            2,
            "overwrite, key 1 beside key {beside}"
        );
        assert_eq!(s.get(&mut c, 1, 0).unwrap(), GetOutcome::Hit(b"beside a neighbour".to_vec()));
        assert_eq!(rt(&mut c, &mut |c| assert!(s.remove(c, 1).unwrap())), 2, "the tree's take");
        // A miss stops after one access and links nothing.
        let mut probe = tree.attach(&mut c, &a, cfg).unwrap();
        let (removes, items) = (s.tree_stats().removes, probe.len_estimate(&mut c).unwrap());
        assert_eq!(rt(&mut c, &mut |c| assert!(!s.remove(c, 1).unwrap())), 1, "removed key");
        assert_eq!(rt(&mut c, &mut |c| assert!(!s.remove(c, 1 << 40).unwrap())), 1, "new key");
        assert_eq!(s.tree_stats().removes, removes);
        assert_eq!(probe.len_estimate(&mut c).unwrap(), items);
    }

    /// One record layer: the same sequence through the blob map and the
    /// store books the same accesses, and the only bytes between them are
    /// the expiry word — written with each record, read back with a
    /// payload that runs past the prefetch.
    #[test]
    fn the_blob_map_books_the_same_accesses_less_the_expiry_word() {
        use farmem_fabric::{AccessStats, WORD};
        let cfg = HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let (small, large) = ([7u8; 44], [9u8; 1000]);
        // (step, op: 0 put / 1 get / 2 remove, value, expiry words written, read)
        let script: [(&str, u8, &[u8], u64, u64); 7] = [
            ("fresh put", 0, &small, 1, 0),
            ("get inside the prefetch", 1, &small, 0, 0),
            ("overwrite", 0, &large, 1, 0),
            ("get past the prefetch", 1, &large, 0, 1),
            ("remove", 2, &[], 0, 0),
            ("remove of a removed key", 2, &[], 0, 0),
            ("get of a removed key", 1, &[], 0, 0),
        ];
        let deployment = || {
            let (f, a) = setup();
            let mut c = f.client();
            let reg = ReclaimRegistry::create(&mut c, &a, 8).unwrap();
            let shared = reg.attach(&mut c, &a).unwrap();
            let tree = HtTree::create(&mut c, &a, cfg).unwrap();
            (c, a, tree, shared)
        };
        let costs = |c: &mut FabricClient, step: &mut dyn FnMut(&mut FabricClient, u8, &[u8])| {
            let cost = |&(_, op, value, ..): &(&str, u8, &[u8], u64, u64)| -> AccessStats {
                let before = c.stats();
                step(c, op, value);
                c.stats().since(&before)
            };
            script.iter().map(cost).collect::<Vec<_>>()
        };
        let (mut c, a, tree, shared) = deployment();
        let mut m: FarBlobMap = FarBlobMap::attach_reclaimed(&mut c, &a, tree, cfg, shared).unwrap();
        let blob_costs = costs(&mut c, &mut |c, op, value| match op {
            0 => m.put_bytes(c, 1, value).unwrap(),
            1 => assert_eq!(m.get_bytes(c, 1).unwrap().is_some(), !value.is_empty()),
            _ => drop(m.remove(c, 1).unwrap()),
        });
        let (mut c, a, tree, shared) = deployment();
        let mut s = RecordStore::attach(&mut c, &a, tree, cfg, shared).unwrap();
        let store_costs = costs(&mut c, &mut |c, op, value| match op {
            0 => drop(s.put(c, 1, value, 0).unwrap()),
            1 => assert_eq!(s.get(c, 1, 0).unwrap() != GetOutcome::Miss, !value.is_empty()),
            _ => drop(s.remove(c, 1).unwrap()),
        });
        for ((&(name, .., written, read), blob), store) in
            script.iter().zip(blob_costs).zip(store_costs)
        {
            let mut want = blob;
            want.bytes_written += written * WORD;
            want.bytes_read += read * WORD;
            assert_eq!(store, want, "{name}");
            assert!(store.round_trips > 0, "{name}");
        }
    }

    /// The session path's batch over any doorbell: eight gets through
    /// `get_many_async` over `Inline` with fresh, stale, absent and
    /// removed-key hints come back as one `get_hinted` per key would —
    /// outcomes and handed-back hints. Their price, whole `AccessStats`:
    /// eight fresh hints are eight round trips in one doorbell, each key
    /// found unhinted or through a stale hint adds one round trip to a
    /// second, shared doorbell, and no batch costs more than the unhinted
    /// one's sixteen. After another client's seal, eight fresh hints still
    /// cost eight round trips in one doorbell: the pin's slot CAS rides the
    /// first descriptor, one more message and one atomic.
    #[test]
    fn a_batch_of_fresh_hints_is_one_doorbell_and_the_rest_share_a_second() {
        use farmem_fabric::{splitmix64, AccessStats};
        use farmem_runtime::Inline;
        const ITEM: u64 = 32;
        const LEN: u64 = 40;
        let (f, a) = setup();
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &a, 8).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let tree = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut s = RecordStore::attach(&mut c, &a, tree, cfg, shared).unwrap();
        // Nine keys in nine buckets: no chain hops anywhere.
        let mut buckets = std::collections::HashSet::new();
        let k: Vec<u64> =
            (1u64..).filter(|&k| buckets.insert(splitmix64(k) % 64)).take(9).collect();
        let value = [7u8; LEN as usize];
        let mut h: Vec<RecordHint> =
            k[..8].iter().map(|&key| s.put(&mut c, key, &value, 0).unwrap().1).collect();
        type Hints<'a> = &'a [Option<RecordHint>];
        let batch = |s: &mut RecordStore, c: &mut FabricClient, keys: &[u64], hints: Hints| {
            let before = c.stats();
            let mut learned = hints.to_vec();
            let bell = Inline::new(c);
            let got = Inline::run(s.get_many_async(&bell, keys, &mut learned, 0)).unwrap();
            (got, learned, c.stats().since(&before))
        };
        let books = |round_trips, messages, bytes_read, doorbells| AccessStats {
            round_trips,
            messages,
            bytes_read,
            doorbells,
            pipelined_ops: round_trips,
            near_accesses: 16,
            ..AccessStats::default()
        };
        let fresh: Vec<_> = h.iter().copied().map(Some).collect();
        let (_, _, d) = batch(&mut s, &mut c, &k[..8], &fresh);
        assert_eq!(d, books(8, 16, 8 * (ITEM + RECORD_HEADER + LEN), 1), "all fresh");
        let (_, _, d) = batch(&mut s, &mut c, &k[..8], &[None; 8]);
        assert_eq!(d, books(16, 16, 8 * (ITEM + RecordStore::PREFETCH), 2), "unhinted");
        let mut sealer = f.client();
        let sealed = reg.attach(&mut sealer, &a).unwrap();
        let junk = a.alloc(64, AllocHint::Spread).unwrap();
        sealed.lock().unwrap().retire(&mut sealer, junk, 64).unwrap();
        sealed.lock().unwrap().seal(&mut sealer).unwrap();
        let (_, _, d) = batch(&mut s, &mut c, &k[..8], &fresh);
        let carried = books(8, 17, 8 * (ITEM + RECORD_HEADER + LEN), 1);
        let carried = AccessStats { atomics: 1, notifications: 1, ..carried };
        assert_eq!(d, carried, "all fresh, past a seal");

        // Key 2 overwritten (its first hint goes stale), key 5 removed.
        let stale = h[2];
        h[2] = s.put(&mut c, k[2], &value, 0).unwrap().1;
        assert!(s.remove(&mut c, k[5]).unwrap());
        let keys = [k[0], k[1], k[2], k[3], k[4], k[5], k[6], k[8]];
        // Fresh, fresh, its own stale, none, another key's, a removed
        // key's, fresh, and a never-stored key's (another key's hint).
        let hints =
            [Some(h[0]), Some(h[1]), Some(stale), None, Some(h[0]), Some(h[5]), Some(h[6]), Some(h[1])];
        let (got, learned, d) = batch(&mut s, &mut c, &keys, &hints);
        let serial: Vec<_> = keys
            .iter()
            .zip(hints)
            .map(|(&key, mut hint)| (s.get_hinted(&mut c, key, &mut hint, 0).unwrap(), hint))
            .collect();
        assert_eq!(got.into_iter().zip(learned).collect::<Vec<_>>(), serial);
        let hits = serial.iter().filter(|(o, _)| matches!(o, GetOutcome::Hit(_))).count();
        assert_eq!(hits, 6, "keys 5 (removed) and 8 (never stored) miss");
        // Doorbell 1: seven hinted lookups of two messages, one unhinted of
        // one; six items read (the buckets of key 8, never stored, and of
        // key 5, whose item the remove unlinked, are empty), seven hinted
        // records. Doorbell 2: keys 2 and 4 (stale) and 3 (unhinted).
        let spec = RECORD_HEADER + LEN;
        let bytes = 6 * ITEM + 7 * spec + 3 * RecordStore::PREFETCH;
        assert_eq!(d, books(11, 15 + 3, bytes, 2), "mixed");
    }

    /// Fails `victim` once the nodes have executed `after` more accesses:
    /// the one way to land a failure *between* two ops of a fenced batch
    /// (a fault plan's timed crashes are judged once per batch arrival).
    struct FailAfter {
        fabric: std::sync::Weak<farmem_fabric::Fabric>,
        after: std::sync::atomic::AtomicU64,
        victim: farmem_fabric::NodeId,
    }

    impl farmem_fabric::CheckObserver for FailAfter {
        fn access(&self, _access: &farmem_fabric::Access) {
            if self.after.fetch_sub(1, std::sync::atomic::Ordering::SeqCst) == 1 {
                self.fabric.upgrade().expect("fabric outlives its verbs").node(self.victim).fail();
            }
        }
    }

    #[test]
    fn a_put_failing_inside_its_batch_links_nothing_and_frees_the_record() {
        use farmem_core::CoreError;
        use farmem_fabric::{FabricError, NodeId, RetryPolicy};
        let f = FabricConfig {
            nodes: 2,
            retry: RetryPolicy::NONE,
            ..FabricConfig::count_only(64 << 20)
        }
        .build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut s = store(&f, &a, &mut c);
        s.put(&mut c, 5, b"survivor", 0).unwrap();
        // An overwrite's accesses, in order: the first batch's bucket word
        // and block (its tagged `load0`) and header, then the second
        // batch's record write, block write and bucket CAS. Spread
        // placement alternates nodes, so the put's record and its block
        // (consecutive allocations) sit on different nodes.
        for torn in [false, true] {
            let live = a.stats().live_bytes;
            let next = a.alloc(8, AllocHint::Spread).unwrap();
            a.free(next, 8).unwrap();
            let record_node = NodeId(1 - a.node_of(next).0);
            // Not torn: the record's node dies under the header read, so
            // the record write fails before anything mutated. Torn: the
            // block's node dies right after the record write.
            let (after, victim) =
                if torn { (4, NodeId(1 - record_node.0)) } else { (3, record_node) };
            f.install_check_observer(Arc::new(FailAfter {
                fabric: Arc::downgrade(&f),
                after: after.into(),
                victim,
            }));
            let err = s.put(&mut c, 5, b"never reachable", 0).unwrap_err();
            f.clear_check_observer();
            f.node(victim).recover();
            match err {
                crate::ServeError::Core(CoreError::Fabric(FabricError::NodeFailed(n))) if !torn => {
                    assert_eq!(n, victim)
                }
                crate::ServeError::Core(CoreError::Fabric(FabricError::BatchTorn {
                    node,
                    executed,
                })) if torn => assert_eq!((node, executed), (victim, 1), "the record"),
                err => panic!("torn {torn}: unexpected {err:?}"),
            }
            // The CAS never ran: readers still reach the old record. The
            // record went straight back to the allocator; the bucket's
            // fresh block (key 5 alone: 32 B) waits out a grace period,
            // as every block a splice wrote and did not link does.
            assert_eq!(s.get(&mut c, 5, 0).unwrap(), GetOutcome::Hit(b"survivor".to_vec()));
            assert_eq!(a.stats().live_bytes, live + 32, "torn {torn}: the record freed");
        }
    }

    #[test]
    fn values_round_trip_and_expire() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut s = store(&f, &a, &mut c);
        s.put(&mut c, 1, b"forever", 0).unwrap();
        s.put(&mut c, 2, b"short-lived", 1_000).unwrap();
        assert_eq!(s.get(&mut c, 1, 999).unwrap(), GetOutcome::Hit(b"forever".to_vec()));
        assert_eq!(
            s.get(&mut c, 2, 999).unwrap(),
            GetOutcome::Hit(b"short-lived".to_vec())
        );
        // At exactly the TTL instant the record is gone.
        assert_eq!(s.get(&mut c, 2, 1_000).unwrap(), GetOutcome::Expired);
        assert_eq!(s.get(&mut c, 1, u64::MAX - 1).unwrap(), GetOutcome::Hit(b"forever".to_vec()));
        assert_eq!(s.get(&mut c, 3, 0).unwrap(), GetOutcome::Miss);
    }

    #[test]
    fn large_values_cross_the_prefetch() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut s = store(&f, &a, &mut c);
        let v: Vec<u8> = (0..5000).map(|i| (i % 251) as u8).collect();
        s.put(&mut c, 9, &v, 0).unwrap();
        assert_eq!(s.get(&mut c, 9, 1).unwrap(), GetOutcome::Hit(v));
    }

    #[test]
    fn overwrites_and_removes_retire_records() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut s = store(&f, &a, &mut c);
        s.put(&mut c, 5, &[1u8; 100], 0).unwrap();
        let live0 = a.stats().live_bytes;
        assert!(s.put(&mut c, 5, &[2u8; 100], 0).unwrap().0, "replacement detected");
        assert!(s.remove(&mut c, 5).unwrap());
        assert!(!s.remove(&mut c, 5).unwrap(), "second remove is a no-op");
        // A seal + reclaim pass returns both records to the allocator.
        let freed = s.reclaim_pass(&mut c).unwrap();
        assert!(freed >= 2 * (RECORD_HEADER + 100), "freed {freed}");
        assert!(a.stats().live_bytes < live0);
    }
}
