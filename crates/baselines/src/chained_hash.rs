//! One-sided chained hash table — the refs \[24, 25\] strawman.
//!
//! This is the "traditional hash table, implemented with one-sided access"
//! that prior work used to argue one-sided access has diminished value
//! (§1). Without indirect addressing, a lookup needs **two dependent far
//! accesses minimum** (read the bucket pointer, then read the item), plus
//! one per chain hop; an insert needs three. The paper's HT-tree halves
//! the lookup cost with `load0` and amortizes everything else.
//!
//! A DrTM+H-style *address cache* \[35\] can be layered on: the client
//! remembers each key's record address after the first lookup, making
//! repeat lookups one far access — at the price of client metadata
//! proportional to the working set and of validation misses when the
//! table changes.

use std::collections::HashMap;

use farmem_alloc::{AllocHint, Arena, FarAlloc};
use farmem_fabric::{splitmix64, FabricClient, FarAddr, WORD};
use std::sync::Arc;

use crate::{BaselineError, Result};

const ITEM_LEN: u64 = 24; // {key, value, next}

/// Per-handle counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainedStats {
    /// Lookups served from the address cache in one far access.
    pub addr_cache_hits: u64,
    /// Address-cache entries invalidated by key mismatch.
    pub addr_cache_misses: u64,
    /// Chain hops walked.
    pub chain_hops: u64,
}

/// A traditional chained hash table accessed one-sidedly.
pub struct ChainedHash {
    buckets: FarAddr,
    n_buckets: u64,
    arena: Arena,
    /// DrTM+H-style client address cache (None = disabled).
    addr_cache: Option<HashMap<u64, u64>>,
    stats: ChainedStats,
}

impl ChainedHash {
    /// Creates a table with `n_buckets` buckets. `address_cache` enables
    /// the DrTM+H-style client-side address cache.
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        n_buckets: u64,
        address_cache: bool,
    ) -> Result<ChainedHash> {
        if n_buckets == 0 {
            return Err(BaselineError::BadConfig("need at least one bucket"));
        }
        let buckets = alloc.alloc(n_buckets * WORD, AllocHint::Spread)?;
        client.write(buckets, &vec![0u8; (n_buckets * 8) as usize])?;
        Ok(ChainedHash {
            buckets,
            n_buckets,
            arena: Arena::new(alloc.clone(), 4096, AllocHint::Spread),
            addr_cache: address_cache.then(HashMap::new),
            stats: ChainedStats::default(),
        })
    }

    /// Attaches another handle to an existing table (shares the far
    /// buckets; the arena and address cache are per-handle).
    pub fn attach(
        buckets: FarAddr,
        n_buckets: u64,
        alloc: &Arc<FarAlloc>,
        address_cache: bool,
    ) -> ChainedHash {
        ChainedHash {
            buckets,
            n_buckets,
            arena: Arena::new(alloc.clone(), 4096, AllocHint::Spread),
            addr_cache: address_cache.then(HashMap::new),
            stats: ChainedStats::default(),
        }
    }

    /// Far address of the bucket array (for [`ChainedHash::attach`]).
    pub fn buckets_addr(&self) -> FarAddr {
        self.buckets
    }

    /// Number of buckets.
    pub fn n_buckets(&self) -> u64 {
        self.n_buckets
    }

    /// Per-handle counters.
    pub fn stats(&self) -> ChainedStats {
        self.stats
    }

    /// Bytes of client metadata held by the address cache (\[35\] keeps
    /// "significant metadata on clients").
    pub fn cache_bytes(&self) -> u64 {
        self.addr_cache.as_ref().map_or(0, |c| c.len() as u64 * 16)
    }

    fn bucket_addr(&self, key: u64) -> FarAddr {
        self.buckets.offset((splitmix64(key) % self.n_buckets) * WORD)
    }

    /// Inserts `key → value`: read bucket, publish record, CAS bucket —
    /// **three far accesses** (no indirect atomics, no fenced combining:
    /// this is the unmodified-hardware strawman).
    pub fn insert(&mut self, client: &mut FabricClient, key: u64, value: u64) -> Result<()> {
        for _ in 0..64 {
            let bucket = self.bucket_addr(key);
            let old = client.read_u64(bucket)?;
            let addr = self.arena.alloc(ITEM_LEN)?;
            let mut bytes = Vec::with_capacity(ITEM_LEN as usize);
            for w in [key, value, old] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            client.write(addr, &bytes)?;
            if client.cas(bucket, old, addr.0)? == old {
                if let Some(cache) = &mut self.addr_cache {
                    cache.insert(key, addr.0);
                }
                return Ok(());
            }
        }
        Err(BaselineError::Contended)
    }

    /// Looks up `key`: bucket read + item read (+ chain hops) — **at least
    /// two dependent far accesses**, or one when the address cache hits.
    pub fn get(&mut self, client: &mut FabricClient, key: u64) -> Result<Option<u64>> {
        if let Some(cache) = &self.addr_cache {
            if let Some(&addr) = cache.get(&key) {
                client.near_access();
                let bytes = client.read(FarAddr(addr), ITEM_LEN)?;
                let k = u64::from_le_bytes(bytes[0..8].try_into().expect("key"));
                if k == key {
                    self.stats.addr_cache_hits += 1;
                    return Ok(Some(u64::from_le_bytes(
                        bytes[8..16].try_into().expect("value"),
                    )));
                }
                // Stale cached address: fall through to the full path.
                self.stats.addr_cache_misses += 1;
                self.addr_cache.as_mut().expect("enabled").remove(&key);
            }
        }
        let mut cur = client.read_u64(self.bucket_addr(key))?;
        let mut first = true;
        while cur != 0 {
            if !first {
                self.stats.chain_hops += 1;
            }
            first = false;
            let bytes = client.read(FarAddr(cur), ITEM_LEN)?;
            let k = u64::from_le_bytes(bytes[0..8].try_into().expect("key"));
            if k == key {
                if let Some(cache) = &mut self.addr_cache {
                    cache.insert(key, cur);
                }
                return Ok(Some(u64::from_le_bytes(bytes[8..16].try_into().expect("value"))));
            }
            cur = u64::from_le_bytes(bytes[16..24].try_into().expect("next"));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn setup(n_buckets: u64, cache: bool) -> (std::sync::Arc<farmem_fabric::Fabric>, ChainedHash) {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let t = ChainedHash::create(&mut c, &a, n_buckets, cache).unwrap();
        (f, t)
    }

    #[test]
    fn insert_get_round_trip() {
        let (f, mut t) = setup(64, false);
        let mut c = f.client();
        for k in 0..200u64 {
            t.insert(&mut c, k, k + 5).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(t.get(&mut c, k).unwrap(), Some(k + 5));
        }
        assert_eq!(t.get(&mut c, 9999).unwrap(), None);
        assert!(t.stats().chain_hops > 0, "64 buckets, 200 keys: chains exist");
    }

    #[test]
    fn lookup_costs_two_accesses_minimum() {
        let (f, mut t) = setup(4096, false);
        let mut c = f.client();
        t.insert(&mut c, 7, 70).unwrap();
        let before = c.stats();
        assert_eq!(t.get(&mut c, 7).unwrap(), Some(70));
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 2, "bucket read, then item read");
    }

    #[test]
    fn insert_costs_three_accesses() {
        let (f, mut t) = setup(4096, false);
        let mut c = f.client();
        let before = c.stats();
        t.insert(&mut c, 3, 30).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 3);
    }

    #[test]
    fn address_cache_halves_repeat_lookups() {
        let (f, mut t) = setup(4096, true);
        let mut c = f.client();
        t.insert(&mut c, 11, 110).unwrap();
        // Insert populated the cache; a repeat lookup is one access.
        let before = c.stats();
        assert_eq!(t.get(&mut c, 11).unwrap(), Some(110));
        assert_eq!(c.stats().since(&before).round_trips, 1);
        assert_eq!(t.stats().addr_cache_hits, 1);
        assert!(t.cache_bytes() > 0);
    }

    #[test]
    fn stale_address_cache_recovers() {
        let (f, mut t) = setup(4096, true);
        let mut c = f.client();
        t.insert(&mut c, 11, 110).unwrap();
        // Simulate the record being superseded: newer insert of same key
        // chains a new record in front; cached address still returns the
        // *old* record, whose key matches — so update in place is not
        // modelled. Instead poison the cached address by key mismatch:
        let addr = *t.addr_cache.as_ref().unwrap().get(&11).unwrap();
        c.write_u64(FarAddr(addr), 999).unwrap(); // clobber the key
        t.insert(&mut c, 999, 0).unwrap(); // unrelated
        assert_eq!(t.get(&mut c, 11).unwrap(), None, "walks the real chain");
        assert_eq!(t.stats().addr_cache_misses, 1);
    }
}
