//! Far vectors (§5.1).
//!
//! A far vector keeps its elements behind a *base pointer* in far memory
//! and indexes with indirect addressing (`load2`/`store2`/`add2`), so that
//! (a) every element access is one far access, and (b) the whole backing
//! array can be swapped atomically by changing the base pointer — the §6
//! monitoring case study switches histogram windows exactly this way.
//!
//! [`CachedFarVec`] adds the §5.1 client cache: a local copy kept fresh by
//! `notify0` subscriptions, so reads of unchanged elements cost zero far
//! accesses.

use std::collections::HashSet;

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{DescList, Event, FabricClient, FarAddr, PipeOut, SubId, PAGE, WORD};
use farmem_runtime::{Doorbell, Inline};

use crate::error::{CoreError, Result};

/// A vector of `u64` elements in far memory, indexed through a base
/// pointer with indirect addressing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarVec {
    /// Header address: word 0 holds the base pointer, word 1 the length.
    hdr: FarAddr,
    len: u64,
}

impl FarVec {
    /// Allocates a vector of `len` zeroed elements. The backing array is
    /// placed according to `hint` (use [`AllocHint::Striped`] for
    /// bandwidth); the two-word header is placed near the array.
    pub fn create(
        client: &mut FabricClient,
        alloc: &FarAlloc,
        len: u64,
        hint: AllocHint,
    ) -> Result<FarVec> {
        if len == 0 {
            return Err(CoreError::BadConfig("vector length must be positive"));
        }
        let data = alloc.alloc(len * WORD, hint)?;
        let hdr = alloc.alloc(2 * WORD, AllocHint::Colocate(data))?;
        // Zero the data and publish the header in one fenced batch.
        let zeros = vec![0u8; (len * WORD) as usize];
        let mut hdr_bytes = Vec::with_capacity(16);
        hdr_bytes.extend_from_slice(&data.0.to_le_bytes());
        hdr_bytes.extend_from_slice(&len.to_le_bytes());
        client.batch(&[
            farmem_fabric::BatchOp::Write { addr: data, data: &zeros },
            farmem_fabric::BatchOp::Write { addr: hdr, data: &hdr_bytes },
        ])?;
        Ok(FarVec { hdr, len })
    }

    /// Attaches to an existing vector whose header is at `hdr`.
    /// One far access (reads the length).
    pub fn attach(client: &mut FabricClient, hdr: FarAddr) -> Result<FarVec> {
        let len = client.read_u64(hdr.offset(WORD))?;
        if len == 0 {
            return Err(CoreError::Corrupted("attached vector has zero length"));
        }
        Ok(FarVec { hdr, len })
    }

    /// Header address (for sharing with other clients).
    pub fn hdr(&self) -> FarAddr {
        self.hdr
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Returns `true` if the vector has no elements (never, by
    /// construction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn check_index(&self, i: u64) -> Result<()> {
        if i >= self.len {
            return Err(CoreError::BadConfig("vector index out of bounds"));
        }
        Ok(())
    }

    /// Reads element `i` through the base pointer. One far access.
    pub fn get(&self, client: &mut FabricClient, i: u64) -> Result<u64> {
        self.check_index(i)?;
        let bytes = client.load2(self.hdr, i * WORD, WORD)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("word read")))
    }

    /// Writes element `i` through the base pointer. One far access.
    pub fn set(&self, client: &mut FabricClient, i: u64, value: u64) -> Result<()> {
        self.check_index(i)?;
        Ok(client.store2(self.hdr, i * WORD, &value.to_le_bytes())?)
    }

    /// Atomically adds `delta` to element `i` — the §6 producer's
    /// histogram increment. One far access.
    pub fn add(&self, client: &mut FabricClient, i: u64, delta: u64) -> Result<()> {
        self.check_index(i)?;
        Ok(client.add2(self.hdr, delta, i * WORD)?)
    }

    /// Reads elements `[first, first+count)` in one far access.
    pub fn read_range(&self, client: &mut FabricClient, first: u64, count: u64) -> Result<Vec<u64>> {
        if count == 0 || first + count > self.len {
            return Err(CoreError::BadConfig("vector range out of bounds"));
        }
        let bytes = client.load2(self.hdr, first * WORD, count * WORD)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk")))
            .collect())
    }

    /// Writes elements `[first, first+values.len())` in one far access:
    /// the whole run is coalesced into a single `store2` (the fabric fans
    /// the contiguous byte run out across stripe segments itself), instead
    /// of one store per element.
    pub fn write_range(
        &self,
        client: &mut FabricClient,
        first: u64,
        values: &[u64],
    ) -> Result<()> {
        let count = values.len() as u64;
        if count == 0 || first + count > self.len {
            return Err(CoreError::BadConfig("vector range out of bounds"));
        }
        let bytes: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        Ok(client.store2(self.hdr, first * WORD, &bytes)?)
    }

    /// Reads several ranges through one pipeline doorbell: all `load2`
    /// descriptors share the issue time, so the virtual clock advances to
    /// the *slowest* range instead of the sum (far accesses and bytes are
    /// charged exactly as [`read_range`](Self::read_range) per range).
    ///
    /// A range whose descriptor fails (a fault that outlasts its retries,
    /// or a doorbell aborted mid-flight) is re-read serially.
    ///
    /// The blocking form of [`read_ranges_async`](Self::read_ranges_async):
    /// the same body over an [`Inline`] doorbell, which never parks.
    pub fn read_ranges(
        &self,
        client: &mut FabricClient,
        ranges: &[(u64, u64)],
    ) -> Result<Vec<Vec<u64>>> {
        let bell = Inline::new(client);
        Inline::run(self.read_ranges_async(&bell, ranges))
    }

    /// [`read_ranges`](Self::read_ranges) over any [`Doorbell`]: given an
    /// [`AsyncClient`](farmem_runtime::AsyncClient) the `load2` doorbell
    /// *suspends* instead of blocking the OS thread, so an executor can
    /// drive thousands of concurrent range readers. One body, so far
    /// accesses, bytes and clock movement cannot differ between the
    /// blocking and the suspending caller; a failed descriptor takes a
    /// serial re-read (a rare, genuinely blocking step, waived for the
    /// `block-async` pass).
    pub async fn read_ranges_async<D: Doorbell>(
        &self,
        ac: &D,
        ranges: &[(u64, u64)],
    ) -> Result<Vec<Vec<u64>>> {
        let mut loads = DescList::new();
        for &(first, count) in ranges {
            if count == 0 || first + count > self.len {
                return Err(CoreError::BadConfig("vector range out of bounds"));
            }
            loads.load2(self.hdr, first * WORD, count * WORD);
        }
        let mut cq = ac.ring(loads).await;
        let mut out = Vec::with_capacity(ranges.len());
        for (i, &(first, count)) in ranges.iter().enumerate() {
            match cq.take(i) {
                Some(Ok(PipeOut::Null)) => {
                    return Err(CoreError::Corrupted("vector base pointer is null"))
                }
                Some(Ok(res)) => out.push(
                    res.into_bytes()
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk")))
                        .collect(),
                ),
                // audit: block-async-ok: rare serial fallback.
                _ => out.push(ac.with(|client| self.read_range(client, first, count))?),
            }
        }
        Ok(out)
    }

    /// Current base pointer (address of element 0). One far access.
    pub fn base(&self, client: &mut FabricClient) -> Result<FarAddr> {
        Ok(FarAddr(client.read_u64(self.hdr)?))
    }

    /// Atomically swaps the base pointer to `new_base`, returning the old
    /// one. The new array must hold at least [`len`](Self::len) elements.
    /// One far access.
    pub fn swap_base(&self, client: &mut FabricClient, new_base: FarAddr) -> Result<FarAddr> {
        loop {
            // audit: rt-in-loop-ok: read-then-CAS retry — repeats only while
            // racing swappers move the base; one access on the quiet path.
            let cur = client.read_u64(self.hdr)?;
            if client.cas(self.hdr, cur, new_base.0)? == cur {
                return Ok(FarAddr(cur));
            }
        }
    }

    /// Subscribes to changes of elements `[first, first+count)` of the
    /// *current* backing array, returning one subscription per page
    /// touched. Re-subscribe after [`swap_base`](Self::swap_base).
    pub fn subscribe_range(
        &self,
        client: &mut FabricClient,
        first: u64,
        count: u64,
    ) -> Result<Vec<SubId>> {
        if count == 0 || first + count > self.len {
            return Err(CoreError::BadConfig("vector range out of bounds"));
        }
        let base = self.base(client)?;
        let start = base.0 + first * WORD;
        let end = start + count * WORD;
        let mut subs = Vec::new();
        let mut cur = start;
        while cur < end {
            let page_end = (cur / PAGE + 1) * PAGE;
            let chunk_end = page_end.min(end);
            // audit: rt-in-loop-ok: one subscription verb per far page —
            // the notify API's page granularity, not per-element traffic.
            subs.push(client.notify0(FarAddr(cur), chunk_end - cur)?);
            cur = chunk_end;
        }
        Ok(subs)
    }
}

/// How a [`CachedFarVec`] keeps its cache coherent (§5.1: "client caches
/// can be updated using notifications").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheMode {
    /// `notify0` subscriptions *invalidate*: changed elements are marked
    /// dirty and re-fetched lazily (one far access on next read).
    Invalidate,
    /// `notify0d` subscriptions *update*: events carry the new contents,
    /// so the cache is patched locally and reads never pay a far access.
    Update,
}

/// A [`FarVec`] with a client-side cache kept coherent by notifications
/// (§5.1).
///
/// Reads of clean elements are near accesses (zero far accesses). In
/// [`CacheMode::Invalidate`] a changed element costs one far access on its
/// next read; in [`CacheMode::Update`] the notification itself carries the
/// new data and reads stay free. A [`Event::Lost`] warning conservatively
/// marks the whole cache dirty in either mode.
pub struct CachedFarVec {
    vec: FarVec,
    cache: Vec<u64>,
    dirty: HashSet<u64>,
    all_dirty: bool,
    subs: Vec<SubId>,
    base: FarAddr,
}

impl CachedFarVec {
    /// Attaches to `vec` in [`CacheMode::Invalidate`], filling the cache
    /// (one far access) and subscribing to the whole backing array.
    pub fn new(client: &mut FabricClient, vec: FarVec) -> Result<CachedFarVec> {
        CachedFarVec::with_mode(client, vec, CacheMode::Invalidate)
    }

    /// Attaches to `vec` with an explicit [`CacheMode`].
    pub fn with_mode(
        client: &mut FabricClient,
        vec: FarVec,
        mode: CacheMode,
    ) -> Result<CachedFarVec> {
        let cache = vec.read_range(client, 0, vec.len())?;
        let base = vec.base(client)?;
        let subs = match mode {
            CacheMode::Invalidate => vec.subscribe_range(client, 0, vec.len())?,
            CacheMode::Update => {
                // notify0d per page: events carry the page's new contents.
                let start = base.0;
                let end = start + vec.len() * WORD;
                let mut subs = Vec::new();
                let mut cur = start;
                while cur < end {
                    let page_end = (cur / PAGE + 1) * PAGE;
                    let chunk_end = page_end.min(end);
                    // audit: rt-in-loop-ok: one subscription verb per far
                    // page — notify API granularity, not per-element traffic.
                    subs.push(client.notify0d(FarAddr(cur), chunk_end - cur)?);
                    cur = chunk_end;
                }
                subs
            }
        };
        Ok(CachedFarVec { vec, cache, dirty: HashSet::new(), all_dirty: false, subs, base })
    }

    /// The underlying far vector.
    pub fn vec(&self) -> &FarVec {
        &self.vec
    }

    /// Applies pending notifications to the dirty set (no far accesses).
    pub fn process_events(&mut self, client: &mut FabricClient) {
        let subs = self.subs.clone();
        let events = client.take_events(|e| {
            matches!(e, Event::Lost { .. }) || e.sub().is_some_and(|s| subs.contains(&s))
        });
        for event in events {
            match event {
                Event::Lost { .. } => self.all_dirty = true,
                Event::Changed { addr, len, trigger, .. } => {
                    let (start, len) = trigger.unwrap_or((addr, len));
                    if start.0 < self.base.0 {
                        self.all_dirty = true;
                        continue;
                    }
                    let first = (start.0 - self.base.0) / WORD;
                    let last = (start.0 + len - 1 - self.base.0) / WORD;
                    for i in first..=last.min(self.vec.len() - 1) {
                        self.dirty.insert(i);
                    }
                }
                Event::ChangedData { addr, data, .. } => {
                    // Update mode: patch the cache from the event payload —
                    // no far access, no dirtiness.
                    if addr.0 < self.base.0 {
                        self.all_dirty = true;
                        continue;
                    }
                    let first = (addr.0 - self.base.0) / WORD;
                    for (k, chunk) in data.chunks_exact(8).enumerate() {
                        let i = first + k as u64;
                        if i >= self.vec.len() {
                            break;
                        }
                        self.cache[i as usize] =
                            u64::from_le_bytes(chunk.try_into().expect("word"));
                        self.dirty.remove(&i);
                    }
                }
                _ => {}
            }
        }
    }

    /// Reads element `i`: zero far accesses when the cached copy is clean,
    /// one when it must be re-fetched.
    pub fn get(&mut self, client: &mut FabricClient, i: u64) -> Result<u64> {
        let _span = client.span("vector.get");
        self.vec.check_index(i)?;
        self.process_events(client);
        if self.all_dirty {
            self.cache = self.vec.read_range(client, 0, self.vec.len())?;
            self.dirty.clear();
            self.all_dirty = false;
        } else if self.dirty.remove(&i) {
            self.cache[i as usize] = self.vec.get(client, i)?;
        } else {
            client.near_access();
        }
        Ok(self.cache[i as usize])
    }

    /// Number of elements currently marked dirty.
    pub fn dirty_len(&self) -> usize {
        if self.all_dirty {
            self.vec.len() as usize
        } else {
            self.dirty.len()
        }
    }

    /// Cancels the cache's subscriptions.
    pub fn detach(mut self, client: &mut FabricClient) -> Result<()> {
        for sub in self.subs.drain(..) {
            client.unsubscribe(sub)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;
    use std::sync::Arc;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(4 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn element_ops_are_single_far_accesses() {
        let (f, a) = setup();
        let mut c = f.client();
        let v = FarVec::create(&mut c, &a, 64, AllocHint::Spread).unwrap();
        let before = c.stats();
        v.set(&mut c, 3, 42).unwrap();
        assert_eq!(v.get(&mut c, 3).unwrap(), 42);
        v.add(&mut c, 3, 8).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 3);
        assert_eq!(v.get(&mut c, 3).unwrap(), 50);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let (f, a) = setup();
        let mut c = f.client();
        let v = FarVec::create(&mut c, &a, 8, AllocHint::Spread).unwrap();
        assert!(v.get(&mut c, 8).is_err());
        assert!(v.set(&mut c, 9, 0).is_err());
        assert!(v.read_range(&mut c, 7, 2).is_err());
    }

    #[test]
    fn range_read_is_one_access() {
        let (f, a) = setup();
        let mut c = f.client();
        let v = FarVec::create(&mut c, &a, 32, AllocHint::Spread).unwrap();
        for i in 0..32 {
            v.set(&mut c, i, i * 10).unwrap();
        }
        let before = c.stats();
        let r = v.read_range(&mut c, 8, 16).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
        assert_eq!(r[0], 80);
        assert_eq!(r[15], 230);
    }

    #[test]
    fn range_write_is_one_access() {
        let (f, a) = setup();
        let mut c = f.client();
        let v = FarVec::create(&mut c, &a, 32, AllocHint::Spread).unwrap();
        let values: Vec<u64> = (0..16).map(|i| i * 10).collect();
        let before = c.stats();
        v.write_range(&mut c, 8, &values).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
        assert_eq!(v.read_range(&mut c, 8, 16).unwrap(), values);
        assert!(v.write_range(&mut c, 20, &values).is_err(), "out of bounds");
        assert!(v.write_range(&mut c, 0, &[]).is_err(), "empty range");
    }

    #[test]
    fn pipelined_ranges_charge_serial_accesses_through_one_doorbell() {
        let (f, a) = setup();
        let mut c = f.client();
        let v = FarVec::create(&mut c, &a, 64, AllocHint::Spread).unwrap();
        v.write_range(&mut c, 0, &(0..16).collect::<Vec<u64>>()).unwrap();
        v.write_range(&mut c, 16, &(100..116).collect::<Vec<u64>>()).unwrap();
        v.write_range(&mut c, 48, &(200..216).collect::<Vec<u64>>()).unwrap();

        let before = c.stats();
        let r = v.read_ranges(&mut c, &[(0, 16), (16, 16), (48, 16)]).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 3, "one far access per range");
        assert_eq!(d.doorbells, 1, "but a single doorbell");
        assert_eq!(d.pipelined_ops, 3);
        assert_eq!(r[0], (0..16).collect::<Vec<u64>>());
        assert_eq!(r[1], (100..116).collect::<Vec<u64>>());
        assert_eq!(r[2], (200..216).collect::<Vec<u64>>());
        assert!(v.read_ranges(&mut c, &[(0, 16), (60, 16)]).is_err());

        // A null base pointer is a corrupt vector, not a panic.
        c.write_u64(v.hdr(), 0).unwrap();
        assert!(matches!(v.read_ranges(&mut c, &[(0, 16)]), Err(CoreError::Corrupted(_))));
    }

    #[test]
    fn swap_base_switches_arrays_atomically() {
        let (f, a) = setup();
        let mut c = f.client();
        let v = FarVec::create(&mut c, &a, 8, AllocHint::Spread).unwrap();
        v.set(&mut c, 0, 1).unwrap();
        let fresh = a.alloc(8 * WORD, AllocHint::Spread).unwrap();
        c.write(fresh, &[0u8; 64]).unwrap();
        let old = v.swap_base(&mut c, fresh).unwrap();
        assert_eq!(v.get(&mut c, 0).unwrap(), 0, "reads go to the new array");
        assert_eq!(c.read_u64(old).unwrap(), 1, "old array still intact");
    }

    #[test]
    fn attach_sees_shared_elements() {
        let (f, a) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let v = FarVec::create(&mut c1, &a, 16, AllocHint::Spread).unwrap();
        v.set(&mut c1, 5, 77).unwrap();
        let v2 = FarVec::attach(&mut c2, v.hdr()).unwrap();
        assert_eq!(v2.len(), 16);
        assert_eq!(v2.get(&mut c2, 5).unwrap(), 77);
    }

    #[test]
    fn cached_reads_cost_zero_far_accesses_when_clean() {
        let (f, a) = setup();
        let mut writer = f.client();
        let mut reader = f.client();
        let v = FarVec::create(&mut writer, &a, 64, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::new(&mut reader, v).unwrap();
        let before = reader.stats();
        for i in 0..64 {
            assert_eq!(cached.get(&mut reader, i).unwrap(), 0);
        }
        let d = reader.stats().since(&before);
        assert_eq!(d.round_trips, 0, "clean reads are near accesses");
        assert_eq!(d.near_accesses, 64);
    }

    #[test]
    fn notification_invalidates_only_the_changed_element() {
        let (f, a) = setup();
        let mut writer = f.client();
        let mut reader = f.client();
        let v = FarVec::create(&mut writer, &a, 64, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::new(&mut reader, v).unwrap();
        assert_eq!(cached.get(&mut reader, 9).unwrap(), 0);
        let base = FarAddr(writer.read_u64(v.hdr()).unwrap());
        writer.write_u64(base.offset(9 * WORD), 5).unwrap();
        cached.process_events(&mut reader);
        assert_eq!(cached.dirty_len(), 1);
        let before = reader.stats();
        assert_eq!(cached.get(&mut reader, 9).unwrap(), 5);
        assert_eq!(reader.stats().since(&before).round_trips, 1);
        // And it is clean again.
        let before = reader.stats();
        assert_eq!(cached.get(&mut reader, 9).unwrap(), 5);
        assert_eq!(reader.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn update_mode_patches_cache_with_zero_far_accesses() {
        let (f, a) = setup();
        let mut writer = f.client();
        let mut reader = f.client();
        let v = FarVec::create(&mut writer, &a, 64, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::with_mode(&mut reader, v, CacheMode::Update).unwrap();
        let base = FarAddr(writer.read_u64(v.hdr()).unwrap());
        writer.write_u64(base.offset(5 * WORD), 42).unwrap();
        let before = reader.stats();
        assert_eq!(cached.get(&mut reader, 5).unwrap(), 42);
        let d = reader.stats().since(&before);
        assert_eq!(d.round_trips, 0, "the notification carried the data");
        assert_eq!(cached.dirty_len(), 0);
    }

    #[test]
    fn update_mode_handles_bursts_via_coalesced_payloads() {
        let (f, a) = setup();
        let mut writer = f.client();
        let mut reader = f.client();
        let v = FarVec::create(&mut writer, &a, 32, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::with_mode(&mut reader, v, CacheMode::Update).unwrap();
        for i in 0..32u64 {
            v.set(&mut writer, i, i * 3).unwrap();
        }
        let before = reader.stats();
        for i in 0..32u64 {
            assert_eq!(cached.get(&mut reader, i).unwrap(), i * 3);
        }
        assert_eq!(reader.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn vector_add_via_far_vec_invalidates_cache() {
        let (f, a) = setup();
        let mut writer = f.client();
        let mut reader = f.client();
        let v = FarVec::create(&mut writer, &a, 16, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::new(&mut reader, v).unwrap();
        v.add(&mut writer, 7, 3).unwrap();
        assert_eq!(cached.get(&mut reader, 7).unwrap(), 3);
    }
}
