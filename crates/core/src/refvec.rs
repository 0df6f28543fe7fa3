//! Refreshable vectors (§5.4).
//!
//! Caching a vector at clients generates excessive notifications when it
//! changes often. A *refreshable vector* may return stale data, but its
//! `refresh` operation guarantees the freshness of the next lookup — the
//! bounded-staleness contract parameter servers want for distributed ML
//! (workers read model parameters, refreshing periodically).
//!
//! Entries are grouped, with a far-memory version number per group.
//! Refresh never reads the full vector:
//!
//! * **Polling** mode: read the version array (one far access), compare
//!   with the cached versions, then `rgather` exactly the changed groups
//!   (one more far access). Right when data changes frequently.
//! * **Notify** mode: a `notify0` subscription on the version array makes
//!   version *checks* free — events mark groups dirty locally and refresh
//!   gathers just those. Right as the update rate slows (e.g. an iterative
//!   algorithm converging).
//! * **NotifyData** mode: `notify0d` events carry the version array's new
//!   contents, so even the dirty-group identification needs no far read;
//!   with `group_size == 1` this is the paper's per-element variant.
//!
//! The reader *dynamically shifts* between polling and notifications based
//! on the observed change rate (§5.4's "dynamic policy"), and falls back
//! to a full poll whenever the fabric reports lost notifications.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{BatchOp, Event, FabricClient, FarAddr, FarIov, SubId, PAGE, WORD};

use crate::error::{CoreError, Result};

/// Header word offsets.
const RH_DATA: u64 = 0;
const RH_N: u64 = 8;
const RH_GROUP: u64 = 16;
const RH_NGROUPS: u64 = 24;
const RH_VERSIONS: u64 = 32;
const RH_LEN: u64 = 40;

/// How a [`VecReader`] learns which groups changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshMode {
    /// Client-initiated version checks (read the version array).
    Polling,
    /// `notify0` on the version array; triggers mark groups dirty.
    Notify,
    /// `notify0d` on the version array; events carry the new versions.
    NotifyData,
}

/// Dynamic-policy thresholds on the per-refresh changed-group count
/// (EMA): Polling → Notify when it drops below the first, Notify →
/// Polling when it rises above the second.
const TO_NOTIFY_BELOW: f64 = 1.0;
const TO_POLLING_ABOVE: f64 = 8.0;

/// Dynamic-policy parameters for a [`VecReader`].
#[derive(Clone, Copy, Debug)]
pub struct RefreshPolicy {
    /// Starting mode.
    pub initial: RefreshMode,
    /// Disable automatic mode switching (for ablation experiments).
    pub dynamic: bool,
    /// In notify modes, force a full version poll every this many
    /// refreshes — the safety net against *silently* lossy delivery.
    pub safety_poll_every: u32,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            initial: RefreshMode::Polling,
            dynamic: true,
            safety_poll_every: 64,
        }
    }
}

/// Reader statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReaderStats {
    /// Refresh calls.
    pub refreshes: u64,
    /// Groups re-fetched across all refreshes.
    pub groups_refreshed: u64,
    /// Version-array polls performed.
    pub version_polls: u64,
    /// Mode switches made by the dynamic policy.
    pub mode_switches: u64,
    /// Full polls forced by `Lost` warnings.
    pub loss_fallbacks: u64,
}

/// A grouped, versioned vector in far memory (§5.4).
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::{AllocHint, FarAlloc};
/// use farmem_core::{RefreshableVec, RefreshPolicy, VecReader, VecWriter};
///
/// let fabric = FabricConfig::single_node(4 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut trainer = fabric.client();
/// let mut worker = fabric.client();
/// let v = RefreshableVec::create(&mut trainer, &alloc, 1024, 64, AllocHint::Spread).unwrap();
/// let writer = VecWriter::new(v);
/// let mut reader = VecReader::new(&mut worker, v, RefreshPolicy::default()).unwrap();
/// writer.write(&mut trainer, 10, 3).unwrap();
/// assert_eq!(reader.get(&mut worker, 10).unwrap(), 0); // stale until refresh
/// reader.refresh(&mut worker).unwrap(); // version read + one gather
/// assert_eq!(reader.get(&mut worker, 10).unwrap(), 3);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefreshableVec {
    hdr: FarAddr,
    data: FarAddr,
    versions: FarAddr,
    n: u64,
    group_size: u64,
    n_groups: u64,
}

impl RefreshableVec {
    /// Allocates a zeroed vector of `n` elements in groups of
    /// `group_size`. The data array takes the placement `hint`.
    pub fn create(
        client: &mut FabricClient,
        alloc: &FarAlloc,
        n: u64,
        group_size: u64,
        hint: AllocHint,
    ) -> Result<RefreshableVec> {
        if n == 0 || group_size == 0 {
            return Err(CoreError::BadConfig("vector and group sizes must be positive"));
        }
        let n_groups = n.div_ceil(group_size);
        let data = alloc.alloc(n * WORD, hint)?;
        let versions = alloc.alloc(n_groups * WORD, AllocHint::Spread)?;
        let hdr = alloc.alloc(RH_LEN, AllocHint::Spread)?;
        let mut hdr_bytes = Vec::with_capacity(RH_LEN as usize);
        for w in [data.0, n, group_size, n_groups, versions.0] {
            hdr_bytes.extend_from_slice(&w.to_le_bytes());
        }
        client.batch(&[
            BatchOp::Write { addr: data, data: &vec![0u8; (n * WORD) as usize] },
            BatchOp::Write { addr: versions, data: &vec![0u8; (n_groups * WORD) as usize] },
            BatchOp::Write { addr: hdr, data: &hdr_bytes },
        ])?;
        Ok(RefreshableVec { hdr, data, versions, n, group_size, n_groups })
    }

    /// Attaches to an existing vector whose header is at `hdr`.
    /// One far access.
    pub fn attach(client: &mut FabricClient, hdr: FarAddr) -> Result<RefreshableVec> {
        let mut bytes = [0u8; RH_LEN as usize];
        client.read_into(hdr, &mut bytes)?;
        let w = |off: u64| crate::word_at(&bytes, off);
        let v = RefreshableVec {
            hdr,
            data: FarAddr(w(RH_DATA)),
            n: w(RH_N),
            group_size: w(RH_GROUP),
            n_groups: w(RH_NGROUPS),
            versions: FarAddr(w(RH_VERSIONS)),
        };
        if v.data.is_null() || v.n == 0 || v.group_size == 0 {
            return Err(CoreError::Corrupted("refreshable vector header uninitialized"));
        }
        Ok(v)
    }

    /// Header address (for sharing).
    pub fn hdr(&self) -> FarAddr {
        self.hdr
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Always false (vectors are non-empty by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of version groups.
    pub fn groups(&self) -> u64 {
        self.n_groups
    }

    /// Elements per group.
    pub fn group_size(&self) -> u64 {
        self.group_size
    }

    fn group_of(&self, i: u64) -> u64 {
        i / self.group_size
    }

    fn group_range(&self, g: u64) -> (u64, u64) {
        let first = g * self.group_size;
        let count = self.group_size.min(self.n - first);
        (first, count)
    }
}

/// The writing side of a [`RefreshableVec`].
///
/// Each write updates the element *and* bumps its group version in one
/// fenced batch — one far access, with the data ordered before the
/// version so readers never see a new version with old data.
#[derive(Clone, Copy, Debug)]
pub struct VecWriter {
    vec: RefreshableVec,
}

impl VecWriter {
    /// Creates a writer for `vec`.
    pub fn new(vec: RefreshableVec) -> VecWriter {
        VecWriter { vec }
    }

    /// Writes `value` at index `i` and bumps the group version.
    /// One far access.
    pub fn write(&self, client: &mut FabricClient, i: u64, value: u64) -> Result<()> {
        let _span = client.span("refvec.write");
        if i >= self.vec.n {
            return Err(CoreError::BadConfig("index out of bounds"));
        }
        let g = self.vec.group_of(i);
        client.batch(&[
            BatchOp::Write {
                addr: self.vec.data.offset(i * WORD),
                data: &value.to_le_bytes(),
            },
            BatchOp::Faa { addr: self.vec.versions.offset(g * WORD), delta: 1 },
        ])?;
        Ok(())
    }

    /// Writes several `(index, value)` pairs in one far access, bumping
    /// each touched group's version once.
    pub fn write_batch(&self, client: &mut FabricClient, updates: &[(u64, u64)]) -> Result<()> {
        let _span = client.span("refvec.write_batch");
        if updates.is_empty() {
            return Ok(());
        }
        let mut groups = std::collections::BTreeSet::new();
        let values: Vec<[u8; 8]> = updates.iter().map(|&(_, v)| v.to_le_bytes()).collect();
        let mut ops = Vec::with_capacity(updates.len() + 4);
        for (k, &(i, _)) in updates.iter().enumerate() {
            if i >= self.vec.n {
                return Err(CoreError::BadConfig("index out of bounds"));
            }
            groups.insert(self.vec.group_of(i));
            ops.push(BatchOp::Write {
                addr: self.vec.data.offset(i * WORD),
                data: &values[k],
            });
        }
        for g in groups {
            ops.push(BatchOp::Faa { addr: self.vec.versions.offset(g * WORD), delta: 1 });
        }
        client.batch(&ops)?;
        Ok(())
    }
}

/// The reading side: a cached copy with bounded staleness (§5.4).
pub struct VecReader {
    vec: RefreshableVec,
    cache: Vec<u64>,
    cached_versions: Vec<u64>,
    mode: RefreshMode,
    policy: RefreshPolicy,
    subs: Vec<SubId>,
    dirty: std::collections::BTreeSet<u64>,
    /// EMA of changed groups per refresh (drives the dynamic policy).
    rate_ema: f64,
    refreshes_since_poll: u32,
    need_full_poll: bool,
    stats: ReaderStats,
}

impl VecReader {
    /// Attaches a reader, filling its cache (two far accesses).
    pub fn new(
        client: &mut FabricClient,
        vec: RefreshableVec,
        policy: RefreshPolicy,
    ) -> Result<VecReader> {
        let cache_bytes = client.read(vec.data, vec.n * WORD)?;
        let version_bytes = client.read(vec.versions, vec.n_groups * WORD)?;
        let to_words = |b: &[u8]| -> Vec<u64> {
            b.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
                .collect()
        };
        let mut r = VecReader {
            vec,
            cache: to_words(&cache_bytes),
            cached_versions: to_words(&version_bytes),
            mode: RefreshMode::Polling,
            policy,
            subs: Vec::new(),
            dirty: std::collections::BTreeSet::new(),
            rate_ema: 0.0,
            refreshes_since_poll: 0,
            need_full_poll: false,
            stats: ReaderStats::default(),
        };
        r.enter_mode(client, policy.initial)?;
        Ok(r)
    }

    /// Current refresh mode.
    pub fn mode(&self) -> RefreshMode {
        self.mode
    }

    /// Reader statistics.
    pub fn stats(&self) -> ReaderStats {
        self.stats
    }

    /// Reads element `i` from the cache — zero far accesses; staleness is
    /// bounded by the caller's refresh cadence.
    pub fn get(&mut self, client: &mut FabricClient, i: u64) -> Result<u64> {
        let _span = client.span("refvec.get");
        if i >= self.vec.n {
            return Err(CoreError::BadConfig("index out of bounds"));
        }
        client.near_access();
        Ok(self.cache[i as usize])
    }

    /// The whole cached vector.
    pub fn snapshot(&self) -> &[u64] {
        &self.cache
    }

    fn enter_mode(&mut self, client: &mut FabricClient, mode: RefreshMode) -> Result<()> {
        // Tear down existing subscriptions.
        for sub in self.subs.drain(..) {
            client.unsubscribe(sub)?;
        }
        self.mode = mode;
        if mode == RefreshMode::Polling {
            return Ok(());
        }
        // Subscribe to the version array, page by page.
        let start = self.vec.versions.0;
        let end = start + self.vec.n_groups * WORD;
        let mut cur = start;
        while cur < end {
            let page_end = (cur / PAGE + 1) * PAGE;
            let chunk = page_end.min(end) - cur;
            // audit: rt-in-loop-ok: one subscription verb per far page —
            // the notify API's page granularity, not per-element traffic.
            let sub = match mode {
                RefreshMode::Notify => client.notify0(FarAddr(cur), chunk)?,
                RefreshMode::NotifyData => client.notify0d(FarAddr(cur), chunk)?,
                RefreshMode::Polling => unreachable!(),
            };
            self.subs.push(sub);
            cur += chunk;
        }
        // Anything may have changed while unsubscribed.
        self.need_full_poll = true;
        Ok(())
    }

    /// Absorbs pending notifications into the dirty set (no far accesses).
    fn process_events(&mut self, client: &mut FabricClient) {
        let subs = self.subs.clone();
        let events = client.take_events(|e| {
            matches!(e, Event::Lost { .. }) || e.sub().is_some_and(|s| subs.contains(&s))
        });
        for event in events {
            match event {
                Event::Lost { .. } => {
                    self.need_full_poll = true;
                    self.stats.loss_fallbacks += 1;
                }
                Event::Changed { trigger, addr, len, .. } => {
                    let (start, tlen) = trigger.unwrap_or((addr, len));
                    let first = (start.0 - self.vec.versions.0) / WORD;
                    let last = (start.0 + tlen - 1 - self.vec.versions.0) / WORD;
                    for g in first..=last.min(self.vec.n_groups - 1) {
                        self.dirty.insert(g);
                    }
                }
                Event::ChangedData { addr, data, .. } => {
                    // The event carries the new version words: diff them
                    // against the cache locally — no far read at all.
                    let first = (addr.0 - self.vec.versions.0) / WORD;
                    for (k, chunk) in data.chunks_exact(8).enumerate() {
                        let g = first + k as u64;
                        if g >= self.vec.n_groups {
                            break;
                        }
                        let v = u64::from_le_bytes(chunk.try_into().expect("word"));
                        if v != self.cached_versions[g as usize] {
                            self.cached_versions[g as usize] = v;
                            self.dirty.insert(g);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Refreshes the cache so the next lookups observe every write that
    /// completed before this call (bounded staleness, §5.4).
    ///
    /// Cost: Polling — 1 far access for versions + 1 `rgather` for the
    /// changed groups (0 if none changed). Notify modes — just the
    /// `rgather` (plus the periodic safety poll).
    ///
    /// Returns the number of groups re-fetched.
    pub fn refresh(&mut self, client: &mut FabricClient) -> Result<u64> {
        let _span = client.span("refvec.refresh");
        self.stats.refreshes += 1;
        self.refreshes_since_poll += 1;

        let mut changed: Vec<u64>;
        let poll = match self.mode {
            RefreshMode::Polling => true,
            _ => {
                self.process_events(client);
                
                self.need_full_poll
                    || self.refreshes_since_poll >= self.policy.safety_poll_every
            }
        };
        if poll {
            // Client-initiated version check: one far access.
            self.stats.version_polls += 1;
            self.refreshes_since_poll = 0;
            self.need_full_poll = false;
            let bytes = client.read(self.vec.versions, self.vec.n_groups * WORD)?;
            changed = Vec::new();
            for (g, chunk) in bytes.chunks_exact(8).enumerate() {
                let v = u64::from_le_bytes(chunk.try_into().expect("word"));
                if v != self.cached_versions[g] {
                    self.cached_versions[g] = v;
                    changed.push(g as u64);
                }
            }
            // Merge any notification-marked groups.
            changed.extend(self.dirty.iter().copied());
            changed.sort_unstable();
            changed.dedup();
            self.dirty.clear();
        } else {
            changed = self.dirty.iter().copied().collect();
            self.dirty.clear();
        }

        if !changed.is_empty() {
            // One gather reads every changed group at once (§4.2).
            let iov: Vec<FarIov> = changed
                .iter()
                .map(|&g| {
                    let (first, count) = self.vec.group_range(g);
                    FarIov::new(self.vec.data.offset(first * WORD), count * WORD)
                })
                .collect();
            let bytes = client.rgather(&iov)?;
            let mut off = 0usize;
            for &g in &changed {
                let (first, count) = self.vec.group_range(g);
                for k in 0..count as usize {
                    self.cache[first as usize + k] = u64::from_le_bytes(
                        bytes[off + k * 8..off + k * 8 + 8].try_into().expect("word"),
                    );
                }
                off += count as usize * 8;
            }
            // In Notify mode the version values were never read; keep the
            // cached versions in sync by polling them lazily at the next
            // safety poll (they are only used for diffing).
        }
        self.stats.groups_refreshed += changed.len() as u64;

        // Dynamic policy (§5.4): shift between version checks and
        // notifications as the update rate moves.
        self.rate_ema = 0.8 * self.rate_ema + 0.2 * changed.len() as f64;
        if self.policy.dynamic {
            match self.mode {
                RefreshMode::Polling if self.rate_ema < TO_NOTIFY_BELOW => {
                    self.enter_mode(client, RefreshMode::Notify)?;
                    self.stats.mode_switches += 1;
                }
                RefreshMode::Notify | RefreshMode::NotifyData
                    if self.rate_ema > TO_POLLING_ABOVE =>
                {
                    self.enter_mode(client, RefreshMode::Polling)?;
                    self.stats.mode_switches += 1;
                }
                _ => {}
            }
        }
        Ok(changed.len() as u64)
    }

    /// Detaches the reader, cancelling its subscriptions.
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

    fn setup(n: u64, group: u64) -> (Arc<farmem_fabric::Fabric>, RefreshableVec) {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let v = RefreshableVec::create(&mut c, &a, n, group, AllocHint::Spread).unwrap();
        (f, v)
    }

    fn static_policy(mode: RefreshMode) -> RefreshPolicy {
        RefreshPolicy { initial: mode, dynamic: false, ..RefreshPolicy::default() }
    }

    #[test]
    fn writes_become_visible_after_refresh() {
        let (f, v) = setup(256, 16);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let mut reader =
            VecReader::new(&mut r, v, static_policy(RefreshMode::Polling)).unwrap();
        writer.write(&mut w, 10, 99).unwrap();
        // Stale until refresh — by design.
        assert_eq!(reader.get(&mut r, 10).unwrap(), 0);
        assert_eq!(reader.refresh(&mut r).unwrap(), 1);
        assert_eq!(reader.get(&mut r, 10).unwrap(), 99);
    }

    #[test]
    fn polling_refresh_reads_only_changed_groups() {
        let (f, v) = setup(1024, 64);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let mut reader =
            VecReader::new(&mut r, v, static_policy(RefreshMode::Polling)).unwrap();
        // Touch two groups.
        writer.write(&mut w, 3, 1).unwrap();
        writer.write(&mut w, 700, 2).unwrap();
        let before = r.stats();
        assert_eq!(reader.refresh(&mut r).unwrap(), 2);
        let d = r.stats().since(&before);
        assert_eq!(d.round_trips, 2, "versions read + one gather");
        // Far bytes ≈ versions (16 groups × 8) + 2 groups × 64 × 8 ≪ full
        // vector (8 KiB).
        assert!(d.bytes_read < 2048, "read {} bytes", d.bytes_read);
        // Nothing changed: refresh costs one far access, reads no data.
        let before = r.stats();
        assert_eq!(reader.refresh(&mut r).unwrap(), 0);
        assert_eq!(r.stats().since(&before).round_trips, 1);
    }

    #[test]
    fn notify_mode_skips_the_version_read() {
        let (f, v) = setup(1024, 64);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let mut reader = VecReader::new(&mut r, v, static_policy(RefreshMode::Notify)).unwrap();
        // First refresh absorbs the forced safety poll from mode entry.
        reader.refresh(&mut r).unwrap();
        writer.write(&mut w, 5, 50).unwrap();
        let before = r.stats();
        assert_eq!(reader.refresh(&mut r).unwrap(), 1);
        let d = r.stats().since(&before);
        assert_eq!(d.round_trips, 1, "no version read: just the gather");
        assert_eq!(reader.get(&mut r, 5).unwrap(), 50);
        // Idle refresh in notify mode costs zero far accesses.
        let before = r.stats();
        assert_eq!(reader.refresh(&mut r).unwrap(), 0);
        assert_eq!(r.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn notify_data_mode_diffs_versions_locally() {
        let (f, v) = setup(256, 1);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let mut reader =
            VecReader::new(&mut r, v, static_policy(RefreshMode::NotifyData)).unwrap();
        reader.refresh(&mut r).unwrap();
        writer.write(&mut w, 100, 7).unwrap();
        writer.write(&mut w, 101, 8).unwrap();
        let before = r.stats();
        assert_eq!(reader.refresh(&mut r).unwrap(), 2);
        assert_eq!(r.stats().since(&before).round_trips, 1);
        assert_eq!(reader.get(&mut r, 100).unwrap(), 7);
        assert_eq!(reader.get(&mut r, 101).unwrap(), 8);
    }

    #[test]
    fn dynamic_policy_shifts_to_notifications_as_rate_decays() {
        let (f, v) = setup(1024, 64);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let policy = RefreshPolicy { initial: RefreshMode::Polling, ..RefreshPolicy::default() };
        let mut reader = VecReader::new(&mut r, v, policy).unwrap();
        assert_eq!(reader.mode(), RefreshMode::Polling);
        // Heavy phase: many groups change per refresh — stays polling.
        for round in 0..5 {
            for i in 0..16 {
                writer.write(&mut w, i * 64, round * 100 + i).unwrap();
            }
            reader.refresh(&mut r).unwrap();
            assert_eq!(reader.mode(), RefreshMode::Polling, "round {round}");
        }
        // Quiet phase: the rate EMA decays; the reader shifts to notify.
        for _ in 0..20 {
            reader.refresh(&mut r).unwrap();
        }
        assert_eq!(reader.mode(), RefreshMode::Notify);
        assert!(reader.stats().mode_switches >= 1);
        // And writes still become visible via notifications.
        writer.write(&mut w, 0, 4242).unwrap();
        reader.refresh(&mut r).unwrap();
        assert_eq!(reader.get(&mut r, 0).unwrap(), 4242);
    }

    #[test]
    fn dynamic_policy_shifts_back_under_load() {
        let (f, v) = setup(1024, 8);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let policy = RefreshPolicy { initial: RefreshMode::Notify, ..RefreshPolicy::default() };
        let mut reader = VecReader::new(&mut r, v, policy).unwrap();
        for round in 0..10 {
            for i in 0..64 {
                writer.write(&mut w, i * 16, round + i).unwrap();
            }
            reader.refresh(&mut r).unwrap();
        }
        assert_eq!(reader.mode(), RefreshMode::Polling, "storm forces polling");
    }

    #[test]
    fn lost_notifications_fall_back_to_a_full_poll() {
        let f = farmem_fabric::FabricConfig {
            cost: farmem_fabric::CostModel::COUNT_ONLY,
            delivery: farmem_fabric::DeliveryPolicy {
                drop_ppm: 0,
                coalesce: false,
                max_queue: 4,
            },
            ..farmem_fabric::FabricConfig::single_node(64 << 20)
        }
        .build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let v = RefreshableVec::create(&mut c, &a, 512, 8, AllocHint::Spread).unwrap();
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let mut reader = VecReader::new(&mut r, v, static_policy(RefreshMode::Notify)).unwrap();
        reader.refresh(&mut r).unwrap();
        // Overflow the reader's tiny queue: events are dropped with a
        // Lost warning.
        for i in 0..64 {
            writer.write(&mut w, i * 8, i + 1).unwrap();
        }
        reader.refresh(&mut r).unwrap();
        assert!(reader.stats().loss_fallbacks > 0, "Lost warning consumed");
        // Despite the drops, every write is visible: the fallback polled.
        for i in 0..64 {
            assert_eq!(reader.get(&mut r, i * 8).unwrap(), i + 1, "element {i}");
        }
    }

    #[test]
    fn batch_writes_bump_each_group_once() {
        let (f, v) = setup(256, 16);
        let mut w = f.client();
        let mut r = f.client();
        let writer = VecWriter::new(v);
        let mut reader =
            VecReader::new(&mut r, v, static_policy(RefreshMode::Polling)).unwrap();
        let before = w.stats();
        writer
            .write_batch(&mut w, &[(0, 1), (1, 2), (17, 3), (250, 4)])
            .unwrap();
        assert_eq!(w.stats().since(&before).round_trips, 1, "one fenced batch");
        assert_eq!(reader.refresh(&mut r).unwrap(), 3, "three groups touched");
        assert_eq!(reader.get(&mut r, 1).unwrap(), 2);
        assert_eq!(reader.get(&mut r, 250).unwrap(), 4);
    }

    #[test]
    fn bad_indices_rejected() {
        let (f, v) = setup(16, 4);
        let mut c = f.client();
        let writer = VecWriter::new(v);
        assert!(writer.write(&mut c, 16, 0).is_err());
        let mut reader =
            VecReader::new(&mut c, v, static_policy(RefreshMode::Polling)).unwrap();
        assert!(reader.get(&mut c, 16).is_err());
    }
}
