//! Epoch-based grace-period reclamation for far memory.
//!
//! The paper punts on reclamation: retired HT-tree tables are quarantined
//! because freeing them safely "needs client epochs". This crate supplies
//! those epochs, built from nothing but the fabric's existing one-sided
//! verbs (`read` / `cas` / `faa` plus a `notify0` subscription):
//!
//! * a **far-memory epoch registry**: one global epoch word and an array
//!   of per-client epoch slots, all in far memory so any client (and any
//!   *surviving* client, after a crash) can run grace detection;
//! * per-client **limbo lists** of `(addr, len, retire_epoch)` deferred
//!   frees, held in client-local memory (retiring costs zero far
//!   accesses; only *sealing* a batch bumps the global epoch — one FAA);
//! * a **grace-period detector** ([`ReclaimHandle::reclaim`]) that scans
//!   the registry in one read and drains every limbo entry whose retire
//!   epoch is strictly below the minimum registered epoch back into
//!   [`FarAlloc::free`];
//! * **crash eviction** borrowed from the PR-1 lease rule: a detector
//!   that observes a *lagging* slot word stay bit-identical across
//!   [`LEASE_NS`] of its **own accumulated waiting time** CAS-evicts the
//!   slot, so a dead peer cannot stall reclamation forever. Clients
//!   publish their slot with CAS (never blind writes), so an evicted
//!   client discovers the eviction on its next pin and re-registers.
//!
//! # The protocol
//!
//! Every structure operation pins a [`Guard`]. Pinning is **free** in the
//! common case: the client subscribes `notify0` on the global epoch word,
//! so "has the epoch moved?" is a local event-queue check. Only when the
//! epoch actually advanced does a pin cost two far accesses (read the
//! epoch word, CAS the client's slot forward). The pin returns the epoch
//! the client now stands at; integrating structures compare it against
//! the epoch they last validated their caches at and refresh any cached
//! far pointers when it moved. That yields the grace rule:
//!
//! > An object unlinked before the epoch bump that sealed it (retire
//! > epoch `e` = the FAA's pre-bump value) can be freed once every
//! > registered slot shows an epoch `> e` — every client has pinned
//! > after the bump, refreshed its caches past the unlinked object, and
//! > no guard from before the unlink is still running.
//!
//! # What the caller must uphold
//!
//! * Every operation that may dereference a retired object runs under a
//!   pinned [`Guard`], and cached far pointers are refreshed when the
//!   pin reports an epoch change.
//! * Addresses are retired exactly once, with the same length they were
//!   allocated with (the allocator's membership check turns violations
//!   into [`AllocError::BadFree`] instead of silent corruption).
//! * A guard is not held across [`LEASE_NS`] of other clients' detector
//!   waiting — the same liveness assumption the lease-fenced locks make.
//!   A wrongly evicted (slow, not dead) client is *safe*: its next pin
//!   CAS fails, it re-registers and refreshes every cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use farmem_alloc::{AllocError, FarAlloc};
use farmem_fabric::{FabricClient, FabricError, FarAddr, SubId, WORD};

/// Registry far layout: global epoch word, slot count, then the slots.
const R_EPOCH: u64 = 0;
const R_SLOTS: u64 = 16;

/// Low 48 bits of a slot word hold the observed epoch; the high 16 hold
/// the registrant's tag (`client.id() + 1`, truncated — same scheme as
/// the lease-fenced locks). A slot word of 0 means "free".
const TAG_SHIFT: u32 = 48;
/// Mask selecting the epoch half of a slot word.
pub const EPOCH_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// Virtual-time lease on a lagging epoch slot, mirroring the lock lease:
/// a detector that accumulates this much of its *own* waiting time over a
/// bit-identical lagging slot concludes the registrant crashed and evicts
/// it. 100 ms of virtual time dwarfs any pinned operation (far accesses
/// cost ~2 µs each).
pub const LEASE_NS: u64 = 100_000_000;

/// First virtual wait slice a blocked detector charges itself per
/// grace-detection round; doubles per consecutive blocked round.
const WAIT_BASE_NS: u64 = 1_000_000;
/// Cap on the exponential wait slice (16 ms: out-waits a dead peer's
/// lease in ~a dozen rounds without leaping past it in one step).
const WAIT_CAP_NS: u64 = 16_000_000;

/// Retires buffered before an automatic [`ReclaimHandle::seal`] (each
/// seal is one FAA round trip; batching amortizes it over many retires).
const DEFAULT_SEAL_THRESHOLD: usize = 32;

/// Errors surfaced by the reclamation layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReclaimError {
    /// A fabric verb failed (after transparent retries).
    Fabric(FabricError),
    /// The allocator rejected an operation — notably
    /// [`AllocError::BadFree`] when a limbo entry was double-retired or
    /// retired with the wrong length.
    Alloc(AllocError),
    /// Every epoch slot is registered; raise `max_clients`.
    RegistryFull,
    /// The far-memory registry contents don't match the descriptor.
    Corrupted(&'static str),
    /// Invalid argument (zero-length or null retire, zero slots).
    BadConfig(&'static str),
}

impl From<FabricError> for ReclaimError {
    fn from(e: FabricError) -> Self {
        ReclaimError::Fabric(e)
    }
}

impl From<AllocError> for ReclaimError {
    fn from(e: AllocError) -> Self {
        ReclaimError::Alloc(e)
    }
}

impl std::fmt::Display for ReclaimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReclaimError::Fabric(e) => write!(f, "fabric: {e}"),
            ReclaimError::Alloc(e) => write!(f, "alloc: {e}"),
            ReclaimError::RegistryFull => write!(f, "epoch registry full"),
            ReclaimError::Corrupted(m) => write!(f, "registry corrupted: {m}"),
            ReclaimError::BadConfig(m) => write!(f, "bad config: {m}"),
        }
    }
}

impl std::error::Error for ReclaimError {}

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ReclaimError>;

fn words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
        .collect()
}

/// The shared descriptor of a far-memory epoch registry: its base address
/// and slot count. `Copy` — share it like any other structure descriptor.
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::{AllocHint, FarAlloc};
/// use farmem_reclaim::{pin, ReclaimRegistry};
///
/// let fabric = FabricConfig::single_node(4 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut c = fabric.client();
/// let reg = ReclaimRegistry::create(&mut c, &alloc, 8).unwrap();
/// let shared = reg.attach(&mut c, &alloc).unwrap();
///
/// let block = alloc.alloc(64, AllocHint::Spread).unwrap();
/// {
///     let _g = pin(&shared, &mut c).unwrap(); // epoch-pinned operation
/// }
/// let live = alloc.stats().live_bytes;
/// let mut h = shared.lock().unwrap();
/// h.retire(&mut c, block, 64).unwrap();       // deferred, not freed yet
/// h.seal(&mut c).unwrap();                    // advance the global epoch
/// assert_eq!(alloc.stats().live_bytes, live); // still in limbo
/// h.reclaim(&mut c).unwrap();                 // sole client: grace is immediate
/// assert_eq!(alloc.stats().live_bytes, live - 64);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReclaimRegistry {
    base: FarAddr,
    n_slots: u64,
}

impl ReclaimRegistry {
    /// Allocates and initializes a registry for up to `max_clients`
    /// concurrently registered clients. The global epoch starts at 1.
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        max_clients: u64,
    ) -> Result<ReclaimRegistry> {
        if max_clients == 0 {
            return Err(ReclaimError::BadConfig("need at least one epoch slot"));
        }
        let len = R_SLOTS + max_clients * WORD;
        let base = alloc.alloc(len, farmem_alloc::AllocHint::Spread)?;
        let mut bytes = Vec::with_capacity(len as usize);
        bytes.extend_from_slice(&1u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&max_clients.to_le_bytes());
        bytes.resize(len as usize, 0); // free slots
        client.write(base, &bytes)?;
        Ok(ReclaimRegistry { base, n_slots: max_clients })
    }

    /// The registry's base address (for sharing with other clients).
    pub fn base(&self) -> FarAddr {
        self.base
    }

    /// Number of epoch slots.
    pub fn n_slots(&self) -> u64 {
        self.n_slots
    }

    /// Far-memory footprint of the registry in bytes.
    pub fn far_len(&self) -> u64 {
        R_SLOTS + self.n_slots * WORD
    }

    fn epoch_addr(&self) -> FarAddr {
        self.base.offset(R_EPOCH)
    }

    fn slot_addr(&self, i: u64) -> FarAddr {
        self.base.offset(R_SLOTS + i * WORD)
    }

    /// Registers `client` and returns its shareable reclamation handle
    /// (one per client; clone the [`SharedReclaim`] into every structure
    /// handle the client attaches). Two to three far accesses.
    pub fn attach(
        &self,
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
    ) -> Result<SharedReclaim> {
        let (slot_idx, slot_word, observed) = claim_slot(client, self)?;
        let epoch_sub = client.notify0(self.epoch_addr(), WORD)?;
        Ok(Arc::new(Mutex::new(ReclaimHandle {
            registry: *self,
            alloc: alloc.clone(),
            epoch_sub,
            slot_idx,
            slot_word,
            observed,
            depth: 0,
            force_resync: false,
            pending: Vec::new(),
            limbo: VecDeque::new(),
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            watch: HashMap::new(),
            backoff_ns: WAIT_BASE_NS,
            stats: ReclaimStats::default(),
        })))
    }
}

/// Claims a free slot: read the registry, CAS a zero slot to
/// `tag | epoch`. Retries scans lost to racing registrants; errors with
/// [`ReclaimError::RegistryFull`] when a scan finds no free slot.
fn claim_slot(
    client: &mut FabricClient,
    registry: &ReclaimRegistry,
) -> Result<(u64, u64, u64)> {
    let tag = ((client.id() as u64 + 1) & 0xffff) << TAG_SHIFT;
    for _ in 0..registry.n_slots + 4 {
        // audit: rt-in-loop-ok: registration scan — one whole-registry read
        // per attempt; rescans only after losing every CAS to racers.
        let bytes = client.read(registry.base, registry.far_len())?;
        let w = words(&bytes);
        if w[1] != registry.n_slots {
            return Err(ReclaimError::Corrupted("slot count mismatch"));
        }
        let epoch = w[0] & EPOCH_MASK;
        let mut saw_free = false;
        for i in 0..registry.n_slots {
            if w[(2 + i) as usize] == 0 {
                saw_free = true;
                let word = tag | epoch;
                // audit: rt-in-loop-ok: one CAS per free slot until one
                // lands; a loss means a racing registrant claimed it.
                let prev = client.cas(registry.slot_addr(i), 0, word)?;
                if prev == 0 {
                    return Ok((i, word, epoch));
                }
            }
        }
        if !saw_free {
            return Err(ReclaimError::RegistryFull);
        }
    }
    Err(ReclaimError::RegistryFull)
}

/// A client's reclamation handle, shared (via [`SharedReclaim`]) between
/// every structure handle the client owns.
pub type SharedReclaim = Arc<Mutex<ReclaimHandle>>;

/// One deferred free awaiting its grace period.
#[derive(Clone, Copy, Debug)]
struct LimboEntry {
    addr: FarAddr,
    len: u64,
    epoch: u64,
}

/// Counters kept by one [`ReclaimHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReclaimStats {
    /// Limbo entries accepted by [`ReclaimHandle::retire`].
    pub retired_entries: u64,
    /// Bytes accepted into limbo.
    pub retired_bytes: u64,
    /// Limbo entries returned to the allocator.
    pub reclaimed_entries: u64,
    /// Bytes returned to the allocator.
    pub reclaimed_bytes: u64,
    /// Epoch bumps ([`ReclaimHandle::seal`]) this handle performed.
    pub seals: u64,
    /// Grace-detection rounds ([`ReclaimHandle::reclaim`] registry scans).
    pub rounds: u64,
    /// Lagging slots this handle evicted as crashed.
    pub evictions: u64,
    /// Times this handle found itself evicted and re-registered.
    pub evicted: u64,
}

impl ReclaimStats {
    /// Entries currently awaiting their grace period.
    pub fn limbo_entries(&self) -> u64 {
        self.retired_entries - self.reclaimed_entries
    }

    /// Bytes currently awaiting their grace period.
    pub fn limbo_bytes(&self) -> u64 {
        self.retired_bytes - self.reclaimed_bytes
    }
}

/// Per-client reclamation state: registry position, limbo list, grace
/// detector. Wrapped in a [`SharedReclaim`] so every structure handle of
/// the client can pin guards and retire memory through it.
pub struct ReclaimHandle {
    registry: ReclaimRegistry,
    alloc: Arc<FarAlloc>,
    epoch_sub: SubId,
    slot_idx: u64,
    /// The exact word we last installed in our slot (CAS expectation).
    slot_word: u64,
    /// The epoch our slot publishes (low 48 bits of `slot_word`).
    observed: u64,
    /// Guard nesting depth; epoch observation happens at depth 0 only.
    depth: u32,
    /// A resync failed mid-way (e.g. injected fault gave up); retry at
    /// the next pin even without a fresh notification.
    force_resync: bool,
    /// Retired but not yet sealed (no retire epoch assigned yet).
    pending: Vec<(FarAddr, u64)>,
    /// Sealed deferred frees, in nondecreasing retire-epoch order.
    limbo: VecDeque<LimboEntry>,
    /// Pending retires that trigger an automatic seal.
    seal_threshold: usize,
    /// Lease accounting per lagging slot: `slot → (word, waited_ns)`.
    watch: HashMap<u64, (u64, u64)>,
    /// Exponential wait slice charged per blocked detection round.
    backoff_ns: u64,
    stats: ReclaimStats,
}

/// RAII epoch pin. While any guard is alive the client's published epoch
/// does not advance, so no address retired at or after the pinned epoch
/// can be freed. Dropping is purely local (a depth decrement).
pub struct Guard {
    shared: SharedReclaim,
    epoch: u64,
}

impl Guard {
    /// The epoch this guard is pinned at. Structures compare it against
    /// the epoch they last validated their caches at: a difference means
    /// a restructure sealed since, and cached far pointers must be
    /// refreshed before the next far access.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether this guard pins `shared` — for operations that run under
    /// a guard their caller took and must not trust one of another
    /// registry.
    pub fn pins(&self, shared: &SharedReclaim) -> bool {
        Arc::ptr_eq(&self.shared, shared)
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Ok(mut h) = self.shared.lock() {
            debug_assert!(h.depth > 0, "guard drop without pin");
            h.depth = h.depth.saturating_sub(1);
        }
    }
}

/// Pins an epoch [`Guard`] for one structure operation. Zero far accesses
/// while the global epoch is unchanged (the check drains the local
/// `notify0` event queue); an epoch advance costs one read plus one CAS
/// to move the client's slot forward. If the CAS reveals this client was
/// evicted (a detector presumed it crashed), the client transparently
/// re-registers; the returned guard's epoch then forces every integrated
/// structure to refresh its caches.
pub fn pin(shared: &SharedReclaim, client: &mut FabricClient) -> Result<Guard> {
    let epoch = shared.lock().unwrap().pin_inner(client)?;
    Ok(Guard { shared: shared.clone(), epoch })
}

impl ReclaimHandle {
    /// This handle's counters.
    pub fn stats(&self) -> ReclaimStats {
        self.stats
    }

    /// The registry this handle is registered in.
    pub fn registry(&self) -> ReclaimRegistry {
        self.registry
    }

    /// The epoch this client currently publishes.
    pub fn observed_epoch(&self) -> u64 {
        self.observed
    }

    /// Overrides the automatic-seal threshold (pending retires per FAA).
    pub fn set_seal_threshold(&mut self, pending: usize) {
        self.seal_threshold = pending.max(1);
    }

    fn pin_inner(&mut self, client: &mut FabricClient) -> Result<u64> {
        if self.depth == 0 {
            let sub = self.epoch_sub;
            let fired = !client
                .take_events(|e| {
                    e.sub() == Some(sub) || matches!(e, farmem_fabric::Event::Lost { .. })
                })
                .is_empty();
            if fired || self.force_resync {
                self.resync(client)?;
            }
        }
        self.depth += 1;
        Ok(self.observed)
    }

    /// Wake-boundary epoch refresh for suspended tasks (the async
    /// runtime's *refresh-on-wake* rule; DESIGN.md §12).
    ///
    /// A client that blocks between structure operations republishes its
    /// epoch only at the next [`pin`] — fine when operations are frequent,
    /// but a *parked* logical client under an executor may not pin again
    /// for a long virtual time, and its stale published epoch would hold
    /// every retire at a newer epoch out of reclamation. Calling this at
    /// each wake boundary closes that gap:
    ///
    /// * **No guard held** (`depth == 0`): behaves exactly like the
    ///   depth-0 entry of [`pin`] — drains the epoch notification and, if
    ///   it fired (or a previous resync failed mid-way), re-reads the
    ///   global epoch and CASes the slot forward. Returns `Ok(true)` iff
    ///   the published epoch advanced; callers must then revalidate any
    ///   cached far pointers before the next dereference (the same
    ///   contract [`Guard::epoch`] documents).
    /// * **Guard held** (`depth > 0`): does nothing and returns
    ///   `Ok(false)`. Safety comes first — the pinned epoch must not
    ///   advance while a guard-protected traversal may hold unvalidated
    ///   far pointers. The slot stays bit-identical while parked, so the
    ///   lease detector charges no progress against a *live* task within
    ///   its lease; a task that never wakes again is indistinguishable
    ///   from a crashed client and is evicted after `LEASE_NS`, which is
    ///   safe by the re-registration protocol in [`publish`](ReclaimHandle).
    pub fn refresh_on_wake(&mut self, client: &mut FabricClient) -> Result<bool> {
        if self.depth > 0 {
            return Ok(false);
        }
        let sub = self.epoch_sub;
        let fired = !client
            .take_events(|e| {
                e.sub() == Some(sub) || matches!(e, farmem_fabric::Event::Lost { .. })
            })
            .is_empty();
        if !(fired || self.force_resync) {
            return Ok(false);
        }
        let before = self.observed;
        self.resync(client)?;
        Ok(self.observed != before)
    }

    /// Re-reads the global epoch and publishes it in our slot (CAS, so an
    /// eviction is detected rather than clobbered).
    fn resync(&mut self, client: &mut FabricClient) -> Result<()> {
        self.force_resync = true;
        let latest = client.read_u64(self.registry.epoch_addr())? & EPOCH_MASK;
        if latest != self.observed {
            self.publish(client, latest)?;
        }
        self.force_resync = false;
        Ok(())
    }

    /// CASes our slot from its last known word to `tag | epoch`,
    /// re-registering if the slot was stolen by an eviction.
    fn publish(&mut self, client: &mut FabricClient, epoch: u64) -> Result<()> {
        let tag = ((client.id() as u64 + 1) & 0xffff) << TAG_SHIFT;
        let new_word = tag | (epoch & EPOCH_MASK);
        let prev = client.cas(self.registry.slot_addr(self.slot_idx), self.slot_word, new_word)?;
        if prev == self.slot_word {
            self.slot_word = new_word;
            self.observed = epoch;
        } else {
            // Evicted (presumed crashed). Claim a fresh slot; the epoch
            // jump makes every integrated structure refresh its caches.
            self.stats.evicted += 1;
            let (idx, word, observed) = claim_slot(client, &self.registry)?;
            self.slot_idx = idx;
            self.slot_word = word;
            self.observed = observed;
        }
        Ok(())
    }

    /// Hands `[addr, addr + len)` to the limbo list. Zero far accesses:
    /// the entry becomes eligible for freeing only after a [`seal`]
    /// assigns its retire epoch (an automatic seal triggers every
    /// [`set_seal_threshold`] retires). The address must have been
    /// unlinked — no *new* reference can be formed — before this call,
    /// and must be retired exactly once with its allocation length.
    ///
    /// [`seal`]: ReclaimHandle::seal
    /// [`set_seal_threshold`]: ReclaimHandle::set_seal_threshold
    pub fn retire(&mut self, client: &mut FabricClient, addr: FarAddr, len: u64) -> Result<()> {
        if addr.is_null() || len == 0 {
            return Err(ReclaimError::BadConfig("null or empty retire"));
        }
        self.pending.push((addr, len));
        self.stats.retired_entries += 1;
        // lint: stats-ok: ReclaimStats bookkeeping; AccessStats moves via book_reclaim below
        self.stats.retired_bytes += len;
        client.book_reclaim(len, 0, 0);
        if self.pending.len() >= self.seal_threshold {
            self.seal(client)?;
        }
        Ok(())
    }

    /// Seals all pending retires: one FAA bumps the global epoch, and the
    /// FAA's *pre-bump* value becomes their retire epoch. Any guard that
    /// could still reach a sealed address was pinned at or below that
    /// value (a pin observing the bumped epoch starts after the bump,
    /// which starts after every sealed address was unlinked — and the
    /// epoch change makes that pin refresh its structure caches first).
    /// No-op when nothing is pending.
    pub fn seal(&mut self, client: &mut FabricClient) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let prev = client.faa(self.registry.epoch_addr(), 1)? & EPOCH_MASK;
        for (addr, len) in self.pending.drain(..) {
            self.limbo.push_back(LimboEntry { addr, len, epoch: prev });
        }
        self.stats.seals += 1;
        Ok(())
    }

    /// One grace-detection round. Seals any pending retires, scans the
    /// registry in **one read**, evicts lagging slots whose lease ran out
    /// (see [`LEASE_NS`]), and frees every limbo entry whose retire epoch
    /// every registered client has passed. Returns the bytes freed.
    ///
    /// Call it periodically (it is cheap when limbo is empty — no far
    /// access at all) or in a loop to out-wait a crashed peer's lease.
    pub fn reclaim(&mut self, client: &mut FabricClient) -> Result<u64> {
        self.seal(client)?;
        if self.limbo.is_empty() {
            self.watch.clear();
            self.backoff_ns = WAIT_BASE_NS;
            return Ok(0);
        }
        // One round trip: global epoch + every slot.
        let bytes = client.read(self.registry.base, self.registry.far_len())?;
        self.stats.rounds += 1;
        client.book_reclaim(0, 0, 1);
        let w = words(&bytes);
        let global = w[0] & EPOCH_MASK;
        // Keep our own slot current: outside any guard we hold no far
        // references, so advancing our published epoch is exactly what a
        // pin would do (and lets a sole client reclaim immediately).
        if self.depth == 0 && global != self.observed {
            self.publish(client, global)?;
        }
        let mut slot_epochs: Vec<(u64, u64, u64)> = Vec::new(); // (idx, word, epoch)
        for i in 0..self.registry.n_slots {
            let word = w[(2 + i) as usize];
            if word != 0 {
                slot_epochs.push((i, word, word & EPOCH_MASK));
            }
        }
        let oldest = self.limbo.front().expect("limbo non-empty").epoch;
        let blockers: Vec<(u64, u64)> = slot_epochs
            .iter()
            .filter(|&&(i, _, ep)| ep < global && ep <= oldest && i != self.slot_idx)
            .map(|&(i, word, _)| (i, word))
            .collect();
        let mut evicted: Vec<u64> = Vec::new();
        if blockers.is_empty() {
            self.watch.clear();
            self.backoff_ns = WAIT_BASE_NS;
        } else {
            // The detector is waiting out a lease: charge itself a wait
            // slice of virtual time (its own time, never another clock).
            let slice = self.backoff_ns;
            client.advance_time(slice);
            self.backoff_ns = (self.backoff_ns * 2).min(WAIT_CAP_NS);
            self.watch.retain(|i, _| blockers.iter().any(|&(b, _)| b == *i));
            for (i, word) in blockers {
                let entry = self.watch.entry(i).or_insert((word, 0));
                if entry.0 == word {
                    entry.1 += slice;
                } else {
                    *entry = (word, 0); // the registrant moved: reset
                }
                if entry.1 >= LEASE_NS {
                    // Presumed crashed: evict by CAS on the exact word we
                    // watched. Losing the race means the slot moved (the
                    // registrant lives or someone else evicted it).
                    // audit: rt-in-loop-ok: one eviction CAS per registrant
                    // presumed dead after a full lease of no movement (rare).
                    let prev = client.cas(self.registry.slot_addr(i), word, 0)?;
                    if prev == word {
                        self.stats.evictions += 1;
                        evicted.push(i);
                    }
                    self.watch.remove(&i);
                }
            }
        }
        // Grace rule: free entries strictly below the minimum epoch any
        // registered client (still) publishes. Our own slot uses the
        // local `observed` (authoritative even mid-publish).
        let mut min_ep = self.observed;
        for &(i, _, ep) in &slot_epochs {
            if i != self.slot_idx && !evicted.contains(&i) {
                min_ep = min_ep.min(ep);
            }
        }
        let mut freed = 0u64;
        while let Some(front) = self.limbo.front() {
            if front.epoch >= min_ep {
                break;
            }
            let e = self.limbo.pop_front().expect("front exists");
            self.alloc.free(e.addr, e.len)?;
            freed += e.len;
            self.stats.reclaimed_entries += 1;
            // lint: stats-ok: ReclaimStats bookkeeping; AccessStats moves via book_reclaim below
            self.stats.reclaimed_bytes += e.len;
        }
        if freed > 0 {
            client.book_reclaim(0, freed, 0);
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_alloc::AllocHint;
    use farmem_fabric::FabricConfig;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>, ReclaimRegistry) {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        (f, a, reg)
    }

    #[test]
    fn pin_is_free_until_the_epoch_moves() {
        let (f, a, reg) = setup();
        let mut c = f.client();
        let shared = reg.attach(&mut c, &a).unwrap();
        let before = c.stats();
        for _ in 0..100 {
            let _g = pin(&shared, &mut c).unwrap();
        }
        assert_eq!(c.stats().since(&before).round_trips, 0, "steady-state pin is free");
    }

    #[test]
    fn sole_client_reclaims_after_one_round() {
        let (f, a, reg) = setup();
        let mut c = f.client();
        let shared = reg.attach(&mut c, &a).unwrap();
        let block = a.alloc(128, AllocHint::Spread).unwrap();
        let live = a.stats().live_bytes;
        let mut h = shared.lock().unwrap();
        h.retire(&mut c, block, 128).unwrap();
        h.seal(&mut c).unwrap();
        assert_eq!(a.stats().live_bytes, live, "sealed but not yet freed");
        assert_eq!(h.stats().limbo_bytes(), 128);
        let freed = h.reclaim(&mut c).unwrap();
        assert_eq!(freed, 128);
        assert_eq!(a.stats().live_bytes, live - 128);
        assert_eq!(h.stats().limbo_bytes(), 0);
    }

    #[test]
    fn grace_waits_for_a_pinned_peer() {
        let (f, a, reg) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        // c2 pins *before* the retire: it could still hold a reference.
        let g2 = pin(&s2, &mut c2).unwrap();
        let block = a.alloc(256, AllocHint::Spread).unwrap();
        {
            let mut h1 = s1.lock().unwrap();
            h1.retire(&mut c1, block, 256).unwrap();
            h1.seal(&mut c1).unwrap();
            for _ in 0..5 {
                assert_eq!(h1.reclaim(&mut c1).unwrap(), 0, "c2's guard blocks the free");
            }
        }
        drop(g2);
        // c2 pins again: the notification resyncs its slot past the seal.
        let _g2 = pin(&s2, &mut c2).unwrap();
        let mut h1 = s1.lock().unwrap();
        assert_eq!(h1.reclaim(&mut c1).unwrap(), 256);
    }

    #[test]
    fn refresh_on_wake_unblocks_grace_without_a_pin() {
        let (f, a, reg) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        // c2 is a parked logical client: no guard held, not pinning.
        let block = a.alloc(256, AllocHint::Spread).unwrap();
        {
            let mut h1 = s1.lock().unwrap();
            h1.retire(&mut c1, block, 256).unwrap();
            h1.seal(&mut c1).unwrap();
            assert_eq!(h1.reclaim(&mut c1).unwrap(), 0, "c2's stale slot blocks the free");
        }
        // A wake boundary republishes c2's epoch without any pin.
        let advanced = s2.lock().unwrap().refresh_on_wake(&mut c2).unwrap();
        assert!(advanced, "the seal's epoch notification fired while parked");
        assert_eq!(s1.lock().unwrap().reclaim(&mut c1).unwrap(), 256);
    }

    #[test]
    fn refresh_on_wake_is_inert_while_a_guard_is_held() {
        let (f, a, reg) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        // c2 pins *before* the retire and then suspends with the guard
        // held across the park.
        let g2 = pin(&s2, &mut c2).unwrap();
        let block = a.alloc(256, AllocHint::Spread).unwrap();
        {
            let mut h1 = s1.lock().unwrap();
            h1.retire(&mut c1, block, 256).unwrap();
            h1.seal(&mut c1).unwrap();
        }
        // Wake boundaries inside the guard must not advance the epoch.
        assert!(!s2.lock().unwrap().refresh_on_wake(&mut c2).unwrap());
        assert_eq!(s1.lock().unwrap().reclaim(&mut c1).unwrap(), 0, "guard still pins");
        drop(g2);
        // The first wake boundary after the drop releases the pin.
        assert!(s2.lock().unwrap().refresh_on_wake(&mut c2).unwrap());
        assert_eq!(s1.lock().unwrap().reclaim(&mut c1).unwrap(), 256);
    }

    #[test]
    fn dead_peer_is_evicted_after_its_lease() {
        let (f, a, reg) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let _s2 = reg.attach(&mut c2, &a).unwrap();
        // c2 "crashes": it never pins again.
        let block = a.alloc(64, AllocHint::Spread).unwrap();
        let mut h1 = s1.lock().unwrap();
        h1.retire(&mut c1, block, 64).unwrap();
        h1.seal(&mut c1).unwrap();
        let mut freed = 0;
        for _ in 0..64 {
            freed = h1.reclaim(&mut c1).unwrap();
            if freed > 0 {
                break;
            }
        }
        assert_eq!(freed, 64, "eviction unblocked reclamation");
        assert_eq!(h1.stats().evictions, 1);
    }

    #[test]
    fn evicted_client_reregisters_on_next_pin() {
        let (f, a, reg) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        let block = a.alloc(64, AllocHint::Spread).unwrap();
        {
            let mut h1 = s1.lock().unwrap();
            h1.retire(&mut c1, block, 64).unwrap();
            h1.seal(&mut c1).unwrap();
            for _ in 0..64 {
                if h1.reclaim(&mut c1).unwrap() > 0 {
                    break;
                }
            }
            assert_eq!(h1.stats().evictions, 1, "c2 was evicted");
        }
        // c2 wakes up: its pin detects the stolen slot and re-registers.
        let g = pin(&s2, &mut c2).unwrap();
        let h2 = s2.lock().unwrap();
        assert_eq!(h2.stats().evicted, 1);
        assert_eq!(g.epoch(), h2.observed_epoch());
        // And it still participates in grace from its fresh slot.
        assert!(g.epoch() >= 2);
    }

    #[test]
    fn auto_seal_triggers_at_threshold() {
        let (f, a, reg) = setup();
        let mut c = f.client();
        let shared = reg.attach(&mut c, &a).unwrap();
        let mut h = shared.lock().unwrap();
        h.set_seal_threshold(4);
        for _ in 0..8 {
            let block = a.alloc(32, AllocHint::Spread).unwrap();
            h.retire(&mut c, block, 32).unwrap();
        }
        assert_eq!(h.stats().seals, 2, "two automatic seals at threshold 4");
    }

    #[test]
    fn double_retire_surfaces_as_bad_free() {
        let (f, a, reg) = setup();
        let mut c = f.client();
        let shared = reg.attach(&mut c, &a).unwrap();
        let block = a.alloc(64, AllocHint::Spread).unwrap();
        let mut h = shared.lock().unwrap();
        h.retire(&mut c, block, 64).unwrap();
        h.retire(&mut c, block, 64).unwrap(); // the bug
        h.seal(&mut c).unwrap();
        let err = h.reclaim(&mut c).unwrap_err();
        assert!(matches!(err, ReclaimError::Alloc(AllocError::BadFree { .. })));
    }

    #[test]
    fn registry_full_is_reported() {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &a, 2).unwrap();
        let _s1 = reg.attach(&mut c, &a).unwrap();
        let _s2 = reg.attach(&mut c, &a).unwrap();
        let err = match reg.attach(&mut c, &a) {
            Err(e) => e,
            Ok(_) => panic!("third attach must fail"),
        };
        assert_eq!(err, ReclaimError::RegistryFull);
    }
}
