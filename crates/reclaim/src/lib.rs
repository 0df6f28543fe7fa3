//! Epoch-based grace-period reclamation for far memory.
//!
//! The paper punts on reclamation: retired HT-tree tables are quarantined
//! because freeing them safely "needs client epochs". This crate supplies
//! those epochs, built from nothing but the fabric's existing one-sided
//! verbs (`read` / `cas` / `faa` plus a `notify0d` subscription):
//!
//! * a **far-memory epoch registry**: one global epoch word and an array
//!   of per-client epoch slots, all in far memory so any client (and any
//!   *surviving* client, after a crash) can run grace detection. The
//!   epoch word packs two counters: the **seal count** the grace rule
//!   compares (low 48 bits) and a **restructure generation** (high 16
//!   bits) that moves only when a sealed batch held memory clients cache
//!   pointers into ([`ReclaimHandle::retire_restructure`]);
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
//!   slot, so a dead peer cannot stall reclamation forever. Waiting
//!   starts at the second round that sees the word unmoved: a slot first
//!   seen lagging may only not have pinned since the latest seal. Clients
//!   publish their slot with CAS (never blind writes), so an evicted
//!   client discovers the eviction at its next publish and re-registers.
//!
//! # The protocol
//!
//! Every structure operation pins a [`Guard`]. Pinning is **free** in the
//! common case: the client subscribes `notify0d` on the global epoch
//! word, so "has the epoch moved?" is a local event-queue check, and the
//! event carries the word it moved to. An advance costs **no round trip
//! of its own**: [`pin_deferred`] adopts the carried word at once and
//! hands the operation a [`Publish`] — the CAS that moves the client's
//! slot to it — which rides at the head of the operation's first fenced
//! batch, one more message and atomic in a round trip the operation pays
//! anyway. The blocking [`pin`] issues it alone: one far access. Only a
//! [`Lost`](farmem_fabric::Event::Lost) warning (or a resync that failed
//! mid-way) makes the pin read the epoch word first. The guard reports
//! the epoch the client now stands at and the restructure
//! [`generation`](Guard::generation) it has seen; integrating structures
//! compare the *generation* against the one they last validated their
//! caches at and refresh cached far pointers only when it moved. That
//! yields the grace rule:
//!
//! > An object unlinked before the epoch bump that sealed it (retire
//! > epoch `e` = the FAA's pre-bump seal count) can be freed once every
//! > registered slot shows a seal count `> e` — every client has pinned
//! > after the bump, refreshed its caches past the unlinked object if it
//! > was part of a restructure, and no guard from before the unlink is
//! > still running.
//!
//! A slot may publish a seal count that *lags* the word (events can be
//! coalesced, or dropped silently on a best-effort fabric), or the epoch
//! the client adopted (its publish has not landed yet): a lagging slot
//! only holds grace back, because everything sealed after the value it
//! publishes has a retire epoch at or above it. So a publish that lands
//! one batch after the pin changes no safety argument. A publish whose
//! CAS *loses* finds the slot evicted: the client re-registers, the
//! generation moves, and the operation discards that batch's answers and
//! starts over from its first access, which wrote nothing.
//!
//! # What the caller must uphold
//!
//! * Every operation that may dereference a retired object runs under a
//!   pinned [`Guard`], and cached pointers into memory retired with
//!   [`ReclaimHandle::retire_restructure`] are refreshed when the pin
//!   reports a new generation. Pointers into memory retired with
//!   [`ReclaimHandle::retire`] are never cached past the guard that found
//!   them, or are validated on use (a record hint is checked against the
//!   tree before its bytes are served).
//! * Addresses are retired exactly once, with the same length they were
//!   allocated with (the allocator's membership check turns violations
//!   into [`AllocError::BadFree`] instead of silent corruption).
//! * A guard is not held across [`LEASE_NS`] of other clients' detector
//!   waiting — the same liveness assumption the lease-fenced locks make.
//!   A wrongly evicted (slow, not dead) client is *safe* from its next
//!   publish on: the CAS fails, it re-registers and refreshes every cache.
//! * An operation pinned with [`pin_deferred`] carries the guard's
//!   [`Publish`] in its first fenced batch and [settles](Guard::settle)
//!   it with the CAS's answer before it uses any other answer of that
//!   batch; an operation with no such batch pins with [`pin`].
//! * A client that is done gives its slot back with
//!   [`ReclaimHandle::release`]; a slot nobody releases blocks grace
//!   until the lease evicts it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use farmem_alloc::{AllocError, FarAlloc};
use farmem_fabric::{BatchOp, Event, FabricClient, FabricError, FarAddr, SubId, WORD};

/// Registry far layout: global epoch word, slot count, then the slots.
const R_EPOCH: u64 = 0;
const R_SLOTS: u64 = 16;

/// Low 48 bits of a slot word hold the observed epoch; the high 16 hold
/// the registrant's tag (`client.id() + 1`, truncated — same scheme as
/// the lease-fenced locks). A slot word of 0 means "free".
const TAG_SHIFT: u32 = 48;
/// Mask selecting the epoch half of a slot word — and the seal count of
/// the global epoch word, whose high 16 bits hold the restructure
/// generation instead of a tag. 2⁴⁸ seals never overflow in practice; the
/// generation wraps, which is harmless: it is only compared for
/// inequality, and a seal count that moved by 2¹⁶ or more counts as a
/// new generation whatever the bits say.
pub const EPOCH_MASK: u64 = (1 << TAG_SHIFT) - 1;
/// One restructure generation, as added to the global epoch word.
const GEN_ONE: u64 = 1 << TAG_SHIFT;
/// Seals after which the 16-bit generation may have wrapped to its old
/// value (each seal bumps it at most once).
const GEN_PERIOD: u64 = 1 << (64 - TAG_SHIFT);

/// Virtual-time lease on a lagging epoch slot, mirroring the lock lease:
/// a detector that accumulates this much of its *own* waiting time over a
/// bit-identical lagging slot concludes the registrant crashed and evicts
/// it. 100 ms of virtual time dwarfs any pinned operation (far accesses
/// cost ~2 µs each).
pub const LEASE_NS: u64 = 100_000_000;

/// First virtual wait slice a blocked detector charges itself per
/// grace-detection round — from the second round it sees a blocker
/// unmoved; doubles per consecutive charged round.
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
    /// [`ReclaimHandle::release`] refused: the handle still pins or
    /// still owes frees.
    InUse(&'static str),
    /// The handle gave its slot back ([`ReclaimHandle::release`]); attach
    /// again to pin or retire.
    Released,
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
            ReclaimError::InUse(m) => write!(f, "release refused: {m}"),
            ReclaimError::Released => write!(f, "reclaim handle was released"),
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
        let (slot_idx, slot_word, epoch_word) = claim_slot(client, self)?;
        let epoch_sub = client.notify0d(self.epoch_addr(), WORD)?;
        Ok(Arc::new(Mutex::new(ReclaimHandle {
            registry: *self,
            alloc: alloc.clone(),
            epoch_sub,
            slot_idx,
            slot_word,
            unsure: None,
            observed: epoch_word & EPOCH_MASK,
            word_gen: epoch_word >> TAG_SHIFT,
            generation: 0,
            released: false,
            depth: 0,
            force_resync: false,
            pending: Vec::new(),
            pending_restructure: false,
            limbo: VecDeque::new(),
            seal_threshold: DEFAULT_SEAL_THRESHOLD,
            watch: HashMap::new(),
            backoff_ns: WAIT_BASE_NS,
            stats: ReclaimStats::default(),
        })))
    }
}

/// Claims a free slot: read the registry, CAS a zero slot to
/// `tag | epoch`. Returns `(slot index, slot word, global epoch word)`.
/// Retries scans lost to racing registrants; errors with
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
        let mut saw_free = false;
        for i in 0..registry.n_slots {
            if w[(2 + i) as usize] == 0 {
                saw_free = true;
                let word = tag | (w[0] & EPOCH_MASK);
                // audit: rt-in-loop-ok: one CAS per free slot until one
                // lands; a loss means a racing registrant claimed it.
                let prev = client.cas(registry.slot_addr(i), 0, word)?;
                if prev == 0 {
                    return Ok((i, word, w[0]));
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
    /// Of those, the seals that also bumped the restructure generation
    /// (their batch held a [`ReclaimHandle::retire_restructure`]).
    pub restructures: u64,
    /// Grace-detection rounds ([`ReclaimHandle::reclaim`] registry scans).
    pub rounds: u64,
    /// Lagging slots this handle evicted as crashed.
    pub evictions: u64,
    /// Times this handle found itself evicted and re-registered.
    pub evicted: u64,
    /// Slot CASes this handle issued to publish its epoch, however they
    /// were carried: alone (a blocking [`pin`], a grace pass) or at the
    /// head of an operation's first fenced batch.
    pub publishes: u64,
    /// Of those, the ones an operation's batch carried, at no round trip
    /// of their own.
    pub carried: u64,
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
    /// The word a publish tried to install when a failed batch left its
    /// outcome unknown: the slot holds it or `slot_word`, unless an
    /// evictor took it. Read once before the next publish.
    unsure: Option<u64>,
    /// The epoch this client stands at. Its slot publishes it, or lags
    /// it until the publish lands (the low 48 bits of `slot_word`).
    observed: u64,
    /// Restructure-generation bits of the epoch word `observed` came from.
    word_gen: u64,
    /// This client's restructure generation: moves whenever the slot
    /// moves past a restructure seal (or re-registers), never otherwise.
    generation: u64,
    /// The slot was given back ([`ReclaimHandle::release`]).
    released: bool,
    /// Guard nesting depth; epoch observation happens at depth 0 only.
    depth: u32,
    /// A resync failed mid-way (e.g. injected fault gave up); read the
    /// epoch word at the next pin even without a fresh notification.
    force_resync: bool,
    /// Retired but not yet sealed (no retire epoch assigned yet).
    pending: Vec<(FarAddr, u64)>,
    /// `pending` holds a [`retire_restructure`](Self::retire_restructure):
    /// the seal that covers it bumps the generation.
    pending_restructure: bool,
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
    generation: u64,
    publish: Option<Publish>,
}

/// The slot CAS a depth-0 [`pin_deferred`] left for the operation to
/// carry: it moves the client's slot from the word it holds to the epoch
/// the pin adopted. Put [`op`](Self::op) at the head of the operation's
/// first fenced batch and hand the CAS's answer to [`Guard::settle`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Publish {
    addr: FarAddr,
    expected: u64,
    new: u64,
}

impl Publish {
    /// The CAS, as a fenced batch's op.
    pub fn op(&self) -> BatchOp<'static> {
        BatchOp::Cas { addr: self.addr, expected: self.expected, new: self.new }
    }
}

impl Guard {
    /// The epoch (seal count) this guard is pinned at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The restructure generation this guard's client has seen.
    /// Structures compare it against the generation they last validated
    /// their caches at: a difference means a restructure sealed since
    /// (or the client re-registered), and cached far pointers must be
    /// refreshed before the next far access. An epoch advance with the
    /// same generation retired nothing a cache points into.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Takes the slot publish the pin left pending, for the head of the
    /// operation's first fenced batch; `None` when the slot is current or
    /// the publish was taken already. A publish taken and never settled
    /// is harmless: the slot lags, and the next depth-0 pin hands it out
    /// again.
    pub fn take_publish(&mut self) -> Option<Publish> {
        self.publish.take()
    }

    /// Settles a publish the operation carried, with the CAS's `answer`
    /// (`None`: the batch failed, so whether the CAS ran is unknown — the
    /// handle reads its slot once before its next publish). Returns
    /// whether the batch's other answers stand. `false` means the slot
    /// had been evicted: grace ran without this client, so the handle
    /// re-registered and the guard reports a new
    /// [`generation`](Self::generation); the operation discards the
    /// batch's answers, refreshes its caches and starts over from its
    /// first access.
    pub fn settle(
        &mut self,
        client: &mut FabricClient,
        publish: Publish,
        answer: Option<u64>,
    ) -> Result<bool> {
        let mut h = self.shared.lock().unwrap();
        h.stats.carried += 1;
        let landed = h.settle(client, publish, answer);
        (self.epoch, self.generation) = (h.observed, h.generation);
        landed
    }

    /// Issues the pending publish alone, one CAS: what the blocking
    /// [`pin`] does, for an operation with no fenced batch to carry it.
    pub fn publish_alone(&mut self, client: &mut FabricClient) -> Result<()> {
        let Some(publish) = self.take_publish() else { return Ok(()) };
        let mut h = self.shared.lock().unwrap();
        let landed = h.publish_alone(client, publish);
        (self.epoch, self.generation) = (h.observed, h.generation);
        landed.map(drop)
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

/// Pins an epoch [`Guard`] for one structure operation and publishes its
/// epoch on the spot: [`pin_deferred`] with the pending [`Publish`]
/// issued alone ([`Guard::publish_alone`]). Zero far accesses while the
/// global epoch is unchanged; an epoch advance costs the slot CAS — one
/// far access, two after a [`Lost`](farmem_fabric::Event::Lost) warning,
/// which reads the epoch word first. If the CAS reveals this client was
/// evicted (a detector presumed it crashed), the client transparently
/// re-registers; the returned guard's generation then forces every
/// integrated structure to refresh its caches.
pub fn pin(shared: &SharedReclaim, client: &mut FabricClient) -> Result<Guard> {
    let mut guard = pin_deferred(shared, client)?;
    guard.publish_alone(client)?;
    Ok(guard)
}

/// Pins an epoch [`Guard`] for one structure operation, leaving the slot
/// CAS of an epoch advance to the operation: the pin adopts the newest
/// epoch and generation the events carried — reading the epoch word first
/// only after a [`Lost`](farmem_fabric::Event::Lost) warning — and the
/// guard holds the [`Publish`] that moves the slot there, for the head of
/// the operation's first fenced batch ([`Guard::take_publish`],
/// [`Guard::settle`]). Zero far accesses otherwise. Until the publish
/// lands the slot lags the guard's epoch, which only holds grace back.
pub fn pin_deferred(shared: &SharedReclaim, client: &mut FabricClient) -> Result<Guard> {
    let (epoch, generation, publish) = shared.lock().unwrap().pin_inner(client)?;
    Ok(Guard { shared: shared.clone(), epoch, generation, publish })
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

    /// The epoch this client currently stands at (its slot publishes it,
    /// or lags it until a pending publish lands).
    pub fn observed_epoch(&self) -> u64 {
        self.observed
    }

    /// This client's restructure generation (see [`Guard::generation`]).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Overrides the automatic-seal threshold (pending retires per FAA).
    pub fn set_seal_threshold(&mut self, pending: usize) {
        self.seal_threshold = pending.max(1);
    }

    fn pin_inner(&mut self, client: &mut FabricClient) -> Result<(u64, u64, Option<Publish>)> {
        if self.released {
            return Err(ReclaimError::Released);
        }
        let publish = if self.depth == 0 { self.catch_up(client)? } else { None };
        self.depth += 1;
        Ok((self.observed, self.generation, publish))
    }

    /// The depth-0 epoch observation of [`pin_deferred`]: drains the
    /// epoch subscription, adopts the newest word its events carried, and
    /// returns the publish that moves the slot there, if it lags. A
    /// `Lost` warning, or a resync that failed mid-way, means the events
    /// may not carry the newest word, so it is read first; a publish
    /// whose outcome a failed batch left unknown has the slot read first.
    /// Either way the published value may lag the word by the time the
    /// CAS lands; a lagging slot only holds grace back. Besides an
    /// operation's publish, only the client's own non-empty
    /// [`reclaim`](Self::reclaim) moves its slot: a client that stops
    /// pinning, blocked or parked at a doorbell alike, lags until its
    /// next operation, its lease, or its [`release`](Self::release).
    fn catch_up(&mut self, client: &mut FabricClient) -> Result<Option<Publish>> {
        let sub = self.epoch_sub;
        let mut lost = self.force_resync;
        let mut carried: Option<u64> = None;
        for e in client.take_events(|e| e.sub() == Some(sub) || matches!(e, Event::Lost { .. })) {
            match e {
                Event::ChangedData { data, .. } => {
                    let word = u64::from_le_bytes(data[..8].try_into().expect("one word"));
                    if carried.is_none_or(|c| word & EPOCH_MASK > c & EPOCH_MASK) {
                        carried = Some(word);
                    }
                }
                _ => lost = true,
            }
        }
        // Set until the word is adopted: a failure below retries at the
        // next pin, with a read, even without a fresh event.
        self.force_resync = true;
        let newest = if lost { Some(client.read_u64(self.registry.epoch_addr())?) } else { carried };
        if let Some(word) = newest.filter(|w| w & EPOCH_MASK > self.observed) {
            self.adopt(word);
        }
        self.force_resync = false;
        if self.unsure.is_some() && !self.resolve(client)? {
            self.reregister(client)?;
        }
        Ok(self.due(client))
    }

    /// The publish that moves our slot to `observed`, when it lags.
    fn due(&self, client: &FabricClient) -> Option<Publish> {
        let tag = ((client.id() as u64 + 1) & 0xffff) << TAG_SHIFT;
        (self.slot_word & EPOCH_MASK < self.observed).then(|| Publish {
            addr: self.registry.slot_addr(self.slot_idx),
            expected: self.slot_word,
            new: tag | self.observed,
        })
    }

    /// Books a publish's outcome — the one place a slot CAS's answer is
    /// judged, however it was carried. It landed when the slot held the
    /// expected word — or already the new one, installed by an earlier
    /// attempt whose answer went missing. Any other word means an evictor
    /// took the slot: the handle re-registers and `false` comes back.
    fn settle(
        &mut self,
        client: &mut FabricClient,
        publish: Publish,
        answer: Option<u64>,
    ) -> Result<bool> {
        debug_assert_eq!(publish.expected, self.slot_word, "a publish of another slot word");
        self.stats.publishes += 1;
        match answer {
            None => {
                self.unsure = Some(publish.new);
                Ok(true)
            }
            Some(prev) if prev == publish.expected || prev == publish.new => {
                self.slot_word = publish.new;
                Ok(true)
            }
            Some(_) => {
                self.reregister(client)?;
                Ok(false)
            }
        }
    }

    /// Issues `publish` alone — one CAS — and settles it.
    fn publish_alone(&mut self, client: &mut FabricClient, publish: Publish) -> Result<bool> {
        let answer = client.cas(publish.addr, publish.expected, publish.new);
        let landed = self.settle(client, publish, answer.as_ref().ok().copied())?;
        answer?;
        Ok(landed)
    }

    /// Reads the slot once after a publish whose outcome is unknown: it
    /// holds the word the CAS tried (adopted as the slot's word) or the
    /// one before. Returns `false` when it holds neither — an evictor took
    /// it — and the slot is no longer ours.
    fn resolve(&mut self, client: &mut FabricClient) -> Result<bool> {
        let Some(tried) = self.unsure else { return Ok(true) };
        let word = client.read_u64(self.registry.slot_addr(self.slot_idx))?;
        self.unsure = None;
        if word == tried {
            self.slot_word = tried;
        }
        Ok(word == self.slot_word)
    }

    /// Claims a fresh slot after an eviction (a detector presumed this
    /// client crashed). Grace ran without us, so the generation moves and
    /// every integrated structure refreshes its caches, restructure or
    /// not.
    fn reregister(&mut self, client: &mut FabricClient) -> Result<()> {
        self.stats.evicted += 1;
        let (idx, slot_word, word) = claim_slot(client, &self.registry)?;
        self.slot_idx = idx;
        self.slot_word = slot_word;
        self.adopt(word);
        self.generation += 1;
        Ok(())
    }

    /// Moves `observed` to `word`'s seal count. The generation moves with
    /// it iff a restructure may have sealed in between: the word's
    /// generation bits differ, or enough seals passed for them to have
    /// wrapped back.
    fn adopt(&mut self, word: u64) {
        let seals = word & EPOCH_MASK;
        let word_gen = word >> TAG_SHIFT;
        if word_gen != self.word_gen || seals.wrapping_sub(self.observed) >= GEN_PERIOD {
            self.generation += 1;
        }
        self.observed = seals;
        self.word_gen = word_gen;
    }

    /// Hands `[addr, addr + len)` to the limbo list. Zero far accesses:
    /// the entry becomes eligible for freeing only after a [`seal`]
    /// assigns its retire epoch (an automatic seal triggers every
    /// [`set_seal_threshold`] retires). The address must have been
    /// unlinked — no *new* reference can be formed — before this call,
    /// and must be retired exactly once with its allocation length.
    ///
    /// Nothing here makes other clients drop cached pointers: retire
    /// this way only what a reader finds afresh under its guard (a
    /// record named by a tree item) or validates before use (a record
    /// hint). Memory clients *cache* pointers into goes through
    /// [`retire_restructure`](Self::retire_restructure).
    ///
    /// [`seal`]: ReclaimHandle::seal
    /// [`set_seal_threshold`]: ReclaimHandle::set_seal_threshold
    pub fn retire(&mut self, client: &mut FabricClient, addr: FarAddr, len: u64) -> Result<()> {
        self.retire_inner(client, addr, len, false)
    }

    /// [`retire`](Self::retire) for memory that clients cache pointers
    /// into — a structure's tables, bucket arrays, directory. The seal
    /// that covers it also bumps the restructure generation, so every
    /// client's next pin reports a new [`Guard::generation`] and its
    /// structures refresh those caches before the memory can be freed.
    /// The mark rides on the retire, not on the seal: an automatic seal
    /// halfway through a restructure covers what was retired so far, and
    /// the next seal the rest — both bump the generation.
    pub fn retire_restructure(
        &mut self,
        client: &mut FabricClient,
        addr: FarAddr,
        len: u64,
    ) -> Result<()> {
        self.retire_inner(client, addr, len, true)
    }

    fn retire_inner(
        &mut self,
        client: &mut FabricClient,
        addr: FarAddr,
        len: u64,
        restructure: bool,
    ) -> Result<()> {
        if self.released {
            return Err(ReclaimError::Released);
        }
        if addr.is_null() || len == 0 {
            return Err(ReclaimError::BadConfig("null or empty retire"));
        }
        self.pending.push((addr, len));
        self.pending_restructure |= restructure;
        self.stats.retired_entries += 1;
        // audit: stats-mut-ok: ReclaimStats bookkeeping; AccessStats moves via book_reclaim below
        self.stats.retired_bytes += len;
        client.book_reclaim(len, 0, 0);
        if self.pending.len() >= self.seal_threshold {
            self.seal(client)?;
        }
        Ok(())
    }

    /// Seals all pending retires: one FAA bumps the global epoch's seal
    /// count — and, if the batch holds a
    /// [`retire_restructure`](Self::retire_restructure), its restructure
    /// generation, in the same FAA — and the FAA's *pre-bump* seal count
    /// becomes their retire epoch. Any guard that could still reach a
    /// sealed address was pinned at or below that value (a pin observing
    /// the bumped epoch starts after the bump, which starts after every
    /// sealed address was unlinked — and a generation change makes that
    /// pin refresh its structure caches first). No-op when nothing is
    /// pending.
    pub fn seal(&mut self, client: &mut FabricClient) -> Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let bump = if self.pending_restructure { 1 + GEN_ONE } else { 1 };
        let prev = client.faa(self.registry.epoch_addr(), bump)? & EPOCH_MASK;
        for (addr, len) in self.pending.drain(..) {
            self.limbo.push_back(LimboEntry { addr, len, epoch: prev });
        }
        self.stats.seals += 1;
        if std::mem::take(&mut self.pending_restructure) {
            self.stats.restructures += 1;
        }
        Ok(())
    }

    /// Gives this client's slot back to the registry — one CAS to 0,
    /// then the epoch subscription is dropped — so a client that is done
    /// stops holding grace back without waiting out its lease. Refused
    /// ([`ReclaimError::InUse`]) while a guard is held or retires still
    /// await their free, pending or in limbo: nothing would free them
    /// afterwards (seal and [`reclaim`](Self::reclaim) first). A slot an
    /// evictor already took is left to its new owner. Afterwards the
    /// handle pins and retires nothing ([`ReclaimError::Released`]).
    pub fn release(&mut self, client: &mut FabricClient) -> Result<()> {
        if self.released {
            return Ok(());
        }
        if self.depth > 0 {
            return Err(ReclaimError::InUse("a guard is held"));
        }
        if !self.pending.is_empty() || !self.limbo.is_empty() {
            return Err(ReclaimError::InUse("retires still await their free"));
        }
        // The slot's word is the one last known to have landed: a publish
        // still pending never moved it.
        if self.resolve(client)? {
            client.cas(self.registry.slot_addr(self.slot_idx), self.slot_word, 0)?;
        }
        self.released = true;
        client.unsubscribe(self.epoch_sub)?;
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
        // pin would do (and lets a sole client reclaim immediately). The
        // CAS depends on this read, so it goes alone.
        if self.depth == 0 {
            if global > self.observed {
                self.adopt(w[0]);
            }
            if !self.resolve(client)? {
                self.reregister(client)?;
            }
            if let Some(publish) = self.due(client) {
                self.publish_alone(client, publish)?;
            }
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
            // slice of virtual time (its own time, never another clock) —
            // once a blocker it already watched is still unmoved. A slot
            // first seen lagging may only not have pinned since the
            // latest seal: it costs no wait yet.
            self.watch.retain(|i, _| blockers.iter().any(|&(b, _)| b == *i));
            let still = blockers.iter().any(|(i, w)| self.watch.get(i).is_some_and(|e| e.0 == *w));
            let slice = if still { self.backoff_ns } else { 0 };
            if still {
                client.advance_time(slice);
                self.backoff_ns = (self.backoff_ns * 2).min(WAIT_CAP_NS);
            }
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
            // audit: stats-mut-ok: ReclaimStats bookkeeping; AccessStats moves via book_reclaim below
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
    use farmem_fabric::{AccessStats, FabricConfig};

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

    /// Retires one fresh block through `s` and seals it.
    fn seal_one(s: &SharedReclaim, c: &mut FabricClient, a: &FarAlloc, restructure: bool) {
        let block = a.alloc(64, AllocHint::Spread).unwrap();
        let mut h = s.lock().unwrap();
        if restructure {
            h.retire_restructure(c, block, 64).unwrap();
        } else {
            h.retire(c, block, 64).unwrap();
        }
        h.seal(c).unwrap();
    }

    /// What one depth-0 pin books, whole.
    fn pin_books(s: &SharedReclaim, c: &mut FabricClient) -> AccessStats {
        let before = c.stats();
        drop(pin(s, c).unwrap());
        c.stats().since(&before)
    }

    /// The pin's price list: nothing in the steady state; after another
    /// client's seal, the slot CAS to the epoch the notification carried
    /// (one far access, no read); after a `Lost` warning, a read of the
    /// epoch word first.
    #[test]
    fn a_pin_costs_nothing_then_one_cas_then_a_read_and_a_cas_after_a_lost_event() {
        // One pending event per subscriber, uncoalesced: a second seal
        // before the drain overflows into a `Lost` warning.
        let f = FabricConfig {
            delivery: farmem_fabric::DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 1 },
            ..FabricConfig::count_only(16 << 20)
        }
        .build();
        let a = FarAlloc::new(f.clone());
        let (mut c1, mut c2) = (f.client(), f.client());
        let reg = ReclaimRegistry::create(&mut c1, &a, 4).unwrap();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        let cas = AccessStats { round_trips: 1, messages: 1, atomics: 1, ..AccessStats::new() };

        assert_eq!(pin_books(&s2, &mut c2), AccessStats::new(), "steady state");
        seal_one(&s1, &mut c1, &a, false);
        assert_eq!(pin_books(&s2, &mut c2), AccessStats { notifications: 1, ..cas }, "one seal");
        assert_eq!(s2.lock().unwrap().observed_epoch(), 2);
        assert_eq!(pin_books(&s2, &mut c2), AccessStats::new(), "caught up");

        seal_one(&s1, &mut c1, &a, false);
        seal_one(&s1, &mut c1, &a, false);
        let read =
            AccessStats { round_trips: 1, messages: 1, bytes_read: WORD, ..AccessStats::new() };
        let mut both = cas;
        both.merge(&read);
        let lost = AccessStats { notifications: 1, notifications_lost: 1, ..both };
        assert_eq!(pin_books(&s2, &mut c2), lost, "after a Lost warning");
        assert_eq!(s2.lock().unwrap().observed_epoch(), 4, "the read found the newest epoch");
    }

    /// A handle's epoch subscription lives on the client that attached
    /// it. Pinned through another client — as a serve worker shard is by
    /// every session but the one that attached it — a pin finds no event:
    /// it costs nothing and the slot stays behind, which only holds grace
    /// back. The slot then moves only in the handle's own `reclaim`, and
    /// only with limbo to free; an eviction meanwhile goes unnoticed by
    /// such pins, since eviction is found by the publish CAS.
    #[test]
    fn a_pin_through_another_client_sees_no_epoch_event() {
        let (f, a, reg) = setup();
        let (mut c0, mut c1, mut c2) = (f.client(), f.client(), f.client());
        let s0 = reg.attach(&mut c0, &a).unwrap();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        seal_one(&s0, &mut c0, &a, false);
        assert_eq!(pin_books(&s1, &mut c2), AccessStats::new(), "no event on c2");
        assert_eq!(s1.lock().unwrap().observed_epoch(), 1);
        assert_eq!(s1.lock().unwrap().reclaim(&mut c2).unwrap(), 0);
        assert_eq!(s1.lock().unwrap().observed_epoch(), 1, "empty limbo: no registry read");
        seal_one(&s1, &mut c2, &a, false);
        s1.lock().unwrap().reclaim(&mut c2).unwrap();
        assert_eq!(s1.lock().unwrap().observed_epoch(), 3, "its own pass publishes");

        // c0 out-waits the lagging slot and evicts it; c2's pins miss that.
        seal_one(&s0, &mut c0, &a, false);
        while s0.lock().unwrap().stats().evictions == 0 {
            s0.lock().unwrap().reclaim(&mut c0).unwrap();
        }
        assert_eq!(pin_books(&s1, &mut c2), AccessStats::new());
        assert_eq!(s1.lock().unwrap().stats().evicted, 0, "the eviction went unnoticed");
    }

    /// The generation moves exactly when a seal covered a restructure
    /// retire — also when the automatic seal fired halfway through the
    /// restructure's retires — and never on a seal of plain retires.
    #[test]
    fn the_generation_moves_only_past_a_restructure_seal() {
        let (f, a, reg) = setup();
        let (mut c1, mut c2) = (f.client(), f.client());
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        let generation = |c: &mut FabricClient| pin(&s2, c).unwrap().generation();
        let g0 = generation(&mut c2);

        seal_one(&s1, &mut c1, &a, false);
        assert_eq!(generation(&mut c2), g0, "a plain seal");

        // A restructure retiring three blocks under an automatic seal
        // every two: the auto seal covers the first two, the explicit one
        // the third, and both bump the generation.
        s1.lock().unwrap().set_seal_threshold(2);
        let blocks: Vec<FarAddr> = (0..3).map(|_| a.alloc(64, AllocHint::Spread).unwrap()).collect();
        let mut h1 = s1.lock().unwrap();
        h1.retire_restructure(&mut c1, blocks[0], 64).unwrap();
        h1.retire_restructure(&mut c1, blocks[1], 64).unwrap();
        assert_eq!(h1.stats().restructures, 1, "the automatic seal mid-restructure");
        drop(h1);
        let g1 = generation(&mut c2);
        assert_ne!(g1, g0, "seen past the automatic seal");
        let mut h1 = s1.lock().unwrap();
        h1.retire_restructure(&mut c1, blocks[2], 64).unwrap();
        h1.seal(&mut c1).unwrap();
        assert_eq!((h1.stats().seals, h1.stats().restructures), (3, 2));
        drop(h1);
        let g2 = generation(&mut c2);
        assert_ne!(g2, g1, "the rest of the restructure");

        seal_one(&s1, &mut c1, &a, false);
        assert_eq!(generation(&mut c2), g2, "a plain seal again");
        assert_eq!(s2.lock().unwrap().observed_epoch(), 5, "the epoch counts every seal");
    }

    /// An evicted client re-registers at its next pin and reports a new
    /// generation, restructure or not: grace ran without it.
    #[test]
    fn re_registration_moves_the_generation() {
        let (f, a, reg) = setup();
        let (mut c1, mut c2) = (f.client(), f.client());
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        let g0 = pin(&s2, &mut c2).unwrap().generation();
        seal_one(&s1, &mut c1, &a, false);
        while s1.lock().unwrap().reclaim(&mut c1).unwrap() == 0 {}
        assert_eq!(s1.lock().unwrap().stats().evictions, 1);
        let g = pin(&s2, &mut c2).unwrap();
        assert_eq!(s2.lock().unwrap().stats().evicted, 1);
        assert_ne!(g.generation(), g0);
    }

    /// The words of every registry slot.
    fn slots(c: &mut FabricClient, reg: &ReclaimRegistry) -> Vec<u64> {
        words(&c.read(reg.slot_addr(0), reg.n_slots * WORD).unwrap())
    }

    /// A deferred pin past a seal adopts the epoch at no far access and
    /// leaves its slot CAS to the operation, whose batch carries it. The
    /// publish landing books nothing beyond the batch's own message and
    /// atomic.
    #[test]
    fn a_deferred_pin_hands_its_cas_to_the_operation() {
        let (f, a, reg) = setup();
        let (mut c1, mut c2) = (f.client(), f.client());
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        seal_one(&s1, &mut c1, &a, false);
        let before = c2.stats();
        let mut g = pin_deferred(&s2, &mut c2).unwrap();
        let pinned = c2.stats().since(&before);
        assert_eq!((pinned.round_trips, pinned.notifications), (0, 1), "the pin defers its CAS");
        assert_eq!(g.epoch(), 2, "and adopts the epoch at once");
        let publish = g.take_publish().expect("the slot lags the adopted epoch");
        assert_eq!(g.take_publish(), None, "taken once");
        let idx = s2.lock().unwrap().slot_idx;
        let lag = slots(&mut c1, &reg)[idx as usize] & EPOCH_MASK;
        assert_eq!(lag, 1, "the slot lags until it lands");
        let block = a.alloc(64, AllocHint::Spread).unwrap();
        let out = c2.batch(&[publish.op(), BatchOp::Read { addr: block, len: 64 }]).unwrap();
        assert!(g.settle(&mut c2, publish, Some(out[0].value())).unwrap());
        drop(g);
        assert_eq!(slots(&mut c1, &reg)[idx as usize] & EPOCH_MASK, 2);
        let st = s2.lock().unwrap().stats();
        assert_eq!((st.publishes, st.carried, st.evicted), (1, 1, 0));
        assert_eq!(pin_books(&s2, &mut c2), AccessStats::new(), "caught up");
    }

    /// An evictor that takes the slot between a deferred pin and the
    /// operation's batch makes the carried CAS lose: the batch's answers
    /// go, the handle re-registers once at the current epoch — so the
    /// guard reports a new generation and no publish is due — and it
    /// holds one slot.
    #[test]
    fn a_carried_publish_that_loses_re_registers_once() {
        let (f, a, reg) = setup();
        let (mut c1, mut c2) = (f.client(), f.client());
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        seal_one(&s1, &mut c1, &a, false);
        let mut g = pin_deferred(&s2, &mut c2).unwrap();
        let (g0, idx) = (g.generation(), s2.lock().unwrap().slot_idx);
        let publish = g.take_publish().unwrap();
        let word = slots(&mut c1, &reg)[idx as usize];
        assert_eq!(c1.cas(reg.slot_addr(idx), word, 0).unwrap(), word, "the evictor's CAS");
        let answer = c2.batch(&[publish.op()]).unwrap()[0].value();
        assert!(!g.settle(&mut c2, publish, Some(answer)).unwrap(), "the batch's answers go");
        assert_ne!(g.generation(), g0);
        let h2 = s2.lock().unwrap();
        assert_eq!((h2.stats().evicted, h2.stats().publishes), (1, 1));
        assert_eq!(g.epoch(), h2.observed_epoch());
        assert_ne!(h2.slot_word, word, "claimed afresh, here the slot the evictor freed");
        drop(h2);
        drop(g);
        let live = slots(&mut c1, &reg).iter().filter(|&&w| w != 0).count();
        assert_eq!(live, 2, "one slot per handle");
        assert_eq!(pin_books(&s2, &mut c2), AccessStats::new(), "claimed current");
        assert_eq!(s2.lock().unwrap().stats().evicted, 1, "re-registered once");
    }

    /// A batch that fails leaves its publish's outcome unknown. The next
    /// pin reads the slot once, before any publish, and adopts what it
    /// finds: the word the CAS tried if it ran — nothing left to publish —
    /// or the old one, which it then publishes. No second slot is claimed.
    #[test]
    fn an_unknown_publish_is_read_back_once_and_claims_no_second_slot() {
        let read =
            AccessStats { round_trips: 1, messages: 1, bytes_read: WORD, ..AccessStats::new() };
        let cas = AccessStats { round_trips: 1, messages: 1, atomics: 1, ..AccessStats::new() };
        for ran in [true, false] {
            let (f, a, reg) = setup();
            let (mut c1, mut c2) = (f.client(), f.client());
            let s1 = reg.attach(&mut c1, &a).unwrap();
            let s2 = reg.attach(&mut c2, &a).unwrap();
            seal_one(&s1, &mut c1, &a, false);
            let mut g = pin_deferred(&s2, &mut c2).unwrap();
            let publish = g.take_publish().unwrap();
            if ran {
                c2.batch(&[publish.op()]).unwrap();
            }
            assert!(g.settle(&mut c2, publish, None).unwrap(), "the failure is the caller's");
            drop(g);
            let mut want = read;
            if !ran {
                want.merge(&cas);
            }
            assert_eq!(pin_books(&s2, &mut c2), want, "ran: {ran}");
            assert_eq!(pin_books(&s2, &mut c2), AccessStats::new(), "read once, ran: {ran}");
            let idx = s2.lock().unwrap().slot_idx;
            let w = slots(&mut c1, &reg);
            assert_eq!(w.iter().filter(|&&w| w != 0).count(), 2, "no second slot, ran: {ran}");
            assert_eq!(w[idx as usize] & EPOCH_MASK, 2);
            assert_eq!(s2.lock().unwrap().stats().evicted, 0);
        }
    }

    /// `release` gives back the slot the handle holds: with a publish
    /// pending, the word that last landed — not the one the publish would
    /// install; after a publish of unknown outcome, whichever the read
    /// finds.
    #[test]
    fn release_with_a_publish_pending_frees_the_slot_it_holds() {
        for unknown in [false, true] {
            let (f, a, reg) = setup();
            let (mut c1, mut c2) = (f.client(), f.client());
            let s1 = reg.attach(&mut c1, &a).unwrap();
            let s2 = reg.attach(&mut c2, &a).unwrap();
            seal_one(&s1, &mut c1, &a, false);
            let mut g = pin_deferred(&s2, &mut c2).unwrap();
            let publish = g.take_publish().unwrap();
            if unknown {
                c2.batch(&[publish.op()]).unwrap();
                g.settle(&mut c2, publish, None).unwrap();
            }
            drop(g);
            let idx = s2.lock().unwrap().slot_idx;
            s2.lock().unwrap().release(&mut c2).unwrap();
            assert_eq!(slots(&mut c1, &reg)[idx as usize], 0, "unknown: {unknown}");
        }
    }

    /// `release` gives the slot back — a later registrant reuses it — and
    /// refuses while the handle still pins or owes frees.
    #[test]
    fn release_frees_the_slot_and_refuses_while_in_use() {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = ReclaimRegistry::create(&mut c, &a, 1).unwrap();
        let s = reg.attach(&mut c, &a).unwrap();
        let g = pin(&s, &mut c).unwrap();
        assert!(matches!(s.lock().unwrap().release(&mut c), Err(ReclaimError::InUse(_))));
        drop(g);
        let block = a.alloc(64, AllocHint::Spread).unwrap();
        s.lock().unwrap().retire(&mut c, block, 64).unwrap();
        assert!(matches!(s.lock().unwrap().release(&mut c), Err(ReclaimError::InUse(_))));
        assert_eq!(s.lock().unwrap().reclaim(&mut c).unwrap(), 64);

        let before = c.stats();
        s.lock().unwrap().release(&mut c).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 2, "slot CAS + unsubscribe");
        assert!(matches!(pin(&s, &mut c), Err(ReclaimError::Released)));
        let again = reg.attach(&mut c, &a).expect("the one slot is free again");
        drop(pin(&again, &mut c).unwrap());
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
