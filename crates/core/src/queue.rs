//! Far queues (§5.3).
//!
//! A queue is a large array in far memory plus *far pointers* for head and
//! tail. The fast path uses the indirect atomics of Fig. 1 so that each
//! operation both moves a pointer and transfers the item **atomically, in
//! one far access**, with no locks:
//!
//! * enqueue: `saai(tail, +8, item)` — store at the old tail, advance it;
//! * dequeue: `faai(head, +8)` — read the old head's item, advance it.
//!
//! Corner cases (wrap-around of the pointers, and an empty or nearly empty
//! queue) trigger a *slow path* with additional far accesses. Clients
//! detect them **without adding far accesses to the fast path**:
//!
//! * a *physical slack region* of `n + 1` extra slots past the array
//!   (where `n` bounds the number of clients) absorbs operations that run
//!   past the end; clients notice *after* the operation completes, from
//!   the old pointer value their `saai`/`faai` completion already carries,
//!   and then run the wrap repair;
//! * a *logical slack* keeps head and tail `2n` positions apart: each
//!   client tracks free local estimates of the opposing pointer (updated
//!   by its own completions) and refreshes them only when the estimate
//!   enters the danger zone.
//!
//! The paper omits the slow-path details "due to space constraints"; the
//! design here is our completion of it (documented in DESIGN.md). Every
//! fast-path atomic is *guarded* on an epoch word, which every client
//! watches via `notify0`, so checking it is a *local* operation. A dequeue
//! consumes its slot with the *swap* variant of `faai`: reading the item
//! and zeroing the slot are one verb, so a non-empty slot is always an
//! item nobody took. The repair has one rule: the client that moves the
//! epoch from even to odd owns it, and no fast path lands until it is even
//! again. An op that landed in the slack takes it with a checked CAS; a
//! claim that found its slot empty takes it in its own atomic unit, so no
//! enqueue fills the slot the claim passed. The owner reads the slot
//! region and, in one fenced batch, packs every non-empty slot at the
//! start of the array, rebases head and tail, and publishes the next even
//! epoch.
//!
//! Dequeues have one body: [`QueueHandle::dequeue`] is
//! [`QueueHandle::dequeue_batch`] of one item, over an
//! [`Inline`] doorbell, so a single claim and a batch of claims cannot
//! differ in what they book or how they repair.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{BatchOp, DescList, Event, FabricClient, FarAddr, SubId, WORD};
use farmem_runtime::{Doorbell, Inline};

use crate::error::{CoreError, Result};

/// Header word offsets. Word 48 is reserved and stays zero.
const OFF_HEAD: u64 = 0;
const OFF_TAIL: u64 = 8;
const OFF_SLOTS: u64 = 16;
const OFF_NSLOTS: u64 = 24;
const OFF_SLACK: u64 = 32;
const OFF_NCLIENTS: u64 = 40;
const OFF_EPOCH: u64 = 56;
const HDR_LEN: u64 = 64;

/// An empty slot. Values are stored as `v + 1` so real items are nonzero.
const EMPTY: u64 = 0;

/// Construction parameters for a far queue.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Capacity of the array proper, in slots. Must be at least
    /// `4 * max_clients + 4` so the logical slack fits.
    pub n_slots: u64,
    /// Bound `n` on the number of concurrently operating clients; sizes
    /// the physical slack (`n + 1`) and the logical slack (`2n`).
    pub max_clients: u64,
}

impl QueueConfig {
    /// A queue of `n_slots` slots for up to `max_clients` clients.
    pub fn new(n_slots: u64, max_clients: u64) -> QueueConfig {
        QueueConfig { n_slots, max_clients }
    }
}

/// Per-handle operation counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Fast-path enqueues (exactly one far access each).
    pub enq_fast: u64,
    /// Fast-path dequeues (one far access; the swap clears the slot).
    pub deq_fast: u64,
    /// Opposing-pointer refreshes (one extra far access, near-full/empty).
    pub est_refreshes: u64,
    /// Repairs (wrap or empty recovery) this handle rebuilt the queue
    /// for.
    pub repairs: u64,
    /// Claims of this handle that found their slot empty; each one took
    /// and ran a repair.
    pub empty_recoveries: u64,
    /// Operations rejected as full.
    pub full_hits: u64,
    /// Operations rejected as empty.
    pub empty_hits: u64,
}

/// A multi-producer multi-consumer queue in far memory (§5.3).
///
/// The descriptor is cheap to copy; per-client state lives in the
/// [`QueueHandle`] returned by [`FarQueue::attach`].
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::FarAlloc;
/// use farmem_core::{FarQueue, QueueConfig};
///
/// let fabric = FabricConfig::single_node(4 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut producer = fabric.client();
/// let mut consumer = fabric.client();
/// let q = FarQueue::create(&mut producer, &alloc, QueueConfig::new(256, 4)).unwrap();
/// let mut hp = FarQueue::attach(&mut producer, q.hdr()).unwrap();
/// let mut hc = FarQueue::attach(&mut consumer, q.hdr()).unwrap();
/// hp.enqueue(&mut producer, 42).unwrap(); // ONE far access (saai)
/// assert_eq!(hc.dequeue(&mut consumer).unwrap(), 42); // ONE far access (faai_swap)
/// ```
#[derive(Clone, Copy, Debug)]
pub struct FarQueue {
    hdr: FarAddr,
    slots_base: FarAddr,
    n_slots: u64,
    slack_slots: u64,
    max_clients: u64,
}

impl FarQueue {
    /// Allocates and initializes a queue. A handful of far accesses.
    pub fn create(client: &mut FabricClient, alloc: &FarAlloc, cfg: QueueConfig) -> Result<FarQueue> {
        if cfg.max_clients == 0 {
            return Err(CoreError::BadConfig("max_clients must be positive"));
        }
        if cfg.n_slots < 4 * cfg.max_clients + 4 {
            return Err(CoreError::BadConfig(
                "n_slots must be at least 4 * max_clients + 4",
            ));
        }
        let slack_slots = cfg.max_clients + 1;
        let hdr = alloc.alloc(HDR_LEN, AllocHint::Spread)?;
        // The slots must share the header's node: a guarded saai/faai is
        // one atomic unit at its pointer's node and refuses any other
        // target, and the whole slow-path correctness argument rests on
        // that unit (also §7.1's advice: localized placement where
        // indirect addressing is common).
        let slots_base =
            alloc.alloc((cfg.n_slots + slack_slots) * WORD, AllocHint::Colocate(hdr))?;
        let one_node = client
            .fabric()
            .map()
            .segments(slots_base, (cfg.n_slots + slack_slots) * WORD)
            .map(|mut segs| {
                let hdr_node = client.fabric().map().node_of(hdr);
                segs.all(|s| s.node == hdr_node)
            })
            .unwrap_or(false);
        if !one_node {
            return Err(CoreError::BadConfig(
                "queue slots must be node-local with the header; use blocked \
                 striping, or a stripe size at least as large as the slot region",
            ));
        }
        let zeros = vec![0u8; ((cfg.n_slots + slack_slots) * WORD) as usize];
        let mut hdr_bytes = Vec::with_capacity(HDR_LEN as usize);
        for w in [
            slots_base.0,     // head
            slots_base.0,     // tail
            slots_base.0,     // slots base
            cfg.n_slots,      // n_slots
            slack_slots,      // slack
            cfg.max_clients,  // n
            0,                // reserved
            0,                // epoch (even: normal)
        ] {
            hdr_bytes.extend_from_slice(&w.to_le_bytes());
        }
        client.batch(&[
            BatchOp::Write { addr: slots_base, data: &zeros },
            BatchOp::Write { addr: hdr, data: &hdr_bytes },
        ])?;
        Ok(FarQueue {
            hdr,
            slots_base,
            n_slots: cfg.n_slots,
            slack_slots,
            max_clients: cfg.max_clients,
        })
    }

    /// Header address (for sharing).
    pub fn hdr(&self) -> FarAddr {
        self.hdr
    }

    /// Retires the queue's far memory — the slot array (including the
    /// physical slack region) and the header — into `reclaim`'s limbo
    /// list as a restructure (every handle caches pointers into both),
    /// and seals an epoch so a grace period can free it. The caller
    /// asserts no *new* operations will start (all handles detached or
    /// abandoned). The queue's own verbs do not pin epochs; clients that
    /// may race a retire must wrap their queue operations in
    /// `farmem_reclaim::pin` guards, which is what keeps a straggler
    /// mid-operation safe until the grace period elapses.
    pub fn retire(
        self,
        client: &mut FabricClient,
        reclaim: &farmem_reclaim::SharedReclaim,
    ) -> Result<()> {
        let mut r = reclaim.lock().unwrap();
        // lint: retire-ok: structure teardown; the doc contract above requires concurrent clients to hold pin guards.
        r.retire_restructure(client, self.slots_base, (self.n_slots + self.slack_slots) * WORD)?;
        r.retire_restructure(client, self.hdr, HDR_LEN)?;
        r.seal(client)?;
        Ok(())
    }

    /// Attaches a client, reading the descriptor from far memory (one far
    /// access) and subscribing to the repair-epoch word so future epoch
    /// checks are local. Attached during a repair (an odd epoch), the
    /// handle's first operation waits for the even epoch: an op guarded on
    /// the odd one would pass while the repair rewrites the slots.
    pub fn attach(client: &mut FabricClient, hdr: FarAddr) -> Result<QueueHandle> {
        let mut bytes = [0u8; HDR_LEN as usize];
        client.read_into(hdr, &mut bytes)?;
        let w = |off: u64| crate::word_at(&bytes, off);
        let q = FarQueue {
            hdr,
            slots_base: FarAddr(w(OFF_SLOTS)),
            n_slots: w(OFF_NSLOTS),
            slack_slots: w(OFF_SLACK),
            max_clients: w(OFF_NCLIENTS),
        };
        if q.slots_base.is_null() || q.n_slots == 0 {
            return Err(CoreError::Corrupted("queue header is not initialized"));
        }
        let epoch_sub = client.notify0(hdr.offset(OFF_EPOCH), WORD)?;
        Ok(QueueHandle {
            q,
            head_est: w(OFF_HEAD),
            tail_est: w(OFF_TAIL),
            epoch_sub,
            epoch_val: w(OFF_EPOCH),
            epoch_pending: w(OFF_EPOCH) % 2 == 1,
            stats: QueueStats::default(),
        })
    }

    #[inline]
    fn slack_base(&self) -> u64 {
        self.slots_base.0 + self.n_slots * WORD
    }

    #[inline]
    fn region_end(&self) -> u64 {
        self.slack_base() + self.slack_slots * WORD
    }

    /// Usable logical capacity in bytes (keeps head and tail `2n` apart).
    #[inline]
    fn usable_bytes(&self) -> u64 {
        (self.n_slots - 2 * self.max_clients) * WORD
    }
}

/// A client's handle on a [`FarQueue`]: local pointer estimates, the epoch
/// subscription, and per-client statistics.
pub struct QueueHandle {
    q: FarQueue,
    head_est: u64,
    tail_est: u64,
    epoch_sub: SubId,
    /// Last known (even) repair epoch; every fast-path atomic is *guarded*
    /// on this value, so an op can never slip past an in-progress repair.
    epoch_val: u64,
    epoch_pending: bool,
    stats: QueueStats,
}

impl QueueHandle {
    /// The queue descriptor.
    pub fn queue(&self) -> &FarQueue {
        &self.q
    }

    /// Per-handle counters.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Drains notifications; if a repair epoch change is pending, waits for
    /// the repair to finish and refreshes the pointer estimates.
    fn sync(&mut self, client: &mut FabricClient) -> Result<()> {
        if self.epoch_moved(client) {
            self.epoch_pending = false;
            self.wait_epoch_even_and_refresh(client)?;
        }
        Ok(())
    }

    /// Drains this handle's epoch events (a local operation): true when a
    /// repair may have moved the pointers since the estimates were read. A
    /// repair's epoch event is delivered before anything it rewrites can
    /// be read, so an estimate read after a `false` here is of the
    /// estimates' own epoch.
    fn epoch_moved(&mut self, client: &mut FabricClient) -> bool {
        let mine = self.epoch_sub;
        let events =
            client.take_events(|e| e.sub() == Some(mine) || matches!(e, Event::Lost { .. }));
        self.epoch_pending |= !events.is_empty();
        self.epoch_pending
    }

    /// Waits until the epoch is even (no repair in progress), then reloads
    /// head/tail estimates.
    fn wait_epoch_even_and_refresh(&mut self, client: &mut FabricClient) -> Result<()> {
        for _ in 0..1_000_000u32 {
            let (epoch, head, tail) = self.read_state(client)?;
            if epoch % 2 == 0 {
                self.adopt(epoch, head, tail);
                return Ok(());
            }
            // Repair in progress: park briefly on the notification queue
            // (the closing epoch bump will notify us).
            client.sink().wait_pending(std::time::Duration::from_millis(5));
            let mine = self.epoch_sub;
            let _ = client.take_events(|e| e.sub() == Some(mine));
        }
        Err(CoreError::Contended)
    }

    /// One fenced batch reading the epoch, then head and tail: `(epoch,
    /// head, tail)`. The epoch is read first, so the pointers are never
    /// older than it: an op guarded on that epoch bounces if a repair
    /// moved them since.
    fn read_state(&self, client: &mut FabricClient) -> Result<(u64, u64, u64)> {
        let out = client.batch(&[
            BatchOp::Read { addr: self.q.hdr.offset(OFF_EPOCH), len: WORD },
            BatchOp::Read { addr: self.q.hdr.offset(OFF_HEAD), len: 2 * WORD },
        ])?;
        let ht = out[1].bytes();
        Ok((crate::word_at(out[0].bytes(), 0), crate::word_at(ht, 0), crate::word_at(ht, WORD)))
    }

    fn adopt(&mut self, epoch: u64, head: u64, tail: u64) {
        self.epoch_val = epoch;
        self.head_est = head;
        self.tail_est = tail;
    }

    /// Enqueues `value`. Fast path: **one far access** (`saai`).
    ///
    /// Returns [`CoreError::QueueFull`] when the queue has no safe room
    /// (confirmed against a fresh head), and [`CoreError::ValueOutOfRange`]
    /// for `u64::MAX`, which cannot be encoded.
    pub fn enqueue(&mut self, client: &mut FabricClient, value: u64) -> Result<()> {
        let _span = client.span("queue.enqueue");
        if value == u64::MAX {
            return Err(CoreError::ValueOutOfRange);
        }
        for _ in 0..64 {
            match self.enqueue_once(client, value) {
                Err(CoreError::Contended) => continue,
                other => return other,
            }
        }
        Err(CoreError::Contended)
    }

    fn enqueue_once(&mut self, client: &mut FabricClient, value: u64) -> Result<()> {
        self.sync(client)?;
        // Estimates from different repair epochs can be mutually
        // inconsistent (a repair rebases both pointers); resync and let
        // the outer loop retry.
        if self.head_est > self.tail_est {
            self.wait_epoch_even_and_refresh(client)?;
            return Err(CoreError::Contended);
        }
        // Logical-slack check — purely local in the common case.
        let danger = self.q.usable_bytes() - self.q.max_clients * WORD;
        if (self.tail_est + WORD).saturating_sub(self.head_est) > danger {
            self.head_est = client.read_u64(self.q.hdr.offset(OFF_HEAD))?;
            self.stats.est_refreshes += 1;
            if (self.tail_est + WORD).saturating_sub(self.head_est) > self.q.usable_bytes() {
                self.stats.full_hits += 1;
                return Err(CoreError::QueueFull);
            }
        }
        // One far access, guarded on the repair epoch: during a repair the
        // fabric rejects the op atomically instead of corrupting state.
        let old_tail = match client.saai_guarded(
            self.q.hdr.offset(OFF_TAIL),
            WORD,
            &(value + 1).to_le_bytes(),
            self.q.hdr.offset(OFF_EPOCH),
            self.epoch_val,
        ) {
            Ok(t) => t,
            Err(farmem_fabric::FabricError::GuardMismatch { .. }) => {
                // A repair is (or was) in flight: re-sync, then let the
                // bounded outer loop retry.
                self.wait_epoch_even_and_refresh(client)?;
                return Err(CoreError::Contended);
            }
            Err(e) => return Err(e.into()),
        };
        if old_tail >= self.q.region_end() {
            return Err(CoreError::Corrupted("tail pointer escaped the slack region"));
        }
        self.tail_est = old_tail + WORD;
        self.stats.enq_fast += 1;
        // Background slack check from the completion's old pointer value.
        // The item has landed, so a failed repair is not this op's error
        // (a producer retrying it would enqueue the item twice); the next
        // op that lands in the slack repairs again.
        if old_tail >= self.q.slack_base() {
            let _ = self.repair(client);
        }
        Ok(())
    }

    /// Dequeues one value. Fast path: **one far access** (`faai_swap`,
    /// which clears the consumed slot in the same verb).
    ///
    /// Returns [`CoreError::QueueEmpty`] when no item is available.
    ///
    /// [`dequeue_batch`](Self::dequeue_batch) of one: the same body over
    /// an [`Inline`] doorbell, its claim a doorbell of depth one.
    pub fn dequeue(&mut self, client: &mut FabricClient) -> Result<u64> {
        let _span = client.span("queue.dequeue");
        let bell = Inline::new(client);
        Ok(Inline::run(self.dequeue_up_to(&bell, 1))?[0])
    }

    /// Dequeues up to `max` values through **one pipeline doorbell**.
    ///
    /// Each descriptor is one guarded `faai_swap` — one atomic
    /// claim-and-clear per item — so exactly-once delivery is preserved
    /// descriptor by descriptor; the doorbell only overlaps their round
    /// trips in virtual time (the far accesses booked are identical to
    /// `max` single dequeues).
    ///
    /// Returns the dequeued values in queue order; fewer than `max` when
    /// the queue drains first, [`CoreError::QueueEmpty`] when nothing was
    /// available. Values already claimed are returned even when a later
    /// descriptor fails (they are consumed; dropping them would lose
    /// items) — the failure resurfaces on the next call.
    ///
    /// The blocking form of
    /// [`dequeue_batch_async`](Self::dequeue_batch_async): the same body
    /// over an [`Inline`] doorbell, which never parks.
    pub fn dequeue_batch(&mut self, client: &mut FabricClient, max: usize) -> Result<Vec<u64>> {
        let bell = Inline::new(client);
        Inline::run(self.dequeue_batch_async(&bell, max))
    }

    /// [`dequeue_batch`](Self::dequeue_batch) over any [`Doorbell`]: given
    /// an [`AsyncClient`](farmem_runtime::AsyncClient) the guarded
    /// `faai_swap` claims *suspend* at their doorbell, so an executor can
    /// interleave thousands of consumers on one OS thread.
    pub async fn dequeue_batch_async<D: Doorbell>(
        &mut self,
        ac: &D,
        max: usize,
    ) -> Result<Vec<u64>> {
        let _span = ac.span("queue.dequeue_batch");
        self.dequeue_up_to(ac, max).await
    }

    /// The one dequeue body, behind [`dequeue`](Self::dequeue) and every
    /// form of [`dequeue_batch`](Self::dequeue_batch): up to `max` claims
    /// through one doorbell. One body, so exactly-once delivery and the far
    /// accesses booked cannot differ between a single and a batched, a
    /// blocking and a suspending caller; contended retries
    /// [`yield_now`](Doorbell::yield_now) (no fabric access, no clock
    /// movement; a no-op inline), letting earlier-clocked peers fire
    /// first.
    async fn dequeue_up_to<D: Doorbell>(&mut self, ac: &D, max: usize) -> Result<Vec<u64>> {
        if max == 0 {
            return Ok(Vec::new());
        }
        for _ in 0..64 {
            match self.dequeue_batch_once(ac, max).await {
                Err(CoreError::Contended) => ac.yield_now().await,
                other => return other,
            }
        }
        Err(CoreError::Contended)
    }

    async fn dequeue_batch_once<D: Doorbell>(&mut self, ac: &D, max: usize) -> Result<Vec<u64>> {
        // lint: block-ok — local event drain (epoch notifications).
        ac.with(|client| self.sync(client))?;
        if self.head_est > self.tail_est {
            // lint: block-ok — rare odd-epoch wait.
            ac.with(|client| self.wait_epoch_even_and_refresh(client))?;
            return Err(CoreError::Contended);
        }
        // Refresh the tail estimate unless the locally confirmed gap
        // already covers the whole batch plus the 2n danger zone.
        let needed = max as u64 * WORD + 2 * self.q.max_clients * WORD;
        if self.tail_est < self.head_est + needed {
            // The one steady-state serial far access: a doorbell of its
            // own, charged as the blocking `read_u64`.
            self.tail_est = ac.read_u64(self.q.hdr.offset(OFF_TAIL)).await?;
            self.stats.est_refreshes += 1;
        }
        let avail = self.tail_est.saturating_sub(self.head_est) / WORD;
        if avail == 0 {
            // lint: block-ok — local event drain: empty, unless a repair
            // rebased the tail since `sync`.
            if ac.with(|client| self.epoch_moved(client)) {
                return Err(CoreError::Contended);
            }
            self.stats.empty_hits += 1;
            return Err(CoreError::QueueEmpty);
        }
        let k = avail.min(max as u64) as usize;
        // Each claim is the swap variant: it consumes (zeroes) its slot in
        // the same verb, so the queue never holds a claimed-but-unzeroed
        // slot that a repair scan could mistake for a live item.
        let mut claims = DescList::new();
        for _ in 0..k {
            claims.faai_swap_guarded(
                self.q.hdr.offset(OFF_HEAD),
                WORD,
                EMPTY,
                self.q.hdr.offset(OFF_EPOCH),
                self.epoch_val,
            );
        }
        let mut cq = ac.ring(claims).await;
        let mut values = Vec::with_capacity(k);
        let mut in_slack = false;
        let mut closed = false;
        let mut guard_bounced = false;
        let mut hard_err: Option<CoreError> = None;
        for i in 0..k {
            match cq.take(i) {
                Some(Ok(out)) => {
                    let (old_head, raw) = out.ptr_word();
                    if old_head >= self.q.region_end() {
                        hard_err =
                            Some(CoreError::Corrupted("head pointer escaped the slack region"));
                        break;
                    }
                    self.head_est = old_head + WORD;
                    if raw == EMPTY {
                        // Claimed past the tail on stale estimates: the
                        // claim closed the epoch (the later claims bounce)
                        // and the rebuild below reopens it.
                        self.stats.empty_recoveries += 1;
                        closed = true;
                    } else {
                        self.stats.deq_fast += 1;
                        values.push(raw - 1);
                        in_slack |= old_head >= self.q.slack_base();
                    }
                }
                Some(Err(farmem_fabric::FabricError::GuardMismatch { .. })) => {
                    guard_bounced = true;
                    break;
                }
                Some(Err(e)) => {
                    hard_err = Some(e.into());
                    break;
                }
                // Aborted tail: those descriptors never executed.
                None => break,
            }
        }
        if closed || in_slack {
            // lint: block-ok — rare slow-path repair.
            let repaired =
                ac.with(|client| if closed { self.rebuild(client) } else { self.repair(client) });
            // Claimed items are returned: a repair error in their place
            // would lose them.
            if let Err(e) = repaired {
                if values.is_empty() {
                    return Err(e);
                }
            }
        }
        if guard_bounced {
            // lint: block-ok — rare epoch bounce.
            if let Err(e) = ac.with(|client| self.wait_epoch_even_and_refresh(client)) {
                if values.is_empty() {
                    return Err(e);
                }
            }
            if values.is_empty() {
                return Err(CoreError::Contended);
            }
        }
        if let Some(e) = hard_err {
            if values.is_empty() {
                return Err(e);
            }
        }
        if values.is_empty() {
            self.stats.empty_hits += 1;
            return Err(CoreError::QueueEmpty);
        }
        Ok(values)
    }

    /// Enqueues, retrying on [`CoreError::QueueFull`] after waiting for a
    /// head-pointer change notification. `max_retries` bounds the wait.
    pub fn enqueue_wait(
        &mut self,
        client: &mut FabricClient,
        value: u64,
        max_retries: u32,
    ) -> Result<()> {
        let mut sub = None;
        let mut result = Err(CoreError::QueueFull);
        for _ in 0..max_retries.max(1) {
            // audit: rt-in-loop-ok: retry-until-notified — one attempt per
            // wait cycle, bounded by max_retries; notify0 subscribes once.
            match self.enqueue(client, value) {
                Err(CoreError::QueueFull) => {
                    if sub.is_none() {
                        sub = Some(client.notify0(self.q.hdr.offset(OFF_HEAD), WORD)?);
                    }
                    client.sink().wait_pending(std::time::Duration::from_millis(5));
                    let _ = client.take_events(|e| e.sub() == sub);
                }
                other => {
                    result = other;
                    break;
                }
            }
        }
        if let Some(s) = sub {
            client.unsubscribe(s)?;
        }
        result
    }

    /// Dequeues, retrying on [`CoreError::QueueEmpty`] after waiting for a
    /// tail-pointer change notification. `max_retries` bounds the wait.
    pub fn dequeue_wait(&mut self, client: &mut FabricClient, max_retries: u32) -> Result<u64> {
        let _span = client.span("queue.dequeue_wait");
        let mut sub = None;
        let mut result = Err(CoreError::QueueEmpty);
        for _ in 0..max_retries.max(1) {
            // audit: rt-in-loop-ok: retry-until-notified — one attempt per
            // wait cycle, bounded by max_retries; notify0 subscribes once.
            match self.dequeue(client) {
                Err(CoreError::QueueEmpty) => {
                    if sub.is_none() {
                        sub = Some(client.notify0(self.q.hdr.offset(OFF_TAIL), WORD)?);
                    }
                    client.sink().wait_pending(std::time::Duration::from_millis(5));
                    let _ = client.take_events(|e| e.sub() == sub);
                }
                other => {
                    result = other;
                    break;
                }
            }
        }
        if let Some(s) = sub {
            client.unsubscribe(s)?;
        }
        result
    }

    /// The wrap repair, run by an op that landed in the slack:
    ///
    /// 1. **Check.** One fenced read of the epoch, then head and tail. If
    ///    the epoch is even, `head <= tail` and tail is below the slack,
    ///    adopt what was read and return.
    /// 2. **Take the repair.** CAS the epoch from the even value just read
    ///    to odd. Every repair moves the epoch by two, so a won CAS also
    ///    proves the check is still current; a lost one means another
    ///    client repaired, so check again.
    /// 3. and 4. [`rebuild`](Self::rebuild).
    fn repair(&mut self, client: &mut FabricClient) -> Result<()> {
        let epoch_word = self.q.hdr.offset(OFF_EPOCH);
        for _ in 0..64 {
            let (epoch, head, tail) = self.read_state(client)?;
            if epoch % 2 == 1 {
                self.wait_epoch_even_and_refresh(client)?;
                continue;
            }
            if head <= tail && tail < self.q.slack_base() {
                self.adopt(epoch, head, tail);
                return Ok(());
            }
            // audit: rt-in-loop-ok: a lost CAS means another client's
            // repair moved the epoch, so every pass makes progress.
            if client.cas(epoch_word, epoch, epoch + 1)? == epoch {
                self.epoch_val = epoch;
                return self.rebuild(client);
            }
        }
        Err(CoreError::Contended)
    }

    /// The rest of a repair, run by the client that moved the epoch from
    /// `epoch_val` to odd: with [`repair`](Self::repair)'s CAS, or with a
    /// claim that found its slot empty (a guarded `faai_swap` that takes
    /// nothing closes the guard in its own atomic unit, so no enqueue
    /// lands in the slot the claim passed):
    ///
    /// 3. **Read** the slot region.
    /// 4. **Rebuild**, in one fenced batch: every non-empty slot, in slot
    ///    order, at the start of the array (zeros after it); head and tail;
    ///    the next even epoch.
    ///
    /// The node checks a guarded op's epoch under the same lock as the
    /// move to odd: no fast-path op lands after it, and every op that
    /// landed before it landed whole. A dequeue empties its slot in its own
    /// swap, so every non-empty slot is an item nobody took, and slot order
    /// is enqueue order. A repairer that dies before step 4, or whose
    /// verbs fail there, leaves the epoch odd and wedges the queue.
    fn rebuild(&mut self, client: &mut FabricClient) -> Result<()> {
        self.stats.repairs += 1;
        let region_len = (self.q.n_slots + self.q.slack_slots) * WORD;
        let region = client.read(self.q.slots_base, region_len)?;
        let mut packed = Vec::with_capacity(region.len());
        for slot in region.chunks_exact(WORD as usize) {
            if crate::word_at(slot, 0) != EMPTY {
                packed.extend_from_slice(slot);
            }
        }
        let head = self.q.slots_base.0;
        let tail = head + packed.len() as u64;
        packed.resize(region.len(), 0);
        let pointers: Vec<u8> = [head, tail].iter().flat_map(|w| w.to_le_bytes()).collect();
        let epoch = self.epoch_val + 2;
        client.batch(&[
            BatchOp::Write { addr: self.q.slots_base, data: &packed },
            BatchOp::Write { addr: self.q.hdr.offset(OFF_HEAD), data: &pointers },
            BatchOp::Write { addr: self.q.hdr.offset(OFF_EPOCH), data: &epoch.to_le_bytes() },
        ])?;
        // The epoch events of this repair stay queued: dropping them could
        // drop those of a repair that ran since the write, and an estimate
        // no epoch event vouches for must not decide "full" or "empty". The
        // next op pays one state read for them.
        self.adopt(epoch, head, tail);
        Ok(())
    }

    /// Detaches, cancelling the epoch subscription.
    pub fn detach(self, client: &mut FabricClient) -> Result<()> {
        client.unsubscribe(self.epoch_sub)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;
    use std::sync::Arc;

    fn setup(n_slots: u64, max_clients: u64) -> (Arc<farmem_fabric::Fabric>, FarQueue) {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let q = FarQueue::create(&mut c, &a, QueueConfig::new(n_slots, max_clients)).unwrap();
        (f, q)
    }

    #[test]
    fn retire_returns_the_queue_memory_after_a_grace_period() {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let live_before = a.stats().live_bytes;
        let q = FarQueue::create(&mut c, &a, QueueConfig::new(64, 2)).unwrap();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        for v in 0..20u64 {
            h.enqueue(&mut c, v).unwrap();
        }
        for _ in 0..20u64 {
            h.dequeue(&mut c).unwrap();
        }
        assert!(a.stats().live_bytes > live_before);
        h.detach(&mut c).unwrap();
        q.retire(&mut c, &shared).unwrap();
        let mut r = shared.lock().unwrap();
        r.reclaim(&mut c).unwrap();
        assert_eq!(
            a.stats().live_bytes,
            live_before,
            "slots and header returned to the allocator"
        );
    }

    #[test]
    fn fifo_order_single_client() {
        let (f, q) = setup(64, 2);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        for v in 0..20u64 {
            h.enqueue(&mut c, v * 7).unwrap();
        }
        for v in 0..20u64 {
            assert_eq!(h.dequeue(&mut c).unwrap(), v * 7);
        }
        assert!(matches!(h.dequeue(&mut c), Err(CoreError::QueueEmpty)));
    }

    #[test]
    fn fast_path_is_one_far_access() {
        let (f, q) = setup(256, 2);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        // Warm up away from the empty boundary so estimates are safe.
        for v in 0..16u64 {
            h.enqueue(&mut c, v).unwrap();
        }
        let before = c.stats();
        h.enqueue(&mut c, 99).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 1, "enqueue fast path is one far access");
        assert_eq!(d.atomics, 1);

        let before = c.stats();
        let v = h.dequeue(&mut c).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(v, 0);
        assert_eq!(d.round_trips, 1, "dequeue fast path is one far access");
        assert_eq!(d.messages, 1, "swap clears the slot inside the same verb");
        assert_eq!(d.posted_messages, 0);
    }

    #[test]
    fn dequeue_batch_preserves_fifo_and_charges_one_doorbell() {
        let (f, q) = setup(256, 2);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        for v in 0..32u64 {
            h.enqueue(&mut c, v * 3).unwrap();
        }
        let before = c.stats();
        let got = h.dequeue_batch(&mut c, 8).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(got, (0..8u64).map(|v| v * 3).collect::<Vec<_>>());
        assert_eq!(d.doorbells, 1, "eight dequeues, one doorbell");
        assert_eq!(d.pipelined_ops, 8);
        assert_eq!(
            d.round_trips, 8,
            "far accesses identical to eight serial dequeues (gap confirmed locally)"
        );
        assert_eq!(d.atomics, 8);
        // Drain the rest; order must continue where the batch stopped.
        let rest = h.dequeue_batch(&mut c, 64).unwrap();
        assert_eq!(rest, (8..32u64).map(|v| v * 3).collect::<Vec<_>>());
        assert!(matches!(
            h.dequeue_batch(&mut c, 4),
            Err(CoreError::QueueEmpty)
        ));
        assert_eq!(h.dequeue_batch(&mut c, 0).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn dequeue_batch_clamps_to_available_items() {
        let (f, q) = setup(64, 2);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        for v in 0..5u64 {
            h.enqueue(&mut c, v).unwrap();
        }
        // Asking for far more than available returns exactly what exists;
        // no slot past the tail is ever claimed.
        let got = h.dequeue_batch(&mut c, 50).unwrap();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert_eq!(h.stats().empty_recoveries, 0, "no overshoot on a clamped batch");
        h.enqueue(&mut c, 99).unwrap();
        assert_eq!(h.dequeue(&mut c).unwrap(), 99, "queue still healthy");
    }

    #[test]
    fn dequeue_batch_interleaves_with_serial_ops_across_handles() {
        let (f, q) = setup(128, 3);
        let mut p = f.client();
        let mut cns = f.client();
        let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        let mut hc = FarQueue::attach(&mut cns, q.hdr()).unwrap();
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u64;
        for _ in 0..12 {
            for _ in 0..6 {
                hp.enqueue(&mut p, next).unwrap();
                expect.push_back(next);
                next += 1;
            }
            for v in hc.dequeue_batch(&mut cns, 4).unwrap() {
                assert_eq!(Some(v), expect.pop_front());
            }
            if let Ok(v) = hc.dequeue(&mut cns) {
                assert_eq!(Some(v), expect.pop_front());
            }
        }
        while let Ok(batch) = hc.dequeue_batch(&mut cns, 16) {
            for v in batch {
                assert_eq!(Some(v), expect.pop_front());
            }
        }
        assert!(expect.is_empty(), "every item dequeued exactly once, in order");
    }

    #[test]
    fn zero_and_large_values_round_trip() {
        let (f, q) = setup(64, 2);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        h.enqueue(&mut c, 0).unwrap();
        h.enqueue(&mut c, u64::MAX - 1).unwrap();
        assert_eq!(h.dequeue(&mut c).unwrap(), 0);
        assert_eq!(h.dequeue(&mut c).unwrap(), u64::MAX - 1);
        assert!(matches!(
            h.enqueue(&mut c, u64::MAX),
            Err(CoreError::ValueOutOfRange)
        ));
    }

    #[test]
    fn full_queue_is_rejected_and_recovers() {
        let (f, q) = setup(20, 2);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let mut pushed = 0u64;
        while h.enqueue(&mut c, pushed).is_ok() {
            pushed += 1;
            assert!(pushed < 100);
        }
        // Usable capacity: n_slots - 2n = 16 slots.
        assert_eq!(pushed, 16);
        assert_eq!(h.dequeue(&mut c).unwrap(), 0);
        h.enqueue(&mut c, 1234).unwrap();
    }

    #[test]
    fn wraps_via_slack_repair() {
        let (f, q) = setup(20, 1);
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        // Push/pop far more items than the physical region holds.
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u64;
        for round in 0..50 {
            for _ in 0..8 {
                if h.enqueue(&mut c, next).is_ok() {
                    expect.push_back(next);
                }
                next += 1;
            }
            for _ in 0..8 {
                match h.dequeue(&mut c) {
                    Ok(v) => assert_eq!(Some(v), expect.pop_front(), "round {round}"),
                    Err(CoreError::QueueEmpty) => assert!(expect.is_empty()),
                    Err(e) => panic!("unexpected {e:?}"),
                }
            }
        }
        assert!(h.stats().repairs > 0, "wrap repairs must have happened");
        // Drain what's left.
        while let Ok(v) = h.dequeue(&mut c) {
            assert_eq!(Some(v), expect.pop_front());
        }
        assert!(expect.is_empty());
    }

    #[test]
    fn two_handles_share_the_queue() {
        let (f, q) = setup(64, 2);
        let mut p = f.client();
        let mut cns = f.client();
        let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        let mut hc = FarQueue::attach(&mut cns, q.hdr()).unwrap();
        for v in 0..10u64 {
            hp.enqueue(&mut p, v).unwrap();
        }
        for v in 0..10u64 {
            assert_eq!(hc.dequeue(&mut cns).unwrap(), v);
        }
    }

    #[test]
    fn dequeue_wait_wakes_on_enqueue_notification() {
        let (f, q) = setup(64, 2);
        let mut p = f.client();
        let mut cns = f.client();
        let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        let mut hc = FarQueue::attach(&mut cns, q.hdr()).unwrap();
        // Single-threaded: enqueue first; the waiting dequeue then finds it.
        hp.enqueue(&mut p, 5).unwrap();
        assert_eq!(hc.dequeue_wait(&mut cns, 5).unwrap(), 5);
    }

    #[test]
    fn threaded_producers_consumers_preserve_items() {
        let f = FabricConfig::single_node(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let producers = 2usize;
        let consumers = 2usize;
        let per_producer = 500u64;
        let q = FarQueue::create(
            &mut c0,
            &a,
            QueueConfig::new(8192, (producers + consumers) as u64),
        )
        .unwrap();
        let mut handles = Vec::new();
        for pid in 0..producers {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
                for i in 0..per_producer {
                    let v = pid as u64 * 1_000_000 + i;
                    h.enqueue_wait(&mut c, v, 1_000).unwrap();
                }
                0u64
            }));
        }
        let consumed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let total = producers as u64 * per_producer;
        let taken = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        for _ in 0..consumers {
            let f = f.clone();
            let consumed = consumed.clone();
            let taken = taken.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
                let mut got = Vec::new();
                loop {
                    if taken.load(std::sync::atomic::Ordering::Relaxed) >= total {
                        break;
                    }
                    match h.dequeue(&mut c) {
                        Ok(v) => {
                            taken.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                            got.push(v);
                        }
                        Err(CoreError::QueueEmpty) => std::thread::yield_now(),
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                }
                consumed.lock().unwrap().extend(got);
                0u64
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut got = consumed.lock().unwrap().clone();
        got.sort_unstable();
        let mut want: Vec<u64> = (0..producers as u64)
            .flat_map(|p| (0..per_producer).map(move |i| p * 1_000_000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(got, want, "every item dequeued exactly once");
    }

    #[test]
    fn per_producer_order_is_preserved_under_concurrency() {
        let f = FabricConfig::single_node(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let q = FarQueue::create(&mut c0, &a, QueueConfig::new(4096, 3)).unwrap();
        let producer = {
            let f = f.clone();
            std::thread::spawn(move || {
                let mut c = f.client();
                let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
                for i in 0..300u64 {
                    h.enqueue_wait(&mut c, i, 1_000).unwrap();
                }
            })
        };
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let mut last: Option<u64> = None;
        let mut got = 0;
        while got < 300 {
            match h.dequeue(&mut c) {
                Ok(v) => {
                    if let Some(prev) = last {
                        assert!(v > prev, "FIFO violated: {v} after {prev}");
                    }
                    last = Some(v);
                    got += 1;
                }
                Err(CoreError::QueueEmpty) => std::thread::yield_now(),
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let f = FabricConfig::count_only(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        assert!(matches!(
            FarQueue::create(&mut c, &a, QueueConfig::new(8, 4)),
            Err(CoreError::BadConfig(_))
        ));
        assert!(matches!(
            FarQueue::create(&mut c, &a, QueueConfig::new(64, 0)),
            Err(CoreError::BadConfig(_))
        ));
    }

    /// Issues a producer's enqueue verb (the guarded `saai` of item 3)
    /// from inside the first guarded claim of the head word: the claim has
    /// already passed the tail onto an empty slot, and the verb aims at
    /// that slot before the claiming consumer learns it was empty.
    struct FillOnClaim {
        head_word: FarAddr,
        producer: std::sync::Mutex<Option<(FabricClient, QueueHandle)>>,
        landed: std::sync::Mutex<Option<bool>>,
    }

    impl farmem_fabric::CheckObserver for FillOnClaim {
        fn access(&self, a: &farmem_fabric::Access) {
            // The producer's own accesses come back through this hook and
            // return here.
            if a.addr != self.head_word || a.kind != farmem_fabric::AccessKind::AtomicRmw {
                return;
            }
            let mut landed = self.landed.lock().unwrap();
            if landed.is_some() {
                return;
            }
            let mut producer = self.producer.lock().unwrap();
            let (c, h) = producer.as_mut().expect("the producer");
            let saai = c.saai_guarded(
                h.q.hdr.offset(OFF_TAIL),
                WORD,
                &4u64.to_le_bytes(),
                h.q.hdr.offset(OFF_EPOCH),
                h.epoch_val,
            );
            *landed = Some(saai.is_ok());
        }
    }

    /// Consumer A's claim overshoots onto an empty slot while a producer's
    /// enqueue of item 3 aims at that slot; then `fresh` (a newly attached
    /// consumer) or A itself must get the item, and the queue must stay
    /// healthy through the next wrap.
    fn overshoot_then_fill(fresh: bool) {
        let (f, q) = setup(20, 2);
        let [mut p, mut a, mut b] = [f.client(), f.client(), f.client()];
        let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        let mut ha = FarQueue::attach(&mut a, q.hdr()).unwrap();
        let mut hb = FarQueue::attach(&mut b, q.hdr()).unwrap();
        hp.enqueue(&mut p, 1).unwrap();
        hp.enqueue(&mut p, 2).unwrap();
        assert_eq!(ha.dequeue(&mut a).unwrap(), 1);
        // B takes item 2 behind A's back: A's head estimate is now stale,
        // so A's next claim lands on the empty slot at the tail.
        assert_eq!(hb.dequeue(&mut b).unwrap(), 2);
        let hpp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        let hook = Arc::new(FillOnClaim {
            head_word: q.hdr().offset(OFF_HEAD),
            producer: std::sync::Mutex::new(Some((p, hpp))),
            landed: std::sync::Mutex::new(None),
        });
        f.install_check_observer(hook.clone());
        assert_eq!(ha.dequeue(&mut a), Err(CoreError::QueueEmpty));
        f.clear_check_observer();
        assert_eq!(ha.stats().empty_recoveries, 1, "the claim overshot");
        let (mut p, _) = hook.producer.lock().unwrap().take().unwrap();
        assert_eq!(
            *hook.landed.lock().unwrap(),
            Some(false),
            "no enqueue lands in the slot an overshooting claim passed"
        );
        // The producer retries the refused verb, as `enqueue` does.
        hp.enqueue(&mut p, 3).unwrap();
        let (mut c, mut h) = if fresh {
            let mut c = f.client();
            let h = FarQueue::attach(&mut c, q.hdr()).unwrap();
            (c, h)
        } else {
            (a, ha)
        };
        assert_eq!(h.dequeue(&mut c).unwrap(), 3);
        for v in 0..40u64 {
            hp.enqueue(&mut p, v).unwrap();
            assert_eq!(h.dequeue(&mut c).unwrap(), v);
        }
        assert!(hp.stats().repairs > 0, "the pairs crossed a wrap");
    }

    #[test]
    fn an_item_filled_behind_an_overshooting_claim_reaches_the_same_consumer() {
        overshoot_then_fill(false);
    }

    #[test]
    fn an_item_filled_behind_an_overshooting_claim_reaches_a_fresh_consumer() {
        overshoot_then_fill(true);
    }

    #[test]
    fn a_handle_attached_mid_repair_waits_for_the_even_epoch() {
        let (f, q) = setup(64, 2);
        let mut c0 = f.client();
        let epoch = q.hdr().offset(OFF_EPOCH);
        // A repair is in progress.
        c0.write_u64(epoch, 1).unwrap();
        let mut c = f.client();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let t = std::thread::spawn(move || {
            let r = h.enqueue(&mut c, 7);
            (r, h, c)
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        let head = c0.read_u64(q.hdr().offset(OFF_HEAD)).unwrap();
        let tail = c0.read_u64(q.hdr().offset(OFF_TAIL)).unwrap();
        assert_eq!(head, tail, "nothing lands while the epoch is odd");
        c0.write_u64(epoch, 2).unwrap();
        let (r, mut h, mut c) = t.join().unwrap();
        r.unwrap();
        assert_eq!(h.dequeue(&mut c).unwrap(), 7);
    }

    /// Fails the node for one verb: the first one that starts after a
    /// guarded op lands in the slack region, for the first `budget` such
    /// landings. That verb is the landed op's repair's first.
    struct FailRepairAfterSlackLanding {
        fabric: Arc<farmem_fabric::Fabric>,
        slack: std::ops::Range<u64>,
        budget: std::sync::atomic::AtomicU32,
        fail_next: std::sync::atomic::AtomicBool,
        down: std::sync::atomic::AtomicBool,
    }

    impl farmem_fabric::CheckObserver for FailRepairAfterSlackLanding {
        fn gate(&self, _client: u32) {
            use std::sync::atomic::Ordering::SeqCst;
            let node = &self.fabric.nodes()[0];
            if self.down.swap(false, SeqCst) {
                node.recover();
            }
            if self.fail_next.swap(false, SeqCst) {
                node.fail();
                self.down.store(true, SeqCst);
            }
        }

        fn access(&self, a: &farmem_fabric::Access) {
            use std::sync::atomic::Ordering::SeqCst;
            if a.kind != farmem_fabric::AccessKind::Read
                && self.slack.contains(&a.addr.0)
                && self.budget.fetch_update(SeqCst, SeqCst, |b| b.checked_sub(1)).is_ok()
            {
                self.fail_next.store(true, SeqCst);
            }
        }
    }

    #[test]
    fn a_landed_op_is_not_reported_failed_when_its_repair_fails() {
        let mut cfg = FabricConfig::count_only(16 << 20);
        cfg.retry = farmem_fabric::RetryPolicy::NONE;
        let f = cfg.build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let q = FarQueue::create(&mut c, &a, QueueConfig::new(12, 2)).unwrap();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        // The first enqueue and the first dequeue to land in the slack
        // each see their repair's first verb fail.
        let hook = Arc::new(FailRepairAfterSlackLanding {
            fabric: f.clone(),
            slack: q.slack_base()..q.region_end(),
            budget: 2.into(),
            fail_next: false.into(),
            down: false.into(),
        });
        f.install_check_observer(hook.clone());
        // A caller retries a call that failed: a landed enqueue reported
        // as failed is enqueued twice, a claimed item reported as failed
        // is lost.
        let mut got = Vec::new();
        for v in 0..40u64 {
            while h.enqueue(&mut c, v).is_err() {}
            got.extend((0..10).find_map(|_| h.dequeue(&mut c).ok()));
        }
        f.clear_check_observer();
        got.extend(std::iter::from_fn(|| h.dequeue(&mut c).ok()));
        assert_eq!(got, (0..40).collect::<Vec<_>>(), "every item exactly once, in order");
        let failed = hook.budget.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(failed, 0, "an enqueue's and a dequeue's repair both failed");
    }

    /// Drains the queue through two consumers from inside a repairer's
    /// rebuild, right after its batch wrote the even epoch: one consumer
    /// takes an item, the other takes the rest, and the first, whose head
    /// estimate is now stale, claims the empty slot at the tail and runs a
    /// repair of its own.
    struct RepairAfterRebuild {
        epoch_word: FarAddr,
        repairer: u32,
        consumers: std::sync::Mutex<Option<[(FabricClient, QueueHandle); 2]>>,
    }

    impl farmem_fabric::CheckObserver for RepairAfterRebuild {
        fn access(&self, a: &farmem_fabric::Access) {
            let write = farmem_fabric::AccessKind::Write;
            if a.addr != self.epoch_word || a.kind != write || a.client != self.repairer {
                return;
            }
            let Some([(mut c1, mut h1), (mut c2, mut h2)]) = self.consumers.lock().unwrap().take()
            else {
                return;
            };
            h1.dequeue(&mut c1).unwrap();
            while h2.dequeue(&mut c2).is_ok() {}
            assert_eq!(h1.dequeue(&mut c1), Err(CoreError::QueueEmpty));
            assert_eq!(h1.stats().empty_recoveries, 1, "the stale claim repaired");
        }
    }

    #[test]
    fn a_repairer_keeps_the_epoch_events_of_a_repair_that_ran_after_it() {
        let (f, q) = setup(20, 2);
        let [mut p, mut c] = [f.client(), f.client()];
        let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        let mut hc = FarQueue::attach(&mut c, q.hdr()).unwrap();
        // Tail at the slack with 15 items queued: the next enqueue lands
        // in the slack, and its repair packs 16 items.
        for v in 0..20u64 {
            hp.enqueue(&mut p, v).unwrap();
            if v < 5 {
                hc.dequeue(&mut c).unwrap();
            }
        }
        let consumers = [f.client(), f.client()].map(|mut c| {
            let h = FarQueue::attach(&mut c, q.hdr()).unwrap();
            (c, h)
        });
        let hook = Arc::new(RepairAfterRebuild {
            epoch_word: q.hdr().offset(OFF_EPOCH),
            repairer: p.id(),
            consumers: std::sync::Mutex::new(Some(consumers)),
        });
        f.install_check_observer(hook.clone());
        hp.enqueue(&mut p, 20).unwrap();
        f.clear_check_observer();
        assert!(hook.consumers.lock().unwrap().is_none(), "the consumers ran");
        // The producer's estimates describe its own rebuild, 16 items; the
        // queue is empty under a newer epoch. Only that repair's events
        // tell it so: its next enqueue must not see the queue full.
        hp.enqueue(&mut p, 21).unwrap();
        assert_eq!(hc.dequeue(&mut c).unwrap(), 21);
    }
}
