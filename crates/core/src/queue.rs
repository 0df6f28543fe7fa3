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
//! design here is our completion of it (documented in DESIGN.md): a far
//! mutex serializes repairs, an epoch word — which every client watches
//! via `notify0`, so checking it is a *local* operation — quiesces fast
//! paths, and the repairer rebuilds the item run at the start of the
//! array. A dequeue consumes its slot with the *swap* variant of `faai`:
//! reading the item and zeroing the slot are one verb, so no separate
//! write — posted or not — ever trails a dequeue.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{BatchOp, DescList, Event, FabricClient, FarAddr, SubId, WORD};
use farmem_runtime::{Doorbell, Inline};

use crate::error::{CoreError, Result};
use crate::mutex::FarMutex;

/// Header word offsets.
const OFF_HEAD: u64 = 0;
const OFF_TAIL: u64 = 8;
const OFF_SLOTS: u64 = 16;
const OFF_NSLOTS: u64 = 24;
const OFF_SLACK: u64 = 32;
const OFF_NCLIENTS: u64 = 40;
const OFF_LOCK: u64 = 48;
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
    /// Wrap repairs performed by this handle.
    pub repairs: u64,
    /// Empty-queue recoveries performed by this handle.
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
        // The slots must share the header's node: the guarded saai/faai
        // verbs are atomic only for node-local targets, and the whole
        // slow-path correctness argument rests on that (also §7.1's advice:
        // localized placement where indirect addressing is common).
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
            0,                // lock
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
    /// checks are local.
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
            epoch_pending: false,
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
        let mine = self.epoch_sub;
        for e in client.take_events(|e| e.sub() == Some(mine) || matches!(e, Event::Lost { .. })) {
            match e {
                Event::Changed { sub, .. } if sub == self.epoch_sub => {
                    self.epoch_pending = true;
                }
                Event::Lost { .. } => self.epoch_pending = true,
                _ => {}
            }
        }
        if self.epoch_pending {
            self.epoch_pending = false;
            self.wait_epoch_even_and_refresh(client)?;
        }
        Ok(())
    }

    /// Waits until the epoch is even (no repair in progress), then reloads
    /// head/tail estimates.
    fn wait_epoch_even_and_refresh(&mut self, client: &mut FabricClient) -> Result<()> {
        for _ in 0..1_000_000u32 {
            let out = client.batch(&[
                BatchOp::Read { addr: self.q.hdr.offset(OFF_EPOCH), len: WORD },
                BatchOp::Read { addr: self.q.hdr.offset(OFF_HEAD), len: 2 * WORD },
            ])?;
            let epoch = u64::from_le_bytes(out[0].bytes().try_into().expect("word"));
            if epoch % 2 == 0 {
                let ht = out[1].bytes();
                self.head_est = u64::from_le_bytes(ht[0..8].try_into().expect("head"));
                self.tail_est = u64::from_le_bytes(ht[8..16].try_into().expect("tail"));
                self.epoch_val = epoch;
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
        let old_tail = match client.saai_guarded_auto(
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
        if old_tail >= self.q.slack_base() {
            self.repair(client)?;
        }
        Ok(())
    }

    /// Dequeues one value. Fast path: **one far access** (`faai_swap`,
    /// which clears the consumed slot in the same verb).
    ///
    /// Returns [`CoreError::QueueEmpty`] when no item is available.
    pub fn dequeue(&mut self, client: &mut FabricClient) -> Result<u64> {
        let _span = client.span("queue.dequeue");
        for _ in 0..64 {
            match self.dequeue_once(client) {
                Err(CoreError::Contended) => continue,
                other => return other,
            }
        }
        Err(CoreError::Contended)
    }

    fn dequeue_once(&mut self, client: &mut FabricClient) -> Result<u64> {
        self.sync(client)?;
        if self.head_est > self.tail_est {
            self.wait_epoch_even_and_refresh(client)?;
            return Err(CoreError::Contended);
        }
        // Logical-slack check: refresh the tail estimate when the local
        // gap enters the 2n danger zone.
        if self.tail_est < self.head_est + 2 * self.q.max_clients * WORD + WORD {
            self.tail_est = client.read_u64(self.q.hdr.offset(OFF_TAIL))?;
            self.stats.est_refreshes += 1;
            if self.head_est >= self.tail_est {
                self.stats.empty_hits += 1;
                return Err(CoreError::QueueEmpty);
            }
        }
        // One far access: the swap variant consumes (zeroes) the slot in
        // the same verb, so the queue never holds a claimed-but-unzeroed
        // slot that a repair scan could mistake for a live item.
        let (old_head, raw) = match client.faai_swap_guarded_auto(
            self.q.hdr.offset(OFF_HEAD),
            WORD,
            EMPTY,
            self.q.hdr.offset(OFF_EPOCH),
            self.epoch_val,
        ) {
            Ok(r) => r,
            Err(farmem_fabric::FabricError::GuardMismatch { .. }) => {
                self.wait_epoch_even_and_refresh(client)?;
                return Err(CoreError::Contended);
            }
            Err(e) => return Err(e.into()),
        };
        if old_head >= self.q.region_end() {
            return Err(CoreError::Corrupted("head pointer escaped the slack region"));
        }
        self.head_est = old_head + WORD;
        if raw == EMPTY {
            // Overshot the tail on stale estimates: recover under the lock.
            self.stats.empty_recoveries += 1;
            self.repair(client)?;
            return Err(CoreError::QueueEmpty);
        }
        self.stats.deq_fast += 1;
        if old_head >= self.q.slack_base() {
            self.repair(client)?;
        }
        Ok(raw - 1)
    }

    /// Dequeues up to `max` values through **one pipeline doorbell**.
    ///
    /// Each descriptor is the very same guarded `faai_swap` the serial
    /// fast path issues — one atomic claim-and-clear per item — so
    /// exactly-once delivery is preserved descriptor by descriptor; the
    /// doorbell only overlaps their round trips in virtual time (the far
    /// accesses booked are identical to `max` serial dequeues).
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
    /// interleave thousands of consumers on one OS thread. One body, so
    /// exactly-once delivery and the far accesses booked cannot differ
    /// between the blocking and the suspending caller; contended retries
    /// [`yield_now`](Doorbell::yield_now) (no fabric access, no clock
    /// movement; a no-op inline), letting earlier-clocked peers fire
    /// first.
    pub async fn dequeue_batch_async<D: Doorbell>(
        &mut self,
        ac: &D,
        max: usize,
    ) -> Result<Vec<u64>> {
        let _span = ac.span("queue.dequeue_batch");
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
            self.stats.empty_hits += 1;
            return Err(CoreError::QueueEmpty);
        }
        let k = avail.min(max as u64) as usize;
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
        let mut need_repair = false;
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
                        // repair below rebases head and tail.
                        self.stats.empty_recoveries += 1;
                        need_repair = true;
                    } else {
                        self.stats.deq_fast += 1;
                        values.push(raw - 1);
                        if old_head >= self.q.slack_base() {
                            need_repair = true;
                        }
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
        if need_repair {
            // lint: block-ok — rare slack-region repair.
            if let Err(e) = ac.with(|client| self.repair(client)) {
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

    /// The slow path: wrap repair and empty recovery, serialized by the
    /// queue's far mutex and quiesced by the epoch word.
    ///
    /// Under the (odd) epoch the repairer waits for the pointers to
    /// stabilize, reads the whole slot region, relocates the single
    /// contiguous run of live items to the start of the array, zeroes the
    /// remainder, rewrites head/tail, and publishes the (even) epoch.
    fn repair(&mut self, client: &mut FabricClient) -> Result<()> {
        let lock = FarMutex::attach(self.q.hdr.offset(OFF_LOCK));
        lock.lock(client, 1_000_000)?;
        let result = self.repair_locked(client);
        // Release even if the repair failed; the repair error is the one
        // worth surfacing (an unlock failure on top of a successful
        // repair — e.g. a lost lease — still propagates).
        let rel = lock.unlock(client);
        self.stats.repairs += 1;
        result?;
        rel
    }

    fn repair_locked(&mut self, client: &mut FabricClient) -> Result<()> {
        // Re-check: a concurrent repairer may have fixed things already.
        let head = client.read_u64(self.q.hdr.offset(OFF_HEAD))?;
        let tail = client.read_u64(self.q.hdr.offset(OFF_TAIL))?;
        let needs_wrap = tail >= self.q.slack_base() || head >= self.q.slack_base();
        let needs_empty_fix = head > tail;
        if !needs_wrap && !needs_empty_fix {
            self.head_est = head;
            self.tail_est = tail;
            self.epoch_val = client.read_u64(self.q.hdr.offset(OFF_EPOCH))?;
            return Ok(());
        }
        // Quiesce: odd epoch tells every attached client (via its local
        // notification queue) to hold off and re-sync.
        client.faa(self.q.hdr.offset(OFF_EPOCH), 1)?;
        let rebuilt = self.rebuild_under_odd_epoch(client, (head, tail));
        // Publish the even epoch no matter how the rebuild went — an
        // error path that leaves the epoch odd wedges every attached
        // client, which is worse than whatever the rebuild hit.
        let reeven = client.faa(self.q.hdr.offset(OFF_EPOCH), 1);
        let (new_head, new_tail) = rebuilt?;
        self.epoch_val = reeven? + 1;
        self.head_est = new_head;
        self.tail_est = new_tail;
        // Drop our own epoch events.
        self.epoch_pending = false;
        let mine = self.epoch_sub;
        let _ = client.take_events(|e| e.sub() == Some(mine));
        Ok(())
    }

    /// The fallible middle of a wrap repair, run while the epoch is odd:
    /// waits for in-flight fast-path ops to drain, relocates the single
    /// live item run to the start of the slot array, and rewrites the
    /// pointers. Returns the rebuilt `(head, tail)`; the caller re-evens
    /// the epoch whether this succeeds or not.
    fn rebuild_under_odd_epoch(
        &self,
        client: &mut FabricClient,
        mut prev: (u64, u64),
    ) -> Result<(u64, u64)> {
        // We will receive our own epoch notifications; ignore them.
        // Wait for stragglers: pointers must be stable across two reads.
        loop {
            // audit: rt-in-loop-ok: straggler quiesce — re-reads until the
            // pointers stabilize; the odd epoch keeps new ops out, so the
            // loop ends as soon as in-flight fast-path ops drain.
            let h = client.read_u64(self.q.hdr.offset(OFF_HEAD))?;
            let t = client.read_u64(self.q.hdr.offset(OFF_TAIL))?;
            if (h, t) == prev {
                break;
            }
            prev = (h, t);
        }
        // Read the whole region and find the contiguous run of live items.
        let region_slots = self.q.n_slots + self.q.slack_slots;
        let raw = client.read(self.q.slots_base, region_slots * WORD)?;
        let words: Vec<u64> = raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("slot")))
            .collect();
        let first = words.iter().position(|&w| w != EMPTY);
        let (run_start, run_len) = match first {
            None => (0, 0),
            Some(f) => {
                let mut l = f;
                while l < words.len() && words[l] != EMPTY {
                    l += 1;
                }
                // All live items must form a single run.
                if words[l..].iter().any(|&w| w != EMPTY) {
                    return Err(CoreError::Corrupted(
                        "queue slots hold more than one item run",
                    ));
                }
                (f, l - f)
            }
        };
        // Rebuild: run at the start of the array, zeros elsewhere, fresh
        // pointers — one fenced batch.
        let mut rebuilt = vec![0u8; (region_slots * WORD) as usize];
        rebuilt[..run_len * 8]
            .copy_from_slice(&raw[run_start * 8..(run_start + run_len) * 8]);
        let new_head = self.q.slots_base.0;
        let new_tail = self.q.slots_base.0 + (run_len as u64) * WORD;
        client.batch(&[
            BatchOp::Write { addr: self.q.slots_base, data: &rebuilt },
            BatchOp::Write {
                addr: self.q.hdr.offset(OFF_HEAD),
                data: &new_head.to_le_bytes(),
            },
            BatchOp::Write {
                addr: self.q.hdr.offset(OFF_TAIL),
                data: &new_tail.to_le_bytes(),
            },
        ])?;
        Ok((new_head, new_tail))
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
}
