//! A memory node: the passive, word-granular storage end of the fabric.
//!
//! Far memory has no explicit owner among application processors (§2):
//! nodes execute loads, stores and fabric-level atomics without any local
//! application CPU. Word-aligned 8-byte accesses are atomic; larger
//! transfers copy word by word and may observe tearing *between* words
//! (never inside one), exactly as one-sided RDMA reads may. Data-structure
//! code must therefore bring its own version/CAS discipline — the simulator
//! does not paper over races.
//!
//! Byte transfers ([`MemoryNode::read_bytes`] / [`MemoryNode::write_bytes`])
//! bounds-check the range once and split it into a partially covered head
//! word, a run of fully covered words and a partially covered tail word.
//! The run is one `SeqCst` load (or store) and one 8-byte copy per word
//! over a pre-sliced `&[AtomicU64]`; only the two edge words pay for a
//! CAS merge that keeps their uncovered bytes intact.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::addr::{NodeId, WORD};
use crate::error::{FabricError, Result};
use crate::notify::SubscriptionTable;

/// State of the fabric interface's virtual queue.
#[derive(Default)]
struct IfaceQueue {
    /// Pending (unserved) work, in nanoseconds of service time.
    pending_ns: u64,
    /// Latest arrival observed (drain reference point).
    last_arrival_ns: u64,
    /// Messages ever booked on this interface.
    messages: u64,
    /// Total queueing delay experienced by booked messages (time spent
    /// behind earlier work, excluding own service).
    waited_ns: u64,
    /// Worst single-message queueing delay.
    max_wait_ns: u64,
}

/// Occupancy summary of one node's fabric interface, derived from the
/// FIFO booking model of [`MemoryNode::occupy`] — which node is the
/// bottleneck, and how much of each round trip was queueing (§7
/// contention effects, surfaced by `farmem-trace`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeOccupancy {
    /// Messages booked on the interface.
    pub messages: u64,
    /// Total service time booked (utilization numerator).
    pub busy_ns: u64,
    /// Summed queueing delay across all messages.
    pub waited_ns: u64,
    /// Worst single-message queueing delay.
    pub max_wait_ns: u64,
}

impl NodeOccupancy {
    /// Mean queueing delay per message (0 when idle).
    pub fn mean_wait_ns(&self) -> u64 {
        self.waited_ns.checked_div(self.messages).unwrap_or(0)
    }
}

/// One memory node's storage plus its fabric-interface serial resource.
pub struct MemoryNode {
    id: NodeId,
    words: Vec<AtomicU64>,
    /// Work-conserving virtual queue of the node's fabric interface;
    /// models the per-node message-processing bottleneck.
    queue: Mutex<IfaceQueue>,
    /// Serializes guarded verbs against mutations of their guard words,
    /// making `guard check + fetch-add` atomic at the node (real NICs
    /// offer masked/conditional atomics with the same property).
    guard_lock: Mutex<()>,
    /// Total service time ever booked (diagnostics: utilization checks).
    busy_ns: AtomicU64,
    failed: AtomicBool,
    /// Virtual time at or after which the node is permanently crash-stopped
    /// ([`FabricError::NodeLost`]); `u64::MAX` means never. Unlike timed
    /// crash windows a lost node never recovers, so the client retry loop
    /// stops immediately instead of burning its backoff budget.
    lost_at_ns: AtomicU64,
    /// Configuration epoch at which this node was fenced out of its
    /// replication group (`u64::MAX` = not fenced). A fenced node refuses
    /// every verb with [`FabricError::FencedEpoch`]: a deposed, possibly
    /// partitioned primary must never silently serve stale data.
    fenced_epoch: AtomicU64,
    /// Virtual-time crash→recover windows scheduled by fault injection;
    /// kept off the hot path behind `has_crash_windows`.
    crash_windows: Mutex<Vec<(u64, u64)>>,
    has_crash_windows: AtomicBool,
    /// Notification subscriptions associated with this node's pages (§4.3).
    pub(crate) subs: SubscriptionTable,
}

impl MemoryNode {
    /// Creates a zero-filled node of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not a positive multiple of the word size;
    /// the [`AddressMap`](crate::addr::AddressMap) constructor enforces a
    /// stricter page multiple before any node is built.
    pub fn new(id: NodeId, capacity: u64) -> MemoryNode {
        assert!(capacity > 0 && capacity.is_multiple_of(WORD));
        let mut words = Vec::with_capacity((capacity / WORD) as usize);
        words.resize_with((capacity / WORD) as usize, || AtomicU64::new(0));
        MemoryNode {
            id,
            words,
            queue: Mutex::new(IfaceQueue::default()),
            guard_lock: Mutex::new(()),
            busy_ns: AtomicU64::new(0),
            failed: AtomicBool::new(false),
            lost_at_ns: AtomicU64::new(u64::MAX),
            fenced_epoch: AtomicU64::new(u64::MAX),
            crash_windows: Mutex::new(Vec::new()),
            has_crash_windows: AtomicBool::new(false),
            subs: SubscriptionTable::new(capacity),
        }
    }

    /// This node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.words.len() as u64 * WORD
    }

    /// Marks the node failed; all subsequent accesses return
    /// [`FabricError::NodeFailed`]. Far memory sits in its own fault domain
    /// (§2), so failing a node must not take client state with it.
    pub fn fail(&self) {
        self.failed.store(true, Ordering::SeqCst);
    }

    /// Clears an injected permanent failure (timed crash windows are
    /// unaffected: they clear themselves as virtual time passes them).
    pub fn recover(&self) {
        self.failed.store(false, Ordering::SeqCst);
    }

    /// Schedules a timed crash window `[from_ns, until_ns)` in virtual
    /// time: any verb whose arrival falls inside the window fails with
    /// [`FabricError::NodeFailed`], and the node is alive again at
    /// `until_ns` — the crash→recover cycle of a rebooting memory node,
    /// without the test having to call [`fail`](MemoryNode::fail) /
    /// [`recover`](MemoryNode::recover) at the right moment itself.
    pub fn schedule_crash(&self, from_ns: u64, until_ns: u64) {
        assert!(from_ns < until_ns, "empty crash window");
        self.crash_windows.lock().unwrap().push((from_ns, until_ns));
        self.has_crash_windows.store(true, Ordering::SeqCst);
    }

    /// Permanently crash-stops the node, effective immediately: every
    /// subsequent verb fails with [`FabricError::NodeLost`] and nothing
    /// ever recovers it. This is the crash-stop fault of the fenced
    /// failover protocol — contrast [`fail`](MemoryNode::fail) (clearable)
    /// and [`schedule_crash`](MemoryNode::schedule_crash) (self-healing).
    pub fn crash_permanent(&self) {
        self.lost_at_ns.store(0, Ordering::SeqCst);
    }

    /// Schedules a permanent crash-stop at virtual time `at_ns`: verbs
    /// arriving at or after `at_ns` fail with [`FabricError::NodeLost`],
    /// forever. Used by
    /// [`FaultPlan::crash_permanent`](crate::fault::FaultPlan::crash_permanent)
    /// to kill a node mid-workload deterministically.
    pub fn schedule_crash_permanent(&self, at_ns: u64) {
        self.lost_at_ns.store(at_ns, Ordering::SeqCst);
    }

    /// Whether the node is permanently crash-stopped as of `now_ns`.
    pub fn is_lost_at(&self, now_ns: u64) -> bool {
        now_ns >= self.lost_at_ns.load(Ordering::SeqCst)
    }

    /// Fences the node out of its replication group at configuration
    /// `epoch`: it refuses every verb with [`FabricError::FencedEpoch`]
    /// from now on. Called by promotion; fencing is never undone.
    pub(crate) fn fence(&self, epoch: u64) {
        self.fenced_epoch.store(epoch, Ordering::SeqCst);
    }

    /// Whether the node has been fenced out of its replication group.
    pub fn is_fenced(&self) -> bool {
        self.fenced_epoch.load(Ordering::SeqCst) != u64::MAX
    }

    /// Total service time ever booked on this node's interface.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Returns an error if the node is currently (permanently) failed.
    ///
    /// Loads `failed` with `SeqCst` to pair with the `SeqCst` stores in
    /// [`fail`](MemoryNode::fail) / [`recover`](MemoryNode::recover): a
    /// test that fails a node and then issues a verb from another thread
    /// must observe the failure immediately, with no reordering against
    /// the data words (which are themselves `SeqCst`). The previous
    /// `Relaxed` load was formally allowed to float past those accesses.
    #[inline]
    pub fn check_alive(&self) -> Result<()> {
        if self.failed.load(Ordering::SeqCst) {
            Err(FabricError::NodeFailed(self.id))
        } else {
            Ok(())
        }
    }

    /// Like [`check_alive`](MemoryNode::check_alive), but also
    /// distinguishes the *permanent* fault taxonomy and honours timed
    /// crash windows. Checked most-specific first:
    ///
    /// 1. fenced → [`FabricError::FencedEpoch`] (deposed primary; the
    ///    client must refresh its group view, not retry here);
    /// 2. permanently crash-stopped → [`FabricError::NodeLost`] (never
    ///    recovers; the client fails over instead of backing off);
    /// 3. injected failure / timed crash window →
    ///    [`FabricError::NodeFailed`] (transient: backoff heals it).
    #[inline]
    pub fn check_alive_at(&self, now_ns: u64) -> Result<()> {
        let fence = self.fenced_epoch.load(Ordering::SeqCst);
        if fence != u64::MAX {
            return Err(FabricError::FencedEpoch { node: self.id, epoch: fence });
        }
        if self.is_lost_at(now_ns) {
            return Err(FabricError::NodeLost(self.id));
        }
        self.check_alive()?;
        if self.has_crash_windows.load(Ordering::SeqCst) {
            let windows = self.crash_windows.lock().unwrap();
            if windows.iter().any(|&(from, until)| from <= now_ns && now_ns < until) {
                return Err(FabricError::NodeFailed(self.id));
            }
        }
        Ok(())
    }

    /// Occupies the node's serial fabric interface: a message arriving at
    /// virtual time `arrival_ns` that needs `service_ns` of processing
    /// waits behind the work currently queued, then is served; returns its
    /// completion time.
    ///
    /// The interface is modelled as a *work-conserving* virtual queue:
    /// pending work drains at line rate between arrivals, so a message
    /// never waits behind idle gaps or behind slots booked for the future
    /// by clients whose virtual clocks run ahead. This is how saturation
    /// emerges — under overload the pending work grows and every client
    /// queues — while an underloaded node adds no delay.
    pub fn occupy(&self, arrival_ns: u64, service_ns: u64) -> u64 {
        self.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
        let mut q = self.queue.lock().unwrap();
        if arrival_ns > q.last_arrival_ns {
            // The interface drained for the interval since the previous
            // arrival.
            let idle = arrival_ns - q.last_arrival_ns;
            q.pending_ns = q.pending_ns.saturating_sub(idle);
            q.last_arrival_ns = arrival_ns;
        }
        let wait = q.pending_ns;
        q.pending_ns += service_ns;
        q.messages += 1;
        q.waited_ns += wait;
        q.max_wait_ns = q.max_wait_ns.max(wait);
        arrival_ns + wait + service_ns
    }

    /// Occupancy/queueing-delay summary of this node's interface.
    pub fn occupancy(&self) -> NodeOccupancy {
        let q = self.queue.lock().unwrap();
        NodeOccupancy {
            messages: q.messages,
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            waited_ns: q.waited_ns,
            max_wait_ns: q.max_wait_ns,
        }
    }

    #[inline]
    fn word_index(&self, offset: u64, align: u64) -> Result<usize> {
        if !offset.is_multiple_of(align) {
            return Err(FabricError::Unaligned {
                addr: crate::addr::FarAddr(offset),
                required: align,
            });
        }
        let idx = (offset / WORD) as usize;
        if idx >= self.words.len() {
            return Err(FabricError::OutOfBounds {
                addr: crate::addr::FarAddr(offset),
                len: WORD,
            });
        }
        Ok(idx)
    }

    /// Atomically reads the aligned word at node-local `offset`.
    pub fn read_u64(&self, offset: u64) -> Result<u64> {
        let i = self.word_index(offset, WORD)?;
        Ok(self.words[i].load(Ordering::SeqCst))
    }

    /// Atomically writes the aligned word at node-local `offset`.
    pub fn write_u64(&self, offset: u64, value: u64) -> Result<()> {
        let i = self.word_index(offset, WORD)?;
        let _g = self.guard_lock.lock().unwrap();
        self.words[i].store(value, Ordering::SeqCst);
        Ok(())
    }

    /// Fabric-level compare-and-swap on the aligned word at `offset`;
    /// returns the previous value (§2).
    pub fn cas_u64(&self, offset: u64, expected: u64, new: u64) -> Result<u64> {
        let i = self.word_index(offset, WORD)?;
        let _g = self.guard_lock.lock().unwrap();
        match self.words[i].compare_exchange(expected, new, Ordering::SeqCst, Ordering::SeqCst) {
            Ok(prev) => Ok(prev),
            Err(prev) => Ok(prev),
        }
    }

    /// Fabric-level fetch-and-add on the aligned word at `offset`; returns
    /// the previous value.
    pub fn faa_u64(&self, offset: u64, delta: u64) -> Result<u64> {
        let i = self.word_index(offset, WORD)?;
        let _g = self.guard_lock.lock().unwrap();
        Ok(self.words[i].fetch_add(delta, Ordering::SeqCst))
    }

    /// Runs `body` atomically with respect to every word mutation of this
    /// node, after checking that the guard word equals `expect`.
    ///
    /// This is how the extended *guarded indirect* verbs execute: the
    /// guard check, the pointer bump and the (node-local) target access
    /// form one indivisible unit, so a concurrent restructure that flips
    /// the guard can never observe — or be observed by — a half-done verb.
    ///
    /// `body` must use the raw word accessors ([`MemoryNode::words_raw`])
    /// or non-locking byte transfers; calling the locking word ops from
    /// inside would deadlock.
    pub(crate) fn guarded_verb<R>(
        &self,
        guard_offset: u64,
        expect: u64,
        body: impl FnOnce(&Self) -> Result<R>,
    ) -> Result<R> {
        let g = self.word_index(guard_offset, WORD)?;
        let _lock = self.guard_lock.lock().unwrap();
        let observed = self.words[g].load(Ordering::SeqCst);
        if observed != expect {
            return Err(FabricError::GuardMismatch { observed });
        }
        body(self)
    }

    /// Raw (non-locking) access to the word array for use inside
    /// [`MemoryNode::guarded_verb`] bodies.
    pub(crate) fn words_raw(&self, offset: u64) -> Result<&AtomicU64> {
        let i = self.word_index(offset, WORD)?;
        Ok(&self.words[i])
    }

    /// Splits the byte range `[offset, offset + len)` over the words that
    /// cover it, bounds-checking the whole range once.
    fn span(&self, offset: u64, len: usize) -> Result<Span<'_>> {
        let end = offset
            .checked_add(len as u64)
            .filter(|&end| end <= self.capacity())
            .ok_or(FabricError::OutOfBounds {
                addr: crate::addr::FarAddr(offset),
                len: len as u64,
            })?;
        let skip = (offset % WORD) as usize;
        let head_len = if skip == 0 { 0 } else { (WORD as usize - skip).min(len) };
        let words = &self.words[(offset / WORD) as usize..end.div_ceil(WORD) as usize];
        let (head, words) = words.split_at(usize::from(head_len > 0));
        let (body, tail) = words.split_at((len - head_len) / WORD as usize);
        Ok(Span { skip, head_len, head: head.first(), body, tail: tail.first() })
    }

    /// Copies `buf.len()` bytes starting at node-local `offset` into `buf`.
    ///
    /// Each covered word is loaded atomically (`SeqCst`), but the range
    /// as a whole is *not* a single atomic snapshot.
    pub fn read_bytes(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        if buf.is_empty() {
            return Ok(());
        }
        let span = self.span(offset, buf.len())?;
        let (head, rest) = buf.split_at_mut(span.head_len);
        let (body, tail) = rest.split_at_mut(span.body.len() * WORD as usize);
        if let Some(word) = span.head {
            let bytes = word.load(Ordering::SeqCst).to_le_bytes();
            head.copy_from_slice(&bytes[span.skip..span.skip + head.len()]);
        }
        for (chunk, word) in body.chunks_exact_mut(WORD as usize).zip(span.body) {
            chunk.copy_from_slice(&word.load(Ordering::SeqCst).to_le_bytes());
        }
        if let Some(word) = span.tail {
            let bytes = word.load(Ordering::SeqCst).to_le_bytes();
            tail.copy_from_slice(&bytes[..tail.len()]);
        }
        Ok(())
    }

    /// Copies `data` into the node starting at node-local `offset`.
    ///
    /// Fully covered words are stored atomically (`SeqCst`); the partially
    /// covered head and tail words merge via a CAS loop so that untouched
    /// neighbouring bytes are preserved even under concurrent writers.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let span = self.span(offset, data.len())?;
        let (head, rest) = data.split_at(span.head_len);
        let (body, tail) = rest.split_at(span.body.len() * WORD as usize);
        if let Some(word) = span.head {
            merge_bytes(word, span.skip, head);
        }
        for (chunk, word) in body.chunks_exact(WORD as usize).zip(span.body) {
            let bytes: [u8; WORD as usize] = chunk.try_into().expect("exact chunk");
            word.store(u64::from_le_bytes(bytes), Ordering::SeqCst);
        }
        if let Some(word) = span.tail {
            merge_bytes(word, 0, tail);
        }
        Ok(())
    }
}

/// How a byte range lies over the node's words: an optional partially
/// covered head word (the range starts `skip` bytes into it and covers
/// `head_len` of its bytes), the fully covered body words, and an optional
/// partially covered tail word (covered from its first byte).
struct Span<'a> {
    skip: usize,
    head_len: usize,
    head: Option<&'a AtomicU64>,
    body: &'a [AtomicU64],
    tail: Option<&'a AtomicU64>,
}

/// Merges `src` into `word` starting `skip` bytes in, leaving the word's
/// other bytes as they are; retries if a concurrent writer races the word.
fn merge_bytes(word: &AtomicU64, skip: usize, src: &[u8]) {
    let merged = |cur: u64| {
        let mut bytes = cur.to_le_bytes();
        bytes[skip..skip + src.len()].copy_from_slice(src);
        Some(u64::from_le_bytes(bytes))
    };
    word.fetch_update(Ordering::SeqCst, Ordering::SeqCst, merged)
        .expect("the update closure never declines");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> MemoryNode {
        MemoryNode::new(NodeId(0), 4096 * 4)
    }

    #[test]
    fn word_ops_round_trip() {
        let n = node();
        n.write_u64(64, 0xdead_beef).unwrap();
        assert_eq!(n.read_u64(64).unwrap(), 0xdead_beef);
        assert_eq!(n.cas_u64(64, 0xdead_beef, 7).unwrap(), 0xdead_beef);
        assert_eq!(n.read_u64(64).unwrap(), 7);
        // A failed CAS returns the actual value and leaves memory intact.
        assert_eq!(n.cas_u64(64, 99, 1).unwrap(), 7);
        assert_eq!(n.read_u64(64).unwrap(), 7);
        assert_eq!(n.faa_u64(64, 3).unwrap(), 7);
        assert_eq!(n.read_u64(64).unwrap(), 10);
    }

    #[test]
    fn unaligned_word_ops_rejected() {
        let n = node();
        assert!(matches!(
            n.read_u64(4),
            Err(FabricError::Unaligned { .. })
        ));
    }

    #[test]
    fn byte_ranges_round_trip_unaligned() {
        let n = node();
        let data: Vec<u8> = (0..41u8).collect();
        n.write_bytes(13, &data).unwrap();
        let mut back = vec![0u8; 41];
        n.read_bytes(13, &mut back).unwrap();
        assert_eq!(back, data);
        // Neighbouring bytes are untouched.
        let mut edge = [0u8; 1];
        n.read_bytes(12, &mut edge).unwrap();
        assert_eq!(edge[0], 0);
    }

    #[test]
    fn failure_blocks_access() {
        let n = node();
        n.fail();
        assert_eq!(n.check_alive(), Err(FabricError::NodeFailed(NodeId(0))));
        n.recover();
        assert!(n.check_alive().is_ok());
    }

    #[test]
    fn occupy_serializes_arrivals() {
        let n = node();
        let f1 = n.occupy(100, 50);
        assert_eq!(f1, 150);
        // Second message arriving earlier still queues behind the first.
        let f2 = n.occupy(120, 50);
        assert_eq!(f2, 200);
        // A late arrival after the queue drains starts immediately.
        let f3 = n.occupy(1000, 50);
        assert_eq!(f3, 1050);
    }

    #[test]
    fn oob_byte_ranges_rejected() {
        let n = node();
        let mut buf = [0u8; 16];
        assert!(n.read_bytes(n.capacity() - 8, &mut buf).is_err());
        assert!(n.write_bytes(n.capacity() - 8, &buf).is_err());
        // `offset + len` overflowing u64 is out of bounds, not a wrap to 8.
        assert!(n.read_bytes(u64::MAX - 7, &mut buf).is_err());
        assert!(n.write_bytes(u64::MAX - 7, &buf).is_err());
        // A range ending exactly at capacity is in bounds, aligned or not.
        n.write_bytes(n.capacity() - 16, &[7u8; 16]).unwrap();
        n.read_bytes(n.capacity() - 16, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
        n.write_bytes(n.capacity() - 3, &[9u8; 3]).unwrap();
        n.read_bytes(n.capacity() - 3, &mut buf[..3]).unwrap();
        assert_eq!(buf[..3], [9u8; 3]);
    }
}
