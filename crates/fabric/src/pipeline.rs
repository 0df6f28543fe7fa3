//! Pipelined one-sided operations: issue/completion queues with an
//! overlap-aware virtual clock.
//!
//! Real one-sided fabrics hide their ~2 µs round-trip time by keeping many
//! operations in flight: a client posts work-queue descriptors, rings one
//! doorbell, and later drains a completion queue (RDMA QPs, Gen-Z). The
//! synchronous verbs of [`FabricClient`] serialize independent accesses in
//! virtual time even when they target *different* memory nodes, so striping
//! never shows the bandwidth parallelism it exists to provide.
//!
//! One op vocabulary, [`PipeOp`], serves every way of sending a verb:
//! alone ([`FabricClient::issue`]), fenced in a batch
//! ([`FabricClient::batch`], whose [`BatchOp`] is a `PipeOp` over
//! borrowed bytes) or posted as a descriptor. Descriptors are posted onto
//! a [`DescList`] (reads, writes, CAS, FAA, `load0`-style indirection,
//! the guarded claim and whole fenced batches);
//! [`FabricClient::ring`] rings the doorbell for a list and returns a
//! [`CompletionQueue`] holding one result per descriptor, in issue order.
//! [`FabricClient::pipeline`] is the borrowed form: an [`IssueQueue`] is a
//! list plus the client it will ring, so `client.pipeline()…commit()`
//! reads as one expression. Every op, however sent, runs the one
//! executor, `exec_op`, which runs the `exec_*` function its blocking
//! verb runs — there is one implementation of each verb, and an op
//! answers with the same [`PipeOut`] variant whichever way it went.
//!
//! # Overlap-aware accounting
//!
//! Counting is *serial-identical*: every descriptor books the same round
//! trips, messages, bytes and atomics the equivalent serial verb would, so
//! the paper's access-count metric is unchanged by pipelining. Only the
//! *clock* differs:
//!
//! * all descriptors share the doorbell's issue time, so their requests
//!   arrive at the nodes together;
//! * chains to the **same** node stay FIFO-serialized through the node's
//!   work-conserving interface queue ([`MemoryNode::occupy`]) — per-node
//!   bandwidth is never double-counted;
//! * the client clock advances to the **max** completion across
//!   descriptors, not the sum.
//!
//! The difference between the serial-equivalent latency sum and the actual
//! elapsed time is booked as [`AccessStats::overlap_saved_ns`], next to
//! `pipelined_ops` and `doorbells`.
//!
//! # Faults
//!
//! Faults compose with the existing machinery per descriptor: a transient
//! fault retries **that descriptor alone** under the client's
//! [`RetryPolicy`](crate::fault::RetryPolicy), with the usual
//! backoff/jitter charged to the virtual clock. A descriptor that
//! ultimately fails aborts the not-yet-executed tail (the queue enters an
//! error state, as an RDMA QP would) and the commit surfaces
//! [`FabricError::PipelineTorn`] when at least one side-effecting
//! descriptor had already executed — blindly re-ringing the doorbell would
//! duplicate those effects. Completed results remain drainable from the
//! [`CompletionQueue`].
//!
//! A null pointer under a read-only load ([`PipeOp::Load2`],
//! [`PipeOp::Load0Tagged`]) is no failure but the load's *answer*: the
//! descriptor completes as [`PipeOut::Null`] and books the round trip and
//! the clock the blocking verb books for its `NullDeref`, as the same op
//! does in a fenced batch. An absent key
//! in a batch of lookups therefore serialises nothing behind it. A
//! cross-node target that an
//! [`IndirectionMode::Error`](crate::fabric::IndirectionMode::Error)
//! fabric refuses is no failure either: the descriptor reissues it, as
//! the blocking verb does, and books the same two round trips.
//!
//! One booking differs from the blocking verb, deliberately: an error the
//! node *answered* a guarded claim with (guard mismatch, off-node target,
//! null pointer) costs the blocking verb its round trip, while the failed
//! descriptor books its message but no round trip of its own — the
//! doorbell's time is the max over *completed* descriptors (DESIGN.md §7).
//!
//! [`MemoryNode::occupy`]: crate::node::MemoryNode::occupy
//! [`AccessStats::overlap_saved_ns`]: crate::stats::AccessStats

use crate::addr::{FarAddr, WORD};
use crate::check::AccessKind;
use crate::client::FabricClient;
use crate::error::{FabricError, Result};
use crate::ext::indirect::{loaded, ErrorCompletion, PtrRead, TargetAccess};
use crate::trace::VerbKind;

/// One far op, however it is sent: alone ([`FabricClient::issue`]), in a
/// fenced batch ([`FabricClient::batch`], [`PipeOp::Fenced`]) or posted
/// ahead of a doorbell ([`DescList::post`]). Generic over the bytes a
/// write carries: a posted descriptor owns them (`Vec<u8>`, the
/// default), so a queue can outlive its sources; a batch borrows them
/// ([`BatchOp`]). Every op runs the one executor, `exec_op`, whichever
/// way it is sent.
#[derive(Clone, Debug)]
pub enum PipeOp<B = Vec<u8>> {
    /// Read `len` bytes at `addr` (serial equivalent: [`FabricClient::read`]).
    Read {
        /// Source far address.
        addr: FarAddr,
        /// Bytes to read.
        len: u64,
    },
    /// [`Read`](PipeOp::Read) at an address the caller only guesses is
    /// live. Booked like a read; reported to the verification observer as
    /// [`AccessKind::SpeculativeRead`], whose contract is the caller's:
    /// interpret the bytes only if an op *earlier in the same fenced
    /// batch* returned a pointer naming `addr` (the batch applies its ops
    /// in order).
    ReadSpeculative {
        /// Guessed far address.
        addr: FarAddr,
        /// Bytes to read.
        len: u64,
    },
    /// Write `data` at `addr` (serial equivalent: [`FabricClient::write`]).
    Write {
        /// Destination far address.
        addr: FarAddr,
        /// Bytes to write.
        data: B,
    },
    /// Read the aligned word at `addr`.
    ReadU64 {
        /// Word address.
        addr: FarAddr,
    },
    /// Write the aligned word at `addr`.
    WriteU64 {
        /// Word address.
        addr: FarAddr,
        /// Value to store.
        value: u64,
    },
    /// Compare-and-swap the word at `addr`; completes with the previous
    /// value.
    Cas {
        /// Word address.
        addr: FarAddr,
        /// Expected value.
        expected: u64,
        /// Replacement value.
        new: u64,
    },
    /// Fetch-and-add on the word at `addr`; completes with the previous
    /// value.
    Faa {
        /// Word address.
        addr: FarAddr,
        /// Added value (wrapping).
        delta: u64,
    },
    /// Dereference the pointer at `ptr`, offset the target by `index`
    /// bytes, and read `len` bytes there (serial equivalents:
    /// [`FabricClient::load0`] with `index == 0`,
    /// [`FabricClient::load2`](FabricClient::load2) otherwise); completes
    /// with [`PipeOut::Loaded`]. A cross-node target is forwarded under
    /// [`IndirectionMode::Forward`](crate::fabric::IndirectionMode::Forward)
    /// and reissued under [`Error`](crate::fabric::IndirectionMode::Error),
    /// as the serial verb does; a null pointer completes as
    /// [`PipeOut::Null`].
    Load2 {
        /// Far address of the pointer word.
        ptr: FarAddr,
        /// Byte offset added to the dereferenced pointer.
        index: u64,
        /// Bytes to read at the target.
        len: u64,
    },
    /// Dereference the tagged pointer at `ptr` and read the block its tag
    /// names (serial equivalent: [`FabricClient::load0_tagged`]);
    /// completes with [`PipeOut::Loaded`], the pointer word tag included.
    /// Null-pointer and remote-target handling as for [`PipeOp::Load2`].
    Load0Tagged {
        /// Far address of the tagged pointer word.
        ptr: FarAddr,
    },
    /// Guarded fetch-add-and-indirect-swap (serial equivalent:
    /// [`FabricClient::faai_swap_guarded`]): atomically bump the pointer
    /// at `ptr` by `delta` and swap the old target word with
    /// `replacement`, provided `guard` (same node as `ptr`) holds
    /// `expect` — the §5.3 queue's dequeue verb; a swap that finds
    /// `replacement` already there closes the guard, as the serial verb
    /// does, and an off-node target is refused. Completes with
    /// [`PipeOut::PtrWord`].
    FaaiSwapGuarded {
        /// Far address of the pointer word.
        ptr: FarAddr,
        /// Added to the pointer (wrapping).
        delta: u64,
        /// Word swapped into the old target.
        replacement: u64,
        /// Guard word address (must share `ptr`'s node).
        guard: FarAddr,
        /// Required guard value.
        expect: u64,
    },
    /// A fenced batch as one op (serial equivalent:
    /// [`FabricClient::batch`]): its ops apply in order and it books what
    /// the blocking batch books — one round trip, each op's messages and
    /// bytes, one fault roll, a whole-batch retry. Completes with
    /// [`PipeOut::Batch`].
    Fenced(Vec<BatchOp<'static>>),
}

/// The borrowed form of [`PipeOp`]: one op of a fenced batch, whose
/// write bytes stay with the caller.
pub type BatchOp<'a> = PipeOp<&'a [u8]>;

impl<B> PipeOp<B> {
    /// Whether executing this op mutates far memory. Once a side effect
    /// has completed, a blind re-issue would duplicate it — a FAA applied
    /// twice, a won CAS re-reported as lost — so a later failure
    /// surfaces as [`FabricError::BatchTorn`] inside a fenced batch and
    /// as [`FabricError::PipelineTorn`] behind a doorbell.
    pub(crate) fn has_side_effect(&self) -> bool {
        match self {
            PipeOp::Read { .. }
            | PipeOp::ReadSpeculative { .. }
            | PipeOp::ReadU64 { .. }
            | PipeOp::Load2 { .. }
            | PipeOp::Load0Tagged { .. } => false,
            PipeOp::Fenced(ops) => ops.iter().any(PipeOp::has_side_effect),
            _ => true,
        }
    }

    /// The verb this op books as when sent alone — the kind its blocking
    /// verb books.
    fn verb_kind(&self) -> VerbKind {
        match self {
            PipeOp::Read { .. } | PipeOp::ReadSpeculative { .. } | PipeOp::ReadU64 { .. } => {
                VerbKind::Read
            }
            PipeOp::Write { .. } | PipeOp::WriteU64 { .. } => VerbKind::Write,
            PipeOp::Cas { .. } | PipeOp::Faa { .. } => VerbKind::Atomic,
            PipeOp::Load2 { .. } | PipeOp::Load0Tagged { .. } | PipeOp::FaaiSwapGuarded { .. } => {
                VerbKind::Indirect
            }
            PipeOp::Fenced(_) => VerbKind::Batch,
        }
    }
}

impl<B: AsRef<[u8]>> PipeOp<B> {
    /// Calls `f` with every far range this op addresses before it
    /// executes: a fenced batch pre-flights them all. A pointer load's
    /// target is known only once it executes, so its pointer word is
    /// what can be checked up front.
    pub(crate) fn preflight(&self, f: &mut impl FnMut(FarAddr, u64) -> Result<()>) -> Result<()> {
        match self {
            PipeOp::Read { addr, len } | PipeOp::ReadSpeculative { addr, len } => f(*addr, *len),
            PipeOp::Write { addr, data } => f(*addr, data.as_ref().len() as u64),
            PipeOp::ReadU64 { addr }
            | PipeOp::WriteU64 { addr, .. }
            | PipeOp::Cas { addr, .. }
            | PipeOp::Faa { addr, .. }
            | PipeOp::Load2 { ptr: addr, .. }
            | PipeOp::Load0Tagged { ptr: addr }
            | PipeOp::FaaiSwapGuarded { ptr: addr, .. } => f(*addr, WORD),
            PipeOp::Fenced(ops) => ops.iter().try_for_each(|op| op.preflight(f)),
        }
    }
}

/// The answer of one far op ([`PipeOp`]). An op answers with the same
/// variant however it was sent: alone, in a fenced batch or as a
/// descriptor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipeOut {
    /// Bytes returned by a `Read` or a `ReadSpeculative`.
    Bytes(Vec<u8>),
    /// Word returned by `ReadU64`, or previous value from `Cas` / `Faa`.
    Value(u64),
    /// A write-style op completed.
    Done,
    /// Completion of a [`PipeOp::FaaiSwapGuarded`] descriptor.
    PtrWord {
        /// The pointer's value before the bump.
        ptr: u64,
        /// The target word's value before the swap.
        word: u64,
    },
    /// The op answers of a fenced batch, in op order.
    Batch(Vec<PipeOut>),
    /// What a `Load2` or a `Load0Tagged` read: the pointer word it
    /// dereferenced, tag included, and the bytes at its target. The ops
    /// of a batch are not one atomic unit, so only this pointer — not a
    /// `Read` of the same word elsewhere in the batch — is known to name
    /// the bytes.
    Loaded {
        /// The pointer word the home node dereferenced.
        ptr: u64,
        /// The bytes read at the target.
        bytes: Vec<u8>,
    },
    /// A read-only load (`Load2`, `Load0Tagged`) found a null pointer.
    Null,
}

impl PipeOut {
    /// The word value, for `ReadU64`/`Cas`/`Faa` completions.
    ///
    /// # Panics
    ///
    /// Panics if the answer is not a value; authors know the shape of
    /// their own descriptors and batches.
    pub fn value(&self) -> u64 {
        match self {
            PipeOut::Value(v) => *v,
            other => panic!("answer {other:?} is not a value"),
        }
    }

    /// The returned bytes, for read-style answers.
    ///
    /// # Panics
    ///
    /// Panics if the answer carries no bytes.
    pub fn bytes(&self) -> &[u8] {
        match self {
            PipeOut::Bytes(b) | PipeOut::Loaded { bytes: b, .. } => b,
            other => panic!("answer {other:?} is not bytes"),
        }
    }

    /// Consumes the answer, returning its bytes.
    ///
    /// # Panics
    ///
    /// Panics if the answer carries no bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            PipeOut::Bytes(b) | PipeOut::Loaded { bytes: b, .. } => b,
            other => panic!("answer {other:?} is not bytes"),
        }
    }

    /// The `(old pointer, old target word)` pair of a
    /// [`PipeOp::FaaiSwapGuarded`] completion.
    ///
    /// # Panics
    ///
    /// Panics on any other answer shape.
    pub fn ptr_word(&self) -> (u64, u64) {
        match self {
            PipeOut::PtrWord { ptr, word } => (*ptr, *word),
            other => panic!("answer {other:?} is not a pointer/word pair"),
        }
    }
}

/// A detached descriptor list: what one doorbell will carry. Posting
/// touches no client; [`FabricClient::ring`] (or a runtime's doorbell)
/// executes the list.
#[derive(Clone, Debug, Default)]
pub struct DescList {
    ops: Vec<PipeOp>,
}

/// An issue queue: a [`DescList`] (which it dereferences to, so every
/// posting helper applies) plus the borrowed client that
/// [`commit`](IssueQueue::commit) rings.
pub struct IssueQueue<'c> {
    client: &'c mut FabricClient,
    list: DescList,
}

/// The drained completion queue of one doorbell: per-descriptor results in
/// issue order, plus the overall commit status.
#[derive(Debug)]
pub struct CompletionQueue {
    /// One slot per descriptor; `None` means the descriptor was never
    /// attempted (the queue aborted on an earlier failure).
    results: Vec<Option<Result<PipeOut>>>,
    status: Result<()>,
}

impl CompletionQueue {
    /// Overall commit status: `Ok` when every descriptor completed;
    /// [`FabricError::PipelineTorn`] when a failure followed completed
    /// side effects; otherwise the failing descriptor's error.
    pub fn status(&self) -> Result<()> {
        self.status.clone()
    }

    /// Number of posted descriptors.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the doorbell had no descriptors.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// Number of descriptors that completed successfully.
    pub fn completed(&self) -> usize {
        self.results
            .iter()
            .filter(|r| matches!(r, Some(Ok(_))))
            .count()
    }

    /// Number of descriptors that failed or were aborted.
    pub fn failed(&self) -> usize {
        self.len() - self.completed()
    }

    /// Borrows descriptor `index`'s result (`None` if it was aborted
    /// before execution).
    pub fn get(&self, index: usize) -> Option<&Result<PipeOut>> {
        self.results.get(index).and_then(|r| r.as_ref())
    }

    /// Removes and returns descriptor `index`'s result.
    pub fn take(&mut self, index: usize) -> Option<Result<PipeOut>> {
        self.results.get_mut(index).and_then(|r| r.take())
    }

    /// All outputs in issue order, or the commit's error. The all-success
    /// fast path for adopters that treat the doorbell as one verb.
    pub fn into_outputs(self) -> Result<Vec<PipeOut>> {
        self.status?;
        Ok(self
            .results
            .into_iter()
            .map(|r| r.expect("status Ok implies every descriptor completed").expect("checked"))
            .collect())
    }
}

impl FabricClient {
    /// Opens an [`IssueQueue`] on this client. Post descriptors, then ring
    /// the doorbell with [`IssueQueue::commit`].
    pub fn pipeline(&mut self) -> IssueQueue<'_> {
        IssueQueue { client: self, list: DescList::new() }
    }

    /// Rings the doorbell for `list`: executes every posted descriptor
    /// with shared issue time and overlap-aware clock accounting (see the
    /// module docs), and returns the drained [`CompletionQueue`].
    pub fn ring(&mut self, list: &DescList) -> CompletionQueue {
        if list.is_empty() {
            return CompletionQueue { results: Vec::new(), status: Ok(()) };
        }
        self.traced(VerbKind::Pipeline, |c| -> Result<CompletionQueue> {
            Ok(commit_inner(c, &list.ops))
        })
        .expect("pipeline commit itself is infallible")
    }
}

impl std::ops::Deref for IssueQueue<'_> {
    type Target = DescList;

    fn deref(&self) -> &DescList {
        &self.list
    }
}

impl std::ops::DerefMut for IssueQueue<'_> {
    fn deref_mut(&mut self) -> &mut DescList {
        &mut self.list
    }
}

impl IssueQueue<'_> {
    /// Rings the doorbell ([`FabricClient::ring`]) for the posted list.
    pub fn commit(self) -> CompletionQueue {
        self.client.ring(&self.list)
    }
}

impl DescList {
    /// An empty list.
    pub fn new() -> DescList {
        DescList::default()
    }

    /// Posts a descriptor; returns its index (completion slot).
    pub fn post(&mut self, op: PipeOp) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Posts a read of `len` bytes at `addr`.
    pub fn read(&mut self, addr: FarAddr, len: u64) -> usize {
        self.post(PipeOp::Read { addr, len })
    }

    /// Posts a write of `data` at `addr`.
    pub fn write(&mut self, addr: FarAddr, data: &[u8]) -> usize {
        self.post(PipeOp::Write { addr, data: data.to_vec() })
    }

    /// Posts a word read at `addr`.
    pub fn read_u64(&mut self, addr: FarAddr) -> usize {
        self.post(PipeOp::ReadU64 { addr })
    }

    /// Posts a word write at `addr`.
    pub fn write_u64(&mut self, addr: FarAddr, value: u64) -> usize {
        self.post(PipeOp::WriteU64 { addr, value })
    }

    /// Posts a compare-and-swap at `addr`.
    pub fn cas(&mut self, addr: FarAddr, expected: u64, new: u64) -> usize {
        self.post(PipeOp::Cas { addr, expected, new })
    }

    /// Posts a fetch-and-add at `addr`.
    pub fn faa(&mut self, addr: FarAddr, delta: u64) -> usize {
        self.post(PipeOp::Faa { addr, delta })
    }

    /// Posts a pointer-dereferencing read (`load0`).
    pub fn load0(&mut self, ptr: FarAddr, len: u64) -> usize {
        self.post(PipeOp::Load2 { ptr, index: 0, len })
    }

    /// Posts a tagged pointer-dereferencing read (`load0_tagged`).
    pub fn load0_tagged(&mut self, ptr: FarAddr) -> usize {
        self.post(PipeOp::Load0Tagged { ptr })
    }

    /// Posts an offset pointer-dereferencing read (`load2`).
    pub fn load2(&mut self, ptr: FarAddr, index: u64, len: u64) -> usize {
        self.post(PipeOp::Load2 { ptr, index, len })
    }

    /// Posts a guarded fetch-add-and-indirect-swap (`faai_swap_guarded`).
    pub fn faai_swap_guarded(
        &mut self,
        ptr: FarAddr,
        delta: u64,
        replacement: u64,
        guard: FarAddr,
        expect: u64,
    ) -> usize {
        self.post(PipeOp::FaaiSwapGuarded { ptr, delta, replacement, guard, expect })
    }

    /// Number of posted descriptors.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether no descriptors have been posted.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Executes one doorbell's descriptors against `c`. Runs inside a single
/// traced [`VerbKind::Pipeline`] verb.
fn commit_inner(c: &mut FabricClient, ops: &[PipeOp]) -> CompletionQueue {
    let one_way = c.fabric().cost().one_way_ns();
    let start_ns = c.now_ns();
    let mut results: Vec<Option<Result<PipeOut>>> = Vec::with_capacity(ops.len());
    let mut max_completion = start_ns;
    let mut serial_sum_ns = 0u64;
    let mut completed = 0usize;
    let mut completed_effects = 0usize;
    let mut first_err: Option<FabricError> = None;

    for op in ops {
        if first_err.is_some() {
            // The queue is in error state: the tail is never executed.
            results.push(None);
            continue;
        }
        // Per-descriptor transparent retry: `retrying` + `begin_attempt`
        // give this descriptor exactly the serial verb's fault handling
        // (fault charges, backoff, `retries`/`giveups` counters), without
        // touching its neighbours. Fault-free descriptors all see the same
        // `arrival()` because nothing below advances the clock.
        let res = c.retrying(|c| {
            c.begin_attempt()?;
            let arrival = c.arrival();
            let (out, finish) = c.exec_op(op, arrival)?;
            Ok((out, finish, arrival))
        });
        match res {
            Ok((out, finish, arrival)) => {
                // Serial-identical counting: one dependent round trip per
                // descriptor (the clock is advanced once, below, to the max
                // completion — that is the only difference from the serial
                // path).
                let stats = c.stats_mut();
                stats.round_trips += 1;
                stats.pipelined_ops += 1;
                let completion = finish + one_way;
                max_completion = max_completion.max(completion);
                serial_sum_ns += completion - (arrival - one_way);
                completed += 1;
                if op.has_side_effect() {
                    completed_effects += 1;
                }
                results.push(Some(Ok(out)));
            }
            Err(e) => {
                first_err = Some(e.clone());
                results.push(Some(Err(e)));
            }
        }
    }

    c.clock_advance_to(max_completion);
    let elapsed = c.now_ns() - start_ns;
    let stats = c.stats_mut();
    stats.doorbells += 1;
    stats.overlap_saved_ns += serial_sum_ns.saturating_sub(elapsed);

    let status = match first_err {
        None => Ok(()),
        Some(e) => {
            if completed_effects > 0 {
                Err(FabricError::PipelineTorn {
                    completed,
                    failed: ops.len() - completed,
                })
            } else {
                Err(e)
            }
        }
    };
    CompletionQueue { results, status }
}

impl FabricClient {
    /// The one executor of a far op, however it is sent — alone
    /// ([`issue`](Self::issue)), in a fenced batch
    /// ([`exec_batch`](Self::exec_batch)) or behind a doorbell: arriving
    /// at `arrival`, runs the `exec_*` function its blocking verb runs, so
    /// messages / bytes / atomics are the serial verb's by construction.
    /// Returns the answer and the node-side finish time; an error the
    /// node answered with carries its answer time ([`ErrorCompletion`]).
    pub(crate) fn exec_op<B: AsRef<[u8]>>(
        &mut self,
        op: &PipeOp<B>,
        arrival: u64,
    ) -> std::result::Result<(PipeOut, u64), ErrorCompletion> {
        Ok(match op {
            PipeOp::Read { addr, len } => {
                let (buf, f) = self.exec_read(AccessKind::Read, *addr, *len, arrival)?;
                (PipeOut::Bytes(buf), f)
            }
            PipeOp::ReadSpeculative { addr, len } => {
                let (buf, f) = self.exec_read(AccessKind::SpeculativeRead, *addr, *len, arrival)?;
                (PipeOut::Bytes(buf), f)
            }
            PipeOp::Write { addr, data } => {
                (PipeOut::Done, self.exec_write(*addr, data.as_ref(), arrival)?)
            }
            PipeOp::ReadU64 { addr } => {
                let (v, f) = self.exec_read_u64(*addr, arrival)?;
                (PipeOut::Value(v), f)
            }
            PipeOp::WriteU64 { addr, value } => {
                (PipeOut::Done, self.exec_write_u64(*addr, *value, arrival)?)
            }
            PipeOp::Cas { addr, expected, new } => {
                let (prev, f) = self.exec_cas(*addr, *expected, *new, arrival)?;
                (PipeOut::Value(prev), f)
            }
            PipeOp::Faa { addr, delta } => {
                let (prev, f) = self.exec_faa(*addr, *delta, arrival)?;
                (PipeOut::Value(prev), f)
            }
            PipeOp::Load2 { ptr, index, len } => {
                let access = TargetAccess::Read(*len);
                loaded(self.exec_deref(*ptr, PtrRead::Plain, *index, access, arrival))?
            }
            PipeOp::Load0Tagged { ptr } => self.exec_load0(*ptr, arrival)?,
            PipeOp::FaaiSwapGuarded { ptr, delta, replacement, guard, expect } => {
                let (delta, guard, expect) = (*delta, *guard, *expect);
                let read = PtrRead::GuardedFetchAdd { delta, guard, expect };
                let ((old_ptr, old), f) =
                    self.exec_deref(*ptr, read, 0, TargetAccess::Swap(*replacement), arrival)?;
                (PipeOut::PtrWord { ptr: old_ptr, word: old.value() }, f)
            }
            PipeOp::Fenced(ops) => {
                let (outs, f) = self.exec_batch(ops, arrival)?;
                (PipeOut::Batch(outs), f)
            }
        })
    }

    /// Sends one op alone and waits for its answer: booked exactly as its
    /// blocking verb books it — the same [`VerbKind`], round trip, fault
    /// roll and retries — and answered as a fenced batch or a descriptor
    /// would answer it (a null pointer under a load is
    /// [`PipeOut::Null`], not an error). The runtime's serial doorbell.
    pub fn issue<B: AsRef<[u8]>>(&mut self, op: &PipeOp<B>) -> Result<PipeOut> {
        self.round_trip(op.verb_kind(), |c, arrival| c.exec_op(op, arrival))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{NodeId, Striping, PAGE, WORD};
    use crate::cost::CostModel;
    use crate::fabric::FabricConfig;
    use crate::fault::FaultPlan;
    use crate::stats::AccessStats;

    fn striped(nodes: u32, cost: CostModel) -> std::sync::Arc<crate::fabric::Fabric> {
        FabricConfig {
            nodes,
            node_capacity: 1 << 20,
            striping: Striping::Striped { stripe: PAGE },
            cost,
            ..FabricConfig::default()
        }
        .build()
    }

    /// Page-aligned addresses landing on distinct nodes of a 4-node
    /// striped map.
    fn spread_addrs(n: u64) -> Vec<FarAddr> {
        (0..n).map(|i| FarAddr(PAGE * (i + 1))).collect()
    }

    #[test]
    fn pipelined_reads_match_serial_counts_but_overlap_time() {
        let addrs = spread_addrs(8);
        let payload = vec![0x5au8; 2048];

        // Serial baseline.
        let f1 = striped(4, CostModel::DEFAULT);
        let mut serial = f1.client();
        for a in &addrs {
            serial.write(*a, &payload).unwrap();
        }
        let s0 = serial.stats();
        let t0 = serial.now_ns();
        let mut serial_data = Vec::new();
        for a in &addrs {
            serial_data.push(serial.read(*a, payload.len() as u64).unwrap());
        }
        let serial_delta = serial.stats().since(&s0);
        let serial_ns = serial.now_ns() - t0;

        // Pipelined run on an identical fresh fabric.
        let f2 = striped(4, CostModel::DEFAULT);
        let mut piped = f2.client();
        for a in &addrs {
            piped.write(*a, &payload).unwrap();
        }
        let p0 = piped.stats();
        let t1 = piped.now_ns();
        let mut q = piped.pipeline();
        for a in &addrs {
            q.read(*a, payload.len() as u64);
        }
        let cq = q.commit();
        cq.status().unwrap();
        let outs = cq.into_outputs().unwrap();
        let piped_delta = piped.stats().since(&p0);
        let piped_ns = piped.now_ns() - t1;

        // Data and access counts are byte-identical to the serial path.
        for (o, s) in outs.iter().zip(serial_data.iter()) {
            assert_eq!(o.bytes(), &s[..]);
        }
        assert_eq!(piped_delta.round_trips, serial_delta.round_trips);
        assert_eq!(piped_delta.messages, serial_delta.messages);
        assert_eq!(piped_delta.bytes_read, serial_delta.bytes_read);
        // Virtual time overlaps: 8 reads over 4 nodes complete well under
        // 8 serial round trips.
        assert!(
            piped_ns * 2 <= serial_ns,
            "pipelined {piped_ns} ns vs serial {serial_ns} ns"
        );
        assert_eq!(piped_delta.doorbells, 1);
        assert_eq!(piped_delta.pipelined_ops, 8);
        // The saved time is the per-descriptor completion-latency sum minus
        // the elapsed time; sibling queueing at the nodes only inflates the
        // per-descriptor latencies, so it bounds the true serial saving
        // from above.
        assert!(
            piped_delta.overlap_saved_ns >= serial_ns - piped_ns,
            "saved {} < serial delta {}",
            piped_delta.overlap_saved_ns,
            serial_ns - piped_ns
        );
    }

    #[test]
    fn same_node_chains_stay_fifo_serialized() {
        // All descriptors target node 0: the interface queue serializes
        // their service, so elapsed >= RTT + n * service.
        let f = striped(1, CostModel::DEFAULT);
        let mut c = f.client();
        let len = 4096u64;
        for i in 1..=4u64 {
            c.write(FarAddr(PAGE * i), &vec![1u8; len as usize]).unwrap();
        }
        let t0 = c.now_ns();
        let mut q = c.pipeline();
        for i in 1..=4u64 {
            q.read(FarAddr(PAGE * i), len);
        }
        q.commit().status().unwrap();
        let elapsed = c.now_ns() - t0;
        let cost = CostModel::DEFAULT;
        let min = cost.far_rtt_ns + 4 * (cost.node_msg_ns + cost.bytes_ns(len));
        assert!(elapsed >= min, "elapsed {elapsed} < FIFO bound {min}");
    }

    #[test]
    fn mixed_ops_complete_with_serial_semantics() {
        let f = striped(4, CostModel::COUNT_ONLY);
        let mut c = f.client();
        c.write_u64(FarAddr(PAGE), 10).unwrap();
        c.write_u64(FarAddr(PAGE * 2), 4).unwrap();
        // Pointer for load0 at PAGE*3, pointing at PAGE (value 10).
        c.write_u64(FarAddr(PAGE * 3), PAGE).unwrap();
        let before = c.stats();
        let mut q = c.pipeline();
        let i_faa = q.faa(FarAddr(PAGE), 5);
        let i_cas = q.cas(FarAddr(PAGE * 2), 4, 9);
        let i_w = q.write_u64(FarAddr(PAGE * 4), 77);
        let i_g = q.post(PipeOp::Fenced(vec![
            BatchOp::Read { addr: FarAddr(PAGE), len: 8 },
            BatchOp::Read { addr: FarAddr(PAGE * 2), len: 8 },
        ]));
        let i_l = q.load0(FarAddr(PAGE * 3), 8);
        let mut cq = q.commit();
        cq.status().unwrap();
        assert_eq!(cq.take(i_faa).unwrap().unwrap().value(), 10);
        assert_eq!(cq.take(i_cas).unwrap().unwrap().value(), 4);
        assert_eq!(cq.take(i_w).unwrap().unwrap(), PipeOut::Done);
        let Some(Ok(PipeOut::Batch(g))) = cq.take(i_g) else { panic!("a fenced completion") };
        assert_eq!(g[0].bytes(), 15u64.to_le_bytes());
        assert_eq!(g[1].bytes(), 9u64.to_le_bytes());
        // load0 sees the post-FAA value or the pre-FAA value depending on
        // descriptor order at the node; here FAA (descriptor 0) executes
        // first at the shared arrival, so the target holds 15.
        let l = cq.take(i_l).unwrap().unwrap().into_bytes();
        assert_eq!(u64::from_le_bytes(l.try_into().unwrap()), 15);
        assert_eq!(c.read_u64(FarAddr(PAGE * 4)).unwrap(), 77);
        let d = c.stats().since(&before);
        // faa + cas + write + fenced reads + load0, minus the verification
        // read.
        assert_eq!(d.round_trips, 5 + 1);
        assert_eq!(d.atomics, 2);
        assert_eq!(d.pipelined_ops, 5);
        assert_eq!(d.doorbells, 1);
    }

    #[test]
    fn torn_pipeline_surfaces_partial_completion() {
        // Node 1 is permanently failed; a write that completed on node 0
        // before the failing descriptor makes the commit torn.
        let f = striped(2, CostModel::COUNT_ONLY);
        let mut c = f.client();
        f.node(NodeId(1)).fail();
        let mut q = c.pipeline();
        q.write_u64(FarAddr(PAGE * 2), 1); // stripe 2 -> node 0: completes
        q.write_u64(FarAddr(PAGE), 2); // stripe 1 -> node 1: fails
        q.write_u64(FarAddr(PAGE * 4), 3); // node 0 again: aborted
        let mut cq = q.commit();
        match cq.status() {
            Err(FabricError::PipelineTorn { completed, failed }) => {
                assert_eq!(completed, 1);
                assert_eq!(failed, 2);
            }
            other => panic!("expected PipelineTorn, got {other:?}"),
        }
        assert!(!FabricError::PipelineTorn { completed: 1, failed: 2 }.is_transient());
        // The completed descriptor's result stays drainable; the aborted
        // tail was never attempted.
        assert_eq!(cq.take(0).unwrap().unwrap(), PipeOut::Done);
        assert!(matches!(cq.take(1), Some(Err(_))));
        assert!(cq.take(2).is_none());
        // The completed write really applied; the aborted one did not.
        f.node(NodeId(1)).recover();
        assert_eq!(c.read_u64(FarAddr(PAGE * 2)).unwrap(), 1);
        assert_eq!(c.read_u64(FarAddr(PAGE * 4)).unwrap(), 0);
        // Retries were spent on the failing descriptor alone.
        assert!(c.stats().retries > 0);
        assert_eq!(c.stats().giveups, 1);
    }

    #[test]
    fn read_only_pipeline_failure_is_not_torn() {
        let f = striped(2, CostModel::COUNT_ONLY);
        let mut c = f.client();
        f.node(NodeId(1)).fail();
        let mut q = c.pipeline();
        q.read_u64(FarAddr(PAGE * 2));
        q.read_u64(FarAddr(PAGE));
        let cq = q.commit();
        assert!(
            matches!(cq.status(), Err(FabricError::NodeFailed(_))),
            "reads-only failure surfaces the plain error: {:?}",
            cq.status()
        );
    }

    /// A null pointer under a read-only load is the load's answer: its
    /// slot completes as `PipeOut::Null`, the tail still executes, and it
    /// books what the blocking verb books for its `NullDeref` — the round
    /// trip and the clock of the home node's answer. Any failure aborts
    /// the tail: a null pointer under the guarded claim, a side effect, is
    /// one.
    #[test]
    fn a_null_pointer_under_a_read_aborts_nothing() {
        let f = striped(1, CostModel::DEFAULT);
        let mut c = f.client();
        let (null_ptr, ptr, guard) = (FarAddr(WORD), FarAddr(2 * WORD), FarAddr(3 * WORD));
        c.write_u64(ptr, PAGE).unwrap();
        c.write_u64(FarAddr(PAGE), 7).unwrap();
        let seven = PipeOut::Loaded { ptr: PAGE, bytes: 7u64.to_le_bytes().to_vec() };
        let elapsed = |c: &mut FabricClient, first: FarAddr| {
            let (before, t0) = (c.stats(), c.now_ns());
            let mut q = c.pipeline();
            q.load0(first, WORD);
            q.load0(ptr, WORD);
            q.load0(ptr, WORD);
            (q.commit(), c.stats().since(&before), c.now_ns() - t0)
        };
        let (mut cq, d, absent_ns) = elapsed(&mut c, null_ptr);
        cq.status().unwrap();
        assert_eq!(cq.take(0), Some(Ok(PipeOut::Null)));
        assert_eq!(cq.take(1), Some(Ok(seven.clone())));
        assert_eq!(cq.take(2), Some(Ok(seven)));
        assert_eq!((d.pipelined_ops, d.round_trips, d.messages, d.doorbells), (3, 3, 3, 1));
        let (cq, d, present_ns) = elapsed(&mut c, ptr);
        cq.status().unwrap();
        assert_eq!((d.pipelined_ops, d.round_trips, d.messages), (3, 3, 3));
        // Same doorbell, one target read less at the node.
        let cost = CostModel::DEFAULT;
        assert_eq!(present_ns - absent_ns, cost.node_msg_ns + cost.bytes_ns(WORD));

        // One null load alone, blocking and posted, in both flavours.
        for tagged in [false, true] {
            let (before, t0) = (c.stats(), c.now_ns());
            let err = if tagged {
                c.load0_tagged(null_ptr).map(drop)
            } else {
                c.load0(null_ptr, WORD).map(drop)
            };
            assert!(matches!(err, Err(FabricError::NullDeref { .. })), "tagged {tagged}");
            let (serial, serial_ns) = (c.stats().since(&before), c.now_ns() - t0);
            let (before, t0) = (c.stats(), c.now_ns());
            let mut q = c.pipeline();
            if tagged {
                q.load0_tagged(null_ptr);
            } else {
                q.load0(null_ptr, WORD);
            }
            assert_eq!(q.commit().into_outputs().unwrap(), [PipeOut::Null], "tagged {tagged}");
            let (posted, posted_ns) = (c.stats().since(&before), c.now_ns() - t0);
            for (i, field) in AccessStats::FIELD_NAMES.iter().enumerate() {
                if !matches!(*field, "doorbells" | "pipelined_ops") {
                    let (s, p) = (serial.to_array()[i], posted.to_array()[i]);
                    assert_eq!(p, s, "tagged {tagged}: field `{field}`");
                }
            }
            assert_eq!((serial.round_trips, posted_ns), (1, serial_ns), "tagged {tagged}");
        }

        let mut q = c.pipeline();
        q.faai_swap_guarded(null_ptr, WORD, 0, guard, 0);
        q.load0(ptr, WORD);
        let mut cq = q.commit();
        assert!(matches!(cq.take(0), Some(Err(FabricError::NullDeref { .. }))));
        assert!(cq.take(1).is_none(), "a failed claim aborts the tail");
    }

    #[test]
    fn per_descriptor_faults_retry_transparently() {
        let f = FabricConfig {
            nodes: 4,
            node_capacity: 1 << 20,
            striping: Striping::Striped { stripe: PAGE },
            faults: FaultPlan::transient(100_000), // 10 % per attempt
            ..FabricConfig::count_only(1 << 20)
        }
        .build();
        let mut c = f.client();
        for round in 0..50u64 {
            let mut q = c.pipeline();
            for i in 0..8u64 {
                q.write_u64(FarAddr(PAGE * (i + 1)), round * 8 + i);
            }
            q.commit().status().unwrap();
            let mut q = c.pipeline();
            for i in 0..8u64 {
                q.read_u64(FarAddr(PAGE * (i + 1)));
            }
            let outs = q.commit().into_outputs().unwrap();
            for (i, o) in outs.iter().enumerate() {
                assert_eq!(o.value(), round * 8 + i as u64);
            }
        }
        let s = c.stats();
        assert!(s.faults_injected > 0, "plan must have injected faults");
        assert!(s.retries > 0, "descriptors must have retried individually");
        assert_eq!(s.giveups, 0);
        assert_eq!(s.pipelined_ops, 800);
        assert_eq!(s.doorbells, 100);
    }

    #[test]
    fn tracing_attributes_pipeline_verbs_and_reconciles() {
        let f = striped(4, CostModel::DEFAULT);
        let mut c = f.client();
        c.enable_tracing(crate::trace::TraceConfig::default());
        {
            let _s = c.span("pipeline.workload");
            let mut q = c.pipeline();
            for i in 0..8u64 {
                q.write_u64(FarAddr(PAGE * (i + 1)), i);
            }
            q.commit().status().unwrap();
        }
        let r = c.trace_report().unwrap();
        r.reconcile().unwrap_or_else(|field| {
            panic!("pipelined stats diverge from span sums on `{field}`")
        });
        let span = r.spans.iter().find(|s| s.name == "pipeline.workload").unwrap();
        assert_eq!(span.stats.doorbells, 1);
        assert_eq!(span.stats.pipelined_ops, 8);
        assert!(span.stats.overlap_saved_ns > 0);
        assert!(r
            .verbs
            .iter()
            .any(|v| v.kind == VerbKind::Pipeline && v.count == 1));
    }

    #[test]
    fn tracing_is_pure_observation_for_pipelines() {
        let run = |traced: bool| -> (AccessStats, u64) {
            let f = FabricConfig {
                nodes: 4,
                node_capacity: 1 << 20,
                striping: Striping::Striped { stripe: PAGE },
                faults: FaultPlan::transient(50_000),
                ..FabricConfig::default()
            }
            .build();
            let mut c = f.client();
            if traced {
                c.enable_tracing(crate::trace::TraceConfig::default());
            }
            for round in 0..10u64 {
                let mut q = c.pipeline();
                for i in 0..8u64 {
                    q.write_u64(FarAddr(PAGE * (i + 1)), round + i);
                }
                q.commit().status().unwrap();
            }
            (c.stats(), c.now_ns())
        };
        let (plain, plain_ns) = run(false);
        let (traced, traced_ns) = run(true);
        assert_eq!(plain, traced);
        assert_eq!(plain_ns, traced_ns);
    }

    #[test]
    fn empty_commit_is_free() {
        let f = striped(2, CostModel::DEFAULT);
        let mut c = f.client();
        let before = c.stats();
        let t0 = c.now_ns();
        let cq = c.pipeline().commit();
        assert!(cq.is_empty());
        cq.status().unwrap();
        assert_eq!(c.stats(), before);
        assert_eq!(c.now_ns(), t0);
    }

    /// Pipelined `load2` and `load0_tagged` descriptors book exactly the
    /// serial indirect verbs' round trips, messages, bytes and hops — the
    /// property the far-structure adopters (`FarVec::read_ranges`,
    /// `HtTree::get_many`) rely on.
    #[test]
    fn pipelined_indirect_matches_serial_charges() {
        let serial_f = striped(2, CostModel::DEFAULT);
        let piped_f = striped(2, CostModel::DEFAULT);
        // Same layout on both fabrics: a plain and a tagged pointer word on
        // node 0 whose targets lie in the second page (node 1 under PAGE
        // striping).
        let (plain, tagged) = (FarAddr(WORD), FarAddr(2 * WORD));
        for f in [&serial_f, &piped_f] {
            let mut c = f.client();
            c.write_u64(plain, PAGE).unwrap();
            c.write_u64(tagged, PAGE | 3).unwrap();
            c.write(FarAddr(PAGE), &vec![7u8; 256]).unwrap();
        }

        let mut sc = serial_f.client();
        let sv = sc.load2(plain, 64, 128).unwrap();
        let (sptr, sblock) = sc.load0_tagged(tagged).unwrap();
        let serial = sc.stats();

        let mut pc = piped_f.client();
        let mut q = pc.pipeline();
        q.load2(plain, 64, 128);
        q.load0_tagged(tagged);
        let outs = q.commit().into_outputs().unwrap();
        assert_eq!(outs[0].bytes(), &sv[..]);
        assert_eq!(outs[1], PipeOut::Loaded { ptr: sptr, bytes: sblock });
        let piped = pc.stats();

        assert_eq!(piped.round_trips, serial.round_trips);
        assert_eq!(piped.messages, serial.messages);
        assert_eq!(piped.bytes_read, serial.bytes_read);
        assert_eq!(piped.forward_hops, serial.forward_hops);
        assert_eq!((serial.bytes_read, serial.forward_hops), (128 + 64, 2));
    }

    /// Error completions of the guarded claim against the serial verb,
    /// field for field: a null pointer, a target off the pointer's node
    /// (refused in either `IndirectionMode`) and a guard mismatch book
    /// the same messages, bytes, atomics and observed accesses either way
    /// — the pointer read is `observe`d even when the verb then fails. The
    /// one asymmetry (DESIGN.md §7): the blocking verb waited for the
    /// node's answer and charges that round trip on its clock; a failed
    /// descriptor books its message but no round trip of its own.
    #[test]
    fn pipelined_error_completions_match_serial_bookings() {
        use crate::check::{Access, AccessKind, CheckObserver};
        use crate::fabric::IndirectionMode;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Log(Mutex<Vec<(AccessKind, FarAddr, u64)>>);
        impl CheckObserver for Log {
            fn access(&self, a: &Access) {
                self.0.lock().unwrap().push((a.kind, a.addr, a.len));
            }
        }

        // Pointer and guard words on node 0; PAGE is node 1's first stripe.
        let (ptr, guard) = (FarAddr(WORD), FarAddr(2 * WORD));
        let claim =
            |expect| PipeOp::FaaiSwapGuarded { ptr, delta: WORD, replacement: 0, guard, expect };
        type Expect = fn(&FabricError) -> bool;
        let cases: [(&str, IndirectionMode, u64, PipeOp, Expect); 4] = [
            ("null/guarded", IndirectionMode::Forward, 0, claim(0), |e| {
                matches!(e, FabricError::NullDeref { .. })
            }),
            ("off-node/guarded/forward", IndirectionMode::Forward, PAGE, claim(0), |e| {
                matches!(e, FabricError::BadIovec { .. })
            }),
            ("off-node/guarded/error", IndirectionMode::Error, PAGE, claim(0), |e| {
                matches!(e, FabricError::BadIovec { .. })
            }),
            ("guard mismatch", IndirectionMode::Forward, 2 * PAGE, claim(7), |e| {
                matches!(e, FabricError::GuardMismatch { observed: 0 })
            }),
        ];
        for (name, mode, ptr_val, op, expected) in cases {
            let run = |piped: bool| {
                let f = FabricConfig {
                    nodes: 2,
                    node_capacity: 1 << 20,
                    striping: Striping::Striped { stripe: PAGE },
                    indirection: mode,
                    ..FabricConfig::default()
                }
                .build();
                let mut c = f.client();
                c.write_u64(ptr, ptr_val).unwrap();
                let log = Arc::new(Log::default());
                f.install_check_observer(log.clone());
                let (before, t0) = (c.stats(), c.now_ns());
                let err = if piped {
                    let mut q = c.pipeline();
                    q.post(op.clone());
                    let cq = q.commit();
                    assert_eq!(cq.failed(), 1, "{name}");
                    cq.status().unwrap_err()
                } else {
                    match op.clone() {
                        PipeOp::FaaiSwapGuarded { ptr, delta, replacement, guard, expect } => c
                            .faai_swap_guarded(ptr, delta, replacement, guard, expect)
                            .unwrap_err(),
                        other => unreachable!("{other:?}"),
                    }
                };
                assert!(expected(&err), "{name}: {err:?}");
                let log = log.0.lock().unwrap().clone();
                (err, c.stats().since(&before), c.now_ns() - t0, c.read_u64(ptr).unwrap(), log)
            };
            let (serr, serial, serial_ns, sptr, slog) = run(false);
            let (perr, piped, piped_ns, pptr, plog) = run(true);
            assert_eq!(perr, serr, "{name}");
            assert_eq!(pptr, sptr, "{name}: pointer word after the failed verb");
            assert_eq!(plog, slog, "{name}: observed accesses");
            assert!(
                slog.iter().any(|&(_, addr, _)| addr == ptr)
                    || matches!(serr, FabricError::GuardMismatch { .. }),
                "{name}: the pointer read is observed"
            );
            for (i, field) in AccessStats::FIELD_NAMES.iter().enumerate() {
                let (s, p) = (serial.to_array()[i], piped.to_array()[i]);
                match *field {
                    "round_trips" => assert_eq!((s, p), (1, 0), "{name}: answered round trip"),
                    "doorbells" => assert_eq!((s, p), (0, 1), "{name}"),
                    _ => assert_eq!(p, s, "{name}: field `{field}`"),
                }
            }
            assert_eq!(serial.messages, 1, "{name}: the failed verb books its message");
            assert!(serial_ns > 0, "{name}: the blocking verb waited for the answer");
            assert_eq!(piped_ns, 0, "{name}: a failed descriptor completes nothing");
        }
    }

    /// One cross-node target on an `IndirectionMode::Error` fabric, read
    /// three ways — the blocking `load0`, a blocking batch's `Load2` and a
    /// doorbell's `Load2` — returns the same bytes and books the same
    /// counts and clock (but for the doorbell's own two counters): the
    /// refused round trip, the reissued read, one reissue, no hop.
    #[test]
    fn a_refused_target_books_alike_blocking_batched_and_posted() {
        use crate::fabric::IndirectionMode;
        let (ptr, target) = (FarAddr(WORD), FarAddr(PAGE));
        let runs = ["blocking", "batched", "posted"].map(|how| {
            let f = FabricConfig {
                nodes: 2,
                node_capacity: 1 << 20,
                striping: Striping::Striped { stripe: PAGE },
                indirection: IndirectionMode::Error,
                ..FabricConfig::default()
            }
            .build();
            let mut c = f.client();
            c.write_u64(ptr, target.0).unwrap();
            c.write(target, &[3u8; 48]).unwrap();
            let (before, t0) = (c.stats(), c.now_ns());
            let bytes = match how {
                "blocking" => c.load0(ptr, 48).unwrap(),
                "batched" => {
                    let outs = c.batch(&[BatchOp::Load2 { ptr, index: 0, len: 48 }]).unwrap();
                    outs[0].bytes().to_vec()
                }
                _ => {
                    let mut q = c.pipeline();
                    q.load0(ptr, 48);
                    q.commit().into_outputs().unwrap().remove(0).into_bytes()
                }
            };
            (bytes, c.stats().since(&before), c.now_ns() - t0)
        });
        let (bytes, stats, ns) = &runs[0];
        assert_eq!(bytes, &vec![3u8; 48]);
        assert_eq!((stats.round_trips, stats.reissues, stats.forward_hops), (2, 1, 0));
        assert_eq!((stats.messages, stats.bytes_read), (2, 48));
        for (how, (b, s, t)) in ["batched", "posted"].iter().zip(&runs[1..]) {
            assert_eq!((b, t), (bytes, ns), "{how}");
            for (i, field) in AccessStats::FIELD_NAMES.iter().enumerate() {
                if !matches!(*field, "doorbells" | "pipelined_ops") {
                    assert_eq!(s.to_array()[i], stats.to_array()[i], "{how}: field `{field}`");
                }
            }
        }
    }

    /// A tagged `load0` read three ways — the blocking `load0_tagged`, a
    /// blocking batch's `Load0Tagged` and a doorbell's `Load0Tagged` —
    /// returns the same pointer word, tag included, and exactly the
    /// `16 × (1 + tag)` bytes the tag names, and books the same counts
    /// and clock (but for the doorbell's own two counters): for a block
    /// on the pointer's node, one forwarded off it, and one refused under
    /// `IndirectionMode::Error` and reissued.
    #[test]
    fn a_tagged_load0_books_alike_blocking_batched_and_posted() {
        use crate::fabric::IndirectionMode;
        use crate::{tagged_len, TAG_MASK};
        let ptr = FarAddr(WORD);
        let cases = [
            ("local", IndirectionMode::Error, FarAddr(2 * PAGE + 64), (1, 0, 0)),
            ("forwarded", IndirectionMode::Forward, FarAddr(PAGE + 64), (1, 0, 1)),
            ("reissued", IndirectionMode::Error, FarAddr(PAGE + 64), (2, 1, 0)),
        ];
        for (name, indirection, block, (round_trips, reissues, forward_hops)) in cases {
            // A block of two entries: tag 2, 48 bytes, then a neighbour's.
            let word = block.0 | 2;
            let runs = ["blocking", "batched", "posted"].map(|how| {
                let f = FabricConfig {
                    nodes: 2,
                    node_capacity: 1 << 20,
                    striping: Striping::Striped { stripe: PAGE },
                    indirection,
                    ..FabricConfig::default()
                }
                .build();
                let mut c = f.client();
                c.write_u64(ptr, word).unwrap();
                c.write(block, &[3u8; 48]).unwrap();
                c.write(block.offset(48), &[9u8; 16]).unwrap();
                let (before, t0) = (c.stats(), c.now_ns());
                let loaded = match how {
                    "blocking" => c.load0_tagged(ptr).unwrap(),
                    "batched" => match c.batch(&[BatchOp::Load0Tagged { ptr }]).unwrap().remove(0) {
                        PipeOut::Loaded { ptr, bytes } => (ptr, bytes),
                        other => panic!("{name}: {other:?}"),
                    },
                    _ => {
                        let mut q = c.pipeline();
                        q.load0_tagged(ptr);
                        match q.commit().into_outputs().unwrap().remove(0) {
                            PipeOut::Loaded { ptr, bytes } => (ptr, bytes),
                            other => panic!("{name}: {other:?}"),
                        }
                    }
                };
                (loaded, c.stats().since(&before), c.now_ns() - t0)
            });
            let (loaded, stats, ns) = &runs[0];
            assert_eq!(tagged_len(word), 48);
            assert_eq!(loaded, &(word, vec![3u8; 48]), "{name}: the word, and its block only");
            assert_eq!(word & TAG_MASK, 2);
            let got = (stats.round_trips, stats.reissues, stats.forward_hops);
            assert_eq!(got, (round_trips, reissues, forward_hops), "{name}");
            assert_eq!(stats.bytes_read, 48, "{name}");
            for (how, (l, s, t)) in ["batched", "posted"].iter().zip(&runs[1..]) {
                assert_eq!((l, t), (loaded, ns), "{name}: {how}");
                for (i, field) in AccessStats::FIELD_NAMES.iter().enumerate() {
                    if !matches!(*field, "doorbells" | "pipelined_ops") {
                        assert_eq!(s.to_array()[i], stats.to_array()[i], "{name}, {how}: `{field}`");
                    }
                }
            }
        }
    }

    /// A lone [`PipeOp::Fenced`] descriptor is [`FabricClient::batch`]:
    /// the same outputs, the same `AccessStats` but for the doorbell's own
    /// two counters, and the same clock — for a null `Load2` (an answer,
    /// round trip charged), under transient faults (one roll per attempt,
    /// the whole batch retried), for a remote target refused under
    /// `IndirectionMode::Error` (reissued, one round trip more), and for
    /// the shape of a carried slot publish, `[Cas, Load0Tagged]`, whose
    /// CAS lands or loses. Then one row per op kind, sent alone
    /// ([`FabricClient::issue`]), as a batch of one and as a descriptor:
    /// the same [`PipeOut`] — an op answers with the same variant however
    /// it was sent — the same `AccessStats` but for the doorbell's two
    /// counters, and the same clock.
    #[test]
    fn a_fenced_descriptor_books_what_the_blocking_batch_books() {
        use crate::fabric::IndirectionMode;
        // The bucket word and a slot word on node 0, the item a bucket
        // names on node 1: 32 bytes, so a tag of 1 names all of them.
        const BUCKET: FarAddr = FarAddr(WORD);
        const SLOT: FarAddr = FarAddr(2 * WORD);
        const ITEM: FarAddr = FarAddr(PAGE);
        type Ops = fn(u64) -> Vec<BatchOp<'static>>;
        let lookup: Ops = |_| {
            vec![
                BatchOp::Load2 { ptr: BUCKET, index: 0, len: 32 },
                BatchOp::ReadSpeculative { addr: ITEM, len: 16 },
            ]
        };
        // The i-th publish expects the word the (i − 1)-th installed.
        let landing: Ops = |i| {
            let cas = BatchOp::Cas { addr: SLOT, expected: i, new: i + 1 };
            vec![cas, BatchOp::Load0Tagged { ptr: BUCKET }]
        };
        let losing: Ops = |_| {
            let cas = BatchOp::Cas { addr: SLOT, expected: 7, new: 8 };
            vec![cas, BatchOp::Load0Tagged { ptr: BUCKET }]
        };
        let (tagged, faulty) = (ITEM.0 | 1, FaultPlan::transient(400_000));
        let cases = [
            ("null load0", IndirectionMode::Forward, FaultPlan::NONE, 0, lookup),
            ("transient faults", IndirectionMode::Forward, faulty, ITEM.0, lookup),
            ("reissued remote target", IndirectionMode::Error, FaultPlan::NONE, ITEM.0, lookup),
            ("carried publish lands", IndirectionMode::Forward, FaultPlan::NONE, tagged, landing),
            ("carried publish loses", IndirectionMode::Forward, FaultPlan::NONE, tagged, losing),
        ];
        for (name, indirection, faults, pointer, ops) in cases {
            let run = |fenced: bool| {
                let f = FabricConfig {
                    nodes: 2,
                    node_capacity: 1 << 20,
                    striping: Striping::Striped { stripe: PAGE },
                    indirection,
                    faults,
                    ..FabricConfig::default()
                }
                .build();
                let mut c = f.client();
                c.write_u64(BUCKET, pointer).unwrap();
                c.write(ITEM, &[5u8; 32]).unwrap();
                let (before, t0) = (c.stats(), c.now_ns());
                let outs: Vec<Result<Vec<PipeOut>>> = (0..16)
                    .map(|i| {
                        if !fenced {
                            return c.batch(&ops(i));
                        }
                        let mut q = c.pipeline();
                        q.post(PipeOp::Fenced(ops(i)));
                        match q.commit().take(0) {
                            Some(Ok(PipeOut::Batch(outs))) => Ok(outs),
                            Some(Err(e)) => Err(e),
                            other => panic!("{name}: {other:?}"),
                        }
                    })
                    .collect();
                (outs, c.stats().since(&before), c.now_ns() - t0)
            };
            let (souts, serial, serial_ns) = run(false);
            let (pouts, piped, piped_ns) = run(true);
            assert_eq!(pouts, souts, "{name}");
            for (i, field) in AccessStats::FIELD_NAMES.iter().enumerate() {
                let (s, p) = (serial.to_array()[i], piped.to_array()[i]);
                if !matches!(*field, "doorbells" | "pipelined_ops") {
                    assert_eq!(p, s, "{name}: field `{field}`");
                }
            }
            let loaded = |ptr| PipeOut::Loaded { ptr, bytes: vec![5; 32] };
            match name {
                "null load0" => {
                    assert_eq!(souts[0], Ok(vec![PipeOut::Null, PipeOut::Bytes(vec![5; 16])]))
                }
                "transient faults" => assert!(serial.retries > 0, "{name}: {serial:?}"),
                "reissued remote target" => {
                    assert_eq!(souts[0], Ok(vec![loaded(ITEM.0), PipeOut::Bytes(vec![5; 16])]));
                    assert_eq!((serial.round_trips, serial.reissues), (32, 16), "{name}");
                }
                _ => {
                    let lands = name.ends_with("lands");
                    for (i, out) in souts.iter().enumerate() {
                        let prev = if lands { i as u64 } else { 0 };
                        assert_eq!(out, &Ok(vec![PipeOut::Value(prev), loaded(tagged)]), "{name}");
                    }
                    let got = (serial.round_trips, serial.atomics, serial.forward_hops);
                    assert_eq!(got, (16, 16, 16), "{name}: one round trip, the CAS, the hop");
                }
            }
            assert_eq!(piped_ns, serial_ns, "{name}: clock");
        }

        // A plain pointer to the item on node 0; a queue head, its guard
        // and the slot the head names, all on node 0 (a guarded claim's
        // unit stays on its pointer's node).
        const PLAIN: FarAddr = FarAddr(3 * WORD);
        const HEAD: FarAddr = FarAddr(4 * WORD);
        const GUARD: FarAddr = FarAddr(5 * WORD);
        const QSLOT: FarAddr = FarAddr(2 * PAGE);
        fn row<B: From<&'static [u8]>>(kind: &str) -> PipeOp<B> {
            match kind {
                "Read" => PipeOp::Read { addr: ITEM, len: 32 },
                "ReadSpeculative" => PipeOp::ReadSpeculative { addr: ITEM, len: 16 },
                "Write" => PipeOp::Write { addr: ITEM, data: B::from(&[6u8; 24][..]) },
                "ReadU64" => PipeOp::ReadU64 { addr: BUCKET },
                "WriteU64" => PipeOp::WriteU64 { addr: SLOT, value: 9 },
                "Cas" => PipeOp::Cas { addr: SLOT, expected: 0, new: 1 },
                "Faa" => PipeOp::Faa { addr: SLOT, delta: 3 },
                "Load2" => PipeOp::Load2 { ptr: PLAIN, index: 8, len: 16 },
                "Load0Tagged" => PipeOp::Load0Tagged { ptr: BUCKET },
                "FaaiSwapGuarded" => PipeOp::FaaiSwapGuarded {
                    ptr: HEAD,
                    delta: WORD,
                    replacement: 0,
                    guard: GUARD,
                    expect: 0,
                },
                other => unreachable!("{other}"),
            }
        }
        let tagged = ITEM.0 | 1;
        let rows = [
            ("Read", PipeOut::Bytes(vec![5; 32])),
            ("ReadSpeculative", PipeOut::Bytes(vec![5; 16])),
            ("Write", PipeOut::Done),
            ("ReadU64", PipeOut::Value(tagged)),
            ("WriteU64", PipeOut::Done),
            ("Cas", PipeOut::Value(0)),
            ("Faa", PipeOut::Value(0)),
            ("Load2", PipeOut::Loaded { ptr: ITEM.0, bytes: vec![5; 16] }),
            ("Load0Tagged", PipeOut::Loaded { ptr: tagged, bytes: vec![5; 32] }),
            ("FaaiSwapGuarded", PipeOut::PtrWord { ptr: QSLOT.0, word: 11 }),
        ];
        for (kind, answer) in rows {
            let runs = ["alone", "batched", "posted"].map(|how| {
                let mut c = striped(2, CostModel::DEFAULT).client();
                c.write_u64(BUCKET, tagged).unwrap();
                c.write_u64(PLAIN, ITEM.0).unwrap();
                c.write_u64(HEAD, QSLOT.0).unwrap();
                c.write_u64(QSLOT, 11).unwrap();
                c.write(ITEM, &[5u8; 32]).unwrap();
                let (before, t0) = (c.stats(), c.now_ns());
                let out = match how {
                    "alone" => c.issue(&row::<&[u8]>(kind)).unwrap(),
                    "batched" => c.batch(&[row(kind)]).unwrap().remove(0),
                    _ => {
                        let mut q = c.pipeline();
                        q.post(row(kind));
                        q.commit().into_outputs().unwrap().remove(0)
                    }
                };
                (out, c.stats().since(&before), c.now_ns() - t0)
            });
            let (out, stats, ns) = &runs[0];
            assert_eq!(out, &answer, "{kind}");
            assert_eq!(stats.round_trips, 1, "{kind}");
            for (how, (o, s, t)) in ["batched", "posted"].iter().zip(&runs[1..]) {
                assert_eq!((o, t), (out, ns), "{kind}: {how}");
                for (i, field) in AccessStats::FIELD_NAMES.iter().enumerate() {
                    if !matches!(*field, "doorbells" | "pipelined_ops") {
                        let (got, want) = (s.to_array()[i], stats.to_array()[i]);
                        assert_eq!(got, want, "{kind}, {how}: `{field}`");
                    }
                }
            }
        }
    }
}
