//! Indirect addressing verbs (Fig. 1, §4.1).
//!
//! Indirect addressing dereferences a pointer held in far memory to
//! determine another far address to load or store, all inside the memory
//! node — avoiding a round trip whenever a data structure needs to follow
//! a pointer. The full Fig. 1 family is implemented:
//!
//! | verb | semantics |
//! |------|-----------|
//! | `load0(ad, ℓ)`        | `tmp = *ad; return *tmp` |
//! | `load0_tagged(ad)`    | `tmp = *ad; return (tmp & ~15)[0 .. 16 (1 + (tmp & 15))]` |
//! | `store0(ad, v, ℓ)`    | `tmp = *ad; *tmp = v` |
//! | `load1(ad, i, ℓ)`     | `tmp = *(ad + i); return *tmp` |
//! | `store1(ad, i, v, ℓ)` | `tmp = *(ad + i); *tmp = v` |
//! | `load2(ad, i, ℓ)`     | `tmp = (*ad) + i; return *tmp` |
//! | `store2(ad, i, v, ℓ)` | `tmp = (*ad) + i; *tmp = v` |
//! | `faai(ad, v, ℓ)`      | `tmp = *ad; *ad += v; return *tmp` |
//! | `saai(ad, v, v', ℓ)`  | `tmp = *ad; *ad += v; *tmp = v'` |
//! | `add0(ad, v)`         | `**ad += v` |
//! | `add1(ad, v, i)`      | `tmp = ad + i; **tmp += v` |
//! | `add2(ad, v, i)`      | `tmp = *ad + i; *tmp += v` |
//!
//! `load0_tagged` is `load0` for a pointer that carries its target's
//! length: a 16-B aligned block leaves the pointer's four low bits free,
//! and they hold a tag `t`, the block's length in 16-B units less one
//! (the HT-tree's bucket word, §5.2). The node holds the pointer word
//! when it dereferences, so the length costs no round trip, and the
//! read never leaves the block.
//!
//! (`faai`'s Fig. 1 pseudo-code returns the old pointer; the prose says it
//! "returns the value pointed by its old value", which is what the queue of
//! §5.3 needs — we follow the prose.)
//!
//! When the dereferenced target lives on a *different* memory node, the
//! behaviour follows the fabric's [`IndirectionMode`]
//! (§7.1): `Forward` completes the access with a memory-side hop; under
//! `Error` the home node refuses it, and the verb finishes the access
//! with the client's own second round trip — a plain read, write or
//! fetch-and-add at the target, booked as one reissue. Either way the
//! verb returns what it would on one node, so every caller uses the
//! Fig. 1 verb itself. A *guarded* verb is one atomic unit at its
//! pointer's node or nothing: an off-node target is refused with
//! [`FabricError::BadIovec`] in both modes, before the pointer moves.

use crate::addr::{FarAddr, NodeId, WORD};
use crate::check::AccessKind;
use crate::client::FabricClient;
use crate::error::{FabricError, Result};
use crate::fabric::IndirectionMode;
use crate::pipeline::PipeOut;
use crate::stats::AccessStats;
use crate::trace::VerbKind;

/// The length tag of a tagged pointer word
/// ([`load0_tagged`](FabricClient::load0_tagged)): its four low bits,
/// free in a pointer to a 16-B aligned block.
pub const TAG_MASK: u64 = 15;

/// Bytes a [`load0_tagged`](FabricClient::load0_tagged) reads through
/// the pointer word `word`: `16 × (1 + tag)`.
pub fn tagged_len(word: u64) -> u64 {
    16 * (1 + (word & TAG_MASK))
}

/// How an indirect verb reads its pointer word.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PtrRead {
    /// Plain load of the pointer.
    Plain,
    /// Plain load of a tagged pointer: the target is the word with its
    /// tag cleared, and the access a read of [`tagged_len`] bytes there
    /// (the access passed in is ignored).
    Tagged,
    /// Atomic fetch-and-add of `delta` (for `faai` / `saai`).
    FetchAdd(u64),
    /// Fetch-and-add performed only if a guard word (on the same node)
    /// holds the expected value — the conditional/masked-atomic flavour
    /// real NICs offer (e.g. ConnectX masked atomics), used by the §5.3
    /// queue to fence its fast path against slow-path repairs.
    GuardedFetchAdd {
        /// Added to the pointer word.
        delta: u64,
        /// Far address of the guard word (must share the pointer's node).
        guard: FarAddr,
        /// Required guard value.
        expect: u64,
    },
}

/// What the verb does at the dereferenced target.
#[derive(Clone, Copy)]
pub(crate) enum TargetAccess<'a> {
    /// Read `len` bytes.
    Read(u64),
    /// Write the given bytes.
    Write(&'a [u8]),
    /// Atomically add to the target word.
    Add(u64),
    /// Atomically swap the target word with a replacement (destructive
    /// read), returning the old contents. Guarded verbs only.
    Swap(u64),
}

impl TargetAccess<'_> {
    /// Bytes the access covers at the target.
    pub(crate) fn len(&self) -> u64 {
        match self {
            TargetAccess::Read(l) => *l,
            TargetAccess::Write(d) => d.len() as u64,
            TargetAccess::Add(_) | TargetAccess::Swap(_) => WORD,
        }
    }

    /// How the verification observer classifies the access.
    fn kind(&self) -> AccessKind {
        match self {
            TargetAccess::Read(_) => AccessKind::Read,
            TargetAccess::Write(_) => AccessKind::Write,
            TargetAccess::Add(_) | TargetAccess::Swap(_) => AccessKind::AtomicRmw,
        }
    }

    /// Books the payload bytes the completed access moved.
    fn book_bytes(&self, stats: &mut AccessStats) {
        match self {
            TargetAccess::Read(l) => stats.bytes_read += *l,
            TargetAccess::Swap(_) => stats.bytes_read += WORD,
            TargetAccess::Write(d) => stats.bytes_written += d.len() as u64,
            TargetAccess::Add(_) => {}
        }
    }
}

/// An indirect verb's error completion. `answered_at` is the node-side
/// time at which the pointer's home node *answered* with the error (null
/// pointer, guard mismatch, off-node guarded target): a blocking verb waited
/// for that answer and charges its round trip, a failed pipelined
/// descriptor books only its message (DESIGN.md §7) — a read-only load's
/// null pointer is no failure ([`loaded`]).
/// `None` when nothing answered — a dead node, a bad address.
pub(crate) struct ErrorCompletion {
    pub(crate) err: FabricError,
    pub(crate) answered_at: Option<u64>,
}

impl ErrorCompletion {
    fn answered(err: FabricError, at: u64) -> ErrorCompletion {
        ErrorCompletion { err, answered_at: Some(at) }
    }
}

/// A *read-only* pointer load's answer, however it was sent: the pointer
/// it was read through and the bytes ([`PipeOut::Loaded`]), or — for a
/// null pointer its home node answered with, the load's answer and not
/// its failure — [`PipeOut::Null`], finished when the node answered. It
/// books the round trip the blocking verb's `NullDeref` books.
pub(crate) fn loaded(
    deref: std::result::Result<((u64, PipeOut), u64), ErrorCompletion>,
) -> std::result::Result<(PipeOut, u64), ErrorCompletion> {
    match deref {
        Ok(((ptr, out), f)) => Ok((PipeOut::Loaded { ptr, bytes: out.into_bytes() }, f)),
        Err(ErrorCompletion { err: FabricError::NullDeref { .. }, answered_at: Some(at) }) => {
            Ok((PipeOut::Null, at))
        }
        Err(e) => Err(e),
    }
}

impl From<FabricError> for ErrorCompletion {
    fn from(err: FabricError) -> ErrorCompletion {
        ErrorCompletion { err, answered_at: None }
    }
}

impl From<ErrorCompletion> for FabricError {
    fn from(e: ErrorCompletion) -> FabricError {
        e.err
    }
}

impl FabricClient {
    /// The blocking form of every Fig. 1 indirect verb: one traced,
    /// retried round trip of [`exec_deref`](Self::exec_deref) (two when
    /// the target is reissued).
    /// Returns `(pointer value, completion)`. The pointer value is exposed
    /// because fabric completions for atomic verbs carry the old value
    /// anyway (RDMA fetch-and-add does); the §5.3 queue's background slack
    /// check depends on learning where its `faai`/`saai` landed.
    fn indirect(
        &mut self,
        ptr_addr: FarAddr,
        ptr_read: PtrRead,
        index: u64,
        access: TargetAccess<'_>,
    ) -> Result<(u64, PipeOut)> {
        self.round_trip(VerbKind::Indirect, |c, at| {
            c.exec_deref(ptr_addr, ptr_read, index, access, at)
        })
    }

    /// The one executor of every indirect verb, blocking or posted as a
    /// descriptor: arriving at `arrival`, reads the pointer at `ptr_addr`,
    /// offsets it by `index`, and performs `access` at the target —
    /// forwarded, or reissued by the client ([`reissue`](Self::reissue)),
    /// if the target is remote. Returns `((pointer value, completion),
    /// node-side finish time)`; books messages, bytes and atomics, and no
    /// round trip or clock movement but a reissue's refused round trip.
    ///
    /// A guarded verb executes as ONE atomic unit at the memory node
    /// (guard check, pointer bump, target access), so its target must
    /// share the pointer's node (§7.1 localized placement); an off-node
    /// target is refused before the pointer moves.
    ///
    /// Inlined into its four callers (the blocking wrapper, the `Load2`
    /// and `FaaiSwapGuarded` arms of `exec_op` and `exec_load0`), three of
    /// which fix `ptr_read` and the kind of `access`: the copies shed the
    /// flavours they cannot take. Left
    /// out of line, a `Load2` descriptor costs ~12 ns more on the host and
    /// `structures` loses 3.5 % `ops_per_s` (EXPERIMENTS.md, PR 14).
    #[inline(always)]
    pub(crate) fn exec_deref(
        &mut self,
        ptr_addr: FarAddr,
        ptr_read: PtrRead,
        index: u64,
        access: TargetAccess<'_>,
        arrival: u64,
    ) -> std::result::Result<((u64, PipeOut), u64), ErrorCompletion> {
        let cost = *self.fabric().cost();
        let mode = self.fabric().config().indirection;

        // Resolve the pointer at its home node, held through the
        // executor's own handle on the fabric so that it outlives the
        // client borrow the entry took.
        let (home_id, ptr_off) = self.word_home(ptr_addr)?;
        let fabric = self.fabric().clone();
        let home = fabric.node(self.enter(home_id, false, arrival)?.id());

        let len = access.len();

        // Pre-flight for destructive pointer reads: peek the pointer and
        // check the dereferenced target's nodes *before* the atomic bump,
        // so a crashed target fails the attempt with the pointer untouched
        // and a retry cannot bump it twice. (The peek is node-internal:
        // no message or round trip is charged.)
        let mut peeked = None;
        if matches!(
            ptr_read,
            PtrRead::FetchAdd(_) | PtrRead::GuardedFetchAdd { .. }
        ) {
            let peek = home.read_u64(ptr_off)?;
            if peek != 0 {
                if let Ok(segs) = fabric.segments(FarAddr(peek + index), len) {
                    for seg in segs {
                        self.enter(seg.node, false, arrival)?;
                    }
                    peeked = Some(FarAddr(peek + index));
                }
            }
        }

        let mut home_finish = home.occupy(arrival, cost.node_msg_ns + cost.node_ext_ns);
        self.stats_mut().messages += 1;
        // A refused target's reissue arrives one client round trip after
        // the home node's answer. The pre-flight covers it too: a bumped
        // pointer whose reissue then failed would be bumped again by the
        // retry.
        let reissue_at = home_finish + 2 * cost.one_way_ns();
        if let (Some(target), PtrRead::FetchAdd(_), IndirectionMode::Error) =
            (peeked, ptr_read, mode)
        {
            for seg in fabric.segments(target, len)?.filter(|s| s.node != home_id) {
                self.enter(seg.node, false, reissue_at)?;
            }
        }

        // The guarded flavour: one atomic unit at the home node.
        if let PtrRead::GuardedFetchAdd { delta, guard, expect } = ptr_read {
            let (guard_node, guard_off) = self.word_home(guard)?;
            if guard_node != home_id {
                return Err(ErrorCompletion::answered(
                    FabricError::BadIovec { reason: "guard word must live on the pointer's node" },
                    home_finish,
                ));
            }
            // Outcome of the atomic unit.
            enum Unit {
                /// Answered without moving the pointer.
                Refused(FabricError),
                Done { ptr: u64, out: PipeOut, fired: Option<(u64, u64)>, closed: bool },
            }
            let fabric2 = fabric.clone();
            let unit = home.guarded_verb(guard_off, expect, |n| {
                let ptr = n.words_raw(ptr_off)?.load(std::sync::atomic::Ordering::SeqCst);
                if ptr == 0 {
                    return Ok(Unit::Refused(FabricError::NullDeref { pointer_at: ptr_addr }));
                }
                let target = FarAddr(ptr + index);
                let mut segs = fabric2.segments(target, len)?;
                if segs.clone().any(|s| s.node != home_id) {
                    return Ok(Unit::Refused(FabricError::BadIovec {
                        reason: "guarded target must live on the pointer's node",
                    }));
                }
                // Bump + access inside the unit.
                n.words_raw(ptr_off)?
                    .fetch_add(delta, std::sync::atomic::Ordering::SeqCst);
                let seg = segs.next().expect("checked ranges are non-empty");
                debug_assert!(segs.next().is_none(), "single-node target is one segment");
                let (out, fired) = match &access {
                    TargetAccess::Read(l) => {
                        let mut buf = vec![0u8; *l as usize];
                        n.read_bytes(seg.offset, &mut buf)?;
                        (PipeOut::Bytes(buf), None)
                    }
                    TargetAccess::Write(data) => {
                        n.write_bytes(seg.offset, data)?;
                        (PipeOut::Done, Some((seg.offset, seg.len)))
                    }
                    TargetAccess::Swap(replacement) => {
                        if !target.is_aligned(WORD) {
                            return Err(FabricError::Unaligned {
                                addr: target,
                                required: WORD,
                            });
                        }
                        let old = n
                            .words_raw(seg.offset)?
                            .swap(*replacement, std::sync::atomic::Ordering::SeqCst);
                        (PipeOut::Value(old), Some((seg.offset, WORD)))
                    }
                    TargetAccess::Add(v) => {
                        if !target.is_aligned(WORD) {
                            return Err(FabricError::Unaligned {
                                addr: target,
                                required: WORD,
                            });
                        }
                        n.words_raw(seg.offset)?
                            .fetch_add(*v, std::sync::atomic::Ordering::SeqCst);
                        (PipeOut::Done, Some((seg.offset, WORD)))
                    }
                };
                // A swap that found its replacement already in place took
                // nothing: it closes the guard inside the same unit, so no
                // op expecting the old guard value lands behind it.
                let closed = matches!((&access, &out),
                    (TargetAccess::Swap(r), PipeOut::Value(old)) if old == r);
                if closed {
                    n.words_raw(guard_off)?.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                }
                Ok(Unit::Done { ptr, out, fired, closed })
            });
            self.stats_mut().atomics += 1;
            let service = cost.node_ext_ns + cost.bytes_ns(len);
            let finish = home.occupy(home_finish, service);
            // The guard word was probed atomically whatever the outcome.
            self.observe(AccessKind::AtomicRead, guard, WORD);
            match unit {
                Err(e) => return Err(ErrorCompletion::answered(e, home_finish)),
                Ok(Unit::Refused(e)) => {
                    self.observe(AccessKind::AtomicRead, ptr_addr, WORD);
                    return Err(ErrorCompletion::answered(e, home_finish));
                }
                Ok(Unit::Done { ptr, out, fired, closed }) => {
                    self.observe(AccessKind::AtomicRmw, ptr_addr, WORD);
                    self.observe(access.kind(), FarAddr(ptr + index), len);
                    // Notifications and replica mirrors fire outside the
                    // atomic unit; the mirrors fan out in parallel and the
                    // ack folds in the slowest one.
                    let mirrored = fabric.fire(self.stats_mut(), home_id, ptr_off, WORD, finish);
                    let mirrored = if closed {
                        self.observe(AccessKind::AtomicRmw, guard, WORD);
                        let at = fabric.fire(self.stats_mut(), home_id, guard_off, WORD, finish);
                        mirrored.max(at)
                    } else {
                        mirrored
                    };
                    let finish = if let Some((off, l)) = fired {
                        mirrored.max(fabric.fire(self.stats_mut(), home_id, off, l, finish))
                    } else {
                        mirrored
                    };
                    access.book_bytes(self.stats_mut());
                    return Ok(((ptr, out), finish));
                }
            }
        }

        let ptr = match ptr_read {
            PtrRead::Plain | PtrRead::Tagged => {
                let v = home.read_u64(ptr_off)?;
                self.observe(AccessKind::Read, ptr_addr, WORD);
                v
            }
            PtrRead::FetchAdd(delta) => {
                self.stats_mut().atomics += 1;
                let prev = home.faa_u64(ptr_off, delta)?;
                home_finish = fabric.fire(self.stats_mut(), home_id, ptr_off, WORD, home_finish);
                self.observe(AccessKind::AtomicRmw, ptr_addr, WORD);
                prev
            }
            PtrRead::GuardedFetchAdd { .. } => unreachable!("handled above"),
        };
        // A tagged pointer is null by its address alone.
        let null = match ptr_read {
            PtrRead::Tagged => ptr & !TAG_MASK == 0,
            _ => ptr == 0,
        };
        if null {
            return Err(ErrorCompletion::answered(
                FabricError::NullDeref { pointer_at: ptr_addr },
                home_finish,
            ));
        }
        let (target, access) = match ptr_read {
            PtrRead::Tagged => {
                (FarAddr((ptr & !TAG_MASK) + index), TargetAccess::Read(tagged_len(ptr)))
            }
            _ => (FarAddr(ptr + index), access),
        };
        let len = access.len();

        // §7.1: a dereferenced pointer may refer to data on a remote node.
        if mode == IndirectionMode::Error
            && fabric
                .segments(target, len)
                .map_err(|e| ErrorCompletion::answered(e, home_finish))?
                .any(|s| s.node != home_id)
        {
            let (out, finish) = self.reissue(target, access, reissue_at, home_finish)?;
            return Ok(((ptr, out), finish));
        }
        let (out, finish) = self.exec_at_target(target, access, home_id, arrival, home_finish)?;
        Ok(((ptr, out), finish))
    }

    /// Finishes a target the home node refused under
    /// [`IndirectionMode::Error`] as the client would: with its own plain
    /// read, write or fetch-and-add at `target`, arriving at `at`, one
    /// round trip after the home node's answer at `answered`. Books one
    /// reissue and, once the access completes, the refused round trip —
    /// the one round trip an `exec_*` function books, so a load sent
    /// alone, in a fenced batch or as a descriptor counts alike —
    /// and no forward hop. A failed access is an error the home node
    /// answered with. Out of line and cold, so the inlined copies of
    /// [`exec_deref`](Self::exec_deref) do not grow.
    #[cold]
    #[inline(never)]
    fn reissue(
        &mut self,
        target: FarAddr,
        access: TargetAccess<'_>,
        at: u64,
        answered: u64,
    ) -> std::result::Result<(PipeOut, u64), ErrorCompletion> {
        self.stats_mut().reissues += 1;
        let done = match access {
            TargetAccess::Read(len) => self
                .exec_read(AccessKind::Read, target, len, at)
                .map(|(buf, f)| (PipeOut::Bytes(buf), f)),
            TargetAccess::Write(data) => {
                self.exec_write(target, data, at).map(|f| (PipeOut::Done, f))
            }
            TargetAccess::Add(v) => self.exec_faa(target, v, at).map(|(_, f)| (PipeOut::Done, f)),
            TargetAccess::Swap(_) => unreachable!("a guarded swap never leaves its unit"),
        };
        let (out, finish) = done.map_err(|e| ErrorCompletion::answered(e, answered))?;
        self.stats_mut().round_trips += 1;
        Ok((out, finish.max(answered)))
    }

    /// Executes an indirect verb's access at its (possibly remote) target
    /// segments, returning `(completion, node_finish)`. Segments on
    /// `home_id` (the pointer's node) extend the home service chain;
    /// remote segments are forwarded with one memory-side hop (§7.1).
    /// It books through `route` and the home chain, which is what keeps
    /// it apart from the plain
    /// [`exec_read_into`](FabricClient::exec_read_into) /
    /// [`exec_write`](FabricClient::exec_write) walks. A target the map
    /// rejects is an error the home node answered with. Inlined for the
    /// same reason as [`exec_deref`](Self::exec_deref).
    #[inline(always)]
    fn exec_at_target(
        &mut self,
        target: FarAddr,
        access: TargetAccess<'_>,
        home_id: NodeId,
        arrival: u64,
        home_finish: u64,
    ) -> std::result::Result<(PipeOut, u64), ErrorCompletion> {
        let cost = *self.fabric().cost();
        let fabric = self.fabric().clone();
        let len = access.len();
        let segs = fabric
            .segments(target, len)
            .map_err(|e| ErrorCompletion::answered(e, home_finish))?;
        let atomic = matches!(access, TargetAccess::Add(_));
        let mut finish = home_finish;
        let mut buf = match access {
            TargetAccess::Read(l) => vec![0u8; l as usize],
            _ => Vec::new(),
        };
        let mut done = 0usize;
        for seg in segs {
            let node = fabric.node(self.enter(seg.node, false, arrival)?.id());
            // Remote targets occupy their node's interface from the
            // arrival time (the interface is work-conserving); the
            // memory-side hop latency is added to the completion.
            let service = cost.node_msg_ns + cost.bytes_ns(seg.len);
            let mut f = if seg.node == home_id {
                node.occupy(home_finish, service)
            } else {
                self.stats_mut().forward_hops += 1;
                self.stats_mut().messages += 1;
                node.occupy(arrival, service).max(home_finish) + cost.mem_hop_ns
            };
            let part = done..done + seg.len as usize;
            if atomic && !target.is_aligned(WORD) {
                return Err(FabricError::Unaligned { addr: target, required: WORD }.into());
            }
            match &access {
                TargetAccess::Read(_) => node.read_bytes(seg.offset, &mut buf[part])?,
                TargetAccess::Write(data) => node.write_bytes(seg.offset, &data[part])?,
                TargetAccess::Add(v) => {
                    self.stats_mut().atomics += 1;
                    node.faa_u64(seg.offset, *v)?;
                }
                TargetAccess::Swap(_) => unreachable!("a guarded swap never leaves its unit"),
            }
            // Every mutation fires (an atomic's segment is its one word).
            if !matches!(access, TargetAccess::Read(_)) {
                f = fabric.fire(self.stats_mut(), seg.node, seg.offset, seg.len, f);
            }
            done += seg.len as usize;
            finish = finish.max(f);
        }
        access.book_bytes(self.stats_mut());
        self.observe(access.kind(), target, len);
        let out = match access {
            TargetAccess::Read(_) => PipeOut::Bytes(buf),
            _ => PipeOut::Done,
        };
        Ok((out, finish))
    }

    /// `load0_tagged` as one [`PipeOp::Load0Tagged`] op, however it is
    /// sent: its [`loaded`] answer with the node-side finish time. Its own
    /// out-of-line copy of [`exec_deref`](Self::exec_deref), so `exec_op`
    /// — the loop body of every batch and doorbell — inlines two copies,
    /// not three.
    ///
    /// [`PipeOp::Load0Tagged`]: crate::PipeOp::Load0Tagged
    #[inline(never)]
    pub(crate) fn exec_load0(
        &mut self,
        ad: FarAddr,
        arrival: u64,
    ) -> std::result::Result<(PipeOut, u64), ErrorCompletion> {
        loaded(self.exec_deref(ad, PtrRead::Tagged, 0, TargetAccess::Read(0), arrival))
    }

    /// `load0(ad, ℓ)`: dereference the pointer at `ad` and read `ℓ` bytes
    /// at the target. One far access.
    pub fn load0(&mut self, ad: FarAddr, len: u64) -> Result<Vec<u8>> {
        Ok(self.indirect(ad, PtrRead::Plain, 0, TargetAccess::Read(len))?.1.into_bytes())
    }

    /// `load0_tagged(ad)`: dereference the tagged pointer at `ad` and read
    /// the [`tagged_len`] bytes its tag names at the block it points to
    /// (module docs). Returns the pointer word, tag included, and the
    /// bytes. One far access.
    pub fn load0_tagged(&mut self, ad: FarAddr) -> Result<(u64, Vec<u8>)> {
        let (ptr, out) = self.indirect(ad, PtrRead::Tagged, 0, TargetAccess::Read(0))?;
        Ok((ptr, out.into_bytes()))
    }

    /// `store0(ad, v, ℓ)`: dereference the pointer at `ad` and write `v`
    /// at the target. One far access.
    pub fn store0(&mut self, ad: FarAddr, data: &[u8]) -> Result<()> {
        self.indirect(ad, PtrRead::Plain, 0, TargetAccess::Write(data))?;
        Ok(())
    }

    /// `load1(ad, i, ℓ)`: read through the pointer at `ad + i` — the
    /// pointer itself is indexed, extracting a chosen field of a struct of
    /// pointers. One far access.
    pub fn load1(&mut self, ad: FarAddr, i: u64, len: u64) -> Result<Vec<u8>> {
        Ok(self
            .indirect(ad.offset(i), PtrRead::Plain, 0, TargetAccess::Read(len))?
            .1
            .into_bytes())
    }

    /// `store1(ad, i, v, ℓ)`: write through the pointer at `ad + i`.
    /// One far access.
    pub fn store1(&mut self, ad: FarAddr, i: u64, data: &[u8]) -> Result<()> {
        self.indirect(ad.offset(i), PtrRead::Plain, 0, TargetAccess::Write(data))?;
        Ok(())
    }

    /// `load2(ad, i, ℓ)`: read at `(*ad) + i` — the *target* is indexed,
    /// extracting a chosen field of the pointed-to struct. One far access.
    pub fn load2(&mut self, ad: FarAddr, i: u64, len: u64) -> Result<Vec<u8>> {
        Ok(self.indirect(ad, PtrRead::Plain, i, TargetAccess::Read(len))?.1.into_bytes())
    }

    /// `store2(ad, i, v, ℓ)`: write at `(*ad) + i`. One far access.
    pub fn store2(&mut self, ad: FarAddr, i: u64, data: &[u8]) -> Result<()> {
        self.indirect(ad, PtrRead::Plain, i, TargetAccess::Write(data))?;
        Ok(())
    }

    /// `faai(ad, v, ℓ)`: atomically add `v` to the pointer at `ad` and
    /// return `ℓ` bytes at the *old* pointer target — the `*ptr++` idiom
    /// the §5.3 queue dequeues with. One far access.
    ///
    /// Also returns the old pointer value (the completion of a fabric
    /// atomic carries it anyway), which the queue's background slack check
    /// needs.
    pub fn faai(&mut self, ad: FarAddr, v: u64, len: u64) -> Result<(u64, Vec<u8>)> {
        let (ptr, data) = self.indirect(ad, PtrRead::FetchAdd(v), 0, TargetAccess::Read(len))?;
        Ok((ptr, data.into_bytes()))
    }

    /// `saai(ad, v, v', ℓ)`: atomically add `v` to the pointer at `ad` and
    /// store `v'` at the *old* pointer target — the §5.3 queue's enqueue.
    /// One far access. Returns the old pointer value (see
    /// [`faai`](Self::faai)).
    pub fn saai(&mut self, ad: FarAddr, v: u64, data: &[u8]) -> Result<u64> {
        Ok(self.indirect(ad, PtrRead::FetchAdd(v), 0, TargetAccess::Write(data))?.0)
    }

    /// `faai_swap(ad, v, r)`, guarded: like
    /// [`faai_guarded`](Self::faai_guarded), but the target word is
    /// atomically *swapped* with `r` (a destructive read) — the queue's
    /// dequeue consumes its slot in the same far access, leaving no window
    /// where a claimed slot still holds its item. Swap-style indirect
    /// atomics are among §4.1's "additional useful variants"; Gen-Z ships
    /// atomic swap. One far access. A swap that finds its target already
    /// holding `replacement` took nothing; it also adds one to the guard
    /// word in the same atomic unit, *closing* the guard to every op that
    /// expects the old value. The §5.3 queue's claim of an empty slot
    /// thereby takes the queue's repair before any enqueue can fill that
    /// slot.
    pub fn faai_swap_guarded(
        &mut self,
        ad: FarAddr,
        v: u64,
        replacement: u64,
        guard: FarAddr,
        expect: u64,
    ) -> Result<(u64, u64)> {
        let (ptr, old) = self.indirect(
            ad,
            PtrRead::GuardedFetchAdd { delta: v, guard, expect },
            0,
            TargetAccess::Swap(replacement),
        )?;
        Ok((ptr, old.value()))
    }

    /// Guarded [`faai`](Self::faai): performed only if the word at `guard`
    /// (same node as `ad`) equals `expect`, atomically — otherwise
    /// [`FabricError::GuardMismatch`] and nothing happens. One far access
    /// either way. The guard, the bump and the target access are one
    /// atomic unit, so the target must live on `ad`'s node too: an
    /// off-node target is refused with [`FabricError::BadIovec`] and the
    /// pointer does not move.
    pub fn faai_guarded(
        &mut self,
        ad: FarAddr,
        v: u64,
        len: u64,
        guard: FarAddr,
        expect: u64,
    ) -> Result<(u64, Vec<u8>)> {
        let (ptr, data) = self.indirect(
            ad,
            PtrRead::GuardedFetchAdd { delta: v, guard, expect },
            0,
            TargetAccess::Read(len),
        )?;
        Ok((ptr, data.into_bytes()))
    }

    /// Guarded [`saai`](Self::saai) (see [`faai_guarded`](Self::faai_guarded)).
    pub fn saai_guarded(
        &mut self,
        ad: FarAddr,
        v: u64,
        data: &[u8],
        guard: FarAddr,
        expect: u64,
    ) -> Result<u64> {
        Ok(self
            .indirect(
                ad,
                PtrRead::GuardedFetchAdd { delta: v, guard, expect },
                0,
                TargetAccess::Write(data),
            )?
            .0)
    }

    /// `add0(ad, v)`: `**ad += v` — add through a pointer. One far access.
    pub fn add0(&mut self, ad: FarAddr, v: u64) -> Result<()> {
        self.indirect(ad, PtrRead::Plain, 0, TargetAccess::Add(v))?;
        Ok(())
    }

    /// `add1(ad, v, i)`: add through the pointer at `ad + i`.
    /// One far access.
    pub fn add1(&mut self, ad: FarAddr, v: u64, i: u64) -> Result<()> {
        self.indirect(ad.offset(i), PtrRead::Plain, 0, TargetAccess::Add(v))?;
        Ok(())
    }

    /// `add2(ad, v, i)`: add to the word at `(*ad) + i` — e.g. increment
    /// histogram slot `i` through the current-window base pointer (§6).
    /// One far access.
    pub fn add2(&mut self, ad: FarAddr, v: u64, i: u64) -> Result<()> {
        self.indirect(ad, PtrRead::Plain, i, TargetAccess::Add(v))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Striping;
    use crate::fabric::FabricConfig;

    fn client() -> FabricClient {
        FabricConfig::count_only(1 << 20).build().client()
    }

    #[test]
    fn load0_store0_follow_pointer_in_one_access() {
        let mut c = client();
        let ptr_at = FarAddr(64);
        let data_at = FarAddr(4096);
        c.write_u64(ptr_at, data_at.0).unwrap();
        let before = c.stats();
        c.store0(ptr_at, &7u64.to_le_bytes()).unwrap();
        assert_eq!(c.load0(ptr_at, 8).unwrap(), 7u64.to_le_bytes());
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 2, "each indirect verb is one far access");
        assert_eq!(c.read_u64(data_at).unwrap(), 7);
    }

    #[test]
    fn load1_indexes_the_pointer_array() {
        let mut c = client();
        let table = FarAddr(64);
        c.write_u64(table, 4096).unwrap();
        c.write_u64(table.offset(8), 8192).unwrap();
        c.write_u64(FarAddr(4096), 1).unwrap();
        c.write_u64(FarAddr(8192), 2).unwrap();
        assert_eq!(c.load1(table, 0, 8).unwrap(), 1u64.to_le_bytes());
        assert_eq!(c.load1(table, 8, 8).unwrap(), 2u64.to_le_bytes());
    }

    #[test]
    fn load2_indexes_the_target() {
        let mut c = client();
        let ptr_at = FarAddr(64);
        c.write_u64(ptr_at, 4096).unwrap();
        c.write_u64(FarAddr(4096 + 24), 99).unwrap();
        assert_eq!(c.load2(ptr_at, 24, 8).unwrap(), 99u64.to_le_bytes());
        c.store2(ptr_at, 32, &5u64.to_le_bytes()).unwrap();
        assert_eq!(c.read_u64(FarAddr(4096 + 32)).unwrap(), 5);
    }

    #[test]
    fn faai_returns_old_target_and_bumps_pointer() {
        let mut c = client();
        let head = FarAddr(64);
        c.write_u64(head, 4096).unwrap();
        c.write_u64(FarAddr(4096), 41).unwrap();
        c.write_u64(FarAddr(4104), 42).unwrap();
        let before = c.stats();
        let (old, data) = c.faai(head, 8, 8).unwrap();
        assert_eq!(old, 4096);
        assert_eq!(data, 41u64.to_le_bytes());
        assert_eq!(c.stats().since(&before).round_trips, 1);
        assert_eq!(c.read_u64(head).unwrap(), 4104);
        assert_eq!(c.faai(head, 8, 8).unwrap().1, 42u64.to_le_bytes());
    }

    #[test]
    fn saai_stores_at_old_target() {
        let mut c = client();
        let tail = FarAddr(64);
        c.write_u64(tail, 4096).unwrap();
        assert_eq!(c.saai(tail, 8, &10u64.to_le_bytes()).unwrap(), 4096);
        c.saai(tail, 8, &11u64.to_le_bytes()).unwrap();
        assert_eq!(c.read_u64(FarAddr(4096)).unwrap(), 10);
        assert_eq!(c.read_u64(FarAddr(4104)).unwrap(), 11);
        assert_eq!(c.read_u64(tail).unwrap(), 4112);
    }

    #[test]
    fn guarded_faai_respects_the_guard() {
        let mut c = client();
        let head = FarAddr(64);
        let guard = FarAddr(72);
        c.write_u64(head, 4096).unwrap();
        c.write_u64(guard, 2).unwrap();
        c.write_u64(FarAddr(4096), 55).unwrap();
        let (old, data) = c.faai_guarded(head, 8, 8, guard, 2).unwrap();
        assert_eq!(old, 4096);
        assert_eq!(data, 55u64.to_le_bytes());
        // Guard moved: the op is rejected and performs nothing.
        c.write_u64(guard, 3).unwrap();
        assert!(matches!(
            c.faai_guarded(head, 8, 8, guard, 2),
            Err(FabricError::GuardMismatch { observed: 3 })
        ));
        assert_eq!(c.read_u64(head).unwrap(), 4104, "pointer not bumped again");
    }

    #[test]
    fn faai_swap_consumes_the_slot_atomically() {
        let mut c = client();
        let (head, guard) = (FarAddr(64), FarAddr(72));
        c.write_u64(head, 4096).unwrap();
        c.write_u64(FarAddr(4096), 41).unwrap();
        let before = c.stats();
        let (old_ptr, item) = c.faai_swap_guarded(head, 8, 0, guard, 0).unwrap();
        let d = c.stats().since(&before);
        assert_eq!((old_ptr, item), (4096, 41));
        assert_eq!(d.round_trips, 1);
        assert_eq!(d.posted_messages, 0, "no separate zeroing write");
        assert_eq!(c.read_u64(FarAddr(4096)).unwrap(), 0, "slot cleared in the verb");
        assert_eq!(c.read_u64(head).unwrap(), 4104);
    }

    #[test]
    fn guarded_saai_respects_the_guard() {
        let mut c = client();
        let tail = FarAddr(64);
        let guard = FarAddr(72);
        c.write_u64(tail, 4096).unwrap();
        assert_eq!(c.saai_guarded(tail, 8, &9u64.to_le_bytes(), guard, 0).unwrap(), 4096);
        c.write_u64(guard, 1).unwrap();
        assert!(c.saai_guarded(tail, 8, &10u64.to_le_bytes(), guard, 0).is_err());
        assert_eq!(c.read_u64(FarAddr(4104)).unwrap(), 0, "store suppressed");
    }

    #[test]
    fn a_guarded_swap_that_takes_nothing_closes_the_guard() {
        for piped in [false, true] {
            let f = FabricConfig::count_only(1 << 20).build();
            let (mut c, mut watcher) = (f.client(), f.client());
            let (head, guard) = (FarAddr(64), FarAddr(72));
            c.write_u64(head, 4096).unwrap();
            c.write_u64(FarAddr(4096), 41).unwrap();
            watcher.notify0(guard, 8).unwrap();
            let claim = |c: &mut FabricClient| {
                if piped {
                    let mut q = c.pipeline();
                    q.faai_swap_guarded(head, 8, 0, guard, 0);
                    q.commit().into_outputs().map(|o| o[0].ptr_word())
                } else {
                    c.faai_swap_guarded(head, 8, 0, guard, 0)
                }
            };
            assert_eq!(claim(&mut c).unwrap(), (4096, 41), "an item: the guard stays");
            assert_eq!(c.read_u64(guard).unwrap(), 0);
            assert_eq!(claim(&mut c).unwrap(), (4104, 0), "nothing to take");
            assert_eq!(c.read_u64(guard).unwrap(), 1, "closed in the same unit");
            assert_eq!(watcher.take_events(|_| true).len(), 1, "and notified");
            c.write_u64(FarAddr(80), 8192).unwrap();
            assert!(matches!(
                c.saai_guarded(FarAddr(80), 8, &7u64.to_le_bytes(), guard, 0),
                Err(FabricError::GuardMismatch { observed: 1 })
            ));
        }
    }

    #[test]
    fn add_family_increments_through_pointers() {
        let mut c = client();
        let base = FarAddr(64);
        c.write_u64(base, 4096).unwrap();
        c.write_u64(base.offset(8), 8192).unwrap();
        c.add0(base, 5).unwrap();
        assert_eq!(c.read_u64(FarAddr(4096)).unwrap(), 5);
        c.add1(base, 3, 8).unwrap();
        assert_eq!(c.read_u64(FarAddr(8192)).unwrap(), 3);
        c.add2(base, 2, 16).unwrap();
        assert_eq!(c.read_u64(FarAddr(4096 + 16)).unwrap(), 2);
    }

    #[test]
    fn null_pointer_dereference_is_an_error() {
        let mut c = client();
        assert!(matches!(
            c.load0(FarAddr(64), 8),
            Err(FabricError::NullDeref { .. })
        ));
        // A tagged pointer is null by its address: a tag alone names nothing.
        c.write_u64(FarAddr(64), 3).unwrap();
        assert!(matches!(c.load0_tagged(FarAddr(64)), Err(FabricError::NullDeref { .. })));
    }

    fn two_node_config(mode: IndirectionMode) -> FabricConfig {
        FabricConfig {
            nodes: 2,
            node_capacity: 1 << 20,
            striping: Striping::Blocked,
            indirection: mode,
            cost: crate::cost::CostModel::COUNT_ONLY,
            ..FabricConfig::default()
        }
    }

    fn two_node_fabric(mode: IndirectionMode) -> std::sync::Arc<crate::fabric::Fabric> {
        two_node_config(mode).build()
    }

    #[test]
    fn remote_indirection_forwards_with_memory_side_hop() {
        let f = two_node_fabric(IndirectionMode::Forward);
        let mut c = f.client();
        // Pointer on node 0, target on node 1.
        let ptr_at = FarAddr(64);
        let target = FarAddr((1 << 20) + 4096);
        c.write_u64(ptr_at, target.0).unwrap();
        let before = c.stats();
        c.store0(ptr_at, &9u64.to_le_bytes()).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 1, "forwarding keeps it one client RT");
        assert_eq!(d.forward_hops, 1);
        assert_eq!(c.read_u64(target).unwrap(), 9);
    }

    /// The home node refuses a cross-node target, and `load0` itself
    /// finishes it with the client's second round trip: the bytes, two
    /// round trips of messages and clock, one reissue, no forward hop.
    #[test]
    fn remote_indirection_errors_and_auto_reissues() {
        let f = FabricConfig {
            cost: crate::cost::CostModel::DEFAULT,
            ..two_node_config(IndirectionMode::Error)
        }
        .build();
        let mut c = f.client();
        let ptr_at = FarAddr(64);
        let target = FarAddr((1 << 20) + 4096);
        c.write_u64(ptr_at, target.0).unwrap();
        c.write_u64(target, 33).unwrap();
        let (before, t0) = (c.stats(), c.now_ns());
        assert_eq!(c.load0(ptr_at, 8).unwrap(), 33u64.to_le_bytes());
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 2, "error mode costs two client RTs");
        assert_eq!((d.reissues, d.forward_hops, d.messages, d.bytes_read), (1, 0, 2, 8));
        let elapsed = c.now_ns() - t0;
        assert!(elapsed > 2 * f.cost().far_rtt_ns, "{elapsed} ns");
    }

    #[test]
    fn local_indirection_in_error_mode_still_one_rt() {
        let f = two_node_fabric(IndirectionMode::Error);
        let mut c = f.client();
        let ptr_at = FarAddr(64);
        c.write_u64(ptr_at, 4096).unwrap();
        c.write_u64(FarAddr(4096), 5).unwrap();
        let before = c.stats();
        assert_eq!(c.load0(ptr_at, 8).unwrap(), 5u64.to_le_bytes());
        let d = c.stats().since(&before);
        assert_eq!((d.round_trips, d.reissues), (1, 0));
    }

    /// Unguarded `faai` / `saai` bump their pointer before the target is
    /// known to be remote; under `Error` the verb still finishes at the
    /// target, so the bump is never a side effect of a failed verb.
    #[test]
    fn refused_faai_and_saai_finish_at_the_target_and_bump_once() {
        let f = two_node_fabric(IndirectionMode::Error);
        let mut c = f.client();
        let (ptr_at, target) = (FarAddr(64), FarAddr((1 << 20) + 4096));
        c.write_u64(ptr_at, target.0).unwrap();
        let before = c.stats();
        assert_eq!(c.saai(ptr_at, 8, &77u64.to_le_bytes()).unwrap(), target.0);
        assert_eq!(c.read_u64(target).unwrap(), 77, "saai left its bytes at the target");
        assert_eq!(c.read_u64(ptr_at).unwrap(), target.0 + 8, "and moved the pointer once");
        c.write_u64(ptr_at, target.0).unwrap();
        assert_eq!(c.faai(ptr_at, 8, 8).unwrap(), (target.0, 77u64.to_le_bytes().to_vec()));
        assert_eq!(c.read_u64(ptr_at).unwrap(), target.0 + 8, "faai moved it once");
        assert_eq!(c.stats().since(&before).reissues, 2);
    }

    /// The pre-flight that keeps a retried `faai` from bumping twice
    /// checks a refused target at the reissue's later arrival: a target
    /// node that is down only then fails the attempts with the pointer
    /// untouched, and the verb lands once after the node is back.
    #[test]
    fn a_refused_faai_preflights_its_target_at_the_reissue() {
        let f = FabricConfig {
            cost: crate::cost::CostModel::DEFAULT,
            ..two_node_config(IndirectionMode::Error)
        }
        .build();
        let mut c = f.client();
        let (ptr_at, target) = (FarAddr(64), FarAddr((1 << 20) + 4096));
        c.write_u64(ptr_at, target.0).unwrap();
        c.write_u64(target, 5).unwrap();
        // Down from just after this verb's arrival, for a few retries.
        let arrival = c.now_ns() + f.cost().one_way_ns();
        f.node(NodeId(1)).schedule_crash(arrival + 1, arrival + 20_000);
        let before = c.stats();
        assert_eq!(c.faai(ptr_at, 8, 8).unwrap(), (target.0, 5u64.to_le_bytes().to_vec()));
        let d = c.stats().since(&before);
        assert!(d.retries > 0, "{d:?}");
        assert_eq!(d.reissues, 1, "the refused attempts never bumped");
        assert_eq!(c.read_u64(ptr_at).unwrap(), target.0 + 8);
    }

    /// A guarded verb is one atomic unit at its pointer's node or an
    /// error: an off-node target is refused in both modes with
    /// `BadIovec`, answered after the guard probe, before the pointer
    /// moves.
    #[test]
    fn a_guarded_verb_with_an_off_node_target_is_refused_in_both_modes() {
        for mode in [IndirectionMode::Forward, IndirectionMode::Error] {
            let f = two_node_fabric(mode);
            let mut c = f.client();
            let (ptr_at, guard, target) = (FarAddr(64), FarAddr(72), FarAddr((1 << 20) + 4096));
            c.write_u64(ptr_at, target.0).unwrap();
            c.write_u64(target, 9).unwrap();
            let before = c.stats();
            let refused = |r: Result<u64>| matches!(r, Err(FabricError::BadIovec { .. }));
            assert!(refused(c.saai_guarded(ptr_at, 8, &1u64.to_le_bytes(), guard, 0)), "{mode:?}");
            assert!(refused(c.faai_guarded(ptr_at, 8, 8, guard, 0).map(|r| r.0)), "{mode:?}");
            assert!(refused(c.faai_swap_guarded(ptr_at, 8, 0, guard, 0).map(|r| r.0)), "{mode:?}");
            let d = c.stats().since(&before);
            assert_eq!((d.round_trips, d.messages, d.reissues, d.forward_hops), (3, 3, 0, 0));
            assert_eq!(c.read_u64(ptr_at).unwrap(), target.0, "{mode:?}: pointer unchanged");
            assert_eq!(c.read_u64(target).unwrap(), 9, "{mode:?}: target untouched");
        }
    }

    #[test]
    fn indirect_stores_fire_notifications_at_target() {
        let f = FabricConfig::single_node(1 << 20).build();
        let mut writer = f.client();
        let mut watcher = f.client();
        writer.write_u64(FarAddr(64), 4096).unwrap();
        watcher.notify0(FarAddr(4096), 8).unwrap();
        writer.store0(FarAddr(64), &1u64.to_le_bytes()).unwrap();
        assert_eq!(watcher.recv_events().len(), 1);
    }
}
