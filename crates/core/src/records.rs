//! A handle's memory lifetime: where the far records it links come from,
//! and where the ones it unlinks go. It decides nothing else — the
//! HT-tree's protocol is the same under both. An [`HtTreeHandle`] keeps
//! one for its chain items, a [`FarBlobMap`] one for its value records.
//!
//! [`HtTreeHandle`]: crate::HtTreeHandle
//! [`FarBlobMap`]: crate::FarBlobMap

use farmem_alloc::{AllocError, AllocHint, Arena, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr};
use farmem_reclaim::{pin_deferred, Guard, Publish, SharedReclaim};
use std::sync::Arc;

use crate::error::{CoreError, Result};

/// Where records come from and where unlinked ones go.
pub(crate) enum Records {
    /// Quarantine: bump-allocated from an arena, and never freed. A record
    /// that was unlinked, or never linked, is stranded with the arena, and
    /// a replaced table leaks.
    Quarantine(Arena),
    /// Reclaim: slab-allocated. A record never linked is freed at once;
    /// an unlinked one, and a replaced table, are retired into the limbo
    /// list and freed a grace period later.
    Reclaim(Arc<FarAlloc>, SharedReclaim),
}

/// One operation's pin of a [`Records`]: the epoch guard under reclaim,
/// nothing under quarantine. Only [`Records::pin`] makes one and every
/// retire asks for it, so nothing is retired outside a pinned operation.
/// Held, it keeps what a reclaim-mode lookup found readable.
pub(crate) struct Pinned(Option<Guard>);

impl Pinned {
    /// The restructure generation the guard was pinned at; `None` under
    /// quarantine.
    pub(crate) fn generation(&self) -> Option<u64> {
        self.0.as_ref().map(Guard::generation)
    }

    /// Takes the slot publish the pin left pending, for the head of the
    /// operation's first fenced batch ([`Guard::take_publish`]).
    pub(crate) fn take_publish(&mut self) -> Option<Publish> {
        self.0.as_mut().and_then(Guard::take_publish)
    }

    /// Settles a carried publish with the CAS's answer; `false` when the
    /// slot had been evicted and the operation starts over
    /// ([`Guard::settle`]).
    pub(crate) fn settle(
        &mut self,
        client: &mut FabricClient,
        publish: Publish,
        answer: Option<u64>,
    ) -> Result<bool> {
        let guard = self.0.as_mut().expect("only a reclaim pin publishes");
        Ok(guard.settle(client, publish, answer)?)
    }

    /// Issues a pending publish alone, for an operation with no fenced
    /// batch to carry it ([`Guard::publish_alone`]).
    pub(crate) fn publish_alone(&mut self, client: &mut FabricClient) -> Result<()> {
        match &mut self.0 {
            Some(guard) => Ok(guard.publish_alone(client)?),
            None => Ok(()),
        }
    }
}

impl Records {
    /// A quarantine lifetime drawing `chunk_len`-byte arena chunks.
    pub(crate) fn quarantine(alloc: &Arc<FarAlloc>, chunk_len: u64) -> Records {
        Records::Quarantine(Arena::new(alloc.clone(), chunk_len, AllocHint::Spread))
    }

    /// The restructure generation the reclaim client has seen, read
    /// without pinning; `None` under quarantine.
    pub(crate) fn generation(&self) -> Option<u64> {
        match self {
            Records::Quarantine(_) => None,
            Records::Reclaim(_, shared) => {
                Some(shared.lock().expect("reclaim handle poisoned").generation())
            }
        }
    }

    /// Pins one operation, its slot publish left pending (see
    /// [`farmem_reclaim::pin_deferred`]; free under quarantine).
    pub(crate) fn pin(&self, client: &mut FabricClient) -> Result<Pinned> {
        match self {
            Records::Quarantine(_) => Ok(Pinned(None)),
            Records::Reclaim(_, shared) => Ok(Pinned(Some(pin_deferred(shared, client)?))),
        }
    }

    /// A fresh record of `len` bytes.
    pub(crate) fn alloc(&mut self, len: u64) -> Result<FarAddr> {
        Ok(match self {
            Records::Quarantine(arena) => arena.alloc(len)?,
            Records::Reclaim(alloc, _) => alloc.alloc(len, AllocHint::Spread)?,
        })
    }

    /// Records of `len` bytes that [`alloc`](Self::alloc) handed out and
    /// nothing linked: nobody can reach them, so no grace period is due.
    pub(crate) fn discard(&self, addrs: &[FarAddr], len: u64) -> Result<()> {
        if let Records::Reclaim(alloc, _) = self {
            for &addr in addrs {
                alloc.free(addr, len)?;
            }
        }
        Ok(())
    }

    /// A record the pinned operation's CAS unlinked, `len` bytes long
    /// (`None`: the length the allocator booked for it). Concurrent
    /// readers may still hold it, so reclaim retires it: it stays readable
    /// until every guard pinned before the unlink has dropped. An `Err`
    /// still queued the entry (only its seal failed).
    pub(crate) fn retire(
        &self,
        client: &mut FabricClient,
        _pin: &Pinned,
        addr: FarAddr,
        len: Option<u64>,
    ) -> Result<()> {
        let Records::Reclaim(alloc, shared) = self else {
            return Ok(());
        };
        let len = len
            .or_else(|| alloc.size_of(addr))
            .ok_or(AllocError::BadFree { addr })?;
        let mut r = shared.lock().expect("reclaim handle poisoned");
        r.retire(client, addr, len).map_err(CoreError::from)
    }

    /// What a restructure's directory CAS unlinked — a table and the
    /// directory blob, which clients cache pointers into: retired as a
    /// restructure, in order, under one seal that also bumps the
    /// generation, so every client refreshes past them before they can
    /// be freed.
    pub(crate) fn retire_restructure(
        &self,
        client: &mut FabricClient,
        _pin: &Pinned,
        blocks: impl IntoIterator<Item = (FarAddr, u64)>,
    ) -> Result<()> {
        let Records::Reclaim(_, shared) = self else {
            return Ok(());
        };
        let mut r = shared.lock().expect("reclaim handle poisoned");
        for (addr, len) in blocks {
            r.retire_restructure(client, addr, len)?;
        }
        r.seal(client)?;
        Ok(())
    }
}
