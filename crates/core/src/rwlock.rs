//! Far reader-writer locks: a natural extension of the §5.1 mutex.
//!
//! The lock is one far word: writer bit, writer fencing tag, writer
//! lease expiry, and a reader count. The fast paths are single fabric
//! atomics — **one far access** to enter or leave a read section — and
//! contended paths wait on notifications instead of polling far memory,
//! like the mutex.
//!
//! # Word layout and leases
//!
//! ```text
//! bit 63    bits 49..63   bits 17..49         bit 16   bits 0..16
//! WRITER    owner tag     acq. stamp (µs)     GUARD    reader count
//! ```
//!
//! The writer side is leased and fenced exactly like [`crate::FarMutex`]:
//! a crashed writer's lock is CAS-stolen (or cleared by a waiting
//! reader) once a contender has observed the *same* word for
//! [`LEASE_NS`] of its **own accumulated waiting time**, and the dead
//! writer's late `write_unlock` is rejected via the tag
//! ([`CoreError::LeaseLost`]). As in the mutex, the acquisition stamp is
//! never compared against another client's (unsynchronized) clock — it
//! only makes every acquisition's word unique so that "unchanged word"
//! reliably means "same holder, same acquisition". It is stored in
//! *microseconds* so it fits beside the reader count.
//!
//! Readers optimistically increment the low 16 bits. The `GUARD` bit —
//! set in every valid word — sits just above the count so that an
//! erroneous `read_unlock` with a zero count borrows into `GUARD`
//! instead of rippling into the stamp and tag: the word other clients
//! base fencing and steal decisions on is never corrupted, and the
//! compensating increment (whether ours or a racing reader's carry)
//! restores the bit. Counts never reach the 65 535 ceiling
//! (`debug_assert`ed).
//!
//! Reader sections are anonymous — a count cannot carry per-owner
//! leases — so a crashed *reader* still wedges writers. That is the
//! documented trade-off of count-based read locks; fencing readers needs
//! per-reader words and a far scan on write acquisition.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr, WORD};

use crate::error::{CoreError, Result};
use crate::mutex::{LeaseWait, LEASE_NS};

/// Writer-held flag.
const WRITER: u64 = 1 << 63;

/// Reader count: low 16 bits.
const COUNT_MASK: u64 = 0xFFFF;

/// Underflow guard, set in every valid word: absorbs the borrow of an
/// erroneous zero-count decrement so the stamp/tag bits stay intact
/// (see module docs).
const GUARD: u64 = 1 << 16;

/// Writer acquisition stamp (virtual µs): 32 bits above the guard.
const STAMP_SHIFT: u32 = 17;
const STAMP_MASK: u64 = 0xFFFF_FFFF;

/// Writer fencing tag: 14 bits under the WRITER flag.
const TAG_SHIFT: u32 = 49;
const TAG_MASK: u64 = 0x3FFF;

/// Value of a free lock word: no writer, no readers, guard set.
const FREE: u64 = GUARD;

/// Stamp granularity conversion (the stamp is stored in µs).
const STAMP_NS_PER_UNIT: u64 = 1_000;

/// A reader-writer lock in far memory.
///
/// No fairness is enforced: a steady stream of readers can starve a
/// writer (documented trade-off; far-memory fairness needs a ticket
/// scheme and more far state).
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::{AllocHint, FarAlloc};
/// use farmem_core::FarRwLock;
///
/// let fabric = FabricConfig::single_node(1 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut c = fabric.client();
/// let l = FarRwLock::create(&mut c, &alloc, AllocHint::Spread).unwrap();
/// l.read_lock(&mut c, 16).unwrap();  // one fetch-and-add
/// l.read_unlock(&mut c).unwrap();
/// l.write_lock(&mut c, 16).unwrap(); // one CAS
/// l.write_unlock(&mut c).unwrap();
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarRwLock {
    addr: FarAddr,
}

impl FarRwLock {
    /// Allocates a free lock. One far access.
    pub fn create(client: &mut FabricClient, alloc: &FarAlloc, hint: AllocHint) -> Result<FarRwLock> {
        let addr = alloc.alloc(WORD, hint)?;
        client.write_u64(addr, FREE)?;
        Ok(FarRwLock { addr })
    }

    /// Attaches to an existing lock at `addr`.
    pub fn attach(addr: FarAddr) -> FarRwLock {
        FarRwLock { addr }
    }

    /// The lock's far address.
    pub fn addr(&self) -> FarAddr {
        self.addr
    }

    fn owner_tag(client: &FabricClient) -> u64 {
        let tag = client.id() as u64 + 1;
        debug_assert!(tag <= TAG_MASK, "client id overflows the fencing tag");
        tag & TAG_MASK
    }

    /// The word this client would hold the write lock with, preserving
    /// `readers` transient low count bits. Ticks the client's clock by
    /// one stamp unit (1 µs) so that even under a zero-cost model two
    /// acquisitions never stamp identical words — contenders detect live
    /// holders by word changes.
    fn writer_word(client: &mut FabricClient, readers: u64) -> u64 {
        client.advance_time(STAMP_NS_PER_UNIT);
        let stamp = (client.now_ns() / STAMP_NS_PER_UNIT) & STAMP_MASK;
        WRITER
            | (Self::owner_tag(client) << TAG_SHIFT)
            | (stamp << STAMP_SHIFT)
            | GUARD
            | (readers & COUNT_MASK)
    }

    /// Attempts to enter a read section: one fetch-and-add — **one far
    /// access** when no writer holds the lock. On writer conflict the
    /// optimistic increment is rolled back (one more access) and `false`
    /// is returned.
    pub fn try_read_lock(&self, client: &mut FabricClient) -> Result<bool> {
        let old = client.faa(self.addr, 1)?;
        debug_assert!(old & COUNT_MASK < COUNT_MASK, "reader count overflow");
        if old & WRITER != 0 {
            client.faa(self.addr, u64::MAX)?; // roll back
            return Ok(false);
        }
        Ok(true)
    }

    /// Enters a read section, parking on a change notification while a
    /// writer holds the lock. `max_attempts` bounds the retries. A dead
    /// writer's word is cleared (readers preserved) once this reader has
    /// observed it unchanged for [`LEASE_NS`] of its own waiting time,
    /// so crashed writers do not wedge readers.
    pub fn read_lock(&self, client: &mut FabricClient, max_attempts: u32) -> Result<()> {
        let _span = client.span("rwlock.read_lock");
        if self.try_read_lock(client)? {
            return Ok(());
        }
        let sub = client.notify0(self.addr, WORD)?;
        // Lease accounting as in `FarMutex::lock`: waited time counts
        // against the writer's lease only while the word stays
        // bit-identical (the stamp makes every acquisition unique).
        let mut wait = LeaseWait::new(sub);
        let result = (|| {
            for _ in 1..max_attempts {
                // Probe with a plain read while a writer is visible: the
                // optimistic FAA of `try_read_lock` perturbs the word and
                // fires change notifications, which would reset every
                // waiter's lease accounting on each probe. Only attempt
                // the increment once no writer bit shows.
                // audit: rt-in-loop-ok: lease acquire — one probe per
                // notification wakeup/backoff slice, bounded by max_attempts.
                let seen = client.read_u64(self.addr)?;
                if seen & WRITER == 0 {
                    if self.try_read_lock(client)? {
                        return Ok(());
                    }
                    // A writer slipped in between the read and the FAA.
                    wait.reset();
                    continue;
                }
                if wait.observe(seen) >= LEASE_NS {
                    // Dead writer: clear it on its behalf, keeping the
                    // transient reader bits (and the guard), then race
                    // for the read lock. The out-waited lease is gone
                    // either way — restart the accounting.
                    let _ = client.cas(self.addr, seen, (seen & COUNT_MASK) | GUARD)?;
                    wait.reset();
                    continue;
                }
                wait.park(client);
            }
            Err(CoreError::LockTimeout)
        })();
        client.unsubscribe(sub)?;
        result
    }

    /// Leaves a read section. One far access.
    pub fn read_unlock(&self, client: &mut FabricClient) -> Result<()> {
        let _span = client.span("rwlock.read_unlock");
        let old = client.faa(self.addr, u64::MAX)?;
        if old & COUNT_MASK == 0 {
            // Erroneous unlock (caller bug): the decrement's borrow was
            // absorbed by the GUARD bit, so the stamp and tag other
            // clients act on were never perturbed; the compensating
            // increment restores the guard (or a racing reader's carry
            // already has — FAAs commute, so the pair always nets out).
            client.faa(self.addr, 1)?;
            return Err(CoreError::Corrupted("read_unlock without a read lock"));
        }
        Ok(())
    }

    /// Attempts to take the write lock: one CAS (free → leased writer).
    /// **One far access**; fails if any reader or writer is inside.
    pub fn try_write_lock(&self, client: &mut FabricClient) -> Result<bool> {
        let word = Self::writer_word(client, 0);
        Ok(client.cas(self.addr, FREE, word)? == FREE)
    }

    /// Takes the write lock, parking on change notifications while the
    /// lock is busy. A dead writer is CAS-stolen once this contender has
    /// observed its word unchanged for [`LEASE_NS`] of its own waiting
    /// time (crashed *readers* still block — see module docs).
    pub fn write_lock(&self, client: &mut FabricClient, max_attempts: u32) -> Result<()> {
        let _span = client.span("rwlock.write_lock");
        if self.try_write_lock(client)? {
            return Ok(());
        }
        let sub = client.notifye(self.addr, FREE)?;
        let mut wait = LeaseWait::new(sub);
        let result = (|| {
            for _ in 1..max_attempts {
                if self.try_write_lock(client)? {
                    return Ok(());
                }
                // audit: rt-in-loop-ok: lease acquire — one attempt per
                // notification wakeup/backoff slice, bounded by max_attempts.
                let seen = client.read_u64(self.addr)?;
                if wait.observe(seen) >= LEASE_NS && seen & WRITER != 0 {
                    // Steal the dead writer's lease, preserving transient
                    // reader bits; the exact-word CAS fences live racers.
                    let next = Self::writer_word(client, seen & COUNT_MASK);
                    if client.cas(self.addr, seen, next)? == seen {
                        return Ok(());
                    }
                    wait.reset();
                    continue;
                }
                wait.park(client);
            }
            Err(CoreError::LockTimeout)
        })();
        client.unsubscribe(sub)?;
        result
    }

    /// Releases the write lock. Two far accesses on the quiet path
    /// (read, then fenced CAS); a few more if optimistic readers keep
    /// perturbing the low bits between the read and the CAS.
    ///
    /// Returns [`CoreError::LeaseLost`] if the word no longer carries
    /// this client's tag (the lease expired and the lock was stolen) and
    /// [`CoreError::Corrupted`] if no writer holds the lock at all.
    pub fn write_unlock(&self, client: &mut FabricClient) -> Result<()> {
        let _span = client.span("rwlock.write_unlock");
        let tag = Self::owner_tag(client);
        // Optimistic readers may FAA the low bits between our read and
        // CAS; re-read and retry a bounded number of times. Each transient
        // perturbation is rolled back by its reader within two of its far
        // accesses, so the word settles quickly.
        for _ in 0..1024 {
            // audit: rt-in-loop-ok: bounded release retry — readers roll
            // back their perturbation within two accesses, so this settles.
            let word = client.read_u64(self.addr)?;
            if word & WRITER == 0 {
                return Err(CoreError::Corrupted("write_unlock without the write lock"));
            }
            if (word >> TAG_SHIFT) & TAG_MASK != tag {
                return Err(CoreError::LeaseLost);
            }
            // Release, preserving in-flight reader increments (their
            // owners saw WRITER and will decrement them right back) and
            // the underflow guard.
            if client.cas(self.addr, word, (word & COUNT_MASK) | GUARD)? == word {
                return Ok(());
            }
        }
        Err(CoreError::Contended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;
    use std::sync::Arc;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn readers_share_writers_exclude() {
        let (f, a) = setup();
        let mut r1 = f.client();
        let mut r2 = f.client();
        let mut w = f.client();
        let l = FarRwLock::create(&mut r1, &a, AllocHint::Spread).unwrap();
        assert!(l.try_read_lock(&mut r1).unwrap());
        assert!(l.try_read_lock(&mut r2).unwrap(), "readers share");
        assert!(!l.try_write_lock(&mut w).unwrap(), "writer excluded");
        l.read_unlock(&mut r1).unwrap();
        assert!(!l.try_write_lock(&mut w).unwrap(), "one reader remains");
        l.read_unlock(&mut r2).unwrap();
        assert!(l.try_write_lock(&mut w).unwrap());
        assert!(!l.try_read_lock(&mut r1).unwrap(), "readers excluded by writer");
        l.write_unlock(&mut w).unwrap();
    }

    #[test]
    fn read_fast_path_is_one_far_access() {
        let (f, a) = setup();
        let mut c = f.client();
        let l = FarRwLock::create(&mut c, &a, AllocHint::Spread).unwrap();
        let before = c.stats();
        l.read_lock(&mut c, 10).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
        let before = c.stats();
        l.read_unlock(&mut c).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
    }

    #[test]
    fn bad_unlocks_detected() {
        let (f, a) = setup();
        let mut c = f.client();
        let l = FarRwLock::create(&mut c, &a, AllocHint::Spread).unwrap();
        assert!(matches!(l.read_unlock(&mut c), Err(CoreError::Corrupted(_))));
        assert!(matches!(l.write_unlock(&mut c), Err(CoreError::Corrupted(_))));
    }

    #[test]
    fn dead_writer_is_stolen_and_fenced() {
        let (f, a) = setup();
        let mut dead = f.client();
        let mut w = f.client();
        let mut r = f.client();
        let l = FarRwLock::create(&mut dead, &a, AllocHint::Spread).unwrap();
        assert!(l.try_write_lock(&mut dead).unwrap());
        // A second writer accumulates timed-out waits against the
        // unchanging word until it has out-waited the lease, then steals.
        l.write_lock(&mut w, 1_000).unwrap();
        // The dead writer's late unlock is fenced off by the tag.
        assert!(matches!(l.write_unlock(&mut dead), Err(CoreError::LeaseLost)));
        l.write_unlock(&mut w).unwrap();
        // Same story with a reader doing the cleanup.
        assert!(l.try_write_lock(&mut dead).unwrap());
        l.read_lock(&mut r, 1_000).unwrap();
        // The reader *cleared* the dead writer's word rather than taking
        // it over, so the late unlock sees a writer-free lock.
        assert!(l.write_unlock(&mut dead).is_err());
        l.read_unlock(&mut r).unwrap();
    }

    #[test]
    fn skewed_clock_never_steals_a_live_writer() {
        // Clocks are per-client and unsynchronized: a contender whose
        // clock runs far ahead must not treat a freshly taken write lock
        // as expired. Only its own waited time counts against the lease.
        let (f, a) = setup();
        let mut holder = f.client();
        let mut fast = f.client();
        let l = FarRwLock::create(&mut holder, &a, AllocHint::Spread).unwrap();
        assert!(l.try_write_lock(&mut holder).unwrap());
        fast.advance_time(10 * LEASE_NS);
        // Bounded attempts accrue far less than LEASE_NS of waiting, so
        // both sides must time out rather than steal or clear the lock.
        assert!(matches!(l.write_lock(&mut fast, 5), Err(CoreError::LockTimeout)));
        assert!(matches!(l.read_lock(&mut fast, 5), Err(CoreError::LockTimeout)));
        l.write_unlock(&mut holder).unwrap();
    }

    #[test]
    fn erroneous_read_unlock_never_perturbs_writer_metadata() {
        // A buggy zero-count read_unlock borrows into the GUARD bit only:
        // the writer's tag survives and its unlock still succeeds.
        let (f, a) = setup();
        let mut w = f.client();
        let mut buggy = f.client();
        let l = FarRwLock::create(&mut w, &a, AllocHint::Spread).unwrap();
        assert!(l.try_write_lock(&mut w).unwrap());
        assert!(matches!(l.read_unlock(&mut buggy), Err(CoreError::Corrupted(_))));
        l.write_unlock(&mut w).unwrap();
        assert!(l.try_read_lock(&mut buggy).unwrap(), "lock fully usable afterwards");
        l.read_unlock(&mut buggy).unwrap();
    }

    #[test]
    fn threads_respect_exclusion() {
        let f = FabricConfig::single_node(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let l = FarRwLock::create(&mut c0, &a, AllocHint::Spread).unwrap();
        let cell = a.alloc(8, AllocHint::Spread).unwrap();
        c0.write_u64(cell, 0).unwrap();
        let mut handles = Vec::new();
        // Two writers increment under the write lock; two readers verify
        // they never observe a torn intermediate (odd marker) state.
        for _ in 0..2 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let l = FarRwLock::attach(l.addr());
                for _ in 0..100 {
                    l.write_lock(&mut c, 100_000).unwrap();
                    let v = c.read_u64(cell).unwrap();
                    c.write_u64(cell, v + 1).unwrap(); // odd: mid-update
                    c.write_u64(cell, v + 2).unwrap(); // even: settled
                    l.write_unlock(&mut c).unwrap();
                }
            }));
        }
        for _ in 0..2 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let l = FarRwLock::attach(l.addr());
                for _ in 0..200 {
                    l.read_lock(&mut c, 100_000).unwrap();
                    let v = c.read_u64(cell).unwrap();
                    assert_eq!(v % 2, 0, "readers never see a mid-update value");
                    l.read_unlock(&mut c).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c0.read_u64(cell).unwrap(), 400);
    }
}
