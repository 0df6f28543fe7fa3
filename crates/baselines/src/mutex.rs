//! Far mutexes (§5.1), hardened with leases and fencing tags.
//!
//! A far mutex is a far-memory word initialized to 0 (free). Clients
//! acquire it with a fabric CAS; when the CAS fails, an equality
//! notification against 0 (`notifye`) tells the waiter when the mutex is
//! released — no far-memory polling.
//!
//! No far-memory structure takes a lock: the §5.2 HT-tree and the §5.3
//! queue coordinate through single-word CAS and indirect atomics. The
//! mutex lives here, beside [`crate::LockQueue`], the comparator that
//! shows what a locked far structure costs (experiment E5).
//!
//! # Leases and fencing
//!
//! A plain CAS lock wedges forever if its holder crashes. Instead, the
//! lock word encodes `owner_tag << 48 | acquisition_stamp`. A contender
//! that observes the *same* held word across [`LEASE_NS`] of its **own
//! accumulated waiting time** concludes the holder is dead and
//! CAS-steals the word. The tag doubles as a fencing token: a holder
//! whose lease was stolen gets [`BaselineError::LeaseLost`] from
//! [`FarMutex::unlock`] instead of silently "releasing" a lock that now
//! belongs to someone else.
//!
//! The steal decision deliberately never compares the contender's clock
//! against the stamp in the word: per-client virtual clocks are
//! unsynchronized (each starts at 0 and advances with its own activity),
//! so a cross-client absolute-time comparison would let a fast-clock
//! contender steal a freshly acquired, live lock. Only time the
//! contender itself spent waiting — charged by its timed-out wait
//! slices — counts against the lease, and only while the observed word
//! stays bit-identical. The stamp's job is uniqueness: every
//! acquisition ticks the acquirer's clock and embeds it, so two
//! acquisitions never produce the same word and "bit-identical" always
//! means "same holder, same acquisition". A live lock that cycles
//! through holders therefore resets every contender's accounting,
//! and stealing from a live holder would require that holder to sit in
//! one critical section for the whole [`LEASE_NS`] — ~5 orders of
//! magnitude longer than the far accesses a critical section performs.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr, WORD};

use crate::{BaselineError, Result};

/// Value of a free mutex word.
const FREE: u64 = 0;

/// Virtual-time length of a lock lease. 100ms of virtual time dwarfs any
/// critical section (far accesses cost ~2µs each), so live holders are
/// never stolen from, while a crashed holder delays contenders by a
/// bounded — and simulated, not wall-clock — 100ms.
pub const LEASE_NS: u64 = 100_000_000;

/// Bit position of the owner tag inside the lock word.
const TAG_SHIFT: u32 = 48;

/// Low 48 bits hold the acquisition stamp (the holder's virtual clock at
/// acquisition plus [`LEASE_NS`], truncated). The stamp is never compared
/// against another client's clock — it only makes each acquisition's word
/// unique (see module docs), so truncation wrap is harmless.
const STAMP_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// Wall-clock granularity of one contended wait. Short enough that
/// out-waiting a dead holder's lease finishes in ~a hundred ms.
const WAIT_SLICE: std::time::Duration = std::time::Duration::from_millis(1);

/// Virtual time charged per timed-out wait slice, exponentially grown
/// per attempt while the held word stays unchanged. Capped so a single
/// slice never leaps a meaningful fraction of a lease.
const WAIT_BASE_NS: u64 = 1_000;
const WAIT_CAP_NS: u64 = 1_000_000;

/// A mutual-exclusion lock in far memory.
///
/// The handle carries no client state; any client can contend on the same
/// address. Lock owners are identified by `client.id() + 1` so a free lock
/// (0) is never a valid owner; the tag must fit in 16 bits.
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::{AllocHint, FarAlloc};
/// use farmem_baselines::FarMutex;
///
/// let fabric = FabricConfig::single_node(1 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut c = fabric.client();
/// let m = FarMutex::create(&mut c, &alloc, AllocHint::Spread).unwrap();
/// m.lock(&mut c, 16).unwrap();   // one CAS when uncontended
/// /* critical section on far data */
/// m.unlock(&mut c).unwrap();
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarMutex {
    addr: FarAddr,
}

impl FarMutex {
    /// Allocates a free mutex. One far access.
    pub fn create(client: &mut FabricClient, alloc: &FarAlloc, hint: AllocHint) -> Result<FarMutex> {
        let addr = alloc.alloc(WORD, hint)?;
        client.write_u64(addr, FREE)?;
        Ok(FarMutex { addr })
    }

    /// Attaches to an existing mutex at `addr`.
    pub fn attach(addr: FarAddr) -> FarMutex {
        FarMutex { addr }
    }

    /// The mutex's far address.
    pub fn addr(&self) -> FarAddr {
        self.addr
    }

    fn owner_tag(client: &FabricClient) -> u64 {
        client.id() as u64 + 1
    }

    /// The word this client would own the lock with. Ticks the client's
    /// clock by 1 ns so that even under a zero-cost model two acquisitions
    /// by the same client never stamp identical words — contenders rely on
    /// word changes to detect a live, cycling lock.
    fn lease_word(client: &mut FabricClient) -> u64 {
        let tag = Self::owner_tag(client);
        debug_assert!(tag < (1 << 16), "client id overflows the fencing tag");
        client.advance_time(1);
        (tag << TAG_SHIFT) | (client.now_ns().wrapping_add(LEASE_NS) & STAMP_MASK)
    }

    /// The fencing tag encoded in a held lock word.
    fn tag_of(word: u64) -> u64 {
        word >> TAG_SHIFT
    }

    /// Attempts to acquire the mutex with one CAS. One far access;
    /// returns `true` on success. Does not steal expired leases — use
    /// [`FarMutex::lock`] (or [`FarMutex::try_steal`]) for that.
    pub fn try_lock(&self, client: &mut FabricClient) -> Result<bool> {
        let word = Self::lease_word(client);
        Ok(client.cas(self.addr, FREE, word)? == FREE)
    }

    /// Attempts to take over the lock from a holder presumed dead:
    /// `held` is the word the caller has observed *unchanged* for
    /// `waited_ns` of its own accumulated waiting time. Refuses unless
    /// that waited time has out-lasted [`LEASE_NS`] — clocks of
    /// different clients are unsynchronized, so the stamp inside `held`
    /// is never consulted. One far access; returns `true` if the steal
    /// won.
    ///
    /// The CAS is against the exact observed word, so a holder that is
    /// alive after all (it re-acquired, stamping a fresh word) is never
    /// clobbered, and at most one contender wins the steal.
    pub fn try_steal(&self, client: &mut FabricClient, held: u64, waited_ns: u64) -> Result<bool> {
        if held == FREE || waited_ns < LEASE_NS {
            return Ok(false);
        }
        let word = Self::lease_word(client);
        Ok(client.cas(self.addr, held, word)? == held)
    }

    /// Acquires the mutex, using an equality notification to wait for
    /// release instead of polling far memory (§5.1).
    ///
    /// `max_attempts` bounds CAS retries (each retry happens only after a
    /// release notification or a timed-out wait slice), after which
    /// [`BaselineError::Contended`] is returned. The fast path is one far
    /// access. If the holder dies, waiting charges virtual time against
    /// its lease and the lock is eventually stolen (see module docs).
    pub fn lock(&self, client: &mut FabricClient, max_attempts: u32) -> Result<()> {
        let _span = client.span("mutex.lock");
        if self.try_lock(client)? {
            return Ok(());
        }
        // Contended: subscribe once, then re-CAS only when notified free
        // or when a wait slice times out (the holder may be dead).
        let sub = client.notifye(self.addr, FREE)?;
        let mut attempts = 1;
        // Lease accounting: the held word being out-waited, this client's
        // own waiting time accumulated against it, and the virtual backoff
        // to charge on the next timed-out slice. All three reset whenever
        // the observed word changes, so only an unchanging holder (a dead
        // one) accumulates waited time against its lease. No held word is
        // FREE, so FREE stands for "nothing watched yet".
        let (mut watched, mut waited, mut backoff) = (FREE, 0u64, WAIT_BASE_NS);
        let result = loop {
            if attempts >= max_attempts {
                break Err(BaselineError::Contended);
            }
            // A release may have raced the subscription; check once
            // immediately, then only on events or timeouts.
            // Lease acquire — one CAS per notification
            // wakeup or backoff slice, bounded by max_attempts.
            let my_word = Self::lease_word(client);
            let seen = client.cas(self.addr, FREE, my_word)?;
            if seen == FREE {
                break Ok(());
            }
            if seen != watched {
                (watched, waited, backoff) = (seen, 0, WAIT_BASE_NS);
            }
            if self.try_steal(client, seen, waited)? {
                break Ok(());
            }
            attempts += 1;
            // Wait for a notification. In single-threaded virtual time the
            // event is already queued; in threaded use, park until one is
            // pending, then claim it. A timed-out slice charges virtual
            // waiting time toward the watched lease.
            if client.take_events(|e| e.sub() == Some(sub)).is_empty()
                && !client.sink().wait_pending(WAIT_SLICE)
            {
                client.advance_time(backoff);
                waited = waited.saturating_add(backoff);
                backoff = backoff.saturating_mul(2).min(WAIT_CAP_NS);
            } else {
                let _ = client.take_events(|e| e.sub() == Some(sub));
            }
        };
        client.unsubscribe(sub)?;
        result
    }

    /// Releases the mutex. Two far accesses (read, then fenced CAS).
    ///
    /// Returns [`BaselineError::LeaseLost`] if the word no longer carries
    /// this client's fencing tag — the lease expired and another client
    /// stole the lock, so this client must treat its critical section as
    /// having been forfeited. Returns [`BaselineError::BadConfig`] if the
    /// word holds a *free* lock, which no lease semantics can produce
    /// from a correct caller.
    pub fn unlock(&self, client: &mut FabricClient) -> Result<()> {
        let _span = client.span("mutex.unlock");
        let tag = Self::owner_tag(client);
        let word = client.read_u64(self.addr)?;
        if word == FREE {
            return Err(BaselineError::BadConfig("unlock of a mutex not held by any client"));
        }
        if Self::tag_of(word) != tag {
            return Err(BaselineError::LeaseLost);
        }
        if client.cas(self.addr, word, FREE)? != word {
            // Stolen between the read and the CAS.
            return Err(BaselineError::LeaseLost);
        }
        Ok(())
    }

    /// Runs `f` under the mutex, always releasing it afterwards.
    pub fn with<T>(
        &self,
        client: &mut FabricClient,
        max_attempts: u32,
        f: impl FnOnce(&mut FabricClient) -> Result<T>,
    ) -> Result<T> {
        self.lock(client, max_attempts)?;
        let out = f(client);
        // Release even if `f` failed; surface the first error.
        let rel = self.unlock(client);
        match (out, rel) {
            (Ok(v), Ok(())) => Ok(v),
            (Err(e), _) => Err(e),
            (Ok(_), Err(e)) => Err(e),
        }
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
    fn uncontended_lock_is_one_far_access() {
        let (f, a) = setup();
        let mut c = f.client();
        let m = FarMutex::create(&mut c, &a, AllocHint::Spread).unwrap();
        let before = c.stats();
        m.lock(&mut c, 10).unwrap();
        assert_eq!(c.stats().since(&before).round_trips, 1);
        m.unlock(&mut c).unwrap();
    }

    #[test]
    fn contended_try_lock_fails_until_release() {
        let (f, a) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let m = FarMutex::create(&mut c1, &a, AllocHint::Spread).unwrap();
        assert!(m.try_lock(&mut c1).unwrap());
        assert!(!m.try_lock(&mut c2).unwrap());
        m.unlock(&mut c1).unwrap();
        assert!(m.try_lock(&mut c2).unwrap());
        m.unlock(&mut c2).unwrap();
    }

    #[test]
    fn notification_wakes_contended_locker() {
        let (f, a) = setup();
        let mut holder = f.client();
        let mut waiter = f.client();
        let m = FarMutex::create(&mut holder, &a, AllocHint::Spread).unwrap();
        assert!(m.try_lock(&mut holder).unwrap());
        // Single-threaded: release first, so the waiter's event is queued
        // by the time it enters its wait loop.
        assert!(!m.try_lock(&mut waiter).unwrap());
        m.unlock(&mut holder).unwrap();
        m.lock(&mut waiter, 10).unwrap();
        m.unlock(&mut waiter).unwrap();
    }

    #[test]
    fn unlock_by_non_owner_is_detected() {
        let (f, a) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let m = FarMutex::create(&mut c1, &a, AllocHint::Spread).unwrap();
        assert!(m.try_lock(&mut c1).unwrap());
        assert!(matches!(m.unlock(&mut c2), Err(BaselineError::LeaseLost)));
        m.unlock(&mut c1).unwrap();
    }

    #[test]
    fn expired_lease_is_stolen_and_late_unlock_fenced_off() {
        let (f, a) = setup();
        let mut dead = f.client();
        let mut b = f.client();
        let m = FarMutex::create(&mut dead, &a, AllocHint::Spread).unwrap();
        assert!(m.try_lock(&mut dead).unwrap());
        // `dead` crashes without unlocking. B's lock() accumulates
        // timed-out wait slices against the unchanging word until it has
        // out-waited the lease, then steals.
        assert!(!m.try_lock(&mut b).unwrap());
        m.lock(&mut b, 1_000).unwrap();
        // The late unlock from the presumed-dead holder is rejected by
        // the fencing tag, so it cannot free B's lock out from under it.
        assert!(matches!(m.unlock(&mut dead), Err(BaselineError::LeaseLost)));
        m.unlock(&mut b).unwrap();
    }

    #[test]
    fn skewed_clock_never_steals_a_live_lock() {
        // Per-client virtual clocks are unsynchronized: a contender whose
        // clock runs far ahead of the holder's must NOT mistake a freshly
        // acquired lock for an expired one. Only its own waited time —
        // not its absolute clock — may count against the lease.
        let (f, a) = setup();
        let mut holder = f.client();
        let mut fast = f.client();
        let m = FarMutex::create(&mut holder, &a, AllocHint::Spread).unwrap();
        assert!(m.try_lock(&mut holder).unwrap());
        fast.advance_time(10 * LEASE_NS);
        let held = fast.read_u64(m.addr()).unwrap();
        assert!(
            !m.try_steal(&mut fast, held, 0).unwrap(),
            "no waited time, no steal — regardless of clock skew"
        );
        // A bounded lock() accrues far less than LEASE_NS of waiting and
        // must time out rather than steal the live holder's lock.
        assert!(matches!(m.lock(&mut fast, 5), Err(BaselineError::Contended)));
        m.unlock(&mut holder).unwrap();
    }

    #[test]
    fn lock_outwaits_dead_holder_without_explicit_clock_help() {
        let (f, a) = setup();
        let mut dead = f.client();
        let mut b = f.client();
        let m = FarMutex::create(&mut dead, &a, AllocHint::Spread).unwrap();
        assert!(m.try_lock(&mut dead).unwrap());
        // No advance_time: lock() itself charges timed-out wait slices
        // against the unchanged lease until it can steal.
        m.lock(&mut b, 10_000).unwrap();
        assert!(b.now_ns() >= LEASE_NS, "steal must out-wait the lease in virtual time");
        m.unlock(&mut b).unwrap();
    }

    #[test]
    fn with_releases_on_error() {
        let (f, a) = setup();
        let mut c = f.client();
        let m = FarMutex::create(&mut c, &a, AllocHint::Spread).unwrap();
        let r: Result<()> = m.with(&mut c, 10, |_| Err(BaselineError::Empty));
        assert!(matches!(r, Err(BaselineError::Empty)));
        assert!(m.try_lock(&mut c).unwrap(), "mutex was released");
        m.unlock(&mut c).unwrap();
    }

    #[test]
    fn threads_contend_correctly() {
        let f = FabricConfig::single_node(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let m = FarMutex::create(&mut c0, &a, AllocHint::Spread).unwrap();
        let counter_addr = a.alloc(8, AllocHint::Spread).unwrap();
        c0.write_u64(counter_addr, 0).unwrap();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let m = FarMutex::attach(m.addr());
                for _ in 0..50 {
                    m.lock(&mut c, 10_000).unwrap();
                    // Non-atomic read-modify-write protected by the mutex.
                    let v = c.read_u64(counter_addr).unwrap();
                    c.write_u64(counter_addr, v + 1).unwrap();
                    m.unlock(&mut c).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c0.read_u64(counter_addr).unwrap(), 200);
    }
}
