//! Queue comparators for §5.3: what far-memory queues cost *without*
//! `saai`/`faai`.
//!
//! * [`LockQueue`] — everything under a far mutex: correct and simple,
//!   but ~5 far accesses per operation plus lock contention.
//! * [`CasQueue`] — lock-free with plain CAS: claim an index with a CAS
//!   retry loop, then transfer the item separately — 3 dependent far
//!   accesses on the fast path and CAS storms under contention.
//!
//! Both are bounded rings without wrap repair (sized generously for the
//! benchmarks); the point is the per-operation far-access count and its
//! behaviour under contention, reproduced by experiment E5.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{BatchOp, FabricClient, FarAddr, WORD};
use std::sync::Arc;

use crate::{BaselineError, FarMutex, Result};

/// Header: head index, tail index, lock.
const Q_HEAD: u64 = 0;
const Q_TAIL: u64 = 8;
const Q_LOCK: u64 = 16;
const Q_HDR: u64 = 24;

/// A far queue protected by a single far mutex.
#[derive(Clone, Copy, Debug)]
pub struct LockQueue {
    hdr: FarAddr,
    slots: FarAddr,
    n_slots: u64,
}

impl LockQueue {
    /// Creates a queue of `n_slots` slots.
    pub fn create(client: &mut FabricClient, alloc: &Arc<FarAlloc>, n_slots: u64) -> Result<LockQueue> {
        if n_slots == 0 {
            return Err(BaselineError::BadConfig("queue must have slots"));
        }
        let hdr = alloc.alloc(Q_HDR, AllocHint::Spread)?;
        let slots = alloc.alloc(n_slots * WORD, AllocHint::Spread)?;
        client.write(hdr, &[0u8; Q_HDR as usize])?;
        client.write(slots, &vec![0u8; (n_slots * 8) as usize])?;
        Ok(LockQueue { hdr, slots, n_slots })
    }

    fn lock(&self) -> FarMutex {
        FarMutex::attach(self.hdr.offset(Q_LOCK))
    }

    /// Enqueues under the far mutex: lock + read indices + write slot +
    /// write tail + unlock ≈ five far accesses.
    pub fn enqueue(&self, client: &mut FabricClient, value: u64) -> Result<()> {
        if value == u64::MAX {
            return Err(BaselineError::BadConfig("u64::MAX is reserved"));
        }
        let lock = self.lock();
        lock.lock(client, 1_000_000)?;
        let out = (|| -> Result<()> {
            let head = client.read_u64(self.hdr.offset(Q_HEAD))?;
            let tail = client.read_u64(self.hdr.offset(Q_TAIL))?;
            if tail - head >= self.n_slots {
                return Err(BaselineError::Full);
            }
            client.batch(&[
                BatchOp::Write {
                    addr: self.slots.offset(tail % self.n_slots * WORD),
                    data: &(value + 1).to_le_bytes(),
                },
                BatchOp::Write {
                    addr: self.hdr.offset(Q_TAIL),
                    data: &(tail + 1).to_le_bytes(),
                },
            ])?;
            Ok(())
        })();
        lock.unlock(client)?;
        out
    }

    /// Dequeues under the far mutex (same cost shape as enqueue).
    pub fn dequeue(&self, client: &mut FabricClient) -> Result<u64> {
        let lock = self.lock();
        // audit: lock-across-rt-ok: deliberate strawman — the locked baseline
        // holds its lease across every verb by design; e5 measures the cost.
        lock.lock(client, 1_000_000)?;
        let out = (|| -> Result<u64> {
            let head = client.read_u64(self.hdr.offset(Q_HEAD))?;
            let tail = client.read_u64(self.hdr.offset(Q_TAIL))?;
            if head == tail {
                return Err(BaselineError::Empty);
            }
            let slot = self.slots.offset(head % self.n_slots * WORD);
            let raw = client.read_u64(slot)?;
            client.batch(&[
                BatchOp::Write { addr: slot, data: &0u64.to_le_bytes() },
                BatchOp::Write {
                    addr: self.hdr.offset(Q_HEAD),
                    data: &(head + 1).to_le_bytes(),
                },
            ])?;
            Ok(raw - 1)
        })();
        lock.unlock(client)?;
        out
    }
}

/// A lock-free far queue built from plain CAS (no indirect atomics).
///
/// Indices are claimed with CAS retry loops; the item transfer is a
/// separate far access, so a consumer may observe a claimed-but-unwritten
/// slot and must spin on it.
#[derive(Clone, Copy, Debug)]
pub struct CasQueue {
    hdr: FarAddr,
    slots: FarAddr,
    n_slots: u64,
}

/// Per-call retry counters (returned for contention analysis).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CasQueueCost {
    /// CAS attempts that lost the race.
    pub cas_retries: u64,
    /// Spins waiting for a claimed slot to be filled.
    pub slot_spins: u64,
}

impl CasQueue {
    /// Creates a queue of `n_slots` slots.
    pub fn create(client: &mut FabricClient, alloc: &Arc<FarAlloc>, n_slots: u64) -> Result<CasQueue> {
        if n_slots == 0 {
            return Err(BaselineError::BadConfig("queue must have slots"));
        }
        let hdr = alloc.alloc(Q_HDR, AllocHint::Spread)?;
        let slots = alloc.alloc(n_slots * WORD, AllocHint::Spread)?;
        client.write(hdr, &[0u8; Q_HDR as usize])?;
        client.write(slots, &vec![0u8; (n_slots * 8) as usize])?;
        Ok(CasQueue { hdr, slots, n_slots })
    }

    /// Enqueues: read tail, CAS-claim it, write the slot — three dependent
    /// far accesses plus retries. Returns the retry counts.
    pub fn enqueue(&self, client: &mut FabricClient, value: u64) -> Result<CasQueueCost> {
        if value == u64::MAX {
            return Err(BaselineError::BadConfig("u64::MAX is reserved"));
        }
        let mut cost = CasQueueCost::default();
        for _ in 0..100_000 {
            let tail = client.read_u64(self.hdr.offset(Q_TAIL))?;
            let head = client.read_u64(self.hdr.offset(Q_HEAD))?;
            if tail - head >= self.n_slots {
                return Err(BaselineError::Full);
            }
            if client.cas(self.hdr.offset(Q_TAIL), tail, tail + 1)? != tail {
                cost.cas_retries += 1;
                continue;
            }
            client
                .write_u64(self.slots.offset(tail % self.n_slots * WORD), value + 1)?;
            return Ok(cost);
        }
        Err(BaselineError::Contended)
    }

    /// Dequeues: read head, read slot (spinning until the producer's
    /// separate item write lands), CAS-claim, zero the slot — four or more
    /// dependent far accesses.
    pub fn dequeue(&self, client: &mut FabricClient) -> Result<(u64, CasQueueCost)> {
        let mut cost = CasQueueCost::default();
        for _ in 0..100_000 {
            let head = client.read_u64(self.hdr.offset(Q_HEAD))?;
            let tail = client.read_u64(self.hdr.offset(Q_TAIL))?;
            if head == tail {
                return Err(BaselineError::Empty);
            }
            let slot = self.slots.offset(head % self.n_slots * WORD);
            let raw = client.read_u64(slot)?;
            if raw == 0 {
                // Claimed by a producer whose item write has not landed.
                cost.slot_spins += 1;
                continue;
            }
            if client.cas(self.hdr.offset(Q_HEAD), head, head + 1)? != head {
                cost.cas_retries += 1;
                continue;
            }
            client.write_u64(slot, 0)?;
            return Ok((raw - 1, cost));
        }
        Err(BaselineError::Contended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn fab() -> (std::sync::Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn lock_queue_fifo_and_cost() {
        let (f, a) = fab();
        let mut c = f.client();
        let q = LockQueue::create(&mut c, &a, 64).unwrap();
        let before = c.stats();
        q.enqueue(&mut c, 7).unwrap();
        let d = c.stats().since(&before);
        assert!(d.round_trips >= 5, "lock queue enqueue costs ≥5, got {}", d.round_trips);
        q.enqueue(&mut c, 8).unwrap();
        assert_eq!(q.dequeue(&mut c).unwrap(), 7);
        assert_eq!(q.dequeue(&mut c).unwrap(), 8);
        assert!(matches!(q.dequeue(&mut c), Err(BaselineError::Empty)));
    }

    #[test]
    fn lock_queue_full() {
        let (f, a) = fab();
        let mut c = f.client();
        let q = LockQueue::create(&mut c, &a, 2).unwrap();
        q.enqueue(&mut c, 1).unwrap();
        q.enqueue(&mut c, 2).unwrap();
        assert!(matches!(q.enqueue(&mut c, 3), Err(BaselineError::Full)));
    }

    #[test]
    fn cas_queue_fifo_and_cost() {
        let (f, a) = fab();
        let mut c = f.client();
        let q = CasQueue::create(&mut c, &a, 64).unwrap();
        let before = c.stats();
        q.enqueue(&mut c, 7).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 4, "read tail + read head + CAS + write");
        q.enqueue(&mut c, 8).unwrap();
        assert_eq!(q.dequeue(&mut c).unwrap().0, 7);
        assert_eq!(q.dequeue(&mut c).unwrap().0, 8);
        assert!(matches!(q.dequeue(&mut c), Err(BaselineError::Empty)));
    }

    #[test]
    fn cas_queue_threaded_preserves_items() {
        let f = FabricConfig::single_node(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let q = CasQueue::create(&mut c0, &a, 4096).unwrap();
        let total = 400u64;
        let producer = {
            let f = f.clone();
            std::thread::spawn(move || {
                let mut c = f.client();
                for i in 0..total {
                    loop {
                        match q.enqueue(&mut c, i) {
                            Ok(_) => break,
                            Err(BaselineError::Full) => std::thread::yield_now(),
                            Err(e) => panic!("{e:?}"),
                        }
                    }
                }
            })
        };
        let mut c = f.client();
        let mut got = Vec::new();
        while got.len() < total as usize {
            match q.dequeue(&mut c) {
                Ok((v, _)) => got.push(v),
                Err(BaselineError::Empty) => std::thread::yield_now(),
                Err(e) => panic!("{e:?}"),
            }
        }
        producer.join().unwrap();
        let want: Vec<u64> = (0..total).collect();
        assert_eq!(got, want);
    }
}
