//! Far barriers (§5.1).
//!
//! A barrier is a far-memory counter initialized to the number of
//! participants. Each participant atomically decrements it on arrival;
//! an equality notification against 0 (`notifye`) tells everyone when the
//! last participant has arrived — again, no far-memory polling.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{Event, FabricClient, FarAddr, WORD};

use crate::error::{CoreError, Result};

/// A single-use synchronization barrier in far memory.
///
/// Reuse requires [`FarBarrier::reset`] after all participants have left;
/// generation-free barriers are the common far-memory idiom because the
/// counter itself is the only shared word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarBarrier {
    addr: FarAddr,
    parties: u64,
}

impl FarBarrier {
    /// Allocates a barrier for `parties` participants. One far access.
    pub fn create(
        client: &mut FabricClient,
        alloc: &FarAlloc,
        parties: u64,
        hint: AllocHint,
    ) -> Result<FarBarrier> {
        if parties == 0 {
            return Err(CoreError::BadConfig("a barrier needs at least one party"));
        }
        let addr = alloc.alloc(WORD, hint)?;
        client.write_u64(addr, parties)?;
        Ok(FarBarrier { addr, parties })
    }

    /// Attaches to an existing barrier at `addr` with the same `parties`.
    pub fn attach(addr: FarAddr, parties: u64) -> FarBarrier {
        FarBarrier { addr, parties }
    }

    /// The barrier's far address.
    pub fn addr(&self) -> FarAddr {
        self.addr
    }

    /// Registers arrival: one atomic decrement (one far access).
    /// Returns the number of parties still missing.
    pub fn arrive(&self, client: &mut FabricClient) -> Result<u64> {
        let prev = client.faa(self.addr, u64::MAX)?; // wrapping -1
        if prev == 0 || prev > self.parties {
            return Err(CoreError::Corrupted("barrier decremented below zero"));
        }
        Ok(prev - 1)
    }

    /// Subscribes to barrier completion (`notifye` against 0) — call
    /// before [`arrive`](Self::arrive) to avoid a missed-wakeup window.
    pub fn subscribe_done(&self, client: &mut FabricClient) -> Result<farmem_fabric::SubId> {
        Ok(client.notifye(self.addr, 0)?)
    }

    /// Arrives and waits for all parties, using the equality notification
    /// to learn completion (§5.1).
    ///
    /// In threaded use the wait blocks on the notification queue with
    /// `timeout`; [`CoreError::BarrierTimeout`] is returned on expiry.
    pub fn arrive_and_wait(
        &self,
        client: &mut FabricClient,
        timeout: std::time::Duration,
    ) -> Result<()> {
        let sub = self.subscribe_done(client)?;
        let remaining = self.arrive(&mut *client)?;
        let result = if remaining == 0 {
            Ok(())
        } else {
            self.wait_inner(client, sub, timeout)
        };
        client.unsubscribe(sub)?;
        result
    }

    fn wait_inner(
        &self,
        client: &mut FabricClient,
        sub: farmem_fabric::SubId,
        timeout: std::time::Duration,
    ) -> Result<()> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            let events = client.take_events(|e| e.sub() == Some(sub));
            if events.iter().any(|e| matches!(e, Event::Equal { value: 0, .. })) {
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                return Err(CoreError::BarrierTimeout);
            }
            // Park until something arrives (threaded contexts) or retry.
            client
                .sink()
                .wait_pending(std::time::Duration::from_millis(20));
        }
    }

    /// Re-arms the barrier for another round. Only call once every
    /// participant has observed completion.
    pub fn reset(&self, client: &mut FabricClient) -> Result<()> {
        Ok(client.write_u64(self.addr, self.parties)?)
    }
}

/// A reusable, generation-counting barrier in far memory.
///
/// Two far words — a monotone arrival counter and a generation word — make
/// the barrier reusable without any reset: arrival `i` belongs to
/// generation `i / parties`, and the last arriver of a generation bumps
/// the generation word, which is what waiters watch (`notify0`). No state
/// ever needs to be rolled back, so there is no reuse race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarEpochBarrier {
    /// Base address: word 0 = arrival counter, word 1 = generation.
    addr: FarAddr,
    parties: u64,
}

impl FarEpochBarrier {
    /// Allocates a reusable barrier for `parties` participants.
    pub fn create(
        client: &mut FabricClient,
        alloc: &FarAlloc,
        parties: u64,
        hint: AllocHint,
    ) -> Result<FarEpochBarrier> {
        if parties == 0 {
            return Err(CoreError::BadConfig("a barrier needs at least one party"));
        }
        let addr = alloc.alloc(2 * WORD, hint)?;
        client.write(addr, &[0u8; 16])?;
        Ok(FarEpochBarrier { addr, parties })
    }

    /// Attaches to an existing barrier at `addr` with the same `parties`.
    pub fn attach(addr: FarAddr, parties: u64) -> FarEpochBarrier {
        FarEpochBarrier { addr, parties }
    }

    /// The barrier's far address.
    pub fn addr(&self) -> FarAddr {
        self.addr
    }

    /// Arrives and waits for the rest of this generation.
    ///
    /// One far access to arrive (fetch-and-add); the last arriver bumps
    /// the generation (one more), which notifies every waiter.
    pub fn arrive_and_wait(
        &self,
        client: &mut FabricClient,
        timeout: std::time::Duration,
    ) -> Result<u64> {
        let sub = client.notify0(self.addr.offset(WORD), WORD)?;
        let index = client.faa(self.addr, 1)?;
        let generation = index / self.parties;
        let result = if index % self.parties == self.parties - 1 {
            // Last arriver: open the next generation.
            client.faa(self.addr.offset(WORD), 1)?;
            Ok(generation)
        } else {
            self.wait_generation(client, sub, generation + 1, timeout)
                .map(|_| generation)
        };
        client.unsubscribe(sub)?;
        result
    }

    fn wait_generation(
        &self,
        client: &mut FabricClient,
        sub: farmem_fabric::SubId,
        target: u64,
        timeout: std::time::Duration,
    ) -> Result<()> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            // Events are pushed; check the generation only when notified
            // (plus once upfront in case the bump already happened).
            // audit: rt-in-loop-ok: one re-check per notification wakeup,
            // not per element; the deadline bounds the loop.
            if client.read_u64(self.addr.offset(WORD))? >= target {
                return Ok(());
            }
            if std::time::Instant::now() >= deadline {
                return Err(CoreError::BarrierTimeout);
            }
            if client.take_events(|e| e.sub() == Some(sub)).is_empty() {
                client.sink().wait_pending(std::time::Duration::from_millis(20));
                let _ = client.take_events(|e| e.sub() == Some(sub));
            }
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
    fn arrive_counts_down_one_far_access_each() {
        let (f, a) = setup();
        let mut c = f.client();
        let b = FarBarrier::create(&mut c, &a, 3, AllocHint::Spread).unwrap();
        let before = c.stats();
        assert_eq!(b.arrive(&mut c).unwrap(), 2);
        assert_eq!(b.arrive(&mut c).unwrap(), 1);
        assert_eq!(b.arrive(&mut c).unwrap(), 0);
        assert_eq!(c.stats().since(&before).round_trips, 3);
    }

    #[test]
    fn over_arrival_is_detected() {
        let (f, a) = setup();
        let mut c = f.client();
        let b = FarBarrier::create(&mut c, &a, 1, AllocHint::Spread).unwrap();
        b.arrive(&mut c).unwrap();
        assert!(matches!(b.arrive(&mut c), Err(CoreError::Corrupted(_))));
    }

    #[test]
    fn last_arrival_notifies_subscribers() {
        let (f, a) = setup();
        let mut w = f.client();
        let mut watcher = f.client();
        let b = FarBarrier::create(&mut w, &a, 2, AllocHint::Spread).unwrap();
        b.subscribe_done(&mut watcher).unwrap();
        b.arrive(&mut w).unwrap();
        assert!(watcher.recv_events().is_empty());
        b.arrive(&mut w).unwrap();
        assert!(watcher
            .recv_events()
            .iter()
            .any(|e| matches!(e, Event::Equal { value: 0, .. })));
    }

    #[test]
    fn threads_rendezvous() {
        let f = FabricConfig::single_node(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let parties = 4;
        let b = FarBarrier::create(&mut c0, &a, parties, AllocHint::Spread).unwrap();
        let mut handles = Vec::new();
        for _ in 0..parties {
            let f = f.clone();
            let b = FarBarrier::attach(b.addr(), parties);
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                b.arrive_and_wait(&mut c, std::time::Duration::from_secs(5))
            }));
        }
        for h in handles {
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn epoch_barrier_reuses_across_generations() {
        let (f, a) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let b = FarEpochBarrier::create(&mut c1, &a, 2, AllocHint::Spread).unwrap();
        for round in 0..5u64 {
            // Single-threaded: the second arriver completes the round, so
            // arrive in an order that never blocks.
            let g1 = {
                let sub = c1.notify0(b.addr().offset(WORD), WORD).unwrap();
                let idx = c1.faa(b.addr(), 1).unwrap();
                c1.unsubscribe(sub).unwrap();
                idx / 2
            };
            let g2 = b.arrive_and_wait(&mut c2, std::time::Duration::from_secs(1)).unwrap();
            assert_eq!(g1, round);
            assert_eq!(g2, round);
        }
    }

    #[test]
    fn epoch_barrier_threads_rendezvous_repeatedly() {
        let f = FabricConfig::single_node(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let parties = 4u64;
        let b = FarEpochBarrier::create(&mut c0, &a, parties, AllocHint::Spread).unwrap();
        let mut handles = Vec::new();
        for _ in 0..parties {
            let f = f.clone();
            let b = FarEpochBarrier::attach(b.addr(), parties);
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let mut gens = Vec::new();
                for _ in 0..5 {
                    gens.push(
                        b.arrive_and_wait(&mut c, std::time::Duration::from_secs(10)).unwrap(),
                    );
                }
                gens
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn reset_allows_reuse() {
        let (f, a) = setup();
        let mut c = f.client();
        let b = FarBarrier::create(&mut c, &a, 2, AllocHint::Spread).unwrap();
        b.arrive(&mut c).unwrap();
        b.arrive(&mut c).unwrap();
        b.reset(&mut c).unwrap();
        assert_eq!(b.arrive(&mut c).unwrap(), 1);
    }

    #[test]
    fn zero_parties_rejected() {
        let (f, a) = setup();
        let mut c = f.client();
        assert!(matches!(
            FarBarrier::create(&mut c, &a, 0, AllocHint::Spread),
            Err(CoreError::BadConfig(_))
        ));
    }
}
