//! Far counters (§5.1): the simplest far-memory data structure.
//!
//! A counter is a single far word operated on with loads, stores and
//! fabric atomics. Interested parties can watch it with equality
//! notifications instead of polling far memory.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr, SubId, WORD};

use crate::error::Result;

/// A shared counter in far memory.
///
/// The handle is a plain address: cheap to copy and to hand to other
/// clients. All operations are single far accesses.
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::{AllocHint, FarAlloc};
/// use farmem_core::FarCounter;
///
/// let fabric = FabricConfig::single_node(1 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut a = fabric.client();
/// let mut b = fabric.client();
/// let ctr = FarCounter::create(&mut a, &alloc, 0, AllocHint::Spread).unwrap();
/// ctr.increment(&mut a).unwrap();
/// ctr.add(&mut b, 9).unwrap(); // any client, one far access
/// assert_eq!(ctr.get(&mut a).unwrap(), 10);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FarCounter {
    addr: FarAddr,
}

impl FarCounter {
    /// Allocates a counter initialized to `initial`. One far access.
    pub fn create(
        client: &mut FabricClient,
        alloc: &FarAlloc,
        initial: u64,
        hint: AllocHint,
    ) -> Result<FarCounter> {
        let addr = alloc.alloc(WORD, hint)?;
        client.write_u64(addr, initial)?;
        Ok(FarCounter { addr })
    }

    /// Attaches to an existing counter at `addr`.
    pub fn attach(addr: FarAddr) -> FarCounter {
        FarCounter { addr }
    }

    /// The counter's far address (for sharing with other clients).
    pub fn addr(&self) -> FarAddr {
        self.addr
    }

    /// Reads the current value. One far access.
    pub fn get(&self, client: &mut FabricClient) -> Result<u64> {
        Ok(client.read_u64(self.addr)?)
    }

    /// Overwrites the value. One far access.
    pub fn set(&self, client: &mut FabricClient, value: u64) -> Result<()> {
        Ok(client.write_u64(self.addr, value)?)
    }

    /// Atomically adds `delta` (wrapping), returning the previous value.
    /// One far access.
    pub fn add(&self, client: &mut FabricClient, delta: u64) -> Result<u64> {
        Ok(client.faa(self.addr, delta)?)
    }

    /// Atomically increments, returning the previous value. One far access.
    pub fn increment(&self, client: &mut FabricClient) -> Result<u64> {
        self.add(client, 1)
    }

    /// Atomically decrements, returning the previous value. One far access.
    pub fn decrement(&self, client: &mut FabricClient) -> Result<u64> {
        self.add(client, u64::MAX)
    }

    /// Compare-and-swap; returns the previous value. One far access.
    pub fn cas(&self, client: &mut FabricClient, expected: u64, new: u64) -> Result<u64> {
        Ok(client.cas(self.addr, expected, new)?)
    }

    /// Subscribes to the counter reaching `value` exactly (`notifye`),
    /// avoiding far-memory polling. One far access to register.
    pub fn watch_equal(&self, client: &mut FabricClient, value: u64) -> Result<SubId> {
        Ok(client.notifye(self.addr, value)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::{Event, FabricConfig};
    use std::sync::Arc;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(1 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn increments_are_single_far_accesses() {
        let (f, a) = setup();
        let mut c = f.client();
        let ctr = FarCounter::create(&mut c, &a, 0, AllocHint::Spread).unwrap();
        let before = c.stats();
        for _ in 0..10 {
            ctr.increment(&mut c).unwrap();
        }
        assert_eq!(c.stats().since(&before).round_trips, 10);
        assert_eq!(ctr.get(&mut c).unwrap(), 10);
    }

    #[test]
    fn shared_between_clients() {
        let (f, a) = setup();
        let mut c1 = f.client();
        let mut c2 = f.client();
        let ctr = FarCounter::create(&mut c1, &a, 5, AllocHint::Spread).unwrap();
        let remote = FarCounter::attach(ctr.addr());
        assert_eq!(remote.add(&mut c2, 3).unwrap(), 5);
        assert_eq!(ctr.get(&mut c1).unwrap(), 8);
    }

    #[test]
    fn decrement_wraps_like_fetch_add() {
        let (f, a) = setup();
        let mut c = f.client();
        let ctr = FarCounter::create(&mut c, &a, 2, AllocHint::Spread).unwrap();
        ctr.decrement(&mut c).unwrap();
        ctr.decrement(&mut c).unwrap();
        assert_eq!(ctr.get(&mut c).unwrap(), 0);
    }

    #[test]
    fn watch_equal_fires_at_threshold() {
        let (f, a) = setup();
        let mut writer = f.client();
        let mut watcher = f.client();
        let ctr = FarCounter::create(&mut writer, &a, 0, AllocHint::Spread).unwrap();
        ctr.watch_equal(&mut watcher, 3).unwrap();
        for _ in 0..3 {
            ctr.increment(&mut writer).unwrap();
        }
        let events = watcher.recv_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Equal { value: 3, .. })));
    }
}
