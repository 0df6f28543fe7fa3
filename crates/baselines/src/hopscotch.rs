//! FaRM-style hopscotch hash table \[11\].
//!
//! FaRM inlines multiple colliding key-value pairs in *neighbouring*
//! buckets, so a client reads a whole neighbourhood in one far access —
//! one round trip per lookup, but it "consumes additional bandwidth to
//! transfer items that will not be used" (§8). This comparator exists to
//! measure exactly that trade against the HT-tree (experiment E3):
//! similar round trips, very different bytes.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{splitmix64, FabricClient, FarAddr, WORD};
use std::sync::Arc;

use crate::{BaselineError, Result};

/// Neighbourhood size (slots read per lookup).
pub const NEIGHBORHOOD: u64 = 8;

/// Slot layout: {tag, key, value}; tag 0 = empty, 1 = occupied.
const SLOT_LEN: u64 = 3 * WORD;

/// A hopscotch-inlined open-addressing table accessed one-sidedly.
///
/// Writes are single-writer (a read-path comparator); lookups may run
/// concurrently from any client.
pub struct HopscotchHash {
    slots: FarAddr,
    n_slots: u64,
}

impl HopscotchHash {
    /// Creates a table of `n_slots` inline slots.
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        n_slots: u64,
    ) -> Result<HopscotchHash> {
        if n_slots < 2 * NEIGHBORHOOD {
            return Err(BaselineError::BadConfig("table too small for a neighbourhood"));
        }
        let slots = alloc.alloc(n_slots * SLOT_LEN, AllocHint::Spread)?;
        client.write(slots, &vec![0u8; (n_slots * SLOT_LEN) as usize])?;
        Ok(HopscotchHash { slots, n_slots })
    }

    /// Attaches to an existing table.
    pub fn attach(slots: FarAddr, n_slots: u64) -> HopscotchHash {
        HopscotchHash { slots, n_slots }
    }

    /// Far address of the slot array (for [`HopscotchHash::attach`]).
    pub fn slots_addr(&self) -> FarAddr {
        self.slots
    }

    /// Number of slots.
    pub fn n_slots(&self) -> u64 {
        self.n_slots
    }

    fn home(&self, key: u64) -> u64 {
        splitmix64(key) % self.n_slots
    }

    fn slot_addr(&self, idx: u64) -> FarAddr {
        self.slots.offset((idx % self.n_slots) * SLOT_LEN)
    }

    /// Inserts `key → value`. Reads the neighbourhood (one far access) and
    /// writes one slot (one more). Returns [`BaselineError::TableFull`]
    /// when no free slot exists within the neighbourhood and linear
    /// displacement cannot free one nearby (kept simple: no multi-hop
    /// displacement chains).
    pub fn insert(&mut self, client: &mut FabricClient, key: u64, value: u64) -> Result<()> {
        let home = self.home(key);
        let hood = self.read_hood(client, home)?;
        // Update in place if present.
        for (i, slot) in hood.iter().enumerate() {
            if slot.0 == 1 && slot.1 == key {
                return self.write_slot(client, home + i as u64, key, value);
            }
        }
        for (i, slot) in hood.iter().enumerate() {
            if slot.0 == 0 {
                return self.write_slot(client, home + i as u64, key, value);
            }
        }
        Err(BaselineError::TableFull)
    }

    fn write_slot(&self, client: &mut FabricClient, idx: u64, key: u64, value: u64) -> Result<()> {
        let mut bytes = Vec::with_capacity(SLOT_LEN as usize);
        for w in [1u64, key, value] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        client.write(self.slot_addr(idx), &bytes)?;
        Ok(())
    }

    /// Reads the neighbourhood starting at `idx` in one far access (two
    /// messages when it wraps the table end).
    fn read_hood(&self, client: &mut FabricClient, idx: u64) -> Result<Vec<(u64, u64, u64)>> {
        let idx = idx % self.n_slots;
        let take_before_wrap = (self.n_slots - idx).min(NEIGHBORHOOD);
        let bytes = if take_before_wrap == NEIGHBORHOOD {
            client.read(self.slot_addr(idx), NEIGHBORHOOD * SLOT_LEN)?
        } else {
            // Wrapping neighbourhood: one gather, still one far access.
            client.rgather(&[
                farmem_fabric::FarIov::new(self.slot_addr(idx), take_before_wrap * SLOT_LEN),
                farmem_fabric::FarIov::new(
                    self.slots,
                    (NEIGHBORHOOD - take_before_wrap) * SLOT_LEN,
                ),
            ])?
        };
        Ok(bytes
            .chunks_exact(SLOT_LEN as usize)
            .map(|c| {
                (
                    u64::from_le_bytes(c[0..8].try_into().expect("tag")),
                    u64::from_le_bytes(c[8..16].try_into().expect("key")),
                    u64::from_le_bytes(c[16..24].try_into().expect("value")),
                )
            })
            .collect())
    }

    /// Looks up `key`: **one far access**, always transferring the full
    /// neighbourhood (`NEIGHBORHOOD × 24` bytes).
    pub fn get(&self, client: &mut FabricClient, key: u64) -> Result<Option<u64>> {
        let hood = self.read_hood(client, self.home(key))?;
        Ok(hood
            .iter()
            .find(|&&(tag, k, _)| tag == 1 && k == key)
            .map(|&(_, _, v)| v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn setup(n: u64) -> (std::sync::Arc<farmem_fabric::Fabric>, HopscotchHash) {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let t = HopscotchHash::create(&mut c, &a, n).unwrap();
        (f, t)
    }

    #[test]
    fn insert_get_update() {
        let (f, mut t) = setup(1024);
        let mut c = f.client();
        for k in 0..300u64 {
            t.insert(&mut c, k, k * 3).unwrap();
        }
        for k in 0..300u64 {
            assert_eq!(t.get(&mut c, k).unwrap(), Some(k * 3));
        }
        t.insert(&mut c, 5, 999).unwrap();
        assert_eq!(t.get(&mut c, 5).unwrap(), Some(999));
        assert_eq!(t.get(&mut c, 5555).unwrap(), None);
    }

    #[test]
    fn lookup_is_one_access_but_bandwidth_heavy() {
        let (f, mut t) = setup(4096);
        let mut c = f.client();
        t.insert(&mut c, 42, 420).unwrap();
        let before = c.stats();
        assert_eq!(t.get(&mut c, 42).unwrap(), Some(420));
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 1, "one far access per lookup");
        assert_eq!(
            d.bytes_read,
            NEIGHBORHOOD * 24,
            "but it moves the whole neighbourhood"
        );
    }

    #[test]
    fn overload_reports_full() {
        let (f, mut t) = setup(16);
        let mut c = f.client();
        let mut stored = 0;
        for k in 0..64u64 {
            match t.insert(&mut c, k, k) {
                Ok(()) => stored += 1,
                Err(BaselineError::TableFull) => {}
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(stored >= 8, "some inserts succeeded");
        // Everything stored is retrievable.
        let mut found = 0;
        for k in 0..64u64 {
            if t.get(&mut c, k).unwrap() == Some(k) {
                found += 1;
            }
        }
        assert_eq!(found, stored);
    }

    #[test]
    fn wrapping_neighbourhood_works() {
        let (f, mut t) = setup(16);
        let mut c = f.client();
        // Find a key whose home is near the table end, forcing a wrap.
        let key = (0..10_000u64)
            .find(|&k| t.home(k) >= 16 - 3)
            .expect("some key homes near the end");
        t.insert(&mut c, key, 77).unwrap();
        assert_eq!(t.get(&mut c, key).unwrap(), Some(77));
    }
}
