//! One-sided linked list: the O(n)-far-accesses strawman of §1.
//!
//! "For instance, linked lists take O(n) far accesses" — this module
//! exists to measure exactly that (experiment E2). Nodes live in far
//! memory as `{key, value, next}` records; a lookup chases pointers with
//! one far access per node.

use farmem_alloc::{AllocHint, Arena, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr, WORD};
use std::sync::Arc;

use crate::{BaselineError, Result};

const NODE_LEN: u64 = 24;

/// A singly linked list in far memory with head insertion.
pub struct OneSidedList {
    /// Far word holding the head pointer.
    head: FarAddr,
    arena: Arena,
}

impl OneSidedList {
    /// Creates an empty list.
    pub fn create(client: &mut FabricClient, alloc: &Arc<FarAlloc>) -> Result<OneSidedList> {
        let head = alloc.alloc(WORD, AllocHint::Spread)?;
        client.write_u64(head, 0)?;
        Ok(OneSidedList { head, arena: Arena::new(alloc.clone(), 4096, AllocHint::Spread) })
    }

    /// Inserts at the head. Three far accesses (read head, publish node,
    /// CAS head), retried on races.
    pub fn insert(&mut self, client: &mut FabricClient, key: u64, value: u64) -> Result<()> {
        for _ in 0..64 {
            let old = client.read_u64(self.head)?;
            let node = self.arena.alloc(NODE_LEN)?;
            let mut bytes = Vec::with_capacity(NODE_LEN as usize);
            for w in [key, value, old] {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            client.write(node, &bytes)?;
            if client.cas(self.head, old, node.0)? == old {
                return Ok(());
            }
        }
        Err(BaselineError::Contended)
    }

    /// Looks up `key`, walking the chain: **one far access per node**.
    pub fn get(&self, client: &mut FabricClient, key: u64) -> Result<Option<u64>> {
        let mut cur = client.read_u64(self.head)?;
        while cur != 0 {
            let bytes = client.read(FarAddr(cur), NODE_LEN)?;
            let k = u64::from_le_bytes(bytes[0..8].try_into().expect("key"));
            if k == key {
                return Ok(Some(u64::from_le_bytes(bytes[8..16].try_into().expect("value"))));
            }
            cur = u64::from_le_bytes(bytes[16..24].try_into().expect("next"));
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    #[test]
    fn insert_and_walk() {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut l = OneSidedList::create(&mut c, &a).unwrap();
        for k in 0..50u64 {
            l.insert(&mut c, k, k * 2).unwrap();
        }
        assert_eq!(l.get(&mut c, 25).unwrap(), Some(50));
        assert_eq!(l.get(&mut c, 99).unwrap(), None);
    }

    #[test]
    fn lookup_cost_grows_linearly() {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut l = OneSidedList::create(&mut c, &a).unwrap();
        for k in 0..100u64 {
            l.insert(&mut c, k, k).unwrap();
        }
        // Key 0 was inserted first, so it is at the tail: ~n accesses.
        let before = c.stats();
        l.get(&mut c, 0).unwrap();
        let deep = c.stats().since(&before).round_trips;
        let before = c.stats();
        l.get(&mut c, 99).unwrap();
        let shallow = c.stats().since(&before).round_trips;
        assert!(deep > 90, "tail lookup costs ~n accesses, got {deep}");
        assert_eq!(shallow, 2, "head lookup costs 2 accesses");
    }
}
