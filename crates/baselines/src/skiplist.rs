//! One-sided skip list: the O(log n)-far-accesses strawman of §1.
//!
//! Every node visit during a search is one far access (the node must be
//! read from far memory to learn its forward pointers), so searches cost
//! O(log n) far accesses — far better than a list, still far worse than
//! the HT-tree's O(1). Writes are single-writer (this is a read-path
//! comparator for experiment E2); reads are safe to run concurrently.

use farmem_alloc::{AllocHint, Arena, FarAlloc};
use farmem_fabric::{FabricClient, FarAddr, WORD};
use std::sync::Arc;

use crate::Result;

/// Maximum tower height.
const MAX_LEVEL: usize = 24;

/// Node layout: key, value, level, next[level] — variable length.
fn node_len(level: usize) -> u64 {
    (3 + level as u64) * WORD
}

fn level_for(key: u64) -> usize {
    // Deterministic pseudo-random height from the key hash: geometric
    // with p = 1/2.
    let mut z = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xdead_beef_cafe_f00d;
    z ^= z >> 33;
    z = z.wrapping_mul(0xff51_afd7_ed55_8ccd);
    z ^= z >> 33;
    ((z.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

#[derive(Clone)]
struct Node {
    key: u64,
    value: u64,
    next: Vec<u64>,
}

fn decode(bytes: &[u8]) -> Node {
    let w: Vec<u64> = bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
        .collect();
    let level = w[2] as usize;
    Node { key: w[0], value: w[1], next: w[3..3 + level].to_vec() }
}

/// A skip list in far memory. The head tower is a far array of
/// `MAX_LEVEL` pointers.
pub struct OneSidedSkipList {
    /// Base of the head tower (MAX_LEVEL pointer words).
    head: FarAddr,
    arena: Arena,
}

impl OneSidedSkipList {
    /// Creates an empty skip list.
    pub fn create(client: &mut FabricClient, alloc: &Arc<FarAlloc>) -> Result<OneSidedSkipList> {
        let head = alloc.alloc(MAX_LEVEL as u64 * WORD, AllocHint::Spread)?;
        client.write(head, &[0u8; MAX_LEVEL * 8])?;
        Ok(OneSidedSkipList { head, arena: Arena::new(alloc.clone(), 4096, AllocHint::Spread) })
    }

    /// Inserts `key → value` (single writer). Reads the search path (one
    /// far access per visited node) and splices the new tower.
    pub fn insert(&mut self, client: &mut FabricClient, key: u64, value: u64) -> Result<()> {
        let level = level_for(key);
        // Collect the predecessor at each level. The head tower is read
        // once; every node visit is one far access.
        let head_words: Vec<u64> = client
            .read(self.head, MAX_LEVEL as u64 * WORD)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
            .collect();
        // preds[l] = Some(node addr) or None (head).
        let mut preds: Vec<Option<(u64, Node)>> = vec![None; MAX_LEVEL];
        let mut cur: Option<(u64, Node)> = None;
        for l in (0..MAX_LEVEL).rev() {
            loop {
                let next_addr = match &cur {
                    None => head_words[l],
                    Some((_, node)) => node.next.get(l).copied().unwrap_or(0),
                };
                if next_addr == 0 {
                    break;
                }
                let node = decode(&client.read(FarAddr(next_addr), node_len(MAX_LEVEL))?);
                if node.key >= key {
                    if node.key == key {
                        // Update in place: rewrite the value word.
                        client.write_u64(FarAddr(next_addr).offset(WORD), value)?;
                        return Ok(());
                    }
                    break;
                }
                cur = Some((next_addr, node));
            }
            preds[l] = cur.clone();
        }
        // Build and publish the new node.
        let mut next = vec![0u64; level];
        #[allow(clippy::needless_range_loop)]
        for l in 0..level {
            next[l] = match &preds[l] {
                None => head_words[l],
                Some((_, n)) => n.next.get(l).copied().unwrap_or(0),
            };
        }
        let addr = self.arena.alloc(node_len(level))?;
        let mut bytes = Vec::with_capacity(node_len(level) as usize);
        for w in [key, value, level as u64] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for n in &next {
            bytes.extend_from_slice(&n.to_le_bytes());
        }
        client.write(addr, &bytes)?;
        // Splice: update each predecessor's forward pointer.
        for (l, pred) in preds.iter().enumerate().take(level) {
            match pred {
                None => client.write_u64(self.head.offset(l as u64 * WORD), addr.0)?,
                Some((pred_addr, _)) => {
                    client
                        .write_u64(FarAddr(*pred_addr).offset((3 + l as u64) * WORD), addr.0)?;
                }
            }
        }
        Ok(())
    }

    /// Looks up `key`: O(log n) far accesses (one per visited node).
    pub fn get(&self, client: &mut FabricClient, key: u64) -> Result<Option<u64>> {
        let head_words: Vec<u64> = client
            .read(self.head, MAX_LEVEL as u64 * WORD)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
            .collect();
        let mut cur: Option<Node> = None;
        for l in (0..MAX_LEVEL).rev() {
            loop {
                let next_addr = match &cur {
                    None => head_words[l],
                    Some(node) => node.next.get(l).copied().unwrap_or(0),
                };
                if next_addr == 0 {
                    break;
                }
                let node = decode(&client.read(FarAddr(next_addr), node_len(MAX_LEVEL))?);
                if node.key == key {
                    return Ok(Some(node.value));
                }
                if node.key > key {
                    break;
                }
                cur = Some(node);
            }
        }
        Ok(None)
    }
}

impl std::fmt::Debug for OneSidedSkipList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OneSidedSkipList").field("head", &self.head).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    #[test]
    fn insert_get_update() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut s = OneSidedSkipList::create(&mut c, &a).unwrap();
        for k in (0..200u64).rev() {
            s.insert(&mut c, k * 3, k).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(s.get(&mut c, k * 3).unwrap(), Some(k), "key {}", k * 3);
            assert_eq!(s.get(&mut c, k * 3 + 1).unwrap(), None);
        }
        s.insert(&mut c, 30, 999).unwrap();
        assert_eq!(s.get(&mut c, 30).unwrap(), Some(999));
    }

    #[test]
    fn lookup_cost_is_logarithmic() {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let mut s = OneSidedSkipList::create(&mut c, &a).unwrap();
        let n = 2048u64;
        for k in 0..n {
            s.insert(&mut c, k, k).unwrap();
        }
        let mut total = 0u64;
        let probes = 64;
        for i in 0..probes {
            let key = i * (n / probes) + 13;
            let before = c.stats();
            s.get(&mut c, key.min(n - 1)).unwrap();
            total += c.stats().since(&before).round_trips;
        }
        let avg = total as f64 / probes as f64;
        // log2(2048) = 11; expect a small multiple of it, far below n.
        assert!(avg > 3.0 && avg < 60.0, "avg far accesses {avg}");
    }
}
