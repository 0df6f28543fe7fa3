//! Per-client bump arenas: amortized zero-far-access item allocation.

use std::sync::Arc;

use farmem_fabric::FarAddr;

use crate::{AllocError, AllocHint, FarAlloc, Result};

/// A per-client bump allocator carving chunks out of a [`FarAlloc`].
///
/// Far-memory data structures frequently publish small immutable records
/// (HT-tree items, queue payloads). Allocating each record through a shared
/// allocator would add coordination; instead each client owns an arena and
/// bumps a local cursor — zero far accesses per item, with one chunk
/// refill every `chunk_len / item` allocations.
///
/// Arena memory is only reclaimed wholesale, by [`Arena::retire`]. This
/// is the usual trade-off for publish-only records whose liveness is
/// governed by the containing data structure's epochs; records that must
/// come back one at a time are slab-allocated and retired through
/// `farmem-reclaim` instead.
///
/// Simply **dropping** an arena strands its chunks: `live_bytes` stays
/// elevated forever (asserted by the `plain_drop_strands_chunks` test).
/// Teardown paths must call `retire` explicitly — an implicit `Drop` free
/// would be unsound, because dropping happens at unwinding/scope exit
/// where concurrent readers may still hold references.
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::{AllocHint, Arena, FarAlloc};
///
/// let fabric = FabricConfig::single_node(1 << 20).build();
/// let alloc = FarAlloc::new(fabric);
/// let mut arena = Arena::new(alloc, 4096, AllocHint::Spread);
/// let a = arena.alloc(32).unwrap(); // zero far accesses (bump)
/// let b = arena.alloc(32).unwrap();
/// assert_ne!(a, b);
/// ```
pub struct Arena {
    alloc: Arc<FarAlloc>,
    hint: AllocHint,
    chunk_len: u64,
    chunk: FarAddr,
    cursor: u64,
    /// Chunks fully used, retained for `retire`.
    retired: Vec<FarAddr>,
    /// Oversized items (> `chunk_len`) with their word-rounded lengths;
    /// they got dedicated allocations and are freed at `retire` like the
    /// chunks (they used to be silently leaked).
    oversized: Vec<(FarAddr, u64)>,
    items: u64,
}

impl Arena {
    /// Creates an arena drawing `chunk_len`-byte chunks with `hint`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero (configuration error).
    pub fn new(alloc: Arc<FarAlloc>, chunk_len: u64, hint: AllocHint) -> Arena {
        assert!(chunk_len > 0, "arena chunks must be non-empty");
        Arena {
            alloc,
            hint,
            chunk_len,
            chunk: FarAddr::NULL,
            cursor: 0,
            retired: Vec::new(),
            oversized: Vec::new(),
            items: 0,
        }
    }

    /// Number of items handed out.
    pub fn items(&self) -> u64 {
        self.items
    }

    /// Number of chunks drawn from the underlying allocator.
    pub fn chunks(&self) -> usize {
        self.retired.len() + usize::from(!self.chunk.is_null())
    }

    /// Allocates `len` bytes (word-rounded). Amortized zero far accesses:
    /// the bump is local; a refill is one allocator call.
    pub fn alloc(&mut self, len: u64) -> Result<FarAddr> {
        if len == 0 {
            return Err(AllocError::ZeroSize);
        }
        let len = len.div_ceil(8) * 8;
        if len > self.chunk_len {
            // Oversized item: dedicated allocation with the same hint,
            // tracked so `retire` returns it along with the chunks.
            let addr = self.alloc.alloc(len, self.hint)?;
            self.oversized.push((addr, len));
            self.items += 1;
            return Ok(addr);
        }
        if self.chunk.is_null() || self.cursor + len > self.chunk_len {
            if !self.chunk.is_null() {
                self.retired.push(self.chunk);
            }
            self.chunk = self.alloc.alloc(self.chunk_len, self.hint)?;
            self.cursor = 0;
        }
        let addr = self.chunk.offset(self.cursor);
        self.cursor += len;
        self.items += 1;
        Ok(addr)
    }

    /// Returns every chunk (and oversized item) this arena ever drew to
    /// the underlying allocator. The caller asserts nothing references
    /// the items anymore.
    pub fn retire(mut self) -> Result<()> {
        if !self.chunk.is_null() {
            self.retired.push(self.chunk);
            self.chunk = FarAddr::NULL;
        }
        for chunk in self.retired.drain(..) {
            self.alloc.free(chunk, self.chunk_len)?;
        }
        for (addr, len) in self.oversized.drain(..) {
            self.alloc.free(addr, len)?;
        }
        Ok(())
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn arena() -> Arena {
        let f = FabricConfig::single_node(4 << 20).build();
        Arena::new(FarAlloc::new(f), 4096, AllocHint::Spread)
    }

    #[test]
    fn items_are_distinct_and_word_aligned() {
        let mut a = arena();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            let addr = a.alloc(24).unwrap();
            assert!(addr.is_aligned(8));
            assert!(seen.insert(addr));
        }
        assert_eq!(a.items(), 500);
    }

    #[test]
    fn refills_amortize() {
        let mut a = arena();
        for _ in 0..512 {
            a.alloc(32).unwrap();
        }
        // 512 × 32 B = 4 chunks of 4096.
        assert_eq!(a.chunks(), 4);
    }

    #[test]
    fn oversized_items_get_dedicated_allocations() {
        let mut a = arena();
        let big = a.alloc(10_000).unwrap();
        assert!(!big.is_null());
        let small = a.alloc(8).unwrap();
        assert_ne!(big, small);
    }

    #[test]
    fn retire_returns_chunks() {
        let f = FabricConfig::single_node(4 << 20).build();
        let alloc = FarAlloc::new(f);
        let mut a = Arena::new(alloc.clone(), 4096, AllocHint::Spread);
        for _ in 0..200 {
            a.alloc(64).unwrap();
        }
        let live_before = alloc.stats().live_bytes;
        a.retire().unwrap();
        assert!(alloc.stats().live_bytes < live_before);
    }

    /// `retire` frees everything — including oversized dedicated
    /// allocations, which used to be silently leaked. `live_bytes`
    /// returns to its pre-arena baseline.
    #[test]
    fn retire_restores_live_bytes_baseline() {
        let f = FabricConfig::single_node(4 << 20).build();
        let alloc = FarAlloc::new(f);
        let baseline = alloc.stats().live_bytes;
        let mut a = Arena::new(alloc.clone(), 4096, AllocHint::Spread);
        for _ in 0..200 {
            a.alloc(64).unwrap();
        }
        a.alloc(10_000).unwrap(); // oversized: dedicated allocation
        assert!(alloc.stats().live_bytes > baseline);
        a.retire().unwrap();
        assert_eq!(alloc.stats().live_bytes, baseline);
    }

    /// Documented behavior: plain `drop` strands the chunks (an implicit
    /// free would be unsound under concurrent readers). Teardown must go
    /// through `retire`.
    #[test]
    fn plain_drop_strands_chunks() {
        let f = FabricConfig::single_node(4 << 20).build();
        let alloc = FarAlloc::new(f);
        let baseline = alloc.stats().live_bytes;
        let mut a = Arena::new(alloc.clone(), 4096, AllocHint::Spread);
        for _ in 0..200 {
            a.alloc(64).unwrap();
        }
        drop(a);
        assert!(
            alloc.stats().live_bytes > baseline,
            "dropped arena chunks stay allocated (leak is deliberate)"
        );
    }

    #[test]
    fn zero_size_rejected() {
        let mut a = arena();
        assert_eq!(a.alloc(0), Err(AllocError::ZeroSize));
    }
}
