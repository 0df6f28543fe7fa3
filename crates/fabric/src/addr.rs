//! Far-memory addressing: the global address space and its mapping onto
//! memory nodes.
//!
//! Large far memories comprise many memory nodes with the far address space
//! distributed across them (§7.1 of the paper). This module defines the
//! 64-bit global [`FarAddr`] space and the [`Striping`] policies that map a
//! global address to a `(node, node-local offset)` pair, mirroring
//! interleaving in traditional local memories.

use crate::error::{FabricError, Result};

/// Size of a far-memory word in bytes. Aligned word accesses are atomic;
/// larger transfers are not (they may tear), matching RDMA semantics.
pub const WORD: u64 = 8;

/// Size of a far-memory page in bytes. Notification subscriptions are
/// associated with pages (§4.3) and must not cross page boundaries.
pub const PAGE: u64 = 4096;

/// A 64-bit address in the global far-memory address space.
///
/// Address `0` is reserved as the null pointer; the fabric never allocates
/// or accepts it, so data structures can use `0` as an "empty" sentinel in
/// pointer slots.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FarAddr(pub u64);

impl FarAddr {
    /// The null far address.
    pub const NULL: FarAddr = FarAddr(0);

    /// Returns `true` if this is the null address.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Returns the address advanced by `delta` bytes.
    #[inline]
    pub fn offset(self, delta: u64) -> FarAddr {
        FarAddr(self.0 + delta)
    }

    /// Returns `true` if the address is aligned to `align` bytes.
    #[inline]
    pub fn is_aligned(self, align: u64) -> bool {
        self.0.is_multiple_of(align)
    }
}

impl core::fmt::Debug for FarAddr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "far:{:#x}", self.0)
    }
}

/// Identifier of a memory node in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Policy mapping the global address space onto memory nodes.
///
/// `Blocked` lays the space out node by node (node 0 owns the first
/// `node_capacity` bytes, and so on); `Striped` round-robins fixed-size
/// stripes across nodes to spread bandwidth, as in interleaved local
/// memories (§7.1). Stripes are required to be multiples of [`PAGE`] so a
/// page — and therefore a notification subscription — never spans nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Striping {
    /// Contiguous per-node blocks.
    Blocked,
    /// Round-robin stripes of `stripe` bytes across all nodes.
    Striped {
        /// Stripe size in bytes; must be a positive multiple of [`PAGE`].
        stripe: u64,
    },
}

/// A contiguous run of an access on a single memory node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Owning node.
    pub node: NodeId,
    /// Node-local byte offset of the run.
    pub offset: u64,
    /// Length of the run in bytes.
    pub len: u64,
    /// Global address of the first byte of the run.
    pub addr: FarAddr,
}

/// The concrete mapping of the global address space for one fabric.
#[derive(Clone, Debug)]
pub struct AddressMap {
    nodes: u32,
    node_capacity: u64,
    striping: Striping,
}

impl AddressMap {
    /// Creates a map over `nodes` nodes of `node_capacity` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `nodes == 0`, if `node_capacity` is not a positive multiple
    /// of [`PAGE`], or if a striped policy uses a stripe that is zero or not
    /// page-aligned. These are configuration errors, not runtime conditions.
    pub fn new(nodes: u32, node_capacity: u64, striping: Striping) -> AddressMap {
        assert!(nodes > 0, "fabric needs at least one memory node");
        assert!(
            node_capacity > 0 && node_capacity.is_multiple_of(PAGE),
            "node capacity must be a positive multiple of the page size"
        );
        if let Striping::Striped { stripe } = striping {
            assert!(
                stripe > 0 && stripe % PAGE == 0,
                "stripe must be a positive multiple of the page size"
            );
            assert!(
                node_capacity.is_multiple_of(stripe),
                "node capacity must be a whole number of stripes"
            );
        }
        AddressMap { nodes, node_capacity, striping }
    }

    /// Total bytes of far memory in the fabric.
    #[inline]
    pub fn total_capacity(&self) -> u64 {
        self.node_capacity * self.nodes as u64
    }

    /// Number of memory nodes.
    #[inline]
    pub fn node_count(&self) -> u32 {
        self.nodes
    }

    /// Per-node capacity in bytes.
    #[inline]
    pub fn node_capacity(&self) -> u64 {
        self.node_capacity
    }

    /// The striping policy in force.
    #[inline]
    pub fn striping(&self) -> Striping {
        self.striping
    }

    /// Checks that `[addr, addr+len)` lies inside the provisioned space and
    /// does not touch the reserved null page.
    pub fn check(&self, addr: FarAddr, len: u64) -> Result<()> {
        let end = addr.0.checked_add(len);
        match end {
            Some(end) if addr.0 >= WORD && end <= self.total_capacity() => Ok(()),
            _ => Err(FabricError::OutOfBounds { addr, len }),
        }
    }

    /// Maps a global address to its owning node and node-local offset.
    #[inline]
    pub fn locate(&self, addr: FarAddr) -> (NodeId, u64) {
        match self.striping {
            Striping::Blocked => {
                let node = (addr.0 / self.node_capacity) as u32;
                (NodeId(node), addr.0 % self.node_capacity)
            }
            Striping::Striped { stripe } => {
                let global_stripe = addr.0 / stripe;
                let node = (global_stripe % self.nodes as u64) as u32;
                let local_stripe = global_stripe / self.nodes as u64;
                (NodeId(node), local_stripe * stripe + addr.0 % stripe)
            }
        }
    }

    /// Node owning a global address.
    #[inline]
    pub fn node_of(&self, addr: FarAddr) -> NodeId {
        self.locate(addr).0
    }

    /// Returns the lowest global address owned by `node` at node-local
    /// offset `offset` (the inverse of [`AddressMap::locate`]).
    pub fn global_of(&self, node: NodeId, offset: u64) -> FarAddr {
        match self.striping {
            Striping::Blocked => FarAddr(node.0 as u64 * self.node_capacity + offset),
            Striping::Striped { stripe } => {
                let local_stripe = offset / stripe;
                let global_stripe = local_stripe * self.nodes as u64 + node.0 as u64;
                FarAddr(global_stripe * stripe + offset % stripe)
            }
        }
    }

    /// Splits `[addr, addr+len)` into per-node contiguous segments, in
    /// address order. The range is checked here; the returned iterator
    /// yields at least one segment for a non-empty range and owns a copy
    /// of the map, so it borrows nothing.
    pub fn segments(&self, addr: FarAddr, len: u64) -> Result<Segments> {
        self.check(addr, len)?;
        Ok(Segments { map: self.clone(), cur: addr.0, end: addr.0 + len })
    }
}

/// Iterator over the per-node [`Segment`]s of one checked address range
/// (see [`AddressMap::segments`]).
#[derive(Clone, Debug)]
pub struct Segments {
    map: AddressMap,
    cur: u64,
    end: u64,
}

impl Iterator for Segments {
    type Item = Segment;

    fn next(&mut self) -> Option<Segment> {
        if self.cur >= self.end {
            return None;
        }
        let cur = self.cur;
        let (node, offset) = self.map.locate(FarAddr(cur));
        // Length until the next mapping discontinuity.
        let run = match self.map.striping {
            Striping::Blocked => self.map.node_capacity - cur % self.map.node_capacity,
            Striping::Striped { stripe } => stripe - cur % stripe,
        };
        let len = run.min(self.end - cur);
        self.cur += len;
        Some(Segment { node, offset, len, addr: FarAddr(cur) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocked_locate_round_trips() {
        let m = AddressMap::new(4, 1 << 20, Striping::Blocked);
        for &a in &[8u64, 4096, (1 << 20) + 16, 3 * (1 << 20) + 4088] {
            let (n, off) = m.locate(FarAddr(a));
            assert_eq!(m.global_of(n, off), FarAddr(a));
        }
    }

    #[test]
    fn striped_locate_round_trips() {
        let m = AddressMap::new(3, 1 << 20, Striping::Striped { stripe: PAGE });
        for a in (8u64..3 * (1 << 20)).step_by(40961) {
            let (n, off) = m.locate(FarAddr(a));
            assert_eq!(m.global_of(n, off), FarAddr(a), "addr {a}");
        }
    }

    #[test]
    fn striped_round_robins_pages() {
        let m = AddressMap::new(4, 1 << 20, Striping::Striped { stripe: PAGE });
        assert_eq!(m.node_of(FarAddr(0)), NodeId(0));
        assert_eq!(m.node_of(FarAddr(PAGE)), NodeId(1));
        assert_eq!(m.node_of(FarAddr(2 * PAGE)), NodeId(2));
        assert_eq!(m.node_of(FarAddr(4 * PAGE)), NodeId(0));
    }

    #[test]
    fn segments_split_on_stripe_boundaries() {
        let m = AddressMap::new(2, 1 << 20, Striping::Striped { stripe: PAGE });
        let segs: Vec<Segment> = m.segments(FarAddr(PAGE - 16), 32).unwrap().collect();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].node, NodeId(0));
        assert_eq!(segs[0].len, 16);
        assert_eq!(segs[1].node, NodeId(1));
        assert_eq!(segs[1].len, 16);
        assert_eq!(segs[1].offset, 0);
    }

    #[test]
    fn segments_blocked_stays_single() {
        let m = AddressMap::new(2, 1 << 20, Striping::Blocked);
        assert_eq!(m.segments(FarAddr(8), 4096).unwrap().count(), 1);
        assert_eq!(m.segments(FarAddr(8), 0).unwrap().count(), 0);
    }

    #[test]
    fn null_page_and_oob_rejected() {
        let m = AddressMap::new(1, 1 << 20, Striping::Blocked);
        assert!(m.check(FarAddr(0), 8).is_err());
        assert!(m.check(FarAddr(1 << 20), 1).is_err());
        assert!(m.check(FarAddr((1 << 20) - 8), 8).is_ok());
        assert!(m.check(FarAddr(u64::MAX), 16).is_err());
    }
}
