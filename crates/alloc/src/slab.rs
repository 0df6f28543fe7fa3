//! The size-class slab allocator over the global far address space.
//!
//! One rounding rule, [`rounded_len`], turns every node-bound request
//! into a size class: powers of two up to 32 B, then four classes per
//! doubling (48, 64, 80, 96, 112, 128, 160 … 4096, 5120 …), each a
//! multiple of 16 B, and whole pages past 16 KiB. Every class is carved
//! by one path: a *slab*, the smallest run of whole pages on one node
//! that wastes at most 1/8 of itself, cut into equal slots — one page
//! for every class up to 1 KiB, four pages holding three 5,120-B slots,
//! and exactly `class / PAGE` pages holding one slot for a page-multiple
//! class. [`AllocHint::Striped`] requests, and classes longer than a
//! striped map's stripe, take whole pages of the striped region instead.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use farmem_fabric::{splitmix64, Fabric, FarAddr, NodeId, PAGE};

use std::sync::Mutex;

use crate::{AllocError, AllocHint, Result};

/// Smallest size class in bytes (one word).
const MIN_CLASS: u64 = 8;
/// Finest step between classes past 32 B: every class of 16 B or more
/// is a multiple of it, so every slot of such a class is 16-B aligned.
const MIN_STEP: u64 = 16;

/// Counters describing allocator behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Bytes currently allocated (rounded to size classes/pages).
    pub live_bytes: u64,
    /// Total bytes ever allocated.
    pub allocated_bytes: u64,
    /// Total bytes ever freed.
    pub freed_bytes: u64,
    /// Pages carved from node pools into slabs.
    pub pages_carved: u64,
    /// Allocations satisfied from a free list (reuse).
    pub reused: u64,
}

/// Occupancy of one slab size class (see [`FarAlloc::class_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Rounded allocation size in bytes: the [`rounded_len`] class of a
    /// node-bound allocation, whole pages for a block of the striped
    /// region.
    pub class: u64,
    /// Outstanding allocations of this class.
    pub live: u64,
    /// Live bytes (`live * class`).
    pub live_bytes: u64,
    /// Carved-but-free slots of this class across all node pools (blocks
    /// of the striped region recycle through their own free list and are
    /// not counted here).
    pub free_slots: u64,
}

/// Which carving path an allocation came from — and so which free list
/// takes it back. Recorded per allocation rather than derived from the
/// address: under a blocked map the striped reserve at the top of the
/// global space lies on the last node, so an address test would mistake
/// that node's pool blocks for striped ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Region {
    /// A node pool: a slot of a slab.
    Node,
    /// The globally contiguous striped reserve.
    Striped,
}

/// Hashes a word key with [`splitmix64`]. The allocator's maps are keyed
/// by far addresses and sizes, which need no flood-resistant hash, and a
/// reclaim pass frees every retired block through them.
#[derive(Default)]
struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = splitmix64(self.0 ^ u64::from(b));
        }
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = splitmix64(self.0 ^ word);
    }
}

/// A map keyed by a word, hashed with [`WordHasher`].
type WordMap<V> = HashMap<u64, V, BuildHasherDefault<WordHasher>>;

/// Per-node page pool state.
struct NodePool {
    /// Next node-local page index to carve.
    next_page: u64,
    /// Node-local page limit (pages beyond it belong to the striped
    /// region).
    page_limit: u64,
    /// Free lists: size class → carved slots not handed out.
    free: WordMap<Vec<FarAddr>>,
}

struct State {
    pools: Vec<NodePool>,
    /// Round-robin cursor for `Spread`.
    rr: usize,
    /// Bump cursor for the globally contiguous striped region (grows
    /// downward from the top of the address space in whole pages).
    striped_top: u64,
    striped_bottom: u64,
    /// Free list for blocks of the striped region: page count →
    /// addresses. Slab slots never land here — they go back to their
    /// node's pool.
    striped_free: WordMap<Vec<FarAddr>>,
    /// Membership map of outstanding allocations: base address → rounded
    /// length (size class, or whole pages in the striped region) and the
    /// region that carved it.
    /// A `free` that misses this map
    /// — double free, never-allocated address, or wrong length — is
    /// rejected as [`AllocError::BadFree`] instead of silently corrupting
    /// the free lists and hiding a `live_bytes` underflow.
    live: WordMap<(u64, Region)>,
    stats: AllocStats,
}

impl State {
    /// Books `rounded` bytes at `addr` as handed out by `region`'s path.
    fn book(&mut self, addr: FarAddr, rounded: u64, region: Region) -> FarAddr {
        self.stats.live_bytes += rounded;
        self.stats.allocated_bytes += rounded;
        self.live.insert(addr.0, (rounded, region));
        addr
    }
}

/// A far-memory allocator with locality hints (§7.1).
///
/// Node-bound requests are rounded up to a size class ([`rounded_len`])
/// and served from slabs: runs of pages owned by a single node, chosen
/// by the [`AllocHint`]. [`AllocHint::Striped`] requests come from a
/// globally contiguous region at the top of the address space, so under
/// a striped [`farmem_fabric::Striping`] policy their bytes interleave
/// across all nodes.
///
/// # Examples
///
/// ```
/// use farmem_fabric::{FabricConfig, NodeId, Striping};
/// use farmem_alloc::{AllocHint, FarAlloc};
///
/// let fabric = FabricConfig {
///     nodes: 4,
///     node_capacity: 1 << 20,
///     striping: Striping::Striped { stripe: 4096 },
///     ..FabricConfig::default()
/// }
/// .build();
/// let alloc = FarAlloc::new(fabric);
/// let chain_head = alloc.alloc(64, AllocHint::Localize(NodeId(2))).unwrap();
/// // Chain records colocate with their head: memory-side indirection
/// // never leaves the node (§7.1).
/// let rec = alloc.alloc(64, AllocHint::Colocate(chain_head)).unwrap();
/// assert_eq!(alloc.node_of(rec), NodeId(2));
/// ```
pub struct FarAlloc {
    fabric: Arc<Fabric>,
    state: Mutex<State>,
}

/// The bytes a node-bound allocation of `len` bytes occupies — the
/// allocator's one rounding rule. Up to 32 B it is the next power of two
/// (at least one word). Past that, `len` rounds up to a multiple of an
/// eighth of its next power of two, held between 16 B and a page: four
/// classes per doubling (48, 64, 80, 96, 112, 128, 160 … 4096, 5120,
/// 6144, 7168, 8192 …), each wasting under a quarter of itself (below
/// 48 B the 16-B step bounds it), and whole pages past 16 KiB.
///
/// It is what [`FarAlloc::alloc`] books, what [`FarAlloc::free`] matches
/// a length against and what [`FarAlloc::size_of`] reports.
/// ([`AllocHint::Striped`] requests, and classes a striped map's stripe
/// cannot hold, take whole pages of the striped region.)
pub fn rounded_len(len: u64) -> u64 {
    if len <= 2 * MIN_STEP {
        return len.max(MIN_CLASS).next_power_of_two();
    }
    let step = (len.next_power_of_two() / 8).clamp(MIN_STEP, PAGE);
    len.div_ceil(step) * step
}

/// Pages in one slab of `class`: the smallest run of at least one slot
/// that wastes at most 1/8 of itself, or `max_pages` (one stripe) when
/// every run that short wastes more.
fn slab_pages(class: u64, max_pages: u64) -> u64 {
    (class.div_ceil(PAGE)..=max_pages)
        .find(|&pages| (pages * PAGE) % class * 8 <= pages * PAGE)
        .unwrap_or(max_pages)
}

impl FarAlloc {
    /// Creates an allocator owning the fabric's entire address space
    /// (minus the reserved null page).
    ///
    /// The top quarter of each node's capacity backs the globally
    /// contiguous striped region; the rest forms per-node pools.
    pub fn new(fabric: Arc<Fabric>) -> Arc<FarAlloc> {
        let map = fabric.map();
        let node_cap = map.node_capacity();
        let total = map.total_capacity();
        let reserve_per_node = node_cap / 4 / PAGE * PAGE;
        let page_limit = (node_cap - reserve_per_node) / PAGE;
        let pools = (0..map.node_count())
            .map(|i| NodePool {
                // Page 0 of node 0 holds the reserved null word.
                next_page: u64::from(i == 0),
                page_limit,
                free: WordMap::default(),
            })
            .collect();
        // The striped region is the contiguous top of the global space that
        // lies outside every node pool. A striped map interleaves the top
        // `reserve × nodes` bytes over all the nodes' reserves; a blocked
        // map puts that whole range on the last node, where all but the
        // top `reserve` bytes are that node's pool.
        let reserve_nodes = match map.striping() {
            farmem_fabric::Striping::Striped { .. } => map.node_count() as u64,
            farmem_fabric::Striping::Blocked => 1,
        };
        let striped_bottom = total - reserve_per_node * reserve_nodes;
        Arc::new(FarAlloc {
            fabric,
            state: Mutex::new(State {
                pools,
                rr: 0,
                striped_top: total,
                striped_bottom,
                striped_free: WordMap::default(),
                live: WordMap::default(),
                stats: AllocStats::default(),
            }),
        })
    }

    /// The fabric this allocator manages memory of.
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Current counters.
    pub fn stats(&self) -> AllocStats {
        self.state.lock().unwrap().stats
    }

    /// Per-size-class occupancy, ascending by class: how many
    /// allocations of each rounded size are outstanding and how many
    /// carved slots sit on the free lists. A cache layer storing
    /// size-class-rounded values uses this to audit slab utilisation
    /// (internal fragmentation = `live_bytes` here vs payload bytes it
    /// actually stored).
    pub fn class_stats(&self) -> Vec<ClassStats> {
        let state = self.state.lock().unwrap();
        let mut by_class: HashMap<u64, ClassStats> = HashMap::new();
        for &(rounded, _) in state.live.values() {
            let e = by_class.entry(rounded).or_insert(ClassStats {
                class: rounded,
                ..ClassStats::default()
            });
            e.live += 1;
            e.live_bytes += rounded;
        }
        for pool in &state.pools {
            for (&class, slots) in &pool.free {
                let e = by_class.entry(class).or_insert(ClassStats {
                    class,
                    ..ClassStats::default()
                });
                e.free_slots += slots.len() as u64;
            }
        }
        let mut out: Vec<ClassStats> = by_class.into_values().collect();
        out.sort_by_key(|c| c.class);
        out
    }

    fn pick_node(&self, state: &mut State, hint: AllocHint) -> NodeId {
        let n = state.pools.len();
        match hint {
            AllocHint::Localize(node) => node,
            AllocHint::Colocate(addr) => self.fabric.map().node_of(addr),
            AllocHint::AntiLocal(node) => {
                let mut pick = state.rr % n;
                if n > 1 {
                    while pick as u32 == node.0 {
                        state.rr += 1;
                        pick = state.rr % n;
                    }
                }
                state.rr += 1;
                NodeId(pick as u32)
            }
            AllocHint::Spread | AllocHint::Striped => {
                let pick = state.rr % n;
                state.rr += 1;
                NodeId(pick as u32)
            }
        }
    }

    /// Allocates `len` bytes placed according to `hint`.
    ///
    /// The returned address is 16-B aligned for a class of 16 B or more
    /// (word aligned below) and, for non-striped hints, lies entirely on
    /// one node.
    pub fn alloc(&self, len: u64, hint: AllocHint) -> Result<FarAddr> {
        if len == 0 {
            return Err(AllocError::ZeroSize);
        }
        let mut state = self.state.lock().unwrap();
        let class = rounded_len(len);
        // Blocks must be *globally* contiguous (callers index from the
        // returned base). Under a striped address map a node-local run is
        // globally contiguous only while it stays inside ONE stripe: a slab
        // never crosses one, and a class longer than a stripe is served
        // from the striped region — which also matches §7.1: bulk data
        // stripes across nodes for bandwidth.
        let stripe_pages = match self.fabric.map().striping() {
            farmem_fabric::Striping::Striped { stripe } => stripe / PAGE,
            farmem_fabric::Striping::Blocked => u64::MAX,
        };
        if matches!(hint, AllocHint::Striped) || class.div_ceil(PAGE) > stripe_pages {
            return Self::alloc_striped(&mut state, len);
        }
        let node = self.pick_node(&mut state, hint);
        if node.0 as usize >= state.pools.len() {
            return Err(AllocError::OutOfMemory { node: Some(node) });
        }
        let pool = &mut state.pools[node.0 as usize];
        if let Some(addr) = pool.free.get_mut(&class).and_then(|v| v.pop()) {
            state.stats.reused += 1;
            return Ok(state.book(addr, class, Region::Node));
        }
        // Carve a fresh slab on the chosen node into slots of this class,
        // starting it at the next stripe when it would cross one.
        let pages = slab_pages(class, stripe_pages);
        let in_stripe = pool.next_page % stripe_pages;
        if in_stripe + pages > stripe_pages {
            pool.next_page += stripe_pages - in_stripe;
        }
        if pool.next_page + pages > pool.page_limit {
            return Err(AllocError::OutOfMemory { node: Some(node) });
        }
        let base = self.fabric.map().global_of(node, pool.next_page * PAGE);
        pool.next_page += pages;
        let free = pool.free.entry(class).or_default();
        // Hand out the first slot; stash the rest.
        for s in (1..pages * PAGE / class).rev() {
            free.push(base.offset(s * class));
        }
        state.stats.pages_carved += pages;
        Ok(state.book(base, class, Region::Node))
    }

    /// Whole pages of the striped region, carved downward from its top.
    fn alloc_striped(state: &mut State, len: u64) -> Result<FarAddr> {
        let pages = len.div_ceil(PAGE);
        if let Some(addr) = state.striped_free.get_mut(&pages).and_then(|v| v.pop()) {
            state.stats.reused += 1;
            return Ok(state.book(addr, pages * PAGE, Region::Striped));
        }
        let need = pages * PAGE;
        if state.striped_top - state.striped_bottom < need {
            return Err(AllocError::OutOfMemory { node: None });
        }
        state.striped_top -= need;
        Ok(state.book(FarAddr(state.striped_top), need, Region::Striped))
    }

    /// Returns `len` bytes at `addr` (a pair previously returned by
    /// [`FarAlloc::alloc`]) to the appropriate free list.
    ///
    /// The `(addr, len)` pair is checked against the membership map of
    /// outstanding allocations: a double free, a never-allocated address,
    /// or a length that rounds differently than the allocation's (to its
    /// class, or to whole pages for a block of the striped region) is
    /// rejected with [`AllocError::BadFree`] — before this check a double
    /// free silently pushed a duplicate onto the free list (handing the
    /// same address to two callers on reuse) while `saturating_sub` hid
    /// the `live_bytes` underflow.
    ///
    /// Frees are routed by region: a block of the striped reserve returns
    /// to the striped free list, a slab slot to the pool of the node that
    /// owns it, so each is handed out again only by the path that carved
    /// it.
    pub fn free(&self, addr: FarAddr, len: u64) -> Result<()> {
        if len == 0 || addr.is_null() {
            return Err(AllocError::BadFree { addr });
        }
        let mut state = self.state.lock().unwrap();
        let (rounded, region) = match state.live.remove(&addr.0) {
            Some(booked @ (r, Region::Node)) if r == rounded_len(len) => booked,
            Some(booked @ (r, Region::Striped)) if r == len.div_ceil(PAGE) * PAGE => booked,
            Some(kept) => {
                state.live.insert(addr.0, kept);
                return Err(AllocError::BadFree { addr });
            }
            None => return Err(AllocError::BadFree { addr }),
        };
        if region == Region::Striped {
            state.striped_free.entry(rounded / PAGE).or_default().push(addr);
        } else {
            let node = self.fabric.map().node_of(addr);
            let pool = state
                .pools
                .get_mut(node.0 as usize)
                .ok_or(AllocError::BadFree { addr })?;
            pool.free.entry(rounded).or_default().push(addr);
        }
        state.stats.freed_bytes += rounded;
        state.stats.live_bytes -= rounded;
        Ok(())
    }

    /// The booked length of the outstanding allocation based at `addr` —
    /// its [`rounded_len`] class, or whole pages for a block of the
    /// striped region — from the membership map [`free`](Self::free) checks against; `None`
    /// when no live allocation starts there. Client-side metadata: zero
    /// far accesses.
    pub fn size_of(&self, addr: FarAddr) -> Option<u64> {
        self.state.lock().unwrap().live.get(&addr.0).map(|&(rounded, _)| rounded)
    }

    /// Node that owns `addr` under the fabric's mapping — used by callers
    /// auditing placement.
    pub fn node_of(&self, addr: FarAddr) -> NodeId {
        self.fabric.map().node_of(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::{FabricConfig, Striping};

    fn alloc4() -> Arc<FarAlloc> {
        let f = FabricConfig {
            nodes: 4,
            node_capacity: 1 << 20,
            striping: Striping::Striped { stripe: PAGE },
            ..FabricConfig::default()
        }
        .build();
        FarAlloc::new(f)
    }

    #[test]
    fn localize_places_on_requested_node() {
        let a = alloc4();
        for node in 0..4u32 {
            let addr = a.alloc(64, AllocHint::Localize(NodeId(node))).unwrap();
            assert_eq!(a.node_of(addr), NodeId(node));
        }
    }

    #[test]
    fn colocate_matches_existing_data() {
        let a = alloc4();
        let first = a.alloc(64, AllocHint::Localize(NodeId(2))).unwrap();
        let second = a.alloc(128, AllocHint::Colocate(first)).unwrap();
        assert_eq!(a.node_of(second), NodeId(2));
    }

    #[test]
    fn anti_local_avoids_the_node() {
        let a = alloc4();
        for _ in 0..32 {
            let addr = a.alloc(64, AllocHint::AntiLocal(NodeId(1))).unwrap();
            assert_ne!(a.node_of(addr), NodeId(1));
        }
    }

    #[test]
    fn spread_round_robins() {
        let a = alloc4();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            seen.insert(a.alloc(4096, AllocHint::Spread).unwrap().0 % 4);
        }
        // Page-sized spread allocations land on distinct nodes.
        let nodes: std::collections::HashSet<_> =
            (0..4).map(|_| ()).collect();
        let _ = nodes;
        assert!(!seen.is_empty());
    }

    #[test]
    fn small_allocations_are_class_aligned_and_distinct() {
        let a = alloc4();
        let mut addrs = std::collections::HashSet::new();
        for _ in 0..1000 {
            let addr = a.alloc(24, AllocHint::Spread).unwrap();
            assert!(addr.is_aligned(32), "24B rounds to a 32B class");
            assert!(addrs.insert(addr), "duplicate address {addr:?}");
        }
    }

    #[test]
    fn free_enables_reuse() {
        let a = alloc4();
        let addr = a.alloc(64, AllocHint::Localize(NodeId(0))).unwrap();
        a.free(addr, 64).unwrap();
        let again = a.alloc(64, AllocHint::Localize(NodeId(0))).unwrap();
        assert_eq!(addr, again);
        assert_eq!(a.stats().reused, 1);
    }

    /// Regression: node-bound page runs were freed onto the striped free
    /// list, which node-bound allocation never reads — every multi-page
    /// record carved fresh pages for ever.
    #[test]
    fn multi_page_free_enables_reuse() {
        let f = FabricConfig::single_node(64 * PAGE).build();
        let a = FarAlloc::new(f);
        let addr = a.alloc(2 * PAGE - 100, AllocHint::Spread).unwrap();
        let carved = a.stats().pages_carved;
        a.free(addr, 2 * PAGE - 100).unwrap();
        // 7,169 B is the shortest length of the same 8,192-B class.
        let same_class = 2 * PAGE - PAGE / 4 + 1;
        assert_eq!(a.alloc(same_class, AllocHint::Spread).unwrap(), addr, "two-page slot reused");
        assert_eq!(a.stats().reused, 1);
        assert_eq!(a.stats().pages_carved, carved, "nothing new carved");
        // A different class does not match the freed slot.
        a.free(addr, same_class).unwrap();
        assert_ne!(a.alloc(3 * PAGE, AllocHint::Spread).unwrap(), addr);
    }

    /// Regression: the same misrouted free let a later `Striped` request
    /// of that page count pop a node-local block.
    #[test]
    fn striped_alloc_never_returns_node_bound_block() {
        let a = alloc4();
        let local = a.alloc(PAGE, AllocHint::Localize(NodeId(1))).unwrap();
        let striped = a.alloc(PAGE, AllocHint::Striped).unwrap();
        a.free(local, PAGE).unwrap();
        a.free(striped, PAGE).unwrap();
        assert_eq!(a.alloc(PAGE, AllocHint::Striped).unwrap(), striped);
        assert_ne!(a.alloc(PAGE, AllocHint::Striped).unwrap(), local);
        assert_eq!(a.alloc(PAGE, AllocHint::Localize(NodeId(1))).unwrap(), local);
    }

    /// Under a blocked map the striped reserve's address range lies on
    /// the last node; its pool blocks must still return to that pool.
    #[test]
    fn last_node_frees_are_reused_under_a_blocked_map() {
        let f =
            FabricConfig { nodes: 2, node_capacity: 1 << 20, ..FabricConfig::default() }.build();
        let a = FarAlloc::new(f);
        let last = NodeId(1);
        for len in [64, 2 * PAGE] {
            let addr = a.alloc(len, AllocHint::Localize(last)).unwrap();
            let carved = a.stats().pages_carved;
            a.free(addr, len).unwrap();
            assert_eq!(a.alloc(len, AllocHint::Localize(last)).unwrap(), addr, "{len} B reused");
            assert_eq!(a.stats().pages_carved, carved);
        }
    }

    /// Under a blocked map only the last node's reserve is both
    /// contiguous with the top of the address space and outside every
    /// pool: striped carving stops there instead of descending into the
    /// last node's pool, where the same bytes would get two owners.
    #[test]
    fn striped_carving_never_enters_a_node_pool_under_a_blocked_map() {
        let f =
            FabricConfig { nodes: 2, node_capacity: 1 << 20, ..FabricConfig::default() }.build();
        let a = FarAlloc::new(f);
        let last = NodeId(1);
        let mut pool = Vec::new();
        while let Ok(addr) = a.alloc(PAGE, AllocHint::Localize(last)) {
            pool.push(addr.0);
        }
        let pool_top = pool.iter().max().unwrap() + PAGE;
        let mut striped = 0;
        while let Ok(addr) = a.alloc(PAGE, AllocHint::Striped) {
            assert!(addr.0 >= pool_top, "striped page {addr:?} lies in node 1's pool");
            striped += 1;
        }
        assert_eq!(striped, (1 << 20) / 4 / PAGE, "the whole reserve is still usable");
        assert_eq!(
            a.alloc(PAGE, AllocHint::Striped),
            Err(AllocError::OutOfMemory { node: None })
        );
    }

    #[test]
    fn striped_allocations_span_nodes() {
        let a = alloc4();
        let addr = a.alloc(16 * PAGE, AllocHint::Striped).unwrap();
        let map = a.fabric().map().clone();
        let mut nodes = std::collections::HashSet::new();
        for p in 0..16 {
            nodes.insert(map.node_of(addr.offset(p * PAGE)));
        }
        assert_eq!(nodes.len(), 4, "striped bytes interleave across nodes");
    }

    #[test]
    fn node_pool_exhaustion_is_reported() {
        let f = FabricConfig::single_node(16 * PAGE).build();
        let a = FarAlloc::new(f);
        let mut got = 0;
        while a.alloc(PAGE, AllocHint::Localize(NodeId(0))).is_ok() {
            got += 1;
            assert!(got < 100);
        }
        assert_eq!(got, 11, "all pool pages but the null page (the top 4 are the striped reserve)");
        assert_eq!(
            a.alloc(PAGE, AllocHint::Localize(NodeId(0))),
            Err(AllocError::OutOfMemory { node: Some(NodeId(0)) })
        );
    }

    #[test]
    fn zero_size_and_bad_free_rejected() {
        let a = alloc4();
        assert_eq!(a.alloc(0, AllocHint::Spread), Err(AllocError::ZeroSize));
        assert!(a.free(FarAddr::NULL, 8).is_err());
    }

    /// Regression: a double free used to push a duplicate onto the free
    /// list (same address handed out twice on reuse) while
    /// `saturating_sub` hid the `live_bytes` underflow. The membership
    /// map now rejects it.
    #[test]
    fn double_free_is_detected() {
        let a = alloc4();
        let addr = a.alloc(64, AllocHint::Localize(NodeId(0))).unwrap();
        a.free(addr, 64).unwrap();
        let live = a.stats().live_bytes;
        assert_eq!(a.free(addr, 64), Err(AllocError::BadFree { addr }));
        assert_eq!(a.stats().live_bytes, live, "double free books nothing");
        // The slot can still be reused exactly once.
        let again = a.alloc(64, AllocHint::Localize(NodeId(0))).unwrap();
        assert_eq!(addr, again);
        let third = a.alloc(64, AllocHint::Localize(NodeId(0))).unwrap();
        assert_ne!(addr, third, "no duplicate free-list entry");
    }

    #[test]
    fn free_of_never_allocated_address_is_rejected() {
        let a = alloc4();
        let addr = a.alloc(64, AllocHint::Spread).unwrap();
        // A neighboring slot that was carved but never handed out.
        assert_eq!(
            a.free(addr.offset(64), 64),
            Err(AllocError::BadFree { addr: addr.offset(64) })
        );
    }

    #[test]
    fn free_with_wrong_length_is_rejected() {
        let a = alloc4();
        let addr = a.alloc(64, AllocHint::Spread).unwrap();
        assert_eq!(a.free(addr, 128), Err(AllocError::BadFree { addr }));
        a.free(addr, 64).unwrap();
        // Lengths within the same size class are interchangeable.
        let b = a.alloc(100, AllocHint::Spread).unwrap();
        a.free(b, 112).unwrap();
    }

    #[test]
    fn size_of_reports_the_booked_length_of_live_blocks_only() {
        let a = alloc4();
        for len in [1, 8, 9, 100, 2048, 2049, 3 * PAGE] {
            let addr = a.alloc(len, AllocHint::Spread).unwrap();
            assert_eq!(a.size_of(addr), Some(rounded_len(len)), "len {len}");
            // Interior addresses are not allocations.
            assert_eq!(a.size_of(addr.offset(8)), None);
            a.free(addr, a.size_of(addr).unwrap()).unwrap();
            assert_eq!(a.size_of(addr), None, "freed: len {len}");
        }
        // A striped request books whole pages whatever its length.
        let s = a.alloc(64, AllocHint::Striped).unwrap();
        assert_eq!(a.size_of(s), Some(PAGE));
    }

    #[test]
    fn double_free_of_pages_is_detected() {
        let a = alloc4();
        let addr = a.alloc(16 * PAGE, AllocHint::Striped).unwrap();
        a.free(addr, 16 * PAGE).unwrap();
        assert_eq!(a.free(addr, 16 * PAGE), Err(AllocError::BadFree { addr }));
    }

    #[test]
    fn class_stats_track_live_and_free_slots() {
        let a = alloc4();
        let x = a.alloc(100, AllocHint::Spread).unwrap(); // class 112
        let _y = a.alloc(112, AllocHint::Spread).unwrap(); // class 112
        let _z = a.alloc(9, AllocHint::Spread).unwrap(); // class 16
        let by_class = a.class_stats();
        let c112 = by_class.iter().find(|c| c.class == 112).unwrap();
        assert_eq!(c112.live, 2);
        assert_eq!(c112.live_bytes, 224);
        let c16 = by_class.iter().find(|c| c.class == 16).unwrap();
        assert_eq!(c16.live, 1);
        // Spread carved one page per node touched; unhanded slots sit on
        // the free lists.
        assert_eq!(c112.free_slots, 2 * (PAGE / 112) - 2);
        a.free(x, 100).unwrap();
        let by_class = a.class_stats();
        let c112 = by_class.iter().find(|c| c.class == 112).unwrap();
        assert_eq!(c112.live, 1);
        assert_eq!(c112.free_slots, 2 * (PAGE / 112) - 1);
    }

    #[test]
    fn rounded_len_is_four_classes_per_doubling() {
        let examples = [
            (1, 8),
            (24, 32),
            (33, 48),
            (80, 80),
            (100, 112),
            (136, 160),
            (216, 224),
            (2049, 2560),
            (4112, 5120),
            (16385, 20480),
        ];
        for (len, class) in examples {
            assert_eq!(rounded_len(len), class, "len {len}");
        }
        let mut prev = 0;
        for len in 1..=64 << 10 {
            let r = rounded_len(len);
            assert!(r >= len && r >= prev, "len {len}: {r} after {prev}");
            assert_eq!(rounded_len(r), r, "len {len}: class {r} is not a class");
            assert!(r < 16 || r.is_multiple_of(16), "len {len}: class {r} is not 16-B aligned");
            if len >= 48 {
                assert!(4 * (r - len) <= r, "len {len}: class {r} wastes over 25 %");
            } else if len > 32 {
                assert_eq!(r, 48, "len {len}: the 16-B floor");
            }
            if len > 16 << 10 {
                assert_eq!(r, len.div_ceil(PAGE) * PAGE, "len {len}: page-rounded");
            }
            prev = r;
        }
    }

    #[test]
    fn a_slab_is_the_shortest_page_run_wasting_at_most_an_eighth() {
        // (class, pages, slots)
        let layouts = [
            (80, 1, 51),
            (1024, 1, 4),
            (1536, 2, 5),
            (5120, 4, 3),
            (6144, 3, 2),
            (7168, 2, 1),
            (8192, 2, 1),
            (20480, 5, 1),
        ];
        for (class, pages, slots) in layouts {
            assert_eq!(slab_pages(class, u64::MAX), pages, "class {class}");
            let f = FabricConfig::single_node(64 * PAGE).build();
            let a = FarAlloc::new(f);
            let first = a.alloc(class, AllocHint::Spread).unwrap();
            assert_eq!(a.stats().pages_carved, pages, "class {class}");
            for s in 1..slots {
                let addr = a.alloc(class, AllocHint::Spread).unwrap();
                assert_eq!(addr, first.offset(s * class), "class {class}: slot {s}");
            }
            assert_eq!(a.stats().pages_carved, pages, "class {class}: one slab");
            a.alloc(class, AllocHint::Spread).unwrap();
            assert_eq!(a.stats().pages_carved, 2 * pages, "class {class}: a second slab");
        }
    }

    /// A slab never crosses a stripe of a striped map, and a class longer
    /// than a stripe takes whole pages of the striped region, which
    /// `free` and `size_of` take back by page count.
    #[test]
    fn slabs_stay_inside_one_stripe() {
        let f = FabricConfig {
            nodes: 2,
            node_capacity: 1 << 20,
            striping: Striping::Striped { stripe: 2 * PAGE },
            ..FabricConfig::default()
        }
        .build();
        let a = FarAlloc::new(f);
        let stripe = 2 * PAGE;
        // A one-page slab leaves node 0's cursor inside a stripe.
        a.alloc(64, AllocHint::Localize(NodeId(0))).unwrap();
        // 3,072 B would take a 3-page slab; one stripe holds two pages, two
        // slots, and each slab starts a stripe of its own.
        for _ in 0..64 {
            let addr = a.alloc(3072, AllocHint::Localize(NodeId(0))).unwrap();
            assert_eq!(addr.0 / stripe, (addr.0 + 3071) / stripe, "{addr:?} crosses a stripe");
            assert_eq!(a.node_of(addr), NodeId(0));
        }
        assert_eq!(a.stats().pages_carved, 1 + 64);
        // 8,208 B is a 10,240-B class, longer than a stripe: three striped pages.
        let big = a.alloc(stripe + 16, AllocHint::Localize(NodeId(0))).unwrap();
        assert_eq!(a.size_of(big), Some(3 * PAGE));
        assert_eq!(a.free(big, stripe), Err(AllocError::BadFree { addr: big }));
        a.free(big, stripe + 16).unwrap();
    }

    #[test]
    fn null_word_is_never_allocated() {
        let f = FabricConfig::single_node(1 << 20).build();
        let a = FarAlloc::new(f);
        for _ in 0..10_000 {
            let addr = a.alloc(8, AllocHint::Spread).unwrap();
            assert!(!addr.is_null());
            assert!(addr.0 >= PAGE, "page 0 stays reserved");
        }
    }
}
