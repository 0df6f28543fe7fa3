//! The HT-tree map (§5.2): a tree of hash tables.
//!
//! Hash tables and trees are both poor choices for large far-memory maps:
//! chained hash tables pay extra round trips on collisions and resize
//! disruptively at scale, while trees take O(log n) far accesses unless a
//! client caches O(n) items. The paper's *HT-tree* combines them:
//!
//! * a **tree** (here: a sorted directory of key ranges) whose leaves hold
//!   hash-table base pointers — small enough that clients cache *all* of
//!   it (10M nodes suffice for a trillion items);
//! * one **hash table per leaf**, *not* cached at clients.
//!
//! A bucket is one immutable *block* `[version | n | n × {key, value}]`,
//! every key of the bucket in one allocation, named by the bucket word.
//! The word carries `min(n, 15)` in its four low bits (blocks are 16-B
//! aligned), so a tagged `load0` through it reads the whole block: the
//! memory node holds the word when it dereferences, and learns the length
//! for free. A lookup traverses the cached tree locally, hashes into the
//! leaf's table, and reads the bucket's block with that `load0` — **one
//! far access**, wherever the key sits in the block. A store is **two far
//! accesses**. The first is one fenced batch: the tagged `load0` of the
//! block and a read of the table header (version and key count). The
//! second is a fenced batch that *splices* the bucket: it writes a new
//! block — the old one with the key's entry replaced or added — and
//! CASes the bucket word from the one the first access read. A remove
//! ([`HtTreeHandle::take`]) is the same splice with the entry dropped (an
//! emptied bucket's word is null); a key that is not there costs it the
//! first access and links nothing. A block of more than 15 keys pays one
//! more read for the entries past its tag. A bucket therefore holds one
//! entry per key, and the header's key count is the table's live keys:
//! the put that carries a table over `max_load_percent` *splits* (or
//! grows) it, without touching the other tables and without a far access
//! of its own to find out.
//!
//! Every lookup has one body, whichever way it is sent. One builder
//! makes every operation's first access, `[slot publish?] Load0Tagged
//! [speculative read or header read?]`; a get sends it as a blocking
//! fenced batch, a `get_many` posts it as a descriptor, and a put or take
//! sends it as access 1. One function settles the slot publish it
//! carried, and one completes a key from its answers.
//!
//! A value that is itself a far record (a blob, a cache entry) is stored
//! at the same price by [`HtTreeHandle::publish`]: the fenced batch leads
//! with the record's bytes, so the CAS orders them before any reader can
//! find the block, and the value the store superseded comes back for the
//! caller to retire.
//!
//! ## Staleness and versioning
//!
//! Client caches may go stale. Every hash table has a version, kept in the
//! client's cached tree *and stamped into every block in far memory*; a
//! client checks the stamp on each access. Retired tables are *poisoned*
//! (every bucket is pointed at the version-`u64::MAX` poison block, empty
//! and tagged 0), so a stale client's very first far access tells it to
//! refresh its tree.
//!
//! ## Restructures
//!
//! A split, grow or compaction takes no lock and leaves the other tables
//! alone. A CAS of the table's version word to `SPLITTING` takes the
//! table: puts and takes then refresh and wait, and a second splitter's
//! CAS loses. The splitter drains and poisons the table, builds its
//! replacements, and publishes in one fenced batch: the new directory
//! blob, then a CAS of the anchor's directory pointer from the blob its
//! cache was read from. The pointer is the directory's only version. A
//! publish that loses to another table's restructure refreshes, splices
//! its tables into the newer directory and tries again; nobody else can
//! have replaced a table at `SPLITTING`.
//!
//! ## Two lifetimes, one protocol
//!
//! A handle's memory lifetime decides only where a block comes from and
//! where an unlinked one goes. A plain [`HtTree::attach`] handle
//! *quarantines*: blocks come from a bump arena, and nothing it unlinks —
//! a block a splice replaced, a fresh block whose CAS lost, a replaced
//! table — is ever freed (safe, but unbounded under churn). A handle
//! attached with [`HtTree::attach_reclaimed`] participates in epoch-based
//! grace-period reclamation (`farmem-reclaim`, DESIGN.md §8). Every
//! operation pins an epoch guard, refreshing the cached tree whenever the
//! pin reports a new restructure
//! [`generation`](farmem_reclaim::Guard::generation). Blocks come from the
//! shared slab allocator — a block of `n` keys is `16 + 16n` B, an exact
//! size class. The block a splice replaces is a plain retire, sealed as
//! a record: no client caches a pointer to a block. A fresh block whose
//! CAS lost was never linked, but the batch may have written it, so it
//! too is retired under the operation's pin: the seal orders its next
//! owner after those writes. The blocks of a table's bulk block
//! are skipped and go with it at the table's next restructure. A split
//! *retires* the replaced table — header, bucket array, bulk block, every
//! drained block, and the superseded directory blob — as a restructure,
//! sealing an epoch *and* a generation so a grace period can return the
//! bytes to [`FarAlloc::free`]. Epochs that other clients seal over
//! retired records alone cost a handle no refresh: the cached tree points
//! into no record, and a record hint is validated against the tree before
//! its bytes are served.
//!
//! The splice is sound under both lifetimes for one reason. A bucket word
//! names an immutable block that cannot be freed and reused while the
//! operation runs: under the guard in reclaim mode, and because nothing
//! is ever freed in quarantine mode. So a CAS that lands on the word the
//! first access read proves the bucket held exactly the block read, even
//! if the word left it and came back. **Do not mix** the two lifetimes on
//! one tree: quarantine-mode handles link arena-carved blocks whose
//! addresses a reclaim-mode splice or splitter would retire individually,
//! which the allocator's membership check rejects as
//! [`AllocError`](farmem_alloc::AllocError)`::BadFree`.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{
    splitmix64, tagged_len, BatchOp, DescList, FabricClient, FarAddr, FarIov, PipeOp,
    PipeOut, PAGE, TAG_MASK, WORD,
};
use farmem_reclaim::{Publish, SharedReclaim};
use farmem_runtime::{Doorbell, Inline};
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::records::{Pinned, Records};
use crate::word_at;

/// Anchor layout (the only fixed far location of an HT-tree): the
/// directory pointer, two reserved words, the poison block.
const A_DIR_PTR: u64 = 0;
const A_POISON: u64 = 24;
const ANCHOR_LEN: u64 = 32;

/// Table header layout: version, buckets base, bucket count, item count,
/// collision count, bulk block base, bulk block length — each one word.
/// The last two record the contiguous bulk block a split laid the
/// table's blocks out in, so a *later* splitter (any client) can retire
/// it; zero for tables whose blocks were published individually.
const H_VERSION: u64 = 0;
const H_ITEMS: u64 = 24;
const H_COLLISIONS: u64 = 32;
const H_ITEMS_BASE: u64 = 40;
const H_ITEMS_LEN: u64 = 48;
const HDR_LEN: u64 = 56;

/// Block layout: a `{version, n}` header, then `n` entries `{key, value}`.
const BLOCK_HDR: u64 = 16;
const ENTRY_LEN: u64 = 16;

/// Version stamp of the poison block; never matches a cached version.
const POISON_VERSION: u64 = u64::MAX;
/// Header version value while a split is in progress.
const SPLITTING: u64 = 0;

/// Directory entry encoding on the wire: 5 words.
const DIR_ENTRY_LEN: u64 = 40;

/// Host-side backoff for retry loops that wait on a concurrent
/// restructure: yields first, then sleeps with linear growth. Virtual-time
/// accounting is unaffected (waiting costs no far accesses).
fn backoff(attempt: u32) {
    if attempt < 4 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50 * attempt.min(100) as u64));
    }
}

fn words(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
        .collect()
}

/// Appends `words` to `bytes`, little-endian.
fn push_words(bytes: &mut Vec<u8>, words: impl IntoIterator<Item = u64>) {
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
}

/// Bytes of a block of `n` entries (saturating: `n` may come from
/// memory that is no block).
fn block_len(n: u64) -> u64 {
    n.saturating_mul(ENTRY_LEN).saturating_add(BLOCK_HDR)
}

/// The bucket word naming a block of `n` entries at `addr`.
fn bucket_word(addr: FarAddr, n: u64) -> u64 {
    debug_assert!(addr.is_aligned(TAG_MASK + 1), "blocks are 16-B aligned");
    addr.0 | n.min(TAG_MASK)
}

/// The entries past the tag's of the block a tagged read through `word`
/// returned as `bytes`: one more read when the block is longer than its
/// tag covers, `None` when it is not.
fn read_rest(client: &mut FabricClient, word: u64, bytes: &[u8]) -> Result<Option<Vec<u8>>> {
    let (have, len) = (bytes.len() as u64, block_len(word_at(bytes, 8)));
    if word & TAG_MASK < TAG_MASK || len <= have {
        return Ok(None);
    }
    Ok(Some(client.read(FarAddr(word & !TAG_MASK).offset(have), len - have)?))
}

/// A decoded bucket block.
struct Block {
    version: u64,
    entries: Vec<(u64, u64)>,
}

/// The version and entries of the whole block read through `word`. A
/// block whose length disagrees with the word's tag is not the block the
/// word names — memory reused under a client its reclaim registry evicted
/// — and reads as the poison block does.
fn entries(word: u64, bytes: &[u8]) -> (u64, impl Iterator<Item = (u64, u64)> + '_) {
    let n = word_at(bytes, 8);
    let named = n.min(TAG_MASK) == word & TAG_MASK;
    let version = if named { word_at(bytes, 0) } else { POISON_VERSION };
    let all = bytes[BLOCK_HDR as usize..].chunks_exact(ENTRY_LEN as usize);
    let n = if named { n as usize } else { 0 };
    (version, all.take(n).map(|e| (word_at(e, 0), word_at(e, 8))))
}

/// Reads the blocks the bucket `words` name, in order, `None` for an
/// empty bucket: one gather of what each word's tag covers, and one read
/// more for each block longer than its tag.
fn read_blocks(client: &mut FabricClient, words: &[u64]) -> Result<Vec<Option<Block>>> {
    let named = words.iter().filter(|&&w| w != 0);
    let iov: Vec<FarIov> =
        named.map(|&w| FarIov::new(FarAddr(w & !TAG_MASK), tagged_len(w))).collect();
    let gathered = if iov.is_empty() { Vec::new() } else { client.rgather(&iov)? };
    let mut at = 0;
    let decode = |w, bytes: &[u8]| {
        let (version, entries) = entries(w, bytes);
        Block { version, entries: entries.collect() }
    };
    let mut block = |w: u64| -> Result<Block> {
        let bytes = &gathered[at..at + tagged_len(w) as usize];
        at += bytes.len();
        Ok(match read_rest(client, w, bytes)? {
            Some(rest) => decode(w, &[bytes, &rest].concat()),
            None => decode(w, bytes),
        })
    };
    words.iter().map(|&w| (w != 0).then(|| block(w)).transpose()).collect()
}

/// One cached directory entry: a key range and its hash table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    start_key: u64,
    table_hdr: FarAddr,
    buckets: FarAddr,
    n_buckets: u64,
    version: u64,
}

/// What a lookup found for one key: its value and, when the tree named
/// the hinted address, the hinted bytes.
pub(crate) type Found = (Option<u64>, Option<Vec<u8>>);

/// `(start_key, version)` of the table a put landed in, when the item
/// count read with the version check says the put overloaded it.
type Overloaded = Option<(u64, u64)>;

/// Bound on an operation's retries after stale-cache refreshes or lost
/// CAS races.
const RETRY_BUDGET: u32 = 256;

/// Whether `count` items overload a table of `n_buckets`. Saturating, so
/// `max_load_percent: u64::MAX` means "never".
fn overloaded(count: u64, n_buckets: u64, max_load_percent: u64) -> bool {
    count.saturating_mul(100) > n_buckets.saturating_mul(max_load_percent)
}

/// Whether a drained table's `live` keys fill it to at most half of
/// `max_load_percent`. A put's count is of live keys, so only an explicit
/// [`split`](HtTreeHandle::split) finds a table this sparse.
fn sparse(live: u64, n_buckets: u64, max_load_percent: u64) -> bool {
    live.saturating_mul(100) <= n_buckets.saturating_mul(max_load_percent) / 2
}

/// A header's item-count word as a count. A table counts its live keys
/// with posted adds of `+1` and `-1` (`u64::MAX`, which wraps), and a
/// take's `-1` can land before the `+1` of the put that linked its key:
/// a count that wrapped below zero reads as 0.
fn item_count(word: u64) -> u64 {
    if word > i64::MAX as u64 {
        0
    } else {
        word
    }
}

/// A put's or take's view of one bucket: its first far access.
struct Bucket {
    /// The bucket's address.
    addr: FarAddr,
    /// The bucket word the block was read through, tag included (0: an
    /// empty bucket): what the splice CASes from.
    word: u64,
    /// The whole block (empty for an empty bucket).
    block: Vec<u8>,
    /// The index of the key's entry; `None` when the block lacks the key.
    found: Option<usize>,
    /// The table's live keys, from the header ([`item_count`]).
    keys: u64,
    /// The table's bulk block, `[base, base + len)`: its blocks are
    /// retired with the table, never one by one.
    bulk: (u64, u64),
}

impl Bucket {
    /// The value the key held.
    fn old(&self) -> Option<u64> {
        self.found.map(|i| word_at(&self.block, block_len(i as u64) + WORD))
    }
}

/// Construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct HtTreeConfig {
    /// Buckets in the initial (and each freshly split) hash table.
    pub initial_buckets: u64,
    /// Split/grow when `item_count * 100 / n_buckets` exceeds this
    /// (`u64::MAX`: never restructure on load).
    pub max_load_percent: u64,
    /// §5.2 offers two ways for clients to learn the tree changed:
    /// notifications on the tree, or letting caches go stale and catching
    /// it through the per-table versions. With `notify_dir` the handle
    /// subscribes to the anchor's directory pointer and refreshes proactively
    /// when notified, avoiding the one wasted far access a stale first
    /// touch otherwise costs.
    pub notify_dir: bool,
}

impl Default for HtTreeConfig {
    fn default() -> Self {
        HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: 75,
            notify_dir: false,
        }
    }
}

/// Statistics kept by one [`HtTreeHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HtTreeStats {
    /// Lookup operations.
    pub gets: u64,
    /// Insert/update operations.
    pub puts: u64,
    /// Remove operations.
    pub removes: u64,
    /// Extra reads of a block longer than its tag: the entries past the
    /// fifteenth of a bucket.
    pub chain_hops: u64,
    /// Directory refreshes forced by version mismatches.
    pub stale_refreshes: u64,
    /// Bucket CAS races lost (and retried).
    pub cas_retries: u64,
    /// Splits this handle performed.
    pub splits: u64,
    /// Grows (same range, more buckets) this handle performed.
    pub grows: u64,
    /// Compactions (same range, same buckets — the drained table's live
    /// keys fill at most half of `max_load_percent`) this handle
    /// performed. A put counts live keys, so only an explicit
    /// [`split`](HtTreeHandle::split) of a sparse table compacts.
    pub compactions: u64,
    /// Directory-change notifications consumed (`notify_dir` mode).
    pub dir_notifications: u64,
    /// Directory refreshes forced by a pin that reported a new restructure
    /// generation (reclaim mode): a restructure sealed, or the client
    /// re-registered after an eviction.
    pub generation_refreshes: u64,
    /// Lookups that carried a hint: a speculative read in the lookup's
    /// own fenced batch.
    pub hinted_gets: u64,
    /// Hinted lookups whose speculated bytes were dropped: the tree named
    /// another address or none, or the batch failed and the lookup ran
    /// unhinted.
    pub stale_hints: u64,
}

/// The shared descriptor of an HT-tree: just the anchor address.
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::FarAlloc;
/// use farmem_core::{HtTree, HtTreeConfig};
///
/// let fabric = FabricConfig::single_node(16 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut c = fabric.client();
/// let map = HtTree::create(&mut c, &alloc, HtTreeConfig::default()).unwrap();
/// let mut h = map.attach(&mut c, &alloc, HtTreeConfig::default()).unwrap();
/// h.put(&mut c, 7, 700).unwrap();            // two far accesses
/// assert_eq!(h.get(&mut c, 7).unwrap(), Some(700)); // one far access
/// h.remove(&mut c, 7).unwrap();
/// assert_eq!(h.get(&mut c, 7).unwrap(), None);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HtTree {
    anchor: FarAddr,
}

impl HtTree {
    /// Creates an empty HT-tree: one table covering the whole key space.
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
    ) -> Result<HtTree> {
        if cfg.initial_buckets < 2 {
            return Err(CoreError::BadConfig("need at least two buckets"));
        }
        let anchor = alloc.alloc(ANCHOR_LEN, AllocHint::Spread)?;
        // The global poison block: version = MAX, no entries.
        let poison = alloc.alloc(block_len(0), AllocHint::Colocate(anchor))?;
        let mut poison_block = Vec::new();
        push_words(&mut poison_block, [POISON_VERSION, 0]);
        // Initial table, version 1, covering [0, MAX], and a directory
        // blob with its one entry.
        let entry = build_table(client, alloc, 0, &[], 1, cfg.initial_buckets)?;
        let dir_bytes = encode_directory(&[entry]);
        let dir = alloc.alloc(dir_bytes.len() as u64, AllocHint::Spread)?;
        client.write(dir, &dir_bytes)?;
        let mut anchor_bytes = Vec::with_capacity(ANCHOR_LEN as usize);
        for w in [dir.0, 0, 0, bucket_word(poison, 0)] {
            anchor_bytes.extend_from_slice(&w.to_le_bytes());
        }
        client.batch(&[
            BatchOp::Write { addr: poison, data: &poison_block },
            BatchOp::Write { addr: anchor, data: &anchor_bytes },
        ])?;
        Ok(HtTree { anchor })
    }

    /// The anchor address (for sharing with other clients).
    pub fn anchor(&self) -> FarAddr {
        self.anchor
    }

    /// Attaches a client: reads the anchor and caches the entire directory
    /// (the "tree", §5.2). Three far accesses, as every
    /// [`refresh_directory`](HtTreeHandle::refresh_directory).
    pub fn attach(
        &self,
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
    ) -> Result<HtTreeHandle> {
        self.attach_inner(client, alloc, cfg, Records::quarantine(alloc, 4096))
    }

    /// Like [`attach`](Self::attach), but the handle participates in
    /// epoch-based reclamation through `reclaim`: every operation pins an
    /// epoch guard, and splits retire the replaced table into the limbo
    /// list instead of quarantining it (see the module docs). All handles
    /// of one tree must use the same mode.
    pub fn attach_reclaimed(
        &self,
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
        reclaim: SharedReclaim,
    ) -> Result<HtTreeHandle> {
        self.attach_inner(client, alloc, cfg, Records::Reclaim(alloc.clone(), reclaim))
    }

    fn attach_inner(
        &self,
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
        records: Records,
    ) -> Result<HtTreeHandle> {
        let dir_sub = if cfg.notify_dir {
            Some(client.notify0(self.anchor.offset(A_DIR_PTR), WORD)?)
        } else {
            None
        };
        let mut h = HtTreeHandle {
            tree: *self,
            cfg,
            alloc: alloc.clone(),
            entries: Vec::new(),
            dir_ptr: FarAddr::NULL,
            poison: 0,
            dir_sub,
            // Conservative: observed before the directory read, so a
            // restructure sealed in between just causes one redundant
            // refresh at the first pin.
            seen_generation: records.generation().unwrap_or(0),
            records,
            stats: HtTreeStats::default(),
        };
        h.refresh_directory(client)?;
        Ok(h)
    }
}

/// Builds a fully populated table in bulk: every bucket's block laid out
/// in one bulk block (none straddling a page, so none spans two nodes),
/// bucket words tagged locally, all written in one fenced batch. Without
/// items it is an empty table, the first one of [`HtTree::create`].
fn build_table(
    client: &mut FabricClient,
    alloc: &FarAlloc,
    start_key: u64,
    items: &[(u64, u64)],
    version: u64,
    n_buckets: u64,
) -> Result<Entry> {
    let buckets_addr = alloc.alloc(n_buckets * WORD, AllocHint::Spread)?;
    let hdr = alloc.alloc(HDR_LEN, AllocHint::Colocate(buckets_addr))?;
    // Keys per bucket, then each non-empty bucket's block in the bulk
    // block: its offset, after the header its entries' next one.
    let bucket_of = |k: u64| (splitmix64(k) % n_buckets) as usize;
    let mut counts = vec![0u64; n_buckets as usize];
    for &(k, _) in items {
        counts[bucket_of(k)] += 1;
    }
    let (mut bulk_len, mut offsets) = (0u64, vec![0u64; n_buckets as usize]);
    for (&n, at) in counts.iter().zip(&mut offsets).filter(|(&n, _)| n > 0) {
        if bulk_len % PAGE + block_len(n) > PAGE && block_len(n) <= PAGE {
            bulk_len = bulk_len.next_multiple_of(PAGE);
        }
        (*at, bulk_len) = (bulk_len, bulk_len + block_len(n));
    }
    let bulk = if items.is_empty() {
        FarAddr::NULL
    } else {
        alloc.alloc(bulk_len, AllocHint::Spread)?
    };
    let mut bucket_words = vec![0u64; n_buckets as usize];
    let mut bulk_bytes = vec![0u8; bulk_len as usize];
    let mut put = |at: &mut u64, words: [u64; 2]| {
        for w in words {
            bulk_bytes[*at as usize..][..8].copy_from_slice(&w.to_le_bytes());
            *at += WORD;
        }
    };
    let mut next = offsets.clone();
    for (b, &n) in counts.iter().enumerate().filter(|(_, &n)| n > 0) {
        put(&mut next[b], [version, n]);
        bucket_words[b] = bucket_word(bulk.offset(offsets[b]), n);
    }
    for &(k, v) in items {
        put(&mut next[bucket_of(k)], [k, v]);
    }
    let filled = bucket_words.iter().filter(|&&w| w != 0).count();
    let bucket_bytes: Vec<u8> = bucket_words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut hdr_bytes = Vec::with_capacity(HDR_LEN as usize);
    let (n_items, collisions) = (items.len() as u64, (items.len() - filled) as u64);
    let hdr_words = [version, buckets_addr.0, n_buckets, n_items, collisions, bulk.0, bulk_len];
    push_words(&mut hdr_bytes, hdr_words);
    let mut ops = vec![
        BatchOp::Write { addr: buckets_addr, data: &bucket_bytes },
        BatchOp::Write { addr: hdr, data: &hdr_bytes },
    ];
    if !items.is_empty() {
        ops.push(BatchOp::Write { addr: bulk, data: &bulk_bytes });
    }
    client.batch(&ops)?;
    Ok(Entry { start_key, table_hdr: hdr, buckets: buckets_addr, n_buckets, version })
}

/// A directory blob's bytes: the entry count, then five words per entry.
fn encode_directory(entries: &[Entry]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity((WORD + entries.len() as u64 * DIR_ENTRY_LEN) as usize);
    bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for e in entries {
        for w in [e.start_key, e.table_hdr.0, e.buckets.0, e.n_buckets, e.version] {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    bytes
}

/// A client's handle on an [`HtTree`]: the cached tree, the lifetime of
/// its blocks, and per-client statistics.
pub struct HtTreeHandle {
    tree: HtTree,
    cfg: HtTreeConfig,
    alloc: Arc<FarAlloc>,
    /// Where blocks come from and where unlinked ones go.
    records: Records,
    entries: Vec<Entry>,
    /// The directory blob the cached entries were read from: what a
    /// restructure's publish CASes the anchor from, and retires (reclaim
    /// mode) once that CAS has replaced it.
    dir_ptr: FarAddr,
    /// The bucket word naming the poison block.
    poison: u64,
    /// Directory-change subscription (`notify_dir` mode).
    dir_sub: Option<farmem_fabric::SubId>,
    /// Restructure generation the cached directory was last validated at
    /// (reclaim mode): a pin reporting another generation forces a
    /// refresh, which is what makes freeing retired tables after a grace
    /// period sound.
    seen_generation: u64,
    stats: HtTreeStats,
}

impl HtTreeHandle {
    /// Per-handle counters.
    pub fn stats(&self) -> HtTreeStats {
        self.stats
    }

    /// The tree descriptor this handle is attached to.
    pub fn tree(&self) -> &HtTree {
        &self.tree
    }

    /// Number of leaves (hash tables) in the cached tree.
    pub fn leaves(&self) -> usize {
        self.entries.len()
    }

    /// Bytes of client memory the cached tree occupies — the §5.2 claim is
    /// that this stays small (tree only, never the hash tables).
    pub fn cache_bytes(&self) -> u64 {
        self.entries.len() as u64 * std::mem::size_of::<Entry>() as u64
    }

    /// Re-reads the anchor and the directory blob: three far accesses —
    /// the anchor, the blob's entry count, then its entries.
    pub fn refresh_directory(&mut self, client: &mut FabricClient) -> Result<()> {
        let anchor = client.read(self.tree.anchor, ANCHOR_LEN)?;
        let w = words(&anchor);
        let dir_ptr = FarAddr(w[(A_DIR_PTR / 8) as usize]);
        self.poison = w[(A_POISON / 8) as usize];
        if dir_ptr.is_null() {
            return Err(CoreError::Corrupted("HT-tree anchor has no directory"));
        }
        let n = client.read_u64(dir_ptr)?;
        let blob = client.read(dir_ptr.offset(WORD), n * DIR_ENTRY_LEN)?;
        let mut entries = Vec::with_capacity(n as usize);
        for chunk in blob.chunks_exact(DIR_ENTRY_LEN as usize) {
            let w = words(chunk);
            entries.push(Entry {
                start_key: w[0],
                table_hdr: FarAddr(w[1]),
                buckets: FarAddr(w[2]),
                n_buckets: w[3],
                version: w[4],
            });
        }
        if entries.is_empty() || entries[0].start_key != 0 {
            return Err(CoreError::Corrupted("directory does not cover the key space"));
        }
        self.entries = entries;
        self.dir_ptr = dir_ptr;
        Ok(())
    }

    /// Pins one operation. Reclaim mode pins an epoch guard for its
    /// duration, refreshing the cached tree if the restructure generation
    /// moved since it was last validated (a split or compaction sealed in
    /// between, so cached table pointers may name retired — soon freed —
    /// memory). An epoch advance that retired only records costs no
    /// refresh: nothing cached points into them. Free in the steady state,
    /// and always under quarantine.
    ///
    /// The slot publish of an epoch advance is left pending when the
    /// operation `carries` it in its first access
    /// ([`first_ops`](Self::first_ops)); otherwise it goes alone, one
    /// CAS.
    fn pin_epoch(&mut self, client: &mut FabricClient, carries: bool) -> Result<Pinned> {
        let mut pinned = self.records.pin(client)?;
        if !carries {
            pinned.publish_alone(client)?;
        }
        self.revalidate(client, &pinned)?;
        Ok(pinned)
    }

    /// Refreshes the cached tree if `pinned` reports a restructure
    /// generation it was not validated at.
    fn revalidate(&mut self, client: &mut FabricClient, pinned: &Pinned) -> Result<()> {
        if let Some(generation) = pinned.generation().filter(|&g| g != self.seen_generation) {
            self.stats.generation_refreshes += 1;
            self.refresh_directory(client)?;
            self.seen_generation = generation;
        }
        Ok(())
    }

    /// Every operation's first access, one fenced batch:
    /// `[publish?] Load0Tagged [then?]` — the slot publish the pin left
    /// pending, the tagged `load0` of the `bucket`'s block, and a lookup's
    /// speculative read of its hinted record or a store's read of the
    /// table header. Built in a fixed array, so a get's path allocates
    /// nothing for it: the batch is the first `n` ops, the rest padding.
    fn first_ops(
        publish: Option<&Publish>,
        bucket: FarAddr,
        then: Option<BatchOp<'static>>,
    ) -> ([BatchOp<'static>; 3], usize) {
        let load = BatchOp::Load0Tagged { ptr: bucket };
        match (publish, then) {
            (None, None) => ([load.clone(), load.clone(), load], 1),
            (None, Some(then)) => ([load.clone(), then, load], 2),
            (Some(publish), None) => ([publish.op(), load.clone(), load], 2),
            (Some(publish), Some(then)) => ([publish.op(), load, then], 3),
        }
    }

    /// Sends an operation's first access ([`first_ops`](Self::first_ops))
    /// as one blocking fenced batch, headed by the publish `pin` left
    /// pending, and [`settle`](Self::settle)s that publish: the answers
    /// past its CAS's, or `None` after an evicted slot — the caller starts
    /// over from access 1.
    fn first_access(
        &mut self,
        client: &mut FabricClient,
        pin: &mut Pinned,
        bucket: FarAddr,
        then: Option<BatchOp<'static>>,
    ) -> Result<Option<Vec<PipeOut>>> {
        let publish = pin.take_publish();
        let (ops, n) = Self::first_ops(publish.as_ref(), bucket, then);
        let mut out = client.batch(&ops[..n]);
        if !self.settle(client, pin, publish, out.as_mut().ok())? {
            return Ok(None);
        }
        Ok(Some(out?))
    }

    /// Settles the slot publish an operation's first access carried —
    /// the one place the HT-tree does, blocking or posted — with the
    /// CAS's answer, taken off the head of the batch's `answers` (`None`:
    /// the batch failed, so the outcome is unknown). Returns whether the
    /// other answers stand; always, when nothing was carried. `false`:
    /// the CAS lost, so the slot had been evicted — the handle
    /// re-registered and the tree was refreshed — and the operation starts
    /// over from access 1, which wrote nothing.
    fn settle(
        &mut self,
        client: &mut FabricClient,
        pin: &mut Pinned,
        publish: Option<Publish>,
        answers: Option<&mut Vec<PipeOut>>,
    ) -> Result<bool> {
        let Some(publish) = publish else { return Ok(true) };
        let answer = answers.map(|out| out.remove(0).value());
        if pin.settle(client, publish, answer)? {
            return Ok(true);
        }
        self.revalidate(client, pin)?;
        Ok(false)
    }

    /// In `notify_dir` mode: refreshes the directory if a change
    /// notification is pending. A purely local check (events are pushed).
    fn sync_directory(&mut self, client: &mut FabricClient) -> Result<()> {
        let Some(sub) = self.dir_sub else { return Ok(()) };
        let events = client.take_events(|e| {
            e.sub() == Some(sub) || matches!(e, farmem_fabric::Event::Lost { .. })
        });
        if !events.is_empty() {
            self.stats.dir_notifications += events.len() as u64;
            self.refresh_directory(client)?;
        }
        Ok(())
    }

    /// Finds the cached entry covering `key` — a purely local traversal of
    /// the tree (§5.2: "clients cache the entire tree").
    fn entry_for(&self, client: &mut FabricClient, key: u64) -> Entry {
        // Binary search over start keys; charge the local traversal.
        client.near_accesses((self.entries.len().max(2) as u64).ilog2() as u64 + 1);
        self.entries[self.index_of(key)]
    }

    /// Index of the cached entry covering `key`.
    fn index_of(&self, key: u64) -> usize {
        match self.entries.binary_search_by(|e| e.start_key.cmp(&key)) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    fn bucket_addr(entry: &Entry, key: u64) -> FarAddr {
        entry.buckets.offset((splitmix64(key) % entry.n_buckets) * WORD)
    }

    /// The whole block a tagged read through `word` returned, after one
    /// more read for the rest of a block longer than its tag (a
    /// [`chain_hops`](HtTreeStats::chain_hops)). `None` when the block is
    /// not of `entry`'s version: the poison block, or a stale cache.
    fn whole_block(
        &mut self,
        client: &mut FabricClient,
        entry: &Entry,
        word: u64,
        mut bytes: Vec<u8>,
    ) -> Result<Option<Vec<u8>>> {
        if word_at(&bytes, 0) != entry.version {
            return Ok(None);
        }
        if let Some(rest) = read_rest(client, word, &bytes)? {
            self.stats.chain_hops += 1;
            bytes.extend(rest);
        }
        let version = entries(word, &bytes).0;
        Ok((version == entry.version).then_some(bytes))
    }

    /// Looks up `key`. **One far access** when the cache is fresh, at any
    /// position in its bucket's block (one more for a key past the
    /// fifteenth of its bucket); a stale cache adds a directory refresh
    /// and a retry.
    pub fn get(&mut self, client: &mut FabricClient, key: u64) -> Result<Option<u64>> {
        let ((value, _), _pin) = self.get_guarded(client, key, None)?;
        Ok(value)
    }

    /// [`get`](Self::get), handing back what it found and the operation's
    /// pin (the epoch guard, on a reclaim-mode handle) to a caller that
    /// goes on to dereference the value: while the guard lives, a record
    /// another client retires meanwhile stays readable.
    ///
    /// With a `hint` — where the caller believes the value points, and how
    /// many bytes to fetch there — the lookup and a speculative read of
    /// those bytes are **one far access**: one fenced batch, lookup first.
    /// The tree stays the authority: the bytes come back only if the value
    /// found *is* the hinted address, and are dropped uninterpreted
    /// otherwise. They are then the record's own — the batch ran the read
    /// after the lookup and under the guard, a record named by a linked
    /// block at lookup time cannot be freed before the guard drops, and
    /// records are immutable while linked. A wrong hint costs its message
    /// and bytes, never a round trip; a batch that fails (a fabric
    /// refusing the cross-node dereference, say) falls back to the plain
    /// lookup.
    pub(crate) fn get_guarded(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        hint: Option<(FarAddr, u64)>,
    ) -> Result<(Found, Pinned)> {
        let _span = client.span("httree.get");
        let mut pin = self.pin_epoch(client, true)?;
        self.stats.gets += 1;
        self.sync_directory(client)?;
        self.stats.hinted_gets += u64::from(hint.is_some());
        let found = self.get_inner(client, key, hint, &mut pin)?;
        Ok((found, pin))
    }

    /// The lookup: its first access, sent blocking
    /// ([`first_access`](Self::first_access)) and completed by
    /// [`complete`](Self::complete), in the stale-cache retry loop. A
    /// retry is unhinted: after a stale cache, an evicted slot or a hinted
    /// batch that failed, the key is looked up plain.
    fn get_inner(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        mut hint: Option<(FarAddr, u64)>,
        pin: &mut Pinned,
    ) -> Result<Found> {
        for attempt in 0..RETRY_BUDGET {
            let entry = self.entry_for(client, key);
            let bucket = Self::bucket_addr(&entry, key);
            let speculate = hint.map(|(addr, len)| BatchOp::ReadSpeculative { addr, len });
            // One pass of a retry loop — re-run only
            // after a stale cache or an evicted slot.
            match self.first_access(client, pin, bucket, speculate) {
                Ok(Some(out)) => {
                    let addr = hint.map(|h| h.0);
                    if let Some(found) =
                        self.complete(client, &entry, key, addr, PipeOut::Batch(out))?
                    {
                        return Ok(found);
                    }
                    // A concurrent splitter may still be mid-publish; back
                    // off in host time so it can finish.
                    backoff(attempt);
                }
                // An evicted slot: re-registered and refreshed.
                Ok(None) => {}
                // A hinted batch that failed (a fabric refusing the
                // cross-node dereference, say).
                Err(CoreError::Fabric(_)) if hint.is_some() => {}
                Err(e) => return Err(e),
            }
            self.stats.stale_hints += u64::from(hint.take().is_some());
        }
        Err(CoreError::Contended)
    }

    /// Completes a lookup of `key` from its first access's `answer` — a
    /// fenced batch's `[block, speculated?]`, or a posted tagged `load0`'s
    /// block alone — however it was sent. Finds the key in the block (one
    /// more read for a block longer than its tag) and keeps the speculated
    /// bytes only if the value found is the hinted `addr`. `None` after a
    /// stale cache, refreshed: the caller looks the key up again.
    fn complete(
        &mut self,
        client: &mut FabricClient,
        entry: &Entry,
        key: u64,
        addr: Option<FarAddr>,
        answer: PipeOut,
    ) -> Result<Option<Found>> {
        let (block, speculated) = match answer {
            PipeOut::Batch(out) => {
                let mut out = out.into_iter();
                (out.next(), out.next())
            }
            block => (Some(block), None),
        };
        // An empty bucket in a live table: the key is absent. A retired
        // table never shows a null bucket (poison).
        let value = match block {
            Some(PipeOut::Loaded { ptr, bytes }) => {
                match self.whole_block(client, entry, ptr, bytes)? {
                    Some(block) => entries(ptr, &block).1.find(|e| e.0 == key).map(|e| e.1),
                    None => {
                        // A stale cache: a split or retire happened.
                        self.stats.stale_refreshes += 1;
                        self.refresh_directory(client)?;
                        return Ok(None);
                    }
                }
            }
            _ => None,
        };
        let hinted = match (speculated, addr) {
            (Some(PipeOut::Bytes(bytes)), Some(addr)) if value == Some(addr.0) => Some(bytes),
            _ => None,
        };
        self.stats.stale_hints += u64::from(addr.is_some() && hinted.is_none());
        Ok(Some((value, hinted)))
    }

    /// Looks up many keys at once, prefetching every bucket's block
    /// through **one pipeline doorbell** (structure-level prefetch: the
    /// cached tree knows each key's bucket address without any far
    /// access, so all block loads can be in flight together). Long blocks
    /// and stale-cache retries then complete per key exactly as
    /// [`get`](Self::get) would; far accesses are identical to one `get`
    /// per key, only the round trips overlap.
    ///
    /// The blocking form of [`get_many_async`](Self::get_many_async): the
    /// same body over an [`Inline`] doorbell, which never parks.
    pub fn get_many(
        &mut self,
        client: &mut FabricClient,
        keys: &[u64],
    ) -> Result<Vec<Option<u64>>> {
        let bell = Inline::new(client);
        Inline::run(self.get_many_async(&bell, keys))
    }

    /// [`get_many`](Self::get_many) over any [`Doorbell`]: given an
    /// [`AsyncClient`](farmem_runtime::AsyncClient) the block prefetch
    /// *suspends* at its doorbell, so an executor can interleave
    /// thousands of concurrent lookups on one OS thread. The epoch pin,
    /// directory sync and cached-tree traversal run inline (control-plane,
    /// no steady-state far traffic), and long blocks / stale-cache
    /// retries take serial fallbacks — one body, so accounting cannot
    /// differ between the blocking and the suspending caller.
    ///
    /// The epoch guard is pinned *before* the doorbell and held
    /// across the suspension: the runtime never moves a slot, and
    /// because the pin happened at post time, a restructure sealing
    /// while this task is parked cannot free the tables its descriptors
    /// name. The guard's epoch was validated against the cached
    /// directory at pin time, so no re-check is needed on wake —
    /// staleness surfaces as a version mismatch handled by
    /// refresh-and-retry.
    pub async fn get_many_async<D: Doorbell>(
        &mut self,
        ac: &D,
        keys: &[u64],
    ) -> Result<Vec<Option<u64>>> {
        let (found, _pin) = self.get_many_async_guarded(ac, keys, &[]).await?;
        Ok(found.into_iter().map(|(value, _)| value).collect())
    }

    /// [`get_many_async`](Self::get_many_async) with a hint per key
    /// (`hints[i]` for `keys[i]`; keys past the end of `hints` are
    /// unhinted), handing back the pin it took and, per key, the
    /// value and the hinted bytes (see [`get_guarded`](Self::get_guarded)).
    /// A hinted key's lookup is one fenced descriptor in the doorbell —
    /// bucket block, then the speculative read — so a batch of fresh
    /// hints costs one round trip per key in one doorbell; an unhinted
    /// key's is the tagged `load0` descriptor.
    pub(crate) async fn get_many_async_guarded<D: Doorbell>(
        &mut self,
        ac: &D,
        keys: &[u64],
        hints: &[Option<(FarAddr, u64)>],
    ) -> Result<(Vec<Found>, Pinned)> {
        let _span = ac.span("httree.get_many");
        // lint: block-ok — epoch pin is control-plane (local check; rare
        // resync on epoch advance).
        let mut pin = ac.with(|client| self.pin_epoch(client, true))?;
        Ok((self.lookup_many(ac, keys, hints, &mut pin).await?, pin))
    }

    /// The guarded many-key lookup: the caller has pinned and validated
    /// the epoch. Every key's first access is posted: a hinted key's, and
    /// the first key's when it carries the pin's pending publish, as the
    /// fenced descriptor [`first_ops`](Self::first_ops) builds, any other
    /// as the tagged `load0` descriptor. A publish that finds the slot
    /// evicted discards the doorbell's answers and rings again. Each key
    /// completes as a get's does ([`complete`](Self::complete)); one its
    /// answer did not complete is looked up plain.
    async fn lookup_many<D: Doorbell>(
        &mut self,
        ac: &D,
        keys: &[u64],
        hints: &[Option<(FarAddr, u64)>],
        pin: &mut Pinned,
    ) -> Result<Vec<Found>> {
        self.stats.gets += keys.len() as u64;
        let hint = |i: usize| hints.get(i).copied().flatten();
        self.stats.hinted_gets += (0..keys.len()).filter(|&i| hint(i).is_some()).count() as u64;
        loop {
            // lint: block-ok — local event drain; refresh only on notification.
            ac.with(|client| self.sync_directory(client))?;
            let entries: Vec<Entry> =
                ac.with(|client| keys.iter().map(|&k| self.entry_for(client, k)).collect());
            let publish = if keys.is_empty() { None } else { pin.take_publish() };
            let mut blocks = DescList::new();
            for (i, &key) in keys.iter().enumerate() {
                let bucket = Self::bucket_addr(&entries[i], key);
                let carried = publish.as_ref().filter(|_| i == 0);
                let speculate = hint(i).map(|(addr, len)| BatchOp::ReadSpeculative { addr, len });
                if carried.is_none() && speculate.is_none() {
                    blocks.load0_tagged(bucket);
                } else {
                    let (ops, n) = Self::first_ops(carried, bucket, speculate);
                    blocks.post(PipeOp::Fenced(ops[..n].to_vec()));
                }
            }
            let mut cq = ac.ring(blocks).await;
            let mut first = cq.take(0);
            let answers = match &mut first {
                Some(Ok(PipeOut::Batch(out))) => Some(out),
                _ => None,
            };
            // lint: block-ok — local unless the slot was evicted: then the
            // re-registration and the refresh, the rare path.
            if !ac.with(|client| self.settle(client, pin, publish, answers))? {
                continue;
            }
            let mut out = Vec::with_capacity(keys.len());
            for (i, &key) in keys.iter().enumerate() {
                let answer = if i == 0 { first.take() } else { cq.take(i) };
                let addr = hint(i).map(|h| h.0);
                // lint: block-ok — per-key completion (a long block's rest,
                // a stale refresh) is the rare path and inherently serial.
                let found = ac.with(|client| match answer {
                    Some(Ok(answer)) => self.complete(client, &entries[i], key, addr, answer),
                    // A failed or aborted descriptor.
                    _ => Ok(None),
                })?;
                out.push(match found {
                    Some(found) => found,
                    None => {
                        self.stats.stale_hints += u64::from(addr.is_some());
                        // lint: block-ok — serial fallback after a stale or
                        // missed prefetch.
                        ac.with(|client| self.get_inner(client, key, None, pin))?
                    }
                });
            }
            return Ok(out);
        }
    }

    /// Inserts or updates `key → value`. **Two far accesses** when the
    /// cache is fresh, at any position in the key's bucket: the read of
    /// the bucket's block and the table header, then a fenced batch that
    /// writes the new block with the bucket CAS (see
    /// [`publish`](Self::publish)). The put whose key carries the table
    /// over `max_load_percent` also restructures it.
    ///
    /// `Err` means the value was not stored. A restructure that fails
    /// after the bucket CAS landed is no error of the put's: the next put
    /// into the table reads the same count and pays it (as for
    /// [`publish`](Self::publish)).
    pub fn put(&mut self, client: &mut FabricClient, key: u64, value: u64) -> Result<()> {
        let _span = client.span("httree.put");
        let mut pin = self.pin_epoch(client, true)?;
        self.stats.puts += 1;
        let (overloaded, _) = self.put_record(client, key, value, None, &mut pin)?;
        if let Some((start_key, version)) = overloaded {
            let _ = self.split_if(client, start_key, Some(version));
        }
        Ok(())
    }

    /// Stores `key → record` for a value that *is* a far record: `bytes`
    /// are written at `record` inside the put's own fenced batch, ahead of
    /// the block and the bucket CAS — still **two far accesses** — and
    /// returns the value the key held before, for the caller to retire.
    ///
    /// The first access is a fenced batch of a tagged `load0` through the
    /// bucket word to the bucket's block and a read of the table header;
    /// the block holds the key's entry, if any, *before* anything is
    /// linked. The second access writes the record and a new block — the
    /// old one with the key's entry replaced, or added — and CASes the
    /// bucket from the word the first access read to the new block: the
    /// old block leaves the bucket in that CAS, and goes where the
    /// handle's lifetime sends it (module docs). A bucket word names an
    /// immutable block that cannot be freed and reused while the put
    /// runs, so a CAS that lands on that word proves the bucket held
    /// exactly the block read — even if the word left it and came back.
    ///
    /// `Err` means the record was **never linked** and is still the
    /// caller's to free — a fault on the read of a long block's rest
    /// included, since that read runs before the CAS. Once the CAS has
    /// landed readers can reach the record, so nothing after it turns the
    /// store into an error: a failed restructure is left to the next put
    /// into the table (it reads the same count).
    pub fn publish(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        record: FarAddr,
        bytes: &[u8],
    ) -> Result<Option<u64>> {
        self.publish_guarded(client, key, record, bytes).map(|(old, _)| old)
    }

    /// [`publish`](Self::publish), handing back the operation's pin, under
    /// which the caller retires the value it superseded.
    pub(crate) fn publish_guarded(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        record: FarAddr,
        bytes: &[u8],
    ) -> Result<(Option<u64>, Pinned)> {
        let _span = client.span("httree.put");
        let mut pin = self.pin_epoch(client, true)?;
        self.stats.puts += 1;
        let (overloaded, old) = self.put_record(client, key, record.0, Some(bytes), &mut pin)?;
        if let Some((start_key, version)) = overloaded {
            // Linked: see above for why this error goes no further.
            let _ = self.split_if(client, start_key, Some(version));
        }
        Ok((old, pin))
    }

    /// Removes `key` ([`take`](Self::take), the value dropped).
    pub fn remove(&mut self, client: &mut FabricClient, key: u64) -> Result<()> {
        self.take(client, key).map(drop)
    }

    /// Removes `key` and returns the value it held — the tree's one
    /// removal protocol. **Two far accesses** at any position in the
    /// key's bucket; **one** for a key that is not there, which links
    /// nothing and leaves the table's counters alone. No remove
    /// restructures.
    ///
    /// Far access 1 is [`publish`](Self::publish)'s: one fenced batch of a
    /// tagged `load0` through the bucket word to the bucket's block, which
    /// also names the word it read, and the table header (a stale version
    /// refreshes and retries, as a put's does). The block holds the value.
    /// Far access 2 is the splice: one fenced batch that writes the block
    /// without the key's entry and CASes the bucket from that word to it
    /// (to null, for the bucket's last key, with nothing written). The old
    /// block leaves the bucket, and the header's live-key count drops by
    /// one. A lost CAS starts over from access 1. The CAS landing proves
    /// the read for the reason `publish` gives. Until that CAS every other
    /// client still finds the key, so racing takes of one key hand its
    /// value to exactly one of them.
    ///
    /// On a fabric that refuses the batch's cross-node dereference
    /// ([`IndirectionMode::Error`](farmem_fabric::IndirectionMode)) the
    /// `load0` reissues its target itself, at one access more.
    ///
    /// `Err` means nothing was unlinked.
    pub fn take(&mut self, client: &mut FabricClient, key: u64) -> Result<Option<u64>> {
        self.take_guarded(client, key).map(|(value, _)| value)
    }

    /// [`take`](Self::take), handing back the operation's pin, under which
    /// the caller retires the value it took.
    pub(crate) fn take_guarded(
        &mut self,
        client: &mut FabricClient,
        key: u64,
    ) -> Result<(Option<u64>, Pinned)> {
        let _span = client.span("httree.remove");
        let mut pin = self.pin_epoch(client, true)?;
        self.sync_directory(client)?;
        for attempt in 0..RETRY_BUDGET {
            let entry = self.entry_for(client, key);
            let Some(bucket) = self.read_bucket(client, &entry, key, attempt, &mut pin)? else {
                continue;
            };
            let Some(victim) = bucket.old() else { return Ok((None, pin)) };
            if self.splice(client, &entry, &bucket, None, Vec::new(), &pin)? {
                self.stats.removes += 1;
                return Ok((Some(victim), pin));
            }
        }
        Err(CoreError::Contended)
    }

    /// A far version word that is not the cached entry's — splitting (0)
    /// or already retired: refresh the tree before the retry. The splitter
    /// needs real (host) time to finish before the directory changes, so
    /// back off in host time too.
    fn refresh_stale(
        &mut self,
        client: &mut FabricClient,
        far_version: u64,
        attempt: u32,
    ) -> Result<()> {
        self.stats.stale_refreshes += 1;
        self.refresh_directory(client)?;
        if far_version == SPLITTING {
            client.advance_time(1_000);
        }
        backoff(attempt);
        Ok(())
    }

    /// Far access 1 of a put or take: one fenced batch of a tagged
    /// `load0` through the bucket word to the bucket's block and a read
    /// of the table header (and a read of the rest of a long block),
    /// headed by the slot publish `pin` left pending. `None` after a
    /// stale version or an evicted slot, refreshed: the caller starts
    /// over.
    fn read_bucket(
        &mut self,
        client: &mut FabricClient,
        entry: &Entry,
        key: u64,
        attempt: u32,
        pin: &mut Pinned,
    ) -> Result<Option<Bucket>> {
        let addr = Self::bucket_addr(entry, key);
        let hdr = BatchOp::Read { addr: entry.table_hdr, len: HDR_LEN };
        // One pass of a retry loop — re-run only
        // after a stale cache, an evicted slot or a lost bucket CAS.
        let Some(mut out) = self.first_access(client, pin, addr, Some(hdr))? else {
            return Ok(None);
        };
        let hdr = out.pop().expect("two ops").bytes().to_vec();
        let far_version = word_at(&hdr, H_VERSION);
        if far_version != entry.version {
            self.refresh_stale(client, far_version, attempt)?;
            return Ok(None);
        }
        let (word, block) = match out.pop() {
            // The word the `load0` read, not a `Read` of it beside: the
            // ops of a batch are not atomic.
            Some(PipeOut::Loaded { ptr, bytes }) => {
                match self.whole_block(client, entry, ptr, bytes)? {
                    Some(block) => (ptr, block),
                    None => {
                        self.refresh_stale(client, far_version, attempt)?;
                        return Ok(None);
                    }
                }
            }
            _ => (0, Vec::new()), // an empty bucket
        };
        let found = if word == 0 { None } else { entries(word, &block).1.position(|e| e.0 == key) };
        Ok(Some(Bucket {
            addr,
            word,
            found,
            block,
            keys: item_count(word_at(&hdr, H_ITEMS)),
            bulk: (word_at(&hdr, H_ITEMS_BASE), word_at(&hdr, H_ITEMS_LEN)),
        }))
    }

    /// Far access 2 of a put (`put`: the key's new entry) or take (`put:
    /// None`): one fenced batch that runs `ops`, writes the bucket's new
    /// block — `bucket`'s entries with the key's replaced, added or
    /// dropped — and CASes the bucket from `bucket.word` to it (to null
    /// when a take empties the bucket, with no block written). Returns
    /// whether the CAS landed (`false`: it lost, nothing was linked, and
    /// the caller starts over); an `Err` also means nothing was linked.
    /// Either way the fresh block is retired under `pin`. Landed, so is
    /// the old block, and the header's live-key count moves by the key
    /// the splice added or removed.
    fn splice(
        &mut self,
        client: &mut FabricClient,
        entry: &Entry,
        bucket: &Bucket,
        put: Option<(u64, u64)>,
        ops: Vec<BatchOp<'_>>,
        pin: &Pinned,
    ) -> Result<bool> {
        debug_assert!(put.is_some() || bucket.found.is_some(), "a take of an absent key");
        // The old block's entries, with the key's cut out; the new one
        // goes where the old one was, or at the end.
        let (body, e) = (bucket.block.get(BLOCK_HDR as usize..).unwrap_or_default(), ENTRY_LEN as usize);
        let (head, tail) = match bucket.found {
            Some(i) => (&body[..e * i], &body[e * i + e..]),
            None => (body, &[][..]),
        };
        let n = ((head.len() + tail.len()) / e + usize::from(put.is_some())) as u64;
        let fresh = if n == 0 { None } else { Some(self.records.alloc(block_len(n))?) };
        let mut block = Vec::with_capacity(block_len(n) as usize);
        push_words(&mut block, [entry.version, n]);
        block.extend_from_slice(head);
        push_words(&mut block, put.into_iter().flat_map(|(k, v)| [k, v]));
        block.extend_from_slice(tail);
        // Rebound so the ops may borrow `block`, which the caller's cannot.
        let mut ops: Vec<BatchOp<'_>> = ops;
        if let Some(addr) = fresh {
            ops.push(BatchOp::Write { addr, data: &block });
        }
        let new = fresh.map_or(0, |addr| bucket_word(addr, n));
        ops.push(BatchOp::Cas { addr: bucket.addr, expected: bucket.word, new });
        match client.batch(&ops) {
            Ok(out) if out[out.len() - 1].value() == bucket.word => {}
            unlinked => {
                // The CAS lost the bucket race, or never ran (a failed
                // batch stops at the op that failed). Nobody can reach the
                // fresh block, but the batch may have written it: it waits
                // out a grace period as an unlinked block does, so that
                // whoever the allocator hands it to next is ordered after
                // those writes by the seal.
                if let Some(addr) = fresh {
                    // lint: retire-ok: never linked; retired under the operation's pin only to order its reuse.
                    let _ = self.records.retire(client, pin, addr, Some(block_len(n)));
                }
                unlinked?;
                self.stats.cas_retries += 1;
                return Ok(false);
            }
        }
        // Advisory counters, posted after the committed CAS: a failed post
        // must not turn a landed mutation into an error.
        let items = entry.table_hdr.offset(H_ITEMS);
        match (put.is_some(), bucket.found.is_some()) {
            (true, false) => {
                let _ = client.post_faa_u64(items, 1);
                if bucket.word != 0 {
                    let _ = client.post_faa_u64(entry.table_hdr.offset(H_COLLISIONS), 1);
                }
            }
            (false, _) => {
                let _ = client.post_faa_u64(items, u64::MAX);
            }
            (true, true) => {}
        }
        // The CAS unlinked the old block. A block of the table's bulk
        // block is left to the restructure that retires it whole.
        let old = bucket.word & !TAG_MASK;
        let (base, len) = bucket.bulk;
        if old != 0 && !(base <= old && old < base + len) {
            let len = bucket.block.len() as u64;
            // A retire that fails queues its entry all the same (only its
            // seal failed); the mutation has landed either way.
            // lint: retire-ok: the bucket CAS above unlinked it; `pin` holds the operation's epoch guard.
            let _ = self.records.retire(client, pin, FarAddr(old), Some(len));
        }
        Ok(true)
    }

    /// Publishes one entry; with `record`, also writes those bytes at
    /// `FarAddr(value)` in the same fenced batch ([`publish`](Self::publish)).
    /// Returns the overload verdict and the value the put replaced. An
    /// `Err` always means the entry was not linked.
    fn put_record(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        value: u64,
        record: Option<&[u8]>,
        pin: &mut Pinned,
    ) -> Result<(Overloaded, Option<u64>)> {
        self.sync_directory(client)?;
        for attempt in 0..RETRY_BUDGET {
            let entry = self.entry_for(client, key);
            let mut ops = Vec::with_capacity(3);
            if let Some(data) = record {
                ops.push(BatchOp::Write { addr: FarAddr(value), data });
            }
            // Retry loop — every pass is one whole
            // put (the read and the splice), re-run only after a stale
            // cache or a lost bucket CAS.
            let Some(bucket) = self.read_bucket(client, &entry, key, attempt, pin)? else {
                continue;
            };
            if !self.splice(client, &entry, &bucket, Some((key, value)), ops, pin)? {
                continue;
            }
            // The table's live keys once this entry is in.
            let old = bucket.old();
            let count = bucket.keys.saturating_add(u64::from(old.is_none()));
            let overloaded = overloaded(count, entry.n_buckets, self.cfg.max_load_percent)
                .then_some((entry.start_key, entry.version));
            return Ok((overloaded, old));
        }
        Err(CoreError::Contended)
    }

    /// Approximate number of live keys, from the far-side per-table
    /// counters (one gather over all leaf headers). The counters are
    /// maintained with posted (unsignaled) atomics, so the estimate can
    /// trail in-flight operations slightly.
    pub fn len_estimate(&mut self, client: &mut FabricClient) -> Result<u64> {
        let _span = client.span("httree.len_estimate");
        let _pin = self.pin_epoch(client, false)?;
        let iov: Vec<FarIov> = self
            .entries
            .iter()
            .map(|e| FarIov::new(e.table_hdr.offset(H_ITEMS), WORD))
            .collect();
        Ok(words(&client.rgather(&iov)?).into_iter().map(item_count).sum())
    }

    /// Scans keys in `[lo, hi]`, returning sorted `(key, value)` pairs.
    ///
    /// The cached tree selects the leaf tables covering the range; each is
    /// drained with bulk transfers (the bucket array in one access, then
    /// one gather of its blocks), so the cost is O(tables covered), not
    /// O(keys in the map). Results reflect a leaf-consistent snapshot:
    /// concurrent writers may or may not appear, but versions guarantee no
    /// torn or foreign data.
    pub fn scan(
        &mut self,
        client: &mut FabricClient,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, u64)>> {
        let _span = client.span("httree.scan");
        let _pin = self.pin_epoch(client, false)?;
        if lo > hi {
            return Ok(Vec::new());
        }
        'retry: for _ in 0..RETRY_BUDGET {
            let mut out: Vec<(u64, u64)> = Vec::new();
            let first = self.index_of(lo);
            // Structure-level prefetch: the covered leaves' bucket arrays
            // are fetched through one pipeline doorbell, so leaves on
            // different nodes arrive overlapped instead of serialized.
            let covered: Vec<Entry> = self.entries[first..]
                .iter()
                .take_while(|e| e.start_key <= hi)
                .copied()
                .collect();
            let mut pq = client.pipeline();
            for entry in &covered {
                pq.read(entry.buckets, entry.n_buckets * WORD);
            }
            let mut bucket_cq = pq.commit();
            for (idx, entry) in covered.iter().enumerate() {
                let bucket_words = match bucket_cq.take(idx) {
                    Some(Ok(res)) => words(&res.into_bytes()),
                    // Failed or aborted descriptor: fall back to the
                    // serial read (hard errors propagate from it).
                    // audit: rt-in-loop-ok: rare per-leaf fallback — the hot
                    // path batched every bucket read through one doorbell.
                    _ => words(&client.read(entry.buckets, entry.n_buckets * WORD)?),
                };
                // One gather per leaf, every block of
                // the leaf at once.
                for block in read_blocks(client, &bucket_words)?.into_iter().flatten() {
                    if block.version != entry.version {
                        // Stale leaf (split raced the scan): refresh the
                        // tree and restart the whole scan.
                        self.stats.stale_refreshes += 1;
                        self.refresh_directory(client)?;
                        continue 'retry;
                    }
                    out.extend(block.entries.into_iter().filter(|&(k, _)| lo <= k && k <= hi));
                }
            }
            out.sort_unstable_by_key(|&(k, _)| k);
            return Ok(out);
        }
        Err(CoreError::Contended)
    }

    /// Splits (or grows, or compacts) the table covering `key`, without a
    /// lock and without touching the other tables (§5.2; see the module
    /// docs). A cached table that another client took or replaced first
    /// is looked up again in a refreshed directory. A table whose
    /// splitter failed after taking it stays taken: this, and every put
    /// into its range, then ends in [`CoreError::Contended`].
    pub fn split(&mut self, client: &mut FabricClient, key: u64) -> Result<()> {
        self.split_if(client, key, None)
    }

    /// [`split`](Self::split), restricted by `seen_version` to the cached
    /// table of that version. Every client whose put lands in an
    /// overloaded table notices on the same put; the one whose version
    /// CAS wins restructures, the others leave at their lost CAS.
    fn split_if(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        seen_version: Option<u64>,
    ) -> Result<()> {
        let _span = client.span("httree.split");
        let pin = self.pin_epoch(client, false)?;
        for attempt in 0..RETRY_BUDGET {
            let entry = self.entries[self.index_of(key)];
            if seen_version.is_some_and(|v| v != entry.version) {
                return Ok(());
            }
            // The take: one CAS of the version word, which also turns the
            // table's puts and takes away. The batch also reads the
            // directory pointer the publish will CAS: the fabric refuses
            // the whole batch up front while the anchor's node is down, so
            // no table is taken that could not be published. It reads the
            // header behind it for what only the far side knows: the bulk
            // block a previous split laid the table's blocks out in.
            // Retry loop — re-run only after another
            // client took or replaced the cached table.
            let out = client.batch(&[
                BatchOp::Read { addr: self.tree.anchor.offset(A_DIR_PTR), len: WORD },
                BatchOp::Cas {
                    addr: entry.table_hdr.offset(H_VERSION),
                    expected: entry.version,
                    new: SPLITTING,
                },
                BatchOp::Read { addr: entry.table_hdr, len: HDR_LEN },
            ])?;
            let far_version = out[1].value();
            if far_version == entry.version {
                let hdr = out[2].bytes();
                let bulk = (word_at(hdr, H_ITEMS_BASE), word_at(hdr, H_ITEMS_LEN));
                return self.restructure(client, entry, bulk, &pin);
            }
            if seen_version.is_some() {
                return Ok(());
            }
            self.refresh_stale(client, far_version, attempt)?;
        }
        Err(CoreError::Contended)
    }

    /// Restructures the table `entry`, which the caller has taken: drains
    /// and poisons it, builds its replacements and publishes them. Then
    /// the old table, with its bulk block `(base, len)`, and the
    /// directory blob the publish replaced go where the handle's lifetime
    /// sends them.
    fn restructure(
        &mut self,
        client: &mut FabricClient,
        entry: Entry,
        (bulk_base, bulk_len): (u64, u64),
        pin: &Pinned,
    ) -> Result<()> {
        // Drain the table with batched transfers: read the bucket array
        // (one access), gather every block (one access), then poison every
        // bucket in one fenced CAS volley. Buckets whose CAS loses to a
        // racing put or take are harvested again, one by one — the
        // version marker makes such races rare.
        let mut heads = words(&client.read(entry.buckets, entry.n_buckets * WORD)?);
        let mut blocks = read_blocks(client, &heads)?;
        // Poison volley: one fenced batch of CASes over all buckets.
        let cas_ops: Vec<BatchOp<'_>> = heads
            .iter()
            .enumerate()
            .map(|(i, &head)| BatchOp::Cas {
                addr: entry.buckets.offset(i as u64 * WORD),
                expected: head,
                new: self.poison,
            })
            .collect();
        let outs = client.batch(&cas_ops)?;
        for (i, out) in outs.iter().enumerate() {
            let mut head = out.value();
            if head == heads[i] {
                continue; // poison landed
            }
            // A racing put or take won the bucket, and the block it left
            // is the bucket's whole truth: the block harvested above was
            // unlinked — and retired — by that splice, so this bucket's
            // harvest is replaced, not merged: merged, a key a take
            // removed would come back, and its block would be retired
            // twice.
            let bucket_addr = entry.buckets.offset(i as u64 * WORD);
            loop {
                // Re-harvest of a racing mutation's
                // block (rare; only after a lost poison CAS).
                blocks[i] = read_blocks(client, &[head])?.pop().flatten();
                // audit: rt-in-loop-ok: bounded re-poison CAS — loses only
                // to a racing mutation, whose block the loop then harvests.
                let prev = client.cas(bucket_addr, head, self.poison)?;
                if prev == head {
                    break;
                }
                head = prev;
            }
            heads[i] = head;
        }
        let mut live: Vec<(u64, u64)> = blocks
            .iter()
            .flatten()
            .filter(|b| b.version == entry.version)
            .flat_map(|b| b.entries.iter().copied())
            .collect();

        // Decide: split by median key, or grow in place when the range
        // cannot be partitioned.
        live.sort_unstable_by_key(|&(k, _)| k);
        let can_split = live.len() >= 2 && live.first().unwrap().0 != live.last().unwrap().0;
        // A put's trigger counts live keys and never finds the table this
        // sparse; an explicit `split` of a sparse table compacts it in
        // place, where growing would double an empty table's buckets on
        // every call.
        let compact = sparse(live.len() as u64, entry.n_buckets, self.cfg.max_load_percent);
        // Each replacement table: its start key, items and bucket count.
        let init = self.cfg.initial_buckets;
        let tables = if compact {
            self.stats.compactions += 1;
            vec![(entry.start_key, &live[..], entry.n_buckets)]
        } else if can_split {
            let mid_key = live[live.len() / 2].0;
            // All keys strictly below mid go left; mid and above go right.
            let split_at = live.partition_point(|&(k, _)| k < mid_key);
            let (left, right) = live.split_at(split_at);
            debug_assert!(!left.is_empty() && !right.is_empty());
            self.stats.splits += 1;
            vec![(entry.start_key, left, init), (mid_key, right, init)]
        } else {
            // Grow: same range, twice the buckets.
            self.stats.grows += 1;
            vec![(entry.start_key, &live[..], (entry.n_buckets * 2).max(init))]
        };
        let version = entry.version + 1;
        let new_entries = tables
            .into_iter()
            .map(|(start, items, n)| build_table(client, &self.alloc, start, items, version, n))
            .collect::<Result<Vec<Entry>>>()?;
        let (old_dir, old_dir_len) = self.publish_directory(client, &entry, &new_entries)?;
        // Everything the new directory just unlinked: the old table
        // (header, buckets, bulk block, every drained block outside it)
        // and the directory blob the publish replaced. Clients cache
        // pointers into all of it, so reclaim mode retires it as a
        // restructure: the seal stamps it with a fresh epoch *and*
        // generation, and a grace period later it returns to the
        // allocator. Stale readers stay safe in between: their first far
        // access hits poison, and their next epoch pin reports the new
        // generation and refreshes past the retired blocks before those
        // can be freed. Quarantine mode leaks it.
        let in_bulk = |a: u64| bulk_base <= a && a < bulk_base + bulk_len;
        let drained = heads.iter().zip(&blocks).filter_map(|(&head, block)| {
            let addr = head & !TAG_MASK;
            let block = block.as_ref()?;
            (head != self.poison && !in_bulk(addr))
                .then(|| (FarAddr(addr), block_len(block.entries.len() as u64)))
        });
        let table = [(entry.table_hdr, HDR_LEN), (entry.buckets, entry.n_buckets * WORD)];
        let bulk = (bulk_base != 0).then_some((FarAddr(bulk_base), bulk_len));
        // lint: retire-ok: all of it was unlinked by the directory CAS; readers run under epoch guards and poison + grace fences stragglers.
        self.records.retire_restructure(
            client,
            pin,
            table.into_iter().chain(bulk).chain(drained).chain([(old_dir, old_dir_len)]),
        )
    }

    /// Publishes the cached directory with the taken table `taken`
    /// replaced by `new_entries`, in one fenced batch — a put's
    /// publish-then-link: the new blob, then a CAS of the anchor's
    /// directory pointer from the blob the cache was read from. A lost CAS
    /// means another table's restructure published first. The blob was
    /// never reachable and is freed; the refreshed directory still holds
    /// `taken`, since only its taker replaces a table at `SPLITTING`; the
    /// new tables are spliced in again. Returns the blob the winning CAS
    /// replaced, and its length.
    fn publish_directory(
        &mut self,
        client: &mut FabricClient,
        taken: &Entry,
        new_entries: &[Entry],
    ) -> Result<(FarAddr, u64)> {
        for _ in 0..RETRY_BUDGET {
            let idx = self
                .entries
                .iter()
                .position(|e| e.table_hdr == taken.table_hdr)
                .ok_or(CoreError::Corrupted("a taken table left the directory"))?;
            let mut entries = self.entries.clone();
            entries.splice(idx..=idx, new_entries.iter().copied());
            let bytes = encode_directory(&entries);
            let blob = self.alloc.alloc(bytes.len() as u64, AllocHint::Spread)?;
            let old = self.dir_ptr;
            // Retry loop — re-run only after another
            // table's restructure won the directory pointer.
            match client.batch(&[
                BatchOp::Write { addr: blob, data: &bytes },
                BatchOp::Cas {
                    addr: self.tree.anchor.offset(A_DIR_PTR),
                    expected: old.0,
                    new: blob.0,
                },
            ]) {
                Ok(out) if out[1].value() == old.0 => {
                    let old_len = WORD + self.entries.len() as u64 * DIR_ENTRY_LEN;
                    (self.entries, self.dir_ptr) = (entries, blob);
                    return Ok((old, old_len));
                }
                unpublished => {
                    // Lost, or never ran (a failed batch stops at the op
                    // that failed): nobody can reach the blob.
                    self.alloc.free(blob, bytes.len() as u64)?;
                    unpublished?;
                }
            }
            self.refresh_directory(client)?;
        }
        Err(CoreError::Contended)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn setup(cap: u64) -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>, HtTree) {
        let f = FabricConfig::count_only(cap).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let t = HtTree::create(&mut c, &a, HtTreeConfig::default()).unwrap();
        (f, a, t)
    }

    fn restructures(h: &HtTreeHandle) -> u64 {
        h.stats().splits + h.stats().grows + h.stats().compactions
    }

    #[test]
    fn put_get_remove_round_trip() {
        let (f, a, t) = setup(64 << 20);
        let mut c = f.client();
        let mut h = t.attach(&mut c, &a, HtTreeConfig::default()).unwrap();
        assert_eq!(h.get(&mut c, 42).unwrap(), None);
        h.put(&mut c, 42, 420).unwrap();
        assert_eq!(h.get(&mut c, 42).unwrap(), Some(420));
        h.put(&mut c, 42, 421).unwrap();
        assert_eq!(h.get(&mut c, 42).unwrap(), Some(421));
        h.remove(&mut c, 42).unwrap();
        assert_eq!(h.get(&mut c, 42).unwrap(), None);
    }

    #[test]
    fn lookup_is_one_far_access_and_store_is_two() {
        let (f, a, t) = setup(64 << 20);
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        // Unique-bucket keys so the measurement sees no chains.
        h.put(&mut c, 7, 70).unwrap();

        let before = c.stats();
        assert_eq!(h.get(&mut c, 7).unwrap(), Some(70));
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 1, "fresh-cache lookup is ONE far access");

        let before = c.stats();
        h.put(&mut c, 9, 90).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 2, "fresh-cache store is TWO far accesses");
        assert!(d.posted_messages >= 1, "bookkeeping is posted, not charged");

        let before = c.stats();
        assert_eq!(h.get(&mut c, 12345).unwrap(), None);
        let d = c.stats().since(&before);
        assert_eq!(d.round_trips, 1, "absent lookup is also one far access");
    }

    #[test]
    fn puts_under_the_threshold_cost_exactly_two_far_accesses() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        // 1 000 records stay far below 75 % of 4096 buckets.
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        let entry = h.entry_for(&mut c, 0);
        let mut in_bucket = std::collections::HashMap::new();
        let start = c.stats();
        for k in 0..1000u64 {
            let n = in_bucket.entry(HtTreeHandle::bucket_addr(&entry, k * 7919)).or_insert(0);
            let before = c.stats();
            h.put(&mut c, k * 7919, k).unwrap();
            let d = c.stats().since(&before);
            // Posted bookkeeping: H_ITEMS, plus H_COLLISIONS on an insert
            // into a non-empty bucket.
            let posted = 1 + u64::from(*n > 0);
            let want = farmem_fabric::AccessStats {
                round_trips: 2,
                messages: 2 + 2 + posted,
                posted_messages: posted,
                // The bucket's block through its word (nothing in an empty
                // bucket) and the header; then the block one key longer.
                bytes_read: if *n > 0 { block_len(*n) } else { 0 } + HDR_LEN,
                bytes_written: block_len(*n + 1),
                atomics: 1 + posted,
                near_accesses: 2,
                ..Default::default()
            };
            assert_eq!(d, want, "put {k}");
            *n += 1;
        }
        assert_eq!(c.stats().since(&start).round_trips, 2000, "no amortised third access");
        assert_eq!((h.stats().chain_hops, restructures(&h)), (0, 0));
    }

    /// A reclaim-mode handle (the mode in which `publish` reports what it
    /// superseded) on a fresh tree, with its registry slot.
    fn reclaimed(
        c: &mut FabricClient,
        a: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
    ) -> (HtTree, HtTreeHandle, SharedReclaim) {
        let reg = farmem_reclaim::ReclaimRegistry::create(c, a, 4).unwrap();
        let shared = reg.attach(c, a).unwrap();
        let t = HtTree::create(c, a, cfg).unwrap();
        let h = t.attach_reclaimed(c, a, cfg, shared.clone()).unwrap();
        (t, h, shared)
    }

    #[test]
    fn publish_carries_the_record_and_the_superseded_value_in_the_same_two_accesses() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let (_, mut h, shared) = reclaimed(&mut c, &a, cfg);
        let publish = |c: &mut FabricClient, h: &mut HtTreeHandle, bytes: &[u8]| {
            let rec = a.alloc(bytes.len() as u64, AllocHint::Spread).unwrap();
            let before = c.stats();
            let old = h.publish(c, 7, rec, bytes).unwrap();
            let d = c.stats().since(&before);
            assert_eq!(c.read(rec, bytes.len() as u64).unwrap(), bytes, "record written");
            assert_eq!(h.get(c, 7).unwrap(), Some(rec.0));
            (rec.0, old, d)
        };
        // Access 1 is the tagged `load0` of the bucket's block (nothing to
        // read in an empty bucket) and the header; access 2 the record,
        // the new block and the CAS. Only an insert bumps the count.
        let splice = |head: u64, posted: u64, written: u64| farmem_fabric::AccessStats {
            round_trips: 2,
            messages: 2 + 3 + posted,
            posted_messages: posted,
            bytes_read: head + HDR_LEN,
            bytes_written: block_len(1) + written,
            atomics: 1 + posted,
            near_accesses: 2,
            // The replaced block, retired.
            retired_bytes: head,
            ..Default::default()
        };
        let retired = || shared.lock().unwrap().stats().retired_entries;
        let (first, old, d) = publish(&mut c, &mut h, b"sixteen bytes...");
        assert_eq!(old, None, "fresh key");
        assert_eq!(d, splice(0, 1, 16), "empty bucket: record + block + CAS");
        let before = retired();
        let (second, old, d) = publish(&mut c, &mut h, b"twenty-four bytes.......");
        assert_eq!(old, Some(first), "the value this store replaced");
        assert_eq!(d, splice(block_len(1), 0, 24), "the block replaced in the CAS");
        assert_eq!(retired() - before, 1, "the replaced block, retired");
        assert_eq!(h.len_estimate(&mut c).unwrap(), 1, "one live key");
        // A removed key supersedes nothing: the take left no entry of it.
        assert_eq!(h.take(&mut c, 7).unwrap(), Some(second));
        let (_, old, _) = publish(&mut c, &mut h, b"after the delete");
        assert_eq!(old, None, "not {second}");
        assert_eq!(h.stats().chain_hops, 0, "no block past its tag");

        // A quarantine-mode handle splices at the same price and hands back
        // what it superseded too; it only retires nothing.
        let t = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut q = t.attach(&mut c, &a, cfg).unwrap();
        let stranded = |head: u64, posted: u64, written: u64| farmem_fabric::AccessStats {
            retired_bytes: 0,
            ..splice(head, posted, written)
        };
        let (first, old, d) = publish(&mut c, &mut q, b"sixteen bytes...");
        assert_eq!((old, d), (None, stranded(0, 1, 16)));
        let (_, old, d) = publish(&mut c, &mut q, b"twenty-four bytes.......");
        assert_eq!((old, d), (Some(first), stranded(block_len(1), 0, 24)), "block replaced");
        assert_eq!(q.len_estimate(&mut c).unwrap(), 1, "one live key");
    }

    /// A store at any depth is two far accesses and writes one block: the
    /// bucket's block with the key's entry replaced, added or dropped, in
    /// place of the old block, which is the one retire. A take of a
    /// bucket's last key writes nothing and leaves the word null. The
    /// bucket keeps one entry per key, and the header counts live keys.
    #[test]
    fn a_store_at_any_depth_is_two_far_accesses_and_writes_one_block() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 2,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let (_, mut h, shared) = reclaimed(&mut c, &a, cfg);
        let entry = h.entry_for(&mut c, 0);
        let bucket = HtTreeHandle::bucket_addr(&entry, 0);
        let keys: Vec<u64> =
            (0u64..).filter(|&k| HtTreeHandle::bucket_addr(&entry, k) == bucket).take(4).collect();
        for &k in &keys {
            h.put(&mut c, k, k + 100).unwrap();
        }
        // The bucket's block, as the puts left it.
        let block = |c: &mut FabricClient| -> Vec<u64> {
            let word = c.read_u64(bucket).unwrap();
            if word == 0 {
                return Vec::new();
            }
            let (read, bytes) = c.load0_tagged(bucket).unwrap();
            let (version, entries) = entries(read, &bytes);
            assert_eq!((read, version), (word, entry.version));
            entries.map(|(k, _)| k).collect()
        };
        assert_eq!(block(&mut c), keys);
        let retired = || shared.lock().unwrap().stats().retired_entries;
        let measure = |c: &mut FabricClient, h: &mut HtTreeHandle, op: &dyn Fn(&mut FabricClient, &mut HtTreeHandle)| {
            let (before, r0) = (c.stats(), retired());
            op(c, h);
            let d = c.stats().since(&before);
            (d.round_trips, d.bytes_written, retired() - r0)
        };
        // An overwrite of the second key: one block of four, in place.
        let overwrite = |c: &mut FabricClient, h: &mut HtTreeHandle| h.put(c, keys[1], 7).unwrap();
        assert_eq!(measure(&mut c, &mut h, &overwrite), (2, block_len(4), 1));
        assert_eq!(block(&mut c), keys);
        // Takes at the front and at the back: one block a key shorter each.
        for (key, left) in [(keys[0], 3), (keys[3], 2)] {
            let take = |c: &mut FabricClient, h: &mut HtTreeHandle| {
                assert_eq!(h.take(c, key).unwrap(), Some(key + 100));
            };
            assert_eq!(measure(&mut c, &mut h, &take), (2, block_len(left), 1));
        }
        assert_eq!(block(&mut c), [keys[1], keys[2]]);
        assert_eq!(h.len_estimate(&mut c).unwrap(), 2, "two live keys");
        for (&k, want) in keys.iter().zip([None, Some(7), Some(keys[2] + 100), None]) {
            assert_eq!(h.get(&mut c, k).unwrap(), want, "key {k}");
        }
        // The bucket's last key: the CAS to null, nothing written.
        h.remove(&mut c, keys[1]).unwrap();
        let last = |c: &mut FabricClient, h: &mut HtTreeHandle| h.remove(c, keys[2]).unwrap();
        assert_eq!(measure(&mut c, &mut h, &last), (2, 0, 1));
        assert_eq!(c.read_u64(bucket).unwrap(), 0, "an empty bucket");
        assert_eq!(h.len_estimate(&mut c).unwrap(), 0);
    }

    /// Fails `victim` right after the first access of `kind` at `addr`:
    /// at the bucket CAS the store has landed, and everything after it
    /// meets a dead node.
    struct FailOnAccess {
        fabric: std::sync::Weak<farmem_fabric::Fabric>,
        addr: FarAddr,
        kind: farmem_fabric::AccessKind,
        victim: farmem_fabric::NodeId,
    }

    impl FailOnAccess {
        fn landed(f: &Arc<farmem_fabric::Fabric>, bucket: FarAddr, victim: farmem_fabric::NodeId) -> Arc<Self> {
            let kind = farmem_fabric::AccessKind::AtomicRmw;
            Arc::new(FailOnAccess { fabric: Arc::downgrade(f), addr: bucket, kind, victim })
        }
    }

    impl farmem_fabric::CheckObserver for FailOnAccess {
        fn access(&self, access: &farmem_fabric::Access) {
            if access.addr == self.addr && access.kind == self.kind {
                self.fabric.upgrade().expect("fabric outlives its verbs").node(self.victim).fail();
            }
        }
    }

    fn two_nodes() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig {
            nodes: 2,
            retry: farmem_fabric::RetryPolicy::NONE,
            ..FabricConfig::count_only(64 << 20)
        }
        .build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn a_publish_whose_restructure_fails_has_still_stored() {
        // The node that dies holds the anchor, whose directory pointer the
        // publish would CAS, or the table the take would CAS.
        for fail_anchor in [true, false] {
            let (f, a) = two_nodes();
            let mut c = f.client();
            // 8 buckets at 75 %: the seventh key overloads the table.
            let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
            let (t, mut h, shared) = reclaimed(&mut c, &a, cfg);
            let mut recs = Vec::new();
            for k in 0..6u64 {
                let rec = a.alloc(16, AllocHint::Spread).unwrap();
                assert_eq!(h.publish(&mut c, k, rec, &[k as u8; 16]).unwrap(), None);
                recs.push(rec);
            }
            // The overloading store inserts the seventh key, and the node
            // dies under its CAS, so the restructure it owes cannot even
            // take the table.
            let live = a.stats().live_bytes;
            let rec = a.alloc(16, AllocHint::Spread).unwrap();
            let entry = h.entry_for(&mut c, 6);
            let victim = a.node_of(if fail_anchor { t.anchor } else { entry.table_hdr });
            f.install_check_observer(FailOnAccess::landed(
                &f,
                HtTreeHandle::bucket_addr(&entry, 6),
                victim,
            ));
            let old = h.publish(&mut c, 6, rec, b"linked, not lost").unwrap();
            f.clear_check_observer();
            assert!(h.split(&mut c, 0).is_err(), "the node is down: that restructure did fail");
            f.node(victim).recover();
            assert_eq!(old, None, "a fresh key");
            assert_eq!(restructures(&h), 0);
            // Linked and whole: nothing freed the record under its readers.
            assert_eq!(h.get(&mut c, 6).unwrap(), Some(rec.0));
            assert_eq!(c.read(rec, 16).unwrap(), b"linked, not lost");
            // The record and the bucket's new block; the block it replaced
            // is retired, not yet freed.
            let bucket = HtTreeHandle::bucket_addr(&entry, 6);
            let n = (0..6).filter(|&k| HtTreeHandle::bucket_addr(&entry, k) == bucket).count();
            let block = block_len(n as u64 + 1);
            assert_eq!(a.stats().live_bytes, live + 16 + block, "record + block, nothing else");
            // The next insert into the table gathers the verdict again (a
            // dead header node lost the count's bump: still one key over)
            // and pays it.
            let rec7 = a.alloc(16, AllocHint::Spread).unwrap();
            assert_eq!(h.publish(&mut c, 7, rec7, &[7; 16]).unwrap(), None);
            assert_eq!(restructures(&h), 1, "anchor failed: {fail_anchor}");
            recs.extend([rec, rec7]);
            for (k, rec) in recs.iter().enumerate() {
                assert_eq!(h.get(&mut c, k as u64).unwrap(), Some(rec.0), "key {k}");
            }
            drop(shared);
        }
    }

    /// `put`'s twin of the test above: a landed put is never reported as
    /// failed, although the restructure it owes fails.
    #[test]
    fn a_put_whose_restructure_fails_has_still_stored() {
        let (f, a) = two_nodes();
        let mut c = f.client();
        // 8 buckets at 75 %: the seventh record overloads the table.
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let mut h = HtTree::create(&mut c, &a, cfg).unwrap().attach(&mut c, &a, cfg).unwrap();
        for k in 0..6u64 {
            h.put(&mut c, k, k + 10).unwrap();
        }
        // The table header's node dies right after the seventh put's CAS.
        let entry = h.entry_for(&mut c, 6);
        let victim = a.node_of(entry.table_hdr);
        f.install_check_observer(FailOnAccess::landed(
            &f,
            HtTreeHandle::bucket_addr(&entry, 6),
            victim,
        ));
        let stored = h.put(&mut c, 6, 16);
        f.clear_check_observer();
        assert!(h.split(&mut c, 0).is_err(), "the node is down: that restructure did fail");
        f.node(victim).recover();
        stored.unwrap();
        assert_eq!(restructures(&h), 0);
        // The next put into the table pays the restructure.
        h.put(&mut c, 7, 17).unwrap();
        assert_eq!(restructures(&h), 1);
        for k in 0..8u64 {
            assert_eq!(h.get(&mut c, k).unwrap(), Some(k + 10), "key {k}");
        }
    }

    /// Parks `client` at the top of its first verb after it swung a word
    /// in `[lo, hi)`, until the test has run another client in the gap.
    struct HoldAfterSwing {
        client: u32,
        lo: FarAddr,
        hi: FarAddr,
        swung: std::sync::atomic::AtomicBool,
        held: std::sync::atomic::AtomicBool,
        gap: std::sync::Barrier,
    }

    impl farmem_fabric::CheckObserver for HoldAfterSwing {
        fn access(&self, access: &farmem_fabric::Access) {
            if access.client == self.client
                && access.kind == farmem_fabric::AccessKind::AtomicRmw
                && (self.lo.0..self.hi.0).contains(&access.addr.0)
            {
                self.swung.store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }

        fn gate(&self, client: u32) {
            use std::sync::atomic::Ordering::SeqCst;
            if client == self.client && self.swung.load(SeqCst) && !self.held.swap(true, SeqCst) {
                self.gap.wait(); // parked
                self.gap.wait(); // released
            }
        }
    }

    /// Two splitters of different tables. A has taken table T1 and
    /// poisoned its buckets when B overloads T2 and restructures it; then
    /// A builds and publishes. B never waits for A, and A's publish, which
    /// loses the directory pointer to B's, splices its table into B's
    /// directory: a publish built from the directory A cached would erase
    /// B's tables, and T2's keys would end `Contended`.
    #[test]
    fn two_splitters_of_different_tables_both_publish() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let (mut c0, mut ca, mut cb) = (f.client(), f.client(), f.client());
        // 75 % of 8 buckets: the seventh record overloads a table.
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c0, &a, cfg).unwrap();
        let mut h0 = t.attach(&mut c0, &a, cfg).unwrap();
        let mut stored: Vec<(u64, u64)> = (0..6u64).map(|k| (k * 1000, k)).collect();
        for &(k, v) in &stored {
            h0.put(&mut c0, k, v).unwrap();
        }
        // T1 covers [0, 3000) and T2 the rest, three keys each.
        h0.split(&mut c0, 0).unwrap();
        let mut ha = t.attach(&mut ca, &a, cfg).unwrap();
        let mut hb = t.attach(&mut cb, &a, cfg).unwrap();
        let t1 = ha.entry_for(&mut ca, 0);
        assert_eq!((ha.leaves(), ha.entry_for(&mut ca, 3000).start_key), (2, 3000));
        let hold = Arc::new(HoldAfterSwing {
            client: ca.id(),
            lo: t1.buckets,
            hi: t1.buckets.offset(t1.n_buckets * WORD),
            swung: Default::default(),
            held: Default::default(),
            gap: std::sync::Barrier::new(2),
        });
        f.install_check_observer(hold.clone());
        let b_keys: Vec<(u64, u64)> = (0..4u64).map(|i| (10_000 + i, 100 + i)).collect();
        let (a_split, b_puts) = std::thread::scope(|s| {
            let splitter = s.spawn(|| ha.split(&mut ca, 0));
            hold.gap.wait();
            let puts: Vec<Result<()>> =
                b_keys.iter().map(|&(k, v)| hb.put(&mut cb, k, v)).collect();
            hold.gap.wait();
            (splitter.join().unwrap(), puts)
        });
        f.clear_check_observer();
        a_split.unwrap();
        b_puts.into_iter().collect::<Result<Vec<()>>>().unwrap();
        assert_eq!((restructures(&ha), restructures(&hb)), (1, 1));
        stored.extend(b_keys);
        let mut fresh = t.attach(&mut c0, &a, cfg).unwrap();
        for (k, v) in stored {
            assert_eq!(fresh.get(&mut c0, k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(fresh.stats().stale_refreshes, 0, "the directory covers only live tables");
        assert_eq!(fresh.leaves(), 3, "T1 compacted, T2 split");
    }

    /// What an uncontended restructure costs, whole: the version CAS with
    /// its reads of the directory pointer and the table header, the bucket
    /// array, one gather of the blocks, the poison volley, one batch per
    /// table built and the publish batch — no lock, and no directory
    /// re-read ahead of the take.
    #[test]
    fn an_uncontended_split_is_a_version_cas_the_drain_the_builds_and_one_publish() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        // Six keys stay under 75 % of 8 buckets, and too many to compact.
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut h0 = t.attach(&mut c, &a, cfg).unwrap();
        for k in 0..6u64 {
            h0.put(&mut c, k * 1000, k).unwrap();
        }
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        let before = c.stats();
        h.split(&mut c, 0).unwrap();
        let d = c.stats().since(&before);
        // The blocks of `b` buckets hold the six keys, a header each; each
        // new table is its bucket array, header and bulk block.
        let buckets = |keys: &[u64]| {
            let at = |&k: &u64| splitmix64(k) % 8;
            keys.iter().map(at).collect::<std::collections::HashSet<_>>().len() as u64
        };
        let keys: Vec<u64> = (0..6u64).map(|k| k * 1000).collect();
        let (b, built_b) = (buckets(&keys), buckets(&keys[..3]) + buckets(&keys[3..]));
        let built = 2 * (8 * WORD + HDR_LEN) + 6 * ENTRY_LEN + built_b * BLOCK_HDR;
        let want = farmem_fabric::AccessStats {
            round_trips: 1 + 1 + 1 + 1 + 2 + 1,
            messages: 3 + 1 + b + 8 + 2 * 3 + 2,
            bytes_read: WORD + HDR_LEN + 8 * WORD + 6 * ENTRY_LEN + b * BLOCK_HDR,
            bytes_written: built + WORD + 2 * DIR_ENTRY_LEN,
            atomics: 1 + 8 + 1,
            ..Default::default()
        };
        assert_eq!(d, want);
        assert_eq!((h.stats().splits, h.leaves()), (1, 2));
        for k in 0..6u64 {
            assert_eq!(h.get(&mut c, k * 1000).unwrap(), Some(k));
        }
    }

    /// A reclaim-mode store reads its key's whole block before it links
    /// anything — a block longer than its tag with one more read — so a
    /// fault on that read fails the store with nothing linked (the record
    /// is the caller's to free) instead of leaving a landed store that
    /// cannot say what it superseded.
    #[test]
    fn a_walk_cut_by_a_fault_fails_the_store_with_nothing_linked() {
        let (f, a) = two_nodes();
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 2,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let (_, mut h, _shared) = reclaimed(&mut c, &a, cfg);
        // Seventeen keys of one bucket: a block longer than its tag.
        let entry = h.entry_for(&mut c, 0);
        let bucket = HtTreeHandle::bucket_addr(&entry, 0);
        let publish = |c: &mut FabricClient, h: &mut HtTreeHandle, key: u64, fill: u8| {
            let rec = a.alloc(16, AllocHint::Spread).unwrap();
            (rec, h.publish(c, key, rec, &[fill; 16]))
        };
        let (below_rec, _) = publish(&mut c, &mut h, 0, 1);
        for k in (1u64..).filter(|&k| HtTreeHandle::bucket_addr(&entry, k) == bucket).take(16) {
            h.put(&mut c, k, k).unwrap();
        }
        let word = c.read_u64(bucket).unwrap();
        assert_eq!(word & TAG_MASK, TAG_MASK, "the tag covers fifteen keys of seventeen");
        // The block's node dies once access 1 has read the header.
        let victim = a.node_of(FarAddr(word & !TAG_MASK));
        f.install_check_observer(Arc::new(FailOnAccess {
            fabric: Arc::downgrade(&f),
            addr: entry.table_hdr,
            kind: farmem_fabric::AccessKind::Read,
            victim,
        }));
        let (live, words) = (a.stats().live_bytes, c.read(entry.buckets, 2 * WORD).unwrap());
        let hops = h.stats().chain_hops;
        let (rec, stored) = publish(&mut c, &mut h, 0, 3);
        f.clear_check_observer();
        f.node(victim).recover();
        // Access 1 ran whole before the node died: the read of the rest failed.
        let failed = |e: &CoreError| {
            matches!(e, CoreError::Fabric(farmem_fabric::FabricError::NodeFailed(n)) if *n == victim)
        };
        assert!(stored.as_ref().is_err_and(failed), "{stored:?}");
        a.free(rec, 16).unwrap();
        // Nothing was linked or allocated: the buckets are as they were
        // and the old record is still the key's.
        assert_eq!(c.read(entry.buckets, 2 * WORD).unwrap(), words);
        assert_eq!(a.stats().live_bytes, live);
        assert_eq!(h.get(&mut c, 0).unwrap(), Some(below_rec.0));
        // With the node back the same store reads the rest and lands.
        let (rec, old) = publish(&mut c, &mut h, 0, 4);
        assert_eq!(old.unwrap(), Some(below_rec.0));
        assert_eq!(h.stats().chain_hops - hops, 2, "the get's read of the rest, and the store's");
        assert_eq!(h.get(&mut c, 0).unwrap(), Some(rec.0));
        assert_eq!(c.read(rec, 16).unwrap(), [4; 16]);
    }

    #[test]
    fn load_checks_saturate_instead_of_overflowing() {
        // `max_load_percent: u64::MAX` is "never restructure on load".
        assert!(!overloaded(u64::MAX, 2, u64::MAX));
        assert!(!overloaded(1_000_000, 8, u64::MAX));
        assert!(sparse(1_000_000, 8, u64::MAX));
        // A bucket count whose product with the percentage leaves u64.
        let huge = u64::MAX / 64;
        assert!(!overloaded(1, huge, 75));
        assert!(!overloaded(huge / 2, huge, 75));
        assert!(sparse(1, huge, 75));
        assert!(!sparse(u64::MAX, huge, 75));
        // A count that a take's decrement wrapped reads as empty.
        assert_eq!(item_count(u64::MAX), 0);
        assert_eq!(item_count(i64::MAX as u64), i64::MAX as u64);
        // The ordinary range is untouched: 75 % of 64 buckets is 48 records.
        assert!(!overloaded(48, 64, 75));
        assert!(overloaded(49, 64, 75));
        assert!(sparse(24, 64, 75));
        assert!(!sparse(25, 64, 75));
    }

    #[test]
    fn two_clients_noticing_one_overload_restructure_once() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c1 = f.client();
        let mut c2 = f.client();
        // 75 % of 8 buckets: the seventh record overloads the table.
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c1, &a, cfg).unwrap();
        let mut h1 = t.attach(&mut c1, &a, cfg).unwrap();
        let mut h2 = t.attach(&mut c2, &a, cfg).unwrap();
        let mut pin1 = h1.pin_epoch(&mut c1, true).unwrap();
        let mut pin2 = h2.pin_epoch(&mut c2, true).unwrap();
        for k in 0..6u64 {
            assert_eq!(h1.put_record(&mut c1, k, k, None, &mut pin1).unwrap().0, None, "put {k}");
        }
        // Both clients land a record before either restructures: both are
        // told the table (start key 0, version 1) is overloaded.
        assert_eq!(h1.put_record(&mut c1, 6, 6, None, &mut pin1).unwrap().0, Some((0, 1)));
        assert_eq!(h2.put_record(&mut c2, 7, 7, None, &mut pin2).unwrap().0, Some((0, 1)));
        h1.split_if(&mut c1, 0, Some(1)).unwrap();
        assert_eq!(restructures(&h1), 1);
        // The second's version CAS loses and it leaves: one atomic, and
        // nothing written.
        let before = c2.stats();
        h2.split_if(&mut c2, 0, Some(1)).unwrap();
        assert_eq!(restructures(&h2), 0);
        let d = c2.stats().since(&before);
        assert_eq!((d.round_trips, d.atomics, d.bytes_written), (1, 1, 0));
        for k in 0..8u64 {
            assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k), "key {k}");
        }
        assert_eq!(h2.leaves(), h1.leaves());
        // The public form stays unconditional.
        h2.split(&mut c2, 0).unwrap();
        assert_eq!(restructures(&h2), 1);
    }

    #[test]
    fn remove_never_restructures() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        for k in 0..6u64 {
            h.put(&mut c, k, k).unwrap();
        }
        // The six that land unlink their key's entry, two far accesses
        // each, and none restructures; the other 34 removes find no entry
        // of their key in one and link nothing.
        let before = c.stats();
        for k in 0..40u64 {
            h.remove(&mut c, k % 6).unwrap();
        }
        assert_eq!(c.stats().since(&before).round_trips, 6 * 2 + 34);
        assert_eq!((h.stats().removes, h.len_estimate(&mut c).unwrap()), (6, 0));
        assert_eq!(restructures(&h), 0);
        // The header counts live keys: the next put sees one, and no
        // restructure is owed.
        h.put(&mut c, 0, 1).unwrap();
        assert_eq!(restructures(&h), 0);
        assert_eq!(h.get(&mut c, 0).unwrap(), Some(1));
        assert_eq!(h.get(&mut c, 1).unwrap(), None);
    }

    /// `take`'s price list, both lifetimes: what each shape of removal books —
    /// whole `AccessStats` deltas, so messages and bytes are pinned beside
    /// the round trips — and what it links.
    #[test]
    fn take_costs_two_far_accesses_and_one_when_the_key_is_absent() {
        use farmem_fabric::AccessStats;
        for reclaim_mode in [false, true] {
            let f = FabricConfig::count_only(64 << 20).build();
            let a = FarAlloc::new(f.clone());
            let mut c = f.client();
            let cfg = HtTreeConfig {
                initial_buckets: 64,
                max_load_percent: u64::MAX,
                ..HtTreeConfig::default()
            };
            let (mut h, _shared) = if reclaim_mode {
                let (_, h, shared) = reclaimed(&mut c, &a, cfg);
                (h, Some(shared))
            } else {
                (HtTree::create(&mut c, &a, cfg).unwrap().attach(&mut c, &a, cfg).unwrap(), None)
            };
            // Three keys of one bucket, two of another, one of a third.
            let entry = h.entry_for(&mut c, 0);
            let sharing = |with: u64, n: usize| -> Vec<u64> {
                let bucket = HtTreeHandle::bucket_addr(&entry, with);
                (with..).filter(|&k| HtTreeHandle::bucket_addr(&entry, k) == bucket).take(n).collect()
            };
            let [first, second, foreign] = sharing(0, 3)[..] else { unreachable!() };
            let bucket = |k| HtTreeHandle::bucket_addr(&entry, k);
            let other = (1u64..).find(|&k| bucket(k) != bucket(0)).unwrap();
            let [front, back] = sharing(other, 2)[..] else { unreachable!() };
            let empty =
                (1u64..).find(|&k| bucket(k) != bucket(0) && bucket(k) != bucket(other)).unwrap();
            for (k, v) in [(first, 10), (second, 20), (front, 30), (back, 40)] {
                h.put(&mut c, k, v).unwrap();
            }
            let mut take = |c: &mut FabricClient, key| {
                let live = a.stats().live_bytes;
                let before = c.stats();
                let got = h.take(c, key).unwrap();
                let d = c.stats().since(&before);
                if got.is_none() {
                    assert_eq!(a.stats().live_bytes, live, "key {key}: nothing allocated");
                }
                // The cached tree's traversal is local and the same every time.
                assert_eq!(d.near_accesses, 2);
                (got, AccessStats { near_accesses: 0, ..d })
            };
            // Access 1 is the tagged `load0` of a block of `n` keys and the
            // header; a landed take writes the block a key shorter (none
            // for the bucket's last key), CASes the bucket and posts the
            // count decrement. Only a reclaim-mode take retires the old
            // block.
            let books = |n: u64, landed: bool| {
                let landed = u64::from(landed);
                let written = landed * u64::from(n > 1);
                AccessStats {
                    round_trips: 1 + landed,
                    messages: 2 + (2 + written) * landed,
                    posted_messages: landed,
                    bytes_read: if n > 0 { block_len(n) } else { 0 } + HDR_LEN,
                    bytes_written: block_len(n - landed) * written,
                    atomics: 2 * landed,
                    retired_bytes: block_len(n) * landed * u64::from(reclaim_mode),
                    ..AccessStats::default()
                }
            };
            assert_eq!(take(&mut c, foreign), (None, books(2, false)), "absent from a block of two");
            assert_eq!(take(&mut c, second), (Some(20), books(2, true)), "the back of a block");
            assert_eq!(take(&mut c, second), (None, books(1, false)), "a removed key");
            assert_eq!(take(&mut c, front), (Some(30), books(2, true)), "the front of a block");
            assert_eq!(take(&mut c, empty), (None, books(0, false)), "an empty bucket");
            assert_eq!(take(&mut c, first), (Some(10), books(1, true)), "the bucket's last key");
            assert_eq!(take(&mut c, first), (None, books(0, false)), "the bucket it emptied");
            assert_eq!(h.stats().removes, 3, "landed takes only");
            assert_eq!(h.get(&mut c, back).unwrap(), Some(40));
            assert_eq!(h.len_estimate(&mut c).unwrap(), 1, "the live key");
        }
    }

    /// Parks one client at the top of its `nth` verb until the test has
    /// run another client's operation in the gap.
    struct HoldAt {
        client: u32,
        nth: u32,
        seen: std::sync::atomic::AtomicU32,
        gap: std::sync::Barrier,
    }

    impl farmem_fabric::CheckObserver for HoldAt {
        fn gate(&self, client: u32) {
            let seen = &self.seen;
            if client == self.client
                && seen.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1 == self.nth
            {
                self.gap.wait(); // parked
                self.gap.wait(); // released
            }
        }
    }

    #[test]
    fn a_take_whose_cas_loses_to_a_neighbours_put_retries_and_loses_neither() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let (mut ca, mut cb) = (f.client(), f.client());
        let cfg = HtTreeConfig {
            initial_buckets: 2,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let t = HtTree::create(&mut ca, &a, cfg).unwrap();
        let mut ha = t.attach(&mut ca, &a, cfg).unwrap();
        let mut hb = t.attach(&mut cb, &a, cfg).unwrap();
        let entry = ha.entry_for(&mut ca, 0);
        let bucket = HtTreeHandle::bucket_addr(&entry, 0);
        let neighbour = (1u64..).find(|&k| HtTreeHandle::bucket_addr(&entry, k) == bucket).unwrap();
        ha.put(&mut ca, 0, 70).unwrap();
        // The taker has read the bucket's block and is about to splice (its
        // second verb) when the neighbour's put lands.
        let hold = Arc::new(HoldAt {
            client: ca.id(),
            nth: 2,
            seen: Default::default(),
            gap: std::sync::Barrier::new(2),
        });
        f.install_check_observer(hold.clone());
        let before = ca.stats();
        let taken = std::thread::scope(|s| {
            let taker = s.spawn(|| ha.take(&mut ca, 0));
            hold.gap.wait();
            hb.put(&mut cb, neighbour, 71).unwrap();
            hold.gap.wait();
            taker.join().unwrap()
        });
        f.clear_check_observer();
        assert_eq!(taken.unwrap(), Some(70));
        assert_eq!((ha.stats().cas_retries, ha.stats().removes), (1, 1));
        // Two accesses lost, then two more.
        assert_eq!(ca.stats().since(&before).round_trips, 2 + 2);
        assert_eq!(hb.get(&mut cb, neighbour).unwrap(), Some(71), "the put survived the retry");
        assert_eq!(hb.get(&mut cb, 0).unwrap(), None, "and so did the take");
        assert_eq!(hb.take(&mut cb, neighbour).unwrap(), Some(71));
    }

    /// Two takes of one key both read the same block, and the bucket CAS
    /// hands its value to exactly one of them: the loser starts over and
    /// finds no item of the key, under either lifetime.
    /// (What lets the record layer retire what `take` returns without
    /// asking who else is removing the key.)
    #[test]
    fn racing_takes_of_one_key_hand_its_value_to_one_of_them() {
        for reclaim_mode in [false, true] {
            let f = FabricConfig::count_only(64 << 20).build();
            let a = FarAlloc::new(f.clone());
            let (mut ca, mut cb) = (f.client(), f.client());
            let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
            let t = HtTree::create(&mut ca, &a, cfg).unwrap();
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut ca, &a, 4).unwrap();
            let attach = |c: &mut FabricClient| {
                if reclaim_mode {
                    let shared = reg.attach(c, &a).unwrap();
                    t.attach_reclaimed(c, &a, cfg, shared).unwrap()
                } else {
                    t.attach(c, &a, cfg).unwrap()
                }
            };
            let (mut ha, mut hb) = (attach(&mut ca), attach(&mut cb));
            ha.put(&mut ca, 7, 70).unwrap();
            let hold = Arc::new(HoldAt {
                client: ca.id(),
                nth: 2,
                seen: Default::default(),
                gap: std::sync::Barrier::new(2),
            });
            f.install_check_observer(hold.clone());
            let (first, second) = std::thread::scope(|s| {
                let parked = s.spawn(|| ha.take(&mut ca, 7));
                hold.gap.wait();
                let second = hb.take(&mut cb, 7);
                hold.gap.wait();
                (parked.join().unwrap(), second)
            });
            f.clear_check_observer();
            assert_eq!((first.unwrap(), second.unwrap()), (None, Some(70)));
            assert_eq!((ha.stats().cas_retries, ha.stats().removes), (1, 0));
            assert_eq!(hb.len_estimate(&mut cb).unwrap(), 0, "no key left");
        }
    }

    /// On a fabric that refuses cross-node dereferences the batch's
    /// `load0` reissues the head item itself — the same answers at one
    /// access more, only where the chain head lives off the bucket's
    /// node.
    #[test]
    fn take_on_an_indirection_error_fabric_pays_one_access_for_a_remote_head() {
        let f = FabricConfig {
            nodes: 2,
            indirection: farmem_fabric::IndirectionMode::Error,
            ..FabricConfig::count_only(64 << 20)
        }
        .build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 4096,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        // Reclaim mode: item records come from the slab, spread over both nodes.
        let (_, mut h, shared) = reclaimed(&mut c, &a, cfg);
        let seals = || shared.lock().unwrap().stats().seals;
        let keys: Vec<u64> = (0..32u64).map(|k| k * 7919).collect();
        for &k in &keys {
            h.put(&mut c, k, k + 1).unwrap();
        }
        let entry = h.entry_for(&mut c, 0);
        let mut seen = [0u32; 2];
        for &k in &keys {
            for want in [Some(k + 1), None] {
                let bucket = HtTreeHandle::bucket_addr(&entry, k);
                // A take empties the bucket: nothing to dereference.
                let head = FarAddr(c.read_u64(bucket).unwrap());
                let remote = !head.is_null() && a.node_of(bucket) != a.node_of(head);
                seen[usize::from(remote)] += 1;
                // The slot catches up with the last seal ahead of the take.
                drop(farmem_reclaim::pin(&shared, &mut c).unwrap());
                let (before, sealed) = (c.stats(), seals());
                assert_eq!(h.take(&mut c, k).unwrap(), want, "key {k}");
                let landed = u64::from(want.is_some());
                // A retire that fills the limbo batch seals it: one FAA.
                let rt = c.stats().since(&before).round_trips - (seals() - sealed);
                assert_eq!(rt, 1 + u64::from(remote) + landed, "key {k}, {want:?}");
            }
            assert_eq!(h.get(&mut c, k).unwrap(), None);
        }
        assert!(seen[0] > 0 && seen[1] > 0, "local and remote heads: {seen:?}");
        assert_eq!(h.stats().chain_hops, 0, "unique buckets");
        let before = c.stats();
        assert_eq!(h.take(&mut c, 1).unwrap(), None);
        assert_eq!(c.stats().since(&before).round_trips, 1, "an empty bucket refuses nothing");
    }

    #[test]
    fn get_many_prefetches_through_one_doorbell() {
        let (f, a, t) = setup(64 << 20);
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        for k in 0..16u64 {
            h.put(&mut c, k * 7919, k * 10).unwrap();
        }
        let keys: Vec<u64> = (0..16u64).map(|k| k * 7919).collect();
        let before = c.stats();
        let got = h.get_many(&mut c, &keys).unwrap();
        let d = c.stats().since(&before);
        assert_eq!(got, (0..16u64).map(|k| Some(k * 10)).collect::<Vec<_>>());
        assert_eq!(d.round_trips, 16, "far accesses identical to 16 serial gets");
        assert_eq!(d.doorbells, 1, "all bucket heads prefetched together");
        assert_eq!(d.pipelined_ops, 16);

        // Absent keys complete too (an empty bucket is its descriptor's
        // answer; the rest of the doorbell is untouched).
        let mixed: Vec<u64> = vec![0, 1, 7919, 2, 15838];
        let got = h.get_many(&mut c, &mixed).unwrap();
        assert_eq!(got, vec![Some(0), None, Some(10), None, Some(20)]);
        assert_eq!(h.get_many(&mut c, &[]).unwrap(), Vec::<Option<u64>>::new());
    }

    /// One key's `get` and its one-key `get_many` book alike — the same
    /// value and hinted bytes, the same `AccessStats` but for the
    /// doorbell's own two counters, the same clock and the same handle
    /// counters — whatever the hint (the key's record, another record,
    /// none), whether the key is there or its bucket empty, and whatever
    /// the slot publish: no slot (a quarantine handle), none to carry, one
    /// a seal left pending (carried and landing), or one whose carrying
    /// batch failed (the pin reads the slot, then the lookup carries it
    /// again).
    #[test]
    fn a_key_costs_get_many_what_it_costs_get() {
        let key = 7;
        let run = |publish: &str, present: bool, hint: &str, many: bool| {
            let f = FabricConfig {
                retry: farmem_fabric::RetryPolicy::NONE,
                ..FabricConfig::single_node(16 << 20)
            }
            .build();
            let a = FarAlloc::new(f.clone());
            let (mut c1, mut c) = (f.client(), f.client());
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut c1, &a, 4).unwrap();
            let (s1, s2) = (reg.attach(&mut c1, &a).unwrap(), reg.attach(&mut c, &a).unwrap());
            let cfg = HtTreeConfig { initial_buckets: 64, ..HtTreeConfig::default() };
            let t = HtTree::create(&mut c1, &a, cfg).unwrap();
            let mut h1 = t.attach_reclaimed(&mut c1, &a, cfg, s1.clone()).unwrap();
            let h = &mut match publish {
                "no slot" => t.attach(&mut c, &a, cfg).unwrap(),
                _ => t.attach_reclaimed(&mut c, &a, cfg, s2).unwrap(),
            };
            let records = [0xa5u8, 0x5a].map(|b| {
                let r = a.alloc(32, AllocHint::Spread).unwrap();
                c1.write(r, &[b; 32]).unwrap();
                r
            });
            if present {
                h1.put(&mut c1, key, records[0].0).unwrap();
            }
            h.get(&mut c, key).unwrap();
            if publish == "sealed" || publish == "failed" {
                seal_junk(&s1, &mut c1, &a);
            }
            if publish == "failed" {
                f.node(farmem_fabric::NodeId(0)).fail();
                assert!(h.get(&mut c, key).is_err(), "the batch carrying the CAS fails");
                f.node(farmem_fabric::NodeId(0)).recover();
            }
            let hint = match hint {
                "the key's record" => Some((records[0], 32)),
                "another record" => Some((records[1], 32)),
                _ => None,
            };
            let c = &mut c;
            let (before, t0) = (c.stats(), c.now_ns());
            let found = if many {
                let bell = Inline::new(c);
                let (keys, hints) = ([key], [hint]);
                Inline::run(h.get_many_async_guarded(&bell, &keys, &hints)).unwrap().0.remove(0)
            } else {
                h.get_guarded(c, key, hint).unwrap().0
            };
            (found, c.stats().since(&before), c.now_ns() - t0, h.stats())
        };
        for publish in ["no slot", "none", "sealed", "failed"] {
            for present in [true, false] {
                for hint in ["the key's record", "another record", "none"] {
                    let case = format!("publish {publish}, present {present}, hint {hint}");
                    let (found, get, get_ns, get_tree) = run(publish, present, hint, false);
                    let (many_found, many, many_ns, many_tree) = run(publish, present, hint, true);
                    let used = present && hint == "the key's record";
                    assert_eq!(found.1.is_some(), used, "{case}: the hinted bytes");
                    assert_eq!(many_found, found, "{case}");
                    assert_eq!(many_ns, get_ns, "{case}: the clock");
                    assert_eq!(many_tree, get_tree, "{case}: the handle's counters");
                    for (i, field) in farmem_fabric::AccessStats::FIELD_NAMES.iter().enumerate() {
                        if !matches!(*field, "doorbells" | "pipelined_ops") {
                            let (g, m) = (get.to_array()[i], many.to_array()[i]);
                            assert_eq!(m, g, "{case}: field `{field}`");
                        }
                    }
                    let carried = u64::from(publish == "sealed" || publish == "failed");
                    let rts = 1 + u64::from(publish == "failed");
                    assert_eq!((get.round_trips, get.atomics), (rts, carried), "{case}");
                    assert_eq!((many.doorbells, many.pipelined_ops), (1, 1), "{case}");
                }
            }
        }
    }

    /// An absent key is an answer, not a transport error: wherever it
    /// sits in the batch, the other lookups stay overlapped in the one
    /// doorbell (at the parent an absent *first* key aborted the 15 behind
    /// it into serial gets — 44 µs of virtual time against 6 µs).
    #[test]
    fn an_absent_key_does_not_serialise_a_get_many() {
        let f = FabricConfig::single_node(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut h = HtTree::create(&mut c, &a, cfg).unwrap().attach(&mut c, &a, cfg).unwrap();
        let keys: Vec<u64> = (0..16u64).map(|k| k * 7919).collect();
        for &k in &keys {
            h.put(&mut c, k, k + 1).unwrap();
        }
        let absent = (1u64..).find(|&k| h.get(&mut c, k).unwrap().is_none()).unwrap();
        let mut run = |at: Option<usize>| {
            let mut keys = keys.clone();
            if let Some(i) = at {
                keys[i] = absent;
            }
            let (before, t0) = (c.stats(), c.now_ns());
            let got = h.get_many(&mut c, &keys).unwrap();
            for (i, (&k, v)) in keys.iter().zip(&got).enumerate() {
                assert_eq!(*v, (Some(i) != at).then_some(k + 1), "key {k}");
            }
            let d = c.stats().since(&before);
            assert_eq!((d.doorbells, d.messages, d.pipelined_ops), (1, 16, 16), "absent at {at:?}");
            c.now_ns() - t0
        };
        let (all_present, first, last) = (run(None), run(Some(0)), run(Some(15)));
        // The absent key's descriptor skips its item read; placed last,
        // nothing waits behind its pointer read either.
        let cost = farmem_fabric::CostModel::DEFAULT;
        let item_read = cost.node_msg_ns + cost.bytes_ns(block_len(1));
        assert_eq!(all_present - first, item_read, "all present {all_present} ns");
        assert_eq!(first - last, cost.node_msg_ns + cost.node_ext_ns);
    }

    #[test]
    fn many_keys_survive_splits() {
        let (f, a, t) = setup(256 << 20);
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 16, ..HtTreeConfig::default() };
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        let n = 2000u64;
        for k in 0..n {
            h.put(&mut c, k * 7919, k).unwrap();
        }
        assert!(h.stats().splits + h.stats().grows > 0, "restructures happened");
        assert!(h.leaves() > 1, "the tree grew leaves");
        for k in 0..n {
            assert_eq!(h.get(&mut c, k * 7919).unwrap(), Some(k), "key {k}");
        }
        // Keys that were never inserted stay absent.
        for k in 0..100 {
            assert_eq!(h.get(&mut c, k * 7919 + 1).unwrap(), None);
        }
    }

    #[test]
    fn notify_dir_mode_refreshes_before_touching_far_memory() {
        let (f, a, t) = setup(256 << 20);
        let mut c1 = f.client();
        let mut c2 = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 8,
            notify_dir: true,
            ..HtTreeConfig::default()
        };
        let mut h1 = t.attach(&mut c1, &a, cfg).unwrap();
        let mut h2 = t.attach(&mut c2, &a, cfg).unwrap();
        for k in 0..64u64 {
            h1.put(&mut c1, k, k + 1).unwrap();
        }
        h1.split(&mut c1, 0).unwrap();
        // h2 receives the directory notification and refreshes locally:
        // no stale far access is ever issued.
        for k in 0..64u64 {
            assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k + 1));
        }
        assert!(h2.stats().dir_notifications > 0, "notification consumed");
        assert_eq!(h2.stats().stale_refreshes, 0, "no stale far touches");
    }

    #[test]
    fn stale_client_recovers_through_poison() {
        let (f, a, t) = setup(256 << 20);
        let mut c1 = f.client();
        let mut c2 = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let mut h1 = t.attach(&mut c1, &a, cfg).unwrap();
        let mut h2 = t.attach(&mut c2, &a, cfg).unwrap();
        assert_eq!(c2.stats().round_trips, 3, "attach: anchor, entry count, directory blob");
        for k in 0..64u64 {
            h1.put(&mut c1, k, k + 1).unwrap();
        }
        // h2's cache is now stale; force a split through h1.
        h1.split(&mut c1, 0).unwrap();
        let (before, s0) = (c2.stats(), h2.stats());
        for k in 0..64u64 {
            assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k + 1), "key {k}");
        }
        let (d, s1) = (c2.stats().since(&before), h2.stats());
        assert_eq!(
            s1.stale_refreshes - s0.stale_refreshes,
            1,
            "the stale cache was detected via versions/poison, and refreshed whole"
        );
        // One access per lookup plus its chain hops; the stale one also
        // paid the poisoned read and the refresh's three reads.
        assert_eq!(d.round_trips, 64 + (s1.chain_hops - s0.chain_hops) + 1 + 3);
    }

    #[test]
    fn stale_writer_recovers() {
        let (f, a, t) = setup(256 << 20);
        let mut c1 = f.client();
        let mut c2 = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let mut h1 = t.attach(&mut c1, &a, cfg).unwrap();
        let mut h2 = t.attach(&mut c2, &a, cfg).unwrap();
        for k in 0..32u64 {
            h1.put(&mut c1, k, 1).unwrap();
        }
        h1.split(&mut c1, 0).unwrap();
        // h2 writes with a stale cache: must land in the new tables.
        h2.put(&mut c2, 5, 99).unwrap();
        assert_eq!(h1.get(&mut c1, 5).unwrap(), Some(99));
    }

    #[test]
    fn concurrent_writers_on_same_bucket_lose_no_updates() {
        let f = FabricConfig::single_node(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c0 = f.client();
        let cfg = HtTreeConfig { initial_buckets: 2, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c0, &a, cfg).unwrap();
        let writers = 4u64;
        let per = 100u64;
        let mut handles = Vec::new();
        for wid in 0..writers {
            let f = f.clone();
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                let mut c = f.client();
                let mut h = t.attach(&mut c, &a, cfg).unwrap();
                for i in 0..per {
                    h.put(&mut c, wid * 1000 + i, wid * 1000 + i + 7).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut c = f.client();
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        for wid in 0..writers {
            for i in 0..per {
                let k = wid * 1000 + i;
                assert_eq!(h.get(&mut c, k).unwrap(), Some(k + 7), "key {k}");
            }
        }
    }

    /// A lookup in a block longer than its tag is one read more, counted
    /// as a chain hop; one in a block the tag covers counts none.
    #[test]
    fn chain_hops_are_counted() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        // Two buckets: about twenty keys each.
        let cfg = HtTreeConfig {
            initial_buckets: 2,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut h = HtTree::create(&mut c, &a, cfg).unwrap().attach(&mut c, &a, cfg).unwrap();
        for k in 0..40u64 {
            h.put(&mut c, k, k).unwrap();
        }
        let entry = h.entry_for(&mut c, 0);
        let bucket = |k| HtTreeHandle::bucket_addr(&entry, k);
        let long = |&k: &u64| (0..40u64).filter(|&j| bucket(j) == bucket(k)).count() > 15;
        let hops = h.stats().chain_hops;
        for k in 0..40u64 {
            assert_eq!(h.get(&mut c, k).unwrap(), Some(k));
        }
        let want = (0..40u64).filter(long).count() as u64;
        assert!(want > 0, "a block past its tag");
        assert_eq!(h.stats().chain_hops - hops, want, "one read past the tag per such get");
    }

    /// Forty keys in one bucket: every get, put and take stays correct, an
    /// op on a block of more than fifteen keys pays exactly one read more
    /// than the tag's, and one on a block of fifteen or fewer pays none,
    /// at any position in the block.
    #[test]
    fn a_forty_key_bucket_pays_one_read_past_its_tag_and_none_below() {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 2,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut h = HtTree::create(&mut c, &a, cfg).unwrap().attach(&mut c, &a, cfg).unwrap();
        let entry = h.entry_for(&mut c, 0);
        let bucket = HtTreeHandle::bucket_addr(&entry, 0);
        let keys: Vec<u64> =
            (0u64..).filter(|&k| HtTreeHandle::bucket_addr(&entry, k) == bucket).take(40).collect();
        // Round trips and chain hops of one op on a block of `n` keys.
        let costs = |n: usize, base: u64| (base + u64::from(n > 15), u64::from(n > 15));
        let measure = |c: &mut FabricClient, h: &mut HtTreeHandle, op: &mut dyn FnMut(&mut FabricClient, &mut HtTreeHandle)| {
            let (before, hops) = (c.stats(), h.stats().chain_hops);
            op(c, h);
            (c.stats().since(&before).round_trips, h.stats().chain_hops - hops)
        };
        for (n, &k) in keys.iter().enumerate() {
            let mut put = |c: &mut FabricClient, h: &mut HtTreeHandle| h.put(c, k, k + 1).unwrap();
            assert_eq!(measure(&mut c, &mut h, &mut put), costs(n, 2), "put {n}");
        }
        assert_eq!(c.read_u64(bucket).unwrap() & TAG_MASK, TAG_MASK);
        for &k in &keys {
            let mut get = |c: &mut FabricClient, h: &mut HtTreeHandle| {
                assert_eq!(h.get(c, k).unwrap(), Some(k + 1));
            };
            assert_eq!(measure(&mut c, &mut h, &mut get), costs(40, 1), "get {k}");
        }
        // An overwrite of the last key, then takes from the back down to
        // fifteen keys.
        let last = keys[39];
        let mut overwrite = |c: &mut FabricClient, h: &mut HtTreeHandle| h.put(c, last, 7).unwrap();
        assert_eq!(measure(&mut c, &mut h, &mut overwrite), costs(40, 2));
        for n in (16..=40).rev() {
            let (k, want) = (keys[n - 1], if n == 40 { 7 } else { keys[n - 1] + 1 });
            let mut take = |c: &mut FabricClient, h: &mut HtTreeHandle| {
                assert_eq!(h.take(c, k).unwrap(), Some(want));
            };
            assert_eq!(measure(&mut c, &mut h, &mut take), costs(n, 2), "take at {n}");
        }
        // Fifteen keys: the tag covers the block, wherever the key sits.
        for (i, &k) in keys.iter().enumerate() {
            let want = (i < 15).then_some(k + 1);
            let mut get = |c: &mut FabricClient, h: &mut HtTreeHandle| {
                assert_eq!(h.get(c, k).unwrap(), want, "key {k}");
            };
            assert_eq!(measure(&mut c, &mut h, &mut get), (1, 0), "get {i}");
        }
        let mut take = |c: &mut FabricClient, h: &mut HtTreeHandle| {
            assert_eq!(h.take(c, keys[7]).unwrap(), Some(keys[7] + 1));
        };
        assert_eq!(measure(&mut c, &mut h, &mut take), (2, 0));
        let mut put = |c: &mut FabricClient, h: &mut HtTreeHandle| h.put(c, keys[0], 9).unwrap();
        assert_eq!(measure(&mut c, &mut h, &mut put), (2, 0));
        assert_eq!(h.get(&mut c, keys[0]).unwrap(), Some(9));
        assert_eq!(h.len_estimate(&mut c).unwrap(), 14);
    }

    #[test]
    fn len_estimate_tracks_inserts_and_removes() {
        let (f, a, t) = setup(64 << 20);
        let mut c = f.client();
        let mut h = t.attach(&mut c, &a, HtTreeConfig::default()).unwrap();
        for k in 0..100u64 {
            h.put(&mut c, k, k).unwrap();
        }
        assert_eq!(h.len_estimate(&mut c).unwrap(), 100);
        // A remove unlinks its key's item and counts it out; an overwrite
        // replaces one and counts nothing.
        h.remove(&mut c, 5).unwrap();
        h.put(&mut c, 6, 60).unwrap();
        assert_eq!(h.len_estimate(&mut c).unwrap(), 99);
    }

    #[test]
    fn scan_returns_sorted_ranges_across_leaves() {
        let (f, a, t) = setup(256 << 20);
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        for k in (0..1000u64).step_by(3) {
            h.put(&mut c, k, k * 2).unwrap();
        }
        assert!(h.leaves() > 1, "scan spans multiple leaves");
        h.remove(&mut c, 300).unwrap();
        let got = h.scan(&mut c, 100, 400).unwrap();
        let want: Vec<(u64, u64)> = (100..=400u64)
            .filter(|k| k % 3 == 0 && *k != 300)
            .map(|k| (k, k * 2))
            .collect();
        assert_eq!(got, want);
        assert_eq!(h.scan(&mut c, 500, 400).unwrap(), Vec::new());
        // Full-range scan matches the whole content.
        let all = h.scan(&mut c, 0, u64::MAX).unwrap();
        assert_eq!(all.len(), 1000 / 3 + 1 - 1);
    }

    #[test]
    fn reclaimed_split_returns_the_old_table_to_the_allocator() {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut h = t.attach_reclaimed(&mut c, &a, cfg, shared.clone()).unwrap();
        for k in 0..64u64 {
            h.put(&mut c, k, k + 1).unwrap();
        }
        let live_before = a.stats().live_bytes;
        h.split(&mut c, 0).unwrap();
        {
            let mut r = shared.lock().unwrap();
            assert!(r.stats().limbo_bytes() > 0, "split retired the old table");
            // Sole client: one grace round frees everything.
            r.reclaim(&mut c).unwrap();
            assert_eq!(r.stats().limbo_bytes(), 0);
        }
        assert!(
            a.stats().live_bytes < live_before,
            "retired table returned to the allocator"
        );
        // Contents survive the restructure and the frees.
        for k in 0..64u64 {
            assert_eq!(h.get(&mut c, k).unwrap(), Some(k + 1), "key {k}");
        }
    }

    #[test]
    fn reclaimed_churn_keeps_footprint_bounded() {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig { initial_buckets: 16, ..HtTreeConfig::default() };
        let t = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut h = t.attach_reclaimed(&mut c, &a, cfg, shared.clone()).unwrap();
        // Sustained overwrite churn on a fixed key set: the live data
        // size is constant, so live + limbo must stay bounded.
        let keys = 256u64;
        let mut peak = 0u64;
        for round in 0..30u64 {
            for k in 0..keys {
                h.put(&mut c, k, round * 1000 + k).unwrap();
            }
            let freed_round = {
                let mut r = shared.lock().unwrap();
                r.reclaim(&mut c).unwrap()
            };
            let _ = freed_round;
            let footprint =
                a.stats().live_bytes + shared.lock().unwrap().stats().limbo_bytes();
            peak = peak.max(footprint);
        }
        let reclaimed = shared.lock().unwrap().stats().reclaimed_bytes;
        assert!(reclaimed > 0, "grace periods elapsed and bytes came back");
        for k in 0..keys {
            assert_eq!(h.get(&mut c, k).unwrap(), Some(29 * 1000 + k), "key {k}");
        }
    }

    #[test]
    fn stale_reclaimed_reader_refreshes_at_its_next_pin() {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c1 = f.client();
        let mut c2 = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c1, &a, 4).unwrap();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        // No auto-splits: the explicit split below must be the only
        // restructure, so the epoch arithmetic in the asserts is exact.
        let cfg = HtTreeConfig {
            initial_buckets: 8,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let t = HtTree::create(&mut c1, &a, cfg).unwrap();
        let mut h1 = t.attach_reclaimed(&mut c1, &a, cfg, s1.clone()).unwrap();
        let mut h2 = t.attach_reclaimed(&mut c2, &a, cfg, s2).unwrap();
        for k in 0..64u64 {
            h1.put(&mut c1, k, k + 1).unwrap();
        }
        // The blocks the puts replaced: sealed now, and freed once h2 has
        // pinned past them.
        s1.lock().unwrap().seal(&mut c1).unwrap();
        // h2 reads once (pins, caches the pre-split tree).
        assert_eq!(h2.get(&mut c2, 3).unwrap(), Some(4));
        assert!(s1.lock().unwrap().reclaim(&mut c1).unwrap() > 0, "the replaced blocks");
        // h1 splits (retires + seals) and reclaims. h2's slot still lags
        // at the pre-seal epoch, so nothing can be freed yet.
        h1.split(&mut c1, 0).unwrap();
        {
            let mut r = s1.lock().unwrap();
            assert_eq!(r.reclaim(&mut c1).unwrap(), 0, "h2's epoch blocks the free");
        }
        // h2's next operation pins, observes the new generation, and
        // refreshes its cached tree — after which the grace period can
        // elapse and the retired table is freed.
        assert_eq!(h2.get(&mut c2, 3).unwrap(), Some(4));
        {
            let mut r = s1.lock().unwrap();
            assert!(r.reclaim(&mut c1).unwrap() > 0, "grace period elapsed");
        }
        for k in 0..64u64 {
            assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k + 1), "key {k}");
        }
    }

    /// Two reclaim-mode handles of one tree on clients `c1` and `c2`,
    /// each with its own slot, keys `0..16` stored as `k + 100`.
    fn two_reclaimed_clients(
        f: &Arc<farmem_fabric::Fabric>,
    ) -> (FabricClient, FabricClient, [SharedReclaim; 2], [HtTreeHandle; 2], Arc<FarAlloc>) {
        let a = FarAlloc::new(f.clone());
        let (mut c1, mut c2) = (f.client(), f.client());
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c1, &a, 4).unwrap();
        let s1 = reg.attach(&mut c1, &a).unwrap();
        let s2 = reg.attach(&mut c2, &a).unwrap();
        let cfg = HtTreeConfig {
            initial_buckets: 8,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let t = HtTree::create(&mut c1, &a, cfg).unwrap();
        let mut h1 = t.attach_reclaimed(&mut c1, &a, cfg, s1.clone()).unwrap();
        let h2 = t.attach_reclaimed(&mut c2, &a, cfg, s2.clone()).unwrap();
        for k in 0..16u64 {
            h1.put(&mut c1, k, k + 100).unwrap();
        }
        (c1, c2, [s1, s2], [h1, h2], a)
    }

    /// Retires and seals one junk block through `s`: every other client
    /// has an epoch to publish.
    fn seal_junk(s: &SharedReclaim, c: &mut FabricClient, a: &FarAlloc) {
        let junk = a.alloc(64, AllocHint::Spread).unwrap();
        let mut r = s.lock().unwrap();
        r.retire(c, junk, 64).unwrap();
        r.seal(c).unwrap();
    }

    /// The words of the registry slots that hold a client.
    fn live_slots(c: &mut FabricClient, s: &SharedReclaim) -> usize {
        let reg = s.lock().unwrap().registry();
        words(&c.read(reg.base(), reg.far_len()).unwrap())[2..].iter().filter(|&&w| w != 0).count()
    }

    /// An evictor takes a lagging client's slot after the client's last
    /// publish: the client's next operation pins, its first batch carries
    /// the slot CAS, and the CAS loses. The handle re-registers once, the
    /// tree refreshes, and the operation starts over from access 1, which
    /// wrote nothing — get, get_many (plain and hinted), put and take each
    /// answer as for a client that was never evicted. The get's price, whole: its first
    /// batch, the registration scan (a read and a CAS), the refresh
    /// (anchor, entry count, entries) and the lookup again.
    #[test]
    fn an_evicted_slot_restarts_each_operation_from_its_first_access() {
        let f = FabricConfig::count_only(64 << 20).build();
        let (mut c1, mut c2, [s1, s2], [mut h1, mut h2], a) = two_reclaimed_clients(&f);
        // c2 lags past c1's seal; c1 out-waits its lease and evicts it.
        let evict = |c1: &mut FabricClient| {
            seal_junk(&s1, c1, &a);
            let mut r = s1.lock().unwrap();
            let evictions = r.stats().evictions;
            while r.stats().evictions == evictions {
                r.reclaim(c1).unwrap();
            }
        };
        let refreshes = h2.stats().generation_refreshes;
        evict(&mut c1);
        let before = c2.stats();
        assert_eq!(h2.get(&mut c2, 3).unwrap(), Some(103));
        assert_eq!(c2.stats().since(&before).round_trips, 1 + 2 + 3 + 1, "the get, whole");
        evict(&mut c1);
        assert_eq!(h2.get_many(&mut c2, &[1, 2, 99]).unwrap(), [Some(101), Some(102), None]);
        // A hinted batch rings twice, and counts each hinted key once.
        evict(&mut c1);
        let (record, hinted) = (a.alloc(32, AllocHint::Spread).unwrap(), h2.stats().hinted_gets);
        let bell = Inline::new(&mut c2);
        let (keys, hints) = ([1, 2, 99], [Some((record, 32)), None, Some((record, 32))]);
        let found = Inline::run(h2.get_many_async_guarded(&bell, &keys, &hints)).unwrap().0;
        assert_eq!(found.iter().map(|f| f.0).collect::<Vec<_>>(), [Some(101), Some(102), None]);
        assert_eq!(h2.stats().hinted_gets - hinted, 2, "one count per hinted key");
        evict(&mut c1);
        h2.put(&mut c2, 4, 7).unwrap();
        assert_eq!(h1.get(&mut c1, 4).unwrap(), Some(7));
        evict(&mut c1);
        assert_eq!(h2.take(&mut c2, 5).unwrap(), Some(105));
        assert_eq!(h1.get(&mut c1, 5).unwrap(), None);
        let st = s2.lock().unwrap().stats();
        assert_eq!((st.evicted, st.publishes, st.carried), (5, 5, 5), "one registration per loss");
        assert_eq!(h2.stats().generation_refreshes - refreshes, 5);
        assert_eq!(live_slots(&mut c1, &s1), 2, "one slot per client");
    }

    /// A first batch that fails leaves its publish's outcome unknown. The
    /// next operation's pin reads the slot once, finds the CAS never ran,
    /// and that operation's batch carries the publish again; no second
    /// slot is claimed.
    #[test]
    fn a_failed_first_batch_costs_the_next_pin_one_slot_read() {
        let f = FabricConfig {
            retry: farmem_fabric::RetryPolicy::NONE,
            ..FabricConfig::count_only(64 << 20)
        }
        .build();
        let (mut c1, mut c2, [s1, s2], [_, mut h2], a) = two_reclaimed_clients(&f);
        seal_junk(&s1, &mut c1, &a);
        f.node(farmem_fabric::NodeId(0)).fail();
        assert!(h2.get(&mut c2, 3).is_err(), "the batch carrying the CAS fails");
        f.node(farmem_fabric::NodeId(0)).recover();
        let before = c2.stats();
        assert_eq!(h2.get(&mut c2, 3).unwrap(), Some(103));
        let d = c2.stats().since(&before);
        assert_eq!((d.round_trips, d.atomics), (2, 1), "the slot read, then the carrying get");
        let before = c2.stats();
        assert_eq!(h2.get(&mut c2, 3).unwrap(), Some(103));
        assert_eq!(c2.stats().since(&before).round_trips, 1, "read once");
        let st = s2.lock().unwrap().stats();
        assert_eq!((st.evicted, st.publishes, st.carried), (0, 2, 2));
        assert_eq!(live_slots(&mut c1, &s1), 2, "no second slot");
    }

    /// The chain property, apart: the property prelude's names stay out of
    /// the other tests.
    mod chain_props {
        use super::*;
        use proptest::prelude::*;

        /// A mutation, for the chain property below.
        #[derive(Clone, Debug)]
        enum Mutation {
            /// `(client, key, value)`.
            Put(usize, u64, u64),
            /// `(client, key)`: a 16-byte record stored under the key.
            Publish(usize, u64),
            /// `(client, key)`.
            Take(usize, u64),
            /// `(client, key)`: restructure the table covering the key.
            Split(usize, u64),
            /// `(client)`: a grace round, so freed items come back as new ones
            /// (nothing to free under quarantine).
            Reclaim(usize),
        }

        /// One table: its header's item count and each block's entries.
        type Table = (u64, Vec<Vec<(u64, u64)>>);

        /// Every bucket of every table `h` caches, after a refresh.
        fn chains(h: &mut HtTreeHandle, c: &mut FabricClient) -> Vec<Table> {
            h.refresh_directory(c).unwrap();
            h.entries
                .clone()
                .into_iter()
                .map(|e| {
                    let count = c.read_u64(e.table_hdr.offset(H_ITEMS)).unwrap();
                    let heads = words(&c.read(e.buckets, e.n_buckets * WORD).unwrap());
                    let blocks = read_blocks(c, &heads).unwrap().into_iter().flatten();
                    let entries = blocks
                        .map(|block| {
                            assert_eq!(block.version, e.version, "a block of another table");
                            block.entries
                        })
                        .collect();
                    (count, entries)
                })
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

            /// Two handles of one lifetime put, publish and take across
            /// splits, grows and grace rounds: under either lifetime every
            /// chain holds at most one item per key, every value is the
            /// model's, and once the posted counter updates have landed each
            /// table's header counts exactly its live keys.
            #[test]
            fn chains_hold_one_item_per_key_and_count_live_keys(
                ops in prop::collection::vec(
                    prop_oneof![
                        (0..2usize, 0..40u64, 1..1000u64).prop_map(|(c, k, v)| Mutation::Put(c, k, v)),
                        (0..2usize, 0..40u64).prop_map(|(c, k)| Mutation::Publish(c, k)),
                        (0..2usize, 0..40u64).prop_map(|(c, k)| Mutation::Take(c, k)),
                        (0..2usize, 0..40u64).prop_map(|(c, k)| Mutation::Take(c, k)),
                        (0..2usize, 0..40u64).prop_map(|(c, k)| Mutation::Split(c, k)),
                        (0..2usize).prop_map(Mutation::Reclaim),
                    ],
                    1..160,
                ),
                reclaim in any::<bool>(),
            ) {
                let f = FabricConfig::count_only(64 << 20).build();
                let a = FarAlloc::new(f.clone());
                let mut c = [f.client(), f.client()];
                let reg = farmem_reclaim::ReclaimRegistry::create(&mut c[0], &a, 4).unwrap();
                // Four buckets at 100 %: the fifth live key of a table splits it.
                let cfg = HtTreeConfig {
                    initial_buckets: 4,
                    max_load_percent: 100,
                    ..HtTreeConfig::default()
                };
                let t = HtTree::create(&mut c[0], &a, cfg).unwrap();
                let shared: Vec<SharedReclaim> =
                    c.iter_mut().map(|c| reg.attach(c, &a).unwrap()).collect();
                let mut h: Vec<HtTreeHandle> = c
                    .iter_mut()
                    .zip(&shared)
                    .map(|(c, s)| {
                        if reclaim {
                            t.attach_reclaimed(c, &a, cfg, s.clone()).unwrap()
                        } else {
                            t.attach(c, &a, cfg).unwrap()
                        }
                    })
                    .collect();
                let mut model = std::collections::HashMap::new();
                for op in ops {
                    match op {
                        Mutation::Put(i, k, v) => {
                            h[i].put(&mut c[i], k, v).unwrap();
                            model.insert(k, v);
                        }
                        Mutation::Publish(i, k) => {
                            let rec = a.alloc(16, AllocHint::Spread).unwrap();
                            let old = h[i].publish(&mut c[i], k, rec, &[k as u8; 16]).unwrap();
                            prop_assert_eq!(old, model.insert(k, rec.0));
                        }
                        Mutation::Take(i, k) => {
                            prop_assert_eq!(h[i].take(&mut c[i], k).unwrap(), model.remove(&k));
                        }
                        Mutation::Split(i, k) => h[i].split(&mut c[i], k).unwrap(),
                        Mutation::Reclaim(i) => {
                            let mut r = shared[i].lock().unwrap();
                            r.seal(&mut c[i]).unwrap();
                            r.reclaim(&mut c[i]).unwrap();
                        }
                    }
                }
                let mut found = std::collections::HashMap::new();
                for (count, buckets) in chains(&mut h[0], &mut c[0]) {
                    let mut keys = 0u64;
                    for block in buckets {
                        let mut seen = std::collections::HashSet::new();
                        for (key, value) in block {
                            prop_assert!(seen.insert(key), "two entries of key {}", key);
                            found.insert(key, value);
                            keys += 1;
                        }
                    }
                    prop_assert_eq!(count, keys, "the header counts live keys");
                }
                prop_assert_eq!(found, model);
            }
        }
    }

    #[test]
    fn cache_stays_tree_sized() {
        let (f, a, t) = setup(256 << 20);
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 32, ..HtTreeConfig::default() };
        let mut h = t.attach(&mut c, &a, cfg).unwrap();
        for k in 0..4000u64 {
            h.put(&mut c, k.wrapping_mul(0x9e3779b97f4a7c15), k).unwrap();
        }
        // The client cache holds directory entries only — far smaller than
        // the data (4000 items × 32 B records + buckets).
        assert!(h.cache_bytes() < 4000 * 32 / 4, "cache is tree-sized");
    }
}
