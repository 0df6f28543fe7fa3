//! Variable-length values over the HT-tree: immutable far records behind
//! pointers. The one record layer: [`FarBlobMap`] is the byte-string map,
//! and `farmem-serve`'s record store is `FarBlobMap<1>` plus a TTL rule.
//!
//! The core map stores `u64 → u64`; for "very large keys or values" the
//! paper points at pointer indirection with placement control (§7.1). A
//! value here is a pointer to a record that is never modified once
//! linked:
//!
//! ```text
//! record := { len: u64 | H header words | len payload bytes }
//! ```
//!
//! `H` is a compile-time parameter: the blob map has none, serve keeps an
//! expiry instant in one. The header words ride in front of the payload
//! so that a lookup can judge them ([`FarBlobMap::get_if`]) from the
//! prefetch alone, without reading a payload it will not return.
//!
//! Costs: a store is the map's two far accesses — the record's bytes
//! ride the put's own fenced batch ([`HtTreeHandle::publish`]), which also
//! returns the record the store superseded; a lookup is the map's one far
//! access
//! plus one record read — the record read prefetches
//! [`FarBlobMap::PREFETCH`] bytes, so payloads up to
//! [`FarBlobMap::PREFETCHED`] bytes need no second read.
//!
//! A caller that remembers the [`RecordHint`] its store or an earlier
//! lookup handed back gets the lookup down to the map's **one far
//! access**, whatever the payload's size: the whole record is read
//! speculatively at the hinted address in the tree lookup's own fenced
//! batch, and used only if the tree then names that address
//! ([`FarBlobMap::get_if`]; [`FarBlobMap::get_many_async`] posts each such
//! batch as one descriptor of its lookup doorbell). A stale hint wastes
//! that one message and its bytes and the lookup proceeds as if unhinted
//! — it never costs a round trip. Callers that share hints across
//! handles keep them in one lock-free [`HintTable`].
//!
//! A remove is the tree's [`take`](HtTreeHandle::take), whose splice
//! hands back the record it unlinks — two far accesses, one when the key
//! is absent. Where that record goes is the map's lifetime
//! (the tree's module docs): a plain map strands it with its record
//! arena. With [`FarBlobMap::attach_reclaimed`] the map participates in
//! epoch-based reclamation: records are slab-allocated, lookups hold the
//! tree lookup's epoch guard to the last record byte, and overwrites and
//! removes retire the superseded record into the limbo list. An overwrite
//! pays nothing for that — the superseded pointer comes back from the
//! store and its length from the allocator's books. Each unlinked record
//! comes back from exactly one
//! mutation, the store or remove whose bucket CAS unlinked its entry: two
//! removes racing on one key can both read the same block, but the one
//! that loses the bucket CAS starts over and finds no entry of the key —
//! so keys need not be single-writer for a record to be retired once.

use farmem_alloc::FarAlloc;
use farmem_fabric::{splitmix64, DescList, FabricClient, FarAddr, WORD};
use farmem_reclaim::SharedReclaim;
use farmem_runtime::{Doorbell, Inline};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use crate::error::{CoreError, Result};
use crate::httree::{HtTree, HtTreeConfig, HtTreeHandle};
use crate::records::Records;
use crate::word_at;

/// Bytes fetched with the first record read.
const PREFETCH: u64 = 256;

/// Where a record sits and how long its payload is: what a later
/// [`FarBlobMap::get_if`] of the same key needs to fetch the record in the
/// lookup's own far access. Opaque and minted only by this record layer —
/// by [`FarBlobMap::put`], and by a lookup from the record the tree named
/// — so a hint can be *stale* (the key was since overwritten or removed,
/// the block freed and reused) but never names memory that was not a
/// record. Twelve bytes, so a per-key table pays 8 + 4 for it; a
/// [`HintTable`] packs one into a word with its key's tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct RecordHint {
    record: u64,
    payload_len: u32,
}

/// Sets of a [`HintTable::new`] table, as a power of two: 2^15 sets of
/// [`WAYS`] words, 2 MiB.
const HINT_SET_BITS: u32 = 15;
/// Words of a [`HintTable`] set: one 64-B cache line.
const WAYS: usize = 8;
/// A hint word's fields, high to low: key tag, record address in
/// [`RECORD_UNIT`]s, payload length.
const TAG_BITS: u32 = 16;
const UNIT_BITS: u32 = 64 - TAG_BITS - LEN_BITS;
const LEN_BITS: u32 = 17;
/// Records are at least 16 B (a length word and a header word or
/// payload), so their slab blocks are 16-B aligned; a record that is not
/// does not pack.
const RECORD_UNIT: u64 = 16;

/// Record hints shared by every handle of a deployment: eight-way set
/// associative, one word per way and no lock. A key's SplitMix64 mix
/// picks its set by its top bits, tags its word with its low 16 bits,
/// and names a *victim* way with the three bits above the tag. Set, tag
/// and victim come from disjoint bits, so the table keeps no replacement
/// state. A set is one 64-B line, so a get reads one cache line.
///
/// A word is one hint, whole — `[tag | record / 16 | payload_len]` — so a
/// racing read returns another key's hint, a stale one or nothing, but
/// never a record address paired with another record's length (which
/// could speculate past a block). None of that is a wrong answer: the
/// tree validates every hint on use. Hence `Relaxed` everywhere: nothing
/// relies on happens-before, the tree's pointer compare decides.
///
/// A key writes one way of its set: the way that holds its tag, else the
/// first empty way, else its victim way. Writes follow three rules. A
/// put [stores](Self::put) its record's hint there (only if the word
/// changes). A remove [clears](Self::clear) only ways that hold this
/// key's tag. A get [learns](Self::learn) what it found with a CAS on
/// the way it read, from the word it read there before its lookup, so a
/// get that finishes late cannot overwrite a newer put's hint.
pub struct HintTable {
    sets: Box<[HintSet]>,
    /// `64 - set bits`: the set index is the mix shifted right by it.
    shift: u32,
}

/// One cache line of hint words.
#[repr(align(64))]
struct HintSet([AtomicU64; WAYS]);

/// The way of its key's set a get read and the word it found there
/// ([`HintTable::get`]): what its [`learn`](HintTable::learn) compares
/// against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HintWord {
    way: usize,
    word: u64,
}

impl Default for HintTable {
    fn default() -> HintTable {
        HintTable::new()
    }
}

impl HintTable {
    /// A table of 2^15 sets of eight words (2 MiB): what a deployment
    /// shares.
    pub fn new() -> HintTable {
        HintTable::with_set_bits(HINT_SET_BITS)
    }

    /// A table of `2^bits` sets of eight words; `0` is one set every key
    /// falls in (what the protocol checker runs).
    ///
    /// # Panics
    ///
    /// Panics if the set bits would overlap the tag's or the victim's.
    pub fn with_set_bits(bits: u32) -> HintTable {
        assert!(bits <= 64 - TAG_BITS - WAYS.ilog2(), "set bits overlap the tag or victim bits");
        let set = || HintSet(std::array::from_fn(|_| AtomicU64::new(0)));
        HintTable { sets: (0..1u64 << bits).map(|_| set()).collect(), shift: 64 - bits }
    }

    /// The set `key` falls in: the top bits of its mix.
    pub fn set_of(&self, key: u64) -> usize {
        self.index(splitmix64(key))
    }

    /// The tag `key`'s words carry: the low 16 bits of its mix. Two keys
    /// of one set and one tag read each other's hints.
    pub fn tag_of(key: u64) -> u64 {
        Self::tag(splitmix64(key))
    }

    // The helpers below take the key's mix, computed once per call.

    fn index(&self, mix: u64) -> usize {
        mix.checked_shr(self.shift).unwrap_or(0) as usize
    }

    fn tag(mix: u64) -> u64 {
        mix & ((1 << TAG_BITS) - 1)
    }

    /// The way a key takes when its set holds no word of its tag and no
    /// empty word: the three bits of its mix above the tag.
    fn victim(mix: u64) -> usize {
        (mix >> TAG_BITS) as usize % WAYS
    }

    /// The key's set and its words as read now.
    fn read(&self, mix: u64) -> (&[AtomicU64; WAYS], [u64; WAYS]) {
        let set = &self.sets[self.index(mix)].0;
        (set, set.each_ref().map(|w| w.load(Relaxed)))
    }

    /// The way the key writes in a set that holds `words`: the one with
    /// its tag, else the first empty one, else its victim.
    fn way(mix: u64, words: &[u64; WAYS]) -> usize {
        // One bit per way, so that the scan is branch-free.
        let (mut own, mut empty) = (0u32, 0u32);
        for (i, &w) in words.iter().enumerate() {
            own |= u32::from(w != 0 && w >> (64 - TAG_BITS) == Self::tag(mix)) << i;
            empty |= u32::from(w == 0) << i;
        }
        match (own, empty) {
            (0, 0) => Self::victim(mix),
            (0, _) => empty.trailing_zeros() as usize,
            _ => own.trailing_zeros() as usize,
        }
    }

    /// The word `hint` is under the key, if its fields fit.
    fn pack(mix: u64, hint: RecordHint) -> Option<u64> {
        let unit = hint.record / RECORD_UNIT;
        let fits = hint.record.is_multiple_of(RECORD_UNIT)
            && unit < 1 << UNIT_BITS
            && u64::from(hint.payload_len) < 1 << LEN_BITS;
        fits.then(|| {
            Self::tag(mix) << (64 - TAG_BITS) | unit << LEN_BITS | u64::from(hint.payload_len)
        })
    }

    /// The hint `word` holds for the key: none when empty or another
    /// key's tag. (A packed word is never 0: no record sits at address 0.)
    fn unpack(mix: u64, word: u64) -> Option<RecordHint> {
        (word != 0 && word >> (64 - TAG_BITS) == Self::tag(mix)).then(|| RecordHint {
            record: (word >> LEN_BITS & ((1 << UNIT_BITS) - 1)) * RECORD_UNIT,
            payload_len: (word & ((1 << LEN_BITS) - 1)) as u32,
        })
    }

    /// `key`'s hint, if its set holds one, and the way read with its word.
    pub fn get(&self, key: u64) -> (Option<RecordHint>, HintWord) {
        let mix = splitmix64(key);
        let (_, words) = self.read(mix);
        let way = Self::way(mix, &words);
        (Self::unpack(mix, words[way]), HintWord { way, word: words[way] })
    }

    /// A put's hint: stored into the key's way over whatever it holds (a
    /// fresh store of the same word writes nothing). A hint that does not
    /// pack clears the key's older one instead.
    pub fn put(&self, key: u64, hint: RecordHint) {
        let mix = splitmix64(key);
        let Some(word) = Self::pack(mix, hint) else {
            return self.clear(key);
        };
        let (set, words) = self.read(mix);
        let way = Self::way(mix, &words);
        if words[way] != word {
            set[way].store(word, Relaxed);
        }
    }

    /// A remove's clear: empties the ways that hold `key`'s tag, so a
    /// remove never erases another key's hint.
    pub fn clear(&self, key: u64) {
        let mix = splitmix64(key);
        let (set, words) = self.read(mix);
        for (way, word) in set.iter().zip(words) {
            if Self::unpack(mix, word).is_some() {
                let _ = way.compare_exchange(word, 0, Relaxed, Relaxed);
            }
        }
    }

    /// What a get of `key` that read `seen` before its lookup learned:
    /// `found` is the hint the lookup handed back (`None`: no record).
    /// One CAS on the way read, from the word read, and only if the word
    /// changes — a fresh hit writes nothing, and a get that finished after
    /// a newer put (or another get's learn) loses its CAS. A miss empties
    /// the way only if `seen` was this key's.
    pub fn learn(&self, key: u64, seen: HintWord, found: Option<RecordHint>) {
        let mix = splitmix64(key);
        let word = match found.and_then(|hint| Self::pack(mix, hint)) {
            Some(word) => word,
            None if Self::unpack(mix, seen.word).is_some() => 0,
            None => return,
        };
        if word != seen.word {
            let way = &self.sets[self.index(mix)].0[seen.way];
            let _ = way.compare_exchange(seen.word, word, Relaxed, Relaxed);
        }
    }
}

/// A far-memory map from `u64` keys to byte strings, each behind `H`
/// caller-defined header words (none by default).
///
/// # Examples
///
/// ```
/// use farmem_fabric::FabricConfig;
/// use farmem_alloc::FarAlloc;
/// use farmem_core::{FarBlobMap, HtTreeConfig};
///
/// let fabric = FabricConfig::single_node(16 << 20).build();
/// let alloc = FarAlloc::new(fabric.clone());
/// let mut c = fabric.client();
/// let mut m = FarBlobMap::create(&mut c, &alloc, HtTreeConfig::default()).unwrap();
/// m.put_bytes(&mut c, 1, b"hello far memory").unwrap();
/// assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"hello far memory");
/// ```
pub struct FarBlobMap<const H: usize = 0> {
    inner: HtTreeHandle,
    records: Records,
}

impl<const H: usize> FarBlobMap<H> {
    /// Bytes fetched with the first record read.
    pub const PREFETCH: u64 = PREFETCH;

    /// Bytes ahead of a record's payload: the length word and `H` header
    /// words.
    pub const HEADER: u64 = (1 + H as u64) * WORD;

    /// Payload bytes the first record read covers; a longer payload takes
    /// one more read.
    pub const PREFETCHED: u64 = PREFETCH - Self::HEADER;

    /// Creates a new blob map (an HT-tree plus a record arena).
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
    ) -> Result<Self> {
        let tree = HtTree::create(client, alloc, cfg)?;
        Self::attach(client, alloc, tree, cfg)
    }

    /// Attaches to an existing HT-tree as a blob map.
    pub fn attach(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        tree: HtTree,
        cfg: HtTreeConfig,
    ) -> Result<Self> {
        Ok(FarBlobMap {
            inner: tree.attach(client, alloc, cfg)?,
            records: Records::quarantine(alloc, 16 * 4096),
        })
    }

    /// Creates a new blob map whose handles reclaim superseded records
    /// through `reclaim` (see the module docs for the costs).
    pub fn create_reclaimed(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        cfg: HtTreeConfig,
        reclaim: SharedReclaim,
    ) -> Result<Self> {
        let tree = HtTree::create(client, alloc, cfg)?;
        Self::attach_reclaimed(client, alloc, tree, cfg, reclaim)
    }

    /// Attaches in reclaim mode: records are slab-allocated, and every
    /// overwrite or remove retires the record it supersedes into the
    /// limbo list. All handles of one tree must use the same mode.
    pub fn attach_reclaimed(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        tree: HtTree,
        cfg: HtTreeConfig,
        reclaim: SharedReclaim,
    ) -> Result<Self> {
        Ok(FarBlobMap {
            inner: tree.attach_reclaimed(client, alloc, cfg, reclaim.clone())?,
            records: Records::Reclaim(alloc.clone(), reclaim),
        })
    }

    /// The underlying HT-tree (to share with `u64`-value users or attach
    /// more handles).
    pub fn tree(&self) -> HtTree {
        *self.inner.tree()
    }

    /// Statistics of the underlying map handle.
    pub fn stats(&self) -> crate::httree::HtTreeStats {
        self.inner.stats()
    }

    /// Stores `value` behind `header` under `key` in the map's two far
    /// accesses, wherever the key sits in its bucket: alloc,
    /// [`HtTreeHandle::publish`], retire what came back (reclaim mode; a
    /// plain map strands it with the arena). Returns whether a record was
    /// replaced. The [`RecordHint`] makes a later [`get_if`](Self::get_if)
    /// of `key` one far access for as long as this record is the key's.
    pub fn put(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        header: [u64; H],
        value: &[u8],
    ) -> Result<(bool, RecordHint)> {
        let Ok(payload_len) = u32::try_from(value.len()) else {
            return Err(CoreError::BadConfig("blob too large"));
        };
        let len = Self::HEADER + value.len() as u64;
        let record = self.records.alloc(len)?;
        let mut bytes = Vec::with_capacity(len as usize);
        bytes.extend_from_slice(&(value.len() as u64).to_le_bytes());
        for word in header {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        bytes.extend_from_slice(value);
        let hint = RecordHint { record: record.0, payload_len };
        match self.inner.publish_guarded(client, key, record, &bytes) {
            Ok((None, _)) => Ok((false, hint)),
            // lint: retire-ok: the overwritten record was unlinked by the
            // publish above, whose pin is still held.
            Ok((Some(old), pin)) => {
                self.records.retire(client, &pin, FarAddr(old), None).map(|()| (true, hint))
            }
            Err(e) => {
                // `publish` fails only ahead of its CAS: never linked.
                self.records.discard(&[record], len)?;
                Err(e)
            }
        }
    }

    /// Splits a record's prefetched prefix into its payload length and
    /// header words.
    fn decode(first: &[u8]) -> (u64, [u64; H]) {
        (word_at(first, 0), std::array::from_fn(|i| word_at(first, (1 + i as u64) * WORD)))
    }

    /// The hint of the record at `record` with a `len`-byte payload.
    fn hint(record: u64, len: u64) -> Option<RecordHint> {
        u32::try_from(len).ok().map(|payload_len| RecordHint { record, payload_len })
    }

    /// The speculative read a hint asks for: the whole record.
    fn speculation(hint: RecordHint) -> (FarAddr, u64) {
        (FarAddr(hint.record), Self::HEADER + u64::from(hint.payload_len))
    }

    /// What a hinted read that the tree confirmed holds: the payload length
    /// and `Some(None)` when `live` turns the header down, else the
    /// payload. `None` when the bytes stop short of the payload — the block
    /// was freed and took a longer record of this same key since the hint.
    fn hinted_payload(
        mut bytes: Vec<u8>,
        live: impl FnOnce(&[u64; H]) -> bool,
    ) -> Option<(u64, Option<Vec<u8>>)> {
        let (len, header) = Self::decode(&bytes);
        if Self::HEADER + len > bytes.len() as u64 {
            return None;
        }
        if !live(&header) {
            return Some((len, None));
        }
        bytes.truncate((Self::HEADER + len) as usize);
        bytes.drain(..Self::HEADER as usize);
        Some((len, Some(bytes)))
    }

    /// Fetches the record under `key` if `live` accepts its header words:
    /// the map's one far access plus one (two, for a payload past the
    /// prefetch) record reads. `None` is a key with no record;
    /// `Some(None)` a record whose header `live` turned down — its payload
    /// is never materialized.
    ///
    /// With the `hint` the key's last [`put`](Self::put) returned, the
    /// whole get is **one far access**: the record is read at the hinted
    /// address inside the tree lookup's own fenced batch — lookup first —
    /// and the bytes are used if the tree names that address. Any other
    /// hint — an older one of this key, another key's, one whose block was
    /// freed and reused — wastes one message and the hinted bytes, and the
    /// get then costs what it costs with `None`; the result is the same
    /// either way. On return `hint` holds the hint of the record the tree
    /// named — minted here, from the address the tree gave and the length
    /// the record carries — or `None` when the key has no record.
    pub fn get_if(
        &mut self,
        client: &mut FabricClient,
        key: u64,
        hint: &mut Option<RecordHint>,
        live: impl Fn(&[u64; H]) -> bool,
    ) -> Result<Option<Option<Vec<u8>>>> {
        // Reclaim mode: the lookup's epoch guard is held to the record's
        // last byte, so a record another client is concurrently retiring
        // stays readable until grace elapses.
        let ((value, hinted), _pin) =
            self.inner.get_guarded(client, key, hint.map(Self::speculation))?;
        let Some(ptr) = value else {
            *hint = None;
            return Ok(None);
        };
        // The tree named the hinted address, so these are the record's
        // bytes as of the lookup.
        if let Some((len, payload)) = hinted.and_then(|b| Self::hinted_payload(b, &live)) {
            *hint = Self::hint(ptr, len);
            return Ok(Some(payload));
        }
        let record = FarAddr(ptr);
        let mut first = [0u8; PREFETCH as usize];
        client.read_into(record, &mut first)?;
        let (len, header) = Self::decode(&first);
        *hint = Self::hint(ptr, len);
        if !live(&header) {
            return Ok(Some(None));
        }
        // One buffer sized from the header: the prefetched part is copied
        // in, the rest of a large value is read straight into place.
        let mut out = vec![0u8; len as usize];
        let have = Self::PREFETCHED.min(len) as usize;
        let (head, tail) = out.split_at_mut(have);
        head.copy_from_slice(&first[Self::HEADER as usize..][..have]);
        if !tail.is_empty() {
            client.read_into(record.offset(Self::HEADER + have as u64), tail)?;
        }
        Ok(Some(Some(out)))
    }

    /// The blocking form of [`get_many_async`](Self::get_many_async): the
    /// same body over an [`Inline`] doorbell, which never parks.
    pub fn get_many(
        &mut self,
        client: &mut FabricClient,
        keys: &[u64],
        hints: &mut [Option<RecordHint>],
        live: impl Fn(&[u64; H]) -> bool,
    ) -> Result<Vec<Option<Option<Vec<u8>>>>> {
        let bell = Inline::new(client);
        Inline::run(self.get_many_async(&bell, keys, hints, live))
    }

    /// [`get_if`](Self::get_if) over a batch of keys and any
    /// [`Doorbell`], `hints[i]` in and out for `keys[i]` as `get_if`'s
    /// `hint`: the tree lookups post through one doorbell — a hinted key's
    /// as one fenced descriptor with its speculative read, so a fresh hint
    /// completes its get there — then the prefetch read of every record
    /// found unhinted or through a stale hint posts through a second
    /// shared one, rung only if there is one. An executor interleaves
    /// whole sessions' batches on one OS thread. Results are those of one
    /// `get_if` per key.
    ///
    /// # Panics
    ///
    /// Panics unless there is one hint slot per key.
    pub async fn get_many_async<D: Doorbell>(
        &mut self,
        ac: &D,
        keys: &[u64],
        hints: &mut [Option<RecordHint>],
        live: impl Fn(&[u64; H]) -> bool,
    ) -> Result<Vec<Option<Option<Vec<u8>>>>> {
        assert_eq!(hints.len(), keys.len(), "one hint slot per key");
        let speculate: Vec<_> = hints.iter().map(|h| h.map(Self::speculation)).collect();
        let (found, _guard) = self.inner.get_many_async_guarded(ac, keys, &speculate).await?;
        let mut out = Vec::with_capacity(keys.len());
        let mut reads = DescList::new();
        let mut posted = Vec::new();
        for (i, (value, hinted)) in found.into_iter().enumerate() {
            let Some(ptr) = value else {
                hints[i] = None;
                out.push(None);
                continue;
            };
            // As in `get_if`: bytes the tree confirmed.
            if let Some((len, payload)) = hinted.and_then(|b| Self::hinted_payload(b, &live)) {
                hints[i] = Self::hint(ptr, len);
                out.push(Some(payload));
                continue;
            }
            posted.push((i, FarAddr(ptr), reads.read(FarAddr(ptr), PREFETCH)));
            out.push(None);
        }
        if posted.is_empty() {
            return Ok(out);
        }
        let mut cq = ac.ring(reads).await;
        for (i, record, slot) in posted {
            let first = match cq.take(slot) {
                Some(Ok(res)) => res.into_bytes(),
                // lint: block-ok — serial fallback after a failed
                // prefetch, identical to the sync path.
                // audit: rt-in-loop-ok: rare per-key fallback — the hot path
                // batched every prefetch through one doorbell above.
                _ => ac.with(|c| c.read(record, PREFETCH))?,
            };
            let (len, header) = Self::decode(&first);
            hints[i] = Self::hint(record.0, len);
            if !live(&header) {
                out[i] = Some(None);
                continue;
            }
            // The completion's own buffer becomes the value: drop the
            // header and the bytes past a short value, then append the
            // tail of a large one (no async read-into exists, so that
            // tail still arrives in the doorbell's buffer).
            let have = Self::PREFETCHED.min(len);
            let mut v = first;
            v.truncate((Self::HEADER + have) as usize);
            v.drain(..Self::HEADER as usize);
            if len > have {
                let tail = ac.read(record.offset(Self::HEADER + have), len - have).await?;
                v.reserve_exact(tail.len());
                v.extend_from_slice(&tail);
            }
            out[i] = Some(Some(v));
        }
        Ok(out)
    }

    /// Removes `key` and returns whether it held a record — the tree's
    /// [`take`](HtTreeHandle::take): two far accesses when it did, one
    /// and nothing linked when it did not.
    /// The record taken is retired in reclaim mode and stranded with the
    /// arena in quarantine mode.
    pub fn remove(&mut self, client: &mut FabricClient, key: u64) -> Result<bool> {
        let (Some(old), pin) = self.inner.take_guarded(client, key)? else {
            return Ok(false);
        };
        // lint: retire-ok: the splice `take` published unlinked the
        // record, and its pin is still held.
        self.records.retire(client, &pin, FarAddr(old), None)?;
        Ok(true)
    }
}

impl FarBlobMap {
    /// Stores `value` under `key` ([`put`](Self::put) with no header).
    pub fn put_bytes(&mut self, client: &mut FabricClient, key: u64, value: &[u8]) -> Result<()> {
        let _span = client.span("blob.put_bytes");
        self.put(client, key, [], value).map(drop)
    }

    /// Fetches the blob under `key` ([`get_if`](Self::get_if) with no
    /// hint and nothing to turn down).
    pub fn get_bytes(&mut self, client: &mut FabricClient, key: u64) -> Result<Option<Vec<u8>>> {
        let _span = client.span("blob.get_bytes");
        Ok(self.get_if(client, key, &mut None, |[]| true)?.flatten())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>) {
        let f = FabricConfig::count_only(256 << 20).build();
        let a = FarAlloc::new(f.clone());
        (f, a)
    }

    #[test]
    fn bytes_round_trip_various_sizes() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut m = FarBlobMap::create(&mut c, &a, HtTreeConfig::default()).unwrap();
        for (k, size) in [(1u64, 0usize), (2, 1), (3, 100), (4, 247), (5, 248), (6, 249), (7, 5000)] {
            let v: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            m.put_bytes(&mut c, k, &v).unwrap();
            assert_eq!(m.get_bytes(&mut c, k).unwrap().as_deref(), Some(&v[..]), "size {size}");
        }
        assert_eq!(m.get_bytes(&mut c, 99).unwrap(), None);
    }

    #[test]
    fn small_blob_lookup_costs_two_far_accesses() {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut m = FarBlobMap::create(&mut c, &a, cfg).unwrap();
        m.put_bytes(&mut c, 7, b"hello far memory").unwrap();
        let before = c.stats();
        assert_eq!(m.get_bytes(&mut c, 7).unwrap().unwrap(), b"hello far memory");
        assert_eq!(
            c.stats().since(&before).round_trips,
            2,
            "map lookup + one record read"
        );
    }

    #[test]
    fn large_blob_needs_one_extra_read() {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let mut m = FarBlobMap::create(&mut c, &a, cfg).unwrap();
        let v = vec![9u8; 4096];
        m.put_bytes(&mut c, 7, &v).unwrap();
        let before = c.stats();
        assert_eq!(m.get_bytes(&mut c, 7).unwrap().unwrap(), v);
        assert_eq!(c.stats().since(&before).round_trips, 3);
    }

    /// The hinted lookup's price list, both lifetimes: what one `get_if` books
    /// with the key's own hint, with a stale one, and with a neighbour in
    /// the key's bucket — whole `AccessStats` deltas, so the speculative
    /// message and its bytes are on the books beside the round trips.
    fn hinted_costs(reclaimed: bool) {
        use farmem_fabric::AccessStats;
        // A bucket's block of one key, and of two.
        const ITEM: u64 = 32;
        const PAIR: u64 = 48;
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut m = if reclaimed {
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
            let shared = reg.attach(&mut c, &a).unwrap();
            FarBlobMap::create_reclaimed(&mut c, &a, cfg, shared).unwrap()
        } else {
            FarBlobMap::create(&mut c, &a, cfg).unwrap()
        };
        let get = |c: &mut FabricClient, m: &mut FarBlobMap, key, mut hint| {
            let before = c.stats();
            let got = m.get_if(c, key, &mut hint, |[]| true).unwrap().flatten();
            let d = c.stats().since(&before);
            // The cached tree's traversal is local and the same every time.
            assert_eq!(d.near_accesses, 2);
            (got, AccessStats { near_accesses: 0, ..d })
        };
        let books = |round_trips, messages, bytes_read| AccessStats {
            round_trips,
            messages,
            bytes_read,
            ..AccessStats::default()
        };
        let (small, large) = (vec![3u8; 64], vec![4u8; 4096]);
        let bucket = |k: u64| farmem_fabric::splitmix64(k) % cfg.initial_buckets;
        assert_ne!(bucket(1), bucket(2), "one key a block");
        let (_, small_hint) = m.put(&mut c, 1, [], &small).unwrap();
        let (_, large_hint) = m.put(&mut c, 2, [], &large).unwrap();

        // Unhinted, as ever: lookup + prefetch (+ tail).
        assert_eq!(get(&mut c, &mut m, 1, None), (Some(small.clone()), books(2, 2, ITEM + PREFETCH)));
        assert_eq!(
            get(&mut c, &mut m, 2, None),
            (Some(large.clone()), books(3, 3, ITEM + 8 + 4096))
        );
        // Hinted hit: one far access of two messages, the record read
        // whole and exactly — a large value loses its tail read too.
        assert_eq!(
            get(&mut c, &mut m, 1, Some(small_hint)),
            (Some(small.clone()), books(1, 2, ITEM + 8 + 64))
        );
        assert_eq!(
            get(&mut c, &mut m, 2, Some(large_hint)),
            (Some(large.clone()), books(1, 2, ITEM + 8 + 4096))
        );
        // Stale hint (another key's): the hinted bytes are read and
        // dropped, then the get is the unhinted one — not a round trip more.
        assert_eq!(
            get(&mut c, &mut m, 1, Some(large_hint)),
            (Some(small.clone()), books(2, 3, ITEM + (8 + 4096) + PREFETCH))
        );
        assert_eq!(
            get(&mut c, &mut m, 2, Some(small_hint)),
            (Some(large.clone()), books(3, 4, ITEM + (8 + 64) + 8 + 4096))
        );
        // An absent key's empty bucket answers in the same one access.
        assert_eq!(get(&mut c, &mut m, 1 << 40, Some(small_hint)), (None, books(1, 2, 8 + 64)));
        // A neighbour in the key's bucket: the block reads one entry
        // more, in the same one access.
        let neighbour = (3u64..).find(|&k| bucket(k) == bucket(1)).unwrap();
        m.put(&mut c, neighbour, [], b"probe").unwrap();
        assert_eq!(
            get(&mut c, &mut m, 1, Some(small_hint)),
            (Some(small.clone()), books(1, 2, PAIR + 8 + 64))
        );
        // An overwrite makes the old hint stale; a remove makes every hint
        // of the key a miss found in the lookup's own access (the key's
        // entry left the block).
        let (_, newer) = m.put(&mut c, 1, [], &large).unwrap();
        assert_eq!(
            get(&mut c, &mut m, 1, Some(small_hint)),
            (Some(large.clone()), books(3, 4, PAIR + (8 + 64) + 8 + 4096))
        );
        assert_eq!(get(&mut c, &mut m, 1, Some(newer)).1, books(1, 2, PAIR + 8 + 4096));
        assert!(m.remove(&mut c, 1).unwrap());
        assert_eq!(get(&mut c, &mut m, 1, Some(newer)), (None, books(1, 2, ITEM + 8 + 4096)));
    }

    #[test]
    fn a_hinted_lookup_is_one_far_access_and_a_stale_hint_costs_no_round_trip() {
        hinted_costs(false);
        hinted_costs(true);
    }

    /// The ABA a pointer comparison cannot see: the hinted block is freed
    /// and comes back holding a *new* record of the same key. The tree
    /// names the address, so the bytes read after the lookup are the new
    /// record's — served if the hinted length covers them, re-read through
    /// the plain path if the new record is longer.
    #[test]
    fn a_hint_whose_block_now_holds_the_keys_next_record_serves_that_record() {
        let (f, a) = setup();
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig { initial_buckets: 64, ..HtTreeConfig::default() };
        let mut m: FarBlobMap = FarBlobMap::create_reclaimed(&mut c, &a, cfg, shared.clone()).unwrap();
        let reincarnate = |c: &mut FabricClient, m: &mut FarBlobMap, value: &[u8]| {
            m.remove(c, 1).unwrap();
            let mut r = shared.lock().unwrap();
            r.seal(c).unwrap();
            assert!(r.reclaim(c).unwrap() > 0, "sole client: freed at once");
            drop(r);
            m.put(c, 1, [], value).unwrap().1
        };
        let rt = |c: &mut FabricClient, m: &mut FarBlobMap, hint, want: &[u8]| {
            let before = c.stats();
            let got = m.get_if(c, 1, &mut Some(hint), |[]| true).unwrap().flatten();
            assert_eq!(got.unwrap(), want);
            c.stats().since(&before).round_trips
        };
        let (_, first) = m.put(&mut c, 1, [], &[1u8; 44]).unwrap();
        let second = reincarnate(&mut c, &mut m, &[2u8; 54]);
        assert_eq!({ second.record }, { first.record }, "the 64-byte class reused the block");
        assert_eq!(rt(&mut c, &mut m, first, &[2u8; 54]), 2, "10 bytes short: plain record read");
        let third = reincarnate(&mut c, &mut m, &[3u8; 42]);
        assert_eq!({ third.record }, { first.record });
        assert_eq!(rt(&mut c, &mut m, second, &[3u8; 42]), 1, "54 hinted bytes cover 42");
        assert_eq!(rt(&mut c, &mut m, third, &[3u8; 42]), 1);
    }

    #[test]
    fn updates_replace_and_removes_hide() {
        let (f, a) = setup();
        let mut c = f.client();
        let mut m = FarBlobMap::create(&mut c, &a, HtTreeConfig::default()).unwrap();
        m.put_bytes(&mut c, 1, b"first").unwrap();
        m.put_bytes(&mut c, 1, b"second, longer value").unwrap();
        assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"second, longer value");
        m.remove(&mut c, 1).unwrap();
        assert_eq!(m.get_bytes(&mut c, 1).unwrap(), None);
    }

    #[test]
    fn reclaimed_overwrites_and_removes_return_records() {
        let (f, a) = setup();
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let cfg = HtTreeConfig {
            initial_buckets: 4096,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut m = FarBlobMap::create_reclaimed(&mut c, &a, cfg, shared.clone()).unwrap();
        m.put_bytes(&mut c, 1, &[7u8; 500]).unwrap();
        let retired_before = shared.lock().unwrap().stats().retired_bytes;
        // Overwrite: the 500-byte record is superseded and retired, with
        // the bucket block that named it (32 bytes).
        m.put_bytes(&mut c, 1, b"short").unwrap();
        let retired_mid = shared.lock().unwrap().stats().retired_bytes;
        // The limbo list counts allocator bytes — the block's size class
        // (`FarAlloc::size_of`), which is what freeing it returns — not
        // the 8 + 500 the record's own length word would say.
        assert_eq!(retired_mid - retired_before, 512 + 32, "old record and block retired");
        assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"short");
        // Remove: the replacement record and its block are retired too.
        m.remove(&mut c, 1).unwrap();
        let retired_after = shared.lock().unwrap().stats().retired_bytes;
        assert_eq!(retired_after - retired_mid, 16 + 32, "8 + 5 bytes live in the 16-byte class");
        assert_eq!(m.get_bytes(&mut c, 1).unwrap(), None);
        // Sole client: a seal + one grace round frees it all.
        let mut r = shared.lock().unwrap();
        r.seal(&mut c).unwrap();
        let freed = r.reclaim(&mut c).unwrap();
        assert!(freed >= 512 + 16, "records came back to the allocator");
    }

    /// The store-path price list, on a table that never restructures:
    /// what `publish` and the allocator's books took off each mutation.
    fn mutation_costs(reclaimed: bool) {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 64,
            max_load_percent: u64::MAX,
            ..HtTreeConfig::default()
        };
        let mut m = if reclaimed {
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
            let shared = reg.attach(&mut c, &a).unwrap();
            FarBlobMap::create_reclaimed(&mut c, &a, cfg, shared).unwrap()
        } else {
            FarBlobMap::create(&mut c, &a, cfg).unwrap()
        };
        let rt = |c: &mut FabricClient, op: &mut dyn FnMut(&mut FabricClient)| {
            let before = c.stats();
            op(c);
            c.stats().since(&before).round_trips
        };
        assert_eq!(rt(&mut c, &mut |c| m.put_bytes(c, 1, b"fresh").unwrap()), 2, "fresh put");
        assert_eq!(
            rt(&mut c, &mut |c| m.put_bytes(c, 1, b"over the head").unwrap()),
            2,
            "overwrite, key 1 alone in its block"
        );
        // Another key in key 1's bucket: the block grows, and its lookup
        // and stores stay at their price.
        let bucket = |k: u64| farmem_fabric::splitmix64(k) % cfg.initial_buckets;
        let beside = (2u64..).find(|&k| bucket(k) == bucket(1)).unwrap();
        m.put_bytes(&mut c, beside, b"probe").unwrap();
        assert_eq!(rt(&mut c, &mut |c| drop(m.get_bytes(c, 1).unwrap())), 2, "lookup + record");
        assert_eq!(
            rt(&mut c, &mut |c| m.put_bytes(c, 1, b"beside a neighbour").unwrap()),
            2,
            "overwrite, key 1 beside key {beside}"
        );
        assert_eq!(m.get_bytes(&mut c, 1).unwrap().unwrap(), b"beside a neighbour");
        assert_eq!(rt(&mut c, &mut |c| assert!(m.remove(c, 1).unwrap())), 2, "remove: the tree's take");
        // A miss stops after one access and links nothing.
        let mut probe = m.tree().attach(&mut c, &a, cfg).unwrap();
        let (removes, items) = (m.stats().removes, probe.len_estimate(&mut c).unwrap());
        assert_eq!(rt(&mut c, &mut |c| assert!(!m.remove(c, 1).unwrap())), 1, "remove of a removed key");
        assert_eq!(rt(&mut c, &mut |c| assert!(!m.remove(c, 1 << 40).unwrap())), 1, "remove of a new key");
        assert_eq!(m.stats().removes, removes);
        assert_eq!(probe.len_estimate(&mut c).unwrap(), items);
    }

    #[test]
    fn reclaimed_mutations_cost_two_accesses_plus_hops() {
        mutation_costs(true);
    }

    #[test]
    fn quarantine_store_costs_two_far_accesses() {
        mutation_costs(false);
    }

    /// `get_many_async` is one `get_if` per key, whatever the header
    /// width, the mode or the doorbell: hits on either side of the
    /// prefetch, misses, removed keys and records `live` turns down, each
    /// unhinted, through its own hint and through another key's — the
    /// hints handed back included.
    fn get_many_matches_get<const H: usize>(reclaimed: bool, header_of: fn(u64) -> [u64; H]) {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &a, cfg).unwrap();
        let mut m: FarBlobMap<H> = if reclaimed {
            let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
            let shared = reg.attach(&mut c, &a).unwrap();
            FarBlobMap::attach_reclaimed(&mut c, &a, tree, cfg, shared).unwrap()
        } else {
            FarBlobMap::attach(&mut c, &a, tree, cfg).unwrap()
        };
        let sizes = [0, 1, 100, FarBlobMap::<H>::PREFETCHED, FarBlobMap::<H>::PREFETCHED + 1, 5000];
        let put_hints: Vec<RecordHint> = (0..24u64)
            .map(|k| {
                let size = sizes[k as usize % sizes.len()];
                let v: Vec<u8> = (0..size).map(|i| (i + k) as u8).collect();
                m.put(&mut c, k, header_of(k), &v).unwrap().1
            })
            .collect();
        m.remove(&mut c, 5).unwrap();
        // Turn down every record whose last header word is odd (none when
        // there is no header).
        let live = |h: &[u64; H]| h.last().is_none_or(|w| w % 2 == 0);
        let keys: Vec<u64> = (0..32).rev().collect();
        let hints: Vec<Option<RecordHint>> = keys
            .iter()
            .map(|&k| match k % 3 {
                0 => None,
                1 => put_hints.get(k as usize).copied(),
                _ => Some(put_hints[(k as usize + 7) % 24]),
            })
            .collect();
        let serial: Vec<_> = keys
            .iter()
            .zip(&hints)
            .map(|(&k, &hint)| {
                let mut hint = hint;
                (m.get_if(&mut c, k, &mut hint, live).unwrap(), hint)
            })
            .collect();
        let mut learned = hints.clone();
        let bell = Inline::new(&mut c);
        let batched = Inline::run(m.get_many_async(&bell, &keys, &mut learned, live)).unwrap();
        assert_eq!(batched.into_iter().zip(learned).collect::<Vec<_>>(), serial);
        assert!(serial.iter().any(|(r, _)| r.is_none()), "misses");
        let values = serial.iter().filter_map(|(r, _)| r.clone().flatten());
        assert!(values.clone().any(|v| v.len() > 4096), "tails");
        assert_eq!(serial.iter().any(|(r, _)| *r == Some(None)), H > 0, "turned-down records");
        for (&k, (found, hint)) in keys.iter().zip(&serial) {
            let current = put_hints.get(k as usize).filter(|_| found.is_some());
            assert_eq!(hint.as_ref(), current, "key {k}: the hint handed back");
        }
    }

    #[test]
    fn get_many_equals_per_key_gets() {
        for reclaimed in [false, true] {
            get_many_matches_get::<0>(reclaimed, |_| []);
            get_many_matches_get::<1>(reclaimed, |k| [k % 5]);
        }
    }

    fn hint(record: u64, payload_len: u32) -> RecordHint {
        RecordHint { record, payload_len }
    }

    #[test]
    fn a_hint_word_unpacks_to_the_hint_packed() {
        let t = HintTable::new();
        let widest = hint(((1 << UNIT_BITS) - 1) * RECORD_UNIT, (1 << LEN_BITS) - 1);
        for h in [hint(16, 0), hint(4096, 64), widest] {
            t.put(7, h);
            assert_eq!(t.get(7).0, Some(h));
        }
        // Every record of a reclaim-mode map with a header word packs: at
        // 16 B and more its slab block is 16-B aligned.
        let (f, a) = setup();
        let mut c = f.client();
        let reg = farmem_reclaim::ReclaimRegistry::create(&mut c, &a, 4).unwrap();
        let shared = reg.attach(&mut c, &a).unwrap();
        let mut m: FarBlobMap<1> =
            FarBlobMap::create_reclaimed(&mut c, &a, HtTreeConfig::default(), shared).unwrap();
        for len in (0..300).chain([4096, 64 << 10]) {
            let (_, h) = m.put(&mut c, len, [0], &vec![1; len as usize]).unwrap();
            let packed = HintTable::pack(splitmix64(len), h);
            assert!(packed.is_some(), "a {len}-byte payload's record");
        }
    }

    #[test]
    fn a_hint_that_does_not_pack_is_not_stored() {
        let t = HintTable::new();
        let unpackable = [
            hint(4096 + 8, 10),               // not 16-B aligned
            hint(RECORD_UNIT << UNIT_BITS, 10), // past the address field
            hint(4096, 1 << LEN_BITS),        // past the length field
        ];
        for h in unpackable {
            assert_eq!(HintTable::pack(splitmix64(7), h), None);
            t.put(7, hint(4096, 10));
            t.put(7, h);
            let empty = HintWord { way: 0, word: 0 };
            assert_eq!(t.get(7), (None, empty), "the older hint cleared, {h:?} not stored");
        }
    }

    /// A table of one set and `n` keys of distinct tags, so each key's
    /// get reads its own hint or none.
    fn one_set(n: u64) -> (HintTable, Vec<u64>) {
        let keys: Vec<u64> = (1..=n).collect();
        let mut tags: Vec<u64> = keys.iter().map(|&k| HintTable::tag_of(k)).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len() as u64, n, "distinct tags");
        (HintTable::with_set_bits(0), keys)
    }

    /// The ways of `key`'s set that hold its tag.
    fn ways_of(t: &HintTable, key: u64) -> Vec<usize> {
        let mix = splitmix64(key);
        let (_, words) = t.read(mix);
        (0..WAYS).filter(|&w| HintTable::unpack(mix, words[w]).is_some()).collect()
    }

    #[test]
    fn a_set_fills_all_eight_ways_before_evicting() {
        let (t, keys) = one_set(WAYS as u64 + 1);
        let (held, late) = keys.split_at(WAYS);
        for (i, &k) in held.iter().enumerate() {
            t.put(k, hint(16 * k, 1));
            assert_eq!(ways_of(&t, k), [i], "key {k} takes the first empty way");
        }
        let own = |k: u64, len| t.get(k).0 == Some(hint(16 * k, len));
        assert!(held.iter().all(|&k| own(k, 1)), "eight keys, eight hints");
        // A ninth key finds no way of its tag and none empty: it takes its
        // victim way, and the key there loses its hint.
        let ninth = late[0];
        assert_eq!(t.get(ninth).0, None);
        t.put(ninth, hint(16 * ninth, 1));
        let victim = HintTable::victim(splitmix64(ninth));
        assert_eq!(ways_of(&t, ninth), [victim]);
        let lost: Vec<u64> = held.iter().copied().filter(|&k| t.get(k).0.is_none()).collect();
        assert_eq!(lost, [held[victim]]);
    }

    #[test]
    fn a_put_of_a_key_in_the_set_overwrites_its_own_way() {
        let (t, keys) = one_set(WAYS as u64);
        for &k in &keys {
            t.put(k, hint(16 * k, 1));
        }
        // The set is full; a second put of each key lands in its own way,
        // evicts nothing and leaves one word of its tag.
        for &k in keys.iter().rev() {
            let before = ways_of(&t, k);
            t.put(k, hint(16 * k, 2));
            assert_eq!(ways_of(&t, k), before, "key {k}: one way, the same one");
        }
        assert!(keys.iter().all(|&k| t.get(k).0 == Some(hint(16 * k, 2))));
    }

    #[test]
    fn clear_and_learn_touch_only_the_keys_own_way() {
        let (t, keys) = one_set(WAYS as u64);
        for &k in &keys {
            t.put(k, hint(16 * k, 1));
        }
        let words = || t.read(splitmix64(keys[0])).1;
        let moved = |before: [u64; WAYS]| -> Vec<usize> {
            let after = words();
            (0..WAYS).filter(|&w| before[w] != after[w]).collect()
        };
        let (a, b) = (keys[2], keys[5]);
        let before = words();
        let (_, seen) = t.get(a);
        t.learn(a, seen, Some(hint(16 * a, 3)));
        assert_eq!(moved(before), ways_of(&t, a), "a learn rewrites the key's way");
        let (before, way) = (words(), ways_of(&t, b));
        t.clear(b);
        assert_eq!(moved(before), way, "a clear empties the key's way");
        // The cleared key's get reads that empty way, and its learn fills
        // it again.
        let before = words();
        let (found, seen) = t.get(b);
        assert_eq!((found, vec![seen.way]), (None, way.clone()));
        t.learn(b, seen, Some(hint(16 * b, 4)));
        assert_eq!(moved(before), way);
        let len = |k| [(a, 3), (b, 4)].into_iter().find(|&(x, _)| x == k).map_or(1, |(_, len)| len);
        let own = |k: u64| t.get(k).0 == Some(hint(16 * k, len(k)));
        assert!(keys.iter().all(|&k| own(k)), "no other way moved");
    }

    #[test]
    fn a_tag_mismatch_reads_none() {
        let (t, keys) = one_set(2);
        let (a, b) = (keys[0], keys[1]);
        t.put(a, hint(16, 1));
        assert_eq!(t.get(b).0, None, "a's word is in b's set under another tag");
        t.put(b, hint(32, 2));
        let both = (Some(hint(16, 1)), Some(hint(32, 2)));
        assert_eq!((t.get(a).0, t.get(b).0), both, "one way each");
        // A key of a's tag is handed a's hint: the tag false positive the
        // tree's compare turns down.
        let twin = (3u64..).find(|&k| HintTable::tag_of(k) == HintTable::tag_of(a)).unwrap();
        assert_eq!(t.get(twin).0, Some(hint(16, 1)));
    }

    #[test]
    fn a_tag_checked_clear_leaves_a_colliding_keys_hint() {
        let (t, keys) = one_set(WAYS as u64 + 1);
        let (held, outside) = (&keys[..WAYS], keys[WAYS]);
        for &k in held {
            t.put(k, hint(16 * k, 1));
        }
        let full = t.read(splitmix64(outside)).1;
        // A key the full set does not hold clears nothing, and its miss
        // learns nothing over the victim way's word either.
        t.clear(outside);
        let (_, seen) = t.get(outside);
        assert_eq!(seen.way, HintTable::victim(splitmix64(outside)));
        t.learn(outside, seen, None);
        assert_eq!(t.read(splitmix64(outside)).1, full);
        t.clear(held[0]);
        assert_eq!(t.get(held[0]).0, None);
        assert!(held[1..].iter().all(|&k| t.get(k).0 == Some(hint(16 * k, 1))));
    }

    #[test]
    fn a_late_learn_does_not_overwrite_a_newer_put() {
        let t = HintTable::new();
        let (older, old, new) = (hint(16, 1), hint(32, 2), hint(48, 3));
        // The get reads the key's way, the owner's put lands, then the
        // get's lookup (which ran before the put) learns what it found.
        for before in [None, Some(older)] {
            t.clear(1);
            if let Some(h) = before {
                t.put(1, h);
            }
            let (_, seen) = t.get(1);
            t.put(1, new);
            t.learn(1, seen, Some(old));
            assert_eq!(t.get(1).0, Some(new), "read {before:?}");
        }
        // A late miss does not clear it either; an on-time learn lands.
        let (_, seen) = t.get(1);
        t.put(1, older);
        t.learn(1, seen, None);
        assert_eq!(t.get(1).0, Some(older));
        let (_, seen) = t.get(1);
        t.learn(1, seen, Some(old));
        assert_eq!(t.get(1).0, Some(old));
    }

    /// Two writers put, learn and clear the hints of twelve keys in one
    /// set of eight ways, so keys evict one another, while a reader
    /// decodes every key: every hint read is one a writer minted for that
    /// key, record and length together.
    #[test]
    fn a_hammered_slot_holds_only_whole_hints() {
        const ROUNDS: u64 = 20_000;
        let (t, keys) = one_set(12);
        let minted = |key: u64, i: u64| hint(RECORD_UNIT * (1 + key * ROUNDS + i), (3 * i + key) as u32);
        let whole = |key: u64, h: RecordHint| {
            let i = (h.record / RECORD_UNIT).wrapping_sub(1 + key * ROUNDS);
            i < ROUNDS && h == minted(key, i)
        };
        std::thread::scope(|s| {
            for mine in keys.chunks(keys.len() / 2) {
                let t = &t;
                s.spawn(move || {
                    for i in 0..ROUNDS {
                        let key = mine[i as usize % mine.len()];
                        let (_, seen) = t.get(key);
                        match i / mine.len() as u64 % 4 {
                            0 => t.learn(key, seen, Some(minted(key, i))),
                            1 => t.clear(key),
                            _ => t.put(key, minted(key, i)),
                        }
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..2 * ROUNDS {
                    for &key in &keys {
                        if let Some(h) = t.get(key).0 {
                            assert!(whole(key, h), "key {key}: {h:?} was never minted");
                        }
                    }
                }
            });
        });
    }

    /// `serve-sessions`' preload — 4 tenants × 25 k keys, tenant by
    /// tenant, keys `tenant << 48 | raw` — into the deployment's table:
    /// how many keys are left without their own hint. A direct-mapped
    /// table of the same 2^18 words leaves 16,853.
    #[test]
    fn session_keys_left_without_their_hint() {
        let t = HintTable::new();
        let keys: Vec<u64> =
            (0..4u64).flat_map(|t| (0..25_000).map(move |k| t << 48 | k)).collect();
        let mine = |i: usize| hint(RECORD_UNIT * (1 + i as u64), 64);
        for (i, &k) in keys.iter().enumerate() {
            t.put(k, mine(i));
        }
        let lost = keys.iter().enumerate().filter(|&(i, &k)| t.get(k).0 != Some(mine(i))).count();
        assert_eq!(lost, 181);
    }

    #[test]
    fn survives_splits() {
        let (f, a) = setup();
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
        let mut m = FarBlobMap::create(&mut c, &a, cfg).unwrap();
        for k in 0..500u64 {
            m.put_bytes(&mut c, k, format!("value-{k}").as_bytes()).unwrap();
        }
        assert!(m.stats().splits + m.stats().grows > 0);
        for k in 0..500u64 {
            assert_eq!(
                m.get_bytes(&mut c, k).unwrap().unwrap(),
                format!("value-{k}").as_bytes()
            );
        }
    }
}
