//! Notifications: callbacks triggered when far memory changes (§4.3).
//!
//! A notification lets a client learn that a location changed without
//! continuously probing far memory — probing is exactly what is expensive
//! there. Three primitive kinds are provided, following Fig. 1:
//!
//! * `notify0(ad, ℓ)` — signal any change in `[ad, ad+ℓ)`;
//! * `notifye(ad, v)` — signal when the word at `ad` becomes equal to `v`;
//! * `notify0d(ad, ℓ)` — signal a change and return the changed data.
//!
//! For ease of hardware implementation, ranges must be word-aligned and
//! must not cross page boundaries, so each subscription can be recorded
//! against a single page (e.g. in a page-table entry at the memory node).
//!
//! Delivery is governed by a [`DeliveryPolicy`]: notifications may be
//! coalesced (temporal batching), dropped silently with a configured
//! probability (best-effort fabrics), or dropped under queue-overflow
//! spikes — in which case the subscriber receives an explicit
//! [`Event::Lost`] warning it must handle (§7.2).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crate::addr::{FarAddr, PAGE, WORD};
use crate::error::{FabricError, Result};

/// Globally unique identifier of one subscription.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SubId(pub u64);

static NEXT_SUB_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_sub_id() -> SubId {
    SubId(NEXT_SUB_ID.fetch_add(1, Ordering::Relaxed))
}

/// What condition a subscription watches for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubKind {
    /// Any change in the subscribed range (`notify0`).
    Changed,
    /// The watched word becomes equal to `value` (`notifye`).
    Equal {
        /// Value that triggers the notification.
        value: u64,
    },
    /// Any change, with the changed data carried in the event (`notify0d`).
    ChangedData,
}

/// An event delivered to a subscriber.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// The subscribed range changed (`notify0`).
    Changed {
        /// Subscription that fired.
        sub: SubId,
        /// Start of the subscribed range.
        addr: FarAddr,
        /// Length of the subscribed range.
        len: u64,
        /// The triggering write `[addr, addr+len)`, if the fabric is
        /// configured to carry trigger information (§7.2 lets a software
        /// layer disambiguate coarsened subscriptions with it).
        trigger: Option<(FarAddr, u64)>,
        /// Virtual time at which the event left the memory node.
        fired_at_ns: u64,
    },
    /// The watched word became equal to the subscribed value (`notifye`).
    Equal {
        /// Subscription that fired.
        sub: SubId,
        /// Address of the watched word.
        addr: FarAddr,
        /// The matched value.
        value: u64,
        /// Virtual time at which the event left the memory node.
        fired_at_ns: u64,
    },
    /// The subscribed range changed and its current contents are attached
    /// (`notify0d`); useful when data is small.
    ChangedData {
        /// Subscription that fired.
        sub: SubId,
        /// Start of the subscribed range.
        addr: FarAddr,
        /// Contents of the subscribed range after the triggering write.
        data: Vec<u8>,
        /// Virtual time at which the event left the memory node.
        fired_at_ns: u64,
    },
    /// Warning: `count` notifications were dropped since the last drain
    /// because of a traffic spike. The data-structure algorithm must adapt
    /// (e.g. fall back to version polling) per its consistency goals (§7.2).
    Lost {
        /// Number of suppressed events.
        count: u64,
    },
}

impl Event {
    /// Subscription this event belongs to, if any (`Lost` has none).
    pub fn sub(&self) -> Option<SubId> {
        match self {
            Event::Changed { sub, .. }
            | Event::Equal { sub, .. }
            | Event::ChangedData { sub, .. } => Some(*sub),
            Event::Lost { .. } => None,
        }
    }

    /// Virtual time the event left the memory node (0 for `Lost`).
    pub fn fired_at_ns(&self) -> u64 {
        match self {
            Event::Changed { fired_at_ns, .. }
            | Event::Equal { fired_at_ns, .. }
            | Event::ChangedData { fired_at_ns, .. } => *fired_at_ns,
            Event::Lost { .. } => 0,
        }
    }
}

/// How the fabric delivers notifications to one subscriber queue.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryPolicy {
    /// Probability (in millionths) that any single event is silently
    /// dropped, modelling an unreliable best-effort fabric. `0` = reliable.
    pub drop_ppm: u32,
    /// Coalesce repeated events for the same subscription while one is
    /// still pending in the queue (temporal batching, §7.2).
    pub coalesce: bool,
    /// Maximum pending events per subscriber queue; beyond it events are
    /// dropped and surfaced as an [`Event::Lost`] warning (§7.2 spikes).
    pub max_queue: usize,
}

impl DeliveryPolicy {
    /// Reliable, uncoalesced delivery with a generous queue.
    pub const RELIABLE: DeliveryPolicy = DeliveryPolicy {
        drop_ppm: 0,
        coalesce: false,
        max_queue: 1 << 20,
    };

    /// Reliable delivery with coalescing — the recommended default.
    pub const COALESCING: DeliveryPolicy = DeliveryPolicy {
        drop_ppm: 0,
        coalesce: true,
        max_queue: 1 << 20,
    };
}

impl Default for DeliveryPolicy {
    fn default() -> Self {
        DeliveryPolicy::COALESCING
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum QKey {
    /// Coalescible events keyed by subscription.
    Sub(u64),
    /// Unique events (never coalesced).
    Seq(u64),
}

#[derive(Default)]
struct SinkInner {
    order: VecDeque<QKey>,
    map: HashMap<QKey, Event>,
    seq: u64,
    /// Events suppressed by queue overflow since the last drain; reported
    /// as one `Lost` warning.
    spike_dropped: u64,
    /// Events silently dropped by best-effort delivery (never reported to
    /// the subscriber, visible only to experiment harnesses).
    silent_dropped: u64,
    coalesced: u64,
    delivered: u64,
    rng: u64,
    /// [`EventSink::wait_pending`] callers parked on the condvar: a
    /// delivery signals only when one is, since a futex wake costs a
    /// syscall whether or not a thread waits.
    parked: usize,
}

impl SinkInner {
    fn next_rng(&mut self) -> u64 {
        // Xorshift64*: deterministic per-sink pseudo-randomness for
        // best-effort drops; seeded at sink creation.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// Counters describing one sink's delivery history.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Events handed to the subscriber (excluding `Lost` warnings).
    pub delivered: u64,
    /// Events merged into an already-pending event.
    pub coalesced: u64,
    /// Events dropped by queue-overflow spikes (warned about).
    pub spike_dropped: u64,
    /// Events dropped silently by best-effort delivery.
    pub silent_dropped: u64,
}

/// A subscriber-side notification queue.
///
/// One sink is shared by all subscriptions a client (or broker) registers;
/// events from all of them are interleaved in delivery order.
pub struct EventSink {
    inner: Mutex<SinkInner>,
    /// Calls to [`deliver`](EventSink::deliver) so far, whatever became of
    /// the event (queued, coalesced, spike- or silently dropped). A
    /// subscriber that remembers the value it last drained at knows from
    /// one load that nothing — no event, no coalesce count, no `Lost`
    /// warning — is waiting for it.
    deliveries: AtomicU64,
    cv: Condvar,
    policy: DeliveryPolicy,
}

impl EventSink {
    /// Creates a sink with the given delivery policy and drop seed.
    pub fn new(policy: DeliveryPolicy, seed: u64) -> Arc<EventSink> {
        Arc::new(EventSink {
            inner: Mutex::new(SinkInner {
                rng: seed | 1,
                ..SinkInner::default()
            }),
            deliveries: AtomicU64::new(0),
            cv: Condvar::new(),
            policy,
        })
    }

    /// The delivery counter: moves on every event the fabric fires at
    /// this sink. Equal to the value read before the last
    /// [`drain`](EventSink::drain) means that drain left nothing behind.
    pub fn deliveries(&self) -> u64 {
        // Pairs with the `Release` bump in `deliver`. The events
        // themselves are published by the mutex; the pairing only makes a
        // poll that happens-after a delivery see the counter moved.
        self.deliveries.load(Ordering::Acquire)
    }

    /// Enqueues an event subject to the sink's delivery policy.
    pub(crate) fn deliver(&self, event: Event) {
        let mut g = self.inner.lock().unwrap();
        // Bumped under the lock: a subscriber that sees the new value and
        // then drains waits for this delivery to finish.
        self.deliveries.fetch_add(1, Ordering::Release);
        if self.policy.drop_ppm > 0 {
            let roll = g.next_rng() % 1_000_000;
            if roll < self.policy.drop_ppm as u64 {
                g.silent_dropped += 1;
                return;
            }
        }
        let key = match (self.policy.coalesce, event.sub()) {
            (true, Some(sub)) => QKey::Sub(sub.0),
            _ => {
                g.seq += 1;
                QKey::Seq(g.seq)
            }
        };
        if let QKey::Sub(_) = key {
            if let Some(slot) = g.map.get_mut(&key) {
                // Merge into the pending event: the subscriber sees a
                // single, fresh event. `Changed` triggers are merged to
                // their bounding box so no change information is lost —
                // a wider trigger is a (conservative) false positive, not
                // a miss.
                match (&mut *slot, event) {
                    (
                        Event::Changed { trigger: old_t, fired_at_ns: old_f, .. },
                        Event::Changed { trigger: new_t, fired_at_ns: new_f, .. },
                    ) => {
                        *old_t = match (*old_t, new_t) {
                            (Some((a1, l1)), Some((a2, l2))) => {
                                let start = a1.0.min(a2.0);
                                let end = (a1.0 + l1).max(a2.0 + l2);
                                Some((FarAddr(start), end - start))
                            }
                            // Unknown trigger on either side: unknown.
                            _ => None,
                        };
                        *old_f = (*old_f).max(new_f);
                    }
                    (slot, event) => *slot = event,
                }
                g.coalesced += 1;
                self.wake(&g);
                return;
            }
        }
        if g.order.len() >= self.policy.max_queue {
            g.spike_dropped += 1;
            self.wake(&g);
            return;
        }
        g.order.push_back(key);
        g.map.insert(key, event);
        g.delivered += 1;
        self.wake(&g);
    }

    /// Wakes the parked [`wait_pending`](EventSink::wait_pending)
    /// callers, if any; `g` is the held sink lock they count under.
    fn wake(&self, g: &SinkInner) {
        if g.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Removes and returns the oldest pending event, if any.
    ///
    /// If events were dropped by a spike since the last call, an
    /// [`Event::Lost`] warning is returned first.
    pub fn try_recv(&self) -> Option<Event> {
        let mut g = self.inner.lock().unwrap();
        if g.spike_dropped > 0 {
            let count = g.spike_dropped;
            g.spike_dropped = 0;
            return Some(Event::Lost { count });
        }
        let key = g.order.pop_front()?;
        g.map.remove(&key)
    }

    /// Drains all currently pending events (with a leading `Lost` warning
    /// if applicable).
    pub fn drain(&self) -> Vec<Event> {
        let mut out = Vec::new();
        while let Some(e) = self.try_recv() {
            out.push(e);
        }
        out
    }

    /// Blocks the calling OS thread until at least one event is pending,
    /// without consuming it; returns `false` on timeout. Lets waiters park
    /// and then drain through their client (which keeps the notification
    /// accounting in one place).
    pub fn wait_pending(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.inner.lock().unwrap();
        loop {
            if !g.order.is_empty() || g.spike_dropped > 0 {
                return true;
            }
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now())
            else {
                return false;
            };
            g.parked += 1;
            let (guard, timed_out) = self.cv.wait_timeout(g, remaining).unwrap();
            g = guard;
            g.parked -= 1;
            if timed_out.timed_out() {
                return !g.order.is_empty() || g.spike_dropped > 0;
            }
        }
    }

    /// Number of currently pending events.
    pub fn pending(&self) -> usize {
        let g = self.inner.lock().unwrap();
        g.order.len() + usize::from(g.spike_dropped > 0)
    }

    /// Delivery counters for this sink.
    pub fn stats(&self) -> SinkStats {
        let g = self.inner.lock().unwrap();
        SinkStats {
            delivered: g.delivered,
            coalesced: g.coalesced,
            spike_dropped: g.spike_dropped,
            silent_dropped: g.silent_dropped,
        }
    }
}

/// One registered subscription, stored at the owning memory node.
#[derive(Clone)]
pub(crate) struct Subscription {
    pub id: SubId,
    /// Position in the node's registration order: orders the subscribers
    /// of a write that covers several watched ranges.
    seq: u64,
    /// Node-local offset of the watched range.
    pub offset: u64,
    pub len: u64,
    /// Global address of the watched range (for event reporting).
    pub addr: FarAddr,
    pub kind: SubKind,
    pub sink: Arc<EventSink>,
}

/// Words per page, and the `u64`s one page's word mask takes.
const PAGE_WORDS: u64 = PAGE / WORD;
const MASK_WORDS: u64 = PAGE_WORDS / 64;
/// Pages per [`Region`]: one word of armed bits.
const REGION_PAGES: u64 = 64;
/// Mask words per [`Region`].
const REGION_MASKS: usize = (REGION_PAGES * MASK_WORDS) as usize;

/// The page-table entries of [`REGION_PAGES`] consecutive pages.
#[derive(Default)]
struct Region {
    /// One bit per page: set while the page holds a subscription.
    armed: AtomicU64,
    /// [`MASK_WORDS`] per page, one bit per word: set while some
    /// subscription watches the word. Allocated when the region's first
    /// page is armed, so a node pays for masks only where it is watched.
    watched: OnceLock<Box<[AtomicU64; REGION_MASKS]>>,
}

impl Region {
    /// Whether `page` (of this region) holds a subscription.
    fn is_armed(&self, page: u64) -> bool {
        self.armed.load(Ordering::SeqCst) & (1 << (page % REGION_PAGES)) != 0
    }

    /// `page`'s word mask, if the region was ever armed.
    fn mask(&self, page: u64) -> Option<&[AtomicU64]> {
        let at = (page % REGION_PAGES * MASK_WORDS) as usize;
        Some(&self.watched.get()?[at..at + MASK_WORDS as usize])
    }
}

/// Subscribers in registration order. A fan-out delivers from a clone
/// of the `Arc`, so it holds no lock while it delivers; a registration
/// that finds a fan-out holding the list copies it.
type Subs = Arc<Vec<Subscription>>;

/// The subscriptions of one page that watch the same words.
struct RangeSubs {
    /// The watched words, as indices within the page.
    words: std::ops::Range<u64>,
    subs: Subs,
}

#[derive(Default)]
struct Lists {
    /// Registrations so far (the next [`Subscription::seq`]).
    seq: u64,
    /// Armed page → its subscriptions, one entry per watched range.
    pages: HashMap<u64, Vec<RangeSubs>>,
}

/// Per-node registry of subscriptions, associated with pages (§4.3).
///
/// Each page has an armed bit, as the paper's page-table entry, and a
/// word mask of the words its subscriptions watch. A write reads the
/// bit of each page it touches and, on an armed page, the mask bits of
/// its words; only a write that covers a watched word takes the lock,
/// and only to clone the lists of the ranges it covers.
pub struct SubscriptionTable {
    regions: Vec<Region>,
    lists: Mutex<Lists>,
    count: AtomicUsize,
    /// Whether fired events carry the triggering write range (§7.2).
    carry_trigger: AtomicUsize,
}

/// Sets (`on`) or clears bit `bit % 64` of `word`. SeqCst, as the
/// loads in [`SubscriptionTable::fire`]: a subscriber that arms a word
/// and then reads it, and a writer that stores it and then reads the
/// bit, cannot both miss the other (the node's word accesses are SeqCst).
fn set_bit(word: &AtomicU64, bit: u64, on: bool) {
    let mask = 1u64 << (bit % 64);
    if on {
        word.fetch_or(mask, Ordering::SeqCst);
    } else {
        word.fetch_and(!mask, Ordering::SeqCst);
    }
}

impl SubscriptionTable {
    pub(crate) fn new(capacity: u64) -> SubscriptionTable {
        let regions = capacity.div_ceil(PAGE * REGION_PAGES);
        SubscriptionTable {
            regions: (0..regions).map(|_| Region::default()).collect(),
            lists: Mutex::new(Lists::default()),
            count: AtomicUsize::new(0),
            carry_trigger: AtomicUsize::new(1),
        }
    }

    /// Enables or disables trigger information in `Changed` events.
    pub fn set_carry_trigger(&self, on: bool) {
        self.carry_trigger.store(usize::from(on), Ordering::Relaxed);
    }

    /// Number of live subscriptions on this node.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Returns `true` if no subscriptions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates §4.3's range rules: word alignment, non-empty, single page.
    pub(crate) fn validate_range(addr: FarAddr, len: u64) -> Result<()> {
        if !addr.is_aligned(WORD) || !len.is_multiple_of(WORD) {
            return Err(FabricError::BadSubscription {
                addr,
                len,
                reason: "range must be word-aligned",
            });
        }
        if len == 0 {
            return Err(FabricError::BadSubscription {
                addr,
                len,
                reason: "range must be non-empty",
            });
        }
        if addr.0 / PAGE != (addr.0 + len - 1) / PAGE {
            return Err(FabricError::BadSubscription {
                addr,
                len,
                reason: "range must not cross a page boundary",
            });
        }
        Ok(())
    }

    /// Registers a subscription whose range starts at node-local `offset`.
    pub(crate) fn register(
        &self,
        addr: FarAddr,
        offset: u64,
        len: u64,
        kind: SubKind,
        sink: Arc<EventSink>,
    ) -> Result<SubId> {
        Self::validate_range(addr, len)?;
        if let SubKind::Equal { .. } = kind {
            if len != WORD {
                return Err(FabricError::BadSubscription {
                    addr,
                    len,
                    reason: "equality notifications watch a single word",
                });
            }
        }
        let id = fresh_sub_id();
        let page = offset / PAGE;
        let mut lists = self.lists.lock().unwrap();
        let sub = Subscription { id, seq: lists.seq, offset, len, addr, kind, sink };
        lists.seq += 1;
        let region = self.region(page);
        region.watched.get_or_init(|| Box::new([const { AtomicU64::new(0) }; REGION_MASKS]));
        let mask = region.mask(page).expect("allocated above");
        let words = (offset % PAGE) / WORD..(offset % PAGE + len) / WORD;
        for w in words.clone() {
            set_bit(&mask[(w / 64) as usize], w, true);
        }
        let ranges = lists.pages.entry(page).or_default();
        match ranges.iter_mut().find(|r| r.words == words) {
            Some(r) => Arc::make_mut(&mut r.subs).push(sub),
            None => ranges.push(RangeSubs { words, subs: Arc::new(vec![sub]) }),
        }
        set_bit(&region.armed, page, true);
        self.count.fetch_add(1, Ordering::Relaxed);
        Ok(id)
    }

    /// Removes subscription `id` from node-local `page`; returns an error
    /// if it is not registered there. Clears the mask bit of each word it
    /// leaves unwatched, and the page's armed bit with its last one.
    pub(crate) fn unregister(&self, id: SubId, page: u64) -> Result<()> {
        let mut lists = self.lists.lock().unwrap();
        let ranges = lists.pages.get_mut(&page).ok_or(FabricError::NoSuchSubscription)?;
        let (at, pos) = ranges
            .iter()
            .enumerate()
            .find_map(|(at, r)| Some((at, r.subs.iter().position(|s| s.id == id)?)))
            .ok_or(FabricError::NoSuchSubscription)?;
        Arc::make_mut(&mut ranges[at].subs).remove(pos);
        if ranges[at].subs.is_empty() {
            let words = ranges.swap_remove(at).words;
            let region = self.region(page);
            let mask = region.mask(page).expect("a page with subscriptions was armed");
            for w in words.filter(|w| !ranges.iter().any(|r| r.words.contains(w))) {
                set_bit(&mask[(w / 64) as usize], w, false);
            }
            if ranges.is_empty() {
                lists.pages.remove(&page);
                set_bit(&region.armed, page, false);
            }
        }
        self.count.fetch_sub(1, Ordering::Relaxed);
        Ok(())
    }

    /// Fires subscriptions overlapping the node-local write
    /// `[offset, offset+len)`.
    ///
    /// On each page the write touches, an unarmed page or a covered word
    /// range the mask leaves unwatched costs one or two loads and no lock.
    /// Otherwise the subscribers of the covered words are delivered to in
    /// registration order, each once, after the lock is released.
    ///
    /// `read_word` and `read_range` let the table observe post-write memory
    /// for `notifye` / `notify0d` without borrowing the node; each watched
    /// range is read once per fan-out.
    pub(crate) fn fire(
        &self,
        offset: u64,
        len: u64,
        fired_at_ns: u64,
        read_word: &dyn Fn(u64) -> u64,
        read_range: &dyn Fn(u64, u64) -> Vec<u8>,
    ) {
        if len == 0 {
            return;
        }
        for page in offset / PAGE..=(offset + len - 1) / PAGE {
            if !self.region(page).is_armed(page) {
                continue;
            }
            let base = page * PAGE;
            let w0 = (offset.max(base) - base) / WORD;
            let w1 = ((offset + len).min(base + PAGE) - base).div_ceil(WORD);
            let subs = self.covered(page, w0, w1);
            if !subs.is_empty() {
                self.deliver(&subs, offset, len, fired_at_ns, read_word, read_range);
            }
        }
    }

    /// The region of node-local `page`.
    fn region(&self, page: u64) -> &Region {
        &self.regions[(page / REGION_PAGES) as usize]
    }

    /// The subscriber lists of the watched ranges that overlap `page`'s
    /// words `w0..w1`, cloned under the lock (none taken when the mask
    /// shows no watched word there).
    fn covered(&self, page: u64, w0: u64, w1: u64) -> Vec<Subs> {
        let Some(mask) = self.region(page).mask(page) else { return Vec::new() };
        let watched = (w0 / 64..w1.div_ceil(64)).any(|m| {
            let lo = (m * 64).max(w0) - m * 64;
            let hi = ((m + 1) * 64).min(w1) - m * 64;
            let range = (u64::MAX >> (64 - (hi - lo))) << lo;
            mask[m as usize].load(Ordering::SeqCst) & range != 0
        });
        if !watched {
            return Vec::new();
        }
        let lists = self.lists.lock().unwrap();
        let Some(ranges) = lists.pages.get(&page) else { return Vec::new() };
        ranges
            .iter()
            .filter(|r| r.words.start < w1 && w0 < r.words.end)
            .map(|r| Arc::clone(&r.subs))
            .collect()
    }

    /// Delivers the write `[offset, offset+len)` to each subscription in
    /// `ranges` in registration order.
    fn deliver(
        &self,
        ranges: &[Subs],
        offset: u64,
        len: u64,
        fired_at_ns: u64,
        read_word: &dyn Fn(u64) -> u64,
        read_range: &dyn Fn(u64, u64) -> Vec<u8>,
    ) {
        let carry = self.carry_trigger.load(Ordering::Relaxed) != 0;
        // Each range's word or bytes, read when a subscriber first needs
        // them.
        let mut reads: Vec<(Option<u64>, Option<Vec<u8>>)> = vec![(None, None); ranges.len()];
        let mut one = |at: usize, s: &Subscription| {
            let (word, data) = &mut reads[at];
            let event = match s.kind {
                SubKind::Changed => Event::Changed {
                    sub: s.id,
                    addr: s.addr,
                    len: s.len,
                    trigger: carry.then(|| {
                        let t0 = offset.max(s.offset);
                        let t1 = (offset + len).min(s.offset + s.len);
                        (FarAddr(s.addr.0 + (t0 - s.offset)), t1 - t0)
                    }),
                    fired_at_ns,
                },
                SubKind::Equal { value } => {
                    if *word.get_or_insert_with(|| read_word(s.offset)) != value {
                        return;
                    }
                    Event::Equal { sub: s.id, addr: s.addr, value, fired_at_ns }
                }
                SubKind::ChangedData => Event::ChangedData {
                    sub: s.id,
                    addr: s.addr,
                    data: data.get_or_insert_with(|| read_range(s.offset, s.len)).clone(),
                    fired_at_ns,
                },
            };
            s.sink.deliver(event);
        };
        if let [subs] = ranges {
            subs.iter().for_each(|s| one(0, s));
            return;
        }
        let mut all: Vec<(usize, &Subscription)> =
            (0..).zip(ranges).flat_map(|(at, subs)| subs.iter().map(move |s| (at, s))).collect();
        all.sort_unstable_by_key(|(_, s)| s.seq);
        all.into_iter().for_each(|(at, s)| one(at, s));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sink() -> Arc<EventSink> {
        EventSink::new(DeliveryPolicy::RELIABLE, 42)
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        assert!(SubscriptionTable::validate_range(FarAddr(8), 8).is_ok());
        assert!(SubscriptionTable::validate_range(FarAddr(4), 8).is_err());
        assert!(SubscriptionTable::validate_range(FarAddr(8), 4).is_err());
        assert!(SubscriptionTable::validate_range(FarAddr(8), 0).is_err());
        // Crossing a page boundary is rejected.
        assert!(SubscriptionTable::validate_range(FarAddr(PAGE - 8), 16).is_err());
        // A full page starting on a boundary is fine.
        assert!(SubscriptionTable::validate_range(FarAddr(PAGE), PAGE).is_ok());
    }

    #[test]
    fn changed_fires_on_overlap_only() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        t.register(FarAddr(64), 64, 16, SubKind::Changed, s.clone()).unwrap();
        t.fire(80, 8, 1, &|_| 0, &|_, _| vec![]);
        assert!(s.try_recv().is_none(), "non-overlapping write must not fire");
        t.fire(72, 8, 2, &|_| 0, &|_, _| vec![]);
        match s.try_recv().unwrap() {
            Event::Changed { addr, len, trigger, .. } => {
                assert_eq!(addr, FarAddr(64));
                assert_eq!(len, 16);
                assert_eq!(trigger, Some((FarAddr(72), 8)));
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn equal_fires_only_on_match() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        t.register(FarAddr(8), 8, 8, SubKind::Equal { value: 0 }, s.clone()).unwrap();
        t.fire(8, 8, 1, &|_| 7, &|_, _| vec![]);
        assert!(s.try_recv().is_none());
        t.fire(8, 8, 2, &|_| 0, &|_, _| vec![]);
        assert!(matches!(s.try_recv(), Some(Event::Equal { value: 0, .. })));
    }

    #[test]
    fn changed_data_carries_contents() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        t.register(FarAddr(16), 16, 8, SubKind::ChangedData, s.clone()).unwrap();
        t.fire(16, 8, 1, &|_| 0, &|off, len| {
            assert_eq!((off, len), (16, 8));
            vec![9; 8]
        });
        assert!(matches!(
            s.try_recv(),
            Some(Event::ChangedData { data, .. }) if data == vec![9; 8]
        ));
    }

    #[test]
    fn coalescing_merges_pending_events() {
        let t = SubscriptionTable::new(1 << 16);
        let s = EventSink::new(DeliveryPolicy::COALESCING, 1);
        t.register(FarAddr(8), 8, 8, SubKind::Changed, s.clone()).unwrap();
        for i in 0..10 {
            t.fire(8, 8, i, &|_| 0, &|_, _| vec![]);
        }
        assert_eq!(s.pending(), 1);
        let stats = s.stats();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.coalesced, 9);
        // The pending event is the most recent one.
        assert_eq!(s.try_recv().unwrap().fired_at_ns(), 9);
    }

    #[test]
    fn spike_drop_produces_lost_warning() {
        let t = SubscriptionTable::new(1 << 16);
        let s = EventSink::new(
            DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 3 },
            1,
        );
        t.register(FarAddr(8), 8, 8, SubKind::Changed, s.clone()).unwrap();
        for i in 0..8 {
            t.fire(8, 8, i, &|_| 0, &|_, _| vec![]);
        }
        assert!(matches!(s.try_recv(), Some(Event::Lost { count: 5 })));
        // After the warning, the surviving events drain normally.
        assert_eq!(s.drain().len(), 3);
    }

    #[test]
    fn best_effort_drops_silently() {
        let t = SubscriptionTable::new(1 << 16);
        let s = EventSink::new(
            DeliveryPolicy { drop_ppm: 500_000, coalesce: false, max_queue: 1 << 20 },
            7,
        );
        t.register(FarAddr(8), 8, 8, SubKind::Changed, s.clone()).unwrap();
        for i in 0..1000 {
            t.fire(8, 8, i, &|_| 0, &|_, _| vec![]);
        }
        let st = s.stats();
        assert!(st.silent_dropped > 300 && st.silent_dropped < 700);
        assert_eq!(st.delivered + st.silent_dropped, 1000);
    }

    #[test]
    fn unregister_stops_events() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        let id = t.register(FarAddr(8), 8, 8, SubKind::Changed, s.clone()).unwrap();
        t.unregister(id, 0).unwrap();
        assert_eq!(t.unregister(id, 0), Err(FabricError::NoSuchSubscription));
        t.fire(8, 8, 1, &|_| 0, &|_, _| vec![]);
        assert!(s.try_recv().is_none());
        assert!(t.is_empty());
    }

    /// `fire` with a write to `[off, off+len)` whose post-write words all
    /// read `fill`.
    fn write(t: &SubscriptionTable, off: u64, len: u64, at: u64, fill: u8) {
        t.fire(off, len, at, &|_| u64::from_le_bytes([fill; 8]), &|_, l| vec![fill; l as usize]);
    }

    #[test]
    fn an_unwatched_word_of_a_watched_page_delivers_nothing() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        t.register(FarAddr(64), 64, 8, SubKind::Changed, s.clone()).unwrap();
        t.register(FarAddr(64), 64, 8, SubKind::ChangedData, s.clone()).unwrap();
        assert!(t.region(0).is_armed(0));
        for off in [0, 56, 72, 4088] {
            write(&t, off, 8, 1, 1);
        }
        // Bytes next to the watched word, not in it.
        write(&t, 60, 4, 1, 1);
        write(&t, 72, 1, 1, 1);
        assert_eq!(s.pending(), 0);
        assert_eq!(s.stats(), SinkStats::default());
    }

    #[test]
    fn a_watched_word_reaches_each_subscriber_once_in_registration_order() {
        let t = SubscriptionTable::new(1 << 16);
        let (s, other) = (sink(), sink());
        // Four ranges over words 8..11, registered out of range order.
        let ids = [
            t.register(FarAddr(64), 64, 8, SubKind::ChangedData, s.clone()).unwrap(),
            t.register(FarAddr(64), 64, 24, SubKind::Changed, s.clone()).unwrap(),
            t.register(FarAddr(64), 64, 8, SubKind::ChangedData, s.clone()).unwrap(),
            t.register(FarAddr(72), 72, 8, SubKind::Changed, other.clone()).unwrap(),
            t.register(FarAddr(72), 72, 16, SubKind::ChangedData, s.clone()).unwrap(),
        ];
        write(&t, 64, 24, 7, 5);
        let got = s.drain();
        let subs: Vec<SubId> = got.iter().filter_map(Event::sub).collect();
        assert_eq!(subs, [ids[0], ids[1], ids[2], ids[4]]);
        let data: Vec<&[u8]> = got
            .iter()
            .filter_map(|e| match e {
                Event::ChangedData { data, .. } => Some(&data[..]),
                _ => None,
            })
            .collect();
        assert_eq!(data, [&[5; 8][..], &[5; 8], &[5; 16]], "the data after the write");
        assert_eq!(other.drain().iter().filter_map(Event::sub).collect::<Vec<_>>(), [ids[3]]);
        // A one-word write reaches only that word's subscribers.
        write(&t, 80, 8, 8, 6);
        let subs: Vec<SubId> = s.drain().iter().filter_map(Event::sub).collect();
        assert_eq!(subs, [ids[1], ids[4]]);
        assert_eq!(other.pending(), 0);
    }

    #[test]
    fn a_write_over_two_pages_fires_only_the_armed_one() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        let id = t.register(FarAddr(PAGE), PAGE, 8, SubKind::Changed, s.clone()).unwrap();
        assert!(!t.region(0).is_armed(0) && t.region(1).is_armed(1));
        write(&t, PAGE - 16, 32, 1, 1);
        match s.drain().as_slice() {
            [Event::Changed { sub, trigger, .. }] => {
                assert_eq!(*sub, id);
                assert_eq!(*trigger, Some((FarAddr(PAGE), 8)));
            }
            other => panic!("unexpected events {other:?}"),
        }
    }

    #[test]
    fn the_last_subscription_disarms_its_page_and_a_new_one_rearms_it() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        let a = t.register(FarAddr(8), 8, 8, SubKind::Changed, s.clone()).unwrap();
        let b = t.register(FarAddr(8), 8, 16, SubKind::Changed, s.clone()).unwrap();
        t.unregister(a, 0).unwrap();
        assert!(t.region(0).is_armed(0), "b still watches the page");
        write(&t, 8, 8, 1, 1);
        assert_eq!(s.drain().len(), 1);
        t.unregister(b, 0).unwrap();
        assert!(!t.region(0).is_armed(0));
        let mask = t.region(0).mask(0).unwrap();
        assert!(mask.iter().all(|m| m.load(Ordering::SeqCst) == 0));
        write(&t, 8, 16, 2, 1);
        assert_eq!(s.pending(), 0);
        let c = t.register(FarAddr(16), 16, 8, SubKind::Changed, s.clone()).unwrap();
        assert!(t.region(0).is_armed(0));
        write(&t, 8, 16, 3, 1);
        assert_eq!(s.drain().iter().filter_map(Event::sub).collect::<Vec<_>>(), [c]);
    }

    #[test]
    fn equal_subscribers_of_one_word_fire_only_on_their_value() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        let word = |v: u64| u64::from_le_bytes([v as u8; 8]);
        let ids: Vec<SubId> = (1..=3)
            .map(|v| t.register(FarAddr(8), 8, 8, SubKind::Equal { value: word(v) }, s.clone()))
            .collect::<Result<_>>()
            .unwrap();
        write(&t, 8, 8, 1, 2);
        assert_eq!(s.drain().iter().filter_map(Event::sub).collect::<Vec<_>>(), [ids[1]]);
        write(&t, 8, 8, 2, 9);
        assert_eq!(s.pending(), 0);
    }

    /// Parks a thread in `wait_pending(5 s)`, runs `wake` once it is
    /// parked, and returns what the wait returned and how long it took.
    fn parked_wait(s: &Arc<EventSink>, wake: impl FnOnce()) -> (bool, std::time::Duration) {
        let waiter = {
            let s = s.clone();
            std::thread::spawn(move || {
                let t0 = std::time::Instant::now();
                (s.wait_pending(std::time::Duration::from_secs(5)), t0.elapsed())
            })
        };
        while s.inner.lock().unwrap().parked == 0 {
            std::thread::yield_now();
        }
        wake();
        waiter.join().unwrap()
    }

    #[test]
    fn a_parked_waiter_is_woken_by_a_delivery_and_by_a_loss() {
        let t = SubscriptionTable::new(1 << 16);
        let s = sink();
        t.register(FarAddr(8), 8, 8, SubKind::Changed, s.clone()).unwrap();
        let (woken, took) = parked_wait(&s, || write(&t, 8, 8, 1, 1));
        assert!(woken && took < std::time::Duration::from_secs(2), "{woken} after {took:?}");
        assert_eq!(s.drain().len(), 1);
        // A queue of zero drops every event: the waiter wakes to `Lost`.
        let lossy = EventSink::new(DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 0 }, 1);
        t.register(FarAddr(16), 16, 8, SubKind::Changed, lossy.clone()).unwrap();
        let (woken, took) = parked_wait(&lossy, || write(&t, 16, 8, 2, 1));
        assert!(woken && took < std::time::Duration::from_secs(2), "{woken} after {took:?}");
        assert_eq!(lossy.drain(), [Event::Lost { count: 1 }]);
        assert_eq!(lossy.inner.lock().unwrap().parked, 0);
    }
}
