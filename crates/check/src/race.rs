//! Vector-clock happens-before race detection over fabric accesses.
//!
//! # Happens-before model
//!
//! The fabric gives a far-memory program exactly three sources of
//! cross-client ordering, and the detector recognises exactly those (see
//! DESIGN.md §9 for the full rationale):
//!
//! 1. **Fabric atomics.** A successful CAS / FAA / guarded RMW
//!    ([`AccessKind::AtomicRmw`]) is an acquire *and* release on its
//!    word: the client joins the word's `sync` clock, then publishes its
//!    own clock back into it. A failed CAS or a guard probe
//!    ([`AccessKind::AtomicRead`]) is acquire-only.
//! 2. **Reads-from on published words.** A plain read joins the word's
//!    `sync` clock. The memory node serialises word access, so a read
//!    that observes a CAS-published value really is ordered after the
//!    publishing RMW — this is what makes "CAS the pointer, then read
//!    through it" and "scan the registry slots" race-free without any
//!    lock. Plain *writes* never publish: writing a word tells nobody
//!    anything.
//! 3. **Notifications.** Delivery of a notification for a word joins
//!    that word's `sync` clock: the subscriber is ordered after the
//!    (atomic) update that fired it. Plain-write triggers order only
//!    through a subsequent atomic, and the detector makes no exception
//!    for them.
//!
//! The simulated-scheduler order itself creates **no** edges: that two
//! verbs happened to be serialised by the explorer does not make a real
//! fabric serialise them.
//!
//! # What is flagged
//!
//! Per word, with `⊀` meaning "not ordered by the model above":
//!
//! * plain write ⊀ plain write — [`RaceKind::WriteWrite`];
//! * plain read ⊀ plain write (either order) — [`RaceKind::ReadWrite`],
//!   or [`RaceKind::TornRead`] when the read is one word of a
//!   multi-word access (the classic torn pair);
//! * plain write ⊀ atomic access — [`RaceKind::AtomicPlain`]: blind
//!   plain stores to a word others CAS (e.g. a lock released without
//!   its fencing-token check) corrupt the atomic protocol;
//! * plain read vs atomic RMW is **allowed**: optimistic probe loops and
//!   version-validated multi-word scans read words that are concurrently
//!   CAS'd by design, and the node serialises each word access;
//! * a [`AccessKind::SpeculativeRead`] is **never** flagged and orders
//!   nothing: its issuer promises to drop the bytes unless a pointer it
//!   reads through the ordered path names the same address, so the read
//!   may overlap any write by design. Whether the promise is kept is a
//!   question about *values* — the linearizability checker's, not this
//!   detector's (mutant `m15_hint_trusted_without_tree`).

use std::collections::{BTreeSet, HashMap};
use std::sync::Mutex;

use farmem_fabric::{Access, AccessKind, FarAddr};

use crate::vc::{Epoch, VectorClock};

const WORD: u64 = 8;

/// Classification of a detected race (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RaceKind {
    /// Two unordered plain writes to the same word.
    WriteWrite,
    /// A plain read unordered with a plain write of the same word.
    ReadWrite,
    /// Like [`RaceKind::ReadWrite`], but the read was one word of a
    /// multi-word access: the access can observe a torn value.
    TornRead,
    /// A plain write unordered with an atomic access of the same word.
    AtomicPlain,
}

impl RaceKind {
    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            RaceKind::WriteWrite => "write-write",
            RaceKind::ReadWrite => "read-write",
            RaceKind::TornRead => "torn-read",
            RaceKind::AtomicPlain => "atomic-plain",
        }
    }
}

/// One deduplicated race report.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Race {
    /// Byte address of the conflicting word.
    pub word: u64,
    /// Race classification.
    pub kind: RaceKind,
    /// The two clients involved, smaller id first.
    pub clients: (u32, u32),
}

impl Race {
    /// Stable one-line rendering, e.g. `write-write @0x40 c1<->c2`.
    pub fn render(&self) -> String {
        format!("{} @{:#x} c{}<->c{}", self.kind.label(), self.word, self.clients.0, self.clients.1)
    }
}

#[derive(Default)]
struct WordState {
    /// Clock released into the word by atomic RMWs.
    sync: VectorClock,
    /// Most recent plain write.
    last_write: Option<Epoch>,
    /// Most recent atomic RMW (the write half of the protocol).
    last_atomic: Option<Epoch>,
    /// Plain reads since the last plain write (one epoch per client).
    reads: Vec<Epoch>,
}

#[derive(Default)]
struct DetectorState {
    clients: HashMap<u32, VectorClock>,
    words: HashMap<u64, WordState>,
    found: BTreeSet<Race>,
}

/// A happens-before race detector fed one [`Access`] at a time.
///
/// The detector is installed for a single explorer run (one fresh fabric)
/// and accumulates deduplicated [`Race`]s. It holds an internal mutex:
/// under the explorer exactly one client runs at a time, so there is no
/// contention, and outside the explorer the lock makes it safe anyway.
#[derive(Default)]
pub struct RaceDetector {
    state: Mutex<DetectorState>,
}

impl RaceDetector {
    /// A fresh detector with no knowledge of any client or word.
    pub fn new() -> RaceDetector {
        RaceDetector::default()
    }

    /// Feeds one fabric access (multi-word accesses are checked per word).
    pub fn on_access(&self, a: &Access) {
        let mut st = self.state.lock().unwrap();
        let range = a.len > WORD || !a.addr.0.is_multiple_of(WORD);
        let first = a.addr.0 / WORD;
        let last = (a.addr.0 + a.len.max(1) - 1) / WORD;
        let time = st.clients.entry(a.client).or_default().tick(a.client);
        for w in first..=last {
            st.step(a.client, time, w * WORD, a.kind, range);
        }
    }

    /// Feeds a notification delivery: the subscriber joins the covered
    /// words' `sync` clocks (edge 3 of the model).
    pub fn on_notified(&self, client: u32, addr: FarAddr, len: u64) {
        let mut st = self.state.lock().unwrap();
        let first = addr.0 / WORD;
        let last = (addr.0 + len.max(1) - 1) / WORD;
        for w in first..=last {
            if let Some(ws) = st.words.get(&(w * WORD)) {
                let sync = ws.sync.clone();
                st.clients.entry(client).or_default().join(&sync);
            }
        }
    }

    /// All races found so far, deduplicated and in stable order.
    pub fn races(&self) -> Vec<Race> {
        self.state.lock().unwrap().found.iter().cloned().collect()
    }
}

impl DetectorState {
    fn step(&mut self, client: u32, time: u64, word: u64, kind: AccessKind, range: bool) {
        let ws = self.words.entry(word).or_default();
        let vc = self.clients.entry(client).or_default();
        // Acquire: every access that can observe a published value joins
        // the word's release clock (see module docs, edges 1 and 2) — a
        // speculative read observes nothing it is allowed to act on.
        if kind != AccessKind::SpeculativeRead {
            vc.join(&ws.sync);
        }
        let ordered = |vc: &VectorClock, e: &Epoch| e.client == client || vc.covers(e.client, e.time);
        let mut hits: Vec<(RaceKind, u32)> = Vec::new();
        match kind {
            AccessKind::Read => {
                if let Some(w) = ws.last_write {
                    if !ordered(vc, &w) {
                        hits.push((if range { RaceKind::TornRead } else { RaceKind::ReadWrite }, w.client));
                    }
                }
                ws.reads.retain(|e| e.client != client);
                ws.reads.push(Epoch { client, time });
            }
            AccessKind::Write => {
                if let Some(w) = ws.last_write {
                    if !ordered(vc, &w) {
                        hits.push((RaceKind::WriteWrite, w.client));
                    }
                }
                if let Some(aw) = ws.last_atomic {
                    if !ordered(vc, &aw) {
                        hits.push((RaceKind::AtomicPlain, aw.client));
                    }
                }
                for r in &ws.reads {
                    if !ordered(vc, r) {
                        hits.push((if range { RaceKind::TornRead } else { RaceKind::ReadWrite }, r.client));
                    }
                }
                ws.last_write = Some(Epoch { client, time });
                // Reads ordered before this write are subsumed: any later
                // write ordered after us is ordered after them too, and an
                // unordered later write already races with us.
                ws.reads.clear();
            }
            // Conflicts with nothing, and leaves no trace a later write
            // could conflict with.
            AccessKind::SpeculativeRead => {}
            AccessKind::AtomicRead | AccessKind::AtomicRmw => {
                if let Some(w) = ws.last_write {
                    if !ordered(vc, &w) {
                        hits.push((RaceKind::AtomicPlain, w.client));
                    }
                }
                if kind == AccessKind::AtomicRmw {
                    // Release: publish this client's history (including
                    // this very access) into the word.
                    ws.sync.join(vc);
                    ws.last_atomic = Some(Epoch { client, time });
                }
            }
        }
        for (kind, other) in hits {
            let clients = (client.min(other), client.max(other));
            self.found.insert(Race { word, kind, clients });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(client: u32, kind: AccessKind, addr: u64, len: u64) -> Access {
        Access { client, addr: FarAddr(addr), len, kind }
    }

    #[test]
    fn unsynchronized_write_write_flags() {
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::Write, 0x100, 8));
        d.on_access(&acc(2, AccessKind::Write, 0x100, 8));
        let r = d.races();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, RaceKind::WriteWrite);
        assert_eq!(r[0].clients, (1, 2));
    }

    #[test]
    fn rmw_chain_orders_plain_accesses() {
        // c1: write data; RMW lock. c2: RMW lock (joins c1); write data.
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::Write, 0x100, 8));
        d.on_access(&acc(1, AccessKind::AtomicRmw, 0x200, 8));
        d.on_access(&acc(2, AccessKind::AtomicRmw, 0x200, 8));
        d.on_access(&acc(2, AccessKind::Write, 0x100, 8));
        assert!(d.races().is_empty());
    }

    #[test]
    fn read_through_published_pointer_is_ordered() {
        // c1 initialises an object with plain writes, then publishes its
        // address with a CAS; c2 plain-reads the pointer word (joining the
        // publish) and then the object. No races: edge 2 of the model.
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::Write, 0x300, 8)); // object init
        d.on_access(&acc(1, AccessKind::AtomicRmw, 0x200, 8)); // publish ptr
        d.on_access(&acc(2, AccessKind::Read, 0x200, 8)); // read ptr
        d.on_access(&acc(2, AccessKind::Read, 0x300, 8)); // read object
        assert!(d.races().is_empty());
    }

    #[test]
    fn blind_store_to_cas_word_flags_atomic_plain() {
        // c1 plain-writes the lock word (unfenced release); c2's later CAS
        // is unordered with it.
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::AtomicRmw, 0x200, 8)); // acquire
        d.on_access(&acc(2, AccessKind::AtomicRead, 0x200, 8)); // failed CAS
        d.on_access(&acc(1, AccessKind::Write, 0x200, 8)); // blind release
        d.on_access(&acc(2, AccessKind::AtomicRmw, 0x200, 8)); // acquire
        let r = d.races();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, RaceKind::AtomicPlain);
    }

    #[test]
    fn multi_word_read_against_unordered_writes_is_torn() {
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::Write, 0x100, 8));
        d.on_access(&acc(2, AccessKind::Read, 0x100, 16));
        let r = d.races();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].kind, RaceKind::TornRead);
    }

    #[test]
    fn speculative_read_of_a_concurrently_written_range_is_not_a_race() {
        for (kind, flagged) in [(AccessKind::SpeculativeRead, false), (AccessKind::Read, true)] {
            let d = RaceDetector::new();
            d.on_access(&acc(1, AccessKind::Write, 0x100, 16));
            d.on_access(&acc(2, kind, 0x100, 16));
            d.on_access(&acc(1, AccessKind::Write, 0x100, 16));
            assert_eq!(!d.races().is_empty(), flagged, "{kind:?}");
        }
    }

    #[test]
    fn probe_read_of_cas_word_is_allowed() {
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::AtomicRmw, 0x200, 8));
        d.on_access(&acc(2, AccessKind::Read, 0x200, 8)); // optimistic probe
        d.on_access(&acc(1, AccessKind::AtomicRmw, 0x200, 8));
        assert!(d.races().is_empty());
    }

    #[test]
    fn notification_joins_firing_update() {
        // c1 plain-writes data then RMWs the watched word; c2 is notified
        // on the watched word and then plain-reads the data: ordered.
        let d = RaceDetector::new();
        d.on_access(&acc(1, AccessKind::Write, 0x100, 8));
        d.on_access(&acc(1, AccessKind::AtomicRmw, 0x200, 8));
        d.on_notified(2, FarAddr(0x200), 8);
        d.on_access(&acc(2, AccessKind::Write, 0x100, 8));
        assert!(d.races().is_empty());
    }
}
