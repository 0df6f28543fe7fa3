//! Verification hooks: the fabric side of `farmem-check`.
//!
//! A [`CheckObserver`] installed with [`Fabric::install_check_observer`]
//! sees every verb *attempt* (the scheduling gate a bounded-interleaving
//! explorer blocks on) and every word-level memory access (the event
//! stream a happens-before race detector consumes), plus notification
//! receipts (which carry synchronization in the §4.3 protocols).
//!
//! The discipline mirrors `fabric::trace`: with no observer installed the
//! only cost on any verb path is one relaxed atomic load, and an observer
//! must never touch the virtual clock or the [`AccessStats`] books —
//! checked by `client::tests::check_hooks_add_zero_accesses_and_time`.
//!
//! What the stream means (and what it deliberately does not):
//!
//! * every access is **word-granular at the node** — single-word verbs
//!   and atomics can never tear, but a multi-word [`AccessKind::Read`] /
//!   [`AccessKind::Write`] is a sequence of word accesses with no
//!   snapshot guarantee (the torn-read hazard the checker looks for);
//! * accesses are reported **only when the node executed them** — an
//!   attempt killed by fault injection (fail-before-execution) emits a
//!   gate but no access, matching what actually hit far memory;
//! * the observer runs inside the verb, so blocking in [`gate`]
//!   serializes clients — exactly what a deterministic explorer wants.
//!
//! [`Fabric::install_check_observer`]: crate::Fabric::install_check_observer
//! [`AccessStats`]: crate::AccessStats
//! [`gate`]: CheckObserver::gate

use crate::addr::FarAddr;

/// How a far-memory access interacts with the word(s) it touches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Plain read. `len == 8` is a word verb (atomic at the node);
    /// longer ranges are word sequences that can tear.
    Read,
    /// Plain write; same granularity caveat as [`AccessKind::Read`].
    Write,
    /// Read at an address the issuer only *guesses* is live
    /// ([`PipeOp::ReadSpeculative`](crate::PipeOp::ReadSpeculative)):
    /// the bytes are dropped uninterpreted unless a pointer obtained
    /// through the ordinary, ordered path turns out to name the same
    /// address. It may overlap any concurrent write by design, so it
    /// neither races nor synchronizes; what the issuer does with a
    /// validated answer is the history checker's business. Sent alone or
    /// as a bare descriptor, with no earlier op of a fenced batch to name
    /// its address, it still books as a read and is reported as this kind.
    SpeculativeRead,
    /// Atomic observation that did not mutate: a CAS that lost, or a
    /// guard-word probe of a guarded indirect verb.
    AtomicRead,
    /// Successful atomic mutation: CAS hit, FAA, swap, guarded add —
    /// the verbs that *publish* synchronization (release semantics).
    AtomicRmw,
}

/// One far-memory access, as seen by the node that executed it.
#[derive(Clone, Copy, Debug)]
pub struct Access {
    /// Issuing client.
    pub client: u32,
    /// Global start address.
    pub addr: FarAddr,
    /// Bytes touched.
    pub len: u64,
    /// Access class (see [`AccessKind`]).
    pub kind: AccessKind,
}

/// Observer interface for `farmem-check` (and tests). All methods have
/// empty defaults so an observer implements only what it needs.
pub trait CheckObserver: Send + Sync {
    /// Called at the top of every verb attempt, before fault injection
    /// and before any node-side execution. A deterministic scheduler
    /// blocks here until it grants `_client` its next step.
    fn gate(&self, _client: u32) {}

    /// Called after the node executed a memory access.
    fn access(&self, _access: &Access) {}

    /// Called when `_client` drains a notification for `[_addr,
    /// _addr+_len)` from its sink: the §4.3 edge a waiter synchronizes
    /// through before re-validating with an atomic.
    fn notified(&self, _client: u32, _addr: FarAddr, _len: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl CheckObserver for Nop {}

    #[test]
    fn default_methods_are_callable_noops() {
        let o = Nop;
        o.gate(0);
        o.access(&Access { client: 0, addr: FarAddr(64), len: 8, kind: AccessKind::Read });
        o.notified(0, FarAddr(64), 8);
    }
}
