//! Deterministic fault injection and transparent retry (chaos fabric).
//!
//! Far memory sits in a separate fault domain (§2): nodes fail
//! independently of clients, and real one-sided fabrics surface *transient*
//! completion errors and timeouts that clients are expected to retry. The
//! seed fabric modelled only permanent node failure; this module adds the
//! rest of the taxonomy so every experiment can also be audited under
//! faults:
//!
//! * **transient verb failures** — a request is dropped before the node
//!   executes it and the client sees [`FabricError::Transient`]
//!   (retry-safe by construction: *fail-before-execution*);
//! * **timeouts** — like a transient failure, but the client burns
//!   [`FaultPlan::timeout_ns`] of virtual time before noticing
//!   ([`FabricError::Timeout`]);
//! * **latency spikes** — the verb succeeds but costs
//!   [`FaultPlan::spike_ns`] extra virtual nanoseconds;
//! * **timed node crash windows** — scheduled on a
//!   [`MemoryNode`](crate::node::MemoryNode) via
//!   [`schedule_crash`](crate::node::MemoryNode::schedule_crash); any verb
//!   whose arrival falls inside a window fails with
//!   [`FabricError::NodeFailed`], and the node recovers once virtual time
//!   moves past the window.
//!
//! All randomness is a per-client xorshift64* stream seeded from
//! `FaultPlan::seed ^ client-id`, so a run is a pure function of the
//! configuration: the same seed injects the same faults at the same verbs.
//!
//! The injection model is deliberately *fail-before-execution*: an injected
//! fault drops the request before the node performs any side effect, which
//! makes every verb — including non-idempotent atomics like `faa` and
//! `saai` — safe to retry. Real fabrics can also lose *completions* of
//! executed requests; modelling that would make blind retry of atomics
//! unsound and is out of scope (see DESIGN.md, "Fault model").
//!
//! [`FabricError::Transient`]: crate::error::FabricError::Transient
//! [`FabricError::Timeout`]: crate::error::FabricError::Timeout
//! [`FabricError::NodeFailed`]: crate::error::FabricError::NodeFailed

/// A seeded, per-verb fault-injection plan, attached to a
/// [`FabricConfig`](crate::fabric::FabricConfig).
///
/// Probabilities are in parts per million and are evaluated independently
/// per verb *attempt* (a retried verb re-rolls). The plan is `Copy` so the
/// config stays cheap to clone; timed node crash windows, which need
/// per-node state, live on the nodes themselves
/// ([`schedule_crash`](crate::node::MemoryNode::schedule_crash)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Probability (ppm) that a verb attempt fails with
    /// [`Transient`](crate::error::FabricError::Transient).
    pub transient_ppm: u32,
    /// Probability (ppm) that a verb attempt fails with
    /// [`Timeout`](crate::error::FabricError::Timeout).
    pub timeout_ppm: u32,
    /// Probability (ppm) that a verb attempt suffers a latency spike.
    pub spike_ppm: u32,
    /// Virtual time burned by one timeout before the client notices.
    pub timeout_ns: u64,
    /// Extra virtual latency of one spike.
    pub spike_ns: u64,
    /// Seed of the deterministic fault stream (mixed with the client id).
    pub seed: u64,
    /// Node to permanently crash-stop at [`crash_at_ns`](FaultPlan::crash_at_ns)
    /// (applied when the fabric is built; ignored while `crash_at_ns` is
    /// `u64::MAX`).
    pub crash_node: u32,
    /// Virtual time of the scheduled permanent crash-stop of
    /// [`crash_node`](FaultPlan::crash_node); `u64::MAX` (the default)
    /// schedules none. Unlike the transient taxonomy above this fault
    /// never heals: verbs fail with
    /// [`FabricError::NodeLost`](crate::error::FabricError::NodeLost) and
    /// the client must fail over (or give up immediately), not retry.
    pub crash_at_ns: u64,
}

impl FaultPlan {
    /// No faults at all — the default.
    pub const NONE: FaultPlan = FaultPlan {
        transient_ppm: 0,
        timeout_ppm: 0,
        spike_ppm: 0,
        timeout_ns: 50_000,
        spike_ns: 20_000,
        seed: 0xfa17,
        crash_node: 0,
        crash_at_ns: u64::MAX,
    };

    /// A plan that permanently crash-stops logical node `node` at virtual
    /// time `at_ns` (and injects nothing else). Compose with other fault
    /// kinds via [`with_crash_permanent`](FaultPlan::with_crash_permanent).
    pub fn crash_permanent(node: crate::addr::NodeId, at_ns: u64) -> FaultPlan {
        FaultPlan::NONE.with_crash_permanent(node, at_ns)
    }

    /// Same plan, plus a permanent crash-stop of `node` at `at_ns` — e.g.
    /// a chaos plan of transient faults with one mid-workload node loss.
    pub fn with_crash_permanent(self, node: crate::addr::NodeId, at_ns: u64) -> FaultPlan {
        FaultPlan { crash_node: node.0, crash_at_ns: at_ns, ..self }
    }

    /// A plan injecting transient failures (two thirds) and timeouts (one
    /// third) at `ppm` parts per million per verb attempt, plus spikes at
    /// half that rate.
    pub fn transient(ppm: u32) -> FaultPlan {
        FaultPlan {
            transient_ppm: ppm - ppm / 3,
            timeout_ppm: ppm / 3,
            spike_ppm: ppm / 2,
            ..FaultPlan::NONE
        }
    }

    /// Same plan, different deterministic fault stream.
    pub fn with_seed(self, seed: u64) -> FaultPlan {
        FaultPlan { seed, ..self }
    }

    /// Whether any fault kind has a nonzero probability.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.transient_ppm > 0 || self.timeout_ppm > 0 || self.spike_ppm > 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::NONE
    }
}

/// Client-side retry policy for transient verb failures.
///
/// Every public verb of [`FabricClient`](crate::client::FabricClient) is
/// wrapped transparently: on a transient error
/// ([`FabricError::is_transient`](crate::error::FabricError::is_transient))
/// the client backs off exponentially — charged to its *virtual* clock, so
/// backoff also drives recovery from timed node crash windows and lease
/// expiry in `farmem-core` — and reissues the verb, up to
/// [`max_attempts`](RetryPolicy::max_attempts) attempts. Retries and
/// give-ups are counted in
/// [`AccessStats`](crate::stats::AccessStats::retries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per verb (1 = no retry).
    pub max_attempts: u32,
    /// First backoff, in virtual nanoseconds.
    pub base_backoff_ns: u64,
    /// Backoff cap; the delay doubles until it reaches this.
    pub max_backoff_ns: u64,
    /// Add a seeded random jitter of up to half the current backoff.
    pub jitter: bool,
}

impl RetryPolicy {
    /// The default policy: 8 attempts, 1 µs → 64 µs exponential backoff
    /// with jitter. The full backoff budget (~127 µs plus jitter) is what a
    /// crash window must be shorter than for transparent recovery.
    pub const DEFAULT: RetryPolicy = RetryPolicy {
        max_attempts: 8,
        base_backoff_ns: 1_000,
        max_backoff_ns: 64_000,
        jitter: true,
    };

    /// No retries: every transient fault surfaces immediately.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        base_backoff_ns: 0,
        max_backoff_ns: 0,
        jitter: false,
    };
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::DEFAULT
    }
}

/// The per-client deterministic fault stream: a xorshift64* generator
/// (same family as the notification sinks' drop stream).
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultRng {
    state: u64,
}

impl FaultRng {
    pub(crate) fn new(seed: u64) -> FaultRng {
        // Scramble the raw seed (splitmix64 finalizer): adjacent seeds —
        // plan seed ^ client id produces runs of them — must yield
        // unrelated streams, and xorshift needs a nonzero state.
        FaultRng { state: crate::splitmix64(seed) | 1 }
    }

    pub(crate) fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A roll in `[0, 1_000_000)` for ppm comparisons.
    pub(crate) fn roll_ppm(&mut self) -> u64 {
        self.next() % 1_000_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_disabled() {
        assert!(!FaultPlan::NONE.enabled());
        assert!(FaultPlan::transient(10_000).enabled());
    }

    #[test]
    fn transient_split_sums_to_rate() {
        let p = FaultPlan::transient(9_999);
        assert_eq!(p.transient_ppm + p.timeout_ppm, 9_999);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let mut a = FaultRng::new(42);
        let mut b = FaultRng::new(42);
        let mut c = FaultRng::new(43);
        let sa: Vec<u64> = (0..8).map(|_| a.roll_ppm()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.roll_ppm()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.roll_ppm()).collect();
        assert_eq!(sa, sb, "same seed, same stream");
        assert_ne!(sa, sc, "different seed, different stream");
    }
}
