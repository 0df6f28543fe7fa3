//! What a workload has to provide so the runner can time it.

use crate::counts::Counters;
use crate::report::Results;
use crate::round::{Mode, RoundOut, SpanLog, SpannedOut};
use crate::Fail;

/// Fabric every workload runs on: 4 nodes × 1 GiB (lazily committed by
/// the OS), default (blocked) striping, default cost model, no faults,
/// no replication. The program's tracer and sampler stay off.
pub const NODES: u32 = 4;
/// Bytes of far memory per node.
pub const NODE_CAPACITY: u64 = 1 << 30;

/// Builds the standard fabric.
pub fn standard_fabric() -> std::sync::Arc<farmem_fabric::Fabric> {
    fabric_of(NODE_CAPACITY)
}

/// The standard fabric with another node size (the far-memory guard's
/// test runs `serve-churn` out of room on a small one).
pub fn fabric_of(node_capacity: u64) -> std::sync::Arc<farmem_fabric::Fabric> {
    farmem_fabric::FabricConfig {
        nodes: NODES,
        node_capacity,
        ..farmem_fabric::FabricConfig::default()
    }
    .build()
}

/// A workload: knows how to set one instance up from a seed.
pub trait Workload {
    /// Name on the command line.
    fn name(&self) -> &'static str;
    /// Whether odd rounds are latency rounds (false where no per-op
    /// latency is observable from outside).
    fn has_latency_rounds(&self) -> bool;
    /// Whether simulated statistics must repeat bit-for-bit (false with
    /// more than one load thread).
    fn exact(&self) -> bool;
    /// Load threads (stated with the result; never above `nproc`).
    fn threads(&self) -> usize;
    /// Count metrics that must be above zero in every epoch: the
    /// mechanisms the workload exists to exercise. A run in which one of
    /// them never fired aborts instead of reporting a number for traffic
    /// that was assumed.
    fn must_fire(&self) -> &'static [&'static str] {
        &[]
    }
    /// Everything before the first timed round: build the fabric, the
    /// structures or server, preload, generate the request vector from
    /// `seed`, and run one untimed verification round checked
    /// op-for-op.
    fn setup(&self, seed: u64) -> Result<Box<dyn Instance>, Fail>;
}

/// One set-up deployment with its request vector.
pub trait Instance {
    /// Ops and failures of the set-up's verification round.
    fn verified(&self) -> RoundOut;
    /// Timed rounds in this epoch: fixed by the workload (and, on
    /// `serve-churn`, by the measured carve rate), never by the clock,
    /// so the counts of a whole epoch repeat exactly.
    fn rounds_per_epoch(&self) -> usize;
    /// FNV digest of the generated request vector (tests check it moves
    /// with the seed).
    fn request_digest(&self) -> u64;
    /// Runs one round over the request vector.
    fn round(&mut self, mode: Mode<'_>) -> Result<RoundOut, Fail>;
    /// Cumulative counters now.
    fn counters(&self) -> Counters;
    /// Bytes of user data resident at this instant (the denominator of
    /// `far_live_bytes_per_user_byte`).
    fn user_bytes(&self) -> u64;
    /// One round with a span per op at the workload's top boundary
    /// (first `log.cap_ops` ops). The runner prices the tracing from the
    /// best spanned stretch of a few of these.
    fn spanned_round(&mut self, log: &mut SpanLog) -> Result<SpannedOut, Fail>;
    /// Whatever this workload can say about single layers, from the
    /// spans in `log` and from replays of its own (ladder, per-type
    /// medians).
    fn layers(&mut self, log: &mut SpanLog, r: &mut Results) -> Result<(), Fail>;
}

/// FNV-1a over a stream of words.
pub fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}
