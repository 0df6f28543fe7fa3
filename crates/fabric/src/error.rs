//! Error types for fabric operations.

use crate::addr::{FarAddr, NodeId};

/// Errors returned by far-memory verbs.
///
/// Every verb is fallible: real fabrics surface addressing faults and node
/// failures as completion errors rather than panics, and this library follows
/// the same discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabricError {
    /// The access touches bytes outside the provisioned far address space.
    OutOfBounds {
        /// First byte of the faulting access.
        addr: FarAddr,
        /// Length of the faulting access in bytes.
        len: u64,
    },
    /// The access required a stricter alignment than the address has.
    Unaligned {
        /// The faulting address.
        addr: FarAddr,
        /// Required alignment in bytes.
        required: u64,
    },
    /// An indirect verb dereferenced a null (zero) pointer.
    NullDeref {
        /// Location holding the null pointer.
        pointer_at: FarAddr,
    },
    /// The addressed memory node has been failed by fault injection.
    NodeFailed(NodeId),
    /// The addressed memory node has crash-stopped permanently
    /// ([`crash_permanent`](crate::node::MemoryNode::crash_permanent)): it
    /// will never serve another verb. Unlike
    /// [`NodeFailed`](FabricError::NodeFailed) this is *not* transient —
    /// the retry loop must not burn its backoff budget waiting for a node
    /// that cannot recover. With replication enabled the client fails over
    /// to the group's promoted replica instead.
    NodeLost(NodeId),
    /// The request reached a memory node that has been fenced out of its
    /// replication group: a replica was promoted and the group's
    /// configuration epoch moved past the epoch this node was deposed at.
    /// The deposed node must not serve (possibly stale) data; the client
    /// refreshes its cached group view and re-issues against the promoted
    /// primary. Not transient.
    FencedEpoch {
        /// The fenced (deposed) node.
        node: NodeId,
        /// The configuration epoch at which the node was fenced.
        epoch: u64,
    },
    /// A notification registration violated the page rules of §4.3:
    /// ranges must be word-aligned and must not cross a page boundary.
    BadSubscription {
        /// Start of the offending range.
        addr: FarAddr,
        /// Length of the offending range.
        len: u64,
        /// Human-readable reason.
        reason: &'static str,
    },
    /// An iovec argument was empty or its total length disagreed with the
    /// contiguous side of a scatter/gather transfer.
    BadIovec {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The referenced subscription does not exist (already cancelled).
    NoSuchSubscription,
    /// A guarded verb's guard word did not hold the expected value; the
    /// operation was not performed.
    GuardMismatch {
        /// The value the guard word actually held.
        observed: u64,
    },
    /// The request was dropped by a transient fabric fault before the node
    /// executed it (injected by a [`FaultPlan`](crate::fault::FaultPlan)).
    /// Retry-safe: no side effect happened.
    Transient,
    /// The request timed out before the node executed it. Like
    /// [`Transient`](FabricError::Transient) but the client burned the
    /// plan's timeout budget of virtual time first. Retry-safe.
    Timeout,
    /// A fenced batch was interrupted by a node failure *after* one or
    /// more of its side-effecting verbs had already executed. Never
    /// classified transient: blindly re-issuing the batch would apply
    /// those verbs twice (duplicating FAAs, mis-reporting an
    /// already-won CAS as failed). The caller must recover at its own
    /// level, knowing the batch's prefix may have been applied.
    BatchTorn {
        /// The node whose failure interrupted the batch.
        node: NodeId,
        /// Number of leading ops that fully executed before the failure.
        executed: usize,
    },
    /// A pipelined doorbell completed only partially: one or more
    /// descriptors ultimately failed (non-transiently, or after
    /// exhausting their per-descriptor retry budget) while at least one
    /// side-effecting descriptor had already executed. Never classified
    /// transient — blindly re-ringing the doorbell would re-apply the
    /// completed descriptors. Completed results remain drainable from the
    /// [`CompletionQueue`](crate::pipeline::CompletionQueue).
    PipelineTorn {
        /// Descriptors that fully completed before the failure surfaced.
        completed: usize,
        /// Descriptors that ultimately failed.
        failed: usize,
    },
}

impl FabricError {
    /// Whether a retry of the same verb may succeed.
    ///
    /// [`Transient`](FabricError::Transient) and
    /// [`Timeout`](FabricError::Timeout) faults drop the request *before*
    /// execution, so retrying is always safe.
    /// [`NodeFailed`](FabricError::NodeFailed) is also classified
    /// transient: timed crash windows
    /// ([`schedule_crash`](crate::node::MemoryNode::schedule_crash)) heal
    /// as the retry backoff advances virtual time, and a permanently failed
    /// node simply exhausts the retry budget before surfacing. Addressing
    /// and validation errors are deterministic and never retried, and
    /// [`BatchTorn`](FabricError::BatchTorn) is deliberately
    /// non-transient: a torn batch already applied side effects that a
    /// blind retry would duplicate.
    ///
    /// [`NodeLost`](FabricError::NodeLost) and
    /// [`FencedEpoch`](FabricError::FencedEpoch) are *not* transient
    /// either: a crash-stopped node never heals and a fenced node never
    /// serves again, so backing off at the same node is wasted budget.
    /// The retry loop handles both specially — failover to a promoted
    /// replica, or a group-view refresh — instead of blind re-issue.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            FabricError::Transient | FabricError::Timeout | FabricError::NodeFailed(_)
        )
    }
}

impl core::fmt::Display for FabricError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FabricError::OutOfBounds { addr, len } => {
                write!(f, "access [{addr:?} +{len}) outside far address space")
            }
            FabricError::Unaligned { addr, required } => {
                write!(f, "address {addr:?} not aligned to {required} bytes")
            }
            FabricError::NullDeref { pointer_at } => {
                write!(f, "indirect verb dereferenced null pointer at {pointer_at:?}")
            }
            FabricError::NodeFailed(n) => write!(f, "memory node {n:?} has failed"),
            FabricError::NodeLost(n) => {
                write!(f, "memory node {n:?} has crash-stopped permanently")
            }
            FabricError::FencedEpoch { node, epoch } => {
                write!(f, "memory node {node:?} fenced at configuration epoch {epoch}")
            }
            FabricError::BadSubscription { addr, len, reason } => {
                write!(f, "bad subscription [{addr:?} +{len}): {reason}")
            }
            FabricError::BadIovec { reason } => write!(f, "bad iovec: {reason}"),
            FabricError::NoSuchSubscription => write!(f, "no such subscription"),
            FabricError::GuardMismatch { observed } => {
                write!(f, "guard word mismatch (observed {observed})")
            }
            FabricError::Transient => write!(f, "transient fabric fault (request dropped)"),
            FabricError::Timeout => write!(f, "fabric request timed out"),
            FabricError::BatchTorn { node, executed } => write!(
                f,
                "node {node:?} failed mid-batch after {executed} ops executed (not retried)"
            ),
            FabricError::PipelineTorn { completed, failed } => write!(
                f,
                "pipeline torn: {completed} descriptors completed, {failed} failed (not retried)"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

/// Convenience alias used throughout the fabric crate.
pub type Result<T> = core::result::Result<T, FabricError>;
