//! Error types for far-memory data structures.

use farmem_alloc::AllocError;
use farmem_fabric::FabricError;
use farmem_reclaim::ReclaimError;

/// Errors surfaced by far-memory data structure operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// An underlying fabric verb failed.
    Fabric(FabricError),
    /// Far-memory allocation failed.
    Alloc(AllocError),
    /// The queue is empty (confirmed by the slow path).
    QueueEmpty,
    /// The queue is full (confirmed by the slow path).
    QueueFull,
    /// A value outside the encodable range was offered to a structure that
    /// reserves sentinels (e.g. the queue reserves `0` and `u64::MAX`).
    ValueOutOfRange,
    /// A configuration parameter is invalid (sizes, client bounds).
    BadConfig(&'static str),
    /// An operation raced a concurrent restructure more times than the
    /// retry budget allows; the caller should back off and retry.
    Contended,
    /// The far data is inconsistent with the structure's invariants —
    /// memory corruption or a foreign writer.
    Corrupted(&'static str),
    /// A barrier wait timed out before every party arrived.
    BarrierTimeout,
    /// The epoch-based reclamation layer failed (registry full/corrupted,
    /// or a deferred free was rejected by the allocator).
    Reclaim(ReclaimError),
}

impl From<FabricError> for CoreError {
    fn from(e: FabricError) -> Self {
        CoreError::Fabric(e)
    }
}

impl From<AllocError> for CoreError {
    fn from(e: AllocError) -> Self {
        CoreError::Alloc(e)
    }
}

impl From<ReclaimError> for CoreError {
    fn from(e: ReclaimError) -> Self {
        // Unwrap the layers shared with this crate so callers can match
        // on the underlying fabric/alloc cause uniformly.
        match e {
            ReclaimError::Fabric(f) => CoreError::Fabric(f),
            ReclaimError::Alloc(a) => CoreError::Alloc(a),
            other => CoreError::Reclaim(other),
        }
    }
}

impl core::fmt::Display for CoreError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CoreError::Fabric(e) => write!(f, "fabric error: {e}"),
            CoreError::Alloc(e) => write!(f, "allocation error: {e}"),
            CoreError::QueueEmpty => write!(f, "queue is empty"),
            CoreError::QueueFull => write!(f, "queue is full"),
            CoreError::ValueOutOfRange => write!(f, "value outside encodable range"),
            CoreError::BadConfig(s) => write!(f, "bad configuration: {s}"),
            CoreError::Contended => write!(f, "operation lost too many races; retry"),
            CoreError::Corrupted(s) => write!(f, "far data corrupted: {s}"),
            CoreError::BarrierTimeout => {
                write!(f, "barrier wait timed out before every party arrived")
            }
            CoreError::Reclaim(e) => write!(f, "reclamation error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Fabric(e) => Some(e),
            CoreError::Alloc(e) => Some(e),
            CoreError::Reclaim(e) => Some(e),
            _ => None,
        }
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, CoreError>;
