//! A multi-tenant cache serving front end over the far-memory fabric.
//!
//! The paper's claim (§3–§5) is that far-memory data structures pay off
//! when *applications* drive them; this crate is the first
//! workload-facing layer of the repo — a memcached/redis-shaped cache
//! built entirely from the existing substrate:
//!
//! * **Worker/session model** — compute-side state is sharded over
//!   workers (Dragonfly-style shared-nothing: each namespaced key has
//!   exactly one owning worker, picked by hash). A worker is one
//!   [`farmem_runtime::Runtime`] worker thread multiplexing many logical
//!   sessions; [`run_sessions`](CacheServer::run_sessions) is the
//!   listener, routing sessions onto workers.
//! * **Tenants** — every request names a [`TenantId`]; raw keys are
//!   prefixed into disjoint ranges of the shared [`HtTree`] keyspace, so
//!   two tenants storing the same raw key can never observe each
//!   other's values. Byte and operation quotas are enforced *at
//!   admission*, before any far access is issued.
//! * **Slab-class values** — records live in [`FarAlloc`] size classes
//!   (four classes per doubling); quota accounting charges the rounded
//!   class, and [`FarAlloc::class_stats`] audits per-class occupancy.
//! * **TTL + eviction through reclamation** — every record carries an
//!   absolute virtual-time expiry; a get that finds an expired record
//!   reports a miss and (on the owning worker) unlinks and retires it
//!   through `farmem-reclaim`, so an expired value is *never served*
//!   after its TTL instant and its far memory actually comes back.
//!   An LRU watermark per worker evicts cold records the same way,
//!   keeping the far-memory footprint bounded under insert churn.
//! * **Hot-key spreading** — a per-worker count-min sketch with a top-k
//!   estimates key popularity; reads of detected hot keys are spread
//!   round-robin over the replica group via the per-client
//!   [`spread_reads`](farmem_fabric::FabricClient::set_spread_reads)
//!   override, while cold reads keep primary locality.
//!
//! [`HtTree`]: farmem_core::HtTree
//! [`FarAlloc`]: farmem_alloc::FarAlloc
//! [`FarAlloc::class_stats`]: farmem_alloc::FarAlloc::class_stats

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hotkey;
mod recency;
mod server;
mod store;
mod tenant;

pub use hotkey::HotKeyDetector;
pub use recency::{KeyMeta, RecencyIndex};
pub use server::{
    CacheServer, Request, Response, ServeConfig, ServeWorker, SessionSummary, WorkerStats,
};
pub use store::{charged_bytes, GetOutcome, RecordStore, RECORD_HEADER};
pub use tenant::{Reject, TenantId, TenantSpec, TenantStats, MAX_RAW_KEY, MAX_TENANTS};

use farmem_core::CoreError;

/// Errors surfaced by the serving layer (quota and admission failures
/// are *not* errors — they come back as [`Response::Rejected`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// An underlying structure operation failed.
    Core(CoreError),
    /// The request named a tenant id that was never registered.
    UnknownTenant,
    /// A mutation was routed to a worker that does not own the key —
    /// the listener must route by [`CacheServer::owner_of`].
    NotOwner,
    /// Tenant registry is full ([`MAX_TENANTS`]).
    TooManyTenants,
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<farmem_fabric::FabricError> for ServeError {
    fn from(e: farmem_fabric::FabricError) -> Self {
        ServeError::Core(CoreError::Fabric(e))
    }
}

impl From<farmem_alloc::AllocError> for ServeError {
    fn from(e: farmem_alloc::AllocError) -> Self {
        ServeError::Core(CoreError::Alloc(e))
    }
}

impl From<farmem_reclaim::ReclaimError> for ServeError {
    fn from(e: farmem_reclaim::ReclaimError) -> Self {
        ServeError::Core(CoreError::from(e))
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Core(e) => write!(f, "serve: {e}"),
            ServeError::UnknownTenant => write!(f, "serve: unknown tenant"),
            ServeError::NotOwner => write!(f, "serve: key routed to non-owning worker"),
            ServeError::TooManyTenants => write!(f, "serve: tenant registry full"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The one integer mix the compute side uses (owner sharding, the hot-key
/// sketch rows, the recency index's hasher).
pub(crate) use farmem_fabric::splitmix64;

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, ServeError>;
