//! # farmem-baselines — the comparators the paper argues about
//!
//! The paper's claims are comparative: new far-memory data structures
//! (farmem-core) against (a) *traditional* structures naively ported to
//! one-sided access, and (b) *distributed* structures behind RPCs. This
//! crate implements both families so every comparison in EXPERIMENTS.md
//! runs against real code:
//!
//! | comparator | role | fast-path far accesses |
//! |---|---|---|
//! | [`OneSidedList`] | §1's O(n) strawman | n |
//! | [`OneSidedSkipList`] | §1's O(log n) strawman | O(log n) |
//! | [`OneSidedBTree`] | §5.2's tree (with level caching) | depth − cached |
//! | [`ChainedHash`] | refs \[24,25\] traditional hash table | 2+ (1 with \[35\]-style address cache) |
//! | [`HopscotchHash`] | FaRM-style inlining \[11\] | 1, bandwidth-heavy |
//! | [`RpcKv`] | two-sided RPC store \[24,25\] | 1 RPC (server CPU) |
//! | [`LockQueue`] / [`CasQueue`] | §5.3 comparators | ≥5 / ≥3 |
//! | [`FarMutex`] | §5.1 lease lock behind [`LockQueue`] | 1 uncontended |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
pub mod chained_hash;
pub mod hopscotch;
pub mod list;
pub mod mutex;
pub mod queues;
pub mod rpc_kv;
pub mod skiplist;

pub use btree::{OneSidedBTree, FANOUT};
pub use chained_hash::{ChainedHash, ChainedStats};
pub use hopscotch::{HopscotchHash, NEIGHBORHOOD};
pub use list::OneSidedList;
pub use mutex::FarMutex;
pub use queues::{CasQueue, CasQueueCost, LockQueue};
pub use rpc_kv::{KvService, RpcKv};
pub use skiplist::OneSidedSkipList;

/// Errors from the baseline structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BaselineError {
    /// A fabric verb failed.
    Fabric(farmem_fabric::FabricError),
    /// Allocation failed.
    Alloc(farmem_alloc::AllocError),
    /// Invalid configuration or input.
    BadConfig(&'static str),
    /// The structure is full.
    Full,
    /// The structure is empty.
    Empty,
    /// An open-addressing table could not place a key.
    TableFull,
    /// Too many lost races; back off and retry.
    Contended,
    /// The caller's lease on a [`FarMutex`] expired and another client
    /// took it over; the caller must not touch the protected data.
    /// Surfaced by unlock when the lock word no longer carries the
    /// caller's fencing tag.
    LeaseLost,
}

impl From<farmem_fabric::FabricError> for BaselineError {
    fn from(e: farmem_fabric::FabricError) -> Self {
        BaselineError::Fabric(e)
    }
}

impl From<farmem_alloc::AllocError> for BaselineError {
    fn from(e: farmem_alloc::AllocError) -> Self {
        BaselineError::Alloc(e)
    }
}

impl core::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BaselineError::Fabric(e) => write!(f, "fabric error: {e}"),
            BaselineError::Alloc(e) => write!(f, "allocation error: {e}"),
            BaselineError::BadConfig(s) => write!(f, "bad configuration: {s}"),
            BaselineError::Full => write!(f, "structure is full"),
            BaselineError::Empty => write!(f, "structure is empty"),
            BaselineError::TableFull => write!(f, "open addressing table is full"),
            BaselineError::Contended => write!(f, "lost too many races"),
            BaselineError::LeaseLost => {
                write!(f, "lock lease expired and was taken over by another client")
            }
        }
    }
}

impl std::error::Error for BaselineError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = core::result::Result<T, BaselineError>;

impl From<BaselineError> for farmem_core::CoreError {
    fn from(e: BaselineError) -> Self {
        match e {
            BaselineError::Fabric(f) => farmem_core::CoreError::Fabric(f),
            BaselineError::Alloc(a) => farmem_core::CoreError::Alloc(a),
            BaselineError::Full => farmem_core::CoreError::QueueFull,
            BaselineError::Empty => farmem_core::CoreError::QueueEmpty,
            BaselineError::Contended | BaselineError::LeaseLost => {
                farmem_core::CoreError::Contended
            }
            BaselineError::TableFull => farmem_core::CoreError::Corrupted("table full"),
            BaselineError::BadConfig(s) => farmem_core::CoreError::BadConfig(s),
        }
    }
}
