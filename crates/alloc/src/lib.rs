//! # farmem-alloc — far-memory allocation with locality hints
//!
//! §7.1 of the paper argues that far-memory allocators should be designed
//! with locality in mind: parts of a data structure where indirect
//! addressing is common (e.g. a chain within a hash bucket) benefit from
//! *localized* placement so memory-side indirection never leaves the node,
//! while independent parts benefit from *anti-local* placement for
//! parallelism, and bulk data benefits from striping for bandwidth.
//! Applications express this through [`AllocHint`]s which the allocator
//! considers when granting requests.
//!
//! Two allocators are provided:
//!
//! * [`FarAlloc`] — a size-class slab allocator over the fabric's global
//!   address space, with per-node page pools honoring placement hints;
//! * [`Arena`] — a per-client bump allocator that carves chunks out of
//!   [`FarAlloc`] so that allocating an *item* costs zero far accesses
//!   (amortized), which the HT-tree's two-far-access store budget (§5.2)
//!   depends on.
//!
//! Allocation metadata lives at the client/management plane, not in far
//! memory; the paper does not charge far accesses for allocation and
//! neither do we (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod slab;

pub use arena::Arena;
pub use slab::{rounded_len, AllocStats, ClassStats, FarAlloc};

use farmem_fabric::{FarAddr, NodeId};

/// Placement preference for an allocation (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocHint {
    /// No preference: round-robin across nodes for balance.
    Spread,
    /// Place on the given node (e.g. next to data it will be chained to).
    Localize(NodeId),
    /// Place on the same node as existing data at this address.
    Colocate(FarAddr),
    /// Place anywhere *except* the given node (anti-locality for
    /// parallelism between independent requests).
    AntiLocal(NodeId),
    /// Allocate from the globally contiguous region so the bytes stripe
    /// across nodes for aggregate bandwidth (large vectors, histograms).
    Striped,
}

/// Errors returned by the allocators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The requested placement cannot be satisfied: the pool is exhausted.
    OutOfMemory {
        /// Node whose pool was exhausted, if the request was node-bound.
        node: Option<NodeId>,
    },
    /// A zero-byte allocation was requested.
    ZeroSize,
    /// `free` was called with an address/length pair the allocator never
    /// returned.
    BadFree {
        /// The offending address.
        addr: FarAddr,
    },
}

impl core::fmt::Display for AllocError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocError::OutOfMemory { node: Some(n) } => {
                write!(f, "far memory pool on node {n:?} exhausted")
            }
            AllocError::OutOfMemory { node: None } => write!(f, "far memory exhausted"),
            AllocError::ZeroSize => write!(f, "zero-size allocation"),
            AllocError::BadFree { addr } => write!(f, "bad free of {addr:?}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Convenience alias for allocator results.
pub type Result<T> = core::result::Result<T, AllocError>;
