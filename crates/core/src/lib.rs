//! # farmem-core — far memory data structures
//!
//! The paper's primary contribution (§3, §5): data structures designed for
//! one-sided far memory, whose operations complete in O(1) far accesses —
//! preferably exactly one — most of the time.
//!
//! Every structure here has the three components of §3:
//!
//! 1. **far data** in far memory (the core content);
//! 2. **data caches** at clients (discarded when a client terminates);
//! 3. an **algorithm for operations** that clients execute — expressed as
//!    methods taking a `&mut FabricClient`, so many clients can operate on
//!    one structure concurrently.
//!
//! | structure | paper | fast-path far accesses |
//! |---|---|---|
//! | [`FarCounter`] | §5.1 | 1 |
//! | [`FarVec`] / [`CachedFarVec`] | §5.1 | 1 / 0 when clean |
//! | [`FarBarrier`] | §5.1 | 1 per arrival |
//! | [`HtTree`] | §5.2 | 1 lookup, 2 store |
//! | [`FarQueue`] | §5.3 | 1 enqueue, 1 dequeue |
//! | [`RefreshableVec`] | §5.4 | ≤2 per refresh, 0 per read |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod barrier;
pub mod blob;
pub mod counter;
pub mod error;
pub mod httree;
pub mod queue;
mod records;
pub mod refvec;
pub mod vector;
pub mod wcbuf;

pub use barrier::{FarBarrier, FarEpochBarrier};
pub use blob::{FarBlobMap, HintTable, HintWord, RecordHint};
pub use counter::FarCounter;
pub use error::{CoreError, Result};
pub use httree::{HtTree, HtTreeConfig, HtTreeHandle, HtTreeStats};
pub use queue::{FarQueue, QueueConfig, QueueHandle, QueueStats};
pub use refvec::{ReaderStats, RefreshMode, RefreshPolicy, RefreshableVec, VecReader, VecWriter};
pub use vector::{CacheMode, CachedFarVec, FarVec};
pub use wcbuf::{WcStats, WriteCombiner};

/// The little-endian word at byte offset `off` of `bytes` — how the
/// structures decode fixed-size far headers read into stack arrays.
pub(crate) fn word_at(bytes: &[u8], off: u64) -> u64 {
    let off = off as usize;
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("word"))
}
