//! # farmem-fabric — a simulated far-memory fabric
//!
//! This crate is the substrate of the *Far Memory Data Structures* (HotOS
//! '19) reproduction: a software model of a far-memory interconnect in the
//! style of RDMA or Gen-Z, extended with the paper's proposed hardware
//! primitives.
//!
//! ## Model
//!
//! A [`Fabric`] owns a pool of [`MemoryNode`]s holding word-granular far
//! memory. Compute-side [`FabricClient`]s access it with *one-sided* verbs
//! — no processor near the memory mediates:
//!
//! * baseline verbs (§2): [`read`](FabricClient::read),
//!   [`write`](FabricClient::write), [`cas`](FabricClient::cas),
//!   [`faa`](FabricClient::faa) and fenced
//!   [`batch`](FabricClient::batch)es;
//! * indirect addressing (Fig. 1, §4.1): `load0..2`, `store0..2`, `faai`,
//!   `saai`, `add0..2` — see [`ext::indirect`];
//! * scatter-gather (Fig. 1, §4.2): `rscatter`, `rgather`, `wscatter`,
//!   `wgather` — see [`ext::sg`];
//! * notifications (Fig. 1, §4.3): `notify0`, `notifye`, `notify0d`, with
//!   coalescing, best-effort loss and spike-drop warnings (§7.2), plus a
//!   software [`Broker`] tier.
//!
//! ## Accounting and time
//!
//! Every verb updates the client's [`AccessStats`] (the paper's key metric
//! is far-memory accesses, §3.1) and charges a configurable [`CostModel`]
//! against the client's virtual clock. No experiment in this repository
//! measures wall-clock time.
//!
//! ## Example
//!
//! ```
//! use farmem_fabric::{FabricConfig, FarAddr};
//!
//! let fabric = FabricConfig::single_node(1 << 20).build();
//! let mut client = fabric.client();
//! client.write_u64(FarAddr(64), 4096).unwrap();   // a far pointer
//! client.write_u64(FarAddr(4096), 7).unwrap();    // its target
//! // One far access dereferences the pointer and loads the target:
//! let v = client.load0(FarAddr(64), 8).unwrap();
//! assert_eq!(u64::from_le_bytes(v.try_into().unwrap()), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod broker;
pub mod check;
pub mod client;
pub mod cost;
pub mod error;
pub mod ext;
pub mod fabric;
pub mod fault;
pub mod node;
pub mod notify;
pub mod pipeline;
pub mod replica;
pub mod sample;
pub mod stats;
pub mod trace;

pub use addr::{AddressMap, FarAddr, NodeId, Segment, Segments, Striping, PAGE, WORD};
pub use broker::{Broker, BrokerStats};
pub use check::{Access, AccessKind, CheckObserver};
pub use client::FabricClient;
pub use cost::{CostModel, SimClock};
pub use error::{FabricError, Result};
pub use ext::indirect::{tagged_len, TAG_MASK};
pub use ext::sg::FarIov;
pub use fabric::{Fabric, FabricConfig, IndirectionMode};
pub use fault::{FaultPlan, RetryPolicy};
pub use node::{MemoryNode, NodeOccupancy};
pub use notify::{DeliveryPolicy, Event, EventSink, SinkStats, SubId, SubKind};
pub use pipeline::{BatchOp, CompletionQueue, DescList, IssueQueue, PipeOp, PipeOut};
pub use replica::{GroupView, ReplicaConfig, FAILOVER_LEASE_NS};
pub use sample::MetricSampler;
pub use stats::AccessStats;
pub use trace::{
    LatencyHistogram, SpanAgg, SpanGuard, SpanSummary, TraceConfig, TraceEvent, TraceReport,
    Tracer, VerbKind, VerbSummary,
};

/// The SplitMix64 finalizer: the one integer mix of the workspace. Every
/// hash-placed far table (HT-tree buckets, the baselines' tables, serve's
/// owner sharding) goes through it, so its output is part of the far
/// layout; the fault stream and farmem-check's schedule generator seed
/// themselves with it.
#[inline]
pub fn splitmix64(key: u64) -> u64 {
    let mut z = key.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
