//! # farmem — far memory data structures, outside the box
//!
//! A production-quality reproduction of *Designing Far Memory Data
//! Structures: Think Outside the Box* (Aguilera, Keeton, Novakovic,
//! Singhal — HotOS '19), built on a simulated far-memory fabric.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`fabric`] — the far-memory fabric simulator with the paper's
//!   extended hardware primitives (indirect addressing, scatter-gather,
//!   notifications — Fig. 1);
//! * [`alloc`] — far-memory allocation with §7.1 locality hints;
//! * [`reclaim`] — epoch-based grace-period reclamation (DESIGN.md §8):
//!   far-memory epoch registry, limbo lists, crash-evicting grace
//!   detector, so deletes actually free far memory;
//! * [`core`] — the far memory data structures themselves (§5): counters,
//!   vectors, barriers, the HT-tree map, the `saai`/`faai` queue, and
//!   refreshable vectors — none of them takes a lock;
//! * [`runtime`] — the futures-based executor: completion-driven
//!   reactor over the pipeline's issue/completion queues, multiplexing
//!   10k+ logical clients per OS thread (DESIGN.md §12);
//! * [`rpc`] — the two-sided RPC substrate the paper compares against;
//! * [`baselines`] — traditional one-sided and RPC-based comparators,
//!   and the leased far mutex the locked queue comparator runs on;
//! * [`monitor`] — the §6 monitoring case study;
//! * [`check`] — farmem-check: race detection, bounded interleaving
//!   exploration, and linearizability checking for every protocol above
//!   (DESIGN.md §9);
//! * [`metrics`] — live observability: virtual-time sampling rings over
//!   every client and memory node, SLO alarms with a flight recorder,
//!   and Prometheus-style exposition (DESIGN.md §11);
//! * [`serve`] — a multi-tenant cache serving front end: worker/session
//!   sharding over the runtime, tenant quotas at admission, slab-class
//!   values, TTL + LRU eviction through reclamation, and hot-key
//!   replica-read spreading (DESIGN.md §13).
//!
//! ## Quickstart
//!
//! ```
//! use farmem::prelude::*;
//!
//! // A fabric of 4 memory nodes, 16 MiB each.
//! let fabric = FabricConfig {
//!     nodes: 4,
//!     node_capacity: 16 << 20,
//!     ..FabricConfig::default()
//! }
//! .build();
//! let alloc = FarAlloc::new(fabric.clone());
//!
//! // Client A creates a map; client B uses it concurrently.
//! let mut a = fabric.client();
//! let mut b = fabric.client();
//! let map = HtTree::create(&mut a, &alloc, HtTreeConfig::default()).unwrap();
//! let mut ha = map.attach(&mut a, &alloc, HtTreeConfig::default()).unwrap();
//! let mut hb = map.attach(&mut b, &alloc, HtTreeConfig::default()).unwrap();
//!
//! ha.put(&mut a, 7, 700).unwrap();
//! assert_eq!(hb.get(&mut b, 7).unwrap(), Some(700));
//!
//! // The far-access accounting that the paper's argument rests on:
//! let before = b.stats();
//! hb.get(&mut b, 7).unwrap();
//! assert_eq!(b.stats().since(&before).round_trips, 1); // ONE far access
//! ```

#![forbid(unsafe_code)]

pub use farmem_alloc as alloc;
pub use farmem_baselines as baselines;
pub use farmem_check as check;
pub use farmem_core as core;
pub use farmem_fabric as fabric;
pub use farmem_metrics as metrics;
pub use farmem_monitor as monitor;
pub use farmem_reclaim as reclaim;
pub use farmem_rpc as rpc;
pub use farmem_runtime as runtime;
pub use farmem_serve as serve;

/// The most commonly used items, in one import.
pub mod prelude {
    pub use farmem_alloc::{AllocHint, Arena, FarAlloc};
    pub use farmem_baselines::{
        CasQueue, ChainedHash, FarMutex, HopscotchHash, LockQueue, OneSidedBTree, OneSidedList,
        OneSidedSkipList, RpcKv,
    };
    pub use farmem_core::{
        CacheMode, CachedFarVec, CoreError, FarBarrier, FarBlobMap, FarCounter,
        FarEpochBarrier, FarQueue, FarVec, HtTree, HtTreeConfig, QueueConfig, RecordHint,
        RefreshMode, RefreshPolicy, RefreshableVec, VecReader, VecWriter, WriteCombiner,
    };
    pub use farmem_fabric::{
        AccessStats, BatchOp, CompletionQueue, CostModel, DeliveryPolicy, DescList, Event,
        Fabric, FabricClient, FabricConfig, FarAddr, FarIov, FaultPlan, GroupView,
        IndirectionMode, IssueQueue, NodeId, PipeOp, PipeOut, ReplicaConfig, RetryPolicy,
        Striping, SubId, TraceConfig, TraceReport, Tracer, FAILOVER_LEASE_NS,
    };
    pub use farmem_metrics::{
        FlightBundle, MetricsConfig, MetricsHub, Signal, SloEngine, SloRule,
    };
    pub use farmem_monitor::{AlarmSpec, HistogramMonitor, NaiveMonitor, Severity};
    pub use farmem_reclaim::{
        pin, Guard, ReclaimError, ReclaimHandle, ReclaimRegistry, ReclaimStats, SharedReclaim,
    };
    pub use farmem_rpc::{RpcClient, RpcServer, ServerCpu};
    pub use farmem_runtime::{AsyncClient, Doorbell, Executor, Inline, Runtime};
    pub use farmem_serve::{
        CacheServer, Request, Response, ServeConfig, ServeWorker, TenantId, TenantSpec,
    };
}
