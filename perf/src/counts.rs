//! Counts at the layer boundaries, all from the program's public stats:
//! a cumulative snapshot before and after an epoch's timed rounds, and
//! the per-op figures derived from the difference.

use farmem_alloc::AllocStats;
use farmem_core::{HtTreeStats, QueueStats};
use farmem_fabric::{AccessStats, Fabric, NodeOccupancy, PAGE};
use farmem_serve::WorkerStats;

use crate::report::Results;

/// Cumulative counters at one instant.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// The driving clients' access counters (summed).
    pub stats: AccessStats,
    /// Simulated time spent by the driving clients (summed clocks).
    pub sim_ns: u64,
    /// Simulated time on the wall of the simulation: the one client's
    /// clock, or the latest clock among concurrent clients.
    pub makespan_ns: u64,
    /// Allocator counters.
    pub alloc: AllocStats,
    /// Per-node interface occupancy.
    pub nodes: Vec<NodeOccupancy>,
    /// Serve worker counters (summed over workers), when `serve` runs.
    pub worker: Option<WorkerStats>,
    /// HT-tree handle counters, when a handle is reachable.
    pub tree: Option<HtTreeStats>,
    /// Queue handle counters (`structures` only).
    pub queue: Option<QueueStats>,
}

impl Counters {
    /// Snapshot of the parts every workload has.
    pub fn base(stats: AccessStats, sim_ns: u64, alloc: AllocStats, fabric: &Fabric) -> Counters {
        Counters {
            stats,
            sim_ns,
            makespan_ns: sim_ns,
            alloc,
            nodes: fabric.nodes().iter().map(|n| n.occupancy()).collect(),
            ..Counters::default()
        }
    }

    /// Bytes sitting in reclamation limbo (retired, not yet freed).
    pub fn limbo_bytes(&self) -> u64 {
        self.stats
            .retired_bytes
            .saturating_sub(self.stats.reclaimed_bytes)
    }
}

/// Adds two worker snapshots (the sessions workload has two workers).
pub fn add_worker(a: &WorkerStats, b: &WorkerStats) -> WorkerStats {
    WorkerStats {
        wid: a.wid,
        ops: a.ops + b.ops,
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        expired_unlinked: a.expired_unlinked + b.expired_unlinked,
        evicted: a.evicted + b.evicted,
        rejected: a.rejected + b.rejected,
        hot_gets: a.hot_gets + b.hot_gets,
        spread_gets: a.spread_gets + b.spread_gets,
        reclaim_passes: a.reclaim_passes + b.reclaim_passes,
        freed_bytes: a.freed_bytes + b.freed_bytes,
        charged_bytes: a.charged_bytes + b.charged_bytes,
        peak_charged_bytes: a.peak_charged_bytes + b.peak_charged_bytes,
    }
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// Records every count metric the difference `after - before` over
/// `ops` timed ops supports. A ratio whose denominator is zero on this
/// workload (no gets, no allocations, no queue ops) is left unset.
pub fn derive(before: &Counters, after: &Counters, ops: u64, limbo_peak: u64, r: &mut Results) {
    let d = after.stats.since(&before.stats);
    let sim = after.sim_ns - before.sim_ns;
    let opsf = ops as f64;
    r.set("rt_per_op", d.round_trips as f64 / opsf);
    r.set("sim_ns_per_op", sim as f64 / opsf);
    r.set("client.msgs_per_op", d.messages as f64 / opsf);
    r.set("client.bytes_per_op", d.bytes_total() as f64 / opsf);
    r.set("client.atomics_per_op", d.atomics as f64 / opsf);
    r.set("client.doorbells_per_op", d.doorbells as f64 / opsf);
    r.set("client.retries_per_kop", d.retries as f64 * 1000.0 / opsf);
    r.set(
        "reclaim.freed_bytes_per_op",
        d.reclaimed_bytes as f64 / opsf,
    );
    r.set("reclaim.limbo_peak_bytes", limbo_peak as f64);

    let carved = (after.alloc.pages_carved - before.alloc.pages_carved) * PAGE;
    let allocated = after.alloc.allocated_bytes - before.alloc.allocated_bytes;
    r.set("far_carved_bytes_per_op", carved as f64 / opsf);
    r.set_opt(
        "alloc.reuse_ratio",
        ratio(allocated.saturating_sub(carved), allocated),
    );
    r.set("alloc.live_mb", after.alloc.live_bytes as f64 / 1e6);

    let busy: Vec<u64> = after
        .nodes
        .iter()
        .zip(&before.nodes)
        .map(|(a, b)| a.busy_ns - b.busy_ns)
        .collect();
    let msgs: u64 = after
        .nodes
        .iter()
        .zip(&before.nodes)
        .map(|(a, b)| a.messages - b.messages)
        .sum();
    let waited: u64 = after
        .nodes
        .iter()
        .zip(&before.nodes)
        .map(|(a, b)| a.waited_ns - b.waited_ns)
        .sum();
    let max_busy = busy.iter().copied().max().unwrap_or(0);
    let sum_busy: u64 = busy.iter().sum();
    r.set_opt(
        "node.busy_share",
        ratio(max_busy, after.makespan_ns - before.makespan_ns),
    );
    r.set_opt("node.mean_wait_ns", ratio(waited, msgs));
    r.set_opt(
        "node.busy_imbalance",
        (sum_busy > 0).then(|| max_busy as f64 * busy.len() as f64 / sum_busy as f64),
    );

    if let (Some(b), Some(a)) = (&before.worker, &after.worker) {
        let gets = (a.hits - b.hits) + (a.misses - b.misses);
        r.set(
            "reclaim.passes_per_kop",
            (a.reclaim_passes - b.reclaim_passes) as f64 * 1000.0 / opsf,
        );
        r.set_opt("serve.hit_ratio", ratio(a.hits - b.hits, gets));
        r.set(
            "serve.evicted_per_kop",
            (a.evicted - b.evicted) as f64 * 1000.0 / opsf,
        );
        r.set(
            "serve.expired_per_kop",
            (a.expired_unlinked - b.expired_unlinked) as f64 * 1000.0 / opsf,
        );
        r.set_opt("serve.hot_get_ratio", ratio(a.hot_gets - b.hot_gets, gets));
    }
    if let (Some(b), Some(a)) = (&before.tree, &after.tree) {
        r.set_opt(
            "core.httree_chain_hops_per_get",
            ratio(a.chain_hops - b.chain_hops, a.gets - b.gets),
        );
        r.set(
            "core.httree_stale_refreshes",
            (a.stale_refreshes - b.stale_refreshes) as f64,
        );
        r.set(
            "core.httree_splits",
            ((a.splits - b.splits) + (a.grows - b.grows)) as f64,
        );
        r.set(
            "core.httree_compactions",
            (a.compactions - b.compactions) as f64,
        );
    }
    if let (Some(b), Some(a)) = (&before.queue, &after.queue) {
        let fast = (a.enq_fast - b.enq_fast) + (a.deq_fast - b.deq_fast);
        let slow = (a.est_refreshes - b.est_refreshes)
            + (a.repairs - b.repairs)
            + (a.empty_recoveries - b.empty_recoveries);
        r.set_opt("core.queue_slow_path_ratio", ratio(slow, fast + slow));
    }
}
