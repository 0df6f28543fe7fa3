//! E17 — replicated memory nodes with fenced failover.
//!
//! Three claims from DESIGN.md §10, each measured in virtual time:
//!
//! * **A. Replication is ~1 RT, not K.** Mirrored writes fan out from
//!   the primary in parallel (one doorbell from the client, one
//!   memory-side hop per replica), so the virtual time per acknowledged
//!   write grows by a fraction of a round trip — not by a factor of
//!   K+1. The driver sweeps K ∈ {0,1,2} × pipeline depth and asserts
//!   the RT/op overhead vs K=0 stays ≤ 1.3× at depth ≥ 4.
//! * **B. Failover loses nothing and stalls for one lease.** A queue
//!   drain crossing a permanent primary crash completes exactly-once on
//!   the promoted replica (K ≥ 1), with unavailability bounded by the
//!   failover lease plus a few round trips. The K=0 row quantifies the
//!   alternative: every undrained item is gone.
//! * **C. Replication is observable, exactly.** With tracing on, a
//!   failover-crossing workload still reconciles field-for-field
//!   against the flat counters — mirrors, fence refreshes and the
//!   promotion itself are all attributed, never leaked.
//!
//! Output: tables on stdout and `results/e17_replica.json` (schema-
//! versioned).
//!
//! Run: `cargo run --release -p farmem-bench --bin e17_replica`

use std::collections::HashMap;

use farmem_alloc::FarAlloc;
use farmem_bench::{report::f2, BenchArgs, Table};
use farmem_core::{CoreError, FarQueue, QueueConfig, HtTree, HtTreeConfig};
use farmem_fabric::{
    FabricConfig, FarAddr, FaultPlan, NodeId, ReplicaConfig, TraceConfig, FAILOVER_LEASE_NS, WORD,
};

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

/// Phase A: pipelined u64 writes against one logical node with K mirrors.
/// Returns (serial ns/op, pipelined ns/op, messages/op, replica msgs/op).
fn write_overhead(k: u32, depth: usize, ops: u64) -> (f64, f64, f64, f64) {
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(k),
        ..FabricConfig::single_node(256 << 20)
    }
    .build();
    let mut c = f.client();
    let addrs: Vec<FarAddr> = (0..ops).map(|i| FarAddr(4096).offset(i * WORD)).collect();

    // Warmup pass: caches the group view and advances the client clock
    // past the nodes' setup bookings, so both measured passes start with
    // idle interfaces (same discipline as e14).
    for (i, a) in addrs.iter().enumerate() {
        c.write_u64(*a, i as u64).unwrap();
    }

    // Serial baseline: one dependent acknowledged write per op.
    let before = c.stats();
    let t0 = c.now_ns();
    for (i, a) in addrs.iter().enumerate() {
        c.write_u64(*a, i as u64 + 1).unwrap();
    }
    let serial_ns = c.now_ns() - t0;
    let serial = c.stats().since(&before);
    assert_eq!(serial.replica_messages, ops * k as u64, "one mirror per write per replica");

    // Pipelined: `depth` write descriptors per doorbell.
    let before = c.stats();
    let t0 = c.now_ns();
    for (b, batch) in addrs.chunks(depth).enumerate() {
        let mut q = c.pipeline();
        for (i, a) in batch.iter().enumerate() {
            q.write_u64(*a, (b * depth + i) as u64 + 2);
        }
        q.commit().status().unwrap();
    }
    let pipe_ns = c.now_ns() - t0;
    let pipe = c.stats().since(&before);
    assert_eq!(pipe.replica_messages, ops * k as u64, "mirrors ride the pipeline too");
    assert_eq!(pipe.doorbells, ops / depth as u64, "one doorbell per batch");
    // Replication must never change the answer.
    for (i, a) in addrs.iter().enumerate() {
        assert_eq!(c.read_u64(*a).unwrap(), i as u64 + 2);
    }

    let opsf = ops as f64;
    (
        serial_ns as f64 / opsf,
        pipe_ns as f64 / opsf,
        pipe.messages as f64 / opsf,
        pipe.replica_messages as f64 / opsf,
    )
}

/// One Phase B row: queue drain across `crashes` permanent primary
/// losses under replication factor `k`.
struct DrainRow {
    k: u32,
    crashes: u64,
    produced: u64,
    consumed: u64,
    lost: u64,
    giveups: u64,
    failovers: u64,
    /// Virtual-time stall of the first post-crash dequeue (ns); `None`
    /// when that dequeue never completed (K=0).
    unavail_ns: Option<u64>,
    epoch: u64,
}

/// Phase B: drain a pre-filled queue, crash-stopping the current primary
/// permanently at fixed points mid-drain.
fn failover_drain(k: u32, items: u64) -> DrainRow {
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(k),
        ..FabricConfig::single_node(64 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(2 * items, 4)).unwrap();
    let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
    for v in 1..=items {
        h.enqueue(&mut c, v).unwrap();
    }

    // Crash the *current* primary at each point: with K=2 the second
    // crash kills the first promoted replica, forcing a second failover.
    let mut crash_at: Vec<u64> = vec![items / 2];
    if k >= 2 {
        crash_at.push(items * 3 / 4);
    }
    let mut crashes = 0u64;
    let mut unavail_ns = None;
    let mut consumed = 0u64;
    let mut expect = 1u64;
    loop {
        if crash_at.first() == Some(&consumed) {
            crash_at.remove(0);
            f.node(f.group_view(NodeId(0)).primary).crash_permanent();
            crashes += 1;
        }
        let measure = crashes == 1 && unavail_ns.is_none();
        let t0 = c.now_ns();
        match h.dequeue(&mut c) {
            Ok(v) => {
                assert_eq!(v, expect, "K={k}: items must come back in order, exactly once");
                expect += 1;
                consumed += 1;
                if measure {
                    unavail_ns = Some(c.now_ns() - t0);
                }
            }
            Err(CoreError::QueueEmpty) => break,
            // K=0: the group is dead; the drain ends here and everything
            // still queued is lost for good.
            Err(_) => break,
        }
    }
    let s = c.stats();
    DrainRow {
        k,
        crashes,
        produced: items,
        consumed,
        lost: items - consumed,
        giveups: s.giveups,
        failovers: s.failovers,
        unavail_ns,
        epoch: f.group_view(NodeId(0)).epoch,
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e17_replica");

    // ---- Phase A: write overhead, K × pipeline depth -------------------
    let ops = 128; // divisible by every depth below
    let mut ta = Table::new(
        "E17: acknowledged u64 writes, K mirrors — virtual ns/op (default cost model)",
        &["K", "depth", "serial ns/op", "pipe ns/op", "×K=0 (pipe)", "msgs/op", "mirror msgs/op"],
    );
    let mut base: HashMap<usize, f64> = HashMap::new();
    let mut worst_ratio: f64 = 1.0;
    for &k in &[0u32, 1, 2] {
        for &depth in &[1usize, 2, 4, 8] {
            let (serial, pipe, msgs, mirrors) = write_overhead(k, depth, ops);
            if k == 0 {
                base.insert(depth, pipe);
            }
            let ratio = pipe / base[&depth];
            if k >= 1 && depth >= 4 {
                worst_ratio = worst_ratio.max(ratio);
                assert!(
                    ratio <= 1.3,
                    "K={k} depth={depth}: replication overhead ×{ratio:.3} > 1.3"
                );
            }
            ta.row(vec![
                k.to_string(),
                depth.to_string(),
                format!("{serial:.0}"),
                format!("{pipe:.0}"),
                format!("×{ratio:.2}"),
                f2(msgs),
                f2(mirrors),
            ]);
        }
    }
    report.add(ta);

    // ---- Phase B: drain across permanent primary loss ------------------
    let items = 240;
    let mut tb = Table::new(
        "E17b: queue drain across permanent primary crash-stops",
        &[
            "K", "crashes", "produced", "consumed", "lost", "giveups", "failovers",
            "unavail µs", "lease µs", "epoch",
        ],
    );
    let lease = FAILOVER_LEASE_NS;
    let rtt = farmem_fabric::CostModel::DEFAULT.far_rtt_ns;
    let mut lost_by_k = [0u64; 3];
    let mut unavail_k1 = 0u64;
    for &k in &[0u32, 1, 2] {
        let r = failover_drain(k, items);
        if k == 0 {
            assert!(r.lost > 0, "K=0: a permanent crash must lose the undrained items");
            assert!(r.giveups >= 1, "K=0: the dead group charges a give-up");
        } else {
            assert_eq!(r.lost, 0, "K={k}: zero data loss across {} crashes", r.crashes);
            assert_eq!(r.giveups, 0, "K={k}: no verb abandoned");
            assert_eq!(r.failovers, r.crashes, "K={k}: one promotion per crash");
            assert_eq!(r.epoch, r.crashes, "K={k}: epoch fences each promotion");
            let stall = r.unavail_ns.expect("post-crash dequeue completed");
            assert!(stall >= lease, "K={k}: promotion waits out the failover lease");
            assert!(
                stall <= lease + 20 * rtt,
                "K={k}: unavailability {stall}ns exceeds one lease + a few RTs"
            );
            if k == 1 {
                unavail_k1 = stall;
            }
        }
        lost_by_k[k as usize] = r.lost;
        tb.row(vec![
            r.k.to_string(),
            r.crashes.to_string(),
            r.produced.to_string(),
            r.consumed.to_string(),
            r.lost.to_string(),
            r.giveups.to_string(),
            r.failovers.to_string(),
            r.unavail_ns.map(us).unwrap_or_else(|| "∞".into()),
            us(lease),
            r.epoch.to_string(),
        ]);
    }
    report.add(tb);

    // ---- Phase C: trace reconciliation across a failover ---------------
    let n = 300;
    let f = FabricConfig {
        faults: FaultPlan::transient(20_000).with_seed(args.seed_or(17)),
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::single_node(256 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let tracer = c.enable_tracing(TraceConfig::default());
    let cfg = HtTreeConfig { initial_buckets: 16, ..Default::default() };
    let mut h = {
        let _span = c.span("e17.setup");
        let t = HtTree::create(&mut c, &alloc, cfg).unwrap();
        t.attach(&mut c, &alloc, cfg).unwrap()
    };
    {
        let _span = c.span("e17.before_crash");
        for i in 0..n {
            h.put(&mut c, i, i + 1).unwrap();
        }
    }
    f.node(NodeId(0)).crash_permanent();
    {
        let _span = c.span("e17.after_failover");
        for i in 0..n {
            assert_eq!(h.get(&mut c, i).unwrap(), Some(i + 1), "key {i} lost in failover");
        }
        for i in n..n + n / 2 {
            h.put(&mut c, i, i + 1).unwrap();
        }
    }
    let s = c.stats();
    assert_eq!(s.failovers, 1, "exactly one promotion in the traced run");
    assert_eq!(s.giveups, 0);
    assert!(s.replica_messages > 0, "mirrors must have fanned out");
    let rep = tracer.report(c.stats());
    rep.reconcile()
        .unwrap_or_else(|field| panic!("trace does not reconcile on `{field}` across failover"));
    let ratio = rep.attribution_ratio();
    let mut tc = Table::new(
        "E17c: trace reconciliation across a traced failover (2% transient faults)",
        &["metric", "value"],
    );
    tc.row(vec!["total round trips".into(), rep.total.round_trips.to_string()]);
    tc.row(vec!["attributed round trips".into(), rep.attributed().round_trips.to_string()]);
    tc.row(vec!["attribution ratio".into(), format!("{ratio:.4}")]);
    tc.row(vec!["mirror messages".into(), s.replica_messages.to_string()]);
    tc.row(vec!["fence refreshes".into(), s.fence_refreshes.to_string()]);
    tc.row(vec!["failovers".into(), s.failovers.to_string()]);
    tc.row(vec!["exact reconciliation".into(), "yes".into()]);
    report.add(tc);

    // ---- Summary (every cell was asserted above) ----------------------
    let mut ts = Table::new(
        "E17: summary — zero data loss, bounded unavailability, ≤1.3× write overhead",
        &[
            "worst x vs K=0 (depth>=4)", "K=0 lost", "K=1 lost", "K=2 lost",
            "K=1 unavail µs", "lease µs", "trace reconciled",
        ],
    );
    ts.row(vec![
        format!("{worst_ratio:.3}"),
        lost_by_k[0].to_string(),
        lost_by_k[1].to_string(),
        lost_by_k[2].to_string(),
        us(unavail_k1),
        us(lease),
        "yes".into(),
    ]);
    report.add(ts);

    if args.verbose() {
        println!(
            "\nShape check: mirrors fan out in parallel behind the primary's ack, so\n\
             the write overhead is a fraction of one RT (×{worst_ratio:.3} worst at depth ≥ 4,\n\
             K ≤ 2) — not ×(K+1). A K≥1 drain crossing a permanent primary loss is\n\
             exactly-once with unavailability ≈ one failover lease ({} µs); at K=0\n\
             the same crash loses {} of {} items. The traced failover reconciles\n\
             field-for-field.",
            us(lease),
            lost_by_k[0],
            items,
        );
    }
    report.save();
}
