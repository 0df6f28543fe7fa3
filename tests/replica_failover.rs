//! Replication-group failover tests: data structures survive *permanent*
//! memory-node loss (crash-stop, §2's separate fault domains) when the
//! fabric runs with K ≥ 1 replicas per logical node.
//!
//! The structures themselves are untouched: they keep using logical
//! addresses, the client routes each verb through its cached group view,
//! and mirrored writes keep every group member byte-identical — so a
//! promoted replica serves exactly the data the lost primary held.

use farmem::prelude::*;

#[test]
fn httree_survives_permanent_primary_loss_mid_workload() {
    // Two logical nodes, one replica each (4 physical). Fill a map, lose
    // group 1's primary for good, and keep going: every key written
    // before the crash is still there, and new writes land on the
    // promoted replica.
    let f = FabricConfig {
        nodes: 2,
        node_capacity: 32 << 20,
        cost: CostModel::COUNT_ONLY,
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let cfg = HtTreeConfig::default();
    let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
    for k in 0..500u64 {
        h.put(&mut c, k, k + 1).unwrap();
    }
    f.node(NodeId(1)).crash_permanent();
    for k in 0..500u64 {
        assert_eq!(h.get(&mut c, k).unwrap(), Some(k + 1), "key {k} lost in failover");
    }
    for k in 500..600u64 {
        h.put(&mut c, k, k + 1).unwrap();
    }
    for k in 0..600u64 {
        assert_eq!(h.get(&mut c, k).unwrap(), Some(k + 1));
    }
    let s = c.stats();
    assert!(s.failovers >= 1, "the crash must have forced a promotion");
    assert_eq!(s.giveups, 0, "no verb was abandoned");
    let v = f.group_view(NodeId(1));
    assert_eq!(v.epoch, 1);
    assert_eq!(v.primary, NodeId(3), "group 1's replica took over");
}

#[test]
fn queue_drains_exactly_once_across_failover() {
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::count_only(32 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut p = f.client();
    let q = FarQueue::create(&mut p, &alloc, QueueConfig::new(128, 4)).unwrap();
    let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
    for v in 1..=60u64 {
        hp.enqueue(&mut p, v).unwrap();
    }
    let mut c = f.client();
    let mut hc = FarQueue::attach(&mut c, q.hdr()).unwrap();
    let mut got = Vec::new();
    for _ in 0..30 {
        got.push(hc.dequeue(&mut c).unwrap());
    }
    f.node(NodeId(0)).crash_permanent();
    while got.len() < 60 {
        got.extend(hc.dequeue_batch(&mut c, 7).unwrap());
    }
    assert_eq!(got, (1..=60u64).collect::<Vec<_>>(), "exactly once, in order");
    assert!(matches!(hc.dequeue(&mut c), Err(CoreError::QueueEmpty)));
    assert_eq!(c.stats().giveups, 0);
    assert_eq!(c.stats().failovers, 1);
}

#[test]
fn farvec_reads_back_through_promoted_replica() {
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(2),
        ..FabricConfig::count_only(32 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let v = FarVec::create(&mut c, &alloc, 256, AllocHint::Spread).unwrap();
    for i in 0..256u64 {
        v.set(&mut c, i, i * 3).unwrap();
    }
    // Lose the primary, then the first promoted replica too: with K=2 the
    // group survives two permanent losses.
    f.node(NodeId(0)).crash_permanent();
    for i in 0..128u64 {
        assert_eq!(v.get(&mut c, i).unwrap(), i * 3);
    }
    f.node(NodeId(1)).crash_permanent();
    for i in 0..256u64 {
        assert_eq!(v.get(&mut c, i).unwrap(), i * 3);
    }
    assert_eq!(c.stats().failovers, 2, "two successive promotions");
    assert_eq!(f.group_view(NodeId(0)).epoch, 2);
}

#[test]
fn failover_unavailability_is_one_lease_plus_a_few_round_trips() {
    // Under the real cost model, the verb that performs a failover pays:
    // the failover lease (waiting out every lock lease the dead primary's
    // clients held), one view refresh, and its own re-issue. Nothing else.
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::single_node(16 << 20)
    }
    .build();
    let mut c = f.client();
    let addr = FarAddr(4096);
    c.write_u64(addr, 9).unwrap();
    f.node(NodeId(0)).crash_permanent();
    let lease = FAILOVER_LEASE_NS;
    let rtt = f.cost().far_rtt_ns;
    let t0 = c.now_ns();
    assert_eq!(c.read_u64(addr).unwrap(), 9);
    let stall = c.now_ns() - t0;
    assert!(stall >= lease, "promotion waits out the failover lease");
    assert!(
        stall <= lease + 10 * rtt,
        "unavailability bounded by one lease + a few RTs, got {stall}ns"
    );
}

#[test]
fn spread_reads_round_robin_and_survive_replica_loss() {
    // A client that spreads its reads serves them from the whole group
    // (members are byte-identical). Losing a *replica* mid-stream costs an
    // eviction and a view refresh — no promotion, no epoch bump, no giveup.
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(2),
        ..FabricConfig::count_only(16 << 20)
    }
    .build();
    let mut c = f.client();
    c.set_spread_reads(true);
    let base = 4096u64;
    for i in 0..32u64 {
        c.write_u64(FarAddr(base + i * 8), i + 1).unwrap();
    }
    for round in 0..3 {
        for i in 0..32u64 {
            assert_eq!(c.read_u64(FarAddr(base + i * 8)).unwrap(), i + 1, "round {round}");
        }
    }
    f.node(NodeId(2)).crash_permanent(); // a replica, not the primary
    for i in 0..32u64 {
        assert_eq!(c.read_u64(FarAddr(base + i * 8)).unwrap(), i + 1);
    }
    let s = c.stats();
    assert_eq!(s.failovers, 0, "replica loss is an eviction, not a failover");
    assert_eq!(s.giveups, 0);
    let v = f.group_view(NodeId(0));
    assert_eq!(v.epoch, 0, "no promotion happened");
    assert!(!v.members.contains(&NodeId(2)), "dead replica evicted");
    assert_eq!(v.primary, NodeId(0));
}

#[test]
fn reclamation_limbo_survives_promotion() {
    // Deferred frees ride the same mirrored far words as everything else:
    // a promotion mid-churn must neither lose retired addresses (leak)
    // nor resurrect them (double free). The limbo still drains to empty
    // through the promoted primary, and live data stays intact.
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::count_only(64 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
    let shared = reg.attach(&mut c, &alloc).unwrap();
    let cfg = HtTreeConfig { initial_buckets: 4, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = tree.attach_reclaimed(&mut c, &alloc, cfg, shared.clone()).unwrap();
    for k in 0..200u64 {
        h.put(&mut c, k, k + 1).unwrap();
    }
    for k in 0..100u64 {
        h.remove(&mut c, k).unwrap(); // retires into limbo
    }
    let retired_before = c.stats().retired_bytes;
    assert!(retired_before > 0, "removals must have retired far memory");
    f.node(NodeId(0)).crash_permanent();
    // Churn through the promoted primary, then drain the limbo.
    for k in 200..260u64 {
        h.put(&mut c, k, k + 1).unwrap();
    }
    {
        let mut r = shared.lock().unwrap();
        r.seal(&mut c).unwrap();
    }
    let _ = h.get(&mut c, 100).unwrap(); // pins past the seal
    {
        let mut r = shared.lock().unwrap();
        r.reclaim(&mut c).unwrap();
        assert_eq!(r.stats().limbo_entries(), 0, "limbo drained through the new primary");
    }
    let s = c.stats();
    assert!(s.reclaimed_bytes >= retired_before, "no retired address was lost");
    for k in 100..260u64 {
        assert_eq!(h.get(&mut c, k).unwrap(), Some(k + 1));
    }
    for k in 0..100u64 {
        assert_eq!(h.get(&mut c, k).unwrap(), None, "removed keys stay removed");
    }
    assert_eq!(s.giveups, 0);
    assert!(s.failovers >= 1);
}
