//! Fault-domain tests: far memory survives client crashes (§2's separate
//! fault domains), node failures surface as errors and recover, and lossy
//! notification delivery degrades gracefully (§7.2).

use farmem::prelude::*;

#[test]
fn client_crash_loses_only_its_caches() {
    // A client's caches are "discarded when clients terminate" (§3); the
    // far data must survive and a fresh client must see everything.
    let f = FabricConfig::count_only(64 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let tree;
    {
        let mut doomed = f.client();
        let cfg = HtTreeConfig::default();
        tree = HtTree::create(&mut doomed, &alloc, cfg).unwrap();
        let mut h = tree.attach(&mut doomed, &alloc, cfg).unwrap();
        for k in 0..500u64 {
            h.put(&mut doomed, k, k + 1).unwrap();
        }
        // `doomed` (and its cached tree) drops here: the crash.
    }
    let mut fresh = f.client();
    let mut h = tree.attach(&mut fresh, &alloc, HtTreeConfig::default()).unwrap();
    for k in 0..500u64 {
        assert_eq!(h.get(&mut fresh, k).unwrap(), Some(k + 1));
    }
}

#[test]
fn queue_survives_consumer_crash() {
    let f = FabricConfig::count_only(32 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut producer = f.client();
    let q = FarQueue::create(&mut producer, &alloc, QueueConfig::new(128, 4)).unwrap();
    let mut hp = FarQueue::attach(&mut producer, q.hdr()).unwrap();
    for v in 0..10u64 {
        hp.enqueue(&mut producer, v).unwrap();
    }
    {
        let mut doomed = f.client();
        let mut hc = FarQueue::attach(&mut doomed, q.hdr()).unwrap();
        assert_eq!(hc.dequeue(&mut doomed).unwrap(), 0);
        assert_eq!(hc.dequeue(&mut doomed).unwrap(), 1);
        // Crash after consuming two items.
    }
    let mut fresh = f.client();
    let mut hc = FarQueue::attach(&mut fresh, q.hdr()).unwrap();
    for v in 2..10u64 {
        assert_eq!(hc.dequeue(&mut fresh).unwrap(), v);
    }
}

#[test]
fn node_failure_is_surfaced_and_recoverable() {
    let f = FabricConfig {
        nodes: 2,
        node_capacity: 16 << 20,
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build();
    let mut c = f.client();
    // Data on both nodes (blocked mapping: low = node 0, high = node 1).
    let lo = FarAddr(4096);
    let hi = FarAddr((16 << 20) + 4096);
    c.write_u64(lo, 1).unwrap();
    c.write_u64(hi, 2).unwrap();
    f.node(NodeId(1)).fail();
    // Node 0 data remains reachable; node 1 errors.
    assert_eq!(c.read_u64(lo).unwrap(), 1);
    assert!(matches!(
        c.read_u64(hi),
        Err(farmem::fabric::FabricError::NodeFailed(NodeId(1)))
    ));
    f.node(NodeId(1)).recover();
    assert_eq!(c.read_u64(hi).unwrap(), 2, "data intact after recovery");
}

#[test]
fn structures_error_cleanly_when_their_node_fails() {
    let f = FabricConfig::count_only(16 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let ctr = FarCounter::create(&mut c, &alloc, 0, AllocHint::Spread).unwrap();
    ctr.increment(&mut c).unwrap();
    f.node(NodeId(0)).fail();
    assert!(ctr.increment(&mut c).is_err());
    f.node(NodeId(0)).recover();
    assert_eq!(ctr.get(&mut c).unwrap(), 1);
}

#[test]
fn lossy_notifications_never_lose_data_only_freshness() {
    // Best-effort delivery with heavy silent drops: the refreshable
    // vector's safety poll still converges to the writer's state.
    let f = FabricConfig {
        cost: CostModel::COUNT_ONLY,
        delivery: DeliveryPolicy { drop_ppm: 400_000, coalesce: false, max_queue: 1 << 20 },
        ..FabricConfig::single_node(32 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut w = f.client();
    let mut r = f.client();
    let v = RefreshableVec::create(&mut w, &alloc, 256, 8, AllocHint::Spread).unwrap();
    let writer = VecWriter::new(v);
    let policy = RefreshPolicy {
        initial: RefreshMode::Notify,
        dynamic: false,
        safety_poll_every: 4,
    };
    let mut reader = VecReader::new(&mut r, v, policy).unwrap();
    for round in 0..40u64 {
        writer.write(&mut w, round % 256, round + 1).unwrap();
        reader.refresh(&mut r).unwrap();
    }
    // Force the safety poll to have happened and converge fully.
    for _ in 0..5 {
        reader.refresh(&mut r).unwrap();
    }
    for round in 0..40u64 {
        assert_eq!(
            reader.get(&mut r, round % 256).unwrap(),
            round + 1,
            "index {}",
            round % 256
        );
    }
}

#[test]
fn spike_dropped_monitor_notifications_degrade_to_checks() {
    use farmem::monitor::{AlarmSpec, HistogramMonitor, Severity};
    // A tiny consumer queue: an alarm storm overflows it; the Lost
    // warning makes the consumer check every window, so no alarm is
    // missed.
    let f = FabricConfig {
        cost: CostModel::COUNT_ONLY,
        delivery: DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 2 },
        ..FabricConfig::single_node(64 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut pc = f.client();
    let spec = AlarmSpec { warning: 70, critical: 85, failure: 95, duration: 3 };
    let m = HistogramMonitor::create(&mut pc, &alloc, 101, 100, 4, spec).unwrap();
    let mut p = m.producer(&mut pc);
    let mut cc = f.client();
    let mut cons = m.consumer(&mut cc, Severity::Warning).unwrap();
    for _ in 0..50 {
        p.record(&mut pc, 90).unwrap();
    }
    let alarms = cons.poll(&mut cc).unwrap();
    assert!(!alarms.is_empty(), "alarm raised despite dropped notifications");
    assert_eq!(alarms[0].severity, Severity::Critical);
}

#[test]
fn timed_crash_window_heals_through_retries() {
    // A node crashes mid-workload and recovers on a virtual-time
    // schedule; the client's transparent retry/backoff layer outlasts
    // the window, so the workload completes with no errors and no data
    // loss. The window (30µs) sits inside the default retry budget
    // (~127µs of exponential backoff across 8 attempts).
    let f = FabricConfig::count_only(32 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(64, 4)).unwrap();
    let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
    for v in 1..=10u64 {
        h.enqueue(&mut c, v).unwrap();
    }
    // Crash the (only) node from the client's current virtual instant.
    // In count-only mode the clock advances only through retry backoff,
    // so every verb lands inside the window until retries wait it out.
    let now = c.now_ns();
    f.node(NodeId(0)).schedule_crash(now, now + 30_000);
    let before = c.stats();
    let mut drained = Vec::new();
    for _ in 0..10 {
        drained.push(h.dequeue(&mut c).unwrap());
    }
    for v in 11..=15u64 {
        h.enqueue(&mut c, v).unwrap();
        drained.push(h.dequeue(&mut c).unwrap());
    }
    assert_eq!(drained, (1..=15u64).collect::<Vec<_>>(), "exactly-once, in order");
    let d = c.stats().since(&before);
    assert!(d.retries > 0, "the crash window must have forced retries");
    assert!(c.now_ns() >= now + 30_000, "retries waited out the window in virtual time");
}

#[test]
fn expired_lock_lease_is_stolen_and_late_unlock_fenced() {
    // Client A takes a far mutex and crashes. Client B out-waits A's
    // lease in virtual time and steals the lock; A's late unlock is
    // rejected by the fencing tag, so it cannot release B's lock.
    let f = FabricConfig::count_only(1 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut a = f.client();
    let mut b = f.client();
    let m = FarMutex::create(&mut a, &alloc, AllocHint::Spread).unwrap();
    assert!(m.try_lock(&mut a).unwrap());
    // A crashes here (never unlocks). B contends: lock() itself charges
    // timed-out waits against the unchanged lease until it can steal.
    m.lock(&mut b, 10_000).unwrap();
    assert!(
        b.now_ns() >= farmem::baselines::mutex::LEASE_NS,
        "steal only after out-waiting the lease"
    );
    // A comes back from the dead and tries to unlock: fenced off.
    assert!(matches!(m.unlock(&mut a), Err(farmem::baselines::BaselineError::LeaseLost)));
    // B still owns the lock and releases it cleanly.
    m.unlock(&mut b).unwrap();
    assert!(m.try_lock(&mut a).unwrap(), "lock usable again after the full cycle");
    m.unlock(&mut a).unwrap();
}

#[test]
fn pipelined_ops_retry_per_descriptor_under_faults() {
    // 2% transient faults: every descriptor in a pipelined doorbell rides
    // the same retry/backoff layer as a serial verb, so the whole batch
    // completes with the right data, no give-ups, and one extra round
    // trip per retried attempt.
    let f = FabricConfig {
        faults: FaultPlan::transient(20_000).with_seed(9),
        retry: RetryPolicy::DEFAULT,
        ..FabricConfig::count_only(32 << 20)
    }
    .build();
    let mut c = f.client();
    let n = 500u64;
    let base = 4096u64;
    for i in 0..n {
        c.write_u64(FarAddr(base + i * 8), i + 1).unwrap();
    }
    let before = c.stats();
    let mut got = Vec::new();
    for chunk in (0..n).collect::<Vec<_>>().chunks(8) {
        let mut q = c.pipeline();
        for &i in chunk {
            q.read_u64(FarAddr(base + i * 8));
        }
        let cq = q.commit();
        assert!(cq.status().is_ok(), "transient faults must be retried away");
        for out in cq.into_outputs().unwrap() {
            got.push(out.value());
        }
    }
    assert_eq!(got, (1..=n).collect::<Vec<_>>(), "all descriptors read through");
    let d = c.stats().since(&before);
    assert!(d.faults_injected > 0, "the 2% plan must fire over {n} descriptors");
    assert_eq!(d.giveups, 0, "transient faults never exhaust the retry budget");
    assert!(d.retries > 0 && d.retries <= d.faults_injected, "faults surface as retries");
    assert_eq!(d.pipelined_ops, n, "every read went through the pipeline");
    assert_eq!(
        d.round_trips,
        n + d.retries,
        "per-descriptor accounting: one RT per success plus one per retried attempt"
    );
}

#[test]
fn pipeline_torn_reports_partial_completion() {
    // A non-transient failure mid-batch aborts the doorbell's tail. When
    // side-effecting descriptors have already completed, the commit must
    // say so — `PipelineTorn { completed, failed }` — and the aborted
    // tail must not have touched memory.
    use farmem::fabric::FabricError;
    let f = FabricConfig {
        nodes: 2,
        node_capacity: 16 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build();
    let mut c = f.client();
    // A write that lands, then a guarded claim through a null pointer:
    // answered with `NullDeref`, which a side-effecting descriptor does
    // not survive (non-transient).
    let (null, guard) = (FarAddr(16), FarAddr(24));
    let region = 8192u64;
    let mut q = c.pipeline();
    q.write_u64(FarAddr(region), 7);
    q.faai_swap_guarded(null, 8, 0, guard, 0);
    q.write_u64(FarAddr(region + 8), 9);
    let mut cq = q.commit();
    match cq.status() {
        Err(FabricError::PipelineTorn { completed, failed }) => {
            assert_eq!(
                (completed, failed),
                (1, 2),
                "one landed; the null claim and the aborted tail count as failed"
            );
        }
        other => panic!("expected PipelineTorn, got {other:?}"),
    }
    assert!(matches!(cq.take(0), Some(Ok(_))), "head descriptor completed");
    assert!(matches!(
        cq.take(1),
        Some(Err(FabricError::NullDeref { .. }))
    ));
    assert!(cq.take(2).is_none(), "tail aborted, never executed");
    // The completed write landed; the aborted one did not.
    assert_eq!(c.read_u64(FarAddr(region)).unwrap(), 7);
    assert_eq!(c.read_u64(FarAddr(region + 8)).unwrap(), 0, "aborted write left no trace");
}

#[test]
fn permanent_crash_without_replicas_gives_up_immediately() {
    // A permanent crash-stop is not a transient fault: with no replica to
    // fail over to, the verb is abandoned at once — `giveups` exactly once
    // per verb, `retries` untouched, and none of the ~127µs exponential
    // backoff budget burned waiting for a node that can never come back.
    let f = FabricConfig::count_only(16 << 20).build();
    let mut c = f.client();
    let addr = FarAddr(4096);
    c.write_u64(addr, 7).unwrap();
    f.node(NodeId(0)).crash_permanent();
    let before = c.stats();
    let t0 = c.now_ns();
    assert!(matches!(
        c.read_u64(addr),
        Err(farmem::fabric::FabricError::NodeLost(NodeId(0)))
    ));
    let d = c.stats().since(&before);
    assert_eq!(d.giveups, 1, "abandoned exactly once");
    assert_eq!(d.retries, 0, "a lost node is not retried");
    assert_eq!(c.now_ns(), t0, "no backoff burned on an unrecoverable fault");
    // Every subsequent verb is charged its own single give-up.
    assert!(c.write_u64(addr, 8).is_err());
    assert_eq!(c.stats().since(&before).giveups, 2);
}

#[test]
fn failover_to_replica_reissues_without_charging_retries() {
    // K=1 and the primary is lost from the start (scheduled through the
    // fault plan): the first verb waits out the failover lease, promotes
    // the replica, and completes against it. The re-issue is a routing
    // change, not a fault retry — `retries` stays 0 and nothing gives up.
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        faults: FaultPlan::crash_permanent(NodeId(0), 0),
        ..FabricConfig::count_only(16 << 20)
    }
    .build();
    let mut c = f.client();
    let addr = FarAddr(4096);
    c.write_u64(addr, 41).unwrap();
    assert_eq!(c.read_u64(addr).unwrap(), 41);
    let s = c.stats();
    assert_eq!(s.failovers, 1, "one promotion, adopted by the verb");
    assert_eq!(s.retries, 0, "failover re-issue never counts as a retry");
    assert_eq!(s.giveups, 0);
    assert!(
        c.now_ns() >= FAILOVER_LEASE_NS,
        "promotion only after the failover lease expired"
    );
    let v = f.group_view(NodeId(0));
    assert_eq!((v.epoch, v.primary), (1, NodeId(1)), "replica promoted at epoch 1");
    // The deposed primary is fenced, not silently serving stale data.
    assert!(matches!(
        f.node(NodeId(0)).check_alive_at(c.now_ns()),
        Err(farmem::fabric::FabricError::FencedEpoch { epoch: 1, .. })
    ));
}

#[test]
fn stale_client_is_fenced_into_a_view_refresh() {
    // Client A caches the group view, client B performs the failover; A's
    // next verb still routes to the deposed primary, gets the fencing
    // error, pays one charged view refresh, and completes — it can never
    // read or write through the stale primary.
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::count_only(16 << 20)
    }
    .build();
    let mut a = f.client();
    let mut b = f.client();
    let addr = FarAddr(4096);
    a.write_u64(addr, 5).unwrap(); // caches group 0's epoch-0 view
    f.node(NodeId(0)).crash_permanent();
    assert_eq!(b.read_u64(addr).unwrap(), 5, "B fails over and reads the replica");
    assert_eq!(b.stats().failovers, 1);
    let before = a.stats();
    assert_eq!(a.read_u64(addr).unwrap(), 5, "A is fenced, refreshes, re-reads");
    let d = a.stats().since(&before);
    assert_eq!(d.fence_refreshes, 1, "the fence forced exactly one refresh");
    assert_eq!(d.failovers, 0, "A adopted B's failover without promoting");
    assert_eq!(d.retries, 0);
}

#[test]
fn retries_and_reissues_stay_separate_under_mixed_faults() {
    // 2% transient faults *plus* a permanent primary loss mid-workload:
    // transient faults surface as `retries` (each also booked in
    // `faults_injected`), the failover re-issue does not, and nothing is
    // double-counted or abandoned.
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        faults: FaultPlan::transient(20_000).with_seed(11),
        retry: RetryPolicy::DEFAULT,
        ..FabricConfig::count_only(16 << 20)
    }
    .build();
    let mut c = f.client();
    let base = 4096u64;
    for i in 0..100u64 {
        c.write_u64(FarAddr(base + i * 8), i + 1).unwrap();
    }
    f.node(NodeId(0)).crash_permanent();
    for i in 100..200u64 {
        c.write_u64(FarAddr(base + i * 8), i + 1).unwrap();
    }
    for i in 0..200u64 {
        assert_eq!(c.read_u64(FarAddr(base + i * 8)).unwrap(), i + 1);
    }
    let s = c.stats();
    assert_eq!(s.failovers, 1);
    assert_eq!(s.giveups, 0);
    assert!(s.faults_injected > 0, "the 2% plan must fire over 400 verbs");
    assert!(
        s.retries <= s.faults_injected,
        "every retry maps to an injected fault; re-issues are never retries"
    );
}

#[test]
fn group_death_charges_one_giveup_per_verb() {
    // Primary and every replica lost: failover has nowhere to promote, so
    // each verb is abandoned with exactly one give-up (never one per
    // membership probe or per re-route).
    let f = FabricConfig {
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::count_only(16 << 20)
    }
    .build();
    let mut c = f.client();
    c.write_u64(FarAddr(4096), 1).unwrap();
    f.node(NodeId(0)).crash_permanent();
    f.node(NodeId(1)).crash_permanent();
    assert!(c.read_u64(FarAddr(4096)).is_err());
    assert_eq!(c.stats().giveups, 1);
    assert!(c.read_u64(FarAddr(4096)).is_err());
    assert_eq!(c.stats().giveups, 2);
    assert_eq!(c.stats().retries, 0);
}

#[test]
fn faai_bumps_the_pointer_once_across_a_target_crash() {
    // A head pointer on node 0 claims slots that live on node 1: forwarded
    // under `Forward`, reissued by the client under `Error` (§7.1). Node 1
    // is inside a timed crash window when the claims start. Each claim
    // must check its target — under `Error`, at the reissue's later
    // arrival — *before* it bumps the pointer: `NodeFailed` is transient,
    // so a claim that bumped first and failed at the target afterwards
    // would bump again on every retry and skip slots.
    for indirection in [IndirectionMode::Forward, IndirectionMode::Error] {
        let f = FabricConfig {
            nodes: 2,
            node_capacity: 16 << 20,
            striping: Striping::Blocked,
            indirection,
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::default()
        }
        .build();
        let mut c = f.client();
        let head = FarAddr(64);
        let slots = FarAddr((16 << 20) + 4096);
        c.write_u64(head, slots.0).unwrap();
        for i in 0..8u64 {
            c.write_u64(slots.offset(i * 8), 100 + i).unwrap();
        }
        let now = c.now_ns();
        f.node(NodeId(1)).schedule_crash(now, now + 30_000);
        let before = c.stats();
        let claimed: Vec<(u64, Vec<u8>)> = (0..4).map(|_| c.faai(head, 8, 8).unwrap()).collect();
        let retries = c.stats().since(&before).retries;
        assert!(retries > 0, "{indirection:?}: the crash window must have forced retries");
        assert_eq!(
            claimed,
            (0..4u64)
                .map(|i| (slots.0 + i * 8, (100 + i).to_le_bytes().to_vec()))
                .collect::<Vec<_>>(),
            "{indirection:?}: one slot per claim, in order"
        );
        assert_eq!(
            c.read_u64(head).unwrap(),
            slots.0 + 4 * 8,
            "{indirection:?}: pointer advanced exactly once per delivered value"
        );
    }
}

#[test]
fn pipelined_dequeue_batch_is_exactly_once_under_faults() {
    // Batched dequeues claim items with pipelined guarded `faai`+swap
    // descriptors; under 2% transient faults every item must still come
    // out exactly once, in order, across independent fault schedules.
    let mut total_faults = 0;
    for seed in [1u64, 2, 3] {
        let f = FabricConfig {
            faults: FaultPlan::transient(20_000).with_seed(seed),
            retry: RetryPolicy::DEFAULT,
            ..FabricConfig::count_only(32 << 20)
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut p = f.client();
        let q = FarQueue::create(&mut p, &alloc, QueueConfig::new(256, 4)).unwrap();
        let mut hp = FarQueue::attach(&mut p, q.hdr()).unwrap();
        for v in 1..=100u64 {
            hp.enqueue(&mut p, v).unwrap();
        }
        let mut c = f.client();
        let mut hc = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let mut got = Vec::new();
        while got.len() < 100 {
            got.extend(hc.dequeue_batch(&mut c, 7).unwrap());
        }
        assert_eq!(got, (1..=100u64).collect::<Vec<_>>(), "seed {seed}: exactly once, in order");
        assert!(
            matches!(hc.dequeue_batch(&mut c, 7), Err(CoreError::QueueEmpty)),
            "seed {seed}: nothing left behind"
        );
        assert_eq!(c.stats().giveups + p.stats().giveups, 0, "seed {seed}");
        total_faults += c.stats().faults_injected + p.stats().faults_injected;
    }
    assert!(total_faults > 0, "the fault plans must actually have fired");
}
