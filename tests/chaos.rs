//! Chaos suite: structure workloads under seeded fault injection.
//!
//! Every test runs at ≥1% injected transient-fault probability per verb
//! and must hold three properties, for several distinct seeds:
//!
//! 1. no operation errors surface (the retry layer absorbs everything —
//!    at 2% per-verb failure and 8 attempts, a give-up is a ~1e-14
//!    event);
//! 2. structure semantics are exact: no lost or duplicated queue items,
//!    maps match an in-memory model, locks never wedge;
//! 3. runs are deterministic: the same seed reproduces the same fault
//!    and retry counts, bit for bit.

use farmem::prelude::*;
use std::collections::HashMap;

const SEEDS: [u64; 3] = [0xA11CE, 0xB0B, 0xC0FFEE];

/// 2% of verbs fail transiently (plus timeouts and latency spikes mixed
/// in by `FaultPlan::transient`'s taxonomy split).
const FAULT_PPM: u32 = 20_000;

fn chaotic_fabric(seed: u64) -> std::sync::Arc<Fabric> {
    FabricConfig {
        faults: FaultPlan::transient(FAULT_PPM).with_seed(seed),
        ..FabricConfig::count_only(64 << 20)
    }
    .build()
}

/// Runs the HT-tree workload on one fabric; returns the client's stats
/// delta for the determinism check.
fn httree_workload(seed: u64) -> AccessStats {
    let f = chaotic_fabric(seed);
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let before = c.stats();
    let cfg = HtTreeConfig { initial_buckets: 8, ..Default::default() };
    let t = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = t.attach(&mut c, &alloc, cfg).unwrap();
    let mut model: HashMap<u64, u64> = HashMap::new();
    for i in 0..400u64 {
        let k = (i * 7) % 150;
        h.put(&mut c, k, i + 1).unwrap();
        model.insert(k, i + 1);
        if i % 5 == 0 {
            assert_eq!(h.get(&mut c, k).unwrap(), Some(i + 1), "seed {seed:#x} key {k}");
        }
    }
    for (k, v) in &model {
        assert_eq!(h.get(&mut c, *k).unwrap(), Some(*v), "seed {seed:#x} key {k}");
    }
    c.stats().since(&before)
}

#[test]
fn httree_survives_chaos_for_every_seed() {
    for seed in SEEDS {
        let stats = httree_workload(seed);
        assert!(stats.faults_injected > 0, "seed {seed:#x}: chaos must actually fire");
        assert!(stats.retries > 0, "seed {seed:#x}: faults must force retries");
        assert_eq!(stats.giveups, 0, "seed {seed:#x}: no verb may exhaust its retries");
        // Determinism: the exact same seed reproduces the exact run.
        assert_eq!(httree_workload(seed), stats, "seed {seed:#x} must be reproducible");
    }
}

/// Queue workload: interleaved enqueue/dequeue with wrap repairs, then a
/// full drain. Exactly-once item accounting.
fn queue_workload(seed: u64) -> AccessStats {
    let f = chaotic_fabric(seed);
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let before = c.stats();
    // Tiny queue so wrap repairs fire constantly under chaos.
    let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(12, 2)).unwrap();
    let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
    let mut produced = Vec::new();
    let mut consumed = Vec::new();
    let mut next = 1u64;
    for i in 0..300u64 {
        if i % 3 != 2 {
            match h.enqueue(&mut c, next) {
                Ok(()) => {
                    produced.push(next);
                    next += 1;
                }
                Err(CoreError::QueueFull) => {}
                Err(e) => panic!("seed {seed:#x}: enqueue failed: {e}"),
            }
        } else {
            match h.dequeue(&mut c) {
                Ok(v) => consumed.push(v),
                Err(CoreError::QueueEmpty) => {}
                Err(e) => panic!("seed {seed:#x}: dequeue failed: {e}"),
            }
        }
    }
    loop {
        match h.dequeue(&mut c) {
            Ok(v) => consumed.push(v),
            Err(CoreError::QueueEmpty) => break,
            Err(e) => panic!("seed {seed:#x}: drain failed: {e}"),
        }
    }
    assert_eq!(consumed, produced, "seed {seed:#x}: exactly-once, in-order delivery");
    c.stats().since(&before)
}

#[test]
fn queue_delivers_exactly_once_under_chaos_for_every_seed() {
    for seed in SEEDS {
        let stats = queue_workload(seed);
        assert!(stats.faults_injected > 0, "seed {seed:#x}: chaos must actually fire");
        assert_eq!(stats.giveups, 0, "seed {seed:#x}: no verb may exhaust its retries");
        assert_eq!(queue_workload(seed), stats, "seed {seed:#x} must be reproducible");
    }
}

/// Queue workload under chaos *and* a mid-workload permanent primary
/// crash: same exactly-once proof as [`queue_workload`], but the fabric
/// runs K=1 replication and the (only) group's primary is crash-stopped
/// for good halfway through. Pipelined batch dequeues are mixed in so the
/// doorbell path crosses the failover too.
fn queue_failover_workload(seed: u64) -> AccessStats {
    let f = FabricConfig {
        faults: FaultPlan::transient(FAULT_PPM).with_seed(seed),
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::count_only(64 << 20)
    }
    .build();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let before = c.stats();
    let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(12, 2)).unwrap();
    let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
    let mut produced = Vec::new();
    let mut consumed = Vec::new();
    let mut next = 1u64;
    for i in 0..300u64 {
        if i == 150 {
            // Permanent loss of the primary, mid-stream. The next verb
            // fails over; everything enqueued so far must survive on the
            // promoted replica.
            f.node(NodeId(0)).crash_permanent();
        }
        if i % 3 != 2 {
            match h.enqueue(&mut c, next) {
                Ok(()) => {
                    produced.push(next);
                    next += 1;
                }
                Err(CoreError::QueueFull) => {}
                Err(e) => panic!("seed {seed:#x}: enqueue failed: {e}"),
            }
        } else if i % 9 == 2 {
            // Pipelined batch dequeue (guarded faai+swap descriptors).
            match h.dequeue_batch(&mut c, 3) {
                Ok(vs) => consumed.extend(vs),
                Err(CoreError::QueueEmpty) => {}
                Err(e) => panic!("seed {seed:#x}: batch dequeue failed: {e}"),
            }
        } else {
            match h.dequeue(&mut c) {
                Ok(v) => consumed.push(v),
                Err(CoreError::QueueEmpty) => {}
                Err(e) => panic!("seed {seed:#x}: dequeue failed: {e}"),
            }
        }
    }
    loop {
        match h.dequeue(&mut c) {
            Ok(v) => consumed.push(v),
            Err(CoreError::QueueEmpty) => break,
            Err(e) => panic!("seed {seed:#x}: drain failed: {e}"),
        }
    }
    assert_eq!(
        consumed, produced,
        "seed {seed:#x}: exactly-once, in-order delivery across the failover"
    );
    let d = c.stats().since(&before);
    assert_eq!(d.failovers, 1, "seed {seed:#x}: exactly one promotion");
    assert_eq!(f.group_view(NodeId(0)).epoch, 1, "seed {seed:#x}");
    d
}

#[test]
fn queue_is_exactly_once_through_permanent_crash_and_failover() {
    for seed in SEEDS {
        let stats = queue_failover_workload(seed);
        assert!(stats.faults_injected > 0, "seed {seed:#x}: chaos must actually fire");
        assert_eq!(stats.giveups, 0, "seed {seed:#x}: no verb may be abandoned");
        assert!(stats.replica_messages > 0, "seed {seed:#x}: mirrors must have fanned out");
        assert_eq!(
            queue_failover_workload(seed),
            stats,
            "seed {seed:#x} must be reproducible"
        );
    }
}

/// Refreshable-vector workload: writer updates, reader converges through
/// (fault-afflicted) refreshes.
fn refvec_workload(seed: u64) -> AccessStats {
    let f = chaotic_fabric(seed);
    let alloc = FarAlloc::new(f.clone());
    let mut w = f.client();
    let mut r = f.client();
    let before_w = w.stats();
    let v = RefreshableVec::create(&mut w, &alloc, 128, 8, AllocHint::Spread).unwrap();
    let writer = VecWriter::new(v);
    let mut reader = VecReader::new(&mut r, v, RefreshPolicy::default()).unwrap();
    let mut model = vec![0u64; 128];
    for round in 0..200u64 {
        let idx = (round * 11) % 128;
        writer.write(&mut w, idx, round + 1).unwrap();
        model[idx as usize] = round + 1;
        reader.refresh(&mut r).unwrap();
    }
    // Converge fully, then check every slot against the model.
    for _ in 0..8 {
        reader.refresh(&mut r).unwrap();
    }
    for (i, expect) in model.iter().enumerate() {
        assert_eq!(
            reader.get(&mut r, i as u64).unwrap(),
            *expect,
            "seed {seed:#x} index {i}"
        );
    }
    w.stats().since(&before_w)
}

#[test]
fn refreshable_vec_converges_under_chaos_for_every_seed() {
    for seed in SEEDS {
        let stats = refvec_workload(seed);
        assert!(stats.faults_injected > 0, "seed {seed:#x}: chaos must actually fire");
        assert_eq!(stats.giveups, 0, "seed {seed:#x}: no verb may exhaust its retries");
        assert_eq!(refvec_workload(seed), stats, "seed {seed:#x} must be reproducible");
    }
}

#[test]
fn locks_never_wedge_under_chaos() {
    for seed in SEEDS {
        let f = chaotic_fabric(seed);
        let alloc = FarAlloc::new(f.clone());
        let mut a = f.client();
        let mut b = f.client();
        let m = FarMutex::create(&mut a, &alloc, AllocHint::Spread).unwrap();
        let cell = alloc.alloc(8, AllocHint::Spread).unwrap();
        a.write_u64(cell, 0).unwrap();
        // Alternating lock/unlock cycles from two clients; every
        // acquisition must complete despite injected verb faults.
        for i in 0..100u64 {
            let c = if i % 2 == 0 { &mut a } else { &mut b };
            m.lock(c, 1_000).unwrap();
            let v = c.read_u64(cell).unwrap();
            c.write_u64(cell, v + 1).unwrap();
            m.unlock(c).unwrap();
        }
        assert_eq!(a.read_u64(cell).unwrap(), 100, "seed {seed:#x}: no lost increments");
    }
}
