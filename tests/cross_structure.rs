//! Integration tests spanning crates: several data structures sharing one
//! fabric and one client, cross-checked against each other and against
//! in-memory models.

use farmem::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

fn fabric() -> std::sync::Arc<Fabric> {
    FabricConfig {
        nodes: 4,
        node_capacity: 64 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build()
}

#[test]
fn httree_agrees_with_hashmap_model_under_random_ops() {
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let cfg = HtTreeConfig { initial_buckets: 16, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut rng = StdRng::seed_from_u64(123);
    for i in 0..5000u64 {
        let key = rng.gen_range(0..600);
        match rng.gen_range(0..10) {
            0..=5 => {
                let v = i;
                h.put(&mut c, key, v).unwrap();
                model.insert(key, v);
            }
            6..=7 => {
                h.remove(&mut c, key).unwrap();
                model.remove(&key);
            }
            _ => {
                assert_eq!(h.get(&mut c, key).unwrap(), model.get(&key).copied(), "key {key}");
            }
        }
    }
    // Full final audit.
    for key in 0..600u64 {
        assert_eq!(h.get(&mut c, key).unwrap(), model.get(&key).copied(), "final {key}");
    }
    assert!(h.stats().splits + h.stats().grows > 0, "restructures exercised");
}

#[test]
fn several_structures_share_one_client_without_stealing_events() {
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let mut writer = f.client();
    let mut user = f.client();

    // One client holds: a cached vector, a queue handle, and a counter
    // watch — all with live subscriptions on the same event sink.
    let vec = FarVec::create(&mut writer, &alloc, 32, AllocHint::Spread).unwrap();
    let mut cached = CachedFarVec::new(&mut user, vec).unwrap();
    let q = FarQueue::create(&mut writer, &alloc, QueueConfig::new(64, 4)).unwrap();
    let mut qh = FarQueue::attach(&mut user, q.hdr()).unwrap();
    let ctr = FarCounter::create(&mut writer, &alloc, 0, AllocHint::Spread).unwrap();
    ctr.watch_equal(&mut user, 2).unwrap();

    // Interleave far-side activity on all three.
    vec.set(&mut writer, 3, 33).unwrap();
    let mut wq = FarQueue::attach(&mut writer, q.hdr()).unwrap();
    wq.enqueue(&mut writer, 7).unwrap();
    ctr.increment(&mut writer).unwrap();
    ctr.increment(&mut writer).unwrap();

    // Each consumer sees exactly its own events.
    assert_eq!(cached.get(&mut user, 3).unwrap(), 33, "vector cache invalidated");
    assert_eq!(qh.dequeue(&mut user).unwrap(), 7, "queue unaffected");
    let events = user.recv_events();
    assert!(
        events.iter().any(|e| matches!(e, Event::Equal { value: 2, .. })),
        "counter watch still fired: {events:?}"
    );
}

#[test]
fn httree_and_rpc_kv_agree_on_a_zipf_workload() {
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let cfg = HtTreeConfig { initial_buckets: 256, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
    let server = farmem::baselines::RpcKv::serve(ServerCpu::DEFAULT, CostModel::COUNT_ONLY);
    let mut kv = farmem::baselines::RpcKv::connect(vec![server]);

    let mut rng = StdRng::seed_from_u64(5);
    for i in 0..3000u64 {
        let key = rng.gen_range(0..500);
        if rng.gen_bool(0.5) {
            h.put(&mut c, key, i).unwrap();
            kv.put(key, i);
        } else {
            assert_eq!(h.get(&mut c, key).unwrap(), kv.get(key), "key {key}");
        }
    }
}

#[test]
fn vectors_and_counters_compose_into_a_histogram() {
    // A tiny end-to-end composition: counters feed a far vector that a
    // cached reader aggregates.
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let mut w = f.client();
    let mut r = f.client();
    let v = FarVec::create(&mut w, &alloc, 10, AllocHint::Spread).unwrap();
    for i in 0..100u64 {
        v.add(&mut w, i % 10, 1).unwrap();
    }
    let sum: u64 = v.read_range(&mut r, 0, 10).unwrap().iter().sum();
    assert_eq!(sum, 100);
    for i in 0..10 {
        assert_eq!(v.get(&mut r, i).unwrap(), 10);
    }
}

#[test]
fn stale_handles_recover_after_heavy_restructuring() {
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let mut c1 = f.client();
    let mut c2 = f.client();
    let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c1, &alloc, cfg).unwrap();
    let mut h1 = tree.attach(&mut c1, &alloc, cfg).unwrap();
    let mut h2 = tree.attach(&mut c2, &alloc, cfg).unwrap();
    // h2 reads early, then h1 restructures heavily.
    h1.put(&mut c1, 1, 10).unwrap();
    assert_eq!(h2.get(&mut c2, 1).unwrap(), Some(10));
    for k in 0..3000u64 {
        h1.put(&mut c1, k, k).unwrap();
    }
    assert!(h1.leaves() > 1);
    // h2's cache is several generations behind; every read still lands.
    for k in (0..3000u64).step_by(97) {
        assert_eq!(h2.get(&mut c2, k).unwrap(), Some(k), "key {k}");
    }
    assert!(h2.stats().stale_refreshes > 0);
}

/// Four tenants' key ranges loaded key by key: every table must split when
/// *it* overloads, whatever table the loader's other puts land in — a
/// decision sampled from the handle's put sequence aliases with this
/// order, leaves three of the four ranges unsplit, and a get walks chains.
#[test]
fn key_interleaved_ranges_keep_lookups_near_one_far_access() {
    const RANGES: u64 = 4;
    const KEYS: u64 = 20_000;
    let f = fabric();
    let alloc = FarAlloc::new(f.clone());
    let mut c = f.client();
    let cfg = HtTreeConfig { initial_buckets: 1024, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
    for key in 0..KEYS {
        for r in 0..RANGES {
            h.put(&mut c, (r << 48) | key, key + r).unwrap();
        }
    }
    let before = c.stats();
    let mut gets = 0u64;
    for r in 0..RANGES {
        for key in (0..KEYS).step_by(7) {
            assert_eq!(h.get(&mut c, (r << 48) | key).unwrap(), Some(key + r), "range {r} key {key}");
            gets += 1;
        }
    }
    let round_trips = c.stats().since(&before).round_trips;
    assert!(
        round_trips * 2 < gets * 3,
        "{round_trips} far accesses for {gets} gets over {} leaves",
        h.leaves()
    );
}
