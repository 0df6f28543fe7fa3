//! Heavy multithreaded stress across the whole structure set: real OS
//! threads, real atomics on the simulated fabric, cross-checked against
//! sequential models at the end.

use farmem::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn queue_under_tiny_capacity_and_many_threads_loses_nothing() {
    // A brutally small queue: wraps, full-hits and empty-overshoots fire
    // constantly; the guarded fast path plus the repair protocol must
    // neither lose nor duplicate an item. `Contended` ("retry") bounds how
    // many repairs one call waits out; nothing landed, so both sides
    // retry it.
    let f = FabricConfig::single_node(16 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let producers = 3u64;
    let consumers = 3u64;
    let per_producer = 300u64;
    let q = FarQueue::create(
        &mut c0,
        &alloc,
        QueueConfig::new(4 * (producers + consumers) + 8, producers + consumers),
    )
    .unwrap();
    let taken = Arc::new(AtomicU64::new(0));
    let total = producers * per_producer;
    let mut handles = Vec::new();
    for pid in 0..producers {
        let f = f.clone();
        handles.push(std::thread::spawn(move || -> Vec<u64> {
            let mut c = f.client();
            let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
            for i in 0..per_producer {
                loop {
                    match h.enqueue_wait(&mut c, pid * 10_000 + i, 1_000_000) {
                        Ok(()) => break,
                        Err(CoreError::Contended) => std::thread::yield_now(),
                        Err(e) => panic!("{e}"),
                    }
                }
            }
            Vec::new()
        }));
    }
    for _ in 0..consumers {
        let f = f.clone();
        let taken = taken.clone();
        handles.push(std::thread::spawn(move || -> Vec<u64> {
            let mut c = f.client();
            let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
            let mut got = Vec::new();
            while taken.load(Ordering::Relaxed) < total {
                match h.dequeue(&mut c) {
                    Ok(v) => {
                        taken.fetch_add(1, Ordering::Relaxed);
                        got.push(v);
                    }
                    Err(CoreError::QueueEmpty | CoreError::Contended) => std::thread::yield_now(),
                    Err(e) => panic!("{e}"),
                }
            }
            got
        }));
    }
    let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    all.sort_unstable();
    let mut want: Vec<u64> = (0..producers)
        .flat_map(|p| (0..per_producer).map(move |i| p * 10_000 + i))
        .collect();
    want.sort_unstable();
    assert_eq!(all, want, "every item exactly once, through wraps and repairs");
}

#[test]
fn httree_blob_and_counters_hammered_together() {
    let f = FabricConfig::single_node(512 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
    let ops_done = FarCounter::create(&mut c0, &alloc, 0, AllocHint::Spread).unwrap();
    let threads = 4u64;
    let per = 200u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let f = f.clone();
        let alloc = alloc.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = f.client();
            let mut blobs = FarBlobMap::attach(&mut c, &alloc, tree, cfg).unwrap();
            for i in 0..per {
                let key = tid * 1_000_000 + i;
                blobs
                    .put_bytes(&mut c, key, format!("t{tid}-i{i}").as_bytes())
                    .unwrap();
                ops_done.increment(&mut c).unwrap();
                // Read something another thread probably wrote.
                let other = ((tid + 1) % threads) * 1_000_000 + i / 2;
                let _ = blobs.get_bytes(&mut c, other).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(ops_done.get(&mut c0).unwrap(), threads * per);
    let mut blobs = FarBlobMap::attach(&mut c0, &alloc, tree, cfg).unwrap();
    for tid in 0..threads {
        for i in 0..per {
            let key = tid * 1_000_000 + i;
            assert_eq!(
                blobs.get_bytes(&mut c0, key).unwrap().unwrap(),
                format!("t{tid}-i{i}").as_bytes(),
                "key {key}"
            );
        }
    }
}

/// Four threads put, take and get on one tree of two buckets that never
/// restructures: every splice rewrites a block the other threads rewrite
/// too, and each block grows past the fifteen keys its bucket word's tag
/// covers, so the reads of a block's rest race the splices as well. Each
/// thread owns its keys and checks its own reads as it goes; the others'
/// keys it reads must hold one of their own values or none. At the end
/// every key holds what its owner last stored.
#[test]
fn httree_one_bucket_hammered() {
    let f = FabricConfig::single_node(64 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let cfg = HtTreeConfig {
        initial_buckets: 2,
        max_load_percent: u64::MAX,
        ..HtTreeConfig::default()
    };
    let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
    let (threads, per) = (4u64, 60u64);
    // A value names its key: `key * 10 + version`.
    let handles: Vec<_> = (0..threads)
        .map(|tid| {
            let (f, alloc) = (f.clone(), alloc.clone());
            std::thread::spawn(move || {
                let mut c = f.client();
                let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
                let mut mine = Vec::new();
                for i in 0..per {
                    let k = tid * 1000 + i;
                    h.put(&mut c, k, k * 10 + 1).unwrap();
                    assert_eq!(h.get(&mut c, k).unwrap(), Some(k * 10 + 1), "key {k}");
                    let last = match i % 3 {
                        0 => {
                            assert_eq!(h.take(&mut c, k).unwrap(), Some(k * 10 + 1), "key {k}");
                            None
                        }
                        1 => {
                            h.put(&mut c, k, k * 10 + 2).unwrap();
                            Some(k * 10 + 2)
                        }
                        _ => Some(k * 10 + 1),
                    };
                    assert_eq!(h.get(&mut c, k).unwrap(), last, "key {k}");
                    mine.push((k, last));
                    let other = ((tid + 1) % threads) * 1000 + i;
                    if let Some(v) = h.get(&mut c, other).unwrap() {
                        assert_eq!(v / 10, other, "key {other} holds {v}");
                    }
                }
                mine
            })
        })
        .collect();
    let want: Vec<(u64, Option<u64>)> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
    let mut h = tree.attach(&mut c0, &alloc, cfg).unwrap();
    for &(k, v) in &want {
        assert_eq!(h.get(&mut c0, k).unwrap(), v, "key {k}");
    }
    let live = want.iter().filter(|(_, v)| v.is_some()).count() as u64;
    assert_eq!(h.len_estimate(&mut c0).unwrap(), live);
    assert!(h.stats().chain_hops > 0, "the blocks outgrew their tags");
    assert_eq!(h.leaves(), 1, "no restructure");
}

/// The reclaim-mode twin of the test above: each thread has its own epoch
/// slot and runs grace rounds as it goes, so retired tables, chain items
/// and directory blobs are freed while the other threads restructure. A
/// directory retired by two publishes, or an unpublished blob freed and
/// then retired, would be freed twice and fail as `BadFree`.
#[test]
fn httree_blob_hammered_in_reclaim_mode_frees_each_retired_block_once() {
    let f = FabricConfig::single_node(512 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let cfg = HtTreeConfig { initial_buckets: 8, ..HtTreeConfig::default() };
    let reg = ReclaimRegistry::create(&mut c0, &alloc, 8).unwrap();
    let tree = HtTree::create(&mut c0, &alloc, cfg).unwrap();
    let threads = 4u64;
    let per = 200u64;
    let mut handles = Vec::new();
    for tid in 0..threads {
        let (f, alloc) = (f.clone(), alloc.clone());
        handles.push(std::thread::spawn(move || {
            let mut c = f.client();
            let shared = reg.attach(&mut c, &alloc).unwrap();
            let mut blobs =
                FarBlobMap::attach_reclaimed(&mut c, &alloc, tree, cfg, shared.clone()).unwrap();
            for i in 0..per {
                let key = tid * 1_000_000 + i;
                blobs.put_bytes(&mut c, key, format!("t{tid}-i{i}").as_bytes()).unwrap();
                let other = ((tid + 1) % threads) * 1_000_000 + i / 2;
                let _ = blobs.get_bytes(&mut c, other).unwrap();
                if i % 16 == 15 {
                    shared.lock().unwrap().reclaim(&mut c).unwrap();
                }
            }
            let reclaimed = shared.lock().unwrap().stats().reclaimed_bytes;
            reclaimed
        }));
    }
    let reclaimed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(reclaimed > 0, "grace rounds freed retired blocks mid-run");
    let shared = reg.attach(&mut c0, &alloc).unwrap();
    let mut blobs = FarBlobMap::attach_reclaimed(&mut c0, &alloc, tree, cfg, shared).unwrap();
    for tid in 0..threads {
        for i in 0..per {
            let key = tid * 1_000_000 + i;
            assert_eq!(
                blobs.get_bytes(&mut c0, key).unwrap().unwrap(),
                format!("t{tid}-i{i}").as_bytes(),
                "key {key}"
            );
        }
    }
}

#[test]
fn epoch_barrier_orders_phases_across_structures() {
    // Phase 0: every thread enqueues; barrier; phase 1: every thread
    // dequeues. If the barrier leaked anyone early, a dequeue would hit
    // an empty queue.
    let f = FabricConfig::single_node(16 << 20).build();
    let alloc = FarAlloc::new(f.clone());
    let mut c0 = f.client();
    let parties = 4u64;
    let per = 50u64;
    let q = FarQueue::create(&mut c0, &alloc, QueueConfig::new(1024, parties)).unwrap();
    let bar = FarEpochBarrier::create(&mut c0, &alloc, parties, AllocHint::Spread).unwrap();
    let mut handles = Vec::new();
    for _ in 0..parties {
        let f = f.clone();
        handles.push(std::thread::spawn(move || {
            let mut c = f.client();
            let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
            let bar = FarEpochBarrier::attach(bar.addr(), parties);
            for round in 0..5u64 {
                for i in 0..per {
                    h.enqueue(&mut c, round * 1000 + i).unwrap();
                }
                bar.arrive_and_wait(&mut c, std::time::Duration::from_secs(30)).unwrap();
                for _ in 0..per {
                    let v = h
                        .dequeue_wait(&mut c, 1_000_000)
                        .expect("barrier guaranteed items exist");
                    assert_eq!(v / 1000, round, "no cross-round leakage");
                }
                bar.arrive_and_wait(&mut c, std::time::Duration::from_secs(30)).unwrap();
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
