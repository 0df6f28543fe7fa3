//! Multi-node tests: every structure must behave identically across
//! striping policies and §7.1 indirection modes — only the access *costs*
//! may differ.

use farmem::prelude::*;

fn fabrics() -> Vec<(&'static str, std::sync::Arc<Fabric>)> {
    let mk = |nodes, striping, indirection| {
        FabricConfig {
            nodes,
            node_capacity: 32 << 20,
            striping,
            indirection,
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::default()
        }
        .build()
    };
    vec![
        ("single", mk(1, Striping::Blocked, IndirectionMode::Forward)),
        ("blocked-4-forward", mk(4, Striping::Blocked, IndirectionMode::Forward)),
        ("blocked-4-error", mk(4, Striping::Blocked, IndirectionMode::Error)),
        (
            "striped-4-forward",
            mk(4, Striping::Striped { stripe: 4096 }, IndirectionMode::Forward),
        ),
        (
            "striped-4-error",
            mk(4, Striping::Striped { stripe: 4096 }, IndirectionMode::Error),
        ),
        (
            "striped-3-bigstripe",
            mk(3, Striping::Striped { stripe: 64 << 10 }, IndirectionMode::Forward),
        ),
    ]
}

#[test]
fn httree_works_on_every_topology() {
    for (name, f) in fabrics() {
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 32, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
        for k in 0..800u64 {
            h.put(&mut c, k * 3, k).unwrap();
        }
        for k in 0..800u64 {
            assert_eq!(h.get(&mut c, k * 3).unwrap(), Some(k), "{name}: key {}", k * 3);
            assert_eq!(h.get(&mut c, k * 3 + 1).unwrap(), None, "{name}");
        }
    }
}

#[test]
fn queue_works_on_every_topology() {
    for (name, f) in fabrics() {
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(24, 2)).unwrap();
        let mut h = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let mut expected = std::collections::VecDeque::new();
        for round in 0..30u64 {
            for i in 0..6 {
                if h.enqueue(&mut c, round * 10 + i).is_ok() {
                    expected.push_back(round * 10 + i);
                }
            }
            for _ in 0..6 {
                match h.dequeue(&mut c) {
                    Ok(v) => assert_eq!(Some(v), expected.pop_front(), "{name}"),
                    Err(CoreError::QueueEmpty) => assert!(expected.is_empty(), "{name}"),
                    Err(e) => panic!("{name}: {e}"),
                }
            }
        }
    }
}

#[test]
fn refreshable_vec_works_on_every_topology() {
    for (name, f) in fabrics() {
        let alloc = FarAlloc::new(f.clone());
        let mut w = f.client();
        let mut r = f.client();
        let v = RefreshableVec::create(&mut w, &alloc, 512, 16, AllocHint::Striped).unwrap();
        let writer = VecWriter::new(v);
        let mut reader = VecReader::new(&mut r, v, RefreshPolicy::default()).unwrap();
        for i in 0..512u64 {
            writer.write(&mut w, i, i * 2).unwrap();
        }
        reader.refresh(&mut r).unwrap();
        for i in 0..512u64 {
            assert_eq!(reader.get(&mut r, i).unwrap(), i * 2, "{name}: index {i}");
        }
    }
}

#[test]
fn forwarding_beats_error_mode_on_round_trips() {
    // Same HT-tree workload on Forward vs Error fabrics: identical
    // results, but error mode re-issues remote indirections (§7.1).
    let run = |mode| {
        let f = FabricConfig {
            nodes: 4,
            node_capacity: 32 << 20,
            striping: Striping::Striped { stripe: 4096 },
            indirection: mode,
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut c = f.client();
        let cfg = HtTreeConfig { initial_buckets: 512, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
        for k in 0..400u64 {
            h.put(&mut c, k, k).unwrap();
        }
        let before = c.stats();
        for k in 0..400u64 {
            assert_eq!(h.get(&mut c, k).unwrap(), Some(k));
        }
        c.stats().since(&before)
    };
    let fwd = run(IndirectionMode::Forward);
    let err = run(IndirectionMode::Error);
    assert!(fwd.forward_hops > 0, "cross-node indirections happened");
    assert!(err.reissues > 0, "error mode re-issued");
    assert!(
        fwd.round_trips < err.round_trips,
        "forwarding ({}) saves client round trips vs error mode ({})",
        fwd.round_trips,
        err.round_trips
    );
}

#[test]
fn notifications_fire_across_nodes() {
    let f = FabricConfig {
        nodes: 4,
        node_capacity: 16 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build();
    let mut w = f.client();
    let mut watcher = f.client();
    // Watch a word on each node.
    for n in 0..4u64 {
        watcher.notify0(FarAddr(n * 4096 + 8), 8).unwrap();
    }
    for n in 0..4u64 {
        w.write_u64(FarAddr(n * 4096 + 8), n).unwrap();
    }
    assert_eq!(watcher.recv_events().len(), 4);
}
