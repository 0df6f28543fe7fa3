//! E4 — §5.2: the HT-tree's per-operation costs, cache arithmetic, and
//! split behaviour.
//!
//! Claims to reproduce:
//! * lookups take **one** far access and stores **two** when the client
//!   cache is fresh;
//! * clients cache the *tree only*: "an HT-tree can store 1 trillion items
//!   with a tree of 10M nodes (taking 100s of MB of cache space) and 10M
//!   hash tables of 100K elements each";
//! * a split "is split and added to the tree, without affecting the other
//!   hash tables";
//! * stale caches recover through the per-table versions.
//!
//! E4f prices a key in far bytes: what a serve record of each value size
//! occupies once its size class, its entry in a bucket block and its
//! share of the tables and directory are paid.
//!
//! Run: `cargo run --release -p farmem-bench --bin e4_httree`

use farmem_alloc::FarAlloc;
use farmem_bench::{BenchArgs, Table};
use farmem_core::{FarBlobMap, HtTree, HtTreeConfig, RecordHint};
use farmem_fabric::{CostModel, FabricClient, FabricConfig, Striping};
use farmem_reclaim::ReclaimRegistry;
use farmem_serve::{charged_bytes, GetOutcome, RecordStore, RECORD_HEADER};

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e4_httree");
    let fabric = FabricConfig {
        nodes: 4,
        node_capacity: 1 << 30,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let cfg = HtTreeConfig { initial_buckets: 8192, ..HtTreeConfig::default() };
    let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();

    // Load 1M items, measuring amortized store cost as we go.
    let n: u64 = 1_000_000;
    let before = c.stats();
    for k in 0..n {
        h.put(&mut c, k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k).unwrap();
    }
    let load = c.stats().since(&before);
    let handle_after_load = h.stats();

    // Fresh handle: fresh cache, then measure per-op costs.
    let mut h = tree.attach(&mut c, &alloc, cfg).unwrap();
    let probes = 50_000;
    let before = c.stats();
    for k in 0..probes {
        let key = (k * 17 % n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        assert_eq!(h.get(&mut c, key).unwrap(), Some(k * 17 % n));
    }
    let lookups = c.stats().since(&before);
    let before = c.stats();
    for k in 0..probes {
        h.put(&mut c, (k * 31 % n).wrapping_mul(0x9e37_79b9_7f4a_7c15), k).unwrap();
    }
    let stores = c.stats().since(&before);
    let before = c.stats();
    for k in 0..probes {
        // Absent keys.
        assert_eq!(h.get(&mut c, k.wrapping_mul(31) + 3).unwrap(), None);
    }
    let misses = c.stats().since(&before);

    let mut t = Table::new(
        "E4a: HT-tree per-operation far accesses at 1M items (fresh cache)",
        &["operation", "far accesses/op", "messages/op", "posted/op", "bytes/op"],
    );
    let mut row = |name: &str, d: farmem_fabric::AccessStats, ops: u64| {
        t.row(vec![
            name.into(),
            format!("{:.3}", d.round_trips as f64 / ops as f64),
            format!("{:.3}", d.messages as f64 / ops as f64),
            format!("{:.3}", d.posted_messages as f64 / ops as f64),
            format!("{:.1}", d.bytes_total() as f64 / ops as f64),
        ]);
    };
    row("lookup (hit)", lookups, probes);
    row("lookup (miss)", misses, probes);
    row("store (update)", stores, probes);
    row("store (amortized load, incl. splits)", load, n);
    report.add(t);
    let per_op = |d: farmem_fabric::AccessStats| d.round_trips as f64 / probes as f64;
    assert!(per_op(lookups) <= 1.02, "lookup: {} far accesses/op", per_op(lookups));
    assert!(per_op(stores) <= 2.02, "store: {} far accesses/op", per_op(stores));
    if args.verbose() {
        println!(
            "paper: lookups 1 far access; stores 2, at any position in the key's bucket:\n\
             a bucket is one block, read whole through its tagged word (the version check\n\
             rides that read; the new block rides the fenced CAS batch); splits amortize\n\
             away. A block of more than 15 keys pays one more read."
        );
    }

    // Cache arithmetic.
    let mut t = Table::new(
        "E4b: client cache is tree-sized — measured and extrapolated (§5.2)",
        &["items", "tree leaves", "client cache", "items per leaf", "source"],
    );
    let leaves = h.leaves() as u64;
    let bytes_per_leaf = h.cache_bytes() as f64 / leaves as f64;
    let items_per_leaf = n as f64 / leaves as f64;
    t.row(vec![
        format!("{n}"),
        leaves.to_string(),
        format!("{:.1} KiB", h.cache_bytes() as f64 / 1024.0),
        format!("{items_per_leaf:.0}"),
        "measured".into(),
    ]);
    for items in [1e9, 1e12] {
        let l = items / items_per_leaf;
        t.row(vec![
            format!("{items:.0e}"),
            format!("{l:.2e}"),
            format!("{:.1} MiB", l * bytes_per_leaf / (1024.0 * 1024.0)),
            format!("{items_per_leaf:.0}"),
            "extrapolated".into(),
        ]);
    }
    // The paper sizes leaves at ~100K elements each; extrapolate with that
    // table size too (leaf size is a free parameter of the design).
    let paper_leaf = 100_000.0;
    let l = 1e12 / paper_leaf;
    t.row(vec![
        "1e12".into(),
        format!("{l:.2e}"),
        format!("{:.1} MiB", l * bytes_per_leaf / (1024.0 * 1024.0)),
        format!("{paper_leaf:.0}"),
        "extrapolated @ paper leaf size".into(),
    ]);
    report.add(t);
    if args.verbose() {
        println!(
            "paper: 10^12 items ⇒ ~10M tree nodes, 100s of MB of client cache. Our leaves\n\
             hold ~{items_per_leaf:.0} items ({}-bucket tables at 75% load), so the ratio lands in the\n\
             same regime; the cache grows with the TREE, not with the data.",
            cfg.initial_buckets
        );
    }

    // Split isolation: split one leaf, count accesses other leaves see.
    let mut t = Table::new(
        "E4c: a split does not disturb the other hash tables",
        &["metric", "value"],
    );
    let splits = handle_after_load.splits + handle_after_load.grows;
    t.row(vec!["restructures during the 1M load".into(), splits.to_string()]);
    // Measure: lookups against *other* leaves while a split runs are not
    // blocked — simulated by checking a stale second handle only refreshes
    // on the split range.
    let mut c2 = fabric.client();
    let mut h2 = tree.attach(&mut c2, &alloc, cfg).unwrap();
    h.split(&mut c, 0).unwrap();
    let before = c2.stats();
    let mut refreshes = 0;
    for k in 0..1000u64 {
        let key = (k % n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h2.get(&mut c2, key).unwrap();
        refreshes = h2.stats().stale_refreshes;
    }
    let d = c2.stats().since(&before);
    t.row(vec![
        "far accesses/op for a client with a pre-split cache".into(),
        format!("{:.3}", d.round_trips as f64 / 1000.0),
    ]);
    t.row(vec![
        "of 1000 random lookups, forced cache refreshes".into(),
        refreshes.to_string(),
    ]);
    report.add(t);
    if args.verbose() {
        println!(
            "Only lookups landing on the split range pay the refresh; the rest of the\n\
             tree keeps serving at one far access."
        );
    }

    // The record layer's price list: a byte-string value behind the map,
    // looked up with and without the hint its store handed back.
    let mut t = Table::new(
        "E4d: record lookup (FarBlobMap::get_if), per get — unhinted, hinted, stale hint",
        &["lookup", "far accesses", "messages", "bytes read", "client B/key"],
    );
    let cfg = HtTreeConfig { initial_buckets: 64, max_load_percent: u64::MAX, ..cfg };
    let mut m: FarBlobMap = FarBlobMap::create(&mut c, &alloc, cfg).unwrap();
    let (small, large) = (vec![5u8; 64], vec![6u8; 4096]);
    let (_, small_hint) = m.put(&mut c, 1, [], &small).unwrap();
    let (_, large_hint) = m.put(&mut c, 2, [], &large).unwrap();
    // Key 3 shares its bucket's block with a neighbour.
    let bucket = |k| farmem_fabric::splitmix64(k) % cfg.initial_buckets;
    let neighbour = (4u64..).find(|&k| bucket(k) == bucket(3)).unwrap();
    assert!(bucket(3) != bucket(1) && bucket(3) != bucket(2));
    let (_, beside_hint) = m.put(&mut c, 3, [], &small).unwrap();
    m.put(&mut c, neighbour, [], b"neighbour").unwrap();
    let mut row = |name: &str, key, hint: Option<RecordHint>, want: &[u8]| {
        let before = c.stats();
        let mut slot = hint;
        assert_eq!(m.get_if(&mut c, key, &mut slot, |[]| true).unwrap().flatten().unwrap(), want);
        let d = c.stats().since(&before);
        t.row(vec![
            name.into(),
            d.round_trips.to_string(),
            d.messages.to_string(),
            d.bytes_read.to_string(),
            hint.map_or(0, |_| std::mem::size_of::<RecordHint>()).to_string(),
        ]);
        d.round_trips
    };
    row("unhinted, 64 B", 1, None, &small);
    row("unhinted, 4 KiB", 2, None, &large);
    assert_eq!(row("hinted hit, 64 B", 1, Some(small_hint), &small), 1);
    assert_eq!(row("hinted hit, 4 KiB", 2, Some(large_hint), &large), 1);
    assert_eq!(row("hinted hit, 64 B, beside a neighbour", 3, Some(beside_hint), &small), 1);
    row("stale hint, 64 B", 1, Some(large_hint), &small);
    row("stale hint, 4 KiB", 2, Some(small_hint), &large);
    report.add(t);
    if args.verbose() {
        println!(
            "A hinted get reads the whole record at the remembered address in the tree\n\
             lookup's own fenced batch and keeps the bytes only if the tree names that\n\
             address: one far access at any size. A stale hint wastes the hinted read —\n\
             a message per stripe it spans, and its bytes — never a round trip. The hint\n\
             is 8 + 4 B of client state per key."
        );
    }

    // The same lookups eight at a time through doorbells: a hinted key's
    // lookup batch is one fenced descriptor of the first doorbell.
    let mut t = Table::new(
        "E4d: record lookups through doorbells (FarBlobMap::get_many_async), per batch of 8 \
         64-B values",
        &[
            "batch",
            "far accesses",
            "doorbells",
            "messages",
            "bytes read",
            "stale hints",
            "wasted bytes",
        ],
    );
    let mut m: FarBlobMap = FarBlobMap::create(&mut c, &alloc, cfg).unwrap();
    let mut buckets = std::collections::HashSet::new();
    let keys: Vec<u64> = (100u64..).filter(|&k| buckets.insert(bucket(k))).take(8).collect();
    // Each key stored twice: the first store's hint is stale, the second's
    // fresh (quarantine mode keeps the old record's bytes where they were).
    let stored = |m: &mut FarBlobMap, c: &mut FabricClient| -> Vec<Option<RecordHint>> {
        keys.iter().map(|&k| Some(m.put(c, k, [], &small).unwrap().1)).collect()
    };
    let (stale, fresh) = (stored(&mut m, &mut c), stored(&mut m, &mut c));
    let mut row = |name: &str, m: &mut FarBlobMap, c: &mut FabricClient, mut hints: Vec<_>| {
        let (before, stale_before) = (c.stats(), m.stats().stale_hints);
        let got = m.get_many(c, &keys, &mut hints, |[]| true).unwrap();
        assert!(got.iter().all(|v| v.as_ref() == Some(&Some(small.clone()))), "{name}");
        let d = c.stats().since(&before);
        let stale_hints = m.stats().stale_hints - stale_before;
        let wasted = stale_hints * (FarBlobMap::<0>::HEADER + small.len() as u64);
        t.row(vec![
            name.into(),
            d.round_trips.to_string(),
            d.doorbells.to_string(),
            d.messages.to_string(),
            d.bytes_read.to_string(),
            stale_hints.to_string(),
            wasted.to_string(),
        ]);
        (d.round_trips, d.doorbells)
    };
    assert_eq!(row("unhinted", &mut m, &mut c, vec![None; 8]), (16, 2));
    assert_eq!(row("all hints fresh", &mut m, &mut c, fresh.clone()), (8, 1));
    assert_eq!(row("all hints stale", &mut m, &mut c, stale), (16, 2));
    let last = *keys.last().unwrap();
    let above = (1u64..).find(|&k| bucket(k) == bucket(last) && !keys.contains(&k)).unwrap();
    m.put(&mut c, above, [], b"neighbour").unwrap();
    assert_eq!(row("all hints fresh, one key beside a neighbour", &mut m, &mut c, fresh), (8, 1));
    report.add(t);
    if args.verbose() {
        println!(
            "A doorbell books one round trip per descriptor, so a hinted key's lookup\n\
             and record read ride one fenced descriptor — the blocking batch's price:\n\
             eight fresh hints are eight far accesses in one doorbell. A key unhinted\n\
             or stale adds its record prefetch to a second, shared doorbell; a stale\n\
             hint's speculated bytes are read and dropped. A neighbour in the key's\n\
             bucket rides the same block read."
        );
    }

    // The mutation price list: the same record layer in reclaim mode (the
    // mode every deployment runs), one clean bucket per measurement.
    let mut t = Table::new(
        "E4e: record mutations (FarBlobMap::put / remove, reclaim mode), per op",
        &[
            "mutation",
            "far accesses",
            "messages",
            "bytes read",
            "bytes written",
            "blocks written",
            "live keys",
        ],
    );
    let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
    let shared = reg.attach(&mut c, &alloc).unwrap();
    let mut m: FarBlobMap = FarBlobMap::create_reclaimed(&mut c, &alloc, cfg, shared).unwrap();
    let mut probe = m.tree().attach(&mut c, &alloc, cfg).unwrap();
    // Keys by bucket: `nth(b, i)` is the i-th key hashing to bucket `b`.
    let nth = |b: u64, i: usize| (1u64..).filter(|&k| bucket(k) == b).nth(i).unwrap();
    let (x, x_beside) = (nth(0, 0), nth(0, 1));
    let y = nth(1, 0);
    let [z_front, z, z_back, z_absent] = [0, 1, 2, 3].map(|i| nth(2, i));
    let w = nth(3, 0);
    let record = FarBlobMap::<0>::HEADER + small.len() as u64;
    // One mutation — a store of `small` under `key`, or its removal —
    // booked as a table row when it has a name (setup stores have none).
    // Returns its far accesses, the bucket blocks it wrote (the bucket's
    // new block, or none when a take empties the bucket), and whether
    // the key held a record before.
    let mut op = |name: Option<&str>, key: u64, store: bool| {
        let keys = probe.len_estimate(&mut c).unwrap();
        let before = c.stats();
        let held = if store {
            m.put(&mut c, key, [], &small).unwrap().0
        } else {
            m.remove(&mut c, key).unwrap()
        };
        let d = c.stats().since(&before);
        let blocks = u64::from(d.bytes_written > if store { record } else { 0 });
        let keys = probe.len_estimate(&mut c).unwrap() as i64 - keys as i64;
        if let Some(name) = name {
            t.row(vec![
                name.into(),
                d.round_trips.to_string(),
                d.messages.to_string(),
                d.bytes_read.to_string(),
                d.bytes_written.to_string(),
                blocks.to_string(),
                format!("{keys:+}"),
            ]);
        }
        (d.round_trips, blocks, held)
    };
    assert_eq!(op(Some("fresh store"), x, true), (2, 1, false));
    assert_eq!(op(Some("overwrite, alone in its block"), x, true), (2, 1, true));
    op(None, x_beside, true);
    assert_eq!(op(Some("overwrite, beside a neighbour"), x, true), (2, 1, true));
    for key in [y, z_front, z, z_back] {
        op(None, key, true);
    }
    assert_eq!(op(Some("take, a bucket's last key"), y, false), (2, 0, true));
    assert_eq!(op(Some("take, mid-block of three"), z, false), (2, 1, true));
    assert_eq!(op(Some("take, absent: empty bucket"), w, false), (1, 0, false));
    assert_eq!(op(Some("take, absent: from a block of two"), z_absent, false), (1, 0, false));
    assert_eq!(op(Some("take, of a removed key"), y, false), (1, 0, false));
    report.add(t);
    if args.verbose() {
        println!(
            "A mutation is a splice of its key's bucket and costs what a store costs:\n\
             its first access reads the bucket's whole block through the tagged bucket\n\
             word, with the table header; the second writes one new block, the old one\n\
             with the key's entry replaced, added or dropped, and CASes the bucket to\n\
             it. A take of a bucket's last key is the CAS alone, and no mutation links\n\
             a tombstone, so the header counts live keys. A key that is not there is\n\
             found out in the first access and links nothing."
        );
    }

    report.add(far_bytes_per_key());
    if args.verbose() {
        println!(
            "Far B/key is everything the allocator holds for the loaded keys: the\n\
             record's size class, its 16-B entry in a bucket block (whose 16-B\n\
             header the bucket's keys share) and the key's share of the\n\
             tables and directory. Not built: moving the 16-B header out of a\n\
             page-sized value's way (the length from the allocator's booked size\n\
             and the hint, the expiry beside the key's entry), which would put a\n\
             4,096-B value in a 4,096-B class."
        );
    }
    report.save();
}

/// E4f: far bytes per key through [`RecordStore`], one fresh deployment
/// per value size on a blocked map (the serve workloads' layout).
fn far_bytes_per_key() -> Table {
    const KEYS: u64 = 8192;
    let mut t = Table::new(
        "E4f: far bytes per key (RecordStore, 8192 keys, reclaim mode)",
        &[
            "value B",
            "record class",
            "record waste %",
            "far B/key",
            "far B/user B",
            "RT/get hinted",
            "RT/get unhinted",
        ],
    );
    for len in [64u64, 200, 1000, 4096] {
        let fabric = FabricConfig {
            nodes: 4,
            node_capacity: 64 << 20,
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(fabric.clone());
        let mut c = fabric.client();
        let reg = ReclaimRegistry::create(&mut c, &alloc, 4).unwrap();
        let shared = reg.attach(&mut c, &alloc).unwrap();
        let empty = alloc.stats().live_bytes;
        let cfg = HtTreeConfig { initial_buckets: 1024, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let mut store = RecordStore::attach(&mut c, &alloc, tree, cfg, shared).unwrap();
        let value = vec![7u8; len as usize];
        let hints: Vec<_> = (0..KEYS).map(|k| store.put(&mut c, k, &value, 0).unwrap().1).collect();
        // Splits retire the tables they replace: hand them back first.
        store.reclaim_pass(&mut c).unwrap();
        let far = (alloc.stats().live_bytes - empty) as f64 / KEYS as f64;
        let mut rt_per_get = |hinted: bool| {
            let before = c.stats();
            for (k, &hint) in hints.iter().enumerate() {
                let mut hint = Some(hint).filter(|_| hinted);
                let got = store.get_hinted(&mut c, k as u64, &mut hint, 0).unwrap();
                assert_eq!(got, GetOutcome::Hit(value.clone()));
            }
            c.stats().since(&before).round_trips as f64 / KEYS as f64
        };
        let (hinted, unhinted) = (rt_per_get(true), rt_per_get(false));
        let class = charged_bytes(len);
        t.row(vec![
            len.to_string(),
            class.to_string(),
            format!("{:.1}", 100.0 * (class - RECORD_HEADER - len) as f64 / class as f64),
            format!("{far:.1}"),
            format!("{:.3}", far / len as f64),
            format!("{hinted:.3}"),
            format!("{unhinted:.3}"),
        ]);
    }
    t
}
