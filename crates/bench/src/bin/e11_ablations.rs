//! E11 — ablations of the design choices DESIGN.md calls out.
//!
//! Not a paper table: each section toggles one mechanism of this
//! implementation to show what it buys (or costs), keeping the rest
//! fixed.
//!
//! Run: `cargo run --release -p farmem-bench --bin e11_ablations`

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_baselines::RpcKv;
use farmem_bench::{BenchArgs, KeyDist, Report, Table};
use farmem_core::{
    CacheMode, CachedFarVec, FarVec, HtTree, HtTreeConfig, RefreshMode, RefreshPolicy,
    RefreshableVec, VecReader, VecWriter,
};
use farmem_fabric::{CostModel, DeliveryPolicy, FabricConfig, Striping};
use farmem_rpc::ServerCpu;

fn count_fabric() -> std::sync::Arc<farmem_fabric::Fabric> {
    FabricConfig {
        nodes: 4,
        node_capacity: 256 << 20,
        striping: Striping::Striped { stripe: 4096 },
        cost: CostModel::COUNT_ONLY,
        ..FabricConfig::default()
    }
    .build()
}

/// A1: tree-change notifications vs stale-cache versioning (§5.2 offers
/// both; we implement both).
fn a1_notify_dir(args: &BenchArgs, report: &mut Report) {
    let mut t = Table::new(
        "A1: HT-tree cache coherence under split churn — notifications vs versioning",
        &["mode", "lookups", "stale refreshes", "far RT/lookup", "notifications"],
    );
    for &notify_dir in &[false, true] {
        let f = count_fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut writer = f.client();
        let mut reader = f.client();
        let cfg = HtTreeConfig {
            initial_buckets: 16,
            notify_dir,
            ..HtTreeConfig::default()
        };
        let tree = HtTree::create(&mut writer, &alloc, cfg).unwrap();
        let mut hw = tree.attach(&mut writer, &alloc, cfg).unwrap();
        let mut hr = tree.attach(&mut reader, &alloc, cfg).unwrap();
        // Interleave reads with churn that keeps splitting tables.
        let mut next_key = 0u64;
        let before = reader.stats();
        let mut lookups = 0u64;
        for round in 0..40 {
            for _ in 0..100 {
                hw.put(&mut writer, next_key, next_key).unwrap();
                next_key += 1;
            }
            for k in (0..next_key).step_by(7) {
                assert_eq!(hr.get(&mut reader, k).unwrap(), Some(k), "round {round}");
                lookups += 1;
            }
        }
        let d = reader.stats().since(&before);
        t.row(vec![
            if notify_dir { "notify_dir (tree notifications)" } else { "versioning only" }.into(),
            lookups.to_string(),
            hr.stats().stale_refreshes.to_string(),
            format!("{:.3}", d.round_trips as f64 / lookups as f64),
            d.notifications.to_string(),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Both §5.2 coherence options work; notifications trade a subscription and\n\
             pushed events for the wasted far access each stale first-touch costs."
        );
    }
}

/// A2: cached vector — invalidate (notify0) vs update (notify0d).
fn a2_cache_modes(args: &BenchArgs, report: &mut Report) {
    let mut t = Table::new(
        "A2: CachedFarVec coherence — invalidate (notify0) vs update (notify0d)",
        &["mode", "reads", "far RT re-fetched", "far bytes re-read"],
    );
    for &(name, mode) in
        &[("invalidate", CacheMode::Invalidate), ("update", CacheMode::Update)]
    {
        let f = count_fabric();
        let alloc = FarAlloc::new(f.clone());
        let mut writer = f.client();
        let mut reader = f.client();
        let v = FarVec::create(&mut writer, &alloc, 256, AllocHint::Spread).unwrap();
        let mut cached = CachedFarVec::with_mode(&mut reader, v, mode).unwrap();
        let before = reader.stats();
        let mut reads = 0u64;
        for round in 0..50u64 {
            for i in 0..8 {
                v.set(&mut writer, (round * 8 + i) % 256, round).unwrap();
            }
            for i in 0..256 {
                cached.get(&mut reader, i).unwrap();
                reads += 1;
            }
        }
        let d = reader.stats().since(&before);
        t.row(vec![
            name.into(),
            reads.to_string(),
            d.round_trips.to_string(),
            d.bytes_read.to_string(),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Update mode eliminates the re-fetch round trips entirely — the §5.1\n\
             \"caches can be updated using notifications\" variant — at the price of\n\
             data-bearing events (reasonable while the payload is small)."
        );
    }
}

/// A3: trigger information on/off for notification-driven refresh.
fn a3_trigger_info(args: &BenchArgs, report: &mut Report) {
    let mut t = Table::new(
        "A3: refreshable vector in Notify mode — trigger info on vs off",
        &["carry_trigger", "refreshes", "groups refetched", "bytes read"],
    );
    for &carry in &[true, false] {
        let f = FabricConfig {
            nodes: 1,
            node_capacity: 64 << 20,
            cost: CostModel::COUNT_ONLY,
            carry_trigger: carry,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut w = f.client();
        let v = RefreshableVec::create(&mut w, &alloc, 1 << 14, 64, AllocHint::Spread).unwrap();
        let writer = VecWriter::new(v);
        let mut r = f.client();
        let mut reader = VecReader::new(
            &mut r,
            v,
            RefreshPolicy { initial: RefreshMode::Notify, dynamic: false, ..RefreshPolicy::default() },
        )
        .unwrap();
        reader.refresh(&mut r).unwrap(); // absorb the mode-entry poll
        let before = r.stats();
        for round in 0..50u64 {
            writer.write(&mut w, (round * 64) % (1 << 14), round).unwrap();
            reader.refresh(&mut r).unwrap();
        }
        let d = r.stats().since(&before);
        t.row(vec![
            carry.to_string(),
            "50".into(),
            reader.stats().groups_refreshed.to_string(),
            d.bytes_read.to_string(),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Without trigger information a notification only says \"the page changed\",\n\
             so the reader must refetch every group on the page — §7.2's false-positive\n\
             trade, measured."
        );
    }
}

/// A4: notification coalescing on/off for the §6 monitor.
fn a4_coalescing(args: &BenchArgs, report: &mut Report) {
    use farmem_monitor::{AlarmSpec, HistogramMonitor, Severity};
    let mut t = Table::new(
        "A4: monitor consumer under an alarm storm — coalescing on vs off",
        &["coalescing", "producer samples", "events delivered", "events merged"],
    );
    for &coalesce in &[true, false] {
        let f = FabricConfig {
            cost: CostModel::COUNT_ONLY,
            delivery: DeliveryPolicy { drop_ppm: 0, coalesce, max_queue: 1 << 20 },
            ..FabricConfig::single_node(64 << 20)
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut pc = f.client();
        let spec = AlarmSpec { warning: 70, critical: 85, failure: 95, duration: 10 };
        let m = HistogramMonitor::create(&mut pc, &alloc, 101, 100, 4, spec).unwrap();
        let mut p = m.producer(&mut pc);
        let mut cc = f.client();
        let mut cons = m.consumer(&mut cc, Severity::Warning).unwrap();
        let n = 20_000;
        for s in 0..n {
            p.record(&mut pc, 70 + (s % 30)).unwrap(); // every sample alarms
            if s % 1000 == 999 {
                cons.poll(&mut cc).unwrap();
            }
        }
        cons.poll(&mut cc).unwrap();
        let sink = cc.sink().stats();
        t.row(vec![
            coalesce.to_string(),
            n.to_string(),
            sink.delivered.to_string(),
            sink.coalesced.to_string(),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Coalescing (temporal batching, §7.2) bounds consumer traffic at one pending\n\
             event per subscription regardless of the update storm."
        );
    }
}

/// A5: can RPC scale too? Sharded servers vs the HT-tree at k = 64.
fn a5_rpc_shards(args: &BenchArgs, report: &mut Report) {
    let mut t = Table::new(
        "A5: sharded RPC vs HT-tree at k = 64 clients (Zipf 0.99, 100k keys)",
        &["design", "memory-side CPUs", "ns/op", "Mops/s"],
    );
    let keys = 100_000u64;
    let k = 64usize;
    let ops = 1_000u64;
    for &shards in &[1usize, 2, 4, 8] {
        let servers: Vec<_> = (0..shards)
            .map(|_| RpcKv::serve(ServerCpu::DEFAULT, CostModel::DEFAULT))
            .collect();
        let mut kvs: Vec<_> = (0..k).map(|_| RpcKv::connect(servers.clone())).collect();
        for key in 0..keys {
            kvs[0].put(key, key);
        }
        let t_load = kvs[0].now_ns();
        for (i, kv) in kvs.iter_mut().enumerate() {
            kv.rpc_advance(t_load + i as u64 * 40);
        }
        let mut dists: Vec<_> =
            (0..k).map(|i| KeyDist::zipf(keys, 0.99, 50 + i as u64)).collect();
        for _ in 0..ops / 4 {
            for (i, kv) in kvs.iter_mut().enumerate() {
                kv.get(dists[i].next_key());
            }
        }
        let starts: Vec<u64> = kvs.iter().map(|kv| kv.now_ns()).collect();
        for _ in 0..ops {
            for (i, kv) in kvs.iter_mut().enumerate() {
                kv.get(dists[i].next_key());
            }
        }
        let total = (k as u64 * ops) as f64;
        let mut sum = 0.0;
        let mut makespan = 0u64;
        for (i, kv) in kvs.iter().enumerate() {
            sum += (kv.now_ns() - starts[i]) as f64;
            makespan = makespan.max(kv.now_ns() - starts[i]);
        }
        t.row(vec![
            format!("RPC × {shards} shards"),
            shards.to_string(),
            format!("{:.0}", sum / total),
            format!("{:.2}", total / makespan as f64 * 1000.0),
        ]);
    }
    // The HT-tree row (zero memory-side CPUs) from the E3 setup.
    {
        let f = FabricConfig {
            nodes: 4,
            node_capacity: 512 << 20,
            striping: Striping::Striped { stripe: 4096 },
            cost: CostModel::DEFAULT,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(f.clone());
        let mut loader = f.client();
        let cfg = HtTreeConfig { initial_buckets: 4096, ..HtTreeConfig::default() };
        let tree = HtTree::create(&mut loader, &alloc, cfg).unwrap();
        let mut h = tree.attach(&mut loader, &alloc, cfg).unwrap();
        for key in 0..keys {
            h.put(&mut loader, key, key).unwrap();
        }
        let t_load = loader.now_ns();
        let mut clients: Vec<_> = (0..k)
            .map(|i| {
                let mut c = f.client();
                c.advance_time(t_load + i as u64 * 40);
                c
            })
            .collect();
        let mut handles: Vec<_> =
            clients.iter_mut().map(|c| tree.attach(c, &alloc, cfg).unwrap()).collect();
        let mut dists: Vec<_> =
            (0..k).map(|i| KeyDist::zipf(keys, 0.99, 60 + i as u64)).collect();
        for _ in 0..ops / 4 {
            for i in 0..k {
                handles[i].get(&mut clients[i], dists[i].next_key()).unwrap();
            }
        }
        let starts: Vec<u64> = clients.iter().map(|c| c.now_ns()).collect();
        for _ in 0..ops {
            for i in 0..k {
                handles[i].get(&mut clients[i], dists[i].next_key()).unwrap();
            }
        }
        let total = (k as u64 * ops) as f64;
        let mut sum = 0.0;
        let mut makespan = 0u64;
        for (i, c) in clients.iter().enumerate() {
            sum += (c.now_ns() - starts[i]) as f64;
            makespan = makespan.max(c.now_ns() - starts[i]);
        }
        t.row(vec![
            "HT-tree (one-sided)".into(),
            "0".into(),
            format!("{:.0}", sum / total),
            format!("{:.2}", total / makespan as f64 * 1000.0),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Sharding lets RPC buy throughput with memory-side CPUs (~2 Mops/s per\n\
             core); the one-sided HT-tree gets there with zero — the ship-computation\n\
             vs ship-data trade-off (§3.1) stated in CPU terms."
        );
    }
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e11_ablations");
    a1_notify_dir(&args, &mut report);
    a2_cache_modes(&args, &mut report);
    a3_trigger_info(&args, &mut report);
    a4_coalescing(&args, &mut report);
    a5_rpc_shards(&args, &mut report);
    report.save();
}
