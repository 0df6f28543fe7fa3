//! Layer cells: one public function in a warm loop, median of 15
//! batches, ns per call. Each primitive is measured on its own before
//! any composite is trusted. Cells run on small fixtures of their own;
//! each group runs once, in the traced run of the workload that leans
//! on its layer most.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_baselines::{ChainedHash, RpcKv};
use farmem_core::{
    FarCounter, FarQueue, FarVec, HtTree, HtTreeConfig, QueueConfig, RefreshMode, RefreshPolicy,
    RefreshableVec, VecReader, VecWriter,
};
use farmem_fabric::{
    BatchOp, CostModel, FabricConfig, FarAddr, FarIov, NodeId, ReplicaConfig, TraceConfig,
};
use farmem_metrics::{MetricsConfig, MetricsHub};
use farmem_reclaim::{pin, ReclaimRegistry};
use farmem_rpc::ServerCpu;
use farmem_runtime::Executor;

use crate::pctl::median;
use crate::report::Results;
use crate::wl_serve::{program_trace_ratio, ServeSpec};
use crate::wl_sessions::sweep_point;
use crate::{ctx, Fail};

/// Seed of the fixtures that need a request stream.
const CELL_SEED: u64 = 11;

struct Bench<'a> {
    r: &'a mut Results,
    batches: usize,
    /// Divides every iteration count (smoke runs).
    shrink: u64,
}

impl Bench<'_> {
    /// Median ns per call of `f` over the batches, `iters` calls per
    /// batch, after a warm-up.
    fn measure(&self, iters: u64, mut f: impl FnMut()) -> f64 {
        let iters = self.n(iters);
        for _ in 0..iters / 4 {
            f();
        }
        self.measure_batched(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            (t0.elapsed().as_nanos() as u64, iters)
        })
    }

    /// For cells that prepare each batch untimed: `f` times its own
    /// region and returns `(ns, calls)`.
    fn measure_batched(&self, mut f: impl FnMut(usize) -> (u64, u64)) -> f64 {
        let per_call: Vec<f64> = (0..self.batches)
            .map(|b| {
                let (ns, calls) = f(b);
                ns as f64 / calls.max(1) as f64
            })
            .collect();
        median(&per_call)
    }

    fn record(&mut self, name: &str, ns: f64) -> f64 {
        self.r
            .set_noted(name, ns, &format!("median of {} batches", self.batches));
        ns
    }

    /// [`measure`](Self::measure), recorded under `name`.
    fn looped(&mut self, name: &str, iters: u64, f: impl FnMut()) -> f64 {
        let ns = self.measure(iters, f);
        self.record(name, ns)
    }

    /// [`measure_batched`](Self::measure_batched), recorded under `name`.
    fn batched(&mut self, name: &str, f: impl FnMut(usize) -> (u64, u64)) -> f64 {
        let ns = self.measure_batched(f);
        self.record(name, ns)
    }

    fn n(&self, full: u64) -> u64 {
        (full / self.shrink).max(8)
    }
}

/// Runs the cells filed under `workload` and records them in `r`. The
/// five traced runs of `--all --traced` together run every cell once.
pub fn run(workload: &str, r: &mut Results, smoke: bool) -> Result<(), Fail> {
    let mut b = Bench {
        r,
        batches: if smoke { 3 } else { 15 },
        shrink: if smoke { 50 } else { 1 },
    };
    match workload {
        // Per-verb fixed cost, and the observers' tax on it.
        "serve-get-small" => {
            node_cells(&mut b)?;
            observer_cells(&mut b, smoke)
        }
        // The byte-movement path and the pipeline above it.
        "serve-get-large" => client_cells(&mut b),
        "serve-churn" => alloc_reclaim_cells(&mut b),
        "serve-sessions" => {
            runtime_cells(&mut b)?;
            sessions_sweep(&mut b, smoke)
        }
        "structures" => {
            core_cells(&mut b)?;
            replica_cells(&mut b)?;
            comparator_cells(&mut b)
        }
        other => Err(format!("no cells are filed under `{other}`").into()),
    }
}

fn node_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let fabric = FabricConfig::single_node(64 << 20).build();
    let node = fabric.node(NodeId(0));
    let mut off = 0u64;
    // Walk 4 KiB of words so the loop is not one cache line.
    let mut next = move || {
        off = (off + 8) & 0xfff;
        4096 + off
    };
    b.looped("node.read_u64_ns", 400_000, || {
        black_box(node.read_u64(next()).expect("in range"));
    });
    b.looped("node.write_u64_ns", 400_000, || {
        node.write_u64(next(), black_box(9)).expect("in range")
    });
    b.looped("node.cas_u64_ns", 400_000, || {
        black_box(node.cas_u64(8192, 0, 0).expect("in range"));
    });
    let mut buf = vec![0u8; 4096];
    b.looped("node.read_bytes_4k_ns", 8_000, || {
        node.read_bytes(16384, black_box(&mut buf))
            .expect("in range");
    });
    let data = vec![7u8; 4096];
    b.looped("node.write_bytes_4k_ns", 8_000, || {
        node.write_bytes(16384, black_box(&data)).expect("in range")
    });
    let mut now = 0u64;
    b.looped("node.occupy_ns", 400_000, || {
        now += 2_000;
        black_box(node.occupy(now, 5));
    });

    // Two threads booking the same node's interface: the cross-thread
    // cost every message of `serve-sessions` pays.
    let iters = b.n(200_000);
    let stop = AtomicBool::new(false);
    let gate = Barrier::new(2);
    std::thread::scope(|s| {
        let other = s.spawn(|| {
            gate.wait();
            let mut t = 1u64;
            while !stop.load(Ordering::Relaxed) {
                t += 2_000;
                black_box(node.occupy(t, 5));
            }
        });
        gate.wait();
        b.batched("node.occupy_2thr_ns", |_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                now += 2_000;
                black_box(node.occupy(now, 5));
            }
            (t0.elapsed().as_nanos() as u64, iters)
        });
        stop.store(true, Ordering::Relaxed);
        other.join().expect("occupy thread");
    });
    Ok(())
}

fn client_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let fabric = FabricConfig::single_node(64 << 20).build();
    let mut c = fabric.client();
    c.write_u64(FarAddr(64), 4096)
        .map_err(ctx("cell client setup"))?;
    c.write(FarAddr(4096), &[7u8; 4096])
        .map_err(ctx("cell client setup"))?;
    b.looped("client.read_u64_ns", 300_000, || {
        black_box(c.read_u64(FarAddr(4096)).expect("read"));
    });
    b.looped("client.write_u64_ns", 300_000, || {
        c.write_u64(FarAddr(4096), black_box(9)).expect("write")
    });
    b.looped("client.cas_ns", 200_000, || {
        black_box(c.cas(FarAddr(4104), 0, 0).expect("cas"));
    });
    b.looped("client.faa_ns", 200_000, || {
        black_box(c.faa(FarAddr(4112), 1).expect("faa"));
    });
    b.looped("client.read_256_ns", 100_000, || {
        black_box(c.read(FarAddr(8192), 256).expect("read"));
    });
    b.looped("client.read_4k_ns", 6_000, || {
        black_box(c.read(FarAddr(8192), 4096).expect("read"));
    });
    let page = vec![3u8; 4096];
    b.looped("client.write_4k_ns", 6_000, || {
        c.write(FarAddr(8192), black_box(&page)).expect("write")
    });
    b.looped("client.load0_ns", 100_000, || {
        black_box(c.load0(FarAddr(64), 8).expect("load0"));
    });
    b.looped("client.add2_ns", 100_000, || {
        c.add2(FarAddr(64), 1, 16).expect("add2")
    });
    let iov: Vec<FarIov> = (0..8)
        .map(|i| FarIov::new(FarAddr(65536 + i * 4096), 64))
        .collect();
    b.looped("client.rgather_8x64_ns", 30_000, || {
        black_box(c.rgather(&iov).expect("rgather"));
    });
    let src = vec![5u8; 8 * 64];
    b.looped("client.wscatter_8x64_ns", 30_000, || {
        c.wscatter(&iov, black_box(&src)).expect("wscatter")
    });
    let word = [1u8; 8];
    b.looped("client.batch_2_ns", 60_000, || {
        black_box(
            c.batch(&[
                BatchOp::Write {
                    addr: FarAddr(12288),
                    data: &word,
                },
                BatchOp::Cas {
                    addr: FarAddr(12296),
                    expected: 0,
                    new: 0,
                },
            ])
            .expect("batch"),
        );
    });
    let mut watcher = fabric.client();
    watcher
        .notify0(FarAddr(16384), 64)
        .map_err(ctx("cell notify0"))?;
    b.looped("client.notify_write_ns", 60_000, || {
        c.write_u64(FarAddr(16384), black_box(3)).expect("write");
        black_box(watcher.recv_events());
    });

    // Pipeline: ns per descriptor at depth 1 / 8 / 64.
    for (name, depth) in [
        ("pipeline.desc_ns_d1", 1u64),
        ("pipeline.desc_ns_d8", 8),
        ("pipeline.desc_ns_d64", 64),
    ] {
        let doorbells = b.n(120_000 / depth);
        b.batched(name, |_| {
            let t0 = Instant::now();
            for _ in 0..doorbells {
                let mut q = c.pipeline();
                for d in 0..depth {
                    q.read_u64(FarAddr(32768 + d * 64));
                }
                black_box(q.commit());
            }
            (t0.elapsed().as_nanos() as u64, doorbells * depth)
        });
    }
    Ok(())
}

fn replica_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let fabric = FabricConfig {
        replication: ReplicaConfig::mirrored(2),
        ..FabricConfig::single_node(16 << 20)
    }
    .build();
    let mut c = fabric.client();
    b.looped("replica.write_u64_k2_ns", 150_000, || {
        c.write_u64(FarAddr(4096), black_box(9)).expect("write")
    });
    b.looped("replica.read_u64_k2_ns", 200_000, || {
        black_box(c.read_u64(FarAddr(4096)).expect("read"));
    });
    Ok(())
}

fn observer_cells(b: &mut Bench<'_>, smoke: bool) -> Result<(), Fail> {
    // The program's own observers, through their public switches: verb
    // cost with the observer on minus off.
    let fabric = FabricConfig::single_node(16 << 20).build();
    let mut c = fabric.client();
    let verb = |c: &mut farmem_fabric::FabricClient, b: &Bench<'_>| {
        b.measure(200_000, || {
            black_box(c.read_u64(FarAddr(4096)).expect("read"));
        })
    };
    let off = verb(&mut c, b);
    c.enable_tracing(TraceConfig::default());
    let traced = verb(&mut c, b);
    c.disable_tracing();
    b.record("observer.trace_tax_ns", (traced - off).max(0.0));
    let hub = MetricsHub::new(fabric.clone(), MetricsConfig::default(), Vec::new());
    hub.attach(&mut c);
    let sampled = verb(&mut c, b);
    c.clear_sampler();
    b.record("observer.sampler_tax_ns", (sampled - off).max(0.0));

    // The same get stream as `serve-get-small` on a reduced fixture,
    // ops/s with the program's tracer on ÷ off.
    let spec = ServeSpec {
        raw_keys: if smoke { 500 } else { 5_000 },
        ops_per_round: if smoke { 2_000 } else { 50_000 },
        node_capacity: 64 << 20,
        ..ServeSpec::named("serve-get-small", false).expect("known workload")
    };
    b.r.set(
        "observer.serve_trace_ratio",
        program_trace_ratio(spec, CELL_SEED)?,
    );
    Ok(())
}

fn alloc_reclaim_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let fabric = FabricConfig {
        nodes: 4,
        node_capacity: 64 << 20,
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    b.looped("alloc.alloc_free_64_ns", 100_000, || {
        let a = alloc.alloc(64, AllocHint::Spread).expect("alloc");
        alloc.free(black_box(a), 64).expect("free");
    });
    {
        // A fabric of its own: today every multi-page alloc carves fresh
        // pages even right after a free of the same size (the free lands
        // on a list the node-bound path never reads), so this loop eats
        // 8 KiB of far memory per call and must not starve its neighbours.
        let fabric = FabricConfig {
            nodes: 4,
            node_capacity: 256 << 20,
            ..FabricConfig::default()
        }
        .build();
        let alloc = FarAlloc::new(fabric);
        b.looped("alloc.alloc_free_8k_ns", 4_000, || {
            let a = alloc.alloc(8192, AllocHint::Spread).expect("alloc");
            alloc.free(black_box(a), 8192).expect("free");
        });
    }

    let registry = ReclaimRegistry::create(&mut c, &alloc, 8).map_err(ctx("cell registry"))?;
    let shared = registry
        .attach(&mut c, &alloc)
        .map_err(ctx("cell attach"))?;
    b.looped("reclaim.pin_ns", 300_000, || {
        black_box(pin(&shared, &mut c).expect("pin"));
    });
    // Retire alone: addresses are allocated before the timed region and
    // the seal + reclaim that frees them runs after it.
    shared
        .lock()
        .expect("reclaim handle")
        .set_seal_threshold(usize::MAX);
    let n = b.n(4_096);
    b.batched("reclaim.retire_ns", |_| {
        let addrs: Vec<FarAddr> = (0..n)
            .map(|_| alloc.alloc(64, AllocHint::Spread).expect("alloc"))
            .collect();
        let mut h = shared.lock().expect("reclaim handle");
        let t0 = Instant::now();
        for &a in &addrs {
            h.retire(&mut c, a, 64).expect("retire");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        h.seal(&mut c).expect("seal");
        h.reclaim(&mut c).expect("reclaim");
        (ns, n)
    });

    // One seal + reclaim pass with one fresh retire, at 64 and 512
    // registry slots (the pass scans the whole registry).
    for (name, slots) in [
        ("reclaim.pass_ns_s64", 64u64),
        ("reclaim.pass_ns_s512", 512),
    ] {
        let registry =
            ReclaimRegistry::create(&mut c, &alloc, slots).map_err(ctx("cell registry"))?;
        let shared = registry
            .attach(&mut c, &alloc)
            .map_err(ctx("cell attach"))?;
        let passes = b.n(400);
        b.batched(name, |_| {
            let mut h = shared.lock().expect("reclaim handle");
            let mut ns = 0u64;
            for _ in 0..passes {
                let a = alloc.alloc(64, AllocHint::Spread).expect("alloc");
                h.retire(&mut c, a, 64).expect("retire");
                let t0 = Instant::now();
                h.seal(&mut c).expect("seal");
                black_box(h.reclaim(&mut c).expect("reclaim"));
                ns += t0.elapsed().as_nanos() as u64;
            }
            (ns, passes)
        });
    }
    Ok(())
}

fn runtime_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let fabric = FabricConfig {
        nodes: 4,
        node_capacity: 16 << 20,
        ..FabricConfig::default()
    }
    .build();
    // Spawn + run of a task that awaits nothing.
    let n = b.n(2_000);
    b.batched("runtime.spawn_ns", |_| {
        let clients: Vec<_> = (0..n).map(|_| fabric.client()).collect();
        let mut ex = Executor::new();
        let t0 = Instant::now();
        for c in clients {
            ex.spawn(c, |_ac| async {});
        }
        ex.run();
        (t0.elapsed().as_nanos() as u64, n)
    });
    // n tasks each awaiting k read_u64: ns per doorbell, run() only.
    let mut polls_per_doorbell = 0.0;
    for (name, tasks, k) in [
        ("runtime.doorbell_ns_c1", 1u64, 20_000u64),
        ("runtime.doorbell_ns_c1k", 1_000, 20),
        ("runtime.doorbell_ns_c10k", 10_000, 2),
    ] {
        let (tasks, k) = if b.shrink > 1 {
            ((tasks / 10).max(1), (k / 2).max(1))
        } else {
            (tasks, k)
        };
        b.batched(name, |_| {
            let mut ex = Executor::new();
            let handles: Vec<_> = (0..tasks)
                .map(|t| {
                    ex.spawn(fabric.client(), move |ac| async move {
                        let addr = FarAddr(4096 + (t % 512) * 64);
                        for _ in 0..k {
                            black_box(ac.read_u64(addr).await.expect("read"));
                        }
                    })
                })
                .collect();
            let t0 = Instant::now();
            ex.run();
            let ns = t0.elapsed().as_nanos() as u64;
            let (polls, bells) = handles.iter().fold((0u64, 0u64), |(p, d), h| {
                let rep = h.report();
                (p + rep.verb_polls, d + rep.doorbells_fired)
            });
            polls_per_doorbell = polls as f64 / bells.max(1) as f64;
            (ns, tasks * k)
        });
    }
    b.r.set("runtime.polls_per_doorbell", polls_per_doorbell);
    Ok(())
}

fn core_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let fabric = FabricConfig {
        nodes: 4,
        node_capacity: 128 << 20,
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let keys = b.n(20_000);
    let cfg = HtTreeConfig {
        initial_buckets: 1024,
        ..HtTreeConfig::default()
    };
    let tree = HtTree::create(&mut c, &alloc, cfg).map_err(ctx("cell tree"))?;
    let mut h = tree
        .attach(&mut c, &alloc, cfg)
        .map_err(ctx("cell tree attach"))?;
    for k in 0..keys {
        h.put(&mut c, k, k + 1).map_err(ctx("cell tree preload"))?;
    }
    let mut i = 0u64;
    b.looped("core.httree_put_ns", 40_000, || {
        i = (i + 7) % keys;
        h.put(&mut c, i, i + 2).expect("put");
    });
    // Remove alone: the removed keys go back in untimed.
    let n = b.n(2_000).min(keys);
    b.batched("core.httree_remove_ns", |batch| {
        let first = (batch as u64 * n) % (keys - n + 1);
        let t0 = Instant::now();
        for k in first..first + n {
            h.remove(&mut c, k).expect("remove");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        for k in first..first + n {
            h.put(&mut c, k, k + 1).expect("re-put");
        }
        (ns, n)
    });
    let mut base = 0u64;
    b.looped("core.httree_get_many_16_ns", 8_000, || {
        base = (base + 97) % (keys - 16);
        let ks: [u64; 16] = std::array::from_fn(|j| base + j as u64);
        black_box(h.get_many(&mut c, &ks).expect("get_many"));
    });
    b.r.set(
        "core.httree_dir_bytes_per_leaf",
        h.cache_bytes() as f64 / h.leaves().max(1) as f64,
    );

    // Queue: fill untimed, drain timed, and the reverse.
    let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(1 << 14, 4))
        .map_err(ctx("cell queue"))?;
    let mut qh = FarQueue::attach(&mut c, q.hdr()).map_err(ctx("cell queue attach"))?;
    let n = b.n(4_096);
    b.batched("core.queue_enq_ns", |_| {
        let t0 = Instant::now();
        for v in 0..n {
            qh.enqueue(&mut c, v).expect("enqueue");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        for _ in 0..n {
            qh.dequeue(&mut c).expect("dequeue");
        }
        (ns, n)
    });
    b.batched("core.queue_deq_ns", |_| {
        for v in 0..n {
            qh.enqueue(&mut c, v).expect("enqueue");
        }
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(qh.dequeue(&mut c).expect("dequeue"));
        }
        (t0.elapsed().as_nanos() as u64, n)
    });
    b.batched("core.queue_deq_batch_16_ns", |_| {
        for v in 0..n {
            qh.enqueue(&mut c, v).expect("enqueue");
        }
        let calls = n / 16;
        let t0 = Instant::now();
        for _ in 0..calls {
            black_box(qh.dequeue_batch(&mut c, 16).expect("dequeue_batch"));
        }
        let ns = t0.elapsed().as_nanos() as u64;
        while qh.dequeue(&mut c).is_ok() {}
        (ns, calls)
    });

    let vec =
        FarVec::create(&mut c, &alloc, 1 << 14, AllocHint::Spread).map_err(ctx("cell vec"))?;
    b.looped("core.vec_add_ns", 100_000, || {
        i = (i + 13) % (1 << 14);
        vec.add(&mut c, i, 1).expect("add");
    });
    b.looped("core.vec_read_ranges_8_ns", 20_000, || {
        i = (i + 13) % (1 << 13);
        let ranges: [(u64, u64); 8] = std::array::from_fn(|k| (i + k as u64 * 512, 4));
        black_box(vec.read_ranges(&mut c, &ranges).expect("read_ranges"));
    });

    let rv = RefreshableVec::create(&mut c, &alloc, 1 << 14, 64, AllocHint::Spread)
        .map_err(ctx("cell refvec"))?;
    let writer = VecWriter::new(rv);
    let mut rc = fabric.client();
    let policy = RefreshPolicy {
        initial: RefreshMode::Notify,
        dynamic: false,
        ..RefreshPolicy::default()
    };
    let mut reader = VecReader::new(&mut rc, rv, policy).map_err(ctx("cell refvec reader"))?;
    // The subscribed write, with the reader draining after each batch.
    let n = b.n(2_000);
    let write_ns = b.batched("core.refvec_write_ns", |_| {
        let t0 = Instant::now();
        for _ in 0..n {
            i = (i + 13) % (1 << 14);
            writer.write(&mut c, i, i).expect("write");
        }
        let ns = t0.elapsed().as_nanos() as u64;
        reader.refresh(&mut rc).expect("refresh");
        (ns, n)
    });
    // Refresh of one dirty group = (write + refresh) pair minus the write.
    let pair_ns = b.measure(30_000, || {
        i = (i + 13) % (1 << 14);
        writer.write(&mut c, i, i).expect("write");
        black_box(reader.refresh(&mut rc).expect("refresh"));
    });
    b.record("core.refvec_refresh_ns", (pair_ns - write_ns).max(0.0));

    let ctr =
        FarCounter::create(&mut c, &alloc, 0, AllocHint::Spread).map_err(ctx("cell counter"))?;
    b.looped("core.counter_add_ns", 200_000, || {
        black_box(ctr.add(&mut c, 1).expect("add"));
    });
    Ok(())
}

fn comparator_cells(b: &mut Bench<'_>) -> Result<(), Fail> {
    let n = b.n(10_000);
    let server = RpcKv::serve(ServerCpu::DEFAULT, CostModel::DEFAULT);
    let mut kv = RpcKv::connect(vec![server]);
    for k in 0..n {
        kv.put(k, k);
    }
    let mut i = 0u64;
    b.looped("rpc.kv_get_ns", 100_000, || {
        i = (i + 7) % n;
        black_box(kv.get(i));
    });
    let fabric = FabricConfig::single_node(64 << 20).build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let mut chained =
        ChainedHash::create(&mut c, &alloc, 2 * n, false).map_err(ctx("cell chained"))?;
    for k in 0..n {
        chained
            .insert(&mut c, k, k)
            .map_err(ctx("cell chained insert"))?;
    }
    b.looped("baselines.chained_get_ns", 100_000, || {
        i = (i + 7) % n;
        black_box(chained.get(&mut c, i).expect("get"));
    });
    Ok(())
}

/// The session-count curve: far-memory throughput is a parallelism
/// curve, not a point. Same total requests at 8 / 64 / 512 sessions.
fn sessions_sweep(b: &mut Bench<'_>, smoke: bool) -> Result<(), Fail> {
    let total = if smoke { 4_096 } else { 131_072 };
    for (name, sessions) in [
        ("serve.sessions_ops_per_s_s8", 8usize),
        ("serve.sessions_ops_per_s_s64", 64),
        ("serve.sessions_ops_per_s_s512", 512),
    ] {
        // Best of three fresh deployments, like every other host time.
        let mut best = 0.0f64;
        for _ in 0..3 {
            best = best.max(sweep_point(sessions, total, smoke, CELL_SEED)?);
        }
        b.r.set_noted(name, best, "best of 3 deployments");
    }
    Ok(())
}
