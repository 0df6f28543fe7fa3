//! E19 — async far-memory runtime: multiplex many logical clients per
//! OS thread.
//!
//! Claim (§2's bandwidth-delay argument applied to *clients* instead of
//! descriptors): a latency-bound far-memory workload leaves the fabric
//! idle most of the time, so one OS thread behind a completion-driven
//! executor can drive tens — thousands — of logical clients whose round
//! trips overlap in virtual time. The overlap hides latency and *only*
//! latency: per-client round trips, messages, bytes and data stay
//! byte-identical to the serial loop, every task's trace report
//! reconciles exactly, and the executor never spin-polls (0 wasted
//! polls, 2 verb polls per doorbell).
//!
//! The workload exercises the async adopters end to end: pipelined
//! `FarVec::read_ranges_async`, `HtTree::get_many_async` bucket-head
//! prefetch, `FarQueue::dequeue_batch_async` guarded claims, plus leaf
//! serial verbs — against their synchronous twins on an identically
//! prepared fabric.
//!
//! Run: `cargo run --release -p farmem-bench --bin e19_async`

use std::sync::Arc;

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_bench::{BenchArgs, Table};
use farmem_core::{FarQueue, FarVec, HtTree, HtTreeConfig, QueueConfig};
use farmem_fabric::{
    AccessStats, CostModel, Fabric, FabricClient, FabricConfig, FarAddr, Striping, TraceConfig,
    PAGE, WORD,
};
use farmem_runtime::{AsyncClient, Executor, Runtime};

/// Words per vector range: 128 B, so ranges are RTT-bound (the regime
/// where multiplexing clients — not deepening one client's pipeline —
/// is what recovers the fabric's bandwidth-delay product).
const RANGE_WORDS: u64 = 16;
/// Ranges per `read_ranges` doorbell.
const CHUNK: usize = 8;
/// Keys in the shared HT-tree.
const KEYS: u64 = 256;
/// The client sweep; the headline overlap assert applies to the last.
const SWEEP: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Logical clients in the one-OS-thread capacity row.
const MANY: usize = 10_000;
// The claim EXPERIMENTS.md quotes is "10k clients on one worker thread".
const _: () = assert!(MANY >= 10_000);

/// Access counters minus `overlap_saved_ns`, the one field that is
/// *defined* in terms of the schedule (virtual ns saved vs serial issue,
/// which depends on cross-client node occupancy). Every pure count —
/// round trips, messages, bytes, atomics, near accesses, pipelined ops,
/// doorbells, reissues, … — must match the serial twin exactly.
fn pure_counts(s: &AccessStats) -> Vec<(&'static str, u64)> {
    AccessStats::FIELD_NAMES
        .iter()
        .zip(s.to_array())
        .filter(|(name, _)| **name != "overlap_saved_ns")
        .map(|(name, v)| (*name, v))
        .collect()
}

/// Everything a per-client program touches, shareable into spawned tasks.
struct World {
    vec: FarVec,
    map: HtTree,
    cfg: HtTreeConfig,
    q_hdrs: Vec<FarAddr>,
    ctrs: FarAddr,
    alloc: Arc<FarAlloc>,
    /// Ranges per client.
    r: u64,
    /// Keys per client.
    k: u64,
    /// Items dequeued per client.
    d: u64,
    /// Serial leaf-verb rounds per client.
    s: u64,
}

impl World {
    fn ranges_for(&self, i: u64) -> Vec<(u64, u64)> {
        (0..self.r).map(|r| ((i * self.r + r) * RANGE_WORDS, RANGE_WORDS)).collect()
    }

    fn keys_for(&self, i: u64) -> Vec<u64> {
        (0..self.k).map(|j| (i * 7 + j * 13) % KEYS).collect()
    }

    fn ctr_for(&self, i: u64) -> FarAddr {
        self.ctrs.offset(i * WORD)
    }
}

/// One client's outputs: range checksum, map lookups, dequeued values,
/// leaf-verb checksum. Equality across the twins proves latency hiding
/// never changed an answer.
type Outcome = (u64, Vec<Option<u64>>, Vec<u64>, u64);

/// The synchronous twin: one blocking OS thread's view of the program.
fn run_serial(c: &mut FabricClient, w: &World, i: u64) -> Outcome {
    let _span = c.span("e19.task");
    let mut range_sum = 0u64;
    {
        let _p = c.span("e19.ranges");
        let ranges = w.ranges_for(i);
        for chunk in ranges.chunks(CHUNK) {
            for vals in w.vec.read_ranges(c, chunk).unwrap() {
                range_sum += vals.iter().sum::<u64>();
            }
        }
    }
    let gets = {
        let _p = c.span("e19.map");
        let mut h = w.map.attach(c, &w.alloc, w.cfg).unwrap();
        h.get_many(c, &w.keys_for(i)).unwrap()
    };
    let deqs = {
        let _p = c.span("e19.queue");
        let mut qh = FarQueue::attach(c, w.q_hdrs[i as usize]).unwrap();
        qh.dequeue_batch(c, w.d as usize).unwrap()
    };
    let mut leaf_sum = 0u64;
    {
        let _p = c.span("e19.leaf");
        let ctr = w.ctr_for(i);
        for k in 0..w.s {
            c.write_u64(ctr, i * 1000 + k).unwrap();
            leaf_sum += c.read_u64(ctr).unwrap();
            leaf_sum += c.faa(ctr, 1).unwrap();
        }
    }
    (range_sum, gets, deqs, leaf_sum)
}

/// The asynchronous twin: identical program through the async adopters,
/// suspending at every doorbell instead of blocking the thread.
async fn run_async(ac: AsyncClient, w: Arc<World>, i: u64) -> Outcome {
    let _span = ac.span("e19.task");
    let mut range_sum = 0u64;
    {
        let _p = ac.span("e19.ranges");
        let ranges = w.ranges_for(i);
        for chunk in ranges.chunks(CHUNK) {
            for vals in w.vec.read_ranges_async(&ac, chunk).await.unwrap() {
                range_sum += vals.iter().sum::<u64>();
            }
        }
    }
    let gets = {
        let _p = ac.span("e19.map");
        // Attach is control-plane setup; the lookups suspend.
        let mut h = ac.with(|c| w.map.attach(c, &w.alloc, w.cfg)).unwrap();
        h.get_many_async(&ac, &w.keys_for(i)).await.unwrap()
    };
    let deqs = {
        let _p = ac.span("e19.queue");
        let mut qh = ac.with(|c| FarQueue::attach(c, w.q_hdrs[i as usize])).unwrap();
        qh.dequeue_batch_async(&ac, w.d as usize).await.unwrap()
    };
    let mut leaf_sum = 0u64;
    {
        let _p = ac.span("e19.leaf");
        let ctr = w.ctr_for(i);
        for k in 0..w.s {
            ac.write_u64(ctr, i * 1000 + k).await.unwrap();
            leaf_sum += ac.read_u64(ctr).await.unwrap();
            leaf_sum += ac.faa(ctr, 1).await.unwrap();
        }
    }
    (range_sum, gets, deqs, leaf_sum)
}

/// Builds one fabric with `n` clients' worth of data and returns it with
/// the world and the setup-completion time `t0` (every measured client
/// starts there, so both twins see identical node occupancy).
fn setup(n: usize, r: u64, k: u64, d: u64, s: u64) -> (Arc<Fabric>, Arc<World>, u64) {
    let fabric = FabricConfig {
        nodes: 8,
        node_capacity: 512 << 20,
        striping: Striping::Striped { stripe: PAGE },
        cost: CostModel::DEFAULT,
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let vec =
        FarVec::create(&mut c, &alloc, n as u64 * r * RANGE_WORDS, AllocHint::Striped).unwrap();
    for range in 0..n as u64 * r {
        let vals: Vec<u64> = (0..RANGE_WORDS).map(|j| range * RANGE_WORDS + j + 1).collect();
        vec.write_range(&mut c, range * RANGE_WORDS, &vals).unwrap();
    }
    let cfg = HtTreeConfig { initial_buckets: 128, ..Default::default() };
    let map = HtTree::create(&mut c, &alloc, cfg).unwrap();
    let mut h = map.attach(&mut c, &alloc, cfg).unwrap();
    for key in 0..KEYS {
        h.put(&mut c, key, key * 3 + 1).unwrap();
    }
    let mut q_hdrs = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(128, 2)).unwrap();
        let mut qh = FarQueue::attach(&mut c, q.hdr()).unwrap();
        for j in 0..d {
            qh.enqueue(&mut c, i * 1000 + j).unwrap();
        }
        q_hdrs.push(q.hdr());
    }
    let ctrs = alloc.alloc(n as u64 * WORD, AllocHint::Striped).unwrap();
    let t0 = c.now_ns();
    let world = Arc::new(World { vec, map, cfg, q_hdrs, ctrs, alloc, r, k, d, s });
    (fabric, world, t0)
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e19_async");
    let r = 16;
    let k = 32;
    let d = 16;
    let s = 16;

    let mut t = Table::new(
        "E19a: one OS thread, n logical clients — blocking serial loop vs async executor \
         (virtual time)",
        &["clients", "serial ms", "async ms", "overlap", "RT/client", "bells/client", "parity"],
    );

    let mut headline: Option<f64> = None;
    let mut verdict_parity = true;
    for &n in &SWEEP {
        // Serial twin: one blocking OS thread = the clients' virtual
        // clocks chain through a global cursor.
        let (_fs, ws, t0s) = setup(n, r, k, d, s);
        let mut cursor = t0s;
        let mut serial: Vec<(Outcome, AccessStats)> = Vec::with_capacity(n);
        for i in 0..n as u64 {
            let mut c = _fs.client();
            c.enable_tracing(TraceConfig::default());
            c.advance_time(cursor - c.now_ns());
            let out = run_serial(&mut c, &ws, i);
            cursor = c.now_ns();
            c.trace_report()
                .expect("tracing enabled")
                .reconcile()
                .unwrap_or_else(|f| panic!("serial trace does not reconcile on `{f}`"));
            serial.push((out, c.stats()));
        }
        let serial_ns = cursor - t0s;

        // Async twin: the same programs multiplexed by one executor.
        let (fa, wa, t0a) = setup(n, r, k, d, s);
        assert_eq!(t0s, t0a, "twin setups must be identical");
        let mut ex = Executor::new();
        let handles: Vec<_> = (0..n as u64)
            .map(|i| {
                let mut client = fa.client();
                client.enable_tracing(TraceConfig::default());
                client.advance_time(t0a - client.now_ns());
                let w = wa.clone();
                ex.spawn(client, move |ac| run_async(ac, w, i))
            })
            .collect();
        ex.run();
        let async_ns = handles.iter().map(|h| h.now_ns()).max().unwrap() - t0a;

        let mut rt = 0u64;
        let mut bells = 0u64;
        for (i, h) in handles.iter().enumerate() {
            let (serial_out, serial_stats) = &serial[i];
            assert_eq!(&h.take().unwrap(), serial_out, "client {i}: answers diverged");
            let (a, s) = (pure_counts(&h.stats()), pure_counts(serial_stats));
            let diverged: Vec<String> = a
                .iter()
                .zip(&s)
                .filter(|((_, av), (_, sv))| av != sv)
                .map(|((name, av), (_, sv))| format!("{name}: async {av} vs serial {sv}"))
                .collect();
            verdict_parity &= diverged.is_empty();
            assert!(diverged.is_empty(), "client {i}: counters diverged: {diverged:?}");
            h.with_client(|c| c.trace_report())
                .expect("tracing enabled")
                .reconcile()
                .unwrap_or_else(|f| panic!("async trace does not reconcile on `{f}`"));
            let rep = h.report();
            assert_eq!(rep.wasted_polls, 0, "client {i}: executor spin-polled");
            assert_eq!(rep.verb_polls, 2 * rep.doorbells_fired, "client {i}: poll discipline");
            rt += h.stats().round_trips;
            bells += rep.doorbells_fired;
        }
        let overlap = serial_ns as f64 / async_ns as f64;
        if n == 64 {
            headline = Some(overlap);
            assert!(overlap >= 8.0, "expected ≥8× overlap at 64 clients, got ×{overlap:.1}");
        }
        t.row(vec![
            n.to_string(),
            format!("{:.2}", serial_ns as f64 / 1e6),
            format!("{:.2}", async_ns as f64 / 1e6),
            format!("×{overlap:.1}"),
            format!("{:.0}", rt as f64 / n as f64),
            format!("{:.0}", bells as f64 / n as f64),
            "exact".into(),
        ]);
    }
    report.add(t);

    // Capacity row: 10k logical clients multiplexed by ONE worker thread.
    let fabric = FabricConfig {
        nodes: 8,
        node_capacity: 512 << 20,
        striping: Striping::Striped { stripe: PAGE },
        cost: CostModel::DEFAULT,
        ..FabricConfig::default()
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let slab = alloc.alloc(MANY as u64 * WORD, AllocHint::Striped).unwrap();
    let results = Runtime::new(1).run(&fabric, MANY, move |i, ac| {
        Box::pin(async move {
            let addr = slab.offset(i as u64 * WORD);
            let mut sum = 0u64;
            for round in 0..4u64 {
                ac.write_u64(addr, i as u64 + round).await.unwrap();
                sum += ac.read_u64(addr).await.unwrap();
            }
            sum
        })
    });
    assert_eq!(results.len(), MANY);
    let mut many_rt = 0u64;
    let mut many_bells = 0u64;
    let mut many_wasted = 0u64;
    let mut many_span = 0u64;
    for r in &results {
        assert_eq!(r.stats.round_trips, 8, "task {}: 8 serial verbs", r.index);
        many_rt += r.stats.round_trips;
        many_bells += r.report.doorbells_fired;
        many_wasted += r.report.wasted_polls;
        many_span = many_span.max(r.clock_ns);
    }
    assert_eq!(many_wasted, 0, "10k-client run spin-polled");
    let mut t = Table::new(
        "E19b: capacity — logical clients multiplexed by one OS thread",
        &["clients", "workers", "round trips", "doorbells", "wasted polls", "makespan ms"],
    );
    t.row(vec![
        MANY.to_string(),
        "1".into(),
        many_rt.to_string(),
        many_bells.to_string(),
        many_wasted.to_string(),
        format!("{:.2}", many_span as f64 / 1e6),
    ]);
    report.add(t);

    let headline = headline.expect("sweep covers 64 clients");
    let mut t = Table::new("E19c: verdict", &["check", "value"]);
    t.row(vec!["overlap at 64 clients (≥8 required)".into(), format!("×{headline:.1}")]);
    t.row(vec![
        "per-client counters vs serial twin (every count field)".into(),
        if verdict_parity { "exact" } else { "DIVERGED" }.into(),
    ]);
    t.row(vec!["answers vs serial twin".into(), "exact".into()]);
    t.row(vec!["trace reconciliation (every client, both twins)".into(), "exact".into()]);
    t.row(vec!["wasted polls (whole run)".into(), "0".into()]);
    t.row(vec!["10k clients on one OS thread".into(), "completed".into()]);
    report.add(t);

    if args.verbose() {
        println!(
            "\nShape check: the workload is RTT-bound (128 B ranges, word verbs),\n\
             so one executor thread overlaps clients' round trips almost fully —\n\
             ×{headline:.1} at 64 clients over 8 nodes (≥8 required) — while every\n\
             per-client counter, answer, and trace report is byte-identical to\n\
             the blocking serial loop. Latency is hidden, never work.",
        );
    }
    report.save();
}
