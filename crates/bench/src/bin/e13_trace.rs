//! E13 — span-attributed tracing of a mixed far-memory workload.
//!
//! Runs HT-tree puts/gets, queue enqueues/dequeues and mutex lock/unlock
//! cycles on one traced client under the DEFAULT cost model with ~2%
//! injected transient faults, then reports where every far round trip
//! went: per-span counts, round trips / bytes / retries per operation,
//! and virtual-time latency quantiles per span and per verb kind.
//!
//! The driver *asserts* the tracer's two contracts before reporting:
//!
//! * **exact reconciliation** — summed span self-stats + unattributed +
//!   still-open stats equal the client's flat
//!   [`AccessStats`](farmem_fabric::AccessStats) delta, field for field;
//! * **≥95% attribution** — at least 95% of all round trips land in a
//!   named span (the workload wraps setup in a span, so the residue is
//!   only the driver's own bookkeeping reads).
//!
//! Output: tables on stdout, `results/e13_trace.json` (schema-versioned
//! tables), `results/e13_trace.perfetto.json` (Chrome trace-event JSON —
//! load it at <https://ui.perfetto.dev>), and
//! `results/e13_trace.jsonl` (one JSON object per traced verb).
//!
//! Run: `cargo run --release -p farmem-bench --bin e13_trace`

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_bench::{BenchArgs, Json, Table};
use farmem_baselines::FarMutex;
use farmem_core::{FarQueue, HtTree, HtTreeConfig, QueueConfig};
use farmem_fabric::{FabricConfig, FaultPlan, RetryPolicy, TraceConfig, TraceReport};

/// Fault-stream seed (determinism over novelty).
const SEED: u64 = 13;

/// Injected per-verb transient failure probability: 2%.
const FAULT_PPM: u32 = 20_000;

fn f2(x: f64) -> String {
    format!("{x:.2}")
}

fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1_000.0)
}

fn span_table(rep: &TraceReport) -> Table {
    let mut t = Table::new(
        "E13: per-span attribution (2% transient faults, default cost model)",
        &["span", "count", "RT/op", "bytes/op", "retries/op", "p50 µs", "p99 µs", "max µs"],
    );
    for s in &rep.spans {
        let ops = s.count.max(1) as f64;
        t.row(vec![
            s.name.to_string(),
            s.count.to_string(),
            f2(s.stats.round_trips as f64 / ops),
            f2(s.stats.bytes_total() as f64 / ops),
            f2(s.stats.retries as f64 / ops),
            us(s.p50_ns),
            us(s.p99_ns),
            us(s.max_ns),
        ]);
    }
    t.row(vec![
        "(unattributed)".to_string(),
        rep.unattributed_events.to_string(),
        rep.unattributed.round_trips.to_string(),
        rep.unattributed.bytes_total().to_string(),
        rep.unattributed.retries.to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
    ]);
    t
}

fn verb_table(rep: &TraceReport) -> Table {
    let mut t = Table::new(
        "E13b: per-verb-kind virtual-time latency",
        &["verb", "count", "p50 µs", "p99 µs", "max µs", "mean µs"],
    );
    for v in &rep.verbs {
        t.row(vec![
            v.kind.name().to_string(),
            v.count.to_string(),
            us(v.p50_ns),
            us(v.p99_ns),
            us(v.max_ns),
            us(v.mean_ns),
        ]);
    }
    t
}

fn main() {
    let args = BenchArgs::parse();
    let puts: u64 = 4_000;
    let gets: u64 = 8_000;
    let qops: u64 = 6_000;
    let locks: u64 = 1_000;

    let fabric = FabricConfig {
        faults: FaultPlan::transient(FAULT_PPM).with_seed(args.seed_or(SEED)),
        retry: RetryPolicy::DEFAULT,
        ..FabricConfig::single_node(256 << 20)
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let tracer = c.enable_tracing(TraceConfig::default());

    // Setup inside a span, so creation round trips are attributed too.
    let cfg = HtTreeConfig { initial_buckets: 64, ..Default::default() };
    let (mut tree, mut queue, mutex) = {
        let _span = c.span("e13.setup");
        let t = HtTree::create(&mut c, &alloc, cfg).unwrap();
        let tree = t.attach(&mut c, &alloc, cfg).unwrap();
        let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(128, 4)).unwrap();
        let queue = FarQueue::attach(&mut c, q.hdr()).unwrap();
        let mutex = FarMutex::create(&mut c, &alloc, AllocHint::Spread).unwrap();
        (tree, queue, mutex)
    };

    {
        let _phase = c.span("phase.httree");
        for i in 0..puts {
            tree.put(&mut c, (i * 13) % (puts / 2).max(1), i).unwrap();
        }
        for i in 0..gets {
            tree.get(&mut c, (i * 7) % (puts / 2).max(1)).unwrap();
        }
    }
    {
        let _phase = c.span("phase.queue");
        let mut next = 1u64;
        for i in 0..qops {
            if i % 2 == 0 {
                match queue.enqueue(&mut c, next) {
                    Ok(()) => next += 1,
                    Err(farmem_core::CoreError::QueueFull) => {}
                    Err(e) => panic!("enqueue: {e}"),
                }
            } else {
                match queue.dequeue(&mut c) {
                    Ok(_) | Err(farmem_core::CoreError::QueueEmpty) => {}
                    Err(e) => panic!("dequeue: {e}"),
                }
            }
        }
    }
    {
        let _phase = c.span("phase.mutex");
        for _ in 0..locks {
            mutex.lock(&mut c, 64).unwrap();
            mutex.unlock(&mut c).unwrap();
        }
    }

    let rep = c.trace_report().expect("tracing enabled");
    rep.reconcile()
        .unwrap_or_else(|field| panic!("attribution does not reconcile on `{field}`"));
    let ratio = rep.attribution_ratio();
    assert!(ratio >= 0.95, "attribution ratio {ratio:.4} < 0.95");

    let mut report = args.report("e13_trace");
    report.add(span_table(&rep));
    report.add(verb_table(&rep));

    let mut t = Table::new(
        "E13c: reconciliation against the flat counters",
        &["metric", "value"],
    );
    t.row(vec!["total round trips".into(), rep.total.round_trips.to_string()]);
    t.row(vec!["attributed round trips".into(), rep.attributed().round_trips.to_string()]);
    t.row(vec!["attribution ratio".into(), format!("{:.4}", ratio)]);
    t.row(vec!["total retries".into(), rep.total.retries.to_string()]);
    t.row(vec!["total faults injected".into(), rep.total.faults_injected.to_string()]);
    t.row(vec!["verbs recorded".into(), rep.events_recorded.to_string()]);
    t.row(vec!["verbs dropped from ring".into(), rep.events_dropped.to_string()]);
    t.row(vec!["exact reconciliation".into(), "yes".into()]);
    report.add(t);

    let mut t = Table::new(
        "E13d: per-node interface occupancy (FIFO booking)",
        &["node", "messages", "busy µs", "waited µs", "max wait µs", "mean wait µs"],
    );
    for (i, n) in fabric.nodes().iter().enumerate() {
        let o = n.occupancy();
        t.row(vec![
            i.to_string(),
            o.messages.to_string(),
            us(o.busy_ns),
            us(o.waited_ns),
            us(o.max_wait_ns),
            us(o.mean_wait_ns()),
        ]);
    }
    report.add(t);

    if args.verbose() {
        println!(
            "\n{:.1}% of {} round trips attributed to named spans; \
             attribution reconciles with the flat counters field-for-field.",
            ratio * 100.0,
            rep.total.round_trips
        );
    }

    report.save();

    let chrome = tracer.chrome_trace();
    let doc = Json::parse(&chrome).expect("chrome trace must be valid JSON");
    assert!(
        doc.get("traceEvents").and_then(Json::as_arr).is_some_and(|ev| !ev.is_empty()),
        "chrome trace carries no traceEvents"
    );
    std::fs::write("results/e13_trace.perfetto.json", &chrome)
        .expect("write results/e13_trace.perfetto.json");
    eprintln!("wrote results/e13_trace.perfetto.json (load at https://ui.perfetto.dev)");
    std::fs::write("results/e13_trace.jsonl", tracer.jsonl())
        .expect("write results/e13_trace.jsonl");
    eprintln!("wrote results/e13_trace.jsonl");
}
