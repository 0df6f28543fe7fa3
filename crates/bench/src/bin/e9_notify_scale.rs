//! E9 — §7.2: notification scalability.
//!
//! Claims to reproduce:
//! * **subscribers** scale through a software layer / broker tier: a few
//!   hardware subscribers route to many software subscribers;
//! * **subscriptions** scale by coarsening the spatial granularity —
//!   fewer hardware subscriptions at the price of false positives, which
//!   either the subscriber checks or trigger information resolves;
//! * **network traffic** is bounded by temporal coalescing and, under
//!   spikes, by dropping with an explicit loss warning.
//!
//! Run: `cargo run --release -p farmem-bench --bin e9_notify_scale`

use farmem_bench::{BenchArgs, Table};
use farmem_fabric::{
    Broker, CostModel, DeliveryPolicy, EventSink, FabricConfig, FarAddr, PAGE, WORD,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(11);
    let mut report = args.report("e9_notify_scale");
    // E9a: coarsening — hardware subscriptions vs false positives.
    let mut t = Table::new(
        "E9a: range coarsening — hardware subscriptions vs false positives (10k soft subs)",
        &[
            "config", "hw subs", "writes", "routed", "filtered FP", "unverified",
        ],
    );
    for &(coarsen, carry) in &[(false, true), (true, true), (true, false)] {
        let f = FabricConfig {
            cost: CostModel::COUNT_ONLY,
            carry_trigger: carry,
            ..FabricConfig::single_node(256 << 20)
        }
        .build();
        let mut writer = f.client();
        let mut broker = Broker::new(f.client(), coarsen);
        // 10k software subscriptions: 8 per page over 1250 pages, each
        // watching one word.
        let soft = 10_000u64;
        let mut sinks = Vec::new();
        for i in 0..soft {
            let page = i / 8;
            let slot = i % 8;
            let addr = FarAddr(PAGE).offset(page * PAGE + slot * 64 * WORD);
            let sink = broker.make_subscriber_sink(i);
            broker.subscribe(addr, WORD, sink.clone()).unwrap();
            sinks.push(sink);
        }
        // Uniform writes across the watched pages: 1/8 of them hit a
        // watched word (the others are false-positive bait).
        let mut rng = StdRng::seed_from_u64(seed);
        let writes = 20_000;
        for _ in 0..writes {
            let page = rng.gen_range(0..soft / 8);
            let slot = rng.gen_range(0..512);
            writer.write_u64(FarAddr(PAGE).offset(page * PAGE + slot * WORD), 1).unwrap();
            broker.pump();
        }
        let st = broker.stats();
        t.row(vec![
            format!(
                "{}{}",
                if coarsen { "coarsened" } else { "exact" },
                if carry { " + trigger info" } else { ", no trigger info" }
            ),
            broker.hw_subscriptions().to_string(),
            writes.to_string(),
            st.routed.to_string(),
            st.filtered_false_positives.to_string(),
            st.unverified_deliveries.to_string(),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Coarsening cuts hardware subscriptions 8×. With trigger information the\n\
             software layer filters the false positives exactly (§7.2's alternative);\n\
             without it, subscribers receive them and must check their own data."
        );
    }

    // E9b: temporal coalescing and spike drops.
    let mut t = Table::new(
        "E9b: a 100k-write burst against one subscription, by delivery policy",
        &["policy", "events delivered", "coalesced", "spike-dropped", "loss warnings seen"],
    );
    for &(name, policy) in &[
        ("reliable, no coalescing", DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 1 << 20 }),
        ("coalescing", DeliveryPolicy::COALESCING),
        ("bounded queue (1024)", DeliveryPolicy { drop_ppm: 0, coalesce: false, max_queue: 1024 }),
    ] {
        let f = FabricConfig {
            cost: CostModel::COUNT_ONLY,
            delivery: policy,
            ..FabricConfig::single_node(16 << 20)
        }
        .build();
        let mut writer = f.client();
        let mut watcher = f.client();
        watcher.notify0(FarAddr(4096), WORD).unwrap();
        for i in 0..100_000u64 {
            writer.write_u64(FarAddr(4096), i).unwrap();
        }
        let events = watcher.recv_events();
        let lost = events
            .iter()
            .filter_map(|e| match e {
                farmem_fabric::Event::Lost { count } => Some(*count),
                _ => None,
            })
            .sum::<u64>();
        let sink_stats = watcher.sink().stats();
        t.row(vec![
            name.into(),
            (events.len() as u64 - u64::from(lost > 0)).to_string(),
            sink_stats.coalesced.to_string(),
            lost.to_string(),
            u64::from(lost > 0).to_string(),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "Coalescing collapses the burst into one pending event; a bounded queue\n\
             drops the excess but replaces it with a Lost warning the data structure\n\
             acts on (the refreshable vector and the monitor both fall back to polls)."
        );
    }

    // E9c: broker fan-out to many subscribers.
    let mut t = Table::new(
        "E9c: broker tier fan-out (one hardware subscriber, s software subscribers)",
        &["software subscribers", "hw events", "deliveries", "amplification"],
    );
    for &s in &[10u64, 100, 1000] {
        let f = FabricConfig {
            cost: CostModel::COUNT_ONLY,
            ..FabricConfig::single_node(16 << 20)
        }
        .build();
        let mut writer = f.client();
        let mut broker = Broker::new(f.client(), true);
        let sinks: Vec<std::sync::Arc<EventSink>> = (0..s)
            .map(|i| {
                let sink = broker.make_subscriber_sink(i);
                broker.subscribe(FarAddr(PAGE), PAGE, sink.clone()).unwrap();
                sink
            })
            .collect();
        for i in 0..100u64 {
            writer.write_u64(FarAddr(PAGE).offset((i % 512) * 8), i).unwrap();
            broker.pump();
        }
        let delivered: u64 = sinks.iter().map(|x| x.stats().delivered).sum();
        t.row(vec![
            s.to_string(),
            broker.stats().hw_events.to_string(),
            delivered.to_string(),
            format!("×{}", delivered / broker.stats().hw_events.max(1)),
        ]);
    }
    report.add(t);
    if args.verbose() {
        println!(
            "The hardware sees ONE subscriber regardless of s; the software broker\n\
             multiplies deliveries off the fabric's critical path (§7.2's pub-sub tier)."
        );
    }
    report.save();
}
