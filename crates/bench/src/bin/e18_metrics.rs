//! E18 — live metrics, SLO alarms and the flight recorder under chaos.
//!
//! PR 2's tracing explains a finished run; `farmem-metrics` watches the
//! system while it runs. This driver proves the three claims that make
//! live observability trustworthy (DESIGN.md §11):
//!
//! * **A. Sampling is exact.** Under a seeded chaos + failover workload
//!   (2% transient faults, K=1 mirrored node, a permanent primary
//!   crash-stop mid-run), the sampled ring series reconciles
//!   field-for-field with the final `AccessStats` —
//!   `evicted + Σ ring deltas + residual == final.since(base)` for all
//!   23 counters, the same discipline as `TraceReport::reconcile`.
//! * **B. Detection is prompt.** The failover SLO rule fires at the
//!   *first* sample emitted after `crash_permanent` — within one
//!   sampling interval of the crash in sample terms, and within one
//!   failover lease + a few RTs in virtual time (the lease elapses
//!   inside the first post-crash verb, so the sample that completes it
//!   carries the failover delta).
//! * **C. Postmortems replay.** The flight-recorder bundle the firing
//!   rule dumped is self-contained: parsing its sample lines back and
//!   feeding them through a fresh `SloEngine` with the same rules
//!   reproduces exactly the recorded alarms.
//!
//! A reclaim-churn phase drives the limbo-bytes rule (alarm on growth,
//! recovery after reclamation), and the Prometheus exposition is checked
//! to list every `AccessStats` field. Output: tables on stdout,
//! `results/e18_metrics.json`, and the end-of-run flight bundle in
//! `results/e18_flight.jsonl` (gitignored, uploaded as a CI artifact).
//!
//! Run: `cargo run --release -p farmem-bench --bin e18_metrics`

use std::collections::BTreeMap;
use std::sync::Arc;

use farmem_alloc::FarAlloc;
use farmem_bench::{BenchArgs, Json, Table};
use farmem_core::{FarBlobMap, FarQueue, HtTree, HtTreeConfig, QueueConfig};
use farmem_fabric::{
    AccessStats, CostModel, FabricConfig, FaultPlan, NodeId, ReplicaConfig, TraceConfig,
    FAILOVER_LEASE_NS,
};
use farmem_metrics::{
    severity_from_name, AlarmSpec, MetricsConfig, MetricsHub, NodeSample, Sample, Scope,
    Severity, Signal, SloEngine, SloRule,
};
use farmem_reclaim::ReclaimRegistry;

/// Sampling interval for both phases: 50 virtual µs.
const INTERVAL_NS: u64 = 50_000;

fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1_000.0)
}

fn hub_cfg() -> MetricsConfig {
    MetricsConfig {
        interval_ns: INTERVAL_NS,
        // Generous ring: nothing evicts, so bundle replay sees the whole
        // history. (Phase A's eviction behaviour is covered by unit and
        // property tests.)
        ring_capacity: 1 << 14,
        flight_trace_events: 64,
    }
}

/// Phase A rules: failover detection, latency burn, retry burn, node
/// saturation. Shared verbatim by the live run and bundle replay.
fn chaos_rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "failover",
            signal: Signal::FailoversDelta,
            spec: AlarmSpec { warning: 1, critical: 2, failure: 3, duration: 1 },
            window: 4,
        },
        SloRule {
            name: "verb-p99",
            signal: Signal::VerbP99Ns,
            spec: AlarmSpec {
                warning: 1_000_000,      // 1 ms: pathological for a 2 µs RTT
                critical: 10_000_000,    // 10 ms
                failure: 50_000_000,     // 50 ms: only a failover lease does this
                duration: 1,
            },
            window: 4,
        },
        SloRule {
            name: "retry-rate",
            signal: Signal::RetriesPerKVerb,
            spec: AlarmSpec { warning: 100, critical: 400, failure: 900, duration: 2 },
            window: 8,
        },
        SloRule {
            name: "node-busy",
            signal: Signal::NodeBusyPermille,
            spec: AlarmSpec { warning: 900, critical: 2000, failure: 5000, duration: 3 },
            window: 8,
        },
    ]
}

/// Phase B rule: reclamation limbo footprint.
fn limbo_rules() -> Vec<SloRule> {
    vec![SloRule {
        name: "limbo-bytes",
        signal: Signal::LimboBytes,
        spec: AlarmSpec { warning: 4 << 10, critical: 1 << 20, failure: 1 << 30, duration: 1 },
        window: 4,
    }]
}

struct ChaosOutcome {
    hub: Arc<MetricsHub>,
    stats: AccessStats,
    crash_ns: u64,
    pre_crash_seq: u64,
}

/// Phase A: HtTree + FarQueue traffic with 2% transient faults on a
/// K=1-mirrored node, crash-stopping the primary permanently mid-run.
fn chaos_failover(n: u64, seed: u64) -> ChaosOutcome {
    let fabric = FabricConfig {
        faults: FaultPlan::transient(20_000).with_seed(seed),
        replication: ReplicaConfig::mirrored(1),
        ..FabricConfig::single_node(256 << 20)
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c = fabric.client();
    let hub = MetricsHub::new(fabric.clone(), hub_cfg(), chaos_rules());
    hub.attach(&mut c);
    let tracer = c.enable_tracing(TraceConfig::default());
    hub.register_tracer(c.id(), tracer);

    let cfg = HtTreeConfig { initial_buckets: 16, ..Default::default() };
    let mut map = {
        let _span = c.span("e18.setup");
        let t = HtTree::create(&mut c, &alloc, cfg).unwrap();
        t.attach(&mut c, &alloc, cfg).unwrap()
    };
    let q = FarQueue::create(&mut c, &alloc, QueueConfig::new(2 * n, 4)).unwrap();
    let mut qh = FarQueue::attach(&mut c, q.hdr()).unwrap();
    let scratch = alloc.alloc(64, farmem_alloc::AllocHint::Spread).unwrap();

    {
        let _span = c.span("e18.before_crash");
        for i in 0..n {
            map.put(&mut c, i, i + 1).unwrap();
            if i % 3 == 0 {
                qh.enqueue(&mut c, i).unwrap();
            }
            if i % 16 == 0 {
                // A pipelined burst, so `pipelined_ops`/`doorbells` flow
                // through the rings too.
                let mut p = c.pipeline();
                for j in 0..4u64 {
                    p.write_u64(scratch.offset(j * 8), i + j);
                }
                p.commit().status().unwrap();
            }
        }
    }

    // The sampler must have emitted several pre-crash samples by now.
    let pre = hub.samples(c.id());
    assert!(pre.len() >= 3, "pre-crash phase emitted {} samples", pre.len());
    let pre_crash_seq = pre.last().unwrap().seq;
    let crash_ns = c.now_ns();
    fabric.node(fabric.group_view(NodeId(0)).primary).crash_permanent();

    {
        let _span = c.span("e18.after_failover");
        for i in 0..n {
            assert_eq!(map.get(&mut c, i).unwrap(), Some(i + 1), "key {i} lost in failover");
        }
        let mut drained = 0u64;
        while qh.dequeue(&mut c).is_ok() {
            drained += 1;
        }
        assert_eq!(drained, n.div_ceil(3), "queue drains exactly-once across the failover");
    }

    let stats = c.stats();
    assert_eq!(stats.failovers, 1, "exactly one promotion");
    assert_eq!(stats.giveups, 0, "no verb abandoned");
    ChaosOutcome { hub, stats, crash_ns, pre_crash_seq }
}

struct LimboOutcome {
    hub: Arc<MetricsHub>,
    finals: Vec<(u32, AccessStats)>,
    peak_limbo: u64,
    final_limbo: u64,
}

/// Phase B: two clients churn a reclaimed blob map; limbo grows while no
/// grace rounds run, then drains once they do.
fn limbo_churn(overwrites: u64, seed: u64) -> LimboOutcome {
    let fabric = FabricConfig {
        cost: CostModel::DEFAULT,
        ..FabricConfig::single_node(256 << 20)
    }
    .build();
    let alloc = FarAlloc::new(fabric.clone());
    let mut c0 = fabric.client();
    let mut c1 = fabric.client();
    let hub = MetricsHub::new(fabric.clone(), hub_cfg(), limbo_rules());
    hub.attach(&mut c0);
    hub.attach(&mut c1);

    let tree_cfg = HtTreeConfig { initial_buckets: 16, ..Default::default() };
    let reg = ReclaimRegistry::create(&mut c0, &alloc, 8).unwrap();
    let s0 = reg.attach(&mut c0, &alloc).unwrap();
    let s1 = reg.attach(&mut c1, &alloc).unwrap();
    let mut m0 = FarBlobMap::create_reclaimed(&mut c0, &alloc, tree_cfg, s0.clone()).unwrap();
    let tree = m0.tree();
    let mut m1 =
        FarBlobMap::attach_reclaimed(&mut c1, &alloc, tree, tree_cfg, s1.clone()).unwrap();

    // Overwrites retire the superseded records into limbo; no grace
    // rounds run yet, so the footprint climbs past the warning line.
    for i in 0..overwrites {
        let len = 64 + ((seed ^ i).wrapping_mul(0x9e37_79b9) % 128) as usize;
        m0.put_bytes(&mut c0, i % 24, &vec![i as u8; len]).unwrap();
        m1.put_bytes(&mut c1, 1000 + i % 24, &vec![!(i as u8); len]).unwrap();
    }
    let peak_limbo = [&c0, &c1]
        .iter()
        .map(|c| c.stats().retired_bytes - c.stats().reclaimed_bytes)
        .sum();

    // Drain: both clients run grace rounds until limbo stops shrinking.
    for _ in 0..64 {
        let a = s0.lock().unwrap().reclaim(&mut c0).unwrap();
        let b = s1.lock().unwrap().reclaim(&mut c1).unwrap();
        if a == 0 && b == 0 {
            break;
        }
    }
    let final_limbo = [&c0, &c1]
        .iter()
        .map(|c| c.stats().retired_bytes - c.stats().reclaimed_bytes)
        .sum();
    let finals = vec![(c0.id(), c0.stats()), (c1.id(), c1.stats())];
    LimboOutcome { hub, finals, peak_limbo, final_limbo }
}

/// Parses an `AccessStats` JSON object (field names from `FIELD_NAMES`).
fn stats_from_json(j: &Json) -> AccessStats {
    let mut arr = [0u64; AccessStats::COUNT];
    for (i, name) in AccessStats::FIELD_NAMES.iter().enumerate() {
        arr[i] = j.get(name).and_then(|v| v.as_u64()).unwrap_or_else(|| {
            panic!("bundle sample is missing stats field `{name}`")
        });
    }
    AccessStats::from_array(arr)
}

fn field_u64(j: &Json, key: &str) -> u64 {
    j.get(key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("bundle line is missing `{key}`: {j:?}"))
}

/// Canonical alarm key for set comparison between a recorded bundle and
/// its replay.
fn alarm_key(
    rule: &str,
    scope: Scope,
    severity: Severity,
    window_seq: u64,
    count: u64,
    value: u64,
) -> String {
    format!(
        "{rule}|{}|{}|{}|{window_seq}|{count}|{value}",
        scope.kind(),
        scope.index(),
        farmem_metrics::severity_name(severity),
    )
}

/// Replays a flight bundle: reconstructs the recorded sample streams,
/// feeds them through a fresh engine with `rules`, and returns
/// (recorded alarm keys, replayed alarm keys), both sorted.
fn replay_bundle(jsonl: &str, rules: Vec<SloRule>) -> (Vec<String>, Vec<String>) {
    let mut recorded = Vec::new();
    let mut client_samples: BTreeMap<u32, Vec<Sample>> = BTreeMap::new();
    let mut node_samples: BTreeMap<u32, Vec<NodeSample>> = BTreeMap::new();
    for line in jsonl.lines() {
        let j = Json::parse(line).expect("bundle line parses as JSON");
        match j.get("kind").and_then(|k| k.as_str()).expect("line has a kind") {
            "alarm" => {
                let scope = match j.get("scope_kind").and_then(|s| s.as_str()).unwrap() {
                    "client" => Scope::Client(field_u64(&j, "scope_index") as u32),
                    _ => Scope::Node(field_u64(&j, "scope_index") as u32),
                };
                let severity = severity_from_name(
                    j.get("severity").and_then(|s| s.as_str()).unwrap(),
                )
                .expect("known severity");
                recorded.push(alarm_key(
                    j.get("rule").and_then(|r| r.as_str()).unwrap(),
                    scope,
                    severity,
                    field_u64(&j, "window_seq"),
                    field_u64(&j, "count"),
                    field_u64(&j, "value"),
                ));
            }
            "sample" => {
                client_samples
                    .entry(field_u64(&j, "client") as u32)
                    .or_default()
                    .push(Sample {
                        seq: field_u64(&j, "seq"),
                        t_ns: field_u64(&j, "t_ns"),
                        wall_ns: field_u64(&j, "wall_ns"),
                        verbs: field_u64(&j, "verbs"),
                        p50_verb_ns: field_u64(&j, "p50_verb_ns"),
                        p99_verb_ns: field_u64(&j, "p99_verb_ns"),
                        max_verb_ns: field_u64(&j, "max_verb_ns"),
                        delta: stats_from_json(j.get("delta").unwrap()),
                        total: stats_from_json(j.get("total").unwrap()),
                    });
            }
            "node_sample" => {
                node_samples.entry(field_u64(&j, "node") as u32).or_default().push(
                    NodeSample {
                        seq: field_u64(&j, "seq"),
                        t_ns: field_u64(&j, "t_ns"),
                        wall_ns: field_u64(&j, "wall_ns"),
                        messages: field_u64(&j, "messages"),
                        busy_ns: field_u64(&j, "busy_ns"),
                        waited_ns: field_u64(&j, "waited_ns"),
                        max_wait_ns: field_u64(&j, "max_wait_ns"),
                        busy_permille: field_u64(&j, "busy_permille"),
                    },
                );
            }
            _ => {}
        }
    }
    // Engine state is per (rule, scope): each scope's samples replay in
    // sequence order and cross-scope interleaving cannot matter.
    let mut engine = SloEngine::new(rules);
    let mut replayed = Vec::new();
    for (client, mut samples) in client_samples {
        samples.sort_by_key(|s| s.seq);
        for s in samples {
            for a in engine.ingest_client(client, &s) {
                replayed.push(alarm_key(
                    a.rule,
                    a.scope,
                    a.alarm.severity,
                    a.alarm.window_seq,
                    a.alarm.count,
                    a.value,
                ));
            }
        }
    }
    for (node, mut samples) in node_samples {
        samples.sort_by_key(|s| s.seq);
        for s in samples {
            for a in engine.ingest_node(node, &s) {
                replayed.push(alarm_key(
                    a.rule,
                    a.scope,
                    a.alarm.severity,
                    a.alarm.window_seq,
                    a.alarm.count,
                    a.value,
                ));
            }
        }
    }
    recorded.sort();
    replayed.sort();
    (recorded, replayed)
}

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e18_metrics");

    // ---- Phase A: chaos + failover, exact reconciliation ---------------
    let n = 600;
    let run = chaos_failover(n, args.seed_or(18));
    let client = 0u32;
    run.hub
        .reconcile(client, &run.stats)
        .unwrap_or_else(|e| panic!("series does not reconcile: {e}"));
    let samples = run.hub.samples(client);
    let (evicted, evicted_n) = run.hub.evicted(client);
    assert_eq!(evicted_n, 0, "phase A ring is sized to keep everything");
    assert_eq!(evicted, AccessStats::new());

    let mut series_sum = AccessStats::new();
    for s in &samples {
        series_sum.merge(&s.delta);
    }
    let mut ta = Table::new(
        "E18: sampled series vs final counters (chaos + failover, 2% faults, K=1)",
        &["metric", "series", "final", "exact"],
    );
    for (name, show) in [
        ("round_trips", true),
        ("messages", true),
        ("retries", true),
        ("failovers", true),
        ("fence_refreshes", true),
        ("replica_messages", true),
        ("pipelined_ops", true),
    ] {
        if !show {
            continue;
        }
        let i = AccessStats::FIELD_NAMES.iter().position(|f| *f == name).unwrap();
        // Residual beyond the last boundary is part of the reconciliation
        // equation, so "series" here is ring + residual.
        let residual = run.stats.since(&samples.last().unwrap().total).to_array()[i];
        let series = series_sum.to_array()[i] + residual;
        let fin = run.stats.to_array()[i];
        assert_eq!(series, fin, "field {name}");
        ta.row(vec![name.into(), series.to_string(), fin.to_string(), "yes".into()]);
    }
    report.add(ta);

    // ---- Phase B (of A): failover SLO fires within one sample ----------
    let alarms = run.hub.alarms();
    let failover_alarm = alarms
        .iter()
        .find(|a| a.rule == "failover")
        .expect("failover rule fired");
    let first_post_crash = samples
        .iter()
        .find(|s| s.t_ns > run.crash_ns)
        .expect("a sample was emitted after the crash");
    assert_eq!(
        failover_alarm.alarm.window_seq, first_post_crash.seq,
        "failover alarm fires at the first post-crash sample"
    );
    assert_eq!(
        first_post_crash.seq,
        run.pre_crash_seq + 1,
        "no sample sits between the crash and the alarm"
    );
    assert_eq!(failover_alarm.scope, Scope::Client(client));
    assert_eq!(first_post_crash.delta.failovers, 1, "the sample carries the promotion");
    let lease = FAILOVER_LEASE_NS;
    let rtt = CostModel::DEFAULT.far_rtt_ns;
    let detect_ns = first_post_crash.t_ns - run.crash_ns;
    assert!(
        detect_ns <= lease + 50 * rtt + INTERVAL_NS,
        "detection {detect_ns}ns exceeds one lease + slack"
    );
    // The 100ms lease inside one verb also burns the p99 budget.
    let p99_failure = alarms
        .iter()
        .find(|a| a.rule == "verb-p99" && a.alarm.severity == Severity::Failure)
        .expect("verb-p99 failure fired on the failover sample");
    assert_eq!(p99_failure.alarm.window_seq, first_post_crash.seq);

    let mut tb = Table::new(
        "E18b: SLO alarms fired (chaos + failover phase)",
        &["rule", "scope", "severity", "sample seq", "value", "breaches"],
    );
    for a in &alarms {
        tb.row(vec![
            a.rule.into(),
            format!("{} {}", a.scope.kind(), a.scope.index()),
            farmem_metrics::severity_name(a.alarm.severity).into(),
            a.alarm.window_seq.to_string(),
            a.value.to_string(),
            a.alarm.count.to_string(),
        ]);
    }
    report.add(tb);

    let mut tc = Table::new(
        "E18c: failover detection latency",
        &[
            "crash at µs", "last pre-crash seq", "alarm seq", "samples between",
            "detect µs", "lease µs",
        ],
    );
    tc.row(vec![
        us(run.crash_ns),
        run.pre_crash_seq.to_string(),
        failover_alarm.alarm.window_seq.to_string(),
        "0".into(),
        us(detect_ns),
        us(lease),
    ]);
    report.add(tc);

    // ---- Phase C (of A): node rings see primary AND replica ------------
    assert_eq!(run.hub.node_count(), 2, "one primary + one mirror");
    for node in 0..2 {
        let ns = run.hub.node_samples(node);
        assert!(!ns.is_empty(), "node {node} was sampled");
        let messages: u64 = ns.iter().map(|s| s.messages).sum();
        assert!(messages > 0, "node {node} saw traffic (mirrors reach the replica)");
    }

    // ---- Phase D: flight-recorder bundle replays to the same verdicts --
    assert!(
        !run.hub.bundles().is_empty(),
        "each fired alarm dumped a flight bundle"
    );
    assert!(run.hub.bundles()[0].jsonl.contains("\"kind\":\"trace\""),
        "alarm bundles carry the trace tail");
    let bundle = run.hub.dump_flight("end-of-run");
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/e18_flight.jsonl", &bundle.jsonl)
        .expect("write results/e18_flight.jsonl");
    let (recorded, replayed) = replay_bundle(&bundle.jsonl, chaos_rules());
    assert!(!recorded.is_empty());
    assert_eq!(recorded, replayed, "bundle replay must reproduce the recorded verdicts");

    let mut td = Table::new(
        "E18d: flight-recorder bundle replay",
        &["bundle lines", "samples", "node samples", "recorded alarms", "replayed", "verdicts match"],
    );
    let count_kind = |kind: &str| {
        bundle.lines().filter(|l| l.contains(&format!("\"kind\":\"{kind}\""))).count()
    };
    td.row(vec![
        bundle.lines().count().to_string(),
        count_kind("sample").to_string(),
        count_kind("node_sample").to_string(),
        recorded.len().to_string(),
        replayed.len().to_string(),
        "yes".into(),
    ]);
    report.add(td);

    // ---- Phase E: reclaim limbo rule -----------------------------------
    let limbo = limbo_churn(240, args.seed_or(18) ^ 0xb10b);
    for (id, stats) in &limbo.finals {
        limbo
            .hub
            .reconcile(*id, stats)
            .unwrap_or_else(|e| panic!("client {id} limbo series does not reconcile: {e}"));
    }
    let limbo_alarms = limbo.hub.alarms();
    assert!(
        limbo_alarms.iter().any(|a| a.rule == "limbo-bytes"),
        "limbo growth past 4 KiB must fire the limbo rule"
    );
    assert!(limbo.peak_limbo > 4 << 10, "churn accumulated a real limbo");
    assert!(
        limbo.final_limbo < limbo.peak_limbo,
        "grace rounds shrank the footprint ({} -> {})",
        limbo.peak_limbo,
        limbo.final_limbo
    );
    let mut te = Table::new(
        "E18e: reclaim limbo watched live (2 clients, blob-map churn)",
        &["clients", "peak limbo B", "final limbo B", "limbo alarms", "reconciled"],
    );
    te.row(vec![
        limbo.finals.len().to_string(),
        limbo.peak_limbo.to_string(),
        limbo.final_limbo.to_string(),
        limbo_alarms.len().to_string(),
        "yes".into(),
    ]);
    report.add(te);

    // ---- Phase F: Prometheus exposition --------------------------------
    let prom = run.hub.prometheus();
    let mut missing = 0;
    for name in AccessStats::FIELD_NAMES {
        if !prom.contains(&format!("# TYPE farmem_{name}_total counter")) {
            missing += 1;
        }
    }
    assert_eq!(missing, 0, "every AccessStats field is exposed");
    assert!(prom.contains("farmem_slo_alarms_total{rule=\"failover\",severity=\"warning\"} 1"));
    assert!(prom.contains("farmem_node_messages_total{node=\"1\"}"));

    // ---- Summary (every cell was asserted above) ----------------------
    let mut ts = Table::new(
        "E18: summary — exact live series, prompt SLOs, replayable postmortems",
        &[
            "samples", "reconciled", "failover alarm", "within 1 sample", "detect µs",
            "bundle replay", "limbo alarm", "prom fields",
        ],
    );
    ts.row(vec![
        samples.len().to_string(),
        "yes".into(),
        "yes".into(),
        "yes".into(),
        us(detect_ns),
        "yes".into(),
        "yes".into(),
        format!("{}/{}", AccessStats::COUNT - missing, AccessStats::COUNT),
    ]);
    report.add(ts);

    if args.verbose() {
        println!(
            "\nShape check: the sampler sits behind one branch in the verb wrapper, so\n\
             the observed run is byte-identical to an unobserved one, yet its rings\n\
             reconcile to the final counters with zero slack. The failover lease\n\
             elapses inside the first post-crash verb, so the sample completing it\n\
             already carries the failover delta — detection is one sample, ≈ one\n\
             lease ({} µs here) of virtual time. The dumped bundle replays to the\n\
             same {} verdicts through a fresh engine.",
            us(detect_ns),
            recorded.len(),
        );
    }
    report.save();
}
