//! A flight-recorder bundle must be a *self-contained* postmortem: the
//! JSONL alone — parsed back with the crate's own `Json` parser, with no
//! access to the live `MetricsHub` — must let a fresh `SloEngine` with
//! the same rules reproduce exactly the alarms that fired live. This is
//! the integration seam the `e18_metrics` driver asserts at scale; here
//! it is pinned as a test so a schema drift in either the bundle writer
//! or the parser fails CI directly. A bundle also stays one JSON object
//! per line whatever a caller's reason or a rule's name holds.

use farmem_bench::Json;
use farmem_fabric::{CostModel, FabricConfig, FarAddr, FaultPlan};
use farmem_metrics::{
    severity_from_name, AlarmSpec, MetricsConfig, MetricsHub, NodeSample, Sample, Scope,
    SloEngine, SloRule, Signal,
};

fn rules() -> Vec<SloRule> {
    vec![
        SloRule {
            name: "rt-rate",
            signal: Signal::RoundTripsPerMs,
            spec: AlarmSpec { warning: 1, critical: 40, failure: 100_000, duration: 1 },
            window: 4,
        },
        SloRule {
            name: "node-busy",
            signal: Signal::NodeBusyPermille,
            spec: AlarmSpec { warning: 1, critical: 900, failure: 5000, duration: 2 },
            window: 8,
        },
    ]
}

fn u(j: &Json, k: &str) -> u64 {
    j.get(k).and_then(|v| v.as_u64()).unwrap_or_else(|| panic!("missing `{k}`"))
}

/// (rule, scope kind, scope index, severity, window_seq, count, value)
fn key(j_rule: &str, scope: Scope, sev: &str, seq: u64, count: u64, value: u64) -> String {
    format!("{j_rule}|{}|{}|{sev}|{seq}|{count}|{value}", scope.kind(), scope.index())
}

#[test]
fn bundle_replays_to_the_recorded_alarms_through_the_public_schema() {
    // A workload noisy enough that both client- and node-scoped rules
    // fire: transient faults force retries, and every sampled interval
    // with traffic breaches the warning thresholds above.
    let fabric = FabricConfig {
        cost: CostModel::DEFAULT,
        faults: FaultPlan::transient(20_000).with_seed(7),
        ..FabricConfig::single_node(1 << 20)
    }
    .build();
    // The ring must cover the whole run for replay to be *exact*: a
    // truncated ring replays only the windowed suffix (the engine's
    // latch state at ring-start is unknowable from the bundle alone).
    let hub = MetricsHub::new(
        fabric.clone(),
        MetricsConfig { interval_ns: 10_000, ring_capacity: 1024, flight_trace_events: 8 },
        rules(),
    );
    let mut c = fabric.client();
    hub.attach(&mut c);
    for i in 0..800u64 {
        c.write_u64(FarAddr(64 + (i % 32) * 8), i).unwrap();
        if i % 3 == 0 {
            c.read_u64(FarAddr(64 + (i % 32) * 8)).unwrap();
        }
    }
    let live: Vec<String> = hub
        .alarms()
        .iter()
        .map(|a| {
            key(
                a.rule,
                a.scope,
                farmem_metrics::severity_name(a.alarm.severity),
                a.alarm.window_seq,
                a.alarm.count,
                a.value,
            )
        })
        .collect();
    assert!(!live.is_empty(), "the workload must trip the rules");

    // Round-trip purely through the serialized bundle.
    let bundle = hub.dump_flight("test");
    drop(hub);
    drop(fabric);

    let mut recorded = Vec::new();
    let mut samples: Vec<(u32, Sample)> = Vec::new();
    let mut node_samples: Vec<(u32, NodeSample)> = Vec::new();
    for line in bundle.jsonl.lines() {
        let j = Json::parse(line).expect("every bundle line is valid JSON");
        match j.get("kind").and_then(|k| k.as_str()).expect("kind") {
            "alarm" => {
                let scope = match j.get("scope_kind").and_then(|s| s.as_str()).unwrap() {
                    "client" => Scope::Client(u(&j, "scope_index") as u32),
                    _ => Scope::Node(u(&j, "scope_index") as u32),
                };
                let sev = j.get("severity").and_then(|s| s.as_str()).unwrap();
                assert!(severity_from_name(sev).is_some(), "severity {sev:?} is known");
                recorded.push(key(
                    j.get("rule").and_then(|r| r.as_str()).unwrap(),
                    scope,
                    sev,
                    u(&j, "window_seq"),
                    u(&j, "count"),
                    u(&j, "value"),
                ));
            }
            "sample" => samples.push((
                u(&j, "client") as u32,
                Sample {
                    seq: u(&j, "seq"),
                    t_ns: u(&j, "t_ns"),
                    wall_ns: u(&j, "wall_ns"),
                    verbs: u(&j, "verbs"),
                    p50_verb_ns: u(&j, "p50_verb_ns"),
                    p99_verb_ns: u(&j, "p99_verb_ns"),
                    max_verb_ns: u(&j, "max_verb_ns"),
                    delta: j.get("delta").unwrap().access_stats().unwrap(),
                    total: j.get("total").unwrap().access_stats().unwrap(),
                },
            )),
            "node_sample" => node_samples.push((
                u(&j, "node") as u32,
                NodeSample {
                    seq: u(&j, "seq"),
                    t_ns: u(&j, "t_ns"),
                    wall_ns: u(&j, "wall_ns"),
                    messages: u(&j, "messages"),
                    busy_ns: u(&j, "busy_ns"),
                    waited_ns: u(&j, "waited_ns"),
                    max_wait_ns: u(&j, "max_wait_ns"),
                    busy_permille: u(&j, "busy_permille"),
                },
            )),
            _ => {}
        }
    }
    // The bundle recorded the same alarms the hub reported live.
    let mut live_sorted = live.clone();
    live_sorted.sort();
    let mut recorded_sorted = recorded.clone();
    recorded_sorted.sort();
    assert_eq!(recorded_sorted, live_sorted, "bundle alarm lines == live alarms");

    // Replay: engine state is per (rule, scope), so per-scope seq order
    // is the only ordering that matters.
    let mut engine = SloEngine::new(rules());
    let mut replayed = Vec::new();
    samples.sort_by_key(|(c, s)| (*c, s.seq));
    for (client, s) in &samples {
        for a in engine.ingest_client(*client, s) {
            replayed.push(key(
                a.rule,
                a.scope,
                farmem_metrics::severity_name(a.alarm.severity),
                a.alarm.window_seq,
                a.alarm.count,
                a.value,
            ));
        }
    }
    node_samples.sort_by_key(|(n, s)| (*n, s.seq));
    for (node, s) in &node_samples {
        for a in engine.ingest_node(*node, s) {
            replayed.push(key(
                a.rule,
                a.scope,
                farmem_metrics::severity_name(a.alarm.severity),
                a.alarm.window_seq,
                a.alarm.count,
                a.value,
            ));
        }
    }
    replayed.sort();
    assert_eq!(replayed, live_sorted, "replay through the schema == live verdicts");
}

/// A caller's reason and a rule's name are written as JSON strings: a
/// newline, quote, backslash or control character in them still leaves
/// one JSON object per line, and both read back verbatim.
#[test]
fn bundle_stays_one_json_object_per_line_whatever_the_names_hold() {
    let fabric =
        FabricConfig { cost: CostModel::DEFAULT, ..FabricConfig::single_node(1 << 20) }.build();
    let rule = SloRule {
        name: "rt \"rate\"",
        signal: Signal::RoundTripsPerMs,
        spec: AlarmSpec { warning: 1, critical: 40, failure: 100_000, duration: 1 },
        window: 4,
    };
    let hub = MetricsHub::new(
        fabric.clone(),
        MetricsConfig { interval_ns: 10_000, ring_capacity: 64, flight_trace_events: 0 },
        vec![rule],
    );
    let mut c = fabric.client();
    hub.attach(&mut c);
    for i in 0..200u64 {
        c.write_u64(FarAddr(64 + (i % 32) * 8), i).unwrap();
    }
    assert!(!hub.alarms().is_empty(), "the rule must fire for its name to reach the bundle");

    let reason = "first line\nsecond \"quoted\" \\ \u{1}";
    let bundle = hub.dump_flight(reason);
    let lines: Vec<Json> = bundle
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("bundle line {l:?} is not JSON: {e}")))
        .collect();
    let of_kind = |kind: &str| -> Vec<&Json> {
        lines.iter().filter(|j| j.get("kind").and_then(Json::as_str) == Some(kind)).collect()
    };
    let meta = of_kind("meta");
    assert_eq!(meta.len(), 1);
    assert_eq!(meta[0].get("reason").and_then(Json::as_str), Some(reason));
    let alarms = of_kind("alarm");
    assert!(!alarms.is_empty());
    for a in alarms {
        assert_eq!(a.get("rule").and_then(Json::as_str), Some("rt \"rate\""));
    }
}
