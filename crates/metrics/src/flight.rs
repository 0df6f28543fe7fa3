//! The flight recorder: a JSONL postmortem bundle.
//!
//! When an SLO rule fires (or on demand via
//! [`MetricsHub::dump_flight`](crate::MetricsHub::dump_flight)) the hub
//! serialises its current state — the firing alarm, every alarm so far,
//! each client's ring window and eviction accumulator, each node's ring
//! window, and the tail of each registered tracer's event log — as one
//! JSON object per line. The bundle is self-contained: parsing the
//! `sample` / `node_sample` lines back (the bench crate's `Json` parser
//! suffices) and feeding them through a fresh
//! [`SloEngine`](crate::SloEngine) with the same rules reproduces the
//! recorded `alarm` lines, which is exactly what `e18_metrics` asserts.
//!
//! Line kinds, in emission order:
//!
//! | kind          | payload                                            |
//! |---------------|----------------------------------------------------|
//! | `meta`        | schema version, reason, interval, ring capacity    |
//! | `fired`       | the alarm that triggered this dump (if any)        |
//! | `alarm`       | one per alarm fired so far, in firing order        |
//! | `client`      | per-client eviction accumulator                    |
//! | `sample`      | one per retained client sample, oldest first       |
//! | `node_sample` | one per retained node sample, oldest first         |
//! | `trace`       | one per retained trace event (tracer tail)         |

use farmem_fabric::{json_quote, AccessStats};

use crate::hub::{MetricsConfig, NodeSample, Sample};
use crate::slo::{severity_name, SloAlarm};

/// One dumped postmortem bundle.
#[derive(Clone, Debug)]
pub struct FlightBundle {
    /// Why the dump happened (`"slo-alarm"` or a caller-given reason).
    pub reason: String,
    /// The bundle body: one JSON object per line.
    pub jsonl: String,
}

impl FlightBundle {
    /// The bundle's lines (each a complete JSON object).
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.jsonl.lines()
    }

    pub(crate) fn build(
        reason: &str,
        fired: Option<&SloAlarm>,
        cfg: &MetricsConfig,
        clients: &[(u32, Vec<Sample>, AccessStats, u64)],
        nodes: &[(u32, Vec<NodeSample>)],
        alarms: &[SloAlarm],
        trace_tails: &[(u32, Vec<String>)],
    ) -> FlightBundle {
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"kind\":\"meta\",\"schema_version\":1,\"reason\":{},\
             \"interval_ns\":{},\"ring_capacity\":{},\"clients\":{},\"nodes\":{}}}\n",
            json_quote(reason),
            cfg.interval_ns,
            cfg.ring_capacity,
            clients.len(),
            nodes.len(),
        ));
        if let Some(a) = fired {
            out.push_str(&alarm_json("fired", a));
        }
        for a in alarms {
            out.push_str(&alarm_json("alarm", a));
        }
        for (client, ring, evicted, evicted_samples) in clients {
            out.push_str(&format!(
                "{{\"kind\":\"client\",\"client\":{client},\
                 \"evicted_samples\":{evicted_samples},\"evicted\":{}}}\n",
                evicted.to_json(),
            ));
            for s in ring {
                out.push_str(&sample_json(*client, s));
            }
        }
        for (node, ring) in nodes {
            for s in ring {
                out.push_str(&node_sample_json(*node, s));
            }
        }
        for (client, lines) in trace_tails {
            for line in lines {
                out.push_str(&format!(
                    "{{\"kind\":\"trace\",\"client\":{client},\"event\":{line}}}\n"
                ));
            }
        }
        FlightBundle { reason: reason.to_string(), jsonl: out }
    }
}

fn alarm_json(kind: &str, a: &SloAlarm) -> String {
    format!(
        "{{\"kind\":\"{kind}\",\"rule\":{},\"signal\":\"{}\",\
         \"scope_kind\":\"{}\",\"scope_index\":{},\"value\":{},\
         \"severity\":\"{}\",\"window_seq\":{},\"count\":{}}}\n",
        json_quote(a.rule),
        a.signal.name(),
        a.scope.kind(),
        a.scope.index(),
        a.value,
        severity_name(a.alarm.severity),
        a.alarm.window_seq,
        a.alarm.count,
    )
}

fn sample_json(client: u32, s: &Sample) -> String {
    format!(
        "{{\"kind\":\"sample\",\"client\":{client},\"seq\":{},\"t_ns\":{},\
         \"wall_ns\":{},\"verbs\":{},\"p50_verb_ns\":{},\"p99_verb_ns\":{},\
         \"max_verb_ns\":{},\"delta\":{},\"total\":{}}}\n",
        s.seq,
        s.t_ns,
        s.wall_ns,
        s.verbs,
        s.p50_verb_ns,
        s.p99_verb_ns,
        s.max_verb_ns,
        s.delta.to_json(),
        s.total.to_json(),
    )
}

fn node_sample_json(node: u32, s: &NodeSample) -> String {
    format!(
        "{{\"kind\":\"node_sample\",\"node\":{node},\"seq\":{},\"t_ns\":{},\
         \"wall_ns\":{},\"messages\":{},\"busy_ns\":{},\"waited_ns\":{},\
         \"max_wait_ns\":{},\"busy_permille\":{}}}\n",
        s.seq,
        s.t_ns,
        s.wall_ns,
        s.messages,
        s.busy_ns,
        s.waited_ns,
        s.max_wait_ns,
        s.busy_permille,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{Scope, Signal};
    use farmem_monitor::{MonitorAlarm, Severity};

    #[test]
    fn bundle_lines_are_json_objects_in_declared_order() {
        let cfg = MetricsConfig::default();
        let mut delta = AccessStats::new();
        delta.round_trips = 2;
        let sample = Sample {
            seq: 0,
            t_ns: 1_000_000,
            wall_ns: 1_000_000,
            verbs: 2,
            p50_verb_ns: 2000,
            p99_verb_ns: 2000,
            max_verb_ns: 2100,
            delta,
            total: delta,
        };
        let alarm = SloAlarm {
            rule: "rt-rate",
            signal: Signal::RoundTripsPerMs,
            scope: Scope::Client(0),
            value: 2,
            alarm: MonitorAlarm { severity: Severity::Warning, window_seq: 0, count: 1 },
        };
        let bundle = FlightBundle::build(
            "slo-alarm",
            Some(&alarm),
            &cfg,
            &[(0, vec![sample], AccessStats::new(), 0)],
            &[(0, Vec::new())],
            &[alarm],
            &[(0, vec!["{\"ev\":1}".to_string()])],
        );
        let kinds: Vec<&str> = bundle
            .lines()
            .map(|l| {
                assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
                let key = "\"kind\":\"";
                let at = l.find(key).unwrap() + key.len();
                &l[at..at + l[at..].find('"').unwrap()]
            })
            .collect();
        assert_eq!(kinds, ["meta", "fired", "alarm", "client", "sample", "trace"]);
        assert!(bundle.jsonl.contains("\"round_trips\":2"));
        assert!(bundle.jsonl.contains("\"event\":{\"ev\":1}"));
    }
}
