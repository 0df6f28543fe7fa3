//! farmem-trace: span-attributed tracing of far-memory accesses.
//!
//! The paper's argument is about *where far accesses come from* (§3.1,
//! §5): a flat [`AccessStats`] total cannot say whether an HT-tree `get`'s
//! round trips went to lock acquisition, traversal, or retry
//! amplification. This module attributes every verb to a named operation
//! **span**, all in virtual time:
//!
//! * **events** — one per completed verb (read/write/atomic/batch/
//!   indirect/scatter-gather/notify), carrying the verb kind, virtual
//!   start/end time, success flag and the exact [`AccessStats`] delta it
//!   caused, kept in a bounded ring;
//! * **spans** — RAII guards ([`SpanGuard`]) opened by data-structure
//!   operations (`httree.get`, `queue.enqueue`, `mutex.lock`, …) with
//!   parent/child nesting. Each span accumulates the stats of the verbs
//!   issued while it is the innermost open span (*self* stats), so the
//!   per-span sums plus the unattributed remainder reconcile **exactly**
//!   with the client's flat counters;
//! * **histograms** — log₂-bucketed virtual-time latency distributions
//!   (p50/p99/max) per verb kind and per span name;
//! * **exporters** — JSON-lines and Chrome trace-event format
//!   ([`Tracer::chrome_trace`]) keyed on virtual time, so a whole run
//!   opens in Perfetto / `chrome://tracing`.
//!
//! Tracing is cheap-by-default: a disabled tracer is a branch on an
//! `Option` in the client and adds **zero fabric accesses** either way —
//! the tracer only observes counters the client already maintains.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::stats::AccessStats;

/// Classification of one traced verb.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerbKind {
    /// One-sided reads (`read`, `read_u64`, `rscatter`'s far leg).
    Read,
    /// One-sided writes (`write`, `write_u64`).
    Write,
    /// Fabric atomics issued directly (`cas`, `faa`).
    Atomic,
    /// Fenced batches (`batch`).
    Batch,
    /// Unsignaled posted ops (`post_faa_u64`).
    Posted,
    /// Indirect-addressing verbs (`load*`, `store*`, `faai*`, `saai*`,
    /// `add*`, §4.1).
    Indirect,
    /// Scatter-gather verbs (`rscatter`, `rgather`, `wscatter`,
    /// `wgather`, §4.2).
    ScatterGather,
    /// Subscription management (`notify0`, `notifye`, `notify0d`,
    /// `unsubscribe`, §4.3).
    Notify,
    /// Pipelined doorbells: an [`IssueQueue`](crate::pipeline::IssueQueue)
    /// commit draining many descriptors under one overlap-aware clock
    /// charge.
    Pipeline,
}

impl VerbKind {
    /// Every kind, in a stable order.
    pub const ALL: [VerbKind; 9] = [
        VerbKind::Read,
        VerbKind::Write,
        VerbKind::Atomic,
        VerbKind::Batch,
        VerbKind::Posted,
        VerbKind::Indirect,
        VerbKind::ScatterGather,
        VerbKind::Notify,
        VerbKind::Pipeline,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            VerbKind::Read => "read",
            VerbKind::Write => "write",
            VerbKind::Atomic => "atomic",
            VerbKind::Batch => "batch",
            VerbKind::Posted => "posted",
            VerbKind::Indirect => "indirect",
            VerbKind::ScatterGather => "scatter_gather",
            VerbKind::Notify => "notify",
            VerbKind::Pipeline => "pipeline",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|k| *k == self).expect("kind listed in ALL")
    }
}

/// Sizing of a tracer's bounded buffers.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Maximum retained verb events; beyond it the oldest are dropped
    /// (counted in [`TraceReport::events_dropped`]). Aggregates keep
    /// counting regardless.
    pub event_capacity: usize,
    /// Maximum retained *closed* spans (for export); aggregation by span
    /// name is unaffected by this cap.
    pub span_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig { event_capacity: 1 << 16, span_capacity: 1 << 14 }
    }
}

/// One recorded verb.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Monotonic sequence number (survives ring eviction).
    pub seq: u64,
    /// Verb classification.
    pub kind: VerbKind,
    /// Innermost open span when the verb completed (`0` = unattributed).
    pub span: u32,
    /// Virtual time at which the verb was issued.
    pub start_ns: u64,
    /// Virtual time at which the verb completed (client clock).
    pub end_ns: u64,
    /// Whether the verb returned `Ok` (after any transparent retries).
    pub ok: bool,
    /// Exact counter delta the verb caused, including its retries.
    pub delta: AccessStats,
}

/// A closed span, as retained for export.
#[derive(Clone, Debug)]
pub struct ClosedSpan {
    /// Span identifier (unique per tracer, starting at 1).
    pub id: u32,
    /// Parent span id (`0` = top-level).
    pub parent: u32,
    /// Static span name (e.g. `"httree.get"`).
    pub name: &'static str,
    /// Virtual open time.
    pub start_ns: u64,
    /// Virtual close time (last traced activity inside the span).
    pub end_ns: u64,
    /// *Self* stats: verbs issued while this span was innermost.
    pub stats: AccessStats,
    /// Number of verbs attributed to this span.
    pub events: u64,
}

struct OpenSpan {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    stats: AccessStats,
    events: u64,
}

/// Log₂-bucketed latency histogram over virtual nanoseconds.
///
/// Bucket `b` holds values with `b` significant bits (`0` holds exact
/// zeros), so percentiles are exact to within a factor of two — plenty for
/// attributing microseconds-scale far latencies.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram { buckets: [0; 65], count: 0, sum: 0, max: 0 }
    }
}

impl LatencyHistogram {
    /// Records one duration.
    pub fn add(&mut self, ns: u64) {
        let b = if ns == 0 { 0 } else { (64 - ns.leading_zeros()) as usize };
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += ns;
        self.max = self.max.max(ns);
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean duration (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Largest recorded duration.
    pub fn max_ns(&self) -> u64 {
        self.max
    }

    /// The `q`-quantile (`0.0..=1.0`), reported as the midpoint of its
    /// log₂ bucket and clamped to the observed maximum.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let mid = match b {
                    0 => 0,
                    1 => 1,
                    b => 3u64 << (b - 2), // midpoint of [2^(b-1), 2^b)
                };
                return mid.min(self.max);
            }
        }
        self.max
    }
}

/// Aggregate over all spans sharing one name.
#[derive(Clone, Debug, Default)]
pub struct SpanAgg {
    /// Closed spans folded in.
    pub count: u64,
    /// Sum of the spans' *self* stats.
    pub stats: AccessStats,
    /// Distribution of span durations (virtual ns).
    pub latency: LatencyHistogram,
    /// Verbs attributed across all these spans.
    pub events: u64,
}

struct TracerInner {
    cfg: TraceConfig,
    client_id: u32,
    /// Client counters at enable time; reports are deltas against this.
    base_stats: AccessStats,
    enabled_at_ns: u64,
    seq: u64,
    events: VecDeque<TraceEvent>,
    events_dropped: u64,
    open: Vec<OpenSpan>,
    next_span_id: u32,
    closed: VecDeque<ClosedSpan>,
    spans_dropped: u64,
    agg: BTreeMap<&'static str, SpanAgg>,
    unattributed: AccessStats,
    unattributed_events: u64,
    verb_hist: [LatencyHistogram; 9],
    verb_count: [u64; 9],
    /// Virtual time of the last traced activity; closes spans whose RAII
    /// guard cannot reach the client clock.
    last_activity_ns: u64,
}

/// Handle on one client's trace state (cheaply cloneable; the [`SpanGuard`]s
/// hold clones).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
}

impl Tracer {
    /// Creates a tracer for client `client_id` whose report baseline is
    /// `base_stats` at virtual time `now_ns`.
    pub fn new(cfg: TraceConfig, client_id: u32, base_stats: AccessStats, now_ns: u64) -> Tracer {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                cfg,
                client_id,
                base_stats,
                enabled_at_ns: now_ns,
                seq: 0,
                events: VecDeque::new(),
                events_dropped: 0,
                open: Vec::new(),
                next_span_id: 1,
                closed: VecDeque::new(),
                spans_dropped: 0,
                agg: BTreeMap::new(),
                unattributed: AccessStats::new(),
                unattributed_events: 0,
                verb_hist: Default::default(),
                verb_count: [0; 9],
                last_activity_ns: now_ns,
            })),
        }
    }

    /// Records one completed verb with its exact counter delta.
    pub(crate) fn record_verb(
        &self,
        kind: VerbKind,
        start_ns: u64,
        end_ns: u64,
        delta: AccessStats,
        ok: bool,
    ) {
        let mut g = self.inner.lock().unwrap();
        g.last_activity_ns = g.last_activity_ns.max(end_ns);
        let span = match g.open.last_mut() {
            Some(s) => {
                s.stats.merge(&delta);
                s.events += 1;
                s.id
            }
            None => {
                g.unattributed.merge(&delta);
                g.unattributed_events += 1;
                0
            }
        };
        let k = kind.index();
        g.verb_hist[k].add(end_ns.saturating_sub(start_ns));
        g.verb_count[k] += 1;
        g.seq += 1;
        let seq = g.seq;
        if g.events.len() >= g.cfg.event_capacity {
            g.events.pop_front();
            g.events_dropped += 1;
        }
        g.events.push_back(TraceEvent { seq, kind, span, start_ns, end_ns, ok, delta });
    }

    /// Attributes a counter delta that has no verb event of its own (near
    /// accesses, notification drains) to the innermost open span.
    pub(crate) fn charge(&self, delta: AccessStats, now_ns: u64) {
        let mut g = self.inner.lock().unwrap();
        g.last_activity_ns = g.last_activity_ns.max(now_ns);
        match g.open.last_mut() {
            Some(s) => s.stats.merge(&delta),
            None => g.unattributed.merge(&delta),
        }
    }

    /// Opens a span; returns its id. Prefer
    /// [`FabricClient::span`](crate::FabricClient::span), which pairs this
    /// with an RAII guard.
    pub fn open_span(&self, name: &'static str, now_ns: u64) -> u32 {
        let mut g = self.inner.lock().unwrap();
        g.last_activity_ns = g.last_activity_ns.max(now_ns);
        let id = g.next_span_id;
        g.next_span_id += 1;
        let parent = g.open.last().map_or(0, |s| s.id);
        g.open.push(OpenSpan {
            id,
            parent,
            name,
            start_ns: now_ns,
            stats: AccessStats::new(),
            events: 0,
        });
        id
    }

    /// Closes span `id`, folding it into the per-name aggregate. The close
    /// time is the last traced activity (guards have no clock access);
    /// out-of-order closes are tolerated.
    pub fn close_span(&self, id: u32) {
        let mut g = self.inner.lock().unwrap();
        let Some(pos) = g.open.iter().rposition(|s| s.id == id) else { return };
        let s = g.open.remove(pos);
        let end_ns = g.last_activity_ns.max(s.start_ns);
        let closed = ClosedSpan {
            id: s.id,
            parent: s.parent,
            name: s.name,
            start_ns: s.start_ns,
            end_ns,
            stats: s.stats,
            events: s.events,
        };
        let agg = g.agg.entry(s.name).or_default();
        agg.count += 1;
        agg.stats.merge(&closed.stats);
        agg.latency.add(end_ns - closed.start_ns);
        agg.events += closed.events;
        if g.closed.len() >= g.cfg.span_capacity {
            g.closed.pop_front();
            g.spans_dropped += 1;
        }
        g.closed.push_back(closed);
    }

    /// Builds the attribution report. `current_stats` must be the owning
    /// client's live counters; the report's `total` is the delta since the
    /// tracer was enabled, and `spans + unattributed == total` holds
    /// field-for-field once every span is closed.
    pub fn report(&self, current_stats: AccessStats) -> TraceReport {
        let g = self.inner.lock().unwrap();
        let mut spans: Vec<SpanSummary> = g
            .agg
            .iter()
            .map(|(name, a)| SpanSummary {
                name,
                count: a.count,
                events: a.events,
                stats: a.stats,
                p50_ns: a.latency.quantile_ns(0.50),
                p99_ns: a.latency.quantile_ns(0.99),
                max_ns: a.latency.max_ns(),
                mean_ns: a.latency.mean_ns(),
            })
            .collect();
        spans.sort_by_key(|s| std::cmp::Reverse(s.stats.round_trips));
        let verbs = VerbKind::ALL
            .iter()
            .filter(|k| g.verb_count[k.index()] > 0)
            .map(|k| VerbSummary {
                kind: *k,
                count: g.verb_count[k.index()],
                p50_ns: g.verb_hist[k.index()].quantile_ns(0.50),
                p99_ns: g.verb_hist[k.index()].quantile_ns(0.99),
                max_ns: g.verb_hist[k.index()].max_ns(),
                mean_ns: g.verb_hist[k.index()].mean_ns(),
            })
            .collect();
        // Anything still open has not been folded into `agg`; surface it
        // so reconciliation failures point at the leak.
        let mut open_stats = AccessStats::new();
        for s in &g.open {
            open_stats.merge(&s.stats);
        }
        TraceReport {
            client_id: g.client_id,
            enabled_at_ns: g.enabled_at_ns,
            total: current_stats.since(&g.base_stats),
            spans,
            verbs,
            unattributed: g.unattributed,
            unattributed_events: g.unattributed_events,
            open_spans: g.open.len(),
            open_stats,
            events_recorded: g.seq,
            events_dropped: g.events_dropped,
            spans_dropped: g.spans_dropped,
        }
    }

    /// Exports retained events and closed spans as JSON-lines: one object
    /// per line, `{"type":"span",…}` or `{"type":"verb",…}`.
    pub fn jsonl(&self) -> String {
        let g = self.inner.lock().unwrap();
        let mut out = String::new();
        for s in &g.closed {
            out.push_str(&format!(
                "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"events\":{},\"stats\":{{{}}}}}\n",
                s.id,
                s.parent,
                json_escape(s.name),
                s.start_ns,
                s.end_ns,
                s.events,
                stats_json(&s.stats),
            ));
        }
        for e in &g.events {
            out.push_str(&format!(
                "{{\"type\":\"verb\",\"seq\":{},\"kind\":\"{}\",\"span\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"ok\":{},\"stats\":{{{}}}}}\n",
                e.seq,
                e.kind.name(),
                e.span,
                e.start_ns,
                e.end_ns,
                e.ok,
                stats_json(&e.delta),
            ));
        }
        out
    }

    /// Exports retained events and closed spans in Chrome trace-event
    /// format (complete `"ph":"X"` events, microsecond timestamps on the
    /// virtual clock), loadable in Perfetto / `chrome://tracing`. Spans
    /// and the verbs inside them nest visually on the client's track.
    pub fn chrome_trace(&self) -> String {
        let g = self.inner.lock().unwrap();
        let pid = g.client_id;
        let mut parts: Vec<String> = Vec::with_capacity(g.closed.len() + g.events.len());
        for s in &g.closed {
            parts.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},{}}}}}",
                json_escape(s.name),
                micros(s.start_ns),
                micros(s.end_ns - s.start_ns),
                pid,
                pid,
                s.id,
                s.parent,
                stats_json(&s.stats),
            ));
        }
        for e in &g.events {
            parts.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"verb\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{},\"ok\":{},{}}}}}",
                e.kind.name(),
                micros(e.start_ns),
                micros(e.end_ns.saturating_sub(e.start_ns)),
                pid,
                pid,
                e.span,
                e.ok,
                stats_json(&e.delta),
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
            parts.join(",")
        )
    }
}

/// Virtual ns → trace-event microseconds (fractional).
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// `"name":value` pairs for every counter, generated from the field list.
fn stats_json(s: &AccessStats) -> String {
    s.fields()
        .iter()
        .map(|(name, v)| format!("\"{name}\":{v}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// RAII handle on an open span; closing happens on drop. A guard from a
/// disabled tracer ([`FabricClient::span`](crate::FabricClient::span) with
/// tracing off) is inert and free.
#[must_use = "a span guard attributes nothing unless it lives across the operation"]
pub struct SpanGuard {
    tracer: Option<Tracer>,
    id: u32,
}

impl SpanGuard {
    /// An inert guard (tracing disabled).
    pub fn disabled() -> SpanGuard {
        SpanGuard { tracer: None, id: 0 }
    }

    /// A live guard for span `id` of `tracer`.
    pub fn new(tracer: Tracer, id: u32) -> SpanGuard {
        SpanGuard { tracer: Some(tracer), id }
    }

    /// The span id (`0` when disabled).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Closes the span now (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(t) = &self.tracer {
            t.close_span(self.id);
        }
    }
}

/// Per-name span attribution summary.
#[derive(Clone, Debug)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Closed spans with this name.
    pub count: u64,
    /// Verbs attributed to these spans.
    pub events: u64,
    /// Summed *self* stats.
    pub stats: AccessStats,
    /// Median span duration (virtual ns, log₂-bucket midpoint).
    pub p50_ns: u64,
    /// 99th-percentile span duration.
    pub p99_ns: u64,
    /// Maximum span duration (exact).
    pub max_ns: u64,
    /// Mean span duration (exact).
    pub mean_ns: u64,
}

/// Per-verb-kind latency summary.
#[derive(Clone, Debug)]
pub struct VerbSummary {
    /// Verb classification.
    pub kind: VerbKind,
    /// Completed verbs of this kind.
    pub count: u64,
    /// Median verb latency (virtual ns).
    pub p50_ns: u64,
    /// 99th-percentile verb latency.
    pub p99_ns: u64,
    /// Maximum verb latency (exact).
    pub max_ns: u64,
    /// Mean verb latency (exact).
    pub mean_ns: u64,
}

/// Attribution report for one client (see [`Tracer::report`]).
#[derive(Clone, Debug)]
pub struct TraceReport {
    /// Owning client.
    pub client_id: u32,
    /// Virtual time tracing was enabled.
    pub enabled_at_ns: u64,
    /// Flat counter delta since enable — the reconciliation target.
    pub total: AccessStats,
    /// Per-name span attribution, descending by round trips.
    pub spans: Vec<SpanSummary>,
    /// Per-verb-kind latency summaries.
    pub verbs: Vec<VerbSummary>,
    /// Stats of verbs issued outside any span.
    pub unattributed: AccessStats,
    /// Verbs issued outside any span.
    pub unattributed_events: u64,
    /// Spans still open at report time (their stats are in `open_stats`,
    /// not in `spans`).
    pub open_spans: usize,
    /// Summed self-stats of still-open spans.
    pub open_stats: AccessStats,
    /// Verbs recorded since enable (including ring-evicted ones).
    pub events_recorded: u64,
    /// Verbs evicted from the event ring.
    pub events_dropped: u64,
    /// Closed spans evicted from the span ring.
    pub spans_dropped: u64,
}

impl TraceReport {
    /// Sum of all attributed span stats.
    pub fn attributed(&self) -> AccessStats {
        let mut s = AccessStats::new();
        for span in &self.spans {
            s.merge(&span.stats);
        }
        s
    }

    /// Checks `attributed + unattributed + open == total` for every
    /// counter; returns the first mismatching field name.
    pub fn reconcile(&self) -> std::result::Result<(), &'static str> {
        let mut sum = self.attributed();
        sum.merge(&self.unattributed);
        sum.merge(&self.open_stats);
        let a = sum.to_array();
        let b = self.total.to_array();
        for (i, name) in AccessStats::FIELD_NAMES.iter().enumerate() {
            if a[i] != b[i] {
                return Err(name);
            }
        }
        Ok(())
    }

    /// Fraction of `total.round_trips` attributed to named spans
    /// (1.0 when no round trips happened).
    pub fn attribution_ratio(&self) -> f64 {
        if self.total.round_trips == 0 {
            return 1.0;
        }
        self.attributed().round_trips as f64 / self.total.round_trips as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        let mut h = LatencyHistogram::default();
        for _ in 0..98 {
            h.add(1_000); // bucket 10 [512, 1024)
        }
        h.add(100_000);
        h.add(120_000);
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ns(0.50);
        assert!((512..2048).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!(p99 >= 65_536, "p99 {p99}");
        assert_eq!(h.max_ns(), 120_000);
        assert_eq!(h.quantile_ns(1.0), 120_000.min(h.quantile_ns(1.0)));
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile_ns(0.5), 0);
        h.add(0);
        assert_eq!(h.quantile_ns(0.5), 0);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn spans_nest_and_attribute_exclusively() {
        let t = Tracer::new(TraceConfig::default(), 0, AccessStats::new(), 0);
        let outer = t.open_span("outer", 0);
        let mut d1 = AccessStats::new();
        d1.round_trips = 1;
        t.record_verb(VerbKind::Read, 0, 2_000, d1, true);
        let inner = t.open_span("inner", 2_000);
        let mut d2 = AccessStats::new();
        d2.round_trips = 2;
        t.record_verb(VerbKind::Write, 2_000, 6_000, d2, true);
        t.close_span(inner);
        t.close_span(outer);
        let mut live = AccessStats::new();
        live.round_trips = 3;
        let r = t.report(live);
        assert_eq!(r.spans.len(), 2);
        let outer_s = r.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner_s = r.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer_s.stats.round_trips, 1, "outer keeps only its self stats");
        assert_eq!(inner_s.stats.round_trips, 2);
        assert!(r.reconcile().is_ok());
        assert_eq!(r.attribution_ratio(), 1.0);
    }

    #[test]
    fn unattributed_verbs_are_reported() {
        let t = Tracer::new(TraceConfig::default(), 0, AccessStats::new(), 0);
        let mut d = AccessStats::new();
        d.round_trips = 4;
        t.record_verb(VerbKind::Batch, 0, 1_000, d, true);
        let r = t.report(d);
        assert!(r.spans.is_empty());
        assert_eq!(r.unattributed.round_trips, 4);
        assert_eq!(r.unattributed_events, 1);
        assert!(r.reconcile().is_ok());
        assert_eq!(r.attribution_ratio(), 0.0);
    }

    #[test]
    fn event_ring_is_bounded() {
        let t = Tracer::new(
            TraceConfig { event_capacity: 4, span_capacity: 2 },
            0,
            AccessStats::new(),
            0,
        );
        for i in 0..10u64 {
            t.record_verb(VerbKind::Read, i, i + 1, AccessStats::new(), true);
            let id = t.open_span("s", i);
            t.close_span(id);
        }
        let r = t.report(AccessStats::new());
        assert_eq!(r.events_recorded, 10);
        assert_eq!(r.events_dropped, 6);
        assert_eq!(r.spans_dropped, 8);
        let agg = r.spans.iter().find(|s| s.name == "s").unwrap();
        assert_eq!(agg.count, 10, "aggregation is unaffected by ring eviction");
    }

    #[test]
    fn exports_are_nonempty_and_escaped() {
        let t = Tracer::new(TraceConfig::default(), 3, AccessStats::new(), 0);
        let id = t.open_span("q\"uote", 5);
        t.record_verb(VerbKind::Indirect, 5, 2_005, AccessStats::new(), false);
        t.close_span(id);
        let jsonl = t.jsonl();
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("q\\\"uote"));
        let chrome = t.chrome_trace();
        assert!(chrome.starts_with('{'));
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"pid\":3"));
    }
}
