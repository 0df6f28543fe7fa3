//! How a run is timed: set-up, then fixed-size rounds over one
//! pre-generated request vector, alternating throughput rounds (two
//! timestamps per round) and latency rounds (one timestamp per op); a
//! traced run adds spanned rounds (one span per op).
//! Every host-time metric is the best round of its kind; every count is
//! taken over whole epochs and must repeat exactly.

use std::time::Instant;

/// One recorded span: a call into a layer, timed from outside.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into [`SpanLog::names`].
    pub name: u16,
    /// Index of the parent rung's name (`u16::MAX` = root).
    pub parent: u16,
    /// Request index the span belongs to (spans of one request share it).
    pub op: u32,
    /// Start, ns since the log's origin.
    pub start_ns: u64,
    /// End, ns since the log's origin.
    pub end_ns: u64,
}

/// Spans kept in a pre-allocated `Vec` and written out after the run.
pub struct SpanLog {
    origin: Instant,
    /// Span names, indexed by [`Span::name`].
    pub names: Vec<&'static str>,
    /// The spans, in recording order.
    pub spans: Vec<Span>,
    /// Ops per rung that get a span (the rest of a round runs untimed).
    pub cap_ops: usize,
}

impl SpanLog {
    /// A log that keeps the first `cap_ops` ops of each rung, with room
    /// for `rungs` rungs.
    pub fn new(cap_ops: usize, rungs: usize) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::with_capacity(cap_ops * rungs),
            cap_ops,
        }
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// ns since the log's origin.
    #[inline]
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records one span.
    #[inline]
    pub fn push(&mut self, name: u16, parent: u16, op: usize, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent,
            op: op as u32,
            start_ns,
            end_ns,
        });
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u32> {
        let Some(id) = self.names.iter().position(|n| *n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name == id as u16)
            .map(|s| (s.end_ns - s.start_ns).min(u64::from(u32::MAX)) as u32)
            .collect()
    }

    /// The log as JSON lines: `name, op, start_ns, end_ns, parent`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = self.names.get(s.parent as usize).copied().unwrap_or("");
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":\"{}\"}}\n",
                self.names[s.name as usize], s.op, s.start_ns, s.end_ns, parent
            ));
        }
        out
    }
}

/// How one round is observed.
pub enum Mode<'a> {
    /// Two timestamps around the whole round.
    Throughput,
    /// One `Instant::now()` per op: the end of op *i* is the start of
    /// op *i+1*. Pushes one latency (ns) per op.
    Latency(&'a mut Vec<u32>),
}

/// What a round did.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundOut {
    /// Wall time of the round.
    pub wall_ns: u64,
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose reply was wrong (error, unexpected rejection, bad
    /// payload).
    pub failed: u64,
}

/// What a spanned round did: the whole round, and the stretch of it
/// that carried a span per op. The tracing is priced over that stretch
/// alone; the ops after it run untimed and would pull the ratio to 1.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpannedOut {
    /// The whole round (`wall_ns` included the unspanned rest).
    pub round: RoundOut,
    /// Ops that carried a span.
    pub spanned_ops: u64,
    /// Wall time of those ops.
    pub spanned_ns: u64,
}

/// Runs `op(i)` for `i in 0..n` under `mode`; `op` returns whether the
/// reply was correct. The two loops are separate so the throughput loop
/// carries no per-op branch or timer.
#[inline]
pub fn drive(n: usize, mode: Mode<'_>, mut op: impl FnMut(usize) -> bool) -> RoundOut {
    let mut failed = 0u64;
    let t0 = Instant::now();
    match mode {
        Mode::Throughput => {
            for i in 0..n {
                failed += u64::from(!op(i));
            }
        }
        Mode::Latency(lat) => {
            lat.reserve(n);
            let mut prev = t0;
            for i in 0..n {
                failed += u64::from(!op(i));
                let now = Instant::now();
                lat.push((now - prev).as_nanos().min(u128::from(u32::MAX)) as u32);
                prev = now;
            }
        }
    }
    RoundOut {
        wall_ns: t0.elapsed().as_nanos() as u64,
        ops: n as u64,
        failed,
    }
}

/// [`drive`] with one root span per op, named `span_of(i)`, for the
/// first `log.cap_ops` ops; the rest of the round runs as in a
/// throughput round, so the instance ends where every round ends.
#[inline]
pub fn drive_spanned(
    n: usize,
    log: &mut SpanLog,
    span_of: impl Fn(usize) -> u16,
    mut op: impl FnMut(usize) -> bool,
) -> SpannedOut {
    let cap = log.cap_ops.min(n);
    let mut failed = 0u64;
    let t0 = Instant::now();
    let start = log.now();
    let mut prev = start;
    for i in 0..cap {
        failed += u64::from(!op(i));
        let now = log.now();
        log.push(span_of(i), u16::MAX, i, prev, now);
        prev = now;
    }
    for i in cap..n {
        failed += u64::from(!op(i));
    }
    SpannedOut {
        round: RoundOut {
            wall_ns: t0.elapsed().as_nanos() as u64,
            ops: n as u64,
            failed,
        },
        spanned_ops: cap as u64,
        spanned_ns: prev - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_counts_failures_and_samples_every_op() {
        let out = drive(100, Mode::Throughput, |i| i % 10 != 0);
        assert_eq!((out.ops, out.failed), (100, 10));
        let mut lat = Vec::new();
        let out = drive(50, Mode::Latency(&mut lat), |_| true);
        assert_eq!((out.failed, lat.len()), (0, 50));
        let mut log = SpanLog::new(20, 1);
        let id = log.name("rung");
        let out = drive_spanned(30, &mut log, |_| id, |i| i != 25);
        assert_eq!((out.round.ops, out.round.failed), (30, 1));
        assert_eq!(out.spanned_ops, 20);
        assert!(out.spanned_ns <= out.round.wall_ns);
        assert_eq!(
            log.spans.len(),
            20,
            "only the first cap_ops ops are spanned"
        );
        assert_eq!(log.durations("rung").len(), 20);
        assert!(log
            .to_jsonl()
            .lines()
            .all(|l| crate::json::Json::parse(l).is_ok()));
    }
}
