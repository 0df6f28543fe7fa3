//! The histogram-based monitor (§6): far memory as an intermediary that
//! reduces interconnect traffic.

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_fabric::{BatchOp, Event, FabricClient, FarAddr, FarIov, SubId, PAGE, WORD};
use std::sync::Arc;

use crate::{MonitorError, Result};

/// Anchor layout: current-window base pointer, window sequence number,
/// windows base, buckets, windows.
const M_BASE: u64 = 0;
const M_SEQ: u64 = 8;
const M_LEN: u64 = 48;

/// Alarm severity, in increasing order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Samples above the warning threshold.
    Warning,
    /// Samples above the critical threshold.
    Critical,
    /// Samples above the failure threshold.
    Failure,
}

/// Thresholds, as sample values, plus the duration rule.
#[derive(Clone, Copy, Debug)]
pub struct AlarmSpec {
    /// Sample value at or above which a warning is counted.
    pub warning: u64,
    /// Sample value at or above which the state is critical.
    pub critical: u64,
    /// Sample value at or above which the state is failure.
    pub failure: u64,
    /// Minimum number of above-threshold samples within one window for an
    /// alarm to be raised ("for a certain duration within a time window").
    pub duration: u64,
}

/// A raised alarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorAlarm {
    /// Severity of the alarm.
    pub severity: Severity,
    /// Window sequence number the alarm belongs to.
    pub window_seq: u64,
    /// Above-threshold sample count observed in the window.
    pub count: u64,
}

/// Shared descriptor of the histogram monitor.
#[derive(Clone, Copy, Debug)]
pub struct HistogramMonitor {
    anchor: FarAddr,
    windows: FarAddr,
    n_buckets: u64,
    n_windows: u64,
    sample_max: u64,
    spec: AlarmSpec,
}

impl HistogramMonitor {
    /// Creates a monitor with `n_buckets` histogram buckets covering
    /// sample values `0..=sample_max`, and a circular buffer of
    /// `n_windows` windows.
    pub fn create(
        client: &mut FabricClient,
        alloc: &Arc<FarAlloc>,
        n_buckets: u64,
        sample_max: u64,
        n_windows: u64,
        spec: AlarmSpec,
    ) -> Result<HistogramMonitor> {
        if n_buckets < 4 || n_windows == 0 || sample_max == 0 {
            return Err(MonitorError::BadConfig("buckets/windows/sample_max too small"));
        }
        if !(spec.warning <= spec.critical && spec.critical <= spec.failure) {
            return Err(MonitorError::BadConfig("thresholds must be ordered"));
        }
        if spec.failure > sample_max {
            return Err(MonitorError::BadConfig("failure threshold beyond sample_max"));
        }
        // One histogram per window, page-aligned so alarm-range
        // subscriptions stay within pages.
        let window_bytes = (n_buckets * WORD).div_ceil(PAGE) * PAGE;
        let windows = alloc.alloc(window_bytes * n_windows, AllocHint::Striped)?;
        let anchor = alloc.alloc(M_LEN, AllocHint::Spread)?;
        let mut anchor_bytes = Vec::with_capacity(M_LEN as usize);
        for w in [windows.0, 0, windows.0, n_buckets, n_windows, sample_max] {
            anchor_bytes.extend_from_slice(&w.to_le_bytes());
        }
        client.batch(&[
            BatchOp::Write {
                addr: windows,
                data: &vec![0u8; (window_bytes * n_windows) as usize],
            },
            BatchOp::Write { addr: anchor, data: &anchor_bytes },
        ])?;
        Ok(HistogramMonitor { anchor, windows, n_buckets, n_windows, sample_max, spec })
    }

    /// The anchor address (for sharing).
    pub fn anchor(&self) -> FarAddr {
        self.anchor
    }

    /// Number of histogram buckets.
    pub fn buckets(&self) -> u64 {
        self.n_buckets
    }

    fn window_bytes(&self) -> u64 {
        (self.n_buckets * WORD).div_ceil(PAGE) * PAGE
    }

    fn window_base(&self, w: u64) -> FarAddr {
        self.windows.offset((w % self.n_windows) * self.window_bytes())
    }

    /// Maps a sample value to its histogram bucket.
    pub fn bucket_of(&self, sample: u64) -> u64 {
        let s = sample.min(self.sample_max);
        s * (self.n_buckets - 1) / self.sample_max
    }

    /// First bucket at or above the given severity's threshold.
    pub fn threshold_bucket(&self, sev: Severity) -> u64 {
        let value = match sev {
            Severity::Warning => self.spec.warning,
            Severity::Critical => self.spec.critical,
            Severity::Failure => self.spec.failure,
        };
        self.bucket_of(value)
    }

    /// Attaches the producer.
    pub fn producer(&self, _client: &mut FabricClient) -> ProducerHandle {
        ProducerHandle { m: *self, seq: 0 }
    }

    /// Attaches a consumer interested in alarms at or above `min_sev`.
    /// Subscribes once to the alarm range of *every* window in the
    /// circular buffer plus the window-switch word.
    pub fn consumer(&self, client: &mut FabricClient, min_sev: Severity) -> Result<ConsumerHandle> {
        let first_bucket = self.threshold_bucket(min_sev);
        let mut alarm_subs = Vec::new();
        for w in 0..self.n_windows {
            let base = self.window_base(w);
            let start = base.0 + first_bucket * WORD;
            let end = base.0 + self.n_buckets * WORD;
            let mut cur = start;
            while cur < end {
                let page_end = (cur / PAGE + 1) * PAGE;
                let chunk = page_end.min(end) - cur;
                // audit: rt-in-loop-ok: one-time consumer setup — one
                // subscription verb per far page of alarm buckets.
                alarm_subs.push(client.notify0(FarAddr(cur), chunk)?);
                cur += chunk;
            }
        }
        let switch_sub = client.notify0(self.anchor.offset(M_SEQ), WORD)?;
        Ok(ConsumerHandle {
            m: *self,
            min_sev,
            alarm_subs,
            switch_sub,
            current_seq: 0,
            raised: Vec::new(),
            dirty_windows: std::collections::BTreeSet::new(),
            notifications_seen: 0,
        })
    }
}

/// The single producer of the monitored metric.
pub struct ProducerHandle {
    m: HistogramMonitor,
    seq: u64,
}

impl ProducerHandle {
    /// Records one sample: **one far access** — an indexed indirect add
    /// through the current-window base pointer (§6, Fig. 1 `add2`).
    pub fn record(&mut self, client: &mut FabricClient, sample: u64) -> Result<()> {
        let _span = client.span("monitor.record");
        let bucket = self.m.bucket_of(sample);
        client.add2(self.m.anchor, 1, bucket * WORD)?;
        Ok(())
    }

    /// Ends the current window: zeroes the next window's histogram,
    /// switches the base pointer, and bumps the sequence word (which
    /// notifies every consumer). One fenced batch — one far access.
    pub fn end_window(&mut self, client: &mut FabricClient) -> Result<u64> {
        let _span = client.span("monitor.end_window");
        self.seq += 1;
        let next = self.m.window_base(self.seq);
        let zeros = vec![0u8; (self.m.n_buckets * WORD) as usize];
        client.batch(&[
            BatchOp::Write { addr: next, data: &zeros },
            BatchOp::Write {
                addr: self.m.anchor.offset(M_BASE),
                data: &next.0.to_le_bytes(),
            },
            BatchOp::Write {
                addr: self.m.anchor.offset(M_SEQ),
                data: &self.seq.to_le_bytes(),
            },
        ])?;
        Ok(self.seq)
    }

    /// Current window sequence number.
    pub fn window_seq(&self) -> u64 {
        self.seq
    }
}

/// One consumer: receives notifications for its alarm ranges only.
pub struct ConsumerHandle {
    m: HistogramMonitor,
    min_sev: Severity,
    alarm_subs: Vec<SubId>,
    switch_sub: SubId,
    current_seq: u64,
    raised: Vec<MonitorAlarm>,
    dirty_windows: std::collections::BTreeSet<u64>,
    notifications_seen: u64,
}

impl ConsumerHandle {
    /// Notifications this consumer has received (the `m` in the paper's
    /// `N + m` traffic bound).
    pub fn notifications_seen(&self) -> u64 {
        self.notifications_seen
    }

    /// Window sequence this consumer believes is current.
    pub fn current_seq(&self) -> u64 {
        self.current_seq
    }

    fn window_of_addr(&self, addr: FarAddr) -> Option<u64> {
        let off = addr.0.checked_sub(self.m.windows.0)?;
        let w = off / self.m.window_bytes();
        (w < self.m.n_windows).then_some(w)
    }

    /// Drains notifications and evaluates alarms, reading (one gather) the
    /// alarm range of each window that saw above-threshold increments.
    ///
    /// Returns newly raised alarms. Consumers in the normal case receive
    /// *no* notifications and this costs *zero* far accesses.
    pub fn poll(&mut self, client: &mut FabricClient) -> Result<Vec<MonitorAlarm>> {
        let _span = client.span("monitor.poll");
        let subs: std::collections::HashSet<SubId> =
            self.alarm_subs.iter().copied().chain([self.switch_sub]).collect();
        let events = client.take_events(|e| {
            matches!(e, Event::Lost { .. }) || e.sub().is_some_and(|s| subs.contains(&s))
        });
        for e in events {
            match e {
                Event::Lost { .. } => {
                    // Conservative: check every window.
                    self.notifications_seen += 1;
                    for w in 0..self.m.n_windows {
                        self.dirty_windows.insert(w);
                    }
                }
                Event::Changed { sub, addr, .. } if sub == self.switch_sub => {
                    self.notifications_seen += 1;
                    let _ = addr;
                    // Window switched: re-read the sequence word lazily at
                    // evaluation time below (counted there).
                    // audit: rt-in-loop-ok: one read per switch event
                    // drained, not per element; switches are rare.
                    self.current_seq = client.read_u64(self.m.anchor.offset(M_SEQ))?;
                }
                Event::Changed { addr, .. } => {
                    self.notifications_seen += 1;
                    if let Some(w) = self.window_of_addr(addr) {
                        self.dirty_windows.insert(w);
                    }
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        if self.dirty_windows.is_empty() {
            return Ok(out);
        }
        // One gather reads the alarm range of every dirty window (§6:
        // "consumers optionally copy the histogram values in the
        // prescribed range for further aggregation").
        let first_bucket = self.m.threshold_bucket(self.min_sev);
        let span = (self.m.n_buckets - first_bucket) * WORD;
        let windows: Vec<u64> = self.dirty_windows.iter().copied().collect();
        self.dirty_windows.clear();
        let iov: Vec<FarIov> = windows
            .iter()
            .map(|&w| FarIov::new(self.m.window_base(w).offset(first_bucket * WORD), span))
            .collect();
        let bytes = client.rgather(&iov)?;
        let per = span as usize;
        for (i, &w) in windows.iter().enumerate() {
            let slice = &bytes[i * per..(i + 1) * per];
            let counts: Vec<u64> = slice
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
                .collect();
            // Highest severity whose duration rule is met wins.
            for sev in [Severity::Failure, Severity::Critical, Severity::Warning] {
                if sev < self.min_sev {
                    continue;
                }
                let sev_bucket = self.m.threshold_bucket(sev);
                let count: u64 = counts[(sev_bucket - first_bucket) as usize..].iter().sum();
                if count >= self.m.spec.duration {
                    let alarm = MonitorAlarm {
                        severity: sev,
                        window_seq: self.windowed_seq(w),
                        count,
                    };
                    if !self.raised.contains(&alarm) {
                        self.raised.push(alarm);
                        out.push(alarm);
                    }
                    break;
                }
            }
        }
        Ok(out)
    }

    fn windowed_seq(&self, w: u64) -> u64 {
        // Map a circular-buffer slot to the most recent sequence number
        // occupying it (approximate for history slots).
        if self.current_seq % self.m.n_windows == w {
            self.current_seq
        } else {
            w
        }
    }

    /// All alarms this consumer ever raised.
    pub fn raised(&self) -> &[MonitorAlarm] {
        &self.raised
    }

    /// Reads a full historical window histogram (one far access) for
    /// cross-window correlation (§6).
    pub fn read_window(&self, client: &mut FabricClient, w: u64) -> Result<Vec<u64>> {
        let base = self.m.window_base(w);
        let bytes = client.read(base, self.m.n_buckets * WORD)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("word")))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use farmem_fabric::FabricConfig;

    fn spec() -> AlarmSpec {
        AlarmSpec { warning: 70, critical: 85, failure: 95, duration: 3 }
    }

    fn setup() -> (Arc<farmem_fabric::Fabric>, Arc<FarAlloc>, HistogramMonitor) {
        let f = FabricConfig::count_only(64 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        let m = HistogramMonitor::create(&mut c, &a, 101, 100, 4, spec()).unwrap();
        (f, a, m)
    }

    #[test]
    fn producer_increment_is_one_far_access() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut p = m.producer(&mut pc);
        let before = pc.stats();
        p.record(&mut pc, 42).unwrap();
        let d = pc.stats().since(&before);
        assert_eq!(d.round_trips, 1, "indexed indirect add: one far access");
    }

    #[test]
    fn normal_samples_produce_no_consumer_traffic() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut cc = f.client();
        let mut p = m.producer(&mut pc);
        let mut cons = m.consumer(&mut cc, Severity::Warning).unwrap();
        for s in [10u64, 30, 50, 60, 65, 69] {
            p.record(&mut pc, s).unwrap();
        }
        let before = cc.stats();
        let alarms = cons.poll(&mut cc).unwrap();
        assert!(alarms.is_empty());
        assert_eq!(cons.notifications_seen(), 0, "normal range: zero notifications");
        assert_eq!(cc.stats().since(&before).round_trips, 0);
    }

    #[test]
    fn sustained_high_samples_raise_the_right_severity() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut cc = f.client();
        let mut p = m.producer(&mut pc);
        let mut cons = m.consumer(&mut cc, Severity::Warning).unwrap();
        // Three samples ≥ critical (duration = 3), none ≥ failure.
        for s in [88u64, 90, 86] {
            p.record(&mut pc, s).unwrap();
        }
        let alarms = cons.poll(&mut cc).unwrap();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].severity, Severity::Critical);
        assert_eq!(alarms[0].count, 3);
        assert!(cons.notifications_seen() >= 1);
    }

    #[test]
    fn duration_rule_suppresses_short_spikes() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut cc = f.client();
        let mut p = m.producer(&mut pc);
        let mut cons = m.consumer(&mut cc, Severity::Warning).unwrap();
        // Two high samples only (duration threshold is 3).
        p.record(&mut pc, 99).unwrap();
        p.record(&mut pc, 97).unwrap();
        assert!(cons.poll(&mut cc).unwrap().is_empty());
        // A third pushes it over.
        p.record(&mut pc, 96).unwrap();
        let alarms = cons.poll(&mut cc).unwrap();
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].severity, Severity::Failure);
    }

    #[test]
    fn consumer_filters_below_min_severity() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut cc = f.client();
        let mut p = m.producer(&mut pc);
        let mut cons = m.consumer(&mut cc, Severity::Failure).unwrap();
        // Warning-level storm: a Failure-only consumer hears nothing.
        for _ in 0..10 {
            p.record(&mut pc, 75).unwrap();
        }
        assert!(cons.poll(&mut cc).unwrap().is_empty());
        assert_eq!(cons.notifications_seen(), 0);
    }

    #[test]
    fn window_switch_notifies_and_resets() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut cc = f.client();
        let mut p = m.producer(&mut pc);
        let mut cons = m.consumer(&mut cc, Severity::Warning).unwrap();
        for _ in 0..3 {
            p.record(&mut pc, 90).unwrap();
        }
        cons.poll(&mut cc).unwrap();
        let seq = p.end_window(&mut pc).unwrap();
        cons.poll(&mut cc).unwrap();
        assert_eq!(cons.current_seq(), seq);
        // New window starts clean: normal samples raise nothing.
        p.record(&mut pc, 10).unwrap();
        assert!(cons.poll(&mut cc).unwrap().is_empty());
    }

    #[test]
    fn history_windows_support_correlation() {
        let (f, _a, m) = setup();
        let mut pc = f.client();
        let mut cc = f.client();
        let mut p = m.producer(&mut pc);
        let cons = m.consumer(&mut cc, Severity::Warning).unwrap();
        p.record(&mut pc, 90).unwrap();
        p.end_window(&mut pc).unwrap();
        p.record(&mut pc, 90).unwrap();
        // Window 0 still holds the old histogram.
        let h0 = cons.read_window(&mut cc, 0).unwrap();
        let h1 = cons.read_window(&mut cc, 1).unwrap();
        let b = m.bucket_of(90) as usize;
        assert_eq!(h0[b], 1);
        assert_eq!(h1[b], 1);
    }

    #[test]
    fn bad_configs_rejected() {
        let f = FabricConfig::count_only(16 << 20).build();
        let a = FarAlloc::new(f.clone());
        let mut c = f.client();
        assert!(HistogramMonitor::create(&mut c, &a, 2, 100, 4, spec()).is_err());
        let bad = AlarmSpec { warning: 90, critical: 80, failure: 95, duration: 1 };
        assert!(HistogramMonitor::create(&mut c, &a, 101, 100, 4, bad).is_err());
    }
}
