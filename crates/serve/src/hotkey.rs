//! Per-worker hot-key detection: a count-min sketch plus a small top-k.
//!
//! Memcached-style servers detect hot keys to shed or spread them; here
//! the consumer is replica-read spreading (reads of a detected hot key
//! round-robin over the replica group instead of hammering the primary).
//! The sketch is purely compute-side — no far traffic — and ages by
//! periodic halving so the notion of "hot" follows the workload.

use crate::splitmix64;

/// Count-min sketch rows. Four rows keep the overestimate bias small at
/// a few KiB per worker.
const ROWS: usize = 4;

/// A deterministic count-min sketch with a top-k list.
pub struct HotKeyDetector {
    /// Row-major counters, `ROWS × width`.
    counts: Vec<u32>,
    /// Power-of-two row width.
    width: usize,
    /// Observations since construction or last halving epoch (ages with
    /// the counters, so hotness ratios stay consistent).
    total: u64,
    /// Halve all counters every this many observations (aging window).
    decay_every: u64,
    /// Observations since the last halving.
    since_decay: u64,
    /// Current top-k: `(estimate, key)`, ascending — entry 0 is the
    /// coldest of the hot.
    topk: Vec<(u64, u64)>,
    k: usize,
}

/// SplitMix64 — deterministic per-row hash mixing.
fn mix(key: u64, row: u64) -> u64 {
    splitmix64(key ^ (row.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

impl HotKeyDetector {
    /// A detector with `width` counters per row (rounded up to a power
    /// of two), tracking the `k` hottest keys, halving its counters
    /// every `decay_every` observations.
    pub fn new(width: usize, k: usize, decay_every: u64) -> HotKeyDetector {
        let width = width.max(16).next_power_of_two();
        HotKeyDetector {
            counts: vec![0; ROWS * width],
            width,
            total: 0,
            decay_every: decay_every.max(1),
            since_decay: 0,
            topk: Vec::with_capacity(k),
            k: k.max(1),
        }
    }

    /// Records one access and returns the key's updated estimate.
    pub fn observe(&mut self, key: u64) -> u64 {
        if self.since_decay >= self.decay_every {
            self.halve();
        }
        self.total += 1;
        self.since_decay += 1;
        let mut est = u32::MAX;
        for row in 0..ROWS {
            let slot = (mix(key, row as u64) as usize) & (self.width - 1);
            let c = &mut self.counts[row * self.width + slot];
            *c = c.saturating_add(1);
            est = est.min(*c);
        }
        let est = u64::from(est);
        self.bump_topk(key, est);
        est
    }

    /// The key's current estimate without recording an access.
    pub fn estimate(&self, key: u64) -> u64 {
        let mut est = u32::MAX;
        for row in 0..ROWS {
            let slot = (mix(key, row as u64) as usize) & (self.width - 1);
            est = est.min(self.counts[row * self.width + slot]);
        }
        u64::from(est)
    }

    /// Observations recorded in the current aging window(s) — the
    /// denominator hotness is judged against.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether `key` is hot: its estimated share of traffic is at least
    /// `ppm` parts per million, with `min_total` observations of warmup
    /// before anything can qualify (protects against the first few ops
    /// all looking "hot").
    pub fn is_hot(&self, key: u64, ppm: u32, min_total: u64) -> bool {
        if self.total < min_total {
            return false;
        }
        // est / total >= ppm / 1e6, in integers.
        self.estimate(key) * 1_000_000 >= u64::from(ppm) * self.total
    }

    /// The current top-k keys, hottest first: `(key, estimate)`.
    pub fn topk(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.topk.iter().map(|&(e, k)| (k, e)).collect();
        v.reverse();
        v
    }

    fn bump_topk(&mut self, key: u64, est: u64) {
        if let Some(pos) = self.topk.iter().position(|&(_, k)| k == key) {
            self.topk[pos].0 = est;
            self.topk.sort_unstable();
            return;
        }
        if self.topk.len() < self.k {
            self.topk.push((est, key));
            self.topk.sort_unstable();
        } else if est > self.topk[0].0 {
            self.topk[0] = (est, key);
            self.topk.sort_unstable();
        }
    }

    /// Ages the sketch: halves every counter, the total, and the top-k
    /// estimates. A key that stops being accessed decays out of hotness
    /// within a couple of windows.
    fn halve(&mut self) {
        for c in &mut self.counts {
            *c /= 2;
        }
        self.total /= 2;
        self.since_decay = 0;
        for e in &mut self.topk {
            e.0 /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_key_is_detected_and_cold_is_not() {
        let mut d = HotKeyDetector::new(1024, 4, 1 << 30);
        for i in 0..10_000u64 {
            d.observe(7); // hot: every other op
            d.observe(1000 + i); // cold tail, all distinct
        }
        // Key 7 has ~50% of traffic; 10% threshold flags it.
        assert!(d.is_hot(7, 100_000, 100));
        assert!(!d.is_hot(1234, 100_000, 100));
        assert_eq!(d.topk()[0].0, 7);
    }

    #[test]
    fn warmup_suppresses_early_hotness() {
        let mut d = HotKeyDetector::new(256, 2, 1 << 30);
        d.observe(3);
        assert!(
            !d.is_hot(3, 100_000, 100),
            "one observation of one key must not read as hot"
        );
    }

    #[test]
    fn decay_forgets_stale_hot_keys() {
        let mut d = HotKeyDetector::new(256, 2, 1000);
        for _ in 0..800 {
            d.observe(42);
        }
        assert!(d.is_hot(42, 500_000, 100));
        // The workload shifts: key 42 never accessed again.
        for i in 0..8_000u64 {
            d.observe(i % 97);
        }
        assert!(
            !d.is_hot(42, 500_000, 100),
            "estimate {} of total {} still hot",
            d.estimate(42),
            d.total()
        );
    }

    #[test]
    fn detector_is_deterministic() {
        let run = || {
            let mut d = HotKeyDetector::new(512, 4, 4096);
            for i in 0..5_000u64 {
                d.observe((i * i) % 701);
            }
            (d.topk(), d.total())
        };
        assert_eq!(run(), run());
    }
}
