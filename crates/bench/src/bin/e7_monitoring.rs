//! E7 — §6: the monitoring case study's traffic bound.
//!
//! Claims to reproduce:
//! * naive design: `(k + 1) · N` far transfers for `N` samples and `k`
//!   consumers;
//! * histogram + notifications: `N` producer accesses (one indexed
//!   indirect add each) plus `m ≪ N` consumer notifications, with `m`
//!   tracking the alarm rate;
//! * multi-window tracking via a circular buffer with a base-pointer
//!   switch that notifies consumers.
//!
//! Run: `cargo run --release -p farmem-bench --bin e7_monitoring`

use farmem_alloc::FarAlloc;
use farmem_bench::{BenchArgs, Table};
use farmem_fabric::{CostModel, FabricConfig};
use farmem_monitor::{AlarmSpec, HistogramMonitor, NaiveMonitor, Severity};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N_PER_WINDOW: u64 = 100_000;
const WINDOWS: u64 = 3;

fn main() {
    let args = BenchArgs::parse();
    let seed = args.seed_or(7);
    let mut report = args.report("e7_monitoring");
    let mut t = Table::new(
        "E7: far-memory transfers, naive vs histogram design (N = 300000 samples over 3 windows)",
        &[
            "k", "alarm rate", "naive msgs", "hist msgs", "m (notifications)",
            "reduction", "alarms",
        ],
    );
    for &k in &[1usize, 4, 16, 32] {
        for &alarm_pct in &[0.1f64, 1.0, 10.0] {
            let f = FabricConfig {
                cost: CostModel::COUNT_ONLY,
                ..FabricConfig::single_node(256 << 20)
            }
            .build();
            let alloc = FarAlloc::new(f.clone());
            let spec = AlarmSpec { warning: 70, critical: 85, failure: 95, duration: 10 };

            // --- histogram + notifications design ---
            let mut pc = f.client();
            let m =
                HistogramMonitor::create(&mut pc, &alloc, 101, 100, WINDOWS + 1, spec).unwrap();
            let mut producer = m.producer(&mut pc);
            let mut consumers: Vec<_> = (0..k)
                .map(|_| {
                    let mut cc = f.client();
                    let cons = m.consumer(&mut cc, Severity::Warning).unwrap();
                    (cc, cons)
                })
                .collect();
            let baseline_consumer: Vec<_> =
                consumers.iter().map(|(cc, _)| cc.stats()).collect();
            let p_before = pc.stats();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut alarms = 0usize;
            for _ in 0..WINDOWS {
                for s in 0..N_PER_WINDOW {
                    let sample: u64 = if rng.gen_bool(alarm_pct / 100.0) {
                        70 + rng.gen_range(0..31)
                    } else {
                        rng.gen_range(0..70)
                    };
                    producer.record(&mut pc, sample).unwrap();
                    // Consumers poll occasionally (coalescing batches the
                    // notifications between polls).
                    if s % 1000 == 999 {
                        for (cc, cons) in consumers.iter_mut() {
                            alarms += cons.poll(cc).unwrap().len();
                        }
                    }
                }
                producer.end_window(&mut pc).unwrap();
                for (cc, cons) in consumers.iter_mut() {
                    alarms += cons.poll(cc).unwrap().len();
                }
            }
            let p_d = pc.stats().since(&p_before);
            let mut cons_msgs = 0u64;
            let mut notifications = 0u64;
            for (i, (cc, cons)) in consumers.iter().enumerate() {
                let d = cc.stats().since(&baseline_consumer[i]);
                cons_msgs += d.messages + d.notifications;
                notifications += cons.notifications_seen();
            }
            let hist_total = p_d.messages + p_d.posted_messages + cons_msgs;

            // --- naive design ---
            let mut npc = f.client();
            let nm = NaiveMonitor::create(&mut npc, &alloc, WINDOWS * N_PER_WINDOW).unwrap();
            let mut np = nm.producer();
            let np_before = npc.stats();
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..WINDOWS * N_PER_WINDOW {
                let sample: u64 = if rng.gen_bool(alarm_pct / 100.0) {
                    70 + rng.gen_range(0..31)
                } else {
                    rng.gen_range(0..70)
                };
                np.record(&mut npc, sample).unwrap();
            }
            let mut naive_total =
                npc.stats().since(&np_before).messages;
            for _ in 0..k {
                let mut cc = f.client();
                let mut cons = nm.consumer();
                let before = cc.stats();
                // Consumers poll on the same cadence as above.
                for _ in 0..(WINDOWS * N_PER_WINDOW / 1000) {
                    cons.poll(&mut cc).unwrap();
                }
                // Count sample words transferred, not poll messages: the
                // paper's bound counts data transfers.
                let d = cc.stats().since(&before);
                naive_total += d.bytes_read / 8;
            }

            t.row(vec![
                k.to_string(),
                format!("{alarm_pct}%"),
                naive_total.to_string(),
                hist_total.to_string(),
                notifications.to_string(),
                format!("×{:.1}", naive_total as f64 / hist_total as f64),
                alarms.to_string(),
            ]);
        }
    }
    report.add(t);
    if args.verbose() {
        println!(
            "\nShape check: naive traffic ≈ (k+1)·N and grows with consumers; the\n\
             histogram design stays at ≈ N producer accesses plus m ≪ N notifications,\n\
             with m tracking the alarm rate, independent of k in the normal case."
        );
    }
    report.save();
}
