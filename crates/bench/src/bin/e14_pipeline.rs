//! E14 — pipelined one-sided ops: issue/completion queues vs serial verbs.
//!
//! Claim (§2's bandwidth-delay argument, applied to data structures): a
//! client that keeps `depth` one-sided reads in flight behind one
//! doorbell overlaps their service times, so virtual time per op falls
//! ≈ min(depth, nodes)-fold on a striped fabric — while the *far access
//! count, bytes moved, and data read stay byte-identical to the serial
//! loop*. Latency is hidden, never work.
//!
//! Run: `cargo run --release -p farmem-bench --bin e14_pipeline`

use farmem_alloc::{AllocHint, FarAlloc};
use farmem_bench::{BenchArgs, Table};
use farmem_core::FarVec;
use farmem_fabric::{CostModel, FabricConfig, Striping, PAGE, WORD};

/// Words per range: one 4 KiB stripe segment, so consecutive ranges land
/// on consecutive nodes and their service times can overlap.
const RANGE_WORDS: u64 = PAGE / WORD;

fn main() {
    let args = BenchArgs::parse();
    let mut report = args.report("e14_pipeline");
    // Total ranges per cell; divisible by every depth in the sweep.
    let ops = 64;

    let mut t = Table::new(
        "E14: striped 4 KiB range reads — serial loop vs pipelined doorbells (virtual ns/op)",
        &[
            "nodes", "depth", "serial ns/op", "pipe ns/op", "speedup",
            "min(d,n)", "RT/op", "doorbells", "saved µs",
        ],
    );

    let mut headline: Option<f64> = None;
    for &nodes in &[1u32, 2, 4, 8] {
        for &depth in &[1usize, 2, 4, 8, 16] {
            let f = FabricConfig {
                nodes,
                node_capacity: 512 << 20,
                striping: Striping::Striped { stripe: PAGE },
                cost: CostModel::DEFAULT,
                ..FabricConfig::default()
            }
            .build();
            let alloc = FarAlloc::new(f.clone());
            let mut c = f.client();
            let v = FarVec::create(&mut c, &alloc, ops * RANGE_WORDS, AllocHint::Striped)
                .unwrap();
            for r in 0..ops {
                let vals: Vec<u64> = (0..RANGE_WORDS).map(|i| r * RANGE_WORDS + i + 1).collect();
                v.write_range(&mut c, r * RANGE_WORDS, &vals).unwrap();
            }
            let ranges: Vec<(u64, u64)> =
                (0..ops).map(|r| (r * RANGE_WORDS, RANGE_WORDS)).collect();

            // Warmup pass: node occupancy is fabric-global, so this
            // advances the client clock past the setup writes' bookings —
            // both measured passes then start with idle nodes.
            for &(first, count) in &ranges {
                v.read_range(&mut c, first, count).unwrap();
            }

            // Serial baseline: one dependent far access per range.
            let before = c.stats();
            let t0 = c.now_ns();
            let mut serial_data = Vec::with_capacity(ops as usize);
            for &(first, count) in &ranges {
                serial_data.push(v.read_range(&mut c, first, count).unwrap());
            }
            let serial_ns = c.now_ns() - t0;
            let serial = c.stats().since(&before);

            // Pipelined: `depth` descriptors per doorbell.
            let before = c.stats();
            let t0 = c.now_ns();
            let mut pipe_data = Vec::with_capacity(ops as usize);
            for batch in ranges.chunks(depth) {
                pipe_data.extend(v.read_ranges(&mut c, batch).unwrap());
            }
            let pipe_ns = c.now_ns() - t0;
            let pipe = c.stats().since(&before);

            // Latency hiding must not change the work or the answer.
            assert_eq!(pipe_data, serial_data, "pipelined data diverged");
            assert_eq!(pipe.round_trips, serial.round_trips, "round-trip parity");
            assert_eq!(pipe.bytes_read, serial.bytes_read, "byte parity");
            assert_eq!(pipe.pipelined_ops, ops, "every range pipelined");
            assert_eq!(pipe.doorbells, ops / depth as u64, "one doorbell per batch");

            let speedup = serial_ns as f64 / pipe_ns as f64;
            if nodes >= 4 && depth >= 4 && headline.is_none() {
                headline = Some(speedup);
            }
            if nodes >= 4 && depth >= 4 {
                assert!(
                    speedup >= 2.0,
                    "expected ≥2× at depth {depth} × {nodes} nodes, got ×{speedup:.2}"
                );
            }
            t.row(vec![
                nodes.to_string(),
                depth.to_string(),
                format!("{:.0}", serial_ns as f64 / ops as f64),
                format!("{:.0}", pipe_ns as f64 / ops as f64),
                format!("×{speedup:.2}"),
                (depth as u64).min(nodes as u64).to_string(),
                format!("{:.0}", pipe.round_trips as f64 / ops as f64),
                pipe.doorbells.to_string(),
                format!("{:.1}", pipe.overlap_saved_ns as f64 / 1_000.0),
            ]);
        }
    }
    report.add(t);
    if args.verbose() {
        println!(
            "\nShape check: speedup tracks min(depth, nodes) while payload service\n\
             dominates the round trip (4 KiB ≈ 4.1 µs service vs 2 µs RTT); round\n\
             trips, bytes, and data are byte-identical to the serial loop — the\n\
             pipeline hides latency, it never skips work. Headline: ×{:.2} at\n\
             depth ≥ 4 over ≥ 4 nodes (≥ 2× required).",
            headline.expect("sweep covers depth ≥ 4, nodes ≥ 4")
        );
    }
    report.save();
}
